//! The `flow` workload: compile-heavy, no numeric tensor work.
//!
//! One round compiles every (model, platform, base/optimized) cell of the
//! thesis FPS tables (Tables 6.9/6.11/6.14, as transcribed in
//! `fpgaccel_bench::paper`) plus the streaming-dataflow variant of every
//! chain-or-folded model the dataflow planner accepts, emits each
//! compiled program's OpenCL, simulates each fitted cell once to compare
//! its FPS with the paper, and runs one cold auto-tuning search. Graph
//! execution, the IR interpreter, serving and the fleet are bypassed.
//!
//! Set-up constructs the four zoo models once; each compile then imports
//! (clones, fuses and pads) its graph, as `Flow::import_graph` does.

use crate::probe::Probe;
use crate::workload::{fnv, host, mix, sim, Ops, Quantity, RoundSamples, Workload};
use fpgaccel_aoc::synthesize;
use fpgaccel_bench::paper;
use fpgaccel_core::bitstreams::{baseline_config, mobilenet_tile, optimized_config};
use fpgaccel_core::kernels::{build_folded, build_pipelined};
use fpgaccel_core::{
    build_dataflow, tune_model, Deployment, ExecMode, ExecutionPlan, Flow, FlowError,
    OptimizationConfig, TilingPreset,
};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::models::Model;
use fpgaccel_tir::codegen::emit_program;
use fpgaccel_tir::Kernel;
use fpgaccel_trace::{Registry, Tracer};
use fpgaccel_tune::{SearchConfig, TuningDb};
use std::time::Instant;

/// The model and platform the cold auto-tuning search runs on.
const TUNE_TARGET: (Model, FpgaPlatform) = (Model::MobileNetV1, FpgaPlatform::Stratix10Sx);

const QUANTITIES: &[Quantity] = &[
    host("compile_s", "s"),
    host("tune_s", "s"),
    sim("paper_fps_err", "ratio"),
];

/// One compile of the matrix.
struct Cell {
    model: Model,
    platform: FpgaPlatform,
    kind: &'static str,
    config: OptimizationConfig,
    /// The thesis' FPS for the cell; `None` where it reports that the
    /// design did not synthesize. Dataflow cells have no thesis number.
    paper_fps: Option<f64>,
    /// Whether the cell is one of the thesis tables' cells.
    in_thesis: bool,
}

/// Simulated batch per model, as the thesis tables use.
fn batch_for(model: Model) -> usize {
    if model == Model::LeNet5 {
        500
    } else {
        3
    }
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in Model::ALL {
        for platform in FpgaPlatform::ALL {
            cells.push(Cell {
                model,
                platform,
                kind: "base",
                config: baseline_config(model),
                paper_fps: paper::base_fps(model, platform),
                in_thesis: true,
            });
            cells.push(Cell {
                model,
                platform,
                kind: "optimized",
                config: optimized_config(model, platform),
                paper_fps: paper::optimized_fps(model, platform),
                in_thesis: true,
            });
        }
    }
    // The dataflow planner takes chain and depthwise-separable networks;
    // residual graphs are out of its scope.
    for model in [Model::LeNet5, Model::MobileNetV1] {
        for platform in FpgaPlatform::ALL {
            let tiling = match model {
                Model::LeNet5 => TilingPreset::Naive,
                _ => TilingPreset::MobileNet {
                    one_by_one: mobilenet_tile(platform),
                },
            };
            cells.push(Cell {
                model,
                platform,
                kind: "dataflow",
                config: OptimizationConfig::dataflow(tiling),
                paper_fps: None,
                in_thesis: false,
            });
        }
    }
    cells
}

/// The compile-heavy workload.
pub struct FlowBench {
    /// One flow per model over its prebuilt graph; the platform is set
    /// per cell.
    flows: Vec<(Model, Flow)>,
    cells: Vec<Cell>,
    tune_seed: u64,
    /// Per-round outcome digest of the warm-up round, which every later
    /// round must reproduce.
    expected: Option<String>,
}

/// Builds the four zoo models.
pub fn setup(seed: u64, probe: &Probe) -> FlowBench {
    let flows = Model::ALL
        .iter()
        .map(|&m| {
            let graph = probe.call("tensor.build_s", || m.build());
            (m, Flow::for_graph(graph, FpgaPlatform::Stratix10Sx))
        })
        .collect();
    FlowBench {
        flows,
        cells: cells(),
        tune_seed: mix(seed, 1),
        expected: None,
    }
}

/// The compile stages `Flow::compile` runs, called one by one so each
/// gets its own span. `Flow::compile` additionally checks the device
/// memory budget, which no matrix cell exceeds; the per-round digest
/// check holds the two paths to the same outcome.
fn compile_in_stages(
    flow: &Flow,
    cfg: &OptimizationConfig,
    probe: &Probe,
) -> Result<Deployment, FlowError> {
    let graph = probe.call("tensor.import_s", || flow.import_graph());
    let device = flow.platform.model();
    let (plan, kernels): (ExecutionPlan, Vec<Kernel>) = match cfg.mode {
        ExecMode::Pipelined => {
            let stages = probe.call("core.plan_s", || build_pipelined(&graph, cfg))?;
            let kernels = stages.iter().map(|s| s.kernel.clone()).collect();
            (ExecutionPlan::Pipelined(stages), kernels)
        }
        ExecMode::Folded => {
            let plan = probe.call("core.plan_s", || build_folded(&graph, cfg))?;
            let kernels = plan.kernels.clone();
            (ExecutionPlan::Folded(plan), kernels)
        }
        ExecMode::Dataflow => {
            let plan = probe.call("pipeline.plan_s", || {
                build_dataflow(&graph, cfg, &device, &flow.calib)
            })?;
            let kernels = plan.kernels.clone();
            (ExecutionPlan::Dataflow(plan), kernels)
        }
    };
    let bitstream = probe.call("aoc.synth_s", || {
        synthesize(&kernels, &device, &cfg.aoc, &flow.calib)
    })?;
    Ok(Deployment::new(
        graph,
        plan,
        bitstream,
        device,
        cfg.clone(),
        flow.calib.clone(),
    ))
}

fn kernels_of(d: &Deployment) -> Vec<&Kernel> {
    match &d.plan {
        ExecutionPlan::Pipelined(stages) => stages.iter().map(|s| &s.kernel).collect(),
        ExecutionPlan::Folded(p) => p.kernels.iter().collect(),
        ExecutionPlan::Dataflow(p) => p.kernels.iter().collect(),
    }
}

impl Workload for FlowBench {
    fn quantities(&self) -> &'static [Quantity] {
        QUANTITIES
    }

    fn round(&mut self, _k: usize, probe: &Probe, ops: &mut Ops) -> RoundSamples {
        let mut digest = String::new();
        let (mut rejected, mut kernels, mut opencl_bytes) = (0usize, 0usize, 0usize);
        let (mut compile_s, mut log_err, mut n_err) = (0.0, 0.0, 0usize);
        for cell in &self.cells {
            let (_, flow) = self
                .flows
                .iter_mut()
                .find(|(m, _)| *m == cell.model)
                .expect("every zoo model has a flow");
            flow.platform = cell.platform;
            let t = Instant::now();
            let result = if probe.is_on() {
                compile_in_stages(flow, &cell.config, probe)
            } else {
                flow.compile(&cell.config)
            };
            compile_s += t.elapsed().as_secs_f64();
            let label = format!(
                "{}/{}/{}",
                cell.model.name(),
                cell.platform.label(),
                cell.kind
            );
            // The thesis reports a FPS for every cell that synthesized and
            // none for the A10 ResNet and naive MobileNet designs; those
            // must fail synthesis, everything else must compile.
            let outcome_ok = match (&result, cell.in_thesis) {
                (Ok(_), true) => cell.paper_fps.is_some(),
                (Err(FlowError::Synthesis(_)), true) => cell.paper_fps.is_none(),
                (Ok(_), false) => true,
                (Err(_), _) => false,
            };
            ops.check(outcome_ok, || match &result {
                Ok(_) => format!("{label}: compiled, but the thesis reports no fit"),
                Err(e) => format!("{label}: {e}"),
            });
            let d = match result {
                Ok(d) => d,
                Err(e) => {
                    rejected += 1;
                    digest.push_str(&format!("{label}:err:{e};"));
                    continue;
                }
            };
            let program = probe.call("tir.emit_s", || emit_program(&kernels_of(&d)));
            kernels += kernels_of(&d).len();
            opencl_bytes += program.len();
            // Model/paper FPS over every thesis cell that has both.
            let fps = probe
                .call("runtime.sim_s", || d.simulate_batch(batch_for(cell.model)))
                .fps;
            if let Some(paper_fps) = cell.paper_fps {
                log_err += (fps / paper_fps).ln().abs();
                n_err += 1;
            }
            digest.push_str(&format!(
                "{label}:{}:{:x}:{fps:.9e};",
                d.fit_summary(),
                fnv(program.bytes())
            ));
        }
        let paper_fps_err = (log_err / n_err.max(1) as f64).exp();

        let t = Instant::now();
        let tuned = probe.call("tune.search_s", || {
            tune_model(
                TUNE_TARGET.0,
                TUNE_TARGET.1,
                SearchConfig {
                    seed: self.tune_seed,
                    ..SearchConfig::default()
                },
                &mut TuningDb::new(),
                &Tracer::disabled(),
                &Registry::default(),
            )
        });
        let tune_s = t.elapsed().as_secs_f64();
        let evaluations = match &tuned {
            Ok(o) => {
                digest.push_str(&format!(
                    "tune:{:?}:{}:{:.9e}",
                    o.candidate, o.evaluations, o.seconds_per_image
                ));
                o.evaluations
            }
            Err(_) => 0,
        };
        ops.check(
            tuned
                .as_ref()
                .is_ok_and(|o| !o.from_cache && o.evaluations > 0),
            || format!("cold tune search: {:?}", tuned.as_ref().err()),
        );

        let expected = self.expected.get_or_insert_with(|| digest.clone());
        ops.check(*expected == digest, || {
            "flow round outcome differs from the warm-up round".into()
        });

        RoundSamples::from([
            ("compile_s", compile_s),
            ("tune_s", tune_s),
            ("paper_fps_err", paper_fps_err),
            ("tir.kernels", kernels as f64),
            ("tir.opencl_bytes", opencl_bytes as f64),
            ("tune.evaluations", evaluations as f64),
            ("flow.cells", self.cells.len() as f64),
            ("flow.cells_rejected", rejected as f64),
            ("flow.paper_fps_err", paper_fps_err),
        ])
    }
}
