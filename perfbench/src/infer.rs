//! The `infer` workload: host numerics.
//!
//! Set-up compiles the deployments (MobileNetV1 f32 and int8, LeNet-5 and
//! ResNet-18 on the Stratix 10 SX; the int8 compile runs the calibration)
//! and generates the seeded inputs. One round runs MobileNetV1 f32
//! inference over the seeded images, one MobileNetV1 int8 inference, and
//! LeNet-5 verification — the generated kernels run through the TIR
//! interpreter against the graph executor — over the seeded digits. The
//! compile crates do almost nothing here.
//!
//! After every round, outside its clock, one ResNet-18 inference is
//! attempted. It panics at this commit (the fused ResNet graph is out of
//! topological order), so it is counted as a known-defect failure,
//! reported apart from the workload's own operations, until the program is
//! fixed.

use crate::probe::Probe;
use crate::workload::{host, mix, tensor_digest, Ops, Quantity, RoundSamples, Workload};
use fpgaccel_core::bitstreams::optimized_config;
use fpgaccel_core::{verify_deployment, Deployment, Flow, OptimizationConfig, QuantSpec};
use fpgaccel_device::FpgaPlatform;
use fpgaccel_tensor::data::{imagenet_input, synthetic_digit};
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::quant::{calibrate, diff_outputs, QuantPrecision};
use fpgaccel_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// MobileNetV1 images per f32 sample.
const F32_IMAGES: usize = 2;
/// LeNet-5 digits verified per sample.
const VERIFY_DIGITS: usize = 4;
/// Relative tolerance of the kernel-vs-graph verification.
const VERIFY_RTOL: f32 = 1e-3;
const PLATFORM: FpgaPlatform = FpgaPlatform::Stratix10Sx;

const QUANTITIES: &[Quantity] = &[
    host("f32_images_per_s", "img/s"),
    host("int8_images_per_s", "img/s"),
    host("verify_s", "s"),
];

/// The host-numerics workload.
pub struct InferBench {
    mobilenet: Deployment,
    mobilenet_int8: Deployment,
    lenet: Deployment,
    resnet18: Deployment,
    images: Vec<Tensor>,
    digits: Vec<Tensor>,
    resnet_input: Tensor,
    /// Output digest of the warm-up round.
    expected: Option<String>,
}

fn compile(model: Model, cfg: &OptimizationConfig) -> Result<Deployment, String> {
    Flow::new(model, PLATFORM)
        .compile(cfg)
        .map_err(|e| format!("{} does not compile: {e}", model.name()))
}

/// Compiles the deployments and generates the seeded inputs.
pub fn setup(seed: u64, probe: &Probe) -> Result<InferBench, String> {
    let int8 = QuantSpec::new(QuantPrecision::Int8);
    let mobilenet = probe.call("core.compile_s", || {
        compile(
            Model::MobileNetV1,
            &optimized_config(Model::MobileNetV1, PLATFORM),
        )
    })?;
    let mobilenet_int8 = probe.call("core.compile_s", || {
        compile(
            Model::MobileNetV1,
            &OptimizationConfig::folded_base().with_quant(int8),
        )
    })?;
    if probe.is_on() {
        // The calibration the int8 compile ran, timed on its own.
        let batch = Flow::new(Model::MobileNetV1, PLATFORM).calibration_batch(&int8);
        probe
            .call("tensor.calibrate_s", || {
                calibrate(&mobilenet_int8.graph, &batch, int8.percentile)
            })
            .map_err(|e| format!("MobileNetV1 calibration: {e}"))?;
    }
    let lenet = probe.call("core.compile_s", || {
        compile(Model::LeNet5, &optimized_config(Model::LeNet5, PLATFORM))
    })?;
    let resnet18 = probe.call("core.compile_s", || {
        compile(
            Model::ResNet18,
            &optimized_config(Model::ResNet18, PLATFORM),
        )
    })?;
    Ok(InferBench {
        mobilenet,
        mobilenet_int8,
        lenet,
        resnet18,
        images: (0..F32_IMAGES as u64)
            .map(|i| imagenet_input(mix(seed, 10 + i)))
            .collect(),
        digits: (0..VERIFY_DIGITS as u64)
            .map(|j| synthetic_digit((mix(seed, 20 + j) % 10) as usize, mix(seed, 30 + j)))
            .collect(),
        resnet_input: imagenet_input(mix(seed, 40)),
        expected: None,
    })
}

impl InferBench {
    /// int8 against f32 on the first image, every layer within the
    /// precision's documented tolerance.
    fn int8_within_tolerance(&self, ops: &mut Ops) {
        let x = &self.images[0];
        let q = self.mobilenet_int8.quant.as_ref().expect("int8 deployment");
        let got = self
            .mobilenet_int8
            .quantized()
            .expect("int8 executor")
            .execute_all(x);
        let reference = self.mobilenet_int8.graph.execute_all(x);
        let report = got.as_ref().map(|got| {
            diff_outputs(
                &self.mobilenet_int8.graph,
                &q.calib,
                q.precision,
                got,
                &reference,
            )
        });
        ops.check(report.as_ref().is_ok_and(|r| r.pass()), || match &report {
            Ok(r) => format!(
                "int8 outside tolerance of f32 at {:?}",
                r.worst().map(|w| (&w.node, w.err, w.tol))
            ),
            Err(e) => format!("int8 execution: {e}"),
        });
    }
}

impl Workload for InferBench {
    fn quantities(&self) -> &'static [Quantity] {
        QUANTITIES
    }

    fn round(&mut self, k: usize, probe: &Probe, ops: &mut Ops) -> RoundSamples {
        if k == 0 {
            self.int8_within_tolerance(ops);
        }
        let mut digest = String::new();

        let t = Instant::now();
        for x in &self.images {
            let out = probe.call("core.infer", || {
                let output = probe.call("tensor.execute_s.MobileNetV1", || {
                    self.mobilenet.graph.execute(x)
                });
                // `Deployment::infer` is the graph execution plus the
                // simulated single-image latency, called here in parts.
                let sim = probe.call("runtime.sim_s", || self.mobilenet.simulate_batch(1));
                (output, sim.seconds)
            });
            ops.check(out.0.all_finite() && out.1 > 0.0, || {
                "MobileNetV1 f32 output is not finite".into()
            });
            digest.push_str(&format!(
                "f32:{}:{:x};",
                out.0.argmax(),
                tensor_digest(&out.0)
            ));
        }
        let f32_images_per_s = self.images.len() as f64 / t.elapsed().as_secs_f64();

        let t = Instant::now();
        let int8 = probe.call("tensor.quant_execute_s.MobileNetV1", || {
            self.mobilenet_int8
                .quantized()
                .expect("int8 executor")
                .execute(&self.images[0])
        });
        let int8_images_per_s = 1.0 / t.elapsed().as_secs_f64();
        ops.check(int8.as_ref().is_ok_and(Tensor::all_finite), || {
            format!("MobileNetV1 int8: {:?}", int8.as_ref().err())
        });
        if let Ok(out) = &int8 {
            digest.push_str(&format!("int8:{}:{:x};", out.argmax(), tensor_digest(out)));
        }

        let t = Instant::now();
        for (j, x) in self.digits.iter().enumerate() {
            let verified = probe.call("core.verify", || {
                verify_deployment(&self.lenet, x, VERIFY_RTOL)
            });
            ops.check(verified.is_ok(), || {
                format!("LeNet-5 digit {j}: {:?}", verified.err())
            });
        }
        let verify_s = t.elapsed().as_secs_f64() / self.digits.len() as f64;

        let expected = self.expected.get_or_insert_with(|| digest.clone());
        ops.check(*expected == digest, || {
            "inference outputs differ from the warm-up round".into()
        });

        RoundSamples::from([
            ("f32_images_per_s", f32_images_per_s),
            ("int8_images_per_s", int8_images_per_s),
            ("verify_s", verify_s),
        ])
    }

    fn after_round(&mut self, probe: &Probe, ops: &mut Ops) -> RoundSamples {
        // Outside the round's clock, so fixing the defect (which turns a
        // quick panic into a full ResNet-18 forward pass) does not read as
        // a slower round.
        let resnet = catch_unwind(AssertUnwindSafe(|| {
            probe.call("core.infer.ResNet-18", || {
                self.resnet18.infer(&self.resnet_input)
            })
        }));
        ops.known_defect(resnet.is_err());
        if probe.is_on() {
            // The graph-executor half of verification, timed on its own so
            // the interpreter's share is the remainder.
            for x in &self.digits {
                probe.call("tensor.reference_s", || self.lenet.graph.execute_all(x));
            }
        }
        RoundSamples::from([(
            "core.infer_failed.ResNet-18",
            f64::from(u8::from(resnet.is_err())),
        )])
    }
}
