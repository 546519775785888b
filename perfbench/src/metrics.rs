//! The benchmark's workload names and per-layer metric catalog.
//!
//! Layer metrics are named `<crate>.<quantity>`. Times are the self time
//! of the benchmark's spans around calls into that crate, summed over one
//! round (or one set-up, for set-up layers) and reported as the median
//! over rounds; counts are read from the program's result structs. A
//! workload that never calls into a layer reports 0 for it.

use crate::workload::Clock;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["flow", "infer", "fleet-outage"];

/// The end-to-end metrics every workload reports with `--trace 0`:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("round_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// One per-layer metric.
pub struct Layer {
    /// `<crate>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Host for span times, sim for counts and simulated outcomes.
    pub clock: Clock,
    /// `Some((whole, part))`: the metric is `whole - part`, round by round.
    pub derived: Option<(&'static str, &'static str)>,
}

const fn host(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "s",
        clock: Clock::Host,
        derived: None,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        clock: Clock::Sim,
        derived: None,
    }
}

/// Every per-layer metric, grouped by the workload that exercises it.
pub const PER_LAYER: &[Layer] = &[
    // flow
    host("tensor.build_s"),
    host("tensor.import_s"),
    host("core.plan_s"),
    host("pipeline.plan_s"),
    host("aoc.synth_s"),
    host("tir.emit_s"),
    count("tir.kernels", "count"),
    count("tir.opencl_bytes", "bytes"),
    host("runtime.sim_s"),
    host("tune.search_s"),
    count("tune.evaluations", "count"),
    count("flow.cells", "count"),
    count("flow.cells_rejected", "count"),
    count("flow.paper_fps_err", "ratio"),
    // infer
    host("core.compile_s"),
    host("tensor.calibrate_s"),
    host("tensor.execute_s.MobileNetV1"),
    host("tensor.quant_execute_s.MobileNetV1"),
    host("tensor.reference_s"),
    Layer {
        name: "tir.interp_s",
        unit: "s",
        clock: Clock::Host,
        derived: Some(("core.verify", "tensor.reference_s")),
    },
    count("core.infer_failed.ResNet-18", "count"),
    // fleet-outage
    host("fleet.spec_s"),
    host("fleet.placement_s.cold"),
    host("fleet.placement_s.warm"),
    host("fleet.build_s"),
    host("fleet.run_s"),
    host("serve.run_s"),
    count("fleet.routed", "count"),
    count("fleet.overflowed", "count"),
    count("fleet.hedges", "count"),
    count("fleet.hedge_wins", "count"),
    count("fleet.hedge_useful", "ratio"),
    count("fleet.replays", "count"),
    count("fleet.breaker_opens", "count"),
    count("fleet.heals", "count"),
    count("fleet.shed", "count"),
    count("fleet.failed", "count"),
    count("serve.mean_batch", "req"),
    count("fleet.slo_goodput", "ratio"),
    count("fleet.p50_ms", "ms"),
    count("fleet.p99_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for l in PER_LAYER {
            assert!(seen.insert(l.name), "{} listed twice", l.name);
            assert!(l.name.len() <= 64);
            assert!(l.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(l
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// The metric lists in `BENCHMARK.json` are the ones this binary prints.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        use fpgaccel_trace::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            listed("per_layer"),
            own(PER_LAYER.iter().map(|l| (l.name, l.unit)).collect())
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
