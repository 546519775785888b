//! Host wall-clock and per-layer benchmark of the fpgaccel crates.
//!
//! ```text
//! perfbench --workload <flow|infer|fleet-outage> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one process that puts most of its work on a different
//! group of crates (see `flow.rs`, `infer.rs` and `fleet.rs`). The process
//! sets the workload up several times, runs one discarded warm-up round,
//! then samples every timed quantity in interleaved rounds until
//! `--seconds` are spent; every metric is the median over rounds, printed
//! with its quartiles and sample count. Every round checks the program's
//! outputs and counts the operations attempted and failed.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics. With `--trace 1` traced and untraced rounds
//! alternate: each call the benchmark makes into a crate is wrapped in a
//! span on a `fpgaccel_trace::Tracer`, the last line carries the per-layer
//! metrics (self time per layer, and counts read from result structs), the
//! report states the tracing overhead as the traced minus the untraced
//! round time, and the spans are written out as a Chrome trace under
//! `perfbench/out/`.

mod fleet;
mod flow;
mod heap;
mod infer;
mod metrics;
mod probe;
mod rounds;
mod stats;
mod workload;

use probe::Probe;
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;
use workload::{Ops, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed rounds a run makes even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            metrics::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn setup(name: &str, seed: u64, probe: &Probe) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "flow" => Box::new(flow::setup(seed, probe)),
        "infer" => Box::new(infer::setup(seed, probe)?),
        "fleet-outage" => Box::new(fleet::setup(seed, probe)?),
        _ => unreachable!("workload names are checked when parsing"),
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Everything one run measured.
struct Measured {
    setups: Vec<f64>,
    /// Per-layer samples of the traced set-ups.
    setup_layers: BTreeMap<String, Vec<f64>>,
    series: BTreeMap<String, Vec<f64>>,
    rounds: usize,
    ops: Ops,
    quantities: &'static [workload::Quantity],
}

fn measure(args: &Args, epoch: Instant) -> Result<(Measured, Option<Probe>), String> {
    let probe = args
        .trace
        .then(|| Probe::new(fpgaccel_trace::Tracer::enabled(), epoch));
    let off = Probe::off();
    let on = probe.as_ref().unwrap_or(&off);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut work = None;
    for i in 0..SETUPS {
        // The first set-up is timed from process start.
        let t = if i == 0 { epoch } else { Instant::now() };
        let cut = on.span_count();
        // Drop the previous set-up's state first so set-ups do not stack
        // up memory.
        drop(work.take());
        work = Some(setup(&args.workload, args.seed, on)?);
        setups.push(t.elapsed().as_secs_f64());
        for (layer, s) in on.self_times(cut) {
            setup_layers.entry(layer).or_default().push(s);
        }
    }
    let mut work = work.expect("at least one set-up");

    let mut ops = Ops::default();
    let clock = Instant::now();
    let sampled = rounds::interleaved(
        args.seconds,
        MIN_ROUNDS,
        || clock.elapsed().as_secs_f64(),
        |k| {
            let mut out: BTreeMap<String, f64> = BTreeMap::new();
            // The warm-up round runs untraced. Traced runs alternate which
            // half of a round goes first.
            let traced_first = k % 2 == 1;
            for traced in [traced_first, !traced_first] {
                if traced && (k == 0 || probe.is_none()) {
                    continue;
                }
                let p = if traced { on } else { &off };
                let cut = p.span_count();
                let t = Instant::now();
                let mut samples = work.round(k, p, &mut ops);
                let round_s = t.elapsed().as_secs_f64();
                samples.extend(work.after_round(p, &mut ops));
                if traced {
                    out.insert("round_s.traced".into(), round_s);
                    out.extend(p.self_times(cut));
                    for (name, v) in samples {
                        out.entry(name.into()).or_insert(v);
                    }
                } else {
                    out.insert("round_s".into(), round_s);
                    out.extend(samples.into_iter().map(|(k, v)| (k.to_string(), v)));
                }
            }
            out
        },
    );
    let quantities = work.quantities();
    drop(work);
    Ok((
        Measured {
            setups,
            setup_layers,
            series: sampled.series,
            rounds: sampled.rounds,
            ops,
            quantities,
        },
        probe,
    ))
}

fn fmt(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

fn row(name: &str, unit: &str, clock: &str, s: &Summary) -> String {
    format!(
        "  {name:<38} {unit:<6} {clock:<5} n={:<4} q1={:<11} median={:<11} q3={:<11} spread={:.1}%",
        s.n,
        fmt(s.q1),
        fmt(s.median),
        fmt(s.q3),
        100.0 * s.spread()
    )
}

/// Prints the report and returns the metrics of the result line.
fn report(args: &Args, m: &Measured, rss_mb: f64) -> BTreeMap<&'static str, (f64, &'static str)> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} rounds={} (+1 warm-up) set-ups={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.rounds,
        m.setups.len()
    );
    let summary = |name: &str| m.series.get(name).and_then(|v| Summary::of(v));
    // A layer sampled in rounds, else in set-ups.
    let layer = |name: &str| {
        summary(name).or_else(|| m.setup_layers.get(name).and_then(|v| Summary::of(v)))
    };
    let setup = Summary::of(&m.setups).expect("set-up ran");

    println!("end-to-end quantities of this workload (untraced rounds):");
    println!("{}", row("setup_s", "s", "host", &setup));
    for q in m.quantities {
        if let Some(s) = summary(q.name) {
            println!("{}", row(q.name, q.unit, q.clock.label(), &s));
        }
    }
    if let Some(s) = summary("round_s") {
        println!("{}", row("round_s", "s", "host", &s));
    }
    println!("  {:<38} MB     host  {}", "peak_rss_mb", fmt(rss_mb));
    println!(
        "operations: attempted={} failed={}",
        m.ops.attempted, m.ops.failed
    );
    if m.ops.defect_attempts > 0 {
        println!(
            "known defect: ResNet-18 Deployment::infer attempted={} failed={} \
             (failure share {:.0}%, counted apart from the operations above)",
            m.ops.defect_attempts,
            m.ops.defect_failures,
            100.0 * m.ops.defect_failures as f64 / m.ops.defect_attempts as f64
        );
    }
    for p in &m.ops.problems {
        println!("FAILED: {p}");
    }

    let mut out = BTreeMap::new();
    if !args.trace {
        for (name, unit) in metrics::END_TO_END {
            let value = match name {
                "setup_s" => Some(setup.median),
                "peak_rss_mb" => Some(rss_mb),
                _ => summary(name).map(|s| s.median),
            };
            if let Some(v) = value {
                out.insert(name, (v, unit));
            }
        }
        return out;
    }

    println!("per-layer metrics (traced rounds; self time and counts per round):");
    let mut idle = Vec::new();
    for l in metrics::PER_LAYER {
        let s = match l.derived {
            Some((whole, part)) => {
                let a = m.series.get(whole);
                let b = m.series.get(part);
                let diff: Option<Vec<f64>> = a
                    .zip(b)
                    .map(|(a, b)| a.iter().zip(b).map(|(x, y)| x - y).collect());
                diff.and_then(|d| Summary::of(&d))
            }
            None => layer(l.name),
        };
        let s = s.unwrap_or(Summary {
            n: 0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
        });
        if s.n == 0 {
            idle.push(l.name);
        } else {
            println!("{}", row(l.name, l.unit, l.clock.label(), &s));
        }
        out.insert(l.name, (s.median, l.unit));
    }
    if !idle.is_empty() {
        println!(
            "  not called by this workload (reported as 0): {}",
            idle.join(", ")
        );
    }
    let unlisted: Vec<&String> = m
        .series
        .keys()
        .chain(m.setup_layers.keys())
        .filter(|k| k.contains('.') && !k.starts_with("round_s"))
        .filter(|k| metrics::PER_LAYER.iter().all(|l| l.name != k.as_str()))
        .collect();
    for k in unlisted {
        if let Some(s) = layer(k) {
            println!("{}  (span, not a listed metric)", row(k, "s", "host", &s));
        }
    }
    if let (Some(t), Some(u)) = (summary("round_s.traced"), summary("round_s")) {
        println!(
            "tracing overhead: traced round {} s - untraced round {} s = {} s ({:+.1}%)",
            fmt(t.median),
            fmt(u.median),
            fmt(t.median - u.median),
            100.0 * (t.median - u.median) / u.median
        );
    }
    out
}

/// The last panic message, for reporting a panic that escapes a round.
static LAST_PANIC: Mutex<String> = Mutex::new(String::new());

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(
    correct: bool,
    ops: &Ops,
    metrics: &BTreeMap<&'static str, (f64, &'static str)>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                metrics::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Expected panics (the known ResNet-18 defect) are caught and counted;
    // keep their messages off the terminal.
    std::panic::set_hook(Box::new(|info| {
        if let Ok(mut last) = LAST_PANIC.lock() {
            *last = info.to_string();
        }
    }));
    let measured = std::panic::catch_unwind(|| measure(&args, epoch));
    let (m, probe) = match measured {
        Ok(Ok(m)) => m,
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!(
                "perfbench: panic: {}",
                LAST_PANIC.lock().map(|s| s.clone()).unwrap_or_default()
            );
            return ExitCode::FAILURE;
        }
    };
    let rss_mb = peak_rss_mb().unwrap_or(0.0);
    let metrics = report(&args, &m, rss_mb);
    if let Some(p) = &probe {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, p.chrome_json())) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let correct = m.ops.failed == 0 && m.ops.attempted > 0;
    println!("{}", result_line(correct, &m.ops, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_reported_keys() {
        let ops = Ops {
            attempted: 3,
            failed: 1,
            ..Ops::default()
        };
        let metrics = BTreeMap::from([("round_s", (1.25, "s")), ("setup_s", (0.5, "s"))]);
        assert_eq!(
            result_line(false, &ops, &metrics),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"round_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
