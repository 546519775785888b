//! `repro` — regenerates every table and figure of the thesis evaluation.
//!
//! ```text
//! cargo run --release -p fpgaccel-bench --bin repro -- all
//! cargo run --release -p fpgaccel-bench --bin repro -- tab6_9 fig6_3
//! cargo run --release -p fpgaccel-bench --bin repro -- --list
//! cargo run --release -p fpgaccel-bench --bin repro -- trace fig6_2
//! ```
//!
//! Experiment reports print to stdout byte-identically run to run;
//! `trace <experiment>` writes a Chrome trace-event JSON timeline
//! (Perfetto-loadable) instead. `-q`/`-v` adjust diagnostic verbosity
//! (`FPGACCEL_LOG=quiet|normal|verbose` presets it).

use fpgaccel_bench::{experiments, log, tracing};

/// Count heap allocations so the hot-path profiler's allocation columns
/// are live when experiments run under `repro` (library consumers that
/// don't install it just read zeros).
#[global_allocator]
static ALLOC: fpgaccel_trace::alloc::CountingAlloc = fpgaccel_trace::alloc::CountingAlloc;

fn usage() {
    log::error("usage: repro [-q|-v] [--list] [all | <experiment id>...]");
    log::error("       repro [-q|-v] trace <experiment> [output.json]");
    log::error("experiments:");
    for (name, _) in experiments::ALL_EXPERIMENTS {
        let traced = if tracing::TRACEABLE.contains(name) {
            "  (traceable)"
        } else {
            ""
        };
        log::error(&format!("  {name}{traced}"));
    }
}

/// The `trace <experiment>` subcommand: export a Perfetto-loadable
/// timeline for one experiment. Exits nonzero on unknown or untraceable
/// ids and on I/O failure.
fn run_trace(args: &[String]) {
    let Some(id) = args.first() else {
        usage();
        std::process::exit(2);
    };
    let Some(json) = tracing::trace_experiment(id) else {
        log::error(&format!(
            "no timeline export for `{id}` (traceable: {})",
            tracing::TRACEABLE.join(", ")
        ));
        std::process::exit(1);
    };
    let path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| format!("trace_{id}.json"));
    if let Err(e) = std::fs::write(&path, &json) {
        log::error(&format!("cannot write {path}: {e}"));
        std::process::exit(1);
    }
    log::note(&format!(
        "wrote {path} ({} bytes) — load it at https://ui.perfetto.dev",
        json.len()
    ));
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    log::init(&mut args);
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        std::process::exit(0);
    }
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--list") {
        for (name, _) in experiments::ALL_EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    if args[0] == "trace" {
        run_trace(&args[1..]);
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        experiments::ALL_EXPERIMENTS
            .iter()
            .map(|(n, _)| *n)
            .collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        log::debug(&format!("running {id}"));
        match experiments::run(id) {
            Some(Ok(report)) => {
                println!("{report}");
            }
            Some(Err(e)) => {
                log::error(&format!("{id}: {e}"));
                std::process::exit(1);
            }
            None => {
                log::error(&format!("unknown experiment `{id}` (try --list)"));
                std::process::exit(1);
            }
        }
    }
}
