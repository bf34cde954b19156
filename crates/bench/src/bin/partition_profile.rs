//! One-shot wall-clock probe for the sharded scheduler: times a single
//! session solve per verifier strategy on the partition bench's
//! constant-density workload — the quick way to compare the flat and
//! hierarchical far-field verifiers (or to tune the pyramid cutoff) without
//! sitting through the full criterion sweep. Prints the uniform
//! `SolveReport::summary()` line per run, whatever backend produced it.
//!
//! ```text
//! cargo run --release -p wagg-bench --bin partition_profile -- [n] [shards] [--trace out.json]
//! ```
//!
//! Defaults: `n = 200000`, `shards = 16`.
//!
//! With `--trace out.json`, each solve runs under a `wagg-obs` recorder and
//! the hierarchical run's phase tree is written to `out.json` in Chrome
//! `trace_event` format (open in `chrome://tracing`, Perfetto or
//! speedscope). The written file is re-read and validated, and the root
//! span is cross-checked against the measured wall-clock — "trace OK" on
//! stdout means both passed.

use std::time::Instant;
use wagg_bench::uniform_unit_links;
use wagg_obs::{trace, Recorder};
use wagg_partition::VerifierStrategy;
use wagg_schedule::{PowerMode, SchedulerConfig};
use wagg_session::{Backend, Session};

fn main() {
    let mut n: usize = 200_000;
    let mut shards: usize = 16;
    let mut trace_path: Option<String> = None;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--trace needs an output path");
                std::process::exit(2);
            }));
        } else if let Ok(v) = arg.parse() {
            match positional {
                0 => n = v,
                _ => shards = v,
            }
            positional += 1;
        } else {
            eprintln!("unrecognised argument {arg:?}");
            std::process::exit(2);
        }
    }
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    eprintln!("generating n={n} links...");
    let links = uniform_unit_links(n, n as u64);
    for (label, strategy) in [
        ("flat", VerifierStrategy::Hierarchical { depth: Some(1) }),
        ("hierarchical", VerifierStrategy::default()),
    ] {
        // A fresh recorder per run keeps each trace single-rooted.
        let rec = if trace_path.is_some() {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Sharded)
            .target_shards(shards)
            .verifier(strategy)
            .recorder(rec.clone())
            .links(&links)
            .build();
        let t0 = Instant::now();
        let report = session.solve();
        let dt = t0.elapsed();
        println!(
            "{label:>13}: {:.3} s  {}",
            dt.as_secs_f64(),
            report.summary()
        );
        // Export the last (hierarchical = default-strategy) run.
        if let (Some(path), "hierarchical") = (&trace_path, label) {
            export_trace(&rec, path, dt.as_secs_f64());
        }
    }
}

/// Writes the recorder's chrome trace to `path`, then re-reads and
/// validates it and cross-checks the root span against the measured
/// wall-clock (the spans must account for the solve they claim to time).
fn export_trace(rec: &Recorder, path: &str, wall_secs: f64) {
    std::fs::write(path, rec.chrome_trace()).unwrap_or_else(|e| {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    });
    let written = std::fs::read_to_string(path).expect("just-written trace reads back");
    let stats = trace::validate(&written).unwrap_or_else(|e| {
        eprintln!("trace in {path} failed validation: {e}");
        std::process::exit(1);
    });
    let root_secs = stats.max_dur_us / 1e6;
    let deviation = (wall_secs - root_secs).abs() / wall_secs.max(1e-9);
    if stats.events == 0 {
        eprintln!("trace in {path} is empty (obs feature off?)");
        std::process::exit(1);
    }
    if deviation > 0.10 {
        eprintln!(
            "root span {root_secs:.3} s deviates {:.1}% from wall-clock {wall_secs:.3} s",
            deviation * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "trace OK: {path} ({} events, root {root_secs:.3} s vs wall {wall_secs:.3} s)",
        stats.events
    );
}
