//! `perfbench`: the repository's benchmark. One process runs one workload:
//! set-up (several times, for `setup_s`), a fixed seeded op sequence whose
//! length follows from `--seconds`, output checks, then one JSON result line
//! on stdout. `--trace 1` runs the sequence once untraced and once with a
//! span around every call the benchmark makes into a layer, and prints the
//! per-layer metrics instead. See `README.md` beside this package.
//!
//! ```text
//! perfbench --workload <paper_cold|churn_sharded|service_trees> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file.jsonl>]
//! ```

mod churn_sharded;
mod common;
mod paper_cold;
mod service_trees;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use common::{median, peak_rss_mb, pool_threads, quantile, Kind, Outcome};
use trace::Tracer;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("slots", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints all of them, 0 where the
/// workload does not reach the layer.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("mst.euclidean_ms", "ms"),
    ("conflict.build_ms.global", "ms"),
    ("conflict.build_ms.oblivious", "ms"),
    ("conflict.build_ms.uniform", "ms"),
    ("conflict.color_ms.global", "ms"),
    ("conflict.color_ms.oblivious", "ms"),
    ("conflict.color_ms.uniform", "ms"),
    ("conflict.edges.global", "count"),
    ("conflict.edges.oblivious", "count"),
    ("conflict.edges.uniform", "count"),
    ("schedule.verify_ms.global", "ms"),
    ("schedule.verify_ms.oblivious", "ms"),
    ("schedule.verify_ms.uniform", "ms"),
    ("schedule.split_ratio.global", "ratio"),
    ("schedule.split_ratio.oblivious", "ratio"),
    ("schedule.split_ratio.uniform", "ratio"),
    ("sinr.check_ms.global", "ms"),
    ("sinr.check_ms.oblivious", "ms"),
    ("sinr.check_ms.uniform", "ms"),
    ("session.solve_ms.global", "ms"),
    ("session.solve_ms.oblivious", "ms"),
    ("session.solve_ms.uniform", "ms"),
    ("session.overhead_ms.global", "ms"),
    ("session.overhead_ms.oblivious", "ms"),
    ("session.overhead_ms.uniform", "ms"),
    ("session.build_ms", "ms"),
    ("session.cold_solve_ms", "ms"),
    ("session.event_ms.relocate", "ms"),
    ("session.event_ms.insert", "ms"),
    ("session.event_ms.remove", "ms"),
    ("session.warm_solve_ms", "ms"),
    ("repair.dirty_links", "count/solve"),
    ("repair.replaced_links", "count/solve"),
    ("repair.repaired_frac", "ratio"),
    ("repair.admissions", "count/solve"),
    ("repair.rejections", "count/solve"),
    ("repair.admit_frac", "ratio"),
    ("repair.warm_patched_frac", "ratio"),
    ("engine.rows_recomputed", "count/event"),
    ("engine.grid_rebuilds", "count/event"),
    ("engine.compactions", "count/event"),
    ("sharding.max_owned", "count"),
    ("sharding.ghost_fraction", "ratio"),
    ("verifier.expansions", "count/solve"),
    ("verifier.exact_fallbacks", "count/solve"),
    ("service.rtt_ms.events", "ms"),
    ("service.rtt_ms.solve", "ms"),
    ("service.rtt_ms.health", "ms"),
    ("service.rtt_ms.snapshot", "ms"),
    ("service.rtt_ms.restore", "ms"),
    ("service.exec_ms.events", "ms"),
    ("service.exec_ms.solve", "ms"),
    ("service.exec_ms.health", "ms"),
    ("service.exec_ms.snapshot", "ms"),
    ("service.exec_ms.restore", "ms"),
    ("service.wait_ms.events", "ms"),
    ("service.wait_ms.solve", "ms"),
    ("service.wait_ms.health", "ms"),
    ("service.wait_ms.snapshot", "ms"),
    ("service.wait_ms.restore", "ms"),
    ("service.queue_depth_max", "count"),
    ("service.open_ms", "ms"),
    ("wire.frame_kb", "KiB"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("op_coverage", "ratio"),
    ("trace_overhead_ms", "ms"),
];

const WORKLOADS: [&str; 3] = ["paper_cold", "churn_sharded", "service_trees"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Every run times at least this many primary ops, so p90 has at least ten
/// samples beyond it.
const MIN_OPS: usize = 100;

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// The fixed op count `--seconds` stands for: ops are counted, never timed,
/// so two builds of the program do identical work.
fn ops_for(workload: &str, seconds: u64) -> usize {
    let rate = match workload {
        "paper_cold" => paper_cold::OPS_PER_SECOND,
        "churn_sharded" => churn_sharded::OPS_PER_SECOND,
        _ => service_trees::OPS_PER_SECOND,
    };
    (rate * seconds as usize).max(MIN_OPS)
}

/// Workload sizes: the benchmark's, or a tiny one for its own tests.
#[derive(Debug, Clone, Copy)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

pub fn run_workload(
    workload: &str,
    seed: u64,
    ops: usize,
    size: Size,
    setup_reps: usize,
    tr: &mut Tracer,
) -> Outcome {
    let full = matches!(size, Size::Full);
    match workload {
        "paper_cold" => {
            let scale = if full {
                paper_cold::Scale::FULL
            } else {
                paper_cold::Scale::TINY
            };
            paper_cold::run(seed, ops, &scale, setup_reps, tr)
        }
        "churn_sharded" => {
            let scale = if full {
                churn_sharded::Scale::FULL
            } else {
                churn_sharded::Scale::TINY
            };
            churn_sharded::run(seed, ops, &scale, setup_reps, tr)
        }
        _ => {
            let scale = if full {
                service_trees::Scale::FULL
            } else {
                service_trees::Scale::TINY
            };
            service_trees::run(seed, ops, &scale, setup_reps, tr)
        }
    }
}

/// The end-to-end metrics of an untraced run, in `END_TO_END` order, with
/// times scaled by `speed` (see [`Outcome::speed`]).
pub fn end_to_end(out: &Outcome, rss_mb: f64, speed: f64) -> Vec<f64> {
    let ops = out.latencies(Kind::Op);
    vec![
        median(&out.setup_s) * speed,
        quantile(&ops, 0.5) * speed,
        quantile(&ops, 0.9) * speed,
        out.attempted() as f64 / out.timed_s / speed,
        out.mean_slots(),
        rss_mb,
    ]
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order. `reference`
/// is the untraced run of the same sequence in the same process.
pub fn per_layer(traced: &Outcome, tr: &Tracer, reference: &Outcome) -> Vec<f64> {
    let ops = traced.latencies(Kind::Op);
    let p50 = |o: &Outcome| quantile(&o.latencies(Kind::Op), 0.5);
    let coverage = tr.coverage();
    PER_LAYER
        .iter()
        .map(|(name, _)| match *name {
            "op_p99_ms" => quantile(&ops, 0.99),
            "op_coverage" => common::mean(&coverage),
            "trace_overhead_ms" => p50(traced) - p50(reference),
            _ => traced.layers.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(outcomes: &[&Outcome], spec: &[(&str, &str)], values: &[f64]) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.attempted()).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed()).sum();
    let metrics: Vec<String> = spec
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            let value = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(", ")
    )
}

/// The features this binary was compiled with.
fn features() -> &'static str {
    if cfg!(feature = "parallel") {
        "obs,parallel"
    } else {
        "obs"
    }
}

/// Runs a small conflict-graph build and solve, which fans out over the
/// shim pool when any crate was compiled with `parallel`, then counts the
/// pool's threads.
fn probe_parallel() -> usize {
    use wireless_aggregation::geometry::Point;
    use wireless_aggregation::sinr::Link;
    let links: Vec<Link> = (0..256)
        .map(|i| {
            let (x, y) = ((i % 16) as f64 * 3.0, (i / 16) as f64 * 3.0);
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();
    let report = wireless_aggregation::Session::builder()
        .links(&links)
        .build()
        .solve();
    std::hint::black_box(report.slots());
    pool_threads()
}

fn print_outcome(label: &str, out: &Outcome) {
    for note in &out.notes {
        println!("# {label}{note}");
    }
    let primary = out.latencies(Kind::Op).len();
    let beyond_p90 = primary.saturating_sub(1) - (0.9 * primary.saturating_sub(1) as f64) as usize;
    println!(
        "# {label}attempted {} failed {}; primary ops {primary}, {beyond_p90} beyond p90",
        out.attempted(),
        out.failed(),
    );
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = probe_parallel();
    let parallel = cfg!(feature = "parallel") || pool > 0;
    let ops = ops_for(args.workload, args.seconds);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} features={} build={} pool_threads={pool} ops={ops} setup_reps={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        features(),
        if parallel { "parallel" } else { "serial" },
        if args.trace { 1 } else { SETUP_REPS }
    );
    if parallel && !args.trace {
        eprintln!(
            "perfbench: refusing an end-to-end run on a build with the parallel kernels compiled in \
             (feature {}, {pool} pool threads); build with default features off",
            features()
        );
        std::process::exit(3);
    }

    if !args.trace {
        let mut off = Tracer::off();
        let out = run_workload(
            args.workload,
            args.seed,
            ops,
            Size::Full,
            SETUP_REPS,
            &mut off,
        );
        print_outcome("", &out);
        let speed = out.speed();
        let values = end_to_end(&out, peak_rss_mb(), speed);
        let wall = end_to_end(&out, peak_rss_mb(), 1.0);
        if out.scaled {
            println!("# speed factor {speed}: times are nominal-machine times, wall x factor");
        } else {
            println!("# times are wall clock");
        }
        for (((name, unit), v), w) in END_TO_END.iter().zip(&values).zip(&wall) {
            println!("metric {name} = {v} {unit} (wall clock {w})");
        }
        if out.samples.iter().any(|s| s.kind == Kind::Read) {
            let reads = out.latencies(Kind::Read);
            let bulk = out.latencies(Kind::Bulk);
            println!("metric read_p90_ms = {} ms", quantile(&reads, 0.9));
            println!("metric bulk_p50_ms = {} ms", quantile(&bulk, 0.5));
        }
        println!(
            "metric failed_frac = {} ratio",
            out.failed() as f64 / out.attempted().max(1) as f64
        );
        println!("{}", result_json(&[&out], &END_TO_END, &values));
        return;
    }

    let epoch = Instant::now();
    let mut off = Tracer::off();
    let reference = run_workload(args.workload, args.seed, ops, Size::Full, 1, &mut off);
    print_outcome("untraced: ", &reference);
    let mut tr = Tracer::new(true, epoch);
    let traced = run_workload(args.workload, args.seed, ops, Size::Full, 1, &mut tr);
    print_outcome("traced: ", &traced);
    let values = per_layer(&traced, &tr, &reference);
    let coverage = tr.coverage();
    println!(
        "# traced op p50 {} ms vs untraced {} ms; op coverage mean {} min {} over {} op roots",
        quantile(&traced.latencies(Kind::Op), 0.5),
        quantile(&reference.latencies(Kind::Op), 0.5),
        common::mean(&coverage),
        coverage.iter().copied().fold(f64::INFINITY, f64::min),
        coverage.len()
    );
    for ((name, unit), v) in PER_LAYER.iter().zip(&values) {
        println!("layer {name} = {v} {unit}");
    }
    if let Some(path) = &args.trace_out {
        match tr.write_jsonl(path) {
            Ok(()) => println!("# {} spans written to {}", tr.spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                std::process::exit(4);
            }
        }
    }
    println!(
        "{}",
        result_json(&[&reference, &traced], &PER_LAYER, &values)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireless_aggregation::schedule::Schedule;

    fn tiny(workload: &str, seed: u64) -> (Outcome, Vec<f64>) {
        let out = run_workload(workload, seed, 12, Size::Tiny, 1, &mut Tracer::off());
        let values = end_to_end(&out, 1.0, 1.0);
        (out, values)
    }

    #[test]
    fn seeds_change_inputs_and_slots_but_not_the_metric_set() {
        for workload in WORKLOADS {
            let (a, va) = tiny(workload, 1);
            let (b, vb) = tiny(workload, 2);
            assert_eq!(a.failed(), 0, "{workload}: {:?}", a.errors);
            assert_eq!(b.failed(), 0, "{workload}: {:?}", b.errors);
            assert_ne!(a.inputs, b.inputs, "{workload}: inputs ignore the seed");
            assert_ne!(
                a.slots_sum, b.slots_sum,
                "{workload}: slots ignore the seed"
            );
            // Same names and units, each with a measured (non-null) value.
            for (out, values) in [(&a, &va), (&b, &vb)] {
                let json = result_json(&[out], &END_TO_END, values);
                for (name, unit) in END_TO_END {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    let at = json.find(&entry).expect("every metric is printed") + entry.len();
                    assert!(
                        !json[at..].starts_with("null"),
                        "{workload}: {name} not measured"
                    );
                    assert!(json[at..].contains(&format!("\"unit\": \"{unit}\"")));
                }
            }
        }
    }

    #[test]
    fn a_corrupted_schedule_counts_as_failed() {
        let (mut out, _) = tiny("paper_cold", 3);
        assert_eq!(out.failed(), 0);
        // Link 0 in two slots, link 2 in none.
        let corrupted = Schedule::new(vec![vec![0, 1], vec![0, 3]]);
        let ok = common::is_partition(&corrupted, 4);
        out.push(Kind::Op, 1.0, ok);
        assert_eq!(out.failed(), 1);
        let json = result_json(&[&out], &END_TO_END, &end_to_end(&out, 1.0, 1.0));
        assert!(json.starts_with("{\"correct\": false"), "{json}");
    }

    #[test]
    fn a_wrong_restored_slot_count_counts_as_failed() {
        let (mut out, _) = tiny("churn_sharded", 4);
        let links: Vec<_> = (0..6)
            .map(|i| {
                let x = i as f64 * 50.0;
                wireless_aggregation::sinr::Link::new(
                    i,
                    wireless_aggregation::geometry::Point::new(x, 0.0),
                    wireless_aggregation::geometry::Point::new(x + 1.0, 0.0),
                )
            })
            .collect();
        let restored = wireless_aggregation::Session::builder()
            .links(&links)
            .build()
            .solve();
        assert!(service_trees::restored_matches(restored.slots(), &restored));
        let ok = service_trees::restored_matches(restored.slots() + 1, &restored);
        out.push(Kind::Bulk, 1.0, ok);
        assert_eq!(out.failed(), 1);
        assert!(
            result_json(&[&out], &END_TO_END, &end_to_end(&out, 1.0, 1.0))
                .contains("\"failed\": 1")
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn traced_runs_print_every_layer_metric() {
        let mut tr = Tracer::new(true, Instant::now());
        let reference = run_workload("paper_cold", 5, 12, Size::Tiny, 1, &mut Tracer::off());
        let traced = run_workload("paper_cold", 5, 12, Size::Tiny, 1, &mut tr);
        let values = per_layer(&traced, &tr, &reference);
        let json = result_json(&[&reference, &traced], &PER_LAYER, &values);
        for (name, _) in PER_LAYER {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(
            tr.coverage().iter().all(|c| *c > 0.9),
            "spans cover each op"
        );
    }
}
