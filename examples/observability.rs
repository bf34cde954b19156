//! End-to-end observability: watch a sharded solve from the inside.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! Every scheduling layer threads a `wagg-obs` [`Recorder`] — the static
//! kernel's color/verify split, the sharded pipeline's per-shard
//! build/color/stitch/verify phases, the certified verifier's expansion and
//! eviction counters. This example installs one recorder on a sharded
//! session, solves, and then reads the run three ways:
//!
//! 1. the uniform `SolveReport::summary()` line, which now appends the
//!    per-shard occupancy skew and a metrics digest;
//! 2. the aggregated phase tree and work counters
//!    (`SolveReport::metrics`, which travel with the report through the
//!    binary `Frame::Report` wire encoding);
//! 3. a Chrome `trace_event` export ([`Recorder::chrome_trace`]) that
//!    `chrome://tracing`, Perfetto and speedscope open directly.
//!
//! A second act drives the *longitudinal* side: a [`FlightRecorder`] on a
//! churning session accumulates one sample per solve into rolling time
//! series, its hysteresis-gated health detectors catch a hotspot cluster
//! (occupancy skew) and the repair drift it causes, and the accumulated
//! state exports as a Prometheus text exposition and a JSONL event log
//! that replays losslessly.
//!
//! With `--no-default-features` (the `obs` feature off) both recorders are
//! zero-sized no-ops: the same code compiles and runs, the schedule is
//! bit-identical, and the metrics/telemetry sections are simply absent.

use wireless_aggregation::geometry::{BoundingBox, Point};
use wireless_aggregation::obs::export::{encode_sample, replay};
use wireless_aggregation::obs::trace;
use wireless_aggregation::{
    Backend, FlightRecorder, Frame, HealthConfig, Link, PowerMode, Recorder, RepairPolicy,
    SchedulerConfig, Session, TelemetryConfig,
};

fn main() {
    // A constant-density random-ish deployment, big enough that the sharded
    // pipeline has real per-shard work to time.
    let n = 20_000usize;
    let side = (n as f64).sqrt().ceil() as usize;
    let links: Vec<Link> = (0..n)
        .map(|i| {
            let x = (i % side) as f64 * 2.0 + (i % 11) as f64 * 0.07;
            let y = (i / side) as f64 * 2.0 + (i % 7) as f64 * 0.05;
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();

    let recorder = Recorder::new();
    let mut session = Session::builder()
        .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
        .backend(Backend::Sharded)
        .target_shards(8)
        .recorder(recorder.clone())
        .links(&links)
        .build();

    let report = session.solve();
    println!("{}", report.summary());

    let Some(metrics) = &report.metrics else {
        println!("\n(no metrics: built with the `obs` feature off)");
        churn_telemetry();
        return;
    };

    // The phase tree: span paths nest by '/', children's totals are part of
    // their parents' (per-shard spans aggregate into one path with a count).
    println!(
        "\nPhase tree (aggregated over {} spans):",
        metrics.phases.len()
    );
    for phase in &metrics.phases {
        let depth = phase.path.matches('/').count();
        let name = phase.path.rsplit('/').next().unwrap_or(&phase.path);
        println!(
            "  {:indent$}{:<24} {:>10.3} ms  x{}",
            "",
            name,
            phase.millis(),
            phase.count,
            indent = depth * 2
        );
    }

    println!("\nWork counters:");
    for counter in &metrics.counters {
        println!("  {:<28} {:>12}", counter.name, counter.value);
    }

    // The metrics section survives the report's wire frame, so a report
    // shipped to a client carries its own profile.
    let bytes = Frame::Report(report.clone())
        .encode()
        .expect("report encodes");
    let Ok(Frame::Report(decoded)) = Frame::decode(&bytes) else {
        panic!("report frame round-trips");
    };
    assert_eq!(decoded.metrics.as_ref(), Some(metrics));
    println!("\nWire round-trip: {} bytes, metrics intact", bytes.len());

    // And the same recording exports as a flamegraph-ready chrome trace.
    let chrome = recorder.chrome_trace();
    let stats = trace::validate(&chrome).expect("exporter emits valid trace_event JSON");
    println!(
        "Chrome trace: {} events, root span {:.3} ms (open in chrome://tracing)",
        stats.events,
        stats.max_dur_us / 1e3
    );

    churn_telemetry();
}

/// Act two: longitudinal telemetry. A hinted sharded session churns
/// through a hotspot storm while a [`FlightRecorder`] watches; the health
/// detectors fire on the skew and drift the storm causes and clear once
/// the load balances out, and the accumulated state exports both ways.
fn churn_telemetry() {
    println!("\n--- telemetry: churn loop with a flight recorder ---");
    // A short demo loop wants snappy detectors: no start-up gate and a
    // half-life-of-one EWMA. Production defaults smooth over 8+ solves.
    let flight = FlightRecorder::with_config(TelemetryConfig {
        ewma_alpha: 0.5,
        health: HealthConfig {
            min_samples: 1,
            ..HealthConfig::default()
        },
        ..TelemetryConfig::default()
    });
    let extent = BoundingBox::new(0.0, 0.0, 120.0, 120.0);
    let mut session = Session::builder()
        .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
        .backend(Backend::Sharded)
        .target_shards(9)
        .partition_hints(extent, (1.0, 1.5))
        .repair(RepairPolicy::enabled())
        .recorder(Recorder::new())
        .flight_recorder(flight.clone())
        .build();

    // A spread universe, then a hotspot cluster into one tile, then the
    // other tiles catch up — the storm the health detectors narrate.
    let mut log = String::new();
    let solve_and_append = |session: &mut Session, log: &mut String, label: &str| {
        let report = session.solve();
        if let Some(sample) = flight.last() {
            log.push_str(&encode_sample(&sample));
            log.push('\n');
        }
        let health = report
            .health
            .as_ref()
            .map(|h| h.summary())
            .unwrap_or_else(|| "health: no telemetry".to_string());
        println!("  {label:<18} {} slots; {health}", report.slots());
    };
    for i in 0..200usize {
        let x = (i % 15) as f64 * 8.0 + 1.5;
        let y = (i / 15) as f64 * 8.4 + 1.5;
        session.insert(Point::new(x, y), Point::new(x + 1.2, y));
    }
    solve_and_append(&mut session, &mut log, "spread universe");
    for i in 0..100usize {
        let (dx, dy) = (((i * 7) % 17) as f64 - 8.0, ((i * 11) % 17) as f64 - 8.0);
        session.insert(
            Point::new(20.0 + dx, 20.0 + dy),
            Point::new(21.2 + dx, 20.0 + dy),
        );
    }
    solve_and_append(&mut session, &mut log, "hotspot cluster");
    for round in 0..7usize {
        let x = 1.5 + round as f64 * 8.0;
        session
            .relocate(round as u64, Point::new(x, 2.6), Point::new(x + 1.2, 2.6))
            .expect("seeded key is live");
        solve_and_append(&mut session, &mut log, "gentle churn");
    }
    for tx in 0..3usize {
        for ty in 0..3usize {
            if (tx, ty) == (0, 0) {
                continue;
            }
            let (cx, cy) = (40.0 * tx as f64 + 20.0, 40.0 * ty as f64 + 20.0);
            for i in 0..220usize {
                let (dx, dy) = (((i * 7) % 17) as f64 - 8.0, ((i * 11) % 17) as f64 - 8.0);
                session.insert(
                    Point::new(cx + dx, cy + dy),
                    Point::new(cx + dx + 1.2, cy + dy),
                );
            }
        }
    }
    solve_and_append(&mut session, &mut log, "tiles rebalanced");
    for _ in 0..5 {
        solve_and_append(&mut session, &mut log, "quiet");
    }

    if flight.solves() == 0 {
        println!("(no telemetry: built with the `obs` feature off)");
        return;
    }

    // The accumulated state reads out as a Prometheus text exposition...
    let exposition = flight.expose_text();
    println!(
        "\nPrometheus exposition ({} lines), health lines:",
        exposition.lines().count()
    );
    for line in exposition.lines().filter(|l| l.starts_with("wagg_health")) {
        println!("  {line}");
    }

    // ...and the JSONL log the loop appended replays into identical state.
    let (replayed, stats) = replay(&log, flight.config()).expect("log replays");
    assert_eq!(replayed, flight);
    println!(
        "telemetry OK: {} solves, JSONL log ({} events, {} bytes) replays losslessly",
        flight.solves(),
        stats.applied,
        log.len()
    );
}
