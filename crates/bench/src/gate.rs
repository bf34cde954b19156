//! The perf regression gate behind the `bench_gate` binary.
//!
//! The tracked `BENCH_*.json` files pin what the benches measured when each
//! layer landed, but nothing *checked* them — a regression only surfaced
//! when someone re-ran a sweep by hand and eyeballed the numbers. This
//! module closes the loop: it parses the criterion-shim JSON the bench
//! harness writes (see `shims/criterion`) with the shared
//! [`wagg_obs::json`] reader, runs a small fixed workload suite
//! ([`run_gate_workloads`], seconds not minutes), and diffs fresh numbers
//! against a committed baseline with a percentage tolerance ([`compare`]).
//!
//! Comparisons use `min_ns`, not `mean_ns`: the minimum over samples is the
//! classic noise-robust statistic for a shared CI box (the mean absorbs
//! scheduler hiccups, the min only improves with less interference).

use std::fmt;
use std::time::Instant;

use wagg_engine::EngineEvent;
use wagg_obs::json::{escape, Cursor};
use wagg_schedule::{PowerMode, SchedulerConfig};
use wagg_service::{SchedulerService, ServiceConfig};
use wagg_session::{Backend, RepairPolicy, Session, SessionConfig};

use crate::uniform_unit_links;

/// One benchmark row of a criterion-shim JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRecord {
    /// The benchmark group (`"event_to_schedule"`; empty for ungrouped).
    pub group: String,
    /// The benchmark id within the group (`"repair/engine/10000"`).
    pub id: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Minimum wall time per iteration, nanoseconds — the gated statistic.
    pub min_ns: f64,
    /// Iterations per sample.
    pub iters: u64,
    /// Number of samples.
    pub samples: u64,
}

impl GateRecord {
    /// The `group/id` key rows are matched on across runs.
    pub fn key(&self) -> String {
        if self.group.is_empty() {
            self.id.clone()
        } else {
            format!("{}/{}", self.group, self.id)
        }
    }
}

/// A parsed criterion-shim result file: the same shape `finalize` writes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRun {
    /// The rows, in file order.
    pub benchmarks: Vec<GateRecord>,
}

impl BenchRun {
    /// The row with the given `group/id` key, if present.
    pub fn record(&self, key: &str) -> Option<&GateRecord> {
        self.benchmarks.iter().find(|r| r.key() == key)
    }

    /// Renders the run in the criterion-shim JSON format, byte-compatible
    /// with what `criterion_main!` writes (so `--record` output diffs
    /// cleanly against harness-written baselines).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"harness\": \"criterion-shim\",\n  \"benchmarks\": [\n");
        for (i, r) in self.benchmarks.iter().enumerate() {
            let sep = if i + 1 == self.benchmarks.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}, \"samples\": {}}}{sep}\n",
                escape(&r.group),
                escape(&r.id),
                r.mean_ns,
                r.min_ns,
                r.iters,
                r.samples,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Parses a criterion-shim JSON file ([`BenchRun::to_json`] /
/// `Criterion::finalize` output).
///
/// # Errors
///
/// A human-readable message when the text is not a criterion-shim document
/// (wrong `harness` tag, malformed JSON, missing fields).
pub fn parse(text: &str) -> Result<BenchRun, String> {
    let mut c = Cursor::new(text);
    let mut harness_seen = false;
    let mut run = BenchRun::default();
    c.object(|c, key| {
        match key {
            "harness" => {
                let tag = c.string()?;
                if tag != "criterion-shim" {
                    return Err(format!("unsupported harness {tag:?}"));
                }
                harness_seen = true;
            }
            "benchmarks" => c.array(|c| {
                run.benchmarks.push(record(c)?);
                Ok(())
            })?,
            other => return Err(format!("unexpected key {other:?}")),
        }
        Ok(())
    })?;
    c.end()?;
    if !harness_seen {
        return Err("missing \"harness\" tag".to_string());
    }
    Ok(run)
}

fn record(c: &mut Cursor<'_>) -> Result<GateRecord, String> {
    let mut group = None;
    let mut id = None;
    let mut mean_ns = None;
    let mut min_ns = None;
    let mut iters = None;
    let mut samples = None;
    c.object(|c, key| {
        match key {
            "group" => group = Some(c.string()?.into_owned()),
            "id" => id = Some(c.string()?.into_owned()),
            "mean_ns" => mean_ns = Some(c.f64()?),
            "min_ns" => min_ns = Some(c.f64()?),
            "iters" => iters = Some(c.u64()?),
            "samples" => samples = Some(c.u64()?),
            other => return Err(format!("unexpected benchmark key {other:?}")),
        }
        Ok(())
    })?;
    match (group, id, mean_ns, min_ns) {
        (Some(group), Some(id), Some(mean_ns), Some(min_ns)) => Ok(GateRecord {
            group,
            id,
            mean_ns,
            min_ns,
            iters: iters.unwrap_or(0),
            samples: samples.unwrap_or(0),
        }),
        _ => Err("benchmark row missing group/id/mean_ns/min_ns".to_string()),
    }
}

/// One row of a gate comparison: the baseline and fresh `min_ns` for a
/// benchmark key, and the relative change.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDelta {
    /// The `group/id` benchmark key.
    pub key: String,
    /// Baseline `min_ns`.
    pub base_ns: f64,
    /// Fresh `min_ns`.
    pub new_ns: f64,
}

impl GateDelta {
    /// Relative change in percent: positive = fresh run slower.
    pub fn change_pct(&self) -> f64 {
        if self.base_ns <= 0.0 {
            return 0.0;
        }
        (self.new_ns / self.base_ns - 1.0) * 100.0
    }
}

impl fmt::Display for GateDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<40} {:>12.0} ns -> {:>12.0} ns  ({:+.1}%)",
            self.key,
            self.base_ns,
            self.new_ns,
            self.change_pct()
        )
    }
}

/// The outcome of diffing a fresh [`BenchRun`] against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Rows present in both runs, in baseline order.
    pub deltas: Vec<GateDelta>,
    /// Baseline keys the fresh run did not produce — always a failure
    /// (coverage silently shrinking is the one thing a gate must not
    /// tolerate).
    pub missing: Vec<String>,
    /// Fresh keys absent from the baseline (informational: new benches not
    /// yet recorded).
    pub unmatched: Vec<String>,
    /// The tolerance the regressions were judged against, percent.
    pub tolerance_pct: f64,
}

impl GateReport {
    /// The rows whose slowdown exceeds the tolerance.
    pub fn regressions(&self) -> Vec<&GateDelta> {
        self.deltas
            .iter()
            .filter(|d| d.change_pct() > self.tolerance_pct)
            .collect()
    }

    /// Whether the gate passes: no regressions and no missing rows.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }
}

/// Diffs `fresh` against `baseline` on `min_ns`, flagging rows that got
/// more than `tolerance_pct` percent slower.
pub fn compare(baseline: &BenchRun, fresh: &BenchRun, tolerance_pct: f64) -> GateReport {
    let mut report = GateReport {
        tolerance_pct,
        ..GateReport::default()
    };
    for base in &baseline.benchmarks {
        let key = base.key();
        match fresh.record(&key) {
            Some(new) => report.deltas.push(GateDelta {
                key,
                base_ns: base.min_ns,
                new_ns: new.min_ns,
            }),
            None => report.missing.push(key),
        }
    }
    for new in &fresh.benchmarks {
        if baseline.record(&new.key()).is_none() {
            report.unmatched.push(new.key());
        }
    }
    report
}

/// The gate's fixed workload suite: a handful of representative solves at
/// small scale, each timed best-of-`samples`. Deliberately seconds, not
/// minutes — this runs on every CI pass, the full sweeps stay manual.
///
/// Rows:
///
/// * `gate/static/2000` — the from-scratch kernel;
/// * `gate/static_paper/1000` — the paper's static path: one clustered
///   1 000-sensor MST (built outside the timing) solved cold through a
///   static session under global power control, then under uniform power,
///   so the spectral slot test and the first-fit split are gated;
/// * `gate/sharded/20000` — the sharded pipeline, 4 shards;
/// * `gate/repair/20000` — a repair-enabled session on the re-tiling
///   sharded backend (no partition hints): a cold solve, a 32-link
///   relocation burst and a second solve. That backend keeps no warm
///   state, so both solves are full recolors (`RepairDecision::Unsupported`)
///   — the row gates the hint-less churn round trip, not slot repair;
/// * `gate/repair_event/20000` — sustained churn on the engine backend:
///   the session and its cold anchor live outside the timing, each sample
///   is one single-event relocate + warm repair round-trip against the
///   persistent mirrors, min-of-samples — the µs–ms O(dirty) repair floor,
///   gated like every other hot path;
/// * `gate/sharded_event/20000` — the same single-event round trip on the
///   hinted sharded backend (partition hints declared, 4 shards), whose
///   warm solves repair through the certified verifier;
/// * `gate/service_event/20000` — warm churn on the engine backend hosted
///   by a one-worker [`SchedulerService`]: each sample is one net-zero
///   batch (a fresh link arrives at `y = 200` and departs again) plus a
///   warm solve, sent as two request/response round trips. Its event
///   differs from `gate/repair_event/20000`'s relocation of a seeded link,
///   so the two rows time different work and do not subtract to a serving
///   overhead (the recorded baseline has this row's min below the repair
///   row's); each gates its own path;
/// * `gate/telemetry/20000` — `gate/sharded/20000` with a `Recorder` and
///   a `FlightRecorder` installed, so instrumentation overhead is itself a
///   gated quantity.
pub fn run_gate_workloads(samples: u32) -> BenchRun {
    let samples = samples.max(1);
    let mut run = BenchRun::default();
    let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());

    run.benchmarks
        .push(time_workload("gate", "static/2000", samples, || {
            let links = uniform_unit_links(2_000, 42);
            Session::builder()
                .scheduler(scheduler)
                .backend(Backend::Static)
                .links(&links)
                .build()
                .solve()
                .slots()
        }));

    {
        let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, 42)
            .mst_links()
            .expect("clustered sensors are distinct");
        run.benchmarks
            .push(time_workload("gate", "static_paper/1000", samples, || {
                [PowerMode::GlobalControl, PowerMode::Uniform]
                    .into_iter()
                    .map(|mode| {
                        Session::builder()
                            .scheduler(SchedulerConfig::new(mode))
                            .backend(Backend::Static)
                            .links(&links)
                            .build()
                            .solve()
                            .slots()
                    })
                    .sum()
            }));
    }

    run.benchmarks
        .push(time_workload("gate", "sharded/20000", samples, || {
            let links = uniform_unit_links(20_000, 42);
            Session::builder()
                .scheduler(scheduler)
                .backend(Backend::Sharded)
                .target_shards(4)
                .links(&links)
                .build()
                .solve()
                .slots()
        }));

    run.benchmarks
        .push(time_workload("gate", "repair/20000", samples, || {
            let links = uniform_unit_links(20_000, 42);
            let mut session = Session::builder()
                .scheduler(scheduler)
                .backend(Backend::Sharded)
                .target_shards(4)
                .repair(RepairPolicy::enabled())
                .links(&links)
                .build();
            session.solve();
            // A small relocation burst followed by the warm repair solve; the
            // cold seeding solve above is part of the timed workload too, so
            // the row gates the whole churn round-trip.
            for key in 0..32u64 {
                let link = &links[key as usize];
                let s = link.sender;
                session
                    .relocate(
                        key,
                        wagg_geometry::Point::new(s.x + 0.25, s.y),
                        link.receiver,
                    )
                    .expect("seeded key is live");
            }
            session.solve().slots()
        }));

    {
        let links = uniform_unit_links(20_000, 42);
        let mut session = Session::builder()
            .scheduler(scheduler)
            .backend(Backend::Engine)
            .repair(RepairPolicy::enabled())
            .links(&links)
            .build();
        session.solve(); // cold start anchors the warm state and mirrors
        let home = links[7].sender;
        let receiver = links[7].receiver;
        let mut flip = false;
        run.benchmarks.push(time_workload(
            "gate",
            "repair_event/20000",
            samples,
            move || {
                flip = !flip;
                let dx = if flip { 0.3 } else { 0.0 };
                session
                    .relocate(7, wagg_geometry::Point::new(home.x + dx, home.y), receiver)
                    .expect("seeded key is live");
                session.solve().slots()
            },
        ));
    }

    {
        let links = uniform_unit_links(20_000, 42);
        let side = (links.len() as f64).sqrt() * 4.0;
        let mut session = Session::builder()
            .scheduler(scheduler)
            .backend(Backend::Sharded)
            .target_shards(4)
            .partition_hints(
                wagg_geometry::BoundingBox::new(-1.5, -1.5, side + 1.5, side + 1.5),
                (0.9, 1.1),
            )
            .repair(RepairPolicy::enabled())
            .links(&links)
            .build();
        session.solve(); // cold start anchors the warm state and mirrors
        let (home, receiver) = (links[7].sender, links[7].receiver);
        let mut flip = false;
        run.benchmarks.push(time_workload(
            "gate",
            "sharded_event/20000",
            samples,
            move || {
                flip = !flip;
                // Both endpoints move, so the length stays within the
                // declared bounds.
                let dx = if flip { 0.3 } else { 0.0 };
                session
                    .relocate(
                        7,
                        wagg_geometry::Point::new(home.x + dx, home.y),
                        wagg_geometry::Point::new(receiver.x + dx, receiver.y),
                    )
                    .expect("seeded key is live");
                session.solve().slots()
            },
        ));
    }

    {
        let links = uniform_unit_links(20_000, 42);
        let service = SchedulerService::start(ServiceConfig {
            workers: 1,
            queue_depth: 4,
            telemetry: None,
        });
        let config = SessionConfig {
            scheduler,
            backend: Backend::Engine,
            repair: RepairPolicy::enabled(),
            ..SessionConfig::default()
        };
        let session = service
            .open_session(config, &links)
            .expect("gate service is up");
        service
            .solve(session)
            .expect("cold solve anchors the warm state");
        let mut counter = 0u64;
        run.benchmarks.push(time_workload(
            "gate",
            "service_event/20000",
            samples,
            move || {
                counter += 1;
                let x = 10.0 + (counter as f64 * 7.3) % 500.0;
                // A net-zero batch (a link arrives and departs) keeps the
                // hosted universe constant across samples while the warm
                // repair path still re-seats a real dirty set.
                let batch = [
                    EngineEvent::Insert {
                        key: counter,
                        sender: wagg_geometry::Point::new(x, 200.0),
                        receiver: wagg_geometry::Point::new(x + 1.0, 200.0),
                        sender_node: None,
                        receiver_node: None,
                    },
                    EngineEvent::Remove { key: counter },
                ];
                service
                    .submit_events(session, &batch)
                    .expect("events apply");
                service.solve(session).expect("warm solve").slots()
            },
        ));
    }

    run.benchmarks
        .push(time_workload("gate", "telemetry/20000", samples, || {
            let links = uniform_unit_links(20_000, 42);
            let mut session = Session::builder()
                .scheduler(scheduler)
                .backend(Backend::Sharded)
                .target_shards(4)
                .links(&links)
                .recorder(wagg_obs::Recorder::new())
                .flight_recorder(wagg_obs::FlightRecorder::new())
                .build();
            session.solve().slots()
        }));

    run
}

/// Times `work` `samples` times (one iteration per sample — every gate
/// workload is macroscopic) and records mean and min.
fn time_workload(
    group: &str,
    id: &str,
    samples: u32,
    mut work: impl FnMut() -> usize,
) -> GateRecord {
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    let mut sink = 0usize;
    for _ in 0..samples {
        let t0 = Instant::now();
        sink = sink.wrapping_add(work());
        let ns = t0.elapsed().as_nanos() as f64;
        total += ns;
        min = min.min(ns);
    }
    std::hint::black_box(sink);
    GateRecord {
        group: group.to_string(),
        id: id.to_string(),
        mean_ns: total / samples as f64,
        min_ns: min,
        iters: 1,
        samples: samples as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> BenchRun {
        BenchRun {
            benchmarks: vec![
                GateRecord {
                    group: "gate".into(),
                    id: "static/2000".into(),
                    mean_ns: 1_200.5,
                    min_ns: 1_000.0,
                    iters: 1,
                    samples: 5,
                },
                GateRecord {
                    group: "".into(),
                    id: "ungrouped".into(),
                    mean_ns: 10.0,
                    min_ns: 9.0,
                    iters: 3,
                    samples: 2,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_parse() {
        let run = sample_run();
        let parsed = parse(&run.to_json()).expect("round-trip parses");
        assert_eq!(parsed, run);
        // And the real harness output shape (field order, whitespace) is
        // what to_json produces, so committed baselines parse identically.
        assert!(run
            .to_json()
            .starts_with("{\n  \"harness\": \"criterion-shim\""));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{\"harness\": \"criterion\", \"benchmarks\": []}").is_err());
        assert!(
            parse("{\"benchmarks\": []}").is_err(),
            "missing harness tag"
        );
        assert!(
            parse("{\"harness\": \"criterion-shim\", \"benchmarks\": [{\"group\": \"g\"}]}")
                .is_err(),
            "row missing fields"
        );
        let good = sample_run().to_json();
        assert!(parse(&format!("{good} trailing")).is_err());
    }

    #[test]
    fn counts_must_be_plain_integers() {
        let row = |iters: &str| {
            format!(
                "{{\"harness\": \"criterion-shim\", \"benchmarks\": [{{\"group\": \"g\", \
                 \"id\": \"x\", \"mean_ns\": 1.0, \"min_ns\": 1.0, \"iters\": {iters}, \
                 \"samples\": 2}}]}}"
            )
        };
        assert_eq!(parse(&row("3")).unwrap().benchmarks[0].iters, 3);
        for bad in ["1.5", "1e300", "-1"] {
            assert!(parse(&row(bad)).is_err(), "iters {bad} was accepted");
        }
    }

    #[test]
    fn non_ascii_ids_round_trip_and_match() {
        let mut run = sample_run();
        run.benchmarks[1].id = "latency/µs \"quoted\"".into();
        let parsed = parse(&run.to_json()).expect("round-trip parses");
        assert_eq!(parsed, run);
        assert!(compare(&run, &parsed, 0.0).missing.is_empty());
    }

    #[test]
    fn compare_flags_regressions_and_missing_rows() {
        let base = sample_run();
        let mut fresh = sample_run();
        // 50% slower on the first row, new row appears, second row gone.
        fresh.benchmarks[0].min_ns = 1_500.0;
        fresh.benchmarks[1] = GateRecord {
            group: "gate".into(),
            id: "new/1".into(),
            mean_ns: 1.0,
            min_ns: 1.0,
            iters: 1,
            samples: 1,
        };
        let report = compare(&base, &fresh, 20.0);
        assert!(!report.passed());
        assert_eq!(report.regressions().len(), 1);
        assert!((report.regressions()[0].change_pct() - 50.0).abs() < 1e-9);
        assert_eq!(report.missing, vec!["ungrouped".to_string()]);
        assert_eq!(report.unmatched, vec!["gate/new/1".to_string()]);
        // Within tolerance the same numbers pass (missing row still fails).
        let lenient = compare(&base, &fresh, 60.0);
        assert!(lenient.regressions().is_empty());
        assert!(!lenient.passed(), "missing rows fail at any tolerance");
    }

    #[test]
    fn gate_workloads_produce_comparable_rows() {
        let run = run_gate_workloads(1);
        assert_eq!(run.benchmarks.len(), 8);
        for r in &run.benchmarks {
            assert!(r.min_ns > 0.0, "{} measured nothing", r.key());
            assert!(r.min_ns <= r.mean_ns + 1e-9);
        }
        // Self-comparison is a clean pass at zero tolerance.
        let report = compare(&run, &run, 0.0);
        assert!(report.passed());
        assert!(report.missing.is_empty() && report.unmatched.is_empty());
    }
}
