//! The session telemetry suite: a [`FlightRecorder`] installed on a
//! [`Session`] must be **pure observation** — flight-on solves are
//! slot-for-slot identical to flight-off on every backend under churn —
//! while the telemetry itself stays bounded (the ring never exceeds its
//! window over long traces), replayable (the JSONL log a session appends
//! reproduces the recorder state exactly, a truncated tail is recovered),
//! and actionable: a churn storm through a hinted sharded session fires
//! and clears the skew and drift health signals with hysteresis at
//! hand-computable thresholds.
//!
//! `ci.sh` runs this suite in both the serial and the parallel build.

use wagg_engine::churn_trace;
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::export::{encode_sample, replay};
use wagg_obs::{FlightRecorder, HealthConfig, Recorder, SeriesKind, SignalKind, TelemetryConfig};
use wagg_schedule::{PowerMode, RepairDecision, SchedulerConfig};
use wagg_session::{Backend, RepairPolicy, Session};
use wagg_sinr::Link;

/// An everything-instant telemetry config: EWMA = last value, detectors
/// ungated, latency detector parked out of reach (wall time is the one
/// non-deterministic series). What fires is then a pure function of the
/// recorded samples.
fn instant_config(window: usize) -> TelemetryConfig {
    TelemetryConfig {
        window,
        ewma_alpha: 1.0,
        fast_alpha: 1.0,
        slow_alpha: 1.0,
        health: HealthConfig {
            min_samples: 1,
            latency_fire: 1e12,
            latency_clear: 1e11,
            ..HealthConfig::default()
        },
    }
}

/// Flight-recorder-on solves are identical to flight-off on every explicit
/// backend, across a churn trace solved between event batches. Identical
/// means the whole report — schedule, analysis quantities, provenance,
/// sharding and repair accounting — with only the instrumentation
/// attachments (`metrics`, `health`) differing.
#[test]
fn flight_recorder_is_pure_observation_across_backends() {
    let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());
    for backend in [Backend::Static, Backend::Engine, Backend::Sharded] {
        let trace = churn_trace(40, 100, 0xF11E);
        let flight = FlightRecorder::with_config(instant_config(16));
        let mut bare = Session::builder()
            .scheduler(scheduler)
            .backend(backend)
            .build();
        let mut instrumented = Session::builder()
            .scheduler(scheduler)
            .backend(backend)
            .recorder(Recorder::new())
            .flight_recorder(flight.clone())
            .build();

        let mut solves = 0u64;
        for batch in trace.events.chunks(20) {
            bare.apply_events(batch).expect("trace applies");
            instrumented.apply_events(batch).expect("trace applies");
            let a = bare.solve();
            let b = instrumented.solve();
            solves += 1;
            assert_eq!(a.report, b.report, "{backend:?}: schedule diverged");
            assert_eq!(a.backend, b.backend);
            assert_eq!(a.sharding, b.sharding);
            assert_eq!(a.repair, b.repair);
            assert!(a.metrics.is_none() && a.health.is_none());
            assert_eq!(flight.solves(), solves, "{backend:?}: sample not fed");
            let sample = flight.last().expect("sample retained");
            assert_eq!(sample.slots as usize, b.slots());
            assert_eq!(sample.links as usize, b.num_links());
        }
    }
}

/// Links of length 1–4 at uniformly random positions: under uniform power
/// the long ones crowd their slots, so the sharded verifier both falls back
/// to exact sums and evicts.
fn crowded_links(n: usize) -> Vec<Link> {
    let side = (n as f64).sqrt() * 4.0;
    let mut state = 0x5EED_u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let (x, y) = (unit() * side, unit() * side);
            let angle = unit() * std::f64::consts::TAU;
            let len = 1.0 + 3.0 * unit();
            let receiver = Point::new(x + len * angle.cos(), y + len * angle.sin());
            Link::new(i, Point::new(x, y), receiver)
        })
        .collect()
}

/// A uniform-power sharded session over [`crowded_links`].
fn crowded_session() -> Session {
    Session::builder()
        .scheduler(SchedulerConfig::new(PowerMode::Uniform))
        .backend(Backend::Sharded)
        .target_shards(9)
        .links(&crowded_links(2_000))
        .build()
}

/// The recorder's cumulative `(exact_fallbacks, evictions)` counters.
fn verifier_counts(rec: &Recorder) -> (u64, u64) {
    let m = rec.metrics();
    (
        m.counter("verifier.exact_fallbacks").unwrap_or(0),
        m.counter("verifier.evictions").unwrap_or(0),
    )
}

/// Installing a fresh [`Recorder`] re-bases the flight recorder's verifier
/// deltas: the next sample carries exactly what the new recorder counted in
/// that solve, not the difference against the old recorder's totals.
#[test]
fn installing_a_recorder_rebases_verifier_deltas() {
    let flight = FlightRecorder::new();
    let mut session = crowded_session();
    session.set_recorder(Recorder::new());
    session.set_flight_recorder(flight.clone());
    session.solve();

    let fresh = Recorder::new();
    session.set_recorder(fresh.clone());
    session.solve();
    let counted = verifier_counts(&fresh);
    assert!(counted.0 > 0 && counted.1 > 0, "{counted:?}");
    let sample = flight.last().expect("sample retained");
    assert_eq!((sample.exact_fallbacks, sample.evictions), counted);
}

/// A flight recorder installed after recorded solves samples only the
/// verifier work of its own solves, not the recorder's whole history.
#[test]
fn installing_a_flight_recorder_rebases_verifier_deltas() {
    let recorder = Recorder::new();
    let mut session = crowded_session();
    session.set_recorder(recorder.clone());
    session.solve();

    let before = verifier_counts(&recorder);
    let flight = FlightRecorder::new();
    session.set_flight_recorder(flight.clone());
    session.solve();
    let after = verifier_counts(&recorder);
    assert!(before.0 > 0 && before.1 > 0, "{before:?}");
    let sample = flight.last().expect("sample retained");
    assert_eq!(
        (sample.exact_fallbacks, sample.evictions),
        (after.0 - before.0, after.1 - before.1)
    );
}

/// The ring buffer never exceeds its window over a 10k-solve trace, and
/// the retained samples are exactly the trailing, contiguously-numbered
/// suffix of the solve history.
#[test]
fn ring_stays_bounded_over_ten_thousand_solves() {
    let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());
    let flight = FlightRecorder::with_config(instant_config(32));
    let mut session = Session::builder()
        .scheduler(scheduler)
        .backend(Backend::Static)
        .flight_recorder(flight.clone())
        .build();
    for i in 0..12usize {
        session.insert(
            Point::new(i as f64 * 9.0, 0.0),
            Point::new(i as f64 * 9.0 + 1.0, 0.0),
        );
    }
    for solve in 0..10_000u64 {
        session.solve();
        if solve % 1_000 == 999 {
            assert!(
                flight.len() <= flight.capacity(),
                "ring overflowed at solve {solve}"
            );
        }
    }
    assert_eq!(flight.solves(), 10_000);
    assert_eq!(flight.len(), 32);
    assert_eq!(flight.capacity(), 32);
    let samples = flight.samples();
    for (i, s) in samples.iter().enumerate() {
        assert_eq!(s.seq, 10_000 - 32 + i as u64, "ring must keep the tail");
    }
    assert_eq!(flight.series(SeriesKind::Slots).count, 10_000);
}

/// The JSONL event log a session appends replays into an identical
/// recorder — including after losing half of the final line to a
/// truncated write.
#[test]
fn session_event_log_replays_into_identical_state() {
    let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());
    let config = instant_config(8);
    let flight = FlightRecorder::with_config(config);
    let extent = BoundingBox::new(0.0, 0.0, 120.0, 120.0);
    let mut session = Session::builder()
        .scheduler(scheduler)
        .backend(Backend::Sharded)
        .target_shards(9)
        .partition_hints(extent, (1.0, 1.5))
        .repair(RepairPolicy::enabled())
        .recorder(Recorder::new())
        .flight_recorder(flight.clone())
        .build();

    let mut log = String::new();
    let mut keys = Vec::new();
    for round in 0..20usize {
        // Mild churn: one arrival per round, one departure every third.
        let x = (round % 10) as f64 * 11.0 + 3.0;
        let y = (round / 10) as f64 * 40.0 + 3.0;
        keys.push(session.insert(Point::new(x, y), Point::new(x + 1.2, y)));
        if round % 3 == 2 {
            session.remove(keys[round / 3]).expect("key is live");
        }
        session.solve();
        log.push_str(&encode_sample(&flight.last().expect("sample retained")));
        log.push('\n');
    }

    // The complete log reproduces the live recorder state exactly.
    let (replayed, stats) = replay(&log, config).expect("clean log replays");
    assert_eq!(stats.applied, 20);
    assert!(!stats.truncated_tail);
    assert_eq!(replayed, flight);

    // Losing half the final line (a crashed appender) is recovered: the
    // replay matches a recorder that saw all but the last solve.
    let last_line_start = log.trim_end().rfind('\n').expect("multi-line log") + 1;
    let truncated = &log[..last_line_start + 10];
    let (recovered, stats) = replay(truncated, config).expect("truncated tail tolerated");
    assert_eq!(stats.applied, 19);
    assert!(stats.truncated_tail);
    let (reference, _) = replay(&log[..last_line_start], config).expect("prefix replays");
    assert_eq!(recovered, reference);
}

/// The acceptance scenario: a churn storm through a hinted sharded session
/// fires **and** clears the skew and drift signals, with hysteresis, at
/// the default hand-computable thresholds (skew fires above
/// `max_owned/mean_owned = 2`, clears below 1.5; drift fires above
/// `|drift| = 0.15`, clears below 0.05 — with `ewma_alpha = 1` the
/// detector value IS the last sample's value).
///
/// The storm (> 500 events through the session API):
///
/// 1. 200 spread links — balanced tiles, nothing fires;
/// 2. a 100-link hotspot cluster into one of the 9 tiles — the repair
///    drifts far past the watermark, the full recolor re-measures
///    occupancy: skew ≈ (100 + 22)/33 ≈ 3.7 fires, |drift| ≫ 0.15 fires;
/// 3. gentle churn — slots stay at the re-anchored baseline, drift ≈ 0
///    clears; skew stays correctly fired (the hotspot is still there);
/// 4. a 220-link cluster into **every other** tile — slots grow past the
///    watermark again, and the recolor now sees balanced occupancy:
///    skew ≈ 242/229 ≈ 1.06 clears, |drift| fires once more;
/// 5. quiet solves — drift ≈ 0 clears. Everything quiescent.
#[test]
fn churn_storm_fires_and_clears_skew_and_drift_signals() {
    let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());
    let config = instant_config(64);
    let flight = FlightRecorder::with_config(config);
    let extent = BoundingBox::new(0.0, 0.0, 120.0, 120.0);
    let mut session = Session::builder()
        .scheduler(scheduler)
        .backend(Backend::Sharded)
        .target_shards(9)
        .partition_hints(extent, (1.0, 1.5))
        .repair(RepairPolicy::enabled())
        .recorder(Recorder::new())
        .flight_recorder(flight.clone())
        .build();
    let mut events = 0usize;
    // 40×40 tiles in a 3×3 grid; links jittered well inside a tile.
    let tile_center = |tx: usize, ty: usize| (40.0 * tx as f64 + 20.0, 40.0 * ty as f64 + 20.0);
    let cluster_into = |session: &mut Session, tx: usize, ty: usize, n: usize| -> usize {
        let (cx, cy) = tile_center(tx, ty);
        for i in 0..n {
            let dx = ((i * 7) % 17) as f64 - 8.0;
            let dy = ((i * 11) % 17) as f64 - 8.0;
            session.insert(
                Point::new(cx + dx, cy + dy),
                Point::new(cx + dx + 1.2, cy + dy),
            );
        }
        n
    };

    // Phase 1: spread universe, cold start — balanced, nothing fires.
    for i in 0..200usize {
        let x = (i % 15) as f64 * 8.0 + 1.5;
        let y = (i / 15) as f64 * 8.4 + 1.5;
        events += 1;
        session.insert(Point::new(x, y), Point::new(x + 1.2, y));
    }
    let report = session.solve();
    let health = report.health.expect("flight-recorder solves carry health");
    assert!(
        !health.any_active(),
        "balanced spread universe must be quiet"
    );
    assert_eq!(
        report.repair.expect("repair-enabled").decision,
        RepairDecision::ColdStart
    );

    // Phase 2: hotspot. The repair drifts past the watermark, the recolor
    // re-measures occupancy, and both signals fire on this very solve.
    events += cluster_into(&mut session, 0, 0, 100);
    let report = session.solve();
    let stats = report.repair.expect("repair-enabled");
    assert_eq!(stats.decision, RepairDecision::WatermarkBreach);
    assert!(
        stats.drift > 0.25,
        "hotspot must breach, got {}",
        stats.drift
    );
    let health = report.health.expect("health present");
    let skew = health.signal(SignalKind::Skew).expect("skew detector ran");
    let drift = health
        .signal(SignalKind::Drift)
        .expect("drift detector ran");
    assert!(
        skew.active && skew.fired == 1,
        "skew must fire on the hotspot"
    );
    assert!(
        drift.active && drift.fired == 1,
        "drift must fire on the breach"
    );
    // Hand-computable: the detector values are the last sample's values.
    let sample = flight.last().expect("sample retained");
    let shard = sample.sharding.expect("sharded solves carry occupancy");
    assert!((skew.value - shard.max_owned as f64 / shard.mean_owned).abs() < 1e-9);
    assert!((drift.value - sample.repair.expect("tagged").drift.abs()).abs() < 1e-9);
    assert!(skew.value > 2.0 && drift.value > 0.15);

    // Phase 3: gentle churn. Slots hold at the re-anchored baseline so
    // drift clears; the hotspot is still there so skew stays fired —
    // that's the hysteresis doing its job, not a bug.
    for round in 0..3usize {
        let x = 1.5 + round as f64 * 8.0;
        session
            .relocate(round as u64, Point::new(x, 2.6), Point::new(x + 1.2, 2.6))
            .expect("seeded key is live");
        events += 1;
        session.solve();
    }
    let health = flight.health();
    let skew = health.signal(SignalKind::Skew).expect("skew detector ran");
    let drift = health
        .signal(SignalKind::Drift)
        .expect("drift detector ran");
    assert!(skew.active, "hotspot unresolved, skew must stay fired");
    assert!(
        !drift.active && drift.cleared == 1,
        "drift must clear once quiet"
    );

    // Phase 4: every other tile gets a bigger cluster — the schedule grows
    // past the watermark again, and this recolor sees *balanced* tiles.
    for tx in 0..3usize {
        for ty in 0..3usize {
            if (tx, ty) != (0, 0) {
                events += cluster_into(&mut session, tx, ty, 220);
            }
        }
    }
    let report = session.solve();
    let stats = report.repair.expect("repair-enabled");
    assert_eq!(stats.decision, RepairDecision::WatermarkBreach);
    let health = report.health.expect("health present");
    let skew = health.signal(SignalKind::Skew).expect("skew detector ran");
    let drift = health
        .signal(SignalKind::Drift)
        .expect("drift detector ran");
    assert!(
        !skew.active && skew.cleared == 1,
        "balanced recolor must clear skew"
    );
    assert!(
        skew.value < 1.5,
        "occupancy is balanced, got {}",
        skew.value
    );
    assert!(
        drift.active && drift.fired == 2,
        "the breach re-fires drift"
    );

    // Phase 5: quiet solves — drift settles, everything quiescent.
    session.solve();
    let health = session.solve().health.expect("health present");
    assert!(!health.any_active(), "storm over, all signals must clear");
    let drift = health
        .signal(SignalKind::Drift)
        .expect("drift detector ran");
    assert_eq!((drift.fired, drift.cleared), (2, 2));
    let skew = health.signal(SignalKind::Skew).expect("skew detector ran");
    assert_eq!((skew.fired, skew.cleared), (1, 1));

    assert!(events > 500, "the storm must be a real storm, got {events}");
    assert_eq!(flight.solves(), 8);
}
