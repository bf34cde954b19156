//! The wire hostility suite: encode∘decode is the identity for every frame
//! kind (proptest round-trips, including full session snapshots that
//! restore to byte-identical solves), and [`Frame::decode`] is total over
//! arbitrary bytes — truncations at every offset, single bit flips at every
//! position, wrong magic/version/kind and random garbage all come back as
//! typed [`DecodeError`]s, never panics. For map-backed snapshots the
//! no-panic guarantee is pushed one layer further: whatever a flipped
//! snapshot decodes to, [`Session::restore_state`] returns `Ok` or a typed
//! [`RestoreError`], never a panic.
//!
//! `ci.sh` runs this suite in both the serial and the parallel build.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use wagg_engine::{EngineEvent, EngineTrace};
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::{
    CounterMetric, HealthReport, HealthSignal, Histogram, HistogramMetric, Metrics, PhaseMetric,
    SignalKind,
};
use wagg_schedule::{
    solve_static, BackendKind, PowerMode, RepairDecision, RepairStats, ScheduleReport,
    SchedulerConfig, ShardingStats, SolveReport,
};
use wagg_session::{Backend, RepairPolicy, Session, SessionConfig, VerifierStrategy};
use wagg_sinr::{Link, NodeId, SinrModel};
use wagg_wire::{DecodeError, Frame, MAGIC, VERSION};

/// Decodes proptest scalars into a link set with mixed lengths, ids `0..n`
/// and a sprinkle of node annotations.
fn decode_links(raw: &[(f64, f64, f64, f64)]) -> Vec<Link> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y, angle, len))| {
            let mut l = Link::new(
                i,
                Point::new(x, y),
                Point::new(x + len * angle.cos(), y + len * angle.sin()),
            );
            if i % 3 == 0 {
                l.sender_node = Some(NodeId(2 * i));
                l.receiver_node = Some(NodeId(2 * i + 1));
            } else if i % 3 == 1 {
                l.sender_node = Some(NodeId(2 * i));
            }
            l
        })
        .collect()
}

/// Decodes proptest scalars into an engine-event sequence exercising all
/// three variants.
fn decode_events(raw: &[(usize, usize, f64, f64)]) -> Vec<EngineEvent> {
    raw.iter()
        .map(|&(sel, key, x, y)| match sel % 3 {
            0 => EngineEvent::Insert {
                key: key as u64,
                sender: Point::new(x, y),
                receiver: Point::new(x + 1.0, y),
                sender_node: (key % 2 == 0).then_some(key),
                receiver_node: (key % 5 == 0).then_some(key + 1),
            },
            1 => EngineEvent::Remove { key: key as u64 },
            _ => EngineEvent::MoveNode {
                node: key,
                to: Point::new(x, y),
            },
        })
        .collect()
}

/// A deterministic mixed-length link set inside `[0, 90)²` (the snapshot
/// suite's layout).
fn grid_links(n: usize) -> Vec<Link> {
    (0..n)
        .map(|i| {
            let x = (i % 10) as f64 * 9.0;
            let y = (i / 10) as f64 * 9.0;
            let len = 1.0 + (i % 4) as f64 * 0.3;
            Link::new(i, Point::new(x, y), Point::new(x + len, y))
        })
        .collect()
}

/// Some churn so captured snapshots carry dirty sets and non-trivial keys.
fn churn(session: &mut Session) {
    let k = session.insert(Point::new(40.0, 41.0), Point::new(41.2, 41.0));
    session.insert(Point::new(12.0, 70.0), Point::new(13.1, 70.0));
    session.remove(k).expect("just inserted");
    session
        .relocate(0, Point::new(2.0, 5.0), Point::new(3.3, 5.0))
        .expect("seed key 0 is live");
}

/// One captured snapshot per backend flavour, mid-life (after churn, and
/// for the repair-enabled ones after a solve so warm state exists).
fn snapshot_corpus() -> Vec<Frame> {
    let mut static_session = Session::builder()
        .backend(Backend::Static)
        .links(&grid_links(30))
        .build();
    churn(&mut static_session);

    let mut engine_session = Session::builder()
        .backend(Backend::Engine)
        .power_mode(PowerMode::mean_oblivious())
        .repair(RepairPolicy {
            enabled: true,
            max_drift: 0.25,
        })
        .links(&grid_links(30))
        .build();
    engine_session.solve();
    churn(&mut engine_session);

    let mut sharded_session = Session::builder()
        .backend(Backend::Sharded)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .target_shards(4)
        .repair(RepairPolicy {
            enabled: true,
            max_drift: 0.25,
        })
        .links(&grid_links(30))
        .build();
    sharded_session.solve();
    churn(&mut sharded_session);

    vec![
        Frame::Snapshot(static_session.capture_state()),
        Frame::Snapshot(engine_session.capture_state()),
        Frame::Snapshot(sharded_session.capture_state()),
    ]
}

/// `report` carrying every optional section: sharded provenance, repair
/// accounting, metrics with a histogram, and health signals.
fn rich_report(report: ScheduleReport) -> SolveReport {
    let (num_links, slots) = (report.num_links, report.schedule.len());
    let mut hist = Histogram::new();
    for v in [0u64, 1_200_000, 1_900_000, 2_400_000, 75_000_000] {
        hist.observe(v);
    }
    SolveReport {
        report,
        backend: BackendKind::Sharded,
        sharding: Some(ShardingStats {
            shards: 16,
            radius: 42.25,
            boundary_links: 7,
            repaired_links: 2,
            evicted_links: 1,
            max_owned: 1501,
            mean_owned: 1250.5,
            ghost_fraction: 0.0625,
        }),
        repair: Some(RepairStats {
            decision: RepairDecision::WatermarkBreach,
            dirty_links: 9,
            replaced_links: num_links,
            baseline_slots: slots,
            drift: 0.5,
            watermark: 0.25,
        }),
        metrics: Some(Metrics {
            phases: vec![
                PhaseMetric {
                    path: "partition".into(),
                    nanos: 3_200_000,
                    count: 1,
                },
                PhaseMetric {
                    path: "partition/build/shard".into(),
                    nanos: 1_000_000,
                    count: 16,
                },
            ],
            counters: vec![
                CounterMetric {
                    name: "partition.owned_links".into(),
                    value: 20008,
                },
                CounterMetric {
                    name: "verifier.expansions".into(),
                    value: 731,
                },
            ],
            hists: vec![HistogramMetric {
                name: "session.solve_ns".into(),
                hist,
            }],
        }),
        health: Some(HealthReport {
            solves: 12,
            signals: vec![
                HealthSignal {
                    kind: SignalKind::Skew,
                    active: true,
                    value: 2.5,
                    fire_threshold: 2.0,
                    clear_threshold: 1.5,
                    fired: 2,
                    cleared: 1,
                    since: 9,
                },
                HealthSignal {
                    kind: SignalKind::Latency,
                    active: false,
                    value: 1.0625,
                    fire_threshold: 2.0,
                    clear_threshold: 1.25,
                    fired: 0,
                    cleared: 0,
                    since: 0,
                },
            ],
        }),
    }
}

/// Every frame kind once (reports twice: plain, and with every optional
/// section), for the corruption sweeps.
fn corpus() -> Vec<Frame> {
    let links = grid_links(12);
    let report = Session::builder()
        .backend(Backend::Static)
        .links(&links)
        .build()
        .solve();
    let mut frames = vec![
        Frame::Links(links),
        Frame::Trace(EngineTrace {
            name: "hostility".to_string(),
            events: decode_events(&[(0, 4, 1.0, 2.0), (2, 4, 3.0, 4.0), (1, 4, 0.0, 0.0)]),
        }),
        Frame::Config(SessionConfig {
            backend: Backend::Sharded,
            verifier: VerifierStrategy::Hierarchical { depth: Some(1) },
            target_shards: 5,
            ..SessionConfig::default()
        }),
        Frame::Report(rich_report(report.report.clone())),
        Frame::Report(report),
    ];
    frames.extend(snapshot_corpus());
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Links frames round-trip exactly, node annotations included.
    #[test]
    fn links_frames_round_trip(
        raw in proptest::collection::vec(
            (0.0f64..150.0, 0.0f64..150.0, 0.0f64..std::f64::consts::TAU, 0.5f64..5.0),
            0..80,
        )
    ) {
        let frame = Frame::Links(decode_links(&raw));
        let bytes = frame.encode().expect("finite links encode");
        prop_assert_eq!(Frame::decode(&bytes).expect("valid bytes decode"), frame);
    }

    /// Trace frames round-trip exactly across all event variants.
    #[test]
    fn trace_frames_round_trip(
        raw in proptest::collection::vec(
            (0usize..3, 0usize..500, -50.0f64..50.0, -50.0f64..50.0),
            0..120,
        )
    ) {
        let frame = Frame::Trace(EngineTrace {
            name: "prop".to_string(),
            events: decode_events(&raw),
        });
        let bytes = frame.encode().expect("finite events encode");
        prop_assert_eq!(Frame::decode(&bytes).expect("valid bytes decode"), frame);
    }

    /// Config frames round-trip across the whole parameter space, including
    /// the model re-validated on decode.
    #[test]
    fn config_frames_round_trip(
        (alpha, beta, noise, tau) in (2.1f64..6.0, 0.1f64..4.0, 0.0f64..1.0, 0.05f64..0.95),
        (mode_sel, backend_sel, flags, shards) in (0usize..4, 0usize..4, 0usize..8, 0usize..9),
        (depth, drift) in (0usize..4, 0.05f64..0.8),
    ) {
        let mode = match mode_sel {
            0 => PowerMode::Uniform,
            1 => PowerMode::Linear,
            2 => PowerMode::Oblivious { tau },
            _ => PowerMode::GlobalControl,
        };
        let config = SessionConfig {
            scheduler: SchedulerConfig::new(mode)
                .with_model(SinrModel::new(alpha, beta, noise).expect("valid model"))
                .with_verification(flags & 1 != 0),
            backend: match backend_sel {
                0 => Backend::Auto,
                1 => Backend::Static,
                2 => Backend::Engine,
                _ => Backend::Sharded,
            },
            expect_churn: flags & 2 != 0,
            verifier: VerifierStrategy::Hierarchical {
                depth: (depth > 0).then_some(depth),
            },
            target_shards: shards,
            partition: (flags & 4 != 0).then_some(wagg_session::PartitionHints {
                extent: BoundingBox::new(0.0, 0.0, 10.0 + alpha, 20.0),
                length_bounds: (0.5, 2.0 + tau),
            }),
            repair: RepairPolicy {
                enabled: flags & 2 != 0,
                max_drift: drift,
            },
            ..SessionConfig::default()
        };
        let frame = Frame::Config(config);
        let bytes = frame.encode().expect("valid config encodes");
        prop_assert_eq!(Frame::decode(&bytes).expect("valid bytes decode"), frame);
    }

    /// Report frames of real solves round-trip exactly.
    #[test]
    fn report_frames_round_trip(
        raw in proptest::collection::vec(
            (0.0f64..120.0, 0.0f64..120.0, 0.0f64..std::f64::consts::TAU, 0.5f64..4.0),
            4..30,
        )
    ) {
        let mut session = Session::builder()
            .backend(Backend::Static)
            .links(&decode_links(&raw))
            .build();
        let frame = Frame::Report(session.solve());
        let bytes = frame.encode().expect("report encodes");
        prop_assert_eq!(Frame::decode(&bytes).expect("valid bytes decode"), frame);
    }

    /// Random garbage never panics the decoder — with or without a valid
    /// header stapled on front.
    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(0usize..256, 0..300),
        kind in 0usize..8,
    ) {
        let garbage: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        prop_assert!(catch_unwind(AssertUnwindSafe(|| {
            let _ = Frame::decode(&garbage);
        }))
        .is_ok());
        let mut framed = Vec::with_capacity(garbage.len() + 6);
        framed.extend_from_slice(&MAGIC);
        framed.push(VERSION);
        framed.push(kind as u8);
        framed.extend_from_slice(&garbage);
        prop_assert!(catch_unwind(AssertUnwindSafe(|| {
            let _ = Frame::decode(&framed);
        }))
        .is_ok());
    }
}

/// Snapshots survive the wire end-to-end: capture → encode → decode →
/// restore → the next solve is byte-identical to the uninterrupted
/// original's, on every backend flavour.
#[test]
fn snapshots_round_trip_to_identical_solves() {
    for frame in snapshot_corpus() {
        let bytes = frame.encode().expect("captured state encodes");
        let decoded = Frame::decode(&bytes).expect("valid bytes decode");
        assert_eq!(decoded, frame, "snapshot frame diverged on the wire");
        let Frame::Snapshot(state) = decoded else {
            unreachable!("snapshot corpus only holds snapshots");
        };
        let mut original = Session::restore_state(&state).expect("state restores");
        let mut rewired = {
            let Frame::Snapshot(state) = Frame::decode(&bytes).expect("decodes again") else {
                unreachable!()
            };
            Session::restore_state(&state).expect("decoded state restores")
        };
        assert_eq!(
            rewired.solve(),
            original.solve(),
            "solve diverged after a wire round-trip"
        );
    }
}

/// Report frames round-trip every power mode and provenance: static and
/// engine reports, a repaired and an unsupported repair section, a report
/// with every optional section, and the empty schedule.
#[test]
fn report_frames_round_trip_every_mode_and_provenance() {
    let links = grid_links(24);
    let mut reports = vec![SolveReport::from(solve_static(
        &[],
        SchedulerConfig::default(),
    ))];
    for mode in [
        PowerMode::Uniform,
        PowerMode::Linear,
        PowerMode::Oblivious { tau: 0.5 },
        PowerMode::GlobalControl,
    ] {
        let report = solve_static(&links, SchedulerConfig::new(mode));
        let (num_links, slots) = (report.num_links, report.schedule.len());
        reports.extend([
            SolveReport::new(report.clone(), BackendKind::Static),
            SolveReport::new(report.clone(), BackendKind::Engine),
            SolveReport::new(report.clone(), BackendKind::Engine).with_repair(RepairStats {
                decision: RepairDecision::Repaired,
                dirty_links: 2,
                replaced_links: 4,
                baseline_slots: 6,
                drift: 0.125,
                watermark: 0.25,
            }),
            SolveReport::new(report.clone(), BackendKind::Static).with_repair(RepairStats {
                decision: RepairDecision::Unsupported,
                dirty_links: 0,
                replaced_links: num_links,
                baseline_slots: slots,
                drift: 0.0,
                watermark: 0.25,
            }),
            rich_report(report),
        ]);
    }
    for report in reports {
        let frame = Frame::Report(report);
        let bytes = frame.encode().expect("report encodes");
        assert_eq!(Frame::decode(&bytes).expect("valid bytes decode"), frame);
    }
}

/// A histogram whose bucket counts add up past `u64::MAX`, or whose bucket
/// index is out of range, is a typed error — not an overflow panic (debug)
/// or a wrapped count (release).
#[test]
fn hostile_histograms_are_typed_errors() {
    let mut report = rich_report(solve_static(&grid_links(12), SchedulerConfig::default()));
    let hist = Histogram::from_parts(0, &[(1, u64::MAX - 1), (2, 1)]).expect("counts fit u64");
    report
        .metrics
        .as_mut()
        .expect("rich report has metrics")
        .hists = vec![HistogramMetric {
        name: "hostile".into(),
        hist,
    }];
    let bytes = Frame::Report(report).encode().expect("report encodes");
    // Buckets are (index byte, u64 count) pairs: find the first count, then
    // rewrite the second pair's count or index.
    let at = bytes
        .windows(8)
        .position(|w| w == (u64::MAX - 1).to_le_bytes())
        .expect("the first bucket count is in the frame");
    let mut overflow = bytes.clone();
    overflow[at + 9..at + 17].copy_from_slice(&2u64.to_le_bytes());
    let mut out_of_range = bytes;
    out_of_range[at + 8] = 65;
    for hostile in [overflow, out_of_range] {
        let decoded = catch_unwind(AssertUnwindSafe(|| Frame::decode(&hostile)))
            .expect("decode must not panic");
        assert_eq!(decoded, Err(DecodeError::InvalidHistogram));
    }
}

/// Every strict prefix of every valid frame is a typed error, never a panic
/// and never an `Ok` (the payload has no optional tail).
#[test]
fn every_truncation_is_a_typed_error() {
    for frame in corpus() {
        let bytes = frame.encode().expect("corpus encodes");
        for len in 0..bytes.len() {
            let prefix = &bytes[..len];
            let result = catch_unwind(AssertUnwindSafe(|| Frame::decode(prefix)));
            let decoded = result.unwrap_or_else(|_| {
                panic!(
                    "decode panicked on a {len}-byte truncation of {:?}",
                    frame.kind()
                )
            });
            assert!(
                decoded.is_err(),
                "a {len}-byte truncation of {:?} decoded as Ok",
                frame.kind()
            );
        }
    }
}

/// Every single bit flip of every valid frame decodes to `Ok` or a typed
/// error — never a panic.
#[test]
fn every_bit_flip_never_panics() {
    for frame in corpus() {
        let bytes = frame.encode().expect("corpus encodes");
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _ = Frame::decode(&flipped);
                }));
                assert!(
                    result.is_ok(),
                    "decode panicked on bit {bit} of byte {pos} in {:?}",
                    frame.kind()
                );
            }
        }
    }
}

/// For the map-backed snapshot the guarantee extends through restore:
/// whatever a flipped frame decodes to, `Session::restore_state` returns
/// `Ok` or a typed `RestoreError` — never a panic. (Engine-building
/// restores are exercised by the session suite's tampered-state tests;
/// here the map-backed flavour keeps the flip sweep allocation-safe.)
#[test]
fn bit_flipped_snapshots_restore_or_reject_without_panic() {
    let mut session = Session::builder()
        .backend(Backend::Static)
        .links(&grid_links(30))
        .build();
    churn(&mut session);
    let bytes = Frame::Snapshot(session.capture_state())
        .encode()
        .expect("snapshot encodes");
    let mut decoded_ok = 0usize;
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            let result = catch_unwind(AssertUnwindSafe(|| {
                if let Ok(Frame::Snapshot(state)) = Frame::decode(&flipped) {
                    let _ = Session::restore_state(&state);
                    1
                } else {
                    0
                }
            }));
            decoded_ok += result.unwrap_or_else(|_| {
                panic!("restore panicked on bit {bit} of byte {pos} of a snapshot")
            });
        }
    }
    // The sweep is only meaningful if a decent share of flips still decode
    // (flips in link coordinates and keys usually survive framing).
    assert!(
        decoded_ok > 100,
        "only {decoded_ok} flips decoded — the sweep lost its teeth"
    );
}

/// Wrong magic, foreign version, unknown kind and trailing bytes are each
/// their own typed error on every frame kind.
#[test]
fn framing_errors_are_typed_on_every_kind() {
    for frame in corpus() {
        let bytes = frame.encode().expect("corpus encodes");
        let mut bad = bytes.clone();
        bad[2] = b'?';
        assert!(matches!(
            Frame::decode(&bad),
            Err(DecodeError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[4] = VERSION + 1;
        assert!(matches!(
            Frame::decode(&bad),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
        let mut bad = bytes.clone();
        bad[5] = 0x7F;
        assert!(matches!(
            Frame::decode(&bad),
            Err(DecodeError::UnknownFrameKind { kind: 0x7F })
        ));
        let mut bad = bytes;
        bad.extend_from_slice(&[0, 1, 2]);
        assert!(matches!(
            Frame::decode(&bad),
            Err(DecodeError::TrailingBytes { remaining: 3 })
        ));
    }
}
