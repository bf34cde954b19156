//! The service differential suite: a session hosted behind
//! [`SchedulerService`] is *slot-for-slot identical* to a [`Session`]
//! driven directly — same configs, same event batches, equal
//! [`SolveReport`]s — across all three backends, under churn, through
//! snapshot/restore, and under a concurrent multi-client storm. Plus the
//! failure surface: a full queue is a typed [`ServiceError::Busy`] (never a
//! deadlock), and a panicking event poisons exactly one session while its
//! worker and every other session keep serving.
//!
//! `ci.sh` runs this suite in both the serial and the parallel build.

use wagg_engine::EngineEvent;
use wagg_geometry::{BoundingBox, Point};
use wagg_schedule::PowerMode;
use wagg_service::{SchedulerService, ServiceConfig, ServiceError, SessionId};
use wagg_session::{
    Backend, PartitionHints, RepairPolicy, RestoreError, Session, SessionConfig, SessionError,
    MAX_SHARDS,
};
use wagg_sinr::Link;
use wagg_wire::Frame;

/// A deterministic mixed-length link set inside `[0, 90)²`.
fn links(n: usize) -> Vec<Link> {
    (0..n)
        .map(|i| {
            let x = (i % 10) as f64 * 9.0;
            let y = (i / 10) as f64 * 9.0;
            let len = 1.0 + (i % 4) as f64 * 0.3;
            Link::new(i, Point::new(x, y), Point::new(x + len, y))
        })
        .collect()
}

/// One churn batch per round, in trace-key space — applied identically to
/// hosted and direct sessions. Lengths stay inside the hinted configs'
/// declared `(1.0, 2.0)` bounds and all positions inside the extent.
fn batch(round: u64) -> Vec<EngineEvent> {
    let r = round as f64;
    vec![
        EngineEvent::Insert {
            key: 100 + round,
            sender: Point::new(40.0 + r, 41.0),
            receiver: Point::new(41.2 + r, 41.0),
            sender_node: None,
            receiver_node: None,
        },
        EngineEvent::Insert {
            key: 300 + round,
            sender: Point::new(12.0, 70.0 + (round % 7) as f64),
            receiver: Point::new(13.1, 70.0 + (round % 7) as f64),
            sender_node: None,
            receiver_node: None,
        },
        EngineEvent::Remove { key: 100 + round },
    ]
}

/// Every backend flavour the service must reproduce exactly.
fn configs() -> Vec<SessionConfig> {
    let repair = RepairPolicy {
        enabled: true,
        max_drift: 0.25,
    };
    vec![
        SessionConfig {
            backend: Backend::Static,
            ..SessionConfig::default()
        },
        SessionConfig {
            backend: Backend::Engine,
            repair,
            ..SessionConfig::default()
        },
        SessionConfig {
            backend: Backend::Sharded,
            target_shards: 4,
            ..SessionConfig::default()
        },
        SessionConfig {
            backend: Backend::Sharded,
            target_shards: 4,
            partition: Some(PartitionHints {
                extent: BoundingBox::new(0.0, 0.0, 95.0, 95.0),
                length_bounds: (1.0, 2.0),
            }),
            repair,
            ..SessionConfig::default()
        },
    ]
}

/// Retries through transient `Busy` rejections (backpressure is typed, so
/// a client loop is exactly this).
fn with_retry<T>(mut f: impl FnMut() -> Result<T, ServiceError>) -> T {
    loop {
        match f() {
            Ok(v) => return v,
            Err(ServiceError::Busy { .. }) => std::thread::yield_now(),
            Err(e) => panic!("service request failed: {e}"),
        }
    }
}

/// Hosted == direct, slot for slot, across every backend and five churn
/// rounds.
#[test]
fn hosted_sessions_match_direct_sessions() {
    let service = SchedulerService::start(ServiceConfig::default());
    for config in configs() {
        let universe = links(40);
        let hosted = service.open_session(config, &universe).expect("opens");
        let mut direct = Session::builder().config(config).links(&universe).build();
        assert_eq!(
            service.solve(hosted).expect("hosted solves"),
            direct.solve(),
            "seed solve diverged for {:?}",
            config.backend
        );
        for round in 1..6 {
            let events = batch(round);
            let applied = service
                .submit_events(hosted, &events)
                .expect("hosted applies");
            assert_eq!(
                applied,
                direct.apply_events(&events).expect("direct applies")
            );
            assert_eq!(
                service.solve(hosted).expect("hosted solves"),
                direct.solve(),
                "round {round} diverged for {:?}",
                config.backend
            );
        }
        service.close_session(hosted).expect("closes");
    }
    service.shutdown();
}

/// Snapshot → wire → restore inside the service equals the uninterrupted
/// session, and both keep matching a direct session afterwards.
#[test]
fn snapshot_restore_matches_uninterrupted() {
    let service = SchedulerService::start(ServiceConfig::default());
    for config in configs() {
        let universe = links(40);
        let hosted = service.open_session(config, &universe).expect("opens");
        let mut direct = Session::builder().config(config).links(&universe).build();
        for round in 1..3 {
            let events = batch(round);
            service.submit_events(hosted, &events).expect("applies");
            direct.apply_events(&events).expect("applies");
            service.solve(hosted).expect("solves");
            direct.solve();
        }
        let frame = service.snapshot(hosted).expect("snapshots");
        let restored = service.restore(&frame).expect("restores");
        for round in 3..6 {
            let events = batch(round);
            service.submit_events(hosted, &events).expect("applies");
            service.submit_events(restored, &events).expect("applies");
            direct.apply_events(&events).expect("applies");
            let want = direct.solve();
            assert_eq!(
                service.solve(hosted).expect("hosted solves"),
                want,
                "uninterrupted diverged at round {round} for {:?}",
                config.backend
            );
            assert_eq!(
                service.solve(restored).expect("restored solves"),
                want,
                "restored diverged at round {round} for {:?}",
                config.backend
            );
        }
        service.close_session(hosted).expect("closes");
        service.close_session(restored).expect("closes");
    }
    service.shutdown();
}

/// A storm of concurrent clients sharing two workers: per-session request
/// streams stay linearizable — every client's solves equal a direct
/// session replaying the same ops sequentially.
#[test]
fn concurrent_clients_stay_linearizable_per_session() {
    let service = SchedulerService::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        telemetry: None,
    });
    let all = configs();
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let service = service.clone();
            let config = all[i % all.len()];
            std::thread::spawn(move || {
                let universe = links(30 + i);
                let hosted = with_retry(|| service.open_session(config, &universe));
                let mut reports = Vec::new();
                for round in 1..5 {
                    let events = batch(round + i as u64 * 10);
                    with_retry(|| service.submit_events(hosted, &events));
                    reports.push(with_retry(|| service.solve(hosted)));
                }
                with_retry(|| service.close_session(hosted));
                (i, config, reports)
            })
        })
        .collect();
    for client in clients {
        let (i, config, reports) = client.join().expect("client thread completes");
        let mut direct = Session::builder()
            .config(config)
            .links(&links(30 + i))
            .build();
        for (round, hosted_report) in (1..5).zip(reports) {
            direct
                .apply_events(&batch(round + i as u64 * 10))
                .expect("direct applies");
            assert_eq!(
                hosted_report,
                direct.solve(),
                "client {i} diverged at round {round}"
            );
        }
    }
    service.shutdown();
}

/// Flooding one worker with a depth-1 queue yields typed `Busy` rejections
/// — and nothing deadlocks: every client completes, and the service still
/// serves afterwards.
#[test]
fn overload_is_typed_busy_not_deadlock() {
    let service = SchedulerService::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        telemetry: None,
    });
    let universe = links(60);
    let hosted = service
        .open_session(SessionConfig::default(), &universe)
        .expect("opens");
    let floods: Vec<_> = (0..12)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut busy = 0u64;
                for _ in 0..30 {
                    match service.solve(hosted) {
                        Ok(_) => {}
                        Err(ServiceError::Busy { queue_depth }) => {
                            assert_eq!(queue_depth, 1);
                            busy += 1;
                        }
                        Err(e) => panic!("unexpected error under flood: {e}"),
                    }
                }
                busy
            })
        })
        .collect();
    let total_busy: u64 = floods
        .into_iter()
        .map(|t| t.join().expect("flood thread completes"))
        .sum();
    assert_eq!(total_busy, service.busy_rejections());
    assert!(
        total_busy > 0,
        "12 clients against a depth-1 queue never saw Busy"
    );
    // The service is unharmed.
    let report = service.solve(hosted).expect("still serves");
    assert_eq!(report.report.num_links, 60);
    service.shutdown();
}

/// A panicking event (length outside the declared partition bounds trips
/// an engine assertion) poisons exactly its session: the worker survives,
/// a sibling session on the same worker keeps solving, and the poisoned
/// session stays addressable until closed.
#[test]
fn panic_poisons_one_session_only() {
    let service = SchedulerService::start(ServiceConfig {
        workers: 1,
        queue_depth: 16,
        telemetry: None,
    });
    let hinted = SessionConfig {
        backend: Backend::Sharded,
        target_shards: 4,
        partition: Some(PartitionHints {
            extent: BoundingBox::new(0.0, 0.0, 95.0, 95.0),
            length_bounds: (1.0, 2.0),
        }),
        ..SessionConfig::default()
    };
    let victim = service.open_session(hinted, &links(30)).expect("opens");
    let bystander = service
        .open_session(SessionConfig::default(), &links(20))
        .expect("opens");

    // Length 50 violates the declared (1.0, 2.0) bounds → engine assert.
    let poison = vec![EngineEvent::Insert {
        key: 999,
        sender: Point::new(10.0, 10.0),
        receiver: Point::new(60.0, 10.0),
        sender_node: None,
        receiver_node: None,
    }];
    assert_eq!(
        service.submit_events(victim, &poison),
        Err(ServiceError::SessionPoisoned { session: victim })
    );
    // The poisoned session keeps answering — with its poison.
    assert_eq!(
        service.solve(victim),
        Err(ServiceError::SessionPoisoned { session: victim })
    );
    // Its sibling on the same worker is untouched.
    let report = service.solve(bystander).expect("bystander solves");
    assert_eq!(report.report.num_links, 20);
    // Poisoned sessions can be closed; then they are unknown.
    service.close_session(victim).expect("poisoned closes");
    assert_eq!(
        service.solve(victim),
        Err(ServiceError::UnknownSession { session: victim })
    );
    service.shutdown();
}

/// A NaN or infinite coordinate is a typed refusal on every backend, not a
/// poisoned session: a batch carrying one applies none of its events (the
/// valid ones ahead of it included), the session stays live and solves
/// its unchanged schedule, and an open over such a link set opens nothing.
#[test]
fn non_finite_geometry_is_refused_before_the_session_sees_it() {
    let service = SchedulerService::start(ServiceConfig::default());
    for config in configs() {
        let hosted = service.open_session(config, &links(40)).expect("opens");
        let before = service.solve(hosted).expect("solves");
        let stats = service.health(hosted).expect("health answers").stats;
        let mut nan_insert = batch(1);
        nan_insert.insert(
            1,
            EngineEvent::Insert {
                key: 77,
                sender: Point::new(f64::NAN, 41.0),
                receiver: Point::new(41.2, 41.0),
                sender_node: None,
                receiver_node: None,
            },
        );
        let infinite_move = vec![EngineEvent::MoveNode {
            node: 0,
            to: Point::new(3.0, f64::INFINITY),
        }];
        let refusals = [
            (nan_insert, 1, "insert sender"),
            (infinite_move, 0, "move target"),
        ];
        for (events, index, what) in refusals {
            assert_eq!(
                service.submit_events(hosted, &events),
                Err(ServiceError::NonFinite { index, what }),
                "{:?}",
                config.backend
            );
        }
        assert_eq!(
            service.health(hosted).expect("still live").stats,
            stats,
            "{:?}: the refused batches applied nothing",
            config.backend
        );
        assert_eq!(
            service.solve(hosted).expect("still live").schedule(),
            before.schedule(),
            "{:?}",
            config.backend
        );
        service.close_session(hosted).expect("closes");
    }
    let mut hostile = links(10);
    hostile[3].receiver = Point::new(f64::NEG_INFINITY, 0.0);
    for config in configs() {
        assert_eq!(
            service.open_session(config, &hostile),
            Err(ServiceError::NonFinite {
                index: 3,
                what: "link receiver"
            })
        );
    }
    service.shutdown();
}

/// An oblivious `τ` outside `(0, 1)` in an `OpenSession` is refused with
/// `ServiceError::InvalidTau` before any worker builds a session (whose
/// build would panic on it), on every backend; the service keeps serving.
#[test]
fn out_of_range_tau_is_refused_before_a_worker_sees_it() {
    let service = SchedulerService::start(ServiceConfig::default());
    for config in configs() {
        for tau in [1.5, -0.5, f64::NAN, 0.0, 1.0] {
            let mut refused = config;
            refused.scheduler.mode = PowerMode::Oblivious { tau };
            let opened = std::panic::catch_unwind(|| service.open_session(refused, &links(40)));
            match opened.expect("the request must not panic") {
                Err(ServiceError::InvalidTau { tau: got }) => {
                    assert_eq!(got.to_bits(), tau.to_bits(), "{:?}", config.backend)
                }
                other => panic!(
                    "{:?}: tau {tau}: expected InvalidTau, got {other:?}",
                    config.backend
                ),
            }
        }
        let mut valid = config;
        valid.scheduler.mode = PowerMode::Oblivious { tau: 0.25 };
        let hosted = service.open_session(valid, &links(40)).expect("opens");
        assert!(service.solve(hosted).expect("solves").slots() > 0);
        service.close_session(hosted).expect("closes");
    }
    service.shutdown();
}

/// A shard count past `MAX_SHARDS` is refused with a typed error before
/// any tile is laid out, on every backend: in an `OpenSession` before any
/// worker sees it, and in a snapshot frame on restore. Over a 10⁶-wide
/// hinted extent 2⁴⁰ shards would ask for about 4·10¹⁰ shard engines. A
/// session opened at the bound solves, snapshots and restores.
#[test]
fn shard_counts_past_the_bound_are_refused_before_any_tile_is_laid_out() {
    let service = SchedulerService::start(ServiceConfig::default());
    let wide = BoundingBox::new(0.0, 0.0, 1e6, 1e6);
    for config in configs() {
        for shards in [MAX_SHARDS + 1, 1 << 40] {
            let mut refused = config;
            refused.target_shards = shards;
            if let Some(hints) = &mut refused.partition {
                hints.extent = wide;
            }
            assert_eq!(
                service.open_session(refused, &links(40)),
                Err(ServiceError::TooManyShards { shards }),
                "{:?}",
                config.backend
            );
        }
        let mut bound = config;
        bound.target_shards = MAX_SHARDS;
        let hosted = service.open_session(bound, &links(40)).expect("opens");
        service.solve(hosted).expect("solves");
        let frame = service.snapshot(hosted).expect("snapshots");
        let restored = service.restore(&frame).expect("restores at the bound");
        assert_eq!(
            service.solve(restored).expect("solves"),
            service.solve(hosted).expect("solves")
        );
        let Ok(Frame::Snapshot(mut state)) = Frame::decode(&frame) else {
            panic!("a snapshot frame decodes to a snapshot");
        };
        state.config.target_shards = 1 << 40;
        if let Some(hints) = &mut state.config.partition {
            hints.extent = wide;
        }
        let hostile = Frame::Snapshot(state).encode().expect("encodes");
        assert_eq!(
            service.restore(&hostile),
            Err(ServiceError::Restore(RestoreError::TooManyShards {
                shards: 1 << 40
            })),
            "{:?}",
            config.backend
        );
        service.close_session(hosted).expect("closes");
        service.close_session(restored).expect("closes");
    }
    service.shutdown();
}

/// The same refusal one layer down: a session driven directly refuses a
/// NaN insert sender and an infinite move target with
/// `SessionError::NonFinite` before any event of the batch applies, on
/// every backend.
#[test]
fn sessions_refuse_non_finite_events_before_applying_any() {
    for config in configs() {
        let mut session = Session::builder().config(config).links(&links(40)).build();
        let before = session.solve();
        let len = session.len();
        let mut nan_insert = batch(1);
        nan_insert.insert(
            1,
            EngineEvent::Insert {
                key: 77,
                sender: Point::new(f64::NAN, 41.0),
                receiver: Point::new(41.2, 41.0),
                sender_node: None,
                receiver_node: None,
            },
        );
        let mut infinite_move = batch(2);
        infinite_move.insert(
            1,
            EngineEvent::MoveNode {
                node: 0,
                to: Point::new(3.0, f64::INFINITY),
            },
        );
        let refusals = [
            (nan_insert, 1, "insert sender"),
            (infinite_move, 1, "move target"),
        ];
        for (events, index, what) in refusals {
            assert_eq!(
                session.apply_events(&events),
                Err(SessionError::NonFinite { index, what }),
                "{:?}",
                config.backend
            );
            assert_eq!(session.len(), len, "{:?}", config.backend);
        }
        assert_eq!(
            session.solve().schedule(),
            before.schedule(),
            "{:?}: the refused batches applied nothing",
            config.backend
        );
    }
}

/// The session's direct event methods check their points before anything
/// changes, on every backend: a NaN `relocate` is a typed refusal, and a
/// NaN `insert` (or `insert_with_nodes`, or an infinite `move_node`) panics;
/// either way the live links, the accounting and the next schedule are
/// those of before.
#[test]
fn direct_event_methods_check_points_before_any_change() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use wagg_sinr::NodeId;
    for config in configs() {
        let mut session = Session::builder().config(config).links(&links(40)).build();
        let before = session.solve();
        let (len, stats) = (session.len(), session.stats());
        let nan = Point::new(f64::NAN, 41.0);
        let fine = Point::new(41.2, 41.0);
        assert_eq!(
            session.relocate(0, nan, fine),
            Err(SessionError::NonFinite {
                index: 0,
                what: "relocate sender"
            }),
            "{:?}",
            config.backend
        );
        assert_eq!(
            session.relocate(0, fine, Point::new(3.0, f64::INFINITY)),
            Err(SessionError::NonFinite {
                index: 0,
                what: "relocate receiver"
            }),
            "{:?}",
            config.backend
        );
        let panics = [
            catch_unwind(AssertUnwindSafe(|| {
                session.insert(nan, fine);
            })),
            catch_unwind(AssertUnwindSafe(|| {
                session.insert_with_nodes(fine, nan, NodeId(90), NodeId(91));
            })),
            catch_unwind(AssertUnwindSafe(|| {
                session.move_node(0, Point::new(f64::NEG_INFINITY, 0.0));
            })),
        ];
        assert!(
            panics.iter().all(Result::is_err),
            "{:?}: every non-finite direct event panics",
            config.backend
        );
        assert_eq!(session.len(), len, "{:?}", config.backend);
        assert_eq!(session.stats(), stats, "{:?}", config.backend);
        assert_eq!(
            session.solve().schedule(),
            before.schedule(),
            "{:?}: the refused events changed nothing",
            config.backend
        );
    }
}

/// With telemetry configured, `health` carries the session's accounting
/// and longitudinal flight-recorder signals; the service's own recorder
/// sees per-request histograms.
#[test]
fn health_and_metrics_flow_through() {
    let service = SchedulerService::start(ServiceConfig {
        workers: 2,
        queue_depth: 16,
        telemetry: Some(wagg_session::TelemetryConfig::default()),
    });
    let hosted = service
        .open_session(SessionConfig::default(), &links(25))
        .expect("opens");
    for round in 1..4 {
        service
            .submit_events(hosted, &batch(round))
            .expect("applies");
        service.solve(hosted).expect("solves");
    }
    let health = service.health(hosted).expect("health answers");
    assert_eq!(health.stats.links, 25 + 3);
    assert_eq!(health.stats.inserts, 25 + 6);
    // Per-request latency histograms were recorded.
    let metrics = service.metrics();
    let solves = metrics
        .hist("service.request.solve_ns")
        .expect("solve histogram exists");
    assert_eq!(solves.count(), 3);
    assert!(metrics.hist("service.request.events_ns").is_some());
    assert!(metrics.hist("service.request.health_ns").is_some());
    service.shutdown();
}

/// `SessionId`s are service-scoped: fabricated ids are unknown, and
/// requests race-free across clones of the handle.
#[test]
fn ids_are_service_scoped() {
    let service = SchedulerService::start(ServiceConfig::default());
    let real = service
        .open_session(SessionConfig::default(), &links(10))
        .expect("opens");
    let clone = service.clone();
    assert_eq!(clone.solve(real).expect("clone serves"), {
        let mut direct = Session::builder()
            .config(SessionConfig::default())
            .links(&links(10))
            .build();
        direct.solve()
    });
    // An id the service never minted.
    let fake: SessionId = {
        // SessionIds are opaque; fabricate one by opening on a throwaway
        // service (ids are minted per service, so they collide only by
        // accident — pick one far past this service's counter).
        let throwaway = SchedulerService::start(ServiceConfig {
            workers: 1,
            queue_depth: 4,
            telemetry: None,
        });
        let mut last = throwaway
            .open_session(SessionConfig::default(), &links(2))
            .expect("opens");
        for _ in 0..20 {
            last = throwaway
                .open_session(SessionConfig::default(), &links(2))
                .expect("opens");
        }
        throwaway.shutdown();
        last
    };
    assert!(matches!(
        service.solve(fake),
        Err(ServiceError::UnknownSession { .. })
    ));
    service.shutdown();
}
