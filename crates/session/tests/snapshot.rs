//! Snapshot/restore suite: [`Session::capture_state`] →
//! [`Session::restore_state`] is lossless where it promises to be —
//! the restored session's next solve is **byte-identical** (whole
//! [`SolveReport`]s compared, not just schedules) on every backend, with
//! and without warm repair state, and the restored session keeps behaving
//! identically under further churn. Hostile hand-built states come back as
//! typed [`RestoreError`]s, never panics.
//!
//! `ci.sh` runs this suite in both the serial and the parallel build.

use wagg_geometry::{BoundingBox, Point};
use wagg_schedule::{BackendKind, PowerMode, RepairDecision};
use wagg_session::state::{SessionState, TelemetryState, WarmState};
use wagg_session::{
    Backend, FlightRecorder, RepairPolicy, RestoreError, Session, SessionBuilder, TelemetryConfig,
    MAX_SHARDS,
};
use wagg_sinr::Link;

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

/// Identical churn applied to two sessions (the captured original and its
/// restored twin must stay in lockstep).
fn churn(session: &mut Session, round: u64) {
    let base = round * 1000;
    let k1 = session.insert(
        Point::new(40.0 + round as f64, 41.0),
        Point::new(41.2 + round as f64, 41.0),
    );
    let _k2 = session.insert(
        Point::new(12.0, 70.0 + (base % 7) as f64),
        Point::new(13.1, 70.0 + (base % 7) as f64),
    );
    session.remove(k1).expect("just inserted");
    // Constant length 1.3, round-dependent position: stays inside the
    // hinted tests' declared (1.0, 2.0) bounds at every round.
    session
        .relocate(
            0,
            Point::new(2.0 + round as f64, 5.0),
            Point::new(3.3 + round as f64, 5.0),
        )
        .expect("seed key 0 is live");
}

/// Capture → restore → the next solve and all subsequent behaviour is
/// identical; shared driver for the per-backend tests.
fn assert_round_trip(mut original: Session) {
    // Capture mid-life, after churn.
    churn(&mut original, 1);
    let state = original.capture_state();
    let mut restored = Session::restore_state(&state).expect("captured state restores");

    assert_eq!(restored.backend_kind(), original.backend_kind());
    assert_eq!(restored.len(), original.len());
    assert_eq!(restored.links(), original.links(), "universe diverged");
    assert_eq!(
        restored.warm_state(),
        original.warm_state(),
        "warm state diverged"
    );

    // The next solve is byte-identical — the tentpole promise.
    assert_eq!(
        restored.solve(),
        original.solve(),
        "restored solve diverged"
    );

    // And the twin stays in lockstep under further identical churn.
    for round in 2..5 {
        churn(&mut original, round);
        churn(&mut restored, round);
        assert_eq!(
            restored.solve(),
            original.solve(),
            "diverged at churn round {round}"
        );
    }

    // Capture is canonical: capture → restore → capture is identity.
    let state2 = original.capture_state();
    let recaptured = Session::restore_state(&state2)
        .expect("re-captured state restores")
        .capture_state();
    assert_eq!(recaptured, state2, "capture is not canonical");
}

#[test]
fn static_backend_round_trips() {
    assert_round_trip(
        Session::builder()
            .backend(Backend::Static)
            .links(&links(40))
            .build(),
    );
}

#[test]
fn engine_backend_round_trips() {
    assert_round_trip(
        Session::builder()
            .backend(Backend::Engine)
            .power_mode(PowerMode::mean_oblivious())
            .links(&links(40))
            .build(),
    );
}

#[test]
fn sharded_rebuild_backend_round_trips() {
    assert_round_trip(
        Session::builder()
            .backend(Backend::Sharded)
            .target_shards(4)
            .links(&links(40))
            .build(),
    );
}

#[test]
fn hinted_sharded_backend_round_trips() {
    assert_round_trip(
        Session::builder()
            .backend(Backend::Sharded)
            .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
            .target_shards(9)
            .links(&links(40))
            .build(),
    );
}

#[test]
fn engine_backend_with_warm_repair_round_trips() {
    let mut session = Session::builder()
        .backend(Backend::Engine)
        .power_mode(PowerMode::mean_oblivious())
        .repair(RepairPolicy::enabled())
        .links(&links(40))
        .build();
    // Anchor the warm state with a cold solve, then dirty some links so the
    // capture carries a live warm schedule *and* unplaced warm entries.
    let cold = session.solve();
    assert_eq!(
        cold.repair.as_ref().expect("repair-enabled").decision,
        RepairDecision::ColdStart
    );
    assert!(session.warm_state().is_some(), "warm state anchored");
    assert_round_trip(session);
}

#[test]
fn hinted_sharded_with_warm_repair_round_trips() {
    let mut session = Session::builder()
        .backend(Backend::Sharded)
        .power_mode(PowerMode::mean_oblivious())
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .target_shards(9)
        .repair(RepairPolicy::enabled())
        .links(&links(40))
        .build();
    let cold = session.solve();
    assert_eq!(
        cold.repair.as_ref().expect("repair-enabled").decision,
        RepairDecision::ColdStart
    );
    // A repaired solve, so the captured warm state carries patched colors.
    churn(&mut session, 0);
    let repaired = session.solve();
    assert_eq!(
        repaired.repair.as_ref().expect("repair-enabled").decision,
        RepairDecision::Repaired
    );
    assert_round_trip(session);
}

#[test]
fn trace_key_bindings_survive_restore() {
    use wagg_engine::{EngineEvent, EngineTrace};
    let mut original = Session::builder().backend(Backend::Engine).build();
    let trace = EngineTrace {
        name: "bind".into(),
        events: vec![
            EngineEvent::Insert {
                key: 7,
                sender: Point::new(0.0, 0.0),
                receiver: Point::new(1.0, 0.0),
                sender_node: None,
                receiver_node: None,
            },
            EngineEvent::Insert {
                key: 9,
                sender: Point::new(30.0, 0.0),
                receiver: Point::new(31.0, 0.0),
                sender_node: None,
                receiver_node: None,
            },
        ],
    };
    original.apply_events(&trace.events).expect("trace applies");
    let mut restored = Session::restore_state(&original.capture_state()).expect("state restores");
    assert_eq!(restored.trace_key(7), original.trace_key(7));
    assert_eq!(restored.trace_key(9), original.trace_key(9));
    // The binding keeps working: removing through the trace key succeeds on
    // both and the sessions stay identical.
    let removal = EngineTrace {
        name: "unbind".into(),
        events: vec![EngineEvent::Remove { key: 7 }],
    };
    original
        .apply_events(&removal.events)
        .expect("bound key removes");
    restored
        .apply_events(&removal.events)
        .expect("bound key removes");
    assert_eq!(restored.solve(), original.solve());
}

#[test]
fn event_counts_survive_restore_on_every_backend() {
    let builders = [
        Session::builder().backend(Backend::Static),
        Session::builder().backend(Backend::Engine),
        Session::builder().backend(Backend::Sharded),
        Session::builder()
            .backend(Backend::Sharded)
            .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0)),
    ];
    for builder in builders {
        let mut original = builder.links(&links(10)).build();
        churn(&mut original, 1);
        let restored = Session::restore_state(&original.capture_state()).expect("restores");
        assert_eq!(
            restored.stats(),
            original.stats(),
            "{}",
            original.backend_kind()
        );
    }
}

#[test]
fn flight_recorder_ring_survives_restore() {
    let config = TelemetryConfig {
        window: 8,
        ..TelemetryConfig::default()
    };
    let flight = FlightRecorder::with_config(config);
    let mut original = Session::builder()
        .backend(Backend::Engine)
        .links(&links(20))
        .flight_recorder(flight.clone())
        .build();
    for round in 1..4 {
        churn(&mut original, round);
        original.solve();
    }
    let state = original.capture_state();
    let restored = Session::restore_state(&state).expect("state restores");
    // The ring replays losslessly — same samples, same sequence numbers,
    // same health machinery state.
    let telemetry = state.telemetry.as_ref().expect("flight-on capture");
    assert_eq!(telemetry.config, config);
    assert_eq!(restored.flight_recorder(), &flight);
    assert_eq!(restored.flight_recorder().samples(), flight.samples());
}

/// One builder per backend of the service differential suite: static,
/// engine with repair, re-tiling sharded on four shards, and hinted sharded
/// with repair (`links`' lengths sit inside the hinted bounds).
fn every_backend() -> Vec<(&'static str, SessionBuilder)> {
    let hinted = Session::builder()
        .backend(Backend::Sharded)
        .target_shards(4)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .repair(RepairPolicy::enabled());
    vec![
        ("static", Session::builder().backend(Backend::Static)),
        (
            "engine",
            Session::builder()
                .backend(Backend::Engine)
                .repair(RepairPolicy::enabled()),
        ),
        (
            "sharded",
            Session::builder()
                .backend(Backend::Sharded)
                .target_shards(4),
        ),
        ("hinted", hinted),
    ]
}

#[test]
fn out_of_range_tau_panics_at_build_with_the_rule_message() {
    // The rule is `PowerMode::check_tau`. Before `build` checked it, a
    // session at τ = 1.5, −0.5 or NaN panicked inside its first solve
    // (`PowerScheme::new`), and one at τ = 0 or 1 solved but could not be
    // snapshotted over the wire.
    for tau in [1.5, -0.5, f64::NAN, 0.0, 1.0] {
        let mode = PowerMode::Oblivious { tau };
        let message = mode.check_tau().expect_err("out of range").to_string();
        for (name, builder) in every_backend() {
            let built = std::panic::catch_unwind(|| {
                builder.power_mode(mode).links(&links(40)).build();
            });
            let payload = built.expect_err("build must panic");
            assert_eq!(
                payload.downcast_ref::<String>(),
                Some(&message),
                "{name}: tau {tau}"
            );
        }
    }
    for (name, builder) in every_backend() {
        let mut session = builder
            .power_mode(PowerMode::Oblivious { tau: 0.25 })
            .links(&links(40))
            .build();
        assert!(session.solve().slots() > 0, "{name}");
    }
}

/// A small captured state to tamper with (engine backend, warm state).
fn captured() -> SessionState {
    let mut session = Session::builder()
        .backend(Backend::Engine)
        .repair(RepairPolicy::enabled())
        .links(&links(12))
        .build();
    session.solve();
    session.capture_state()
}

#[test]
fn links_of_infinite_length_capture_and_restore() {
    // Finite endpoints 2e308 apart: the length overflows to infinity.
    let mut seed = links(70);
    seed.push(Link::new(
        70,
        Point::new(-1e308, 3.0),
        Point::new(1e308, 3.0),
    ));
    assert!(seed[70].length().is_infinite());
    let mut original = Session::builder()
        .backend(Backend::Engine)
        .links(&seed)
        .build();
    original.insert(Point::new(4.0, -1e308), Point::new(4.0, 1e308));
    let state = original.capture_state();
    let restored = std::panic::catch_unwind(|| Session::restore_state(&state));
    let restored = restored
        .expect("restore must not panic")
        .expect("finite coordinates restore");
    assert_eq!(restored.capture_state(), state);
}

#[test]
fn tampered_states_return_typed_errors_not_panics() {
    // Duplicate key.
    let mut dup = captured();
    dup.links[1].key = dup.links[0].key;
    assert!(matches!(
        Session::restore_state(&dup),
        Err(RestoreError::DuplicateKey { .. })
    ));

    // next_key re-minting a live key.
    let mut stale = captured();
    stale.next_key = 3;
    assert!(matches!(
        Session::restore_state(&stale),
        Err(RestoreError::NextKeyTooSmall { .. })
    ));

    // Warm vectors out of lockstep.
    let mut short = captured();
    short
        .warm
        .as_mut()
        .expect("repair-enabled capture")
        .colors
        .pop();
    assert!(matches!(
        Session::restore_state(&short),
        Err(RestoreError::WarmLength { .. })
    ));

    // Impossible warm color.
    let mut loud = captured();
    loud.warm.as_mut().expect("repair-enabled capture").colors[0] = Some(9_999);
    assert!(matches!(
        Session::restore_state(&loud),
        Err(RestoreError::ColorOutOfRange { .. })
    ));

    // Non-finite warm budget.
    let mut nan = captured();
    nan.warm.as_mut().expect("repair-enabled capture").budgets[0] = f64::NAN;
    assert!(matches!(
        Session::restore_state(&nan),
        Err(RestoreError::BudgetNotFinite { pos: 0 })
    ));

    // Baseline past the universe.
    let mut deep = captured();
    deep.warm
        .as_mut()
        .expect("repair-enabled capture")
        .baseline_slots = 9_999;
    assert!(matches!(
        Session::restore_state(&deep),
        Err(RestoreError::BaselineOutOfRange { .. })
    ));

    // Warm state on a backend that keeps none: a static session, and a
    // hinted sharded session whose config lost its hints (without hints a
    // sharded state is a re-tiling one).
    let mut static_warm = Session::builder()
        .backend(Backend::Static)
        .links(&links(12))
        .build()
        .capture_state();
    static_warm.warm = captured().warm;
    assert_eq!(
        Session::restore_state(&static_warm).err(),
        Some(RestoreError::UnexpectedWarmState {
            backend: BackendKind::Static
        })
    );
    let mut hinted = Session::builder()
        .backend(Backend::Sharded)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .repair(RepairPolicy::enabled())
        .links(&links(12))
        .build();
    hinted.solve();
    let mut hinted = hinted.capture_state();
    assert!(hinted.warm.is_some(), "repair-enabled capture");
    hinted.config.partition = None;
    assert_eq!(
        Session::restore_state(&hinted).err(),
        Some(RestoreError::UnexpectedWarmState {
            backend: BackendKind::Sharded
        })
    );

    // Hints that cannot size a tiling must not reach the constructor's
    // assert.
    let mut bad_hints = Session::builder()
        .backend(Backend::Sharded)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .links(&links(12))
        .build()
        .capture_state();
    if let Some(hints) = &mut bad_hints.config.partition {
        hints.length_bounds = (0.0, f64::INFINITY);
    }
    assert!(matches!(
        Session::restore_state(&bad_hints),
        Err(RestoreError::InvalidPartitionHints { .. })
    ));

    // A link outside the declared bounds must not reach the engine's
    // assert either.
    let mut long = Session::builder()
        .backend(Backend::Sharded)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .links(&links(12))
        .build()
        .capture_state();
    long.links[0].link = Link::new(0, Point::new(0.0, 0.0), Point::new(50.0, 0.0));
    assert!(matches!(
        Session::restore_state(&long),
        Err(RestoreError::LengthOutOfBounds { .. })
    ));

    // Nor a link whose sender moved in place (the endpoints are public
    // fields): its cached length still reads 1, inside the bounds, but its
    // endpoints are 5 apart, and the engine asserts on their distance.
    let mut moved = Session::builder()
        .backend(Backend::Sharded)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .repair(RepairPolicy::enabled())
        .links(&links(12))
        .build()
        .capture_state();
    let link = &mut moved.links[0].link;
    link.sender = Point::new(link.receiver.x + 5.0, link.receiver.y);
    assert_eq!(link.length(), 1.0);
    let restored = std::panic::catch_unwind(|| Session::restore_state(&moved).err());
    assert_eq!(
        restored.expect("restore must not panic"),
        Some(RestoreError::LengthOutOfBounds {
            key: moved.links[0].key,
            length: 5.0
        })
    );

    // NaN and infinite endpoints on every backend: the engines assert
    // finite endpoints, and a static solve would place a NaN link in one
    // slot with every other link. The tampered link is the sixth, rebuilt
    // with `Link::new` as a decoder would.
    for (name, builder) in every_backend() {
        let state = builder.links(&links(40)).build().capture_state();
        for (bad, in_sender) in [(f64::NAN, true), (f64::INFINITY, false), (f64::NAN, false)] {
            let mut tampered = state.clone();
            let k = &mut tampered.links[5];
            let (mut sender, mut receiver) = (k.link.sender, k.link.receiver);
            if in_sender {
                sender.x = bad;
            } else {
                receiver.y = bad;
            }
            k.link = Link::new(k.link.id.index(), sender, receiver);
            let key = k.key;
            let restored = std::panic::catch_unwind(|| Session::restore_state(&tampered).err());
            assert_eq!(
                restored.expect("restore must not panic"),
                Some(RestoreError::NonFinite { key }),
                "{name}: {bad} in the {}",
                if in_sender { "sender" } else { "receiver" }
            );
        }
    }

    // An oblivious exponent outside (0, 1), the range the wire decoder
    // accepts, on every backend: `PowerScheme::new` asserts `τ ∈ [0, 1]`
    // wherever powers are priced (a warm state's re-anchor, a solve), and
    // the ends of that range do not decode. The engine and hinted states
    // carry warm state (their sessions solved once).
    for (name, builder) in every_backend() {
        let mut session = builder.links(&links(40)).build();
        session.solve();
        let state = session.capture_state();
        for tau in [1.5, -0.5, f64::NAN, 0.0, 1.0] {
            let mut tampered = state.clone();
            tampered.config.scheduler.mode = PowerMode::Oblivious { tau };
            let restored = std::panic::catch_unwind(|| Session::restore_state(&tampered).err());
            match restored.expect("restore must not panic") {
                Some(RestoreError::InvalidTau { tau: got }) => {
                    assert_eq!(got.to_bits(), tau.to_bits(), "{name}: tau {tau}")
                }
                other => panic!("{name}: tau {tau}: expected InvalidTau, got {other:?}"),
            }
        }
    }

    // A corrupt telemetry log. (`replay` tolerates a malformed *final*
    // line as a truncated tail, so the corruption sits mid-log.)
    let mut garbled = captured();
    garbled.telemetry = Some(TelemetryState {
        config: TelemetryConfig::default(),
        log: "{\"seq\":0,\n{\"seq\":1,\n".into(),
    });
    assert!(matches!(
        Session::restore_state(&garbled),
        Err(RestoreError::Telemetry(_))
    ));

    // Out-of-order keys on a key-ordered universe.
    let mut unsorted = Session::builder()
        .backend(Backend::Static)
        .links(&links(12))
        .build()
        .capture_state();
    unsorted.links.swap(0, 1);
    assert!(matches!(
        Session::restore_state(&unsorted),
        Err(RestoreError::KeyOrder { .. })
    ));

    // And a WarmState built from thin air on a fresh universe still
    // restores when it is structurally consistent.
    let mut synthetic = captured();
    synthetic.warm = Some(WarmState {
        colors: vec![None; synthetic.links.len()],
        budgets: vec![0.0; synthetic.links.len()],
        baseline_slots: 0,
    });
    assert!(Session::restore_state(&synthetic).is_ok());
}

/// Moves `link`'s sender in place, the way a hand-built state can carry it:
/// the endpoints then lie 1.9 apart (inside the hinted bounds), while the
/// cached length keeps its old value.
/// A captured shard count past `MAX_SHARDS` is refused on every backend
/// before a tile is laid out: over a 10⁶-wide hinted extent 2⁴⁰ shards
/// would ask for about 4·10¹⁰ shard engines. Sharded sessions captured at
/// the bound restore and solve as their sources do, the hinted one over an
/// extent that fills the bound with tiles.
#[test]
fn shard_counts_past_the_bound_are_refused_and_the_bound_restores() {
    let wide = BoundingBox::new(0.0, 0.0, 1e6, 1e6);
    for (name, builder) in every_backend() {
        let state = builder.links(&links(40)).build().capture_state();
        for shards in [MAX_SHARDS + 1, 1 << 40, usize::MAX] {
            let mut tampered = state.clone();
            tampered.config.target_shards = shards;
            if let Some(hints) = &mut tampered.config.partition {
                hints.extent = wide;
            }
            let restored = std::panic::catch_unwind(|| Session::restore_state(&tampered).err());
            assert_eq!(
                restored.expect("restore must not panic"),
                Some(RestoreError::TooManyShards { shards }),
                "{name}: {shards} shards"
            );
        }
    }
    let at_bound = [
        Session::builder().backend(Backend::Sharded),
        Session::builder()
            .backend(Backend::Sharded)
            .partition_hints(BoundingBox::new(0.0, 0.0, 1e4, 1e4), (1.0, 2.0))
            .repair(RepairPolicy::enabled()),
    ];
    for builder in at_bound {
        let mut original = builder.target_shards(MAX_SHARDS).links(&links(40)).build();
        original.solve();
        let mut restored =
            Session::restore_state(&original.capture_state()).expect("restores at the bound");
        assert_eq!(restored.solve(), original.solve());
    }
}

fn move_sender_in_place(link: &mut Link) {
    link.sender = Point::new(link.receiver.x - 1.9, link.receiver.y);
}

#[test]
fn restore_measures_each_link_from_its_endpoints() {
    let hinted = Session::builder()
        .backend(Backend::Sharded)
        .target_shards(4)
        .partition_hints(BoundingBox::new(0.0, 0.0, 95.0, 95.0), (1.0, 2.0))
        .repair(RepairPolicy::enabled());
    let backends = [
        ("static", Session::builder().backend(Backend::Static), true),
        ("engine", Session::builder().backend(Backend::Engine), true),
        (
            "engine with repair",
            Session::builder()
                .backend(Backend::Engine)
                .repair(RepairPolicy::enabled()),
            false,
        ),
        ("hinted", hinted, false),
    ];
    for (name, builder, compare_solve) in backends {
        let mut session = builder.clone().links(&links(40)).build();
        session.solve();
        let mut state = session.capture_state();
        move_sender_in_place(&mut state.links[5].link);
        assert!((state.links[5].link.length() - 1.3).abs() < 1e-12, "stale");

        let restored = std::panic::catch_unwind(|| Session::restore_state(&state));
        let mut restored = restored
            .expect("restore must not panic")
            .expect("the moved link is valid geometry");
        let link = restored.links()[5];
        assert_eq!(
            link.length(),
            link.sender.distance(link.receiver),
            "{name}: restored length"
        );
        assert!((link.length() - 1.9).abs() < 1e-12, "{name}");

        // Without warm state the restored session schedules exactly what a
        // session seeded with the moved link schedules.
        if compare_solve {
            let mut moved = links(40);
            move_sender_in_place(&mut moved[5]);
            moved[5] = Link::new(5, moved[5].sender, moved[5].receiver);
            let mut seeded = builder.links(&moved).build();
            assert_eq!(
                restored.solve().schedule(),
                seeded.solve().schedule(),
                "{name}: restored solve"
            );
        }
    }
}
