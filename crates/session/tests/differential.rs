//! The facade differential suite: a [`Session`] with each **explicit**
//! backend is slot-for-slot identical to the lower-level entry point it wraps —
//! not merely "both feasible", but equal reports:
//!
//! * `Backend::Static`  ≡ `wagg_schedule::solve_static`, the from-scratch
//!   kernel,
//! * `Backend::Engine`  ≡ `InterferenceEngine::{with_links, schedule}`,
//!   including after arbitrary churn and mobility traces replayed through
//!   `Session::apply_events` on one side and `wagg_engine::run_trace` on the
//!   other,
//! * `Backend::Sharded` ≡ `wagg_partition::solve_sharded` across
//!   shard counts, and — with partition hints — the session's event routing
//!   reproduces a hand-driven `PartitionedEngine::schedule` exactly, its
//!   warm repairs reporting the occupancy that engine reports.
//!
//! `ci.sh` runs this suite in both the serial and the parallel build.

use proptest::prelude::*;
use wagg_conflict::ConflictRelation;
use wagg_engine::{churn_trace, run_trace, EngineTrace, InterferenceEngine};
use wagg_geometry::{BoundingBox, Point};
use wagg_instances::mobility::{random_waypoint, WaypointConfig};
use wagg_partition::{max_conflict_radius, PartitionedEngine, PartitionedEngineConfig};
use wagg_schedule::{
    BackendKind, PowerMode, Recorder, RepairDecision, SchedulerConfig, SolveReport,
};
use wagg_session::{Backend, RepairPolicy, Session};
use wagg_sinr::{Link, SinrModel};

/// Decodes proptest scalars into a link set with mixed lengths and ids
/// `0..n` (the id layout the session's relabeling preserves).
fn decode_links(raw: &[(f64, f64, f64, f64)]) -> Vec<Link> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y, angle, len))| {
            Link::new(
                i,
                Point::new(x, y),
                Point::new(x + len * angle.cos(), y + len * angle.sin()),
            )
        })
        .collect()
}

fn modes() -> [PowerMode; 3] {
    [
        PowerMode::Uniform,
        PowerMode::mean_oblivious(),
        PowerMode::GlobalControl,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Static backend ≡ the `solve_static` kernel, for every power mode —
    /// the whole report, not just the schedule.
    #[test]
    fn static_backend_reproduces_solve_static(
        raw in proptest::collection::vec(
            (0.0f64..150.0, 0.0f64..150.0, 0.0f64..std::f64::consts::TAU, 0.5f64..5.0),
            5..60,
        )
    ) {
        let links = decode_links(&raw);
        for mode in modes() {
            let config = SchedulerConfig::new(mode);
            let legacy = wagg_schedule::solve_static(&links, config, &Recorder::disabled());
            let mut session = Session::builder()
                .scheduler(config)
                .backend(Backend::Static)
                .links(&links)
                .build();
            let solve = session.solve();
            prop_assert_eq!(solve.backend, BackendKind::Static);
            prop_assert_eq!(&solve.report, &legacy, "{} diverged from solve_static", mode);
        }
    }

    /// Engine backend ≡ the legacy engine path, both bulk-seeded and after a
    /// churn trace replayed through `Session::apply_events` on one side and
    /// the raw `run_trace` on the other.
    #[test]
    fn engine_backend_reproduces_the_engine_path(
        seed in 0u64..5000,
        n in 8usize..50,
        events in 0usize..40,
    ) {
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let trace = churn_trace(n, events, seed);

        let mut legacy = InterferenceEngine::new(config);
        run_trace(&mut legacy, &trace).expect("churn traces are replayable");
        let legacy_report = legacy.schedule();

        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Engine)
            .build();
        session.apply_events(&trace.events).expect("churn traces are replayable");
        let solve = session.solve();
        prop_assert_eq!(solve.backend, BackendKind::Engine);
        prop_assert_eq!(&solve.report, &legacy_report, "engine path diverged after churn");
        prop_assert_eq!(session.links(), legacy.links());
    }

    /// Engine backend ≡ the legacy engine path under node mobility: the
    /// session re-seats each follower of a moved node in its own slot where
    /// `InterferenceEngine::move_node` moves them in one call.
    #[test]
    fn engine_backend_reproduces_the_engine_path_under_mobility(
        seed in 0u64..5000,
        nodes in 4usize..24,
        steps in 1usize..8,
    ) {
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let mobility = random_waypoint(&WaypointConfig {
            nodes,
            side: 40.0,
            speed: 3.0,
            steps,
            seed,
        });
        let trace = EngineTrace::from_mobility(&mobility);

        let mut legacy = InterferenceEngine::new(config);
        run_trace(&mut legacy, &trace).expect("mobility traces are replayable");

        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Engine)
            .build();
        session.apply_events(&trace.events).expect("mobility traces are replayable");
        prop_assert_eq!(&session.solve().report, &legacy.schedule(), "engine path diverged under mobility");
        prop_assert_eq!(session.links(), legacy.links());
    }

    /// Sharded backend ≡ the `solve_sharded` pipeline, across shard counts.
    #[test]
    fn sharded_backend_reproduces_solve_sharded(
        raw in proptest::collection::vec(
            (0.0f64..200.0, 0.0f64..200.0, 0.0f64..std::f64::consts::TAU, 0.5f64..4.0),
            20..80,
        ),
        shards in 1usize..20,
    ) {
        let links = decode_links(&raw);
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let legacy = wagg_partition::solve_sharded(&links, config, shards, &Recorder::disabled());
        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Sharded)
            .target_shards(shards)
            .links(&links)
            .build();
        let solve = session.solve();
        prop_assert_eq!(solve.backend, BackendKind::Sharded);
        prop_assert_eq!(&solve, &legacy, "sharded path diverged at {} shards", shards);
    }
}

/// With partition hints, the session's event routing drives a
/// `PartitionedEngine` — insert/remove/relocate through the session must
/// reproduce a hand-driven engine schedule exactly.
#[test]
fn hinted_sharded_backend_reproduces_partitioned_engine() {
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let extent = BoundingBox::new(0.0, 0.0, 120.0, 120.0);
    let bounds = (1.0, 1.5);

    let mut legacy =
        PartitionedEngine::new(PartitionedEngineConfig::new(config, extent, bounds, 9));
    let mut session = Session::builder()
        .scheduler(config)
        .backend(Backend::Sharded)
        .target_shards(9)
        .partition_hints(extent, bounds)
        .build();
    assert_eq!(session.backend_kind(), BackendKind::Sharded);

    // The same event script against both: inserts across tiles, a
    // relocation dragging a link across a tile boundary, removals.
    let geometries: Vec<(Point, Point)> = (0..60)
        .map(|i| {
            let x = (i % 8) as f64 * 14.0 + 2.0;
            let y = (i / 8) as f64 * 14.0 + 2.0;
            (Point::new(x, y), Point::new(x + 1.2, y))
        })
        .collect();
    let mut legacy_keys = Vec::new();
    let mut session_keys = Vec::new();
    for &(s, r) in &geometries {
        legacy_keys.push(legacy.insert_link(s, r));
        session_keys.push(session.insert(s, r));
    }
    for idx in [3usize, 17, 40] {
        legacy.remove_link(legacy_keys[idx]).unwrap();
        session.remove(session_keys[idx]).unwrap();
    }
    let (s, r) = (Point::new(110.0, 110.0), Point::new(111.3, 110.0));
    legacy.relocate_link(legacy_keys[5], s, r).unwrap();
    session.relocate(session_keys[5], s, r).unwrap();

    let (legacy_report, _) = legacy.schedule();
    let solve = session.solve();
    assert_eq!(
        solve, legacy_report,
        "hinted sharded session diverged from PartitionedEngine"
    );
    assert_eq!(session.links(), legacy.links());
}

/// A hinted repair session whose relocations pile links into one tile
/// reports, on every warm solve, the occupancy `PartitionedEngine::schedule`
/// reports for the same links — the placement after the events, not the
/// last full recolor's.
#[test]
fn hinted_repairs_report_the_current_occupancy() {
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let extent = BoundingBox::new(0.0, 0.0, 120.0, 120.0);
    let bounds = (1.0, 1.5);
    let pconfig = PartitionedEngineConfig::new(config, extent, bounds, 9);
    let links: Vec<Link> = (0..60)
        .map(|i| {
            let x = (i % 8) as f64 * 14.0 + 2.0;
            let y = (i / 8) as f64 * 14.0 + 2.0;
            Link::new(i, Point::new(x, y), Point::new(x + 1.2, y))
        })
        .collect();
    let mut session = Session::builder()
        .scheduler(config)
        .backend(Backend::Sharded)
        .target_shards(9)
        .partition_hints(extent, bounds)
        .repair(RepairPolicy::enabled().with_max_drift(1.0))
        .links(&links)
        .build();
    let occupancy = |solve: &SolveReport| {
        let s = solve.sharding.expect("sharded provenance");
        (s.max_owned, s.mean_owned, s.ghost_fraction)
    };
    let cold = occupancy(&session.solve());
    let mut last = cold;
    // The last 20 seeded links (all outside the corner tile) move, one per
    // solve, onto a 5 × 4 lattice inside it.
    for j in 0..20u64 {
        let (x, y) = (5.5 + (j % 5) as f64 * 7.0, 6.0 + (j / 5) as f64 * 7.0);
        session
            .relocate(59 - j, Point::new(x, y), Point::new(x + 1.2, y))
            .expect("seeded key is live");
        let solve = session.solve();
        let decision = solve.repair.expect("repair-enabled").decision;
        assert_eq!(decision, RepairDecision::Repaired, "move {j}");
        let (reference, _) = PartitionedEngine::with_links(pconfig, &session.links()).schedule();
        last = occupancy(&solve);
        assert_eq!(last, occupancy(&reference), "move {j}");
    }
    assert!(
        last.0 > cold.0,
        "the corner tile filled: {cold:?} → {last:?}"
    );
}

/// The static parity holds under a noisy model too (the code path where the
/// shared probe cache is bypassed).
#[test]
fn static_backend_matches_legacy_under_noise() {
    let links: Vec<Link> = (0..30)
        .map(|i| {
            let x = (i % 6) as f64 * 9.0;
            let y = (i / 6) as f64 * 9.0;
            Link::new(
                i,
                Point::new(x, y),
                Point::new(x + 1.0 + 0.05 * i as f64, y),
            )
        })
        .collect();
    let model = SinrModel::new(3.0, 1.0, 1e-9).expect("valid model");
    for mode in modes() {
        let config = SchedulerConfig::new(mode).with_model(model);
        let legacy = wagg_schedule::solve_static(&links, config, &Recorder::disabled());
        let solve = Session::builder()
            .scheduler(config)
            .backend(Backend::Static)
            .links(&links)
            .build()
            .solve();
        assert_eq!(solve.report, legacy, "{mode} diverged under noise");
    }
}

/// `Backend::Auto` resolves sharded at scale: seeding a session past the
/// threshold yields the sharded backend (and its report carries sharding
/// provenance), without solving the instance — selection is a property of
/// the universe, not the solve.
#[test]
fn auto_builds_the_sharded_backend_past_the_threshold() {
    // A cheap synthetic universe at exactly the threshold: the builder only
    // seeds the backend's link map, so this stays fast.
    let n = wagg_session::AUTO_SHARDED_THRESHOLD;
    let side = (n as f64).sqrt().ceil() as usize;
    let links: Vec<Link> = (0..n)
        .map(|i| {
            let x = (i % side) as f64 * 4.0;
            let y = (i / side) as f64 * 4.0;
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();
    let session = Session::builder().links(&links).build();
    assert_eq!(session.backend_kind(), BackendKind::Sharded);
    assert_eq!(session.config().effective_shards(), 16);

    // One link below: static.
    let session = Session::builder().links(&links[..n - 1]).build();
    assert_eq!(session.backend_kind(), BackendKind::Static);

    // Churn expectation below the threshold: engine.
    let session = Session::builder()
        .expect_churn(true)
        .links(&links[..100])
        .build();
    assert_eq!(session.backend_kind(), BackendKind::Engine);
}

#[test]
fn sharded_solves_keep_links_of_infinite_length_as_singletons() {
    // 400 unit links on a lattice and one whose finite endpoints are 2e308
    // apart: its length overflows to infinity, so it has no length class.
    // The tiling's radius ignores it, and the sharded paths split it off as
    // a singleton slot like a zero-length link.
    let mut links: Vec<Link> = (0..400)
        .map(|i| {
            let (x, y) = ((i % 20) as f64 * 3.0, (i / 20) as f64 * 3.0);
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();
    links.push(Link::new(
        400,
        Point::new(-1e308, 5.0),
        Point::new(1e308, 5.0),
    ));
    assert!(links[400].length().is_infinite());
    for (relation, mode) in [
        (ConflictRelation::unit_constant(), PowerMode::Uniform),
        (
            ConflictRelation::oblivious_default(),
            PowerMode::mean_oblivious(),
        ),
    ] {
        let radius = max_conflict_radius(&links, relation);
        assert!(radius.is_finite(), "{relation}: radius {radius}");
        let config = SchedulerConfig::new(mode);
        let legacy = wagg_partition::solve_sharded(&links, config, 16, &Recorder::disabled());
        assert!(legacy.report.schedule.is_partition(links.len()), "{mode}");
        assert!(
            legacy.report.schedule.slots().contains(&vec![400]),
            "{mode}"
        );
        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Sharded)
            .target_shards(16)
            .links(&links)
            .build();
        assert_eq!(session.solve(), legacy, "{mode}");
    }
}
