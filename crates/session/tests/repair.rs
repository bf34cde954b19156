//! The warm-start repair differential suite: a [`Session`] with
//! [`RepairPolicy::enabled`] must stay **correct** under arbitrary churn and
//! mobility — every repaired schedule is a partition of the live universe
//! and affectance-feasible under the session's power mode — while a session
//! with repair disabled stays slot-for-slot identical to the legacy
//! from-scratch paths:
//!
//! * engine backend + churn traces: solve between event batches, every
//!   report feasible; `Repaired` decisions never drift past the watermark,
//! * engine backend + random-waypoint mobility: same invariants when the
//!   events are `MoveNode` re-seatings instead of churn,
//! * a forced watermark breach (`max_drift == 0`) provably falls back to the
//!   full recolor: the report equals the legacy engine schedule bit for bit,
//! * repair disabled ≡ the legacy engine path (and `repair` stays `None`),
//! * the static backend has no incremental state: repair requests are tagged
//!   `Unsupported` and the schedule is unchanged,
//! * the hinted sharded backend repairs in place through
//!   insert/remove/relocate/move_node scripts and stays feasible.
//!
//! The **warm-state invariant suite** rides on every committed solve above
//! (`assert_warm_matches_capture`): the incrementally patched warm state
//! must equal a from-scratch capture of the committed schedule — colors
//! bit for bit, vectors in lockstep with the live universe (the
//! stale-budget-leak regression), and, for additive configs, every stored
//! budget bounding the exact in-slot affectance from above while staying
//! within the admission threshold. Dedicated tests cover the insert/remove
//! storm (leak regression) and re-seat id/annotation preservation.
//!
//! `ci.sh` runs this suite in both the serial and the parallel build.

use proptest::prelude::*;
use wagg_engine::{churn_trace, run_trace, EngineConfig, EngineTrace, InterferenceEngine};
use wagg_geometry::{BoundingBox, Point};
use wagg_instances::mobility::{random_waypoint, WaypointConfig};
use wagg_partition::{PartitionedEngine, PartitionedEngineConfig, VerifierStrategy};
use wagg_schedule::{
    capture_budgets, BackendKind, PowerMode, RepairDecision, SchedulerConfig, SolveReport,
};
use wagg_session::{Backend, RepairPolicy, Session};
use wagg_sinr::{Link, PathLossCache};

fn modes() -> [PowerMode; 3] {
    [
        PowerMode::Uniform,
        PowerMode::mean_oblivious(),
        PowerMode::GlobalControl,
    ]
}

/// A tiny deterministic generator for event scripts (seed must be nonzero).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Position → slot map of a committed solve's schedule: the from-scratch
/// capture ground truth the incrementally patched warm state must equal.
fn colors_of(solve: &SolveReport, n: usize) -> Vec<Option<usize>> {
    let mut colors = vec![None; n];
    for (t, slot) in solve.schedule().slots().iter().enumerate() {
        for &i in slot {
            colors[i] = Some(t);
        }
    }
    colors
}

/// Asserts the incremental warm-state contract after a committed solve: the
/// patched colors equal the capture ground truth (the committed schedule),
/// the color and budget vectors stay in lockstep with the live universe
/// (the stale-budget-leak regression), and — for additive configs — every
/// stored budget upper-bounds the exact in-slot affectance while staying
/// within the admission threshold.
fn assert_warm_matches_capture(
    session: &Session,
    solve: &SolveReport,
    config: SchedulerConfig,
    context: &str,
) {
    let Some(warm) = session.warm_state() else {
        return; // backend keeps no warm state (static / rebuild-mode sharded)
    };
    let links = session.links();
    assert_eq!(
        warm.colors.len(),
        links.len(),
        "{context}: warm colors out of lockstep with the live universe"
    );
    assert_eq!(
        warm.budgets.len(),
        links.len(),
        "{context}: warm budgets out of lockstep with the live universe"
    );
    assert_eq!(
        warm.colors,
        colors_of(solve, links.len()),
        "{context}: patched warm colors diverge from the capture ground truth"
    );
    if config.model.noise() == 0.0 {
        if let Some(assignment) = config.mode.assignment() {
            let priced = PathLossCache::new(&config.model, &links, &assignment).priced();
            let exact = capture_budgets(&config.model, &priced, &warm.colors);
            let threshold = 1.0 / config.model.beta();
            for (i, (&stored, &e)) in warm.budgets.iter().zip(&exact).enumerate() {
                assert!(
                    e <= stored + 1e-9,
                    "{context}: stored budget {stored} under exact affectance {e} at vertex {i}"
                );
                assert!(
                    stored <= threshold + 1e-9,
                    "{context}: stored budget {stored} past threshold {threshold} at vertex {i}"
                );
            }
        }
    }
}

/// Asserts the full repair contract on one solve: the schedule partitions
/// the session's universe, every slot is feasible under the configured power
/// mode, a `Repaired` decision honoured the drift watermark, and the
/// incrementally patched warm state equals the capture ground truth.
fn assert_repaired_feasible(session: &mut Session, config: SchedulerConfig, context: &str) {
    let solve = session.solve();
    let links = session.links();
    let repair = solve
        .repair
        .expect("repair-enabled engine solves carry repair stats");
    assert!(
        solve.schedule().is_partition(links.len()),
        "{context}: repaired schedule is not a partition of {} links",
        links.len()
    );
    assert!(
        solve.schedule().verify(&links, &config.model, config.mode),
        "{context}: repaired schedule infeasible under {}",
        config.mode
    );
    if repair.decision == RepairDecision::Repaired {
        assert!(
            repair.drift <= repair.watermark,
            "{context}: Repaired decision with drift {} past watermark {}",
            repair.drift,
            repair.watermark
        );
    }
    assert_warm_matches_capture(session, &solve, config, context);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine backend + repair: solving between churn batches yields a
    /// feasible partition every time, for every power mode.
    #[test]
    fn repaired_schedules_stay_feasible_under_churn(
        seed in 0u64..5000,
        n in 8usize..40,
        events in 4usize..40,
        batch in 1usize..9,
    ) {
        let trace = churn_trace(n, events, seed);
        for mode in modes() {
            let config = SchedulerConfig::new(mode);
            let mut session = Session::builder()
                .scheduler(config)
                .backend(Backend::Engine)
                .repair(RepairPolicy::enabled())
                .build();
            for chunk in trace.events.chunks(batch) {
                session.apply_events(chunk).expect("churn traces are replayable");
                assert_repaired_feasible(&mut session, config, &format!("churn under {mode}"));
            }
        }
    }

    /// Engine backend + repair under random-waypoint mobility: `MoveNode`
    /// events re-seat links in place; the repaired schedules stay feasible.
    #[test]
    fn repaired_schedules_stay_feasible_under_mobility(
        seed in 0u64..5000,
        nodes in 4usize..16,
        steps in 1usize..6,
    ) {
        let trace = EngineTrace::from_mobility(&random_waypoint(&WaypointConfig {
            nodes,
            side: 40.0,
            speed: 3.0,
            steps,
            seed,
        }));
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Engine)
            .repair(RepairPolicy::enabled())
            .build();
        // Seed the chained links, then solve between mobility steps.
        let prefix = trace
            .events
            .iter()
            .position(|e| matches!(e, wagg_engine::EngineEvent::MoveNode { .. }))
            .unwrap_or(trace.events.len());
        session.apply_events(&trace.events[..prefix]).expect("inserts are replayable");
        assert_repaired_feasible(&mut session, config, "mobility cold start");
        for chunk in trace.events[prefix..].chunks(nodes.max(1)) {
            session.apply_events(chunk).expect("moves are replayable");
            assert_repaired_feasible(&mut session, config, "mobility step");
        }
    }

    /// The tentpole's correctness property on the hinted sharded backend:
    /// arbitrary event scripts (insert / remove / relocate / move_node, all
    /// power modes, varying batch sizes) keep every committed solve feasible
    /// and the incrementally patched warm state equal to the capture ground
    /// truth — including the additive budget contract through the certified
    /// verifier's stored budgets.
    #[test]
    fn sharded_warm_state_survives_arbitrary_scripts(
        seed in 1u64..5000,
        events in 4usize..32,
        batch in 1usize..7,
    ) {
        for mode in modes() {
            let config = SchedulerConfig::new(mode);
            let mut session = Session::builder()
                .scheduler(config)
                .backend(Backend::Sharded)
                .target_shards(9)
                .partition_hints(BoundingBox::new(0.0, 0.0, 120.0, 120.0), (1.0, 1.5))
                .repair(RepairPolicy::enabled())
                .build();
            let mut rng = seed;
            let place = |rng: &mut u64| {
                let x = (xorshift(rng) % 1080) as f64 / 10.0 + 2.0;
                let y = (xorshift(rng) % 1080) as f64 / 10.0 + 2.0;
                (Point::new(x, y), Point::new(x + 1.2, y))
            };
            let mut keys: Vec<u64> = Vec::new();
            for _ in 0..12 {
                let (s, r) = place(&mut rng);
                keys.push(session.insert(s, r));
            }
            for i in 0..events {
                match xorshift(&mut rng) % 4 {
                    0 => {
                        let (s, r) = place(&mut rng);
                        keys.push(session.insert(s, r));
                    }
                    1 if keys.len() > 4 => {
                        let idx = (xorshift(&mut rng) as usize) % keys.len();
                        session.remove(keys.swap_remove(idx)).expect("script keys are live");
                    }
                    2 => {
                        let idx = (xorshift(&mut rng) as usize) % keys.len();
                        let (s, r) = place(&mut rng);
                        session.relocate(keys[idx], s, r).expect("script keys are live");
                    }
                    _ => {
                        // An annotated arrival, then its node drags the link
                        // to a new seat (length stays inside the hints).
                        let (s, r) = place(&mut rng);
                        keys.push(session.insert_with_nodes(
                            s,
                            r,
                            wagg_sinr::NodeId(i),
                            wagg_sinr::NodeId(i + 10_000),
                        ));
                        session.move_node(i, Point::new(r.x - 1.2, r.y + 0.3));
                    }
                }
                if (i + 1) % batch == 0 {
                    assert_repaired_feasible(
                        &mut session,
                        config,
                        &format!("sharded script under {mode}"),
                    );
                }
            }
            assert_repaired_feasible(&mut session, config, &format!("sharded script end under {mode}"));
        }
    }

    /// Repair disabled is the status quo: after any churn trace the session
    /// report equals the legacy engine path exactly and carries no repair
    /// provenance.
    #[test]
    fn disabled_repair_is_slot_for_slot_the_legacy_path(
        seed in 0u64..5000,
        n in 8usize..40,
        events in 0usize..30,
    ) {
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let trace = churn_trace(n, events, seed);

        let mut legacy = InterferenceEngine::new(EngineConfig::for_scheduler(config));
        run_trace(&mut legacy, &trace).expect("churn traces are replayable");
        let legacy_report = legacy.schedule();

        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Engine)
            .repair(RepairPolicy::default()) // explicit: disabled
            .build();
        session.apply_events(&trace.events).expect("churn traces are replayable");
        let solve = session.solve();
        prop_assert_eq!(solve.repair, None, "disabled repair must not tag reports");
        prop_assert_eq!(&solve.report, &legacy_report, "disabled repair diverged");
    }
}

/// A zero-tolerance watermark provably falls back: the inflating repair is
/// rejected and the committed report equals the from-scratch schedule bit
/// for bit, on both repair-capable backends. The breaching repair already
/// edited the warm state in place, so the re-anchored warm state must match
/// a capture of the fallback — and keep matching through the next repair.
#[test]
fn watermark_breach_falls_back_to_the_full_recolor() {
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let extent = BoundingBox::new(-10.0, -10.0, 70.0, 70.0);
    let bounds = (0.5, 2.0);
    let policy = RepairPolicy::enabled().with_max_drift(0.0);
    let engine = Session::builder()
        .scheduler(config)
        .backend(Backend::Engine)
        .repair(policy)
        .build();
    let sharded = Session::builder()
        .scheduler(config)
        .backend(Backend::Sharded)
        .target_shards(4)
        .partition_hints(extent, bounds)
        .repair(policy)
        .build();

    // Two far-apart unit links share one slot: the warm baseline.
    let a = (Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    let c = (Point::new(60.0, 0.0), Point::new(61.0, 0.0));
    // A link parked on top of `a`'s receiver cannot join slot 0; the repair
    // would open a second slot — drift 1.0 > 0.0 — so it must be rejected.
    let b = (Point::new(0.9, 0.05), Point::new(1.9, 0.05));
    for mut session in [engine, sharded] {
        let kind = session.backend_kind();
        session.insert(a.0, a.1);
        session.insert(c.0, c.1);
        let cold = session.solve();
        let cold_stats = cold.repair.expect("repair solves carry stats");
        assert_eq!(cold_stats.decision, RepairDecision::ColdStart, "{kind}");
        assert_eq!(cold.slots(), 1, "{kind}: far links must share a slot");

        session.insert(b.0, b.1);
        let solve = session.solve();
        let stats = solve.repair.expect("repair solves carry stats");
        assert_eq!(stats.decision, RepairDecision::WatermarkBreach, "{kind}");
        assert!(
            stats.drift > 0.0,
            "{kind}: the rejected repair's measured drift is recorded, got {}",
            stats.drift
        );
        let reference = match kind {
            BackendKind::Engine => {
                let mut legacy = InterferenceEngine::new(EngineConfig::for_scheduler(config));
                for &(s, r) in &[a, c, b] {
                    legacy.insert(Link::new(0, s, r));
                }
                legacy.schedule()
            }
            _ => {
                let mut legacy = PartitionedEngine::new(
                    PartitionedEngineConfig::new(config, extent, bounds, 4)
                        .with_verifier(VerifierStrategy::default()),
                );
                for &(s, r) in &[a, c, b] {
                    legacy.insert_link(s, r);
                }
                legacy.schedule().report
            }
        };
        assert_eq!(
            solve.report, reference,
            "{kind}: breach fallback diverged from the from-scratch schedule"
        );
        assert_warm_matches_capture(&session, &solve, config, "after the breach");

        // A far arrival fits an existing slot: a plain repair on top of the
        // re-anchored warm state.
        session.insert(Point::new(30.0, 40.0), Point::new(31.0, 40.0));
        let solve = session.solve();
        let stats = solve.repair.expect("repair solves carry stats");
        assert_eq!(stats.decision, RepairDecision::Repaired, "{kind}");
        assert_warm_matches_capture(&session, &solve, config, "repair after the breach");
    }
}

/// The static backend keeps no incremental state: asking it to repair is
/// tagged `Unsupported` and the schedule is exactly the from-scratch one.
#[test]
fn static_backend_repair_is_tagged_unsupported() {
    let links: Vec<Link> = (0..24)
        .map(|i| {
            let x = (i % 6) as f64 * 7.0;
            let y = (i / 6) as f64 * 7.0;
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let mut plain = Session::builder()
        .scheduler(config)
        .backend(Backend::Static)
        .links(&links)
        .build();
    let mut repairing = Session::builder()
        .scheduler(config)
        .backend(Backend::Static)
        .repair(RepairPolicy::enabled())
        .links(&links)
        .build();

    let baseline = plain.solve();
    assert_eq!(baseline.repair, None);
    let solve = repairing.solve();
    let stats = solve.repair.expect("repair-enabled solves are tagged");
    assert_eq!(stats.decision, RepairDecision::Unsupported);
    assert_eq!(stats.replaced_links, links.len());
    assert_eq!(
        solve.report, baseline.report,
        "Unsupported repair must not change the schedule"
    );
}

/// The hinted sharded backend repairs through the full event vocabulary —
/// insert, remove, relocate, move_node — staying a feasible partition with
/// sharding provenance intact.
#[test]
fn hinted_sharded_repair_survives_event_scripts() {
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let extent = BoundingBox::new(0.0, 0.0, 120.0, 120.0);
    let mut session = Session::builder()
        .scheduler(config)
        .backend(Backend::Sharded)
        .target_shards(9)
        .partition_hints(extent, (1.0, 1.5))
        .repair(RepairPolicy::enabled())
        .build();
    assert_eq!(session.backend_kind(), BackendKind::Sharded);

    let mut keys = Vec::new();
    for i in 0..60usize {
        let x = (i % 8) as f64 * 14.0 + 2.0;
        let y = (i / 8) as f64 * 14.0 + 2.0;
        let (s, r) = (Point::new(x, y), Point::new(x + 1.2, y));
        keys.push(if i % 5 == 0 {
            session.insert_with_nodes(s, r, wagg_sinr::NodeId(i), wagg_sinr::NodeId(i + 1000))
        } else {
            session.insert(s, r)
        });
    }
    let cold = session.solve();
    let cold_stats = cold.repair.expect("sharded repair solves carry stats");
    assert_eq!(cold_stats.decision, RepairDecision::ColdStart);
    assert!(cold.sharding.is_some(), "sharding provenance must survive");

    // Departures, a cross-tile relocation, fresh arrivals, and a node move
    // dragging its annotated links — then repair.
    for idx in [3usize, 17, 40] {
        session.remove(keys[idx]).unwrap();
    }
    session
        .relocate(keys[6], Point::new(110.0, 110.0), Point::new(111.3, 110.0))
        .unwrap();
    for i in 0..4usize {
        let x = 50.0 + 3.0 * i as f64;
        session.insert(Point::new(x, 61.0), Point::new(x + 1.1, 61.0));
    }
    // Node 10 anchors link 10's sender at (30, 16) → (31.2, 16); nudge it so
    // the re-seated link stays inside the partition's (1.0, 1.5) bounds.
    let touched = session.move_node(10, Point::new(30.5, 16.9));
    assert!(touched > 0, "node 10 annotates a live link");

    let solve = session.solve();
    let stats = solve.repair.expect("sharded repair solves carry stats");
    assert!(
        matches!(
            stats.decision,
            RepairDecision::Repaired | RepairDecision::WatermarkBreach
        ),
        "warm sharded solve must repair or provably fall back, got {:?}",
        stats.decision
    );
    let links = session.links();
    assert!(solve.schedule().is_partition(links.len()));
    assert!(
        solve.schedule().verify(&links, &config.model, config.mode),
        "repaired sharded schedule infeasible"
    );
    let sharding = solve.sharding.expect("sharding provenance must survive");
    assert_eq!(sharding.shards, 9);
    assert_warm_matches_capture(&session, &solve, config, "sharded event script");
}

/// The stale-warm-budget-leak regression (the bug this PR fixes): a long
/// insert/remove storm with solves in between must leave exactly one warm
/// color and one warm budget per live link, on both repair-capable
/// backends — under the old keyed warm maps, `remove` purged the color but
/// left the budget entry behind forever.
#[test]
fn warm_state_stays_in_lockstep_through_an_insert_remove_storm() {
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let engine = Session::builder()
        .scheduler(config)
        .backend(Backend::Engine)
        .repair(RepairPolicy::enabled())
        .build();
    let sharded = Session::builder()
        .scheduler(config)
        .backend(Backend::Sharded)
        .target_shards(4)
        .partition_hints(BoundingBox::new(0.0, 0.0, 80.0, 80.0), (1.0, 1.5))
        .repair(RepairPolicy::enabled())
        .build();
    let place = |i: usize| {
        let x = (i % 9) as f64 * 8.0 + 2.0;
        let y = ((i / 9) % 9) as f64 * 8.0 + 2.0 + (i / 81) as f64 * 0.37;
        (Point::new(x, y), Point::new(x + 1.2, y))
    };
    for (label, mut session) in [("engine", engine), ("sharded", sharded)] {
        let mut keys = std::collections::VecDeque::new();
        let mut minted = 0usize;
        for round in 0..30usize {
            for _ in 0..3 {
                let (s, r) = place(minted);
                keys.push_back(session.insert(s, r));
                minted += 1;
            }
            if round % 2 == 1 {
                for _ in 0..4 {
                    let key = keys.pop_front().expect("inserts outpace removals");
                    session.remove(key).expect("storm keys are live");
                }
            }
            session.solve();
            let warm = session
                .warm_state()
                .expect("repair-enabled solves leave warm state");
            let live = session.links().len();
            assert_eq!(
                warm.colors.len(),
                live,
                "{label}: warm colors leaked at round {round}"
            );
            assert_eq!(
                warm.budgets.len(),
                live,
                "{label}: warm budgets leaked at round {round}"
            );
        }
        assert_eq!(session.links().len(), 30, "{label}: storm bookkeeping");
    }
}

/// FNV-1a over a stream of words: the pin's digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The pinned script: 150 pairs of unit links on a 3-unit grid, each pair
/// sharing its receiver node, then 60 batches of one to three events —
/// arrivals, departures from mid-positions, relocations and node moves —
/// each followed by a warm solve. Returns the digest of every report's slot
/// lists and repair stats, then of the final warm colors.
fn pinned_script_digest(session: Session) -> (u64, Vec<RepairDecision>) {
    const PAIRS: usize = 150;
    const RECEIVER_NODES: usize = 10_000;
    let mut session = session;
    let mut geometry: std::collections::BTreeMap<u64, (Point, Point)> = Default::default();
    for j in 0..PAIRS {
        let r = Point::new((j % 15) as f64 * 3.0, (j / 15) as f64 * 3.0);
        for (k, s) in [Point::new(r.x + 1.0, r.y), Point::new(r.x, r.y + 1.0)]
            .into_iter()
            .enumerate()
        {
            let key = session.insert_with_nodes(
                s,
                r,
                wagg_sinr::NodeId(2 * j + k),
                wagg_sinr::NodeId(RECEIVER_NODES + j),
            );
            geometry.insert(key, (s, r));
        }
    }
    let mut rng = 0x5eed_2026u64;
    let mut next = |bound: usize| (xorshift(&mut rng) % bound as u64) as usize;
    let mut digest = Digest::new();
    let mut decisions = Vec::new();
    for _ in 0..60 {
        for _ in 0..1 + next(3) {
            let keys: Vec<u64> = geometry.keys().copied().collect();
            match next(4) {
                0 => {
                    let key = keys[next(keys.len())];
                    let (s, r) = geometry[&key];
                    let dx = (next(41) as f64 - 20.0) / 100.0;
                    let dy = (next(41) as f64 - 20.0) / 100.0;
                    let to = (
                        Point::new(s.x + dx, s.y + dy),
                        Point::new(r.x + dx, r.y + dy),
                    );
                    session.relocate(key, to.0, to.1).unwrap();
                    geometry.insert(key, to);
                }
                1 => {
                    let s = Point::new(next(450) as f64 / 10.0, next(300) as f64 / 10.0);
                    let r = Point::new(s.x + 0.8, s.y + 0.6);
                    let key = session.insert(s, r);
                    geometry.insert(key, (s, r));
                }
                2 => {
                    // Never the last key: departures shift later positions.
                    let key = keys[next(keys.len() - 1)];
                    session.remove(key).unwrap();
                    geometry.remove(&key);
                }
                _ => {
                    // Drag a pair's shared receiver node a little when every
                    // live follower keeps a length inside the hints.
                    let j = next(PAIRS);
                    let members: Vec<u64> = [2 * j as u64, 2 * j as u64 + 1]
                        .into_iter()
                        .filter(|k| geometry.contains_key(k))
                        .collect();
                    let Some(&first) = members.first() else {
                        continue;
                    };
                    let r = geometry[&first].1;
                    let dx = (next(41) as f64 - 20.0) / 100.0;
                    let dy = (next(41) as f64 - 20.0) / 100.0;
                    let to = Point::new(r.x + dx, r.y + dy);
                    let fits = members.iter().all(|k| {
                        let d = geometry[k].0.distance(to);
                        (0.5..=2.0).contains(&d)
                    });
                    if fits {
                        assert_eq!(session.move_node(RECEIVER_NODES + j, to), members.len());
                        for k in &members {
                            geometry.get_mut(k).unwrap().1 = to;
                        }
                    }
                }
            }
        }
        let solve = session.solve();
        let slots = solve.schedule().slots();
        digest.word(slots.len() as u64);
        for slot in slots {
            digest.word(slot.len() as u64);
            for &m in slot {
                digest.word(m as u64);
            }
        }
        let stats = solve.repair.expect("repair-enabled solves carry stats");
        decisions.push(stats.decision);
        for w in [
            stats.decision as u64,
            stats.dirty_links as u64,
            stats.replaced_links as u64,
            stats.baseline_slots as u64,
            stats.drift.to_bits(),
            stats.watermark.to_bits(),
        ] {
            digest.word(w);
        }
    }
    let warm = session.warm_state().expect("anchored by the first solve");
    for &color in &warm.colors {
        digest.word(color.map_or(u64::MAX, |c| c as u64));
    }
    (digest.0, decisions)
}

/// Warm repair pinned end to end: one seeded script of arrivals, departures,
/// relocations and node moves on the engine and the hinted sharded backend,
/// under uniform and oblivious `P_½` power. The digests of every report's
/// slot lists and repair stats and of the final warm colors are constants,
/// so any change to a verdict, a first-fit order, a budget decision or a
/// report's member order shows here.
#[test]
fn warm_repair_is_pinned_on_a_seeded_script() {
    let cases = [
        (
            Backend::Engine,
            PowerMode::Uniform,
            0xac62_80e0_522c_01c2u64,
        ),
        (
            Backend::Engine,
            PowerMode::mean_oblivious(),
            0x5b6a_d7e5_9c52_9a30,
        ),
        (Backend::Sharded, PowerMode::Uniform, 0xcdad_4a07_9a67_41df),
        (
            Backend::Sharded,
            PowerMode::mean_oblivious(),
            0xc222_40f6_c003_4180,
        ),
    ];
    for (backend, mode, want) in cases {
        let mut builder = Session::builder()
            .scheduler(SchedulerConfig::new(mode))
            .backend(backend)
            .repair(RepairPolicy::enabled().with_max_drift(0.1));
        if backend == Backend::Sharded {
            builder = builder
                .target_shards(4)
                .partition_hints(BoundingBox::new(-5.0, -5.0, 50.0, 35.0), (0.5, 2.0));
        }
        let (digest, decisions) = pinned_script_digest(builder.build());
        let count = |d: RepairDecision| decisions.iter().filter(|&&x| x == d).count();
        assert_eq!(
            digest,
            want,
            "{backend:?} under {mode}: warm repair moved (digest {digest:#018x}; \
             {} repaired, {} watermark breaches)",
            count(RepairDecision::Repaired),
            count(RepairDecision::WatermarkBreach)
        );
    }
}

/// Moved-link reconstruction is shared (`re_seat`) and the sharded mirror
/// is collected once at event time and maintained in place: after relocates
/// and node moves, `links()` still exposes contiguous position ids and
/// intact node annotations on every backend (the sharded engine arms used
/// to rebuild moved links as `Link::new(0, ..)`, dropping the id).
#[test]
fn re_seated_links_keep_ids_and_annotations_on_every_backend() {
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    for backend in [Backend::Static, Backend::Engine, Backend::Sharded] {
        let mut builder = Session::builder()
            .scheduler(config)
            .backend(backend)
            .repair(RepairPolicy::enabled());
        if backend == Backend::Sharded {
            builder = builder
                .target_shards(4)
                .partition_hints(BoundingBox::new(0.0, 0.0, 80.0, 80.0), (1.0, 1.5));
        }
        let mut session = builder.build();
        let mut keys = Vec::new();
        for i in 0..10usize {
            let x = (i % 5) as f64 * 12.0 + 2.0;
            let y = (i / 5) as f64 * 12.0 + 2.0;
            let (s, r) = (Point::new(x, y), Point::new(x + 1.2, y));
            keys.push(if i % 3 == 0 {
                session.insert_with_nodes(s, r, wagg_sinr::NodeId(i), wagg_sinr::NodeId(i + 100))
            } else {
                session.insert(s, r)
            });
        }
        session.solve();
        session
            .relocate(keys[4], Point::new(40.0, 40.0), Point::new(41.2, 40.0))
            .expect("key 4 is live");
        // Node 3 anchors link 3's sender at (38, 2) → (39.2, 2); the nudge
        // keeps the re-seated length inside the sharded hints.
        let moved = session.move_node(3, Point::new(38.0, 2.3));
        assert_eq!(moved, 1, "{backend:?}: node 3 annotates exactly one link");
        let links = session.links();
        for (pos, link) in links.iter().enumerate() {
            assert_eq!(
                link.id.0, pos,
                "{backend:?}: ids must stay relabeled to positions after re-seats"
            );
        }
        let annotated = links.iter().filter(|l| l.sender_node.is_some()).count();
        assert_eq!(
            annotated, 4,
            "{backend:?}: node annotations survive re-seats"
        );
        let solve = session.solve();
        assert!(
            solve.schedule().verify(&links, &config.model, config.mode),
            "{backend:?}: schedule infeasible after re-seats"
        );
        assert_warm_matches_capture(&session, &solve, config, "re-seat pin");
    }
}
