//! The solvers behind the session's one link universe, and the one
//! warm-repair driver.
//!
//! The [`Universe`] (in the crate root, owned by the
//! [`Session`](crate::Session)) is the one copy of a session's links. A
//! backend ([`Solver`]) is a scheduling strategy plus whatever incremental
//! index it keeps beside the universe. Event hooks receive positions the
//! universe already resolved, so they cannot fail:
//!
//! * [`StaticBackend`] — no index; each solve runs the from-scratch kernel
//!   (`wagg_schedule::solve_static`) over the universe's links;
//! * [`ShardedBackend`] — no index; each solve re-tiles the links
//!   (`wagg_partition::solve_sharded`);
//! * [`EngineBackend`] — an [`InterferenceEngine`] whose spatial grids and
//!   conflict adjacency are patched per event, plus its key ↔ slot ↔
//!   position binding (solve order is the engine's slot order);
//! * [`HintedBackend`] — a [`PartitionedEngine`] over the tiling the
//!   session's `PartitionHints` declare, plus its engine keys.
//!
//! The two engine backends repair. [`solve_repair`] is the one warm-repair
//! driver: it builds the check set from the links the last commit has not
//! placed (the unassigned positions of the universe's [`SlotIndex`]), runs
//! [`wagg_schedule::solve_repair`] through the backend's neighbour map,
//! decides between the repaired schedule and a full recolor against the
//! drift watermark, and re-anchors on every full recolor through
//! `WarmState::capture`, which stays the correctness oracle — debug builds
//! assert the committed colors equal a capture of the repaired report.
//!
//! A full recolor's anchor budgets come from the recolor itself where it
//! can: [`Solver::solve`] returns, beside the report, the per-slot totals
//! its verification pass computed. The hinted backend hands on those of
//! every colour class `PartitionedEngine::schedule`'s certified pass kept
//! whole; `Universe::anchor` prices only the other slots (classes that lost
//! members, re-packed slots, and every slot of the other backends, whose
//! exact verification keeps no totals).
//!
//! A backend lends only its neighbour map. Physical feasibility comes from
//! the universe itself: under a pinned assignment (noise-free, fixed
//! powers, verified slots) the universe's [`SlotIndex`] is priced, and the
//! kernel's additive admission streams each candidate slot's columns —
//! its members' endpoints, powers, weights and warm budgets — so both
//! engine backends price every pair term the same way; otherwise every
//! probe checks the materialised slot.

use crate::state;
use crate::{slot_index, RepairPolicy, Universe};
use std::collections::HashMap;
use wagg_engine::InterferenceEngine;
use wagg_obs::Recorder;
use wagg_partition::{solve_sharded, PartitionedEngine, PartitionedEngineConfig};
use wagg_schedule::{
    solve_static, BackendKind, RepairDecision, RepairOutcome, RepairStats, SchedulerConfig,
    ShardingStats, SlotIndex, SolveReport,
};
use wagg_sinr::Link;

/// Relative schedule-length drift vs. the baseline, finite even for an empty
/// baseline: the flight recorder's JSONL log writes it as decimal text,
/// which has no spelling for NaN or infinity, so a non-finite drift would
/// make the logged sample unreadable on restore.
fn drift_vs(slots: usize, baseline: usize) -> f64 {
    (slots as f64 - baseline as f64) / baseline.max(1) as f64
}

/// One execution strategy behind the [`Session`](crate::Session) facade: a
/// way to schedule the [`Universe`] plus the incremental index the strategy
/// keeps beside it. Every hook receives the universe as it stands *before*
/// the event's splice.
pub(crate) trait Solver: std::fmt::Debug {
    /// Which strategy this backend realises.
    fn kind(&self) -> BackendKind;

    /// Binds a link the universe is about to insert under `key` and returns
    /// its solve-order position. Key-ordered backends append.
    fn insert(&mut self, universe: &Universe, _key: u64, _link: &Link) -> usize {
        universe.len()
    }

    /// Unbinds the link at solve-order position `pos`.
    fn remove(&mut self, _universe: &Universe, _pos: usize) {}

    /// Moves the link at `pos` to `link`'s geometry.
    fn reseat(&mut self, _universe: &Universe, _pos: usize, _link: &Link) {}

    /// The solve-order position of `key`. Key-ordered backends' positions
    /// ascend by key, so a binary search finds it.
    fn position(&self, universe: &Universe, key: u64) -> Option<usize> {
        universe.keys.binary_search(&key).ok()
    }

    /// Positions of the links annotated with `node` (default: a scan).
    fn followers(&self, universe: &Universe, node: usize) -> Vec<usize> {
        universe.followers(node)
    }

    /// Schedules the universe from scratch. Beside the report, the per-slot
    /// totals its certified verification pass computed (see
    /// `PartitionedEngine::schedule`), which are the anchor's budgets for
    /// those slots; empty when the backend keeps none.
    fn solve(&self, universe: &Universe, rec: &Recorder) -> (SolveReport, Totals);

    /// Installs a `wagg-obs` recorder on the backend's own engines (see
    /// [`SessionBuilder::recorder`](crate::SessionBuilder::recorder)).
    fn set_recorder(&mut self, _rec: Recorder) {}

    /// Whether the backend keeps incremental state to warm-repair from.
    fn repairs(&self) -> bool {
        false
    }

    /// Runs the repair kernel through this backend's neighbour map, with
    /// the sharding accounting of the repaired report. Only called when
    /// [`Solver::repairs`].
    fn repair(&self, _kernel: Kernel<'_>) -> (RepairOutcome, Option<ShardingStats>) {
        unreachable!("{} backends keep no warm state", self.kind())
    }
}

/// Per slot of a report, the verification pass's per-member totals where it
/// kept them (see [`Solver::solve`]).
pub(crate) type Totals = Vec<Option<Vec<f64>>>;

/// One warm-repair kernel call short of its neighbour map: what
/// [`solve_repair`] hands a backend's [`Solver::repair`] hook.
pub(crate) struct Kernel<'a> {
    config: &'a SchedulerConfig,
    links: &'a [Link],
    diversity: f64,
    colors: &'a mut [Option<usize>],
    /// Priced when an assignment is pinned (the additive path).
    index: &'a mut SlotIndex,
    rec: &'a Recorder,
}

impl Kernel<'_> {
    /// Runs [`wagg_schedule::solve_repair`] on the anchored state: the slots
    /// of the unplaced links' conflict neighbours get one re-verify sweep
    /// (their affectance budget is what the events perturbed).
    fn run(self, neighbors: &dyn Fn(usize) -> Vec<usize>) -> RepairOutcome {
        let mut check: Vec<usize> = self.index.unassigned().flat_map(neighbors).collect();
        check.sort_unstable();
        check.dedup();
        wagg_schedule::solve_repair(
            self.links,
            neighbors,
            self.config,
            self.colors,
            self.index,
            self.diversity,
            &check,
            self.rec,
        )
    }
}

/// Schedules `universe` by warm-start repair (see
/// [`wagg_schedule::solve_repair`]): keep the previous assignment, re-place
/// only the links the events unplaced, fall back to a full recolor when the
/// schedule length drifts past `policy.max_drift`. A backend without
/// incremental state recolors, tagged [`RepairDecision::Unsupported`]; the
/// first repair-enabled solve is a full recolor tagged
/// [`RepairDecision::ColdStart`] that anchors the warm state.
pub(crate) fn solve_repair(
    universe: &mut Universe,
    backend: &dyn Solver,
    policy: &RepairPolicy,
    rec: &Recorder,
) -> SolveReport {
    if !backend.repairs() {
        let (report, _) = backend.solve(universe, rec);
        let (slots, links) = (report.slots(), report.num_links());
        return report.with_repair(RepairStats {
            decision: RepairDecision::Unsupported,
            dirty_links: 0,
            replaced_links: links,
            baseline_slots: slots,
            drift: 0.0,
            watermark: policy.max_drift,
        });
    }
    let Universe {
        scheduler,
        links,
        repair,
        ..
    } = universe;
    let Some(state) = repair else {
        return full_recolor(
            universe,
            backend,
            RepairDecision::ColdStart,
            policy,
            0,
            0.0,
            rec,
        );
    };
    debug_assert!(
        state.index == slot_index(scheduler, links, &state.colors, &state.index.budgets()),
        "slot index records diverged from the links"
    );
    let dirty_links = state.index.unassigned().count();
    let baseline = state.baseline_slots;
    let (outcome, sharding) = backend.repair(Kernel {
        config: scheduler,
        links,
        diversity: state.lengths.diversity(links),
        colors: &mut state.colors,
        index: &mut state.index,
        rec,
    });
    debug_assert_eq!(
        state.colors,
        state::slot_map(&outcome.report),
        "repaired warm colors diverge from capture"
    );
    let drift = drift_vs(outcome.report.schedule.len(), baseline);
    if drift > policy.max_drift {
        let decision = RepairDecision::WatermarkBreach;
        return full_recolor(universe, backend, decision, policy, dirty_links, drift, rec);
    }
    rec.add("repair.warm_patched", 1);
    let mut solve = SolveReport::new(outcome.report, backend.kind()).with_repair(RepairStats {
        decision: RepairDecision::Repaired,
        dirty_links,
        replaced_links: outcome.replaced,
        baseline_slots: baseline,
        drift,
        watermark: policy.max_drift,
    });
    solve.sharding = sharding;
    solve
}

/// Recolors from scratch, re-anchors the warm baseline on the recolor's
/// report and totals, and wraps the result with repair provenance
/// (`dirty_links` / `drift` describe the state that led here — zero for a
/// cold start, the breaching measurement on a watermark fallback).
fn full_recolor(
    universe: &mut Universe,
    backend: &dyn Solver,
    decision: RepairDecision,
    policy: &RepairPolicy,
    dirty_links: usize,
    drift: f64,
    rec: &Recorder,
) -> SolveReport {
    let (solve, totals) = backend.solve(universe, rec);
    universe.anchor(&solve, &totals, rec);
    rec.add("repair.warm_recaptured", 1);
    let (slots, links) = (solve.slots(), solve.num_links());
    solve.with_repair(RepairStats {
        decision,
        dirty_links,
        replaced_links: links,
        baseline_slots: slots,
        drift,
        watermark: policy.max_drift,
    })
}

/// The from-scratch strategy: the static kernel over the universe's links.
/// Matches `wagg_schedule::solve_static` slot for slot (the differential
/// suite pins this).
#[derive(Debug)]
pub(crate) struct StaticBackend {
    pub(crate) scheduler: SchedulerConfig,
}

impl Solver for StaticBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Static
    }

    fn solve(&self, universe: &Universe, rec: &Recorder) -> (SolveReport, Totals) {
        let report = solve_static(universe.links(), self.scheduler, rec).into();
        (report, Vec::new())
    }
}

/// The re-tiling strategy (no partition hints): conflict-radius tiling,
/// independent per-shard colorings, boundary stitching and certified
/// verification over the current links, per solve. Matches
/// `wagg_partition::solve_sharded` slot for slot.
#[derive(Debug)]
pub(crate) struct ShardedBackend {
    pub(crate) scheduler: SchedulerConfig,
    pub(crate) shards: usize,
}

impl Solver for ShardedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sharded
    }

    fn solve(&self, universe: &Universe, rec: &Recorder) -> (SolveReport, Totals) {
        let report = solve_sharded(universe.links(), self.scheduler, self.shards, rec);
        (report, Vec::new())
    }
}

/// The incremental strategy: an [`InterferenceEngine`] whose spatial grids
/// and conflict adjacency are patched per event; a cold solve snapshots the
/// maintained adjacency (no geometric rebuild) and prices its slot probes as
/// `solve_static` does. Matches a hand-driven `InterferenceEngine::schedule`
/// slot for slot.
///
/// Solve order is the engine's slot order: stable per link, but a recycled
/// slot can place a newer link before an older one.
#[derive(Debug)]
pub(crate) struct EngineBackend {
    engine: InterferenceEngine,
    /// Session key → engine slot (slots recycle, keys never do).
    slot_of: HashMap<u64, usize>,
    /// Position → engine slot, ascending: a binary search is the
    /// slot → position map.
    live: Vec<usize>,
}

impl EngineBackend {
    /// Bulk-seeds an engine with `universe`'s links: slot `i` holds
    /// position `i`.
    pub(crate) fn new(config: SchedulerConfig, universe: &Universe) -> Self {
        EngineBackend {
            engine: InterferenceEngine::with_links(config, universe.links()),
            slot_of: universe.keys.iter().copied().zip(0..).collect(),
            live: (0..universe.len()).collect(),
        }
    }

    fn pos(&self, slot: usize) -> usize {
        self.live.binary_search(&slot).expect("slot is live")
    }
}

impl Solver for EngineBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Engine
    }

    fn insert(&mut self, _: &Universe, key: u64, link: &Link) -> usize {
        let slot = self.engine.insert(*link);
        self.slot_of.insert(key, slot);
        let pos = self.live.partition_point(|&s| s < slot);
        self.live.insert(pos, slot);
        pos
    }

    fn remove(&mut self, universe: &Universe, pos: usize) {
        self.slot_of.remove(&universe.keys[pos]);
        let slot = self.live.remove(pos);
        self.engine.remove_link(slot).expect("bound slot is live");
    }

    fn reseat(&mut self, _: &Universe, pos: usize, link: &Link) {
        let slot = self.live[pos];
        self.engine.remove_link(slot).expect("bound slot is live");
        let again = self.engine.insert(*link);
        // The engine's free list is LIFO: the link lands in its own slot.
        debug_assert_eq!(again, slot, "a re-seat keeps its engine slot");
    }

    fn position(&self, _: &Universe, key: u64) -> Option<usize> {
        self.slot_of.get(&key).map(|&slot| self.pos(slot))
    }

    fn followers(&self, _: &Universe, node: usize) -> Vec<usize> {
        self.engine
            .node_slots(node)
            .into_iter()
            .map(|slot| self.pos(slot))
            .collect()
    }

    fn solve(&self, _: &Universe, _: &Recorder) -> (SolveReport, Totals) {
        let report = SolveReport::new(self.engine.schedule(), BackendKind::Engine);
        (report, Vec::new())
    }

    fn set_recorder(&mut self, rec: Recorder) {
        self.engine.set_recorder(rec);
    }

    fn repairs(&self) -> bool {
        true
    }

    fn repair(&self, kernel: Kernel<'_>) -> (RepairOutcome, Option<ShardingStats>) {
        debug_assert_eq!(self.live, self.engine.live_slots(), "live slots diverged");
        debug_assert_eq!(kernel.links, self.engine.links(), "links diverged");
        let neighbors = |i: usize| -> Vec<usize> {
            self.engine
                .neighbors(self.live[i])
                .iter()
                .map(|&slot| self.pos(slot))
                .collect()
        };
        (kernel.run(&neighbors), None)
    }
}

/// The incrementally maintained sharded strategy: a [`PartitionedEngine`]
/// over the fixed tiling the session's partition hints declare, so churn
/// touches only the owning shard and its halo neighbours. Session keys and
/// engine keys are both minted monotonically, so position `i` holds the
/// `i`-th engine key — exactly the universe `PartitionedEngine::schedule`
/// indexes. Matches a hand-driven `PartitionedEngine::schedule` slot for
/// slot.
#[derive(Debug)]
pub(crate) struct HintedBackend {
    engine: PartitionedEngine,
    /// Position → engine key, ascending: a binary search is the
    /// engine key → position map.
    ekeys: Vec<u64>,
}

impl HintedBackend {
    /// Seeds the engine with `universe`'s links through
    /// [`PartitionedEngine::with_links`] — one grid-accelerated build per
    /// shard instead of `n` incremental conflict-row recomputations — which
    /// mints engine keys `0..n` in position order.
    ///
    /// # Panics
    ///
    /// When a link's length falls outside the declared bounds — the
    /// tiling's halo margin is sized from them.
    pub(crate) fn new(config: PartitionedEngineConfig, universe: &Universe) -> Self {
        HintedBackend {
            engine: PartitionedEngine::with_links(config, universe.links()),
            ekeys: (0..universe.len() as u64).collect(),
        }
    }

    fn pos(&self, ekey: u64) -> usize {
        self.ekeys.binary_search(&ekey).expect("engine key is live")
    }
}

impl Solver for HintedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sharded
    }

    fn insert(&mut self, universe: &Universe, _: u64, link: &Link) -> usize {
        let ekey = self.engine.insert_link(link.sender, link.receiver);
        debug_assert!(self.ekeys.last().is_none_or(|&k| k < ekey));
        self.ekeys.push(ekey);
        universe.len()
    }

    fn remove(&mut self, _: &Universe, pos: usize) {
        let ekey = self.ekeys.remove(pos);
        self.engine
            .remove_link(ekey)
            .expect("bound engine key is live");
    }

    fn reseat(&mut self, _: &Universe, pos: usize, link: &Link) {
        self.engine
            .relocate_link(self.ekeys[pos], link.sender, link.receiver)
            .expect("bound engine key is live");
    }

    fn solve(&self, _: &Universe, _: &Recorder) -> (SolveReport, Totals) {
        self.engine.schedule()
    }

    fn set_recorder(&mut self, rec: Recorder) {
        self.engine.set_recorder(rec);
    }

    fn repairs(&self) -> bool {
        true
    }

    fn repair(&self, kernel: Kernel<'_>) -> (RepairOutcome, Option<ShardingStats>) {
        // The engine counts owned links and ghost copies per event, so the
        // occupancy is the placement's as it stands after the events.
        let (max_owned, mean_owned, ghost_fraction) = self.engine.occupancy();
        let neighbors = |i: usize| -> Vec<usize> {
            self.engine
                .neighbor_keys(self.ekeys[i])
                .expect("bound engine key is live")
                .into_iter()
                .map(|ekey| self.pos(ekey))
                .collect()
        };
        let outcome = kernel.run(&neighbors);
        let sharding = ShardingStats {
            shards: self.engine.shard_count(),
            radius: self.engine.radius(),
            boundary_links: self.engine.boundary_link_count(),
            repaired_links: outcome.replaced,
            evicted_links: outcome.evicted,
            max_owned,
            mean_owned,
            ghost_fraction,
        };
        (outcome, Some(sharding))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, RepairPolicy, Session};
    use std::collections::BTreeMap;
    use wagg_geometry::{BoundingBox, Point};
    use wagg_schedule::PowerMode;
    use wagg_sinr::NodeId;

    /// Receiver nodes are numbered from here; sender node `k` is seeded link
    /// `k`'s own.
    const RECEIVER_NODES: usize = 10_000;
    const PAIRS: usize = 90;
    const LENGTHS: (f64, f64) = (0.5, 2.0);

    /// Pairs of unit links on a 3-unit grid, each pair sharing its receiver
    /// point and receiver node, so one node move re-seats two links.
    fn paired_links() -> Vec<Link> {
        let mut links = Vec::new();
        for j in 0..PAIRS {
            let r = Point::new((j % 10) as f64 * 3.0, (j / 10) as f64 * 3.0);
            for (k, s) in [Point::new(r.x + 1.0, r.y), Point::new(r.x, r.y + 1.0)]
                .into_iter()
                .enumerate()
            {
                let i = 2 * j + k;
                links.push(Link::with_nodes(
                    i,
                    s,
                    r,
                    NodeId(i),
                    NodeId(RECEIVER_NODES + j),
                ));
            }
        }
        links
    }

    /// A seeded xorshift stream: `next(bound)` is uniform-ish in `0..bound`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }

        fn offset(&mut self) -> f64 {
            (self.next(41) as f64 - 20.0) / 100.0
        }
    }

    /// One solve of a script: the report, then the warm colors and the
    /// budgets' bit patterns it left behind.
    type Solve = (SolveReport, Vec<Option<usize>>, Vec<u64>);

    /// Runs a seeded event script against a repair-enabled `session`:
    /// batches of arrivals, departures from mid-positions, relocations and
    /// node moves, each batch followed by a repair solve, with a forced
    /// watermark breach every 20 solves. `before_solve` runs ahead of every
    /// solve.
    fn run_script(
        mut session: Session,
        seed: u64,
        before_solve: impl Fn(&mut Session),
    ) -> Vec<Solve> {
        let mut rng = Rng(seed);
        let links = paired_links();
        let mut geometry: BTreeMap<u64, (Point, Point)> = links
            .iter()
            .enumerate()
            .map(|(key, l)| (key as u64, (l.sender, l.receiver)))
            .collect();
        let in_bounds = |s: Point, r: Point| {
            let d = s.distance(r);
            d >= LENGTHS.0 && d <= LENGTHS.1
        };
        let mut solves = Vec::new();
        for step in 0..60 {
            for _ in 0..1 + rng.next(3) {
                let keys: Vec<u64> = geometry.keys().copied().collect();
                match rng.next(4) {
                    0 => {
                        let key = keys[rng.next(keys.len())];
                        let (s, r) = geometry[&key];
                        let (dx, dy) = (rng.offset(), rng.offset());
                        let to = (
                            Point::new(s.x + dx, s.y + dy),
                            Point::new(r.x + dx, r.y + dy),
                        );
                        session.relocate(key, to.0, to.1).unwrap();
                        geometry.insert(key, to);
                    }
                    1 => {
                        let s =
                            Point::new(rng.next(300) as f64 / 10.0, rng.next(270) as f64 / 10.0);
                        let r = Point::new(s.x + 0.8, s.y + 0.6);
                        let key = session.insert(s, r);
                        geometry.insert(key, (s, r));
                    }
                    2 => {
                        // Never the tail: departures shift later positions.
                        let key = keys[rng.next(keys.len() - 1)];
                        session.remove(key).unwrap();
                        geometry.remove(&key);
                    }
                    _ => {
                        // Move a pair's shared receiver node next to where
                        // its first live member's receiver is, when every
                        // follower stays within the declared lengths.
                        let j = rng.next(PAIRS);
                        let members: Vec<u64> = [2 * j as u64, 2 * j as u64 + 1]
                            .into_iter()
                            .filter(|k| geometry.contains_key(k))
                            .collect();
                        let Some(&first) = members.first() else {
                            continue;
                        };
                        let r = geometry[&first].1;
                        let to = Point::new(r.x + rng.offset(), r.y + rng.offset());
                        if members.iter().all(|k| in_bounds(geometry[k].0, to)) {
                            let moved = session.move_node(RECEIVER_NODES + j, to);
                            assert_eq!(moved, members.len(), "node move followers");
                            for k in &members {
                                geometry.get_mut(k).unwrap().1 = to;
                            }
                        }
                    }
                }
            }
            // A negative watermark forces the breach path.
            session.config.repair.max_drift = if step % 20 == 13 { -1.0 } else { 0.25 };
            before_solve(&mut session);
            let report = session.solve();
            let warm = session.warm_state().expect("anchored by the first solve");
            solves.push((
                report,
                warm.colors.clone(),
                warm.budgets.iter().map(|b| b.to_bits()).collect(),
            ));
        }
        solves
    }

    /// The script run twice — carrying the slot index forward, and
    /// rebuilding it from the warm colors before every solve — must agree
    /// report for report (slot member order included) and budget bit for
    /// budget bit.
    fn assert_index_is_exact(make: impl Fn() -> Session, context: &str) {
        for seed in [3u64, 17, 101] {
            let carried = run_script(make(), seed, |_| {});
            let rebuilt = run_script(make(), seed, rebuild_index);
            assert!(
                carried.iter().any(|(r, _, _)| r
                    .repair
                    .is_some_and(|r| r.decision == RepairDecision::WatermarkBreach)),
                "{context}: the script forces a breach"
            );
            for (t, (a, b)) in carried.iter().zip(&rebuilt).enumerate() {
                assert_eq!(a.0, b.0, "{context} seed {seed}: report {t} diverged");
                assert_eq!(a.1, b.1, "{context} seed {seed}: colors {t} diverged");
                assert_eq!(a.2, b.2, "{context} seed {seed}: budgets {t} diverged");
            }
        }
    }

    fn rebuild_index(session: &mut Session) {
        let universe = &mut session.universe;
        if let Some(state) = &mut universe.repair {
            let budgets = state.index.budgets();
            state.index = slot_index(
                &universe.scheduler,
                &universe.links,
                &state.colors,
                &budgets,
            );
        }
    }

    /// An additive configuration (oblivious power, noise-free: budgets are
    /// carried) and an opaque one (noise: every probe materialises the
    /// slot, and the sweep checks whole slots).
    fn schedulers() -> [SchedulerConfig; 2] {
        let model = wagg_sinr::SinrModel::default();
        let noisy =
            wagg_sinr::SinrModel::new(model.alpha(), model.beta(), 1e-3).expect("valid model");
        [
            SchedulerConfig::new(PowerMode::mean_oblivious()),
            SchedulerConfig::new(PowerMode::Uniform).with_model(noisy),
        ]
    }

    #[test]
    fn carried_slot_index_matches_a_rebuild_on_the_engine_backend() {
        for scheduler in schedulers() {
            let mode = scheduler.mode;
            assert_index_is_exact(
                || {
                    Session::builder()
                        .scheduler(scheduler)
                        .backend(Backend::Engine)
                        .repair(RepairPolicy::enabled())
                        .links(&paired_links())
                        .build()
                },
                &format!("engine {mode}"),
            );
        }
    }

    #[test]
    fn carried_slot_index_matches_a_rebuild_on_the_hinted_sharded_backend() {
        for scheduler in schedulers() {
            let mode = scheduler.mode;
            assert_index_is_exact(
                || {
                    Session::builder()
                        .scheduler(scheduler)
                        .backend(Backend::Sharded)
                        .partition_hints(BoundingBox::new(-5.0, -5.0, 40.0, 40.0), LENGTHS)
                        .target_shards(4)
                        .repair(RepairPolicy::enabled())
                        .links(&paired_links())
                        .build()
                },
                &format!("hinted sharded {mode}"),
            );
        }
    }
}
