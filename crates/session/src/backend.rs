//! The [`SchedulerBackend`] trait and its three implementations.
//!
//! A backend owns a mutable link universe and knows how to turn it into a
//! [`SolveReport`]. All three speak the same event vocabulary (insert /
//! remove / relocate / move-node, addressed by session-stable `u64` keys),
//! so the [`Session`](crate::Session) facade can swap execution strategies
//! without the call sites noticing:
//!
//! * [`StaticBackend`] — keeps the links in a key-ordered map and runs the
//!   from-scratch kernel (`wagg_schedule::solve_static`) per solve;
//! * [`EngineBackend`] — an incrementally maintained
//!   [`InterferenceEngine`]: events patch the spatial grids, conflict
//!   adjacency and path-loss state, and solving reuses all of it;
//! * [`ShardedBackend`] — the spatially sharded pipeline, either re-tiling
//!   the current link set per solve (`wagg_partition::solve_sharded`) or,
//!   when the session declares [`PartitionHints`](crate::PartitionHints),
//!   routing events through a [`PartitionedEngine`] whose per-shard state is
//!   maintained incrementally.
//!
//! The repair-capable backends keep one position-indexed [`WarmState`]
//! inside a solve-order mirror (`SolveMirror`) that every event splices in
//! lockstep with the links, their path-loss parts, the warm coloring's
//! [`SlotIndex`] and the universe's extreme link lengths. The repair kernel
//! ([`wagg_schedule::solve_repair`]) reads those aggregates and edits the
//! warm state and index in place, so a repair-path solve commits with no
//! copy, replay or re-capture, and walks no link the events left alone. Full
//! recolors (cold starts, watermark breaches) re-anchor through
//! `WarmState::capture`, which stays the correctness oracle — debug builds
//! assert the committed colors equal a capture of the repaired report.

use crate::state::{self, BackendState, EventCounts, KeyedLink, RestoreError, WarmState};
use crate::{RepairPolicy, SessionError, SessionStats};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use wagg_engine::{EngineConfig, InterferenceEngine};
use wagg_geometry::Point;
use wagg_obs::Recorder;
use wagg_partition::{
    solve_sharded_traced, AffectanceVerifier, PartitionedEngine, PartitionedEngineConfig,
    VerifierStrategy,
};
use wagg_schedule::{
    solve_static_traced, BackendKind, CacheJudge, RepairDecision, RepairStats, SchedulerConfig,
    SlotIndex, SolveReport,
};
use wagg_sinr::link::link_diversity;
use wagg_sinr::{Link, LinkId, NodeId, PathLossCache, PowerAssignment};

/// One execution strategy behind the [`Session`](crate::Session) facade: a
/// mutable link universe plus a way to schedule it.
///
/// Keys are session-stable `u64`s assigned by [`SchedulerBackend::insert`]
/// in increasing order and never reused. [`SchedulerBackend::links`] returns
/// the live universe in the backend's **solve order** — the order the
/// backend's [`SolveReport`] schedule indexes into, with ids relabeled to
/// `0..len()`. For the static and sharded backends that is ascending key
/// order; the engine backend exposes the engine's slot order (stable per
/// link, but a recycled slot can place a newer link before an older one),
/// matching the legacy engine path exactly.
pub trait SchedulerBackend: std::fmt::Debug {
    /// Which strategy this backend realises.
    fn kind(&self) -> BackendKind;

    /// Number of live links.
    fn len(&self) -> usize;

    /// Whether no links are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live links in the backend's solve order (see the trait docs),
    /// ids relabeled to `0..len()`.
    fn links(&self) -> Vec<Link>;

    /// Whether `key` names a live link.
    fn contains(&self, key: u64) -> bool;

    /// Inserts a link, returning its key. Node annotations (when given) make
    /// the link follow [`SchedulerBackend::move_node`] events.
    ///
    /// # Panics
    ///
    /// The hinted sharded backend panics when the link's length falls
    /// outside the declared [`PartitionHints`](crate::PartitionHints)
    /// bounds (they size the tiling's halo margin).
    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64;

    /// Removes the link under `key`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
    fn remove(&mut self, key: u64) -> Result<(), SessionError>;

    /// Moves the link under `key` to a new geometry (annotations and key are
    /// preserved).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
    ///
    /// # Panics
    ///
    /// The hinted sharded backend panics when the new length falls outside
    /// the declared [`PartitionHints`](crate::PartitionHints) bounds.
    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError>;

    /// Moves a pointset node: every live link annotated with `node` follows.
    /// Returns the number of links touched.
    ///
    /// # Panics
    ///
    /// The hinted sharded backend panics when a followed link's new length
    /// falls outside the declared [`PartitionHints`](crate::PartitionHints)
    /// bounds; links of the node relocated before the offending one stay
    /// moved (declared-bounds violations are programmer errors, not
    /// recoverable events).
    fn move_node(&mut self, node: usize, to: Point) -> usize;

    /// Schedules the current universe from scratch.
    fn solve(&mut self) -> SolveReport;

    /// Schedules the current universe by warm-start repair (see
    /// [`wagg_schedule::solve_repair`]): keep the previous assignment, re-place
    /// only the links the event batch dirtied, fall back to a full recolor when
    /// the schedule length drifts past `policy.max_drift`. Returns `None` when
    /// this backend maintains no incremental state to repair from (the session
    /// then runs [`SchedulerBackend::solve`] and tags
    /// [`RepairDecision::Unsupported`]).
    fn solve_repair(&mut self, policy: &RepairPolicy) -> Option<SolveReport> {
        let _ = policy;
        None
    }

    /// Installs a `wagg-obs` recorder: subsequent solves record their phase
    /// spans and work counters into it (see
    /// [`SessionBuilder::recorder`](crate::SessionBuilder::recorder)). The
    /// default implementation discards the recorder — a backend without
    /// instrumentation hooks simply records nothing.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }

    /// The live warm repair state, by vertex position in the backend's
    /// solve order — `None` for backends without warm state, or before the
    /// first repair-enabled solve. Test-only introspection for the
    /// warm-state invariant suite; not a public contract.
    #[doc(hidden)]
    fn warm_state(&self) -> Option<&WarmState> {
        None
    }

    /// Event accounting for this backend.
    fn stats(&self) -> SessionStats;

    /// Materialises the backend's full state — universe with stable keys in
    /// solve order, key counter, dirty set, warm repair state — as plain
    /// data (see [`crate::state`]). The session snapshot surface
    /// ([`crate::Session::capture_state`]) builds on this.
    fn capture_state(&self) -> BackendState;
}

/// The solve-order mirror a repair-capable backend keeps beside its own
/// incremental index: position `i` holds the `i`-th live link in solve order
/// (id relabeled to `i`), its path-loss parts and, once a repair-enabled
/// solve anchored it, its warm entry and its place in the warm coloring's
/// [`SlotIndex`]. Every splice moves all of them in lockstep, so positions
/// stay current without any per-solve rebuild, and a removal drops a link's
/// color, budget and slot membership together — no stale warm entry can
/// outlive its link.
///
/// It also keeps the universe's extreme link lengths current per splice,
/// so a warm solve states the length diversity without re-folding every
/// link.
#[derive(Debug)]
struct SolveMirror {
    /// The live links in solve order, ids relabeled to positions, node
    /// annotations preserved.
    links: Vec<Link>,
    /// Per-link path-loss parts in solve order (`None` where no assignment
    /// is pinned — see [`pinned_assignment`]).
    powers: Vec<Option<f64>>,
    weights: Vec<Option<f64>>,
    /// The extreme lengths of `links` (the report's diversity).
    lengths: LengthRange,
    /// The warm repair state (`None` before the first repair-enabled
    /// solve).
    warm: Option<WarmState>,
    /// Slot membership of `warm`'s colors (empty while `warm` is `None`);
    /// installed by [`SolveMirror::anchor`], spliced per event after that.
    index: SlotIndex,
}

impl SolveMirror {
    /// A mirror over `links` (solve order, ids relabeled) and their parts,
    /// with no warm state yet.
    fn new(links: Vec<Link>, powers: Vec<Option<f64>>, weights: Vec<Option<f64>>) -> Self {
        SolveMirror {
            lengths: LengthRange::of(&links),
            links,
            powers,
            weights,
            warm: None,
            index: SlotIndex::default(),
        }
    }

    /// A mirror over `links` in solve order, each priced independently
    /// under `config` (see [`link_parts`]), with no warm state yet.
    fn priced(config: &SchedulerConfig, links: impl IntoIterator<Item = Link>) -> Self {
        let links: Vec<Link> = links
            .into_iter()
            .enumerate()
            .map(|(pos, mut link)| {
                link.id = LinkId(pos);
                link
            })
            .collect();
        let (powers, weights) = links.iter().map(|l| link_parts(config, l)).unzip();
        SolveMirror::new(links, powers, weights)
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    /// Installs `warm` — a full recolor's capture or a restored snapshot —
    /// and builds its slot index (the one O(n) index build, once per
    /// anchoring).
    fn anchor(&mut self, warm: WarmState) {
        self.index = SlotIndex::from_colors(&warm.colors);
        self.warm = Some(warm);
    }

    /// The universe's length diversity as the report states it
    /// (`link_diversity(links)`, 1 when undefined), from the maintained
    /// extremes.
    fn diversity(&self) -> f64 {
        debug_assert_eq!(
            self.lengths.diversity(),
            link_diversity(&self.links),
            "length extremes diverged from the links"
        );
        self.lengths.diversity().unwrap_or(1.0)
    }

    /// Splices `link` in at `pos` as a dirty warm entry (positions at and
    /// after it shift up by one).
    fn insert(&mut self, pos: usize, link: Link, (power, weight): (Option<f64>, Option<f64>)) {
        self.lengths.add(link.length());
        self.links.insert(pos, link);
        self.powers.insert(pos, power);
        self.weights.insert(pos, weight);
        if let Some(warm) = &mut self.warm {
            warm.insert_at(pos);
            self.index.insert(pos);
        }
        self.relabel(pos);
    }

    /// Drops position `pos` (positions after it shift down by one).
    fn remove(&mut self, pos: usize) {
        let link = self.links.remove(pos);
        self.powers.remove(pos);
        self.weights.remove(pos);
        if let Some(warm) = &mut self.warm {
            self.index.remove(pos, warm.colors[pos]);
            warm.remove_at(pos);
        }
        self.relabel(pos);
        if self.lengths.remove(link.length()) {
            self.lengths = LengthRange::of(&self.links);
        }
    }

    /// Re-seats position `pos` as `link` with fresh path-loss parts and
    /// dirties its warm entry.
    fn reseat(&mut self, pos: usize, mut link: Link, (power, weight): (Option<f64>, Option<f64>)) {
        link.id = LinkId(pos);
        let old = std::mem::replace(&mut self.links[pos], link);
        self.powers[pos] = power;
        self.weights[pos] = weight;
        if let Some(warm) = &mut self.warm {
            if let Some(color) = warm.colors[pos] {
                self.index.unassign(pos, color);
            }
            warm.mark_dirty(pos);
        }
        self.lengths.add(link.length());
        if self.lengths.remove(old.length()) {
            self.lengths = LengthRange::of(&self.links);
        }
    }

    /// Re-derives the relabeled ids from `from` onward after a splice.
    fn relabel(&mut self, from: usize) {
        for (pos, link) in self.links.iter_mut().enumerate().skip(from) {
            link.id = LinkId(pos);
        }
    }
}

/// The shortest and longest link length of a universe and how many links
/// hold each — what `link_diversity` folds, kept current per splice. Only
/// the departure of an extreme's last holder needs a re-fold.
#[derive(Debug, Clone, Copy)]
struct LengthRange {
    min: f64,
    min_count: usize,
    max: f64,
    max_count: usize,
}

impl LengthRange {
    /// The extremes of `links`, folded from scratch.
    fn of(links: &[Link]) -> Self {
        let mut range = LengthRange {
            min: f64::INFINITY,
            min_count: 0,
            max: f64::NEG_INFINITY,
            max_count: 0,
        };
        for link in links {
            range.add(link.length());
        }
        range
    }

    /// Counts a link of this length in.
    fn add(&mut self, length: f64) {
        // `link_diversity`'s `f64::min`/`max` fold skips NaN; so does this.
        if length.is_nan() {
            return;
        }
        if length < self.min {
            (self.min, self.min_count) = (length, 1);
        } else if length == self.min {
            self.min_count += 1;
        }
        if length > self.max {
            (self.max, self.max_count) = (length, 1);
        } else if length == self.max {
            self.max_count += 1;
        }
    }

    /// Counts a link of this length out; `true` when an extreme lost its
    /// last holder and the caller must re-fold.
    fn remove(&mut self, length: f64) -> bool {
        let mut stale = false;
        if length == self.min {
            self.min_count -= 1;
            stale |= self.min_count == 0;
        }
        if length == self.max {
            self.max_count -= 1;
            stale |= self.max_count == 0;
        }
        stale
    }

    /// `link_diversity` of the counted links: `max / min`, `None` for an
    /// empty universe or a non-positive or non-finite extreme.
    fn diversity(&self) -> Option<f64> {
        (self.min > 0.0 && self.min.is_finite() && self.max.is_finite())
            .then(|| self.max / self.min)
    }
}

/// Per-vertex warm budgets for a freshly recolored schedule, captured
/// through the certified hierarchical verifier (near-linear per slot —
/// certified upper bounds are exactly what the additive repair contract
/// wants, and on a just-verified schedule every budget lands within `1/β`).
fn recolor_budgets(
    config: &SchedulerConfig,
    links: &[Link],
    powers: &[Option<f64>],
    weights: &[Option<f64>],
    schedule: &wagg_schedule::Schedule,
) -> Vec<f64> {
    let verifier = AffectanceVerifier::new(&config.model, links, powers, weights);
    let mut budgets = vec![0.0f64; links.len()];
    for slot in schedule.slots() {
        for (&i, b) in slot.iter().zip(verifier.budgets(slot)) {
            budgets[i] = b;
        }
    }
    budgets
}

/// The power assignment `config`'s mode pins under a noise-free model —
/// when the additive judges (and the path-loss parts they read) apply.
/// `None` otherwise: the opaque judge path never reads the parts.
fn pinned_assignment(config: &SchedulerConfig) -> Option<PowerAssignment> {
    (config.model.noise() == 0.0)
        .then(|| config.mode.assignment())
        .flatten()
}

/// The `(power, weight)` entry [`PathLossCache::new`] would compute for
/// `link` under `config`'s pinned assignment. The cache computes entries
/// per link independently, so one event can refresh one mirror entry
/// without touching the rest — the same single-link trick the
/// interference engine's event maintenance uses. `(None, None)` when no
/// assignment is pinned.
fn link_parts(config: &SchedulerConfig, link: &Link) -> (Option<f64>, Option<f64>) {
    match pinned_assignment(config) {
        Some(assignment) => {
            let (p, w) = PathLossCache::new(&config.model, std::slice::from_ref(link), &assignment)
                .into_parts();
            (p[0], w[0])
        }
        None => (None, None),
    }
}

/// Relative schedule-length drift vs. the baseline, finite even for an empty
/// baseline: the flight recorder's JSONL log writes it as decimal text,
/// which has no spelling for NaN or infinity, so a non-finite drift would
/// make the logged sample unreadable on restore.
fn drift_vs(slots: usize, baseline: usize) -> f64 {
    (slots as f64 - baseline as f64) / baseline.max(1) as f64
}

/// Captures a key-ordered link map as [`KeyedLink`]s, ids relabeled to
/// positions (the canonical form: capture → restore → capture is identity).
fn keyed_from_map(links: &BTreeMap<u64, Link>) -> Vec<KeyedLink> {
    links
        .iter()
        .enumerate()
        .map(|(pos, (&key, link))| {
            let mut l = *link;
            l.id = LinkId(pos);
            KeyedLink { key, link: l }
        })
        .collect()
}

/// Re-assigns contiguous ids in iteration (= ascending key) order.
fn relabeled(links: &BTreeMap<u64, Link>) -> Vec<Link> {
    links
        .values()
        .enumerate()
        .map(|(pos, link)| {
            let mut l = *link;
            l.id = LinkId(pos);
            l
        })
        .collect()
}

/// Builds the link value for an insert (annotated links follow node moves).
fn make_link(sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> Link {
    match nodes {
        Some((s, r)) => Link::with_nodes(0, sender, receiver, s, r),
        None => Link::new(0, sender, receiver),
    }
}

/// Rebuilds `old` at a new geometry with id and node annotations preserved
/// — the single re-seat path every backend's relocate / move-node shares,
/// so id and annotation handling cannot drift between them (it used to:
/// the sharded arms rebuilt moved links as `Link::new(0, ..)`, dropping
/// the id the map-backed paths kept).
fn re_seat(old: &Link, sender: Point, receiver: Point) -> Link {
    let mut moved = Link::new(0, sender, receiver);
    moved.id = old.id;
    moved.sender_node = old.sender_node;
    moved.receiver_node = old.receiver_node;
    moved
}

/// `link` re-seated with every endpoint annotated with `node` moved to
/// `to`; `None` when neither endpoint is (a half-annotated link follows its
/// one annotated endpoint).
fn follow_node(link: &Link, node: usize, to: Point) -> Option<Link> {
    let node = Some(NodeId(node));
    let (at_sender, at_receiver) = (link.sender_node == node, link.receiver_node == node);
    (at_sender || at_receiver).then(|| {
        let sender = if at_sender { to } else { link.sender };
        let receiver = if at_receiver { to } else { link.receiver };
        re_seat(link, sender, receiver)
    })
}

/// Moves `node` in a key-ordered link map, returning the touched count —
/// the map-backed backends' shared `move_node`.
fn move_node_in_map(links: &mut BTreeMap<u64, Link>, node: usize, to: Point) -> usize {
    let mut touched = 0;
    for link in links.values_mut() {
        if let Some(moved) = follow_node(link, node, to) {
            *link = moved;
            touched += 1;
        }
    }
    touched
}

/// The from-scratch strategy: a key-ordered link map, scheduled by the
/// static kernel per solve. Matches `wagg_schedule::solve_static` slot for
/// slot (the differential suite pins this).
#[derive(Debug)]
pub struct StaticBackend {
    scheduler: SchedulerConfig,
    links: BTreeMap<u64, Link>,
    next_key: u64,
    inserts: usize,
    removals: usize,
    moves: usize,
    recorder: Recorder,
}

impl StaticBackend {
    /// An empty backend.
    pub fn new(scheduler: SchedulerConfig) -> Self {
        StaticBackend {
            scheduler,
            links: BTreeMap::new(),
            next_key: 0,
            inserts: 0,
            removals: 0,
            moves: 0,
            recorder: Recorder::disabled(),
        }
    }

    /// Seeds the universe with `links` (keys `0..n` in input order, node
    /// annotations preserved).
    pub fn with_links(scheduler: SchedulerConfig, links: &[Link]) -> Self {
        let mut backend = StaticBackend::new(scheduler);
        for link in links {
            let key = backend.next_key;
            backend.next_key += 1;
            backend.links.insert(key, *link);
        }
        backend.inserts = links.len();
        backend
    }

    /// Rebuilds a backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first.
    pub(crate) fn restore(
        scheduler: SchedulerConfig,
        links: &[KeyedLink],
        next_key: u64,
        counts: EventCounts,
    ) -> Result<Self, RestoreError> {
        state::check_ascending(links)?;
        state::check_next_key(links, next_key)?;
        Ok(StaticBackend {
            scheduler,
            links: links.iter().map(|k| (k.key, k.link)).collect(),
            next_key,
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
            recorder: Recorder::disabled(),
        })
    }
}

impl SchedulerBackend for StaticBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Static
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    fn links(&self) -> Vec<Link> {
        relabeled(&self.links)
    }

    fn contains(&self, key: u64) -> bool {
        self.links.contains_key(&key)
    }

    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        self.links.insert(key, make_link(sender, receiver, nodes));
        self.inserts += 1;
        key
    }

    fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        self.links
            .remove(&key)
            .map(|_| self.removals += 1)
            .ok_or(SessionError::UnknownKey { key })
    }

    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError> {
        let old = *self
            .links
            .get(&key)
            .ok_or(SessionError::UnknownKey { key })?;
        self.links.insert(key, re_seat(&old, sender, receiver));
        self.moves += 1;
        Ok(())
    }

    fn move_node(&mut self, node: usize, to: Point) -> usize {
        let touched = move_node_in_map(&mut self.links, node, to);
        self.moves += 1;
        touched
    }

    fn solve(&mut self) -> SolveReport {
        solve_static_traced(&self.links(), self.scheduler, &self.recorder).into()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            backend: BackendKind::Static,
            links: self.links.len(),
            inserts: self.inserts,
            removals: self.removals,
            moves: self.moves,
        }
    }

    fn capture_state(&self) -> BackendState {
        BackendState::Static {
            links: keyed_from_map(&self.links),
            next_key: self.next_key,
            counts: EventCounts {
                inserts: self.inserts,
                removals: self.removals,
                moves: self.moves,
            },
        }
    }
}

/// The engine backend's repair state: its slot↔position index over the
/// engine's live slots plus the shared solve-order mirror, both spliced per
/// event. Built lazily by the first repair-enabled solve; stays `None`
/// forever on repair-disabled sessions, so the event path pays nothing
/// there.
#[derive(Debug)]
struct EngineMirror {
    /// Vertex position → engine slot, ascending (the engine's solve order).
    live: Vec<usize>,
    /// Engine slot → vertex position (`usize::MAX` for dead slots).
    pos_of: Vec<usize>,
    /// What `InterferenceEngine::links` and `cache_parts` would collect,
    /// plus the warm state.
    mirror: SolveMirror,
}

impl EngineMirror {
    /// Collects the index and the mirror from the engine's current state —
    /// the one O(n) collection left on the repair path, run only when a
    /// full recolor re-anchors a cold session. The caller attaches the
    /// warm state.
    fn build(engine: &InterferenceEngine) -> Self {
        let live = engine.live_slots();
        let mut pos_of = vec![usize::MAX; engine.capacity()];
        for (pos, &slot) in live.iter().enumerate() {
            pos_of[slot] = pos;
        }
        let (powers, weights) = engine.cache_parts();
        EngineMirror {
            live,
            pos_of,
            mirror: SolveMirror::new(engine.links(), powers, weights),
        }
    }

    /// Splices a freshly inserted engine slot in.
    fn insert_slot(&mut self, engine: &InterferenceEngine, slot: usize) {
        let pos = self.live.partition_point(|&s| s < slot);
        self.live.insert(pos, slot);
        if self.pos_of.len() < engine.capacity() {
            self.pos_of.resize(engine.capacity(), usize::MAX);
        }
        self.reindex(pos);
        let link = *engine.link(slot).expect("slot was just inserted");
        self.mirror.insert(pos, link, engine.cache_entry(slot));
    }

    /// Drops a removed engine slot.
    fn remove_slot(&mut self, slot: usize) {
        let pos = std::mem::replace(&mut self.pos_of[slot], usize::MAX);
        debug_assert_ne!(pos, usize::MAX, "removing a dead slot");
        self.live.remove(pos);
        self.reindex(pos);
        self.mirror.remove(pos);
    }

    /// Refreshes a re-seated slot (the engine re-seats moved links in their
    /// own slots, so the position is unchanged).
    fn reseat_slot(&mut self, engine: &InterferenceEngine, slot: usize) {
        let link = *engine.link(slot).expect("re-seated slot is live");
        self.mirror
            .reseat(self.pos_of[slot], link, engine.cache_entry(slot));
    }

    /// Re-derives `pos_of` from `from` onward after a splice.
    fn reindex(&mut self, from: usize) {
        for (pos, &slot) in self.live.iter().enumerate().skip(from) {
            self.pos_of[slot] = pos;
        }
    }

    /// Debug-only: the event-spliced mirror must equal what a from-scratch
    /// collection from the engine would produce.
    fn assert_matches_engine(&self, engine: &InterferenceEngine) {
        if cfg!(debug_assertions) {
            assert_eq!(self.live, engine.live_slots(), "live mirror diverged");
            assert_eq!(self.mirror.links, engine.links(), "link mirror diverged");
            let (powers, weights) = engine.cache_parts();
            assert_eq!(self.mirror.powers, powers, "power mirror diverged");
            assert_eq!(self.mirror.weights, weights, "weight mirror diverged");
        }
    }
}

/// The incremental strategy: an [`InterferenceEngine`] whose spatial grids,
/// conflict adjacency and path-loss state are patched per event; solving
/// snapshots the maintained state (no geometric rebuild). Matches the legacy
/// `InterferenceEngine::schedule` path slot for slot.
#[derive(Debug)]
pub struct EngineBackend {
    engine: InterferenceEngine,
    /// Session key → engine slot (slots recycle, keys never do).
    slot_of: BTreeMap<u64, usize>,
    /// Engine slot → session key (the inverse of `slot_of`, for mapping the
    /// engine's vertex order back to stable keys).
    key_of: HashMap<usize, u64>,
    next_key: u64,
    /// Keys dirtied (inserted / relocated / re-seated) since the last
    /// repair-committed schedule.
    dirty: BTreeSet<u64>,
    mirror: Option<EngineMirror>,
}

impl EngineBackend {
    /// An empty backend maintaining state for `config`.
    pub fn new(config: EngineConfig) -> Self {
        EngineBackend {
            engine: InterferenceEngine::new(config),
            slot_of: BTreeMap::new(),
            key_of: HashMap::new(),
            next_key: 0,
            dirty: BTreeSet::new(),
            mirror: None,
        }
    }

    /// Bulk-seeds the engine (slots and keys `0..n` in input order).
    pub fn with_links(config: EngineConfig, links: &[Link]) -> Self {
        let engine = InterferenceEngine::with_links(config, links);
        EngineBackend {
            slot_of: (0..links.len()).map(|i| (i as u64, i)).collect(),
            key_of: (0..links.len()).map(|i| (i, i as u64)).collect(),
            next_key: links.len() as u64,
            engine,
            dirty: BTreeSet::new(),
            mirror: None,
        }
    }

    /// The maintained engine (adjacency queries, maintenance counters).
    pub fn engine(&self) -> &InterferenceEngine {
        &self.engine
    }

    /// Rebuilds a backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first. The links
    /// arrive in the captured engine's slot order and land in slots `0..n`
    /// — position-for-position the captured order, so the restored warm
    /// vectors index correctly and (engine snapshots being canonical) the
    /// next solve is byte-identical. Maintenance counters restart at zero:
    /// the bulk-built engine owns them.
    pub(crate) fn restore(
        config: EngineConfig,
        links: &[KeyedLink],
        next_key: u64,
        dirty: &[u64],
        warm: Option<&WarmState>,
    ) -> Result<Self, RestoreError> {
        state::check_unique(links)?;
        state::check_next_key(links, next_key)?;
        state::check_dirty(links, dirty)?;
        if let Some(w) = warm {
            state::check_warm(links, w)?;
        }
        let bare: Vec<Link> = links.iter().map(|k| k.link).collect();
        let engine = InterferenceEngine::with_links(config, &bare);
        let mirror = warm.map(|w| {
            let mut em = EngineMirror::build(&engine);
            em.mirror.anchor(w.clone());
            em
        });
        Ok(EngineBackend {
            engine,
            slot_of: links.iter().enumerate().map(|(i, k)| (k.key, i)).collect(),
            key_of: links.iter().enumerate().map(|(i, k)| (i, k.key)).collect(),
            next_key,
            dirty: dirty.iter().copied().collect(),
            mirror,
        })
    }

    /// Recolors from scratch, re-anchors the warm baseline and wraps the
    /// result with repair provenance (`dirty_links` / `drift` describe the
    /// state that led here — zero for a cold start, the breaching
    /// measurement on a watermark fallback).
    fn full_recolor(
        &mut self,
        decision: RepairDecision,
        policy: &RepairPolicy,
        dirty_links: usize,
        drift: f64,
    ) -> SolveReport {
        let report = self.engine.schedule();
        let slots = report.schedule.len();
        let config = self.engine.config().scheduler;
        // Re-anchor: the mirror is collected once here (events splice it
        // current afterwards) and the warm state is re-captured from the
        // recolored report, overwriting whatever a breaching repair left.
        let em = self
            .mirror
            .get_or_insert_with(|| EngineMirror::build(&self.engine));
        em.assert_matches_engine(&self.engine);
        let mirror = &mut em.mirror;
        let budgets = if config.verify_slots
            && pinned_assignment(&config).as_ref() == Some(&self.engine.config().power)
        {
            recolor_budgets(
                &config,
                &mirror.links,
                &mirror.powers,
                &mirror.weights,
                &report.schedule,
            )
        } else {
            vec![0.0; report.num_links]
        };
        mirror.anchor(WarmState::capture(&report, budgets, None));
        self.dirty.clear();
        self.engine.recorder().add("repair.warm_recaptured", 1);
        let replaced = report.num_links;
        SolveReport::new(report, BackendKind::Engine).with_repair(RepairStats {
            decision,
            dirty_links,
            replaced_links: replaced,
            baseline_slots: slots,
            drift,
            watermark: policy.max_drift,
        })
    }
}

impl SchedulerBackend for EngineBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Engine
    }

    fn len(&self) -> usize {
        self.engine.len()
    }

    fn links(&self) -> Vec<Link> {
        // Engine vertex order is ascending slot order; keys are assigned in
        // insertion order but slots recycle, so the schedule's universe is
        // the engine's own (`InterferenceEngine::links`), exactly as the
        // legacy engine path exposed it.
        self.engine.links()
    }

    fn contains(&self, key: u64) -> bool {
        self.slot_of.contains_key(&key)
    }

    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64 {
        let slot = match nodes {
            Some((s, r)) => self.engine.insert_link_with_nodes(sender, receiver, s, r),
            None => self.engine.insert_link(sender, receiver),
        };
        let key = self.next_key;
        self.next_key += 1;
        self.slot_of.insert(key, slot);
        self.key_of.insert(slot, key);
        self.dirty.insert(key);
        if let Some(em) = &mut self.mirror {
            em.insert_slot(&self.engine, slot);
        }
        key
    }

    fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        let slot = self
            .slot_of
            .remove(&key)
            .ok_or(SessionError::UnknownKey { key })?;
        self.engine.remove_link(slot)?;
        self.key_of.remove(&slot);
        // Departures are monotone-safe: the survivors of the vacated slot
        // stay feasible, so nothing else needs dirtying.
        self.dirty.remove(&key);
        if let Some(em) = &mut self.mirror {
            em.remove_slot(slot);
        }
        Ok(())
    }

    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError> {
        let old_slot = *self
            .slot_of
            .get(&key)
            .ok_or(SessionError::UnknownKey { key })?;
        let old = self.engine.remove_link(old_slot)?;
        self.key_of.remove(&old_slot);
        let slot =
            self.engine
                .insert_annotated(sender, receiver, old.sender_node, old.receiver_node);
        self.slot_of.insert(key, slot);
        self.key_of.insert(slot, key);
        self.dirty.insert(key);
        if let Some(em) = &mut self.mirror {
            // The engine's free list is LIFO, so the remove/insert pair
            // lands back in the same slot and the mirror update degenerates
            // to an in-place refresh; the guard keeps the mirror honest
            // should that engine detail ever change.
            if slot == old_slot {
                em.reseat_slot(&self.engine, slot);
            } else {
                em.remove_slot(old_slot);
                em.insert_slot(&self.engine, slot);
            }
        }
        Ok(())
    }

    fn move_node(&mut self, node: usize, to: Point) -> usize {
        // Links are re-seated in their own slots, so the key binding holds —
        // but their geometry changed, so they must be re-placed.
        let touched = self.engine.node_slots(node);
        for &slot in &touched {
            self.dirty.insert(self.key_of[&slot]);
        }
        let count = self.engine.move_node(node, to);
        if let Some(em) = &mut self.mirror {
            for &slot in &touched {
                em.reseat_slot(&self.engine, slot);
            }
        }
        count
    }

    fn solve(&mut self) -> SolveReport {
        SolveReport::new(self.engine.schedule(), BackendKind::Engine)
    }

    fn solve_repair(&mut self, policy: &RepairPolicy) -> Option<SolveReport> {
        let dirty_links = self.dirty.len();
        let Some(em) = &mut self.mirror else {
            return Some(self.full_recolor(RepairDecision::ColdStart, policy, dirty_links, 0.0));
        };
        em.assert_matches_engine(&self.engine);
        let config = self.engine.config().scheduler;
        let EngineMirror {
            live,
            pos_of,
            mirror,
        } = em;
        let diversity = mirror.diversity();
        let warm = mirror
            .warm
            .as_mut()
            .expect("the full recolor that builds the mirror anchors it");
        let baseline = warm.baseline_slots;
        // Slots of the dirty links' conflict neighbours get one re-verify
        // sweep (their affectance budget is what the events perturbed).
        let mut check: Vec<usize> = self
            .dirty
            .iter()
            .filter_map(|key| self.slot_of.get(key))
            .flat_map(|&slot| self.engine.neighbors(slot))
            .map(|w| pos_of[w])
            .collect();
        check.sort_unstable();
        check.dedup();
        let lend_cache = pinned_assignment(&config).as_ref() == Some(&self.engine.config().power);
        let cache = lend_cache.then(|| {
            PathLossCache::from_borrowed_parts(
                &config.model,
                &mirror.links,
                &mirror.powers,
                &mirror.weights,
            )
        });
        let judge = CacheJudge::new(&mirror.links, config, cache.as_ref());
        let neighbors = |i: usize| -> Vec<usize> {
            self.engine
                .neighbors(live[i])
                .into_iter()
                .map(|w| pos_of[w])
                .collect()
        };
        let outcome = wagg_schedule::solve_repair(
            &mirror.links,
            &neighbors,
            &judge,
            &config,
            &mut warm.colors,
            &mut warm.budgets,
            &mut mirror.index,
            diversity,
            &check,
            self.engine.recorder(),
        );
        debug_assert_eq!(
            warm.colors,
            state::slot_map(&outcome.report),
            "repaired warm colors diverge from capture"
        );
        let drift = drift_vs(outcome.report.schedule.len(), baseline);
        if drift > policy.max_drift {
            return Some(self.full_recolor(
                RepairDecision::WatermarkBreach,
                policy,
                dirty_links,
                drift,
            ));
        }
        self.dirty.clear();
        self.engine.recorder().add("repair.warm_patched", 1);
        Some(
            SolveReport::new(outcome.report, BackendKind::Engine).with_repair(RepairStats {
                decision: RepairDecision::Repaired,
                dirty_links,
                replaced_links: outcome.replaced,
                baseline_slots: baseline,
                drift,
                watermark: policy.max_drift,
            }),
        )
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.engine.set_recorder(recorder);
    }

    fn warm_state(&self) -> Option<&WarmState> {
        self.mirror.as_ref()?.mirror.warm.as_ref()
    }

    fn stats(&self) -> SessionStats {
        let s = self.engine.stats();
        SessionStats {
            backend: BackendKind::Engine,
            links: self.engine.len(),
            inserts: s.inserts,
            removals: s.removals,
            moves: s.moves,
        }
    }

    fn capture_state(&self) -> BackendState {
        let s = self.engine.stats();
        BackendState::Engine {
            links: self
                .engine
                .live_slots()
                .iter()
                .enumerate()
                .map(|(pos, &slot)| {
                    let mut l = *self.engine.link(slot).expect("live slot");
                    l.id = LinkId(pos);
                    KeyedLink {
                        key: self.key_of[&slot],
                        link: l,
                    }
                })
                .collect(),
            next_key: self.next_key,
            dirty: self.dirty.iter().copied().collect(),
            warm: self.warm_state().cloned(),
            counts: EventCounts {
                inserts: s.inserts,
                removals: s.removals,
                moves: s.moves,
            },
        }
    }
}

/// The two execution modes of the sharded strategy.
#[derive(Debug)]
enum ShardedInner {
    /// No partition hints: keep the links in a map and re-tile per solve.
    Rebuild { links: BTreeMap<u64, Link> },
    /// Partition hints declared: per-shard engines maintained incrementally.
    /// Session keys and engine keys are both minted monotonically, so
    /// ascending-key order is ascending-position order for both: the key
    /// vectors stay sorted with append-only inserts, and position `i` holds
    /// `skeys[i]` / `ekeys[i]` / `mirror.links[i]` — exactly the universe
    /// `PartitionedEngine::schedule` indexes.
    Engine {
        engine: Box<PartitionedEngine>,
        /// Position → session key (sorted; binary-searchable).
        skeys: Vec<u64>,
        /// Position → engine key (sorted — the monotone mints again — so a
        /// binary search over this persistent vector *is* the ekey→position
        /// index; a position-valued hash map would need an O(n) re-index
        /// every time a removal shifts the tail).
        ekeys: Vec<u64>,
        /// The links (the engine itself does not track node annotations),
        /// their parts under the scheduler's pinned assignment, and the
        /// warm state.
        mirror: Box<SolveMirror>,
    },
}

/// The sharded strategy: conflict-radius tiling, independent per-shard
/// colorings, boundary stitching and certified verification. Matches
/// `wagg_partition::solve_sharded` (rebuild mode) and
/// `PartitionedEngine::schedule` (hinted mode) slot for slot.
#[derive(Debug)]
pub struct ShardedBackend {
    scheduler: SchedulerConfig,
    strategy: VerifierStrategy,
    target_shards: usize,
    inner: ShardedInner,
    next_key: u64,
    inserts: usize,
    removals: usize,
    moves: usize,
    /// Keys dirtied since the last repair-committed schedule (hinted engine
    /// mode only — rebuild mode has no incremental state to repair).
    dirty: BTreeSet<u64>,
    recorder: Recorder,
}

impl ShardedBackend {
    /// A re-tiling backend (no partition hints): events mutate the link map,
    /// every solve runs the full sharded pipeline over the current set.
    pub fn new(
        scheduler: SchedulerConfig,
        strategy: VerifierStrategy,
        target_shards: usize,
    ) -> Self {
        ShardedBackend {
            scheduler,
            strategy,
            target_shards,
            inner: ShardedInner::Rebuild {
                links: BTreeMap::new(),
            },
            next_key: 0,
            inserts: 0,
            removals: 0,
            moves: 0,
            dirty: BTreeSet::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// An incrementally maintained backend over a fixed tiling
    /// ([`PartitionedEngineConfig`] — deployment extent and link length
    /// bounds come from the session's partition hints).
    pub fn with_partitioned_engine(config: PartitionedEngineConfig) -> Self {
        ShardedBackend {
            inner: ShardedInner::Engine {
                engine: Box::new(PartitionedEngine::new(config)),
                skeys: Vec::new(),
                ekeys: Vec::new(),
                mirror: Box::new(SolveMirror::priced(&config.scheduler, [])),
            },
            ..ShardedBackend::new(config.scheduler, config.verifier, config.target_shards)
        }
    }

    /// Seeds the universe with `links` (keys `0..n` in input order, node
    /// annotations kept exactly as given).
    ///
    /// On a fresh hinted (engine-mode) backend this routes through
    /// [`PartitionedEngine::with_links`] — one grid-accelerated build per
    /// shard instead of `n` incremental conflict-row recomputations —
    /// producing the exact state (keys, mirror, dirty set) the per-event
    /// path would have built. Million-link sessions construct in seconds
    /// where sequential insertion costs minutes.
    ///
    /// # Panics
    ///
    /// In hinted (engine) mode, panics when a link's length falls outside
    /// the declared bounds — the tiling's halo margin is sized from them.
    pub fn seeded(mut self, links: &[Link]) -> Self {
        if let ShardedInner::Engine {
            engine,
            skeys,
            ekeys,
            mirror,
        } = &mut self.inner
        {
            if self.next_key == 0 && !links.is_empty() {
                let n = links.len() as u64;
                **mirror = SolveMirror::priced(&self.scheduler, links.iter().copied());
                **engine = PartitionedEngine::with_links(*engine.config(), &mirror.links);
                *skeys = (0..n).collect();
                *ekeys = (0..n).collect();
                self.dirty = (0..n).collect();
                self.next_key = n;
                self.inserts = links.len();
                return self;
            }
        }
        for &link in links {
            self.insert_link(link);
        }
        self
    }

    /// Inserts `link` as given — node annotations included, partial ones
    /// too — returning its key.
    fn insert_link(&mut self, link: Link) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        match &mut self.inner {
            ShardedInner::Rebuild { links } => {
                links.insert(key, link);
            }
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                mirror,
            } => {
                let ekey = engine.insert_link(link.sender, link.receiver);
                // Monotone mints on both sides: appending keeps the vectors
                // sorted and the new link's position is the tail.
                debug_assert!(skeys.last().is_none_or(|&k| k < key));
                debug_assert!(ekeys.last().is_none_or(|&k| k < ekey));
                skeys.push(key);
                ekeys.push(ekey);
                mirror.insert(mirror.len(), link, link_parts(&self.scheduler, &link));
                self.dirty.insert(key);
            }
        }
        self.inserts += 1;
        key
    }

    /// Rebuilds a re-tiling (hint-less) backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first.
    pub(crate) fn restore_rebuild(
        scheduler: SchedulerConfig,
        strategy: VerifierStrategy,
        target_shards: usize,
        links: &[KeyedLink],
        next_key: u64,
        counts: EventCounts,
    ) -> Result<Self, RestoreError> {
        state::check_ascending(links)?;
        state::check_next_key(links, next_key)?;
        Ok(ShardedBackend {
            inner: ShardedInner::Rebuild {
                links: links.iter().map(|k| (k.key, k.link)).collect(),
            },
            next_key,
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
            ..ShardedBackend::new(scheduler, strategy, target_shards)
        })
    }

    /// Rebuilds a hinted (engine-mode) backend from captured state (see
    /// [`crate::Session::restore_state`]), validating it first. The engine
    /// is re-materialised through [`PartitionedEngine::with_links`] — the
    /// restart-in-seconds path — and mints fresh engine keys `0..n`
    /// (ascending, like the originals, so the sorted-mirror invariant and
    /// the position-ordered solve are preserved and the next solve is
    /// byte-identical).
    pub(crate) fn restore_engine(
        config: PartitionedEngineConfig,
        links: &[KeyedLink],
        next_key: u64,
        dirty: &[u64],
        warm: Option<&WarmState>,
        counts: EventCounts,
    ) -> Result<Self, RestoreError> {
        state::check_ascending(links)?;
        state::check_next_key(links, next_key)?;
        state::check_dirty(links, dirty)?;
        if let Some(w) = warm {
            state::check_warm(links, w)?;
        }
        // Pre-check the declared bounds so the engine's insert-path assert
        // cannot fire on a hostile snapshot (NaN lengths fail the range
        // test and land here too).
        let (lo, hi) = config.length_bounds;
        for k in links {
            let length = k.link.length();
            if !(length >= lo && length <= hi) {
                return Err(RestoreError::LengthOutOfBounds { key: k.key, length });
            }
        }
        let mut mirror = Box::new(SolveMirror::priced(
            &config.scheduler,
            links.iter().map(|k| k.link),
        ));
        if let Some(w) = warm {
            mirror.anchor(w.clone());
        }
        Ok(ShardedBackend {
            inner: ShardedInner::Engine {
                engine: Box::new(PartitionedEngine::with_links(config, &mirror.links)),
                skeys: links.iter().map(|k| k.key).collect(),
                ekeys: (0..links.len() as u64).collect(),
                mirror,
            },
            next_key,
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
            dirty: dirty.iter().copied().collect(),
            ..ShardedBackend::new(config.scheduler, config.verifier, config.target_shards)
        })
    }

    /// Runs the full hinted-engine pipeline, re-anchors the warm baseline and
    /// wraps the result with repair provenance. Only called in engine mode.
    fn full_recolor_hinted(
        &mut self,
        decision: RepairDecision,
        policy: &RepairPolicy,
        dirty_links: usize,
        drift: f64,
    ) -> SolveReport {
        let ShardedInner::Engine { engine, mirror, .. } = &mut self.inner else {
            unreachable!("hinted repair requires engine mode");
        };
        let solve: SolveReport = engine.schedule().into();
        let config = self.scheduler;
        let budgets = if config.verify_slots && pinned_assignment(&config).is_some() {
            // Parts come from the persistent mirror — maintained per link
            // at event time, equal to a from-scratch `PathLossCache::new`
            // (pinned by the debug oracle on the repair path).
            recolor_budgets(
                &config,
                &mirror.links,
                &mirror.powers,
                &mirror.weights,
                &solve.report.schedule,
            )
        } else {
            vec![0.0; solve.report.num_links]
        };
        // Re-anchor on the recolored report, overwriting whatever a
        // breaching repair left, and remember this full solve's occupancy
        // skew so subsequent repair-path reports can carry it forward.
        let skew = solve
            .sharding
            .map(|s| (s.max_owned, s.mean_owned, s.ghost_fraction));
        mirror.anchor(WarmState::capture(&solve.report, budgets, skew));
        self.dirty.clear();
        self.recorder.add("repair.warm_recaptured", 1);
        let slots = solve.report.schedule.len();
        let replaced = solve.report.num_links;
        solve.with_repair(RepairStats {
            decision,
            dirty_links,
            replaced_links: replaced,
            baseline_slots: slots,
            drift,
            watermark: policy.max_drift,
        })
    }
}

impl SchedulerBackend for ShardedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sharded
    }

    fn len(&self) -> usize {
        match &self.inner {
            ShardedInner::Rebuild { links } => links.len(),
            ShardedInner::Engine { skeys, .. } => skeys.len(),
        }
    }

    fn links(&self) -> Vec<Link> {
        match &self.inner {
            ShardedInner::Rebuild { links } => relabeled(links),
            // The mirror is already in solve order with relabeled ids.
            ShardedInner::Engine { mirror, .. } => mirror.links.clone(),
        }
    }

    fn contains(&self, key: u64) -> bool {
        match &self.inner {
            ShardedInner::Rebuild { links } => links.contains_key(&key),
            ShardedInner::Engine { skeys, .. } => skeys.binary_search(&key).is_ok(),
        }
    }

    fn insert(&mut self, sender: Point, receiver: Point, nodes: Option<(NodeId, NodeId)>) -> u64 {
        self.insert_link(make_link(sender, receiver, nodes))
    }

    fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        match &mut self.inner {
            ShardedInner::Rebuild { links } => {
                links.remove(&key).ok_or(SessionError::UnknownKey { key })?;
            }
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                mirror,
            } => {
                let pos = skeys
                    .binary_search(&key)
                    .map_err(|_| SessionError::UnknownKey { key })?;
                engine.remove_link(ekeys[pos])?;
                skeys.remove(pos);
                ekeys.remove(pos);
                // Departures are monotone-safe; drop every trace of the key.
                mirror.remove(pos);
                self.dirty.remove(&key);
            }
        }
        self.removals += 1;
        Ok(())
    }

    fn relocate(&mut self, key: u64, sender: Point, receiver: Point) -> Result<(), SessionError> {
        match &mut self.inner {
            ShardedInner::Rebuild { links } => {
                let old = *links.get(&key).ok_or(SessionError::UnknownKey { key })?;
                links.insert(key, re_seat(&old, sender, receiver));
            }
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                mirror,
            } => {
                let pos = skeys
                    .binary_search(&key)
                    .map_err(|_| SessionError::UnknownKey { key })?;
                engine.relocate_link(ekeys[pos], sender, receiver)?;
                let moved = re_seat(&mirror.links[pos], sender, receiver);
                mirror.reseat(pos, moved, link_parts(&self.scheduler, &moved));
                self.dirty.insert(key);
            }
        }
        self.moves += 1;
        Ok(())
    }

    fn move_node(&mut self, node: usize, to: Point) -> usize {
        let touched = match &mut self.inner {
            ShardedInner::Rebuild { links } => move_node_in_map(links, node, to),
            ShardedInner::Engine {
                engine,
                skeys,
                ekeys,
                mirror,
            } => {
                let mut touched = 0;
                for pos in 0..mirror.len() {
                    let Some(moved) = follow_node(&mirror.links[pos], node, to) else {
                        continue;
                    };
                    engine
                        .relocate_link(ekeys[pos], moved.sender, moved.receiver)
                        .expect("mirrored engine key is live");
                    mirror.reseat(pos, moved, link_parts(&self.scheduler, &moved));
                    self.dirty.insert(skeys[pos]);
                    touched += 1;
                }
                touched
            }
        };
        self.moves += 1;
        touched
    }

    fn solve(&mut self) -> SolveReport {
        match &self.inner {
            ShardedInner::Rebuild { .. } => solve_sharded_traced(
                &self.links(),
                self.scheduler,
                self.target_shards,
                self.strategy,
                &self.recorder,
            )
            .into(),
            ShardedInner::Engine { engine, .. } => engine.schedule().into(),
        }
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        if let ShardedInner::Engine { engine, .. } = &mut self.inner {
            engine.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    fn solve_repair(&mut self, policy: &RepairPolicy) -> Option<SolveReport> {
        // Rebuild mode re-tiles per solve — no stable state to repair.
        let ShardedInner::Engine {
            engine,
            skeys,
            ekeys,
            mirror,
        } = &mut self.inner
        else {
            return None;
        };
        let dirty_links = self.dirty.len();
        let diversity = mirror.diversity();
        let Some(warm) = mirror.warm.as_mut() else {
            return Some(self.full_recolor_hinted(
                RepairDecision::ColdStart,
                policy,
                dirty_links,
                0.0,
            ));
        };
        let config = self.scheduler;
        let baseline = warm.baseline_slots;
        let links = &mirror.links;
        debug_assert_eq!(warm.colors.len(), links.len(), "warm state out of lockstep");
        let neighbors = |i: usize| -> Vec<usize> {
            engine
                .neighbor_keys(ekeys[i])
                .expect("mirrored engine key is live")
                .into_iter()
                .map(|ekey| ekeys.binary_search(&ekey).expect("live neighbour"))
                .collect()
        };
        let mut check: Vec<usize> = self
            .dirty
            .iter()
            .filter_map(|key| skeys.binary_search(key).ok())
            .flat_map(&neighbors)
            .collect();
        check.sort_unstable();
        check.dedup();
        // Judge through the certified verifier (hierarchical far-field
        // aggregation) when the mode pins a power assignment under a
        // noise-free model — the exact judge the stitched pipeline's
        // verification pass uses; otherwise the kernel's slot probes.
        // Either way the per-link parts come from the persistent mirror,
        // not a per-solve `PathLossCache` rebuild.
        let assignment = pinned_assignment(&config);
        if cfg!(debug_assertions) {
            if let Some(assignment) = &assignment {
                // Pin the single-link-maintenance == batch-collection
                // contract the mirror parts rely on.
                let (p, w) = PathLossCache::new(&config.model, links, assignment).into_parts();
                assert_eq!(mirror.powers, p, "power mirror diverged");
                assert_eq!(mirror.weights, w, "weight mirror diverged");
            }
        }
        let (colors, budgets, index) = (&mut warm.colors, &mut warm.budgets, &mut mirror.index);
        let outcome = if assignment.is_some() {
            let judge =
                AffectanceVerifier::new(&config.model, links, &mirror.powers, &mirror.weights)
                    .with_strategy(self.strategy)
                    .with_recorder(&self.recorder);
            wagg_schedule::solve_repair(
                links,
                &neighbors,
                &judge,
                &config,
                colors,
                budgets,
                index,
                diversity,
                &check,
                &self.recorder,
            )
        } else {
            let judge = CacheJudge::new(links, config, None);
            wagg_schedule::solve_repair(
                links,
                &neighbors,
                &judge,
                &config,
                colors,
                budgets,
                index,
                diversity,
                &check,
                &self.recorder,
            )
        };
        debug_assert_eq!(
            warm.colors,
            state::slot_map(&outcome.report),
            "repaired warm colors diverge from capture"
        );
        // The warm repair path touches only the dirty set; per-shard
        // occupancy is not re-derived here, so the last full solve's skew
        // is carried forward (ownership shifts only at full recolors).
        let (max_owned, mean_owned, ghost_fraction) = warm.skew.unwrap_or((0, 0.0, 0.0));
        let sharding = wagg_schedule::ShardingStats {
            shards: engine.shard_count(),
            radius: engine.radius(),
            boundary_links: engine.boundary_link_count(),
            repaired_links: outcome.replaced,
            evicted_links: outcome.evicted,
            max_owned,
            mean_owned,
            ghost_fraction,
        };
        let drift = drift_vs(outcome.report.schedule.len(), baseline);
        if drift > policy.max_drift {
            return Some(self.full_recolor_hinted(
                RepairDecision::WatermarkBreach,
                policy,
                dirty_links,
                drift,
            ));
        }
        self.dirty.clear();
        self.recorder.add("repair.warm_patched", 1);
        let mut solve =
            SolveReport::new(outcome.report, BackendKind::Sharded).with_repair(RepairStats {
                decision: RepairDecision::Repaired,
                dirty_links,
                replaced_links: outcome.replaced,
                baseline_slots: baseline,
                drift,
                watermark: policy.max_drift,
            });
        solve.sharding = Some(sharding);
        Some(solve)
    }

    fn warm_state(&self) -> Option<&WarmState> {
        match &self.inner {
            ShardedInner::Rebuild { .. } => None,
            ShardedInner::Engine { mirror, .. } => mirror.warm.as_ref(),
        }
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            backend: BackendKind::Sharded,
            links: self.len(),
            inserts: self.inserts,
            removals: self.removals,
            moves: self.moves,
        }
    }

    fn capture_state(&self) -> BackendState {
        let counts = EventCounts {
            inserts: self.inserts,
            removals: self.removals,
            moves: self.moves,
        };
        match &self.inner {
            ShardedInner::Rebuild { links } => BackendState::ShardedRebuild {
                links: keyed_from_map(links),
                next_key: self.next_key,
                counts,
            },
            // The engine keys are not captured: restore mints fresh ones
            // `0..n`, which preserves every invariant the mirror relies on
            // (see `ShardedBackend::restore_engine`).
            ShardedInner::Engine { skeys, mirror, .. } => BackendState::ShardedEngine {
                links: skeys
                    .iter()
                    .zip(&mirror.links)
                    .map(|(&key, &link)| KeyedLink { key, link })
                    .collect(),
                next_key: self.next_key,
                dirty: self.dirty.iter().copied().collect(),
                warm: mirror.warm.clone(),
                counts,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::BoundingBox;
    use wagg_schedule::PowerMode;

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

    /// Runs a seeded event script against `backend`: batches of arrivals,
    /// departures from mid-positions, relocations and node moves, each
    /// batch followed by a repair solve, with a forced watermark breach
    /// every 20 solves. `before_solve` runs ahead of every solve.
    fn run_script<B: SchedulerBackend>(
        mut backend: B,
        seed: u64,
        before_solve: impl Fn(&mut B),
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
                        backend.relocate(key, to.0, to.1).unwrap();
                        geometry.insert(key, to);
                    }
                    1 => {
                        let s =
                            Point::new(rng.next(300) as f64 / 10.0, rng.next(270) as f64 / 10.0);
                        let r = Point::new(s.x + 0.8, s.y + 0.6);
                        let key = backend.insert(s, r, None);
                        geometry.insert(key, (s, r));
                    }
                    2 => {
                        // Never the tail: departures shift later positions.
                        let key = keys[rng.next(keys.len() - 1)];
                        backend.remove(key).unwrap();
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
                            let moved = backend.move_node(RECEIVER_NODES + j, to);
                            assert_eq!(moved, members.len(), "node move followers");
                            for k in &members {
                                geometry.get_mut(k).unwrap().1 = to;
                            }
                        }
                    }
                }
            }
            let policy = RepairPolicy {
                // A negative watermark forces the breach path.
                max_drift: if step % 20 == 13 { -1.0 } else { 0.25 },
                ..RepairPolicy::enabled()
            };
            before_solve(&mut backend);
            let report = backend.solve_repair(&policy).expect("repair-capable");
            let warm = backend.warm_state().expect("anchored by the first solve");
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
    fn assert_index_is_exact<B: SchedulerBackend>(
        make: impl Fn() -> B,
        rebuild: impl Fn(&mut B),
        context: &str,
    ) {
        for seed in [3u64, 17, 101] {
            let carried = run_script(make(), seed, |_| {});
            let rebuilt = run_script(make(), seed, &rebuild);
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

    fn rebuild_mirror_index(mirror: &mut SolveMirror) {
        if let Some(warm) = &mirror.warm {
            mirror.index = SlotIndex::from_colors(&warm.colors);
        }
    }

    /// An additive configuration (oblivious power, noise-free: budgets are
    /// carried) and an opaque one (noise: every probe materialises the
    /// slot, and the sweep runs `SlotJudge::evict`).
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
                    EngineBackend::with_links(
                        EngineConfig::for_scheduler(scheduler),
                        &paired_links(),
                    )
                },
                |b: &mut EngineBackend| {
                    if let Some(em) = &mut b.mirror {
                        rebuild_mirror_index(&mut em.mirror);
                    }
                },
                &format!("engine {mode}"),
            );
        }
    }

    #[test]
    fn carried_slot_index_matches_a_rebuild_on_the_hinted_sharded_backend() {
        for scheduler in schedulers() {
            let mode = scheduler.mode;
            let config = PartitionedEngineConfig::new(
                scheduler,
                BoundingBox::new(-5.0, -5.0, 40.0, 40.0),
                LENGTHS,
                4,
            );
            assert_index_is_exact(
                || ShardedBackend::with_partitioned_engine(config).seeded(&paired_links()),
                |b: &mut ShardedBackend| {
                    if let ShardedInner::Engine { mirror, .. } = &mut b.inner {
                        rebuild_mirror_index(mirror);
                    }
                },
                &format!("hinted sharded {mode}"),
            );
        }
    }
}
