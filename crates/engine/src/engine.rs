//! The incremental interference engine.

use crate::error::EngineError;
use crate::overlay::DeltaAdjacency;
use std::collections::HashMap;
use wagg_conflict::{is_classed, ConflictGraph, ConflictRelation, LengthClasses};
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::{Counter, Recorder};
use wagg_schedule::{schedule_prebuilt_traced, ScheduleReport, SchedulerConfig};
use wagg_sinr::pathloss::relative_interference_sum;
use wagg_sinr::{Link, LinkId, NodeId, PathLossCache, PowerAssignment, SinrModel};

/// Configuration of an [`InterferenceEngine`].
///
/// The scheduler configuration is the single source of truth for the SINR
/// model and power mode — the engine no longer re-declares the model next to
/// it. `relation` and `power` are *derived* from the scheduler by
/// [`EngineConfig::for_scheduler`]; [`EngineConfig::new`] keeps them
/// overridable for engines that maintain a custom conflict relation (those
/// engines answer adjacency queries but cannot [`InterferenceEngine::schedule`],
/// which requires the relation the scheduler's power mode implies).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The scheduler configuration the engine maintains state for (SINR
    /// model, power mode, slot verification) — what
    /// [`InterferenceEngine::schedule`] schedules under.
    pub scheduler: SchedulerConfig,
    /// The conflict relation the maintained adjacency realises (derived from
    /// `scheduler` by [`EngineConfig::for_scheduler`]).
    pub relation: ConflictRelation,
    /// The power assignment the maintained path-loss state is computed under.
    pub power: PowerAssignment,
    /// Adjacency compaction slack: the delta overlay folds into a fresh CSR
    /// base once it exceeds this fraction of the edge set.
    pub compact_slack: f64,
}

impl EngineConfig {
    /// A configuration with an explicit conflict relation and power
    /// assignment (for engines maintaining custom relations) and default
    /// maintenance thresholds. The embedded scheduler configuration takes
    /// the given model with its default mode; use
    /// [`EngineConfig::for_scheduler`] for an engine that schedules.
    pub fn new(relation: ConflictRelation, model: SinrModel, power: PowerAssignment) -> Self {
        EngineConfig {
            scheduler: SchedulerConfig::default().with_model(model),
            relation,
            power,
            compact_slack: 0.25,
        }
    }

    /// The engine configuration matching a scheduler configuration: the
    /// conflict relation implied by its power mode and, for fixed-assignment
    /// modes, that assignment (global power control tracks the mean scheme —
    /// its slot probes never consult the cache).
    pub fn for_scheduler(config: SchedulerConfig) -> Self {
        let relation = config.mode.conflict_relation(config.model.alpha());
        let power = config
            .mode
            .assignment()
            .unwrap_or_else(PowerAssignment::mean);
        EngineConfig {
            scheduler: config,
            relation,
            power,
            compact_slack: 0.25,
        }
    }

    /// The SINR model state is maintained under (the scheduler's model).
    pub fn model(&self) -> &SinrModel {
        &self.scheduler.model
    }

    /// Overrides the adjacency compaction slack (useful to force threshold
    /// crossings in tests).
    ///
    /// # Panics
    ///
    /// Panics unless `compact_slack` is finite and positive.
    pub fn with_compact_slack(mut self, compact_slack: f64) -> Self {
        assert!(
            compact_slack > 0.0 && compact_slack.is_finite(),
            "the compaction slack must be finite and positive"
        );
        self.compact_slack = compact_slack;
        self
    }
}

/// Maintenance counters, exposed for experiments and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Links inserted (including the reinsert half of moves).
    pub inserts: usize,
    /// Links removed (including the remove half of moves).
    pub removals: usize,
    /// `move_node` events applied.
    pub moves: usize,
    /// Class-grid re-layouts: one whenever a class's membership doubles or
    /// falls to a quarter of its count at its last layout, or more than half
    /// its members sit outside the area it was laid out over. A class's
    /// first layout, when it is seeded or created, is not counted.
    pub grid_rebuilds: usize,
    /// Delta-overlay compactions of the conflict adjacency.
    pub compactions: usize,
    /// Populated length classes right now.
    pub length_classes: usize,
    /// Half-edges currently sitting in the adjacency overlay.
    pub overlay_half_edges: usize,
}

/// A mutable link universe whose interference state — per-length-class
/// spatial grids, conflict adjacency and per-link path-loss values — is
/// maintained **incrementally** under insertions, removals and node moves,
/// instead of being rebuilt from scratch per event.
///
/// Links live in **slots**: a slot index is assigned at insertion, stays
/// stable for the link's lifetime, is the link's `LinkId`, and is recycled
/// after removal. The maintained adjacency is equivalent, edge for edge, to
/// `ConflictGraph::build` over the live links (the property tests assert
/// this after arbitrary event sequences), and the per-link path-loss state
/// matches a fresh `PathLossCache` (see [`InterferenceEngine::schedule`] for
/// how it is shared with the scheduler's slot probes).
///
/// # Examples
///
/// ```
/// use wagg_engine::{EngineConfig, InterferenceEngine};
/// use wagg_conflict::ConflictRelation;
/// use wagg_geometry::Point;
/// use wagg_sinr::{Link, PowerAssignment, SinrModel};
///
/// let config = EngineConfig::new(
///     ConflictRelation::unit_constant(),
///     SinrModel::default(),
///     PowerAssignment::mean(),
/// );
/// let mut engine = InterferenceEngine::new(config);
/// let a = engine.insert(Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)));
/// let b = engine.insert(Link::new(0, Point::new(1.5, 0.0), Point::new(2.5, 0.0)));
/// let c = engine.insert(Link::new(0, Point::new(50.0, 0.0), Point::new(51.0, 0.0)));
/// assert!(engine.are_adjacent(a, b));
/// assert!(!engine.are_adjacent(a, c));
/// engine.remove_link(b).unwrap();
/// assert_eq!(engine.len(), 2);
/// assert!(engine.subset_feasible(&[a, c]));
/// ```
#[derive(Debug, Clone)]
pub struct InterferenceEngine {
    config: EngineConfig,
    /// Slot table: `links[s]` is the live link in slot `s`, if any.
    links: Vec<Option<Link>>,
    /// Segment bounding boxes, parallel to `links` (valid while live).
    bboxes: Vec<BoundingBox>,
    /// Recycled slots.
    free: Vec<usize>,
    /// Number of live links.
    live: usize,
    /// The length-class index over the classed live links, by slot.
    classes: LengthClasses,
    /// Live links of no class, sorted: zero-length links (they conflict with
    /// everything) and links whose length overflows to infinity.
    unclassed: Vec<usize>,
    /// Conflict adjacency: CSR base + delta overlay.
    adj: DeltaAdjacency,
    /// Per-slot power `P(i)` under `config.power` (the `PathLossCache` state).
    powers: Vec<Option<f64>>,
    /// Per-slot target weight `l_i^α / P(i)` (the `PathLossCache` state).
    weights: Vec<Option<f64>>,
    /// Node index → slots of live links touching that node (for `move_node`).
    node_links: HashMap<usize, Vec<usize>>,
    stats: EngineStats,
    /// Instrumentation sink (disabled by default — see `wagg-obs`).
    recorder: Recorder,
    /// Pre-resolved handles for `engine.rows_recomputed`,
    /// `engine.candidates_visited` and `engine.pairs_checked` (one relaxed
    /// atomic add each per conflict-row computation, no name lookup on the
    /// hot path).
    rows_counter: Counter,
    candidates_counter: Counter,
    pairs_counter: Counter,
}

impl InterferenceEngine {
    /// An empty engine.
    pub fn new(config: EngineConfig) -> Self {
        InterferenceEngine {
            config,
            links: Vec::new(),
            bboxes: Vec::new(),
            free: Vec::new(),
            live: 0,
            classes: LengthClasses::default(),
            unclassed: Vec::new(),
            adj: DeltaAdjacency::new(),
            powers: Vec::new(),
            weights: Vec::new(),
            node_links: HashMap::new(),
            stats: EngineStats::default(),
            recorder: Recorder::disabled(),
            rows_counter: Counter::default(),
            candidates_counter: Counter::default(),
            pairs_counter: Counter::default(),
        }
    }

    /// Routes the engine's instrumentation to `rec`: conflict-row
    /// recomputations tick `engine.rows_recomputed` and add the candidates
    /// they read to `engine.candidates_visited` and their exact predicate
    /// calls to `engine.pairs_checked`, and every
    /// [`InterferenceEngine::schedule`] records its snapshot/coloring spans
    /// and syncs the `engine.grid_rebuilds` / `engine.compactions`
    /// maintenance watermarks. A disabled recorder (the default) keeps all
    /// of it no-op.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rows_counter = rec.counter("engine.rows_recomputed");
        self.candidates_counter = rec.counter("engine.candidates_visited");
        self.pairs_counter = rec.counter("engine.pairs_checked");
        self.recorder = rec;
    }

    /// The engine's instrumentation sink (disabled unless
    /// [`InterferenceEngine::set_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Bulk-seeds an engine from a link set, assigning slots `0..n` in input
    /// order, and returns it. Lays the length-class index out once over all
    /// the links and decides the adjacency base over that same index
    /// ([`ConflictGraph::build_indexed`]): much faster than `n` single
    /// insertions.
    pub fn with_links(config: EngineConfig, links: &[Link]) -> Self {
        let relabeled: Vec<Link> = links
            .iter()
            .enumerate()
            .map(|(slot, link)| {
                let mut l = *link;
                l.id = LinkId(slot);
                l
            })
            .collect();
        let bboxes: Vec<BoundingBox> = relabeled
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();
        let length = |slot: usize| relabeled[slot].length();
        let classes = LengthClasses::laid_out(0..relabeled.len(), length, &bboxes);
        let graph = ConflictGraph::build_indexed(&relabeled, config.relation, &bboxes, &classes);
        let (offsets, neighbors) = graph.csr();
        let cache = PathLossCache::new(config.model(), &relabeled, &config.power);
        let (powers, weights) = cache.into_parts();

        let mut engine = InterferenceEngine::new(config);
        engine.adj = DeltaAdjacency::from_csr(offsets, neighbors);
        engine.powers = powers;
        engine.weights = weights;
        engine.bboxes = bboxes;
        engine.classes = classes;
        engine.live = relabeled.len();
        for (slot, link) in relabeled.iter().enumerate() {
            if !is_classed(link.length()) {
                engine.unclassed.push(slot);
            }
            Self::register_node_links(&mut engine.node_links, link, slot);
        }
        engine.links = relabeled.into_iter().map(Some).collect();
        engine
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of live links.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no links are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slot capacity (live + recyclable).
    pub fn capacity(&self) -> usize {
        self.links.len()
    }

    /// Number of (undirected) conflict edges among the live links.
    pub fn edge_count(&self) -> usize {
        self.adj.edge_count()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.grid_rebuilds = self.classes.relayouts();
        stats.compactions = self.adj.compactions();
        stats.length_classes = self.classes.class_count();
        stats.overlay_half_edges = self.adj.delta_half_edges();
        stats
    }

    /// The live link in `slot`, if any.
    pub fn link(&self, slot: usize) -> Option<&Link> {
        self.links.get(slot).and_then(Option::as_ref)
    }

    /// Sorted slots of the live links.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.links.len())
            .filter(|&s| self.links[s].is_some())
            .collect()
    }

    /// The current conflict neighbours of a live slot, sorted ascending.
    pub fn neighbors(&self, slot: usize) -> Vec<usize> {
        self.adj.row(slot)
    }

    /// Whether two live slots conflict.
    pub fn are_adjacent(&self, u: usize, v: usize) -> bool {
        self.adj.are_adjacent(u, v)
    }

    /// Inserts `link`, returning its slot, which replaces the link's id. Its
    /// node annotations are kept as given — both, one or none, exactly as
    /// [`InterferenceEngine::with_links`] seeds them. An annotated endpoint
    /// follows [`InterferenceEngine::move_node`] events; a half-annotated
    /// link follows its one annotated endpoint.
    pub fn insert(&mut self, mut link: Link) -> usize {
        let slot = self.alloc_slot();
        link.id = LinkId(slot);
        self.attach(slot, link);
        Self::register_node_links(&mut self.node_links, &link, slot);
        slot
    }

    /// Removes the link in `slot`, freeing the slot for reuse, and returns it.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownSlot`] / [`EngineError::EmptySlot`] when the slot
    /// does not hold a live link.
    pub fn remove_link(&mut self, slot: usize) -> Result<Link, EngineError> {
        if slot >= self.links.len() {
            return Err(EngineError::UnknownSlot { slot });
        }
        if self.links[slot].is_none() {
            return Err(EngineError::EmptySlot { slot });
        }
        let link = self.detach(slot);
        Self::unregister_node_links(&mut self.node_links, &link, slot);
        self.free.push(slot);
        Ok(link)
    }

    /// Moves a pointset node to a new position: every live link recorded as
    /// touching `node` (via `sender_node`/`receiver_node`) is re-seated —
    /// removed and reinserted **in its own slot** with the updated endpoint —
    /// so only the affected neighbourhoods are recomputed. Returns the number
    /// of links touched (0 for nodes no live link references).
    pub fn move_node(&mut self, node: usize, to: Point) -> usize {
        let slots = match self.node_links.get(&node) {
            Some(slots) => slots.clone(),
            None => return 0,
        };
        for &slot in &slots {
            let old = self.detach(slot);
            let sender = if old.sender_node == Some(NodeId(node)) {
                to
            } else {
                old.sender
            };
            let receiver = if old.receiver_node == Some(NodeId(node)) {
                to
            } else {
                old.receiver
            };
            let mut link = Link::new(slot, sender, receiver);
            link.sender_node = old.sender_node;
            link.receiver_node = old.receiver_node;
            self.attach(slot, link);
        }
        self.stats.moves += 1;
        slots.len()
    }

    /// Allocates a slot (recycling freed ones) and grows the slot tables.
    fn alloc_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.links.len();
        self.links.push(None);
        self.bboxes.push(BoundingBox::new(0.0, 0.0, 0.0, 0.0));
        self.powers.push(None);
        self.weights.push(None);
        slot
    }

    /// Wires a link into every maintained structure at `slot`: geometry
    /// tables, class grids, path-loss state and its conflict row.
    fn attach(&mut self, slot: usize, link: Link) {
        assert!(
            link.sender.x.is_finite()
                && link.sender.y.is_finite()
                && link.receiver.x.is_finite()
                && link.receiver.y.is_finite(),
            "link endpoints must be finite"
        );
        debug_assert!(self.links[slot].is_none(), "attaching over a live slot");
        let bbox = BoundingBox::of_segment(link.sender, link.receiver);

        // Path-loss state: one link's worth of `PathLossCache` values,
        // computed by the cache itself so the formulas can never drift.
        let (p, w) = PathLossCache::new(
            &self.config.scheduler.model,
            std::slice::from_ref(&link),
            &self.config.power,
        )
        .into_parts();
        self.powers[slot] = p[0];
        self.weights[slot] = w[0];

        self.bboxes[slot] = bbox;
        self.links[slot] = Some(link);
        self.live += 1;
        if is_classed(link.length()) {
            let length = |s: usize| self.links[s].expect("indexed slots are live").length();
            self.classes.insert(slot, length, &self.bboxes);
        } else if let Err(pos) = self.unclassed.binary_search(&slot) {
            self.unclassed.insert(pos, slot);
        }
        self.stats.inserts += 1;
        self.link_conflict_row(slot);
    }

    /// Computes the conflict row of the (live) link in `slot` against the
    /// current state and links every discovered edge. The slot was just
    /// attached, so it has no edges yet.
    fn link_conflict_row(&mut self, slot: usize) {
        self.rows_counter.add(1);
        let link = self.links[slot].expect("linking a live slot");
        let bbox = self.bboxes[slot];
        let row = self.conflict_row(&link, &bbox, slot);
        // A freshly allocated slot may lie past the overlay's rows.
        self.adj.ensure_capacity(self.links.len());
        for &w in &row {
            self.adj.link(slot, w);
        }
        self.adj.maybe_compact(self.config.compact_slack);
    }

    /// Unwires the link at `slot` from every maintained structure (the slot
    /// itself is not freed — `move_node` re-attaches in place).
    fn detach(&mut self, slot: usize) -> Link {
        let link = self.links[slot].expect("detaching a live slot");
        if is_classed(link.length()) {
            let length = |s: usize| self.links[s].expect("indexed slots are live").length();
            self.classes.remove(slot, length, &self.bboxes);
        } else if let Ok(pos) = self.unclassed.binary_search(&slot) {
            self.unclassed.remove(pos);
        }
        self.links[slot] = None;
        self.adj.isolate(slot);
        self.adj.maybe_compact(self.config.compact_slack);
        self.powers[slot] = None;
        self.weights[slot] = None;
        self.live -= 1;
        self.stats.removals += 1;
        link
    }

    /// The sorted conflict row of `link` against every live link except
    /// `exclude` (the slot the link is being attached to). The candidates
    /// it reads — class-grid entries, plus every live link or every link of
    /// no class — are added to `engine.candidates_visited`. They are
    /// deduplicated first, so the exact predicate runs once per candidate;
    /// the calls are added to `engine.pairs_checked`.
    fn conflict_row(&self, link: &Link, bbox: &BoundingBox, exclude: usize) -> Vec<usize> {
        let mut row: Vec<usize> = Vec::new();
        if !is_classed(link.length()) {
            // A link of no class is checked against every distinct live link.
            row.extend((0..self.links.len()).filter(|&j| self.links[j].is_some()));
            self.candidates_counter.add(row.len() as u64);
        } else {
            let (len, relation) = (link.length(), self.config.relation);
            let every_class = (i32::MIN, 0);
            let read = self.classes.for_each_candidate(
                every_class,
                len,
                bbox,
                &self.bboxes,
                relation,
                |j| row.push(j),
            );
            row.extend_from_slice(&self.unclassed);
            self.candidates_counter
                .add((read + self.unclassed.len()) as u64);
            row.sort_unstable();
            row.dedup();
        }
        row.retain(|&j| j != exclude);
        self.pairs_counter.add(row.len() as u64);
        row.retain(|&j| {
            let other = self.links[j].as_ref().expect("candidates are live");
            self.config.relation.conflicting(link, other)
        });
        row
    }

    fn register_node_links(map: &mut HashMap<usize, Vec<usize>>, link: &Link, slot: usize) {
        for node in [link.sender_node, link.receiver_node].into_iter().flatten() {
            let slots = map.entry(node.index()).or_default();
            if !slots.contains(&slot) {
                slots.push(slot);
            }
        }
    }

    fn unregister_node_links(map: &mut HashMap<usize, Vec<usize>>, link: &Link, slot: usize) {
        for node in [link.sender_node, link.receiver_node].into_iter().flatten() {
            if let Some(slots) = map.get_mut(&node.index()) {
                slots.retain(|&s| s != slot);
                if slots.is_empty() {
                    map.remove(&node.index());
                }
            }
        }
    }

    /// The live links renumbered to contiguous ids `0..len()` in slot order
    /// (node annotations preserved) — the vertex order of
    /// [`InterferenceEngine::snapshot`].
    pub fn links(&self) -> Vec<Link> {
        self.live_slots()
            .into_iter()
            .enumerate()
            .map(|(pos, slot)| {
                let mut link = self.links[slot].expect("live slot");
                link.id = LinkId(pos);
                link
            })
            .collect()
    }

    /// Materialises the maintained state into `(links, conflict graph)`
    /// without re-running any geometry: live slots are renumbered to
    /// contiguous vertices and the adjacency rows are remapped. The result
    /// equals `ConflictGraph::build(&links, relation)` edge for edge.
    pub fn snapshot(&self) -> (Vec<Link>, ConflictGraph) {
        let slots = self.live_slots();
        let mut pos_of = vec![usize::MAX; self.links.len()];
        for (pos, &slot) in slots.iter().enumerate() {
            pos_of[slot] = pos;
        }
        let links = self.links();
        let mut offsets = Vec::with_capacity(slots.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        for &slot in &slots {
            // Slot order is ascending, so the remapped row stays sorted.
            neighbors.extend(self.adj.row(slot).into_iter().map(|w| pos_of[w]));
            offsets.push(neighbors.len());
        }
        let graph =
            ConflictGraph::from_parts(links.clone(), self.config.relation, offsets, neighbors);
        (links, graph)
    }

    /// Total relative interference on the link in `slot` from every other
    /// live link (set order = ascending slots), using the incrementally
    /// patched per-link state. `None` when a needed power or the target
    /// weight is unavailable, mirroring `PathLossCache`.
    pub fn relative_interference_on(&self, slot: usize) -> Option<f64> {
        let members = self.live_slots();
        let target = members
            .binary_search(&slot)
            .expect("slot must hold a live link");
        relative_interference_sum(
            wagg_sinr::AlphaPow::new(self.config.scheduler.model.alpha()),
            &members,
            target,
            self.weights[slot],
            |j| self.links[j].as_ref().expect("live slot"),
            |j| self.powers[j],
        )
    }

    /// Whether the live links in `slots` can transmit together under the
    /// engine's model and power assignment — the engine-side counterpart of
    /// [`PathLossCache::subset_feasible`], evaluated from the patched
    /// per-link state (no cache rebuild). Singletons are trivially feasible.
    ///
    /// # Panics
    ///
    /// Panics when a slot does not hold a live link.
    pub fn subset_feasible(&self, slots: &[usize]) -> bool {
        let pow = wagg_sinr::AlphaPow::new(self.config.scheduler.model.alpha());
        let inv_beta = 1.0 / self.config.scheduler.model.beta();
        (0..slots.len()).all(|k| {
            let total = relative_interference_sum(
                pow,
                slots,
                k,
                self.weights[slots[k]],
                |j| self.links[j].as_ref().expect("live slot"),
                |j| self.powers[j],
            );
            match total {
                Some(total) => total <= inv_beta,
                None => false,
            }
        })
    }

    /// The slots of every live link recorded as touching `node` (via
    /// `sender_node`/`receiver_node`) — the set a
    /// [`InterferenceEngine::move_node`] on `node` re-seats. Empty for nodes
    /// no live link references.
    pub fn node_slots(&self, node: usize) -> Vec<usize> {
        self.node_links.get(&node).cloned().unwrap_or_default()
    }

    /// The patched per-link path-loss state gathered over the live links in
    /// [`InterferenceEngine::links`] order — ready for
    /// [`PathLossCache::from_parts`], so repair probes (like
    /// [`InterferenceEngine::schedule`]'s) reuse the maintained values
    /// instead of recomputing geometry.
    pub fn cache_parts(&self) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
        let slots = self.live_slots();
        let powers = slots.iter().map(|&s| self.powers[s]).collect();
        let weights = slots.iter().map(|&s| self.weights[s]).collect();
        (powers, weights)
    }

    /// Schedules the current live links under the engine's own scheduler
    /// configuration ([`EngineConfig::scheduler`] — one source of truth, no
    /// re-supplied config to drift from the maintained state), reusing the
    /// incrementally maintained state end to end: the conflict graph is a
    /// [`InterferenceEngine::snapshot`] (no geometric rebuild) and — when the
    /// scheduler's power mode matches the engine's assignment — the patched
    /// per-link path-loss values are lent to **all** slot probes of the run
    /// via [`PathLossCache::from_parts`], so nothing is recomputed per probe.
    ///
    /// # Panics
    ///
    /// Panics when the engine maintains a custom conflict relation that is
    /// not the one the scheduler's power mode implies (engines built with
    /// [`EngineConfig::for_scheduler`] always match).
    pub fn schedule(&self) -> ScheduleReport {
        let config = self.config.scheduler;
        let snapshot_span = self.recorder.span("engine/snapshot");
        let (links, graph) = self.snapshot();
        snapshot_span.finish();
        // Sync the maintenance watermarks so a session-boundary metrics dump
        // reflects the engine's cumulative upkeep, not just this solve.
        let stats = self.stats();
        self.recorder
            .record_max("engine.grid_rebuilds", stats.grid_rebuilds as u64);
        self.recorder
            .record_max("engine.compactions", stats.compactions as u64);
        let lend_cache = config.model.noise() == 0.0
            && config.mode.assignment().as_ref() == Some(&self.config.power);
        if lend_cache {
            let (powers, weights) = self.cache_parts();
            let cache = PathLossCache::from_parts(&config.model, &links, powers, weights);
            schedule_prebuilt_traced(&graph, Some(&cache), config, &self.recorder)
        } else {
            schedule_prebuilt_traced(&graph, None, config, &self.recorder)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_schedule::PowerMode;

    fn engine() -> InterferenceEngine {
        InterferenceEngine::new(EngineConfig::new(
            ConflictRelation::unit_constant(),
            SinrModel::default(),
            PowerAssignment::mean(),
        ))
    }

    fn line(engine: &mut InterferenceEngine, s: f64, r: f64) -> usize {
        engine.insert(Link::new(0, Point::on_line(s), Point::on_line(r)))
    }

    fn assert_matches_scratch(engine: &InterferenceEngine) {
        let (links, graph) = engine.snapshot();
        let scratch = ConflictGraph::build(&links, engine.config().relation);
        assert_eq!(
            graph, scratch,
            "engine adjacency diverged from a fresh build"
        );
        let fresh = PathLossCache::new(engine.config().model(), &links, &engine.config().power);
        for (pos, &slot) in engine.live_slots().iter().enumerate() {
            assert_eq!(
                engine.relative_interference_on(slot),
                fresh.relative_interference_on(pos),
                "cache diverged at slot {slot}"
            );
        }
    }

    #[test]
    fn empty_engine_is_consistent() {
        let engine = engine();
        assert!(engine.is_empty());
        assert_eq!(engine.edge_count(), 0);
        assert_matches_scratch(&engine);
    }

    #[test]
    fn inserts_discover_conflicts_and_removals_clear_them() {
        let mut e = engine();
        let a = line(&mut e, 0.0, 1.0);
        let b = line(&mut e, 1.5, 2.5);
        let c = line(&mut e, 40.0, 41.0);
        assert!(e.are_adjacent(a, b));
        assert!(!e.are_adjacent(a, c));
        assert_eq!(e.edge_count(), 1);
        assert_matches_scratch(&e);
        e.remove_link(b).unwrap();
        assert_eq!(e.edge_count(), 0);
        assert_matches_scratch(&e);
    }

    #[test]
    fn slots_are_recycled_on_reinsert() {
        let mut e = engine();
        let a = line(&mut e, 0.0, 1.0);
        let b = line(&mut e, 10.0, 11.0);
        e.remove_link(a).unwrap();
        let c = line(&mut e, 10.8, 11.8); // reuses slot `a`, conflicts with b
        assert_eq!(c, a);
        assert!(e.are_adjacent(c, b));
        assert_matches_scratch(&e);
    }

    #[test]
    fn remove_errors_are_typed() {
        let mut e = engine();
        let a = line(&mut e, 0.0, 1.0);
        assert_eq!(e.remove_link(7), Err(EngineError::UnknownSlot { slot: 7 }));
        e.remove_link(a).unwrap();
        assert_eq!(e.remove_link(a), Err(EngineError::EmptySlot { slot: a }));
    }

    #[test]
    fn degenerate_links_conflict_with_everything() {
        let mut e = engine();
        let a = line(&mut e, 0.0, 1.0);
        let b = line(&mut e, 30.0, 31.0);
        let z = line(&mut e, 60.0, 60.0); // zero length
        assert!(e.are_adjacent(z, a));
        assert!(e.are_adjacent(z, b));
        assert_matches_scratch(&e);
        e.remove_link(z).unwrap();
        assert_matches_scratch(&e);
    }

    #[test]
    fn class_query_keeps_a_pair_whose_distance_rounds_onto_the_reach() {
        // The static build's rounding case: the unit links' gap squared
        // rounds to 1 + 2^-52, above reach² = 1, while their distance rounds
        // to exactly 1 = l_min · f(1), a conflict. Only the reach's margins
        // keep the pair.
        let mut e = engine();
        let a = e.insert(Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)));
        let b = e.insert(Link::new(
            0,
            Point::new(1.5916082368562336, 0.8062255851086957),
            Point::new(2.1832164737124673, 1.6124511702173914),
        ));
        assert_eq!(e.link(b).unwrap().length(), 1.0);
        assert!(e.are_adjacent(a, b));
        assert_matches_scratch(&e);
    }

    #[test]
    fn move_node_reseats_every_touching_link() {
        let mut e = engine();
        // A 3-node chain 0 -> 1 -> 2; node 1 is on both links.
        let l0 = e.insert(Link::with_nodes(
            0,
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            NodeId(0),
            NodeId(1),
        ));
        let l1 = e.insert(Link::with_nodes(
            0,
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            NodeId(1),
            NodeId(2),
        ));
        assert!(e.are_adjacent(l0, l1)); // shared endpoint
        let touched = e.move_node(1, Point::new(100.0, 100.0));
        assert_eq!(touched, 2);
        let moved = *e.link(l0).unwrap();
        assert_eq!(moved.receiver, Point::new(100.0, 100.0));
        assert!(e.are_adjacent(l0, l1)); // still share node 1
        assert_matches_scratch(&e);
        assert_eq!(e.move_node(99, Point::origin()), 0);

        // A node move that lands one link next to an unannotated one, then
        // the removal of the other unannotated link.
        let mut e = engine();
        let (s, r) = (Point::on_line(0.0), Point::on_line(1.0));
        e.insert(Link::with_nodes(0, s, r, NodeId(0), NodeId(1)));
        e.insert(Link::new(0, Point::on_line(1.4), Point::on_line(2.4)));
        e.insert(Link::new(0, Point::on_line(30.0), Point::on_line(31.0)));
        assert_eq!(e.move_node(1, Point::on_line(29.5)), 1);
        assert!(e.are_adjacent(0, 2));
        e.remove_link(1).unwrap();
        assert_matches_scratch(&e);
    }

    #[test]
    fn bulk_seeding_matches_incremental_insertion() {
        let links: Vec<Link> = (0..120)
            .map(|i| {
                let x = i as f64 * 1.4;
                Link::new(i, Point::on_line(x), Point::on_line(x + 1.0))
            })
            .collect();
        let config = EngineConfig::new(
            ConflictRelation::unit_constant(),
            SinrModel::default(),
            PowerAssignment::mean(),
        );
        let bulk = InterferenceEngine::with_links(config.clone(), &links);
        let mut incremental = InterferenceEngine::new(config);
        for l in &links {
            incremental.insert(*l);
        }
        assert_eq!(bulk.snapshot(), incremental.snapshot());
        assert_matches_scratch(&bulk);
    }

    #[test]
    fn exact_checks_stay_within_twice_the_row_edges_on_clustered_mst_churn() {
        // The static build's clustered 1 000-sensor MSTs under the relations
        // of uniform, oblivious and global power. Every third link departs
        // and returns with its sender jittered by up to a tenth of its
        // length; each return recomputes one row.
        for seed in [1, 2, 42] {
            let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, seed)
                .mst_links()
                .expect("clustered sensors are distinct");
            for relation in [
                ConflictRelation::constant(2.0),
                ConflictRelation::polynomial(2.0, 0.5),
                ConflictRelation::log_shaped(2.0, 3.0),
            ] {
                let config =
                    EngineConfig::new(relation, SinrModel::default(), PowerAssignment::mean());
                let mut engine = InterferenceEngine::with_links(config, &links);
                let rec = Recorder::new();
                engine.set_recorder(rec.clone());
                let mut rng = wagg_geometry::rng::seeded_rng(seed);
                let mut row_edges = 0;
                for slot in (0..links.len()).step_by(3) {
                    let link = engine.remove_link(slot).unwrap();
                    let jitter = link.length() / 10.0;
                    let mut shift = || wagg_geometry::rng::uniform_in(&mut rng, -jitter, jitter);
                    let sender = Point::new(link.sender.x + shift(), link.sender.y + shift());
                    let mut moved = Link::new(0, sender, link.receiver);
                    (moved.sender_node, moved.receiver_node) =
                        (link.sender_node, link.receiver_node);
                    let back = engine.insert(moved);
                    row_edges += engine.neighbors(back).len() as u64;
                }
                assert_matches_scratch(&engine);
                let metrics = rec.metrics();
                let rows = metrics.counter("engine.rows_recomputed").expect("rows");
                let checked = metrics.counter("engine.pairs_checked").expect("checks");
                assert_eq!(rows, links.len().div_ceil(3) as u64);
                assert!(
                    checked <= 2 * row_edges + rows,
                    "seed {seed}, {relation}: {checked} exact checks for {rows} rows with {row_edges} edges"
                );
            }
        }
    }

    /// Candidates read per recomputed row while every link of a 10×10
    /// population of unit links is moved `rounds` times, one link at a time
    /// (remove, then insert at `at(home, round)`).
    fn candidates_per_row(rounds: usize, at: impl Fn(Point, usize) -> Point) -> f64 {
        let homes: Vec<Point> = (0..100)
            .map(|i| Point::new((i % 10) as f64 * 2.5, (i / 10) as f64 * 2.5))
            .collect();
        let unit = |s: Point| Link::new(0, s, Point::new(s.x + 1.0, s.y));
        let links: Vec<Link> = homes.iter().map(|&h| unit(h)).collect();
        let config = EngineConfig::new(
            ConflictRelation::unit_constant(),
            SinrModel::default(),
            PowerAssignment::mean(),
        );
        let mut engine = InterferenceEngine::with_links(config, &links);
        let rec = Recorder::new();
        engine.set_recorder(rec.clone());
        for round in 1..=rounds {
            for (slot, &home) in homes.iter().enumerate() {
                engine.remove_link(slot).unwrap();
                assert_eq!(engine.insert(unit(at(home, round))), slot);
            }
        }
        assert_matches_scratch(&engine);
        let metrics = rec.metrics();
        let rows = metrics.counter("engine.rows_recomputed").expect("rows");
        let read = metrics.counter("engine.candidates_visited").expect("reads");
        read as f64 / rows as f64
    }

    #[test]
    fn a_drifting_population_keeps_class_queries_local() {
        // The population spans about 25 units. Translating it ten spans
        // away in steps of one link length must cost class queries what a
        // stationary churn of the same links costs, up to a constant: the
        // classes re-lay out over where the links went instead of piling
        // them into border cells.
        let rounds = 250;
        let drifting = candidates_per_row(rounds, |home, round| {
            let step = round as f64 * std::f64::consts::FRAC_1_SQRT_2;
            Point::new(home.x + step, home.y + step)
        });
        let stationary = candidates_per_row(rounds, |home, round| {
            let jitter = if round % 2 == 1 { 0.5 } else { 0.0 };
            Point::new(home.x + jitter, home.y - jitter)
        });
        assert!(
            drifting <= 3.0 * stationary,
            "{drifting:.1} candidates per row drifting vs {stationary:.1} stationary"
        );
    }

    #[test]
    fn schedule_reuses_engine_state_and_matches_schedule_links() {
        let links: Vec<Link> = (0..60)
            .map(|i| {
                let x = (i % 10) as f64 * 4.0;
                let y = (i / 10) as f64 * 4.0;
                Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
            })
            .collect();
        for mode in [PowerMode::mean_oblivious(), PowerMode::GlobalControl] {
            let sched_config = SchedulerConfig::new(mode);
            let engine =
                InterferenceEngine::with_links(EngineConfig::for_scheduler(sched_config), &links);
            let via_engine = engine.schedule();
            let direct =
                wagg_schedule::solve_static(&engine.links(), sched_config, &Recorder::disabled());
            assert_eq!(
                via_engine, direct,
                "{mode}: engine path changed the schedule"
            );
        }
    }
}
