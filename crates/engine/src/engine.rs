//! The incremental interference engine.

use crate::classes::LengthClasses;
use crate::error::EngineError;
use crate::overlay::DeltaAdjacency;
use std::collections::HashMap;
use wagg_conflict::{ConflictGraph, ConflictRelation};
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
    /// Class-grid rebuild slack: a class rebuilds its grid once the churn
    /// since the last rebuild (pending inserts + tombstones) exceeds this
    /// fraction of its live membership. Smaller values mean snappier queries
    /// and more frequent rebuilds.
    pub grid_slack: f64,
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
            grid_slack: 0.25,
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
            grid_slack: 0.25,
            compact_slack: 0.25,
        }
    }

    /// The SINR model state is maintained under (the scheduler's model).
    pub fn model(&self) -> &SinrModel {
        &self.scheduler.model
    }

    /// Overrides both maintenance slacks (useful to force threshold
    /// crossings in tests).
    pub fn with_slacks(mut self, grid_slack: f64, compact_slack: f64) -> Self {
        assert!(
            grid_slack > 0.0 && compact_slack > 0.0,
            "slacks must be positive"
        );
        self.grid_slack = grid_slack;
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
    /// Class-grid rebuilds triggered by occupancy thresholds.
    pub grid_rebuilds: usize,
    /// Delta-overlay compactions of the conflict adjacency.
    pub compactions: usize,
    /// Populated length classes right now.
    pub length_classes: usize,
    /// Half-edges currently sitting in the adjacency overlay.
    pub overlay_half_edges: usize,
}

/// One slot-level operation of a batch (see
/// [`InterferenceEngine::apply_batch`]). The variants mirror the per-event
/// API: `Insert` reports its assigned slot through the batch result,
/// `Remove` names a live slot, `MoveNode` re-seats every link annotated with
/// the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchOp {
    /// Insert a link (node annotations make it follow `MoveNode` events).
    Insert {
        /// Sender position.
        sender: Point,
        /// Receiver position.
        receiver: Point,
        /// Pointset node of the sender, if tracked.
        sender_node: Option<NodeId>,
        /// Pointset node of the receiver, if tracked.
        receiver_node: Option<NodeId>,
    },
    /// Remove the live link in `slot`.
    Remove {
        /// The slot to clear.
        slot: usize,
    },
    /// Move a pointset node; every live link touching it follows.
    MoveNode {
        /// The moving node.
        node: usize,
        /// Its new position.
        to: Point,
    },
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
/// use wagg_sinr::{PowerAssignment, SinrModel};
///
/// let config = EngineConfig::new(
///     ConflictRelation::unit_constant(),
///     SinrModel::default(),
///     PowerAssignment::mean(),
/// );
/// let mut engine = InterferenceEngine::new(config);
/// let a = engine.insert_link(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
/// let b = engine.insert_link(Point::new(1.5, 0.0), Point::new(2.5, 0.0));
/// let c = engine.insert_link(Point::new(50.0, 0.0), Point::new(51.0, 0.0));
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
    /// Per-length-class spatial indexes over positive-length live links.
    classes: LengthClasses,
    /// Live zero-length links (they conflict with everything), sorted.
    degenerate: Vec<usize>,
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
    /// Pre-resolved handle for `engine.rows_recomputed` (one relaxed atomic
    /// add per conflict-row computation, no name lookup on the hot path).
    rows_counter: Counter,
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
            classes: LengthClasses::new(),
            degenerate: Vec::new(),
            adj: DeltaAdjacency::new(),
            powers: Vec::new(),
            weights: Vec::new(),
            node_links: HashMap::new(),
            stats: EngineStats::default(),
            recorder: Recorder::disabled(),
            rows_counter: Counter::default(),
        }
    }

    /// Routes the engine's instrumentation to `rec`: conflict-row
    /// recomputations tick `engine.rows_recomputed`, and every
    /// [`InterferenceEngine::schedule`] records its snapshot/coloring spans
    /// and syncs the `engine.grid_rebuilds` / `engine.compactions`
    /// maintenance watermarks. A disabled recorder (the default) keeps all
    /// of it no-op.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rows_counter = rec.counter("engine.rows_recomputed");
        self.recorder = rec;
    }

    /// The engine's instrumentation sink (disabled unless
    /// [`InterferenceEngine::set_recorder`] was called).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Bulk-seeds an engine from a link set, assigning slots `0..n` in input
    /// order, and returns it. Uses the grid-accelerated
    /// [`ConflictGraph::build`] once for the whole set (much faster than `n`
    /// single insertions) and adopts its CSR arrays as the adjacency base.
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
        let graph = ConflictGraph::build(&relabeled, config.relation);
        let (offsets, neighbors) = graph.csr();
        let cache = PathLossCache::new(config.model(), &relabeled, &config.power);
        let (powers, weights) = cache.into_parts();

        let mut engine = InterferenceEngine::new(config);
        engine.adj = DeltaAdjacency::from_csr(offsets, neighbors);
        engine.powers = powers;
        engine.weights = weights;
        engine.bboxes = relabeled
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();
        engine.live = relabeled.len();
        engine.links = relabeled.into_iter().map(Some).collect();
        for slot in 0..engine.links.len() {
            let link = engine.links[slot].as_ref().expect("just inserted");
            if link.length() <= 0.0 {
                engine.degenerate.push(slot);
            }
            Self::register_node_links(&mut engine.node_links, link, slot);
        }
        // Populate the class grids from the live slots (one rebuild per class
        // at most, via the shared insert path).
        for slot in 0..engine.links.len() {
            if engine.links[slot].as_ref().expect("live").length() > 0.0 {
                engine.classes.insert(
                    slot,
                    &engine.links,
                    &engine.bboxes,
                    engine.config.grid_slack,
                );
            }
        }
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
        stats.grid_rebuilds = self.classes.rebuilds();
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

    /// Inserts a link between two positions, returning its slot.
    pub fn insert_link(&mut self, sender: Point, receiver: Point) -> usize {
        self.insert_annotated(sender, receiver, None, None)
    }

    /// Inserts a link that records the pointset nodes it connects (required
    /// for the link to follow [`InterferenceEngine::move_node`] events).
    pub fn insert_link_with_nodes(
        &mut self,
        sender: Point,
        receiver: Point,
        sender_node: NodeId,
        receiver_node: NodeId,
    ) -> usize {
        self.insert_annotated(sender, receiver, Some(sender_node), Some(receiver_node))
    }

    /// Inserts a link with whatever node annotations it carries — both, one
    /// or none, exactly as [`InterferenceEngine::with_links`] seeds them. An
    /// annotated endpoint follows [`InterferenceEngine::move_node`] events;
    /// a half-annotated link follows its one annotated endpoint.
    pub fn insert_annotated(
        &mut self,
        sender: Point,
        receiver: Point,
        sender_node: Option<NodeId>,
        receiver_node: Option<NodeId>,
    ) -> usize {
        let slot = self.alloc_slot();
        let mut link = Link::new(slot, sender, receiver);
        link.sender_node = sender_node;
        link.receiver_node = receiver_node;
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
        self.reseat_node_links(node, to, false).len()
    }

    /// The shared re-seat body of [`InterferenceEngine::move_node`] and the
    /// batch `MoveNode` arm: every live link touching `node` is detached and
    /// re-attached in its own slot with the updated endpoint. With
    /// `defer_rows` the conflict rows are left for the caller to finalise
    /// ([`InterferenceEngine::apply_batch`]'s end-of-batch pass); otherwise
    /// each link's row is recomputed immediately, per link, exactly like the
    /// per-event path always has. Returns the touched slots.
    fn reseat_node_links(&mut self, node: usize, to: Point, defer_rows: bool) -> Vec<usize> {
        let slots = match self.node_links.get(&node) {
            Some(slots) => slots.clone(),
            None => return Vec::new(),
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
            self.attach_core(slot, link);
            if !defer_rows {
                self.link_conflict_row(slot, false);
            }
        }
        self.stats.moves += 1;
        slots
    }

    /// Applies a whole batch of events, recomputing each affected conflict
    /// row **once** against the batch's final state instead of per event.
    ///
    /// The per-event path pays one row computation per touching event: a
    /// node shared by two links re-seats both links per `move_node`, and a
    /// trace step moving many nearby nodes recomputes overlapping
    /// neighbourhoods over and over. `apply_batch` applies every geometric
    /// mutation first (slot tables, class grids, path-loss state — all
    /// per-event cheap), collects the set of touched slots, and only then
    /// computes the conflict rows of the touched slots that are still live.
    /// The final state is **identical** to applying the same operations one
    /// by one (the property tests assert snapshot equality): rows of
    /// untouched links never change (conflicts are pairwise-geometric), a
    /// detached link's edges are removed eagerly, and a touched link's row
    /// computed against the final state is the row the per-event path
    /// converges to.
    ///
    /// Returns the slots assigned to the batch's `Insert` operations, in
    /// operation order.
    ///
    /// # Errors
    ///
    /// Propagates the first `Remove` error (unknown or empty slot), exactly
    /// where the sequential path would fail: operations before the failing
    /// one are applied (and their rows finalised), the rest are not.
    pub fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<Vec<usize>, EngineError> {
        let mut dirty: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut inserted = Vec::new();
        let mut failure = None;
        for op in ops {
            match *op {
                BatchOp::Insert {
                    sender,
                    receiver,
                    sender_node,
                    receiver_node,
                } => {
                    let slot = self.alloc_slot();
                    let link = match (sender_node, receiver_node) {
                        (Some(s), Some(r)) => Link::with_nodes(slot, sender, receiver, s, r),
                        _ => Link::new(slot, sender, receiver),
                    };
                    self.attach_core(slot, link);
                    if link.sender_node.is_some() || link.receiver_node.is_some() {
                        Self::register_node_links(&mut self.node_links, &link, slot);
                    }
                    dirty.insert(slot);
                    inserted.push(slot);
                }
                BatchOp::Remove { slot } => {
                    // remove_link detaches eagerly (edges drop immediately),
                    // so a dead slot in `dirty` is simply skipped below —
                    // unless a later insert recycles it.
                    if let Err(e) = self.remove_link(slot) {
                        failure = Some(e);
                        break;
                    }
                }
                BatchOp::MoveNode { node, to } => {
                    for slot in self.reseat_node_links(node, to, true) {
                        dirty.insert(slot);
                    }
                }
            }
        }
        // Row finalisation: every touched slot that is still live gets its
        // row computed once, against the final state. Two fresh slots
        // discover their mutual edge from both sides, hence the dedup.
        for slot in dirty {
            if self.links[slot].is_some() {
                self.link_conflict_row(slot, true);
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(inserted),
        }
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

    /// Wires a link into every maintained structure at `slot`.
    fn attach(&mut self, slot: usize, link: Link) {
        self.attach_core(slot, link);
        self.link_conflict_row(slot, false);
    }

    /// Everything [`InterferenceEngine::attach`] maintains *except* the
    /// conflict adjacency row: geometry tables, class grids, path-loss state.
    /// Callers must follow up with [`InterferenceEngine::link_conflict_row`]
    /// — immediately (the per-event path) or once at the end of a batch
    /// ([`InterferenceEngine::apply_batch`]), after every other mutation of
    /// the batch has landed.
    fn attach_core(&mut self, slot: usize, link: Link) {
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
        if link.length() > 0.0 {
            self.classes
                .insert(slot, &self.links, &self.bboxes, self.config.grid_slack);
        } else if let Err(pos) = self.degenerate.binary_search(&slot) {
            self.degenerate.insert(pos, slot);
        }
        self.stats.inserts += 1;
    }

    /// Computes the conflict row of the (live) link in `slot` against the
    /// current state and links every discovered edge. The row of a live link
    /// is correct whenever it was computed against the final state of all
    /// other slots.
    ///
    /// `dedup` skips edges already present — only a batch finalisation can
    /// see those (two fresh links discover their mutual edge from both
    /// sides); on the per-event path a freshly attached or just-isolated
    /// slot never has edges, so the extra adjacency probe is skipped there.
    fn link_conflict_row(&mut self, slot: usize, dedup: bool) {
        self.rows_counter.add(1);
        let link = self.links[slot].expect("linking a live slot");
        let bbox = self.bboxes[slot];
        let row = self.conflict_row(&link, &bbox, slot);
        // Cover the whole slot table: in a batch, this row may reference
        // slots allocated after `slot` whose own rows are still pending.
        self.adj.ensure_capacity(self.links.len());
        for &w in &row {
            if !dedup || !self.adj.are_adjacent(slot, w) {
                self.adj.link(slot, w);
            }
        }
        self.adj.maybe_compact(self.config.compact_slack);
    }

    /// Unwires the link at `slot` from every maintained structure (the slot
    /// itself is not freed — `move_node` re-attaches in place).
    fn detach(&mut self, slot: usize) -> Link {
        let link = self.links[slot].take().expect("detaching a live slot");
        self.adj.isolate(slot);
        self.adj.maybe_compact(self.config.compact_slack);
        self.powers[slot] = None;
        self.weights[slot] = None;
        if link.length() > 0.0 {
            self.classes.remove(
                link.length(),
                &self.links,
                &self.bboxes,
                self.config.grid_slack,
            );
        } else if let Ok(pos) = self.degenerate.binary_search(&slot) {
            self.degenerate.remove(pos);
        }
        self.live -= 1;
        self.stats.removals += 1;
        link
    }

    /// The sorted conflict row of `link` against every live link except
    /// `exclude` (the slot the link is being attached to).
    fn conflict_row(&self, link: &Link, bbox: &BoundingBox, exclude: usize) -> Vec<usize> {
        let mut row: Vec<usize> = Vec::new();
        let mut push = |j: usize| {
            if j != exclude {
                if let Some(other) = self.links[j].as_ref() {
                    if self.config.relation.conflicting(link, other) {
                        row.push(j);
                    }
                }
            }
        };
        if link.length() <= 0.0 {
            // A degenerate link conflicts with every distinct live link.
            for j in 0..self.links.len() {
                push(j);
            }
        } else {
            self.classes
                .for_each_candidate(link, bbox, self.config.relation, &mut push);
            for &j in &self.degenerate {
                push(j);
            }
        }
        row.sort_unstable();
        row.dedup();
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

    /// The maintained path-loss state of one live slot, `(power, weight)` —
    /// the single-slot view of [`InterferenceEngine::cache_parts`], so a
    /// caller mirroring the live set can patch just the entries an event
    /// touched instead of re-collecting all of them.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range (dead slots return the stored
    /// `None`s, which is what a mirror should hold for them anyway — but
    /// callers are expected to ask about live slots only).
    pub fn cache_entry(&self, slot: usize) -> (Option<f64>, Option<f64>) {
        (self.powers[slot], self.weights[slot])
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
        engine.insert_link(Point::on_line(s), Point::on_line(r))
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
    fn move_node_reseats_every_touching_link() {
        let mut e = engine();
        // A 3-node chain 0 -> 1 -> 2; node 1 is on both links.
        let l0 = e.insert_link_with_nodes(
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            NodeId(0),
            NodeId(1),
        );
        let l1 = e.insert_link_with_nodes(
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            NodeId(1),
            NodeId(2),
        );
        assert!(e.are_adjacent(l0, l1)); // shared endpoint
        let touched = e.move_node(1, Point::new(100.0, 100.0));
        assert_eq!(touched, 2);
        let moved = *e.link(l0).unwrap();
        assert_eq!(moved.receiver, Point::new(100.0, 100.0));
        assert!(e.are_adjacent(l0, l1)); // still share node 1
        assert_matches_scratch(&e);
        assert_eq!(e.move_node(99, Point::origin()), 0);
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
            incremental.insert_link(l.sender, l.receiver);
        }
        assert_eq!(bulk.snapshot(), incremental.snapshot());
        assert_matches_scratch(&bulk);
    }

    #[test]
    fn apply_batch_equals_per_event_application() {
        let ops = vec![
            BatchOp::Insert {
                sender: Point::on_line(0.0),
                receiver: Point::on_line(1.0),
                sender_node: Some(NodeId(0)),
                receiver_node: Some(NodeId(1)),
            },
            BatchOp::Insert {
                sender: Point::on_line(1.4),
                receiver: Point::on_line(2.4),
                sender_node: None,
                receiver_node: None,
            },
            BatchOp::Insert {
                sender: Point::on_line(30.0),
                receiver: Point::on_line(31.0),
                sender_node: None,
                receiver_node: None,
            },
            BatchOp::MoveNode {
                node: 1,
                to: Point::on_line(29.5),
            },
            BatchOp::Remove { slot: 1 },
        ];
        let mut batched = engine();
        let inserted = batched.apply_batch(&ops).unwrap();
        assert_eq!(inserted, vec![0, 1, 2]);

        let mut sequential = engine();
        sequential.insert_link_with_nodes(
            Point::on_line(0.0),
            Point::on_line(1.0),
            NodeId(0),
            NodeId(1),
        );
        sequential.insert_link(Point::on_line(1.4), Point::on_line(2.4));
        sequential.insert_link(Point::on_line(30.0), Point::on_line(31.0));
        sequential.move_node(1, Point::on_line(29.5));
        sequential.remove_link(1).unwrap();

        assert_eq!(batched.snapshot(), sequential.snapshot());
        assert_matches_scratch(&batched);
    }

    #[test]
    fn apply_batch_recycles_slots_and_reports_errors_in_place() {
        let mut e = engine();
        let a = line(&mut e, 0.0, 1.0);
        // Remove and re-insert in one batch: the insert recycles slot `a`.
        let inserted = e
            .apply_batch(&[
                BatchOp::Remove { slot: a },
                BatchOp::Insert {
                    sender: Point::on_line(5.0),
                    receiver: Point::on_line(6.0),
                    sender_node: None,
                    receiver_node: None,
                },
            ])
            .unwrap();
        assert_eq!(inserted, vec![a]);
        assert_matches_scratch(&e);
        // A bad remove fails exactly where the sequential path would, with
        // the prior operations applied and rows finalised.
        let err = e
            .apply_batch(&[
                BatchOp::Insert {
                    sender: Point::on_line(10.0),
                    receiver: Point::on_line(11.0),
                    sender_node: None,
                    receiver_node: None,
                },
                BatchOp::Remove { slot: 99 },
            ])
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownSlot { slot: 99 });
        assert_eq!(e.len(), 2);
        assert_matches_scratch(&e);
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
            let direct = wagg_schedule::solve_static(&engine.links(), sched_config);
            assert_eq!(
                via_engine, direct,
                "{mode}: engine path changed the schedule"
            );
        }
    }
}
