//! Warm-start slot repair: re-place only the links an event batch touched.
//!
//! Every backend used to recolor from scratch per solve — PRs 2–5 made the
//! conflict graph, the path-loss cache and the per-shard state incremental,
//! but the *slot assignment* itself was discarded per event. This module
//! closes that gap: [`solve_repair`] works on the caller's warm state — the
//! previous coloring and affectance budgets, keyed by vertex position, with
//! `None` marking the links an event batch dirtied — and edits it in place:
//! it keeps every clean link in its slot, re-verifies only the slots whose
//! affectance budget may have changed, and first-fits the dirty links into
//! the lowest feasible slot — microseconds-to-milliseconds per event batch
//! instead of a full recolor. What it leaves behind is the next repair's
//! warm state; nothing needs replaying on top. The caller also carries the
//! coloring's slot membership (a [`SlotIndex`]) and the universe's length
//! diversity from event to event, so no part of a repair walks the whole
//! universe except the copy of the schedule into its report.
//!
//! The module is backend-agnostic: callers supply the conflict neighbourhood
//! (`neighbors`, e.g. the engine's incrementally maintained adjacency rows)
//! and a [`SlotJudge`] for the physical feasibility probes (the
//! [`CacheJudge`] here reuses the static kernel's probe semantics; the
//! sharded backend judges through `wagg_partition`'s hierarchical
//! `AffectanceVerifier`). The session facade owns the policy: which links
//! are dirty, when the schedule-length drift against the from-scratch
//! baseline breaches the watermark ([`RepairStats::drift`] vs
//! [`RepairStats::watermark`]) and a full recolor runs instead.
//!
//! # Correctness
//!
//! * Removing links from a slot never invalidates it: every feasibility
//!   notion the workspace schedules under (the affectance kernel of
//!   `PathLossCache`, the materialised [`PowerMode::slot_feasible`] checks)
//!   is monotone under subsets, so evictions and departures are safe without
//!   re-checking the survivors' other slots.
//! * Additions are always probed against the *full* candidate slot (graph
//!   constraint via `neighbors`, physical constraint via the judge), exactly
//!   like the static kernel's first-fit split.
//! * Dirty links are placed in non-increasing length order with ties by link
//!   id — the same deterministic order [`split_class_into_feasible`] uses —
//!   so repair runs are reproducible.
//!
//! [`split_class_into_feasible`]: crate::scheduler::split_class_into_feasible
//! [`PowerMode::slot_feasible`]: crate::PowerMode::slot_feasible

use crate::scheduler::{slot_ok, ScheduleReport, SchedulerConfig};
use serde::{Deserialize, Serialize};
use wagg_obs::Recorder;
pub use wagg_obs::RepairDecision;
use wagg_sinr::{Link, PathLossCache};

/// Warm-start accounting carried by repair-enabled
/// [`SolveReport`](crate::SolveReport)s (`None` when repair is disabled —
/// the report is then byte-identical to a pre-repair one).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairStats {
    /// How the schedule was produced (see [`RepairDecision`]).
    pub decision: RepairDecision,
    /// Links the event batch dirtied (inserted, relocated, or re-seated by a
    /// node move) since the previous solve.
    pub dirty_links: usize,
    /// Links actually re-placed: the dirty links plus every link evicted
    /// from a re-verified slot. On a full recolor, the whole universe.
    pub replaced_links: usize,
    /// Schedule length of the from-scratch baseline the drift is measured
    /// against (the last full recolor).
    pub baseline_slots: usize,
    /// Relative schedule-length drift vs. the baseline,
    /// `(slots - baseline) / baseline`.
    pub drift: f64,
    /// The configured drift watermark; repairs drifting past it fall back
    /// to a full recolor.
    pub watermark: f64,
}

/// Physical slot-feasibility probes for [`solve_repair`] — the seam that
/// lets each backend judge with whatever state it maintains incrementally.
pub trait SlotJudge {
    /// Whether the links at `members` (vertex positions) can share a slot.
    /// Must match the verdict the backend's full solve would reach for the
    /// same materialised slot.
    fn feasible(&self, members: &[usize]) -> bool;

    /// One re-verification sweep over a slot: `(kept, evicted)`, member
    /// order preserved, with `kept` feasible as a set. The default is
    /// all-or-nothing (sound for any judge); judges over a monotone kernel
    /// override it with per-target verdicts so one bad member does not
    /// displace the whole slot.
    fn evict(&self, members: &[usize]) -> (Vec<usize>, Vec<usize>) {
        if self.feasible(members) {
            (members.to_vec(), Vec::new())
        } else {
            (Vec::new(), members.to_vec())
        }
    }

    /// Whether this judge's feasibility decomposes into per-target additive
    /// budgets: a slot is feasible iff every member's budget (the sum of
    /// [`SlotJudge::contribution`] over its slotmates) stays within
    /// [`SlotJudge::threshold`]. Additive judges unlock the O(|slot|)
    /// admission probes that make repair microseconds instead of a full
    /// slot re-verification per probe.
    fn additive(&self) -> bool {
        false
    }

    /// The budget threshold additive admission compares against (the
    /// affectance kernel's `1/β`). Only consulted when
    /// [`SlotJudge::additive`] is true.
    fn threshold(&self) -> f64 {
        1.0
    }

    /// The exact contribution of `source`'s transmission to `target`'s
    /// budget (vertex positions): `0` for the target itself,
    /// `f64::INFINITY` when the pair cannot be priced (unknown power or
    /// weight, collocated sender — the kernel's error-means-infeasible
    /// convention). Only consulted when [`SlotJudge::additive`] is true.
    fn contribution(&self, source: usize, target: usize) -> f64 {
        let _ = (source, target);
        f64::INFINITY
    }
}

/// The default judge: exactly the static kernel's slot probes — through a
/// shared [`PathLossCache`] when the power mode has a fixed assignment under
/// a noise-free model, materialising the slot otherwise. A lent cache must
/// cover `links` in vertex order (the [`schedule_prebuilt`] contract).
///
/// [`schedule_prebuilt`]: crate::scheduler::schedule_prebuilt
#[derive(Debug)]
pub struct CacheJudge<'a> {
    links: &'a [Link],
    config: SchedulerConfig,
    cache: Option<&'a PathLossCache<'a>>,
}

impl<'a> CacheJudge<'a> {
    /// A judge over `links`; `cache` is consulted only for noise-free models
    /// (the cache kernel is noise-free — same filter the kernel applies).
    pub fn new(
        links: &'a [Link],
        config: SchedulerConfig,
        cache: Option<&'a PathLossCache<'a>>,
    ) -> Self {
        let cache = cache.filter(|_| config.model.noise() == 0.0);
        if let Some(cache) = cache {
            assert_eq!(
                cache.links().len(),
                links.len(),
                "path-loss cache covers a different link set"
            );
        }
        CacheJudge {
            links,
            config,
            cache,
        }
    }
}

impl SlotJudge for CacheJudge<'_> {
    fn feasible(&self, members: &[usize]) -> bool {
        slot_ok(self.links, members, &self.config, self.cache)
    }

    fn additive(&self) -> bool {
        self.cache.is_some()
    }

    fn threshold(&self) -> f64 {
        1.0 / self.config.model.beta()
    }

    #[inline]
    fn contribution(&self, source: usize, target: usize) -> f64 {
        self.cache
            .expect("contribution is only consulted on additive judges")
            .interference_term(source, target)
            .unwrap_or(f64::INFINITY)
    }

    fn evict(&self, members: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let Some(cache) = self.cache else {
            // No cache (global power control, or a noisy model): the
            // feasibility test is holistic, so eviction is all-or-nothing.
            return if self.feasible(members) {
                (members.to_vec(), Vec::new())
            } else {
                (Vec::new(), members.to_vec())
            };
        };
        if members.len() <= 1 {
            return if self.feasible(members) {
                (members.to_vec(), Vec::new())
            } else {
                (Vec::new(), members.to_vec())
            };
        }
        // Per-target verdicts with every member still present: the
        // affectance kernel is monotone, so the kept targets (which passed
        // with the evicted interferers included) remain feasible together.
        let inv_beta = 1.0 / self.config.model.beta();
        let mut kept = Vec::with_capacity(members.len());
        let mut evicted = Vec::new();
        for k in 0..members.len() {
            let ok = cache
                .subset_relative_interference_on(members, k)
                .is_some_and(|total| total <= inv_beta);
            if ok {
                kept.push(members[k]);
            } else {
                evicted.push(members[k]);
            }
        }
        (kept, evicted)
    }
}

/// Slot membership of a warm coloring, kept current between repairs so
/// [`solve_repair`] never scatters the whole universe into slot vectors.
///
/// Slot `c` lists, ascending, the positions whose warm color is `Some(c)`;
/// the unassigned list holds, ascending, the positions whose color is
/// `None` (the dirty links). Trailing empty slots are dropped, interior ones
/// are kept until the next repair compacts them — so an index kept in
/// lockstep with a warm coloring always equals
/// [`SlotIndex::from_colors`] of it. The splice methods move positions the
/// way a position-indexed warm state moves under the same event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotIndex {
    slots: Vec<Vec<usize>>,
    unassigned: Vec<usize>,
}

impl SlotIndex {
    /// The membership of `colors` built from scratch: every position pushed
    /// in ascending order into its slot (or the unassigned list), one slot
    /// per color up to the largest one in use.
    pub fn from_colors(colors: &[Option<usize>]) -> Self {
        let num_colors = colors.iter().flatten().copied().max().map_or(0, |c| c + 1);
        // Pre-counted capacities: growth reallocations would double the
        // traffic of this O(n) pass.
        let mut counts = vec![0usize; num_colors];
        for &c in colors.iter().flatten() {
            counts[c] += 1;
        }
        let mut slots: Vec<Vec<usize>> = counts.iter().map(|&k| Vec::with_capacity(k)).collect();
        let mut unassigned = Vec::new();
        for (i, &color) in colors.iter().enumerate() {
            match color {
                Some(c) => slots[c].push(i),
                None => unassigned.push(i),
            }
        }
        SlotIndex { slots, unassigned }
    }

    /// Splices a fresh, unassigned position in at `pos`; positions at and
    /// after it shift up by one.
    pub fn insert(&mut self, pos: usize) {
        for list in self.lists() {
            let k = list.partition_point(|&m| m < pos);
            for m in &mut list[k..] {
                *m += 1;
            }
        }
        let k = self.unassigned.partition_point(|&m| m < pos);
        self.unassigned.insert(k, pos);
    }

    /// Drops position `pos`, whose warm color is `color`; positions after
    /// it shift down by one.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is not indexed under `color`.
    pub fn remove(&mut self, pos: usize, color: Option<usize>) {
        let list = match color {
            Some(c) => &mut self.slots[c],
            None => &mut self.unassigned,
        };
        let k = list
            .binary_search(&pos)
            .expect("position indexed under its color");
        list.remove(k);
        for list in self.lists() {
            let k = list.partition_point(|&m| m < pos);
            for m in &mut list[k..] {
                *m -= 1;
            }
        }
        self.trim();
    }

    /// Moves position `pos` from slot `color` to the unassigned list (its
    /// link was dirtied in place).
    ///
    /// # Panics
    ///
    /// Panics when `pos` is not a member of slot `color`.
    pub fn unassign(&mut self, pos: usize, color: usize) {
        let slot = &mut self.slots[color];
        let k = slot
            .binary_search(&pos)
            .expect("position indexed under its color");
        slot.remove(k);
        let k = self.unassigned.partition_point(|&m| m < pos);
        self.unassigned.insert(k, pos);
        self.trim();
    }

    /// The unassigned positions, ascending.
    pub fn unassigned(&self) -> &[usize] {
        &self.unassigned
    }

    /// Every position list: the slots, then the unassigned list.
    fn lists(&mut self) -> impl Iterator<Item = &mut Vec<usize>> {
        self.slots
            .iter_mut()
            .chain(std::iter::once(&mut self.unassigned))
    }

    /// Drops trailing empty slots (what [`SlotIndex::from_colors`] sizes to).
    fn trim(&mut self) {
        while self.slots.last().is_some_and(Vec::is_empty) {
            self.slots.pop();
        }
    }
}

/// What one [`solve_repair`] call produced besides the edits it made to the
/// caller's warm state: the repaired report and the re-placement accounting.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired schedule report.
    pub report: ScheduleReport,
    /// Links re-placed overall: the dirty links plus every evicted member.
    pub replaced: usize,
    /// How many of the replaced links the re-verification sweep evicted.
    pub evicted: usize,
}

/// Exact per-vertex budgets for a warm assignment, summed through the
/// judge's pairwise [`SlotJudge::contribution`] terms — the reference
/// implementation of the budget contract [`solve_repair`] consumes.
/// Backends with a certified hierarchical verifier capture budgets through
/// it instead (same contract, near-linear instead of quadratic); this
/// helper is for tests and small universes.
pub fn capture_budgets(judge: &dyn SlotJudge, colors: &[Option<usize>]) -> Vec<f64> {
    let n = colors.len();
    let mut budgets = vec![0.0f64; n];
    if !judge.additive() {
        return budgets;
    }
    let mut slots: Vec<Vec<usize>> = Vec::new();
    for (i, &color) in colors.iter().enumerate() {
        if let Some(c) = color {
            if c >= slots.len() {
                slots.resize(c + 1, Vec::new());
            }
            slots[c].push(i);
        }
    }
    for slot in &slots {
        for &i in slot {
            budgets[i] = slot.iter().map(|&j| judge.contribution(j, i)).sum();
        }
    }
    budgets
}

/// Repairs a previous slot assignment after an event batch instead of
/// recoloring from scratch, editing the caller's warm state in place.
///
/// * `colors[i]` is link `i`'s slot in the previous schedule, `None` for
///   dirty links (inserted, relocated, re-seated — anything whose conflict
///   neighbourhood changed). Colors need not be contiguous; empty slots are
///   dropped from the result. On return `colors` is the repaired schedule's
///   slot map.
/// * `budgets[i]` must **upper-bound** the exact affectance total link `i`
///   sees inside its previous slot (exact values, a certified hierarchical
///   bound, or `f64::INFINITY` when unknown — conservative always errs
///   toward eviction/rejection, never toward an infeasible admission).
///   Entries for dirty links are ignored. Only consulted for additive
///   judges; seed them with [`capture_budgets`] (or a certified capture)
///   after a full recolor. On return they bound the repaired schedule the
///   same way, ready for the next repair; re-placed links of a non-additive
///   repair read zero. Budgets are deliberately *not* decreased on
///   departures (that would need the departed geometry); the stored bounds
///   just grow conservative until the drift watermark forces a
///   re-anchoring recolor.
/// * `index` is the [`SlotIndex`] of `colors`: the caller keeps it in
///   lockstep with the warm state between repairs (debug builds assert it
///   equals [`SlotIndex::from_colors`] on entry and exit), so the kernel
///   reads slot membership instead of scattering every link. On return it
///   indexes the repaired `colors`.
/// * `diversity` is the report's length diversity,
///   `link_diversity(links).unwrap_or(1.0)` — a whole-universe aggregate
///   the caller maintains per event instead of the kernel re-folding every
///   length per solve.
/// * `neighbors(i)` must yield `i`'s *current* conflict neighbours (vertex
///   positions) — e.g. the engine's incrementally maintained adjacency row.
/// * `check` lists links whose slots must be re-verified even though the
///   links themselves stay put — typically the dirty links' conflict
///   neighbours, whose affectance budget may have changed. For additive
///   judges each checked link's stored budget is compared against the
///   threshold (O(1) per link); otherwise each checked link's slot gets one
///   [`SlotJudge::evict`] sweep. Rejected members join the dirty links for
///   re-placement. Ignored when `config.verify_slots` is off (graph
///   constraints cannot go stale for links that did not move).
///
/// Dirty links go first-fit into the lowest slot passing both the graph
/// constraint and the judge (a fresh slot at the end otherwise), in
/// non-increasing length order with ties by link id. For additive judges an
/// admission probe is O(|slot|) with early exit — the new member's own
/// budget accumulates while every slotmate's budget is checked against the
/// threshold with the new contribution added — instead of the O(|slot|²)
/// whole-slot re-verification the opaque path needs. Admitted links append
/// to their slot, so later probes of the same call visit slotmates in
/// ascending position order followed by this call's admissions; the report
/// lists members in that order too, and only then are the touched slots
/// put back in ascending order for the next repair.
///
/// Records a `repair` span with `sweep` (stale-slot re-verification),
/// `place` (first-fit re-placement) and `commit` (compaction, the report
/// copy and the index re-sort) children on `rec`, plus the
/// `repair.dirty` / `repair.evicted` / `repair.admissions` /
/// `repair.rejections` / `repair.fresh_slots` counters (accumulated
/// locally — one atomic add per counter per call, nothing in the probe
/// loops). Pass [`Recorder::disabled`] to record nothing.
#[allow(clippy::too_many_arguments)]
pub fn solve_repair<J: SlotJudge + ?Sized>(
    links: &[Link],
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    judge: &J,
    config: &SchedulerConfig,
    colors: &mut [Option<usize>],
    budgets: &mut [f64],
    index: &mut SlotIndex,
    diversity: f64,
    check: &[usize],
    rec: &Recorder,
) -> RepairOutcome {
    // Generic (not `&dyn`) so concrete-judge callers — the session backends —
    // monomorphize the admission loops: the per-term `contribution` calls
    // inline instead of going through the vtable.
    let root = rec.span("repair");
    let n = links.len();
    assert_eq!(colors.len(), n, "one warm color per link");
    assert_eq!(budgets.len(), n, "one warm budget per link");
    debug_assert!(
        *index == SlotIndex::from_colors(colors),
        "slot index diverged from the warm colors"
    );
    let additive = config.verify_slots && judge.additive();
    let threshold = judge.threshold();

    let SlotIndex { slots, unassigned } = index;
    let mut pending = std::mem::take(unassigned);
    for &i in &pending {
        budgets[i] = 0.0;
    }

    let dirty = pending.len();

    // Re-verify the checked links; evicted members join the placement list.
    // Departures are monotone-safe, so only these can be stale.
    let sweep_span = root.child("sweep");
    let mut evicted_total = 0usize;
    if config.verify_slots {
        let mut checked: Vec<usize> = check.to_vec();
        checked.sort_unstable();
        checked.dedup();
        if additive {
            // O(1) per checked link: its stored budget is an upper bound,
            // so within-threshold links are certainly still feasible.
            for &v in &checked {
                let Some(c) = colors[v] else { continue };
                if budgets[v] > threshold {
                    let k = slots[c].binary_search(&v).expect("indexed under its color");
                    slots[c].remove(k);
                    colors[v] = None;
                    budgets[v] = 0.0;
                    evicted_total += 1;
                    pending.push(v);
                }
            }
        } else {
            let mut stale: Vec<usize> = checked.iter().filter_map(|&i| colors[i]).collect();
            stale.sort_unstable();
            stale.dedup();
            for c in stale {
                let (kept, evicted) = judge.evict(&slots[c]);
                if !evicted.is_empty() {
                    for &i in &evicted {
                        colors[i] = None;
                        budgets[i] = 0.0;
                    }
                    evicted_total += evicted.len();
                    pending.extend(evicted);
                    slots[c] = kept;
                }
            }
        }
    }
    sweep_span.finish();
    let replaced = pending.len();

    let place_span = root.child("place");
    let mut admissions = 0u64;
    let mut rejections = 0u64;
    let mut fresh_slots = 0u64;
    // First-fit placement in non-increasing length order (ties by link id —
    // the static kernel's split order, for determinism).
    pending.sort_by(|&a, &b| {
        links[b]
            .length()
            .total_cmp(&links[a].length())
            .then(links[a].id.cmp(&links[b].id))
    });
    // Stamps mark the colors of `i`'s conflict neighbours per placement.
    let mut mark: Vec<usize> = vec![usize::MAX; slots.len()];
    let mut candidate: Vec<usize> = Vec::new();
    let mut added: Vec<f64> = Vec::new();
    for (step, &i) in pending.iter().enumerate() {
        for j in neighbors(i) {
            if let Some(c) = colors[j] {
                mark[c] = step;
            }
        }
        let mut placed = None;
        for (c, slot) in slots.iter().enumerate() {
            if mark[c] == step {
                continue;
            }
            if additive {
                // O(|slot|) admission with early exit: every slotmate must
                // absorb `i`'s contribution, and `i`'s own budget must close
                // under the threshold.
                let mut own = 0.0f64;
                added.clear();
                let mut ok = true;
                for &m in slot.iter() {
                    let on_m = judge.contribution(i, m);
                    if budgets[m] + on_m > threshold {
                        ok = false;
                        break;
                    }
                    own += judge.contribution(m, i);
                    if own > threshold {
                        ok = false;
                        break;
                    }
                    added.push(on_m);
                }
                if !ok {
                    rejections += 1;
                    continue;
                }
                for (&m, &on_m) in slot.iter().zip(&added) {
                    budgets[m] += on_m;
                }
                budgets[i] = own;
            } else if config.verify_slots {
                candidate.clear();
                candidate.extend_from_slice(slot);
                candidate.push(i);
                if !judge.feasible(&candidate) {
                    rejections += 1;
                    continue;
                }
            }
            placed = Some(c);
            break;
        }
        if placed.is_some() {
            admissions += 1;
        }
        let c = placed.unwrap_or_else(|| {
            fresh_slots += 1;
            slots.push(Vec::new());
            mark.push(usize::MAX);
            slots.len() - 1
        });
        slots[c].push(i);
        colors[i] = Some(c);
    }
    place_span.finish();
    rec.add("repair.dirty", dirty as u64);
    rec.add("repair.evicted", evicted_total as u64);
    rec.add("repair.admissions", admissions);
    rec.add("repair.rejections", rejections);
    rec.add("repair.fresh_slots", fresh_slots);

    let commit_span = root.child("commit");
    // Compact empty slots away: only the members of slots whose index
    // shifts down are renumbered.
    let mut kept = 0usize;
    for (c, slot) in slots.iter().enumerate() {
        if slot.is_empty() {
            continue;
        }
        if c != kept {
            for &m in slot {
                colors[m] = Some(kept);
            }
        }
        kept += 1;
    }
    slots.retain(|s| !s.is_empty());
    let report = ScheduleReport::new(slots.clone(), slots.len(), diversity, config.mode, n);
    // The report keeps admission order; the index goes back to ascending
    // positions, the order the next repair's probes must visit. A slot's
    // admissions are its tail (appended after its ascending clean
    // members), so each one moves into place with one binary search —
    // O(|slot|) per admission, where a sort would be O(|slot| log |slot|).
    let mut admitted: Vec<(usize, usize)> = pending
        .iter()
        .map(|&i| (colors[i].expect("placed"), i))
        .collect();
    admitted.sort_unstable();
    for run in admitted.chunk_by(|a, b| a.0 == b.0) {
        let slot = &mut slots[run[0].0];
        slot.truncate(slot.len() - run.len());
        for &(_, i) in run {
            let k = slot.partition_point(|&m| m < i);
            slot.insert(k, i);
        }
    }
    pending.clear();
    *unassigned = pending;
    commit_span.finish();
    debug_assert!(
        *index == SlotIndex::from_colors(colors),
        "slot index diverged from the repaired colors"
    );
    RepairOutcome {
        report,
        replaced,
        evicted: evicted_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_mode::PowerMode;
    use crate::scheduler::solve_static;
    use wagg_conflict::ConflictGraph;
    use wagg_geometry::Point;
    use wagg_sinr::link::link_diversity;
    use wagg_sinr::Link;

    fn chain(n: usize, spacing: f64) -> Vec<Link> {
        (0..n)
            .map(|i| {
                let x = i as f64 * spacing;
                Link::new(i, Point::new(x, 0.0), Point::new(x + 1.0, 0.0))
            })
            .collect()
    }

    fn harness(
        links: &[Link],
        config: SchedulerConfig,
    ) -> (ConflictGraph, Option<PathLossCache<'_>>) {
        let graph =
            ConflictGraph::build(links, config.mode.conflict_relation(config.model.alpha()));
        let cache = config
            .mode
            .assignment()
            .map(|a| PathLossCache::new(&config.model, links, &a));
        (graph, cache)
    }

    fn colors_of(report: &ScheduleReport, n: usize) -> Vec<Option<usize>> {
        let mut colors = vec![None; n];
        for (t, slot) in report.schedule.slots().iter().enumerate() {
            for &i in slot {
                colors[i] = Some(t);
            }
        }
        colors
    }

    /// Repairs a copy of `prev`, warm-started from exact captured budgets;
    /// returns the outcome and the warm colors and budgets it left behind.
    fn repair<J: SlotJudge>(
        links: &[Link],
        graph: &ConflictGraph,
        judge: &J,
        config: &SchedulerConfig,
        prev: &[Option<usize>],
        check: &[usize],
    ) -> (RepairOutcome, Vec<Option<usize>>, Vec<f64>) {
        let mut colors = prev.to_vec();
        let mut budgets = capture_budgets(judge, prev);
        let mut index = SlotIndex::from_colors(prev);
        let outcome = solve_repair(
            links,
            &|i| graph.neighbors(i).to_vec(),
            judge,
            config,
            &mut colors,
            &mut budgets,
            &mut index,
            link_diversity(links).unwrap_or(1.0),
            check,
            &Recorder::disabled(),
        );
        assert_eq!(index, SlotIndex::from_colors(&colors));
        (outcome, colors, budgets)
    }

    #[test]
    fn no_dirt_reproduces_the_previous_schedule() {
        let links = chain(24, 5.0);
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let full = solve_static(&links, config, &Recorder::disabled());
        let prev = colors_of(&full, links.len());
        let (graph, cache) = harness(&links, config);
        let judge = CacheJudge::new(&links, config, cache.as_ref());
        let (outcome, colors, _) = repair(&links, &graph, &judge, &config, &prev, &[]);
        assert_eq!(outcome.replaced, 0);
        assert_eq!(outcome.evicted, 0);
        assert_eq!(outcome.report.schedule, full.schedule);
        assert_eq!(colors, prev);
    }

    #[test]
    fn dirty_links_are_replaced_feasibly() {
        // A dense cluster plus far-away links: dirtying one cluster link must
        // re-place it without breaking feasibility anywhere.
        let mut links = chain(20, 40.0);
        links.push(Link::new(20, Point::new(0.3, 0.4), Point::new(1.3, 0.4)));
        for mode in [
            PowerMode::Uniform,
            PowerMode::mean_oblivious(),
            PowerMode::GlobalControl,
        ] {
            let config = SchedulerConfig::new(mode);
            let full = solve_static(&links, config, &Recorder::disabled());
            let mut prev = colors_of(&full, links.len());
            prev[20] = None;
            let (graph, cache) = harness(&links, config);
            let judge = CacheJudge::new(&links, config, cache.as_ref());
            let check = graph.neighbors(20).to_vec();
            let (outcome, _, _) = repair(&links, &graph, &judge, &config, &prev, &check);
            assert!(outcome.replaced >= 1, "{mode}");
            assert!(outcome.report.schedule.is_partition(links.len()), "{mode}");
            assert!(
                outcome.report.schedule.verify(&links, &config.model, mode),
                "{mode}: repaired schedule must stay feasible"
            );
        }
    }

    #[test]
    fn check_sweep_evicts_infeasible_members() {
        // Two well-separated links share a slot; teleport one on top of the
        // other (stale geometry) — the check sweep must evict the survivor's
        // now-infeasible slotmate rather than trust the stale assignment.
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let links = vec![
            Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
            Link::new(1, Point::new(0.9, 0.05), Point::new(1.9, 0.05)),
            Link::new(2, Point::new(200.0, 0.0), Point::new(201.0, 0.0)),
        ];
        // Stale previous coloring: 0 and 1 share slot 0 (infeasible at the
        // current geometry), 2 sits alone in slot 1.
        let prev = vec![Some(0), Some(0), Some(1)];
        let (graph, cache) = harness(&links, config);
        let judge = CacheJudge::new(&links, config, cache.as_ref());
        let (outcome, _, _) = repair(&links, &graph, &judge, &config, &prev, &[0]);
        assert!(outcome.evicted >= 1, "the stale slot must shed a member");
        assert_eq!(outcome.replaced, outcome.evicted);
        assert!(outcome.report.schedule.is_partition(links.len()));
        assert!(outcome
            .report
            .schedule
            .verify(&links, &config.model, PowerMode::Uniform));
    }

    #[test]
    fn empty_slots_are_dropped_and_colors_compacted() {
        let links = chain(3, 100.0);
        let config = SchedulerConfig::new(PowerMode::Uniform);
        // Previous schedule wastefully used colors 0, 5 and 9.
        let prev = vec![Some(0), Some(5), Some(9)];
        let (graph, cache) = harness(&links, config);
        let judge = CacheJudge::new(&links, config, cache.as_ref());
        let (outcome, _, _) = repair(&links, &graph, &judge, &config, &prev, &[]);
        assert_eq!(outcome.report.schedule.len(), 3);
        assert!(outcome.report.schedule.is_partition(3));
    }

    #[test]
    fn verification_disabled_places_by_graph_alone() {
        let links = chain(12, 1.2);
        let config = SchedulerConfig::new(PowerMode::Uniform).with_verification(false);
        let full = solve_static(&links, config, &Recorder::disabled());
        let mut prev = colors_of(&full, links.len());
        prev[7] = None;
        let (graph, _) = harness(&links, config);
        let judge = CacheJudge::new(&links, config, None);
        let (outcome, _, _) = repair(&links, &graph, &judge, &config, &prev, &[]);
        assert_eq!(outcome.replaced, 1);
        assert!(outcome.report.schedule.is_partition(links.len()));
        // Proper coloring: no slot holds two conflicting links.
        for slot in outcome.report.schedule.slots() {
            for (a, &i) in slot.iter().enumerate() {
                for &j in &slot[a + 1..] {
                    assert!(!graph.neighbors(i).contains(&j), "{i} and {j} conflict");
                }
            }
        }
    }

    #[test]
    fn zero_length_links_land_in_singletons() {
        let mut links = chain(4, 50.0);
        links.push(Link::new(4, Point::new(10.0, 10.0), Point::new(10.0, 10.0)));
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let prev = vec![Some(0), Some(0), Some(0), Some(0), None];
        let (graph, cache) = harness(&links, config);
        let judge = CacheJudge::new(&links, config, cache.as_ref());
        let (outcome, _, _) = repair(&links, &graph, &judge, &config, &prev, &[]);
        assert!(outcome.report.schedule.is_partition(links.len()));
        let slot_of_degenerate = outcome
            .report
            .schedule
            .slots()
            .iter()
            .find(|s| s.contains(&4))
            .unwrap();
        assert_eq!(slot_of_degenerate.len(), 1);
    }

    #[test]
    fn warm_state_is_edited_into_the_repaired_schedule() {
        // The dense cluster with one dirty link and its neighbours checked,
        // under every power mode, plus a wasteful 0/5/9 coloring that must
        // compact. The edited colors must be the report's slot map, and
        // every additive budget must bound the exact in-slot affectance
        // from above while staying within the admission threshold.
        let mut cluster = chain(20, 40.0);
        cluster.push(Link::new(20, Point::new(0.3, 0.4), Point::new(1.3, 0.4)));
        let mut cases = Vec::new();
        for mode in [
            PowerMode::Uniform,
            PowerMode::mean_oblivious(),
            PowerMode::GlobalControl,
        ] {
            let config = SchedulerConfig::new(mode);
            let mut prev = colors_of(
                &solve_static(&cluster, config, &Recorder::disabled()),
                cluster.len(),
            );
            prev[20] = None;
            cases.push((cluster.clone(), config, prev));
        }
        let sparse = vec![Some(0), Some(5), Some(9)];
        cases.push((
            chain(3, 100.0),
            SchedulerConfig::new(PowerMode::Uniform),
            sparse,
        ));
        for (links, config, prev) in cases {
            let case = format!("{} over {} links", config.mode, links.len());
            let (graph, cache) = harness(&links, config);
            let judge = CacheJudge::new(&links, config, cache.as_ref());
            let check: Vec<usize> = (0..links.len())
                .filter(|&i| prev[i].is_none())
                .flat_map(|i| graph.neighbors(i).to_vec())
                .collect();
            let (outcome, colors, budgets) = repair(&links, &graph, &judge, &config, &prev, &check);
            assert_eq!(
                colors,
                colors_of(&outcome.report, links.len()),
                "{case}: edited colors must be the repaired slot map"
            );
            if judge.additive() {
                let exact = capture_budgets(&judge, &colors);
                for (i, (&stored, &e)) in budgets.iter().zip(&exact).enumerate() {
                    assert!(
                        e <= stored + 1e-9,
                        "{case}: budget {stored} under exact affectance {e} at {i}"
                    );
                    assert!(
                        stored <= judge.threshold() + 1e-9,
                        "{case}: budget {stored} past the threshold at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_index_splices_track_a_rebuild() {
        // Random inserts, removals and re-seats on a warm coloring: after
        // every splice the carried index equals one built from scratch.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut colors: Vec<Option<usize>> =
            (0..40).map(|i| (i % 5 != 0).then_some(i % 7)).collect();
        let mut index = SlotIndex::from_colors(&colors);
        for _ in 0..600 {
            match next(3) {
                0 => {
                    let pos = next(colors.len() + 1);
                    colors.insert(pos, None);
                    index.insert(pos);
                }
                1 if !colors.is_empty() => {
                    let pos = next(colors.len());
                    index.remove(pos, colors[pos]);
                    colors.remove(pos);
                }
                _ if !colors.is_empty() => {
                    let pos = next(colors.len());
                    match colors[pos] {
                        Some(c) => {
                            index.unassign(pos, c);
                            colors[pos] = None;
                        }
                        // Re-color an unassigned entry the way a repair
                        // would, rebuilding (repairs own that transition).
                        None => {
                            colors[pos] = Some(next(8));
                            index = SlotIndex::from_colors(&colors);
                        }
                    }
                }
                _ => {}
            }
            assert_eq!(index, SlotIndex::from_colors(&colors));
        }
        // Emptying the top slot trims it, as a rebuild would.
        let colors = vec![Some(0), Some(2), None];
        let mut index = SlotIndex::from_colors(&colors);
        index.unassign(1, 2);
        assert_eq!(index, SlotIndex::from_colors(&[Some(0), None, None]));
    }

    #[test]
    fn report_keeps_admission_order_and_the_index_ascends() {
        // Link 0 is dirty and fits the far-apart slot of links 1 and 2: the
        // report lists it after its slotmates (admission order), while the
        // carried index equals the ascending rebuild (the helper asserts
        // that after every repair).
        let links = chain(3, 100.0);
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let prev = vec![None, Some(0), Some(0)];
        let (graph, cache) = harness(&links, config);
        let judge = CacheJudge::new(&links, config, cache.as_ref());
        let (outcome, colors, _) = repair(&links, &graph, &judge, &config, &prev, &[]);
        assert_eq!(outcome.report.schedule.slots(), &[vec![1, 2, 0]]);
        assert_eq!(colors, vec![Some(0); 3]);
    }

    #[test]
    fn decision_display_is_the_token() {
        for d in [
            RepairDecision::Repaired,
            RepairDecision::ColdStart,
            RepairDecision::WatermarkBreach,
            RepairDecision::Unsupported,
        ] {
            assert_eq!(d.to_string(), d.token());
        }
    }
}
