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
//! and, where the additive affectance kernel applies, one [`PricedLink`]
//! record per position, kept current between repairs. Without records every
//! probe materialises the slot and checks it with the static kernel's
//! [`slot_ok`](crate::scheduler) semantics. The session facade owns the
//! policy: which links are dirty, when the schedule-length drift against the
//! from-scratch baseline breaches the watermark ([`RepairStats::drift`] vs
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
//!   constraint via `neighbors`, physical constraint via the budgets or the
//!   slot check), exactly like the static kernel's first-fit split.
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
use wagg_sinr::{AlphaPow, Link, PricedLink, SinrModel};

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

/// Exact per-vertex budgets for a warm assignment: each member's sum of
/// [`PricedLink::term_on`] over its slotmates, in ascending position order —
/// the reference implementation of the budget contract [`solve_repair`]
/// consumes. Backends with a certified hierarchical verifier capture budgets
/// through it instead (same contract, near-linear instead of quadratic);
/// this helper is for tests and small universes.
pub fn capture_budgets(
    model: &SinrModel,
    priced: &[PricedLink],
    colors: &[Option<usize>],
) -> Vec<f64> {
    let pow = AlphaPow::new(model.alpha());
    let slots = SlotIndex::from_colors(colors).slots;
    let mut budgets = vec![0.0f64; colors.len()];
    for slot in &slots {
        for &i in slot {
            budgets[i] = slot
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| priced[j].term_on(&priced[i], pow))
                .sum();
        }
    }
    budgets
}

/// Repairs a previous slot assignment after an event batch instead of
/// recoloring from scratch, editing the caller's warm state in place.
///
/// * `priced` holds one [`PricedLink`] per position — the links' endpoints
///   with the path-loss parts `PathLossCache::new` computes for them — when
///   the power mode pins an assignment under a noise-free model, so that
///   slot feasibility is the additive affectance kernel (records passed
///   under a noisy model are ignored). With records, admission is additive:
///   it reads the records and `budgets` directly and prices every pair with
///   [`PricedLink::term_on`]. Distinct positions are distinct transmitters:
///   a link is never priced against itself. `None` selects the opaque path,
///   where every probe materialises the slot.
/// * `colors[i]` is link `i`'s slot in the previous schedule, `None` for
///   dirty links (inserted, relocated, re-seated — anything whose conflict
///   neighbourhood changed). Colors need not be contiguous; empty slots are
///   dropped from the result. On return `colors` is the repaired schedule's
///   slot map.
/// * `budgets[i]` must **upper-bound** the exact affectance total link `i`
///   sees inside its previous slot (exact values, a certified hierarchical
///   bound, or `f64::INFINITY` when unknown — conservative always errs
///   toward eviction/rejection, never toward an infeasible admission).
///   Entries for dirty links are ignored. Only consulted on the additive
///   path; seed them with [`capture_budgets`] (or a certified capture)
///   after a full recolor. On return they bound the repaired schedule the
///   same way, ready for the next repair; re-placed links of an opaque
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
///   neighbours, whose affectance budget may have changed. On the additive
///   path each checked link's stored budget is compared against the
///   threshold `1/β` (O(1) per link); otherwise each checked link's slot is
///   checked whole and evicted whole when it fails. Rejected members join
///   the dirty links for re-placement. Ignored when `config.verify_slots` is
///   off (graph constraints cannot go stale for links that did not move).
///
/// Dirty links go first-fit into the lowest slot passing both the graph
/// constraint and the physical one (a fresh slot at the end otherwise), in
/// non-increasing length order with ties by link id. On the additive path
/// an admission probe is O(|slot|) with early exit — the new member's own
/// budget accumulates while every slotmate's budget is checked against the
/// threshold with the new term added — instead of the O(|slot|²) whole-slot
/// re-verification the opaque path needs. Every comparison is written so
/// that a NaN sum rejects. Admitted links append to their slot, so later
/// probes of the same call visit slotmates in ascending position order
/// followed by this call's admissions; the report lists members in that
/// order too, and only then are the touched slots put back in ascending
/// order for the next repair.
///
/// Records a `repair` span with `sweep` (stale-slot re-verification),
/// `place` (first-fit re-placement) and `commit` (compaction, the report
/// copy and the index re-sort) children on `rec`, plus the
/// `repair.dirty` / `repair.evicted` / `repair.admissions` /
/// `repair.rejections` / `repair.fresh_slots` / `repair.terms` (pair terms
/// priced by additive probes) counters, accumulated locally — one atomic
/// add per counter per call, nothing in the probe loops. Pass
/// [`Recorder::disabled`] to record nothing.
#[allow(clippy::too_many_arguments)]
pub fn solve_repair(
    links: &[Link],
    priced: Option<&[PricedLink]>,
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    config: &SchedulerConfig,
    colors: &mut [Option<usize>],
    budgets: &mut [f64],
    index: &mut SlotIndex,
    diversity: f64,
    check: &[usize],
    rec: &Recorder,
) -> RepairOutcome {
    let root = rec.span("repair");
    let n = links.len();
    assert_eq!(colors.len(), n, "one warm color per link");
    assert_eq!(budgets.len(), n, "one warm budget per link");
    debug_assert!(
        *index == SlotIndex::from_colors(colors),
        "slot index diverged from the warm colors"
    );
    let additive = priced
        .filter(|_| config.verify_slots && config.model.noise() == 0.0)
        .inspect(|priced| assert_eq!(priced.len(), n, "one priced record per link"));
    let pow = AlphaPow::new(config.model.alpha());
    let threshold = 1.0 / config.model.beta();

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
        if additive.is_some() {
            // O(1) per checked link: its stored budget is an upper bound,
            // so within-threshold links are certainly still feasible.
            for &v in &checked {
                let Some(c) = colors[v] else { continue };
                if !within(budgets[v], threshold) {
                    let k = slots[c].binary_search(&v).expect("indexed under its color");
                    slots[c].remove(k);
                    colors[v] = None;
                    budgets[v] = 0.0;
                    evicted_total += 1;
                    pending.push(v);
                }
            }
        } else {
            // The opaque check is holistic, so eviction is all-or-nothing.
            let mut stale: Vec<usize> = checked.iter().filter_map(|&i| colors[i]).collect();
            stale.sort_unstable();
            stale.dedup();
            for c in stale {
                if !slot_ok(links, &slots[c], config, None) {
                    for &i in &slots[c] {
                        colors[i] = None;
                        budgets[i] = 0.0;
                    }
                    evicted_total += slots[c].len();
                    pending.append(&mut slots[c]);
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
    let mut terms = 0u64;
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
            if let Some(priced) = additive {
                match admits(priced, budgets, slot, i, pow, threshold, &mut added) {
                    Ok(own) => {
                        terms += 2 * slot.len() as u64;
                        for (&m, &on_m) in slot.iter().zip(&added) {
                            budgets[m] += on_m;
                        }
                        budgets[i] = own;
                    }
                    Err(priced_terms) => {
                        terms += priced_terms;
                        rejections += 1;
                        continue;
                    }
                }
            } else if config.verify_slots {
                candidate.clear();
                candidate.extend_from_slice(slot);
                candidate.push(i);
                if !slot_ok(links, &candidate, config, None) {
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
    rec.add("repair.terms", terms);

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

/// The additive admission probe of position `i` into `slot`: every
/// slotmate must absorb `i`'s term within `threshold`, and `i`'s own sum
/// must close under it. `Ok` carries `i`'s own sum, with `added` holding
/// each slotmate's term in slot order; `Err` carries the number of terms
/// priced up to the first one that failed. NaN sums fail.
#[inline]
fn admits(
    priced: &[PricedLink],
    budgets: &[f64],
    slot: &[usize],
    i: usize,
    pow: AlphaPow,
    threshold: f64,
    added: &mut Vec<f64>,
) -> Result<f64, u64> {
    let newcomer = &priced[i];
    let mut own = 0.0f64;
    added.clear();
    for (k, &m) in slot.iter().enumerate() {
        let member = &priced[m];
        let on_m = newcomer.term_on(member, pow);
        if !within(budgets[m] + on_m, threshold) {
            return Err(2 * k as u64 + 1);
        }
        own += member.term_on(newcomer, pow);
        if !within(own, threshold) {
            return Err(2 * k as u64 + 2);
        }
        added.push(on_m);
    }
    Ok(own)
}

/// Whether a budget sum stays within the admission threshold. Every
/// additive comparison goes through here, so a NaN sum — which no ordering
/// holds for — fails it instead of slipping past a `sum > threshold` test.
#[inline(always)]
fn within(sum: f64, threshold: f64) -> bool {
    sum <= threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_mode::PowerMode;
    use crate::scheduler::solve_static;
    use wagg_conflict::ConflictGraph;
    use wagg_geometry::Point;
    use wagg_sinr::link::link_diversity;
    use wagg_sinr::PathLossCache;

    fn chain(n: usize, spacing: f64) -> Vec<Link> {
        (0..n)
            .map(|i| {
                let x = i as f64 * spacing;
                Link::new(i, Point::new(x, 0.0), Point::new(x + 1.0, 0.0))
            })
            .collect()
    }

    /// The conflict graph of `links`, and their priced records when the
    /// mode pins an assignment (the additive path).
    fn harness(
        links: &[Link],
        config: SchedulerConfig,
    ) -> (ConflictGraph, Option<Vec<PricedLink>>) {
        let graph =
            ConflictGraph::build(links, config.mode.conflict_relation(config.model.alpha()));
        let priced = config
            .mode
            .assignment()
            .map(|a| PathLossCache::new(&config.model, links, &a).priced());
        (graph, priced)
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
    fn repair(
        links: &[Link],
        graph: &ConflictGraph,
        priced: Option<&[PricedLink]>,
        config: &SchedulerConfig,
        prev: &[Option<usize>],
        check: &[usize],
    ) -> (RepairOutcome, Vec<Option<usize>>, Vec<f64>) {
        let mut colors = prev.to_vec();
        let mut budgets = match priced {
            Some(priced) => capture_budgets(&config.model, priced, prev),
            None => vec![0.0; prev.len()],
        };
        let mut index = SlotIndex::from_colors(prev);
        let outcome = solve_repair(
            links,
            priced,
            &|i| graph.neighbors(i).to_vec(),
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
        let (graph, priced) = harness(&links, config);
        let (outcome, colors, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &[]);
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
            let (graph, priced) = harness(&links, config);
            let check = graph.neighbors(20).to_vec();
            let (outcome, _, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &check);
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
        let (graph, priced) = harness(&links, config);
        let (outcome, _, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &[0]);
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
        let (graph, priced) = harness(&links, config);
        let (outcome, _, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &[]);
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
        let (graph, priced) = harness(&links, config);
        let (outcome, _, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &[]);
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
        let (graph, priced) = harness(&links, config);
        let (outcome, _, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &[]);
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
            let (graph, priced) = harness(&links, config);
            let check: Vec<usize> = (0..links.len())
                .filter(|&i| prev[i].is_none())
                .flat_map(|i| graph.neighbors(i).to_vec())
                .collect();
            let (outcome, colors, budgets) =
                repair(&links, &graph, priced.as_deref(), &config, &prev, &check);
            assert_eq!(
                colors,
                colors_of(&outcome.report, links.len()),
                "{case}: edited colors must be the repaired slot map"
            );
            if let Some(priced) = priced.as_deref() {
                let exact = capture_budgets(&config.model, priced, &colors);
                let threshold = 1.0 / config.model.beta();
                for (i, (&stored, &e)) in budgets.iter().zip(&exact).enumerate() {
                    assert!(
                        e <= stored + 1e-9,
                        "{case}: budget {stored} under exact affectance {e} at {i}"
                    );
                    assert!(
                        stored <= threshold + 1e-9,
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
        let (graph, priced) = harness(&links, config);
        let (outcome, colors, _) = repair(&links, &graph, priced.as_deref(), &config, &prev, &[]);
        assert_eq!(outcome.report.schedule.slots(), &[vec![1, 2, 0]]);
        assert_eq!(colors, vec![Some(0); 3]);
    }

    /// One additive repair of `prev` under uniform power, with no conflict
    /// edges and the given records and warm budgets: the repaired slots, the
    /// budgets left behind, and the admission, rejection, term and eviction
    /// counters.
    fn probe(
        links: &[Link],
        priced: &[PricedLink],
        prev: &[Option<usize>],
        mut budgets: Vec<f64>,
        check: &[usize],
    ) -> (Vec<Vec<usize>>, Vec<f64>, [u64; 4]) {
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let rec = Recorder::new();
        let mut colors = prev.to_vec();
        let mut index = SlotIndex::from_colors(prev);
        let outcome = solve_repair(
            links,
            Some(priced),
            &|_| Vec::new(),
            &config,
            &mut colors,
            &mut budgets,
            &mut index,
            1.0,
            check,
            &rec,
        );
        let metrics = rec.metrics();
        let count = |name| metrics.counter(name).unwrap_or(0);
        let counts = [
            count("repair.admissions"),
            count("repair.rejections"),
            count("repair.terms"),
            count("repair.evicted"),
        ];
        (outcome.report.schedule.slots().to_vec(), budgets, counts)
    }

    fn priced_uniform(links: &[Link]) -> Vec<PricedLink> {
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let assignment = config.mode.assignment().expect("uniform power is pinned");
        PathLossCache::new(&config.model, links, &assignment).priced()
    }

    /// Two unit links whose squared sender-receiver distances overflow to
    /// `∞`, so each prices at `0` on the other.
    fn overflowing_pair() -> Vec<Link> {
        vec![
            Link::new(0, Point::new(-1e200, 0.0), Point::new(-1e200, 1.0)),
            Link::new(1, Point::new(1e200, 0.0), Point::new(1e200, 1.0)),
        ]
    }

    #[test]
    fn missing_parts_and_collocated_senders_reject() {
        // Link 1 is dirty and joins link 0's slot 100 units away; each pair
        // the record cannot price sends it to a fresh slot instead, right
        // after the term that reads `+∞`.
        let links = chain(2, 100.0);
        let base = priced_uniform(&links);
        let prev = [Some(0), None];
        let (slots, _, counts) = probe(&links, &base, &prev, vec![0.0; 2], &[]);
        assert_eq!(slots, vec![vec![0, 1]]);
        assert_eq!(counts, [1, 0, 2, 0]);
        type Edit = fn(&mut [PricedLink]);
        let cases: [(&str, Edit, u64); 6] = [
            ("newcomer without power", |p| p[1].power = None, 1),
            ("slotmate without weight", |p| p[0].weight = None, 1),
            ("slotmate without power", |p| p[0].power = None, 2),
            ("newcomer without weight", |p| p[1].weight = None, 2),
            (
                "newcomer's sender on the slotmate's receiver",
                |p| p[1].sender = p[0].receiver,
                1,
            ),
            (
                "slotmate's sender on the newcomer's receiver",
                |p| p[0].sender = p[1].receiver,
                2,
            ),
        ];
        for (case, edit, terms) in cases {
            let mut priced = base.clone();
            edit(&mut priced);
            let (slots, budgets, counts) = probe(&links, &priced, &prev, vec![0.0; 2], &[]);
            assert_eq!(slots, vec![vec![0], vec![1]], "{case}");
            assert_eq!(counts, [0, 1, terms, 0], "{case}");
            assert_eq!(budgets, vec![0.0; 2], "{case}");
        }
    }

    #[test]
    fn overflowing_distances_admit_at_zero_terms() {
        let links = overflowing_pair();
        let (slots, budgets, counts) = probe(
            &links,
            &priced_uniform(&links),
            &[Some(0), None],
            vec![0.0; 2],
            &[],
        );
        assert_eq!(slots, vec![vec![0, 1]]);
        assert_eq!(budgets, vec![0.0; 2]);
        assert_eq!(counts, [1, 0, 2, 0]);
    }

    #[test]
    fn an_empty_interior_slot_admits_an_unpriced_link() {
        // Slot 1 lost its member but sits between two others. Link 1 has
        // no parts: slot 0 rejects it, and the empty slot 1 takes it with
        // an own sum of 0.
        let links = chain(3, 100.0);
        let mut priced = priced_uniform(&links);
        (priced[1].power, priced[1].weight) = (None, None);
        let prev = [Some(0), None, Some(2)];
        let (slots, budgets, counts) = probe(&links, &priced, &prev, vec![0.0; 3], &[]);
        assert_eq!(slots, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(budgets, vec![0.0; 3]);
        assert_eq!(counts, [1, 1, 1, 0]);
    }

    #[test]
    fn nan_sums_reject() {
        let links = chain(2, 100.0);
        let base = priced_uniform(&links);
        let prev = [Some(0), None];
        let rejected = vec![vec![0], vec![1]];
        // A NaN budget on the slotmate.
        let (slots, _, counts) = probe(&links, &base, &prev, vec![f64::NAN, 0.0], &[]);
        assert_eq!((slots, counts), (rejected.clone(), [0, 1, 1, 0]));
        // A NaN part on the newcomer: its term on the slotmate, then its
        // own sum.
        let mut priced = base.clone();
        priced[1].power = Some(f64::NAN);
        let (slots, _, counts) = probe(&links, &priced, &prev, vec![0.0; 2], &[]);
        assert_eq!((slots, counts), (rejected.clone(), [0, 1, 1, 0]));
        let mut priced = base.clone();
        priced[1].weight = Some(f64::NAN);
        let (slots, _, counts) = probe(&links, &priced, &prev, vec![0.0; 2], &[]);
        assert_eq!((slots, counts), (rejected.clone(), [0, 1, 2, 0]));
        // An infinite weight at an overflowing distance prices `∞ / ∞`.
        let far = overflowing_pair();
        let mut priced = priced_uniform(&far);
        priced[0].weight = Some(f64::INFINITY);
        let (slots, _, counts) = probe(&far, &priced, &prev, vec![0.0; 2], &[]);
        assert_eq!((slots, counts), (rejected, [0, 1, 1, 0]));
        // A checked member with a NaN budget is evicted and re-placed.
        let (slots, budgets, counts) = probe(
            &links,
            &base,
            &[Some(0), Some(0)],
            vec![f64::NAN, 0.0],
            &[0],
        );
        assert_eq!((slots, counts), (vec![vec![1, 0]], [1, 0, 2, 1]));
        assert!(budgets.iter().all(|b| b.is_finite()));
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
