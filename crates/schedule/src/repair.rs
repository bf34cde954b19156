//! Warm-start slot repair: re-place only the links an event batch touched.
//!
//! Every backend used to recolor from scratch per solve — PRs 2–5 made the
//! conflict graph, the path-loss cache and the per-shard state incremental,
//! but the *slot assignment* itself was discarded per event. This module
//! closes that gap: [`solve_repair`] works on the caller's warm state — the
//! previous coloring keyed by vertex position, with `None` marking the links
//! an event batch dirtied, and its [`SlotIndex`] — and edits it in place:
//! it keeps every clean link in its slot, re-verifies only the slots whose
//! affectance budget may have changed, and first-fits the dirty links into
//! the lowest feasible slot — microseconds-to-milliseconds per event batch
//! instead of a full recolor. What it leaves behind is the next repair's
//! warm state; nothing needs replaying on top. The caller carries the
//! index and the universe's length diversity from event to event, so no
//! part of a repair walks the whole universe except the copy of the
//! schedule into its report.
//!
//! The module is backend-agnostic: callers supply the conflict neighbourhood
//! (`neighbors`, e.g. the engine's incrementally maintained adjacency rows)
//! and, where the additive affectance kernel applies, a priced
//! [`SlotIndex`]: each slot's members' endpoints, path-loss parts and warm
//! budgets in per-slot columns, kept current between repairs. Without
//! records every probe materialises the slot and checks it with the static
//! kernel's [`slot_ok`](crate::scheduler) semantics. The session facade
//! owns the policy: which links are dirty, when the schedule-length drift
//! against the from-scratch baseline breaches the watermark
//! ([`RepairStats::drift`] vs [`RepairStats::watermark`]) and a full
//! recolor runs instead.
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
use std::ops::Range;
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

/// Slotmates one pricing pass of an additive admission probe covers before
/// its checking pass runs: wide enough for the vectorised pricing loop to
/// run at full width, short enough that a rejection near the front of a
/// slot prices little past it.
const CHUNK: usize = 256;

// The columns of a priced slot, in order: sender x and y, receiver x and
// y, power and weight — one link's record — then its warm budget.
const SX: usize = 0;
const SY: usize = 1;
const RX: usize = 2;
const RY: usize = 3;
const POWER: usize = 4;
const WEIGHT: usize = 5;
const BUDGET: usize = 6;

/// One member's values in column order.
type Entry = [f64; 7];

/// `p`'s entry with a zero budget. A missing part is stored as `+∞`: parts
/// are non-negative (an oblivious assignment's powers and weights), so a
/// `+∞` part prices every term it enters at `+∞` or NaN, and either
/// rejects exactly as [`PricedLink::term_on`]'s `+∞` for a missing part.
fn entry(p: &PricedLink) -> Entry {
    let (s, r) = (p.sender, p.receiver);
    let part = |part: Option<f64>| part.unwrap_or(f64::INFINITY);
    [s.x, s.y, r.x, r.y, part(p.power), part(p.weight), 0.0]
}

/// A list of positions, ascending, and in a priced index each one's
/// [`Entry`] as structure-of-arrays columns: entry `k` of every column
/// belongs to `members[k]`. An unpriced index leaves the columns empty.
#[derive(Debug, Clone, Default)]
struct Slot {
    members: Vec<usize>,
    columns: [Vec<f64>; 7],
}

impl Slot {
    fn with_capacity(members: usize, priced: bool) -> Self {
        let columns = if priced { members } else { 0 };
        Slot {
            members: Vec::with_capacity(members),
            columns: std::array::from_fn(|_| Vec::with_capacity(columns)),
        }
    }

    /// Member `pos` at entry `k`, with its values in a priced index.
    fn insert(&mut self, k: usize, pos: usize, entry: Option<Entry>) {
        self.members.insert(k, pos);
        if let Some(entry) = entry {
            for (column, value) in self.columns.iter_mut().zip(entry) {
                column.insert(k, value);
            }
        }
    }

    fn push(&mut self, pos: usize, entry: Option<Entry>) {
        self.insert(self.members.len(), pos, entry);
    }

    /// Entry `k`'s values; `None` in an unpriced index.
    fn entry(&self, k: usize) -> Option<Entry> {
        (k < self.columns[BUDGET].len()).then(|| self.columns.each_ref().map(|c| c[k]))
    }

    /// Drops entry `k`, returning its values in a priced index.
    fn remove(&mut self, k: usize) -> Option<Entry> {
        let entry = self.entry(k);
        self.members.remove(k);
        if entry.is_some() {
            for column in &mut self.columns {
                column.remove(k);
            }
        }
        entry
    }

    fn truncate(&mut self, len: usize) {
        self.members.truncate(len);
        for column in &mut self.columns {
            column.truncate(len);
        }
    }
}

/// Columns compare bit for bit, so a NaN part or budget equals itself.
impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        let bits = |column: &[f64]| column.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        self.members == other.members
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| bits(a) == bits(b))
    }
}

impl Eq for Slot {}

/// The warm coloring's slot membership, kept current between repairs so
/// [`solve_repair`] never scatters the whole universe into slot vectors —
/// and, in a priced index, the one copy of what the additive admission
/// reads.
///
/// Slot `c` lists, ascending, the positions whose warm color is `Some(c)`;
/// the unassigned list holds, ascending, the positions whose color is
/// `None` (the dirty links). Trailing empty slots are dropped, interior ones
/// are kept until the next repair compacts them — so an index kept in
/// lockstep with a warm coloring always equals one built from scratch from
/// it. The splice methods move positions the way a position-indexed warm
/// state moves under the same event.
///
/// A *priced* index ([`SlotIndex::with_records`]) also keeps, beside each
/// slot's positions, structure-of-arrays columns of its members' sender and
/// receiver coordinates, powers, weights (a missing part stored as `+∞`)
/// and warm budgets, and beside the unassigned list each dirty link's
/// record. Every splice moves the columns in lockstep with the positions,
/// so an admission probe streams one slot's columns front to back;
/// per-position budgets exist only where [`SlotIndex::budgets`]
/// materialises them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotIndex {
    slots: Vec<Slot>,
    /// The unassigned positions, with their records (zero budgets) in a
    /// priced index.
    unassigned: Slot,
    priced: bool,
}

impl SlotIndex {
    /// The unpriced membership of `colors` built from scratch: every
    /// position pushed in ascending order into its slot (or the unassigned
    /// list), one slot per color up to the largest one in use.
    pub fn from_colors(colors: &[Option<usize>]) -> Self {
        SlotIndex::build(colors, None)
    }

    /// The priced index of `colors`: position `i` carries record
    /// `records[i]` and, when placed, warm budget `budgets[i]`.
    ///
    /// # Panics
    ///
    /// Panics unless `records` and `budgets` hold one entry per position.
    pub fn with_records(colors: &[Option<usize>], records: &[PricedLink], budgets: &[f64]) -> Self {
        assert_eq!(records.len(), colors.len(), "one record per position");
        assert_eq!(budgets.len(), colors.len(), "one budget per position");
        SlotIndex::build(colors, Some((records, budgets)))
    }

    fn build(colors: &[Option<usize>], priced: Option<(&[PricedLink], &[f64])>) -> Self {
        let num_colors = colors.iter().flatten().copied().max().map_or(0, |c| c + 1);
        // Pre-counted capacities: growth reallocations would double the
        // traffic of this O(n) pass.
        let mut counts = vec![0usize; num_colors];
        for &c in colors.iter().flatten() {
            counts[c] += 1;
        }
        let mut slots: Vec<Slot> = counts
            .iter()
            .map(|&k| Slot::with_capacity(k, priced.is_some()))
            .collect();
        let mut unassigned = Slot::default();
        for (i, &color) in colors.iter().enumerate() {
            let values = priced.map(|(records, budgets)| {
                let mut values = entry(&records[i]);
                values[BUDGET] = if color.is_some() { budgets[i] } else { 0.0 };
                values
            });
            match color {
                Some(c) => slots[c].push(i, values),
                None => unassigned.push(i, values),
            }
        }
        SlotIndex {
            slots,
            unassigned,
            priced: priced.is_some(),
        }
    }

    /// Splices a fresh, unassigned position in at `pos`, with its record
    /// in a priced index; positions at and after it shift up by one.
    ///
    /// # Panics
    ///
    /// Panics when `record` is given to an unpriced index or missing from
    /// a priced one.
    pub fn insert(&mut self, pos: usize, record: Option<&PricedLink>) {
        assert_eq!(
            record.is_some(),
            self.priced,
            "a record exactly when priced"
        );
        for list in self.lists() {
            let k = list.partition_point(|&m| m < pos);
            for m in &mut list[k..] {
                *m += 1;
            }
        }
        let k = self.unassigned.members.partition_point(|&m| m < pos);
        self.unassigned.insert(k, pos, record.map(entry));
    }

    /// Drops position `pos`, whose warm color is `color`, with its record
    /// and budget; positions after it shift down by one.
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
            .members
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

    /// Re-seats position `pos`, whose warm color is `color`: its link moved
    /// in place, so it leaves its slot for the unassigned list, carrying
    /// `record` (its new geometry's) in a priced index.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is not indexed under `color`, or on a `record`
    /// that does not match the index's pricing (see [`SlotIndex::insert`]).
    pub fn reseat(&mut self, pos: usize, color: Option<usize>, record: Option<&PricedLink>) {
        assert_eq!(
            record.is_some(),
            self.priced,
            "a record exactly when priced"
        );
        let list = match color {
            Some(c) => &mut self.slots[c],
            None => &mut self.unassigned,
        };
        let k = list
            .members
            .binary_search(&pos)
            .expect("position indexed under its color");
        list.remove(k);
        let k = self.unassigned.members.partition_point(|&m| m < pos);
        self.unassigned.insert(k, pos, record.map(entry));
        self.trim();
    }

    /// The unassigned positions, ascending.
    pub fn unassigned(&self) -> &[usize] {
        &self.unassigned.members
    }

    /// Position → warm budget, materialised from the slots' columns: zero
    /// for unassigned positions and throughout an unpriced index.
    pub fn budgets(&self) -> Vec<f64> {
        let placed: usize = self.slots.iter().map(|s| s.members.len()).sum();
        let mut budgets = vec![0.0; placed + self.unassigned.members.len()];
        for slot in &self.slots {
            for (&m, &b) in slot.members.iter().zip(&slot.columns[BUDGET]) {
                budgets[m] = b;
            }
        }
        budgets
    }

    /// Every position list: the slots, then the unassigned list.
    fn lists(&mut self) -> impl Iterator<Item = &mut Vec<usize>> {
        self.slots
            .iter_mut()
            .chain(std::iter::once(&mut self.unassigned))
            .map(|list| &mut list.members)
    }

    /// Drops trailing empty slots (what a from-scratch build sizes to).
    fn trim(&mut self) {
        while self.slots.last().is_some_and(|s| s.members.is_empty()) {
            self.slots.pop();
        }
    }

    /// Whether the positions are `colors`' membership.
    fn tracks(&self, colors: &[Option<usize>]) -> bool {
        let lists = |index: &SlotIndex| {
            let lists = index.slots.iter().chain([&index.unassigned]);
            lists.map(|list| list.members.clone()).collect::<Vec<_>>()
        };
        lists(self) == lists(&SlotIndex::from_colors(colors))
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
    let index = SlotIndex::from_colors(colors);
    let mut budgets = vec![0.0f64; colors.len()];
    for slot in index.slots.iter().map(|s| &s.members) {
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
/// * `colors[i]` is link `i`'s slot in the previous schedule, `None` for
///   dirty links (inserted, relocated, re-seated — anything whose conflict
///   neighbourhood changed). Colors need not be contiguous; empty slots are
///   dropped from the result. On return `colors` is the repaired schedule's
///   slot map.
/// * `index` is the [`SlotIndex`] of `colors`: the caller keeps it in
///   lockstep with the warm state between repairs (debug builds check its
///   positions against `colors` on entry and exit), so the kernel reads
///   slot membership instead of scattering every link. On return it
///   indexes the repaired `colors`. A *priced* index, under a noise-free
///   model with slot verification on, selects the additive path: slot
///   feasibility is the additive affectance kernel, and admission reads
///   the index's columns — every slotmate's endpoints, power, weight and
///   warm budget, and the newcomer's record from the unassigned list —
///   pricing every pair as [`PricedLink::term_on`] does. Distinct
///   positions are distinct transmitters: a link is never priced against
///   itself. An unpriced index selects the opaque path, where every probe
///   materialises the slot.
/// * A placed member's warm budget must **upper-bound** the exact
///   affectance total the link sees inside its previous slot (exact
///   values, a certified hierarchical bound, or `f64::INFINITY` when
///   unknown — conservative always errs toward eviction/rejection, never
///   toward an infeasible admission). Seed them with [`capture_budgets`]
///   (or a certified capture) after a full recolor. On return they bound
///   the repaired schedule the same way, ready for the next repair;
///   re-placed links of an opaque repair read zero. Budgets are
///   deliberately *not* decreased on departures (that would need the
///   departed geometry); the stored bounds just grow conservative until
///   the drift watermark forces a re-anchoring recolor.
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
///   threshold `1/β` (one binary search into its slot per link); otherwise each checked link's slot is
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
/// re-verification the opaque path needs. A probe walks the slot in chunks
/// of slotmates: a branch-free pass prices the chunk's terms both ways from
/// the columns (the loop the compiler vectorises), then a sequential pass
/// checks the budgets and sums the own terms in slot order, so verdicts,
/// the terms priced before a rejection, the own sum and every added term
/// are those of a one-term-at-a-time scan. Every comparison is written so
/// that a NaN sum rejects. Admitted links append to their slot, so later
/// probes of the same call visit slotmates in ascending position order
/// followed by this call's admissions; the report lists members in that
/// order too, and only then are the touched slots (columns included) put
/// back in ascending order for the next repair.
///
/// Records a `repair` span with `sweep` (stale-slot re-verification),
/// `place` (first-fit re-placement) and `commit` (compaction, the report
/// copy and the index re-sort) children on `rec`, plus the
/// `repair.dirty` / `repair.evicted` / `repair.admissions` /
/// `repair.rejections` / `repair.fresh_slots` / `repair.terms` (pair terms
/// an additive probe reads up to its verdict) counters, accumulated
/// locally — one atomic add per counter per call, nothing in the probe
/// loops. Pass [`Recorder::disabled`] to record nothing.
#[allow(clippy::too_many_arguments)]
pub fn solve_repair(
    links: &[Link],
    neighbors: &dyn Fn(usize) -> Vec<usize>,
    config: &SchedulerConfig,
    colors: &mut [Option<usize>],
    index: &mut SlotIndex,
    diversity: f64,
    check: &[usize],
    rec: &Recorder,
) -> RepairOutcome {
    let root = rec.span("repair");
    let n = links.len();
    assert_eq!(colors.len(), n, "one warm color per link");
    debug_assert!(
        index.tracks(colors),
        "slot index diverged from the warm colors"
    );
    let additive = index.priced && config.verify_slots && config.model.noise() == 0.0;
    let pow = AlphaPow::new(config.model.alpha());
    let threshold = 1.0 / config.model.beta();

    let SlotIndex {
        slots, unassigned, ..
    } = index;
    // The links to place, with their records in a priced index.
    let mut pending = std::mem::take(unassigned);
    let dirty = pending.members.len();

    // Re-verify the checked links; evicted members join the placement list.
    // Departures are monotone-safe, so only these can be stale.
    let sweep_span = root.child("sweep");
    let mut evicted_total = 0usize;
    if config.verify_slots {
        let mut checked: Vec<usize> = check.to_vec();
        checked.sort_unstable();
        checked.dedup();
        if additive {
            // One lookup per checked link: its stored budget is an upper
            // bound, so within-threshold links are certainly still feasible.
            for &v in &checked {
                let Some(c) = colors[v] else { continue };
                let slot = &mut slots[c];
                let k = slot
                    .members
                    .binary_search(&v)
                    .expect("indexed under its color");
                if !within(slot.columns[BUDGET][k], threshold) {
                    pending.push(v, slot.remove(k));
                    colors[v] = None;
                    evicted_total += 1;
                }
            }
        } else {
            // The opaque check is holistic, so eviction is all-or-nothing.
            let mut stale: Vec<usize> = checked.iter().filter_map(|&i| colors[i]).collect();
            stale.sort_unstable();
            stale.dedup();
            for c in stale {
                if !slot_ok(links, &slots[c].members, config, None) {
                    let slot = std::mem::take(&mut slots[c]);
                    for (k, &i) in slot.members.iter().enumerate() {
                        colors[i] = None;
                        pending.push(i, slot.entry(k));
                    }
                    evicted_total += slot.members.len();
                }
            }
        }
    }
    sweep_span.finish();
    let replaced = pending.members.len();

    let place_span = root.child("place");
    let mut admissions = 0u64;
    let mut rejections = 0u64;
    let mut fresh_slots = 0u64;
    let mut terms = 0u64;
    // First-fit placement in non-increasing length order (ties by link id —
    // the static kernel's split order, for determinism).
    let mut order: Vec<usize> = (0..replaced).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&links[pending.members[a]], &links[pending.members[b]]);
        b.length().total_cmp(&a.length()).then(a.id.cmp(&b.id))
    });
    // Stamps mark the colors of `i`'s conflict neighbours per placement.
    let mut mark: Vec<usize> = vec![usize::MAX; slots.len()];
    let mut candidate: Vec<usize> = Vec::new();
    let mut added: Vec<f64> = Vec::new();
    for (step, &p) in order.iter().enumerate() {
        let i = pending.members[p];
        let mut values = pending.entry(p);
        for j in neighbors(i) {
            if let Some(c) = colors[j] {
                mark[c] = step;
            }
        }
        let mut placed = None;
        let mut budget = 0.0;
        for (c, slot) in slots.iter_mut().enumerate() {
            if mark[c] == step {
                continue;
            }
            if additive {
                let newcomer = values.as_ref().expect("a priced index records every link");
                match admits(slot, newcomer, pow, threshold, &mut added) {
                    Ok(own) => {
                        terms += 2 * slot.members.len() as u64;
                        for (b, &on) in slot.columns[BUDGET].iter_mut().zip(&added) {
                            *b += on;
                        }
                        budget = own;
                    }
                    Err(priced_terms) => {
                        terms += priced_terms;
                        rejections += 1;
                        continue;
                    }
                }
            } else if config.verify_slots {
                candidate.clear();
                candidate.extend_from_slice(&slot.members);
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
            slots.push(Slot::default());
            mark.push(usize::MAX);
            slots.len() - 1
        });
        if let Some(values) = &mut values {
            values[BUDGET] = budget;
        }
        slots[c].push(i, values);
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
        if slot.members.is_empty() {
            continue;
        }
        if c != kept {
            for &m in &slot.members {
                colors[m] = Some(kept);
            }
        }
        kept += 1;
    }
    slots.retain(|s| !s.members.is_empty());
    let report = ScheduleReport::new(
        slots.iter().map(|s| s.members.clone()).collect(),
        slots.len(),
        diversity,
        config.mode,
        n,
    );
    // The report keeps admission order; the index goes back to ascending
    // positions, the order the next repair's probes must visit. A slot's
    // admissions are its tail (appended after its ascending clean
    // members), so each one moves into place, columns along, with one
    // binary search — O(|slot|) per admission, where a sort would be
    // O(|slot| log |slot|).
    let mut admitted: Vec<usize> = pending
        .members
        .iter()
        .map(|&i| colors[i].expect("placed"))
        .collect();
    admitted.sort_unstable();
    for run in admitted.chunk_by(|a, b| a == b) {
        let slot = &mut slots[run[0]];
        let tail = slot.members.len() - run.len();
        let mut moved: Vec<(usize, Option<Entry>)> = (tail..slot.members.len())
            .map(|k| (slot.members[k], slot.entry(k)))
            .collect();
        moved.sort_unstable_by_key(|&(i, _)| i);
        slot.truncate(tail);
        for (i, entry) in moved {
            let k = slot.members.partition_point(|&m| m < i);
            slot.insert(k, i, entry);
        }
    }
    pending.truncate(0);
    *unassigned = pending;
    commit_span.finish();
    debug_assert!(
        index.tracks(colors),
        "slot index diverged from the repaired colors"
    );
    RepairOutcome {
        report,
        replaced,
        evicted: evicted_total,
    }
}

/// The additive admission probe of `newcomer` into `slot`: every slotmate
/// must absorb the newcomer's term within `threshold`, and the newcomer's
/// own sum must close under it. `Ok` carries the own sum, with `added`
/// holding each slotmate's term in slot order; `Err` carries the number of
/// terms a one-term-at-a-time scan prices up to the first one that failed.
/// NaN sums fail.
///
/// Each chunk of [`CHUNK`] slotmates is priced whole by [`price`] and then
/// checked in slot order, so the verdict, the count, the own sum and the
/// added terms are the one-term-at-a-time scan's, bit for bit.
fn admits(
    slot: &Slot,
    newcomer: &Entry,
    pow: AlphaPow,
    threshold: f64,
    added: &mut Vec<f64>,
) -> Result<f64, u64> {
    let len = slot.members.len();
    if added.len() < len {
        added.resize(len, 0.0);
    }
    let mut own_terms = [0.0f64; CHUNK];
    let mut own = 0.0f64;
    for start in (0..len).step_by(CHUNK) {
        let range = start..len.min(start + CHUNK);
        let on = &mut added[range.clone()];
        let own_terms = &mut own_terms[..range.len()];
        // Dispatch once per chunk: with the exponent a constant, the
        // pricing loop has no branch left and runs vectorised.
        match pow {
            AlphaPow::Square => price(
                slot,
                range.clone(),
                newcomer,
                AlphaPow::Square,
                on,
                own_terms,
            ),
            AlphaPow::Cube => price(slot, range.clone(), newcomer, AlphaPow::Cube, on, own_terms),
            AlphaPow::Quartic => price(
                slot,
                range.clone(),
                newcomer,
                AlphaPow::Quartic,
                on,
                own_terms,
            ),
            other => price(slot, range.clone(), newcomer, other, on, own_terms),
        }
        let budgets = &slot.columns[BUDGET][range.clone()];
        for (k, ((&budget, &on_m), &on_i)) in budgets.iter().zip(&*on).zip(&*own_terms).enumerate()
        {
            if !within(budget + on_m, threshold) {
                return Err(2 * (start + k) as u64 + 1);
            }
            own += on_i;
            if !within(own, threshold) {
                return Err(2 * (start + k) as u64 + 2);
            }
        }
    }
    Ok(own)
}

/// Prices one chunk of `slot` both ways against `newcomer`: `on[k]` is the
/// newcomer's term on slotmate `range.start + k`, `own[k]` that slotmate's
/// term on the newcomer — [`PricedLink::term_on`]'s `P·w / (√d²)^α`,
/// operation for operation. No branch: with the models' `α > 2`, `0^α = 0`,
/// so a sender on a receiver prices at `+∞` (or NaN for a zero power) and
/// rejects as `term_on`'s `+∞` does.
#[inline(always)]
fn price(
    slot: &Slot,
    range: Range<usize>,
    newcomer: &Entry,
    pow: AlphaPow,
    on: &mut [f64],
    own: &mut [f64],
) {
    let len = on.len();
    let column = |c: usize| &slot.columns[c][range.clone()][..len];
    let (sx, sy, rx, ry) = (column(SX), column(SY), column(RX), column(RY));
    let (power, weight) = (column(POWER), column(WEIGHT));
    let own = &mut own[..len];
    for k in 0..len {
        let (dx, dy) = (newcomer[SX] - rx[k], newcomer[SY] - ry[k]);
        on[k] = newcomer[POWER] * weight[k] / pow.pow((dx * dx + dy * dy).sqrt());
        let (dx, dy) = (sx[k] - newcomer[RX], sy[k] - newcomer[RY]);
        own[k] = power[k] * newcomer[WEIGHT] / pow.pow((dx * dx + dy * dy).sqrt());
    }
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

    /// The index of `colors`: priced with `priced` and `budgets` when given.
    fn index_of(
        colors: &[Option<usize>],
        priced: Option<&[PricedLink]>,
        budgets: &[f64],
    ) -> SlotIndex {
        match priced {
            Some(priced) => SlotIndex::with_records(colors, priced, budgets),
            None => SlotIndex::from_colors(colors),
        }
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
        let budgets = match priced {
            Some(priced) => capture_budgets(&config.model, priced, prev),
            None => vec![0.0; prev.len()],
        };
        let mut index = index_of(prev, priced, &budgets);
        let outcome = solve_repair(
            links,
            &|i| graph.neighbors(i).to_vec(),
            config,
            &mut colors,
            &mut index,
            link_diversity(links).unwrap_or(1.0),
            check,
            &Recorder::disabled(),
        );
        // The carried columns equal a rebuild from the repaired colors.
        let budgets = index.budgets();
        assert_eq!(index, index_of(&colors, priced, &budgets));
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
        // Random inserts, removals and re-seats on a warm coloring, unpriced
        // and priced: after every splice the carried index — positions,
        // records and budgets — equals one built from scratch.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let record = |seed: usize| PricedLink {
            sender: Point::new(seed as f64, 0.5),
            receiver: Point::new(seed as f64, 1.5),
            power: (!seed.is_multiple_of(3)).then_some(seed as f64),
            weight: (!seed.is_multiple_of(5)).then_some(0.25 * seed as f64),
        };
        for priced in [false, true] {
            let mut colors: Vec<Option<usize>> =
                (0..40).map(|i| (i % 5 != 0).then_some(i % 7)).collect();
            let mut records: Vec<PricedLink> = (0..40).map(record).collect();
            let mut budgets: Vec<f64> = (0..40).map(|i| i as f64 / 64.0).collect();
            let rebuild = |colors: &[Option<usize>], records: &[PricedLink], budgets: &[f64]| {
                index_of(colors, priced.then_some(records), budgets)
            };
            let mut index = rebuild(&colors, &records, &budgets);
            for step in 0..600 {
                let fresh = record(1000 + step);
                match next(3) {
                    0 => {
                        let pos = next(colors.len() + 1);
                        colors.insert(pos, None);
                        records.insert(pos, fresh);
                        budgets.insert(pos, 0.0);
                        index.insert(pos, priced.then_some(&fresh));
                    }
                    1 if !colors.is_empty() => {
                        let pos = next(colors.len());
                        index.remove(pos, colors[pos]);
                        colors.remove(pos);
                        records.remove(pos);
                        budgets.remove(pos);
                    }
                    _ if !colors.is_empty() => {
                        let pos = next(colors.len());
                        if colors[pos].is_none() && next(2) == 0 {
                            // Re-color an unassigned entry the way a repair
                            // would, rebuilding (repairs own that transition).
                            colors[pos] = Some(next(8));
                            budgets[pos] = step as f64 / 1024.0;
                            index = rebuild(&colors, &records, &budgets);
                        } else {
                            index.reseat(pos, colors[pos], priced.then_some(&fresh));
                            colors[pos] = None;
                            records[pos] = fresh;
                        }
                    }
                    _ => {}
                }
                assert_eq!(index, rebuild(&colors, &records, &budgets));
                assert_eq!(index.budgets().len(), colors.len());
            }
        }
        // Emptying the top slot trims it, as a rebuild would.
        let colors = vec![Some(0), Some(2), None];
        let mut index = SlotIndex::from_colors(&colors);
        index.reseat(1, Some(2), None);
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
        budgets: Vec<f64>,
        check: &[usize],
    ) -> (Vec<Vec<usize>>, Vec<f64>, [u64; 4]) {
        let config = SchedulerConfig::new(PowerMode::Uniform);
        let rec = Recorder::new();
        let mut colors = prev.to_vec();
        let mut index = SlotIndex::with_records(prev, priced, &budgets);
        let outcome = solve_repair(
            links,
            &|_| Vec::new(),
            &config,
            &mut colors,
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
        (
            outcome.report.schedule.slots().to_vec(),
            index.budgets(),
            counts,
        )
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

    /// The one-term-at-a-time admission scan over per-position records and
    /// budgets that the chunked kernel replaced: its reference.
    fn reference_admits(
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

    /// Probes newcomer `priced[size]` into the slot of positions `0..size`
    /// with the chunked kernel and the reference: equal verdicts, equal
    /// `Err` term counts, and bit-equal own sums and added terms.
    fn assert_admits_like_the_reference(
        priced: &[PricedLink],
        budgets: &[f64],
        pow: AlphaPow,
        case: &str,
    ) -> Result<f64, u64> {
        let size = priced.len() - 1;
        let members: Vec<usize> = (0..size).collect();
        let mut slot = Slot::default();
        for &m in &members {
            let mut values = entry(&priced[m]);
            values[BUDGET] = budgets[m];
            slot.push(m, Some(values));
        }
        let (mut want_added, mut got_added) = (Vec::new(), vec![f64::NAN; 3]);
        let want = reference_admits(priced, budgets, &members, size, pow, 1.0, &mut want_added);
        let newcomer = entry(&priced[size]);
        let got = admits(&slot, &newcomer, pow, 1.0, &mut got_added);
        match (want, got) {
            (Ok(want), Ok(got)) => {
                assert_eq!(want.to_bits(), got.to_bits(), "{case}: own sum");
                let bits = |terms: &[f64]| terms.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&want_added), bits(&got_added[..size]), "{case}");
            }
            (want, got) => assert_eq!(want, got, "{case}: verdict"),
        }
        want
    }

    #[test]
    fn chunked_admission_matches_the_scalar_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        type Edit = fn(&mut [PricedLink], usize);
        let spices: [(&str, Edit); 13] = [
            ("slotmate without power", |p, k| p[k].power = None),
            ("slotmate without weight", |p, k| p[k].weight = None),
            ("NaN slotmate power", |p, k| p[k].power = Some(f64::NAN)),
            ("NaN slotmate weight", |p, k| p[k].weight = Some(f64::NAN)),
            ("infinite slotmate power", |p, k| {
                p[k].power = Some(f64::INFINITY)
            }),
            ("infinite slotmate weight", |p, k| {
                p[k].weight = Some(f64::INFINITY)
            }),
            ("zero slotmate power", |p, k| p[k].power = Some(0.0)),
            ("slotmate sender on the newcomer's receiver", |p, k| {
                p[k].sender = p[p.len() - 1].receiver
            }),
            ("newcomer sender on a slotmate's receiver", |p, k| {
                let last = p.len() - 1;
                p[last].sender = p[k].receiver
            }),
            ("slotmate at an overflowing distance", |p, k| {
                p[k].sender = Point::new(1e200, -1e200);
                p[k].receiver = Point::new(1e200, -1e200 + 1.0);
            }),
            ("newcomer without power", |p, _| {
                let last = p.len() - 1;
                p[last].power = None
            }),
            ("newcomer without weight", |p, _| {
                let last = p.len() - 1;
                p[last].weight = None
            }),
            ("NaN newcomer weight", |p, _| {
                let last = p.len() - 1;
                p[last].weight = Some(f64::NAN)
            }),
        ];
        for alpha in [2.0, 3.0, 4.0, 2.5] {
            let pow = AlphaPow::new(alpha);
            for size in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
                // Small parts over a 100-unit square: every sum stays far
                // under the threshold of 1 unless a case pushes it over.
                let priced: Vec<PricedLink> = (0..=size)
                    .map(|_| {
                        let (x, y, a) = (100.0 * unit(), 100.0 * unit(), 6.3 * unit());
                        PricedLink {
                            sender: Point::new(x, y),
                            receiver: Point::new(x + a.cos(), y + a.sin()),
                            power: Some(1e-6 + 1e-3 * unit()),
                            weight: Some(1e-6 + 1e-3 * unit()),
                        }
                    })
                    .collect();
                let budgets: Vec<f64> = (0..=size).map(|_| 1e-3 * unit()).collect();
                let case = format!("α = {alpha}, {size} slotmates");
                assert!(
                    assert_admits_like_the_reference(&priced, &budgets, pow, &case).is_ok(),
                    "{case}: the clean slot admits"
                );
                if size == 0 {
                    continue;
                }
                // The first failure at every slotmate, so at every offset
                // inside a chunk: an overdrawn budget fails the slotmate's
                // check, a loud slotmate the newcomer's own sum.
                for k in 0..size {
                    let mut full = budgets.clone();
                    full[k] = 2.0;
                    let verdict = assert_admits_like_the_reference(&priced, &full, pow, &case);
                    assert_eq!(
                        verdict,
                        Err(2 * k as u64 + 1),
                        "{case}: overdrawn budget at {k}"
                    );
                    let mut loud = priced.clone();
                    loud[k].power = Some(1e300);
                    let verdict = assert_admits_like_the_reference(&loud, &budgets, pow, &case);
                    assert_eq!(
                        verdict,
                        Err(2 * k as u64 + 2),
                        "{case}: loud slotmate at {k}"
                    );
                }
                // Unpriceable parts and degenerate geometry at a few places.
                for k in [0, size / 2, size - 1] {
                    for (spice, edit) in &spices {
                        let mut spiced = priced.clone();
                        edit(&mut spiced, k);
                        let case = format!("{case}: {spice} at {k}");
                        let _ = assert_admits_like_the_reference(&spiced, &budgets, pow, &case);
                    }
                    let mut nan = budgets.clone();
                    nan[k] = f64::NAN;
                    let verdict = assert_admits_like_the_reference(&priced, &nan, pow, &case);
                    assert_eq!(verdict, Err(2 * k as u64 + 1), "{case}: NaN budget at {k}");
                }
            }
        }
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
