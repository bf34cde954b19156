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
//! The additive admission is the workspace's one first fit under the
//! affectance threshold. It has three callers: [`solve_repair`]'s warm
//! placement and, through [`first_fit`], the static split of a colour class
//! ([`split_class_into_feasible`]) and the sharded verifier's repack
//! (`wagg_partition::AffectanceVerifier::pack_first_fit`).
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
//! # Layout
//!
//! The paper's schedules keep the number of slots nearly constant, so a
//! slot grows with the universe. The index therefore stores each slot as
//! a chain of chunks of at most `2 × 256` members, each chunk's positions
//! and columns in one allocation (a rope, or a B+-tree's leaf chain): a
//! full chunk splits, one that falls below 128 members merges with a
//! neighbour, and a binary search on the chunks' first positions finds a
//! member's chunk. An event's splice, a sweep eviction, an admission's
//! append and a commit re-sort each move at most about one chunk's
//! entries, whatever the slot's size, and the `repair.entries_moved`
//! counter adds them up. The admission prices a slot one chunk per
//! vectorised pass and checks it in slot order, so chunk boundaries never
//! change a result.
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
use wagg_sinr::pathloss::relative_interference_sum;
use wagg_sinr::{AlphaPow, Link, LinkId, PricedLink, SinrModel};

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

/// The slot index's storage unit: a chunk of a position list holds at most
/// `2 × CHUNK` members ([`CAP`]) and, unless it is its list's only chunk,
/// at least `CHUNK / 2`.
const CHUNK: usize = 256;

/// Members one chunk holds at most: a full chunk splits before it takes
/// another member, so a splice moves at most about this many entries
/// (32 KiB priced) however long the list is. An additive admission prices
/// one chunk per vectorised pass: wide enough for the pricing loop to run
/// at full width, short enough that a rejection near the front of a slot
/// prices little past it.
const CAP: usize = 2 * CHUNK;

/// Members a packed chunk holds at most: a from-scratch build, a split and
/// a merge leave chunks at most three quarters of [`CAP`] full, so inserts
/// find room before the next split.
const FILL: usize = 3 * CAP / 4;

/// A chunk's lanes grow and shrink by whole cache lines of entries.
const LINE: usize = 8;

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

/// A run of at most [`CAP`] consecutive members of a position list, in one
/// allocation of lanes `width` entries wide: the positions, then in a
/// priced index one lane per [`Entry`] column, so entry `k` of every lane
/// belongs to the `k`-th member. The width tracks the length within a few
/// cache lines and the lanes start on a cache line, so an admission pass
/// streams each column it reads densely: an unused lane tail would cost it
/// the prefetches that run into it. A position is kept as the bit pattern
/// of its lane's `f64`: lanes are only copied and compared as integers,
/// never computed on, and no position's pattern is a NaN.
#[derive(Debug)]
struct Chunk {
    len: usize,
    width: usize,
    /// Where the lanes start in `block`: its first cache line boundary.
    start: usize,
    block: Box<[f64]>,
}

/// A clone lays the lanes out afresh, on a cache line of its own block.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        self.relaid(self.width)
    }
}

impl Chunk {
    /// An empty chunk with room for `width` members.
    fn new(width: usize, priced: bool) -> Self {
        let lanes = if priced { 1 + BUDGET + 1 } else { 1 };
        let block = vec![0.0; lanes * width + LINE].into_boxed_slice();
        let start = (block.as_ptr() as usize).wrapping_neg() % 64 / 8;
        Chunk {
            len: 0,
            width,
            start,
            block,
        }
    }

    /// Every lane, each `width` wide.
    fn lanes(&self) -> std::slice::ChunksExact<'_, f64> {
        let end = self.start + self.block.len() - LINE;
        self.block[self.start..end].chunks_exact(self.width)
    }

    fn lanes_mut(&mut self) -> std::slice::ChunksExactMut<'_, f64> {
        let end = self.start + self.block.len() - LINE;
        self.block[self.start..end].chunks_exact_mut(self.width)
    }

    fn priced(&self) -> bool {
        self.lanes().len() > 1
    }

    /// Lane `l`'s live entries: empty for a column of an unpriced chunk.
    fn lane(&self, l: usize) -> &[f64] {
        self.lanes().nth(l).map_or(&[], |lane| &lane[..self.len])
    }

    fn column(&self, c: usize) -> &[f64] {
        self.lane(1 + c)
    }

    fn column_mut(&mut self, c: usize) -> &mut [f64] {
        let len = self.len;
        let lane = self.lanes_mut().nth(1 + c).expect("a priced chunk");
        &mut lane[..len]
    }

    fn position(&self, k: usize) -> usize {
        self.block[self.start + k].to_bits() as usize
    }

    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.lane(0).iter().map(|lane| lane.to_bits() as usize)
    }

    /// How many members sit below `pos`.
    fn rank(&self, pos: usize) -> usize {
        self.lane(0)
            .partition_point(|lane| (lane.to_bits() as usize) < pos)
    }

    /// The live entries of every column of a priced chunk.
    fn columns(&self) -> [&[f64]; 7] {
        let mut lanes = self.lanes().skip(1).map(|lane| &lane[..self.len]);
        std::array::from_fn(|_| lanes.next().expect("a priced chunk"))
    }

    /// Member `k`'s values; `None` in an unpriced chunk.
    fn entry(&self, k: usize) -> Option<Entry> {
        self.priced()
            .then(|| self.columns().map(|column| column[k]))
    }

    /// The members and their values in order.
    fn entries(&self) -> impl Iterator<Item = (usize, Option<Entry>)> + '_ {
        (0..self.len).map(|k| (self.position(k), self.entry(k)))
    }

    /// The members laid out `width` wide in a fresh allocation.
    fn relaid(&self, width: usize) -> Chunk {
        let len = self.len;
        let mut relaid = Chunk::new(width, self.priced());
        for (to, from) in relaid.lanes_mut().zip(self.lanes()) {
            to[..len].copy_from_slice(&from[..len]);
        }
        relaid.len = len;
        relaid
    }

    /// Lays the members out `width` wide in a fresh allocation; returns the
    /// entries moved.
    fn resize(&mut self, width: usize) -> usize {
        *self = self.relaid(width);
        self.len
    }

    /// Member `pos` at `k`, with its values in a priced chunk, one cache
    /// line wider if it is full; returns the entries moved.
    fn insert(&mut self, k: usize, pos: usize, entry: Option<Entry>) -> usize {
        assert!(self.len < CAP, "a full chunk splits before it grows");
        debug_assert_eq!(entry.is_some(), self.priced(), "values exactly when priced");
        let mut moved = 0;
        if self.len == self.width {
            moved += self.resize(self.width + LINE);
        }
        let len = self.len;
        for lane in self.lanes_mut() {
            lane.copy_within(k..len, k + 1);
        }
        self.set(k, pos, entry);
        self.len += 1;
        moved + len - k
    }

    /// Writes member `k`'s position and, in a priced chunk, its values.
    fn set(&mut self, k: usize, pos: usize, entry: Option<Entry>) {
        let (start, width) = (self.start, self.width);
        self.block[start + k] = f64::from_bits(pos as u64);
        for (c, value) in entry.into_iter().flatten().enumerate() {
            self.block[start + (1 + c) * width + k] = value;
        }
    }

    /// Drops member `k`, returning its values in a priced chunk and the
    /// entries shifted.
    fn remove(&mut self, k: usize) -> (Option<Entry>, usize) {
        let (entry, len) = (self.entry(k), self.len);
        for lane in self.lanes_mut() {
            lane.copy_within(k + 1..len, k);
        }
        self.len -= 1;
        (entry, self.len - k)
    }

    /// Moves every position at or above `from` one step up or down.
    fn renumber(&mut self, from: usize, up: bool) {
        let (k, len) = (self.rank(from), self.len);
        let positions = self.lanes_mut().next().expect("a position lane");
        for lane in &mut positions[k..len] {
            let pos = lane.to_bits();
            *lane = f64::from_bits(if up { pos + 1 } else { pos - 1 });
        }
    }
}

/// `len` members in list order, spread evenly over as few chunks as keep
/// each at most [`FILL`] full, every chunk's lanes the fewest cache lines
/// that leave room for one more member.
fn pack(
    len: usize,
    priced: bool,
    mut members: impl Iterator<Item = (usize, Option<Entry>)>,
) -> Vec<Chunk> {
    let count = len.div_ceil(FILL);
    (0..count)
        .map(|j| {
            let size = len / count + usize::from(j < len % count);
            let mut chunk = Chunk::new((size + 1).next_multiple_of(LINE), priced);
            for (k, (pos, entry)) in members.by_ref().take(size).enumerate() {
                chunk.set(k, pos, entry);
            }
            chunk.len = size;
            chunk
        })
        .collect()
}

/// A position list — a slot, or the unassigned list — as an ordered chain
/// of non-empty [`Chunk`]s, found by binary search on their first
/// positions. Every chunk holds at most [`CAP`] members and, unless it is
/// the list's only one, at least `CHUNK / 2`: one that falls below merges
/// with a neighbour. Between repairs a list ascends; during one, a slot's
/// admissions trail its ascending members.
#[derive(Debug, Clone, Default)]
struct Slot {
    chunks: Vec<Chunk>,
}

impl Slot {
    fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len).sum()
    }

    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().flat_map(Chunk::positions)
    }

    /// The members and their values in list order.
    fn entries(&self) -> impl Iterator<Item = (usize, Option<Entry>)> + '_ {
        self.chunks.iter().flat_map(Chunk::entries)
    }

    /// The positions in list order, as one vector.
    fn to_vec(&self) -> Vec<usize> {
        let mut positions = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            positions.extend(chunk.positions());
        }
        positions
    }

    /// The chunk position `pos` belongs in: the last one starting at or
    /// below it, or the first.
    fn chunk_of(&self, pos: usize) -> usize {
        self.chunks
            .partition_point(|c| c.position(0) <= pos)
            .saturating_sub(1)
    }

    /// Where member `pos` sits: its chunk and its entry there.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is not a member.
    fn find(&self, pos: usize) -> (usize, usize) {
        let j = self.chunk_of(pos);
        let k = self.chunks.get(j).map_or(0, |c| c.rank(pos));
        assert!(
            self.chunks
                .get(j)
                .is_some_and(|c| k < c.len && c.position(k) == pos),
            "position indexed under its color"
        );
        (j, k)
    }

    /// Member `pos` at its place in an ascending list; returns the entries
    /// moved, a split's or a widening's included.
    fn insert(&mut self, pos: usize, entry: Option<Entry>) -> usize {
        if self.chunks.is_empty() {
            self.chunks.push(Chunk::new(LINE, entry.is_some()));
        }
        let mut j = self.chunk_of(pos);
        let mut moved = 0;
        if self.chunks[j].len == CAP {
            moved += self.repack(j, 1);
            j += usize::from(self.chunks[j + 1].position(0) < pos);
        }
        let chunk = &mut self.chunks[j];
        moved + chunk.insert(chunk.rank(pos), pos, entry)
    }

    /// Member `pos` after the last one, in a chunk of its own when the
    /// last has no room: nothing moves.
    fn push(&mut self, pos: usize, entry: Option<Entry>) {
        if self.chunks.last().is_none_or(|c| c.len == c.width) {
            self.chunks.push(Chunk::new(LINE, entry.is_some()));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room");
        chunk.insert(chunk.len, pos, entry);
    }

    /// Drops and returns the last member.
    fn pop(&mut self) -> (usize, Option<Entry>) {
        let chunk = self.chunks.last_mut().expect("a member to pop");
        let last = chunk.len - 1;
        let member = (chunk.position(last), chunk.entry(last));
        chunk.len = last;
        if chunk.len == 0 {
            self.chunks.pop();
        }
        member
    }

    /// Drops entry `k` of chunk `j`; a chunk left below `CHUNK / 2` merges
    /// with a neighbour, and one left two cache lines narrower than its
    /// lanes is laid out afresh. Returns the member's values in a priced
    /// list and the entries moved.
    fn remove_at(&mut self, j: usize, k: usize) -> (Option<Entry>, usize) {
        let (entry, mut moved) = self.chunks[j].remove(k);
        let (len, width) = (self.chunks[j].len, self.chunks[j].width);
        if len == 0 {
            self.chunks.remove(j);
        } else if len < CHUNK / 2 && self.chunks.len() > 1 {
            moved += self.repack(j.saturating_sub(1), 2);
        } else if width - len >= 2 * LINE {
            moved += self.chunks[j].resize((len + 1).next_multiple_of(LINE));
        }
        (entry, moved)
    }

    /// Packs chunks `j..j + count` afresh (see [`pack`]); returns the
    /// entries moved.
    fn repack(&mut self, j: usize, count: usize) -> usize {
        let old: Vec<Chunk> = self.chunks.drain(j..j + count).collect();
        let len = old.iter().map(|c| c.len).sum();
        let fresh = pack(len, old[0].priced(), old.iter().flat_map(Chunk::entries));
        self.chunks.splice(j..j, fresh);
        len
    }

    /// Moves every position at or above `from` one step up or down.
    fn renumber(&mut self, from: usize, up: bool) {
        let j = self.chunk_of(from);
        for chunk in self.chunks.iter_mut().skip(j) {
            chunk.renumber(from, up);
        }
    }

    /// Whether every chunk keeps its size bounds.
    fn in_bounds(&self) -> bool {
        let floor = if self.chunks.len() > 1 { CHUNK / 2 } else { 1 };
        self.chunks.iter().all(|c| (floor..=CAP).contains(&c.len))
    }
}

/// Lists compare by content, lane for lane and bit for bit (so a NaN part
/// or budget equals itself), whatever their chunk boundaries.
impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        fn bits(slot: &Slot, l: usize) -> impl Iterator<Item = u64> + '_ {
            let lanes = slot.chunks.iter().flat_map(move |c| c.lane(l));
            lanes.map(|v| v.to_bits())
        }
        (0..=1 + BUDGET).all(|l| bits(self, l).eq(bits(other, l)))
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
///
/// Each list is an ordered chain of chunks, found by binary search on
/// their first positions. A chunk holds at most `2 × 256` members and,
/// unless it is its list's only one, at least 128; it keeps its positions
/// and its columns in one allocation, whose lanes track its length to
/// within a cache line or two. A full chunk splits, one that falls below
/// 128 members merges with a neighbour, and a from-scratch build packs
/// chunks at most three quarters full. So an insert, a removal, a re-seat,
/// a sweep eviction, an admission's append and a commit re-sort each move
/// at most about one chunk's entries (32 KiB priced), a split's or a
/// merge's included, whatever the slot's size. The index tallies every
/// entry it moves, and [`solve_repair`] reports the tally as the
/// `repair.entries_moved` counter. Two indexes are equal when their lists
/// hold the same positions and the same column bits in the same order:
/// chunk boundaries and the tally do not count.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    slots: Vec<Slot>,
    /// The unassigned positions, with their records (zero budgets) in a
    /// priced index.
    unassigned: Slot,
    priced: bool,
    /// Entries shifted by splices since the last repair drained the tally.
    moved: u64,
}

impl PartialEq for SlotIndex {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
            && self.unassigned == other.unassigned
            && self.priced == other.priced
    }
}

impl Eq for SlotIndex {}

impl SlotIndex {
    /// The unpriced membership of `colors` built from scratch: every
    /// position in ascending order in its slot (or the unassigned list),
    /// one slot per color up to the largest one in use.
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
        // The positions of each slot, then of the unassigned list.
        let mut lists = vec![Vec::new(); num_colors + 1];
        for (i, &color) in colors.iter().enumerate() {
            lists[color.unwrap_or(num_colors)].push(i);
        }
        let values = |i: usize| {
            priced.map(|(records, budgets)| {
                let mut values = entry(&records[i]);
                values[BUDGET] = if colors[i].is_some() { budgets[i] } else { 0.0 };
                values
            })
        };
        let mut slots: Vec<Slot> = lists
            .iter()
            .map(|list| Slot {
                chunks: pack(
                    list.len(),
                    priced.is_some(),
                    list.iter().map(|&i| (i, values(i))),
                ),
            })
            .collect();
        let unassigned = slots.pop().expect("the unassigned list");
        SlotIndex {
            slots,
            unassigned,
            priced: priced.is_some(),
            moved: 0,
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
            list.renumber(pos, true);
        }
        self.moved += self.unassigned.insert(pos, record.map(entry)) as u64;
    }

    /// Drops position `pos`, whose warm color is `color`, with its record
    /// and budget; positions after it shift down by one.
    ///
    /// # Panics
    ///
    /// Panics when `pos` is not indexed under `color`.
    pub fn remove(&mut self, pos: usize, color: Option<usize>) {
        self.take(pos, color);
        for list in self.lists() {
            list.renumber(pos, false);
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
        self.take(pos, color);
        self.moved += self.unassigned.insert(pos, record.map(entry)) as u64;
        self.trim();
    }

    /// Drops position `pos` from the list of `color`.
    fn take(&mut self, pos: usize, color: Option<usize>) {
        let list = match color {
            Some(c) => &mut self.slots[c],
            None => &mut self.unassigned,
        };
        let (j, k) = list.find(pos);
        self.moved += list.remove_at(j, k).1 as u64;
    }

    /// The unassigned positions, ascending.
    pub fn unassigned(&self) -> impl Iterator<Item = usize> + '_ {
        self.unassigned.positions()
    }

    /// Position → warm budget, materialised from the slots' columns: zero
    /// for unassigned positions and throughout an unpriced index.
    pub fn budgets(&self) -> Vec<f64> {
        let placed: usize = self.slots.iter().map(Slot::len).sum();
        let mut budgets = vec![0.0; placed + self.unassigned.len()];
        for chunk in self.slots.iter().flat_map(|s| &s.chunks) {
            for (m, &b) in chunk.positions().zip(chunk.column(BUDGET)) {
                budgets[m] = b;
            }
        }
        budgets
    }

    /// Every position list: the slots, then the unassigned list.
    fn lists(&mut self) -> impl Iterator<Item = &mut Slot> {
        self.slots
            .iter_mut()
            .chain(std::iter::once(&mut self.unassigned))
    }

    /// Drops trailing empty slots (what a from-scratch build sizes to).
    fn trim(&mut self) {
        while self.slots.last().is_some_and(Slot::is_empty) {
            self.slots.pop();
        }
    }

    /// Whether the positions are `colors`' membership, every chunk within
    /// its size bounds.
    fn tracks(&self, colors: &[Option<usize>]) -> bool {
        let lists = |index: &SlotIndex| {
            let lists = index.slots.iter().chain([&index.unassigned]);
            lists.map(Slot::to_vec).collect::<Vec<_>>()
        };
        let bounded = self
            .slots
            .iter()
            .chain([&self.unassigned])
            .all(Slot::in_bounds);
        bounded && lists(self) == lists(&SlotIndex::from_colors(colors))
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
    for slot in index.slots.iter().map(Slot::to_vec) {
        for &i in &slot {
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
/// an additive probe reads up to its verdict) / `repair.entries_moved`
/// (index entries this call's evictions and re-sort moved, plus the
/// index's tally of those its splices moved since the last repair)
/// counters, accumulated locally — one atomic add per counter per call,
/// nothing in the probe loops. Pass [`Recorder::disabled`] to record
/// nothing.
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
        slots,
        unassigned,
        moved: event_moved,
        ..
    } = index;
    // The links to place, with their records in a priced index.
    let mut pending: Vec<(usize, Option<Entry>)> = unassigned.entries().collect();
    *unassigned = Slot::default();
    let dirty = pending.len();
    let mut moved = std::mem::take(event_moved);

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
                let (j, k) = slot.find(v);
                if !within(slot.chunks[j].column(BUDGET)[k], threshold) {
                    let (values, shifted) = slot.remove_at(j, k);
                    moved += shifted as u64;
                    pending.push((v, values));
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
                if !slot_ok(links, &slots[c].to_vec(), config, None) {
                    let slot = std::mem::take(&mut slots[c]);
                    for (i, values) in slot.entries() {
                        colors[i] = None;
                        pending.push((i, values));
                    }
                    evicted_total += slot.len();
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
    let mut order: Vec<usize> = (0..replaced).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&links[pending[a].0], &links[pending[b].0]);
        b.length().total_cmp(&a.length()).then(a.id.cmp(&b.id))
    });
    // Stamps mark the colors of `i`'s conflict neighbours per placement.
    let mut mark: Vec<usize> = vec![usize::MAX; slots.len()];
    let mut candidate: Vec<usize> = Vec::new();
    let mut added: Vec<f64> = Vec::new();
    for (step, &p) in order.iter().enumerate() {
        let (i, mut values) = pending[p];
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
                        absorb(slot, &added);
                        terms += 2 * slot.len() as u64;
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
                candidate.extend(slot.positions());
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
        if slot.is_empty() {
            continue;
        }
        if c != kept {
            for m in slot.positions() {
                colors[m] = Some(kept);
            }
        }
        kept += 1;
    }
    slots.retain(|s| !s.is_empty());
    let report = ScheduleReport::new(
        slots.iter().map(Slot::to_vec).collect(),
        slots.len(),
        diversity,
        config.mode,
        n,
    );
    // The report keeps admission order; the index goes back to ascending
    // positions, the order the next repair's probes must visit. A slot's
    // admissions are its tail (pushed after its ascending clean members),
    // so each one is popped and inserted back in place: one chunk shifts
    // per admission, whatever the slot's size.
    let mut admitted: Vec<usize> = pending
        .iter()
        .map(|&(i, _)| colors[i].expect("placed"))
        .collect();
    admitted.sort_unstable();
    for run in admitted.chunk_by(|a, b| a == b) {
        let slot = &mut slots[run[0]];
        let mut tail: Vec<(usize, Option<Entry>)> = run.iter().map(|_| slot.pop()).collect();
        tail.sort_unstable_by_key(|&(i, _)| i);
        for (i, values) in tail {
            moved += slot.insert(i, values) as u64;
        }
    }
    commit_span.finish();
    rec.add("repair.entries_moved", moved);
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

/// First fit of `order` (positions into `links`) under the threshold `1/β`
/// of `model`: each link joins the first sub-slot in which every member's
/// relative-interference sum, its own included, stays within `1/β` with it
/// added, or opens a new one. `(powers, weights)` are the links' cached
/// parts, position for position, as [`PathLossCache::parts`] lends them.
/// Returns the sub-slots, members in join order.
///
/// The sub-slots are those of probing each candidate afresh with the exact
/// sum ([`PathLossCache::subset_feasible`]), at O(|sub-slot|) per probe: a
/// sub-slot is a priced chunk list of its members at their join indices,
/// each member's budget its running sum, probed by the warm admission. The
/// running sums add the fresh probe's terms in its order, the newcomer
/// last, so every verdict is bit-identical. Where the kernel cannot be, the
/// candidates are probed afresh: a `1/β` that overflows to `∞` admits the
/// `∞` term of a missing part, where the fresh sum is `None`; and two links
/// of `order` sharing an id are priced as distinct transmitters, where the
/// fresh sum skips an interferer carrying the target's id.
///
/// [`PathLossCache::parts`]: wagg_sinr::PathLossCache::parts
/// [`PathLossCache::subset_feasible`]: wagg_sinr::PathLossCache::subset_feasible
pub fn first_fit(
    links: &[Link],
    (powers, weights): (&[Option<f64>], &[Option<f64>]),
    model: &SinrModel,
    order: &[usize],
) -> Vec<Vec<usize>> {
    let pow = AlphaPow::new(model.alpha());
    let threshold = 1.0 / model.beta();
    let mut ids: Vec<LinkId> = order.iter().map(|&i| links[i].id).collect();
    ids.sort_unstable();
    if !threshold.is_finite() || ids.windows(2).any(|w| w[0] == w[1]) {
        return first_fit_by(order, |grown| {
            grown.iter().all(|&t| {
                let (sources, weight) = (grown.iter().copied(), weights[t]);
                relative_interference_sum(pow, sources, t, weight, |j| &links[j], |j| powers[j])
                    .is_some_and(|sum| sum <= threshold)
            })
        });
    }
    let mut slots: Vec<Slot> = Vec::new();
    let mut added = Vec::new();
    for (k, &i) in order.iter().enumerate() {
        let link = &links[i];
        let mut values = entry(&PricedLink {
            sender: link.sender,
            receiver: link.receiver,
            power: powers[i],
            weight: weights[i],
        });
        let fit = slots.iter_mut().position(|slot| {
            let Ok(own) = admits(slot, &values, pow, threshold, &mut added) else {
                return false;
            };
            absorb(slot, &added);
            values[BUDGET] = own;
            true
        });
        let c = fit.unwrap_or_else(|| {
            slots.push(Slot::default());
            slots.len() - 1
        });
        // Join indices ascend, so `insert` fills chunks up to `CAP`; `push`
        // would chain 8-wide chunks, one pricing pass per 8 members.
        slots[c].insert(k, Some(values));
    }
    let members = |slot: &Slot| slot.positions().map(|k| order[k]).collect();
    slots.iter().map(members).collect()
}

/// First fit of `order` by a whole-candidate check: each link joins the
/// first sub-slot that `fits` with the link appended, or opens a new one.
pub(crate) fn first_fit_by(
    order: &[usize],
    mut fits: impl FnMut(&[usize]) -> bool,
) -> Vec<Vec<usize>> {
    let mut slots: Vec<Vec<usize>> = Vec::new();
    let mut candidate = Vec::new();
    for &i in order {
        let fit = slots.iter().position(|slot| {
            candidate.clear();
            candidate.extend_from_slice(slot);
            candidate.push(i);
            fits(&candidate)
        });
        match fit {
            Some(s) => slots[s].push(i),
            None => slots.push(vec![i]),
        }
    }
    slots
}

/// Adds an admission's priced terms to its slotmates' budgets: `added[k]`,
/// as [`admits`] leaves it, on the slot's `k`-th member.
#[inline(always)]
fn absorb(slot: &mut Slot, added: &[f64]) {
    let mut on = added;
    for chunk in &mut slot.chunks {
        let (here, rest) = on.split_at(chunk.len);
        for (b, &term) in chunk.column_mut(BUDGET).iter_mut().zip(here) {
            *b += term;
        }
        on = rest;
    }
}

/// The additive admission probe of `newcomer` into `slot`: every slotmate
/// must absorb the newcomer's term within `threshold`, and the newcomer's
/// own sum must close under it. `Ok` carries the own sum, with `added`
/// holding each slotmate's term in slot order; `Err` carries the number of
/// terms a one-term-at-a-time scan prices up to the first one that failed.
/// NaN sums fail.
///
/// Each chunk of the slot is priced whole by [`price`] and then checked in
/// slot order, so the verdict, the count, the own sum and the added terms
/// are the one-term-at-a-time scan's, bit for bit, wherever the chunk
/// boundaries fall.
fn admits(
    slot: &Slot,
    newcomer: &Entry,
    pow: AlphaPow,
    threshold: f64,
    added: &mut Vec<f64>,
) -> Result<f64, u64> {
    let len = slot.len();
    if added.len() < len {
        added.resize(len, 0.0);
    }
    let mut own_terms = [0.0f64; CAP];
    let mut own = 0.0f64;
    let mut offset = 0;
    for chunk in &slot.chunks {
        let columns = chunk.columns();
        let on = &mut added[offset..offset + chunk.len];
        let own_terms = &mut own_terms[..chunk.len];
        // Dispatch once per chunk: with the exponent a constant, the
        // pricing loop has no branch left and runs vectorised.
        match pow {
            AlphaPow::Square => price(&columns, newcomer, AlphaPow::Square, on, own_terms),
            AlphaPow::Cube => price(&columns, newcomer, AlphaPow::Cube, on, own_terms),
            AlphaPow::Quartic => price(&columns, newcomer, AlphaPow::Quartic, on, own_terms),
            other => price(&columns, newcomer, other, on, own_terms),
        }
        let checked = columns[BUDGET].iter().zip(&*on).zip(&*own_terms);
        for (k, ((&budget, &on_m), &on_i)) in checked.enumerate() {
            let at = (offset + k) as u64;
            if !within(budget + on_m, threshold) {
                return Err(2 * at + 1);
            }
            own += on_i;
            if !within(own, threshold) {
                return Err(2 * at + 2);
            }
        }
        offset += chunk.len;
    }
    Ok(own)
}

/// Prices a chunk's `columns` both ways against `newcomer`: `on[k]` is the
/// newcomer's term on member `k`, `own[k]` that member's term on the
/// newcomer — [`PricedLink::term_on`]'s `P·w / (√d²)^α`, operation for
/// operation. No branch: with the models' `α > 2`, `0^α = 0`, so a sender
/// on a receiver prices at `+∞` (or NaN for a zero power) and rejects as
/// `term_on`'s `+∞` does.
#[inline(always)]
fn price(columns: &[&[f64]; 7], newcomer: &Entry, pow: AlphaPow, on: &mut [f64], own: &mut [f64]) {
    let len = on.len();
    let column = |c: usize| &columns[c][..len];
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
    use wagg_sinr::{PathLossCache, PowerAssignment};

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
        // Two slots and the unassigned list over hundreds to a thousand
        // positions: inserts grow the unassigned list until its chunk
        // splits, re-seats move slot members over, and removals then shrink
        // its chunks until they merge. After every splice the index equals
        // a rebuild, and every chunk keeps its size bounds.
        let record = |seed: usize| PricedLink {
            sender: Point::new(seed as f64, 0.5),
            receiver: Point::new(seed as f64, 1.5),
            power: Some(seed as f64),
            weight: Some(0.5),
        };
        let n = 600;
        let mut colors: Vec<Option<usize>> =
            (0..n).map(|i| [None, Some(0), Some(1)][i % 3]).collect();
        let mut records: Vec<PricedLink> = (0..n).map(record).collect();
        let mut budgets: Vec<f64> = (0..n).map(|i| i as f64 / 4096.0).collect();
        let mut index = SlotIndex::with_records(&colors, &records, &budgets);
        let chunks = |index: &SlotIndex| index.unassigned.chunks.len();
        let (mut splits, mut merges) = (0, 0);
        for step in 0.. {
            let before = chunks(&index);
            let pos = next(colors.len());
            if step < 400 {
                let fresh = record(n + step);
                colors.insert(pos, None);
                records.insert(pos, fresh);
                budgets.insert(pos, 0.0);
                index.insert(pos, Some(&fresh));
            } else if step < 600 {
                if colors[pos].is_some() {
                    index.reseat(pos, colors[pos].take(), Some(&records[pos]));
                }
            } else if colors.len() > 200 {
                index.remove(pos, colors[pos]);
                colors.remove(pos);
                records.remove(pos);
                budgets.remove(pos);
            } else {
                break;
            }
            splits += usize::from(chunks(&index) > before);
            merges += usize::from(chunks(&index) < before);
            let mut lists = index.slots.iter().chain([&index.unassigned]);
            assert!(lists.all(Slot::in_bounds), "step {step}: chunk bounds");
            assert_eq!(index, SlotIndex::with_records(&colors, &records, &budgets));
        }
        assert!(splits > 0 && merges > 0, "{splits} splits, {merges} merges");
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

    #[test]
    fn a_relocation_into_its_own_slot_moves_at_most_two_chunks() {
        // One slot of 4 000 links 50 units apart spans more than eight
        // chunks. The link at its front is re-seated (the event) and
        // re-admitted to the same slot (the solve): the event's splice and
        // the commit's re-sort each move at most one chunk's entries, not
        // the slot's.
        let links: Vec<Link> = (0..4_000)
            .map(|i| {
                let (x, y) = ((i % 64) as f64 * 50.0, (i / 64) as f64 * 50.0);
                Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
            })
            .collect();
        let priced = priced_uniform(&links);
        let mut colors = vec![Some(0); links.len()];
        let mut index = SlotIndex::with_records(&colors, &priced, &vec![0.0; links.len()]);
        assert!(index.slots[0].chunks.len() >= 8);
        index.reseat(0, colors[0].take(), Some(&priced[0]));
        let rec = Recorder::new();
        solve_repair(
            &links,
            &|_| Vec::new(),
            &SchedulerConfig::new(PowerMode::Uniform),
            &mut colors,
            &mut index,
            1.0,
            &[],
            &rec,
        );
        assert_eq!(colors[0], Some(0), "back in its own slot");
        let moved = rec.metrics().counter("repair.entries_moved").unwrap_or(0);
        assert!(
            0 < moved && moved <= 2 * 2 * CHUNK as u64,
            "{moved} entries moved"
        );
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

    /// The slot of positions `0..priced.len() - 1` with their records and
    /// budgets, inserted in `order` (ascending positions when `None`:
    /// packed as a from-scratch build packs it).
    fn slot_of(priced: &[PricedLink], budgets: &[f64], order: Option<&[usize]>) -> Slot {
        let size = priced.len() - 1;
        let values = |m: usize| {
            let mut values = entry(&priced[m]);
            values[BUDGET] = budgets[m];
            (m, Some(values))
        };
        let Some(order) = order else {
            return Slot {
                chunks: pack(size, true, (0..size).map(values)),
            };
        };
        let mut slot = Slot::default();
        for &m in order {
            let (m, values) = values(m);
            slot.insert(m, values);
        }
        slot
    }

    /// Probes newcomer `priced[size]` into `slot`, the slot of positions
    /// `0..size`, with the chunked kernel and the reference: equal
    /// verdicts, equal `Err` term counts, and bit-equal own sums and added
    /// terms.
    fn assert_admits_like_the_reference(
        slot: &Slot,
        priced: &[PricedLink],
        budgets: &[f64],
        pow: AlphaPow,
        case: &str,
    ) -> Result<f64, u64> {
        let size = priced.len() - 1;
        let members: Vec<usize> = (0..size).collect();
        let (mut want_added, mut got_added) = (Vec::new(), vec![f64::NAN; 3]);
        let want = reference_admits(priced, budgets, &members, size, pow, 1.0, &mut want_added);
        let newcomer = entry(&priced[size]);
        let got = admits(slot, &newcomer, pow, 1.0, &mut got_added);
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
        // Around one pricing pass, around the storage bound (one chunk, or
        // two of about half), and across several chunks.
        let sizes = [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK - 1,
            2 * CHUNK,
            2 * CHUNK + 1,
            3 * CHUNK + 7,
            8 * CHUNK + 3,
        ];
        for alpha in [2.0, 3.0, 4.0, 2.5] {
            let pow = AlphaPow::new(alpha);
            for size in sizes {
                // The layout and the exponent meet nowhere but in the
                // pricing loop every size runs, so the slot of many chunks
                // runs at the default exponent only.
                if size > 3 * CHUNK + 7 && alpha != 3.0 {
                    continue;
                }
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
                // The slot packed as a from-scratch build packs it; the
                // largest once more grown by inserts at random positions,
                // so its chunks fill unevenly.
                let mut orders = vec![None];
                if size == 8 * CHUNK + 3 {
                    let mut order: Vec<usize> = (0..size).collect();
                    for i in (1..size).rev() {
                        order.swap(i, (unit() * (i + 1) as f64) as usize);
                    }
                    orders.push(Some(order));
                }
                for order in &orders {
                    let layout = if order.is_some() {
                        "inserted"
                    } else {
                        "packed"
                    };
                    let case = format!("α = {alpha}, {size} slotmates {layout}");
                    let slot = slot_of(&priced, &budgets, order.as_deref());
                    assert!(
                        slot.positions().eq(0..size),
                        "{case}: the slot lists 0..{size}"
                    );
                    assert!(slot.in_bounds(), "{case}: chunk bounds");
                    let admits_like_the_reference = |priced: &[PricedLink], budgets: &[f64]| {
                        let slot = slot_of(priced, budgets, order.as_deref());
                        assert_admits_like_the_reference(&slot, priced, budgets, pow, &case)
                    };
                    assert!(
                        admits_like_the_reference(&priced, &budgets).is_ok(),
                        "{case}: the clean slot admits"
                    );
                    if size == 0 {
                        continue;
                    }
                    // The first failure at every slotmate, so at every
                    // offset inside a chunk — around the storage bound and
                    // past three chunks, at every chunk's edges and a stride
                    // between: an overdrawn budget fails the slotmate's
                    // check, a loud slotmate the newcomer's own sum.
                    let every = size <= CHUNK + 1 || size == 3 * CHUNK + 7;
                    let mut offsets: Vec<usize> = if every {
                        (0..size).collect()
                    } else {
                        let starts = slot.chunks.iter().scan(0, |at, c| {
                            *at += c.len;
                            Some(*at - c.len)
                        });
                        let edges = starts.flat_map(|at| [at.saturating_sub(1), at, at + 1]);
                        edges
                            .chain((0..size).step_by(97))
                            .chain([size - 1])
                            .collect()
                    };
                    offsets.sort_unstable();
                    offsets.dedup();
                    for k in offsets {
                        let mut full = budgets.clone();
                        full[k] = 2.0;
                        assert_eq!(
                            admits_like_the_reference(&priced, &full),
                            Err(2 * k as u64 + 1),
                            "{case}: overdrawn budget at {k}"
                        );
                        let mut loud = priced.clone();
                        loud[k].power = Some(1e300);
                        assert_eq!(
                            admits_like_the_reference(&loud, &budgets),
                            Err(2 * k as u64 + 2),
                            "{case}: loud slotmate at {k}"
                        );
                    }
                    // Unpriceable parts and degenerate geometry at a few
                    // places.
                    for k in [0, size / 2, size - 1] {
                        for (spice, edit) in &spices {
                            let mut spiced = priced.clone();
                            edit(&mut spiced, k);
                            let slot = slot_of(&spiced, &budgets, order.as_deref());
                            let case = format!("{case}: {spice} at {k}");
                            let _ = assert_admits_like_the_reference(
                                &slot, &spiced, &budgets, pow, &case,
                            );
                        }
                        let mut nan = budgets.clone();
                        nan[k] = f64::NAN;
                        assert_eq!(
                            admits_like_the_reference(&priced, &nan),
                            Err(2 * k as u64 + 1),
                            "{case}: NaN budget at {k}"
                        );
                    }
                }
            }
        }
    }

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    /// First fit with every candidate checked afresh by `subset_feasible`.
    fn fresh_first_fit(cache: &PathLossCache<'_>, order: &[usize]) -> Vec<Vec<usize>> {
        let mut slots: Vec<Vec<usize>> = Vec::new();
        for &idx in order {
            let fit = slots.iter().position(|slot| {
                let mut candidate = slot.clone();
                candidate.push(idx);
                cache.subset_feasible(&candidate)
            });
            match fit {
                Some(s) => slots[s].push(idx),
                None => slots.push(vec![idx]),
            }
        }
        slots
    }

    #[test]
    fn first_fit_running_sums_are_bit_identical_at_the_threshold() {
        // Put 1/β exactly on (and one ulp below) every sum a first fit over
        // ascending positions can evaluate: a running sum that drifts by
        // one ulp from the fresh probe's flips a verdict here.
        let links = vec![
            line_link(0, 0.0, 1.0),
            line_link(1, 3.0, 4.5),
            line_link(2, 9.0, 7.0),
            line_link(3, 12.0, 12.7),
            line_link(4, 20.0, 17.5),
            line_link(5, 26.0, 27.0),
        ];
        let power = PowerAssignment::mean();
        let base = PathLossCache::new(&SinrModel::default(), &links, &power);
        let order: Vec<usize> = (0..links.len()).collect();
        let mut sums = Vec::new();
        for mask in 1u32..(1 << links.len()) {
            let members: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&i| mask & (1 << i) != 0)
                .collect();
            for k in 0..members.len() {
                sums.extend(base.subset_relative_interference_on(&members, k));
            }
        }
        let mut exact = 0;
        for threshold in sums.into_iter().flat_map(|s| [s, s.next_down()]) {
            // A β whose reciprocal is exactly the threshold, if one exists.
            let mut beta = 1.0 / threshold;
            for _ in 0..4 {
                let inv = 1.0 / beta;
                if inv == threshold {
                    break;
                }
                beta = if inv < threshold {
                    beta.next_down()
                } else {
                    beta.next_up()
                };
            }
            if !(threshold > 0.0 && 1.0 / beta == threshold) {
                continue;
            }
            exact += 1;
            let model = SinrModel::new(3.0, beta, 0.0).unwrap();
            let cache = PathLossCache::new(&model, &links, &power);
            assert_eq!(
                first_fit(&links, cache.parts(), &model, &order),
                fresh_first_fit(&cache, &order),
                "1/β = {threshold:e}"
            );
        }
        assert!(exact > 100, "only {exact} thresholds placed exactly");
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
