//! Per-length-class mutable cell grids.
//!
//! The static `ConflictGraph::build` bins links into power-of-two length
//! classes and queries one grid per class; this module is the mutable
//! counterpart. Every live link of positive, finite length belongs to the
//! class keyed [`class_key`] and is stored in every cell of that class's
//! [`CellGrid`] its bounding box overlaps. Insert and remove edit those
//! `u32` cell lists in place, so every classed link is indexed at all
//! times. Links of no class ([`is_classed`]) are the engine's to check.
//!
//! **Layout.** A class lays its grid out over the union of its members'
//! boxes, with cells of side `2^(key + 1)` (the class's nominal upper length
//! bound; finite, as a finite length is below `2^512`) doubled until there
//! are at most two cells per member. A member outside that area is stored
//! in the border cells it clamps to. A class re-lays out only when its
//! membership doubles or falls to a quarter of its count at the last layout,
//! so layouts cost amortised `O(1)` per event;
//! `InterferenceEngine::with_links` lays out each class once over all its
//! members.
//!
//! **Query.** A (link, class) query takes one reach:
//! [`ConflictRelation::margined_reach`] of the link's length and the class's
//! length bounds `lo`/`hi`, with the largest `|coordinate|` of the link's box
//! and the class's extent. It skips the class when the extent fails the
//! box-gap test `gap² ≤ reach²`, and otherwise passes on the members in the
//! grid window that pass the same test. The `graph` module docs of
//! `wagg-conflict` show why the reach's two rounding margins keep every
//! conflicting pair. Between layouts `lo`, `hi` and the extent only widen,
//! which keeps the reach and the skip sound.

use std::collections::BTreeMap;
use wagg_conflict::ConflictRelation;
use wagg_geometry::grid::CellGrid;
use wagg_geometry::BoundingBox;
use wagg_sinr::Link;

/// Whether a link of `length` joins a length class: zero-length links, and
/// links whose length overflows to infinity, join none.
pub(crate) fn is_classed(length: f64) -> bool {
    length > 0.0 && length.is_finite()
}

/// The absolute power-of-two length-class key of a classed length.
fn class_key(length: f64) -> i32 {
    debug_assert!(is_classed(length));
    length.log2().floor() as i32
}

/// One length class.
#[derive(Debug, Clone)]
struct ClassIndex {
    /// Bounds on every live member's length: exact at the last layout, only
    /// widened since.
    lo: f64,
    hi: f64,
    /// Covers every live member's box: exact at the last layout, only grown
    /// since.
    extent: BoundingBox,
    /// Live members now, and at the last layout.
    len: usize,
    laid_out: usize,
    /// Member slots, in every cell their box overlaps.
    grid: CellGrid,
}

impl ClassIndex {
    /// Class `key` laid out over `members`, its live slots (at least one).
    fn laid_out(key: i32, members: &[u32], links: &[Option<Link>], bboxes: &[BoundingBox]) -> Self {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        let mut extent = bboxes[members[0] as usize];
        for &slot in members {
            let len = links[slot as usize].expect("members are live").length();
            (lo, hi) = (lo.min(len), hi.max(len));
            extent = extent.union(&bboxes[slot as usize]);
        }
        let mut grid = CellGrid::covering(&extent, 2f64.powi(key + 1), 2 * members.len());
        for &slot in members {
            grid.insert(slot, &bboxes[slot as usize]);
        }
        ClassIndex {
            lo,
            hi,
            extent,
            len: members.len(),
            laid_out: members.len(),
            grid,
        }
    }
}

/// All length classes of the engine, keyed by [`class_key`].
#[derive(Debug, Clone, Default)]
pub(crate) struct LengthClasses {
    classes: BTreeMap<i32, ClassIndex>,
    relayouts: usize,
}

impl LengthClasses {
    /// One class laid out per key over the classed live `slots`.
    pub fn with_members(slots: &[usize], links: &[Option<Link>], bboxes: &[BoundingBox]) -> Self {
        let mut by_key: BTreeMap<i32, Vec<u32>> = BTreeMap::new();
        for &slot in slots {
            let len = links[slot].expect("live").length();
            by_key.entry(class_key(len)).or_default().push(slot as u32);
        }
        let classes = by_key
            .into_iter()
            .map(|(key, members)| (key, ClassIndex::laid_out(key, &members, links, bboxes)))
            .collect();
        LengthClasses {
            classes,
            relayouts: 0,
        }
    }

    /// Number of re-layouts of existing classes (a class's first layout is
    /// not one) performed so far (stats).
    pub fn relayouts(&self) -> usize {
        self.relayouts
    }

    /// Number of populated classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Indexes the live `slot`, a classed link boxed by `bboxes[slot]`.
    pub fn insert(&mut self, slot: usize, links: &[Option<Link>], bboxes: &[BoundingBox]) {
        let len = links[slot].expect("inserting a live slot").length();
        let key = class_key(len);
        let Some(class) = self.classes.get_mut(&key) else {
            let class = ClassIndex::laid_out(key, &[slot as u32], links, bboxes);
            self.classes.insert(key, class);
            return;
        };
        (class.lo, class.hi) = (class.lo.min(len), class.hi.max(len));
        class.extent = class.extent.union(&bboxes[slot]);
        class.grid.insert(slot as u32, &bboxes[slot]);
        class.len += 1;
        if class.len >= 2 * class.laid_out {
            *class = ClassIndex::laid_out(key, &class.grid.ids(), links, bboxes);
            self.relayouts += 1;
        }
    }

    /// Unindexes `slot`, which held a link of length `len`. `links` and
    /// `bboxes` are the engine's slot tables: the slot's link is already
    /// gone, its box is still in place.
    pub fn remove(
        &mut self,
        slot: usize,
        len: f64,
        links: &[Option<Link>],
        bboxes: &[BoundingBox],
    ) {
        let key = class_key(len);
        let class = self.classes.get_mut(&key).expect("a populated class");
        class.grid.remove(slot as u32, &bboxes[slot]);
        class.len -= 1;
        if class.len == 0 {
            self.classes.remove(&key);
        } else if 4 * class.len <= class.laid_out {
            *class = ClassIndex::laid_out(key, &class.grid.ids(), links, bboxes);
            self.relayouts += 1;
        }
    }

    /// Visits, class by class, every live member whose box lies within the
    /// class's reach of `link` (boxed by `bbox`; `bboxes` boxes the
    /// members). A member may be visited once per cell it shares with the
    /// window, and may not conflict: the caller dedupes and applies the
    /// exact predicate. No conflicting member is skipped (see the module
    /// docs).
    pub fn for_each_candidate<F: FnMut(usize)>(
        &self,
        link: &Link,
        bbox: &BoundingBox,
        bboxes: &[BoundingBox],
        relation: ConflictRelation,
        mut visit: F,
    ) {
        let li = link.length();
        debug_assert!(is_classed(li), "links of no class are not indexed");
        for class in self.classes.values() {
            let max_coordinate = bbox.max_abs().max(class.extent.max_abs());
            let reach = relation.margined_reach((li, li), (class.lo, class.hi), max_coordinate);
            if !reach.is_finite() {
                class.grid.for_each_candidate(bbox, reach, &mut visit);
                continue;
            }
            let reach_sq = reach * reach;
            if bbox.gap_sq(&class.extent) > reach_sq {
                continue;
            }
            class.grid.for_each_candidate(bbox, reach, |slot| {
                if bbox.gap_sq(&bboxes[slot]) <= reach_sq {
                    visit(slot);
                }
            });
        }
    }
}
