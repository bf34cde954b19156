//! The length-class index: one mutable cell grid per power-of-two length
//! class.
//!
//! Two links conflict only within `l_min · f(l_max / l_min)` (the graphs
//! `G_f` of the paper's Appendix A), so conflicts are local per pair of
//! length classes. [`LengthClasses`] is the one index of that structure. The
//! static [`ConflictGraph::build`](crate::ConflictGraph::build) lays it out
//! over its input, the incremental engine in `wagg-engine` keeps it current
//! under every event, and `wagg-partition`'s tiling keys its class bounds
//! with the same [`class_key`].
//!
//! Every link of positive, finite length ([`is_classed`]) belongs to the
//! class keyed [`class_key`] and is stored in every cell of that class's
//! [`CellGrid`] its bounding box overlaps. Links are named by ids (the
//! static build's input positions, the engine's slots); the caller keeps
//! the per-id lengths and boxes. Links of no class are the caller's to
//! check.
//!
//! **Layout.** A class lays its grid out over the union of its members'
//! boxes, with cells of side `2^(key + 1)` (the class's nominal upper length
//! bound; positive and finite, as a positive, finite length lies between
//! `2^-538` and `2^512`) doubled until there are at most two cells per
//! member. A member outside that area is stored in the border cells it
//! clamps to. A class re-lays out when its membership doubles or falls to a
//! quarter of its count at the last layout, or when more than half its
//! members sit outside the area it was laid out over (a population that
//! drifts away would otherwise pile into the border cells and turn every
//! query into a scan). Each rule needs as many events since the last layout
//! as a re-layout costs, up to a constant, so layouts cost amortised `O(1)`
//! per event; [`LengthClasses::laid_out`] lays out each class once over all
//! its members.
//!
//! **Query.** A (link, class) query takes one reach:
//! [`ConflictRelation::margined_reach`] of the link's length and the class's
//! length bounds `lo`/`hi`, with the largest `|coordinate|` of the link's box
//! and the class's extent. It skips the class when the extent fails the
//! box-gap test `gap² ≤ reach²`, and otherwise passes on the members in the
//! grid window that pass the same test. It reports how many grid entries it
//! read, the work a query costs. The [`graph`](crate::graph) module
//! docs show why the reach's two rounding margins keep every conflicting
//! pair. Between layouts `lo`, `hi` and the extent only widen, which keeps
//! the reach and the skip sound.

use crate::ConflictRelation;
use std::collections::BTreeMap;
use wagg_geometry::grid::CellGrid;
use wagg_geometry::BoundingBox;

/// Whether box `b` lies inside `area`.
fn inside(area: &BoundingBox, b: &BoundingBox) -> bool {
    area.min_x <= b.min_x && b.max_x <= area.max_x && area.min_y <= b.min_y && b.max_y <= area.max_y
}

/// Whether a link of `length` joins a length class: zero-length links, and
/// links whose length overflows to infinity, join none.
pub fn is_classed(length: f64) -> bool {
    length > 0.0 && length.is_finite()
}

/// The power-of-two length-class key of a classed length:
/// `⌊log₂ length⌋`, read exactly off the float's exponent (a subnormal
/// length, whose exponent field is 0, takes the logarithm).
///
/// # Examples
///
/// ```
/// use wagg_conflict::classes::class_key;
///
/// assert_eq!(class_key(1.0), 0);
/// assert_eq!(class_key(3.9), 1);
/// assert_eq!(class_key(0.3), -2);
/// assert_eq!(class_key(1.0 - f64::EPSILON / 2.0), -1);
/// assert_eq!(class_key(f64::MIN_POSITIVE / 8.0), -1025);
/// ```
pub fn class_key(length: f64) -> i32 {
    debug_assert!(is_classed(length));
    let exponent = (length.to_bits() >> 52) as i32;
    if exponent == 0 {
        length.log2().floor() as i32
    } else {
        exponent - 1023
    }
}

/// One length class.
#[derive(Debug, Clone)]
struct ClassIndex {
    /// Bounds on every member's length: exact at the last layout, only
    /// widened since.
    lo: f64,
    hi: f64,
    /// Covers every member's box: exact at the last layout, only grown
    /// since.
    extent: BoundingBox,
    /// The area the grid was laid out over: `extent` at the last layout.
    area: BoundingBox,
    /// Members now, and at the last layout.
    len: usize,
    laid_out: usize,
    /// Members whose box leaves `area`.
    outside: usize,
    /// Member ids, in every cell their box overlaps.
    grid: CellGrid,
}

impl ClassIndex {
    /// Class `key` laid out over `members` (at least one).
    fn laid_out(
        key: i32,
        members: &[u32],
        length: &impl Fn(usize) -> f64,
        bboxes: &[BoundingBox],
    ) -> Self {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        let mut extent = bboxes[members[0] as usize];
        for &id in members {
            let len = length(id as usize);
            (lo, hi) = (lo.min(len), hi.max(len));
            extent = extent.union(&bboxes[id as usize]);
        }
        let mut grid = CellGrid::covering(&extent, 2f64.powi(key + 1), 2 * members.len());
        for &id in members {
            grid.insert(id, &bboxes[id as usize]);
        }
        ClassIndex {
            lo,
            hi,
            extent,
            area: extent,
            len: members.len(),
            laid_out: members.len(),
            outside: 0,
            grid,
        }
    }
}

/// Links indexed by length class (see the [module docs](self)). Every
/// method takes the caller's per-id tables: `length(id)` is a member's
/// length and `bboxes[id]` its segment box, unchanged while it is indexed.
#[derive(Debug, Clone, Default)]
pub struct LengthClasses {
    /// The populated classes, ascending by key.
    classes: Vec<(i32, ClassIndex)>,
    relayouts: usize,
}

impl LengthClasses {
    /// Lays out one class per key over the classed links among `ids`.
    pub fn laid_out(
        ids: impl IntoIterator<Item = usize>,
        length: impl Fn(usize) -> f64,
        bboxes: &[BoundingBox],
    ) -> Self {
        let mut by_key: BTreeMap<i32, Vec<u32>> = BTreeMap::new();
        for id in ids {
            let len = length(id);
            if is_classed(len) {
                by_key.entry(class_key(len)).or_default().push(id as u32);
            }
        }
        let classes = by_key
            .into_iter()
            .map(|(key, members)| (key, ClassIndex::laid_out(key, &members, &length, bboxes)))
            .collect();
        LengthClasses {
            classes,
            relayouts: 0,
        }
    }

    /// Number of re-layouts of existing classes so far (a class's first
    /// layout is not one).
    pub fn relayouts(&self) -> usize {
        self.relayouts
    }

    /// Number of populated classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Where class `key` is, or would be inserted, in `classes`.
    fn position(&self, key: i32) -> Result<usize, usize> {
        self.classes.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Indexes `id`, a classed link not indexed yet.
    pub fn insert(&mut self, id: usize, length: impl Fn(usize) -> f64, bboxes: &[BoundingBox]) {
        let len = length(id);
        let key = class_key(len);
        let at = match self.position(key) {
            Ok(at) => at,
            Err(at) => {
                let class = ClassIndex::laid_out(key, &[id as u32], &length, bboxes);
                self.classes.insert(at, (key, class));
                return;
            }
        };
        let class = &mut self.classes[at].1;
        (class.lo, class.hi) = (class.lo.min(len), class.hi.max(len));
        class.extent = class.extent.union(&bboxes[id]);
        class.grid.insert(id as u32, &bboxes[id]);
        class.len += 1;
        class.outside += usize::from(!inside(&class.area, &bboxes[id]));
        if class.len >= 2 * class.laid_out || 2 * class.outside > class.len {
            *class = ClassIndex::laid_out(key, &class.grid.ids(), &length, bboxes);
            self.relayouts += 1;
        }
    }

    /// Unindexes `id`, an indexed link.
    pub fn remove(&mut self, id: usize, length: impl Fn(usize) -> f64, bboxes: &[BoundingBox]) {
        let key = class_key(length(id));
        let at = self.position(key).expect("a populated class");
        let class = &mut self.classes[at].1;
        class.grid.remove(id as u32, &bboxes[id]);
        class.len -= 1;
        class.outside -= usize::from(!inside(&class.area, &bboxes[id]));
        if class.len == 0 {
            self.classes.remove(at);
        } else if 4 * class.len <= class.laid_out || 2 * class.outside > class.len {
            *class = ClassIndex::laid_out(key, &class.grid.ids(), &length, bboxes);
            self.relayouts += 1;
        }
    }

    /// Visits, class by class, every member whose box lies within the
    /// class's reach of a classed link of `length` boxed by `bbox`, among
    /// the members at or after `from` in (class key, id) order:
    /// `(i32::MIN, 0)` visits every class, and `(class_key(l_i), i + 1)`
    /// the pairs link `i` decides from its shorter side (its own class past
    /// it, and every longer class). A member may be visited once per cell it
    /// shares with the window, and may not conflict: the caller dedupes and
    /// applies the exact predicate. No conflicting member is skipped (see
    /// the module docs). Returns the number of grid entries read: each is
    /// one id test and at most one box test.
    pub fn for_each_candidate(
        &self,
        from: (i32, usize),
        length: f64,
        bbox: &BoundingBox,
        bboxes: &[BoundingBox],
        relation: ConflictRelation,
        mut visit: impl FnMut(usize),
    ) -> usize {
        let mut read = 0usize;
        debug_assert!(is_classed(length), "links of no class are not indexed");
        let (from_key, from_id) = from;
        let first = self.classes.partition_point(|&(key, _)| key < from_key);
        for (key, class) in &self.classes[first..] {
            let min_id = if *key == from_key { from_id } else { 0 };
            let max_coordinate = bbox.max_abs().max(class.extent.max_abs());
            let reach =
                relation.margined_reach((length, length), (class.lo, class.hi), max_coordinate);
            if !reach.is_finite() {
                class.grid.for_each_candidate(bbox, reach, |id| {
                    read += 1;
                    if id >= min_id {
                        visit(id);
                    }
                });
                continue;
            }
            let reach_sq = reach * reach;
            if bbox.gap_sq(&class.extent) > reach_sq {
                continue;
            }
            // The id test first: it is cheaper than the box gap.
            class.grid.for_each_candidate(bbox, reach, |id| {
                read += 1;
                if id >= min_id && bbox.gap_sq(&bboxes[id]) <= reach_sq {
                    visit(id);
                }
            });
        }
        read
    }
}
