//! Uniform spatial hashes over axis-aligned boxes.
//!
//! [`UniformGrid`] is the spatial index behind the workspace's
//! distance-bounded pairwise kernels (conflict-graph construction being the
//! main consumer): items — typically the bounding boxes of link segments — are
//! binned into square cells of a caller-chosen size, and
//! [`UniformGrid::for_each_candidate`] enumerates every item whose bounding
//! box could lie within a query radius of a query box, in `O(cells touched +
//! candidates)` instead of `O(n)`.
//!
//! Guarantees and non-guarantees:
//!
//! * **Superset property** — if the true (Euclidean, segment-to-segment)
//!   distance between a query item and a stored item is at most `radius`, the
//!   stored item *is* visited: Euclidean distance upper-bounds each axis gap,
//!   so the expanded query box intersects the item's box. Callers must still
//!   apply their exact predicate; the grid only prunes.
//! * **Duplicates** — an item spanning several cells is visited once per
//!   overlapped cell in the query window. Callers dedupe (the conflict-graph
//!   builder sorts its candidate rows anyway).
//! * **Bounded memory** — the constructor widens the cell size until the cell
//!   count is `O(n)`, so degenerate geometry (one far-away outlier, collinear
//!   chains) cannot blow up the table.
//!
//! [`CellGrid`] is the mutable counterpart, with per-cell lists that
//! insert and remove edit in place.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::{grid::UniformGrid, BoundingBox};
//!
//! // Three unit boxes on a line; query around the middle one.
//! let boxes = vec![
//!     BoundingBox::new(0.0, 0.0, 1.0, 1.0),
//!     BoundingBox::new(5.0, 0.0, 6.0, 1.0),
//!     BoundingBox::new(40.0, 0.0, 41.0, 1.0),
//! ];
//! let grid = UniformGrid::build(2.0, &boxes);
//! let near = grid.neighbors_within(&boxes[1], 6.0);
//! assert_eq!(near, vec![0, 1]); // the far box is pruned
//! ```

use crate::BoundingBox;

/// A uniform grid over axis-aligned bounding boxes, stored in a flat
/// counting-sorted layout (`offsets` into one `items` array — the same CSR
/// idea the conflict graph uses for adjacency).
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGrid {
    /// Side length of a (square) cell.
    cell: f64,
    /// Lower-left corner of the grid.
    min_x: f64,
    /// Lower-left corner of the grid.
    min_y: f64,
    /// Number of columns.
    cols: usize,
    /// Number of rows.
    rows: usize,
    /// `offsets[c]..offsets[c + 1]` indexes the items overlapping cell `c`.
    offsets: Vec<u32>,
    /// Item ids, grouped by cell.
    items: Vec<u32>,
}

impl UniformGrid {
    /// Builds a grid with cells of (at least) `cell_hint` over the given boxes.
    ///
    /// The effective cell size may be larger: it is doubled until the total
    /// cell count is at most `max(64, 8 · n)`, which bounds memory on
    /// degenerate inputs. An empty slice yields an empty, queryable grid.
    ///
    /// # Panics
    ///
    /// Panics if `cell_hint` is not strictly positive and finite, if any box
    /// has a non-finite coordinate, or if there are more than `u32::MAX` items.
    pub fn build(cell_hint: f64, boxes: &[BoundingBox]) -> Self {
        assert!(
            cell_hint > 0.0 && cell_hint.is_finite(),
            "cell size must be positive and finite"
        );
        assert!(
            boxes.len() < u32::MAX as usize,
            "too many items for the grid"
        );
        let Some(extent) = bbox_union(boxes) else {
            return UniformGrid {
                cell: cell_hint,
                min_x: 0.0,
                min_y: 0.0,
                cols: 0,
                rows: 0,
                offsets: vec![0],
                items: Vec::new(),
            };
        };
        assert!(
            extent.min_x.is_finite()
                && extent.min_y.is_finite()
                && extent.max_x.is_finite()
                && extent.max_y.is_finite(),
            "grid items must have finite coordinates"
        );

        let (cell, cols, rows) = widened(&extent, cell_hint, (8 * boxes.len()).max(64));
        let n_cells = cols * rows;
        let mut counts = vec![0u32; n_cells + 1];
        let span = |b: &BoundingBox| cell_span(b, extent.min_x, extent.min_y, cell, cols, rows);
        for b in boxes {
            let (c0, c1, r0, r1) = span(b);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    counts[r * cols + c + 1] += 1;
                }
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor: Vec<u32> = counts[..n_cells].to_vec();
        let mut items = vec![0u32; offsets[n_cells] as usize];
        for (id, b) in boxes.iter().enumerate() {
            let (c0, c1, r0, r1) = span(b);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    let slot = &mut cursor[r * cols + c];
                    items[*slot as usize] = id as u32;
                    *slot += 1;
                }
            }
        }
        UniformGrid {
            cell,
            min_x: extent.min_x,
            min_y: extent.min_y,
            cols,
            rows,
            offsets,
            items,
        }
    }

    /// The effective cell side length (may exceed the hint passed to
    /// [`UniformGrid::build`]).
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of items stored (counting each item once per overlapped cell).
    pub fn stored_entries(&self) -> usize {
        self.items.len()
    }

    /// Visits the id of every stored item whose bounding box intersects
    /// `query` expanded by `radius` on every side. Items spanning several
    /// cells may be visited multiple times; callers dedupe.
    #[inline]
    pub fn for_each_candidate<F: FnMut(usize)>(
        &self,
        query: &BoundingBox,
        radius: f64,
        mut visit: F,
    ) {
        if self.cols == 0 || self.rows == 0 {
            return;
        }
        let expanded = BoundingBox {
            min_x: query.min_x - radius,
            min_y: query.min_y - radius,
            max_x: query.max_x + radius,
            max_y: query.max_y + radius,
        };
        let (c0, c1, r0, r1) = cell_span(
            &expanded, self.min_x, self.min_y, self.cell, self.cols, self.rows,
        );
        for r in r0..=r1 {
            let base = r * self.cols;
            let lo = self.offsets[base + c0] as usize;
            let hi = self.offsets[base + c1 + 1] as usize;
            // Cells in one row are contiguous in the flat layout, so a whole
            // row of the query window is a single slice scan.
            for &id in &self.items[lo..hi] {
                visit(id as usize);
            }
        }
    }

    /// Ids of stored items within `radius` of `query` by the *conservative*
    /// box metric, deduplicated and sorted. Convenience wrapper over
    /// [`UniformGrid::for_each_candidate`] for callers that want a plain list;
    /// hot paths should use the visitor and fold their exact predicate in.
    pub fn neighbors_within(&self, query: &BoundingBox, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_candidate(query, radius, |id| out.push(id));
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A uniform grid over boxes that is edited in place: the mutable
/// counterpart of [`UniformGrid`], with the same superset property and
/// duplicates. Each item is stored in every cell its box overlaps, one
/// `Vec<u32>` per cell, and [`CellGrid::insert`] / [`CellGrid::remove`]
/// edit those lists. The layout (cell size, origin, dimensions) is fixed at
/// construction. An item outside the covered area is stored in the border
/// cells it clamps to; clamping is monotone, so a query window that meets
/// the item's box still shares a cell with it.
///
/// # Examples
///
/// ```
/// use wagg_geometry::{grid::CellGrid, BoundingBox};
///
/// let mut grid = CellGrid::covering(&BoundingBox::new(0.0, 0.0, 40.0, 1.0), 2.0, 8);
/// let near = BoundingBox::new(5.0, 0.0, 6.0, 1.0);
/// let far = BoundingBox::new(40.0, 0.0, 41.0, 1.0);
/// grid.insert(0, &near);
/// grid.insert(1, &far);
/// let mut found = Vec::new();
/// grid.for_each_candidate(&BoundingBox::new(0.0, 0.0, 1.0, 1.0), 6.0, |id| found.push(id));
/// assert_eq!(found, vec![0]);
/// grid.remove(0, &near);
/// assert_eq!(grid.ids(), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct CellGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// Item ids per cell, row-major.
    cells: Vec<Vec<u32>>,
}

impl CellGrid {
    /// An empty grid over `extent` with cells of `cell_hint`, doubled until
    /// there are at most `max_cells` of them (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `cell_hint` is not strictly positive and finite.
    pub fn covering(extent: &BoundingBox, cell_hint: f64, max_cells: usize) -> Self {
        assert!(
            cell_hint > 0.0 && cell_hint.is_finite(),
            "cell size must be positive and finite"
        );
        let (cell, cols, rows) = widened(extent, cell_hint, max_cells.max(1));
        CellGrid {
            cell,
            min_x: extent.min_x,
            min_y: extent.min_y,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    /// The cells `b` overlaps, clamped to the grid.
    fn cells_of(&self, b: &BoundingBox) -> impl Iterator<Item = usize> {
        let (c0, c1, r0, r1) =
            cell_span(b, self.min_x, self.min_y, self.cell, self.cols, self.rows);
        let cols = self.cols;
        (r0..=r1).flat_map(move |r| (c0..=c1).map(move |c| r * cols + c))
    }

    /// Stores item `id` under box `b`.
    pub fn insert(&mut self, id: u32, b: &BoundingBox) {
        for c in self.cells_of(b) {
            self.cells[c].push(id);
        }
    }

    /// Removes item `id`, stored under the same box `b`, by scanning the
    /// cells `b` overlaps: the cells any query that can return the item
    /// visits anyway.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not stored under `b`.
    pub fn remove(&mut self, id: u32, b: &BoundingBox) {
        for c in self.cells_of(b) {
            let list = &mut self.cells[c];
            let at = list
                .iter()
                .position(|&x| x == id)
                .expect("item stored under this box");
            list.swap_remove(at);
        }
    }

    /// Every stored id, ascending, once each.
    pub fn ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.cells.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Visits the id of every stored item whose box intersects `query`
    /// expanded by `radius` on every side, like
    /// [`UniformGrid::for_each_candidate`]; an infinite `radius` visits
    /// every item. Items spanning several cells may be visited several
    /// times; callers dedupe.
    #[inline]
    pub fn for_each_candidate<F: FnMut(usize)>(
        &self,
        query: &BoundingBox,
        radius: f64,
        mut visit: F,
    ) {
        let expanded = BoundingBox {
            min_x: query.min_x - radius,
            min_y: query.min_y - radius,
            max_x: query.max_x + radius,
            max_y: query.max_y + radius,
        };
        for c in self.cells_of(&expanded) {
            for &id in &self.cells[c] {
                visit(id as usize);
            }
        }
    }
}

/// Union of a slice of boxes (`None` when empty).
fn bbox_union(boxes: &[BoundingBox]) -> Option<BoundingBox> {
    let first = *boxes.first()?;
    Some(boxes[1..].iter().fold(first, |acc, b| acc.union(b)))
}

/// The cell size (`cell_hint`, doubled as often as needed) and dimensions
/// of a grid covering `extent` with at most `max_cells` cells. The candidate
/// dimensions are compared in f64 BEFORE any usize cast: an extent spanning
/// more than usize::MAX nominal cells (two tight clusters astronomically far
/// apart) must widen here, not overflow in the cast.
fn widened(extent: &BoundingBox, cell_hint: f64, max_cells: usize) -> (f64, usize, usize) {
    let mut cell = cell_hint;
    while fdims(extent, cell).0 * fdims(extent, cell).1 > max_cells as f64 {
        cell *= 2.0;
    }
    let (cols, rows) = fdims(extent, cell);
    (cell, cols as usize, rows as usize)
}

/// Grid dimensions covering `extent` with cells of size `cell`, in f64 so
/// callers can bound the product before casting to `usize`.
fn fdims(extent: &BoundingBox, cell: f64) -> (f64, f64) {
    let cols = (extent.width() / cell).floor() + 1.0;
    let rows = (extent.height() / cell).floor() + 1.0;
    (cols, rows)
}

/// The inclusive cell range `(c0, c1, r0, r1)` overlapped by `b`, clamped to
/// the grid.
#[inline]
fn cell_span(
    b: &BoundingBox,
    min_x: f64,
    min_y: f64,
    cell: f64,
    cols: usize,
    rows: usize,
) -> (usize, usize, usize, usize) {
    let clamp_col = |x: f64| (((x - min_x) / cell).floor().max(0.0) as usize).min(cols - 1);
    let clamp_row = |y: f64| (((y - min_y) / cell).floor().max(0.0) as usize).min(rows - 1);
    (
        clamp_col(b.min_x),
        clamp_col(b.max_x),
        clamp_row(b.min_y),
        clamp_row(b.max_y),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box(x: f64, y: f64) -> BoundingBox {
        BoundingBox::new(x, y, x + 1.0, y + 1.0)
    }

    #[test]
    fn empty_grid_is_queryable() {
        let grid = UniformGrid::build(1.0, &[]);
        assert_eq!(grid.neighbors_within(&unit_box(0.0, 0.0), 100.0), vec![]);
        assert_eq!(grid.stored_entries(), 0);
    }

    #[test]
    fn single_item_found_at_any_radius() {
        let boxes = vec![unit_box(10.0, 10.0)];
        let grid = UniformGrid::build(1.0, &boxes);
        assert_eq!(grid.neighbors_within(&boxes[0], 0.0), vec![0]);
    }

    #[test]
    fn superset_property_on_random_boxes() {
        // Deterministic pseudo-random boxes; compare grid candidates against
        // brute-force box-distance within radius.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 100.0
        };
        let boxes: Vec<BoundingBox> = (0..200)
            .map(|_| {
                let x = next();
                let y = next();
                let w = next() * 0.05;
                let h = next() * 0.05;
                BoundingBox::new(x, y, x + w, y + h)
            })
            .collect();
        let grid = UniformGrid::build(2.5, &boxes);
        let radius = 7.0;
        for (i, q) in boxes.iter().enumerate() {
            let candidates = grid.neighbors_within(q, radius);
            for (j, b) in boxes.iter().enumerate() {
                let dx = (b.min_x - q.max_x).max(q.min_x - b.max_x).max(0.0);
                let dy = (b.min_y - q.max_y).max(q.min_y - b.max_y).max(0.0);
                let within = dx.hypot(dy) <= radius;
                if within {
                    assert!(
                        candidates.binary_search(&j).is_ok(),
                        "item {j} within {radius} of {i} but not visited"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_grid_keeps_the_superset_property_under_edits() {
        // Laid out over the first 20 boxes only, so later ones clamp into
        // border cells; every third box is removed again.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 100.0
        };
        let boxes: Vec<BoundingBox> = (0..150)
            .map(|_| {
                let (x, y) = (next(), next());
                BoundingBox::new(x, y, x + next() * 0.05, y + next() * 0.05)
            })
            .collect();
        let mut grid = CellGrid::covering(&bbox_union(&boxes[..20]).unwrap(), 2.0, 40);
        for (id, b) in boxes.iter().enumerate() {
            grid.insert(id as u32, b);
        }
        for (id, b) in boxes.iter().enumerate().step_by(3) {
            grid.remove(id as u32, b);
        }
        let live: Vec<u32> = (0..150).filter(|id| id % 3 != 0).collect();
        assert_eq!(grid.ids(), live);
        let radius = 6.0;
        for q in &boxes {
            let mut found = Vec::new();
            grid.for_each_candidate(q, radius, |id| found.push(id));
            for &id in &live {
                if q.gap_sq(&boxes[id as usize]) <= radius * radius {
                    assert!(found.contains(&(id as usize)), "item {id} missed");
                }
            }
            assert!(
                found.iter().all(|&id| id % 3 != 0),
                "a removed item was visited"
            );
        }
    }

    #[test]
    fn degenerate_extents_do_not_blow_up() {
        // A long collinear chain: rows = 1, cols bounded by 8n.
        let boxes: Vec<BoundingBox> = (0..100).map(|i| unit_box(i as f64 * 1000.0, 0.0)).collect();
        let grid = UniformGrid::build(0.001, &boxes);
        assert!(grid.cell_size() > 0.001); // widened to keep the table small
        let found = grid.neighbors_within(&boxes[0], 500.0);
        assert!(found.contains(&0));
        assert!(!found.contains(&99) || grid.cell_size() >= 1000.0);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_rejected() {
        let _ = UniformGrid::build(0.0, &[unit_box(0.0, 0.0)]);
    }

    #[test]
    fn astronomically_spread_clusters_do_not_overflow() {
        // Two tight clusters 1e30 apart with cell hint 1: the nominal cell
        // count exceeds usize::MAX, so the builder must widen (in f64)
        // instead of overflowing the dimension cast.
        let mut boxes: Vec<BoundingBox> = (0..40).map(|i| unit_box(i as f64 * 2.0, 0.0)).collect();
        boxes.extend((0..40).map(|i| unit_box(1e30 + i as f64 * 2.0, 0.0)));
        let grid = UniformGrid::build(1.0, &boxes);
        assert!(grid.cell_size() >= 1.0);
        // Items within a cluster still find each other.
        let near = grid.neighbors_within(&boxes[0], 10.0);
        assert!(near.contains(&0));
        assert!(near.contains(&1));
    }

    #[test]
    fn items_spanning_cells_are_deduplicated_by_neighbors_within() {
        let boxes = vec![BoundingBox::new(0.0, 0.0, 5.0, 5.0)];
        let grid = UniformGrid::build(1.0, &boxes);
        assert_eq!(grid.neighbors_within(&boxes[0], 1.0), vec![0]);
        assert!(grid.stored_entries() > 1); // genuinely stored in many cells
    }
}
