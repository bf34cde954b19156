//! A uniform spatial hash over axis-aligned boxes, edited in place.
//!
//! [`CellGrid`] is the spatial index behind the workspace's distance-bounded
//! pairwise kernels: `wagg-conflict`'s length-class index keeps one per
//! power-of-two length class, and both the static conflict-graph build and
//! the incremental engine query it. Items — the bounding boxes of link
//! segments — are stored in every square cell their box overlaps, and
//! [`CellGrid::for_each_candidate`] enumerates every item whose box could lie
//! within a query radius of a query box, in `O(cells touched + candidates)`
//! instead of `O(n)`.
//!
//! Guarantees and non-guarantees:
//!
//! * **Superset property** — if the true (Euclidean, segment-to-segment)
//!   distance between a query item and a stored item is at most `radius`, the
//!   stored item *is* visited: Euclidean distance upper-bounds each axis gap,
//!   so the expanded query box intersects the item's box. Callers must still
//!   apply their exact predicate; the grid only prunes.
//! * **Duplicates** — an item spanning several cells is visited once per
//!   overlapped cell in the query window. Callers dedupe.
//! * **Bounded memory** — the constructor widens the cell size until the cell
//!   count is at most the caller's budget, so degenerate geometry (one
//!   far-away outlier, collinear chains) cannot blow up the table.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::{grid::CellGrid, BoundingBox};
//!
//! // Two unit boxes on a line; query around a third at the origin.
//! let mut grid = CellGrid::covering(&BoundingBox::new(0.0, 0.0, 40.0, 1.0), 2.0, 8);
//! let near = BoundingBox::new(5.0, 0.0, 6.0, 1.0);
//! let far = BoundingBox::new(40.0, 0.0, 41.0, 1.0);
//! grid.insert(0, &near);
//! grid.insert(1, &far);
//! let mut found = Vec::new();
//! grid.for_each_candidate(&BoundingBox::new(0.0, 0.0, 1.0, 1.0), 6.0, |id| found.push(id));
//! assert_eq!(found, vec![0]); // the far box is pruned
//! grid.remove(0, &near);
//! assert_eq!(grid.ids(), vec![1]);
//! ```

use crate::BoundingBox;

/// A uniform grid over boxes that is edited in place (see the
/// [module docs](self) for its guarantees and an example). Each item is
/// stored in every cell its box overlaps. A cell's items sit back to back in
/// a block of one shared `u32` array (one allocation, not one per cell), and
/// [`CellGrid::insert`] / [`CellGrid::remove`] edit those blocks in place.
/// The layout (cell size, origin, dimensions) is fixed at construction. An
/// item outside the covered area is stored in the border cells it clamps to;
/// clamping is monotone, so a query window that meets the item's box still
/// shares a cell with it.
#[derive(Debug, Clone)]
pub struct CellGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// Per cell, row-major: its items are `items[start..start + len]`, in a
    /// block of `cap` slots.
    cells: Vec<Block>,
    /// Every cell's block. A full block moves to the end with twice the
    /// room; its old slots stay unused.
    items: Vec<u32>,
}

/// One cell's slots in [`CellGrid::items`].
#[derive(Debug, Clone, Copy, Default)]
struct Block {
    start: u32,
    len: u32,
    cap: u32,
}

impl Block {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
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
            cells: vec![Block::default(); cols * rows],
            items: Vec::new(),
        }
    }

    /// The inclusive column and row ranges `(c0, c1, r0, r1)` of the cells
    /// `b` overlaps, clamped to the grid.
    #[inline]
    fn span(&self, b: &BoundingBox) -> (usize, usize, usize, usize) {
        let (cell, cols, rows) = (self.cell, self.cols, self.rows);
        let col = |x: f64| (((x - self.min_x) / cell).floor().max(0.0) as usize).min(cols - 1);
        let row = |y: f64| (((y - self.min_y) / cell).floor().max(0.0) as usize).min(rows - 1);
        (col(b.min_x), col(b.max_x), row(b.min_y), row(b.max_y))
    }

    /// Stores item `id` under box `b`.
    pub fn insert(&mut self, id: u32, b: &BoundingBox) {
        let (c0, c1, r0, r1) = self.span(b);
        for r in r0..=r1 {
            for c in r * self.cols + c0..=r * self.cols + c1 {
                let mut block = self.cells[c];
                if block.len == block.cap {
                    let start = self.items.len();
                    self.items.extend_from_within(block.range());
                    block.cap = (2 * block.cap).max(2);
                    self.items.resize(start + block.cap as usize, 0);
                    block.start = u32::try_from(start).expect("fewer than 2^32 stored entries");
                }
                self.items[(block.start + block.len) as usize] = id;
                block.len += 1;
                self.cells[c] = block;
            }
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
        let (c0, c1, r0, r1) = self.span(b);
        for r in r0..=r1 {
            for block in &mut self.cells[r * self.cols + c0..=r * self.cols + c1] {
                let list = &mut self.items[block.range()];
                let at = list
                    .iter()
                    .position(|&x| x == id)
                    .expect("item stored under this box");
                list.swap(at, list.len() - 1);
                block.len -= 1;
            }
        }
    }

    /// Every stored id, ascending, once each.
    pub fn ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .cells
            .iter()
            .flat_map(|block| &self.items[block.range()])
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Visits the id of every stored item whose box intersects `query`
    /// expanded by `radius` on every side; an infinite `radius` visits every
    /// item. Items spanning several cells may be visited several times;
    /// callers dedupe.
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
        let (c0, c1, r0, r1) = self.span(&expanded);
        for r in r0..=r1 {
            for block in &self.cells[r * self.cols + c0..=r * self.cols + c1] {
                for &id in &self.items[block.range()] {
                    visit(id as usize);
                }
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box(x: f64, y: f64) -> BoundingBox {
        BoundingBox::new(x, y, x + 1.0, y + 1.0)
    }

    /// A grid laid out over the union of `boxes` with at most two cells per
    /// box (the length-class index's budget), holding box `i` as item `i`.
    fn filled(cell_hint: f64, boxes: &[BoundingBox]) -> CellGrid {
        let extent = boxes[1..].iter().fold(boxes[0], |e, b| e.union(b));
        let mut grid = CellGrid::covering(&extent, cell_hint, 2 * boxes.len());
        for (id, b) in boxes.iter().enumerate() {
            grid.insert(id as u32, b);
        }
        grid
    }

    fn candidates(grid: &CellGrid, query: &BoundingBox, radius: f64) -> Vec<usize> {
        let mut found = Vec::new();
        grid.for_each_candidate(query, radius, |id| found.push(id));
        found.sort_unstable();
        found.dedup();
        found
    }

    #[test]
    fn single_item_found_at_radius_zero() {
        let boxes = vec![unit_box(10.0, 10.0)];
        let grid = filled(1.0, &boxes);
        assert_eq!(candidates(&grid, &boxes[0], 0.0), vec![0]);
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
        let grid = filled(2.5, &boxes);
        let radius = 7.0;
        for (i, q) in boxes.iter().enumerate() {
            let candidates = candidates(&grid, q, radius);
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
        let extent = boxes[1..20].iter().fold(boxes[0], |e, b| e.union(b));
        let mut grid = CellGrid::covering(&extent, 2.0, 40);
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
        // A long collinear chain: one row, and at most two cells per box.
        let boxes: Vec<BoundingBox> = (0..100).map(|i| unit_box(i as f64 * 1000.0, 0.0)).collect();
        let grid = filled(0.001, &boxes);
        assert!(grid.cell > 0.001); // widened to keep the table small
        assert_eq!(grid.rows, 1);
        assert!(grid.cells.len() <= 2 * boxes.len());
        let found = candidates(&grid, &boxes[0], 500.0);
        assert!(found.contains(&0));
        assert!(!found.contains(&99) || grid.cell >= 1000.0);
    }

    #[test]
    fn zero_or_non_finite_cell_sizes_are_rejected() {
        for hint in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let laid_out = std::panic::catch_unwind(|| {
                CellGrid::covering(&unit_box(0.0, 0.0), hint, 4);
            });
            let message = laid_out.expect_err("the hint is rejected");
            assert_eq!(
                message.downcast_ref::<&str>(),
                Some(&"cell size must be positive and finite"),
                "hint {hint}"
            );
        }
    }

    #[test]
    fn astronomically_spread_clusters_do_not_overflow() {
        // Two tight clusters 1e30 apart with cell hint 1: the nominal cell
        // count exceeds usize::MAX, so the layout must widen (in f64)
        // instead of overflowing the dimension cast.
        let mut boxes: Vec<BoundingBox> = (0..40).map(|i| unit_box(i as f64 * 2.0, 0.0)).collect();
        boxes.extend((0..40).map(|i| unit_box(1e30 + i as f64 * 2.0, 0.0)));
        let grid = filled(1.0, &boxes);
        assert!(grid.cell >= 1.0);
        assert!(grid.cells.len() <= 2 * boxes.len());
        // Items within a cluster still find each other.
        let near = candidates(&grid, &boxes[0], 10.0);
        assert!(near.contains(&0));
        assert!(near.contains(&1));
    }
}
