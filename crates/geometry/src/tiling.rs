//! Rectangular tilings of the deployment region.
//!
//! [`TileLayout`] covers a bounding box with a grid of square tiles and
//! answers the two queries a spatial domain decomposition needs:
//!
//! * **ownership** — [`TileLayout::tile_of`] maps a point to the unique tile
//!   containing it (clamped at the borders, so every finite point owns a
//!   tile), and
//! * **halo overlap** — [`TileLayout::for_each_tile_overlapping`] visits
//!   every tile a bounding box *expanded by a halo radius* touches, which is
//!   how a sharded scheduler decides which neighbouring shards need a ghost
//!   copy of a link.
//!
//! The layout is fully determined by its inputs (extent, target tile count,
//! minimum tile side), so two builds over the same inputs are identical —
//! shard ownership must be reproducible across runs and across serial and
//! parallel builds.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::{tiling::TileLayout, BoundingBox, Point};
//!
//! let extent = BoundingBox::new(0.0, 0.0, 100.0, 100.0);
//! let layout = TileLayout::cover(&extent, 16, 5.0);
//! assert_eq!(layout.tiles(), 16);
//! let t = layout.tile_of(Point::new(1.0, 1.0));
//! assert!(layout.tile_box(t).contains(Point::new(1.0, 1.0)));
//! ```

use crate::{BoundingBox, Point};

/// A deterministic grid of square tiles covering a bounding box.
#[derive(Debug, Clone, PartialEq)]
pub struct TileLayout {
    /// Lower-left corner of tile `(0, 0)`.
    min_x: f64,
    /// Lower-left corner of tile `(0, 0)`.
    min_y: f64,
    /// Tile side length.
    tile: f64,
    /// Number of tile columns.
    cols: usize,
    /// Number of tile rows.
    rows: usize,
}

impl TileLayout {
    /// Covers `extent` with roughly `target_tiles` square tiles whose side is
    /// at least `min_tile`.
    ///
    /// The tile side is chosen as `max(min_tile, sqrt(area / target_tiles),
    /// max(width, height) / target_tiles)`, then columns and rows are however
    /// many tiles of that side the extent needs. The columns and the rows
    /// then each number at most the target (up to rounding), so the realised
    /// tile count is close to it on near-square extents and at most about
    /// three times it on any extent, however thin. The longer-side term
    /// takes over only where the aspect ratio exceeds the target (at a
    /// target of 1, on every non-square extent, which then gets one tile).
    /// Degenerate extents (collinear deployments, single points) collapse to
    /// a single row, column or tile instead of producing empty tiles.
    ///
    /// # Panics
    ///
    /// Panics when `target_tiles == 0`, when `min_tile` is not positive and
    /// finite, or when the extent has non-finite coordinates.
    pub fn cover(extent: &BoundingBox, target_tiles: usize, min_tile: f64) -> Self {
        assert!(target_tiles > 0, "need at least one tile");
        assert!(
            min_tile > 0.0 && min_tile.is_finite(),
            "minimum tile side must be positive and finite"
        );
        assert!(
            extent.min_x.is_finite()
                && extent.min_y.is_finite()
                && extent.max_x.is_finite()
                && extent.max_y.is_finite(),
            "tiling extent must be finite"
        );
        let width = extent.width().max(0.0);
        let height = extent.height().max(0.0);
        let target = target_tiles as f64;
        let tile = (width * height / target)
            .sqrt()
            .max(width.max(height) / target)
            .max(min_tile);
        let cols = ((width / tile).ceil() as usize).max(1);
        let rows = ((height / tile).ceil() as usize).max(1);
        TileLayout {
            min_x: extent.min_x,
            min_y: extent.min_y,
            tile,
            cols,
            rows,
        }
    }

    /// Tile side length.
    pub fn tile_size(&self) -> f64 {
        self.tile
    }

    /// Number of tile columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of tile rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of tiles (`cols · rows`).
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Column of the tile containing `x`, clamped to the grid.
    #[inline]
    fn col_of(&self, x: f64) -> usize {
        (((x - self.min_x) / self.tile).floor().max(0.0) as usize).min(self.cols - 1)
    }

    /// Row of the tile containing `y`, clamped to the grid.
    #[inline]
    fn row_of(&self, y: f64) -> usize {
        (((y - self.min_y) / self.tile).floor().max(0.0) as usize).min(self.rows - 1)
    }

    /// The tile containing `p` (points outside the extent clamp to the
    /// nearest border tile, so ownership is total).
    #[inline]
    pub fn tile_of(&self, p: Point) -> usize {
        self.row_of(p.y) * self.cols + self.col_of(p.x)
    }

    /// The `(col, row)` coordinates of tile `t`.
    #[inline]
    pub fn col_row(&self, t: usize) -> (usize, usize) {
        (t % self.cols, t / self.cols)
    }

    /// The axis-aligned box of tile `t` (border tiles extend to infinity
    /// conceptually; the box returned is the nominal square).
    pub fn tile_box(&self, t: usize) -> BoundingBox {
        let (c, r) = self.col_row(t);
        BoundingBox::new(
            self.min_x + c as f64 * self.tile,
            self.min_y + r as f64 * self.tile,
            self.min_x + (c + 1) as f64 * self.tile,
            self.min_y + (r + 1) as f64 * self.tile,
        )
    }

    /// The 4-class chessboard parity of tile `t`: `(col mod 2) + 2 · (row mod
    /// 2)`. Two distinct tiles of the same parity are at least two tiles
    /// apart in some axis, so they are never edge- or corner-adjacent — the
    /// property the sharded stitcher's color offsetting leans on.
    #[inline]
    pub fn parity(&self, t: usize) -> usize {
        let (c, r) = self.col_row(t);
        (c % 2) + 2 * (r % 2)
    }

    /// Visits every tile overlapped by `bbox` expanded by `halo` on all
    /// sides, in ascending tile order. `halo` must be non-negative.
    pub fn for_each_tile_overlapping<F: FnMut(usize)>(
        &self,
        bbox: &BoundingBox,
        halo: f64,
        mut visit: F,
    ) {
        debug_assert!(halo >= 0.0, "halo must be non-negative");
        let c0 = self.col_of(bbox.min_x - halo);
        let c1 = self.col_of(bbox.max_x + halo);
        let r0 = self.row_of(bbox.min_y - halo);
        let r1 = self.row_of(bbox.max_y + halo);
        for r in r0..=r1 {
            for c in c0..=c1 {
                visit(r * self.cols + c);
            }
        }
    }

    /// The tiles overlapped by `bbox` expanded by `halo`, ascending.
    pub fn tiles_overlapping(&self, bbox: &BoundingBox, halo: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_tile_overlapping(bbox, halo, |t| out.push(t));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(side: f64) -> BoundingBox {
        BoundingBox::new(0.0, 0.0, side, side)
    }

    #[test]
    fn cover_hits_the_target_tile_count() {
        let layout = TileLayout::cover(&square(100.0), 16, 1.0);
        assert_eq!((layout.cols(), layout.rows()), (4, 4));
        assert_eq!(layout.tiles(), 16);
        assert_eq!(layout.tile_size(), 25.0);
    }

    #[test]
    fn min_tile_caps_the_tile_count() {
        // 64 tiles of a 100-unit square would need side 12.5 < min 40.
        let layout = TileLayout::cover(&square(100.0), 64, 40.0);
        assert_eq!(layout.tile_size(), 40.0);
        assert_eq!((layout.cols(), layout.rows()), (3, 3));
    }

    #[test]
    fn ownership_is_total_and_clamped() {
        let layout = TileLayout::cover(&square(10.0), 4, 1.0);
        assert_eq!(layout.tile_of(Point::new(-5.0, -5.0)), 0);
        assert_eq!(layout.tile_of(Point::new(50.0, 50.0)), layout.tiles() - 1);
        for t in 0..layout.tiles() {
            let b = layout.tile_box(t);
            assert_eq!(layout.tile_of(b.center()), t);
        }
    }

    #[test]
    fn degenerate_extents_collapse() {
        // Collinear deployment: one row of tiles.
        let line = BoundingBox::new(0.0, 5.0, 90.0, 5.0);
        let layout = TileLayout::cover(&line, 9, 10.0);
        assert_eq!(layout.rows(), 1);
        assert_eq!(layout.cols(), 9);
        // A single point: a single tile.
        let dot = BoundingBox::new(3.0, 3.0, 3.0, 3.0);
        let layout = TileLayout::cover(&dot, 8, 2.0);
        assert_eq!(layout.tiles(), 1);
    }

    #[test]
    fn thin_extents_stay_within_the_target() {
        // Aspect ratios far past the target: the area alone would size
        // 200 000 and 4e9 tiles of the minimum side in one row.
        for (width, height) in [(1e6, 1e-6), (1e12, 1e-6), (1e-6, 1e6)] {
            let thin = BoundingBox::new(0.0, 0.0, width, height);
            let layout = TileLayout::cover(&thin, 16, 5.0);
            assert_eq!(layout.tiles(), 16, "{width} x {height}");
            assert_eq!(layout.tile_size(), width.max(height) / 16.0);
        }
        // At an aspect ratio equal to the target both terms agree.
        let strip = BoundingBox::new(0.0, 0.0, 160.0, 10.0);
        let layout = TileLayout::cover(&strip, 16, 1.0);
        assert_eq!(
            (layout.cols(), layout.rows(), layout.tile_size()),
            (16, 1, 10.0)
        );
        // Every shape stays within a few times the target.
        for target in [1, 4, 16, 64, 1000] {
            for exp in -12..=12 {
                let ratio = 10f64.powi(exp);
                let extent = BoundingBox::new(0.0, 0.0, 100.0 * ratio, 100.0 / ratio);
                let layout = TileLayout::cover(&extent, target, 1e-9);
                assert!(layout.cols() <= target && layout.rows() <= target);
                assert!(
                    layout.tiles() <= 3 * target + 1,
                    "{target} at ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn halo_queries_visit_exactly_the_expanded_overlap() {
        let layout = TileLayout::cover(&square(40.0), 16, 1.0); // 4x4, tile 10
        let inner = BoundingBox::new(12.0, 12.0, 13.0, 13.0); // tile (1,1)
        assert_eq!(layout.tiles_overlapping(&inner, 0.0), vec![5]);
        // Expanded by 1 it still stays inside tile (1,1)'s 10-unit cell.
        assert_eq!(layout.tiles_overlapping(&inner, 1.0), vec![5]);
        // Expanded past the lower cell border it reaches the lower-left block.
        assert_eq!(layout.tiles_overlapping(&inner, 4.0), vec![0, 1, 4, 5]);
        // Expanded past both borders it reaches all 8 neighbours.
        let tiles = layout.tiles_overlapping(&inner, 8.0);
        assert_eq!(tiles, vec![0, 1, 2, 4, 5, 6, 8, 9, 10]);
    }

    #[test]
    fn parity_separates_adjacent_tiles() {
        let layout = TileLayout::cover(&square(60.0), 36, 1.0); // 6x6
        for t in 0..layout.tiles() {
            let (c, r) = layout.col_row(t);
            for (dc, dr) in [(1isize, 0isize), (0, 1), (1, 1), (1, -1)] {
                let (nc, nr) = (c as isize + dc, r as isize + dr);
                if nc < 0 || nr < 0 || nc >= 6 || nr >= 6 {
                    continue;
                }
                let n = nr as usize * layout.cols() + nc as usize;
                assert_ne!(layout.parity(t), layout.parity(n), "tiles {t} and {n}");
            }
        }
    }

    #[test]
    fn layouts_are_deterministic() {
        let a = TileLayout::cover(&square(77.0), 25, 2.5);
        let b = TileLayout::cover(&square(77.0), 25, 2.5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_target_is_rejected() {
        let _ = TileLayout::cover(&square(1.0), 0, 1.0);
    }
}
