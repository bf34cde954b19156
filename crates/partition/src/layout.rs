//! The spatial domain decomposition: conflict-radius-sized tiles, link
//! ownership and ghost (halo) membership.
//!
//! The paper's interference model is geometrically local: two links can only
//! conflict when their link-to-link distance is below a radius bounded by
//! their lengths and the conflict relation `f` (the same bound that drives
//! the grid pruning in `ConflictGraph::build`). [`max_conflict_radius`]
//! evaluates that bound per pair of power-of-two length classes, keyed like
//! `wagg-conflict`'s length-class index (`wagg_conflict::class_key`), so it
//! stays tight for length-diverse instances instead of degenerating to
//! `l_max · f(Δ)`.
//!
//! [`PartitionLayout`] then tiles the deployment region into shards:
//!
//! * every link is **owned** by the tile containing its midpoint, and
//! * a link is a **ghost** of every other tile its bounding box expanded by
//!   the halo margin `H = R + l_max / 2` touches.
//!
//! The margin makes ownership sound for the stitching pass: if two links
//! owned by *different* shards conflict (distance ≤ `R`), each link's
//! expanded box contains the other's midpoint, so each is a ghost of the
//! other's shard — every cross-shard conflict edge is visible from both
//! owners' member graphs. Conversely a link with no ghost entries (an
//! **interior** link) cannot conflict with any link owned elsewhere: such a
//! partner's midpoint would have to lie inside the interior link's expanded
//! box, which is contained in the owner tile.

use std::collections::BTreeMap;
use wagg_conflict::{class_key, is_classed, ConflictRelation};
use wagg_geometry::tiling::TileLayout;
use wagg_geometry::{BoundingBox, Point};
use wagg_sinr::Link;

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// The maximum distance at which any two of `links` could conflict under
/// `relation`, evaluated per pair of power-of-two length classes (each class
/// carrying its exact min/max member length). Links of no class
/// ([`is_classed`]: zero length, or a length that overflows to infinity)
/// are ignored — they conflict at any distance and must be handled out of
/// band. Returns `0.0` when no link has a class.
pub fn max_conflict_radius(links: &[Link], relation: ConflictRelation) -> f64 {
    let mut classes: BTreeMap<i32, (f64, f64)> = BTreeMap::new();
    for len in links
        .iter()
        .map(Link::length)
        .filter(|&len| is_classed(len))
    {
        let entry = classes.entry(class_key(len)).or_insert((len, len));
        entry.0 = entry.0.min(len);
        entry.1 = entry.1.max(len);
    }
    let bounds: Vec<(f64, f64)> = classes.into_values().collect();
    let mut radius: f64 = 0.0;
    for &a in &bounds {
        for &b in &bounds {
            radius = radius.max(relation.reach(a, b));
        }
    }
    radius
}

/// A deterministic assignment of links to spatial shards with ghost overlap.
///
/// Shards are the tiles of a [`TileLayout`] sized so that a tile side is at
/// least twice the halo margin (conflicting cross-shard pairs then live in
/// edge- or corner-adjacent tiles, which the 4-class tile parity separates).
/// Built identically for identical inputs — serial and parallel builds agree
/// because the per-link computation is pure and results are assembled in
/// input order.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionLayout {
    tiles: TileLayout,
    radius: f64,
    halo: f64,
    /// Owning tile per link.
    owner: Vec<u32>,
    /// CSR of ghost tiles per link (tiles its halo box overlaps, owner
    /// excluded): link `i`'s ghosts are `ghost_tiles[ghost_offsets[i]..
    /// ghost_offsets[i + 1]]`.
    ghost_offsets: Vec<u32>,
    ghost_tiles: Vec<u32>,
    /// Per tile: owned link ids, ascending.
    shard_owned: Vec<Vec<u32>>,
    /// Per tile: ghost link ids, ascending.
    shard_ghosts: Vec<Vec<u32>>,
}

impl PartitionLayout {
    /// Builds the decomposition of `links` under `relation` into roughly
    /// `target_shards` tiles.
    ///
    /// # Panics
    ///
    /// Panics when `target_shards == 0` or a link has no class
    /// ([`is_classed`]: zero length, or a length that overflows to infinity).
    /// Callers split such degenerate links off first — they conflict with
    /// everything, so no finite halo can localise them.
    pub fn build(links: &[Link], relation: ConflictRelation, target_shards: usize) -> Self {
        assert!(target_shards > 0, "need at least one shard");
        assert!(
            links.iter().all(|l| is_classed(l.length())),
            "degenerate links cannot be spatially partitioned"
        );
        let radius = max_conflict_radius(links, relation);
        let max_len = links.iter().map(|l| l.length()).fold(0.0f64, f64::max);
        let halo = radius + max_len / 2.0;
        let bboxes: Vec<BoundingBox> = links
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();
        let extent = bboxes
            .iter()
            .fold(None::<BoundingBox>, |acc, b| {
                Some(match acc {
                    None => *b,
                    Some(a) => BoundingBox::new(
                        a.min_x.min(b.min_x),
                        a.min_y.min(b.min_y),
                        a.max_x.max(b.max_x),
                        a.max_y.max(b.max_y),
                    ),
                })
            })
            .unwrap_or(BoundingBox::new(0.0, 0.0, 1.0, 1.0));
        let min_tile = (2.0 * halo).max(f64::MIN_POSITIVE);
        let tiles = TileLayout::cover(&extent, target_shards, min_tile);

        // Per-link ownership and ghost tiles: pure per-link work, assembled
        // in input order (parallel == serial).
        let site_of = |i: usize| -> (u32, Vec<u32>) {
            let link = &links[i];
            let owner = tiles.tile_of(Point::midpoint(&link.sender, link.receiver)) as u32;
            let mut ghosts = Vec::new();
            tiles.for_each_tile_overlapping(&bboxes[i], halo, |t| {
                if t as u32 != owner {
                    ghosts.push(t as u32);
                }
            });
            (owner, ghosts)
        };
        #[cfg(feature = "parallel")]
        let sites: Vec<(u32, Vec<u32>)> = (0..links.len()).into_par_iter().map(site_of).collect();
        #[cfg(not(feature = "parallel"))]
        let sites: Vec<(u32, Vec<u32>)> = (0..links.len()).map(site_of).collect();

        let mut owner = Vec::with_capacity(links.len());
        let mut ghost_offsets = Vec::with_capacity(links.len() + 1);
        ghost_offsets.push(0u32);
        let mut ghost_tiles = Vec::new();
        let mut shard_owned = vec![Vec::new(); tiles.tiles()];
        let mut shard_ghosts = vec![Vec::new(); tiles.tiles()];
        for (i, (own, ghosts)) in sites.into_iter().enumerate() {
            owner.push(own);
            shard_owned[own as usize].push(i as u32);
            for &t in &ghosts {
                shard_ghosts[t as usize].push(i as u32);
            }
            ghost_tiles.extend(ghosts);
            ghost_offsets.push(ghost_tiles.len() as u32);
        }
        PartitionLayout {
            tiles,
            radius,
            halo,
            owner,
            ghost_offsets,
            ghost_tiles,
            shard_owned,
            shard_ghosts,
        }
    }

    /// The underlying tile grid.
    pub fn tiles(&self) -> &TileLayout {
        &self.tiles
    }

    /// Number of shards (tiles). May be below the build target when the
    /// halo-derived minimum tile side caps the grid.
    pub fn shards(&self) -> usize {
        self.tiles.tiles()
    }

    /// The conflict radius `R` the decomposition was sized for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The ghost margin `H = R + l_max / 2`.
    pub fn halo(&self) -> f64 {
        self.halo
    }

    /// The shard owning link `i`.
    pub fn owner(&self, i: usize) -> usize {
        self.owner[i] as usize
    }

    /// The shards holding a ghost copy of link `i` (ascending, owner
    /// excluded).
    pub fn ghost_shards(&self, i: usize) -> &[u32] {
        &self.ghost_tiles[self.ghost_offsets[i] as usize..self.ghost_offsets[i + 1] as usize]
    }

    /// Whether link `i` is a boundary link (ghosted into at least one other
    /// shard). Interior links provably have no cross-shard conflicts.
    pub fn is_boundary(&self, i: usize) -> bool {
        self.ghost_offsets[i + 1] > self.ghost_offsets[i]
    }

    /// The links owned by `shard`, ascending.
    pub fn owned(&self, shard: usize) -> &[u32] {
        &self.shard_owned[shard]
    }

    /// The links ghosted into `shard`, ascending.
    pub fn ghosts(&self, shard: usize) -> &[u32] {
        &self.shard_ghosts[shard]
    }

    /// The chessboard parity class of `shard` (see [`TileLayout::parity`]).
    pub fn parity(&self, shard: usize) -> usize {
        self.tiles.parity(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    #[test]
    fn radius_bound_matches_the_exact_pair_radius_for_uniform_lengths() {
        // Equal unit lengths: exact pair radius is 1 · f(1).
        for relation in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
            ConflictRelation::arbitrary_default(),
        ] {
            let links: Vec<Link> = (0..10)
                .map(|i| line_link(i, i as f64 * 3.0, i as f64 * 3.0 + 1.0))
                .collect();
            let r = max_conflict_radius(&links, relation);
            assert!((r - relation.f(1.0)).abs() < 1e-12, "{relation}: {r}");
        }
    }

    #[test]
    fn radius_is_sound_for_every_conflicting_pair() {
        // Length-diverse chain; check against the definition directly.
        let mut links = Vec::new();
        for i in 0..40 {
            let x = i as f64 * 2.5;
            let len = 1.0 + (i % 5) as f64 * 3.7;
            links.push(line_link(i, x, x + len));
        }
        for relation in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
        ] {
            let r = max_conflict_radius(&links, relation);
            for i in 0..links.len() {
                for j in (i + 1)..links.len() {
                    if relation.conflicting(&links[i], &links[j]) {
                        let d = links[i].distance_to(&links[j]);
                        assert!(d <= r + 1e-9, "{relation}: pair ({i},{j}) at {d} > R={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn class_pair_radius_is_tighter_than_the_global_bound() {
        // Lengths 1 and 1024: the naive bound l_max · f(Δ) is far above the
        // class-pair maximum for the constant relation.
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 100.0, 1124.0)];
        let relation = ConflictRelation::unit_constant();
        let r = max_conflict_radius(&links, relation);
        // Constant relation: every pair radius is min(l_i, l_j) · γ ≤ 1024 γ,
        // and the cross-class bound is min(1, 1024) · γ = γ.
        assert!(r <= 1024.0);
        assert!((r - 1024.0 * relation.f(1.0)).abs() < 1e-9 || r < 1024.0);
    }

    #[test]
    fn ownership_and_ghosts_are_deterministic_and_consistent() {
        let links: Vec<Link> = (0..200)
            .map(|i| {
                let x = (i % 20) as f64 * 5.0;
                let y = (i / 20) as f64 * 5.0;
                Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
            })
            .collect();
        let relation = ConflictRelation::unit_constant();
        let a = PartitionLayout::build(&links, relation, 16);
        let b = PartitionLayout::build(&links, relation, 16);
        assert_eq!(a, b);
        assert!(a.shards() >= 2);
        // Every link is owned exactly once; shard lists invert the maps.
        let total_owned: usize = (0..a.shards()).map(|s| a.owned(s).len()).sum();
        assert_eq!(total_owned, links.len());
        for (i, _) in links.iter().enumerate() {
            assert!(a.owned(a.owner(i)).contains(&(i as u32)));
            for &g in a.ghost_shards(i) {
                assert_ne!(g as usize, a.owner(i));
                assert!(a.ghosts(g as usize).contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn cross_shard_conflicts_are_mutually_ghosted() {
        // A dense random-ish field with mixed lengths.
        let links: Vec<Link> = (0..300)
            .map(|i| {
                let x = ((i * 37) % 100) as f64;
                let y = ((i * 61) % 100) as f64;
                let len = 0.5 + (i % 4) as f64;
                Link::new(i, Point::new(x, y), Point::new(x + len, y))
            })
            .collect();
        for relation in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
        ] {
            let layout = PartitionLayout::build(&links, relation, 9);
            for i in 0..links.len() {
                for j in (i + 1)..links.len() {
                    if layout.owner(i) == layout.owner(j) {
                        continue;
                    }
                    if relation.conflicting(&links[i], &links[j]) {
                        assert!(
                            layout.ghost_shards(i).contains(&(layout.owner(j) as u32)),
                            "{relation}: {i} not ghosted into owner({j})"
                        );
                        assert!(
                            layout.ghost_shards(j).contains(&(layout.owner(i) as u32)),
                            "{relation}: {j} not ghosted into owner({i})"
                        );
                        assert!(layout.is_boundary(i) && layout.is_boundary(j));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "degenerate links")]
    fn degenerate_links_are_rejected() {
        let links = vec![line_link(0, 1.0, 1.0)];
        let _ = PartitionLayout::build(&links, ConflictRelation::unit_constant(), 4);
    }
}
