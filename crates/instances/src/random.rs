//! Random and structured planar deployments (the instances of Corollary 1).

use std::collections::HashMap;

use crate::Instance;
use rand::Rng;
use wagg_geometry::rng::{derive_seed, seeded_rng};
use wagg_geometry::Point;

/// The points a generator has placed, by unit cell, for its collision
/// check: a candidate is kept only when no placed point is at squared
/// distance zero from it. Two such points differ by less than `2^-536` in
/// each coordinate, so their cells (`floor` of each coordinate) are equal
/// or adjacent, and only those cells are scanned: the same verdict as a
/// scan over every placed point, without its `O(n²)` cost.
#[derive(Debug)]
struct Placed {
    points: Vec<Point>,
    cells: HashMap<(i64, i64), Vec<usize>>,
}

impl Placed {
    fn with_capacity(n: usize) -> Self {
        Placed {
            points: Vec::with_capacity(n),
            cells: HashMap::new(),
        }
    }

    /// Places `p` unless it coincides with a placed point; returns whether
    /// it did.
    fn place(&mut self, p: Point) -> bool {
        let (cx, cy) = (p.x.floor() as i64, p.y.floor() as i64);
        let clear = (cx.saturating_sub(1)..=cx.saturating_add(1)).all(|x| {
            (cy.saturating_sub(1)..=cy.saturating_add(1)).all(|y| {
                self.cells.get(&(x, y)).is_none_or(|ids| {
                    ids.iter()
                        .all(|&q| self.points[q].distance_squared(p) > 0.0)
                })
            })
        });
        if clear {
            self.cells
                .entry((cx, cy))
                .or_default()
                .push(self.points.len());
            self.points.push(p);
        }
        clear
    }
}

/// `n` nodes uniformly at random in an axis-aligned square of side `side`,
/// with node 0 as the sink.
///
/// The generator resamples any point that collides exactly with an existing point,
/// so the pointset always has a well-defined length diversity.
///
/// # Panics
///
/// Panics if `n < 2` or `side <= 0`.
///
/// # Examples
///
/// ```
/// use wagg_instances::random::uniform_square;
///
/// let inst = uniform_square(50, 10.0, 7);
/// assert_eq!(inst.points.len(), 50);
/// let bb = inst.bounding_box().unwrap();
/// assert!(bb.width() <= 10.0 && bb.height() <= 10.0);
/// ```
pub fn uniform_square(n: usize, side: f64, seed: u64) -> Instance {
    assert!(n >= 2, "need at least two nodes");
    assert!(side > 0.0, "side must be positive");
    let mut rng = seeded_rng(seed);
    let mut placed = Placed::with_capacity(n);
    while placed.points.len() < n {
        placed.place(Point::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ));
    }
    Instance::new(format!("uniform-square-n{n}"), placed.points, 0)
}

/// `n` nodes uniformly at random in a disk of radius `radius` centred at the origin,
/// with node 0 as the sink.
///
/// # Panics
///
/// Panics if `n < 2` or `radius <= 0`.
pub fn uniform_disk(n: usize, radius: f64, seed: u64) -> Instance {
    assert!(n >= 2, "need at least two nodes");
    assert!(radius > 0.0, "radius must be positive");
    let mut rng = seeded_rng(seed);
    let mut placed = Placed::with_capacity(n);
    while placed.points.len() < n {
        // Rejection sampling from the bounding square keeps the distribution uniform.
        let p = Point::new(
            rng.gen_range(-radius..radius),
            rng.gen_range(-radius..radius),
        );
        if p.distance(Point::origin()) <= radius {
            placed.place(p);
        }
    }
    Instance::new(format!("uniform-disk-n{n}"), placed.points, 0)
}

/// A `rows × cols` unit grid, with the sink at the grid's corner node `(0, 0)`.
///
/// Regular grids are the classic example where constant aggregation rate is possible
/// (referenced in the paper's related work); they also serve as a worst case for the
/// `G1` sparsity constant because every MST edge has the same length.
///
/// # Panics
///
/// Panics if `rows * cols < 2`.
pub fn grid(rows: usize, cols: usize, spacing: f64) -> Instance {
    assert!(rows * cols >= 2, "need at least two nodes");
    assert!(spacing > 0.0, "spacing must be positive");
    let mut points = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            points.push(Point::new(c as f64 * spacing, r as f64 * spacing));
        }
    }
    Instance::new(format!("grid-{rows}x{cols}"), points, 0)
}

/// A clustered deployment: `clusters` cluster centres uniformly in a square of side
/// `side`, each with `per_cluster` nodes placed uniformly within radius
/// `cluster_radius` of the centre. Node 0 is the sink.
///
/// Clustered deployments have large length diversity (tight intra-cluster distances,
/// long inter-cluster distances), which stresses the `log log Δ` and `log* Δ` factors.
///
/// # Panics
///
/// Panics if `clusters * per_cluster < 2` or any geometric parameter is non-positive.
pub fn clustered(
    clusters: usize,
    per_cluster: usize,
    side: f64,
    cluster_radius: f64,
    seed: u64,
) -> Instance {
    assert!(clusters * per_cluster >= 2, "need at least two nodes");
    assert!(
        side > 0.0 && cluster_radius > 0.0,
        "geometry must be positive"
    );
    let mut rng = seeded_rng(seed);
    let mut placed = Placed::with_capacity(clusters * per_cluster);
    for c in 0..clusters {
        let mut centre_rng = seeded_rng(derive_seed(seed, c as u64));
        let centre = Point::new(
            centre_rng.gen_range(0.0..side),
            centre_rng.gen_range(0.0..side),
        );
        let mut in_cluster = 0;
        while in_cluster < per_cluster {
            let p = Point::new(
                centre.x + rng.gen_range(-cluster_radius..cluster_radius),
                centre.y + rng.gen_range(-cluster_radius..cluster_radius),
            );
            if placed.place(p) {
                in_cluster += 1;
            }
        }
    }
    Instance::new(
        format!("clustered-{clusters}x{per_cluster}"),
        placed.points,
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell check keeps exactly what a scan over every placed point
    /// keeps: on a coarse lattice (collisions, points on cell edges), near
    /// the origin (negative zeros, squared distances that underflow) and
    /// beyond `2^52`.
    #[test]
    fn collision_check_matches_a_scan() {
        let mut rng = seeded_rng(3);
        let mut placed = Placed::with_capacity(0);
        let mut scanned: Vec<Point> = Vec::new();
        for i in 0..3_000 {
            let (a, b) = (rng.gen_range(-6..6) as f64, rng.gen_range(-6..6) as f64);
            let p = match i % 3 {
                0 => Point::new(a * 0.5, b * 0.5),
                1 => Point::new(a * 1e-170, -0.0 * b),
                _ => Point::new(1e18 + a * 256.0, b * 1e17),
            };
            let keep = scanned.iter().all(|q| q.distance_squared(p) > 0.0);
            if keep {
                scanned.push(p);
            }
            assert_eq!(placed.place(p), keep, "{p:?}");
        }
        assert_eq!(placed.points, scanned);
    }

    #[test]
    fn uniform_square_is_reproducible() {
        let a = uniform_square(30, 50.0, 123);
        let b = uniform_square(30, 50.0, 123);
        assert_eq!(a, b);
        let c = uniform_square(30, 50.0, 124);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_square_points_inside_square() {
        let inst = uniform_square(100, 5.0, 9);
        for p in &inst.points {
            assert!((0.0..5.0).contains(&p.x));
            assert!((0.0..5.0).contains(&p.y));
        }
        assert!(inst.mst().is_ok());
    }

    #[test]
    fn uniform_disk_points_inside_disk() {
        let inst = uniform_disk(80, 3.0, 11);
        for p in &inst.points {
            assert!(p.distance(Point::origin()) <= 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn uniform_square_rejects_tiny_n() {
        let _ = uniform_square(1, 1.0, 0);
    }

    #[test]
    fn grid_structure() {
        let inst = grid(3, 4, 2.0);
        assert_eq!(inst.points.len(), 12);
        // Max distance is the diagonal (6, 4); min distance is the spacing 2.
        let expected = (36.0f64 + 16.0).sqrt() / 2.0;
        assert!((inst.length_diversity().unwrap() - expected).abs() < 1e-12);
        // The MST of a grid has unit-spacing edges only.
        let tree = inst.mst().unwrap();
        assert!((tree.max_edge_length() - 2.0).abs() < 1e-12);
        assert!((tree.min_edge_length() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clustered_has_large_diversity() {
        let inst = clustered(4, 8, 1000.0, 1.0, 5);
        assert_eq!(inst.points.len(), 32);
        assert!(inst.length_diversity().unwrap() > 20.0);
    }

    #[test]
    fn random_instances_have_positive_diversity() {
        for seed in 0..5 {
            let inst = uniform_square(40, 100.0, seed);
            assert!(inst.length_diversity().unwrap() >= 1.0);
        }
    }
}
