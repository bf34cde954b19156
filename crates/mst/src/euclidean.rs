//! Euclidean MST construction.
//!
//! Three constructions are provided:
//!
//! * [`euclidean_mst`] — Prim's algorithm driven by nearest-neighbour queries
//!   on a 2-d tree (Bentley and Friedman 1978), the workhorse for planar
//!   pointsets: near-linear on the clustered deployments the experiments
//!   use, up to a million points (the `euclidean_mst` rows of
//!   `BENCH_kernel.json`),
//! * [`kruskal_mst`] — Kruskal's algorithm over all `O(n²)` candidate edges, used
//!   as an independent cross-check in tests and by the k-connectivity spanner
//!   (which needs edge filtering),
//! * [`line_mst`] — the specialised construction for points on a line, where the
//!   unique MST simply connects each point to its neighbours in sorted order
//!   (used by the paper's lower-bound constructions, which all live on the line).
//!
//! Every constructor, the alternative trees of [`approx`](crate::approx)
//! included, first checks its pointset the same way: at least two points,
//! finite coordinates, and no two points at distance zero.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kdtree::KdTree;
use crate::tree::{Edge, SpanningTree};
use crate::MstError;
use wagg_geometry::Point;

/// Checks a pointset before a tree is built over it: at least two points,
/// `sink` (when given) in range, finite coordinates, and no two points at
/// distance zero, reporting the first coincident `(i, j)` pair in scan order.
/// Returns the 2-d tree over the points, every point live.
pub(crate) fn validate_points(points: &[Point], sink: Option<usize>) -> Result<KdTree, MstError> {
    if points.len() < 2 {
        return Err(MstError::TooFewPoints {
            found: points.len(),
        });
    }
    if let Some(index) = sink.filter(|&sink| sink >= points.len()) {
        return Err(MstError::NodeOutOfRange {
            index,
            nodes: points.len(),
        });
    }
    if let Some(index) = points
        .iter()
        .position(|p| !(p.x.is_finite() && p.y.is_finite()))
    {
        return Err(MstError::NonFinite { index });
    }
    let mut tree = KdTree::new(points);
    // With every point up to `i` removed, a zero-radius query finds the
    // lowest `j > i` coinciding with point `i`.
    for (i, &p) in points.iter().enumerate() {
        tree.remove(i);
        if let Some((_, second)) = tree.nearest(p, 0.0) {
            return Err(MstError::DuplicatePoints { first: i, second });
        }
    }
    tree.revive();
    Ok(tree)
}

/// Builds the Euclidean minimum spanning tree of a planar pointset with
/// Prim's algorithm over nearest-neighbour queries.
///
/// The tree grows from node 0. Each step adds the shortest edge from the
/// tree to a point outside it; of equally short edges it takes the one to
/// the lowest-indexed point, then the one from the tree node that joined
/// first. The edges are listed in the order they join. A min-heap holds
/// one entry per tree node, keyed by exactly that rule, whose target is the
/// node's nearest point outside the tree; an entry whose target has joined
/// since is queried again when it comes up.
///
/// # Errors
///
/// Returns [`MstError::TooFewPoints`] for fewer than two points,
/// [`MstError::NonFinite`] for a NaN or infinite coordinate and
/// [`MstError::DuplicatePoints`] if two points coincide.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::euclidean_mst;
///
/// let points = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(10.0, 0.0),
/// ];
/// let tree = euclidean_mst(&points).unwrap();
/// assert_eq!(tree.total_length(), 10.0);
/// ```
pub fn euclidean_mst(points: &[Point]) -> Result<SpanningTree, MstError> {
    let mut outside = validate_points(points, None)?;
    let n = points.len();
    // An entry is (distance, target, rank): the tree node that joined
    // `rank`-th and its nearest point outside the tree. A non-negative
    // f64's bits order like the number, so the smallest entry is the step's
    // edge by the tie rule above.
    let entry = |outside: &KdTree, rank: usize, node: usize| {
        outside
            .nearest(points[node], f64::INFINITY)
            .map(|(d, target)| Reverse((d.to_bits(), target, rank)))
    };
    outside.remove(0);
    let mut joined = vec![0];
    let mut heap: BinaryHeap<_> = entry(&outside, 0, 0).into_iter().collect();
    let mut edges = Vec::with_capacity(n - 1);
    while edges.len() + 1 < n {
        let Reverse((_, target, rank)) = heap
            .pop()
            .expect("while points remain outside, every tree node has an entry");
        let from = joined[rank];
        if outside.is_live(target) {
            edges.push(Edge::new(from, target));
            outside.remove(target);
            joined.push(target);
            heap.extend(entry(&outside, joined.len() - 1, target));
        }
        // Either way the target has joined: query the node afresh.
        heap.extend(entry(&outside, rank, from));
    }
    SpanningTree::new(points.to_vec(), edges)
}

/// Builds the Euclidean MST with Kruskal's algorithm, optionally excluding a set of
/// forbidden edges (used by the k-edge-connected spanner construction).
///
/// # Errors
///
/// Returns the same validation errors as [`euclidean_mst`], and
/// [`MstError::NotASpanningTree`] if the allowed edges cannot connect the pointset
/// (possible only when `forbidden` is non-empty).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::{euclidean_mst, kruskal_mst};
///
/// let points = vec![
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 1.0),
///     Point::new(4.0, 0.0),
///     Point::new(1.0, 5.0),
/// ];
/// let prim = euclidean_mst(&points).unwrap();
/// let kruskal = kruskal_mst(&points, &[]).unwrap();
/// assert!((prim.total_length() - kruskal.total_length()).abs() < 1e-9);
/// ```
pub fn kruskal_mst(points: &[Point], forbidden: &[Edge]) -> Result<SpanningTree, MstError> {
    validate_points(points, None)?;
    let n = points.len();
    let mut candidates: Vec<(f64, Edge)> = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            let e = Edge::new(i, j);
            if forbidden.contains(&e) {
                continue;
            }
            candidates.push((points[i].distance(points[j]), e));
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut dsu = DisjointSets::new(n);
    let mut edges = Vec::with_capacity(n - 1);
    for (_, e) in candidates {
        if dsu.union(e.a, e.b) {
            edges.push(e);
            if edges.len() == n - 1 {
                break;
            }
        }
    }
    if edges.len() != n - 1 {
        return Err(MstError::NotASpanningTree {
            reason: "allowed edges cannot connect the pointset",
        });
    }
    SpanningTree::new(points.to_vec(), edges)
}

/// Builds the MST of a set of points on the real line: each point is connected to
/// its successor in sorted order. This is the unique MST of a line pointset (up to
/// ties) and is the tree used by all of the paper's lower-bound constructions.
///
/// The input points need not be sorted, and need not actually have `y = 0`: only
/// the `x` coordinates are used for sorting, so the caller is responsible for
/// passing a genuinely one-dimensional instance.
///
/// # Errors
///
/// Same validation as [`euclidean_mst`].
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::line_mst;
///
/// let points = vec![Point::on_line(5.0), Point::on_line(0.0), Point::on_line(1.0)];
/// let tree = line_mst(&points).unwrap();
/// assert_eq!(tree.total_length(), 5.0);
/// assert_eq!(tree.edges().len(), 2);
/// ```
pub fn line_mst(points: &[Point]) -> Result<SpanningTree, MstError> {
    validate_points(points, None)?;
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| points[a].x.total_cmp(&points[b].x));
    let edges: Vec<Edge> = order.windows(2).map(|w| Edge::new(w[0], w[1])).collect();
    SpanningTree::new(points.to_vec(), edges)
}

/// A small union–find structure used by Kruskal's algorithm.
#[derive(Debug)]
struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl DisjointSets {
    fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Unions the sets of `a` and `b`; returns `false` if they were already joined.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{nearest_neighbor_tree, star_tree};
    use proptest::prelude::*;
    use rand::Rng;
    use wagg_geometry::rng::{seeded_rng, DeterministicRng};

    /// The reference for [`euclidean_mst`]: an `O(n²)` duplicate check over
    /// every pair, then Prim's `O(n²)` scan. Its tie rule is the scan's
    /// strict `<`: the lowest-indexed point at the minimum distance,
    /// reached from the earliest-joined tree node.
    fn reference_prim(points: &[Point]) -> Result<SpanningTree, MstError> {
        if points.len() < 2 {
            return Err(MstError::TooFewPoints {
                found: points.len(),
            });
        }
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                if points[i].distance_squared(points[j]) == 0.0 {
                    return Err(MstError::DuplicatePoints {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        let n = points.len();
        let mut in_tree = vec![false; n];
        let mut best_dist = vec![f64::INFINITY; n];
        let mut best_from = vec![0usize; n];
        let mut edges = Vec::with_capacity(n - 1);
        in_tree[0] = true;
        for v in 1..n {
            best_dist[v] = points[0].distance(points[v]);
        }
        for _ in 1..n {
            let mut u = usize::MAX;
            let mut u_dist = f64::INFINITY;
            for v in 0..n {
                if !in_tree[v] && best_dist[v] < u_dist {
                    u = v;
                    u_dist = best_dist[v];
                }
            }
            in_tree[u] = true;
            edges.push(Edge::new(best_from[u], u));
            for v in 0..n {
                if !in_tree[v] {
                    let d = points[u].distance(points[v]);
                    if d < best_dist[v] {
                        best_dist[v] = d;
                        best_from[v] = u;
                    }
                }
            }
        }
        SpanningTree::new(points.to_vec(), edges)
    }

    /// `euclidean_mst` returns what the reference returns: the same edges
    /// in the same order, or the same error.
    fn assert_matches_reference(points: &[Point], case: &str) {
        let edges = |tree: SpanningTree| tree.edges().to_vec();
        assert_eq!(
            euclidean_mst(points).map(edges),
            reference_prim(points).map(edges),
            "{case}"
        );
    }

    /// `clusters` square clusters of `per_cluster` points of half-width 10,
    /// centred uniformly in a `side` × `side` square (`on_grid = false`, the
    /// shape of the benchmark's 1 000-sensor deployments) or one per cell
    /// of a square grid, in the cell's middle half (`on_grid = true`, the
    /// shape of its 10 000-sensor service trees).
    fn clustered(
        clusters: usize,
        per_cluster: usize,
        side: f64,
        on_grid: bool,
        seed: u64,
    ) -> Vec<Point> {
        let mut rng = seeded_rng(seed);
        let cols = (clusters as f64).sqrt().ceil() as usize;
        let cell = side / cols as f64;
        let mut points = Vec::with_capacity(clusters * per_cluster);
        for c in 0..clusters {
            let (cx, cy) = if on_grid {
                (
                    (c % cols) as f64 * cell + rng.gen_range(0.25 * cell..0.75 * cell),
                    (c / cols) as f64 * cell + rng.gen_range(0.25 * cell..0.75 * cell),
                )
            } else {
                (rng.gen_range(0.0..side), rng.gen_range(0.0..side))
            };
            for _ in 0..per_cluster {
                points.push(Point::new(
                    cx + rng.gen_range(-10.0..10.0),
                    cy + rng.gen_range(-10.0..10.0),
                ));
            }
        }
        points
    }

    /// A `k` × `k` lattice of spacing `scale`: square, or triangular (every
    /// other row shifted by half a spacing, rows `√3/2` apart).
    fn lattice(k: usize, scale: f64, triangular: bool) -> Vec<Point> {
        (0..k * k)
            .map(|i| {
                let (col, row) = ((i % k) as f64, (i / k) as f64);
                if triangular {
                    let shift = if (i / k) % 2 == 1 { 0.5 } else { 0.0 };
                    Point::new((col + shift) * scale, row * scale * 3f64.sqrt() / 2.0)
                } else {
                    Point::new(col * scale, row * scale)
                }
            })
            .collect()
    }

    fn shuffle<T>(items: &mut [T], rng: &mut DeterministicRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }

    #[test]
    fn mst_of_two_points_is_single_edge() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(0.0, 7.0)];
        let t = euclidean_mst(&pts).unwrap();
        assert_eq!(t.edges(), &[Edge::new(0, 1)]);
        assert_eq!(t.total_length(), 7.0);
    }

    #[test]
    fn mst_rejects_duplicates_and_small_inputs() {
        assert!(matches!(
            euclidean_mst(&[Point::origin()]),
            Err(MstError::TooFewPoints { found: 1 })
        ));
        assert!(matches!(
            euclidean_mst(&[Point::origin(), Point::origin()]),
            Err(MstError::DuplicatePoints { .. })
        ));
        assert!(kruskal_mst(&[Point::origin()], &[]).is_err());
        assert!(line_mst(&[Point::origin()],).is_err());
    }

    #[test]
    fn mst_of_square_uses_three_sides() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let t = euclidean_mst(&pts).unwrap();
        assert_eq!(t.edges().len(), 3);
        assert!((t.total_length() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mst_of_cluster_pair_crosses_once() {
        // Two tight clusters far apart: exactly one long edge crosses between them.
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(Point::new(i as f64 * 0.1, 0.0));
            pts.push(Point::new(100.0 + i as f64 * 0.1, 0.0));
        }
        let t = euclidean_mst(&pts).unwrap();
        let long_edges = t.edge_lengths().into_iter().filter(|&l| l > 50.0).count();
        assert_eq!(long_edges, 1);
    }

    #[test]
    fn prim_and_kruskal_agree_on_random_instances() {
        let mut rng = wagg_geometry::rng::seeded_rng(17);
        for _ in 0..10 {
            let n = rng.gen_range(3..40);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect();
            let a = euclidean_mst(&pts).unwrap();
            let b = kruskal_mst(&pts, &[]).unwrap();
            assert!(
                (a.total_length() - b.total_length()).abs() < 1e-6,
                "MST weight mismatch: {} vs {}",
                a.total_length(),
                b.total_length()
            );
        }
    }

    #[test]
    fn line_mst_connects_consecutive_points() {
        let pts = vec![
            Point::on_line(3.0),
            Point::on_line(1.0),
            Point::on_line(0.0),
            Point::on_line(10.0),
        ];
        let t = line_mst(&pts).unwrap();
        // Edges should be (2,1), (1,0), (0,3) by original indices: 0<->1, 1<->2, 0<->3.
        assert!(t.edges().contains(&Edge::new(1, 2)));
        assert!(t.edges().contains(&Edge::new(0, 1)));
        assert!(t.edges().contains(&Edge::new(0, 3)));
        assert_eq!(t.total_length(), 10.0);
    }

    #[test]
    fn line_mst_matches_euclidean_mst_on_line() {
        let pts: Vec<Point> = [0.0, 1.0, 3.0, 7.0, 15.0, 31.0]
            .iter()
            .map(|&x| Point::on_line(x))
            .collect();
        let a = line_mst(&pts).unwrap();
        let b = euclidean_mst(&pts).unwrap();
        assert_eq!(a.total_length(), b.total_length());
    }

    #[test]
    fn kruskal_with_forbidden_edges_finds_alternative() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let base = kruskal_mst(&pts, &[]).unwrap();
        assert_eq!(base.total_length(), 2.0);
        // Forbid the (0,1) edge; the alternative must use the 2-length (0,2) edge.
        let alt = kruskal_mst(&pts, &[Edge::new(0, 1)]).unwrap();
        assert_eq!(alt.total_length(), 3.0);
    }

    #[test]
    fn kruskal_fails_when_too_many_edges_forbidden() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let err = kruskal_mst(&pts, &[Edge::new(0, 1)]).unwrap_err();
        assert!(matches!(err, MstError::NotASpanningTree { .. }));
    }

    #[test]
    fn disjoint_sets_union_find() {
        let mut dsu = DisjointSets::new(4);
        assert!(dsu.union(0, 1));
        assert!(!dsu.union(1, 0));
        assert!(dsu.union(2, 3));
        assert!(dsu.union(0, 3));
        assert_eq!(dsu.find(1), dsu.find(2));
    }

    #[test]
    fn matches_the_reference_on_clustered_deployments() {
        for seed in 1..=4 {
            let points = clustered(50, 20, 4_000.0, false, seed);
            assert_matches_reference(&points, &format!("50 x 20 clusters, seed {seed}"));
        }
        let points = clustered(150, 20, 6_900.0, true, 5);
        assert_matches_reference(&points, "150 x 20 clusters on a grid");
    }

    #[test]
    fn matches_the_reference_on_lattices_circles_and_lines() {
        let mut rng = seeded_rng(23);
        for scale in [1.0, 0.1, 1.0 / 3.0, 1e-7, 1e6] {
            for triangular in [false, true] {
                let mut points = lattice(30, scale, triangular);
                assert_matches_reference(&points, &format!("lattice {scale} {triangular}"));
                shuffle(&mut points, &mut rng);
                assert_matches_reference(&points, &format!("shuffled {scale} {triangular}"));
            }
            let circle: Vec<Point> = (0..500)
                .map(|i| {
                    let angle = std::f64::consts::TAU * i as f64 / 500.0;
                    Point::new(scale * angle.cos(), scale * angle.sin())
                })
                .collect();
            assert_matches_reference(&circle, &format!("circle {scale}"));
            let mut line: Vec<Point> = (0..1_000)
                .map(|i| Point::on_line(scale * i as f64))
                .collect();
            shuffle(&mut line, &mut rng);
            assert_matches_reference(&line, &format!("shuffled line {scale}"));
        }
    }

    #[test]
    fn matches_the_reference_on_random_lattice_subsets() {
        let mut rng = seeded_rng(29);
        for trial in 0..4_000 {
            let k = rng.gen_range(2..=9);
            let scale = [1.0, 0.1, 1.0 / 3.0, 2.5e-5, 7e5][trial % 5];
            let mut points = lattice(k, scale, trial % 2 == 1);
            shuffle(&mut points, &mut rng);
            points.truncate(rng.gen_range(2..=60.min(k * k)));
            assert_matches_reference(&points, &format!("subset {trial}"));
        }
    }

    #[test]
    fn matches_the_reference_when_points_coincide() {
        let mut rng = seeded_rng(31);
        for trial in 0..300 {
            let mut points = lattice(rng.gen_range(2..=7), 0.5, trial % 2 == 1);
            shuffle(&mut points, &mut rng);
            for _ in 0..1 + trial % 3 {
                let (i, j) = (
                    rng.gen_range(0..points.len()),
                    rng.gen_range(0..points.len()),
                );
                points[j] = points[i];
            }
            assert_matches_reference(&points, &format!("duplicates {trial}"));
        }
        let mut points = clustered(50, 20, 4_000.0, false, 6);
        points[917] = points[88];
        assert_matches_reference(&points, "a duplicate in a clustered deployment");
        // Distinct points whose squared distance underflows to zero, and
        // the two zeros, coincide too.
        for pair in [
            [Point::new(1e-170, 0.0), Point::origin()],
            [Point::new(0.0, -0.0), Point::new(-0.0, 0.0)],
        ] {
            let points = [
                Point::new(3.0, 4.0),
                pair[0],
                Point::new(-2.0, 1.0),
                pair[1],
            ];
            assert_matches_reference(&points, "underflow");
            assert_eq!(
                euclidean_mst(&points),
                Err(MstError::DuplicatePoints {
                    first: 1,
                    second: 3
                })
            );
        }
        assert_matches_reference(&[], "empty");
        assert_matches_reference(&[Point::origin()], "one point");
    }

    /// Two deployments of 10 000 sensors in the shape of the benchmark's
    /// service trees. The reference takes seconds per case in a debug build;
    /// CI runs this test in release.
    #[test]
    #[ignore = "slow in debug builds; CI runs it in release with --include-ignored"]
    fn matches_the_reference_on_ten_thousand_sensor_deployments() {
        for seed in [1, 2] {
            let points = clustered(500, 20, 12_650.0, true, seed);
            assert_matches_reference(&points, &format!("500 x 20 on a grid, seed {seed}"));
        }
    }

    #[test]
    fn every_constructor_refuses_non_finite_points() {
        for bad in [
            Point::new(f64::NAN, 1.0),
            Point::new(2.0, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NAN),
        ] {
            let mut points: Vec<Point> = (0..6).map(|i| Point::new(i as f64, 0.0)).collect();
            // The lowest offending index is named, ahead of a duplicate.
            points[1] = points[0];
            points[3] = bad;
            points[5] = bad;
            let refused = Err(MstError::NonFinite { index: 3 });
            assert_eq!(euclidean_mst(&points), refused);
            assert_eq!(kruskal_mst(&points, &[]), refused);
            assert_eq!(line_mst(&points), refused);
            assert_eq!(nearest_neighbor_tree(&points, 0), refused);
            assert_eq!(star_tree(&points, 0), refused);
        }
    }

    proptest! {
        /// The MST never weighs more than the path visiting points in input order
        /// (any spanning structure upper-bounds the MST weight).
        #[test]
        fn prop_mst_no_heavier_than_input_path(xs in proptest::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 2..30)) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            // Skip degenerate inputs with duplicate points.
            prop_assume!(euclidean_mst(&pts).is_ok());
            let t = euclidean_mst(&pts).unwrap();
            let path_len: f64 = pts.windows(2).map(|w| w[0].distance(w[1])).sum();
            prop_assert!(t.total_length() <= path_len + 1e-9);
        }

        /// Prim and Kruskal agree on MST weight.
        #[test]
        fn prop_prim_kruskal_agree(xs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..20)) {
            let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
            prop_assume!(euclidean_mst(&pts).is_ok());
            let a = euclidean_mst(&pts).unwrap();
            let b = kruskal_mst(&pts, &[]).unwrap();
            prop_assert!((a.total_length() - b.total_length()).abs() < 1e-6);
        }

        /// The MST of points on a line has total length max - min.
        #[test]
        fn prop_line_mst_total_length(xs in proptest::collection::hash_set(0u32..100000, 2..40)) {
            let pts: Vec<Point> = xs.iter().map(|&x| Point::on_line(x as f64)).collect();
            let t = line_mst(&pts).unwrap();
            let max = xs.iter().max().unwrap();
            let min = xs.iter().min().unwrap();
            prop_assert!((t.total_length() - (*max as f64 - *min as f64)).abs() < 1e-9);
        }
    }
}
