//! Alternative aggregation trees and the Lemma 1 criterion (Remark 1).
//!
//! Remark 1 of the paper observes that the scheduling argument never uses the
//! MST itself — only the sparsity property of Lemma 1 (`I(i, T_i^+) = O(1)`
//! for every link `i`). Any spanning tree satisfying that bound therefore
//! schedules in the same `O(log* Δ)` / `O(log log Δ)` number of slots, which
//! opens the door to *approximate* MSTs that are cheaper to maintain.
//!
//! This module provides the criterion itself plus two alternative tree
//! constructions used by the experiments:
//!
//! * [`nearest_neighbor_tree`] — every node attaches to its nearest neighbour
//!   among the nodes strictly closer to the sink. Cheap, local, and in
//!   practice nearly as sparse as the MST (a natural "approximate MST").
//! * [`star_tree`] — every node transmits directly to the sink. The extreme
//!   counterexample: its links all share a receiver, Lemma 1 fails by a
//!   factor `Θ(n)`, and so does the schedule length.

use crate::error::MstError;
use crate::euclidean::validate_points;
use crate::sparsity::measure_sparsity;
use crate::tree::{Edge, SpanningTree};
use wagg_geometry::Point;
use wagg_sinr::Link;

/// Whether a link set satisfies the Lemma 1 sparsity criterion with the given
/// bound: `I(i, S_i^+) <= bound` for every link `i`.
///
/// Per Remark 1, any spanning tree passing this check (for a constant bound)
/// admits the paper's schedule-length guarantees.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::approx::satisfies_lemma1;
/// use wagg_mst::euclidean_mst;
///
/// let points: Vec<Point> = (0..30).map(|i| Point::new(i as f64, (i % 4) as f64)).collect();
/// let links = euclidean_mst(&points).unwrap().orient_arbitrarily();
/// assert!(satisfies_lemma1(&links, 3.0, 20.0));
/// ```
pub fn satisfies_lemma1(links: &[Link], alpha: f64, bound: f64) -> bool {
    measure_sparsity(links, alpha).max() <= bound
}

/// The nearest-neighbour-towards-the-sink tree: every non-sink node connects
/// to its nearest neighbour among the nodes strictly closer to the sink (ties
/// on sink distance broken by index, so the construction is always acyclic).
///
/// # Errors
///
/// Returns the usual construction errors for degenerate pointsets or a bad
/// sink index.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::approx::nearest_neighbor_tree;
///
/// let points: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
/// let tree = nearest_neighbor_tree(&points, 0).unwrap();
/// // On a line this coincides with the MST: each node attaches to its left neighbour.
/// assert_eq!(tree.edges().len(), 9);
/// assert_eq!(tree.total_length(), 9.0);
/// ```
pub fn nearest_neighbor_tree(points: &[Point], sink: usize) -> Result<SpanningTree, MstError> {
    validate_points(points, Some(sink))?;
    // Rank nodes by (distance to sink, index); each node attaches to its
    // nearest strictly lower-ranked node. The sink has the lowest rank.
    let rank = |v: usize| (points[v].distance(points[sink]), v);
    let mut edges = Vec::with_capacity(points.len() - 1);
    for v in 0..points.len() {
        if v == sink {
            continue;
        }
        let parent = (0..points.len())
            .filter(|&u| u != v && rank(u) < rank(v))
            .min_by(|&a, &b| {
                points[a]
                    .distance(points[v])
                    .partial_cmp(&points[b].distance(points[v]))
                    .expect("finite distances")
            })
            .expect("the sink is always lower-ranked");
        edges.push(Edge::new(v, parent));
    }
    SpanningTree::new(points.to_vec(), edges)
}

/// The star tree: every non-sink node transmits directly to the sink.
///
/// This is the natural "no topology control" baseline; its links all share
/// the sink as receiver, so no two of them can ever be scheduled together and
/// Lemma 1 fails by a linear factor.
///
/// # Errors
///
/// Returns the usual construction errors for degenerate pointsets or a bad
/// sink index.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_mst::approx::star_tree;
///
/// let points: Vec<Point> = (0..6).map(|i| Point::new(1.0 + i as f64, 0.0)).collect();
/// let tree = star_tree(&points, 0).unwrap();
/// assert_eq!(tree.edges().len(), 5);
/// assert_eq!(tree.max_edge_length(), 5.0);
/// ```
pub fn star_tree(points: &[Point], sink: usize) -> Result<SpanningTree, MstError> {
    validate_points(points, Some(sink))?;
    let edges = (0..points.len())
        .filter(|&v| v != sink)
        .map(|v| Edge::new(v, sink))
        .collect();
    SpanningTree::new(points.to_vec(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::euclidean_mst;
    use wagg_geometry::rng::{seeded_rng, uniform_in};

    fn random_points(n: usize, side: f64, seed: u64) -> Vec<Point> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    uniform_in(&mut rng, 0.0, side),
                    uniform_in(&mut rng, 0.0, side),
                )
            })
            .collect()
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(nearest_neighbor_tree(&[Point::origin()], 0).is_err());
        let points = vec![Point::origin(), Point::new(1.0, 0.0)];
        assert!(matches!(
            nearest_neighbor_tree(&points, 5),
            Err(MstError::NodeOutOfRange { index: 5, nodes: 2 })
        ));
        let dup = vec![Point::origin(), Point::origin(), Point::new(1.0, 0.0)];
        assert!(matches!(
            star_tree(&dup, 2),
            Err(MstError::DuplicatePoints {
                first: 0,
                second: 1
            })
        ));
    }

    #[test]
    fn nearest_neighbor_tree_spans_and_points_towards_the_sink() {
        let points = random_points(50, 120.0, 3);
        let sink = 7;
        let tree = nearest_neighbor_tree(&points, sink).unwrap();
        assert_eq!(tree.edges().len(), 49);
        let links = tree.try_orient_towards(sink).unwrap();
        // Every sender is strictly further from the sink than its receiver
        // (or equally far with a larger index), which is what makes the
        // construction acyclic.
        for link in &links {
            let s = link.sender_node.unwrap().index();
            let r = link.receiver_node.unwrap().index();
            let ds = points[s].distance(points[sink]);
            let dr = points[r].distance(points[sink]);
            assert!(dr < ds || (dr == ds && r < s));
        }
    }

    #[test]
    fn nearest_neighbor_tree_is_nearly_as_sparse_as_the_mst() {
        let points = random_points(80, 200.0, 11);
        let sink = 0;
        let mst_links = euclidean_mst(&points).unwrap().orient_arbitrarily();
        let nn_links = nearest_neighbor_tree(&points, sink)
            .unwrap()
            .try_orient_towards(sink)
            .unwrap();
        let mst_sparsity = measure_sparsity(&mst_links, 3.0).max();
        let nn_sparsity = measure_sparsity(&nn_links, 3.0).max();
        assert!(satisfies_lemma1(&mst_links, 3.0, 20.0));
        // The NN tree is a constant factor denser at worst on uniform deployments.
        assert!(
            nn_sparsity <= 6.0 * mst_sparsity.max(1.0),
            "nn sparsity {nn_sparsity} vs mst {mst_sparsity}"
        );
        // Its total length is also within a modest factor of the MST's.
        let mst_total = euclidean_mst(&points).unwrap().total_length();
        let nn_total = nearest_neighbor_tree(&points, sink).unwrap().total_length();
        assert!(nn_total >= mst_total - 1e-9);
        assert!(
            nn_total <= 4.0 * mst_total,
            "nn length {nn_total} vs mst {mst_total}"
        );
    }

    #[test]
    fn star_tree_violates_lemma1_linearly() {
        // A uniform chain aggregated by a star: the short links pile linear
        // influence onto the long ones.
        let points: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 0.0)).collect();
        let star_links = star_tree(&points, 0)
            .unwrap()
            .try_orient_towards(0)
            .unwrap();
        let star_sparsity = measure_sparsity(&star_links, 3.0).max();
        assert!(!satisfies_lemma1(&star_links, 3.0, 5.0));
        assert!(star_sparsity > 10.0, "star sparsity {star_sparsity}");
        // The chain's MST, by contrast, satisfies the criterion comfortably.
        let mst_links = euclidean_mst(&points).unwrap().orient_arbitrarily();
        assert!(satisfies_lemma1(&mst_links, 3.0, 5.0));
    }

    #[test]
    fn line_nearest_neighbor_tree_equals_the_line_mst() {
        let points: Vec<Point> = (0..25).map(|i| Point::new(1.5 * i as f64, 0.0)).collect();
        let nn = nearest_neighbor_tree(&points, 0).unwrap();
        let mst = euclidean_mst(&points).unwrap();
        assert!((nn.total_length() - mst.total_length()).abs() < 1e-9);
    }
}
