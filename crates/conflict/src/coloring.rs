//! Greedy length-ordered coloring of conflict graphs.
//!
//! The paper's scheduling algorithm is the classic greedy coloring: process the
//! links in non-increasing order of length and give each link the smallest color
//! not used by its already-colored neighbours. Because the conflict graphs `G_f`
//! have constant inductive independence, this greedy order is a constant-factor
//! approximation of the optimal coloring (Appendix A, property c).

use crate::graph::ConflictGraph;
use serde::{Deserialize, Serialize};
use wagg_sinr::link::indices_by_decreasing_length;

/// A proper vertex coloring of a conflict graph, i.e. a TDMA schedule of its links.
///
/// Color `c` corresponds to time slot `c`; the links of one color class can, by the
/// paper's conflict-graph machinery, transmit simultaneously under the matching
/// power mode.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::Link;
/// use wagg_conflict::{greedy_color, ConflictGraph, ConflictRelation};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
/// ];
/// let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
/// let coloring = greedy_color(&g);
/// assert_eq!(coloring.num_colors(), 2);
/// assert_eq!(coloring.class(0).len() + coloring.class(1).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coloring {
    colors: Vec<usize>,
    num_colors: usize,
}

impl Coloring {
    /// Creates a coloring from an explicit color vector (one entry per vertex).
    ///
    /// # Panics
    ///
    /// Panics if `colors` is non-empty and its maximum exceeds `usize::MAX - 1`
    /// (practically impossible); the number of colors is `max + 1` or zero.
    pub fn from_colors(colors: Vec<usize>) -> Self {
        let num_colors = colors.iter().max().map(|&m| m + 1).unwrap_or(0);
        Coloring { colors, num_colors }
    }

    /// The color (slot index) of vertex `v`.
    pub fn color(&self, v: usize) -> usize {
        self.colors[v]
    }

    /// The full color vector, indexed by vertex.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Number of colors used (the schedule length).
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// Number of vertices colored.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether no vertices were colored.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The vertices of color class `c`.
    pub fn class(&self, c: usize) -> Vec<usize> {
        self.colors
            .iter()
            .enumerate()
            .filter(|&(_, &col)| col == c)
            .map(|(v, _)| v)
            .collect()
    }

    /// All color classes, indexed by color.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let mut classes = vec![Vec::new(); self.num_colors];
        for (v, &c) in self.colors.iter().enumerate() {
            classes[c].push(v);
        }
        classes
    }

    /// Whether the coloring is proper for `graph` (no edge joins two vertices of the
    /// same color) and covers exactly its vertex set.
    pub fn is_proper(&self, graph: &ConflictGraph) -> bool {
        if self.colors.len() != graph.len() {
            return false;
        }
        for v in 0..graph.len() {
            for &u in graph.neighbors(v) {
                if u > v && self.colors[u] == self.colors[v] {
                    return false;
                }
            }
        }
        true
    }

    /// Size of the largest color class.
    pub fn max_class_size(&self) -> usize {
        self.classes().iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Greedy coloring in non-increasing order of link length (the paper's algorithm).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::Link;
/// use wagg_conflict::{greedy_color, ConflictGraph, ConflictRelation};
///
/// // Three mutually conflicting links need three slots.
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
///     Link::new(2, Point::new(2.0, 0.0), Point::new(1.2, 0.0)),
/// ];
/// let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
/// let c = greedy_color(&g);
/// assert_eq!(c.num_colors(), 3);
/// assert!(c.is_proper(&g));
/// ```
pub fn greedy_color(graph: &ConflictGraph) -> Coloring {
    let order = indices_by_decreasing_length(graph.links());
    greedy_color_with_order(graph, &order)
}

/// Greedy coloring with an explicit processing order (a permutation of the vertices).
///
/// Exposed so callers can experiment with other orders (e.g. the increasing-length
/// order, or a random order) and compare the resulting schedule lengths; the paper's
/// guarantees hold for the non-increasing-length order of [`greedy_color`].
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..graph.len()`.
pub fn greedy_color_with_order(graph: &ConflictGraph, order: &[usize]) -> Coloring {
    let n = graph.len();
    assert_eq!(order.len(), n, "order must cover every vertex exactly once");
    let mut seen = vec![false; n];
    for &v in order {
        assert!(
            v < n && !seen[v],
            "order must be a permutation of the vertices"
        );
        seen[v] = true;
    }

    const UNCOLORED: usize = usize::MAX;
    let mut colors = vec![UNCOLORED; n];
    // `taken[c] == k`: a neighbour of `order[k]` has color `c`. A vertex
    // has fewer than `n` neighbours, so every color is below `n`.
    let mut taken = vec![usize::MAX; n];
    for (k, &v) in order.iter().enumerate() {
        for &u in graph.neighbors(v) {
            if colors[u] != UNCOLORED {
                taken[colors[u]] = k;
            }
        }
        colors[v] = taken
            .iter()
            .position(|&t| t != k)
            .expect("a vertex has fewer colored neighbours than vertices");
    }
    Coloring::from_colors(colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::ConflictRelation;
    use proptest::prelude::*;
    use wagg_geometry::Point;
    use wagg_sinr::Link;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    fn tight_chain(n: usize) -> Vec<Link> {
        (0..n)
            .map(|i| {
                let start = i as f64 * 1.5;
                line_link(i, start, start + 1.0)
            })
            .collect()
    }

    #[test]
    fn empty_graph_gets_empty_coloring() {
        let g = ConflictGraph::build(&[], ConflictRelation::unit_constant());
        let c = greedy_color(&g);
        assert!(c.is_empty());
        assert_eq!(c.num_colors(), 0);
        assert!(c.is_proper(&g));
        assert_eq!(c.max_class_size(), 0);
    }

    #[test]
    fn path_conflict_graph_needs_two_colors() {
        let links = tight_chain(7);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let c = greedy_color(&g);
        assert_eq!(c.num_colors(), 2);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn independent_links_share_one_color() {
        let links: Vec<Link> = (0..5)
            .map(|i| line_link(i, i as f64 * 10.0, i as f64 * 10.0 + 1.0))
            .collect();
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let c = greedy_color(&g);
        assert_eq!(c.num_colors(), 1);
        assert_eq!(c.class(0).len(), 5);
    }

    #[test]
    fn classes_partition_the_vertices() {
        let links = tight_chain(9);
        let g = ConflictGraph::build(&links, ConflictRelation::constant(2.0));
        let c = greedy_color(&g);
        let total: usize = c.classes().iter().map(Vec::len).sum();
        assert_eq!(total, links.len());
        for (color, class) in c.classes().into_iter().enumerate() {
            for v in class {
                assert_eq!(c.color(v), color);
            }
        }
    }

    #[test]
    fn every_class_is_an_independent_set() {
        let links = tight_chain(10);
        let g = ConflictGraph::build(&links, ConflictRelation::oblivious_default());
        let c = greedy_color(&g);
        for class in c.classes() {
            assert!(g.is_independent_set(&class));
        }
    }

    #[test]
    fn from_colors_counts_colors() {
        let c = Coloring::from_colors(vec![0, 2, 1, 0]);
        assert_eq!(c.num_colors(), 3);
        assert_eq!(c.class(0), vec![0, 3]);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn improper_coloring_detected() {
        let links = tight_chain(3);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let bad = Coloring::from_colors(vec![0, 0, 0]);
        assert!(!bad.is_proper(&g));
        let wrong_len = Coloring::from_colors(vec![0, 1]);
        assert!(!wrong_len.is_proper(&g));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn order_must_be_permutation() {
        let links = tight_chain(3);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let _ = greedy_color_with_order(&g, &[0, 0, 1]);
    }

    #[test]
    fn custom_order_still_proper() {
        let links = tight_chain(6);
        let g = ConflictGraph::build(&links, ConflictRelation::constant(2.0));
        let order: Vec<usize> = (0..6).rev().collect();
        let c = greedy_color_with_order(&g, &order);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn greedy_uses_at_most_max_degree_plus_one_colors() {
        let links = tight_chain(20);
        let g = ConflictGraph::build(&links, ConflictRelation::constant(3.0));
        let c = greedy_color(&g);
        assert!(c.num_colors() <= g.max_degree() + 1);
    }

    /// The greedy loop before the stamp array: collect the colored
    /// neighbours' colors, sort and deduplicate them, take the first gap.
    fn collect_sort_dedup_greedy(graph: &ConflictGraph, order: &[usize]) -> Coloring {
        const UNCOLORED: usize = usize::MAX;
        let mut colors = vec![UNCOLORED; graph.len()];
        for &v in order {
            let mut used: Vec<usize> = graph
                .neighbors(v)
                .iter()
                .map(|&u| colors[u])
                .filter(|&c| c != UNCOLORED)
                .collect();
            used.sort_unstable();
            used.dedup();
            let mut candidate = 0;
            for c in used {
                if c == candidate {
                    candidate += 1;
                } else if c > candidate {
                    break;
                }
            }
            colors[v] = candidate;
        }
        Coloring::from_colors(colors)
    }

    proptest! {
        /// The stamp-array greedy colors exactly as the collect-sort-dedup
        /// loop did, on random link sets in a square (zero-length links
        /// among them, which conflict with every link) under each relation,
        /// in random orders and in the paper's length order.
        #[test]
        fn prop_greedy_matches_the_collect_sort_dedup_loop(
            raw in proptest::collection::vec(
                (0.0f64..60.0, 0.0f64..60.0, 0.0f64..std::f64::consts::TAU, 0.0f64..12.0, 0u64..u64::MAX),
                1..150,
            ),
            which in 0u8..3,
        ) {
            let links: Vec<Link> = raw
                .iter()
                .enumerate()
                .map(|(i, &(x, y, angle, len, _))| {
                    // About one link in twelve has length zero.
                    let len = if len < 1.0 { 0.0 } else { len };
                    let s = Point::new(x, y);
                    Link::new(i, s, Point::new(x + len * angle.cos(), y + len * angle.sin()))
                })
                .collect();
            let relation = match which {
                0 => ConflictRelation::unit_constant(),
                1 => ConflictRelation::oblivious_default(),
                _ => ConflictRelation::arbitrary_default(),
            };
            let g = ConflictGraph::build(&links, relation);
            let mut random: Vec<usize> = (0..links.len()).collect();
            random.sort_by_key(|&i| (raw[i].4, i));
            let by_length = indices_by_decreasing_length(&links);
            for order in [random, by_length] {
                let c = greedy_color_with_order(&g, &order);
                prop_assert_eq!(&c, &collect_sort_dedup_greedy(&g, &order));
                prop_assert!(c.is_proper(&g));
            }
        }

        /// Greedy coloring is always proper and uses at most Δ + 1 colors, on random
        /// line instances under each of the three relations.
        #[test]
        fn prop_greedy_is_proper(xs in proptest::collection::vec(0.0f64..500.0, 2..24), which in 0u8..3) {
            // Build links between consecutive sorted x positions (an MST of the line).
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            sorted.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            prop_assume!(sorted.len() >= 2);
            let links: Vec<Link> = sorted.windows(2).enumerate()
                .filter(|(_, w)| w[1] - w[0] > 1e-9)
                .map(|(i, w)| line_link(i, w[0], w[1]))
                .collect();
            prop_assume!(!links.is_empty());
            let relation = match which {
                0 => ConflictRelation::unit_constant(),
                1 => ConflictRelation::oblivious_default(),
                _ => ConflictRelation::arbitrary_default(),
            };
            let g = ConflictGraph::build(&links, relation);
            let c = greedy_color(&g);
            prop_assert!(c.is_proper(&g));
            prop_assert!(c.num_colors() <= g.max_degree() + 1);
        }
    }
}
