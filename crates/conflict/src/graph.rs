//! The conflict graph data structure.
//!
//! # Construction
//!
//! [`ConflictGraph::build`] lays the [length-class index](crate::classes)
//! out over its input: one cell grid per power-of-two length class, over the
//! members' segment boxes. [`ConflictGraph::build_indexed`] decides over an
//! index the caller laid out already; `wagg-engine` seeds its adjacency that
//! way and keeps the index.
//!
//! **Each unordered pair is decided once, from the smaller of its two
//! length classes.** Classes rank by (member count, class key); a link
//! queries its own class, keeping partners with a higher index, and every
//! class that ranks above its own ([`Scope::DecidedBy`]). The pairs of a
//! sparse class of long links and a dense class of short ones are then
//! decided by the few long links' queries, not by one query per short link;
//! on the paper's clustered MSTs, whose longer classes hold a few members
//! each, that is most of the build. Ties go to the shorter class, so a
//! single class, or a chain with one member per class, decides from its
//! shorter side. For class `C` with member lengths within `lo..=hi`, a
//! member `j` conflicting with link `i` has `d(i, j) ≤ l_min · f(l_max /
//! l_min) ≤ L · f(R)`, with `L = min(l_i, hi)` and `R = max(l_i, hi) /
//! min(l_i, lo)`, whichever of the two is shorter, because `f` is
//! non-decreasing ([`ConflictRelation::reach`]; the
//! [`classes`](crate::classes) module docs give the two cases). So each
//! (link, class) gets one `reach = L · f(R) · (1 + 1e-9) + 1e-12 · max
//! |coordinate|`, the largest `|coordinate|` taken over the link's box and
//! the class's extent ([`ConflictRelation::margined_reach`]). It sets the
//! grid window and a box-gap test, `gap(box_i, box_j)² ≤ reach²`; a class
//! whose whole extent fails the test is skipped. A member stored in several
//! cells is visited once per cell, so each link's candidates are queued in
//! one reused [`Candidates`] scratch, which drops repeats with a stamp array,
//! and [`ConflictRelation::conflicting_batch`] decides them all at once
//! (`from_decided` sorts every row, so the queue order does not matter).
//!
//! **Why the batched verdicts are exact.** The batch gives
//! [`ConflictRelation::conflicting`]'s verdict on every pair, bit for bit,
//! and [`ConflictGraph::build_naive`] keeps the scalar predicate as the
//! reference. One loop without branches computes every candidate's
//! `d / l_min`, taking one square root of the least of the four squared
//! point-to-segment distances, where `segment_distance` takes the least of
//! four roots. The two are equal: `sqrt` is correctly rounded and
//! monotone, and `f64::min` skips NaN in both forms. A quotient
//! `d / l_min ≤ γ` decides a conflict before `f` is evaluated, because the
//! computed `f(x)` is never below `γ` for `x ≥ 1` in any of the three
//! shapes. Rust never fuses a multiply and an add, so the vector lanes round
//! as the scalar code does. The [`relation`](crate::relation) module docs
//! give the details.
//!
//! **Why the box test cannot drop an edge.** The closest points of two
//! segments lie in their boxes, so `gap ≤ d`. In floats, `segment_distance`
//! is 0 only for segments whose boxes overlap (`segments_intersect` tests the
//! boxes before any orientation sign); otherwise it is the least distance
//! from an endpoint of one link to a point `a + t·(b − a)`, `t ∈ [0, 1]`, of
//! the other. When `b − a` is exact, every rounded step there is monotone, so
//! that point rounds into the other link's box and the computed distance is
//! at least the computed gap, up to the few ulps by which squaring, summing
//! and the square root round. The relative margin (`1e-9`) absorbs those,
//! and the few ulps by which the quotient `d / l_min`, the ratio and `f`
//! stray from their monotone ideal. When `b − a` itself rounds, the point
//! can leave the box by a few ulps of the coordinates' magnitude; the
//! absolute margin (`1e-12` of the largest `|coordinate|`, thousands of
//! those ulps) covers that, and the rounding of the grid window's edges.
//! Only the pair's coordinates and the window's edges (the query link's
//! box widened by the reach) round, and cell indices are monotone in the
//! coordinate, so the largest `|coordinate|` of the pair suffices: the
//! class's extent covers every member, so the query's maximum bounds it.
//! `tests/grid_vs_naive.rs` checks edge-for-edge equality with
//! [`ConflictGraph::build_naive`], on inputs up to `1e12` from the origin too.
//!
//! **Zero-length links** conflict with every link of another id. They join
//! no class ([`is_classed`]), and neither do links whose length overflows to
//! infinity: such a link decides its pairs with every classed link and every
//! later unclassed link through `conflicting`, which checks ids.
//!
//! # Storage
//!
//! Adjacency is stored in **CSR form** (compressed sparse rows): one flat
//! `offsets` array of length `n + 1` and one flat `neighbors` array holding
//! every row's sorted neighbour indices back to back. Row `v` is
//! `neighbors[offsets[v]..offsets[v + 1]]`. This makes [`ConflictGraph::neighbors`]
//! a slice borrow, [`ConflictGraph::are_adjacent`] a binary search, and the
//! independence checks allocation-free. A counting transpose mirrors each
//! decided pair into both rows: the decisions land in one flat list of
//! pairs; count degrees, prefix-sum them into `offsets`, scatter every pair
//! into both rows, sort each (short) row.
//!
//! The decisions run over eight ranges of consecutive links per thread of
//! the rayon shim's pool, whose pair lists are joined in order, and the
//! transpose serially. Without the (default-on) `parallel` feature no
//! worker starts and one range, `0..n`, is decided on the calling thread;
//! both builds produce identical graphs.

use crate::classes::{is_classed, LengthClasses, Scope};
use crate::relation::{Candidates, ConflictRelation};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use wagg_geometry::BoundingBox;
use wagg_obs::{Recorder, Span};
use wagg_sinr::Link;

use rayon::prelude::*;

/// Below this size the all-pairs build is faster than building class grids.
const GRID_BUILD_CUTOFF: usize = 64;

/// Ranges of links per pool thread in a parallel build: as many blocks as
/// the pool splits a parallel map into, so its cursor balances ranges of
/// uneven cost.
const RANGES_PER_THREAD: usize = 8;

/// The recorder counter of exact predicate calls, one `add` per build.
const PAIRS_CHECKED: &str = "conflict.pairs_checked";

/// The recorder counter of candidates read before the exact predicate
/// (class-grid entries, and the links a link of no class lists), one `add`
/// per build.
const CANDIDATES_VISITED: &str = "conflict.candidates_visited";

/// The conflicting pairs some links decided, and the work it took.
#[derive(Debug, Default)]
struct Decided {
    /// `(i, j)`: link `i` decided that it conflicts with link `j`; ordered
    /// by `i`, then by the order `i`'s candidates were first visited.
    pairs: Vec<(u32, u32)>,
    /// Exact predicate calls.
    checked: u64,
    /// Candidates read.
    visited: u64,
}

/// A conflict graph `G_f(L)` over a set of links.
///
/// Vertices are the links (by their position in the originating slice); an edge
/// joins two links iff they conflict under the relation the graph was built
/// with. The graph stores the links themselves so that colorings can be mapped
/// back to schedules without carrying the link set separately. See the
/// [module docs](self) for the construction algorithm and the CSR layout.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::Link;
/// use wagg_conflict::{ConflictGraph, ConflictRelation};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(1.5, 0.0), Point::new(2.5, 0.0)),
///     Link::new(2, Point::new(50.0, 0.0), Point::new(51.0, 0.0)),
/// ];
/// let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
/// assert_eq!(g.len(), 3);
/// assert!(g.are_adjacent(0, 1));
/// assert!(!g.are_adjacent(0, 2));
/// assert_eq!(g.degree(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConflictGraph {
    links: Vec<Link>,
    relation: ConflictRelation,
    /// CSR row boundaries: row `v` is `neighbors[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated, per-row-sorted neighbour indices.
    neighbors: Vec<usize>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `links` under `relation`.
    ///
    /// Uses the grid-pruned construction from the [module docs](self) — `O(n +
    /// m)`-ish for geometrically sparse instances instead of the seed's strict
    /// `O(n²)` — and falls back to [`ConflictGraph::build_naive`] below
    /// a small cutoff where grid setup would dominate. Both constructions
    /// yield identical graphs.
    pub fn build(links: &[Link], relation: ConflictRelation) -> Self {
        Self::build_traced(links, relation, &Recorder::disabled())
    }

    /// [`ConflictGraph::build`] with phase instrumentation: records a
    /// `conflict` span with `layout` / `rows` / `csr` children on `rec` (see
    /// `wagg-obs`), adds the number of exact predicate calls to its
    /// `conflict.pairs_checked` counter and the candidates read before them
    /// (class-grid entries, and the links a link of no class lists) to its
    /// `conflict.candidates_visited` counter. With a disabled recorder, this
    /// is exactly `build`.
    pub fn build_traced(links: &[Link], relation: ConflictRelation, rec: &Recorder) -> Self {
        let root = rec.span("conflict");
        let n = links.len();
        if n < GRID_BUILD_CUTOFF {
            let pairs = (n * n.saturating_sub(1) / 2) as u64;
            rec.add(PAIRS_CHECKED, pairs);
            rec.add(CANDIDATES_VISITED, pairs);
            return Self::build_naive(links, relation);
        }
        let layout = root.child("layout");
        let bboxes: Vec<BoundingBox> = links
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();
        let classes = LengthClasses::laid_out(0..n, |i| links[i].length(), &bboxes);
        layout.finish();
        let (graph, checked, visited) = Self::decided(links, relation, &bboxes, &classes, &root);
        rec.add(PAIRS_CHECKED, checked);
        rec.add(CANDIDATES_VISITED, visited);
        graph
    }

    /// The conflict graph of `links` under `relation`, decided over
    /// `classes`: an index holding exactly the classed links of `links`, by
    /// position, boxed by `bboxes` (as [`LengthClasses::laid_out`] lays it
    /// out over `0..links.len()`). Equals [`ConflictGraph::build`] at every
    /// size; there is no all-pairs cutoff.
    pub fn build_indexed(
        links: &[Link],
        relation: ConflictRelation,
        bboxes: &[BoundingBox],
        classes: &LengthClasses,
    ) -> Self {
        let root = Recorder::disabled().span("conflict");
        Self::decided(links, relation, bboxes, classes, &root).0
    }

    /// Builds the conflict graph by checking all `O(n²)` pairs.
    ///
    /// Kept as the reference implementation: the property tests assert the
    /// grid build is edge-identical, and the `kernel` benchmark measures the
    /// speedup of [`ConflictGraph::build`] against it.
    pub fn build_naive(links: &[Link], relation: ConflictRelation) -> Self {
        let n = links.len();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if relation.conflicting(&links[i], &links[j]) {
                    pairs.push((i as u32, j as u32));
                }
            }
        }
        Self::from_decided(links, relation, &pairs)
    }

    /// Decides every unordered pair once, from the smaller of its two length
    /// classes (see the [module docs](self)), and assembles the graph; also
    /// returns the exact predicate calls and the candidates read. `parent`
    /// scopes the `rows` / `csr` spans.
    fn decided(
        links: &[Link],
        relation: ConflictRelation,
        bboxes: &[BoundingBox],
        classes: &LengthClasses,
        parent: &Span,
    ) -> (Self, u64, u64) {
        let rows_span = parent.child("rows");
        let n = links.len();
        let decide = |range| Self::decide(links, relation, bboxes, classes, range);
        // One thread decides `0..n` as one range, whose pair list is moved.
        let ranges = match rayon::current_num_threads() {
            1 => 1,
            threads => (threads * RANGES_PER_THREAD).min(n),
        };
        let parts: Vec<Decided> = (0..ranges)
            .into_par_iter()
            .map(|r| decide(r * n / ranges..(r + 1) * n / ranges))
            .collect();
        let mut parts = parts.into_iter();
        let mut decided = parts.next().unwrap_or_default();
        for part in parts {
            decided.pairs.extend(part.pairs);
            decided.checked += part.checked;
            decided.visited += part.visited;
        }
        rows_span.finish();
        let csr = parent.child("csr");
        let graph = Self::from_decided(links, relation, &decided.pairs);
        csr.finish();
        (graph, decided.checked, decided.visited)
    }

    /// The conflicting pairs the links of `range` decide: each link's
    /// candidates are queued in one [`Candidates`] scratch, reused from link
    /// to link, and decided by [`ConflictRelation::conflicting_batch`].
    fn decide(
        links: &[Link],
        relation: ConflictRelation,
        bboxes: &[BoundingBox],
        classes: &LengthClasses,
        range: Range<usize>,
    ) -> Decided {
        let n = links.len();
        let mut decided = Decided::default();
        let mut candidates = Candidates::default();
        for i in range {
            let link = &links[i];
            let len = link.length();
            candidates.start(n);
            if !is_classed(len) {
                for j in (0..n).filter(|&j| is_classed(links[j].length()) || j > i) {
                    candidates.push(j);
                }
                decided.visited += candidates.len() as u64;
            } else {
                let scope = Scope::DecidedBy(i);
                decided.visited +=
                    classes.for_each_candidate(scope, len, &bboxes[i], bboxes, relation, |j| {
                        candidates.push(j)
                    }) as u64;
            }
            decided.checked += candidates.len() as u64;
            relation.conflicting_batch(
                link,
                &mut candidates,
                |j| &links[j],
                |j| decided.pairs.push((i as u32, j as u32)),
            );
        }
        decided
    }

    /// Assembles the CSR arrays from conflicting pairs, each listed once
    /// (those [`Self::decided`] decided, or all those the naive build
    /// found), by a counting transpose: count each link's degree, prefix-sum
    /// the counts into `offsets`, scatter every pair into both rows, then
    /// sort each (short) row.
    fn from_decided(links: &[Link], relation: ConflictRelation, pairs: &[(u32, u32)]) -> Self {
        let n = links.len();
        let mut offsets = vec![0usize; n + 1];
        for &(i, j) in pairs {
            offsets[i as usize + 1] += 1;
            offsets[j as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0; offsets[n]];
        for &(i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            neighbors[cursor[i]] = j;
            cursor[i] += 1;
            neighbors[cursor[j]] = i;
            cursor[j] += 1;
        }
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        ConflictGraph {
            links: links.to_vec(),
            relation,
            offsets,
            neighbors,
        }
    }

    /// Assembles a conflict graph from prebuilt CSR arrays.
    ///
    /// This is the materialisation hook for callers that *maintain* adjacency
    /// themselves (the incremental engine in `wagg-engine`): they can snapshot
    /// their current state into a regular [`ConflictGraph`] without re-running
    /// any geometry. The caller asserts that the arrays describe exactly the
    /// graph [`ConflictGraph::build`] would produce for `links` under
    /// `relation`: `offsets` must have length `links.len() + 1`, start at 0,
    /// be non-decreasing and end at `neighbors.len()`, and every row must be
    /// sorted ascending with in-range, non-self entries. Structural violations
    /// panic (debug assertions check row sortedness).
    pub fn from_parts(
        links: Vec<Link>,
        relation: ConflictRelation,
        offsets: Vec<usize>,
        neighbors: Vec<usize>,
    ) -> Self {
        assert_eq!(offsets.len(), links.len() + 1, "offsets must cover n + 1");
        assert_eq!(offsets.first(), Some(&0), "offsets must start at zero");
        assert_eq!(
            offsets.last(),
            Some(&neighbors.len()),
            "offsets must end at the neighbour count"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..links.len()).all(|v| {
            let row = &neighbors[offsets[v]..offsets[v + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&u| u < links.len() && u != v)
        }));
        ConflictGraph {
            links,
            relation,
            offsets,
            neighbors,
        }
    }

    /// The subgraph induced by `vertices` (strictly ascending indices into
    /// this graph), with **stable id remapping**: vertex `vertices[k]` becomes
    /// vertex `k` of the subgraph, its link is relabeled to id `k`, and
    /// `vertices` itself is the local → original id map. Rows are extracted by
    /// membership filtering of the CSR rows, so no geometry is re-run and the
    /// result equals `ConflictGraph::build` over the relabeled sub-links.
    ///
    /// This is the extraction hook of the sharded scheduler (`wagg-partition`):
    /// a shard builds one graph over its owned + ghost links, then schedules
    /// the owned-only restriction without rebuilding anything.
    ///
    /// # Panics
    ///
    /// Panics when `vertices` is not strictly ascending or contains an
    /// out-of-range index.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// use wagg_conflict::{ConflictGraph, ConflictRelation};
    ///
    /// let links = vec![
    ///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
    ///     Link::new(1, Point::new(1.5, 0.0), Point::new(2.5, 0.0)),
    ///     Link::new(2, Point::new(3.0, 0.0), Point::new(4.0, 0.0)),
    /// ];
    /// let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
    /// let sub = g.induced_subgraph(&[0, 2]);
    /// assert_eq!(sub.len(), 2);
    /// assert!(!sub.are_adjacent(0, 1)); // links 0 and 2 are independent
    /// ```
    pub fn induced_subgraph(&self, vertices: &[usize]) -> ConflictGraph {
        assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertices must be strictly ascending"
        );
        if let Some(&last) = vertices.last() {
            assert!(last < self.len(), "vertex {last} out of range");
        }
        let mut local_of = vec![usize::MAX; self.len()];
        for (local, &v) in vertices.iter().enumerate() {
            local_of[v] = local;
        }
        let links: Vec<Link> = vertices
            .iter()
            .enumerate()
            .map(|(local, &v)| {
                let mut link = self.links[v];
                link.id = local.into();
                link
            })
            .collect();
        let mut offsets = Vec::with_capacity(vertices.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        for &v in vertices {
            // The source row is ascending and the remap is monotone, so the
            // filtered row stays sorted.
            neighbors.extend(
                self.neighbors(v)
                    .iter()
                    .map(|&u| local_of[u])
                    .filter(|&u| u != usize::MAX),
            );
            offsets.push(neighbors.len());
        }
        ConflictGraph {
            links,
            relation: self.relation,
            offsets,
            neighbors,
        }
    }

    /// The links the graph was built over, in vertex order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The conflict relation the graph was built with.
    pub fn relation(&self) -> ConflictRelation {
        self.relation
    }

    /// Number of vertices (links).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Neighbours (conflicting links) of vertex `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree of the graph.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Total number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether vertices `u` and `v` are adjacent (binary search over `u`'s
    /// sorted CSR row).
    #[inline]
    pub fn are_adjacent(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether the given vertex subset is independent (pairwise non-adjacent).
    ///
    /// Allocation-free: each pair is a binary search over the smaller row.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// use wagg_conflict::{ConflictGraph, ConflictRelation};
    ///
    /// let links = vec![
    ///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
    ///     Link::new(1, Point::new(10.0, 0.0), Point::new(11.0, 0.0)),
    /// ];
    /// let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
    /// assert!(g.is_independent_set(&[0, 1]));
    /// ```
    pub fn is_independent_set(&self, vertices: &[usize]) -> bool {
        for (pos, &u) in vertices.iter().enumerate() {
            for &v in &vertices[pos + 1..] {
                if u == v || self.query_adjacent(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// [`ConflictGraph::are_adjacent`] steered to the smaller of the two rows.
    #[inline]
    fn query_adjacent(&self, u: usize, v: usize) -> bool {
        if self.degree(u) <= self.degree(v) {
            self.are_adjacent(u, v)
        } else {
            self.are_adjacent(v, u)
        }
    }

    /// The "longer neighbourhood" `N_i^+` of vertex `v`: neighbours whose links are at
    /// least as long as `v`'s link. The paper's coloring analysis rests on the fact
    /// that independent sets inside `N_i^+` have constant size (constant *inductive
    /// independence*).
    pub fn longer_neighbors(&self, v: usize) -> Vec<usize> {
        let len = self.links[v].length();
        self.neighbors(v)
            .iter()
            .copied()
            .filter(|&u| self.links[u].length() >= len)
            .collect()
    }

    /// A greedy estimate (lower bound) of the maximum independent set size within the
    /// longer neighbourhood of `v` — the *inductive independence* witness at `v`.
    ///
    /// The estimate processes the longer neighbours by decreasing length —
    /// ties broken by vertex index under `f64::total_cmp`, so the greedy order
    /// (and hence the estimate) is deterministic even among equal-length
    /// links — and keeps every vertex independent of those already kept. The
    /// paper shows the true value is `O(1)` for the graphs `G_f`; the
    /// experiment harness reports this estimate.
    pub fn inductive_independence_at(&self, v: usize) -> usize {
        let mut candidates = self.longer_neighbors(v);
        candidates.sort_unstable_by(|&a, &b| {
            self.links[b]
                .length()
                .total_cmp(&self.links[a].length())
                .then(a.cmp(&b))
        });
        let mut kept: Vec<usize> = Vec::new();
        for c in candidates {
            if kept.iter().all(|&k| !self.query_adjacent(c, k)) {
                kept.push(c);
            }
        }
        kept.len()
    }

    /// The maximum inductive-independence estimate over all vertices
    /// (evaluated across threads under the `parallel` feature).
    pub fn inductive_independence(&self) -> usize {
        (0..self.len())
            .into_par_iter()
            .map(|v| self.inductive_independence_at(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::rng::{seeded_rng, uniform_in};
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    fn chain(n: usize, gap: f64) -> Vec<Link> {
        // n unit links, consecutive links separated by `gap`.
        (0..n)
            .map(|i| {
                let start = i as f64 * (1.0 + gap);
                line_link(i, start, start + 1.0)
            })
            .collect()
    }

    #[test]
    fn empty_graph() {
        let g = ConflictGraph::build(&[], ConflictRelation::unit_constant());
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.inductive_independence(), 0);
        assert!(g.is_independent_set(&[]));
    }

    #[test]
    fn tight_chain_is_a_path_graph() {
        // Gap 0.5 < 1: consecutive links conflict, non-consecutive (distance >= 2) do not.
        let links = chain(5, 0.5);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        assert_eq!(g.edge_count(), 4);
        for i in 0..4 {
            assert!(g.are_adjacent(i, i + 1));
        }
        assert!(!g.are_adjacent(0, 2));
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn sparse_chain_has_no_conflicts() {
        let links = chain(6, 2.0);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_independent_set(&[0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn independent_set_detection() {
        let links = chain(4, 0.5);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        assert!(g.is_independent_set(&[0, 2]));
        assert!(g.is_independent_set(&[1, 3]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(!g.is_independent_set(&[0, 0]));
    }

    #[test]
    fn stronger_relation_gives_denser_graph() {
        let links = chain(6, 1.5);
        let g1 = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let g3 = ConflictGraph::build(&links, ConflictRelation::constant(3.0));
        assert!(g3.edge_count() > g1.edge_count());
    }

    #[test]
    fn longer_neighbors_filter_by_length() {
        let links = vec![
            line_link(0, 0.0, 1.0), // short
            line_link(1, 1.5, 4.5), // long, close to 0
            line_link(2, 0.0, 0.5), // shorter than 0, overlapping region
        ];
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let longer_of_0 = g.longer_neighbors(0);
        assert!(longer_of_0.contains(&1));
        assert!(!longer_of_0.contains(&2));
    }

    #[test]
    fn inductive_independence_small_for_g1_on_mst_like_chain() {
        let links = chain(12, 0.5);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        assert!(g.inductive_independence() <= 2);
    }

    #[test]
    fn degrees_sum_to_twice_edges() {
        let links = chain(8, 0.8);
        let g = ConflictGraph::build(&links, ConflictRelation::oblivious_default());
        let degree_sum: usize = (0..g.len()).map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn grid_build_equals_naive_on_chains_past_the_cutoff() {
        // 200 links forces the grid path; a tight chain has plenty of edges.
        for relation in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
            ConflictRelation::arbitrary_default(),
        ] {
            let links = chain(200, 0.4);
            let grid = ConflictGraph::build(&links, relation);
            let naive = ConflictGraph::build_naive(&links, relation);
            assert_eq!(grid, naive, "grid/naive mismatch under {relation}");
        }
    }

    #[test]
    fn grid_build_handles_degenerate_and_diverse_lengths() {
        // Mixed: a zero-length link, unit links, and exponentially longer
        // links, interleaved along a line.
        let mut links: Vec<Link> = Vec::new();
        for i in 0..70 {
            let x = i as f64 * 3.0;
            links.push(line_link(2 * i, x, x + 1.0));
            let growth = 1.0 + (i % 7) as f64 * 4.0;
            links.push(line_link(2 * i + 1, x + 1.2, x + 1.2 + growth));
        }
        links.push(line_link(1000, 5.0, 5.0)); // degenerate
        let relation = ConflictRelation::oblivious_default();
        let grid = ConflictGraph::build(&links, relation);
        let naive = ConflictGraph::build_naive(&links, relation);
        assert_eq!(grid, naive);
        // The degenerate link conflicts with everything.
        assert_eq!(grid.degree(links.len() - 1), links.len() - 1);
    }

    #[test]
    fn grid_build_survives_lengths_whose_ratio_overflows() {
        // 1e154 / 1e-160 overflows f64: the longest link's class key comes
        // from the logarithms, and the grid build still equals the naive one.
        let mut links = chain(80, 0.5);
        links.push(Link::new(80, Point::new(0.0, 5.0), Point::new(1e-160, 5.0)));
        links.push(Link::new(81, Point::new(0.0, 9.0), Point::new(1e154, 9.0)));
        assert!((links[81].length() / links[80].length()).is_infinite());
        for relation in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
            ConflictRelation::arbitrary_default(),
        ] {
            let grid = ConflictGraph::build(&links, relation);
            assert_eq!(grid, ConflictGraph::build_naive(&links, relation));
        }
    }

    #[test]
    fn grid_build_matches_naive_when_a_degenerate_link_shares_an_id() {
        // 80 unit links past the cutoff, plus a zero-length link reusing id 3.
        let mut links = chain(80, 0.5);
        links.push(Link::new(3, Point::on_line(20.0), Point::on_line(20.0)));
        let degenerate = links.len() - 1;
        let relation = ConflictRelation::unit_constant();
        let grid = ConflictGraph::build(&links, relation);
        assert_eq!(grid, ConflictGraph::build_naive(&links, relation));
        assert!(!grid.are_adjacent(3, degenerate));
        assert!(!grid.are_adjacent(degenerate, 3));
        assert_eq!(grid.degree(degenerate), links.len() - 2);
        let degree_sum: usize = (0..grid.len()).map(|v| grid.degree(v)).sum();
        assert_eq!(degree_sum, 2 * grid.edge_count());
    }

    #[test]
    fn box_test_keeps_a_pair_whose_distance_rounds_onto_the_reach() {
        // Two unit links whose gap is (0.5916…, 0.8062…): its square rounds
        // to 1 + 2^-52, above reach² = 1, while the distance rounds to
        // exactly 1 = l_min · f(1), a conflict. Only the reach's margins keep
        // the pair; a unit chain far away takes the build past the cutoff.
        let mut links = vec![
            Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
            Link::new(
                1,
                Point::new(1.5916082368562336, 0.8062255851086957),
                Point::new(2.1832164737124673, 1.6124511702173914),
            ),
        ];
        assert_eq!(links[1].length(), 1.0);
        links.extend(
            chain(70, 0.5)
                .into_iter()
                .map(|l| line_link(2 + l.id.0, l.sender.x + 10.0, l.receiver.x + 10.0)),
        );
        let relation = ConflictRelation::unit_constant();
        let grid = ConflictGraph::build(&links, relation);
        assert!(grid.are_adjacent(0, 1));
        assert_eq!(grid, ConflictGraph::build_naive(&links, relation));
    }

    /// The build's `conflict.pairs_checked` and `conflict.candidates_visited`
    /// counts, and its edge count.
    fn pairs_checked(links: &[Link], relation: ConflictRelation) -> (u64, u64, usize) {
        let rec = Recorder::new();
        let graph = ConflictGraph::build_traced(links, relation, &rec);
        let metrics = rec.metrics();
        let count = |name| metrics.counter(name).expect("the build adds its count");
        let (checked, visited) = (count(PAIRS_CHECKED), count(CANDIDATES_VISITED));
        assert!(
            checked <= visited,
            "{checked} checks of {visited} candidates"
        );
        (checked, visited, graph.edge_count())
    }

    /// `clusters` square clusters of `per_cluster` sensors of half-width 10,
    /// one per cell of a square grid over a `side` × `side` square, in the
    /// cell's middle half: the shape of the benchmark's 10 000-sensor
    /// service trees.
    fn clustered_on_grid(clusters: usize, per_cluster: usize, side: f64, seed: u64) -> Vec<Link> {
        let mut rng = seeded_rng(seed);
        let mut uniform = |lo, hi| uniform_in(&mut rng, lo, hi);
        let cols = (clusters as f64).sqrt().ceil() as usize;
        let cell = side / cols as f64;
        let mut points = Vec::with_capacity(clusters * per_cluster);
        for c in 0..clusters {
            let cx = (c % cols) as f64 * cell + uniform(0.25 * cell, 0.75 * cell);
            let cy = (c / cols) as f64 * cell + uniform(0.25 * cell, 0.75 * cell);
            for _ in 0..per_cluster {
                points.push(Point::new(
                    cx + uniform(-10.0, 10.0),
                    cy + uniform(-10.0, 10.0),
                ));
            }
        }
        wagg_instances::Instance::new("clustered on a grid", points, 0)
            .mst_links()
            .expect("seeded sensors are distinct")
    }

    #[test]
    fn exact_checks_stay_within_twice_the_edges_on_clustered_msts() {
        // The gate's static-path instance and two more seeds, and two
        // 10 000-sensor trees shaped like the benchmark's service trees,
        // under the relations of uniform, oblivious and global power.
        let mut instances: Vec<(String, Vec<Link>)> = [1, 2, 42]
            .into_iter()
            .map(|seed| {
                let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, seed)
                    .mst_links()
                    .expect("clustered sensors are distinct");
                (format!("50 x 20, seed {seed}"), links)
            })
            .collect();
        for seed in [1, 2] {
            let links = clustered_on_grid(500, 20, 12_650.0, seed);
            instances.push((format!("500 x 20 on a grid, seed {seed}"), links));
        }
        for (name, links) in &instances {
            for relation in [
                ConflictRelation::constant(2.0),
                ConflictRelation::polynomial(2.0, 0.5),
                ConflictRelation::log_shaped(2.0, 3.0),
            ] {
                let (checked, _, edges) = pairs_checked(links, relation);
                assert!(
                    checked <= 2 * edges as u64,
                    "{name}, {relation}: {checked} exact checks for {edges} edges"
                );
            }
        }
    }

    #[test]
    fn exact_work_is_pinned_on_the_kernel_benchmarks_clustered_mst() {
        // `(conflict.pairs_checked, conflict.candidates_visited, edges)` of
        // the kernel bench's clustered 1 000-sensor MST: how the candidates
        // are decided may change, which candidates reach the exact
        // predicate may not.
        let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, 42)
            .mst_links()
            .expect("clustered sensors are distinct");
        for (relation, pinned) in [
            (ConflictRelation::constant(2.0), (4_565, 17_888, 3_374)),
            (
                ConflictRelation::polynomial(2.0, 0.5),
                (7_525, 18_727, 5_646),
            ),
            (
                ConflictRelation::log_shaped(2.0, 3.0),
                (10_333, 22_291, 6_482),
            ),
        ] {
            assert_eq!(pairs_checked(&links, relation), pinned, "{relation}");
        }
    }

    #[test]
    fn exact_checks_decide_every_candidate_pair_once() {
        // 80 horizontal unit links stacked inside a unit square: every pair
        // is a candidate (and conflicts), so each of the n(n-1)/2 pairs is
        // checked exactly once.
        let n = 80;
        let links: Vec<Link> = (0..n)
            .map(|i| {
                let y = i as f64 / n as f64;
                Link::new(i, Point::new(0.0, y), Point::new(1.0, y))
            })
            .collect();
        let relation = ConflictRelation::unit_constant();
        let (checked, _, edges) = pairs_checked(&links, relation);
        assert_eq!(checked, (n * (n - 1) / 2) as u64);
        assert_eq!(edges, n * (n - 1) / 2);
        // Below the grid cutoff every pair is a candidate and is checked.
        let few = &links[..GRID_BUILD_CUTOFF - 1];
        let pairs = (few.len() * (few.len() - 1) / 2) as u64;
        assert_eq!(
            pairs_checked(few, relation),
            (pairs, pairs, few.len() * (few.len() - 1) / 2)
        );
    }

    #[test]
    fn induced_subgraph_matches_a_rebuild_over_the_sublinks() {
        let links = chain(120, 0.4);
        for relation in [
            ConflictRelation::unit_constant(),
            ConflictRelation::oblivious_default(),
        ] {
            let g = ConflictGraph::build(&links, relation);
            // Every third link, plus a boundary-ish tail.
            let vertices: Vec<usize> = (0..links.len()).filter(|v| v % 3 != 1).collect();
            let sub = g.induced_subgraph(&vertices);
            let relabeled: Vec<Link> = vertices
                .iter()
                .enumerate()
                .map(|(local, &v)| {
                    let mut l = links[v];
                    l.id = local.into();
                    l
                })
                .collect();
            let rebuilt = ConflictGraph::build(&relabeled, relation);
            assert_eq!(sub, rebuilt, "subgraph mismatch under {relation}");
        }
    }

    #[test]
    fn induced_subgraph_of_everything_is_the_graph_itself() {
        let links = chain(30, 0.6);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let all: Vec<usize> = (0..links.len()).collect();
        assert_eq!(g.induced_subgraph(&all), g);
        let empty = g.induced_subgraph(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn induced_subgraph_rejects_unsorted_vertices() {
        let links = chain(5, 0.5);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        let _ = g.induced_subgraph(&[2, 1]);
    }

    #[test]
    fn neighbors_rows_are_sorted() {
        let links = chain(100, 0.3);
        let g = ConflictGraph::build(&links, ConflictRelation::unit_constant());
        for v in 0..g.len() {
            assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }
}
