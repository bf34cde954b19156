//! The conflict graph data structure.
//!
//! # Construction and storage
//!
//! [`ConflictGraph::build`] no longer does O(n²) pairwise checks: links are
//! bucketed into power-of-two **length classes**, each class is indexed by a
//! [`wagg_geometry::grid::UniformGrid`] keyed to the class's maximum link
//! length, and each link only tests candidates inside its per-class **conflict
//! radius** — the largest link-to-link distance at which the relation `f`
//! could still report a conflict given the class's length bounds. Since every
//! `f` in the family is non-decreasing, the radius
//! `min(l_i, hi_C) · f(max(l_i, hi_C) / min(l_i, lo_C))` is a sound upper
//! bound, so the grid prunes candidates without ever dropping a true edge (the
//! property tests check edge-for-edge equality against
//! [`ConflictGraph::build_naive`]).
//!
//! Adjacency is stored in **CSR form** (compressed sparse rows): one flat
//! `offsets` array of length `n + 1` and one flat `neighbors` array holding
//! every row's sorted neighbour indices back to back. Row `v` is
//! `neighbors[offsets[v]..offsets[v + 1]]`. This makes [`ConflictGraph::neighbors`]
//! a slice borrow, [`ConflictGraph::are_adjacent`] a binary search, and the
//! independence checks allocation-free — and it halves the pointer-chasing of
//! the previous `Vec<Vec<usize>>` layout.
//!
//! With the (default-on) `parallel` feature the per-vertex candidate rows are
//! computed across threads; rows are deterministic (sorted), so parallel and
//! serial builds produce identical graphs.

use crate::relation::ConflictRelation;
use serde::{Deserialize, Serialize};
use wagg_geometry::grid::UniformGrid;
use wagg_geometry::BoundingBox;
use wagg_obs::{Recorder, Span};
use wagg_sinr::Link;

#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// Below this size the all-pairs build is faster than building class grids.
const GRID_BUILD_CUTOFF: usize = 64;

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

/// One power-of-two length class with its spatial index.
struct LengthClass {
    /// Smallest member length (exact, not the nominal class bound).
    lo: f64,
    /// Largest member length (exact).
    hi: f64,
    /// Vertex indices of the members, in input order.
    members: Vec<u32>,
    /// Grid over the members' segment bounding boxes (local ids).
    grid: UniformGrid,
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
    /// `conflict` span with `bucket` / `grids` / `rows` / `csr` children on
    /// `rec` (see `wagg-obs`). With a disabled recorder, this is exactly
    /// `build`.
    pub fn build_traced(links: &[Link], relation: ConflictRelation, rec: &Recorder) -> Self {
        let root = rec.span("conflict");
        if links.len() < GRID_BUILD_CUTOFF {
            return Self::build_naive(links, relation);
        }
        let rows = Self::grid_rows(links, relation, &root);
        let csr = root.child("csr");
        let graph = Self::from_rows(links, relation, rows);
        csr.finish();
        graph
    }

    /// Builds the conflict graph by checking all `O(n²)` pairs.
    ///
    /// Kept as the reference implementation: the property tests assert the
    /// grid build is edge-identical, and the `kernel` benchmark measures the
    /// speedup of [`ConflictGraph::build`] against it.
    pub fn build_naive(links: &[Link], relation: ConflictRelation) -> Self {
        let n = links.len();
        let mut rows = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if relation.conflicting(&links[i], &links[j]) {
                    rows[i].push(j);
                    rows[j].push(i);
                }
            }
        }
        Self::from_rows(links, relation, rows)
    }

    /// Computes every vertex's (sorted, deduplicated) neighbour row via the
    /// per-length-class grids. `parent` scopes the phase spans (`bucket`,
    /// `grids`, `rows`).
    fn grid_rows(links: &[Link], relation: ConflictRelation, parent: &Span) -> Vec<Vec<usize>> {
        let bucket_span = parent.child("bucket");
        let n = links.len();
        let bboxes: Vec<BoundingBox> = links
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();

        // Degenerate (zero-length) links conflict with every other link under
        // every relation; keep them out of the classes and append them to all
        // rows instead.
        let degenerate: Vec<usize> = (0..n).filter(|&i| links[i].length() <= 0.0).collect();
        let min_len = links
            .iter()
            .map(|l| l.length())
            .filter(|&l| l > 0.0)
            .fold(f64::INFINITY, f64::min);

        // Bucket by floor(log2(len / min_len)); the bucket key only steers
        // efficiency — radii below use each class's exact min/max lengths.
        // Keys are non-negative (min_len is the minimum) and bounded by the
        // f64 exponent range (~2100), so a counting sort sizes every class in
        // one pass and scatters members stably in a second, replacing the
        // per-insert map lookups.
        let mut classes_members: Vec<Vec<u32>> = Vec::new();
        if min_len.is_finite() {
            let key_of = |len: f64| (len / min_len).log2().floor() as usize;
            let mut counts: Vec<u32> = Vec::new();
            for link in links {
                let len = link.length();
                if len <= 0.0 {
                    continue;
                }
                let key = key_of(len);
                if key >= counts.len() {
                    counts.resize(key + 1, 0);
                }
                counts[key] += 1;
            }
            // Dense class index per occupied key, in ascending key order.
            let mut class_of = vec![usize::MAX; counts.len()];
            for (key, &count) in counts.iter().enumerate() {
                if count > 0 {
                    class_of[key] = classes_members.len();
                    classes_members.push(Vec::with_capacity(count as usize));
                }
            }
            for (i, link) in links.iter().enumerate() {
                let len = link.length();
                if len <= 0.0 {
                    continue;
                }
                classes_members[class_of[key_of(len)]].push(i as u32);
            }
        }
        bucket_span.finish();
        let grids_span = parent.child("grids");
        let classes: Vec<LengthClass> = classes_members
            .into_iter()
            .map(|members| {
                let lengths = members.iter().map(|&m| links[m as usize].length());
                let lo = lengths.clone().fold(f64::INFINITY, f64::min);
                let hi = lengths.fold(0.0f64, f64::max);
                let member_boxes: Vec<BoundingBox> =
                    members.iter().map(|&m| bboxes[m as usize]).collect();
                let grid = UniformGrid::build(hi.max(min_len), &member_boxes);
                LengthClass {
                    lo,
                    hi,
                    members,
                    grid,
                }
            })
            .collect();
        grids_span.finish();

        let rows_span = parent.child("rows");
        let row_of = |i: usize| -> Vec<usize> {
            let link = &links[i];
            let mut row: Vec<usize> = Vec::new();
            if link.length() <= 0.0 {
                // Degenerate vertex: conflicts with every distinct link.
                row.extend((0..n).filter(|&j| relation.conflicting(link, &links[j])));
                return row;
            }
            let li = link.length();
            for class in &classes {
                // Largest distance at which a member of this class could
                // still conflict with `link` (sound because f is
                // non-decreasing and lo/hi are the exact member bounds).
                let l_min = li.min(class.hi);
                let ratio = li.max(class.hi) / li.min(class.lo);
                let radius = l_min * relation.f(ratio);
                let mut push = |j: usize| {
                    if j != i && relation.conflicting(link, &links[j]) {
                        row.push(j);
                    }
                };
                if radius.is_finite() {
                    class.grid.for_each_candidate(&bboxes[i], radius, |local| {
                        push(class.members[local] as usize);
                    });
                } else {
                    for &m in &class.members {
                        push(m as usize);
                    }
                }
            }
            row.extend(degenerate.iter().copied().filter(|&j| j != i));
            row.sort_unstable();
            row.dedup();
            row
        };

        #[cfg(feature = "parallel")]
        let rows: Vec<Vec<usize>> = (0..n).into_par_iter().map(row_of).collect();
        #[cfg(not(feature = "parallel"))]
        let rows: Vec<Vec<usize>> = (0..n).map(row_of).collect();
        rows_span.finish();
        rows
    }

    /// Assembles the CSR arrays from per-vertex rows (each already sorted
    /// ascending — the naive build produces them sorted by construction).
    fn from_rows(links: &[Link], relation: ConflictRelation, rows: Vec<Vec<usize>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        let mut total = 0;
        for row in &rows {
            total += row.len();
            offsets.push(total);
        }
        let mut neighbors = Vec::with_capacity(total);
        for row in rows {
            neighbors.extend(row);
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

    /// The raw CSR arrays `(offsets, neighbors)` backing the adjacency — the
    /// counterpart of [`ConflictGraph::from_parts`] for callers seeding an
    /// incremental structure from a bulk build.
    pub fn csr(&self) -> (&[usize], &[usize]) {
        (&self.offsets, &self.neighbors)
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
        #[cfg(feature = "parallel")]
        {
            (0..self.len())
                .into_par_iter()
                .map(|v| self.inductive_independence_at(v))
                .max()
                .unwrap_or(0)
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..self.len())
                .map(|v| self.inductive_independence_at(v))
                .max()
                .unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
