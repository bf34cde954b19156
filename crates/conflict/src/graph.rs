//! The conflict graph data structure.
//!
//! # Construction
//!
//! [`ConflictGraph::build`] buckets the links into power-of-two **length
//! classes** and indexes each class with a
//! [`wagg_geometry::grid::UniformGrid`] over its members' segment boxes.
//!
//! **Each unordered pair is decided once, from its shorter side.** A link in
//! class `c` queries its own class, keeping partners with a higher index, and
//! every longer class, never a shorter one: the short link's small window
//! meets the sparse grid of the long class, instead of the long link's wide
//! window sweeping the dense grids of the short classes. For class `C` with
//! exact member lengths `lo..=hi`, a member `j` conflicting with link `i` has
//! `d(i, j) ≤ l_min · f(l_max / l_min) ≤ L · f(R)`, with `L = min(l_i, hi)`
//! and `R = max(l_i, hi) / min(l_i, lo)`, because `f` is non-decreasing. So
//! each (link, class) gets one
//! `reach = L · f(R) · (1 + REACH_REL_MARGIN) + slack`, with
//! `slack = REACH_ABS_MARGIN · max |coordinate|` over the input. It sets the
//! grid window and a box-gap test, `gap(box_i, box_j)² ≤ reach²`; a class
//! whose whole extent fails the test is skipped. A member stored in several
//! cells is visited once per cell, so the surviving candidates are sorted
//! and deduplicated before [`ConflictRelation::conflicting`] runs once on
//! each.
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
//! absolute `slack` (`1e-12` of the largest `|coordinate|`, thousands of
//! those ulps) covers that, and the rounding of the grid window's edges.
//! `tests/grid_vs_naive.rs` checks edge-for-edge equality with
//! [`ConflictGraph::build_naive`], on inputs up to `1e12` from the origin too.
//!
//! **Zero-length links** conflict with every link of another id. They join
//! no class: a zero-length link decides its pairs with every classed link and
//! every later zero-length link through `conflicting`, which checks ids.
//!
//! # Storage
//!
//! Adjacency is stored in **CSR form** (compressed sparse rows): one flat
//! `offsets` array of length `n + 1` and one flat `neighbors` array holding
//! every row's sorted neighbour indices back to back. Row `v` is
//! `neighbors[offsets[v]..offsets[v + 1]]`. This makes [`ConflictGraph::neighbors`]
//! a slice borrow, [`ConflictGraph::are_adjacent`] a binary search, and the
//! independence checks allocation-free. A counting transpose mirrors each
//! decided pair into both rows: count degrees, prefix-sum them into
//! `offsets`, scatter every pair into both rows, sort each (short) row.
//!
//! With the (default-on) `parallel` feature the per-link decisions run
//! across threads and the transpose serially; both builds produce identical
//! graphs.

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

/// Relative margin on a (link, class) reach, for relative rounding (see the
/// [module docs](self)).
const REACH_REL_MARGIN: f64 = 1e-9;

/// Absolute margin on a reach per unit of the input's largest `|coordinate|`,
/// for rounding at the coordinates' magnitude (see the [module docs](self)).
const REACH_ABS_MARGIN: f64 = 1e-12;

/// The class index of a zero-length link, which joins no class.
const NO_CLASS: u32 = u32::MAX;

/// The recorder counter of exact predicate calls, one `add` per build.
const PAIRS_CHECKED: &str = "conflict.pairs_checked";

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
    /// Union of the members' segment boxes.
    extent: BoundingBox,
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
    /// `rec` (see `wagg-obs`), and adds the number of exact predicate calls
    /// to its `conflict.pairs_checked` counter. With a disabled recorder,
    /// this is exactly `build`.
    pub fn build_traced(links: &[Link], relation: ConflictRelation, rec: &Recorder) -> Self {
        let root = rec.span("conflict");
        let n = links.len();
        if n < GRID_BUILD_CUTOFF {
            rec.add(PAIRS_CHECKED, (n * n.saturating_sub(1) / 2) as u64);
            return Self::build_naive(links, relation);
        }
        let (partners, checked) = Self::decide_pairs(links, relation, &root);
        rec.add(PAIRS_CHECKED, checked);
        let csr = root.child("csr");
        let graph = Self::from_decided(links, relation, &partners);
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

    /// Decides every unordered pair once, from its shorter side (see the
    /// [module docs](self)). Returns, per link, the ascending partners it
    /// conflicts with among the pairs decided from its side, and the number
    /// of exact predicate calls. `parent` scopes the `bucket` / `grids` /
    /// `rows` spans.
    fn decide_pairs(
        links: &[Link],
        relation: ConflictRelation,
        parent: &Span,
    ) -> (Vec<Vec<u32>>, u64) {
        let bucket_span = parent.child("bucket");
        let n = links.len();
        let boxes: Vec<BoundingBox> = links
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();
        let max_coordinate = boxes.iter().fold(0.0f64, |m, b| {
            m.max(b.min_x.abs())
                .max(b.min_y.abs())
                .max(b.max_x.abs())
                .max(b.max_y.abs())
        });
        let slack = REACH_ABS_MARGIN * max_coordinate;
        let min_len = links
            .iter()
            .map(|l| l.length())
            .filter(|&l| l > 0.0)
            .fold(f64::INFINITY, f64::min);

        // Bucket by floor(log2(len / min_len)); the bucket key only steers
        // efficiency — reaches below use each class's exact min/max lengths.
        // Keys are non-negative (min_len is the minimum) and bounded by the
        // f64 exponent range (~2100), so a counting pass sizes every class
        // and a second pass maps keys to dense class indices (ascending
        // length) and scatters the members stably.
        let mut class_of = vec![NO_CLASS; n];
        let mut classes_members: Vec<Vec<u32>> = Vec::new();
        if min_len.is_finite() {
            let mut counts: Vec<u32> = Vec::new();
            for (i, link) in links.iter().enumerate() {
                let len = link.length();
                if len <= 0.0 {
                    continue;
                }
                let key = (len / min_len).log2().floor() as usize;
                if key >= counts.len() {
                    counts.resize(key + 1, 0);
                }
                counts[key] += 1;
                class_of[i] = key as u32;
            }
            let mut dense = vec![NO_CLASS; counts.len()];
            for (key, &count) in counts.iter().enumerate() {
                if count > 0 {
                    dense[key] = classes_members.len() as u32;
                    classes_members.push(Vec::with_capacity(count as usize));
                }
            }
            for (i, class) in class_of.iter_mut().enumerate() {
                if *class != NO_CLASS {
                    *class = dense[*class as usize];
                    classes_members[*class as usize].push(i as u32);
                }
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
                    members.iter().map(|&m| boxes[m as usize]).collect();
                let extent = member_boxes[1..]
                    .iter()
                    .fold(member_boxes[0], |e, b| BoundingBox {
                        min_x: e.min_x.min(b.min_x),
                        min_y: e.min_y.min(b.min_y),
                        max_x: e.max_x.max(b.max_x),
                        max_y: e.max_y.max(b.max_y),
                    });
                let grid = UniformGrid::build(hi.max(min_len), &member_boxes);
                LengthClass {
                    lo,
                    hi,
                    members,
                    extent,
                    grid,
                }
            })
            .collect();
        grids_span.finish();

        let rows_span = parent.child("rows");
        let decide = |i: usize| -> (u64, Vec<u32>) {
            let link = &links[i];
            let own = class_of[i];
            let mut partners: Vec<u32> = Vec::new();
            if own == NO_CLASS {
                partners.extend(
                    (0..n)
                        .filter(|&j| class_of[j] != NO_CLASS || j > i)
                        .map(|j| j as u32),
                );
            } else {
                let li = link.length();
                let bbox = &boxes[i];
                for (c, class) in classes.iter().enumerate().skip(own as usize) {
                    let same_class = c == own as usize;
                    let decided_here = |j: u32| !same_class || j as usize > i;
                    // No conflicting member lies farther than the reach
                    // (see the module docs for the bound and its margins).
                    let l_min = li.min(class.hi);
                    let ratio = li.max(class.hi) / li.min(class.lo);
                    let reach = l_min * relation.f(ratio) * (1.0 + REACH_REL_MARGIN) + slack;
                    if !reach.is_finite() {
                        partners.extend(class.members.iter().copied().filter(|&j| decided_here(j)));
                        continue;
                    }
                    let reach_sq = reach * reach;
                    if gap_sq(bbox, &class.extent) > reach_sq {
                        continue;
                    }
                    class.grid.for_each_candidate(bbox, reach, |local| {
                        let j = class.members[local];
                        if decided_here(j) && gap_sq(bbox, &boxes[j as usize]) <= reach_sq {
                            partners.push(j);
                        }
                    });
                }
            }
            partners.sort_unstable();
            partners.dedup();
            let checked = partners.len() as u64;
            partners.retain(|&j| relation.conflicting(link, &links[j as usize]));
            (checked, partners)
        };

        #[cfg(feature = "parallel")]
        let decided: Vec<(u64, Vec<u32>)> = (0..n).into_par_iter().map(decide).collect();
        #[cfg(not(feature = "parallel"))]
        let decided: Vec<(u64, Vec<u32>)> = (0..n).map(decide).collect();
        rows_span.finish();
        let checked = decided.iter().map(|(calls, _)| calls).sum();
        (decided.into_iter().map(|(_, row)| row).collect(), checked)
    }

    /// Assembles the CSR arrays from the pairs [`Self::decide_pairs`]
    /// decided, by a counting transpose: count each link's degree, prefix-sum
    /// the counts into `offsets`, scatter every pair into both rows, then
    /// sort each (short) row.
    fn from_decided(links: &[Link], relation: ConflictRelation, partners: &[Vec<u32>]) -> Self {
        let n = links.len();
        let mut offsets = vec![0usize; n + 1];
        for (i, row) in partners.iter().enumerate() {
            offsets[i + 1] += row.len();
            for &j in row {
                offsets[j as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0; offsets[n]];
        for (i, row) in partners.iter().enumerate() {
            for &j in row {
                let j = j as usize;
                neighbors[cursor[i]] = j;
                cursor[i] += 1;
                neighbors[cursor[j]] = i;
                cursor[j] += 1;
            }
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

    /// Assembles the CSR arrays from the naive build's per-vertex rows (each
    /// sorted ascending by construction).
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

/// Squared gap between two boxes (zero when they overlap).
#[inline]
fn gap_sq(a: &BoundingBox, b: &BoundingBox) -> f64 {
    let dx = (a.min_x - b.max_x).max(b.min_x - a.max_x).max(0.0);
    let dy = (a.min_y - b.max_y).max(b.min_y - a.max_y).max(0.0);
    dx * dx + dy * dy
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

    fn pairs_checked(links: &[Link], relation: ConflictRelation) -> (u64, usize) {
        let rec = Recorder::new();
        let graph = ConflictGraph::build_traced(links, relation, &rec);
        let checked = rec
            .metrics()
            .counter("conflict.pairs_checked")
            .expect("the build adds its count");
        (checked, graph.edge_count())
    }

    #[test]
    fn exact_checks_stay_within_twice_the_edges_on_clustered_msts() {
        // The gate's static-path instance and two more seeds, under the
        // relations of uniform, oblivious and global power.
        for seed in [1, 2, 42] {
            let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, seed)
                .mst_links()
                .expect("clustered sensors are distinct");
            for relation in [
                ConflictRelation::constant(2.0),
                ConflictRelation::polynomial(2.0, 0.5),
                ConflictRelation::log_shaped(2.0, 3.0),
            ] {
                let (checked, edges) = pairs_checked(&links, relation);
                assert!(
                    checked <= 2 * edges as u64,
                    "seed {seed}, {relation}: {checked} exact checks for {edges} edges"
                );
            }
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
        let (checked, edges) = pairs_checked(&links, relation);
        assert_eq!(checked, (n * (n - 1) / 2) as u64);
        assert_eq!(edges, n * (n - 1) / 2);
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
