//! Conflict graphs over link sets and the coloring algorithms that schedule them.
//!
//! The paper's scheduling approach (Sec. 3 and Appendix A) is:
//!
//! 1. form a *conflict graph* `G_f(L)` over the links of the aggregation tree,
//!    where two links conflict iff they are "too close relative to their lengths"
//!    — formally, links `i, j` are `f`-independent iff
//!    `d(i, j) / l_min > f(l_max / l_min)` with `l_min = min(l_i, l_j)`,
//!    `l_max = max(l_i, l_j)`;
//! 2. color the graph greedily, processing links in non-increasing order of
//!    length and giving each link the first color unused by its already-colored
//!    neighbours;
//! 3. use the color classes as the slots of a TDMA schedule.
//!
//! Three members of the family matter:
//!
//! * [`ConflictRelation::Constant`] — `f(x) ≡ γ`, the graph `G_γ`; for the MST the
//!   paper proves `χ(G_1(MST)) = O(1)` (Theorem 2),
//! * [`ConflictRelation::Polynomial`] — `f(x) = γ·x^δ`, the graph `G^δ_γ` whose
//!   independent sets are feasible under an oblivious power scheme; its chromatic
//!   number is `O(log log Δ)` times that of `G_γ'`,
//! * [`ConflictRelation::LogShaped`] — `f(x) = γ·max{1, log^{2/(α−2)} x}`, the graph
//!   `G_{γ log}` whose independent sets are feasible under global power control; its
//!   chromatic number is `O(log* Δ)` times that of `G_γ'`.
//!
//! # Performance
//!
//! [`ConflictGraph::build`] constructs the graph through the length-class
//! index ([`classes`]: one cell grid per power-of-two length class, the same
//! index `wagg-engine` keeps current under churn) instead of checking all
//! `O(n²)` pairs (see the [`graph`] module docs). Each unordered pair is
//! decided once, from its shorter side (the lower length class; within a
//! class, the lower index): a link queries only its own class and the
//! longer ones, a box-gap test against one reach per (link, class) rejects
//! far candidates, and the survivors are deduplicated before the exact
//! predicate runs. On the paper's clustered 1 000-sensor MSTs that is
//! 1.1–1.4 exact checks per edge. Adjacency is stored in a flat CSR layout
//! (`offsets` + sorted `neighbors` arrays), filled by a counting transpose
//! of the decided pairs: neighbour rows are slice borrows, adjacency queries
//! are binary searches, and independence checks allocate nothing. With the
//! default-on `parallel` feature the per-link decisions run across threads.
//! [`ConflictGraph::build_naive`] retains the all-pairs reference
//! construction; property tests assert the two are edge-identical, and the
//! `kernel` benchmark in `wagg-bench` tracks the speedup (three orders of
//! magnitude at 50k uniform-square links).
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_sinr::Link;
//! use wagg_conflict::{ConflictGraph, ConflictRelation, greedy_color};
//!
//! let links = vec![
//!     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
//!     Link::new(1, Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
//!     Link::new(2, Point::new(10.0, 0.0), Point::new(11.0, 0.0)),
//! ];
//! let graph = ConflictGraph::build(&links, ConflictRelation::unit_constant());
//! let coloring = greedy_color(&graph);
//! // Links 0 and 1 share an endpoint, so they need different slots; link 2 is free.
//! assert_eq!(coloring.num_colors(), 2);
//! assert!(coloring.is_proper(&graph));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classes;
pub mod coloring;
pub mod graph;
pub mod relation;

pub use classes::{class_key, is_classed, LengthClasses};
pub use coloring::{greedy_color, greedy_color_with_order, Coloring};
pub use graph::ConflictGraph;
pub use relation::ConflictRelation;
