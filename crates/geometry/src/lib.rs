//! Planar geometry and numeric utilities underlying the wireless aggregation library.
//!
//! This crate is the bottom layer of the workspace reproducing
//! *"Wireless Aggregation at Nearly Constant Rate"* (Halldórsson & Tonoyan, ICDCS 2018).
//! It provides:
//!
//! * [`Point`] — points in the Euclidean plane with exact-enough `f64` arithmetic,
//! * [`BoundingBox`] — axis-aligned bounding boxes of pointsets,
//! * [`grid::CellGrid`] — a uniform spatial hash over bounding boxes, edited
//!   in place, with radius-bounded candidate queries: one per length class
//!   of `wagg-conflict`'s length-class index, behind the static
//!   conflict-graph build and the incremental engine,
//! * [`tiling::TileLayout`] — deterministic rectangular tilings with
//!   halo-overlap queries, the domain decomposition behind the sharded
//!   scheduler in `wagg-partition`,
//! * [`pyramid::GridPyramid`] — level-stacked cell → super-cell grids
//!   (child/parent indexing, per-level point-to-box distances), the geometry
//!   under hierarchical far-field aggregation in `wagg-partition`'s
//!   certified slot verifier,
//! * length-diversity computations ([`diversity::length_diversity`]) — the parameter `Δ`
//!   that all of the paper's bounds are phrased in,
//! * the slow-growing functions `log*` and `log log` ([`logmath`]) used to state the
//!   paper's schedule-length bounds, and
//! * deterministic random number helpers ([`rng`]) so that every experiment in the
//!   benchmark harness is reproducible.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::{Point, diversity::length_diversity, logmath::log_star};
//!
//! let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(5.0, 0.0)];
//! let delta = length_diversity(&pts).unwrap();
//! assert!((delta - 5.0).abs() < 1e-12);
//! assert_eq!(log_star(65536.0), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bbox;
pub mod diversity;
pub mod grid;
pub mod logmath;
pub mod point;
pub mod pyramid;
pub mod rng;
pub mod tiling;

pub use bbox::BoundingBox;
pub use point::Point;
