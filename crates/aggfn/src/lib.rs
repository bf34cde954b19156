//! Aggregation functions over convergecast trees.
//!
//! The paper's scheduling results assume a *fully compressible* aggregation
//! function: every node combines the readings of its subtree into a single
//! packet, so one convergecast (one traversal of the scheduled tree) computes
//! the aggregate at the sink. Section 3.1 ("Other aggregation functions")
//! points out that the same schedules also speed up functions that are *not*
//! fully compressible — most notably the median, computed by binary search
//! over counting aggregations.
//!
//! This crate provides that layer:
//!
//! * [`ops`] — the compressible operators themselves ([`Sum`], [`Max`],
//!   [`Min`], [`Count`], [`Mean`], [`CountAtMost`]) behind the
//!   [`AggregateOp`] trait,
//! * [`tree`] — [`ConvergecastTree`], a validated bottom-up view of a link
//!   set oriented towards a sink, and the in-network evaluation of any
//!   operator over it,
//! * [`counting`] — threshold counting aggregations (the building block of
//!   selection queries),
//! * [`median`] — exact median / k-th smallest computation by binary search
//!   over counting convergecasts, with round and slot accounting,
//! * [`quantile`](mod@quantile) — arbitrary quantiles and rank queries on
//!   top of [`median`],
//! * [`histogram`] — fixed-bucket histograms, the classic partially
//!   compressible aggregate, with packet-size accounting.
//!
//! # Examples
//!
//! ```
//! use wagg_aggfn::{ConvergecastTree, median_by_counting, MedianConfig};
//! use wagg_geometry::Point;
//! use wagg_instances::random::uniform_square;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inst = uniform_square(25, 50.0, 7);
//! let links = inst.mst_links()?;
//! let tree = ConvergecastTree::from_links(&links)?;
//!
//! // Per-node sensor readings, indexed by node id.
//! let readings: Vec<f64> = (0..25).map(|i| (i as f64) * 1.5).collect();
//! let report = median_by_counting(&tree, &readings, MedianConfig::default())?;
//!
//! let mut sorted = readings.clone();
//! sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
//! assert_eq!(report.value, sorted[12]); // exact median of 25 values
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counting;
pub mod error;
pub mod histogram;
pub mod median;
pub mod ops;
pub mod quantile;
pub mod tree;

pub use counting::{count_at_most, counting_aggregation};
pub use error::AggfnError;
pub use histogram::{histogram_aggregation, Histogram, HistogramReport};
pub use median::{kth_smallest, median_by_counting, MedianConfig, SelectionReport};
pub use ops::{AggregateOp, Count, CountAtMost, Max, Mean, Min, Sum};
pub use quantile::{quantile, rank_of, QuantileReport};
pub use tree::{AggregationTrace, ConvergecastTree};
