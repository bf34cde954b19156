//! The physical (SINR) interference model substrate.
//!
//! This crate implements the communication model of
//! *"Wireless Aggregation at Nearly Constant Rate"* (Halldórsson & Tonoyan, ICDCS 2018):
//!
//! * [`Link`] — directed communication requests between sensor nodes, with the
//!   geometric quantities the paper uses (`l_i`, `d_ij`, `d(i, j)`),
//! * [`PowerAssignment`] — the power-control modes of the paper: the oblivious
//!   schemes `P_τ(i) = C·l_i^{τα}` (including uniform `P_0`, mean `P_{1/2}` and
//!   linear `P_1`) and explicit per-link powers produced by global power control,
//! * [`SinrModel`] — path-loss parameters (`α`, `β`, noise `N`) and SINR
//!   feasibility checks for a set of links under a given power assignment,
//! * [`affectance`] — the relative interference `I_P(j, i)` and the additive
//!   operator `I(j, i) = min{1, l_j^α / d(i, j)^α}` used by the paper's analysis,
//! * [`pathloss`] — the shared high-performance kernel under the above: cached
//!   per-link path-loss powers ([`PathLossCache`]) and integer-exponent fast
//!   paths ([`AlphaPow`]), with multi-threaded batch feasibility checks behind
//!   the (default-on) `parallel` feature,
//! * [`power_control`] — *global* power control: deciding whether a set of links
//!   is feasible under *some* power assignment (spectral-radius test over the
//!   normalised gain matrix) and computing the component-wise minimal feasible
//!   powers by Foschini–Miljanic iteration.
//!
//! # Examples
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_sinr::{Link, PowerAssignment, SinrModel};
//!
//! // Two well-separated unit links are simultaneously feasible under uniform power.
//! let links = vec![
//!     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
//!     Link::new(1, Point::new(100.0, 0.0), Point::new(101.0, 0.0)),
//! ];
//! let model = SinrModel::default();
//! let power = PowerAssignment::uniform(1.0);
//! assert!(model.is_feasible(&links, &power));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affectance;
pub mod error;
pub mod link;
pub mod model;
pub mod pathloss;
pub mod power;
pub mod power_control;

pub use error::SinrError;
pub use link::{Link, LinkId, NodeId};
pub use model::SinrModel;
pub use pathloss::{AlphaPow, PathLossCache, PricedLink};
pub use power::{PowerAssignment, PowerScheme};
