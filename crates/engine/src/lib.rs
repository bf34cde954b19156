//! Incremental interference engine for dynamic networks.
//!
//! The paper's schedules are computed for a *static* link set; but the
//! convergecast setting is naturally dynamic — nodes fail, arrive and move —
//! and rebuilding the conflict graph and its spatial grids from scratch on
//! every event costs a full `O(n)` rebuild per event. This crate turns those
//! structures into one **mutable, incrementally maintained** engine, built
//! from the `SchedulerConfig` it schedules under: the power mode fixes the
//! conflict relation (`PowerMode::conflict_relation`), once.
//!
//! * **Spatial grids** — the engine keeps `wagg-conflict`'s length-class
//!   index (`wagg_conflict::LengthClasses`, one mutable
//!   `wagg_geometry::grid::CellGrid` per power-of-two length class), the
//!   one the static build lays out too. Every live link of positive, finite
//!   length sits in the cells its box overlaps, and insert and remove edit
//!   those cell lists in place; every row checks the links of no class
//!   (zero-length links, and links whose length overflows to infinity)
//!   exactly. A class re-lays out its cells only when its membership
//!   doubles or falls to a quarter. [`InterferenceEngine::with_links`] lays
//!   the index out once and decides its adjacency over it. A row query
//!   takes one reach per (link, class), with the static build's two
//!   rounding margins (`ConflictRelation::margined_reach`), and applies the
//!   box-gap test `gap² ≤ reach²` before the exact predicate.
//! * **Conflict adjacency** — one sorted conflict row per slot, edited in
//!   place: an arrival stores its new row and joins each partner's row, a
//!   departure leaves each partner's row and drops its own. It equals
//!   `ConflictGraph::build` over the live links edge for edge at every
//!   point, and [`InterferenceEngine::neighbors`] lends a row as a slice.
//!
//! The engine keeps no path-loss state: a cold
//! [`InterferenceEngine::schedule`] snapshots the adjacency and prices its
//! slot probes exactly as `wagg_schedule::solve_static` does, and a
//! session's warm repairs read the session's own priced slot index.
//!
//! Per-event cost is proportional to the affected neighbourhood (plus
//! amortised class re-layout work), not to the network size — see the
//! `engine` benchmark for incremental-versus-rebuild numbers.
//!
//! The event API is [`InterferenceEngine::insert`] /
//! [`InterferenceEngine::remove_link`] / [`InterferenceEngine::move_node`];
//! [`scenario`] packages event sequences (random churn and random-waypoint
//! mobility via [`wagg_instances::mobility`]) into replayable traces.
//!
//! # Examples
//!
//! End to end: seed an engine from a link set, churn it, reschedule.
//!
//! ```
//! use wagg_engine::{run_trace, churn_trace, InterferenceEngine};
//! use wagg_schedule::{PowerMode, SchedulerConfig};
//!
//! let config = SchedulerConfig::new(PowerMode::mean_oblivious());
//! let mut engine = InterferenceEngine::new(config);
//! let trace = churn_trace(60, 40, 7);
//! let outcome = run_trace(&mut engine, &trace).unwrap();
//! assert_eq!(outcome.final_links, engine.len());
//!
//! // Reschedule from the maintained adjacency: no geometric rebuild.
//! let report = engine.schedule();
//! assert!(report.schedule.is_partition(engine.len()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod scenario;

pub use engine::InterferenceEngine;
pub use error::EngineError;
pub use scenario::{churn_trace, run_trace, EngineEvent, EngineTrace, TraceOutcome};
