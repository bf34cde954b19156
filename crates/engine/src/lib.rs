//! Incremental interference engine for dynamic networks.
//!
//! The paper's schedules are computed for a *static* link set, and PR 1 made
//! that computation fast; but the convergecast setting is naturally dynamic —
//! nodes fail, arrive and move — and rebuilding the conflict graph, the
//! spatial grids and the path-loss cache from scratch on every event costs a
//! full `O(n)` rebuild per event. This crate turns those three structures
//! into one **mutable, incrementally maintained** engine:
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
//!   the index out once and decides its adjacency base over it. A row query
//!   takes one reach per (link, class), with the static build's two
//!   rounding margins (`ConflictRelation::margined_reach`), and applies the
//!   box-gap test `gap² ≤ reach²` before the exact predicate.
//! * **Conflict adjacency** — a CSR base snapshot plus added/removed delta
//!   overlays, compacted once the overlay passes a fixed fraction of the
//!   edge set ([`EngineConfig::compact_slack`]); equivalent edge for edge to
//!   `ConflictGraph::build` over the live links at every point.
//! * **Path-loss state** — the per-link powers and target weights of
//!   `PathLossCache`, patched per event and lent to *every* scheduler slot
//!   probe of a run ([`InterferenceEngine::schedule`]) instead of being
//!   rebuilt per feasibility call.
//!
//! Per-event cost is proportional to the affected neighbourhood (plus
//! amortised re-layout/compaction work), not to the network size — see the
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
//! use wagg_engine::{run_trace, churn_trace, EngineConfig, InterferenceEngine};
//! use wagg_schedule::{PowerMode, SchedulerConfig};
//!
//! let config = SchedulerConfig::new(PowerMode::mean_oblivious());
//! let mut engine = InterferenceEngine::new(EngineConfig::for_scheduler(config));
//! let trace = churn_trace(60, 40, 7);
//! let outcome = run_trace(&mut engine, &trace).unwrap();
//! assert_eq!(outcome.final_links, engine.len());
//!
//! // Reschedule from the maintained state: no geometric rebuild, and the
//! // patched path-loss values feed every slot probe.
//! let report = engine.schedule();
//! assert!(report.schedule.is_partition(engine.len()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod scenario;

mod overlay;

pub use engine::{EngineConfig, EngineStats, InterferenceEngine};
pub use error::EngineError;
pub use scenario::{churn_trace, run_trace, EngineEvent, EngineTrace, TraceBinding, TraceOutcome};
