//! # Wireless Aggregation at Nearly Constant Rate
//!
//! An implementation of the aggregation-scheduling system of
//! *"Wireless Aggregation at Nearly Constant Rate"* (Halldórsson & Tonoyan,
//! ICDCS 2018): given the positions of wireless sensor nodes and a sink, build the
//! minimum spanning tree, choose transmission powers, and compute a short TDMA
//! schedule of the tree's links under the physical (SINR) model of interference.
//!
//! The headline guarantees reproduced by this workspace:
//!
//! * with **global power control**, the MST schedules in `O(log* Δ)` slots
//!   (aggregation rate `Ω(1/log* Δ)`),
//! * with an **oblivious power scheme** `P_τ`, it schedules in `O(log log Δ)` slots,
//! * **without power control**, worst-case instances force `Θ(n)` slots,
//! * and both positive bounds are tight (Sec. 4 of the paper).
//!
//! # One scheduling surface
//!
//! Everything schedules through the [`session`] facade
//! ([`SessionBuilder`] → [`Session`] → [`SolveReport`]): one builder folds
//! the scheduler core (SINR model, power mode), the incremental engine's
//! tuning and the sharded pipeline's knobs into a layered [`SessionConfig`],
//! and [`Backend::Auto`] picks the execution strategy — from-scratch static
//! kernel, incrementally maintained interference engine, or spatially
//! sharded pipeline — from the instance itself (size, churn expectation,
//! partition hints). Every backend returns the same [`SolveReport`] and is
//! slot-for-slot identical to the legacy entry point it wraps (the
//! differential suite in `wagg-session` pins this).
//!
//! ```
//! use wagg_core::{Backend, Session};
//! use wagg_core::geometry::Point;
//! use wagg_core::sinr::Link;
//!
//! let links: Vec<Link> = (0..40)
//!     .map(|i| {
//!         let x = (i % 8) as f64 * 7.0;
//!         let y = (i / 8) as f64 * 7.0;
//!         Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
//!     })
//!     .collect();
//! // `Backend::Auto` resolves to the static kernel at this size; flip to
//! // `Backend::Engine` for churn workloads or `Backend::Sharded` at scale.
//! let mut session = Session::builder().backend(Backend::Auto).links(&links).build();
//! let report = session.solve();
//! assert!(report.schedule().is_partition(links.len()));
//! println!("{}", report.summary());
//! ```
//!
//! For the paper's end-to-end pipeline (points → MST → schedule), the
//! [`AggregationProblem`] one-stop API drives the same session under the
//! hood:
//!
//! ```
//! use wagg_core::{AggregationProblem, PowerMode};
//! use wagg_core::instances::random::uniform_square;
//!
//! // Deploy 100 sensors uniformly at random and aggregate at node 0.
//! let deployment = uniform_square(100, 500.0, 42);
//! let problem = AggregationProblem::from_instance(&deployment)
//!     .with_power_mode(PowerMode::GlobalControl);
//! let solution = problem.solve().unwrap();
//!
//! // The schedule is a genuine partition of the MST's links into SINR-feasible slots.
//! assert_eq!(solution.links.len(), 99);
//! assert!(solution.report.schedule().is_partition(99));
//! // Near-constant rate: a handful of slots despite 100 nodes.
//! assert!(solution.slots() <= 16);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use wagg_aggfn as aggfn;
pub use wagg_conflict as conflict;
pub use wagg_distributed as distributed;
pub use wagg_dynamic as dynamic;
pub use wagg_engine as engine;
pub use wagg_fading as fading;
pub use wagg_geometry as geometry;
pub use wagg_instances as instances;
pub use wagg_latency as latency;
pub use wagg_mst as mst;
pub use wagg_multihop as multihop;
pub use wagg_obs as obs;
pub use wagg_partition as partition;
pub use wagg_protocol as protocol;
pub use wagg_schedule as schedule;
pub use wagg_service as service;
pub use wagg_session as session;
pub use wagg_sim as sim;
pub use wagg_sinr as sinr;
pub use wagg_wire as wire;

pub use wagg_geometry::Point;
pub use wagg_instances::Instance;
pub use wagg_obs::{
    FlightRecorder, HealthConfig, HealthReport, HealthSignal, Metrics, Recorder, SeriesKind,
    SignalKind, SolveSample, TelemetryConfig,
};
pub use wagg_schedule::{
    BackendKind, PowerMode, RepairDecision, RepairStats, Schedule, ScheduleReport, SchedulerConfig,
    ShardingStats, SolveReport,
};
pub use wagg_service::{
    Request, Response, SchedulerService, ServiceConfig, ServiceError, ServiceHealth, SessionId,
};
pub use wagg_session::{
    Backend, PartitionHints, RepairPolicy, Session, SessionBuilder, SessionConfig, SessionError,
    SessionStats,
};
pub use wagg_sinr::{Link, PowerAssignment, SinrModel};
pub use wagg_wire::{DecodeError, EncodeError, Frame, FrameKind};

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use wagg_sim::{ConvergecastSim, SimConfig, SimReport};

/// Errors returned by the umbrella API.
#[derive(Debug)]
#[non_exhaustive]
pub enum AggregationError {
    /// Building or orienting the MST failed (degenerate pointset, bad sink index).
    Tree(wagg_mst::MstError),
    /// The convergecast simulation could not be assembled.
    Simulation(wagg_sim::SimError),
}

impl fmt::Display for AggregationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregationError::Tree(e) => write!(f, "tree construction failed: {e}"),
            AggregationError::Simulation(e) => write!(f, "simulation setup failed: {e}"),
        }
    }
}

impl Error for AggregationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AggregationError::Tree(e) => Some(e),
            AggregationError::Simulation(e) => Some(e),
        }
    }
}

impl From<wagg_mst::MstError> for AggregationError {
    fn from(e: wagg_mst::MstError) -> Self {
        AggregationError::Tree(e)
    }
}

impl From<wagg_sim::SimError> for AggregationError {
    fn from(e: wagg_sim::SimError) -> Self {
        AggregationError::Simulation(e)
    }
}

/// An aggregation problem: a pointset, a sink, and the scheduling configuration.
///
/// Construct with [`AggregationProblem::new`] or [`AggregationProblem::from_instance`],
/// adjust with the builder-style `with_*` methods, then call
/// [`AggregationProblem::solve`] — which schedules the oriented MST through
/// the [`session`] facade ([`Backend::Auto`] by default, overridable with
/// [`AggregationProblem::with_backend`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationProblem {
    points: Vec<Point>,
    sink: usize,
    config: SchedulerConfig,
    backend: Backend,
}

impl AggregationProblem {
    /// Creates a problem from raw node positions and a sink index, with the default
    /// configuration (global power control, default SINR model, slot verification on,
    /// automatic backend selection).
    ///
    /// # Panics
    ///
    /// Panics if `sink` is out of range.
    pub fn new(points: Vec<Point>, sink: usize) -> Self {
        assert!(sink < points.len(), "sink index out of range");
        AggregationProblem {
            points,
            sink,
            config: SchedulerConfig::default(),
            backend: Backend::Auto,
        }
    }

    /// Creates a problem from a named [`Instance`].
    pub fn from_instance(instance: &Instance) -> Self {
        AggregationProblem::new(instance.points.clone(), instance.sink)
    }

    /// Sets the power-control mode (keeping the rest of the configuration).
    pub fn with_power_mode(mut self, mode: PowerMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the SINR model parameters.
    pub fn with_model(mut self, model: SinrModel) -> Self {
        self.config.model = model;
        self
    }

    /// Replaces the whole scheduler configuration.
    pub fn with_config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Chooses the session backend the schedule is computed with (default:
    /// [`Backend::Auto`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The node positions.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The sink node index.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// The scheduler configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// The configured session backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Solves the problem: builds the MST, orients it towards the sink, and
    /// schedules the oriented links through a [`Session`] with the
    /// configured backend.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::Tree`] for degenerate pointsets.
    pub fn solve(&self) -> Result<AggregationSolution, AggregationError> {
        let tree = wagg_mst::euclidean_mst(&self.points)?;
        let links = tree.try_orient_towards(self.sink)?;
        let mut session = Session::builder()
            .scheduler(self.config)
            .backend(self.backend)
            .links(&links)
            .build();
        let report = session.solve();
        Ok(AggregationSolution {
            tree,
            links,
            report,
            config: self.config,
        })
    }
}

/// A solved aggregation problem: the tree, its convergecast links, and the verified
/// schedule with its diagnostics.
#[derive(Debug, Clone)]
pub struct AggregationSolution {
    /// The Euclidean MST of the pointset.
    pub tree: wagg_mst::SpanningTree,
    /// The MST's links oriented towards the sink (the scheduled link set).
    pub links: Vec<Link>,
    /// The unified solve report: schedule, the diagnostics the paper's
    /// analysis is phrased in, and the backend that produced it.
    pub report: SolveReport,
    /// The configuration the schedule was computed with.
    pub config: SchedulerConfig,
}

impl AggregationSolution {
    /// The schedule length (number of slots).
    pub fn slots(&self) -> usize {
        self.report.slots()
    }

    /// The aggregation rate `1 / slots` of the periodic schedule.
    pub fn rate(&self) -> f64 {
        self.report.rate()
    }

    /// Verifies the schedule against the physical model once more (sanity check used
    /// by tests and the experiment harness).
    pub fn verify(&self) -> bool {
        self.report
            .schedule()
            .verify(&self.links, &self.config.model, self.config.mode)
    }

    /// Runs the convergecast simulation at the schedule's own rate for `frames`
    /// frames and returns the measured throughput/latency report.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::Simulation`] if the link set cannot be interpreted
    /// as a convergecast tree (never the case for solutions produced by
    /// [`AggregationProblem::solve`]).
    pub fn simulate(&self, frames: usize) -> Result<SimReport, AggregationError> {
        let sim = ConvergecastSim::from_solve(&self.links, &self.report)?;
        let period = self.slots().max(1);
        Ok(sim.run(SimConfig {
            frame_period: period,
            num_frames: frames,
            max_slots: (frames + self.links.len() + 2) * period * 4 + 64,
        }))
    }
}

/// Convenience one-liner: solve a pointset with the given power mode and default
/// model.
///
/// # Errors
///
/// Same as [`AggregationProblem::solve`].
///
/// # Examples
///
/// ```
/// use wagg_core::{solve_points, PowerMode, Point};
///
/// let points: Vec<Point> = (0..12).map(|i| Point::new(i as f64, 0.0)).collect();
/// let solution = solve_points(&points, 0, PowerMode::Oblivious { tau: 0.5 }).unwrap();
/// assert!(solution.slots() <= 6);
/// ```
pub fn solve_points(
    points: &[Point],
    sink: usize,
    mode: PowerMode,
) -> Result<AggregationSolution, AggregationError> {
    AggregationProblem::new(points.to_vec(), sink)
        .with_power_mode(mode)
        .solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_instances::chains::exponential_chain;
    use wagg_instances::random::{grid, uniform_square};

    #[test]
    #[should_panic(expected = "sink index out of range")]
    fn bad_sink_panics() {
        let _ = AggregationProblem::new(vec![Point::origin()], 1);
    }

    #[test]
    fn solve_uniform_square_all_modes() {
        let inst = uniform_square(40, 100.0, 5);
        for mode in [
            PowerMode::Uniform,
            PowerMode::Oblivious { tau: 0.5 },
            PowerMode::GlobalControl,
        ] {
            let solution = AggregationProblem::from_instance(&inst)
                .with_power_mode(mode)
                .solve()
                .unwrap();
            assert_eq!(solution.links.len(), 39);
            assert!(solution.verify(), "{mode} schedule failed verification");
            assert!(solution.rate() > 0.0);
        }
    }

    #[test]
    fn solve_propagates_tree_errors() {
        let problem = AggregationProblem::new(vec![Point::origin(), Point::origin()], 0);
        assert!(matches!(problem.solve(), Err(AggregationError::Tree(_))));
    }

    #[test]
    fn power_control_beats_uniform_power_on_exponential_chain() {
        let inst = exponential_chain(10, 2.0).unwrap();
        let uniform = AggregationProblem::from_instance(&inst)
            .with_power_mode(PowerMode::Uniform)
            .solve()
            .unwrap();
        let oblivious = AggregationProblem::from_instance(&inst)
            .with_power_mode(PowerMode::mean_oblivious())
            .solve()
            .unwrap();
        let global = AggregationProblem::from_instance(&inst)
            .with_power_mode(PowerMode::GlobalControl)
            .solve()
            .unwrap();
        // Both power-control modes beat the no-control baseline, which degenerates
        // towards one link per slot on exponential chains.
        assert!(oblivious.slots() < uniform.slots());
        assert!(global.slots() < uniform.slots());
    }

    #[test]
    fn global_control_beats_oblivious_power_on_doubly_exponential_chain() {
        // On the Fig. 2 chain every oblivious scheme is stuck at one link per slot,
        // while global power control can pack links together (the log* vs log log
        // separation shows up only at astronomically large diversity, which is
        // exactly what this instance provides).
        let inst = wagg_instances::chains::doubly_exponential_chain(6, 0.5, 3.0, 1.0).unwrap();
        let oblivious = AggregationProblem::from_instance(&inst)
            .with_power_mode(PowerMode::mean_oblivious())
            .solve()
            .unwrap();
        let global = AggregationProblem::from_instance(&inst)
            .with_power_mode(PowerMode::GlobalControl)
            .solve()
            .unwrap();
        assert_eq!(oblivious.slots(), inst.len() - 1);
        assert!(global.slots() < oblivious.slots());
    }

    #[test]
    fn simulation_sustains_the_schedule_rate() {
        let inst = grid(5, 5, 1.0);
        let solution = AggregationProblem::from_instance(&inst).solve().unwrap();
        let report = solution.simulate(10).unwrap();
        assert!(report.all_frames_completed);
        assert!(report.max_buffer_occupancy <= inst.len());
    }

    #[test]
    fn builder_methods_update_config() {
        let inst = uniform_square(10, 10.0, 1);
        let model = SinrModel::new(4.0, 2.0, 0.0).unwrap();
        let problem = AggregationProblem::from_instance(&inst)
            .with_model(model)
            .with_power_mode(PowerMode::Linear);
        assert_eq!(problem.config().model, model);
        assert_eq!(problem.config().mode, PowerMode::Linear);
        let custom = SchedulerConfig::new(PowerMode::Uniform).with_verification(false);
        let problem = problem.with_config(custom);
        assert_eq!(problem.config(), custom);
    }

    #[test]
    fn error_display_and_source() {
        let err: AggregationError = wagg_mst::MstError::TooFewPoints { found: 1 }.into();
        assert!(err.to_string().contains("tree construction failed"));
        assert!(err.source().is_some());
    }
}
