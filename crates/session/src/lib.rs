//! One scheduling surface: the backend-polymorphic [`Session`] facade.
//!
//! The workspace grew four generations of scheduling machinery — the static
//! kernel (`wagg_schedule::solve_static`), the incremental interference
//! engine (`wagg_engine::InterferenceEngine`), the spatially sharded
//! pipeline (`wagg_partition::solve_sharded`) and its per-shard engine
//! (`wagg_partition::PartitionedEngine`) — each with its own entry point,
//! configuration struct and report type. Every workload had to hard-code an
//! execution strategy at the call site. This crate folds them behind **one**
//! surface:
//!
//! * [`Session`] — one mutable link universe with a uniform event API
//!   (insert / remove / relocate / move-node, plus replayable
//!   [`EngineEvent`]s) and a single [`Session::solve`] producing the unified
//!   [`SolveReport`], regardless of backend. The session owns the only copy
//!   of the universe — stable keys, the links in solve order, the event
//!   accounting and the warm repair state — and every backend is a solver
//!   plus its own incremental index beside it, reproducing its legacy entry
//!   point slot for slot (pinned by the differential test suite);
//! * [`SessionBuilder`] / [`SessionConfig`] — one layered configuration
//!   folding `SchedulerConfig`, the sharded pipeline's shard count, the
//!   optional [`PartitionHints`] and the [`RepairPolicy`];
//! * [`Backend::Auto`] — strategy selection from the instance itself:
//!   size, churn expectation and shard hints (thresholds derived from the
//!   `BENCH_*.json` trajectory, see [`AUTO_SHARDED_THRESHOLD`]).
//!
//! With [`RepairPolicy::enabled`], every full recolor (the cold start, or a
//! repair that drifted past the watermark) anchors the warm state: each
//! link's slot and its affectance budget, the certified verifier's
//! per-member total for its slot (the verifier takes its pyramid depth from
//! the slot size, so the recolor and the anchor price alike). The recolor's
//! own verification computes those totals. The hinted
//! sharded backend hands over the totals of every slot its verification
//! pass kept whole, and the anchor prices only the rest; the
//! `anchor.slots_priced` counter reads zero on a hinted cold start that
//! evicted nothing, and every slot on the engine backend. A hinted repair
//! reports the tiling's occupancy as it stands after the events
//! (`PartitionedEngine::occupancy`, kept current per event).
//!
//! [`Session::apply_events`] refuses a batch with a NaN or infinite point
//! ([`SessionError::NonFinite`]) before any of its events applies, and
//! [`Session::relocate`] refuses such a point the same way;
//! [`check_point`] is that point check ([`check_events`] runs it over a
//! batch), which the scheduling service's request checks call too. The
//! other direct event methods ([`Session::insert`],
//! [`Session::insert_with_nodes`], [`Session::move_node`]) panic on such a
//! point before anything changes.
//!
//! # Examples
//!
//! One-shot solve (backend picked automatically):
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_session::Session;
//! use wagg_sinr::Link;
//!
//! let links: Vec<Link> = (0..50)
//!     .map(|i| {
//!         let x = (i % 10) as f64 * 6.0;
//!         let y = (i / 10) as f64 * 6.0;
//!         Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
//!     })
//!     .collect();
//! let mut session = Session::builder().links(&links).build();
//! let report = session.solve();
//! assert!(report.schedule().is_partition(links.len()));
//! println!("{}", report.summary());
//! ```
//!
//! A churn workload through the event API:
//!
//! ```
//! use wagg_geometry::Point;
//! use wagg_schedule::{PowerMode, SchedulerConfig};
//! use wagg_session::{Backend, Session};
//!
//! let mut session = Session::builder()
//!     .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
//!     .backend(Backend::Engine)
//!     .build();
//! let a = session.insert(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
//! let _b = session.insert(Point::new(30.0, 0.0), Point::new(31.0, 0.0));
//! session.remove(a).unwrap();
//! let report = session.solve();
//! assert_eq!(report.num_links(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
pub mod state;

pub use state::{RestoreError, SessionState};
pub use wagg_obs::{
    FlightRecorder, HealthConfig, HealthReport, HealthSignal, Metrics, Recorder, SeriesKind,
    SignalKind, SolveSample, TelemetryConfig,
};
pub use wagg_partition::MAX_SHARDS;
pub use wagg_schedule::{
    BackendKind, RepairDecision, RepairStats, SchedulerConfig, ShardingStats, SolveReport,
};

use backend::{EngineBackend, HintedBackend, ShardedBackend, Solver, StaticBackend};
use serde::{Deserialize, Serialize};
use state::{EventCounts, KeyedLink, WarmState};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use wagg_engine::EngineEvent;
use wagg_geometry::{BoundingBox, Point};
use wagg_partition::{AffectanceVerifier, PartitionedEngineConfig};
use wagg_schedule::SlotIndex;
use wagg_sinr::link::link_diversity;
use wagg_sinr::{Link, LinkId, NodeId, PathLossCache, PowerAssignment, PricedLink};

/// At and above this many links, [`Backend::Auto`] picks the sharded
/// pipeline. Derived from the `BENCH_partition.json` trajectory: at the
/// smallest benched size (50 000 links, constant density) the sharded path
/// already beats the unsharded kernel ~9× (0.77 s vs 6.7 s at 16 shards,
/// single-core), and the gap widens to ~29× at 200 000; below the bench
/// floor the tiling's stitching overhead is not worth paying by default.
pub const AUTO_SHARDED_THRESHOLD: usize = 50_000;

/// The shard count [`Backend::Auto`] requests when none is configured — the
/// `BENCH_partition.json` sweet spot (16 shards is within a few percent of
/// the best measured wall-clock from 50 k through 1 M links).
pub const AUTO_DEFAULT_SHARDS: usize = 16;

/// Which execution strategy a [`Session`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// Pick from the instance: sharded at [`AUTO_SHARDED_THRESHOLD`] links
    /// or when [`PartitionHints`] are declared, the incremental engine when
    /// churn is expected ([`SessionBuilder::expect_churn`]), static
    /// otherwise. Resolved once, when the session is built.
    Auto,
    /// Always the from-scratch kernel: every solve runs
    /// `wagg_schedule::solve_static` over the session's links.
    Static,
    /// Always the incremental engine: a `wagg_engine::InterferenceEngine`
    /// patched per event; solve order is the engine's slot order.
    Engine,
    /// Always the sharded pipeline: `wagg_partition::solve_sharded` per
    /// solve, or — with [`PartitionHints`] — a
    /// `wagg_partition::PartitionedEngine` maintained per event.
    Sharded,
}

/// Declared deployment bounds enabling the *incrementally maintained*
/// sharded backend: with hints, a sharded session routes events through a
/// `wagg_partition::PartitionedEngine` over a fixed tiling (churn touches
/// only the owning shard and its halo neighbours) instead of re-tiling the
/// whole link set per solve. Hints also make [`Backend::Auto`] pick the
/// sharded backend regardless of size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionHints {
    /// The deployment region the tiling covers.
    pub extent: BoundingBox,
    /// Bounds `(min, max)` on every link's length; they size the tiling's
    /// halo margin and are enforced per insert.
    pub length_bounds: (f64, f64),
}

/// Warm-start repair policy: whether [`Session::solve`] keeps the previous
/// assignment and re-places only the links an event batch dirtied, and how
/// much schedule-length drift vs. the from-scratch baseline is tolerated
/// before falling back to a full recolor (see `wagg_schedule::solve_repair`
/// and [`RepairStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepairPolicy {
    /// Whether repair-capable backends warm-start their solves. Disabled by
    /// default: a disabled session is slot-for-slot identical to the
    /// pre-repair behaviour.
    pub enabled: bool,
    /// Maximum tolerated relative schedule-length drift,
    /// `(slots - baseline) / baseline`. A repair drifting past this runs a
    /// full recolor instead (tagged [`RepairDecision::WatermarkBreach`]) and
    /// re-anchors the baseline.
    pub max_drift: f64,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        RepairPolicy {
            enabled: false,
            max_drift: 0.25,
        }
    }
}

impl RepairPolicy {
    /// Repair on, with the default drift watermark (25%).
    pub fn enabled() -> Self {
        RepairPolicy {
            enabled: true,
            ..RepairPolicy::default()
        }
    }

    /// Replaces the drift watermark.
    pub fn with_max_drift(mut self, max_drift: f64) -> Self {
        self.max_drift = max_drift;
        self
    }
}

/// The layered configuration of a [`Session`]: the scheduler core plus the
/// per-backend tuning. The engine backends build their engines from the
/// scheduler core (`InterferenceEngine` from the `SchedulerConfig` alone,
/// `PartitionedEngineConfig` from it and the partition hints).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// The scheduler core: SINR model, power mode, slot verification.
    pub scheduler: SchedulerConfig,
    /// The execution strategy (or [`Backend::Auto`]).
    pub backend: Backend,
    /// Whether the workload is expected to churn (drives [`Backend::Auto`]
    /// towards the incremental engine).
    pub expect_churn: bool,
    /// Target shard count for the sharded backend; `0` means
    /// [`AUTO_DEFAULT_SHARDS`]. At most [`MAX_SHARDS`]: restore refuses a
    /// state above it, and the sharded backend asserts it.
    pub target_shards: usize,
    /// Declared deployment bounds (see [`PartitionHints`]).
    pub partition: Option<PartitionHints>,
    /// Warm-start repair policy (see [`RepairPolicy`]; disabled by default).
    pub repair: RepairPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            scheduler: SchedulerConfig::default(),
            backend: Backend::Auto,
            expect_churn: false,
            target_shards: 0,
            partition: None,
            repair: RepairPolicy::default(),
        }
    }
}

impl SessionConfig {
    /// The strategy [`Backend::Auto`] resolves to for an initial universe of
    /// `n` links (explicit backends resolve to themselves). Pure — the unit
    /// tests pin the thresholds against the bench trajectory.
    pub fn resolved_backend(&self, n: usize) -> BackendKind {
        match self.backend {
            Backend::Static => BackendKind::Static,
            Backend::Engine => BackendKind::Engine,
            Backend::Sharded => BackendKind::Sharded,
            Backend::Auto => {
                if self.partition.is_some() || n >= AUTO_SHARDED_THRESHOLD {
                    BackendKind::Sharded
                } else if self.expect_churn {
                    BackendKind::Engine
                } else {
                    BackendKind::Static
                }
            }
        }
    }

    /// The shard count the sharded backend will use.
    pub fn effective_shards(&self) -> usize {
        if self.target_shards == 0 {
            AUTO_DEFAULT_SHARDS
        } else {
            self.target_shards
        }
    }
}

/// Errors returned by the [`Session`] event API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// No live link has this session key (or, from
    /// [`Session::apply_events`], no live link is bound to this trace key).
    UnknownKey {
        /// The offending key.
        key: u64,
    },
    /// A point is NaN or infinite (see [`check_point`]): from
    /// [`Session::apply_events`], the `what` of the `index`-th event of the
    /// batch, none of which applied; from [`Session::relocate`], which
    /// changed nothing, one of its two points at index 0.
    NonFinite {
        /// The offending item's position (an event's, in its batch).
        index: usize,
        /// The point: `"insert sender"`, `"insert receiver"` or `"move
        /// target"` for an event, `"relocate sender"` or `"relocate
        /// receiver"` for a relocation.
        what: &'static str,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownKey { key } => {
                write!(f, "session key {key} does not name a live link")
            }
            SessionError::NonFinite { index, what } => {
                write!(f, "the {what} of item {index} is NaN or infinite")
            }
        }
    }
}

impl Error for SessionError {}

/// The point check behind [`Session::apply_events`] and the scheduling
/// service's request checks: `Ok` when both coordinates of `point` are
/// finite, otherwise [`SessionError::NonFinite`] naming it as the `what` of
/// the `index`-th item. The engine asserts finite endpoints, so such a
/// point would panic an engine-backed session, and a static one would
/// schedule it.
///
/// # Errors
///
/// [`SessionError::NonFinite`] when a coordinate is NaN or infinite.
pub fn check_point(index: usize, what: &'static str, point: Point) -> Result<(), SessionError> {
    if point.x.is_finite() && point.y.is_finite() {
        Ok(())
    } else {
        Err(SessionError::NonFinite { index, what })
    }
}

/// The direct event methods' point check: panics, naming the point, when
/// [`check_point`] refuses it.
fn assert_finite(what: &'static str, point: Point) {
    assert!(
        check_point(0, what, point).is_ok(),
        "the {what} {point:?} is NaN or infinite; Session::apply_events refuses it with SessionError::NonFinite"
    );
}

/// [`check_point`] over every point of an event batch: each `Insert`'s
/// `"insert sender"` and `"insert receiver"`, each `MoveNode`'s `"move
/// target"`, indexed by the event's position in `events`.
///
/// # Errors
///
/// [`SessionError::NonFinite`] naming the first NaN or infinite point.
pub fn check_events(events: &[EngineEvent]) -> Result<(), SessionError> {
    events
        .iter()
        .enumerate()
        .try_for_each(|(index, event)| match *event {
            EngineEvent::Insert {
                sender, receiver, ..
            } => {
                check_point(index, "insert sender", sender)?;
                check_point(index, "insert receiver", receiver)
            }
            EngineEvent::MoveNode { to, .. } => check_point(index, "move target", to),
            EngineEvent::Remove { .. } => Ok(()),
        })
}

/// Event accounting across the session surface. The session's universe
/// counts, so every backend reports the same numbers for the same events,
/// and the counts survive snapshot and restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// The backend the session resolved to.
    pub backend: BackendKind,
    /// Live links.
    pub links: usize,
    /// Seeded links plus inserts.
    pub inserts: usize,
    /// Removals.
    pub removals: usize,
    /// Relocations plus node moves (one per [`Session::move_node`] call,
    /// however many links follow).
    pub moves: usize,
}

/// Builder for a [`Session`] — the one place an execution strategy, its
/// tuning and the initial link universe are chosen.
///
/// See the [crate docs](self) for examples.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    config: SessionConfig,
    links: Vec<Link>,
    recorder: Recorder,
    flight: FlightRecorder,
}

impl SessionBuilder {
    /// A builder with the default configuration (default scheduler,
    /// [`Backend::Auto`], no initial links).
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Replaces the whole layered configuration.
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the scheduler core (model, power mode, verification).
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Sets the power mode (keeping the rest of the scheduler core).
    pub fn power_mode(mut self, mode: wagg_schedule::PowerMode) -> Self {
        self.config.scheduler.mode = mode;
        self
    }

    /// Sets the SINR model (keeping the rest of the scheduler core).
    pub fn model(mut self, model: wagg_sinr::SinrModel) -> Self {
        self.config.scheduler.model = model;
        self
    }

    /// Chooses the execution strategy (default: [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Declares that the workload will churn (drives [`Backend::Auto`]
    /// towards the incremental engine).
    pub fn expect_churn(mut self, churn: bool) -> Self {
        self.config.expect_churn = churn;
        self
    }

    /// Sets the sharded backend's target shard count (at most
    /// [`MAX_SHARDS`]; see [`SessionConfig::target_shards`]).
    pub fn target_shards(mut self, shards: usize) -> Self {
        self.config.target_shards = shards;
        self
    }

    /// Declares deployment bounds, enabling the incrementally maintained
    /// sharded backend (see [`PartitionHints`]).
    pub fn partition_hints(mut self, extent: BoundingBox, length_bounds: (f64, f64)) -> Self {
        self.config.partition = Some(PartitionHints {
            extent,
            length_bounds,
        });
        self
    }

    /// Sets the warm-start repair policy (e.g. [`RepairPolicy::enabled`]).
    pub fn repair(mut self, policy: RepairPolicy) -> Self {
        self.config.repair = policy;
        self
    }

    /// Installs a `wagg-obs` [`Recorder`]: every solve records its phase
    /// spans and work counters into it, and each [`SolveReport`] carries the
    /// recorder's cumulative [`Metrics`] snapshot
    /// ([`SolveReport::metrics`]). The default (a disabled recorder) records
    /// nothing and costs one branch per call.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Installs a `wagg-obs` [`FlightRecorder`]: every [`Session::solve`]
    /// feeds it one [`SolveSample`] (wall time, backend, schedule length,
    /// repair and sharding accounting, verifier counter deltas), and each
    /// [`SolveReport`] carries the recorder's current [`HealthReport`]
    /// ([`SolveReport::health`]). The default (a disabled flight recorder)
    /// retains nothing and costs one branch per call.
    ///
    /// The verifier counter deltas (`exact_fallbacks`, `evictions`) are
    /// read from the [`Recorder`] snapshot, so they are populated only
    /// when a recorder is installed alongside.
    pub fn flight_recorder(mut self, flight: FlightRecorder) -> Self {
        self.flight = flight;
        self
    }

    /// Seeds the session with an initial link universe (keys `0..n` in
    /// input order; [`Backend::Auto`] resolves against its size).
    pub fn links(mut self, links: &[Link]) -> Self {
        self.links = links.to_vec();
        self
    }

    /// Builds the session, resolving [`Backend::Auto`] against the initial
    /// universe (see [`SessionConfig::resolved_backend`]).
    ///
    /// # Panics
    ///
    /// Panics, before it builds anything, when the power mode is oblivious
    /// with a `τ` outside `(0, 1)`, NaN included
    /// ([`PowerMode::check_tau`](wagg_schedule::PowerMode::check_tau)). With
    /// [`PartitionHints`] and a sharded backend, panics when a seeded link's
    /// length falls outside the declared bounds.
    pub fn build(self) -> Session {
        if let Err(e) = self.config.scheduler.mode.check_tau() {
            panic!("{e}");
        }
        let kind = self.config.resolved_backend(self.links.len());
        let universe = Universe::seeded(self.config.scheduler, self.links);
        let mut session =
            Session::assemble(self.config, kind, universe, HashMap::new(), self.flight);
        if self.recorder.is_enabled() {
            session.set_recorder(self.recorder);
        }
        session
    }
}

/// A scheduling session: one mutable link universe behind one of the three
/// execution strategies, with a uniform event API and a uniform
/// [`SolveReport`]. Construct through [`Session::builder`].
#[derive(Debug)]
pub struct Session {
    config: SessionConfig,
    /// The one copy of the link universe: keys, links in solve order, event
    /// accounting and warm repair state.
    universe: Universe,
    /// The resolved strategy and its incremental index.
    backend: Box<dyn Solver>,
    /// Trace key → session key, persistent across [`Session::apply_events`]
    /// calls (traces replayed in pieces keep their bindings).
    trace_keys: HashMap<u64, u64>,
    /// The installed instrumentation sink (disabled unless
    /// [`SessionBuilder::recorder`] / [`Session::set_recorder`] ran).
    recorder: Recorder,
    /// The installed telemetry sink (disabled unless
    /// [`SessionBuilder::flight_recorder`] /
    /// [`Session::set_flight_recorder`] ran).
    flight: FlightRecorder,
    /// Cumulative `verifier.exact_fallbacks` at the end of the previous
    /// solve — the recorder's counters are monotone, the flight recorder
    /// wants per-solve deltas.
    flight_fallbacks: u64,
    /// Cumulative `verifier.evictions` at the end of the previous solve.
    flight_evictions: u64,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The one construction path behind seeding and restoring: the backend
    /// `kind` resolves to under `config`, built from `universe`'s links in
    /// solve order.
    fn assemble(
        config: SessionConfig,
        kind: BackendKind,
        universe: Universe,
        trace_keys: HashMap<u64, u64>,
        flight: FlightRecorder,
    ) -> Self {
        let backend: Box<dyn Solver> = match (kind, config.partition) {
            (BackendKind::Static, _) => Box::new(StaticBackend {
                scheduler: config.scheduler,
            }),
            (BackendKind::Engine, _) => Box::new(EngineBackend::new(config.scheduler, &universe)),
            (BackendKind::Sharded, Some(hints)) => {
                let pconfig = PartitionedEngineConfig::new(
                    config.scheduler,
                    hints.extent,
                    hints.length_bounds,
                    config.effective_shards(),
                );
                Box::new(HintedBackend::new(pconfig, &universe))
            }
            (BackendKind::Sharded, None) => Box::new(ShardedBackend {
                scheduler: config.scheduler,
                shards: config.effective_shards(),
            }),
        };
        Session {
            config,
            universe,
            backend,
            trace_keys,
            recorder: Recorder::disabled(),
            flight,
            flight_fallbacks: 0,
            flight_evictions: 0,
        }
    }

    /// Installs a `wagg-obs` [`Recorder`] on the session and its backend
    /// (see [`SessionBuilder::recorder`]).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.backend.set_recorder(recorder.clone());
        self.recorder = recorder;
        self.rebase_verifier_deltas();
    }

    /// The installed recorder — disabled (recording nothing) unless one was
    /// installed. Use it to pull [`Metrics`] or a chrome-trace export
    /// without waiting for a solve.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Installs a `wagg-obs` [`FlightRecorder`] on the session (see
    /// [`SessionBuilder::flight_recorder`]).
    pub fn set_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = flight;
        self.rebase_verifier_deltas();
    }

    /// Re-bases the flight recorder's verifier deltas on the installed
    /// recorder's current totals, so the next sample counts only its own
    /// solve whichever of the two sinks was just installed.
    fn rebase_verifier_deltas(&mut self) {
        // Read through `metrics()`: `counter()` would create the entries.
        let metrics = self.recorder.metrics();
        self.flight_fallbacks = metrics.counter("verifier.exact_fallbacks").unwrap_or(0);
        self.flight_evictions = metrics.counter("verifier.evictions").unwrap_or(0);
    }

    /// The installed flight recorder — disabled (retaining nothing) unless
    /// one was installed. Use it to pull time series, quantiles, the
    /// [`HealthReport`], a Prometheus text exposition
    /// (`FlightRecorder::expose_text`) or a JSONL event log
    /// (`FlightRecorder::to_jsonl`) between solves.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The session's layered configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The execution strategy the session resolved to.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Number of live links.
    pub fn len(&self) -> usize {
        self.universe.len()
    }

    /// Whether no links are live.
    pub fn is_empty(&self) -> bool {
        self.universe.len() == 0
    }

    /// The live links in the backend's solve order — the universe
    /// [`Session::solve`]'s schedule indexes into, ids relabeled to
    /// `0..len()`. Static and sharded backends order by ascending key; the
    /// engine backend exposes the engine's slot order (stable per link, but
    /// a recycled slot can place a newer link before an older one), exactly
    /// like the legacy engine path.
    pub fn links(&self) -> Vec<Link> {
        self.universe.links().to_vec()
    }

    /// Whether `key` names a live link.
    pub fn contains(&self, key: u64) -> bool {
        self.backend.position(&self.universe, key).is_some()
    }

    /// Event accounting.
    pub fn stats(&self) -> SessionStats {
        let counts = self.universe.counts;
        SessionStats {
            backend: self.backend.kind(),
            links: self.universe.len(),
            inserts: counts.inserts,
            removals: counts.removals,
            moves: counts.moves,
        }
    }

    /// The warm repair state by vertex position in solve order, as a
    /// snapshot would capture it (`None` for backends without one, or
    /// before the first repair-enabled solve). An owned copy: the live
    /// budgets sit in the slot index's per-slot columns, and this
    /// materialises them per position. Test-only introspection for the
    /// warm-state invariant suite.
    #[doc(hidden)]
    pub fn warm_state(&self) -> Option<WarmState> {
        self.universe.repair.as_ref().map(RepairState::warm)
    }

    /// Inserts a link, returning its session key.
    ///
    /// # Panics
    ///
    /// Panics, before anything changes, when an endpoint has a NaN or
    /// infinite coordinate; [`Session::apply_events`] refuses such an
    /// insert with [`SessionError::NonFinite`] instead. With
    /// [`PartitionHints`], panics when the link's length falls outside the
    /// declared bounds (they size the tiling's halo margin).
    pub fn insert(&mut self, sender: Point, receiver: Point) -> u64 {
        assert_finite("insert sender", sender);
        assert_finite("insert receiver", receiver);
        self.universe
            .insert(self.backend.as_mut(), Link::new(0, sender, receiver))
    }

    /// Inserts a link that records the pointset nodes it connects, so it
    /// follows [`Session::move_node`] events.
    ///
    /// # Panics
    ///
    /// Same contract as [`Session::insert`].
    pub fn insert_with_nodes(
        &mut self,
        sender: Point,
        receiver: Point,
        sender_node: NodeId,
        receiver_node: NodeId,
    ) -> u64 {
        assert_finite("insert sender", sender);
        assert_finite("insert receiver", receiver);
        let link = Link::with_nodes(0, sender, receiver, sender_node, receiver_node);
        self.universe.insert(self.backend.as_mut(), link)
    }

    /// Removes the link under `key`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
    pub fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        self.universe.remove(self.backend.as_mut(), key)
    }

    /// Moves the link under `key` to a new geometry (key and node
    /// annotations are preserved).
    ///
    /// # Errors
    ///
    /// [`SessionError::NonFinite`] (index 0, `what` `"relocate sender"` or
    /// `"relocate receiver"`) when a point has a NaN or infinite
    /// coordinate, and [`SessionError::UnknownKey`] when no live link has
    /// this key; either way nothing changes.
    ///
    /// # Panics
    ///
    /// With [`PartitionHints`], panics when the new length falls outside
    /// the declared bounds.
    pub fn relocate(
        &mut self,
        key: u64,
        sender: Point,
        receiver: Point,
    ) -> Result<(), SessionError> {
        check_point(0, "relocate sender", sender)?;
        check_point(0, "relocate receiver", receiver)?;
        self.universe
            .relocate(self.backend.as_mut(), key, sender, receiver)
    }

    /// Moves a pointset node: every live link inserted with a matching node
    /// annotation follows (a half-annotated link follows its one annotated
    /// endpoint). Returns the number of links touched.
    ///
    /// # Panics
    ///
    /// Panics, before anything changes, when `to` has a NaN or infinite
    /// coordinate; [`Session::apply_events`] refuses such a move with
    /// [`SessionError::NonFinite`] instead. With [`PartitionHints`],
    /// panics when a followed link's new length falls outside the declared
    /// bounds; links of the node relocated before the offending one stay
    /// moved (declared-bounds violations are programmer errors, not
    /// recoverable events).
    pub fn move_node(&mut self, node: usize, to: Point) -> usize {
        assert_finite("move target", to);
        self.universe.move_node(self.backend.as_mut(), node, to)
    }

    /// Replays engine events (a `wagg_engine::EngineTrace`'s `events`,
    /// whole or in part) through the session's event API, binding trace
    /// keys to session keys. The binding persists across calls, so a trace
    /// can be replayed in pieces (e.g. one mobility step at a time, solving
    /// in between), on every backend; `wagg_engine::run_trace` replays a
    /// whole trace into a bare engine. Node annotations are kept as given,
    /// a lone one included. Returns the number of events applied.
    ///
    /// # Errors
    ///
    /// [`SessionError::NonFinite`] when an `Insert` endpoint or a
    /// `MoveNode` target is NaN or infinite; the batch is checked first, so
    /// none of it applies. [`SessionError::UnknownKey`] carrying the trace
    /// key when a `Remove` names a trace key that is not live (including
    /// double-removes, and bindings whose session key [`Session::remove`]
    /// already removed); events before the failing one stay applied.
    pub fn apply_events(&mut self, events: &[EngineEvent]) -> Result<usize, SessionError> {
        check_events(events)?;
        for event in events {
            match *event {
                EngineEvent::Insert {
                    key,
                    sender,
                    receiver,
                    sender_node,
                    receiver_node,
                } => {
                    let mut link = Link::new(0, sender, receiver);
                    link.sender_node = sender_node.map(NodeId);
                    link.receiver_node = receiver_node.map(NodeId);
                    let session_key = self.universe.insert(self.backend.as_mut(), link);
                    self.trace_keys.insert(key, session_key);
                }
                EngineEvent::Remove { key } => {
                    self.trace_keys
                        .remove(&key)
                        .and_then(|bound| self.remove(bound).ok())
                        .ok_or(SessionError::UnknownKey { key })?;
                }
                EngineEvent::MoveNode { node, to } => {
                    self.move_node(node, to);
                }
            }
        }
        Ok(events.len())
    }

    /// The session key currently bound to a trace key, if live.
    pub fn trace_key(&self, key: u64) -> Option<u64> {
        self.trace_keys.get(&key).copied()
    }

    /// Materialises the session's full state — config, backend kind, the
    /// universe with stable keys in solve order, key counter, event
    /// accounting, warm repair state, trace-key bindings, and the
    /// flight-recorder ring as its JSONL fold — into a plain-data
    /// [`SessionState`] (see [`state`]). The inverse is
    /// [`Session::restore_state`]; `wagg-wire` carries the state as the
    /// snapshot frame.
    pub fn capture_state(&self) -> SessionState {
        let mut trace_keys: Vec<(u64, u64)> =
            self.trace_keys.iter().map(|(&t, &s)| (t, s)).collect();
        trace_keys.sort_unstable();
        SessionState {
            trace_keys,
            telemetry: self.flight.is_enabled().then(|| state::TelemetryState {
                config: self.flight.config(),
                log: self.flight.to_jsonl(),
            }),
            ..self.universe.capture(self.config, self.backend.kind())
        }
    }

    /// Rebuilds a live session from captured state: the universe first,
    /// then the backend from its links in solve order. Engines are
    /// re-materialised through the bulk seeding paths
    /// (`InterferenceEngine::with_links`, `PartitionedEngine::with_links`)
    /// and the warm repair state is re-attached, so the restored session's
    /// next [`Session::solve`] is **byte-identical** to the solve the
    /// captured session would have produced — restart in seconds, not
    /// re-solve. The event accounting carries over. The flight-recorder
    /// ring is replayed from its JSONL fold. Not restored: installed
    /// [`Recorder`]s (install a fresh one).
    ///
    /// # Errors
    ///
    /// A [`RestoreError`] naming the structural inconsistency when the
    /// state was hand-built or decoded from hostile bytes — restoration
    /// validates everything up front and never panics.
    pub fn restore_state(state: &SessionState) -> Result<Self, RestoreError> {
        state::check(state)?;
        let flight = match &state.telemetry {
            Some(t) => {
                let (flight, _stats) =
                    wagg_obs::export::replay(&t.log, t.config).map_err(RestoreError::Telemetry)?;
                flight
            }
            None => FlightRecorder::disabled(),
        };
        Ok(Session::assemble(
            state.config,
            state.backend,
            Universe::restore(state),
            state.trace_keys.iter().copied().collect(),
            flight,
        ))
    }

    /// Schedules the current link universe with the resolved backend and
    /// returns the unified report (schedule, analysis quantities, backend
    /// provenance, sharding accounting).
    ///
    /// With [`RepairPolicy::enabled`] in the config, repair-capable backends
    /// warm-start: the previous assignment is kept and only the links the
    /// events unplaced are re-placed (see [`RepairStats`] on the report for
    /// the decision and accounting). Backends without incremental state
    /// recolor as always, tagged [`RepairDecision::Unsupported`].
    ///
    /// With a [`Recorder`] installed ([`SessionBuilder::recorder`]), the
    /// report additionally carries the recorder's cumulative [`Metrics`]
    /// snapshot in [`SolveReport::metrics`], and the solve's wall time
    /// lands in the recorder's `session.solve_ns` histogram. With a
    /// [`FlightRecorder`] installed ([`SessionBuilder::flight_recorder`]),
    /// the solve additionally feeds one [`SolveSample`] into the telemetry
    /// ring and the report carries the current [`HealthReport`] in
    /// [`SolveReport::health`].
    pub fn solve(&mut self) -> SolveReport {
        // Timing only matters to the instrumentation sinks; skip the clock
        // reads entirely on the bare path.
        let t0 =
            (self.recorder.is_enabled() || self.flight.is_enabled()).then(std::time::Instant::now);
        let report = if self.config.repair.enabled {
            backend::solve_repair(
                &mut self.universe,
                self.backend.as_ref(),
                &self.config.repair,
                &self.recorder,
            )
        } else {
            self.backend.solve(&self.universe, &self.recorder).0
        };
        let wall_nanos = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        // The wall histogram must land before the snapshot so the metrics
        // attached to this report already contain this solve.
        self.recorder.observe("session.solve_ns", wall_nanos);
        // The snapshot is cumulative over the recorder's lifetime (empty —
        // and dropped — for the default disabled recorder).
        let metrics = self.recorder.metrics();
        let mut report = report.with_metrics(metrics.clone());
        if self.flight.is_enabled() {
            // The recorder's verifier counters are cumulative; the flight
            // recorder samples per-solve deltas.
            let fallbacks = metrics.counter("verifier.exact_fallbacks").unwrap_or(0);
            let evictions = metrics.counter("verifier.evictions").unwrap_or(0);
            let sample = SolveSample {
                seq: 0, // assigned by `record`
                wall_nanos,
                backend: report.backend,
                links: report.num_links() as u64,
                slots: report.slots() as u64,
                exact_fallbacks: fallbacks.saturating_sub(self.flight_fallbacks),
                evictions: evictions.saturating_sub(self.flight_evictions),
                repair: report.repair.as_ref().map(|r| wagg_obs::RepairSample {
                    decision: r.decision,
                    dirty: r.dirty_links as u64,
                    replaced: r.replaced_links as u64,
                    drift: r.drift,
                }),
                sharding: report.sharding.as_ref().map(|s| wagg_obs::ShardSample {
                    max_owned: s.max_owned as u64,
                    mean_owned: s.mean_owned,
                    ghost_fraction: s.ghost_fraction,
                }),
            };
            self.flight_fallbacks = fallbacks;
            self.flight_evictions = evictions;
            self.flight.record(sample);
            report = report.with_health(self.flight.health());
        }
        report
    }
}

/// The session's one link universe: the stable session keys and the live
/// links in the backend's **solve order** (ids relabeled to positions), the
/// key counter, the event accounting and — once a repair-enabled solve
/// anchors it — the warm repair state. Every event splices all of them in
/// lockstep, so positions stay current without any per-solve rebuild; the
/// backend hears of each event at a position the universe already resolved.
#[derive(Debug)]
struct Universe {
    /// The scheduler core the path-loss parts are priced under.
    scheduler: SchedulerConfig,
    /// Position → session key, in solve order.
    keys: Vec<u64>,
    /// The live links in solve order, ids relabeled to positions, node
    /// annotations preserved.
    links: Vec<Link>,
    /// The key the next insert mints; keys are never reused.
    next_key: u64,
    counts: EventCounts,
    /// The warm repair state, from the first full recolor of a
    /// repair-enabled solve (or a restored snapshot) on.
    repair: Option<RepairState>,
}

/// The anchored repair state, position-indexed like the universe's links.
/// A removal drops a link's color and its slot-index entry (record and
/// budget included) together, so no stale entry can outlive its link.
#[derive(Debug)]
struct RepairState {
    /// The extreme link lengths (the report's diversity).
    lengths: LengthRange,
    /// Position → committed slot; `None` marks a link the last committed
    /// schedule has not placed.
    colors: Vec<Option<usize>>,
    /// Schedule length of the last full recolor.
    baseline_slots: usize,
    /// Slot membership of `colors`; its unassigned list is the set of
    /// links the last commit has not placed. Under a pinned assignment it
    /// is priced (see [`pinned_assignment`]): the one copy of the records
    /// and warm budgets the additive admission reads.
    index: SlotIndex,
}

impl RepairState {
    /// The warm state as snapshot data, budgets materialised per position.
    fn warm(&self) -> WarmState {
        WarmState {
            colors: self.colors.clone(),
            budgets: self.index.budgets(),
            baseline_slots: self.baseline_slots,
        }
    }
}

impl Universe {
    /// A universe seeded with `links` (keys `0..n` in input order, node
    /// annotations kept exactly as given).
    fn seeded(scheduler: SchedulerConfig, links: Vec<Link>) -> Self {
        let n = links.len();
        Universe::new(
            scheduler,
            (0..n as u64).collect(),
            links,
            n as u64,
            EventCounts {
                inserts: n,
                ..EventCounts::default()
            },
        )
    }

    /// The universe a validated (see [`state::check`]) snapshot describes,
    /// its warm state re-anchored. Each link is rebuilt from its endpoints
    /// with `Link::new`, node annotations kept, as the wire decoder builds
    /// it: a captured link whose endpoint was moved in place (the fields are
    /// public) carries a stale cached length, and the rebuild measures it
    /// afresh.
    fn restore(state: &SessionState) -> Self {
        let rebuild = |link: &Link| {
            let mut fresh = Link::new(link.id.index(), link.sender, link.receiver);
            (fresh.sender_node, fresh.receiver_node) = (link.sender_node, link.receiver_node);
            fresh
        };
        let mut universe = Universe::new(
            state.config.scheduler,
            state.links.iter().map(|k| k.key).collect(),
            state.links.iter().map(|k| rebuild(&k.link)).collect(),
            state.next_key,
            state.counts,
        );
        if let Some(warm) = &state.warm {
            universe.install(warm.clone());
        }
        universe
    }

    fn new(
        scheduler: SchedulerConfig,
        keys: Vec<u64>,
        links: Vec<Link>,
        next_key: u64,
        counts: EventCounts,
    ) -> Self {
        let mut universe = Universe {
            scheduler,
            keys,
            links,
            next_key,
            counts,
            repair: None,
        };
        universe.relabel(0);
        universe
    }

    /// Number of live links.
    fn len(&self) -> usize {
        self.links.len()
    }

    /// The live links in solve order, ids relabeled to positions.
    fn links(&self) -> &[Link] {
        &self.links
    }

    /// The universe as snapshot data for a `backend` session under
    /// `config` (no trace bindings or telemetry — the session adds those).
    fn capture(&self, config: SessionConfig, backend: BackendKind) -> SessionState {
        SessionState {
            config,
            backend,
            links: self
                .keys
                .iter()
                .zip(&self.links)
                .map(|(&key, &link)| KeyedLink { key, link })
                .collect(),
            next_key: self.next_key,
            counts: self.counts,
            warm: self.repair.as_ref().map(RepairState::warm),
            trace_keys: Vec::new(),
            telemetry: None,
        }
    }

    /// Inserts `link` (annotations as given), returning its key.
    fn insert(&mut self, backend: &mut dyn Solver, mut link: Link) -> u64 {
        let key = self.next_key;
        let pos = backend.insert(self, key, &link);
        self.next_key += 1;
        self.counts.inserts += 1;
        link.id = LinkId(pos);
        self.keys.insert(pos, key);
        self.links.insert(pos, link);
        self.relabel(pos + 1);
        if let Some(state) = &mut self.repair {
            state.lengths.add(link.length());
            state.colors.insert(pos, None);
            state
                .index
                .insert(pos, record(&self.scheduler, &link).as_ref());
        }
        key
    }

    /// Removes the link under `key`.
    fn remove(&mut self, backend: &mut dyn Solver, key: u64) -> Result<(), SessionError> {
        let pos = self.position(backend, key)?;
        backend.remove(self, pos);
        self.counts.removals += 1;
        self.keys.remove(pos);
        let link = self.links.remove(pos);
        self.relabel(pos);
        if let Some(state) = &mut self.repair {
            // Departures are monotone-safe: no other link needs re-placing.
            state.index.remove(pos, state.colors.remove(pos));
            if state.lengths.remove(link.length()) {
                state.lengths = LengthRange::of(&self.links);
            }
        }
        Ok(())
    }

    /// Moves the link under `key` to a new geometry (key and node
    /// annotations are preserved).
    fn relocate(
        &mut self,
        backend: &mut dyn Solver,
        key: u64,
        sender: Point,
        receiver: Point,
    ) -> Result<(), SessionError> {
        let pos = self.position(backend, key)?;
        self.reseat(backend, pos, sender, receiver);
        self.counts.moves += 1;
        Ok(())
    }

    /// Moves a pointset node: every live link with an endpoint annotated
    /// `node` follows (a half-annotated link follows its one annotated
    /// endpoint). Returns the number of links touched.
    fn move_node(&mut self, backend: &mut dyn Solver, node: usize, to: Point) -> usize {
        let followers = backend.followers(self, node);
        let follow = |annotation, at| {
            if annotation == Some(NodeId(node)) {
                to
            } else {
                at
            }
        };
        for &pos in &followers {
            let old = self.links[pos];
            let sender = follow(old.sender_node, old.sender);
            let receiver = follow(old.receiver_node, old.receiver);
            self.reseat(backend, pos, sender, receiver);
        }
        self.counts.moves += 1;
        followers.len()
    }

    /// The solve-order position of `key`.
    fn position(&self, backend: &dyn Solver, key: u64) -> Result<usize, SessionError> {
        backend
            .position(self, key)
            .ok_or(SessionError::UnknownKey { key })
    }

    /// Re-seats position `pos` at a new geometry — id and annotations
    /// preserved — and unplaces its warm entry.
    fn reseat(&mut self, backend: &mut dyn Solver, pos: usize, sender: Point, receiver: Point) {
        let old = self.links[pos];
        let mut link = Link::new(pos, sender, receiver);
        link.sender_node = old.sender_node;
        link.receiver_node = old.receiver_node;
        backend.reseat(self, pos, &link);
        self.links[pos] = link;
        if let Some(state) = &mut self.repair {
            let record = record(&self.scheduler, &link);
            state
                .index
                .reseat(pos, state.colors[pos].take(), record.as_ref());
            state.lengths.add(link.length());
            if state.lengths.remove(old.length()) {
                state.lengths = LengthRange::of(&self.links);
            }
        }
    }

    /// Positions of the links with an endpoint annotated `node`, found by
    /// scanning every link.
    fn followers(&self, node: usize) -> Vec<usize> {
        let node = Some(NodeId(node));
        (0..self.links.len())
            .filter(|&pos| {
                let link = &self.links[pos];
                link.sender_node == node || link.receiver_node == node
            })
            .collect()
    }

    /// Re-derives the relabeled ids from `from` onward after a splice.
    fn relabel(&mut self, from: usize) {
        for (pos, link) in self.links.iter_mut().enumerate().skip(from) {
            link.id = LinkId(pos);
        }
    }

    /// Anchors `warm` over the current links, building the length
    /// extremes and the slot index, priced with the links' records under
    /// a pinned assignment (the one O(n) index build, once per anchoring).
    fn install(&mut self, warm: WarmState) {
        self.repair = Some(RepairState {
            lengths: LengthRange::of(&self.links),
            index: slot_index(&self.scheduler, &self.links, &warm.colors, &warm.budgets),
            colors: warm.colors,
            baseline_slots: warm.baseline_slots,
        });
    }

    /// Re-anchors the warm state on a full recolor's report, overwriting
    /// whatever a breaching repair left. Under a pinned assignment the
    /// budgets are the certified verifier's per-member totals: a slot takes
    /// the `totals` the recolor's own verification pass handed over for it,
    /// and [`recolor_budgets`] prices the rest, counting them in
    /// `anchor.slots_priced`. Debug builds check the result against a
    /// from-scratch capture bit for bit. Recorded as an `anchor` span with
    /// `budgets` and `index` children.
    fn anchor(&mut self, solve: &SolveReport, totals: &[Option<Vec<f64>>], rec: &Recorder) {
        let span = rec.span("anchor");
        let config = self.scheduler;
        self.repair = None;
        let budgets_span = span.child("budgets");
        let slots = solve.schedule().slots();
        let (budgets, priced) = match pinned_assignment(&config) {
            Some(assignment) => {
                let (budgets, priced) =
                    recolor_budgets(&config, &self.links, &assignment, slots, totals);
                if cfg!(debug_assertions) && priced < slots.len() {
                    let (scratch, _) =
                        recolor_budgets(&config, &self.links, &assignment, slots, &[]);
                    let bits = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert!(
                        bits(&budgets) == bits(&scratch),
                        "handed-over budgets diverge from a from-scratch capture"
                    );
                }
                (budgets, priced)
            }
            None => (vec![0.0; self.links.len()], 0),
        };
        rec.add("anchor.slots_priced", priced as u64);
        budgets_span.finish();
        let index_span = span.child("index");
        self.install(WarmState::capture(&solve.report, budgets));
        index_span.finish();
        span.finish();
    }
}

/// The shortest and longest link length of a universe and how many links
/// hold each — what `link_diversity` folds, kept current per splice. Only
/// the departure of an extreme's last holder needs a re-fold.
#[derive(Debug, Clone, Copy)]
struct LengthRange {
    min: f64,
    min_count: usize,
    max: f64,
    max_count: usize,
}

impl LengthRange {
    /// The extremes of `links`, folded from scratch.
    fn of(links: &[Link]) -> Self {
        let mut range = LengthRange {
            min: f64::INFINITY,
            min_count: 0,
            max: f64::NEG_INFINITY,
            max_count: 0,
        };
        for link in links {
            range.add(link.length());
        }
        range
    }

    /// Counts a link of this length in.
    fn add(&mut self, length: f64) {
        // `link_diversity`'s `f64::min`/`max` fold skips NaN; so does this.
        if length.is_nan() {
            return;
        }
        if length < self.min {
            (self.min, self.min_count) = (length, 1);
        } else if length == self.min {
            self.min_count += 1;
        }
        if length > self.max {
            (self.max, self.max_count) = (length, 1);
        } else if length == self.max {
            self.max_count += 1;
        }
    }

    /// Counts a link of this length out; `true` when an extreme lost its
    /// last holder and the caller must re-fold.
    fn remove(&mut self, length: f64) -> bool {
        let mut stale = false;
        if length == self.min {
            self.min_count -= 1;
            stale |= self.min_count == 0;
        }
        if length == self.max {
            self.max_count -= 1;
            stale |= self.max_count == 0;
        }
        stale
    }

    /// The universe's length diversity as the report states it
    /// (`link_diversity(links)`, 1 when undefined).
    fn diversity(&self, links: &[Link]) -> f64 {
        let diversity = (self.min > 0.0 && self.min.is_finite() && self.max.is_finite())
            .then(|| self.max / self.min);
        debug_assert_eq!(
            diversity,
            link_diversity(links),
            "length extremes diverged from the links"
        );
        diversity.unwrap_or(1.0)
    }
}

/// Per-vertex warm budgets for a freshly recolored schedule's `slots`, and
/// how many slots this priced itself. Slot `s` takes `handed[s]` when the
/// recolor's verification pass handed its totals over; every other slot is
/// priced through the certified verifier (near-linear per slot — certified
/// upper bounds are exactly what the additive repair
/// contract wants, and on a just-verified schedule every budget lands
/// within `1/β`). The verifier's parts come from a [`PathLossCache`] of the
/// links under `assignment`, built only when some slot needs pricing. With
/// `handed` empty this is the from-scratch capture.
fn recolor_budgets(
    config: &SchedulerConfig,
    links: &[Link],
    assignment: &PowerAssignment,
    slots: &[Vec<usize>],
    handed: &[Option<Vec<f64>>],
) -> (Vec<f64>, usize) {
    debug_assert!(handed.is_empty() || handed.len() == slots.len());
    let mut budgets = vec![0.0f64; links.len()];
    let mut unpriced: Vec<&[usize]> = Vec::new();
    for (s, slot) in slots.iter().enumerate() {
        match handed.get(s).and_then(Option::as_deref) {
            Some(totals) => {
                debug_assert_eq!(totals.len(), slot.len(), "one total per member");
                for (&i, &b) in slot.iter().zip(totals) {
                    budgets[i] = b;
                }
            }
            None => unpriced.push(slot),
        }
    }
    if !unpriced.is_empty() {
        let (powers, weights) = PathLossCache::new(&config.model, links, assignment).into_parts();
        let verifier = AffectanceVerifier::new(&config.model, links, &powers, &weights);
        for slot in &unpriced {
            for (&i, b) in slot.iter().zip(verifier.budgets(slot)) {
                budgets[i] = b;
            }
        }
    }
    (budgets, unpriced.len())
}

/// The power assignment `config`'s mode pins under a noise-free model with
/// slot verification on — when the additive admission (and the path-loss
/// parts it reads) applies. `None` otherwise: the opaque probe path never
/// reads the parts, and verification off needs no budgets.
fn pinned_assignment(config: &SchedulerConfig) -> Option<PowerAssignment> {
    (config.verify_slots && config.model.noise() == 0.0)
        .then(|| config.mode.assignment())
        .flatten()
}

/// The records [`PathLossCache::priced`] builds for `links` under
/// `config`'s pinned assignment; `None` when none is pinned.
fn records(config: &SchedulerConfig, links: &[Link]) -> Option<Vec<PricedLink>> {
    pinned_assignment(config)
        .map(|assignment| PathLossCache::new(&config.model, links, &assignment).priced())
}

/// One link's entry of [`records`]. The cache computes entries per link
/// independently, so one event can price one link without touching the
/// rest — the same single-link trick the interference engine's event
/// maintenance uses.
fn record(config: &SchedulerConfig, link: &Link) -> Option<PricedLink> {
    records(config, std::slice::from_ref(link)).map(|records| records[0])
}

/// The slot index of `colors` over `links` built from scratch: priced with
/// the links' [`records`] and the placed positions' `budgets` under a
/// pinned assignment, positions only otherwise.
fn slot_index(
    config: &SchedulerConfig,
    links: &[Link],
    colors: &[Option<usize>],
    budgets: &[f64],
) -> SlotIndex {
    match records(config, links) {
        Some(records) => SlotIndex::with_records(colors, &records, budgets),
        None => SlotIndex::from_colors(colors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_schedule::PowerMode;

    fn grid_links(n: usize, spacing: f64) -> Vec<Link> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| {
                let x = (i % side) as f64 * spacing;
                let y = (i / side) as f64 * spacing;
                Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
            })
            .collect()
    }

    #[test]
    fn auto_resolution_pins_the_bench_derived_thresholds() {
        let config = SessionConfig::default();
        // Small static instances stay on the from-scratch kernel.
        assert_eq!(config.resolved_backend(0), BackendKind::Static);
        assert_eq!(
            config.resolved_backend(AUTO_SHARDED_THRESHOLD - 1),
            BackendKind::Static
        );
        // The bench crossover: sharded from 50k links up.
        assert_eq!(
            config.resolved_backend(AUTO_SHARDED_THRESHOLD),
            BackendKind::Sharded
        );
        assert_eq!(config.resolved_backend(100_000), BackendKind::Sharded);
        assert_eq!(config.resolved_backend(1_000_000), BackendKind::Sharded);

        // Churn expectation steers small instances to the engine...
        let churny = SessionConfig {
            expect_churn: true,
            ..SessionConfig::default()
        };
        assert_eq!(churny.resolved_backend(100), BackendKind::Engine);
        // ...but scale still wins.
        assert_eq!(churny.resolved_backend(200_000), BackendKind::Sharded);

        // Partition hints force the sharded backend at any size.
        let hinted = SessionConfig {
            partition: Some(PartitionHints {
                extent: BoundingBox::new(0.0, 0.0, 100.0, 100.0),
                length_bounds: (1.0, 2.0),
            }),
            ..SessionConfig::default()
        };
        assert_eq!(hinted.resolved_backend(10), BackendKind::Sharded);

        // Explicit backends resolve to themselves regardless.
        for (backend, kind) in [
            (Backend::Static, BackendKind::Static),
            (Backend::Engine, BackendKind::Engine),
            (Backend::Sharded, BackendKind::Sharded),
        ] {
            let explicit = SessionConfig {
                backend,
                ..SessionConfig::default()
            };
            assert_eq!(explicit.resolved_backend(1_000_000), kind);
            assert_eq!(explicit.resolved_backend(0), kind);
        }
    }

    #[test]
    fn effective_shards_defaults_to_the_bench_sweet_spot() {
        assert_eq!(SessionConfig::default().effective_shards(), 16);
        let explicit = SessionConfig {
            target_shards: 4,
            ..SessionConfig::default()
        };
        assert_eq!(explicit.effective_shards(), 4);
    }

    #[test]
    fn every_backend_speaks_the_same_event_api() {
        let configs = [
            Session::builder().backend(Backend::Static),
            Session::builder().backend(Backend::Engine),
            Session::builder().backend(Backend::Sharded),
            Session::builder()
                .backend(Backend::Sharded)
                .partition_hints(BoundingBox::new(0.0, 0.0, 100.0, 100.0), (0.5, 2.0)),
        ];
        for builder in configs {
            let mut session = builder
                .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
                .build();
            let kind = session.backend_kind();
            let a = session.insert(Point::new(10.0, 10.0), Point::new(11.0, 10.0));
            let b = session.insert(Point::new(60.0, 60.0), Point::new(61.0, 60.0));
            let c = session.insert_with_nodes(
                Point::new(30.0, 30.0),
                Point::new(31.0, 30.0),
                NodeId(7),
                NodeId(8),
            );
            assert_eq!(session.len(), 3, "{kind}");
            assert!(session.contains(a) && session.contains(b) && session.contains(c));

            // Annotated links follow node moves; unannotated ones do not.
            // (The move keeps the link inside the hinted length bounds.)
            assert_eq!(session.move_node(7, Point::new(31.8, 30.6)), 1, "{kind}");
            assert_eq!(session.move_node(99, Point::new(0.0, 0.0)), 0, "{kind}");
            let links = session.links();
            let moved = links
                .iter()
                .find(|l| l.sender_node == Some(NodeId(7)))
                .expect("annotated link survives the move");
            assert_eq!(moved.sender, Point::new(31.8, 30.6), "{kind}");

            session
                .relocate(b, Point::new(80.0, 80.0), Point::new(81.0, 80.0))
                .unwrap();
            session.remove(a).unwrap();
            assert_eq!(
                session.remove(a),
                Err(SessionError::UnknownKey { key: a }),
                "{kind}"
            );
            assert_eq!(session.len(), 2, "{kind}");

            let report = session.solve();
            assert_eq!(report.backend, kind);
            assert_eq!(report.num_links(), 2, "{kind}");
            assert!(report.schedule().is_partition(2), "{kind}");
            assert_eq!(report.sharding.is_some(), kind == BackendKind::Sharded);

            // One accounting on every backend: 3 inserts, 1 removal, and
            // 3 moves (two node moves, one of them touching nothing, plus
            // one relocation).
            assert_eq!(
                session.stats(),
                SessionStats {
                    backend: kind,
                    links: 2,
                    inserts: 3,
                    removals: 1,
                    moves: 3,
                }
            );
        }
    }

    #[test]
    fn seeded_sessions_schedule_their_universe() {
        let mut links = grid_links(48, 7.0);
        // Half-annotated: only the sender follows node 7.
        let mut half = Link::new(48, Point::new(3.0, 52.0), Point::new(4.0, 52.0));
        half.sender_node = Some(NodeId(7));
        links.push(half);
        let configs = [
            Session::builder().backend(Backend::Static),
            Session::builder().backend(Backend::Engine),
            Session::builder().backend(Backend::Sharded),
            Session::builder()
                .backend(Backend::Sharded)
                .partition_hints(BoundingBox::new(0.0, 0.0, 60.0, 60.0), (0.5, 2.0)),
        ];
        for builder in configs {
            let mut session = builder
                .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
                .links(&links)
                .build();
            let kind = session.backend_kind();
            assert_eq!(session.len(), links.len());
            let report = session.solve();
            assert!(report.schedule().is_partition(links.len()));
            let universe = session.links();
            assert!(report.schedule().verify(
                &universe,
                &session.config().scheduler.model,
                session.config().scheduler.mode
            ));

            // A relocation re-seats the link; its one annotation must
            // survive that too, or the node move below misses it.
            let receiver = Point::new(4.1, 52.1);
            session
                .relocate(links.len() as u64 - 1, Point::new(3.1, 52.1), receiver)
                .unwrap();
            let to = Point::new(3.2, 52.3);
            assert_eq!(session.move_node(7, to), 1, "{kind}");
            let moved = session
                .links()
                .into_iter()
                .find(|l| l.sender_node == Some(NodeId(7)))
                .expect("the half-annotation survives seeding and relocation");
            assert_eq!(moved.sender, to, "{kind}");
            assert_eq!(moved.receiver, receiver, "{kind}");
        }
    }

    #[test]
    fn traces_replay_uniformly_and_bindings_persist() {
        let trace = wagg_engine::churn_trace(30, 20, 11);
        let mut reference: Option<Vec<Link>> = None;
        for backend in [Backend::Static, Backend::Engine, Backend::Sharded] {
            let mut session = Session::builder()
                .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
                .backend(backend)
                .build();
            // Replay in two pieces: bindings must survive the split.
            let (head, tail) = trace.events.split_at(trace.events.len() / 2);
            session.apply_events(head).unwrap();
            session.apply_events(tail).unwrap();
            assert_eq!(session.len(), 30);
            let mut geometry: Vec<(Point, Point)> = session
                .links()
                .iter()
                .map(|l| (l.sender, l.receiver))
                .collect();
            geometry.sort_by(|a, b| {
                (a.0.x, a.0.y, a.1.x, a.1.y)
                    .partial_cmp(&(b.0.x, b.0.y, b.1.x, b.1.y))
                    .unwrap()
            });
            match &reference {
                None => {
                    reference = Some(geometry.iter().map(|&(s, r)| Link::new(0, s, r)).collect())
                }
                Some(reference) => {
                    let ref_geometry: Vec<(Point, Point)> =
                        reference.iter().map(|l| (l.sender, l.receiver)).collect();
                    assert_eq!(geometry, ref_geometry, "{backend:?} diverged");
                }
            }
            // Unknown trace keys are rejected uniformly.
            assert_eq!(
                session.apply_events(&[EngineEvent::Remove { key: 999_999 }]),
                Err(SessionError::UnknownKey { key: 999_999 })
            );

            // A lone sender annotation survives replay: the link follows
            // its node, and only its sender moves.
            let (node, key) = (5_000, 1_000_000);
            session
                .apply_events(&[
                    EngineEvent::Insert {
                        key,
                        sender: Point::new(90.0, 90.0),
                        receiver: Point::new(91.0, 90.0),
                        sender_node: Some(node),
                        receiver_node: None,
                    },
                    EngineEvent::MoveNode {
                        node,
                        to: Point::new(90.2, 90.3),
                    },
                ])
                .unwrap();
            let half = session
                .links()
                .into_iter()
                .find(|l| l.sender_node == Some(NodeId(node)))
                .expect("the lone annotation survives replay");
            assert_eq!(half.sender, Point::new(90.2, 90.3), "{backend:?}");
            assert_eq!(half.receiver, Point::new(91.0, 90.0), "{backend:?}");
            assert_eq!(half.receiver_node, None, "{backend:?}");
            assert_eq!(session.move_node(node, Point::new(90.1, 90.1)), 1);

            // A binding whose session key was removed directly is stale:
            // the error names the trace key, not the session key.
            let bound = session.trace_key(key).expect("bound by the insert");
            session.remove(bound).unwrap();
            assert_eq!(
                session.apply_events(&[EngineEvent::Remove { key }]),
                Err(SessionError::UnknownKey { key })
            );
        }
    }

    /// The observability contract: installing a recorder changes *nothing*
    /// about the schedule — every backend, with and without repair, produces
    /// slot-for-slot identical output, and the instrumented report carries a
    /// metrics snapshot naming the backend's own phases.
    #[test]
    fn recorder_is_pure_observation_across_backends() {
        let links = grid_links(60, 7.0);
        for backend in [Backend::Static, Backend::Engine, Backend::Sharded] {
            let builder = || {
                Session::builder()
                    .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
                    .backend(backend)
                    .links(&links)
            };
            let mut plain = builder().build();
            let rec = Recorder::new();
            let mut traced = builder().recorder(rec.clone()).build();

            let baseline = plain.solve();
            let observed = traced.solve();
            assert_eq!(
                observed.report, baseline.report,
                "{backend:?} drifted under observation"
            );
            assert_eq!(observed.sharding, baseline.sharding, "{backend:?}");
            assert_eq!(baseline.metrics, None, "{backend:?}");

            // Churn + second solve: still identical.
            let k1 = plain.insert(Point::new(3.5, 3.5), Point::new(4.5, 3.5));
            let k2 = traced.insert(Point::new(3.5, 3.5), Point::new(4.5, 3.5));
            assert_eq!(k1, k2);
            assert_eq!(
                traced.solve().report,
                plain.solve().report,
                "{backend:?} drifted after churn"
            );

            let m = traced
                .solve()
                .metrics
                .expect("instrumented solve carries metrics");
            let expected_root = match backend {
                Backend::Static => "static",
                // The engine backend's solve runs the static kernel on the
                // maintained snapshot.
                Backend::Engine => "static",
                Backend::Sharded => "partition",
                Backend::Auto => unreachable!(),
            };
            assert!(
                m.phase(expected_root).is_some(),
                "{backend:?} metrics missing root phase {expected_root:?}: {:?}",
                m.phases.iter().map(|p| &p.path).collect::<Vec<_>>()
            );
            assert_eq!(m, traced.recorder().metrics());
        }
    }

    #[test]
    fn repair_solves_record_repair_phases() {
        let mut session = Session::builder()
            .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
            .backend(Backend::Engine)
            .repair(RepairPolicy::enabled())
            .links(&grid_links(40, 7.0))
            .build();
        let rec = Recorder::new();
        session.set_recorder(rec.clone());
        session.solve(); // cold start anchors the warm baseline
        session.insert(Point::new(2.0, 9.0), Point::new(3.0, 9.0));
        let report = session.solve();
        assert_eq!(
            report.repair.as_ref().map(|r| r.decision),
            Some(RepairDecision::Repaired)
        );
        let m = report.metrics.expect("instrumented solve carries metrics");
        assert!(m.phase("repair").is_some());
        assert!(m.phase("repair/place").is_some());
        assert!(m.phase("repair/commit").is_some());
        assert_eq!(m.counter("repair.dirty"), Some(1));
    }

    /// The anchor's exact work: `anchor.slots_priced` after one cold
    /// repair solve, the cold report, and the anchored warm budgets.
    fn cold_anchor(builder: SessionBuilder) -> (u64, SolveReport, Session) {
        let rec = Recorder::new();
        let mut session = builder
            .repair(RepairPolicy::enabled())
            .recorder(rec.clone())
            .build();
        let solve = session.solve();
        assert_eq!(
            solve.repair.map(|r| r.decision),
            Some(RepairDecision::ColdStart)
        );
        let m = rec.metrics();
        for path in ["anchor", "anchor/budgets", "anchor/index"] {
            assert!(m.phase(path).is_some(), "the anchor records {path}");
        }
        let priced = m
            .counter("anchor.slots_priced")
            .expect("the anchor counts the slots it priced");
        (priced, solve, session)
    }

    /// A hinted sharded and an engine builder over `links` under `scheduler`.
    fn engine_backends(scheduler: SchedulerConfig, links: &[Link]) -> [SessionBuilder; 2] {
        let side = links
            .iter()
            .flat_map(|l| [l.sender.x, l.sender.y, l.receiver.x, l.receiver.y])
            .fold(0.0, f64::max);
        [
            Session::builder()
                .scheduler(scheduler)
                .backend(Backend::Sharded)
                .target_shards(4)
                .partition_hints(
                    BoundingBox::new(-2.0, -2.0, side + 2.0, side + 2.0),
                    (0.5, 2.0),
                )
                .links(links),
            Session::builder()
                .scheduler(scheduler)
                .backend(Backend::Engine)
                .links(links),
        ]
    }

    fn bits(budgets: &[f64]) -> Vec<u64> {
        budgets.iter().map(|b| b.to_bits()).collect()
    }

    /// The anchor prices only the slots that arrive without totals: none on
    /// a hinted cold solve whose verification evicted nothing, every slot on
    /// the engine backend, whose exact verification keeps no totals.
    #[test]
    fn the_anchor_prices_only_slots_without_handed_totals() {
        let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious());
        let links = grid_links(400, 3.0);
        let [hinted, engine] = engine_backends(scheduler, &links);
        let (priced, solve, _) = cold_anchor(hinted);
        let sharding = solve.sharding.expect("sharded provenance");
        assert_eq!(sharding.evicted_links, 0, "the premise: nothing evicted");
        assert_eq!(priced, 0, "hinted: every slot handed over");
        let (priced, solve, _) = cold_anchor(engine);
        assert_eq!(priced, solve.slots() as u64, "engine: every slot priced");
    }

    /// Where the hinted recolor's verification evicts, the anchor prices
    /// exactly the slots `PartitionedEngine::schedule` hands over without
    /// totals (the classes that lost members and the packed slots), and
    /// every budget equals a from-scratch capture bit for bit.
    #[test]
    fn evicting_recolors_price_the_classes_that_lost_members() {
        let scheduler = SchedulerConfig::new(PowerMode::mean_oblivious())
            .with_model(wagg_sinr::SinrModel::default().with_strong_beta());
        let links = grid_links(400, 3.0);
        let [hinted, _] = engine_backends(scheduler, &links);
        let (priced, solve, session) = cold_anchor(hinted);
        let sharding = solve.sharding.expect("sharded provenance");
        assert!(sharding.evicted_links > 0, "the premise: phase 4 evicts");

        let config = session.config();
        let hints = config.partition.expect("hinted");
        let pconfig = PartitionedEngineConfig::new(
            scheduler,
            hints.extent,
            hints.length_bounds,
            config.effective_shards(),
        );
        let (report, totals) =
            wagg_partition::PartitionedEngine::with_links(pconfig, &links).schedule();
        assert_eq!(report.report, solve.report);
        let without = totals.iter().filter(|t| t.is_none()).count();
        assert!(
            without > 0 && without < solve.slots(),
            "{without} of {}",
            solve.slots()
        );
        assert_eq!(priced, without as u64);

        let assignment = pinned_assignment(&scheduler).expect("a pinned assignment");
        let (scratch, all) = recolor_budgets(
            &scheduler,
            &session.links(),
            &assignment,
            solve.schedule().slots(),
            &[],
        );
        assert_eq!(all, solve.slots());
        let warm = session.warm_state().expect("anchored");
        assert_eq!(bits(&warm.budgets), bits(&scratch));
    }

    #[test]
    fn error_display_and_source() {
        let err = SessionError::UnknownKey { key: 4 };
        assert!(err.to_string().contains("key 4"));
        assert!(err.source().is_none());
        let err = SessionError::NonFinite {
            index: 2,
            what: "move target",
        };
        assert!(err.to_string().contains("move target of item 2"));
    }
}
