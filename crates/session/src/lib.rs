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
//! * [`Session`] — a mutable link universe with a uniform event API
//!   (insert / remove / relocate / move-node, plus replayable
//!   [`EngineTrace`]s) and a single [`Session::solve`] producing the unified
//!   [`SolveReport`], regardless of backend;
//! * [`SchedulerBackend`] — the strategy trait with three implementations
//!   ([`StaticBackend`], [`EngineBackend`], [`ShardedBackend`]), each
//!   reproducing its legacy entry point slot for slot (pinned by the
//!   differential test suite);
//! * [`SessionBuilder`] / [`SessionConfig`] — one layered configuration
//!   folding `SchedulerConfig`, the engine maintenance slacks, the sharded
//!   pipeline's `VerifierStrategy` / shard count and the optional
//!   [`PartitionHints`];
//! * [`Backend::Auto`] — strategy selection from the instance itself:
//!   size, churn expectation and shard hints (thresholds derived from the
//!   `BENCH_*.json` trajectory, see [`AUTO_SHARDED_THRESHOLD`]).
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

pub use backend::{EngineBackend, SchedulerBackend, ShardedBackend, StaticBackend};
pub use state::{RestoreError, SessionState};
pub use wagg_obs::{
    FlightRecorder, HealthConfig, HealthReport, HealthSignal, Metrics, Recorder, SeriesKind,
    SignalKind, SolveSample, TelemetryConfig,
};
pub use wagg_partition::VerifierStrategy;
pub use wagg_schedule::{
    BackendKind, RepairDecision, RepairStats, SchedulerConfig, ShardingStats, SolveReport,
};

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use wagg_engine::{EngineConfig, EngineError, EngineEvent, EngineTrace};
use wagg_geometry::{BoundingBox, Point};
use wagg_partition::PartitionedEngineConfig;
use wagg_sinr::{Link, NodeId};

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
    /// Always the from-scratch kernel ([`StaticBackend`]).
    Static,
    /// Always the incremental engine ([`EngineBackend`]).
    Engine,
    /// Always the sharded pipeline ([`ShardedBackend`]).
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
/// per-backend tuning that used to live in three separate config structs
/// (`SchedulerConfig`, `EngineConfig`, `PartitionedEngineConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// The scheduler core: SINR model, power mode, slot verification.
    pub scheduler: SchedulerConfig,
    /// The execution strategy (or [`Backend::Auto`]).
    pub backend: Backend,
    /// Whether the workload is expected to churn (drives [`Backend::Auto`]
    /// towards the incremental engine).
    pub expect_churn: bool,
    /// Far-field strategy of the sharded pipeline's certified verifier.
    pub verifier: VerifierStrategy,
    /// Target shard count for the sharded backend; `0` means
    /// [`AUTO_DEFAULT_SHARDS`].
    pub target_shards: usize,
    /// Declared deployment bounds (see [`PartitionHints`]).
    pub partition: Option<PartitionHints>,
    /// Engine-layer grid rebuild slack (see `wagg_engine::EngineConfig`).
    pub grid_slack: f64,
    /// Engine-layer adjacency compaction slack.
    pub compact_slack: f64,
    /// Warm-start repair policy (see [`RepairPolicy`]; disabled by default).
    pub repair: RepairPolicy,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            scheduler: SchedulerConfig::default(),
            backend: Backend::Auto,
            expect_churn: false,
            verifier: VerifierStrategy::default(),
            target_shards: 0,
            partition: None,
            grid_slack: 0.25,
            compact_slack: 0.25,
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
    /// No live link has this session key.
    UnknownKey {
        /// The offending key.
        key: u64,
    },
    /// An underlying engine rejected the operation.
    Engine(EngineError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownKey { key } => {
                write!(f, "session key {key} does not name a live link")
            }
            SessionError::Engine(e) => write!(f, "engine rejected the event: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        SessionError::Engine(e)
    }
}

/// Event accounting across the session surface, uniform over backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// The backend the session resolved to.
    pub backend: BackendKind,
    /// Live links.
    pub links: usize,
    /// Insert events applied (backends count re-seats of moved links as the
    /// engine layer always has).
    pub inserts: usize,
    /// Remove events applied.
    pub removals: usize,
    /// Move/relocate events applied.
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

    /// Sets the sharded pipeline's far-field verifier strategy.
    pub fn verifier(mut self, strategy: VerifierStrategy) -> Self {
        self.config.verifier = strategy;
        self
    }

    /// Sets the sharded backend's target shard count.
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

    /// Overrides the engine layer's maintenance slacks.
    pub fn engine_slacks(mut self, grid_slack: f64, compact_slack: f64) -> Self {
        self.config.grid_slack = grid_slack;
        self.config.compact_slack = compact_slack;
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
    /// nothing and adds no overhead; with the workspace `obs` feature off
    /// this is a no-op whatever recorder is passed.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Installs a `wagg-obs` [`FlightRecorder`]: every [`Session::solve`]
    /// feeds it one [`SolveSample`] (wall time, backend, schedule length,
    /// repair and sharding accounting, verifier counter deltas), and each
    /// [`SolveReport`] carries the recorder's current [`HealthReport`]
    /// ([`SolveReport::health`]). The default (a disabled flight recorder)
    /// retains nothing and adds no overhead; with the workspace `obs`
    /// feature off this is a no-op whatever recorder is passed.
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
    /// With [`PartitionHints`] and a sharded backend, panics when a seeded
    /// link's length falls outside the declared bounds.
    pub fn build(self) -> Session {
        let mut session = Session::with_links(self.config, &self.links);
        if self.recorder.is_enabled() {
            session.set_recorder(self.recorder);
        }
        if self.flight.is_enabled() {
            session.set_flight_recorder(self.flight);
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
    backend: Box<dyn SchedulerBackend>,
    /// Trace key → session key, persistent across [`Session::apply_trace`]
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

    /// An empty session under `config`.
    pub fn new(config: SessionConfig) -> Self {
        Session::with_links(config, &[])
    }

    /// A session seeded with `links` (keys `0..n` in input order).
    ///
    /// # Panics
    ///
    /// Same contract as [`SessionBuilder::build`].
    pub fn with_links(config: SessionConfig, links: &[Link]) -> Self {
        let backend: Box<dyn SchedulerBackend> = match config.resolved_backend(links.len()) {
            BackendKind::Static => Box::new(StaticBackend::with_links(config.scheduler, links)),
            BackendKind::Engine => {
                let engine_config = EngineConfig::for_scheduler(config.scheduler)
                    .with_slacks(config.grid_slack, config.compact_slack);
                Box::new(EngineBackend::with_links(engine_config, links))
            }
            BackendKind::Sharded => match config.partition {
                Some(hints) => {
                    let pconfig = PartitionedEngineConfig::new(
                        config.scheduler,
                        hints.extent,
                        hints.length_bounds,
                        config.effective_shards(),
                    )
                    .with_verifier(config.verifier);
                    Box::new(ShardedBackend::with_partitioned_engine(pconfig).seeded(links))
                }
                None => Box::new(
                    ShardedBackend::new(
                        config.scheduler,
                        config.verifier,
                        config.effective_shards(),
                    )
                    .seeded(links),
                ),
            },
        };
        Session {
            config,
            backend,
            trace_keys: HashMap::new(),
            recorder: Recorder::disabled(),
            flight: FlightRecorder::disabled(),
            flight_fallbacks: 0,
            flight_evictions: 0,
        }
    }

    /// Installs a `wagg-obs` [`Recorder`] on the session and its backend
    /// (see [`SessionBuilder::recorder`]).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.backend.set_recorder(recorder.clone());
        self.recorder = recorder;
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
        self.backend.len()
    }

    /// Whether no links are live.
    pub fn is_empty(&self) -> bool {
        self.backend.len() == 0
    }

    /// The live links in the backend's solve order — the universe
    /// [`Session::solve`]'s schedule indexes into, ids relabeled to
    /// `0..len()`. Static and sharded backends order by ascending key; the
    /// engine backend exposes the engine's slot order (stable per link, but
    /// a recycled slot can place a newer link before an older one), exactly
    /// like the legacy engine path.
    pub fn links(&self) -> Vec<Link> {
        self.backend.links()
    }

    /// Whether `key` names a live link.
    pub fn contains(&self, key: u64) -> bool {
        self.backend.contains(key)
    }

    /// Event accounting.
    pub fn stats(&self) -> SessionStats {
        self.backend.stats()
    }

    /// The backend's live warm repair state, by vertex position in solve
    /// order (`None` for backends without one, or before the first
    /// repair-enabled solve). Test-only introspection for the warm-state
    /// invariant suite.
    #[doc(hidden)]
    pub fn warm_state(&self) -> Option<&state::WarmState> {
        self.backend.warm_state()
    }

    /// Inserts a link, returning its session key.
    ///
    /// # Panics
    ///
    /// With [`PartitionHints`], panics when the link's length falls outside
    /// the declared bounds (they size the tiling's halo margin).
    pub fn insert(&mut self, sender: Point, receiver: Point) -> u64 {
        self.backend.insert(sender, receiver, None)
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
        self.backend
            .insert(sender, receiver, Some((sender_node, receiver_node)))
    }

    /// Removes the link under `key`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
    pub fn remove(&mut self, key: u64) -> Result<(), SessionError> {
        self.backend.remove(key)
    }

    /// Moves the link under `key` to a new geometry (key and node
    /// annotations are preserved).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when no live link has this key.
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
        self.backend.relocate(key, sender, receiver)
    }

    /// Moves a pointset node: every live link inserted with matching node
    /// annotations follows. Returns the number of links touched.
    ///
    /// # Panics
    ///
    /// With [`PartitionHints`], panics when a followed link's new length
    /// falls outside the declared bounds; links of the node relocated
    /// before the offending one stay moved (declared-bounds violations are
    /// programmer errors, not recoverable events).
    pub fn move_node(&mut self, node: usize, to: Point) -> usize {
        self.backend.move_node(node, to)
    }

    /// Replays an [`EngineTrace`] through the session's event API, binding
    /// trace keys to session keys. The binding persists across calls, so a
    /// trace can be replayed in pieces (e.g. one mobility step at a time,
    /// solving in between) — the pattern `wagg_engine::TraceBinding`
    /// established, now uniform over every backend. Returns the number of
    /// events applied.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownKey`] when a `Remove` names a trace key that
    /// is not live (including double-removes); backend errors are
    /// propagated. Events before the failing one stay applied.
    pub fn apply_trace(&mut self, trace: &EngineTrace) -> Result<usize, SessionError> {
        self.apply_events(&trace.events)
    }

    /// [`Session::apply_trace`] over a bare event slice (partial replays).
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::apply_trace`].
    pub fn apply_events(&mut self, events: &[EngineEvent]) -> Result<usize, SessionError> {
        for event in events {
            match *event {
                EngineEvent::Insert {
                    key,
                    sender,
                    receiver,
                    sender_node,
                    receiver_node,
                } => {
                    let nodes = match (sender_node, receiver_node) {
                        (Some(s), Some(r)) => Some((NodeId(s), NodeId(r))),
                        _ => None,
                    };
                    let session_key = self.backend.insert(sender, receiver, nodes);
                    self.trace_keys.insert(key, session_key);
                }
                EngineEvent::Remove { key } => {
                    let session_key = self
                        .trace_keys
                        .remove(&key)
                        .ok_or(SessionError::UnknownKey { key })?;
                    self.backend.remove(session_key)?;
                }
                EngineEvent::MoveNode { node, to } => {
                    self.backend.move_node(node, to);
                }
            }
        }
        Ok(events.len())
    }

    /// The session key currently bound to a trace key, if live.
    pub fn trace_key(&self, key: u64) -> Option<u64> {
        self.trace_keys.get(&key).copied()
    }

    /// Materialises the session's full state — config, universe with stable
    /// keys, backend internals (dirty set, warm repair state), trace-key
    /// bindings, and the flight-recorder ring as its JSONL fold — into a
    /// plain-data [`SessionState`] (see [`state`]). The inverse is
    /// [`Session::restore_state`]; `wagg-wire` carries the state as the
    /// snapshot frame.
    pub fn capture_state(&self) -> SessionState {
        let mut trace_keys: Vec<(u64, u64)> =
            self.trace_keys.iter().map(|(&t, &s)| (t, s)).collect();
        trace_keys.sort_unstable();
        SessionState {
            config: self.config,
            backend: self.backend.capture_state(),
            trace_keys,
            telemetry: self.flight.is_enabled().then(|| state::TelemetryState {
                config: self.flight.config(),
                log: self.flight.to_jsonl(),
            }),
        }
    }

    /// Rebuilds a live session from captured state. Engines are
    /// re-materialised through the bulk seeding paths
    /// (`InterferenceEngine::with_links`, `PartitionedEngine::with_links`)
    /// and the warm repair state is re-attached, so the restored session's
    /// next [`Session::solve`] is **byte-identical** to the solve the
    /// captured session would have produced — restart in seconds, not
    /// re-solve. The flight-recorder ring is replayed from its JSONL fold
    /// (when the build carries the `obs` feature; without it telemetry
    /// restoration is a no-op). Not restored: installed [`Recorder`]s
    /// (install a fresh one), and the engine backend's event counters
    /// (the rebuilt engine owns them — they restart at zero).
    ///
    /// # Errors
    ///
    /// A [`RestoreError`] naming the structural inconsistency when the
    /// state was hand-built or decoded from hostile bytes — restoration
    /// validates everything up front and never panics.
    pub fn restore_state(state: &SessionState) -> Result<Self, RestoreError> {
        let config = state.config;
        let backend: Box<dyn SchedulerBackend> = match &state.backend {
            state::BackendState::Static {
                links,
                next_key,
                counts,
            } => Box::new(StaticBackend::restore(
                config.scheduler,
                links,
                *next_key,
                *counts,
            )?),
            state::BackendState::Engine {
                links,
                next_key,
                dirty,
                warm,
                ..
            } => {
                let engine_config = EngineConfig::for_scheduler(config.scheduler)
                    .with_slacks(config.grid_slack, config.compact_slack);
                Box::new(EngineBackend::restore(
                    engine_config,
                    links,
                    *next_key,
                    dirty,
                    warm.as_ref(),
                )?)
            }
            state::BackendState::ShardedRebuild {
                links,
                next_key,
                counts,
            } => Box::new(ShardedBackend::restore_rebuild(
                config.scheduler,
                config.verifier,
                config.effective_shards(),
                links,
                *next_key,
                *counts,
            )?),
            state::BackendState::ShardedEngine {
                links,
                next_key,
                dirty,
                warm,
                counts,
            } => {
                let hints = config
                    .partition
                    .ok_or(RestoreError::MissingPartitionHints)?;
                check_hints(&hints)?;
                let pconfig = PartitionedEngineConfig::new(
                    config.scheduler,
                    hints.extent,
                    hints.length_bounds,
                    config.effective_shards(),
                )
                .with_verifier(config.verifier);
                Box::new(ShardedBackend::restore_engine(
                    pconfig,
                    links,
                    *next_key,
                    dirty,
                    warm.as_ref(),
                    *counts,
                )?)
            }
        };
        let flight = match &state.telemetry {
            Some(t) => {
                let (flight, _stats) =
                    wagg_obs::export::replay(&t.log, t.config).map_err(RestoreError::Telemetry)?;
                flight
            }
            None => FlightRecorder::disabled(),
        };
        Ok(Session {
            config,
            backend,
            trace_keys: state.trace_keys.iter().copied().collect(),
            recorder: Recorder::disabled(),
            flight,
            flight_fallbacks: 0,
            flight_evictions: 0,
        })
    }

    /// Schedules the current link universe with the resolved backend and
    /// returns the unified report (schedule, analysis quantities, backend
    /// provenance, sharding accounting).
    ///
    /// With [`RepairPolicy::enabled`] in the config, repair-capable backends
    /// warm-start: the previous assignment is kept and only the links the
    /// event batch dirtied are re-placed (see [`RepairStats`] on the report
    /// for the decision and accounting). Backends without incremental state
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
        let report = if !self.config.repair.enabled {
            self.backend.solve()
        } else {
            let policy = self.config.repair;
            match self.backend.solve_repair(&policy) {
                Some(report) => report,
                None => {
                    let report = self.backend.solve();
                    let baseline = report.slots();
                    let num_links = report.num_links();
                    report.with_repair(RepairStats {
                        decision: RepairDecision::Unsupported,
                        dirty_links: 0,
                        replaced_links: num_links,
                        baseline_slots: baseline,
                        drift: 0.0,
                        watermark: policy.max_drift,
                    })
                }
            }
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
                backend: report.backend.into(),
                links: report.num_links() as u64,
                slots: report.slots() as u64,
                exact_fallbacks: fallbacks.saturating_sub(self.flight_fallbacks),
                evictions: evictions.saturating_sub(self.flight_evictions),
                repair: report.repair.as_ref().map(|r| wagg_obs::RepairSample {
                    decision: r.decision.into(),
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

/// Pre-validates [`PartitionHints`] against the asserts
/// `PartitionedEngineConfig::new` would fire, so a hostile snapshot's
/// restore returns a typed error instead of panicking.
fn check_hints(hints: &PartitionHints) -> Result<(), RestoreError> {
    let (lo, hi) = hints.length_bounds;
    if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
        return Err(RestoreError::InvalidPartitionHints {
            reason: "length bounds must satisfy 0 < min <= max < inf",
        });
    }
    let e = hints.extent;
    if !(e.min_x.is_finite() && e.min_y.is_finite() && e.max_x.is_finite() && e.max_y.is_finite()) {
        return Err(RestoreError::InvalidPartitionHints {
            reason: "extent must be finite",
        });
    }
    if e.max_x < e.min_x || e.max_y < e.min_y {
        return Err(RestoreError::InvalidPartitionHints {
            reason: "extent is inverted",
        });
    }
    Ok(())
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

            let stats = session.stats();
            assert_eq!(stats.backend, kind);
            assert_eq!(stats.links, 2, "{kind}");
            assert!(stats.inserts >= 3, "{kind}");
            assert!(stats.removals >= 1, "{kind}");
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
            let bad = EngineTrace {
                name: "bad".into(),
                events: vec![EngineEvent::Remove { key: 999_999 }],
            };
            assert_eq!(
                session.apply_trace(&bad),
                Err(SessionError::UnknownKey { key: 999_999 })
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

            #[cfg(feature = "obs")]
            {
                let m = traced
                    .solve()
                    .metrics
                    .expect("instrumented solve carries metrics");
                let expected_root = match backend {
                    Backend::Static => "static",
                    // The engine backend's solve runs the static kernel on
                    // the maintained snapshot.
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
        #[cfg(feature = "obs")]
        {
            let m = report.metrics.expect("instrumented solve carries metrics");
            assert!(m.phase("repair").is_some());
            assert!(m.phase("repair/place").is_some());
            assert!(m.phase("repair/commit").is_some());
            assert_eq!(m.counter("repair.dirty"), Some(1));
        }
        #[cfg(not(feature = "obs"))]
        assert_eq!(report.metrics, None);
    }

    #[test]
    fn error_display_and_source() {
        let err = SessionError::UnknownKey { key: 4 };
        assert!(err.to_string().contains("key 4"));
        assert!(err.source().is_none());
        let err: SessionError = EngineError::EmptySlot { slot: 2 }.into();
        assert!(err.to_string().contains("no live link"));
        assert!(err.source().is_some());
    }
}
