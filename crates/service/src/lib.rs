//! Scheduling as a service: many concurrent [`Session`]s behind one typed
//! request/response protocol.
//!
//! A [`SchedulerService`] hosts sessions on a pool of plain `std::thread`
//! workers (no async runtime — the whole workspace is dependency-free).
//! Each session lives inside exactly one worker, chosen by
//! `session id % workers`, so session state is never shared, locked or
//! moved across threads; clients talk to workers over bounded
//! [`std::sync::mpsc`] channels.
//!
//! The protocol is the [`Request`]/[`Response`] pair: open a session from a
//! [`SessionConfig`] and a link set, submit [`EngineEvent`] batches, solve,
//! snapshot the session into a `wagg-wire` frame, restore a new session
//! from such a frame, poll health, close. Every call returns
//! `Result<Response, ServiceError>` — the error enum is the service's whole
//! failure surface.
//!
//! # Backpressure, not deadlock
//!
//! Worker queues are bounded ([`ServiceConfig::queue_depth`]) and admission
//! uses `try_send`: when a queue is full the request is rejected
//! immediately with [`ServiceError::Busy`] instead of blocking the caller.
//! Workers never block sending replies (reply channels are unbounded and
//! per-request), so the system cannot deadlock: a flood of clients degrades
//! to typed `Busy` rejections while queued work keeps draining.
//!
//! # Panic isolation
//!
//! Every session operation runs under [`std::panic::catch_unwind`]. A panic
//! — say, an event that trips an engine assertion — poisons *that session
//! only*: the session is dropped, the slot is marked poisoned, the caller
//! gets [`ServiceError::SessionPoisoned`], and every other session (and the
//! worker itself) keeps serving. Poisoned sessions stay addressable (they
//! keep returning `SessionPoisoned`) until closed. Hostile geometry never
//! gets that far: a NaN or infinite coordinate in an opened link set or an
//! event batch is refused with [`ServiceError::NonFinite`] before the
//! request is queued, as the wire decoder refuses it in a frame.
//!
//! # Snapshot / restore
//!
//! [`SchedulerService::snapshot`] captures a session
//! ([`Session::capture_state`]) and returns it wire-encoded
//! ([`wagg_wire::Frame::Snapshot`]); [`SchedulerService::restore`] decodes,
//! validates and rebuilds it as a *new* session. The round trip preserves
//! solve bytes exactly — the restored session's next solve equals the
//! original's (the `wagg-session` snapshot contract, carried through the
//! wire).
//!
//! # Observability
//!
//! The service records per-request latency histograms
//! (`service.request.*_ns`), queue-depth high-water marks and `Busy`
//! rejection counts into a [`Recorder`] ([`SchedulerService::metrics`]).
//! With [`ServiceConfig::telemetry`] set, every hosted session gets its own
//! [`FlightRecorder`], and [`SchedulerService::health`] returns the PR 8
//! longitudinal [`HealthReport`] (skew / drift / latency-regression
//! signals) next to the session's event accounting.
//!
//! Shutdown is graceful: [`SchedulerService::shutdown`] (or dropping the
//! last handle) stops admission, lets every queued request drain FIFO with
//! a real reply, then joins the workers.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use wagg_engine::EngineEvent;
use wagg_obs::telemetry::{FlightRecorder, HealthReport, TelemetryConfig};
use wagg_obs::{Metrics, Recorder};
use wagg_schedule::{InvalidTau, SolveReport};
use wagg_session::{
    check_events, check_point, RestoreError, Session, SessionConfig, SessionError, SessionStats,
    MAX_SHARDS,
};
use wagg_sinr::Link;
use wagg_wire::{DecodeError, EncodeError, Frame, FrameKind};

/// How a [`SchedulerService`] is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads (each owns its sessions exclusively). Clamped to at
    /// least 1.
    pub workers: usize,
    /// Bounded per-worker queue depth; a full queue rejects with
    /// [`ServiceError::Busy`]. Clamped to at least 1.
    pub queue_depth: usize,
    /// When set, every hosted session gets a [`FlightRecorder`] with this
    /// tuning, enabling [`SchedulerService::health`]'s longitudinal
    /// signals.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            telemetry: None,
        }
    }
}

/// Handle to a hosted session. Minted by the service; opaque to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id (stable for the lifetime of the service).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// One request to the service. [`SchedulerService::request`] is the raw
/// entry point; the named methods are typed wrappers.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session over an initial link set.
    OpenSession {
        /// The session's layered configuration.
        config: SessionConfig,
        /// The initial universe (ids are relabeled by the session).
        links: Vec<Link>,
    },
    /// Apply an event batch to a session.
    SubmitEvents {
        /// The target session.
        session: SessionId,
        /// The events, in application order.
        events: Vec<EngineEvent>,
    },
    /// Compute (or warm-repair) the session's schedule.
    Solve {
        /// The target session.
        session: SessionId,
    },
    /// Capture the session as a wire-encoded snapshot frame.
    Snapshot {
        /// The target session.
        session: SessionId,
    },
    /// Open a *new* session from a wire-encoded snapshot frame.
    Restore {
        /// A [`Frame::Snapshot`] encoding.
        frame: Vec<u8>,
    },
    /// The session's event accounting and longitudinal health.
    Health {
        /// The target session.
        session: SessionId,
    },
    /// Drop a session (poisoned sessions may be closed too).
    CloseSession {
        /// The target session.
        session: SessionId,
    },
}

/// The success half of the protocol; errors travel as [`ServiceError`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A session was opened.
    Opened {
        /// Its handle.
        session: SessionId,
    },
    /// An event batch was applied.
    EventsApplied {
        /// The target session.
        session: SessionId,
        /// Events applied (the whole batch, on success).
        applied: usize,
    },
    /// A solve completed.
    Solved {
        /// The target session.
        session: SessionId,
        /// The full report (schedule, analysis quantities, repair and
        /// health accounting).
        report: Box<SolveReport>,
    },
    /// A snapshot was captured.
    Snapshot {
        /// The captured session.
        session: SessionId,
        /// The wire-encoded [`Frame::Snapshot`].
        frame: Vec<u8>,
    },
    /// A snapshot was restored into a new session.
    Restored {
        /// The new session's handle.
        session: SessionId,
    },
    /// A health poll.
    Health {
        /// The target session.
        session: SessionId,
        /// Accounting and longitudinal signals.
        health: Box<ServiceHealth>,
    },
    /// A session was closed.
    Closed {
        /// The closed session.
        session: SessionId,
    },
}

/// What [`SchedulerService::health`] returns per session.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceHealth {
    /// The session's backend and event accounting.
    pub stats: SessionStats,
    /// Longitudinal health signals from the session's flight recorder
    /// (empty when the service runs without [`ServiceConfig::telemetry`]).
    pub health: HealthReport,
}

/// The service's whole failure surface.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The target worker's queue is full — back off and retry. Typed
    /// backpressure, never a block.
    Busy {
        /// The configured per-worker queue bound that was hit.
        queue_depth: usize,
    },
    /// No session (live or poisoned) has this id.
    UnknownSession {
        /// The offending id.
        session: SessionId,
    },
    /// A previous operation panicked inside this session; it accepts
    /// nothing but [`Request::CloseSession`].
    SessionPoisoned {
        /// The poisoned session.
        session: SessionId,
    },
    /// The service is shutting down and admits no new requests.
    ShuttingDown,
    /// A snapshot frame failed to decode.
    Codec(DecodeError),
    /// A snapshot failed to encode.
    Encode(EncodeError),
    /// The frame decoded, but to the wrong kind (restore needs a
    /// [`Frame::Snapshot`]).
    UnexpectedFrame {
        /// The kind found.
        kind: FrameKind,
    },
    /// A decoded snapshot failed semantic validation.
    Restore(RestoreError),
    /// The session rejected an event (unknown key, engine refusal).
    Session(SessionError),
    /// A coordinate of the request is NaN or infinite: of the `index`-th
    /// link of a [`Request::OpenSession`], or of the `index`-th event of a
    /// [`Request::SubmitEvents`] batch. The request was refused before any
    /// session saw it, so nothing of it applied and the session stays live.
    NonFinite {
        /// The offending link's or event's position in the request.
        index: usize,
        /// The point: `"link sender"`, `"link receiver"`, `"insert
        /// sender"`, `"insert receiver"` or `"move target"`.
        what: &'static str,
    },
    /// A [`Request::OpenSession`]'s power mode is oblivious with a `τ`
    /// outside `(0, 1)`, NaN included
    /// ([`PowerMode::check_tau`](wagg_schedule::PowerMode::check_tau)). The
    /// request was refused before any worker saw it.
    InvalidTau {
        /// The refused exponent.
        tau: f64,
    },
    /// A [`Request::OpenSession`]'s `target_shards` exceeds [`MAX_SHARDS`],
    /// past which a sharded session's tiling could ask for billions of shard
    /// engines. The request was refused before any worker saw it.
    TooManyShards {
        /// The refused shard count.
        shards: usize,
    },
    /// The worker thread is gone (it should never be — workers survive
    /// session panics).
    WorkerLost,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy { queue_depth } => {
                write!(
                    f,
                    "worker queue full (depth {queue_depth}); back off and retry"
                )
            }
            ServiceError::UnknownSession { session } => write!(f, "{session} is not hosted here"),
            ServiceError::SessionPoisoned { session } => {
                write!(f, "{session} was poisoned by a panic; close it")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Codec(e) => write!(f, "snapshot frame does not decode: {e}"),
            ServiceError::Encode(e) => write!(f, "snapshot does not encode: {e}"),
            ServiceError::UnexpectedFrame { kind } => {
                write!(f, "expected a snapshot frame, found {kind:?}")
            }
            ServiceError::Restore(e) => write!(f, "snapshot does not restore: {e}"),
            ServiceError::Session(e) => write!(f, "session rejected the request: {e}"),
            ServiceError::NonFinite { index, what } => {
                write!(f, "the {what} of item {index} is NaN or infinite")
            }
            ServiceError::InvalidTau { tau } => write!(f, "{}", InvalidTau { tau: *tau }),
            ServiceError::TooManyShards { shards } => {
                write!(f, "{shards} shards exceed the bound of {MAX_SHARDS}")
            }
            ServiceError::WorkerLost => write!(f, "worker thread is gone"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Codec(e) => Some(e),
            ServiceError::Encode(e) => Some(e),
            ServiceError::Restore(e) => Some(e),
            ServiceError::Session(e) => Some(e),
            _ => None,
        }
    }
}

/// A multi-session scheduling service. Cheap to clone — clones share the
/// same worker pool; the pool shuts down (gracefully) when the last handle
/// drops or [`SchedulerService::shutdown`] is called.
#[derive(Clone)]
pub struct SchedulerService {
    inner: Arc<Inner>,
}

struct Inner {
    queue_depth: usize,
    recorder: Recorder,
    next_session: AtomicU64,
    busy_rejections: AtomicU64,
    shutting_down: AtomicBool,
    workers: Vec<WorkerHandle>,
}

struct WorkerHandle {
    sender: Mutex<Option<SyncSender<Envelope>>>,
    thread: Mutex<Option<JoinHandle<()>>>,
    depth: Arc<AtomicUsize>,
}

/// A queued request: the routing id (minted for open/restore), the request
/// itself, and the caller's reply channel. Replies are unbounded so the
/// worker can never block sending one.
struct Envelope {
    session: SessionId,
    request: Request,
    reply: mpsc::Sender<Result<Response, ServiceError>>,
}

/// A worker's view of one hosted session.
enum Slot {
    Live(Box<Session>),
    Poisoned,
}

struct WorkerCtx {
    recorder: Recorder,
    telemetry: Option<TelemetryConfig>,
}

impl SchedulerService {
    /// Starts a service with the given sizing. Workers spin up immediately
    /// and idle on their queues.
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let recorder = Recorder::new();
        let handles = (0..workers)
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel::<Envelope>(queue_depth);
                let depth = Arc::new(AtomicUsize::new(0));
                let ctx = WorkerCtx {
                    recorder: recorder.clone(),
                    telemetry: config.telemetry,
                };
                let worker_depth = Arc::clone(&depth);
                let thread = std::thread::spawn(move || worker_loop(rx, worker_depth, ctx));
                WorkerHandle {
                    sender: Mutex::new(Some(tx)),
                    thread: Mutex::new(Some(thread)),
                    depth,
                }
            })
            .collect();
        SchedulerService {
            inner: Arc::new(Inner {
                queue_depth,
                recorder,
                next_session: AtomicU64::new(0),
                busy_rejections: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
                workers: handles,
            }),
        }
    }

    /// The raw protocol entry point: routes the request to its session's
    /// worker (minting a fresh id for [`Request::OpenSession`] and
    /// [`Request::Restore`]) and blocks for the reply. A request carrying a
    /// NaN or infinite coordinate is refused here with
    /// [`ServiceError::NonFinite`], and a [`Request::OpenSession`] with an
    /// oblivious `τ` outside `(0, 1)` with [`ServiceError::InvalidTau`] or
    /// more than [`MAX_SHARDS`] shards with [`ServiceError::TooManyShards`],
    /// before any worker or session sees it.
    pub fn request(&self, request: Request) -> Result<Response, ServiceError> {
        check_request(&request)?;
        let session = match &request {
            Request::OpenSession { .. } | Request::Restore { .. } => self.mint(),
            Request::SubmitEvents { session, .. }
            | Request::Solve { session }
            | Request::Snapshot { session }
            | Request::Health { session }
            | Request::CloseSession { session } => *session,
        };
        self.dispatch(session, request)
    }

    /// Opens a session over an initial link set; returns its handle.
    pub fn open_session(
        &self,
        config: SessionConfig,
        links: &[Link],
    ) -> Result<SessionId, ServiceError> {
        match self.request(Request::OpenSession {
            config,
            links: links.to_vec(),
        })? {
            Response::Opened { session } => Ok(session),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// Applies an event batch; returns how many events were applied.
    pub fn submit_events(
        &self,
        session: SessionId,
        events: &[EngineEvent],
    ) -> Result<usize, ServiceError> {
        match self.request(Request::SubmitEvents {
            session,
            events: events.to_vec(),
        })? {
            Response::EventsApplied { applied, .. } => Ok(applied),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// Solves the session; returns the full report.
    pub fn solve(&self, session: SessionId) -> Result<SolveReport, ServiceError> {
        match self.request(Request::Solve { session })? {
            Response::Solved { report, .. } => Ok(*report),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// Captures the session as a wire-encoded [`Frame::Snapshot`].
    pub fn snapshot(&self, session: SessionId) -> Result<Vec<u8>, ServiceError> {
        match self.request(Request::Snapshot { session })? {
            Response::Snapshot { frame, .. } => Ok(frame),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// Opens a new session from a wire-encoded snapshot frame.
    pub fn restore(&self, frame: &[u8]) -> Result<SessionId, ServiceError> {
        match self.request(Request::Restore {
            frame: frame.to_vec(),
        })? {
            Response::Restored { session } => Ok(session),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// The session's event accounting and longitudinal health signals.
    pub fn health(&self, session: SessionId) -> Result<ServiceHealth, ServiceError> {
        match self.request(Request::Health { session })? {
            Response::Health { health, .. } => Ok(*health),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// Closes a session (live or poisoned).
    pub fn close_session(&self, session: SessionId) -> Result<(), ServiceError> {
        match self.request(Request::CloseSession { session })? {
            Response::Closed { .. } => Ok(()),
            _ => Err(ServiceError::WorkerLost),
        }
    }

    /// A snapshot of the service's own metrics: per-request latency
    /// histograms (`service.request.*_ns`), queue-depth high-water marks
    /// and busy-rejection counts.
    pub fn metrics(&self) -> Metrics {
        self.inner.recorder.metrics()
    }

    /// Requests rejected with [`ServiceError::Busy`] since start.
    pub fn busy_rejections(&self) -> u64 {
        self.inner.busy_rejections.load(Ordering::Relaxed)
    }

    /// Graceful drain-then-stop: admission closes immediately (new requests
    /// get [`ServiceError::ShuttingDown`]), every already-queued request is
    /// served FIFO with a real reply, then the workers are joined.
    /// Idempotent; also runs when the last handle drops.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn mint(&self) -> SessionId {
        SessionId(self.inner.next_session.fetch_add(1, Ordering::Relaxed))
    }

    fn dispatch(&self, session: SessionId, request: Request) -> Result<Response, ServiceError> {
        let inner = &*self.inner;
        if inner.shutting_down.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        let worker = &inner.workers[(session.0 % inner.workers.len() as u64) as usize];
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let guard = worker
                .sender
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let Some(sender) = guard.as_ref() else {
                return Err(ServiceError::ShuttingDown);
            };
            // Count the slot before sending: the worker decrements after
            // receiving, so incrementing afterwards could underflow.
            let depth = worker.depth.fetch_add(1, Ordering::Relaxed) + 1;
            match sender.try_send(Envelope {
                session,
                request,
                reply: reply_tx,
            }) {
                Ok(()) => {
                    inner
                        .recorder
                        .record_max("service.queue_depth", depth as u64);
                }
                Err(TrySendError::Full(_)) => {
                    worker.depth.fetch_sub(1, Ordering::Relaxed);
                    inner.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    inner.recorder.add("service.busy", 1);
                    return Err(ServiceError::Busy {
                        queue_depth: inner.queue_depth,
                    });
                }
                Err(TrySendError::Disconnected(_)) => {
                    worker.depth.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServiceError::WorkerLost);
                }
            }
        }
        reply_rx.recv().unwrap_or(Err(ServiceError::WorkerLost))
    }
}

impl Inner {
    fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Dropping the senders disconnects each queue once it drains;
        // workers serve everything already queued, then exit.
        for worker in &self.workers {
            drop(
                worker
                    .sender
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take(),
            );
        }
        for worker in &self.workers {
            let handle = worker
                .thread
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: Receiver<Envelope>, depth: Arc<AtomicUsize>, ctx: WorkerCtx) {
    let mut sessions: HashMap<u64, Slot> = HashMap::new();
    while let Ok(envelope) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        let t0 = ctx.recorder.is_enabled().then(Instant::now);
        let metric = metric_name(&envelope.request);
        let result = handle(&mut sessions, envelope.session, envelope.request, &ctx);
        if let Some(t0) = t0 {
            ctx.recorder.observe(metric, t0.elapsed().as_nanos() as u64);
        }
        // A gone client is not an error; the work is already done.
        let _ = envelope.reply.send(result);
    }
}

/// The first NaN or infinite coordinate of an opened link set or an event
/// batch, as the typed error, found by the session's own point checks
/// ([`check_point`], [`check_events`]), and an opened session's oblivious
/// `τ` outside `(0, 1)`
/// ([`PowerMode::check_tau`](wagg_schedule::PowerMode::check_tau)) or shard
/// count above [`MAX_SHARDS`]. The engine asserts finite endpoints, so such
/// a point would poison an engine-backed session; a static one would
/// schedule it. Such a `τ` would make the session's build panic, and such a
/// shard count could abort the process allocating its tiles.
fn check_request(request: &Request) -> Result<(), ServiceError> {
    let checked = match request {
        Request::OpenSession { config, links } => {
            config
                .scheduler
                .mode
                .check_tau()
                .map_err(|e| ServiceError::InvalidTau { tau: e.tau })?;
            if config.target_shards > MAX_SHARDS {
                return Err(ServiceError::TooManyShards {
                    shards: config.target_shards,
                });
            }
            links.iter().enumerate().try_for_each(|(index, link)| {
                check_point(index, "link sender", link.sender)?;
                check_point(index, "link receiver", link.receiver)
            })
        }
        Request::SubmitEvents { events, .. } => check_events(events),
        _ => Ok(()),
    };
    checked.map_err(|e| match e {
        SessionError::NonFinite { index, what } => ServiceError::NonFinite { index, what },
        e => ServiceError::Session(e),
    })
}

fn metric_name(request: &Request) -> &'static str {
    match request {
        Request::OpenSession { .. } => "service.request.open_ns",
        Request::SubmitEvents { .. } => "service.request.events_ns",
        Request::Solve { .. } => "service.request.solve_ns",
        Request::Snapshot { .. } => "service.request.snapshot_ns",
        Request::Restore { .. } => "service.request.restore_ns",
        Request::Health { .. } => "service.request.health_ns",
        Request::CloseSession { .. } => "service.request.close_ns",
    }
}

fn handle(
    sessions: &mut HashMap<u64, Slot>,
    session: SessionId,
    request: Request,
    ctx: &WorkerCtx,
) -> Result<Response, ServiceError> {
    match request {
        Request::OpenSession { config, links } => {
            let telemetry = ctx.telemetry;
            let built = catch_unwind(AssertUnwindSafe(move || {
                let mut builder = Session::builder().config(config).links(&links);
                if let Some(tuning) = telemetry {
                    builder = builder.flight_recorder(FlightRecorder::with_config(tuning));
                }
                Box::new(builder.build())
            }));
            match built {
                Ok(built) => {
                    sessions.insert(session.0, Slot::Live(built));
                    Ok(Response::Opened { session })
                }
                Err(_) => {
                    // A config the builder asserts on (e.g. degenerate
                    // partition hints) poisons the id it would have used.
                    sessions.insert(session.0, Slot::Poisoned);
                    Err(ServiceError::SessionPoisoned { session })
                }
            }
        }
        Request::Restore { frame } => {
            let state = match Frame::decode(&frame) {
                Ok(Frame::Snapshot(state)) => state,
                Ok(other) => {
                    return Err(ServiceError::UnexpectedFrame { kind: other.kind() });
                }
                Err(e) => return Err(ServiceError::Codec(e)),
            };
            let mut restored = Session::restore_state(&state).map_err(ServiceError::Restore)?;
            if let Some(tuning) = ctx.telemetry {
                if !restored.flight_recorder().is_enabled() {
                    restored.set_flight_recorder(FlightRecorder::with_config(tuning));
                }
            }
            sessions.insert(session.0, Slot::Live(Box::new(restored)));
            Ok(Response::Restored { session })
        }
        Request::SubmitEvents { events, .. } => with_live(sessions, session, move |s| {
            s.apply_events(&events)
                .map(|applied| Response::EventsApplied { session, applied })
                .map_err(ServiceError::Session)
        }),
        Request::Solve { .. } => with_live(sessions, session, move |s| {
            Ok(Response::Solved {
                session,
                report: Box::new(s.solve()),
            })
        }),
        Request::Snapshot { .. } => with_live(sessions, session, move |s| {
            let frame = Frame::Snapshot(s.capture_state())
                .encode()
                .map_err(ServiceError::Encode)?;
            Ok(Response::Snapshot { session, frame })
        }),
        Request::Health { .. } => with_live(sessions, session, move |s| {
            Ok(Response::Health {
                session,
                health: Box::new(ServiceHealth {
                    stats: s.stats(),
                    health: s.flight_recorder().health(),
                }),
            })
        }),
        Request::CloseSession { .. } => match sessions.remove(&session.0) {
            Some(_) => Ok(Response::Closed { session }),
            None => Err(ServiceError::UnknownSession { session }),
        },
    }
}

/// Runs `f` against the live session under `id`, isolating panics: the
/// slot is taken out of the map, so a panicking operation drops the
/// (possibly corrupt) session during unwind and the slot is re-inserted
/// poisoned. Every other session is untouched.
fn with_live<F>(
    sessions: &mut HashMap<u64, Slot>,
    session: SessionId,
    f: F,
) -> Result<Response, ServiceError>
where
    F: FnOnce(&mut Session) -> Result<Response, ServiceError>,
{
    match sessions.remove(&session.0) {
        None => Err(ServiceError::UnknownSession { session }),
        Some(Slot::Poisoned) => {
            sessions.insert(session.0, Slot::Poisoned);
            Err(ServiceError::SessionPoisoned { session })
        }
        Some(Slot::Live(mut live)) => {
            match catch_unwind(AssertUnwindSafe(move || {
                let result = f(&mut live);
                (live, result)
            })) {
                Ok((live, result)) => {
                    sessions.insert(session.0, Slot::Live(live));
                    result
                }
                Err(_) => {
                    sessions.insert(session.0, Slot::Poisoned);
                    Err(ServiceError::SessionPoisoned { session })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;

    fn links(n: usize) -> Vec<Link> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64 * 9.0;
                let y = (i / 10) as f64 * 9.0;
                Link::new(i, Point::new(x, y), Point::new(x + 1.2, y))
            })
            .collect()
    }

    #[test]
    fn open_solve_close_round_trip() {
        let service = SchedulerService::start(ServiceConfig::default());
        let id = service
            .open_session(SessionConfig::default(), &links(20))
            .expect("opens");
        let report = service.solve(id).expect("solves");
        assert_eq!(report.report.num_links, 20);
        service.close_session(id).expect("closes");
        assert_eq!(
            service.solve(id),
            Err(ServiceError::UnknownSession { session: id })
        );
        service.shutdown();
    }

    #[test]
    fn requests_after_shutdown_are_rejected() {
        let service = SchedulerService::start(ServiceConfig::default());
        let id = service
            .open_session(SessionConfig::default(), &links(5))
            .expect("opens");
        service.shutdown();
        assert_eq!(service.solve(id), Err(ServiceError::ShuttingDown));
        // Idempotent.
        service.shutdown();
    }

    #[test]
    fn unknown_and_garbage_frames_are_typed() {
        let service = SchedulerService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        assert!(matches!(
            service.restore(b"not a frame"),
            Err(ServiceError::Codec(_))
        ));
        let config_frame = Frame::Config(SessionConfig::default()).encode().unwrap();
        assert_eq!(
            service.restore(&config_frame),
            Err(ServiceError::UnexpectedFrame {
                kind: FrameKind::Config
            })
        );
        service.shutdown();
    }
}
