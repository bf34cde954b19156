//! Session snapshot state: the plain-data capture/restore surface behind
//! `wagg-wire`'s snapshot frame and `wagg-service`'s `Snapshot` / `Restore`
//! requests.
//!
//! [`Session::capture_state`](crate::Session::capture_state) materialises
//! everything a session accumulated into [`SessionState`], one flat record
//! of plain data with no engines inside: the configuration, the backend
//! kind, the link universe **with its stable session keys** in solve order,
//! the key counter, the event accounting, the warm repair state (colors,
//! budgets, baseline, carried skew), the persistent trace-key bindings and
//! the flight-recorder ring (as its JSONL fold, see `wagg_obs::export`).
//! Every backend captures the same shape. A link the last committed
//! schedule has not placed is exactly one whose warm color is `None`, so no
//! separate dirty list is kept.
//!
//! [`Session::restore_state`](crate::Session::restore_state) rebuilds a
//! live session from it: the universe first, then the backend from the
//! universe's links in solve order — engines through the bulk seeding paths
//! (`InterferenceEngine::with_links`, `PartitionedEngine::with_links`) —
//! and the warm state is re-attached, so the restored session's next solve
//! is **byte-identical** to the solve the original session would have
//! produced, without re-running the full recolor the warm state stands for.
//! The event accounting survives restore on every backend.
//!
//! What is *not* captured: installed [`Recorder`](wagg_obs::Recorder)s
//! (metrics are cumulative per recorder — install a fresh one after
//! restore).
//!
//! Restoration validates before it builds: a [`SessionState`] decoded from
//! hostile bytes comes back as a typed [`RestoreError`], never a panic —
//! the contract the `wagg-wire` hostility suite leans on.

use std::error::Error;
use std::fmt;

use wagg_obs::telemetry::TelemetryConfig;
use wagg_schedule::{BackendKind, ScheduleReport};
use wagg_sinr::Link;

use crate::{PartitionHints, SessionConfig};

/// One link of the session's universe, paired with its stable session key.
///
/// The order of these entries inside [`SessionState::links`] is the
/// backend's solve order and is load-bearing: the static and sharded
/// backends list ascending keys, the engine backend lists ascending engine
/// slots (a recycled slot can place a newer link before an older one), and
/// the warm state's vectors index positions in exactly this order.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedLink {
    /// The stable session key ([`crate::Session::insert`]'s handle).
    pub key: u64,
    /// The stored link value (geometry, node annotations, stored id).
    pub link: Link,
}

/// Event accounting carried through a snapshot (see
/// [`crate::SessionStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// Seeded links plus insert events.
    pub inserts: usize,
    /// Remove events.
    pub removals: usize,
    /// Relocate calls plus node-move calls.
    pub moves: usize,
}

/// The session's warm repair state (see `wagg_schedule::solve_repair`):
/// position-indexed colors and budgets, the re-anchoring baseline, and the
/// occupancy skew carried by hinted sharded backends.
///
/// This is the live state, not a copy of it: the session's universe keeps
/// one beside its links once a repair-enabled solve anchored it, splices it
/// per event, lets the repair kernel edit its vectors in place, and
/// re-captures it on every full recolor. A snapshot clones it.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmState {
    /// Position → committed slot; `None` marks a link the last committed
    /// schedule has not placed (inserted, relocated or re-seated since).
    pub colors: Vec<Option<usize>>,
    /// Position → upper bound on the link's affectance total inside its
    /// slot (the additive budget contract of `wagg_schedule::solve_repair`).
    /// Zero-filled when the config has no additive kernel (noise, global
    /// power control) — the opaque probe path never reads them.
    pub budgets: Vec<f64>,
    /// Schedule length of the last full recolor.
    pub baseline_slots: usize,
    /// `(max_owned, mean_owned, ghost_fraction)` of the last full sharded
    /// solve; `None` for engine warm state. The repair path cannot
    /// re-derive per-shard occupancy, so repaired reports carry this
    /// forward instead of zeroing it.
    pub skew: Option<(usize, f64, f64)>,
}

impl WarmState {
    /// Captures `report`'s assignment from scratch, position `i` carrying
    /// warm budget `budgets[i]` and the report's length as the baseline —
    /// the re-anchoring step of every full recolor.
    pub(crate) fn capture(
        report: &ScheduleReport,
        budgets: Vec<f64>,
        skew: Option<(usize, f64, f64)>,
    ) -> Self {
        debug_assert_eq!(budgets.len(), report.num_links, "one budget per link");
        WarmState {
            colors: slot_map(report),
            budgets,
            baseline_slots: report.schedule.len(),
            skew,
        }
    }

    /// Splices a fresh (unplaced) entry in at `pos`.
    pub(crate) fn insert_at(&mut self, pos: usize) {
        self.colors.insert(pos, None);
        self.budgets.insert(pos, 0.0);
    }

    /// Drops the entry at `pos`. The budget goes with the color, so no
    /// stale budget can outlive its link.
    pub(crate) fn remove_at(&mut self, pos: usize) {
        self.colors.remove(pos);
        self.budgets.remove(pos);
    }

    /// Unplaces the entry at `pos` (geometry changed in place).
    pub(crate) fn mark_dirty(&mut self, pos: usize) {
        self.colors[pos] = None;
        self.budgets[pos] = 0.0;
    }
}

/// Position → slot map of `report`'s schedule: the colors a from-scratch
/// capture records, and the oracle committed repairs are checked against.
pub(crate) fn slot_map(report: &ScheduleReport) -> Vec<Option<usize>> {
    let mut colors = vec![None; report.num_links];
    for (t, slot) in report.schedule.slots().iter().enumerate() {
        for &i in slot {
            colors[i] = Some(t);
        }
    }
    colors
}

/// The flight-recorder half of a snapshot: the telemetry tuning plus the
/// retained ring encoded as its JSONL fold (`FlightRecorder::to_jsonl` /
/// `wagg_obs::export::replay`) — restoring replays the log, which
/// reconstructs the ring, the EWMA series and the hysteresis state losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryState {
    /// The recorder's tuning (ring capacity, smoothing, thresholds).
    pub config: TelemetryConfig,
    /// The retained samples, one JSONL line per solve.
    pub log: String,
}

/// Everything a [`crate::Session`] is, as plain data — see the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The session's layered configuration.
    pub config: SessionConfig,
    /// The backend the session resolved to. A sharded session is hinted
    /// (incrementally maintained) exactly when `config` declares partition
    /// hints.
    pub backend: BackendKind,
    /// The universe in solve order (see [`KeyedLink`]).
    pub links: Vec<KeyedLink>,
    /// The next key an insert would mint.
    pub next_key: u64,
    /// Event accounting.
    pub counts: EventCounts,
    /// Warm repair state (`None` before the first repair-enabled solve, and
    /// always on the static and hint-less sharded backends).
    pub warm: Option<WarmState>,
    /// Persistent trace-key → session-key bindings
    /// ([`crate::Session::apply_events`]), ascending by trace key.
    pub trace_keys: Vec<(u64, u64)>,
    /// The flight recorder, if one was installed and enabled.
    pub telemetry: Option<TelemetryState>,
}

/// Why a [`SessionState`] was rejected by
/// [`Session::restore_state`](crate::Session::restore_state). Every variant
/// is a structural inconsistency a hostile or hand-built state could carry;
/// restoration checks them all up front so the rebuild below can never
/// panic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RestoreError {
    /// A session key appears twice in the captured universe.
    DuplicateKey {
        /// The offending key.
        key: u64,
    },
    /// A key-ordered universe's keys are not strictly ascending.
    KeyOrder {
        /// The first out-of-order key.
        key: u64,
    },
    /// `next_key` would re-mint a key that is already live.
    NextKeyTooSmall {
        /// The declared next key.
        next_key: u64,
        /// The largest live key.
        max_key: u64,
    },
    /// Warm repair state on a backend that keeps none (static, or sharded
    /// without partition hints).
    UnexpectedWarmState {
        /// The captured backend.
        backend: BackendKind,
    },
    /// Warm vectors are not in lockstep with the universe.
    WarmLength {
        /// Live links.
        links: usize,
        /// Warm color entries.
        colors: usize,
        /// Warm budget entries.
        budgets: usize,
    },
    /// A warm color names an impossible slot (a schedule of `n` links
    /// never uses more than `n` slots).
    ColorOutOfRange {
        /// The offending position.
        pos: usize,
        /// The committed slot.
        color: usize,
        /// Live links.
        links: usize,
    },
    /// A warm budget is NaN or infinite.
    BudgetNotFinite {
        /// The offending position.
        pos: usize,
    },
    /// The warm baseline exceeds the universe size.
    BaselineOutOfRange {
        /// The recorded baseline.
        baseline: usize,
        /// Live links.
        links: usize,
    },
    /// The partition hints cannot size a tiling (non-finite extent,
    /// degenerate length bounds, zero shards).
    InvalidPartitionHints {
        /// What is wrong with them.
        reason: &'static str,
    },
    /// A link's length falls outside the declared partition bounds (the
    /// tiling's halo margin is sized from them).
    LengthOutOfBounds {
        /// The offending link's session key.
        key: u64,
        /// Its length.
        length: f64,
    },
    /// The flight-recorder log does not replay.
    Telemetry(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::DuplicateKey { key } => {
                write!(f, "session key {key} appears twice in the snapshot")
            }
            RestoreError::KeyOrder { key } => {
                write!(f, "snapshot keys are not strictly ascending at key {key}")
            }
            RestoreError::NextKeyTooSmall { next_key, max_key } => write!(
                f,
                "next_key {next_key} would re-mint a live key (max live key {max_key})"
            ),
            RestoreError::UnexpectedWarmState { backend } => write!(
                f,
                "warm repair state on a {backend} backend that keeps none"
            ),
            RestoreError::WarmLength {
                links,
                colors,
                budgets,
            } => write!(
                f,
                "warm state out of lockstep: {links} links, {colors} colors, {budgets} budgets"
            ),
            RestoreError::ColorOutOfRange { pos, color, links } => write!(
                f,
                "warm color {color} at position {pos} is impossible for {links} links"
            ),
            RestoreError::BudgetNotFinite { pos } => {
                write!(f, "warm budget at position {pos} is not finite")
            }
            RestoreError::BaselineOutOfRange { baseline, links } => write!(
                f,
                "warm baseline {baseline} exceeds the universe size {links}"
            ),
            RestoreError::InvalidPartitionHints { reason } => {
                write!(f, "partition hints cannot size a tiling: {reason}")
            }
            RestoreError::LengthOutOfBounds { key, length } => write!(
                f,
                "link under key {key} has length {length} outside the declared partition bounds"
            ),
            RestoreError::Telemetry(e) => write!(f, "flight-recorder log does not replay: {e}"),
        }
    }
}

impl Error for RestoreError {}

/// Validates everything the rebuild relies on: keys unique (and ascending
/// where the backend orders by key), `next_key` past every live key, warm state only where a backend
/// keeps it and in lockstep with the universe, and — for a hinted sharded
/// session — hints that can size a tiling and links inside their length
/// bounds.
pub(crate) fn check(state: &SessionState) -> Result<(), RestoreError> {
    let links = &state.links;
    if state.backend == BackendKind::Engine {
        // Slot order: keys need not ascend.
        let mut keys: Vec<u64> = links.iter().map(|k| k.key).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(RestoreError::DuplicateKey { key: w[0] });
        }
    } else if let Some(w) = links.windows(2).find(|w| w[1].key <= w[0].key) {
        return Err(if w[1].key == w[0].key {
            RestoreError::DuplicateKey { key: w[1].key }
        } else {
            RestoreError::KeyOrder { key: w[1].key }
        });
    }
    if let Some(max_key) = links.iter().map(|k| k.key).max() {
        if state.next_key <= max_key {
            return Err(RestoreError::NextKeyTooSmall {
                next_key: state.next_key,
                max_key,
            });
        }
    }
    // A sharded session is hinted exactly when its config declares hints.
    let hints = state
        .config
        .partition
        .filter(|_| state.backend == BackendKind::Sharded);
    if let Some(warm) = &state.warm {
        if state.backend != BackendKind::Engine && hints.is_none() {
            return Err(RestoreError::UnexpectedWarmState {
                backend: state.backend,
            });
        }
        check_warm(links.len(), warm)?;
    }
    if let Some(hints) = hints {
        check_hints(&hints)?;
        // The engine's insert path asserts the declared bounds; NaN lengths
        // fail the range test and land here too.
        let (lo, hi) = hints.length_bounds;
        for k in links {
            let length = k.link.length();
            if !(length >= lo && length <= hi) {
                return Err(RestoreError::LengthOutOfBounds { key: k.key, length });
            }
        }
    }
    Ok(())
}

/// Warm vectors in lockstep with `n` links, colors and baseline bounded,
/// budgets finite.
fn check_warm(n: usize, warm: &WarmState) -> Result<(), RestoreError> {
    if warm.colors.len() != n || warm.budgets.len() != n {
        return Err(RestoreError::WarmLength {
            links: n,
            colors: warm.colors.len(),
            budgets: warm.budgets.len(),
        });
    }
    for (pos, c) in warm.colors.iter().enumerate() {
        if let Some(color) = *c {
            if color >= n {
                return Err(RestoreError::ColorOutOfRange {
                    pos,
                    color,
                    links: n,
                });
            }
        }
    }
    if let Some(pos) = warm.budgets.iter().position(|b| !b.is_finite()) {
        return Err(RestoreError::BudgetNotFinite { pos });
    }
    if warm.baseline_slots > n {
        return Err(RestoreError::BaselineOutOfRange {
            baseline: warm.baseline_slots,
            links: n,
        });
    }
    Ok(())
}

/// The asserts `PartitionedEngineConfig::new` would fire, as typed errors.
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
