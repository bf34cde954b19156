//! Session snapshot state: the plain-data capture/restore surface behind
//! `wagg-wire`'s snapshot frame and `wagg-service`'s `Snapshot` / `Restore`
//! requests.
//!
//! [`Session::capture_state`](crate::Session::capture_state) materialises
//! everything a session accumulated — the link universe **with its stable
//! session keys**, the backend's internal ordering, the warm repair state
//! (colors, budgets, baseline, carried skew), the dirty set, the persistent
//! trace-key bindings and the flight-recorder ring (as its JSONL fold, see
//! `wagg_obs::export`) — into [`SessionState`], a tree of plain data with no
//! engines inside. [`Session::restore_state`](crate::Session::restore_state)
//! rebuilds a live session from it: engines are re-materialised through the
//! bulk seeding paths (`InterferenceEngine::with_links`,
//! `PartitionedEngine::with_links`) and the warm state is re-attached, so
//! the restored session's next solve is **byte-identical** to the solve the
//! original session would have produced — without re-running the full
//! recolor the warm state stands for.
//!
//! What is *not* captured: installed [`Recorder`](wagg_obs::Recorder)s
//! (metrics are cumulative per recorder — install a fresh one after
//! restore), and, for engine-backed sessions only, the event accounting
//! (`SessionStats` counters restart at zero; the engine owns them and the
//! bulk rebuild starts them fresh).
//!
//! Restoration validates before it builds: a [`SessionState`] decoded from
//! hostile bytes comes back as a typed [`RestoreError`], never a panic —
//! the contract the `wagg-wire` hostility suite leans on.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use wagg_obs::telemetry::TelemetryConfig;
use wagg_schedule::ScheduleReport;
use wagg_sinr::Link;

use crate::SessionConfig;

/// One link of a backend's universe, paired with its stable session key.
///
/// The order of these entries inside [`BackendState`] is the backend's
/// internal order and is load-bearing: map-backed backends list ascending
/// keys, the engine backend lists ascending engine slots (a recycled slot
/// can place a newer link before an older one), and the warm state's
/// vectors index positions in exactly this order.
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
    /// Insert events applied.
    pub inserts: usize,
    /// Remove events applied.
    pub removals: usize,
    /// Move/relocate events applied.
    pub moves: usize,
}

/// A backend's warm repair state (see `wagg_schedule::solve_repair`):
/// position-indexed colors and budgets, the re-anchoring baseline, and the
/// occupancy skew carried by hinted sharded backends.
///
/// This is the live state, not a copy of it: a repair-capable backend keeps
/// one beside its solve-order mirror, splices it per event, lets the repair
/// kernel edit its vectors in place, and re-captures it on every full
/// recolor. A snapshot clones it.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmState {
    /// Position → committed slot; `None` marks a link dirtied since the
    /// last repair-committed schedule.
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

    /// Splices a fresh (dirty, unscheduled) entry in at `pos`.
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

    /// Marks the entry at `pos` dirty (geometry changed in place).
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

/// The backend-specific half of a [`SessionState`]: which strategy was
/// live, its universe in internal order, and its incremental state.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendState {
    /// [`crate::StaticBackend`] — a key-ordered link map.
    Static {
        /// The universe, ascending by key.
        links: Vec<KeyedLink>,
        /// The next key an insert would mint.
        next_key: u64,
        /// Event accounting.
        counts: EventCounts,
    },
    /// [`crate::EngineBackend`] — the incremental interference engine.
    Engine {
        /// The universe in ascending engine-slot order (the engine's solve
        /// order; slots recycle, so this is not key order).
        links: Vec<KeyedLink>,
        /// The next key an insert would mint.
        next_key: u64,
        /// Keys dirtied since the last repair-committed schedule,
        /// ascending.
        dirty: Vec<u64>,
        /// Warm repair state (`None` before the first repair-enabled
        /// solve).
        warm: Option<WarmState>,
        /// Event accounting (informational: the engine re-derives its own
        /// counters, so these do not survive a restore).
        counts: EventCounts,
    },
    /// [`crate::ShardedBackend`] in re-tiling mode (no partition hints).
    ShardedRebuild {
        /// The universe, ascending by key.
        links: Vec<KeyedLink>,
        /// The next key an insert would mint.
        next_key: u64,
        /// Event accounting.
        counts: EventCounts,
    },
    /// [`crate::ShardedBackend`] over an incrementally maintained
    /// `PartitionedEngine` (partition hints declared).
    ShardedEngine {
        /// The universe, ascending by key (the mirror's position order).
        links: Vec<KeyedLink>,
        /// The next key an insert would mint.
        next_key: u64,
        /// Keys dirtied since the last repair-committed schedule,
        /// ascending.
        dirty: Vec<u64>,
        /// Warm repair state (`None` before the first repair-enabled
        /// solve).
        warm: Option<WarmState>,
        /// Event accounting.
        counts: EventCounts,
    },
}

impl BackendState {
    /// The number of live links in the captured universe.
    pub fn len(&self) -> usize {
        self.links().len()
    }

    /// Whether the captured universe is empty.
    pub fn is_empty(&self) -> bool {
        self.links().is_empty()
    }

    /// The captured universe in backend order.
    pub fn links(&self) -> &[KeyedLink] {
        match self {
            BackendState::Static { links, .. }
            | BackendState::Engine { links, .. }
            | BackendState::ShardedRebuild { links, .. }
            | BackendState::ShardedEngine { links, .. } => links,
        }
    }
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
    /// The resolved backend and its internal state.
    pub backend: BackendState,
    /// Persistent trace-key → session-key bindings
    /// ([`crate::Session::apply_trace`]), ascending by trace key.
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
    /// A map-backed universe's keys are not strictly ascending.
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
    /// A dirty entry names no live link.
    UnknownDirtyKey {
        /// The offending key.
        key: u64,
    },
    /// The dirty list is not strictly ascending.
    DirtyOrder {
        /// The first out-of-order key.
        key: u64,
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
    /// A hinted sharded state without partition hints in the config.
    MissingPartitionHints,
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
            RestoreError::UnknownDirtyKey { key } => {
                write!(f, "dirty key {key} names no live link")
            }
            RestoreError::DirtyOrder { key } => {
                write!(f, "dirty keys are not strictly ascending at key {key}")
            }
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
            RestoreError::MissingPartitionHints => {
                write!(
                    f,
                    "hinted sharded state but the config declares no partition hints"
                )
            }
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

/// Shared validation: keys strictly ascending (map-backed universes).
pub(crate) fn check_ascending(links: &[KeyedLink]) -> Result<(), RestoreError> {
    for w in links.windows(2) {
        if w[1].key <= w[0].key {
            return Err(if w[1].key == w[0].key {
                RestoreError::DuplicateKey { key: w[1].key }
            } else {
                RestoreError::KeyOrder { key: w[1].key }
            });
        }
    }
    Ok(())
}

/// Shared validation: keys unique (slot-ordered universes, where keys need
/// not ascend).
pub(crate) fn check_unique(links: &[KeyedLink]) -> Result<(), RestoreError> {
    let mut keys: Vec<u64> = links.iter().map(|k| k.key).collect();
    keys.sort_unstable();
    for w in keys.windows(2) {
        if w[0] == w[1] {
            return Err(RestoreError::DuplicateKey { key: w[0] });
        }
    }
    Ok(())
}

/// Shared validation: `next_key` past every live key.
pub(crate) fn check_next_key(links: &[KeyedLink], next_key: u64) -> Result<(), RestoreError> {
    if let Some(max_key) = links.iter().map(|k| k.key).max() {
        if next_key <= max_key {
            return Err(RestoreError::NextKeyTooSmall { next_key, max_key });
        }
    }
    Ok(())
}

/// Shared validation: the dirty list is strictly ascending and every entry
/// names a live key.
pub(crate) fn check_dirty(links: &[KeyedLink], dirty: &[u64]) -> Result<(), RestoreError> {
    for w in dirty.windows(2) {
        if w[1] <= w[0] {
            return Err(RestoreError::DirtyOrder { key: w[1] });
        }
    }
    let live: HashSet<u64> = links.iter().map(|k| k.key).collect();
    for &key in dirty {
        if !live.contains(&key) {
            return Err(RestoreError::UnknownDirtyKey { key });
        }
    }
    Ok(())
}

/// Shared validation: warm vectors in lockstep, colors and baseline
/// bounded, budgets finite.
pub(crate) fn check_warm(links: &[KeyedLink], warm: &WarmState) -> Result<(), RestoreError> {
    let n = links.len();
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
    for (pos, b) in warm.budgets.iter().enumerate() {
        if !b.is_finite() {
            return Err(RestoreError::BudgetNotFinite { pos });
        }
    }
    if warm.baseline_slots > n {
        return Err(RestoreError::BaselineOutOfRange {
            baseline: warm.baseline_slots,
            links: n,
        });
    }
    Ok(())
}
