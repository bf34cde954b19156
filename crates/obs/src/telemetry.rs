//! Longitudinal telemetry: the session flight recorder.
//!
//! A [`Recorder`](crate::Recorder) makes one solve transparent; every
//! [`Metrics`](crate::Metrics) snapshot is still an isolated point. The
//! [`FlightRecorder`] is the longitudinal layer on top: the session
//! facade feeds it one [`SolveSample`] per solve, and it maintains
//!
//! * a bounded **ring buffer** of the last `window` samples (the raw
//!   trace, JSONL-exportable through [`crate::export`]);
//! * per-series **rolling statistics** ([`SeriesStats`]): cumulative
//!   EWMA, windowed min/max/mean over the ring, and p50/p90/p99 from
//!   the same log₂ [`Histogram`]s the recorder uses;
//! * hysteresis-gated **health signals** ([`HealthSignal`]): occupancy
//!   skew above threshold, repair-drift trend, and latency regression
//!   (a fast-vs-slow EWMA ratio), the same fire/clear margin pattern
//!   the fading layer uses for `handover_events`.
//!
//! All sample and report types here are plain data in both feature
//! configurations; only the [`FlightRecorder`] handle itself is gated —
//! with `obs` off it is a zero-sized no-op, `record` is an empty body,
//! and [`HealthReport`]s are simply empty.
//!
//! # Hysteresis
//!
//! Each signal holds a `fire_threshold > clear_threshold` pair: it
//! becomes active when its value rises **strictly above** the fire
//! threshold and deactivates only when the value falls **strictly
//! below** the clear threshold, so a value oscillating inside the
//! margin never flaps the signal. Transitions are counted (`fired`,
//! `cleared`) and stamped with the sample sequence number (`since`).

use crate::Histogram;

/// Which scheduling backend produced a solve — the flight recorder's
/// own mirror of the report-layer backend kind (`wagg-obs` sits below
/// `wagg-schedule`, so it cannot name that type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendTag {
    /// The one-shot static kernel.
    #[default]
    Static,
    /// The incremental engine.
    Engine,
    /// The sharded partition pipeline.
    Sharded,
}

impl BackendTag {
    /// The stable lowercase token used by the JSONL codec.
    pub fn token(self) -> &'static str {
        match self {
            BackendTag::Static => "static",
            BackendTag::Engine => "engine",
            BackendTag::Sharded => "sharded",
        }
    }

    /// Parses a [`BackendTag::token`] back.
    pub fn parse_token(s: &str) -> Option<BackendTag> {
        match s {
            "static" => Some(BackendTag::Static),
            "engine" => Some(BackendTag::Engine),
            "sharded" => Some(BackendTag::Sharded),
            _ => None,
        }
    }
}

/// How a warm-start solve was resolved — mirrors the session layer's
/// repair decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairTag {
    /// The dirty set was repaired in place.
    #[default]
    Repaired,
    /// The repair policy fell back to a cold solve.
    ColdStart,
    /// Accumulated drift breached the watermark; full re-solve.
    WatermarkBreach,
    /// The backend does not support warm repair.
    Unsupported,
}

impl RepairTag {
    /// The stable lowercase token used by the JSONL codec.
    pub fn token(self) -> &'static str {
        match self {
            RepairTag::Repaired => "repaired",
            RepairTag::ColdStart => "cold-start",
            RepairTag::WatermarkBreach => "watermark-breach",
            RepairTag::Unsupported => "unsupported",
        }
    }

    /// Parses a [`RepairTag::token`] back.
    pub fn parse_token(s: &str) -> Option<RepairTag> {
        match s {
            "repaired" => Some(RepairTag::Repaired),
            "cold-start" => Some(RepairTag::ColdStart),
            "watermark-breach" => Some(RepairTag::WatermarkBreach),
            "unsupported" => Some(RepairTag::Unsupported),
            _ => None,
        }
    }
}

/// The repair-path slice of a [`SolveSample`] (present when the solve
/// went through the warm-start path).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RepairSample {
    /// How the warm solve was resolved.
    pub decision: RepairTag,
    /// Links invalidated by the churn batch.
    pub dirty: u64,
    /// Links actually recolored.
    pub replaced: u64,
    /// Fractional schedule-length drift versus the warm baseline
    /// (`(slots − baseline) / baseline`; may be negative).
    pub drift: f64,
}

/// The sharded-pipeline slice of a [`SolveSample`] (present when the
/// sharded backend produced the solve).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardSample {
    /// Links owned by the fullest shard.
    pub max_owned: u64,
    /// Mean links owned per shard.
    pub mean_owned: f64,
    /// Ghost copies as a fraction of owned links.
    pub ghost_fraction: f64,
}

impl ShardSample {
    /// Occupancy skew: `max_owned / mean_owned` (`0` when the mean is
    /// zero). `1.0` is perfectly balanced.
    pub fn skew(&self) -> f64 {
        if self.mean_owned > 0.0 {
            self.max_owned as f64 / self.mean_owned
        } else {
            0.0
        }
    }
}

/// One solve, as the flight recorder sees it: the longitudinal
/// cross-section of a `SolveReport`.
///
/// `seq` is assigned by [`FlightRecorder::record`] (callers may leave
/// it zero); everything else is filled by the session facade from the
/// report it is about to return.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveSample {
    /// Position of this solve in the recorder's history (0-based,
    /// assigned at record time).
    pub seq: u64,
    /// Wall-clock nanoseconds for the whole `Session::solve` call.
    pub wall_nanos: u64,
    /// Which backend solved.
    pub backend: BackendTag,
    /// Links in the instance at solve time.
    pub links: u64,
    /// Schedule length produced.
    pub slots: u64,
    /// Certified-verifier exact fallbacks attributable to this solve
    /// (a per-solve delta, not the cumulative counter).
    pub exact_fallbacks: u64,
    /// Certified-verifier cache evictions attributable to this solve
    /// (per-solve delta).
    pub evictions: u64,
    /// Warm-repair details, when the solve took the repair path.
    pub repair: Option<RepairSample>,
    /// Shard-occupancy details, when the sharded backend solved.
    pub sharding: Option<ShardSample>,
}

/// The time series a [`FlightRecorder`] maintains, one per scalar
/// extracted from each [`SolveSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// `wall_nanos`.
    WallNanos,
    /// `slots` (schedule length).
    Slots,
    /// `sharding.skew()` — absent for unsharded solves.
    Skew,
    /// `repair.drift` (signed) — absent for cold solves.
    Drift,
    /// `sharding.ghost_fraction` — absent for unsharded solves.
    GhostFraction,
    /// `repair.dirty` — absent for cold solves.
    Dirty,
    /// `repair.replaced` — absent for cold solves.
    Replaced,
    /// `exact_fallbacks` (per-solve delta).
    ExactFallbacks,
    /// `evictions` (per-solve delta).
    Evictions,
}

impl SeriesKind {
    /// Every series, in exposition order.
    pub const ALL: [SeriesKind; 9] = [
        SeriesKind::WallNanos,
        SeriesKind::Slots,
        SeriesKind::Skew,
        SeriesKind::Drift,
        SeriesKind::GhostFraction,
        SeriesKind::Dirty,
        SeriesKind::Replaced,
        SeriesKind::ExactFallbacks,
        SeriesKind::Evictions,
    ];

    /// The stable snake_case token used in the text exposition.
    pub fn token(self) -> &'static str {
        match self {
            SeriesKind::WallNanos => "wall_nanos",
            SeriesKind::Slots => "slots",
            SeriesKind::Skew => "skew",
            SeriesKind::Drift => "drift",
            SeriesKind::GhostFraction => "ghost_fraction",
            SeriesKind::Dirty => "dirty",
            SeriesKind::Replaced => "replaced",
            SeriesKind::ExactFallbacks => "exact_fallbacks",
            SeriesKind::Evictions => "evictions",
        }
    }

    /// Extracts this series' scalar from a sample (`None` when the
    /// sample has no value for it, e.g. skew on an unsharded solve).
    pub fn value_of(self, s: &SolveSample) -> Option<f64> {
        match self {
            SeriesKind::WallNanos => Some(s.wall_nanos as f64),
            SeriesKind::Slots => Some(s.slots as f64),
            SeriesKind::Skew => s.sharding.map(|sh| sh.skew()),
            SeriesKind::Drift => s.repair.map(|r| r.drift),
            SeriesKind::GhostFraction => s.sharding.map(|sh| sh.ghost_fraction),
            SeriesKind::Dirty => s.repair.map(|r| r.dirty as f64),
            SeriesKind::Replaced => s.repair.map(|r| r.replaced as f64),
            SeriesKind::ExactFallbacks => Some(s.exact_fallbacks as f64),
            SeriesKind::Evictions => Some(s.evictions as f64),
        }
    }

    /// Fractional series are scaled by `1e6` ("micro-units") before
    /// entering the integer log₂ histogram; [`FlightRecorder::quantile`]
    /// divides back out.
    #[cfg_attr(not(feature = "obs"), allow(dead_code))]
    pub(crate) fn scale(self) -> f64 {
        match self {
            SeriesKind::Skew | SeriesKind::Drift | SeriesKind::GhostFraction => 1e6,
            _ => 1.0,
        }
    }
}

/// Rolling statistics for one series: cumulative over the full history
/// (`count`, `last`, `ewma`) and windowed over the retained ring
/// (`win_*`). All zeros when the series never observed a value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SeriesStats {
    /// Observations over the recorder's full history.
    pub count: u64,
    /// Most recent value.
    pub last: f64,
    /// Exponentially weighted moving average (`ewma_alpha`).
    pub ewma: f64,
    /// Samples in the current window that carry this series.
    pub win_count: u64,
    /// Minimum over the window.
    pub win_min: f64,
    /// Maximum over the window.
    pub win_max: f64,
    /// Mean over the window.
    pub win_mean: f64,
}

/// Thresholds and gates for the health detectors. Every pair obeys
/// `fire > clear`; see the module docs for the hysteresis rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// A detector stays quiet until its underlying series has at least
    /// this many observations (avoids firing on start-up noise).
    pub min_samples: u64,
    /// Skew signal fires when `max_owned / mean_owned` exceeds this.
    pub skew_fire: f64,
    /// Skew signal clears below this.
    pub skew_clear: f64,
    /// Drift signal fires when the EWMA of `|repair.drift|` exceeds
    /// this.
    pub drift_fire: f64,
    /// Drift signal clears below this.
    pub drift_clear: f64,
    /// Latency signal fires when the fast/slow EWMA ratio of
    /// `wall_nanos` exceeds this.
    pub latency_fire: f64,
    /// Latency signal clears below this.
    pub latency_clear: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            min_samples: 8,
            skew_fire: 2.0,
            skew_clear: 1.5,
            drift_fire: 0.15,
            drift_clear: 0.05,
            latency_fire: 2.0,
            latency_clear: 1.25,
        }
    }
}

/// Flight-recorder tuning: ring capacity, smoothing factors, and the
/// health thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity: how many [`SolveSample`]s are retained
    /// (clamped to at least 1).
    pub window: usize,
    /// Smoothing factor for every series' [`SeriesStats::ewma`]
    /// (`1.0` = last value only).
    pub ewma_alpha: f64,
    /// Fast smoothing factor for the latency-regression detector.
    pub fast_alpha: f64,
    /// Slow smoothing factor for the latency-regression detector.
    pub slow_alpha: f64,
    /// Detector thresholds.
    pub health: HealthConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window: 512,
            ewma_alpha: 0.2,
            fast_alpha: 0.5,
            slow_alpha: 0.05,
            health: HealthConfig::default(),
        }
    }
}

/// The three health detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// Shard-occupancy skew above threshold.
    Skew,
    /// Repair-drift trend (EWMA of `|drift|`).
    Drift,
    /// Latency regression (fast/slow EWMA ratio of wall time).
    Latency,
}

impl SignalKind {
    /// Every detector, in report order.
    pub const ALL: [SignalKind; 3] = [SignalKind::Skew, SignalKind::Drift, SignalKind::Latency];

    /// The stable lowercase token used in the Prometheus exposition.
    pub fn token(self) -> &'static str {
        match self {
            SignalKind::Skew => "skew",
            SignalKind::Drift => "drift",
            SignalKind::Latency => "latency",
        }
    }
}

/// One hysteresis-gated detector's state at report time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSignal {
    /// Which detector.
    pub kind: SignalKind,
    /// Whether the signal is currently firing.
    pub active: bool,
    /// The detector's latest value (skew ratio, drift EWMA, latency
    /// ratio).
    pub value: f64,
    /// Value above which the signal fires.
    pub fire_threshold: f64,
    /// Value below which an active signal clears.
    pub clear_threshold: f64,
    /// How many times the signal has fired.
    pub fired: u64,
    /// How many times it has cleared.
    pub cleared: u64,
    /// Sequence number of the sample at the last transition (0 if it
    /// never transitioned).
    pub since: u64,
}

/// The health report the session attaches to each `SolveReport`: every
/// detector's current state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Solves recorded so far.
    pub solves: u64,
    /// One entry per [`SignalKind`], in [`SignalKind::ALL`] order.
    /// Empty when no flight recorder is installed.
    pub signals: Vec<HealthSignal>,
}

impl HealthReport {
    /// Whether no flight recorder contributed (no detectors, nothing
    /// recorded).
    pub fn is_empty(&self) -> bool {
        self.solves == 0 && self.signals.is_empty()
    }

    /// Whether any detector is currently firing.
    pub fn any_active(&self) -> bool {
        self.signals.iter().any(|s| s.active)
    }

    /// The state of one detector, if present.
    pub fn signal(&self, kind: SignalKind) -> Option<&HealthSignal> {
        self.signals.iter().find(|s| s.kind == kind)
    }

    /// A one-line digest: `health ok (skew 1.20, drift 0.010, latency
    /// 1.00)`, with `!` marking firing detectors.
    pub fn summary(&self) -> String {
        if self.signals.is_empty() {
            return "health: no detectors".to_string();
        }
        let parts: Vec<String> = self
            .signals
            .iter()
            .map(|s| {
                format!(
                    "{} {:.3}{}",
                    s.kind.token(),
                    s.value,
                    if s.active { "!" } else { "" }
                )
            })
            .collect();
        format!(
            "health {} ({})",
            if self.any_active() { "FIRING" } else { "ok" },
            parts.join(", ")
        )
    }
}

#[cfg(feature = "obs")]
mod imp {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Cumulative state for one series.
    #[derive(Debug, Clone, PartialEq)]
    struct SeriesState {
        count: u64,
        last: f64,
        ewma: f64,
        hist: Histogram,
    }

    impl SeriesState {
        fn new() -> Self {
            SeriesState {
                count: 0,
                last: 0.0,
                ewma: 0.0,
                hist: Histogram::new(),
            }
        }

        fn push(&mut self, v: f64, alpha: f64, scale: f64) {
            self.last = v;
            self.ewma = if self.count == 0 {
                v
            } else {
                self.ewma + alpha * (v - self.ewma)
            };
            self.count += 1;
            let scaled = (v * scale).round();
            self.hist
                .observe(if scaled > 0.0 { scaled as u64 } else { 0 });
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    struct SignalState {
        active: bool,
        value: f64,
        fired: u64,
        cleared: u64,
        since: u64,
    }

    impl SignalState {
        /// The hysteresis step: fire strictly above `fire`, clear
        /// strictly below `clear`, never flap inside the margin.
        fn step(&mut self, value: f64, fire: f64, clear: f64, seq: u64) {
            self.value = value;
            if !self.active && value > fire {
                self.active = true;
                self.fired += 1;
                self.since = seq;
            } else if self.active && value < clear {
                self.active = false;
                self.cleared += 1;
                self.since = seq;
            }
        }
    }

    #[derive(Debug, PartialEq)]
    struct FlightState {
        config: TelemetryConfig,
        solves: u64,
        ring: VecDeque<SolveSample>,
        series: Vec<SeriesState>,
        wall_fast: f64,
        wall_slow: f64,
        drift_abs_ewma: f64,
        drift_abs_count: u64,
        signals: [SignalState; 3],
    }

    impl FlightState {
        fn new(mut config: TelemetryConfig) -> Self {
            config.window = config.window.max(1);
            FlightState {
                config,
                solves: 0,
                ring: VecDeque::new(),
                series: SeriesKind::ALL.iter().map(|_| SeriesState::new()).collect(),
                wall_fast: 0.0,
                wall_slow: 0.0,
                drift_abs_ewma: 0.0,
                drift_abs_count: 0,
                signals: [SignalState::default(); 3],
            }
        }

        fn record(&mut self, mut sample: SolveSample) -> u64 {
            sample.seq = self.solves;
            self.solves += 1;
            if self.ring.len() == self.config.window {
                self.ring.pop_front();
            }
            self.ring.push_back(sample);

            for (i, kind) in SeriesKind::ALL.iter().enumerate() {
                if let Some(v) = kind.value_of(&sample) {
                    self.series[i].push(v, self.config.ewma_alpha, kind.scale());
                }
            }

            let w = sample.wall_nanos as f64;
            if self.solves == 1 {
                self.wall_fast = w;
                self.wall_slow = w;
            } else {
                self.wall_fast += self.config.fast_alpha * (w - self.wall_fast);
                self.wall_slow += self.config.slow_alpha * (w - self.wall_slow);
            }
            if let Some(r) = sample.repair {
                self.drift_abs_ewma = if self.drift_abs_count == 0 {
                    r.drift.abs()
                } else {
                    self.drift_abs_ewma
                        + self.config.ewma_alpha * (r.drift.abs() - self.drift_abs_ewma)
                };
                self.drift_abs_count += 1;
            }

            let h = self.config.health;
            let seq = sample.seq;
            if let Some(sh) = sample.sharding {
                if self.series[skew_idx()].count >= h.min_samples {
                    self.signals[0].step(sh.skew(), h.skew_fire, h.skew_clear, seq);
                }
            }
            if self.drift_abs_count >= h.min_samples {
                self.signals[1].step(self.drift_abs_ewma, h.drift_fire, h.drift_clear, seq);
            }
            if self.solves >= h.min_samples && self.wall_slow > 0.0 {
                self.signals[2].step(
                    self.wall_fast / self.wall_slow,
                    h.latency_fire,
                    h.latency_clear,
                    seq,
                );
            }
            seq
        }

        fn series_stats(&self, kind: SeriesKind) -> SeriesStats {
            let idx = SeriesKind::ALL.iter().position(|k| *k == kind).unwrap();
            let st = &self.series[idx];
            let mut out = SeriesStats {
                count: st.count,
                last: st.last,
                ewma: st.ewma,
                ..SeriesStats::default()
            };
            let mut sum = 0.0;
            for s in &self.ring {
                if let Some(v) = kind.value_of(s) {
                    if out.win_count == 0 {
                        out.win_min = v;
                        out.win_max = v;
                    } else {
                        out.win_min = out.win_min.min(v);
                        out.win_max = out.win_max.max(v);
                    }
                    out.win_count += 1;
                    sum += v;
                }
            }
            if out.win_count > 0 {
                out.win_mean = sum / out.win_count as f64;
            }
            out
        }

        fn health(&self) -> HealthReport {
            let h = self.config.health;
            let thresholds = [
                (h.skew_fire, h.skew_clear),
                (h.drift_fire, h.drift_clear),
                (h.latency_fire, h.latency_clear),
            ];
            HealthReport {
                solves: self.solves,
                signals: SignalKind::ALL
                    .iter()
                    .zip(self.signals.iter().zip(thresholds.iter()))
                    .map(|(kind, (s, &(fire, clear)))| HealthSignal {
                        kind: *kind,
                        active: s.active,
                        value: s.value,
                        fire_threshold: fire,
                        clear_threshold: clear,
                        fired: s.fired,
                        cleared: s.cleared,
                        since: s.since,
                    })
                    .collect(),
            }
        }
    }

    fn skew_idx() -> usize {
        SeriesKind::ALL
            .iter()
            .position(|k| *k == SeriesKind::Skew)
            .unwrap()
    }

    /// The session flight recorder: a bounded longitudinal trace of
    /// [`SolveSample`]s with rolling statistics and health detectors.
    ///
    /// Cheap to clone (an `Arc`); [`FlightRecorder::disabled`] (also
    /// `Default`) is an inert handle that records nothing, so the
    /// session can hold one unconditionally. Two recorders compare
    /// equal when their entire accumulated state is equal — the
    /// property the JSONL replay tests pin.
    #[derive(Debug, Clone, Default)]
    pub struct FlightRecorder {
        inner: Option<Arc<Mutex<FlightState>>>,
    }

    impl FlightRecorder {
        /// An enabled flight recorder with the default
        /// [`TelemetryConfig`].
        pub fn new() -> Self {
            FlightRecorder::with_config(TelemetryConfig::default())
        }

        /// An enabled flight recorder with explicit tuning.
        pub fn with_config(config: TelemetryConfig) -> Self {
            FlightRecorder {
                inner: Some(Arc::new(Mutex::new(FlightState::new(config)))),
            }
        }

        /// An inert handle: `record` drops samples, every query answers
        /// the empty value.
        pub fn disabled() -> Self {
            FlightRecorder { inner: None }
        }

        /// Whether samples are being retained.
        pub fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }

        /// The active configuration (default when disabled).
        pub fn config(&self) -> TelemetryConfig {
            match &self.inner {
                Some(inner) => inner.lock().expect("flight recorder poisoned").config,
                None => TelemetryConfig::default(),
            }
        }

        /// Records one solve: assigns the sample's sequence number,
        /// folds it into every series, and steps the health detectors.
        /// Returns the assigned sequence number (0 when disabled).
        pub fn record(&self, sample: SolveSample) -> u64 {
            match &self.inner {
                Some(inner) => inner
                    .lock()
                    .expect("flight recorder poisoned")
                    .record(sample),
                None => 0,
            }
        }

        /// Total solves recorded over the recorder's lifetime.
        pub fn solves(&self) -> u64 {
            match &self.inner {
                Some(inner) => inner.lock().expect("flight recorder poisoned").solves,
                None => 0,
            }
        }

        /// Samples currently retained (`min(solves, capacity)`).
        pub fn len(&self) -> usize {
            match &self.inner {
                Some(inner) => inner.lock().expect("flight recorder poisoned").ring.len(),
                None => 0,
            }
        }

        /// Whether nothing is retained.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The ring capacity (0 when disabled).
        pub fn capacity(&self) -> usize {
            match &self.inner {
                Some(inner) => {
                    inner
                        .lock()
                        .expect("flight recorder poisoned")
                        .config
                        .window
                }
                None => 0,
            }
        }

        /// The most recent sample, if any.
        pub fn last(&self) -> Option<SolveSample> {
            match &self.inner {
                Some(inner) => inner
                    .lock()
                    .expect("flight recorder poisoned")
                    .ring
                    .back()
                    .copied(),
                None => None,
            }
        }

        /// A snapshot of the retained window, oldest first.
        pub fn samples(&self) -> Vec<SolveSample> {
            match &self.inner {
                Some(inner) => inner
                    .lock()
                    .expect("flight recorder poisoned")
                    .ring
                    .iter()
                    .copied()
                    .collect(),
                None => Vec::new(),
            }
        }

        /// Rolling statistics for one series (all zeros when disabled
        /// or never observed).
        pub fn series(&self, kind: SeriesKind) -> SeriesStats {
            match &self.inner {
                Some(inner) => inner
                    .lock()
                    .expect("flight recorder poisoned")
                    .series_stats(kind),
                None => SeriesStats::default(),
            }
        }

        /// The `q`-quantile of a series over the recorder's full
        /// history, answered from its log₂ histogram (fractional series
        /// are descaled back from micro-units). `0.0` when disabled or
        /// empty.
        pub fn quantile(&self, kind: SeriesKind, q: f64) -> f64 {
            match &self.inner {
                Some(inner) => {
                    let state = inner.lock().expect("flight recorder poisoned");
                    let idx = SeriesKind::ALL.iter().position(|k| *k == kind).unwrap();
                    let st = &state.series[idx];
                    if st.count == 0 {
                        0.0
                    } else {
                        st.hist.quantile(q) as f64 / kind.scale()
                    }
                }
                None => 0.0,
            }
        }

        /// The series histogram itself (`None` when disabled or the
        /// series never observed a value). Fractional series are in
        /// micro-units.
        pub fn histogram(&self, kind: SeriesKind) -> Option<Histogram> {
            match &self.inner {
                Some(inner) => {
                    let state = inner.lock().expect("flight recorder poisoned");
                    let idx = SeriesKind::ALL.iter().position(|k| *k == kind).unwrap();
                    let st = &state.series[idx];
                    if st.count == 0 {
                        None
                    } else {
                        Some(st.hist.clone())
                    }
                }
                None => None,
            }
        }

        /// The current health report (empty when disabled).
        pub fn health(&self) -> HealthReport {
            match &self.inner {
                Some(inner) => inner.lock().expect("flight recorder poisoned").health(),
                None => HealthReport::default(),
            }
        }
    }

    impl PartialEq for FlightRecorder {
        /// State equality: two recorders are equal when their entire
        /// accumulated state (config, ring, series, detectors) is
        /// equal. Disabled handles are all equal to each other.
        fn eq(&self, other: &Self) -> bool {
            match (&self.inner, &other.inner) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    if Arc::ptr_eq(a, b) {
                        return true;
                    }
                    let ga = a.lock().expect("flight recorder poisoned");
                    let gb = b.lock().expect("flight recorder poisoned");
                    *ga == *gb
                }
                _ => false,
            }
        }
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    use super::*;

    /// The no-op flight recorder (the `obs` feature is off):
    /// zero-sized, records nothing, every query answers the empty
    /// value.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct FlightRecorder;

    impl FlightRecorder {
        /// A no-op flight recorder.
        pub fn new() -> Self {
            FlightRecorder
        }

        /// A no-op flight recorder.
        pub fn with_config(config: TelemetryConfig) -> Self {
            let _ = config;
            FlightRecorder
        }

        /// A no-op flight recorder.
        pub fn disabled() -> Self {
            FlightRecorder
        }

        /// Always `false` with the `obs` feature off.
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// Always the default configuration.
        pub fn config(&self) -> TelemetryConfig {
            TelemetryConfig::default()
        }

        /// Drops the sample; always `0`.
        pub fn record(&self, sample: SolveSample) -> u64 {
            let _ = sample;
            0
        }

        /// Always `0`.
        pub fn solves(&self) -> u64 {
            0
        }

        /// Always `0`.
        pub fn len(&self) -> usize {
            0
        }

        /// Always `true`.
        pub fn is_empty(&self) -> bool {
            true
        }

        /// Always `0`.
        pub fn capacity(&self) -> usize {
            0
        }

        /// Always `None`.
        pub fn last(&self) -> Option<SolveSample> {
            None
        }

        /// Always empty.
        pub fn samples(&self) -> Vec<SolveSample> {
            Vec::new()
        }

        /// Always the zero stats.
        pub fn series(&self, kind: SeriesKind) -> SeriesStats {
            let _ = kind;
            SeriesStats::default()
        }

        /// Always `0.0`.
        pub fn quantile(&self, kind: SeriesKind, q: f64) -> f64 {
            let _ = (kind, q);
            0.0
        }

        /// Always `None`.
        pub fn histogram(&self, kind: SeriesKind) -> Option<Histogram> {
            let _ = kind;
            None
        }

        /// Always the empty report.
        pub fn health(&self) -> HealthReport {
            HealthReport::default()
        }
    }
}

pub use imp::FlightRecorder;

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded_sample(wall: u64, slots: u64, max_owned: u64, mean_owned: f64) -> SolveSample {
        SolveSample {
            wall_nanos: wall,
            backend: BackendTag::Sharded,
            links: 100,
            slots,
            sharding: Some(ShardSample {
                max_owned,
                mean_owned,
                ghost_fraction: 0.1,
            }),
            ..SolveSample::default()
        }
    }

    /// A config where every statistic is the last value and detectors
    /// arm after one sample — everything hand-computable.
    #[cfg(feature = "obs")]
    fn instant_config() -> TelemetryConfig {
        TelemetryConfig {
            window: 8,
            ewma_alpha: 1.0,
            fast_alpha: 1.0,
            slow_alpha: 0.0,
            health: HealthConfig {
                min_samples: 1,
                ..HealthConfig::default()
            },
        }
    }

    #[test]
    fn token_round_trips() {
        for tag in [BackendTag::Static, BackendTag::Engine, BackendTag::Sharded] {
            assert_eq!(BackendTag::parse_token(tag.token()), Some(tag));
        }
        for tag in [
            RepairTag::Repaired,
            RepairTag::ColdStart,
            RepairTag::WatermarkBreach,
            RepairTag::Unsupported,
        ] {
            assert_eq!(RepairTag::parse_token(tag.token()), Some(tag));
        }
        assert_eq!(BackendTag::parse_token("nope"), None);
        assert_eq!(RepairTag::parse_token(""), None);
    }

    #[test]
    fn shard_sample_skew() {
        let s = ShardSample {
            max_owned: 30,
            mean_owned: 10.0,
            ghost_fraction: 0.0,
        };
        assert!((s.skew() - 3.0).abs() < 1e-12);
        let z = ShardSample::default();
        assert_eq!(z.skew(), 0.0);
    }

    #[test]
    fn health_report_helpers() {
        let empty = HealthReport::default();
        assert!(empty.is_empty());
        assert!(!empty.any_active());
        assert_eq!(empty.signal(SignalKind::Skew), None);
        assert_eq!(empty.summary(), "health: no detectors");
    }

    #[cfg(not(feature = "obs"))]
    mod disabled {
        use super::*;

        #[test]
        fn flight_recorder_is_zero_sized_and_inert() {
            assert_eq!(std::mem::size_of::<FlightRecorder>(), 0);
            let fr = FlightRecorder::new();
            assert!(!fr.is_enabled());
            assert_eq!(fr.record(sharded_sample(10, 3, 5, 5.0)), 0);
            assert_eq!(fr.solves(), 0);
            assert_eq!(fr.len(), 0);
            assert!(fr.is_empty());
            assert_eq!(fr.capacity(), 0);
            assert_eq!(fr.last(), None);
            assert!(fr.samples().is_empty());
            assert_eq!(fr.series(SeriesKind::WallNanos), SeriesStats::default());
            assert_eq!(fr.quantile(SeriesKind::WallNanos, 0.5), 0.0);
            assert!(fr.histogram(SeriesKind::WallNanos).is_none());
            assert!(fr.health().is_empty());
            assert_eq!(FlightRecorder::disabled(), FlightRecorder::new());
        }
    }

    #[cfg(feature = "obs")]
    mod enabled {
        use super::*;

        #[test]
        fn ring_is_bounded_and_seq_is_assigned() {
            let fr = FlightRecorder::with_config(TelemetryConfig {
                window: 4,
                ..TelemetryConfig::default()
            });
            assert!(fr.is_enabled());
            assert_eq!(fr.capacity(), 4);
            for i in 0..10u64 {
                let seq = fr.record(sharded_sample(100 + i, 5, 10, 10.0));
                assert_eq!(seq, i);
                assert!(fr.len() <= 4);
            }
            assert_eq!(fr.solves(), 10);
            assert_eq!(fr.len(), 4);
            let samples = fr.samples();
            assert_eq!(samples.len(), 4);
            // Oldest first, the last `window` records survive.
            assert_eq!(samples[0].seq, 6);
            assert_eq!(fr.last().unwrap().seq, 9);
        }

        #[test]
        fn series_stats_are_hand_computable() {
            let fr = FlightRecorder::with_config(instant_config());
            for (wall, slots) in [(100u64, 5u64), (200, 7), (400, 6)] {
                fr.record(SolveSample {
                    wall_nanos: wall,
                    slots,
                    backend: BackendTag::Engine,
                    links: 50,
                    ..SolveSample::default()
                });
            }
            let wall = fr.series(SeriesKind::WallNanos);
            assert_eq!(wall.count, 3);
            assert_eq!(wall.last, 400.0);
            // alpha = 1.0: the EWMA is the last value.
            assert_eq!(wall.ewma, 400.0);
            assert_eq!(wall.win_count, 3);
            assert_eq!(wall.win_min, 100.0);
            assert_eq!(wall.win_max, 400.0);
            assert!((wall.win_mean - 700.0 / 3.0).abs() < 1e-9);
            // No sharded solves: the skew series never observed.
            let skew = fr.series(SeriesKind::Skew);
            assert_eq!(skew.count, 0);
            assert_eq!(skew.win_count, 0);
            // Quantile answers come from the log2 buckets: 400 sits in
            // [256, 511], its own bucket, for q = 1.
            let p100 = fr.quantile(SeriesKind::WallNanos, 1.0);
            assert!((256.0..=511.0).contains(&p100), "p100 = {p100}");
        }

        #[test]
        fn skew_signal_fires_and_clears_with_hysteresis() {
            let fr = FlightRecorder::with_config(instant_config());
            // Balanced: skew 1.0, below fire threshold 2.0.
            fr.record(sharded_sample(100, 5, 10, 10.0));
            assert!(!fr.health().any_active());
            // Skewed: 30/10 = 3.0 > 2.0 → fires.
            fr.record(sharded_sample(100, 5, 30, 10.0));
            let h = fr.health();
            let sig = h.signal(SignalKind::Skew).unwrap();
            assert!(sig.active);
            assert_eq!(sig.fired, 1);
            assert_eq!(sig.since, 1);
            assert!((sig.value - 3.0).abs() < 1e-12);
            // Inside the margin (1.8 ∈ (1.5, 2.0)): stays active.
            fr.record(sharded_sample(100, 5, 18, 10.0));
            assert!(fr.health().signal(SignalKind::Skew).unwrap().active);
            // Below clear threshold 1.5 → clears.
            fr.record(sharded_sample(100, 5, 10, 10.0));
            let sig2 = fr.health();
            let sig2 = sig2.signal(SignalKind::Skew).unwrap();
            assert!(!sig2.active);
            assert_eq!(sig2.cleared, 1);
            assert_eq!(sig2.since, 3);
            // Inside the margin from below: stays clear (no flap).
            fr.record(sharded_sample(100, 5, 18, 10.0));
            let sig3 = fr.health();
            let sig3 = sig3.signal(SignalKind::Skew).unwrap();
            assert!(!sig3.active);
            assert_eq!(sig3.fired, 1);
        }

        #[test]
        fn latency_signal_tracks_fast_slow_ratio() {
            // slow_alpha = 0 pins the slow EWMA at the first wall time;
            // fast_alpha = 1 makes the fast EWMA the last wall time, so
            // the detector value is last/first exactly.
            let fr = FlightRecorder::with_config(instant_config());
            fr.record(sharded_sample(1_000, 5, 10, 10.0));
            fr.record(sharded_sample(1_500, 5, 10, 10.0));
            let sig = fr.health();
            let sig = sig.signal(SignalKind::Latency).unwrap();
            assert!(!sig.active);
            assert!((sig.value - 1.5).abs() < 1e-12);
            // 3x regression > fire threshold 2.0 → fires.
            fr.record(sharded_sample(3_000, 5, 10, 10.0));
            assert!(fr.health().signal(SignalKind::Latency).unwrap().active);
            // Back under the clear threshold 1.25 → clears.
            fr.record(sharded_sample(1_000, 5, 10, 10.0));
            let h = fr.health();
            let sig = h.signal(SignalKind::Latency).unwrap();
            assert!(!sig.active);
            assert_eq!(sig.fired, 1);
            assert_eq!(sig.cleared, 1);
        }

        #[test]
        fn drift_signal_uses_abs_ewma() {
            let fr = FlightRecorder::with_config(instant_config());
            let repair = |drift: f64| SolveSample {
                wall_nanos: 100,
                backend: BackendTag::Engine,
                links: 50,
                slots: 5,
                repair: Some(RepairSample {
                    decision: RepairTag::Repaired,
                    dirty: 2,
                    replaced: 3,
                    drift,
                }),
                ..SolveSample::default()
            };
            fr.record(repair(0.01));
            assert!(!fr.health().signal(SignalKind::Drift).unwrap().active);
            // Negative drift counts by magnitude: |-0.2| > 0.15 fires.
            fr.record(repair(-0.2));
            assert!(fr.health().signal(SignalKind::Drift).unwrap().active);
            // The signed value still lands in the series.
            assert_eq!(fr.series(SeriesKind::Drift).last, -0.2);
            fr.record(repair(0.01));
            assert!(!fr.health().signal(SignalKind::Drift).unwrap().active);
        }

        #[test]
        fn min_samples_gates_detectors() {
            let mut config = instant_config();
            config.health.min_samples = 3;
            let fr = FlightRecorder::with_config(config);
            // Two wildly skewed solves: not armed yet.
            fr.record(sharded_sample(100, 5, 50, 10.0));
            fr.record(sharded_sample(100, 5, 50, 10.0));
            assert!(!fr.health().any_active());
            // Third arms and fires.
            fr.record(sharded_sample(100, 5, 50, 10.0));
            assert!(fr.health().signal(SignalKind::Skew).unwrap().active);
        }

        #[test]
        fn state_equality_tracks_recorded_history() {
            let a = FlightRecorder::with_config(instant_config());
            let b = FlightRecorder::with_config(instant_config());
            assert_eq!(a, b);
            a.record(sharded_sample(100, 5, 10, 10.0));
            assert_ne!(a, b);
            b.record(sharded_sample(100, 5, 10, 10.0));
            assert_eq!(a, b);
            // A clone shares state and is trivially equal.
            let c = a.clone();
            c.record(sharded_sample(7, 1, 1, 1.0));
            assert_eq!(a, c);
            assert_ne!(FlightRecorder::disabled(), a);
            assert_eq!(FlightRecorder::disabled(), FlightRecorder::disabled());
        }
    }
}
