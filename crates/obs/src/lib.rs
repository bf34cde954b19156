//! Zero-dependency instrumentation for the scheduling stack.
//!
//! Six PRs of machinery (kernel → engine → partition → session → repair)
//! were flying blind: every number in `BENCH_*.json` was external
//! wall-clock, and the internals — per-shard build/color/stitch splits,
//! pyramid-descent expansion counts, exact-fallback and eviction rates,
//! repair dirty-set sizes — were invisible. This crate is the shared
//! instrumentation core those layers thread a [`Recorder`] through:
//!
//! * **Spans** — [`Recorder::span`] returns an RAII [`Span`] timer; spans
//!   nest through [`Span::child`], and the `/`-separated paths form the
//!   phase tree that [`Recorder::metrics`] aggregates and
//!   [`Recorder::chrome_trace`] exports as a flamegraph-ready
//!   `trace_event` JSON file.
//! * **Counters** — [`Recorder::counter`] resolves a named monotone
//!   [`Counter`] once; increments are lock-free atomic adds, safe from
//!   inside `rayon` worker closures (the shim's or crates.io's). The
//!   repair path splits its warm-state commits into
//!   `repair.warm_patched` (a repair the kernel committed by editing the
//!   warm state in place) vs `repair.warm_recaptured` (full from-scratch
//!   re-anchor on cold starts and watermark breaches), so a session that
//!   silently stops taking the O(dirty) fast path shows up in telemetry.
//! * **Histograms** — [`Recorder::observe`] feeds a log₂-bucketed
//!   [`Histogram`] per name (latency distributions without storing
//!   samples, with interpolated [`Histogram::quantile`] read-out).
//!
//! The [`Recorder`] answers *where did this solve spend its time*; the
//! [`telemetry`] module answers *how is the system trending across
//! solves*. A [`FlightRecorder`] accumulates one [`SolveSample`] per
//! session solve into bounded ring-buffer time series with rolling
//! statistics (EWMA, windowed min/max/mean, log₂-histogram quantiles) and
//! steps hysteresis-gated health detectors — occupancy skew, repair
//! drift, latency regression — whose [`HealthReport`] the session attaches
//! to every report. The [`export`] module reads that state back out: a
//! Prometheus text exposition (`FlightRecorder::expose_text`) and a JSONL
//! event-log codec ([`export::replay`]) that reproduces recorder state
//! losslessly, truncated tails included. Every text format read back here
//! (JSONL samples, chrome traces) and the perf gate's bench results parse
//! with the one [`json`] reader.
//!
//! # Feature gating
//!
//! Everything above is behind the workspace-wide `obs` feature (default
//! on). With `--no-default-features` the handle types compile to
//! **zero-sized no-ops** — `size_of::<Recorder>() == 0`, every method an
//! empty body the optimiser deletes — while the snapshot types
//! ([`Metrics`], [`Histogram`], the [`trace`] validator, the [`json`]
//! reader) stay real, so call sites and signatures are identical in both
//! builds.
//!
//! # Thread-safety model
//!
//! The recorder is `Send + Sync` and cheap to clone (an `Arc`). Span
//! guards are independent values: each owns its start instant and records
//! into the shared registry only on drop, so spans opened on different
//! worker threads never contend until the final bookkeeping push. Hot
//! loops should resolve a [`Counter`] handle once and add into it —
//! that is one relaxed atomic per increment, no lock.
//!
//! # Examples
//!
//! ```
//! use wagg_obs::Recorder;
//!
//! let rec = Recorder::new();
//! {
//!     let solve = rec.span("solve");
//!     let _build = solve.child("build");
//!     rec.counter("edges").add(42);
//! }
//! let m = rec.metrics();
//! # #[cfg(feature = "obs")]
//! assert!(m.phase("solve/build").is_some());
//! # #[cfg(feature = "obs")]
//! assert_eq!(m.counter("edges"), Some(42));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
mod hist;
pub mod json;
pub mod telemetry;
pub mod trace;

pub use hist::Histogram;
pub use telemetry::{
    BackendTag, FlightRecorder, HealthConfig, HealthReport, HealthSignal, RepairSample, RepairTag,
    SeriesKind, SeriesStats, ShardSample, SignalKind, SolveSample, TelemetryConfig,
};

/// One aggregated phase of the span tree: every [`Span`] recorded under
/// `path` contributes its duration to `nanos` and one unit to `count`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseMetric {
    /// The `/`-separated span path (`"session/solve/partition/build"`).
    pub path: String,
    /// Total nanoseconds spent across all spans recorded at this path.
    pub nanos: u64,
    /// Number of spans recorded at this path.
    pub count: u64,
}

impl PhaseMetric {
    /// Total time at this path in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// One named monotone counter value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterMetric {
    /// The counter name (`"verifier.expansions"`).
    pub name: String,
    /// The accumulated value.
    pub value: u64,
}

/// One named log₂-bucketed histogram snapshot (see
/// [`Recorder::observe`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramMetric {
    /// The histogram name (`"session.solve_ns"`).
    pub name: String,
    /// The accumulated distribution.
    pub hist: Histogram,
}

/// A point-in-time aggregation of everything a [`Recorder`] has seen:
/// the phase tree (span durations summed per path), the counters, and
/// the observation histograms.
///
/// This is plain data in both feature configurations — it is the type the
/// session facade embeds into `SolveReport`, and `wagg-wire`'s report frame
/// carries it field for field. Phases, counters and histograms are sorted
/// by path/name, so two equal recordings compare equal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    /// The aggregated phase tree, sorted by path.
    pub phases: Vec<PhaseMetric>,
    /// The counters, sorted by name.
    pub counters: Vec<CounterMetric>,
    /// The observation histograms, sorted by name.
    pub hists: Vec<HistogramMetric>,
}

impl Metrics {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// The phase recorded at exactly `path`, if any.
    pub fn phase(&self, path: &str) -> Option<&PhaseMetric> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// The value of counter `name`, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram observed under `name`, if any samples landed.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    /// Sum of `nanos` over the *top-level* phases (paths without `/`) —
    /// the total instrumented wall-clock, without double-counting
    /// children.
    pub fn root_nanos(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| !p.path.contains('/'))
            .map(|p| p.nanos)
            .sum()
    }
}

#[cfg(feature = "obs")]
mod active;
#[cfg(feature = "obs")]
pub use active::{Counter, Recorder, Span};

#[cfg(not(feature = "obs"))]
mod noop;
#[cfg(not(feature = "obs"))]
pub use noop::{Counter, Recorder, Span};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_lookup_helpers() {
        let m = Metrics {
            phases: vec![
                PhaseMetric {
                    path: "solve".into(),
                    nanos: 2_000_000,
                    count: 1,
                },
                PhaseMetric {
                    path: "solve/build".into(),
                    nanos: 1_500_000,
                    count: 3,
                },
            ],
            counters: vec![CounterMetric {
                name: "edges".into(),
                value: 7,
            }],
            hists: vec![HistogramMetric {
                name: "lat".into(),
                hist: {
                    let mut h = Histogram::new();
                    h.observe(100);
                    h
                },
            }],
        };
        assert!(!m.is_empty());
        assert_eq!(m.phase("solve").unwrap().count, 1);
        assert!((m.phase("solve/build").unwrap().millis() - 1.5).abs() < 1e-9);
        assert_eq!(m.phase("missing"), None);
        assert_eq!(m.counter("edges"), Some(7));
        assert_eq!(m.counter("missing"), None);
        assert_eq!(m.hist("lat").unwrap().count(), 1);
        assert_eq!(m.hist("missing"), None);
        // Only the top-level phase counts towards the root total.
        assert_eq!(m.root_nanos(), 2_000_000);
        assert!(Metrics::default().is_empty());
    }

    /// The obs-off acceptance criterion: the recorder handle is literally
    /// zero-sized, so threading it through every layer costs nothing.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_recorder_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Recorder>(), 0);
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Span>(), 0);
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        assert!(!rec.is_enabled());
        let span = rec.span("solve");
        let child = span.child("build");
        assert_eq!(child.finish(), std::time::Duration::ZERO);
        drop(span);
        rec.counter("edges").add(3);
        rec.add("edges", 4);
        rec.record_max("peak", 9);
        rec.observe("lat", 1_000);
        assert_eq!(rec.counter("edges").get(), 0);
        assert!(rec.metrics().is_empty());
        assert_eq!(rec.chrome_trace(), "[]");
        assert!(rec.histogram("lat").is_none());
        assert!(trace::validate(&rec.chrome_trace()).unwrap().events == 0);
    }
}
