//! The recorder, its span guards and counter handles.

use crate::json::escape;
use crate::{CounterMetric, Histogram, HistogramMetric, Metrics, PhaseMetric};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// One finished span occurrence, relative to the recorder's epoch.
#[derive(Debug, Clone)]
struct SpanEvent {
    path: String,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// The registry behind the recorder's mutex. Spans touch it once on drop,
/// counters only at handle-resolution time — never per increment.
#[derive(Debug, Default)]
struct State {
    /// Every finished span, for the trace export.
    events: Vec<SpanEvent>,
    /// Per-path `(nanos, count)` totals of `events`, kept as spans close so
    /// that [`Recorder::metrics`] costs the number of paths, not of spans.
    phases: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Histogram>,
    /// Dense thread ids for the trace export, in order of first use.
    threads: Vec<ThreadId>,
}

impl State {
    fn tid(&mut self) -> u32 {
        let id = std::thread::current().id();
        match self.threads.iter().position(|&t| t == id) {
            Some(i) => i as u32,
            None => {
                self.threads.push(id);
                (self.threads.len() - 1) as u32
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// The instrumentation handle the scheduling layers thread through (see
/// the [crate docs](crate)). Cloning shares the underlying registry;
/// [`Recorder::disabled`] (and `Default`) give a no-op handle whose every
/// operation is a single branch.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Default for Recorder {
    /// The disabled recorder — safe to embed anywhere by default.
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A live recorder with an empty registry; its epoch (the zero point
    /// of trace timestamps) is now.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A recorder that records nothing (every operation is one branch).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a top-level RAII span at `path`; the elapsed time is
    /// recorded when the returned guard drops (or
    /// [`Span::finish`]es). Nest with [`Span::child`].
    pub fn span(&self, path: &str) -> Span {
        Span {
            active: self.inner.as_ref().map(|inner| ActiveSpan {
                inner: Arc::clone(inner),
                path: path.to_string(),
                start: Instant::now(),
            }),
        }
    }

    /// Resolves the monotone counter `name` (creating it at zero). The
    /// returned handle increments lock-free — resolve once outside hot
    /// loops, add inside them.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                let mut state = inner.state.lock().expect("recorder poisoned");
                Arc::clone(state.counters.entry(name.to_string()).or_default())
            }),
        }
    }

    /// One-shot convenience for cold paths: `counter(name).add(delta)`.
    pub fn add(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.counter(name).add(delta);
        }
    }

    /// One-shot convenience for cold paths: raises counter `name` to at
    /// least `value` (a monotone high-water mark).
    pub fn record_max(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.counter(name).record_max(value);
        }
    }

    /// Records one sample into the log-bucketed histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().expect("recorder poisoned");
            state
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe(value);
        }
    }

    /// A snapshot of histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        let inner = self.inner.as_ref()?;
        let state = inner.state.lock().expect("recorder poisoned");
        state.histograms.get(name).cloned()
    }

    /// Aggregates everything recorded so far into a [`Metrics`] snapshot:
    /// span durations summed per path, counters loaded. Sorted, so equal
    /// recordings compare equal. The per-path totals are kept as spans
    /// close, so a snapshot costs the number of paths, counters and
    /// histograms, however many spans were recorded. Disabled recorders
    /// return an empty snapshot.
    pub fn metrics(&self) -> Metrics {
        let Some(inner) = &self.inner else {
            return Metrics::default();
        };
        let state = inner.state.lock().expect("recorder poisoned");
        Metrics {
            phases: state
                .phases
                .iter()
                .map(|(path, &(nanos, count))| PhaseMetric {
                    path: path.clone(),
                    nanos,
                    count,
                })
                .collect(),
            counters: state
                .counters
                .iter()
                .map(|(name, cell)| CounterMetric {
                    name: name.clone(),
                    value: cell.load(Ordering::Relaxed),
                })
                .collect(),
            hists: state
                .histograms
                .iter()
                .map(|(name, hist)| HistogramMetric {
                    name: name.clone(),
                    hist: hist.clone(),
                })
                .collect(),
        }
    }

    /// Exports every recorded span as a Chrome `trace_event` JSON array
    /// (complete `"X"` events, microsecond timestamps relative to the
    /// recorder's epoch) — load the file in `chrome://tracing`, Perfetto
    /// or speedscope for a flamegraph. Disabled recorders export `[]`.
    /// [`trace::validate`](crate::trace::validate) checks the format.
    pub fn chrome_trace(&self) -> String {
        let Some(inner) = &self.inner else {
            return "[]".to_string();
        };
        let state = inner.state.lock().expect("recorder poisoned");
        let mut events = state.events.clone();
        drop(state);
        events.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then_with(|| a.path.cmp(&b.path))
        });
        let mut out = String::with_capacity(64 + 96 * events.len());
        out.push('[');
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"wagg\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                escape(&ev.path),
                ev.tid,
                ev.start_ns as f64 / 1e3,
                ev.dur_ns as f64 / 1e3,
            ));
        }
        if !events.is_empty() {
            out.push('\n');
        }
        out.push(']');
        out
    }
}

/// The live half of a span guard.
#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    path: String,
    start: Instant,
}

/// An RAII span timer: created by [`Recorder::span`] or [`Span::child`],
/// records its elapsed time under its path when dropped. Guards are
/// self-contained values — opening and dropping spans on different
/// threads (e.g. inside `rayon` worker closures) is safe and each
/// occurrence is tagged with the thread it ran on in the trace export.
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// Opens a child span: its path is `parent_path/name`, forming the
    /// phase tree. Children of no-op spans are no-ops.
    pub fn child(&self, name: &str) -> Span {
        Span {
            active: self.active.as_ref().map(|a| ActiveSpan {
                inner: Arc::clone(&a.inner),
                path: format!("{}/{}", a.path, name),
                start: Instant::now(),
            }),
        }
    }

    /// Closes the span now and returns its elapsed time — the same value
    /// recorded into the registry, so a printed latency and the metrics
    /// can never disagree. No-op spans return [`Duration::ZERO`].
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(active) = self.active.take() else {
            return Duration::ZERO;
        };
        let dur = active.start.elapsed();
        let start_ns = active
            .start
            .saturating_duration_since(active.inner.epoch)
            .as_nanos() as u64;
        let dur_ns = dur.as_nanos() as u64;
        let mut state = active.inner.state.lock().expect("recorder poisoned");
        let tid = state.tid();
        match state.phases.get_mut(&active.path) {
            Some(total) => *total = (total.0 + dur_ns, total.1 + 1),
            None => {
                state.phases.insert(active.path.clone(), (dur_ns, 1));
            }
        }
        state.events.push(SpanEvent {
            path: active.path,
            tid,
            start_ns,
            dur_ns,
        });
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// A lock-free monotone counter handle (see [`Recorder::counter`]).
/// Cloneable and `Sync`: increments from parallel worker closures land on
/// the same cell. Handles from a disabled recorder do nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `delta` (one relaxed atomic add; free for no-op handles).
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raises the counter to at least `value` (a high-water mark).
    pub fn record_max(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// The current value (`0` for no-op handles).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    #[test]
    fn spans_aggregate_into_a_phase_tree() {
        let rec = Recorder::new();
        {
            let solve = rec.span("solve");
            for _ in 0..3 {
                let _build = solve.child("build");
            }
            let color = solve.child("color");
            let _leaf = color.child("probe");
        }
        let m = rec.metrics();
        assert_eq!(m.phase("solve").unwrap().count, 1);
        assert_eq!(m.phase("solve/build").unwrap().count, 3);
        assert_eq!(m.phase("solve/color").unwrap().count, 1);
        assert_eq!(m.phase("solve/color/probe").unwrap().count, 1);
        // Paths are sorted, and children never outlast their parent.
        let paths: Vec<&str> = m.phases.iter().map(|p| p.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(paths, sorted);
        let solve = m.phase("solve").unwrap().nanos;
        assert!(m.phase("solve/color").unwrap().nanos <= solve);
        assert_eq!(m.root_nanos(), solve);
    }

    #[test]
    fn spans_record_from_worker_threads() {
        // The rayon-shim pattern: a guard opened per work item on whatever
        // thread runs it, all landing in one shared registry.
        let rec = Recorder::new();
        let root = rec.span("solve");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let _shard = rec.span("solve/shard");
                        rec.counter("work_items").add(1);
                    }
                });
            }
        });
        drop(root);
        let m = rec.metrics();
        assert_eq!(m.phase("solve/shard").unwrap().count, 32);
        assert_eq!(m.counter("work_items"), Some(32));
        // Each worker thread got its own dense tid in the trace.
        let trace = rec.chrome_trace();
        let stats = trace::validate(&trace).expect("export validates");
        assert_eq!(stats.events, 33);
    }

    #[test]
    fn finish_returns_exactly_what_was_recorded() {
        let rec = Recorder::new();
        let span = rec.span("event");
        std::thread::sleep(Duration::from_millis(2));
        let printed = span.finish();
        let recorded = rec.metrics().phase("event").unwrap().nanos;
        assert_eq!(printed.as_nanos() as u64, recorded);
        assert!(printed >= Duration::from_millis(2));
    }

    #[test]
    fn counters_and_watermarks() {
        let rec = Recorder::new();
        let c = rec.counter("evictions");
        c.add(2);
        c.add(3);
        assert_eq!(c.get(), 5);
        // The same name resolves to the same cell.
        assert_eq!(rec.counter("evictions").get(), 5);
        rec.add("evictions", 1);
        rec.record_max("peak", 7);
        rec.record_max("peak", 4);
        let m = rec.metrics();
        assert_eq!(m.counter("evictions"), Some(6));
        assert_eq!(m.counter("peak"), Some(7));
    }

    #[test]
    fn histograms_accumulate_observations() {
        let rec = Recorder::new();
        for v in [100u64, 200, 400, 100_000] {
            rec.observe("repair.latency_ns", v);
        }
        let h = rec.histogram("repair.latency_ns").expect("recorded");
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.5) >= 200);
        assert!(rec.histogram("missing").is_none());
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let rec = Recorder::new();
        {
            let solve = rec.span("solve");
            let _a = solve.child("build");
            let _b = solve.child("verify");
            let _c = solve.child(r#"load "site-7" C:\data"#);
        }
        let doc = rec.chrome_trace();
        let stats = trace::validate(&doc).expect("export validates");
        assert_eq!(stats.events, 4);
        // The root span dominates: children are contained in it.
        let root_us = rec.metrics().phase("solve").unwrap().nanos as f64 / 1e3;
        assert!(stats.max_dur_us <= root_us + 1.0);
        assert!(doc.contains("\"name\":\"solve/build\""));
        // Quotes and backslashes in span names are escaped, not pasted.
        assert!(doc.contains(r#""name":"solve/load \"site-7\" C:\\data""#));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert!(!Recorder::default().is_enabled());
        let span = rec.span("solve");
        assert_eq!(span.child("x").finish(), Duration::ZERO);
        drop(span);
        rec.counter("c").add(9);
        rec.add("c", 1);
        rec.record_max("c", 5);
        rec.observe("h", 1);
        assert_eq!(rec.counter("c").get(), 0);
        assert!(rec.metrics().is_empty());
        assert_eq!(rec.chrome_trace(), "[]");
        assert_eq!(trace::validate(&rec.chrome_trace()).unwrap().events, 0);
        assert!(rec.histogram("h").is_none());
        // Cloning an enabled recorder shares the registry.
        let live = Recorder::new();
        live.clone().add("shared", 2);
        assert_eq!(live.metrics().counter("shared"), Some(2));
    }
}
