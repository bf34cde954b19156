//! The unified solve report: one output type for every scheduling backend.
//!
//! [`SolveReport`] is what every backend behind the session facade
//! (`wagg_core::session::Session`) returns: the full [`ScheduleReport`]
//! (nothing is dropped), the backend that produced it, and the sharding
//! accounting when a decomposition ran.
//!
//! The static kernel and the incremental engine produce a bare
//! [`ScheduleReport`]; `From` wraps one with [`BackendKind::Static`]
//! provenance, and [`SolveReport::new`] takes any other. The sharded
//! pipeline (`wagg_partition::solve_sharded` and
//! `wagg_partition::PartitionedEngine::schedule`, which also returns its
//! verification pass's per-slot totals) returns a [`SolveReport`] directly,
//! tagged [`BackendKind::Sharded`] and carrying its [`ShardingStats`].
//!
//! [`SolveReport::summary`] renders the one-line report format every bench
//! and profiling binary prints. The report's persisted form is
//! `wagg-wire`'s `Frame::Report`, a native binary encoding of every field
//! here; the wire crate's tests pin its round trip.

use crate::repair::RepairStats;
use crate::schedule::Schedule;
use crate::scheduler::ScheduleReport;
use serde::{Deserialize, Serialize};
pub use wagg_obs::BackendKind;
use wagg_obs::{HealthReport, Metrics};

/// The sharded pipeline's own accounting, carried by [`SolveReport`]s with
/// [`BackendKind::Sharded`] provenance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardingStats {
    /// Number of shards actually realised.
    pub shards: usize,
    /// The conflict radius the tiling was sized for.
    pub radius: f64,
    /// Links ghosted into at least one neighbouring shard.
    pub boundary_links: usize,
    /// Boundary links the stitching repair sweep recolored.
    pub repaired_links: usize,
    /// Links the global verification pass evicted and re-packed.
    pub evicted_links: usize,
    /// Largest per-shard owned-link count (the imbalance numerator).
    pub max_owned: usize,
    /// Mean per-shard owned-link count.
    pub mean_owned: f64,
    /// Ghost copies per owned link — the halo replication overhead.
    pub ghost_fraction: f64,
}

/// The outcome of a scheduling run, uniform across backends: the full
/// [`ScheduleReport`] plus backend provenance and (for sharded runs) the
/// decomposition accounting. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReport {
    /// The verified schedule and the paper's analysis quantities.
    pub report: ScheduleReport,
    /// The backend that produced the schedule.
    pub backend: BackendKind,
    /// Sharded-pipeline accounting; `None` unless `backend` is
    /// [`BackendKind::Sharded`].
    pub sharding: Option<ShardingStats>,
    /// Warm-start repair accounting; `None` unless the solve ran through a
    /// repair-enabled session (see [`RepairStats`]).
    pub repair: Option<RepairStats>,
    /// Instrumentation snapshot (phase timings and work counters) from the
    /// `wagg-obs` recorder the solve ran under; `None` when the solve was
    /// not instrumented.
    pub metrics: Option<Metrics>,
    /// Longitudinal health detectors from the session's flight recorder;
    /// `None` when no flight recorder is installed.
    pub health: Option<HealthReport>,
}

impl SolveReport {
    /// Wraps a [`ScheduleReport`] with explicit backend provenance (the
    /// engine backend tags [`BackendKind::Engine`]; plain `From` tags
    /// [`BackendKind::Static`]).
    pub fn new(report: ScheduleReport, backend: BackendKind) -> Self {
        SolveReport {
            report,
            backend,
            sharding: None,
            repair: None,
            metrics: None,
            health: None,
        }
    }

    /// Attaches warm-start repair accounting (builder-style, used by the
    /// repair-enabled session backends).
    pub fn with_repair(mut self, repair: RepairStats) -> Self {
        self.repair = Some(repair);
        self
    }

    /// Attaches an instrumentation snapshot (builder-style; the session
    /// facade calls this with `Recorder::metrics()` when a recorder is
    /// installed). Empty snapshots are dropped — a disabled recorder
    /// records nothing, and `None` keeps the report identical to an
    /// uninstrumented run's.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = if metrics.is_empty() {
            None
        } else {
            Some(metrics)
        };
        self
    }

    /// Attaches the flight recorder's health report (builder-style; the
    /// session facade calls this when a flight recorder is installed).
    /// Empty reports are dropped, mirroring [`SolveReport::with_metrics`]:
    /// a recorder-less solve keeps `health: None`.
    pub fn with_health(mut self, health: HealthReport) -> Self {
        self.health = if health.is_empty() {
            None
        } else {
            Some(health)
        };
        self
    }

    /// The schedule itself.
    pub fn schedule(&self) -> &Schedule {
        &self.report.schedule
    }

    /// The schedule length (number of slots).
    pub fn slots(&self) -> usize {
        self.report.schedule.len()
    }

    /// The achieved aggregation rate `1 / slots`.
    pub fn rate(&self) -> f64 {
        self.report.rate()
    }

    /// Number of links scheduled.
    pub fn num_links(&self) -> usize {
        self.report.num_links
    }

    /// The uniform one-line report format, identical in shape for every
    /// backend (sharded runs append their decomposition accounting):
    ///
    /// ```text
    /// [static] 99 links -> 7 slots (coloring 7, rate 0.1429, diversity 12.3, global power control)
    /// [sharded] 200000 links -> 34 slots (...); shards 16, radius 42.0, boundary 1234, repaired 56, evicted 7
    /// ```
    pub fn summary(&self) -> String {
        let r = &self.report;
        let mut line = format!(
            "[{}] {} links -> {} slots (coloring {}, rate {:.4}, diversity {:.3}, {})",
            self.backend,
            r.num_links,
            r.schedule.len(),
            r.coloring_slots,
            r.rate(),
            r.diversity,
            r.mode,
        );
        if let Some(s) = &self.sharding {
            line.push_str(&format!(
                "; shards {}, radius {:.1}, boundary {}, repaired {}, evicted {}, \
                 owned max {}/mean {:.1}, ghosts {:.1}%",
                s.shards,
                s.radius,
                s.boundary_links,
                s.repaired_links,
                s.evicted_links,
                s.max_owned,
                s.mean_owned,
                s.ghost_fraction * 100.0,
            ));
        }
        if let Some(r) = &self.repair {
            line.push_str(&format!(
                "; repair {}, dirty {}, replaced {}, drift {:.3} (watermark {:.3})",
                r.decision, r.dirty_links, r.replaced_links, r.drift, r.watermark
            ));
        }
        if let Some(m) = &self.metrics {
            line.push_str(&format!(
                "; metrics {} phases/{} counters, instrumented {:.1}ms",
                m.phases.len(),
                m.counters.len(),
                m.root_nanos() as f64 / 1e6,
            ));
            // The session facade observes each solve's wall time into this
            // histogram, so long-running sessions get their latency
            // quantiles in the one-liner.
            if let Some(h) = m.hist("session.solve_ns") {
                line.push_str(&format!(
                    ", solve p50 {:.1}ms/p99 {:.1}ms",
                    h.quantile(0.5) as f64 / 1e6,
                    h.quantile(0.99) as f64 / 1e6,
                ));
            }
        }
        if let Some(h) = &self.health {
            line.push_str("; ");
            line.push_str(&h.summary());
        }
        line
    }
}

impl From<ScheduleReport> for SolveReport {
    /// Tags [`BackendKind::Static`] — the provenance of every report the
    /// static kernel produces directly.
    fn from(report: ScheduleReport) -> Self {
        SolveReport::new(report, BackendKind::Static)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::solve_static;
    use crate::{Recorder, RepairDecision, SchedulerConfig};
    use wagg_geometry::Point;
    use wagg_obs::{
        CounterMetric, HealthSignal, Histogram, HistogramMetric, PhaseMetric, SignalKind,
    };
    use wagg_sinr::Link;

    fn sample_links() -> Vec<Link> {
        (0..24)
            .map(|i| {
                let x = (i % 6) as f64 * 5.0;
                let y = (i / 6) as f64 * 5.0;
                Link::new(i, Point::new(x, y), Point::new(x + 1.0 + 0.1 * i as f64, y))
            })
            .collect()
    }

    fn sample_report() -> ScheduleReport {
        solve_static(
            &sample_links(),
            SchedulerConfig::default(),
            &Recorder::disabled(),
        )
    }

    #[test]
    fn from_schedule_report_is_lossless() {
        let report = sample_report();
        let solve: SolveReport = report.clone().into();
        assert_eq!(solve.report, report);
        assert_eq!(solve.backend, BackendKind::Static);
        assert_eq!(solve.sharding, None);
        assert_eq!(solve.slots(), report.schedule.len());
        assert_eq!(solve.rate(), report.rate());
        assert_eq!(solve.num_links(), report.num_links);
    }

    #[test]
    fn summary_is_uniform_across_backends() {
        let report = sample_report();
        let solve = SolveReport::new(report.clone(), BackendKind::Engine);
        let line = solve.summary();
        assert!(line.starts_with("[engine] 24 links -> "), "{line}");
        assert!(line.contains("coloring"), "{line}");

        let sharded = SolveReport {
            report,
            backend: BackendKind::Sharded,
            sharding: Some(ShardingStats {
                shards: 4,
                radius: 12.5,
                boundary_links: 3,
                repaired_links: 1,
                evicted_links: 0,
                max_owned: 9,
                mean_owned: 6.0,
                ghost_fraction: 0.125,
            }),
            repair: None,
            metrics: None,
            health: None,
        };
        let line = sharded.summary();
        assert!(line.starts_with("[sharded]"), "{line}");
        assert!(line.contains("shards 4"), "{line}");
        assert!(line.contains("radius 12.5"), "{line}");
        assert!(line.contains("owned max 9/mean 6.0"), "{line}");
        assert!(line.contains("ghosts 12.5%"), "{line}");
    }

    #[test]
    fn summary_appends_repair_accounting_when_present() {
        let report = sample_report();
        let solve = SolveReport::new(report, BackendKind::Engine).with_repair(RepairStats {
            decision: RepairDecision::Repaired,
            dirty_links: 3,
            replaced_links: 5,
            baseline_slots: 7,
            drift: 0.142857,
            watermark: 0.25,
        });
        let line = solve.summary();
        assert!(line.contains("repair repaired"), "{line}");
        assert!(line.contains("dirty 3"), "{line}");
        assert!(line.contains("replaced 5"), "{line}");
        assert!(line.contains("drift 0.143 (watermark 0.250)"), "{line}");
    }

    #[test]
    fn empty_health_reports_are_dropped() {
        // A recorder-less session attaches the empty report; the result
        // must be identical to a flight-recorder-off run.
        let solve = SolveReport::from(sample_report());
        let attached = solve.clone().with_health(HealthReport::default());
        assert_eq!(attached, solve);
    }

    #[test]
    fn summary_appends_solve_quantiles_and_health() {
        let mut hist = Histogram::new();
        // 10 solves at ~2ms, one at 80ms: p50 sits in the 2ms bucket and
        // p99 in the 80ms bucket.
        for _ in 0..10 {
            hist.observe(2_000_000);
        }
        hist.observe(80_000_000);
        let metrics = Metrics {
            phases: vec![PhaseMetric {
                path: "session".into(),
                nanos: 100_000_000,
                count: 11,
            }],
            counters: vec![],
            hists: vec![HistogramMetric {
                name: "session.solve_ns".into(),
                hist,
            }],
        };
        let health = HealthReport {
            solves: 11,
            signals: vec![HealthSignal {
                kind: SignalKind::Skew,
                active: true,
                value: 2.31,
                fire_threshold: 2.0,
                clear_threshold: 1.5,
                fired: 1,
                cleared: 0,
                since: 7,
            }],
        };
        let solve = SolveReport::from(sample_report())
            .with_metrics(metrics)
            .with_health(health);
        let line = solve.summary();
        assert!(line.contains("solve p50 "), "{line}");
        assert!(line.contains("/p99 "), "{line}");
        assert!(line.contains("health FIRING (skew 2.310!)"), "{line}");
        // The quantiles land in the samples' own log2 buckets: 2ms sits
        // in [2^20, 2^21) ns ≈ [1.05, 2.10) ms, 80ms in [2^26, 2^27) ns
        // ≈ [67.1, 134.3) ms.
        let p50 = line.split("solve p50 ").nth(1).unwrap();
        let p50: f64 = p50.split("ms").next().unwrap().parse().unwrap();
        assert!((1.0..2.2).contains(&p50), "p50 = {p50}");
        let p99 = line.split("/p99 ").nth(1).unwrap();
        let p99: f64 = p99.split("ms").next().unwrap().parse().unwrap();
        assert!((67.0..134.3).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn empty_metrics_are_dropped() {
        // A disabled-recorder run yields an empty snapshot;
        // attaching it must leave the report identical to an
        // uninstrumented run.
        let solve = SolveReport::from(sample_report());
        let attached = solve.clone().with_metrics(Metrics::default());
        assert_eq!(attached, solve);
    }

    #[test]
    fn attached_metrics_are_kept_and_summarised() {
        let metrics = Metrics {
            phases: vec![
                PhaseMetric {
                    path: "static".into(),
                    nanos: 42_000,
                    count: 1,
                },
                PhaseMetric {
                    path: "static/color".into(),
                    nanos: 17_500,
                    count: 1,
                },
            ],
            counters: vec![CounterMetric {
                name: "static.coloring_slots".into(),
                value: 7,
            }],
            hists: vec![HistogramMetric {
                name: "session.solve_ns".into(),
                hist: {
                    let mut h = Histogram::new();
                    h.observe(42_000);
                    h.observe(51_000);
                    h
                },
            }],
        };
        let solve = SolveReport::from(sample_report()).with_metrics(metrics.clone());
        assert_eq!(solve.metrics.as_ref(), Some(&metrics));
        let m = solve.metrics.as_ref().expect("non-empty metrics are kept");
        assert_eq!(m.phase("static/color").unwrap().nanos, 17_500);
        assert_eq!(m.counter("static.coloring_slots"), Some(7));
        let line = solve.summary();
        assert!(line.contains("metrics 2 phases/1 counters"), "{line}");
    }
}
