//! The end-to-end two-tier pipeline for power-limited, multi-hop networks.
//!
//! The pipeline elects leaders, schedules every cluster's local convergecast
//! (short links, lengths bounded by the cluster radius), schedules the leader
//! overlay, and accounts for the slots of both phases. It also computes the
//! single-tier schedule of the plain MST for comparison, so experiments can
//! quantify what the two-tier organisation costs or saves.

use crate::error::MultihopError;
use crate::flooding::{flood_schedule, FloodReport};
use crate::leaders::{elect_leaders_mis, LeaderSet};
use crate::range::range_restricted_mst;
use serde::{Deserialize, Serialize};
use wagg_geometry::Point;
use wagg_mst::euclidean_mst;
use wagg_schedule::{solve_static, PowerMode, Recorder, Schedule, SchedulerConfig};
use wagg_sinr::{Link, NodeId, SinrModel};

/// Configuration of the two-tier pipeline.
///
/// # Examples
///
/// ```
/// use wagg_multihop::MultihopConfig;
///
/// let config = MultihopConfig::default()
///     .with_cluster_radius(25.0)
///     .with_range(30.0);
/// assert_eq!(config.cluster_radius, 25.0);
/// assert_eq!(config.range, Some(30.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultihopConfig {
    /// Radius of the leader clusters (nodes aggregate to a leader within this
    /// distance).
    pub cluster_radius: f64,
    /// Maximum communication range imposed by the power budget, or `None`
    /// when the nodes are not power-limited.
    pub range: Option<f64>,
    /// The SINR model used for scheduling and verification.
    pub model: SinrModel,
}

impl Default for MultihopConfig {
    fn default() -> Self {
        MultihopConfig {
            cluster_radius: 50.0,
            range: None,
            model: SinrModel::default(),
        }
    }
}

impl MultihopConfig {
    /// Sets the cluster radius.
    pub fn with_cluster_radius(mut self, radius: f64) -> Self {
        self.cluster_radius = radius;
        self
    }

    /// Sets (or clears, with `f64::INFINITY`) the maximum communication range.
    pub fn with_range(mut self, range: f64) -> Self {
        self.range = if range.is_finite() { Some(range) } else { None };
        self
    }

    /// Sets the SINR model.
    pub fn with_model(mut self, model: SinrModel) -> Self {
        self.model = model;
        self
    }
}

/// The two-tier aggregation pipeline: points, sink, and configuration.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultihopPipeline {
    points: Vec<Point>,
    sink: usize,
    config: MultihopConfig,
}

impl MultihopPipeline {
    /// Creates a pipeline with the default configuration.
    pub fn new(points: Vec<Point>, sink: usize) -> Self {
        MultihopPipeline {
            points,
            sink,
            config: MultihopConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: MultihopConfig) -> Self {
        self.config = config;
        self
    }

    /// The node positions.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The sink index.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// The configuration.
    pub fn config(&self) -> MultihopConfig {
        self.config
    }

    /// Runs the pipeline under the given power mode.
    ///
    /// # Errors
    ///
    /// Returns [`MultihopError::SinkOutOfRange`] / [`MultihopError::TooFewPoints`]
    /// for malformed inputs, [`MultihopError::Disconnected`] when a power
    /// range is configured and too small for connectivity, and tree errors
    /// for degenerate pointsets.
    pub fn run(&self, mode: PowerMode) -> Result<MultihopReport, MultihopError> {
        if self.points.len() < 2 {
            return Err(MultihopError::TooFewPoints {
                found: self.points.len(),
            });
        }
        if self.sink >= self.points.len() {
            return Err(MultihopError::SinkOutOfRange {
                sink: self.sink,
                nodes: self.points.len(),
            });
        }
        let scheduler = SchedulerConfig::new(mode).with_model(self.config.model);

        // Power-limited feasibility: the range-restricted MST must exist. When
        // it does, it coincides with the plain MST, which we use as the
        // single-tier baseline.
        let baseline_tree = match self.config.range {
            Some(range) => range_restricted_mst(&self.points, range)?,
            None => euclidean_mst(&self.points)?,
        };
        let baseline_links = baseline_tree.try_orient_towards(self.sink)?;
        let single_tier = solve_static(&baseline_links, scheduler, &Recorder::disabled());

        // Tier 1: elect leaders and schedule every cluster's local convergecast.
        let leaders = elect_leaders_mis(&self.points, self.config.cluster_radius)?;
        let mut intra_links: Vec<Link> = Vec::new();
        for &leader in &leaders.leaders {
            let cluster = leaders.cluster_of(leader);
            if cluster.len() < 2 {
                continue;
            }
            let cluster_points: Vec<Point> = cluster.iter().map(|&v| self.points[v]).collect();
            let cluster_mst = euclidean_mst(&cluster_points)?;
            let root_local = cluster
                .iter()
                .position(|&v| v == leader)
                .expect("leader is in its own cluster");
            for link in cluster_mst.try_orient_towards(root_local)? {
                let s_local = link.sender_node.expect("oriented links carry ids").index();
                let r_local = link
                    .receiver_node
                    .expect("oriented links carry ids")
                    .index();
                intra_links.push(Link::with_nodes(
                    intra_links.len(),
                    link.sender,
                    link.receiver,
                    NodeId(cluster[s_local]),
                    NodeId(cluster[r_local]),
                ));
            }
        }
        let intra_schedule = if intra_links.is_empty() {
            Schedule::new(Vec::new())
        } else {
            solve_static(&intra_links, scheduler, &Recorder::disabled()).schedule
        };

        // Tier 2: the leader overlay.
        let overlay = flood_schedule(&self.points, &leaders, self.sink, scheduler)?;

        let max_link_length = intra_links
            .iter()
            .chain(overlay.links.iter())
            .map(Link::length)
            .fold(0.0f64, f64::max);
        let within_range = match self.config.range {
            Some(range) => max_link_length <= range + 1e-12,
            None => true,
        };

        Ok(MultihopReport {
            leader_count: leaders.leader_count(),
            cluster_radius: self.config.cluster_radius,
            intra_links: intra_links.len(),
            overlay_links: overlay.links.len(),
            intra_slots: intra_schedule.len(),
            overlay_slots: overlay.slots(),
            single_tier_slots: single_tier.schedule.len(),
            max_link_length,
            within_range,
            mode,
            leaders,
            intra_schedule,
            overlay,
        })
    }
}

/// The outcome of the two-tier pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultihopReport {
    /// Number of elected leaders.
    pub leader_count: usize,
    /// The cluster radius that was used.
    pub cluster_radius: f64,
    /// Number of intra-cluster links.
    pub intra_links: usize,
    /// Number of overlay links (including the final leader-to-sink hop).
    pub overlay_links: usize,
    /// Slots used by the intra-cluster phase.
    pub intra_slots: usize,
    /// Slots used by the overlay phase.
    pub overlay_slots: usize,
    /// Slots the plain single-tier MST schedule uses (the baseline).
    pub single_tier_slots: usize,
    /// The longest link used by either phase.
    pub max_link_length: f64,
    /// Whether every link respects the configured power range.
    pub within_range: bool,
    /// The power mode the schedules were computed for.
    pub mode: PowerMode,
    /// The elected leader set.
    pub leaders: LeaderSet,
    /// The verified intra-cluster schedule.
    pub intra_schedule: Schedule,
    /// The scheduled overlay.
    pub overlay: FloodReport,
}

impl MultihopReport {
    /// Total slots of one two-tier round (intra phase followed by overlay
    /// phase).
    pub fn total_slots(&self) -> usize {
        self.intra_slots + self.overlay_slots
    }

    /// The aggregation rate of the two-tier pipeline (`1 / total slots`).
    pub fn rate(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            1.0 / total as f64
        }
    }

    /// Ratio of two-tier slots to single-tier slots (values near 1 mean the
    /// two-tier organisation is essentially free).
    pub fn overhead_vs_single_tier(&self) -> f64 {
        if self.single_tier_slots == 0 {
            return 1.0;
        }
        self.total_slots() as f64 / self.single_tier_slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_instances::random::{grid, uniform_square};

    #[test]
    fn malformed_inputs_are_rejected() {
        let points = vec![Point::origin()];
        assert!(matches!(
            MultihopPipeline::new(points, 0).run(PowerMode::Uniform),
            Err(MultihopError::TooFewPoints { found: 1 })
        ));
        let points = vec![Point::origin(), Point::new(1.0, 0.0)];
        assert!(matches!(
            MultihopPipeline::new(points, 5).run(PowerMode::Uniform),
            Err(MultihopError::SinkOutOfRange { sink: 5, nodes: 2 })
        ));
    }

    #[test]
    fn too_small_power_range_is_reported_as_disconnection() {
        let inst = uniform_square(30, 500.0, 21);
        let pipeline = MultihopPipeline::new(inst.points, inst.sink)
            .with_config(MultihopConfig::default().with_range(1.0));
        assert!(matches!(
            pipeline.run(PowerMode::GlobalControl),
            Err(MultihopError::Disconnected { .. })
        ));
    }

    #[test]
    fn two_tier_pipeline_covers_every_non_sink_node() {
        let inst = uniform_square(80, 200.0, 13);
        let pipeline = MultihopPipeline::new(inst.points.clone(), inst.sink)
            .with_config(MultihopConfig::default().with_cluster_radius(40.0));
        let report = pipeline.run(PowerMode::GlobalControl).unwrap();
        // Every node either transmits on an intra-cluster link (non-leaders), or is
        // a leader handled by the overlay. Link counts add up to n - 1 plus the
        // extra leader-to-sink hop when the sink is not a leader.
        let n = inst.points.len();
        let extra_hop = usize::from(!report.leaders.is_leader(inst.sink));
        assert_eq!(report.intra_links + report.overlay_links, n - 1 + extra_hop);
        assert!(report.total_slots() >= 1);
        assert!(report.rate() > 0.0);
        assert!(report.within_range);
        // Intra-cluster links respect the cluster radius.
        assert!(report.max_link_length.is_finite());
    }

    #[test]
    fn overhead_vs_single_tier_stays_bounded_on_uniform_deployments() {
        let inst = uniform_square(120, 300.0, 29);
        let pipeline = MultihopPipeline::new(inst.points, inst.sink)
            .with_config(MultihopConfig::default().with_cluster_radius(60.0));
        let report = pipeline.run(PowerMode::GlobalControl).unwrap();
        assert!(
            report.overhead_vs_single_tier() < 6.0,
            "two-tier overhead {} unexpectedly large",
            report.overhead_vs_single_tier()
        );
    }

    #[test]
    fn power_limited_run_respects_the_range() {
        let inst = grid(8, 8, 10.0);
        let pipeline = MultihopPipeline::new(inst.points, inst.sink).with_config(
            MultihopConfig::default()
                .with_cluster_radius(25.0)
                .with_range(40.0),
        );
        let report = pipeline.run(PowerMode::mean_oblivious()).unwrap();
        assert!(report.within_range);
        assert!(report.max_link_length <= 40.0 + 1e-9);
    }

    #[test]
    fn giant_cluster_radius_degenerates_to_single_tier() {
        let inst = uniform_square(50, 100.0, 31);
        let pipeline = MultihopPipeline::new(inst.points.clone(), inst.sink)
            .with_config(MultihopConfig::default().with_cluster_radius(1e6));
        let report = pipeline.run(PowerMode::GlobalControl).unwrap();
        assert_eq!(report.leader_count, 1);
        // One cluster containing everything: the intra phase is the whole tree
        // rooted at the single leader, and the overlay is at most the final hop
        // from that leader to the sink.
        assert_eq!(report.intra_links, 49);
        assert!(report.overlay_links <= 1);
    }

    #[test]
    fn builder_round_trips_configuration() {
        let config = MultihopConfig::default()
            .with_cluster_radius(12.0)
            .with_range(f64::INFINITY)
            .with_model(SinrModel::new(4.0, 2.0, 0.0).unwrap());
        assert_eq!(config.range, None);
        let pipeline = MultihopPipeline::new(vec![Point::origin(), Point::new(1.0, 0.0)], 0)
            .with_config(config);
        assert_eq!(pipeline.config(), config);
        assert_eq!(pipeline.sink(), 0);
        assert_eq!(pipeline.points().len(), 2);
    }
}
