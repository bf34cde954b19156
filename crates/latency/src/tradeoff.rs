//! Side-by-side rate/latency comparison of the MST schedule and the
//! matching-tree schedule.

use crate::error::LatencyError;
use crate::matching::{build_matching_tree, schedule_matching_tree};
use crate::pipeline::measured_latency;
use serde::{Deserialize, Serialize};
use wagg_geometry::Point;
use wagg_mst::euclidean_mst;
use wagg_schedule::{solve_static, Recorder, SchedulerConfig};

/// One point of the rate/latency trade-off: a tree construction together with
/// its schedule length, rate, and per-frame latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateLatencyPoint {
    /// Human-readable name of the construction ("mst" or "matching").
    pub name: String,
    /// Schedule period in slots.
    pub slots: usize,
    /// Sustained rate (frames per slot).
    pub rate: f64,
    /// Mean per-frame latency in slots.
    pub mean_latency: f64,
    /// Maximum per-frame latency in slots.
    pub max_latency: usize,
    /// Tree height: hop depth for the MST, number of levels for the matching
    /// tree.
    pub height: usize,
}

/// The full comparison for one pointset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffReport {
    /// Number of nodes.
    pub nodes: usize,
    /// The MST + periodic coloring schedule (the paper's rate-optimal side).
    pub mst: RateLatencyPoint,
    /// The matching tree executed level by level (the low-latency side).
    pub matching: RateLatencyPoint,
}

impl TradeoffReport {
    /// How many times higher the MST rate is compared to the matching tree.
    pub fn rate_advantage_of_mst(&self) -> f64 {
        if self.matching.rate <= 0.0 {
            return f64::INFINITY;
        }
        self.mst.rate / self.matching.rate
    }

    /// How many times lower the matching tree's worst-case latency is
    /// compared to the MST pipeline.
    pub fn latency_advantage_of_matching(&self) -> f64 {
        if self.matching.max_latency == 0 {
            return f64::INFINITY;
        }
        self.mst.max_latency as f64 / self.matching.max_latency as f64
    }
}

/// Computes the rate/latency trade-off for a pointset under the given
/// scheduler configuration: the MST with its periodic coloring schedule
/// versus the matching tree with its level-by-level schedule.
///
/// Latencies are measured with the frame-level convergecast simulation (16
/// frames at each schedule's own period).
///
/// # Errors
///
/// Returns tree/simulation errors for degenerate pointsets.
///
/// # Examples
///
/// ```
/// use wagg_instances::chains::uniform_chain;
/// use wagg_latency::compare_rate_latency;
/// use wagg_schedule::{PowerMode, SchedulerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = uniform_chain(64, 1.0);
/// let report = compare_rate_latency(&inst.points, inst.sink, SchedulerConfig::new(PowerMode::GlobalControl))?;
/// // Chains: the MST wins on rate, the matching tree wins on latency.
/// assert!(report.rate_advantage_of_mst() > 1.0);
/// assert!(report.latency_advantage_of_matching() > 1.0);
/// # Ok(())
/// # }
/// ```
pub fn compare_rate_latency(
    points: &[Point],
    sink: usize,
    config: SchedulerConfig,
) -> Result<TradeoffReport, LatencyError> {
    const FRAMES: usize = 16;

    // The MST side.
    let tree = euclidean_mst(points)?;
    let links = tree.try_orient_towards(sink)?;
    let report = solve_static(&links, config, &Recorder::disabled());
    let mst_latency = measured_latency(&links, &report.schedule, FRAMES)?;
    let mst = RateLatencyPoint {
        name: "mst".to_string(),
        slots: report.schedule.len(),
        rate: report.rate(),
        mean_latency: mst_latency.mean_latency,
        max_latency: mst_latency.max_latency,
        height: mst_latency.depth,
    };

    // The matching-tree side. Its levels are sequential, so its period and its
    // per-frame latency are both the total slot count; the simulation is still
    // run to confirm that figure empirically.
    let matching_tree = build_matching_tree(points, sink)?;
    let matching_schedule = schedule_matching_tree(&matching_tree, config);
    let matching_links = matching_tree.all_links();
    let matching_latency = measured_latency(&matching_links, &matching_schedule.schedule, FRAMES)?;
    let matching = RateLatencyPoint {
        name: "matching".to_string(),
        slots: matching_schedule.total_slots(),
        rate: matching_schedule.rate(),
        mean_latency: matching_latency.mean_latency,
        max_latency: matching_latency.max_latency,
        height: matching_tree.level_count(),
    };

    Ok(TradeoffReport {
        nodes: points.len(),
        mst,
        matching,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_instances::chains::uniform_chain;
    use wagg_instances::random::uniform_square;
    use wagg_schedule::PowerMode;

    #[test]
    fn chains_show_the_textbook_tradeoff() {
        let inst = uniform_chain(64, 1.0);
        let report = compare_rate_latency(
            &inst.points,
            inst.sink,
            SchedulerConfig::new(PowerMode::GlobalControl),
        )
        .unwrap();
        // MST of a unit chain: constant slots, linear depth.
        assert!(report.mst.slots <= 8);
        assert_eq!(report.mst.height, 63);
        assert!(report.mst.max_latency >= 63);
        // Matching tree: logarithmic height, latency far below the chain depth,
        // rate far below the MST's.
        assert!(report.matching.height <= 8);
        assert!(report.matching.max_latency < report.mst.max_latency);
        assert!(report.matching.rate < report.mst.rate);
        assert!(report.rate_advantage_of_mst() > 1.0);
        assert!(report.latency_advantage_of_matching() > 1.0);
    }

    #[test]
    fn uniform_deployments_produce_consistent_reports() {
        let inst = uniform_square(50, 150.0, 23);
        let report = compare_rate_latency(
            &inst.points,
            inst.sink,
            SchedulerConfig::new(PowerMode::mean_oblivious()),
        )
        .unwrap();
        assert_eq!(report.nodes, 50);
        assert_eq!(report.mst.name, "mst");
        assert_eq!(report.matching.name, "matching");
        assert!(report.mst.rate > 0.0 && report.matching.rate > 0.0);
        assert!(report.mst.mean_latency <= report.mst.max_latency as f64);
        assert!(report.matching.mean_latency <= report.matching.max_latency as f64);
        // For the matching tree a frame finishes within one period.
        assert!(report.matching.max_latency <= report.matching.slots);
    }

    #[test]
    fn degenerate_pointsets_are_rejected() {
        let points = vec![Point::origin()];
        assert!(
            compare_rate_latency(&points, 0, SchedulerConfig::new(PowerMode::Uniform)).is_err()
        );
    }
}
