//! Latency of the MST + periodic coloring schedule.
//!
//! With a periodic coloring schedule a frame travels one hop per period at
//! worst, so the per-frame latency is bounded by `depth * period` slots; the
//! exact value depends on how the colors of a root path interleave within the
//! period. Both the analytic bound and the simulated latency are provided.

use crate::error::LatencyError;
use serde::{Deserialize, Serialize};
use wagg_schedule::Schedule;
use wagg_sim::{ConvergecastSim, SimConfig};
use wagg_sinr::Link;

/// Latency figures for a link set scheduled by a periodic coloring schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineLatencyReport {
    /// The schedule length (slots per period).
    pub period: usize,
    /// The hop depth of the convergecast tree (longest root path).
    pub depth: usize,
    /// The analytic worst-case latency bound `depth * period`.
    pub depth_bound: usize,
    /// Mean per-frame latency measured by the convergecast simulation.
    pub mean_latency: f64,
    /// Maximum per-frame latency measured by the convergecast simulation.
    pub max_latency: usize,
    /// Throughput measured by the same simulation (frames per slot).
    pub throughput: f64,
    /// Number of frames simulated.
    pub frames: usize,
}

/// The hop depth of a convergecast link set: the longest sender-to-sink path.
///
/// Returns 0 for an empty link set.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_latency::pipeline_depth_bound;
/// use wagg_sinr::{Link, NodeId};
///
/// // A two-hop chain 2 -> 1 -> 0.
/// let links = vec![
///     Link::with_nodes(0, Point::new(1.0, 0.0), Point::new(0.0, 0.0), NodeId(1), NodeId(0)),
///     Link::with_nodes(1, Point::new(2.0, 0.0), Point::new(1.0, 0.0), NodeId(2), NodeId(1)),
/// ];
/// assert_eq!(pipeline_depth_bound(&links), 2);
/// ```
pub fn pipeline_depth_bound(links: &[Link]) -> usize {
    use std::collections::HashMap;
    let mut parent: HashMap<usize, usize> = HashMap::new();
    for link in links {
        if let (Some(s), Some(r)) = (link.sender_node, link.receiver_node) {
            parent.insert(s.index(), r.index());
        }
    }
    let mut max_depth = 0usize;
    for &start in parent.keys() {
        let mut cur = start;
        let mut depth = 0usize;
        while let Some(&p) = parent.get(&cur) {
            cur = p;
            depth += 1;
            if depth > parent.len() {
                break; // defensive: cycles are reported elsewhere
            }
        }
        max_depth = max_depth.max(depth);
    }
    max_depth
}

/// Measures the latency of a periodic schedule over a convergecast link set
/// by running the frame-level simulation with one frame per period.
///
/// # Errors
///
/// Returns [`LatencyError::Simulation`] when the links do not form a
/// convergecast tree.
///
/// # Examples
///
/// ```
/// use wagg_instances::random::grid;
/// use wagg_latency::measured_latency;
/// use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = grid(4, 4, 1.0);
/// let links = inst.mst_links()?;
/// let config = SchedulerConfig::new(PowerMode::GlobalControl);
/// let schedule = solve_static(&links, config, &Recorder::disabled()).schedule;
/// let report = measured_latency(&links, &schedule, 20)?;
/// assert!(report.mean_latency >= 1.0);
/// assert!(report.max_latency <= report.depth_bound.max(report.period));
/// # Ok(())
/// # }
/// ```
pub fn measured_latency(
    links: &[Link],
    schedule: &Schedule,
    frames: usize,
) -> Result<PipelineLatencyReport, LatencyError> {
    let sim = ConvergecastSim::new(links, schedule)?;
    let period = schedule.len().max(1);
    let report = sim.run(SimConfig {
        frame_period: period,
        num_frames: frames,
        max_slots: (frames + links.len() + 2) * period * 4 + 64,
    });
    let depth = pipeline_depth_bound(links);
    Ok(PipelineLatencyReport {
        period,
        depth,
        depth_bound: depth * period,
        mean_latency: report.mean_latency(),
        max_latency: report.max_latency(),
        throughput: report.throughput,
        frames,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_instances::chains::uniform_chain;
    use wagg_instances::random::{grid, uniform_square};
    use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};

    fn schedule_for(links: &[Link], mode: PowerMode) -> Schedule {
        solve_static(links, SchedulerConfig::new(mode), &Recorder::disabled()).schedule
    }

    #[test]
    fn depth_of_a_chain_is_linear() {
        let inst = uniform_chain(12, 1.0);
        let links = inst.mst_links().unwrap();
        assert_eq!(pipeline_depth_bound(&links), 11);
    }

    #[test]
    fn depth_of_an_empty_link_set_is_zero() {
        assert_eq!(pipeline_depth_bound(&[]), 0);
    }

    #[test]
    fn chain_latency_is_linear_despite_constant_rate() {
        // The Sec. 3.1 observation: unit chains schedule in O(1) slots (high rate)
        // but the frame latency is linear in n.
        let inst = uniform_chain(20, 1.0);
        let links = inst.mst_links().unwrap();
        let schedule = schedule_for(&links, PowerMode::GlobalControl);
        let report = measured_latency(&links, &schedule, 12).unwrap();
        assert!(report.period <= 6, "chain schedule unexpectedly long");
        assert!(
            report.max_latency >= 19,
            "latency {} not linear",
            report.max_latency
        );
        assert!(report.max_latency <= report.depth_bound);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn grid_latency_respects_the_depth_bound() {
        let inst = grid(5, 5, 1.0);
        let links = inst.mst_links().unwrap();
        let schedule = schedule_for(&links, PowerMode::mean_oblivious());
        let report = measured_latency(&links, &schedule, 15).unwrap();
        assert!(report.mean_latency <= report.max_latency as f64);
        assert!(report.max_latency <= report.depth_bound.max(report.period));
    }

    #[test]
    fn malformed_link_sets_are_rejected() {
        // Links without node ids cannot be simulated.
        let inst = uniform_square(10, 50.0, 2);
        let mut links = inst.mst_links().unwrap();
        for l in &mut links {
            l.sender_node = None;
            l.receiver_node = None;
        }
        let schedule = Schedule::round_robin(links.len());
        assert!(matches!(
            measured_latency(&links, &schedule, 5),
            Err(LatencyError::Simulation(_))
        ));
    }
}
