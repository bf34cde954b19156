//! Scheduling the leader overlay.
//!
//! Once leaders are elected, the long-haul part of the convergecast runs over
//! the graph connecting the leaders. Because leaders are pairwise separated
//! by at least the cluster radius and adjacent leaders of the overlay MST are
//! at most a constant factor further apart, the overlay links all have
//! comparable lengths — precisely the regime in which the paper notes that
//! flooding/aggregation runs at constant throughput, so the overlay phase
//! does not affect the asymptotic rate.

use crate::error::MultihopError;
use crate::leaders::LeaderSet;
use serde::{Deserialize, Serialize};
use wagg_geometry::Point;
use wagg_mst::euclidean_mst;
use wagg_schedule::{solve_static, Recorder, Schedule, SchedulerConfig};
use wagg_sinr::{Link, NodeId};

/// The scheduled leader overlay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloodReport {
    /// The overlay links (leader-to-leader, plus the final leader-to-sink hop
    /// when the sink is not itself a leader), with node ids referring to the
    /// *original* pointset.
    pub links: Vec<Link>,
    /// The verified TDMA schedule of the overlay links.
    pub schedule: Schedule,
    /// Ratio between the longest and shortest overlay link (1.0 when there
    /// are fewer than two links). Small ratios are what make the overlay
    /// schedule short.
    pub length_ratio: f64,
}

impl FloodReport {
    /// Number of slots of the overlay schedule.
    pub fn slots(&self) -> usize {
        self.schedule.len()
    }
}

/// Builds and schedules the leader overlay: the MST of the leader positions,
/// oriented towards the leader of the sink's cluster, plus a final hop from
/// that leader to the sink when the sink is not a leader.
///
/// # Errors
///
/// Returns [`MultihopError::SinkOutOfRange`] for a bad sink index and the MST
/// construction errors for degenerate leader sets.
///
/// # Examples
///
/// ```
/// use wagg_multihop::{elect_leaders_mis, flood_schedule};
/// use wagg_instances::random::uniform_square;
/// use wagg_schedule::{PowerMode, SchedulerConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = uniform_square(60, 200.0, 5);
/// let leaders = elect_leaders_mis(&inst.points, 50.0)?;
/// let config = SchedulerConfig::new(PowerMode::GlobalControl);
/// let report = flood_schedule(&inst.points, &leaders, inst.sink, config)?;
/// assert!(report.slots() >= 1);
/// # Ok(())
/// # }
/// ```
pub fn flood_schedule(
    points: &[Point],
    leaders: &LeaderSet,
    sink: usize,
    config: SchedulerConfig,
) -> Result<FloodReport, MultihopError> {
    if sink >= points.len() {
        return Err(MultihopError::SinkOutOfRange {
            sink,
            nodes: points.len(),
        });
    }
    let sink_leader = leaders.assignment[sink];

    let mut links: Vec<Link> = Vec::new();
    if leaders.leader_count() >= 2 {
        let leader_points: Vec<Point> = leaders.leaders.iter().map(|&l| points[l]).collect();
        let overlay_mst = euclidean_mst(&leader_points)?;
        let root_local = leaders
            .leaders
            .iter()
            .position(|&l| l == sink_leader)
            .expect("the sink's leader is a leader");
        for link in overlay_mst.try_orient_towards(root_local)? {
            let s_local = link
                .sender_node
                .expect("oriented links carry node ids")
                .index();
            let r_local = link
                .receiver_node
                .expect("oriented links carry node ids")
                .index();
            links.push(Link::with_nodes(
                links.len(),
                link.sender,
                link.receiver,
                NodeId(leaders.leaders[s_local]),
                NodeId(leaders.leaders[r_local]),
            ));
        }
    }
    // The final hop from the sink's leader down to the sink itself.
    if sink_leader != sink {
        links.push(Link::with_nodes(
            links.len(),
            points[sink_leader],
            points[sink],
            NodeId(sink_leader),
            NodeId(sink),
        ));
    }

    let schedule = if links.is_empty() {
        Schedule::new(Vec::new())
    } else {
        solve_static(&links, config, &Recorder::disabled()).schedule
    };

    let length_ratio = {
        let lengths: Vec<f64> = links.iter().map(Link::length).collect();
        match (
            lengths.iter().cloned().fold(f64::INFINITY, f64::min),
            lengths.iter().cloned().fold(0.0f64, f64::max),
        ) {
            (min, max) if min > 0.0 && max > 0.0 => max / min,
            _ => 1.0,
        }
    };

    Ok(FloodReport {
        links,
        schedule,
        length_ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaders::elect_leaders_mis;
    use wagg_instances::random::uniform_square;
    use wagg_schedule::PowerMode;

    fn config() -> SchedulerConfig {
        SchedulerConfig::new(PowerMode::GlobalControl)
    }

    #[test]
    fn bad_sink_is_rejected() {
        let inst = uniform_square(20, 50.0, 1);
        let leaders = elect_leaders_mis(&inst.points, 10.0).unwrap();
        assert!(matches!(
            flood_schedule(&inst.points, &leaders, 99, config()),
            Err(MultihopError::SinkOutOfRange {
                sink: 99,
                nodes: 20
            })
        ));
    }

    #[test]
    fn overlay_spans_all_leaders_and_reaches_the_sink() {
        let inst = uniform_square(100, 300.0, 7);
        let leaders = elect_leaders_mis(&inst.points, 60.0).unwrap();
        let report = flood_schedule(&inst.points, &leaders, inst.sink, config()).unwrap();
        let k = leaders.leader_count();
        let expected_links = if leaders.is_leader(inst.sink) {
            k - 1
        } else {
            k
        };
        assert_eq!(report.links.len(), expected_links);
        // Every overlay sender is a leader; the only non-leader receiver is the sink.
        for link in &report.links {
            let s = link.sender_node.unwrap().index();
            let r = link.receiver_node.unwrap().index();
            assert!(leaders.is_leader(s));
            assert!(leaders.is_leader(r) || r == inst.sink);
        }
        assert!(report.schedule.is_partition(report.links.len()));
        assert!(report.slots() >= 1);
    }

    #[test]
    fn single_leader_overlay_is_just_the_sink_hop() {
        let inst = uniform_square(15, 10.0, 3);
        let leaders = elect_leaders_mis(&inst.points, 1e4).unwrap();
        assert_eq!(leaders.leader_count(), 1);
        let report = flood_schedule(&inst.points, &leaders, inst.sink, config()).unwrap();
        if leaders.is_leader(inst.sink) {
            assert!(report.links.is_empty());
            assert_eq!(report.slots(), 0);
        } else {
            assert_eq!(report.links.len(), 1);
            assert_eq!(report.slots(), 1);
        }
    }

    #[test]
    fn overlay_lengths_are_comparable() {
        let inst = uniform_square(200, 400.0, 11);
        let radius = 80.0;
        let leaders = elect_leaders_mis(&inst.points, radius).unwrap();
        let report = flood_schedule(&inst.points, &leaders, inst.sink, config()).unwrap();
        // Leader separation > radius and overlay MST edges stay within a small
        // constant multiple of the radius on uniform deployments, so the
        // leader-to-leader lengths are comparable — this is what keeps the
        // overlay schedule short. (The final sink hop can be arbitrarily short
        // and is excluded here.)
        let leader_lengths: Vec<f64> = report
            .links
            .iter()
            .filter(|l| leaders.is_leader(l.receiver_node.unwrap().index()))
            .map(|l| l.length())
            .collect();
        let min = leader_lengths.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = leader_lengths.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max / min < 8.0,
            "leader link length ratio {} unexpectedly large",
            max / min
        );
        assert!(report.length_ratio >= 1.0);
        assert!(report.slots() <= report.links.len());
    }
}
