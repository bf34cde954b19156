//! The low-latency alternative: a matching-based aggregation tree.
//!
//! The classic `O(log n)`-latency construction (used, e.g., by Halldórsson
//! and Mitra for the latency-optimal variant of wireless connectivity) builds
//! the aggregation tree level by level: in every level the still-active nodes
//! are paired up greedily by distance, one node of each pair forwards its
//! aggregate to the other and goes inactive, and the surviving half proceeds
//! to the next level. After `O(log n)` levels only the sink remains. The
//! levels are inherently sequential, so the frame latency is the sum of the
//! per-level schedule lengths — logarithmic — while the rate is the
//! reciprocal of that same sum, i.e. `Θ(1/log n)` rather than the MST's
//! near-constant rate.

use crate::error::LatencyError;
use serde::{Deserialize, Serialize};
use wagg_geometry::Point;
use wagg_schedule::{solve_static, Recorder, Schedule, SchedulerConfig};
use wagg_sinr::{Link, NodeId};

/// A matching-based aggregation tree: the links of every level, in the order
/// the levels must be executed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchingTree {
    /// The links of each level (level 0 first).
    pub levels: Vec<Vec<Link>>,
    /// The sink the tree is rooted at.
    pub sink: usize,
    /// Number of nodes in the pointset.
    pub nodes: usize,
}

impl MatchingTree {
    /// Number of levels (the tree height in rounds).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// All links of all levels, re-identified consecutively (level by level).
    pub fn all_links(&self) -> Vec<Link> {
        let mut links = Vec::new();
        for level in &self.levels {
            for link in level {
                let mut l = *link;
                l.id = wagg_sinr::LinkId(links.len());
                links.push(l);
            }
        }
        links
    }

    /// Total number of links (always `nodes - 1`).
    pub fn link_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// Builds the matching-based aggregation tree for a pointset and sink.
///
/// In every level the active nodes are matched greedily by increasing
/// pairwise distance; in each matched pair the node that is not the sink (and
/// is further from the sink, ties broken by index) transmits to the other and
/// becomes inactive. Unmatched nodes simply survive to the next level.
///
/// # Errors
///
/// Returns [`LatencyError::TooFewPoints`], [`LatencyError::SinkOutOfRange`]
/// or [`LatencyError::CoincidentPoints`] for malformed inputs.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_latency::build_matching_tree;
///
/// let points: Vec<Point> = (0..8).map(|i| Point::new(i as f64, 0.0)).collect();
/// let tree = build_matching_tree(&points, 0).unwrap();
/// assert_eq!(tree.link_count(), 7);
/// assert_eq!(tree.level_count(), 3); // 8 -> 4 -> 2 -> 1 active nodes
/// ```
pub fn build_matching_tree(points: &[Point], sink: usize) -> Result<MatchingTree, LatencyError> {
    if points.len() < 2 {
        return Err(LatencyError::TooFewPoints {
            found: points.len(),
        });
    }
    if sink >= points.len() {
        return Err(LatencyError::SinkOutOfRange {
            sink,
            nodes: points.len(),
        });
    }
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if points[i].distance(points[j]) == 0.0 {
                return Err(LatencyError::CoincidentPoints {
                    first: i,
                    second: j,
                });
            }
        }
    }

    let mut active: Vec<usize> = (0..points.len()).collect();
    let mut levels: Vec<Vec<Link>> = Vec::new();
    let mut next_id = 0usize;

    while active.len() > 1 {
        // All candidate pairs among active nodes, closest first.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for (a_pos, &a) in active.iter().enumerate() {
            for &b in &active[a_pos + 1..] {
                pairs.push((points[a].distance(points[b]), a, b));
            }
        }
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite distances"));

        let mut matched: Vec<bool> = vec![false; points.len()];
        let mut level_links: Vec<Link> = Vec::new();
        let mut removed: Vec<usize> = Vec::new();
        for (_, a, b) in pairs {
            if matched[a] || matched[b] {
                continue;
            }
            matched[a] = true;
            matched[b] = true;
            // Choose the survivor: the sink always survives; otherwise the node
            // closer to the sink (ties by smaller index).
            let (survivor, forwarder) = if a == sink {
                (a, b)
            } else if b == sink {
                (b, a)
            } else {
                let da = points[a].distance(points[sink]);
                let db = points[b].distance(points[sink]);
                if da < db || (da == db && a < b) {
                    (a, b)
                } else {
                    (b, a)
                }
            };
            level_links.push(Link::with_nodes(
                next_id,
                points[forwarder],
                points[survivor],
                NodeId(forwarder),
                NodeId(survivor),
            ));
            next_id += 1;
            removed.push(forwarder);
        }
        debug_assert!(
            !level_links.is_empty(),
            "a matching on >= 2 nodes is non-empty"
        );
        active.retain(|v| !removed.contains(v));
        levels.push(level_links);
    }
    debug_assert_eq!(active, vec![sink]);

    Ok(MatchingTree {
        levels,
        sink,
        nodes: points.len(),
    })
}

/// The schedule of a matching tree: each level scheduled independently, the
/// levels executed back to back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchingTreeSchedule {
    /// Slots used by each level.
    pub per_level_slots: Vec<usize>,
    /// The concatenated schedule over [`MatchingTree::all_links`] (level-0
    /// links first).
    pub schedule: Schedule,
    /// Number of levels.
    pub levels: usize,
}

impl MatchingTreeSchedule {
    /// Total slots of one aggregation wave (= frame latency = schedule
    /// period).
    pub fn total_slots(&self) -> usize {
        self.per_level_slots.iter().sum()
    }

    /// The sustained rate when waves are run back to back: `1 / total
    /// slots`.
    pub fn rate(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            1.0 / total as f64
        }
    }
}

/// Schedules a matching tree level by level under the given configuration.
///
/// Because a node can only transmit after it has heard from every node
/// matched to it in earlier levels, the levels are sequential; each level is
/// a set of links of (typically) comparable lengths and is scheduled with the
/// same conflict-graph machinery as the MST.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_latency::{build_matching_tree, schedule_matching_tree};
/// use wagg_schedule::{PowerMode, SchedulerConfig};
///
/// let points: Vec<Point> = (0..16).map(|i| Point::new(i as f64, (i % 3) as f64)).collect();
/// let tree = build_matching_tree(&points, 0).unwrap();
/// let schedule = schedule_matching_tree(&tree, SchedulerConfig::new(PowerMode::GlobalControl));
/// assert_eq!(schedule.levels, tree.level_count());
/// assert!(schedule.total_slots() >= tree.level_count());
/// ```
pub fn schedule_matching_tree(
    tree: &MatchingTree,
    config: SchedulerConfig,
) -> MatchingTreeSchedule {
    let mut per_level_slots = Vec::with_capacity(tree.levels.len());
    let mut slots: Vec<Vec<usize>> = Vec::new();
    let mut offset = 0usize;
    for level in &tree.levels {
        // Re-identify the level's links locally so the scheduler sees ids 0..k.
        let local: Vec<Link> = level
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut link = *l;
                link.id = wagg_sinr::LinkId(i);
                link
            })
            .collect();
        let report = solve_static(&local, config, &Recorder::disabled());
        per_level_slots.push(report.schedule.len());
        for slot in report.schedule.slots() {
            slots.push(slot.iter().map(|&i| i + offset).collect());
        }
        offset += level.len();
    }
    MatchingTreeSchedule {
        per_level_slots,
        schedule: Schedule::new(slots),
        levels: tree.levels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wagg_instances::chains::uniform_chain;
    use wagg_instances::random::uniform_square;
    use wagg_schedule::PowerMode;

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            build_matching_tree(&[Point::origin()], 0),
            Err(LatencyError::TooFewPoints { found: 1 })
        ));
        let points = vec![Point::origin(), Point::new(1.0, 0.0)];
        assert!(matches!(
            build_matching_tree(&points, 7),
            Err(LatencyError::SinkOutOfRange { sink: 7, nodes: 2 })
        ));
        let points = vec![Point::origin(), Point::origin(), Point::new(1.0, 0.0)];
        assert!(matches!(
            build_matching_tree(&points, 0),
            Err(LatencyError::CoincidentPoints {
                first: 0,
                second: 1
            })
        ));
    }

    #[test]
    fn every_non_sink_node_transmits_exactly_once() {
        let inst = uniform_square(37, 100.0, 19);
        let tree = build_matching_tree(&inst.points, inst.sink).unwrap();
        assert_eq!(tree.link_count(), 36);
        let mut senders: HashMap<usize, usize> = HashMap::new();
        for level in &tree.levels {
            for link in level {
                *senders
                    .entry(link.sender_node.unwrap().index())
                    .or_insert(0) += 1;
            }
        }
        assert_eq!(senders.len(), 36);
        assert!(senders.values().all(|&c| c == 1));
        assert!(!senders.contains_key(&inst.sink));
    }

    #[test]
    fn level_count_is_logarithmic() {
        for n in [8usize, 16, 32, 64, 128] {
            let inst = uniform_square(n, 200.0, n as u64);
            let tree = build_matching_tree(&inst.points, inst.sink).unwrap();
            let bound = (n as f64).log2().ceil() as usize + 2;
            assert!(
                tree.level_count() <= bound,
                "n = {n}: {} levels exceeds {bound}",
                tree.level_count()
            );
        }
    }

    #[test]
    fn receivers_of_a_level_survive_to_later_levels() {
        let inst = uniform_square(30, 80.0, 5);
        let tree = build_matching_tree(&inst.points, inst.sink).unwrap();
        // A node that transmitted at level k must never appear again.
        let mut gone: Vec<usize> = Vec::new();
        for level in &tree.levels {
            for link in level {
                let s = link.sender_node.unwrap().index();
                let r = link.receiver_node.unwrap().index();
                assert!(!gone.contains(&s), "sender {s} already left the tree");
                assert!(!gone.contains(&r), "receiver {r} already left the tree");
            }
            for link in level {
                gone.push(link.sender_node.unwrap().index());
            }
        }
    }

    #[test]
    fn matching_tree_of_a_chain_is_shallow_but_slow() {
        let inst = uniform_chain(32, 1.0);
        let tree = build_matching_tree(&inst.points, inst.sink).unwrap();
        assert!(tree.level_count() <= 7);
        let schedule =
            schedule_matching_tree(&tree, SchedulerConfig::new(PowerMode::GlobalControl));
        // Latency (one wave) is the total schedule; much smaller than the chain's
        // 31-hop pipeline latency, but the rate is correspondingly lower than the
        // MST's near-constant rate.
        assert_eq!(schedule.levels, tree.level_count());
        assert!(schedule.total_slots() >= tree.level_count());
        assert!(schedule.rate() <= 1.0 / tree.level_count() as f64 + 1e-12);
        assert!(schedule.schedule.is_partition(tree.link_count()));
    }

    #[test]
    fn concatenated_schedule_indexes_all_links_once() {
        let inst = uniform_square(25, 60.0, 8);
        let tree = build_matching_tree(&inst.points, inst.sink).unwrap();
        let schedule =
            schedule_matching_tree(&tree, SchedulerConfig::new(PowerMode::mean_oblivious()));
        assert!(schedule.schedule.is_partition(tree.link_count()));
        assert_eq!(schedule.per_level_slots.len(), tree.level_count());
        assert_eq!(schedule.total_slots(), schedule.schedule.len(),);
    }
}
