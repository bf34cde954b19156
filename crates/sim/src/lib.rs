//! Discrete-time convergecast simulation.
//!
//! This crate replays a periodic aggregation schedule over a convergecast tree in
//! the frame-by-frame style of the paper's Fig. 1: every `frame_period` slots each
//! node takes a new measurement; measurements of the same frame are aggregated (the
//! aggregation function is fully compressible, so a node forwards a single packet
//! per frame once its whole subtree has contributed); the sink completes a frame
//! when every node's contribution has arrived.
//!
//! The simulator measures what the paper's rate/latency discussion predicts:
//!
//! * a schedule of length `T` sustains a frame period of `T` (rate `1/T`) with
//!   bounded buffers,
//! * pushing frames faster than the schedule length makes buffers grow without
//!   bound,
//! * the latency of each frame is roughly `depth × T`.
//!
//! # Examples
//!
//! ```
//! use wagg_instances::fig1::{fig1_links, fig1_schedule_slots};
//! use wagg_schedule::Schedule;
//! use wagg_sim::{ConvergecastSim, SimConfig};
//!
//! let links = fig1_links();
//! let schedule = Schedule::new(fig1_schedule_slots().to_vec());
//! let sim = ConvergecastSim::new(&links, &schedule).unwrap();
//! let report = sim.run(SimConfig { frame_period: 2, num_frames: 10, max_slots: 200 });
//! assert_eq!(report.completed_frames, 10);
//! // The paper's walkthrough: the first frame is aggregated with latency 3.
//! assert_eq!(report.latencies[0], 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use wagg_schedule::Schedule;
use wagg_sinr::Link;

/// Errors raised when assembling a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A link does not carry sender/receiver node identifiers, so the tree topology
    /// cannot be reconstructed.
    MissingNodeIds {
        /// Identifier of the offending link.
        link: usize,
    },
    /// A node is the sender of more than one link; the convergecast tree must give
    /// every non-sink node exactly one outgoing link.
    MultipleParents {
        /// The offending node index.
        node: usize,
    },
    /// The links do not form a tree directed towards a single sink (a cycle, or
    /// several roots).
    NotAConvergecastTree,
    /// The schedule references a link index that does not exist.
    ScheduleOutOfRange {
        /// The offending index.
        index: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingNodeIds { link } => {
                write!(f, "link {link} carries no sender/receiver node identifiers")
            }
            SimError::MultipleParents { node } => {
                write!(f, "node {node} is the sender of more than one link")
            }
            SimError::NotAConvergecastTree => {
                write!(f, "links do not form a tree directed towards a single sink")
            }
            SimError::ScheduleOutOfRange { index } => {
                write!(f, "schedule references non-existent link index {index}")
            }
        }
    }
}

impl Error for SimError {}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of slots between consecutive measurement frames.
    pub frame_period: usize,
    /// Number of frames to generate.
    pub num_frames: usize,
    /// Hard cap on simulated slots (prevents infinite runs when the rate is
    /// unsustainable).
    pub max_slots: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            frame_period: 1,
            num_frames: 50,
            max_slots: 100_000,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Number of frames fully aggregated at the sink within the slot budget.
    pub completed_frames: usize,
    /// Latency (in slots, completion minus generation) of each completed frame.
    pub latencies: Vec<usize>,
    /// The largest number of pending frames held by any node at any time.
    pub max_buffer_occupancy: usize,
    /// Number of slots simulated.
    pub slots_simulated: usize,
    /// Sustained throughput: completed frames divided by slots simulated.
    pub throughput: f64,
    /// Whether every generated frame completed within the slot budget.
    pub all_frames_completed: bool,
}

impl SimReport {
    /// Mean latency over completed frames (0 when none completed).
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.iter().sum::<usize>() as f64 / self.latencies.len() as f64
    }

    /// Maximum latency over completed frames (0 when none completed).
    pub fn max_latency(&self) -> usize {
        self.latencies.iter().copied().max().unwrap_or(0)
    }
}

/// A convergecast simulator bound to a tree (given by its links) and a periodic
/// schedule over those links.
#[derive(Debug, Clone)]
pub struct ConvergecastSim {
    /// parent[v] = (parent node, link index) for every non-sink node.
    parent: HashMap<usize, (usize, usize)>,
    /// All node indices appearing in the tree.
    nodes: Vec<usize>,
    /// The sink (unique node with no outgoing link).
    sink: usize,
    /// subtree_size[v] = number of nodes in v's subtree (including v).
    subtree_size: HashMap<usize, usize>,
    schedule: Schedule,
}

impl ConvergecastSim {
    /// Builds a simulator from convergecast links (each non-sink node sends to its
    /// parent) and a periodic schedule over them.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the links lack node identifiers, a node has several
    /// parents, the digraph is not a tree towards a single sink, or the schedule
    /// references missing links.
    pub fn new(links: &[Link], schedule: &Schedule) -> Result<Self, SimError> {
        Self::build(links, schedule)
    }

    /// Builds a simulator straight from a session facade's unified
    /// [`wagg_schedule::SolveReport`] — the schedule it replays is the
    /// report's, whatever backend produced it.
    ///
    /// # Errors
    ///
    /// Same contract as [`ConvergecastSim::new`].
    pub fn from_solve(
        links: &[Link],
        report: &wagg_schedule::SolveReport,
    ) -> Result<Self, SimError> {
        Self::build(links, report.schedule())
    }

    fn build(links: &[Link], schedule: &Schedule) -> Result<Self, SimError> {
        // Validate schedule indices.
        for slot in schedule.slots() {
            for &idx in slot {
                if idx >= links.len() {
                    return Err(SimError::ScheduleOutOfRange { index: idx });
                }
            }
        }
        let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut nodes: Vec<usize> = Vec::new();
        for (idx, link) in links.iter().enumerate() {
            let (s, r) = match (link.sender_node, link.receiver_node) {
                (Some(s), Some(r)) => (s.index(), r.index()),
                _ => {
                    return Err(SimError::MissingNodeIds {
                        link: link.id.index(),
                    })
                }
            };
            if parent.insert(s, (r, idx)).is_some() {
                return Err(SimError::MultipleParents { node: s });
            }
            for v in [s, r] {
                if !nodes.contains(&v) {
                    nodes.push(v);
                }
            }
        }
        // The sink is the unique node with no outgoing link.
        let sinks: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|v| !parent.contains_key(v))
            .collect();
        if sinks.len() != 1 {
            return Err(SimError::NotAConvergecastTree);
        }
        let sink = sinks[0];
        // Check acyclicity / reachability: walking up from any node reaches the sink
        // within |nodes| steps.
        for &v in &nodes {
            let mut cur = v;
            let mut steps = 0;
            while cur != sink {
                match parent.get(&cur) {
                    Some(&(p, _)) => cur = p,
                    None => return Err(SimError::NotAConvergecastTree),
                }
                steps += 1;
                if steps > nodes.len() {
                    return Err(SimError::NotAConvergecastTree);
                }
            }
        }
        // Subtree sizes: count, for every node, how many nodes' root-paths pass
        // through it (including itself).
        let mut subtree_size: HashMap<usize, usize> = nodes.iter().map(|&v| (v, 0)).collect();
        for &v in &nodes {
            let mut cur = v;
            loop {
                *subtree_size.get_mut(&cur).expect("node present") += 1;
                if cur == sink {
                    break;
                }
                cur = parent[&cur].0;
            }
        }
        Ok(ConvergecastSim {
            parent,
            nodes,
            sink,
            subtree_size,
            schedule: schedule.clone(),
        })
    }

    /// The sink node index.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Runs the simulation.
    ///
    /// Frames `0, 1, …, num_frames − 1` are generated at slots
    /// `0, frame_period, 2·frame_period, …`; the run ends when every frame has been
    /// aggregated at the sink or `max_slots` slots have elapsed.
    pub fn run(&self, config: SimConfig) -> SimReport {
        let num_nodes = self.nodes.len();
        // contributions[node][frame] = number of distinct nodes aggregated so far.
        let mut contributions: HashMap<usize, HashMap<usize, usize>> =
            self.nodes.iter().map(|&v| (v, HashMap::new())).collect();
        // Which frames each node has already forwarded.
        let mut forwarded: HashMap<usize, Vec<bool>> = self
            .nodes
            .iter()
            .map(|&v| (v, vec![false; config.num_frames]))
            .collect();
        let mut completion_slot: Vec<Option<usize>> = vec![None; config.num_frames];
        let mut max_buffer = 0usize;

        let schedule_len = self.schedule.len().max(1);
        let mut slot = 0usize;
        while slot < config.max_slots {
            // Frame generation at the start of the slot.
            if config.frame_period > 0 && slot.is_multiple_of(config.frame_period) {
                let frame = slot / config.frame_period;
                if frame < config.num_frames {
                    for &v in &self.nodes {
                        *contributions
                            .get_mut(&v)
                            .expect("node present")
                            .entry(frame)
                            .or_insert(0) += 1;
                        if v == self.sink && num_nodes == 1 {
                            completion_slot[frame] = Some(slot);
                        }
                    }
                }
            }

            // Transmissions of this slot (simultaneous: compute sends first).
            let active = if self.schedule.is_empty() {
                &[][..]
            } else {
                self.schedule.slot(slot % schedule_len)
            };
            let mut deliveries: Vec<(usize, usize, usize)> = Vec::new(); // (receiver, frame, amount)
            for &link_idx in active {
                // Identify the sender of this link.
                let (&sender, &(receiver, _)) =
                    match self.parent.iter().find(|(_, &(_, idx))| idx == link_idx) {
                        Some(entry) => entry,
                        None => continue,
                    };
                let sender_contribs = contributions.get(&sender).expect("node present");
                let sent = forwarded.get(&sender).expect("node present");
                // The oldest complete, not-yet-forwarded frame at the sender.
                let ready: Option<usize> =
                    (0..config.num_frames).filter(|&f| !sent[f]).find(|&f| {
                        sender_contribs.get(&f).copied().unwrap_or(0) == self.subtree_size[&sender]
                    });
                if let Some(frame) = ready {
                    let amount = self.subtree_size[&sender];
                    deliveries.push((receiver, frame, amount));
                    forwarded.get_mut(&sender).expect("node present")[frame] = true;
                    contributions
                        .get_mut(&sender)
                        .expect("node present")
                        .remove(&frame);
                }
            }
            for (receiver, frame, amount) in deliveries {
                let buffer = contributions.get_mut(&receiver).expect("node present");
                let entry = buffer.entry(frame).or_insert(0);
                *entry += amount;
                if receiver == self.sink && *entry == num_nodes {
                    // The frame is fully aggregated at the sink by the end of this
                    // slot; it leaves the sink's buffer (it has been "delivered").
                    if completion_slot[frame].is_none() {
                        completion_slot[frame] = Some(slot + 1);
                    }
                    buffer.remove(&frame);
                }
            }

            // Buffer occupancy after this slot.
            for &v in &self.nodes {
                let pending = contributions[&v].len();
                max_buffer = max_buffer.max(pending);
            }

            slot += 1;
            if completion_slot.iter().all(Option::is_some) {
                break;
            }
        }

        let latencies: Vec<usize> = completion_slot
            .iter()
            .enumerate()
            .filter_map(|(frame, &done)| {
                done.map(|s| s.saturating_sub(frame * config.frame_period))
            })
            .collect();
        let completed = latencies.len();
        SimReport {
            completed_frames: completed,
            all_frames_completed: completed == config.num_frames,
            latencies,
            max_buffer_occupancy: max_buffer,
            slots_simulated: slot,
            throughput: if slot > 0 {
                completed as f64 / slot as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;
    use wagg_instances::fig1::{fig1_links, fig1_schedule_slots};
    use wagg_instances::random::uniform_square;
    use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};
    use wagg_sinr::NodeId;

    fn path_links(n: usize) -> Vec<Link> {
        // Path 0 <- 1 <- 2 <- ... <- n-1 with sink 0, unit spacing.
        (1..n)
            .map(|v| {
                Link::with_nodes(
                    v - 1,
                    Point::on_line(v as f64),
                    Point::on_line((v - 1) as f64),
                    NodeId(v),
                    NodeId(v - 1),
                )
            })
            .collect()
    }

    #[test]
    fn fig1_walkthrough_matches_paper() {
        let links = fig1_links();
        let schedule = Schedule::new(fig1_schedule_slots().to_vec());
        let sim = ConvergecastSim::new(&links, &schedule).unwrap();
        assert_eq!(sim.node_count(), 5);
        let report = sim.run(SimConfig {
            frame_period: 2,
            num_frames: 8,
            max_slots: 1000,
        });
        assert!(report.all_frames_completed);
        // Rate 1/2 sustained, first frame latency 3, bounded buffers.
        assert_eq!(report.latencies[0], 3);
        assert!(report.max_buffer_occupancy <= 3);
        assert!((report.throughput - 0.5).abs() < 0.2);
    }

    #[test]
    fn fig1_cannot_sustain_rate_one() {
        let links = fig1_links();
        let schedule = Schedule::new(fig1_schedule_slots().to_vec());
        let sim = ConvergecastSim::new(&links, &schedule).unwrap();
        let fast = sim.run(SimConfig {
            frame_period: 1,
            num_frames: 40,
            max_slots: 120,
        });
        let sustainable = sim.run(SimConfig {
            frame_period: 2,
            num_frames: 40,
            max_slots: 400,
        });
        // Overdriving the schedule grows the buffers beyond the sustainable case's.
        assert!(fast.max_buffer_occupancy > sustainable.max_buffer_occupancy);
    }

    #[test]
    fn single_link_tree() {
        let links = path_links(2);
        let schedule = Schedule::round_robin(1);
        let sim = ConvergecastSim::new(&links, &schedule).unwrap();
        let report = sim.run(SimConfig {
            frame_period: 1,
            num_frames: 5,
            max_slots: 100,
        });
        assert!(report.all_frames_completed);
        assert_eq!(report.completed_frames, 5);
        assert!(report.mean_latency() >= 1.0);
    }

    #[test]
    fn path_latency_grows_with_depth() {
        let short = path_links(4);
        let long = path_links(10);
        for (links, expected_depth) in [(short, 3), (long, 9)] {
            let schedule = Schedule::round_robin(links.len());
            let sim = ConvergecastSim::new(&links, &schedule).unwrap();
            let report = sim.run(SimConfig {
                frame_period: links.len(),
                num_frames: 3,
                max_slots: 10_000,
            });
            assert!(report.all_frames_completed);
            // Latency is at least the hop depth of the farthest node.
            assert!(report.max_latency() >= expected_depth);
        }
    }

    #[test]
    fn sustained_rate_matches_schedule_length_on_random_mst() {
        let inst = uniform_square(24, 50.0, 3);
        let links = inst.mst_links().unwrap();
        let solve: wagg_schedule::SolveReport = solve_static(
            &links,
            SchedulerConfig::new(PowerMode::GlobalControl),
            &Recorder::disabled(),
        )
        .into();
        let t = solve.slots();
        let sim = ConvergecastSim::from_solve(&links, &solve).unwrap();
        let run = sim.run(SimConfig {
            frame_period: t,
            num_frames: 20,
            max_slots: 50_000,
        });
        assert!(run.all_frames_completed);
        // Throughput approaches 1/T as the run length grows (within a factor of 2
        // because of the draining tail).
        assert!(run.throughput >= 1.0 / (2.0 * t as f64));
        assert!(run.max_buffer_occupancy <= sim.node_count());
    }

    #[test]
    fn errors_are_reported() {
        // Missing node ids.
        let anonymous = vec![Link::new(0, Point::on_line(1.0), Point::on_line(0.0))];
        assert!(matches!(
            ConvergecastSim::new(&anonymous, &Schedule::round_robin(1)),
            Err(SimError::MissingNodeIds { .. })
        ));
        // Two outgoing links from one node.
        let double = vec![
            Link::with_nodes(
                0,
                Point::on_line(1.0),
                Point::on_line(0.0),
                NodeId(1),
                NodeId(0),
            ),
            Link::with_nodes(
                1,
                Point::on_line(1.0),
                Point::on_line(2.0),
                NodeId(1),
                NodeId(2),
            ),
        ];
        assert!(matches!(
            ConvergecastSim::new(&double, &Schedule::round_robin(2)),
            Err(SimError::MultipleParents { node: 1 })
        ));
        // Cycle.
        let cycle = vec![
            Link::with_nodes(
                0,
                Point::on_line(0.0),
                Point::on_line(1.0),
                NodeId(0),
                NodeId(1),
            ),
            Link::with_nodes(
                1,
                Point::on_line(1.0),
                Point::on_line(0.0),
                NodeId(1),
                NodeId(0),
            ),
        ];
        assert!(matches!(
            ConvergecastSim::new(&cycle, &Schedule::round_robin(2)),
            Err(SimError::NotAConvergecastTree)
        ));
        // Schedule out of range.
        let links = path_links(3);
        let bad_schedule = Schedule::new(vec![vec![5]]);
        assert!(matches!(
            ConvergecastSim::new(&links, &bad_schedule),
            Err(SimError::ScheduleOutOfRange { index: 5 })
        ));
    }

    #[test]
    fn empty_schedule_completes_nothing_on_multi_node_trees() {
        let links = path_links(3);
        let sim = ConvergecastSim::new(&links, &Schedule::new(vec![])).unwrap();
        let report = sim.run(SimConfig {
            frame_period: 1,
            num_frames: 3,
            max_slots: 50,
        });
        assert_eq!(report.completed_frames, 0);
        assert!(!report.all_frames_completed);
        assert_eq!(report.slots_simulated, 50);
    }

    #[test]
    fn error_display_strings() {
        assert!(SimError::NotAConvergecastTree.to_string().contains("tree"));
        assert!(SimError::MissingNodeIds { link: 2 }
            .to_string()
            .contains("link 2"));
        assert!(SimError::MultipleParents { node: 1 }
            .to_string()
            .contains("node 1"));
        assert!(SimError::ScheduleOutOfRange { index: 9 }
            .to_string()
            .contains('9'));
    }
}
