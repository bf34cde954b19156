//! Acknowledgment/retransmission convergecast over a faded channel.
//!
//! The simulation runs one *aggregation wave*: every non-sink node holds one
//! (aggregated) packet for its parent, a node may transmit once all its
//! children have delivered, transmissions happen in the link's scheduled
//! slots, and a failed transmission (fading pushed the SINR below the
//! threshold) is simply retried at the link's next scheduled slot — the
//! acknowledgment mechanism Sec. 3.1 assumes.

use crate::error::FadingError;
use crate::model::FadingModel;
use crate::slot::{faded_slot_outcome, slot_powers};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wagg_geometry::rng::seeded_rng;
use wagg_schedule::{PowerMode, Schedule};
use wagg_sinr::{Link, SinrModel};

/// Configuration of an ARQ run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArqConfig {
    /// Hard cap on simulated slots.
    pub max_slots: usize,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            max_slots: 100_000,
            seed: 0,
        }
    }
}

/// The outcome of one ARQ aggregation wave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArqReport {
    /// Whether every node's contribution reached the sink within the budget.
    pub completed: bool,
    /// Slots elapsed until completion (or the budget when not completed).
    pub slots_to_complete: usize,
    /// Slots one wave takes on the same schedule without fading (the
    /// deterministic baseline measured by running the same wave with a
    /// deterministic channel).
    pub ideal_slots: usize,
    /// Total transmission attempts.
    pub attempts: usize,
    /// Successful transmissions (always the number of links when completed).
    pub successes: usize,
    /// Failed attempts that had to be retried.
    pub retransmissions: usize,
    /// The largest number of attempts any single link needed.
    pub max_attempts_per_link: usize,
}

impl ArqReport {
    /// Completion-time inflation caused by fading: `slots_to_complete /
    /// ideal_slots` (1.0 when fading changes nothing).
    pub fn slowdown(&self) -> f64 {
        if self.ideal_slots == 0 {
            return 1.0;
        }
        self.slots_to_complete as f64 / self.ideal_slots as f64
    }

    /// Fraction of attempts that failed.
    pub fn loss_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.retransmissions as f64 / self.attempts as f64
    }
}

/// An ARQ convergecast simulator bound to a tree (its links) and a periodic
/// schedule of those links.
#[derive(Debug, Clone)]
pub struct ArqConvergecast {
    links: Vec<Link>,
    schedule: Schedule,
    /// Children of each node (node indices are the original pointset ids).
    children: HashMap<usize, Vec<usize>>,
    /// `link_of_sender[s]` = index of the link s transmits on.
    link_of_sender: HashMap<usize, usize>,
    sink: usize,
}

impl ArqConvergecast {
    /// Builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`FadingError`] if the links lack node identifiers, a node
    /// has several parents, the digraph is not a tree towards a single sink,
    /// or the schedule references missing links.
    pub fn new(links: &[Link], schedule: &Schedule) -> Result<Self, FadingError> {
        for slot in schedule.slots() {
            for &idx in slot {
                if idx >= links.len() {
                    return Err(FadingError::ScheduleOutOfRange { index: idx });
                }
            }
        }
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut link_of_sender: HashMap<usize, usize> = HashMap::new();
        let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut nodes: Vec<usize> = Vec::new();
        for (idx, link) in links.iter().enumerate() {
            let (s, r) = match (link.sender_node, link.receiver_node) {
                (Some(s), Some(r)) => (s.index(), r.index()),
                _ => {
                    return Err(FadingError::MissingNodeIds {
                        link: link.id.index(),
                    })
                }
            };
            if parent.insert(s, r).is_some() {
                return Err(FadingError::MultipleParents { node: s });
            }
            link_of_sender.insert(s, idx);
            children.entry(r).or_default().push(s);
            for v in [s, r] {
                if !nodes.contains(&v) {
                    nodes.push(v);
                }
            }
        }
        let sinks: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|v| !parent.contains_key(v))
            .collect();
        if sinks.len() != 1 {
            return Err(FadingError::NotAConvergecastTree);
        }
        let sink = sinks[0];
        // Reachability check: every node walks up to the sink.
        for &v in &nodes {
            let mut cur = v;
            let mut steps = 0;
            while cur != sink {
                match parent.get(&cur) {
                    Some(&p) => cur = p,
                    None => return Err(FadingError::NotAConvergecastTree),
                }
                steps += 1;
                if steps > nodes.len() {
                    return Err(FadingError::NotAConvergecastTree);
                }
            }
        }
        Ok(ArqConvergecast {
            links: links.to_vec(),
            schedule: schedule.clone(),
            children,
            link_of_sender,
            sink,
        })
    }

    /// The sink node.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Number of links (equivalently, non-sink nodes).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Runs one aggregation wave over the faded channel and, for the
    /// `ideal_slots` baseline, the same wave over the deterministic channel.
    ///
    /// # Errors
    ///
    /// Returns [`FadingError::Power`] when a slot's witness powers cannot be
    /// computed under global power control.
    pub fn run(
        &self,
        model: &SinrModel,
        mode: PowerMode,
        fading: FadingModel,
        config: ArqConfig,
    ) -> Result<ArqReport, FadingError> {
        let ideal = self.run_once(model, mode, FadingModel::none(), config)?;
        if !fading.is_stochastic() {
            let mut report = ideal;
            report.ideal_slots = report.slots_to_complete;
            return Ok(report);
        }
        let mut faded = self.run_once(model, mode, fading, config)?;
        faded.ideal_slots = ideal.slots_to_complete;
        Ok(faded)
    }

    fn run_once(
        &self,
        model: &SinrModel,
        mode: PowerMode,
        fading: FadingModel,
        config: ArqConfig,
    ) -> Result<ArqReport, FadingError> {
        let mut rng = seeded_rng(config.seed);
        let num_links = self.links.len();
        let mut delivered = vec![false; num_links];
        let mut attempts_per_link = vec![0usize; num_links];
        let mut attempts = 0usize;
        let mut successes = 0usize;
        let schedule_len = self.schedule.len().max(1);

        let pending_children = |sender: usize, delivered: &[bool]| -> bool {
            self.children
                .get(&sender)
                .map(|cs| {
                    cs.iter().any(|c| {
                        let link = self.link_of_sender[c];
                        !delivered[link]
                    })
                })
                .unwrap_or(false)
        };

        let mut slot = 0usize;
        let mut completed_at = None;
        while slot < config.max_slots {
            if delivered.iter().all(|&d| d) {
                completed_at = Some(slot);
                break;
            }
            let scheduled = if self.schedule.is_empty() {
                &[][..]
            } else {
                self.schedule.slot(slot % schedule_len)
            };
            // Links transmit when scheduled, not yet delivered, and ready
            // (their sender has aggregated every child's packet).
            let active: Vec<usize> = scheduled
                .iter()
                .copied()
                .filter(|&idx| {
                    if delivered[idx] {
                        return false;
                    }
                    let sender = self.links[idx]
                        .sender_node
                        .expect("validated at construction")
                        .index();
                    !pending_children(sender, &delivered)
                })
                .collect();
            if !active.is_empty() {
                let active_links: Vec<Link> = active.iter().map(|&idx| self.links[idx]).collect();
                let powers = slot_powers(model, mode, &active_links)?;
                let outcome = faded_slot_outcome(model, &active_links, &powers, fading, &mut rng);
                for (pos, &idx) in active.iter().enumerate() {
                    attempts += 1;
                    attempts_per_link[idx] += 1;
                    if outcome[pos] {
                        delivered[idx] = true;
                        successes += 1;
                    }
                }
            }
            slot += 1;
        }
        if completed_at.is_none() && delivered.iter().all(|&d| d) {
            completed_at = Some(slot);
        }

        Ok(ArqReport {
            completed: completed_at.is_some(),
            slots_to_complete: completed_at.unwrap_or(config.max_slots),
            ideal_slots: 0,
            attempts,
            successes,
            retransmissions: attempts - successes,
            max_attempts_per_link: attempts_per_link.iter().copied().max().unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;
    use wagg_instances::random::uniform_square;
    use wagg_schedule::{solve_static, Recorder, SchedulerConfig};
    use wagg_sinr::NodeId;

    fn scheduled_instance(
        n: usize,
        seed: u64,
        mode: PowerMode,
    ) -> (Vec<Link>, Schedule, SinrModel) {
        let inst = uniform_square(n, 100.0, seed);
        let links = inst.mst_links().unwrap();
        let config = SchedulerConfig::new(mode);
        let report = solve_static(&links, config, &Recorder::disabled());
        (links, report.schedule, config.model)
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let schedule = Schedule::new(vec![vec![0]]);
        let links = vec![Link::new(0, Point::origin(), Point::new(1.0, 0.0))];
        assert!(matches!(
            ArqConvergecast::new(&links, &schedule),
            Err(FadingError::MissingNodeIds { .. })
        ));
        let schedule = Schedule::new(vec![vec![5]]);
        let links = vec![Link::with_nodes(
            0,
            Point::origin(),
            Point::new(1.0, 0.0),
            NodeId(1),
            NodeId(0),
        )];
        assert!(matches!(
            ArqConvergecast::new(&links, &schedule),
            Err(FadingError::ScheduleOutOfRange { index: 5 })
        ));
    }

    #[test]
    fn deterministic_channel_completes_without_retransmissions() {
        let (links, schedule, model) = scheduled_instance(30, 4, PowerMode::GlobalControl);
        let sim = ArqConvergecast::new(&links, &schedule).unwrap();
        let report = sim
            .run(
                &model,
                PowerMode::GlobalControl,
                FadingModel::none(),
                ArqConfig::default(),
            )
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.successes, links.len());
        assert_eq!(report.slowdown(), 1.0);
        assert_eq!(report.loss_rate(), 0.0);
        assert_eq!(report.max_attempts_per_link, 1);
    }

    #[test]
    fn noise_free_fading_changes_nothing_for_isolated_slots() {
        // With a noise-free model and a verified schedule, fading multiplies both
        // signal and interference by unit-mean gains; failures are possible but the
        // wave still completes with a modest slowdown.
        let (links, schedule, model) = scheduled_instance(40, 9, PowerMode::GlobalControl);
        let sim = ArqConvergecast::new(&links, &schedule).unwrap();
        let report = sim
            .run(
                &model,
                PowerMode::GlobalControl,
                FadingModel::rayleigh(1.0),
                ArqConfig {
                    max_slots: 200_000,
                    seed: 3,
                },
            )
            .unwrap();
        assert!(report.completed, "wave did not complete under fading");
        assert!(report.slowdown() >= 1.0);
        assert!(
            report.slowdown() < 30.0,
            "fading slowdown {} unexpectedly large",
            report.slowdown()
        );
        assert_eq!(report.successes, links.len());
    }

    #[test]
    fn oblivious_power_wave_completes_under_fading() {
        let (links, schedule, model) = scheduled_instance(25, 12, PowerMode::mean_oblivious());
        let sim = ArqConvergecast::new(&links, &schedule).unwrap();
        let report = sim
            .run(
                &model,
                PowerMode::mean_oblivious(),
                FadingModel::rayleigh(1.0).with_noise_sigma(0.1).unwrap(),
                ArqConfig {
                    max_slots: 200_000,
                    seed: 7,
                },
            )
            .unwrap();
        assert!(report.completed);
        assert!(report.attempts >= links.len());
        assert_eq!(report.retransmissions, report.attempts - report.successes);
    }

    #[test]
    fn runs_are_deterministic_given_the_seed() {
        let (links, schedule, model) = scheduled_instance(20, 2, PowerMode::GlobalControl);
        let sim = ArqConvergecast::new(&links, &schedule).unwrap();
        let config = ArqConfig {
            max_slots: 100_000,
            seed: 99,
        };
        let a = sim
            .run(
                &model,
                PowerMode::GlobalControl,
                FadingModel::rayleigh(1.0),
                config,
            )
            .unwrap();
        let b = sim
            .run(
                &model,
                PowerMode::GlobalControl,
                FadingModel::rayleigh(1.0),
                config,
            )
            .unwrap();
        assert_eq!(a, b);
    }
}
