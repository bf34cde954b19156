//! Engine event traces: churn and mobility workloads, replayable event by
//! event.
//!
//! A trace is a flat, serialisable list of [`EngineEvent`]s referring to
//! links by caller-chosen **keys** (slots are an engine-internal detail the
//! generator cannot know in advance); [`run_trace`] replays a trace against
//! an [`InterferenceEngine`], maintaining the key → slot binding. Two
//! generators are provided:
//!
//! * [`churn_trace`] — random link departures and arrivals at a steady
//!   population, the dynamic-network workload of `wagg-dynamic`,
//! * [`EngineTrace::from_mobility`] — adapts a
//!   [`wagg_instances::mobility`] random-waypoint trace: nodes are chained
//!   (`node i` transmits to `node i − 1`) and every waypoint step becomes a
//!   [`EngineEvent::MoveNode`], so each event re-seats at most two links.

use crate::engine::InterferenceEngine;
use crate::error::EngineError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wagg_geometry::rng::seeded_rng;
use wagg_geometry::Point;
use wagg_instances::mobility::{handover_events, MobilityTrace};
use wagg_sinr::{Link, NodeId};

/// One replayable engine event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EngineEvent {
    /// A link arrives under a fresh trace key.
    Insert {
        /// Caller-chosen key later events refer to.
        key: u64,
        /// Sender position.
        sender: Point,
        /// Receiver position.
        receiver: Point,
        /// Pointset node of the sender, if the link should follow
        /// [`EngineEvent::MoveNode`] events.
        sender_node: Option<usize>,
        /// Pointset node of the receiver, if any.
        receiver_node: Option<usize>,
    },
    /// The link inserted under `key` departs.
    Remove {
        /// The departing link's trace key.
        key: u64,
    },
    /// A pointset node moves; every live link annotated with it follows.
    MoveNode {
        /// The moving node.
        node: usize,
        /// Its new position.
        to: Point,
    },
}

/// A named sequence of engine events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineTrace {
    /// Trace name (reported by benches and experiments).
    pub name: String,
    /// The events, in application order.
    pub events: Vec<EngineEvent>,
}

impl EngineTrace {
    /// Adapts a random-waypoint mobility trace: nodes are chained (`i → i−1`
    /// for `i ≥ 1`) with their initial positions, then every waypoint move
    /// becomes a [`EngineEvent::MoveNode`]. Each move touches at most two
    /// links (the node's uplink and its child's), which is exactly the
    /// "affected neighbourhood" workload the engine is built for.
    pub fn from_mobility(trace: &MobilityTrace) -> Self {
        let mut events = Vec::with_capacity(trace.initial.len() + trace.moves.len());
        for (i, w) in trace.initial.windows(2).enumerate() {
            events.push(EngineEvent::Insert {
                key: (i + 1) as u64,
                sender: w[1],
                receiver: w[0],
                sender_node: Some(i + 1),
                receiver_node: Some(i),
            });
        }
        events.extend(trace.moves.iter().map(|m| EngineEvent::MoveNode {
            node: m.node,
            to: m.to,
        }));
        EngineTrace {
            name: format!("mobility-n{}-s{}", trace.initial.len(), trace.config.steps),
            events,
        }
    }

    /// Adapts a mobility trace to **handover mobility** against a static
    /// relay set: every mobile node `i` (pointset nodes `0..n`) keeps one
    /// uplink to its associated relay (pointset nodes `n..n + relays.len()`,
    /// never moving), waypoint moves become [`EngineEvent::MoveNode`]s that
    /// drag the uplink's sender endpoint along, and whenever the node drifts
    /// past the hysteresis `margin`
    /// ([`wagg_instances::mobility::handover_events`]) the uplink is
    /// re-associated — a [`EngineEvent::Remove`] of the old uplink followed
    /// by an [`EngineEvent::Insert`] towards the new nearest relay. Each
    /// handover therefore touches exactly one link's neighbourhood, the
    /// workload the incremental engine is built for.
    ///
    /// # Panics
    ///
    /// Panics when `relays` is empty or `margin` is negative (propagated
    /// from `handover_events`).
    pub fn from_handover(trace: &MobilityTrace, relays: &[Point], margin: f64) -> Self {
        let n = trace.initial.len();
        let (initial_assoc, handovers) = handover_events(trace, relays, margin);
        let mut events = Vec::with_capacity(n + trace.moves.len() + 2 * handovers.len());
        // Uplink of node i starts under key i; re-associations mint fresh keys.
        let mut uplink_key: Vec<u64> = (0..n as u64).collect();
        let mut next_key = n as u64;
        for (i, (&pos, &relay)) in trace.initial.iter().zip(&initial_assoc).enumerate() {
            events.push(EngineEvent::Insert {
                key: i as u64,
                sender: pos,
                receiver: relays[relay],
                sender_node: Some(i),
                receiver_node: Some(n + relay),
            });
        }
        let mut pending = handovers.iter().peekable();
        for (move_index, m) in trace.moves.iter().enumerate() {
            events.push(EngineEvent::MoveNode {
                node: m.node,
                to: m.to,
            });
            while let Some(h) = pending.peek() {
                if h.move_index != move_index {
                    break;
                }
                events.push(EngineEvent::Remove {
                    key: uplink_key[h.node],
                });
                let key = next_key;
                next_key += 1;
                uplink_key[h.node] = key;
                events.push(EngineEvent::Insert {
                    key,
                    sender: m.to,
                    receiver: relays[h.to_relay],
                    sender_node: Some(h.node),
                    receiver_node: Some(n + h.to_relay),
                });
                pending.next();
            }
        }
        EngineTrace {
            name: format!("handover-n{}-r{}-s{}", n, relays.len(), trace.config.steps),
            events,
        }
    }
}

/// A steady-state churn trace: `n` initial unit-ish links uniformly placed in
/// a square scaled to constant density, followed by `events` alternating
/// departures of a random live link and arrivals of a fresh one (so the
/// population stays around `n`). Deterministic in `seed`.
pub fn churn_trace(n: usize, events: usize, seed: u64) -> EngineTrace {
    let side = (n.max(1) as f64).sqrt() * 4.0;
    let mut rng = seeded_rng(seed);
    let mut next_key = 0u64;
    let mut live: Vec<u64> = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n + events);
    let mut insert = |rng: &mut wagg_geometry::rng::DeterministicRng,
                      live: &mut Vec<u64>,
                      out: &mut Vec<EngineEvent>| {
        let key = next_key;
        next_key += 1;
        let x = rng.gen_range(0.0..side);
        let y = rng.gen_range(0.0..side);
        let angle = rng.gen_range(0.0..std::f64::consts::TAU);
        out.push(EngineEvent::Insert {
            key,
            sender: Point::new(x, y),
            receiver: Point::new(x + angle.cos(), y + angle.sin()),
            sender_node: None,
            receiver_node: None,
        });
        live.push(key);
    };
    for _ in 0..n {
        insert(&mut rng, &mut live, &mut out);
    }
    for round in 0..events {
        let depart = round % 2 == 0 && !live.is_empty();
        if depart {
            let victim = rng.gen_range(0..live.len());
            out.push(EngineEvent::Remove {
                key: live.swap_remove(victim),
            });
        } else {
            insert(&mut rng, &mut live, &mut out);
        }
    }
    EngineTrace {
        name: format!("churn-n{n}-e{events}"),
        events: out,
    }
}

/// What replaying a trace did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceOutcome {
    /// Number of events applied.
    pub applied: usize,
    /// Live links after the final event.
    pub final_links: usize,
    /// Conflict edges after the final event.
    pub final_edges: usize,
}

/// Replays a trace against an engine, binding trace keys to engine slots.
/// The binding lives for one call; `wagg_session::Session::apply_events`
/// keeps its binding across calls, for replaying a trace in pieces (one
/// mobility step at a time, rescheduling in between).
///
/// # Errors
///
/// [`EngineError::UnknownTraceKey`] when a `Remove` names a key that is not
/// live (including double-removes); engine errors are propagated.
pub fn run_trace(
    engine: &mut InterferenceEngine,
    trace: &EngineTrace,
) -> Result<TraceOutcome, EngineError> {
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    for event in &trace.events {
        match *event {
            EngineEvent::Insert {
                key,
                sender,
                receiver,
                sender_node,
                receiver_node,
            } => {
                let mut link = Link::new(0, sender, receiver);
                link.sender_node = sender_node.map(NodeId);
                link.receiver_node = receiver_node.map(NodeId);
                slot_of.insert(key, engine.insert(link));
            }
            EngineEvent::Remove { key } => {
                let slot = slot_of
                    .remove(&key)
                    .ok_or(EngineError::UnknownTraceKey { key })?;
                engine.remove_link(slot)?;
            }
            EngineEvent::MoveNode { node, to } => {
                engine.move_node(node, to);
            }
        }
    }
    Ok(TraceOutcome {
        applied: trace.events.len(),
        final_links: engine.len(),
        final_edges: engine.edge_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_conflict::ConflictGraph;
    use wagg_instances::mobility::{random_waypoint, WaypointConfig};
    use wagg_schedule::{PowerMode, SchedulerConfig};

    fn engine() -> InterferenceEngine {
        InterferenceEngine::new(SchedulerConfig::new(PowerMode::Uniform))
    }

    /// The replayed engine's adjacency equals a fresh build of its links.
    fn assert_matches_build(e: &InterferenceEngine) {
        let graph = e.snapshot();
        assert_eq!(graph, ConflictGraph::build(graph.links(), e.relation()));
    }

    #[test]
    fn churn_traces_are_deterministic_and_keep_population_steady() {
        let a = churn_trace(40, 30, 3);
        let b = churn_trace(40, 30, 3);
        assert_eq!(a, b);
        let mut e = engine();
        let outcome = run_trace(&mut e, &a).unwrap();
        assert_eq!(outcome.applied, 70);
        assert_eq!(outcome.final_links, 40); // 15 removes, 15 inserts
        assert_eq!(e.len(), 40);
        assert_matches_build(&e);
    }

    #[test]
    fn run_trace_keeps_a_lone_annotation() {
        let mut e = engine();
        let trace = EngineTrace {
            name: "lone".into(),
            events: vec![
                EngineEvent::Insert {
                    key: 3,
                    sender: Point::new(0.0, 0.0),
                    receiver: Point::new(1.0, 0.0),
                    sender_node: Some(7),
                    receiver_node: None,
                },
                EngineEvent::MoveNode {
                    node: 7,
                    to: Point::new(0.2, 0.1),
                },
            ],
        };
        run_trace(&mut e, &trace).unwrap();
        let slot = e.node_slots(7);
        assert_eq!(slot.len(), 1, "the sender annotation binds node 7");
        let link = *e.link(slot[0]).unwrap();
        assert_eq!(link.sender, Point::new(0.2, 0.1));
        assert_eq!(link.receiver, Point::new(1.0, 0.0));
        assert_eq!(link.receiver_node, None);
    }

    #[test]
    fn mobility_traces_drive_move_events() {
        let trace = random_waypoint(&WaypointConfig {
            nodes: 8,
            side: 30.0,
            speed: 2.0,
            steps: 5,
            seed: 11,
        });
        let engine_trace = EngineTrace::from_mobility(&trace);
        assert_eq!(engine_trace.events.len(), 7 + 40);
        let mut e = engine();
        let outcome = run_trace(&mut e, &engine_trace).unwrap();
        assert_eq!(outcome.final_links, 7);
        // The links ended up where the trace says the nodes are.
        let finals = trace.final_positions();
        let moved = e
            .live_slots()
            .into_iter()
            .map(|s| *e.link(s).unwrap())
            .all(|l| {
                let s = l.sender_node.unwrap().index();
                let r = l.receiver_node.unwrap().index();
                l.sender == finals[s] && l.receiver == finals[r]
            });
        assert!(moved, "links did not follow their nodes");
        assert_matches_build(&e);
    }

    #[test]
    fn handover_traces_reassociate_uplinks_to_the_nearest_relay() {
        let trace = random_waypoint(&WaypointConfig {
            nodes: 9,
            side: 60.0,
            speed: 6.0,
            steps: 20,
            seed: 21,
        });
        let relays = vec![
            Point::new(0.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(0.0, 60.0),
            Point::new(60.0, 60.0),
        ];
        let engine_trace = EngineTrace::from_handover(&trace, &relays, 0.0);
        let (_, handovers) = wagg_instances::mobility::handover_events(&trace, &relays, 0.0);
        assert!(
            !handovers.is_empty(),
            "a 20-step trace across the square must hand over"
        );
        assert_eq!(
            engine_trace.events.len(),
            9 + trace.moves.len() + 2 * handovers.len()
        );
        let mut e = engine();
        let outcome = run_trace(&mut e, &engine_trace).unwrap();
        assert_eq!(outcome.final_links, 9); // one uplink per mobile node
                                            // Every uplink ends at its node's final position, pointing at that
                                            // node's margin-0 nearest relay.
        let finals = trace.final_positions();
        for slot in e.live_slots() {
            let link = *e.link(slot).unwrap();
            let node = link.sender_node.unwrap().index();
            assert!(node < 9, "uplink sender must be a mobile node");
            assert_eq!(link.sender, finals[node]);
            let relay = link.receiver_node.unwrap().index() - 9;
            let best = wagg_instances::mobility::nearest_relay(finals[node], &relays);
            let d_assoc = finals[node].distance(relays[relay]);
            let d_best = finals[node].distance(relays[best]);
            assert!(
                d_assoc <= d_best + 1e-9,
                "node {node} associated to relay {relay}, nearest is {best}"
            );
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let mut e = engine();
        let trace = EngineTrace {
            name: "bad".into(),
            events: vec![EngineEvent::Remove { key: 5 }],
        };
        assert_eq!(
            run_trace(&mut e, &trace),
            Err(EngineError::UnknownTraceKey { key: 5 })
        );
    }
}
