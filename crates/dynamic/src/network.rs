//! The dynamic convergecast network.

use crate::error::DynamicError;
use serde::{Deserialize, Serialize};
use std::fmt;
use wagg_geometry::Point;
use wagg_mst::euclidean_mst;
use wagg_schedule::{ScheduleReport, SchedulerConfig, SolveReport};
use wagg_session::{Backend, RepairPolicy, Session};
use wagg_sinr::{Link, NodeId};

/// How the tree is repaired after a failure or arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairStrategy {
    /// Local repair: orphaned children (or the new node) attach to the
    /// nearest alive node that currently reaches the sink. Cheap — the
    /// change is confined to the failed node's neighbourhood — but the tree
    /// slowly drifts away from the true MST.
    LocalReattach,
    /// Full rebuild: recompute the MST of the alive nodes from scratch.
    /// Expensive in churn (many links may change) but the tree stays optimal.
    Rebuild,
}

impl fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairStrategy::LocalReattach => write!(f, "local reattach"),
            RepairStrategy::Rebuild => write!(f, "full rebuild"),
        }
    }
}

/// What one failure or arrival did to the tree and its schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChangeReport {
    /// Human-readable description of the event ("fail 17", "add 40").
    pub event: String,
    /// Size of the symmetric difference between the old and new edge sets.
    pub links_changed: usize,
    /// Schedule length before the event.
    pub slots_before: usize,
    /// Schedule length after the event and repair.
    pub slots_after: usize,
    /// Number of alive nodes after the event.
    pub alive_nodes: usize,
    /// Total tree length divided by the MST length of the alive nodes (1.0
    /// means the repaired tree is still an MST).
    pub stretch: f64,
}

/// A convergecast tree under churn: nodes fail and arrive, the tree is
/// repaired with the configured strategy, and the schedule is recomputed
/// after every event.
///
/// Interference state is **not** rebuilt from scratch per event: the network
/// schedules through a [`Session`] on the incremental engine backend
/// (`Backend::Engine`) mirroring the current tree links, and each repair
/// diffs the old and new parent assignments and applies only the per-link
/// insert/remove events for the edges that actually changed. The session's
/// engine incrementally maintains the spatial grids and the conflict
/// adjacency, and rescheduling goes through [`Session::solve`], which
/// colours the maintained adjacency without a geometric rebuild.
///
/// See the [crate documentation](crate) for an end-to-end example.
///
/// `DynamicNetwork` is deliberately not `Clone`: the session's engine
/// backend owns incrementally maintained state behind a trait object. To
/// snapshot a network, rebuild one from the same points/sink/config and
/// replay the events.
#[derive(Debug)]
pub struct DynamicNetwork {
    points: Vec<Point>,
    alive: Vec<bool>,
    parent: Vec<Option<usize>>,
    sink: usize,
    strategy: RepairStrategy,
    report: SolveReport,
    /// The scheduling session (incremental engine backend) over the tree's
    /// uplinks — the single source of the scheduler configuration.
    session: Session,
    /// The parent assignment currently mirrored into the session.
    session_parent: Vec<Option<usize>>,
    /// Session key of each node's uplink (child node → key).
    uplink_key: Vec<Option<u64>>,
}

impl DynamicNetwork {
    /// Builds the initial network: the MST of all points, oriented towards
    /// the sink, scheduled under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::TooFewNodes`], [`DynamicError::SinkOutOfRange`]
    /// or tree-construction errors for malformed inputs.
    pub fn new(
        points: Vec<Point>,
        sink: usize,
        config: SchedulerConfig,
        strategy: RepairStrategy,
    ) -> Result<Self, DynamicError> {
        Self::with_slot_repair(points, sink, config, strategy, RepairPolicy::default())
    }

    /// Like [`DynamicNetwork::new`], but with warm-start **slot** repair
    /// turned on in the underlying session: after each tree repair, the
    /// reschedule re-places only the links the parent diff actually touched
    /// instead of recoloring from scratch (falling back to a full recolor
    /// past `policy`'s drift watermark). Tree repair and slot repair are
    /// independent axes — either [`RepairStrategy`] composes with either
    /// policy.
    pub fn with_slot_repair(
        points: Vec<Point>,
        sink: usize,
        config: SchedulerConfig,
        strategy: RepairStrategy,
        policy: RepairPolicy,
    ) -> Result<Self, DynamicError> {
        if points.len() < 2 {
            return Err(DynamicError::TooFewNodes {
                found: points.len(),
            });
        }
        if sink >= points.len() {
            return Err(DynamicError::SinkOutOfRange {
                sink,
                nodes: points.len(),
            });
        }
        let n = points.len();
        let mut session = Session::builder()
            .scheduler(config)
            .backend(Backend::Engine)
            .repair(policy)
            .build();
        let report = session.solve();
        let mut net = DynamicNetwork {
            points,
            alive: vec![true; n],
            parent: vec![None; n],
            sink,
            strategy,
            report,
            session,
            session_parent: vec![None; n],
            uplink_key: vec![None; n],
        };
        net.rebuild_tree()?;
        net.reschedule();
        Ok(net)
    }

    /// The repair strategy in use.
    pub fn strategy(&self) -> RepairStrategy {
        self.strategy
    }

    /// The sink node.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Total number of node slots ever created (alive and failed); node
    /// indices always lie in `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// The scheduler configuration (owned by the session).
    pub fn config(&self) -> SchedulerConfig {
        self.session.config().scheduler
    }

    /// The current convergecast links (one per alive non-sink node), in the
    /// session's vertex order — the order the current schedule indexes into.
    pub fn links(&self) -> Vec<Link> {
        self.session.links()
    }

    /// The scheduling session behind the network (event accounting, the
    /// resolved backend).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The latest schedule report (the classic diagnostics; see
    /// [`DynamicNetwork::solve_report`] for backend provenance).
    pub fn schedule_report(&self) -> &ScheduleReport {
        &self.report.report
    }

    /// The latest unified solve report.
    pub fn solve_report(&self) -> &SolveReport {
        &self.report
    }

    /// The current schedule length.
    pub fn schedule_slots(&self) -> usize {
        self.report.slots()
    }

    /// Whether every alive non-sink node reaches the sink through alive
    /// parents without cycles (the repair invariant; always true between
    /// operations).
    pub fn is_valid_tree(&self) -> bool {
        let n = self.points.len();
        (0..n)
            .filter(|&v| self.alive[v] && v != self.sink)
            .all(|v| self.reaches_sink(v))
            && self
                .parent
                .iter()
                .enumerate()
                .filter(|(v, _)| self.alive[*v] && *v != self.sink)
                .all(|(_, p)| p.map(|p| self.alive[p]).unwrap_or(false))
    }

    /// Total length of the current tree divided by the length of the true MST
    /// of the alive nodes (1.0 for an optimal tree).
    pub fn stretch(&self) -> f64 {
        let alive_points: Vec<Point> = self
            .points
            .iter()
            .zip(&self.alive)
            .filter_map(|(p, &a)| a.then_some(*p))
            .collect();
        if alive_points.len() < 2 {
            return 1.0;
        }
        let current: f64 = self.links().iter().map(Link::length).sum();
        match euclidean_mst(&alive_points) {
            Ok(mst) => {
                let optimal = mst.total_length();
                if optimal <= 0.0 {
                    1.0
                } else {
                    current / optimal
                }
            }
            Err(_) => 1.0,
        }
    }

    /// Fails a node and repairs the tree with the configured strategy.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::CannotFailSink`], [`DynamicError::UnknownNode`],
    /// [`DynamicError::AlreadyFailed`] or [`DynamicError::TooFewNodes`] (when
    /// fewer than two alive nodes would remain).
    pub fn fail_node(&mut self, node: usize) -> Result<ChangeReport, DynamicError> {
        if node >= self.points.len() {
            return Err(DynamicError::UnknownNode { node });
        }
        if node == self.sink {
            return Err(DynamicError::CannotFailSink);
        }
        if !self.alive[node] {
            return Err(DynamicError::AlreadyFailed { node });
        }
        if self.alive_count() <= 2 {
            return Err(DynamicError::TooFewNodes {
                found: self.alive_count() - 1,
            });
        }
        let old_edges = self.edge_set();
        let slots_before = self.schedule_slots();

        self.alive[node] = false;
        self.parent[node] = None;
        let orphans: Vec<usize> = (0..self.points.len())
            .filter(|&v| self.alive[v] && self.parent[v] == Some(node))
            .collect();
        for &c in &orphans {
            self.parent[c] = None;
        }
        match self.strategy {
            RepairStrategy::LocalReattach => {
                for &c in &orphans {
                    let target = self.nearest_sink_reaching(c);
                    self.parent[c] = Some(target);
                }
            }
            RepairStrategy::Rebuild => self.rebuild_tree()?,
        }
        self.reschedule();
        Ok(self.change_report(format!("fail {node}"), &old_edges, slots_before))
    }

    /// Adds a node at the given position and attaches it to the tree.
    ///
    /// Returns the index of the new node together with the change report.
    ///
    /// # Errors
    ///
    /// Returns [`DynamicError::CoincidentNode`] when the position coincides
    /// with an alive node, and tree errors for the rebuild strategy.
    pub fn add_node(&mut self, position: Point) -> Result<(usize, ChangeReport), DynamicError> {
        if let Some(existing) = (0..self.points.len())
            .find(|&v| self.alive[v] && self.points[v].distance(position) == 0.0)
        {
            return Err(DynamicError::CoincidentNode { existing });
        }
        let old_edges = self.edge_set();
        let slots_before = self.schedule_slots();

        let new_index = self.points.len();
        self.points.push(position);
        self.alive.push(true);
        self.parent.push(None);
        match self.strategy {
            RepairStrategy::LocalReattach => {
                let target = self.nearest_sink_reaching(new_index);
                self.parent[new_index] = Some(target);
            }
            RepairStrategy::Rebuild => self.rebuild_tree()?,
        }
        self.reschedule();
        let report = self.change_report(format!("add {new_index}"), &old_edges, slots_before);
        Ok((new_index, report))
    }

    fn change_report(
        &self,
        event: String,
        old_edges: &[(usize, usize)],
        slots_before: usize,
    ) -> ChangeReport {
        let new_edges = self.edge_set();
        let removed = old_edges.iter().filter(|e| !new_edges.contains(e)).count();
        let added = new_edges.iter().filter(|e| !old_edges.contains(e)).count();
        ChangeReport {
            event,
            links_changed: removed + added,
            slots_before,
            slots_after: self.schedule_slots(),
            alive_nodes: self.alive_count(),
            stretch: self.stretch(),
        }
    }

    fn edge_set(&self) -> Vec<(usize, usize)> {
        self.links()
            .iter()
            .map(|l| {
                (
                    l.sender_node.expect("links carry node ids").index(),
                    l.receiver_node.expect("links carry node ids").index(),
                )
            })
            .collect()
    }

    fn reaches_sink(&self, start: usize) -> bool {
        let mut cur = start;
        let mut steps = 0;
        while cur != self.sink {
            match self.parent[cur] {
                Some(p) if self.alive[p] => cur = p,
                _ => return false,
            }
            steps += 1;
            if steps > self.points.len() {
                return false;
            }
        }
        true
    }

    /// The alive node nearest to `from` that currently reaches the sink
    /// (never `from` itself; the sink always qualifies).
    fn nearest_sink_reaching(&self, from: usize) -> usize {
        (0..self.points.len())
            .filter(|&u| u != from && self.alive[u] && self.reaches_sink(u))
            .min_by(|&a, &b| {
                self.points[a]
                    .distance(self.points[from])
                    .partial_cmp(&self.points[b].distance(self.points[from]))
                    .expect("finite distances")
            })
            .expect("the sink is alive and reaches itself")
    }

    fn rebuild_tree(&mut self) -> Result<(), DynamicError> {
        let alive_indices: Vec<usize> = (0..self.points.len()).filter(|&v| self.alive[v]).collect();
        if alive_indices.len() < 2 {
            return Err(DynamicError::TooFewNodes {
                found: alive_indices.len(),
            });
        }
        let alive_points: Vec<Point> = alive_indices.iter().map(|&v| self.points[v]).collect();
        let mst = euclidean_mst(&alive_points)?;
        let sink_local = alive_indices
            .iter()
            .position(|&v| v == self.sink)
            .expect("the sink is alive");
        let links = mst.try_orient_towards(sink_local)?;
        for &v in &alive_indices {
            self.parent[v] = None;
        }
        for link in links {
            let s = alive_indices[link.sender_node.expect("oriented links carry ids").index()];
            let r = alive_indices[link
                .receiver_node
                .expect("oriented links carry ids")
                .index()];
            self.parent[s] = Some(r);
        }
        Ok(())
    }

    /// Mirrors the current parent assignment into the session by **diffing**:
    /// only uplinks that actually changed are removed/inserted, so the
    /// engine backend's incremental maintenance cost tracks the size of the
    /// repair, not the network. Returns the number of uplinks touched.
    fn sync_session(&mut self) -> usize {
        let n = self.points.len();
        self.session_parent.resize(n, None);
        self.uplink_key.resize(n, None);
        let mut touched = 0;
        for v in 0..n {
            let desired = if self.alive[v] && v != self.sink {
                self.parent[v]
            } else {
                None
            };
            if desired == self.session_parent[v] {
                continue;
            }
            if let Some(key) = self.uplink_key[v].take() {
                self.session
                    .remove(key)
                    .expect("tracked uplink key is live");
            }
            if let Some(p) = desired {
                let key = self.session.insert_with_nodes(
                    self.points[v],
                    self.points[p],
                    NodeId(v),
                    NodeId(p),
                );
                self.uplink_key[v] = Some(key);
            }
            self.session_parent[v] = desired;
            touched += 1;
        }
        touched
    }

    fn reschedule(&mut self) {
        self.sync_session();
        self.report = self.session.solve();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_instances::random::{grid, uniform_square};
    use wagg_schedule::PowerMode;

    fn network(n: usize, seed: u64, strategy: RepairStrategy) -> DynamicNetwork {
        let inst = uniform_square(n, 120.0, seed);
        DynamicNetwork::new(
            inst.points,
            inst.sink,
            SchedulerConfig::new(PowerMode::GlobalControl),
            strategy,
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_malformed_inputs() {
        assert!(matches!(
            DynamicNetwork::new(
                vec![Point::origin()],
                0,
                SchedulerConfig::default(),
                RepairStrategy::Rebuild
            ),
            Err(DynamicError::TooFewNodes { found: 1 })
        ));
        assert!(matches!(
            DynamicNetwork::new(
                vec![Point::origin(), Point::new(1.0, 0.0)],
                4,
                SchedulerConfig::default(),
                RepairStrategy::Rebuild
            ),
            Err(DynamicError::SinkOutOfRange { sink: 4, nodes: 2 })
        ));
    }

    #[test]
    fn initial_tree_is_the_mst() {
        let net = network(30, 3, RepairStrategy::LocalReattach);
        assert!(net.is_valid_tree());
        assert!((net.stretch() - 1.0).abs() < 1e-9);
        assert_eq!(net.links().len(), 29);
        assert_eq!(net.alive_count(), 30);
    }

    #[test]
    fn sink_and_dead_and_unknown_failures_are_rejected() {
        let mut net = network(10, 1, RepairStrategy::LocalReattach);
        assert_eq!(net.fail_node(net.sink()), Err(DynamicError::CannotFailSink));
        assert!(matches!(
            net.fail_node(99),
            Err(DynamicError::UnknownNode { node: 99 })
        ));
        let victim = (net.sink() + 1) % 10;
        net.fail_node(victim).unwrap();
        assert_eq!(
            net.fail_node(victim),
            Err(DynamicError::AlreadyFailed { node: victim })
        );
    }

    #[test]
    fn local_repair_keeps_the_tree_spanning_and_schedulable() {
        let mut net = network(40, 7, RepairStrategy::LocalReattach);
        for k in 0..10 {
            let victim = (net.sink() + 1 + 3 * k) % 40;
            if !net.is_alive(victim) || victim == net.sink() {
                continue;
            }
            let report = net.fail_node(victim).unwrap();
            assert!(net.is_valid_tree(), "tree broken after failing {victim}");
            assert!(report.links_changed >= 1);
            assert_eq!(report.alive_nodes, net.alive_count());
            assert!(report.stretch >= 1.0 - 1e-9);
            assert_eq!(net.links().len(), net.alive_count() - 1);
            // The recomputed schedule is genuinely feasible.
            let links = net.links();
            let cfg = SchedulerConfig::new(PowerMode::GlobalControl);
            assert!(net
                .schedule_report()
                .schedule
                .verify(&links, &cfg.model, cfg.mode));
        }
    }

    #[test]
    fn rebuild_repair_keeps_the_tree_optimal() {
        let mut net = network(35, 11, RepairStrategy::Rebuild);
        for k in 0..8 {
            let victim = (net.sink() + 2 + 4 * k) % 35;
            if !net.is_alive(victim) || victim == net.sink() {
                continue;
            }
            net.fail_node(victim).unwrap();
            assert!(net.is_valid_tree());
            assert!(
                (net.stretch() - 1.0).abs() < 1e-9,
                "rebuild drifted from the MST"
            );
        }
    }

    #[test]
    fn local_repair_changes_fewer_links_than_rebuild_on_the_same_failure() {
        // Starting from identical trees, failing the same node changes exactly
        // 2·deg − 1 edges under local repair, which is a lower bound on what any
        // tree replacement (including the rebuilt MST) must change.
        let mut local = network(40, 13, RepairStrategy::LocalReattach);
        let mut rebuild = network(40, 13, RepairStrategy::Rebuild);
        let victim = (local.sink() + 7) % 40;
        let local_change = local.fail_node(victim).unwrap();
        let rebuild_change = rebuild.fail_node(victim).unwrap();
        assert!(
            local_change.links_changed <= rebuild_change.links_changed,
            "local repair changed {} links, rebuild {}",
            local_change.links_changed,
            rebuild_change.links_changed
        );
        // Further churn: local repair may drift from the MST, rebuild never does.
        for &victim in &[5usize, 12, 23, 31, 8] {
            if victim == local.sink() || !local.is_alive(victim) {
                continue;
            }
            local.fail_node(victim).unwrap();
            rebuild.fail_node(victim).unwrap();
        }
        assert!((rebuild.stretch() - 1.0).abs() < 1e-9);
        assert!(local.stretch() >= rebuild.stretch() - 1e-9);
    }

    #[test]
    fn additions_attach_to_the_tree() {
        let mut net = network(20, 5, RepairStrategy::LocalReattach);
        let (idx, report) = net.add_node(Point::new(500.0, 500.0)).unwrap();
        assert_eq!(idx, 20);
        assert!(net.is_alive(idx));
        assert!(net.is_valid_tree());
        assert_eq!(report.alive_nodes, 21);
        assert_eq!(report.links_changed, 1);
        // Coincident additions are rejected.
        assert!(matches!(
            net.add_node(Point::new(500.0, 500.0)),
            Err(DynamicError::CoincidentNode { existing }) if existing == 20
        ));
    }

    #[test]
    fn failing_down_to_two_nodes_is_the_limit() {
        let inst = grid(2, 2, 1.0);
        let mut net = DynamicNetwork::new(
            inst.points,
            0,
            SchedulerConfig::new(PowerMode::Uniform),
            RepairStrategy::LocalReattach,
        )
        .unwrap();
        let first = (1..4).find(|&v| net.is_alive(v)).unwrap();
        net.fail_node(first).unwrap();
        let second = (1..4).find(|&v| net.is_alive(v)).unwrap();
        net.fail_node(second).unwrap();
        let third = (1..4).find(|&v| net.is_alive(v)).unwrap();
        assert!(matches!(
            net.fail_node(third),
            Err(DynamicError::TooFewNodes { found: 1 })
        ));
    }

    #[test]
    fn churn_repair_flows_through_the_session() {
        let mut net = network(30, 19, RepairStrategy::LocalReattach);
        assert_eq!(net.session().len(), 29); // one uplink per non-sink node
        assert_eq!(
            net.session().backend_kind(),
            wagg_schedule::BackendKind::Engine
        );
        let before = net.session().stats();
        let victim = (net.sink() + 3) % 30;
        let report = net.fail_node(victim).unwrap();
        let after = net.session().stats();
        // The repair was applied as session events, and only for the edges
        // the repair actually changed (victim's uplink + each orphan's), not
        // as a from-scratch rebuild of all ~29 links.
        assert!(after.removals > before.removals);
        assert_eq!(
            after.inserts - before.inserts + (after.removals - before.removals),
            report.links_changed,
            "session events should match the repair's changed links"
        );
        assert_eq!(net.session().len(), net.alive_count() - 1);
        // The session-produced schedule stays verifiable against the links.
        let links = net.links();
        assert!(net.schedule_report().schedule.verify(
            &links,
            &net.config().model,
            net.config().mode
        ));
        assert_eq!(
            net.solve_report().backend,
            wagg_schedule::BackendKind::Engine
        );
    }

    #[test]
    fn strategy_display_is_informative() {
        assert_eq!(RepairStrategy::LocalReattach.to_string(), "local reattach");
        assert_eq!(RepairStrategy::Rebuild.to_string(), "full rebuild");
    }
}
