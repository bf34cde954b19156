//! Property tests: after an **arbitrary** event sequence, the engine's
//! incrementally maintained conflict adjacency must equal
//! `ConflictGraph::build` over the live links edge for edge (CSR arrays
//! compared exactly), under the relation of each power mode: uniform
//! (`G_2`), oblivious `P_1/2` (`G^δ_2`) and global control (`G_2log`).
//!
//! Every event edits the per-slot conflict rows in place (an arrival joins
//! its partners' rows, a departure leaves them), so these comparisons check
//! the row edits of every insert, removal and node move. The scripted tests
//! force the corners: remove-then-reinsert into recycled slots, and
//! class-grid re-layouts (a class re-lays out whenever its membership
//! doubles or falls to a quarter). The suite runs under both the serial and
//! the parallel feature configuration (`ci.sh` runs it with
//! `--no-default-features`, debug and release, too).

use proptest::prelude::*;
use wagg_conflict::ConflictGraph;
use wagg_engine::InterferenceEngine;
use wagg_geometry::Point;
use wagg_schedule::{PowerMode, SchedulerConfig};
use wagg_sinr::{Link, NodeId};

fn config_for(which: u8) -> SchedulerConfig {
    SchedulerConfig::new(match which % 3 {
        0 => PowerMode::Uniform,
        1 => PowerMode::mean_oblivious(),
        _ => PowerMode::GlobalControl,
    })
}

/// Asserts the engine equals a from-scratch build of its live links.
fn assert_matches_scratch(engine: &InterferenceEngine) {
    let graph = engine.snapshot();
    let scratch = ConflictGraph::build(graph.links(), engine.relation());
    assert_eq!(
        graph,
        scratch,
        "engine adjacency diverged from ConflictGraph::build on {} links",
        graph.len()
    );
}

/// One scripted operation, decoded from proptest tuples.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        x: f64,
        y: f64,
        angle: f64,
        len: f64,
        node: usize,
        /// Annotate the sender alone (no receiver node).
        half: bool,
    },
    Remove {
        pick: usize,
    },
    Move {
        node: usize,
        x: f64,
        y: f64,
    },
}

fn decode(ops: &[(u8, f64, f64, f64, f64, u16)]) -> Vec<Op> {
    ops.iter()
        .map(|&(kind, x, y, angle, len, sel)| match kind % 4 {
            // Two insert variants so traces grow on average; the second
            // annotates the sender alone.
            0 | 1 => Op::Insert {
                x,
                y,
                angle,
                len,
                // A small node pool so several links share nodes and moves
                // re-seat more than one link.
                node: sel as usize % 12,
                half: kind % 4 == 1,
            },
            2 => Op::Remove { pick: sel as usize },
            _ => Op::Move {
                node: sel as usize % 12,
                x,
                y,
            },
        })
        .collect()
}

/// The insert's node annotations: the sender's node, and — unless `half` —
/// a receiver node from a disjoint pool.
fn nodes(node: usize, half: bool) -> (Option<NodeId>, Option<NodeId>) {
    (
        Some(NodeId(node)),
        (!half).then_some(NodeId((node + 1) % 12 + 12)),
    )
}

fn apply(engine: &mut InterferenceEngine, op: Op) {
    match op {
        Op::Insert {
            x,
            y,
            angle,
            len,
            node,
            half,
        } => {
            let sender = Point::new(x, y);
            let receiver = Point::new(x + len * angle.cos(), y + len * angle.sin());
            let mut link = Link::new(0, sender, receiver);
            (link.sender_node, link.receiver_node) = nodes(node, half);
            engine.insert(link);
        }
        Op::Remove { pick } => {
            let live = engine.live_slots();
            if !live.is_empty() {
                engine.remove_link(live[pick % live.len()]).unwrap();
            }
        }
        Op::Move { node, x, y } => {
            engine.move_node(node, Point::new(x, y));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary event traces under every relation, checked at several
    /// checkpoints and at the end, with default maintenance thresholds.
    #[test]
    fn engine_equals_scratch_after_arbitrary_traces(
        raw in proptest::collection::vec(
            (0u8..4, 0.0f64..250.0, 0.0f64..250.0, 0.0f64..std::f64::consts::TAU, 0.2f64..25.0, 0u16..4096),
            20..90,
        ),
        which in 0u8..3,
    ) {
        let mut engine = InterferenceEngine::new(config_for(which));
        let ops = decode(&raw);
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut engine, op);
            if i % 23 == 22 {
                assert_matches_scratch(&engine);
            }
        }
        assert_matches_scratch(&engine);
    }

    /// Denser traces over a smaller square with longer links, so classes
    /// grow and shrink across their re-layout thresholds mid-trace.
    #[test]
    fn engine_equals_scratch_across_class_relayouts(
        raw in proptest::collection::vec(
            (0u8..4, 0.0f64..120.0, 0.0f64..120.0, 0.0f64..std::f64::consts::TAU, 0.2f64..40.0, 0u16..4096),
            30..80,
        ),
        which in 0u8..3,
    ) {
        let mut engine = InterferenceEngine::new(config_for(which));
        for &op in &decode(&raw) {
            apply(&mut engine, op);
        }
        assert_matches_scratch(&engine);
    }
}

#[test]
fn remove_then_reinsert_recycles_slots_consistently() {
    let mut engine = InterferenceEngine::new(config_for(0));
    // A dense row of unit links.
    let slots: Vec<usize> = (0..120)
        .map(|i| {
            let x = i as f64 * 1.3;
            engine.insert(Link::new(0, Point::on_line(x), Point::on_line(x + 1.0)))
        })
        .collect();
    assert_matches_scratch(&engine);
    // Remove every other link...
    for &slot in slots.iter().step_by(2) {
        engine.remove_link(slot).unwrap();
    }
    assert_matches_scratch(&engine);
    // ...reinsert into the recycled slots at new positions and lengths
    // (crossing length classes), then churn once more.
    let reinserted: Vec<usize> = (0..60)
        .map(|i| {
            let x = i as f64 * 2.6 + 0.4;
            engine.insert(Link::new(0, Point::on_line(x), Point::on_line(x + 4.0)))
        })
        .collect();
    assert!(
        reinserted.iter().all(|s| slots.contains(s)),
        "slots must be recycled"
    );
    assert_matches_scratch(&engine);
    for &slot in reinserted.iter().take(20) {
        engine.remove_link(slot).unwrap();
    }
    assert_matches_scratch(&engine);
    // The unit-link class grew one insert at a time, so it re-laid out
    // (at 2, 4, ..., 64 members).
    let grown = engine.grid_rebuilds();
    assert!(grown > 0, "growing classes must re-lay out their grids");
    // Removing 45 of the 60 remaining unit links takes their class to at
    // most a quarter of its 64-member layout; a removal can only re-lay out
    // a shrinking class.
    for &slot in slots.iter().skip(1).step_by(2).take(45) {
        engine.remove_link(slot).unwrap();
    }
    assert_matches_scratch(&engine);
    assert!(
        engine.grid_rebuilds() > grown,
        "a class falling to a quarter must re-lay out its grid"
    );
}

#[test]
fn long_churn_stays_exact() {
    let mut engine = InterferenceEngine::new(config_for(1));
    let mut live: Vec<usize> = (0..150)
        .map(|i| {
            let x = (i % 15) as f64 * 2.0;
            let y = (i / 15) as f64 * 2.0;
            engine.insert(Link::new(0, Point::new(x, y), Point::new(x + 1.0, y)))
        })
        .collect();
    for round in 0..300 {
        let victim = live[round * 7 % live.len()];
        live.retain(|&s| s != victim);
        engine.remove_link(victim).unwrap();
        let x = (round % 17) as f64 * 1.7;
        let y = (round % 13) as f64 * 1.9;
        live.push(engine.insert(Link::new(0, Point::new(x, y), Point::new(x + 1.2, y + 0.3))));
        if round % 60 == 59 {
            assert_matches_scratch(&engine);
        }
    }
    assert_matches_scratch(&engine);
    assert!(
        engine.grid_rebuilds() > 0,
        "growing classes must re-lay out their grids"
    );
}

#[test]
fn degenerate_and_mixed_scale_universes_stay_exact() {
    let mut engine = InterferenceEngine::new(config_for(2));
    // Mixed scales spanning many length classes plus degenerate links.
    for i in 0..40 {
        let x = i as f64 * 3.0;
        engine.insert(Link::new(0, Point::on_line(x), Point::on_line(x + 1.0)));
        let growth = 1.0 + (i % 7) as f64 * 4.0;
        let (s, r) = (Point::on_line(x + 1.2), Point::on_line(x + 1.2 + growth));
        engine.insert(Link::new(0, s, r));
    }
    let degenerate = engine.insert(Link::new(0, Point::on_line(5.0), Point::on_line(5.0)));
    assert_matches_scratch(&engine);
    assert_eq!(engine.neighbors(degenerate).len(), engine.len() - 1);
    engine.remove_link(degenerate).unwrap();
    assert_matches_scratch(&engine);
}
