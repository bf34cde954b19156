//! An engine built by single inserts, then churned, must stay
//! edge-identical to the all-pairs `ConflictGraph::build_naive` on the
//! static build's far-from-origin family: shortest links about `1e-6` of
//! the offset, translated by ±1e6…1e12 on each axis. Every live link is
//! indexed, so the class query's grid window and box-gap test, with their
//! rounding margins, are the only things that could miss a true partner.
//! Links whose length overflows to infinity join no class and are checked
//! against every row exactly; they must neither panic nor go missing.

#[path = "../../conflict/tests/families/mod.rs"]
mod families;

use proptest::prelude::*;
use wagg_conflict::{ConflictGraph, ConflictRelation};
use wagg_engine::{EngineConfig, InterferenceEngine};
use wagg_geometry::Point;
use wagg_sinr::{Link, NodeId, PowerAssignment, SinrModel};

fn relation_for(which: u8) -> ConflictRelation {
    match which % 3 {
        0 => ConflictRelation::unit_constant(),
        1 => ConflictRelation::oblivious_default(),
        _ => ConflictRelation::arbitrary_default(),
    }
}

fn assert_matches_naive(engine: &InterferenceEngine, phase: &str) {
    let (links, graph) = engine.snapshot();
    let naive = ConflictGraph::build_naive(&links, engine.config().relation);
    assert_eq!(graph, naive, "{phase}: engine and naive build disagree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn insert_built_engine_equals_naive_far_from_the_origin(
        uniform in proptest::collection::vec((0.0f64..300.0, 0.0f64..300.0, 0.0f64..std::f64::consts::TAU, 0.1f64..20.0), 80..120),
        gaps in proptest::collection::vec(0.05f64..3.0, 70..100),
        degenerate in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.2f64..5.0), 70..90),
        degenerate_at in proptest::collection::vec(0usize..70, 1..4),
        (family, exponent, signs) in (0u8..3, 6.0f64..=12.0, 0u8..4),
        (which, stride) in (0u8..3, 2usize..5),
    ) {
        let links = families::far_from_origin(
            family, exponent, signs, &uniform, &gaps, &degenerate, &degenerate_at,
        );
        let config = EngineConfig::new(
            relation_for(which),
            SinrModel::default(),
            PowerAssignment::mean(),
        );
        // Link k runs from node 2k to node 2k + 1.
        let mut engine = InterferenceEngine::new(config);
        let mut slots: Vec<usize> = links
            .iter()
            .enumerate()
            .map(|(k, l)| {
                let (s, r) = (NodeId(2 * k), NodeId(2 * k + 1));
                engine.insert(Link::with_nodes(0, l.sender, l.receiver, s, r))
            })
            .collect();
        assert_matches_naive(&engine, "inserts");

        // Every `stride`-th link departs...
        let departed: Vec<usize> = (0..links.len()).step_by(stride).collect();
        for &k in &departed {
            engine.remove_link(slots[k]).unwrap();
        }
        assert_matches_naive(&engine, "removals");

        // ...and comes back on its own nodes into recycled slots.
        for &k in &departed {
            let l = links[k];
            let (s, r) = (NodeId(2 * k), NodeId(2 * k + 1));
            slots[k] = engine.insert(Link::with_nodes(0, l.sender, l.receiver, s, r));
        }
        assert_matches_naive(&engine, "re-inserts");

        // Receivers move onto their neighbour's receiver, a quarter of the
        // way from their own: lengths, and so length classes, change.
        for k in (1..links.len()).step_by(stride) {
            let (from, to) = (links[k].receiver, links[k - 1].receiver);
            let at = Point::new(from.x + (to.x - from.x) / 4.0, from.y + (to.y - from.y) / 4.0);
            engine.move_node(2 * k + 1, at);
        }
        assert_matches_naive(&engine, "node moves");
    }
}

#[test]
fn links_of_infinite_length_are_checked_exactly() {
    // 80 short links on a lattice, then three whose endpoints are finite but
    // whose length overflows: past the static build's all-pairs cutoff, so
    // `with_links` seeds its adjacency from the class grids.
    let mut links: Vec<Link> = (0..80)
        .map(|k| {
            let (x, y) = ((k % 10) as f64 * 3.0, (k / 10) as f64 * 3.0);
            Link::new(k, Point::new(x, y), Point::new(x + 1.0 + (k % 3) as f64, y))
        })
        .collect();
    let overflowing = [
        (Point::new(0.0, 1.0), Point::new(1e308, 1.0)),
        (Point::new(-1e308, 10.0), Point::new(1e308, 10.0)),
        (Point::new(5.0, -1e200), Point::new(5.0, 1e200)),
    ];
    for (sender, receiver) in overflowing {
        links.push(Link::new(links.len(), sender, receiver));
    }
    assert!(links[80..].iter().all(|l| l.length().is_infinite()));
    for which in 0..3 {
        let config = EngineConfig::new(
            relation_for(which),
            SinrModel::default(),
            PowerAssignment::mean(),
        );
        let seeded = InterferenceEngine::with_links(config.clone(), &links);
        assert_matches_naive(&seeded, "with_links");
        let mut engine = InterferenceEngine::new(config);
        let slots: Vec<usize> = links.iter().map(|&l| engine.insert(l)).collect();
        assert_matches_naive(&engine, "inserts");
        for &slot in slots.iter().step_by(3) {
            engine.remove_link(slot).unwrap();
        }
        assert_matches_naive(&engine, "removals");
        for l in links.iter().step_by(3) {
            engine.insert(*l);
        }
        assert_matches_naive(&engine, "re-inserts");
    }
}
