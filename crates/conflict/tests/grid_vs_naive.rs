//! Property tests: the grid-accelerated conflict-graph construction must be
//! **edge-identical** to the all-pairs reference build, for every relation in
//! the family and for adversarially shaped instances (uniform squares, tight
//! chains, mixed length scales, degenerate links, a collinear chain on a
//! slanted line, far-translated inputs) and for the paper's clustered MSTs.

mod families;

use families::{diverse_chain, uniform_square, with_degenerate};
use proptest::prelude::*;
use wagg_conflict::{ConflictGraph, ConflictRelation};
use wagg_geometry::Point;
use wagg_sinr::Link;

fn relation_for(which: u8) -> ConflictRelation {
    match which % 3 {
        0 => ConflictRelation::unit_constant(),
        1 => ConflictRelation::oblivious_default(),
        _ => ConflictRelation::arbitrary_default(),
    }
}

/// Checks edge-for-edge equality (the CSR arrays make this a plain `==`), and
/// a couple of derived invariants for good measure.
fn assert_grid_matches_naive(links: &[Link], relation: ConflictRelation) {
    let grid = ConflictGraph::build(links, relation);
    let naive = ConflictGraph::build_naive(links, relation);
    assert_eq!(
        grid,
        naive,
        "grid and naive builds disagree under {relation} on {} links",
        links.len()
    );
    assert_eq!(grid.edge_count(), naive.edge_count());
    for v in 0..grid.len() {
        assert_eq!(grid.neighbors(v), naive.neighbors(v), "row {v} differs");
    }
}

#[test]
fn grid_equals_naive_on_a_slanted_collinear_chain() {
    // Unit links on the line y = s·x. Links 0 and 1 lie about 1.56 apart
    // along the line, beyond every relation's reach at this length, yet
    // rounding in the orientation signs alone would report them crossing;
    // the filler links continue the line past the grid cutoff.
    let slope = 0.489333937492449;
    let on_line = |x: f64| Point::new(x, slope * x);
    let mut links = vec![
        Link::new(
            0,
            Point::new(1.4963044777091572, 0.7321925617650044),
            Point::new(2.496304477709157, 1.2215264992574533),
        ),
        Link::new(
            1,
            Point::new(3.8999239371397327, 1.9083651360816396),
            Point::new(4.899923937139732, 2.3976990735740884),
        ),
    ];
    links.extend((0..80).map(|k| {
        let x = 10.0 + 2.5 * k as f64;
        Link::new(2 + k, on_line(x), on_line(x + 1.0))
    }));
    for which in 0..3 {
        assert_grid_matches_naive(&links, relation_for(which));
    }
    let graph = ConflictGraph::build(&links, ConflictRelation::unit_constant());
    assert!(!graph.are_adjacent(0, 1));
}

#[test]
fn grid_equals_naive_on_clustered_msts() {
    // The paper-scale instance of the static-path gate (seed 42) and two
    // more seeds, under the relations of uniform, oblivious and global power.
    for seed in [1, 2, 42] {
        let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, seed)
            .mst_links()
            .expect("clustered sensors are distinct");
        for relation in [
            ConflictRelation::constant(2.0),
            ConflictRelation::polynomial(2.0, 0.5),
            ConflictRelation::log_shaped(2.0, 3.0),
        ] {
            assert_grid_matches_naive(&links, relation);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Uniform random links in a square, lengths spanning two orders of
    /// magnitude. 80+ links so the grid path (not the small-n fallback) runs.
    #[test]
    fn grid_equals_naive_on_uniform_squares(
        raw in proptest::collection::vec((0.0f64..300.0, 0.0f64..300.0, 0.0f64..std::f64::consts::TAU, 0.1f64..20.0), 80..140),
        which in 0u8..3,
    ) {
        assert_grid_matches_naive(&uniform_square(&raw), relation_for(which));
    }

    /// Exponentially diverse lengths exercise many length classes at once.
    #[test]
    fn grid_equals_naive_on_diverse_chains(
        gaps in proptest::collection::vec(0.05f64..3.0, 70..110),
        which in 0u8..3,
    ) {
        assert_grid_matches_naive(&diverse_chain(&gaps), relation_for(which));
    }

    /// Degenerate (zero-length) links conflict with everything; they must
    /// survive the grid path unchanged.
    #[test]
    fn grid_equals_naive_with_degenerate_links(
        raw in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.2f64..5.0), 70..100),
        degenerate_at in proptest::collection::vec(0usize..70, 1..4),
        which in 0u8..3,
    ) {
        assert_grid_matches_naive(&with_degenerate(&raw, &degenerate_at), relation_for(which));
    }

    /// The three families above, scaled so their shortest links are about
    /// 1e-6 of the offset and translated by ±1e6…1e12 on each axis: the box
    /// test's margins must absorb rounding at every magnitude.
    #[test]
    fn grid_equals_naive_far_from_the_origin(
        uniform in proptest::collection::vec((0.0f64..300.0, 0.0f64..300.0, 0.0f64..std::f64::consts::TAU, 0.1f64..20.0), 80..120),
        gaps in proptest::collection::vec(0.05f64..3.0, 70..100),
        degenerate in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.2f64..5.0), 70..90),
        degenerate_at in proptest::collection::vec(0usize..70, 1..4),
        (family, exponent, signs) in (0u8..3, 6.0f64..=12.0, 0u8..4),
        which in 0u8..3,
    ) {
        let moved = families::far_from_origin(
            family, exponent, signs, &uniform, &gaps, &degenerate, &degenerate_at,
        );
        assert_grid_matches_naive(&moved, relation_for(which));
    }
}
