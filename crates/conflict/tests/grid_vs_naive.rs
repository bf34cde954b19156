//! Property tests: the grid-accelerated conflict-graph construction must be
//! **edge-identical** to the all-pairs reference build, for every relation in
//! the family and for adversarially shaped instances (uniform squares, tight
//! chains, mixed length scales, degenerate links, a collinear chain on a
//! slanted line, far-translated inputs) and for the paper's clustered MSTs.

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

/// Links at uniform positions and angles, of the drawn lengths.
fn uniform_square(raw: &[(f64, f64, f64, f64)]) -> Vec<Link> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y, angle, len))| {
            let s = Point::new(x, y);
            let r = Point::new(x + len * angle.cos(), y + len * angle.sin());
            Link::new(i, s, r)
        })
        .collect()
}

/// Links along a line, lengths cycling through 1, 4, 16, 64 (four length
/// classes), separated by the drawn gaps.
fn diverse_chain(gaps: &[f64]) -> Vec<Link> {
    let mut x = 0.0;
    gaps.iter()
        .enumerate()
        .map(|(i, &gap)| {
            let len = 4.0f64.powi((i % 4) as i32);
            let link = Link::new(i, Point::on_line(x), Point::on_line(x + len));
            x += len + gap;
            link
        })
        .collect()
}

/// Horizontal links of the drawn lengths, with the links at `degenerate_at`
/// collapsed onto their senders under fresh ids.
fn with_degenerate(raw: &[(f64, f64, f64)], degenerate_at: &[usize]) -> Vec<Link> {
    let mut links: Vec<Link> = raw
        .iter()
        .enumerate()
        .map(|(i, &(x, y, len))| Link::new(i, Point::new(x, y), Point::new(x + len, y)))
        .collect();
    for &d in degenerate_at {
        let p = links[d].sender;
        links[d] = Link::new(1000 + d, p, p);
    }
    links
}

/// `links` scaled by `scale` about the origin, then moved by `(dx, dy)`.
fn translated(links: &[Link], scale: f64, dx: f64, dy: f64) -> Vec<Link> {
    let map = |p: Point| Point::new(p.x * scale + dx, p.y * scale + dy);
    links
        .iter()
        .map(|l| Link::new(l.id.0, map(l.sender), map(l.receiver)))
        .collect()
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
        let offset = 10f64.powf(exponent);
        let (links, shortest) = match family {
            0 => (uniform_square(&uniform), 0.1),
            1 => (diverse_chain(&gaps), 1.0),
            _ => (with_degenerate(&degenerate, &degenerate_at), 0.2),
        };
        let dx = if signs & 1 == 0 { offset } else { -offset };
        let dy = if signs & 2 == 0 { offset } else { -offset };
        let moved = translated(&links, 1e-6 * offset / shortest, dx, dy);
        assert_grid_matches_naive(&moved, relation_for(which));
    }
}
