//! Property tests: the grid-accelerated conflict-graph construction must be
//! **edge-identical** to the all-pairs reference build, for every relation in
//! the family and for adversarially shaped instances (uniform squares, tight
//! chains, mixed length scales, degenerate links, a collinear chain on a
//! slanted line, far-translated inputs, pairs of length classes of unequal
//! and equal populations) and for the paper's clustered MSTs.

mod families;

use families::{diverse_chain, uniform_square, with_degenerate};
use proptest::prelude::*;
use std::f64::consts::TAU;
use wagg_conflict::{class_key, ConflictGraph, ConflictRelation, LengthClasses, Scope};
use wagg_geometry::{BoundingBox, Point};
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

/// Links of lengths in `1.05·lo..1.9·lo` (one length class for a
/// power-of-two `lo`, with room for rounding), at the drawn positions in
/// `[0, 1)²` scaled by `side`, angles and length fractions, with ids from
/// `first_id`.
fn class_of(raw: &[(f64, f64, f64, f64)], lo: f64, side: f64, first_id: usize) -> Vec<Link> {
    raw.iter()
        .enumerate()
        .map(|(k, &(x, y, angle, frac))| {
            let len = lo * (1.05 + 0.85 * frac);
            let s = Point::new(x * side, y * side);
            let r = Point::new(s.x + len * angle.cos(), s.y + len * angle.sin());
            Link::new(first_id + k, s, r)
        })
        .collect()
}

/// `links` with zero-length links at the senders of the links at `at`,
/// inserted among them, and one link whose length overflows to infinity;
/// all under fresh ids.
fn with_unclassed(mut links: Vec<Link>, at: &[usize]) -> Vec<Link> {
    let n = links.len();
    for (k, &a) in at.iter().enumerate() {
        let p = links[a % n].sender;
        links.insert(a % links.len(), Link::new(n + k, p, p));
    }
    let y = links[0].sender.y;
    let overflowing = Link::new(n + at.len(), Point::new(-1e308, y), Point::new(1e308, y));
    assert!(overflowing.length().is_infinite());
    links.insert(n / 2, overflowing);
    links
}

/// `links` moved by `offset` on both axes.
fn moved(links: &[Link], offset: f64) -> Vec<Link> {
    let map = |p: Point| Point::new(p.x + offset, p.y + offset);
    links
        .iter()
        .map(|l| Link::new(l.id.0, map(l.sender), map(l.receiver)))
        .collect()
}

/// Asserts that no link outside class `decider` reads a member of another
/// class in its query for the pairs it decides: the pairs across the
/// classes of `links` are decided from class `decider`'s side.
fn assert_decided_from(links: &[Link], decider: i32, relation: ConflictRelation) {
    let bboxes: Vec<BoundingBox> = links
        .iter()
        .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
        .collect();
    let classes = LengthClasses::laid_out(0..links.len(), |i| links[i].length(), &bboxes);
    for (i, link) in links.iter().enumerate() {
        let own = class_key(link.length());
        if own == decider {
            continue;
        }
        let scope = Scope::DecidedBy(i);
        classes.for_each_candidate(scope, link.length(), &bboxes[i], &bboxes, relation, |j| {
            assert_eq!(
                class_key(links[j].length()),
                own,
                "link {i} (class {own}) read link {j} of class {decider}"
            );
        });
    }
}

/// The two-class instance `links` against the all-pairs build: as drawn,
/// with zero-length and overflowing links mixed in, and both again 1e12
/// from the origin; the cross-class pairs are decided from class `decider`.
fn assert_two_classes_match_naive(
    links: Vec<Link>,
    at: &[usize],
    decider: i32,
    relation: ConflictRelation,
) {
    assert_decided_from(&links, decider, relation);
    let mixed = with_unclassed(links.clone(), at);
    for links in [links, mixed] {
        assert_grid_matches_naive(&links, relation);
        assert_grid_matches_naive(&moved(&links, 1e12), relation);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `paper_cold`'s shape: a few long links (class 4) over a dense class
    /// of short ones (class 0). The long class has fewer members, so it
    /// decides their pairs.
    #[test]
    fn smaller_class_rule_sparse_long_over_dense_short(
        short in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0), 150..220),
        long in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0), 2..8),
        at in proptest::collection::vec(0usize..1000, 1..4),
        which in 0u8..3,
    ) {
        let mut links = class_of(&short, 1.0, 40.0, 0);
        links.extend(class_of(&long, 16.0, 40.0, links.len()));
        assert_two_classes_match_naive(links, &at, 4, relation_for(which));
    }

    /// A dense class of long links (class 3) over a few short ones
    /// (class −1): the short class has fewer members and decides.
    #[test]
    fn smaller_class_rule_dense_long_over_sparse_short(
        long in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0), 150..220),
        short in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0), 2..8),
        at in proptest::collection::vec(0usize..1000, 1..4),
        which in 0u8..3,
    ) {
        let mut links = class_of(&long, 8.0, 60.0, 0);
        links.extend(class_of(&short, 0.5, 60.0, links.len()));
        assert_two_classes_match_naive(links, &at, -1, relation_for(which));
    }

    /// Two classes (0 and 2) with equal member counts, interleaved in input
    /// order: the tie goes to the shorter class, which decides.
    #[test]
    fn smaller_class_rule_ties_go_to_the_shorter_class(
        pairs in proptest::collection::vec(
            ((0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0, 0.0f64..TAU, 0.0f64..1.0)),
            40..70,
        ),
        at in proptest::collection::vec(0usize..1000, 1..4),
        which in 0u8..3,
    ) {
        let links: Vec<Link> = pairs
            .iter()
            .enumerate()
            .flat_map(|(k, (short, long))| {
                let short = class_of(&[*short], 1.0, 30.0, 2 * k);
                let long = class_of(&[*long], 4.0, 30.0, 2 * k + 1);
                short.into_iter().chain(long)
            })
            .collect();
        assert_two_classes_match_naive(links, &at, 0, relation_for(which));
    }
}
