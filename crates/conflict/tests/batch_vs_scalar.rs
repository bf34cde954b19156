//! Differential tests: the batch predicate
//! [`ConflictRelation::conflicting_batch`] must give
//! [`ConflictRelation::conflicting`]'s verdict on every pair, on the
//! candidate pairs of the paper's clustered MSTs and on seeded random pairs
//! that mix in the geometric hazards of the exact predicate.

use wagg_conflict::{is_classed, Candidates, ConflictRelation, LengthClasses, Scope};
use wagg_geometry::rng::{seeded_rng, uniform_in};
use wagg_geometry::{BoundingBox, Point};
use wagg_sinr::Link;

/// Queues `candidates` (indices into `links`, repeats allowed) against
/// `links[query]` and checks the batch verdicts against the scalar ones,
/// in first-push order. Returns the number of conflicts.
fn assert_batch_matches_scalar(
    scratch: &mut Candidates,
    links: &[Link],
    query: usize,
    candidates: &[usize],
    relation: ConflictRelation,
) -> usize {
    scratch.start(links.len());
    let mut queued = Vec::new();
    for &j in candidates {
        if !queued.contains(&j) {
            queued.push(j);
        }
        scratch.push(j);
    }
    assert_eq!(scratch.len(), queued.len(), "each candidate is queued once");
    let link = &links[query];
    let mut batch = Vec::new();
    relation.conflicting_batch(link, scratch, |j| &links[j], |j| batch.push(j));
    let scalar: Vec<usize> = queued
        .into_iter()
        .filter(|&j| relation.conflicting(link, &links[j]))
        .collect();
    assert_eq!(
        batch, scalar,
        "{relation}: query {query} {link:?} against {candidates:?}"
    );
    batch.len()
}

#[test]
fn batch_equals_scalar_on_every_candidate_pair_of_clustered_msts() {
    let mut scratch = Candidates::default();
    for seed in [1, 2, 42] {
        let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, seed)
            .mst_links()
            .expect("clustered sensors are distinct");
        let bboxes: Vec<BoundingBox> = links
            .iter()
            .map(|l| BoundingBox::of_segment(l.sender, l.receiver))
            .collect();
        let classes = LengthClasses::laid_out(0..links.len(), |i| links[i].length(), &bboxes);
        for relation in [
            ConflictRelation::constant(2.0),
            ConflictRelation::polynomial(2.0, 0.5),
            ConflictRelation::log_shaped(2.0, 3.0),
        ] {
            let mut pairs = 0;
            for i in 0..links.len() {
                let len = links[i].length();
                let mut candidates = Vec::new();
                if is_classed(len) {
                    let scope = Scope::EveryClass;
                    classes.for_each_candidate(scope, len, &bboxes[i], &bboxes, relation, |j| {
                        candidates.push(j)
                    });
                } else {
                    candidates.extend(0..links.len());
                }
                pairs += candidates.len();
                assert_batch_matches_scalar(&mut scratch, &links, i, &candidates, relation);
            }
            assert!(pairs > 5_000, "seed {seed}, {relation}: {pairs} pairs");
        }
    }
}

/// A link from `a` to `b`, translated by `shift`.
fn link(id: usize, a: (f64, f64), b: (f64, f64), shift: (f64, f64)) -> Link {
    let at = |(x, y): (f64, f64)| Point::new(x + shift.0, y + shift.1);
    Link::new(id, at(a), at(b))
}

/// A query link and candidates around it that mix the exact predicate's
/// hazards: shared endpoints, crossing and collinear-touching segments,
/// zero-length links, lengths whose square overflows or is subnormal, and
/// shared ids.
fn hazards(seed: u64, shift: (f64, f64)) -> Vec<Link> {
    let mut rng = seeded_rng(seed);
    let mut u = |lo: f64, hi: f64| uniform_in(&mut rng, lo, hi);
    let scale = [1e-3, 1.0, 1e3][(u(0.0, 3.0)) as usize];
    let (ax, ay) = (u(-1.0, 1.0) * scale, u(-1.0, 1.0) * scale);
    let (bx, by) = (ax + u(-2.0, 2.0) * scale, ay + u(-2.0, 2.0) * scale);
    let (mx, my) = ((ax + bx) / 2.0, (ay + by) / 2.0);
    let (ex, ey) = (bx - ax, by - ay);
    let mut links = vec![link(0, (ax, ay), (bx, by), shift)];
    let mut id = 1;
    let mut add = |links: &mut Vec<Link>, a, b, shared: bool| {
        let own = if shared { 0 } else { id };
        id += 1;
        links.push(link(own, a, b, shift));
    };
    for _ in 0..6 {
        let far = (u(-3.0, 3.0) * scale, u(-3.0, 3.0) * scale);
        let t = u(0.0, 1.0);
        let on = (ax + t * ex, ay + t * ey);
        let s = u(0.0, 2.0);
        // Shared endpoints, both ways round.
        add(&mut links, (ax, ay), far, false);
        add(&mut links, far, (bx, by), false);
        // Crossing at the midpoint, and a T touching the segment.
        add(
            &mut links,
            (mx - ey * s, my + ex * s),
            (mx + ey * s, my - ex * s),
            false,
        );
        add(&mut links, on, (on.0 + ey * s, on.1 - ex * s), false);
        // Collinear: touching at an endpoint, overlapping, and apart.
        add(&mut links, (bx, by), (bx + ex * s, by + ey * s), false);
        add(&mut links, on, (bx + ex * s, by + ey * s), false);
        add(
            &mut links,
            (bx + ex * s, by + ey * s),
            (bx + ex * 2.0 * s, by + ey * 2.0 * s),
            false,
        );
        // Zero-length links on the segment and off it.
        add(&mut links, on, on, false);
        add(&mut links, far, far, false);
        // Tiny links: a subnormal squared length, one that underflows to 0.
        add(&mut links, on, (on.0 + 1e-160, on.1), false);
        add(&mut links, far, (far.0, far.1 + 1e-170), false);
        // A length that overflows to infinity, and one just below it.
        add(&mut links, (-1e154, far.1), (1e154, far.1), false);
        add(&mut links, (-6e153, 0.0), (6e153, on.1), false);
        // Shared ids: a copy of the query, a close link, a far one.
        add(&mut links, (ax, ay), (bx, by), true);
        add(&mut links, on, (on.0 + ey * 0.1, on.1), true);
        add(&mut links, far, (far.0 + ex, far.1 + ey), true);
        // Random links nearby.
        let near = (u(-2.0, 2.0) * scale, u(-2.0, 2.0) * scale);
        let span = (u(-2.0, 2.0) * scale, u(-2.0, 2.0) * scale);
        add(&mut links, near, (near.0 + span.0, near.1 + span.1), false);
    }
    links
}

#[test]
fn batch_equals_scalar_on_seeded_hazardous_pairs() {
    let relations = [
        ConflictRelation::unit_constant(),
        ConflictRelation::constant(2.0),
        ConflictRelation::constant(0.1),
        ConflictRelation::polynomial(2.0, 0.5),
        ConflictRelation::polynomial(0.1, 0.5),
        ConflictRelation::log_shaped(2.0, 3.0),
        ConflictRelation::log_shaped(0.1, 4.0),
    ];
    let mut scratch = Candidates::default();
    let (mut conflicts, mut pairs) = (0, 0);
    for seed in 0..80 {
        let shift = if seed % 4 == 3 {
            (1e12, -1e12)
        } else {
            (0.0, 0.0)
        };
        let links = hazards(seed, shift);
        // Every link queries every other, the query among them (its own id
        // never conflicts), and with every candidate pushed twice.
        let all: Vec<usize> = (0..links.len()).chain(0..links.len()).collect();
        for relation in relations {
            for query in 0..links.len() {
                conflicts +=
                    assert_batch_matches_scalar(&mut scratch, &links, query, &all, relation);
                pairs += links.len();
            }
        }
    }
    // Both verdicts occur often.
    assert!(conflicts > pairs / 10 && conflicts < pairs * 9 / 10);
}

#[test]
fn one_scratch_serves_queries_over_growing_and_shrinking_universes() {
    let relation = ConflictRelation::unit_constant();
    let links = hazards(7, (0.0, 0.0));
    let mut scratch = Candidates::default();
    for n in [3, links.len(), 5, links.len()] {
        for query in 0..n {
            let candidates: Vec<usize> = (0..n).rev().collect();
            assert_batch_matches_scalar(&mut scratch, &links[..n], query, &candidates, relation);
        }
    }
    // A skipped index is never queued.
    scratch.start(links.len());
    scratch.skip(2);
    for j in 0..links.len() {
        scratch.push(j);
    }
    assert_eq!(scratch.len(), links.len() - 1);
}
