//! `PartitionedEngine` churn coverage: arbitrary churn-then-`schedule()`
//! traces routed through the certified verifier stay
//! `is_feasible_by_affectance`-clean, including traces that force ghost
//! re-ownership at tile boundaries. The per-slot totals `schedule()` hands
//! on beside the report are, wherever present, the slot's
//! `AffectanceVerifier::budgets` bit for bit.

use proptest::prelude::*;
use wagg_geometry::{BoundingBox, Point};
use wagg_partition::{AffectanceVerifier, PartitionedEngine, PartitionedEngineConfig};
use wagg_schedule::{PowerMode, SchedulerConfig};
use wagg_sinr::affectance::is_feasible_by_affectance;
use wagg_sinr::{Link, PathLossCache};

const SIDE: f64 = 120.0;
const LEN_BOUNDS: (f64, f64) = (1.0, 1.5);

fn engine(shards: usize) -> PartitionedEngine {
    PartitionedEngine::new(PartitionedEngineConfig::new(
        SchedulerConfig::new(PowerMode::mean_oblivious()),
        BoundingBox::new(0.0, 0.0, SIDE, SIDE),
        LEN_BOUNDS,
        shards,
    ))
}

/// Clamps a proptest-generated geometry into the declared length bounds and
/// the deployment extent.
fn geometry(x: f64, y: f64, angle: f64, len: f64) -> (Point, Point) {
    let len = LEN_BOUNDS.0 + (LEN_BOUNDS.1 - LEN_BOUNDS.0) * len.fract().abs();
    let sender = Point::new(x, y);
    let receiver = Point::new(x + len * angle.cos(), y + len * angle.sin());
    (sender, receiver)
}

/// Asserts the engine's stitched schedule is a partition whose every slot
/// passes the exact affectance check, and that every handed-on slot total is
/// the slot's budget, bit for bit.
fn assert_schedule_clean(e: &PartitionedEngine, context: &str) {
    let links: Vec<Link> = e.links();
    let (sharded, totals) = e.schedule();
    assert!(
        sharded.report.schedule.is_partition(links.len()),
        "{context}: schedule is not a partition"
    );
    let config = e.config().scheduler;
    let assignment = config.mode.assignment().expect("fixed mode");
    let (powers, weights) = PathLossCache::new(&config.model, &links, &assignment).into_parts();
    let verifier = AffectanceVerifier::new(&config.model, &links, &powers, &weights);
    let slots = sharded.report.schedule.slots();
    assert_eq!(totals.len(), slots.len(), "{context}: one entry per slot");
    for (slot, totals) in slots.iter().zip(&totals) {
        let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
        assert!(
            is_feasible_by_affectance(&config.model, &slot_links, &assignment),
            "{context}: slot {slot:?} fails the affectance check"
        );
        if let Some(totals) = totals {
            let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(totals),
                bits(&verifier.budgets(slot)),
                "{context}: handed-on totals of slot {slot:?} are not its budgets"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary interleavings of inserts, removals and relocations — with
    /// periodic reschedules — keep every emitted slot affectance-clean.
    #[test]
    fn churn_traces_stay_affectance_clean(
        ops in proptest::collection::vec(
            (0u8..4, 0.2f64..110.0, 0.2f64..110.0, 0.0f64..std::f64::consts::TAU, 0.0f64..1.0),
            30..90,
        ),
        shards in prop_oneof![Just(4usize), Just(9usize), Just(16usize)],
    ) {
        let mut e = engine(shards);
        let mut keys: Vec<u64> = Vec::new();
        for (step, &(op, x, y, angle, len)) in ops.iter().enumerate() {
            let (sender, receiver) = geometry(x, y, angle, len);
            match op {
                // Removal (when possible), cycling through live keys.
                0 if !keys.is_empty() => {
                    let key = keys.remove(step % keys.len());
                    e.remove_link(key).expect("live key");
                }
                // Relocation: re-derives ownership and ghost sites.
                1 if !keys.is_empty() => {
                    let key = keys[step % keys.len()];
                    e.relocate_link(key, sender, receiver).expect("live key");
                }
                // Insert (also the fallback when no key is live).
                _ => keys.push(e.insert_link(sender, receiver)),
            }
            if step % 17 == 16 {
                assert_schedule_clean(&e, &format!("mid-trace step {step}"));
            }
        }
        assert_schedule_clean(&e, "end of trace");
    }
}

/// Finds an x coordinate whose unit link straddles a tile boundary (the
/// insert would be ghosted into a neighbouring shard), probed through the
/// engine's own placement rule.
fn boundary_x(e: &PartitionedEngine, y: f64) -> f64 {
    let mut x = 2.0;
    while x < SIDE - 2.0 {
        if e.shards_touched(Point::new(x, y), Point::new(x + 1.0, y)) > 1 {
            return x;
        }
        x += 0.25;
    }
    panic!("no tile boundary found along y={y}");
}

/// Finds an x coordinate whose unit link is interior (owner shard only).
fn interior_x(e: &PartitionedEngine, y: f64) -> f64 {
    let mut x = 2.0;
    while x < SIDE - 2.0 {
        if e.shards_touched(Point::new(x, y), Point::new(x + 1.0, y)) == 1 {
            return x;
        }
        x += 0.25;
    }
    panic!("no interior position found along y={y}");
}

/// A trace that repeatedly drags links across a tile boundary — each
/// relocation re-derives the owner and re-creates ghost copies — and
/// reschedules after every hop. Every intermediate schedule must stay
/// affectance-clean, and ghost bookkeeping must drain to zero when the
/// boundary links leave.
#[test]
fn ghost_reownership_at_tile_boundaries_stays_clean() {
    let mut e = engine(16);
    assert!(e.shard_count() >= 4, "need a real decomposition");

    // A backdrop of links in several tiles (some straddle halos — that's
    // fine; their ghost copies are a constant baseline below).
    let mut backdrop = Vec::new();
    for i in 0..24u64 {
        let x = 4.0 + (i % 6) as f64 * 18.0;
        let y = 4.0 + (i / 6) as f64 * 24.0;
        backdrop.push(e.insert_link(Point::new(x, y), Point::new(x + 1.0, y)));
    }
    let base_ghosts = e.ghost_copies();

    // Movers that hop between an interior and a boundary-straddling
    // geometry: every hop flips ghost membership, and hops across the
    // border flip ownership between the adjacent shards.
    let rows = [10.0, 40.0, 70.0];
    let mut movers = Vec::new();
    for &y in &rows {
        let bx = boundary_x(&e, y);
        let ix = interior_x(&e, y);
        let key = e.insert_link(Point::new(ix, y), Point::new(ix + 1.0, y));
        movers.push((key, ix, bx, y));
    }
    assert_eq!(e.ghost_copies(), base_ghosts, "movers start interior");

    for round in 0..4 {
        for &(key, _ix, bx, y) in &movers {
            // Onto the boundary: ghosted into the neighbour shard(s).
            e.relocate_link(key, Point::new(bx, y), Point::new(bx + 1.0, y))
                .expect("live mover");
        }
        assert!(
            e.ghost_copies() >= base_ghosts + movers.len(),
            "round {round}: boundary movers must be ghosted"
        );
        assert_schedule_clean(&e, &format!("round {round}, movers on the boundary"));
        for &(key, ix, bx, y) in &movers {
            // Across to the far side of the border: ownership flips.
            e.relocate_link(key, Point::new(bx + 1.2, y), Point::new(bx + 2.2, y))
                .expect("live mover");
            // And back to the interior: ghosts are dropped again.
            e.relocate_link(key, Point::new(ix, y), Point::new(ix + 1.0, y))
                .expect("live mover");
        }
        assert_eq!(
            e.ghost_copies(),
            base_ghosts,
            "round {round}: interior movers must shed every ghost copy"
        );
        assert_schedule_clean(&e, &format!("round {round}, movers back inside"));
    }

    // Tear the backdrop down; the movers alone still schedule cleanly.
    for key in backdrop {
        e.remove_link(key).unwrap();
    }
    assert_schedule_clean(&e, "backdrop removed");
    assert_eq!(e.len(), movers.len());
}
