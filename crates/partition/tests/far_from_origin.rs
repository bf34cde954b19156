//! The sharded layout on the static build's far-from-origin family:
//! shortest links about `1e-6` of the offset, translated by ±1e6…1e12 on
//! each axis, zero-length links dropped (no tiling localises them). The
//! tiling's conflict radius and halo are computed at those magnitudes, so
//! rounding there is what could lose a cross-shard conflict. Against the
//! all-pairs `ConflictGraph::build_naive`:
//!
//! * every conflict edge whose endpoints have different owners is ghosted
//!   both ways: each endpoint lists the other endpoint's owner among its
//!   ghost shards;
//! * every `solve_sharded` slot is an independent set of the naive graph.
//!   Slot verification is off, so the slots are the stitched colouring
//!   itself; with it on, the verifier's first-fit re-packing groups links
//!   by affectance, not adjacency.

#[path = "../../conflict/tests/families/mod.rs"]
mod families;

use proptest::prelude::*;
use wagg_conflict::ConflictGraph;
use wagg_partition::{solve_sharded, PartitionLayout};
use wagg_schedule::{PowerMode, Recorder, SchedulerConfig};
use wagg_sinr::Link;

fn config_for(which: u8) -> SchedulerConfig {
    let mode = match which % 3 {
        0 => PowerMode::Uniform,
        1 => PowerMode::mean_oblivious(),
        _ => PowerMode::GlobalControl,
    };
    SchedulerConfig::new(mode).with_verification(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_layout_keeps_every_conflict_far_from_the_origin(
        uniform in proptest::collection::vec((0.0f64..300.0, 0.0f64..300.0, 0.0f64..std::f64::consts::TAU, 0.1f64..20.0), 80..120),
        gaps in proptest::collection::vec(0.05f64..3.0, 70..100),
        degenerate in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.2f64..5.0), 70..90),
        degenerate_at in proptest::collection::vec(0usize..70, 1..4),
        (family, exponent, signs) in (0u8..3, 6.0f64..=12.0, 0u8..4),
        which in 0u8..3,
    ) {
        let links: Vec<Link> = families::far_from_origin(
            family, exponent, signs, &uniform, &gaps, &degenerate, &degenerate_at,
        )
        .into_iter()
        .filter(|l| l.length() > 0.0)
        .enumerate()
        .map(|(i, l)| Link::new(i, l.sender, l.receiver))
        .collect();
        let config = config_for(which);
        let relation = config.mode.conflict_relation(config.model.alpha());
        let naive = ConflictGraph::build_naive(&links, relation);
        for shards in [4, 16] {
            let layout = PartitionLayout::build(&links, relation, shards);
            for i in 0..links.len() {
                for &j in naive.neighbors(i) {
                    let (owner_i, owner_j) = (layout.owner(i), layout.owner(j));
                    if owner_i != owner_j {
                        prop_assert!(
                            layout.ghost_shards(i).contains(&(owner_j as u32)),
                            "{shards} shards: link {i} is not ghosted into the owner of {j}"
                        );
                    }
                }
            }
            let report =
                solve_sharded(&links, config, shards, &Recorder::disabled());
            prop_assert!(report.report.schedule.is_partition(links.len()));
            for slot in report.report.schedule.slots() {
                prop_assert!(
                    naive.is_independent_set(slot),
                    "{shards} shards: slot {slot:?} holds a conflicting pair"
                );
            }
        }
    }
}
