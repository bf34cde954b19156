//! The hierarchical-verifier certification battery:
//!
//! * **Soundness of the aggregate** — on arbitrary seeded instances, the
//!   hierarchical per-target bound at *every* pyramid depth upper-bounds the
//!   exact affectance sum (`ci.sh` runs this suite serial and parallel, so
//!   both configurations are certified);
//! * **Verified scheduling** — full sharded scheduling produces schedules
//!   that are partitions and slot-for-slot SINR-feasible across shard
//!   counts, and observing a run with a recorder changes none of it.
//!
//! The verifier takes its pyramid depth from the slot size, so no schedule
//! here can pick a depth. `verify.rs`'s unit tests drive the per-target pass
//! at depths 1, 2, 3 and natural on the same slots (this suite's dense grid
//! classes among them) and hold every verdict to the exact one; because the
//! repack builds no pyramid, equal verdicts at every depth mean equal
//! schedules.

use proptest::prelude::*;
use wagg_geometry::Point;
use wagg_partition::{solve_sharded, AffectanceVerifier};
use wagg_schedule::{PowerMode, Recorder, SchedulerConfig};
use wagg_sinr::affectance::is_feasible_by_affectance;
use wagg_sinr::{Link, PathLossCache, SinrModel};

/// Decodes proptest scalars into a link set with mixed lengths.
fn decode_links(raw: &[(f64, f64, f64, f64)]) -> Vec<Link> {
    raw.iter()
        .enumerate()
        .map(|(i, &(x, y, angle, len))| {
            Link::new(
                i,
                Point::new(x, y),
                Point::new(x + len * angle.cos(), y + len * angle.sin()),
            )
        })
        .collect()
}

/// Schedules `links` at `shards` shards, asserts the report is a partition
/// whose every slot passes the exact affectance check, and that the same
/// run under an enabled recorder (which counts the verifier's work) returns
/// the identical report.
fn assert_verified(links: &[Link], config: SchedulerConfig, shards: usize) {
    let assignment = config.mode.assignment().expect("fixed mode");
    let report = solve_sharded(links, config, shards, &Recorder::disabled());
    assert!(report.report.schedule.is_partition(links.len()));
    for slot in report.report.schedule.slots() {
        let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
        assert!(
            is_feasible_by_affectance(&config.model, &slot_links, &assignment),
            "{shards} shards: slot {slot:?} fails affectance"
        );
    }
    let rec = Recorder::new();
    assert_eq!(
        solve_sharded(links, config, shards, &rec),
        report,
        "{shards} shards: the recorder changed the schedule"
    );
    assert!(rec.metrics().phase("partition/verify").is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At every pyramid depth the certified bound upper-bounds the exact
    /// affectance sum on every target of an arbitrary instance.
    #[test]
    fn hierarchical_bound_is_sound_at_every_depth(
        raw in proptest::collection::vec(
            (0.0f64..160.0, 0.0f64..160.0, 0.0f64..std::f64::consts::TAU, 0.5f64..5.0),
            30..120,
        ),
    ) {
        let links = decode_links(&raw);
        let model = SinrModel::default();
        let assignment = PowerMode::mean_oblivious().assignment().expect("fixed mode");
        let cache = PathLossCache::new(&model, &links, &assignment);
        let (powers, weights) = cache.into_parts();
        let verifier = AffectanceVerifier::new(&model, &links, &powers, &weights);
        let members: Vec<usize> = (0..links.len()).collect();
        for depth in 1..=7usize {
            for k in 0..members.len() {
                let Some(bound) = verifier.hierarchical_bound(&members, k, depth) else {
                    // The grid path declined (collocated geometry / unknown
                    // quantities); the verifier resolves these exactly.
                    continue;
                };
                let exact = verifier
                    .exact_affectance(&members, k)
                    .expect("bound exists, so powers and weight are known");
                prop_assert!(
                    bound >= exact - 1e-12 * exact.abs() - 1e-300,
                    "depth {} target {}: bound {} < exact {}",
                    depth, k, bound, exact
                );
            }
        }
    }

    /// Sharded schedules of arbitrary instances are verified partitions at
    /// every shard count.
    #[test]
    fn sharded_schedules_are_verified_partitions(
        raw in proptest::collection::vec(
            (0.0f64..180.0, 0.0f64..180.0, 0.0f64..std::f64::consts::TAU, 0.5f64..5.0),
            40..140,
        ),
    ) {
        let links = decode_links(&raw);
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        for shards in [1usize, 4, 9] {
            assert_verified(&links, config, shards);
        }
    }
}

/// A deterministic worked instance, dense enough that the certified grid
/// path (slot > exact cutoff) carries the verification: the schedule is a
/// verified partition at every shard count.
#[test]
fn dense_grid_instance_schedules_verified_partitions() {
    let links: Vec<Link> = (0..700)
        .map(|i| {
            let x = (i % 28) as f64 * 2.3;
            let y = (i / 28) as f64 * 2.3;
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    for shards in [1usize, 4, 16] {
        assert_verified(&links, config, shards);
    }
}
