//! Shard-invariance properties of the sharded scheduler:
//!
//! * the stitched schedule is a partition of the link set and every slot is
//!   SINR-feasible (`is_feasible_by_affectance` for fixed power assignments,
//!   `Schedule::verify` for every mode) — for **every** shard count;
//! * link ownership and halo (ghost) membership are deterministic: two
//!   builds over the same inputs agree exactly (the per-link computation is
//!   pure and assembled in input order, so serial and parallel feature
//!   builds agree as well — `ci.sh` runs this suite in both configurations);
//! * at one shard with verification off, the sharded path reproduces the
//!   unsharded `solve_static` coloring slot for slot.

use proptest::prelude::*;
use wagg_geometry::Point;
use wagg_partition::{solve_sharded, PartitionLayout};
use wagg_schedule::{solve_static, PowerMode, Recorder, SchedulerConfig};
use wagg_sinr::affectance::is_feasible_by_affectance;
use wagg_sinr::Link;

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

fn assert_sharded_invariants(links: &[Link], config: SchedulerConfig, shards: usize) {
    let sharded = solve_sharded(links, config, shards, &Recorder::disabled());
    let schedule = &sharded.report.schedule;
    assert!(
        schedule.is_partition(links.len()),
        "{} shards: schedule is not a partition",
        shards
    );
    assert!(
        schedule.verify(links, &config.model, config.mode),
        "{} shards: schedule failed mode verification",
        shards
    );
    if let Some(assignment) = config.mode.assignment() {
        if config.model.noise() == 0.0 {
            for slot in schedule.slots() {
                let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
                assert!(
                    is_feasible_by_affectance(&config.model, &slot_links, &assignment),
                    "{} shards: slot {slot:?} fails the affectance check",
                    shards
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Stitched schedules are partitions and SINR-feasible across shard
    /// counts, for the oblivious (fixed-assignment) mode.
    #[test]
    fn stitched_schedules_are_feasible_across_shard_counts(
        raw in proptest::collection::vec(
            (0.0f64..200.0, 0.0f64..200.0, 0.0f64..std::f64::consts::TAU, 0.5f64..6.0),
            40..160,
        ),
    ) {
        let links = decode_links(&raw);
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        for shards in [1usize, 2, 4, 9, 25] {
            assert_sharded_invariants(&links, config, shards);
        }
    }

    /// The same invariants under global power control (per-slot witness
    /// powers, no shared cache — the split path).
    #[test]
    fn global_control_schedules_verify_across_shard_counts(
        raw in proptest::collection::vec(
            (0.0f64..120.0, 0.0f64..120.0, 0.0f64..std::f64::consts::TAU, 0.5f64..4.0),
            30..80,
        ),
    ) {
        let links = decode_links(&raw);
        let config = SchedulerConfig::new(PowerMode::GlobalControl);
        for shards in [1usize, 4, 9] {
            assert_sharded_invariants(&links, config, shards);
        }
    }

    /// Ownership and ghost membership are a pure function of the inputs.
    #[test]
    fn ownership_and_halo_membership_are_deterministic(
        raw in proptest::collection::vec(
            (0.0f64..150.0, 0.0f64..150.0, 0.0f64..std::f64::consts::TAU, 0.5f64..5.0),
            20..100,
        ),
        shards in 1usize..20,
    ) {
        let links = decode_links(&raw);
        let relation = PowerMode::mean_oblivious().conflict_relation(3.0);
        let a = PartitionLayout::build(&links, relation, shards);
        let b = PartitionLayout::build(&links, relation, shards);
        prop_assert_eq!(&a, &b);
        // Scheduling twice gives the identical report.
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let r1 = solve_sharded(&links, config, shards, &Recorder::disabled());
        let r2 = solve_sharded(&links, config, shards, &Recorder::disabled());
        prop_assert_eq!(r1, r2);
    }

    /// One shard with verification off reproduces the unsharded coloring.
    #[test]
    fn single_shard_matches_the_unsharded_coloring(
        raw in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..std::f64::consts::TAU, 0.5f64..4.0),
            20..80,
        ),
    ) {
        let links = decode_links(&raw);
        for mode in [PowerMode::Uniform, PowerMode::mean_oblivious(), PowerMode::GlobalControl] {
            let config = SchedulerConfig::new(mode).with_verification(false);
            let sharded = solve_sharded(&links, config, 1, &Recorder::disabled());
            let direct = solve_static(&links, config, &Recorder::disabled());
            prop_assert_eq!(
                &sharded.report.schedule, &direct.schedule,
                "mode {} diverged at one shard", mode
            );
            prop_assert_eq!(sharded.report.coloring_slots, direct.coloring_slots);
        }
    }
}

/// Degenerate (zero-length) links cannot share any slot; the sharded path
/// splits them off and appends singletons.
#[test]
fn degenerate_links_get_singleton_slots() {
    let mut links = decode_links(&[
        (0.0, 0.0, 0.0, 1.0),
        (30.0, 0.0, 0.0, 1.0),
        (60.0, 0.0, 0.0, 1.0),
    ]);
    links.push(Link::new(3, Point::new(10.0, 10.0), Point::new(10.0, 10.0)));
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let sharded = solve_sharded(&links, config, 4, &Recorder::disabled());
    let schedule = &sharded.report.schedule;
    assert!(schedule.is_partition(links.len()));
    let degenerate_slot = schedule
        .slots()
        .iter()
        .find(|s| s.contains(&3))
        .expect("degenerate link is scheduled");
    assert_eq!(degenerate_slot, &vec![3]);
}

/// A worked boundary case: a dense strip crossing many tiles, where most
/// links are boundary links and the repair sweep must fire.
#[test]
fn dense_boundary_strips_still_schedule_feasibly() {
    let links: Vec<Link> = (0..240)
        .map(|i| {
            let x = i as f64 * 1.1;
            Link::new(i, Point::new(x, 0.0), Point::new(x + 1.0, 0.0))
        })
        .collect();
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    for shards in [4usize, 16, 64] {
        let sharded = solve_sharded(&links, config, shards, &Recorder::disabled());
        assert!(sharded.report.schedule.is_partition(links.len()));
        assert!(sharded
            .report
            .schedule
            .verify(&links, &config.model, config.mode));
        let stats = sharded.sharding.unwrap();
        if stats.shards > 1 {
            assert!(stats.boundary_links > 0, "{shards}: no boundary links?");
        }
    }
}
