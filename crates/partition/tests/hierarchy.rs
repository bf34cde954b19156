//! The hierarchical-verifier certification battery:
//!
//! * **Soundness of the aggregate** — on arbitrary seeded instances, the
//!   hierarchical per-target bound at *every* pyramid depth upper-bounds the
//!   exact affectance sum (`ci.sh` runs this suite serial and parallel, so
//!   both configurations are certified);
//! * **Differential scheduling** — full sharded scheduling with deeper
//!   pyramids vs the flat (depth-1) verifier produces schedules that are
//!   both partitions and slot-for-slot SINR-feasible, across shard counts
//!   and pyramid depths. Stronger still: because a bound-certified target is
//!   also exact-feasible and a failed bound falls back to the exact kernel,
//!   accept/evict decisions are *identical* at every depth — the reports are
//!   asserted equal.

use proptest::prelude::*;
use wagg_geometry::Point;
use wagg_partition::{solve_sharded, AffectanceVerifier, VerifierStrategy};
use wagg_schedule::{PowerMode, SchedulerConfig};
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

/// The flat grid: a one-level pyramid.
const FLAT: VerifierStrategy = VerifierStrategy::Hierarchical { depth: Some(1) };

/// The strategy matrix the differential battery sweeps against [`FLAT`]:
/// shallow, deeper and natural pyramid depths.
fn strategy_matrix() -> Vec<VerifierStrategy> {
    vec![
        VerifierStrategy::Hierarchical { depth: Some(2) },
        VerifierStrategy::Hierarchical { depth: Some(3) },
        VerifierStrategy::Hierarchical { depth: None },
    ]
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

    /// Deeper pyramids only ever coarsen the far field, so every depth's
    /// bound certifies whenever the slot is truly feasible-with-margin; and
    /// regardless of how tight each bound is, the *schedules* the verifier
    /// strategies produce are identical: partitions, slot-for-slot
    /// SINR-feasible, and equal across the whole matrix.
    #[test]
    fn sharded_schedules_agree_across_strategies_and_depths(
        raw in proptest::collection::vec(
            (0.0f64..180.0, 0.0f64..180.0, 0.0f64..std::f64::consts::TAU, 0.5f64..5.0),
            40..140,
        ),
    ) {
        let links = decode_links(&raw);
        let config = SchedulerConfig::new(PowerMode::mean_oblivious());
        let assignment = config.mode.assignment().expect("fixed mode");
        for shards in [1usize, 4, 9] {
            let flat = solve_sharded(&links, config, shards, FLAT);
            prop_assert!(flat.report.schedule.is_partition(links.len()));
            for slot in flat.report.schedule.slots() {
                let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
                prop_assert!(
                    is_feasible_by_affectance(&config.model, &slot_links, &assignment),
                    "flat/{} shards: slot {:?} fails affectance", shards, slot
                );
            }
            for strategy in strategy_matrix() {
                let sharded = solve_sharded(&links, config, shards, strategy);
                prop_assert_eq!(
                    &sharded, &flat,
                    "strategy {:?} diverged from flat at {} shards", strategy, shards
                );
            }
        }
    }
}

/// A deterministic worked instance, dense enough that the certified grid
/// path (slot > exact cutoff) carries the verification: the full strategy /
/// depth / shard matrix must produce the identical verified schedule.
#[test]
fn dense_grid_instance_schedules_identically_across_the_matrix() {
    let links: Vec<Link> = (0..700)
        .map(|i| {
            let x = (i % 28) as f64 * 2.3;
            let y = (i / 28) as f64 * 2.3;
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect();
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let assignment = config.mode.assignment().expect("fixed mode");
    for shards in [1usize, 4, 16] {
        let flat = solve_sharded(&links, config, shards, FLAT);
        assert!(flat.report.schedule.is_partition(links.len()));
        for slot in flat.report.schedule.slots() {
            let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
            assert!(is_feasible_by_affectance(
                &config.model,
                &slot_links,
                &assignment
            ));
        }
        for strategy in strategy_matrix() {
            let sharded = solve_sharded(&links, config, shards, strategy);
            assert_eq!(
                sharded, flat,
                "{strategy:?} diverged from flat at {shards} shards"
            );
        }
    }
}
