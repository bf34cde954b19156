//! The sharded-scheduling perf suite: build + schedule wall-clock of the
//! session facade's sharded backend against its static backend (the
//! unsharded kernel), and of the **hierarchical** far-field verifier (the
//! default) against the flat PR-3 grid. Every row schedules through
//! `wagg_session::Session`, exactly like production callers.
//!
//! Run with
//!
//! ```text
//! CRITERION_BENCH_JSON=$PWD/BENCH_partition.json cargo bench -p wagg-bench --bench partition
//! ```
//!
//! from the repository root to refresh `BENCH_partition.json`; set
//! `WAGG_PARTITION_BENCH_SIZES=50000,200000` to re-measure a subset of the
//! sizes. The workload is the kernel/engine suites' constant-density uniform
//! unit-link square at n ∈ {50 000, 200 000, 1 000 000}, scheduled under the
//! oblivious mean power mode with slot verification on (the production
//! configuration). Shard counts {1, 4, 16, 64} are measured at every size
//! with the hierarchical verifier (`shardsN`); `flat_shards16` pins the flat
//! verifier at 16 shards for the flat-vs-hierarchical comparison.
//!
//! The **unsharded baseline is measured at 50k and 200k only**: its slot
//! verification is a quadratic `subset_feasible` scan per color class
//! (`O(n²/colors)` pairs), which at n = 1M means ~10¹¹ pair evaluations per
//! run — hours, not minutes, which is precisely the ceiling this crate
//! removes. The sharded path replaces that scan with the certified
//! tile-bound verifier, so even `shards = 1` completes at n = 1M.
//!
//! Correctness gates run once per size outside the timed loops: the
//! hierarchical schedule is a partition at every size, slot-by-slot
//! affectance-feasible at 50k, and identical to the flat verifier's
//! schedule at 50k and 200k (the differential battery's property, asserted
//! here at bench scale; at 1M the extra flat run would double the bench).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wagg_bench::uniform_unit_links;
use wagg_partition::VerifierStrategy;
use wagg_schedule::{PowerMode, SchedulerConfig};
use wagg_session::{Backend, Session};
use wagg_sinr::affectance::is_feasible_by_affectance;
use wagg_sinr::Link;

/// `(n, measure the unsharded baseline?)`.
const CASES: [(usize, bool); 3] = [(50_000, true), (200_000, true), (1_000_000, false)];
const SHARDS: [usize; 4] = [1, 4, 16, 64];

/// Optional size filter from `WAGG_PARTITION_BENCH_SIZES` (comma-separated).
fn size_filter() -> Option<Vec<usize>> {
    std::env::var("WAGG_PARTITION_BENCH_SIZES")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
}

/// A seeded session over `links` with the sharded backend at the given
/// strategy/shard count.
fn sharded_session(
    links: &[Link],
    config: SchedulerConfig,
    shards: usize,
    strategy: VerifierStrategy,
) -> Session {
    Session::builder()
        .scheduler(config)
        .backend(Backend::Sharded)
        .target_shards(shards)
        .verifier(strategy)
        .links(links)
        .build()
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_build_schedule");
    group.sample_size(10);
    let config = SchedulerConfig::new(PowerMode::mean_oblivious());
    let filter = size_filter();
    for &(n, baseline) in &CASES {
        if let Some(sizes) = &filter {
            if !sizes.contains(&n) {
                continue;
            }
        }
        let links = uniform_unit_links(n, n as u64);

        // One-time correctness gates per size, outside the timing loops.
        let gate = sharded_session(&links, config, 16, VerifierStrategy::default()).solve();
        eprintln!("{}", gate.summary());
        assert!(gate.schedule().is_partition(n));
        if n <= 50_000 {
            let assignment = config.mode.assignment().expect("oblivious mode is fixed");
            for slot in gate.schedule().slots() {
                let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
                assert!(is_feasible_by_affectance(
                    &config.model,
                    &slot_links,
                    &assignment
                ));
            }
        }
        if n <= 200_000 {
            let flat = sharded_session(
                &links,
                config,
                16,
                VerifierStrategy::Hierarchical { depth: Some(1) },
            )
            .solve();
            assert_eq!(
                flat.report, gate.report,
                "flat and hierarchical verifiers must schedule identically"
            );
        }

        if baseline {
            let mut session = Session::builder()
                .scheduler(config)
                .backend(Backend::Static)
                .links(&links)
                .build();
            group.bench_function(BenchmarkId::new("unsharded", n), |b| {
                b.iter(|| black_box(session.solve().slots()))
            });
        }
        let mut session = sharded_session(
            &links,
            config,
            16,
            VerifierStrategy::Hierarchical { depth: Some(1) },
        );
        group.bench_function(BenchmarkId::new("flat_shards16", n), |b| {
            b.iter(|| black_box(session.solve().slots()))
        });
        for &shards in &SHARDS {
            let mut session = sharded_session(&links, config, shards, VerifierStrategy::default());
            group.bench_function(BenchmarkId::new(format!("shards{shards}"), n), |b| {
                b.iter(|| black_box(session.solve().slots()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
