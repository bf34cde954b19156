//! The interference-kernel perf suite: naive versus grid/CSR/cached paths.
//!
//! Run with
//!
//! ```text
//! CRITERION_BENCH_JSON=$PWD/BENCH_kernel.json cargo bench -p wagg-bench --bench kernel
//! ```
//!
//! from the repository root to refresh `BENCH_kernel.json`, the perf
//! trajectory file tracked since the kernel PR. Two instance families are
//! measured:
//!
//! * **uniform-square** — unit-length links at constant density (the
//!   acceptance instance for the grid build: `conflict_build_uniform/naive/*`
//!   versus `conflict_build_uniform/grid/*`),
//! * **chain** — a line of unit links with constant gaps (the paper's
//!   worst-case shape),
//! * **clustered** — the MST of `clustered(50, 20, 4000.0, 10.0, 42)` (the
//!   static-path gate's 1 000-sensor instance) under the conflict relations
//!   of uniform, oblivious and global power; unlike the two unit-length
//!   families it spans many length classes (`conflict_build_clustered/grid/*`).
//!
//! The `affectance` group compares the seed-style per-pair `powf` feasibility
//! loop against the cached-path-loss kernel behind
//! `is_feasible_by_affectance`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wagg_conflict::{ConflictGraph, ConflictRelation};
use wagg_geometry::rng::{seeded_rng, uniform_in};
use wagg_geometry::Point;
use wagg_sinr::affectance::is_feasible_by_affectance;
use wagg_sinr::{Link, PowerAssignment, SinrModel};

/// Unit-length links uniformly placed (position and orientation) in a square
/// whose side scales with `sqrt(n)`, i.e. constant link density.
fn uniform_square_unit_links(n: usize, seed: u64) -> Vec<Link> {
    let side = (n as f64).sqrt() * 4.0;
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|i| {
            let x = uniform_in(&mut rng, 0.0, side);
            let y = uniform_in(&mut rng, 0.0, side);
            let angle = uniform_in(&mut rng, 0.0, std::f64::consts::TAU);
            Link::new(
                i,
                Point::new(x, y),
                Point::new(x + angle.cos(), y + angle.sin()),
            )
        })
        .collect()
}

/// A chain of unit links separated by gaps of one half (a path conflict graph
/// under `G_1`).
fn chain_links(n: usize) -> Vec<Link> {
    (0..n)
        .map(|i| {
            let start = i as f64 * 1.5;
            Link::new(i, Point::on_line(start), Point::on_line(start + 1.0))
        })
        .collect()
}

/// The seed's O(n²)·powf feasibility loop, kept inline as the baseline the
/// cached kernel is measured against.
fn seed_style_feasibility(model: &SinrModel, set: &[Link], power: &PowerAssignment) -> bool {
    let alpha = model.alpha();
    set.iter().all(|target| {
        let mut total = 0.0;
        for source in set {
            if source.id == target.id {
                continue;
            }
            let p_source = power.power(source, alpha).unwrap();
            let p_target = power.power(target, alpha).unwrap();
            let d = source.sender_to_receiver_distance(target);
            if d <= 0.0 {
                return false;
            }
            total += p_source * target.length().powf(alpha) / (p_target * d.powf(alpha));
        }
        total <= 1.0 / model.beta()
    })
}

fn bench_conflict_build_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_build_uniform");
    group.sample_size(10);
    let relation = ConflictRelation::unit_constant();
    for &n in &[100usize, 1_000, 10_000, 50_000] {
        let links = uniform_square_unit_links(n, n as u64);
        group.bench_with_input(BenchmarkId::new("naive", n), &links, |b, links| {
            b.iter(|| ConflictGraph::build_naive(links, relation).edge_count())
        });
    }
    for &n in &[100usize, 1_000, 10_000, 50_000, 100_000] {
        let links = uniform_square_unit_links(n, n as u64);
        group.bench_with_input(BenchmarkId::new("grid", n), &links, |b, links| {
            b.iter(|| ConflictGraph::build(links, relation).edge_count())
        });
    }
    group.finish();
}

fn bench_conflict_build_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_build_chain");
    group.sample_size(10);
    let relation = ConflictRelation::unit_constant();
    for &n in &[100usize, 1_000, 10_000] {
        let links = chain_links(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &links, |b, links| {
            b.iter(|| ConflictGraph::build_naive(links, relation).edge_count())
        });
    }
    for &n in &[100usize, 1_000, 10_000, 100_000] {
        let links = chain_links(n);
        group.bench_with_input(BenchmarkId::new("grid", n), &links, |b, links| {
            b.iter(|| ConflictGraph::build(links, relation).edge_count())
        });
    }
    group.finish();
}

fn bench_conflict_build_clustered(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_build_clustered");
    group.sample_size(10);
    let links = wagg_instances::random::clustered(50, 20, 4000.0, 10.0, 42)
        .mst_links()
        .expect("clustered sensors are distinct");
    for (power, relation) in [
        ("uniform", ConflictRelation::constant(2.0)),
        ("oblivious", ConflictRelation::polynomial(2.0, 0.5)),
        ("global", ConflictRelation::log_shaped(2.0, 3.0)),
    ] {
        group.bench_with_input(BenchmarkId::new("grid", power), &links, |b, links| {
            b.iter(|| ConflictGraph::build(links, relation).edge_count())
        });
    }
    group.finish();
}

/// A square lattice of horizontal unit links with spacing 4: deterministic and
/// SINR-feasible under mean power, so feasibility checks cannot short-circuit
/// and both implementations do the full O(n²) scan.
fn lattice_links(n: usize) -> Vec<Link> {
    let k = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let (row, col) = (i / k, i % k);
            let (x, y) = (4.0 * col as f64, 4.0 * row as f64);
            Link::new(i, Point::new(x, y), Point::new(x + 1.0, y))
        })
        .collect()
}

/// Seed-style (powf-per-pair) affectance sum on a single target.
fn seed_style_interference_on(
    model: &SinrModel,
    set: &[Link],
    target: &Link,
    power: &PowerAssignment,
) -> f64 {
    let alpha = model.alpha();
    let mut total = 0.0;
    for source in set {
        if source.id == target.id {
            continue;
        }
        let p_source = power.power(source, alpha).unwrap();
        let p_target = power.power(target, alpha).unwrap();
        let d = source.sender_to_receiver_distance(target);
        total += p_source * target.length().powf(alpha) / (p_target * d.powf(alpha));
    }
    total
}

fn bench_affectance(c: &mut Criterion) {
    let model = SinrModel::default();
    let power = PowerAssignment::mean();

    // Fixed-work comparison: affectance sums for 32 targets (no feasibility
    // verdict involved, so neither side can short-circuit).
    {
        let mut group = c.benchmark_group("affectance_sums");
        group.sample_size(10);
        for &n in &[100usize, 1_000, 10_000] {
            let links = uniform_square_unit_links(n, 7 + n as u64);
            let targets = links.len().min(32);
            group.bench_with_input(BenchmarkId::new("seed_powf", n), &links, |b, links| {
                b.iter(|| {
                    (0..targets)
                        .map(|i| seed_style_interference_on(&model, links, &links[i], &power))
                        .sum::<f64>()
                })
            });
            group.bench_with_input(BenchmarkId::new("cached", n), &links, |b, links| {
                b.iter(|| {
                    let cache = wagg_sinr::PathLossCache::new(&model, links, &power);
                    (0..targets)
                        .map(|i| cache.relative_interference_on(i).unwrap())
                        .sum::<f64>()
                })
            });
        }
        group.finish();
    }

    // Whole-set feasibility on a feasible lattice: full O(n²) work for both
    // the seed loop and the cached (parallel) kernel.
    {
        let mut group = c.benchmark_group("affectance_feasibility");
        group.sample_size(10);
        for &n in &[100usize, 1_000, 10_000] {
            let links = lattice_links(n);
            assert!(
                is_feasible_by_affectance(&model, &links, &power),
                "lattice/{n} must be feasible for the bench to measure full scans"
            );
            group.bench_with_input(BenchmarkId::new("seed_powf", n), &links, |b, links| {
                b.iter(|| seed_style_feasibility(&model, links, &power))
            });
            group.bench_with_input(BenchmarkId::new("cached", n), &links, |b, links| {
                b.iter(|| is_feasible_by_affectance(&model, links, &power))
            });
        }
        group.finish();
    }
}

fn bench_csr_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_queries");
    group.sample_size(10);
    let relation = ConflictRelation::unit_constant();
    let links = uniform_square_unit_links(20_000, 3);
    let graph = ConflictGraph::build(&links, relation);
    group.bench_function("inductive_independence/20000", |b| {
        b.iter(|| graph.inductive_independence())
    });
    let every_tenth: Vec<usize> = (0..graph.len()).step_by(10).collect();
    group.bench_function("is_independent_set/20000", |b| {
        b.iter(|| graph.is_independent_set(&every_tenth))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_conflict_build_uniform,
    bench_conflict_build_chain,
    bench_conflict_build_clustered,
    bench_affectance,
    bench_csr_queries
);
criterion_main!(benches);
