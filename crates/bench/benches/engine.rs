//! The incremental-engine perf suite: per-event maintenance cost of the
//! `wagg-engine` incremental structures versus a from-scratch rebuild.
//!
//! Run with
//!
//! ```text
//! CRITERION_BENCH_JSON=$PWD/BENCH_engine.json cargo bench -p wagg-bench --bench engine
//! ```
//!
//! from the repository root to refresh `BENCH_engine.json` (add
//! `--no-default-features` for the serial build; each row's id ends in the
//! build it ran on). Two dynamic workloads are measured at
//! n ∈ {1 000, 10 000, 50 000} live links:
//!
//! * **churn** — one link departs and one arrives per event (the
//!   `wagg-dynamic` repair workload),
//! * **mobility** — one transmitter/receiver pair steps by up to one link
//!   length per event: two node moves, each re-seating the pair's link.
//!
//! For each workload, `incremental/*` applies the event to an
//! [`InterferenceEngine`] (grids patched, adjacency overlaid, path-loss state
//! updated in place), while `full_rebuild/*` applies the same mutation to a
//! plain link vector and then rebuilds what every event used to rebuild:
//! `ConflictGraph::build` plus `PathLossCache::new` over all live links.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::RefCell;
use wagg_bench::uniform_unit_links;
use wagg_conflict::{ConflictGraph, ConflictRelation};
use wagg_engine::{EngineConfig, InterferenceEngine};
use wagg_geometry::rng::{seeded_rng, uniform_in, DeterministicRng};
use wagg_geometry::Point;
use wagg_sinr::{Link, PathLossCache, PowerAssignment, SinrModel};

const SIZES: [usize; 3] = [1_000, 10_000, 50_000];

/// The build the rows are measured on, the last part of each row's id.
const BUILD: &str = if cfg!(feature = "parallel") {
    "parallel"
} else {
    "serial"
};

/// The row id `<name>/<n>/<build>`.
fn row(name: &str, n: usize) -> BenchmarkId {
    BenchmarkId::new(name, format!("{n}/{BUILD}"))
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(
        ConflictRelation::unit_constant(),
        SinrModel::default(),
        PowerAssignment::mean(),
    )
}

/// What every churn event used to pay: a full conflict-graph and path-loss
/// rebuild over the live links.
fn full_rebuild(links: &[Link]) -> usize {
    let graph = ConflictGraph::build(links, ConflictRelation::unit_constant());
    let cache = PathLossCache::new(&SinrModel::default(), links, &PowerAssignment::mean());
    black_box(cache.alpha_pow());
    graph.edge_count()
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_churn");
    group.sample_size(10);
    for &n in &SIZES {
        let initial = uniform_unit_links(n, n as u64);
        let side = (n as f64).sqrt() * 4.0;

        // Incremental: one departure + one arrival per event, applied to the
        // persistent engine. The victim comes from a live-slot list kept
        // alongside it, so the row times the engine, not a slot scan.
        {
            let state = RefCell::new((
                InterferenceEngine::with_links(engine_config(), &initial),
                (0..n).collect::<Vec<usize>>(),
                seeded_rng(99 + n as u64),
            ));
            group.bench_function(row("incremental", n), |b| {
                b.iter(|| {
                    let (engine, live, rng) = &mut *state.borrow_mut();
                    let at = uniform_in(rng, 0.0, live.len() as f64) as usize;
                    engine.remove_link(live.swap_remove(at)).unwrap();
                    let x = uniform_in(rng, 0.0, side);
                    let y = uniform_in(rng, 0.0, side);
                    let angle = uniform_in(rng, 0.0, std::f64::consts::TAU);
                    let receiver = Point::new(x + angle.cos(), y + angle.sin());
                    let slot = engine.insert(Link::new(0, Point::new(x, y), receiver));
                    live.push(slot);
                    black_box(slot)
                })
            });
        }

        // Full rebuild: the same mutation on a plain vector, then rebuild.
        {
            let state = RefCell::new((initial.clone(), seeded_rng(99 + n as u64)));
            group.bench_function(row("full_rebuild", n), |b| {
                b.iter(|| {
                    let (links, rng) = &mut *state.borrow_mut();
                    let victim = uniform_in(rng, 0.0, links.len() as f64) as usize;
                    links.swap_remove(victim);
                    let x = uniform_in(rng, 0.0, side);
                    let y = uniform_in(rng, 0.0, side);
                    let angle = uniform_in(rng, 0.0, std::f64::consts::TAU);
                    let id = links.len();
                    links.push(Link::new(
                        id,
                        Point::new(x, y),
                        Point::new(x + angle.cos(), y + angle.sin()),
                    ));
                    full_rebuild(links)
                })
            });
        }
    }
    group.finish();
}

/// A mobility step for the pair whose sender is at `sender`: a random
/// displacement of at most one unit (one link length), reflected at the
/// edges of the `side`-square so the sender stays inside it. Both nodes of
/// the pair take the same step, so the link keeps its length, and between
/// the two `move_node` calls it spans at most two units.
fn pair_step(sender: Point, side: f64, rng: &mut DeterministicRng) -> (f64, f64) {
    let angle = uniform_in(rng, 0.0, std::f64::consts::TAU);
    let r = uniform_in(rng, 0.0, 1.0);
    let reflect = |v: f64| {
        if v < 0.0 {
            -v
        } else if v > side {
            2.0 * side - v
        } else {
            v
        }
    };
    let x = reflect(sender.x + r * angle.cos());
    let y = reflect(sender.y + r * angle.sin());
    (x - sender.x, y - sender.y)
}

fn bench_mobility(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_mobility");
    group.sample_size(10);
    for &n in &SIZES {
        let side = (n as f64).sqrt() * 4.0;
        // n mobile transmitter/receiver pairs: link k connects node 2k
        // (sender) to node 2k + 1 (receiver) one unit away. A mobility event
        // steps one pair (`pair_step`) — two `move_node` calls, each
        // re-seating the pair's link — so link lengths and density stay
        // constant no matter how many events run.
        let initial = uniform_unit_links(n, 7 + n as u64);
        let pair_links = |links: &[Link]| -> Vec<Link> {
            links
                .iter()
                .enumerate()
                .map(|(k, l)| {
                    Link::with_nodes(k, l.sender, l.receiver, (2 * k).into(), (2 * k + 1).into())
                })
                .collect()
        };

        // Incremental: one pair relocation per event.
        {
            // Pair k sits in slot k: the engine sees no removals.
            let mut engine = InterferenceEngine::new(engine_config());
            for l in pair_links(&initial) {
                engine.insert(l);
            }
            let state = RefCell::new((engine, seeded_rng(13 + n as u64)));
            group.bench_function(row("incremental", n), |b| {
                b.iter(|| {
                    let (engine, rng) = &mut *state.borrow_mut();
                    let pair = uniform_in(rng, 0.0, n as f64) as usize;
                    let link = *engine.link(pair).expect("pairs stay live");
                    let (dx, dy) = pair_step(link.sender, side, rng);
                    let step = |p: Point| Point::new(p.x + dx, p.y + dy);
                    let moved = engine.move_node(2 * pair, step(link.sender))
                        + engine.move_node(2 * pair + 1, step(link.receiver));
                    black_box(moved)
                })
            });
        }

        // Full rebuild: the same relocation on a plain vector, then rebuild.
        {
            let state = RefCell::new((pair_links(&initial), seeded_rng(13 + n as u64)));
            group.bench_function(row("full_rebuild", n), |b| {
                b.iter(|| {
                    let (links, rng) = &mut *state.borrow_mut();
                    let pair = uniform_in(rng, 0.0, links.len() as f64) as usize;
                    let old = links[pair];
                    let (dx, dy) = pair_step(old.sender, side, rng);
                    let step = |p: Point| Point::new(p.x + dx, p.y + dy);
                    let mut moved = Link::new(pair, step(old.sender), step(old.receiver));
                    moved.sender_node = old.sender_node;
                    moved.receiver_node = old.receiver_node;
                    links[pair] = moved;
                    full_rebuild(links)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_churn, bench_mobility);
criterion_main!(benches);
