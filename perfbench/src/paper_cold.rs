//! `paper_cold`: the paper's Theorem 1 pipeline, cold. One op schedules one
//! MST from scratch under global control, oblivious `P_½` and uniform power,
//! each through a fresh `Session` (`Backend::Auto` resolves to static).
//! One client, closed loop.

use std::time::Instant;

use wireless_aggregation::conflict::{greedy_color, ConflictGraph};
use wireless_aggregation::schedule::{schedule_prebuilt, Schedule};
use wireless_aggregation::sinr::link::link_diversity;
use wireless_aggregation::sinr::Link;
use wireless_aggregation::{Backend, PowerMode, SchedulerConfig, Session};

use crate::common::{clustered, digest, is_partition, mean, median, mst_links, ratio, Kind};
use crate::common::{Outcome, Phase, Rng};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub clusters: usize,
    pub per_cluster: usize,
    pub side: f64,
    pub radius: f64,
}

impl Scale {
    /// 1 000 sensors in 50 clusters of 20; link diversity Δ ≈ 10⁴.
    pub const FULL: Scale = Scale {
        clusters: 50,
        per_cluster: 20,
        side: 4_000.0,
        radius: 10.0,
    };
    pub const TINY: Scale = Scale {
        clusters: 6,
        per_cluster: 8,
        side: 1_000.0,
        radius: 10.0,
    };
}

/// Ops per second of `--seconds` on a 2-vCPU x86-64 VM, serial build.
pub const OPS_PER_SECOND: usize = 15;

struct Mode {
    mode: PowerMode,
    build: &'static str,
    solve: &'static str,
    conflict_build: &'static str,
    color: &'static str,
    prebuilt: &'static str,
    check: &'static str,
    /// Per-layer metric names: build, color, edges, verify, split, check,
    /// session solve, session overhead.
    metrics: [&'static str; 8],
}

const MODES: [Mode; 3] = [
    Mode {
        mode: PowerMode::GlobalControl,
        build: "session.build.global",
        solve: "session.solve.global",
        conflict_build: "conflict.build.global",
        color: "conflict.color.global",
        prebuilt: "schedule.prebuilt.global",
        check: "sinr.check.global",
        metrics: [
            "conflict.build_ms.global",
            "conflict.color_ms.global",
            "conflict.edges.global",
            "schedule.verify_ms.global",
            "schedule.split_ratio.global",
            "sinr.check_ms.global",
            "session.solve_ms.global",
            "session.overhead_ms.global",
        ],
    },
    Mode {
        mode: PowerMode::Oblivious { tau: 0.5 },
        build: "session.build.oblivious",
        solve: "session.solve.oblivious",
        conflict_build: "conflict.build.oblivious",
        color: "conflict.color.oblivious",
        prebuilt: "schedule.prebuilt.oblivious",
        check: "sinr.check.oblivious",
        metrics: [
            "conflict.build_ms.oblivious",
            "conflict.color_ms.oblivious",
            "conflict.edges.oblivious",
            "schedule.verify_ms.oblivious",
            "schedule.split_ratio.oblivious",
            "sinr.check_ms.oblivious",
            "session.solve_ms.oblivious",
            "session.overhead_ms.oblivious",
        ],
    },
    Mode {
        mode: PowerMode::Uniform,
        build: "session.build.uniform",
        solve: "session.solve.uniform",
        conflict_build: "conflict.build.uniform",
        color: "conflict.color.uniform",
        prebuilt: "schedule.prebuilt.uniform",
        check: "sinr.check.uniform",
        metrics: [
            "conflict.build_ms.uniform",
            "conflict.color_ms.uniform",
            "conflict.edges.uniform",
            "schedule.verify_ms.uniform",
            "schedule.split_ratio.uniform",
            "sinr.check_ms.uniform",
            "session.solve_ms.uniform",
            "session.overhead_ms.uniform",
        ],
    },
];

/// Every 16th op (by a seeded draw) has its schedules re-checked exactly
/// with `Schedule::verify` after the timed phase.
const VERIFY_ONE_IN: u64 = 16;

/// One deployment per op, each with its MST.
fn setup(seed: u64, ops: usize, scale: &Scale, tr: &mut Tracer) -> Vec<Vec<Link>> {
    (0..ops)
        .map(|t| {
            let mut rng = Rng::new(seed, t as u64);
            let points = clustered(
                &mut rng,
                scale.clusters,
                scale.per_cluster,
                scale.side,
                scale.radius,
            );
            tr.time("mst.euclidean", 0, None, || mst_links(&points))
        })
        .collect()
}

pub fn run(seed: u64, ops: usize, scale: &Scale, setup_reps: usize, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut trees = Vec::new();
    for _ in 0..setup_reps.max(1) {
        drop(std::mem::take(&mut trees));
        let t0 = Instant::now();
        trees = setup(seed, ops, scale, tr);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.inputs = trees.iter().fold(0, |h, t| h ^ digest(t));
    let diversity: Vec<f64> = trees
        .iter()
        .map(|t| link_diversity(t).unwrap_or(1.0))
        .collect();
    out.notes.push(format!(
        "inputs: {} clustered deployments of {} sensors ({} x {}), median link diversity {:.0}",
        trees.len(),
        scale.clusters * scale.per_cluster,
        scale.clusters,
        scale.per_cluster,
        median(&diversity)
    ));

    let mut pick = Rng::new(seed, u64::MAX);
    let mut kept: Vec<(usize, usize, Schedule)> = Vec::new();
    let mut probes = Vec::new();
    out.scaled = true;
    let phase = Phase::start(&mut out);
    let t_run = Instant::now();
    for (i, links) in trees.iter().enumerate() {
        let keep = pick.next_u64().is_multiple_of(VERIFY_ONE_IN);
        let op = i as u64;
        let t0 = Instant::now();
        let root = tr.open("op", op, None);
        let mut ok = true;
        let mut schedules = Vec::new();
        for m in &MODES {
            let mut session = tr.time(m.build, op, root, || {
                Session::builder()
                    .power_mode(m.mode)
                    .backend(Backend::Auto)
                    .links(links)
                    .build()
            });
            let report = tr.time(m.solve, op, root, || session.solve());
            ok &= is_partition(report.schedule(), links.len());
            out.solved(report.slots());
            if keep {
                schedules.push(report.schedule().clone());
            }
        }
        tr.close(root);
        out.push(Kind::Op, t0.elapsed().as_secs_f64() * 1e3, ok);
        if !ok {
            out.error(format!("op {i}: a schedule is not a partition of its tree"));
        }
        out.calibrate(1);
        if keep {
            kept.extend(schedules.into_iter().enumerate().map(|(m, s)| (i, m, s)));
        }
        if tr.is_on() {
            probes.push(decompose(tr, op, links));
        }
    }
    phase.finish(&mut out, t_run.elapsed().as_secs_f64());

    let checked = kept.len();
    for (i, m, schedule) in kept {
        let links = &trees[i];
        let config = SchedulerConfig::new(MODES[m].mode);
        if !schedule.verify(links, &config.model, MODES[m].mode) {
            out.fail(i, format!("op {i}: schedule fails the exact SINR check"));
        }
    }
    out.notes.push(format!(
        "ops: {ops} (3 solves each); {checked} schedules re-checked exactly after timing"
    ));
    if tr.is_on() {
        layers(&mut out, tr, &probes);
    }
    out
}

/// The traced run's probe calls, after the op's root span closed: the
/// layer functions a static session solve runs, called one by one on the
/// same tree. Returns each mode's conflict-edge count and verified ÷
/// colouring slots.
fn decompose(tr: &mut Tracer, op: u64, links: &[Link]) -> [(f64, f64); 3] {
    MODES.map(|m| {
        let config = SchedulerConfig::new(m.mode);
        let relation = m.mode.conflict_relation(config.model.alpha());
        let graph = tr.time(m.conflict_build, op, None, || {
            ConflictGraph::build(links, relation)
        });
        let coloring = tr.time(m.color, op, None, || greedy_color(&graph));
        std::hint::black_box(coloring.num_colors());
        let report = tr.time(m.prebuilt, op, None, || {
            schedule_prebuilt(&graph, None, config)
        });
        let ok = tr.time(m.check, op, None, || {
            report.schedule.verify(links, &config.model, m.mode)
        });
        std::hint::black_box(ok);
        (
            graph.edge_count() as f64,
            ratio(report.verified_slots as f64, report.coloring_slots as f64),
        )
    })
}

fn layers(out: &mut Outcome, tr: &Tracer, probes: &[[(f64, f64); 3]]) {
    let ms = |name: &str| tr.mean_ms(name).unwrap_or(0.0);
    out.layers.insert("mst.euclidean_ms", ms("mst.euclidean"));
    let mut builds = Vec::new();
    for (k, m) in MODES.iter().enumerate() {
        let (build, color, prebuilt) = (ms(m.conflict_build), ms(m.color), ms(m.prebuilt));
        let solve = ms(m.solve);
        let edges: Vec<f64> = probes.iter().map(|p| p[k].0).collect();
        let split: Vec<f64> = probes.iter().map(|p| p[k].1).collect();
        out.layers.insert(m.metrics[0], build);
        out.layers.insert(m.metrics[1], color);
        out.layers.insert(m.metrics[2], mean(&edges));
        out.layers.insert(m.metrics[3], prebuilt - color);
        out.layers.insert(m.metrics[4], mean(&split));
        out.layers.insert(m.metrics[5], ms(m.check));
        out.layers.insert(m.metrics[6], solve);
        out.layers.insert(m.metrics[7], solve - build - prebuilt);
        builds.extend(tr.durations(m.build));
    }
    out.layers.insert("session.build_ms", mean(&builds));
}
