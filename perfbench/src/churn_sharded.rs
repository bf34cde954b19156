//! `churn_sharded`: event-to-schedule latency where `Backend::Auto` shards.
//! A session over constant-density unit links with partition hints
//! (repair on) takes one event per op, then `Session::solve`. Events are
//! mostly relocations of a seeded link around its home, plus equal numbers
//! of arrivals and departures, so n stays fixed. One client, closed loop.

use std::collections::VecDeque;
use std::time::Instant;

use wireless_aggregation::geometry::{BoundingBox, Point};
use wireless_aggregation::obs::Metrics;
use wireless_aggregation::sinr::Link;
use wireless_aggregation::{
    Backend, PowerMode, Recorder, RepairDecision, RepairPolicy, SchedulerConfig, Session,
    SolveReport,
};

use crate::common::{digest, is_partition, mean, ratio};
use crate::common::{Kind, Outcome, Phase, Rng};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub links: usize,
    pub shards: usize,
}

impl Scale {
    /// The `BENCH_*` unit-link family at the size `Backend::Auto` starts
    /// sharding at.
    pub const FULL: Scale = Scale {
        links: 50_000,
        shards: 16,
    };
    pub const TINY: Scale = Scale {
        links: 3_000,
        shards: 4,
    };
}

/// Ops per second of `--seconds` on a 2-vCPU x86-64 VM, serial build.
pub const OPS_PER_SECOND: usize = 120;

const MODE: PowerMode = PowerMode::Oblivious { tau: 0.5 };

/// How far (per axis) a relocation moves a link from its home.
const JITTER: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
enum Event {
    Relocate {
        key: u64,
        to: Link,
    },
    Arrive(Link),
    /// Removes the oldest link that arrived during the run.
    Depart,
}

/// Unit links at constant density (side 4√n), uniform positions and
/// orientations.
fn unit_links(rng: &mut Rng, n: usize) -> Vec<Link> {
    let side = (n as f64).sqrt() * 4.0;
    (0..n).map(|i| unit_link(rng, i, side)).collect()
}

fn unit_link(rng: &mut Rng, id: usize, side: f64) -> Link {
    let (x, y) = (rng.range(0.0, side), rng.range(0.0, side));
    let angle = rng.range(0.0, std::f64::consts::TAU);
    Link::new(
        id,
        Point::new(x, y),
        Point::new(x + angle.cos(), y + angle.sin()),
    )
}

fn shifted(l: &Link, dx: f64, dy: f64) -> Link {
    Link::new(
        l.id.index(),
        Point::new(l.sender.x + dx, l.sender.y + dy),
        Point::new(l.receiver.x + dx, l.receiver.y + dy),
    )
}

/// The op sequence: in every ten ops, one arrival, one departure and eight
/// relocations.
fn events(rng: &mut Rng, links: &[Link], ops: usize) -> Vec<Event> {
    let side = (links.len() as f64).sqrt() * 4.0;
    (0..ops)
        .map(|i| match i % 10 {
            4 => Event::Arrive(unit_link(rng, 0, side)),
            9 => Event::Depart,
            _ => {
                let key = rng.below(links.len());
                let (dx, dy) = (rng.range(-JITTER, JITTER), rng.range(-JITTER, JITTER));
                Event::Relocate {
                    key: key as u64,
                    to: shifted(&links[key], dx, dy),
                }
            }
        })
        .collect()
}

fn build(links: &[Link], scale: &Scale, recorder: Recorder) -> Session {
    let side = (links.len() as f64).sqrt() * 4.0;
    let margin = 1.0 + 2.0 * JITTER;
    Session::builder()
        .scheduler(SchedulerConfig::new(MODE))
        .backend(Backend::Auto)
        .target_shards(scale.shards)
        .partition_hints(
            BoundingBox::new(-margin, -margin, side + margin, side + margin),
            (0.9, 1.1),
        )
        .repair(RepairPolicy::enabled())
        .recorder(recorder)
        .links(links)
        .build()
}

fn apply(session: &mut Session, event: &Event, arrived: &mut VecDeque<u64>) -> bool {
    match event {
        Event::Relocate { key, to } => session.relocate(*key, to.sender, to.receiver).is_ok(),
        Event::Arrive(l) => {
            arrived.push_back(session.insert(l.sender, l.receiver));
            true
        }
        Event::Depart => arrived
            .pop_front()
            .is_some_and(|key| session.remove(key).is_ok()),
    }
}

fn event_span(event: &Event) -> &'static str {
    match event {
        Event::Relocate { .. } => "session.event.relocate",
        Event::Arrive(_) => "session.event.insert",
        Event::Depart => "session.event.remove",
    }
}

pub fn run(seed: u64, ops: usize, scale: &Scale, setup_reps: usize, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let recorder = if tr.is_on() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut rng = Rng::new(seed, 0);
    let links = unit_links(&mut rng, scale.links);
    let sequence = events(&mut rng, &links, ops);
    out.inputs = digest(&links);

    // Set-up: build, cold solve, then one relocation and its warm solve.
    let mut session = None;
    for _ in 0..setup_reps.max(1) {
        drop(session.take());
        let t0 = Instant::now();
        let mut s = tr.time("session.build", 0, None, || {
            build(&links, scale, recorder.clone())
        });
        let cold = tr.time("session.cold_solve", 0, None, || s.solve());
        let warm_to = shifted(&links[0], JITTER, 0.0);
        let warmed = s.relocate(0, warm_to.sender, warm_to.receiver).is_ok();
        let warm = s.solve();
        assert!(
            warmed
                && is_partition(cold.schedule(), links.len())
                && is_partition(warm.schedule(), links.len()),
            "churn_sharded set-up produced an invalid schedule"
        );
        out.setup_s.push(t0.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up ran");
    out.notes.push(format!(
        "inputs: {} unit links, {} shards, backend {:?}",
        links.len(),
        scale.shards,
        session.backend_kind()
    ));

    let before = recorder.metrics();
    let mut arrived = VecDeque::new();
    let mut reports: Vec<SolveRow> = Vec::new();
    let mut last: Option<SolveReport> = None;
    out.scaled = true;
    let phase = Phase::start(&mut out);
    let t_run = Instant::now();
    for (i, event) in sequence.iter().enumerate() {
        let op = i as u64;
        let t0 = Instant::now();
        let root = tr.open("op", op, None);
        let applied = tr.time(event_span(event), op, root, || {
            apply(&mut session, event, &mut arrived)
        });
        let report = tr.time("session.warm_solve", op, root, || session.solve());
        tr.close(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let expected = links.len() + arrived.len();
        let ok =
            applied && report.num_links() == expected && is_partition(report.schedule(), expected);
        out.push(Kind::Op, ms, ok);
        if !ok {
            out.error(format!(
                "op {i}: event rejected or schedule not a partition"
            ));
        }
        out.solved(report.slots());
        if tr.is_on() {
            let repair = report.repair.as_ref();
            let sharding = report.sharding.as_ref();
            reports.push((
                repair.map_or(0, |r| r.dirty_links),
                repair.map_or(0, |r| r.replaced_links),
                repair.map(|r| r.decision),
                sharding.map_or(0.0, |s| s.max_owned as f64),
                sharding.map_or(0.0, |s| s.ghost_fraction),
            ));
        }
        last = Some(report);
        if i % 8 == 7 {
            out.calibrate(1);
        }
    }
    phase.finish(&mut out, t_run.elapsed().as_secs_f64());

    let t_check = Instant::now();
    if let Some(report) = last {
        let model = SchedulerConfig::new(MODE).model;
        if !report.schedule().verify(&session.links(), &model, MODE) {
            let i = out.samples.len() - 1;
            out.fail(i, "final schedule fails the exact SINR check".into());
        }
    }
    out.notes.push(format!(
        "ops: {ops} (event + solve each: {} relocations, {} arrivals, {} departures); final schedule re-checked exactly in {:.2} s",
        ops - 2 * (ops / 10) - usize::from(ops % 10 > 4),
        ops / 10 + usize::from(ops % 10 > 4),
        ops / 10,
        t_check.elapsed().as_secs_f64()
    ));
    if tr.is_on() {
        layers(&mut out, tr, &before, &recorder.metrics(), &reports);
    }
    out
}

/// Per traced solve: dirty links, replaced links, repair decision, largest
/// shard, ghost fraction.
type SolveRow = (usize, usize, Option<RepairDecision>, f64, f64);

fn layers(out: &mut Outcome, tr: &Tracer, before: &Metrics, after: &Metrics, rows: &[SolveRow]) {
    let ms = |name: &str| tr.mean_ms(name).unwrap_or(0.0);
    let delta = |name: &str| {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    };
    let solves = rows.len() as f64;
    let events = solves;
    let col = |f: &dyn Fn(&SolveRow) -> f64| mean(&rows.iter().map(f).collect::<Vec<_>>());
    let l = &mut out.layers;
    l.insert("session.build_ms", ms("session.build"));
    l.insert("session.cold_solve_ms", ms("session.cold_solve"));
    l.insert("session.event_ms.relocate", ms("session.event.relocate"));
    l.insert("session.event_ms.insert", ms("session.event.insert"));
    l.insert("session.event_ms.remove", ms("session.event.remove"));
    l.insert("session.warm_solve_ms", ms("session.warm_solve"));
    l.insert("repair.dirty_links", col(&|r| r.0 as f64));
    l.insert("repair.replaced_links", col(&|r| r.1 as f64));
    l.insert(
        "repair.repaired_frac",
        col(&|r| f64::from(u8::from(r.2 == Some(RepairDecision::Repaired)))),
    );
    let (admit, reject) = (delta("repair.admissions"), delta("repair.rejections"));
    l.insert("repair.admissions", ratio(admit, solves));
    l.insert("repair.rejections", ratio(reject, solves));
    l.insert("repair.admit_frac", ratio(admit, admit + reject));
    let (patched, recaptured) = (
        delta("repair.warm_patched"),
        delta("repair.warm_recaptured"),
    );
    l.insert(
        "repair.warm_patched_frac",
        ratio(patched, patched + recaptured),
    );
    l.insert(
        "engine.rows_recomputed",
        ratio(delta("engine.rows_recomputed"), events),
    );
    l.insert(
        "engine.grid_rebuilds",
        ratio(delta("engine.grid_rebuilds"), events),
    );
    l.insert(
        "engine.compactions",
        ratio(delta("engine.compactions"), events),
    );
    l.insert("sharding.max_owned", col(&|r| r.3));
    l.insert("sharding.ghost_fraction", col(&|r| r.4));
    l.insert(
        "verifier.expansions",
        ratio(delta("verifier.expansions"), solves),
    );
    l.insert(
        "verifier.exact_fallbacks",
        ratio(delta("verifier.exact_fallbacks"), solves),
    );
}
