//! `service_trees`: a `SchedulerService` hosting aggregation trees under
//! churn. Two client threads each drive their own two sessions, which sit
//! on different workers, so both clients' requests meet in every queue.
//! Each step is a write (`SubmitEvents` + `Solve`), a read (`Health`) or,
//! occasionally, a bulk op (`Snapshot` → `Restore` → `Solve` → `Close`).
//! Closed loop, two clients.

use std::sync::Barrier;
use std::time::Instant;

use wireless_aggregation::engine::EngineEvent;
use wireless_aggregation::geometry::Point;
use wireless_aggregation::obs::Metrics;
use wireless_aggregation::sinr::Link;
use wireless_aggregation::{
    Backend, Frame, PowerMode, RepairDecision, RepairPolicy, SchedulerConfig, SchedulerService,
    ServiceConfig, SessionConfig, SessionId, SolveReport, TelemetryConfig,
};

use crate::common::{clustered_on_grid, digest, is_partition, mean, mst_links, ratio, Kind};
use crate::common::{Outcome, Phase, Rng};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub clusters: usize,
    pub per_cluster: usize,
    pub side: f64,
    pub radius: f64,
    /// `MoveNode` events per write. Enough that a write's execution, not
    /// the two thread handoffs around it, sets its latency: handoff delays
    /// swing with the host's steal time.
    pub moves: usize,
}

impl Scale {
    /// 10 000 sensors per session in 500 clusters of 20, at the cluster
    /// density of `paper_cold`.
    pub const FULL: Scale = Scale {
        clusters: 500,
        per_cluster: 20,
        side: 12_650.0,
        radius: 10.0,
        moves: 24,
    };
    pub const TINY: Scale = Scale {
        clusters: 10,
        per_cluster: 10,
        side: 1_400.0,
        radius: 10.0,
        moves: 2,
    };
}

/// Client steps per second of `--seconds` (per client) on a 2-vCPU x86-64
/// VM, serial build.
pub const OPS_PER_SECOND: usize = 100;

pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const SESSIONS_PER_CLIENT: usize = 2;

/// Per mille of steps that are reads and bulk ops; the rest are writes.
const READ_PERMILLE: usize = 270;
const BULK_PERMILLE: usize = 5;

#[derive(Debug, Clone)]
enum Step {
    Write {
        session: usize,
        events: Vec<EngineEvent>,
    },
    Read {
        session: usize,
    },
    Bulk {
        session: usize,
    },
}

/// One hosted session as a client sees it.
struct Hosted {
    id: SessionId,
    /// Slot count of the session's last solve; a restored copy must match.
    slots: usize,
}

fn config() -> SessionConfig {
    SessionConfig {
        scheduler: SchedulerConfig::new(PowerMode::Oblivious { tau: 0.5 }),
        backend: Backend::Auto,
        expect_churn: true,
        repair: RepairPolicy::enabled(),
        ..SessionConfig::default()
    }
}

/// A client's fixed step sequence over its sessions, whose sensors sit at
/// `homes`. Writes jitter `scale.moves` sensors around their homes and
/// alternately attach a new leaf sensor to a random one or detach the
/// oldest leaf still attached, so n stays within one of its start.
fn steps(rng: &mut Rng, homes: &[&[Point]], scale: &Scale, count: usize) -> Vec<Step> {
    let mut leaves: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); homes.len()];
    let mut next_key = 0u64;
    (0..count)
        .map(|_| {
            let session = rng.below(homes.len());
            let roll = rng.below(1000);
            if roll < BULK_PERMILLE {
                return Step::Bulk { session };
            }
            if roll < BULK_PERMILLE + READ_PERMILLE {
                return Step::Read { session };
            }
            let points = homes[session];
            let jitter = scale.radius * 0.05;
            let mut events: Vec<EngineEvent> = (0..scale.moves)
                .map(|_| {
                    let node = rng.below(points.len());
                    let p = points[node];
                    EngineEvent::MoveNode {
                        node,
                        to: Point::new(
                            p.x + rng.range(-jitter, jitter),
                            p.y + rng.range(-jitter, jitter),
                        ),
                    }
                })
                .collect();
            let attached = &mut leaves[session];
            if attached.len() > 1 || (attached.len() == 1 && rng.below(2) == 0) {
                events.push(EngineEvent::Remove {
                    key: attached.pop_front().expect("checked non-empty"),
                });
            } else {
                let node = rng.below(points.len());
                let p = points[node];
                let offset = scale.radius * 0.2;
                next_key += 1;
                attached.push_back(next_key);
                events.push(EngineEvent::Insert {
                    key: next_key,
                    sender: Point::new(p.x + rng.range(-offset, offset), p.y + offset),
                    receiver: p,
                    sender_node: Some(points.len() + next_key as usize),
                    receiver_node: Some(node),
                });
            }
            Step::Write { session, events }
        })
        .collect()
}

/// Whether a restored session's first solve reproduces its source.
pub fn restored_matches(source_slots: usize, restored: &SolveReport) -> bool {
    restored.slots() == source_slots && is_partition(restored.schedule(), restored.num_links())
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    out: Outcome,
    /// Per write solve: dirty, replaced, repaired?
    repair: Vec<(f64, f64, f64)>,
    /// Per bulk op: frame KiB.
    frame_kb: Vec<f64>,
}

fn client(
    service: &SchedulerService,
    sessions: &mut [Hosted],
    steps: &[Step],
    tag: u64,
    tr: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    for (i, step) in steps.iter().enumerate() {
        let op = (tag << 32) | i as u64;
        let t0 = Instant::now();
        match step {
            Step::Write { session, events } => {
                let s = &mut sessions[*session];
                let root = tr.open("op", op, None);
                let applied = tr.time("service.events", op, root, || {
                    service.submit_events(s.id, events)
                });
                let solved = tr.time("service.solve", op, root, || service.solve(s.id));
                tr.close(root);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let ok = match (&applied, &solved) {
                    (Ok(n), Ok(report)) if *n == events.len() => {
                        s.slots = report.slots();
                        log.out.solved(report.slots());
                        let r = report.repair.as_ref();
                        log.repair.push((
                            r.map_or(0.0, |r| r.dirty_links as f64),
                            r.map_or(0.0, |r| r.replaced_links as f64),
                            f64::from(u8::from(
                                r.is_some_and(|r| r.decision == RepairDecision::Repaired),
                            )),
                        ));
                        is_partition(report.schedule(), report.num_links())
                    }
                    _ => false,
                };
                log.out.push(Kind::Op, ms, ok);
                if !ok {
                    log.out.error(format!(
                        "client {tag} step {i}: write failed: {applied:?} / {:?}",
                        solved.as_ref().err()
                    ));
                }
            }
            Step::Read { session } => {
                let id = sessions[*session].id;
                let root = tr.open("op.read", op, None);
                let health = tr.time("service.health", op, root, || service.health(id));
                tr.close(root);
                let ok = health.is_ok();
                log.out
                    .push(Kind::Read, t0.elapsed().as_secs_f64() * 1e3, ok);
                if !ok {
                    log.out
                        .error(format!("client {tag} step {i}: health failed: {health:?}"));
                }
            }
            Step::Bulk { session } => {
                let s = &sessions[*session];
                let root = tr.open("op.bulk", op, None);
                let frame = tr.time("service.snapshot", op, root, || service.snapshot(s.id));
                let restored = frame
                    .as_ref()
                    .ok()
                    .map(|f| tr.time("service.restore", op, root, || service.restore(f)));
                let (solved, closed) = match restored {
                    Some(Ok(id)) => (
                        Some(tr.time("service.solve", op, root, || service.solve(id))),
                        Some(tr.time("service.close", op, root, || service.close_session(id))),
                    ),
                    _ => (None, None),
                };
                tr.close(root);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let ok = match (&solved, &closed) {
                    (Some(Ok(report)), Some(Ok(()))) => restored_matches(s.slots, report),
                    _ => false,
                };
                log.out.push(Kind::Bulk, ms, ok);
                if !ok {
                    log.out.error(format!(
                        "client {tag} step {i}: bulk op failed or restored slots differ from {}",
                        s.slots
                    ));
                }
                if let (true, Ok(bytes)) = (tr.is_on(), &frame) {
                    let decoded = tr.time("wire.decode", op, None, || Frame::decode(bytes));
                    let encoded = decoded
                        .as_ref()
                        .ok()
                        .map(|f| tr.time("wire.encode", op, None, || f.encode()));
                    std::hint::black_box(encoded);
                    log.frame_kb.push(bytes.len() as f64 / 1024.0);
                }
            }
        }
    }
    log
}

pub fn run(seed: u64, ops: usize, scale: &Scale, setup_reps: usize, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let sessions = CLIENTS * SESSIONS_PER_CLIENT;
    let deployments: Vec<Vec<Point>> = (0..sessions)
        .map(|s| {
            let mut rng = Rng::new(seed, 1000 + s as u64);
            clustered_on_grid(
                &mut rng,
                scale.clusters,
                scale.per_cluster,
                scale.side,
                scale.radius,
            )
        })
        .collect();

    let mut hosted: Option<(SchedulerService, Vec<Hosted>)> = None;
    let mut open_ms = Vec::new();
    let mut trees: Vec<Vec<Link>> = Vec::new();
    for _ in 0..setup_reps.max(1) {
        if let Some((service, _)) = hosted.take() {
            service.shutdown();
        }
        let t0 = Instant::now();
        trees = deployments
            .iter()
            .map(|points| tr.time("mst.euclidean", 0, None, || mst_links(points)))
            .collect();
        let service = SchedulerService::start(ServiceConfig {
            workers: WORKERS,
            queue_depth: 64,
            telemetry: Some(TelemetryConfig::default()),
        });
        let mut opened = Vec::new();
        for tree in &trees {
            let t = Instant::now();
            let id = tr
                .time("service.open", 0, None, || {
                    service.open_session(config(), tree)
                })
                .expect("service opens a session");
            open_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let report = service.solve(id).expect("cold solve succeeds");
            assert!(
                is_partition(report.schedule(), tree.len()),
                "service_trees cold solve is not a partition"
            );
            opened.push(Hosted {
                id,
                slots: report.slots(),
            });
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        hosted = Some((service, opened));
    }
    let (service, mut opened) = hosted.expect("at least one set-up ran");
    out.inputs = trees.iter().fold(0, |h, t| h ^ digest(t));
    out.notes.push(format!(
        "inputs: {sessions} sessions of {} sensors ({} x {}), {WORKERS} workers, {CLIENTS} clients",
        scale.clusters * scale.per_cluster,
        scale.clusters,
        scale.per_cluster
    ));

    // Sessions are minted 0, 1, 2, 3 and live on worker `id % 2`: client c
    // drives sessions 2c and 2c + 1, one on each worker.
    let mut plans: Vec<Vec<Step>> = Vec::new();
    for c in 0..CLIENTS {
        let homes: Vec<&[Point]> = (0..SESSIONS_PER_CLIENT)
            .map(|k| deployments[c * SESSIONS_PER_CLIENT + k].as_slice())
            .collect();
        plans.push(steps(
            &mut Rng::new(seed, 2000 + c as u64),
            &homes,
            scale,
            ops,
        ));
    }

    let before = service.metrics();
    let phase = Phase::start(&mut out);
    let barrier = Barrier::new(CLIENTS + 1);
    let mut logs = Vec::new();
    let mut tracers = Vec::new();
    let t_run = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .chunks_mut(SESSIONS_PER_CLIENT)
            .zip(&plans)
            .enumerate()
            .map(|(c, (mine, plan))| {
                let (service, barrier) = (&service, &barrier);
                let mut ctr = tr.sibling();
                scope.spawn(move || {
                    barrier.wait();
                    let log = client(service, mine, plan, c as u64, &mut ctr);
                    (log, ctr)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            let (log, ctr) = h.join().expect("client thread panicked");
            logs.push(log);
            tracers.push(ctr);
        }
        t0.elapsed().as_secs_f64()
    });
    phase.finish(&mut out, t_run);
    let after = service.metrics();
    service.shutdown();

    let mut repair = Vec::new();
    let mut frame_kb = Vec::new();
    for log in logs {
        out.samples.extend(log.out.samples);
        out.slots_sum += log.out.slots_sum;
        out.solves += log.out.solves;
        for e in log.out.errors {
            out.error(e);
        }
        repair.extend(log.repair);
        frame_kb.extend(log.frame_kb);
    }
    for ctr in tracers {
        tr.absorb(ctr);
    }
    let count = |k: Kind| out.samples.iter().filter(|s| s.kind == k).count();
    out.notes.push(format!(
        "ops: {} steps per client: {} writes, {} reads, {} bulk ops in all",
        ops,
        count(Kind::Op),
        count(Kind::Read),
        count(Kind::Bulk)
    ));
    if tr.is_on() {
        layers(&mut out, tr, &before, &after, &open_ms, &repair, &frame_kb);
    }
    out
}

const KINDS: [(&str, &str, [&str; 3]); 5] = [
    (
        "service.events",
        "service.request.events_ns",
        [
            "service.rtt_ms.events",
            "service.exec_ms.events",
            "service.wait_ms.events",
        ],
    ),
    (
        "service.solve",
        "service.request.solve_ns",
        [
            "service.rtt_ms.solve",
            "service.exec_ms.solve",
            "service.wait_ms.solve",
        ],
    ),
    (
        "service.health",
        "service.request.health_ns",
        [
            "service.rtt_ms.health",
            "service.exec_ms.health",
            "service.wait_ms.health",
        ],
    ),
    (
        "service.snapshot",
        "service.request.snapshot_ns",
        [
            "service.rtt_ms.snapshot",
            "service.exec_ms.snapshot",
            "service.wait_ms.snapshot",
        ],
    ),
    (
        "service.restore",
        "service.request.restore_ns",
        [
            "service.rtt_ms.restore",
            "service.exec_ms.restore",
            "service.wait_ms.restore",
        ],
    ),
];

fn layers(
    out: &mut Outcome,
    tr: &Tracer,
    before: &Metrics,
    after: &Metrics,
    open_ms: &[f64],
    repair: &[(f64, f64, f64)],
    frame_kb: &[f64],
) {
    let ms = |name: &str| tr.mean_ms(name).unwrap_or(0.0);
    let l = &mut out.layers;
    l.insert("mst.euclidean_ms", ms("mst.euclidean"));
    for (span, hist, [rtt, exec, wait]) in KINDS {
        // Worker-side execution: the exact mean over the timed phase, from
        // the histogram's sum and count.
        let sum_count = |m: &Metrics| m.hist(hist).map_or((0, 0), |h| (h.sum(), h.count()));
        let ((s0, c0), (s1, c1)) = (sum_count(before), sum_count(after));
        let exec_ms = ratio((s1 - s0) as f64, (c1 - c0) as f64) / 1e6;
        l.insert(rtt, ms(span));
        l.insert(exec, exec_ms);
        l.insert(wait, ms(span) - exec_ms);
    }
    l.insert(
        "service.queue_depth_max",
        after.counter("service.queue_depth").unwrap_or(0) as f64,
    );
    l.insert("service.open_ms", mean(open_ms));
    l.insert("wire.frame_kb", mean(frame_kb));
    l.insert("wire.encode_ms", ms("wire.encode"));
    l.insert("wire.decode_ms", ms("wire.decode"));
    let col = |k: usize| {
        mean(
            &repair
                .iter()
                .map(|r| [r.0, r.1, r.2][k])
                .collect::<Vec<_>>(),
        )
    };
    l.insert("repair.dirty_links", col(0));
    l.insert("repair.replaced_links", col(1));
    l.insert("repair.repaired_frac", col(2));
}
