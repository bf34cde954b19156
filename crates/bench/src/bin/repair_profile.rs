//! Phase profiler for the warm repair path: builds a repair-enabled session,
//! anchors it with a cold solve and prints that solve's span tree (the
//! recolor's `partition/*` or `static/*` spans and the warm-state anchor's
//! `anchor/*`) and the slots the anchor priced itself
//! (`anchor.slots_priced`), then times a relocate+solve churn loop with
//! the event and solve halves split out and the recorder's `repair` span tree
//! printed per phase, then the admission scan's work per solve (admissions,
//! rejections, pair terms), its time per term, and the slot-index entries
//! each event + solve moved (`repair.entries_moved`). The quick way to see
//! where a repaired solve's budget goes without running the full
//! `BENCH_repair.json` sweep.
//!
//! ```text
//! cargo run --release -p wagg-bench --bin repair_profile -- [n] [engine|partitioned] [iters]
//! ```

use wagg_bench::uniform_unit_links;
use wagg_geometry::{BoundingBox, Point};
use wagg_obs::Recorder;
use wagg_schedule::{PowerMode, SchedulerConfig};
use wagg_session::{Backend, RepairPolicy, Session};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let backend = std::env::args().nth(2).unwrap_or_else(|| "engine".into());
    let iters: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let links = uniform_unit_links(n, n as u64);
    let side = (n as f64).sqrt() * 4.0;
    let rec = Recorder::new();
    let builder = Session::builder()
        .scheduler(SchedulerConfig::new(PowerMode::mean_oblivious()))
        .repair(RepairPolicy::enabled())
        .recorder(rec.clone());
    let builder = match backend.as_str() {
        "engine" => builder.backend(Backend::Engine),
        "partitioned" => builder
            .backend(Backend::Sharded)
            .target_shards(16)
            .partition_hints(
                BoundingBox::new(-1.5, -1.5, side + 1.5, side + 1.5),
                (0.9, 1.1),
            ),
        other => panic!("unknown backend {other}"),
    };
    let mut session = builder.links(&links).build();
    let t = std::time::Instant::now();
    session.solve();
    eprintln!("cold solve: {:?}", t.elapsed());
    let cold = rec.metrics();
    for p in &cold.phases {
        eprintln!(
            "  {:<40} {:>10.3} ms  ({} spans)",
            p.path,
            p.nanos as f64 / 1e6,
            p.count
        );
    }
    eprintln!(
        "  anchor priced {} slots itself",
        cold.counter("anchor.slots_priced").unwrap_or(0)
    );
    // One warm-up repair, then reset the recorder-visible baseline by
    // snapshotting before the measured loop.
    session
        .relocate(
            0,
            Point::new(side / 2.0, side / 2.0),
            Point::new(side / 2.0 + 1.0, side / 2.0),
        )
        .unwrap();
    session.solve();
    let before = rec.metrics();

    let t = std::time::Instant::now();
    let mut flip = false;
    let mut event_ns = 0u128;
    let mut solve_ns = 0u128;
    for _ in 0..iters {
        flip = !flip;
        let x = side / 2.0 + if flip { 0.3 } else { 0.0 };
        let te = std::time::Instant::now();
        session
            .relocate(
                0,
                Point::new(x, side / 2.0),
                Point::new(x + 1.0, side / 2.0),
            )
            .unwrap();
        event_ns += te.elapsed().as_nanos();
        let ts = std::time::Instant::now();
        std::hint::black_box(session.solve().slots());
        solve_ns += ts.elapsed().as_nanos();
    }
    let total = t.elapsed();
    eprintln!(
        "{iters} warm solves: {:?} total, {:.3} ms/iter ({:.3} ms event + {:.3} ms solve)",
        total,
        total.as_secs_f64() * 1e3 / iters as f64,
        event_ns as f64 / 1e6 / iters as f64,
        solve_ns as f64 / 1e6 / iters as f64
    );
    let after = rec.metrics();
    let loop_nanos = |path: &str| {
        let now = after.phase(path).map_or(0, |p| p.nanos);
        now - before.phase(path).map_or(0, |p| p.nanos)
    };
    for p in &after.phases {
        let prev = before.phase(&p.path).map_or((0, 0), |q| (q.nanos, q.count));
        let nanos = p.nanos - prev.0;
        let count = p.count - prev.1;
        if count > 0 {
            eprintln!(
                "  {:<40} {:>10.3} ms  ({} spans, {:.3} ms each)",
                p.path,
                nanos as f64 / 1e6,
                count,
                nanos as f64 / 1e6 / count as f64
            );
        }
    }
    // How much of the `repair` span its direct children account for: the
    // rest is work no span names.
    let repair = loop_nanos("repair");
    let children: u64 = after
        .phases
        .iter()
        .filter(|p| {
            p.path
                .strip_prefix("repair/")
                .is_some_and(|c| !c.contains('/'))
        })
        .map(|p| loop_nanos(&p.path))
        .sum();
    if repair > 0 {
        eprintln!(
            "  repair child coverage: {:.3} of {:.3} ms ({:.1}%)",
            children as f64 / 1e6,
            repair as f64 / 1e6,
            100.0 * children as f64 / repair as f64
        );
    }
    // The admission scan's work: pair terms priced per solve, and the
    // `repair/place` time per term.
    let count = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let terms = count("repair.terms");
    let per_solve = |c: u64| c as f64 / iters as f64;
    eprintln!(
        "  per solve: {:.1} admissions, {:.1} rejections, {:.1} pair terms; {:.2} ns of repair/place per term",
        per_solve(count("repair.admissions")),
        per_solve(count("repair.rejections")),
        per_solve(terms),
        loop_nanos("repair/place") as f64 / terms.max(1) as f64
    );
    // Slot-index entries the event's splices and the solve's evictions and
    // re-sort moved (the index tallies its splices until a repair drains
    // them).
    eprintln!(
        "  per event + solve: {:.1} slot-index entries moved",
        per_solve(count("repair.entries_moved"))
    );
}
