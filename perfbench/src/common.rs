//! Inputs, statistics and the run record shared by the workloads.

use std::collections::BTreeMap;

use wireless_aggregation::geometry::Point;
use wireless_aggregation::mst::euclidean_mst;
use wireless_aggregation::schedule::Schedule;
use wireless_aggregation::sinr::Link;

/// SplitMix64. The benchmark draws its inputs from its own generator, so
/// they depend on the seed alone and never on code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `clusters` square clusters of `per_cluster` sensors each (half-width
/// `radius`), with centres uniform in a `side` × `side` square. Node 0,
/// the sink, is the first sensor of the first cluster.
pub fn clustered(
    rng: &mut Rng,
    clusters: usize,
    per_cluster: usize,
    side: f64,
    radius: f64,
) -> Vec<Point> {
    let centres: Vec<(f64, f64)> = (0..clusters)
        .map(|_| (rng.range(0.0, side), rng.range(0.0, side)))
        .collect();
    place(rng, &centres, per_cluster, radius)
}

/// Like [`clustered`], but the centres sit one per cell of a square grid
/// over the `side` × `side` square, each uniform in the middle half of its
/// cell, so no two clusters overlap and every seed yields the same layout
/// shape.
pub fn clustered_on_grid(
    rng: &mut Rng,
    clusters: usize,
    per_cluster: usize,
    side: f64,
    radius: f64,
) -> Vec<Point> {
    let cols = (clusters as f64).sqrt().ceil() as usize;
    let cell = side / cols as f64;
    let centres: Vec<(f64, f64)> = (0..clusters)
        .map(|c| {
            let (x0, y0) = ((c % cols) as f64 * cell, (c / cols) as f64 * cell);
            (
                x0 + rng.range(0.25 * cell, 0.75 * cell),
                y0 + rng.range(0.25 * cell, 0.75 * cell),
            )
        })
        .collect();
    place(rng, &centres, per_cluster, radius)
}

fn place(rng: &mut Rng, centres: &[(f64, f64)], per_cluster: usize, radius: f64) -> Vec<Point> {
    let mut points = Vec::with_capacity(centres.len() * per_cluster);
    for &(cx, cy) in centres {
        for _ in 0..per_cluster {
            points.push(Point::new(
                cx + rng.range(-radius, radius),
                cy + rng.range(-radius, radius),
            ));
        }
    }
    points
}

/// The MST of `points`, oriented towards node 0.
pub fn mst_links(points: &[Point]) -> Vec<Link> {
    euclidean_mst(points)
        .and_then(|tree| tree.try_orient_towards(0))
        .expect("seeded deployments have distinct points")
}

/// An FNV-1a fold of the links' coordinates: two inputs differ iff (almost
/// surely) their digests do.
pub fn digest(links: &[Link]) -> u64 {
    links.iter().fold(0xCBF2_9CE4_8422_2325, |h, l| {
        [l.sender.x, l.sender.y, l.receiver.x, l.receiver.y]
            .iter()
            .fold(h, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01B3))
    })
}

/// The three kinds of timed op. `Op` is the workload's primary op, the one
/// `op_p50_ms` / `op_p90_ms` describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Op,
    Read,
    Bulk,
}

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub ms: f64,
    pub ok: bool,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Every timed op, in issue order (per client).
    pub samples: Vec<Sample>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Calibration-kernel times (ms): bursts around the timed phase, plus
    /// single runs between ops on the in-process workloads.
    pub calibration_ms: Vec<f64>,
    /// Whether the reported times are scaled to the nominal machine (see
    /// [`Outcome::speed`]); set by the single-threaded in-process
    /// workloads, whose ops do the same kind of work on the same thread as
    /// the calibration runs between them.
    pub scaled: bool,
    pub slots_sum: u64,
    pub solves: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Digest of the generated inputs (seed-discipline test).
    pub inputs: u64,
    /// Run-header lines: input shape and op mix.
    pub notes: Vec<String>,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one timed op. A failed op counts as infinitely slow.
    pub fn push(&mut self, kind: Kind, ms: f64, ok: bool) {
        self.samples.push(Sample { kind, ms, ok });
    }

    /// Marks an already recorded op failed (a check made after timing).
    pub fn fail(&mut self, index: usize, why: String) {
        self.samples[index].ok = false;
        self.error(why);
    }

    pub fn error(&mut self, why: String) {
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Runs the calibration kernel `runs` times on this thread, outside any
    /// timed region.
    pub fn calibrate(&mut self, runs: usize) {
        self.calibration_ms
            .extend((0..runs).map(|_| reference_ms()));
    }

    /// Counts one solve toward the mean schedule length.
    pub fn solved(&mut self, slots: usize) {
        self.slots_sum += slots as u64;
        self.solves += 1;
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Latencies of one kind, failed ones as +inf, sorted.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| if s.ok { s.ms } else { f64::INFINITY })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Factor from this run's wall time to nominal-machine time: the
    /// calibration kernel's nominal time over its median in this run, or 1
    /// for a workload that reports wall clock. The host's per-core speed
    /// drifts by up to 2x over minutes with its other tenants, and the kernel
    /// drifts with it, so the scaled times of the same work agree across
    /// runs.
    pub fn speed(&self) -> f64 {
        if self.scaled && !self.calibration_ms.is_empty() {
            NOMINAL_CALIBRATION_MS / median(&self.calibration_ms)
        } else {
            1.0
        }
    }

    pub fn mean_slots(&self) -> f64 {
        self.slots_sum as f64 / self.solves.max(1) as f64
    }
}

/// Whether `schedule` puts every one of `num_links` links in exactly one
/// slot. Every solve of every workload passes through this check.
pub fn is_partition(schedule: &Schedule, num_links: usize) -> bool {
    schedule.is_partition(num_links)
}

/// Linear-interpolated quantile of sorted values (NaN when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of the shim's worker pool (named `wagg-par-*`) alive in this
/// process. The pool spawns on the first parallel kernel call, so a nonzero
/// count after such a call shows the parallel kernels were compiled in,
/// whichever crate's feature switched them on.
pub fn pool_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|name| name.starts_with("wagg-par"))
        .count()
}

/// Host-wide counters for the run header: steal jiffies summed over CPUs
/// (`/proc/stat`) and this process's CPU seconds (`/proc/self/stat`).
pub fn steal_and_cpu() -> (f64, f64) {
    let steal = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    let cpu = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0);
    (steal / 100.0, cpu)
}

/// Host readings around a timed phase: calibration bursts right before and
/// right after it, and the host's steal and this process's CPU time.
pub struct Phase {
    steal: f64,
    cpu: f64,
    /// Calibration runs recorded before the phase began.
    calibrations: usize,
}

impl Phase {
    pub fn start(out: &mut Outcome) -> Phase {
        out.calibrate(CALIBRATION_BURST);
        let (steal, cpu) = steal_and_cpu();
        Phase {
            steal,
            cpu,
            calibrations: out.calibration_ms.len(),
        }
    }

    /// Ends the phase after `wall_s`; the calibration runs made between
    /// ops do not count toward the phase's time.
    pub fn finish(self, out: &mut Outcome, wall_s: f64) {
        let (steal, cpu) = steal_and_cpu();
        let between_ops: f64 = out.calibration_ms[self.calibrations..].iter().sum();
        out.calibrate(CALIBRATION_BURST);
        out.timed_s = wall_s - between_ops / 1e3;
        out.notes.push(format!(
            "timed phase: wall {wall_s:.2} s, process cpu {:.2} s, host steal {:.2} cpu-s; calibration kernel median {:.4} ms over {} runs",
            cpu - self.cpu,
            steal - self.steal,
            median(&out.calibration_ms),
            out.calibration_ms.len(),
        ));
    }
}

/// The calibration kernel's median time on the nominal machine, in ms: a
/// 2-vCPU x86-64 VM whose neighbours leave its cores alone.
const NOMINAL_CALIBRATION_MS: f64 = 1.0;

/// Calibration-kernel runs in each burst around a timed phase.
const CALIBRATION_BURST: usize = 25;

/// The benchmark's own calibration kernel — a sort of 40 000 pseudo-random
/// keys and a windowed nearest-neighbour scan over 4 000 points: integer,
/// branch and floating-point work like the program's, but none of its
/// code, so no change to the program can move it. Returns its wall time.
pub fn reference_ms() -> f64 {
    let mut rng = Rng::new(0x5EED, 0);
    let t0 = std::time::Instant::now();
    let mut keys: Vec<u64> = (0..40_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let points: Vec<(f64, f64)> = (0..4_000)
        .map(|_| (rng.range(0.0, 1.0), rng.range(0.0, 1.0)))
        .collect();
    let mut total = 0.0;
    for (i, a) in points.iter().enumerate() {
        let window = &points[(i + 1).min(points.len())..(i + 64).min(points.len())];
        let nearest = window
            .iter()
            .map(|b| ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt())
            .fold(f64::INFINITY, f64::min);
        if nearest.is_finite() {
            total += nearest;
        }
    }
    std::hint::black_box((keys[keys.len() / 2], total));
    t0.elapsed().as_secs_f64() * 1e3
}
