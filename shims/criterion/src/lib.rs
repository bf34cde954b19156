//! Offline stand-in for `criterion`.
//!
//! Implements the benchmark-harness subset the workspace's bench targets use
//! (`criterion_group!` / `criterion_main!`, benchmark groups, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `black_box`) with adaptive wall-clock
//! timing: each benchmark is warmed up once, the iteration count is scaled to
//! a ~200 ms measurement window (a group's `measurement_time` widens it; a
//! routine slower than the window is timed once), and the mean/min
//! nanoseconds per iteration are printed and recorded.
//!
//! On exit, `criterion_main!` writes every recorded measurement as JSON to
//! `$CRITERION_BENCH_JSON` if set, else `BENCH_<target>.json` in the current
//! directory — this is how the repository's `BENCH_kernel.json` perf
//! trajectory file is produced.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// Target measurement window per benchmark.
const TARGET_WINDOW: Duration = Duration::from_millis(200);

/// One recorded measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Group name (empty for ungrouped benchmarks).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns: f64,
    /// Iterations per sample.
    pub iters: u64,
    /// Number of samples taken.
    pub samples: u64,
}

/// Identifier for a parameterised benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`, criterion's conventional display form.
    pub fn new<S: Into<String>, P: std::fmt::Display>(name: S, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{}/{parameter}", name.into()),
        }
    }

    /// An id carrying only the parameter.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Things accepted as benchmark identifiers (`&str` or [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The display label.
    fn label(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn label(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn label(self) -> String {
        self.label
    }
}

/// Passed to benchmark closures; `iter` performs the measurement.
#[derive(Debug)]
pub struct Bencher {
    sample_size: u64,
    window: Duration,
    result: Option<(f64, f64, u64, u64)>,
}

impl Bencher {
    /// Measures `routine`, adaptively choosing the iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up + calibration run.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));

        // Aim for the window in total across `samples` samples.
        let per_sample = (self.window.as_nanos() / self.sample_size.max(1) as u128).max(1);
        let iters = ((per_sample / once.as_nanos().max(1)) as u64).clamp(1, 1_000_000);
        let samples = if once >= self.window {
            1
        } else {
            self.sample_size.max(1)
        };

        let mut total = Duration::ZERO;
        let mut min = f64::INFINITY;
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            total += elapsed;
            let per_iter = elapsed.as_nanos() as f64 / iters as f64;
            if per_iter < min {
                min = per_iter;
            }
        }
        let mean = total.as_nanos() as f64 / (samples * iters) as f64;
        self.result = Some((mean, min, iters, samples));
    }
}

/// A named group of benchmarks sharing settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
    window: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Sets the measurement window per benchmark (default ~200 ms), so a
    /// routine that fits in it is still timed `sample_size` times.
    pub fn measurement_time(&mut self, window: Duration) -> &mut Self {
        self.window = window;
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let label = id.label();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            window: self.window,
            result: None,
        };
        f(&mut bencher);
        self.criterion.record(&self.name, &label, bencher);
        self
    }

    /// Runs a benchmark that borrows a prepared input.
    pub fn bench_with_input<I, P, F>(&mut self, id: I, input: &P, mut f: F) -> &mut Self
    where
        I: IntoBenchmarkId,
        P: ?Sized,
        F: FnMut(&mut Bencher, &P),
    {
        let label = id.label();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            window: self.window,
            result: None,
        };
        f(&mut bencher, input);
        self.criterion.record(&self.name, &label, bencher);
        self
    }

    /// Ends the group (bookkeeping no-op; results are recorded eagerly).
    pub fn finish(&mut self) {}
}

/// The benchmark harness: collects results across groups.
#[derive(Debug, Default)]
pub struct Criterion {
    /// All measurements recorded so far.
    pub records: Vec<BenchRecord>,
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 20,
            window: TARGET_WINDOW,
            criterion: self,
        }
    }

    /// Runs an ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            sample_size: 20,
            window: TARGET_WINDOW,
            result: None,
        };
        f(&mut bencher);
        self.record("", id, bencher);
        self
    }

    fn record(&mut self, group: &str, id: &str, bencher: Bencher) {
        let (mean_ns, min_ns, iters, samples) =
            bencher.result.unwrap_or((f64::NAN, f64::NAN, 0, 0));
        let full = if group.is_empty() {
            id.to_string()
        } else {
            format!("{group}/{id}")
        };
        eprintln!(
            "bench: {full:<56} {:>14} /iter (min {})",
            fmt_ns(mean_ns),
            fmt_ns(min_ns)
        );
        self.records.push(BenchRecord {
            group: group.to_string(),
            id: id.to_string(),
            mean_ns,
            min_ns,
            iters,
            samples,
        });
    }

    /// Writes all recorded results as JSON. Called by `criterion_main!`.
    pub fn finalize(&self) {
        let path = std::env::var("CRITERION_BENCH_JSON").unwrap_or_else(|_| {
            let stem = std::env::args()
                .next()
                .and_then(|argv0| {
                    std::path::Path::new(&argv0)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                })
                .unwrap_or_else(|| "bench".to_string());
            // Cargo suffixes bench executables with `-<16 hex digits>`.
            let stem = match stem.rsplit_once('-') {
                Some((prefix, hash))
                    if hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()) =>
                {
                    prefix.to_string()
                }
                _ => stem,
            };
            format!("BENCH_{stem}.json")
        });
        let mut out = String::from("{\n  \"harness\": \"criterion-shim\",\n  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i + 1 == self.records.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"group\": \"{}\", \"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}, \"samples\": {}}}{sep}\n",
                escape(&r.group),
                escape(&r.id),
                r.mean_ns,
                r.min_ns,
                r.iters,
                r.samples,
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("criterion-shim: could not write {path}: {e}");
        } else {
            eprintln!("criterion-shim: results written to {path}");
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_string()
    } else if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the benchmark `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs bench targets with `--test`; measuring there
            // would only slow the suite down, so bail out early.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_plausible_timings() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("unit");
            g.sample_size(5);
            g.bench_function("sum", |b| b.iter(|| (0..1000u64).sum::<u64>()));
            g.finish();
        }
        assert_eq!(c.records.len(), 1);
        let r = &c.records[0];
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns * 1.5);
    }

    #[test]
    fn benchmark_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("build", 100).to_string(), "build/100");
        assert_eq!(BenchmarkId::from_parameter(42).to_string(), "42");
    }
}
