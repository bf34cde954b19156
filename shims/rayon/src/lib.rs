//! Offline stand-in for `rayon`, covering the `par_iter` subset the
//! interference kernels use.
//!
//! The build environment has no crates.io access, so this crate implements the
//! rayon API shape the workspace needs on top of a **persistent worker pool**:
//!
//! * `slice.par_iter().map(f).sum::<f64>()` / `.collect::<Vec<_>>()` / `.all(p)`
//! * `(0..n).into_par_iter().map(f).collect::<Vec<_>>()`
//! * `current_num_threads()`
//!
//! Worker threads are spawned **once**, on the first parallel call, and reused
//! by every subsequent call (they park between jobs), which amortises the
//! thread-spawn latency the previous `std::thread::scope`-per-call engine paid
//! on every kernel invocation — a visible win for the fine-grained calls the
//! incremental engine makes per churn event. Work is distributed over the
//! workers through a block-stealing atomic cursor (so irregular per-item costs
//! balance), and **results are always reassembled in input order**. `map`
//! hands back a [`ParMap`], which runs nothing until a fold or `collect`
//! consumes it. On the pool, the closure runs in parallel, the mapped values
//! are reassembled, and `sum`/`reduce`/`max`/`all` then fold them **serially
//! in input order**. Where a call runs inline (no pool, a short input, or a
//! call inside a pool job), each fold consumes every value as the closure
//! returns it, in input order, with no buffer in between, and `all` stops
//! at the first failure, as `Iterator::all` does. Either way, sums are
//! bit-identical to their serial counterparts — a stronger guarantee than
//! crates.io rayon's tree reduction, and the property the SINR kernels'
//! "parallel equals serial" tests rely on.
//!
//! Pool mechanics worth knowing:
//!
//! * **Scoped borrows** — jobs may capture non-`'static` references; the
//!   submitting thread never returns before every worker has finished the
//!   job (a completion barrier), so the borrows outlive all uses.
//! * **Reentrancy** — a parallel call made from inside a pool job (nested
//!   parallelism) runs serially inline instead of deadlocking on the pool.
//! * **Panics** — a panic in any worker is caught and re-raised on the
//!   submitting thread once the job has fully drained, matching the
//!   `std::thread::scope` behaviour the previous engine had.
//!
//! Inputs shorter than [`MIN_PARALLEL_LEN`] are processed inline: below that
//! size even a parked-thread wakeup dominates any speedup.
//!
//! The pool is the `pool` feature. Without it [`current_num_threads`] is 1,
//! so every adapter maps inline on the calling thread and no worker ever
//! starts: the same calls, run serially in input order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Inputs shorter than this are mapped serially on the calling thread.
pub const MIN_PARALLEL_LEN: usize = 16;

/// Number of threads parallel operations fan out over (workers + caller),
/// under rayon's name for it: 1 without the `pool` feature. Read once, as
/// the pool is sized once: the standard library's query reads the process's
/// CPU quota from files on every call (about 20 µs on Linux).
pub fn current_num_threads() -> usize {
    if !cfg!(feature = "pool") {
        return 1;
    }
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A job pointer broadcast to the workers. The `'static` lifetime is a lie
/// erased by [`run_on_pool`]; soundness comes from its completion barrier
/// (the submitter blocks until every worker is done with the job).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared execution is fine) and the barrier in
// `run_on_pool` guarantees it outlives every worker's use.
unsafe impl Send for JobPtr {}

struct PoolState {
    /// Monotone job counter; workers run one pass per unseen epoch.
    epoch: u64,
    /// The job of the current epoch, if one is in flight.
    job: Option<JobPtr>,
    /// Workers still executing the current job.
    running: usize,
    /// First panic payload raised by a worker during the current job.
    panic: Option<Box<dyn Any + Send>>,
}

/// The persistent worker pool: spawned once, reused by every parallel call.
struct Pool {
    state: Mutex<PoolState>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The submitter waits here for `running == 0`.
    done: Condvar,
    /// Number of worker threads the pool wants to run.
    workers: usize,
    /// Number of worker threads that actually spawned (a failed spawn —
    /// thread limits, OOM — must not leave the barrier waiting for a
    /// decrement that can never come).
    spawned: AtomicUsize,
    /// Serialises top-level parallel calls: one broadcast job at a time.
    gate: Mutex<()>,
}

static POOL: OnceLock<Option<Pool>> = OnceLock::new();

thread_local! {
    /// Set while this thread is executing (part of) a pool job; nested
    /// parallel calls check it and run inline instead of re-entering the pool.
    static IN_POOL_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn in_pool_job() -> bool {
    IN_POOL_JOB.with(|f| f.get())
}

/// The process-wide pool, spawning its workers on first use. `None` when
/// there is one thread to run on (everything runs serially then).
fn pool() -> Option<&'static Pool> {
    let pool = POOL
        .get_or_init(|| {
            let workers = current_num_threads().saturating_sub(1);
            if workers == 0 {
                return None;
            }
            Some(Pool {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    running: 0,
                    panic: None,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                workers,
                spawned: AtomicUsize::new(0),
                gate: Mutex::new(()),
            })
        })
        .as_ref();
    if let Some(pool) = pool {
        spawn_workers(pool);
    }
    pool
}

/// Spawns the worker threads exactly once (detached; they park between jobs
/// and die with the process).
fn spawn_workers(pool: &'static Pool) {
    static SPAWNED: OnceLock<()> = OnceLock::new();
    SPAWNED.get_or_init(|| {
        for i in 0..pool.workers {
            if std::thread::Builder::new()
                .name(format!("wagg-par-{i}"))
                .spawn(move || worker_loop(pool))
                .is_ok()
            {
                pool.spawned.fetch_add(1, Ordering::Release);
            }
        }
    });
}

fn worker_loop(pool: &'static Pool) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(job) = st.job {
                        break job;
                    }
                }
                st = pool.work.wait(st).unwrap();
            }
        };
        IN_POOL_JOB.with(|f| f.set(true));
        // SAFETY: the submitter's barrier keeps the job alive until `running`
        // drops to zero below.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
        IN_POOL_JOB.with(|f| f.set(false));
        let mut st = pool.state.lock().unwrap();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.running -= 1;
        if st.running == 0 {
            pool.done.notify_all();
        }
    }
}

/// Runs `f` once on the calling thread and once on every pool worker,
/// returning only after all of them finish (the completion barrier that makes
/// borrowing jobs sound). Falls back to a single inline call when no pool is
/// available or the call is nested inside a pool job.
fn run_on_pool(f: &(dyn Fn() + Sync)) {
    let Some(pool) = pool() else {
        f();
        return;
    };
    if in_pool_job() {
        // Nested parallelism: the pool is (or may be) busy with the job this
        // thread is part of; run inline to avoid deadlock.
        f();
        return;
    }
    // Another top-level job in flight (or a poisoned gate): rather than
    // blocking idle until it drains, do this call's whole share serially on
    // the calling thread — work-conserving, and the block-stealing cursor
    // makes the result identical.
    let Ok(gate) = pool.gate.try_lock() else {
        f();
        return;
    };
    let workers = pool.spawned.load(Ordering::Acquire);
    if workers == 0 {
        // Every spawn failed: the calling thread is the whole pool.
        f();
        return;
    }
    // SAFETY (lifetime erasure): workers only dereference the pointer before
    // the barrier below releases, while `f` is still live on this frame.
    let job = JobPtr(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync + 'static)>(
            f as *const _,
        )
    });
    {
        let mut st = pool.state.lock().unwrap();
        st.epoch += 1;
        st.job = Some(job);
        st.running = workers;
        st.panic = None;
        pool.work.notify_all();
    }
    // The submitting thread participates too; even if its share panics, the
    // barrier must still drain before unwinding past the borrowed job.
    IN_POOL_JOB.with(|flag| flag.set(true));
    let mine = catch_unwind(AssertUnwindSafe(f));
    IN_POOL_JOB.with(|flag| flag.set(false));
    let worker_panic = {
        let mut st = pool.state.lock().unwrap();
        while st.running > 0 {
            st = pool.done.wait(st).unwrap();
        }
        st.job = None;
        st.panic.take()
    };
    drop(gate);
    if let Err(payload) = mine {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Whether a call over `n` items runs inline on the calling thread: a short
/// input, one thread, or a call from inside a pool job.
fn runs_inline(n: usize) -> bool {
    n < MIN_PARALLEL_LEN || current_num_threads() <= 1 || in_pool_job()
}

/// Runs `f(i)` for every `i in 0..n` in parallel, returning results in index
/// order. The core primitive behind every adapter in this crate.
fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if runs_inline(n) {
        return (0..n).map(f).collect();
    }
    let threads = current_num_threads();
    // Block-stealing: participants pull fixed-size index blocks from a shared
    // cursor, so a few expensive items cannot serialise the whole call.
    let block = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(n / block + 1));
    run_on_pool(&|| loop {
        let start = cursor.fetch_add(block, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + block).min(n);
        let chunk: Vec<R> = (start..end).map(&f).collect();
        done.lock().unwrap().push((start, chunk));
    });
    let mut blocks = done.into_inner().unwrap();
    blocks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, chunk) in blocks {
        out.extend(chunk);
    }
    out
}

/// Whether `f(i)` holds for every `i in 0..n`, with cooperative
/// short-circuiting: the first failure raises a cancellation flag that every
/// participant checks per item, so an early counterexample stops the whole
/// call in ~one item per worker (matching the serial `Iterator::all` cost
/// profile on infeasible inputs instead of paying for the full scan).
fn par_all_indexed<F>(n: usize, f: F) -> bool
where
    F: Fn(usize) -> bool + Sync,
{
    if runs_inline(n) {
        return (0..n).all(f);
    }
    let threads = current_num_threads();
    let block = (n / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);
    run_on_pool(&|| 'work: loop {
        if failed.load(Ordering::Relaxed) {
            break;
        }
        let start = cursor.fetch_add(block, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for i in start..(start + block).min(n) {
            if failed.load(Ordering::Relaxed) {
                break 'work;
            }
            if !f(i) {
                failed.store(true, Ordering::Relaxed);
                break 'work;
            }
        }
    });
    !failed.load(Ordering::Relaxed)
}

/// An indexed input of a parallel `map`: a slice, an enumerated slice or a
/// range of indices.
pub trait ParSource: Sync {
    /// What the mapped closure receives.
    type Item;

    /// Number of items.
    fn count(&self) -> usize;

    /// The item at `i < count()`.
    fn get(&self, i: usize) -> Self::Item;

    /// The items in order, as the serial iterator gives them.
    fn items(&self) -> impl Iterator<Item = Self::Item>;
}

/// A parallel `map`, run by the fold or `collect` that consumes it.
#[derive(Debug)]
pub struct ParMap<S, F> {
    source: S,
    f: F,
}

impl<S, R, F> ParMap<S, F>
where
    S: ParSource,
    R: Send,
    F: Fn(S::Item) -> R + Sync,
{
    /// The mapped values, materialised by the pool in input order.
    fn mapped(&self) -> Vec<R> {
        par_map_indexed(self.source.count(), |i| (self.f)(self.source.get(i)))
    }

    /// The mapped values, computed on the calling thread one by one.
    fn inline(&self) -> impl Iterator<Item = R> + '_ {
        self.source.items().map(&self.f)
    }

    /// Serial, input-order sum of the mapped values.
    #[allow(clippy::should_implement_trait)]
    pub fn sum<Sum: std::iter::Sum<R>>(self) -> Sum {
        let n = self.source.count();
        if runs_inline(n) {
            self.inline().sum()
        } else {
            self.mapped().into_iter().sum()
        }
    }

    /// Collects the mapped values, in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.mapped().into_iter().collect()
    }

    /// Serial, input-order fold with `identity` as the empty value.
    pub fn reduce<Id, Op>(self, identity: Id, op: Op) -> R
    where
        Id: Fn() -> R,
        Op: Fn(R, R) -> R,
    {
        let n = self.source.count();
        if runs_inline(n) {
            self.inline().fold(identity(), op)
        } else {
            self.mapped().into_iter().fold(identity(), op)
        }
    }

    /// Maximum of the mapped values.
    pub fn max(self) -> Option<R>
    where
        R: Ord,
    {
        let n = self.source.count();
        if runs_inline(n) {
            self.inline().max()
        } else {
            self.mapped().into_iter().max()
        }
    }

    /// Whether all mapped values satisfy `p`; inline, the first failure
    /// stops the map.
    pub fn all<P: Fn(R) -> bool>(self, p: P) -> bool {
        let n = self.source.count();
        if runs_inline(n) {
            self.inline().all(p)
        } else {
            self.mapped().into_iter().all(p)
        }
    }
}

/// Parallel iterator over `&[T]`, created by [`IntoParallelRefIterator::par_iter`].
#[derive(Debug)]
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    /// Applies `f` to every element in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<Self, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap { source: self, f }
    }

    /// Pairs every element with its index, as rayon's `enumerate` does.
    pub fn enumerate(self) -> ParSliceEnumerate<'a, T> {
        ParSliceEnumerate { slice: self.slice }
    }

    /// Whether `p` holds for every element, with cooperative short-circuiting
    /// on the first failure (see `par_all_indexed`).
    pub fn all<P>(self, p: P) -> bool
    where
        P: Fn(&'a T) -> bool + Sync,
    {
        par_all_indexed(self.slice.len(), |i| p(&self.slice[i]))
    }

    /// Runs `f` on every element in parallel, for side effects.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        par_map_indexed(self.slice.len(), |i| f(&self.slice[i]));
    }
}

/// Enumerated variant of [`ParSliceIter`].
#[derive(Debug)]
pub struct ParSliceEnumerate<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSliceEnumerate<'a, T> {
    /// Applies `f` to every `(index, element)` pair in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<Self, F>
    where
        R: Send,
        F: Fn((usize, &'a T)) -> R + Sync,
    {
        ParMap { source: self, f }
    }
}

/// Parallel iterator over an index range, created by
/// [`IntoParallelIterator::into_par_iter`].
#[derive(Debug)]
pub struct ParRangeIter {
    start: usize,
    end: usize,
}

impl ParRangeIter {
    /// Applies `f` to every index in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<Self, F>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        ParMap { source: self, f }
    }

    /// Runs `f` on every index in parallel, for side effects.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = self.start;
        par_map_indexed(self.end.saturating_sub(start), |i| f(start + i));
    }

    /// Whether `p` holds for every index, with cooperative short-circuiting
    /// on the first failure (see `par_all_indexed`).
    pub fn all<P>(self, p: P) -> bool
    where
        P: Fn(usize) -> bool + Sync,
    {
        let start = self.start;
        par_all_indexed(self.end.saturating_sub(start), |i| p(start + i))
    }
}

impl<'a, T: Sync> ParSource for ParSliceIter<'a, T> {
    type Item = &'a T;

    fn count(&self) -> usize {
        self.slice.len()
    }

    fn get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }

    fn items(&self) -> impl Iterator<Item = &'a T> {
        self.slice.iter()
    }
}

impl<'a, T: Sync> ParSource for ParSliceEnumerate<'a, T> {
    type Item = (usize, &'a T);

    fn count(&self) -> usize {
        self.slice.len()
    }

    fn get(&self, i: usize) -> (usize, &'a T) {
        (i, &self.slice[i])
    }

    fn items(&self) -> impl Iterator<Item = (usize, &'a T)> {
        self.slice.iter().enumerate()
    }
}

impl ParSource for ParRangeIter {
    type Item = usize;

    fn count(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    fn get(&self, i: usize) -> usize {
        self.start + i
    }

    fn items(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }
}

/// Mirror of rayon's by-reference conversion trait.
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator type.
    type Iter;

    /// Creates a parallel iterator borrowing from `self`.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = ParSliceIter<'a, T>;

    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = ParSliceIter<'a, T>;

    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { slice: self }
    }
}

/// Mirror of rayon's by-value conversion trait (ranges only).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRangeIter;

    fn into_par_iter(self) -> ParRangeIter {
        ParRangeIter {
            start: self.start,
            end: self.end,
        }
    }
}

/// The usual glob-import module: `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let input: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sum_matches_serial_bitwise() {
        let xs: Vec<f64> = (0..5000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let serial: f64 = xs.iter().map(|x| x.sin()).sum();
        let parallel: f64 = xs.par_iter().map(|x| x.sin()).sum();
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn range_map_and_enumerate() {
        let squares: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[99], 9801);
        let xs = vec![10, 20, 30];
        let tagged: Vec<(usize, i32)> = xs.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert_eq!(tagged, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn all_detects_failures() {
        let xs: Vec<usize> = (0..1000).collect();
        assert!(xs.par_iter().all(|&x| x < 1000));
        assert!(!xs.par_iter().all(|&x| x < 999));
        assert!((0..1000usize).into_par_iter().all(|x| x < 1000));
        assert!(!(0..1000usize).into_par_iter().all(|x| x != 0));
    }

    #[test]
    fn all_short_circuits_quickly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evaluated = AtomicUsize::new(0);
        let xs: Vec<usize> = (0..100_000).collect();
        let ok = xs.par_iter().all(|&x| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            x != 0 // fails immediately on the first element
        });
        assert!(!ok);
        // Cancellation is cooperative, not instant, but must prune the bulk.
        assert!(evaluated.load(Ordering::Relaxed) < 50_000);
    }

    #[test]
    fn tiny_inputs_run_serially() {
        let xs = vec![1, 2, 3];
        let s: i32 = xs.par_iter().map(|&x| x).sum();
        assert_eq!(s, 6);
    }

    #[test]
    fn workers_are_persistent_across_calls() {
        // With spawn-per-call engines every call creates fresh threads (Rust
        // ThreadIds are never reused); with the persistent pool the set of
        // distinct executing threads across many calls stays bounded by
        // workers + callers.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        for _ in 0..25 {
            let xs: Vec<usize> = (0..50_000).collect();
            let _: usize = xs
                .par_iter()
                .map(|&x| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    x
                })
                .sum();
        }
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= super::current_num_threads() + 1,
            "{distinct} distinct threads across 25 calls — workers were not reused"
        );
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        // A parallel call issued from inside a pool job must not deadlock;
        // it runs serially on the worker instead.
        let outer: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| (0..64usize).into_par_iter().map(|j| i + j).sum::<usize>())
            .collect();
        let expect: Vec<usize> = (0..64usize)
            .map(|i| (0..64usize).map(|j| i + j).sum::<usize>())
            .collect();
        assert_eq!(outer, expect);
    }

    #[cfg(not(feature = "pool"))]
    #[test]
    fn without_the_pool_every_call_runs_on_the_calling_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        assert_eq!(super::current_num_threads(), 1);
        let caller = std::thread::current().id();
        let n = 64 * super::MIN_PARALLEL_LEN;
        let elsewhere = AtomicUsize::new(0);
        let on_caller = |x: usize| {
            if std::thread::current().id() != caller {
                elsewhere.fetch_add(1, Ordering::Relaxed);
            }
            x
        };
        let xs: Vec<usize> = (0..n).collect();
        let mapped: Vec<usize> = xs.par_iter().map(|&x| on_caller(x)).collect();
        assert_eq!(mapped, xs);
        assert!((0..n).into_par_iter().all(|i| on_caller(i) < n));
        assert_eq!(elsewhere.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn inline_all_stops_the_map_at_the_first_failure() {
        // A short input runs inline in every build; without the pool a long
        // one does too.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let lens: &[usize] = if cfg!(feature = "pool") {
            &[super::MIN_PARALLEL_LEN - 1]
        } else {
            &[super::MIN_PARALLEL_LEN - 1, 1000]
        };
        for &n in lens {
            let calls = AtomicUsize::new(0);
            let xs: Vec<usize> = (0..n).collect();
            let ok = xs
                .par_iter()
                .map(|&x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    x
                })
                .all(|x| x != 3);
            assert!(!ok);
            assert_eq!(calls.load(Ordering::Relaxed), 4, "{n} items");
            calls.store(0, Ordering::Relaxed);
            let ok = (0..n)
                .into_par_iter()
                .map(|x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    x
                })
                .all(|x| x != 3);
            assert!(!ok);
            assert_eq!(calls.load(Ordering::Relaxed), 4, "{n} items");
        }
    }

    #[test]
    fn folds_equal_serial_folds_bit_for_bit() {
        for n in [
            0,
            3,
            super::MIN_PARALLEL_LEN - 1,
            super::MIN_PARALLEL_LEN,
            5000,
        ] {
            let xs: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            let serial: f64 = xs.iter().map(|x| x.sin()).sum();
            let parallel: f64 = xs.par_iter().map(|x| x.sin()).sum();
            assert_eq!(serial.to_bits(), parallel.to_bits(), "{n} items");
            let by_index: f64 = (0..n).into_par_iter().map(|i| xs[i].sin()).sum();
            assert_eq!(serial.to_bits(), by_index.to_bits(), "{n} items");
            let enumerated: f64 = xs.par_iter().enumerate().map(|(_, x)| x.sin()).sum();
            assert_eq!(serial.to_bits(), enumerated.to_bits(), "{n} items");
            let folded = xs
                .par_iter()
                .map(|x| x.cos())
                .reduce(|| 0.5, |a, b| a * 0.75 + b);
            let expected = xs.iter().map(|x| x.cos()).fold(0.5, |a, b| a * 0.75 + b);
            assert_eq!(folded.to_bits(), expected.to_bits(), "{n} items");
            let max = (0..n).into_par_iter().map(|i| (i * 7919) % 1009).max();
            assert_eq!(max, (0..n).map(|i| (i * 7919) % 1009).max(), "{n} items");
        }
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            let xs: Vec<usize> = (0..10_000).collect();
            let _: Vec<usize> = xs
                .par_iter()
                .map(|&x| {
                    if x == 7777 {
                        panic!("boom");
                    }
                    x
                })
                .collect();
        });
        assert!(result.is_err(), "panic in a pool job must propagate");
        // The pool must stay usable after a panicked job.
        let xs: Vec<usize> = (0..10_000).collect();
        let s: usize = xs.par_iter().map(|&x| x).sum();
        assert_eq!(s, 9999 * 10_000 / 2);
    }
}
