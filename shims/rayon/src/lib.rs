//! Offline stand-in for the crates.io `rayon` crate.
//!
//! The build environment for this reproduction has no registry access,
//! so the workspace vendors the *exact* API surface it uses —
//! `into_par_iter()` on a `Vec` or a `usize` range, followed by
//! `map(...).collect()` — backed by a **persistent worker pool** (like real rayon's global
//! pool). Helper threads are spawned lazily up to the largest worker
//! count ever requested and then parked on a condvar between jobs, so
//! the engine's per-phase parallel calls (several per simulated round)
//! pay a wakeup, not a `thread::spawn`, each time. The submitting
//! thread always participates as worker 0. Results keep input order, so
//! callers observe the same semantics as rayon for these pipelines
//! (deterministic output order, one closure call per item).
//!
//! There is **one scheduler**, [`par_for_each_scratch`]: workers claim
//! item indices one at a time from a shared atomic cursor, so a
//! heterogeneous workload (a `sweep_grid` mixing N=150 and N=10,000
//! scenarios) never serializes on the thread that drew the expensive
//! items. `map` runs on it too, over one (item, result) cell per item;
//! results are read back by item index, so the output is identical for
//! every thread count — including 1.
//!
//! Thread count resolution, in priority order:
//! 1. a scoped [`with_num_threads`] override (used by the determinism
//!    test-suite to pin 1-vs-N schedules);
//! 2. the `RAYON_NUM_THREADS` environment variable (same contract as
//!    real rayon);
//! 3. `std::thread::available_parallelism()`.

use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    //! Drop-in for `rayon::prelude::*`.
    pub use crate::{IntoParallelIterator, ParIter, RangeParIter};
}

/// An eager "parallel iterator": the items are materialised up front and
/// each adaptor applies immediately.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// A parallel iterator over a `usize` range, held as its bounds: `map`
/// computes each item from the start and its offset, so the range
/// itself is never collected.
pub struct RangeParIter {
    range: Range<usize>,
}

/// Types convertible into a parallel iterator by value
/// (`into_par_iter`).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The parallel iterator.
    type Iter;
    /// Converts `self` into a parallel iterator over its items.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;
    fn into_par_iter(self) -> RangeParIter {
        RangeParIter { range: self }
    }
}

impl RangeParIter {
    /// Applies `f` to every item of the range across the persistent
    /// thread pool, preserving order; item `i` is `start + i`, computed
    /// where it is used.
    pub fn map<R: Send, F: Fn(usize) -> R + Sync>(self, f: F) -> ParIter<R> {
        let Range { start, end } = self.range;
        ParIter {
            items: par_map_indices(end.saturating_sub(start), |i| f(start + i)),
        }
    }
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item across the persistent thread pool,
    /// preserving order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_apply(self.items, &f),
        }
    }

    /// Collects the (already computed) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

thread_local! {
    /// Set while a pool worker runs on this thread. Real rayon
    /// shares one global pool, so nested parallelism never
    /// oversubscribes; this shim gets the same property by running
    /// nested maps serially on the already-parallel worker.
    static IN_PAR_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Scoped thread-count override installed by [`with_num_threads`].
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with the shim's thread count pinned to `n` (≥ 1) on this
/// thread, restoring the previous setting afterwards. Scoped and
/// thread-local — unlike an environment variable it cannot race with
/// concurrently running tests. Used by the determinism suite to prove
/// schedules with 1 and N workers produce identical results.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let previous = THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1))));
    let result = f();
    THREAD_OVERRIDE.with(|c| c.set(previous));
    result
}

/// The worker count the shim would use right now (rayon-compatible
/// name): scoped override, then `RAYON_NUM_THREADS`, then the machine's
/// available parallelism. Inside a parallel region this still reports
/// the configured count, but nested parallel calls run serially.
pub fn current_num_threads() -> usize {
    configured_threads()
}

/// Resolves the worker count: scoped override, then `RAYON_NUM_THREADS`,
/// then the machine's available parallelism.
fn configured_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

mod pool {
    //! The persistent worker pool behind
    //! [`par_for_each_scratch`](super::par_for_each_scratch).
    //!
    //! One global pool per process, mirroring real rayon: helper
    //! threads are spawned lazily the first time a job needs them and
    //! then live forever, parked on a condvar. Jobs are serialized by a
    //! submission lock (one fork-join region at a time — concurrent
    //! top-level callers queue, they never oversubscribe), and the
    //! submitting thread runs the job as worker 0 so a pool of `k`
    //! helpers serves `k + 1`-way parallelism.

    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex, OnceLock};

    /// A lifetime-erased job. The erasure is sound because [`run`]
    /// never returns before every participating helper has finished the
    /// job (the `running` latch), so the borrows inside the closure
    /// outlive every use.
    type Job = &'static (dyn Fn(usize) + Sync);

    #[derive(Default)]
    struct State {
        /// Monotonic job id; bumped on every submission. A helper keeps
        /// the last generation it acted on, so condvar wakeups are
        /// idempotent: each helper runs each job at most once.
        generation: u64,
        /// The current job plus the helper count that must run it.
        job: Option<(Job, usize)>,
        /// Participating helpers still inside the current job.
        running: usize,
        /// Helper threads spawned so far (their ordinals are 1..=spawned).
        spawned: usize,
        /// A helper panicked inside the current job.
        panicked: bool,
    }

    struct Pool {
        state: Mutex<State>,
        /// Wakes helpers when a job is published.
        work: Condvar,
        /// Wakes the submitter when the last helper finishes.
        done: Condvar,
        /// Serializes whole jobs.
        submit: Mutex<()>,
    }

    /// Poison-tolerant lock: jobs are wrapped in `catch_unwind` and the
    /// submitter re-raises only after restoring a consistent state, so a
    /// poisoned mutex carries no broken invariants — recover the guard.
    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn pool() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            submit: Mutex::new(()),
        })
    }

    /// Restores the caller's `IN_PAR_REGION` flag on drop, so a
    /// panicking job cannot leave the submitting thread marked as
    /// inside a parallel region.
    struct RegionGuard(bool);

    impl Drop for RegionGuard {
        fn drop(&mut self) {
            super::IN_PAR_REGION.with(|flag| flag.set(self.0));
        }
    }

    /// The body of one persistent helper thread.
    fn helper(ordinal: usize) {
        // Helpers only ever execute inside a job, so the nested-
        // parallelism flag is permanently set for them.
        super::IN_PAR_REGION.with(|flag| flag.set(true));
        let p = pool();
        let mut seen = 0u64;
        loop {
            let job = {
                let mut st = lock(&p.state);
                loop {
                    match st.job {
                        Some((job, helpers)) if st.generation > seen => {
                            seen = st.generation;
                            break (ordinal <= helpers).then_some(job);
                        }
                        _ => {
                            st = p
                                .work
                                .wait(st)
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                        }
                    }
                }
            };
            let Some(job) = job else { continue };
            let ok = catch_unwind(AssertUnwindSafe(|| job(ordinal))).is_ok();
            let mut st = lock(&p.state);
            if !ok {
                st.panicked = true;
            }
            st.running -= 1;
            if st.running == 0 {
                p.done.notify_all();
            }
        }
    }

    /// Runs `job(w)` once for every worker `w` in `0..=helpers`: the
    /// caller executes ordinal 0 itself, persistent helpers execute
    /// 1..=helpers concurrently. Returns only after every participant
    /// has finished; a panic on any worker is re-raised here (the
    /// helpers themselves survive and keep serving later jobs).
    pub(super) fn run(job: &(dyn Fn(usize) + Sync), helpers: usize) {
        if helpers == 0 {
            let _guard = RegionGuard(super::IN_PAR_REGION.with(|flag| flag.replace(true)));
            job(0);
            return;
        }
        let p = pool();
        let _submit = lock(&p.submit);
        // SAFETY: only the lifetime is erased; the completion latch
        // below keeps the borrow alive past every helper's last use.
        let job: Job = unsafe { std::mem::transmute(job) };
        {
            let mut st = lock(&p.state);
            while st.spawned < helpers {
                let ordinal = st.spawned + 1;
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{ordinal}"))
                    .spawn(move || helper(ordinal))
                    .expect("spawn rayon-shim pool helper");
                st.spawned += 1;
            }
            st.job = Some((job, helpers));
            st.generation += 1;
            st.running = helpers;
            st.panicked = false;
            p.work.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let _guard = RegionGuard(super::IN_PAR_REGION.with(|flag| flag.replace(true)));
            job(0);
        }));
        let mut st = lock(&p.state);
        while st.running > 0 {
            st = p
                .done
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.job = None;
        let helper_panicked = st.panicked;
        drop(st);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        assert!(!helper_panicked, "rayon-shim pool worker panicked");
    }

    /// How many persistent helper threads exist (diagnostics; grows to
    /// the largest helper count any job has requested, never shrinks).
    pub fn spawned_workers() -> usize {
        lock(&pool().state).spawned
    }
}

pub use pool::spawned_workers as pool_spawned_workers;

/// Fork-join map over `items`, preserving input order: each item sits
/// in a cell beside its result slot, and [`par_for_each_mut`]'s workers
/// claim the cells one at a time from its atomic cursor.
fn par_apply<T: Send, R: Send, F: Fn(T) -> R + Sync>(items: Vec<T>, f: &F) -> Vec<R> {
    let mut cells: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|item| (Some(item), None)).collect();
    par_for_each_mut(&mut cells, |_, (item, out)| *out = item.take().map(f));
    cells
        .into_iter()
        .map(|(_, r)| r.expect("every item computed exactly once"))
        .collect()
}

/// [`par_apply`] over the indices `0..len`, which need no cells of
/// their own: the result slots are the only storage.
fn par_map_indices<R: Send, F: Fn(usize) -> R + Sync>(len: usize, f: F) -> Vec<R> {
    let mut cells: Vec<Option<R>> = (0..len).map(|_| None).collect();
    par_for_each_mut(&mut cells, |i, out| *out = Some(f(i)));
    cells
        .into_iter()
        .map(|r| r.expect("every item computed exactly once"))
        .collect()
}

/// A `*mut T` that may cross thread boundaries. Soundness rests on the
/// claiming discipline of [`par_for_each_scratch`]: every index is handed
/// out exactly once — by the atomic cursor or the pool's unique worker
/// ordinals — so no two workers ever hold a `&mut` to the same element.
struct SharedMutPtr<T>(*mut T, PhantomData<T>);

unsafe impl<T: Send> Send for SharedMutPtr<T> {}
unsafe impl<T: Send> Sync for SharedMutPtr<T> {}

/// In-place parallel for-each over a mutable slice with **per-worker
/// scratch state** — the primitive behind the simulation engine's
/// intra-run phase parallelism (plan / apply phases iterate disjoint
/// per-node state; per-worker arenas keep the hot path allocation-free).
///
/// Semantics:
///
/// * `f(scratch, index, item)` runs exactly once per element; which
///   worker runs it is schedule-dependent, so `f` must derive its output
///   purely from `(scratch, index, item)` and shared immutable captures
///   — under that contract results are bit-identical for every thread
///   count, including 1.
/// * `scratch` is grown with `S::default()` to the worker count and
///   worker `w` exclusively uses `scratch[w]`; entries persist across
///   calls so capacity is reused round after round.
/// * Indices are claimed from an atomic cursor (dynamic load balancing —
///   heterogeneous per-node costs cannot serialize on one worker).
/// * Inside an already-parallel region (nested call, or a call made from
///   a parallel `map` worker such as a sweep repetition) the loop runs
///   serially on `scratch[0]`, mirroring real rayon's single global pool
///   — never threads².
pub fn par_for_each_scratch<T, S, F>(items: &mut [T], scratch: &mut Vec<S>, f: F)
where
    T: Send,
    S: Send + Default,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let n = items.len();
    let threads = configured_threads().min(n.max(1));
    if scratch.len() < threads {
        scratch.resize_with(threads, S::default);
    }
    if threads <= 1 || IN_PAR_REGION.with(|flag| flag.get()) {
        let s = &mut scratch[0];
        for (i, item) in items.iter_mut().enumerate() {
            f(s, i, item);
        }
        return;
    }

    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let base = SharedMutPtr(items.as_mut_ptr(), PhantomData);
    let base = &base;
    let scratch_base = SharedMutPtr(scratch.as_mut_ptr(), PhantomData);
    let scratch_base = &scratch_base;
    let f = &f;
    pool::run(
        &move |w: usize| {
            // SAFETY: the pool hands each ordinal in 0..threads to
            // exactly one thread per job, so `scratch[w]` is borrowed
            // exclusively (and `w < threads <= scratch.len()` after the
            // resize above).
            let s = unsafe { &mut *scratch_base.0.add(w) };
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: `i` came from a fetch_add, so this worker
                // is the only one ever to receive it; the element
                // borrow is exclusive for the duration of `f`.
                let item = unsafe { &mut *base.0.add(i) };
                f(s, i, item);
            }
        },
        threads - 1,
    );
}

/// [`par_for_each_scratch`] without per-worker state.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let mut scratch: Vec<()> = Vec::new();
    par_for_each_scratch(items, &mut scratch, |(), i, item| f(i, item));
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_maps_compute_each_item_from_the_bounds() {
        let offset: Vec<usize> = (3..7).into_par_iter().map(|x| x * 10).collect();
        assert_eq!(offset, vec![30, 40, 50, 60]);
        let top: Vec<usize> = (usize::MAX - 2..usize::MAX)
            .into_par_iter()
            .map(|x| x)
            .collect();
        assert_eq!(top, vec![usize::MAX - 2, usize::MAX - 1]);
        #[allow(clippy::reversed_empty_ranges)]
        let empty: Vec<usize> = (5..2).into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn vec_maps_by_value_in_order() {
        let data = vec![1.0f64, 2.0, 3.0];
        let out: Vec<f64> = data.into_par_iter().map(|x| x + 0.5).collect();
        assert_eq!(out, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn nested_parallelism_runs_inner_serially() {
        // Outer map is parallel; inner maps must not spawn another
        // thread layer (cores² threads). Observable contract: results
        // are still correct and ordered.
        let out: Vec<Vec<usize>> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                (0..4usize)
                    .into_par_iter()
                    .map(move |j| i * 10 + j)
                    .collect()
            })
            .collect();
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &[i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = Vec::<u64>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn cursor_balances_heterogeneous_items() {
        // The first chunk carries nearly all the work; with even
        // chunking the run serializes on worker 0, with one cursor the
        // other workers claim past it. Correctness contract: identical,
        // ordered output regardless of who computed what.
        crate::with_num_threads(4, || {
            let weights: Vec<u64> = (0..64).map(|i| if i < 16 { 200_000 } else { 10 }).collect();
            let out: Vec<u64> = weights
                .clone()
                .into_par_iter()
                .map(|w| (0..w).fold(0u64, |acc, x| acc.wrapping_add(x % 7)))
                .collect();
            let expect: Vec<u64> = weights
                .into_iter()
                .map(|w| (0..w).fold(0u64, |acc, x| acc.wrapping_add(x % 7)))
                .collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let reference: Vec<usize> = crate::with_num_threads(1, || {
            (0..500usize)
                .into_par_iter()
                .map(|x| x.wrapping_mul(x))
                .collect()
        });
        for threads in [2, 3, 8, 64] {
            let out: Vec<usize> = crate::with_num_threads(threads, || {
                (0..500usize)
                    .into_par_iter()
                    .map(|x| x.wrapping_mul(x))
                    .collect()
            });
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn with_num_threads_restores_previous_override() {
        crate::with_num_threads(2, || {
            crate::with_num_threads(5, || {
                assert_eq!(super::configured_threads(), 5);
            });
            assert_eq!(super::configured_threads(), 2);
        });
    }

    #[test]
    fn for_each_mut_visits_every_index_once() {
        for threads in [1, 2, 4, 16] {
            crate::with_num_threads(threads, || {
                let mut v = vec![0u64; 1000];
                crate::par_for_each_mut(&mut v, |i, x| *x += i as u64 + 1);
                assert!(
                    v.iter().enumerate().all(|(i, &x)| x == i as u64 + 1),
                    "threads={threads}"
                );
            });
        }
    }

    #[test]
    fn scratch_is_per_worker_and_persistent() {
        let mut scratch: Vec<Vec<u64>> = Vec::new();
        crate::with_num_threads(4, || {
            let mut v = vec![1u64; 256];
            crate::par_for_each_scratch(&mut v, &mut scratch, |s, i, x| {
                s.clear(); // per-item reset, as the engine does
                s.push(i as u64);
                *x += s[0];
            });
            assert!(v.iter().enumerate().all(|(i, &x)| x == 1 + i as u64));
        });
        assert!(
            !scratch.is_empty() && scratch.len() <= 4,
            "one scratch slot per worker: {}",
            scratch.len()
        );
        // A second call at a lower thread count reuses the pool.
        crate::with_num_threads(1, || {
            let mut v = vec![0u64; 8];
            crate::par_for_each_scratch(&mut v, &mut scratch, |_, i, x| *x = i as u64);
            assert_eq!(v, (0..8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn for_each_nested_inside_par_iter_runs_serially() {
        crate::with_num_threads(4, || {
            let out: Vec<usize> = (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let mut v = vec![i; 16];
                    crate::par_for_each_mut(&mut v, |j, x| *x += j);
                    v.iter().sum()
                })
                .collect();
            let expect: Vec<usize> = (0..8usize)
                .map(|i| 16 * i + (0..16).sum::<usize>())
                .collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn for_each_empty_slice() {
        let mut v: Vec<u8> = Vec::new();
        crate::par_for_each_mut(&mut v, |_, _| unreachable!("no items"));
    }

    #[test]
    fn current_num_threads_reports_override() {
        crate::with_num_threads(3, || assert_eq!(crate::current_num_threads(), 3));
    }

    #[test]
    fn pool_workers_are_persistent() {
        // 64 workers = 63 helpers, the largest count any test in this
        // suite requests, so the pool cannot grow between the two reads
        // below (concurrent tests ask for fewer).
        let run = || {
            crate::with_num_threads(64, || {
                let out: Vec<usize> = (0..128usize).into_par_iter().map(|x| x + 1).collect();
                assert_eq!(out.len(), 128);
            });
        };
        run();
        let before = crate::pool_spawned_workers();
        assert!(before >= 63, "first 64-worker job spawned {before} helpers");
        for _ in 0..4 {
            run();
        }
        assert_eq!(
            crate::pool_spawned_workers(),
            before,
            "repeat jobs must reuse the spawned helpers, not grow the pool"
        );
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            crate::with_num_threads(4, || {
                let _: Vec<usize> = (0..64usize)
                    .into_par_iter()
                    .map(|x| {
                        assert!(x != 13, "boom");
                        x
                    })
                    .collect();
            });
        });
        assert!(result.is_err(), "the item panic must reach the caller");
        // The unwind skipped with_num_threads' restore; clean up so the
        // rest of this test thread is unaffected.
        super::THREAD_OVERRIDE.with(|c| c.set(None));
        // The pool keeps serving jobs after a worker panic.
        let out: Vec<usize> =
            crate::with_num_threads(4, || (0..8usize).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        let mut v = vec![0u64; 64];
        crate::with_num_threads(4, || {
            crate::par_for_each_mut(&mut v, |i, x| *x = i as u64);
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn more_threads_than_items() {
        let out: Vec<usize> =
            crate::with_num_threads(32, || (0..3usize).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(out, vec![1, 2, 3]);
    }
}
