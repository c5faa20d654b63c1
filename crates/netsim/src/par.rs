//! The lock-free work dispatcher underneath every parallel engine in the
//! workspace.
//!
//! Monte-Carlo trials (`chronos_pitfalls::montecarlo`), scenario sweeps,
//! and intra-fleet shard stepping (`fleet::engine`) all reduce to the same
//! problem: hand out independent units of work to a fixed set of worker
//! threads, with results (or mutations) landing in caller-owned slots.
//! This module is that engine — one claim loop behind [`run_trials`]
//! (batches of trials per claim) and [`for_each_mut`] (one element per
//! claim) — index-deterministic by construction:
//!
//! * **Pre-allocated slots, disjoint `&mut` batches.** Output cells are
//!   split into contiguous batches handed to workers through unique
//!   claims, so no worker ever touches another worker's slots — there is
//!   no lock on the per-unit result path.
//! * **Work-stealing-style load balancing.** A single atomic batch cursor
//!   hands out the next unclaimed batch, so a worker stuck on an expensive
//!   unit doesn't strand the rest of a statically assigned range.
//! * **Scheduling-independent outcomes.** Work unit `i` writes slot `i`
//!   (or mutates element `i`) no matter which worker ran it, so outputs
//!   are a pure function of the inputs.
//!
//! It lives in `netsim` (the bottom of the crate stack) so both the
//! experiment layer above and the fleet engine beside it can share one
//! implementation; `chronos_pitfalls::montecarlo` re-exports the trial
//! API unchanged.
//!
//! # Examples
//!
//! Fan independent trials over worker threads — results come back in
//! trial order no matter which worker ran what:
//!
//! ```
//! use netsim::par::run_trials;
//!
//! let squares = run_trials(100, 4, |i| u64::from(i) * u64::from(i));
//! assert_eq!(squares.len(), 100);
//! assert_eq!(squares[7], 49);
//! // Byte-identical to the single-threaded run: trial i fills slot i.
//! assert_eq!(squares, run_trials(100, 1, |i| u64::from(i) * u64::from(i)));
//! ```
//!
//! Mutate a slice of independent work units in place (the fleet engine
//! steps its shards through exactly this call):
//!
//! ```
//! use netsim::par::for_each_mut;
//!
//! let mut cells: Vec<u64> = (0..64).collect();
//! for_each_mut(&mut cells, 4, |cell, index| {
//!     *cell += index as u64; // each unit sees its own index
//! });
//! assert!(cells.iter().enumerate().all(|(i, &v)| v == 2 * i as u64));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Batches each worker claims on average in [`run_trials_stateful`]:
/// enough slack for stealing, few enough that dispatch stays amortized.
const BATCHES_PER_WORKER: usize = 8;

/// A sensible worker count: the machine's available parallelism (1 when it
/// cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `trials` independent evaluations of `f` (called with the trial
/// index) across `threads` worker threads, returning results in index
/// order.
///
/// Determinism: `f` must derive all randomness from its trial index (e.g.
/// `seed ^ index`); results are written to slot `index` regardless of which
/// worker ran the trial, so the output is independent of scheduling.
///
/// Guarantee: when `trials == 0` the call returns immediately without
/// spawning any worker threads.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads` is zero.
pub fn run_trials<T, F>(trials: u32, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    run_trials_stateful(trials, threads, || (), |(), i| f(i))
}

/// The dispatcher underneath [`run_trials`] and the sweep engines: like
/// [`run_trials`], but each worker thread carries private state created
/// by `init` and threaded through every trial it claims.
///
/// This is what makes pooling possible: the state holds the worker's
/// current trial object, so consecutive trials of one configuration shape
/// reuse a constructed object instead of rebuilding it. The state never
/// crosses threads and is dropped when the worker runs out of batches.
///
/// Trials are claimed in batches of about `trials / (8 · threads)`, so
/// each worker claims eight batches on average.
///
/// Determinism contract: `f`'s *result* must depend only on the trial
/// index, never on the worker state's history — state may only be used as a
/// cache whose observable behaviour is reset per trial.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads` is zero.
pub fn run_trials_stateful<T, S, I, F>(trials: u32, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u32) -> T + Sync,
{
    let batch = (trials as usize)
        .div_ceil(threads.max(1) * BATCHES_PER_WORKER)
        .max(1);
    let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    dispatch(&mut slots, batch, threads, init, |state, slot, i| {
        *slot = Some(f(state, i as u32));
    });
    slots
        .into_iter()
        .map(|r| r.expect("every trial filled"))
        .collect()
}

/// Runs `f` once on every element of `items` (with its index) across
/// `threads` worker threads — the in-place analogue of [`run_trials`], for
/// work that lives in caller-owned slabs (fleet shards) rather than in
/// per-trial return values.
///
/// Elements are claimed one at a time off the atomic cursor (an element is
/// the stealing unit: callers hand in coarse slabs, not fine-grained
/// items). Outcomes are scheduling-independent as long as each element's
/// mutation depends only on that element and shared immutable context.
///
/// Guarantee: with one thread, one element, or an empty slice, everything
/// runs on the calling thread and no workers are spawned.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads` is zero.
pub fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T, usize) + Sync,
{
    dispatch(items, 1, threads, || (), |(), item, i| f(item, i));
}

/// The claim loop: splits `items` into chunks of `batch` and calls `run`
/// on every element with its index and the worker's state from `init`.
/// With one worker or one chunk everything runs on the calling thread;
/// otherwise scoped workers claim chunk indices off one atomic cursor, so
/// each chunk has exactly one writer and no element write takes a lock.
fn dispatch<T, S, I, R>(items: &mut [T], batch: usize, threads: usize, init: I, run: R)
where
    T: Send,
    I: Fn() -> S + Sync,
    R: Fn(&mut S, &mut T, usize) + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if threads == 1 || items.len() <= batch {
        let mut state = init();
        for (i, item) in items.iter_mut().enumerate() {
            run(&mut state, item, i);
        }
        return;
    }
    let cells: Vec<Cell<'_, T>> = items.chunks_mut(batch).map(Cell::new).collect();
    let cells = &cells[..];
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let init = &init;
        let run = &run;
        for _ in 0..threads.min(cells.len()) {
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= cells.len() {
                        break;
                    }
                    // SAFETY: the cursor returns each index exactly once,
                    // so this worker is the sole accessor of chunk `c`.
                    let chunk = unsafe { cells[c].take() };
                    for (off, item) in chunk.iter_mut().enumerate() {
                        run(&mut state, item, c * batch + off);
                    }
                }
            });
        }
    });
}

/// A chunk of caller-owned slots claimed by exactly one worker (enforced
/// by the atomic cursor handing out each index once).
struct Cell<'a, T> {
    chunk: std::cell::UnsafeCell<*mut [T]>,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// Safety: workers only dereference a cell after uniquely claiming its index
// from the atomic cursor; the scoped-thread join provides the release/acquire
// edge back to the owning thread.
unsafe impl<T: Send> Sync for Cell<'_, T> {}

impl<'a, T> Cell<'a, T> {
    fn new(chunk: &'a mut [T]) -> Self {
        Cell {
            chunk: std::cell::UnsafeCell::new(chunk as *mut _),
            _marker: std::marker::PhantomData,
        }
    }

    /// # Safety
    ///
    /// Must be called at most once per cell (guaranteed by the cursor).
    #[allow(clippy::mut_from_ref)] // unique access enforced by the claim cursor
    unsafe fn take(&self) -> &mut [T] {
        &mut **self.chunk.get()
    }
}

/// The seed implementation retained as the benchmark baseline: one global
/// mutex acquisition per trial result. Kept (not re-exported from the crate
/// root) so `e12_montecarlo_dispatch` can measure the win of the lock-free
/// path against it; do not use in new code.
#[doc(hidden)]
pub fn baseline_run_trials<T, F>(trials: u32, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    use std::sync::atomic::AtomicU32;
    assert!(threads > 0, "need at least one worker thread");
    let results: std::sync::Mutex<Vec<Option<T>>> =
        std::sync::Mutex::new((0..trials).map(|_| None).collect());
    let next = AtomicU32::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(trials.max(1) as usize) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = f(i);
                results.lock().expect("not poisoned")[i as usize] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("not poisoned")
        .into_iter()
        .map(|r| r.expect("every trial filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials(100, 8, |i| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 * 2);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let f = |i: u32| {
            let mut rng = SimRng::seed_from(1000 + u64::from(i));
            rng.next_u64()
        };
        let serial = run_trials(64, 1, f);
        let parallel = run_trials(64, 8, f);
        assert_eq!(serial, parallel, "outcomes independent of threading");
    }

    #[test]
    fn parallel_equals_serial_across_budgets() {
        let f = |i: u32| {
            let mut rng = SimRng::seed_from(9000 + u64::from(i));
            rng.next_u64()
        };
        let reference = run_trials(257, 1, f);
        for batch in [1usize, 2, 7, 64, 300] {
            let mut got = vec![0u64; 257];
            dispatch(&mut got, batch, 6, || (), |(), slot, i| *slot = f(i as u32));
            assert_eq!(reference, got, "batch size {batch} changed outcomes");
        }
    }

    #[test]
    fn matches_baseline_implementation() {
        let f = |i: u32| u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        assert_eq!(run_trials(500, 4, f), baseline_run_trials(500, 4, f));
    }

    #[test]
    fn zero_trials_spawns_nothing() {
        // Would deadlock/panic if a worker were spawned with a waiting
        // barrier-style closure; mostly documents the no-spawn guarantee.
        let out: Vec<u32> = run_trials(0, 4, |i| i);
        assert!(out.is_empty());
        let mut empty: [u32; 0] = [];
        dispatch(
            &mut empty,
            3,
            4,
            || (),
            |(), _, _| unreachable!("no trials"),
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        run_trials(1, 0, |i| i);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn for_each_zero_threads_rejected() {
        for_each_mut(&mut [1, 2, 3], 0, |_, _| {});
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let out = run_trials(3, 16, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn stateful_state_is_per_worker_and_reused() {
        let inits = AtomicUsize::new(0);
        let out = run_trials_stateful(
            100,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u32
            },
            |calls, i| {
                *calls += 1;
                i * 3
            },
        );
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 * 3);
        }
        assert!(
            inits.load(Ordering::Relaxed) <= 4,
            "at most one state per worker"
        );
    }

    #[test]
    fn for_each_mut_touches_every_element_exactly_once() {
        for threads in [1usize, 2, 3, 8] {
            let mut items: Vec<u64> = (0..37).collect();
            for_each_mut(&mut items, threads, |item, i| {
                assert_eq!(*item, i as u64, "index matches element");
                *item = item.wrapping_mul(3).wrapping_add(1);
            });
            let expected: Vec<u64> = (0..37u64).map(|v| v.wrapping_mul(3) + 1).collect();
            assert_eq!(items, expected, "threads={threads}");
        }
    }

    #[test]
    fn for_each_mut_degenerate_shapes() {
        let mut empty: Vec<u32> = Vec::new();
        for_each_mut(&mut empty, 4, |_, _| unreachable!("no elements"));
        let mut one = [7u32];
        for_each_mut(&mut one, 4, |item, i| {
            assert_eq!(i, 0);
            *item += 1;
        });
        assert_eq!(one, [8]);
    }
}
