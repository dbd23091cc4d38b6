//! A hand-rolled thread pool over scoped threads.
//!
//! Batch compilation is the one place the compilation flow fans out: every
//! job is independent, and each job (a single compile plus its
//! verification) is millisecond-scale work that runs sequentially on one
//! worker.  Jobs never spawn jobs.  The build environment is offline (no
//! `rayon`), so this module provides the minimal parallel primitive
//! [`PassManager::run_batch`] needs: [`WorkStealingPool`], a pool that is
//! nothing but its thread count.
//!
//! Every [`WorkStealingPool::map`] call spawns its workers inside a
//! [`std::thread::scope`], which lets the tasks borrow from the caller's
//! stack (pass managers, compiled inputs) without `'static` bounds, and
//! joins them before returning.  The workers share one cursor over the
//! jobs: each claims the next unclaimed job until none is left, so a worker
//! that finishes early keeps claiming while a peer is busy with a large
//! circuit, and load imbalance does not serialise the batch.  Results are
//! returned in input order regardless of execution order, which keeps every
//! caller deterministic.
//!
//! [`PassManager::run_batch`]: crate::pipeline::PassManager::run_batch
//!
//! # Example
//!
//! ```
//! use qudit_core::pool::WorkStealingPool;
//!
//! let pool = WorkStealingPool::with_threads(4);
//! let squares = pool.map((0..100u64).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV_VAR: &str = "QUDIT_THREADS";

/// The process-wide default worker count: `QUDIT_THREADS` if set to a
/// positive integer, else `std::thread::available_parallelism`.
///
/// Resolved **once** per process (first use) and snapshotted: a mid-process
/// change to the environment variable does not re-size later pools, so
/// concurrently constructed pools can never disagree on the default.
/// Explicit sizes ([`WorkStealingPool::with_threads`]) bypass the snapshot
/// entirely.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(THREADS_ENV_VAR)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// A fixed-size pool: its configured thread count and nothing else.
///
/// Each [`WorkStealingPool::map`] call spawns its workers inside a
/// [`std::thread::scope`] and joins them before returning, so clones are
/// plain copies and one pool serves any number of concurrent callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkStealingPool {
    threads: usize,
}

impl Default for WorkStealingPool {
    fn default() -> Self {
        WorkStealingPool::new()
    }
}

impl WorkStealingPool {
    /// A pool sized to the machine: `std::thread::available_parallelism`,
    /// overridable with the `QUDIT_THREADS` environment variable.
    ///
    /// The environment is read **once** per process and the resolved default
    /// snapshotted, so every `new()` in a process agrees on the size even if
    /// the variable changes mid-run.
    pub fn new() -> Self {
        WorkStealingPool {
            threads: default_threads(),
        }
    }

    /// A pool with exactly `threads` workers (clamped to at least one).
    pub fn with_threads(threads: usize) -> Self {
        WorkStealingPool {
            threads: threads.max(1),
        }
    }

    /// An alias of [`WorkStealingPool::with_threads`], kept only because
    /// the `e2ebench` harness calls it.
    pub fn persistent(threads: usize) -> Self {
        WorkStealingPool::with_threads(threads)
    }

    /// The number of worker threads the pool dispatches over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// input order.
    ///
    /// With a single worker (or a single item) the map runs inline on the
    /// calling thread, so small inputs pay no threading overhead.
    ///
    /// # Panics
    ///
    /// Propagates the first panic from `f` (by its original payload) after
    /// every worker has exited; no job is claimed after the panic, and the
    /// pool stays usable for later calls.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        // The shared cursor: the next unclaimed job and its input index.
        let cursor = Mutex::new(items.into_iter().enumerate());
        // Set by a panicking job so no worker claims another.  It publishes
        // no data (the payload travels through `join`), hence `Relaxed`.
        let stop = AtomicBool::new(false);
        let worker = || {
            let mut done = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                // Bind the claim first so the lock is released before `f`.
                let claimed = cursor
                    .lock()
                    .expect("no job runs while the cursor is locked")
                    .next();
                let Some((index, item)) = claimed else { break };
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(result) => done.push((index, result)),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        resume_unwind(payload);
                    }
                }
            }
            done
        };
        let joined: Vec<thread::Result<Vec<(usize, R)>>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|handle| handle.join()).collect()
        });
        let mut results = Vec::with_capacity(n);
        for part in joined {
            // The first worker (in spawn order) that panicked decides the
            // payload; any later panics are dropped with their jobs.
            results.extend(part.unwrap_or_else(|payload| resume_unwind(payload)));
        }
        // A real invariant, not a debug assertion: a lost task means a
        // silently wrong (shorter) result vector, which release builds must
        // catch too.
        assert_eq!(results.len(), n, "every pool task must run exactly once");
        results.sort_unstable_by_key(|(index, _)| *index);
        results.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    #[test]
    fn results_preserve_input_order() {
        let pool = WorkStealingPool::with_threads(4);
        let out = pool.map((0..1000usize).collect(), |x| x + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let pool = WorkStealingPool::with_threads(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkStealingPool::with_threads(1);
        assert_eq!(pool.threads(), 1);
        let calling_thread = thread::current().id();
        let ids = pool.map(vec![0; 8], |_| thread::current().id());
        assert!(ids.iter().all(|id| *id == calling_thread));
    }

    #[test]
    fn multiple_worker_threads_participate() {
        let pool = WorkStealingPool::with_threads(4);
        // Tasks long enough that a single worker cannot finish the whole
        // batch before the others start.
        let ids = pool.map(vec![0; 64], |_| {
            thread::sleep(Duration::from_millis(1));
            thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(
            distinct.len() > 1,
            "expected more than one worker thread to run tasks"
        );
    }

    #[test]
    fn an_idle_worker_keeps_claiming_while_a_peer_is_busy() {
        // Job 0 blocks its worker until every other job has run, so the
        // batch completes only if the second worker claims all of them; a
        // static split of the jobs between the two workers would stall.
        let pool = WorkStealingPool::with_threads(2);
        let others_done = AtomicUsize::new(0);
        let jobs = 64usize;
        let out = pool.map((0..jobs).collect(), |i| {
            if i == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while others_done.load(Ordering::Acquire) < jobs - 1 {
                    assert!(Instant::now() < deadline, "job 0 waited 10 s");
                    thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::Release);
            }
            i * 3
        });
        assert_eq!(out, (0..jobs).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = WorkStealingPool::with_threads(3);
        pool.map((0..500usize).collect(), |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(WorkStealingPool::with_threads(0).threads(), 1);
        assert_eq!(WorkStealingPool::persistent(0).threads(), 1);
    }

    #[test]
    fn default_size_is_snapshotted_once_per_process() {
        // Whatever the first resolution saw, later constructions must agree
        // even if the environment variable changes mid-process.
        let first = WorkStealingPool::new().threads();
        std::env::set_var(THREADS_ENV_VAR, "63");
        assert_eq!(WorkStealingPool::new().threads(), first);
        std::env::remove_var(THREADS_ENV_VAR);
        assert_eq!(WorkStealingPool::new().threads(), first);
        // Explicit sizes are not snapshotted.
        assert_eq!(WorkStealingPool::with_threads(63).threads(), 63);
    }

    #[test]
    fn scoped_panic_propagates_the_original_payload() {
        let pool = WorkStealingPool::with_threads(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..64usize).collect(), |i| {
                if i == 13 {
                    panic!("task 13 exploded");
                }
                i
            })
        }))
        .expect_err("the task panic must propagate");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .expect("payload is the original panic message");
        assert!(message.contains("task 13 exploded"));
        // The pool stays usable after a panicked batch.
        assert_eq!(pool.map(vec![1, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn persistent_panic_propagates_and_crew_survives() {
        let pool = WorkStealingPool::persistent(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..64usize).collect(), |i| {
                if i == 7 {
                    panic!("persistent task 7 exploded");
                }
                i
            })
        }))
        .expect_err("the task panic must propagate");
        let message = caught
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| caught.downcast_ref::<String>().cloned())
            .expect("payload is the original panic message");
        assert!(message.contains("persistent task 7 exploded"));
        // The alias pool keeps serving after a panicked batch.
        let out = pool.map((0..100usize).collect(), |x| x + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn persistent_results_are_byte_identical_to_scoped() {
        let scoped = WorkStealingPool::with_threads(4);
        let persistent = WorkStealingPool::persistent(4);
        assert_eq!(persistent, scoped);
        for size in [0usize, 1, 7, 64, 1000] {
            let items: Vec<u64> = (0..size as u64).collect();
            let a = scoped.map(items.clone(), |x| {
                x.wrapping_mul(0x9E37_79B9).rotate_left(7)
            });
            let b = persistent.map(items, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
            assert_eq!(a, b, "batch size {size}");
        }
    }

    #[test]
    fn persistent_pools_serve_concurrent_dispatchers() {
        let pool = WorkStealingPool::persistent(4);
        thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for round in 0..8u64 {
                        let base = t * 1000 + round;
                        let out = pool.map((0..32u64).collect(), |x| x + base);
                        assert_eq!(out, (base..base + 32).collect::<Vec<_>>());
                    }
                });
            }
        });
    }
}
