//! A hand-rolled work-stealing pool over scoped threads.
//!
//! Batch compilation is the one place the compilation flow fans out: every
//! job is independent, and each job (a single compile plus its
//! verification) is millisecond-scale work that runs sequentially on one
//! worker.  The build environment is offline (no `rayon`), so this module
//! provides the minimal parallel primitive [`PassManager::run_batch`]
//! needs: [`WorkStealingPool`], a fixed-size pool with per-worker deques and
//! work stealing.
//!
//! Every [`WorkStealingPool::map`] call spawns its workers inside a
//! [`std::thread::scope`], which lets the tasks borrow from the caller's
//! stack (shared caches, pass managers) without `'static` bounds, and joins
//! them before returning.  Tasks are distributed over the workers in
//! contiguous chunks; an idle worker first drains its own deque from the
//! front and then steals from the back of a victim's deque, so load
//! imbalance (one circuit much larger than the rest) does not serialise the
//! batch.  Results are returned in input order regardless of execution
//! order, which keeps every caller deterministic.
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

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV_VAR: &str = "QUDIT_THREADS";

/// Locks a mutex, recovering the guard when a peer worker poisoned it.
///
/// Worker panics are caught and propagated as the original payload (see
/// [`WorkStealingPool::map`]); the data behind these locks is only
/// index/result bookkeeping that stays consistent across a mid-task unwind,
/// so poisoning carries no information the pool does not already track.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// A fixed-size work-stealing pool.
///
/// Each [`WorkStealingPool::map`] call spawns its workers inside a
/// [`std::thread::scope`] and joins them before returning; the pool itself
/// is just its configured size, so clones are plain copies.
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
    /// every worker has exited; the remaining tasks are abandoned, and the
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
        let batch = BatchState::new(items, workers, &f);
        thread::scope(|scope| {
            for slot in 0..workers {
                let batch = &batch;
                scope.spawn(move || batch.work(slot));
            }
        });
        batch.finish(n)
    }
}

/// One in-flight `map` batch: the chunked task deques, the shared result
/// sink and the panic bookkeeping, shared by reference with every worker.
struct BatchState<'f, T, R, F> {
    /// Per-slot task deques (contiguous chunks of the input).
    queues: Vec<Mutex<VecDeque<(usize, T)>>>,
    /// The mapped function, borrowed from the caller.
    f: &'f F,
    /// Results, in completion order; sorted by index at the end.
    collected: Mutex<Vec<(usize, R)>>,
    /// The first caught panic payload, resumed by [`BatchState::finish`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set when a task panicked: peers stop popping and retire early.
    abort: AtomicBool,
}

impl<'f, T, R, F> BatchState<'f, T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    fn new(items: Vec<T>, workers: usize, f: &'f F) -> Self {
        let n = items.len();
        let chunk = n.div_ceil(workers);
        let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(workers);
        let mut tasks = items.into_iter().enumerate();
        for _ in 0..workers {
            queues.push(Mutex::new(tasks.by_ref().take(chunk).collect()));
        }
        BatchState {
            queues,
            f,
            collected: Mutex::new(Vec::with_capacity(n)),
            panic: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    /// One worker's task loop: drain the own deque from the front, then
    /// steal from a victim's back to keep the victim's cache-warm front
    /// intact.  Stops early when a peer recorded a panic.
    fn work(&self, me: usize) {
        let workers = self.queues.len();
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            if self.abort.load(Ordering::Acquire) {
                break;
            }
            let mut task = lock_unpoisoned(&self.queues[me]).pop_front();
            if task.is_none() {
                for offset in 1..workers {
                    let victim = (me + offset) % workers;
                    task = lock_unpoisoned(&self.queues[victim]).pop_back();
                    if task.is_some() {
                        break;
                    }
                }
            }
            // Tasks never spawn tasks, so globally empty deques mean this
            // worker is done.
            let Some((index, item)) = task else { break };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(result) => local.push((index, result)),
                Err(payload) => {
                    // Keep the first payload; later panics (if any) are
                    // dropped with their tasks, like a joined scope would.
                    let mut slot = lock_unpoisoned(&self.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    self.abort.store(true, Ordering::Release);
                    break;
                }
            }
        }
        lock_unpoisoned(&self.collected).extend(local);
    }

    /// Retires the batch on the calling thread once every worker has
    /// exited: resumes a caught panic, or sorts and returns the results.
    fn finish(self, n: usize) -> Vec<R> {
        if let Some(payload) = lock_unpoisoned(&self.panic).take() {
            resume_unwind(payload);
        }
        let mut with_index = self
            .collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // A real invariant, not a debug assertion: a lost task means a
        // silently wrong (shorter) result vector, which release builds must
        // catch too.
        assert_eq!(with_index.len(), n, "every pool task must run exactly once");
        with_index.sort_unstable_by_key(|(index, _)| *index);
        with_index.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

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
    fn uneven_tasks_are_stolen_not_serialised() {
        // Worker 0's chunk holds all the slow tasks; stealing must spread
        // them out, which we observe as every task still completing with the
        // correct result and order.
        let pool = WorkStealingPool::with_threads(4);
        let out = pool.map((0..64usize).collect(), |i| {
            if i < 16 {
                thread::sleep(Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
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
