//! A hand-rolled work-stealing pool: scoped threads by default, an optional
//! persistent-worker crew for dispatch-heavy callers.
//!
//! The compilation flow is embarrassingly parallel in two places: batch
//! compilation is independent per circuit, and verification is independent
//! per block of basis states (or panel of amplitudes).  The build
//! environment is offline (no `rayon`), so this module provides the minimal
//! parallel primitive both need: [`WorkStealingPool`],
//! a fixed-size pool with per-worker deques and work stealing, plus the
//! convenience function [`parallel_map`].
//!
//! Tasks are distributed over the workers in contiguous chunks; an idle
//! worker first drains its own deque from the front and then steals from the
//! back of a victim's deque, so load imbalance (one circuit much larger than
//! the rest) does not serialise the batch.  Results are returned in input
//! order regardless of execution order, which keeps every parallel caller
//! deterministic.
//!
//! # Scoped vs persistent workers
//!
//! [`WorkStealingPool::new`] / [`WorkStealingPool::with_threads`] build the
//! historical *scoped* pool: every [`WorkStealingPool::map`] call spawns its
//! workers inside a [`std::thread::scope`] and joins them before returning.
//! That is simple and borrows freely from the caller's stack, but pays one
//! OS thread spawn per worker per dispatch — fine for experiment sweeps,
//! wasteful for a long-running service dispatching thousands of small maps.
//!
//! [`WorkStealingPool::persistent`] builds a pool with a crew of long-lived
//! worker threads instead: `map` enqueues the batch to the crew over a
//! channel and blocks until the crew has finished it, so a dispatch costs a
//! queue push instead of thread spawns.  The two modes run the same
//! stealing loop over the same chunked deques and sort results by input
//! index, so their outputs are byte-identical (pinned by test).  The crew
//! threads are joined when the last clone of the pool is dropped.
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
//!
//! // Same API, long-lived workers: nothing is spawned per call.
//! let service_pool = WorkStealingPool::persistent(4);
//! assert_eq!(service_pool.map((0..100u64).collect(), |x| x * x), squares);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV_VAR: &str = "QUDIT_THREADS";

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns `true` when the calling thread is a pool worker.
///
/// Nested data parallelism oversubscribes the machine (each of N batch
/// workers spawning N verification workers runs N² threads), so the
/// parallel paths inside passes check this and fall back to their
/// sequential implementation when the job as a whole is already running on
/// a pool.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

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
/// Explicit sizes ([`WorkStealingPool::with_threads`],
/// [`WorkStealingPool::persistent`]) bypass the snapshot entirely.
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
/// Scoped by default — each [`WorkStealingPool::map`] call spawns its
/// workers inside a [`std::thread::scope`], which lets the tasks borrow
/// from the caller's stack (shared caches, pass managers) without any
/// `'static` bounds, and joins them before returning.  The
/// [`WorkStealingPool::persistent`] constructor swaps the per-call spawn
/// for a crew of long-lived worker threads fed over a channel; see the
/// module docs for the trade-off.
///
/// Clones of a persistent pool share one crew (the handle is an [`Arc`]);
/// clones of a scoped pool are plain copies of the configured size.
#[derive(Debug, Clone)]
pub struct WorkStealingPool {
    threads: usize,
    crew: Option<Arc<crew::Crew>>,
}

impl PartialEq for WorkStealingPool {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
            && match (&self.crew, &other.crew) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for WorkStealingPool {}

impl Default for WorkStealingPool {
    fn default() -> Self {
        WorkStealingPool::new()
    }
}

impl WorkStealingPool {
    /// A scoped pool sized to the machine: `std::thread::available_parallelism`,
    /// overridable with the `QUDIT_THREADS` environment variable.
    ///
    /// The environment is read **once** per process and the resolved default
    /// snapshotted, so every `new()` in a process agrees on the size even if
    /// the variable changes mid-run.
    pub fn new() -> Self {
        WorkStealingPool {
            threads: default_threads(),
            crew: None,
        }
    }

    /// A scoped pool with exactly `threads` workers (clamped to at least
    /// one).
    pub fn with_threads(threads: usize) -> Self {
        WorkStealingPool {
            threads: threads.max(1),
            crew: None,
        }
    }

    /// A pool with `threads` **persistent** workers (clamped to at least
    /// one): the worker threads are spawned now, parked on a channel, and
    /// reused by every [`WorkStealingPool::map`] call instead of being
    /// re-spawned per dispatch.
    ///
    /// Results are byte-identical to the scoped pool's.  The crew is shared
    /// by clones and joined when the last clone is dropped.
    pub fn persistent(threads: usize) -> Self {
        let threads = threads.max(1);
        WorkStealingPool {
            threads,
            crew: Some(Arc::new(crew::Crew::spawn(threads))),
        }
    }

    /// A persistent pool sized like [`WorkStealingPool::new`].
    pub fn persistent_default() -> Self {
        WorkStealingPool::persistent(default_threads())
    }

    /// The number of worker threads the pool dispatches over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns `true` when the pool runs on long-lived persistent workers.
    pub fn is_persistent(&self) -> bool {
        self.crew.is_some()
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// input order.
    ///
    /// With a single worker (or a single item) the map runs inline on the
    /// calling thread, so small inputs pay no threading overhead.  A
    /// persistent pool called from one of its own workers also runs inline:
    /// blocking a crew thread on work only the crew can perform would
    /// deadlock under saturation.
    ///
    /// # Panics
    ///
    /// Propagates the first panic from `f` (by its original payload) after
    /// the batch has been retired; the remaining tasks are abandoned, and
    /// the pool stays usable for later calls.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || (self.crew.is_some() && in_worker()) {
            return items.into_iter().map(f).collect();
        }
        let batch = BatchState::new(items, workers, &f);
        match &self.crew {
            Some(crew) => crew.run(&batch, workers),
            None => Self::run_scoped(&batch, workers),
        }
        batch.finish(n)
    }

    /// The scoped execution mode: spawn `workers` threads for this batch
    /// and join them before returning.
    fn run_scoped<T, R, F>(batch: &BatchState<'_, T, R, F>, workers: usize)
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        thread::scope(|scope| {
            for slot in 0..workers {
                let batch = &batch;
                scope.spawn(move || {
                    IN_WORKER.with(|flag| flag.set(true));
                    batch.work(slot);
                });
            }
        });
    }
}

/// One in-flight `map` batch: the chunked task deques, the shared result
/// sink and the panic bookkeeping, shared by reference with every worker
/// (scoped or persistent) that participates.
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
        use std::sync::atomic::Ordering;
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

/// The persistent-worker crew: long-lived threads parked on an injector
/// channel of type-erased batch references.
///
/// This is the one module in the crate that needs `unsafe`: a long-lived
/// thread cannot borrow a `map` caller's stack through safe channels (the
/// closure and items are not `'static`), so batches are passed as erased
/// raw pointers.  Soundness rests on one invariant, enforced by
/// [`Crew::run`]: **the caller blocks until every injected reference has
/// been consumed and its worker has exited the batch**, so no worker can
/// touch the pointer after `map` returns and the `BatchState` leaves the
/// caller's stack.  (This is the same contract `std::thread::scope` fakes
/// with lifetimes — and the same technique rayon's registry uses.)
#[allow(unsafe_code)]
mod crew {
    use super::{lock_unpoisoned, BatchState, IN_WORKER};
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::thread::JoinHandle;

    /// A countdown latch: `run` waits until every injected batch reference
    /// has been fully retired by a worker.
    ///
    /// Heap-allocated (`Arc`) and owned independently of the batch, so the
    /// final decrement-and-notify never touches the caller's stack.
    struct Latch {
        outstanding: Mutex<usize>,
        done: Condvar,
    }

    impl Latch {
        fn new(count: usize) -> Arc<Self> {
            Arc::new(Latch {
                outstanding: Mutex::new(count),
                done: Condvar::new(),
            })
        }

        /// Marks one batch reference retired (worker fully out of the
        /// batch) — the notify happens while the lock is held, so a woken
        /// waiter cannot observe the count before this update completes.
        fn retire_one(&self) {
            let mut outstanding = lock_unpoisoned(&self.outstanding);
            *outstanding -= 1;
            self.done.notify_all();
        }

        fn wait_zero(&self) {
            let mut outstanding = lock_unpoisoned(&self.outstanding);
            while *outstanding > 0 {
                outstanding = self
                    .done
                    .wait(outstanding)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    /// A type-erased reference to a live [`BatchState`] on some caller's
    /// stack, plus the worker slot it should run and the latch retiring it.
    struct BatchRef {
        data: *const (),
        run: unsafe fn(*const (), usize),
        slot: usize,
        latch: Arc<Latch>,
    }

    // SAFETY: `data` points to a `BatchState<T, R, F>` with `T: Send`,
    // `R: Send`, `F: Sync` (enforced by the only constructor, `Crew::run`),
    // whose shared state is fully synchronised (mutexes/atomics), so the
    // reference may be dereferenced from another thread; the caller keeps
    // the pointee alive until the latch retires every reference.
    unsafe impl Send for BatchRef {}

    /// The erased entry point a worker calls: reconstitutes the concrete
    /// `BatchState` type and runs the stealing loop for `slot`.
    ///
    /// # Safety
    ///
    /// `data` must point to a live `BatchState<T, R, F>` whose original
    /// `map` caller is blocked on the corresponding latch.
    unsafe fn run_erased<T, R, F>(data: *const (), slot: usize)
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        // SAFETY: see the function contract; `Crew::run` blocks the owner
        // of the pointee until this call (and the latch retire after it)
        // has completed.
        let batch = unsafe { &*(data as *const BatchState<'_, T, R, F>) };
        batch.work(slot);
    }

    /// Injector state shared between the crew's workers and dispatchers.
    struct Injector {
        queue: VecDeque<BatchRef>,
        shutdown: bool,
    }

    /// The crew: worker threads plus the injector channel that feeds them.
    pub(super) struct Crew {
        shared: Arc<Shared>,
        workers: Vec<JoinHandle<()>>,
    }

    struct Shared {
        injector: Mutex<Injector>,
        available: Condvar,
    }

    impl std::fmt::Debug for Crew {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Crew")
                .field("workers", &self.workers.len())
                .finish()
        }
    }

    impl Crew {
        /// Spawns `threads` persistent workers parked on the injector.
        pub(super) fn spawn(threads: usize) -> Self {
            let shared = Arc::new(Shared {
                injector: Mutex::new(Injector {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
            });
            let workers = (0..threads)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect();
            Crew { shared, workers }
        }

        /// Runs one batch on the crew and blocks until it is fully retired.
        ///
        /// This is the soundness linchpin: the batch references are erased
        /// to raw pointers here, and this function does not return until
        /// the latch confirms every reference was consumed and its worker
        /// exited the batch — after which no live pointer to `batch`
        /// remains anywhere in the crew.
        pub(super) fn run<T, R, F>(&self, batch: &BatchState<'_, T, R, F>, workers: usize)
        where
            T: Send,
            R: Send,
            F: Fn(T) -> R + Sync,
        {
            let latch = Latch::new(workers);
            {
                let mut injector = lock_unpoisoned(&self.shared.injector);
                for slot in 0..workers {
                    injector.queue.push_back(BatchRef {
                        data: batch as *const BatchState<'_, T, R, F> as *const (),
                        run: run_erased::<T, R, F>,
                        slot,
                        latch: Arc::clone(&latch),
                    });
                }
                self.shared.available.notify_all();
            }
            latch.wait_zero();
        }
    }

    impl Drop for Crew {
        fn drop(&mut self) {
            {
                let mut injector = lock_unpoisoned(&self.shared.injector);
                injector.shutdown = true;
                self.shared.available.notify_all();
            }
            for worker in self.workers.drain(..) {
                // A worker that somehow died early is already accounted
                // for; joining collects the rest.
                let _ = worker.join();
            }
        }
    }

    /// A persistent worker: pull a batch reference, run it, retire it,
    /// repeat until shutdown.
    fn worker_loop(shared: &Shared) {
        IN_WORKER.with(|flag| flag.set(true));
        loop {
            let batch_ref = {
                let mut injector = lock_unpoisoned(&shared.injector);
                loop {
                    if let Some(batch_ref) = injector.queue.pop_front() {
                        break batch_ref;
                    }
                    if injector.shutdown {
                        return;
                    }
                    injector = shared
                        .available
                        .wait(injector)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            // SAFETY: the dispatcher in `Crew::run` keeps the pointee alive
            // until this reference is retired below.
            unsafe { (batch_ref.run)(batch_ref.data, batch_ref.slot) };
            batch_ref.latch.retire_one();
        }
    }
}

/// [`WorkStealingPool::map`] on a default-sized pool.
///
/// # Example
///
/// ```
/// let doubled = qudit_core::pool::parallel_map(vec![1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    WorkStealingPool::new().map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
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
    fn in_worker_is_visible_inside_tasks_only() {
        assert!(!in_worker());
        let pool = WorkStealingPool::with_threads(4);
        let flags = pool.map(vec![(); 16], |()| in_worker());
        assert!(flags.into_iter().all(|flag| flag));
        assert!(!in_worker());
        // The single-threaded inline path runs on the caller, not a worker.
        let inline = WorkStealingPool::with_threads(1).map(vec![()], |()| in_worker());
        assert_eq!(inline, vec![false]);
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
        // The crew threads caught the panic and keep serving.
        let out = pool.map((0..100usize).collect(), |x| x + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn persistent_results_are_byte_identical_to_scoped() {
        let scoped = WorkStealingPool::with_threads(4);
        let persistent = WorkStealingPool::persistent(4);
        assert!(persistent.is_persistent());
        assert!(!scoped.is_persistent());
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
    fn persistent_workers_are_reused_across_dispatches() {
        let pool = WorkStealingPool::persistent(2);
        let mut seen = HashSet::new();
        for _ in 0..10 {
            let ids = pool.map(vec![0; 16], |_| {
                thread::sleep(Duration::from_micros(200));
                thread::current().id()
            });
            seen.extend(ids);
        }
        // Ten dispatches over two long-lived workers touch at most two
        // distinct threads; a scoped pool would have spawned twenty.
        assert!(seen.len() <= 2, "saw {} distinct workers", seen.len());
    }

    #[test]
    fn persistent_map_from_a_worker_runs_inline() {
        let pool = WorkStealingPool::persistent(2);
        let inner = pool.clone();
        let nested = pool.map(vec![0u32; 4], move |_| {
            // Nested dispatch on the same crew must not deadlock.
            inner.map(vec![1u32, 2, 3], |x| x * 2)
        });
        assert!(nested.iter().all(|v| *v == vec![2, 4, 6]));
    }

    #[test]
    fn clones_share_one_crew() {
        let pool = WorkStealingPool::persistent(2);
        let clone = pool.clone();
        assert_eq!(pool, clone);
        assert_ne!(pool, WorkStealingPool::persistent(2));
        assert_ne!(pool, WorkStealingPool::with_threads(2));
        assert_eq!(
            WorkStealingPool::with_threads(2),
            WorkStealingPool::with_threads(2)
        );
        drop(pool);
        // The crew survives while any clone lives.
        assert_eq!(clone.map(vec![5, 6], |x| x + 1), vec![6, 7]);
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
