//! # unintt-exec — persistent work-stealing executor
//!
//! Every hot loop in the workspace used to open a fresh
//! [`std::thread::scope`] per NTT stage, per batch, per simulated device
//! phase — paying thread creation and teardown thousands of times per
//! experiment. This crate replaces those with one process-wide pool:
//!
//! * **Persistent workers** — OS threads are created once (lazily, on first
//!   use of [`Executor::global`]) and reused for every subsequent scope.
//!   An idle worker is parked on a condvar with no timeout: it costs
//!   nothing until a scope asks for it.
//! * **Work stealing** — each worker owns a deque; it pops its own work
//!   LIFO and steals FIFO from the shared injector and from siblings, so
//!   irregular task sizes still balance. A lock-free count of queued tasks
//!   makes the empty probe one atomic load.
//! * **Scoped fork-join** — [`Executor::scope`] mirrors the
//!   `std::thread::scope` API: closures may borrow from the caller's stack,
//!   and `scope` does not return until every spawned task has finished.
//!   The calling thread *helps* run tasks while it waits, so a pool with
//!   zero workers (single-core machines) degrades to plain serial
//!   execution instead of deadlocking, and nested scopes are safe.
//! * **Wake on evidence** — a fork-join costs in proportion to evidence
//!   that it will pay. [`Scope::spawn`] queues its task and wakes nobody;
//!   the joining thread starts on its own tasks, in spawn order, at once.
//!   Only when a scope has been joining for one *grain* (about one
//!   wake-up round trip) with work still queued does it notify parked
//!   workers, once. A scope whose whole work fits in the grain therefore
//!   runs as it would on `Executor::new(1)`: on the caller, in spawn
//!   order, without a system call. The evidence is time, never a byte or
//!   element count: one MSM window task is a single output element and
//!   takes 0.2 ms, one simulated-device shard is thousands of elements
//!   and takes 1 µs. Tasks too long to see past (the joiner cannot read
//!   the clock from inside one) carry the evidence over: after a join
//!   that needed workers and ran a task of a grain or more, the next
//!   scope asks as its join begins. A worker that runs dry lingers
//!   briefly before it parks, so the back-to-back phases of a large
//!   kernel keep it hot, but only tasks at least a grain long extend that
//!   linger — a stream of tiny scopes lets it park and stay parked.
//! * **Started by the join** — the one scheduling guarantee: a spawned
//!   task starts no later than the join, which begins when the closure
//!   given to `scope` returns. Nothing promises it starts earlier, or
//!   that two tasks ever run at the same time (on `Executor::new(1)` they
//!   never do), so a closure that spawns a task and then blocks on that
//!   task's side effect waits for itself, and tasks must not wait for
//!   their siblings. Spawn in a loop, return, and let `scope` join.
//! * **Deterministic chunking** — the pool never decides how work is
//!   split. Callers chunk their data themselves (the `threads` parameter
//!   of `batch_transform_parallel`, the fixed row bands of a large `Ntt`
//!   transform, …) and each chunk's result lands in its own disjoint
//!   slice, so results are
//!   bit-identical for any pool size, including the simulated-clock
//!   accounting and fault-injection decisions in `unintt-gpu-sim`. That is
//!   what frees *who* runs a task to depend on the wall clock: *what* it
//!   computes does not.
//! * **Panic propagation** — a panicking task does not poison the pool;
//!   the payload is captured and re-thrown from `scope` on the caller's
//!   thread, matching `std::thread::scope` semantics.
//!
//! ```
//! use unintt_exec::Executor;
//!
//! let mut data = vec![1u64; 1024];
//! Executor::global().scope(|s| {
//!     for chunk in data.chunks_mut(256) {
//!         s.spawn(move || {
//!             for x in chunk {
//!                 *x += 1;
//!             }
//!         });
//!     }
//! });
//! assert!(data.iter().all(|&x| x == 2));
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "UNINTT_THREADS";

/// How long a scope joins, with tasks still queued, before it asks for
/// parked workers; also how long a joiner with nothing left to run spins
/// on its stragglers before it parks, and the task length below which a
/// worker does not count a task as a reason to stay awake.
///
/// Sized to one wake-up round trip, which `wake_and_steal_profile`
/// measures on the running host (EXPERIMENTS.md "Host pool — grain": on
/// the idle 2-vCPU reference host the notify costs the caller 8–12 µs and
/// the task's first instruction on the woken worker comes 12–21 µs after
/// the push, later when that core has gone to sleep): work shorter than
/// that is finished by the caller before a woken worker could take any.
/// Not a tuning cliff — 10, 20 and 50 µs put `serve-raw` at 32–39,
/// 36–38 and 37 ms.
const GRAIN: Duration = Duration::from_micros(20);

/// How long a worker that ran dry keeps polling the queued-task count
/// before it parks, counted from its wake-up or from the end of its last
/// task of at least a [`GRAIN`].
///
/// Long enough to bridge the serial gap between the phases of one large
/// kernel (six-step passes, Merkle levels, MSM windows), so they start in
/// parallel without a wake-up each; at 0 `stark-commit` loses ≈ 4 %
/// (10.4–10.6 ms against 9.8–10.1). Deliberately not longer, and
/// deliberately not extended by short tasks: a worker that stays awake
/// through tiny traffic is worse than waking it per task — every stolen
/// 3 µs task costs a cross-core transfer and leaves the joiner waiting on
/// the thief. At 200 µs `serve-raw` ran 48–61 ms and `fleet-chaos`
/// 124–170; at 1 ms, 90–104 and 206–227 — against 65–72 and 120–140 with
/// a wake-up per spawn, and 36–38 and 59–77 at 50 µs.
const LINGER: Duration = Duration::from_micros(50);

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// (pool identity, worker index) when the current thread is a pool
    /// worker; lets `spawn` push to the local deque and `scope` steal
    /// correctly while helping.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// What parked workers wait on; guarded by `Shared::sleep`.
struct Sleep {
    /// Workers currently waiting on `work_cv`.
    parked: usize,
    /// Bumped by every wake request. A worker remembers the value it last
    /// saw and parks only while it is unchanged, so a request that lands
    /// between a worker's last look at the queues and its wait is not
    /// lost: no timeout is needed to deliver it.
    epoch: usize,
    shutdown: bool,
}

/// Shared state between the pool handle and its workers.
struct Shared {
    /// Tasks injected by non-worker threads (FIFO).
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker: owner pops LIFO, thieves steal FIFO.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Tasks sitting in the queues above. Raised before a push and lowered
    /// after a pop, so it never under-counts a task its reader queued
    /// itself; it publishes nothing (the queue mutexes do), hence
    /// `Relaxed`.
    queued: AtomicUsize,
    sleep: Mutex<Sleep>,
    /// Signalled by [`Shared::wake`] and on shutdown — never by a push.
    work_cv: Condvar,
    /// Whether the last join on this pool had evidence for workers and
    /// ran, on its own thread, a task at least a [`GRAIN`] long — what the
    /// next join starts from. A statistic, hence `Relaxed`.
    coarse: AtomicBool,
    /// Times a worker went to sleep on `work_cv`.
    #[cfg(test)]
    park_cycles: AtomicUsize,
}

impl Shared {
    /// Grabs the next runnable task: own deque (LIFO), then the injector,
    /// then siblings (FIFO). One atomic load when nothing is queued.
    fn find_job(&self, me: Option<usize>) -> Option<Job> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let job = self.pop(me);
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    fn pop(&self, me: Option<usize>) -> Option<Job> {
        if let Some(i) = me {
            if let Some(job) = self.locals[i].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        for (i, local) in self.locals.iter().enumerate() {
            if Some(i) == me {
                continue;
            }
            if let Some(job) = local.lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Queues `job` and tells nobody: the joiner and any worker still
    /// awake find it through `queued`.
    fn push(&self, job: Job, me: Option<usize>) {
        self.queued.fetch_add(1, Ordering::Relaxed);
        let queue = me.map_or(&self.injector, |i| &self.locals[i]);
        queue.lock().unwrap().push_back(job);
    }

    /// Asks for up to `wanted` parked workers.
    fn wake(&self, wanted: usize) {
        if wanted == 0 {
            return;
        }
        let mut sleep = self.sleep.lock().unwrap();
        // A worker on its way to park sees the new epoch and stays up; only
        // parked ones need the notify, which is a system call either way.
        sleep.epoch = sleep.epoch.wrapping_add(1);
        if wanted < sleep.parked {
            for _ in 0..wanted {
                self.work_cv.notify_one();
            }
        } else if sleep.parked > 0 {
            self.work_cv.notify_all();
        }
    }

    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.id(), index))));
    let mut seen = 0;
    loop {
        let mut deadline = Instant::now() + LINGER;
        loop {
            if let Some(job) = shared.find_job(Some(index)) {
                // A panicking task must not kill the worker; the scope that
                // spawned it captures the payload inside the job wrapper, so
                // anything escaping here would be a bug in this crate itself.
                let start = Instant::now();
                job();
                let end = Instant::now();
                if end - start >= GRAIN {
                    deadline = end + LINGER;
                }
            } else if Instant::now() >= deadline {
                break;
            } else {
                std::hint::spin_loop();
            }
        }
        let mut sleep = shared.sleep.lock().unwrap();
        if sleep.shutdown {
            return;
        }
        if sleep.epoch == seen {
            #[cfg(test)]
            shared.park_cycles.fetch_add(1, Ordering::Relaxed);
            sleep.parked += 1;
            sleep = shared
                .work_cv
                .wait_while(sleep, |s| s.epoch == seen && !s.shutdown)
                .unwrap();
            sleep.parked -= 1;
        }
        // Otherwise a wake was requested while this worker was awake:
        // look at the queues for one more linger instead of parking.
        seen = sleep.epoch;
    }
}

const WAITING: u8 = 0;
const PARKED: u8 = 1;
const SET: u8 = 2;

/// Join-state of one `scope` invocation; lives on that call's stack frame.
struct JoinState {
    /// Unfinished tasks, plus one for the scope's own closure so the count
    /// cannot reach zero while tasks are still being spawned.
    pending: AtomicUsize,
    /// `SET` by whoever takes `pending` to zero — the last access any
    /// other thread makes to this state, after which the joiner may
    /// return and pop the frame.
    latch: AtomicU8,
    /// The joining thread, unparked by the task that finds it `PARKED`.
    joiner: Thread,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl JoinState {
    /// One task (or the scope's closure) is done. Returns whether it was
    /// the last, in which case the latch is now set.
    fn finish_one(&self) -> bool {
        // Release: this task's writes happen before the joiner's return;
        // Acquire: the last finisher observes every earlier one.
        if self.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return false;
        }
        // The state is still alive here — the joiner leaves only once the
        // latch is set — but not after the swap, so take the handle first.
        let joiner = self.joiner.clone();
        if self.latch.swap(SET, Ordering::AcqRel) == PARKED {
            joiner.unpark();
        }
        true
    }

    fn is_set(&self) -> bool {
        self.latch.load(Ordering::Acquire) == SET
    }
}

/// A fork-join scope handed to the closure of [`Executor::scope`].
///
/// Spawned closures may borrow anything that outlives the `scope` call
/// (lifetime `'env`), exactly like `std::thread::Scope`.
pub struct Scope<'pool, 'env> {
    shared: &'pool Arc<Shared>,
    state: &'pool JoinState,
    /// Invariant over `'env`, so the borrow checker pins captured
    /// references for the whole scope.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Submits `f` to the pool. It runs at most once, possibly on the
    /// calling thread while `scope` waits; `scope` returns only after it
    /// completed (or panicked — the panic resurfaces from `scope`).
    ///
    /// Spawning wakes no one. The task is guaranteed to start once the
    /// closure given to [`Executor::scope`] has returned and the join
    /// begins; a worker that happens to be awake may take it sooner.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let state = self.state;
        state.pending.fetch_add(1, Ordering::Relaxed);
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.finish_one();
        });
        // SAFETY: two lifetimes are erased, and `scope` bounds both. It
        // does not return before the latch is set, which happens only after
        // `pending` reached zero, i.e. after this job ran to completion: so
        // the `'env` borrows inside `f` never outlive the data they point
        // to (the same erasure every scoped pool — rayon, crossbeam —
        // performs), and `state`, which sits on `scope`'s stack frame, is
        // alive for every access the job makes to it — `finish_one` touches
        // it last in the swap that sets the latch.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        self.shared.push(job, current_worker(self.shared));
    }
}

fn current_worker(shared: &Arc<Shared>) -> Option<usize> {
    WORKER.with(|w| match w.get() {
        Some((pool, idx)) if pool == shared.id() => Some(idx),
        _ => None,
    })
}

/// A persistent pool of worker threads with scoped fork-join semantics.
///
/// `Executor::new(t)` provides parallelism `t`: it spawns `t - 1` worker
/// threads, because the thread calling [`Executor::scope`] always helps
/// run tasks while it waits. `Executor::new(1)` is therefore a zero-thread
/// pool that runs everything inline — handy for debugging and the
/// degenerate single-core case.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Executor {
    /// Creates a pool with total parallelism `threads` (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            sleep: Mutex::new(Sleep {
                parked: 0,
                epoch: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            coarse: AtomicBool::new(false),
            #[cfg(test)]
            park_cycles: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("unintt-exec-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] threads and never torn down.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(default_threads()))
    }

    /// Total parallelism (workers + the helping caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` with a [`Scope`] for spawning borrowed tasks, then blocks —
    /// helping execute queued tasks — until every spawn has completed.
    ///
    /// The join is where tasks are guaranteed to start (see
    /// [`Scope::spawn`]): `f` must not wait for a task it spawned.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from a spawned task (after all tasks
    /// finished), or the panic of `f` itself.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = JoinState {
            pending: AtomicUsize::new(1),
            latch: AtomicU8::new(WAITING),
            joiner: std::thread::current(),
            panic: Mutex::new(None),
        };
        let scope = Scope {
            shared: &self.shared,
            state: &state,
            _env: PhantomData,
        };
        // Even if `f` panics we must wait for already-spawned tasks, or
        // their `'env` borrows would dangle.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.join(&state);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Caller-helps join loop. Runs queued tasks from the first instant and
    /// asks for workers at most once, when there is evidence for them:
    ///
    /// * a [`GRAIN`] has passed and tasks are still queued; or
    /// * at once, if the last join on this pool had that evidence *and* its
    ///   own thread ran a task at least a grain long. This covers the one
    ///   place the first rule is blind — the joiner cannot watch the clock
    ///   from inside a task, so on the first rule alone a scope of two
    ///   30 ms chunks runs them one after the other, every time
    ///   (`exec.ntt_batch_scaling_x` 1.67 → 0.99). It reads the joiner's
    ///   own tasks, not how long the scope took: workers that should not
    ///   have been woken make a tiny scope slow, and a rule that took that
    ///   for evidence kept them awake (160 µs per 8 × 1 µs scope, stable).
    ///   A wrong carry-over costs one notify where traffic turns from
    ///   coarse to tiny, and the tiny scope clears it.
    ///
    /// When only stragglers on other threads remain, spins on the latch
    /// for a grain before parking: a straggler is usually a task the size
    /// of the ones just run, and a futex sleep plus the finisher's futex
    /// wake cost more than it does.
    fn join(&self, state: &JoinState) {
        if state.finish_one() {
            return;
        }
        let shared = &*self.shared;
        let me = current_worker(&self.shared);
        let has_workers = !shared.locals.is_empty();
        // One worker per queued task beyond the one this thread takes next.
        let ask = || shared.wake(shared.queued.load(Ordering::Relaxed).saturating_sub(1));
        let mut evident = has_workers && shared.coarse.load(Ordering::Relaxed);
        if evident {
            ask();
        }
        let start = Instant::now();
        let mut task_start = start;
        let mut coarse = false;
        let mut idle_since = None;
        while !state.is_set() {
            if let Some(job) = shared.find_job(me) {
                job();
                idle_since = None;
                let now = Instant::now();
                coarse |= now - task_start >= GRAIN;
                task_start = now;
                if has_workers
                    && !evident
                    && now - start >= GRAIN
                    && shared.queued.load(Ordering::Relaxed) > 0
                {
                    evident = true;
                    ask();
                }
                continue;
            }
            let now = Instant::now();
            task_start = now;
            if now - *idle_since.get_or_insert(now) < GRAIN {
                std::hint::spin_loop();
            } else if state
                .latch
                .compare_exchange(WAITING, PARKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // `park` may return early (a token left by an earlier
                // scope on this thread); the latch is the condition.
                while !state.is_set() {
                    std::thread::park();
                }
            }
        }
        let coarse = evident && coarse;
        if has_workers && shared.coarse.load(Ordering::Relaxed) != coarse {
            shared.coarse.store(coarse, Ordering::Relaxed);
        }
    }

    /// Convenience fork-join over `chunk_len`-sized chunks of `data`:
    /// `f(chunk_index, chunk)` runs once per chunk, in parallel. Chunk
    /// boundaries — and therefore results — are independent of the pool
    /// size. A single chunk runs inline without touching the queues.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0` (and `data` is non-empty), or re-raises
    /// a panic from `f`.
    pub fn parallel_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(chunk_len > 0, "chunk length must be positive");
        if data.len() <= chunk_len {
            f(0, data);
            return;
        }
        self.scope(|s| {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                let f = &f;
                s.spawn(move || f(i, chunk));
            }
        });
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // `drop` must not panic, and every update of `Sleep` leaves it
        // valid, so a poisoned lock is recovered rather than unwrapped.
        self.shared
            .sleep
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Default parallelism of the global pool: the `UNINTT_THREADS`
/// environment variable if set, else [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_joins_all_tasks() {
        let exec = Executor::new(4);
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn borrowed_mutation_lands_before_return() {
        let exec = Executor::new(3);
        let mut data = vec![0u64; 1000];
        exec.scope(|s| {
            for (i, chunk) in data.chunks_mut(100).enumerate() {
                s.spawn(move || {
                    for x in chunk.iter_mut() {
                        *x = i as u64;
                    }
                });
            }
        });
        for (i, chunk) in data.chunks(100).enumerate() {
            assert!(chunk.iter().all(|&x| x == i as u64));
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let exec = Executor::new(1);
        assert_eq!(exec.threads(), 1);
        let mut hit = false;
        exec.scope(|s| s.spawn(|| hit = true));
        // `hit` is visible again after the scope: the task ran on this
        // thread during the join.
        assert!(hit);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let exec = Executor::new(2);
        let total = AtomicUsize::new(0);
        exec.scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    Executor::global().scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let exec = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // Pool is still usable after the panic.
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn other_tasks_complete_despite_panic() {
        let exec = Executor::new(2);
        let counter = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                for i in 0..10 {
                    let counter = &counter;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("task 3");
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn parallel_chunks_mut_is_deterministic() {
        let exec = Executor::new(4);
        let mut a = vec![0u32; 77];
        let mut b = vec![0u32; 77];
        exec.parallel_chunks_mut(&mut a, 10, |i, c| {
            for (j, x) in c.iter_mut().enumerate() {
                *x = (i * 1000 + j) as u32;
            }
        });
        // Serial reference with identical chunking.
        for (i, c) in b.chunks_mut(10).enumerate() {
            for (j, x) in c.iter_mut().enumerate() {
                *x = (i * 1000 + j) as u32;
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_chunks_mut_empty_and_single() {
        let exec = Executor::new(4);
        let mut empty: Vec<u32> = vec![];
        exec.parallel_chunks_mut(&mut empty, 8, |_, _| panic!("must not run"));
        let mut one = vec![7u32];
        exec.parallel_chunks_mut(&mut one, 8, |i, c| {
            assert_eq!(i, 0);
            c[0] = 9;
        });
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn global_pool_is_reused() {
        let a = Executor::global() as *const Executor;
        let b = Executor::global() as *const Executor;
        assert_eq!(a, b);
        assert!(Executor::global().threads() >= 1);
    }

    #[test]
    fn many_scopes_stress() {
        let exec = Executor::new(4);
        for round in 0..200 {
            let counter = AtomicUsize::new(0);
            exec.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 8, "round {round}");
        }
    }

    /// Busy work of roughly `d`, immune to how many cores are free.
    fn spin_for(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Blocks until every worker of `exec` is waiting on `work_cv`.
    fn wait_until_parked(exec: &Executor) {
        while exec.shared.sleep.lock().unwrap().parked < exec.handles.len() {
            std::thread::yield_now();
        }
    }

    /// An idle pool is idle — no worker polls — and a wake request, not a
    /// timeout, is what delivers work to a parked worker.
    #[test]
    fn idle_pool_parks_once_and_still_delivers() {
        let exec = Executor::new(4);
        std::thread::sleep(Duration::from_millis(200));
        wait_until_parked(&exec);
        // One park per worker; the 1 ms poll this replaces made ≈ 200 each.
        let cycles = exec.shared.park_cycles.load(Ordering::Relaxed);
        assert!(cycles <= 2 * exec.handles.len(), "{cycles} park cycles");

        // Tasks that outlast the grain reach the parked workers. The joiner
        // runs a first task that outlasts the grain, which is the evidence
        // that wakes a worker; the two tasks behind it can only finish
        // together, each waiting at a rendezvous for the other, so they
        // complete only if a woken worker runs one while the joiner runs
        // the other. Run one after the other, the first would wait out
        // the timeout and fail.
        let caller = std::thread::current().id();
        let on_worker = AtomicUsize::new(0);
        let arrived = (Mutex::new(0usize), Condvar::new());
        exec.scope(|s| {
            s.spawn(|| std::thread::sleep(Duration::from_millis(1)));
            for _ in 0..2 {
                s.spawn(|| {
                    let (count, cv) = &arrived;
                    let mut n = count.lock().unwrap();
                    *n += 1;
                    cv.notify_all();
                    let (n, wait) = cv
                        .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                        .unwrap();
                    assert!(!wait.timed_out(), "the two tasks never ran at once");
                    drop(n);
                    if std::thread::current().id() != caller {
                        on_worker.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(on_worker.load(Ordering::Relaxed) > 0, "no worker was woken");
    }

    fn percentiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
        (at(0.1), at(0.5), at(0.9))
    }

    /// What [`GRAIN`] and [`LINGER`] are sized against, on the running
    /// host: the wake-up round trip, the cost of a tiny scope that stays on
    /// the caller, what an awake worker's steals add to it, and what a
    /// cold pool costs a scope of a few large tasks.
    /// `cargo test -p unintt-exec --release wake_and_steal_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn wake_and_steal_profile() {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        println!(
            "host: {} logical core(s); GRAIN {GRAIN:?}, LINGER {LINGER:?}",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );

        // Task handed to a parked worker: notify cost on the caller and
        // delay until the task's first instruction.
        let exec = Executor::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let (mut notify, mut trip) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            wait_until_parked(&exec);
            let tx = tx.clone();
            let t0 = Instant::now();
            exec.shared
                .push(Box::new(move || tx.send(Instant::now()).unwrap()), None);
            exec.shared.wake(1);
            let t1 = Instant::now();
            let started = rx.recv().unwrap();
            notify.push(us(t1 - t0));
            trip.push(us(started - t0));
        }
        let (a, b, c) = percentiles(notify);
        println!("push + wake on the caller:        p10 {a:6.1}  p50 {b:6.1}  p90 {c:6.1} us");
        let (a, b, c) = percentiles(trip);
        println!("push -> first instruction, parked: p10 {a:6.1}  p50 {b:6.1}  p90 {c:6.1} us");

        // Scopes of eight ~1 us tasks, each rewriting its own 8 KiB shard
        // of one buffer (what a simulated-device phase does): on a
        // one-thread pool, on a pool whose worker is parked, and with the
        // worker kept awake (a wake request per scope renews its linger).
        let tiny = |exec: &Executor, keep_awake: bool| {
            let caller = std::thread::current().id();
            let stolen = AtomicUsize::new(0);
            let mut data = vec![1u64; 8 * 1024];
            let mut per_scope = Vec::new();
            for round in 0..200 {
                if keep_awake {
                    exec.shared.wake(1);
                    spin_for(4 * LINGER);
                }
                let t = Instant::now();
                for _ in 0..50 {
                    if keep_awake {
                        exec.shared.wake(1);
                    }
                    exec.scope(|s| {
                        for shard in data.chunks_mut(1024) {
                            let stolen = &stolen;
                            s.spawn(move || {
                                for _ in 0..2 {
                                    for x in shard.iter_mut() {
                                        *x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 1;
                                    }
                                }
                                if std::thread::current().id() != caller {
                                    stolen.fetch_add(1, Ordering::Relaxed);
                                }
                            });
                        }
                    });
                }
                if round >= 20 {
                    per_scope.push(us(t.elapsed()) / 50.0);
                }
            }
            let (a, b, c) = percentiles(per_scope);
            println!(
                "    per scope p10 {a:6.2}  p50 {b:6.2}  p90 {c:6.2} us; {:.1} % of tasks stolen",
                stolen.load(Ordering::Relaxed) as f64 / (200.0 * 50.0 * 8.0) * 100.0
            );
        };
        println!("8 x 1 us scope, Executor::new(1):");
        tiny(&Executor::new(1), false);
        println!("8 x 1 us scope, Executor::new(2), worker parked:");
        wait_until_parked(&exec);
        tiny(&exec, false);
        println!("8 x 1 us scope, Executor::new(2), worker kept awake:");
        tiny(&exec, true);

        // A few large tasks: back to back (the linger keeps the worker
        // hot) and after an idle gap (it has parked).
        for (tasks, each_us) in [(2usize, 2_000u64), (8, 250)] {
            for gap_us in [0u64, 1_000] {
                let mut wall = Vec::new();
                for _ in 0..40 {
                    spin_for(Duration::from_micros(gap_us));
                    let t = Instant::now();
                    exec.scope(|s| {
                        for _ in 0..tasks {
                            s.spawn(move || spin_for(Duration::from_micros(each_us)));
                        }
                    });
                    wall.push(us(t.elapsed()));
                }
                let (a, b, c) = percentiles(wall);
                println!(
                    "{tasks} x {each_us} us scope after a {gap_us} us gap: p10 {a:7.0}  p50 {b:7.0}  p90 {c:7.0} us (serial {}, 2 threads {})",
                    tasks as u64 * each_us,
                    tasks as u64 * each_us / 2
                );
            }
        }
    }
}
