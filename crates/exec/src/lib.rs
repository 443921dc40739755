//! # unintt-exec — persistent work-stealing executor
//!
//! Every hot loop in the workspace used to open a fresh
//! [`std::thread::scope`] per NTT stage, per batch, per simulated device
//! phase — paying thread creation and teardown thousands of times per
//! experiment. This crate replaces those with one process-wide pool:
//!
//! * **Persistent workers** — OS threads are created once (lazily, on first
//!   use of [`Executor::global`]) and reused for every subsequent scope.
//! * **Work stealing** — each worker owns a deque; it pops its own work
//!   LIFO and steals FIFO from the shared injector and from siblings, so
//!   irregular task sizes still balance.
//! * **Scoped fork-join** — [`Executor::scope`] mirrors the
//!   `std::thread::scope` API: closures may borrow from the caller's stack,
//!   and `scope` does not return until every spawned task has finished.
//!   The calling thread *helps* run tasks while it waits, so a pool with
//!   zero workers (single-core machines) degrades to plain serial
//!   execution instead of deadlocking, and nested scopes are safe.
//! * **Deterministic chunking** — the pool never decides how work is
//!   split. Callers chunk their data themselves (the `threads` parameter
//!   of `batch_transform_parallel`, the fixed row bands of a large `Ntt`
//!   transform, …) and each chunk's result lands in its own disjoint
//!   slice, so results are
//!   bit-identical for any pool size, including the simulated-clock
//!   accounting and fault-injection decisions in `unintt-gpu-sim`.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "UNINTT_THREADS";

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// (pool identity, worker index) when the current thread is a pool
    /// worker; lets `spawn` push to the local deque and `scope` steal
    /// correctly while helping.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Shared state between the pool handle and its workers.
struct Shared {
    /// Tasks injected by non-worker threads (FIFO).
    injector: Mutex<VecDeque<Job>>,
    /// One deque per worker: owner pops LIFO, thieves steal FIFO.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Signalled on every push; workers park on it (with a bounded
    /// timeout, so a lost wakeup only costs a millisecond).
    work_cv: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Grabs the next runnable task: own deque (LIFO), then the injector,
    /// then siblings (FIFO).
    fn find_job(&self, me: Option<usize>) -> Option<Job> {
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

    fn push(&self, job: Job, me: Option<usize>) {
        match me {
            Some(i) => {
                self.locals[i].lock().unwrap().push_back(job);
                // Wake sleepers; taking the injector lock pairs the notify
                // with their condvar wait.
                let _guard = self.injector.lock().unwrap();
                self.work_cv.notify_all();
            }
            None => {
                let mut q = self.injector.lock().unwrap();
                q.push_back(job);
                self.work_cv.notify_all();
            }
        }
    }

    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.id(), index))));
    loop {
        if let Some(job) = shared.find_job(Some(index)) {
            // A panicking task must not kill the worker; the scope that
            // spawned it captures the payload inside the job wrapper, so
            // anything escaping here would be a bug in this crate itself.
            job();
            continue;
        }
        let guard = shared.injector.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Bounded wait: local-deque pushes can race past the notify, so
        // never park unconditionally.
        let _ = shared
            .work_cv
            .wait_timeout(guard, Duration::from_millis(1))
            .unwrap();
    }
}

/// Join-state of one `scope` invocation.
struct ScopeState {
    pending: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fork-join scope handed to the closure of [`Executor::scope`].
///
/// Spawned closures may borrow anything that outlives the `scope` call
/// (lifetime `'env`), exactly like `std::thread::Scope`.
pub struct Scope<'pool, 'env> {
    shared: &'pool Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, so the borrow checker pins captured
    /// references for the whole scope.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Submits `f` to the pool. It runs at most once, possibly on the
    /// calling thread while `scope` waits; `scope` returns only after it
    /// completed (or panicked — the panic resurfaces from `scope`).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done_cv.notify_all();
            }
        });
        // SAFETY: `scope` blocks until `pending == 0`, i.e. until this job
        // has run to completion, so the `'env` borrows inside the closure
        // never outlive the data they point to. This is the same erasure
        // every scoped pool (rayon, crossbeam) performs.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        let me = current_worker(self.shared);
        self.shared.push(job, me);
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
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
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
    /// # Panics
    ///
    /// Re-raises the first panic from a spawned task (after all tasks
    /// finished), or the panic of `f` itself.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            shared: &self.shared,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done_cv: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: PhantomData,
        };
        // Even if `f` panics we must wait for already-spawned tasks, or
        // their `'env` borrows would dangle.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until_done(&scope.state);
        if let Some(payload) = scope.state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Caller-helps join loop: run any available task; otherwise briefly
    /// park on the scope's completion condvar.
    fn help_until_done(&self, state: &ScopeState) {
        let me = current_worker(&self.shared);
        loop {
            if *state.pending.lock().unwrap() == 0 {
                return;
            }
            if let Some(job) = self.shared.find_job(me) {
                job();
                continue;
            }
            let pending = state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            let _ = state
                .done_cv
                .wait_timeout(pending, Duration::from_micros(200))
                .unwrap();
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
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.injector.lock().unwrap();
            self.shared.work_cv.notify_all();
        }
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
}
