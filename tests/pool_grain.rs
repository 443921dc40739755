//! The pool's scheduling contract, through `unintt_exec`'s public API.
//!
//! `exec` wakes a worker only on evidence that a scope is worth one: a
//! scope whose work fits in a wake-up round trip runs on the calling
//! thread, in spawn order, and a scope that outlasts it is shared with the
//! workers. Who runs a task may depend on the wall clock; what the tasks
//! compute may not — the last test pins a raw serving stream and a forked
//! 2^21 transform to digests captured before the policy changed.
//!
//! The tests take turns (one lock): each is about which thread runs what,
//! and on a two-core host a neighbour's busy loop would decide that.
//!
//! Nothing here asserts an elapsed time: how much of the tiny traffic stays
//! on the caller and how fast a shared scope finishes depend on the host's
//! noise, so those bounds live in the `#[ignore]`d `*_profile` tests. Run
//! them with `cargo test --release --test pool_grain -- --ignored`.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, SeedableRng};
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, PrimeField};
use unintt_ntt::Ntt;
use unintt_serve::{ProofService, ServiceConfig, WorkloadSpec};

fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spin_for(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Runs one scope of `tasks` tasks on `exec`, each doing `work` first, and
/// returns `(task index, thread)` in execution order.
fn logged_scope(exec: &Executor, tasks: usize, work: impl Fn() + Sync) -> Vec<(usize, ThreadId)> {
    let log = Mutex::new(Vec::with_capacity(tasks));
    exec.scope(|s| {
        for i in 0..tasks {
            let (log, work) = (&log, &work);
            s.spawn(move || {
                work();
                log.lock().unwrap().push((i, thread::current().id()));
            });
        }
    });
    log.into_inner().unwrap()
}

/// (a) A scope under the grain runs as a one-thread pool would run it:
/// every task once, and a scope that ran wholly on the caller ran in spawn
/// order.
#[test]
fn tiny_scopes_run_on_the_caller_in_spawn_order() {
    let _turn = turn();
    let exec = Executor::new(4);
    let caller = thread::current().id();
    for round in 0..2_000u64 {
        // Empty tasks and ≈ 1/2 µs tasks, alternating.
        let work = Duration::from_nanos(round % 2 * 500);
        let mut log = logged_scope(&exec, 8, || spin_for(work));
        if log.iter().all(|(_, t)| *t == caller) {
            assert!(
                log.iter().map(|(i, _)| *i).eq(0..8),
                "round {round} ran out of spawn order: {log:?}"
            );
        }
        log.sort_unstable_by_key(|(i, _)| *i);
        assert!(
            log.iter().map(|(i, _)| *i).eq(0..8),
            "round {round}: {log:?}"
        );
    }
}

/// How much tiny traffic stays on the caller. The evidence is wall time,
/// so a scope the host stalls mid-way (a timer tick, a neighbour's time
/// slice) is, correctly, offered to the workers, and a woken worker takes
/// tasks for a moment before it parks again. Such a scope is recognisable
/// from outside — it took several times what a tiny scope takes — so it
/// and the millisecond after it are left out of the count; the thousand
/// scopes that are counted had no such excuse.
#[test]
#[ignore = "wall-clock bound; depends on host noise"]
fn tiny_scopes_stay_on_the_caller_profile() {
    /// Many tiny scopes, and still under any wake-up round trip.
    const STALLED: Duration = Duration::from_micros(15);
    let _turn = turn();
    let exec = Executor::new(4);
    // Time for the three workers to find nothing and park.
    thread::sleep(Duration::from_millis(50));
    let caller = thread::current().id();
    let (mut scopes, mut on_caller) = (0, 0);
    let mut counting_from = Instant::now();
    for round in 0..50_000 {
        let work = Duration::from_nanos(round % 2 * 500);
        let began = Instant::now();
        let log = logged_scope(&exec, 8, || spin_for(work));
        let wall = began.elapsed();
        let here = log.iter().filter(|(_, t)| *t == caller).count();
        if wall >= STALLED {
            counting_from = Instant::now() + Duration::from_millis(1);
        } else if began >= counting_from {
            scopes += 1;
            on_caller += here;
            if scopes == 1000 {
                break;
            }
        }
    }
    assert_eq!(scopes, 1000, "the host stalled almost every scope");
    // A worker descheduled in mid-linger may still take one task late.
    assert!(
        on_caller * 100 >= scopes * 8 * 99,
        "{on_caller} of {} tiny tasks ran on the caller",
        scopes * 8
    );
}

/// (b) A scope that outlasts the grain gets workers. The tasks sleep, so
/// the check does not depend on free cores.
#[test]
fn a_long_scope_is_shared_with_the_workers() {
    let _turn = turn();
    let exec = Executor::new(4);
    thread::sleep(Duration::from_millis(50));
    let log = logged_scope(&exec, 8, || thread::sleep(Duration::from_millis(2)));
    let threads: HashSet<_> = log.iter().map(|(_, t)| *t).collect();
    assert!(threads.len() >= 2, "ran on {} thread(s)", threads.len());
}

/// How long the shared scope of (b) takes: serial is 8 × 2 ms; the
/// caller's first task plus seven over four threads is 6 ms.
#[test]
#[ignore = "wall-clock bound; depends on host noise"]
fn a_long_scope_is_shared_with_the_workers_profile() {
    let _turn = turn();
    let exec = Executor::new(4);
    thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    logged_scope(&exec, 8, || thread::sleep(Duration::from_millis(2)));
    let wall = t.elapsed();
    assert!(wall < Duration::from_millis(13), "took {wall:?}");
}

/// (c) Tiny and large scopes alternated from two callers, one level of
/// nesting: nothing deadlocks and nothing is lost.
#[test]
fn mixed_traffic_from_two_callers_loses_no_task() {
    let _turn = turn();
    let (done, finished) = mpsc::channel();
    let traffic = thread::spawn(move || {
        let exec = Executor::new(4);
        let (spawned, ran) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let until = Instant::now() + Duration::from_secs(1);
        let caller = || {
            let task = |work: Duration| {
                spawned.fetch_add(1, Ordering::Relaxed);
                let ran = &ran;
                move || {
                    spin_for(work);
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            };
            while Instant::now() < until {
                exec.scope(|s| {
                    for _ in 0..8 {
                        s.spawn(task(Duration::ZERO));
                    }
                });
                exec.scope(|s| {
                    for i in 0..8 {
                        s.spawn(task(Duration::from_micros(100)));
                        if i == 3 {
                            spawned.fetch_add(1, Ordering::Relaxed);
                            let (exec, ran, task) = (&exec, &ran, &task);
                            s.spawn(move || {
                                exec.scope(|inner| {
                                    for _ in 0..4 {
                                        inner.spawn(task(Duration::from_micros(10)));
                                    }
                                });
                                ran.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                });
            }
        };
        thread::scope(|s| {
            s.spawn(caller);
            s.spawn(caller);
        });
        done.send((spawned.into_inner(), ran.into_inner())).unwrap();
    });
    let (spawned, ran) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("deadlocked: 1 s of traffic did not finish in 60 s");
    traffic.join().unwrap();
    assert!(spawned > 0);
    assert_eq!(ran, spawned);
}

/// (d) What the in-crate tests pin about panics and the one-thread pool
/// holds under the new join.
#[test]
fn panics_and_the_one_thread_pool_behave_as_before() {
    let _turn = turn();
    let exec = Executor::new(2);

    // A task's panic resurfaces from `scope` after its siblings ran, and
    // the pool survives it.
    let ran = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        exec.scope(|s| {
            for i in 0..10 {
                let ran = &ran;
                s.spawn(move || {
                    if i == 3 {
                        panic!("task 3");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }));
    assert_eq!(
        result.unwrap_err().downcast_ref::<&str>(),
        Some(&"task 3"),
        "the task's payload is what resurfaces"
    );
    assert_eq!(ran.load(Ordering::Relaxed), 9);

    // The closure panicking after it spawned: the tasks still run before
    // `scope` unwinds (their borrows would dangle otherwise).
    let ran = AtomicUsize::new(0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        exec.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            panic!("closure");
        });
    }));
    assert_eq!(result.unwrap_err().downcast_ref::<&str>(), Some(&"closure"));
    assert_eq!(ran.load(Ordering::Relaxed), 4);
    assert_eq!(logged_scope(&exec, 8, || ()).len(), 8);

    // One thread: everything inline, in spawn order, on the caller.
    let exec = Executor::new(1);
    assert_eq!(exec.threads(), 1);
    let caller = thread::current().id();
    let log = logged_scope(&exec, 8, || spin_for(Duration::from_micros(50)));
    assert!(log
        .iter()
        .map(|&(i, t)| (i, t))
        .eq((0..8).map(|i| (i, caller))));
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (e) Values computed on the pool are the ones the always-wake pool
/// produced: a raw serving stream (every simulated-device phase is a tiny
/// scope) and a 2^21 transform (every six-step phase is a large one). The
/// stream's completion instants and horizon were re-captured when the
/// event loops, and again when the machine clock, moved to integer
/// picoseconds (within 19 ps); its digests were not.
#[test]
fn outputs_match_the_always_wake_pool() {
    let _turn = turn();
    let mut service = ProofService::new(ServiceConfig::default());
    service.submit_all(WorkloadSpec::raw_only(21, 64, 80_000.0).generate());
    let report = service.run();
    let outcomes = fnv(report
        .outcomes
        .iter()
        .flat_map(|o| [o.id.0, o.completed_ns.to_bits(), o.output_digest]));
    assert_eq!(outcomes, 0xa5b8_2800_b762_7240, "raw stream outcomes");
    assert_eq!(
        report.metrics.horizon_ns.to_bits(),
        0x4147_430d_4c28_f5c3,
        "raw stream horizon"
    );

    let mut rng = StdRng::seed_from_u64(21);
    let mut values: Vec<Goldilocks> = (0..1 << 21).map(|_| Goldilocks::random(&mut rng)).collect();
    Ntt::<Goldilocks>::new(21).forward(&mut values);
    let transform = fnv(values.iter().map(|v| v.to_canonical_u64()));
    assert_eq!(transform, 0xf015_bd52_b929_2187, "2^21 forward transform");
}
