//! Concurrency properties of the process-wide caches and the vector
//! kernels: many executor-pool workers constructing [`Ntt`] contexts and
//! transforming simultaneously must neither deadlock nor diverge from the
//! single-threaded results.
//!
//! This is the access pattern of the `unintt-serve` proving service: a
//! long-lived process where every dispatch builds contexts for whatever
//! `(field, log_n)` the coalesced batch needs, from whichever pool worker
//! picked the task up.

use std::sync::Mutex;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_exec::Executor;
use unintt_ff::{BabyBear, Field, Goldilocks, TwoAdicField};
use unintt_ntt::{Direction, Ntt};

fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
}

/// One transform through a freshly constructed context (so every call
/// goes through the shared table/plan caches).
fn transform<F: TwoAdicField>(log_n: u32, seed: u64, direction: Direction) -> Vec<F> {
    let ntt = Ntt::<F>::new(log_n);
    let mut data = random_vec::<F>(log_n, seed);
    match direction {
        Direction::Forward => ntt.forward(&mut data),
        Direction::Inverse => ntt.inverse(&mut data),
    }
    data
}

/// Runs the same task grid serially and on the pool; every slot must be
/// bit-identical.
fn check_concurrent_matches_serial(log_ns: &[u32], seeds: &[u64]) {
    // Task list: (log_n, seed, direction) over both fields.
    let mut tasks = Vec::new();
    for &log_n in log_ns {
        for &seed in seeds {
            tasks.push((log_n, seed, Direction::Forward));
            tasks.push((log_n, seed, Direction::Inverse));
        }
    }

    let serial_g: Vec<Vec<Goldilocks>> = tasks
        .iter()
        .map(|&(log_n, seed, dir)| transform::<Goldilocks>(log_n, seed, dir))
        .collect();
    let serial_b: Vec<Vec<BabyBear>> = tasks
        .iter()
        .map(|&(log_n, seed, dir)| transform::<BabyBear>(log_n, seed, dir))
        .collect();

    let mut par_g: Vec<Vec<Goldilocks>> = vec![Vec::new(); tasks.len()];
    let mut par_b: Vec<Vec<BabyBear>> = vec![Vec::new(); tasks.len()];
    Executor::global().scope(|s| {
        for ((slot_g, slot_b), &(log_n, seed, dir)) in
            par_g.iter_mut().zip(par_b.iter_mut()).zip(tasks.iter())
        {
            s.spawn(move || {
                *slot_g = transform::<Goldilocks>(log_n, seed, dir);
                *slot_b = transform::<BabyBear>(log_n, seed, dir);
            });
        }
    });

    assert_eq!(par_g, serial_g, "Goldilocks results must be bit-identical");
    assert_eq!(par_b, serial_b, "BabyBear results must be bit-identical");
}

#[test]
fn pool_workers_share_caches_without_divergence() {
    check_concurrent_matches_serial(&[4, 6, 8, 10, 12], &[1, 2, 3, 4]);
}

#[test]
fn repeated_rounds_do_not_deadlock() {
    // Several scope generations against the same global caches: a lost
    // wakeup or a lock inversion in the cache layer would hang here.
    for round in 0..8 {
        check_concurrent_matches_serial(&[5, 7, 9], &[round as u64, round as u64 + 100]);
    }
}

#[test]
fn nested_scopes_hit_caches_safely() {
    // The serving layer runs batched transforms from inside pool tasks:
    // an inner scope per outer task, all sharing one cache.
    let expected: Vec<Goldilocks> = transform::<Goldilocks>(8, 7, Direction::Forward);
    let results: Mutex<Vec<Vec<Goldilocks>>> = Mutex::new(Vec::new());
    Executor::global().scope(|outer| {
        for _ in 0..4 {
            let results = &results;
            let expected = &expected;
            outer.spawn(move || {
                Executor::global().scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(move || {
                            let got = transform::<Goldilocks>(8, 7, Direction::Forward);
                            assert_eq!(&got, expected);
                            results.lock().unwrap().push(got);
                        });
                    }
                });
            });
        }
    });
    assert_eq!(results.lock().unwrap().len(), 16);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary size/seed mixes: concurrent cache-mediated transforms
    /// stay bit-identical to serial execution.
    #[test]
    fn concurrent_transform_matches_serial(
        log_a in 3u32..11,
        log_b in 3u32..11,
        seed in 0u64..1_000,
    ) {
        let mut serial: Vec<Vec<Goldilocks>> = Vec::new();
        for &(log_n, s) in &[(log_a, seed), (log_b, seed + 1), (log_a, seed + 2)] {
            serial.push(transform::<Goldilocks>(log_n, s, Direction::Forward));
        }
        let mut parallel: Vec<Vec<Goldilocks>> = vec![Vec::new(); 3];
        Executor::global().scope(|s| {
            for (slot, &(log_n, sd)) in parallel
                .iter_mut()
                .zip([(log_a, seed), (log_b, seed + 1), (log_a, seed + 2)].iter())
            {
                s.spawn(move || {
                    *slot = transform::<Goldilocks>(log_n, sd, Direction::Forward);
                });
            }
        });
        prop_assert_eq!(parallel, serial);
    }
}
