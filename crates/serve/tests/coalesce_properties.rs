//! Property-based tests of the batch coalescer: conservation (every
//! offered job lands in exactly one released batch) and window-clock
//! sanity, fuzzed over arbitrary interleavings of `offer`, `close_due`
//! and `flush`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use unintt_ntt::Direction;
use unintt_serve::{
    Coalescer, JobClass, JobId, JobSpec, Priority, QueuedJob, ReadyBatch, ServiceField, SimTime,
};

/// One step of a driven coalescer session. Times advance by the step's
/// `dt`, so any generated sequence is a valid simulated-clock history.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Offer a job of the given shape index after `dt` ns.
    Offer { shape: usize, dt: f64 },
    /// Close due windows after `dt` ns.
    CloseDue { dt: f64 },
    /// Flush everything after `dt` ns.
    Flush { dt: f64 },
}

/// A small palette of shapes: coalescable raw-NTT variants plus two
/// singleton classes (no batch key).
fn shape(idx: usize) -> JobClass {
    match idx % 6 {
        0 => JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 8,
            direction: Direction::Forward,
        },
        1 => JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 8,
            direction: Direction::Inverse,
        },
        2 => JobClass::RawNtt {
            field: ServiceField::BabyBear,
            log_n: 8,
            direction: Direction::Forward,
        },
        3 => JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 10,
            direction: Direction::Forward,
        },
        4 => JobClass::PlonkProve { log_gates: 5 },
        _ => JobClass::StarkCommit {
            log_trace: 8,
            columns: 4,
        },
    }
}

/// A seeded random interleaving weighted toward offers.
fn ops_from_seed(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let dt = rng.gen::<f64>() * 60_000.0;
            match rng.gen_range(0..7) {
                0..=3 => Op::Offer {
                    shape: rng.gen_range(0..6) as usize,
                    dt,
                },
                4..=5 => Op::CloseDue { dt },
                _ => Op::Flush { dt },
            }
        })
        .collect()
}

fn offer(coalescer: &mut Coalescer, id: u64, s: usize, now: SimTime) -> Option<ReadyBatch> {
    coalescer.offer(
        QueuedJob {
            id: JobId(id),
            spec: JobSpec {
                tenant: (id % 3) as u32,
                class: shape(s),
                priority: Priority::Normal,
                deadline_ns: None,
                arrival_ns: now.as_ns(),
            },
        },
        now,
    )
}

/// Drives the ops and returns `(released batches, offered job count)`.
fn drive(window_ns: f64, max_batch: usize, ops: &[Op]) -> (Vec<ReadyBatch>, u64) {
    let mut coalescer = Coalescer::new(SimTime::from_ns(window_ns), max_batch);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut released = Vec::new();
    for op in ops {
        match *op {
            Op::Offer { shape: s, dt } => {
                now += SimTime::from_ns(dt);
                released.extend(offer(&mut coalescer, next_id, s, now));
                next_id += 1;
                // Note: an overdue window may stay open here — closing
                // is the caller's job via `close_due`, not `offer`'s.
            }
            Op::CloseDue { dt } => {
                now += SimTime::from_ns(dt);
                released.extend(coalescer.close_due(now));
                if let Some(t) = coalescer.next_close() {
                    assert!(t > now, "surviving window {t:?} was already due at {now:?}");
                }
            }
            Op::Flush { dt } => {
                now += SimTime::from_ns(dt);
                released.extend(coalescer.flush(now));
                assert_eq!(coalescer.next_close(), None, "flush empties every window");
                assert_eq!(coalescer.queued(), 0);
            }
        }
    }
    released.extend(coalescer.flush(now));
    (released, next_id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation: across any interleaving of offers, window closes
    /// and flushes, every offered job appears in exactly one released
    /// batch — nothing is lost, nothing is duplicated.
    #[test]
    fn every_job_released_exactly_once(
        seed in any::<u64>(),
        windowless in any::<bool>(),
        window_ns in 1.0f64..100_000.0,
        max_batch in 1usize..20,
        op_count in 0usize..60,
    ) {
        let window_ns = if windowless { 0.0 } else { window_ns };
        let (released, offered) = drive(window_ns, max_batch, &ops_from_seed(seed, op_count));
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        for batch in &released {
            for job in &batch.jobs {
                *seen.entry(job.id.0).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(seen.len() as u64, offered, "every job released");
        prop_assert!(seen.values().all(|&n| n == 1), "no job released twice");
    }

    /// Shape discipline: every released batch is homogeneous — all
    /// members share the batch's key — and never exceeds `max_batch`.
    /// Singleton classes always ride alone with no key.
    #[test]
    fn batches_are_homogeneous_and_capped(
        seed in any::<u64>(),
        window_ns in 1.0f64..100_000.0,
        max_batch in 1usize..20,
        op_count in 0usize..60,
    ) {
        let (released, _) = drive(window_ns, max_batch, &ops_from_seed(seed, op_count));
        for batch in &released {
            match batch.key {
                Some(key) => {
                    prop_assert!(batch.jobs.len() <= max_batch);
                    prop_assert!(batch
                        .jobs
                        .iter()
                        .all(|j| j.spec.class.batch_key() == Some(key)));
                }
                None => {
                    prop_assert_eq!(batch.jobs.len(), 1, "singletons ride alone");
                    prop_assert!(batch.jobs[0].spec.class.batch_key().is_none());
                }
            }
        }
    }

    /// The window clock is monotone along any history: a `close_due`
    /// call at time `t_k` only releases batches whose ready instant lies
    /// in `(t_{k-1}, t_k]` — anything due earlier was already released
    /// by the previous call, so ready times never run backwards across
    /// calls (within one call the coalescer orders by key, not time).
    #[test]
    fn close_times_are_monotone_across_calls(
        seed in any::<u64>(),
        window_ns in 1.0f64..100_000.0,
        max_batch in 2usize..20,
        op_count in 0usize..60,
    ) {
        let mut coalescer = Coalescer::new(SimTime::from_ns(window_ns), max_batch);
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut prev_call = None;
        for op in ops_from_seed(seed, op_count) {
            match op {
                Op::Offer { shape: s, dt } => {
                    now += SimTime::from_ns(dt);
                    let _ = offer(&mut coalescer, next_id, s, now);
                    next_id += 1;
                }
                Op::CloseDue { dt } | Op::Flush { dt } => {
                    now += SimTime::from_ns(dt);
                    for batch in coalescer.close_due(now) {
                        prop_assert!(
                            Some(batch.ready) > prev_call && batch.ready <= now,
                            "batch ready at {:?} outside ({:?}, {:?}]",
                            batch.ready,
                            prev_call,
                            now
                        );
                    }
                    prev_call = Some(now);
                }
            }
        }
    }
}
