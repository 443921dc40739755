//! The batch coalescer: groups compatible raw-NTT jobs arriving within a
//! time window into one batched dispatch.
//!
//! Compatibility is exact shape equality — same field, same size, same
//! direction — because only then can the jobs share a cluster plan and
//! twiddle set. A batch closes when its window expires, when it reaches
//! the size cap, or when the service drains. Non-batchable jobs (proofs,
//! commitments) pass straight through as singleton batches.

use std::collections::BTreeMap;

use unintt_gpu_sim::SimTime;

use crate::job::{JobId, JobSpec, ServiceField};

/// The coalescing key: jobs with equal keys share one dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchKey {
    /// Field of the transform.
    pub field: ServiceField,
    /// Transform size exponent.
    pub log_n: u32,
    /// `true` for forward transforms (`Direction` itself is not `Ord`).
    pub forward: bool,
}

/// A job sitting in the service: its id plus the submitted spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueuedJob {
    /// Service-assigned id (also the deterministic tie-breaker).
    pub id: JobId,
    /// The submission.
    pub spec: JobSpec,
}

impl QueuedJob {
    /// The arrival instant on the event clock. Runners admit only jobs
    /// whose arrival converts (see `dispatch::arrival_order`).
    pub(crate) fn arrival(&self) -> SimTime {
        SimTime::from_ns(self.spec.arrival_ns)
    }

    /// The deadline on the event clock, `None` when it never expires: a
    /// negative deadline expires at once, and a NaN, infinite or
    /// out-of-range one never does — what comparing the `f64` against
    /// any reachable instant would say.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        self.spec.deadline_ns.and_then(|d| {
            if d < 0.0 {
                Some(SimTime::ZERO)
            } else {
                SimTime::try_from_ns(d)
            }
        })
    }
}

/// A closed batch, ready for the dispatcher.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadyBatch {
    /// The shared shape, or `None` for a singleton non-batchable job.
    pub key: Option<BatchKey>,
    /// Members in admission order.
    pub jobs: Vec<QueuedJob>,
    /// When the batch became ready.
    pub ready: SimTime,
}

impl ReadyBatch {
    /// Number of member jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the batch has no members (never produced by the
    /// coalescer; useful for defensive checks).
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Deterministic FIFO tie-breaker: the earliest member id.
    pub fn first_id(&self) -> JobId {
        self.jobs.first().map(|j| j.id).unwrap_or(JobId(u64::MAX))
    }
}

/// One open (still-collecting) batch.
#[derive(Debug)]
struct OpenBatch {
    jobs: Vec<QueuedJob>,
    /// When the first member arrived; the window runs from here.
    opened: SimTime,
}

/// Time/size-windowed batch coalescer. All state is keyed through a
/// `BTreeMap` so close order is deterministic.
#[derive(Debug)]
pub struct Coalescer {
    window: SimTime,
    max_batch: usize,
    open: BTreeMap<BatchKey, OpenBatch>,
}

impl Coalescer {
    /// A coalescer with the given window and size cap (`max_batch` is
    /// clamped to at least 1). A zero window disables coalescing.
    pub fn new(window: SimTime, max_batch: usize) -> Self {
        Self {
            window,
            max_batch: max_batch.max(1),
            open: BTreeMap::new(),
        }
    }

    /// Offers one admitted job at simulated time `now`. Returns any batch
    /// this job completes immediately: a singleton for non-batchable
    /// classes or a zero window, or a full batch that hit `max_batch`.
    pub fn offer(&mut self, job: QueuedJob, now: SimTime) -> Option<ReadyBatch> {
        let Some(key) = job.spec.class.batch_key() else {
            return Some(ReadyBatch {
                key: None,
                jobs: vec![job],
                ready: now,
            });
        };
        if self.window == SimTime::ZERO || self.max_batch == 1 {
            return Some(ReadyBatch {
                key: Some(key),
                jobs: vec![job],
                ready: now,
            });
        }
        let open = self.open.entry(key).or_insert_with(|| OpenBatch {
            jobs: Vec::new(),
            opened: now,
        });
        open.jobs.push(job);
        if open.jobs.len() >= self.max_batch {
            let open = self.open.remove(&key).expect("batch just filled");
            return Some(ReadyBatch {
                key: Some(key),
                jobs: open.jobs,
                ready: now,
            });
        }
        None
    }

    /// The earliest instant an open batch's window expires, if any.
    pub fn next_close(&self) -> Option<SimTime> {
        self.open.values().map(|b| b.opened + self.window).min()
    }

    /// Closes every open batch whose window has expired by `now`, in key
    /// order.
    pub fn close_due(&mut self, now: SimTime) -> Vec<ReadyBatch> {
        let due: Vec<BatchKey> = self
            .open
            .iter()
            .filter(|(_, b)| b.opened + self.window <= now)
            .map(|(&k, _)| k)
            .collect();
        due.into_iter()
            .map(|key| {
                let open = self.open.remove(&key).expect("key collected above");
                ReadyBatch {
                    key: Some(key),
                    jobs: open.jobs,
                    ready: open.opened + self.window,
                }
            })
            .collect()
    }

    /// Closes everything regardless of windows (service drain), stamping
    /// readiness at `now`.
    pub fn flush(&mut self, now: SimTime) -> Vec<ReadyBatch> {
        let open = std::mem::take(&mut self.open);
        open.into_iter()
            .map(|(key, b)| ReadyBatch {
                key: Some(key),
                jobs: b.jobs,
                ready: now,
            })
            .collect()
    }

    /// Jobs currently waiting in open batches (the coalescer's share of
    /// the admission-control queue depth).
    pub fn queued(&self) -> usize {
        self.open.values().map(|b| b.jobs.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use unintt_ntt::Direction;

    use super::*;
    use crate::job::JobClass;

    fn ns(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn raw(id: u64, log_n: u32, arrival: f64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            spec: JobSpec::new(
                0,
                JobClass::RawNtt {
                    field: ServiceField::Goldilocks,
                    log_n,
                    direction: Direction::Forward,
                },
                arrival,
            ),
        }
    }

    #[test]
    fn window_groups_compatible_jobs() {
        let mut c = Coalescer::new(ns(100.0), 16);
        assert!(c.offer(raw(0, 10, 0.0), ns(0.0)).is_none());
        assert!(c.offer(raw(1, 10, 40.0), ns(40.0)).is_none());
        // Different size opens a separate batch.
        assert!(c.offer(raw(2, 11, 50.0), ns(50.0)).is_none());
        assert_eq!(c.queued(), 3);
        assert_eq!(c.next_close(), Some(ns(100.0)));

        let closed = c.close_due(ns(100.0));
        assert_eq!(closed.len(), 1, "only the first window is due");
        assert_eq!(closed[0].len(), 2);
        assert_eq!(closed[0].jobs[0].id, JobId(0));
        assert_eq!(closed[0].jobs[1].id, JobId(1));
        assert_eq!(c.queued(), 1);

        let rest = c.close_due(ns(150.0));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].jobs[0].id, JobId(2));
    }

    #[test]
    fn size_cap_closes_early() {
        let mut c = Coalescer::new(ns(1e9), 3);
        assert!(c.offer(raw(0, 10, 0.0), ns(0.0)).is_none());
        assert!(c.offer(raw(1, 10, 1.0), ns(1.0)).is_none());
        let full = c.offer(raw(2, 10, 2.0), ns(2.0)).expect("cap reached");
        assert_eq!(full.len(), 3);
        assert_eq!(full.ready, ns(2.0));
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn zero_window_means_singletons() {
        let mut c = Coalescer::new(ns(0.0), 16);
        let b = c.offer(raw(0, 10, 5.0), ns(5.0)).expect("immediate");
        assert_eq!(b.len(), 1);
        assert!(b.key.is_some());
        assert_eq!(c.queued(), 0);
    }

    #[test]
    fn proofs_pass_straight_through() {
        let mut c = Coalescer::new(ns(1e9), 16);
        let job = QueuedJob {
            id: JobId(7),
            spec: JobSpec::new(1, JobClass::PlonkProve { log_gates: 6 }, 3.0),
        };
        let b = c.offer(job, ns(3.0)).expect("singleton");
        assert_eq!(b.key, None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn flush_drains_all_open_batches() {
        let mut c = Coalescer::new(ns(1e9), 16);
        c.offer(raw(0, 10, 0.0), ns(0.0));
        c.offer(raw(1, 11, 0.0), ns(0.0));
        let drained = c.flush(ns(12.0));
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|b| b.ready == ns(12.0)));
        assert_eq!(c.queued(), 0);
    }
}
