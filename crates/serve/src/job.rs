//! Typed jobs: what tenants submit through the service front door.

use unintt_gpu_sim::{FieldSpec, SimTime};
use unintt_ntt::Direction;

use crate::coalesce::{BatchKey, QueuedJob};

/// Service-wide job identifier, assigned at submission in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Scheduling priority class (derived `Ord`: `Low < Normal < High`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort background work.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive interactive work.
    High,
}

/// The field a raw NTT job runs over.
///
/// (PLONK proofs are always BN254-Fr and STARK commits always Goldilocks
/// internally; this tag only parameterizes [`JobClass::RawNtt`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceField {
    /// The 64-bit Goldilocks field.
    Goldilocks,
    /// The 31-bit BabyBear field.
    BabyBear,
}

impl ServiceField {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceField::Goldilocks => "Goldilocks",
            ServiceField::BabyBear => "BabyBear",
        }
    }

    /// The simulator's cost parameters for this field.
    pub(crate) fn spec(&self) -> FieldSpec {
        match self {
            ServiceField::Goldilocks => FieldSpec::goldilocks(),
            ServiceField::BabyBear => FieldSpec::babybear(),
        }
    }
}

/// Which proof a [`JobClass::ProveDag`] job decomposes into stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DagKind {
    /// A PLONK proof over the canned circuit of `2^log_gates` gates.
    Plonk {
        /// Circuit size exponent.
        log_gates: u32,
    },
    /// A STARK trace commitment over the canned trace.
    Stark {
        /// Trace length exponent.
        log_trace: u32,
        /// Number of trace columns.
        columns: usize,
    },
}

impl DagKind {
    /// The monolithic job class producing the bit-identical output.
    pub fn monolithic_class(self) -> JobClass {
        match self {
            DagKind::Plonk { log_gates } => JobClass::PlonkProve { log_gates },
            DagKind::Stark { log_trace, columns } => JobClass::StarkCommit { log_trace, columns },
        }
    }
}

/// What a job asks the service to do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobClass {
    /// One standalone NTT of `2^log_n` elements. These are the jobs the
    /// batch coalescer groups: every raw job with the same
    /// `(field, log_n, direction)` in a window shares one batched
    /// dispatch.
    RawNtt {
        /// Field of the transform.
        field: ServiceField,
        /// Transform size exponent.
        log_n: u32,
        /// Forward (evaluate) or inverse (interpolate).
        direction: Direction,
    },
    /// A full PLONK proof over a canned circuit of `2^log_gates` gates
    /// (BN254). Never coalesced — each proof is its own dispatch.
    PlonkProve {
        /// Circuit size exponent.
        log_gates: u32,
    },
    /// A STARK trace commitment (LDE → Merkle → FRI) over `columns`
    /// Goldilocks columns of `2^log_trace` rows. Never coalesced.
    StarkCommit {
        /// Trace length exponent.
        log_trace: u32,
        /// Number of trace columns.
        columns: usize,
    },
    /// The same proof as [`JobClass::PlonkProve`] /
    /// [`JobClass::StarkCommit`], but submitted as a stage DAG: instead
    /// of holding one lease for the whole proof, the scheduler
    /// dispatches individual ready stages (NTT batches, MSM commits,
    /// Merkle/FRI rounds) under the ordinary lease policies, interleaved
    /// with other tenants' work. The finished output is bit-identical to
    /// the monolithic class.
    ProveDag {
        /// Which proof to decompose.
        kind: DagKind,
    },
}

impl JobClass {
    /// Short class name for per-class metrics.
    pub fn name(&self) -> &'static str {
        match self {
            JobClass::RawNtt { .. } => "raw-ntt",
            JobClass::PlonkProve { .. } => "plonk-prove",
            JobClass::StarkCommit { .. } => "stark-commit",
            JobClass::ProveDag { .. } => "prove-dag",
        }
    }

    /// The stage-scheduled form of this class: proofs become
    /// [`JobClass::ProveDag`] jobs over the same fixture (so outputs stay
    /// bit-identical); raw NTTs are unchanged.
    pub fn pipelined(self) -> Self {
        match self {
            JobClass::PlonkProve { log_gates } => JobClass::ProveDag {
                kind: DagKind::Plonk { log_gates },
            },
            JobClass::StarkCommit { log_trace, columns } => JobClass::ProveDag {
                kind: DagKind::Stark { log_trace, columns },
            },
            other => other,
        }
    }

    /// The monolithic form of this class (inverse of
    /// [`JobClass::pipelined`]).
    pub fn monolithic(self) -> Self {
        match self {
            JobClass::ProveDag { kind } => kind.monolithic_class(),
            other => other,
        }
    }

    /// The coalescing key, if this class batches. Only raw NTT jobs
    /// coalesce; proofs and commitments are always singleton dispatches.
    pub fn batch_key(&self) -> Option<BatchKey> {
        match *self {
            JobClass::RawNtt {
                field,
                log_n,
                direction,
            } => Some(BatchKey {
                field,
                log_n,
                forward: direction == Direction::Forward,
            }),
            _ => None,
        }
    }

    /// A deterministic a-priori cost estimate in abstract units, used by
    /// the shortest-job-first scheduler. Shapes matter, absolute scale
    /// does not: raw NTTs cost `n·log n`, a PLONK proof the equivalent of
    /// its ~18 domain-sized transforms plus MSMs on a 22×-more-expensive
    /// field, and a STARK commit its per-column LDEs plus hashing.
    pub fn estimated_cost(&self) -> f64 {
        match *self {
            JobClass::RawNtt { log_n, .. } => {
                let n = (1u64 << log_n) as f64;
                n * log_n as f64
            }
            JobClass::PlonkProve { log_gates } => {
                let n = (1u64 << log_gates) as f64;
                // 18 transforms on 4n-sized domains, 22× field-mul cost,
                // plus 7 MSMs charged as ~10 muls per point.
                18.0 * 4.0 * n * (log_gates + 2) as f64 * 22.0 + 7.0 * 10.0 * n * 22.0
            }
            JobClass::StarkCommit { log_trace, columns } => {
                let n = (1u64 << log_trace) as f64;
                // Per column: iNTT(n) + coset NTT(4n); plus Merkle/FRI
                // hashing charged as ~40 units per extended row.
                columns as f64 * (n * log_trace as f64 + 4.0 * n * (log_trace + 2) as f64)
                    + 40.0 * 4.0 * n
            }
            // The DAG form does the same total work as its monolithic
            // equivalent; SJF should rank them identically.
            JobClass::ProveDag { kind } => kind.monolithic_class().estimated_cost(),
        }
    }
}

/// A submitted job: class, tenant, scheduling attributes and arrival
/// time on the simulated clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobSpec {
    /// Tenant identifier (informational; metrics are per-class).
    pub tenant: u32,
    /// What to run.
    pub class: JobClass,
    /// Scheduling priority (used by the priority policy).
    pub priority: Priority,
    /// Optional completion deadline on the simulated clock; jobs that
    /// finish later are counted as deadline misses (they still complete).
    pub deadline_ns: Option<f64>,
    /// Arrival time on the simulated clock, ns.
    pub arrival_ns: f64,
}

impl JobSpec {
    /// A `Normal`-priority job with no deadline arriving at `arrival_ns`.
    pub fn new(tenant: u32, class: JobClass, arrival_ns: f64) -> Self {
        Self {
            tenant,
            class,
            priority: Priority::Normal,
            deadline_ns: None,
            arrival_ns,
        }
    }
}

/// Why admission control turned a job away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The fleet-wide queue was at its hard capacity at the job's
    /// arrival: the service sheds rather than queue unboundedly
    /// (backpressure).
    QueueFull {
        /// Jobs queued fleet-wide at the rejection instant.
        depth: usize,
        /// The configured hard capacity.
        capacity: usize,
    },
    /// The fleet was past its soft capacity and graceful degradation
    /// shed this Low-priority (bulk) job; latency-sensitive traffic is
    /// turned away only at the hard cap, as
    /// [`AdmissionError::QueueFull`]. Counted separately from those.
    Overloaded {
        /// Jobs queued fleet-wide at the shed instant.
        depth: usize,
        /// The soft capacity the depth exceeded.
        soft_capacity: usize,
        /// Priority of the shed job (Low sheds first).
        priority: Priority,
    },
    /// The job's arrival time is not an instant of the simulated clock:
    /// negative, NaN, infinite, or past the clock's range (2^64 ps, about
    /// 213 days). Rejected at the start of the run and left out of every
    /// metric.
    InvalidArrival,
    /// A lease cannot run the job's shape: a raw transform too small for
    /// its nodes and GPUs or past the field's two-adicity, or a STARK
    /// trace FRI cannot commit. Rejected like `InvalidArrival`.
    UnsupportedShape,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { depth, capacity } => {
                write!(f, "queue full: {depth} jobs queued, capacity {capacity}")
            }
            AdmissionError::Overloaded {
                depth,
                soft_capacity,
                priority,
            } => {
                write!(
                    f,
                    "overloaded: {depth} jobs queued over soft capacity {soft_capacity}, \
                     shed {priority:?}-priority job"
                )
            }
            AdmissionError::InvalidArrival => {
                write!(f, "arrival time is not an instant of the simulated clock")
            }
            AdmissionError::UnsupportedShape => write!(f, "a lease cannot run this job's shape"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Terminal state of a job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobStatus {
    /// Ran to completion (output verified when the service is configured
    /// to check).
    Completed,
    /// Turned away by admission control; never ran.
    Rejected(AdmissionError),
    /// Accepted, but cancelled at dequeue because its deadline had
    /// already passed while it sat queued — the service refuses to burn
    /// GPU time on a result nobody can use.
    DeadlineExceeded {
        /// The deadline the job could no longer meet, simulated ns.
        deadline_ns: f64,
    },
}

/// What the service reports back for one job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: u32,
    /// Class name (see [`JobClass::name`]).
    pub class_name: &'static str,
    /// Terminal state.
    pub status: JobStatus,
    /// Arrival time, simulated ns.
    pub arrival_ns: f64,
    /// Completion (or rejection) time, simulated ns.
    pub completed_ns: f64,
    /// Size of the coalesced batch this job rode in (1 for singletons,
    /// 0 for rejected jobs that never ran).
    pub batch_size: usize,
    /// Transient-fault retries absorbed while running this job.
    pub retries: u64,
    /// Degraded re-plans (node evictions) absorbed while running.
    pub replans: u32,
    /// True if the job completed after its deadline.
    pub missed_deadline: bool,
    /// FNV-1a digest of the job's output: the raw-NTT result vector,
    /// the serialized proof, or the trace commitment (0 for jobs that
    /// never ran). Lets chaos experiments assert that a job
    /// re-dispatched after a failover produced the bit-identical result
    /// a fault-free run would have, and lets E19 assert DAG-scheduled
    /// proofs match their monolithic twins byte for byte.
    pub output_digest: u64,
}

impl JobOutcome {
    /// `job`'s outcome with `status` at `now`, before any batch, retry,
    /// re-plan or output is recorded. Both instants are the event clock's
    /// (an invalid arrival is reported as submitted). A completed job
    /// missed its deadline if `now` is past it; one cancelled for its
    /// deadline always did.
    pub(crate) fn new(job: &QueuedJob, status: JobStatus, now: SimTime) -> Self {
        let spec = &job.spec;
        Self {
            id: job.id,
            tenant: spec.tenant,
            class_name: spec.class.name(),
            status,
            arrival_ns: SimTime::try_from_ns(spec.arrival_ns)
                .map_or(spec.arrival_ns, SimTime::as_ns),
            completed_ns: now.as_ns(),
            batch_size: 0,
            retries: 0,
            replans: 0,
            missed_deadline: match status {
                JobStatus::Completed => job.deadline().is_some_and(|d| now > d),
                JobStatus::Rejected(_) => false,
                JobStatus::DeadlineExceeded { .. } => true,
            },
            output_digest: 0,
        }
    }

    /// Sojourn time (queueing + coalescing window + service), ns.
    pub fn latency_ns(&self) -> f64 {
        self.completed_ns - self.arrival_ns
    }

    /// True if the job ran to completion.
    pub fn completed(&self) -> bool {
        self.status == JobStatus::Completed
    }

    /// True if admission control accepted the job (it may still have
    /// been cancelled later for a hopeless deadline).
    pub fn accepted(&self) -> bool {
        !matches!(self.status, JobStatus::Rejected(_))
    }

    /// True if the job was cancelled at dequeue for a hopeless deadline.
    pub fn deadline_exceeded(&self) -> bool {
        matches!(self.status, JobStatus::DeadlineExceeded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }

    #[test]
    fn raw_jobs_coalesce_by_shape() {
        let a = JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 10,
            direction: Direction::Forward,
        };
        let b = JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 10,
            direction: Direction::Forward,
        };
        let c = JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 10,
            direction: Direction::Inverse,
        };
        let d = JobClass::RawNtt {
            field: ServiceField::BabyBear,
            log_n: 10,
            direction: Direction::Forward,
        };
        assert_eq!(a.batch_key(), b.batch_key());
        assert_ne!(a.batch_key(), c.batch_key(), "direction splits batches");
        assert_ne!(a.batch_key(), d.batch_key(), "field splits batches");
        assert!(JobClass::PlonkProve { log_gates: 5 }.batch_key().is_none());
        assert!(JobClass::StarkCommit {
            log_trace: 8,
            columns: 4
        }
        .batch_key()
        .is_none());
    }

    #[test]
    fn cost_estimates_rank_sanely() {
        let raw = JobClass::RawNtt {
            field: ServiceField::Goldilocks,
            log_n: 10,
            direction: Direction::Forward,
        };
        let plonk = JobClass::PlonkProve { log_gates: 10 };
        let stark = JobClass::StarkCommit {
            log_trace: 10,
            columns: 4,
        };
        assert!(raw.estimated_cost() < stark.estimated_cost());
        assert!(stark.estimated_cost() < plonk.estimated_cost());
    }
}
