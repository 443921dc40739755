//! `unintt-serve` — a multi-tenant proving service over the simulated
//! multi-GPU cluster.
//!
//! The crates below this one answer "how fast is one transform?"; this
//! crate answers the operational question a proving *service* faces:
//! many tenants submit raw NTTs, PLONK proofs and STARK commitments
//! concurrently — how should the cluster be shared?
//!
//! The pieces:
//!
//! * [`FleetService`] — the one front door and event loop: typed
//!   [`JobSpec`] submissions (directly or from an `mpsc` channel) played
//!   over clusters behind a shard router, with failover, hedging and
//!   chaos. [`ProofService`] is the same type over one cluster
//!   (`ProofService::new(ServiceConfig { .. })`); [`ServiceReport`] is
//!   its [`FleetReport`].
//! * Admission control — an invalid arrival or a shape no lease can run
//!   is rejected before the run; past [`FleetConfig::soft_capacity`]
//!   queued jobs Low-priority arrivals are shed, and at
//!   [`FleetConfig::hard_capacity`] every arrival is rejected
//!   ([`AdmissionError::QueueFull`]) instead of queueing unboundedly.
//! * [`Coalescer`] — groups raw-NTT jobs of identical
//!   `(field, log_n, direction)` shape arriving within
//!   [`ServiceConfig::batch_window_ns`] into one batched dispatch,
//!   amortizing the fixed per-dispatch overhead.
//! * GPU leases ([`LeasePool`]) — each cluster is partitioned into
//!   `num_leases` slices of `nodes × gpus_per_node`; each batch occupies
//!   one lease for exactly the simulated time the cluster charges.
//!   Device-loss faults degrade a lease (the engine re-plans over
//!   survivors, per `unintt_core::ClusterNttEngine::forward_with_recovery`);
//!   a fully dead lease is swapped for fresh hardware and the batch's
//!   unfinished tail re-offered through the router — **jobs never fail**.
//! * [`ServiceMetrics`] — per-class throughput and latency percentiles,
//!   batch-size histogram, queue depth and lease occupancy.
//!
//! Everything is charged to the deterministic simulated clock: the same
//! submissions and configuration replay bit-identically, including under
//! seeded fault injection. See `DESIGN.md` ("Serving layer") and
//! experiment E14 in the bench harness.

#![warn(missing_docs)]

mod attribution;
mod coalesce;
mod config;
mod dispatch;
mod fleet;
mod health;
mod job;
mod lease;
mod metrics;
mod router;
mod scheduler;
mod service;
mod workload;

pub use attribution::{AttributionReport, AttributionRow, Verdict};
pub use coalesce::{BatchKey, Coalescer, QueuedJob, ReadyBatch};
pub use config::{LeaseShape, SchedulerPolicy, ServiceConfig};
pub use fleet::{
    ChaosEvent, ChaosKind, ChaosPlan, FleetConfig, FleetReport, FleetService, FleetStats,
    HedgeConfig,
};
pub use health::{HealthConfig, HealthMachine, HealthState};
pub use job::{
    AdmissionError, DagKind, JobClass, JobId, JobOutcome, JobSpec, JobStatus, Priority,
    ServiceField,
};
pub use lease::{Lease, LeasePool};
pub use metrics::{ClassMetrics, LatencyStats, LeaseMetrics, ServiceMetrics};
pub use router::ShardRouter;
pub use service::{ProofService, ServiceReport};
pub use unintt_gpu_sim::{InterferenceModel, ResourceClass, SimTime};
pub use workload::{WorkloadMix, WorkloadSpec};
