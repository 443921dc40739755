//! Service configuration: queue bounds, coalescing window, lease shape,
//! scheduling policy and fault-injection knobs.

use unintt_core::{CommMode, RecoveryPolicy};
use unintt_gpu_sim::{FaultRates, InterferenceModel};

/// How the dispatcher orders ready batches when a lease frees up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Oldest ready batch first (by ready time, then submission order).
    #[default]
    Fifo,
    /// Highest job priority first (a batch inherits the maximum priority
    /// of its members); FIFO among equals.
    Priority,
    /// Smallest estimated batch cost first (see
    /// [`crate::JobClass::estimated_cost`]); FIFO among equals.
    ShortestJobFirst,
}

impl SchedulerPolicy {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerPolicy::Fifo => "fifo",
            SchedulerPolicy::Priority => "priority",
            SchedulerPolicy::ShortestJobFirst => "sjf",
        }
    }
}

/// The slice of the simulated cluster one lease owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseShape {
    /// Nodes per lease (must be a power of two for the cluster engine).
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
}

impl LeaseShape {
    /// Total GPUs the lease spans.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }
}

impl Default for LeaseShape {
    fn default() -> Self {
        Self {
            nodes: 2,
            gpus_per_node: 2,
        }
    }
}

/// Tunables for [`crate::ProofService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission-control bound: jobs queued (coalescing + ready) beyond
    /// this are rejected with [`crate::AdmissionError::QueueFull`].
    pub queue_capacity: usize,
    /// Coalescing window, simulated ns: a batch stays open this long
    /// after its first job before dispatch. `0.0` disables coalescing —
    /// every job dispatches as a singleton.
    pub batch_window_ns: f64,
    /// A batch closes early once it holds this many jobs.
    pub max_batch: usize,
    /// Dispatch ordering policy.
    pub policy: SchedulerPolicy,
    /// Number of GPU leases the cluster is partitioned into (batches run
    /// concurrently, one per lease).
    pub num_leases: usize,
    /// Shape of each lease.
    pub lease: LeaseShape,
    /// Fixed per-dispatch cost, simulated ns: lease acquisition, plan
    /// staging and host-side marshalling. Charged once per batch — this
    /// is what coalescing amortizes.
    pub dispatch_overhead_ns: f64,
    /// Fixed per-stage cost for [`crate::JobClass::ProveDag`] jobs,
    /// simulated ns: much smaller than `dispatch_overhead_ns` because a
    /// stage reuses the proof's already-staged state — it only pays
    /// lease hand-off and kernel launch setup.
    pub stage_overhead_ns: f64,
    /// Time to replace a lease whose every node died, simulated ns.
    pub repair_ns: f64,
    /// Fault-recovery policy handed to the cluster engine.
    pub recovery: RecoveryPolicy,
    /// Seed for per-dispatch fault plans (only used when `fault_rates`
    /// is set).
    pub fault_seed: u64,
    /// When set, every raw-NTT dispatch runs under seeded fault
    /// injection with these rates. PLONK and STARK jobs run fault-free
    /// (their backends own separate machines; see DESIGN.md).
    pub fault_rates: Option<FaultRates>,
    /// Check every raw-NTT output bit-for-bit against the CPU reference
    /// (and verify proofs/commitments). Costs host time, not simulated
    /// time.
    pub verify_outputs: bool,
    /// Exchange scheduling for the cluster engines this service builds:
    /// [`CommMode::Overlapped`] (default) pipelines chunk transfers
    /// against compute; [`CommMode::Blocking`] is the legacy schedule.
    /// Outputs are bit-identical either way; only simulated time moves.
    pub comm_mode: CommMode,
    /// Compute queues per lease for [`crate::JobClass::ProveDag`] stage
    /// dispatch, `1..=4`. At `1` (the default) a lease holds one stage
    /// at a time — the serialized schedule; at `2..=4` stages of
    /// *different* resource classes ([`unintt_gpu_sim::ResourceClass`])
    /// co-reside on one lease and both advance under the `interference`
    /// slowdown, while same-class stages still serialize. Outputs are
    /// bit-identical at every setting — only simulated clocks move.
    pub streams_per_lease: usize,
    /// Pairwise slowdown factors applied to co-resident stages when
    /// `streams_per_lease > 1`.
    pub interference: InterferenceModel,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 512,
            batch_window_ns: 25_000.0,
            max_batch: 16,
            policy: SchedulerPolicy::Fifo,
            num_leases: 2,
            lease: LeaseShape::default(),
            dispatch_overhead_ns: 40_000.0,
            stage_overhead_ns: 2_000.0,
            repair_ns: 5.0e9,
            recovery: RecoveryPolicy::default(),
            fault_seed: 0x5eed_5e17e,
            fault_rates: None,
            verify_outputs: true,
            comm_mode: CommMode::Overlapped,
            streams_per_lease: 1,
            interference: InterferenceModel::default_model(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.queue_capacity > 0);
        assert!(cfg.max_batch > 1);
        assert!(cfg.num_leases >= 1);
        assert!(cfg.lease.nodes.is_power_of_two());
        assert!(cfg.dispatch_overhead_ns > 0.0);
        assert_eq!(cfg.policy, SchedulerPolicy::Fifo);
        assert_eq!(cfg.comm_mode, CommMode::Overlapped);
        assert_eq!(cfg.streams_per_lease, 1, "serialized dispatch by default");
        assert_eq!(cfg.interference, InterferenceModel::default_model());
    }
}
