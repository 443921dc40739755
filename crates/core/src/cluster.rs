//! Multi-node scale-out: one more level of the same recursion.
//!
//! The paper stops at one server; this module extends UniNTT's
//! decomposition upward exactly the way the algorithm invites: the node
//! level is one more digit of the mixed-radix factorization, with the
//! datacenter network (InfiniBand/RoCE) as its exchange medium:
//!
//! ```text
//! N = T(nodes) · G(GPUs) · M(local)
//! node phase:  per-node UniNTT of size N/T (itself hierarchical)
//!              + fused boundary twiddle ω_N^{t·k}
//! exchange:    ONE cross-node all-to-all
//! outer phase: N/T² tiny size-T NTTs per node
//! ```
//!
//! In code that is literal: the cluster is a second [`Level`] for the
//! walker of [`crate::schedule`], whose local phase is the node engine's
//! own walk. One attempt body serves [`ClusterNttEngine::forward`] (all
//! nodes, the caller's shards), [`ClusterNttEngine::forward_with_recovery`]
//! (a survivor subset, re-planned on node loss) and
//! [`ClusterNttEngine::simulate_forward`] (nothing to move).
//!
//! Every node's machine simulates independently (node phases overlap);
//! the cluster clock advances to the slowest node plus the network time.
//! As in the single-node engine, the functional result is bit-checked
//! against the CPU reference and the network volume is exact.

use serde::{Deserialize, Serialize};
use unintt_ff::TwoAdicField;
use unintt_gpu_sim::{
    alpha_beta_all_to_all_ns, FabricError, FieldSpec, KernelProfile, Machine, MachineConfig,
};
use unintt_ntt::{scale_by_powers, Direction, Ntt};
use unintt_telemetry::SpanLevel;

use crate::schedule::{walk, Level, Phase, Plane, Schedule};
use crate::{CommMode, RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};

/// Datacenter network datasheet (node-to-node fabric).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Per-node injection bandwidth in GB/s (e.g. 50 for 400G InfiniBand).
    pub per_node_bandwidth_gbps: f64,
    /// One-way latency in nanoseconds.
    pub latency_ns: f64,
    /// Achievable fraction of peak for large transfers.
    pub efficiency: f64,
}

impl NetworkConfig {
    /// 400 Gb/s InfiniBand NDR per node.
    pub fn infiniband_400g() -> Self {
        Self {
            per_node_bandwidth_gbps: 50.0,
            latency_ns: 5_000.0,
            efficiency: 0.85,
        }
    }

    /// 100 Gb/s Ethernet (RoCE) per node.
    pub fn ethernet_100g() -> Self {
        Self {
            per_node_bandwidth_gbps: 12.5,
            latency_ns: 10_000.0,
            efficiency: 0.8,
        }
    }

    /// α–β time for a cross-node all-to-all of `bytes_per_node`.
    ///
    /// Routed through [`unintt_gpu_sim::alpha_beta_all_to_all_ns`], the
    /// exact function the GPU fabric's crossbar arm charges with — one
    /// shared cost formula, so the two layers cannot drift apart in units
    /// (a regression test pins the charged nanoseconds).
    pub fn all_to_all_ns(&self, nodes: usize, bytes_per_node: u64) -> f64 {
        alpha_beta_all_to_all_ns(
            nodes,
            bytes_per_node,
            self.per_node_bandwidth_gbps,
            self.latency_ns,
            self.efficiency,
        )
    }
}

/// A cluster: `T` identical multi-GPU nodes joined by a network.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<Machine>,
    network: NetworkConfig,
    /// Time spent in cross-node communication (on top of node clocks).
    network_ns: f64,
    /// Cross-node wire time hidden behind the outer column NTTs by the
    /// overlapped schedule (already excluded from `network_ns`).
    network_hidden_ns: f64,
    /// Bytes injected into the node-to-node network, all nodes summed.
    network_bytes: u64,
}

impl Cluster {
    /// Builds a cluster of `num_nodes` machines of shape `node_cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is not a power of two, or the node config is
    /// invalid.
    pub fn new(
        num_nodes: usize,
        node_cfg: MachineConfig,
        network: NetworkConfig,
        field: FieldSpec,
    ) -> Self {
        assert!(
            num_nodes.is_power_of_two(),
            "node count must be a power of two"
        );
        Self {
            nodes: (0..num_nodes)
                .map(|i| {
                    let mut node = Machine::new(node_cfg.clone(), field);
                    // Distinct telemetry tracks per node: concurrent node
                    // spans must not share a track.
                    node.set_label(format!("node{i}"));
                    node
                })
                .collect(),
            network,
            network_ns: 0.0,
            network_hidden_ns: 0.0,
            network_bytes: 0,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Returns the cluster to the state [`Cluster::new`] built, keeping
    /// only the node labels: every node [`Machine::reset`] (clocks, stats,
    /// timelines, device health, fault log, collective sequence, link
    /// occupancy) with its fault plan removed, and the network counters
    /// zeroed.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.reset();
            node.clear_fault_plan();
        }
        self.network_ns = 0.0;
        self.network_hidden_ns = 0.0;
        self.network_bytes = 0;
    }

    /// The cluster makespan: slowest node plus accumulated network time.
    pub fn total_time_ns(&self) -> f64 {
        let node_max = self
            .nodes
            .iter()
            .map(Machine::max_clock_ns)
            .fold(0.0, f64::max);
        node_max + self.network_ns
    }

    /// Cross-node traffic in bytes (all nodes summed).
    pub fn network_bytes(&self) -> u64 {
        self.network_bytes
    }

    /// Cross-node wire time hidden behind compute by the overlapped
    /// schedule. Zero under [`CommMode::Blocking`].
    pub fn network_hidden_ns(&self) -> f64 {
        self.network_hidden_ns
    }

    /// Access to one node's machine.
    pub fn node(&self, i: usize) -> &Machine {
        &self.nodes[i]
    }

    /// Mutable access to one node's machine (to install fault plans or
    /// inspect traces).
    pub fn node_mut(&mut self, i: usize) -> &mut Machine {
        &mut self.nodes[i]
    }

    /// Nodes whose every GPU is still alive, in index order.
    pub fn healthy_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].first_dead_device().is_none())
            .collect()
    }

    /// Charges a cross-node all-to-all among `nodes` participants (the
    /// degraded path exchanges among survivors only) whose wire time is
    /// pipelined against up to `hide_ns` of per-node compute: only the
    /// exposed remainder (latency plus un-hidden wire time) advances the
    /// cluster clock. The latency term is never hidable — the first chunk
    /// must arrive before any dependent compute can start. A blocking
    /// exchange hides nothing (`hide_ns = 0`).
    fn charge_network_all_to_all(&mut self, nodes: usize, bytes_per_node: u64, hide_ns: f64) {
        if nodes <= 1 {
            return;
        }
        let total = self.network.all_to_all_ns(nodes, bytes_per_node);
        let wire = (total - self.network.latency_ns).max(0.0);
        let hidden = wire.min(hide_ns.max(0.0));
        self.network_ns += total - hidden;
        self.network_hidden_ns += hidden;
        self.network_bytes += (bytes_per_node * (nodes as u64 - 1) / nodes as u64) * nodes as u64;
    }
}

/// Outcome of a fault-tolerant cluster run ([`ClusterNttEngine::forward_with_recovery`]).
#[derive(Clone, Debug)]
pub struct ClusterRunReport<F> {
    /// The transform result in natural order (bit-identical to the CPU
    /// reference whenever `Ok` is returned).
    pub output: Vec<F>,
    /// How many times the decomposition was re-derived over survivors.
    pub replans: u32,
    /// Nodes evicted mid-run by a permanent device loss, in eviction order.
    pub lost_nodes: Vec<usize>,
    /// How many nodes the final (successful) plan spanned.
    pub nodes_used: usize,
    /// Transient-fault retries charged per attempt (one entry per plan
    /// tried, including the successful final one), summed over every node
    /// machine. Serving layers surface these in their metrics.
    pub retries_per_attempt: Vec<u64>,
    /// GPU-fabric collective operations executed, summed over every node
    /// machine (all attempts included).
    pub collectives: u64,
    /// Communication bytes moved end to end: intra-node GPU-fabric
    /// injections on every node plus cross-node network traffic.
    pub comm_bytes: u64,
    /// Communication nanoseconds hidden behind compute by the overlapped
    /// schedule — GPU-fabric overlap inside the nodes plus network wire
    /// time pipelined against the outer column NTTs. Zero under
    /// [`CommMode::Blocking`].
    pub comm_hidden_ns: f64,
}

impl<F> ClusterRunReport<F> {
    /// Total transient retries over all attempts.
    pub fn total_retries(&self) -> u64 {
        self.retries_per_attempt.iter().sum()
    }

    /// Number of plan attempts (replans + the final successful one).
    pub fn attempts(&self) -> usize {
        self.retries_per_attempt.len()
    }
}

/// Why an attempt stopped: the node to evict when the loss is permanent
/// (recoverable by re-planning), `None` for any other fabric error.
type AttemptError = (Option<usize>, FabricError);

/// The cluster level: spans on the shared `"cluster"` track, against the
/// cluster clock (slowest node plus network time).
const CLUSTER: Level<Cluster> = Level {
    span_level: SpanLevel::Cluster,
    clock_ns: Cluster::total_time_ns,
    track: |_| String::from("cluster"),
};

/// Charges one cluster-level kernel to a node (on its device 0).
fn launch_on_node(machine: &mut Machine, profile: &KernelProfile) {
    machine.on_device(0, &mut (), |ctx, _| {
        ctx.launch(profile);
    });
}

/// The cluster-scale UniNTT engine.
pub struct ClusterNttEngine<F: TwoAdicField> {
    log_n: u32,
    log_t: u32,
    node_engine: UniNttEngine<F>,
    outer: Ntt<F>,
    /// `ω_N`, the root the node-boundary twiddles are powers of.
    omega: F,
    field_spec: FieldSpec,
    /// Kept so the decomposition can be re-derived over survivors after a
    /// permanent node loss.
    node_cfg: MachineConfig,
    opts: UniNttOptions,
}

impl<F: TwoAdicField> ClusterNttEngine<F> {
    /// Plans a size-`2^log_n` transform over a cluster of `num_nodes`
    /// machines of shape `node_cfg`.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_new`] returns an error.
    pub fn new(
        log_n: u32,
        num_nodes: usize,
        node_cfg: &MachineConfig,
        opts: UniNttOptions,
        field_spec: FieldSpec,
    ) -> Self {
        Self::try_new(log_n, num_nodes, node_cfg, opts, field_spec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plans a size-`2^log_n` transform over `num_nodes` machines of
    /// shape `node_cfg`, or says why it cannot: the node count is not a
    /// power of two, the per-node share is smaller than `num_nodes` (the
    /// chunked exchange needs `N/T ≥ T`), `log_n` exceeds the field's
    /// two-adicity, or the node engine cannot be planned
    /// ([`UniNttEngine::try_new`]).
    pub fn try_new(
        log_n: u32,
        num_nodes: usize,
        node_cfg: &MachineConfig,
        opts: UniNttOptions,
        field_spec: FieldSpec,
    ) -> Result<Self, String> {
        if !num_nodes.is_power_of_two() {
            return Err("node count must be a power of two".into());
        }
        let log_t = num_nodes.trailing_zeros();
        if log_n < 2 * log_t {
            return Err(format!(
                "transform of 2^{log_n} too small for 2^{log_t} nodes"
            ));
        }
        let omega = F::try_two_adic_generator(log_n)?;
        // Node-local results are chunked across nodes, so the node engine
        // runs with natural output ordering.
        let mut node_opts = opts;
        node_opts.natural_output = true;
        Ok(Self {
            log_n,
            log_t,
            node_engine: UniNttEngine::try_new(log_n - log_t, node_cfg, node_opts, field_spec)?,
            outer: Ntt::new(log_t),
            omega,
            field_spec,
            node_cfg: node_cfg.clone(),
            opts,
        })
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        1 << self.log_t
    }

    /// `(per-node transform size, GPUs per node)` for the current plan.
    fn node_shape(&self) -> (usize, usize) {
        (
            self.n() / self.num_nodes(),
            self.node_engine.plan().num_gpus(),
        )
    }

    /// The fused node-boundary twiddle kernel (tail of the node phase).
    fn node_twiddle_profile(&self) -> KernelProfile {
        let (r, gpus) = self.node_shape();
        let mut profile = KernelProfile::named("node-boundary-twiddle");
        profile.field_muls = r as u64 / gpus as u64;
        profile.blocks = (r as u64 / 256).max(1);
        profile
    }

    /// The outer size-T column-NTT kernel (phase 3).
    fn cluster_outer_profile(&self) -> KernelProfile {
        let (r, gpus) = self.node_shape();
        let mut profile = KernelProfile::named("cluster-outer-ntt");
        profile.field_muls = (r as u64 / 2) * self.log_t as u64 / gpus as u64;
        profile.global_bytes_read = (r * self.field_spec.elem_bytes) as u64;
        profile.global_bytes_written = (r * self.field_spec.elem_bytes) as u64;
        profile.blocks = (r as u64 / 256).max(1);
        profile
    }

    /// Charges the cross-node all-to-all. Under [`CommMode::Overlapped`]
    /// the chunked transfer is pipelined against the outer column NTTs,
    /// so only the un-hidden remainder lands on the cluster clock.
    fn charge_cluster_exchange(&self, cluster: &mut Cluster) {
        let t = self.num_nodes();
        let bytes = ((self.n() / t) * self.field_spec.elem_bytes) as u64;
        let hide_ns = match self.opts.comm_mode {
            CommMode::Overlapped => {
                let model = cluster.nodes[0].model();
                model.kernel_cost(&self.cluster_outer_profile()).total_ns
            }
            CommMode::Blocking => 0.0,
        };
        cluster.charge_network_all_to_all(t, bytes, hide_ns);
    }

    /// Forward NTT across the cluster.
    ///
    /// Input: `node_shards[t]` holds the node-cyclic sub-sequence
    /// `x[j·T + t]` in host memory; each node distributes it across its
    /// GPUs internally. Output: `X[k1·(N/T) + k2]` lands on node
    /// `k2 / (N/T²)` — the node-level block-cyclic order, matching the
    /// single-node engine's convention one level up.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn forward(&self, cluster: &mut Cluster, node_shards: &mut [Vec<F>]) {
        let plane = Plane::unguarded(node_shards);
        self.attempt(cluster, None, plane, "cluster-forward")
            .unwrap_or_else(|(_, e)| panic!("{e}"));
    }

    /// Fault-tolerant forward NTT with degraded re-planning.
    ///
    /// Takes the input in natural host order and returns the transform in
    /// natural order, surviving permanent device losses inside node
    /// machines: when a node's engine reports [`FabricError::DeviceLost`],
    /// the node is evicted, the mixed-radix decomposition is re-derived
    /// over the largest power-of-two subset of healthy nodes, and the run
    /// replays from the last completed checkpoint. With the simulated
    /// fault model only the node phase (level 0 → 1) can fail — the
    /// cross-node exchange is charged analytically — so a replan resumes
    /// from the level-0 checkpoint, i.e. the input itself; transient drops
    /// and corrupted transfers are absorbed *within* a plan by the node
    /// engines' retry/verification machinery and never reach this level.
    ///
    /// Simulated time accumulates across replans on every surviving
    /// machine, so the recovery overhead of a policy is directly visible
    /// in [`Cluster::total_time_ns`].
    ///
    /// # Errors
    ///
    /// Returns the final [`FabricError`] when no healthy node subset can
    /// complete the transform (all nodes lost, or a transient fault
    /// outlived `policy.max_retries`).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the planned transform size or
    /// the cluster does not match the plan.
    pub fn forward_with_recovery(
        &self,
        cluster: &mut Cluster,
        input: &[F],
        policy: &RecoveryPolicy,
    ) -> Result<ClusterRunReport<F>, FabricError> {
        assert_eq!(input.len(), self.n(), "input length mismatch");
        assert_eq!(
            cluster.num_nodes(),
            self.num_nodes(),
            "cluster does not match the plan"
        );
        let mut survivors = cluster.healthy_nodes();
        let mut lost_nodes = Vec::new();
        let mut retries_per_attempt = Vec::new();
        let mut last_err = None;
        loop {
            // The largest power-of-two subset of the survivors.
            let Some(log_t) = survivors.len().checked_ilog2() else {
                return Err(last_err.unwrap_or(FabricError::DeviceLost {
                    device: 0,
                    seq: cluster.nodes.first().map_or(0, Machine::collective_seq),
                }));
            };
            let t = 1usize << log_t;
            // Checkpoint level 0: the input vector. Every replan re-derives
            // the plan over the survivor prefix and replays from here.
            let replanned = (t != self.num_nodes())
                .then(|| Self::new(self.log_n, t, &self.node_cfg, self.opts, self.field_spec));
            let plan = replanned.as_ref().unwrap_or(self);
            let retries_before = Self::cluster_retries(cluster);
            let mut shards = plan.distribute(input);
            let plane = Plane::Elements(&mut shards, policy);
            let attempt = plan.attempt(cluster, Some(&survivors[..t]), plane, "cluster-attempt");
            retries_per_attempt.push(Self::cluster_retries(cluster) - retries_before);
            match attempt {
                Ok(()) => {
                    let output = plan.collect(&shards);
                    let mut collectives = 0u64;
                    let mut comm_bytes = cluster.network_bytes;
                    let mut comm_hidden_ns = cluster.network_hidden_ns;
                    for machine in &cluster.nodes {
                        let stats = machine.stats();
                        collectives += stats.collectives;
                        comm_bytes += stats.interconnect_bytes_sent;
                        comm_hidden_ns += stats.comm_hidden_ns;
                    }
                    return Ok(ClusterRunReport {
                        output,
                        replans: lost_nodes.len() as u32,
                        lost_nodes,
                        nodes_used: t,
                        retries_per_attempt,
                        collectives,
                        comm_bytes,
                        comm_hidden_ns,
                    });
                }
                Err((Some(node), e)) => {
                    lost_nodes.push(node);
                    survivors.retain(|&i| i != node);
                    last_err = Some(e);
                }
                Err((None, e)) => return Err(e),
            }
        }
    }

    /// Transient retries charged so far across every node machine.
    fn cluster_retries(cluster: &Cluster) -> u64 {
        cluster.nodes.iter().map(|m| m.stats().retries).sum()
    }

    /// One node's share of the local phase: the whole single-node UniNTT
    /// on its sub-sequence — the node engine's own walk, the recursion one
    /// level down — then the fused node-boundary twiddle `ω_N^{slot·k2}`.
    /// Node phases overlap in simulated time (each machine has its clock).
    fn node_phase(
        &self,
        machine: &mut Machine,
        slot: usize,
        plane: &mut Plane<'_, Vec<F>>,
    ) -> Result<(), FabricError> {
        let engine = &self.node_engine;
        let forward = |machine: &mut Machine, inner: &mut Plane<'_, Sharded<F>>| {
            engine.run(machine, Direction::Forward, &[], F::ONE, inner)
        };
        match plane {
            Plane::Elements(data, policy) => {
                let gpus = engine.plan().num_gpus();
                let mut sharded = Sharded::distribute(&data[slot], gpus, ShardLayout::Cyclic);
                let batch = std::slice::from_mut(&mut sharded);
                forward(machine, &mut Plane::Elements(batch, policy))?;
                sharded.layout().assemble(sharded.shards(), &mut data[slot]);
                scale_by_powers(&mut data[slot], F::ONE, self.omega.pow(slot as u64));
            }
            Plane::Unit(_) => forward(machine, &mut Plane::Unit(1))?,
        }
        launch_on_node(machine, &self.node_twiddle_profile());
        Ok(())
    }

    /// One attempt of the cluster schedule — the same three steps one
    /// level up — over `active`, the cluster nodes standing in for the
    /// plan's `T` slots in slot order (`None`: the whole cluster). Shape
    /// checks run once, first, for both planes.
    ///
    /// # Errors
    ///
    /// `(Some(node), e)` when `node` suffered a permanent device loss
    /// (recoverable by eviction), `(None, e)` for any other fabric error.
    fn attempt(
        &self,
        cluster: &mut Cluster,
        active: Option<&[usize]>,
        mut plane: Plane<'_, Vec<F>>,
        root_name: &'static str,
    ) -> Result<(), AttemptError> {
        let t = self.num_nodes();
        assert_eq!(
            active.map_or(cluster.num_nodes(), <[usize]>::len),
            t,
            "cluster does not match the plan"
        );
        if let Plane::Elements(shards, _) = &plane {
            assert_eq!(shards.len(), t, "need one shard per node");
            assert!(
                shards.iter().all(|s| s.len() == self.n() / t),
                "every node shard must hold 2^{} elements",
                self.log_n - self.log_t
            );
        }
        let node = |slot: usize| active.map_or(slot, |active| active[slot]);
        walk(
            &CLUSTER,
            cluster,
            &Schedule::derive(&[], true, false),
            Direction::Forward,
            || (root_name, vec![("nodes", t.into())]),
            |cluster, phase, observed| match phase {
                Phase::Local => {
                    for slot in 0..t {
                        let at = node(slot);
                        self.node_phase(&mut cluster.nodes[at], slot, &mut plane)
                            .map_err(|e| match e {
                                FabricError::DeviceLost { .. } => (Some(at), e),
                                other => (None, other),
                            })?;
                    }
                    Ok(Vec::new())
                }
                // One cross-node all-to-all (chunk transpose, in place:
                // chunk `src` of shard `dst` swaps with chunk `dst` of
                // shard `src`), charged analytically among exactly the
                // plan's `t` participants.
                Phase::Exchange => {
                    if let Plane::Elements(shards, _) = &mut plane {
                        let chunk = shards[0].len() / t;
                        for src in 1..t {
                            let (below, from) = shards.split_at_mut(src);
                            for (dst, shard) in below.iter_mut().enumerate() {
                                shard[src * chunk..(src + 1) * chunk]
                                    .swap_with_slice(&mut from[0][dst * chunk..(dst + 1) * chunk]);
                            }
                        }
                    }
                    let (bytes, hidden) = (cluster.network_bytes, cluster.network_hidden_ns);
                    self.charge_cluster_exchange(cluster);
                    let bytes = cluster.network_bytes - bytes;
                    let hidden = cluster.network_hidden_ns - hidden;
                    Ok(if observed {
                        vec![("bytes", bytes.into()), ("hidden_comm_ns", hidden.into())]
                    } else {
                        Vec::new()
                    })
                }
                // Size-T NTTs down the received columns, on each node.
                Phase::Outer => {
                    let profile = self.cluster_outer_profile();
                    for slot in 0..t {
                        if let Plane::Elements(shards, _) = &mut plane {
                            self.outer.forward_columns(&mut shards[slot]);
                        }
                        launch_on_node(&mut cluster.nodes[node(slot)], &profile);
                    }
                    Ok(Vec::new())
                }
                lead => unreachable!("{lead:?} is not on the cluster schedule"),
            },
        )
    }

    /// Reassembles the cluster output into the natural-order host vector:
    /// the node-level block-cyclic order is [`ShardLayout::BlockCyclic`]
    /// with nodes for GPUs.
    pub fn collect(&self, node_shards: &[Vec<F>]) -> Vec<F> {
        let mut out = vec![F::ZERO; self.n()];
        ShardLayout::BlockCyclic.assemble(node_shards, &mut out);
        out
    }

    /// Distributes a host vector into the node-cyclic input layout.
    pub fn distribute(&self, input: &[F]) -> Vec<Vec<F>> {
        assert_eq!(input.len(), self.n(), "input length mismatch");
        let mut sharded = Sharded::distribute(input, self.num_nodes(), ShardLayout::Cyclic);
        std::mem::take(sharded.shards_mut())
    }

    /// Cost-only forward transform for large-size sweeps:
    /// [`Self::forward`]'s attempt with nothing to move.
    ///
    /// # Panics
    ///
    /// Panics if the cluster does not match the plan.
    pub fn simulate_forward(&self, cluster: &mut Cluster) {
        self.attempt(cluster, None, Plane::Unit(1), "cluster-forward")
            .unwrap_or_else(|(_, e)| panic!("{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks};
    use unintt_gpu_sim::presets;

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    fn reference(input: &[Goldilocks]) -> Vec<Goldilocks> {
        let ntt = Ntt::<Goldilocks>::new(input.len().trailing_zeros());
        let mut out = input.to_vec();
        ntt.forward(&mut out);
        out
    }

    #[test]
    fn cluster_forward_matches_reference() {
        let fs = FieldSpec::goldilocks();
        for nodes in [1usize, 2, 4] {
            for gpus in [1usize, 4] {
                let log_n = 12u32;
                let node_cfg = presets::a100_nvlink(gpus);
                let engine = ClusterNttEngine::<Goldilocks>::new(
                    log_n,
                    nodes,
                    &node_cfg,
                    UniNttOptions::tuned_for(&fs),
                    fs,
                );
                let mut cluster =
                    Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
                let input = random_vec(1 << log_n, nodes as u64);
                let mut shards = engine.distribute(&input);
                engine.forward(&mut cluster, &mut shards);
                assert_eq!(
                    engine.collect(&shards),
                    reference(&input),
                    "nodes={nodes} gpus={gpus}"
                );
                if nodes > 1 {
                    assert!(cluster.network_bytes() > 0);
                    assert!(cluster.total_time_ns() > 0.0);
                }
            }
        }
    }

    #[test]
    fn network_volume_is_exact() {
        let fs = FieldSpec::goldilocks();
        let nodes = 4usize;
        let log_n = 14u32;
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            log_n,
            nodes,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
        let input = random_vec(1 << log_n, 1);
        let mut shards = engine.distribute(&input);
        engine.forward(&mut cluster, &mut shards);
        // Each node sends (T-1)/T of its R-element shard once.
        let r_bytes = (1u64 << (log_n - 2)) * 8;
        assert_eq!(cluster.network_bytes(), r_bytes * 3 / 4 * nodes as u64);
    }

    #[test]
    fn network_model_scales() {
        let net = NetworkConfig::infiniband_400g();
        assert_eq!(net.all_to_all_ns(1, 1 << 30), 0.0);
        let t2 = net.all_to_all_ns(2, 1 << 30);
        let t8 = net.all_to_all_ns(8, 1 << 30);
        assert!(t8 > t2, "more nodes exchange a larger fraction");
        let eth = NetworkConfig::ethernet_100g();
        assert!(eth.all_to_all_ns(4, 1 << 30) > net.all_to_all_ns(4, 1 << 30));
    }

    #[test]
    fn network_cost_is_pinned_to_shared_alpha_beta() {
        // The network charge must equal the shared α–β formula in
        // unintt-gpu-sim, and its absolute value is pinned so neither
        // layer can drift in units without this test noticing.
        let net = NetworkConfig::infiniband_400g();
        let got = net.all_to_all_ns(4, 1 << 30);
        assert_eq!(
            got,
            alpha_beta_all_to_all_ns(4, 1 << 30, 50.0, 5_000.0, 0.85)
        );
        // 4 nodes × 1 GiB: egress 3/4 GiB per node at 50 GB/s × 0.85
        // = 805306368 B / 42.5 B/ns + 5 µs latency.
        let expected = 5_000.0 + (1u64 << 30) as f64 * 0.75 / 42.5;
        assert_eq!(got, expected);
        assert!((got - 18_953_385.129).abs() < 0.01, "charged {got} ns");
    }

    #[test]
    fn overlapped_cluster_hides_network_time() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let log_n = 22u32;
        let mut opts = UniNttOptions::tuned_for(&fs);
        let over_engine = ClusterNttEngine::<Goldilocks>::new(log_n, 4, &node_cfg, opts, fs);
        opts.comm_mode = CommMode::Blocking;
        let block_engine = ClusterNttEngine::<Goldilocks>::new(log_n, 4, &node_cfg, opts, fs);

        let mut over = Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
        over_engine.simulate_forward(&mut over);
        let mut block = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        block_engine.simulate_forward(&mut block);

        assert!(over.network_hidden_ns() > 0.0, "wire time must be hidden");
        assert_eq!(block.network_hidden_ns(), 0.0);
        assert!(
            over.total_time_ns() < block.total_time_ns(),
            "overlap must shorten the makespan: over={} block={}",
            over.total_time_ns(),
            block.total_time_ns()
        );
        assert_eq!(over.network_bytes(), block.network_bytes());
    }

    #[test]
    fn recovery_without_faults_matches_reference() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            4,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        let input = random_vec(1 << 12, 11);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(report.output, reference(&input));
        assert_eq!(report.replans, 0);
        assert!(report.lost_nodes.is_empty());
        assert_eq!(report.nodes_used, 4);
        assert_eq!(report.retries_per_attempt, vec![0]);
        assert_eq!(report.total_retries(), 0);
        assert_eq!(report.attempts(), 1);
        // Communication totals (satellite observability): GPU-fabric
        // collectives ran on every node, bytes cover fabric + network, and
        // the default overlapped schedule hid some network wire time.
        assert!(report.collectives > 0);
        assert!(report.comm_bytes > cluster.network_bytes());
        assert!(report.comm_hidden_ns > 0.0);
        assert_eq!(
            report.comm_hidden_ns,
            cluster.network_hidden_ns()
                + (0..4)
                    .map(|i| cluster.node(i).stats().comm_hidden_ns)
                    .sum::<f64>()
        );
    }

    #[test]
    fn transient_drops_are_reported_per_attempt() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            2,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(2, node_cfg, NetworkConfig::infiniband_400g(), fs);
        // Two dropped collectives on node 0: absorbed by the policy's
        // retries within the single attempt, and surfaced in the report.
        cluster.node_mut(0).set_fault_plan(FaultPlan::scripted(vec![
            FaultEvent {
                seq: 0,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                seq: 2,
                kind: FaultKind::Drop,
            },
        ]));
        let input = random_vec(1 << 12, 21);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(report.output, reference(&input));
        assert_eq!(report.replans, 0, "drops never evict a node");
        assert_eq!(report.attempts(), 1);
        assert_eq!(report.retries_per_attempt.len(), 1);
        assert!(
            report.total_retries() >= 2,
            "both injected drops must surface as retries: {:?}",
            report.retries_per_attempt
        );
    }

    #[test]
    fn recovery_skips_pre_dead_node() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            4,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        cluster.node_mut(2).fail_device(1);
        let input = random_vec(1 << 12, 12);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(report.output, reference(&input));
        // Three healthy nodes -> largest power-of-two subset is two.
        assert_eq!(report.nodes_used, 2);
        assert_eq!(
            report.replans, 0,
            "pre-dead nodes are excluded, not replanned"
        );
    }

    #[test]
    fn mid_run_node_loss_replans_and_recovers() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(4);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            4,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        // Node 1 loses GPU 3 at its first collective.
        cluster
            .node_mut(1)
            .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                seq: 0,
                kind: FaultKind::DeviceLoss { device: 3 },
            }]));
        let input = random_vec(1 << 12, 13);
        let report = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(
            report.output,
            reference(&input),
            "degraded result must stay exact"
        );
        assert_eq!(report.replans, 1);
        assert_eq!(report.lost_nodes, vec![1]);
        assert_eq!(report.nodes_used, 2);
        assert_eq!(
            report.attempts(),
            2,
            "one failed attempt plus the successful replay"
        );
        assert!(!cluster.node(1).is_alive(3));
    }

    #[test]
    fn all_nodes_lost_reports_error() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(2);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            2,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(2, node_cfg, NetworkConfig::infiniband_400g(), fs);
        for i in 0..2 {
            cluster
                .node_mut(i)
                .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                    seq: 0,
                    kind: FaultKind::DeviceLoss { device: 0 },
                }]));
        }
        let input = random_vec(1 << 12, 14);
        let err = engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .unwrap_err();
        assert!(matches!(
            err,
            unintt_gpu_sim::FabricError::DeviceLost { .. }
        ));
    }

    #[test]
    fn reset_returns_a_cluster_to_its_new_state() {
        use unintt_gpu_sim::{FaultPlan, FaultRates};
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(2);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            10,
            2,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let new = || Cluster::new(2, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
        let mut cluster = new();
        let rates = FaultRates {
            device_loss_p: 0.0,
            ..FaultRates::uniform(0.2)
        };
        for node in 0..2 {
            let plan = FaultPlan::random(node as u64, rates);
            cluster.node_mut(node).set_fault_plan(plan);
        }
        let input = random_vec(1 << 10, 15);
        engine
            .forward_with_recovery(&mut cluster, &input, &RecoveryPolicy::default())
            .expect("transient faults are absorbed");
        cluster.node_mut(1).fail_device(0);
        assert!(cluster.total_time_ns() > 0.0 && cluster.network_bytes() > 0);
        assert!(cluster.nodes.iter().any(|m| !m.fault_log().is_empty()));
        cluster.reset();
        assert_eq!(format!("{cluster:?}"), format!("{:?}", new()));
    }

    #[test]
    #[should_panic(expected = "cluster does not match the plan")]
    fn cost_only_run_rejects_a_mismatched_cluster() {
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(2);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            12,
            2,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
        engine.simulate_forward(&mut cluster);
    }

    /// Dev profiling aid, not a correctness check: what one served raw
    /// job's cluster forward is made of on this host, piece by piece, on
    /// the default lease shape (2 nodes × 2 A100). Run with
    /// `cargo test -p unintt-core --release raw_job_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn raw_job_profile() {
        use std::hint::black_box;
        use std::time::Instant;
        /// µs per call: the best of five batches of `calls`.
        fn us(calls: u32, mut f: impl FnMut()) -> f64 {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    (0..calls).for_each(|_| f());
                    t.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
                })
                .fold(f64::MAX, f64::min)
        }
        let fs = FieldSpec::goldilocks();
        let node_cfg = presets::a100_nvlink(2);
        let cluster = || Cluster::new(2, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
        let opts = UniNttOptions::tuned_for(&fs);
        let t = us(2000, || drop(black_box(cluster())));
        println!("Cluster::new(2x2)                       {t:7.2} µs");
        for log_n in [8u32, 10] {
            let engine = ClusterNttEngine::<Goldilocks>::new(log_n, 2, &node_cfg, opts, fs);
            let input = random_vec(1 << log_n, 1);
            for (name, policy) in [
                ("default()", RecoveryPolicy::default()),
                ("retry_only()", RecoveryPolicy::retry_only()),
            ] {
                let mut cl = cluster();
                let t = us(500, || {
                    black_box(engine.forward_with_recovery(&mut cl, &input, &policy)).unwrap();
                });
                println!("forward_with_recovery 2^{log_n:<2} {name:<12}   {t:7.2} µs");
            }
        }
        let engine = ClusterNttEngine::<Goldilocks>::new(10, 2, &node_cfg, opts, fs);
        let mut cl = cluster();
        let t = us(500, || engine.simulate_forward(&mut cl));
        println!("simulate_forward 2^10 (unit plane)      {t:7.2} µs");

        let mut node_opts = opts;
        node_opts.natural_output = true;
        let node = UniNttEngine::<Goldilocks>::new(9, &node_cfg, node_opts, fs);
        let mut machine = Machine::new(node_cfg.clone(), fs);
        let input = random_vec(1 << 9, 2);
        let mut data = Sharded::distribute(&input, 2, ShardLayout::Cyclic);
        let policy = RecoveryPolicy::default();
        let t = us(1000, || {
            data.set_layout(ShardLayout::Cyclic);
            node.try_forward(&mut machine, &mut data, &policy).unwrap();
        });
        println!("UniNttEngine::try_forward 2^9 on 2 GPUs {t:7.2} µs");
        let t = us(5000, || {
            black_box(Sharded::distribute(&input, 2, ShardLayout::Cyclic).collect());
        });
        println!("Sharded::distribute+collect 2^9 over 2  {t:7.2} µs");
        let host = Ntt::<Goldilocks>::new(8);
        let mut shard = random_vec(1 << 8, 3);
        let t = us(5000, || host.forward(black_box(&mut shard)));
        println!("host Ntt::forward 2^8 (one shard)       {t:7.2} µs");

        let mut machine = Machine::new(node_cfg.clone(), fs);
        let mut shards = vec![random_vec(128, 4), random_vec(128, 5)];
        let t = us(5000, || {
            machine.all_to_all(&mut shards, 8).map(drop).unwrap()
        });
        println!("all_to_all 2 x 128                      {t:7.2} µs");
        let t = us(5000, || {
            machine
                .all_to_all_checked(&mut shards, 8)
                .map(drop)
                .unwrap()
        });
        println!("all_to_all_checked 2 x 128              {t:7.2} µs");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_transform_rejected() {
        let fs = FieldSpec::goldilocks();
        let _ = ClusterNttEngine::<Goldilocks>::new(
            3,
            4,
            &presets::a100_nvlink(2),
            UniNttOptions::tuned_for(&fs),
            fs,
        );
    }
}
