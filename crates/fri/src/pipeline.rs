//! The trace-commitment pipeline: LDE → Merkle → FRI.
//!
//! The STARK prover's opening move, and the workload the paper's
//! Goldilocks numbers model: every trace column is low-degree-extended
//! onto a `2^log_blowup`-times larger coset (one iNTT + one coset NTT per
//! column — the NTT-dominated phase), the extended matrix is Merkle-
//! committed row-wise, and a random linear combination of the columns is
//! proven low-degree with FRI.
//!
//! [`LdeBackend`] mirrors `unintt_zkp::Backend`: the CPU variant is the
//! functional reference; the simulated variant routes every LDE through
//! the [`UniNttEngine`] and charges Merkle hashing and folding to the
//! simulated clock, while producing bit-identical commitments.

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_gpu_sim::{FabricError, FieldSpec, KernelProfile, Machine, MachineConfig};

use crate::fri::{self, FriConfig, FriProof};
use crate::hash::{compress, hash_elements, permutations_for, Digest, ROUNDS, WIDTH};
use crate::merkle::{row_major, MerklePath, MerkleTree};

/// Field multiplications per sponge permutation (S-box + mixing), for the
/// simulator's hash-kernel profile.
const MULS_PER_PERMUTATION: u64 = (ROUNDS * (3 * WIDTH + WIDTH * WIDTH)) as u64;

/// Where the pipeline's heavy work runs.
#[allow(clippy::large_enum_variant)] // SimulatedLde is the hot variant; boxing buys nothing
pub enum LdeBackend {
    /// Plain host execution.
    Cpu,
    /// Simulated multi-GPU execution (bit-identical results).
    Simulated(SimulatedLde),
}

impl LdeBackend {
    /// A CPU backend.
    pub fn cpu() -> Self {
        LdeBackend::Cpu
    }

    /// A simulated backend on the given machine shape.
    pub fn simulated(cfg: MachineConfig) -> Self {
        LdeBackend::Simulated(SimulatedLde::new(cfg))
    }

    /// Low-degree extension: evaluations on `H_n` → evaluations on the
    /// coset `g·H_{n·2^log_blowup}`.
    pub fn lde(&mut self, evals: &[Goldilocks], log_blowup: u32) -> Vec<Goldilocks> {
        match self {
            LdeBackend::Cpu => {
                unintt_ntt::low_degree_extension(evals, log_blowup, Goldilocks::GENERATOR)
            }
            LdeBackend::Simulated(sim) => sim.lde(evals, log_blowup),
        }
    }

    /// Batched LDE of equal-length columns: on the simulated backend the
    /// whole batch shares passes and collectives (O5), as a production
    /// committer would submit a trace. The CPU backend extends the columns
    /// concurrently on the persistent worker pool.
    pub fn lde_batch(
        &mut self,
        columns: &[Vec<Goldilocks>],
        log_blowup: u32,
    ) -> Vec<Vec<Goldilocks>> {
        match self {
            LdeBackend::Cpu => cpu_lde_batch(columns, log_blowup),
            LdeBackend::Simulated(sim) => sim.lde_batch(columns, log_blowup),
        }
    }

    /// Charges a hash kernel of `permutations` sponge permutations.
    pub(crate) fn charge_hash(&mut self, permutations: u64) {
        if let LdeBackend::Simulated(sim) = self {
            sim.charge_hash(permutations);
        }
    }

    /// Charges an element-wise kernel (fold / linear combination).
    pub(crate) fn charge_pointwise(&mut self, n: usize, muls_per_elem: u64) {
        if let LdeBackend::Simulated(sim) = self {
            sim.charge_pointwise(n, muls_per_elem);
        }
    }

    /// Simulated makespan so far (0 for the CPU backend).
    pub fn sim_time_ns(&self) -> f64 {
        match self {
            LdeBackend::Cpu => 0.0,
            LdeBackend::Simulated(sim) => sim.machine.max_clock_ns(),
        }
    }

    /// The simulated machine, if any (to install fault plans or read
    /// traces); `None` for the CPU backend.
    pub fn machine_mut(&mut self) -> Option<&mut Machine> {
        match self {
            LdeBackend::Cpu => None,
            LdeBackend::Simulated(sim) => Some(&mut sim.machine),
        }
    }

    /// Fault-tolerant batched LDE, checkpointed at NTT-batch granularity:
    /// on `Err` the checkpoint keeps whatever batch completed
    /// (interpolation and/or evaluation), and a subsequent call resumes
    /// there instead of redoing the NTT work.
    pub fn try_lde_batch(
        &mut self,
        columns: &[Vec<Goldilocks>],
        log_blowup: u32,
        policy: &RecoveryPolicy,
        checkpoint: &mut CommitCheckpoint,
    ) -> Result<Vec<Vec<Goldilocks>>, FabricError> {
        if let Some(ldes) = &checkpoint.ldes {
            return Ok(ldes.clone());
        }
        let ldes = match self {
            LdeBackend::Cpu => cpu_lde_batch(columns, log_blowup),
            LdeBackend::Simulated(sim) => {
                sim.try_lde_batch(columns, log_blowup, policy, checkpoint)?
            }
        };
        checkpoint.coeffs = None; // superseded by the completed LDEs
        checkpoint.ldes = Some(ldes.clone());
        Ok(ldes)
    }
}

/// Host-side batched LDE: independent columns, one task per column on the
/// process-wide worker pool. Per-column results are bit-identical to the
/// serial loop (each column's extension is self-contained).
pub(crate) fn cpu_lde_batch(columns: &[Vec<Goldilocks>], log_blowup: u32) -> Vec<Vec<Goldilocks>> {
    let mut out: Vec<Vec<Goldilocks>> = vec![Vec::new(); columns.len()];
    Executor::global().scope(|scope| {
        for (col, slot) in columns.iter().zip(out.iter_mut()) {
            scope.spawn(move || {
                *slot = unintt_ntt::low_degree_extension(col, log_blowup, Goldilocks::GENERATOR);
            });
        }
    });
    out
}

/// Resumable state for [`commit_trace_with_recovery`]: the outputs of the
/// completed NTT batches of the LDE phase. All later commitment phases
/// (Merkle, α-combination, FRI, openings) are host-side or charge-only and
/// cannot fault, so this is exactly the state worth keeping.
#[derive(Clone, Debug, Default)]
pub struct CommitCheckpoint {
    /// Column coefficients after the batched interpolation (phase 1a).
    coeffs: Option<Vec<Vec<Goldilocks>>>,
    /// Extended evaluations after the batched coset NTT (phase 1b).
    ldes: Option<Vec<Vec<Goldilocks>>>,
}

impl CommitCheckpoint {
    /// True once the interpolation batch has completed.
    pub fn has_coefficients(&self) -> bool {
        self.coeffs.is_some() || self.ldes.is_some()
    }

    /// True once the full LDE phase has completed.
    pub fn has_ldes(&self) -> bool {
        self.ldes.is_some()
    }
}

/// The simulated LDE backend.
pub struct SimulatedLde {
    machine: Machine,
    cfg: MachineConfig,
    engines: std::collections::HashMap<u32, UniNttEngine<Goldilocks>>,
}

impl SimulatedLde {
    fn new(cfg: MachineConfig) -> Self {
        Self {
            machine: Machine::new(cfg.clone(), FieldSpec::goldilocks()),
            cfg,
            engines: std::collections::HashMap::new(),
        }
    }

    fn engine(&mut self, log_n: u32) -> &UniNttEngine<Goldilocks> {
        let cfg = &self.cfg;
        self.engines.entry(log_n).or_insert_with(|| {
            let fs = FieldSpec::goldilocks();
            let mut opts = UniNttOptions::tuned_for(&fs);
            opts.natural_output = true;
            UniNttEngine::new(log_n, cfg, opts, fs)
        })
    }

    /// True when the trace is too small to shard across the configured
    /// GPUs — the LDE then runs the single-device path with no
    /// collectives (and nothing to fault or to split into stages).
    pub(crate) fn small_path(&self, log_n: u32) -> bool {
        log_n < 2 * self.cfg.num_gpus.trailing_zeros()
    }

    pub(crate) fn lde(&mut self, evals: &[Goldilocks], log_blowup: u32) -> Vec<Goldilocks> {
        let n = evals.len();
        assert!(n.is_power_of_two(), "length must be a power of two");
        let log_n = n.trailing_zeros();
        let g = self.cfg.num_gpus;
        let log_g = g.trailing_zeros();
        let big_log = log_n + log_blowup;

        // Too small to split: host math plus a single-device charge.
        if log_n < 2 * log_g {
            let out = unintt_ntt::low_degree_extension(evals, log_blowup, Goldilocks::GENERATOR);
            let mut p = KernelProfile::named("small-lde-single-device");
            let bytes = (out.len() * 8) as u64;
            p.global_bytes_read = bytes * big_log as u64;
            p.global_bytes_written = bytes * big_log as u64;
            p.field_muls = (out.len() as u64 / 2) * big_log as u64;
            let mut unused = ();
            self.machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&p);
            });
            return out;
        }

        // Interpolate on the small domain.
        let mut data = Sharded::distribute(evals, g, ShardLayout::NaturalBlocks);
        self.engine(log_n); // ensure it exists before mutable borrow games
        let engine_small = self.engines.get(&log_n).expect("just inserted").clone();
        engine_small.inverse(&mut self.machine, &mut data);
        let mut coeffs = data.collect();

        // Zero-pad (a host-side re-shard; the real system allocates the
        // larger buffer up front) and coset-evaluate on the big domain.
        coeffs.resize(n << log_blowup, Goldilocks::ZERO);
        self.engine(big_log);
        let engine_big = self.engines.get(&big_log).expect("just inserted").clone();
        let mut big = Sharded::distribute(&coeffs, g, ShardLayout::Cyclic);
        engine_big.coset_forward(&mut self.machine, &mut big, Goldilocks::GENERATOR);
        big.collect()
    }

    /// Batched LDE through the engine's batch paths.
    fn lde_batch(&mut self, columns: &[Vec<Goldilocks>], log_blowup: u32) -> Vec<Vec<Goldilocks>> {
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        let log_n = n.trailing_zeros();
        let g = self.cfg.num_gpus;
        let log_g = g.trailing_zeros();
        if log_n < 2 * log_g {
            return columns.iter().map(|c| self.lde(c, log_blowup)).collect();
        }
        let big_log = log_n + log_blowup;

        // Interpolate all columns as one batch.
        let mut small_batch: Vec<Sharded<Goldilocks>> = columns
            .iter()
            .map(|c| Sharded::distribute(c, g, ShardLayout::NaturalBlocks))
            .collect();
        self.engine(log_n);
        let engine_small = self.engines.get(&log_n).expect("just inserted").clone();
        engine_small.inverse_batch(&mut self.machine, &mut small_batch);

        // Zero-pad and coset-evaluate, again as one batch.
        self.engine(big_log);
        let engine_big = self.engines.get(&big_log).expect("just inserted").clone();
        let mut big_batch: Vec<Sharded<Goldilocks>> = small_batch
            .iter()
            .map(|d| {
                let mut coeffs = d.collect();
                coeffs.resize(n << log_blowup, Goldilocks::ZERO);
                Sharded::distribute(&coeffs, g, ShardLayout::Cyclic)
            })
            .collect();
        engine_big.coset_forward_batch(&mut self.machine, &mut big_batch, Goldilocks::GENERATOR);
        big_batch.iter().map(Sharded::collect).collect()
    }

    /// Fault-tolerant batched LDE with per-batch checkpoints. The
    /// interpolation result is parked in `checkpoint` as soon as it
    /// completes, so a fault in the coset-evaluation batch only replays
    /// that batch.
    fn try_lde_batch(
        &mut self,
        columns: &[Vec<Goldilocks>],
        log_blowup: u32,
        policy: &RecoveryPolicy,
        checkpoint: &mut CommitCheckpoint,
    ) -> Result<Vec<Vec<Goldilocks>>, FabricError> {
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        let log_n = n.trailing_zeros();
        if self.small_path(log_n) {
            // Single-device path: no collectives, nothing can fault.
            return Ok(columns.iter().map(|c| self.lde(c, log_blowup)).collect());
        }

        // Phase 1a: batched interpolation, or resume from the checkpoint.
        let coeffs: Vec<Vec<Goldilocks>> = match checkpoint.coeffs.take() {
            Some(c) => c,
            None => self.try_interp_batch(columns, policy)?,
        };
        checkpoint.coeffs = Some(coeffs.clone());

        // Phase 1b: zero-pad and coset-evaluate as one batch.
        self.try_coset_batch(&coeffs, log_blowup, policy)
    }

    /// Phase 1a of the batched LDE on its own: interpolate every column
    /// as one batch. The staged committer runs this as its first DAG
    /// stage. Requires the multi-device path (`!self.small_path(..)`).
    pub(crate) fn try_interp_batch(
        &mut self,
        columns: &[Vec<Goldilocks>],
        policy: &RecoveryPolicy,
    ) -> Result<Vec<Vec<Goldilocks>>, FabricError> {
        let n = columns[0].len();
        let log_n = n.trailing_zeros();
        let g = self.cfg.num_gpus;
        let mut small_batch: Vec<Sharded<Goldilocks>> = columns
            .iter()
            .map(|c| Sharded::distribute(c, g, ShardLayout::NaturalBlocks))
            .collect();
        self.engine(log_n);
        let engine_small = self.engines.get(&log_n).expect("just inserted").clone();
        engine_small.try_inverse_batch(&mut self.machine, &mut small_batch, policy)?;
        Ok(small_batch.iter().map(Sharded::collect).collect())
    }

    /// Phase 1b of the batched LDE on its own: zero-pad the coefficient
    /// columns and coset-evaluate them as one batch on the blown-up
    /// domain. The staged committer runs this as its second DAG stage.
    pub(crate) fn try_coset_batch(
        &mut self,
        coeffs: &[Vec<Goldilocks>],
        log_blowup: u32,
        policy: &RecoveryPolicy,
    ) -> Result<Vec<Vec<Goldilocks>>, FabricError> {
        let n = coeffs[0].len();
        let big_log = n.trailing_zeros() + log_blowup;
        let g = self.cfg.num_gpus;
        self.engine(big_log);
        let engine_big = self.engines.get(&big_log).expect("just inserted").clone();
        let mut big_batch: Vec<Sharded<Goldilocks>> = coeffs
            .iter()
            .map(|c| {
                let mut padded = c.clone();
                padded.resize(n << log_blowup, Goldilocks::ZERO);
                Sharded::distribute(&padded, g, ShardLayout::Cyclic)
            })
            .collect();
        engine_big.try_coset_forward_batch(
            &mut self.machine,
            &mut big_batch,
            Goldilocks::GENERATOR,
            policy,
        )?;
        Ok(big_batch.iter().map(Sharded::collect).collect())
    }

    fn charge_hash(&mut self, permutations: u64) {
        let devices = self.machine.num_devices() as u64;
        let mut p = KernelProfile::named("sponge-hash");
        p.blocks = (permutations / 32).max(1);
        p.field_muls = permutations * MULS_PER_PERMUTATION / devices;
        p.global_bytes_read = permutations * (WIDTH as u64) * 8 / devices;
        p.global_bytes_written = permutations * 32 / devices;
        let mut dummy: Vec<()> = vec![(); devices as usize];
        self.machine.parallel_phase(&mut dummy, |ctx, _, _| {
            ctx.launch(&p);
        });
    }

    fn charge_pointwise(&mut self, n: usize, muls_per_elem: u64) {
        let devices = self.machine.num_devices() as u64;
        let mut p = KernelProfile::named("pointwise");
        p.blocks = (n as u64 / 256).max(1);
        p.field_muls = n as u64 * muls_per_elem / devices;
        p.global_bytes_read = (n * 8) as u64 / devices;
        p.global_bytes_written = (n * 8) as u64 / devices;
        let mut dummy: Vec<()> = vec![(); devices as usize];
        self.machine.parallel_phase(&mut dummy, |ctx, _, _| {
            ctx.launch(&p);
        });
    }
}

/// A committed trace: the Merkle root of the LDE matrix, the FRI
/// low-degree proof of a random column combination, and the trace
/// openings binding the two together at the FRI query positions.
#[derive(Clone, Debug)]
pub struct TraceCommitment {
    /// Root of the row-wise Merkle tree over the LDE matrix.
    pub trace_root: Digest,
    /// FRI proof for the α-combination of the columns.
    pub fri_proof: FriProof,
    /// Trace-matrix openings at each FRI query's outermost (low, high)
    /// positions.
    pub trace_openings: Vec<(MerklePath, MerklePath)>,
    /// Number of trace rows before extension.
    pub n: usize,
    /// Number of columns.
    pub width: usize,
}

impl TraceCommitment {
    /// FNV-1a fingerprint of the commitment's binding content (trace
    /// root, FRI layer roots, final codeword, shape) — a stable 64-bit
    /// value for comparing commitments across scheduling paths (the
    /// DAG-pipelined and monolithic committers must produce equal
    /// digests). Openings are derived deterministically from these, so
    /// they need not be hashed.
    pub fn content_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.n as u64);
        mix(self.width as u64);
        for w in self.trace_root.0 {
            mix(w.value());
        }
        for root in &self.fri_proof.layer_roots {
            for w in root.0 {
                mix(w.value());
            }
        }
        for v in &self.fri_proof.final_codeword {
            mix(v.a.value());
            mix(v.b.value());
        }
        h
    }
}

/// Derives the (extension-field, ~128-bit) column-combination challenge
/// from the trace root.
pub(crate) fn combination_challenge(root: &Digest) -> GoldilocksExt2 {
    let d = compress(root, &hash_elements(&[Goldilocks::from_u64(0xa1fa)]));
    GoldilocksExt2::new(d.0[0], d.0[1])
}

/// Commits to a trace (all columns the same power-of-two length).
///
/// # Panics
///
/// Panics if the trace is empty, ragged, or too short for the FRI
/// configuration.
pub fn commit_trace(
    columns: &[Vec<Goldilocks>],
    config: &FriConfig,
    backend: &mut LdeBackend,
) -> TraceCommitment {
    commit_trace_with_recovery(
        columns,
        config,
        backend,
        &RecoveryPolicy::none(),
        &mut CommitCheckpoint::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Fault-tolerant [`commit_trace`]: transient fabric faults are absorbed
/// per `policy`, and on a permanent failure the `checkpoint` keeps every
/// completed NTT batch so a subsequent call (after the operator repairs or
/// degrades the machine) resumes from the last completed batch instead of
/// restarting the proof. On success the checkpoint is reset.
///
/// # Errors
///
/// Returns the [`FabricError`] that outlived the policy's retries.
///
/// # Panics
///
/// Panics under the same conditions as [`commit_trace`].
pub fn commit_trace_with_recovery(
    columns: &[Vec<Goldilocks>],
    config: &FriConfig,
    backend: &mut LdeBackend,
    policy: &RecoveryPolicy,
    checkpoint: &mut CommitCheckpoint,
) -> Result<TraceCommitment, FabricError> {
    commit_on(
        Executor::global(),
        columns,
        config,
        backend,
        policy,
        checkpoint,
    )
}

/// [`commit_trace_with_recovery`] with the Merkle trees built on `exec`
/// (the commitment does not depend on the pool).
fn commit_on(
    exec: &Executor,
    columns: &[Vec<Goldilocks>],
    config: &FriConfig,
    backend: &mut LdeBackend,
    policy: &RecoveryPolicy,
    checkpoint: &mut CommitCheckpoint,
) -> Result<TraceCommitment, FabricError> {
    assert!(!columns.is_empty(), "trace must have at least one column");
    let n = columns[0].len();
    assert!(
        columns.iter().all(|c| c.len() == n),
        "all trace columns must have equal length"
    );

    // 1. LDE every column as one batch (the NTT-heavy phase — the only
    // one that touches the fabric, hence the only one checkpointed).
    let ldes: Vec<Vec<Goldilocks>> =
        backend.try_lde_batch(columns, config.log_blowup, policy, checkpoint)?;
    let big_n = n << config.log_blowup;

    // 2. Row-wise Merkle commitment of the extended matrix.
    let rows = row_major(&ldes);
    backend.charge_hash(big_n as u64 * permutations_for(columns.len()));
    backend.charge_hash(big_n as u64 - 1); // interior nodes
    let tree = MerkleTree::build(exec, &rows, columns.len());
    let trace_root = tree.root();

    // 3. Random linear combination of the columns, into the extension
    // field (α has ~128 bits of entropy; see the fri module docs).
    let alpha = combination_challenge(&trace_root);
    let mut combined = vec![GoldilocksExt2::ZERO; big_n];
    let mut coeff = GoldilocksExt2::ONE;
    for lde in &ldes {
        for (acc, &v) in combined.iter_mut().zip(lde) {
            *acc += coeff * v;
        }
        coeff *= alpha;
    }
    // An ext×base product costs two base multiplies.
    backend.charge_pointwise(big_n * columns.len(), 2);

    // 4. FRI low-degree proof of the combination.
    backend.charge_hash(fri::prove_hash_permutations(config, big_n));
    backend.charge_pointwise(2 * big_n, 6); // all (extension) fold layers
    let fri_proof = fri::prove_on(
        exec,
        config,
        combined,
        Goldilocks::GENERATOR,
        &Digest::zero(),
    );

    // 5. Bind: open the trace matrix at every FRI query's outer positions.
    let trace_openings: Vec<(MerklePath, MerklePath)> = fri_proof
        .queries
        .iter()
        .map(|q| {
            let first = &q.rounds[0];
            (
                tree.open(&rows, first.low.index),
                tree.open(&rows, first.high.index),
            )
        })
        .collect();

    *checkpoint = CommitCheckpoint::default();
    Ok(TraceCommitment {
        trace_root,
        fri_proof,
        trace_openings,
        n,
        width: columns.len(),
    })
}

/// Verifies a trace commitment.
pub fn verify_trace(commitment: &TraceCommitment, config: &FriConfig) -> bool {
    let big_n = commitment.n << config.log_blowup;
    if !fri::verify(config, &commitment.fri_proof, big_n, Goldilocks::GENERATOR) {
        return false;
    }
    if commitment.trace_openings.len() != commitment.fri_proof.queries.len() {
        return false;
    }

    // Bind the FRI codeword to the trace commitment.
    let alpha = combination_challenge(&commitment.trace_root);
    for (query, (low_open, high_open)) in commitment
        .fri_proof
        .queries
        .iter()
        .zip(&commitment.trace_openings)
    {
        let first = &query.rounds[0];
        for (open, fri_path) in [(low_open, &first.low), (high_open, &first.high)] {
            if open.index != fri_path.index
                || open.row.len() != commitment.width
                || fri_path.row.len() != 2
                || !open.verify(&commitment.trace_root)
            {
                return false;
            }
            // Σ αⁱ·row[i] must equal the FRI layer-0 (extension) value.
            let mut acc = GoldilocksExt2::ZERO;
            let mut coeff = GoldilocksExt2::ONE;
            for &v in &open.row {
                acc += coeff * v;
                coeff *= alpha;
            }
            if acc != GoldilocksExt2::new(fri_path.row[0], fri_path.row[1]) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_gpu_sim::presets;

    fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..width)
            .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn commit_verify_roundtrip_cpu() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 3, 1);
        let commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        assert!(verify_trace(&commitment, &config));
    }

    #[test]
    fn simulated_backend_identical_commitment() {
        let config = FriConfig::standard();
        let trace = random_trace(256, 4, 2);
        let cpu = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        let mut sim = LdeBackend::simulated(presets::a100_nvlink(4));
        let simulated = commit_trace(&trace, &config, &mut sim);
        assert_eq!(cpu.trace_root, simulated.trace_root);
        assert_eq!(cpu.fri_proof, simulated.fri_proof);
        assert!(verify_trace(&simulated, &config));
        assert!(sim.sim_time_ns() > 0.0);
    }

    #[test]
    fn tampered_root_rejected() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 2, 3);
        let mut commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        commitment.trace_root = Digest::zero();
        assert!(!verify_trace(&commitment, &config));
    }

    #[test]
    fn tampered_trace_opening_rejected() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 2, 4);
        let mut commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        commitment.trace_openings[0].0.row[0] += Goldilocks::ONE;
        assert!(!verify_trace(&commitment, &config));
    }

    #[test]
    fn trace_opening_with_a_dropped_sibling_rejected() {
        // A path one sibling short ends on an interior node; the leftover
        // index bit (or the digest) must give it away.
        let config = FriConfig::standard();
        let trace = random_trace(64, 2, 9);
        let commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        for drop_last in [false, true] {
            let mut bad = commitment.clone();
            let siblings = &mut bad.trace_openings[0].0.siblings;
            if drop_last {
                siblings.pop();
            } else {
                siblings.remove(0);
            }
            assert!(!verify_trace(&bad, &config), "drop_last={drop_last}");
        }
        let mut bad = commitment;
        bad.fri_proof.queries[0].rounds[0].low.siblings.pop();
        assert!(!verify_trace(&bad, &config));
    }

    #[test]
    fn commitment_does_not_depend_on_the_pool() {
        // 2^9 × 4 rows extend to 2^11 leaves: eight leaf bands in the
        // trace tree and in the first FRI layer.
        let config = FriConfig::standard();
        let trace = random_trace(512, 4, 10);
        let on = |threads: usize| {
            commit_on(
                &Executor::new(threads),
                &trace,
                &config,
                &mut LdeBackend::cpu(),
                &RecoveryPolicy::none(),
                &mut CommitCheckpoint::default(),
            )
            .expect("the CPU backend has no fabric to fault")
        };
        let serial = on(1);
        assert!(verify_trace(&serial, &config));
        for threads in [2, 8] {
            let pooled = on(threads);
            assert_eq!(pooled.content_digest(), serial.content_digest());
            assert_eq!(pooled.fri_proof, serial.fri_proof);
            assert_eq!(pooled.trace_openings, serial.trace_openings);
        }
    }

    #[test]
    fn single_column_trace() {
        let config = FriConfig::standard();
        let trace = random_trace(32, 1, 5);
        let commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        assert!(verify_trace(&commitment, &config));
    }

    #[test]
    fn recovery_under_dropped_collectives_matches_cpu() {
        use unintt_gpu_sim::{FaultPlan, FaultRates};
        let config = FriConfig::standard();
        let trace = random_trace(256, 4, 7);
        let cpu = commit_trace(&trace, &config, &mut LdeBackend::cpu());

        let mut sim = LdeBackend::simulated(presets::a100_nvlink(4));
        sim.machine_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::random(99, FaultRates::transfers_only(0.2)));
        let mut ckpt = CommitCheckpoint::default();
        let committed = commit_trace_with_recovery(
            &trace,
            &config,
            &mut sim,
            &RecoveryPolicy::default(),
            &mut ckpt,
        )
        .expect("retries should absorb 20% drop/corrupt rates");
        assert_eq!(committed.trace_root, cpu.trace_root);
        assert_eq!(committed.fri_proof, cpu.fri_proof);
        assert!(!ckpt.has_coefficients(), "checkpoint resets on success");
    }

    #[test]
    fn checkpoint_resumes_after_permanent_failure() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let config = FriConfig::standard();
        let trace = random_trace(256, 4, 8);
        let cpu = commit_trace(&trace, &config, &mut LdeBackend::cpu());

        // Probe a clean run to find the total collective count, then drop
        // the *last* collective (part of the coset-evaluation batch).
        let mut probe = LdeBackend::simulated(presets::a100_nvlink(4));
        let _ = commit_trace(&trace, &config, &mut probe);
        let total = probe.machine_mut().unwrap().collective_seq();
        assert!(
            total >= 2,
            "need at least two collectives to stage the test"
        );

        let mut sim = LdeBackend::simulated(presets::a100_nvlink(4));
        sim.machine_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                seq: total - 1,
                kind: FaultKind::Drop,
            }]));
        let no_retries = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        let mut ckpt = CommitCheckpoint::default();
        let err = commit_trace_with_recovery(&trace, &config, &mut sim, &no_retries, &mut ckpt)
            .unwrap_err();
        assert!(err.is_transient(), "a drop is transient: {err}");
        assert!(
            ckpt.has_coefficients() && !ckpt.has_ldes(),
            "interpolation batch must have been checkpointed"
        );

        // Resume: the drop was consumed, the interpolation is skipped.
        let committed =
            commit_trace_with_recovery(&trace, &config, &mut sim, &no_retries, &mut ckpt)
                .expect("resume from checkpoint");
        assert_eq!(committed.trace_root, cpu.trace_root);
        assert_eq!(committed.fri_proof, cpu.fri_proof);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_trace_rejected() {
        let config = FriConfig::standard();
        let mut trace = random_trace(32, 2, 6);
        trace[1].pop();
        let _ = commit_trace(&trace, &config, &mut LdeBackend::cpu());
    }
}
