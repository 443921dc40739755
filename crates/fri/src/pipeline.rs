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
//!
//! The phases themselves are implemented once, as the stages of
//! [`crate::staged`]; [`commit_trace`] drives them in index order. This
//! module holds the backends, the commitment type and the verifier.

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_gpu_sim::{FabricError, FieldSpec, KernelProfile, Machine, MachineConfig, SimTime};

use crate::fri::{self, FriConfig, FriProof};
use crate::hash::{compress, hash_elements, Digest, ROUNDS, WIDTH};
use crate::merkle::MerklePath;
use crate::staged::CommitState;

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

    /// Simulated makespan so far (zero for the CPU backend).
    pub fn sim_time(&self) -> SimTime {
        match self {
            LdeBackend::Cpu => SimTime::ZERO,
            LdeBackend::Simulated(sim) => sim.machine.max_clock(),
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

    /// Batched LDE through the engine's batch paths: interpolate all
    /// columns as one batch, then zero-pad and coset-evaluate them as
    /// one batch.
    fn lde_batch(&mut self, columns: &[Vec<Goldilocks>], log_blowup: u32) -> Vec<Vec<Goldilocks>> {
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all columns must have equal length"
        );
        if self.small_path(n.trailing_zeros()) {
            return columns.iter().map(|c| self.lde(c, log_blowup)).collect();
        }
        let policy = RecoveryPolicy::none();
        self.try_interp_batch(columns, &policy)
            .and_then(|coeffs| self.try_coset_batch(&coeffs, log_blowup, &policy))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Phase 1a of the batched LDE: interpolate every column as one
    /// batch (the committer's first stage). Requires the multi-device
    /// path (`!self.small_path(..)`).
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

    /// Phase 1b of the batched LDE: zero-pad the coefficient columns and
    /// coset-evaluate them as one batch on the blown-up domain (the
    /// committer's second stage).
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

/// Commits to a trace (all columns the same power-of-two length): the
/// stages of [`crate::staged`] run in index order on the caller's
/// backend, over the caller's trace. For committing under a
/// fault-recovery policy, see [`crate::StagedCommit::resume`].
///
/// # Panics
///
/// Panics if the trace is empty, ragged, or too short for the FRI
/// configuration, or if the backend's fabric faults (no retry policy
/// here).
pub fn commit_trace(
    columns: &[Vec<Goldilocks>],
    config: &FriConfig,
    backend: &mut LdeBackend,
) -> TraceCommitment {
    let mut state = CommitState::new(columns, *config);
    state
        .resume(
            columns,
            backend,
            Executor::global(),
            &RecoveryPolicy::none(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    state.into_commitment().expect("every stage ran")
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
        assert!(sim.sim_time() > SimTime::ZERO);
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
            let mut state = CommitState::new(&trace, config);
            state
                .resume(
                    &trace,
                    &mut LdeBackend::cpu(),
                    &Executor::new(threads),
                    &RecoveryPolicy::none(),
                )
                .expect("the CPU backend has no fabric to fault");
            state.into_commitment().expect("every stage ran")
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
    #[should_panic(expected = "equal length")]
    fn ragged_trace_rejected() {
        let config = FriConfig::standard();
        let mut trace = random_trace(32, 2, 6);
        trace[1].pop();
        let _ = commit_trace(&trace, &config, &mut LdeBackend::cpu());
    }
}
