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
//! functional reference; the simulated variant routes every LDE large
//! enough to shard through the [`UniNttEngine`] (a smaller one runs on
//! the host and charges one device) and charges Merkle hashing and
//! folding to the simulated clock, while producing bit-identical
//! commitments.
//!
//! The phases themselves are implemented once, as the stages of
//! [`crate::staged`]; [`commit_trace`] drives them in index order. This
//! module holds the backends, the commitment type and the verifier.

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_gpu_sim::{
    telemetry, FabricError, FieldSpec, KernelProfile, Machine, MachineConfig, SimTime,
};
use unintt_ntt::Ntt;

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

    /// Charges a hash kernel of `permutations` sponge permutations.
    pub(crate) fn charge_hash(&mut self, permutations: u64) {
        let bytes = (permutations * WIDTH as u64 * 8, permutations * 32);
        let muls = permutations * MULS_PER_PERMUTATION;
        self.charge_sharded("sponge-hash", permutations / 32, muls, bytes);
    }

    /// Charges FRI's commit phase on a codeword of `n` values: every
    /// layer tree as one hash launch, then the whole fold chain as one
    /// kernel over the layers' two base components.
    pub(crate) fn charge_fri(&mut self, config: &FriConfig, n: usize) {
        self.charge_hash(fri::prove_hash_permutations(config, n));
        let layer_values: usize = config.layers(n).map(|(len, _)| len).sum();
        self.charge_pointwise(2 * layer_values, fri::prove_fold_muls(config, n));
    }

    /// Charges an element-wise kernel (fold / linear combination) over
    /// `n` base-field elements doing `field_muls` multiplications.
    pub(crate) fn charge_pointwise(&mut self, n: usize, field_muls: u64) {
        let bytes = (n * 8) as u64;
        self.charge_sharded("pointwise", n as u64 / 256, field_muls, (bytes, bytes));
    }

    /// Launches kernel `name` on every simulated device, with `blocks`
    /// (at least one) and the multiplications and `(read, written)`
    /// bytes split evenly among them; nothing on the CPU backend.
    fn charge_sharded(&mut self, name: &'static str, blocks: u64, muls: u64, bytes: (u64, u64)) {
        let LdeBackend::Simulated(sim) = self else {
            return;
        };
        let devices = sim.machine.num_devices() as u64;
        let mut p = KernelProfile::named(name);
        p.blocks = blocks.max(1);
        p.field_muls = muls / devices;
        p.global_bytes_read = bytes.0 / devices;
        p.global_bytes_written = bytes.1 / devices;
        sim.machine
            .parallel_phase(&mut vec![(); devices as usize], |ctx, _, _| {
                ctx.launch(&p);
            });
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

/// The host NTT stages' body: each column copied, zero-padded to the
/// size of `ntt` and transformed in place by `f`, one task per column on
/// `exec`. Each column is self-contained, so the output does not depend
/// on the pool; each task records telemetry as the calling thread would,
/// so what a session counts does not either.
pub(crate) fn per_column(
    exec: &Executor,
    columns: &[Vec<Goldilocks>],
    ntt: &Ntt<Goldilocks>,
    f: impl Fn(&Ntt<Goldilocks>, &mut [Goldilocks]) + Sync,
) -> Vec<Vec<Goldilocks>> {
    let mut out: Vec<Vec<Goldilocks>> = vec![Vec::new(); columns.len()];
    let member = telemetry::recording();
    exec.scope(|scope| {
        for (col, slot) in columns.iter().zip(out.iter_mut()) {
            let f = &f;
            scope.spawn(move || {
                slot.reserve_exact(ntt.n());
                slot.extend_from_slice(col);
                slot.resize(ntt.n(), Goldilocks::ZERO);
                telemetry::adopt(member, || f(ntt, slot));
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

    /// Stage 1's charge on the single-device path (see
    /// [`SimulatedLde::small_path`]) for `width` columns extended to
    /// `big_n` rows: one launch per column on device 0. The host runs
    /// the math.
    pub(crate) fn charge_small_lde(&mut self, width: usize, big_n: usize) {
        let big_log = u64::from(big_n.trailing_zeros());
        let mut p = KernelProfile::named("small-lde-single-device");
        let bytes = (big_n * 8) as u64;
        p.global_bytes_read = bytes * big_log;
        p.global_bytes_written = bytes * big_log;
        p.field_muls = (big_n as u64 / 2) * big_log;
        for _ in 0..width {
            self.machine.on_device(0, &mut (), |ctx, _| {
                ctx.launch(&p);
            });
        }
    }

    /// Stages 0–1's charge for a batch of `width` columns of `2^log_n`
    /// rows, with no data: the engines' cost-only interpolation and coset
    /// LDE (the multi-device path).
    pub(crate) fn simulate_lde(&mut self, log_n: u32, width: u64, log_blowup: u32) {
        let small = self.engine(log_n).clone();
        small.simulate_inverse(&mut self.machine, width);
        let big = self.engine(log_n + log_blowup).clone();
        big.simulate_coset_forward(&mut self.machine, width);
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
        let engine_small = self.engine(log_n).clone();
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
        let engine_big = self.engine(big_log).clone();
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
}

/// A committed trace: the Merkle root of the LDE matrix and the FRI
/// low-degree proof of a random column combination, whose queries carry
/// the trace openings binding the two together.
///
/// A trace leaf holds the LDE rows the first FRI round folds together
/// (rows `r + t·N/2^b`, `b` that round's log arity), so one opening
/// binds every position of a query's first FRI leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceCommitment {
    /// Root of the Merkle tree over the grouped LDE matrix.
    pub trace_root: Digest,
    /// FRI proof for the α-combination of the columns; each query's
    /// input is the trace leaf at its first-round leaf's index.
    pub fri_proof: FriProof<MerklePath>,
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
    let Some(big_n) = config.lde_len(commitment.n) else {
        return false;
    };
    // Bind the FRI codeword to the trace commitment: each of the leaf's
    // rows, α-combined, is the FRI layer-0 value at its position.
    let alpha = combination_challenge(&commitment.trace_root);
    let (width, root) = (commitment.width, &commitment.trace_root);
    let combine = |row: &[Goldilocks]| {
        let terms = row.iter().rev();
        terms.fold(GoldilocksExt2::ZERO, |acc, &v| {
            acc * alpha + GoldilocksExt2::from_base(v)
        })
    };
    let (proof, shift, seed) = (&commitment.fri_proof, Goldilocks::GENERATOR, Digest::zero());
    fri::verify_seeded(config, proof, big_n, shift, &seed, |r, open| {
        let rows = trace_leaf(config, big_n, width, root, r, open)?;
        Some(rows.map(|(_, row)| combine(row)).collect())
    })
}

/// The binding check every trace verifier runs on a trace opening: `open`
/// must be the leaf holding LDE row `position` (leaf `position mod
/// (L/2^b)`, for an LDE of `big_n = L` rows whose first FRI round folds
/// by `2^b`) of the tree under `root`, with `width·2^b` values and a path
/// that verifies. Yields `(position, row)` for each of the leaf's `2^b`
/// rows in slot order, or `None` if a check fails.
pub(crate) fn trace_leaf<'a>(
    config: &FriConfig,
    big_n: usize,
    width: usize,
    root: &Digest,
    position: usize,
    open: &'a MerklePath,
) -> Option<impl Iterator<Item = (usize, &'a [Goldilocks])>> {
    let bits = config.first_arity(big_n.trailing_zeros());
    let leaves = big_n >> bits;
    let leaf = position % leaves;
    let bound = width > 0
        && open.index == leaf
        && width.checked_mul(1 << bits) == Some(open.row.len())
        && open.verify(root);
    bound.then(|| {
        let rows = open.row.chunks_exact(width).enumerate();
        rows.map(move |(t, row)| (leaf + t * leaves, row))
    })
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

    /// The three LDE paths for a 32-row trace: the CPU, the simulated
    /// single-device path (eight GPUs shard from 2^6 rows) and the
    /// multi-device path (four GPUs shard from 2^4 rows).
    fn lde_paths() -> [(&'static str, LdeBackend); 3] {
        let single = LdeBackend::simulated(presets::a100_nvlink(8));
        let multi = LdeBackend::simulated(presets::a100_nvlink(4));
        assert!(matches!(&single, LdeBackend::Simulated(s) if s.small_path(5)));
        assert!(matches!(&multi, LdeBackend::Simulated(s) if !s.small_path(5)));
        [
            ("cpu", LdeBackend::cpu()),
            ("single-device", single),
            ("multi-device", multi),
        ]
    }

    #[test]
    fn every_prover_commits_the_same_trace_root() {
        use crate::{open_trace, prove_stark, FibonacciAir};
        let (air, trace) = FibonacciAir::generate(32);
        let zeta = GoldilocksExt2::new(Goldilocks::from_u64(5), Goldilocks::from_u64(11));
        for log_folding_arity in 1..=3 {
            let config = FriConfig {
                log_folding_arity,
                ..FriConfig::standard()
            };
            let root = commit_trace(&trace, &config, &mut LdeBackend::cpu()).trace_root;
            for (path, mut backend) in lde_paths() {
                let at = format!("k={log_folding_arity} {path}");
                let committed = commit_trace(&trace, &config, &mut backend);
                let opened = open_trace(&trace, zeta, &config, &mut backend);
                let proved = prove_stark(&air, &trace, &config, &mut backend);
                assert_eq!(committed.trace_root, root, "{at}");
                assert_eq!(opened.trace_root, root, "{at}");
                assert_eq!(proved.trace_root, root, "{at}");
            }
        }
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
        commitment.fri_proof.queries[0].input.row[0] += Goldilocks::ONE;
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
            let siblings = &mut bad.fri_proof.queries[0].input.siblings;
            if drop_last {
                siblings.pop();
            } else {
                siblings.remove(0);
            }
            assert!(!verify_trace(&bad, &config), "drop_last={drop_last}");
        }
        let mut bad = commitment;
        bad.fri_proof.queries[0].rounds[0].siblings.pop();
        assert!(!verify_trace(&bad, &config));
    }

    #[test]
    fn commitment_does_not_depend_on_the_pool() {
        // 2^9 × 4 rows extend to 2^11 rows: 2^11 / 2^k leaves, at least
        // one full leaf band, in the trace tree and the first FRI layer.
        let trace = random_trace(512, 4, 10);
        for log_folding_arity in 1..=3 {
            let config = FriConfig {
                log_folding_arity,
                ..FriConfig::standard()
            };
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
                assert_eq!(pooled, serial);
            }
        }
    }

    /// The host NTT stages run one column per pool task, and each task
    /// records as the committing thread would: a session counts the same
    /// transform calls whatever thread ran each column.
    #[test]
    fn telemetry_counts_do_not_depend_on_the_pool() {
        let trace = random_trace(256, 8, 11);
        let config = FriConfig::standard();
        let dispatches = |threads: usize| {
            let _session = telemetry::start_session();
            let mut state = CommitState::new(&trace, config);
            state
                .resume(
                    &trace,
                    &mut LdeBackend::cpu(),
                    &Executor::new(threads),
                    &RecoveryPolicy::none(),
                )
                .expect("the CPU backend has no fabric to fault");
            telemetry::registry_snapshot()
                .counters
                .get("ntt_dispatch_vector")
                .copied()
        };
        let serial = dispatches(1);
        assert!(serial.is_some_and(|n| n >= 2 * 8), "{serial:?}");
        for threads in [2, 8, 2, 8] {
            assert_eq!(dispatches(threads), serial, "threads={threads}");
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
