//! The STARK trace commitment, as six dependency-ordered stages.
//!
//! This module is the only implementation of the commitment's phases —
//! trace interpolation, the batched coset NTT, the row-wise Merkle
//! commit, the α-combination, the fused FRI fold chain, and a final
//! assembly barrier. The two NTT stages run on every backend: sharded
//! over the fabric on the simulated multi-device path, on the host pool
//! otherwise (the single-device path charges its one launch per column
//! in the coset stage). Every way of producing a commitment is a
//! *schedule* over these stages:
//!
//! * [`crate::commit_trace`] runs them in index order on the caller's
//!   backend, borrowing the trace (the monolithic entry point);
//! * [`StagedCommit`] owns its inputs so a DAG scheduler can interleave
//!   the stages with stages of *other* proofs on shared hardware and
//!   attribute simulated time per stage;
//! * [`StagedCommit::resume`] runs whatever is not done yet, in index
//!   order, under a [`RecoveryPolicy`] — fault-tolerant committing;
//! * [`crate::open_trace`] and [`crate::prove_stark`] run the first three
//!   stages and go on from the committed trace tree (its coefficients,
//!   LDE columns and openings) their own way;
//! * [`projected_commit_time`] charges every stage with no trace, through
//!   the engines' cost-only paths.
//!
//! The STARK commitment is a strict pipeline (each phase consumes the
//! previous one's output), so unlike the PLONK DAG there is no
//! intra-proof parallelism to expose; the value is per-stage scheduling
//! granularity and time attribution. The FRI fold rounds are
//! deliberately *one* stage, not one per round: the rounds halve
//! geometrically (total work ≈ 2·domain elements), so per-round kernel
//! launches would be fixed-cost dominated, and the chain is strictly
//! sequential, so splitting it buys a scheduler nothing. The fold stage
//! charges two aggregate kernels (all layer commitments as one hash
//! launch, all folds as one kernel of the fold chain's multiplications);
//! the fold *values* are deterministic host math in the finalize barrier.
//!
//! A stage that fails with a transient [`FabricError`] (only the two NTT
//! stages touch the fabric) leaves state untouched and may be re-run:
//! the affected subgraph replays, completed stages keep their results.
//! The committer object *is* the checkpoint.

use unintt_core::RecoveryPolicy;
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_gpu_sim::{FabricError, MachineConfig, SimTime};
use unintt_ntt::{coset_ntt, Ntt};

use crate::fri::{self, FriConfig};
use crate::hash::Digest;
use crate::merkle::{row_major, MerklePath, MerkleTree};
use crate::pipeline::{combination_challenge, per_column, LdeBackend, TraceCommitment};

/// One node of a proof-stage DAG (same shape as
/// `unintt_zkp::StageDesc`; duplicated rather than shared so `fri` and
/// `zkp` stay independent leaves under `crates/pipeline`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageDesc {
    /// Human-readable stage name (stable across runs; used in traces).
    pub name: String,
    /// Resource-kind tag used for scheduling and time attribution.
    pub kind: &'static str,
    /// Indices of stages this one depends on.
    pub deps: Vec<usize>,
}

/// Number of stages in the STARK commitment chain.
const STARK_STAGES: usize = 6;

/// The fixed commitment chain as `(name, kind, deps)` rows. Every
/// dependency has a smaller index, so index order is a topological
/// order.
const STARK_DAG: [(&str, &str, &[usize]); STARK_STAGES] = [
    ("trace-interp", "ntt", &[]),         // 0
    ("trace-coset", "ntt", &[0]),         // 1
    ("trace-merkle", "hash", &[1]),       // 2
    ("alpha-combine", "pointwise", &[2]), // 3
    ("fri-fold", "fold", &[3]),           // 4
    ("fri-finalize", "barrier", &[4]),    // 5
];

/// A committed trace: its LDE columns and the Merkle tree over them, a
/// leaf per first-round FRI coset. With `L` extended rows and `b` the
/// first round's log arity, leaf `r` holds rows `r + t·L/2^b` for
/// `t < 2^b`, so one opening binds every position of a query's first
/// FRI leaf.
pub(crate) struct TraceTree {
    /// The trace columns' coefficients (stage 0's output).
    pub(crate) coeffs: Vec<Vec<Goldilocks>>,
    /// The extended columns, one `Vec` per trace column.
    pub(crate) ldes: Vec<Vec<Goldilocks>>,
    /// The LDE as the matrix the tree commits to.
    rows: Vec<Goldilocks>,
    tree: MerkleTree,
}

impl TraceTree {
    /// The trace root.
    pub(crate) fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Opens the leaf holding LDE row `position`: leaf
    /// `position mod (L/2^b)`.
    pub(crate) fn open(&self, position: usize) -> MerklePath {
        self.tree.open(&self.rows, position % self.tree.len())
    }
}

/// Everything a commitment accumulates between stages. The trace, the
/// backend and the pool are arguments of every call rather than fields,
/// so [`crate::commit_trace`] drives the stages over its caller's
/// borrows while [`StagedCommit`] owns trace and backend.
pub(crate) struct CommitState {
    config: FriConfig,
    done: [bool; STARK_STAGES],

    coeffs: Option<Vec<Vec<Goldilocks>>>,
    ldes: Option<Vec<Vec<Goldilocks>>>,
    trace: Option<TraceTree>,
    combined: Option<Vec<GoldilocksExt2>>,
    commitment: Option<TraceCommitment>,
}

impl CommitState {
    /// Validates the trace shape against `config`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is ragged, its length is not a power of two,
    /// or [`FriConfig::check_trace_shape`] rejects it.
    pub(crate) fn new(columns: &[Vec<Goldilocks>], config: FriConfig) -> Self {
        let n = columns.first().map_or(1, Vec::len);
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all trace columns must have equal length"
        );
        assert!(n.is_power_of_two(), "trace length must be a power of two");
        if let Err(e) = config.check_trace_shape(columns.len(), n.trailing_zeros()) {
            panic!("{e}");
        }
        Self {
            config,
            done: [false; STARK_STAGES],
            coeffs: None,
            ldes: None,
            trace: None,
            combined: None,
            commitment: None,
        }
    }

    /// Runs one stage against the given inputs, with the Merkle trees
    /// built on `exec` (the commitment does not depend on the pool); see
    /// [`StagedCommit::run_stage`].
    pub(crate) fn run_stage(
        &mut self,
        columns: &[Vec<Goldilocks>],
        backend: &mut LdeBackend,
        exec: &Executor,
        idx: usize,
        policy: &RecoveryPolicy,
    ) -> Result<SimTime, FabricError> {
        assert!(idx < STARK_STAGES, "stage index out of range");
        assert!(!self.done[idx], "stage {idx} already completed");
        for &dep in STARK_DAG[idx].2 {
            assert!(
                self.done[dep],
                "stage {idx} depends on unfinished stage {dep}"
            );
        }
        let before = backend.sim_time();
        self.execute(columns, backend, exec, idx, policy)?;
        self.done[idx] = true;
        Ok(backend.sim_time() - before)
    }

    /// Runs every stage not yet done, in index order; see
    /// [`StagedCommit::resume`].
    pub(crate) fn resume(
        &mut self,
        columns: &[Vec<Goldilocks>],
        backend: &mut LdeBackend,
        exec: &Executor,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        for idx in 0..STARK_STAGES {
            if !self.done[idx] {
                self.run_stage(columns, backend, exec, idx, policy)?;
            }
        }
        Ok(())
    }

    /// The finished commitment, once every stage has run.
    pub(crate) fn into_commitment(self) -> Option<TraceCommitment> {
        self.commitment
    }

    fn execute(
        &mut self,
        columns: &[Vec<Goldilocks>],
        backend: &mut LdeBackend,
        exec: &Executor,
        idx: usize,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let n = columns[0].len();
        let log_n = n.trailing_zeros();
        let log_blowup = self.config.log_blowup;
        let big_n = n << log_blowup;
        let width = columns.len();
        charge_kernels(backend, &self.config, idx, big_n, width);

        match idx {
            // Interpolation: every column's coefficients, sharded over
            // the fabric on the multi-device path, on the host otherwise
            // (the CPU and the single-device path charge nothing here).
            0 => {
                self.coeffs = Some(match backend {
                    LdeBackend::Simulated(sim) if !sim.small_path(log_n) => {
                        sim.try_interp_batch(columns, policy)?
                    }
                    _ => per_column(exec, columns, &Ntt::new(log_n), Ntt::inverse),
                });
            }
            // Zero-pad + coset evaluation (the NTT-heavy phase — with
            // interpolation the only one on the fabric).
            1 => {
                let coeffs = self.coeffs.as_ref().expect("trace-interp done");
                self.ldes = Some(match backend {
                    LdeBackend::Simulated(sim) if !sim.small_path(log_n) => {
                        sim.try_coset_batch(coeffs, log_blowup, policy)?
                    }
                    _ => {
                        if let LdeBackend::Simulated(sim) = backend {
                            sim.charge_small_lde(width, big_n);
                        }
                        let ntt = Ntt::new(log_n + log_blowup);
                        per_column(exec, coeffs, &ntt, |ntt, c| {
                            coset_ntt(ntt, c, Goldilocks::GENERATOR)
                        })
                    }
                });
            }
            // Merkle commitment of the extended matrix (a `TraceTree`).
            2 => {
                let coeffs = self.coeffs.take().expect("trace-interp done");
                let ldes = self.ldes.take().expect("trace-coset done");
                let bits = self.config.first_arity(big_n.trailing_zeros());
                let rows = row_major(&ldes, bits);
                let tree = MerkleTree::build(exec, &rows, width << bits);
                self.trace = Some(TraceTree {
                    coeffs,
                    ldes,
                    rows,
                    tree,
                });
            }
            // Random linear combination of the columns, into the
            // extension field (α has ~128 bits of entropy; see the fri
            // module docs).
            3 => {
                let trace = self.trace.as_ref().expect("trace-merkle done");
                let alpha = combination_challenge(&trace.root());
                let mut combined = vec![GoldilocksExt2::ZERO; big_n];
                let mut coeff = GoldilocksExt2::ONE;
                for lde in &trace.ldes {
                    for (acc, &v) in combined.iter_mut().zip(lde) {
                        *acc += coeff * v;
                    }
                    coeff *= alpha;
                }
                self.combined = Some(combined);
            }
            // The fused FRI fold chain: charged only (see
            // `charge_kernels`); the fold values themselves are computed
            // host-side in the finalize barrier.
            4 => {}
            // Final barrier: the FRI low-degree proof of the combination,
            // bound to the trace by opening, per query, the trace leaf
            // holding its first FRI leaf's positions.
            5 => {
                let combined = self.combined.take().expect("alpha-combine done");
                let trace = self.trace.take().expect("trace-merkle done");
                let fri_proof = fri::prove_on(
                    exec,
                    &self.config,
                    combined,
                    Goldilocks::GENERATOR,
                    &Digest::zero(),
                    |r| trace.open(r),
                );
                self.commitment = Some(TraceCommitment {
                    trace_root: trace.root(),
                    fri_proof,
                    n,
                    width,
                });
            }
            _ => unreachable!("stage index checked above"),
        }
        Ok(())
    }
}

/// Charges stage `idx`'s hash and pointwise kernels for a `width`-column
/// trace extended to `big_n` rows (the NTT stages charge as they run):
/// the trace tree, the α-combination (an ext×base product costs two base
/// multiplies), and the fused FRI fold chain — every layer tree as one
/// hash launch, every fold as one kernel.
fn charge_kernels(
    backend: &mut LdeBackend,
    config: &FriConfig,
    idx: usize,
    big_n: usize,
    width: usize,
) {
    match idx {
        2 => backend.charge_hash(fri::trace_hash_permutations(config, big_n, width)),
        3 => backend.charge_pointwise(big_n * width, 2 * (big_n * width) as u64),
        4 => backend.charge_fri(config, big_n),
        _ => {}
    }
}

/// Runs stages 0–2 (interpolation, coset LDE, trace tree) on `backend`,
/// exactly as [`crate::commit_trace`] does, and hands over the committed
/// trace: the first half of [`crate::open_trace`] and
/// [`crate::prove_stark`].
///
/// # Panics
///
/// Panics where [`crate::commit_trace`] does: a ragged trace, one whose
/// length is not a power of two, one [`FriConfig::check_trace_shape`]
/// rejects, or a fabric fault.
pub(crate) fn commit_trace_tree(
    columns: &[Vec<Goldilocks>],
    config: &FriConfig,
    backend: &mut LdeBackend,
) -> TraceTree {
    let mut state = CommitState::new(columns, *config);
    let (exec, policy) = (Executor::global(), RecoveryPolicy::none());
    for idx in 0..=2 {
        let run = state.run_stage(columns, backend, exec, idx, &policy);
        run.unwrap_or_else(|e| panic!("{e}"));
    }
    state.trace.expect("trace-merkle done")
}

/// The simulated time [`crate::commit_trace`] charges for a
/// `width`-column trace of `2^log_rows` rows on `machine`, with no trace:
/// the engines' cost-only interpolation and coset LDE (the multi-device
/// path), then every later stage's kernels, in stage order. For traces
/// too large to commit on the host.
pub fn projected_commit_time(
    log_rows: u32,
    width: usize,
    machine: MachineConfig,
    config: &FriConfig,
) -> SimTime {
    let mut backend = LdeBackend::simulated(machine);
    if let LdeBackend::Simulated(sim) = &mut backend {
        sim.simulate_lde(log_rows, width as u64, config.log_blowup);
    }
    let big_n = 1usize << (log_rows + config.log_blowup);
    for idx in 2..STARK_STAGES {
        charge_kernels(&mut backend, config, idx, big_n, width);
    }
    backend.sim_time()
}

/// A STARK trace commitment as runnable stages that owns its inputs
/// (see module docs).
///
/// Construct with [`StagedCommit::new`], run every stage in dependency
/// order via [`StagedCommit::run_stage`], or all remaining ones via
/// [`StagedCommit::resume`]; the finished [`TraceCommitment`] is
/// available from [`StagedCommit::commitment`] and is bit-identical to
/// [`crate::commit_trace`] on the same inputs.
pub struct StagedCommit {
    columns: Vec<Vec<Goldilocks>>,
    backend: LdeBackend,
    state: CommitState,
}

impl StagedCommit {
    /// Starts a staged commitment.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, ragged, or too short for the FRI
    /// configuration, exactly like [`crate::commit_trace`].
    pub fn new(columns: Vec<Vec<Goldilocks>>, config: FriConfig, backend: LdeBackend) -> Self {
        Self {
            state: CommitState::new(&columns, config),
            columns,
            backend,
        }
    }

    /// The stage chain this committer executes: interp → coset → merkle
    /// → combine → fold → finalize. The fold stage fuses every FRI round
    /// (its name records the count); see the module docs for why the
    /// rounds are not individual stages.
    pub fn stage_descs(&self) -> Vec<StageDesc> {
        let config = &self.state.config;
        let log_n = self.columns[0].len().trailing_zeros();
        let layers = config.round_arities(log_n + config.log_blowup).count();
        STARK_DAG
            .iter()
            .enumerate()
            .map(|(idx, &(name, kind, deps))| StageDesc {
                name: if idx == 4 {
                    format!("{name}-x{layers}")
                } else {
                    name.to_string()
                },
                kind,
                deps: deps.to_vec(),
            })
            .collect()
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        STARK_STAGES
    }

    /// Whether stage `idx` has completed.
    pub fn stage_done(&self, idx: usize) -> bool {
        self.state.done[idx]
    }

    /// Whether every stage has completed.
    pub fn is_complete(&self) -> bool {
        self.state.done.iter().all(|&d| d)
    }

    /// Simulated time accumulated so far (zero for the CPU backend).
    pub fn sim_total(&self) -> SimTime {
        self.backend.sim_time()
    }

    /// The finished commitment, once [`StagedCommit::is_complete`].
    pub fn commitment(&self) -> Option<&TraceCommitment> {
        self.state.commitment.as_ref()
    }

    /// Mutable backend access (to install fault plans in tests).
    pub fn backend_mut(&mut self) -> &mut LdeBackend {
        &mut self.backend
    }

    /// Runs one stage, returning the simulated time it charged.
    ///
    /// # Errors
    ///
    /// Propagates any [`FabricError`] that outlives `policy`'s retries;
    /// the stage is left not-done and can simply be re-run.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, already done, or has an
    /// unfinished dependency.
    pub fn run_stage(
        &mut self,
        idx: usize,
        policy: &RecoveryPolicy,
    ) -> Result<SimTime, FabricError> {
        self.state.run_stage(
            &self.columns,
            &mut self.backend,
            Executor::global(),
            idx,
            policy,
        )
    }

    /// Runs every stage not yet done, in index order, and returns the
    /// finished commitment. Transient fabric faults are absorbed per
    /// `policy`.
    ///
    /// # Errors
    ///
    /// Returns the [`FabricError`] that outlived the policy's retries.
    /// Every stage completed before it keeps its result — in particular
    /// a finished interpolation batch survives a fault in the coset
    /// batch — so calling `resume` again (after the operator repairs or
    /// degrades the machine) continues from the failed stage instead of
    /// restarting the commitment.
    pub fn resume(&mut self, policy: &RecoveryPolicy) -> Result<&TraceCommitment, FabricError> {
        self.state
            .resume(&self.columns, &mut self.backend, Executor::global(), policy)?;
        Ok(self.state.commitment.as_ref().expect("every stage ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{commit_trace, verify_trace};
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_gpu_sim::presets;

    fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..width)
            .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
            .collect()
    }

    fn run_all(staged: &mut StagedCommit) {
        let policy = RecoveryPolicy::none();
        for idx in 0..staged.num_stages() {
            staged.run_stage(idx, &policy).expect("fault-free run");
        }
        assert!(staged.is_complete());
    }

    #[test]
    fn staged_cpu_matches_monolithic() {
        let config = FriConfig::standard();
        let trace = random_trace(256, 4, 31);
        let mono = commit_trace(&trace, &config, &mut LdeBackend::cpu());

        let mut staged = StagedCommit::new(trace, config, LdeBackend::cpu());
        run_all(&mut staged);
        let c = staged.commitment().unwrap();
        assert_eq!(c.trace_root, mono.trace_root);
        assert_eq!(c.fri_proof, mono.fri_proof);
        assert_eq!(c.content_digest(), mono.content_digest());
        assert!(verify_trace(c, &config));
    }

    #[test]
    fn staged_simulated_matches_and_charges_every_stage() {
        let config = FriConfig::standard();
        let trace = random_trace(256, 4, 32);
        let mono = commit_trace(&trace, &config, &mut LdeBackend::cpu());

        let sim = LdeBackend::simulated(presets::a100_nvlink(4));
        let mut staged = StagedCommit::new(trace, config, sim);
        let policy = RecoveryPolicy::none();
        let mut per_stage = Vec::new();
        for idx in 0..staged.num_stages() {
            per_stage.push(staged.run_stage(idx, &policy).expect("fault-free"));
        }
        let c = staged.commitment().unwrap();
        assert_eq!(c.content_digest(), mono.content_digest());
        assert!(verify_trace(c, &config));
        // Every charged stage moved the simulated clock; the barrier
        // finalize did not.
        let last = per_stage.len() - 1;
        for (i, &charged) in per_stage.iter().enumerate() {
            if i == last {
                assert_eq!(charged, SimTime::ZERO, "finalize is charge-free");
            } else {
                assert!(
                    charged > SimTime::ZERO,
                    "stage {i} must charge simulated time"
                );
            }
        }
    }

    #[test]
    fn projection_charges_what_the_committer_charges() {
        let config = FriConfig::standard();
        for (log_n, width, gpus) in [(9, 4, 4), (10, 3, 8), (8, 2, 1)] {
            let trace = random_trace(1 << log_n, width, 35);
            let mut sim = LdeBackend::simulated(presets::a100_nvlink(gpus));
            commit_trace(&trace, &config, &mut sim);
            let projected =
                projected_commit_time(log_n, width, presets::a100_nvlink(gpus), &config);
            assert_eq!(projected, sim.sim_time(), "2^{log_n}×{width} on {gpus}");
        }
    }

    #[test]
    fn small_trace_single_device_path() {
        // log_n = 3 < 2·log_g on 4 GPUs: the no-collective path, where
        // both NTT stages run on the host and coset charges one device.
        let config = FriConfig::standard();
        let trace = random_trace(8, 2, 33);
        let mono = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        let mut staged = StagedCommit::new(
            trace,
            config,
            LdeBackend::simulated(presets::a100_nvlink(4)),
        );
        run_all(&mut staged);
        assert_eq!(
            staged.commitment().unwrap().content_digest(),
            mono.content_digest()
        );
    }

    #[test]
    fn stage_retry_replays_only_the_failed_stage() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let config = FriConfig::standard();
        let trace = random_trace(256, 4, 34);
        let mono = commit_trace(&trace, &config, &mut LdeBackend::cpu());

        // Probe: count the collectives of the interp stage, then drop the
        // first collective *after* it — the coset stage fails once.
        let mut probe = StagedCommit::new(
            trace.clone(),
            config,
            LdeBackend::simulated(presets::a100_nvlink(4)),
        );
        let policy = RecoveryPolicy::none();
        probe.run_stage(0, &policy).unwrap();
        let interp_seq = probe.backend_mut().machine_mut().unwrap().collective_seq();

        let mut staged = StagedCommit::new(
            trace,
            config,
            LdeBackend::simulated(presets::a100_nvlink(4)),
        );
        staged
            .backend_mut()
            .machine_mut()
            .unwrap()
            .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                seq: interp_seq,
                kind: FaultKind::Drop,
            }]));
        let no_retries = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        staged.run_stage(0, &no_retries).unwrap();
        let err = staged.run_stage(1, &no_retries).unwrap_err();
        assert!(err.is_transient(), "dropped collective is transient: {err}");
        assert!(!staged.stage_done(1), "failed stage stays not-done");
        for idx in 1..staged.num_stages() {
            staged.run_stage(idx, &no_retries).unwrap();
        }
        assert_eq!(
            staged.commitment().unwrap().content_digest(),
            mono.content_digest()
        );
        assert!(verify_trace(staged.commitment().unwrap(), &config));
    }
}
