//! The STARK trace commitment, as six dependency-ordered stages.
//!
//! This module is the only implementation of the commitment's phases —
//! trace interpolation, the batched coset NTT, the row-wise Merkle
//! commit, the α-combination, the fused FRI fold chain, and a final
//! assembly barrier. Every way of producing a commitment is a *schedule*
//! over these stages:
//!
//! * [`crate::commit_trace`] runs them in index order on the caller's
//!   backend, borrowing the trace (the monolithic entry point);
//! * [`StagedCommit`] owns its inputs so a DAG scheduler can interleave
//!   the stages with stages of *other* proofs on shared hardware and
//!   attribute simulated time per stage;
//! * [`StagedCommit::resume`] runs whatever is not done yet, in index
//!   order, under a [`RecoveryPolicy`] — fault-tolerant committing.
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
//! launch, all folds as one extension kernel); the fold *values* are
//! deterministic host math in the finalize barrier.
//!
//! A stage that fails with a transient [`FabricError`] (only the two NTT
//! stages touch the fabric) leaves state untouched and may be re-run:
//! the affected subgraph replays, completed stages keep their results.
//! The committer object *is* the checkpoint.

use unintt_core::RecoveryPolicy;
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_gpu_sim::{FabricError, SimTime};

use crate::fri::{self, FriConfig};
use crate::hash::{permutations_for, Digest};
use crate::merkle::{row_major, MerkleTree};
use crate::pipeline::{combination_challenge, cpu_lde_batch, LdeBackend, TraceCommitment};

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

/// The stage chain for a trace of `2^log_n` rows under `config`:
/// interp → coset → merkle → combine → fold → finalize. The fold stage
/// fuses all `log_n + log_blowup − log_final_len` FRI rounds (its name
/// records the count); see the module docs for why the rounds are not
/// individual stages.
pub fn stark_stage_descs(log_n: u32, config: &FriConfig) -> Vec<StageDesc> {
    let layers = (log_n + config.log_blowup).saturating_sub(config.log_final_len);
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

/// Everything a commitment accumulates between stages. The trace, the
/// backend and the pool are arguments of every call rather than fields,
/// so [`crate::commit_trace`] drives the stages over its caller's
/// borrows while [`StagedCommit`] owns trace and backend.
pub(crate) struct CommitState {
    config: FriConfig,
    done: [bool; STARK_STAGES],

    coeffs: Option<Vec<Vec<Goldilocks>>>,
    ldes: Option<Vec<Vec<Goldilocks>>>,
    /// The LDE as the row-major matrix the trace tree commits to.
    rows: Option<Vec<Goldilocks>>,
    tree: Option<MerkleTree>,
    trace_root: Option<Digest>,
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
            rows: None,
            tree: None,
            trace_root: None,
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

        match idx {
            // Phase 1a: batched interpolation. On the CPU backend and the
            // simulated single-device path the whole LDE runs in the
            // coset stage, so this stage is a no-op there.
            0 => {
                if let LdeBackend::Simulated(sim) = backend {
                    if !sim.small_path(log_n) {
                        self.coeffs = Some(sim.try_interp_batch(columns, policy)?);
                    }
                }
            }
            // Phase 1b: zero-pad + batched coset evaluation (the
            // NTT-heavy phase — with 1a the only one on the fabric).
            1 => {
                let ldes = match backend {
                    LdeBackend::Cpu => cpu_lde_batch(columns, log_blowup),
                    LdeBackend::Simulated(sim) => {
                        if sim.small_path(log_n) {
                            columns.iter().map(|c| sim.lde(c, log_blowup)).collect()
                        } else {
                            let coeffs = self.coeffs.as_ref().expect("trace-interp done");
                            sim.try_coset_batch(coeffs, log_blowup, policy)?
                        }
                    }
                };
                self.coeffs = None; // superseded by the completed LDEs
                self.ldes = Some(ldes);
            }
            // Row-wise Merkle commitment of the extended matrix.
            2 => {
                let ldes = self.ldes.as_ref().expect("trace-coset done");
                let rows = row_major(ldes);
                backend.charge_hash(big_n as u64 * permutations_for(width));
                backend.charge_hash(big_n as u64 - 1); // interior nodes
                let tree = MerkleTree::build(exec, &rows, width);
                self.trace_root = Some(tree.root());
                self.rows = Some(rows);
                self.tree = Some(tree);
            }
            // Random linear combination of the columns, into the
            // extension field (α has ~128 bits of entropy; see the fri
            // module docs).
            3 => {
                let ldes = self.ldes.as_ref().expect("trace-coset done");
                let alpha = combination_challenge(&self.trace_root.expect("trace-merkle done"));
                let mut combined = vec![GoldilocksExt2::ZERO; big_n];
                let mut coeff = GoldilocksExt2::ONE;
                for lde in ldes {
                    for (acc, &v) in combined.iter_mut().zip(lde) {
                        *acc += coeff * v;
                    }
                    coeff *= alpha;
                }
                // An ext×base product costs two base multiplies.
                backend.charge_pointwise(big_n * width, 2);
                self.combined = Some(combined);
            }
            // The fused FRI fold chain: all rounds' layer commitments as
            // one hash launch, all (extension) folds as one 6-mul/elem
            // kernel. The fold values themselves are computed host-side
            // in the finalize barrier.
            4 => {
                backend.charge_hash(fri::prove_hash_permutations(&self.config, big_n));
                backend.charge_pointwise(2 * big_n, 6);
            }
            // Final barrier: the FRI low-degree proof of the combination,
            // bound to the trace by opening the trace matrix at every FRI
            // query's outer positions.
            5 => {
                let combined = self.combined.take().expect("alpha-combine done");
                let fri_proof = fri::prove_on(
                    exec,
                    &self.config,
                    combined,
                    Goldilocks::GENERATOR,
                    &Digest::zero(),
                );
                let rows = self.rows.take().expect("trace-merkle done");
                let tree = self.tree.take().expect("trace-merkle done");
                let trace_openings = fri_proof
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
                self.ldes = None;
                self.commitment = Some(TraceCommitment {
                    trace_root: self.trace_root.expect("trace-merkle done"),
                    fri_proof,
                    trace_openings,
                    n,
                    width,
                });
            }
            _ => unreachable!("stage index checked above"),
        }
        Ok(())
    }
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

    /// The stage chain this committer executes.
    pub fn stage_descs(&self) -> Vec<StageDesc> {
        stark_stage_descs(self.columns[0].len().trailing_zeros(), &self.state.config)
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
    fn small_trace_single_device_path() {
        // log_n = 3 < 2·log_g on 4 GPUs: the no-collective path, where
        // interp is a no-op and coset does the whole per-column LDE.
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
