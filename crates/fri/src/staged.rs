//! Stage-decomposed STARK trace commitment for the whole-proof DAG
//! scheduler.
//!
//! [`StagedCommit`] splits [`crate::commit_trace`] into an explicit
//! dependency chain of stages — trace interpolation, the batched coset
//! NTT, the row-wise Merkle commit, the α-combination, the fused FRI
//! fold chain, and a final assembly barrier — so a scheduler can
//! interleave them with stages of *other* proofs on shared hardware and
//! attribute simulated time per stage.
//!
//! The STARK commitment is a strict pipeline (each phase consumes the
//! previous one's output), so unlike the PLONK DAG there is no
//! intra-proof parallelism to expose; the value is per-stage scheduling
//! granularity and time attribution. The FRI fold rounds are
//! deliberately *one* stage, not one per round: the rounds halve
//! geometrically (total work ≈ 2·domain elements), so per-round kernel
//! launches would be fixed-cost dominated and charge far more than the
//! monolithic path's two aggregate kernels — and the chain is strictly
//! sequential, so splitting it buys a scheduler nothing. Commitment
//! bytes are bit-identical to the monolithic path by construction: the
//! two NTT batches issue the same engine calls in the same order, the
//! fused fold stage charges the same aggregate hash + fold kernels the
//! monolithic path does, and everything after them is deterministic
//! host math.
//!
//! A stage that fails with a transient [`FabricError`] (only the two NTT
//! stages touch the fabric) leaves state untouched and may be re-run:
//! the affected subgraph replays, completed stages keep their results.

use unintt_core::RecoveryPolicy;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_gpu_sim::FabricError;

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

/// The stage chain for a trace of `2^log_n` rows under `config`:
/// interp → coset → merkle → combine → fold → finalize. The fold stage
/// fuses all `log_n + log_blowup − log_final_len` FRI rounds (its name
/// records the count); see the module docs for why the rounds are not
/// individual stages.
pub fn stark_stage_descs(log_n: u32, config: &FriConfig) -> Vec<StageDesc> {
    let layers = (log_n + config.log_blowup).saturating_sub(config.log_final_len) as usize;
    let mut descs = vec![
        StageDesc {
            name: "trace-interp".to_string(),
            kind: "ntt",
            deps: vec![],
        },
        StageDesc {
            name: "trace-coset".to_string(),
            kind: "ntt",
            deps: vec![0],
        },
        StageDesc {
            name: "trace-merkle".to_string(),
            kind: "hash",
            deps: vec![1],
        },
        StageDesc {
            name: "alpha-combine".to_string(),
            kind: "pointwise",
            deps: vec![2],
        },
    ];
    descs.push(StageDesc {
        name: format!("fri-fold-x{layers}"),
        kind: "fold",
        deps: vec![descs.len() - 1],
    });
    descs.push(StageDesc {
        name: "fri-finalize".to_string(),
        kind: "barrier",
        deps: vec![descs.len() - 1],
    });
    descs
}

/// A STARK trace commitment decomposed into runnable stages.
///
/// Construct with [`StagedCommit::new`], run every stage in dependency
/// order via [`StagedCommit::run_stage`]; the finished
/// [`TraceCommitment`] is available from [`StagedCommit::commitment`]
/// and is bit-identical to [`crate::commit_trace`] on the same inputs.
pub struct StagedCommit {
    columns: Vec<Vec<Goldilocks>>,
    config: FriConfig,
    backend: LdeBackend,
    descs: Vec<StageDesc>,
    done: Vec<bool>,

    coeffs: Option<Vec<Vec<Goldilocks>>>,
    ldes: Option<Vec<Vec<Goldilocks>>>,
    /// The LDE as the row-major matrix the trace tree commits to.
    rows: Option<Vec<Goldilocks>>,
    tree: Option<MerkleTree>,
    trace_root: Option<Digest>,
    combined: Option<Vec<GoldilocksExt2>>,
    commitment: Option<TraceCommitment>,
}

impl StagedCommit {
    /// Starts a staged commitment.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty, ragged, or too short for the FRI
    /// configuration, exactly like [`crate::commit_trace`].
    pub fn new(columns: Vec<Vec<Goldilocks>>, config: FriConfig, backend: LdeBackend) -> Self {
        assert!(!columns.is_empty(), "trace must have at least one column");
        let n = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == n),
            "all trace columns must have equal length"
        );
        assert!(n.is_power_of_two(), "trace length must be a power of two");
        let log_n = n.trailing_zeros();
        assert!(
            log_n + config.log_blowup > config.log_final_len,
            "trace too short for the FRI configuration"
        );
        let descs = stark_stage_descs(log_n, &config);
        let done = vec![false; descs.len()];
        Self {
            columns,
            config,
            backend,
            descs,
            done,
            coeffs: None,
            ldes: None,
            rows: None,
            tree: None,
            trace_root: None,
            combined: None,
            commitment: None,
        }
    }

    /// The stage chain this committer executes.
    pub fn stage_descs(&self) -> Vec<StageDesc> {
        self.descs.clone()
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.descs.len()
    }

    /// Whether stage `idx` has completed.
    pub fn stage_done(&self, idx: usize) -> bool {
        self.done[idx]
    }

    /// Whether every stage has completed.
    pub fn is_complete(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// Simulated nanoseconds accumulated so far (0 for the CPU backend).
    pub fn sim_total_ns(&self) -> f64 {
        self.backend.sim_time_ns()
    }

    /// The finished commitment, once [`StagedCommit::is_complete`].
    pub fn commitment(&self) -> Option<&TraceCommitment> {
        self.commitment.as_ref()
    }

    /// Mutable backend access (to install fault plans in tests).
    pub fn backend_mut(&mut self) -> &mut LdeBackend {
        &mut self.backend
    }

    /// Runs one stage, returning the simulated nanoseconds it charged.
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
    pub fn run_stage(&mut self, idx: usize, policy: &RecoveryPolicy) -> Result<f64, FabricError> {
        assert!(idx < self.descs.len(), "stage index out of range");
        assert!(!self.done[idx], "stage {idx} already completed");
        for d in 0..self.descs[idx].deps.len() {
            let dep = self.descs[idx].deps[d];
            assert!(
                self.done[dep],
                "stage {idx} depends on unfinished stage {dep}"
            );
        }
        let before = self.sim_total_ns();
        self.execute(idx, policy)?;
        self.done[idx] = true;
        Ok(self.sim_total_ns() - before)
    }

    fn execute(&mut self, idx: usize, policy: &RecoveryPolicy) -> Result<(), FabricError> {
        let n = self.columns[0].len();
        let log_n = n.trailing_zeros();
        let log_blowup = self.config.log_blowup;
        let big_n = n << log_blowup;
        let width = self.columns.len();
        let fold_base = 4; // stages 0..4 are fixed; folds follow
        let last = self.descs.len() - 1;

        match idx {
            // Phase 1a: batched interpolation. On the CPU backend and the
            // simulated single-device path the whole LDE runs in the
            // coset stage (matching the monolithic code paths exactly),
            // so this stage is a no-op there.
            0 => {
                if let LdeBackend::Simulated(sim) = &mut self.backend {
                    if !sim.small_path(log_n) {
                        self.coeffs = Some(sim.try_interp_batch(&self.columns, policy)?);
                    }
                }
            }
            // Phase 1b: zero-pad + batched coset evaluation.
            1 => {
                let ldes = match &mut self.backend {
                    LdeBackend::Cpu => cpu_lde_batch(&self.columns, log_blowup),
                    LdeBackend::Simulated(sim) => {
                        if sim.small_path(log_n) {
                            self.columns
                                .iter()
                                .map(|c| sim.lde(c, log_blowup))
                                .collect()
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
                self.backend
                    .charge_hash(big_n as u64 * permutations_for(width));
                self.backend.charge_hash(big_n as u64 - 1); // interior nodes
                let tree = MerkleTree::commit_matrix(&rows, width);
                self.trace_root = Some(tree.root());
                self.rows = Some(rows);
                self.tree = Some(tree);
            }
            // α-combination of the columns into the extension field.
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
                self.backend.charge_pointwise(big_n * width, 2);
                self.combined = Some(combined);
            }
            // The fused FRI fold chain, charged as the same two
            // aggregate kernels the monolithic path issues — all rounds'
            // layer commitments as one hash launch, all folds as one
            // 6-mul/elem extension kernel — so staged and monolithic
            // runs charge identical simulated time. The actual fold
            // values are computed host-side in the finalize barrier.
            i if i >= fold_base && i < last => {
                self.backend
                    .charge_hash(fri::prove_hash_permutations(&self.config, big_n));
                self.backend.charge_pointwise(2 * big_n, 6);
            }
            // Final barrier: the FRI proof and the trace openings.
            i if i == last => {
                let combined = self.combined.take().expect("alpha-combine done");
                let fri_proof = fri::prove(&self.config, combined, Goldilocks::GENERATOR);
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
        for (i, ns) in per_stage.iter().enumerate() {
            if i == last {
                assert_eq!(*ns, 0.0, "finalize is charge-free");
            } else {
                assert!(*ns > 0.0, "stage {i} must charge simulated time");
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
