//! The DAG scheduler's core promise, fuzzed: stage-scheduled proofs are
//! bit-identical to the monolithic provers across seeds, circuit sizes,
//! lane and queue counts, interference models, and injected stage
//! faults.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_core::RecoveryPolicy;
use unintt_ff::{Field, Goldilocks};
use unintt_fri::{commit_trace, FriConfig, LdeBackend};
use unintt_gpu_sim::{presets, FaultEvent, FaultKind, FaultPlan};
use unintt_pipeline::{DagExecutor, InterferenceModel, ProofPipeline};
use unintt_zkp::{prove, random_circuit, setup, Backend};

fn plonk_fixture(seed: u64, gates: usize) -> (unintt_zkp::ProvingKey, unintt_zkp::Witness, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (circuit, witness) = random_circuit(gates, &mut rng);
    let (pk, _vk) = setup(&circuit, &mut rng);
    let mono = prove(&pk, &witness, &[], &mut Backend::cpu());
    (pk, witness, mono.content_digest())
}

fn plonk_pipe(pk: &unintt_zkp::ProvingKey, witness: &unintt_zkp::Witness) -> ProofPipeline {
    let backend = Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
    ProofPipeline::plonk(pk, witness, &[], backend)
}

fn stark_pipe(trace: &[Vec<Goldilocks>], config: &FriConfig) -> ProofPipeline {
    ProofPipeline::stark(
        trace.to_vec(),
        *config,
        LdeBackend::simulated(presets::a100_nvlink(4)),
    )
}

fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width)
        .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
        .collect()
}

/// Runs every stage of `pipe` fault-free and returns how many collectives
/// its primary machine issued (0 on collective-free paths).
fn collective_budget(mut pipe: ProofPipeline) -> u64 {
    let policy = RecoveryPolicy::none();
    for idx in pipe.dag().topo_order() {
        pipe.run_stage(idx, &policy).expect("fault-free probe");
    }
    pipe.machine_mut().map_or(0, |m| m.collective_seq())
}

/// Installs a scripted drop at collective `seq`, runs the pipeline under
/// the interleaving executor (which replays only the faulted stage), and
/// returns (digest, retries).
fn run_with_drop(mut pipe: ProofPipeline, seq: u64) -> (u64, u32) {
    pipe.machine_mut()
        .expect("simulated backend")
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq,
            kind: FaultKind::Drop,
        }]));
    let report = DagExecutor::interleaved(2).run(vec![pipe]);
    (report.runs[0].digest, report.runs[0].retries)
}

/// Same as [`run_with_drop`], but under the streamed executor with `k`
/// queues per lane.
fn run_with_drop_streamed(mut pipe: ProofPipeline, seq: u64, k: usize) -> (u64, u32) {
    pipe.machine_mut()
        .expect("simulated backend")
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq,
            kind: FaultKind::Drop,
        }]));
    let report = DagExecutor::interleaved(2)
        .with_streams(k, InterferenceModel::default_model())
        .run(vec![pipe]);
    (report.runs[0].digest, report.runs[0].retries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// DAG-scheduled PLONK proofs equal the CPU monolithic prover
    /// byte-for-byte across seeds and sizes.
    #[test]
    fn plonk_dag_bit_identical(seed in any::<u64>(), gates in 8usize..64) {
        let (pk, witness, mono_digest) = plonk_fixture(seed, gates);
        let report = DagExecutor::interleaved(2).run(vec![plonk_pipe(&pk, &witness)]);
        prop_assert_eq!(report.runs[0].digest, mono_digest);
        prop_assert_eq!(report.runs[0].retries, 0);
    }

    /// A scripted collective drop at an arbitrary point fails exactly one
    /// stage; the executor replays just that stage and the proof still
    /// matches the monolithic bytes.
    #[test]
    fn plonk_dag_survives_injected_stage_faults(
        seed in any::<u64>(),
        gates in 8usize..64,
        fault_frac in 0.0f64..1.0,
    ) {
        let (pk, witness, mono_digest) = plonk_fixture(seed, gates);
        let total = collective_budget(plonk_pipe(&pk, &witness));
        prop_assume!(total > 0);
        let seq = ((total as f64 * fault_frac) as u64).min(total - 1);
        let (digest, retries) = run_with_drop(plonk_pipe(&pk, &witness), seq);
        prop_assert_eq!(digest, mono_digest);
        prop_assert!(retries >= 1, "the drop must have faulted a stage");
    }

    /// DAG-scheduled STARK commits equal the CPU monolithic committer
    /// across trace shapes, including the small single-device path.
    #[test]
    fn stark_dag_bit_identical(seed in any::<u64>(), log_n in 3u32..8, width in 1usize..5) {
        let trace = random_trace(1usize << log_n, width, seed);
        let config = FriConfig::standard();
        let mono = commit_trace(&trace, &config, &mut LdeBackend::cpu()).content_digest();
        let report = DagExecutor::interleaved(2).run(vec![stark_pipe(&trace, &config)]);
        prop_assert_eq!(report.runs[0].digest, mono);
    }

    /// Same fault-replay property for STARK commits (sizes above the
    /// single-device cutoff, so collectives exist to drop).
    #[test]
    fn stark_dag_survives_injected_stage_faults(
        seed in any::<u64>(),
        log_n in 4u32..8,
        width in 1usize..5,
        fault_frac in 0.0f64..1.0,
    ) {
        let trace = random_trace(1usize << log_n, width, seed);
        let config = FriConfig::standard();
        let mono = commit_trace(&trace, &config, &mut LdeBackend::cpu()).content_digest();
        let total = collective_budget(stark_pipe(&trace, &config));
        prop_assume!(total > 0);
        let seq = ((total as f64 * fault_frac) as u64).min(total - 1);
        let (digest, retries) = run_with_drop(stark_pipe(&trace, &config), seq);
        prop_assert_eq!(digest, mono);
        prop_assert!(retries >= 1, "the drop must have faulted a stage");
    }

    /// Stream-overlapped execution is bit-identical to the monolithic
    /// provers at every queue count 1..=4, for both proof shapes. The
    /// interference model only stretches clocks; it never touches data.
    #[test]
    fn stream_overlap_bit_identical_across_queue_counts(
        seed in any::<u64>(),
        gates in 8usize..48,
        log_n in 3u32..7,
        width in 1usize..4,
    ) {
        let (pk, witness, plonk_digest) = plonk_fixture(seed, gates);
        let trace = random_trace(1usize << log_n, width, seed ^ 0x57_12ea);
        let config = FriConfig::standard();
        let stark_digest = commit_trace(&trace, &config, &mut LdeBackend::cpu()).content_digest();
        for k in 1usize..=4 {
            for model in [InterferenceModel::default_model(), InterferenceModel::conservative()] {
                let report = DagExecutor::interleaved(2)
                    .with_streams(k, model)
                    .run(vec![plonk_pipe(&pk, &witness), stark_pipe(&trace, &config)]);
                prop_assert_eq!(report.runs[0].digest, plonk_digest, "plonk, k={}", k);
                prop_assert_eq!(report.runs[1].digest, stark_digest, "stark, k={}", k);
            }
        }
    }

    /// Fault replay composes with stream overlap: a scripted collective
    /// drop under 2..=4 queues per lane still converges to the
    /// monolithic bytes after replaying only the faulted stage.
    #[test]
    fn stream_overlap_survives_injected_stage_faults(
        seed in any::<u64>(),
        gates in 8usize..48,
        fault_frac in 0.0f64..1.0,
        k in 2usize..=4,
    ) {
        let (pk, witness, mono_digest) = plonk_fixture(seed, gates);
        let total = collective_budget(plonk_pipe(&pk, &witness));
        prop_assume!(total > 0);
        let seq = ((total as f64 * fault_frac) as u64).min(total - 1);
        let (digest, retries) = run_with_drop_streamed(plonk_pipe(&pk, &witness), seq, k);
        prop_assert_eq!(digest, mono_digest);
        prop_assert!(retries >= 1, "the drop must have faulted a stage");
    }
}
