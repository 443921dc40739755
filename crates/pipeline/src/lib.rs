//! Whole-proof pipelining: typed stage DAGs over the staged provers.
//!
//! The provers are implemented once, as dependency-ordered stages
//! (`unintt_zkp::StagedProver`, `unintt_fri::StagedCommit`); the
//! monolithic entry points (`unintt_zkp::prove`,
//! `unintt_fri::commit_trace`) drive those stages in index order and a
//! caller charges the whole proof to one device lease. This crate types
//! the stage graphs and schedules *stages* instead:
//!
//! * [`dag`] — [`ProofDag`]: validated stage graphs (acyclic, with
//!   transcript barriers totally ordered so every schedule produces a
//!   bit-identical transcript).
//! * [`proof`] — [`ProofPipeline`]: one enum over the staged PLONK
//!   prover and the staged STARK committer, with a uniform
//!   run-one-stage interface and a stable output digest.
//! * [`exec`] — [`DagExecutor`]: a deterministic executor that
//!   interleaves ready stages from many concurrent proofs across
//!   device lanes, against a monolithic baseline mode.
//!
//! The serving layer (`unintt_serve`) builds on the same pieces to
//! dispatch DAG proof jobs stage-by-stage under lease scheduling;
//! experiment E19 measures the occupancy and throughput gains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod exec;
pub mod proof;

pub use dag::{DagError, ProofDag, StageKind, StageNode};
pub use exec::{DagExecutor, ExecMode, ExecReport, ProofRun};
pub use proof::ProofPipeline;
pub use unintt_gpu_sim::{InterferenceModel, ResourceClass};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks};
    use unintt_fri::{FriConfig, LdeBackend};
    use unintt_gpu_sim::presets;
    use unintt_zkp::{random_circuit, setup, Backend};

    fn plonk_pipe(seed: u64, gates: usize, gpus: usize) -> ProofPipeline {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, witness) = random_circuit(gates, &mut rng);
        let (pk, _vk) = setup(&circuit, &mut rng);
        let backend = Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
        ProofPipeline::plonk(&pk, &witness, &[], backend)
    }

    fn stark_pipe(seed: u64, log_n: u32, columns: usize, gpus: usize) -> ProofPipeline {
        let mut rng = StdRng::seed_from_u64(seed);
        let cols: Vec<Vec<Goldilocks>> = (0..columns)
            .map(|_| {
                (0..1usize << log_n)
                    .map(|_| Goldilocks::random(&mut rng))
                    .collect()
            })
            .collect();
        let backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
        ProofPipeline::stark(cols, FriConfig::standard(), backend)
    }

    fn digests(report: &ExecReport) -> Vec<u64> {
        report.runs.iter().map(|r| r.digest).collect()
    }

    #[test]
    fn both_generators_emit_valid_dags() {
        let plonk = plonk_pipe(11, 24, 4).dag();
        assert_eq!(plonk.len(), unintt_zkp::PLONK_STAGES);
        let stark = stark_pipe(12, 5, 3, 4).dag();
        assert!(stark.len() > 4);
        // Validation already ran inside dag(); also exercise topo_order.
        assert_eq!(plonk.topo_order().len(), plonk.len());
        assert_eq!(stark.topo_order().len(), stark.len());
    }

    #[test]
    fn interleaved_matches_monolithic_digests_and_is_faster() {
        let mk = || {
            vec![
                plonk_pipe(21, 24, 4),
                plonk_pipe(22, 16, 4),
                stark_pipe(23, 5, 3, 4),
            ]
        };
        let mono = DagExecutor::monolithic(2).run(mk());
        let inter = DagExecutor::interleaved(2).run(mk());
        assert_eq!(digests(&mono), digests(&inter));
        // Same total device work either way; interleaving only
        // repacks it onto lanes.
        assert!((mono.busy_ns - inter.busy_ns).abs() < 1e-6);
        assert!(
            inter.makespan_ns <= mono.makespan_ns + 1e-6,
            "interleaved {} > monolithic {}",
            inter.makespan_ns,
            mono.makespan_ns
        );
        assert!(inter.occupancy() >= mono.occupancy() - 1e-9);
    }

    #[test]
    fn executor_is_deterministic() {
        let mk = || vec![plonk_pipe(31, 20, 2), stark_pipe(32, 4, 2, 2)];
        let a = DagExecutor::interleaved(3).run(mk());
        let b = DagExecutor::interleaved(3).run(mk());
        assert_eq!(digests(&a), digests(&b));
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.busy_ns, b.busy_ns);
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.completed_ns, rb.completed_ns);
            assert_eq!(ra.stage_ns, rb.stage_ns);
        }
    }

    #[test]
    fn streamed_matches_serialized_digests_and_is_no_slower() {
        let mk = || {
            vec![
                plonk_pipe(51, 24, 4),
                plonk_pipe(52, 16, 4),
                stark_pipe(53, 5, 3, 4),
            ]
        };
        let serial = DagExecutor::interleaved(2).run(mk());
        let streamed = DagExecutor::interleaved(2)
            .with_streams(2, InterferenceModel::default_model())
            .run(mk());
        assert_eq!(digests(&serial), digests(&streamed));
        assert_eq!(streamed.streams_per_lane, 2);
        assert!(
            streamed.makespan_ns <= serial.makespan_ns + 1e-6,
            "streamed {} > serialized {}",
            streamed.makespan_ns,
            serial.makespan_ns
        );
        // Co-residency stretches stages, so residency time grows —
        // but never past the worst-case pairwise factor.
        let worst = InterferenceModel::default_model()
            .compute_memory
            .max(InterferenceModel::default_model().mixed_other);
        assert!(streamed.busy_ns >= serial.busy_ns - 1e-6);
        assert!(streamed.busy_ns <= serial.busy_ns * worst + 1e-6);
    }

    #[test]
    fn one_stream_per_lane_reproduces_serialized_clocks_exactly() {
        let mk = || vec![plonk_pipe(61, 20, 2), stark_pipe(62, 4, 2, 2)];
        let serial = DagExecutor::interleaved(2).run(mk());
        let one = DagExecutor::interleaved(2)
            .with_streams(1, InterferenceModel::conservative())
            .run(mk());
        assert_eq!(digests(&serial), digests(&one));
        assert_eq!(serial.makespan_ns, one.makespan_ns);
        assert_eq!(serial.busy_ns, one.busy_ns);
        for (a, b) in serial.runs.iter().zip(&one.runs) {
            assert_eq!(a.completed_ns, b.completed_ns);
            assert_eq!(a.stage_ns, b.stage_ns);
        }
    }

    #[test]
    fn streamed_stage_attribution_covers_all_busy_time() {
        let report = DagExecutor::interleaved(2)
            .with_streams(3, InterferenceModel::default_model())
            .run(vec![plonk_pipe(71, 24, 4), stark_pipe(72, 5, 3, 4)]);
        let attributed: f64 = report.runs.iter().flat_map(|r| r.stage_ns.values()).sum();
        assert!((attributed - report.busy_ns).abs() < 1e-6);
    }

    #[test]
    fn stage_attribution_covers_all_busy_time() {
        let report = DagExecutor::interleaved(2).run(vec![plonk_pipe(41, 24, 4)]);
        let attributed: f64 = report.runs[0].stage_ns.values().sum();
        assert!((attributed - report.busy_ns).abs() < 1e-6);
        // Barriers never appear in the attribution map.
        assert!(!report.runs[0].stage_ns.contains_key(&StageKind::Barrier));
        assert!(report.runs[0].stage_ns.contains_key(&StageKind::Ntt));
        assert!(report.runs[0].stage_ns.contains_key(&StageKind::Msm));
    }
}
