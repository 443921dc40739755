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
//! * [`run`] — [`DagRun`]: one proof's progress through its DAG (ready
//!   stages and their availability, start, complete with the barrier
//!   cascade, completion instant), the per-proof state of every stage
//!   scheduler.
//! * [`exec`] — [`DagExecutor`]: one deterministic event loop that
//!   interleaves ready stages from many concurrent proofs across device
//!   lanes of one or more typed queues each.
//!
//! The serving layer (`unintt_serve`) keeps a [`DagRun`] per DAG proof
//! job too and dispatches its stages under lease scheduling, with its own
//! placement rule; experiment E19 measures the occupancy and throughput
//! gains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod exec;
pub mod proof;
pub mod run;

pub use dag::{DagError, ProofDag, StageKind, StageNode};
pub use exec::{DagExecutor, ExecReport, ProofRun};
pub use proof::ProofPipeline;
pub use run::DagRun;
pub use unintt_gpu_sim::{InterferenceModel, ResourceClass, SimTime};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks};
    use unintt_fri::{commit_trace, FriConfig, LdeBackend};
    use unintt_gpu_sim::{presets, SimTime};
    use unintt_zkp::{prove, random_circuit, setup, Backend, ProvingKey, Witness};

    fn ns(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn plonk_fixture(seed: u64, gates: usize) -> (ProvingKey, Witness) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, witness) = random_circuit(gates, &mut rng);
        let (pk, _vk) = setup(&circuit, &mut rng);
        (pk, witness)
    }

    fn plonk_pipe(seed: u64, gates: usize, gpus: usize) -> ProofPipeline {
        let (pk, witness) = plonk_fixture(seed, gates);
        let backend = Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
        ProofPipeline::plonk(&pk, &witness, &[], backend)
    }

    /// The monolithic CPU prover's digest for [`plonk_pipe`]'s proof.
    fn plonk_digest(seed: u64, gates: usize) -> u64 {
        let (pk, witness) = plonk_fixture(seed, gates);
        prove(&pk, &witness, &[], &mut Backend::cpu()).content_digest()
    }

    fn stark_trace(seed: u64, log_n: u32, columns: usize) -> Vec<Vec<Goldilocks>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..columns)
            .map(|_| {
                (0..1usize << log_n)
                    .map(|_| Goldilocks::random(&mut rng))
                    .collect()
            })
            .collect()
    }

    fn stark_pipe(seed: u64, log_n: u32, columns: usize, gpus: usize) -> ProofPipeline {
        let backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
        ProofPipeline::stark(
            stark_trace(seed, log_n, columns),
            FriConfig::standard(),
            backend,
        )
    }

    /// The monolithic CPU committer's digest for [`stark_pipe`]'s trace.
    fn stark_digest(seed: u64, log_n: u32, columns: usize) -> u64 {
        let trace = stark_trace(seed, log_n, columns);
        commit_trace(&trace, &FriConfig::standard(), &mut LdeBackend::cpu()).content_digest()
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
    fn interleaved_matches_prover_digests_and_two_lanes_are_faster() {
        let mk = || {
            vec![
                plonk_pipe(21, 24, 4),
                plonk_pipe(22, 16, 4),
                stark_pipe(23, 5, 3, 4),
            ]
        };
        let expected = vec![
            plonk_digest(21, 24),
            plonk_digest(22, 16),
            stark_digest(23, 5, 3),
        ];
        let one = DagExecutor::interleaved(1).run(mk());
        let two = DagExecutor::interleaved(2).run(mk());
        assert_eq!(digests(&one), expected);
        assert_eq!(digests(&two), expected);
        // One lane with one queue: nothing overlaps and the lane never
        // idles while a stage is ready, so it is busy the whole makespan.
        assert_eq!(one.makespan_ns, one.busy_ns, "one lane: makespan != busy");
        // Same total device work either way; a second lane only repacks
        // it, and the three proofs' independent stages overlap.
        assert_eq!(one.busy_ns, two.busy_ns);
        assert!(
            two.makespan_ns < one.makespan_ns,
            "two lanes {} >= one lane {}",
            two.makespan_ns,
            one.makespan_ns
        );
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
            assert_eq!(ra.completed, rb.completed);
            assert_eq!(ra.stage_time, rb.stage_time);
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
            streamed.makespan_ns <= serial.makespan_ns,
            "streamed {} > serialized {}",
            streamed.makespan_ns,
            serial.makespan_ns
        );
        // Co-residency stretches stages, so residency time grows —
        // but never past the worst-case pairwise factor.
        let worst = InterferenceModel::default_model()
            .compute_memory
            .max(InterferenceModel::default_model().mixed_other);
        assert!(streamed.busy_ns >= serial.busy_ns);
        assert!(streamed.busy_ns <= serial.busy_ns * worst);
    }

    #[test]
    fn one_stream_per_lane_reproduces_serialized_clocks_exactly() {
        // At one queue per lane no two stages ever co-reside, so the
        // interference model is never consulted: the default and the
        // pessimistic model must give bit-equal clocks.
        let mk = || vec![plonk_pipe(61, 20, 2), stark_pipe(62, 4, 2, 2)];
        let default = DagExecutor::interleaved(2)
            .with_streams(1, InterferenceModel::default_model())
            .run(mk());
        let conservative = DagExecutor::interleaved(2)
            .with_streams(1, InterferenceModel::conservative())
            .run(mk());
        assert_ne!(
            InterferenceModel::default_model(),
            InterferenceModel::conservative()
        );
        assert_eq!(digests(&default), digests(&conservative));
        assert_eq!(default.makespan_ns, conservative.makespan_ns);
        assert_eq!(default.busy_ns, conservative.busy_ns);
        for (a, b) in default.runs.iter().zip(&conservative.runs) {
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.stage_time, b.stage_time);
        }
    }

    #[test]
    fn streamed_stage_attribution_covers_all_busy_time() {
        let report = DagExecutor::interleaved(2)
            .with_streams(3, InterferenceModel::default_model())
            .run(vec![plonk_pipe(71, 24, 4), stark_pipe(72, 5, 3, 4)]);
        let attributed: SimTime = report
            .runs
            .iter()
            .flat_map(|r| r.stage_time.values())
            .copied()
            .sum();
        assert_eq!(attributed.as_ns(), report.busy_ns);
    }

    #[test]
    fn stage_attribution_covers_all_busy_time() {
        let report = DagExecutor::interleaved(2).run(vec![plonk_pipe(41, 24, 4)]);
        let attributed: SimTime = report.runs[0].stage_time.values().copied().sum();
        assert_eq!(attributed.as_ns(), report.busy_ns);
        // Barriers never appear in the attribution map.
        assert!(!report.runs[0].stage_time.contains_key(&StageKind::Barrier));
        assert!(report.runs[0].stage_time.contains_key(&StageKind::Ntt));
        assert!(report.runs[0].stage_time.contains_key(&StageKind::Msm));
    }

    #[test]
    fn dag_run_roots_are_available_at_the_release_instant() {
        let run = DagRun::new(plonk_pipe(81, 16, 2), ns(5.0));
        let roots: Vec<(usize, SimTime)> = run.ready().collect();
        assert_eq!(roots, vec![(0, ns(5.0))]);
        assert_eq!(run.done(), None);
    }

    #[test]
    fn dag_run_barriers_complete_at_their_latest_dependency() {
        let policy = unintt_core::RecoveryPolicy::none();
        let mut run = DagRun::new(plonk_pipe(82, 16, 2), ns(0.0));
        run.start(0, &policy).unwrap();
        run.complete(0, ns(10.0));
        // The three wire commits are ready together; the round-1 barrier
        // behind them never is — it is not a lane's work.
        let commits: Vec<(usize, SimTime)> = run.ready().collect();
        assert_eq!(commits, vec![(1, ns(10.0)), (2, ns(10.0)), (3, ns(10.0))]);
        for (s, _) in commits {
            run.start(s, &policy).unwrap();
        }
        run.complete(1, ns(30.0));
        run.complete(3, ns(20.0));
        assert_eq!(run.ready().count(), 0, "barrier waits for commit b");
        run.complete(2, ns(25.0));
        // Stage 5 depends only on the barrier, so its availability is
        // the barrier's completion: the latest of 30, 25 and 20.
        assert_eq!(run.ready().collect::<Vec<_>>(), vec![(5, ns(30.0))]);
    }

    #[test]
    fn dag_run_done_is_the_latest_completion() {
        let policy = unintt_core::RecoveryPolicy::none();
        let mut run = DagRun::new(plonk_pipe(83, 16, 2), ns(0.0));
        let mut latest = ns(0.0);
        // Serial driver: each stage runs 3 ns per index past its
        // availability, so the two opening commits finish out of order.
        loop {
            let Some((s, avail)) = run.ready().next() else {
                break;
            };
            assert_eq!(run.done(), None);
            run.start(s, &policy).unwrap();
            let t = avail + ns(3.0 * (unintt_zkp::PLONK_STAGES - s) as f64);
            run.complete(s, t);
            latest = latest.max(t);
        }
        assert!(run.pipe().output_digest().is_some());
        assert_eq!(run.done(), Some(latest));
    }
}
