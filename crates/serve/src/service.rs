//! The proving service: the one-cluster case of [`FleetService`]. A
//! [`ServiceConfig`] converts into a [`FleetConfig`] of one cluster with
//! no hedging and no chaos, and the fleet's one event loop, admission
//! model and report serve it — on the simulated clock, so two runs over
//! the same submissions and configuration are bit-identical, fault
//! injection included. Execution is functional: with `verify_outputs` on,
//! every raw-NTT result is checked against a CPU reference and every
//! proof or commitment verified (see `crate::dispatch`).

use crate::config::ServiceConfig;
use crate::fleet::{ChaosPlan, FleetConfig, FleetReport, FleetService};

/// The multi-tenant proving service front door: a one-cluster
/// [`FleetService`] (`ProofService::new(ServiceConfig { .. })`).
pub type ProofService = FleetService;

/// Everything one service run produced: the fleet's report.
pub type ServiceReport = FleetReport;

impl From<ServiceConfig> for FleetConfig {
    /// One cluster of `base`, no hedging and no chaos; every other
    /// setting (the admission tiers among them) is the fleet default.
    fn from(base: ServiceConfig) -> Self {
        Self {
            clusters: 1,
            base,
            hedge: None,
            chaos: ChaosPlan::none(),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::mpsc;

    use unintt_gpu_sim::SimTime;
    use unintt_ntt::Direction;

    use super::*;
    use crate::coalesce::{QueuedJob, ReadyBatch};
    use crate::config::SchedulerPolicy;
    use crate::dispatch::{self, EngineCaches, ReadyQueue};
    use crate::fleet::FleetRunner;
    use crate::job::{
        AdmissionError, DagKind, JobClass, JobId, JobSpec, JobStatus, Priority, ServiceField,
    };
    use crate::lease::LeasePool;
    use crate::scheduler::ReadyOp;
    use crate::workload::WorkloadSpec;

    fn raw_spec(log_n: u32, direction: Direction, arrival_ns: f64) -> JobSpec {
        JobSpec::new(
            0,
            JobClass::RawNtt {
                field: ServiceField::Goldilocks,
                log_n,
                direction,
            },
            arrival_ns,
        )
    }

    fn run_stream(cfg: impl Into<FleetConfig>, stream: &[JobSpec]) -> ServiceReport {
        let mut service = ProofService::new(cfg);
        service.submit_all(stream.iter().copied());
        service.run()
    }

    #[test]
    fn overlapped_comm_is_reachable_from_dispatch_and_faster() {
        use unintt_core::{ClusterNttEngine, CommMode, UniNttOptions};
        use unintt_gpu_sim::{presets, FieldSpec};

        use crate::coalesce::BatchKey;
        use crate::dispatch::{payload, run_raw_batch};

        // The dispatcher builds its engines from `UniNttOptions::tuned_for`,
        // whose exchange schedule is the overlapped default: a served raw
        // batch leaves wire time hidden behind compute on the lease's
        // cluster, across nodes and inside every node, and the same jobs
        // under the blocking schedule take longer on that cluster.
        let cfg = ServiceConfig::default();
        let (field, log_n) = (ServiceField::Goldilocks, 14);
        let jobs: Vec<QueuedJob> = (0..6)
            .map(|i| QueuedJob {
                id: JobId(i),
                spec: raw_spec(log_n, Direction::Forward, 0.0),
            })
            .collect();
        let key = BatchKey {
            field,
            log_n,
            forward: true,
        };
        let mut pool = LeasePool::new(1, cfg.lease);
        let mut caches = EngineCaches::default();
        let (served, network_hidden, node_hidden) =
            pool.lease_mut(0).with_cluster(field, |cluster| {
                let served =
                    run_raw_batch(&mut caches, &cfg, key, &jobs, cluster, 0, SimTime::ZERO);
                assert_eq!(served.completions.len(), jobs.len());
                let node_hidden: Vec<SimTime> = (0..cluster.num_nodes())
                    .map(|node| cluster.node(node).ledger().comm_hidden_ns)
                    .collect();
                (cluster.total_time(), cluster.network_hidden(), node_hidden)
            });
        assert!(
            network_hidden > SimTime::ZERO,
            "no cross-node wire time hidden"
        );
        assert!(
            node_hidden.iter().all(|&t| t > SimTime::ZERO),
            "no intra-node wire time hidden: {node_hidden:?}"
        );

        let fs = FieldSpec::goldilocks();
        let mut blocking = UniNttOptions::tuned_for(&fs);
        blocking.comm_mode = CommMode::Blocking;
        let node_cfg = presets::a100_nvlink(cfg.lease.gpus_per_node);
        let engine = ClusterNttEngine::<unintt_ff::Goldilocks>::new(
            log_n,
            cfg.lease.nodes,
            &node_cfg,
            blocking,
            fs,
        );
        let blocking_time = pool.lease_mut(0).with_cluster(field, |cluster| {
            for job in &jobs {
                engine
                    .forward_with_recovery(cluster, &payload(job.id, log_n), &cfg.recovery)
                    .expect("fault-free");
            }
            cluster.total_time()
        });
        assert!(
            served < blocking_time,
            "overlap must shorten the batch: {served:?} vs {blocking_time:?}"
        );
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let stream = WorkloadSpec::raw_only(42, 24, 50_000.0).generate();
        let cfg = ServiceConfig::default();
        let a = run_stream(cfg.clone(), &stream);
        let b = run_stream(cfg, &stream);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn coalescing_amortizes_dispatch_overhead() {
        // A burst of identical-shape jobs at high offered load: with a
        // window they share dispatches (and the fixed overhead); with
        // window 0 every job pays it alone.
        let stream: Vec<JobSpec> = (0..24)
            .map(|i| raw_spec(8, Direction::Forward, i as f64 * 1_000.0))
            .collect();
        let coalesced = run_stream(
            ServiceConfig {
                batch_window_ns: 50_000.0,
                ..ServiceConfig::default()
            },
            &stream,
        );
        let singleton = run_stream(
            ServiceConfig {
                batch_window_ns: 0.0,
                ..ServiceConfig::default()
            },
            &stream,
        );
        assert!(coalesced.all_completed() && singleton.all_completed());
        assert!(
            coalesced.metrics.mean_batch_size() > 1.5,
            "window should actually group jobs: mean {}",
            coalesced.metrics.mean_batch_size()
        );
        assert!((singleton.metrics.mean_batch_size() - 1.0).abs() < 1e-9);
        assert!(
            coalesced.metrics.horizon_ns < singleton.metrics.horizon_ns,
            "coalescing should shorten the makespan: {} vs {}",
            coalesced.metrics.horizon_ns,
            singleton.metrics.horizon_ns
        );
    }

    #[test]
    fn admission_control_sheds_when_full() {
        // One slow lease and a tiny queue: a dense burst must overflow.
        let stream: Vec<JobSpec> = (0..16)
            .map(|i| raw_spec(10, Direction::Forward, i as f64))
            .collect();
        let report = run_stream(
            FleetConfig {
                soft_capacity: 4,
                hard_capacity: 4,
                ..ServiceConfig {
                    batch_window_ns: 0.0,
                    max_batch: 1,
                    num_leases: 1,
                    ..ServiceConfig::default()
                }
                .into()
            },
            &stream,
        );
        let rejected = report.metrics.rejected();
        assert!(rejected > 0, "the burst must overflow a 4-deep queue");
        assert!(report
            .outcomes
            .iter()
            .filter(|o| !o.completed())
            .all(|o| matches!(
                o.status,
                JobStatus::Rejected(AdmissionError::QueueFull { capacity: 4, .. })
            )));
        // Completed jobs still verified bit-for-bit (verify_outputs on).
        assert_eq!(report.metrics.completed() + rejected, stream.len());
    }

    #[test]
    fn priority_policy_reorders_ready_batches() {
        // Lease occupied by job 0; jobs 1 (Low) and 2 (High) are both
        // ready before it frees. FIFO runs 1 first, Priority runs 2.
        let mut stream = vec![
            raw_spec(10, Direction::Forward, 0.0),
            raw_spec(8, Direction::Forward, 10.0),
            raw_spec(8, Direction::Inverse, 20.0),
        ];
        stream[1].priority = Priority::Low;
        stream[2].priority = Priority::High;
        let base = ServiceConfig {
            batch_window_ns: 0.0,
            num_leases: 1,
            ..ServiceConfig::default()
        };

        let fifo = run_stream(base.clone(), &stream);
        assert!(fifo.outcomes[1].completed_ns < fifo.outcomes[2].completed_ns);

        let prio = run_stream(
            ServiceConfig {
                policy: SchedulerPolicy::Priority,
                ..base
            },
            &stream,
        );
        assert!(
            prio.outcomes[2].completed_ns < prio.outcomes[1].completed_ns,
            "high priority should overtake: {} vs {}",
            prio.outcomes[2].completed_ns,
            prio.outcomes[1].completed_ns
        );
    }

    #[test]
    fn shortest_job_first_runs_cheap_batches_first() {
        // Lease busy with job 0; a big job (1) then a small job (2)
        // become ready. SJF runs the small one first despite FIFO order.
        let stream = vec![
            raw_spec(10, Direction::Forward, 0.0),
            raw_spec(12, Direction::Forward, 10.0),
            raw_spec(8, Direction::Forward, 20.0),
        ];
        let report = run_stream(
            ServiceConfig {
                policy: SchedulerPolicy::ShortestJobFirst,
                batch_window_ns: 0.0,
                num_leases: 1,
                ..ServiceConfig::default()
            },
            &stream,
        );
        assert!(
            report.outcomes[2].completed_ns < report.outcomes[1].completed_ns,
            "SJF should run the 2^8 job before the 2^12 job"
        );
    }

    #[test]
    fn non_finite_arrivals_are_rejected_not_panicked_on() {
        let mut stream: Vec<JobSpec> = (0..6)
            .map(|i| raw_spec(8, Direction::Forward, i as f64 * 1_000.0))
            .collect();
        stream.push(JobSpec::new(
            1,
            JobClass::PlonkProve { log_gates: 5 }.pipelined(),
            0.0,
        ));
        stream.extend([raw_spec(8, Direction::Forward, 0.0); 2]);
        let invalid = [
            (1, f64::NAN),
            (3, f64::INFINITY),
            (4, f64::NEG_INFINITY),
            (6, f64::NAN),
            (7, -1.0),
            (8, 1e30),
        ];
        for (i, t) in invalid {
            stream[i].arrival_ns = t;
        }
        let report = run_stream(ServiceConfig::default(), &stream);
        let ids: Vec<JobId> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(
            ids,
            (0..9).map(JobId).collect::<Vec<_>>(),
            "one outcome per job"
        );
        for (i, o) in report.outcomes.iter().enumerate() {
            if invalid.iter().any(|&(bad, _)| bad == i) {
                assert_eq!(
                    o.status,
                    JobStatus::Rejected(AdmissionError::InvalidArrival)
                );
            } else {
                assert!(o.completed(), "{o:?}");
            }
        }
        assert_eq!(
            report.metrics.classes["raw-ntt"].submitted, 3,
            "metrics skip them"
        );
        assert_eq!(report.metrics.rejected(), 0);
        assert!(report.metrics.horizon_ns.is_finite());
    }

    #[test]
    #[should_panic(expected = "batch_window_ns must be a finite duration >= 0, got NaN")]
    fn nan_batch_window_is_rejected() {
        run_stream(
            ServiceConfig {
                batch_window_ns: f64::NAN,
                ..ServiceConfig::default()
            },
            &[raw_spec(8, Direction::Forward, 0.0)],
        );
    }

    #[test]
    #[should_panic(expected = "stage_overhead_ns must be a finite duration >= 0, got -1")]
    fn negative_stage_overhead_is_rejected() {
        run_stream(
            ServiceConfig {
                stage_overhead_ns: -1.0,
                ..ServiceConfig::default()
            },
            &[raw_spec(8, Direction::Forward, 0.0)],
        );
    }

    #[test]
    fn channel_front_door_feeds_the_service() {
        let (tx, rx) = mpsc::channel();
        for i in 0..6 {
            tx.send(raw_spec(8, Direction::Forward, i as f64 * 5_000.0))
                .expect("receiver alive");
        }
        let mut service = ProofService::new(ServiceConfig::default());
        let ids = service.ingest(&rx);
        assert_eq!(ids.len(), 6);
        assert_eq!(service.pending(), 6);
        let report = service.run();
        assert!(report.all_completed());
        assert_eq!(report.outcomes.len(), 6);
    }

    #[test]
    fn hopeless_deadlines_cancel_at_dequeue() {
        // Job 0's deadline passes while it sits in the coalescing window
        // (default 25 µs): it is cancelled at dequeue with a typed
        // status, never occupying a lease. Job 1 shares the batch and
        // still runs.
        let mut hopeless = raw_spec(10, Direction::Forward, 0.0);
        hopeless.deadline_ns = Some(1.0);
        let mut easy = raw_spec(10, Direction::Forward, 0.0);
        easy.deadline_ns = Some(1e12);
        let report = run_stream(ServiceConfig::default(), &[hopeless, easy]);
        assert!(report.outcomes[0].deadline_exceeded());
        assert!(
            matches!(
                report.outcomes[0].status,
                JobStatus::DeadlineExceeded { deadline_ns } if deadline_ns == 1.0
            ),
            "the typed status carries the missed deadline"
        );
        assert!(report.outcomes[0].accepted(), "cancelled ≠ rejected");
        assert_eq!(report.outcomes[0].batch_size, 0, "never dispatched");
        assert!(report.outcomes[1].completed());
        assert!(!report.outcomes[1].missed_deadline);
        assert_eq!(report.metrics.deadline_exceeded(), 1);
        assert_eq!(report.metrics.shed(), 0, "expiry is not overload shed");
        assert_eq!(report.metrics.completed(), 1);
    }

    #[test]
    fn achievable_deadlines_run_and_late_finishes_are_flagged() {
        // With coalescing off the job dequeues at arrival, before its
        // deadline passes — so it runs, finishes late, and is flagged as
        // a miss rather than cancelled.
        let mut tight = raw_spec(10, Direction::Forward, 0.0);
        tight.deadline_ns = Some(1.0);
        let report = run_stream(
            ServiceConfig {
                batch_window_ns: 0.0,
                ..ServiceConfig::default()
            },
            &[tight],
        );
        assert!(report.all_completed(), "in-flight jobs are never killed");
        assert!(report.outcomes[0].missed_deadline);
        assert_eq!(report.metrics.deadline_exceeded(), 0);
    }

    #[test]
    fn mixed_workload_runs_every_class() {
        let stream = vec![
            raw_spec(8, Direction::Forward, 0.0),
            JobSpec::new(1, JobClass::PlonkProve { log_gates: 5 }, 1_000.0),
            JobSpec::new(
                2,
                JobClass::StarkCommit {
                    log_trace: 6,
                    columns: 2,
                },
                2_000.0,
            ),
            raw_spec(8, Direction::Inverse, 3_000.0),
        ];
        let report = run_stream(ServiceConfig::default(), &stream);
        assert!(report.all_completed());
        assert_eq!(report.metrics.classes.len(), 3);
        assert!(report.metrics.classes["plonk-prove"].completed == 1);
        assert!(report.metrics.classes["stark-commit"].completed == 1);
        assert!(report.metrics.horizon_ns > 0.0);
        assert!(!report.metrics.render().is_empty());
    }

    #[test]
    fn dag_jobs_match_monolithic_digests() {
        // The same proofs submitted monolithically and as stage DAGs:
        // every output digest matches (same fixtures, same transcript),
        // and the DAG run attributes lease time per stage kind.
        let mono_stream = vec![
            JobSpec::new(0, JobClass::PlonkProve { log_gates: 5 }, 0.0),
            JobSpec::new(
                1,
                JobClass::StarkCommit {
                    log_trace: 6,
                    columns: 2,
                },
                1_000.0,
            ),
        ];
        let dag_stream: Vec<JobSpec> = mono_stream
            .iter()
            .map(|s| JobSpec {
                class: s.class.pipelined(),
                ..*s
            })
            .collect();
        let mono = run_stream(ServiceConfig::default(), &mono_stream);
        let dag = run_stream(ServiceConfig::default(), &dag_stream);
        assert!(mono.all_completed() && dag.all_completed());
        for (m, d) in mono.outcomes.iter().zip(&dag.outcomes) {
            assert_ne!(m.output_digest, 0, "proof outcomes are fingerprinted");
            assert_eq!(
                m.output_digest, d.output_digest,
                "DAG scheduling must not change proof bytes"
            );
            assert_eq!(d.class_name, "prove-dag");
        }
        assert!(mono.stage_ns.is_empty(), "no DAG jobs, no attribution");
        assert!(dag.stage_ns.contains_key("ntt"));
        assert!(dag.stage_ns.contains_key("msm"));
        assert!(dag.stage_ns.contains_key("fold"));
        assert!(
            !dag.stage_ns.contains_key("barrier"),
            "barriers are charge-free"
        );
    }

    #[test]
    fn dag_runs_are_bit_identical_and_interleave_with_raw_work() {
        // A mixed stream — raw batches plus DAG proofs — replays
        // bit-identically, and the DAG proofs' stages actually share the
        // horizon with raw dispatches rather than serializing after them.
        let mut stream: Vec<JobSpec> = (0..6)
            .map(|i| raw_spec(10, Direction::Forward, i as f64 * 20_000.0))
            .collect();
        stream.push(JobSpec::new(
            7,
            JobClass::PlonkProve { log_gates: 5 }.pipelined(),
            0.0,
        ));
        let a = run_stream(ServiceConfig::default(), &stream);
        let b = run_stream(ServiceConfig::default(), &stream);
        assert!(a.all_completed());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.stage_ns, b.stage_ns);
    }

    #[test]
    fn raw_outcomes_carry_stable_output_digests() {
        let stream = vec![
            raw_spec(8, Direction::Forward, 0.0),
            raw_spec(8, Direction::Forward, 10.0),
        ];
        let a = run_stream(ServiceConfig::default(), &stream);
        let b = run_stream(
            ServiceConfig {
                batch_window_ns: 0.0, // different batching, same outputs
                ..ServiceConfig::default()
            },
            &stream,
        );
        assert!(a.all_completed() && b.all_completed());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_ne!(x.output_digest, 0, "raw outputs are fingerprinted");
            assert_eq!(
                x.output_digest, y.output_digest,
                "digests depend on the payload, not the batching"
            );
        }
        assert_ne!(
            a.outcomes[0].output_digest, a.outcomes[1].output_digest,
            "distinct payloads produce distinct digests"
        );
    }

    #[test]
    fn device_loss_degrades_but_never_fails_jobs() {
        let stream = WorkloadSpec::raw_only(9, 32, 100_000.0).generate();
        let report = run_stream(
            ServiceConfig {
                fault_rates: Some(unintt_gpu_sim::FaultRates {
                    drop_p: 0.01,
                    device_loss_p: 0.004,
                    ..Default::default()
                }),
                ..ServiceConfig::default()
            },
            &stream,
        );
        assert!(
            report.all_completed(),
            "faults must degrade, never fail: {:?}",
            report
                .outcomes
                .iter()
                .filter(|o| !o.completed())
                .collect::<Vec<_>>()
        );
        let absorbed: u64 = report
            .metrics
            .classes
            .values()
            .map(|c| c.retries + c.replans)
            .sum();
        assert!(
            absorbed > 0,
            "at these rates some fault should actually fire"
        );
    }

    /// The per-batch work of `dispatch::run_raw_batch` over one field's
    /// dispatched batches, each piece timed on its own: payload
    /// generation, the CPU reference transforms, and the cluster forwards
    /// on one held cluster. ms, best of `reps` each.
    fn field_pieces<F: unintt_ff::TwoAdicField>(
        batches: &[&ReadyBatch],
        cfg: &ServiceConfig,
        field: ServiceField,
        reps: usize,
    ) -> [f64; 3] {
        use std::hint::black_box;
        use unintt_core::{ClusterNttEngine, UniNttOptions};
        use unintt_ntt::{batch_transform_parallel, Ntt};

        let best_ms = |f: &mut dyn FnMut()| {
            (0..reps)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::MAX, f64::min)
        };
        let inputs: Vec<Vec<Vec<F>>> = batches
            .iter()
            .map(|b| {
                let log_n = b.key.expect("raw batch").log_n;
                b.jobs
                    .iter()
                    .map(|j| dispatch::payload(j.id, log_n))
                    .collect()
            })
            .collect();
        let payloads = best_ms(&mut || {
            for b in batches {
                let log_n = b.key.expect("raw batch").log_n;
                for j in &b.jobs {
                    black_box(dispatch::payload::<F>(j.id, log_n));
                }
            }
        });
        let references = best_ms(&mut || {
            for (b, inputs) in batches.iter().zip(&inputs) {
                let key = b.key.expect("raw batch");
                let direction = if key.forward {
                    Direction::Forward
                } else {
                    Direction::Inverse
                };
                let ntt = Ntt::<F>::new(key.log_n);
                let mut flat: Vec<F> = inputs.iter().flatten().copied().collect();
                batch_transform_parallel(&ntt, &mut flat, direction, inputs.len().min(8));
                black_box(flat);
            }
        });
        let fs = field.spec();
        let node_cfg = unintt_gpu_sim::presets::a100_nvlink(cfg.lease.gpus_per_node);
        let opts = UniNttOptions::tuned_for(&fs);
        let engines: BTreeMap<u32, ClusterNttEngine<F>> = (8..=10)
            .map(|log_n| {
                let engine = ClusterNttEngine::new(log_n, cfg.lease.nodes, &node_cfg, opts, fs);
                (log_n, engine)
            })
            .collect();
        let mut pool = LeasePool::new(1, cfg.lease);
        let forwards = pool.lease_mut(0).with_cluster(field, |cluster| {
            best_ms(&mut || {
                for (b, inputs) in batches.iter().zip(&inputs) {
                    let engine = &engines[&b.key.expect("raw batch").log_n];
                    for input in inputs {
                        black_box(engine.forward_with_recovery(cluster, input, &cfg.recovery))
                            .expect("fault-free");
                    }
                }
            })
        });
        [payloads, references, forwards]
    }

    /// Dev profiling aid, not a correctness check: what one `serve-raw` op
    /// (512 raw jobs at 80 k jobs/s under the default config, as the repo
    /// benchmark runs it) is made of on this host. One logged run yields
    /// the dispatched batches and every ready-list operation; each piece
    /// is then timed on its own, best of 60, and the selection replays the
    /// logged operations. Run with `cargo test -p unintt-serve --release
    /// raw_op_profile -- --ignored --nocapture` (or `make serve-profile`).
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn raw_op_profile() {
        use std::hint::black_box;
        const REPS: usize = 60;
        let best_ms = |f: &mut dyn FnMut()| {
            (0..REPS)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::MAX, f64::min)
        };
        let spec = WorkloadSpec::raw_only(12, 512, 80_000.0);
        let cfg = ServiceConfig::default();

        let backlog: Vec<QueuedJob> = (0..)
            .map(JobId)
            .zip(spec.generate())
            .map(|(id, spec)| QueuedJob { id, spec })
            .collect();
        let mut runner = FleetRunner::new(cfg.clone().into());
        let report = runner.run(backlog);
        assert!(report.all_completed());
        let log = std::mem::take(&mut runner.clusters[0].sched.ready_log);

        // The selection replayed alone, once through the linear scan the
        // loop used to run (a peek scans for the policy's pick, a pop
        // removes that pick) and once through the ready queue.
        let scan = |log: Vec<ReadyOp>| {
            let (mut ready, mut popped, mut pick) = (Vec::new(), Vec::new(), None);
            for op in log {
                match op {
                    ReadyOp::Push(batch) => ready.push(batch),
                    ReadyOp::Peek => {
                        pick = dispatch::next_batch_index(&ready, cfg.policy).map(|(i, _)| i)
                    }
                    ReadyOp::Pop => popped.push(ready.swap_remove(pick.take().expect("peeked"))),
                }
            }
            popped
        };
        let queue = |log: Vec<ReadyOp>| {
            let (mut ready, mut popped) = (ReadyQueue::new(cfg.policy), Vec::new());
            for op in log {
                match op {
                    ReadyOp::Push(batch) => ready.push(batch),
                    ReadyOp::Peek => drop(black_box(ready.peek())),
                    ReadyOp::Pop => popped.push(ready.pop().expect("peeked")),
                }
            }
            popped
        };
        let batches = scan(log.clone());
        assert_eq!(
            queue(log.clone()),
            batches,
            "the queue pops what the scan picks"
        );
        let replay_ms = |replay: &dyn Fn(Vec<ReadyOp>) -> Vec<ReadyBatch>| {
            (0..REPS)
                .map(|_| {
                    let log = log.clone();
                    let t = std::time::Instant::now();
                    black_box(replay(log));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::MAX, f64::min)
        };
        let (scanned, selection) = (replay_ms(&scan), replay_ms(&queue));

        let of = |field| -> Vec<&ReadyBatch> {
            batches
                .iter()
                .filter(|b| b.key.expect("raw batch").field == field)
                .collect()
        };
        let gl = field_pieces::<unintt_ff::Goldilocks>(
            &of(ServiceField::Goldilocks),
            &cfg,
            ServiceField::Goldilocks,
            REPS,
        );
        let bb = field_pieces::<unintt_ff::BabyBear>(
            &of(ServiceField::BabyBear),
            &cfg,
            ServiceField::BabyBear,
            REPS,
        );
        let [payloads, references, forwards] = [0, 1, 2].map(|i| gl[i] + bb[i]);

        let mut pool = LeasePool::new(1, cfg.lease);
        let lease = pool.lease_mut(0);
        let clusters = best_ms(&mut || {
            for b in &batches {
                black_box(lease.with_cluster(b.key.expect("raw batch").field, |c| c.num_nodes()));
            }
        });

        let op = best_ms(&mut || {
            let mut service = ProofService::new(cfg.clone());
            service.submit_all(spec.generate());
            black_box(service.run());
        });
        let pieces = [
            ("cluster forwards (one held cluster)", forwards),
            ("batch selection (ready queue replay)", selection),
            ("CPU reference transforms", references),
            ("payload generation", payloads),
            ("Lease::with_cluster reset x dispatches", clusters),
        ];
        let rest = op - pieces.iter().map(|(_, ms)| ms).sum::<f64>();
        println!(
            "serve-raw op: 512 raw jobs, seed 12, {} dispatches, peak queue {}, best of {REPS}",
            batches.len(),
            report.metrics.peak_queue_depth
        );
        for (name, ms) in pieces {
            println!("  {name:<40} {ms:6.2} ms");
        }
        println!("  {:<40} {rest:6.2} ms", "rest of the op (by difference)");
        println!(
            "  {:<40} {scanned:6.2} ms",
            "(the linear scan, same replay)"
        );
        println!("  {:<40} {op:6.2} ms", "whole op (generate + submit + run)");
    }

    /// Dev profiling aid, not a correctness check: what one `serve-proofs`
    /// op is made of on this host. The stream is the repo benchmark's (16
    /// jobs at 80 k jobs/s: 8 raw NTTs, 4 PLONK proofs of 2^6 gates and 4
    /// STARK commits of 2^8 × 4, every class pipelined, two streams per
    /// lease). Each piece is timed on its own, best of 20, and scaled to
    /// the op's four proofs of each kind: the PLONK fixture (built once per
    /// service lifetime; its SRS alone on the next line), the PLONK stages
    /// by kind on the simulated backend and on the CPU backend for
    /// comparison, PLONK verify, STARK commit and verify, and the raw jobs
    /// served alone; the event loop is the rest. Run with `cargo test -p
    /// unintt-serve --release proofs_op_profile -- --ignored --nocapture`
    /// (or `make serve-profile`).
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn proofs_op_profile() {
        use std::hint::black_box;

        use rand::{rngs::StdRng, Rng, SeedableRng};
        use unintt_ff::{Bn254Fr, Field};
        use unintt_zkp::{Backend, Srs};

        const REPS: usize = 20;
        const LOG_GATES: u32 = 6;
        let (plonk, stark) = (
            DagKind::Plonk {
                log_gates: LOG_GATES,
            },
            DagKind::Stark {
                log_trace: 8,
                columns: 4,
            },
        );
        let best_ms = |f: &mut dyn FnMut()| {
            (0..REPS)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::MAX, f64::min)
        };
        let cfg = ServiceConfig {
            streams_per_lease: 2,
            ..ServiceConfig::default()
        };
        // The benchmark's stream: classes dealt in fixed counts, seeded order.
        let stream = || {
            let seed = 12;
            let mut jobs = WorkloadSpec::raw_only(seed, 16, 80_000.0).generate();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
            }
            for (dealt, &job) in order.iter().enumerate() {
                jobs[job].class = match dealt % 4 {
                    0 => JobClass::ProveDag { kind: plonk },
                    1 => JobClass::ProveDag { kind: stark },
                    _ => continue,
                };
            }
            jobs
        };
        let jobs = stream();
        let count = |kind| {
            jobs.iter()
                .filter(|j| j.class == JobClass::ProveDag { kind })
                .count() as f64
        };
        let (plonks, starks) = (count(plonk), count(stark));
        let serve = |jobs: Vec<JobSpec>| {
            let mut service = ProofService::new(cfg.clone());
            service.submit_all(jobs);
            let report = service.run();
            assert!(report.all_completed());
            report
        };

        // PLONK fixture setup, and the SRS it generates (4n powers).
        let fixture = best_ms(&mut || {
            let mut caches = EngineCaches::default();
            dispatch::plonk_fixture(&mut caches, LOG_GATES);
            black_box(caches);
        });
        let tau = Bn254Fr::random(&mut StdRng::seed_from_u64(1));
        let srs = best_ms(&mut || {
            black_box(Srs::from_trapdoor(4 << LOG_GATES, tau));
        });

        // One PLONK proof's stages summed by kind, best of REPS per kind.
        let mut caches = EngineCaches::default();
        let stages = |caches: &mut EngineCaches, simulated: bool| {
            let mut best: BTreeMap<&'static str, f64> = BTreeMap::new();
            for _ in 0..REPS {
                let mut pipe = if simulated {
                    dispatch::build_dag(caches, &cfg, plonk)
                } else {
                    let f = dispatch::plonk_fixture(caches, LOG_GATES);
                    unintt_pipeline::ProofPipeline::plonk(&f.pk, &f.witness, &[], Backend::cpu())
                };
                let dag = pipe.dag();
                let mut rep: BTreeMap<&'static str, f64> = BTreeMap::new();
                for s in dag.topo_order() {
                    let t = std::time::Instant::now();
                    pipe.run_stage(s, &cfg.recovery).expect("fault-free");
                    *rep.entry(dag.nodes()[s].kind.name()).or_default() +=
                        t.elapsed().as_secs_f64() * 1e3;
                }
                for (kind, ms) in rep {
                    let b = best.entry(kind).or_insert(f64::MAX);
                    *b = b.min(ms);
                }
            }
            best
        };
        let (sim_stages, cpu_stages) = (stages(&mut caches, true), stages(&mut caches, false));
        let mut pipe = dispatch::build_dag(&mut caches, &cfg, plonk);
        for s in pipe.dag().topo_order() {
            pipe.run_stage(s, &cfg.recovery).expect("fault-free");
        }
        let plonk_verify = best_ms(&mut || dispatch::verify_dag_output(&mut caches, plonk, &pipe));

        let mut stark_pipe = None;
        let stark_commit = best_ms(&mut || {
            let mut pipe = dispatch::build_dag(&mut caches, &cfg, stark);
            for s in pipe.dag().topo_order() {
                pipe.run_stage(s, &cfg.recovery).expect("fault-free");
            }
            stark_pipe = Some(pipe);
        });
        let stark_pipe = stark_pipe.expect("committed");
        let stark_verify =
            best_ms(&mut || dispatch::verify_dag_output(&mut caches, stark, &stark_pipe));

        let raw_jobs: Vec<JobSpec> = jobs
            .iter()
            .filter(|j| matches!(j.class, JobClass::RawNtt { .. }))
            .cloned()
            .collect();
        let raw = best_ms(&mut || {
            black_box(serve(raw_jobs.clone()));
        });
        let op = best_ms(&mut || {
            black_box(serve(stream()));
        });

        let sim_total: f64 = sim_stages.values().sum();
        let pieces = [
            ("PLONK fixture setup (once per lifetime)", fixture),
            ("PLONK stages, simulated backend", plonks * sim_total),
            ("PLONK verify", plonks * plonk_verify),
            ("STARK commit (build + stages)", starks * stark_commit),
            ("STARK verify", starks * stark_verify),
            ("raw jobs served alone", raw),
        ];
        let rest = op - pieces.iter().map(|(_, ms)| ms).sum::<f64>();
        println!(
            "serve-proofs op: {} jobs, seed 12, {plonks} PLONK 2^{LOG_GATES}, {starks} STARK, \
             {} GPUs per lease, best of {REPS}",
            jobs.len(),
            cfg.lease.total_gpus()
        );
        for (name, ms) in pieces {
            println!("  {name:<44} {ms:7.2} ms");
        }
        println!(
            "  {:<44} {rest:7.2} ms",
            "event loop and the rest (by difference)"
        );
        println!("  {:<44} {op:7.2} ms", "whole op (generate + submit + run)");
        println!(
            "  {:<44} {srs:7.2} ms",
            "(of the fixture: Srs::from_trapdoor, 4n)"
        );
        println!("one PLONK proof's stages by kind, ms: kind  simulated  cpu  ratio");
        for (kind, sim) in &sim_stages {
            let cpu = cpu_stages.get(kind).copied().unwrap_or(0.0);
            println!("  {kind:<10} {sim:7.3} {cpu:7.3} {:5.2}x", sim / cpu);
        }
    }
}
