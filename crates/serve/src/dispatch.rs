//! Shared dispatch machinery: the functional execution of one batch on
//! a leased cluster slice, used by both the single-cluster
//! [`crate::ProofService`] runner and the multi-cluster
//! [`crate::FleetService`] runner.
//!
//! Execution here is *eager* but commit is the caller's job: running a
//! raw batch returns per-job [`Completion`]s (outcome + execution
//! interval) instead of pushing them into a report, so a fleet runner
//! can defer — and, after a chaos kill or a lost hedge race, discard —
//! results whose completion instant never arrives.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{Cluster, ClusterNttEngine, UniNttOptions};
use unintt_ff::{BabyBear, Field, Goldilocks, PrimeField, TwoAdicField};
use unintt_fri::{commit_trace, verify_trace, FriConfig, LdeBackend};
use unintt_gpu_sim::{presets, FaultPlan, FieldSpec, KernelProfile};
use unintt_ntt::{batch_transform_parallel, Direction, Ntt};
use unintt_zkp::{
    prove, random_circuit, setup, verify, Backend, ProvingKey, VerifyingKey, Witness,
};

use unintt_pipeline::ProofPipeline;

use crate::coalesce::{BatchKey, QueuedJob, ReadyBatch};
use crate::config::{SchedulerPolicy, ServiceConfig};
use crate::job::{DagKind, JobId, JobOutcome, JobStatus, ServiceField};

/// Seed domain for per-job synthetic payloads.
const PAYLOAD_SEED: u64 = 0x0b5e_55ed_0d15_ea5e;
/// Seed domain for PLONK/STARK fixtures.
const FIXTURE_SEED: u64 = 0xf1c5_0123_4567_89ab;

/// Canned circuit + keys for PLONK jobs of one size.
struct PlonkFixture {
    pk: ProvingKey,
    vk: VerifyingKey,
    witness: Witness,
}

/// Process-lifetime caches shared by every dispatch a runner performs:
/// cluster engines per transform size and canned proof fixtures. Keyed
/// through `BTreeMap` so iteration (and thus behaviour) is deterministic.
#[derive(Default)]
pub(crate) struct EngineCaches {
    engines_g: BTreeMap<u32, ClusterNttEngine<Goldilocks>>,
    engines_b: BTreeMap<u32, ClusterNttEngine<BabyBear>>,
    plonk_fixtures: BTreeMap<u32, PlonkFixture>,
    stark_fixtures: BTreeMap<(u32, usize), Vec<Vec<Goldilocks>>>,
}

impl EngineCaches {
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// One job's finished execution, not yet committed to a report.
#[derive(Clone, Debug)]
pub(crate) struct Completion {
    /// The fully built outcome (status is always `Completed`).
    pub outcome: JobOutcome,
    /// When the job's execution began on the lease, simulated ns.
    pub exec_start_ns: f64,
    /// The submitting job, so a fleet can re-dispatch it (priorities and
    /// deadlines intact) after a chaos kill or for a hedge.
    pub job: QueuedJob,
}

/// Result of one raw-NTT batch dispatch.
pub(crate) struct RawDispatch {
    /// Simulated time the lease was occupied (cluster delta + overhead).
    pub elapsed_ns: f64,
    /// Per-job completions, in batch order.
    pub completions: Vec<Completion>,
    /// Jobs not run because the lease ran out of healthy nodes; the
    /// caller requeues (or re-shards) them. No job is ever failed.
    pub leftover: Vec<QueuedJob>,
}

/// The batch `policy` would run next from `ready` (`None` when empty),
/// plus its scheduling key `(ready_ns, priority, cost, first_id)` so a
/// caller mixing batches with other work (DAG stages) can compare like
/// for like. Shared by the single-cluster runner and every fleet
/// cluster so all schedulers order work identically.
pub(crate) fn next_batch_index(
    ready: &[ReadyBatch],
    policy: SchedulerPolicy,
) -> Option<(usize, DispatchKey)> {
    let key = |b: &ReadyBatch| DispatchKey {
        ready_ns: b.ready_ns,
        priority: b
            .jobs
            .iter()
            .map(|j| j.spec.priority)
            .max()
            .unwrap_or_default(),
        cost: b
            .jobs
            .iter()
            .map(|j| j.spec.class.estimated_cost())
            .sum::<f64>(),
        id: b.first_id(),
    };
    ready
        .iter()
        .enumerate()
        .map(|(i, b)| (i, key(b)))
        .min_by(|(_, a), (_, b)| a.cmp_under(b, policy))
}

/// The policy-relevant attributes of one schedulable unit (a ready batch
/// or a ready DAG stage), so heterogeneous work competes for a lease
/// under one ordering.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DispatchKey {
    /// When the unit became dispatchable, simulated ns.
    pub ready_ns: f64,
    /// Scheduling priority (max over batch members).
    pub priority: crate::job::Priority,
    /// Estimated cost for shortest-job-first.
    pub cost: f64,
    /// Submission-order tiebreak.
    pub id: JobId,
}

impl DispatchKey {
    /// Total order under `policy`: smallest compares first.
    pub fn cmp_under(&self, other: &Self, policy: SchedulerPolicy) -> std::cmp::Ordering {
        let fifo = self
            .ready_ns
            .partial_cmp(&other.ready_ns)
            .expect("ready times are finite")
            .then(self.id.cmp(&other.id));
        match policy {
            SchedulerPolicy::Fifo => fifo,
            SchedulerPolicy::Priority => other.priority.cmp(&self.priority).then(fifo),
            SchedulerPolicy::ShortestJobFirst => self
                .cost
                .partial_cmp(&other.cost)
                .expect("costs are finite")
                .then(fifo),
        }
    }
}

/// Removes and returns the batch `policy` runs next from `ready`.
pub(crate) fn take_next_batch(ready: &mut Vec<ReadyBatch>, policy: SchedulerPolicy) -> ReadyBatch {
    let (idx, _) = next_batch_index(ready, policy).expect("take_next_batch with ready batches");
    ready.swap_remove(idx)
}

/// Splits a dequeued batch into still-viable jobs and
/// [`JobStatus::DeadlineExceeded`] outcomes for members whose deadline
/// passed while they sat queued — those are cancelled at `now` and never
/// occupy a lease.
pub(crate) fn split_expired(jobs: Vec<QueuedJob>, now: f64) -> (Vec<QueuedJob>, Vec<JobOutcome>) {
    let mut live = Vec::with_capacity(jobs.len());
    let mut expired = Vec::new();
    for job in jobs {
        match job.spec.deadline_ns {
            Some(deadline_ns) if deadline_ns <= now => expired.push(JobOutcome {
                id: job.id,
                tenant: job.spec.tenant,
                class_name: job.spec.class.name(),
                status: JobStatus::DeadlineExceeded { deadline_ns },
                arrival_ns: job.spec.arrival_ns,
                completed_ns: now,
                batch_size: 0,
                retries: 0,
                replans: 0,
                missed_deadline: true,
                output_digest: 0,
            }),
            _ => live.push(job),
        }
    }
    (live, expired)
}

/// Runs a coalesced raw-NTT batch on `cluster`: every member shares the
/// lease, the plan (from the engine cache), and — crucially — one fixed
/// dispatch overhead. Member jobs execute back-to-back with fault
/// recovery; a job that cannot complete because the lease lost its last
/// healthy node lands in `leftover`.
pub(crate) fn run_raw_batch(
    caches: &mut EngineCaches,
    cfg: &ServiceConfig,
    key: BatchKey,
    jobs: &[QueuedJob],
    cluster: &mut Cluster,
    dispatch_seq: u64,
    start_ns: f64,
) -> RawDispatch {
    match key.field {
        ServiceField::Goldilocks => run_raw_batch_in::<Goldilocks>(
            &mut caches.engines_g,
            cfg,
            FieldSpec::goldilocks(),
            key,
            jobs,
            cluster,
            dispatch_seq,
            start_ns,
        ),
        ServiceField::BabyBear => run_raw_batch_in::<BabyBear>(
            &mut caches.engines_b,
            cfg,
            FieldSpec::babybear(),
            key,
            jobs,
            cluster,
            dispatch_seq,
            start_ns,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_raw_batch_in<F: TwoAdicField>(
    engines: &mut BTreeMap<u32, ClusterNttEngine<F>>,
    cfg: &ServiceConfig,
    field_spec: FieldSpec,
    key: BatchKey,
    jobs: &[QueuedJob],
    cluster: &mut Cluster,
    dispatch_seq: u64,
    start_ns: f64,
) -> RawDispatch {
    let engine = engines.entry(key.log_n).or_insert_with(|| {
        let node_cfg = presets::a100_nvlink(cfg.lease.gpus_per_node);
        let mut opts = UniNttOptions::tuned_for(&field_spec);
        opts.comm_mode = cfg.comm_mode;
        ClusterNttEngine::new(key.log_n, cfg.lease.nodes, &node_cfg, opts, field_spec)
    });
    if let Some(rates) = cfg.fault_rates {
        for node in 0..cluster.num_nodes() {
            let seed = cfg.fault_seed
                ^ dispatch_seq.wrapping_mul(0xa076_1d64_78bd_642f)
                ^ (node as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            cluster
                .node_mut(node)
                .set_fault_plan(FaultPlan::random(seed, rates));
        }
    }
    let n = 1usize << key.log_n;
    let direction = if key.forward {
        Direction::Forward
    } else {
        Direction::Inverse
    };
    let inputs: Vec<Vec<F>> = jobs.iter().map(|j| payload::<F>(j.id, key.log_n)).collect();

    // CPU references for the whole batch in one batched call — the
    // service's host-side check rides the same `ntt::batch` path and
    // shared plan/twiddle caches provers use.
    let references: Option<Vec<F>> = cfg.verify_outputs.then(|| {
        let ntt = Ntt::<F>::new(key.log_n);
        let mut flat: Vec<F> = inputs.iter().flatten().copied().collect();
        batch_transform_parallel(&ntt, &mut flat, direction, jobs.len().min(8));
        flat
    });

    let inv_n = F::from_u64(n as u64)
        .inverse()
        .expect("domain size is invertible in an NTT-friendly field");
    let t0 = cluster.total_time_ns();
    let mut completions = Vec::with_capacity(jobs.len());
    let mut leftover = Vec::new();
    for (idx, (job, input)) in jobs.iter().zip(&inputs).enumerate() {
        let exec_start_ns = start_ns + (cluster.total_time_ns() - t0);
        match engine.forward_with_recovery(cluster, input, &cfg.recovery) {
            Ok(mut report) => {
                let output = if key.forward {
                    std::mem::take(&mut report.output)
                } else {
                    inverse_from_forward(&report.output, inv_n, cluster)
                };
                if let Some(flat) = &references {
                    assert_eq!(
                        output,
                        flat[idx * n..(idx + 1) * n],
                        "cluster output diverged from the CPU reference for {}",
                        job.id
                    );
                }
                let done = start_ns + (cluster.total_time_ns() - t0) + cfg.dispatch_overhead_ns;
                completions.push(Completion {
                    outcome: JobOutcome {
                        id: job.id,
                        tenant: job.spec.tenant,
                        class_name: job.spec.class.name(),
                        status: JobStatus::Completed,
                        arrival_ns: job.spec.arrival_ns,
                        completed_ns: done,
                        batch_size: jobs.len(),
                        retries: report.total_retries(),
                        replans: report.replans,
                        missed_deadline: job.spec.deadline_ns.is_some_and(|d| done > d),
                        output_digest: digest(&output),
                    },
                    exec_start_ns,
                    job: *job,
                });
            }
            Err(_) => {
                leftover.extend_from_slice(&jobs[idx..]);
                break;
            }
        }
    }
    RawDispatch {
        elapsed_ns: cluster.total_time_ns() - t0 + cfg.dispatch_overhead_ns,
        completions,
        leftover,
    }
}

/// The canned PLONK fixture for one circuit size (built on first use).
fn plonk_fixture(caches: &mut EngineCaches, log_gates: u32) -> &PlonkFixture {
    caches.plonk_fixtures.entry(log_gates).or_insert_with(|| {
        let mut rng = StdRng::seed_from_u64(FIXTURE_SEED ^ u64::from(log_gates));
        let (circuit, witness) = random_circuit(1usize << log_gates, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        PlonkFixture { pk, vk, witness }
    })
}

/// The canned STARK trace for one shape (built on first use).
fn stark_fixture(
    caches: &mut EngineCaches,
    log_trace: u32,
    columns: usize,
) -> &Vec<Vec<Goldilocks>> {
    caches
        .stark_fixtures
        .entry((log_trace, columns))
        .or_insert_with(|| {
            let mut rng =
                StdRng::seed_from_u64(FIXTURE_SEED ^ (u64::from(log_trace) << 32) ^ columns as u64);
            (0..columns)
                .map(|_| {
                    (0..1usize << log_trace)
                        .map(|_| Goldilocks::random(&mut rng))
                        .collect()
                })
                .collect()
        })
}

/// A PLONK proof over the canned circuit of the requested size, run
/// through the simulated backend. Returns the simulated duration
/// (excluding the fixed dispatch overhead; the caller charges that) and
/// the proof's content digest.
pub(crate) fn run_plonk(
    caches: &mut EngineCaches,
    cfg: &ServiceConfig,
    log_gates: u32,
) -> (f64, u64) {
    let gpus = cfg.lease.total_gpus();
    let verify_outputs = cfg.verify_outputs;
    let fixture = plonk_fixture(caches, log_gates);
    let mut backend = Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
    let proof = prove(&fixture.pk, &fixture.witness, &[], &mut backend);
    if verify_outputs {
        assert!(
            verify(&fixture.vk, &proof, &[]),
            "service-produced proof must verify"
        );
    }
    (backend.report().total_ns(), proof.content_digest())
}

/// A STARK trace commitment over a canned trace, run through the
/// simulated LDE backend. Returns the simulated duration and the
/// commitment's content digest.
pub(crate) fn run_stark(
    caches: &mut EngineCaches,
    cfg: &ServiceConfig,
    log_trace: u32,
    columns: usize,
) -> (f64, u64) {
    let gpus = cfg.lease.total_gpus();
    let verify_outputs = cfg.verify_outputs;
    let trace = stark_fixture(caches, log_trace, columns);
    let mut backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
    let config = FriConfig::standard();
    let commitment = commit_trace(trace, &config, &mut backend);
    if verify_outputs {
        assert!(
            verify_trace(&commitment, &config),
            "service-produced commitment must verify"
        );
    }
    (backend.sim_time_ns(), commitment.content_digest())
}

/// Builds the staged pipeline for a [`DagKind`] job over the *same*
/// fixtures the monolithic runners use, so the finished output digest is
/// identical to the monolithic dispatch's.
pub(crate) fn build_dag(
    caches: &mut EngineCaches,
    cfg: &ServiceConfig,
    kind: DagKind,
) -> ProofPipeline {
    let gpus = cfg.lease.total_gpus();
    match kind {
        DagKind::Plonk { log_gates } => {
            let fixture = plonk_fixture(caches, log_gates);
            let backend =
                Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
            ProofPipeline::plonk(&fixture.pk, &fixture.witness, &[], backend)
        }
        DagKind::Stark { log_trace, columns } => {
            let trace = stark_fixture(caches, log_trace, columns).clone();
            let backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
            ProofPipeline::stark(trace, FriConfig::standard(), backend)
        }
    }
}

/// Verifies a completed DAG pipeline's output against the same checks
/// the monolithic runners apply (called only when `verify_outputs` is
/// on).
pub(crate) fn verify_dag_output(caches: &mut EngineCaches, kind: DagKind, pipe: &ProofPipeline) {
    match kind {
        DagKind::Plonk { log_gates } => {
            let fixture = plonk_fixture(caches, log_gates);
            let proof = pipe.proof().expect("complete PLONK pipeline");
            assert!(
                verify(&fixture.vk, proof, &[]),
                "DAG-produced proof must verify"
            );
        }
        DagKind::Stark { .. } => {
            let commitment = pipe.commitment().expect("complete STARK pipeline");
            assert!(
                verify_trace(commitment, &FriConfig::standard()),
                "DAG-produced commitment must verify"
            );
        }
    }
}

/// Records the lifecycle spans for one completed job on its own track:
/// a `job` root covering arrival → completion, with `queued` and
/// `execute` children splitting the interval at dispatch time. No-op
/// when telemetry is disabled.
pub(crate) fn record_job_spans(
    id: JobId,
    class: &'static str,
    arrival_ns: f64,
    exec_start_ns: f64,
    done_ns: f64,
    batch_size: usize,
) {
    let Some(root) = unintt_telemetry::reserve_span_id() else {
        return;
    };
    use unintt_telemetry::{fresh_id, record_span, Span, SpanLevel};
    let track = id.to_string();
    record_span(|| Span {
        id: fresh_id(),
        parent: Some(root),
        name: "queued".into(),
        level: SpanLevel::Serve,
        category: "queue",
        track: track.clone(),
        t_start_ns: arrival_ns,
        t_end_ns: exec_start_ns,
        attrs: vec![],
    });
    record_span(|| Span {
        id: fresh_id(),
        parent: Some(root),
        name: "execute".into(),
        level: SpanLevel::Serve,
        category: "execute",
        track: track.clone(),
        t_start_ns: exec_start_ns,
        t_end_ns: done_ns,
        attrs: vec![("class", class.into())],
    });
    record_span(|| Span {
        id: root,
        parent: None,
        name: "job".into(),
        level: SpanLevel::Serve,
        category: "job",
        track,
        t_start_ns: arrival_ns,
        t_end_ns: done_ns,
        attrs: vec![("class", class.into()), ("batch", batch_size.into())],
    });
    unintt_telemetry::counter_add("serve_jobs_completed", 1);
}

/// Commits one completion: records its lifecycle spans and returns the
/// outcome for the report.
pub(crate) fn commit_completion(c: &Completion) -> JobOutcome {
    record_job_spans(
        c.outcome.id,
        c.outcome.class_name,
        c.outcome.arrival_ns,
        c.exec_start_ns,
        c.outcome.completed_ns,
        c.outcome.batch_size,
    );
    c.outcome
}

/// Deterministic synthetic payload for one raw job.
fn payload<F: Field>(id: JobId, log_n: u32) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(PAYLOAD_SEED ^ id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
}

/// FNV-1a over canonical representatives: the output fingerprint chaos
/// experiments compare against a fault-free run.
fn digest<F: PrimeField>(out: &[F]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in out {
        h ^= x.to_canonical_u64();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The inverse transform from a forward cluster run:
/// `INTT(a)[j] = n⁻¹ · NTT(a)[(n−j) mod n]`. The index reversal and scale
/// are charged as one small fused kernel on the first healthy node.
fn inverse_from_forward<F: Field>(forward: &[F], inv_n: F, cluster: &mut Cluster) -> Vec<F> {
    let n = forward.len();
    let mut out = vec![F::ZERO; n];
    out[0] = forward[0] * inv_n;
    for j in 1..n {
        out[j] = forward[n - j] * inv_n;
    }
    if let Some(&node) = cluster.healthy_nodes().first() {
        let mut profile = KernelProfile::named("serve-inverse-fixup");
        profile.field_muls = n as u64;
        profile.blocks = (n as u64 / 256).max(1);
        let mut unused = ();
        cluster.node_mut(node).on_device(0, &mut unused, |ctx, _| {
            ctx.launch(&profile);
        });
    }
    out
}
