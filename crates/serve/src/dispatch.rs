//! Shared dispatch machinery: the functional execution of one batch on
//! a leased cluster slice, used by the per-cluster scheduler behind both
//! [`crate::ProofService`] and [`crate::FleetService`].
//!
//! Execution here is *eager* but commit is the caller's job: running a
//! raw batch returns per-job [`Completion`]s (outcome + execution
//! interval) instead of pushing them into a report, so a fleet runner
//! can defer — and, after a chaos kill or a lost hedge race, discard —
//! results whose completion instant never arrives.

use std::collections::{btree_map::Entry, BTreeMap, VecDeque};

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{Cluster, ClusterNttEngine, UniNttOptions};
use unintt_ff::{BabyBear, Bn254Fr, Field, Goldilocks, PrimeField, TwoAdicField};
use unintt_fri::{commit_trace, verify_trace, FriConfig, LdeBackend};
use unintt_gpu_sim::{presets, FaultPlan, KernelProfile, SimTime};
use unintt_ntt::{batch_transform_parallel, Direction, Ntt};
use unintt_zkp::{
    prove, random_circuit, setup, verify, Backend, ProvingKey, VerifyingKey, Witness,
    LOG_QUOTIENT_BLOWUP,
};

use unintt_pipeline::ProofPipeline;

use crate::coalesce::{BatchKey, QueuedJob, ReadyBatch};
use crate::config::{duration, SchedulerPolicy, ServiceConfig};
use crate::job::{AdmissionError, DagKind, JobClass, JobId, JobOutcome, JobStatus, ServiceField};

/// Seed domain for per-job synthetic payloads.
const PAYLOAD_SEED: u64 = 0x0b5e_55ed_0d15_ea5e;
/// Seed domain for PLONK/STARK fixtures.
const FIXTURE_SEED: u64 = 0xf1c5_0123_4567_89ab;

/// Canned circuit + keys for PLONK jobs of one size.
pub(crate) struct PlonkFixture {
    pub(crate) pk: ProvingKey,
    vk: VerifyingKey,
    pub(crate) witness: Witness,
}

/// Per-run caches shared by every dispatch one runner performs (each run
/// builds its own): cluster engines per transform size and canned proof
/// fixtures. Keyed through `BTreeMap` so iteration (and thus behaviour)
/// is deterministic.
#[derive(Default)]
pub(crate) struct EngineCaches {
    engines_g: BTreeMap<u32, ClusterNttEngine<Goldilocks>>,
    engines_b: BTreeMap<u32, ClusterNttEngine<BabyBear>>,
    plonk_fixtures: BTreeMap<u32, PlonkFixture>,
    stark_fixtures: BTreeMap<(u32, usize), Vec<Vec<Goldilocks>>>,
}

/// One job's finished execution, not yet committed to a report.
#[derive(Clone, Debug)]
pub(crate) struct Completion {
    /// The fully built outcome (status is always `Completed`).
    pub outcome: JobOutcome,
    /// When the job's execution began on the lease.
    pub exec_start: SimTime,
    /// When it completed: the outcome's `completed_ns` on the event clock.
    pub done: SimTime,
    /// The submitting job, so a fleet can re-dispatch it (priorities and
    /// deadlines intact) after a chaos kill or for a hedge.
    pub job: QueuedJob,
}

/// Result of one raw-NTT batch dispatch.
pub(crate) struct RawDispatch {
    /// Simulated time the lease was occupied (per-job cluster charges +
    /// overhead).
    pub elapsed: SimTime,
    /// Per-job completions, in batch order.
    pub completions: Vec<Completion>,
    /// Jobs not run because the lease ran out of healthy nodes; the
    /// caller requeues (or re-shards) them. No job is ever failed.
    pub leftover: Vec<QueuedJob>,
}

/// The linear scan [`ReadyQueue`] replaced, kept as its test oracle: the
/// index and key of the batch `policy` runs next from `ready`.
#[cfg(test)]
pub(crate) fn next_batch_index(
    ready: &[ReadyBatch],
    policy: SchedulerPolicy,
) -> Option<(usize, DispatchKey)> {
    ready
        .iter()
        .enumerate()
        .map(|(i, b)| (i, DispatchKey::of(b)))
        .min_by(|(_, a), (_, b)| a.cmp_under(b, policy))
}

/// Ready batches in the order one policy dispatches them, one list per
/// cluster scheduler. Each batch's [`DispatchKey`] is computed once, on
/// push, and the batch is inserted by binary search under
/// [`DispatchKey::cmp_under`]. Keys never tie (the
/// first member's id breaks every tie), so the head is exactly the batch
/// a scan would pick. Under FIFO a push lands at or near the back.
pub(crate) struct ReadyQueue {
    policy: SchedulerPolicy,
    batches: VecDeque<(DispatchKey, ReadyBatch)>,
    /// Jobs over every queued batch: the queue's admission-control depth.
    jobs: usize,
}

impl ReadyQueue {
    pub(crate) fn new(policy: SchedulerPolicy) -> Self {
        Self {
            policy,
            batches: VecDeque::new(),
            jobs: 0,
        }
    }

    pub(crate) fn push(&mut self, batch: ReadyBatch) {
        let key = DispatchKey::of(&batch);
        let at = self
            .batches
            .partition_point(|(k, _)| k.cmp_under(&key, self.policy).is_lt());
        self.jobs += batch.len();
        self.batches.insert(at, (key, batch));
    }

    /// The key of the batch the policy runs next, so a caller mixing
    /// batches with other work (DAG stages) can compare like for like.
    pub(crate) fn peek(&self) -> Option<DispatchKey> {
        self.batches.front().map(|&(key, _)| key)
    }

    /// Removes and returns the batch the policy runs next.
    pub(crate) fn pop(&mut self) -> Option<ReadyBatch> {
        let (_, batch) = self.batches.pop_front()?;
        self.jobs -= batch.len();
        Some(batch)
    }

    /// Removes every batch, for re-sharding (which orders the jobs
    /// itself).
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = ReadyBatch> {
        self.jobs = 0;
        std::mem::take(&mut self.batches)
            .into_iter()
            .map(|(_, b)| b)
    }

    pub(crate) fn jobs(&self) -> usize {
        self.jobs
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// The policy-relevant attributes of one schedulable unit (a ready batch
/// or a ready DAG stage), so heterogeneous work competes for a lease
/// under one ordering.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DispatchKey {
    /// When the unit became dispatchable.
    pub ready: SimTime,
    /// Scheduling priority (max over batch members).
    pub priority: crate::job::Priority,
    /// Estimated cost for shortest-job-first.
    pub cost: f64,
    /// Submission-order tiebreak.
    pub id: JobId,
}

impl DispatchKey {
    /// A ready batch's key: its ready time, the highest member priority,
    /// the summed member cost and the first member's id.
    fn of(batch: &ReadyBatch) -> Self {
        let jobs = &batch.jobs;
        Self {
            ready: batch.ready,
            priority: jobs
                .iter()
                .map(|j| j.spec.priority)
                .max()
                .unwrap_or_default(),
            cost: jobs.iter().map(|j| j.spec.class.estimated_cost()).sum(),
            id: batch.first_id(),
        }
    }

    /// Total order under `policy`: smallest compares first.
    pub fn cmp_under(&self, other: &Self, policy: SchedulerPolicy) -> std::cmp::Ordering {
        let fifo = (self.ready, self.id).cmp(&(other.ready, other.id));
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

/// Sorts a runner's backlog into admission order (arrival, then id),
/// first removing, as rejections returned, every job whose arrival is not
/// an instant of the simulated clock — negative, NaN, infinite or past
/// its range — ([`AdmissionError::InvalidArrival`]) and every job a lease
/// of `cfg` cannot run ([`AdmissionError::UnsupportedShape`]).
pub(crate) fn arrival_order(
    backlog: &mut Vec<QueuedJob>,
    cfg: &ServiceConfig,
    caches: &mut EngineCaches,
) -> Vec<JobOutcome> {
    let mut rejected = Vec::new();
    backlog.retain(|j| {
        let error = if SimTime::try_from_ns(j.spec.arrival_ns).is_none() {
            AdmissionError::InvalidArrival
        } else if !runnable(caches, cfg, j.spec.class) {
            AdmissionError::UnsupportedShape
        } else {
            return true;
        };
        let status = JobStatus::Rejected(error);
        rejected.push(JobOutcome::new(j, status, SimTime::ZERO));
        false
    });
    backlog.sort_by_key(|j| (j.arrival(), j.id));
    rejected
}

/// Whether a lease of `cfg` can run `class`, asked of the checks that
/// would otherwise panic mid-run: a raw transform's cluster engine must
/// plan (it is built here, into `caches`), a PLONK circuit's quotient
/// domain must fit BN254-Fr's two-adicity, a STARK trace must pass
/// [`FriConfig::check_trace_shape`].
fn runnable(caches: &mut EngineCaches, cfg: &ServiceConfig, class: JobClass) -> bool {
    match class.monolithic() {
        JobClass::RawNtt { field, log_n, .. } if field == ServiceField::Goldilocks => {
            raw_engine(&mut caches.engines_g, cfg, field, log_n).is_ok()
        }
        JobClass::RawNtt { field, log_n, .. } => {
            raw_engine(&mut caches.engines_b, cfg, field, log_n).is_ok()
        }
        JobClass::PlonkProve { log_gates } => {
            log_gates <= Bn254Fr::TWO_ADICITY - LOG_QUOTIENT_BLOWUP
        }
        JobClass::StarkCommit { log_trace, columns } => FriConfig::standard()
            .check_trace_shape(columns, log_trace)
            .is_ok(),
        JobClass::ProveDag { .. } => unreachable!("monolithic() unwraps DAG classes"),
    }
}

/// The cluster engine for raw `2^log_n` transforms on a lease of `cfg`,
/// built on first use, or why the lease cannot run that size.
fn raw_engine<'a, F: TwoAdicField>(
    engines: &'a mut BTreeMap<u32, ClusterNttEngine<F>>,
    cfg: &ServiceConfig,
    field: ServiceField,
    log_n: u32,
) -> Result<&'a ClusterNttEngine<F>, String> {
    if let Entry::Vacant(slot) = engines.entry(log_n) {
        let (nodes, spec) = (cfg.lease.nodes, field.spec());
        let node_cfg = presets::a100_nvlink(cfg.lease.gpus_per_node);
        let opts = UniNttOptions::tuned_for(&spec);
        let engine = ClusterNttEngine::try_new(log_n, nodes, &node_cfg, opts, spec)?;
        slot.insert(engine);
    }
    Ok(&engines[&log_n])
}

/// Splits a dequeued batch into still-viable jobs and
/// [`JobStatus::DeadlineExceeded`] outcomes for members whose deadline
/// passed while they sat queued — those are cancelled at `now` and never
/// occupy a lease.
pub(crate) fn split_expired(
    jobs: Vec<QueuedJob>,
    now: SimTime,
) -> (Vec<QueuedJob>, Vec<JobOutcome>) {
    let mut live = Vec::with_capacity(jobs.len());
    let mut expired = Vec::new();
    for job in jobs {
        match job.spec.deadline_ns {
            Some(deadline_ns) if job.deadline().is_some_and(|d| d <= now) => {
                let status = JobStatus::DeadlineExceeded { deadline_ns };
                expired.push(JobOutcome::new(&job, status, now));
            }
            _ => live.push(job),
        }
    }
    (live, expired)
}

/// Runs a coalesced raw-NTT batch on `cluster` from `start`: every member
/// shares the lease, the plan (from the engine cache), and — crucially —
/// one fixed dispatch overhead. Member jobs execute back-to-back with
/// fault recovery, each charged its cluster time rounded once to the
/// event clock, so the last completion is exactly `start + elapsed`; a
/// job that cannot complete because the lease lost its last healthy node
/// lands in `leftover`.
pub(crate) fn run_raw_batch(
    caches: &mut EngineCaches,
    cfg: &ServiceConfig,
    key: BatchKey,
    jobs: &[QueuedJob],
    cluster: &mut Cluster,
    dispatch_seq: u64,
    start: SimTime,
) -> RawDispatch {
    match key.field {
        ServiceField::Goldilocks => run_raw_batch_in::<Goldilocks>(
            &mut caches.engines_g,
            cfg,
            key,
            jobs,
            cluster,
            dispatch_seq,
            start,
        ),
        ServiceField::BabyBear => run_raw_batch_in::<BabyBear>(
            &mut caches.engines_b,
            cfg,
            key,
            jobs,
            cluster,
            dispatch_seq,
            start,
        ),
    }
}

fn run_raw_batch_in<F: TwoAdicField>(
    engines: &mut BTreeMap<u32, ClusterNttEngine<F>>,
    cfg: &ServiceConfig,
    key: BatchKey,
    jobs: &[QueuedJob],
    cluster: &mut Cluster,
    dispatch_seq: u64,
    start: SimTime,
) -> RawDispatch {
    let engine = raw_engine(engines, cfg, key.field, key.log_n)
        .unwrap_or_else(|e| panic!("admission rejects shapes a lease cannot run: {e}"));
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
    let overhead = duration("dispatch_overhead_ns", cfg.dispatch_overhead_ns);
    // `start` plus every job's charge so far.
    let (base, mut t) = (cluster.total_time(), start);
    let mut completions = Vec::with_capacity(jobs.len());
    let mut leftover = Vec::new();
    for (idx, (job, input)) in jobs.iter().zip(&inputs).enumerate() {
        let exec_start = t;
        let ran = engine
            .forward_with_recovery(cluster, input, &cfg.recovery)
            .map(|mut report| {
                let output = if key.forward {
                    std::mem::take(&mut report.output)
                } else {
                    inverse_from_forward(&report.output, inv_n, cluster)
                };
                (report, output)
            });
        t = start + (cluster.total_time() - base);
        let Ok((report, output)) = ran else {
            leftover.extend_from_slice(&jobs[idx..]);
            break;
        };
        if let Some(flat) = &references {
            assert_eq!(
                output,
                flat[idx * n..(idx + 1) * n],
                "cluster output diverged from the CPU reference for {}",
                job.id
            );
        }
        let done = t + overhead;
        completions.push(Completion {
            outcome: JobOutcome {
                batch_size: jobs.len(),
                retries: report.total_retries(),
                replans: report.replans,
                output_digest: digest(&output),
                ..JobOutcome::new(job, JobStatus::Completed, done)
            },
            exec_start,
            done,
            job: *job,
        });
    }
    RawDispatch {
        elapsed: t - start + overhead,
        completions,
        leftover,
    }
}

/// The canned PLONK fixture for one circuit size (built on first use).
pub(crate) fn plonk_fixture(caches: &mut EngineCaches, log_gates: u32) -> &PlonkFixture {
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

/// One proof job as a single dispatch (a [`JobClass::ProveDag`] job runs
/// as its [`JobClass::monolithic`] form): a PLONK proof over the canned
/// circuit of its size, or a STARK trace commitment over the canned
/// trace of its shape, through the simulated backends. Returns the
/// simulated duration (excluding the fixed dispatch overhead; the caller
/// charges that) and the output's content digest.
pub(crate) fn run_proof(
    caches: &mut EngineCaches,
    cfg: &ServiceConfig,
    class: JobClass,
) -> (SimTime, u64) {
    let gpus = cfg.lease.total_gpus();
    match class.monolithic() {
        JobClass::PlonkProve { log_gates } => {
            let fixture = plonk_fixture(caches, log_gates);
            let mut backend =
                Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
            let proof = prove(&fixture.pk, &fixture.witness, &[], &mut backend);
            if cfg.verify_outputs {
                assert!(
                    verify(&fixture.vk, &proof, &[]),
                    "service-produced proof must verify"
                );
            }
            (backend.report().total(), proof.content_digest())
        }
        JobClass::StarkCommit { log_trace, columns } => {
            let trace = stark_fixture(caches, log_trace, columns);
            let mut backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
            let config = FriConfig::standard();
            let commitment = commit_trace(trace, &config, &mut backend);
            if cfg.verify_outputs {
                assert!(
                    verify_trace(&commitment, &config),
                    "service-produced commitment must verify"
                );
            }
            (backend.sim_time(), commitment.content_digest())
        }
        JobClass::RawNtt { .. } => unreachable!("raw jobs always carry a batch key"),
        JobClass::ProveDag { .. } => unreachable!("monolithic() unwraps DAG classes"),
    }
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

/// Commits one completion and returns its outcome for the report. With
/// telemetry on, the job's lifecycle spans go on its own track: a `job`
/// root covering arrival → completion, with `queued` and `execute`
/// children splitting the interval at dispatch time.
pub(crate) fn commit_completion(c: &Completion) -> JobOutcome {
    let o = c.outcome;
    let Some(root) = unintt_telemetry::reserve_span_id() else {
        return o;
    };
    use unintt_telemetry::{fresh_id, record_span, Span, SpanLevel};
    let track = o.id.to_string();
    record_span(|| Span {
        id: fresh_id(),
        parent: Some(root),
        name: "queued".into(),
        level: SpanLevel::Serve,
        category: "queue",
        track: track.clone(),
        t_start: c.job.arrival(),
        t_end: c.exec_start,
        attrs: vec![],
    });
    record_span(|| Span {
        id: fresh_id(),
        parent: Some(root),
        name: "execute".into(),
        level: SpanLevel::Serve,
        category: "execute",
        track: track.clone(),
        t_start: c.exec_start,
        t_end: c.done,
        attrs: vec![("class", o.class_name.into())],
    });
    record_span(|| Span {
        id: root,
        parent: None,
        name: "job".into(),
        level: SpanLevel::Serve,
        category: "job",
        track,
        t_start: c.job.arrival(),
        t_end: c.done,
        attrs: vec![
            ("class", o.class_name.into()),
            ("batch", o.batch_size.into()),
        ],
    });
    unintt_telemetry::counter_add("serve_jobs_completed", 1);
    o
}

/// Deterministic synthetic payload for one raw job.
pub(crate) fn payload<F: Field>(id: JobId, log_n: u32) -> Vec<F> {
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

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::Rng;
    use unintt_ntt::Direction;

    use super::*;
    use crate::job::{JobClass, JobSpec, Priority};

    /// One random batch of fresh jobs: raw NTTs of two sizes (equal costs
    /// are common) or a `key: None` proof singleton, priorities drawn
    /// from all three classes.
    fn fresh_batch(rng: &mut StdRng, next_id: &mut u64, ready: SimTime) -> ReadyBatch {
        let proof = rng.gen_range(0..5) == 0;
        let len = if proof { 1 } else { 1 + rng.gen_range(0..3) };
        let jobs = (0..len)
            .map(|_| {
                let class = if proof {
                    JobClass::PlonkProve { log_gates: 5 }
                } else {
                    JobClass::RawNtt {
                        field: ServiceField::Goldilocks,
                        log_n: 8 + rng.gen_range(0..2) as u32,
                        direction: Direction::Forward,
                    }
                };
                let mut spec = JobSpec::new(0, class, 0.0);
                spec.priority =
                    [Priority::Low, Priority::Normal, Priority::High][rng.gen_range(0..3) as usize];
                *next_id += 1;
                QueuedJob {
                    id: JobId(*next_id),
                    spec,
                }
            })
            .collect();
        ReadyBatch {
            key: (!proof).then_some(BatchKey {
                field: ServiceField::Goldilocks,
                log_n: 8,
                forward: true,
            }),
            jobs,
            ready,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random push/pop sequences: every pop is the batch the linear
        /// scan picks over the same contents, and the job count is the
        /// summed batch lengths after every step.
        #[test]
        fn ready_queue_pops_what_the_scan_picks(
            seed in any::<u64>(),
            policy in 0usize..3,
            steps in 1usize..160,
        ) {
            let policy = [
                SchedulerPolicy::Fifo,
                SchedulerPolicy::Priority,
                SchedulerPolicy::ShortestJobFirst,
            ][policy];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = ReadyQueue::new(policy);
            let mut scan: Vec<ReadyBatch> = Vec::new();
            let mut popped: Vec<ReadyBatch> = Vec::new();
            let mut next_id = 0u64;
            // Mostly pushes for `steps` steps, then pops until empty.
            for step in 0.. {
                if step >= steps && scan.is_empty() {
                    break;
                }
                if step < steps && (scan.is_empty() || rng.gen_range(0..5) < 3) {
                    // Times start at 400 µs: a chain of under 160
                    // requeues, each ready up to 2 µs before the head,
                    // stays on the clock.
                    let ns = |ns: f64| SimTime::from_ns(400_000.0 + ns);
                    let head = queue.peek().map_or(ns(0.0), |k| k.ready);
                    // Coarse times tie often; a requeue is the tail of an
                    // earlier pop, ready before the current head.
                    let batch = match rng.gen_range(0..4) {
                        0 if !popped.is_empty() => {
                            let mut b = popped.swap_remove(rng.gen_range(0..popped.len() as u64) as usize);
                            let keep = 1 + rng.gen_range(0..b.jobs.len() as u64) as usize;
                            b.jobs.drain(..b.jobs.len() - keep);
                            b.ready = head - SimTime::from_ns(1_000.0 * rng.gen_range(0..3) as f64);
                            b
                        }
                        1 => fresh_batch(&mut rng, &mut next_id, head),
                        _ => {
                            let ready = ns(1_000.0 * rng.gen_range(0..6) as f64);
                            fresh_batch(&mut rng, &mut next_id, ready)
                        }
                    };
                    scan.push(batch.clone());
                    queue.push(batch);
                } else {
                    let (idx, key) = next_batch_index(&scan, policy).expect("non-empty");
                    let want = scan.swap_remove(idx);
                    prop_assert_eq!(queue.peek().map(|k| k.id), Some(key.id));
                    let got = queue.pop();
                    prop_assert_eq!(got.as_ref(), Some(&want));
                    popped.push(want);
                }
                prop_assert_eq!(queue.jobs(), scan.iter().map(ReadyBatch::len).sum::<usize>());
                prop_assert_eq!(queue.is_empty(), scan.is_empty());
            }
            prop_assert!(queue.pop().is_none() && queue.peek().is_none());
        }
    }
}
