//! The proving service: front door, admission control, the
//! discrete-event scheduler loop, and dispatch onto GPU leases.
//!
//! Everything runs on the **simulated clock**: jobs carry arrival
//! timestamps, batches occupy leases for exactly the time the cluster
//! simulation charges, and the coalescing window is simulated time. Two
//! runs over the same submissions and configuration are therefore
//! bit-identical — including under fault injection, whose plans are
//! seeded per dispatch.
//!
//! There is one event loop. Every lease carries
//! [`ServiceConfig::streams_per_lease`] typed compute queues for DAG
//! stages; one queue per lease (the default) *is* the serialized
//! schedule — the `k = 1` case of the loop, not a second scheduler.
//!
//! Transforms are *functionally executed* (not just cost-modelled): with
//! `verify_outputs` on, every raw-NTT result is checked bit-for-bit
//! against a CPU reference computed through [`unintt_ntt::batch`]'s
//! batched path, every PLONK proof is verified, and every STARK
//! commitment is checked. The execution machinery itself lives in
//! [`crate::dispatch`], shared with the multi-cluster fleet runner.

use std::collections::BTreeMap;
use std::sync::mpsc::Receiver;

use unintt_gpu_sim::{FieldSpec, StreamSet};
use unintt_pipeline::{ProofDag, ProofPipeline};

use crate::coalesce::{Coalescer, QueuedJob, ReadyBatch};
use crate::config::ServiceConfig;
use crate::dispatch::{self, DispatchKey, EngineCaches};
use crate::job::{
    AdmissionError, DagKind, JobClass, JobId, JobOutcome, JobSpec, JobStatus, ServiceField,
};
use crate::lease::LeasePool;
use crate::metrics::ServiceMetrics;

/// Everything one run produced: per-job outcomes plus the metrics
/// snapshot.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// One entry per submitted job, sorted by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregated metrics.
    pub metrics: ServiceMetrics,
    /// Lease-occupied simulated time per DAG stage kind, summed over
    /// every [`JobClass::ProveDag`] job (empty when none ran). This is
    /// the per-stage time attribution experiment E19 reports.
    pub stage_ns: BTreeMap<&'static str, f64>,
}

impl ServiceReport {
    /// True when every submitted job ran to completion.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(JobOutcome::completed)
    }
}

/// The multi-tenant proving service front door.
///
/// Submissions accumulate (directly via [`submit`](Self::submit) or
/// drained from a channel via [`ingest`](Self::ingest)); a call to
/// [`run`](Self::run) then plays the whole stream through the simulated
/// service and returns the report.
pub struct ProofService {
    cfg: ServiceConfig,
    backlog: Vec<QueuedJob>,
    next_id: u64,
}

impl ProofService {
    /// A service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self {
            cfg,
            backlog: Vec::new(),
            next_id: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Submits one job, returning its id. Admission control runs at the
    /// job's simulated arrival instant during [`run`](Self::run), not
    /// here.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.backlog.push(QueuedJob { id, spec });
        id
    }

    /// Submits a whole stream.
    pub fn submit_all(&mut self, specs: impl IntoIterator<Item = JobSpec>) -> Vec<JobId> {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Drains every job currently buffered in `rx` (the channel front
    /// door for producers on other threads) into the backlog.
    pub fn ingest(&mut self, rx: &Receiver<JobSpec>) -> Vec<JobId> {
        let mut ids = Vec::new();
        while let Ok(spec) = rx.try_recv() {
            ids.push(self.submit(spec));
        }
        ids
    }

    /// Jobs waiting to be played.
    pub fn pending(&self) -> usize {
        self.backlog.len()
    }

    /// Plays every submitted job through the service on the simulated
    /// clock and returns the report. The backlog is consumed; the service
    /// can be reused for a fresh stream afterwards.
    pub fn run(&mut self) -> ServiceReport {
        let backlog = std::mem::take(&mut self.backlog);
        Runner::new(self.cfg.clone()).run(backlog)
    }
}

/// One [`JobClass::ProveDag`] job being executed stage-by-stage: the
/// staged pipeline, its validated DAG, and per-stage completion times on
/// the simulated clock.
struct ActiveDag {
    job: QueuedJob,
    kind: DagKind,
    pipe: ProofPipeline,
    dag: ProofDag,
    /// Simulated completion instant per stage (`None` = not run yet).
    completion: Vec<Option<f64>>,
    /// Stage has been dispatched: it may still be in flight on a queue,
    /// with `completion` not yet committed.
    started: Vec<bool>,
    /// When the first stage started executing (for the lifecycle spans).
    first_start_ns: Option<f64>,
}

/// One in-flight DAG stage: everything needed to commit its completion
/// when its queue drains.
struct PendingStage {
    job: JobId,
    si: usize,
    lease: usize,
    queue: usize,
    start_ns: f64,
    seq: u64,
    stage_name: String,
    kind_name: &'static str,
}

/// The discrete-event execution engine behind [`ProofService::run`].
struct Runner {
    cfg: ServiceConfig,
    pool: LeasePool,
    coalescer: Coalescer,
    ready: Vec<ReadyBatch>,
    dags: Vec<ActiveDag>,
    outcomes: Vec<JobOutcome>,
    batch_sizes: Vec<usize>,
    stage_ns: BTreeMap<&'static str, f64>,
    peak_queue: usize,
    dispatch_seq: u64,
    caches: EngineCaches,
}

impl Runner {
    fn new(cfg: ServiceConfig) -> Self {
        let pool = LeasePool::new(cfg.num_leases, cfg.lease);
        let coalescer = Coalescer::new(cfg.batch_window_ns, cfg.max_batch);
        Self {
            cfg,
            pool,
            coalescer,
            ready: Vec::new(),
            dags: Vec::new(),
            outcomes: Vec::new(),
            batch_sizes: Vec::new(),
            stage_ns: BTreeMap::new(),
            peak_queue: 0,
            dispatch_seq: 0,
            caches: EngineCaches::new(),
        }
    }

    /// The event loop: advance the simulated clock to the next arrival,
    /// window close, lease release or stage completion; process
    /// everything due; repeat until the stream is drained.
    ///
    /// Every lease carries a [`StreamSet`] of
    /// [`ServiceConfig::streams_per_lease`] typed compute queues. With
    /// one queue a lease holds one DAG stage at a time — the serialized
    /// schedule. With more, a compute-bound MSM stage and a memory-bound
    /// NTT stage of *different* proofs (or independent stages of one
    /// proof) co-reside on one lease, both advancing under the
    /// interference-model slowdown instead of serializing; same-class
    /// stages still serialize — the set rejects them at admission. Raw
    /// batches and monolithic proofs keep exclusive occupancy at every
    /// queue count: they need a lease with no batch in flight *and*
    /// every queue drained.
    ///
    /// Outputs do not depend on the queue count because stage execution
    /// stays functional-at-dispatch: `run_stage` mutates proof state the
    /// instant the stage is admitted, in DAG dependency order with
    /// totally ordered transcript barriers, while the overlap model only
    /// decides when the *completion* commits on the simulated clock.
    ///
    /// # Panics
    ///
    /// Panics if `streams_per_lease` is outside
    /// `1..=`[`unintt_core::MAX_STREAMS_PER_LEASE`] or the interference
    /// model is invalid.
    fn run(mut self, mut backlog: Vec<QueuedJob>) -> ServiceReport {
        let k = self.cfg.streams_per_lease;
        assert!(
            (1..=unintt_core::MAX_STREAMS_PER_LEASE as usize).contains(&k),
            "streams_per_lease must be 1..={}, got {k}",
            unintt_core::MAX_STREAMS_PER_LEASE
        );
        self.cfg.interference.validate();
        let mut streams: Vec<StreamSet> = (0..self.pool.len())
            .map(|_| StreamSet::new(k, self.cfg.interference))
            .collect();
        // Last instant each lease released work (batch end or stage
        // completion). Ordering accepting leases by this is
        // earliest-free lease selection at one queue.
        let mut release_ns = vec![0.0f64; self.pool.len()];
        let mut pending: BTreeMap<u64, PendingStage> = BTreeMap::new();

        backlog.sort_by(|a, b| {
            a.spec
                .arrival_ns
                .partial_cmp(&b.spec.arrival_ns)
                .expect("arrival times are finite")
                .then(a.id.cmp(&b.id))
        });
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;

        loop {
            // 1. Close every coalescing window that has expired.
            let closed = self.coalescer.close_due(now);
            for batch in &closed {
                unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                    name: "window-flush".into(),
                    kind: unintt_telemetry::InstantKind::CoalescerFlush,
                    track: "coalescer".into(),
                    t_ns: now,
                    attrs: vec![("jobs", batch.len().into())],
                });
            }
            self.ready.extend(closed);

            // 2. Admit arrivals due by now (in arrival, then id order).
            while next_arrival < backlog.len() && backlog[next_arrival].spec.arrival_ns <= now {
                let job = backlog[next_arrival];
                next_arrival += 1;
                self.admit(job, now);
            }

            // 3. Dispatch everything placeable at `now`. Batches and DAG
            // stages compete under one policy ordering (batches win
            // exact ties); a batch blocked by stage residency waits
            // while complementary stages keep flowing (the scheduler is
            // work-conserving across classes).
            loop {
                let batch = dispatch::next_batch_index(&self.ready, self.cfg.policy).and_then(
                    |(bi, key)| {
                        self.idle_lease(&streams, &release_ns, now)
                            .map(|l| (bi, key, l))
                    },
                );
                let stage = self.next_ready_stage(now, &streams, &release_ns);
                match (batch, stage) {
                    (Some((bi, bk, lease)), Some((_, _, _, sk)))
                        if bk.cmp_under(&sk, self.cfg.policy) != std::cmp::Ordering::Greater =>
                    {
                        let batch = self.ready.swap_remove(bi);
                        self.dispatch(batch, lease, now);
                    }
                    (Some(_), Some((di, si, lease, _))) => {
                        self.start_stage(di, si, lease, now, &mut streams, &mut pending);
                    }
                    (Some((bi, _, lease)), None) => {
                        let batch = self.ready.swap_remove(bi);
                        self.dispatch(batch, lease, now);
                    }
                    (None, Some((di, si, lease, _))) => {
                        self.start_stage(di, si, lease, now, &mut streams, &mut pending);
                    }
                    (None, None) => break,
                }
            }

            // 4. The next event: an arrival, a window close, a lease
            // coming free (batch end or repair), or an in-flight stage
            // completing. Everything due at `now` was already processed,
            // so every candidate is strictly in the future.
            let t_arrival = backlog.get(next_arrival).map(|j| j.spec.arrival_ns);
            let t_close = self.coalescer.next_close_ns();
            // The earliest *future* lease-free instant. Not
            // `next_free_ns()`: that is the global minimum, and a lease
            // whose only work is in its queues keeps a stale
            // `free_at_ns <= now` that would mask a busier lease's batch
            // ending later — exactly the wake-up a waiting stage needs.
            let t_lease = if self.ready.is_empty() && self.dags.is_empty() {
                None
            } else {
                self.pool
                    .leases()
                    .iter()
                    .map(|l| l.free_at_ns)
                    .filter(|&t| t > now && t.is_finite())
                    .min_by(f64::total_cmp)
            };
            let t_complete = streams
                .iter()
                .filter_map(StreamSet::earliest_completion_ns)
                .min_by(f64::total_cmp);
            let Some(t) = [t_arrival, t_close, t_lease, t_complete]
                .into_iter()
                .flatten()
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.min(t)))
                })
            else {
                break;
            };
            debug_assert!(t > now, "events must advance the simulated clock");
            now = now.max(t);

            // 5. Advance every queue to `now` and commit the stages
            // finishing there, in (lease, queue) order.
            for l in 0..streams.len() {
                streams[l].advance_to(now);
                for fin in streams[l].take_finished() {
                    let p = pending.remove(&fin.key).expect("known in-flight stage");
                    release_ns[l] = release_ns[l].max(now);
                    self.complete_stage(p, now);
                }
            }
        }

        // Queue-residency wall time becomes lease busy time. Batches
        // and stages never overlap on one lease (batches require every
        // queue drained), so the union adds cleanly to the batch time
        // already accumulated in `busy_ns`.
        for (l, ss) in streams.iter().enumerate() {
            debug_assert!(ss.is_idle(), "queues drained at shutdown");
            self.pool.lease_mut(l).busy_ns += ss.busy_union_ns;
        }
        debug_assert!(pending.is_empty(), "no stage left in flight");

        self.outcomes.sort_by_key(|o| o.id);
        debug_assert!(self.dags.is_empty(), "every DAG ran to completion");
        debug_assert_eq!(
            self.outcomes.len(),
            backlog.len(),
            "every job is accounted for"
        );
        let metrics = ServiceMetrics::build(
            &self.outcomes,
            &self.batch_sizes,
            self.peak_queue,
            &self.pool,
        );
        ServiceReport {
            outcomes: self.outcomes,
            metrics,
            stage_ns: self.stage_ns,
        }
    }

    /// The lease a coalesced batch or monolithic proof would run on: no
    /// batch in flight *and* every queue drained (batches occupy the
    /// whole device). Longest-idle first, then lowest id.
    fn idle_lease(&self, streams: &[StreamSet], release_ns: &[f64], now: f64) -> Option<usize> {
        let leases = self.pool.leases();
        (0..leases.len())
            .filter(|&l| leases[l].free_at_ns <= now && streams[l].is_idle())
            .min_by(|&a, &b| {
                let ka = leases[a].free_at_ns.max(release_ns[a]);
                let kb = leases[b].free_at_ns.max(release_ns[b]);
                ka.total_cmp(&kb).then(a.cmp(&b))
            })
    }

    /// The ready DAG stage the scheduler would start at `now`, with the
    /// lease it lands on: candidates — stages whose dependencies have
    /// all completed by `now` — are ordered by the dispatch policy, and
    /// the first one some lease can accept wins — a stage whose class
    /// is resident everywhere is skipped this round so complementary
    /// work behind it keeps flowing. Per-stage cost for
    /// shortest-job-first is the job's estimate split evenly across its
    /// stages, so one big proof's stages rank like the medium jobs they
    /// effectively are. The lease minimizes (interference penalty,
    /// idle-since, id): spread first, then pair complementary classes.
    fn next_ready_stage(
        &self,
        now: f64,
        streams: &[StreamSet],
        release_ns: &[f64],
    ) -> Option<(usize, usize, usize, DispatchKey)> {
        let mut cands: Vec<(usize, usize, DispatchKey)> = Vec::new();
        for (di, dag) in self.dags.iter().enumerate() {
            let per_stage_cost = dag.job.spec.class.estimated_cost() / dag.dag.len() as f64;
            for s in 0..dag.dag.len() {
                if dag.started[s]
                    || dag.completion[s].is_some()
                    || dag.dag.nodes()[s].kind.is_barrier()
                {
                    continue;
                }
                let Some(avail) = Self::stage_avail(dag, s) else {
                    continue;
                };
                if avail > now {
                    continue;
                }
                cands.push((
                    di,
                    s,
                    DispatchKey {
                        ready_ns: avail,
                        priority: dag.job.spec.priority,
                        cost: per_stage_cost,
                        id: dag.job.id,
                    },
                ));
            }
        }
        cands.sort_by(|a, b| a.2.cmp_under(&b.2, self.cfg.policy));
        let leases = self.pool.leases();
        for (di, s, key) in cands {
            let class = self.dags[di].dag.nodes()[s].kind.resource_class();
            let lease = (0..leases.len())
                .filter(|&l| leases[l].free_at_ns <= now && streams[l].can_accept(class))
                .min_by(|&a, &b| {
                    streams[a]
                        .join_penalty(class)
                        .total_cmp(&streams[b].join_penalty(class))
                        .then(
                            (leases[a].free_at_ns.max(release_ns[a]))
                                .total_cmp(&leases[b].free_at_ns.max(release_ns[b])),
                        )
                        .then(a.cmp(&b))
                });
            if let Some(l) = lease {
                return Some((di, s, l, key));
            }
        }
        None
    }

    /// Functionally executes one ready stage at `now` and admits its
    /// simulated duration to a queue of lease `lease_id`. The proof
    /// state mutates *here*, at dispatch; the completion (and with it
    /// every dependent stage) commits when the queue drains.
    fn start_stage(
        &mut self,
        di: usize,
        si: usize,
        lease_id: usize,
        now: f64,
        streams: &mut [StreamSet],
        pending: &mut BTreeMap<u64, PendingStage>,
    ) {
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        let dag = &mut self.dags[di];
        // DAG stages run fault-free in the service, like the monolithic
        // proof dispatches (their backends own machines separate from the
        // lease's raw-NTT cluster); stage replay under injected faults is
        // covered by the pipeline and prover test suites.
        let elapsed = dag
            .pipe
            .run_stage(si, &self.cfg.recovery)
            .expect("DAG stages run fault-free in the service")
            + self.cfg.stage_overhead_ns;
        dag.started[si] = true;
        dag.first_start_ns.get_or_insert(now);
        let node = &dag.dag.nodes()[si];
        let class = node.kind.resource_class();
        let joining = !streams[lease_id].is_idle();
        let queue = streams[lease_id].admit(seq, class, elapsed);
        pending.insert(
            seq,
            PendingStage {
                job: dag.job.id,
                si,
                lease: lease_id,
                queue,
                start_ns: now,
                seq,
                stage_name: node.name.clone(),
                kind_name: node.kind.name(),
            },
        );
        unintt_telemetry::counter_add("serve_dag_stages", 1);
        self.pool.lease_mut(lease_id).dispatches += 1;
        if unintt_telemetry::recording() {
            if joining {
                unintt_telemetry::counter_add("sim_costream_pairs", 1);
            }
            let occ =
                streams.iter().map(|s| s.in_flight() as f64).sum::<f64>() / streams.len() as f64;
            unintt_telemetry::gauge_set("sim_stream_occupancy", occ);
            unintt_telemetry::gauge_max("sim_stream_occupancy_peak", occ);
        }
    }

    /// Commits one stage completion at `now` — its stretched end under
    /// the interference model — emitting the per-queue span, cascading
    /// unblocked barriers, and retiring the DAG when this was its last
    /// stage.
    fn complete_stage(&mut self, p: PendingStage, now: f64) {
        let di = self
            .dags
            .iter()
            .position(|d| d.job.id == p.job)
            .expect("completing stage belongs to an active DAG");
        self.dags[di].completion[p.si] = Some(now);
        *self.stage_ns.entry(p.kind_name).or_insert(0.0) += now - p.start_ns;
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id: unintt_telemetry::fresh_id(),
            parent: None,
            name: p.stage_name.clone(),
            level: unintt_telemetry::SpanLevel::Serve,
            category: "stage",
            track: format!("lease{}.q{}", p.lease, p.queue),
            t_start_ns: p.start_ns,
            t_end_ns: now,
            attrs: vec![
                ("kind", p.kind_name.into()),
                ("job", p.job.0.into()),
                ("seq", p.seq.into()),
                ("queue", (p.queue as u64).into()),
            ],
        });
        self.cascade_barriers(di);
        if self.dags[di].pipe.is_complete() {
            self.finish_dag(di);
        }
    }

    /// Jobs waiting (coalescing + ready + in-progress DAG proofs), the
    /// admission-control depth.
    fn queue_depth(&self) -> usize {
        self.coalescer.queued()
            + self.ready.iter().map(ReadyBatch::len).sum::<usize>()
            + self.dags.len()
    }

    /// Admission control + coalescer offer for one arrival.
    fn admit(&mut self, job: QueuedJob, now: f64) {
        let depth = self.queue_depth();
        if depth >= self.cfg.queue_capacity {
            self.outcomes.push(JobOutcome {
                id: job.id,
                tenant: job.spec.tenant,
                class_name: job.spec.class.name(),
                status: JobStatus::Rejected(AdmissionError::QueueFull {
                    depth,
                    capacity: self.cfg.queue_capacity,
                }),
                arrival_ns: job.spec.arrival_ns,
                completed_ns: now,
                batch_size: 0,
                retries: 0,
                replans: 0,
                missed_deadline: false,
                output_digest: 0,
            });
            unintt_telemetry::counter_add("serve_jobs_rejected", 1);
            return;
        }
        if let JobClass::ProveDag { kind } = job.spec.class {
            // DAG jobs skip the coalescer: the pipeline is staged once at
            // admission (over the same fixtures the monolithic runners
            // use) and its ready stages then compete for leases directly.
            let pipe = dispatch::build_dag(&mut self.caches, &self.cfg, kind);
            let dag = pipe.dag();
            let completion = vec![None; dag.len()];
            let started = vec![false; dag.len()];
            self.dags.push(ActiveDag {
                job,
                kind,
                pipe,
                dag,
                completion,
                started,
                first_start_ns: None,
            });
        } else if let Some(batch) = self.coalescer.offer(job, now) {
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "batch-full".into(),
                kind: unintt_telemetry::InstantKind::CoalescerFlush,
                track: "coalescer".into(),
                t_ns: now,
                attrs: vec![("jobs", batch.len().into())],
            });
            self.ready.push(batch);
        }
        self.peak_queue = self.peak_queue.max(self.queue_depth());
        if unintt_telemetry::recording() {
            unintt_telemetry::counter_add("serve_jobs_admitted", 1);
            unintt_telemetry::gauge_set("serve_queue_depth", self.queue_depth() as f64);
            unintt_telemetry::gauge_max("serve_queue_depth_peak", self.peak_queue as f64);
        }
    }

    /// Runs one batch on lease `lease_id` (the caller picks it: the
    /// longest-idle fully drained lease), charging simulated time and
    /// recording outcomes. Members whose deadline already passed are
    /// cancelled here, at dequeue, before the lease is touched.
    fn dispatch(&mut self, batch: ReadyBatch, lease_id: usize, now: f64) {
        debug_assert!(!batch.is_empty());
        let (jobs, expired) = dispatch::split_expired(batch.jobs, now);
        if !expired.is_empty() {
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "deadline-cancel".into(),
                kind: unintt_telemetry::InstantKind::Shed,
                track: "admission".into(),
                t_ns: now,
                attrs: vec![("jobs", expired.len().into())],
            });
            unintt_telemetry::counter_add("serve_deadline_cancelled", expired.len() as u64);
            self.outcomes.extend(expired);
        }
        if jobs.is_empty() {
            return;
        }
        let batch_len = jobs.len();
        self.batch_sizes.push(batch_len);
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        debug_assert!(
            self.pool.leases()[lease_id].free_at_ns <= now,
            "dispatch requires a free lease"
        );

        match batch.key {
            Some(key) => {
                let field_spec = match key.field {
                    ServiceField::Goldilocks => FieldSpec::goldilocks(),
                    ServiceField::BabyBear => FieldSpec::babybear(),
                };
                let mut cluster = self.pool.lease_mut(lease_id).build_cluster(field_spec);
                let result = dispatch::run_raw_batch(
                    &mut self.caches,
                    &self.cfg,
                    key,
                    &jobs,
                    &mut cluster,
                    seq,
                    now,
                );
                for c in &result.completions {
                    self.outcomes.push(dispatch::commit_completion(c));
                }
                let done = now + result.elapsed_ns;
                unintt_telemetry::record_span(|| unintt_telemetry::Span {
                    id: unintt_telemetry::fresh_id(),
                    parent: None,
                    name: "dispatch".into(),
                    level: unintt_telemetry::SpanLevel::Serve,
                    category: "dispatch",
                    track: format!("lease{lease_id}"),
                    t_start_ns: now,
                    t_end_ns: done,
                    attrs: vec![
                        ("jobs", batch_len.into()),
                        ("seq", seq.into()),
                        ("class", "raw-ntt".into()),
                    ],
                });
                let lease = self.pool.lease_mut(lease_id);
                lease.absorb_losses(&cluster);
                lease.free_at_ns = done;
                lease.busy_ns += result.elapsed_ns;
                lease.dispatches += 1;
                if !result.leftover.is_empty() {
                    // The lease ran out of healthy nodes mid-batch: swap
                    // it for fresh hardware and requeue the unfinished
                    // tail. No job is ever failed.
                    lease.repair(done, self.cfg.repair_ns);
                    unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                        name: "lease-repair".into(),
                        kind: unintt_telemetry::InstantKind::LeaseRepair,
                        track: format!("lease{lease_id}"),
                        t_ns: done,
                        attrs: vec![("requeued", result.leftover.len().into())],
                    });
                    self.ready.push(ReadyBatch {
                        key: Some(key),
                        jobs: result.leftover,
                        ready_ns: done,
                    });
                } else if lease.is_dead() {
                    lease.repair(done, self.cfg.repair_ns);
                    unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                        name: "lease-repair".into(),
                        kind: unintt_telemetry::InstantKind::LeaseRepair,
                        track: format!("lease{lease_id}"),
                        t_ns: done,
                        attrs: vec![],
                    });
                }
            }
            None => {
                let job = jobs[0];
                let (sim_ns, output_digest) = match job.spec.class {
                    JobClass::PlonkProve { log_gates } => {
                        dispatch::run_plonk(&mut self.caches, &self.cfg, log_gates)
                    }
                    JobClass::StarkCommit { log_trace, columns } => {
                        dispatch::run_stark(&mut self.caches, &self.cfg, log_trace, columns)
                    }
                    JobClass::RawNtt { .. } => unreachable!("raw jobs always carry a batch key"),
                    JobClass::ProveDag { .. } => {
                        unreachable!("DAG jobs are admitted to the stage scheduler")
                    }
                };
                let elapsed = sim_ns + self.cfg.dispatch_overhead_ns;
                let done = now + elapsed;
                dispatch::record_job_spans(
                    job.id,
                    job.spec.class.name(),
                    job.spec.arrival_ns,
                    now,
                    done,
                    1,
                );
                unintt_telemetry::record_span(|| unintt_telemetry::Span {
                    id: unintt_telemetry::fresh_id(),
                    parent: None,
                    name: "dispatch".into(),
                    level: unintt_telemetry::SpanLevel::Serve,
                    category: "dispatch",
                    track: format!("lease{lease_id}"),
                    t_start_ns: now,
                    t_end_ns: done,
                    attrs: vec![
                        ("jobs", 1u64.into()),
                        ("seq", seq.into()),
                        ("class", job.spec.class.name().into()),
                    ],
                });
                self.outcomes.push(JobOutcome {
                    id: job.id,
                    tenant: job.spec.tenant,
                    class_name: job.spec.class.name(),
                    status: JobStatus::Completed,
                    arrival_ns: job.spec.arrival_ns,
                    completed_ns: done,
                    batch_size: 1,
                    retries: 0,
                    replans: 0,
                    missed_deadline: job.spec.deadline_ns.is_some_and(|d| done > d),
                    output_digest,
                });
                let lease = self.pool.lease_mut(lease_id);
                lease.free_at_ns = done;
                lease.busy_ns += elapsed;
                lease.dispatches += 1;
            }
        }
    }

    /// The availability instant of one not-yet-run stage: its latest
    /// dependency completion (the job's arrival for root stages), or
    /// `None` while any dependency is still outstanding.
    fn stage_avail(dag: &ActiveDag, s: usize) -> Option<f64> {
        let node = &dag.dag.nodes()[s];
        let mut avail = dag.job.spec.arrival_ns;
        for &d in &node.deps {
            avail = avail.max(dag.completion[d]?);
        }
        Some(avail)
    }

    /// Runs every barrier stage whose dependencies are complete. Barriers
    /// are transcript/assembly points: host-only, charge-free, never
    /// occupying a lease — they complete at their latest dependency's
    /// completion instant.
    fn cascade_barriers(&mut self, di: usize) {
        let dag = &mut self.dags[di];
        loop {
            let mut progressed = false;
            for s in 0..dag.dag.len() {
                if dag.completion[s].is_some() || !dag.dag.nodes()[s].kind.is_barrier() {
                    continue;
                }
                let Some(avail) = Self::stage_avail(dag, s) else {
                    continue;
                };
                dag.pipe
                    .run_stage(s, &self.cfg.recovery)
                    .expect("barrier stages are host-only and cannot fault");
                dag.completion[s] = Some(avail);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Commits a completed DAG job: verifies the output (when
    /// configured), records its lifecycle spans and outcome, and retires
    /// the DAG.
    fn finish_dag(&mut self, di: usize) {
        let dag = self.dags.remove(di);
        let done = dag
            .completion
            .iter()
            .map(|c| c.expect("complete DAG has every stage timed"))
            .fold(0.0f64, f64::max);
        if self.cfg.verify_outputs {
            dispatch::verify_dag_output(&mut self.caches, dag.kind, &dag.pipe);
        }
        let digest = dag
            .pipe
            .output_digest()
            .expect("complete pipeline has a digest");
        let exec_start = dag.first_start_ns.unwrap_or(dag.job.spec.arrival_ns);
        dispatch::record_job_spans(
            dag.job.id,
            dag.job.spec.class.name(),
            dag.job.spec.arrival_ns,
            exec_start,
            done,
            1,
        );
        self.batch_sizes.push(1);
        self.outcomes.push(JobOutcome {
            id: dag.job.id,
            tenant: dag.job.spec.tenant,
            class_name: dag.job.spec.class.name(),
            status: JobStatus::Completed,
            arrival_ns: dag.job.spec.arrival_ns,
            completed_ns: done,
            batch_size: 1,
            retries: 0,
            replans: 0,
            missed_deadline: dag.job.spec.deadline_ns.is_some_and(|d| done > d),
            output_digest: digest,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use unintt_ntt::Direction;

    use super::*;
    use crate::config::SchedulerPolicy;
    use crate::job::Priority;
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

    fn run_stream(cfg: ServiceConfig, stream: &[JobSpec]) -> ServiceReport {
        let mut service = ProofService::new(cfg);
        service.submit_all(stream.iter().copied());
        service.run()
    }

    #[test]
    fn overlapped_comm_is_reachable_from_dispatch_and_faster() {
        use unintt_core::CommMode;
        // The same raw-NTT stream under both exchange schedules: every
        // job still completes (verify_outputs bit-checks each against the
        // CPU reference), and the overlapped default finishes the horizon
        // sooner because exchange wire time hides behind compute.
        let stream: Vec<JobSpec> = (0..6)
            .map(|i| raw_spec(14, Direction::Forward, i as f64 * 1_000.0))
            .collect();
        let overlapped = run_stream(ServiceConfig::default(), &stream);
        let blocking = run_stream(
            ServiceConfig {
                comm_mode: CommMode::Blocking,
                ..ServiceConfig::default()
            },
            &stream,
        );
        assert!(overlapped.all_completed() && blocking.all_completed());
        assert!(
            overlapped.metrics.horizon_ns < blocking.metrics.horizon_ns,
            "overlap must shorten the service horizon: {} vs {}",
            overlapped.metrics.horizon_ns,
            blocking.metrics.horizon_ns
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
            ServiceConfig {
                queue_capacity: 4,
                batch_window_ns: 0.0,
                max_batch: 1,
                num_leases: 1,
                ..ServiceConfig::default()
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
}
