//! One cluster's scheduler.
//!
//! [`crate::FleetService`] drives one per cluster (the proving service is
//! the one-cluster case) and keeps only what is fleet-specific (routing,
//! health, chaos, hedging, idempotent commit). A scheduler owns a
//! cluster's lease pool, the typed compute queues on every lease, the
//! coalescer, the policy-ordered ready list and the DAG proofs in
//! progress. Its steps are the pieces of an event loop: close windows,
//! admit, dispatch, name the next event, advance to it — and hand every
//! queued and active job back when the cluster is lost.
//!
//! Every lease carries a [`StreamSet`] of
//! [`ServiceConfig::streams_per_lease`] typed compute queues. With one
//! queue a lease holds one DAG stage at a time — the serialized schedule,
//! the `k = 1` case of the same loop. With more, a compute-bound MSM stage
//! and a memory-bound NTT stage of *different* proofs (or independent
//! stages of one proof) co-reside on one lease, both advancing under the
//! interference-model slowdown instead of serializing; same-class stages
//! still serialize — the set rejects them at admission. Raw batches and
//! monolithic proofs keep exclusive occupancy at every queue count: they
//! need a lease with no batch in flight *and* every queue drained.
//!
//! Outputs do not depend on the queue count because stage execution stays
//! functional-at-dispatch: `run_stage` mutates proof state the instant the
//! stage is admitted, in DAG dependency order with totally ordered
//! transcript barriers, while the overlap model only decides when the
//! *completion* commits on the simulated clock.

use std::collections::BTreeMap;

use unintt_gpu_sim::{SimTime, StreamSet};
use unintt_pipeline::DagRun;

use crate::coalesce::{BatchKey, Coalescer, QueuedJob, ReadyBatch};
use crate::config::ServiceConfig;
use crate::dispatch::{self, Completion, DispatchKey, EngineCaches, ReadyQueue};
use crate::job::{DagKind, JobClass, JobId, JobOutcome, JobStatus};
use crate::lease::LeasePool;

/// What every scheduler of one run shares: the engine and fixture caches,
/// and the dispatch sequence number — global across a fleet's clusters,
/// because it seeds each dispatch's fault plan.
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) caches: EngineCaches,
    seq: u64,
}

impl Shared {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// One operation on the ready list, logged in test builds so
/// `service::tests::raw_op_profile` can replay a run's batch selection
/// alone.
#[cfg(test)]
#[derive(Clone)]
pub(crate) enum ReadyOp {
    Push(ReadyBatch),
    Peek,
    Pop,
}

/// One [`JobClass::ProveDag`] job being executed stage-by-stage: its
/// progress through the stage DAG, released at the job's arrival.
struct ActiveDag {
    job: QueuedJob,
    kind: DagKind,
    run: DagRun,
    /// When the first stage started executing (for the lifecycle spans).
    first_start: Option<SimTime>,
}

/// One in-flight DAG stage: everything needed to commit its completion
/// when its queue drains.
struct PendingStage {
    job: JobId,
    si: usize,
    lease: usize,
    queue: usize,
    start: SimTime,
    stage_name: String,
    kind_name: &'static str,
}

/// One batch (a coalesced raw-NTT batch or a monolithic proof) run on one
/// lease. Its results are the fleet's to commit, when its clock reaches
/// each one.
pub(crate) struct BatchRun {
    pub(crate) seq: u64,
    pub(crate) lease: usize,
    pub(crate) key: Option<BatchKey>,
    pub(crate) start: SimTime,
    /// When the lease frees: `start` plus the run's charges. The last
    /// completion is this instant unless the run ended with `leftover`.
    pub(crate) done: SimTime,
    /// Per-job results, in batch order.
    pub(crate) completions: Vec<Completion>,
    /// Jobs not run because the lease ran out of healthy nodes (the lease
    /// was already repaired); the fleet re-shards them through its
    /// router.
    pub(crate) leftover: Vec<QueuedJob>,
}

/// What one dequeued batch became.
pub(crate) struct Dispatch {
    /// Members cancelled at dequeue because their deadline had passed.
    pub(crate) expired: Vec<JobOutcome>,
    /// The run, or `None` when every member had expired.
    pub(crate) run: Option<BatchRun>,
}

/// The per-cluster scheduler (see the module docs).
pub(crate) struct Scheduler {
    pub(crate) cfg: ServiceConfig,
    /// `cfg`'s per-dispatch and per-stage overheads and repair time on
    /// the event clock.
    dispatch_overhead: SimTime,
    stage_overhead: SimTime,
    pub(crate) repair: SimTime,
    /// Prefix of every telemetry track written here: empty in a
    /// one-cluster fleet, `cluster{c}-` in a larger one.
    label: String,
    pub(crate) pool: LeasePool,
    streams: Vec<StreamSet>,
    /// Last instant each lease released a stage. Ordering accepting
    /// leases by this is earliest-free lease selection at one queue.
    release: Vec<SimTime>,
    coalescer: Coalescer,
    ready: ReadyQueue,
    dags: Vec<ActiveDag>,
    pending: BTreeMap<u64, PendingStage>,
    /// One entry per dispatched batch or finished DAG proof.
    pub(crate) batch_sizes: Vec<usize>,
    /// Lease-occupied simulated time per DAG stage kind.
    pub(crate) stage_time: BTreeMap<&'static str, SimTime>,
    #[cfg(test)]
    pub(crate) ready_log: Vec<ReadyOp>,
}

impl Scheduler {
    /// A scheduler over a fresh lease pool.
    ///
    /// # Panics
    ///
    /// Panics if `streams_per_lease` is outside
    /// `1..=`[`unintt_core::MAX_STREAMS_PER_LEASE`], the interference
    /// model is invalid, or a configured duration is not finite and
    /// `>= 0`.
    pub(crate) fn new(cfg: ServiceConfig, label: String) -> Self {
        let k = cfg.streams_per_lease;
        assert!(
            (1..=unintt_core::MAX_STREAMS_PER_LEASE as usize).contains(&k),
            "streams_per_lease must be 1..={}, got {k}",
            unintt_core::MAX_STREAMS_PER_LEASE
        );
        cfg.interference.validate();
        let [window, dispatch_overhead, stage_overhead, repair] = cfg.durations();
        let pool = LeasePool::new(cfg.num_leases, cfg.lease);
        Self {
            streams: (0..pool.len())
                .map(|_| StreamSet::new(k, cfg.interference))
                .collect(),
            release: vec![SimTime::ZERO; pool.len()],
            coalescer: Coalescer::new(window, cfg.max_batch),
            dispatch_overhead,
            stage_overhead,
            repair,
            ready: ReadyQueue::new(cfg.policy),
            pool,
            cfg,
            label,
            dags: Vec::new(),
            pending: BTreeMap::new(),
            batch_sizes: Vec::new(),
            stage_time: BTreeMap::new(),
            #[cfg(test)]
            ready_log: Vec::new(),
        }
    }

    /// Jobs waiting (coalescing + ready + in-progress DAG proofs), the
    /// admission-control depth.
    pub(crate) fn queued(&self) -> usize {
        self.coalescer.queued() + self.ready.jobs() + self.dags.len()
    }

    /// Closes every coalescing window that has expired by `now`.
    pub(crate) fn close_windows(&mut self, now: SimTime) {
        for batch in self.coalescer.close_due(now) {
            self.flush_instant("window-flush", now, batch.len());
            self.push_ready(batch);
        }
    }

    /// Takes one admitted job at `now`. DAG jobs skip the coalescer: the
    /// pipeline is staged once here (over the same fixtures the monolithic
    /// runners use) and its ready stages then compete for leases directly.
    pub(crate) fn offer(&mut self, job: QueuedJob, now: SimTime, shared: &mut Shared) {
        if let JobClass::ProveDag { kind } = job.spec.class {
            let pipe = dispatch::build_dag(&mut shared.caches, &self.cfg, kind);
            self.dags.push(ActiveDag {
                job,
                kind,
                run: DagRun::new(pipe, job.arrival()),
                first_start: None,
            });
        } else if let Some(batch) = self.coalescer.offer(job, now) {
            self.flush_instant("batch-full", now, batch.len());
            self.push_ready(batch);
        }
    }

    fn flush_instant(&self, name: &str, now: SimTime, jobs: usize) {
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: name.into(),
            kind: unintt_telemetry::InstantKind::CoalescerFlush,
            track: format!("{}coalescer", self.label),
            t: now,
            attrs: vec![("jobs", jobs.into())],
        });
    }

    /// Queues a closed batch for dispatch.
    fn push_ready(&mut self, batch: ReadyBatch) {
        #[cfg(test)]
        self.ready_log.push(ReadyOp::Push(batch.clone()));
        self.ready.push(batch);
    }

    /// Dispatches placeable work at `now` until a batch is dequeued, and
    /// returns it; `None` once nothing more is placeable. Batches and DAG
    /// stages compete under one policy ordering (batches win exact ties);
    /// a batch blocked by stage residency waits while complementary stages
    /// keep flowing (the scheduler is work-conserving across classes).
    pub(crate) fn dispatch_next(&mut self, now: SimTime, shared: &mut Shared) -> Option<Dispatch> {
        loop {
            #[cfg(test)]
            self.ready_log.push(ReadyOp::Peek);
            let batch = self
                .ready
                .peek()
                .and_then(|key| self.idle_lease(now).map(|l| (key, l)));
            let stage = self.next_ready_stage(now);
            match (batch, stage) {
                (Some((bk, lease)), stage)
                    if stage.is_none_or(|(.., sk)| bk.cmp_under(&sk, self.cfg.policy).is_le()) =>
                {
                    #[cfg(test)]
                    self.ready_log.push(ReadyOp::Pop);
                    let batch = self.ready.pop().expect("peeked");
                    return Some(self.dispatch(batch, lease, now, shared));
                }
                (_, Some((di, si, lease, _))) => self.start_stage(di, si, lease, now, shared),
                (_, None) => return None,
            }
        }
    }

    /// The lease a coalesced batch or monolithic proof would run on: no
    /// batch in flight *and* every queue drained (batches occupy the
    /// whole device). Longest-idle first, then lowest id.
    fn idle_lease(&self, now: SimTime) -> Option<usize> {
        let leases = self.pool.leases();
        (0..leases.len())
            .filter(|&l| leases[l].free_at <= now && self.streams[l].is_idle())
            .min_by_key(|&l| (self.idle_since(l), l))
    }

    /// When lease `l` last released work: its batch end or its latest
    /// stage completion.
    fn idle_since(&self, l: usize) -> SimTime {
        self.pool.leases()[l].free_at.max(self.release[l])
    }

    /// The ready DAG stage the scheduler would start at `now`, with the
    /// lease it lands on: candidates — every [`DagRun::ready`] stage, all
    /// available by `now` — are ordered by the dispatch policy, and
    /// the first one some lease can accept wins — a stage whose class
    /// is resident everywhere is skipped this round so complementary
    /// work behind it keeps flowing. Per-stage cost for
    /// shortest-job-first is the job's estimate split evenly across its
    /// stages, so one big proof's stages rank like the medium jobs they
    /// effectively are. The lease minimizes (interference penalty,
    /// idle-since, id): spread first, then pair complementary classes.
    fn next_ready_stage(&self, now: SimTime) -> Option<(usize, usize, usize, DispatchKey)> {
        let mut cands: Vec<(usize, usize, DispatchKey)> = Vec::new();
        for (di, dag) in self.dags.iter().enumerate() {
            let per_stage_cost = dag.job.spec.class.estimated_cost() / dag.run.dag().len() as f64;
            for (s, avail) in dag.run.ready() {
                // Completions commit at the instant the loop reaches and
                // jobs are admitted once they arrived, so nothing ready
                // is available later than `now`.
                debug_assert!(avail <= now, "ready stage available in the future");
                cands.push((
                    di,
                    s,
                    DispatchKey {
                        ready: avail,
                        priority: dag.job.spec.priority,
                        cost: per_stage_cost,
                        id: dag.job.id,
                    },
                ));
            }
        }
        cands.sort_by(|a, b| a.2.cmp_under(&b.2, self.cfg.policy));
        let leases = self.pool.leases();
        let streams = &self.streams;
        for (di, s, key) in cands {
            let class = self.dags[di].run.dag().nodes()[s].kind.resource_class();
            let lease = (0..leases.len())
                .filter(|&l| leases[l].free_at <= now && streams[l].can_accept(class))
                .min_by(|&a, &b| {
                    streams[a]
                        .join_penalty(class)
                        .total_cmp(&streams[b].join_penalty(class))
                        .then((self.idle_since(a), a).cmp(&(self.idle_since(b), b)))
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
        now: SimTime,
        shared: &mut Shared,
    ) {
        let seq = shared.next_seq();
        let dag = &mut self.dags[di];
        // DAG stages run fault-free, like the monolithic proof dispatches
        // (their backends own machines separate from the lease's raw-NTT
        // cluster); stage replay under injected faults is covered by the
        // pipeline and prover test suites.
        let elapsed = dag
            .run
            .start(si, &self.cfg.recovery)
            .expect("DAG stages run fault-free")
            + self.stage_overhead;
        dag.first_start.get_or_insert(now);
        let node = &dag.run.dag().nodes()[si];
        let class = node.kind.resource_class();
        // `advance` skips idle queues, so an idle queue's clock may lag.
        let streams = &mut self.streams[lease_id];
        streams.advance_to(now);
        let joining = !streams.is_idle();
        let queue = streams.admit(seq, class, elapsed);
        self.pending.insert(
            seq,
            PendingStage {
                job: dag.job.id,
                si,
                lease: lease_id,
                queue,
                start: now,
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
            let occ = self
                .streams
                .iter()
                .map(|s| s.in_flight() as f64)
                .sum::<f64>()
                / self.streams.len() as f64;
            unintt_telemetry::gauge_set("sim_stream_occupancy", occ);
            unintt_telemetry::gauge_max("sim_stream_occupancy_peak", occ);
        }
    }

    /// Runs one dequeued batch on lease `lease_id` at `now`. Members whose
    /// deadline already passed are cancelled here, before the lease is
    /// touched.
    fn dispatch(
        &mut self,
        batch: ReadyBatch,
        lease_id: usize,
        now: SimTime,
        shared: &mut Shared,
    ) -> Dispatch {
        debug_assert!(!batch.is_empty());
        let (jobs, expired) = dispatch::split_expired(batch.jobs, now);
        if !expired.is_empty() {
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "deadline-cancel".into(),
                kind: unintt_telemetry::InstantKind::Shed,
                track: format!("{}admission", self.label),
                t: now,
                attrs: vec![("jobs", expired.len().into())],
            });
            unintt_telemetry::counter_add("serve_deadline_cancelled", expired.len() as u64);
        }
        let run =
            (!jobs.is_empty()).then(|| self.run_batch(lease_id, batch.key, jobs, now, shared));
        Dispatch { expired, run }
    }

    /// Hedges `jobs` here: they run on the lease that frees first, from
    /// `now` or when it frees. `None` when that lease has DAG stages
    /// resident (a batch needs the whole device).
    pub(crate) fn hedge(
        &mut self,
        key: BatchKey,
        jobs: Vec<QueuedJob>,
        now: SimTime,
        shared: &mut Shared,
    ) -> Option<BatchRun> {
        let lease = self.pool.earliest();
        let (id, start) = (lease.id, lease.free_at.max(now));
        self.streams[id]
            .is_idle()
            .then(|| self.run_batch(id, Some(key), jobs, start, shared))
    }

    /// Runs `jobs` (a raw batch under `key`, or one monolithic proof) on
    /// lease `lease_id` from `start`, charging simulated time. A lease that
    /// ran out of healthy nodes is swapped for fresh hardware at the end
    /// of the run.
    fn run_batch(
        &mut self,
        lease_id: usize,
        key: Option<BatchKey>,
        jobs: Vec<QueuedJob>,
        start: SimTime,
        shared: &mut Shared,
    ) -> BatchRun {
        let seq = shared.next_seq();
        self.batch_sizes.push(jobs.len());
        let lease = self.pool.lease_mut(lease_id);
        debug_assert!(lease.free_at <= start, "dispatch requires a free lease");
        let (elapsed, completions, leftover) = match key {
            Some(key) => {
                let r = lease.with_cluster(key.field, |cluster| {
                    dispatch::run_raw_batch(
                        &mut shared.caches,
                        &self.cfg,
                        key,
                        &jobs,
                        cluster,
                        seq,
                        start,
                    )
                });
                (r.elapsed, r.completions, r.leftover)
            }
            None => {
                let job = jobs[0];
                let (charged, output_digest) =
                    dispatch::run_proof(&mut shared.caches, &self.cfg, job.spec.class);
                let elapsed = charged + self.dispatch_overhead;
                let done = start + elapsed;
                let outcome = JobOutcome {
                    batch_size: 1,
                    output_digest,
                    ..JobOutcome::new(&job, JobStatus::Completed, done)
                };
                let completion = Completion {
                    outcome,
                    exec_start: start,
                    done,
                    job,
                };
                (elapsed, vec![completion], Vec::new())
            }
        };
        let done = start + elapsed;
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id: unintt_telemetry::fresh_id(),
            parent: None,
            name: "dispatch".into(),
            level: unintt_telemetry::SpanLevel::Serve,
            category: "dispatch",
            track: format!("{}lease{lease_id}", self.label),
            t_start: start,
            t_end: done,
            attrs: vec![
                ("jobs", jobs.len().into()),
                ("seq", seq.into()),
                ("class", jobs[0].spec.class.name().into()),
            ],
        });
        let lease = self.pool.lease_mut(lease_id);
        lease.free_at = done;
        lease.busy += elapsed;
        lease.dispatches += 1;
        if !leftover.is_empty() || lease.is_dead() {
            lease.repair(done, self.repair);
            let requeued = leftover.len();
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "lease-repair".into(),
                kind: unintt_telemetry::InstantKind::LeaseRepair,
                track: format!("{}lease{lease_id}", self.label),
                t: done,
                attrs: if requeued > 0 {
                    vec![("requeued", requeued.into())]
                } else {
                    vec![]
                },
            });
        }
        BatchRun {
            seq,
            lease: lease_id,
            key,
            start,
            done,
            completions,
            leftover,
        }
    }

    /// The next instant something happens here — a window close, a lease
    /// coming free (batch end or repair) while work waits, or an in-flight
    /// stage completing — or `None`. Everything due at `now` was already
    /// processed, so every candidate is strictly in the future.
    pub(crate) fn next_event(&self, now: SimTime) -> Option<SimTime> {
        let t_close = self.coalescer.next_close();
        // The earliest *future* lease-free instant. Not `next_free()`:
        // that is the global minimum, and a lease whose only work is in
        // its queues keeps a stale `free_at <= now` that would mask a
        // busier lease's batch ending later — exactly the wake-up a
        // waiting stage needs.
        let t_lease = if self.ready.is_empty() && self.dags.is_empty() {
            None
        } else {
            self.pool
                .leases()
                .iter()
                .map(|l| l.free_at)
                .filter(|&t| t > now)
                .min()
        };
        let t_complete = self
            .streams
            .iter()
            .filter_map(StreamSet::earliest_completion)
            .min();
        [t_close, t_lease, t_complete].into_iter().flatten().min()
    }

    /// Advances every queue to `now` and commits the stages finishing
    /// there, in (lease, queue) order. Returns the DAG proofs those
    /// completions finished, for the caller to commit.
    pub(crate) fn advance(&mut self, now: SimTime, shared: &mut Shared) -> Vec<Completion> {
        let mut finished = Vec::new();
        if self.pending.is_empty() {
            // Idle queues only move their clock, and `start_stage` moves a
            // queue's clock to `now` before it admits anything.
            return finished;
        }
        for l in 0..self.streams.len() {
            self.streams[l].advance_to(now);
            for fin in self.streams[l].take_finished() {
                self.release[l] = self.release[l].max(now);
                finished.extend(self.complete_stage(fin.key, now, shared));
            }
        }
        finished
    }

    /// Commits the completion of stage dispatch `seq` at `now` — its
    /// stretched end under the interference model — emitting the
    /// per-queue span, and retires the DAG when this completed its last
    /// stage (the barriers it unblocks complete inside
    /// [`DagRun::complete`]).
    fn complete_stage(
        &mut self,
        seq: u64,
        now: SimTime,
        shared: &mut Shared,
    ) -> Option<Completion> {
        let p = self.pending.remove(&seq).expect("known in-flight stage");
        let di = self
            .dags
            .iter()
            .position(|d| d.job.id == p.job)
            .expect("completing stage belongs to an active DAG");
        self.dags[di].run.complete(p.si, now);
        *self.stage_time.entry(p.kind_name).or_default() += now - p.start;
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id: unintt_telemetry::fresh_id(),
            parent: None,
            name: p.stage_name.clone(),
            level: unintt_telemetry::SpanLevel::Serve,
            category: "stage",
            track: format!("{}lease{}.q{}", self.label, p.lease, p.queue),
            t_start: p.start,
            t_end: now,
            attrs: vec![
                ("kind", p.kind_name.into()),
                ("job", p.job.0.into()),
                ("seq", seq.into()),
                ("queue", (p.queue as u64).into()),
            ],
        });
        let done = self.dags[di].run.done()?;
        let dag = self.dags.remove(di);
        if self.cfg.verify_outputs {
            dispatch::verify_dag_output(&mut shared.caches, dag.kind, dag.run.pipe());
        }
        let output_digest = dag
            .run
            .pipe()
            .output_digest()
            .expect("complete pipeline has a digest");
        self.batch_sizes.push(1);
        Some(Completion {
            outcome: JobOutcome {
                batch_size: 1,
                output_digest,
                ..JobOutcome::new(&dag.job, JobStatus::Completed, done)
            },
            exec_start: dag.first_start.unwrap_or(dag.job.arrival()),
            done,
            job: dag.job,
        })
    }

    /// Hands back every queued and active job, in id order: open and
    /// ready batches, and the DAG proofs in progress — their stages are
    /// dropped mid-flight and the proofs restart from admission wherever
    /// they land. Lease busy time keeps the queue residency accounted so
    /// far.
    pub(crate) fn evacuate(&mut self, now: SimTime) -> Vec<QueuedJob> {
        let flushed = self.coalescer.flush(now);
        let mut jobs: Vec<QueuedJob> = self
            .ready
            .drain()
            .chain(flushed)
            .flat_map(|b| b.jobs)
            .chain(self.dags.drain(..).map(|d| d.job))
            .collect();
        self.pending.clear();
        for (l, ss) in self.streams.iter_mut().enumerate() {
            if !ss.is_idle() {
                self.pool.lease_mut(l).busy += ss.busy_union;
                *ss = StreamSet::new(self.cfg.streams_per_lease, self.cfg.interference);
            }
        }
        jobs.sort_by_key(|j| j.id);
        jobs
    }

    /// Ends the run: queue-residency wall time becomes lease busy time.
    /// Batches and stages never overlap on one lease (batches require
    /// every queue drained), so the union adds cleanly to the batch time
    /// already accumulated in `busy`.
    pub(crate) fn finish(&mut self) {
        debug_assert!(
            self.queued() == 0 && self.pending.is_empty(),
            "every job ran to completion"
        );
        for (l, ss) in self.streams.iter().enumerate() {
            debug_assert!(ss.is_idle(), "queues drained at shutdown");
            self.pool.lease_mut(l).busy += ss.busy_union;
        }
    }
}
