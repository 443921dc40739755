//! The fleet: several independent simulated clusters behind a shard
//! router, surviving injected chaos.
//!
//! Where [`crate::ProofService`] schedules one cluster, [`FleetService`]
//! runs `clusters` of them, each with its own [`LeasePool`], coalescer
//! and [`HealthMachine`]. A rendezvous [`ShardRouter`] places jobs by
//! `(tenant, shape)` so same-shaped work from one tenant lands on one
//! warm cluster and coalesces. Resilience machinery on top:
//!
//! * **Circuit breakers** — consecutive dispatch failures (or a chaos
//!   kill) trip a cluster into Quarantined; half-open probes with
//!   exponential backoff + seeded jitter re-admit it through Repairing.
//! * **Failover** — when a cluster dies mid-burst, its in-flight and
//!   queued jobs re-shard to survivors. Commit is idempotent, keyed by
//!   [`JobId`]: a job's result lands exactly once no matter how many
//!   times chaos forces a re-dispatch.
//! * **Hedged dispatch** — a batch whose projected completion overruns
//!   `hedge.factor ×` the running p99 is speculatively duplicated on
//!   another cluster; first result wins per job and the loser is
//!   cancelled, refunding its lease.
//! * **Deadline-aware admission + graceful degradation** — queued jobs
//!   whose deadline passes are cancelled at dequeue (typed
//!   [`JobStatus::DeadlineExceeded`]); past the fleet's soft capacity,
//!   Low-priority (bulk) traffic is shed before latency-sensitive
//!   traffic, and everything sheds at the hard cap.
//!
//! Everything stays on the deterministic simulated clock: the same
//! submissions, configuration and chaos plan replay bit-identically.

use std::collections::{BTreeMap, BTreeSet};

use unintt_gpu_sim::FieldSpec;
use unintt_telemetry::StreamHist;

use crate::coalesce::{BatchKey, Coalescer, QueuedJob, ReadyBatch};
use crate::config::ServiceConfig;
use crate::dispatch::{self, Completion, EngineCaches};
use crate::health::{HealthConfig, HealthMachine, HealthState};
use crate::job::{
    AdmissionError, JobClass, JobId, JobOutcome, JobSpec, JobStatus, Priority, ServiceField,
};
use crate::lease::LeasePool;
use crate::metrics::{LeaseMetrics, ServiceMetrics};
use crate::router::ShardRouter;
use crate::service::ServiceReport;

/// What chaos does to a cluster at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosKind {
    /// The whole cluster drops: in-flight work past the kill instant is
    /// lost, queued work re-shards, the breaker opens.
    Kill,
    /// Replacement hardware comes up; the next half-open probe succeeds.
    Revive,
}

/// One scripted chaos action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosEvent {
    /// When, simulated ns.
    pub t_ns: f64,
    /// Which cluster.
    pub cluster: usize,
    /// Kill or revive.
    pub kind: ChaosKind,
}

/// A seedable, scripted schedule of cluster kills and revivals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Events in firing order (sorted by time at run start).
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// No chaos: the fault-free baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill `cluster` at `t_kill_ns`, revive it at `t_revive_ns`.
    pub fn kill_revive(cluster: usize, t_kill_ns: f64, t_revive_ns: f64) -> Self {
        assert!(t_kill_ns < t_revive_ns, "revive must follow the kill");
        Self {
            events: vec![
                ChaosEvent {
                    t_ns: t_kill_ns,
                    cluster,
                    kind: ChaosKind::Kill,
                },
                ChaosEvent {
                    t_ns: t_revive_ns,
                    cluster,
                    kind: ChaosKind::Revive,
                },
            ],
        }
    }

    /// A rolling outage: clusters `0..count` die one after another,
    /// each down for `outage_ns` starting `stagger_ns` apart from
    /// `t_first_ns`.
    pub fn rolling(count: usize, t_first_ns: f64, stagger_ns: f64, outage_ns: f64) -> Self {
        let mut events = Vec::with_capacity(count * 2);
        for c in 0..count {
            let t = t_first_ns + c as f64 * stagger_ns;
            events.push(ChaosEvent {
                t_ns: t,
                cluster: c,
                kind: ChaosKind::Kill,
            });
            events.push(ChaosEvent {
                t_ns: t + outage_ns,
                cluster: c,
                kind: ChaosKind::Revive,
            });
        }
        Self { events }
    }
}

/// Straggler-hedging knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HedgeConfig {
    /// A dispatch projected to overrun `factor ×` the running p99 batch
    /// duration is hedged.
    pub factor: f64,
    /// Batch-duration samples required before hedging arms (the p99 is
    /// meaningless on a handful of points).
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            factor: 3.0,
            min_samples: 16,
        }
    }
}

/// Tunables for [`FleetService`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of independent clusters.
    pub clusters: usize,
    /// Per-cluster configuration (leases, coalescing, policy, faults).
    pub base: ServiceConfig,
    /// Circuit-breaker and recovery tuning.
    pub health: HealthConfig,
    /// Straggler hedging; `None` disables it.
    pub hedge: Option<HedgeConfig>,
    /// Fleet-wide queued-job count past which Low-priority (bulk)
    /// arrivals are shed.
    pub soft_capacity: usize,
    /// Fleet-wide queued-job count past which every arrival is shed.
    pub hard_capacity: usize,
    /// Seed for the rendezvous shard router.
    pub router_seed: u64,
    /// Scripted kills and revivals.
    pub chaos: ChaosPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            clusters: 3,
            base: ServiceConfig::default(),
            health: HealthConfig::default(),
            hedge: Some(HedgeConfig::default()),
            soft_capacity: 768,
            hard_capacity: 1024,
            router_seed: 0xf1ee_7000_0000_0001,
            chaos: ChaosPlan::none(),
        }
    }
}

/// Resilience counters a fleet run accumulates on top of the usual
/// [`ServiceMetrics`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetStats {
    /// Jobs re-sharded to a survivor after their cluster died.
    pub failovers: u64,
    /// Speculative (hedge) dispatches launched.
    pub hedges: u64,
    /// Jobs whose first result came from a hedge, not the primary.
    pub hedge_wins: u64,
    /// Losing halves of hedge pairs cancelled early (lease refunded).
    pub hedge_cancels: u64,
    /// Circuit-breaker trips (chaos kills included).
    pub quarantines: u64,
    /// Half-open probes launched.
    pub probes: u64,
    /// Clusters re-admitted after recovery.
    pub readmissions: u64,
    /// Accepted jobs cancelled at dequeue for hopeless deadlines.
    pub deadline_cancelled: u64,
    /// Jobs shed by overload backpressure, per tenant.
    pub shed_by_tenant: BTreeMap<u32, u64>,
    /// Fraction of the horizon each cluster was routable (0–1).
    pub availability: Vec<f64>,
    /// Health-state names at drain, one per cluster.
    pub final_states: Vec<&'static str>,
}

/// Everything one fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// One entry per submitted job, sorted by job id.
    pub outcomes: Vec<JobOutcome>,
    /// Aggregated service metrics (classes, latency, leases fleet-wide).
    pub metrics: ServiceMetrics,
    /// Resilience counters.
    pub fleet: FleetStats,
}

impl FleetReport {
    /// True when every *accepted* job reached a terminal success state:
    /// completed, or cancelled for a deadline nobody could meet. Shed
    /// and rejected jobs are excluded — they were never accepted. This
    /// is the chaos harness's "zero failures" condition.
    pub fn zero_accepted_failures(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| !o.accepted() || o.completed() || o.deadline_exceeded())
    }

    /// `JobId → output digest` for every completed raw-NTT job, for
    /// bit-identity comparison against a fault-free run.
    pub fn digests(&self) -> BTreeMap<JobId, u64> {
        self.outcomes
            .iter()
            .filter(|o| o.completed() && o.output_digest != 0)
            .map(|o| (o.id, o.output_digest))
            .collect()
    }

    /// Downgrades to a [`ServiceReport`] (drops the fleet counters).
    pub fn into_service_report(self) -> ServiceReport {
        ServiceReport {
            outcomes: self.outcomes,
            metrics: self.metrics,
            stage_ns: BTreeMap::new(),
        }
    }
}

/// The multi-cluster front door. Mirrors [`crate::ProofService`]:
/// submissions accumulate, [`run`](Self::run) plays the stream.
pub struct FleetService {
    cfg: FleetConfig,
    backlog: Vec<QueuedJob>,
    next_id: u64,
}

impl FleetService {
    /// A fleet with the given configuration.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.clusters >= 1, "a fleet needs at least one cluster");
        assert!(
            cfg.soft_capacity <= cfg.hard_capacity,
            "soft capacity cannot exceed the hard cap"
        );
        Self {
            cfg,
            backlog: Vec::new(),
            next_id: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Submits one job, returning its id.
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

    /// Jobs waiting to be played.
    pub fn pending(&self) -> usize {
        self.backlog.len()
    }

    /// Plays every submitted job through the fleet on the simulated
    /// clock. The chaos plan (if any) fires on schedule. Panics if the
    /// plan leaves the whole fleet dead forever with work still queued —
    /// a chaos plan must revive enough capacity to drain.
    pub fn run(&mut self) -> FleetReport {
        let backlog = std::mem::take(&mut self.backlog);
        FleetRunner::new(self.cfg.clone()).run(backlog)
    }
}

/// One cluster's scheduler state inside the fleet.
struct ClusterState {
    pool: LeasePool,
    coalescer: Coalescer,
    ready: Vec<ReadyBatch>,
    health: HealthMachine,
    /// Chaos switch: `false` between a Kill and its Revive. Distinct
    /// from health — a revived cluster stays quarantined until a probe
    /// succeeds.
    alive: bool,
    /// Availability accounting: when the current routable stretch began,
    /// and routable time banked so far.
    routable_since: Option<f64>,
    routable_total_ns: f64,
}

impl ClusterState {
    fn queued(&self) -> usize {
        self.coalescer.queued() + self.ready.iter().map(ReadyBatch::len).sum::<usize>()
    }

    /// Close the current routable stretch (breaker tripping or drain).
    fn bank_routable(&mut self, now: f64) {
        if let Some(since) = self.routable_since.take() {
            self.routable_total_ns += now - since;
        }
    }
}

/// A dispatched batch whose results have not all committed yet.
struct InFlight {
    seq: u64,
    cluster: usize,
    lease: usize,
    key: Option<BatchKey>,
    /// Per-job results in completion-time order; `cursor` marks how many
    /// have been offered for commit.
    completions: Vec<Completion>,
    cursor: usize,
    done_ns: f64,
    is_hedge: bool,
    /// The paired dispatch (primary ↔ hedge), by seq.
    partner: Option<u64>,
}

/// The discrete-event engine behind [`FleetService::run`].
struct FleetRunner {
    cfg: FleetConfig,
    clusters: Vec<ClusterState>,
    router: ShardRouter,
    caches: EngineCaches,
    in_flight: Vec<InFlight>,
    /// Hedges scheduled but not yet launched: `(fire_ns, primary_seq)`.
    pending_hedges: Vec<(f64, u64)>,
    /// Accepted jobs with no routable cluster right now; re-offered on
    /// the next re-admission.
    parked: Vec<QueuedJob>,
    committed: BTreeSet<JobId>,
    /// Live in-flight copies per uncommitted job; a job whose coverage
    /// drops to zero uncommitted must be re-sharded.
    coverage: BTreeMap<JobId, u32>,
    outcomes: Vec<JobOutcome>,
    batch_sizes: Vec<usize>,
    peak_queue: usize,
    dispatch_seq: u64,
    /// Streaming batch wall-time distribution, the hedge deadline's p99
    /// source. A log-bucketed histogram rather than a full sample vec:
    /// memory stays O(buckets) over arbitrarily long runs, and the
    /// bucketed p99's ≤0.8 % relative error is noise against the 3×
    /// hedge factor applied on top of it.
    samples: StreamHist,
    chaos: Vec<ChaosEvent>,
    chaos_idx: usize,
    stats: FleetStats,
}

impl FleetRunner {
    fn new(cfg: FleetConfig) -> Self {
        let clusters = (0..cfg.clusters)
            .map(|c| ClusterState {
                pool: LeasePool::new(cfg.base.num_leases, cfg.base.lease),
                coalescer: Coalescer::new(cfg.base.batch_window_ns, cfg.base.max_batch),
                ready: Vec::new(),
                health: HealthMachine::new(cfg.health, c),
                alive: true,
                routable_since: Some(0.0),
                routable_total_ns: 0.0,
            })
            .collect();
        let mut chaos = cfg.chaos.events.clone();
        chaos.sort_by(|a, b| {
            a.t_ns
                .partial_cmp(&b.t_ns)
                .expect("chaos times are finite")
                .then(a.cluster.cmp(&b.cluster))
        });
        let router = ShardRouter::new(cfg.router_seed);
        Self {
            cfg,
            clusters,
            router,
            caches: EngineCaches::new(),
            in_flight: Vec::new(),
            pending_hedges: Vec::new(),
            parked: Vec::new(),
            committed: BTreeSet::new(),
            coverage: BTreeMap::new(),
            outcomes: Vec::new(),
            batch_sizes: Vec::new(),
            peak_queue: 0,
            dispatch_seq: 0,
            samples: StreamHist::new(),
            chaos,
            chaos_idx: 0,
            stats: FleetStats::default(),
        }
    }

    fn run(mut self, mut backlog: Vec<QueuedJob>) -> FleetReport {
        backlog.sort_by(|a, b| {
            a.spec
                .arrival_ns
                .partial_cmp(&b.spec.arrival_ns)
                .expect("arrival times are finite")
                .then(a.id.cmp(&b.id))
        });
        let total = backlog.len();
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;

        // Livelock guard: every iteration must either advance `now` or
        // change state; a bound far above any real run turns a stuck
        // event loop into a diagnosable panic instead of a hang.
        let iter_cap = 1_000_000 + 100 * total as u64;
        let mut iters = 0u64;
        loop {
            iters += 1;
            assert!(
                iters < iter_cap,
                "fleet event loop stalled at t={now} ns \
                 (arrivals {next_arrival}/{}, {} in flight, {} parked)",
                backlog.len(),
                self.in_flight.len(),
                self.parked.len(),
            );
            let work_remaining = next_arrival < backlog.len()
                || !self.parked.is_empty()
                || !self.in_flight.is_empty()
                || !self.pending_hedges.is_empty()
                || self.clusters.iter().any(|c| c.queued() > 0);
            let Some(t) = self.next_event_ns(&backlog, next_arrival, work_remaining) else {
                break;
            };
            now = now.max(t);

            // Order matters for determinism and semantics: results that
            // completed by `now` commit before chaos can destroy them;
            // health transitions precede routing; dispatch goes last so
            // it sees every batch that became ready at this instant.
            self.commit_due(now);
            self.retire_due(now);
            self.fire_chaos(now);
            self.step_health(now);
            self.launch_due_hedges(now);
            for c in 0..self.clusters.len() {
                if self.clusters[c].alive {
                    let closed = self.clusters[c].coalescer.close_due(now);
                    self.clusters[c].ready.extend(closed);
                }
            }
            while next_arrival < backlog.len() && backlog[next_arrival].spec.arrival_ns <= now {
                let job = backlog[next_arrival];
                next_arrival += 1;
                self.admit(job, now);
            }
            self.retry_parked(now);
            self.dispatch_all(now);
        }

        assert!(
            self.parked.is_empty() && self.coverage.values().all(|&c| c == 0),
            "fleet drained every accepted job — chaos plans must revive \
             enough capacity to finish"
        );
        self.outcomes.sort_by_key(|o| o.id);
        assert_eq!(self.outcomes.len(), total, "every job is accounted for");

        let horizon = ServiceMetrics::horizon(&self.outcomes);
        for c in self.clusters.iter_mut() {
            c.bank_routable(horizon);
        }
        self.stats.availability = self
            .clusters
            .iter()
            .map(|c| {
                if horizon > 0.0 {
                    c.routable_total_ns / horizon
                } else {
                    1.0
                }
            })
            .collect();
        self.stats.final_states = self
            .clusters
            .iter()
            .map(|c| c.health.state().name())
            .collect();
        let leases: Vec<LeaseMetrics> = self
            .clusters
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| {
                let base = ci * self.cfg.base.num_leases;
                c.pool
                    .leases()
                    .iter()
                    .map(move |l| LeaseMetrics::from_lease(l, base + l.id, horizon))
            })
            .collect();
        let metrics =
            ServiceMetrics::build_parts(&self.outcomes, &self.batch_sizes, self.peak_queue, leases);
        FleetReport {
            outcomes: self.outcomes,
            metrics,
            fleet: self.stats,
        }
    }

    /// The next instant anything happens, or `None` when drained. With
    /// no work left, health probes stop mattering (they would otherwise
    /// tick forever on a permanently dead cluster) — only remaining
    /// chaos events are still played out.
    fn next_event_ns(
        &self,
        backlog: &[QueuedJob],
        next_arrival: usize,
        work_remaining: bool,
    ) -> Option<f64> {
        let mut t: Option<f64> = None;
        let mut consider = |x: f64| {
            t = Some(t.map_or(x, |a: f64| a.min(x)));
        };
        if let Some(j) = backlog.get(next_arrival) {
            consider(j.spec.arrival_ns);
        }
        if !work_remaining {
            if let Some(e) = self.chaos.get(self.chaos_idx) {
                consider(e.t_ns);
            }
            return t;
        }
        for c in &self.clusters {
            if c.alive {
                if let Some(x) = c.coalescer.next_close_ns() {
                    consider(x);
                }
                if c.health.routable() && !c.ready.is_empty() {
                    consider(c.pool.next_free_ns());
                }
            }
            if let Some(x) = c.health.next_event_ns() {
                consider(x);
            }
        }
        for f in &self.in_flight {
            if let Some(c) = f.completions.get(f.cursor) {
                consider(c.outcome.completed_ns);
            }
            consider(f.done_ns);
        }
        for &(at, _) in &self.pending_hedges {
            consider(at);
        }
        if let Some(e) = self.chaos.get(self.chaos_idx) {
            consider(e.t_ns);
        }
        t
    }

    /// Fleet-wide queued jobs (admission-control depth).
    fn queue_depth(&self) -> usize {
        self.clusters
            .iter()
            .map(ClusterState::queued)
            .sum::<usize>()
            + self.parked.len()
    }

    /// Clusters the router may target, Healthy tier preferred.
    fn routable_clusters(&self) -> Vec<usize> {
        let healthy: Vec<usize> = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive && c.health.state() == HealthState::Healthy)
            .map(|(i, _)| i)
            .collect();
        if !healthy.is_empty() {
            return healthy;
        }
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.alive && c.health.routable())
            .map(|(i, _)| i)
            .collect()
    }

    /// Admission: backpressure sheds (bulk first), then shard routing.
    fn admit(&mut self, job: QueuedJob, now: f64) {
        let depth = self.queue_depth();
        let over_hard = depth >= self.cfg.hard_capacity;
        let over_soft = depth >= self.cfg.soft_capacity;
        if over_hard || (over_soft && job.spec.priority == Priority::Low) {
            self.shed(job, depth, now);
            return;
        }
        self.place(job, now);
        self.peak_queue = self.peak_queue.max(self.queue_depth());
        if unintt_telemetry::recording() {
            unintt_telemetry::counter_add("serve_jobs_admitted", 1);
            unintt_telemetry::gauge_set("serve_queue_depth", self.queue_depth() as f64);
            unintt_telemetry::gauge_max("serve_queue_depth_peak", self.peak_queue as f64);
        }
    }

    /// Graceful degradation: record an `Overloaded` shed.
    fn shed(&mut self, job: QueuedJob, depth: usize, now: f64) {
        let tenant = job.spec.tenant;
        self.outcomes.push(JobOutcome {
            id: job.id,
            tenant,
            class_name: job.spec.class.name(),
            status: JobStatus::Rejected(AdmissionError::Overloaded {
                depth,
                soft_capacity: self.cfg.soft_capacity,
                priority: job.spec.priority,
            }),
            arrival_ns: job.spec.arrival_ns,
            completed_ns: now,
            batch_size: 0,
            retries: 0,
            replans: 0,
            missed_deadline: false,
            output_digest: 0,
        });
        *self.stats.shed_by_tenant.entry(tenant).or_insert(0) += 1;
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: "overload-shed".into(),
            kind: unintt_telemetry::InstantKind::Shed,
            track: "admission".into(),
            t_ns: now,
            attrs: vec![("tenant", u64::from(tenant).into())],
        });
        unintt_telemetry::counter_add("sim_shed_jobs", 1);
        unintt_telemetry::counter_add_labeled("serve_shed_jobs", "tenant", u64::from(tenant), 1);
    }

    /// Routes one accepted job to its shard's coalescer (or parks it
    /// when nothing is routable).
    fn place(&mut self, job: QueuedJob, now: f64) {
        let candidates = self.routable_clusters();
        let Some(target) = self
            .router
            .route(job.spec.tenant, &job.spec.class, &candidates)
        else {
            self.parked.push(job);
            return;
        };
        let cluster = &mut self.clusters[target];
        if let Some(batch) = cluster.coalescer.offer(job, now) {
            cluster.ready.push(batch);
        }
    }

    /// Re-offers parked jobs once some cluster is routable again.
    fn retry_parked(&mut self, now: f64) {
        if self.parked.is_empty() || self.routable_clusters().is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked);
        parked.sort_by_key(|j| j.id);
        for job in parked {
            self.place(job, now);
        }
    }

    /// Commits every in-flight result due by `now`, idempotently — the
    /// first copy of a job's result wins; duplicates are dropped. Then
    /// cancels hedge-pair losers made fully redundant.
    fn commit_due(&mut self, now: f64) {
        // Gather (time, seq) of due completions and replay in global
        // deterministic order.
        loop {
            let mut best: Option<(f64, u64, usize)> = None;
            for (idx, f) in self.in_flight.iter().enumerate() {
                if let Some(c) = f.completions.get(f.cursor) {
                    let t = c.outcome.completed_ns;
                    if t <= now && best.is_none_or(|(bt, bs, _)| (t, f.seq) < (bt, bs)) {
                        best = Some((t, f.seq, idx));
                    }
                }
            }
            let Some((_, _, idx)) = best else { break };
            let f = &mut self.in_flight[idx];
            let c = f.completions[f.cursor].clone();
            f.cursor += 1;
            let id = c.outcome.id;
            let was_hedge = f.is_hedge;
            if self.committed.insert(id) {
                self.outcomes.push(dispatch::commit_completion(&c));
                if was_hedge {
                    self.stats.hedge_wins += 1;
                }
            }
        }
        self.cancel_redundant(now);
    }

    /// Cancels any live hedge-pair member whose every job is already
    /// committed (its partner won): the lease is refunded from `now`.
    fn cancel_redundant(&mut self, now: f64) {
        let mut cancelled: Vec<usize> = Vec::new();
        for (idx, f) in self.in_flight.iter().enumerate() {
            if f.partner.is_some()
                && f.done_ns > now
                && f.completions
                    .iter()
                    .all(|c| self.committed.contains(&c.outcome.id))
            {
                cancelled.push(idx);
            }
        }
        for &idx in cancelled.iter().rev() {
            let f = self.in_flight.swap_remove(idx);
            for c in &f.completions {
                self.uncover(c.outcome.id);
            }
            let lease = self.clusters[f.cluster].pool.lease_mut(f.lease);
            if lease.free_at_ns == f.done_ns {
                lease.busy_ns -= f.done_ns - now;
                lease.free_at_ns = now;
            }
            // Unlink the partner so it won't look for us later.
            if let Some(p) = f.partner {
                if let Some(partner) = self.in_flight.iter_mut().find(|g| g.seq == p) {
                    partner.partner = None;
                }
            }
            self.stats.hedge_cancels += 1;
        }
    }

    fn uncover(&mut self, id: JobId) {
        if let Some(n) = self.coverage.get_mut(&id) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.coverage.remove(&id);
            }
        }
    }

    /// Removes in-flights fully played out by `now`.
    fn retire_due(&mut self, now: f64) {
        let mut idx = 0;
        while idx < self.in_flight.len() {
            let f = &self.in_flight[idx];
            if f.done_ns <= now && f.cursor == f.completions.len() {
                let f = self.in_flight.swap_remove(idx);
                for c in &f.completions {
                    self.uncover(c.outcome.id);
                }
            } else {
                idx += 1;
            }
        }
    }

    /// Fires every chaos event due by `now`, in schedule order.
    fn fire_chaos(&mut self, now: f64) {
        while let Some(&e) = self.chaos.get(self.chaos_idx) {
            if e.t_ns > now {
                break;
            }
            self.chaos_idx += 1;
            match e.kind {
                ChaosKind::Kill => self.kill_cluster(e.cluster, e.t_ns),
                ChaosKind::Revive => {
                    self.clusters[e.cluster].alive = true;
                    // Replacement hardware: every lease comes back whole
                    // after the configured swap time.
                    let repair_ns = self.cfg.base.repair_ns;
                    let pool = &mut self.clusters[e.cluster].pool;
                    for l in 0..pool.len() {
                        let lease = pool.lease_mut(l);
                        lease.free_at_ns = lease.free_at_ns.min(e.t_ns);
                        lease.repair(e.t_ns, repair_ns);
                    }
                }
            }
        }
    }

    /// A whole cluster drops at `t`: quarantine it, lose its un-finished
    /// in-flight work, and re-shard everything to survivors.
    fn kill_cluster(&mut self, cluster: usize, t: f64) {
        let state = &mut self.clusters[cluster];
        state.alive = false;
        state.bank_routable(t);
        state.health.quarantine(t);
        self.stats.quarantines += 1;
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: "cluster-kill".into(),
            kind: unintt_telemetry::InstantKind::Quarantine,
            track: format!("cluster{cluster}"),
            t_ns: t,
            attrs: vec![],
        });
        unintt_telemetry::counter_add("sim_quarantines", 1);

        // In-flight work on the dead cluster: results completed by `t`
        // were committed by `commit_due`; the rest are lost. Jobs whose
        // last live copy died re-shard to survivors.
        let mut orphans: Vec<QueuedJob> = Vec::new();
        let mut idx = 0;
        while idx < self.in_flight.len() {
            if self.in_flight[idx].cluster != cluster {
                idx += 1;
                continue;
            }
            let f = self.in_flight.swap_remove(idx);
            // Refund the lease for simulated time that never ran.
            let lease = self.clusters[cluster].pool.lease_mut(f.lease);
            if f.done_ns > t && lease.free_at_ns == f.done_ns {
                lease.busy_ns -= f.done_ns - t;
                lease.free_at_ns = t;
            }
            if let Some(p) = f.partner {
                if let Some(partner) = self.in_flight.iter_mut().find(|g| g.seq == p) {
                    partner.partner = None;
                }
            }
            for c in &f.completions {
                let id = c.outcome.id;
                self.uncover(id);
                if !self.committed.contains(&id) && !self.coverage.contains_key(&id) {
                    orphans.push(c.job);
                }
            }
        }
        // Queued work re-shards wholesale.
        let state = &mut self.clusters[cluster];
        let ready = std::mem::take(&mut state.ready);
        let flushed = state.coalescer.flush(t);
        let mut requeued: Vec<QueuedJob> = orphans;
        for b in ready.into_iter().chain(flushed) {
            requeued.extend(b.jobs);
        }
        requeued.sort_by_key(|j| j.id);
        let n = requeued.len() as u64;
        if n > 0 {
            self.stats.failovers += n;
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "failover".into(),
                kind: unintt_telemetry::InstantKind::Failover,
                track: format!("cluster{cluster}"),
                t_ns: t,
                attrs: vec![("jobs", requeued.len().into())],
            });
            unintt_telemetry::counter_add("sim_failovers", n);
        }
        for job in requeued {
            self.place(job, t);
        }
    }

    /// Advances every health machine: due probes resolve (success iff
    /// the hardware is back), completed warmups re-admit.
    fn step_health(&mut self, now: f64) {
        for c in 0..self.clusters.len() {
            let alive = self.clusters[c].alive;
            let health = &mut self.clusters[c].health;
            if health.probe_due(now) {
                self.stats.probes += 1;
                health.probe_result(now, alive);
            }
            if health.try_readmit(now) {
                self.clusters[c].routable_since = Some(now);
                self.stats.readmissions += 1;
                unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                    name: "readmit".into(),
                    kind: unintt_telemetry::InstantKind::Quarantine,
                    track: format!("cluster{c}"),
                    t_ns: now,
                    attrs: vec![],
                });
            }
        }
    }

    /// Launches hedges whose deadline fired and whose primary is still
    /// live with uncommitted work.
    fn launch_due_hedges(&mut self, now: f64) {
        let mut due: Vec<u64> = Vec::new();
        self.pending_hedges.retain(|&(at, seq)| {
            if at <= now {
                due.push(seq);
                false
            } else {
                true
            }
        });
        due.sort_unstable();
        for seq in due {
            self.launch_hedge(seq, now);
        }
    }

    fn launch_hedge(&mut self, primary_seq: u64, now: f64) {
        let Some(pi) = self.in_flight.iter().position(|f| f.seq == primary_seq) else {
            return; // primary already killed or cancelled
        };
        let (p_cluster, p_key, stragglers): (usize, Option<BatchKey>, Vec<QueuedJob>) = {
            let p = &self.in_flight[pi];
            let jobs = p
                .completions
                .iter()
                .skip(p.cursor)
                .filter(|c| !self.committed.contains(&c.outcome.id))
                .map(|c| c.job)
                .collect();
            (p.cluster, p.key, jobs)
        };
        let Some(key) = p_key else { return };
        if stragglers.is_empty() {
            return;
        }
        // Pick the routable cluster (≠ primary) whose lease frees
        // soonest; ties break toward the lower index.
        let target = self
            .routable_clusters()
            .into_iter()
            .filter(|&c| c != p_cluster)
            .map(|c| (self.clusters[c].pool.next_free_ns(), c))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .expect("lease clocks are finite")
                    .then(a.1.cmp(&b.1))
            })
            .map(|(_, c)| c);
        let Some(target) = target else { return };
        let start = self.clusters[target].pool.next_free_ns().max(now);
        let hedge_seq = self.dispatch_raw(target, key, stragglers, start, true, Some(primary_seq));
        if let Some(hs) = hedge_seq {
            if let Some(p) = self.in_flight.iter_mut().find(|f| f.seq == primary_seq) {
                p.partner = Some(hs);
            }
            self.stats.hedges += 1;
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "hedge".into(),
                kind: unintt_telemetry::InstantKind::Hedge,
                track: format!("cluster{target}"),
                t_ns: now,
                attrs: vec![("primary", primary_seq.into())],
            });
            unintt_telemetry::counter_add("sim_hedges", 1);
        }
    }

    /// Dispatches every cluster's ready work onto its free leases.
    fn dispatch_all(&mut self, now: f64) {
        for c in 0..self.clusters.len() {
            loop {
                let cl = &self.clusters[c];
                if !(cl.alive && cl.health.routable())
                    || cl.ready.is_empty()
                    || !cl.pool.any_free(now)
                {
                    break;
                }
                let batch =
                    dispatch::take_next_batch(&mut self.clusters[c].ready, self.cfg.base.policy);
                self.dispatch_batch(c, batch, now);
            }
        }
    }

    /// One batch on cluster `c`: deadline-expire, then run.
    fn dispatch_batch(&mut self, c: usize, batch: ReadyBatch, now: f64) {
        let (jobs, expired) = dispatch::split_expired(batch.jobs, now);
        if !expired.is_empty() {
            let n = expired.len() as u64;
            self.stats.deadline_cancelled += n;
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: "deadline-cancel".into(),
                kind: unintt_telemetry::InstantKind::Shed,
                track: format!("cluster{c}"),
                t_ns: now,
                attrs: vec![("jobs", expired.len().into())],
            });
            unintt_telemetry::counter_add("serve_deadline_cancelled", n);
            self.outcomes.extend(expired);
        }
        if jobs.is_empty() {
            return;
        }
        match batch.key {
            Some(key) => {
                self.dispatch_raw(c, key, jobs, now, false, None);
            }
            None => self.dispatch_singleton(c, jobs[0], now),
        }
    }

    /// Runs a raw batch on cluster `c` starting at `start`, registering
    /// the in-flight. Returns the dispatch seq (None if the batch lost
    /// every job to a dead-on-arrival lease — cannot happen in practice
    /// because dead leases were repaired at dispatch end).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_raw(
        &mut self,
        c: usize,
        key: BatchKey,
        jobs: Vec<QueuedJob>,
        start: f64,
        is_hedge: bool,
        partner: Option<u64>,
    ) -> Option<u64> {
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        let field_spec = match key.field {
            ServiceField::Goldilocks => FieldSpec::goldilocks(),
            ServiceField::BabyBear => FieldSpec::babybear(),
        };
        let lease_id = {
            let lease = self.clusters[c].pool.earliest();
            lease.id
        };
        let mut cluster = self.clusters[c]
            .pool
            .lease_mut(lease_id)
            .build_cluster(field_spec);
        let mut result = dispatch::run_raw_batch(
            &mut self.caches,
            &self.cfg.base,
            key,
            &jobs,
            &mut cluster,
            seq,
            start,
        );
        // `start + elapsed` and the last per-job completion are the same
        // instant computed with different float association; clamp so no
        // completion lands (one ULP) after the in-flight's `done`.
        let mut done = start + result.elapsed_ns;
        if let Some(last) = result.completions.last() {
            done = done.max(last.outcome.completed_ns);
        }
        self.batch_sizes.push(jobs.len());
        unintt_telemetry::record_span(|| unintt_telemetry::Span {
            id: unintt_telemetry::fresh_id(),
            parent: None,
            name: if is_hedge {
                "hedge-dispatch"
            } else {
                "dispatch"
            }
            .into(),
            level: unintt_telemetry::SpanLevel::Serve,
            category: "dispatch",
            track: format!("cluster{c}-lease{lease_id}"),
            t_start_ns: start,
            t_end_ns: done,
            attrs: vec![("jobs", jobs.len().into()), ("seq", seq.into())],
        });
        {
            let lease = self.clusters[c].pool.lease_mut(lease_id);
            lease.absorb_losses(&cluster);
            lease.free_at_ns = done;
            lease.busy_ns += result.elapsed_ns;
            lease.dispatches += 1;
        }
        // Health bookkeeping + leftover failover.
        if result.leftover.is_empty() {
            self.clusters[c].health.record_success();
        } else {
            let lease = self.clusters[c].pool.lease_mut(lease_id);
            lease.repair(done, self.cfg.base.repair_ns);
            let tripped = self.clusters[c].health.record_failure(done);
            if tripped {
                self.trip_breaker(c, done);
            }
            let leftover = std::mem::take(&mut result.leftover);
            self.stats.failovers += leftover.len() as u64;
            unintt_telemetry::counter_add("sim_failovers", leftover.len() as u64);
            for job in leftover {
                self.place(job, done);
            }
        }
        // Coverage + in-flight registration.
        for comp in &result.completions {
            *self.coverage.entry(comp.outcome.id).or_insert(0) += 1;
        }
        let has_completions = !result.completions.is_empty();
        // Hedge arming: only primaries hedge, and only once the p99 is
        // trustworthy.
        if !is_hedge && has_completions {
            if let Some(h) = self.cfg.hedge {
                if self.samples.count() as usize >= h.min_samples {
                    let p99 = self.samples.quantile(0.99);
                    let deadline = start + h.factor * p99;
                    if done > deadline {
                        self.pending_hedges.push((deadline, seq));
                    }
                }
            }
        }
        self.samples.observe(result.elapsed_ns);
        if has_completions {
            self.in_flight.push(InFlight {
                seq,
                cluster: c,
                lease: lease_id,
                key: Some(key),
                completions: result.completions,
                cursor: 0,
                done_ns: done,
                is_hedge,
                partner,
            });
            Some(seq)
        } else {
            None
        }
    }

    /// Runs one PLONK/STARK job on cluster `c` as an in-flight singleton.
    fn dispatch_singleton(&mut self, c: usize, job: QueuedJob, now: f64) {
        self.dispatch_seq += 1;
        let seq = self.dispatch_seq;
        // The fleet runs DAG jobs monolithically (stage interleaving is a
        // single-cluster scheduler feature; the output bytes are the same
        // either way), so match on the monolithic form of the class.
        let (sim_ns, output_digest) = match job.spec.class.monolithic() {
            JobClass::PlonkProve { log_gates } => {
                dispatch::run_plonk(&mut self.caches, &self.cfg.base, log_gates)
            }
            JobClass::StarkCommit { log_trace, columns } => {
                dispatch::run_stark(&mut self.caches, &self.cfg.base, log_trace, columns)
            }
            JobClass::RawNtt { .. } => unreachable!("raw jobs always carry a batch key"),
            JobClass::ProveDag { .. } => unreachable!("monolithic() unwraps DAG classes"),
        };
        let elapsed = sim_ns + self.cfg.base.dispatch_overhead_ns;
        let done = now + elapsed;
        let lease_id = {
            let lease = self.clusters[c].pool.earliest();
            lease.id
        };
        {
            let lease = self.clusters[c].pool.lease_mut(lease_id);
            lease.free_at_ns = done;
            lease.busy_ns += elapsed;
            lease.dispatches += 1;
        }
        self.clusters[c].health.record_success();
        self.batch_sizes.push(1);
        *self.coverage.entry(job.id).or_insert(0) += 1;
        self.in_flight.push(InFlight {
            seq,
            cluster: c,
            lease: lease_id,
            key: None,
            completions: vec![Completion {
                outcome: JobOutcome {
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
                },
                exec_start_ns: now,
                job,
            }],
            cursor: 0,
            done_ns: done,
            is_hedge: false,
            partner: None,
        });
    }

    /// A breaker trip outside chaos (consecutive leftover failures):
    /// queued work re-shards away; in-flight work finishes normally.
    fn trip_breaker(&mut self, c: usize, now: f64) {
        self.clusters[c].bank_routable(now);
        self.stats.quarantines += 1;
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: "breaker-trip".into(),
            kind: unintt_telemetry::InstantKind::Quarantine,
            track: format!("cluster{c}"),
            t_ns: now,
            attrs: vec![],
        });
        unintt_telemetry::counter_add("sim_quarantines", 1);
        let ready = std::mem::take(&mut self.clusters[c].ready);
        let flushed = self.clusters[c].coalescer.flush(now);
        let mut requeued: Vec<QueuedJob> = Vec::new();
        for b in ready.into_iter().chain(flushed) {
            requeued.extend(b.jobs);
        }
        requeued.sort_by_key(|j| j.id);
        for job in requeued {
            self.place(job, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn small_fleet(chaos: ChaosPlan) -> FleetConfig {
        FleetConfig {
            clusters: 3,
            chaos,
            ..FleetConfig::default()
        }
    }

    fn run_stream(cfg: FleetConfig, spec: &WorkloadSpec) -> FleetReport {
        let mut fleet = FleetService::new(cfg);
        fleet.submit_all(spec.generate());
        fleet.run()
    }

    #[test]
    fn fault_free_run_completes_everything() {
        let spec = WorkloadSpec::raw_only(11, 64, 20_000.0);
        let report = run_stream(small_fleet(ChaosPlan::none()), &spec);
        assert_eq!(report.outcomes.len(), 64);
        assert!(report.outcomes.iter().all(JobOutcome::completed));
        assert!(report.zero_accepted_failures());
        assert_eq!(report.fleet.failovers, 0);
        assert_eq!(report.fleet.quarantines, 0);
        assert!(report.fleet.availability.iter().all(|&a| a >= 0.999));
    }

    #[test]
    fn runs_are_bit_identical() {
        let spec = WorkloadSpec::bursty(12, 96, 30_000.0);
        let a = run_stream(small_fleet(ChaosPlan::none()), &spec);
        let b = run_stream(small_fleet(ChaosPlan::none()), &spec);
        assert_eq!(a.digests(), b.digests());
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(a.metrics.classes, b.metrics.classes);
    }

    #[test]
    fn kill_mid_burst_fails_over_with_identical_digests() {
        let spec = WorkloadSpec::bursty(13, 128, 50_000.0);
        let baseline = run_stream(small_fleet(ChaosPlan::none()), &spec);

        // Kill a cluster in the thick of the stream, revive it later.
        let horizon = baseline.metrics.horizon_ns;
        let chaos = ChaosPlan::kill_revive(0, horizon * 0.25, horizon * 0.75);
        let report = run_stream(small_fleet(chaos), &spec);

        assert!(report.zero_accepted_failures(), "no accepted job fails");
        assert_eq!(
            report.digests(),
            baseline.digests(),
            "chaos must not change any job's output bits"
        );
        assert!(report.fleet.quarantines >= 1);
        assert!(
            report.fleet.availability[0] < 0.999,
            "the killed cluster lost routable time: {:?}",
            report.fleet.availability
        );
    }

    #[test]
    fn backpressure_sheds_bulk_before_latency_traffic() {
        let cfg = FleetConfig {
            soft_capacity: 4,
            hard_capacity: 1024,
            ..small_fleet(ChaosPlan::none())
        };
        // A tight burst so depth crosses the soft cap while Low- and
        // High-priority jobs are interleaved.
        let spec = WorkloadSpec {
            burstiness: 0.9,
            ..WorkloadSpec::raw_only(14, 160, 2_000_000.0)
        };
        let report = run_stream(cfg, &spec);
        let shed_low = report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.status,
                    JobStatus::Rejected(AdmissionError::Overloaded {
                        priority: Priority::Low,
                        ..
                    })
                )
            })
            .count();
        let shed_high = report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.status,
                    JobStatus::Rejected(AdmissionError::Overloaded {
                        priority: Priority::High,
                        ..
                    })
                )
            })
            .count();
        assert!(shed_low > 0, "soft cap sheds bulk traffic");
        assert_eq!(shed_high, 0, "latency traffic rides through");
        assert_eq!(
            report.fleet.shed_by_tenant.values().sum::<u64>(),
            report.metrics.shed() as u64
        );
        assert!(report.zero_accepted_failures());
    }

    #[test]
    fn rolling_outage_drains_and_readmits() {
        let spec = WorkloadSpec::bursty(15, 96, 40_000.0);
        let baseline = run_stream(small_fleet(ChaosPlan::none()), &spec);
        let horizon = baseline.metrics.horizon_ns;
        let chaos = ChaosPlan::rolling(2, horizon * 0.2, horizon * 0.3, horizon * 0.25);
        let report = run_stream(small_fleet(chaos), &spec);
        assert!(report.zero_accepted_failures());
        assert_eq!(report.digests(), baseline.digests());
        assert!(report.fleet.readmissions >= 1, "{:?}", report.fleet);
        assert!(report
            .fleet
            .final_states
            .iter()
            .all(|&s| s == "healthy" || s == "repairing" || s == "quarantined"));
    }
}
