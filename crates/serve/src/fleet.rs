//! The fleet: several independent simulated clusters behind a shard
//! router, surviving injected chaos — and the one event loop of the
//! crate.
//!
//! [`FleetService`] drives `clusters` copies of the one cluster scheduler
//! — lease pool, stream queues, coalescer, ready list and stage DAGs each
//! — plus a [`HealthMachine`] per cluster. The proving service is the
//! one-cluster case: [`crate::ProofService`] is this type, and a
//! [`ServiceConfig`] converts into a one-cluster [`FleetConfig`] with no
//! hedging and no chaos. A rendezvous [`ShardRouter`] places jobs by
//! `(tenant, shape)` so same-shaped work from one tenant lands on one
//! warm cluster and coalesces. Resilience machinery on top:
//!
//! * **Circuit breakers** — consecutive dispatch failures (or a chaos
//!   kill) trip a cluster into Quarantined; half-open probes with
//!   exponential backoff + seeded jitter re-admit it through Repairing.
//! * **Failover** — when a cluster dies mid-burst, its in-flight,
//!   queued and in-progress DAG jobs re-shard to survivors (a DAG proof
//!   restarts from admission); so does the unfinished tail of a batch
//!   whose lease ran out of healthy nodes, back through the router —
//!   onto the same cluster when it is the only one. Commit is
//!   idempotent, keyed by [`JobId`]: a job's result lands exactly once
//!   no matter how many times chaos forces a re-dispatch.
//! * **Hedged dispatch** — a batch whose projected completion overruns
//!   `hedge.factor ×` the running p99 is speculatively duplicated on
//!   another cluster; first result wins per job and the loser is
//!   cancelled, refunding its lease.
//! * **Deadline-aware admission + graceful degradation** — queued jobs
//!   whose deadline passes are cancelled at dequeue (typed
//!   [`JobStatus::DeadlineExceeded`]); past the fleet's soft capacity,
//!   Low-priority (bulk) traffic is shed
//!   ([`AdmissionError::Overloaded`]) before latency-sensitive traffic,
//!   and at the hard cap every arrival is rejected
//!   ([`AdmissionError::QueueFull`]).
//!
//! Everything stays on the deterministic simulated clock: the same
//! submissions, configuration and chaos plan replay bit-identically.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::Receiver;

use unintt_gpu_sim::SimTime;
use unintt_telemetry::{InstantKind, StreamHist};

use crate::coalesce::{BatchKey, QueuedJob};
use crate::config::ServiceConfig;
use crate::dispatch::{self, Completion};
use crate::health::{HealthConfig, HealthMachine, HealthState};
use crate::job::{AdmissionError, JobId, JobOutcome, JobSpec, JobStatus, Priority};
use crate::metrics::{LeaseMetrics, ServiceMetrics};
use crate::router::ShardRouter;
use crate::scheduler::{BatchRun, Scheduler, Shared};

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
    /// Per-cluster configuration (leases, coalescing, policy, stream
    /// queues, faults). Admission control is fleet-wide:
    /// `soft_capacity` / `hard_capacity`.
    pub base: ServiceConfig,
    /// Circuit-breaker and recovery tuning.
    pub health: HealthConfig,
    /// Straggler hedging; `None` disables it.
    pub hedge: Option<HedgeConfig>,
    /// Fleet-wide queued-job count at which Low-priority (bulk)
    /// arrivals are shed as [`AdmissionError::Overloaded`].
    pub soft_capacity: usize,
    /// Fleet-wide queued-job count at which every arrival is rejected
    /// as [`AdmissionError::QueueFull`].
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
    /// Jobs re-sharded through the router: off a killed or tripped
    /// cluster, or as the unfinished tail of a batch whose lease ran out
    /// of healthy nodes.
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
    /// Lease-occupied simulated time per DAG stage kind over every
    /// cluster's [`crate::JobClass::ProveDag`] jobs (empty when none ran):
    /// the per-stage time attribution experiment E19 reports.
    pub stage_ns: BTreeMap<&'static str, f64>,
    /// Resilience counters.
    pub fleet: FleetStats,
}

impl FleetReport {
    /// True when every submitted job ran to completion.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(JobOutcome::completed)
    }

    /// True when every *accepted* job reached a terminal success state:
    /// completed, or cancelled for a deadline nobody could meet. Shed
    /// and rejected jobs are excluded — they were never accepted. This
    /// is the chaos harness's "zero failures" condition.
    pub fn zero_accepted_failures(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| !o.accepted() || o.completed() || o.deadline_exceeded())
    }

    /// `JobId → output digest` for every completed job, for bit-identity
    /// comparison against a fault-free run.
    pub fn digests(&self) -> BTreeMap<JobId, u64> {
        self.outcomes
            .iter()
            .filter(|o| o.completed() && o.output_digest != 0)
            .map(|o| (o.id, o.output_digest))
            .collect()
    }
}

/// The front door. Submissions accumulate ([`submit`](Self::submit),
/// or from a channel via [`ingest`](Self::ingest)); [`run`](Self::run)
/// then plays the whole stream on the simulated clock.
pub struct FleetService {
    cfg: FleetConfig,
    backlog: Vec<QueuedJob>,
    next_id: u64,
}

impl FleetService {
    /// A fleet with the given configuration (a [`ServiceConfig`] makes
    /// a one-cluster one).
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet, a soft capacity above the hard cap, a
    /// configured duration (cluster or health) that is not finite and
    /// `>= 0`, a hedge factor that is not, or a chaos event with a time
    /// the simulated clock cannot hold or a cluster outside the fleet. A
    /// negative chaos time fires at the start of the run.
    pub fn new(cfg: impl Into<FleetConfig>) -> Self {
        let cfg = cfg.into();
        assert!(cfg.clusters >= 1, "a fleet needs at least one cluster");
        assert!(
            cfg.soft_capacity <= cfg.hard_capacity,
            "soft capacity cannot exceed the hard cap"
        );
        // Convert every duration once here, so a bad one panics now.
        cfg.base.durations();
        HealthMachine::new(cfg.health, 0);
        if let Some(h) = cfg.hedge {
            assert!(
                h.factor.is_finite() && h.factor >= 0.0,
                "hedge factor must be finite and >= 0, got {}",
                h.factor
            );
        }
        for e in &cfg.chaos.events {
            assert!(
                e.t_ns.is_finite() && SimTime::try_from_ns(e.t_ns.max(0.0)).is_some(),
                "chaos event times must be finite and in the simulated clock's range, got {}",
                e.t_ns
            );
            assert!(
                e.cluster < cfg.clusters,
                "chaos event targets cluster {} of a {}-cluster fleet",
                e.cluster,
                cfg.clusters
            );
        }
        Self {
            cfg,
            backlog: Vec::new(),
            next_id: 0,
        }
    }

    /// Submits one job, returning its id. Admission runs during
    /// [`run`](Self::run): an arrival the simulated clock cannot hold
    /// (negative, NaN, infinite or past its range) or a shape no lease can
    /// run is rejected at its start, anything else at its arrival instant.
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
        rx.try_iter().map(|spec| self.submit(spec)).collect()
    }

    /// Jobs waiting to be played.
    pub fn pending(&self) -> usize {
        self.backlog.len()
    }

    /// Plays every submitted job through the fleet on the simulated
    /// clock and returns the report. The backlog is consumed; the fleet
    /// can be reused for a fresh stream afterwards. The chaos plan (if
    /// any) fires on schedule. Panics if the plan leaves the whole fleet
    /// dead forever with work still queued — a chaos plan must revive
    /// enough capacity to drain.
    pub fn run(&mut self) -> FleetReport {
        let backlog = std::mem::take(&mut self.backlog);
        FleetRunner::new(self.cfg.clone()).run(backlog)
    }
}

/// One cluster inside the fleet: its scheduler plus the fleet's view of
/// its health.
pub(crate) struct ClusterState {
    pub(crate) sched: Scheduler,
    health: HealthMachine,
    /// Chaos switch: `false` between a Kill and its Revive. Distinct
    /// from health — a revived cluster stays quarantined until a probe
    /// succeeds.
    alive: bool,
    /// Availability accounting: when the current routable stretch began,
    /// and routable time banked so far.
    routable_since: Option<SimTime>,
    routable_total: SimTime,
}

impl ClusterState {
    /// True when the fleet may dispatch here.
    fn dispatchable(&self) -> bool {
        self.alive && self.health.routable()
    }

    /// Close the current routable stretch (breaker tripping or drain).
    fn bank_routable(&mut self, now: SimTime) {
        if let Some(since) = self.routable_since.take() {
            self.routable_total += now.max(since) - since;
        }
    }
}

/// Marks a fleet event at `t` on cluster `c`'s track.
fn mark(name: &str, kind: InstantKind, c: usize, t: SimTime, attr: Option<(&'static str, u64)>) {
    unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
        name: name.into(),
        kind,
        track: format!("cluster{c}"),
        t,
        attrs: attr.into_iter().map(|(k, v)| (k, v.into())).collect(),
    });
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
    /// When the lease frees and the in-flight retires: the last
    /// completion, or later when the run ended with a leftover tail.
    done: SimTime,
    is_hedge: bool,
    /// The paired dispatch (primary ↔ hedge), by seq.
    partner: Option<u64>,
}

/// The discrete-event engine behind [`FleetService::run`]: the crate's
/// one event loop.
pub(crate) struct FleetRunner {
    cfg: FleetConfig,
    pub(crate) clusters: Vec<ClusterState>,
    router: ShardRouter,
    shared: Shared,
    in_flight: Vec<InFlight>,
    /// Hedges scheduled but not yet launched: `(fire_at, primary_seq)`.
    pending_hedges: Vec<(SimTime, u64)>,
    /// Accepted jobs with no routable cluster right now; re-offered on
    /// the next re-admission.
    parked: Vec<QueuedJob>,
    committed: BTreeSet<JobId>,
    /// Live in-flight copies per uncommitted job; a job whose coverage
    /// drops to zero uncommitted must be re-sharded.
    coverage: BTreeMap<JobId, u32>,
    outcomes: Vec<JobOutcome>,
    peak_queue: usize,
    /// Streaming batch wall-time distribution, the hedge deadline's p99
    /// source. A log-bucketed histogram rather than a full sample vec:
    /// memory stays O(buckets) over arbitrarily long runs, and the
    /// bucketed p99's ≤0.8 % relative error is noise against the 3×
    /// hedge factor applied on top of it.
    samples: StreamHist,
    /// The chaos plan in firing order, each event at its instant.
    chaos: Vec<(SimTime, ChaosEvent)>,
    chaos_idx: usize,
    stats: FleetStats,
}

impl FleetRunner {
    pub(crate) fn new(cfg: FleetConfig) -> Self {
        // A one-cluster fleet (the service) labels no tracks.
        let label = |c| (cfg.clusters > 1).then(|| format!("cluster{c}-"));
        let clusters = (0..cfg.clusters)
            .map(|c| ClusterState {
                sched: Scheduler::new(cfg.base.clone(), label(c).unwrap_or_default()),
                health: HealthMachine::new(cfg.health, c),
                alive: true,
                routable_since: Some(SimTime::ZERO),
                routable_total: SimTime::ZERO,
            })
            .collect();
        let mut chaos: Vec<(SimTime, ChaosEvent)> = cfg
            .chaos
            .events
            .iter()
            .map(|&e| (SimTime::from_ns(e.t_ns.max(0.0)), e))
            .collect();
        chaos.sort_by_key(|&(t, e)| (t, e.cluster));
        let router = ShardRouter::new(cfg.router_seed);
        Self {
            cfg,
            clusters,
            router,
            shared: Shared::default(),
            in_flight: Vec::new(),
            pending_hedges: Vec::new(),
            parked: Vec::new(),
            committed: BTreeSet::new(),
            coverage: BTreeMap::new(),
            outcomes: Vec::new(),
            peak_queue: 0,
            samples: StreamHist::new(),
            chaos,
            chaos_idx: 0,
            stats: FleetStats::default(),
        }
    }

    pub(crate) fn run(&mut self, mut backlog: Vec<QueuedJob>) -> FleetReport {
        let total = backlog.len();
        self.outcomes =
            dispatch::arrival_order(&mut backlog, &self.cfg.base, &mut self.shared.caches);
        let mut next_arrival = 0usize;
        let mut now = SimTime::ZERO;
        let mut first = true;
        loop {
            let t_arrival = backlog.get(next_arrival).map(QueuedJob::arrival);
            let work_remaining = t_arrival.is_some()
                || !self.parked.is_empty()
                || !self.in_flight.is_empty()
                || !self.pending_hedges.is_empty()
                || self.clusters.iter().any(|c| c.sched.queued() > 0);
            let Some(t) = self.next_event(now, t_arrival, work_remaining) else {
                break;
            };
            debug_assert!(first || t > now, "fleet event at {t:?} after {now:?}");
            (now, first) = (t, false);

            // Order matters for determinism and semantics: results that
            // completed by `now` commit before chaos can destroy them;
            // health transitions precede routing; dispatch goes last so
            // it sees every batch that became ready at this instant.
            for c in 0..self.clusters.len() {
                for done in self.clusters[c].sched.advance(now, &mut self.shared) {
                    self.commit(&done);
                }
            }
            self.commit_due(now);
            self.retire_due(now);
            self.fire_chaos(now);
            self.step_health(now);
            self.launch_due_hedges(now);
            for cluster in self.clusters.iter_mut().filter(|c| c.alive) {
                cluster.sched.close_windows(now);
            }
            while next_arrival < backlog.len() && backlog[next_arrival].arrival() <= now {
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
        let mut batch_sizes = Vec::new();
        let mut leases = Vec::new();
        let mut stage_time: BTreeMap<&'static str, SimTime> = BTreeMap::new();
        for (ci, c) in self.clusters.iter_mut().enumerate() {
            c.bank_routable(SimTime::from_ns(horizon));
            let availability = if horizon > 0.0 {
                c.routable_total.as_ns() / horizon
            } else {
                1.0
            };
            self.stats.availability.push(availability);
            self.stats.final_states.push(c.health.state().name());
            c.sched.finish();
            batch_sizes.extend_from_slice(&c.sched.batch_sizes);
            for (&kind, &t) in &c.sched.stage_time {
                *stage_time.entry(kind).or_default() += t;
            }
            let base = ci * self.cfg.base.num_leases;
            leases.extend(
                c.sched
                    .pool
                    .leases()
                    .iter()
                    .map(|l| LeaseMetrics::from_lease(l, base + l.id, horizon)),
            );
        }
        let outcomes = std::mem::take(&mut self.outcomes);
        let metrics = ServiceMetrics::build_parts(&outcomes, &batch_sizes, self.peak_queue, leases);
        FleetReport {
            outcomes,
            metrics,
            stage_ns: stage_time
                .into_iter()
                .map(|(k, t)| (k, t.as_ns()))
                .collect(),
            fleet: std::mem::take(&mut self.stats),
        }
    }

    /// The next instant anything happens, or `None` when drained. With
    /// no work left, health probes stop mattering (they would otherwise
    /// tick forever on a permanently dead cluster) — only remaining
    /// chaos events are still played out.
    fn next_event(
        &self,
        now: SimTime,
        t_arrival: Option<SimTime>,
        work_remaining: bool,
    ) -> Option<SimTime> {
        let chaos = self.chaos.get(self.chaos_idx).map(|&(t, _)| t);
        if !work_remaining {
            return [t_arrival, chaos].into_iter().flatten().min();
        }
        let clusters = self
            .clusters
            .iter()
            .flat_map(|c| [c.sched.next_event(now), c.health.next_event()]);
        let in_flight = self.in_flight.iter().flat_map(|f| {
            let next = f.completions.get(f.cursor).map(|c| c.done);
            [next, Some(f.done)]
        });
        let hedges = self.pending_hedges.iter().map(|&(at, _)| Some(at));
        clusters
            .chain(in_flight)
            .chain(hedges)
            .chain([t_arrival, chaos])
            .flatten()
            .min()
    }

    /// Fleet-wide queued jobs (admission-control depth).
    fn queue_depth(&self) -> usize {
        self.clusters
            .iter()
            .map(|c| c.sched.queued())
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
            .filter(|(_, c)| c.dispatchable())
            .map(|(i, _)| i)
            .collect()
    }

    /// Admission: the hard cap rejects, the soft cap sheds bulk
    /// traffic, then shard routing.
    fn admit(&mut self, job: QueuedJob, now: SimTime) {
        let depth = self.queue_depth();
        if depth >= self.cfg.hard_capacity {
            let capacity = self.cfg.hard_capacity;
            let full = JobStatus::Rejected(AdmissionError::QueueFull { depth, capacity });
            self.outcomes.push(JobOutcome::new(&job, full, now));
            unintt_telemetry::counter_add("serve_jobs_rejected", 1);
            return;
        }
        if depth >= self.cfg.soft_capacity && job.spec.priority == Priority::Low {
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
    fn shed(&mut self, job: QueuedJob, depth: usize, now: SimTime) {
        let tenant = job.spec.tenant;
        let status = JobStatus::Rejected(AdmissionError::Overloaded {
            depth,
            soft_capacity: self.cfg.soft_capacity,
            priority: job.spec.priority,
        });
        self.outcomes.push(JobOutcome::new(&job, status, now));
        *self.stats.shed_by_tenant.entry(tenant).or_insert(0) += 1;
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: "overload-shed".into(),
            kind: InstantKind::Shed,
            track: "admission".into(),
            t: now,
            attrs: vec![("tenant", u64::from(tenant).into())],
        });
        unintt_telemetry::counter_add("sim_shed_jobs", 1);
        unintt_telemetry::counter_add_labeled("serve_shed_jobs", "tenant", u64::from(tenant), 1);
    }

    /// Routes one accepted job to its shard's scheduler (or parks it
    /// when nothing is routable).
    fn place(&mut self, job: QueuedJob, now: SimTime) {
        let candidates = self.routable_clusters();
        match self
            .router
            .route(job.spec.tenant, &job.spec.class, &candidates)
        {
            Some(target) => self.clusters[target]
                .sched
                .offer(job, now, &mut self.shared),
            None => self.parked.push(job),
        }
    }

    /// Re-offers parked jobs once some cluster is routable again.
    fn retry_parked(&mut self, now: SimTime) {
        if self.parked.is_empty() || self.routable_clusters().is_empty() {
            return;
        }
        let mut parked = std::mem::take(&mut self.parked);
        parked.sort_by_key(|j| j.id);
        for job in parked {
            self.place(job, now);
        }
    }

    /// Re-shards jobs off cluster `from` — killed, tripped, or out of
    /// healthy nodes mid-batch — to the survivors, in id order.
    fn reshard(&mut self, from: usize, mut jobs: Vec<QueuedJob>, t: SimTime) {
        if jobs.is_empty() {
            return;
        }
        jobs.sort_by_key(|j| j.id);
        let n = jobs.len() as u64;
        self.stats.failovers += n;
        let moved = Some(("jobs", n));
        mark("failover", InstantKind::Failover, from, t, moved);
        unintt_telemetry::counter_add("sim_failovers", n);
        for job in jobs {
            self.place(job, t);
        }
    }

    /// Commits one result unless a copy already landed (commit is
    /// idempotent, keyed by job id). Returns whether this copy won.
    fn commit(&mut self, c: &Completion) -> bool {
        let first = self.committed.insert(c.outcome.id);
        if first {
            self.outcomes.push(dispatch::commit_completion(c));
        }
        first
    }

    /// Commits every in-flight result due by `now`, idempotently — the
    /// first copy of a job's result wins; duplicates are dropped. Then
    /// cancels hedge-pair losers made fully redundant.
    fn commit_due(&mut self, now: SimTime) {
        // Gather (time, seq) of due completions and replay in global
        // deterministic order.
        loop {
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (idx, f) in self.in_flight.iter().enumerate() {
                if let Some(c) = f.completions.get(f.cursor) {
                    let t = c.done;
                    if t <= now && best.is_none_or(|(bt, bs, _)| (t, f.seq) < (bt, bs)) {
                        best = Some((t, f.seq, idx));
                    }
                }
            }
            let Some((_, _, idx)) = best else { break };
            let f = &mut self.in_flight[idx];
            let c = f.completions[f.cursor].clone();
            f.cursor += 1;
            let was_hedge = f.is_hedge;
            if self.commit(&c) && was_hedge {
                self.stats.hedge_wins += 1;
            }
        }
        self.cancel_redundant(now);
    }

    /// Removes in-flight `idx` before it ran to the end (a kill or a lost
    /// hedge race at `t`): a lease still reserved to the run's end (not
    /// pushed back by a repair or a revive) is refunded the simulated
    /// time that never ran, and the partner, if any, is unlinked.
    fn drop_in_flight(&mut self, idx: usize, t: SimTime) -> InFlight {
        let f = self.in_flight.swap_remove(idx);
        let lease = self.clusters[f.cluster].sched.pool.lease_mut(f.lease);
        if f.done > t && lease.free_at == f.done {
            lease.busy = lease.busy - (f.done - t);
            lease.free_at = t;
        }
        if let Some(p) = f.partner {
            if let Some(partner) = self.in_flight.iter_mut().find(|g| g.seq == p) {
                partner.partner = None;
            }
        }
        for c in &f.completions {
            self.uncover(c.outcome.id);
        }
        f
    }

    /// Cancels any live hedge-pair member whose every job is already
    /// committed (its partner won): the lease is refunded from `now`.
    fn cancel_redundant(&mut self, now: SimTime) {
        let mut cancelled: Vec<usize> = Vec::new();
        for (idx, f) in self.in_flight.iter().enumerate() {
            if f.partner.is_some()
                && f.done > now
                && f.completions
                    .iter()
                    .all(|c| self.committed.contains(&c.outcome.id))
            {
                cancelled.push(idx);
            }
        }
        for &idx in cancelled.iter().rev() {
            self.drop_in_flight(idx, now);
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
    fn retire_due(&mut self, now: SimTime) {
        let mut idx = 0;
        while idx < self.in_flight.len() {
            let f = &self.in_flight[idx];
            if f.done <= now && f.cursor == f.completions.len() {
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
    fn fire_chaos(&mut self, now: SimTime) {
        while let Some(&(t, e)) = self.chaos.get(self.chaos_idx) {
            if t > now {
                break;
            }
            self.chaos_idx += 1;
            match e.kind {
                ChaosKind::Kill => self.kill_cluster(e.cluster, t),
                ChaosKind::Revive => {
                    self.clusters[e.cluster].alive = true;
                    // Replacement hardware: every lease comes back whole
                    // after the configured swap time.
                    let sched = &mut self.clusters[e.cluster].sched;
                    let repair = sched.repair;
                    for l in 0..sched.pool.len() {
                        let lease = sched.pool.lease_mut(l);
                        lease.free_at = lease.free_at.min(t);
                        lease.repair(t, repair);
                    }
                }
            }
        }
    }

    /// A whole cluster drops at `t`: quarantine it, lose its un-finished
    /// in-flight work, and re-shard everything to survivors — queued
    /// jobs, DAG proofs in progress, and jobs whose last live copy died.
    fn kill_cluster(&mut self, cluster: usize, t: SimTime) {
        self.clusters[cluster].alive = false;
        self.clusters[cluster].health.quarantine(t);
        // In-flight work on the dead cluster: results completed by `t`
        // were committed by `commit_due`; the rest are lost.
        let mut orphans: Vec<QueuedJob> = Vec::new();
        while let Some(idx) = self.in_flight.iter().position(|f| f.cluster == cluster) {
            let f = self.drop_in_flight(idx, t);
            orphans.extend(
                f.completions
                    .iter()
                    .filter(|c| {
                        let id = c.outcome.id;
                        !self.committed.contains(&id) && !self.coverage.contains_key(&id)
                    })
                    .map(|c| c.job),
            );
        }
        self.trip_breaker(cluster, t, "cluster-kill", orphans);
    }

    /// Trips cluster `c`'s breaker at `t` — a chaos kill, or consecutive
    /// leftover failures (`breaker-trip`; its in-flight batches finish
    /// normally) — and re-shards `jobs`, every queued job and the DAG
    /// proofs in progress to the survivors.
    fn trip_breaker(&mut self, c: usize, t: SimTime, name: &str, mut jobs: Vec<QueuedJob>) {
        self.clusters[c].bank_routable(t);
        self.stats.quarantines += 1;
        mark(name, InstantKind::Quarantine, c, t, None);
        unintt_telemetry::counter_add("sim_quarantines", 1);
        jobs.extend(self.clusters[c].sched.evacuate(t));
        self.reshard(c, jobs, t);
    }

    /// Advances every health machine: due probes resolve (success iff
    /// the hardware is back), completed warmups re-admit.
    fn step_health(&mut self, now: SimTime) {
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
                mark("readmit", InstantKind::Quarantine, c, now, None);
            }
        }
    }

    /// Launches hedges whose deadline fired and whose primary is still
    /// live with uncommitted work.
    fn launch_due_hedges(&mut self, now: SimTime) {
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending_hedges)
            .into_iter()
            .partition(|&(at, _)| at <= now);
        self.pending_hedges = later;
        let mut due: Vec<u64> = due.into_iter().map(|(_, seq)| seq).collect();
        due.sort_unstable();
        for seq in due {
            self.launch_hedge(seq, now);
        }
    }

    fn launch_hedge(&mut self, primary_seq: u64, now: SimTime) {
        let Some(p) = self.in_flight.iter().find(|f| f.seq == primary_seq) else {
            return; // primary already killed or cancelled
        };
        let Some(key) = p.key else { return };
        let p_cluster = p.cluster;
        let stragglers: Vec<QueuedJob> = p
            .completions
            .iter()
            .skip(p.cursor)
            .filter(|c| !self.committed.contains(&c.outcome.id))
            .map(|c| c.job)
            .collect();
        if stragglers.is_empty() {
            return;
        }
        // Pick the routable cluster (≠ primary) whose lease frees
        // soonest; ties break toward the lower index.
        let target = self
            .routable_clusters()
            .into_iter()
            .filter(|&c| c != p_cluster)
            .min_by_key(|&c| (self.clusters[c].sched.pool.next_free(), c));
        let Some(target) = target else { return };
        let Some(run) = self.clusters[target]
            .sched
            .hedge(key, stragglers, now, &mut self.shared)
        else {
            return;
        };
        let (hedge_seq, live) = (run.seq, !run.completions.is_empty());
        self.launch(target, run, Some(primary_seq));
        if !live {
            return;
        }
        if let Some(p) = self.in_flight.iter_mut().find(|f| f.seq == primary_seq) {
            p.partner = Some(hedge_seq);
        }
        self.stats.hedges += 1;
        let primary = Some(("primary", primary_seq));
        mark("hedge", InstantKind::Hedge, target, now, primary);
        unintt_telemetry::counter_add("sim_hedges", 1);
    }

    /// Dispatches every routable cluster's placeable work at `now`.
    /// Re-sharding an unfinished tail can hand jobs to a cluster this pass
    /// already visited, so the pass repeats until nothing moved.
    fn dispatch_all(&mut self, now: SimTime) {
        let mut again = true;
        while again {
            again = false;
            for c in 0..self.clusters.len() {
                while self.clusters[c].dispatchable() {
                    let sched = &mut self.clusters[c].sched;
                    let Some(d) = sched.dispatch_next(now, &mut self.shared) else {
                        break;
                    };
                    self.stats.deadline_cancelled += d.expired.len() as u64;
                    self.outcomes.extend(d.expired);
                    if let Some(run) = d.run {
                        again |= self.launch(c, run, None);
                    }
                }
            }
        }
    }

    /// Registers a batch run on cluster `c` as in flight — its results
    /// commit when the clock reaches each one — and does the fleet's
    /// bookkeeping: health, hedge arming, and re-sharding an unfinished
    /// tail. `partner` is the primary's seq when this run is a hedge.
    /// Returns whether jobs were re-sharded.
    fn launch(&mut self, c: usize, mut run: BatchRun, partner: Option<u64>) -> bool {
        let is_hedge = partner.is_some();
        let leftover = std::mem::take(&mut run.leftover);
        let resharded = !leftover.is_empty();
        if resharded {
            // The lease ran out of healthy nodes mid-batch (it was
            // repaired): a failure on this cluster's record, and the tail
            // re-shards.
            if self.clusters[c].health.record_failure(run.done) {
                self.trip_breaker(c, run.done, "breaker-trip", Vec::new());
            }
            self.reshard(c, leftover, run.done);
        } else {
            self.clusters[c].health.record_success();
        }
        for comp in &run.completions {
            *self.coverage.entry(comp.outcome.id).or_insert(0) += 1;
        }
        if run.key.is_some() {
            // Hedge arming: only primaries hedge, and only once the p99
            // is trustworthy.
            if let Some(h) = self.cfg.hedge.filter(|_| !is_hedge) {
                if !run.completions.is_empty() && self.samples.count() as usize >= h.min_samples {
                    // At least a picosecond: a hedge never races its
                    // primary from the instant it started.
                    let wait = SimTime::from_ns(h.factor * self.samples.quantile(0.99));
                    let deadline = run.start + wait.max(SimTime(1));
                    if run.done > deadline {
                        self.pending_hedges.push((deadline, run.seq));
                    }
                }
            }
            self.samples.observe((run.done - run.start).as_ns());
        }
        if !run.completions.is_empty() {
            self.in_flight.push(InFlight {
                seq: run.seq,
                cluster: c,
                lease: run.lease,
                key: run.key,
                completions: run.completions,
                cursor: 0,
                done: run.done,
                is_hedge,
                partner,
            });
        }
        resharded
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
    fn non_finite_arrivals_are_rejected_not_panicked_on() {
        let mut fleet = FleetService::new(small_fleet(ChaosPlan::none()));
        let mut stream = WorkloadSpec::raw_only(16, 12, 20_000.0).generate();
        let invalid = [(2, f64::NAN), (5, f64::INFINITY), (9, f64::NEG_INFINITY)];
        for (i, t) in invalid {
            stream[i].arrival_ns = t;
        }
        fleet.submit_all(stream);
        let report = fleet.run();
        let ids: Vec<JobId> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(
            ids,
            (0..12).map(JobId).collect::<Vec<_>>(),
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
        assert_eq!(report.metrics.completed(), 9);
        assert_eq!(
            report.metrics.classes["raw-ntt"].submitted, 9,
            "metrics skip them"
        );
        assert!(report.zero_accepted_failures());
    }

    #[test]
    #[should_panic(expected = "repair_ns must be a finite duration >= 0, got -1")]
    fn negative_repair_time_is_rejected_up_front() {
        FleetService::new(FleetConfig {
            base: ServiceConfig {
                repair_ns: -1.0,
                ..ServiceConfig::default()
            },
            ..small_fleet(ChaosPlan::none())
        });
    }

    #[test]
    #[should_panic(expected = "probe_ns must be a finite duration >= 0, got inf")]
    fn infinite_probe_time_is_rejected_up_front() {
        FleetService::new(FleetConfig {
            health: HealthConfig {
                probe_ns: f64::INFINITY,
                ..HealthConfig::default()
            },
            ..small_fleet(ChaosPlan::none())
        });
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
