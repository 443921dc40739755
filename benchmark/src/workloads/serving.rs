//! The three serving workloads. The wall clock times one service
//! lifetime in a closed loop; inside it the *simulated* service is an open
//! loop at the stated rate, and simulated latency runs from the instant
//! each job was due (`completed_ns − arrival_ns`).

use std::collections::BTreeMap;

use rand::{rngs::StdRng, Rng, SeedableRng};
use unintt_serve::{
    ChaosPlan, FleetConfig, FleetReport, FleetService, JobClass, JobId, JobOutcome, JobSpec,
    ProofService, ServiceConfig, ServiceReport, WorkloadSpec,
};

use super::{Fnv, Output, SimClock, Workload};
use crate::spans::Recorder;

/// One service lifetime reduced to what the checks and metrics need.
#[derive(Clone, Debug, PartialEq)]
pub struct Served {
    /// `all_completed()` (service) or `zero_accepted_failures()` (fleet).
    pub ok: bool,
    /// Output digest of every completed job.
    pub digests: BTreeMap<JobId, u64>,
    /// Simulated horizon and exact p95 latency.
    pub sim: SimClock,
}

impl Served {
    fn reduce(outcomes: &[JobOutcome], horizon_ns: f64, ok: bool) -> Self {
        let done = || outcomes.iter().filter(|o| o.completed());
        let latencies: Vec<f64> = done().map(JobOutcome::latency_ns).collect();
        let p95 = if latencies.is_empty() {
            0.0
        } else {
            crate::stats::percentile(&latencies, 0.95)
        };
        Self {
            ok,
            digests: done().map(|o| (o.id, o.output_digest)).collect(),
            sim: SimClock {
                horizon_us: horizon_ns / 1e3,
                latency_p95_us: Some(p95 / 1e3),
                speedup_x: None,
            },
        }
    }

    fn output(&self) -> Output {
        let mut fnv = Fnv::new();
        for (id, digest) in &self.digests {
            fnv.mix(id.0);
            fnv.mix(*digest);
        }
        Output {
            digest: fnv.finish(),
            sim: Some(self.sim),
        }
    }

    /// Every job completed here must carry the digest `reference` has for
    /// it; with `same_jobs` the two runs must also have completed the
    /// same set of jobs.
    fn matches(&self, reference: &Served, same_jobs: bool) -> Result<(), String> {
        if same_jobs && self.digests.len() != reference.digests.len() {
            return Err(format!(
                "{} jobs completed, the reference run completed {}",
                self.digests.len(),
                reference.digests.len()
            ));
        }
        for (id, digest) in &self.digests {
            if reference.digests.get(id) != Some(digest) {
                return Err(format!("{id}: output differs from the reference run"));
            }
        }
        Ok(())
    }
}

/// Generates a job stream and plays it through one `ProofService`
/// lifetime.
fn serve(
    generate: impl FnOnce() -> Vec<JobSpec>,
    cfg: &ServiceConfig,
    rec: &mut Recorder,
) -> (ServiceReport, Served) {
    let jobs = rec.span("serve", "WorkloadSpec::generate", |_| generate());
    let mut service = ProofService::new(cfg.clone());
    rec.span("serve", "ProofService::submit_all", |_| {
        service.submit_all(jobs);
    });
    let report = rec.span("serve", "ProofService::run", |_| service.run());
    let served = rec.span("bench", "report reduction", |_| {
        Served::reduce(
            &report.outcomes,
            report.metrics.horizon_ns,
            report.all_completed(),
        )
    });
    (report, served)
}

/// `serve-raw`: one `ProofService` lifetime over
/// `WorkloadSpec::raw_only(seed, 512, 80_000.0)` (2^8–2^10, both fields,
/// both directions) with `ServiceConfig::default()` (serial `k = 1` loop,
/// output verification on). Proof-free: the wall is the `serve`
/// discrete-event loop and coalescer, `core::ClusterNttEngine`, the
/// `gpu-sim` functional machine and `exec` fork-join on tiny kernels.
/// DES-core, dispatch and pool-grain work shows here; the proof layers
/// are idle.
pub struct ServeRaw {
    spec: WorkloadSpec,
    cfg: ServiceConfig,
    last: Option<(ServiceReport, Served)>,
}

impl ServeRaw {
    /// Jobs per service lifetime.
    pub const JOBS: usize = 512;

    /// Nothing to precompute: the stream is generated inside the op.
    pub fn setup(seed: u64) -> Self {
        Self {
            spec: WorkloadSpec::raw_only(seed, Self::JOBS, 80_000.0),
            cfg: ServiceConfig::default(),
            last: None,
        }
    }

    /// The job stream specification, for the `serve` layer probes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The last op's report.
    pub fn report(&self) -> Option<&ServiceReport> {
        self.last.as_ref().map(|(r, _)| r)
    }
}

impl Workload for ServeRaw {
    fn op(&mut self, rec: &mut Recorder) {
        self.last = Some(serve(|| self.spec.generate(), &self.cfg, rec));
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let (_, served) = self.last.as_ref().ok_or("no report produced")?;
        if !served.ok {
            return Err("not every job completed".into());
        }
        Ok(served.output())
    }
}

/// `serve-proofs`: one `ProofService` lifetime over 16 jobs — 8 raw NTTs,
/// 4 PLONK proofs (2^6 gates), 4 STARK commits (2^8×4) — at 80 k jobs/s,
/// every class `.pipelined()`, `streams_per_lease: 2`. The only path
/// through `pipeline` DAGs, `StagedProver`, `StagedCommit`,
/// `run_streamed` and the simulated backends — the code ROADMAP items 2
/// and 4 will merge.
pub struct ServeProofs {
    seed: u64,
    cfg: ServiceConfig,
    /// The same stream run monolithic at `k = 1`, once, in set-up.
    reference: Served,
    last: Option<(ServiceReport, Served)>,
}

impl ServeProofs {
    /// Jobs per service lifetime.
    pub const JOBS: usize = 16;

    /// The seeded stream. Arrival times, tenants, priorities and raw
    /// shapes come from `WorkloadSpec::generate`; the classes are dealt in
    /// fixed counts (half raw, a quarter each PLONK and STARK) in a seeded
    /// order rather than drawn per job, so that every seed proves the
    /// same amount and op time does not swing 2× with the draw.
    fn stream(seed: u64, pipelined: bool) -> Vec<JobSpec> {
        let mut jobs = WorkloadSpec::raw_only(seed, Self::JOBS, 80_000.0).generate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
        }
        for (dealt, &job) in order.iter().enumerate() {
            let class = match dealt % 4 {
                0 => JobClass::PlonkProve { log_gates: 6 },
                1 => JobClass::StarkCommit {
                    log_trace: 8,
                    columns: 4,
                },
                _ => continue,
            };
            jobs[job].class = if pipelined { class.pipelined() } else { class };
        }
        jobs
    }

    /// Reference run: the same stream, monolithic classes, one queue.
    pub fn setup(seed: u64) -> Self {
        let (_, reference) = serve(
            || Self::stream(seed, false),
            &ServiceConfig::default(),
            &mut Recorder::off(),
        );
        Self {
            seed,
            cfg: ServiceConfig {
                streams_per_lease: 2,
                ..ServiceConfig::default()
            },
            reference,
            last: None,
        }
    }

    /// The last op's report.
    pub fn report(&self) -> Option<&ServiceReport> {
        self.last.as_ref().map(|(r, _)| r)
    }
}

impl Workload for ServeProofs {
    fn op(&mut self, rec: &mut Recorder) {
        self.last = Some(serve(|| Self::stream(self.seed, true), &self.cfg, rec));
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let (_, served) = self.last.as_ref().ok_or("no report produced")?;
        if !served.ok || !self.reference.ok {
            return Err("not every job completed".into());
        }
        served.matches(&self.reference, true)?;
        Ok(served.output())
    }
}

/// Plays `spec` through one `FleetService` lifetime under `chaos`.
fn serve_fleet(spec: &WorkloadSpec, chaos: ChaosPlan, rec: &mut Recorder) -> (FleetReport, Served) {
    let jobs = rec.span("serve", "WorkloadSpec::generate", |_| spec.generate());
    let mut fleet = FleetService::new(FleetConfig {
        chaos,
        ..FleetConfig::default()
    });
    rec.span("serve", "FleetService::submit_all", |_| {
        fleet.submit_all(jobs);
    });
    let report = rec.span("serve", "FleetService::run", |_| fleet.run());
    let served = rec.span("bench", "report reduction", |_| {
        Served::reduce(
            &report.outcomes,
            report.metrics.horizon_ns,
            report.zero_accepted_failures(),
        )
    });
    (report, served)
}

/// `fleet-chaos`: one `FleetService` lifetime over
/// `WorkloadSpec::bursty(seed, 1024, 50_000.0)` with
/// `FleetConfig::default()` and cluster 0 killed at a quarter of the
/// fault-free horizon and revived at 0.7 of it. The same `serve` crate as
/// `serve-raw` but its third event loop: router, health, failover,
/// hedging. A loop merge that is free for `serve-raw` but costs the fleet
/// (or the reverse) shows as two different rows.
pub struct FleetChaos {
    spec: WorkloadSpec,
    chaos: ChaosPlan,
    /// The fault-free run of the same stream, once, in set-up.
    reference: Served,
    last: Option<(FleetReport, Served)>,
}

impl FleetChaos {
    /// Jobs per fleet lifetime.
    pub const JOBS: usize = 1024;

    /// Fault-free reference run; its horizon places the kill and revive.
    pub fn setup(seed: u64) -> Self {
        let spec = WorkloadSpec::bursty(seed, Self::JOBS, 50_000.0);
        let (report, reference) = serve_fleet(&spec, ChaosPlan::none(), &mut Recorder::off());
        let horizon_ns = report.metrics.horizon_ns;
        Self {
            spec,
            chaos: ChaosPlan::kill_revive(0, 0.25 * horizon_ns, 0.7 * horizon_ns),
            reference,
            last: None,
        }
    }

    /// The last op's report.
    pub fn report(&self) -> Option<&FleetReport> {
        self.last.as_ref().map(|(r, _)| r)
    }
}

impl Workload for FleetChaos {
    fn op(&mut self, rec: &mut Recorder) {
        self.last = Some(serve_fleet(&self.spec, self.chaos.clone(), rec));
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let (_, served) = self.last.as_ref().ok_or("no report produced")?;
        if !served.ok || !self.reference.ok {
            return Err("an accepted job failed".into());
        }
        served.matches(&self.reference, false)?;
        Ok(served.output())
    }
}
