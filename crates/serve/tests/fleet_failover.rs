//! Integration tests for fleet failover: a cluster killed mid-burst
//! under every scheduling policy must fail zero accepted jobs and
//! reproduce the fault-free output bits — also with proofs running as
//! stage DAGs over two queues per lease, and with leases losing devices
//! to injected faults; the whole run must be deterministic; and enabling
//! telemetry must not move the simulated clock by a nanosecond.

use std::collections::BTreeMap;

use unintt_gpu_sim::FaultRates;
use unintt_serve::{
    ChaosEvent, ChaosKind, ChaosPlan, FleetConfig, FleetReport, FleetService, JobId, JobSpec,
    ProofService, SchedulerPolicy, ServiceConfig, WorkloadMix, WorkloadSpec,
};

/// A bursty multi-tenant stream long enough that the kill lands while
/// work is genuinely in flight.
fn stream() -> WorkloadSpec {
    WorkloadSpec::bursty(0xfa11_0e75, 96, 50_000.0)
}

fn fleet(policy: SchedulerPolicy, chaos: ChaosPlan) -> FleetService {
    FleetService::new(FleetConfig {
        clusters: 3,
        base: ServiceConfig {
            policy,
            ..ServiceConfig::default()
        },
        chaos,
        ..FleetConfig::default()
    })
}

fn run(policy: SchedulerPolicy, chaos: ChaosPlan) -> FleetReport {
    let mut service = fleet(policy, chaos);
    service.submit_all(stream().generate());
    service.run()
}

/// The kill plan every test reuses: cluster 0 dies a quarter of the way
/// into the fault-free horizon and comes back at 70%.
fn kill_plan(horizon_ns: f64) -> ChaosPlan {
    ChaosPlan::kill_revive(0, horizon_ns * 0.25, horizon_ns * 0.7)
}

#[test]
fn kill_mid_burst_fails_no_accepted_jobs_under_any_policy() {
    for policy in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::Priority,
        SchedulerPolicy::ShortestJobFirst,
    ] {
        let baseline = run(policy, ChaosPlan::none());
        assert!(baseline.zero_accepted_failures(), "{policy:?} baseline");

        let chaos = run(policy, kill_plan(baseline.metrics.horizon_ns));
        assert!(
            chaos.zero_accepted_failures(),
            "{policy:?}: a kill must never fail an accepted job"
        );
        assert!(
            chaos.fleet.quarantines >= 1,
            "{policy:?}: the kill must trip a breaker"
        );
        // Failover must not change a single output bit: every job
        // completed in both runs produced the same digest.
        let base: BTreeMap<JobId, u64> = baseline.digests();
        let with_chaos = chaos.digests();
        for (id, digest) in &base {
            if let Some(d) = with_chaos.get(id) {
                assert_eq!(d, digest, "{policy:?}: job {id:?} changed bits");
            }
        }
        // The kill only removes capacity; nothing new may be shed.
        assert_eq!(
            chaos.metrics.completed() + chaos.metrics.deadline_exceeded(),
            baseline.metrics.completed() + baseline.metrics.deadline_exceeded(),
            "{policy:?}: accepted work is conserved across the kill"
        );
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    let first = run(
        SchedulerPolicy::Fifo,
        ChaosPlan::rolling(2, 400_000.0, 300_000.0, 250_000.0),
    );
    let second = run(
        SchedulerPolicy::Fifo,
        ChaosPlan::rolling(2, 400_000.0, 300_000.0, 250_000.0),
    );
    assert_eq!(first.fleet, second.fleet);
    assert_eq!(first.metrics.horizon_ns, second.metrics.horizon_ns);
    assert_eq!(first.metrics.classes, second.metrics.classes);
    assert_eq!(first.digests(), second.digests());
    assert_eq!(first.outcomes.len(), second.outcomes.len());
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.output_digest, b.output_digest);
    }
}

#[test]
fn telemetry_session_does_not_move_the_simulated_clock() {
    let silent = run(SchedulerPolicy::Fifo, ChaosPlan::none());
    let kill = kill_plan(silent.metrics.horizon_ns);

    let silent_chaos = run(SchedulerPolicy::Fifo, kill.clone());

    let guard = unintt_telemetry::start_session();
    let recorded_chaos = run(SchedulerPolicy::Fifo, kill);
    let session = unintt_telemetry::take_session();
    drop(guard);

    assert_eq!(
        silent_chaos.metrics.horizon_ns, recorded_chaos.metrics.horizon_ns,
        "recording telemetry must not change the simulated clock"
    );
    assert_eq!(silent_chaos.digests(), recorded_chaos.digests());
    assert_eq!(silent_chaos.fleet, recorded_chaos.fleet);
    assert!(
        !session.instants.is_empty(),
        "the recorded run must actually emit fleet instants"
    );
}

/// Plays `stream` through a default three-cluster fleet over `base`.
fn run_fleet(base: &ServiceConfig, chaos: ChaosPlan, stream: &[JobSpec]) -> FleetReport {
    let mut fleet = FleetService::new(FleetConfig {
        base: base.clone(),
        chaos,
        ..FleetConfig::default()
    });
    fleet.submit_all(stream.iter().copied());
    fleet.run()
}

#[test]
fn dag_jobs_fail_over_with_the_service_digests() {
    // Raw batches plus PLONK and STARK proofs submitted as stage DAGs, two
    // queues per lease: the fleet runs the proofs stage by stage, and a
    // kill re-shards the dead cluster's proofs in progress, which restart
    // from admission on a survivor.
    let stream: Vec<JobSpec> = WorkloadSpec {
        mix: WorkloadMix {
            raw: 0.5,
            plonk: 0.25,
            stark: 0.25,
        },
        ..WorkloadSpec::raw_only(0xda2, 32, 40_000.0)
    }
    .generate()
    .into_iter()
    .map(|s| JobSpec {
        class: s.class.pipelined(),
        ..s
    })
    .collect();
    let base = ServiceConfig {
        streams_per_lease: 2,
        ..ServiceConfig::default()
    };
    let mut service = ProofService::new(base.clone());
    service.submit_all(stream.iter().copied());
    let reference = service.run();
    assert!(reference.all_completed());
    let reference: BTreeMap<JobId, u64> = reference
        .outcomes
        .iter()
        .map(|o| (o.id, o.output_digest))
        .collect();

    let horizon_ns = run_fleet(&base, ChaosPlan::none(), &stream)
        .metrics
        .horizon_ns;
    let chaos = || ChaosPlan::kill_revive(0, horizon_ns * 0.25, horizon_ns * 0.7);
    let report = run_fleet(&base, chaos(), &stream);
    assert!(report.zero_accepted_failures());
    assert!(report.fleet.failovers >= 1, "the kill re-sharded work");
    assert_eq!(
        report.digests(),
        reference,
        "every job completes with the service's bits"
    );

    let replay = run_fleet(&base, chaos(), &stream);
    assert_eq!(replay.outcomes, report.outcomes);
    assert_eq!(replay.fleet, report.fleet);
    assert_eq!(replay.metrics, report.metrics);
}

#[test]
fn lost_devices_fail_over_with_fault_free_digests() {
    // Seeded drops and device losses on every raw dispatch: a lease runs
    // out of healthy nodes mid-batch, is repaired, and the unfinished tail
    // re-shards — no accepted job fails and no output bit moves.
    let stream = WorkloadSpec::bursty(3, 256, 50_000.0).generate();
    let fault_free = run_fleet(&ServiceConfig::default(), ChaosPlan::none(), &stream);
    let faulty = ServiceConfig {
        fault_rates: Some(FaultRates {
            drop_p: 0.01,
            device_loss_p: 0.004,
            ..FaultRates::default()
        }),
        ..ServiceConfig::default()
    };
    let report = run_fleet(&faulty, ChaosPlan::none(), &stream);
    assert!(report.zero_accepted_failures());
    assert_eq!(report.digests(), fault_free.digests());
    assert!(report.fleet.failovers >= 1, "{:?}", report.fleet);
    let repairs: u32 = report.metrics.leases.iter().map(|l| l.repairs).sum();
    assert!(repairs >= 1, "a lease was swapped for fresh hardware");
}

#[test]
#[should_panic(expected = "chaos event times must be finite")]
fn non_finite_chaos_times_are_rejected_up_front() {
    let mut chaos = ChaosPlan::kill_revive(1, 1_000.0, 2_000.0);
    chaos.events[0].t_ns = f64::NAN;
    fleet(SchedulerPolicy::Fifo, chaos);
}

#[test]
#[should_panic(expected = "chaos event targets cluster 3 of a 3-cluster fleet")]
fn chaos_on_a_cluster_outside_the_fleet_is_rejected_up_front() {
    let chaos = ChaosPlan {
        events: vec![ChaosEvent {
            t_ns: 1_000.0,
            cluster: 3,
            kind: ChaosKind::Kill,
        }],
    };
    fleet(SchedulerPolicy::Fifo, chaos);
}
