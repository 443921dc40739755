//! The service and the fleet schedule a cluster with one scheduler: a
//! one-cluster fleet with hedging off, no chaos and capacities above the
//! stream size plays every stream exactly as the service does — every
//! completion instant to the bit, every lease's busy time and dispatch
//! count — under every policy, for raw streams and for mixed streams of
//! raw batches, monolithic proofs and stage DAGs at one and two queues
//! per lease.

use unintt_serve::{
    ChaosPlan, FleetConfig, FleetReport, FleetService, JobSpec, ProofService, SchedulerPolicy,
    ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec,
};

const POLICIES: [SchedulerPolicy; 3] = [
    SchedulerPolicy::Fifo,
    SchedulerPolicy::Priority,
    SchedulerPolicy::ShortestJobFirst,
];

/// `tests/one_path.rs`'s stream: 24 jobs at 40k jobs/s, half raw NTTs, a
/// quarter PLONK, a quarter STARK, every even-indexed job `.pipelined()`.
fn mixed_stream(seed: u64) -> Vec<JobSpec> {
    let spec = WorkloadSpec {
        mix: WorkloadMix {
            raw: 0.5,
            plonk: 0.25,
            stark: 0.25,
        },
        ..WorkloadSpec::raw_only(seed, 24, 40_000.0)
    };
    spec.generate()
        .into_iter()
        .enumerate()
        .map(|(i, s)| JobSpec {
            class: if i % 2 == 0 {
                s.class.pipelined()
            } else {
                s.class
            },
            ..s
        })
        .collect()
}

fn serve(cfg: &ServiceConfig, stream: &[JobSpec]) -> ServiceReport {
    let mut service = ProofService::new(ServiceConfig {
        queue_capacity: usize::MAX,
        ..cfg.clone()
    });
    service.submit_all(stream.iter().copied());
    service.run()
}

fn one_cluster_fleet(cfg: &ServiceConfig, stream: &[JobSpec]) -> FleetReport {
    let mut fleet = FleetService::new(FleetConfig {
        clusters: 1,
        base: cfg.clone(),
        hedge: None,
        soft_capacity: usize::MAX,
        hard_capacity: usize::MAX,
        chaos: ChaosPlan::none(),
        ..FleetConfig::default()
    });
    fleet.submit_all(stream.iter().copied());
    fleet.run()
}

fn assert_same_run(cfg: &ServiceConfig, stream: &[JobSpec], what: &str) {
    let service = serve(cfg, stream);
    let fleet = one_cluster_fleet(cfg, stream);
    assert!(service.all_completed(), "{what}");
    assert_eq!(service.outcomes.len(), fleet.outcomes.len(), "{what}");
    for (s, f) in service.outcomes.iter().zip(&fleet.outcomes) {
        assert_eq!(
            (
                s.id,
                s.status,
                s.completed_ns.to_bits(),
                s.batch_size,
                s.output_digest
            ),
            (
                f.id,
                f.status,
                f.completed_ns.to_bits(),
                f.batch_size,
                f.output_digest
            ),
            "{what}: {} differs",
            s.id
        );
    }
    let leases = |leases: &[unintt_serve::LeaseMetrics]| -> Vec<(u64, u64)> {
        leases
            .iter()
            .map(|l| (l.dispatches, l.busy_ns.to_bits()))
            .collect()
    };
    assert_eq!(
        leases(&service.metrics.leases),
        leases(&fleet.metrics.leases),
        "{what}: per-lease dispatches and busy time"
    );
}

#[test]
fn one_cluster_fleet_reproduces_the_service() {
    for seed in [3, 4] {
        let streams = [
            ("raw_only", WorkloadSpec::raw_only(seed, 128, 80_000.0)),
            ("bursty", WorkloadSpec::bursty(seed, 128, 50_000.0)),
        ];
        for (name, spec) in &streams {
            let stream = spec.generate();
            for policy in POLICIES {
                let cfg = ServiceConfig {
                    policy,
                    ..ServiceConfig::default()
                };
                assert_same_run(&cfg, &stream, &format!("{name} seed {seed} {policy:?}"));
            }
        }
    }
    for seed in [14, 17] {
        let stream = mixed_stream(seed);
        for streams_per_lease in [1, 2] {
            for policy in POLICIES {
                let cfg = ServiceConfig {
                    policy,
                    streams_per_lease,
                    ..ServiceConfig::default()
                };
                let what = format!("mixed seed {seed} k={streams_per_lease} {policy:?}");
                assert_same_run(&cfg, &stream, &what);
            }
        }
    }
}
