//! Intra-lease stream overlap, verified end to end: overlapped runs are
//! bit-identical to serialized runs across proof shapes, seeds, queue
//! counts and fault injection, and the per-queue telemetry story
//! reconciles with the scheduler's own stage accounting. (The one-queue
//! schedule's clocks are pinned in the root suite,
//! `tests/one_path.rs`.)

use std::collections::BTreeMap;

use proptest::prelude::*;
use unintt_gpu_sim::InterferenceModel;
use unintt_serve::{
    JobSpec, ProofService, ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec,
};
use unintt_telemetry::{AttrValue, SimTime, SpanLevel};

/// A mixed stream with the proof jobs submitted as stage DAGs (the only
/// class the stream scheduler overlaps).
fn dag_stream(seed: u64, jobs: usize, load_jobs_per_s: f64) -> Vec<JobSpec> {
    let spec = WorkloadSpec {
        mix: WorkloadMix {
            raw: 0.5,
            plonk: 0.25,
            stark: 0.25,
        },
        ..WorkloadSpec::raw_only(seed, jobs, load_jobs_per_s)
    };
    spec.generate()
        .into_iter()
        .map(|s| JobSpec {
            class: s.class.pipelined(),
            ..s
        })
        .collect()
}

fn run_with(cfg: ServiceConfig, stream: &[JobSpec]) -> ServiceReport {
    let mut service = ProofService::new(cfg);
    service.submit_all(stream.iter().copied());
    service.run()
}

fn digests(report: &ServiceReport) -> Vec<(u64, u64)> {
    report
        .outcomes
        .iter()
        .map(|o| (o.id.0, o.output_digest))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Overlapped stage dispatch never changes a single output bit:
    /// every queue count and both interference models produce the same
    /// per-job digests as the serialized path, across seeds and loads.
    #[test]
    fn overlap_is_bit_identical_to_serialized(
        seed in any::<u64>(),
        load in 5_000.0f64..100_000.0,
    ) {
        let stream = dag_stream(seed, 12, load);
        let serial = run_with(ServiceConfig::default(), &stream);
        prop_assert!(serial.all_completed());
        for k in 1usize..=4 {
            for model in [InterferenceModel::default_model(), InterferenceModel::conservative()] {
                let streamed = run_with(
                    ServiceConfig {
                        streams_per_lease: k,
                        interference: model,
                        ..ServiceConfig::default()
                    },
                    &stream,
                );
                prop_assert!(streamed.all_completed());
                prop_assert_eq!(
                    digests(&serial),
                    digests(&streamed),
                    "outputs must not depend on queue count (k={})", k
                );
            }
        }
    }

    /// Bit-identity survives injected raw-batch faults: lease
    /// degradation and repair reshuffle the schedule around the
    /// overlapped stages, but every digest still matches.
    #[test]
    fn overlap_is_bit_identical_under_faults(seed in any::<u64>()) {
        let stream = dag_stream(seed, 12, 60_000.0);
        let faulty = |k: usize| ServiceConfig {
            streams_per_lease: k,
            fault_rates: Some(unintt_gpu_sim::FaultRates {
                drop_p: 0.01,
                device_loss_p: 0.004,
                ..Default::default()
            }),
            ..ServiceConfig::default()
        };
        let serial = run_with(faulty(1), &stream);
        prop_assert!(serial.all_completed(), "faults degrade, never fail");
        for k in 2usize..=4 {
            let streamed = run_with(faulty(k), &stream);
            prop_assert!(streamed.all_completed());
            prop_assert_eq!(digests(&serial), digests(&streamed), "k={}", k);
        }
    }
}

/// Two runs of the overlapped scheduler are bit-identical to each other
/// — determinism is not weakened by the multi-queue model.
#[test]
fn overlapped_runs_replay_bit_identically() {
    let stream = dag_stream(21, 16, 60_000.0);
    let cfg = ServiceConfig {
        streams_per_lease: 3,
        ..ServiceConfig::default()
    };
    let a = run_with(cfg.clone(), &stream);
    let b = run_with(cfg, &stream);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.stage_ns, b.stage_ns);
}

/// With complementary stages co-resident, the mixed-load horizon under
/// two queues must not regress past the serialized schedule.
#[test]
fn overlap_never_lengthens_the_horizon() {
    let stream = dag_stream(5, 24, 80_000.0);
    let serial = run_with(ServiceConfig::default(), &stream);
    let streamed = run_with(
        ServiceConfig {
            streams_per_lease: 2,
            ..ServiceConfig::default()
        },
        &stream,
    );
    assert!(serial.all_completed() && streamed.all_completed());
    assert!(
        streamed.metrics.horizon_ns <= serial.metrics.horizon_ns + 1e-6,
        "overlap must not slow the service: {} vs {}",
        streamed.metrics.horizon_ns,
        serial.metrics.horizon_ns
    );
}

/// The telemetry story matches the scheduler's books: per-queue stage
/// spans (`lease{l}.q{q}` tracks) sum to exactly the per-kind stage
/// attribution the report carries, the co-scheduling counters fire, and
/// the occupancy gauges are present.
#[test]
fn per_queue_spans_reconcile_with_stage_accounting() {
    let stream = dag_stream(9, 16, 60_000.0);
    let guard = unintt_telemetry::start_session();
    let report = run_with(
        ServiceConfig {
            streams_per_lease: 2,
            ..ServiceConfig::default()
        },
        &stream,
    );
    let session = unintt_telemetry::take_session();
    let registry = unintt_telemetry::registry_snapshot();
    drop(guard);
    assert!(report.all_completed());

    // Every DAG stage span lives on a lease{l}.q{q} track...
    let stage_spans: Vec<_> = session
        .spans
        .iter()
        .filter(|s| s.level == SpanLevel::Serve && s.category == "stage")
        .collect();
    assert!(!stage_spans.is_empty(), "the stream must run DAG stages");
    for s in &stage_spans {
        assert!(
            s.track.contains(".q"),
            "stage spans carry their queue in the track name: {}",
            s.track
        );
    }
    // ...and their durations sum to the report's stage attribution,
    // the serve-side analogue of the E16 device reconciliation.
    let mut span_time: BTreeMap<&str, SimTime> = BTreeMap::new();
    for s in &stage_spans {
        let kind = s.attrs.iter().find_map(|(k, v)| match (*k, v) {
            ("kind", AttrValue::Str(kind)) => Some(*kind),
            _ => None,
        });
        *span_time
            .entry(kind.expect("stage spans name their kind"))
            .or_default() += s.duration();
    }
    let span_ns: BTreeMap<&str, f64> = span_time.into_iter().map(|(k, t)| (k, t.as_ns())).collect();
    assert_eq!(
        span_ns, report.stage_ns,
        "span durations must match stage accounting"
    );

    assert!(
        registry
            .counters
            .get("serve_dag_stages")
            .copied()
            .unwrap_or(0)
            > 0,
        "stage dispatches counted"
    );
    assert!(
        registry
            .counters
            .get("sim_costream_pairs")
            .copied()
            .unwrap_or(0)
            > 0,
        "at this load some stages must actually co-schedule"
    );
    assert!(registry.gauges.contains_key("sim_stream_occupancy"));
    assert!(registry.gauges.contains_key("sim_stream_occupancy_peak"));
}
