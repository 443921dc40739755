//! The front door takes any `JobSpec`: arrivals and deadlines that are
//! NaN, infinite, negative or far past the clock's range, every priority,
//! and raw, PLONK and STARK shapes — mostly small, some that no lease can
//! run. Played through `ProofService` and through a three-cluster fleet
//! whose chaos plan revives every cluster it kills, nothing panics, every
//! submitted id gets exactly one outcome, and the status counts add up to
//! the number submitted.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{rngs::StdRng, Rng, SeedableRng};
use unintt_ff::{Bn254Fr, TwoAdicField};
use unintt_gpu_sim::SimTime;
use unintt_ntt::Direction;
use unintt_serve::{
    AdmissionError, ChaosEvent, ChaosKind, ChaosPlan, DagKind, FleetConfig, FleetReport,
    FleetService, JobClass, JobId, JobSpec, JobStatus, Priority, ProofService, ServiceConfig,
    ServiceField,
};
use unintt_zkp::LOG_QUOTIENT_BLOWUP;

/// The largest PLONK circuit, `2^MAX_LOG_GATES` rows, whose quotient
/// domain BN254-Fr can hold.
const MAX_LOG_GATES: u32 = Bn254Fr::TWO_ADICITY - LOG_QUOTIENT_BLOWUP;

/// Instants no clock or deadline check may choke on.
const ODD_TIMES: [f64; 6] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0, 1e30];

/// An arrival or deadline: mostly inside the first 200 µs, sometimes one
/// of the odd values.
fn time(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..8) == 0 {
        ODD_TIMES[rng.gen_range(0..ODD_TIMES.len() as u64) as usize]
    } else {
        rng.gen_range(0..200_000) as f64
    }
}

/// A job class: small shapes every lease runs, and now and then one of
/// the shapes a lease cannot run (a raw transform of 2^0–2^2 on the
/// default 2×2 lease or past the field's two-adicity, a PLONK circuit
/// whose quotient domain is past BN254-Fr's, a STARK trace with no
/// columns or too short for FRI).
fn class(rng: &mut StdRng) -> JobClass {
    let field = if rng.gen_range(0..2) == 0 {
        ServiceField::Goldilocks
    } else {
        ServiceField::BabyBear
    };
    let direction = if rng.gen_range(0..2) == 0 {
        Direction::Forward
    } else {
        Direction::Inverse
    };
    let class = match rng.gen_range(0..10) {
        0..=4 => JobClass::RawNtt {
            field,
            log_n: 4 + rng.gen_range(0..7) as u32,
            direction,
        },
        5 => {
            // Past two-adicity: Goldilocks from 2^33, BabyBear from 2^28.
            let past_adicity = match field {
                ServiceField::Goldilocks => [33, 64],
                ServiceField::BabyBear => [28, 64],
            };
            let log_n = match rng.gen_range(0..5) {
                i @ 0..=2 => i as u32,
                i => past_adicity[i as usize - 3],
            };
            JobClass::RawNtt {
                field,
                log_n,
                direction,
            }
        }
        6 | 7 => JobClass::PlonkProve {
            log_gates: match rng.gen_range(0..6) {
                i @ 0..=4 => i as u32,
                _ => [MAX_LOG_GATES + 1, 64][rng.gen_range(0..2) as usize],
            },
        },
        8 => JobClass::StarkCommit {
            log_trace: 2 + rng.gen_range(0..4) as u32,
            columns: 1 + rng.gen_range(0..3) as usize,
        },
        _ => JobClass::StarkCommit {
            log_trace: rng.gen_range(0..3) as u32,
            columns: rng.gen_range(0..2) as usize,
        },
    };
    if rng.gen_range(0..2) == 0 {
        class.pipelined()
    } else {
        class
    }
}

fn stream(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..jobs)
        .map(|_| JobSpec {
            tenant: rng.gen_range(0..4) as u32,
            class: class(&mut rng),
            priority: [Priority::Low, Priority::Normal, Priority::High]
                [rng.gen_range(0..3) as usize],
            deadline_ns: (rng.gen_range(0..3) == 0).then(|| time(&mut rng)),
            arrival_ns: time(&mut rng),
        })
        .collect()
}

/// Every cluster killed at some instant in the first 300 µs (sometimes
/// more than once) and revived up to 1 ms later.
fn kill_and_revive(seed: u64, clusters: usize) -> ChaosPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5eed);
    let mut events = Vec::new();
    for cluster in 0..clusters {
        for _ in 0..rng.gen_range(1..3) {
            let t_ns = rng.gen_range(0..300_000) as f64;
            events.push(ChaosEvent {
                t_ns,
                cluster,
                kind: ChaosKind::Kill,
            });
            events.push(ChaosEvent {
                t_ns: t_ns + rng.gen_range(1..1_000_000) as f64,
                cluster,
                kind: ChaosKind::Revive,
            });
        }
    }
    ChaosPlan { events }
}

/// One outcome per submitted id, in id order, and every status counted.
fn assert_accounted(report: &FleetReport, submitted: usize) -> Result<(), TestCaseError> {
    let ids: Vec<JobId> = report.outcomes.iter().map(|o| o.id).collect();
    prop_assert_eq!(ids, (0..submitted as u64).map(JobId).collect::<Vec<_>>());
    let mut counts = [0usize; 6];
    for o in &report.outcomes {
        let slot = match o.status {
            JobStatus::Completed => 0,
            JobStatus::DeadlineExceeded { .. } => 1,
            JobStatus::Rejected(AdmissionError::QueueFull { .. }) => 2,
            JobStatus::Rejected(AdmissionError::Overloaded { .. }) => 3,
            JobStatus::Rejected(AdmissionError::InvalidArrival) => 4,
            JobStatus::Rejected(AdmissionError::UnsupportedShape) => 5,
        };
        counts[slot] += 1;
    }
    prop_assert_eq!(counts.iter().sum::<usize>(), submitted);
    let m = &report.metrics;
    prop_assert_eq!(
        m.completed() + m.deadline_exceeded() + m.rejected() + m.shed(),
        counts[..4].iter().sum::<usize>()
    );
    Ok(())
}

/// Every PLONK job past [`MAX_LOG_GATES`], monolithic or as a DAG, is
/// rejected as an unsupported shape — or, when its arrival is not an
/// instant of the clock, for that, which admission checks first.
fn assert_oversized_plonk_rejected(
    report: &FleetReport,
    specs: &[JobSpec],
) -> Result<(), TestCaseError> {
    for (o, spec) in report.outcomes.iter().zip(specs) {
        if let JobClass::PlonkProve { log_gates } = spec.class.monolithic() {
            if log_gates > MAX_LOG_GATES {
                let error = match SimTime::try_from_ns(spec.arrival_ns) {
                    Some(_) => AdmissionError::UnsupportedShape,
                    None => AdmissionError::InvalidArrival,
                };
                prop_assert_eq!(
                    o.status,
                    JobStatus::Rejected(error),
                    "2^{} gates",
                    log_gates
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_job_spec_gets_exactly_one_outcome(seed in any::<u64>(), jobs in 1usize..32) {
        let specs = stream(seed, jobs);

        let mut service = ProofService::new(ServiceConfig::default());
        service.submit_all(specs.iter().copied());
        let report = service.run();
        assert_accounted(&report, jobs)?;
        assert_oversized_plonk_rejected(&report, &specs)?;

        let mut fleet = FleetService::new(FleetConfig {
            clusters: 3,
            chaos: kill_and_revive(seed, 3),
            ..FleetConfig::default()
        });
        fleet.submit_all(specs.iter().copied());
        let report = fleet.run();
        assert_accounted(&report, jobs)?;
        assert_oversized_plonk_rejected(&report, &specs)?;
    }
}

#[test]
fn unrunnable_shapes_are_typed_rejections() {
    let raw = |field, log_n| JobClass::RawNtt {
        field,
        log_n,
        direction: Direction::Forward,
    };
    let stark = |log_trace, columns| JobClass::StarkCommit { log_trace, columns };
    let dag_stark = |log_trace, columns| JobClass::ProveDag {
        kind: DagKind::Stark { log_trace, columns },
    };
    let plonk = |log_gates| JobClass::PlonkProve { log_gates };
    let dag_plonk = |log_gates| JobClass::ProveDag {
        kind: DagKind::Plonk { log_gates },
    };
    let (gl, bb) = (ServiceField::Goldilocks, ServiceField::BabyBear);
    let unrunnable = [
        raw(gl, 0),
        raw(gl, 1),
        raw(bb, 2),
        raw(gl, 33),
        raw(gl, 64),
        raw(bb, 28),
        stark(6, 0),
        stark(1, 2),
        dag_stark(6, 0),
        dag_stark(1, 2),
        plonk(MAX_LOG_GATES + 1),
        plonk(64),
        dag_plonk(MAX_LOG_GATES + 1),
        dag_plonk(64),
    ];
    let runnable = [
        raw(gl, 4),
        raw(bb, 8),
        stark(6, 2),
        dag_stark(6, 2),
        plonk(3),
        dag_plonk(2),
    ];
    // Interleaved, all arriving in the first few microseconds.
    let mut specs = Vec::new();
    for (i, class) in unrunnable.iter().enumerate() {
        specs.push(JobSpec::new(0, *class, i as f64 * 100.0));
        if let Some(ok) = runnable.get(i) {
            specs.push(JobSpec::new(1, *ok, i as f64 * 100.0 + 50.0));
        }
    }
    let mut service = ProofService::new(ServiceConfig::default());
    service.submit_all(specs.iter().copied());
    let report = service.run();
    assert_eq!(report.outcomes.len(), specs.len());
    for (o, spec) in report.outcomes.iter().zip(&specs) {
        if unrunnable.contains(&spec.class) {
            assert_eq!(
                o.status,
                JobStatus::Rejected(AdmissionError::UnsupportedShape),
                "{:?}",
                spec.class
            );
        } else {
            assert!(o.completed(), "{:?}: {:?}", spec.class, o.status);
        }
    }
    assert_eq!(report.metrics.completed(), runnable.len());
    assert_eq!(report.metrics.rejected(), 0, "metrics skip them");
}
