//! Cross-crate telemetry invariants: span trees built from *real*
//! instrumented engine runs must nest correctly, and fault-injected runs
//! must mark every injected fault with a matching instant event.
//!
//! Each test (and each proptest case) runs inside its own exclusive
//! telemetry session, so these interleave safely with every other test
//! in the binary.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{CommMode, RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::{Field, Goldilocks, PrimeField};
use unintt_gpu_sim::{presets, FaultEvent, FaultKind, FaultPlan, FieldSpec, Machine};
use unintt_telemetry::{self as telemetry, InstantKind, Session, SpanLevel, SpanTree};

/// One functional forward transform with full device-span export,
/// recorded under a fresh telemetry session.
fn traced_forward(log_n: u32, gpus: usize, overlapped: bool, seed: u64) -> Session {
    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(gpus);
    let mut opts = UniNttOptions::tuned_for(&fs);
    opts.comm_mode = if overlapped {
        CommMode::Overlapped
    } else {
        CommMode::Blocking
    };
    let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, opts, fs);
    let mut machine = Machine::new(cfg, fs);
    let mut rng = StdRng::seed_from_u64(seed);
    let input: Vec<Goldilocks> = (0..1usize << log_n)
        .map(|_| Goldilocks::random(&mut rng))
        .collect();
    let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);

    let _guard = telemetry::start_session();
    engine.forward(&mut machine, &mut data);
    machine.export_telemetry_spans();
    telemetry::take_session()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn span_trees_from_real_runs_validate(
        log_n in 8u32..12,
        log_g in 0u32..3,
        overlapped in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let session = traced_forward(log_n, 1usize << log_g, overlapped, seed);
        prop_assert!(!session.spans.is_empty());

        // Exactly one transform root, and phase spans beneath it.
        prop_assert_eq!(
            session.spans.iter().filter(|s| s.name == "unintt-forward").count(),
            1
        );
        prop_assert!(session.spans.iter().any(|s| s.level == SpanLevel::Fabric));
        prop_assert!(session.spans.iter().any(|s| s.level == SpanLevel::Device));

        // Tree invariants: children inside parents, no sibling overlap
        // on one track, intervals well-formed.
        let tree = SpanTree::build(&session.spans);
        if let Err(e) = tree.validate() {
            prop_assert!(false, "span tree invalid: {}", e);
        }
        prop_assert!(!tree.roots().is_empty());
    }
}

#[test]
fn fault_injected_runs_emit_matching_instants() {
    let fs = FieldSpec::goldilocks();
    let gpus = 4;
    let cfg = presets::a100_nvlink(gpus);
    let engine = UniNttEngine::<Goldilocks>::new(12, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut machine = Machine::new(cfg, fs);
    machine.set_fault_plan(FaultPlan::scripted(vec![
        FaultEvent {
            seq: 0,
            kind: FaultKind::Drop,
        },
        FaultEvent {
            seq: 2,
            kind: FaultKind::Delay { factor: 2.5 },
        },
    ]));
    let input: Vec<Goldilocks> = (0..1usize << 12)
        .map(|i| Goldilocks::from_u64(0x0b5e_u64.wrapping_mul(i as u64 + 7)))
        .collect();
    let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);

    let _guard = telemetry::start_session();
    engine
        .try_forward(&mut machine, &mut data, &RecoveryPolicy::default())
        .expect("default recovery absorbs a drop and a delay");
    let session = telemetry::take_session();

    let fault_instants: Vec<_> = session
        .instants
        .iter()
        .filter(|i| i.kind == InstantKind::Fault)
        .collect();
    assert!(
        !machine.fault_log().is_empty(),
        "the scripted plan must actually fire"
    );
    assert_eq!(
        fault_instants.len(),
        machine.fault_log().len(),
        "one Fault instant per injected fault"
    );
    for (instant, event) in fault_instants.iter().zip(machine.fault_log()) {
        assert_eq!(instant.name, event.kind.name());
    }
    assert_eq!(
        telemetry::registry_snapshot()
            .counters
            .get("sim_faults_injected")
            .copied(),
        Some(machine.fault_log().len() as u64),
        "the faults counter tracks the fault log"
    );
}

#[test]
fn traced_and_untraced_runs_charge_identical_time() {
    let run_once = || {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(4);
        let engine = UniNttEngine::<Goldilocks>::new(13, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg, fs);
        engine.simulate_forward(&mut machine, 1);
        machine.max_clock_ns()
    };
    let traced = {
        let _guard = telemetry::start_session();
        run_once()
    };
    let untraced = run_once();
    assert_eq!(traced, untraced, "telemetry must never move the clock");
}

// ---------------------------------------------------------------------
// Session membership: forked work records as its opener would.
// ---------------------------------------------------------------------

#[test]
fn forked_work_records_as_a_member_of_its_openers_session() {
    let pool = unintt_exec::Executor::new(8);
    let _guard = telemetry::start_session();
    let first = telemetry::fresh_id();

    // 100 tasks × (50 adds + a nested scope of 5 tasks × 10 adds): every
    // task carries the membership of the thread that spawned it.
    let member = telemetry::recording();
    assert!(member);
    pool.scope(|s| {
        for _ in 0..100 {
            let pool = &pool;
            s.spawn(move || {
                telemetry::adopt(member, || {
                    for _ in 0..50 {
                        telemetry::counter_add("forked_adds", 1);
                    }
                    let inherited = telemetry::recording();
                    pool.scope(|nested| {
                        for _ in 0..5 {
                            nested.spawn(move || {
                                telemetry::adopt(inherited, || {
                                    for _ in 0..10 {
                                        telemetry::counter_add("forked_adds", 1);
                                    }
                                })
                            });
                        }
                    });
                })
            });
        }
    });
    assert_eq!(
        telemetry::registry_snapshot().counters["forked_adds"],
        10_000,
        "no add may be dropped, whichever thread made it"
    );
    // Workers take no ids: the opener's spans keep theirs, in order.
    assert_eq!(telemetry::fresh_id(), first + 1);
}

#[test]
fn threads_outside_the_session_still_record_nothing() {
    let pool = unintt_exec::Executor::new(4);
    let _guard = telemetry::start_session();
    // A task nobody adopted (an unrelated scope the pool happens to run,
    // here even on the opener's own pool) and a plain thread.
    pool.scope(|s| {
        for _ in 0..64 {
            s.spawn(|| telemetry::adopt(false, || telemetry::counter_add("stray_adds", 1)));
        }
    });
    std::thread::spawn(|| {
        assert!(!telemetry::recording());
        telemetry::counter_add("stray_adds", 1);
    })
    .join()
    .unwrap();
    assert!(!telemetry::registry_snapshot()
        .counters
        .contains_key("stray_adds"));
    // The opener itself is unaffected by the tasks it ran while joining.
    assert!(telemetry::recording());
}

#[test]
fn transform_dispatch_counts_do_not_depend_on_who_ran_the_phase() {
    // 2^20 over 8 GPUs: each device's local NTT is long enough that the
    // global pool shares the phase with its workers whenever it has any.
    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(8);
    let engine = UniNttEngine::<Goldilocks>::new(20, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut machine = Machine::new(cfg, fs);
    let input = vec![Goldilocks::ONE; 1 << 20];
    let mut data = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
    let _guard = telemetry::start_session();
    engine.forward(&mut machine, &mut data);
    let dispatched: u64 = telemetry::registry_snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("ntt_dispatch_"))
        .map(|(_, count)| count)
        .sum();
    // One public transform call per device in the local phase and one
    // column transform per device in the outer phase.
    assert_eq!(dispatched, 16);
}
