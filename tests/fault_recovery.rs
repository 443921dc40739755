//! End-to-end fault recovery: a 4-GPU forward NTT whose all-to-all is
//! dropped by an injected fault must, after retry, produce output
//! bit-identical to the CPU reference — and the whole episode must be
//! deterministic under the fault plan's seed, and charge the same
//! whatever data the transform carries.

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::{Goldilocks, PrimeField};
use unintt_gpu_sim::{
    presets, Category, FaultEvent, FaultKind, FaultPlan, FaultRates, FieldSpec, Machine,
};
use unintt_ntt::Ntt;

const LOG_N: u32 = 12;
const GPUS: usize = 4;

fn cpu_reference(input: &[Goldilocks]) -> Vec<Goldilocks> {
    let mut v = input.to_vec();
    Ntt::<Goldilocks>::new(LOG_N).forward(&mut v);
    v
}

fn test_input() -> Vec<Goldilocks> {
    (0..1usize << LOG_N)
        .map(|i| Goldilocks::from_u64(0xdead_beef_u64.wrapping_mul(i as u64 + 3)))
        .collect()
}

fn run_with_plan(plan: Option<FaultPlan>, policy: &RecoveryPolicy) -> (Vec<Goldilocks>, f64, u64) {
    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(GPUS);
    let engine = UniNttEngine::<Goldilocks>::new(LOG_N, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut machine = Machine::new(cfg, fs);
    if let Some(plan) = plan {
        machine.set_fault_plan(plan);
    }
    let input = test_input();
    let mut data = Sharded::distribute(&input, GPUS, ShardLayout::Cyclic);
    engine
        .try_forward(&mut machine, &mut data, policy)
        .expect("recovery should absorb the injected faults");
    (
        data.collect(),
        machine.max_clock_ns(),
        machine.stats().retries,
    )
}

#[test]
fn recovered_forward_ntt_matches_cpu_reference() {
    // The headline acceptance check: drop the transform's all-to-all on
    // the wire; the retry must complete and the output must be bit-exact.
    let plan = FaultPlan::scripted(vec![FaultEvent {
        seq: 0,
        kind: FaultKind::Drop,
    }]);
    let (output, _, retries) = run_with_plan(Some(plan), &RecoveryPolicy::default());
    assert!(retries > 0, "the drop must actually have been retried");
    assert_eq!(output, cpu_reference(&test_input()));
}

#[test]
fn recovery_is_deterministic_per_seed() {
    // Same seed ⇒ identical output AND identical simulated time, down to
    // the last nanosecond of backoff.
    let rates = FaultRates::transfers_only(0.2);
    let policy = RecoveryPolicy::default();
    let (out_a, ns_a, retries_a) = run_with_plan(Some(FaultPlan::random(42, rates)), &policy);
    let (out_b, ns_b, retries_b) = run_with_plan(Some(FaultPlan::random(42, rates)), &policy);
    assert_eq!(out_a, out_b);
    assert_eq!(ns_a, ns_b);
    assert_eq!(retries_a, retries_b);
    assert_eq!(out_a, cpu_reference(&test_input()));
}

#[test]
fn recovery_costs_simulated_time_but_not_correctness() {
    // A faulted-and-recovered run must take strictly longer on the
    // simulated clock than a clean one, and still agree with it exactly.
    let (clean, clean_ns, _) = run_with_plan(None, &RecoveryPolicy::none());
    let plan = FaultPlan::scripted(vec![FaultEvent {
        seq: 0,
        kind: FaultKind::Drop,
    }]);
    let (recovered, recovered_ns, _) = run_with_plan(Some(plan), &RecoveryPolicy::default());
    assert_eq!(clean, recovered);
    assert!(
        recovered_ns > clean_ns,
        "recovery charged no simulated time: {recovered_ns} vs {clean_ns}"
    );
}

#[test]
fn fault_clock_does_not_depend_on_the_data() {
    // Constant input makes most exchanged chunks hold equal values, so a
    // corruption there copies an equal value: a repair that compared
    // content would find nothing to re-request and charge nothing.
    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(GPUS);
    let engine = UniNttEngine::<Goldilocks>::new(LOG_N, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let rates = FaultRates {
        corrupt_p: 0.5,
        drop_p: 0.2,
        ..FaultRates::default()
    };
    let run = |input: Vec<Goldilocks>| {
        let mut machine = Machine::new(cfg.clone(), fs);
        machine.set_fault_plan(FaultPlan::random(23, rates));
        for _ in 0..6 {
            let mut data = Sharded::distribute(&input, GPUS, ShardLayout::Cyclic);
            engine
                .try_forward(&mut machine, &mut data, &RecoveryPolicy::default())
                .expect("four retries absorb these drops");
            assert_eq!(data.collect(), cpu_reference(&input), "repair is exact");
        }
        let stats = machine.stats();
        (
            stats.time_ns.get(Category::Fault).to_bits(),
            stats.interconnect_bytes_retransmitted,
            machine.fault_log().to_vec(),
        )
    };
    let random = run(test_input());
    let constant = run(vec![Goldilocks::from_u64(7); 1 << LOG_N]);
    assert!(random.1 > 0, "the plan corrupts some exchange");
    assert_eq!(random, constant);
}
