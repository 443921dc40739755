//! **E13 — fault tolerance** (beyond the paper): what does surviving a
//! lossy fabric cost? Sweeps per-collective fault rates against recovery
//! policies on the functional multi-GPU forward NTT, reporting completion
//! rate, recovery overhead (the `Category::Fault` share of simulated
//! time), and bytes retransmitted by the checksummed exchange. Every run
//! that completes under the full policy is bit-checked against the CPU
//! reference — recovery is only worth reporting if the answer stays
//! exact.
//!
//! The fault model is `unintt_gpu_sim::FaultPlan`: seeded, deterministic,
//! and charged entirely to the simulated clock, so the sweep is
//! reproducible down to the nanosecond.

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::{Goldilocks, PrimeField};
use unintt_gpu_sim::{presets, Category, FaultPlan, FaultRates, FieldSpec, Machine};
use unintt_ntt::Ntt;

use crate::report::{Kind, Table};

/// One policy column of the sweep.
struct Policy {
    name: &'static str,
    policy: RecoveryPolicy,
}

fn policies() -> [Policy; 3] {
    [
        Policy {
            name: "none",
            policy: RecoveryPolicy::none(),
        },
        Policy {
            name: "retry",
            policy: RecoveryPolicy::retry_only(),
        },
        Policy {
            name: "full",
            policy: RecoveryPolicy::default(),
        },
    ]
}

/// Runs E13 and renders the table.
pub fn run(quick: bool) -> Table {
    let fs = FieldSpec::goldilocks();
    let (log_n, gpus, trials, reps) = if quick { (10, 4, 4, 4) } else { (12, 8, 8, 8) };
    // 5e-2 is far beyond any realistic fabric, but stresses the
    // corruption path enough for the checksum columns to be non-trivial.
    let rates: &[f64] = &[0.0, 1e-3, 1e-2, 5e-2];

    let mut table = Table::new(
        "e13",
        format!("E13: fault tolerance (2^{log_n} Goldilocks forward NTT, {gpus}×A100)"),
        &[
            ("p/collective", Kind::Label),
            ("policy", Kind::Label),
            ("runs", Kind::Count),
            ("completed", Kind::Num(1, "%")),
            ("silent corrupt", Kind::Count),
            ("retries", Kind::Count),
            ("retransmitted", Kind::Bytes),
            ("fault time", Kind::Num(2, "%")),
            ("total time", Kind::Ns(0)),
        ],
    );

    let cfg = presets::a100_nvlink(gpus);
    let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let input: Vec<Goldilocks> = (0..1usize << log_n)
        .map(|i| Goldilocks::from_u64(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)))
        .collect();
    let reference = {
        let ntt = Ntt::<Goldilocks>::new(log_n);
        let mut v = input.clone();
        ntt.forward(&mut v);
        v
    };

    for &p in rates {
        for pol in policies() {
            let mut completed = 0u64;
            let mut corrupted = 0u64;
            let mut retries = 0u64;
            let mut retransmitted = 0u64;
            let mut fault_ns = 0.0f64;
            let mut total_ns = 0.0f64;
            let runs = (trials * reps) as u64;

            for trial in 0..trials {
                let mut machine = Machine::new(cfg.clone(), fs);
                if p > 0.0 {
                    // Seed varies per (rate, trial) so fault positions
                    // differ across trials but replay identically.
                    let seed = 1000 * trial as u64 + (p * 1e4) as u64;
                    machine.set_fault_plan(FaultPlan::random(seed, FaultRates::transfers_only(p)));
                }
                for _ in 0..reps {
                    let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
                    match engine.try_forward(&mut machine, &mut data, &pol.policy) {
                        Ok(()) => {
                            if data.collect() == reference {
                                completed += 1;
                            } else {
                                // Only possible without checksums: the
                                // corruption sailed through undetected.
                                assert!(
                                    !pol.policy.verify_checksums,
                                    "checksummed run must not return corrupt data"
                                );
                                corrupted += 1;
                            }
                        }
                        Err(e) => assert!(e.is_transient(), "transfers_only cannot lose devices"),
                    }
                }
                let stats = machine.stats();
                retries += stats.retries;
                retransmitted += stats.interconnect_bytes_retransmitted;
                fault_ns += stats.time_ns.get(Category::Fault);
                total_ns += machine.max_clock_ns();
            }

            table.row([
                format!("{p:.0e}").into(),
                pol.name.into(),
                runs.into(),
                (100.0 * completed as f64 / runs as f64).into(),
                corrupted.into(),
                retries.into(),
                retransmitted.into(),
                (100.0 * fault_ns / total_ns).into(),
                total_ns.into(),
            ]);
        }
    }
    table.note(
        "fault time = simulated ns charged under Category::Fault (timeouts, backoff, retransmits)",
    );
    table.note(
        "finding: retry alone completes through drops but lets corruption through silently; \
         checksums turn corruption into a targeted chunk retransmit and are the only policy \
         that keeps completion at 100% with zero silent corruptions",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_expected_rows() {
        let table = run(true);
        // 4 rates × 3 policies.
        assert_eq!(table.len(), 12, "{}", table.render());
    }

    #[test]
    fn zero_rate_always_completes_with_zero_overhead() {
        let table = run(true);
        let rendered = table.render();
        // The p=0 rows must show 100% completion.
        assert!(rendered.contains("100.0%"), "{rendered}");
    }
}
