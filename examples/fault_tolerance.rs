//! Fault-tolerance walkthrough: inject a straggler GPU and a dropped
//! all-to-all into an 8-GPU forward NTT, let the recovery layer repair
//! the run, and print the recovery timeline straight from the simulator
//! trace — where the fault hit, what it cost, and proof the output is
//! still bit-exact.
//!
//! ```bash
//! cargo run --release --example fault_tolerance [log_n]
//! ```

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::{Goldilocks, PrimeField};
use unintt_gpu_sim::{presets, Category, FaultEvent, FaultKind, FaultPlan, FieldSpec, Machine};
use unintt_ntt::Ntt;

fn main() {
    let log_n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(16);
    let gpus = 8;
    let fs = FieldSpec::goldilocks();

    println!("Fault-tolerant UniNTT: 2^{log_n} Goldilocks forward on {gpus}×A100\n");

    // The script, over two back-to-back transforms: GPU 5 turns into a
    // 2.5× straggler at the first transform's all-to-all (collective #0),
    // then the second transform's all-to-all (collective #1) is dropped
    // on the wire and must be retried.
    let plan = FaultPlan::scripted(vec![
        FaultEvent {
            seq: 0,
            kind: FaultKind::Straggler {
                device: 5,
                factor: 2.5,
            },
        },
        FaultEvent {
            seq: 1,
            kind: FaultKind::Drop,
        },
    ]);

    let cfg = presets::a100_nvlink(gpus);
    let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut machine = Machine::new(cfg, fs);
    machine.set_fault_plan(plan);

    let input: Vec<Goldilocks> = (0..1usize << log_n)
        .map(|i| Goldilocks::from_u64(i as u64 + 1))
        .collect();
    let mut first = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
    let mut second = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);

    let policy = RecoveryPolicy::default();
    engine
        .try_forward(&mut machine, &mut first, &policy)
        .expect("straggler slows the run but cannot fail it");
    engine
        .try_forward(&mut machine, &mut second, &policy)
        .expect("the dropped all-to-all is retried within the policy budget");

    // --- What happened: the injected faults, in execution order. ---
    println!("injected faults:");
    for e in machine.fault_log() {
        println!("  collective #{:<3} {:?}", e.seq, e.kind);
    }

    // --- The recovery timeline, from the device trace. ---
    // Fault-category events are the detection timeouts, retry backoff,
    // and retransmissions the recovery layer charged to the clock.
    println!("\nrecovery timeline (GPU 0 trace, fault events only):");
    for e in machine.timeline(0).events() {
        if e.category == Category::Fault {
            println!(
                "  {:>10.2} µs  +{:>8.2} µs  {}",
                e.start.as_ns() / 1e3,
                e.duration.as_ns() / 1e3,
                e.name
            );
        }
    }

    // The straggler shows up as stretched kernels, not fault events:
    // compare a healthy device's busy time against GPU 5's.
    let busy = |d: usize| -> f64 {
        machine
            .timeline(d)
            .events()
            .iter()
            .filter(|e| e.category != Category::Fault)
            .map(|e| e.duration.as_ns())
            .sum()
    };
    println!(
        "\nstraggler impact: GPU 0 busy {:.1} µs, GPU 5 busy {:.1} µs ({:.2}× slower)",
        busy(0) / 1e3,
        busy(5) / 1e3,
        busy(5) / busy(0)
    );

    // --- The bill, and the proof the answer survived. ---
    let stats = machine.stats();
    println!("\nrecovery cost (counters sum across all {gpus} device streams):");
    println!("  retries:              {}", stats.retries);
    println!("  faults injected:      {}", stats.faults_injected);
    println!(
        "  fault time:           {:.1} µs of {:.1} µs total ({:.2}%)",
        stats.time_ns.get(Category::Fault) / 1e3,
        machine.max_clock_ns() / 1e3,
        100.0 * stats.time_ns.get(Category::Fault) / machine.max_clock_ns()
    );

    let mut reference = input;
    Ntt::<Goldilocks>::new(log_n).forward(&mut reference);
    assert_eq!(first.collect(), reference);
    assert_eq!(second.collect(), reference);
    println!("\nboth transforms bit-identical to the CPU reference ✓");
}
