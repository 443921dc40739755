//! Quickstart: run one NTT three ways — CPU reference, simulated
//! single GPU, and simulated 8-GPU UniNTT — and check they agree bit for
//! bit while the simulated clocks tell the performance story.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{single_gpu, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::{Field, Goldilocks};
use unintt_gpu_sim::{presets, FieldSpec, Machine};
use unintt_ntt::Ntt;

fn main() {
    let log_n = 22u32;
    let n = 1usize << log_n;
    println!("forward NTT of 2^{log_n} Goldilocks elements\n");

    let mut rng = StdRng::seed_from_u64(7);
    let input: Vec<Goldilocks> = (0..n).map(|_| Goldilocks::random(&mut rng)).collect();

    // 1. CPU reference.
    let cpu = Ntt::<Goldilocks>::new(log_n);
    let mut expected = input.clone();
    cpu.forward(&mut expected);
    println!("CPU reference        : done (ground truth)");

    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(8);

    // 2. Simulated single A100.
    let engine1 = single_gpu::engine::<Goldilocks>(log_n, &cfg, fs);
    let mut machine1 = single_gpu::machine(&cfg, fs);
    let mut data1 = Sharded::distribute(&input, 1, ShardLayout::Cyclic);
    engine1.forward(&mut machine1, &mut data1);
    assert_eq!(data1.collect(), expected, "single-GPU result must match");
    let t1 = machine1.max_clock_ns();
    println!("1×A100 (simulated)   : {:>10.1} µs", t1 / 1e3);

    // 3. UniNTT on eight simulated A100s.
    let engine8 = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
    let mut machine8 = Machine::new(cfg, fs);
    let mut data8 = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
    engine8.forward(&mut machine8, &mut data8);
    assert_eq!(data8.collect(), expected, "multi-GPU result must match");
    let t8 = machine8.max_clock_ns();
    println!("8×A100 UniNTT        : {:>10.1} µs", t8 / 1e3);

    println!("\nspeedup 8 vs 1 GPU   : {:.2}x", t1 / t8);
    let stats = machine8.stats();
    println!(
        "inter-GPU traffic    : {} bytes over {} collectives",
        stats.interconnect_bytes_sent, stats.collectives
    );

    // The simulator records an Nsight-style event timeline per device.
    println!("\nGPU 0 timeline (simulated):");
    for event in machine8.timeline(0).events() {
        println!(
            "  {:>8.1} µs  +{:>7.1} µs  {:<22} [{}]",
            event.start.as_ns() / 1e3,
            event.duration.as_ns() / 1e3,
            event.name,
            event.category
        );
    }

    println!("\nall three computations produced identical results ✓");
}
