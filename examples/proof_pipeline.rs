//! End-to-end ZKP pipeline: prove knowledge of `x` with `x³ + x + 5 = y`,
//! then prove a larger random circuit on three backends — CPU, the
//! status-quo simulated machine (multi-GPU MSM, single-GPU NTT), and the
//! UniNTT machine (both multi-GPU) — and show the end-to-end effect the
//! paper motivates.
//!
//! ```bash
//! cargo run --release --example proof_pipeline
//! ```

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, PrimeField};
use unintt_gpu_sim::presets;
use unintt_zkp::{cubic_circuit, prove, random_circuit, setup, verify, Backend};

fn main() {
    let mut rng = StdRng::seed_from_u64(1234);

    // Part 1: the classic toy statement.
    println!("--- proving x³ + x + 5 = y (x = 3) ---");
    let (circuit, witness, y) = cubic_circuit(Bn254Fr::from_u64(3));
    let (pk, vk) = setup(&circuit, &mut rng);
    let proof = prove(&pk, &witness, &[y], &mut Backend::cpu());
    println!("statement : y = {y}");
    println!("proof     : {} commitments + 9 evaluations", 5);
    println!("verified  : {}\n", verify(&vk, &proof, &[y]));
    assert!(verify(&vk, &proof, &[y]));

    // Part 2: a bigger circuit across the three backends.
    let rows = 1 << 10;
    println!("--- proving a random circuit of {rows} gates on three backends ---");
    let (circuit, witness) = random_circuit(rows, &mut rng);
    let (pk, vk) = setup(&circuit, &mut rng);

    let wall = std::time::Instant::now();
    let cpu_proof = prove(&pk, &witness, &[], &mut Backend::cpu());
    println!(
        "CPU backend      : proved in {:?} (wall clock)",
        wall.elapsed()
    );

    let mut status_quo = Backend::simulated(presets::a100_nvlink(1), presets::a100_nvlink(8));
    let sq_proof = prove(&pk, &witness, &[], &mut status_quo);
    let r_sq = status_quo.report();
    println!(
        "status quo       : {:>9.1} µs simulated  (NTT {:>4.1}% on 1 GPU, MSM on 8)",
        r_sq.total().as_ns() / 1e3,
        100.0 * r_sq.ntt_fraction()
    );

    let mut unintt = Backend::simulated(presets::a100_nvlink(8), presets::a100_nvlink(8));
    let u_proof = prove(&pk, &witness, &[], &mut unintt);
    let r_u = unintt.report();
    println!(
        "UniNTT system    : {:>9.1} µs simulated  (NTT {:>4.1}% on 8 GPUs, MSM on 8)",
        r_u.total().as_ns() / 1e3,
        100.0 * r_u.ntt_fraction()
    );

    assert_eq!(cpu_proof, sq_proof);
    assert_eq!(cpu_proof, u_proof);
    assert!(verify(&vk, &u_proof, &[]));
    println!("\nall three backends produced the identical, verifying proof ✓");
    println!(
        "end-to-end gain from multi-GPU NTT at this size: {:.2}x",
        r_sq.total().as_ns() / r_u.total().as_ns()
    );
    println!("(production circuits are 2^20+ gates; see `harness e8` for projections)");
}
