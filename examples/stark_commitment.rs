//! Transparent (hash-based) trace commitment: low-degree-extend an
//! execution trace, Merkle-commit it, and prove the extension is
//! low-degree with FRI — the STARK prover's opening move, on the CPU and
//! on the simulated multi-GPU machine.
//!
//! ```bash
//! cargo run --release --example stark_commitment
//! ```

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Field, Goldilocks, GoldilocksExt2};
use unintt_fri::{
    commit_trace, open_trace, prove_stark, verify_opening, verify_stark, verify_trace,
    FibonacciAir, FriConfig, LdeBackend,
};
use unintt_gpu_sim::presets;

fn main() {
    let config = FriConfig::standard();
    let (rows, width) = (1usize << 12, 6);
    println!(
        "committing a {rows}×{width} Goldilocks trace (blowup {}, {} FRI queries)\n",
        1 << config.log_blowup,
        config.num_queries
    );

    // A toy "VM trace": column 0 is a Fibonacci run, the rest random.
    let mut rng = StdRng::seed_from_u64(99);
    let mut fib = vec![Goldilocks::ONE, Goldilocks::ONE];
    for i in 2..rows {
        let next = fib[i - 1] + fib[i - 2];
        fib.push(next);
    }
    let mut trace = vec![fib];
    for _ in 1..width {
        trace.push((0..rows).map(|_| Goldilocks::random(&mut rng)).collect());
    }

    // CPU reference.
    let wall = std::time::Instant::now();
    let cpu_commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
    println!(
        "CPU backend    : committed in {:?} (wall clock)",
        wall.elapsed()
    );

    // Simulated machines.
    for gpus in [1usize, 8] {
        let mut backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
        let commitment = commit_trace(&trace, &config, &mut backend);
        assert_eq!(
            commitment.trace_root, cpu_commitment.trace_root,
            "simulated backend must reproduce the CPU commitment"
        );
        println!(
            "{gpus}×A100 (sim)   : {:>9.1} µs simulated",
            backend.sim_time().as_ns() / 1e3
        );
    }

    assert!(verify_trace(&cpu_commitment, &config));
    println!(
        "\ncommitment root: {:016x}…  — verified ✓",
        cpu_commitment.trace_root.as_u64()
    );
    println!(
        "FRI: {} layers folded down to {} values, {} spot checks",
        cpu_commitment.fri_proof.layer_roots.len(),
        cpu_commitment.fri_proof.final_codeword.len(),
        cpu_commitment.fri_proof.queries.len()
    );

    // DEEP opening: prove the columns' values at a random out-of-domain
    // extension point (the STARK consistency-check primitive).
    let zeta = GoldilocksExt2::random(&mut rng);
    let opening = open_trace(&trace, zeta, &config, &mut LdeBackend::cpu());
    assert!(verify_opening(&opening, zeta, &config));
    println!(
        "DEEP opening at ζ ∈ F_p²: {} column evaluations proven and verified ✓",
        opening.evals.len()
    );
    // And the full STARK: prove a Fibonacci computation end to end.
    let (air, fib_trace) = FibonacciAir::generate(1 << 10);
    let stark = prove_stark(&air, &fib_trace, &config, &mut LdeBackend::cpu());
    assert!(verify_stark(&air, &stark, &config));
    println!("full STARK: proved fib(2^10) = {} — verified ✓", air.result);

    println!("\n(production traces are 2^20+ rows; see `harness e11` for projections)");
}
