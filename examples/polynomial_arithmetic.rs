//! Polynomial arithmetic with the NTT library: large products and coset
//! low-degree extension (the STARK/FRI workhorse) — the workloads whose
//! inner loop the paper accelerates.
//!
//! ```bash
//! cargo run --release --example polynomial_arithmetic
//! ```

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{horner_eval, Field, Goldilocks};
use unintt_ntt::{low_degree_extension, poly_mul_naive, poly_mul_ntt, standard_shift, Ntt};

fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
}

fn main() {
    // 1. Big polynomial product: O(n log n) vs O(n²).
    let degree = 1 << 13;
    let a = random_vec(degree, 1);
    let b = random_vec(degree, 2);

    let t = std::time::Instant::now();
    let fast = poly_mul_ntt(&a, &b);
    let t_fast = t.elapsed();
    let t = std::time::Instant::now();
    let slow = poly_mul_naive(&a, &b);
    let t_slow = t.elapsed();
    assert_eq!(fast, slow);
    println!(
        "degree-{degree} product : NTT {t_fast:?} vs schoolbook {t_slow:?} (identical results)"
    );

    // 2. Low-degree extension: evaluate a committed polynomial on a 4x
    // larger coset, as every STARK prover does per column.
    let n = 1 << 10;
    let evals = {
        let coeffs = random_vec(n, 3);
        let ntt = Ntt::<Goldilocks>::new(10);
        let mut e = coeffs.clone();
        ntt.forward(&mut e);
        // Spot-check the LDE against direct evaluation at one point.
        let shift = standard_shift::<Goldilocks>();
        let extended = low_degree_extension(&e, 2, shift);
        let omega_big = Ntt::<Goldilocks>::new(12).table().omega();
        let x = shift * omega_big.pow(1234);
        assert_eq!(extended[1234], horner_eval(&coeffs, x));
        println!(
            "LDE                  : 2^10 evaluations -> 2^12 coset evaluations (spot-checked)"
        );
        e
    };
    let _ = evals;

    println!("\nall fast paths matched their quadratic reference implementations ✓");
}
