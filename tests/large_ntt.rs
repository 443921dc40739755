//! The large-transform path: above `2^20` one `Ntt::forward` decomposes
//! six-step and forks every phase over the worker pool. 2^21 takes the
//! rectangular (scratch-buffer) path, 2^22 the square in-place one.

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{BabyBear, Field, Goldilocks, TwoAdicField};
use unintt_ntt::{batch_transform, Direction, Ntt};

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

/// `Σ input[j]·x^j` by Horner's rule: the transform's definition, one
/// output at a time.
fn evaluate<F: Field>(input: &[F], x: F) -> F {
    input.iter().rev().fold(F::ZERO, |acc, &c| acc * x + c)
}

fn check_large<F: TwoAdicField>(log_n: u32, seed: u64) {
    let n = 1usize << log_n;
    let ntt = Ntt::<F>::new(log_n);
    let input = random_vec::<F>(n, seed);

    let mut forward = input.clone();
    ntt.forward(&mut forward);
    for k in [0usize, 1, n / 2 + 3, n - 1] {
        let x = ntt.table().omega().pow(k as u64);
        assert_eq!(forward[k], evaluate(&input, x), "log_n={log_n} k={k}");
    }

    let mut batched = input.clone();
    batch_transform(&ntt, &mut batched, Direction::Forward);
    assert!(
        batched == forward,
        "log_n={log_n}: batch of one row differs"
    );

    ntt.inverse(&mut forward);
    assert!(forward == input, "log_n={log_n}: round trip");
}

#[test]
fn goldilocks_rectangular_and_square() {
    check_large::<Goldilocks>(21, 21);
    check_large::<Goldilocks>(22, 22);
}

#[test]
fn babybear_rectangular_and_square() {
    check_large::<BabyBear>(21, 23);
    check_large::<BabyBear>(22, 24);
}
