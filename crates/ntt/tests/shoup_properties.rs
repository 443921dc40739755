//! Property tests: `Ntt::forward` / `inverse` (the vector kernels) are
//! **bit-identical** to the radix-2 reference path, and the vector
//! kernels' native (AVX2 / AVX-512) and portable backends are
//! bit-identical to each other.
//!
//! The radix-2 reference is composed here from the public raw kernels
//! (`bit_reverse_permute` + `dit_in_place`, plus the `1/n` scale for the
//! inverse). Tests that pin the process-wide vector backend always restore
//! auto-detection afterwards; every backend produces identical outputs, so
//! a concurrent test observing the temporary switch still passes.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{BabyBear, Field, Goldilocks, TwoAdicField};
use unintt_ntt::{bit_reverse_permute, set_vector_backend_override, Ntt, VectorBackend};

fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
}

/// Forward transform through the legacy radix-2 DIT kernels only.
fn legacy_forward<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
    bit_reverse_permute(values);
    ntt.dit_in_place(values);
}

/// Inverse transform (including the `1/n` scale) through the legacy
/// kernels only.
fn legacy_inverse<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
    bit_reverse_permute(values);
    ntt.inverse_dit_in_place(values);
    ntt.scale_by_n_inv(values);
}

/// One bit-identity check against the radix-2 reference at a given
/// size/seed, both directions.
fn check_bitwise_match<F: TwoAdicField>(log_n: u32, seed: u64) -> Result<(), String> {
    let ntt = Ntt::<F>::new(log_n);
    let input = random_vec::<F>(log_n, seed);

    let mut got = input.clone();
    ntt.forward(&mut got);
    let mut legacy = input.clone();
    legacy_forward(&ntt, &mut legacy);
    if got != legacy {
        return Err(format!("forward mismatch at log_n={log_n} seed={seed}"));
    }

    let mut got = input.clone();
    ntt.inverse(&mut got);
    let mut legacy = input;
    legacy_inverse(&ntt, &mut legacy);
    if got != legacy {
        return Err(format!("inverse mismatch at log_n={log_n} seed={seed}"));
    }
    Ok(())
}

/// AVX2-vs-portable equality of the vector backend, both directions.
/// Where no native kernel exists (non-x86_64, AVX2 absent, or an
/// unsupported field) both runs take the portable path and the check is
/// trivially true — the assertion stays meaningful without gating.
fn check_backend_match<F: TwoAdicField>(log_n: u32, seed: u64) -> Result<(), String> {
    let ntt = Ntt::<F>::new(log_n);
    let input = random_vec::<F>(log_n, seed);
    let run = |backend: Option<VectorBackend>, inverse: bool| {
        set_vector_backend_override(backend);
        let mut buf = input.clone();
        if inverse {
            ntt.inverse(&mut buf)
        } else {
            ntt.forward(&mut buf)
        }
        set_vector_backend_override(None);
        buf
    };
    for inverse in [false, true] {
        let portable = run(Some(VectorBackend::Portable), inverse);
        let auto = run(None, inverse);
        if portable != auto {
            return Err(format!(
                "backend mismatch (inverse={inverse}) at log_n={log_n} seed={seed}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn goldilocks_fast_matches_legacy(log_n in 1u32..=16, seed in any::<u64>()) {
        prop_assert_eq!(check_bitwise_match::<Goldilocks>(log_n, seed), Ok(()));
    }

    #[test]
    fn babybear_fast_matches_legacy(log_n in 1u32..=16, seed in any::<u64>()) {
        prop_assert_eq!(check_bitwise_match::<BabyBear>(log_n, seed), Ok(()));
    }

    #[test]
    fn goldilocks_backends_match(log_n in 1u32..=14, seed in any::<u64>()) {
        prop_assert_eq!(check_backend_match::<Goldilocks>(log_n, seed), Ok(()));
    }

    #[test]
    fn babybear_backends_match(log_n in 1u32..=14, seed in any::<u64>()) {
        prop_assert_eq!(check_backend_match::<BabyBear>(log_n, seed), Ok(()));
    }

    #[test]
    fn goldilocks_roundtrip_fast_then_legacy_inverse(log_n in 1u32..=12, seed in any::<u64>()) {
        // Mixed-path round-trip: forward on the vector kernels, inverse on
        // the radix-2 path. Only works because outputs are bit-identical.
        let ntt = Ntt::<Goldilocks>::new(log_n);
        let input = random_vec::<Goldilocks>(log_n, seed);
        let mut data = input.clone();
        ntt.forward(&mut data);
        legacy_inverse(&ntt, &mut data);
        prop_assert_eq!(data, input);
    }
}

/// Deterministic sweep guaranteeing **every** `log_n` in `1..=16` is
/// exercised for both fields and both directions (the proptest above
/// samples sizes randomly).
#[test]
fn every_size_1_to_16_matches_bitwise() {
    for log_n in 1..=16u32 {
        for seed in [0u64, 0x5eed + u64::from(log_n)] {
            check_bitwise_match::<Goldilocks>(log_n, seed).unwrap();
            check_bitwise_match::<BabyBear>(log_n, seed).unwrap();
        }
    }
}

/// Tail sizes below and around the lane widths (Goldilocks packs 4
/// lanes, BabyBear 8): every size where a fused pass's column count `q`
/// is not a lane multiple must fall through to the scalar remainder
/// loops and still match the reference bit-for-bit, on both backends.
#[test]
fn non_power_of_lane_tail_sizes_match_bitwise() {
    for log_n in 1..=6u32 {
        for seed in [1u64, 0x7a11 + u64::from(log_n)] {
            check_bitwise_match::<Goldilocks>(log_n, seed).unwrap();
            check_bitwise_match::<BabyBear>(log_n, seed).unwrap();
            check_backend_match::<Goldilocks>(log_n, seed).unwrap();
            check_backend_match::<BabyBear>(log_n, seed).unwrap();
        }
    }
}

/// AVX2-vs-portable equality at every size through the direct-kernel
/// range boundary sizes (deterministic counterpart of the proptest).
#[test]
fn every_size_backends_match_bitwise() {
    for log_n in 1..=14u32 {
        let seed = 0xbacc + u64::from(log_n);
        check_backend_match::<Goldilocks>(log_n, seed).unwrap();
        check_backend_match::<BabyBear>(log_n, seed).unwrap();
    }
}
