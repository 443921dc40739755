//! Property tests: `Ntt::forward` / `inverse` (the vector kernels) are
//! **bit-identical** to the radix-2 reference path, and the lane backend
//! this CPU selects (AVX2 / AVX-512 where present) is bit-identical to
//! the portable lane arithmetic.
//!
//! The radix-2 reference is composed here from the public raw kernels
//! (the index-form `bit_reversed` + `dit_in_place`, plus the `1/n` scale
//! for the inverse), so it shares no code with the tiled in-place
//! permutation the transforms run. The portable lane reference is a
//! stage-at-a-time DIF over `[F; F::LANES]` blocks through the public
//! `ShoupField` lane layer, lazy between stages, with the table's Shoup
//! twiddles. (The crate's own portable kernels are compared with the
//! native ones in `vector::tests::portable_backend_matches_native`.)

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{BabyBear, Field, Goldilocks, ShoupTwiddle, TwoAdicField};
use unintt_ntt::{bit_reverse_permute, bit_reversed, Ntt};

fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
}

/// Forward transform through the legacy radix-2 DIT kernels only.
fn legacy_forward<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
    values.copy_from_slice(&bit_reversed(values));
    ntt.dit_in_place(values);
}

/// Inverse transform (including the `1/n` scale) through the legacy
/// kernels only.
fn legacy_inverse<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
    values.copy_from_slice(&bit_reversed(values));
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

/// One transform through the portable lane layer: every DIF stage over
/// `[F; L]` blocks (scalar lanes where a stage's half-block is narrower
/// than `L`), lanes reduced after the last stage, then the bit-reversal
/// and, for the inverse, the `1/n` scale.
fn lane_transform<F: TwoAdicField, const L: usize>(ntt: &Ntt<F>, values: &mut [F], inverse: bool) {
    let (table, log_n) = (ntt.table(), ntt.log_n());
    let twiddles = if inverse {
        table.inverse_shoup()
    } else {
        table.forward_shoup()
    };
    for s in (1..=log_n).rev() {
        let half = 1usize << (s - 1);
        let tw: Vec<ShoupTwiddle<F>> = (0..half).map(|j| twiddles[j << (log_n - s)]).collect();
        for block in values.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            if half.is_multiple_of(L) {
                for (j, (u, v)) in lo
                    .chunks_exact_mut(L)
                    .zip(hi.chunks_exact_mut(L))
                    .enumerate()
                {
                    let (mut a, mut b): ([F; L], [F; L]) =
                        (u.try_into().unwrap(), v.try_into().unwrap());
                    F::dif_butterfly_lanes(&mut a, &mut b, &tw[j * L..]);
                    u.copy_from_slice(&a);
                    v.copy_from_slice(&b);
                }
            } else {
                for (j, (u, v)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    (*u, *v) = F::dif_butterfly(*u, *v, &tw[j]);
                }
            }
        }
    }
    for v in values.iter_mut() {
        *v = F::reduce_lane(*v);
    }
    bit_reverse_permute(values);
    if inverse {
        let n_inv = F::shoup_prepare(table.n_inv());
        for v in values.iter_mut() {
            *v = F::reduce_lane(F::shoup_mul(*v, &n_inv));
        }
    }
}

/// The CPU-selected lane backend (what `Ntt` runs) against the portable
/// lane arithmetic, both directions. Where this CPU has no native kernel
/// for the field and size, both sides are portable arithmetic and the
/// check still holds.
fn check_backend_match<F: TwoAdicField>(log_n: u32, seed: u64) -> Result<(), String> {
    let ntt = Ntt::<F>::new(log_n);
    let input = random_vec::<F>(log_n, seed);
    for inverse in [false, true] {
        let mut lanes = input.clone();
        match F::LANES {
            8 => lane_transform::<F, 8>(&ntt, &mut lanes, inverse),
            4 => lane_transform::<F, 4>(&ntt, &mut lanes, inverse),
            _ => lane_transform::<F, 1>(&ntt, &mut lanes, inverse),
        }
        let mut cpu = input.clone();
        if inverse {
            ntt.inverse(&mut cpu);
        } else {
            ntt.forward(&mut cpu);
        }
        if cpu != lanes {
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

/// CPU-selected vs portable lanes at every size through the direct-kernel
/// range boundary sizes (deterministic counterpart of the proptest).
#[test]
fn every_size_backends_match_bitwise() {
    for log_n in 1..=14u32 {
        let seed = 0xbacc + u64::from(log_n);
        check_backend_match::<Goldilocks>(log_n, seed).unwrap();
        check_backend_match::<BabyBear>(log_n, seed).unwrap();
    }
}
