//! Pippenger's bucket method for multi-scalar multiplication.
//!
//! Computes `Σᵢ kᵢ·Pᵢ` in `O(n·b / log n)` group operations by processing
//! the scalars in `c`-bit windows: within a window, points sharing a digit
//! land in the same *bucket*; the bucket sums are then combined with the
//! running-sum trick, and windows are stitched together with `c` doublings
//! each. This is the algorithm every GPU MSM library (and the paper's MSM
//! baseline) builds on.
//!
//! There is one kernel, [`msm`] ([`msm_with_window`] is the same code with
//! the window chosen by the caller):
//!
//! * **Signed digits.** Digits lie in `[−2^{c−1}, 2^{c−1}]`, so a window
//!   needs `2^{c−1}` buckets, not `2^c − 1`; a negative digit adds the
//!   negated point, which is free in affine coordinates. Half the buckets
//!   is half the running-sum work.
//! * **One task per window.** A window's bucket pass reads the pairs and
//!   writes only its own sum, so the passes run as tasks on
//!   [`unintt_exec::Executor::global`]. The stitch stays serial: it is
//!   `c` doublings and one addition per window, each depending on the
//!   last, and under 1 % of the work.
//! * **Pool-size independence.** Task boundaries are the windows, never
//!   the pool size, so the result is the same Jacobian triple bit for bit
//!   under any `UNINTT_THREADS`.
//!
//! [`pippenger_group_ops`] and [`optimal_window_bits`] feed the simulator's
//! cost profiles and keep describing the unsigned textbook kernel a GPU
//! library would run; the host kernel's digit recoding is not part of the
//! simulated machine.

use unintt_exec::Executor;
use unintt_ff::{Bn254Fr, PrimeField, U256};

use crate::{G1Affine, G1Projective};

/// Picks the window size `c` that roughly minimizes total group operations
/// for an `n`-point MSM (the classic `c ≈ ln n` heuristic, clamped).
pub fn optimal_window_bits(n: usize) -> u32 {
    match n {
        0..=1 => 1,
        _ => (usize::BITS - n.leading_zeros())
            .saturating_sub(2)
            .clamp(2, 16),
    }
}

/// Number of `c`-bit windows of a signed-digit scalar: one bit more than
/// the modulus, so the carry out of the last full window has a home.
fn num_windows(c: u32) -> u32 {
    (Bn254Fr::MODULUS_BITS + 1).div_ceil(c)
}

/// The recoding offset: bit `c − 1` of every window but the top one.
///
/// Adding it to a scalar `k` once turns signed recoding into plain digit
/// extraction: with `k' = k + offset`, window `w`'s signed digit is
/// `digit(k', w) − 2^{c−1}` — the borrow a negative digit takes from the
/// window above has already rippled through the addition. The top window
/// gets no offset and reads its digit as is; `k < 2^254` keeps `k'` below
/// `2^255` and that top digit at most `2^{c−1}`.
fn recoding_offset(c: u32) -> U256 {
    let mut limbs = [0u64; 4];
    for w in 0..num_windows(c) - 1 {
        let bit = w * c + c - 1;
        limbs[(bit / 64) as usize] |= 1 << (bit % 64);
    }
    U256::from_limbs(limbs)
}

/// The `c`-bit digit of `k` starting at bit `lo`, by limb shift and mask.
fn digit(k: &U256, lo: u32, c: u32) -> i64 {
    let limbs = k.limbs();
    let (i, shift) = ((lo / 64) as usize, lo % 64);
    let mut d = limbs[i] >> shift;
    if shift + c > 64 && i < 3 {
        d |= limbs[i + 1] << (64 - shift);
    }
    (d & ((1 << c) - 1)) as i64
}

/// Bucket accumulation + running-sum for one window: `Σ d·P` over pairs
/// whose window-`w` signed digit is `d`. `ks` holds the offset scalars
/// `k + recoding_offset(c)`.
fn window_sum(ks: &[U256], points: &[G1Affine], w: u32, c: u32) -> G1Projective {
    let half = 1i64 << (c - 1);
    let bias = if w + 1 == num_windows(c) { 0 } else { half };
    let mut buckets = vec![G1Projective::identity(); half as usize];
    for (k, p) in ks.iter().zip(points) {
        let d = digit(k, w * c, c) - bias;
        if d > 0 {
            let bucket = &mut buckets[d as usize - 1];
            *bucket = bucket.add_affine(p);
        } else if d < 0 {
            let bucket = &mut buckets[(-d) as usize - 1];
            *bucket = bucket.add_affine(&-*p);
        }
    }
    // Running-sum trick: Σ d·bucket[d] with 2·2^{c−1} additions.
    let mut running = G1Projective::identity();
    let mut sum = G1Projective::identity();
    for b in buckets.iter().rev() {
        running += *b;
        sum += running;
    }
    sum
}

/// The MSM kernel with an explicit window size (tests sweep it; everything
/// else calls [`msm`]).
///
/// # Panics
///
/// Panics if `scalars` and `points` have different lengths, or unless
/// `2 ≤ c ≤ 16`: a signed digit needs a sign bit and a magnitude bit, and
/// a window above 16 bits means over 3 MiB of buckets per task.
pub fn msm_with_window(scalars: &[Bn254Fr], points: &[G1Affine], c: u32) -> G1Projective {
    assert_eq!(scalars.len(), points.len(), "scalar/point length mismatch");
    assert!((2..=16).contains(&c), "window size must be in 2..=16");
    if scalars.is_empty() {
        return G1Projective::identity();
    }

    let offset = recoding_offset(c);
    let ks: Vec<U256> = scalars
        .iter()
        .map(|s| s.to_canonical_u256().adc(&offset).0)
        .collect();
    let mut sums = vec![G1Projective::identity(); num_windows(c) as usize];
    Executor::global().parallel_chunks_mut(&mut sums, 1, |w, out| {
        out[0] = window_sum(&ks, points, w as u32, c);
    });

    let mut acc = G1Projective::identity();
    for sum in sums.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += *sum;
    }
    acc
}

/// Multi-scalar multiplication `Σ kᵢ·Pᵢ` with the heuristic window size
/// (at least 2 bits: the smallest signed digit).
pub fn msm(scalars: &[Bn254Fr], points: &[G1Affine]) -> G1Projective {
    msm_with_window(scalars, points, optimal_window_bits(scalars.len()).max(2))
}

/// The old name of [`msm`], kept because `benchmark/src/layers.rs` imports
/// it and a change that claims a gain may not edit the benchmark. Goes with
/// the next benchmark revision.
#[doc(hidden)]
pub fn msm_parallel(scalars: &[Bn254Fr], points: &[G1Affine]) -> G1Projective {
    msm(scalars, points)
}

/// Reference MSM: `Σ kᵢ·Pᵢ` by independent double-and-add (O(n·b) ops).
pub fn msm_naive(scalars: &[Bn254Fr], points: &[G1Affine]) -> G1Projective {
    assert_eq!(scalars.len(), points.len(), "scalar/point length mismatch");
    scalars
        .iter()
        .zip(points)
        .fold(G1Projective::identity(), |acc, (k, p)| {
            acc + p.to_projective().mul_scalar(k)
        })
}

/// Estimated group-operation count of an `n`-point Pippenger MSM with
/// window `c` (used by the simulator cost profiles; the unsigned textbook
/// formula, see the module docs).
pub fn pippenger_group_ops(n: u64, c: u32) -> u64 {
    let windows = (Bn254Fr::MODULUS_BITS as u64).div_ceil(c as u64);
    let buckets = (1u64 << c) - 1;
    // per window: n bucket adds + 2·buckets running-sum adds; plus c
    // doublings per window to stitch.
    windows * (n + 2 * buckets + c as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;

    fn random_pairs(n: usize, seed: u64) -> (Vec<Bn254Fr>, Vec<G1Affine>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars = (0..n).map(|_| Bn254Fr::random(&mut rng)).collect();
        let points = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
        (scalars, points)
    }

    /// `2^253 − 1`: every window below the top is all ones, so each one's
    /// negative digit borrows from the next.
    const ONES_253: U256 = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, (1 << 61) - 1]);

    /// `Σ dᵢ·2^{c·i}` over the kernel's signed digits of `k`, as a field
    /// element (so negative digits need no big-integer borrow).
    fn reassemble(k: &U256, c: u32) -> Bn254Fr {
        let half = 1i64 << (c - 1);
        let shifted = k.adc(&recoding_offset(c)).0;
        let windows = num_windows(c);
        let base = Bn254Fr::from_u64(1 << c);
        (0..windows).rev().fold(Bn254Fr::ZERO, |acc, w| {
            let bias = if w + 1 == windows { 0 } else { half };
            let d = digit(&shifted, w * c, c) - bias;
            assert!(d.abs() <= half, "c={c} w={w} d={d}");
            acc * base + Bn254Fr::from_i64(d)
        })
    }

    #[test]
    fn msm_matches_naive() {
        for n in [1usize, 2, 7, 33] {
            let (scalars, points) = random_pairs(n, n as u64);
            assert_eq!(
                msm(&scalars, &points),
                msm_naive(&scalars, &points),
                "n={n}"
            );
        }
    }

    #[test]
    fn msm_all_window_sizes_agree() {
        let (scalars, points) = random_pairs(16, 9);
        let expected = msm_naive(&scalars, &points);
        for c in [2u32, 3, 4, 8, 13] {
            assert_eq!(msm_with_window(&scalars, &points, c), expected, "c={c}");
        }
    }

    #[test]
    fn msm_empty_is_identity() {
        assert_eq!(msm(&[], &[]), G1Projective::identity());
    }

    #[test]
    #[should_panic(expected = "window size must be in 2..=16")]
    fn one_bit_window_rejected() {
        let (scalars, points) = random_pairs(2, 1);
        let _ = msm_with_window(&scalars, &points, 1);
    }

    #[test]
    #[should_panic(expected = "window size must be in 2..=16")]
    fn seventeen_bit_window_rejected() {
        let (scalars, points) = random_pairs(2, 1);
        let _ = msm_with_window(&scalars, &points, 17);
    }

    #[test]
    fn msm_with_zero_scalars() {
        let (_, points) = random_pairs(5, 11);
        let zeros = vec![Bn254Fr::ZERO; 5];
        assert_eq!(msm(&zeros, &points), G1Projective::identity());
    }

    #[test]
    fn msm_with_identity_points() {
        let (scalars, _) = random_pairs(5, 12);
        let ids = vec![G1Affine::identity(); 5];
        assert_eq!(msm(&scalars, &ids), G1Projective::identity());
    }

    #[test]
    fn msm_single_pair_is_scalar_mul() {
        let (scalars, points) = random_pairs(1, 13);
        assert_eq!(
            msm(&scalars, &points),
            points[0].to_projective().mul_scalar(&scalars[0])
        );
    }

    #[test]
    fn digit_reads_across_limb_boundaries() {
        let k = U256::from_limbs([0xf000_0000_0000_0000, 0x1, 0, 0x4000_0000_0000_0000]);
        assert_eq!(digit(&k, 60, 5), 0b11111);
        assert_eq!(digit(&k, 60, 4), 0b1111);
        assert_eq!(digit(&k, 64, 16), 1);
        assert_eq!(digit(&k, 252, 7), 0b100);
        assert_eq!(digit(&k, 0, 16), 0);
    }

    #[test]
    fn signed_digits_reassemble_scalar() {
        let mut rng = StdRng::seed_from_u64(21);
        let r_minus_1 = Bn254Fr::MODULUS.sbb(&U256::ONE).0;
        for c in 2u32..=16 {
            let random = (0..20).map(|_| Bn254Fr::random(&mut rng).to_canonical_u256());
            for k in [U256::ZERO, U256::ONE, r_minus_1, ONES_253]
                .into_iter()
                .chain(random)
            {
                assert_eq!(reassemble(&k, c), Bn254Fr::from_u256(k), "c={c} k={k}");
            }
        }
    }

    #[test]
    fn top_window_absorbs_the_carry() {
        // r − 1 is the largest scalar, and at every width 2^253 − 1 must
        // come out exact too.
        let g = G1Affine::generator();
        for k in [-Bn254Fr::ONE, Bn254Fr::from_u256(ONES_253)] {
            let expected = g.to_projective().mul_scalar(&k);
            for c in 2u32..=16 {
                assert_eq!(msm_with_window(&[k], &[g], c), expected, "c={c}");
            }
        }
    }

    #[test]
    fn optimal_window_grows_with_n() {
        assert!(optimal_window_bits(1) >= 1);
        assert!(optimal_window_bits(1 << 20) > optimal_window_bits(1 << 8));
        assert!(optimal_window_bits(usize::MAX) <= 16);
    }

    #[test]
    fn group_ops_estimate_decreases_with_good_window() {
        // For 2^16 points, a mid-size window beats both extremes.
        let n = 1u64 << 16;
        let tiny = pippenger_group_ops(n, 1);
        let good = pippenger_group_ops(n, optimal_window_bits(n as usize));
        let huge = pippenger_group_ops(n, 16);
        assert!(good < tiny);
        assert!(good <= huge);
    }
}
