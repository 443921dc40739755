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
//! * **One task per window group.** A window's bucket pass reads the
//!   pairs and writes only its own sum, so the passes run as tasks on
//!   [`unintt_exec::Executor::global`]. Where the CPU has `avx512ifma` a
//!   task is eight windows run in IFMA lanes, lane `l` window `l` (see
//!   `lanes`); elsewhere it is one window on the scalar formulas. The
//!   stitch stays serial and scalar: it is `c` doublings and one addition
//!   per window, each depending on the last, and under 1 % of the work.
//! * **Pool-size independence.** Task boundaries are window groups, never
//!   the pool size, and both paths produce the same Jacobian triple, so
//!   the result is the same bit for bit under any `UNINTT_THREADS` and on
//!   any x86 CPU.
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

/// Window `w`'s bucket pass: bucket `d − 1` ends up holding the sum of
/// the points whose window-`w` signed digit is `±d`, negated for `−d`.
/// `ks` holds the offset scalars `k + recoding_offset(c)`.
fn bucket_pass(ks: &[U256], points: &[G1Affine], w: u32, c: u32) -> Vec<G1Projective> {
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
    buckets
}

/// The running-sum trick: `Σ d·buckets[d − 1]` with `2·buckets.len()`
/// additions.
fn running_sum(buckets: &[G1Projective]) -> G1Projective {
    let mut running = G1Projective::identity();
    let mut sum = G1Projective::identity();
    for b in buckets.iter().rev() {
        running += *b;
        sum += running;
    }
    sum
}

/// The offset scalars every window reads its digits from.
fn recode(scalars: &[Bn254Fr], c: u32) -> Vec<U256> {
    let offset = recoding_offset(c);
    scalars
        .iter()
        .map(|s| s.to_canonical_u256().adc(&offset).0)
        .collect()
}

/// `Σ_w 2^{wc}·sums[w]`, from the top window down.
fn stitch(sums: &[G1Projective], c: u32) -> G1Projective {
    let mut acc = G1Projective::identity();
    for sum in sums.iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += *sum;
    }
    acc
}

/// Every window's sum, one pool task per window.
fn scalar_window_sums(ks: &[U256], points: &[G1Affine], c: u32) -> Vec<G1Projective> {
    let mut sums = vec![G1Projective::identity(); num_windows(c) as usize];
    Executor::global().parallel_chunks_mut(&mut sums, 1, |w, out| {
        out[0] = running_sum(&bucket_pass(ks, points, w as u32, c));
    });
    sums
}

/// Every window's sum: in IFMA lanes, one pool task per group of
/// [`lanes::LANES`] windows, where the CPU has them; per window otherwise.
fn window_sums(ks: &[U256], points: &[G1Affine], c: u32) -> Vec<G1Projective> {
    #[cfg(target_arch = "x86_64")]
    if lanes::detected() {
        let points = lanes::prepare(points);
        let mut sums = vec![G1Projective::identity(); num_windows(c) as usize];
        Executor::global().parallel_chunks_mut(&mut sums, lanes::LANES, |g, out| {
            let mut buckets = lanes::Buckets::new(c);
            // SAFETY: `lanes::detected` reported avx512f and avx512ifma.
            let group = unsafe {
                lanes::bucket_pass(
                    ks,
                    &points,
                    (g * lanes::LANES) as u32,
                    out.len(),
                    c,
                    &mut buckets,
                );
                lanes::to_projective(&lanes::running_sum(&buckets))
            };
            out.copy_from_slice(&group[..out.len()]);
        });
        return sums;
    }
    scalar_window_sums(ks, points, c)
}

/// Pippenger in IFMA lanes: lane `l` of a group runs window `w0 + l`.
///
/// Buckets live as `[coord][limb][bucket][lane]` words, so one point's
/// eight buckets (one per window, each picked by that window's digit) are
/// one gather per limb, and bucket `b` of all eight windows is one
/// contiguous load per limb for the running sum. The formulas are
/// `curve`'s, instantiated over [`Fq8`]; the cases the scalar path
/// branches on become lane masks:
///
/// * a lane whose digit is 0 (and every lane, for a point at infinity)
///   adds nothing and is not written back;
/// * a lane whose bucket is the identity takes the point itself;
/// * a lane that meets `±P1` (`U2 = X1`: a doubling or a cancellation)
///   is redone by the scalar formulas, out of line.
///
/// Every lane value is canonical and the formulas are the scalar path's,
/// so each window sum is the scalar path's Jacobian triple bit for bit.
#[cfg(target_arch = "x86_64")]
pub(crate) mod lanes {
    use core::arch::x86_64::*;

    pub(crate) use unintt_ff::packed::ifma::LANES;
    use unintt_ff::packed::ifma::{Fq8, LIMBS};
    use unintt_ff::U256;

    use super::{digit, num_windows};
    use crate::curve::{add_head, add_tail, mixed_add_head, mixed_add_tail, Coord, Jacobian};
    use crate::{G1Affine, G1Projective};

    /// True when the CPU has what [`Fq8`] needs.
    pub(crate) fn detected() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
    }

    // SAFETY (every method): an `Fq8` only comes out of an `unsafe`
    // constructor that requires avx512f + avx512ifma, so a value to call
    // these on exists only where the CPU has both.
    impl Coord for Fq8 {
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: see the impl (avx512f + avx512ifma).
            unsafe { Fq8::add(self, rhs) }
        }
        #[inline(always)]
        fn sub(self, rhs: Self) -> Self {
            // SAFETY: see the impl (avx512f + avx512ifma).
            unsafe { Fq8::sub(self, rhs) }
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: see the impl (avx512f + avx512ifma).
            unsafe { Fq8::mul(self, rhs) }
        }
        #[inline(always)]
        fn double(self) -> Self {
            // SAFETY: see the impl (avx512f + avx512ifma).
            unsafe { Fq8::double(self) }
        }
    }

    /// An affine point in lane form.
    pub(super) struct LanePoint {
        x: [u64; LIMBS],
        y: [u64; LIMBS],
        infinity: bool,
    }

    /// Every point in lane form, once per MSM: the groups share them.
    pub(super) fn prepare(points: &[G1Affine]) -> Vec<LanePoint> {
        points
            .iter()
            .map(|p| LanePoint {
                x: Fq8::to_limbs(&p.x),
                y: Fq8::to_limbs(&p.y),
                infinity: p.infinity,
            })
            .collect()
    }

    /// One group's buckets, `[coord][limb][bucket][lane]` words:
    /// `3·5·2^{c−1}·8` of them, 240 KiB at `c = 9`.
    pub(super) struct Buckets {
        words: Vec<u64>,
        count: usize,
    }

    impl Buckets {
        /// `2^{c−1}` identity buckets (`(1, 1, 0)`) per lane.
        pub(super) fn new(c: u32) -> Self {
            let count = 1usize << (c - 1);
            let mut words = vec![0u64; 3 * LIMBS * count * LANES];
            for (row, limb) in words
                .chunks_exact_mut(count * LANES)
                .zip(Fq8::ONE.iter().chain(&Fq8::ONE))
            {
                row.fill(*limb);
            }
            Self { words, count }
        }

        /// Words per limb row.
        fn stride(&self) -> usize {
            self.count * LANES
        }
    }

    /// The identity in every lane.
    #[inline(always)]
    pub(crate) unsafe fn identity() -> Jacobian<Fq8> {
        let one = Fq8::splat(&Fq8::ONE);
        Jacobian {
            x: one,
            y: one,
            z: Fq8::splat(&[0; LIMBS]),
        }
    }

    /// Lane-wise `a` where `mask` is clear, `b` where it is set.
    #[inline(always)]
    pub(crate) unsafe fn blend(
        mask: __mmask8,
        a: Jacobian<Fq8>,
        b: Jacobian<Fq8>,
    ) -> Jacobian<Fq8> {
        Jacobian {
            x: Fq8::blend(mask, a.x, b.x),
            y: Fq8::blend(mask, a.y, b.y),
            z: Fq8::blend(mask, a.z, b.z),
        }
    }

    /// Lane `l` of `p` at index `l`, as scalar triples.
    ///
    /// # Safety
    ///
    /// The CPU must support avx512f and avx512ifma ([`detected`]).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) unsafe fn to_projective(p: &Jacobian<Fq8>) -> [G1Projective; LANES] {
        let (x, y, z) = (p.x.to_elems(), p.y.to_elems(), p.z.to_elems());
        core::array::from_fn(|l| G1Projective {
            x: x[l],
            y: y[l],
            z: z[l],
        })
    }

    /// The lanes in `special` hold `P1 ± P2` (equal `U`s): each becomes
    /// `P1.double()` where `a = b` and the identity where not — the
    /// scalar formulas, so the triples are the scalar path's. Cold and out
    /// of line: it runs about once per window at small `n`, and keeps the
    /// hot loops free of scalar multiplies.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) unsafe fn resolve_special(
        sum: &mut Jacobian<Fq8>,
        p1: &Jacobian<Fq8>,
        a: Fq8,
        b: Fq8,
        special: __mmask8,
    ) {
        let p1 = to_projective(p1);
        let (a, b) = (a.to_elems(), b.to_elems());
        let mut out = to_projective(sum);
        for l in (0..LANES).filter(|l| special >> l & 1 == 1) {
            out[l] = if a[l] == b[l] {
                p1[l].double()
            } else {
                G1Projective::identity()
            };
        }
        *sum = Jacobian {
            x: Fq8::from_elems(&out.map(|p| p.x)),
            y: Fq8::from_elems(&out.map(|p| p.y)),
            z: Fq8::from_elems(&out.map(|p| p.z)),
        };
    }

    /// Lane-wise `p + q`, with the scalar `Add`'s identity and
    /// equal-point handling.
    #[inline(always)]
    unsafe fn add(p: &Jacobian<Fq8>, q: &Jacobian<Fq8>) -> Jacobian<Fq8> {
        let head = add_head(p, q);
        let (p_id, q_id) = (p.z.zero_mask(), q.z.zero_mask());
        let mut sum = add_tail(p, q, &head);
        sum = blend(q_id, sum, *p);
        sum = blend(p_id, sum, *q);
        let special = !(p_id | q_id) & head.u1.eq_mask(head.u2);
        if special != 0 {
            resolve_special(&mut sum, p, head.s1, head.s2, special);
        }
        sum
    }

    /// The bucket pass of windows `w0 .. w0 + width` (`width ≤ LANES`;
    /// the lanes above it stay idle), in pair order, into `buckets` built
    /// for the same `c`.
    ///
    /// # Safety
    ///
    /// The CPU must support avx512f and avx512ifma ([`detected`]).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn bucket_pass(
        ks: &[U256],
        points: &[LanePoint],
        w0: u32,
        width: usize,
        c: u32,
        buckets: &mut Buckets,
    ) {
        // The gathers and scatters stay inside `buckets` because every
        // slot is below its `2^{c−1}` buckets, and every digit read inside
        // the scalar because every window is at most the top one.
        assert_eq!(buckets.count, 1 << (c - 1), "buckets built for another c");
        assert!(width <= LANES && w0 as usize + width <= num_windows(c) as usize);
        let top = num_windows(c) - 1;
        let half = 1i64 << (c - 1);
        let stride = buckets.stride();
        let x_row = buckets.words.as_mut_ptr();
        let (y_row, z_row) = (x_row.add(LIMBS * stride), x_row.add(2 * LIMBS * stride));
        let lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let (zero, one) = (Fq8::splat(&[0; LIMBS]), Fq8::splat(&Fq8::ONE));
        for (k, p) in ks.iter().zip(points) {
            if p.infinity {
                continue;
            }
            let mut slot = [0i64; LANES];
            let (mut active, mut negative) = (0u8, 0u8);
            for (l, slot) in slot.iter_mut().enumerate().take(width) {
                let w = w0 + l as u32;
                let bias = if w == top { 0 } else { half };
                let d = digit(k, w * c, c) - bias;
                active |= u8::from(d != 0) << l;
                negative |= u8::from(d < 0) << l;
                *slot = d.abs().max(1) - 1;
            }
            if active == 0 {
                continue;
            }
            // Word offset of lane `l`'s bucket within a limb row.
            let idx = _mm512_add_epi64(
                _mm512_slli_epi64::<3>(_mm512_loadu_si512(slot.as_ptr().cast())),
                lane_ids,
            );
            let bucket = Jacobian {
                x: Fq8::gather(x_row, stride, idx),
                y: Fq8::gather(y_row, stride, idx),
                z: Fq8::gather(z_row, stride, idx),
            };
            let x2 = Fq8::splat(&p.x);
            let y = Fq8::splat(&p.y);
            let y2 = Fq8::blend(negative, y, zero.sub(y));
            let head = mixed_add_head(&bucket, x2, y2);
            let fresh = bucket.z.zero_mask();
            let mut sum = mixed_add_tail(&bucket, &head);
            sum = blend(
                fresh,
                sum,
                Jacobian {
                    x: x2,
                    y: y2,
                    z: one,
                },
            );
            let special = active & !fresh & head.u2.eq_mask(bucket.x);
            if special != 0 {
                resolve_special(&mut sum, &bucket, head.s2, bucket.y, special);
            }
            sum.x.scatter(x_row, stride, idx, active);
            sum.y.scatter(y_row, stride, idx, active);
            sum.z.scatter(z_row, stride, idx, active);
        }
    }

    /// Every lane's `Σ d·bucket[d − 1]` by the running-sum trick, bucket
    /// `b` of all eight windows loaded as one vector per limb.
    ///
    /// # Safety
    ///
    /// The CPU must support avx512f and avx512ifma ([`detected`]).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn running_sum(buckets: &Buckets) -> Jacobian<Fq8> {
        let stride = buckets.stride();
        let mut running = identity();
        let mut sum = identity();
        for b in (0..buckets.count).rev() {
            let at = buckets.words.as_ptr().add(b * LANES);
            let bucket = Jacobian {
                x: Fq8::load(at, stride),
                y: Fq8::load(at.add(LIMBS * stride), stride),
                z: Fq8::load(at.add(2 * LIMBS * stride), stride),
            };
            running = add(&running, &bucket);
            sum = add(&sum, &running);
        }
        sum
    }
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
    pippenger(scalars, points, c, window_sums)
}

/// [`msm_with_window`] on the per-window scalar path, which every CPU
/// runs: the reference the lane path must equal bit for bit.
#[doc(hidden)]
pub fn msm_with_window_scalar(scalars: &[Bn254Fr], points: &[G1Affine], c: u32) -> G1Projective {
    pippenger(scalars, points, c, scalar_window_sums)
}

/// Recoding, the window sums `sums` computes, and the stitch.
fn pippenger(
    scalars: &[Bn254Fr],
    points: &[G1Affine],
    c: u32,
    sums: fn(&[U256], &[G1Affine], u32) -> Vec<G1Projective>,
) -> G1Projective {
    assert_eq!(scalars.len(), points.len(), "scalar/point length mismatch");
    assert!((2..=16).contains(&c), "window size must be in 2..=16");
    if scalars.is_empty() {
        return G1Projective::identity();
    }
    let ks = recode(scalars, c);
    stitch(&sums(&ks, points, c), c)
}

/// Whether [`msm`] runs its windows in AVX-512 IFMA lanes on this CPU.
#[doc(hidden)]
pub fn msm_runs_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    return lanes::detected();
    #[cfg(not(target_arch = "x86_64"))]
    false
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_groups_of_every_width_equal_the_scalar_windows() {
        if !lanes::detected() {
            println!("msm tier: scalar only (the CPU lacks avx512ifma): lanes not exercised");
            return;
        }
        // `⌈255/c⌉` windows never leave a last group of seven, so every
        // width is driven here directly: at the bottom windows and at the
        // top one (no recoding bias), with identities and repeats mixed in.
        let c = 4;
        let windows = num_windows(c);
        let (scalars, mut points) = random_pairs(40, 5);
        points[7] = G1Affine::identity();
        points[9] = points[8];
        points[11] = -points[10];
        let ks = recode(&scalars, c);
        let lane_points = lanes::prepare(&points);
        for width in 1..=lanes::LANES {
            for w0 in [0, windows - width as u32] {
                let mut buckets = lanes::Buckets::new(c);
                // SAFETY: `lanes::detected` reported avx512f and avx512ifma.
                let sums = unsafe {
                    lanes::bucket_pass(&ks, &lane_points, w0, width, c, &mut buckets);
                    lanes::to_projective(&lanes::running_sum(&buckets))
                };
                for (l, sum) in sums.iter().enumerate() {
                    let expected = if l < width {
                        running_sum(&bucket_pass(&ks, &points, w0 + l as u32, c))
                    } else {
                        G1Projective::identity()
                    };
                    assert_eq!(
                        (sum.x, sum.y, sum.z),
                        (expected.x, expected.y, expected.z),
                        "width={width} w0={w0} lane={l}"
                    );
                }
            }
        }
    }

    /// Milliseconds per phase of one MSM on this thread, default `c`,
    /// best of seven, for the scalar path and (where the CPU has
    /// `avx512ifma`) the lanes: `make msm-profile`, or `cargo test
    /// --release -p unintt-msm --lib msm_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "wall-clock profile; run explicitly"]
    fn msm_profile() {
        use std::hint::black_box;
        use std::time::Instant;

        fn best_ms(mut f: impl FnMut()) -> f64 {
            (0..7)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        }

        println!("phase ms, one thread, best of 7");
        for n in [16usize, 64, 512, 1533] {
            let (scalars, points) = random_pairs(n, 77 + n as u64);
            let c = optimal_window_bits(n).max(2);
            let windows = num_windows(c);
            let ks = recode(&scalars, c);
            let recoding = best_ms(|| {
                black_box(recode(&scalars, c));
            });
            let mut buckets = Vec::new();
            let pass = best_ms(|| {
                buckets = (0..windows)
                    .map(|w| bucket_pass(&ks, &points, w, c))
                    .collect();
            });
            let mut sums = Vec::new();
            let running = best_ms(|| sums = buckets.iter().map(|b| running_sum(b)).collect());
            let stitching = best_ms(|| {
                black_box(stitch(&sums, c));
            });
            let total = recoding + pass + running + stitching;
            println!(
                "n={n:4} c={c:2} windows={windows:2} scalar: recode {recoding:7.3}  \
                 bucket pass {pass:7.3}  running sum {running:7.3}  stitch {stitching:6.3}  \
                 = {total:7.3}"
            );

            #[cfg(target_arch = "x86_64")]
            if lanes::detected() {
                let expected = stitch(&sums, c);
                let mut lane_points = Vec::new();
                let to_lanes = best_ms(|| lane_points = lanes::prepare(&points));
                let groups: Vec<(u32, usize)> = (0..windows)
                    .step_by(lanes::LANES)
                    .map(|w0| (w0, lanes::LANES.min((windows - w0) as usize)))
                    .collect();
                let mut group_buckets = Vec::new();
                let pass = best_ms(|| {
                    group_buckets = groups
                        .iter()
                        .map(|&(w0, width)| {
                            let mut b = lanes::Buckets::new(c);
                            // SAFETY: `lanes::detected` reported avx512f and
                            // avx512ifma.
                            unsafe { lanes::bucket_pass(&ks, &lane_points, w0, width, c, &mut b) };
                            b
                        })
                        .collect();
                });
                let mut lane_sums = Vec::new();
                let running = best_ms(|| {
                    lane_sums = group_buckets
                        .iter()
                        // SAFETY: `lanes::detected` reported avx512f and
                        // avx512ifma.
                        .flat_map(|b| unsafe { lanes::to_projective(&lanes::running_sum(b)) })
                        .take(windows as usize)
                        .collect();
                });
                let stitching = best_ms(|| {
                    black_box(stitch(&lane_sums, c));
                });
                let got = stitch(&lane_sums, c);
                assert_eq!(
                    (got.x, got.y, got.z),
                    (expected.x, expected.y, expected.z),
                    "n={n}"
                );
                let lanes_total = recoding + to_lanes + pass + running + stitching;
                println!(
                    "{:26} lanes:  recode {recoding:7.3}  to lanes {to_lanes:6.3}  \
                     bucket pass {pass:7.3}  running sum {running:7.3}  stitch {stitching:6.3}  \
                     = {lanes_total:7.3}  ({:.2}x)",
                    "",
                    total / lanes_total
                );
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
