//! Shoup-multiplication support: precomputed twiddle companions and lazy
//! (Harvey-style) butterfly primitives.
//!
//! Shoup's trick turns a modular multiplication by a *known* constant `w`
//! into two word multiplications and one conditional subtraction: with
//! `w' = ⌊w·β/p⌋` precomputed (`β` the word base), the quotient estimate
//! `q = ⌊a·w'/β⌋` satisfies `a·w − q·p ∈ [0, 2p)` for any word `a`. NTT
//! twiddles are exactly such known constants, so every butterfly saves the
//! generic reduction. Harvey's refinement keeps butterfly lanes in a
//! *redundant* range (`[0, 2p)` where the word size allows) so butterflies
//! defer canonicalization to a final pass.
//!
//! [`ShoupField`] exposes these kernels behind defaults that fall back to
//! plain canonical arithmetic, so generic NTT code runs unchanged over
//! fields without a specialized implementation (e.g. the 254-bit
//! [`crate::Bn254Fr`], whose portable NTT path runs on the defaults and
//! whose native tier is AVX-512 IFMA lanes, [`crate::packed::ifma`], not
//! a Shoup kernel); Goldilocks and BabyBear override the defaults in
//! their own modules. **Every method contract is stated in terms of
//! "lanes"**: a lane is a bit-pattern of `Self` that represents a residue
//! but may be outside the canonical range; [`ShoupField::reduce_lane`]
//! folds a lane back to the canonical representation. For fields using the
//! defaults, lanes are always canonical and `reduce_lane` is the identity.

use crate::Field;

/// A twiddle factor with its precomputed Shoup companion.
///
/// `w` is the twiddle as an ordinary field element (used by the generic
/// fallback). `aux` packs the field-specific raw operand and quotient
/// companion; its layout is private to each field's kernel:
///
/// * Goldilocks: `aux = ⌊w·2^64/p⌋` (the raw operand is `w` itself);
/// * BabyBear: low 32 bits hold `w` in *plain* (non-Montgomery) form,
///   high 32 bits hold `⌊w_plain·2^32/p⌋` — multiplying a Montgomery lane
///   by a plain constant keeps the lane in Montgomery form;
/// * fallback fields: `aux = 0` (unused).
///
/// Layout is pinned (`repr(C)`) so specialized kernels may store twiddle
/// banks as raw words and reinterpret them; see [`crate::packed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C)]
pub struct ShoupTwiddle<F> {
    /// The twiddle factor itself.
    pub w: F,
    /// Field-specific packed companion data (see type docs).
    pub aux: u64,
}

/// Field-level hooks for Shoup multiplication and lazy butterflies.
///
/// The default implementations are the *canonical fallback*: exact,
/// branch-for-branch identical to plain operator arithmetic, valid for any
/// field. Fields with suitable word sizes override them; either way the
/// kernels compute the exact same residues, so NTT outputs are
/// bit-identical across implementations once lanes are reduced.
pub trait ShoupField: Field {
    /// `true` when this field overrides the defaults with a real Shoup
    /// kernel (informational; used by benches and reports).
    const SHOUP_ACCELERATED: bool = false;

    /// Precomputes the companion for multiplications by `w`.
    #[inline]
    fn shoup_prepare(w: Self) -> ShoupTwiddle<Self> {
        ShoupTwiddle { w, aux: 0 }
    }

    /// Lane-in, lane-out product `a·w`. Accepts any valid lane `a` and
    /// returns a valid lane.
    #[inline]
    fn shoup_mul(a: Self, t: &ShoupTwiddle<Self>) -> Self {
        a * t.w
    }

    /// Decimation-in-time butterfly on lanes: `(u + v·w, u − v·w)`.
    #[inline]
    fn dit_butterfly(u: Self, v: Self, t: &ShoupTwiddle<Self>) -> (Self, Self) {
        let x = Self::shoup_mul(v, t);
        (u + x, u - x)
    }

    /// Decimation-in-frequency butterfly on lanes: `(u + v, (u − v)·w)`.
    #[inline]
    fn dif_butterfly(u: Self, v: Self, t: &ShoupTwiddle<Self>) -> (Self, Self) {
        (u + v, Self::shoup_mul(u - v, t))
    }

    /// Folds a lane back to the canonical representation.
    #[inline]
    fn reduce_lane(x: Self) -> Self {
        x
    }

    /// Preferred SIMD lane count for the packed butterfly layer: the
    /// number of elements a 256-bit vector register holds (4 for a
    /// 64-bit field, 8 for a 32-bit field, 1 for fallback fields, which
    /// keeps the vector kernels off their hot path entirely).
    const LANES: usize = 1;

    /// Packed Shoup product: `out[i] = a[i]·tw[i].w` on lanes.
    ///
    /// The default is a plain fixed-trip-count loop over
    /// [`ShoupField::shoup_mul`]; with branch-free scalar kernels the
    /// autovectorizer unrolls it into full-width SIMD where profitable.
    /// `tw` must hold at least `L` entries.
    #[inline]
    fn shoup_mul_lanes<const L: usize>(a: &mut [Self; L], tw: &[ShoupTwiddle<Self>]) {
        for (x, t) in a.iter_mut().zip(tw) {
            *x = Self::shoup_mul(*x, t);
        }
    }

    /// Packed DIF butterfly: `(u[i], v[i]) ← (u[i]+v[i], (u[i]−v[i])·tw[i].w)`
    /// on lanes. `tw` must hold at least `L` entries.
    #[inline]
    fn dif_butterfly_lanes<const L: usize>(
        u: &mut [Self; L],
        v: &mut [Self; L],
        tw: &[ShoupTwiddle<Self>],
    ) {
        for ((x, y), t) in u.iter_mut().zip(v.iter_mut()).zip(tw) {
            let (a, b) = Self::dif_butterfly(*x, *y, t);
            *x = a;
            *y = b;
        }
    }

    /// Packed DIT butterfly: `(u[i], v[i]) ← (u[i]+v[i]·w, u[i]−v[i]·w)`
    /// on lanes. `tw` must hold at least `L` entries.
    #[inline]
    fn dit_butterfly_lanes<const L: usize>(
        u: &mut [Self; L],
        v: &mut [Self; L],
        tw: &[ShoupTwiddle<Self>],
    ) {
        for ((x, y), t) in u.iter_mut().zip(v.iter_mut()).zip(tw) {
            let (a, b) = Self::dit_butterfly(*x, *y, t);
            *x = a;
            *y = b;
        }
    }

    /// Packed lane canonicalization.
    #[inline]
    fn reduce_lanes<const L: usize>(a: &mut [Self; L]) {
        for x in a.iter_mut() {
            *x = Self::reduce_lane(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BabyBear, Bn254Fr, Field, Goldilocks, PrimeField};
    use rand::{rngs::StdRng, SeedableRng};

    /// Exhaustive-ish agreement of the Shoup kernels with plain operator
    /// arithmetic, for every field (accelerated or fallback).
    fn kernels_match_plain_ops<F: ShoupField + PrimeField>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..2_000 {
            let a = F::random(&mut rng);
            let b = F::random(&mut rng);
            let w = F::random(&mut rng);
            let t = F::shoup_prepare(w);

            assert_eq!(F::reduce_lane(F::shoup_mul(a, &t)), a * w, "mul");

            let (hi, lo) = F::dit_butterfly(a, b, &t);
            assert_eq!(F::reduce_lane(hi), a + b * w, "dit hi");
            assert_eq!(F::reduce_lane(lo), a - b * w, "dit lo");

            let (s, d) = F::dif_butterfly(a, b, &t);
            assert_eq!(F::reduce_lane(s), a + b, "dif sum");
            assert_eq!(F::reduce_lane(d), (a - b) * w, "dif diff");
        }
    }

    /// Documents which fields advertise a real Shoup kernel; the value is
    /// a compile-time constant by design.
    #[allow(clippy::assertions_on_constants)]
    fn expect_accelerated<F: ShoupField>(expected: bool) {
        assert_eq!(F::SHOUP_ACCELERATED, expected);
    }

    #[test]
    fn goldilocks_kernels_match() {
        expect_accelerated::<Goldilocks>(true);
        kernels_match_plain_ops::<Goldilocks>(1);
    }

    #[test]
    fn babybear_kernels_match() {
        expect_accelerated::<BabyBear>(true);
        kernels_match_plain_ops::<BabyBear>(2);
    }

    #[test]
    fn bn254fr_fallback_matches() {
        expect_accelerated::<Bn254Fr>(false);
        kernels_match_plain_ops::<Bn254Fr>(3);
    }

    #[test]
    fn edge_twiddles() {
        // w ∈ {0, 1, −1, p−2} and a ∈ edge values.
        for w_raw in [0u64, 1, 2, crate::GOLDILOCKS_MODULUS - 1] {
            let w = Goldilocks::from_u64(w_raw);
            let t = Goldilocks::shoup_prepare(w);
            for a_raw in [0u64, 1, 0xffff_ffff, crate::GOLDILOCKS_MODULUS - 1] {
                let a = Goldilocks::from_u64(a_raw);
                assert_eq!(
                    Goldilocks::reduce_lane(Goldilocks::shoup_mul(a, &t)),
                    a * w,
                    "w={w_raw} a={a_raw}"
                );
            }
        }
        for w_raw in [0u64, 1, 2, crate::BABYBEAR_MODULUS as u64 - 1] {
            let w = BabyBear::from_u64(w_raw);
            let t = BabyBear::shoup_prepare(w);
            for a_raw in [0u64, 1, crate::BABYBEAR_MODULUS as u64 - 1] {
                let a = BabyBear::from_u64(a_raw);
                assert_eq!(
                    BabyBear::reduce_lane(BabyBear::shoup_mul(a, &t)),
                    a * w,
                    "w={w_raw} a={a_raw}"
                );
            }
        }
    }

    #[test]
    fn lanes_chain_through_repeated_butterflies() {
        // Feed butterfly outputs (still lazy) back in as inputs many times
        // and only reduce at the end — the Harvey invariant must hold.
        let mut rng = StdRng::seed_from_u64(9);
        let w = BabyBear::random(&mut rng);
        let t = BabyBear::shoup_prepare(w);
        let mut u = BabyBear::random(&mut rng);
        let mut v = BabyBear::random(&mut rng);
        let (mut pu, mut pv) = (u, v);
        for _ in 0..64 {
            (u, v) = BabyBear::dit_butterfly(u, v, &t);
            pu = {
                let x = pv * w;
                let new_pu = pu + x;
                let new_pv = pu - x;
                pv = new_pv;
                new_pu
            };
        }
        assert_eq!(BabyBear::reduce_lane(u), pu);
        assert_eq!(BabyBear::reduce_lane(v), pv);
    }
}
