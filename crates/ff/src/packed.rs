//! Lane-packed field kernels: word views over element slices and the
//! explicit AVX2 / AVX-512 / AVX-512 IFMA (`std::arch`) primitives.
//!
//! The portable packed layer lives on [`crate::ShoupField`] as
//! const-generic `[F; LANES]` operations; this module supplies what that
//! layer cannot express generically:
//!
//! * **word views** — `#[repr(transparent)]` lets a `&mut [Goldilocks]`
//!   be reinterpreted as `&mut [u64]` (`&mut [BabyBear]` as `&mut [u32]`,
//!   `&mut [Mont<M>]` as four `u64` Montgomery words per element) so
//!   vector kernels can load whole registers straight from the transform
//!   buffer;
//! * **AVX2 primitives** (x86_64 only) — 4×`u64` Goldilocks and 8×`u32`
//!   BabyBear modular add/sub/mul on `__m256i`, written as
//!   `#[inline(always)]` helpers that specialize correctly when inlined
//!   into a `#[target_feature(enable = "avx2")]` kernel loop. Callers
//!   perform runtime detection (`is_x86_feature_detected!("avx2")`); the
//!   portable lane layer is the bit-identical fallback.
//!
//! Every primitive computes the exact residue and returns **canonical**
//! lanes, so outputs agree bit-for-bit with the scalar kernels once those
//! canonicalize (canonical representations are unique).

use crate::{BabyBear, Goldilocks, Mont, MontParams};

/// Reinterprets a Goldilocks slice as its raw canonical `u64` words.
///
/// Sound because `Goldilocks` is `#[repr(transparent)]` over `u64`.
/// Writing a non-canonical word (≥ p) through the view is a logic error
/// (later arithmetic would be wrong) but not UB.
#[inline]
pub fn gl_words_mut(values: &mut [Goldilocks]) -> &mut [u64] {
    // SAFETY: Goldilocks is repr(transparent) over u64.
    unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u64>(), values.len()) }
}

/// Reinterprets a Goldilocks slice as its raw canonical `u64` words.
#[inline]
pub fn gl_words(values: &[Goldilocks]) -> &[u64] {
    // SAFETY: Goldilocks is repr(transparent) over u64.
    unsafe { core::slice::from_raw_parts(values.as_ptr().cast::<u64>(), values.len()) }
}

/// Reinterprets a BabyBear slice as its raw Montgomery `u32` words.
///
/// Sound because `BabyBear` is `#[repr(transparent)]` over `u32`. The
/// words are Montgomery-form lanes, not canonical values.
#[inline]
pub fn bb_words_mut(values: &mut [BabyBear]) -> &mut [u32] {
    // SAFETY: BabyBear is repr(transparent) over u32.
    unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u32>(), values.len()) }
}

/// Reinterprets a BabyBear slice as its raw Montgomery `u32` words.
#[inline]
pub fn bb_words(values: &[BabyBear]) -> &[u32] {
    // SAFETY: BabyBear is repr(transparent) over u32.
    unsafe { core::slice::from_raw_parts(values.as_ptr().cast::<u32>(), values.len()) }
}

/// Reinterprets a slice of 256-bit Montgomery elements as their
/// Montgomery words: four little-endian `u64` per element.
///
/// Sound because `Mont` is `#[repr(transparent)]` over `U256`, which is
/// `#[repr(transparent)]` over `[u64; 4]`. Writing a word that is not a
/// canonical residue is a logic error, as for [`gl_words_mut`].
#[inline]
pub fn mont_words_mut<M: MontParams>(values: &mut [Mont<M>]) -> &mut [u64] {
    // SAFETY: Mont<M> is repr(transparent) over U256, over [u64; 4].
    unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u64>(), 4 * values.len()) }
}

/// The raw word of one Goldilocks element (canonical).
#[inline]
pub fn gl_word(x: Goldilocks) -> u64 {
    x.raw()
}

/// The raw Montgomery word of one BabyBear element.
#[inline]
pub fn bb_word(x: BabyBear) -> u32 {
    x.raw()
}

/// AVX2 lane primitives. All functions are `#[inline(always)]` and must
/// be called (transitively) from a `#[target_feature(enable = "avx2")]`
/// context on a CPU with AVX2 — they inline into the caller and inherit
/// its feature set, which is what makes the runtime-dispatch pattern
/// work without per-butterfly call overhead.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use core::arch::x86_64::*;

    use crate::{BABYBEAR_MODULUS, GOLDILOCKS_MODULUS};

    /// `2^32 − 1`: the Goldilocks reduction constant (`2^64 ≡ ε mod p`).
    const EPSILON: i64 = 0xffff_ffff;

    /// Unsigned 64-bit per-lane `a > b` mask (AVX2 only has the signed
    /// compare, so both operands get their sign bits flipped first).
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn cmpgt_epu64(a: __m256i, b: __m256i) -> __m256i {
        let sign = _mm256_set1_epi64x(i64::MIN);
        _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign), _mm256_xor_si256(b, sign))
    }

    /// Goldilocks lane add: canonical in, canonical out, 4×`u64`.
    ///
    /// A 64-bit wrap contributes `2^64 ≡ ε`, after which one conditional
    /// subtraction of `p` restores the canonical range (the wrap-adjusted
    /// sum is provably `< p` already, so the two fixups never stack).
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn gl_add(a: __m256i, b: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(GOLDILOCKS_MODULUS as i64);
        let eps = _mm256_set1_epi64x(EPSILON);
        let s = _mm256_add_epi64(a, b);
        let wrapped = cmpgt_epu64(a, s); // s < a ⟺ the add wrapped
        let s = _mm256_add_epi64(s, _mm256_and_si256(wrapped, eps));
        let lt_p = cmpgt_epu64(p, s);
        _mm256_sub_epi64(s, _mm256_andnot_si256(lt_p, p))
    }

    /// Goldilocks lane sub: canonical in, canonical out, 4×`u64`.
    ///
    /// A borrow contributes `−2^64 ≡ −ε`; the corrected difference is
    /// already canonical in both cases.
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn gl_sub(a: __m256i, b: __m256i) -> __m256i {
        let eps = _mm256_set1_epi64x(EPSILON);
        let d = _mm256_sub_epi64(a, b);
        let borrow = cmpgt_epu64(b, a);
        _mm256_sub_epi64(d, _mm256_and_si256(borrow, eps))
    }

    /// Goldilocks lane product `a·b mod p`: canonical in, canonical out.
    ///
    /// Full 64×64→128 product from four `vpmuludq` partials, then the
    /// special-form reduction `lo − hi_hi + hi_lo·ε` (`ε·x` is a
    /// shift-and-subtract, not a multiply), mirroring the scalar
    /// `reduce128` — so lanes land on the exact same canonical residues.
    /// On AVX2 this beats a vectorized Shoup product: Shoup needs a
    /// 64-bit `mulhi` (four partials) *plus* a 64-bit `mullo` (three
    /// partials), and its `[0, 2p)` result overflows a `u64` lane for
    /// this field.
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn gl_mul(a: __m256i, b: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(GOLDILOCKS_MODULUS as i64);
        let eps = _mm256_set1_epi64x(EPSILON);
        let mask32 = _mm256_set1_epi64x(EPSILON);

        // 64×64→128: schoolbook over 32-bit halves.
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // t = hl + (ll >> 32) ≤ (2^32−1)² + (2^32−1) < 2^64: no wrap.
        let t = _mm256_add_epi64(hl, _mm256_srli_epi64::<32>(ll));
        let t_lo = _mm256_and_si256(t, mask32);
        let t_hi = _mm256_srli_epi64::<32>(t);
        // u = lh + t_lo < 2^64: no wrap.
        let u = _mm256_add_epi64(lh, t_lo);
        let lo = _mm256_or_si256(_mm256_slli_epi64::<32>(u), _mm256_and_si256(ll, mask32));
        let hi = _mm256_add_epi64(hh, _mm256_add_epi64(t_hi, _mm256_srli_epi64::<32>(u)));

        // reduce128: x = lo + 2^64·hi ≡ lo − hi_hi + hi_lo·ε (mod p).
        let hi_hi = _mm256_srli_epi64::<32>(hi);
        let hi_lo = _mm256_and_si256(hi, mask32);
        let t0 = _mm256_sub_epi64(lo, hi_hi);
        let borrow = cmpgt_epu64(hi_hi, lo);
        let t0 = _mm256_sub_epi64(t0, _mm256_and_si256(borrow, eps));
        let t1 = _mm256_sub_epi64(_mm256_slli_epi64::<32>(hi_lo), hi_lo); // hi_lo·ε
        let res = _mm256_add_epi64(t0, t1);
        let carry = cmpgt_epu64(t0, res); // res < t0 ⟺ the add wrapped
        let res = _mm256_add_epi64(res, _mm256_and_si256(carry, eps));
        let lt_p = cmpgt_epu64(p, res);
        _mm256_sub_epi64(res, _mm256_andnot_si256(lt_p, p))
    }

    /// BabyBear lane add: canonical in, canonical out, 8×`u32`.
    ///
    /// `min(a+b, a+b−p)` — the subtraction wraps to a huge value exactly
    /// when `a+b < p`, so the unsigned min picks the reduced branch.
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn bb_add(a: __m256i, b: __m256i) -> __m256i {
        let p = _mm256_set1_epi32(BABYBEAR_MODULUS as i32);
        let s = _mm256_add_epi32(a, b);
        _mm256_min_epu32(s, _mm256_sub_epi32(s, p))
    }

    /// BabyBear lane sub: canonical in, canonical out, 8×`u32`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn bb_sub(a: __m256i, b: __m256i) -> __m256i {
        let p = _mm256_set1_epi32(BABYBEAR_MODULUS as i32);
        let d = _mm256_sub_epi32(a, b);
        _mm256_min_epu32(d, _mm256_add_epi32(d, p))
    }

    /// BabyBear lane Shoup product by a prepared twiddle, 8×`u32`.
    ///
    /// `plain` holds the twiddle in plain (non-Montgomery) form and
    /// `quot` its Shoup quotient `⌊w·2^32/p⌋`, each broadcast one lane
    /// per element (the vector plan stores twiddle banks in exactly this
    /// split layout). Input lanes are canonical Montgomery words; the
    /// result `a·plain − q·p ∈ [0, 2p)` is folded to canonical with one
    /// unsigned min.
    ///
    /// The 32-bit `mulhi` has no AVX2 instruction, so even/odd lanes run
    /// through two `vpmuludq` and a blend.
    ///
    /// # Safety
    ///
    /// Requires AVX2 in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn bb_shoup_mul(a: __m256i, plain: __m256i, quot: __m256i) -> __m256i {
        let p = _mm256_set1_epi32(BABYBEAR_MODULUS as i32);
        let prod_even = _mm256_mul_epu32(a, quot);
        let prod_odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), _mm256_srli_epi64::<32>(quot));
        // Even result lanes carry hi(prod_even); odd lanes sit in the
        // upper halves of prod_odd already.
        let q = _mm256_blend_epi32::<0b10101010>(_mm256_srli_epi64::<32>(prod_even), prod_odd);
        let r = _mm256_sub_epi32(_mm256_mullo_epi32(a, plain), _mm256_mullo_epi32(q, p));
        _mm256_min_epu32(r, _mm256_sub_epi32(r, p))
    }
}

/// Explicit AVX-512 lane primitives (8×`u64` Goldilocks). Same contracts
/// as the [`avx2`] versions at double width: canonical lanes in and out,
/// bit-identical residues to the scalar ops. The conditional fixups that
/// AVX2 phrases as compare-and-mask run on AVX-512 mask registers
/// (`_mm512_mask_*`).
///
/// Every function must only be called when `avx512f` is available
/// (callers are `#[target_feature]` stage drivers that are themselves
/// gated on runtime detection of `avx512f` and `avx512dq`).
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use core::arch::x86_64::*;

    use crate::GOLDILOCKS_MODULUS;

    /// `2^32 − 1`: the Goldilocks reduction constant (`2^64 ≡ ε mod p`).
    const EPSILON: i64 = 0xffff_ffff;

    /// Goldilocks lane add: canonical in, canonical out, 8×`u64`.
    ///
    /// Same algebra as [`super::avx2::gl_add`]: a 64-bit wrap contributes
    /// `2^64 ≡ ε`, then one conditional subtraction of `p` restores the
    /// canonical range.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn gl_add(a: __m512i, b: __m512i) -> __m512i {
        let p = _mm512_set1_epi64(GOLDILOCKS_MODULUS as i64);
        let eps = _mm512_set1_epi64(EPSILON);
        let s = _mm512_add_epi64(a, b);
        let wrapped = _mm512_cmplt_epu64_mask(s, a); // s < a ⟺ the add wrapped
        let s = _mm512_mask_add_epi64(s, wrapped, s, eps);
        let ge_p = _mm512_cmpge_epu64_mask(s, p);
        _mm512_mask_sub_epi64(s, ge_p, s, p)
    }

    /// Goldilocks lane sub: canonical in, canonical out, 8×`u64`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn gl_sub(a: __m512i, b: __m512i) -> __m512i {
        let eps = _mm512_set1_epi64(EPSILON);
        let d = _mm512_sub_epi64(a, b);
        let borrow = _mm512_cmplt_epu64_mask(a, b);
        _mm512_mask_sub_epi64(d, borrow, d, eps)
    }

    /// Goldilocks lane product `a·b mod p`: canonical in, canonical out,
    /// 8×`u64`.
    ///
    /// Both product halves come from the four `vpmuludq` partials, as in
    /// [`super::avx2::gl_mul`], after which the special-form reduction
    /// `lo − hi_hi + hi_lo·ε` mirrors the scalar `reduce128` exactly —
    /// lanes land on the same canonical residues.
    ///
    /// The low half is deliberately *not* `vpmullq`: with the low word
    /// taken from a separate multiply, LLVM 22 (rustc 1.95) recognises the
    /// remaining partial-product ladder as a 64-bit multiply-high, for
    /// which there is no vector instruction, and lowers it to eight
    /// `vpextrq` / scalar `mul` / re-insert sequences per call. Sharing
    /// the partials between both halves keeps the product in vector
    /// registers (and drops a 3-µop instruction).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F in the (inlined-into) calling context.
    #[inline(always)]
    pub unsafe fn gl_mul(a: __m512i, b: __m512i) -> __m512i {
        let p = _mm512_set1_epi64(GOLDILOCKS_MODULUS as i64);
        let eps = _mm512_set1_epi64(EPSILON);
        let mask32 = _mm512_set1_epi64(EPSILON);

        // 64×64→128: schoolbook over 32-bit halves.
        let a_hi = _mm512_srli_epi64::<32>(a);
        let b_hi = _mm512_srli_epi64::<32>(b);
        let ll = _mm512_mul_epu32(a, b);
        let lh = _mm512_mul_epu32(a, b_hi);
        let hl = _mm512_mul_epu32(a_hi, b);
        let hh = _mm512_mul_epu32(a_hi, b_hi);
        // t = hl + (ll >> 32) ≤ (2^32−1)² + (2^32−1) < 2^64: no wrap.
        let t = _mm512_add_epi64(hl, _mm512_srli_epi64::<32>(ll));
        // u = lh + t_lo < 2^64: no wrap.
        let u = _mm512_add_epi64(lh, _mm512_and_si512(t, mask32));
        let lo = _mm512_or_si512(_mm512_slli_epi64::<32>(u), _mm512_and_si512(ll, mask32));
        let hi = _mm512_add_epi64(
            hh,
            _mm512_add_epi64(_mm512_srli_epi64::<32>(t), _mm512_srli_epi64::<32>(u)),
        );

        // reduce128: x = lo + 2^64·hi ≡ lo − hi_hi + hi_lo·ε (mod p).
        let hi_hi = _mm512_srli_epi64::<32>(hi);
        let hi_lo = _mm512_and_si512(hi, mask32);
        let borrow = _mm512_cmplt_epu64_mask(lo, hi_hi);
        let t0 = _mm512_sub_epi64(lo, hi_hi);
        let t0 = _mm512_mask_sub_epi64(t0, borrow, t0, eps);
        let t1 = _mm512_sub_epi64(_mm512_slli_epi64::<32>(hi_lo), hi_lo); // hi_lo·ε
        let res = _mm512_add_epi64(t0, t1);
        let carry = _mm512_cmplt_epu64_mask(res, t0); // res < t0 ⟺ the add wrapped
        let res = _mm512_mask_add_epi64(res, carry, res, eps);
        let ge_p = _mm512_cmpge_epu64_mask(res, p);
        _mm512_mask_sub_epi64(res, ge_p, res, p)
    }
}

/// Eight 254-bit Montgomery-field elements in AVX-512 IFMA lanes
/// ([`ifma::Mont8`]): [`ifma::Fq8`] for the MSM's BN254 base field,
/// [`ifma::Fr8`] for the NTT's BN254 scalar field.
///
/// An element is five 52-bit limbs, one `__m512i` per limb, lane `l` of
/// every limb register belonging to element `l`. Values are Montgomery
/// residues with `R = 2^260` (five limbs), where [`crate::Mont`] uses
/// `R = 2^256`: the *lane form* of `x` is `x·2^260 mod p`, so entering the
/// lanes multiplies a `Mont` word by `16 mod p` and leaving them by `16⁻¹`.
/// Multiplication is CIOS over `vpmadd52luq` / `vpmadd52huq`, whose 64-bit
/// accumulators absorb the column sums without a carry until the end.
///
/// A `Mont` word split into limbs as it is, with no `×16`, is the lane
/// form of `x/16` ([`ifma::Mont8::load_words`]). Sums and differences keep
/// that scale, and a product with a lane-form constant `w` gives the lane
/// form of `x·w/16`, whose limbs join back into the `Mont` word of `x·w`:
/// a transform whose only products are by prepared constants runs on the
/// `Mont` words with a bit split on entry and a join on exit.
///
/// Every operation returns **canonical** lanes (value `< p`, every limb
/// `< 2^52`), so a representation is unique: equality is limb equality,
/// and an element that enters and leaves the lanes is the same `Mont`
/// element bit for bit, whatever arithmetic ran in between.
///
/// Every `unsafe fn` requires `avx512f` and `avx512ifma` in the
/// (inlined-into) calling context.
#[cfg(target_arch = "x86_64")]
pub mod ifma {
    use core::arch::x86_64::*;
    use core::marker::PhantomData;

    use crate::{Bn254FqParams, Bn254FrParams, Field, Mont, MontParams, U256};

    /// Limbs per element: `5 × 52 = 260` bits.
    pub const LIMBS: usize = 5;
    /// Lanes per register.
    pub const LANES: usize = 8;

    const MASK: u64 = (1 << 52) - 1;

    /// `v` in radix `2^52`.
    const fn split(v: &U256) -> [u64; LIMBS] {
        let w = v.limbs();
        [
            w[0] & MASK,
            (w[0] >> 52 | w[1] << 12) & MASK,
            (w[1] >> 40 | w[2] << 24) & MASK,
            (w[2] >> 28 | w[3] << 36) & MASK,
            w[3] >> 16,
        ]
    }

    /// The 256-bit integer with radix-`2^52` limbs `l` (`l[4] < 2^48`).
    const fn join(l: &[u64; LIMBS]) -> U256 {
        U256::from_limbs([
            l[0] | l[1] << 52,
            l[1] >> 12 | l[2] << 40,
            l[2] >> 24 | l[3] << 28,
            l[3] >> 36 | l[4] << 16,
        ])
    }

    /// `16·v mod p` for a canonical `v`.
    const fn times_16<M: MontParams>(v: &U256) -> U256 {
        let p = &M::MODULUS;
        v.double_mod(p).double_mod(p).double_mod(p).double_mod(p)
    }

    /// Eight canonical elements of `Mont<M>`, limb-major (module docs).
    /// Only this module's `unsafe` constructors make one, so a value
    /// exists only where the CPU has the features.
    #[derive(Clone, Copy, Debug)]
    pub struct Mont8<M: MontParams>([__m512i; LIMBS], PhantomData<M>);

    /// Eight BN254 base-field elements: the MSM's coordinates.
    pub type Fq8 = Mont8<Bn254FqParams>;
    /// Eight BN254 scalar-field elements: the NTT's data.
    pub type Fr8 = Mont8<Bn254FrParams>;

    impl<M: MontParams> Mont8<M> {
        /// The modulus in radix `2^52`.
        const P: [u64; LIMBS] = split(&M::MODULUS);

        /// `−p⁻¹ mod 2^52`, by Newton iteration.
        const P_INV: u64 = {
            let p0 = M::MODULUS.limbs()[0];
            let mut inv = 1u64;
            let mut i = 0;
            while i < 6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
                i += 1;
            }
            inv.wrapping_neg() & MASK
        };

        /// The lane form of one: `2^260 mod p`.
        pub const ONE: [u64; LIMBS] = split(&times_16::<M>(&Mont::<M>::ONE.repr()));

        /// `x` in lane form: its Montgomery word `x·2^256` times 16, in
        /// radix `2^52`.
        pub fn to_limbs(x: &Mont<M>) -> [u64; LIMBS] {
            split(&times_16::<M>(&x.repr()))
        }

        /// The element whose lane form is `l` (canonical limbs): the
        /// residue times `16⁻¹`, which is one Montgomery product with
        /// `2^252`.
        pub fn from_limbs(l: &[u64; LIMBS]) -> Mont<M> {
            Mont::from_repr(join(l)) * Mont::from_repr(U256::from_limbs([0, 0, 0, 1 << 60]))
        }

        /// `l` in every lane.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn splat(l: &[u64; LIMBS]) -> Self {
            Self(
                [
                    _mm512_set1_epi64(l[0] as i64),
                    _mm512_set1_epi64(l[1] as i64),
                    _mm512_set1_epi64(l[2] as i64),
                    _mm512_set1_epi64(l[3] as i64),
                    _mm512_set1_epi64(l[4] as i64),
                ],
                PhantomData,
            )
        }

        /// Lane `l` takes `x[l]`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn from_elems(x: &[Mont<M>; LANES]) -> Self {
            let mut words = [[0u64; LANES]; LIMBS];
            for (l, x) in x.iter().enumerate() {
                for (row, limb) in words.iter_mut().zip(Self::to_limbs(x)) {
                    row[l] = limb;
                }
            }
            Self::load(words.as_ptr().cast(), LANES)
        }

        /// Lane `l` as a `Mont<M>`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn to_elems(self) -> [Mont<M>; LANES] {
            let mut words = [[0u64; LANES]; LIMBS];
            self.store(words.as_mut_ptr().cast(), LANES);
            core::array::from_fn(|l| {
                Self::from_limbs(&[
                    words[0][l],
                    words[1][l],
                    words[2][l],
                    words[3][l],
                    words[4][l],
                ])
            })
        }

        /// Loads limb `j` from the eight words at `src + j·stride`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); the five rows
        /// must be readable, and hold canonical lane-form limbs.
        #[inline(always)]
        pub unsafe fn load(src: *const u64, stride: usize) -> Self {
            Self(
                [
                    _mm512_loadu_si512(src.cast()),
                    _mm512_loadu_si512(src.add(stride).cast()),
                    _mm512_loadu_si512(src.add(2 * stride).cast()),
                    _mm512_loadu_si512(src.add(3 * stride).cast()),
                    _mm512_loadu_si512(src.add(4 * stride).cast()),
                ],
                PhantomData,
            )
        }

        /// Stores limb `j` to the eight words at `dst + j·stride`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); the five rows
        /// must be writable.
        #[inline(always)]
        pub unsafe fn store(self, dst: *mut u64, stride: usize) {
            for (j, limb) in self.0.into_iter().enumerate() {
                _mm512_storeu_si512(dst.add(j * stride).cast(), limb);
            }
        }

        /// Lane `l` of limb `j` from word `src[j·stride + idx[l]]`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); every indexed
        /// word must be readable and hold a canonical lane-form limb.
        #[inline(always)]
        pub unsafe fn gather(src: *const u64, stride: usize, idx: __m512i) -> Self {
            let row = |j: usize| src.add(j * stride).cast::<i64>();
            Self(
                [
                    _mm512_i64gather_epi64::<8>(idx, row(0)),
                    _mm512_i64gather_epi64::<8>(idx, row(1)),
                    _mm512_i64gather_epi64::<8>(idx, row(2)),
                    _mm512_i64gather_epi64::<8>(idx, row(3)),
                    _mm512_i64gather_epi64::<8>(idx, row(4)),
                ],
                PhantomData,
            )
        }

        /// Writes lane `l` of limb `j` to `dst[j·stride + idx[l]]` for
        /// the lanes set in `mask`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); every indexed
        /// word of a masked-in lane must be writable. Two masked-in lanes
        /// must not share an index.
        #[inline(always)]
        pub unsafe fn scatter(self, dst: *mut u64, stride: usize, idx: __m512i, mask: __mmask8) {
            for (j, limb) in self.0.into_iter().enumerate() {
                _mm512_mask_i64scatter_epi64::<8>(dst.add(j * stride).cast(), mask, idx, limb);
            }
        }

        /// The eight consecutive `Mont` words at `src` (four `u64` each),
        /// split into limbs as they are: lane `l` is the lane form of
        /// `x_l/16` (module docs).
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); `src` must be
        /// readable for 32 words holding canonical `Mont` words.
        #[inline(always)]
        pub unsafe fn load_words(src: *const u64) -> Self {
            // Four registers of two elements each, transposed to one
            // register per word: first words 0/1 and 2/3 of each half …
            let z0 = _mm512_loadu_si512(src.cast());
            let z1 = _mm512_loadu_si512(src.add(8).cast());
            let z2 = _mm512_loadu_si512(src.add(16).cast());
            let z3 = _mm512_loadu_si512(src.add(24).cast());
            let lo = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
            let hi = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
            let a01 = _mm512_permutex2var_epi64(z0, lo, z1);
            let a23 = _mm512_permutex2var_epi64(z0, hi, z1);
            let b01 = _mm512_permutex2var_epi64(z2, lo, z3);
            let b23 = _mm512_permutex2var_epi64(z2, hi, z3);
            // … then the two halves side by side.
            let w = [
                _mm512_shuffle_i64x2::<0x44>(a01, b01),
                _mm512_shuffle_i64x2::<0xee>(a01, b01),
                _mm512_shuffle_i64x2::<0x44>(a23, b23),
                _mm512_shuffle_i64x2::<0xee>(a23, b23),
            ];
            Self::from_word_rows(w)
        }

        /// Joins the limbs back into eight `Mont` words and stores them
        /// at `dst` (four `u64` each, lane order): the inverse of
        /// [`Self::load_words`].
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); `dst` must be
        /// writable for 32 words.
        #[inline(always)]
        pub unsafe fn store_words(self, dst: *mut u64) {
            let [w0, w1, w2, w3] = self.word_rows();
            let lo = _mm512_setr_epi64(0, 4, 8, 12, 1, 5, 9, 13);
            let hi = _mm512_setr_epi64(2, 6, 10, 14, 3, 7, 11, 15);
            // Words 0 and 1 of lanes 0–3 | 4–7, then words 2 and 3.
            let a = _mm512_shuffle_i64x2::<0x44>(w0, w1);
            let b = _mm512_shuffle_i64x2::<0xee>(w0, w1);
            let c = _mm512_shuffle_i64x2::<0x44>(w2, w3);
            let d = _mm512_shuffle_i64x2::<0xee>(w2, w3);
            _mm512_storeu_si512(dst.cast(), _mm512_permutex2var_epi64(a, lo, c));
            _mm512_storeu_si512(dst.add(8).cast(), _mm512_permutex2var_epi64(a, hi, c));
            _mm512_storeu_si512(dst.add(16).cast(), _mm512_permutex2var_epi64(b, lo, d));
            _mm512_storeu_si512(dst.add(24).cast(), _mm512_permutex2var_epi64(b, hi, d));
        }

        /// Joins the limbs back into `Mont` words and writes lane `l`'s
        /// four words to `dst[4·idx[l] ..][..4]`: a store to arbitrary
        /// element positions, such as bit-reversed ones.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs); every indexed
        /// element must be writable, and no two lanes may share an index.
        #[inline(always)]
        pub unsafe fn scatter_words(self, dst: *mut u64, idx: __m512i) {
            let idx = _mm512_slli_epi64::<2>(idx);
            for (k, w) in self.word_rows().into_iter().enumerate() {
                _mm512_i64scatter_epi64::<8>(dst.add(k).cast(), idx, w);
            }
        }

        /// Limbs from word rows: `w[k]` lane `l` is word `k` of element `l`.
        #[inline(always)]
        unsafe fn from_word_rows(w: [__m512i; 4]) -> Self {
            let mask = _mm512_set1_epi64(MASK as i64);
            let l1 = _mm512_or_si512(_mm512_srli_epi64::<52>(w[0]), _mm512_slli_epi64::<12>(w[1]));
            let l2 = _mm512_or_si512(_mm512_srli_epi64::<40>(w[1]), _mm512_slli_epi64::<24>(w[2]));
            let l3 = _mm512_or_si512(_mm512_srli_epi64::<28>(w[2]), _mm512_slli_epi64::<36>(w[3]));
            Self(
                [
                    _mm512_and_si512(w[0], mask),
                    _mm512_and_si512(l1, mask),
                    _mm512_and_si512(l2, mask),
                    _mm512_and_si512(l3, mask),
                    _mm512_srli_epi64::<16>(w[3]),
                ],
                PhantomData,
            )
        }

        /// Word rows from limbs: the inverse of [`Self::from_word_rows`].
        #[inline(always)]
        unsafe fn word_rows(self) -> [__m512i; 4] {
            let l = self.0;
            [
                _mm512_or_si512(l[0], _mm512_slli_epi64::<52>(l[1])),
                _mm512_or_si512(_mm512_srli_epi64::<12>(l[1]), _mm512_slli_epi64::<40>(l[2])),
                _mm512_or_si512(_mm512_srli_epi64::<24>(l[2]), _mm512_slli_epi64::<28>(l[3])),
                _mm512_or_si512(_mm512_srli_epi64::<36>(l[3]), _mm512_slli_epi64::<16>(l[4])),
            ]
        }

        /// Lane `l` takes lane `idx[l] mod 8` of `self` where bit 3 of
        /// `idx[l]` is clear, of `rhs` where it is set (`vpermt2q` on every
        /// limb).
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn permute2(self, idx: __m512i, rhs: Self) -> Self {
            let (a, b) = (self.0, rhs.0);
            Self(
                [
                    _mm512_permutex2var_epi64(a[0], idx, b[0]),
                    _mm512_permutex2var_epi64(a[1], idx, b[1]),
                    _mm512_permutex2var_epi64(a[2], idx, b[2]),
                    _mm512_permutex2var_epi64(a[3], idx, b[3]),
                    _mm512_permutex2var_epi64(a[4], idx, b[4]),
                ],
                PhantomData,
            )
        }

        /// Lane-wise `a` where `mask` is clear, `b` where it is set.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn blend(mask: __mmask8, a: Self, b: Self) -> Self {
            let (a, b) = (a.0, b.0);
            Self(
                [
                    _mm512_mask_blend_epi64(mask, a[0], b[0]),
                    _mm512_mask_blend_epi64(mask, a[1], b[1]),
                    _mm512_mask_blend_epi64(mask, a[2], b[2]),
                    _mm512_mask_blend_epi64(mask, a[3], b[3]),
                    _mm512_mask_blend_epi64(mask, a[4], b[4]),
                ],
                PhantomData,
            )
        }

        /// The lanes that hold zero.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn zero_mask(self) -> __mmask8 {
            let l = self.0;
            let any = _mm512_or_si512(
                _mm512_or_si512(l[0], l[1]),
                _mm512_or_si512(_mm512_or_si512(l[2], l[3]), l[4]),
            );
            _mm512_cmpeq_epi64_mask(any, _mm512_setzero_si512())
        }

        /// The lanes where `self` and `rhs` hold the same element.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn eq_mask(self, rhs: Self) -> __mmask8 {
            let (a, b) = (self.0, rhs.0);
            _mm512_cmpeq_epi64_mask(a[0], b[0])
                & _mm512_cmpeq_epi64_mask(a[1], b[1])
                & _mm512_cmpeq_epi64_mask(a[2], b[2])
                & _mm512_cmpeq_epi64_mask(a[3], b[3])
                & _mm512_cmpeq_epi64_mask(a[4], b[4])
        }

        /// Lane-wise `a + b mod p`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn add(self, rhs: Self) -> Self {
            let mut s = self.0;
            for (s, b) in s.iter_mut().zip(rhs.0) {
                *s = _mm512_add_epi64(*s, b);
            }
            // `s` and `s − p` in parallel; the sign of the second picks.
            let mut d = s;
            for (d, p) in d.iter_mut().zip(Self::P) {
                *d = _mm512_sub_epi64(*d, _mm512_set1_epi64(p as i64));
            }
            Self::select_canonical(carry(s), carry(d))
        }

        /// Lane-wise `a − b mod p`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn sub(self, rhs: Self) -> Self {
            // `a − b` and `a − b + p` in parallel; the sign of the first
            // picks.
            let mut d = self.0;
            for (d, b) in d.iter_mut().zip(rhs.0) {
                *d = _mm512_sub_epi64(*d, b);
            }
            let mut e = d;
            for (e, p) in e.iter_mut().zip(Self::P) {
                *e = _mm512_add_epi64(*e, _mm512_set1_epi64(p as i64));
            }
            Self::select_canonical(carry(e), carry(d))
        }

        /// Lane-wise `2a mod p`.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn double(self) -> Self {
            self.add(self)
        }

        /// Lane-wise Montgomery product `a·b·2^−260 mod p`, so the lane
        /// form of `x·y` from those of `x` and `y`.
        ///
        /// CIOS: each of five rounds adds `a·b[i]` and `m·p` (with `m`
        /// chosen so the low limb vanishes) into six 64-bit column
        /// accumulators, then drops that limb. A column gains at most four
        /// sub-`2^52` terms a round, so nothing overflows before the
        /// final carry pass; the result is below `2p` and one conditional
        /// subtraction makes it canonical.
        ///
        /// # Safety
        ///
        /// Requires `avx512f` + `avx512ifma` (module docs).
        #[inline(always)]
        pub unsafe fn mul(self, rhs: Self) -> Self {
            let (a, b) = (self.0, rhs.0);
            let zero = _mm512_setzero_si512();
            let p = [
                _mm512_set1_epi64(Self::P[0] as i64),
                _mm512_set1_epi64(Self::P[1] as i64),
                _mm512_set1_epi64(Self::P[2] as i64),
                _mm512_set1_epi64(Self::P[3] as i64),
                _mm512_set1_epi64(Self::P[4] as i64),
            ];
            let p_inv = _mm512_set1_epi64(Self::P_INV as i64);
            let mut t = [zero; LIMBS + 1];
            for bi in b {
                for j in 0..LIMBS {
                    t[j] = _mm512_madd52lo_epu64(t[j], a[j], bi);
                }
                let m = _mm512_madd52lo_epu64(zero, t[0], p_inv);
                for j in 0..LIMBS {
                    t[j] = _mm512_madd52lo_epu64(t[j], m, p[j]);
                }
                for j in 0..LIMBS {
                    t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], a[j], bi);
                    t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], m, p[j]);
                }
                // The low limb is now 0 mod 2^52: carry its top and shift.
                let top = _mm512_srli_epi64::<52>(t[0]);
                t = [_mm512_add_epi64(t[1], top), t[2], t[3], t[4], t[5], zero];
            }
            let t = carry([t[0], t[1], t[2], t[3], t[4]]);
            let mut d = t;
            for (d, p) in d.iter_mut().zip(p) {
                *d = _mm512_sub_epi64(*d, p);
            }
            Self::select_canonical(t, carry(d))
        }

        /// Per lane, `lo` where `hi` (its value minus `p`, carried) is
        /// negative, `hi` otherwise: the one of the two in `[0, p)`.
        #[inline(always)]
        unsafe fn select_canonical(lo: [__m512i; LIMBS], hi: [__m512i; LIMBS]) -> Self {
            let below = _mm512_cmplt_epi64_mask(hi[LIMBS - 1], _mm512_setzero_si512());
            Self::blend(below, Self(hi, PhantomData), Self(lo, PhantomData))
        }
    }

    /// Propagates carries (or, on negative limbs, borrows) so limbs 0–3
    /// are below `2^52`; limb 4 keeps the sign of the whole value.
    #[inline(always)]
    unsafe fn carry(mut x: [__m512i; LIMBS]) -> [__m512i; LIMBS] {
        let mask = _mm512_set1_epi64(MASK as i64);
        for j in 0..LIMBS - 1 {
            x[j + 1] = _mm512_add_epi64(x[j + 1], _mm512_srai_epi64::<52>(x[j]));
            x[j] = _mm512_and_si512(x[j], mask);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Field, PrimeField, ShoupField, ShoupTwiddle};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn word_views_roundtrip() {
        let mut gl: Vec<Goldilocks> = (0..9u64).map(Goldilocks::from_u64).collect();
        let words = gl_words_mut(&mut gl);
        words[3] = 77;
        assert_eq!(gl_words(&gl), &[0, 1, 2, 77, 4, 5, 6, 7, 8]);
        assert_eq!(gl[3], Goldilocks::from_u64(77));

        let mut bb: Vec<BabyBear> = (0..5u64).map(BabyBear::from_u64).collect();
        let raw2 = bb_words(&bb)[2];
        bb_words_mut(&mut bb)[4] = raw2;
        assert_eq!(bb[4], BabyBear::from_u64(2));
        assert_eq!(bb_word(bb[4]), raw2);
        assert_eq!(gl_word(gl[3]), 77);
    }

    #[test]
    fn lane_defaults_match_scalar_ops() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let mut u: [Goldilocks; 4] = core::array::from_fn(|_| Goldilocks::random(&mut rng));
            let mut v: [Goldilocks; 4] = core::array::from_fn(|_| Goldilocks::random(&mut rng));
            let tw: Vec<ShoupTwiddle<Goldilocks>> = (0..4)
                .map(|_| Goldilocks::shoup_prepare(Goldilocks::random(&mut rng)))
                .collect();
            let (su, sv) = (u, v);
            Goldilocks::dif_butterfly_lanes(&mut u, &mut v, &tw);
            for i in 0..4 {
                let (a, b) = Goldilocks::dif_butterfly(su[i], sv[i], &tw[i]);
                assert_eq!((u[i], v[i]), (a, b));
            }
            let mut m = su;
            Goldilocks::shoup_mul_lanes(&mut m, &tw);
            Goldilocks::reduce_lanes(&mut m);
            for i in 0..4 {
                assert_eq!(m[i], su[i] * tw[i].w);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod avx2_vs_scalar {
        use super::super::avx2;
        use crate::{
            BabyBear, Field, Goldilocks, PrimeField, ShoupField, BABYBEAR_MODULUS,
            GOLDILOCKS_MODULUS,
        };
        use core::arch::x86_64::*;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// One AVX2 round over four Goldilocks lanes, returning
        /// (add, sub, mul) lane words.
        #[target_feature(enable = "avx2")]
        unsafe fn gl_round(a: [u64; 4], b: [u64; 4]) -> ([u64; 4], [u64; 4], [u64; 4]) {
            let va = _mm256_loadu_si256(a.as_ptr().cast());
            let vb = _mm256_loadu_si256(b.as_ptr().cast());
            let mut add = [0u64; 4];
            let mut sub = [0u64; 4];
            let mut mul = [0u64; 4];
            _mm256_storeu_si256(add.as_mut_ptr().cast(), avx2::gl_add(va, vb));
            _mm256_storeu_si256(sub.as_mut_ptr().cast(), avx2::gl_sub(va, vb));
            _mm256_storeu_si256(mul.as_mut_ptr().cast(), avx2::gl_mul(va, vb));
            (add, sub, mul)
        }

        #[target_feature(enable = "avx2")]
        unsafe fn bb_round(
            a: [u32; 8],
            b: [u32; 8],
            plain: [u32; 8],
            quot: [u32; 8],
        ) -> ([u32; 8], [u32; 8], [u32; 8]) {
            let va = _mm256_loadu_si256(a.as_ptr().cast());
            let vb = _mm256_loadu_si256(b.as_ptr().cast());
            let vp = _mm256_loadu_si256(plain.as_ptr().cast());
            let vq = _mm256_loadu_si256(quot.as_ptr().cast());
            let mut add = [0u32; 8];
            let mut sub = [0u32; 8];
            let mut mul = [0u32; 8];
            _mm256_storeu_si256(add.as_mut_ptr().cast(), avx2::bb_add(va, vb));
            _mm256_storeu_si256(sub.as_mut_ptr().cast(), avx2::bb_sub(va, vb));
            _mm256_storeu_si256(mul.as_mut_ptr().cast(), avx2::bb_shoup_mul(va, vp, vq));
            (add, sub, mul)
        }

        #[test]
        fn goldilocks_lanes_match_scalar() {
            if !is_x86_feature_detected!("avx2") {
                return;
            }
            let mut rng = StdRng::seed_from_u64(31);
            let p = GOLDILOCKS_MODULUS;
            let edges = [0u64, 1, 0xffff_ffff, 0x1_0000_0000, p - 2, p - 1];
            for round in 0..500 {
                let pick = |rng: &mut StdRng| -> u64 {
                    if rng.gen_range(0..4) == 0 {
                        edges[rng.gen_range(0..edges.len() as u64) as usize]
                    } else {
                        Goldilocks::random(rng).value()
                    }
                };
                let a: [u64; 4] = core::array::from_fn(|_| pick(&mut rng));
                let b: [u64; 4] = core::array::from_fn(|_| pick(&mut rng));
                let (add, sub, mul) = unsafe { gl_round(a, b) };
                for i in 0..4 {
                    let (ga, gb) = (Goldilocks::from_u64(a[i]), Goldilocks::from_u64(b[i]));
                    assert_eq!(add[i], (ga + gb).value(), "add round={round} i={i}");
                    assert_eq!(sub[i], (ga - gb).value(), "sub round={round} i={i}");
                    assert_eq!(mul[i], (ga * gb).value(), "mul round={round} i={i}");
                }
            }
        }

        #[test]
        fn babybear_lanes_match_scalar() {
            if !is_x86_feature_detected!("avx2") {
                return;
            }
            let mut rng = StdRng::seed_from_u64(32);
            let edges = [0u32, 1, 2, BABYBEAR_MODULUS - 2, BABYBEAR_MODULUS - 1];
            for round in 0..500 {
                let pick = |rng: &mut StdRng| -> BabyBear {
                    if rng.gen_range(0..4) == 0 {
                        BabyBear::from_u64(u64::from(
                            edges[rng.gen_range(0..edges.len() as u64) as usize],
                        ))
                    } else {
                        BabyBear::random(rng)
                    }
                };
                let fa: [BabyBear; 8] = core::array::from_fn(|_| pick(&mut rng));
                let fb: [BabyBear; 8] = core::array::from_fn(|_| pick(&mut rng));
                let tw: [_; 8] = core::array::from_fn(|i| BabyBear::shoup_prepare(fb[i]));
                let raw = |x: &[BabyBear; 8]| -> [u32; 8] {
                    core::array::from_fn(|i| super::super::bb_word(x[i]))
                };
                let plain: [u32; 8] = core::array::from_fn(|i| (tw[i].aux & 0xffff_ffff) as u32);
                let quot: [u32; 8] = core::array::from_fn(|i| (tw[i].aux >> 32) as u32);
                let (add, sub, mul) = unsafe { bb_round(raw(&fa), raw(&fb), plain, quot) };
                for i in 0..8 {
                    let s = fa[i] + fb[i];
                    let d = fa[i] - fb[i];
                    let m = fa[i] * fb[i];
                    assert_eq!(add[i], super::super::bb_word(s), "add round={round} i={i}");
                    assert_eq!(sub[i], super::super::bb_word(d), "sub round={round} i={i}");
                    assert_eq!(mul[i], super::super::bb_word(m), "mul round={round} i={i}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod avx512_vs_scalar {
        use super::super::avx512;
        use crate::{Field, Goldilocks, PrimeField, GOLDILOCKS_MODULUS};
        use core::arch::x86_64::*;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// One AVX-512 round over eight Goldilocks lanes, returning
        /// (add, sub, mul) lane words.
        #[target_feature(enable = "avx512f,avx512dq")]
        unsafe fn gl_round(a: [u64; 8], b: [u64; 8]) -> ([u64; 8], [u64; 8], [u64; 8]) {
            let va = _mm512_loadu_si512(a.as_ptr().cast());
            let vb = _mm512_loadu_si512(b.as_ptr().cast());
            let mut add = [0u64; 8];
            let mut sub = [0u64; 8];
            let mut mul = [0u64; 8];
            _mm512_storeu_si512(add.as_mut_ptr().cast(), avx512::gl_add(va, vb));
            _mm512_storeu_si512(sub.as_mut_ptr().cast(), avx512::gl_sub(va, vb));
            _mm512_storeu_si512(mul.as_mut_ptr().cast(), avx512::gl_mul(va, vb));
            (add, sub, mul)
        }

        #[test]
        fn goldilocks_lanes_match_scalar() {
            if !is_x86_feature_detected!("avx512f") || !is_x86_feature_detected!("avx512dq") {
                return;
            }
            let mut rng = StdRng::seed_from_u64(33);
            let p = GOLDILOCKS_MODULUS;
            let edges = [0u64, 1, 0xffff_ffff, 0x1_0000_0000, p - 2, p - 1];
            for round in 0..500 {
                let pick = |rng: &mut StdRng| -> u64 {
                    if rng.gen_range(0..4) == 0 {
                        edges[rng.gen_range(0..edges.len() as u64) as usize]
                    } else {
                        Goldilocks::random(rng).value()
                    }
                };
                let a: [u64; 8] = core::array::from_fn(|_| pick(&mut rng));
                let b: [u64; 8] = core::array::from_fn(|_| pick(&mut rng));
                let (add, sub, mul) = unsafe { gl_round(a, b) };
                for i in 0..8 {
                    let (ga, gb) = (Goldilocks::from_u64(a[i]), Goldilocks::from_u64(b[i]));
                    assert_eq!(add[i], (ga + gb).value(), "add round={round} i={i}");
                    assert_eq!(sub[i], (ga - gb).value(), "sub round={round} i={i}");
                    assert_eq!(mul[i], (ga * gb).value(), "mul round={round} i={i}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod ifma_vs_scalar {
        use super::super::ifma::{Fq8, Fr8, Mont8, LANES, LIMBS};
        use crate::{Bn254Fq, Bn254Fr, Field, Mont, MontParams, PrimeField, U256};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// One round over eight lanes: (round trip, add, sub, double, mul,
        /// `a·a`, the `Mont` words through `load_words` / `store_words`),
        /// each back in `Mont<M>`.
        #[target_feature(enable = "avx512f,avx512ifma")]
        unsafe fn round<M: MontParams>(
            a: &[Mont<M>; LANES],
            b: &[Mont<M>; LANES],
        ) -> [[Mont<M>; LANES]; 7] {
            let (va, vb) = (Mont8::from_elems(a), Mont8::from_elems(b));
            let mut words = *a;
            Mont8::<M>::load_words(words.as_ptr().cast()).store_words(words.as_mut_ptr().cast());
            [
                va.to_elems(),
                va.add(vb).to_elems(),
                va.sub(vb).to_elems(),
                va.double().to_elems(),
                va.mul(vb).to_elems(),
                va.mul(va).to_elems(),
                words,
            ]
        }

        /// `a·b` with `a`'s `Mont` word split as it is and `b` in lane
        /// form, joined back by a scatter to reversed lane positions: the
        /// R-form path the NTT runs (the product is `a·b`'s `Mont` word).
        #[target_feature(enable = "avx512f,avx512ifma")]
        unsafe fn word_product<M: MontParams>(
            a: &[Mont<M>; LANES],
            b: &[Mont<M>; LANES],
        ) -> [Mont<M>; LANES] {
            use core::arch::x86_64::_mm512_setr_epi64;
            let va = Mont8::<M>::load_words(a.as_ptr().cast());
            let mut out = [Mont::<M>::ZERO; LANES];
            let rev = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
            va.mul(Mont8::from_elems(b))
                .scatter_words(out.as_mut_ptr().cast(), rev);
            out.reverse();
            out
        }

        /// Every lane operation against `Mont<M>`, at the edges `{0, 1,
        /// p−1, R mod p, p−R}` (`R = 2^256`) and at random values.
        fn lanes_match_scalar<M: MontParams>(seed: u64) {
            let p_minus = |v: U256| M::MODULUS.sbb(&v).0;
            let r = Mont::<M>::ONE.repr();
            let edges = [U256::ZERO, U256::ONE, p_minus(U256::ONE), r, p_minus(r)]
                .map(Mont::<M>::from_u256);
            let mut rng = StdRng::seed_from_u64(seed);
            for round_no in 0..400 {
                let pick = |rng: &mut StdRng| -> Mont<M> {
                    if round_no < 25 || rng.gen_range(0..4) == 0 {
                        edges[rng.gen_range(0..edges.len() as u64) as usize]
                    } else {
                        Mont::random(rng)
                    }
                };
                let a: [Mont<M>; LANES] = core::array::from_fn(|_| pick(&mut rng));
                let b: [Mont<M>; LANES] = core::array::from_fn(|_| pick(&mut rng));
                // SAFETY: the callers detected avx512f and avx512ifma.
                let [back, add, sub, dbl, mul, sqr, words] = unsafe { round(&a, &b) };
                // SAFETY: as above.
                let prod = unsafe { word_product(&a, &b) };
                for l in 0..LANES {
                    let ctx = format!(
                        "{} round={round_no} lane={l} a={} b={}",
                        M::NAME,
                        a[l],
                        b[l]
                    );
                    assert_eq!(back[l].repr(), a[l].repr(), "round trip {ctx}");
                    assert_eq!(words[l].repr(), a[l].repr(), "word round trip {ctx}");
                    assert_eq!(add[l].repr(), (a[l] + b[l]).repr(), "add {ctx}");
                    assert_eq!(sub[l].repr(), (a[l] - b[l]).repr(), "sub {ctx}");
                    assert_eq!(dbl[l].repr(), a[l].double().repr(), "double {ctx}");
                    assert_eq!(mul[l].repr(), (a[l] * b[l]).repr(), "mul {ctx}");
                    assert_eq!(sqr[l].repr(), a[l].square().repr(), "square {ctx}");
                    assert_eq!(prod[l].repr(), (a[l] * b[l]).repr(), "word product {ctx}");
                }
            }
        }

        #[test]
        fn bn254_lanes_match_scalar() {
            if !is_x86_feature_detected!("avx512f") || !is_x86_feature_detected!("avx512ifma") {
                println!("ifma lanes: skipped, the CPU lacks avx512ifma");
                return;
            }
            lanes_match_scalar::<crate::Bn254FqParams>(34);
            println!("ifma lanes: Fq8 ran, every lane equal to Bn254Fq");
            lanes_match_scalar::<crate::Bn254FrParams>(35);
            println!("ifma lanes: Fr8 ran, every lane equal to Bn254Fr");
        }

        #[test]
        fn lane_form_of_one_is_two_to_the_260() {
            assert_eq!(Fq8::to_limbs(&Bn254Fq::ONE), Fq8::ONE);
            assert_eq!(Fq8::from_limbs(&Fq8::ONE), Bn254Fq::ONE);
            assert_eq!(Fq8::to_limbs(&Bn254Fq::ZERO), [0; LIMBS]);
            assert_eq!(Fr8::to_limbs(&Bn254Fr::ONE), Fr8::ONE);
            assert_eq!(Fr8::from_limbs(&Fr8::ONE), Bn254Fr::ONE);
            assert_ne!(Fr8::ONE, Fq8::ONE);
        }
    }
}
