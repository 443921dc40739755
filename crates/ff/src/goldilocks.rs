//! The Goldilocks field `F_p` with `p = 2^64 - 2^32 + 1`.
//!
//! Goldilocks is the workhorse field of modern hash-based ZKP systems
//! (Plonky2, Miden, RISC Zero's recursion layer): elements fit in one
//! machine word, products fit in `u128`, and the special modulus shape
//! admits a branch-light reduction. Its two-adicity of 32 supports NTTs up
//! to length `2^32`.
//!
//! ```
//! use unintt_ff::{Field, Goldilocks, PrimeField};
//!
//! let a = Goldilocks::from_u64(3);
//! let b = Goldilocks::from_u64(5);
//! assert_eq!((a * b).to_canonical_u64(), 15);
//! ```

use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Field, PrimeField, ShoupField, ShoupTwiddle, TwoAdicField, U256};

/// The Goldilocks prime `2^64 - 2^32 + 1`.
pub const GOLDILOCKS_MODULUS: u64 = 0xffff_ffff_0000_0001;

/// `2^32 - 1`, the "epsilon" used by the special-form reduction:
/// `2^64 ≡ EPSILON (mod p)`.
const EPSILON: u64 = 0xffff_ffff;

/// An element of the Goldilocks field, stored canonically in `[0, p)`.
///
/// `#[repr(transparent)]` is a guarantee, not an accident: the packed
/// SIMD kernels (see [`crate::packed`]) reinterpret `&mut [Goldilocks]`
/// as `&mut [u64]` lane buffers, which is only sound with a pinned layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Goldilocks(u64);

impl Goldilocks {
    /// Constructs an element from a canonical value, debug-asserting range.
    ///
    /// Callers must guarantee `v < p`; release builds do not check.
    #[inline]
    pub const fn new_unchecked(v: u64) -> Self {
        debug_assert!(v < GOLDILOCKS_MODULUS);
        Self(v)
    }

    /// Reduces an arbitrary `u128` product into a canonical element.
    ///
    /// Uses `2^64 ≡ 2^32 - 1` and `2^96 ≡ -1 (mod p)`: writing
    /// `x = lo + 2^64·hi_lo + 2^96·hi_hi` the value reduces to
    /// `lo - hi_hi + hi_lo·(2^32 - 1)`.
    #[inline]
    pub fn reduce128(x: u128) -> Self {
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        let hi_lo = hi & EPSILON;
        let hi_hi = hi >> 32;

        let (mut t0, borrow) = lo.overflowing_sub(hi_hi);
        if borrow {
            t0 = t0.wrapping_sub(EPSILON);
        }
        let t1 = hi_lo * EPSILON;
        let (mut res, carry) = t0.overflowing_add(t1);
        if carry {
            res = res.wrapping_add(EPSILON);
        }
        if res >= GOLDILOCKS_MODULUS {
            res -= GOLDILOCKS_MODULUS;
        }
        Self(res)
    }

    /// The canonical `u64` value in `[0, p)`.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.0
    }

    /// The raw lane word. For Goldilocks lanes are always canonical, so
    /// this coincides with [`Self::value`]; it exists so the packed
    /// kernels can speak about lane words uniformly across fields.
    #[inline]
    pub(crate) const fn raw(self) -> u64 {
        self.0
    }
}

impl Add for Goldilocks {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 as u128 + rhs.0 as u128;
        if s >= GOLDILOCKS_MODULUS as u128 {
            s -= GOLDILOCKS_MODULUS as u128;
        }
        Self(s as u64)
    }
}

impl Sub for Goldilocks {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow {
            d.wrapping_add(GOLDILOCKS_MODULUS)
        } else {
            d
        })
    }
}

impl Mul for Goldilocks {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::reduce128(self.0 as u128 * rhs.0 as u128)
    }
}

impl Neg for Goldilocks {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self(GOLDILOCKS_MODULUS - self.0)
        }
    }
}

impl AddAssign for Goldilocks {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Goldilocks {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Goldilocks {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for Goldilocks {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}
impl Product for Goldilocks {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl core::fmt::Display for Goldilocks {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Field for Goldilocks {
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);
    const TWO: Self = Self(2);

    fn inverse(&self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        // Fermat: a^(p-2).
        let inv = self.pow(GOLDILOCKS_MODULUS - 2);
        debug_assert!((*self * inv).is_one());
        Some(inv)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling keeps the distribution exactly uniform.
        loop {
            let v = rng.gen::<u64>();
            if v < GOLDILOCKS_MODULUS {
                return Self(v);
            }
        }
    }
}

impl PrimeField for Goldilocks {
    const MODULUS: U256 = U256::from_u64(GOLDILOCKS_MODULUS);
    const MODULUS_BITS: u32 = 64;
    // 7 generates F_p^*: p - 1 = 2^32 · 3 · 5 · 17 · 257 · 65537 and 7 is a
    // non-residue for each prime-order quotient (checked in tests).
    const GENERATOR: Self = Self(7);
    const NAME: &'static str = "Goldilocks";
    const BYTES: usize = 8;

    #[inline]
    fn from_u64(v: u64) -> Self {
        Self(if v >= GOLDILOCKS_MODULUS {
            v - GOLDILOCKS_MODULUS
        } else {
            v
        })
    }

    fn from_u256(v: U256) -> Self {
        let r = v.reduce(&Self::MODULUS);
        Self(r.limbs()[0])
    }

    fn to_canonical_u256(&self) -> U256 {
        U256::from_u64(self.0)
    }
}

impl TwoAdicField for Goldilocks {
    const TWO_ADICITY: u32 = 32;
}

impl ShoupField for Goldilocks {
    const SHOUP_ACCELERATED: bool = true;
    /// Four 64-bit lanes fill a 256-bit vector register.
    const LANES: usize = 4;

    #[inline]
    fn shoup_prepare(w: Self) -> ShoupTwiddle<Self> {
        // aux = ⌊w·2^64 / p⌋; exact u128 division, paid once per twiddle.
        let aux = (((w.0 as u128) << 64) / (GOLDILOCKS_MODULUS as u128)) as u64;
        ShoupTwiddle { w, aux }
    }

    /// Shoup product with a precomputed twiddle. Unlike [`Goldilocks::mul`]
    /// via [`Goldilocks::reduce128`], the quotient estimate makes the
    /// reduction a single comparison with no data-dependent carry chains.
    ///
    /// `r = a·w − q·p` lies in `[0, 2p)`, which exceeds `2^64` for this
    /// field, so `r` is formed exactly in `u128` and reduced with one
    /// conditional subtraction — the output lane is canonical, hence
    /// Goldilocks lanes are always canonical and `reduce_lane` stays the
    /// identity.
    #[inline]
    fn shoup_mul(a: Self, t: &ShoupTwiddle<Self>) -> Self {
        let q = ((a.0 as u128 * t.aux as u128) >> 64) as u64;
        // q·p with p = 2^64 − 2^32 + 1 strength-reduces to shifts:
        // q·p = (q << 64) − (q << 32) + q, replacing a wide multiply.
        let qp = ((q as u128) << 64) - ((q as u128) << 32) + q as u128;
        let r = a.0 as u128 * t.w.0 as u128 - qp;
        let p = GOLDILOCKS_MODULUS as u128;
        let r = if r >= p { r - p } else { r };
        Self(r as u64)
    }
}

impl From<u64> for Goldilocks {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn slow_mul(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % GOLDILOCKS_MODULUS as u128) as u64
    }

    #[test]
    fn reduce128_matches_naive_mod_on_random_products() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let a = Goldilocks::random(&mut rng);
            let b = Goldilocks::random(&mut rng);
            assert_eq!((a * b).value(), slow_mul(a.value(), b.value()));
        }
    }

    #[test]
    fn reduce128_edge_cases() {
        let edges = [
            0u64,
            1,
            EPSILON,
            EPSILON + 1,
            GOLDILOCKS_MODULUS - 1,
            GOLDILOCKS_MODULUS - 2,
            1 << 32,
            (1 << 32) + 1,
            u64::MAX % GOLDILOCKS_MODULUS,
        ];
        for &a in &edges {
            for &b in &edges {
                let ga = Goldilocks::from_u64(a);
                let gb = Goldilocks::from_u64(b);
                assert_eq!((ga * gb).value(), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn add_sub_wraparound() {
        let max = Goldilocks::from_u64(GOLDILOCKS_MODULUS - 1);
        assert_eq!((max + Goldilocks::ONE).value(), 0);
        assert_eq!(
            (Goldilocks::ZERO - Goldilocks::ONE).value(),
            GOLDILOCKS_MODULUS - 1
        );
    }

    #[test]
    fn generator_is_quadratic_nonresidue() {
        // g^((p-1)/2) must be -1 for the two-adic generator chain to have
        // exact orders.
        let g = Goldilocks::GENERATOR;
        let e = (GOLDILOCKS_MODULUS - 1) / 2;
        assert_eq!(g.pow(e), -Goldilocks::ONE);
    }

    #[test]
    fn generator_order_excludes_odd_prime_factors() {
        // p - 1 = 2^32 * 3 * 5 * 17 * 257 * 65537; g^((p-1)/q) != 1 for each.
        let g = Goldilocks::GENERATOR;
        for q in [3u64, 5, 17, 257, 65537] {
            assert!(!g.pow((GOLDILOCKS_MODULUS - 1) / q).is_one(), "q={q}");
        }
    }

    #[test]
    fn two_adic_generator_orders() {
        for bits in 0..=16u32 {
            let w = Goldilocks::two_adic_generator(bits);
            assert!(w.pow(1 << bits).is_one(), "bits={bits}");
            if bits > 0 {
                assert!(
                    !w.pow(1 << (bits - 1)).is_one(),
                    "bits={bits} order too small"
                );
            }
        }
    }

    #[test]
    fn two_adic_generators_nest() {
        for bits in 1..=20u32 {
            let w = Goldilocks::two_adic_generator(bits);
            assert_eq!(w.square(), Goldilocks::two_adic_generator(bits - 1));
        }
    }

    #[test]
    fn inverse_of_random_elements() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a = Goldilocks::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.inverse().unwrap(), Goldilocks::ONE);
        }
        assert!(Goldilocks::ZERO.inverse().is_none());
    }

    #[test]
    fn from_u256_reduces() {
        let v = U256::from_limbs([GOLDILOCKS_MODULUS, 1, 0, 0]);
        // v = p + 2^64 => v mod p = 2^64 mod p = EPSILON.
        assert_eq!(Goldilocks::from_u256(v).value(), EPSILON);
    }
}
