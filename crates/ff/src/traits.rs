//! Field abstractions used throughout the workspace.
//!
//! Three layers:
//!
//! * [`Field`] — plain field arithmetic (add, mul, inverse, …).
//! * [`PrimeField`] — a prime field `F_p` with access to the modulus and a
//!   canonical integer representation.
//! * [`TwoAdicField`] — a prime field whose multiplicative group contains a
//!   large power-of-two subgroup, which is what makes radix-2 NTTs possible.
//!
//! All concrete fields in this crate implement all three layers except
//! [`crate::Bn254Fq`], which has two-adicity 1 and therefore only implements
//! the first two.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::U256;

/// A finite field element.
///
/// Implementors are small `Copy` value types; arithmetic never allocates.
/// All operations are total: `inverse` returns `None` for zero rather than
/// panicking.
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The value `2`.
    const TWO: Self;

    /// Returns `true` if this is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Returns `true` if this is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    /// Squares the element.
    fn square(&self) -> Self {
        *self * *self
    }

    /// Doubles the element.
    fn double(&self) -> Self {
        *self + *self
    }

    /// Multiplicative inverse; `None` if `self` is zero.
    fn inverse(&self) -> Option<Self>;

    /// Exponentiation by a `u64` exponent (square-and-multiply).
    fn pow(&self, mut exp: u64) -> Self {
        let mut base = *self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base = base.square();
            exp >>= 1;
        }
        acc
    }

    /// Exponentiation by a 256-bit exponent.
    fn pow_u256(&self, exp: &U256) -> Self {
        let mut acc = Self::ONE;
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            acc = acc.square();
            if exp.bit(i as usize) {
                acc *= *self;
            }
        }
        acc
    }

    /// Samples a uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// Computes `self * 2^-1`. Provided for radix-2 inverse NTT scaling.
    fn halve(&self) -> Self {
        *self
            * Self::TWO
                .inverse()
                .expect("2 is invertible in odd-characteristic fields")
    }
}

/// A prime field `F_p` with canonical little-endian integer representation.
pub trait PrimeField: Field {
    /// The modulus `p` as a 256-bit integer (zero-extended for small fields).
    const MODULUS: U256;
    /// Number of bits in the modulus.
    const MODULUS_BITS: u32;
    /// A fixed generator of the full multiplicative group `F_p^*`.
    const GENERATOR: Self;
    /// Short human-readable field name (for reports and traces).
    const NAME: &'static str;
    /// Size of a canonical element encoding in bytes.
    const BYTES: usize;

    /// Converts a `u64` into a field element (reduced mod `p`).
    fn from_u64(v: u64) -> Self;

    /// Converts an arbitrary 256-bit integer into a field element (reduced).
    fn from_u256(v: U256) -> Self;

    /// Canonical integer representative in `[0, p)`.
    fn to_canonical_u256(&self) -> U256;

    /// Canonical representative as `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the canonical value does not fit in 64 bits (only possible
    /// for fields larger than 64 bits).
    fn to_canonical_u64(&self) -> u64 {
        let c = self.to_canonical_u256();
        assert!(
            c.limbs()[1] == 0 && c.limbs()[2] == 0 && c.limbs()[3] == 0,
            "canonical value exceeds 64 bits"
        );
        c.limbs()[0]
    }

    /// Converts `i64` into a field element; negative values map to `p - |v|`.
    fn from_i64(v: i64) -> Self {
        if v >= 0 {
            Self::from_u64(v as u64)
        } else {
            -Self::from_u64(v.unsigned_abs())
        }
    }
}

/// A prime field supporting radix-2 NTTs of length up to `2^TWO_ADICITY`.
///
/// Requires [`crate::ShoupField`] so every NTT-capable field offers the
/// Shoup/lazy butterfly hooks (possibly via the canonical fallback) —
/// generic kernels can then use one code path for all fields.
pub trait TwoAdicField: PrimeField + crate::ShoupField {
    /// Largest `s` such that `2^s` divides `p - 1`.
    const TWO_ADICITY: u32;

    /// Returns a primitive `2^bits`-th root of unity.
    ///
    /// The returned roots are *coherent*: `two_adic_generator(k)` is the
    /// square of `two_adic_generator(k + 1)`, so subgroup domains nest.
    ///
    /// # Panics
    ///
    /// Panics if `bits > Self::TWO_ADICITY`.
    fn two_adic_generator(bits: u32) -> Self {
        Self::try_two_adic_generator(bits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::two_adic_generator`], or why the field has no such root
    /// (`bits > Self::TWO_ADICITY`).
    fn try_two_adic_generator(bits: u32) -> Result<Self, String> {
        if bits > Self::TWO_ADICITY {
            return Err(format!(
                "requested 2^{bits}-th root of unity exceeds two-adicity {} of {}",
                Self::TWO_ADICITY,
                Self::NAME
            ));
        }
        let mut g = Self::max_two_adic_generator();
        for _ in bits..Self::TWO_ADICITY {
            g = g.square();
        }
        Ok(g)
    }

    /// A primitive `2^TWO_ADICITY`-th root of unity.
    fn max_two_adic_generator() -> Self {
        // g^((p-1) / 2^s) where g generates F_p^*.
        let mut exp = Self::MODULUS.sbb(&U256::ONE).0;
        for _ in 0..Self::TWO_ADICITY {
            exp = exp.shr1();
        }
        Self::GENERATOR.pow_u256(&exp)
    }
}

#[cfg(test)]
mod tests {
    // Trait-level behaviour is exercised through the concrete field test
    // suites (goldilocks, babybear, bn254_fr) and the shared macro in
    // `field_testsuite.rs`.
}
