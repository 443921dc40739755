//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the limb-level workhorse behind the 256-bit Montgomery
//! fields ([`crate::Bn254Fr`], [`crate::Bn254Fq`]). Limbs are stored
//! little-endian (`limbs[0]` is least significant). All arithmetic is
//! constant-width; operations that can overflow return a carry/borrow flag
//! instead of panicking so callers can implement modular arithmetic on top.
//!
//! ```
//! use unintt_ff::U256;
//!
//! let a = U256::from_u64(7);
//! let b = U256::from_u64(5);
//! let (sum, carry) = a.adc(&b);
//! assert_eq!(sum, U256::from_u64(12));
//! assert!(!carry);
//! ```

use serde::{Deserialize, Serialize};

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[repr(transparent)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value `0`.
    pub const ZERO: Self = Self([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: Self = Self([1, 0, 0, 0]);
    /// The all-ones value `2^256 - 1`.
    pub const MAX: Self = Self([u64::MAX; 4]);

    /// Creates a `U256` from a single `u64`.
    pub const fn from_u64(v: u64) -> Self {
        Self([v, 0, 0, 0])
    }

    /// Creates a `U256` from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        Self([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Creates a `U256` from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        Self(limbs)
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.0
    }

    /// Returns `true` if the value is zero.
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns `true` if the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Addition with carry-out. Returns `(self + rhs mod 2^256, carry)`.
    ///
    /// The carry stays a `bool` or-ed from the two partial overflows, the
    /// shape the compiler lowers to one `add`/`adc` chain.
    #[inline]
    pub const fn adc(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        let mut i = 0;
        while i < 4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
            i += 1;
        }
        (Self(out), carry)
    }

    /// Subtraction with borrow-out. Returns `(self - rhs mod 2^256, borrow)`.
    #[inline]
    pub const fn sbb(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        let mut i = 0;
        while i < 4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
            i += 1;
        }
        (Self(out), borrow)
    }

    /// Limb-wise select without a branch: `a` where `pick_a`, else `b`.
    /// The modular add/sub below pick on a carry that is a coin flip for
    /// real field elements, so a branch there mispredicts half the time.
    #[inline]
    pub(crate) const fn select(pick_a: bool, a: &Self, b: &Self) -> Self {
        let mask = 0u64.wrapping_sub(pick_a as u64);
        Self([
            (a.0[0] & mask) | (b.0[0] & !mask),
            (a.0[1] & mask) | (b.0[1] & !mask),
            (a.0[2] & mask) | (b.0[2] & !mask),
            (a.0[3] & mask) | (b.0[3] & !mask),
        ])
    }

    /// Full 256×256 → 512-bit multiplication. Returns `(lo, hi)`.
    pub const fn widening_mul(&self, rhs: &Self) -> (Self, Self) {
        let mut w = [0u64; 8];
        let mut i = 0;
        while i < 4 {
            let mut carry = 0u64;
            let mut j = 0;
            while j < 4 {
                let t =
                    (self.0[i] as u128) * (rhs.0[j] as u128) + (w[i + j] as u128) + (carry as u128);
                w[i + j] = t as u64;
                carry = (t >> 64) as u64;
                j += 1;
            }
            w[i + 4] = carry;
            i += 1;
        }
        (
            Self([w[0], w[1], w[2], w[3]]),
            Self([w[4], w[5], w[6], w[7]]),
        )
    }

    /// Modular addition: `(self + rhs) mod modulus`.
    ///
    /// Both inputs must already be reduced below `modulus`, and
    /// `modulus` must have its top bit clear enough that `a + b` fits in
    /// 257 bits (true for all field moduli used in this crate).
    #[inline]
    pub const fn add_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (sum, carry) = self.adc(rhs);
        let (reduced, borrow) = sum.sbb(modulus);
        Self::select(borrow & !carry, &sum, &reduced)
    }

    /// Modular subtraction: `(self - rhs) mod modulus`. Inputs must be reduced.
    #[inline]
    pub const fn sub_mod(&self, rhs: &Self, modulus: &Self) -> Self {
        let (diff, borrow) = self.sbb(rhs);
        diff.adc(&Self::select(borrow, modulus, &Self::ZERO)).0
    }

    /// Doubles the value modulo `modulus`. Input must be reduced.
    #[inline]
    pub const fn double_mod(&self, modulus: &Self) -> Self {
        self.add_mod(self, modulus)
    }

    /// Shifts right by one bit.
    pub const fn shr1(&self) -> Self {
        Self([
            (self.0[0] >> 1) | (self.0[1] << 63),
            (self.0[1] >> 1) | (self.0[2] << 63),
            (self.0[2] >> 1) | (self.0[3] << 63),
            self.0[3] >> 1,
        ])
    }

    /// Returns bit `i` (0 = least significant). Bits at or above 256 read as 0.
    pub const fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (position of highest set bit + 1); 0 for zero.
    pub const fn bits(&self) -> u32 {
        let mut i = 3;
        loop {
            if self.0[i] != 0 {
                return 64 * (i as u32) + (64 - self.0[i].leading_zeros());
            }
            if i == 0 {
                return 0;
            }
            i -= 1;
        }
    }

    /// Little-endian byte encoding.
    pub fn to_le_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Parses a little-endian byte encoding.
    pub fn from_le_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            *limb = u64::from_le_bytes(b);
        }
        Self(limbs)
    }

    /// Compares `self < rhs`.
    pub const fn lt(&self, rhs: &Self) -> bool {
        let (_, borrow) = self.sbb(rhs);
        borrow
    }

    /// Computes `self mod modulus` for an arbitrary (not-yet-reduced) value
    /// via conditional subtraction after binary reduction.
    pub fn reduce(&self, modulus: &Self) -> Self {
        debug_assert!(!modulus.is_zero(), "reduction modulus must be nonzero");
        if self.lt(modulus) {
            return *self;
        }
        // Binary long division: accumulate remainder bit by bit.
        let mut rem = Self::ZERO;
        let nbits = self.bits();
        let mut i = nbits as i64 - 1;
        while i >= 0 {
            // rem = rem * 2 + bit
            let (shifted, _) = rem.adc(&rem);
            rem = shifted;
            if self.bit(i as usize) {
                rem.0[0] |= 1;
            }
            let (sub, borrow) = rem.sbb(modulus);
            if !borrow {
                rem = sub;
            }
            i -= 1;
        }
        rem
    }
}

impl core::fmt::Display for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "0x{:016x}{:016x}{:016x}{:016x}",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl core::fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_basic_and_carry() {
        let (s, c) = U256::from_u64(3).adc(&U256::from_u64(4));
        assert_eq!(s, U256::from_u64(7));
        assert!(!c);

        let (s, c) = U256::MAX.adc(&U256::ONE);
        assert_eq!(s, U256::ZERO);
        assert!(c);
    }

    #[test]
    fn sbb_basic_and_borrow() {
        let (d, b) = U256::from_u64(10).sbb(&U256::from_u64(4));
        assert_eq!(d, U256::from_u64(6));
        assert!(!b);

        let (d, b) = U256::ZERO.sbb(&U256::ONE);
        assert_eq!(d, U256::MAX);
        assert!(b);
    }

    #[test]
    fn carry_chains_match_u128_halves() {
        // Limbs of all-ones, zero and small values next to each other, so
        // carries and borrows start, ripple through and stop in every limb.
        const WORDS: [u64; 5] = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        // The `n`-th of the 5^4 ways to fill four limbs from `WORDS`.
        let limbs = |n: usize| [0, 1, 2, 3].map(|k| WORDS[n / 5usize.pow(k) % 5]);
        let wide = |l: [u64; 4]| {
            (
                l[0] as u128 | (l[1] as u128) << 64,
                l[2] as u128 | (l[3] as u128) << 64,
            )
        };
        for i in 0..5usize.pow(4) {
            for j in (0..5usize.pow(4)).step_by(7) {
                let (a, b) = (U256::from_limbs(limbs(i)), U256::from_limbs(limbs(j)));
                let ((a_lo, a_hi), (b_lo, b_hi)) = (wide(limbs(i)), wide(limbs(j)));

                let (lo, c_lo) = a_lo.overflowing_add(b_lo);
                let (hi, c1) = a_hi.overflowing_add(b_hi);
                let (hi, c2) = hi.overflowing_add(c_lo as u128);
                let (sum, carry) = a.adc(&b);
                assert_eq!((wide(sum.limbs()), carry), ((lo, hi), c1 | c2));

                let (lo, b_lo_out) = a_lo.overflowing_sub(b_lo);
                let (hi, b1) = a_hi.overflowing_sub(b_hi);
                let (hi, b2) = hi.overflowing_sub(b_lo_out as u128);
                let (diff, borrow) = a.sbb(&b);
                assert_eq!((wide(diff.limbs()), borrow), ((lo, hi), b1 | b2));
            }
        }
    }

    #[test]
    fn add_sub_mod_edges() {
        let m = U256::from_limbs([0xfffffffefffffc2f, u64::MAX, u64::MAX, u64::MAX >> 2]);
        let m1 = m.sbb(&U256::ONE).0;
        // Sum exactly the modulus, just under, and nearly twice it.
        assert_eq!(m1.add_mod(&U256::ONE, &m), U256::ZERO);
        assert_eq!(m1.add_mod(&U256::ZERO, &m), m1);
        assert_eq!(m1.add_mod(&m1, &m), m1.sbb(&U256::ONE).0);
        // Difference zero, and a borrow that wraps to the top.
        assert_eq!(m1.sub_mod(&m1, &m), U256::ZERO);
        assert_eq!(U256::ZERO.sub_mod(&U256::ONE, &m), m1);
        assert_eq!(U256::ZERO.sub_mod(&m1, &m), U256::ONE);
        // A modulus with its top bit set: the sum carries out of 256 bits.
        let big = U256::from_limbs([0xfffffffefffffc2f, u64::MAX, u64::MAX, u64::MAX]);
        let big1 = big.sbb(&U256::ONE).0;
        assert_eq!(big1.add_mod(&big1, &big), big1.sbb(&U256::ONE).0);
        assert_eq!(big1.add_mod(&U256::ONE, &big), U256::ZERO);
    }

    #[test]
    fn widening_mul_small() {
        let (lo, hi) = U256::from_u64(1 << 32).widening_mul(&U256::from_u64(1 << 32));
        assert_eq!(lo, U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(hi, U256::ZERO);
    }

    #[test]
    fn widening_mul_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let (lo, hi) = U256::MAX.widening_mul(&U256::MAX);
        assert_eq!(lo, U256::ONE);
        assert_eq!(
            hi,
            U256::from_limbs([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX])
        );
    }

    #[test]
    fn add_sub_mod_roundtrip() {
        let m = U256::from_limbs([0xfffffffefffffc2f, u64::MAX, u64::MAX, u64::MAX]);
        let a = U256::from_limbs([5, 6, 7, 8]);
        let b = U256::from_limbs([9, 10, 11, 12]);
        let s = a.add_mod(&b, &m);
        assert_eq!(s.sub_mod(&b, &m), a);
        assert_eq!(s.sub_mod(&a, &m), b);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::from_limbs([0, 0, 0, 1]).bits(), 193);
        assert!(U256::from_limbs([0, 0, 0, 1]).bit(192));
        assert!(!U256::from_limbs([0, 0, 0, 1]).bit(191));
        assert!(!U256::ONE.bit(300));
    }

    #[test]
    fn shr1_shifts_across_limbs() {
        let v = U256::from_limbs([0, 1, 0, 0]); // 2^64
        assert_eq!(v.shr1(), U256::from_u64(1 << 63));
    }

    #[test]
    fn reduce_matches_manual() {
        let m = U256::from_u64(97);
        let v = U256::from_u64(1000);
        assert_eq!(v.reduce(&m), U256::from_u64(1000 % 97));

        // Large value: 2^255 mod 97. Compute expected with repeated squaring on u64.
        let big = U256::from_limbs([0, 0, 0, 1 << 63]);
        let mut expected = 1u64;
        for _ in 0..255 {
            expected = (expected * 2) % 97;
        }
        assert_eq!(big.reduce(&m), U256::from_u64(expected));
    }

    #[test]
    fn byte_roundtrip() {
        let v = U256::from_limbs([1, 2, 3, 0xdeadbeef]);
        assert_eq!(U256::from_le_bytes(v.to_le_bytes()), v);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(
            U256::ONE.to_string(),
            "0x0000000000000000000000000000000000000000000000000000000000000001"
        );
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(U256::from_u64(2).lt(&U256::from_limbs([1, 1, 0, 0])));
        assert!(!U256::MAX.lt(&U256::ZERO));
        assert!(U256::from_u64(5) < U256::from_u64(6));
    }
}
