//! Twiddle-factor tables.
//!
//! A [`TwiddleTable`] caches the powers of a primitive root of unity for a
//! fixed domain size, in both forward and inverse direction, so repeated
//! NTTs over the same domain pay the precomputation once. Tables are cheap
//! to clone conceptually but large, so the NTT contexts share them by
//! reference.

use std::sync::OnceLock;

use unintt_ff::{ShoupTwiddle, TwoAdicField};

/// Precomputed twiddle factors for NTTs of size `2^log_n`.
#[derive(Clone, Debug)]
pub struct TwiddleTable<F: TwoAdicField> {
    log_n: u32,
    /// `omega^j` for `j` in `0..n/2` (forward direction).
    forward: Vec<F>,
    /// `omega^{-j}` for `j` in `0..n/2`.
    inverse: Vec<F>,
    /// Shoup companions of `forward`, built lazily on first plan build.
    forward_shoup: OnceLock<Vec<ShoupTwiddle<F>>>,
    /// Shoup companions of `inverse`.
    inverse_shoup: OnceLock<Vec<ShoupTwiddle<F>>>,
    /// `n^{-1}`, the inverse-NTT output scale.
    n_inv: F,
    omega: F,
    omega_inv: F,
}

impl<F: TwoAdicField> TwiddleTable<F> {
    /// Builds the table for domain size `2^log_n`.
    ///
    /// # Panics
    ///
    /// Panics if `log_n` exceeds the field's two-adicity.
    pub fn new(log_n: u32) -> Self {
        let omega = F::two_adic_generator(log_n);
        let omega_inv = omega.inverse().expect("roots of unity are nonzero");
        let half = 1usize << log_n.saturating_sub(1);

        let mut forward = Vec::with_capacity(half);
        let mut inverse = Vec::with_capacity(half);
        let (mut fw, mut iv) = (F::ONE, F::ONE);
        for _ in 0..half.max(1) {
            forward.push(fw);
            inverse.push(iv);
            fw *= omega;
            iv *= omega_inv;
        }

        let n_inv = F::from_u64(1u64 << log_n)
            .inverse()
            .expect("n is nonzero in a field with adequate two-adicity");

        Self {
            log_n,
            forward,
            inverse,
            forward_shoup: OnceLock::new(),
            inverse_shoup: OnceLock::new(),
            n_inv,
            omega,
            omega_inv,
        }
    }

    /// Domain size exponent.
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Domain size `n = 2^log_n`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// The primitive `n`-th root of unity the table was built from.
    pub fn omega(&self) -> F {
        self.omega
    }

    /// The inverse root `omega^{-1}`.
    pub fn omega_inv(&self) -> F {
        self.omega_inv
    }

    /// `n^{-1}` (inverse-transform scale factor).
    pub fn n_inv(&self) -> F {
        self.n_inv
    }

    /// Forward twiddles: `forward()[j] == omega^j`, `j < n/2`.
    pub fn forward(&self) -> &[F] {
        &self.forward
    }

    /// Inverse twiddles: `inverse()[j] == omega^{-j}`, `j < n/2`.
    pub fn inverse(&self) -> &[F] {
        &self.inverse
    }

    /// Shoup companions of [`Self::forward`], built on first access and
    /// shared thereafter.
    pub fn forward_shoup(&self) -> &[ShoupTwiddle<F>] {
        self.forward_shoup
            .get_or_init(|| self.forward.iter().map(|&w| F::shoup_prepare(w)).collect())
    }

    /// Shoup companions of [`Self::inverse`].
    pub fn inverse_shoup(&self) -> &[ShoupTwiddle<F>] {
        self.inverse_shoup
            .get_or_init(|| self.inverse.iter().map(|&w| F::shoup_prepare(w)).collect())
    }

    /// Returns `omega^e` via table lookup (reducing `e` mod `n`), using
    /// `omega^{n/2} = -1` to halve the table.
    pub fn root_pow(&self, e: usize) -> F {
        let n = self.n();
        let e = e & (n - 1);
        if n == 1 {
            return F::ONE;
        }
        if e < n / 2 {
            self.forward[e]
        } else {
            -self.forward[e - n / 2]
        }
    }

    /// Returns `omega^{-e}` via table lookup (the inverse-direction twin of
    /// [`Self::root_pow`]).
    pub fn root_pow_inv(&self, e: usize) -> F {
        let n = self.n();
        let e = e & (n - 1);
        if n == 1 {
            return F::ONE;
        }
        if e < n / 2 {
            self.inverse[e]
        } else {
            -self.inverse[e - n / 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_ff::{Field, Goldilocks};

    #[test]
    fn table_entries_are_root_powers() {
        let t = TwiddleTable::<Goldilocks>::new(4);
        let w = t.omega();
        for (j, &tw) in t.forward().iter().enumerate() {
            assert_eq!(tw, w.pow(j as u64));
        }
        for (j, &tw) in t.inverse().iter().enumerate() {
            assert_eq!(tw * w.pow(j as u64), Goldilocks::ONE);
        }
    }

    #[test]
    fn n_inv_scales() {
        let t = TwiddleTable::<Goldilocks>::new(5);
        assert_eq!(t.n_inv() * Goldilocks::from(32u64), Goldilocks::ONE);
    }

    #[test]
    fn root_pow_wraps_and_negates() {
        let t = TwiddleTable::<Goldilocks>::new(3);
        let w = t.omega();
        for e in 0..32 {
            assert_eq!(t.root_pow(e), w.pow(e as u64), "e={e}");
        }
    }

    #[test]
    fn root_pow_inv_mirrors_root_pow() {
        let t = TwiddleTable::<Goldilocks>::new(4);
        for e in 0..40 {
            assert_eq!(t.root_pow_inv(e) * t.root_pow(e), Goldilocks::ONE, "e={e}");
        }
    }

    #[test]
    fn shoup_lanes_pair_with_plain_twiddles() {
        use unintt_ff::ShoupField;
        let t = TwiddleTable::<Goldilocks>::new(5);
        let fwd = t.forward_shoup();
        assert_eq!(fwd.len(), t.forward().len());
        let x = Goldilocks::from(123_456_789u64);
        for (tw, &plain) in fwd.iter().zip(t.forward()) {
            assert_eq!(tw.w, plain);
            assert_eq!(Goldilocks::shoup_mul(x, tw), x * plain);
        }
        for (tw, &plain) in t.inverse_shoup().iter().zip(t.inverse()) {
            assert_eq!(tw.w, plain);
        }
    }

    #[test]
    fn size_one_domain() {
        let t = TwiddleTable::<Goldilocks>::new(0);
        assert_eq!(t.n(), 1);
        assert_eq!(t.omega(), Goldilocks::ONE);
        assert_eq!(t.root_pow(0), Goldilocks::ONE);
        assert_eq!(t.root_pow(7), Goldilocks::ONE);
    }
}
