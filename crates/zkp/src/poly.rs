//! Dense univariate polynomials in coefficient form.
//!
//! The prover's algebra layer: addition, NTT-backed multiplication,
//! evaluation, and the two divisions SNARKs live on — by a linear factor
//! `(x − z)` (KZG openings) and by the vanishing polynomial `xⁿ − 1`
//! (quotient computation).

use unintt_ff::TwoAdicField;
use unintt_ntt::{poly_mul_ntt, Ntt};

/// A dense polynomial; `coeffs[i]` is the coefficient of `xⁱ`.
///
/// The representation is kept *normalized*: no trailing zero coefficients
/// (the zero polynomial has an empty vector).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial<F: TwoAdicField> {
    coeffs: Vec<F>,
}

impl<F: TwoAdicField> Polynomial<F> {
    /// Creates a polynomial, trimming trailing zeros.
    pub fn new(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Self { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Self::new(vec![c])
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree; the zero polynomial reports 0 by convention.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Coefficients, lowest-degree first (no trailing zeros).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Horner evaluation at `x`.
    pub fn evaluate(&self, x: F) -> F {
        self.coeffs
            .iter()
            .rev()
            .fold(F::ZERO, |acc, &c| acc * x + c)
    }

    /// Interpolates from evaluations on the size-`2^log_n` subgroup.
    ///
    /// # Panics
    ///
    /// Panics if `evals.len()` is not a power of two within the field's
    /// two-adicity.
    pub fn interpolate(evals: &[F]) -> Self {
        assert!(
            evals.len().is_power_of_two(),
            "evaluation count must be a power of two"
        );
        let ntt = Ntt::<F>::new(evals.len().trailing_zeros());
        let mut coeffs = evals.to_vec();
        ntt.inverse(&mut coeffs);
        Self::new(coeffs)
    }

    /// Evaluates on the size-`n` subgroup (`n` ≥ `degree + 1`, power of 2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is too small for the degree.
    pub fn evaluate_on_domain(&self, n: usize) -> Vec<F> {
        assert!(n.is_power_of_two(), "domain size must be a power of two");
        assert!(
            self.coeffs.len() <= n,
            "polynomial of degree {} does not fit domain of size {n}",
            self.degree()
        );
        let ntt = Ntt::<F>::new(n.trailing_zeros());
        let mut values = self.coeffs.clone();
        values.resize(n, F::ZERO);
        ntt.forward(&mut values);
        values
    }

    /// Adds two polynomials.
    pub fn add(&self, rhs: &Self) -> Self {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut out = vec![F::ZERO; n];
        for (o, &c) in out.iter_mut().zip(&self.coeffs) {
            *o = c;
        }
        for (o, &c) in out.iter_mut().zip(&rhs.coeffs) {
            *o += c;
        }
        Self::new(out)
    }

    /// Subtracts `rhs`.
    pub fn sub(&self, rhs: &Self) -> Self {
        self.add(&rhs.scale(-F::ONE))
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, k: F) -> Self {
        Self::new(self.coeffs.iter().map(|&c| c * k).collect())
    }

    /// Polynomial product via NTT convolution.
    pub fn mul(&self, rhs: &Self) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::zero();
        }
        Self::new(poly_mul_ntt(&self.coeffs, &rhs.coeffs))
    }

    /// Divides by the linear factor `(x − z)`, returning `(quotient,
    /// remainder)` with `remainder == self.evaluate(z)` (synthetic
    /// division).
    pub fn divide_by_linear(&self, z: F) -> (Self, F) {
        if self.is_zero() {
            return (Self::zero(), F::ZERO);
        }
        // High-to-low synthetic division: q_{i-1} = c_i + z·q_i.
        let n = self.coeffs.len();
        let mut quotient = vec![F::ZERO; n - 1];
        let mut running = F::ZERO;
        for i in (1..n).rev() {
            running = self.coeffs[i] + running * z;
            quotient[i - 1] = running;
        }
        let remainder = self.coeffs[0] + running * z;
        (Self::new(quotient), remainder)
    }

    /// Divides by the vanishing polynomial `xⁿ − 1` of the size-`n`
    /// subgroup, returning the quotient.
    ///
    /// # Panics
    ///
    /// Panics if the division is not exact (i.e. the polynomial does not
    /// vanish on the subgroup) or `n` is zero.
    pub fn divide_by_vanishing(&self, n: usize) -> Self {
        assert!(n > 0, "domain size must be positive");
        if self.is_zero() {
            return Self::zero();
        }
        // For f = q·(xⁿ−1) + r: process coefficients from the top,
        // folding c_{i+n} into c_i.
        let mut work = self.coeffs.clone();
        let deg = work.len() - 1;
        if deg < n {
            panic!("polynomial of degree {deg} does not vanish on a domain of size {n}");
        }
        let mut quotient = vec![F::ZERO; work.len() - n];
        for i in (n..work.len()).rev() {
            let q = work[i];
            quotient[i - n] = q;
            work[i] = F::ZERO;
            work[i - n] += q;
        }
        assert!(
            work.iter().all(|c| c.is_zero()),
            "polynomial does not vanish on the size-{n} subgroup"
        );
        Self::new(quotient)
    }

    /// Samples a random polynomial of exactly the given `degree`.
    pub fn random<R: rand::Rng + ?Sized>(degree: usize, rng: &mut R) -> Self {
        let mut coeffs: Vec<F> = (0..=degree).map(|_| F::random(rng)).collect();
        if coeffs[degree].is_zero() {
            coeffs[degree] = F::ONE;
        }
        Self { coeffs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks, PrimeField};

    type P = Polynomial<Goldilocks>;

    fn gl(v: u64) -> Goldilocks {
        Goldilocks::from_u64(v)
    }

    #[test]
    fn normalization_trims_zeros() {
        let p = P::new(vec![gl(1), gl(2), Goldilocks::ZERO, Goldilocks::ZERO]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs().len(), 2);
        assert!(P::new(vec![Goldilocks::ZERO; 4]).is_zero());
    }

    #[test]
    fn evaluate_matches_horner() {
        // p(x) = 3 + 2x + x² at x=4: 3 + 8 + 16 = 27.
        let p = P::new(vec![gl(3), gl(2), gl(1)]);
        assert_eq!(p.evaluate(gl(4)), gl(27));
        assert_eq!(P::zero().evaluate(gl(9)), Goldilocks::ZERO);
    }

    #[test]
    fn interpolate_evaluate_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = P::random(13, &mut rng);
        let evals = p.evaluate_on_domain(16);
        assert_eq!(P::interpolate(&evals), p);
    }

    #[test]
    fn mul_matches_evaluation() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = P::random(5, &mut rng);
        let b = P::random(7, &mut rng);
        let prod = a.mul(&b);
        assert_eq!(prod.degree(), 12);
        for x in [gl(0), gl(1), gl(12345)] {
            assert_eq!(prod.evaluate(x), a.evaluate(x) * b.evaluate(x));
        }
    }

    #[test]
    fn add_sub_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = P::random(4, &mut rng);
        let b = P::random(6, &mut rng);
        let x = gl(77);
        assert_eq!(a.add(&b).evaluate(x), a.evaluate(x) + b.evaluate(x));
        assert_eq!(a.sub(&b).evaluate(x), a.evaluate(x) - b.evaluate(x));
        assert_eq!(a.scale(gl(5)).evaluate(x), a.evaluate(x) * gl(5));
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn linear_division_is_exact_on_roots() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = P::random(9, &mut rng);
        let z = gl(42);
        let (q, r) = p.divide_by_linear(z);
        assert_eq!(r, p.evaluate(z));
        // p(x) = q(x)(x - z) + r
        let reconstructed = q.mul(&P::new(vec![-z, gl(1)])).add(&P::constant(r));
        assert_eq!(reconstructed, p);
    }

    #[test]
    fn linear_division_of_constant() {
        let p = P::constant(gl(7));
        let (q, r) = p.divide_by_linear(gl(3));
        assert!(q.is_zero());
        assert_eq!(r, gl(7));
    }

    #[test]
    fn vanishing_division_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        // Build f = q·(x⁸ − 1) and recover q.
        let q = P::random(10, &mut rng);
        let vanishing = {
            let mut c = vec![Goldilocks::ZERO; 9];
            c[0] = -Goldilocks::ONE;
            c[8] = Goldilocks::ONE;
            P::new(c)
        };
        let f = q.mul(&vanishing);
        assert_eq!(f.divide_by_vanishing(8), q);
    }

    #[test]
    #[should_panic(expected = "does not vanish")]
    fn vanishing_division_inexact_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let f = P::random(10, &mut rng);
        let _ = f.divide_by_vanishing(8);
    }

    #[test]
    fn degree_zero_cases() {
        assert_eq!(P::zero().degree(), 0);
        assert_eq!(P::constant(gl(1)).degree(), 0);
        assert!(P::zero().mul(&P::constant(gl(3))).is_zero());
    }
}
