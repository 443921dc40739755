//! Coset NTTs and low-degree extension (LDE).
//!
//! ZKP provers rarely evaluate polynomials on the "plain" subgroup `H`:
//! quotient computations need evaluations on a *coset* `g·H` (so the
//! vanishing polynomial is invertible), and FRI/STARK commitments need the
//! *low-degree extension* — the same polynomial evaluated on a domain
//! `blowup` times larger. Both reduce to scaling coefficients by powers of
//! the shift before a standard NTT.

use unintt_ff::{PrimeField, TwoAdicField};

use crate::{scale_by_powers, Ntt};

/// Evaluates, in place, the polynomial with coefficients `coeffs` on the
/// coset `shift·H` where `H` is the size-`n` subgroup:
/// output `i` is `p(shift·ωⁱ)`.
///
/// # Panics
///
/// Panics if `coeffs.len()` differs from the context size.
pub fn coset_ntt<F: TwoAdicField>(ntt: &Ntt<F>, coeffs: &mut [F], shift: F) {
    assert_eq!(coeffs.len(), ntt.n(), "input length mismatch");
    // p(shift·x) has coefficients c_i · shiftⁱ.
    scale_by_powers(coeffs, F::ONE, shift);
    ntt.forward(coeffs);
}

/// Inverse of [`coset_ntt`]: recovers coefficients from evaluations on
/// `shift·H`.
///
/// # Panics
///
/// Panics if `values.len()` differs from the context size, or if `shift`
/// is zero.
pub fn coset_intt<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F], shift: F) {
    assert_eq!(values.len(), ntt.n(), "input length mismatch");
    // Reject a zero shift before the buffer is touched.
    let shift_inv = shift.inverse().expect("coset shift must be nonzero");
    ntt.inverse(values);
    scale_by_powers(values, F::ONE, shift_inv);
}

/// Low-degree extension: given evaluations of a degree-`< n` polynomial on
/// the size-`n` subgroup, returns its evaluations on the size-`n·2^log_blowup`
/// coset `shift·H'`.
///
/// This is the STARK/FRI workhorse: interpolate (iNTT), zero-pad, coset-NTT
/// at the larger size.
///
/// # Panics
///
/// Panics if `evals.len()` is not a power of two or the blown-up size
/// exceeds the field two-adicity.
pub fn low_degree_extension<F: TwoAdicField>(evals: &[F], log_blowup: u32, shift: F) -> Vec<F> {
    let n = evals.len();
    assert!(n.is_power_of_two(), "length {n} is not a power of two");
    let log_n = n.trailing_zeros();
    let small = Ntt::<F>::new(log_n);
    let big = Ntt::<F>::new(log_n + log_blowup);

    let mut coeffs = evals.to_vec();
    small.inverse(&mut coeffs);
    coeffs.resize(n << log_blowup, F::ZERO);
    coset_ntt(&big, &mut coeffs, shift);
    coeffs
}

/// The standard coset shift: the field's multiplicative generator, which is
/// guaranteed to lie outside every proper power-of-two subgroup.
pub fn standard_shift<F: PrimeField>() -> F {
    F::GENERATOR
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{horner_eval, Field, Goldilocks, PrimeField};

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    #[test]
    fn coset_ntt_evaluates_on_shifted_points() {
        let log_n = 4u32;
        let ntt = Ntt::<Goldilocks>::new(log_n);
        let coeffs = random_vec(1 << log_n, 1);
        let shift = standard_shift::<Goldilocks>();

        let mut evals = coeffs.clone();
        coset_ntt(&ntt, &mut evals, shift);

        let omega = ntt.table().omega();
        for (i, &e) in evals.iter().enumerate() {
            let x = shift * omega.pow(i as u64);
            assert_eq!(e, horner_eval(&coeffs, x), "i={i}");
        }
    }

    #[test]
    fn coset_roundtrip() {
        let ntt = Ntt::<Goldilocks>::new(6);
        let coeffs = random_vec(64, 2);
        let shift = Goldilocks::from_u64(3);
        let mut data = coeffs.clone();
        coset_ntt(&ntt, &mut data, shift);
        coset_intt(&ntt, &mut data, shift);
        assert_eq!(data, coeffs);
    }

    #[test]
    fn coset_intt_rejects_zero_shift_before_touching_the_buffer() {
        let ntt = Ntt::<Goldilocks>::new(4);
        let input = random_vec(16, 6);
        let mut data = input.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            coset_intt(&ntt, &mut data, Goldilocks::ZERO)
        }));
        assert!(result.is_err(), "a zero shift must panic");
        assert_eq!(data, input);
    }

    #[test]
    fn coset_with_unit_shift_is_plain_ntt() {
        let ntt = Ntt::<Goldilocks>::new(5);
        let coeffs = random_vec(32, 3);
        let mut plain = coeffs.clone();
        ntt.forward(&mut plain);
        let mut coset = coeffs.clone();
        coset_ntt(&ntt, &mut coset, Goldilocks::ONE);
        assert_eq!(plain, coset);
    }

    #[test]
    fn lde_agrees_with_direct_evaluation() {
        let log_n = 3u32;
        let n = 1usize << log_n;
        let coeffs = random_vec(n, 4);

        // Evaluate on H first.
        let small = Ntt::<Goldilocks>::new(log_n);
        let mut evals = coeffs.clone();
        small.forward(&mut evals);

        let shift = standard_shift::<Goldilocks>();
        let extended = low_degree_extension(&evals, 2, shift);
        assert_eq!(extended.len(), n * 4);

        let big_omega = Ntt::<Goldilocks>::new(log_n + 2).table().omega();
        for (i, &e) in extended.iter().enumerate() {
            let x = shift * big_omega.pow(i as u64);
            assert_eq!(e, horner_eval(&coeffs, x), "i={i}");
        }
    }

    #[test]
    fn lde_preserves_degree_bound() {
        // Extending then re-interpolating must give back the original
        // coefficients padded with zeros.
        let coeffs = random_vec(8, 5);
        let small = Ntt::<Goldilocks>::new(3);
        let mut evals = coeffs.clone();
        small.forward(&mut evals);

        let shift = standard_shift::<Goldilocks>();
        let mut extended = low_degree_extension(&evals, 1, shift);
        let big = Ntt::<Goldilocks>::new(4);
        coset_intt(&big, &mut extended, shift);
        assert_eq!(&extended[..8], &coeffs[..]);
        assert!(extended[8..].iter().all(|c| c.is_zero()));
    }
}
