//! KZG polynomial commitments over BN254 G1.
//!
//! Commitments and openings are the real algorithms (structured reference
//! string of `τⁱ·G`, MSM commitments, witness polynomials by synthetic
//! division). The *final pairing check* is replaced by an algebraically
//! identical trapdoor check: the [`Srs`] retains `τ`, and
//! `e(C − y·G, H) = e(W, (τ−z)·H)` is verified as
//! `C − y·G == (τ − z)·W` directly in G1. This keeps every prover-side
//! byte and cycle identical to a production KZG while avoiding a from-
//! scratch pairing tower (documented substitution — the prover, which is
//! what the paper measures, never touches the pairing).

use rand::Rng;
use unintt_ff::{Bn254Fr, Field, PrimeField};
use unintt_msm::{msm, G1Affine, G1Projective};

use crate::Polynomial;

/// 4-bit digits (nibbles) in a 256-bit scalar.
const NIBBLES: usize = 64;
/// Nonzero values of a nibble.
const NIBBLE_MULTIPLES: usize = 15;

/// `d·16ʷ·G` for every nibble position `w` and digit `d` in `1..=15`, at
/// index `15·w + d − 1`.
fn generator_table() -> Vec<G1Affine> {
    let mut table = Vec::with_capacity(NIBBLES * NIBBLE_MULTIPLES);
    let mut base = G1Projective::generator();
    for _ in 0..NIBBLES {
        let mut multiple = base;
        for _ in 0..NIBBLE_MULTIPLES {
            table.push(multiple);
            multiple += base;
        }
        base = multiple; // 16·base
    }
    G1Projective::batch_to_affine(&table)
}

/// `k·G` from [`generator_table`]: one mixed addition per nonzero nibble.
fn mul_generator(table: &[G1Affine], k: &Bn254Fr) -> G1Projective {
    let bytes = k.to_canonical_u256().to_le_bytes();
    let nibbles = bytes.iter().flat_map(|b| [b & 15, b >> 4]);
    nibbles
        .zip(table.chunks_exact(NIBBLE_MULTIPLES))
        .filter(|(d, _)| *d != 0)
        .fold(G1Projective::identity(), |acc, (d, multiples)| {
            acc.add_affine(&multiples[d as usize - 1])
        })
}

/// A KZG structured reference string with retained trapdoor.
#[derive(Clone, Debug)]
pub struct Srs {
    powers: Vec<G1Affine>,
    tau: Bn254Fr,
}

impl Srs {
    /// Generates an SRS supporting polynomials of degree `< max_len`.
    pub fn generate<R: Rng + ?Sized>(max_len: usize, rng: &mut R) -> Self {
        let tau = Bn254Fr::random(rng);
        Self::from_trapdoor(max_len, tau)
    }

    /// Deterministic SRS from a given trapdoor (tests, reproducibility).
    ///
    /// Every power is a multiple of the one base `G`, so `τⁱ·G` comes from
    /// a fixed-base table (one mixed addition per scalar nibble, no
    /// doublings) and all powers share one field inversion on the way to
    /// affine — the same points as `max_len` double-and-add ladders.
    pub fn from_trapdoor(max_len: usize, tau: Bn254Fr) -> Self {
        assert!(max_len > 0, "SRS must support at least degree 0");
        let table = generator_table();
        let powers: Vec<G1Projective> = unintt_ff::powers(tau, max_len)
            .iter()
            .map(|k| mul_generator(&table, k))
            .collect();
        Self {
            powers: G1Projective::batch_to_affine(&powers),
            tau,
        }
    }

    /// Maximum supported polynomial length (degree + 1).
    pub fn max_len(&self) -> usize {
        self.powers.len()
    }

    /// The `τⁱ·G` points (for custom MSM backends).
    pub fn powers(&self) -> &[G1Affine] {
        &self.powers
    }

    /// The retained trapdoor (pairing-free verification only).
    pub fn trapdoor(&self) -> Bn254Fr {
        self.tau
    }

    /// Commits to a polynomial: `C = Σ cᵢ·τⁱ·G`, one MSM.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is too large for the SRS.
    pub fn commit(&self, poly: &Polynomial<Bn254Fr>) -> G1Projective {
        let coeffs = poly.coeffs();
        assert!(
            coeffs.len() <= self.powers.len(),
            "polynomial length {} exceeds SRS size {}",
            coeffs.len(),
            self.powers.len()
        );
        msm(coeffs, &self.powers[..coeffs.len()])
    }

    /// Opens `poly` at `z`: returns `(y, W)` with `y = poly(z)` and
    /// `W = commit((poly − y)/(x − z))`.
    pub fn open(&self, poly: &Polynomial<Bn254Fr>, z: Bn254Fr) -> (Bn254Fr, G1Projective) {
        let (quotient, y) = poly.divide_by_linear(z);
        (y, self.commit(&quotient))
    }

    /// Verifies an opening via the trapdoor identity
    /// `C − y·G == (τ − z)·W`.
    pub fn verify(
        &self,
        commitment: &G1Projective,
        z: Bn254Fr,
        y: Bn254Fr,
        witness: &G1Projective,
    ) -> bool {
        let g = G1Projective::generator();
        let lhs = *commitment + (-g.mul_scalar(&y));
        let rhs = witness.mul_scalar(&(self.tau - z));
        lhs == rhs
    }

    /// Batched opening of several polynomials at one point: with a
    /// verifier challenge `v`, opens `Σ vⁱ·polyᵢ` with a single witness.
    /// Returns the individual evaluations and the combined witness.
    pub fn batch_open(
        &self,
        polys: &[&Polynomial<Bn254Fr>],
        z: Bn254Fr,
        v: Bn254Fr,
    ) -> (Vec<Bn254Fr>, G1Projective) {
        let evals: Vec<Bn254Fr> = polys.iter().map(|p| p.evaluate(z)).collect();
        let mut combined = Polynomial::zero();
        let mut vi = Bn254Fr::ONE;
        for p in polys {
            combined = combined.add(&p.scale(vi));
            vi *= v;
        }
        let (_, witness) = self.open(&combined, z);
        (evals, witness)
    }

    /// Verifies a batched opening against the individual commitments and
    /// claimed evaluations.
    pub fn batch_verify(
        &self,
        commitments: &[G1Projective],
        z: Bn254Fr,
        evals: &[Bn254Fr],
        v: Bn254Fr,
        witness: &G1Projective,
    ) -> bool {
        if commitments.len() != evals.len() {
            return false;
        }
        let mut combined_c = G1Projective::identity();
        let mut combined_y = Bn254Fr::ZERO;
        let mut vi = Bn254Fr::ONE;
        for (c, &y) in commitments.iter().zip(evals) {
            combined_c += c.mul_scalar(&vi);
            combined_y += y * vi;
            vi *= v;
        }
        self.verify(&combined_c, z, combined_y, witness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn srs(n: usize) -> Srs {
        Srs::from_trapdoor(n, Bn254Fr::from_u64(123456789))
    }

    #[test]
    fn srs_powers_equal_double_and_add_ladders() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = G1Projective::generator();
        for max_len in [1usize, 2, 33] {
            let tau = Bn254Fr::random(&mut rng);
            let ladders: Vec<G1Affine> = unintt_ff::powers(tau, max_len)
                .iter()
                .map(|k| g.mul_scalar(k).to_affine())
                .collect();
            assert_eq!(Srs::from_trapdoor(max_len, tau).powers(), ladders);
        }
        // τ = 0: every power past the first is the identity.
        let zero = Srs::from_trapdoor(3, Bn254Fr::ZERO);
        assert_eq!(zero.powers()[0], G1Affine::generator());
        assert_eq!(zero.powers()[1..], [G1Affine::identity(); 2]);
    }

    #[test]
    fn commit_constant_is_scaled_generator() {
        let s = srs(4);
        let c = s.commit(&Polynomial::constant(Bn254Fr::from_u64(5)));
        assert_eq!(
            c,
            G1Projective::generator().mul_scalar(&Bn254Fr::from_u64(5))
        );
    }

    #[test]
    fn commitment_equals_evaluation_at_tau() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = srs(16);
        let p = Polynomial::<Bn254Fr>::random(10, &mut rng);
        let expected = G1Projective::generator().mul_scalar(&p.evaluate(s.trapdoor()));
        assert_eq!(s.commit(&p), expected);
    }

    #[test]
    fn open_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = srs(16);
        let p = Polynomial::<Bn254Fr>::random(12, &mut rng);
        let z = Bn254Fr::random(&mut rng);
        let (y, w) = s.open(&p, z);
        assert_eq!(y, p.evaluate(z));
        let c = s.commit(&p);
        assert!(s.verify(&c, z, y, &w));
    }

    #[test]
    fn verify_rejects_wrong_evaluation() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = srs(16);
        let p = Polynomial::<Bn254Fr>::random(12, &mut rng);
        let z = Bn254Fr::random(&mut rng);
        let (y, w) = s.open(&p, z);
        let c = s.commit(&p);
        assert!(!s.verify(&c, z, y + Bn254Fr::ONE, &w));
    }

    #[test]
    fn verify_rejects_wrong_commitment() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = srs(16);
        let p = Polynomial::<Bn254Fr>::random(12, &mut rng);
        let q = Polynomial::<Bn254Fr>::random(12, &mut rng);
        let z = Bn254Fr::random(&mut rng);
        let (y, w) = s.open(&p, z);
        assert!(!s.verify(&s.commit(&q), z, y, &w));
    }

    #[test]
    fn batch_open_verify() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = srs(32);
        let polys: Vec<Polynomial<Bn254Fr>> =
            (0..4).map(|_| Polynomial::random(20, &mut rng)).collect();
        let refs: Vec<&Polynomial<Bn254Fr>> = polys.iter().collect();
        let commitments: Vec<G1Projective> = polys.iter().map(|p| s.commit(p)).collect();
        let z = Bn254Fr::random(&mut rng);
        let v = Bn254Fr::random(&mut rng);
        let (evals, witness) = s.batch_open(&refs, z, v);
        assert!(s.batch_verify(&commitments, z, &evals, v, &witness));

        // Tampering with one evaluation breaks it.
        let mut bad = evals.clone();
        bad[2] += Bn254Fr::ONE;
        assert!(!s.batch_verify(&commitments, z, &bad, v, &witness));
    }

    #[test]
    #[should_panic(expected = "exceeds SRS size")]
    fn oversized_polynomial_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = srs(4);
        let p = Polynomial::<Bn254Fr>::random(10, &mut rng);
        let _ = s.commit(&p);
    }
}
