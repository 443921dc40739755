//! KZG polynomial commitments over BN254 G1.
//!
//! Commitments and openings are the real algorithms (structured reference
//! string of `τⁱ·G`, MSM commitments, witness polynomials by synthetic
//! division). The *final pairing check* is replaced by an algebraically
//! identical trapdoor check: the [`Srs`] retains `τ`, and
//! `e(C − y·G, H) = e(W, (τ−z)·H)` is verified as
//! `C − y·G − (τ − z)·W = O` directly in G1, one MSM per opening point.
//! This keeps every prover-side byte and cycle identical to a production
//! KZG while avoiding a from-scratch pairing tower (documented
//! substitution — the prover, which is what the paper measures, never
//! touches the pairing). The SRS powers come from
//! [`unintt_msm::generator_multiples`], a fixed-base table.

use rand::Rng;
use unintt_ff::{Bn254Fr, Field};
use unintt_msm::{generator_multiples, msm, G1Affine, G1Projective};

use crate::Polynomial;

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
    /// The powers are the same points as `max_len` double-and-add ladders.
    pub fn from_trapdoor(max_len: usize, tau: Bn254Fr) -> Self {
        assert!(max_len > 0, "SRS must support at least degree 0");
        Self {
            powers: generator_multiples(&unintt_ff::powers(tau, max_len)),
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
    /// `C − y·G == (τ − z)·W`, as one 3-point MSM.
    pub fn verify(
        &self,
        commitment: &G1Projective,
        z: Bn254Fr,
        y: Bn254Fr,
        witness: &G1Projective,
    ) -> bool {
        self.opening_holds(&[*commitment], &[Bn254Fr::ONE], z, y, witness)
    }

    /// Whether `Σ kᵢ·Cᵢ − y·G − (τ − z)·W` is the identity: the opening of
    /// `C = Σ kᵢ·Cᵢ` at `z` to `y` with witness `W`, as one MSM over the
    /// points in batch-affine form.
    fn opening_holds(
        &self,
        commitments: &[G1Projective],
        weights: &[Bn254Fr],
        z: Bn254Fr,
        y: Bn254Fr,
        witness: &G1Projective,
    ) -> bool {
        let mut points = commitments.to_vec();
        points.extend([G1Projective::generator(), *witness]);
        let mut scalars = weights.to_vec();
        scalars.extend([-y, z - self.tau]);
        msm(&scalars, &G1Projective::batch_to_affine(&points)).is_identity()
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
    /// claimed evaluations: `Σ vⁱ·Cᵢ − (Σ vⁱ·yᵢ)·G − (τ − z)·W = O`, one
    /// MSM over the commitments, `G` and the witness.
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
        let weights = unintt_ff::powers(v, evals.len());
        let y = evals.iter().zip(&weights).map(|(&y, &vi)| y * vi).sum();
        self.opening_holds(commitments, &weights, z, y, witness)
    }
}

/// The ladder forms of the checks: what [`Srs::verify`] and
/// [`Srs::batch_verify`] computed before they became MSMs, kept as their
/// oracle.
#[cfg(test)]
impl Srs {
    pub(crate) fn verify_ladder(
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

    pub(crate) fn batch_verify_ladder(
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
        self.verify_ladder(&combined_c, z, combined_y, witness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::PrimeField;

    fn srs(n: usize) -> Srs {
        Srs::from_trapdoor(n, Bn254Fr::from_u64(123456789))
    }

    #[test]
    fn srs_powers_equal_double_and_add_ladders() {
        use unintt_exec::Executor;
        use unintt_msm::{generator_multiples_with, msm_runs_lanes};

        println!(
            "srs tier: {}",
            if msm_runs_lanes() {
                "IFMA lanes and scalar"
            } else {
                "scalar only (the CPU lacks avx512ifma): lanes not exercised"
            }
        );
        let pools = [1, 2, 8].map(Executor::new);
        let g = G1Projective::generator();
        let random = Bn254Fr::random(&mut StdRng::seed_from_u64(7));
        for tau in [Bn254Fr::ZERO, Bn254Fr::ONE, -Bn254Fr::ONE, random] {
            // Ladders of the longest SRS; every shorter one is a prefix.
            let powers = unintt_ff::powers(tau, 257);
            let ladders: Vec<G1Affine> =
                powers.iter().map(|k| g.mul_scalar(k).to_affine()).collect();
            for max_len in [1usize, 7, 8, 9, 33, 257] {
                let want = &ladders[..max_len];
                assert_eq!(
                    Srs::from_trapdoor(max_len, tau).powers(),
                    want,
                    "{max_len} {tau}"
                );
                for (pool, lanes) in pools.iter().flat_map(|p| [(p, false), (p, true)]) {
                    assert_eq!(
                        generator_multiples_with(pool, &powers[..max_len], lanes),
                        want,
                        "max_len={max_len} tau={tau} threads={} lanes={lanes}",
                        pool.threads()
                    );
                }
            }
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
    fn identity_commitments_verify() {
        // A zero polynomial commits to the identity, and so does the
        // witness of a constant one: both forms of both checks accept.
        let mut rng = StdRng::seed_from_u64(8);
        let s = srs(16);
        let zero = Polynomial::<Bn254Fr>::zero();
        let constant = Polynomial::constant(Bn254Fr::from_u64(9));
        let p = Polynomial::<Bn254Fr>::random(12, &mut rng);
        let (z, v) = (Bn254Fr::random(&mut rng), Bn254Fr::random(&mut rng));
        assert!(s.commit(&zero).is_identity());
        for q in [&zero, &constant] {
            let (y, w) = s.open(q, z);
            assert!(s.verify(&s.commit(q), z, y, &w));
            assert!(s.verify_ladder(&s.commit(q), z, y, &w));
        }
        let polys = [&p, &zero, &constant];
        let commitments: Vec<G1Projective> = polys.iter().map(|q| s.commit(q)).collect();
        let (evals, witness) = s.batch_open(&polys, z, v);
        assert!(s.batch_verify(&commitments, z, &evals, v, &witness));
        assert!(s.batch_verify_ladder(&commitments, z, &evals, v, &witness));
        let (evals, witness) = s.batch_open(&[&zero, &zero], z, v);
        let identities = [G1Projective::identity(); 2];
        assert!(witness.is_identity());
        assert!(s.batch_verify(&identities, z, &evals, v, &witness));
        assert!(s.batch_verify_ladder(&identities, z, &evals, v, &witness));
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
