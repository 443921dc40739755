//! The PLONK prover and verifier (gate constraints + copy constraints).
//!
//! Protocol rounds:
//!
//! 1. **Wires**: interpolate witness columns `a, b, c` over `H`
//!    (**3 iNTTs, size n**) and commit them (**3 MSMs**).
//! 2. **Permutation**: challenges `β, γ`; build the grand product `z`
//!    (**1 iNTT**, host-side products with one batch inversion) and commit
//!    it (**1 MSM**).
//! 3. **Quotient**: challenge `α`; evaluate the combined constraint
//!
//!    ```text
//!    F = gate + α·[z·Π(wⱼ+β·kⱼ·x+γ) − z(ωx)·Π(wⱼ+β·σⱼ+γ)] + α²·(z−1)·L₀
//!    ```
//!
//!    on the size-`4n` coset (**13 forward coset NTTs, size 4n** — wires,
//!    selectors, σ's, the public-input polynomial and `z`; `z(ωx)` is a
//!    rotation of `z`'s table),
//!    divide by `Z_H`, interpolate `T` (**1 iNTT, size 4n**) and commit it
//!    (**1 MSM**, degree ≤ 3n−4).
//! 4. **Openings**: 13 evaluations at `ζ` batched into one KZG witness
//!    plus the shifted evaluation `z(ωζ)` with its own witness
//!    (**2 MSMs**).
//!
//! This NTT/MSM mix at sizes `n` and `4n` is exactly the workload profile
//! the paper motivates accelerating (experiment E8).
//!
//! The rounds themselves are implemented once, as the sixteen stages of
//! `crate::staged`; [`prove`] drives them in index order. This module
//! holds the keys, the setup, the helpers the stages share, and the
//! verifier.

use unintt_core::RecoveryPolicy;
use unintt_ff::{batch_inverse, Bn254Fr, Field, PrimeField};
use unintt_gpu_sim::FabricError;
use unintt_msm::G1Projective;

use crate::permutation::column_shifts;
use crate::staged::ProofState;
use crate::{Backend, Circuit, EvaluationDomain, Polynomial, Srs, Transcript, Witness};

/// Prover-side preprocessed material.
#[derive(Clone, Debug)]
pub struct ProvingKey {
    circuit: Circuit,
    domain: EvaluationDomain<Bn254Fr>,
    srs: Srs,
    selector_polys: [Polynomial<Bn254Fr>; 5],
    sigma_polys: [Polynomial<Bn254Fr>; 3],
}

/// Verifier-side preprocessed material.
#[derive(Clone, Debug)]
pub struct VerifyingKey {
    srs: Srs,
    domain: EvaluationDomain<Bn254Fr>,
    selector_commits: [G1Projective; 5],
    sigma_commits: [G1Projective; 3],
    num_public_inputs: usize,
}

/// A proof: wire/grand-product/quotient commitments, 13+1 evaluations at
/// `ζ` and `ωζ`, and two KZG opening witnesses.
#[derive(Clone, Debug, PartialEq)]
pub struct Proof {
    /// Commitments to the wire polynomials `A`, `B`, `C`.
    pub wire_commits: [G1Projective; 3],
    /// Commitment to the grand-product polynomial `z`.
    pub z_commit: G1Projective,
    /// Commitment to the quotient polynomial `T`.
    pub quotient_commit: G1Projective,
    /// Evaluations at `ζ`:
    /// `A, B, C, T, q_L, q_R, q_O, q_M, q_C, σ₀, σ₁, σ₂, z`.
    pub evals: [Bn254Fr; 13],
    /// The shifted evaluation `z(ωζ)`.
    pub z_omega_eval: Bn254Fr,
    /// Batched KZG witness for the 13 openings at `ζ`.
    pub opening: G1Projective,
    /// KZG witness for `z` at `ωζ`.
    pub opening_omega: G1Projective,
}

/// Runs the one-time setup for a circuit.
///
/// The SRS trapdoor is sampled from `rng`; per the KZG module docs it is
/// retained inside both keys for pairing-free verification.
pub fn setup<R: rand::Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> (ProvingKey, VerifyingKey) {
    let domain = EvaluationDomain::<Bn254Fr>::new(circuit.log_n());
    // The permutation term reaches degree 4n−4, so the SRS supports 4n.
    let srs = Srs::generate(4 * circuit.n(), rng);

    let columns = circuit.selector_columns();
    let selector_polys: [Polynomial<Bn254Fr>; 5] = columns.map(|col| Polynomial::interpolate(&col));
    let selector_commits: [G1Projective; 5] = [
        srs.commit(&selector_polys[0]),
        srs.commit(&selector_polys[1]),
        srs.commit(&selector_polys[2]),
        srs.commit(&selector_polys[3]),
        srs.commit(&selector_polys[4]),
    ];

    let permutation = circuit.wire_permutation();
    let sigma_polys = permutation.sigma_polynomials(domain.omega());
    let sigma_commits: [G1Projective; 3] = [
        srs.commit(&sigma_polys[0]),
        srs.commit(&sigma_polys[1]),
        srs.commit(&sigma_polys[2]),
    ];

    let vk = VerifyingKey {
        srs: srs.clone(),
        domain: domain.clone(),
        selector_commits,
        sigma_commits,
        num_public_inputs: circuit.num_public_inputs(),
    };
    let pk = ProvingKey {
        circuit: circuit.clone(),
        domain,
        srs,
        selector_polys,
        sigma_polys,
    };
    (pk, vk)
}

impl ProvingKey {
    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.circuit.n()
    }

    pub(crate) fn domain(&self) -> &EvaluationDomain<Bn254Fr> {
        &self.domain
    }

    pub(crate) fn srs(&self) -> &Srs {
        &self.srs
    }

    pub(crate) fn selector_polys(&self) -> &[Polynomial<Bn254Fr>; 5] {
        &self.selector_polys
    }

    pub(crate) fn sigma_polys(&self) -> &[Polynomial<Bn254Fr>; 3] {
        &self.sigma_polys
    }
}

/// Commits through the backend (so MSM time lands on the simulated clock).
pub(crate) fn commit_via(
    backend: &mut Backend,
    srs: &Srs,
    poly: &Polynomial<Bn254Fr>,
) -> G1Projective {
    let coeffs = poly.coeffs();
    assert!(coeffs.len() <= srs.max_len(), "polynomial exceeds SRS");
    backend.msm(coeffs, &srs.powers()[..coeffs.len()])
}

/// Batched coset-NTT through the backend: scales every polynomial's
/// coefficients onto the coset (the cheap host step, charged as pointwise
/// kernels) then submits the whole batch as one transform — sharing
/// passes and collectives under the O5 optimization.
pub(crate) fn coset_ntt_batch_via(
    backend: &mut Backend,
    polys: &[&Polynomial<Bn254Fr>],
    shift: Bn254Fr,
    size: usize,
    policy: &RecoveryPolicy,
) -> Result<Vec<Vec<Bn254Fr>>, FabricError> {
    let mut batch: Vec<Vec<Bn254Fr>> = polys
        .iter()
        .map(|p| {
            let mut values = p.coeffs().to_vec();
            assert!(values.len() <= size, "polynomial does not fit the domain");
            values.resize(size, Bn254Fr::ZERO);
            unintt_ntt::scale_by_powers(&mut values, Bn254Fr::ONE, shift);
            values
        })
        .collect();
    backend.charge_pointwise(size * polys.len(), 1);
    backend.try_ntt_forward_batch(&mut batch, policy)?;
    Ok(batch)
}

/// Evaluations of the Lagrange polynomial `L₀(x) = (xⁿ−1)/(n·(x−1))` on
/// the size-`n·2^log_blowup` coset.
pub(crate) fn lagrange0_on_coset(
    domain: &EvaluationDomain<Bn254Fr>,
    log_blowup: u32,
) -> Vec<Bn254Fr> {
    let n = domain.n();
    let vanishing = domain.vanishing_on_coset(log_blowup);
    let big = EvaluationDomain::<Bn254Fr>::new(domain.log_n() + log_blowup);
    let n_inv = Bn254Fr::from_u64(n as u64).inverse().expect("n nonzero");
    // Coset points x_k = shift·ω₄ₙᵏ as a running product, as the quotient
    // loop generates them.
    let mut x = big.shift();
    let mut denoms: Vec<Bn254Fr> = (0..big.n())
        .map(|_| {
            let d = x - Bn254Fr::ONE;
            x *= big.omega();
            d
        })
        .collect();
    batch_inverse(&mut denoms);
    vanishing
        .iter()
        .zip(&denoms)
        .map(|(&v, &d)| v * n_inv * d)
        .collect()
}

/// Generates a proof that `witness` satisfies `pk`'s circuit (gates and
/// copy constraints): the stages a [`crate::StagedProver`] exposes run in
/// index order on the caller's backend, over the caller's key and witness.
///
/// All heavy operations route through `backend`; a
/// [`crate::Backend::simulated`] backend accumulates the simulated
/// multi-GPU clock while producing a bit-identical proof to the CPU
/// backend. For proving under a fault-recovery policy, see
/// [`crate::StagedProver::resume`].
///
/// # Panics
///
/// Panics if the witness length or public-input count does not match the
/// circuit, or if the backend's fabric faults (no retry policy here).
pub fn prove(
    pk: &ProvingKey,
    witness: &Witness,
    public_inputs: &[Bn254Fr],
    backend: &mut Backend,
) -> Proof {
    let mut state = ProofState::new(pk, witness, public_inputs);
    state
        .resume(pk, witness, backend, &RecoveryPolicy::none())
        .unwrap_or_else(|e| panic!("{e}"));
    state.into_proof().expect("every stage ran")
}

/// The verifier's Fiat–Shamir challenges `[β, γ, α, ζ, v]` for a proof.
fn challenges(vk: &VerifyingKey, proof: &Proof, public_inputs: &[Bn254Fr]) -> [Bn254Fr; 5] {
    let mut transcript = Transcript::new("unintt-plonk-v2");
    transcript.absorb_u64(vk.domain.n() as u64);
    for p in public_inputs {
        transcript.absorb_scalar(*p);
    }
    for w in &proof.wire_commits {
        transcript.absorb_point(w);
    }
    let beta = transcript.challenge();
    let gamma = transcript.challenge();
    transcript.absorb_point(&proof.z_commit);
    let alpha = transcript.challenge();
    transcript.absorb_point(&proof.quotient_commit);
    let zeta = transcript.challenge();
    for e in &proof.evals {
        transcript.absorb_scalar(*e);
    }
    transcript.absorb_scalar(proof.z_omega_eval);
    let v = transcript.challenge();
    [beta, gamma, alpha, zeta, v]
}

/// The 13 commitments the batched opening at ζ covers, in `evals` order.
fn opened_at_zeta(vk: &VerifyingKey, proof: &Proof) -> [G1Projective; 13] {
    [
        proof.wire_commits[0],
        proof.wire_commits[1],
        proof.wire_commits[2],
        proof.quotient_commit,
        vk.selector_commits[0],
        vk.selector_commits[1],
        vk.selector_commits[2],
        vk.selector_commits[3],
        vk.selector_commits[4],
        vk.sigma_commits[0],
        vk.sigma_commits[1],
        vk.sigma_commits[2],
        proof.z_commit,
    ]
}

/// Verifies a proof.
pub fn verify(vk: &VerifyingKey, proof: &Proof, public_inputs: &[Bn254Fr]) -> bool {
    if public_inputs.len() != vk.num_public_inputs {
        return false;
    }
    let n = vk.domain.n();
    let omega = vk.domain.omega();
    let [beta, gamma, alpha, zeta, v] = challenges(vk, proof, public_inputs);

    // The combined identity at ζ.
    let [a, b, c, t, q_l, q_r, q_o, q_m, q_c, s0, s1, s2, z] = proof.evals;
    let z_omega = proof.z_omega_eval;
    let [k0, k1, k2] = column_shifts();

    // PI(ζ) = Σ −pubᵢ·Lᵢ(ζ) with Lᵢ(ζ) = ωⁱ·(ζⁿ−1) / (n·(ζ−ωⁱ)).
    let vanishing_zeta = vk.domain.vanishing_at(zeta);
    let n_inv = match Bn254Fr::from_u64(n as u64).inverse() {
        Some(v) => v,
        None => return false,
    };
    let mut pi_at_zeta = Bn254Fr::ZERO;
    let mut omega_i = Bn254Fr::ONE;
    for &p in public_inputs {
        let Some(denom) = (zeta - omega_i).inverse() else {
            return false; // ζ landed on the subgroup: negligible, reject
        };
        pi_at_zeta += -p * omega_i * vanishing_zeta * n_inv * denom;
        omega_i *= omega;
    }

    let gate = q_l * a + q_r * b + q_o * c + q_m * a * b + q_c + pi_at_zeta;
    let numer = (a + beta * k0 * zeta + gamma)
        * (b + beta * k1 * zeta + gamma)
        * (c + beta * k2 * zeta + gamma);
    let denom = (a + beta * s0 + gamma) * (b + beta * s1 + gamma) * (c + beta * s2 + gamma);
    let perm_term = z * numer - z_omega * denom;

    let vanishing = vanishing_zeta;
    // L₀(ζ) = (ζⁿ−1)/(n·(ζ−1)); a ζ that landed inside H would divide by
    // zero — negligible for a random challenge, but reject rather than
    // panic if it happens.
    let Some(denom_l0) = (Bn254Fr::from_u64(n as u64) * (zeta - Bn254Fr::ONE)).inverse() else {
        return false;
    };
    let l0 = vanishing * denom_l0;
    let boundary = (z - Bn254Fr::ONE) * l0;

    let lhs = gate + alpha * (perm_term + alpha * boundary);
    if lhs != t * vanishing {
        return false;
    }

    // Batched KZG check at ζ over all 13 commitments.
    let commitments = opened_at_zeta(vk, proof);
    if !vk
        .srs
        .batch_verify(&commitments, zeta, &proof.evals, v, &proof.opening)
    {
        return false;
    }

    // Single KZG check for z at ωζ.
    vk.srs.verify(
        &proof.z_commit,
        omega * zeta,
        proof.z_omega_eval,
        &proof.opening_omega,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::{Cell, Column};
    use crate::{cubic_circuit, random_circuit};
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_gpu_sim::presets;

    /// The running-product coset points give the values of `L₀(x) =
    /// (xⁿ−1)/(n·(x−1))` at each `g·ω₄ₙᵏ` formed by a power.
    #[test]
    fn lagrange0_on_coset_matches_pointwise() {
        for log_n in [1u32, 3, 6] {
            let domain = EvaluationDomain::<Bn254Fr>::new(log_n);
            let big = EvaluationDomain::<Bn254Fr>::new(log_n + 2);
            let n = Bn254Fr::from_u64(domain.n() as u64);
            let got = lagrange0_on_coset(&domain, 2);
            assert_eq!(got.len(), big.n());
            for (k, l0) in got.iter().enumerate() {
                let x = big.coset_element(k);
                let want = domain.vanishing_at(x) * (n * (x - Bn254Fr::ONE)).inverse().unwrap();
                assert_eq!(*l0, want, "log_n={log_n} k={k}");
            }
        }
    }

    #[test]
    fn cubic_proof_roundtrip_cpu() {
        let mut rng = StdRng::seed_from_u64(1);
        let (circuit, witness, _y) = cubic_circuit(Bn254Fr::from_u64(3));
        assert!(circuit.is_satisfied(&witness));
        let (pk, vk) = setup(&circuit, &mut rng);
        let mut backend = Backend::cpu();
        let proof = prove(&pk, &witness, &[_y], &mut backend);
        assert!(verify(&vk, &proof, &[_y]));
        // The proof must not verify against a different public output.
        assert!(!verify(&vk, &proof, &[_y + Bn254Fr::ONE]));
    }

    #[test]
    fn random_circuit_proof_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let (circuit, witness) = random_circuit(60, &mut rng);
        assert!(!circuit.copies().is_empty(), "random circuits are wired");
        let (pk, vk) = setup(&circuit, &mut rng);
        let mut backend = Backend::cpu();
        let proof = prove(&pk, &witness, &[], &mut backend);
        assert!(verify(&vk, &proof, &[]));
    }

    /// The MSM forms of the two KZG checks give the ladder forms' verdict
    /// on honest proofs and on every single-element tamper of their
    /// inputs: each evaluation ±1, each commitment or witness plus `G`.
    #[test]
    fn kzg_checks_agree_with_the_ladder_oracle() {
        let g = G1Projective::generator();
        for log_n in 3..=7u32 {
            let mut rng = StdRng::seed_from_u64(40 + u64::from(log_n));
            let (circuit, witness) = random_circuit(1 << log_n, &mut rng);
            let (pk, vk) = setup(&circuit, &mut rng);
            let proof = prove(&pk, &witness, &[], &mut Backend::cpu());
            let [_, _, _, zeta, v] = challenges(&vk, &proof, &[]);
            let omega_zeta = vk.domain.omega() * zeta;
            let srs = &vk.srs;
            let batch = |c: &[G1Projective; 13], e: &[Bn254Fr; 13], w: &G1Projective| {
                let verdict = srs.batch_verify(c, zeta, e, v, w);
                assert_eq!(
                    verdict,
                    srs.batch_verify_ladder(c, zeta, e, v, w),
                    "2^{log_n}"
                );
                verdict
            };
            let single = |c: &G1Projective, y: Bn254Fr, w: &G1Projective| {
                let verdict = srs.verify(c, omega_zeta, y, w);
                assert_eq!(verdict, srs.verify_ladder(c, omega_zeta, y, w), "2^{log_n}");
                verdict
            };
            let (c, e, w) = (opened_at_zeta(&vk, &proof), proof.evals, proof.opening);
            assert!(batch(&c, &e, &w));
            for i in 0..13 {
                for delta in [Bn254Fr::ONE, -Bn254Fr::ONE] {
                    let mut e = e;
                    e[i] += delta;
                    assert!(!batch(&c, &e, &w), "eval {i}");
                }
                let mut c = c;
                c[i] += g;
                assert!(!batch(&c, &e, &w), "commitment {i}");
            }
            assert!(!batch(&c, &e, &(w + g)));

            let (c, y, w) = (proof.z_commit, proof.z_omega_eval, proof.opening_omega);
            assert!(single(&c, y, &w));
            assert!(!single(&c, y + Bn254Fr::ONE, &w));
            assert!(!single(&c, y - Bn254Fr::ONE, &w));
            assert!(!single(&(c + g), y, &w));
            assert!(!single(&c, y, &(w + g)));
        }
    }

    #[test]
    fn copy_constraint_violation_rejected() {
        // A witness that satisfies every *gate* but breaks the wiring must
        // be rejected — the whole point of the permutation argument.
        let mut rng = StdRng::seed_from_u64(3);
        let mut circuit = Circuit::new(vec![crate::Gate::noop(); 4]);
        circuit.connect(Cell::new(Column::A, 0), Cell::new(Column::A, 1));
        let witness = circuit.pad_witness(crate::Witness {
            a: vec![Bn254Fr::from_u64(1), Bn254Fr::from_u64(2)], // 1 ≠ 2!
            b: vec![Bn254Fr::ZERO; 2],
            c: vec![Bn254Fr::ZERO; 2],
        });
        assert!(!circuit.is_satisfied(&witness), "wiring is broken");

        let (pk, vk) = setup(&circuit, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prove(&pk, &witness, &[], &mut Backend::cpu())
        }));
        // An Err means the quotient-degree debug assert fired: also a fail.
        if let Ok(proof) = result {
            assert!(!verify(&vk, &proof, &[]));
        }
    }

    #[test]
    fn invalid_gate_witness_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let (circuit, mut witness) = random_circuit(20, &mut rng);
        witness.b[3] += Bn254Fr::ONE;
        let (pk, vk) = setup(&circuit, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prove(&pk, &witness, &[], &mut Backend::cpu())
        }));
        if let Ok(proof) = result {
            assert!(!verify(&vk, &proof, &[]));
        }
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let (circuit, witness) = random_circuit(20, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        let proof = prove(&pk, &witness, &[], &mut Backend::cpu());
        assert!(verify(&vk, &proof, &[]));

        let mut bad = proof.clone();
        bad.evals[0] += Bn254Fr::ONE;
        assert!(!verify(&vk, &bad, &[]));

        let mut bad = proof.clone();
        bad.z_omega_eval += Bn254Fr::ONE;
        assert!(!verify(&vk, &bad, &[]));

        let mut bad = proof.clone();
        bad.z_commit = bad.z_commit.double();
        assert!(!verify(&vk, &bad, &[]));

        let mut bad = proof.clone();
        bad.opening_omega = G1Projective::identity();
        assert!(!verify(&vk, &bad, &[]));

        let mut bad = proof;
        bad.quotient_commit = bad.quotient_commit.double();
        assert!(!verify(&vk, &bad, &[]));
    }

    #[test]
    fn simulated_backend_produces_identical_proof() {
        let mut rng = StdRng::seed_from_u64(6);
        let (circuit, witness) = random_circuit(60, &mut rng); // n = 64
        let (pk, vk) = setup(&circuit, &mut rng);

        let mut cpu = Backend::cpu();
        let cpu_proof = prove(&pk, &witness, &[], &mut cpu);

        let mut sim = Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
        let sim_proof = prove(&pk, &witness, &[], &mut sim);

        assert_eq!(cpu_proof, sim_proof, "backends must agree bit-for-bit");
        assert!(verify(&vk, &sim_proof, &[]));

        let report = sim.report();
        assert!(report.ntt_time_ns > 0.0);
        assert!(report.msm_time_ns > 0.0);
        // 3 wire iNTT + 1 z iNTT + 13 coset NTT + 1 quotient iNTT.
        assert_eq!(report.ntt_calls, 18);
        // 3 wires + z + quotient + 2 openings.
        assert_eq!(report.msm_calls, 7);
    }

    #[test]
    fn proof_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(7);
        let (circuit, witness) = random_circuit(10, &mut rng);
        let (pk, _vk) = setup(&circuit, &mut rng);
        let mut b1 = Backend::cpu();
        let mut b2 = Backend::cpu();
        assert_eq!(
            prove(&pk, &witness, &[], &mut b1),
            prove(&pk, &witness, &[], &mut b2)
        );
    }
}
