//! The PLONK prover, as sixteen dependency-ordered stages.
//!
//! This module is the only implementation of the protocol rounds — wire
//! interpolation, per-wire MSM commits, transcript barriers, the grand
//! product, the 13-way coset LDE, the quotient, and the openings. Every
//! way of producing a proof is a *schedule* over these stages:
//!
//! * [`crate::prove`] runs them in index order on the caller's backend,
//!   borrowing key and witness (the monolithic entry point);
//! * [`StagedProver`] owns its inputs so a DAG scheduler can run
//!   *independent* stages concurrently (the three wire commits; the
//!   z-commit MSM against the quotient LDE NTT batch; the two opening
//!   MSMs) and interleave stages of different proofs on shared hardware;
//! * [`StagedProver::resume`] runs whatever is not done yet, in index
//!   order, under a [`RecoveryPolicy`] — fault-tolerant proving.
//!
//! Proof bytes do not depend on the schedule:
//!
//! * every transcript interaction happens in a stage on the totally
//!   ordered barrier chain (stages 0 → 4 → 7 → 11 → 12), so challenges
//!   β, γ, α, ζ, v are drawn from the same transcript state no matter
//!   how the surrounding compute stages interleave;
//! * all NTT-machine work sits on one dependency chain
//!   (0 → 5 → 8 → 9 → 12 → 13), so the simulated NTT clock sees the
//!   same kernel sequence under every schedule;
//! * MSM stages are data-independent of each other and commute on the
//!   simulated MSM machine without changing any proof byte.
//!
//! A stage that fails with a transient [`FabricError`] leaves the prover
//! state untouched and may simply be re-run: only the failed stage (and
//! the stages that depend on it) replay, never the whole proof. The
//! prover object *is* the checkpoint.

use unintt_core::RecoveryPolicy;
use unintt_ff::{batch_inverse, Bn254Fr, Field, TwoAdicField};
use unintt_gpu_sim::FabricError;
use unintt_msm::G1Projective;

use crate::permutation::column_shifts;
use crate::prover::{commit_via, Proof, ProvingKey};
use crate::prover::{coset_ntt_batch_via, lagrange0_on_coset};
use crate::{Backend, Polynomial, Transcript, Witness};

/// One node of a proof-stage DAG: a display name, a coarse resource kind
/// (`"ntt"`, `"msm"`, `"pointwise"`, `"hash"`, `"fold"` or `"barrier"`)
/// and the indices of the stages that must complete first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageDesc {
    /// Human-readable stage name (stable across runs; used in traces).
    pub name: String,
    /// Resource-kind tag used for scheduling and time attribution.
    pub kind: &'static str,
    /// Indices of stages this one depends on.
    pub deps: Vec<usize>,
}

/// Number of stages in the PLONK proof DAG.
pub const PLONK_STAGES: usize = 16;

/// The fixed PLONK proof DAG as `(name, kind, deps)` rows (see the module
/// docs for why the edges are what they are). Every dependency has a
/// smaller index, so index order is a topological order.
const PLONK_DAG: [(&str, &str, &[usize]); PLONK_STAGES] = [
    ("wire-interp", "ntt", &[]),               // 0
    ("wire-commit-a", "msm", &[0]),            // 1
    ("wire-commit-b", "msm", &[0]),            // 2
    ("wire-commit-c", "msm", &[0]),            // 3
    ("round1-barrier", "barrier", &[1, 2, 3]), // 4
    ("grand-product", "ntt", &[4]),            // 5
    ("z-commit", "msm", &[5]),                 // 6
    ("round2-barrier", "barrier", &[6]),       // 7
    // The 13-way coset LDE needs no challenge drawn after β/γ, so it
    // depends on the grand product only — a DAG scheduler overlaps it
    // with the z-commit MSM.
    ("quotient-lde", "ntt", &[5]),          // 8
    ("quotient-ntt", "ntt", &[7, 8]),       // 9
    ("quotient-commit", "msm", &[9]),       // 10
    ("round3-barrier", "barrier", &[10]),   // 11
    ("openings-eval", "pointwise", &[11]),  // 12
    ("opening-commit", "msm", &[12]),       // 13
    ("opening-shift-commit", "msm", &[12]), // 14
    ("finish", "barrier", &[13, 14]),       // 15
];

/// The fixed 16-stage PLONK proof DAG.
pub fn plonk_stage_descs() -> Vec<StageDesc> {
    PLONK_DAG
        .iter()
        .map(|&(name, kind, deps)| StageDesc {
            name: name.to_string(),
            kind,
            deps: deps.to_vec(),
        })
        .collect()
}

/// Everything a proof accumulates between stages. Key, witness and
/// backend are arguments of every call rather than fields, so
/// [`crate::prove`] drives the stages over its caller's borrows while
/// [`StagedProver`] owns all three.
pub(crate) struct ProofState {
    transcript: Transcript,
    pi_poly: Polynomial<Bn254Fr>,
    done: [bool; PLONK_STAGES],

    wire_polys: Option<[Polynomial<Bn254Fr>; 3]>,
    wire_commits: [Option<G1Projective>; 3],
    beta: Option<Bn254Fr>,
    gamma: Option<Bn254Fr>,
    poly_z: Option<Polynomial<Bn254Fr>>,
    z_commit: Option<G1Projective>,
    alpha: Option<Bn254Fr>,
    ldes: Option<Vec<Vec<Bn254Fr>>>,
    poly_t: Option<Polynomial<Bn254Fr>>,
    quotient_commit: Option<G1Projective>,
    zeta: Option<Bn254Fr>,
    evals: Option<[Bn254Fr; 13]>,
    z_omega_eval: Option<Bn254Fr>,
    v: Option<Bn254Fr>,
    opening: Option<G1Projective>,
    opening_omega: Option<G1Projective>,
    proof: Option<Proof>,
}

impl ProofState {
    /// The protocol preamble: the transcript absorbs the domain size and
    /// public inputs, and the public-input polynomial is interpolated
    /// host-side.
    ///
    /// # Panics
    ///
    /// Panics if the witness length or public-input count do not match
    /// the circuit.
    pub(crate) fn new(pk: &ProvingKey, witness: &Witness, public_inputs: &[Bn254Fr]) -> Self {
        let n = pk.circuit().n();
        assert_eq!(witness.len(), n, "witness length must equal circuit size");
        assert_eq!(
            public_inputs.len(),
            pk.circuit().num_public_inputs(),
            "wrong number of public inputs"
        );
        let mut transcript = Transcript::new("unintt-plonk-v2");
        transcript.absorb_u64(n as u64);
        for p in public_inputs {
            transcript.absorb_scalar(*p);
        }
        // PI interpolates −pubᵢ on the first rows (zero elsewhere), so
        // gate + PI vanishes on the PI rows exactly when the a-wire
        // carries the public values.
        let pi_poly = {
            let mut evals = vec![Bn254Fr::ZERO; n];
            for (e, &p) in evals.iter_mut().zip(public_inputs) {
                *e = -p;
            }
            Polynomial::interpolate(&evals)
        };
        Self {
            transcript,
            pi_poly,
            done: [false; PLONK_STAGES],
            wire_polys: None,
            wire_commits: [None; 3],
            beta: None,
            gamma: None,
            poly_z: None,
            z_commit: None,
            alpha: None,
            ldes: None,
            poly_t: None,
            quotient_commit: None,
            zeta: None,
            evals: None,
            z_omega_eval: None,
            v: None,
            opening: None,
            opening_omega: None,
            proof: None,
        }
    }

    /// Runs one stage against the given inputs; see
    /// [`StagedProver::run_stage`].
    pub(crate) fn run_stage(
        &mut self,
        pk: &ProvingKey,
        witness: &Witness,
        backend: &mut Backend,
        idx: usize,
        policy: &RecoveryPolicy,
    ) -> Result<f64, FabricError> {
        assert!(idx < PLONK_STAGES, "stage index out of range");
        assert!(!self.done[idx], "stage {idx} already completed");
        for &d in PLONK_DAG[idx].2 {
            assert!(self.done[d], "stage {idx} depends on unfinished stage {d}");
        }
        let before = backend.report().total_ns();
        self.execute(pk, witness, backend, idx, policy)?;
        self.done[idx] = true;
        Ok(backend.report().total_ns() - before)
    }

    /// Runs every stage not yet done, in index order; see
    /// [`StagedProver::resume`].
    pub(crate) fn resume(
        &mut self,
        pk: &ProvingKey,
        witness: &Witness,
        backend: &mut Backend,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        for idx in 0..PLONK_STAGES {
            if !self.done[idx] {
                self.run_stage(pk, witness, backend, idx, policy)?;
            }
        }
        Ok(())
    }

    /// The finished proof, once every stage has run.
    pub(crate) fn into_proof(self) -> Option<Proof> {
        self.proof
    }

    fn execute(
        &mut self,
        pk: &ProvingKey,
        witness: &Witness,
        backend: &mut Backend,
        idx: usize,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let n = pk.circuit().n();
        match idx {
            // Round 1: batched wire interpolation.
            0 => {
                let mut wires = [witness.a.clone(), witness.b.clone(), witness.c.clone()];
                backend.try_ntt_inverse_batch(&mut wires, policy)?;
                self.wire_polys = Some(wires.map(Polynomial::new));
            }
            // Three independent wire commitments.
            1..=3 => {
                let w = idx - 1;
                let poly = &self.wire_polys.as_ref().expect("wire-interp done")[w];
                self.wire_commits[w] = Some(commit_via(backend, pk.srs(), poly));
            }
            // Round-1 barrier: absorb the commitments, draw β and γ.
            4 => {
                for w in &self.wire_commits {
                    self.transcript.absorb_point(&w.expect("wire commit done"));
                }
                self.beta = Some(self.transcript.challenge());
                self.gamma = Some(self.transcript.challenge());
            }
            // Round 2: grand product and its interpolation.
            5 => {
                let beta = self.beta.expect("round-1 barrier done");
                let gamma = self.gamma.expect("round-1 barrier done");
                let mut z_evals = pk.circuit().wire_permutation().grand_product(
                    &[&witness.a, &witness.b, &witness.c],
                    pk.domain().omega(),
                    beta,
                    gamma,
                );
                backend.charge_pointwise(n, 8); // products + batch-inverted ratios
                backend.try_ntt_inverse(&mut z_evals, policy)?;
                self.poly_z = Some(Polynomial::new(z_evals));
            }
            6 => {
                let poly_z = self.poly_z.as_ref().expect("grand-product done");
                self.z_commit = Some(commit_via(backend, pk.srs(), poly_z));
            }
            // Round-2 barrier: absorb z, draw α.
            7 => {
                self.transcript
                    .absorb_point(&self.z_commit.expect("z-commit done"));
                self.alpha = Some(self.transcript.challenge());
            }
            // Round 3a: all thirteen coset LDEs (wires, selectors, σ's,
            // PI, z) as one batch. No challenge past β/γ is used here.
            8 => {
                let big_n = n << 2;
                let shift = pk.domain().shift();
                let wire_polys = self.wire_polys.as_ref().expect("wire-interp done");
                let poly_z = self.poly_z.as_ref().expect("grand-product done");
                let lde_inputs: [&Polynomial<Bn254Fr>; 13] = [
                    &wire_polys[0],
                    &wire_polys[1],
                    &wire_polys[2],
                    &pk.selector_polys()[0],
                    &pk.selector_polys()[1],
                    &pk.selector_polys()[2],
                    &pk.selector_polys()[3],
                    &pk.selector_polys()[4],
                    &pk.sigma_polys()[0],
                    &pk.sigma_polys()[1],
                    &pk.sigma_polys()[2],
                    &self.pi_poly,
                    poly_z,
                ];
                self.ldes = Some(coset_ntt_batch_via(
                    backend,
                    &lde_inputs,
                    shift,
                    big_n,
                    policy,
                )?);
            }
            // Round 3b: quotient evaluation on the size-4n coset and its
            // interpolation.
            9 => {
                let beta = self.beta.expect("round-1 barrier done");
                let gamma = self.gamma.expect("round-1 barrier done");
                let alpha = self.alpha.expect("round-2 barrier done");
                let log_blowup = 2u32;
                let big_n = n << log_blowup;
                let blowup = 1usize << log_blowup;
                let shift = pk.domain().shift();

                // The tables are only read, so a failed iNTT leaves them
                // in place for the re-run.
                let ldes = self.ldes.as_ref().expect("quotient-lde done");
                let (ev_a, ev_b, ev_c) = (&ldes[0], &ldes[1], &ldes[2]);
                let (ev_sel, ev_sig) = (&ldes[3..8], &ldes[8..11]);
                let (ev_pi, ev_z) = (&ldes[11], &ldes[12]);

                // Z_H on the coset repeats with period `blowup`: invert
                // one cycle and tile it.
                let mut z_h_inv = pk.domain().vanishing_on_coset(log_blowup);
                z_h_inv.truncate(blowup);
                batch_inverse(&mut z_h_inv);
                let z_h_inv = z_h_inv.repeat(big_n / blowup);
                let l0 = lagrange0_on_coset(pk.domain(), log_blowup);
                // Coset points x_k = shift·ω₄ₙᵏ, generated on the fly.
                let omega_big = Bn254Fr::two_adic_generator(pk.domain().log_n() + log_blowup);
                let [k0, k1, k2] = column_shifts();

                let mut t_evals = Vec::with_capacity(big_n);
                let mut x = shift;
                for k in 0..big_n {
                    let gate = ev_sel[0][k] * ev_a[k]
                        + ev_sel[1][k] * ev_b[k]
                        + ev_sel[2][k] * ev_c[k]
                        + ev_sel[3][k] * ev_a[k] * ev_b[k]
                        + ev_sel[4][k]
                        + ev_pi[k];
                    // z(ωx) on the coset table is a rotation by `blowup`
                    // positions.
                    let z_omega = ev_z[(k + blowup) % big_n];
                    let numer = (ev_a[k] + beta * k0 * x + gamma)
                        * (ev_b[k] + beta * k1 * x + gamma)
                        * (ev_c[k] + beta * k2 * x + gamma);
                    let denom = (ev_a[k] + beta * ev_sig[0][k] + gamma)
                        * (ev_b[k] + beta * ev_sig[1][k] + gamma)
                        * (ev_c[k] + beta * ev_sig[2][k] + gamma);
                    let perm_term = ev_z[k] * numer - z_omega * denom;
                    let boundary = (ev_z[k] - Bn254Fr::ONE) * l0[k];
                    let f = gate + alpha * (perm_term + alpha * boundary);
                    t_evals.push(f * z_h_inv[k]);
                    x *= omega_big;
                }
                backend.charge_pointwise(big_n, 16);

                // Interpolate T from the coset: iNTT then unscale by
                // shift^{-i}.
                backend.try_ntt_inverse(&mut t_evals, policy)?;
                let shift_inv = shift.inverse().expect("generator is nonzero");
                unintt_ntt::scale_by_powers(&mut t_evals, Bn254Fr::ONE, shift_inv);
                backend.charge_pointwise(big_n, 1);
                let poly_t = Polynomial::new(t_evals);
                debug_assert!(
                    poly_t.degree() <= 3 * n || poly_t.is_zero(),
                    "quotient degree {} out of range for n={n} — unsatisfied circuit?",
                    poly_t.degree()
                );
                self.ldes = None; // superseded by the finished quotient
                self.poly_t = Some(poly_t);
            }
            10 => {
                let poly_t = self.poly_t.as_ref().expect("quotient-ntt done");
                self.quotient_commit = Some(commit_via(backend, pk.srs(), poly_t));
            }
            // Round-3 barrier: absorb T, draw ζ.
            11 => {
                self.transcript
                    .absorb_point(&self.quotient_commit.expect("quotient-commit done"));
                self.zeta = Some(self.transcript.challenge());
            }
            // Round 4a: the 13+1 evaluations and the v challenge.
            12 => {
                let zeta = self.zeta.expect("round-3 barrier done");
                let omega = pk.domain().omega();
                let evals = self.opening_polys(pk).map(|p| p.evaluate(zeta));
                for e in &evals {
                    self.transcript.absorb_scalar(*e);
                }
                let z_omega_eval = self
                    .poly_z
                    .as_ref()
                    .expect("grand-product done")
                    .evaluate(omega * zeta);
                self.transcript.absorb_scalar(z_omega_eval);
                backend.charge_pointwise(n, 14);
                self.evals = Some(evals);
                self.z_omega_eval = Some(z_omega_eval);
                self.v = Some(self.transcript.challenge());
            }
            // Round 4b: the batched opening witness at ζ.
            13 => {
                let zeta = self.zeta.expect("round-3 barrier done");
                let v = self.v.expect("openings-eval done");
                let mut combined = Polynomial::zero();
                let mut vi = Bn254Fr::ONE;
                for p in self.opening_polys(pk) {
                    combined = combined.add(&p.scale(vi));
                    vi *= v;
                }
                let (open_quotient, _) = combined.divide_by_linear(zeta);
                backend.charge_pointwise(n, 14);
                self.opening = Some(commit_via(backend, pk.srs(), &open_quotient));
            }
            // Round 4c: the shifted opening witness for z at ωζ.
            14 => {
                let zeta = self.zeta.expect("round-3 barrier done");
                let omega = pk.domain().omega();
                let (open_z_quotient, _) = self
                    .poly_z
                    .as_ref()
                    .expect("grand-product done")
                    .divide_by_linear(omega * zeta);
                self.opening_omega = Some(commit_via(backend, pk.srs(), &open_z_quotient));
            }
            // Final barrier: assemble the proof.
            15 => {
                self.proof = Some(Proof {
                    wire_commits: self.wire_commits.map(|w| w.expect("wire commits done")),
                    z_commit: self.z_commit.expect("z-commit done"),
                    quotient_commit: self.quotient_commit.expect("quotient-commit done"),
                    evals: self.evals.expect("openings-eval done"),
                    z_omega_eval: self.z_omega_eval.expect("openings-eval done"),
                    opening: self.opening.expect("opening-commit done"),
                    opening_omega: self.opening_omega.expect("opening-shift-commit done"),
                });
            }
            _ => unreachable!("stage index checked above"),
        }
        Ok(())
    }

    /// The 13 polynomials opened at ζ, in the protocol's fixed order.
    fn opening_polys<'a>(&'a self, pk: &'a ProvingKey) -> [&'a Polynomial<Bn254Fr>; 13] {
        let wire_polys = self.wire_polys.as_ref().expect("wire-interp done");
        [
            &wire_polys[0],
            &wire_polys[1],
            &wire_polys[2],
            self.poly_t.as_ref().expect("quotient-ntt done"),
            &pk.selector_polys()[0],
            &pk.selector_polys()[1],
            &pk.selector_polys()[2],
            &pk.selector_polys()[3],
            &pk.selector_polys()[4],
            &pk.sigma_polys()[0],
            &pk.sigma_polys()[1],
            &pk.sigma_polys()[2],
            self.poly_z.as_ref().expect("grand-product done"),
        ]
    }
}

/// A PLONK proof as runnable stages that owns its inputs (see module
/// docs).
///
/// Construct with [`StagedProver::new`], then run every stage (in any
/// order consistent with [`plonk_stage_descs`]) via
/// [`StagedProver::run_stage`], or all remaining ones via
/// [`StagedProver::resume`]; the finished [`Proof`] is available from
/// [`StagedProver::proof`] once the final stage completes and is
/// bit-identical to [`crate::prove`] on the same inputs.
pub struct StagedProver {
    pk: ProvingKey,
    witness: Witness,
    backend: Backend,
    state: ProofState,
}

impl StagedProver {
    /// Starts a staged proof over its own copy of key and witness.
    ///
    /// # Panics
    ///
    /// Panics if the witness length or public-input count do not match
    /// the circuit, exactly like [`crate::prove`].
    pub fn new(
        pk: &ProvingKey,
        witness: &Witness,
        public_inputs: &[Bn254Fr],
        backend: Backend,
    ) -> Self {
        Self {
            state: ProofState::new(pk, witness, public_inputs),
            pk: pk.clone(),
            witness: witness.clone(),
            backend,
        }
    }

    /// The stage DAG this prover executes (same for every PLONK proof).
    pub fn stage_descs(&self) -> Vec<StageDesc> {
        plonk_stage_descs()
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        PLONK_STAGES
    }

    /// Whether stage `idx` has completed.
    pub fn stage_done(&self, idx: usize) -> bool {
        self.state.done[idx]
    }

    /// Whether every stage has completed.
    pub fn is_complete(&self) -> bool {
        self.state.done.iter().all(|&d| d)
    }

    /// Total simulated nanoseconds accumulated so far across the
    /// backend's NTT and MSM machines (0 for the CPU backend).
    pub fn sim_total_ns(&self) -> f64 {
        self.backend.report().total_ns()
    }

    /// The finished proof, once [`StagedProver::is_complete`].
    pub fn proof(&self) -> Option<&Proof> {
        self.state.proof.as_ref()
    }

    /// Mutable backend access (to install fault plans in tests).
    pub fn backend_mut(&mut self) -> &mut Backend {
        &mut self.backend
    }

    /// Runs one stage, returning the simulated nanoseconds it charged.
    ///
    /// # Errors
    ///
    /// Propagates any [`FabricError`] that outlives `policy`'s retries;
    /// the stage is left not-done and can be re-run (only the affected
    /// subgraph ever replays — completed stages keep their results).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, already done, or has an
    /// unfinished dependency.
    pub fn run_stage(&mut self, idx: usize, policy: &RecoveryPolicy) -> Result<f64, FabricError> {
        self.state
            .run_stage(&self.pk, &self.witness, &mut self.backend, idx, policy)
    }

    /// Runs every stage not yet done, in index order, and returns the
    /// finished proof. Transient fabric faults are absorbed per `policy`.
    ///
    /// # Errors
    ///
    /// Returns the [`FabricError`] that outlived the policy's retries.
    /// Every stage completed before it keeps its result, so calling
    /// `resume` again (after the operator repairs or degrades the
    /// machine) continues from the failed stage instead of restarting
    /// the proof. All challenges are transcript-derived, so a resumed
    /// proof is bit-identical to an uninterrupted one.
    pub fn resume(&mut self, policy: &RecoveryPolicy) -> Result<&Proof, FabricError> {
        self.state
            .resume(&self.pk, &self.witness, &mut self.backend, policy)?;
        Ok(self.state.proof.as_ref().expect("every stage ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prove, random_circuit, setup, verify};
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_gpu_sim::presets;

    fn run_all(prover: &mut StagedProver, order: &[usize]) {
        let policy = RecoveryPolicy::none();
        for &idx in order {
            prover.run_stage(idx, &policy).expect("fault-free run");
        }
        assert!(prover.is_complete());
    }

    /// A valid topological order that differs from the natural 0..16.
    fn scrambled_order() -> Vec<usize> {
        vec![0, 3, 1, 2, 4, 5, 8, 6, 7, 9, 10, 11, 12, 14, 13, 15]
    }

    #[test]
    fn staged_cpu_matches_monolithic() {
        let mut rng = StdRng::seed_from_u64(21);
        let (circuit, witness) = random_circuit(60, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        let mono = prove(&pk, &witness, &[], &mut Backend::cpu());

        let mut staged = StagedProver::new(&pk, &witness, &[], Backend::cpu());
        run_all(&mut staged, &(0..PLONK_STAGES).collect::<Vec<_>>());
        assert_eq!(staged.proof().unwrap(), &mono);

        let mut scrambled = StagedProver::new(&pk, &witness, &[], Backend::cpu());
        run_all(&mut scrambled, &scrambled_order());
        assert_eq!(scrambled.proof().unwrap(), &mono);
        assert!(verify(&vk, scrambled.proof().unwrap(), &[]));
    }

    #[test]
    fn staged_simulated_matches_monolithic_clock_and_bytes() {
        let mut rng = StdRng::seed_from_u64(22);
        let (circuit, witness) = random_circuit(60, &mut rng);
        let (pk, _vk) = setup(&circuit, &mut rng);
        let mono = prove(&pk, &witness, &[], &mut Backend::cpu());

        let mut sim_mono = Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
        let _ = prove(&pk, &witness, &[], &mut sim_mono);
        let mono_ns = sim_mono.report().total_ns();

        let sim = Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
        let mut staged = StagedProver::new(&pk, &witness, &[], sim);
        let mut per_stage = 0.0;
        let policy = RecoveryPolicy::none();
        for idx in scrambled_order() {
            per_stage += staged.run_stage(idx, &policy).expect("fault-free");
        }
        assert_eq!(staged.proof().unwrap(), &mono, "bytes must match CPU");
        // Any topological order issues the same kernel sequence per
        // machine, so the simulated clock agrees to the bit with the
        // index-order driver, and per-stage deltas tile it.
        assert_eq!(staged.sim_total_ns().to_bits(), mono_ns.to_bits());
        assert!((per_stage - mono_ns).abs() < 1e-6);
    }

    #[test]
    fn stage_retry_replays_only_the_failed_stage() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let mut rng = StdRng::seed_from_u64(23);
        let (circuit, witness) = random_circuit(60, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        let mono = prove(&pk, &witness, &[], &mut Backend::cpu());
        let sim = || Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
        let no_retries = RecoveryPolicy {
            max_retries: 0,
            ..Default::default()
        };

        // Drop the first collective of the quotient LDE batch (stage 8),
        // then of the quotient iNTT (stage 9, which must find the LDE
        // tables it only read still in place): the stage fails once, is
        // re-run, and every earlier stage keeps its state.
        for failing in [8, 9] {
            let mut probe = StagedProver::new(&pk, &witness, &[], sim());
            for idx in 0..failing {
                probe.run_stage(idx, &no_retries).unwrap();
            }
            let seq_before = probe
                .backend_mut()
                .ntt_machine_mut()
                .unwrap()
                .collective_seq();

            let mut staged = StagedProver::new(&pk, &witness, &[], sim());
            staged
                .backend_mut()
                .ntt_machine_mut()
                .unwrap()
                .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                    seq: seq_before,
                    kind: FaultKind::Drop,
                }]));
            for idx in 0..failing {
                staged.run_stage(idx, &no_retries).unwrap();
            }
            let err = staged.run_stage(failing, &no_retries).unwrap_err();
            assert!(err.is_transient(), "dropped collective is transient: {err}");
            assert!(!staged.stage_done(failing), "failed stage stays not-done");
            // Replay just the failed stage; the scripted drop was consumed.
            for idx in failing..PLONK_STAGES {
                staged.run_stage(idx, &no_retries).unwrap();
            }
            assert_eq!(staged.proof().unwrap(), &mono, "stage {failing}");
            assert!(verify(&vk, staged.proof().unwrap(), &[]));
        }
    }
}
