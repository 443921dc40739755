//! The two host proof workloads, on the CPU backends.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::RecoveryPolicy;
use unintt_ff::Goldilocks;
use unintt_fri::{
    commit_trace, verify_trace, FriConfig, LdeBackend, StagedCommit, TraceCommitment,
};
use unintt_zkp::{
    prove, random_circuit, setup, verify, Backend, Circuit, Proof, ProvingKey, StagedProver,
    VerifyingKey, Witness,
};

use super::{random_vec, Output, Workload};
use crate::spans::Recorder;

/// The layer a proof stage's wall time is charged to, from its
/// `StageDesc.kind`: MSM and NTT stages to those crates, everything else
/// to the prover crate itself.
fn stage_layer(kind: &str, prover: &'static str) -> &'static str {
    match kind {
        "msm" => "msm",
        "ntt" => "ntt",
        _ => prover,
    }
}

/// `plonk-prove`: monolithic `zkp::prove` on `Backend::cpu()` over a
/// seeded 2^9-gate `random_circuit`. On this host `msm` is ≈ 88 % of the
/// wall, BN254 `ntt` ≈ 11 %, `zkp` pointwise and transcript work ≈ 1 %.
/// MSM, Montgomery `ff` and prover-merge work shows here; NTT-kernel work
/// on Goldilocks or BabyBear must not move it.
pub struct PlonkProve {
    pk: ProvingKey,
    vk: VerifyingKey,
    witness: Witness,
    proof: Option<Proof>,
}

impl PlonkProve {
    /// Circuit size exponent.
    pub const LOG_GATES: u32 = 9;

    /// Seeded circuit and witness, SRS and keys.
    pub fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (circuit, witness) = random_circuit(1 << Self::LOG_GATES, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        Self {
            pk,
            vk,
            witness,
            proof: None,
        }
    }

    /// The circuit, for the `zkp::setup` probe.
    pub fn circuit(&self) -> &Circuit {
        self.pk.circuit()
    }

    /// The verifying key, for the `zkp::verify` probe.
    pub fn vk(&self) -> &VerifyingKey {
        &self.vk
    }

    /// The last op's proof.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }
}

impl Workload for PlonkProve {
    fn op(&mut self, rec: &mut Recorder) {
        if !rec.enabled() {
            self.proof = Some(prove(&self.pk, &self.witness, &[], &mut Backend::cpu()));
            return;
        }
        // Span names are `<kind>:<stage>` so the per-kind totals
        // (`zkp.stage_msm_ms`, …) can be summed from the trace.
        let mut staged = rec.span("zkp", "StagedProver::new", |_| {
            StagedProver::new(&self.pk, &self.witness, &[], Backend::cpu())
        });
        for (idx, desc) in staged.stage_descs().iter().enumerate() {
            let name = format!("{}:{}", desc.kind, desc.name);
            rec.span(stage_layer(desc.kind, "zkp"), &name, |_| {
                staged
                    .run_stage(idx, &RecoveryPolicy::none())
                    .expect("the CPU backend has no fabric to fault");
            });
        }
        self.proof = staged.proof().cloned();
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let proof = self.proof.as_ref().ok_or("no proof produced")?;
        if !verify(&self.vk, proof, &[]) {
            return Err("proof does not verify".into());
        }
        Ok(Output {
            digest: proof.content_digest(),
            sim: None,
        })
    }
}

/// `stark-commit`: `fri::commit_trace` on `LdeBackend::cpu()` with
/// `FriConfig::standard()` over a seeded 2^11×8 trace. `fri`
/// hashing, Merkle trees and FRI folding are ≈ 98 % of the wall
/// (`fri-finalize` ≈ 60 %, `trace-merkle` ≈ 37 %), the LDE `ntt` ≈ 1 %.
/// Sponge and Merkle work shows here; MSM work must not.
pub struct StarkCommit {
    columns: Vec<Vec<Goldilocks>>,
    config: FriConfig,
    commitment: Option<TraceCommitment>,
}

impl StarkCommit {
    /// Trace length exponent.
    pub const LOG_TRACE: u32 = 11;
    /// Trace width.
    pub const COLUMNS: usize = 8;

    /// Seeded trace.
    pub fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            columns: (0..Self::COLUMNS)
                .map(|_| random_vec(1 << Self::LOG_TRACE, &mut rng))
                .collect(),
            config: FriConfig::standard(),
            commitment: None,
        }
    }

    /// The FRI configuration, for the `fri` layer probes.
    pub fn config(&self) -> FriConfig {
        self.config
    }

    /// The last op's commitment.
    pub fn commitment(&self) -> Option<&TraceCommitment> {
        self.commitment.as_ref()
    }
}

impl Workload for StarkCommit {
    fn op(&mut self, rec: &mut Recorder) {
        if !rec.enabled() {
            self.commitment = Some(commit_trace(
                &self.columns,
                &self.config,
                &mut LdeBackend::cpu(),
            ));
            return;
        }
        // Spans carry the stage *name*: `StageDesc.kind` labels the FRI
        // query phase `barrier`, which would hide 60 % of the commit.
        let mut staged = rec.span("fri", "StagedCommit::new", |_| {
            StagedCommit::new(self.columns.clone(), self.config, LdeBackend::cpu())
        });
        for (idx, desc) in staged.stage_descs().iter().enumerate() {
            rec.span(stage_layer(desc.kind, "fri"), &desc.name, |_| {
                staged
                    .run_stage(idx, &RecoveryPolicy::none())
                    .expect("the CPU backend has no fabric to fault");
            });
        }
        self.commitment = staged.commitment().cloned();
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let commitment = self.commitment.as_ref().ok_or("no commitment produced")?;
        if !verify_trace(commitment, &self.config) {
            return Err("commitment does not verify".into());
        }
        Ok(Output {
            digest: commitment.content_digest(),
            sim: None,
        })
    }
}
