//! A uniform front over the stage-decomposed provers: one enum that a
//! scheduler can drive without caring whether the proof underneath is a
//! PLONK proof (`unintt_zkp::StagedProver`) or a STARK trace commitment
//! (`unintt_fri::StagedCommit`).

use unintt_core::RecoveryPolicy;
use unintt_ff::{Bn254Fr, Goldilocks};
use unintt_gpu_sim::{FabricError, Machine, SimTime};
use unintt_zkp::{Backend, Proof, ProvingKey, StagedProver, Witness};

use unintt_fri::{FriConfig, LdeBackend, StagedCommit, TraceCommitment};

use crate::dag::{ProofDag, StageKind, StageNode};

/// One proof being executed stage-by-stage.
pub enum ProofPipeline {
    /// A staged PLONK proof (boxed: a prover holds the full witness and
    /// every intermediate polynomial inline).
    Plonk(Box<StagedProver>),
    /// A staged STARK trace commitment (boxed for the same reason: the
    /// committer carries its FRI config and layer state inline).
    Stark(Box<StagedCommit>),
}

impl ProofPipeline {
    /// Starts a staged PLONK proof (see [`unintt_zkp::StagedProver`]).
    pub fn plonk(
        pk: &ProvingKey,
        witness: &Witness,
        public_inputs: &[Bn254Fr],
        backend: Backend,
    ) -> Self {
        ProofPipeline::Plonk(Box::new(StagedProver::new(
            pk,
            witness,
            public_inputs,
            backend,
        )))
    }

    /// Starts a staged STARK commitment (see [`unintt_fri::StagedCommit`]).
    pub fn stark(columns: Vec<Vec<Goldilocks>>, config: FriConfig, backend: LdeBackend) -> Self {
        ProofPipeline::Stark(Box::new(StagedCommit::new(columns, config, backend)))
    }

    /// The proof's validated stage DAG.
    ///
    /// # Panics
    ///
    /// Panics if a staged prover ever emits an invalid graph — that
    /// would be a bug in this workspace, and the validity unit suite
    /// pins both generators.
    pub fn dag(&self) -> ProofDag {
        let nodes: Vec<StageNode> = match self {
            ProofPipeline::Plonk(p) => p
                .stage_descs()
                .into_iter()
                .map(|d| StageNode {
                    name: d.name,
                    kind: StageKind::from_tag(d.kind).expect("known stage kind"),
                    deps: d.deps,
                })
                .collect(),
            ProofPipeline::Stark(s) => s
                .stage_descs()
                .into_iter()
                .map(|d| StageNode {
                    name: d.name,
                    kind: StageKind::from_tag(d.kind).expect("known stage kind"),
                    deps: d.deps,
                })
                .collect(),
        };
        ProofDag::new(nodes).expect("staged provers emit valid DAGs")
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        match self {
            ProofPipeline::Plonk(p) => p.num_stages(),
            ProofPipeline::Stark(s) => s.num_stages(),
        }
    }

    /// Runs one stage, returning the simulated nanoseconds it charged.
    ///
    /// # Errors
    ///
    /// Propagates any [`FabricError`] that outlives `policy`'s retries;
    /// the stage stays not-done and can be re-run.
    pub fn run_stage(
        &mut self,
        idx: usize,
        policy: &RecoveryPolicy,
    ) -> Result<SimTime, FabricError> {
        match self {
            ProofPipeline::Plonk(p) => p.run_stage(idx, policy),
            ProofPipeline::Stark(s) => s.run_stage(idx, policy),
        }
    }

    /// Total simulated time across the proof's private machines.
    pub fn sim_total(&self) -> SimTime {
        match self {
            ProofPipeline::Plonk(p) => p.sim_total(),
            ProofPipeline::Stark(s) => s.sim_total(),
        }
    }

    /// Stable 64-bit fingerprint of the finished output (`None` until
    /// complete). Equal to the monolithic path's digest by construction.
    pub fn output_digest(&self) -> Option<u64> {
        match self {
            ProofPipeline::Plonk(p) => p.proof().map(Proof::content_digest),
            ProofPipeline::Stark(s) => s.commitment().map(TraceCommitment::content_digest),
        }
    }

    /// The finished PLONK proof, if this is a complete PLONK pipeline.
    pub fn proof(&self) -> Option<&Proof> {
        match self {
            ProofPipeline::Plonk(p) => p.proof(),
            ProofPipeline::Stark(_) => None,
        }
    }

    /// The finished trace commitment, if this is a complete STARK
    /// pipeline.
    pub fn commitment(&self) -> Option<&TraceCommitment> {
        match self {
            ProofPipeline::Plonk(_) => None,
            ProofPipeline::Stark(s) => s.commitment(),
        }
    }

    /// The proof's primary simulated machine (the NTT machine for PLONK,
    /// the LDE machine for STARK); `None` on CPU backends. Used by tests
    /// to install fault plans.
    pub fn machine_mut(&mut self) -> Option<&mut Machine> {
        match self {
            ProofPipeline::Plonk(p) => p.backend_mut().ntt_machine_mut(),
            ProofPipeline::Stark(s) => s.backend_mut().machine_mut(),
        }
    }
}
