//! # unintt-zkp — end-to-end ZKP proof generation
//!
//! The workload that motivates the paper: a PLONK-style prover whose cost
//! is dominated by NTTs and MSMs, runnable on a CPU backend or on the
//! simulated multi-GPU backend (bit-identical proofs, simulated clock).
//!
//! * [`Polynomial`] / [`EvaluationDomain`] — the prover's algebra layer;
//! * [`Srs`] — KZG commitments (trapdoor-checked, see module docs);
//! * [`Circuit`] / [`Witness`] — PLONK-style gate constraints;
//! * [`setup`] / [`prove`] / [`verify`] — the protocol;
//! * [`Backend`] — CPU vs simulated multi-GPU execution.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use unintt_ff::{Bn254Fr, PrimeField};
//! use unintt_zkp::{cubic_circuit, prove, setup, verify, Backend};
//!
//! // Prove knowledge of x with x³ + x + 5 = y.
//! let mut rng = StdRng::seed_from_u64(7);
//! let (circuit, witness, y) = cubic_circuit(Bn254Fr::from_u64(3));
//! let (pk, vk) = setup(&circuit, &mut rng);
//! let proof = prove(&pk, &witness, &[y], &mut Backend::cpu());
//! assert!(verify(&vk, &proof, &[y]));
//! // The statement is bound: a different claimed y is rejected.
//! assert!(!verify(&vk, &proof, &[y + y]));
//! ```

#![warn(missing_docs)]

mod backend;
mod circuit;
mod domain;
mod kzg;
pub mod permutation;
mod poly;
mod prover;
mod serialize;
mod staged;
mod transcript;

pub use backend::{Backend, BackendReport, CpuBackend, SimulatedBackend};
pub use circuit::{cubic_circuit, random_circuit, Circuit, Gate, Witness};
pub use domain::EvaluationDomain;
pub use kzg::Srs;
pub use permutation::{Cell, Column, WirePermutation};
pub use poly::Polynomial;
pub use prover::{prove, setup, verify, Proof, ProvingKey, VerifyingKey};
pub use serialize::{DecodeError, PROOF_BYTES};
pub use staged::{plonk_stage_descs, StageDesc, StagedProver, PLONK_STAGES};
pub use transcript::Transcript;
