//! # unintt-fri — hash-based polynomial commitments over Goldilocks
//!
//! The second ZKP workload of the reproduction: the transparent
//! (no-trusted-setup) commitment stack used by STARK provers, whose cost
//! is dominated by exactly the NTTs UniNTT accelerates:
//!
//! * [`hash`] — an algebraic sponge over Goldilocks (Poseidon-shaped,
//!   performance-grade; see the module docs for the substitution note),
//!   one permutation body run scalar or eight sponges to a register;
//! * [`MerkleTree`] / [`MerklePath`] — row-wise commitments to a flat
//!   row-major matrix, each level hashed in fixed bands on the pool;
//! * [`fri`] — the FRI low-degree test (commit, fold, query) with
//!   extension-field challenges;
//! * [`open_trace`] / [`verify_opening`] — DEEP openings of committed
//!   traces at out-of-domain extension points;
//! * [`commit_trace`] / [`verify_trace`] — the LDE → Merkle → FRI
//!   pipeline, runnable on the CPU or on the simulated multi-GPU
//!   [`LdeBackend`] with bit-identical outputs, and
//!   [`projected_commit_time`], its charges alone for traces too large
//!   to commit;
//! * [`prove_stark`] / [`verify_stark`] — a complete small STARK: AIR
//!   constraints, composition polynomial, next-row spot checks.
//!
//! Every prover here commits its trace with one tree, built by the
//! stages of [`staged`]: a leaf holds the LDE rows the first FRI round
//! folds together. FRI's one query loop opens it through an input hook
//! at each query's first FRI leaf index (the STARK one more leaf, for the
//! next rows); each verifier maps the opened rows to layer-0 values, and
//! FRI checks them against its first opened leaf.
//!
//! ```
//! use unintt_ff::{Field, Goldilocks, PrimeField};
//! use unintt_fri::{commit_trace, verify_trace, FriConfig, LdeBackend};
//!
//! let config = FriConfig::standard();
//! let column: Vec<Goldilocks> = (0..64).map(Goldilocks::from_u64).collect();
//! let commitment = commit_trace(&[column], &config, &mut LdeBackend::cpu());
//! assert!(verify_trace(&commitment, &config));
//! ```

#![warn(missing_docs)]

pub mod deep;
pub mod fri;
pub mod hash;
mod merkle;
mod pipeline;
pub mod staged;
pub mod stark;

pub use deep::{open_trace, verify_opening, DeepOpeningProof};
pub use fri::{embed, FriConfig, FriProof, FriQueryProof};
pub use hash::{compress, hash_elements, permutations_for, Digest};
pub use merkle::{MerklePath, MerkleTree};
pub use pipeline::{commit_trace, verify_trace, LdeBackend, SimulatedLde, TraceCommitment};
pub use staged::{projected_commit_time, StagedCommit};
pub use stark::{prove_stark, verify_stark, Air, Boundary, FibonacciAir, StarkProof};
