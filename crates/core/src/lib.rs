//! # unintt-core — the UniNTT multi-GPU NTT engine
//!
//! Reproduction of the core contribution of *"Accelerating Number Theoretic
//! Transform with Multi-GPU Systems for Efficient Zero Knowledge Proof"*
//! (ASPLOS 2025): a recursive, overhead-free decomposition that lets every
//! level of the GPU hierarchy (warp / thread block / GPU / multi-GPU) run
//! the same NTT computation at its own scale, with a uniform set of
//! optimizations instantiated per level.
//!
//! * [`UniNttEngine`] — the paper's engine, running on the
//!   [`unintt_gpu_sim::Machine`] simulator (functional data movement,
//!   analytical timing).
//! * [`FourStepMultiGpuEngine`] — the conventional transpose-based
//!   multi-GPU baseline (3 all-to-alls, standalone pack/twiddle kernels).
//! * [`single_gpu`] — the strong one-GPU configuration, the headline
//!   speedup's denominator.
//! * [`DecompositionPlan`] / [`UniNttOptions`] — the planner and the O1–O5
//!   ablation switches.
//! * [`Sharded`] / [`ShardLayout`] — distributed vectors with their layout
//!   carried in the type.
//!
//! ```
//! use unintt_core::{Sharded, ShardLayout, UniNttEngine, UniNttOptions};
//! use unintt_ff::{Field, Goldilocks};
//! use unintt_gpu_sim::{presets, FieldSpec, Machine};
//!
//! // A 2^12-point NTT on four simulated A100s.
//! let cfg = presets::a100_nvlink(4);
//! let engine = UniNttEngine::<Goldilocks>::new(
//!     12, &cfg, UniNttOptions::full(), FieldSpec::goldilocks());
//! let mut machine = Machine::new(cfg, FieldSpec::goldilocks());
//!
//! let input = vec![Goldilocks::ONE; 1 << 12];
//! let mut data = Sharded::distribute(&input, 4, ShardLayout::Cyclic);
//! engine.forward(&mut machine, &mut data);
//! println!("simulated time: {:.1} µs", machine.max_clock_ns() / 1e3);
//! ```

#![warn(missing_docs)]

mod baseline;
mod cluster;
mod decompose;
mod engine;
mod opts;
pub mod profiles;
mod recovery;
mod schedule;
mod sharded;

pub use baseline::{single_gpu, FourStepMultiGpuEngine};
pub use cluster::{Cluster, ClusterNttEngine, ClusterRunReport, NetworkConfig};
pub use decompose::{DecompositionPlan, LOG_WARP_TILE, MAX_LOG_BLOCK_TILE};
pub use engine::UniNttEngine;
pub use opts::{
    comm_mode_override, set_comm_mode_override, CommMode, UniNttOptions, MAX_STREAMS_PER_LEASE,
};
pub use recovery::RecoveryPolicy;
pub use sharded::{ShardLayout, Sharded};
