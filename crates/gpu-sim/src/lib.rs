//! # unintt-gpu-sim — functional + analytical multi-GPU simulator
//!
//! The hardware substitute for the UniNTT reproduction (this environment
//! has no GPUs). Two guarantees:
//!
//! * **Functional**: data really moves. Per-device shards are transformed
//!   by ordinary Rust closures; collectives really permute bytes between
//!   shards. Every simulated NTT is bit-checked against the CPU reference.
//! * **Analytical**: time comes from a roofline cost model
//!   ([`CostModel`]) driven by [`KernelProfile`] footprints and α–β
//!   collective models, parameterized by datasheet presets
//!   ([`presets`]), and each charge is rounded once to the integer clock
//!   ([`SimTime`], whole picoseconds). Ratios (compute : memory :
//!   interconnect) are what the reproduction relies on, not absolute
//!   numbers.
//!
//! ```
//! use unintt_gpu_sim::{presets, FieldSpec, KernelProfile, Machine};
//!
//! let mut machine = Machine::new(presets::a100_nvlink(4), FieldSpec::goldilocks());
//! let mut shards: Vec<Vec<u64>> = (0..4).map(|d| vec![d as u64; 1024]).collect();
//!
//! // A compute phase on all four GPUs…
//! machine.parallel_phase(&mut shards, |ctx, _id, shard| {
//!     let mut profile = KernelProfile::named("double");
//!     profile.field_adds = shard.len() as u64;
//!     profile.global_bytes_read = (shard.len() * 8) as u64;
//!     profile.global_bytes_written = (shard.len() * 8) as u64;
//!     ctx.launch(&profile);
//!     for v in shard.iter_mut() { *v *= 2; }
//! });
//!
//! // …then an all-to-all over NVLink.
//! machine.all_to_all(&mut shards, 8).unwrap();
//! assert!(machine.max_clock_ns() > 0.0);
//! ```
//!
//! Collectives return `Result<_, FabricError>`: argument bugs and
//! injected faults (see [`FaultPlan`]) surface as typed errors instead of
//! panics, so recovery layers can retry, repair, or re-plan.

#![warn(missing_docs)]

mod collective;
mod config;
mod cost;
mod device;
mod fabric;
mod fault;
mod machine;
mod patterns;
pub mod presets;
mod stream;
mod timeline;
mod trace;

pub use collective::{OverlapCompute, OverlapReport};
pub use config::{FieldSpec, GpuConfig, InterconnectConfig, MachineConfig, Topology};
pub use cost::{CostModel, KernelCost};
pub use device::{DeviceCtx, DeviceState, KernelProfile};
pub use fabric::{alpha_beta_all_to_all_ns, FabricGraph, Link};
pub use fault::{CollectiveReport, FabricError, FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use machine::Machine;
pub use patterns::{
    bank_conflict_degree, coalescing_efficiency, ntt_butterflies, warp_ntt_shuffles, SHARED_BANKS,
};
pub use stream::{InFlight, InterferenceModel, ResourceClass, StreamSet};
pub use timeline::{Timeline, TraceEvent, MAX_EVENTS};
pub use trace::{Category, Level, Stats, TimeByCategory};
pub use unintt_telemetry::SimTime;
