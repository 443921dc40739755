//! The recursive, overhead-free decomposition planner.
//!
//! UniNTT's central idea: an NTT of size `2^L` factors recursively so that
//! **every level of the multi-GPU hierarchy runs the same computation at a
//! different scale** — local sub-NTTs, a fused twiddle multiplication, and
//! one exchange through that level's communication medium:
//!
//! | level     | local transform size    | exchange medium     | realised by                                   |
//! |-----------|-------------------------|---------------------|-----------------------------------------------|
//! | cluster   | `2^(L - log T)` per node| network all-to-all  | `Local → Exchange → Outer`, cluster walk      |
//! | multi-GPU | `2^(L - log G)` per GPU | NCCL all-to-all     | `Local → Exchange → Outer`, fabric walk       |
//! | device    | block tiles             | global memory pass  | `device_passes`, charged inside `Local`       |
//! | block     | warp tiles              | shared memory       | `log_block_tile`, inside a pass's profile     |
//! | warp      | registers (radix 2/4)   | `shfl_xor`          | `log_warp_tile`, inside a pass's profile      |
//!
//! The plan is "overhead-free" because no level materializes a standalone
//! transpose: each exchange *is* the addressing of the adjacent level's
//! loads/stores. [`DecompositionPlan`] records the radix assigned to each
//! level. The top two rows are walked phase by phase (`schedule.rs`: the
//! cluster's `Local` step is a whole fabric walk); the bottom three are one
//! kernel profile per pass, read from the plan by `profiles.rs`.

use serde::{Deserialize, Serialize};
use unintt_gpu_sim::MachineConfig;

/// Base-2 log of the warp width (32 lanes).
pub const LOG_WARP_TILE: u32 = 5;

/// Largest block tile the planner will use, as a log. 2^11 = 2048 elements
/// keeps several blocks resident per SM even for 32-byte fields.
pub const MAX_LOG_BLOCK_TILE: u32 = 11;

/// How a size-`2^log_n` NTT maps onto the hierarchy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecompositionPlan {
    /// Total transform size, log2.
    pub log_n: u32,
    /// GPUs used, log2 (the multi-GPU radix).
    pub log_g: u32,
    /// Per-GPU local transform size, log2 (`log_n - log_g`).
    pub log_m: u32,
    /// Radix (log2) of each global-memory pass on one GPU, outermost first.
    /// Sums to `log_m`. Each entry is at most [`MAX_LOG_BLOCK_TILE`].
    pub device_passes: Vec<u32>,
    /// Shared-memory tile, log2 (block-level radix).
    pub log_block_tile: u32,
    /// Register tile, log2 (warp-level radix).
    pub log_warp_tile: u32,
}

impl DecompositionPlan {
    /// Plans a size-`2^log_n` transform on `machine`.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_plan`] returns an error.
    pub fn plan(log_n: u32, machine: &MachineConfig, elem_bytes: usize) -> Self {
        Self::try_plan(log_n, machine, elem_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plans a size-`2^log_n` transform on `machine`, or says why it
    /// cannot: a non-power-of-two GPU count, a per-GPU share smaller than
    /// one element per GPU (`log_n < log_g`), or a shard whose working
    /// set exceeds device memory.
    pub fn try_plan(
        log_n: u32,
        machine: &MachineConfig,
        elem_bytes: usize,
    ) -> Result<Self, String> {
        let g = machine.num_gpus;
        if !g.is_power_of_two() {
            return Err(format!("UniNTT requires a power-of-two GPU count, got {g}"));
        }
        let log_g = g.trailing_zeros();
        if log_n < log_g {
            return Err(format!(
                "transform of size 2^{log_n} cannot be split across 2^{log_g} GPUs"
            ));
        }
        let log_m = log_n - log_g;

        // Capacity: the engine keeps input + output + exchange staging
        // resident, ~4x the shard footprint.
        let shard_bytes = (1u128 << log_m) * elem_bytes.max(1) as u128;
        let working_set = 4 * shard_bytes;
        if working_set > machine.gpu.memory_bytes as u128 {
            return Err(format!(
                "shard of 2^{log_m} x {elem_bytes}B elements needs ~{working_set} bytes per GPU, \
                 exceeding the {}'s {} bytes of device memory",
                machine.gpu.name, machine.gpu.memory_bytes
            ));
        }

        // Block tile: as many elements as fit in shared memory with double
        // buffering, capped so several blocks stay resident per SM.
        let shared_elems = machine.gpu.shared_mem_per_block as usize / (2 * elem_bytes.max(1));
        let log_block_tile = shared_elems
            .next_power_of_two()
            .trailing_zeros()
            .saturating_sub(1)
            .clamp(LOG_WARP_TILE, MAX_LOG_BLOCK_TILE)
            .min(log_m.max(1));

        // Device passes: split log_m into near-equal chunks of at most
        // log_block_tile. Balanced chunks minimize the largest pass radix
        // (the paper's planner does the same to keep tiles uniform).
        let device_passes = split_balanced(log_m, log_block_tile);

        Ok(Self {
            log_n,
            log_g,
            log_m,
            device_passes,
            log_block_tile,
            log_warp_tile: LOG_WARP_TILE.min(log_m.max(1)),
        })
    }

    /// Number of global-memory passes per GPU.
    pub fn num_device_passes(&self) -> usize {
        self.device_passes.len()
    }

    /// Per-GPU shard length.
    pub fn shard_len(&self) -> usize {
        1 << self.log_m
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        1 << self.log_g
    }

    /// Total transform size.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// Default pipeline depth for the overlapped multi-GPU exchange.
    ///
    /// Sized from the per-pair chunk (`2^(log_m - log_g)` elements): one
    /// pipeline chunk per ~1024 elements, clamped to `[2, 8]`. The floor
    /// of 2 keeps the pipeline engaged even for small exchanges — chunk
    /// transfers cost no extra launches or latency serialization in the
    /// model, and a depth-1 "pipeline" would silently degenerate to the
    /// blocking schedule, making simulated time step discontinuously at
    /// the size where the depth first exceeds 1. Large exchanges saturate
    /// around 8 chunks, where the unhidden head/tail slices are already
    /// under an eighth of the blocking wire time. A per-pair chunk of a
    /// single element cannot be sliced, so it stays whole.
    pub fn default_comm_chunks(&self) -> u32 {
        let c_len = 1u64 << self.log_m.saturating_sub(self.log_g);
        if c_len < 2 {
            return 1;
        }
        (c_len / 1024).clamp(2, 8) as u32
    }
}

/// Splits `total` into the fewest parts each ≤ `max_part`, as evenly as
/// possible. `split_balanced(20, 11) == [10, 10]`, not `[11, 9]`.
fn split_balanced(total: u32, max_part: u32) -> Vec<u32> {
    if total == 0 {
        return vec![0];
    }
    let max_part = max_part.max(1);
    let parts = total.div_ceil(max_part);
    let base = total / parts;
    let extra = total % parts;
    (0..parts)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_gpu_sim::presets;

    #[test]
    fn split_balanced_properties() {
        assert_eq!(split_balanced(20, 11), vec![10, 10]);
        assert_eq!(split_balanced(11, 11), vec![11]);
        assert_eq!(split_balanced(0, 11), vec![0]);
        assert_eq!(split_balanced(23, 11), vec![8, 8, 7]);
        for total in 1..40u32 {
            for max in 1..=12u32 {
                let parts = split_balanced(total, max);
                assert_eq!(parts.iter().sum::<u32>(), total);
                assert!(parts.iter().all(|&p| p <= max && p > 0));
                let lo = *parts.iter().min().unwrap();
                let hi = *parts.iter().max().unwrap();
                assert!(hi - lo <= 1, "balanced split must differ by at most 1");
            }
        }
    }

    #[test]
    fn plan_accounts_for_all_stages() {
        let machine = presets::a100_nvlink(8);
        let plan = DecompositionPlan::plan(24, &machine, 8);
        assert_eq!(plan.log_g, 3);
        assert_eq!(plan.log_m, 21);
        assert_eq!(
            plan.device_passes.iter().sum::<u32>(),
            plan.log_m,
            "device passes must cover the local transform"
        );
        assert!(plan.device_passes.iter().all(|&p| p <= plan.log_block_tile));
    }

    #[test]
    fn plan_single_gpu() {
        let machine = presets::a100_nvlink(1);
        let plan = DecompositionPlan::plan(20, &machine, 8);
        assert_eq!(plan.log_g, 0);
        assert_eq!(plan.log_m, 20);
        assert_eq!(plan.num_gpus(), 1);
    }

    #[test]
    fn plan_tiny_transform() {
        let machine = presets::a100_nvlink(4);
        let plan = DecompositionPlan::plan(2, &machine, 8);
        assert_eq!(plan.log_m, 0);
        assert_eq!(plan.shard_len(), 1);
        assert_eq!(plan.device_passes.iter().sum::<u32>(), 0);
    }

    #[test]
    fn default_comm_chunks_scales_with_exchange_size() {
        let machine = presets::a100_nvlink(8);
        // 2^24 over 8 GPUs: per-pair chunks of 2^18 elements — saturated.
        assert_eq!(
            DecompositionPlan::plan(24, &machine, 8).default_comm_chunks(),
            8
        );
        // 2^14 over 8 GPUs: 2^8-element chunks — small, but the pipeline
        // stays engaged at the floor depth so the schedule (and hence the
        // simulated clock) varies smoothly with size.
        assert_eq!(
            DecompositionPlan::plan(14, &machine, 8).default_comm_chunks(),
            2
        );
        // In between: 2^21 → per-pair 2^15 = 32 Ki elements → clamped to 8;
        // 2^17 → per-pair 2^11 = 2 Ki elements → 2 chunks.
        assert_eq!(
            DecompositionPlan::plan(17, &machine, 8).default_comm_chunks(),
            2
        );
        let single = presets::a100_nvlink(1);
        assert_eq!(
            DecompositionPlan::plan(20, &single, 8).default_comm_chunks(),
            8
        );
    }

    #[test]
    fn wide_elements_shrink_block_tile() {
        let machine = presets::a100_nvlink(8);
        let narrow = DecompositionPlan::plan(24, &machine, 8);
        let wide = DecompositionPlan::plan(24, &machine, 32);
        assert!(wide.log_block_tile <= narrow.log_block_tile);
    }

    #[test]
    fn capacity_check_rejects_oversized_shards() {
        // 2^30 x 32B on one RTX 4090 (24 GB): 32 GiB working set x4.
        let machine = presets::rtx4090_pcie(1);
        let result = std::panic::catch_unwind(|| DecompositionPlan::plan(30, &machine, 32));
        assert!(result.is_err(), "oversized plan must be rejected");
        // The same transform split over 8 GPUs fits.
        let machine8 = presets::rtx4090_pcie(8);
        let plan = DecompositionPlan::plan(30, &machine8, 32);
        assert_eq!(plan.log_m, 27);
    }

    #[test]
    #[should_panic(expected = "power-of-two GPU count")]
    fn non_pow2_gpus_rejected() {
        let machine = presets::a100_nvlink(3);
        let _ = DecompositionPlan::plan(20, &machine, 8);
    }

    #[test]
    #[should_panic(expected = "cannot be split")]
    fn too_small_for_gpus_rejected() {
        let machine = presets::a100_nvlink(8);
        let _ = DecompositionPlan::plan(2, &machine, 8);
    }
}
