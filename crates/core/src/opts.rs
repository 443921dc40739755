//! The uniform optimization set (O1–O5) and its ablation switches.
//!
//! The paper's thesis is that NTT optimizations designed once against an
//! abstract hardware model apply at *every* hierarchy level. Each flag here
//! toggles one of those optimizations; the engine consults the flags when
//! building kernel profiles, so an ablation run (experiment E6) is just a
//! different `UniNttOptions` value — the functional result never changes.

use std::sync::atomic::{AtomicU8, Ordering};

use serde::{Deserialize, Serialize};

/// How the engine schedules the multi-GPU exchange relative to compute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommMode {
    /// Legacy schedule: finish the local passes, run the all-to-all as
    /// one blocking transfer, then start the outer transform.
    Blocking,
    /// Software-pipelined schedule (the default): the exchange is split
    /// into chunks and chunk transfers run concurrently with the
    /// producing and consuming passes, hiding communication behind
    /// compute. Bit-identical outputs; only the timing changes.
    #[default]
    Overlapped,
}

/// Process-wide [`CommMode`] override, encoded as
/// 0 = none, 1 = Blocking, 2 = Overlapped. Set by the bench harness's
/// `--blocking-comm` flag so every engine in the process can be pinned
/// without threading a flag through every constructor.
static COMM_MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Installs (or with `None` clears) a process-wide [`CommMode`] override
/// consulted by [`UniNttOptions::effective_comm_mode`].
pub fn set_comm_mode_override(mode: Option<CommMode>) {
    let v = match mode {
        None => 0,
        Some(CommMode::Blocking) => 1,
        Some(CommMode::Overlapped) => 2,
    };
    COMM_MODE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The current process-wide [`CommMode`] override, if any.
pub fn comm_mode_override() -> Option<CommMode> {
    match COMM_MODE_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(CommMode::Blocking),
        2 => Some(CommMode::Overlapped),
        _ => None,
    }
}

/// The most compute queues a stage scheduler may attach to one lease:
/// one queue is strictly serial, and past four the interference model's
/// pairwise products stop resembling any real SM partitioning.
pub const MAX_STREAMS_PER_LEASE: u32 = 4;

/// Optimization switches for the UniNTT engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniNttOptions {
    /// **O1 — fused twiddles**: the inter-level twiddle multiplication is
    /// folded into the adjacent transform kernel. Off: a standalone
    /// read-multiply-write pass per level boundary.
    pub fuse_twiddle: bool,
    /// **O2 — on-the-fly twiddle generation**: twiddles are regenerated in
    /// registers instead of streamed from memory. Off: twiddle tables are
    /// read from global memory alongside the data (extra read traffic).
    pub twiddle_on_the_fly: bool,
    /// **O3 — conflict-free layout**: padded shared-memory layout and
    /// block-cyclic global layout keeping accesses coalesced and
    /// conflict-free. Off: natural layout with power-of-two strides.
    pub padded_layout: bool,
    /// **O4 — exchange-compute fusion**: the pack/unpack around each
    /// exchange is folded into the neighboring transform's load/store
    /// (register shuffles at warp level, all-to-all staging at multi-GPU
    /// level). Off: standalone pack and unpack passes around the exchange.
    pub fuse_exchange: bool,
    /// **O5 — batching**: independent transforms in a batch share passes
    /// and amortize launch/latency overheads. Off: transforms run
    /// back-to-back individually.
    pub batching: bool,
    /// Restore natural block-distributed output ordering with a second
    /// all-to-all. Off (default): leave the output in UniNTT's documented
    /// block-cyclic permuted order, which evaluation-domain consumers
    /// (pointwise products, quotient computations) accept directly.
    pub natural_output: bool,
    /// Scheduling of the multi-GPU exchange relative to compute. Not an
    /// O-flag (it changes *when* work happens, not what work exists), so
    /// [`UniNttOptions::ablate`] leaves it alone.
    #[serde(default)]
    pub comm_mode: CommMode,
    /// Pipeline depth for [`CommMode::Overlapped`]: how many chunks the
    /// exchange is split into. `0` (default) lets the engine pick from
    /// the plan via `DecompositionPlan::default_comm_chunks`.
    #[serde(default)]
    pub comm_chunks: u32,
}

impl UniNttOptions {
    /// All optimizations on, permuted output, overlapped communication
    /// (the paper's configuration).
    pub const fn full() -> Self {
        Self {
            fuse_twiddle: true,
            twiddle_on_the_fly: true,
            padded_layout: true,
            fuse_exchange: true,
            batching: true,
            natural_output: false,
            comm_mode: CommMode::Overlapped,
            comm_chunks: 0,
        }
    }

    /// The configuration the abstract cost model picks for a given field —
    /// the paper's actual modus operandi: optimizations are designed once,
    /// then *tailored* per level/field by the model. Concretely, O2
    /// (regenerate twiddles in registers) trades ALU for memory bandwidth:
    /// a win for cheap fields (Goldilocks is memory-bound) and a loss for
    /// 256-bit Montgomery fields (compute-bound), so the model streams
    /// tables there instead.
    pub fn tuned_for(field: &unintt_gpu_sim::FieldSpec) -> Self {
        let mut o = Self::full();
        o.twiddle_on_the_fly = field.mul_cost <= 2.0;
        o
    }

    /// Every optimization off — the naive hierarchical implementation
    /// with blocking communication.
    pub const fn none() -> Self {
        Self {
            fuse_twiddle: false,
            twiddle_on_the_fly: false,
            padded_layout: false,
            fuse_exchange: false,
            batching: false,
            natural_output: false,
            comm_mode: CommMode::Blocking,
            comm_chunks: 0,
        }
    }

    /// The communication mode this options value resolves to: the
    /// process-wide override (see [`set_comm_mode_override`]) if one is
    /// installed, else the per-options [`UniNttOptions::comm_mode`].
    pub fn effective_comm_mode(&self) -> CommMode {
        comm_mode_override().unwrap_or(self.comm_mode)
    }

    /// `full()` with exactly one optimization disabled, by index O1..=O5.
    ///
    /// # Panics
    ///
    /// Panics if `which` is not in `1..=5`.
    pub fn ablate(which: u32) -> Self {
        let mut o = Self::full();
        match which {
            1 => o.fuse_twiddle = false,
            2 => o.twiddle_on_the_fly = false,
            3 => o.padded_layout = false,
            4 => o.fuse_exchange = false,
            5 => o.batching = false,
            _ => panic!("optimization index must be 1..=5, got {which}"),
        }
        o
    }

    /// Short label for the ablation, e.g. `"-O3(layout)"`.
    pub fn ablation_label(which: u32) -> &'static str {
        match which {
            1 => "-O1(fuse-twiddle)",
            2 => "-O2(otf-twiddle)",
            3 => "-O3(layout)",
            4 => "-O4(fuse-exchange)",
            5 => "-O5(batching)",
            _ => "unknown",
        }
    }
}

impl Default for UniNttOptions {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_enables_everything_but_natural_output() {
        let o = UniNttOptions::full();
        assert!(o.fuse_twiddle && o.twiddle_on_the_fly && o.padded_layout);
        assert!(o.fuse_exchange && o.batching);
        assert!(!o.natural_output);
    }

    #[test]
    fn ablate_disables_exactly_one() {
        for which in 1..=5u32 {
            let o = UniNttOptions::ablate(which);
            let flags = [
                o.fuse_twiddle,
                o.twiddle_on_the_fly,
                o.padded_layout,
                o.fuse_exchange,
                o.batching,
            ];
            let disabled = flags.iter().filter(|&&f| !f).count();
            assert_eq!(disabled, 1, "which={which}");
            assert!(!flags[(which - 1) as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "1..=5")]
    fn ablate_out_of_range_panics() {
        let _ = UniNttOptions::ablate(6);
    }

    #[test]
    fn default_is_full() {
        assert_eq!(UniNttOptions::default(), UniNttOptions::full());
    }

    #[test]
    fn comm_mode_defaults() {
        // No test may *install* the process-wide override (tests in this
        // binary run concurrently); only the unset default is asserted.
        assert_eq!(comm_mode_override(), None);
        assert_eq!(UniNttOptions::full().comm_mode, CommMode::Overlapped);
        assert_eq!(UniNttOptions::none().comm_mode, CommMode::Blocking);
        assert_eq!(
            UniNttOptions::full().effective_comm_mode(),
            CommMode::Overlapped
        );
        assert_eq!(UniNttOptions::full().comm_chunks, 0, "0 = planner auto");
        // The comm schedule is not an O-flag: every ablation keeps overlap.
        for which in 1..=5u32 {
            assert_eq!(UniNttOptions::ablate(which).comm_mode, CommMode::Overlapped);
        }
    }

    #[test]
    fn tuning_picks_twiddle_strategy_by_field_cost() {
        use unintt_gpu_sim::FieldSpec;
        assert!(UniNttOptions::tuned_for(&FieldSpec::goldilocks()).twiddle_on_the_fly);
        assert!(UniNttOptions::tuned_for(&FieldSpec::babybear()).twiddle_on_the_fly);
        assert!(!UniNttOptions::tuned_for(&FieldSpec::bn254_fr()).twiddle_on_the_fly);
    }
}
