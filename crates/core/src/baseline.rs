//! Baseline NTT engines the paper compares against.
//!
//! * [`FourStepMultiGpuEngine`] — the conventional distributed four-step
//!   NTT: natural-order input and output, **three** all-to-alls (layout
//!   conversion in, chunk transpose in the middle, layout conversion out),
//!   standalone pack/transpose/twiddle kernels, table-based twiddles and
//!   unpadded layouts. This is what one gets by gluing a single-GPU NTT
//!   library to NCCL without the paper's fused decomposition. In code it
//!   is the same schedule as [`UniNttEngine`] with every fusion off and a
//!   pack kernel plus a blocking all-to-all in front (behind, for the
//!   inverse) — two more phases on the list, no engine of its own.
//! * [`single_gpu`] helpers — the strong single-GPU configuration (all
//!   optimizations on, one device), the baseline for the headline speedup.
//!
//! Both baselines are *functionally exact*: their outputs are bit-identical
//! to the CPU reference, only their charged cost differs from UniNTT's.

use unintt_ff::TwoAdicField;
use unintt_gpu_sim::{FieldSpec, Machine, MachineConfig};
use unintt_ntt::Direction;

use crate::schedule::{Phase, Plane};
use crate::{Sharded, UniNttEngine, UniNttOptions};

/// The conventional multi-GPU four-step NTT baseline.
#[derive(Clone, Debug)]
pub struct FourStepMultiGpuEngine<F: TwoAdicField> {
    inner: UniNttEngine<F>,
}

impl<F: TwoAdicField> FourStepMultiGpuEngine<F> {
    /// Layout conversion, natural blocks → cyclic: a local bucket pack and
    /// one blocking all-to-all ahead of the transform (behind it, reversed,
    /// for the inverse).
    const CONVERT: [Phase; 2] = [Phase::Pack, Phase::Convert];

    /// Plans the baseline for size `2^log_n` on `machine_cfg`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`UniNttEngine::new`].
    pub fn new(log_n: u32, machine_cfg: &MachineConfig, field_spec: FieldSpec) -> Self {
        let mut opts = UniNttOptions::none();
        // The classical formulation always restores natural order.
        opts.natural_output = true;
        Self {
            inner: UniNttEngine::new(log_n, machine_cfg, opts, field_spec),
        }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Access to the underlying plan.
    pub fn plan(&self) -> &crate::DecompositionPlan {
        self.inner.plan()
    }

    /// Forward NTT: natural-block input, natural-block output.
    ///
    /// # Panics
    ///
    /// Panics on layout/size mismatch, as [`UniNttEngine::forward`].
    pub fn forward(&self, machine: &mut Machine, data: &mut Sharded<F>) {
        let plane = Plane::unguarded(std::slice::from_mut(data));
        self.inner
            .drive(machine, Direction::Forward, &Self::CONVERT, F::ONE, plane);
    }

    /// Inverse NTT: natural-block input, natural-block output.
    pub fn inverse(&self, machine: &mut Machine, data: &mut Sharded<F>) {
        let plane = Plane::unguarded(std::slice::from_mut(data));
        self.inner
            .drive(machine, Direction::Inverse, &Self::CONVERT, F::ONE, plane);
    }

    /// Cost-only forward transform of `batch` vectors: [`Self::forward`]'s
    /// walk with nothing to move.
    pub fn simulate_forward(&self, machine: &mut Machine, batch: u64) {
        let plane = Plane::Unit(batch);
        self.inner
            .drive(machine, Direction::Forward, &Self::CONVERT, F::ONE, plane);
    }
}

/// Helpers for the strong single-GPU baseline configuration.
pub mod single_gpu {
    use super::*;

    /// A one-GPU copy of `machine_cfg` (same GPU model, no fabric use).
    pub fn config(machine_cfg: &MachineConfig) -> MachineConfig {
        let mut cfg = machine_cfg.clone();
        cfg.num_gpus = 1;
        cfg
    }

    /// A fully optimized single-GPU engine — the Icicle-class baseline the
    /// paper's headline speedup is measured against.
    pub fn engine<F: TwoAdicField>(
        log_n: u32,
        machine_cfg: &MachineConfig,
        field_spec: FieldSpec,
    ) -> UniNttEngine<F> {
        UniNttEngine::new(
            log_n,
            &config(machine_cfg),
            UniNttOptions::tuned_for(&field_spec),
            field_spec,
        )
    }

    /// A machine with a single GPU of the given model.
    pub fn machine(machine_cfg: &MachineConfig, field_spec: FieldSpec) -> Machine {
        Machine::new(config(machine_cfg), field_spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardLayout;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks};
    use unintt_gpu_sim::presets;
    use unintt_ntt::Ntt;

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    fn reference_forward(input: &[Goldilocks]) -> Vec<Goldilocks> {
        let ntt = Ntt::<Goldilocks>::new(input.len().trailing_zeros());
        let mut out = input.to_vec();
        ntt.forward(&mut out);
        out
    }

    #[test]
    fn four_step_matches_reference() {
        for gpus in [1usize, 2, 4, 8] {
            let log_n = 10u32;
            let input = random_vec(1 << log_n, gpus as u64);
            let cfg = presets::a100_nvlink(gpus);
            let fs = FieldSpec::goldilocks();
            let engine = FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
            let mut machine = Machine::new(cfg, fs);
            let mut data = Sharded::distribute(&input, gpus, ShardLayout::NaturalBlocks);
            engine.forward(&mut machine, &mut data);
            assert_eq!(data.layout(), ShardLayout::NaturalBlocks);
            assert_eq!(data.collect(), reference_forward(&input), "gpus={gpus}");
        }
    }

    #[test]
    fn four_step_roundtrip() {
        let log_n = 9u32;
        let gpus = 4usize;
        let input = random_vec(1 << log_n, 5);
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
        let mut machine = Machine::new(cfg, fs);
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::NaturalBlocks);
        engine.forward(&mut machine, &mut data);
        engine.inverse(&mut machine, &mut data);
        assert_eq!(data.collect(), input);
    }

    #[test]
    fn baseline_uses_three_all_to_alls() {
        let log_n = 16u32;
        let gpus = 8usize;
        let input = random_vec(1 << log_n, 6);
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
        let mut machine = Machine::new(cfg, fs);
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::NaturalBlocks);
        engine.forward(&mut machine, &mut data);
        // 3 all-to-alls × 8 devices.
        assert_eq!(machine.stats().collectives, 24);
    }

    #[test]
    fn baseline_moves_more_interconnect_bytes_than_unintt() {
        let log_n = 18u32;
        let gpus = 8usize;
        let input = random_vec(1 << log_n, 7);
        let fs = FieldSpec::goldilocks();

        let cfg = presets::a100_nvlink(gpus);
        let baseline = FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
        let mut mb = Machine::new(cfg.clone(), fs);
        let mut db = Sharded::distribute(&input, gpus, ShardLayout::NaturalBlocks);
        baseline.forward(&mut mb, &mut db);

        let unintt = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let mut mu = Machine::new(cfg, fs);
        let mut du = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        unintt.forward(&mut mu, &mut du);

        let b_bytes = mb.stats().interconnect_bytes_sent;
        let u_bytes = mu.stats().interconnect_bytes_sent;
        assert!(
            b_bytes >= 3 * u_bytes,
            "baseline should move ≥3× the bytes: baseline={b_bytes} unintt={u_bytes}"
        );
        assert!(
            mb.max_clock_ns() > mu.max_clock_ns(),
            "baseline should be slower"
        );
    }

    #[test]
    fn single_gpu_helpers_produce_one_device() {
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let machine = single_gpu::machine(&cfg, fs);
        assert_eq!(machine.num_devices(), 1);
        let engine = single_gpu::engine::<Goldilocks>(12, &cfg, fs);
        assert_eq!(engine.plan().num_gpus(), 1);
    }
}
