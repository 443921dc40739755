//! Execution backends for the prover's heavy operations.
//!
//! The prover is written once against [`Backend`]; swapping the variant
//! swaps where NTTs and MSMs "run":
//!
//! * [`Backend::cpu`] — plain host execution (functional reference).
//! * [`Backend::simulated`] — NTTs through [`UniNttEngine`] and MSMs
//!   through [`unintt_msm::multi_gpu_msm`] on simulated machines, with
//!   simulated time accumulated for the end-to-end experiment (E8). The
//!   results are bit-identical to the CPU backend; only the clock differs.
//!
//! The simulated backend keeps *two* machines — one sized for NTT, one for
//! MSM — so the paper's "multi-GPU MSM + single-GPU NTT" status quo is one
//! configuration away from the full multi-GPU pipeline.

use std::collections::HashMap;

use unintt_core::{RecoveryPolicy, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{
    FabricError, FieldSpec, KernelProfile, Machine, MachineConfig, SimTime, Stats,
};
use unintt_msm::{multi_gpu_msm, G1Affine, G1Projective};
use unintt_ntt::Ntt;

/// Where time was spent, for the end-to-end breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendReport {
    /// Simulated time in NTT work (zero for the CPU backend).
    pub ntt_time: SimTime,
    /// Simulated time in MSM work (zero for the CPU backend).
    pub msm_time: SimTime,
    /// NTT-machine statistics.
    pub ntt_stats: Stats,
    /// MSM-machine statistics.
    pub msm_stats: Stats,
    /// Number of NTT invocations.
    pub ntt_calls: u64,
    /// Number of MSM invocations.
    pub msm_calls: u64,
}

impl BackendReport {
    /// Total simulated time (prover phases are sequential).
    pub fn total(&self) -> SimTime {
        self.ntt_time + self.msm_time
    }

    /// Fraction of simulated time spent in NTT.
    pub fn ntt_fraction(&self) -> f64 {
        let t = self.total();
        if t == SimTime::ZERO {
            0.0
        } else {
            self.ntt_time.as_ns() / t.as_ns()
        }
    }
}

/// A prover execution backend.
#[allow(clippy::large_enum_variant)] // SimulatedBackend is the hot variant; boxing buys nothing
pub enum Backend {
    /// Plain host execution.
    Cpu(CpuBackend),
    /// Simulated multi-GPU execution.
    Simulated(SimulatedBackend),
}

impl Backend {
    /// A CPU backend.
    pub fn cpu() -> Self {
        Backend::Cpu(CpuBackend::default())
    }

    /// A simulated backend: NTTs on `ntt_cfg`, MSMs on `msm_cfg`.
    pub fn simulated(ntt_cfg: MachineConfig, msm_cfg: MachineConfig) -> Self {
        Backend::Simulated(SimulatedBackend::new(ntt_cfg, msm_cfg))
    }

    /// Forward NTT, natural order in/out, length must be a power of two.
    pub fn ntt_forward(&mut self, values: &mut Vec<Bn254Fr>) {
        match self {
            Backend::Cpu(b) => b.transform(values, false),
            Backend::Simulated(b) => b.transform(values, false),
        }
    }

    /// Inverse NTT, natural order in/out.
    pub fn ntt_inverse(&mut self, values: &mut Vec<Bn254Fr>) {
        match self {
            Backend::Cpu(b) => b.transform(values, true),
            Backend::Simulated(b) => b.transform(values, true),
        }
    }

    /// Forward NTT of a batch of equal-length vectors. On the simulated
    /// backend the batch shares kernel passes and a single coalesced
    /// all-to-all (the O5 optimization), exactly as a production prover
    /// would submit its polynomial batch.
    pub fn ntt_forward_batch(&mut self, batch: &mut [Vec<Bn254Fr>]) {
        match self {
            Backend::Cpu(b) => {
                for v in batch.iter_mut() {
                    b.transform(v, false);
                }
            }
            Backend::Simulated(b) => b.transform_batch(batch, false),
        }
    }

    /// Inverse NTT of a batch of equal-length vectors (batched
    /// interpolation, e.g. of all witness columns at once).
    pub fn ntt_inverse_batch(&mut self, batch: &mut [Vec<Bn254Fr>]) {
        match self {
            Backend::Cpu(b) => {
                for v in batch.iter_mut() {
                    b.transform(v, true);
                }
            }
            Backend::Simulated(b) => b.transform_batch(batch, true),
        }
    }

    /// Fault-tolerant twin of [`Self::ntt_inverse`]: faults are absorbed
    /// per `policy`; on `Err` the values are left untouched so the caller
    /// can replay the call.
    pub fn try_ntt_inverse(
        &mut self,
        values: &mut Vec<Bn254Fr>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        match self {
            Backend::Cpu(b) => {
                b.transform(values, true);
                Ok(())
            }
            Backend::Simulated(b) => b.try_transform(values, true, policy),
        }
    }

    /// Fault-tolerant twin of [`Self::ntt_forward_batch`].
    ///
    /// # Errors
    ///
    /// Returns the [`FabricError`] that outlived the policy's retries; the
    /// batch contents are unspecified afterwards (replay from the caller's
    /// checkpoint).
    pub fn try_ntt_forward_batch(
        &mut self,
        batch: &mut [Vec<Bn254Fr>],
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        match self {
            Backend::Cpu(b) => {
                for v in batch.iter_mut() {
                    b.transform(v, false);
                }
                Ok(())
            }
            Backend::Simulated(b) => b.try_transform_batch(batch, false, policy),
        }
    }

    /// Fault-tolerant twin of [`Self::ntt_inverse_batch`].
    ///
    /// # Errors
    ///
    /// As [`Self::try_ntt_forward_batch`].
    pub fn try_ntt_inverse_batch(
        &mut self,
        batch: &mut [Vec<Bn254Fr>],
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        match self {
            Backend::Cpu(b) => {
                for v in batch.iter_mut() {
                    b.transform(v, true);
                }
                Ok(())
            }
            Backend::Simulated(b) => b.try_transform_batch(batch, true, policy),
        }
    }

    /// The simulated NTT machine, if any (to install fault plans or read
    /// traces); `None` for the CPU backend.
    pub fn ntt_machine_mut(&mut self) -> Option<&mut Machine> {
        match self {
            Backend::Cpu(_) => None,
            Backend::Simulated(b) => Some(&mut b.ntt_machine),
        }
    }

    /// Charges an element-wise kernel of `n` elements with
    /// `muls_per_elem` multiplies (quotient combination, coset scaling).
    /// Functional work is done by the caller; the CPU backend ignores this.
    pub fn charge_pointwise(&mut self, n: usize, muls_per_elem: u64) {
        if let Backend::Simulated(b) = self {
            b.charge_pointwise(n, muls_per_elem);
        }
    }

    /// Multi-scalar multiplication.
    pub fn msm(&mut self, scalars: &[Bn254Fr], points: &[G1Affine]) -> G1Projective {
        match self {
            Backend::Cpu(b) => b.msm(scalars, points),
            Backend::Simulated(b) => b.msm(scalars, points),
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> BackendReport {
        match self {
            Backend::Cpu(b) => BackendReport {
                ntt_calls: b.ntt_calls,
                msm_calls: b.msm_calls,
                ..Default::default()
            },
            Backend::Simulated(b) => b.report(),
        }
    }
}

/// Host execution with cached NTT contexts.
#[derive(Default)]
pub struct CpuBackend {
    ntts: HashMap<u32, Ntt<Bn254Fr>>,
    ntt_calls: u64,
    msm_calls: u64,
}

impl CpuBackend {
    fn transform(&mut self, values: &mut [Bn254Fr], inverse: bool) {
        assert!(
            values.len().is_power_of_two(),
            "length must be a power of two"
        );
        let log_n = values.len().trailing_zeros();
        let ntt = self.ntts.entry(log_n).or_insert_with(|| Ntt::new(log_n));
        if inverse {
            ntt.inverse(values);
        } else {
            ntt.forward(values);
        }
        self.ntt_calls += 1;
    }

    fn msm(&mut self, scalars: &[Bn254Fr], points: &[G1Affine]) -> G1Projective {
        self.msm_calls += 1;
        unintt_msm::msm(scalars, points)
    }
}

/// Simulated multi-GPU execution.
pub struct SimulatedBackend {
    ntt_cfg: MachineConfig,
    ntt_machine: Machine,
    msm_machine: Machine,
    engines: HashMap<u32, UniNttEngine<Bn254Fr>>,
    cpu_fallback: HashMap<u32, Ntt<Bn254Fr>>,
    ntt_calls: u64,
    msm_calls: u64,
}

impl SimulatedBackend {
    /// Builds the backend with separate NTT and MSM machine shapes.
    pub fn new(ntt_cfg: MachineConfig, msm_cfg: MachineConfig) -> Self {
        let fs = FieldSpec::bn254_fr();
        Self {
            ntt_machine: Machine::new(ntt_cfg.clone(), fs),
            msm_machine: Machine::new(msm_cfg, fs),
            ntt_cfg,
            engines: HashMap::new(),
            cpu_fallback: HashMap::new(),
            ntt_calls: 0,
            msm_calls: 0,
        }
    }

    fn transform(&mut self, values: &mut Vec<Bn254Fr>, inverse: bool) {
        self.try_transform(values, inverse, &RecoveryPolicy::none())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_transform(
        &mut self,
        values: &mut Vec<Bn254Fr>,
        inverse: bool,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        assert!(
            values.len().is_power_of_two(),
            "length must be a power of two"
        );
        let log_n = values.len().trailing_zeros();
        let g = self.ntt_cfg.num_gpus;
        let log_g = g.trailing_zeros();
        self.ntt_calls += 1;

        // Transforms too small to split across the machine run on one
        // device (exactly what a real system does with tiny polynomials);
        // no collectives, so nothing can fault.
        if log_n < 2 * log_g || (1usize << log_n) < 2 * g {
            let ntt = self
                .cpu_fallback
                .entry(log_n)
                .or_insert_with(|| Ntt::new(log_n));
            if inverse {
                ntt.inverse(values);
            } else {
                ntt.forward(values);
            }
            let bytes = (values.len() * 32) as u64;
            let mut profile = KernelProfile::named("small-ntt-single-device");
            profile.global_bytes_read = bytes * log_n.max(1) as u64;
            profile.global_bytes_written = bytes * log_n.max(1) as u64;
            profile.field_muls = (values.len() as u64 / 2) * log_n as u64;
            let mut unused = ();
            self.ntt_machine.on_device(0, &mut unused, |ctx, _| {
                ctx.launch(&profile);
            });
            return Ok(());
        }

        let cfg = &self.ntt_cfg;
        let engine = self.engines.entry(log_n).or_insert_with(|| {
            let fs = FieldSpec::bn254_fr();
            let mut opts = UniNttOptions::tuned_for(&fs);
            // Natural order in and out: the prover chains differently-sized
            // domains, so permuted chaining is not available here.
            opts.natural_output = true;
            UniNttEngine::new(log_n, cfg, opts, fs)
        });

        // Natural-order host vector ↔ shards at the boundary: forward
        // consumes cyclic and emits natural blocks; inverse is the mirror.
        // The host vector stays intact until success, so a failed call can
        // simply be replayed.
        let mut data = if inverse {
            Sharded::distribute(values, g, ShardLayout::NaturalBlocks)
        } else {
            Sharded::distribute(values, g, ShardLayout::Cyclic)
        };
        if inverse {
            engine.try_inverse(&mut self.ntt_machine, &mut data, policy)?;
        } else {
            engine.try_forward(&mut self.ntt_machine, &mut data, policy)?;
        }
        *values = data.collect();
        Ok(())
    }

    /// Batched transform: one engine invocation for the whole batch
    /// (shared passes + coalesced all-to-alls).
    fn transform_batch(&mut self, batch: &mut [Vec<Bn254Fr>], inverse: bool) {
        self.try_transform_batch(batch, inverse, &RecoveryPolicy::none())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_transform_batch(
        &mut self,
        batch: &mut [Vec<Bn254Fr>],
        inverse: bool,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        assert!(!batch.is_empty(), "batch must not be empty");
        let len = batch[0].len();
        assert!(
            batch.iter().all(|v| v.len() == len),
            "batched vectors must have equal lengths"
        );
        let log_n = len.trailing_zeros();
        let g = self.ntt_cfg.num_gpus;
        let log_g = g.trailing_zeros();
        self.ntt_calls += batch.len() as u64;

        if log_n < 2 * log_g || len < 2 * g {
            // Small transforms: reuse the single-vector fallback per item.
            self.ntt_calls -= batch.len() as u64; // transform re-counts
            for v in batch.iter_mut() {
                self.try_transform(v, inverse, policy)?;
            }
            return Ok(());
        }

        let cfg = &self.ntt_cfg;
        let engine = self.engines.entry(log_n).or_insert_with(|| {
            let mut opts = UniNttOptions::tuned_for(&FieldSpec::bn254_fr());
            opts.natural_output = true;
            UniNttEngine::new(log_n, cfg, opts, FieldSpec::bn254_fr())
        });

        let layout = if inverse {
            ShardLayout::NaturalBlocks
        } else {
            ShardLayout::Cyclic
        };
        let mut sharded: Vec<Sharded<Bn254Fr>> = batch
            .iter()
            .map(|v| Sharded::distribute(v, g, layout))
            .collect();
        if inverse {
            engine.try_inverse_batch(&mut self.ntt_machine, &mut sharded, policy)?;
        } else {
            engine.try_forward_batch(&mut self.ntt_machine, &mut sharded, policy)?;
        }
        for (out, data) in batch.iter_mut().zip(&sharded) {
            *out = data.collect();
        }
        Ok(())
    }

    fn charge_pointwise(&mut self, n: usize, muls_per_elem: u64) {
        let bytes = (n * 32) as u64;
        let mut p = KernelProfile::named("pointwise");
        p.blocks = (n as u64 / 256).max(1);
        p.global_bytes_read = bytes;
        p.global_bytes_written = bytes;
        p.field_muls = n as u64 * muls_per_elem;
        let devices = self.ntt_machine.num_devices();
        let mut dummy: Vec<()> = vec![(); devices];
        // Pointwise work is sharded across the NTT machine's devices.
        let mut shard_p = p;
        shard_p.global_bytes_read /= devices as u64;
        shard_p.global_bytes_written /= devices as u64;
        shard_p.field_muls /= devices as u64;
        self.ntt_machine.parallel_phase(&mut dummy, |ctx, _, _| {
            ctx.launch(&shard_p);
        });
    }

    fn msm(&mut self, scalars: &[Bn254Fr], points: &[G1Affine]) -> G1Projective {
        self.msm_calls += 1;
        multi_gpu_msm(&mut self.msm_machine, scalars, points)
    }

    fn report(&self) -> BackendReport {
        BackendReport {
            ntt_time: self.ntt_machine.max_clock(),
            msm_time: self.msm_machine.max_clock(),
            ntt_stats: self.ntt_machine.stats(),
            msm_stats: self.msm_machine.stats(),
            ntt_calls: self.ntt_calls,
            msm_calls: self.msm_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;
    use unintt_gpu_sim::presets;

    fn random_vec(n: usize, seed: u64) -> Vec<Bn254Fr> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Bn254Fr::random(&mut rng)).collect()
    }

    #[test]
    fn simulated_ntt_matches_cpu() {
        let mut cpu = Backend::cpu();
        let mut sim = Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
        for log_n in [3usize, 6, 10] {
            let input = random_vec(1 << log_n, log_n as u64);
            let mut a = input.clone();
            let mut b = input.clone();
            cpu.ntt_forward(&mut a);
            sim.ntt_forward(&mut b);
            assert_eq!(a, b, "log_n={log_n}");
            cpu.ntt_inverse(&mut a);
            sim.ntt_inverse(&mut b);
            assert_eq!(a, b);
            assert_eq!(a, input);
        }
        assert!(sim.report().ntt_time > SimTime::ZERO);
        assert_eq!(sim.report().ntt_calls, 6);
    }

    #[test]
    fn simulated_msm_matches_cpu() {
        let mut rng = StdRng::seed_from_u64(5);
        let scalars = random_vec(40, 1);
        let points: Vec<G1Affine> = (0..40).map(|_| G1Affine::random(&mut rng)).collect();
        let mut cpu = Backend::cpu();
        let mut sim = Backend::simulated(presets::a100_nvlink(4), presets::a100_nvlink(4));
        assert_eq!(cpu.msm(&scalars, &points), sim.msm(&scalars, &points));
        assert!(sim.report().msm_time > SimTime::ZERO);
    }

    #[test]
    fn pointwise_charges_only_simulated() {
        let mut cpu = Backend::cpu();
        cpu.charge_pointwise(1024, 3);
        assert_eq!(cpu.report().total(), SimTime::ZERO);

        let mut sim = Backend::simulated(presets::a100_nvlink(2), presets::a100_nvlink(2));
        sim.charge_pointwise(1024, 3);
        assert!(sim.report().ntt_time > SimTime::ZERO);
    }

    #[test]
    fn small_sizes_take_fallback_path() {
        let mut sim = Backend::simulated(presets::a100_nvlink(8), presets::a100_nvlink(8));
        let input = random_vec(8, 2); // 2^3 on 8 GPUs: too small to split
        let mut v = input.clone();
        sim.ntt_forward(&mut v);
        let mut cpu = Backend::cpu();
        let mut expected = input.clone();
        cpu.ntt_forward(&mut expected);
        assert_eq!(v, expected);
    }

    #[test]
    fn report_fraction() {
        let r = BackendReport {
            ntt_time: SimTime(75),
            msm_time: SimTime(25),
            ..Default::default()
        };
        assert_eq!(r.total(), SimTime(100));
        assert!((r.ntt_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(BackendReport::default().ntt_fraction(), 0.0);
    }
}
