//! `engine-sim`: the paper's own object, functional and analytical.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{
    single_gpu, FourStepMultiGpuEngine, ShardLayout, Sharded, UniNttEngine, UniNttOptions,
};
use unintt_ff::{Bn254Fr, Goldilocks, TwoAdicField};
use unintt_gpu_sim::{presets, FieldSpec, Machine, MachineConfig, Stats};
use unintt_ntt::Ntt;

use super::{random_vec, Fnv, Output, SimClock, Workload};
use crate::spans::Recorder;

/// Simulated single-GPU ÷ UniNTT forward time for one cell of the E1
/// sweep (`simulate_forward`, no data touched).
fn e1_speedup<F: TwoAdicField>(log_n: u32, cfg: &MachineConfig, fs: FieldSpec) -> f64 {
    let single = single_gpu::engine::<F>(log_n, cfg, fs);
    let mut one = single_gpu::machine(cfg, fs);
    single.simulate_forward(&mut one, 1);

    let engine = UniNttEngine::<F>::new(log_n, cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut all = Machine::new(cfg.clone(), fs);
    engine.simulate_forward(&mut all, 1);
    one.max_clock_ns() / all.max_clock_ns()
}

/// Geometric mean of the E1 sweep: Goldilocks and BN254-Fr, 2^20–2^28,
/// `cfg`'s GPUs against one GPU of the same model (paper: 4.26× average).
pub fn e1_sweep(cfg: &MachineConfig) -> f64 {
    let mut log_sum = 0.0;
    let mut cells = 0u32;
    for log_n in 20..=28 {
        log_sum += e1_speedup::<Goldilocks>(log_n, cfg, FieldSpec::goldilocks()).ln();
        log_sum += e1_speedup::<Bn254Fr>(log_n, cfg, FieldSpec::bn254_fr()).ln();
        cells += 2;
    }
    (log_sum / f64::from(cells)).exp()
}

/// What the last op left behind.
struct Ran {
    unintt: Vec<Goldilocks>,
    four_step: Vec<Goldilocks>,
    stats: Stats,
    sim: SimClock,
}

/// `engine-sim`: functional `UniNttEngine::forward` and
/// `FourStepMultiGpuEngine::forward` at 2^18 Goldilocks on
/// `presets::a100_nvlink(8)`, then the analytical E1 sweep. The
/// large-transform use of `core` and `gpu-sim` (8 GPUs, 2^18) that
/// `serve-raw` (2×2 GPUs, 2^8–2^10) never reaches; `serve` is idle. Guards
/// the headline speedup against any refactor of collectives or comm modes.
pub struct EngineSim {
    cfg: MachineConfig,
    unintt: UniNttEngine<Goldilocks>,
    four_step: FourStepMultiGpuEngine<Goldilocks>,
    input: Vec<Goldilocks>,
    /// Host `Ntt::forward` of `input`.
    expected: Vec<Goldilocks>,
    last: Option<Ran>,
}

impl EngineSim {
    /// Functional transform size exponent.
    pub const LOG_N: u32 = 18;
    /// Simulated GPUs.
    pub const GPUS: usize = 8;

    /// Seeded input, host reference transform, both engines' plans.
    pub fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let input: Vec<Goldilocks> = random_vec(1 << Self::LOG_N, &mut rng);
        let mut expected = input.clone();
        Ntt::<Goldilocks>::new(Self::LOG_N).forward(&mut expected);
        let cfg = presets::a100_nvlink(Self::GPUS);
        let fs = FieldSpec::goldilocks();
        Self {
            unintt: UniNttEngine::new(Self::LOG_N, &cfg, UniNttOptions::tuned_for(&fs), fs),
            four_step: FourStepMultiGpuEngine::new(Self::LOG_N, &cfg, fs),
            cfg,
            input,
            expected,
            last: None,
        }
    }

    /// `Machine::stats()` after the last op's functional UniNTT forward.
    pub fn stats(&self) -> Option<&Stats> {
        self.last.as_ref().map(|r| &r.stats)
    }

    /// The input vector, for the `core` layer probes.
    pub fn input(&self) -> &[Goldilocks] {
        &self.input
    }
}

impl Workload for EngineSim {
    fn op(&mut self, rec: &mut Recorder) {
        let fs = FieldSpec::goldilocks();

        let mut machine = Machine::new(self.cfg.clone(), fs);
        let mut data = rec.span("core", "Sharded::distribute cyclic", |_| {
            Sharded::distribute(&self.input, Self::GPUS, ShardLayout::Cyclic)
        });
        rec.span("core", "UniNttEngine::forward 2^18", |_| {
            self.unintt.forward(&mut machine, &mut data)
        });
        let unintt = rec.span("core", "Sharded::collect", |_| data.collect());

        let mut baseline = Machine::new(self.cfg.clone(), fs);
        let mut data = rec.span("core", "Sharded::distribute natural", |_| {
            Sharded::distribute(&self.input, Self::GPUS, ShardLayout::NaturalBlocks)
        });
        rec.span("core", "FourStepMultiGpuEngine::forward 2^18", |_| {
            self.four_step.forward(&mut baseline, &mut data)
        });
        let four_step = rec.span("core", "Sharded::collect", |_| data.collect());

        let speedup = rec.span("gpu-sim", "E1 sweep simulate_forward", |_| {
            e1_sweep(&self.cfg)
        });
        self.last = Some(Ran {
            unintt,
            four_step,
            stats: machine.stats(),
            sim: SimClock {
                horizon_us: machine.max_clock_ns() / 1e3,
                latency_p95_us: None,
                speedup_x: Some(speedup),
            },
        });
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let ran = self.last.as_ref().ok_or("no result produced")?;
        if ran.unintt != self.expected {
            return Err("UniNttEngine output differs from host Ntt::forward".into());
        }
        if ran.four_step != self.expected {
            return Err("FourStepMultiGpuEngine output differs from host Ntt::forward".into());
        }
        let mut fnv = Fnv::new();
        fnv.mix_field(&ran.unintt);
        Ok(Output {
            digest: fnv.finish(),
            sim: Some(ran.sim),
        })
    }
}
