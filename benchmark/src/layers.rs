//! Per-layer probes: the benchmark timing public calls into each layer
//! crate from outside, one span per probe. Nothing here reaches into
//! `crates/`; spans inside the program are a later change.
//!
//! Every wall probe is the p10 of its repeats. Repeats are time-boxed so
//! the whole sweep fits the run's `--seconds`: each probe repeats until it
//! has used its slice (`--seconds / 100`) or reached [`MAX_REPEATS`], and
//! never fewer than [`MIN_REPEATS`] times. Counts and `sim_*` values are
//! exact per seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{
    Cluster, ClusterNttEngine, NetworkConfig, RecoveryPolicy, ShardLayout, Sharded, UniNttEngine,
    UniNttOptions,
};
use unintt_exec::Executor;
use unintt_ff::{
    batch_inverse, BabyBear, Bn254Fq, Bn254Fr, Field, Goldilocks, PrimeField, TwoAdicField,
};
use unintt_fri::{
    compress, fri::prove_hash_permutations, hash_elements, permutations_for, verify_trace,
    FriConfig, LdeBackend, MerkleTree,
};
use unintt_gpu_sim::{presets, FieldSpec, Machine};
use unintt_msm::{msm, msm_parallel, optimal_window_bits, pippenger_group_ops, G1Affine};
use unintt_ntt::{
    batch_transform_parallel, bit_reverse_permute, low_degree_extension, transpose, Direction, Ntt,
    TwiddleTable,
};
use unintt_pipeline::{DagExecutor, InterferenceModel, ProofPipeline};
use unintt_serve::{JobClass, ProofService, ServiceField};
use unintt_telemetry::StreamHist;
use unintt_zkp::{random_circuit, verify, Backend};

use crate::spans::Recorder;
use crate::stats::{median, p10};
use crate::workloads::{
    e1_sweep, random_vec, EngineSim, FleetChaos, PlonkProve, ServeProofs, ServeRaw, StarkCommit,
    Workload,
};

/// Fewest repeats a wall probe ever takes.
pub const MIN_REPEATS: usize = 3;
/// Most repeats a wall probe takes however short it is.
pub const MAX_REPEATS: usize = 20;

/// A 2^22 six-step forward makes five passes over the array — three
/// in-place transposes and two row-transform passes — each reading and
/// writing every element once. Twiddle reads are not counted.
const SIX_STEP_PASSES: u64 = 5;

/// Collects per-layer metric values, one probe at a time.
pub struct Probes<'a> {
    rec: &'a mut Recorder,
    seed: u64,
    slice: Duration,
    values: BTreeMap<&'static str, f64>,
    calib_ms: Vec<f64>,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The host-noise gauge: a fixed integer loop over 64 Ki words, run
/// between probe groups. Its spread says how noisy the host was.
fn calibration_loop() -> f64 {
    let mut words = vec![0x9e37_79b9_7f4a_7c15u64; 64 * 1024];
    let t = Instant::now();
    for pass in 0..48u64 {
        for w in words.iter_mut() {
            *w = w.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17) ^ pass;
        }
    }
    black_box(&words);
    ms(t.elapsed().as_nanos() as f64)
}

impl<'a> Probes<'a> {
    /// A probe set recording into `rec`, sized for a `seconds`-long run.
    pub fn new(rec: &'a mut Recorder, seed: u64, seconds: f64) -> Self {
        Self {
            rec,
            seed,
            slice: Duration::from_secs_f64(seconds / 100.0),
            values: BTreeMap::new(),
            calib_ms: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        let fresh = self.values.insert(name, value).is_none();
        assert!(fresh, "{name} measured twice");
    }

    /// Repeats `f` under the repeat policy inside one span; `f` returns
    /// its own sample.
    fn sample<S>(&mut self, layer: &'static str, what: &str, mut f: impl FnMut() -> S) -> Vec<S> {
        let slice = self.slice;
        self.rec.span(layer, what, |_| {
            let begin = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < MIN_REPEATS
                || (samples.len() < MAX_REPEATS && begin.elapsed() < slice)
            {
                samples.push(f());
            }
            samples
        })
    }

    /// p10 wall time of `f`, ns.
    fn time_ns(&mut self, layer: &'static str, what: &str, mut f: impl FnMut()) -> f64 {
        let samples = self.sample(layer, what, || {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        });
        p10(&samples)
    }

    /// p10 wall time of `run` on a fresh untimed `prep()` each repeat, ns.
    fn time_prepared_ns<T>(
        &mut self,
        layer: &'static str,
        what: &str,
        mut prep: impl FnMut() -> T,
        mut run: impl FnMut(T),
    ) -> f64 {
        let samples = self.sample(layer, what, || {
            let input = prep();
            let t = Instant::now();
            run(input);
            t.elapsed().as_nanos() as f64
        });
        p10(&samples)
    }

    fn calibrate(&mut self) {
        self.calib_ms.push(calibration_loop());
    }

    /// Runs every probe and returns `name → value` for every per-layer
    /// metric except the `bench.op_*`, `bench.samples` and
    /// `bench.trace_overhead_x` rows, which belong to the run's own
    /// workload and come from `main`.
    pub fn run_all(mut self) -> BTreeMap<&'static str, f64> {
        self.calibrate();
        self.ff();
        self.calibrate();
        self.ntt();
        self.calibrate();
        self.msm();
        self.calibrate();
        self.zkp();
        self.calibrate();
        self.fri();
        self.calibrate();
        self.engine();
        self.calibrate();
        self.pipeline();
        self.calibrate();
        let raw_op_ns = self.serve();
        self.calibrate();
        self.telemetry(raw_op_ns);
        self.calibrate();
        self.exec(raw_op_ns);
        self.calibrate();
        let (p10_ms, p50_ms) = (p10(&self.calib_ms), median(&self.calib_ms));
        self.put("bench.calib_ms_p10", p10_ms);
        self.put("bench.calib_ms_p50", p50_ms);
        self.values
    }

    /// Element-wise products over cache-resident arrays: throughput, the
    /// way butterflies and Pippenger buckets use the multiplier.
    fn mul_ns<F: Field>(&mut self, what: &str) -> f64 {
        const LEN: usize = 4096;
        const PASSES: usize = 4;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut a: Vec<F> = random_vec(LEN, &mut rng);
        let b: Vec<F> = random_vec(LEN, &mut rng);
        let total = self.time_ns("ff", what, || {
            for _ in 0..PASSES {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x *= *y;
                }
            }
            black_box(&mut a);
        });
        total / (LEN * PASSES) as f64
    }

    fn ff(&mut self) {
        let v = self.mul_ns::<Goldilocks>("Goldilocks mul x16Ki");
        self.put("ff.goldilocks_mul_ns", v);
        let v = self.mul_ns::<BabyBear>("BabyBear mul x16Ki");
        self.put("ff.babybear_mul_ns", v);
        let v = self.mul_ns::<Bn254Fr>("Bn254Fr mul x16Ki");
        self.put("ff.bn254fr_mul_ns", v);
        let v = self.mul_ns::<Bn254Fq>("Bn254Fq mul x16Ki");
        self.put("ff.bn254fq_mul_ns", v);

        const LEN: usize = 4096;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let pristine: Vec<Bn254Fr> = random_vec(LEN, &mut rng);
        let v = self.time_prepared_ns(
            "ff",
            "batch_inverse 4096 Bn254Fr",
            || pristine.clone(),
            |mut v| {
                batch_inverse(&mut v);
                black_box(v);
            },
        );
        self.put("ff.batch_inverse_ns_per_elem", v / LEN as f64);
    }

    fn batch_ms<F: TwoAdicField>(
        &mut self,
        log_n: u32,
        rows: usize,
        direction: Direction,
        what: &str,
    ) -> f64 {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ntt = Ntt::<F>::new(log_n);
        let mut data: Vec<F> = random_vec(rows << log_n, &mut rng);
        let threads = Executor::global().threads();
        ms(self.time_ns("ntt", what, || {
            batch_transform_parallel(&ntt, &mut data, direction, threads)
        }))
    }

    fn ntt(&mut self) {
        const LOG_N: u32 = 22;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let build = self.time_ns("ntt", "TwiddleTable::new 2^22 goldilocks", || {
            black_box(TwiddleTable::<Goldilocks>::new(LOG_N));
        });
        self.put("ntt.twiddle_build_2p22_ms", ms(build));

        // Transforming the previous output again costs the same as a
        // fresh input, so the buffer is never restored.
        let ntt = Ntt::<Goldilocks>::new(LOG_N);
        let mut data: Vec<Goldilocks> = random_vec(1 << LOG_N, &mut rng);
        let fwd = self.time_ns("ntt", "Ntt::forward 2^22 goldilocks", || {
            ntt.forward(&mut data)
        });
        self.put("ntt.gold_2p22_fwd_ms", ms(fwd));
        let butterflies = (1u64 << (LOG_N - 1)) * u64::from(LOG_N);
        self.put("ntt.gold_2p22_ns_per_butterfly", fwd / butterflies as f64);
        let bytes = (8u64 << LOG_N) * 2 * SIX_STEP_PASSES;
        self.put("ntt.gold_2p22_computed_bytes", bytes as f64);
        let inv = self.time_ns("ntt", "Ntt::inverse 2^22 goldilocks", || {
            ntt.inverse(&mut data)
        });
        self.put("ntt.gold_2p22_inv_ms", ms(inv));

        let t = self.time_ns("ntt", "transpose 2048x2048 goldilocks", || {
            black_box(transpose(&data, 2048, 2048));
        });
        self.put("ntt.transpose_2048_ms", ms(t));
        let t = self.time_ns("ntt", "bit_reverse_permute 2^20 goldilocks", || {
            bit_reverse_permute(&mut data[..1 << 20])
        });
        self.put("ntt.bitrev_2p20_ms", ms(t));
        drop(data);

        let ntt = Ntt::<BabyBear>::new(LOG_N);
        let mut data: Vec<BabyBear> = random_vec(1 << LOG_N, &mut rng);
        let t = self.time_ns("ntt", "Ntt::forward 2^22 babybear", || {
            ntt.forward(&mut data)
        });
        self.put("ntt.bb_2p22_fwd_ms", ms(t));
        drop(data);

        let v = self.batch_ms::<Goldilocks>(
            12,
            1024,
            Direction::Forward,
            "batch_transform_parallel 1024x2^12 goldilocks fwd",
        );
        self.put("ntt.gold_2p12x1024_ms", v);
        let v = self.batch_ms::<Goldilocks>(
            16,
            64,
            Direction::Inverse,
            "batch_transform_parallel 64x2^16 goldilocks inv",
        );
        self.put("ntt.gold_2p16x64_ms", v);
        let v = self.batch_ms::<BabyBear>(
            12,
            1024,
            Direction::Forward,
            "batch_transform_parallel 1024x2^12 babybear fwd",
        );
        self.put("ntt.bb_2p12x1024_ms", v);

        // The BN254 transform size PLONK's quotient runs at for 2^9 gates.
        let ntt = Ntt::<Bn254Fr>::new(11);
        let mut data: Vec<Bn254Fr> = random_vec(1 << 11, &mut rng);
        let t = self.time_ns("ntt", "Ntt::forward 2^11 bn254fr", || {
            ntt.forward(&mut data)
        });
        self.put("ntt.bn254_2p11_fwd_ms", ms(t));

        // The LDE `stark-commit` runs: 8 columns of 2^11 at blowup 4.
        let columns: Vec<Vec<Goldilocks>> = (0..StarkCommit::COLUMNS)
            .map(|_| random_vec(1 << StarkCommit::LOG_TRACE, &mut rng))
            .collect();
        let log_blowup = FriConfig::standard().log_blowup;
        let t = self.time_ns("ntt", "low_degree_extension 8x2^11 blowup 4", || {
            for column in &columns {
                black_box(low_degree_extension(
                    column,
                    log_blowup,
                    Goldilocks::GENERATOR,
                ));
            }
        });
        self.put("ntt.lde_2p11x8_ms", ms(t));
    }

    fn msm(&mut self) {
        const N: usize = 1 << PlonkProve::LOG_GATES;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let scalars: Vec<Bn254Fr> = random_vec(N, &mut rng);
        let points: Vec<G1Affine> = (0..N).map(|_| G1Affine::random(&mut rng)).collect();

        let t = self.time_ns("msm", "msm_parallel 2^9", || {
            black_box(msm_parallel(&scalars, &points));
        });
        self.put("msm.parallel_2p9_ms", ms(t));
        let serial = self.time_ns("msm", "msm 2^9", || {
            black_box(msm(&scalars, &points));
        });
        self.put("msm.serial_2p9_ms", ms(serial));
        let group_ops = pippenger_group_ops(N as u64, optimal_window_bits(N));
        self.put("msm.group_ops_2p9", group_ops as f64);
        self.put("msm.ns_per_group_op", serial / group_ops as f64);

        const CHAIN: usize = 1024;
        let mut acc = points[0].to_projective();
        let t = self.time_ns("msm", "G1Projective::add_affine x1024", || {
            for p in points.iter().cycle().take(CHAIN) {
                acc = acc.add_affine(p);
            }
            black_box(&mut acc);
        });
        self.put("msm.g1_add_ns", t / CHAIN as f64);
        let t = self.time_ns("msm", "G1Projective::double x1024", || {
            for _ in 0..CHAIN {
                acc = acc.double();
            }
            black_box(&mut acc);
        });
        self.put("msm.g1_double_ns", t / CHAIN as f64);
    }

    /// Runs `w`'s staged op repeatedly under a private recorder and
    /// returns, per span name, the p10 over repeats of that name's total
    /// time in ms, plus the p10 of the whole op under `"total"`.
    fn staged_ms(
        &mut self,
        layer: &'static str,
        what: &str,
        w: &mut dyn Workload,
    ) -> BTreeMap<String, f64> {
        let runs = self.sample(layer, what, || {
            let mut local = Recorder::on();
            local.op("staged", |rec| w.op(rec));
            let recorded = local.spans();
            let mut sums: BTreeMap<String, f64> = BTreeMap::new();
            for s in &recorded[1..] {
                *sums.entry(s.name.clone()).or_default() += s.duration_ns() as f64 / 1e6;
            }
            sums.insert("total".into(), recorded[0].duration_ns() as f64 / 1e6);
            sums
        });
        let mut out = BTreeMap::new();
        for name in runs[0].keys() {
            let samples: Vec<f64> = runs.iter().map(|r| r[name]).collect();
            out.insert(name.clone(), p10(&samples));
        }
        out
    }

    fn zkp(&mut self) {
        let mut w = PlonkProve::setup(self.seed);
        let (circuit, seed) = (w.circuit().clone(), self.seed);
        let t = self.time_ns("zkp", "setup 2^9 gates", || {
            let mut rng = StdRng::seed_from_u64(seed);
            black_box(unintt_zkp::setup(&circuit, &mut rng));
        });
        self.put("zkp.setup_ms", ms(t));

        let mono = self.time_ns("zkp", "prove 2^9 gates", || w.op(&mut Recorder::off()));
        self.put("zkp.mono_prove_ms", ms(mono));
        let (vk, proof) = (w.vk().clone(), w.proof().expect("just proved").clone());
        let t = self.time_ns("zkp", "verify", || {
            black_box(verify(&vk, &proof, &[]));
        });
        self.put("zkp.verify_ms", ms(t));

        let staged = self.staged_ms("zkp", "StagedProver::run_stage x16", &mut w);
        let kind_ms = |kind: &str| -> f64 {
            staged
                .iter()
                .filter(|(name, _)| name.starts_with(kind) && name[kind.len()..].starts_with(':'))
                .map(|(_, v)| v)
                .sum()
        };
        self.put("zkp.stage_msm_ms", kind_ms("msm"));
        self.put("zkp.stage_ntt_ms", kind_ms("ntt"));
        self.put("zkp.stage_pointwise_ms", kind_ms("pointwise"));
        self.put("zkp.stage_barrier_ms", kind_ms("barrier"));
        self.put("zkp.staged_total_ms", staged["total"]);
        self.put("zkp.staged_over_mono_x", staged["total"] / ms(mono));
    }

    fn fri(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let row: Vec<Goldilocks> = random_vec(8, &mut rng);
        const HASHES: usize = 1024;
        let t = self.time_ns("fri", "hash_elements 8 x1024", || {
            for _ in 0..HASHES {
                black_box(hash_elements(black_box(&row)));
            }
        });
        self.put("fri.hash_elements8_ns", t / HASHES as f64);
        let (left, right) = (hash_elements(&row[..4]), hash_elements(&row[4..]));
        let t = self.time_ns("fri", "compress x1024", || {
            for _ in 0..HASHES {
                black_box(compress(black_box(&left), black_box(&right)));
            }
        });
        self.put("fri.compress_ns", t / HASHES as f64);

        let mut w = StarkCommit::setup(self.seed);
        let config = w.config();
        let lde_rows = 1usize << (StarkCommit::LOG_TRACE + config.log_blowup);
        let rows: Vec<Vec<Goldilocks>> = (0..lde_rows)
            .map(|_| random_vec(StarkCommit::COLUMNS, &mut rng))
            .collect();
        let t = self.time_ns("fri", "MerkleTree::commit 2^13x8", || {
            black_box(MerkleTree::commit(&rows));
        });
        self.put("fri.merkle_commit_2p13x8_ms", ms(t));
        // One commit's permutations: the trace tree's leaves and interior
        // nodes, then every FRI layer.
        let permutations = lde_rows as u64 * permutations_for(StarkCommit::COLUMNS)
            + (lde_rows as u64 - 1)
            + prove_hash_permutations(&config, lde_rows);
        self.put("fri.hash_permutations", permutations as f64);

        let mono = self.time_ns("fri", "commit_trace 2^11x8", || w.op(&mut Recorder::off()));
        self.put("fri.mono_commit_ms", ms(mono));
        let commitment = w.commitment().expect("just committed").clone();
        let t = self.time_ns("fri", "verify_trace", || {
            black_box(verify_trace(&commitment, &config));
        });
        self.put("fri.verify_ms", ms(t));

        let staged = self.staged_ms("fri", "StagedCommit::run_stage x6", &mut w);
        self.put("fri.stage_trace_coset_ms", staged["trace-coset"]);
        self.put("fri.stage_trace_merkle_ms", staged["trace-merkle"]);
        self.put("fri.stage_alpha_combine_ms", staged["alpha-combine"]);
        self.put("fri.stage_fri_finalize_ms", staged["fri-finalize"]);
        self.put("fri.staged_total_ms", staged["total"]);
        self.put("fri.staged_over_mono_x", staged["total"] / ms(mono));
    }

    /// `gpu-sim` and `core`, around the `engine-sim` fixture.
    fn engine(&mut self) {
        let mut w = EngineSim::setup(self.seed);
        w.op(&mut Recorder::off());
        let sim = w
            .check(0)
            .expect("engine-sim output")
            .sim
            .expect("simulated");
        self.put("sim.engine_horizon_us", sim.horizon_us);
        self.put("sim.engine_speedup_x", sim.speedup_x.expect("sweep ran"));

        let stats = w.stats().expect("op ran").clone();
        self.put("gpu-sim.sim_compute_ns", stats.time_ns.compute);
        self.put("gpu-sim.sim_globalmem_ns", stats.time_ns.global_mem);
        self.put("gpu-sim.sim_interconnect_ns", stats.time_ns.interconnect);
        self.put("gpu-sim.comm_hidden_ns", stats.comm_hidden_ns);
        self.put(
            "gpu-sim.global_bytes",
            (stats.global_bytes_read + stats.global_bytes_written) as f64,
        );
        self.put(
            "gpu-sim.interconnect_bytes",
            stats.interconnect_bytes_sent as f64,
        );
        self.put("gpu-sim.kernels_launched", stats.kernels_launched as f64);
        self.put("gpu-sim.collectives", stats.collectives as f64);
        self.put("gpu-sim.field_muls", stats.field_muls as f64);

        let cfg = presets::a100_nvlink(EngineSim::GPUS);
        let t = self.time_ns("gpu-sim", "E1 sweep simulate_forward", || {
            black_box(e1_sweep(&cfg));
        });
        self.put("gpu-sim.simulate_sweep_us", us(t));

        let fs = FieldSpec::goldilocks();
        let log_n = EngineSim::LOG_N;
        let t = self.time_ns("core", "UniNttEngine::new 2^18", || {
            black_box(UniNttEngine::<Goldilocks>::new(
                log_n,
                &cfg,
                UniNttOptions::tuned_for(&fs),
                fs,
            ));
        });
        self.put("core.plan_build_us", us(t));

        let input = w.input().to_vec();
        let unintt =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let fwd = self.time_prepared_ns(
            "core",
            "UniNttEngine::forward 2^18",
            || {
                (
                    Machine::new(cfg.clone(), fs),
                    Sharded::distribute(&input, EngineSim::GPUS, ShardLayout::Cyclic),
                )
            },
            |(mut machine, mut data)| unintt.forward(&mut machine, &mut data),
        );
        self.put("core.unintt_fwd_2p18_ms", ms(fwd));
        let four_step = unintt_core::FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
        let t = self.time_prepared_ns(
            "core",
            "FourStepMultiGpuEngine::forward 2^18",
            || {
                (
                    Machine::new(cfg.clone(), fs),
                    Sharded::distribute(&input, EngineSim::GPUS, ShardLayout::NaturalBlocks),
                )
            },
            |(mut machine, mut data)| four_step.forward(&mut machine, &mut data),
        );
        self.put("core.fourstep_fwd_2p18_ms", ms(t));
        let host = Ntt::<Goldilocks>::new(log_n);
        let mut data = input.clone();
        let host_ns = self.time_ns("ntt", "Ntt::forward 2^18 goldilocks", || {
            host.forward(&mut data)
        });
        self.put("core.sim_overhead_x", fwd / host_ns);

        let t = self.cluster_fwd_ns::<Goldilocks>(10, FieldSpec::goldilocks());
        self.put("core.cluster_fwd_2p10_us", us(t));
    }

    /// One `ClusterNttEngine::forward_with_recovery` on the default lease
    /// shape (2 nodes × 2 A100): the per-job engine cost inside
    /// `serve-raw` and `fleet-chaos`.
    fn cluster_fwd_ns<F: TwoAdicField>(&mut self, log_n: u32, fs: FieldSpec) -> f64 {
        let lease = unintt_serve::LeaseShape::default();
        let node_cfg = presets::a100_nvlink(lease.gpus_per_node);
        let engine = ClusterNttEngine::<F>::new(
            log_n,
            lease.nodes,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(lease.nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let input: Vec<F> = random_vec(1 << log_n, &mut rng);
        let policy = RecoveryPolicy::default();
        self.time_ns(
            "core",
            &format!("ClusterNttEngine::forward_with_recovery 2^{log_n}"),
            || {
                black_box(
                    engine
                        .forward_with_recovery(&mut cluster, &input, &policy)
                        .expect("no faults injected"),
                );
            },
        )
    }

    /// The host reference transform `serve` checks each raw job against.
    fn reference_ntt_ns<F: TwoAdicField>(&mut self, log_n: u32) -> f64 {
        let ntt = Ntt::<F>::new(log_n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut data: Vec<F> = random_vec(1 << log_n, &mut rng);
        self.time_ns(
            "ntt",
            &format!("Ntt::forward 2^{log_n} (serve reference)"),
            || ntt.forward(&mut data),
        )
    }

    fn pipeline(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let gpus = unintt_serve::LeaseShape::default().total_gpus();
        let (circuit, witness) = random_circuit(1 << 6, &mut rng);
        let (pk, _) = unintt_zkp::setup(&circuit, &mut rng);
        let columns: Vec<Vec<Goldilocks>> = (0..4).map(|_| random_vec(1 << 8, &mut rng)).collect();
        let build = || -> Vec<ProofPipeline> {
            let plonk = || {
                let backend =
                    Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
                ProofPipeline::plonk(&pk, &witness, &[], backend)
            };
            let stark = || {
                let backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
                ProofPipeline::stark(columns.clone(), FriConfig::standard(), backend)
            };
            vec![plonk(), plonk(), stark(), stark()]
        };
        let executor =
            DagExecutor::interleaved(2).with_streams(2, InterferenceModel::default_model());
        let stages: usize = build().iter().map(ProofPipeline::num_stages).sum();
        let mut report = None;
        let t = self.time_prepared_ns(
            "pipeline",
            "DagExecutor::run 2 plonk 2^6 + 2 stark 2^8x4",
            build,
            |pipes| report = Some(executor.run(pipes)),
        );
        let report = report.expect("ran at least once");
        self.put("pipeline.dag_run_ms", ms(t));
        self.put("pipeline.sim_makespan_us", report.makespan_ns / 1e3);
        self.put("pipeline.sim_occupancy", report.occupancy());
        self.put("pipeline.stages_run", stages as f64);
    }

    /// The `serve` layer, around the three serving fixtures. Returns the
    /// `serve-raw` op p10 in ns for the probes that compare against it.
    fn serve(&mut self) -> f64 {
        let mut raw = ServeRaw::setup(self.seed);
        let raw_op_ns = self.time_ns("serve", "serve-raw op", || raw.op(&mut Recorder::off()));
        self.put(
            "serve.raw_us_per_job",
            us(raw_op_ns) / ServeRaw::JOBS as f64,
        );
        let sim = raw
            .check(0)
            .expect("serve-raw output")
            .sim
            .expect("simulated");
        self.put("sim.serve_raw_horizon_us", sim.horizon_us);
        self.put(
            "sim.serve_raw_latency_p95_us",
            sim.latency_p95_us.expect("jobs completed"),
        );
        let metrics = raw.report().expect("op ran").metrics.clone();
        self.put("serve.dispatches", metrics.dispatches as f64);
        self.put("serve.mean_batch_size", metrics.mean_batch_size());
        self.put("serve.mean_occupancy", metrics.mean_occupancy());
        self.put("serve.peak_queue_depth", metrics.peak_queue_depth as f64);

        let spec = *raw.spec();
        let t = self.time_ns("serve", "WorkloadSpec::generate 512", || {
            black_box(spec.generate());
        });
        self.put("serve.generate_us", us(t));
        let jobs = spec.generate();
        let cfg = unintt_serve::ServiceConfig::default();
        let t = self.time_prepared_ns(
            "serve",
            "ProofService::submit_all 512",
            || (ProofService::new(cfg.clone()), jobs.clone()),
            |(mut service, jobs)| {
                black_box(service.submit_all(jobs));
            },
        );
        self.put("serve.submit_us", us(t));

        // Self share by subtraction: what the same jobs cost when the
        // engine and the host reference transform are called directly.
        let mut counts: BTreeMap<(ServiceField, u32), usize> = BTreeMap::new();
        for job in &jobs {
            if let JobClass::RawNtt { field, log_n, .. } = job.class {
                *counts.entry((field, log_n)).or_default() += 1;
            }
        }
        let mut below_ns = 0.0;
        for ((field, log_n), count) in counts {
            let per_job = match field {
                ServiceField::Goldilocks => {
                    self.cluster_fwd_ns::<Goldilocks>(log_n, FieldSpec::goldilocks())
                        + self.reference_ntt_ns::<Goldilocks>(log_n)
                }
                ServiceField::BabyBear => {
                    self.cluster_fwd_ns::<BabyBear>(log_n, FieldSpec::babybear())
                        + self.reference_ntt_ns::<BabyBear>(log_n)
                }
            };
            below_ns += per_job * count as f64;
        }
        self.put("serve.self_share", 1.0 - below_ns / raw_op_ns);

        let mut proofs = ServeProofs::setup(self.seed);
        proofs.op(&mut Recorder::off());
        let sim = proofs
            .check(0)
            .expect("serve-proofs output")
            .sim
            .expect("simulated");
        self.put("sim.serve_proofs_horizon_us", sim.horizon_us);
        self.put(
            "sim.serve_proofs_latency_p95_us",
            sim.latency_p95_us.expect("jobs completed"),
        );
        let stage_ns = &proofs.report().expect("op ran").stage_ns;
        let total: f64 = stage_ns.values().sum();
        let share = |kind: &str| stage_ns.get(kind).map_or(0.0, |ns| ns / total);
        self.put("serve.stage_share_msm", share("msm"));
        self.put("serve.stage_share_ntt", share("ntt"));

        let mut fleet = FleetChaos::setup(self.seed);
        fleet.op(&mut Recorder::off());
        let sim = fleet
            .check(0)
            .expect("fleet-chaos output")
            .sim
            .expect("simulated");
        self.put("sim.fleet_chaos_horizon_us", sim.horizon_us);
        self.put(
            "sim.fleet_chaos_latency_p95_us",
            sim.latency_p95_us.expect("jobs completed"),
        );
        let report = fleet.report().expect("op ran");
        let retries: u64 = report.metrics.classes.values().map(|c| c.retries).sum();
        self.put("serve.retries", retries as f64);
        self.put("serve.shed", report.metrics.shed() as f64);
        self.put("serve.fleet_failovers", report.fleet.failovers as f64);
        self.put("serve.fleet_hedges", report.fleet.hedges as f64);
        self.put("serve.fleet_quarantines", report.fleet.quarantines as f64);
        self.put("serve.fleet_probes", report.fleet.probes as f64);
        raw_op_ns
    }

    fn telemetry(&mut self, raw_op_ns: f64) {
        let mut raw = ServeRaw::setup(self.seed);
        let mut session = None;
        let on_ns = self.time_ns("telemetry", "serve-raw op under start_session", || {
            let _guard = unintt_telemetry::start_session();
            raw.op(&mut Recorder::off());
            session = Some(unintt_telemetry::take_session());
        });
        self.put("telemetry.enabled_overhead_x", on_ns / raw_op_ns);
        let session = session.expect("ran at least once");
        self.put("telemetry.spans_per_op", session.spans.len() as f64);
        let t = self.time_ns("telemetry", "chrome_trace_json", || {
            black_box(unintt_telemetry::chrome_trace_json(&session));
        });
        self.put("telemetry.export_ms", ms(t));

        const OBSERVATIONS: usize = 4096;
        let mut hist = StreamHist::new();
        let t = self.time_ns("telemetry", "StreamHist::observe x4096", || {
            for i in 0..OBSERVATIONS {
                hist.observe(black_box(1_000.0 + i as f64 * 37.0));
            }
        });
        black_box(&hist);
        self.put("telemetry.hist_record_ns", t / OBSERVATIONS as f64);
    }

    /// Pool cost and what the pool buys: an empty fork-join, and for the
    /// two pool-heavy shapes the op p10 with `UNINTT_THREADS=1` (from a
    /// short child process of this binary) over the p10 at the default
    /// pool size. For the batches the one-thread side is the `ntt-batch`
    /// op itself and the default side the same three batches fanned out
    /// over `nproc` chunks, probed above.
    fn exec(&mut self, raw_op_ns: f64) {
        let pool = Executor::global();
        let t = self.time_ns("exec", "Executor::scope empty x nproc", || {
            pool.scope(|s| {
                for _ in 0..pool.threads() {
                    s.spawn(|| {});
                }
            });
        });
        self.put("exec.fork_join_us", us(t));

        let batch_ms = self.values["ntt.gold_2p12x1024_ms"]
            + self.values["ntt.gold_2p16x64_ms"]
            + self.values["ntt.bb_2p12x1024_ms"];
        let (seed, seconds) = (self.seed, self.slice.as_secs_f64() * 3.0);
        let one = self
            .rec
            .span("exec", "ntt-batch child UNINTT_THREADS=1", |_| {
                crate::child_op_ms("ntt-batch", seed, seconds, Some("1"))
            });
        self.put("exec.ntt_batch_scaling_x", one / batch_ms);
        let one = self
            .rec
            .span("exec", "serve-raw child UNINTT_THREADS=1", |_| {
                crate::child_op_ms("serve-raw", seed, seconds, Some("1"))
            });
        self.put("exec.serve_raw_scaling_x", one / ms(raw_op_ns));
    }
}
