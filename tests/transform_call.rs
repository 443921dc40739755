//! What a transform call costs, pinned against what it computed before.
//!
//! `Ntt` now holds its kernel plan, and the simulator's two hand-written
//! loops around tiny transforms are two `ntt` kernels:
//!
//! * `Ntt::forward_columns` / `inverse_columns` replace the gather →
//!   `outer.forward(&mut col)` → scatter loops of `UniNttEngine` and
//!   `ClusterNttEngine`; the per-column calls they stood for are the
//!   oracle here;
//! * `scale_by_powers` replaces the serial `*v *= cur; cur *= step`
//!   chains of the boundary twiddles and coset scalings; the chain is the
//!   oracle here.
//!
//! The engines' output digests and simulated clocks below were captured
//! from the last commit that had the loops, so the rewrite is checked
//! against what the loops produced and not against itself. The Makefile
//! reruns this file on one-thread and eight-thread pools: none of it may
//! depend on the pool.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{
    Cluster, ClusterNttEngine, FourStepMultiGpuEngine, NetworkConfig, RecoveryPolicy, ShardLayout,
    Sharded, UniNttEngine, UniNttOptions,
};
use unintt_ff::{BabyBear, Bn254Fr, Field, Goldilocks, PrimeField, TwoAdicField};
use unintt_gpu_sim::{presets, FaultEvent, FaultKind, FaultPlan, FieldSpec, Machine};
use unintt_ntt::{scale_by_powers, Ntt};

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

/// FNV-1a over every limb of every element's canonical value.
fn digest<F: PrimeField>(xs: &[F]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for limb in x.to_canonical_u256().0 {
            h = (h ^ limb).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------
// (a) The column transform against per-column calls.
// ---------------------------------------------------------------------

/// Random elements with `{0, 1, p − 1}` sprinkled in.
fn edgy_vec<F: PrimeField>(n: usize, seed: u64) -> Vec<F> {
    let edges = [F::ZERO, F::ONE, -F::ONE];
    let mut v = random_vec::<F>(n, seed);
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 0 {
            *x = edges[(i / 5) % 3];
        }
    }
    v
}

fn columns_match_per_column_calls<F: TwoAdicField>() {
    for log_n in 0..=4u32 {
        let n = 1usize << log_n;
        let ntt = Ntt::<F>::new(log_n);
        for cols in [1usize, 3, 8, 33, 4096] {
            let input = edgy_vec::<F>(n * cols, 1000 * u64::from(log_n) + cols as u64);
            for inverse in [false, true] {
                let mut expected = input.clone();
                let mut col = vec![F::ZERO; n];
                for c in 0..cols {
                    for (r, slot) in col.iter_mut().enumerate() {
                        *slot = expected[r * cols + c];
                    }
                    if inverse {
                        ntt.inverse(&mut col);
                    } else {
                        ntt.forward(&mut col);
                    }
                    for (r, &v) in col.iter().enumerate() {
                        expected[r * cols + c] = v;
                    }
                }
                let mut actual = input.clone();
                if inverse {
                    ntt.inverse_columns(&mut actual);
                } else {
                    ntt.forward_columns(&mut actual);
                }
                assert!(
                    actual == expected,
                    "{} n={n} cols={cols} inverse={inverse}",
                    F::NAME
                );
            }
        }
        // No columns at all is a no-op, not a panic.
        ntt.forward_columns(&mut []);
    }
}

#[test]
fn column_transform_matches_per_column_calls() {
    columns_match_per_column_calls::<Goldilocks>();
    columns_match_per_column_calls::<BabyBear>();
    columns_match_per_column_calls::<Bn254Fr>();
}

#[test]
#[should_panic(expected = "do not form columns")]
fn ragged_matrix_is_rejected() {
    Ntt::<Goldilocks>::new(3).forward_columns(&mut [Goldilocks::ONE; 12]);
}

// ---------------------------------------------------------------------
// (b) The running product against the serial chain.
// ---------------------------------------------------------------------

fn powers_match_the_serial_chain<F: TwoAdicField>() {
    let start = F::from_u64(0x1234_5678_9abc);
    for step in [F::ZERO, F::ONE, F::GENERATOR, -F::ONE] {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1000] {
            let input = edgy_vec::<F>(len, len as u64);
            let mut expected = input.clone();
            let mut cur = start;
            for v in expected.iter_mut() {
                *v *= cur;
                cur *= step;
            }
            let mut actual = input;
            scale_by_powers(&mut actual, start, step);
            assert!(actual == expected, "{} len={len} step={step:?}", F::NAME);
        }
    }
    // `start = 1`, as the boundary twiddles call it.
    let mut actual = edgy_vec::<F>(100, 9);
    let mut expected = actual.clone();
    let mut cur = F::ONE;
    for v in expected.iter_mut() {
        *v *= cur;
        cur *= F::GENERATOR;
    }
    scale_by_powers(&mut actual, F::ONE, F::GENERATOR);
    assert!(actual == expected, "{} start=1", F::NAME);
}

#[test]
fn scale_by_powers_matches_the_serial_chain() {
    powers_match_the_serial_chain::<Goldilocks>();
    powers_match_the_serial_chain::<BabyBear>();
    powers_match_the_serial_chain::<Bn254Fr>();
}

// ---------------------------------------------------------------------
// (c) The engines against the capture.
// ---------------------------------------------------------------------

/// `(name, output digest, simulated-clock bits)` of every pinned run.
fn engine_runs() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    unintt::<Goldilocks>(&mut out, "gl", 12, 4, FieldSpec::goldilocks());
    unintt::<Goldilocks>(&mut out, "gl", 14, 8, FieldSpec::goldilocks());
    unintt::<Goldilocks>(&mut out, "gl", 9, 1, FieldSpec::goldilocks());
    unintt::<BabyBear>(&mut out, "bb", 11, 8, FieldSpec::babybear());
    unintt::<Bn254Fr>(&mut out, "bn", 10, 2, FieldSpec::bn254_fr());
    four_step(&mut out, 12, 8);
    four_step(&mut out, 10, 2);
    cluster(&mut out);
    out
}

fn unintt<F: TwoAdicField>(
    out: &mut Vec<(String, u64, u64)>,
    tag: &str,
    log_n: u32,
    gpus: usize,
    fs: FieldSpec,
) {
    let cfg = presets::a100_nvlink(gpus);
    let input = random_vec::<F>(1 << log_n, 7 + u64::from(log_n));
    for (opt_tag, opts) in [
        ("tuned", UniNttOptions::tuned_for(&fs)),
        ("none", UniNttOptions::none()),
    ] {
        let engine = UniNttEngine::<F>::new(log_n, &cfg, opts, fs);
        let name = |what: &str| format!("unintt {tag} 2^{log_n} g{gpus} {opt_tag} {what}");

        let mut machine = Machine::new(cfg.clone(), fs);
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        out.push((
            name("forward"),
            digest(&data.collect()),
            machine.max_clock_ns().to_bits(),
        ));
        engine.inverse(&mut machine, &mut data);
        assert_eq!(data.collect(), input, "{}", name("roundtrip"));
        out.push((
            name("inverse"),
            digest(&data.collect()),
            machine.max_clock_ns().to_bits(),
        ));

        let mut machine = Machine::new(cfg.clone(), fs);
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.coset_forward(&mut machine, &mut data, F::GENERATOR);
        out.push((
            name("coset-forward"),
            digest(&data.collect()),
            machine.max_clock_ns().to_bits(),
        ));
        engine.coset_inverse(&mut machine, &mut data, F::GENERATOR);
        assert_eq!(data.collect(), input, "{}", name("coset roundtrip"));
        out.push((
            name("coset-inverse"),
            digest(&data.collect()),
            machine.max_clock_ns().to_bits(),
        ));

        let mut machine = Machine::new(cfg.clone(), fs);
        let mut batch: Vec<Sharded<F>> = (0..3)
            .map(|i| {
                Sharded::distribute(
                    &random_vec::<F>(1 << log_n, 100 + i),
                    gpus,
                    ShardLayout::Cyclic,
                )
            })
            .collect();
        engine.coset_forward_batch(&mut machine, &mut batch, F::GENERATOR);
        let all: Vec<F> = batch.iter().flat_map(Sharded::collect).collect();
        out.push((
            name("coset-forward-batch3"),
            digest(&all),
            machine.max_clock_ns().to_bits(),
        ));
    }
}

fn four_step(out: &mut Vec<(String, u64, u64)>, log_n: u32, gpus: usize) {
    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(gpus);
    let input = random_vec::<Goldilocks>(1 << log_n, 31 + u64::from(log_n));
    let engine = FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
    let mut machine = Machine::new(cfg, fs);
    let mut data = Sharded::distribute(&input, gpus, ShardLayout::NaturalBlocks);
    engine.forward(&mut machine, &mut data);
    out.push((
        format!("four-step 2^{log_n} g{gpus} forward"),
        digest(&data.collect()),
        machine.max_clock_ns().to_bits(),
    ));
    engine.inverse(&mut machine, &mut data);
    assert_eq!(data.collect(), input);
    out.push((
        format!("four-step 2^{log_n} g{gpus} inverse"),
        digest(&data.collect()),
        machine.max_clock_ns().to_bits(),
    ));
}

fn cluster(out: &mut Vec<(String, u64, u64)>) {
    let fs = FieldSpec::goldilocks();
    let node_cfg = presets::a100_nvlink(4);
    let input = random_vec::<Goldilocks>(1 << 12, 41);
    let engine =
        ClusterNttEngine::<Goldilocks>::new(12, 4, &node_cfg, UniNttOptions::tuned_for(&fs), fs);

    let mut cl = Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
    let mut shards = engine.distribute(&input);
    engine.forward(&mut cl, &mut shards);
    out.push((
        "cluster 2^12 t4 g4 forward".into(),
        digest(&engine.collect(&shards)),
        cl.total_time_ns().to_bits(),
    ));

    let mut cl = Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
    let report = engine
        .forward_with_recovery(&mut cl, &input, &RecoveryPolicy::default())
        .unwrap();
    out.push((
        "cluster 2^12 t4 g4 recovery clean".into(),
        digest(&report.output),
        cl.total_time_ns().to_bits(),
    ));

    // Node 1 loses a GPU at its first collective, node 0 drops one: a
    // retry inside the first attempt, then a replan over two survivors.
    let mut cl = Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
    cl.node_mut(0)
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq: 0,
            kind: FaultKind::Drop,
        }]));
    cl.node_mut(1)
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq: 0,
            kind: FaultKind::DeviceLoss { device: 3 },
        }]));
    let report = engine
        .forward_with_recovery(&mut cl, &input, &RecoveryPolicy::default())
        .unwrap();
    assert_eq!((report.replans, report.nodes_used), (1, 2));
    out.push((
        "cluster 2^12 t4 g4 recovery replan".into(),
        digest(&report.output),
        cl.total_time_ns().to_bits(),
    ));

    // The serving shape: 2 nodes x 2 GPUs at 2^10.
    let node_cfg = presets::a100_nvlink(2);
    let input = random_vec::<Goldilocks>(1 << 10, 43);
    let engine =
        ClusterNttEngine::<Goldilocks>::new(10, 2, &node_cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut cl = Cluster::new(2, node_cfg, NetworkConfig::infiniband_400g(), fs);
    let report = engine
        .forward_with_recovery(&mut cl, &input, &RecoveryPolicy::default())
        .unwrap();
    out.push((
        "cluster 2^10 t2 g2 recovery clean".into(),
        digest(&report.output),
        cl.total_time_ns().to_bits(),
    ));
}

/// `(run, output digest, simulated-clock bits)` captured at `e2d67ef`,
/// the last commit with the per-column and serial-chain loops.
const ENGINE_PINS: [(&str, u64, u64); 58] = [
    (
        "unintt gl 2^12 g4 tuned forward",
        0x6af3_f38c_82ca_c07b,
        0x40da_2672_c965_627d,
    ),
    (
        "unintt gl 2^12 g4 tuned inverse",
        0x1392_6a5e_55b9_0ee1,
        0x40ea_2672_c965_627d,
    ),
    (
        "unintt gl 2^12 g4 tuned coset-forward",
        0xf1a9_117f_4f22_cae9,
        0x40de_19cb_c051_69c0,
    ),
    (
        "unintt gl 2^12 g4 tuned coset-inverse",
        0x1392_6a5e_55b9_0ee1,
        0x40ee_19cb_c051_69c1,
    ),
    (
        "unintt gl 2^12 g4 tuned coset-forward-batch3",
        0x726f_8bab_e26e_cb6e,
        0x40de_1f01_360f_792b,
    ),
    (
        "unintt gl 2^12 g4 none forward",
        0x6af3_f38c_82ca_c07b,
        0x40e5_7f02_ab2c_24b9,
    ),
    (
        "unintt gl 2^12 g4 none inverse",
        0x1392_6a5e_55b9_0ee1,
        0x40f6_9283_3bce_dbc8,
    ),
    (
        "unintt gl 2^12 g4 none coset-forward",
        0xf1a9_117f_4f22_cae9,
        0x40e7_a603_cc71_92d5,
    ),
    (
        "unintt gl 2^12 g4 none coset-inverse",
        0x1392_6a5e_55b9_0ee1,
        0x40f8_b984_5d14_49e4,
    ),
    (
        "unintt gl 2^12 g4 none coset-forward-batch3",
        0x726f_8bab_e26e_cb6e,
        0x4101_bc82_d955_2e21,
    ),
    (
        "unintt gl 2^14 g8 tuned forward",
        0x412b_eb6d_35d8_9c80,
        0x40da_d979_0017_634d,
    ),
    (
        "unintt gl 2^14 g8 tuned inverse",
        0xeb51_e2ba_7d6a_628f,
        0x40ea_d979_0017_634c,
    ),
    (
        "unintt gl 2^14 g8 tuned coset-forward",
        0xf921_b018_6d18_4034,
        0x40de_d82a_edef_71d4,
    ),
    (
        "unintt gl 2^14 g8 tuned coset-inverse",
        0xeb51_e2ba_7d6a_628f,
        0x40ee_d82a_edef_71d3,
    ),
    (
        "unintt gl 2^14 g8 tuned coset-forward-batch3",
        0xdf52_594f_43b1_d3e3,
        0x40de_e3a6_ea7c_a1ba,
    ),
    (
        "unintt gl 2^14 g8 none forward",
        0x412b_eb6d_35d8_9c80,
        0x40e8_5e1d_4da1_462e,
    ),
    (
        "unintt gl 2^14 g8 none inverse",
        0xeb51_e2ba_7d6a_628f,
        0x40f9_721e_6ee6_b44b,
    ),
    (
        "unintt gl 2^14 g8 none coset-forward",
        0xf921_b018_6d18_4034,
        0x40ea_861f_902c_2266,
    ),
    (
        "unintt gl 2^14 g8 none coset-inverse",
        0xeb51_e2ba_7d6a_628f,
        0x40fb_9a20_b171_9083,
    ),
    (
        "unintt gl 2^14 g8 none coset-forward-batch3",
        0xdf52_594f_43b1_d3e3,
        0x4103_e497_ac21_19ce,
    ),
    (
        "unintt gl 2^9 g1 tuned forward",
        0x36de_23d3_324d_fc63,
        0x40b1_3404_8515_b870,
    ),
    (
        "unintt gl 2^9 g1 tuned inverse",
        0x2bc5_0c93_01ae_76d5,
        0x40c1_3404_8515_b870,
    ),
    (
        "unintt gl 2^9 g1 tuned coset-forward",
        0x47f2_767c_018d_2b7c,
        0x40c0_755b_3976_e37b,
    ),
    (
        "unintt gl 2^9 g1 tuned coset-inverse",
        0x2bc5_0c93_01ae_76d5,
        0x40d0_755b_3976_e37b,
    ),
    (
        "unintt gl 2^9 g1 tuned coset-forward-batch3",
        0x4695_4daf_649b_3269,
        0x40c0_795f_be8c_9bea,
    ),
    (
        "unintt gl 2^9 g1 none forward",
        0x36de_23d3_324d_fc63,
        0x40b6_b79a_5384_89fc,
    ),
    (
        "unintt gl 2^9 g1 none inverse",
        0x2bc5_0c93_01ae_76d5,
        0x40cf_519c_960f_6634,
    ),
    (
        "unintt gl 2^9 g1 none coset-forward",
        0x47f2_767c_018d_2b7c,
        0x40c3_f5cf_6c4d_2136,
    ),
    (
        "unintt gl 2^9 g1 none coset-inverse",
        0x2bc5_0c93_01ae_76d5,
        0x40d8_42d0_8d92_8f52,
    ),
    (
        "unintt gl 2^9 g1 none coset-forward-batch3",
        0x4695_4daf_649b_3269,
        0x40dd_f0b7_2273_b1d1,
    ),
    (
        "unintt bb 2^11 g8 tuned forward",
        0x5b20_8439_df8a_40fd,
        0x40d9_fa9c_2835_c506,
    ),
    (
        "unintt bb 2^11 g8 tuned inverse",
        0x97dc_f62c_449f_5f71,
        0x40e9_fa9c_2835_c506,
    ),
    (
        "unintt bb 2^11 g8 tuned coset-forward",
        0x3c05_5b80_9065_0ae4,
        0x40dd_e407_4713_45ee,
    ),
    (
        "unintt bb 2^11 g8 tuned coset-inverse",
        0x97dc_f62c_449f_5f71,
        0x40ed_e407_4713_45ee,
    ),
    (
        "unintt bb 2^11 g8 tuned coset-forward-batch3",
        0xb310_7af4_84cc_f644,
        0x40dd_e53f_977e_cffc,
    ),
    (
        "unintt bb 2^11 g8 none forward",
        0x5b20_8439_df8a_40fd,
        0x40e3_8aa0_33df_5590,
    ),
    (
        "unintt bb 2^11 g8 none inverse",
        0x97dc_f62c_449f_5f71,
        0x40f4_9db0_45f3_ac73,
    ),
    (
        "unintt bb 2^11 g8 none coset-forward",
        0x3c05_5b80_9065_0ae4,
        0x40e5_b0c0_5808_0353,
    ),
    (
        "unintt bb 2^11 g8 none coset-inverse",
        0x97dc_f62c_449f_5f71,
        0x40f6_c3d0_6a1c_5a36,
    ),
    (
        "unintt bb 2^11 g8 none coset-forward-batch3",
        0xb310_7af4_84cc_f644,
        0x4100_4490_4206_0280,
    ),
    (
        "unintt bn 2^10 g2 tuned forward",
        0x08da_1a16_a17b_14b3,
        0x40dc_7bbb_169a_d669,
    ),
    (
        "unintt bn 2^10 g2 tuned inverse",
        0xad28_4163_2127_d006,
        0x40ec_7bbb_169a_d668,
    ),
    (
        "unintt bn 2^10 g2 tuned coset-forward",
        0x9ed6_0876_43d1_1cfd,
        0x40e0_7046_d95f_9326,
    ),
    (
        "unintt bn 2^10 g2 tuned coset-inverse",
        0xad28_4163_2127_d006,
        0x40f0_7046_d95f_9326,
    ),
    (
        "unintt bn 2^10 g2 tuned coset-forward-batch3",
        0x34d4_3b68_7bfb_2d11,
        0x40e0_746b_3e0c_9180,
    ),
    (
        "unintt bn 2^10 g2 none forward",
        0x08da_1a16_a17b_14b3,
        0x40e6_eefb_b9e0_2252,
    ),
    (
        "unintt bn 2^10 g2 none inverse",
        0xad28_4163_2127_d006,
        0x40f8_02fc_db25_906f,
    ),
    (
        "unintt bn 2^10 g2 none coset-forward",
        0x9ed6_0876_43d1_1cfd,
        0x40e9_16fd_fc6a_fe8a,
    ),
    (
        "unintt bn 2^10 g2 none coset-inverse",
        0xad28_4163_2127_d006,
        0x40fa_2aff_1db0_6ca7,
    ),
    (
        "unintt bn 2^10 g2 none coset-forward-batch3",
        0x34d4_3b68_7bfb_2d11,
        0x4102_d13e_7d50_3ee8,
    ),
    (
        "four-step 2^12 g8 forward",
        0xe336_7efd_c886_da07,
        0x40f3_fcf5_970e_c04c,
    ),
    (
        "four-step 2^12 g8 inverse",
        0xd009_78a7_9f7f_643c,
        0x4104_8695_bb37_6e10,
    ),
    (
        "four-step 2^10 g2 forward",
        0x9df8_c692_47b0_ebdd,
        0x40f3_fc5b_fd75_26b3,
    ),
    (
        "four-step 2^10 g2 inverse",
        0xd2e1_fc02_33a1_d823,
        0x4104_85fc_219d_d476,
    ),
    (
        "cluster 2^12 t4 g4 forward",
        0xc7d6_05fd_e6a9_d93f,
        0x40ec_5455_ef10_713a,
    ),
    (
        "cluster 2^12 t4 g4 recovery clean",
        0xc7d6_05fd_e6a9_d93f,
        0x40ec_5455_ef10_713a,
    ),
    (
        "cluster 2^12 t4 g4 recovery replan",
        0xc7d6_05fd_e6a9_d93f,
        0x4104_3883_12a6_baf0,
    ),
    (
        "cluster 2^10 t2 g2 recovery clean",
        0x34ab_2add_981b_39c1,
        0x40ec_53fc_f2f1_e732,
    ),
];

#[test]
fn engines_match_the_per_column_capture() {
    let runs = engine_runs();
    assert_eq!(runs.len(), ENGINE_PINS.len());
    for ((name, digest, clock), (pin_name, pin_digest, pin_clock)) in runs.iter().zip(ENGINE_PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(*digest, pin_digest, "{name}: output digest");
        assert_eq!(*clock, pin_clock, "{name}: simulated clock bits");
    }
}

// ---------------------------------------------------------------------
// (d) The cost-only walks against the capture.
// ---------------------------------------------------------------------

/// One line per pinned cost-only run: name, then the numbers that define
/// what the run charged.
fn cost_only_rows() -> Vec<String> {
    use unintt_core::CommMode;
    let fs = FieldSpec::goldilocks();
    let log_n = 20u32;
    let mut rows = Vec::new();
    let machine_row = |name: String, m: &Machine| {
        let s = m.stats();
        format!(
            "{name} clock={:016x} kernels={} collectives={} global_bytes={} interconnect_bytes={} field_muls={} hidden={:016x}",
            m.max_clock_ns().to_bits(),
            s.kernels_launched,
            s.collectives,
            s.global_bytes_read + s.global_bytes_written,
            s.interconnect_bytes_sent,
            s.field_muls,
            s.comm_hidden_ns.to_bits(),
        )
    };
    for gpus in [1usize, 2, 8] {
        let cfg = presets::a100_nvlink(gpus);
        let mut natural = UniNttOptions::tuned_for(&fs);
        natural.natural_output = true;
        let mut all = vec![
            ("tuned".to_string(), UniNttOptions::tuned_for(&fs)),
            ("none".to_string(), UniNttOptions::none()),
        ];
        all.extend((1..=5).map(|k| (format!("ablate{k}"), UniNttOptions::ablate(k))));
        all.push(("natural".to_string(), natural));
        for (opt_tag, base) in &all {
            for (mode_tag, mode) in [
                ("overlapped", CommMode::Overlapped),
                ("blocking", CommMode::Blocking),
            ] {
                let mut opts = *base;
                opts.comm_mode = mode;
                let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, opts, fs);
                for batch in [1u64, 3] {
                    let name =
                        |op: &str| format!("unintt g{gpus} {opt_tag} {mode_tag} b{batch} {op}");
                    let mut m = Machine::new(cfg.clone(), fs);
                    engine.simulate_forward(&mut m, batch);
                    rows.push(machine_row(name("forward"), &m));
                    let mut m = Machine::new(cfg.clone(), fs);
                    engine.simulate_inverse(&mut m, batch);
                    rows.push(machine_row(name("inverse"), &m));
                    let mut m = Machine::new(cfg.clone(), fs);
                    engine.simulate_coset_forward(&mut m, batch);
                    rows.push(machine_row(name("coset-forward"), &m));
                }
            }
        }
        let engine = FourStepMultiGpuEngine::<Goldilocks>::new(log_n, &cfg, fs);
        for batch in [1u64, 3] {
            let mut m = Machine::new(cfg.clone(), fs);
            engine.simulate_forward(&mut m, batch);
            rows.push(machine_row(
                format!("four-step g{gpus} b{batch} forward"),
                &m,
            ));
        }
    }
    for (nodes, gpus) in [(2usize, 2usize), (4, 4)] {
        let node_cfg = presets::a100_nvlink(gpus);
        let engine = ClusterNttEngine::<Goldilocks>::new(
            log_n,
            nodes,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cl = Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
        engine.simulate_forward(&mut cl);
        rows.push(format!(
            "cluster t{nodes} g{gpus} forward total={:016x} network_bytes={} network_hidden={:016x}",
            cl.total_time_ns().to_bits(),
            cl.network_bytes(),
            cl.network_hidden_ns().to_bits(),
        ));
    }
    // The replan run of `cluster()` above: what its report says.
    let node_cfg = presets::a100_nvlink(4);
    let input = random_vec::<Goldilocks>(1 << 12, 41);
    let engine =
        ClusterNttEngine::<Goldilocks>::new(12, 4, &node_cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut cl = Cluster::new(4, node_cfg, NetworkConfig::infiniband_400g(), fs);
    cl.node_mut(0)
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq: 0,
            kind: FaultKind::Drop,
        }]));
    cl.node_mut(1)
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq: 0,
            kind: FaultKind::DeviceLoss { device: 3 },
        }]));
    let report = engine
        .forward_with_recovery(&mut cl, &input, &RecoveryPolicy::default())
        .unwrap();
    rows.push(format!(
        "cluster t4 g4 replan replans={} lost_nodes={:?} retries_per_attempt={:?} collectives={} comm_bytes={}",
        report.replans,
        report.lost_nodes,
        report.retries_per_attempt,
        report.collectives,
        report.comm_bytes,
    ));
    rows
}

/// Captured at `ec309c4`, the last commit whose cost-only paths were
/// hand-written twins of the functional ones (`simulate_forward` and
/// friends beside `try_forward_batch`): what the walk on the unit plane
/// must charge is what those twins charged.
const COST_ONLY_PINS: &str = include_str!("data/cost_only_pins.txt");

/// The one captured row the walk does not reproduce, and the clock it
/// charges instead (one ULP less). The four-step twin charged a batch in
/// an order no functional run has: the layout conversion batch-major
/// (three packs, three all-to-alls), then the inner transform once per
/// vector. The walk charges a batch as `UniNttEngine` with batching off
/// always has, phase by phase, and the same f64 terms summed in another
/// order round differently at 8 GPUs × 3 vectors. Nothing in the repo
/// calls the baseline with a batch above 1; every other row is exact.
const TWIN_ORDER_ONLY: (&str, &str) = (
    "four-step g8 b3 forward clock=411486e7be9e7b04",
    "four-step g8 b3 forward clock=411486e7be9e7b03",
);

#[test]
fn cost_only_walks_match_the_twin_capture() {
    let rows = cost_only_rows();
    let pins: Vec<&str> = COST_ONLY_PINS.lines().collect();
    assert_eq!(rows.len(), pins.len());
    let (twin, walked) = TWIN_ORDER_ONLY;
    for (row, pin) in rows.iter().zip(pins) {
        match pin.strip_prefix(twin) {
            Some(rest) => assert_eq!(*row, format!("{walked}{rest}")),
            None => assert_eq!(row, pin),
        }
    }
}
