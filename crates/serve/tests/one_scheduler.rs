//! The service is a one-cluster fleet, and plays every stream as the
//! service's own event loop did before it was deleted. These pins were
//! captured from that loop at `2e883d8`, its last commit: 24 cells — `raw_only` and `bursty` streams
//! of 128 jobs at seeds 3 and 4, and `tests/one_path.rs`'s mixed stream
//! (raw batches, monolithic proofs and stage DAGs) at seeds 14 and 17
//! with one and two queues per lease, each under every policy. A cell
//! pins two FNVs over every outcome, one of `(id, status, batch_size,
//! output_digest)` and one of `(id, completed_ns bits)`, the horizon's
//! bits and each lease's dispatch count and busy-time bits. Both `ProofService::new(cfg)` and
//! the explicit one-cluster `FleetConfig` (hedging off, no chaos,
//! capacities above the stream) must reproduce them. The instants were
//! re-captured once when the machine clock became integer picoseconds
//! (each within 51 ps; no status, batch size or digest moved). The 12
//! mixed cells were re-captured again when FRI came to fold by 8 with
//! one opening per round: their STARK jobs' digests moved, and with the
//! STARK hash and fold charges the instants, horizon and per-lease split
//! after them; no status or batch size moved, and the `raw_only` and
//! `bursty` cells did not move at all.

use unintt_serve::{
    ChaosPlan, FleetConfig, FleetReport, FleetService, JobSpec, JobStatus, ProofService,
    SchedulerPolicy, ServiceConfig, WorkloadMix, WorkloadSpec,
};

/// `tests/one_path.rs`'s stream: 24 jobs at 40k jobs/s, half raw NTTs, a
/// quarter PLONK, a quarter STARK, every even-indexed job `.pipelined()`.
fn mixed_stream(seed: u64) -> Vec<JobSpec> {
    let spec = WorkloadSpec {
        mix: WorkloadMix {
            raw: 0.5,
            plonk: 0.25,
            stark: 0.25,
        },
        ..WorkloadSpec::raw_only(seed, 24, 40_000.0)
    };
    spec.generate()
        .into_iter()
        .enumerate()
        .map(|(i, s)| JobSpec {
            class: if i % 2 == 0 {
                s.class.pipelined()
            } else {
                s.class
            },
            ..s
        })
        .collect()
}

fn stream(name: &str, seed: u64) -> Vec<JobSpec> {
    match name {
        "raw_only" => WorkloadSpec::raw_only(seed, 128, 80_000.0).generate(),
        "bursty" => WorkloadSpec::bursty(seed, 128, 50_000.0).generate(),
        _ => mixed_stream(seed),
    }
}

fn run_fleet(cfg: impl Into<FleetConfig>, stream: &[JobSpec]) -> FleetReport {
    let mut fleet = FleetService::new(cfg);
    fleet.submit_all(stream.iter().copied());
    fleet.run()
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over `(id, status, batch_size, output_digest)` of every
/// outcome, in id order: what ran, and what it produced.
fn results_fnv(report: &FleetReport) -> u64 {
    fnv(report.outcomes.iter().flat_map(|o| {
        let status = match o.status {
            JobStatus::Completed => [0, 0],
            JobStatus::Rejected(_) => [1, 0],
            JobStatus::DeadlineExceeded { deadline_ns } => [2, deadline_ns.to_bits()],
        };
        [
            o.id.0,
            status[0],
            status[1],
            o.batch_size as u64,
            o.output_digest,
        ]
    }))
}

/// FNV-1a over `(id, completed_ns bits)` of every outcome, in id order:
/// when it finished.
fn instants_fnv(report: &FleetReport) -> u64 {
    fnv(report
        .outcomes
        .iter()
        .flat_map(|o| [o.id.0, o.completed_ns.to_bits()]))
}

/// One cell captured from the deleted service loop.
struct Pin {
    stream: &'static str,
    seed: u64,
    streams_per_lease: usize,
    policy: SchedulerPolicy,
    results_fnv: u64,
    instants_fnv: u64,
    horizon_bits: u64,
    /// Per lease: `(dispatches, busy_ns bits)`.
    leases: [(u64, u64); 2],
}

const PINS: [Pin; 24] = [
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0xeea1_525c_00f7_9e27,
        instants_fnv: 0xddf0_be3d_4b88_1260,
        horizon_bits: 0x4156_cc6b_8e97_8d50,
        leases: [(52, 0x4156_a5af_2b43_9581), (50, 0x4156_47ce_3a4d_d2f2)],
    },
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0xeea1_525c_00f7_9e27,
        instants_fnv: 0xfd38_290a_1b38_581e,
        horizon_bits: 0x4156_d000_e5a1_cac1,
        leases: [(50, 0x4156_5391_e6d9_1687), (52, 0x4156_99eb_7eb8_51ec)],
    },
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0xeea1_525c_00f7_9e27,
        instants_fnv: 0x9788_75bb_32af_87f7,
        horizon_bits: 0x4156_e184_8147_ae14,
        leases: [(51, 0x4156_420e_4b33_3333), (51, 0x4156_ab6f_1a5e_353f)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x8674_038d_0304_116e,
        instants_fnv: 0x1557_8890_11f4_abf3,
        horizon_bits: 0x4156_d9ca_e800_0000,
        leases: [(49, 0x4156_3a2e_346a_7efa), (50, 0x4156_0f2b_13b6_45a2)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x8674_038d_0304_116e,
        instants_fnv: 0xf4ba_5d8d_0733_f5fa,
        horizon_bits: 0x4156_f240_1a6e_978d,
        leases: [(50, 0x4156_076c_3189_374c), (49, 0x4156_41ed_1697_8d50)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x8674_038d_0304_116e,
        instants_fnv: 0xa9b6_da02_e3f0_5be7,
        horizon_bits: 0x4156_ec77_e7ae_147b,
        leases: [(49, 0x4156_0d34_6449_ba5e), (50, 0x4156_3c24_e3d7_0a3d)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x8d95_ad9c_3141_b69f,
        instants_fnv: 0x707d_75fd_ff27_ffb7,
        horizon_bits: 0x4157_7b66_50f5_c28f,
        leases: [(55, 0x4157_5f40_d4ed_9168), (57, 0x4157_1111_4635_3f7d)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x8d95_ad9c_3141_b69f,
        instants_fnv: 0x0e4b_99eb_4f53_fc55,
        horizon_bits: 0x4157_5ff6_fb22_d0e5,
        leases: [(58, 0x4157_43d1_7f1a_9fbe), (54, 0x4157_2c80_9c08_3127)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x8d95_ad9c_3141_b69f,
        instants_fnv: 0xc1ed_83be_d112_036c,
        horizon_bits: 0x4157_9eaa_0a8f_5c29,
        leases: [(56, 0x4156_fd85_db12_6e98), (56, 0x4157_72cc_4010_624e)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x48c6_3572_308b_7c86,
        instants_fnv: 0x23fc_f630_849d_ab56,
        horizon_bits: 0x4156_8f35_f20c_49ba,
        leases: [(53, 0x4156_5390_2c28_f5c3), (46, 0x4156_1126_adf3_b646)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x48c6_3572_308b_7c86,
        instants_fnv: 0x86b6_8353_5865_0acc,
        horizon_bits: 0x4156_741d_3ba5_e354,
        leases: [(49, 0x4156_2c75_8dc2_8f5c), (50, 0x4156_3841_4c5a_1cac)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x48c6_3572_308b_7c86,
        instants_fnv: 0x7e62_25f1_11ca_332a,
        horizon_bits: 0x4156_b0a6_91fb_e76d,
        leases: [(49, 0x4155_efec_376c_8b44), (50, 0x4156_74ca_a2b0_20c5)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0xfa4a_535f_3b67_1a4f,
        horizon_bits: 0x414e_494b_3d4f_df3b,
        leases: [(37, 0x414d_ff44_40e5_6042), (35, 0x414d_f9a4_cb43_9581)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0xf770_7fef_a9b9_2418,
        horizon_bits: 0x414e_474d_4b43_9581,
        leases: [(27, 0x414e_08d4_4418_9375), (45, 0x414d_f014_c810_624e)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0x65cb_d49d_8ac6_dc4f,
        horizon_bits: 0x414e_4d8e_0bc6_a7f0,
        leases: [(37, 0x414e_0f15_049b_a5e3), (35, 0x414d_e9d4_078d_4fdf)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0x1288_c956_626d_68a7,
        horizon_bits: 0x414b_4b78_dd91_6873,
        leases: [(47, 0x414b_0cff_d666_6666), (25, 0x414a_d6a3_4f5c_28f6)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0x523b_294b_f8eb_a1e1,
        horizon_bits: 0x414b_516a_d3f7_ced9,
        leases: [(19, 0x414b_0cdb_c49b_a5e3), (53, 0x414b_01c4_61eb_851f)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0xf77a_a943_ef78_65d8,
        horizon_bits: 0x414b_5dd0_2ae1_47ae,
        leases: [(39, 0x414a_f20d_2083_126f), (33, 0x414b_0e29_b8d4_fdf4)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0xa304_d62d_1d67_9da5,
        horizon_bits: 0x4141_abd0_2666_6666,
        leases: [(33, 0x4141_73d0_2eb8_51ec), (20, 0x4141_41d4_cfdf_3b64)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0x3166_d7d7_3855_4502,
        horizon_bits: 0x4141_b67e_a353_f7cf,
        leases: [(35, 0x4141_6921_b1ca_c083), (18, 0x4141_4c83_4ccc_cccd)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0x1811_582e_83d6_36d9,
        horizon_bits: 0x4144_0565_9374_bc6a,
        leases: [(29, 0x413e_3475_8353_f7cf), (24, 0x4143_9b6a_3ced_9168)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Fifo,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0xbd6b_abec_7f12_8cd3,
        horizon_bits: 0x413f_d51a_bba5_e354,
        leases: [(25, 0x413e_f1ea_b062_4dd3), (28, 0x413f_0124_0e97_8d50)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Priority,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0x3b71_0eba_a35f_8b90,
        horizon_bits: 0x4141_7100_c147_ae14,
        leases: [(36, 0x413b_acb6_978d_4fdf), (17, 0x4141_0705_6ac0_8312)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::ShortestJobFirst,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0x2130_406d_797b_bb2e,
        horizon_bits: 0x4142_2134_ae14_7ae1,
        leases: [(38, 0x4141_ecd1_28b4_3958), (15, 0x413a_0e32_e978_d4fe)],
    },
];

fn assert_pinned(report: &FleetReport, pin: &Pin, what: &str) {
    assert!(report.all_completed(), "{what}");
    assert_eq!(results_fnv(report), pin.results_fnv, "{what}: results");
    assert_eq!(instants_fnv(report), pin.instants_fnv, "{what}: instants");
    assert_eq!(
        report.metrics.horizon_ns.to_bits(),
        pin.horizon_bits,
        "{what}: horizon"
    );
    let leases: Vec<(u64, u64)> = report
        .metrics
        .leases
        .iter()
        .map(|l| (l.dispatches, l.busy_ns.to_bits()))
        .collect();
    assert_eq!(
        leases, pin.leases,
        "{what}: per-lease dispatches and busy time"
    );
}

#[test]
fn one_cluster_fleet_reproduces_the_service() {
    for pin in &PINS {
        let stream = stream(pin.stream, pin.seed);
        let cfg = ServiceConfig {
            policy: pin.policy,
            streams_per_lease: pin.streams_per_lease,
            ..ServiceConfig::default()
        };
        let what = format!(
            "{} seed {} k={} {:?}",
            pin.stream, pin.seed, pin.streams_per_lease, pin.policy
        );
        let mut service = ProofService::new(cfg.clone());
        service.submit_all(stream.iter().copied());
        assert_pinned(&service.run(), pin, &format!("service {what}"));
        let fleet = FleetConfig {
            clusters: 1,
            base: cfg,
            hedge: None,
            soft_capacity: usize::MAX,
            hard_capacity: usize::MAX,
            chaos: ChaosPlan::none(),
            ..FleetConfig::default()
        };
        assert_pinned(&run_fleet(fleet, &stream), pin, &format!("fleet {what}"));
    }
}
