//! The service is a one-cluster fleet, and plays every stream as the
//! service's own event loop did before it was deleted. These pins were
//! captured from that loop at `2e883d8`, its last commit: 24 cells — `raw_only` and `bursty` streams
//! of 128 jobs at seeds 3 and 4, and `tests/one_path.rs`'s mixed stream
//! (raw batches, monolithic proofs and stage DAGs) at seeds 14 and 17
//! with one and two queues per lease, each under every policy. A cell
//! pins the FNV of every outcome's `(id, status, completed_ns bits,
//! batch_size, output_digest)`, the horizon's bits and each lease's
//! dispatch count and busy-time bits. Both `ProofService::new(cfg)` and
//! the explicit one-cluster `FleetConfig` (hedging off, no chaos,
//! capacities above the stream) must reproduce them. The instants were
//! re-captured once when the machine clock became integer picoseconds
//! (each within 51 ps; no status, batch size or digest moved).

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

/// FNV-1a over `(id, status, completed_ns bits, batch_size,
/// output_digest)` of every outcome, in id order.
fn outcomes_fnv(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for o in &report.outcomes {
        mix(o.id.0);
        match o.status {
            JobStatus::Completed => mix(0),
            JobStatus::Rejected(_) => mix(1),
            JobStatus::DeadlineExceeded { deadline_ns } => {
                mix(2);
                mix(deadline_ns.to_bits());
            }
        }
        mix(o.completed_ns.to_bits());
        mix(o.batch_size as u64);
        mix(o.output_digest);
    }
    h
}

/// One cell captured from the deleted service loop.
struct Pin {
    stream: &'static str,
    seed: u64,
    streams_per_lease: usize,
    policy: SchedulerPolicy,
    outcomes_fnv: u64,
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
        outcomes_fnv: 0x5214_048b_8997_4988,
        horizon_bits: 0x4156_cc6b_8e97_8d50,
        leases: [(52, 0x4156_a5af_2b43_9581), (50, 0x4156_47ce_3a4d_d2f2)],
    },
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x13a2_9909_2865_3734,
        horizon_bits: 0x4156_d000_e5a1_cac1,
        leases: [(50, 0x4156_5391_e6d9_1687), (52, 0x4156_99eb_7eb8_51ec)],
    },
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xe8d3_a088_aee9_ecf9,
        horizon_bits: 0x4156_e184_8147_ae14,
        leases: [(51, 0x4156_420e_4b33_3333), (51, 0x4156_ab6f_1a5e_353f)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x2198_c057_668d_5f1e,
        horizon_bits: 0x4156_d9ca_e800_0000,
        leases: [(49, 0x4156_3a2e_346a_7efa), (50, 0x4156_0f2b_13b6_45a2)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x3bb0_4207_be0b_0a8d,
        horizon_bits: 0x4156_f240_1a6e_978d,
        leases: [(50, 0x4156_076c_3189_374c), (49, 0x4156_41ed_1697_8d50)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xf7e6_15e5_cd69_a024,
        horizon_bits: 0x4156_ec77_e7ae_147b,
        leases: [(49, 0x4156_0d34_6449_ba5e), (50, 0x4156_3c24_e3d7_0a3d)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x79c1_a933_c82b_f71d,
        horizon_bits: 0x4157_7b66_50f5_c28f,
        leases: [(55, 0x4157_5f40_d4ed_9168), (57, 0x4157_1111_4635_3f7d)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xeeda_1b4b_90b2_507d,
        horizon_bits: 0x4157_5ff6_fb22_d0e5,
        leases: [(58, 0x4157_43d1_7f1a_9fbe), (54, 0x4157_2c80_9c08_3127)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x7158_d301_278f_fa54,
        horizon_bits: 0x4157_9eaa_0a8f_5c29,
        leases: [(56, 0x4156_fd85_db12_6e98), (56, 0x4157_72cc_4010_624e)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x6291_34ad_f032_c845,
        horizon_bits: 0x4156_8f35_f20c_49ba,
        leases: [(53, 0x4156_5390_2c28_f5c3), (46, 0x4156_1126_adf3_b646)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xa4b9_4ec6_39a5_3ed7,
        horizon_bits: 0x4156_741d_3ba5_e354,
        leases: [(49, 0x4156_2c75_8dc2_8f5c), (50, 0x4156_3841_4c5a_1cac)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xe308_14b1_4d3f_c689,
        horizon_bits: 0x4156_b0a6_91fb_e76d,
        leases: [(49, 0x4155_efec_376c_8b44), (50, 0x4156_74ca_a2b0_20c5)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x7233_87df_5e7a_6426,
        horizon_bits: 0x414e_6d6f_1687_2b02,
        leases: [(35, 0x414e_0f43_b916_872b), (37, 0x414e_1dc8_a47a_e148)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xa566_2f69_9683_ef96,
        horizon_bits: 0x414e_6018_e062_4dd3,
        leases: [(40, 0x414e_1c99_ef3b_645a), (32, 0x414e_1072_6e56_0419)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xeedb_ba3f_b4a1_c06e,
        horizon_bits: 0x414e_679e_19fb_e76d,
        leases: [(41, 0x414e_2925_12d0_e560), (31, 0x414e_03e7_4ac0_8312)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xe0f2_f97f_b507_feb4,
        horizon_bits: 0x414b_51bc_853f_7cee,
        leases: [(47, 0x414b_100a_6e56_0419), (25, 0x414b_0216_1333_3333)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xc822_ea5e_33c0_98c0,
        horizon_bits: 0x414b_65d6_86e9_78d5,
        leases: [(19, 0x414b_26ed_6d70_a3d7), (53, 0x414b_1630_14dd_2f1b)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x356c_b155_7dba_b365,
        horizon_bits: 0x414b_77e1_d395_8106,
        leases: [(39, 0x414b_0c09_f6e9_78d5), (33, 0x414b_283b_6189_374c)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xdda0_a83d_9170_4cf8,
        horizon_bits: 0x4141_c857_f2f1_a9fc,
        leases: [(22, 0x4141_8b6b_b395_8106), (31, 0x4141_5e5c_9c6a_7efa)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x7737_52dc_486a_f60b,
        horizon_bits: 0x4141_c749_65a1_cac1,
        leases: [(19, 0x4141_8c7a_40e5_6042), (34, 0x4141_5d4e_0f1a_9fbe)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xdaec_9de8_20e3_6db5,
        horizon_bits: 0x4144_1f77_3c28_f5c3,
        leases: [(29, 0x413e_6898_d4bc_6a7f), (24, 0x4143_b57b_e5a1_cac1)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xb15b_04a9_229b_1c5e,
        horizon_bits: 0x4140_0358_d126_e979,
        leases: [(25, 0x413f_24b2_fa1c_ac08), (28, 0x413f_32ba_f53f_7cee)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xcc70_dd4c_73d7_0c9a,
        horizon_bits: 0x4141_8ae1_670a_3d71,
        leases: [(31, 0x4141_567d_e1a9_fbe7), (22, 0x413b_27e9_bae1_47ae)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x7fb9_62b0_1b99_0dc7,
        horizon_bits: 0x4142_2a9e_7f3b_645a,
        leases: [(38, 0x4141_f63a_f9db_22d1), (15, 0x413a_53b7_5604_1893)],
    },
];

fn assert_pinned(report: &FleetReport, pin: &Pin, what: &str) {
    assert!(report.all_completed(), "{what}");
    assert_eq!(outcomes_fnv(report), pin.outcomes_fnv, "{what}: outcomes");
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
