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
//! capacities above the stream) must reproduce them.

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
        outcomes_fnv: 0xd668_d5c4_40cc_78bb,
        horizon_bits: 0x4156_cc6b_8ba5_e354,
        leases: [(52, 0x4156_a5af_2851_eb85), (50, 0x4156_47ce_3862_4dd3)],
    },
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xbaf2_0559_c21a_78a4,
        horizon_bits: 0x4156_d000_e322_d0e5,
        leases: [(50, 0x4156_5391_e47a_e148), (52, 0x4156_99eb_7c39_5810)],
    },
    Pin {
        stream: "raw_only",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xa795_bc72_d2d6_b212,
        horizon_bits: 0x4156_e184_7e04_1893,
        leases: [(51, 0x4156_420e_4999_999a), (51, 0x4156_ab6f_171a_9fbe)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xf319_470b_9b58_f125,
        horizon_bits: 0x4156_d9ca_e581_0625,
        leases: [(49, 0x4156_3a2e_31eb_851f), (50, 0x4156_0f2b_11a9_fbe7)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x8a0f_2e2c_7e3e_b697,
        horizon_bits: 0x4156_f240_18d4_fdf4,
        leases: [(50, 0x4156_076c_2e97_8d50), (49, 0x4156_41ed_14fd_f3b6)],
    },
    Pin {
        stream: "bursty",
        seed: 3,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xadbb_a7e8_3b7b_2d37,
        horizon_bits: 0x4156_ec77_e53f_7cee,
        leases: [(49, 0x4156_0d34_622d_0e56), (50, 0x4156_3c24_e168_72b0)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x5a2a_1028_e21c_54d9,
        horizon_bits: 0x4157_7b66_4e14_7ae1,
        leases: [(55, 0x4157_5f40_d20c_49ba), (57, 0x4157_1111_4353_f7cf)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x0559_5a93_b706_f7b0,
        horizon_bits: 0x4157_5ff6_f851_eb85,
        leases: [(58, 0x4157_43d1_7c49_ba5e), (54, 0x4157_2c80_9916_872b)],
    },
    Pin {
        stream: "raw_only",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xe19d_217a_6d9e_7336,
        horizon_bits: 0x4157_9eaa_076c_8b44,
        leases: [(56, 0x4156_fd85_d872_b021), (56, 0x4157_72cc_3ced_9168)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xcf4a_8f75_15ad_b3df,
        horizon_bits: 0x4156_8f35_ef2b_020c,
        leases: [(53, 0x4156_5390_2947_ae14), (46, 0x4156_1126_ac49_ba5e)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x6020_0ca6_a027_aaec,
        horizon_bits: 0x4156_741d_3916_872b,
        leases: [(49, 0x4156_2c75_8bc6_a7f0), (50, 0x4156_3841_49ca_c083)],
    },
    Pin {
        stream: "bursty",
        seed: 4,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x59e9_e74e_e97a_8cab,
        horizon_bits: 0x4156_b0a6_8f6c_8b44,
        leases: [(49, 0x4155_efec_3570_a3d7), (50, 0x4156_74ca_a020_c49c)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xb532_f310_42b7_0a1c,
        horizon_bits: 0x414e_6d6f_16e9_78d5,
        leases: [(35, 0x414e_0f43_b937_4bc7), (37, 0x414e_1dc8_a4dd_2f1b)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x93d8_f8cb_5be4_6f79,
        horizon_bits: 0x414e_6018_e041_8937,
        leases: [(40, 0x414e_1c99_efdf_3b64), (32, 0x414e_1072_6e35_3f7d)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x9e72_df97_2875_368b,
        horizon_bits: 0x414e_679e_19db_22d1,
        leases: [(41, 0x414e_2925_12b0_20c5), (31, 0x414e_03e7_4b64_5a1d)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0xd727_8239_fa50_2b63,
        horizon_bits: 0x414b_51bc_851e_b852,
        leases: [(47, 0x414b_100a_6f5c_28f6), (25, 0x414b_0216_1312_6e98)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x5db5_5e76_c45a_a610,
        horizon_bits: 0x414b_65d6_8687_2b02,
        leases: [(19, 0x414b_26ed_6eb8_51ec), (53, 0x414b_1630_147a_e148)],
    },
    Pin {
        stream: "mixed",
        seed: 14,
        streams_per_lease: 2,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x1454_ab02_7260_5c47,
        horizon_bits: 0x414b_77e1_d3d7_0a3d,
        leases: [(39, 0x414b_0c09_f6e9_78d5), (33, 0x414b_283b_61ca_c083)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x59a4_7209_ee57_3823,
        horizon_bits: 0x4141_c857_f147_ae14,
        leases: [(22, 0x4141_8b6b_b374_bc6a), (31, 0x4141_5e5c_9ac0_8312)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0x8b63_dfab_c4e2_438d,
        horizon_bits: 0x4141_c749_647a_e148,
        leases: [(19, 0x4141_8c7a_4041_8937), (34, 0x4141_5d4e_0df3_b646)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 1,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0xc74f_e726_7b02_17a5,
        horizon_bits: 0x4144_1f77_3b64_5a1d,
        leases: [(29, 0x413e_6898_d2b0_20c5), (24, 0x4143_b57b_e4dd_2f1b)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Fifo,
        outcomes_fnv: 0x988a_d003_3bcf_c058,
        horizon_bits: 0x4140_0358_d062_4dd3,
        leases: [(25, 0x413f_24b2_fa1c_ac08), (28, 0x413f_32ba_f3b6_45a2)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::Priority,
        outcomes_fnv: 0xf4fe_ba7e_1692_7b07,
        horizon_bits: 0x4141_8ae1_6645_a1cb,
        leases: [(31, 0x4141_567d_e0e5_6042), (22, 0x413b_27e9_b958_1062)],
    },
    Pin {
        stream: "mixed",
        seed: 17,
        streams_per_lease: 2,
        policy: SchedulerPolicy::ShortestJobFirst,
        outcomes_fnv: 0x6d2c_aecf_007a_d1c6,
        horizon_bits: 0x4142_2a9e_7ed9_1687,
        leases: [(38, 0x4141_f63a_f978_d4fe), (15, 0x413a_53b7_5374_bc6a)],
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
