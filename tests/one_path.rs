//! One path from `submit` to proof bytes, pinned against the paths it
//! replaced.
//!
//! `ProofService` used to route one-queue runs through a separate serial
//! event loop, and `prove` / `commit_trace` used to be second
//! implementations of the rounds beside the staged provers. Those halves
//! are gone; what they computed survives here as data captured from the
//! last commit that had them:
//!
//! * the one-queue schedule — statuses, digests, batch sizes, peak queue
//!   depth and per-lease dispatch and repair counts from the serial loop.
//!   Its instants (outcome timestamps, horizon, `stage_ns`, per-lease
//!   `busy_ns`) were re-captured when the event loops moved to integer
//!   picoseconds, each within 10 ps of the serial loop's `f64` value,
//!   and again when the machine clock did, each within 24 ps of the
//!   value before;
//! * `prove` and `commit_trace` digests and simulated clocks from the
//!   monolithic bodies (the clocks re-captured with the integer machine
//!   clock, each within 10 ps);
//! * the checkpointed-recovery tests, ported onto `resume`.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::RecoveryPolicy;
use unintt_ff::{Bn254Fr, Field, Goldilocks, PrimeField};
use unintt_fri::{commit_trace, verify_trace, FriConfig, LdeBackend, StagedCommit};
use unintt_gpu_sim::{presets, FaultEvent, FaultKind, FaultPlan, FaultRates};
use unintt_serve::{
    JobSpec, JobStatus, ProofService, ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec,
};
use unintt_zkp::{
    cubic_circuit, prove, random_circuit, setup, verify, Backend, ProvingKey, StagedProver,
    VerifyingKey, Witness,
};

// ---------------------------------------------------------------------
// (a) The one-queue schedule.
// ---------------------------------------------------------------------

/// 24 jobs at 40k jobs/s, half raw NTTs, a quarter PLONK, a quarter
/// STARK; every even-indexed job is submitted `.pipelined()`, so each
/// stream holds raw batches, monolithic proofs and stage DAGs of both
/// proof systems.
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

fn serve(cfg: ServiceConfig, stream: &[JobSpec]) -> ServiceReport {
    let mut service = ProofService::new(cfg);
    service.submit_all(stream.iter().copied());
    service.run()
}

/// FNV-1a over `(id, status, completed_ns bits, output_digest)` of every
/// outcome, in id order.
fn outcomes_fnv(report: &ServiceReport) -> u64 {
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
        mix(o.output_digest);
    }
    h
}

/// One captured run at `streams_per_lease = 1`.
struct SchedulePin {
    seed: u64,
    /// Raw batches run under seeded drop / device-loss injection.
    faults: bool,
    outcomes_fnv: u64,
    horizon_bits: u64,
    peak_queue_depth: usize,
    /// Per lease: `(dispatches, repairs, busy_ns bits)`.
    leases: [(u64, u32, u64); 2],
    /// Per stage kind: `stage_ns` bits.
    stage_ns: [(&'static str, u64); 5],
}

const SCHEDULE_PINS: [SchedulePin; 4] = [
    SchedulePin {
        seed: 14,
        faults: false,
        outcomes_fnv: 0xf976_d91a_6c0c_5b3e,
        horizon_bits: 0x414e_6d6f_1687_2b02,
        peak_queue_depth: 20,
        leases: [
            (35, 0, 0x414e_0f43_b916_872b),
            (37, 0, 0x414e_1dc8_a47a_e148),
        ],
        stage_ns: [
            ("fold", 0x40c5_31e2_b020_c49c),
            ("hash", 0x40c5_240c_0831_26e9),
            ("msm", 0x4140_28ac_3df3_b646),
            ("ntt", 0x412b_f680_9b22_d0e5),
            ("pointwise", 0x40df_4282_c083_126f),
        ],
    },
    SchedulePin {
        seed: 17,
        faults: false,
        outcomes_fnv: 0x27cc_0a33_9769_5e9c,
        horizon_bits: 0x4141_c857_f2f1_a9fc,
        peak_queue_depth: 18,
        leases: [
            (22, 0, 0x4141_8b6b_b395_8106),
            (31, 0, 0x4141_5e5c_9c6a_7efa),
        ],
        stage_ns: [
            ("fold", 0x40d5_31e2_b020_c49c),
            ("hash", 0x40d5_240c_0831_26e9),
            ("msm", 0x4130_28ac_3df3_b646),
            ("ntt", 0x4122_6ee7_8c49_ba5e),
            ("pointwise", 0x40d9_0444_bc6a_7efa),
        ],
    },
    SchedulePin {
        seed: 21,
        faults: false,
        outcomes_fnv: 0x8b9f_c5a3_e103_db47,
        horizon_bits: 0x414e_4616_4fbe_76c9,
        peak_queue_depth: 19,
        leases: [
            (39, 0, 0x414e_282f_05a1_cac1),
            (37, 0, 0x414d_c24f_ed4f_df3b),
        ],
        stage_ns: [
            ("fold", 0x40d5_31e2_b020_c49c),
            ("hash", 0x40d5_240c_0831_26e9),
            ("msm", 0x4140_28ac_3df3_b646),
            ("ntt", 0x412e_ee45_6f9d_b22d),
            ("pointwise", 0x40e2_c242_7ef9_db23),
        ],
    },
    // Lease 1 dies mid-batch and is repaired; everything after runs on
    // lease 0.
    SchedulePin {
        seed: 15,
        faults: true,
        outcomes_fnv: 0xb7ff_7ec5_6df4_2365,
        horizon_bits: 0x4150_b269_ebb6_45a2,
        peak_queue_depth: 19,
        leases: [
            (54, 0, 0x4150_7e2f_c8d4_fdf4),
            (6, 1, 0x4131_7ec0_b7ce_d917),
        ],
        stage_ns: [
            ("fold", 0x40ef_cad4_0831_26e9),
            ("hash", 0x40ef_b612_0c49_ba5e),
            ("msm", 0x4120_28ac_3df3_b646),
            ("ntt", 0x4128_0e4b_ec8b_4396),
            ("pointwise", 0x40e5_e616_c8b4_3958),
        ],
    },
];

#[test]
fn one_queue_schedule_matches_the_serial_loop_capture() {
    for pin in &SCHEDULE_PINS {
        let seed = pin.seed;
        let cfg = ServiceConfig {
            fault_rates: pin.faults.then_some(FaultRates {
                drop_p: 0.02,
                device_loss_p: 0.02,
                ..Default::default()
            }),
            ..ServiceConfig::default()
        };
        assert_eq!(cfg.streams_per_lease, 1);
        let report = serve(cfg, &mixed_stream(seed));
        assert!(report.all_completed(), "seed {seed}");
        assert_eq!(outcomes_fnv(&report), pin.outcomes_fnv, "seed {seed}");

        let m = &report.metrics;
        assert_eq!(m.horizon_ns.to_bits(), pin.horizon_bits, "seed {seed}");
        assert_eq!(m.peak_queue_depth, pin.peak_queue_depth, "seed {seed}");
        let leases: Vec<(u64, u32, u64)> = m
            .leases
            .iter()
            .map(|l| (l.dispatches, l.repairs, l.busy_ns.to_bits()))
            .collect();
        assert_eq!(leases, pin.leases, "seed {seed}");
        let stage_ns: Vec<(&str, u64)> = report
            .stage_ns
            .iter()
            .map(|(k, v)| (*k, v.to_bits()))
            .collect();
        assert_eq!(stage_ns, pin.stage_ns, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// (b) The monolithic entry points.
// ---------------------------------------------------------------------

fn random_plonk(gates: usize, seed: u64) -> (ProvingKey, VerifyingKey, Witness) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (circuit, witness) = random_circuit(gates, &mut rng);
    let (pk, vk) = setup(&circuit, &mut rng);
    (pk, vk, witness)
}

fn sim_backend(gpus: usize) -> Backend {
    Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus))
}

#[test]
fn prove_matches_the_monolithic_capture() {
    // (gates, seed, CPU content digest, total_ns bits on a100_nvlink(4)).
    for (gates, seed, digest, total_bits) in [
        (60, 6, 0x722c_684b_f479_e6ecu64, 0x4125_dedc_30a3_d70au64),
        (500, 12, 0x5f95_f744_d607_f758, 0x4139_7a32_27ae_147b),
    ] {
        let (pk, vk, witness) = random_plonk(gates, seed);
        let cpu = prove(&pk, &witness, &[], &mut Backend::cpu());
        assert!(verify(&vk, &cpu, &[]));
        assert_eq!(cpu.content_digest(), digest, "{gates} gates");

        let mut sim = sim_backend(4);
        assert_eq!(prove(&pk, &witness, &[], &mut sim), cpu);
        let report = sim.report();
        assert_eq!(
            report.total().as_ns().to_bits(),
            total_bits,
            "{gates} gates"
        );
        // 3 wire iNTT + 1 z iNTT + 13 coset NTT + 1 quotient iNTT;
        // 3 wires + z + quotient + 2 openings.
        assert_eq!((report.ntt_calls, report.msm_calls), (18, 7));
    }

    // A public input reaches the transcript and the PI polynomial.
    let mut rng = StdRng::seed_from_u64(1);
    let (circuit, witness, y) = cubic_circuit(Bn254Fr::from_u64(3));
    let (pk, vk) = setup(&circuit, &mut rng);
    let mut sim = sim_backend(2);
    let proof = prove(&pk, &witness, &[y], &mut sim);
    assert!(verify(&vk, &proof, &[y]));
    assert_eq!(proof.content_digest(), 0x3ea7_137c_ce55_abd6);
    assert_eq!(
        sim.report().total().as_ns().to_bits(),
        0x411e_e67a_fdf3_b646
    );
}

fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width)
        .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
        .collect()
}

#[test]
fn commit_trace_matches_the_monolithic_capture() {
    let config = FriConfig::standard();
    // 256 rows shard across 4 GPUs; 8 rows take the single-device path.
    for (n, width, seed, digest, sim_bits) in [
        (
            256,
            4,
            2,
            0xa205_3115_951b_0f70u64,
            0x40fc_2865_0a3d_70a4u64,
        ),
        (8, 3, 33, 0x58af_16d8_c7b4_c688, 0x40e1_30bd_c28f_5c29),
    ] {
        let trace = random_trace(n, width, seed);
        let cpu = commit_trace(&trace, &config, &mut LdeBackend::cpu());
        assert!(verify_trace(&cpu, &config));
        assert_eq!(cpu.content_digest(), digest, "{n}x{width}");

        let mut sim = LdeBackend::simulated(presets::a100_nvlink(4));
        let simulated = commit_trace(&trace, &config, &mut sim);
        assert_eq!(simulated.content_digest(), digest, "{n}x{width}");
        assert_eq!(sim.sim_time().as_ns().to_bits(), sim_bits, "{n}x{width}");
    }
}

// ---------------------------------------------------------------------
// (c) Recovery: the staged object is the checkpoint.
// ---------------------------------------------------------------------

fn no_retries() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 0,
        ..RecoveryPolicy::default()
    }
}

#[test]
fn plonk_resume_under_random_faults_matches_cpu_proof() {
    let (pk, vk, witness) = random_plonk(60, 8);
    let cpu = prove(&pk, &witness, &[], &mut Backend::cpu());

    let mut staged = StagedProver::new(&pk, &witness, &[], sim_backend(4));
    staged
        .backend_mut()
        .ntt_machine_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::random(7, FaultRates::transfers_only(0.1)));
    let proof = staged
        .resume(&RecoveryPolicy::default())
        .expect("default policy should absorb 10% transfer faults");
    assert_eq!(proof, &cpu, "recovered proof must be bit-identical");
    assert!(verify(&vk, proof, &[]));
    assert!(staged.is_complete());
}

#[test]
fn plonk_resume_continues_after_a_failed_stage() {
    let (pk, vk, witness) = random_plonk(60, 9);
    let cpu = prove(&pk, &witness, &[], &mut Backend::cpu());

    // Probe a clean simulated run for the total collective count, then
    // drop the last collective (the quotient iNTT's) so every earlier
    // stage completes first.
    let mut probe = sim_backend(4);
    let _ = prove(&pk, &witness, &[], &mut probe);
    let total = probe.ntt_machine_mut().unwrap().collective_seq();
    assert!(total >= 2);

    let mut staged = StagedProver::new(&pk, &witness, &[], sim_backend(4));
    staged
        .backend_mut()
        .ntt_machine_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq: total - 1,
            kind: FaultKind::Drop,
        }]));
    let err = staged.resume(&no_retries()).unwrap_err();
    assert!(
        err.is_transient(),
        "a dropped collective is transient: {err}"
    );
    let done: Vec<usize> = (0..staged.num_stages())
        .filter(|&s| staged.stage_done(s))
        .collect();
    assert_eq!(
        done,
        (0..9).collect::<Vec<_>>(),
        "stages before the quotient iNTT are kept"
    );
    assert!(staged.proof().is_none());

    // Resume: the scripted drop was consumed; only the tail replays.
    let proof = staged
        .resume(&no_retries())
        .expect("resume from the failed stage");
    assert_eq!(proof, &cpu);
    assert!(verify(&vk, proof, &[]));
}

#[test]
fn stark_resume_under_dropped_collectives_matches_cpu() {
    let config = FriConfig::standard();
    let trace = random_trace(256, 4, 7);
    let cpu = commit_trace(&trace, &config, &mut LdeBackend::cpu());

    let mut staged = StagedCommit::new(
        trace,
        config,
        LdeBackend::simulated(presets::a100_nvlink(4)),
    );
    staged
        .backend_mut()
        .machine_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::random(99, FaultRates::transfers_only(0.2)));
    let committed = staged
        .resume(&RecoveryPolicy::default())
        .expect("retries should absorb 20% drop/corrupt rates");
    assert_eq!(committed.trace_root, cpu.trace_root);
    assert_eq!(committed.fri_proof, cpu.fri_proof);
    assert_eq!(committed.content_digest(), cpu.content_digest());
}

#[test]
fn stark_resume_continues_after_a_failed_stage() {
    let config = FriConfig::standard();
    let trace = random_trace(256, 4, 8);
    let cpu = commit_trace(&trace, &config, &mut LdeBackend::cpu());

    // Probe a clean run to find the total collective count, then drop
    // the *last* collective (part of the coset-evaluation batch).
    let mut probe = LdeBackend::simulated(presets::a100_nvlink(4));
    let _ = commit_trace(&trace, &config, &mut probe);
    let total = probe.machine_mut().unwrap().collective_seq();
    assert!(total >= 2, "need two collectives to stage the test");

    let mut staged = StagedCommit::new(
        trace,
        config,
        LdeBackend::simulated(presets::a100_nvlink(4)),
    );
    staged
        .backend_mut()
        .machine_mut()
        .unwrap()
        .set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
            seq: total - 1,
            kind: FaultKind::Drop,
        }]));
    let err = staged.resume(&no_retries()).unwrap_err();
    assert!(err.is_transient(), "a drop is transient: {err}");
    assert!(
        staged.stage_done(0) && !staged.stage_done(1),
        "the interpolation batch is kept, the coset batch is not done"
    );

    // Resume: the drop was consumed, the interpolation is skipped.
    let committed = staged
        .resume(&no_retries())
        .expect("resume from the failed stage");
    assert_eq!(committed.trace_root, cpu.trace_root);
    assert_eq!(committed.fri_proof, cpu.fri_proof);
    assert_eq!(committed.content_digest(), cpu.content_digest());
    assert!(verify_trace(committed, &config));
}
