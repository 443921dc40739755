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
//!   value before. Each run's outcomes are two fingerprints, one over
//!   statuses, batch sizes and digests and one over completion instants,
//!   so a re-capture shows which of the two moved. Both, with the horizon,
//!   the per-lease dispatch split and busy time and the `fold` / `hash`
//!   stage times, were re-captured when FRI came to fold by 8 with one
//!   opening per round: the STARK jobs' digests and hash and fold charges
//!   moved, and with them every instant after a STARK job; no status or
//!   batch size moved, and no digest of another job;
//! * `prove` and `commit_trace` digests and simulated clocks from the
//!   monolithic bodies (the clocks re-captured with the integer machine
//!   clock, each within 10 ps; the `commit_trace` pair again for the
//!   arity-8 fold);
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

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over `(id, status, batch_size, output_digest)` of every
/// outcome, in id order: what ran, and what it produced.
fn results_fnv(report: &ServiceReport) -> u64 {
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
fn instants_fnv(report: &ServiceReport) -> u64 {
    fnv(report
        .outcomes
        .iter()
        .flat_map(|o| [o.id.0, o.completed_ns.to_bits()]))
}

/// One captured run at `streams_per_lease = 1`.
struct SchedulePin {
    seed: u64,
    /// Raw batches run under seeded drop / device-loss injection.
    faults: bool,
    results_fnv: u64,
    instants_fnv: u64,
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
        results_fnv: 0x3e28_ab8e_dd2d_1f0b,
        instants_fnv: 0xfa4a_535f_3b67_1a4f,
        horizon_bits: 0x414e_494b_3d4f_df3b,
        peak_queue_depth: 20,
        leases: [
            (37, 0, 0x414d_ff44_40e5_6042),
            (35, 0, 0x414d_f9a4_cb43_9581),
        ],
        stage_ns: [
            ("fold", 0x40c5_1e9b_020c_49ba),
            ("hash", 0x40b9_0d8c_49ba_5e35),
            ("msm", 0x4140_28ac_3df3_b646),
            ("ntt", 0x412b_f680_9b22_d0e5),
            ("pointwise", 0x40df_4282_c083_126f),
        ],
    },
    SchedulePin {
        seed: 17,
        faults: false,
        results_fnv: 0x07c4_afe3_4172_8421,
        instants_fnv: 0xa304_d62d_1d67_9da5,
        horizon_bits: 0x4141_abd0_2666_6666,
        peak_queue_depth: 18,
        leases: [
            (33, 0, 0x4141_73d0_2eb8_51ec),
            (20, 0, 0x4141_41d4_cfdf_3b64),
        ],
        stage_ns: [
            ("fold", 0x40d5_1e9b_020c_49ba),
            ("hash", 0x40c9_0d8c_49ba_5e35),
            ("msm", 0x4130_28ac_3df3_b646),
            ("ntt", 0x4122_6ee7_8c49_ba5e),
            ("pointwise", 0x40d9_0444_bc6a_7efa),
        ],
    },
    SchedulePin {
        seed: 21,
        faults: false,
        results_fnv: 0xbe95_3667_dfa6_287f,
        instants_fnv: 0xe686_9f77_99ec_4797,
        horizon_bits: 0x414e_3462_eb64_5a1d,
        peak_queue_depth: 19,
        leases: [
            (29, 0, 0x414e_167b_a147_ae14),
            (47, 0, 0x414d_9fe0_0041_8937),
        ],
        stage_ns: [
            ("fold", 0x40d5_1e9b_020c_49ba),
            ("hash", 0x40c9_0d8c_49ba_5e35),
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
        results_fnv: 0xac76_1c8c_56e9_e646,
        instants_fnv: 0x7b57_22d8_6978_f6a5,
        horizon_bits: 0x4150_8b4f_6ea7_ef9e,
        peak_queue_depth: 19,
        leases: [
            (54, 0, 0x4150_5715_4bc6_a7f0),
            (6, 1, 0x4131_7ec0_b7ce_d917),
        ],
        stage_ns: [
            ("fold", 0x40ef_ade8_8312_6e98),
            ("hash", 0x40e2_ca29_374b_c6a8),
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
        assert_eq!(
            results_fnv(&report),
            pin.results_fnv,
            "seed {seed}: results"
        );
        assert_eq!(
            instants_fnv(&report),
            pin.instants_fnv,
            "seed {seed}: instants"
        );

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
            0xae10_f7a8_7e83_7d9eu64,
            0x40fb_1253_5810_624eu64,
        ),
        (8, 3, 33, 0x87aa_7f98_0418_0c2c, 0x40de_152d_f3b6_45a2),
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
