//! The one MSM kernel against the double-and-add oracle: edge-case
//! scalars and points at every window width, the multi-GPU split, and a
//! whole proof under two pool sizes. Where the CPU has `avx512ifma`,
//! `msm` runs its windows in IFMA lanes, and the tests that compare it
//! with the per-window scalar path demand the same Jacobian triple bit
//! for bit — coordinates, not group equality. They print which tier ran.

use std::process::Command;

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field, PrimeField, U256};
use unintt_gpu_sim::{presets, FieldSpec, Machine};
use unintt_msm::{
    msm, msm_naive, msm_runs_lanes, msm_with_window, msm_with_window_scalar, multi_gpu_msm,
    optimal_window_bits, G1Affine, G1Projective,
};
use unintt_zkp::{prove, random_circuit, setup, verify, Backend};

/// Scalars that sit on the recoding's edges for window width `c`: the
/// ends of the range, and `2^{kc} ± 1` (a lone bit at a window boundary;
/// a run of ones below it that carries through every lower window).
fn edge_scalars(c: u32) -> Vec<Bn254Fr> {
    let mut out = vec![Bn254Fr::ZERO, Bn254Fr::ONE, -Bn254Fr::ONE];
    for k in [1, 2, 3, 253 / c] {
        let boundary = Bn254Fr::TWO.pow(u64::from(k * c));
        out.push(boundary + Bn254Fr::ONE);
        out.push(boundary - Bn254Fr::ONE);
    }
    out
}

/// `n` seeded pairs laced with the edge cases: every third scalar from
/// [`edge_scalars`]; identity points; a point repeated under the same
/// scalar (both land in one bucket, so the second add is a doubling); and
/// `P, −P` under the same scalar (the bucket cancels to the identity).
/// A signed digit is negative about half the time, so each case also runs
/// through the negated-point path.
fn edge_pairs(n: usize, c: u32, seed: u64) -> (Vec<Bn254Fr>, Vec<G1Affine>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = edge_scalars(c);
    let mut scalars: Vec<Bn254Fr> = (0..n).map(|_| Bn254Fr::random(&mut rng)).collect();
    let mut points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
    for i in 0..n {
        if i % 3 == 0 {
            scalars[i] = edges[(i / 3) % edges.len()];
        }
        match i % 7 {
            3 => points[i] = G1Affine::identity(),
            5 => (scalars[i], points[i]) = (scalars[i - 1], points[i - 1]),
            6 => (scalars[i], points[i]) = (scalars[i - 1], -points[i - 1]),
            _ => {}
        }
    }
    (scalars, points)
}

/// Says which kernels a lanes-vs-scalar comparison compares here.
fn print_tier() {
    if msm_runs_lanes() {
        println!("msm tier: avx512ifma lanes against the scalar path");
    } else {
        println!("msm tier: scalar only (the CPU lacks avx512ifma): lanes not exercised");
    }
}

/// `msm_with_window` (the lanes, where the CPU has them) and the scalar
/// path give the same coordinates; returns the kernel's result.
fn assert_tiers_agree(
    scalars: &[Bn254Fr],
    points: &[G1Affine],
    c: u32,
    what: &str,
) -> G1Projective {
    let kernel = msm_with_window(scalars, points, c);
    let scalar = msm_with_window_scalar(scalars, points, c);
    assert_eq!(
        (kernel.x, kernel.y, kernel.z),
        (scalar.x, scalar.y, scalar.z),
        "{what} c={c}"
    );
    kernel
}

#[test]
fn lanes_equal_scalar_at_every_size_and_width() {
    // Every c gives ⌈255/c⌉ windows, so the last group of eight holds
    // 1, 2, 3, 4, 5 or 6 windows (or is full) somewhere in 2..=16.
    print_tier();
    for c in 2u32..=16 {
        for n in [0usize, 1, 2, 7, 8, 9, 33, 200, 515] {
            let (scalars, points) = edge_pairs(n, c, 1000 * u64::from(c) + n as u64);
            let _ = assert_tiers_agree(&scalars, &points, c, &format!("n={n}"));
        }
    }
}

/// `k` with bit `bit` flipped: every window wholly below `bit` keeps its
/// signed digit (a digit reads only the bits up to its window's top),
/// the window holding it changes.
fn flip(k: Bn254Fr, bit: u32) -> Bn254Fr {
    let mut limbs = k.to_canonical_u256().limbs();
    limbs[(bit / 64) as usize] ^= 1 << (bit % 64);
    Bn254Fr::from_u256(U256::from_limbs(limbs))
}

#[test]
fn doublings_and_cancellations_in_some_lanes_only() {
    // Two pairs `(k, P)` and `(k', ±P)`, with `k'` differing from `k`
    // first in window `f`: in the windows below `f` both meet in one
    // bucket (a doubling, or a cancellation for `−P`), from `f` up they
    // mostly do not. Moving `f` through the first group puts the
    // boundary between every pair of neighbouring lanes.
    print_tier();
    let mut rng = StdRng::seed_from_u64(41);
    let p = G1Affine::random(&mut rng);
    for c in 2u32..=10 {
        let k = Bn254Fr::random(&mut rng);
        for f in 1..8u32 {
            let (scalars, points) = ([k, flip(k, f * c)], [p, -p]);
            let sum = assert_tiers_agree(&scalars, &[p, p], c, &format!("f={f} P, P"));
            assert_eq!(sum, msm_naive(&scalars, &[p, p]), "c={c} f={f} P, P");
            let sum = assert_tiers_agree(&scalars, &points, c, &format!("f={f} P, -P"));
            assert_eq!(sum, msm_naive(&scalars, &points), "c={c} f={f} P, -P");
        }
    }
}

#[test]
fn bucket_equal_to_the_running_sum() {
    // Every low window's signed digit is 2 for `2k` and 1 for `k`, so
    // bucket 2 and bucket 1 both hold `P`: the running sum is `P` when it
    // meets bucket 1, and that addition is a doubling in every lane.
    print_tier();
    let mut rng = StdRng::seed_from_u64(43);
    let p = G1Affine::random(&mut rng);
    for c in 3u32..=16 {
        let ones = (0..250 / c).fold(Bn254Fr::ZERO, |acc, w| {
            acc + Bn254Fr::TWO.pow(u64::from(w * c))
        });
        let three = p.to_projective().mul_scalar(&(ones + ones.double()));
        let sum = assert_tiers_agree(&[ones.double(), ones], &[p, p], c, "2k·P + k·P");
        assert_eq!(sum, three, "c={c}");
        let sum = assert_tiers_agree(&[ones.double(), -ones], &[p, -p], c, "2k·P + (−k)·(−P)");
        assert_eq!(sum, three, "c={c}");
    }
}

#[test]
fn msm_matches_naive_at_every_size() {
    for n in [0usize, 1, 2, 7, 33, 200] {
        let c = optimal_window_bits(n).max(2);
        let (scalars, points) = edge_pairs(n, c, 100 + n as u64);
        assert_eq!(
            msm(&scalars, &points),
            msm_naive(&scalars, &points),
            "n={n}"
        );
    }
}

#[test]
fn every_window_width_matches_naive() {
    for c in 2u32..=16 {
        for n in [7usize, 33] {
            let (scalars, points) = edge_pairs(n, c, u64::from(c));
            assert_eq!(
                msm_with_window(&scalars, &points, c),
                msm_naive(&scalars, &points),
                "c={c} n={n}"
            );
        }
    }
}

#[test]
fn one_bucket_doubles_and_cancels() {
    // Two pairs, same scalar: in every window both points meet in one
    // bucket that held nothing else, so `add_affine` sees exactly `P + P`
    // (or `−P + −P` on a negative digit), then exactly `P + −P`.
    let mut rng = StdRng::seed_from_u64(9);
    let p = G1Affine::random(&mut rng);
    for c in 2u32..=16 {
        for k in edge_scalars(c)
            .into_iter()
            .chain([Bn254Fr::random(&mut rng)])
        {
            let twice = p.to_projective().mul_scalar(&k.double());
            assert_eq!(msm_with_window(&[k, k], &[p, p], c), twice, "c={c} k={k}");
            assert_eq!(
                msm_with_window(&[k, k], &[p, -p], c),
                G1Projective::identity(),
                "c={c} k={k}"
            );
        }
    }
}

#[test]
fn multi_gpu_split_equals_the_kernel() {
    for n in [33usize, 200] {
        let (scalars, points) = edge_pairs(n, optimal_window_bits(n), 300 + n as u64);
        let expected = msm(&scalars, &points);
        assert_eq!(expected, msm_naive(&scalars, &points), "n={n}");
        for gpus in [1usize, 2, 4, 8] {
            let mut machine = Machine::new(presets::a100_nvlink(gpus), FieldSpec::bn254_fr());
            assert_eq!(
                multi_gpu_msm(&mut machine, &scalars, &points),
                expected,
                "n={n} gpus={gpus}"
            );
        }
    }
}

/// What one `multi_gpu_msm` charges, as a pin row: the simulated clock's
/// bits and the machine's `Stats`.
fn charge_row(n: usize, gpus: usize) -> String {
    let (scalars, points) = edge_pairs(n, optimal_window_bits(n), 500 + n as u64);
    let mut machine = Machine::new(presets::a100_nvlink(gpus), FieldSpec::bn254_fr());
    assert_eq!(
        multi_gpu_msm(&mut machine, &scalars, &points),
        msm(&scalars, &points),
        "n={n} gpus={gpus}"
    );
    format!(
        "n{n} g{gpus} clock={:016x} stats={:?}",
        machine.max_clock_ns().to_bits(),
        machine.stats()
    )
}

/// Captured at `4b1e464`, whose `multi_gpu_msm` ran one host Pippenger
/// per device and reduced the partial sums; the times re-captured once
/// when the machine clock became integer picoseconds (each within 2 ps).
const CHARGE_PINS: &str = include_str!("data/msm_charge_pins.txt");

#[test]
fn multi_gpu_charge_matches_pins() {
    let rows: Vec<String> = [8usize, 33, 50, 64, 256, 1000]
        .into_iter()
        .flat_map(|n| [1usize, 2, 4, 8].map(|gpus| charge_row(n, gpus)))
        .collect();
    let pins: Vec<&str> = CHARGE_PINS.lines().collect();
    assert_eq!(rows.len(), pins.len());
    for (row, pin) in rows.iter().zip(pins) {
        assert_eq!(row, pin);
    }
}

/// Marks the child runs of [`proof_is_pool_size_independent`].
const CHILD_ENV: &str = "UNINTT_MSM_KERNEL_CHILD";

/// The global pool is sized once per process, so each pool size gets its
/// own run of this test binary; a child proves, verifies and prints the
/// proof's `content_digest`.
#[test]
fn proof_is_pool_size_independent() {
    if std::env::var_os(CHILD_ENV).is_some() {
        let mut rng = StdRng::seed_from_u64(12);
        let (circuit, witness) = random_circuit(1 << 7, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);
        let proof = prove(&pk, &witness, &[], &mut Backend::cpu());
        assert!(verify(&vk, &proof, &[]));
        println!("digest={:016x}", proof.content_digest());
        return;
    }
    let child_digest = |threads: Option<&str>| {
        let mut child = Command::new(std::env::current_exe().expect("test binary path"));
        child
            .args(["--exact", "proof_is_pool_size_independent", "--nocapture"])
            .env(CHILD_ENV, "1");
        match threads {
            Some(t) => child.env("UNINTT_THREADS", t),
            None => child.env_remove("UNINTT_THREADS"),
        };
        let out = child.output().expect("spawn the child test run");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "child failed: {stdout}");
        let at = stdout.find("digest=").expect("child prints its digest");
        stdout[at..at + "digest=".len() + 16].to_owned()
    };
    let serial = child_digest(Some("1"));
    assert_eq!(serial, child_digest(None), "default pool");
    // More threads than any CI host has cores: tasks really do interleave.
    assert_eq!(serial, child_digest(Some("5")), "5 threads");
}
