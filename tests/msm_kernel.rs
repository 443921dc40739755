//! The one MSM kernel against the double-and-add oracle: edge-case
//! scalars and points at every window width, the multi-GPU split, and a
//! whole proof under two pool sizes.

use std::process::Command;

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field};
use unintt_gpu_sim::{presets, FieldSpec, Machine};
use unintt_msm::{
    msm, msm_naive, msm_with_window, multi_gpu_msm, optimal_window_bits, G1Affine, G1Projective,
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
