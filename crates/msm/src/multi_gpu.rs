//! Multi-GPU MSM on the simulator.
//!
//! MSM parallelizes trivially across GPUs — the paper's starting
//! observation: split the `(scalar, point)` pairs into `G` contiguous
//! chunks, run Pippenger independently on each GPU, and combine the `G`
//! partial sums with one log-depth reduction. No all-to-all, no
//! permutation: this is why MSM scaled to multi-GPU years before NTT did.
//!
//! Because the split is exact, the simulator only has to *charge* it: the
//! host computes the whole sum once with [`msm`], and
//! [`simulate_multi_gpu_msm`] bills one Pippenger kernel per device over
//! that device's chunk plus the reduction.

use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{KernelProfile, Machine};

use crate::{msm, optimal_window_bits, pippenger_group_ops, G1Affine, G1Projective};

/// Field multiplications per Jacobian group operation (mixed adds and
/// doublings average out around this; the exact mix barely moves it).
const FIELD_MULS_PER_GROUP_OP: u64 = 12;

/// Wire size of an uncompressed G1 point (two 254-bit coordinates).
const G1_BYTES: usize = 64;

/// Runs an MSM distributed over the simulated machine's GPUs.
///
/// Functionally exact (it is [`msm`], computed once on the host); charges
/// per-GPU Pippenger kernels plus the final reduction to the simulated
/// clock. Any number of pairs is charged, down to none.
///
/// # Panics
///
/// Panics if lengths mismatch, or the machine carries a fault plan that
/// fails the reduction.
pub fn multi_gpu_msm(
    machine: &mut Machine,
    scalars: &[Bn254Fr],
    points: &[G1Affine],
) -> G1Projective {
    let sum = msm(scalars, points);
    simulate_multi_gpu_msm(machine, scalars.len() as u64);
    sum
}

/// Charges what [`multi_gpu_msm`] charges for `n` pairs, without
/// computing (also the cost-only form for large-size sweeps): one
/// [`msm_kernel_profile`] per device over its contiguous chunk, all in one
/// parallel phase, then the reduction of the `G` partial sums. The last
/// chunks take the remainder, which can be nothing (33 pairs over 8 GPUs
/// is 5 + … + 5 + 3 + 0, and 3 pairs is 1 + 1 + 1 + 0 + … + 0); an empty
/// chunk still launches its kernel.
///
/// # Panics
///
/// Panics if the machine carries a fault plan that fails the reduction.
pub fn simulate_multi_gpu_msm(machine: &mut Machine, n: u64) {
    let g = machine.num_devices() as u64;
    let chunk = n.div_ceil(g);
    let mut lens: Vec<u64> = (0..g)
        .map(|dev| ((dev + 1) * chunk).min(n) - (dev * chunk).min(n))
        .collect();
    machine.parallel_phase(&mut lens, |ctx, _dev, len| {
        ctx.launch(&msm_kernel_profile(*len));
    });
    let partials = vec![G1Projective::identity(); g as usize];
    machine
        .reduce_to_root(&partials, G1_BYTES, |a, _| *a)
        .expect("the MSM machine carries no fault plan");
}

/// Cost profile of one GPU's Pippenger kernel over `n` pairs.
pub fn msm_kernel_profile(n: u64) -> KernelProfile {
    let c = optimal_window_bits(n as usize);
    let group_ops = pippenger_group_ops(n, c);
    let mut p = KernelProfile::named("pippenger-msm");
    p.blocks = (n / 256).max(1);
    p.field_muls = group_ops * FIELD_MULS_PER_GROUP_OP;
    p.field_adds = group_ops * FIELD_MULS_PER_GROUP_OP / 2;
    // Each pair is read once (scalar + point); buckets live in
    // global memory and are touched once per pair per window.
    let windows = 254u64.div_ceil(c as u64);
    p.global_bytes_read = n * (32 + G1_BYTES as u64);
    p.global_bytes_written = windows * ((1u64 << c) - 1) * G1_BYTES as u64;
    p.coalescing_efficiency = 0.6; // bucket scatter is irregular by nature
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msm_naive;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;
    use unintt_gpu_sim::{presets, FieldSpec};

    fn random_pairs(n: usize, seed: u64) -> (Vec<Bn254Fr>, Vec<G1Affine>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars = (0..n).map(|_| Bn254Fr::random(&mut rng)).collect();
        let points = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
        (scalars, points)
    }

    #[test]
    fn multi_gpu_matches_naive() {
        for gpus in [1usize, 2, 4] {
            let (scalars, points) = random_pairs(50, gpus as u64);
            let mut machine = Machine::new(presets::a100_nvlink(gpus), FieldSpec::bn254_fr());
            let result = multi_gpu_msm(&mut machine, &scalars, &points);
            assert_eq!(result, msm_naive(&scalars, &points), "gpus={gpus}");
            assert!(machine.max_clock_ns() > 0.0);
        }
    }

    #[test]
    fn uneven_split_still_exact() {
        // 50 pairs over 8 GPUs: chunks of 7 with a short tail.
        let (scalars, points) = random_pairs(50, 7);
        let mut machine = Machine::new(presets::a100_nvlink(8), FieldSpec::bn254_fr());
        let result = multi_gpu_msm(&mut machine, &scalars, &points);
        assert_eq!(result, msm_naive(&scalars, &points));
    }

    #[test]
    fn msm_scales_with_gpus_in_simulated_time() {
        let n = 1u64 << 20;
        let mut m1 = Machine::new(presets::a100_nvlink(1), FieldSpec::bn254_fr());
        simulate_multi_gpu_msm(&mut m1, n);
        let mut m8 = Machine::new(presets::a100_nvlink(8), FieldSpec::bn254_fr());
        simulate_multi_gpu_msm(&mut m8, n);
        let speedup = m1.max_clock_ns() / m8.max_clock_ns();
        assert!(
            speedup > 4.0,
            "MSM should scale nearly linearly: got {speedup:.2}x"
        );
    }

    #[test]
    fn fewer_pairs_than_gpus_is_exact_and_charged() {
        // 3 pairs over 8 GPUs: three chunks of one, five empty ones.
        let (scalars, points) = random_pairs(3, 1);
        let mut machine = Machine::new(presets::a100_nvlink(8), FieldSpec::bn254_fr());
        let result = multi_gpu_msm(&mut machine, &scalars, &points);
        assert_eq!(result, msm_naive(&scalars, &points));
        assert!(machine.max_clock_ns() > 0.0);
        assert_eq!(machine.stats().kernels_launched, 8);
        assert_eq!(machine.stats().collectives, 8);
    }
}
