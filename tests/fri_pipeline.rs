//! Cross-crate integration: the hash-based commitment pipeline against the
//! NTT library and the multi-GPU simulator.

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Field, Goldilocks, PrimeField, TwoAdicField};
use unintt_fri::{commit_trace, fri, verify_trace, FriConfig, LdeBackend};
use unintt_gpu_sim::presets;
use unintt_ntt::{coset_ntt, Ntt};

fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width)
        .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
        .collect()
}

#[test]
fn pipeline_roundtrip_across_machine_shapes() {
    let config = FriConfig::standard();
    let trace = random_trace(128, 3, 1);
    let reference = commit_trace(&trace, &config, &mut LdeBackend::cpu());
    assert!(verify_trace(&reference, &config));

    for gpus in [1usize, 2, 8] {
        let mut backend = LdeBackend::simulated(presets::a100_nvlink(gpus));
        let commitment = commit_trace(&trace, &config, &mut backend);
        assert_eq!(
            commitment.trace_root, reference.trace_root,
            "gpus={gpus}: LDE through the engine must be bit-identical"
        );
        assert!(verify_trace(&commitment, &config), "gpus={gpus}");
    }
}

#[test]
fn fri_accepts_exactly_degree_bound() {
    // Degree bound is n = N / blowup: a polynomial of degree n−1 passes,
    // and one of degree n (one too many coefficients) must fail.
    let config = FriConfig::standard();
    let log_degree = 7u32;
    let shift = Goldilocks::GENERATOR;
    let mut rng = StdRng::seed_from_u64(2);

    let build = |extra: bool, rng: &mut StdRng| {
        let mut coeffs: Vec<Goldilocks> = (0..1usize << log_degree)
            .map(|_| Goldilocks::random(rng))
            .collect();
        coeffs.resize(1 << (log_degree + config.log_blowup), Goldilocks::ZERO);
        if extra {
            coeffs[1 << log_degree] = Goldilocks::ONE;
        }
        let ntt = Ntt::<Goldilocks>::new(log_degree + config.log_blowup);
        coset_ntt(&ntt, &mut coeffs, shift);
        coeffs
    };

    let good = build(false, &mut rng);
    let n = good.len();
    let proof = fri::prove(&config, fri::embed(&good), shift);
    assert!(fri::verify(&config, &proof, n, shift));

    let bad = build(true, &mut rng);
    let proof = fri::prove(&config, fri::embed(&bad), shift);
    assert!(!fri::verify(&config, &proof, n, shift));
}

#[test]
fn extension_field_challenges_compose_with_base_codewords() {
    // DEEP-style consistency: evaluating the committed polynomial at an
    // extension-field point via barycentric interpolation over base-field
    // evaluations. This exercises GoldilocksExt2 against the NTT library.
    use unintt_ff::GoldilocksExt2;

    let log_n = 6u32;
    let n = 1usize << log_n;
    let mut rng = StdRng::seed_from_u64(3);
    let coeffs: Vec<Goldilocks> = (0..n).map(|_| Goldilocks::random(&mut rng)).collect();

    // Evaluate at a random extension point two ways.
    let zeta = GoldilocksExt2::random(&mut rng);
    let direct: GoldilocksExt2 = coeffs.iter().rev().fold(GoldilocksExt2::ZERO, |acc, &c| {
        acc * zeta + GoldilocksExt2::from_base(c)
    });

    // Via the evaluation form: barycentric over the subgroup.
    let ntt = Ntt::<Goldilocks>::new(log_n);
    let mut evals = coeffs.clone();
    ntt.forward(&mut evals);
    let omega = Goldilocks::two_adic_generator(log_n);
    // p(ζ) = (ζⁿ−1)/n · Σ evals[i]·ωⁱ/(ζ−ωⁱ)
    let zn = {
        let mut acc = GoldilocksExt2::ONE;
        for _ in 0..log_n {
            acc = acc.square();
        }
        let mut z = zeta;
        for _ in 0..log_n {
            z = z.square();
        }
        let _ = acc;
        z - GoldilocksExt2::ONE
    };
    let n_inv = GoldilocksExt2::from_base(Goldilocks::from_u64(n as u64).inverse().unwrap());
    let mut sum = GoldilocksExt2::ZERO;
    let mut wi = Goldilocks::ONE;
    for &e in &evals {
        let denom = (zeta - GoldilocksExt2::from_base(wi)).inverse().unwrap();
        sum += GoldilocksExt2::from_base(e * wi) * denom;
        wi *= omega;
    }
    let barycentric = zn * n_inv * sum;
    assert_eq!(direct, barycentric);
}

#[test]
fn wider_traces_cost_more_simulated_time() {
    let config = FriConfig::standard();
    let narrow = random_trace(256, 2, 4);
    let wide = random_trace(256, 8, 5);

    let mut b1 = LdeBackend::simulated(presets::a100_nvlink(4));
    let _ = commit_trace(&narrow, &config, &mut b1);
    let mut b2 = LdeBackend::simulated(presets::a100_nvlink(4));
    let _ = commit_trace(&wide, &config, &mut b2);
    assert!(b2.sim_time() > b1.sim_time());
}
