//! Algorithm-variant wall-clock benches: the ablation data behind the
//! design choices DESIGN.md calls out (kernel shape, MSM window width,
//! hash-based commitment cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field, Goldilocks};
use unintt_fri::{commit_trace, hash_elements, FriConfig, LdeBackend};
use unintt_msm::{msm_with_window, G1Affine};
use unintt_ntt::Ntt;

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

fn bench_ntt_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants/ntt_kernels/goldilocks_2^16");
    group.sample_size(10);
    let log_n = 16u32;
    let ntt = Ntt::<Goldilocks>::new(log_n);
    let input = random_vec::<Goldilocks>(1 << log_n, 1);
    group.bench_function("radix2_bitrev", |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| ntt.forward(&mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("radix4_fused", |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| ntt.forward_radix4(&mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("stockham_autosort", |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| ntt.forward_stockham(&mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_msm_windows(c: &mut Criterion) {
    // The one MSM kernel across window widths around the heuristic's pick
    // (8 bits at 2^9): narrower means more windows, wider more buckets.
    let mut group = c.benchmark_group("variants/msm_window/2^9");
    group.sample_size(10);
    let n = 1usize << 9;
    let mut rng = StdRng::seed_from_u64(2);
    let scalars = random_vec::<Bn254Fr>(n, 3);
    let points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
    for window in 6u32..=10 {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| msm_with_window(&scalars, &points, w))
        });
    }
    group.finish();
}

fn bench_hash_and_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants/fri");
    group.sample_size(10);
    let input = random_vec::<Goldilocks>(1 << 10, 4);
    group.bench_function("sponge_hash_2^10_elems", |b| {
        b.iter(|| hash_elements(&input))
    });

    let config = FriConfig::standard();
    let trace: Vec<Vec<Goldilocks>> = (0..4).map(|i| random_vec(1 << 10, 10 + i)).collect();
    group.bench_function("trace_commit_2^10x4", |b| {
        b.iter(|| commit_trace(&trace, &config, &mut LdeBackend::cpu()))
    });
    group.finish();
}

criterion_group!(
    variant_benches,
    bench_ntt_variants,
    bench_msm_windows,
    bench_hash_and_commit
);
criterion_main!(variant_benches);
