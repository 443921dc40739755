//! E10 — wall-clock CPU NTT benchmarks (cache-resident and pool-forked
//! sizes, both fields), the real-hardware baseline of the reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field, Goldilocks, TwoAdicField};
use unintt_ntt::Ntt;

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

/// One `Ntt::forward` per size in `sizes`, as its own benchmark group.
fn bench_forward<F: TwoAdicField>(c: &mut Criterion, group: &str, sizes: &[u32]) {
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    for &log_n in sizes {
        let n = 1usize << log_n;
        let ntt = Ntt::<F>::new(log_n);
        let input = random_vec::<F>(n, log_n as u64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{log_n}")),
            &n,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| ntt.forward(&mut data),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_serial_goldilocks(c: &mut Criterion) {
    bench_forward::<Goldilocks>(c, "cpu_ntt/serial/goldilocks", &[12, 14, 16, 18]);
}

fn bench_serial_bn254(c: &mut Criterion) {
    bench_forward::<Bn254Fr>(c, "cpu_ntt/serial/bn254_fr", &[12, 14, 16]);
}

fn bench_parallel(c: &mut Criterion) {
    // Above 2^20 one `Ntt::forward` decomposes six-step and forks every
    // phase over the global pool (size it with `UNINTT_THREADS`).
    bench_forward::<Goldilocks>(c, "cpu_ntt/parallel/goldilocks", &[21, 22]);
}

fn bench_radix4(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_ntt/radix4_vs_radix2/goldilocks_2^16");
    group.sample_size(10);
    let log_n = 16u32;
    let ntt = Ntt::<Goldilocks>::new(log_n);
    let input = random_vec::<Goldilocks>(1 << log_n, 2);
    group.bench_function("radix2", |b| {
        b.iter_batched(
            || input.clone(),
            |mut data| ntt.forward(&mut data),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("radix4", |b| {
        b.iter_batched(
            || input.clone(),
            |mut data| ntt.forward_radix4(&mut data),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_bitrev(c: &mut Criterion) {
    // The table-driven bit-reversal permutation on its own: the dominant
    // non-arithmetic cost of the legacy path at large sizes.
    let mut group = c.benchmark_group("cpu_ntt/bitrev/goldilocks");
    group.sample_size(10);
    for log_n in [12u32, 16, 20] {
        let n = 1usize << log_n;
        let input = random_vec::<Goldilocks>(n, 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{log_n}")),
            &n,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| unintt_ntt::bit_reverse_permute(&mut data),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_kernel_modes(c: &mut Criterion) {
    // Legacy vs Shoup/six-step on the same size — the ratio the
    // `bench-host` harness gate tracks, as a criterion entry.
    use unintt_ntt::{set_kernel_mode, KernelMode};
    let mut group = c.benchmark_group("cpu_ntt/kernel_modes/goldilocks_2^18");
    group.sample_size(10);
    let log_n = 18u32;
    let ntt = Ntt::<Goldilocks>::new(log_n);
    let input = random_vec::<Goldilocks>(1 << log_n, 4);
    group.bench_function("legacy", |b| {
        set_kernel_mode(KernelMode::Legacy);
        b.iter_batched(
            || input.clone(),
            |mut data| ntt.forward(&mut data),
            criterion::BatchSize::LargeInput,
        );
        set_kernel_mode(KernelMode::Fast);
    });
    group.bench_function("shoup", |b| {
        b.iter_batched(
            || input.clone(),
            |mut data| ntt.forward(&mut data),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_goldilocks,
    bench_serial_bn254,
    bench_parallel,
    bench_radix4,
    bench_bitrev,
    bench_kernel_modes
);
criterion_main!(benches);
