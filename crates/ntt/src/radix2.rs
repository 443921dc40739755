//! Iterative radix-2 NTT kernels and the [`Ntt`] context.
//!
//! The context owns (shared) twiddle tables and exposes:
//!
//! * [`Ntt::forward`] / [`Ntt::inverse`] — natural-order in/out transforms;
//! * [`Ntt::forward_columns`] / [`Ntt::inverse_columns`] — the same
//!   transform down every column of a row-major matrix, as row stages;
//! * [`Ntt::dit_in_place`] / [`Ntt::dif_in_place`] — the raw radix-2
//!   decimation-in-time (bit-reversed input) and decimation-in-frequency
//!   (bit-reversed output) kernels, the oracle the vector kernels are
//!   tested against;
//! * [`naive_dft`] — the O(n²) reference every fast path is tested against.

use std::sync::{Arc, OnceLock};

use unintt_exec::Executor;
use unintt_ff::{Field, TwoAdicField};

use crate::six_step::{row_butterfly, six_step};
use crate::vector::{VectorPlan, VECTOR_DIRECT_MAX_LOG_N};
use crate::{cache, reverse_bits, TwiddleTable};

/// The counter every public transform call bumps once.
const DISPATCH_COUNTER: &str = "ntt_dispatch_vector";

/// Direction of a transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Evaluate: coefficients → values on the subgroup.
    Forward,
    /// Interpolate: values → coefficients (includes the `1/n` scale).
    Inverse,
}

/// A reusable NTT context for a fixed power-of-two domain.
///
/// ```
/// use unintt_ff::{Field, Goldilocks, PrimeField};
/// use unintt_ntt::Ntt;
///
/// let ntt = Ntt::<Goldilocks>::new(3);
/// let original: Vec<Goldilocks> = (1..=8).map(Goldilocks::from_u64).collect();
/// let mut data = original.clone();
/// ntt.forward(&mut data);
/// ntt.inverse(&mut data);
/// assert_eq!(data, original);
/// ```
#[derive(Clone, Debug)]
pub struct Ntt<F: TwoAdicField> {
    table: Arc<TwiddleTable<F>>,
    // The direct-size kernel plan, taken from the process-wide cache by the
    // first transform that runs on it and held from then on: a transform
    // call takes no lock and clones no `Arc`, construction and cost-only
    // users never pay for a plan, and a plan the cache evicts lives on
    // through the contexts that use it.
    plan: OnceLock<Arc<VectorPlan<F>>>,
}

impl<F: TwoAdicField> Ntt<F> {
    /// Creates a context for size `2^log_n`. Twiddle tables are shared
    /// process-wide per `(field, log_n)` — see [`crate::shared_table`] —
    /// so repeated construction is cheap after the first.
    ///
    /// # Panics
    ///
    /// Panics if `log_n` exceeds the field's two-adicity.
    pub fn new(log_n: u32) -> Self {
        Self::from_table(cache::shared_table(log_n))
    }

    /// Creates a context sharing an existing twiddle table.
    pub fn from_table(table: Arc<TwiddleTable<F>>) -> Self {
        Self {
            table,
            plan: OnceLock::new(),
        }
    }

    /// The shared twiddle table.
    pub fn table(&self) -> &Arc<TwiddleTable<F>> {
        &self.table
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.table.n()
    }

    /// Domain size exponent.
    pub fn log_n(&self) -> u32 {
        self.table.log_n()
    }

    fn check_len(&self, len: usize) {
        assert_eq!(
            len,
            self.n(),
            "input length {len} does not match NTT domain size {}",
            self.n()
        );
    }

    /// Forward NTT, natural order in and out.
    ///
    /// Up to [`crate::VECTOR_DIRECT_MAX_LOG_N`] this is one pass of the
    /// vector kernels (lane-packed fused butterflies); above it, six-step
    /// over rows of the same kernels, forked over the global [`Executor`].
    /// The output is bit-identical to the radix-2 oracle
    /// ([`Self::dit_in_place`] on bit-reversed input).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.n()`.
    pub fn forward(&self, values: &mut [F]) {
        self.transform(values, false);
    }

    /// Inverse NTT, natural order in and out (includes the `1/n` scale).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.n()`.
    pub fn inverse(&self, values: &mut [F]) {
        self.transform(values, true);
    }

    /// One public transform call: one `ntt_dispatch_vector` bump, then this
    /// context's plan up to the direct threshold, six-step above it.
    fn transform(&self, values: &mut [F], inverse: bool) {
        self.check_len(values.len());
        unintt_telemetry::counter_add(DISPATCH_COUNTER, 1);
        let log_n = self.log_n();
        if log_n <= VECTOR_DIRECT_MAX_LOG_N {
            self.plan
                .get_or_init(|| cache::shared_vector_plan(log_n))
                .transform(values, inverse);
        } else {
            six_step(Executor::global(), &self.table, values, inverse);
        }
    }

    /// Forward NTT down every column of the row-major `n × cols` matrix
    /// `values` (`cols = values.len() / n`): each column ends up holding
    /// exactly what [`Self::forward`] makes of it. The transform runs as
    /// `log n` radix-2 stages over whole rows — one twiddle per row pair,
    /// contiguous lanes along the row — so many tiny transforms cost one
    /// pass per stage instead of a gather, a call and a scatter each. One
    /// public call, one `ntt_dispatch_vector` bump.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not a multiple of `self.n()`.
    pub fn forward_columns(&self, values: &mut [F]) {
        self.transform_columns(values, false);
    }

    /// Inverse NTT down every column (see [`Self::forward_columns`];
    /// includes the `1/n` scale).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not a multiple of `self.n()`.
    pub fn inverse_columns(&self, values: &mut [F]) {
        self.transform_columns(values, true);
    }

    fn transform_columns(&self, values: &mut [F], inverse: bool) {
        let (n, log_n) = (self.n(), self.log_n());
        assert_eq!(
            values.len() % n,
            0,
            "{} elements do not form columns of {n}",
            values.len()
        );
        unintt_telemetry::counter_add(DISPATCH_COUNTER, 1);
        let cols = values.len() / n;
        if cols == 0 {
            return;
        }
        let twiddles = if inverse {
            self.table.inverse()
        } else {
            self.table.forward()
        };
        // DIF over rows: stage `s` pairs row `j` with row `j + 2^(s−1)` of
        // each `2^s`-row block; rows leave in bit-reversed order.
        for s in (1..=log_n).rev() {
            let half = 1usize << (s - 1);
            for block in values.chunks_exact_mut(2 * half * cols) {
                let (lo, hi) = block.split_at_mut(half * cols);
                let pairs = lo.chunks_exact_mut(cols).zip(hi.chunks_exact_mut(cols));
                for (j, (u, v)) in pairs.enumerate() {
                    row_butterfly(u, v, twiddles[j << (log_n - s)]);
                }
            }
        }
        for i in 0..n {
            let j = reverse_bits(i, log_n);
            if i < j {
                let (head, tail) = values.split_at_mut(j * cols);
                head[i * cols..][..cols].swap_with_slice(&mut tail[..cols]);
            }
        }
        if inverse {
            self.scale_by_n_inv(values);
        }
    }

    /// Decimation-in-time kernel: expects **bit-reversed** input, produces
    /// natural-order output. No scaling.
    pub fn dit_in_place(&self, values: &mut [F]) {
        self.dit_in_place_with(values, self.table.forward());
    }

    /// DIT kernel with an explicit twiddle slice (forward or inverse).
    fn dit_in_place_with(&self, values: &mut [F], twiddles: &[F]) {
        self.check_len(values.len());
        let log_n = self.log_n();
        let n = values.len();
        for s in 1..=log_n {
            let m = 1usize << s;
            let half = m / 2;
            let stride = log_n - s;
            for k in (0..n).step_by(m) {
                for j in 0..half {
                    let w = twiddles[j << stride];
                    let t = values[k + j + half] * w;
                    let u = values[k + j];
                    values[k + j] = u + t;
                    values[k + j + half] = u - t;
                }
            }
        }
    }

    /// Decimation-in-frequency kernel: natural-order input, **bit-reversed**
    /// output. No scaling.
    pub fn dif_in_place(&self, values: &mut [F]) {
        self.dif_in_place_with(values, self.table.forward());
    }

    /// Inverse-direction DIF kernel (bit-reversed output, inverse twiddles,
    /// no scaling). Composes with [`Ntt::dit_in_place`] for round-trips that
    /// avoid explicit permutation.
    pub fn inverse_dif_in_place(&self, values: &mut [F]) {
        self.dif_in_place_with(values, self.table.inverse());
    }

    /// Inverse-direction DIT kernel (bit-reversed input, inverse twiddles,
    /// no scaling).
    pub fn inverse_dit_in_place(&self, values: &mut [F]) {
        self.dit_in_place_with(values, self.table.inverse());
    }

    fn dif_in_place_with(&self, values: &mut [F], twiddles: &[F]) {
        self.check_len(values.len());
        let log_n = self.log_n();
        let n = values.len();
        for s in (1..=log_n).rev() {
            let m = 1usize << s;
            let half = m / 2;
            let stride = log_n - s;
            for k in (0..n).step_by(m) {
                for j in 0..half {
                    let w = twiddles[j << stride];
                    let u = values[k + j];
                    let v = values[k + j + half];
                    values[k + j] = u + v;
                    values[k + j + half] = (u - v) * w;
                }
            }
        }
    }

    /// Applies the final `1/n` scale of an inverse transform.
    pub fn scale_by_n_inv(&self, values: &mut [F]) {
        let n_inv = self.table.n_inv();
        for v in values.iter_mut() {
            *v *= n_inv;
        }
    }
}

/// O(n²) reference DFT: `out[k] = Σ_i input[i]·omega^{ik}`.
///
/// Accepts any root `omega` whose order equals `input.len()`; used as the
/// ground truth in tests throughout the workspace.
pub fn naive_dft<F: Field>(input: &[F], omega: F) -> Vec<F> {
    let n = input.len();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = F::ZERO;
        let wk = omega.pow(k as u64);
        let mut w = F::ONE;
        for &x in input {
            acc += x * w;
            w *= wk;
        }
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_reverse_permute;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{BabyBear, Bn254Fr, Goldilocks, PrimeField};

    fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
    }

    fn forward_matches_naive_generic<F: TwoAdicField>() {
        for log_n in 0..=8u32 {
            let ntt = Ntt::<F>::new(log_n);
            let input = random_vec::<F>(log_n, 100 + log_n as u64);
            let expected = naive_dft(&input, ntt.table().omega());
            let mut actual = input.clone();
            ntt.forward(&mut actual);
            assert_eq!(actual, expected, "log_n={log_n}");
        }
    }

    /// Dev profiling aid, not a correctness check: what one `Ntt::forward`
    /// costs at the sizes the simulator and the service call it at, alone
    /// and with a second thread calling the same context, and the
    /// engine's outer phase at 2^18 on 8 devices. Run with
    /// `cargo test -p unintt-ntt --release transform_call_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn transform_call_profile() {
        use std::time::Instant;
        fn per_call(ntt: &Ntt<Goldilocks>, threads: usize, calls: usize) -> f64 {
            let t = Instant::now();
            std::thread::scope(|s| {
                for i in 0..threads {
                    s.spawn(move || {
                        let mut v = random_vec::<Goldilocks>(ntt.log_n(), i as u64);
                        for _ in 0..calls {
                            ntt.forward(std::hint::black_box(&mut v));
                        }
                    });
                }
            });
            t.elapsed().as_nanos() as f64 / calls as f64
        }
        for (log_n, calls) in [(3u32, 400_000usize), (8, 40_000), (10, 10_000)] {
            let ntt = Ntt::<Goldilocks>::new(log_n);
            per_call(&ntt, 1, calls / 10);
            println!(
                "Ntt::forward 2^{log_n}: {:.0} ns/call on one thread, {:.0} ns/call on two",
                per_call(&ntt, 1, calls),
                per_call(&ntt, 2, calls)
            );
        }
        // Per shard, 4096 columns of 8.
        let outer = Ntt::<Goldilocks>::new(3);
        let mut shards: Vec<Vec<Goldilocks>> = (0..8).map(|d| random_vec(15, d)).collect();
        for threads in [1usize, 2] {
            let mut best = f64::MAX;
            for _ in 0..20 {
                let t = Instant::now();
                std::thread::scope(|s| {
                    for part in shards.chunks_mut(8 / threads) {
                        s.spawn(|| part.iter_mut().for_each(|m| outer.forward_columns(m)));
                    }
                });
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            println!("outer phase 8 x 2^15: {best:.2} ms on {threads} thread(s)");
        }
    }

    #[test]
    fn forward_matches_naive_goldilocks() {
        forward_matches_naive_generic::<Goldilocks>();
    }

    #[test]
    fn forward_matches_naive_babybear() {
        forward_matches_naive_generic::<BabyBear>();
    }

    #[test]
    fn forward_matches_naive_bn254fr() {
        forward_matches_naive_generic::<Bn254Fr>();
    }

    #[test]
    fn roundtrip_large() {
        let ntt = Ntt::<Goldilocks>::new(12);
        let original = random_vec::<Goldilocks>(12, 7);
        let mut data = original.clone();
        ntt.forward(&mut data);
        assert_ne!(data, original);
        ntt.inverse(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn dif_then_dit_is_identity_up_to_scale() {
        // DIF produces bit-reversed output which DIT consumes directly.
        let ntt = Ntt::<Goldilocks>::new(8);
        let original = random_vec::<Goldilocks>(8, 9);
        let mut data = original.clone();
        ntt.dif_in_place(&mut data);
        ntt.inverse_dit_in_place(&mut data);
        ntt.scale_by_n_inv(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn dif_equals_forward_in_bitrev_order() {
        let ntt = Ntt::<Goldilocks>::new(6);
        let input = random_vec::<Goldilocks>(6, 11);

        let mut by_forward = input.clone();
        ntt.forward(&mut by_forward);

        let mut by_dif = input.clone();
        ntt.dif_in_place(&mut by_dif);
        bit_reverse_permute(&mut by_dif);

        assert_eq!(by_forward, by_dif);
    }

    #[test]
    fn ntt_of_delta_is_constant_one() {
        // NTT of e_0 = all-ones; NTT of constant c = (c·n, 0, 0, …) under
        // inverse.
        let ntt = Ntt::<Goldilocks>::new(5);
        let mut delta = vec![Goldilocks::ZERO; 32];
        delta[0] = Goldilocks::ONE;
        ntt.forward(&mut delta);
        assert!(delta.iter().all(|&x| x == Goldilocks::ONE));
    }

    #[test]
    fn ntt_is_linear() {
        let ntt = Ntt::<Goldilocks>::new(6);
        let a = random_vec::<Goldilocks>(6, 1);
        let b = random_vec::<Goldilocks>(6, 2);
        let c = Goldilocks::from_u64(12345);

        let mut lhs: Vec<Goldilocks> = a.iter().zip(&b).map(|(&x, &y)| x * c + y).collect();
        ntt.forward(&mut lhs);

        let (mut fa, mut fb) = (a.clone(), b.clone());
        ntt.forward(&mut fa);
        ntt.forward(&mut fb);
        let rhs: Vec<Goldilocks> = fa.iter().zip(&fb).map(|(&x, &y)| x * c + y).collect();

        assert_eq!(lhs, rhs);
    }

    #[test]
    fn size_one_and_two() {
        let ntt1 = Ntt::<Goldilocks>::new(0);
        let mut v = vec![Goldilocks::from_u64(9)];
        ntt1.forward(&mut v);
        assert_eq!(v[0].to_canonical_u64(), 9);

        let ntt2 = Ntt::<Goldilocks>::new(1);
        let mut v = vec![Goldilocks::from_u64(3), Goldilocks::from_u64(5)];
        ntt2.forward(&mut v);
        assert_eq!(v[0].to_canonical_u64(), 8);
        // omega for n=2 is -1: X[1] = 3 - 5 = -2
        assert_eq!(v[1], -Goldilocks::from_u64(2));
    }

    #[test]
    #[should_panic(expected = "does not match NTT domain size")]
    fn wrong_length_panics() {
        let ntt = Ntt::<Goldilocks>::new(4);
        let mut v = vec![Goldilocks::ZERO; 8];
        ntt.forward(&mut v);
    }

    #[test]
    fn parseval_like_dot_product_preserved() {
        // <F(a), F(b̄)> = n·<a, b̄-reversed> style identity is awkward in
        // finite fields; instead check Σ X[k] = n·x[0] (k-sum picks the DC
        // term of the inverse).
        let ntt = Ntt::<Goldilocks>::new(7);
        let input = random_vec::<Goldilocks>(7, 3);
        let mut data = input.clone();
        ntt.forward(&mut data);
        let sum: Goldilocks = data.iter().copied().sum();
        assert_eq!(sum, input[0] * Goldilocks::from_u64(128));
    }
}
