//! An algebraic sponge hash over Goldilocks.
//!
//! A Rescue/Poseidon-*shaped* permutation: width-8 state, seven rounds of
//! power S-box (`x ↦ x⁷`, a bijection since `gcd(7, p−1) = 1`), round
//! constants, and a circulant mixing matrix. Rate 4, capacity 4, digests
//! of 4 field elements (~256 bits).
//!
//! **Not cryptographically hardened** — it stands in for Poseidon2/RPO in
//! this performance reproduction. What the pipeline needs from it —
//! determinism, full diffusion, fixed cost per permutation for the
//! simulator to charge — it provides.
//!
//! # One permutation body, two lane widths
//!
//! The permutation is data-independent, so `k` sponges can run in
//! lockstep with word `i` of all `k` states in one register. The round
//! structure, the sponge and the two batch loops ([`hash_rows`],
//! [`compress_pairs`]) are written once over the private `Lane` trait
//! (`add`, `mul`, `mix`, gather/scatter) and instantiated for
//!
//! * `Goldilocks` itself — one sponge, the scalar path behind
//!   [`permute`], [`hash_elements`] and [`compress`];
//! * 8×`u64` AVX-512 registers over `unintt_ff::packed::avx512`, where the
//!   CPU reports `avx512f` + `avx512dq` (the features `unintt_ntt`'s
//!   vector kernels detect).
//!
//! A batch takes its full groups of eight through the wide instantiation
//! and the remainder through the scalar one; without the CPU features
//! everything is the remainder. Every instantiation computes exact
//! canonical residues, so digests do not depend on which one ran.
//!
//! There is no 4×`u64` AVX2 instantiation: `packed::avx2` has the
//! operations, but without mask registers or a 64-bit unsigned compare
//! they cost about twice the AVX-512 ones per register of half the
//! width, and four lanes measured level with the scalar path (≈ 590 ns
//! against ≈ 585 ns per permutation; AVX-512 ≈ 245 ns).
//!
//! # The sparse mix
//!
//! The mixing matrix is the circulant of `C = [2,1,1,3,1,5,1,7]`:
//! `out[i] = Σ_j C[(j−i) mod 8]·old[j]`. Every coefficient is `1` plus an
//! even number, so with `S = Σ_j old[j]`
//!
//! ```text
//! out[i] = S + old[i] + 2·old[i+3] + 4·old[i+5] + 6·old[i+7]   (indices mod 8)
//! ```
//!
//! The scalar lane sums the 21 canonical terms (each `< 2^64`, so the sum
//! is `< 21·2^64 < 2^69`) in a `u128` and reduces once per output: 8
//! reductions per round where the dense product took 64 multiplies and 64
//! modular adds. The wide lanes have no 128-bit accumulator and build the
//! same value from 63 modular adds. The dense product survives as the
//! test oracle only.

use serde::{Deserialize, Serialize};
use unintt_ff::{Field, Goldilocks, PrimeField, GOLDILOCKS_MODULUS};

/// Sponge width in field elements.
pub const WIDTH: usize = 8;
/// Sponge rate (elements absorbed per permutation).
pub const RATE: usize = 4;
/// Number of permutation rounds.
pub const ROUNDS: usize = 7;

/// A 4-element (~256-bit) digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Digest(pub [Goldilocks; 4]);

impl Digest {
    /// The all-zero digest.
    pub fn zero() -> Self {
        Self([Goldilocks::ZERO; 4])
    }

    /// Interprets the digest as a `u64` seed (for challenge derivation).
    pub fn as_u64(&self) -> u64 {
        self.0[0].to_canonical_u64()
    }
}

/// Round constants: distinct small pseudo-random values (fixed nothing-up-
/// my-sleeve: digits of π scaled into the field), one row per round. The
/// table is built at compile time, which also checks every word is
/// canonical.
const ROUND_CONSTANTS: [[Goldilocks; WIDTH]; ROUNDS] = {
    const RAW: [u64; ROUNDS * WIDTH] = [
        0x3141592653589793,
        0x2384626433832795,
        0x0288419716939937,
        0x5105820974944592,
        0x3078164062862089,
        0x9862803482534211,
        0x7067982148086513,
        0x2823066470938446,
        0x0955058223172535,
        0x9408128481117450,
        0x2841027019385211,
        0x0555964462294895,
        0x4930381964428810,
        0x9756659334461284,
        0x7564823378678316,
        0x5271201909145648,
        0x5669234603486104,
        0x5432664821339360,
        0x7260249141273724,
        0x5870066063155881,
        0x7488152092096282,
        0x9254091715364367,
        0x8925903600113305,
        0x3054882046652138,
        0x4146951941511609,
        0x4330572703657595,
        0x9195309218611738,
        0x1932611793105118,
        0x5480744623799627,
        0x4956735188575272,
        0x4891227938183011,
        0x9491298336733624,
        0x4065664308602139,
        0x4946395224737190,
        0x7021798609437027,
        0x7053921717629317,
        0x6759859050244594,
        0x5534690830264252,
        0x2308253344685035,
        0x2619311881710100,
        0x0313783875288658,
        0x7533208381420617,
        0x1771309960518707,
        0x2113499999983729,
        0x7804995105973173,
        0x2816096318595024,
        0x4594553469083026,
        0x4252230825334468,
        0x5035261931188171,
        0x0100313783875288,
        0x6587533208381420,
        0x6171771309960518,
        0x7072113499999983,
        0x7297804995105973,
        0x1732816096318595,
        0x0244594553469083,
    ];
    let mut table = [[Goldilocks::ZERO; WIDTH]; ROUNDS];
    let mut i = 0;
    while i < ROUNDS * WIDTH {
        assert!(RAW[i] < GOLDILOCKS_MODULUS);
        table[i / WIDTH][i % WIDTH] = Goldilocks::new_unchecked(RAW[i]);
        i += 1;
    }
    table
};

/// Word `i` of `LANES` independent sponge states, with the field
/// operations the permutation needs. Implementations return canonical
/// residues, so every instantiation produces the same digests.
trait Lane: Copy {
    /// Sponges advanced per permutation.
    const LANES: usize;

    /// The same element in every lane.
    fn splat(x: Goldilocks) -> Self;
    /// Lane `l` takes `f(l)`.
    fn gather(f: impl Fn(usize) -> Goldilocks) -> Self;
    /// Hands lane `l`'s element to `f(l, _)`.
    fn scatter(self, f: impl FnMut(usize, Goldilocks));
    /// Lane-wise modular sum.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise modular product.
    fn mul(self, rhs: Self) -> Self;

    /// The circulant mix in its sparse form (module docs), from modular
    /// adds alone: 7 for `S`, 3 per word for its multiples, 4 per output.
    #[inline(always)]
    fn mix(state: &mut [Self; WIDTH]) {
        let old = *state;
        let s = (old[0].add(old[1]).add(old[2].add(old[3])))
            .add(old[4].add(old[5]).add(old[6].add(old[7])));
        // Plain loops, not `array::map`: a closure over `Self` that the
        // optimiser declined to inline would run outside the caller's
        // `#[target_feature]` context.
        let (mut x2, mut x4) = (old, old);
        for i in 0..WIDTH {
            x2[i] = old[i].add(old[i]);
            x4[i] = x2[i].add(x2[i]);
        }
        for (i, out) in state.iter_mut().enumerate() {
            let x6 = x4[(i + 7) % WIDTH].add(x2[(i + 7) % WIDTH]);
            *out = (s.add(old[i])).add(x2[(i + 3) % WIDTH].add(x4[(i + 5) % WIDTH]).add(x6));
        }
    }
}

impl Lane for Goldilocks {
    const LANES: usize = 1;

    #[inline(always)]
    fn splat(x: Goldilocks) -> Self {
        x
    }
    #[inline(always)]
    fn gather(f: impl Fn(usize) -> Goldilocks) -> Self {
        f(0)
    }
    #[inline(always)]
    fn scatter(self, mut f: impl FnMut(usize, Goldilocks)) {
        f(0, self);
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }

    /// The sparse mix with one reduction per output: the 21 terms sum to
    /// less than `2^69`, far inside the `u128` accumulator.
    #[inline(always)]
    fn mix(state: &mut [Self; WIDTH]) {
        let old = state.map(|x| x.value() as u128);
        let s: u128 = old.iter().sum();
        for (i, out) in state.iter_mut().enumerate() {
            *out = Goldilocks::reduce128(
                s + old[i]
                    + 2 * old[(i + 3) % WIDTH]
                    + 4 * old[(i + 5) % WIDTH]
                    + 6 * old[(i + 7) % WIDTH],
            );
        }
    }
}

/// The permutation over any lane width: `ROUNDS` of add-constants →
/// S-box `x⁷` → mix.
#[inline(always)]
fn permute_lanes<L: Lane>(state: &mut [L; WIDTH]) {
    for constants in &ROUND_CONSTANTS {
        for (s, &c) in state.iter_mut().zip(constants) {
            let x = s.add(L::splat(c));
            let x2 = x.mul(x);
            let x4 = x2.mul(x2);
            *s = x4.mul(x2).mul(x);
        }
        L::mix(state);
    }
}

/// The sponge over `L::LANES` consecutive rows of `width` elements, lane
/// `l` hashing row `l`: length in the capacity, `RATE` elements absorbed
/// per permutation, and at least one permutation — so the empty row has
/// a digest of its own, and the count is [`permutations_for`].
#[inline(always)]
fn sponge<L: Lane>(rows: &[Goldilocks], width: usize) -> [L; 4] {
    debug_assert_eq!(rows.len(), L::LANES * width);
    let mut state = [L::splat(Goldilocks::ZERO); WIDTH];
    // Length in the capacity to domain-separate different lengths.
    state[WIDTH - 1] = L::splat(Goldilocks::from_u64(width as u64));
    let mut at = 0;
    loop {
        let take = RATE.min(width - at);
        for (i, s) in state.iter_mut().enumerate().take(take) {
            *s = s.add(L::gather(|l| rows[l * width + at + i]));
        }
        permute_lanes(&mut state);
        at += take;
        if at == width {
            return [state[0], state[1], state[2], state[3]];
        }
    }
}

/// Writes lane `l` of `words` to `out[l]`.
#[inline(always)]
fn scatter_digests<L: Lane>(words: [L; 4], out: &mut [Digest]) {
    for (i, word) in words.into_iter().enumerate() {
        word.scatter(|l, v| out[l].0[i] = v);
    }
}

/// [`hash_rows`] over full groups of `L::LANES` rows.
#[inline(always)]
fn hash_rows_lanes<L: Lane>(values: &[Goldilocks], width: usize, out: &mut [Digest]) {
    for (g, group) in out.chunks_exact_mut(L::LANES).enumerate() {
        let rows = &values[g * L::LANES * width..][..L::LANES * width];
        scatter_digests(sponge::<L>(rows, width), group);
    }
}

/// [`compress_pairs`] over full groups of `L::LANES` pairs.
#[inline(always)]
fn compress_pairs_lanes<L: Lane>(children: &[Digest], out: &mut [Digest]) {
    for (group, pairs) in out
        .chunks_exact_mut(L::LANES)
        .zip(children.chunks_exact(2 * L::LANES))
    {
        let mut state = [L::splat(Goldilocks::ZERO); WIDTH];
        for (i, s) in state.iter_mut().enumerate() {
            *s = L::gather(|l| pairs[2 * l + i / 4].0[i % 4]);
        }
        permute_lanes(&mut state);
        scatter_digests([state[0], state[1], state[2], state[3]], group);
    }
}

/// The 8×`u64` AVX-512 instantiation. The lane type is private to this
/// module and only the two `#[target_feature]` entry points instantiate
/// the generic loops with it, so its operations — safe to *name* — only
/// ever execute behind the callers' feature detection.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use unintt_ff::packed::avx512;
    use unintt_ff::Goldilocks;

    use super::{compress_pairs_lanes, hash_rows_lanes, Digest, Lane};

    /// True when the CPU has what [`avx512`]'s primitives need — the same
    /// two features `unintt_ntt`'s AVX-512 stage drivers are gated on.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    #[derive(Clone, Copy)]
    struct Avx512(__m512i);

    impl Lane for Avx512 {
        const LANES: usize = 8;

        #[inline(always)]
        fn splat(x: Goldilocks) -> Self {
            // SAFETY: reached only through this module's entry points,
            // which require avx512f.
            Self(unsafe { _mm512_set1_epi64(x.value() as i64) })
        }
        #[inline(always)]
        fn gather(f: impl Fn(usize) -> Goldilocks) -> Self {
            let w = |l: usize| f(l).value() as i64;
            // SAFETY: as for `splat`.
            Self(unsafe { _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0)) })
        }
        #[inline(always)]
        fn scatter(self, mut f: impl FnMut(usize, Goldilocks)) {
            let mut words = [0u64; 8];
            // SAFETY: as for `splat`; the unaligned store covers exactly
            // the eight words of the array.
            unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), self.0) };
            for (l, &w) in words.iter().enumerate() {
                // Lanes only ever hold outputs of `gl_add` / `gl_mul`
                // over canonical inputs, which are canonical.
                f(l, Goldilocks::new_unchecked(w));
            }
        }
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: as for `splat`; both operands are canonical lanes.
            Self(unsafe { avx512::gl_add(self.0, rhs.0) })
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: reached only through this module's entry points,
            // which require avx512f and avx512dq; canonical lanes.
            Self(unsafe { avx512::gl_mul(self.0, rhs.0) })
        }
    }

    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512dq` ([`detected`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn hash_rows(values: &[Goldilocks], width: usize, out: &mut [Digest]) {
        hash_rows_lanes::<Avx512>(values, width, out);
    }

    /// # Safety
    ///
    /// The CPU must support `avx512f` and `avx512dq` ([`detected`]).
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn compress_pairs(children: &[Digest], out: &mut [Digest]) {
        compress_pairs_lanes::<Avx512>(children, out);
    }
}

/// How many leading items of a batch of `n` go through the wide lanes:
/// the full groups of eight where the CPU has them, none otherwise.
fn wide_prefix(n: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        return n - n % 8;
    }
    let _ = n;
    0
}

/// Hashes every row of the row-major matrix `values` (rows of `width`
/// elements) into `out`, one digest per row, each equal to
/// [`hash_elements`] of that row. Full groups of eight rows share
/// permutations in AVX-512 lanes where the CPU has them; the rest run
/// the scalar sponge.
///
/// # Panics
///
/// Panics if `values.len() != out.len() * width`.
pub fn hash_rows(values: &[Goldilocks], width: usize, out: &mut [Digest]) {
    assert_eq!(
        values.len(),
        out.len() * width,
        "matrix does not hold one row per digest"
    );
    let wide = wide_prefix(out.len());
    #[cfg(target_arch = "x86_64")]
    if wide > 0 {
        // SAFETY: `wide_prefix` is non-zero only when avx512f and
        // avx512dq were detected.
        unsafe { x86::hash_rows(&values[..wide * width], width, &mut out[..wide]) };
    }
    hash_rows_lanes::<Goldilocks>(&values[wide * width..], width, &mut out[wide..]);
}

/// Compresses adjacent digest pairs: `out[k] = compress(children[2k],
/// children[2k+1])` — one Merkle level. Lane use as in [`hash_rows`].
///
/// # Panics
///
/// Panics if `children.len() != 2 * out.len()`.
pub fn compress_pairs(children: &[Digest], out: &mut [Digest]) {
    assert_eq!(
        children.len(),
        2 * out.len(),
        "a level holds two children per parent"
    );
    let wide = wide_prefix(out.len());
    #[cfg(target_arch = "x86_64")]
    if wide > 0 {
        // SAFETY: `wide_prefix` is non-zero only when avx512f and
        // avx512dq were detected.
        unsafe { x86::compress_pairs(&children[..2 * wide], &mut out[..wide]) };
    }
    compress_pairs_lanes::<Goldilocks>(&children[2 * wide..], &mut out[wide..]);
}

/// The permutation: `ROUNDS` of add-constants → S-box → mix.
pub fn permute(state: &mut [Goldilocks; WIDTH]) {
    permute_lanes(state);
}

/// Hashes a slice of field elements (sponge with simple length padding).
pub fn hash_elements(input: &[Goldilocks]) -> Digest {
    Digest(sponge(input, input.len()))
}

/// Compresses two digests into one (Merkle interior node).
pub fn compress(left: &Digest, right: &Digest) -> Digest {
    let mut out = [Digest::zero()];
    compress_pairs_lanes::<Goldilocks>(&[*left, *right], &mut out);
    out[0]
}

/// Number of permutations needed to hash `len` elements (for cost models).
pub fn permutations_for(len: usize) -> u64 {
    (len.div_ceil(RATE)).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    #[test]
    fn deterministic() {
        let input = random_vec(10, 1);
        assert_eq!(hash_elements(&input), hash_elements(&input));
    }

    #[test]
    fn sensitive_to_every_element() {
        let input = random_vec(9, 2);
        let base = hash_elements(&input);
        for i in 0..input.len() {
            let mut changed = input.clone();
            changed[i] += Goldilocks::ONE;
            assert_ne!(hash_elements(&changed), base, "i={i}");
        }
    }

    #[test]
    fn length_domain_separation() {
        // A vector and its zero-extension must hash differently.
        let input = random_vec(4, 3);
        let mut padded = input.clone();
        padded.push(Goldilocks::ZERO);
        assert_ne!(hash_elements(&input), hash_elements(&padded));
        assert_ne!(hash_elements(&[]), hash_elements(&[Goldilocks::ZERO]));
    }

    #[test]
    fn compress_is_order_sensitive() {
        let a = hash_elements(&random_vec(4, 4));
        let b = hash_elements(&random_vec(4, 5));
        assert_ne!(compress(&a, &b), compress(&b, &a));
        assert_ne!(compress(&a, &b), a);
    }

    #[test]
    fn permutation_diffuses_single_bit() {
        let mut s1 = [Goldilocks::ZERO; WIDTH];
        let mut s2 = [Goldilocks::ZERO; WIDTH];
        s2[0] = Goldilocks::ONE;
        permute(&mut s1);
        permute(&mut s2);
        let differing = s1.iter().zip(&s2).filter(|(a, b)| a != b).count();
        assert_eq!(
            differing, WIDTH,
            "one-element change must diffuse everywhere"
        );
    }

    #[test]
    fn empty_input_is_permuted_once() {
        // `fri::prove` seeds its transcript with `Digest::zero()`; the
        // hash of nothing must not collide with it.
        assert_ne!(hash_elements(&[]), Digest::zero());
        let mut state = [Goldilocks::ZERO; WIDTH];
        permute(&mut state);
        assert_eq!(hash_elements(&[]).0[..], state[..4]);
    }

    thread_local! {
        /// Products formed by [`Probe`] lanes on this test thread.
        static MULS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A one-sponge lane that counts its products and keeps the default
    /// add-only `mix` — the arithmetic the wide lanes run, in scalars.
    #[derive(Clone, Copy, PartialEq, Debug)]
    struct Probe(Goldilocks);

    impl Lane for Probe {
        const LANES: usize = 1;
        fn splat(x: Goldilocks) -> Self {
            Self(x)
        }
        fn gather(f: impl Fn(usize) -> Goldilocks) -> Self {
            Self(f(0))
        }
        fn scatter(self, mut f: impl FnMut(usize, Goldilocks)) {
            f(0, self.0);
        }
        fn add(self, rhs: Self) -> Self {
            Self(self.0 + rhs.0)
        }
        fn mul(self, rhs: Self) -> Self {
            MULS.with(|m| m.set(m.get() + 1));
            Self(self.0 * rhs.0)
        }
    }

    #[test]
    fn sponge_runs_the_permutations_the_model_charges() {
        // 4 products per S-box, none in the mix: 224 per permutation.
        let muls_per_permutation = (ROUNDS * WIDTH * 4) as u64;
        for len in 0..=17usize {
            let input = random_vec(len, 40 + len as u64);
            MULS.with(|m| m.set(0));
            let digest = sponge::<Probe>(&input, len).map(|w| w.0);
            let muls = MULS.with(|m| m.get());
            assert_eq!(
                muls,
                muls_per_permutation * permutations_for(len),
                "len={len}"
            );
            assert_eq!(Digest(digest), hash_elements(&input), "len={len}");
        }
    }

    #[test]
    fn sparse_mix_matches_the_circulant_product_at_the_overflow_bound() {
        // Every state over {0, 1, p − 1}; all-(p − 1) is the largest sum
        // the u128 accumulator ever holds (21·(p − 1) < 2^69).
        const C: [u64; WIDTH] = [2, 1, 1, 3, 1, 5, 1, 7];
        let edges = [Goldilocks::ZERO, Goldilocks::ONE, -Goldilocks::ONE];
        for picks in 0..3usize.pow(WIDTH as u32) {
            let old: [Goldilocks; WIDTH] =
                core::array::from_fn(|i| edges[picks / 3usize.pow(i as u32) % 3]);
            let dense: [Goldilocks; WIDTH] = core::array::from_fn(|i| {
                (0..WIDTH)
                    .map(|j| old[j] * Goldilocks::from_u64(C[(j + WIDTH - i) % WIDTH]))
                    .sum()
            });
            let mut sparse = old;
            <Goldilocks as Lane>::mix(&mut sparse);
            assert_eq!(sparse, dense, "picks={picks}");
        }
    }

    #[test]
    fn add_only_mix_matches_the_u128_mix() {
        // The default `Lane::mix` (what the wide lanes run) against the
        // scalar override.
        let edge = Goldilocks::ZERO - Goldilocks::ONE;
        for seed in 0..64u64 {
            let mut scalar: [Goldilocks; WIDTH] = random_vec(WIDTH, seed).try_into().unwrap();
            if seed % 4 == 0 {
                scalar[(seed as usize / 4) % WIDTH] = edge;
            }
            if seed == 63 {
                scalar = [edge; WIDTH];
            }
            let mut lanes = scalar.map(Probe);
            permute(&mut scalar);
            permute_lanes(&mut lanes);
            assert_eq!(lanes.map(|x| x.0), scalar, "seed={seed}");
        }
    }

    #[test]
    fn permutation_count_helper() {
        assert_eq!(permutations_for(0), 1);
        assert_eq!(permutations_for(4), 1);
        assert_eq!(permutations_for(5), 2);
        assert_eq!(permutations_for(17), 5);
    }
}
