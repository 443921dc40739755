//! The FRI low-degree test (commit + query phases), with extension-field
//! soundness.
//!
//! Proves that a committed codeword of length `N = n·2^log_blowup` on the
//! coset `s·H_N` is (close to) the evaluation of a polynomial of degree
//! `< n`. Each round commits the current codeword, derives a fold
//! challenge `β` from the transcript, and folds by the arity
//! `m = 2^log_folding_arity`. Writing `f(X) = Σ_{j<m} X^j·f_j(X^m)`,
//!
//! ```text
//! f'(x^m) = Σ_j β^j · f_j(x^m)
//! ```
//!
//! so the domain shrinks `m`-fold (`s ← s^m`, `H_L ← H_{L/m}`) and so
//! does the degree bound. The `m` points sharing `x^m` are the coset
//! `x·⟨ζ⟩` with `ζ = ω_L^{L/m}`: positions `r + t·L/m` for `t < m`. A
//! layer is committed as the matrix whose row `r` holds those `m` values,
//! so a query opens one leaf per round. Their size-`m` inverse NTT gives
//! `c_j = x^j·f_j(x^m)`, and the fold is one Horner step in `β·x⁻¹`:
//! `f'(x^m) = Σ_j (β·x⁻¹)^j·c_j`. A layer folds all its rows with one
//! [`Ntt::inverse_columns`] per base component; the verifier folds its
//! one opened row with the same code. The last round folds by less when
//! `log N − log_final_len` is not a multiple of the arity. After the
//! rounds the tail codeword is sent in the clear and the verifier
//! interpolates it. Spot-check queries enforce every fold at random
//! positions.
//!
//! **Soundness in use.** [`FriConfig::standard`] runs `q = 24` queries
//! at rate `ρ = 1/4`. A query checks one position per layer at any
//! arity, so the query term is the usual one: `ρ^q = 2⁻⁴⁸` under the
//! conjectured list-decoding bound, `(√ρ)^q = 2⁻²⁴` in the proven
//! Johnson regime. A fold by `m` adds at most `(m − 1)·L/|F_{p²}|` per
//! round (the degree of the fold in `β`), below `2⁻¹⁰⁹` for the sizes
//! here.
//!
//! **Why the extension field.** A 64-bit base field gives a cheating
//! prover ~2⁻⁶⁴ odds per challenge — not enough. As in production systems
//! (Plonky2, Plonky3), all codeword values and fold challenges live in
//! [`GoldilocksExt2`] (~128-bit challenges); the evaluation *points*
//! remain in the base field, so domain arithmetic and twiddles stay
//! 64-bit, and interpolation works component-wise by `F_p`-linearity.

use serde::{Deserialize, Serialize};
use unintt_exec::Executor;
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField, TwoAdicField};
use unintt_ntt::{coset_intt, Ntt};

use crate::hash::{compress, hash_elements, permutations_for, Digest};
use crate::merkle::{row_major, MerklePath, MerkleTree};

/// FRI parameters. Prover and verifier must agree on every field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FriConfig {
    /// Rate: the codeword is `2^log_blowup` times longer than the degree
    /// bound.
    pub log_blowup: u32,
    /// Number of spot-check queries (see the module docs for the bound).
    pub num_queries: usize,
    /// Folding stops when the codeword reaches `2^log_final_len`.
    pub log_final_len: u32,
    /// Each round folds by `2^log_folding_arity` (the last by less when
    /// the rounds do not divide evenly); at least 1.
    pub log_folding_arity: u32,
}

impl FriConfig {
    /// The configuration every prover here runs: blowup 4, 24 queries,
    /// folding by 8 down to 8 values. Of arities 2, 4 and 8, 8 commits
    /// the fewest permutations and the smallest proof and ran the host
    /// commit fastest.
    pub fn standard() -> Self {
        Self {
            log_blowup: 2,
            num_queries: 24,
            log_final_len: 3,
            log_folding_arity: 3,
        }
    }

    /// Checks that a trace of `columns` columns of `2^log_rows` rows can
    /// be committed under this configuration: at least one column, a
    /// folding arity of at least 2, and long enough that its LDE folds
    /// past the final codeword length.
    pub fn check_trace_shape(&self, columns: usize, log_rows: u32) -> Result<(), &'static str> {
        if columns == 0 {
            return Err("trace must have at least one column");
        }
        if self.log_folding_arity == 0 {
            return Err("folding arity must be at least 2");
        }
        if log_rows + self.log_blowup <= self.log_final_len {
            return Err("trace too short for the FRI configuration");
        }
        Ok(())
    }

    /// The length of a `rows`-row trace's extension, `rows·2^log_blowup`,
    /// or `None` if it does not fit a `usize` (a verifier reading `rows`
    /// from a proof must not let the shift drop its high bits).
    pub(crate) fn lde_len(&self, rows: usize) -> Option<usize> {
        rows.checked_mul(1usize.checked_shl(self.log_blowup)?)
    }

    /// The log arity of each round folding a codeword of `2^log_n` values
    /// down to `2^log_final_len`: `log_folding_arity` each, the last
    /// round whatever is left. Empty when the arity is zero.
    pub(crate) fn round_arities(&self, log_n: u32) -> impl Iterator<Item = u32> {
        let k = self.log_folding_arity;
        let mut left = if k == 0 {
            0
        } else {
            log_n.saturating_sub(self.log_final_len)
        };
        std::iter::from_fn(move || {
            let bits = left.min(k);
            left -= bits;
            (bits > 0).then_some(bits)
        })
    }

    /// The log arity of the first round on a codeword of `2^log_n`
    /// values: how many of its positions one first-layer leaf holds.
    pub(crate) fn first_arity(&self, log_n: u32) -> u32 {
        self.round_arities(log_n).next().unwrap_or(0)
    }

    /// `(length, log arity)` of every layer committed for a codeword of
    /// `n` values (a power of two).
    pub(crate) fn layers(&self, n: usize) -> impl Iterator<Item = (usize, u32)> {
        let mut len = n;
        self.round_arities(n.trailing_zeros()).map(move |bits| {
            let layer = (len, bits);
            len >>= bits;
            layer
        })
    }
}

/// One query: the input's opening and the opened leaf of every layer.
/// Round `i`'s leaf holds the `2^b` coset siblings its fold reads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FriQueryProof<I = ()> {
    /// The input hook's opening at the first-round leaf index.
    pub input: I,
    /// Per-layer openings, outermost layer first.
    pub rounds: Vec<MerklePath>,
}

/// A complete FRI proof, with `I` the per-query input opening.
#[derive(Clone, Debug, PartialEq)]
pub struct FriProof<I = ()> {
    /// Merkle roots of each committed layer (layer 0 = input codeword).
    pub layer_roots: Vec<Digest>,
    /// The final (unfolded) codeword, sent in the clear.
    pub final_codeword: Vec<GoldilocksExt2>,
    /// Spot-check queries.
    pub queries: Vec<FriQueryProof<I>>,
}

/// Embeds a base-field codeword into the extension (the usual entry point
/// when a single column, rather than a combination, is tested).
pub fn embed(values: &[Goldilocks]) -> Vec<GoldilocksExt2> {
    values
        .iter()
        .map(|&v| GoldilocksExt2::from_base(v))
        .collect()
}

/// Value `t` of an opened layer leaf (two base coefficients per value).
fn leaf_value(row: &[Goldilocks], t: usize) -> GoldilocksExt2 {
    GoldilocksExt2::new(row[2 * t], row[2 * t + 1])
}

/// An extension vector's two base components.
fn components(values: &[GoldilocksExt2]) -> [Vec<Goldilocks>; 2] {
    let (re, im) = values.iter().map(|v| (v.a, v.b)).unzip();
    [re, im]
}

/// Coset interpolation of an extension vector: component-wise iNTT (the
/// transform is `F_p`-linear and the domain is base-field).
fn coset_intt_ext(values: &[GoldilocksExt2], shift: Goldilocks) -> Vec<GoldilocksExt2> {
    let ntt = Ntt::<Goldilocks>::new(values.len().trailing_zeros());
    let [mut re, mut im] = components(values);
    coset_intt(&ntt, &mut re, shift);
    coset_intt(&ntt, &mut im, shift);
    re.into_iter()
        .zip(im)
        .map(|(a, b)| GoldilocksExt2::new(a, b))
        .collect()
}

/// Folds the rows of a layer at arity `m = ntt.n()`. `re` and `im` are
/// the layer's base components in natural order, which is the row-major
/// `m × rows` matrix whose column `r` holds row `r`'s coset siblings.
/// Row `r`'s point has inverse `x_inv·step^r`. Returns one folded value
/// per row; `re` and `im` are left holding the coefficients `c_j`.
fn fold_rows(
    ntt: &Ntt<Goldilocks>,
    re: &mut [Goldilocks],
    im: &mut [Goldilocks],
    beta: GoldilocksExt2,
    x_inv: Goldilocks,
    step: Goldilocks,
) -> Vec<GoldilocksExt2> {
    ntt.inverse_columns(re);
    ntt.inverse_columns(im);
    let rows = re.len() / ntt.n();
    let coeff = |j: usize, r: usize| GoldilocksExt2::new(re[j * rows + r], im[j * rows + r]);
    let mut x_inv = x_inv;
    (0..rows)
        .map(|r| {
            let z = beta * x_inv;
            x_inv *= step;
            (0..ntt.n() - 1)
                .rev()
                .fold(coeff(ntt.n() - 1, r), |acc, j| acc * z + coeff(j, r))
        })
        .collect()
}

/// Minimal transcript over digests (deterministic Fiat–Shamir).
#[derive(Clone, Debug)]
struct FriTranscript {
    state: Digest,
}

impl FriTranscript {
    fn new(seed: &Digest) -> Self {
        let domain = hash_elements(&[Goldilocks::from_u64(0x4652_4921)]); // "FRI!"
        Self {
            state: compress(&domain, seed),
        }
    }

    fn absorb_digest(&mut self, d: &Digest) {
        self.state = compress(&self.state, d);
    }

    fn absorb_ext_elements(&mut self, v: &[GoldilocksExt2]) {
        let h = hash_elements(&v.iter().flat_map(|v| [v.a, v.b]).collect::<Vec<_>>());
        self.absorb_digest(&h);
    }

    fn challenge_base(&mut self) -> Goldilocks {
        self.state = compress(&self.state, &Digest::zero());
        self.state.0[0]
    }

    /// An extension-field challenge (~128 bits of entropy).
    fn challenge_ext(&mut self) -> GoldilocksExt2 {
        let a = self.challenge_base();
        let b = self.challenge_base();
        GoldilocksExt2::new(a, b)
    }

    fn challenge_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound.is_power_of_two());
        (self.challenge_base().to_canonical_u64() as usize) & (bound - 1)
    }
}

/// `x^(2^bits)`.
fn pow_2exp(x: Goldilocks, bits: u32) -> Goldilocks {
    (0..bits).fold(x, |x, _| x.square())
}

/// `ω_L⁻¹` for the subgroup of order `len`, as a power of `ω_L`.
fn omega_inv(len: usize) -> Goldilocks {
    Goldilocks::two_adic_generator(len.trailing_zeros()).pow(len as u64 - 1)
}

/// Proves that `codeword` (on the coset `shift·H_N`) has degree
/// `< N / 2^log_blowup`.
///
/// # Panics
///
/// Panics if the codeword length is not a power of two at least
/// `2^(log_final_len + 1)`, or the folding arity is zero.
pub fn prove(config: &FriConfig, codeword: Vec<GoldilocksExt2>, shift: Goldilocks) -> FriProof {
    prove_on(
        Executor::global(),
        config,
        codeword,
        shift,
        &Digest::zero(),
        |_| (),
    )
}

/// [`prove`] with the layer trees built on `exec` (the proof does not
/// depend on the pool), a transcript seed binding the challenges to
/// prior protocol messages, and an input hook: `prove_input(r)` opens the
/// committed input at each query's first-round leaf index `r`.
pub(crate) fn prove_on<I>(
    exec: &Executor,
    config: &FriConfig,
    codeword: Vec<GoldilocksExt2>,
    shift: Goldilocks,
    seed: &Digest,
    prove_input: impl Fn(usize) -> I,
) -> FriProof<I> {
    let n = codeword.len();
    assert!(
        n.is_power_of_two(),
        "codeword length must be a power of two"
    );
    assert!(
        n >= 1 << (config.log_final_len + 1),
        "codeword of length {n} is already at or below the final length"
    );
    assert!(
        config.log_folding_arity > 0,
        "folding arity must be at least 2"
    );

    let mut transcript = FriTranscript::new(seed);
    // Each committed layer's tree with the matrix it was built from, kept
    // for the query phase's openings.
    let mut committed: Vec<(MerkleTree, Vec<Goldilocks>)> = Vec::new();
    let mut layer_roots = Vec::new();

    // Commit phase. The one inversion: the coset shift's.
    let mut shift_inv = shift.inverse().expect("the coset shift is nonzero");
    let mut current = codeword;
    for bits in config.round_arities(n.trailing_zeros()) {
        let layer = components(&current);
        let matrix = row_major(&layer, bits);
        let tree = MerkleTree::build(exec, &matrix, 2 << bits);
        transcript.absorb_digest(&tree.root());
        layer_roots.push(tree.root());

        let beta = transcript.challenge_ext();
        let step = omega_inv(current.len());
        let [mut re, mut im] = layer;
        current = fold_rows(&Ntt::new(bits), &mut re, &mut im, beta, shift_inv, step);
        shift_inv = pow_2exp(shift_inv, bits);
        committed.push((tree, matrix));
    }
    let final_codeword = current;
    transcript.absorb_ext_elements(&final_codeword);

    // Query phase: the leaf holding the queried position's coset, then
    // the folded position in the next layer, then the input.
    let mut queries = Vec::with_capacity(config.num_queries);
    for _ in 0..config.num_queries {
        let mut index = transcript.challenge_index(n);
        let rounds: Vec<MerklePath> = committed
            .iter()
            .map(|(tree, matrix)| {
                index %= tree.len();
                tree.open(matrix, index)
            })
            .collect();
        let input = prove_input(rounds[0].index);
        queries.push(FriQueryProof { input, rounds });
    }

    FriProof {
        layer_roots,
        final_codeword,
        queries,
    }
}

/// Verifies a FRI proof for a codeword of length `n` on `shift·H_n`.
pub fn verify(config: &FriConfig, proof: &FriProof, n: usize, shift: Goldilocks) -> bool {
    verify_on(config, proof, n, shift, &Digest::zero(), |_, (), _| true)
}

/// [`verify`] with the prover's seed and an input hook: `verify_input(r,
/// input)` returns the layer-0 values a query's input implies for the
/// `2^b` slots of first-round leaf `r` (`None` if it is bad), and the
/// opened leaf must hold exactly those.
pub(crate) fn verify_seeded<I>(
    config: &FriConfig,
    proof: &FriProof<I>,
    n: usize,
    shift: Goldilocks,
    seed: &Digest,
    verify_input: impl Fn(usize, &I) -> Option<Vec<GoldilocksExt2>>,
) -> bool {
    verify_on(config, proof, n, shift, seed, |r, input, row| {
        verify_input(r, input).is_some_and(|values| {
            let opened = row.chunks_exact(2).map(|v| GoldilocksExt2::new(v[0], v[1]));
            values.into_iter().eq(opened)
        })
    })
}

/// The one query loop: `bind(r, input, row)` judges each query's input
/// against its opened first-round leaf. Pins the round count against `n`
/// (a shorter last round included), each opened leaf's index
/// (`index % (L/m)`) and width, and checks the opened position
/// `index / (L/m)` against the previous round's fold. The only field
/// inversion is the coset shift's, once per proof.
fn verify_on<I>(
    config: &FriConfig,
    proof: &FriProof<I>,
    n: usize,
    shift: Goldilocks,
    seed: &Digest,
    bind: impl Fn(usize, &I, &[Goldilocks]) -> bool,
) -> bool {
    if !n.is_power_of_two()
        || n.trailing_zeros() > Goldilocks::TWO_ADICITY
        || n < 1 << (config.log_final_len + 1)
        || config.log_folding_arity == 0
    {
        return false;
    }
    let Some(mut shift_inv) = shift.inverse() else {
        return false;
    };
    // Per round: its length and log arity, the fold kernel, `ω_L⁻¹` and
    // the inverse of the layer's coset shift.
    let rounds: Vec<(usize, u32, Ntt<Goldilocks>, Goldilocks, Goldilocks)> = config
        .layers(n)
        .map(|(len, bits)| {
            let round = (len, bits, Ntt::new(bits), omega_inv(len), shift_inv);
            shift_inv = pow_2exp(shift_inv, bits);
            round
        })
        .collect();
    if proof.layer_roots.len() != rounds.len()
        || proof.final_codeword.len() != 1 << config.log_final_len
        || proof.queries.len() != config.num_queries
    {
        return false;
    }

    // Replay the transcript.
    let mut transcript = FriTranscript::new(seed);
    let betas: Vec<GoldilocksExt2> = proof
        .layer_roots
        .iter()
        .map(|root| {
            transcript.absorb_digest(root);
            transcript.challenge_ext()
        })
        .collect();
    transcript.absorb_ext_elements(&proof.final_codeword);

    // Final codeword must be low-degree: interpolate (component-wise) on
    // its coset and check that coefficients above the bound vanish.
    let final_len = proof.final_codeword.len();
    let final_shift = pow_2exp(shift, n.trailing_zeros() - config.log_final_len);
    let coeffs = coset_intt_ext(&proof.final_codeword, final_shift);
    let degree_bound = final_len >> config.log_blowup;
    if coeffs[degree_bound..].iter().any(|c| !c.is_zero()) {
        return false;
    }

    // Spot checks.
    for query in &proof.queries {
        if query.rounds.len() != rounds.len() {
            return false;
        }
        let mut index = transcript.challenge_index(n);
        let mut expected: Option<GoldilocksExt2> = None;

        for (i, (leaf, round)) in query.rounds.iter().zip(&rounds).enumerate() {
            let (len, bits, ntt, omega_inv, shift_inv) = round;
            let rows = len >> bits;
            let (row, slot) = (index % rows, index / rows);
            if leaf.index != row
                || leaf.row.len() != 2 << bits
                || !leaf.verify(&proof.layer_roots[i])
            {
                return false;
            }
            // The first leaf must hold what the input implies, every
            // later one the previous round's fold at the opened position.
            let bound = match expected {
                None => bind(row, &query.input, &leaf.row),
                Some(e) => e == leaf_value(&leaf.row, slot),
            };
            if !bound {
                return false;
            }
            let (mut re, mut im): (Vec<_>, Vec<_>) =
                leaf.row.chunks_exact(2).map(|v| (v[0], v[1])).unzip();
            let x_inv = *shift_inv * omega_inv.pow(row as u64);
            let folded = fold_rows(ntt, &mut re, &mut im, betas[i], x_inv, Goldilocks::ONE);
            expected = Some(folded[0]);
            index = row;
        }

        if expected != Some(proof.final_codeword[index]) {
            return false;
        }
    }
    true
}

/// Hash permutations performed by [`prove`] (for simulator cost charging):
/// each committed layer's leaves (`2^b` extension values each) plus its
/// interior compressions.
pub fn prove_hash_permutations(config: &FriConfig, n: usize) -> u64 {
    config
        .layers(n)
        .map(|(len, bits)| {
            let leaves = (len >> bits) as u64;
            leaves * permutations_for(2 << bits) + leaves - 1
        })
        .sum()
}

/// Hash permutations of a trace tree over `lde_rows × width` extended
/// values whose leaves group the rows the first FRI round folds
/// together: `lde_rows / 2^b` leaves of `width·2^b` values, plus the
/// interior compressions.
pub fn trace_hash_permutations(config: &FriConfig, lde_rows: usize, width: usize) -> u64 {
    let bits = config.first_arity(lde_rows.trailing_zeros());
    let leaves = (lde_rows >> bits) as u64;
    leaves * permutations_for(width << bits) + leaves - 1
}

/// Base-field multiplications of [`prove`]'s fold chain (for simulator
/// cost charging): per round of arity `m = 2^b` over `L` values, the two
/// component inverse NTTs (`b·L/2` butterflies each) and their `1/m`
/// scale, then per row the Horner point `β·x⁻¹` (an extension-by-base
/// product), the next row's `x⁻¹` and `m − 1` extension products of five
/// base multiplications each.
pub(crate) fn prove_fold_muls(config: &FriConfig, n: usize) -> u64 {
    config
        .layers(n)
        .map(|(len, bits)| {
            let (len, rows, m) = (len as u64, (len >> bits) as u64, 1u64 << bits);
            len * u64::from(bits) + 2 * len + rows * (3 + 5 * (m - 1))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ntt::coset_ntt;

    fn low_degree_codeword(
        log_degree: u32,
        log_blowup: u32,
        shift: Goldilocks,
        seed: u64,
    ) -> Vec<GoldilocksExt2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coeffs: Vec<Goldilocks> = (0..1usize << log_degree)
            .map(|_| Goldilocks::random(&mut rng))
            .collect();
        coeffs.resize(1 << (log_degree + log_blowup), Goldilocks::ZERO);
        let ntt = Ntt::<Goldilocks>::new(log_degree + log_blowup);
        coset_ntt(&ntt, &mut coeffs, shift);
        embed(&coeffs)
    }

    fn shift() -> Goldilocks {
        Goldilocks::GENERATOR
    }

    fn at_arity(log_folding_arity: u32) -> FriConfig {
        FriConfig {
            log_folding_arity,
            ..FriConfig::standard()
        }
    }

    /// One round of the prover's fold: `codeword` on `shift·H_L`, folded
    /// by `2^bits` with `beta`.
    fn fold(
        codeword: &[GoldilocksExt2],
        bits: u32,
        shift: Goldilocks,
        beta: GoldilocksExt2,
    ) -> Vec<GoldilocksExt2> {
        let [mut re, mut im] = components(codeword);
        let shift_inv = shift.inverse().expect("nonzero");
        let step = omega_inv(codeword.len());
        fold_rows(&Ntt::new(bits), &mut re, &mut im, beta, shift_inv, step)
    }

    fn fnv(values: &[GoldilocksExt2]) -> u64 {
        values
            .iter()
            .flat_map(|v| [v.a.to_canonical_u64(), v.b.to_canonical_u64()])
            .fold(0xcbf2_9ce4_8422_2325, |h, x| {
                (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn honest_proof_verifies() {
        // 2^6..2^10 values fold 3..7 bits: every arity meets a short last
        // round somewhere.
        for bits in 1..=3 {
            let config = at_arity(bits);
            for log_degree in [4u32, 5, 6, 8] {
                let codeword = low_degree_codeword(log_degree, config.log_blowup, shift(), 1);
                let n = codeword.len();
                let proof = prove(&config, codeword, shift());
                assert_eq!(
                    proof.layer_roots.len(),
                    (log_degree + 2 - 3).div_ceil(bits) as usize
                );
                assert!(
                    verify(&config, &proof, n, shift()),
                    "arity 2^{bits}, log_degree={log_degree}"
                );
            }
        }
    }

    #[test]
    fn verifier_pins_the_arity() {
        let codeword = low_degree_codeword(6, 2, shift(), 6);
        let n = codeword.len();
        let proof = prove(&at_arity(2), codeword, shift());
        assert!(verify(&at_arity(2), &proof, n, shift()));
        for bits in [0, 1, 3] {
            assert!(!verify(&at_arity(bits), &proof, n, shift()), "2^{bits}");
        }
    }

    #[test]
    fn honest_ext_codeword_verifies() {
        // A genuinely extension-valued low-degree codeword (as produced by
        // the pipeline's α-combination) also passes.
        let config = FriConfig::standard();
        let mut rng = StdRng::seed_from_u64(9);
        let log_degree = 6u32;
        let coeffs: Vec<GoldilocksExt2> = (0..1usize << log_degree)
            .map(|_| GoldilocksExt2::random(&mut rng))
            .collect();
        let mut padded = coeffs;
        padded.resize(1 << (log_degree + config.log_blowup), GoldilocksExt2::ZERO);
        // Evaluate component-wise on the coset.
        let ntt = Ntt::<Goldilocks>::new(log_degree + config.log_blowup);
        let [mut re, mut im] = components(&padded);
        coset_ntt(&ntt, &mut re, shift());
        coset_ntt(&ntt, &mut im, shift());
        let codeword: Vec<GoldilocksExt2> = re
            .into_iter()
            .zip(im)
            .map(|(a, b)| GoldilocksExt2::new(a, b))
            .collect();
        let n = codeword.len();
        let proof = prove(&config, codeword, shift());
        assert!(verify(&config, &proof, n, shift()));
    }

    #[test]
    fn fold_preserves_low_degree_evaluations() {
        // Folding the codeword of f by 2^k with β must give the codeword
        // of Σ_j β^j·f_j on the shrunk domain, f_j taking every 2^k-th
        // coefficient from j.
        let mut rng = StdRng::seed_from_u64(2);
        let log_n = 6u32;
        let coeffs: Vec<Goldilocks> = (0..1usize << log_n)
            .map(|_| Goldilocks::random(&mut rng))
            .collect();
        let s = shift();
        let mut codeword_base = coeffs.clone();
        coset_ntt(&Ntt::new(log_n), &mut codeword_base, s);

        for bits in 1..=3 {
            let beta = GoldilocksExt2::random(&mut rng);
            let folded = fold(&embed(&codeword_base), bits, s, beta);

            let m = 1usize << bits;
            let g: Vec<GoldilocksExt2> = coeffs
                .chunks_exact(m)
                .map(|c| {
                    c.iter().rev().fold(GoldilocksExt2::ZERO, |acc, &v| {
                        acc * beta + GoldilocksExt2::from_base(v)
                    })
                })
                .collect();
            let [mut re, mut im] = components(&g);
            let small = Ntt::<Goldilocks>::new(log_n - bits);
            coset_ntt(&small, &mut re, pow_2exp(s, bits));
            coset_ntt(&small, &mut im, pow_2exp(s, bits));
            let expected: Vec<GoldilocksExt2> = re
                .into_iter()
                .zip(im)
                .map(|(a, b)| GoldilocksExt2::new(a, b))
                .collect();
            assert_eq!(folded, expected, "arity 2^{bits}");
        }
    }

    #[test]
    fn arity_fold_equals_binary_folds() {
        // Round by round along the chain FRI runs: the arity-2^b fold with
        // β equals b binary folds with β, β², β⁴, …. 2^7 values fold 4
        // bits and 2^6 fold 3, so every arity meets a short last round.
        let mut rng = StdRng::seed_from_u64(3);
        for bits in 1..=3 {
            for log_degree in [4u32, 5] {
                let config = at_arity(bits);
                let codeword = low_degree_codeword(log_degree, 2, shift(), u64::from(bits));
                let (mut wide, mut binary) = (codeword.clone(), codeword.clone());
                let mut s = shift();
                for (_, round) in config.layers(codeword.len()) {
                    let beta = GoldilocksExt2::random(&mut rng);
                    wide = fold(&wide, round, s, beta);
                    let mut b = beta;
                    for _ in 0..round {
                        binary = fold(&binary, 1, s, b);
                        s = s.square();
                        b = b.square();
                    }
                    assert_eq!(wide, binary, "arity 2^{bits}, round of 2^{round}");
                }
                assert_eq!(wide.len(), 1 << config.log_final_len);
            }
        }
    }

    #[test]
    fn binary_fold_matches_the_radix2_capture() {
        // FNVs of `(f(x) + f(−x))/2 + β·(f(x) − f(−x))/(2x)` over random
        // extension codewords, captured from the batch-inverting radix-2
        // fold this kernel replaced.
        for (log_n, seed, captured) in [
            (6u32, 7u64, 0x7e6b_f1d9_2955_af7d_u64),
            (10, 8, 0xce62_b9cb_88ef_4442),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let codeword: Vec<GoldilocksExt2> = (0..1usize << log_n)
                .map(|_| GoldilocksExt2::random(&mut rng))
                .collect();
            let beta = GoldilocksExt2::random(&mut rng);
            let shift = Goldilocks::GENERATOR.pow(seed);
            assert_eq!(fnv(&fold(&codeword, 1, shift, beta)), captured, "2^{log_n}");
        }
    }

    #[test]
    fn high_degree_codeword_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        // A random codeword is (whp) far from every low-degree codeword.
        let n = 1usize << 8;
        let codeword: Vec<GoldilocksExt2> =
            (0..n).map(|_| GoldilocksExt2::random(&mut rng)).collect();
        for bits in 1..=3 {
            let config = at_arity(bits);
            let proof = prove(&config, codeword.clone(), shift());
            assert!(!verify(&config, &proof, n, shift()), "arity 2^{bits}");
        }
    }

    #[test]
    fn degree_just_over_bound_rejected() {
        let log_degree = 6u32;
        let s = shift();
        let mut coeffs: Vec<Goldilocks> = {
            let mut rng = StdRng::seed_from_u64(4);
            (0..1usize << log_degree)
                .map(|_| Goldilocks::random(&mut rng))
                .collect()
        };
        coeffs.resize(1 << (log_degree + 2), Goldilocks::ZERO);
        // Plant a coefficient above the bound.
        let idx = (1 << log_degree) + 5;
        coeffs[idx] = Goldilocks::ONE;
        let ntt = Ntt::<Goldilocks>::new(log_degree + 2);
        let mut codeword = coeffs;
        coset_ntt(&ntt, &mut codeword, s);
        let n = codeword.len();
        for bits in 1..=3 {
            let config = at_arity(bits);
            let proof = prove(&config, embed(&codeword), s);
            assert!(!verify(&config, &proof, n, s), "arity 2^{bits}");
        }
    }

    #[test]
    fn tampered_proof_rejected() {
        let config = FriConfig::standard();
        let codeword = low_degree_codeword(6, config.log_blowup, shift(), 5);
        let n = codeword.len();
        let proof = prove(&config, codeword, shift());
        assert!(verify(&config, &proof, n, shift()));

        let mut bad = proof.clone();
        bad.final_codeword[0] += GoldilocksExt2::ONE;
        assert!(!verify(&config, &bad, n, shift()));

        let mut bad = proof.clone();
        bad.queries[0].rounds[0].row[0] += Goldilocks::ONE;
        assert!(!verify(&config, &bad, n, shift()));

        let mut bad = proof.clone();
        bad.layer_roots[0] = Digest::zero();
        assert!(!verify(&config, &bad, n, shift()));

        let mut bad = proof;
        bad.queries.pop();
        assert!(!verify(&config, &bad, n, shift()));
    }

    #[test]
    fn hash_permutation_count_positive_and_monotone() {
        // 2^13 values down to 8: ten radix-2 layers of one pair per leaf,
        // five of four values per leaf, or 3 + 3 + 3 + 1 bits.
        let n = 1 << 13;
        let counts: Vec<u64> = (1..=3)
            .map(|bits| prove_hash_permutations(&at_arity(bits), n))
            .collect();
        assert_eq!(counts, [16_358, 8_179, 5_852]);
        assert_eq!(trace_hash_permutations(&at_arity(2), n, 8), 18_431);
        assert_eq!(trace_hash_permutations(&at_arity(3), n, 8), 17_407);
        let config = FriConfig::standard();
        assert!(
            prove_hash_permutations(&config, 1 << 10) > prove_hash_permutations(&config, 1 << 8)
        );
    }

    #[test]
    fn round_arities_end_with_what_is_left() {
        let arities = |bits, log_n| at_arity(bits).round_arities(log_n).collect::<Vec<_>>();
        assert_eq!(arities(2, 13), [2, 2, 2, 2, 2]);
        assert_eq!(arities(3, 13), [3, 3, 3, 1]);
        assert_eq!(arities(3, 4), [1]);
        assert_eq!(arities(0, 13), [0u32; 0]);
        assert_eq!(arities(2, 3), [0u32; 0]);
    }
}
