//! Attacks on the verifiers: every single-site mutation of an honest
//! proof is rejected, and no verifier panics on one.
//!
//! [`Tamper`] enumerates the mutants of a proof object. A scalar leaf
//! (field element, digest word, extension coefficient, opening index,
//! `n`, `width`) is mutated by ±1, by flipping bit 0, 31 or 63, and by
//! zeroing it. A sequence (a `Vec`, a digest's words, an extension's
//! coefficients, a pair of openings) has each pair of neighbours swapped.
//! A `Vec`'s length is mutated by truncating its last element, extending
//! it with a blank element, and duplicating its last element. A mutant
//! equal to the original is skipped. `verify_trace`, `fri::verify`,
//! `verify_opening` and `verify_stark` must return `false` on every
//! mutant without panicking; a mutant that verifies is a verifier bug.
//!
//! The proofs are small (32 trace rows, two queries) so the few thousand
//! mutants of each verify in seconds; every query, round and opening has
//! the same shape at any query count, so two queries reach every kind of
//! leaf the standard configuration has.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Field, Goldilocks, GoldilocksExt2, PrimeField};
use unintt_fri::{
    commit_trace, embed, fri, open_trace, prove_stark, verify_opening, verify_stark, verify_trace,
    DeepOpeningProof, Digest, FibonacciAir, FriConfig, FriProof, FriQueryProof, LdeBackend,
    MerklePath, StarkProof, TraceCommitment,
};
use unintt_ntt::{coset_ntt, Ntt};

/// A value whose single-site mutants can be enumerated.
trait Tamper: Clone {
    /// Calls `f` with every single-site mutant of `self`, labelled with
    /// the path to the mutated site and the mutation class.
    fn mutants(&self, f: &mut dyn FnMut(String, Self));
}

/// A `Vec` element's blank value, appended by the `extend` class.
trait Blank {
    fn blank() -> Self;
}

/// The scalar classes on a 64-bit word, before the field reduces it.
fn word_mutants(v: u64) -> [(&'static str, u64); 6] {
    [
        ("+1", v.wrapping_add(1)),
        ("-1", v.wrapping_sub(1)),
        ("flip0", v ^ 1),
        ("flip31", v ^ (1 << 31)),
        ("flip63", v ^ (1 << 63)),
        ("zero", 0),
    ]
}

impl Tamper for Goldilocks {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        for (class, w) in word_mutants(self.to_canonical_u64()) {
            let v = match class {
                "+1" => *self + Goldilocks::ONE,
                "-1" => *self - Goldilocks::ONE,
                _ => Goldilocks::from_u64(w),
            };
            if v != *self {
                f(format!(" {class}"), v);
            }
        }
    }
}

impl Blank for Goldilocks {
    fn blank() -> Self {
        Goldilocks::ZERO
    }
}

impl Tamper for usize {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        for (class, w) in word_mutants(*self as u64) {
            if w as usize != *self {
                f(format!(" {class}"), w as usize);
            }
        }
    }
}

/// Mutants of a fixed-length sequence: each element's, then each pair of
/// unequal neighbours swapped.
fn slice_mutants<T: Tamper + PartialEq>(items: &[T], f: &mut dyn FnMut(String, Vec<T>)) {
    for (i, item) in items.iter().enumerate() {
        item.mutants(&mut |at, v| {
            let mut out = items.to_vec();
            out[i] = v;
            f(format!("[{i}]{at}"), out);
        });
    }
    for i in 1..items.len() {
        if items[i - 1] != items[i] {
            let mut out = items.to_vec();
            out.swap(i - 1, i);
            f(format!(" swap[{}..={i}]", i - 1), out);
        }
    }
}

impl<T: Tamper + Blank + PartialEq> Tamper for Vec<T> {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        slice_mutants(self, f);
        if let Some(last) = self.last() {
            f(" truncate".into(), self[..self.len() - 1].to_vec());
            let mut dup = self.clone();
            dup.push(last.clone());
            f(" duplicate".into(), dup);
        }
        let mut ext = self.clone();
        ext.push(T::blank());
        f(" extend".into(), ext);
    }
}

impl<T: Blank> Blank for Vec<T> {
    fn blank() -> Self {
        Vec::new()
    }
}

impl<T: Tamper + PartialEq, const N: usize> Tamper for [T; N] {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        slice_mutants(self, &mut |at, v| {
            f(at, v.try_into().ok().expect("same length"));
        });
    }
}

impl<A: Tamper, B: Tamper> Tamper for (A, B) {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        self.0
            .mutants(&mut |at, v| f(format!(".0{at}"), (v, self.1.clone())));
        self.1
            .mutants(&mut |at, v| f(format!(".1{at}"), (self.0.clone(), v)));
    }
}

impl<A: Blank, B: Blank> Blank for (A, B) {
    fn blank() -> Self {
        (A::blank(), B::blank())
    }
}

impl Tamper for GoldilocksExt2 {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        [self.a, self.b].mutants(&mut |at, [a, b]| f(at, GoldilocksExt2::new(a, b)));
    }
}

impl Blank for GoldilocksExt2 {
    fn blank() -> Self {
        GoldilocksExt2::ZERO
    }
}

impl Tamper for Digest {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        self.0.mutants(&mut |at, words| f(at, Digest(words)));
    }
}

impl Blank for Digest {
    fn blank() -> Self {
        Digest::zero()
    }
}

/// Calls `f` with every mutant of each listed field of `$value`, the
/// other fields cloned.
macro_rules! field_mutants {
    ($value:expr, $f:expr, $($field:ident),+) => {{
        let value = $value;
        $(value.$field.mutants(&mut |at, v| {
            let mut out = value.clone();
            out.$field = v;
            $f(format!(".{}{at}", stringify!($field)), out);
        });)+
    }};
}

impl Tamper for MerklePath {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        field_mutants!(self, f, index, row, siblings);
    }
}

impl Blank for MerklePath {
    fn blank() -> Self {
        MerklePath {
            index: 0,
            row: Vec::new(),
            siblings: Vec::new(),
        }
    }
}

/// A plain codeword proof's query input: nothing to mutate.
impl Tamper for () {
    fn mutants(&self, _: &mut dyn FnMut(String, Self)) {}
}

impl Blank for () {
    fn blank() -> Self {}
}

impl<I: Tamper + PartialEq> Tamper for FriQueryProof<I> {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        field_mutants!(self, f, input, rounds);
    }
}

impl<I: Blank> Blank for FriQueryProof<I> {
    fn blank() -> Self {
        FriQueryProof {
            input: I::blank(),
            rounds: Vec::new(),
        }
    }
}

impl<I: Tamper + Blank + PartialEq> Tamper for FriProof<I> {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        field_mutants!(self, f, layer_roots, final_codeword, queries);
    }
}

impl Tamper for TraceCommitment {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        field_mutants!(self, f, trace_root, fri_proof, n, width);
    }
}

impl Tamper for DeepOpeningProof {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        field_mutants!(self, f, trace_root, evals, fri_proof, n, width);
    }
}

impl Tamper for StarkProof {
    fn mutants(&self, f: &mut dyn FnMut(String, Self)) {
        field_mutants!(self, f, trace_root, fri_proof, n);
    }
}

/// The configurations every proof is attacked under: each folding
/// arity from 2 to 8. The 2^7-value codewords fold 4 bits, so at arity
/// 8 the last round folds by 2.
fn configs() -> Vec<FriConfig> {
    (1..=3)
        .map(|log_folding_arity| FriConfig {
            num_queries: 2,
            log_folding_arity,
            ..FriConfig::standard()
        })
        .collect()
}

/// Runs `verify` on every mutant of the honest `proof` and fails, listing
/// the first few, if any mutant verifies or panics. Returns the number of
/// mutants tried.
fn attack<T: Tamper>(what: &str, proof: &T, verify: impl Fn(&T) -> bool) -> usize {
    assert!(verify(proof), "{what}: the honest proof must verify");
    let mut tried = 0;
    let mut failures = Vec::new();
    quietly(|| {
        proof.mutants(&mut |at, mutant| {
            tried += 1;
            match catch_unwind(AssertUnwindSafe(|| verify(&mutant))) {
                Ok(false) => {}
                Ok(true) => failures.push(format!("{what}{at}: accepted")),
                Err(_) => failures.push(format!("{what}{at}: panicked")),
            }
        })
    });
    assert!(
        failures.is_empty(),
        "{} of {tried} mutants not rejected:\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
    tried
}

/// Runs `body` with the panic hook silenced, so a mutant that panics is
/// reported once, by [`attack`], rather than printing a trace. The hook
/// is process-wide, so the tests take turns.
fn quietly(body: impl FnOnce()) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(body));
    std::panic::set_hook(hook);
    out.unwrap_or_else(|e| std::panic::resume_unwind(e));
}

fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width)
        .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
        .collect()
}

#[test]
fn every_fri_proof_mutant_is_rejected() {
    let shift = Goldilocks::GENERATOR;
    for config in configs() {
        // A degree-32 polynomial on the blown-up coset of 128 points.
        let mut coeffs = random_trace(32, 1, 1).remove(0);
        coeffs.resize(32 << config.log_blowup, Goldilocks::ZERO);
        coset_ntt(&Ntt::new(coeffs.len().trailing_zeros()), &mut coeffs, shift);
        let n = coeffs.len();
        let proof = fri::prove(&config, embed(&coeffs), shift);
        let tried = attack("fri", &proof, |p| fri::verify(&config, p, n, shift));
        assert!(tried > 500, "{tried} mutants");
    }
}

#[test]
fn every_trace_commitment_mutant_is_rejected() {
    for config in configs() {
        let commitment = commit_trace(&random_trace(32, 2, 2), &config, &mut LdeBackend::cpu());
        attack("trace", &commitment, |c| verify_trace(c, &config));
    }
}

#[test]
fn every_deep_opening_mutant_is_rejected() {
    let zeta = GoldilocksExt2::new(Goldilocks::from_u64(5), Goldilocks::from_u64(11));
    for config in configs() {
        let proof = open_trace(
            &random_trace(32, 2, 3),
            zeta,
            &config,
            &mut LdeBackend::cpu(),
        );
        attack("deep", &proof, |p| verify_opening(p, zeta, &config));
    }
}

#[test]
fn every_stark_proof_mutant_is_rejected() {
    let (air, trace) = FibonacciAir::generate(32);
    for config in configs() {
        let proof = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());
        attack("stark", &proof, |p| verify_stark(&air, p, &config));
    }
}
