//! A complete (small) STARK: AIR constraints → composition polynomial →
//! DEEP-style spot checks → FRI.
//!
//! This is the end-to-end transparent prover the Goldilocks half of the
//! paper's workload belongs to. The flow:
//!
//! 1. **Trace commitment** — LDE every column onto the `2^log_blowup`-times
//!    larger coset and Merkle-commit the rows (the NTT-heavy phase), with
//!    [`crate::commit_trace`]'s own stages: a leaf holds the rows the
//!    first FRI round folds together.
//! 2. **Composition** — a random challenge `α ∈ F_{p²}` combines every
//!    transition constraint (divided by the all-rows-but-last vanishing
//!    polynomial) and every boundary constraint (divided by its linear
//!    factor) into one codeword, which is low-degree exactly when the
//!    trace satisfies the AIR.
//! 3. **FRI** on the composition codeword, with challenges seeded by the
//!    trace root and `α`.
//! 4. **Spot checks** — at each position of a query's first FRI leaf the
//!    verifier recomputes the composition value from opened trace rows
//!    (current *and next*, a rotation by `blowup` on the LDE domain) and
//!    FRI matches it against its layer-0 opening. Two trace openings per
//!    query, made through FRI's input hook, hold all of them: the leaf of
//!    the FRI leaf's positions, and the leaf of those positions plus
//!    `blowup`.
//!
//! Supported constraint degree is ≤ 2 (so the composition stays below the
//! FRI degree bound at blowup 4); that covers the classic demonstration
//! AIRs — Fibonacci and multiplicative chains — and is a documented
//! limitation, not a protocol one (production systems raise the blowup or
//! split the composition).

use unintt_exec::Executor;
use unintt_ff::{batch_inverse, Field, Goldilocks, GoldilocksExt2, PrimeField, TwoAdicField};

use crate::fri::{self, FriConfig, FriProof};
use crate::hash::{compress, hash_elements, Digest};
use crate::merkle::MerklePath;
use crate::pipeline::{trace_leaf, LdeBackend};
use crate::staged::commit_trace_tree;

/// A boundary assertion: `trace[column][row] == value`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Boundary {
    /// Trace column.
    pub column: usize,
    /// Trace row (must be `< n`).
    pub row: usize,
    /// Asserted value.
    pub value: Goldilocks,
}

/// An algebraic intermediate representation: the constraint system a STARK
/// proves a trace against.
///
/// Transition constraints are evaluated generically so the same code runs
/// over base-field LDE values (prover) and extension-field points
/// (challenges); they must have algebraic degree ≤ 2 in the trace cells.
pub trait Air {
    /// Number of trace columns.
    fn width(&self) -> usize;

    /// Number of transition constraints.
    fn transition_count(&self) -> usize;

    /// Evaluates every transition constraint on a (current, next) row
    /// pair, writing one value per constraint into `out`. A satisfied
    /// trace makes every output zero on every row except the last.
    fn eval_transitions<F>(&self, current: &[F], next: &[F], out: &mut [F])
    where
        F: Field + From<Goldilocks>;

    /// The boundary assertions.
    fn boundaries(&self) -> Vec<Boundary>;
}

/// The Fibonacci AIR: two columns `(a, b)` with
/// `a' = b`, `b' = a + b`; boundaries fix the first row and expose the
/// claimed result in the last row.
#[derive(Clone, Debug)]
pub struct FibonacciAir {
    /// Trace length (power of two).
    pub n: usize,
    /// The claimed value of column 0 in the last row.
    pub result: Goldilocks,
}

impl Air for FibonacciAir {
    fn width(&self) -> usize {
        2
    }

    fn transition_count(&self) -> usize {
        2
    }

    fn eval_transitions<F>(&self, current: &[F], next: &[F], out: &mut [F])
    where
        F: Field + From<Goldilocks>,
    {
        out[0] = next[0] - current[1]; // a' = b
        out[1] = next[1] - current[0] - current[1]; // b' = a + b
    }

    fn boundaries(&self) -> Vec<Boundary> {
        vec![
            Boundary {
                column: 0,
                row: 0,
                value: Goldilocks::ONE,
            },
            Boundary {
                column: 1,
                row: 0,
                value: Goldilocks::ONE,
            },
            Boundary {
                column: 0,
                row: self.n - 1,
                value: self.result,
            },
        ]
    }
}

impl FibonacciAir {
    /// Builds the satisfying trace and the AIR for `n` steps.
    pub fn generate(n: usize) -> (Self, Vec<Vec<Goldilocks>>) {
        assert!(
            n.is_power_of_two() && n >= 4,
            "trace length must be a power of two ≥ 4"
        );
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        let (mut x, mut y) = (Goldilocks::ONE, Goldilocks::ONE);
        for _ in 0..n {
            a.push(x);
            b.push(y);
            let next = x + y;
            x = y;
            y = next;
        }
        let result = a[n - 1];
        (Self { n, result }, vec![a, b])
    }
}

/// A STARK proof.
#[derive(Clone, Debug, PartialEq)]
pub struct StarkProof {
    /// Root of the trace tree, the one [`crate::commit_trace`] builds:
    /// with `L` extended rows and `b` the first FRI round's log arity,
    /// leaf `r` holds rows `r + t·L/2^b` for `t < 2^b`.
    pub trace_root: Digest,
    /// FRI proof of the composition polynomial. Each query's input, with
    /// `r` its first-round FRI leaf's index, is trace leaf `r` and the
    /// leaf `(r + blowup) mod (L/2^b)` of the *next* rows (`+blowup` on
    /// the LDE domain). Slot `t`'s next row sits in the second leaf's
    /// slot `(t + (r + blowup) div (L/2^b)) mod 2^b`.
    pub fri_proof: FriProof<(MerklePath, MerklePath)>,
    /// Trace rows before extension.
    pub n: usize,
}

/// Derives the composition challenge from the trace root and the public
/// boundary assertions.
fn composition_challenge(root: &Digest, boundaries: &[Boundary]) -> GoldilocksExt2 {
    let mut flat = Vec::with_capacity(3 * boundaries.len());
    for b in boundaries {
        flat.push(Goldilocks::from_u64(b.column as u64));
        flat.push(Goldilocks::from_u64(b.row as u64));
        flat.push(b.value);
    }
    let d = compress(root, &hash_elements(&flat));
    GoldilocksExt2::new(d.0[0], d.0[1])
}

/// `Z_T(x) = (xⁿ − 1)/(x − ω^{n−1})` at a point `x` off the trace domain,
/// with `last = ω^{n−1}`: it vanishes on every trace row but the last.
fn z_t_at(x: Goldilocks, n: usize, last: Goldilocks) -> Goldilocks {
    (x.pow(n as u64) - Goldilocks::ONE) * (x - last).inverse().expect("coset avoids H")
}

/// Evaluates the composition polynomial at one LDE point from its row
/// pair. Shared verbatim between prover (all points) and verifier (query
/// points) so they cannot drift apart.
fn composition_at<F>(
    air: &impl Air,
    current: &[F],
    next: &[F],
    alpha: GoldilocksExt2,
    z_transition_inv: GoldilocksExt2,
    boundary_denom_invs: &[GoldilocksExt2],
    scratch: &mut Vec<F>,
) -> GoldilocksExt2
where
    F: Field + From<Goldilocks> + Into<GoldilocksExt2>,
{
    scratch.clear();
    scratch.resize(air.transition_count(), F::ZERO);
    air.eval_transitions(current, next, scratch);

    let mut acc = GoldilocksExt2::ZERO;
    let mut coeff = GoldilocksExt2::ONE;
    for t in scratch.iter() {
        acc += coeff * (*t).into() * z_transition_inv;
        coeff *= alpha;
    }
    for (b, &denom_inv) in air.boundaries().iter().zip(boundary_denom_invs) {
        let diff: GoldilocksExt2 = (current[b.column] - F::from(b.value)).into();
        acc += coeff * diff * denom_inv;
        coeff *= alpha;
    }
    acc
}

/// Proves that a trace satisfies `air`.
///
/// # Panics
///
/// Panics if the trace shape disagrees with the AIR, the trace violates a
/// constraint (debug builds), or the FRI config cannot host the trace.
pub fn prove_stark(
    air: &impl Air,
    trace: &[Vec<Goldilocks>],
    config: &FriConfig,
    backend: &mut LdeBackend,
) -> StarkProof {
    assert_eq!(trace.len(), air.width(), "trace width mismatch");

    // 1. Trace LDE + commitment (commit_trace's stages 0–2).
    let committed = commit_trace_tree(trace, config, backend);
    let trace_root = committed.root();
    let n = trace[0].len();
    let big_n = n << config.log_blowup;
    let blowup = 1usize << config.log_blowup;

    // 2. Composition codeword.
    let boundaries = air.boundaries();
    let alpha = composition_challenge(&trace_root, &boundaries);
    let shift = Goldilocks::GENERATOR;
    let omega_big = Goldilocks::two_adic_generator(big_n.trailing_zeros());
    let omega_small = Goldilocks::two_adic_generator(n.trailing_zeros());
    let last = omega_small.pow(n as u64 - 1);

    // Z_T and the boundary denominators on the coset, batch-inverted.
    let mut x = shift;
    let mut z_t: Vec<GoldilocksExt2> = Vec::with_capacity(big_n);
    let mut boundary_denoms: Vec<Vec<GoldilocksExt2>> =
        vec![Vec::with_capacity(big_n); boundaries.len()];
    for _ in 0..big_n {
        z_t.push(GoldilocksExt2::from_base(z_t_at(x, n, last)));
        for (d, b) in boundary_denoms.iter_mut().zip(&boundaries) {
            d.push(GoldilocksExt2::from_base(x - omega_small.pow(b.row as u64)));
        }
        x *= omega_big;
    }
    batch_inverse(&mut z_t);
    for d in boundary_denoms.iter_mut() {
        batch_inverse(d);
    }

    let mut scratch: Vec<Goldilocks> = Vec::new();
    let mut composition: Vec<GoldilocksExt2> = Vec::with_capacity(big_n);
    let row = |k: usize| -> Vec<Goldilocks> { committed.ldes.iter().map(|lde| lde[k]).collect() };
    for k in 0..big_n {
        let denom_invs: Vec<GoldilocksExt2> = boundary_denoms.iter().map(|d| d[k]).collect();
        composition.push(composition_at(
            air,
            &row(k),
            &row((k + blowup) % big_n),
            alpha,
            z_t[k],
            &denom_invs,
            &mut scratch,
        ));
    }
    let constraint_values = big_n * (air.transition_count() + boundaries.len());
    backend.charge_pointwise(constraint_values, 6 * constraint_values as u64);

    // 3. FRI on the composition, seeded by the commitment transcript,
    //    opening per query the trace leaf holding its first FRI leaf's
    //    positions and the leaf holding their next rows.
    let seed = compress(&trace_root, &hash_elements(&[alpha.a, alpha.b]));
    backend.charge_fri(config, big_n);
    let fri_proof = fri::prove_on(Executor::global(), config, composition, shift, &seed, |r| {
        (committed.open(r), committed.open(r + blowup))
    });

    StarkProof {
        trace_root,
        fri_proof,
        n,
    }
}

/// Verifies a STARK proof against the AIR (whose boundary assertions are
/// the public statement).
pub fn verify_stark(air: &impl Air, proof: &StarkProof, config: &FriConfig) -> bool {
    let n = proof.n;
    let Some(big_n) = config.lde_len(n) else {
        return false;
    };
    let blowup = 1usize << config.log_blowup;

    let boundaries = air.boundaries();
    let alpha = composition_challenge(&proof.trace_root, &boundaries);
    let seed = compress(&proof.trace_root, &hash_elements(&[alpha.a, alpha.b]));
    let shift = Goldilocks::GENERATOR;
    let (width, root) = (air.width(), &proof.trace_root);
    let proof = &proof.fri_proof;
    fri::verify_seeded(config, proof, big_n, shift, &seed, |r, (cur, next)| {
        // FRI has checked that `big_n`, so `n`, is a power-of-two domain.
        let omega_big = Goldilocks::two_adic_generator(big_n.trailing_zeros());
        let omega_small = Goldilocks::two_adic_generator(n.trailing_zeros());
        let last = omega_small.pow(n as u64 - 1);
        let current = trace_leaf(config, big_n, width, root, r, cur)?;
        let next: Vec<_> = trace_leaf(config, big_n, width, root, r + blowup, next)?.collect();
        let mut scratch: Vec<Goldilocks> = Vec::new();
        current
            .map(|(idx, cur_row)| {
                let next_idx = (idx + blowup) % big_n;
                let &(_, next_row) = next.iter().find(|&&(pos, _)| pos == next_idx)?;

                let x = shift * omega_big.pow(idx as u64);
                let z_t_inv = z_t_at(x, n, last).inverse()?;
                let denom_invs = boundaries
                    .iter()
                    .map(|b| (x - omega_small.pow(b.row as u64)).inverse())
                    .map(|inv| inv.map(GoldilocksExt2::from_base))
                    .collect::<Option<Vec<_>>>()?;

                Some(composition_at(
                    air,
                    cur_row,
                    next_row,
                    alpha,
                    GoldilocksExt2::from_base(z_t_inv),
                    &denom_invs,
                    &mut scratch,
                ))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_gpu_sim::presets;

    #[test]
    fn fibonacci_trace_satisfies_air() {
        let (air, trace) = FibonacciAir::generate(16);
        let mut out = vec![Goldilocks::ZERO; 2];
        for i in 0..15 {
            let cur = [trace[0][i], trace[1][i]];
            let next = [trace[0][i + 1], trace[1][i + 1]];
            air.eval_transitions(&cur, &next, &mut out);
            assert!(out.iter().all(|v| v.is_zero()), "row {i}");
        }
        // Sanity: fib(…) with a=b=1 start, a[4] = 5.
        assert_eq!(trace[0][4].to_canonical_u64(), 5);
    }

    /// Round trips at folding arities 2, 4 and 8 and final lengths 4 and
    /// 8. With `L = n·blowup` rows and a first round folding by `2^b`, a
    /// query at first leaf `r` reads its next rows from leaf
    /// `(r + blowup) mod (L/2^b)`, at slots rotated by
    /// `(r + blowup) div (L/2^b)`; the test checks that rotated queries
    /// (slot `2^b − 1` wraps to the front) and shapes with
    /// `blowup ≥ L/2^b` both occur.
    #[test]
    fn stark_roundtrip() {
        let (mut rotated, mut wide_leaves) = (0, 0);
        for log_folding_arity in 1..=3 {
            for log_final_len in [2, 3] {
                let config = FriConfig {
                    log_folding_arity,
                    log_final_len,
                    ..FriConfig::standard()
                };
                for n in [4usize, 8, 16, 32, 64, 256] {
                    let (air, trace) = FibonacciAir::generate(n);
                    let proof = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());
                    assert!(verify_stark(&air, &proof, &config), "{config:?} n={n}");

                    let (big_n, blowup) = (n << config.log_blowup, 1 << config.log_blowup);
                    let leaves = big_n >> config.first_arity(big_n.trailing_zeros());
                    wide_leaves += usize::from(blowup >= leaves);
                    for query in &proof.fri_proof.queries {
                        let (current, next) = &query.input;
                        let r = query.rounds[0].index;
                        assert_eq!(current.index, r);
                        assert_eq!(next.index, (r + blowup) % leaves);
                        rotated += usize::from(r + blowup >= leaves);
                    }
                }
            }
        }
        assert!(rotated > 0, "no query read rotated next-row slots");
        assert!(wide_leaves > 0, "no shape had blowup ≥ L/2^b");
    }

    #[test]
    fn wrong_claimed_result_rejected() {
        let config = FriConfig::standard();
        let (air, trace) = FibonacciAir::generate(64);
        let proof = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());

        // The verifier checks against an AIR claiming a different result:
        // the challenge re-derivation and boundary checks must fail it.
        let lying_air = FibonacciAir {
            n: 64,
            result: air.result + Goldilocks::ONE,
        };
        assert!(!verify_stark(&lying_air, &proof, &config));
    }

    #[test]
    fn tampered_trace_rejected() {
        let config = FriConfig::standard();
        let (air, mut trace) = FibonacciAir::generate(64);
        // Break one transition in the middle of the trace.
        trace[1][20] += Goldilocks::ONE;
        let proof = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());
        assert!(!verify_stark(&air, &proof, &config));
    }

    #[test]
    fn tampered_proof_rejected() {
        let config = FriConfig::standard();
        let (air, trace) = FibonacciAir::generate(32);
        let proof = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());
        assert!(verify_stark(&air, &proof, &config));

        let mut bad = proof.clone();
        bad.trace_root = Digest::zero();
        assert!(!verify_stark(&air, &bad, &config));

        let mut bad = proof.clone();
        bad.fri_proof.queries[0].input.0.row[0] += Goldilocks::ONE;
        assert!(!verify_stark(&air, &bad, &config));

        let mut bad = proof;
        bad.fri_proof.final_codeword[0] += GoldilocksExt2::ONE;
        assert!(!verify_stark(&air, &bad, &config));
    }

    #[test]
    fn simulated_backend_identical_stark() {
        let config = FriConfig::standard();
        let (air, trace) = FibonacciAir::generate(128);
        let cpu = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());
        let mut sim = LdeBackend::simulated(presets::a100_nvlink(4));
        let simulated = prove_stark(&air, &trace, &config, &mut sim);
        assert_eq!(cpu, simulated);
        assert!(verify_stark(&air, &simulated, &config));
        assert!(sim.sim_time() > unintt_gpu_sim::SimTime::ZERO);
    }
}
