//! A complete (small) STARK: AIR constraints → composition polynomial →
//! DEEP-style spot checks → FRI.
//!
//! This is the end-to-end transparent prover the Goldilocks half of the
//! paper's workload belongs to. The flow:
//!
//! 1. **Trace commitment** — LDE every column onto the `2^log_blowup`-times
//!    larger coset and Merkle-commit the rows (the NTT-heavy phase).
//! 2. **Composition** — a random challenge `α ∈ F_{p²}` combines every
//!    transition constraint (divided by the all-rows-but-last vanishing
//!    polynomial) and every boundary constraint (divided by its linear
//!    factor) into one codeword, which is low-degree exactly when the
//!    trace satisfies the AIR.
//! 3. **FRI** on the composition codeword, with challenges seeded by the
//!    trace root and `α`.
//! 4. **Spot checks** — at each FRI query position the verifier recomputes
//!    the composition value from opened trace rows (current *and next*,
//!    a rotation by `blowup` on the LDE domain) and matches it against the
//!    FRI layer-0 opening.
//!
//! Supported constraint degree is ≤ 2 (so the composition stays below the
//! FRI degree bound at blowup 4); that covers the classic demonstration
//! AIRs — Fibonacci and multiplicative chains — and is a documented
//! limitation, not a protocol one (production systems raise the blowup or
//! split the composition).

use unintt_ff::{batch_inverse, Field, Goldilocks, GoldilocksExt2, PrimeField, TwoAdicField};

use crate::fri::{self, FriConfig, FriProof};
use crate::hash::{compress, hash_elements, permutations_for, Digest};
use crate::merkle::{row_major, MerklePath, MerkleTree};
use crate::pipeline::LdeBackend;

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
#[derive(Clone, Debug)]
pub struct StarkProof {
    /// Merkle root of the LDE trace matrix.
    pub trace_root: Digest,
    /// FRI proof of the composition polynomial.
    pub fri_proof: FriProof,
    /// Per FRI query, per opened position (low, high): the trace rows at
    /// that position and at the *next-row* position (`+blowup` on the LDE
    /// domain), with their authentication paths.
    pub trace_openings: Vec<[(MerklePath, MerklePath); 2]>,
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
    let n = trace[0].len();
    assert!(
        trace.iter().all(|c| c.len() == n),
        "all trace columns must have equal length"
    );

    // 1. Trace LDE + commitment.
    let ldes = backend.lde_batch(trace, config.log_blowup);
    let big_n = n << config.log_blowup;
    let blowup = 1usize << config.log_blowup;
    let width = air.width();
    let rows = row_major(&ldes);
    backend.charge_hash(big_n as u64 * permutations_for(air.width()));
    backend.charge_hash(big_n as u64 - 1);
    let tree = MerkleTree::commit_matrix(&rows, width);
    let trace_root = tree.root();

    // 2. Composition codeword.
    let boundaries = air.boundaries();
    let alpha = composition_challenge(&trace_root, &boundaries);
    let shift = Goldilocks::GENERATOR;
    let omega_big = Goldilocks::two_adic_generator(big_n.trailing_zeros());
    let omega_small = Goldilocks::two_adic_generator(n.trailing_zeros());
    let last = omega_small.pow(n as u64 - 1);

    // Z_T(x) = (xⁿ − 1)/(x − ω^{n−1}): vanishes on all rows except the
    // last. Its coset inverses, batch-inverted.
    let mut x = shift;
    let mut z_t: Vec<GoldilocksExt2> = Vec::with_capacity(big_n);
    let mut boundary_denoms: Vec<Vec<GoldilocksExt2>> =
        vec![Vec::with_capacity(big_n); boundaries.len()];
    for _ in 0..big_n {
        let vanishing = x.pow(n as u64) - Goldilocks::ONE;
        let except_last = x - last;
        // (xⁿ−1)/(x−ω^{n−1}) — invert the whole ratio at once below by
        // storing numerator/denominator as a single value.
        z_t.push(GoldilocksExt2::from_base(
            vanishing * except_last.inverse().expect("coset avoids H"),
        ));
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
    let mut x = shift;
    for k in 0..big_n {
        let current = &rows[k * width..][..width];
        let next = &rows[(k + blowup) % big_n * width..][..width];
        let denom_invs: Vec<GoldilocksExt2> = boundary_denoms.iter().map(|d| d[k]).collect();
        composition.push(composition_at(
            air,
            current,
            next,
            alpha,
            z_t[k],
            &denom_invs,
            &mut scratch,
        ));
        x *= omega_big;
    }
    backend.charge_pointwise(big_n * (air.transition_count() + boundaries.len()), 6);

    // 3. FRI on the composition, seeded by the commitment transcript.
    let seed = compress(&trace_root, &hash_elements(&[alpha.a, alpha.b]));
    backend.charge_hash(fri::prove_hash_permutations(config, big_n));
    let fri_proof = fri::prove_seeded(config, composition, shift, &seed);

    // 4. Trace openings at each query's (low, high) and their next-rows.
    let trace_openings: Vec<[(MerklePath, MerklePath); 2]> = fri_proof
        .queries
        .iter()
        .map(|q| {
            let first = &q.rounds[0];
            [first.low.index, first.high.index].map(|idx| {
                (
                    tree.open(&rows, idx),
                    tree.open(&rows, (idx + blowup) % big_n),
                )
            })
        })
        .collect();

    StarkProof {
        trace_root,
        fri_proof,
        trace_openings,
        n,
    }
}

/// Verifies a STARK proof against the AIR (whose boundary assertions are
/// the public statement).
pub fn verify_stark(air: &impl Air, proof: &StarkProof, config: &FriConfig) -> bool {
    let n = proof.n;
    if !n.is_power_of_two() {
        return false;
    }
    let big_n = n << config.log_blowup;
    let blowup = 1usize << config.log_blowup;
    if proof.trace_openings.len() != proof.fri_proof.queries.len() {
        return false;
    }

    let boundaries = air.boundaries();
    let alpha = composition_challenge(&proof.trace_root, &boundaries);
    let seed = compress(&proof.trace_root, &hash_elements(&[alpha.a, alpha.b]));
    let shift = Goldilocks::GENERATOR;
    if !fri::verify_seeded(config, &proof.fri_proof, big_n, shift, &seed) {
        return false;
    }

    let omega_big = Goldilocks::two_adic_generator(big_n.trailing_zeros());
    let omega_small = Goldilocks::two_adic_generator(n.trailing_zeros());
    let last = omega_small.pow(n as u64 - 1);
    let mut scratch: Vec<Goldilocks> = Vec::new();

    for (query, opens) in proof.fri_proof.queries.iter().zip(&proof.trace_openings) {
        let first = &query.rounds[0];
        for ((cur_open, next_open), fri_path) in opens.iter().zip([&first.low, &first.high]) {
            let idx = fri_path.index;
            if cur_open.index != idx
                || next_open.index != (idx + blowup) % big_n
                || cur_open.row.len() != air.width()
                || next_open.row.len() != air.width()
                || fri_path.row.len() != 2
                || !cur_open.verify(&proof.trace_root)
                || !next_open.verify(&proof.trace_root)
            {
                return false;
            }

            let x = shift * omega_big.pow(idx as u64);
            let Some(z_t_inv) = ((x.pow(n as u64) - Goldilocks::ONE)
                * (x - last).inverse().expect("coset avoids H"))
            .inverse() else {
                return false;
            };
            let mut denom_invs = Vec::with_capacity(boundaries.len());
            for b in &boundaries {
                let Some(inv) = (x - omega_small.pow(b.row as u64)).inverse() else {
                    return false;
                };
                denom_invs.push(GoldilocksExt2::from_base(inv));
            }

            let expected = composition_at(
                air,
                &cur_open.row,
                &next_open.row,
                alpha,
                GoldilocksExt2::from_base(z_t_inv),
                &denom_invs,
                &mut scratch,
            );
            if expected != GoldilocksExt2::new(fri_path.row[0], fri_path.row[1]) {
                return false;
            }
        }
    }
    true
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

    #[test]
    fn stark_roundtrip() {
        let config = FriConfig::standard();
        for n in [16usize, 64, 256] {
            let (air, trace) = FibonacciAir::generate(n);
            let proof = prove_stark(&air, &trace, &config, &mut LdeBackend::cpu());
            assert!(verify_stark(&air, &proof, &config), "n={n}");
        }
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
        bad.trace_openings[0][0].0.row[0] += Goldilocks::ONE;
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
        assert_eq!(cpu.trace_root, simulated.trace_root);
        assert_eq!(cpu.fri_proof, simulated.fri_proof);
        assert!(verify_stark(&air, &simulated, &config));
        assert!(sim.sim_time() > unintt_gpu_sim::SimTime::ZERO);
    }
}
