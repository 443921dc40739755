//! DEEP openings: proving trace evaluations at an out-of-domain point.
//!
//! [`crate::commit_trace`] proves the committed columns are low-degree;
//! a STARK prover additionally needs to *open* them at a random
//! extension-field point `ζ` (the DEEP-ALI technique). The prover claims
//! `vᵢ = colᵢ(ζ)` and proves all claims at once by showing the quotient
//!
//! ```text
//! D(x) = Σᵢ αⁱ · (colᵢ(x) − vᵢ) / (x − ζ)
//! ```
//!
//! is low-degree: if any claimed `vᵢ` were wrong, the corresponding term
//! would not divide cleanly and `D` would be far from every low-degree
//! codeword, so FRI rejects. Spot checks bind `D`'s layer-0 values to the
//! committed trace rows through the same formula.

use unintt_ff::{batch_inverse, Field, Goldilocks, GoldilocksExt2, PrimeField, TwoAdicField};
use unintt_ntt::Ntt;

use crate::fri::{self, FriConfig, FriProof};
use crate::hash::{compress, hash_elements, permutations_for, Digest};
use crate::merkle::{row_major, MerklePath, MerkleTree};
use crate::pipeline::LdeBackend;

/// A DEEP opening: the trace commitment, the claimed evaluations at `ζ`,
/// the FRI proof of the DEEP quotient, and the binding trace openings.
#[derive(Clone, Debug)]
pub struct DeepOpeningProof {
    /// Root of the row-wise Merkle tree over the LDE matrix.
    pub trace_root: Digest,
    /// Claimed evaluations `colᵢ(ζ)`.
    pub evals: Vec<GoldilocksExt2>,
    /// FRI proof that the DEEP quotient is low-degree.
    pub fri_proof: FriProof,
    /// Trace-matrix openings at each FRI query's outer (low, high)
    /// positions.
    pub trace_openings: Vec<(MerklePath, MerklePath)>,
    /// Trace rows before extension.
    pub n: usize,
    /// Number of columns.
    pub width: usize,
}

/// Derives the DEEP combination challenge from the transcript so far.
fn deep_challenge(
    root: &Digest,
    zeta: &GoldilocksExt2,
    evals: &[GoldilocksExt2],
) -> GoldilocksExt2 {
    let mut flat = vec![zeta.a, zeta.b];
    for e in evals {
        flat.push(e.a);
        flat.push(e.b);
    }
    let d = compress(root, &hash_elements(&flat));
    GoldilocksExt2::new(d.0[0], d.0[1])
}

/// Opens every column of `columns` at the extension point `zeta`.
///
/// Returns the proof; `backend` carries the heavy work (LDEs, hashing,
/// quotient construction) exactly as in [`crate::commit_trace`].
///
/// # Panics
///
/// Panics if the trace is empty/ragged, too short for the FRI config, or
/// if `zeta` lies on the evaluation coset (probability ~2⁻¹²⁸ for a random
/// point).
pub fn open_trace(
    columns: &[Vec<Goldilocks>],
    zeta: GoldilocksExt2,
    config: &FriConfig,
    backend: &mut LdeBackend,
) -> DeepOpeningProof {
    assert!(!columns.is_empty(), "trace must have at least one column");
    let n = columns[0].len();
    assert!(
        columns.iter().all(|c| c.len() == n),
        "all trace columns must have equal length"
    );

    // 1. LDE + Merkle commitment (as in commit_trace).
    let ldes = backend.lde_batch(columns, config.log_blowup);
    let big_n = n << config.log_blowup;
    let rows = row_major(&ldes);
    backend.charge_hash(big_n as u64 * permutations_for(columns.len()));
    backend.charge_hash(big_n as u64 - 1);
    let tree = MerkleTree::commit_matrix(&rows, columns.len());
    let trace_root = tree.root();

    // 2. Claimed evaluations: interpolate each column and Horner at ζ.
    let ntt = Ntt::<Goldilocks>::new(n.trailing_zeros());
    let evals: Vec<GoldilocksExt2> = columns
        .iter()
        .map(|col| {
            let mut coeffs = col.clone();
            ntt.inverse(&mut coeffs);
            coeffs.iter().rev().fold(GoldilocksExt2::ZERO, |acc, &c| {
                acc * zeta + GoldilocksExt2::from_base(c)
            })
        })
        .collect();
    backend.charge_pointwise(n * columns.len(), 5);

    // 3. The DEEP quotient codeword.
    let alpha = deep_challenge(&trace_root, &zeta, &evals);
    let shift = Goldilocks::GENERATOR;
    let omega = Goldilocks::two_adic_generator(big_n.trailing_zeros());
    let mut denoms: Vec<GoldilocksExt2> = {
        let mut x = shift;
        (0..big_n)
            .map(|_| {
                let d = GoldilocksExt2::from_base(x) - zeta;
                x *= omega;
                d
            })
            .collect()
    };
    assert!(
        denoms.iter().all(|d| !d.is_zero()),
        "zeta must lie outside the evaluation coset"
    );
    batch_inverse(&mut denoms);

    let deep: Vec<GoldilocksExt2> = (0..big_n)
        .map(|k| {
            let mut acc = GoldilocksExt2::ZERO;
            let mut coeff = GoldilocksExt2::ONE;
            for (lde, &v) in ldes.iter().zip(&evals) {
                acc += coeff * (GoldilocksExt2::from_base(lde[k]) - v);
                coeff *= alpha;
            }
            acc * denoms[k]
        })
        .collect();
    backend.charge_pointwise(big_n * columns.len(), 6);

    // 4. FRI on the quotient, plus the binding trace openings.
    backend.charge_hash(fri::prove_hash_permutations(config, big_n));
    let fri_proof = fri::prove(config, deep, shift);
    let trace_openings: Vec<(MerklePath, MerklePath)> = fri_proof
        .queries
        .iter()
        .map(|q| {
            let first = &q.rounds[0];
            (
                tree.open(&rows, first.low.index),
                tree.open(&rows, first.high.index),
            )
        })
        .collect();

    DeepOpeningProof {
        trace_root,
        evals,
        fri_proof,
        trace_openings,
        n,
        width: columns.len(),
    }
}

/// Verifies a DEEP opening at `zeta`.
pub fn verify_opening(proof: &DeepOpeningProof, zeta: GoldilocksExt2, config: &FriConfig) -> bool {
    let big_n = proof.n << config.log_blowup;
    if proof.evals.len() != proof.width
        || proof.trace_openings.len() != proof.fri_proof.queries.len()
    {
        return false;
    }
    let shift = Goldilocks::GENERATOR;
    if !fri::verify(config, &proof.fri_proof, big_n, shift) {
        return false;
    }

    let alpha = deep_challenge(&proof.trace_root, &zeta, &proof.evals);
    let omega = Goldilocks::two_adic_generator(big_n.trailing_zeros());

    for (query, (low_open, high_open)) in proof.fri_proof.queries.iter().zip(&proof.trace_openings)
    {
        let first = &query.rounds[0];
        for (open, fri_path) in [(low_open, &first.low), (high_open, &first.high)] {
            if open.index != fri_path.index
                || open.row.len() != proof.width
                || fri_path.row.len() != 2
                || !open.verify(&proof.trace_root)
            {
                return false;
            }
            // Recompute D(x_q) from the opened row and the claimed evals.
            let x = GoldilocksExt2::from_base(shift * omega.pow(open.index as u64));
            let Some(denom) = (x - zeta).inverse() else {
                return false;
            };
            let mut acc = GoldilocksExt2::ZERO;
            let mut coeff = GoldilocksExt2::ONE;
            for (&r, &v) in open.row.iter().zip(&proof.evals) {
                acc += coeff * (GoldilocksExt2::from_base(r) - v);
                coeff *= alpha;
            }
            if acc * denom != GoldilocksExt2::new(fri_path.row[0], fri_path.row[1]) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_gpu_sim::presets;

    fn random_trace(n: usize, width: usize, seed: u64) -> Vec<Vec<Goldilocks>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..width)
            .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
            .collect()
    }

    fn zeta(seed: u64) -> GoldilocksExt2 {
        let mut rng = StdRng::seed_from_u64(seed);
        GoldilocksExt2::random(&mut rng)
    }

    #[test]
    fn open_verify_roundtrip() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 3, 1);
        let z = zeta(100);
        let proof = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
        assert!(verify_opening(&proof, z, &config));
    }

    #[test]
    fn claimed_evals_match_direct_evaluation() {
        let config = FriConfig::standard();
        let trace = random_trace(32, 2, 2);
        let z = zeta(101);
        let proof = open_trace(&trace, z, &config, &mut LdeBackend::cpu());

        // Direct check: interpolate column 0 and Horner at ζ.
        let ntt = Ntt::<Goldilocks>::new(5);
        let mut coeffs = trace[0].clone();
        ntt.inverse(&mut coeffs);
        let direct = coeffs.iter().rev().fold(GoldilocksExt2::ZERO, |acc, &c| {
            acc * z + GoldilocksExt2::from_base(c)
        });
        assert_eq!(proof.evals[0], direct);
    }

    #[test]
    fn wrong_claimed_eval_rejected() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 2, 3);
        let z = zeta(102);
        let mut proof = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
        // Tamper with one claimed evaluation: the challenge re-derivation
        // and the binding checks must catch it.
        proof.evals[1] += GoldilocksExt2::ONE;
        assert!(!verify_opening(&proof, z, &config));
    }

    #[test]
    fn wrong_point_rejected() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 2, 4);
        let z = zeta(103);
        let proof = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
        assert!(!verify_opening(&proof, z + GoldilocksExt2::ONE, &config));
    }

    #[test]
    fn tampered_root_rejected() {
        let config = FriConfig::standard();
        let trace = random_trace(64, 2, 5);
        let z = zeta(104);
        let mut proof = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
        proof.trace_root = Digest::zero();
        assert!(!verify_opening(&proof, z, &config));
    }

    #[test]
    fn simulated_backend_identical_opening() {
        let config = FriConfig::standard();
        let trace = random_trace(128, 3, 6);
        let z = zeta(105);
        let cpu = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
        let mut sim = LdeBackend::simulated(presets::a100_nvlink(4));
        let simulated = open_trace(&trace, z, &config, &mut sim);
        assert_eq!(cpu.trace_root, simulated.trace_root);
        assert_eq!(cpu.evals, simulated.evals);
        assert_eq!(cpu.fri_proof, simulated.fri_proof);
        assert!(verify_opening(&simulated, z, &config));
        assert!(sim.sim_time() > unintt_gpu_sim::SimTime::ZERO);
    }
}
