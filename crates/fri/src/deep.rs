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
//! codeword, so FRI rejects. The trace is committed exactly as
//! [`crate::commit_trace`] commits it, whose interpolation stage also
//! yields the coefficients the claims are evaluated from. Each FRI query
//! opens the trace leaf of its first FRI leaf through FRI's input hook:
//! each of the leaf's rows, put through the formula above, is `D` at
//! that row's position.

use unintt_exec::Executor;
use unintt_ff::{batch_inverse, Field, Goldilocks, GoldilocksExt2, PrimeField, TwoAdicField};

use crate::fri::{self, FriConfig, FriProof};
use crate::hash::{compress, hash_elements, Digest};
use crate::merkle::MerklePath;
use crate::pipeline::{trace_leaf, LdeBackend};
use crate::staged::commit_trace_tree;

/// A DEEP opening: the trace commitment, the claimed evaluations at `ζ`,
/// and the FRI proof of the DEEP quotient, whose queries carry the
/// binding trace openings.
#[derive(Clone, Debug, PartialEq)]
pub struct DeepOpeningProof {
    /// Root of the trace tree, the one [`crate::commit_trace`] builds: a
    /// leaf holds the LDE rows the first FRI round folds together.
    pub trace_root: Digest,
    /// Claimed evaluations `colᵢ(ζ)`.
    pub evals: Vec<GoldilocksExt2>,
    /// FRI proof that the DEEP quotient is low-degree; each query's input
    /// is the trace leaf at its first-round FRI leaf's index.
    pub fri_proof: FriProof<MerklePath>,
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

/// `Σᵢ αⁱ·(rowᵢ − vᵢ)`: the DEEP quotient's numerator at one LDE row.
fn deep_numerator(
    row: &[Goldilocks],
    evals: &[GoldilocksExt2],
    alpha: GoldilocksExt2,
) -> GoldilocksExt2 {
    let terms = row.iter().zip(evals).rev();
    terms.fold(GoldilocksExt2::ZERO, |acc, (&r, &v)| {
        acc * alpha + (GoldilocksExt2::from_base(r) - v)
    })
}

/// Opens every column of `columns` at the extension point `zeta`.
///
/// Returns the proof; `backend` carries the heavy work (LDEs, hashing,
/// quotient construction). The trace is committed by
/// [`crate::commit_trace`]'s own stages, and the claims are Horner
/// evaluations of the coefficients its interpolation stage computed.
///
/// # Panics
///
/// Panics where [`crate::commit_trace`] does (an empty, ragged or too
/// short trace), or if `zeta` lies on the evaluation coset (probability
/// ~2⁻¹²⁸ for a random point).
pub fn open_trace(
    columns: &[Vec<Goldilocks>],
    zeta: GoldilocksExt2,
    config: &FriConfig,
    backend: &mut LdeBackend,
) -> DeepOpeningProof {
    // 1. LDE + Merkle commitment (commit_trace's stages 0–2).
    let trace = commit_trace_tree(columns, config, backend);
    let trace_root = trace.root();
    let n = columns[0].len();
    let big_n = n << config.log_blowup;

    // 2. Claimed evaluations: Horner at ζ over each column's coefficients.
    let evals: Vec<GoldilocksExt2> = trace
        .coeffs
        .iter()
        .map(|coeffs| {
            coeffs.iter().rev().fold(GoldilocksExt2::ZERO, |acc, &c| {
                acc * zeta + GoldilocksExt2::from_base(c)
            })
        })
        .collect();
    backend.charge_pointwise(n * columns.len(), 5 * (n * columns.len()) as u64);

    // 3. The DEEP quotient codeword.
    let alpha = deep_challenge(&trace_root, &zeta, &evals);
    let shift = Goldilocks::GENERATOR;
    let omega = Goldilocks::two_adic_generator(big_n.trailing_zeros());
    let mut denoms: Vec<GoldilocksExt2> = std::iter::successors(Some(shift), |&x| Some(x * omega))
        .take(big_n)
        .map(|x| GoldilocksExt2::from_base(x) - zeta)
        .collect();
    assert!(
        denoms.iter().all(|d| !d.is_zero()),
        "zeta must lie outside the evaluation coset"
    );
    batch_inverse(&mut denoms);

    let mut row = Vec::with_capacity(columns.len());
    let deep: Vec<GoldilocksExt2> = (0..big_n)
        .map(|k| {
            row.clear();
            row.extend(trace.ldes.iter().map(|lde| lde[k]));
            deep_numerator(&row, &evals, alpha) * denoms[k]
        })
        .collect();
    backend.charge_pointwise(big_n * columns.len(), 6 * (big_n * columns.len()) as u64);

    // 4. FRI on the quotient, opening per query the trace leaf holding
    //    its first FRI leaf's positions.
    backend.charge_fri(config, big_n);
    let fri_proof = fri::prove_on(
        Executor::global(),
        config,
        deep,
        shift,
        &Digest::zero(),
        |r| trace.open(r),
    );

    DeepOpeningProof {
        trace_root,
        evals,
        fri_proof,
        n,
        width: columns.len(),
    }
}

/// Verifies a DEEP opening at `zeta`.
pub fn verify_opening(proof: &DeepOpeningProof, zeta: GoldilocksExt2, config: &FriConfig) -> bool {
    let Some(big_n) = config.lde_len(proof.n) else {
        return false;
    };
    if proof.evals.len() != proof.width {
        return false;
    }
    let alpha = deep_challenge(&proof.trace_root, &zeta, &proof.evals);
    let (shift, seed) = (Goldilocks::GENERATOR, Digest::zero());
    let (width, root) = (proof.width, &proof.trace_root);
    fri::verify_seeded(config, &proof.fri_proof, big_n, shift, &seed, |r, open| {
        // Recompute D(x) at each row's position from the opened row and
        // the claimed evals (FRI has checked that `big_n` is a domain).
        let omega = Goldilocks::two_adic_generator(big_n.trailing_zeros());
        let rows = trace_leaf(config, big_n, width, root, r, open)?;
        rows.map(|(pos, row)| {
            let x = GoldilocksExt2::from_base(shift * omega.pow(pos as u64));
            Some(deep_numerator(row, &proof.evals, alpha) * (x - zeta).inverse()?)
        })
        .collect()
    })
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
        let z = zeta(100);
        for log_folding_arity in 1..=3 {
            for log_final_len in [2, 3] {
                let config = FriConfig {
                    log_folding_arity,
                    log_final_len,
                    ..FriConfig::standard()
                };
                for n in [4usize, 8, 32, 64, 256] {
                    let trace = random_trace(n, 3, 1);
                    let proof = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
                    assert!(verify_opening(&proof, z, &config), "{config:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn claimed_evals_match_direct_evaluation() {
        use unintt_ntt::Ntt;
        let config = FriConfig::standard();
        let trace = random_trace(32, 3, 2);
        let z = zeta(101);
        // The CPU, the single-device path on eight GPUs and the
        // multi-device path on four.
        for gpus in [0, 8, 4] {
            let mut backend = match gpus {
                0 => LdeBackend::cpu(),
                _ => LdeBackend::simulated(presets::a100_nvlink(gpus)),
            };
            let proof = open_trace(&trace, z, &config, &mut backend);
            // Direct check: interpolate each column and Horner at ζ.
            for (i, column) in trace.iter().enumerate() {
                let mut coeffs = column.clone();
                Ntt::<Goldilocks>::new(5).inverse(&mut coeffs);
                let direct = coeffs.iter().rev().fold(GoldilocksExt2::ZERO, |acc, &c| {
                    acc * z + GoldilocksExt2::from_base(c)
                });
                assert_eq!(proof.evals[i], direct, "{gpus} GPUs, column {i}");
            }
        }
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
        // 2^5 rows take the single-device path on eight GPUs, 2^7 the
        // multi-device path on four.
        let config = FriConfig::standard();
        let z = zeta(105);
        for (n, gpus) in [(32, 8), (128, 4)] {
            let trace = random_trace(n, 3, 6);
            let cpu = open_trace(&trace, z, &config, &mut LdeBackend::cpu());
            let mut sim = LdeBackend::simulated(presets::a100_nvlink(gpus));
            let simulated = open_trace(&trace, z, &config, &mut sim);
            assert_eq!(cpu, simulated, "n={n} on {gpus} GPUs");
            assert!(verify_opening(&simulated, z, &config));
            assert!(sim.sim_time() > unintt_gpu_sim::SimTime::ZERO);
        }
    }
}
