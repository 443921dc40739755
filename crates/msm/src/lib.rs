//! # unintt-msm — multi-scalar multiplication substrate
//!
//! The MSM half of ZKP proof generation (the half the paper notes was
//! already multi-GPU friendly):
//!
//! * [`G1Affine`] / [`G1Projective`] — BN254 G1 curve arithmetic
//!   (`y² = x³ + 3` over Fq, group order = Fr modulus);
//! * [`msm`] — the one MSM kernel: signed-digit Pippenger, one pool task
//!   per window, or per eight windows in AVX-512 IFMA lanes where the CPU
//!   has `avx512ifma` ([`msm_with_window`] is the same kernel with the
//!   window picked by a test), plus the [`msm_naive`] oracle;
//! * [`generator_multiples`] — fixed-base `kᵢ·G` from a nibble table (a
//!   KZG SRS's powers), eight scalars per IFMA register where the CPU has
//!   `avx512ifma`;
//! * [`multi_gpu_msm`] — embarrassingly parallel MSM on the
//!   [`unintt_gpu_sim::Machine`] simulator: computed once on the host,
//!   charged per simulated device.
//!
//! ```
//! use unintt_ff::{Bn254Fr, Field, PrimeField};
//! use unintt_msm::{msm, G1Affine, G1Projective};
//!
//! // 3·G + 4·G = 7·G
//! let g = G1Affine::generator();
//! let result = msm(
//!     &[Bn254Fr::from_u64(3), Bn254Fr::from_u64(4)],
//!     &[g, g],
//! );
//! assert_eq!(result, G1Projective::generator().mul_scalar(&Bn254Fr::from_u64(7)));
//! ```

#![warn(missing_docs)]

mod curve;
mod fixed_base;
mod multi_gpu;
mod pippenger;

pub use curve::{curve_b, G1Affine, G1Projective};
pub use fixed_base::{generator_multiples, generator_multiples_with};
pub use multi_gpu::{msm_kernel_profile, multi_gpu_msm, simulate_multi_gpu_msm};
pub use pippenger::{
    msm, msm_naive, msm_parallel, msm_runs_lanes, msm_with_window, msm_with_window_scalar,
    optimal_window_bits, pippenger_group_ops,
};
