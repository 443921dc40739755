//! # unintt-ntt — CPU Number Theoretic Transform library
//!
//! The host NTT implementations for the UniNTT reproduction:
//!
//! * [`Ntt`] — the transform context. [`Ntt::forward`] / [`Ntt::inverse`]
//!   (and the `*_columns` forms) run one kernel family: lane-packed,
//!   stage-fused vector kernels up to [`VECTOR_DIRECT_MAX_LOG_N`], six-step
//!   over vector rows above it. The radix-2 DIT/DIF kernels
//!   ([`Ntt::dit_in_place`], [`Ntt::dif_in_place`]) are the oracle the
//!   vector kernels are tested against;
//! * [`scale_by_powers`] — the geometric-scaling kernel behind six-step's
//!   twiddles, coset shifts and the engines' boundary twiddles;
//! * [`coset_ntt`] / [`low_degree_extension`] — coset evaluation and LDE
//!   as used by ZKP provers;
//! * [`poly_mul_ntt`] / [`cyclic_convolution`] — convolution helpers;
//! * [`batch_transform`] / [`batch_transform_parallel`] — batched
//!   execution (a single large [`Ntt`] transform forks over the worker
//!   pool by itself);
//! * [`naive_dft`] — the O(n²) oracle everything is tested against.
//!
//! Every transform here is *bit-exact*: fast paths are validated against
//! [`naive_dft`] and the radix-2 kernels in the test suites of each module.
//!
//! ```
//! use unintt_ff::{Goldilocks, PrimeField};
//! use unintt_ntt::poly_mul_ntt;
//!
//! let a = vec![Goldilocks::from_u64(2), Goldilocks::from_u64(1)]; // 2 + x
//! let b = vec![Goldilocks::from_u64(3), Goldilocks::from_u64(1)]; // 3 + x
//! let product = poly_mul_ntt(&a, &b); // 6 + 5x + x²
//! assert_eq!(product[1], Goldilocks::from_u64(5));
//! ```

#![warn(missing_docs)]

mod batch;
mod bitrev;
mod cache;
mod coset;
mod poly;
mod radix2;
mod six_step;
mod twiddle;
mod vector;

pub use batch::{batch_transform, batch_transform_parallel};
pub use bitrev::{bit_reverse_permute, bit_reversed, reverse_bits};
pub use cache::{cache_capacity, set_cache_capacity, shared_table, DEFAULT_CACHE_CAPACITY};
pub use coset::{coset_intt, coset_ntt, low_degree_extension, standard_shift};
pub use poly::{cyclic_convolution, poly_mul_naive, poly_mul_ntt};
pub use radix2::{naive_dft, Direction, Ntt};
pub use six_step::{scale_by_powers, transpose};
pub use twiddle::TwiddleTable;
pub use vector::{active_backend_label, VECTOR_DIRECT_MAX_LOG_N};
