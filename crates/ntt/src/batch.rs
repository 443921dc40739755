//! Batched NTTs: many independent transforms over the same domain.
//!
//! ZKP provers transform dozens of polynomials per round (witness columns,
//! quotient chunks, openings); batching lets them share one twiddle table
//! and, in the parallel variant, saturate all cores with embarrassing
//! parallelism.

use unintt_exec::Executor;
use unintt_ff::TwoAdicField;

use crate::{Direction, Ntt};

/// Applies the transform to every contiguous row of `data`.
///
/// `data` is interpreted as `data.len() / ntt.n()` rows, each of length
/// `ntt.n()`.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of the domain size.
pub fn batch_transform<F: TwoAdicField>(ntt: &Ntt<F>, data: &mut [F], direction: Direction) {
    let n = ntt.n();
    assert_eq!(
        data.len() % n,
        0,
        "data length {} is not a multiple of domain size {n}",
        data.len()
    );
    for row in data.chunks_mut(n) {
        match direction {
            Direction::Forward => ntt.forward(row),
            Direction::Inverse => ntt.inverse(row),
        }
    }
}

/// Multithreaded version of [`batch_transform`]: rows are split into
/// `threads` contiguous chunks, forked over the process-wide persistent
/// worker pool ([`unintt_exec::Executor::global`]). A single chunk runs on
/// the caller without touching the pool.
///
/// `threads` controls the *chunking* (and therefore the work decomposition
/// is deterministic regardless of pool size); the pool decides which
/// thread runs which chunk.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of the domain size or if
/// `threads == 0`.
pub fn batch_transform_parallel<F: TwoAdicField>(
    ntt: &Ntt<F>,
    data: &mut [F],
    direction: Direction,
    threads: usize,
) {
    let n = ntt.n();
    assert!(threads > 0, "thread count must be positive");
    assert_eq!(
        data.len() % n,
        0,
        "data length {} is not a multiple of domain size {n}",
        data.len()
    );
    let rows = data.len() / n;
    if rows == 0 {
        return;
    }
    let rows_per_thread = rows.div_ceil(threads);
    // Each row is a public transform call and counts as one wherever it
    // runs: the chunks record as this thread would.
    let member = unintt_telemetry::recording();
    Executor::global().parallel_chunks_mut(data, rows_per_thread * n, |_, chunk| {
        unintt_telemetry::adopt(member, || batch_transform(ntt, chunk, direction))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks};

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    #[test]
    fn batch_matches_individual() {
        let ntt = Ntt::<Goldilocks>::new(4);
        let rows = 5;
        let mut data = random_vec(rows * 16, 1);
        let mut expected = data.clone();
        for row in expected.chunks_mut(16) {
            ntt.forward(row);
        }
        batch_transform(&ntt, &mut data, Direction::Forward);
        assert_eq!(data, expected);
    }

    #[test]
    fn batch_roundtrip() {
        let ntt = Ntt::<Goldilocks>::new(5);
        let original = random_vec(8 * 32, 2);
        let mut data = original.clone();
        batch_transform(&ntt, &mut data, Direction::Forward);
        batch_transform(&ntt, &mut data, Direction::Inverse);
        assert_eq!(data, original);
    }

    #[test]
    fn parallel_matches_serial() {
        let ntt = Ntt::<Goldilocks>::new(6);
        let original = random_vec(13 * 64, 3);
        let mut serial = original.clone();
        batch_transform(&ntt, &mut serial, Direction::Forward);
        for threads in [1, 2, 4, 7, 32] {
            let mut par = original.clone();
            batch_transform_parallel(&ntt, &mut par, Direction::Forward, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let ntt = Ntt::<Goldilocks>::new(4);
        let mut data: Vec<Goldilocks> = vec![];
        batch_transform(&ntt, &mut data, Direction::Forward);
        batch_transform_parallel(&ntt, &mut data, Direction::Forward, 4);
    }

    #[test]
    fn single_row_parallel_matches_serial() {
        let ntt = Ntt::<Goldilocks>::new(5);
        let original = random_vec(32, 5);
        let mut serial = original.clone();
        ntt.forward(&mut serial);
        for threads in [1, 2, 8] {
            let mut par = original.clone();
            batch_transform_parallel(&ntt, &mut par, Direction::Forward, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_rows() {
        // rows_per_thread clamps to 1; extra threads get no chunk.
        let ntt = Ntt::<Goldilocks>::new(4);
        let original = random_vec(3 * 16, 6);
        let mut serial = original.clone();
        batch_transform(&ntt, &mut serial, Direction::Inverse);
        let mut par = original.clone();
        batch_transform_parallel(&ntt, &mut par, Direction::Inverse, 64);
        assert_eq!(par, serial);
    }

    #[test]
    fn parallel_roundtrip_inverse() {
        let ntt = Ntt::<Goldilocks>::new(6);
        let original = random_vec(9 * 64, 7);
        let mut data = original.clone();
        batch_transform_parallel(&ntt, &mut data, Direction::Forward, 3);
        batch_transform_parallel(&ntt, &mut data, Direction::Inverse, 5);
        assert_eq!(data, original);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_panics() {
        let ntt = Ntt::<Goldilocks>::new(4);
        let mut data = random_vec(16, 8);
        batch_transform_parallel(&ntt, &mut data, Direction::Forward, 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_batch_panics() {
        let ntt = Ntt::<Goldilocks>::new(4);
        let mut data = random_vec(17, 4);
        batch_transform(&ntt, &mut data, Direction::Forward);
    }
}
