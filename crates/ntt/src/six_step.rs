//! The six-step decomposition every [`crate::Ntt`] transform above
//! [`crate::VECTOR_DIRECT_MAX_LOG_N`] runs, and the running-product kernel
//! behind every geometric scaling in the workspace ([`scale_by_powers`]).
//!
//! Six-step is the Bailey factorization `N = N1·N2` with tile-blocked
//! transposes: all row transforms run over contiguous, cache-resident rows
//! on the vector kernels ([`crate::vector`]), and the step-② twiddle
//! multiplication is fused right after the inner transforms while each row
//! is still hot. The bit-reversal of a multi-MiB array — pure random
//! access — never happens. Every phase (both row passes, the twiddles,
//! every transpose) forks over [`unintt_exec::Executor`] in
//! [`BAND_ROWS`]-row bands.
//!
//! Splitting `N = N1·N2` and viewing the input as a row-major `N1×N2`
//! matrix `x[i1·N2 + i2]`, the DFT factors as
//!
//! ```text
//! X[k2·N1 + k1] = Σ_{i2} ω^{i2·k2·N1} · ( ω^{i2·k1} · Σ_{i1} x[i1·N2 + i2] · ω^{i1·k1·N2} )
//! ```
//!
//! — the same algebra the multi-GPU engines reuse, with the explicit
//! transposes UniNTT's fused addressing removes.

use std::any::TypeId;
use std::sync::Arc;

use unintt_exec::Executor;
#[cfg(target_arch = "x86_64")]
use unintt_ff::Bn254Fr;
use unintt_ff::{Goldilocks, TwoAdicField};

use crate::twiddle::TwiddleTable;
use crate::{cache, vector};

/// Transposes a row-major `rows×cols` matrix into a new `cols×rows` one.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn transpose<T: Copy>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
    assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
    let mut out = Vec::with_capacity(data.len());
    for c in 0..cols {
        for r in 0..rows {
            out.push(data[r * cols + c]);
        }
    }
    out
}

/// Transpose tile edge: 32×32 Goldilocks elements = 8 KiB, comfortably two
/// L1-resident tiles (source and destination).
const TILE: usize = 32;

/// Rows per forked task in every six-step phase. A constant, not a knob:
/// the split — and so which task writes which element — is the same for
/// any pool size, and 64 rows (32 tasks per pass at `2^22`) is both coarse
/// enough to amortize a spawn and fine enough for work stealing to even
/// out the triangular in-place transpose. A whole number of tiles, so no
/// tile straddles two bands.
const BAND_ROWS: usize = 2 * TILE;

/// Blocked out-of-place transpose: `dst[c·rows + r] = src[r·cols + c]`
/// (same semantics as [`crate::transpose`], without the allocation),
/// forked over bands of destination rows.
fn transpose_blocked<F: Copy + Send + Sync>(
    exec: &Executor,
    src: &[F],
    dst: &mut [F],
    rows: usize,
    cols: usize,
) {
    assert_eq!(src.len(), rows * cols);
    assert_eq!(dst.len(), rows * cols);
    exec.parallel_chunks_mut(dst, BAND_ROWS * rows, |band, out| {
        let c0 = band * BAND_ROWS;
        let c_max = c0 + out.len() / rows;
        for rb in (0..rows).step_by(TILE) {
            let r_end = (rb + TILE).min(rows);
            for cb in (c0..c_max).step_by(TILE) {
                let c_end = (cb + TILE).min(c_max);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out[(c - c0) * rows + r] = src[r * cols + c];
                    }
                }
            }
        }
    });
}

/// A matrix base pointer the in-place transpose's band tasks share.
struct TilePtr<T>(*mut T);

impl<T> TilePtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced inside
// `transpose_in_place_square`, whose band tasks access pairwise disjoint
// elements of a matrix the caller holds `&mut` for the whole scope; the
// elements themselves are `Send`.
unsafe impl<T: Send> Send for TilePtr<T> {}
// SAFETY: as above — sharing the wrapper hands out no overlapping access.
unsafe impl<T: Send> Sync for TilePtr<T> {}

/// In-place blocked transpose of an `n × n` matrix: swaps each
/// above-diagonal tile with its mirror and transposes diagonal tiles where
/// they sit. Same tiling as [`transpose_blocked`] but no second buffer and
/// half the memory passes of a transpose-then-copy sequence. 8-byte
/// fields on AVX2 hardware run 4×4 register micro-tiles instead of
/// element swaps (pure data movement, so the specialization is exact).
///
/// Forked over row bands. Tile row `rb` owns the tiles `(rb, cb ≥ rb)`
/// and their mirrors `(cb, rb)`, and two tile rows `rb < rb'` share no
/// tile: their own tiles differ in tile row, their mirrors in tile column,
/// and an own tile of one equal to a mirror of the other would need
/// `cb' = rb < rb' ≤ cb'`. Bands are unions of tile rows, so they touch
/// pairwise disjoint elements — the contract the `unsafe` band kernels
/// rely on.
fn transpose_in_place_square<F: Copy + Send + 'static>(exec: &Executor, a: &mut [F], n: usize) {
    // Memory safety of the band tasks rests on this length.
    assert_eq!(a.len(), n * n);
    #[cfg(target_arch = "x86_64")]
    let avx2 = TypeId::of::<F>() == TypeId::of::<Goldilocks>()
        && n.is_multiple_of(4)
        && n >= 4
        && std::arch::is_x86_feature_detected!("avx2");
    let base = TilePtr(a.as_mut_ptr());
    exec.scope(|s| {
        for r0 in (0..n).step_by(BAND_ROWS) {
            let r1 = (r0 + BAND_ROWS).min(n);
            let base = &base;
            s.spawn(move || {
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // SAFETY: F is Goldilocks (checked above), a
                    // transparent u64, AVX2 was detected and 4 divides n;
                    // the pointer covers n·n elements that `a` borrows
                    // mutably until the scope joins, `r0` is a multiple of
                    // TILE, `r1 ≤ n`, and no other band touches this
                    // band's tiles or mirrors.
                    unsafe { x86::transpose_band_u64(base.get().cast::<u64>(), n, r0, r1) };
                    return;
                }
                // SAFETY: the pointer covers n·n elements that `a` borrows
                // mutably until the scope joins, `r0` is a multiple of
                // TILE, `r1 ≤ n`, and no other band touches this band's
                // tiles or mirrors.
                unsafe { transpose_band(base.get(), n, r0, r1) };
            });
        }
    });
}

/// Rows `[r0, r1)` of the in-place square transpose: every tile
/// `(rb, cb ≥ rb)` of those rows is swapped with its mirror.
///
/// # Safety
///
/// `p` must be valid for reads and writes of `n·n` elements, `r0` a
/// multiple of [`TILE`], `r1 ≤ n`, and nothing else may access those tiles
/// or their mirrors while this runs.
unsafe fn transpose_band<F>(p: *mut F, n: usize, r0: usize, r1: usize) {
    for rb in (r0..r1).step_by(TILE) {
        let r_end = (rb + TILE).min(r1);
        for r in rb..r_end {
            for c in (r + 1)..r_end {
                core::ptr::swap_nonoverlapping(p.add(r * n + c), p.add(c * n + r), 1);
            }
        }
        for cb in ((rb + TILE)..n).step_by(TILE) {
            let c_end = (cb + TILE).min(n);
            for r in rb..r_end {
                for c in cb..c_end {
                    core::ptr::swap_nonoverlapping(p.add(r * n + c), p.add(c * n + r), 1);
                }
            }
        }
    }
}

/// Multiplies `values[i]` by `start·step^i` — the one running-product
/// kernel behind every geometric scaling in the workspace (six-step's
/// step-② twiddles, coset shifts, the engines' boundary twiddles).
///
/// A single `cur *= step` chain serializes on the multiply latency, so the
/// product runs as independent lanes instead. Goldilocks with AVX-512: 32
/// lanes (four 8-lane vectors) seeded with `start·step^0..31`, each
/// advanced by `step^32`. `Bn254Fr` with AVX-512 IFMA: 8 lanes
/// (`ff::packed::ifma::Fr8`) seeded with `start·step^0..7`, each advanced
/// by `step^8`. Everything else: two interleaved chains advanced by the
/// *fixed* `step²`, a Shoup product off one prepared constant.
/// Every lane value is the exact canonical power the serial chain holds
/// and the element product is the same exact field multiplication, so all
/// forms are bit-identical.
pub fn scale_by_powers<F: TwoAdicField>(values: &mut [F], start: F, step: F) {
    if start == F::ONE && step == F::ONE {
        return;
    }
    let (mut values, mut start) = (values, start);
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<F>() == TypeId::of::<Goldilocks>()
        && values.len() >= 32
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        let (head, tail) = values.split_at_mut(values.len() & !31);
        let gl = |x: F| -> u64 {
            // SAFETY: same-type read, F is Goldilocks by the TypeId check.
            unintt_ff::packed::gl_word(unsafe { *(&x as *const F).cast::<Goldilocks>() })
        };
        let mut lanes = [0u64; 32];
        let mut power = F::ONE;
        for l in lanes.iter_mut() {
            *l = gl(start * power);
            power *= step;
        }
        // SAFETY: F is Goldilocks (checked above), transparent over u64.
        let words =
            unsafe { core::slice::from_raw_parts_mut(head.as_mut_ptr().cast::<u64>(), head.len()) };
        // SAFETY: AVX-512F/DQ detected above; `head` is a whole number of
        // 32-element groups; `power` has advanced 32 times, so it is
        // `step^32`; every word is canonical.
        unsafe { x86::gl_scale_by_powers(words, &lanes, gl(power)) };
        if tail.is_empty() {
            return;
        }
        start *= step.pow(head.len() as u64);
        values = tail;
    }
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<F>() == TypeId::of::<Bn254Fr>()
        && values.len() >= 8
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512ifma")
    {
        let (head, tail) = values.split_at_mut(values.len() & !7);
        let fr = |x: F| -> Bn254Fr {
            // SAFETY: same-type read, F is Bn254Fr by the TypeId check.
            unsafe { *(&x as *const F).cast::<Bn254Fr>() }
        };
        let mut lanes = [Bn254Fr::default(); 8];
        let mut power = F::ONE;
        for l in lanes.iter_mut() {
            *l = fr(start * power);
            power *= step;
        }
        // SAFETY: F is Bn254Fr (checked above).
        let head = unsafe { &mut *(head as *mut [F] as *mut [Bn254Fr]) };
        // SAFETY: AVX-512F/IFMA detected above; `head` is a whole number
        // of 8-element groups; `power` has advanced 8 times, so it is
        // `step^8`.
        unsafe {
            x86::fr_scale_by_powers(unintt_ff::packed::mont_words_mut(head), &lanes, &fr(power))
        };
        if tail.is_empty() {
            return;
        }
        start *= step.pow(head.len() as u64);
        values = tail;
    }

    scale_by_powers_scalar(values, start, step);
}

/// The scalar form of [`scale_by_powers`]: two interleaved chains
/// advanced by the prepared `step²`.
fn scale_by_powers_scalar<F: TwoAdicField>(values: &mut [F], start: F, step: F) {
    let step2 = F::shoup_prepare(step * step);
    let (mut cur0, mut cur1) = (start, start * step);
    let mut pairs = values.chunks_exact_mut(2);
    for pair in &mut pairs {
        pair[0] *= cur0;
        pair[1] *= cur1;
        cur0 = F::reduce_lane(F::shoup_mul(cur0, &step2));
        cur1 = F::reduce_lane(F::shoup_mul(cur1, &step2));
    }
    if let [last] = pairs.into_remainder() {
        *last *= cur0;
    }
}

/// One butterfly between two rows of a column transform: `(u, v) ←
/// (u + v, (u − v)·w)` lane by lane, with the product elided for the unit
/// twiddle. Plain field operations, so every lane leaves canonical.
pub(crate) fn row_butterfly<F: TwoAdicField>(u: &mut [F], v: &mut [F], w: F) {
    let unit = w == F::ONE;
    for (a, b) in u.iter_mut().zip(v.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = if unit { x - y } else { (x - y) * w };
    }
}

/// Explicit-SIMD helpers for the six-step surround (transposes and the
/// step-② twiddle pass). Pure data movement plus exact canonical field
/// products: bit-identical to the generic code they replace.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use unintt_ff::packed::avx512 as w8;
    use unintt_ff::packed::ifma::Fr8;
    use unintt_ff::Bn254Fr;

    /// Loads a 4×4 `u64` tile at `p` (row stride `n`), transposed.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must be valid for the 4 stride-`n` rows.
    #[inline(always)]
    unsafe fn load_transposed(p: *const u64, n: usize) -> [__m256i; 4] {
        let r0 = _mm256_loadu_si256(p.cast());
        let r1 = _mm256_loadu_si256(p.add(n).cast());
        let r2 = _mm256_loadu_si256(p.add(2 * n).cast());
        let r3 = _mm256_loadu_si256(p.add(3 * n).cast());
        let t0 = _mm256_unpacklo_epi64(r0, r1);
        let t1 = _mm256_unpackhi_epi64(r0, r1);
        let t2 = _mm256_unpacklo_epi64(r2, r3);
        let t3 = _mm256_unpackhi_epi64(r2, r3);
        [
            _mm256_permute2x128_si256::<0x20>(t0, t2),
            _mm256_permute2x128_si256::<0x20>(t1, t3),
            _mm256_permute2x128_si256::<0x31>(t0, t2),
            _mm256_permute2x128_si256::<0x31>(t1, t3),
        ]
    }

    /// Stores four row registers at `p` (row stride `n`).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must be valid for the 4 stride-`n` rows.
    #[inline(always)]
    unsafe fn store_tile(p: *mut u64, n: usize, t: [__m256i; 4]) {
        _mm256_storeu_si256(p.cast(), t[0]);
        _mm256_storeu_si256(p.add(n).cast(), t[1]);
        _mm256_storeu_si256(p.add(2 * n).cast(), t[2]);
        _mm256_storeu_si256(p.add(3 * n).cast(), t[3]);
    }

    /// Rows `[r0, r1)` of the in-place transpose of an `n × n` row-major
    /// `u64` matrix: the same macro-tiling as [`super::transpose_band`],
    /// with 4×4 register micro-tiles (unpack + 128-bit permute) instead of
    /// element swaps.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `n % 4 == 0`, plus everything
    /// [`super::transpose_band`] requires.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_band_u64(p: *mut u64, n: usize, r0: usize, r1: usize) {
        debug_assert!(n.is_multiple_of(4));
        for rb in (r0..r1).step_by(super::TILE) {
            let r_end = (rb + super::TILE).min(r1);
            for cb in (rb..n).step_by(super::TILE) {
                let c_end = (cb + super::TILE).min(n);
                for r in (rb..r_end).step_by(4) {
                    let c_start = if cb == rb { r } else { cb };
                    for c in (c_start..c_end).step_by(4) {
                        if r == c {
                            let t = load_transposed(p.add(r * n + c), n);
                            store_tile(p.add(r * n + c), n, t);
                        } else {
                            let upper = load_transposed(p.add(r * n + c), n);
                            let lower = load_transposed(p.add(c * n + r), n);
                            store_tile(p.add(c * n + r), n, upper);
                            store_tile(p.add(r * n + c), n, lower);
                        }
                    }
                }
            }
        }
    }

    /// [`super::scale_by_powers`] over Goldilocks words: `row[j] *=
    /// lanes[j mod 32]·step32^⌊j/32⌋` lane-wise, i.e. 32 running
    /// product chains — four 8-lane vectors seeded with
    /// `start·step^0..31` and each advanced by `step^32` — so four
    /// independent chains hide the multiply latency a single chain
    /// would serialize on.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512DQ; `row.len() % 32 == 0`; all
    /// inputs canonical.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn gl_scale_by_powers(row: &mut [u64], lanes: &[u64; 32], step32: u64) {
        debug_assert_eq!(row.len() % 32, 0);
        let lp = lanes.as_ptr();
        let mut cur0 = _mm512_loadu_si512(lp.cast());
        let mut cur1 = _mm512_loadu_si512(lp.add(8).cast());
        let mut cur2 = _mm512_loadu_si512(lp.add(16).cast());
        let mut cur3 = _mm512_loadu_si512(lp.add(24).cast());
        let s32 = _mm512_set1_epi64(step32 as i64);
        let mut j = 0usize;
        while j < row.len() {
            let p = row.as_mut_ptr().add(j);
            let v0 = _mm512_loadu_si512(p.cast());
            let v1 = _mm512_loadu_si512(p.add(8).cast());
            let v2 = _mm512_loadu_si512(p.add(16).cast());
            let v3 = _mm512_loadu_si512(p.add(24).cast());
            _mm512_storeu_si512(p.cast(), w8::gl_mul(v0, cur0));
            _mm512_storeu_si512(p.add(8).cast(), w8::gl_mul(v1, cur1));
            _mm512_storeu_si512(p.add(16).cast(), w8::gl_mul(v2, cur2));
            _mm512_storeu_si512(p.add(24).cast(), w8::gl_mul(v3, cur3));
            cur0 = w8::gl_mul(cur0, s32);
            cur1 = w8::gl_mul(cur1, s32);
            cur2 = w8::gl_mul(cur2, s32);
            cur3 = w8::gl_mul(cur3, s32);
            j += 32;
        }
    }

    /// [`super::scale_by_powers`] over `Bn254Fr` Montgomery words: element
    /// `j` times `lanes[j mod 8]·step8^⌊j/8⌋`, eight running product
    /// chains in IFMA lanes. The data is split into limbs as it is and the
    /// chains are in lane form, so each product is the element's
    /// Montgomery word of `x·power` (see `unintt_ff::packed::ifma`).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512 IFMA; `words.len() % 32 == 0` (whole
    /// 8-element groups); all words canonical.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn fr_scale_by_powers(
        words: &mut [u64],
        lanes: &[Bn254Fr; 8],
        step8: &Bn254Fr,
    ) {
        debug_assert_eq!(words.len() % 32, 0);
        let mut cur = Fr8::from_elems(lanes);
        let step8 = Fr8::splat(&Fr8::to_limbs(step8));
        for group in words.chunks_exact_mut(32) {
            let p = group.as_mut_ptr();
            Fr8::load_words(p).mul(cur).store_words(p);
            cur = cur.mul(step8);
        }
    }
}

/// One row transform of a six-step pass.
type RowKernel<'a, F> = Box<dyn Fn(&mut [F]) + Send + Sync + 'a>;

/// Resolves the row transform of one six-step pass, once, on the calling
/// thread: band tasks share the plan and never take a cache lock. Rows
/// above the direct threshold recurse into [`six_step`] on the same pool,
/// so `log_n > 2·VECTOR_DIRECT_MAX_LOG_N` still works.
fn row_kernel<F: TwoAdicField>(exec: &Executor, row_log: u32, inverse: bool) -> RowKernel<'_, F> {
    if row_log <= vector::VECTOR_DIRECT_MAX_LOG_N {
        let plan = cache::shared_vector_plan::<F>(row_log);
        Box::new(move |row| plan.transform(row, inverse))
    } else {
        let table = cache::shared_table::<F>(row_log);
        Box::new(move |row| six_step(exec, &table, row, inverse))
    }
}

/// Cache-blocked six-step NTT for `N = N1·N2` (`N1 = 2^⌊log_n/2⌋`).
///
/// Forward: transpose → N2 inner NTTs (length N1) fused with step-②
/// twiddles → transpose → N1 outer NTTs (length N2) → transpose. The
/// inverse retraces the same structure with inverse roots; the `1/N1` and
/// `1/N2` scales inside the row inverses compose to the full `1/N`.
///
/// Every phase forks over `exec` in [`BAND_ROWS`]-row bands. Bands write
/// disjoint elements and the split never depends on the pool, so the
/// output is the same bits on any `exec` (a zero-worker pool runs the
/// bands inline, in order: the serial execution of this same code), and a
/// call from inside another `exec` task composes through the caller-helps
/// scope. Band tasks touch no telemetry and no cache.
pub(crate) fn six_step<F: TwoAdicField>(
    exec: &Executor,
    table: &Arc<TwiddleTable<F>>,
    values: &mut [F],
    inverse: bool,
) {
    let log_n = table.log_n();
    let l1 = log_n / 2;
    let l2 = log_n - l1;
    let n1 = 1usize << l1;
    let n2 = 1usize << l2;

    let inner = row_kernel::<F>(exec, l1, inverse);
    let outer = row_kernel::<F>(exec, l2, inverse);
    // N2 inner transforms, each fused with its step-② twiddles while the
    // row is hot (after the transform going forward, before it coming back).
    let inner_pass = |data: &mut [F]| {
        exec.parallel_chunks_mut(data, BAND_ROWS * n1, |band, chunk| {
            for (r, row) in chunk.chunks_exact_mut(n1).enumerate() {
                let i2 = band * BAND_ROWS + r;
                if inverse {
                    scale_by_powers(row, F::ONE, table.root_pow_inv(i2));
                    inner(row);
                } else {
                    inner(row);
                    scale_by_powers(row, F::ONE, table.root_pow(i2));
                }
            }
        });
    };
    let outer_pass = |data: &mut [F]| {
        exec.parallel_chunks_mut(data, BAND_ROWS * n2, |_, chunk| {
            for row in chunk.chunks_exact_mut(n2) {
                outer(row);
            }
        });
    };

    // Even log_n: the matrix is square, so every transpose runs in place —
    // no scratch buffer, and the transpose-then-copy tail collapses into a
    // single pass.
    if n1 == n2 {
        transpose_in_place_square(exec, values, n1);
        if inverse {
            outer_pass(values);
            transpose_in_place_square(exec, values, n1);
            inner_pass(values);
        } else {
            inner_pass(values);
            transpose_in_place_square(exec, values, n1);
            outer_pass(values);
        }
        transpose_in_place_square(exec, values, n1);
        return;
    }

    let mut scratch = vec![F::ZERO; values.len()];
    if !inverse {
        // values[i1·n2 + i2] → scratch[i2·n1 + i1]: columns become rows.
        transpose_blocked(exec, values, &mut scratch, n1, n2);
        inner_pass(&mut scratch);
        transpose_blocked(exec, &scratch, values, n2, n1);
        outer_pass(values);
        transpose_blocked(exec, values, &mut scratch, n1, n2);
    } else {
        // Exact mirror: undo the final transpose, outer inverses, undo the
        // middle transpose, un-twiddle + inner inverses, undo the first.
        transpose_blocked(exec, values, &mut scratch, n2, n1);
        outer_pass(&mut scratch);
        transpose_blocked(exec, &scratch, values, n1, n2);
        inner_pass(values);
        transpose_blocked(exec, values, &mut scratch, n2, n1);
    }
    let band_len = BAND_ROWS * n1;
    exec.parallel_chunks_mut(values, band_len, |band, chunk| {
        chunk.copy_from_slice(&scratch[band * band_len..][..chunk.len()]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ntt;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{BabyBear, Bn254Fr, Field, Goldilocks, PrimeField};

    fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
    }

    /// Dev profiling aid, not a correctness check: prints the per-phase
    /// split of one vector-row six-step at 2^22, each phase forked over a
    /// one-thread pool (the serial execution) and over one as wide as the
    /// host. Run with
    /// `cargo test -p unintt-ntt --release six_step_phase_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn six_step_phase_profile() {
        use std::time::Instant;
        let log_n = 22u32;
        let n1 = 1usize << (log_n / 2);
        let table = cache::shared_table::<Goldilocks>(log_n);
        let mut values = random_vec::<Goldilocks>(log_n, 7);

        for threads in [1, unintt_exec::default_threads()] {
            let exec = Executor::new(threads);
            let bands = n1.div_ceil(BAND_ROWS);
            println!("-- {threads} thread(s), {bands} band tasks per phase");

            let t = Instant::now();
            six_step(&exec, &table, &mut values, false);
            println!("full six-step forward: {:?}", t.elapsed());

            let t = Instant::now();
            transpose_in_place_square(&exec, &mut values, n1);
            println!("one in-place transpose ({n1}x{n1}): {:?}", t.elapsed());

            let kernel = row_kernel::<Goldilocks>(&exec, log_n / 2, false);
            let t = Instant::now();
            exec.parallel_chunks_mut(&mut values, BAND_ROWS * n1, |_, chunk| {
                for row in chunk.chunks_exact_mut(n1) {
                    kernel(row);
                }
            });
            println!(
                "one row pass ({n1} rows of 2^{}): {:?}",
                log_n / 2,
                t.elapsed()
            );

            let t = Instant::now();
            exec.parallel_chunks_mut(&mut values, BAND_ROWS * n1, |band, chunk| {
                for (r, row) in chunk.chunks_exact_mut(n1).enumerate() {
                    scale_by_powers(row, Goldilocks::ONE, table.root_pow(band * BAND_ROWS + r));
                }
            });
            println!("one twiddle pass: {:?}", t.elapsed());
        }
    }

    /// The radix-2 oracle: the index-form bit-reversal, then the DIT
    /// kernel.
    fn oracle_forward<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
        values.copy_from_slice(&crate::bit_reversed(values));
        ntt.dit_in_place(values);
    }

    /// Forward and inverse six-step at `log_n` on pools of 1, 2 and 8
    /// threads against the radix-2 oracle. The inverse is checked on the
    /// oracle's output: it is exact, so it must land back on the input bit
    /// for bit.
    fn six_step_matches_legacy_on_every_pool<F: TwoAdicField>(log_n: u32) {
        let ntt = Ntt::<F>::new(log_n);
        let input = random_vec::<F>(log_n, 1000 + log_n as u64);
        let mut oracle = input.clone();
        oracle_forward(&ntt, &mut oracle);

        for threads in [1usize, 2, 8] {
            let exec = Executor::new(threads);
            let mut values = input.clone();
            six_step(&exec, ntt.table(), &mut values, false);
            assert!(values == oracle, "forward log_n={log_n} threads={threads}");
            six_step(&exec, ntt.table(), &mut values, true);
            assert!(values == input, "inverse log_n={log_n} threads={threads}");
        }
    }

    #[test]
    fn six_step_pool_bit_identity_goldilocks() {
        six_step_matches_legacy_on_every_pool::<Goldilocks>(21); // rectangular
        six_step_matches_legacy_on_every_pool::<Goldilocks>(22); // square
    }

    #[test]
    fn six_step_pool_bit_identity_babybear() {
        six_step_matches_legacy_on_every_pool::<BabyBear>(21);
        six_step_matches_legacy_on_every_pool::<BabyBear>(22);
    }

    /// Two 2^21 rows through `batch_transform_parallel`: each row's
    /// six-step opens its band scopes from inside a task of the outer
    /// scope, on the same global pool. Must finish, with the same bits.
    #[test]
    fn six_step_nested_in_batch_does_not_deadlock() {
        let log_n = 21u32;
        let ntt = Ntt::<Goldilocks>::new(log_n);
        let input = random_vec::<Goldilocks>(log_n + 1, 77);
        let mut oracle = input.clone();
        for row in oracle.chunks_exact_mut(1 << log_n) {
            oracle_forward(&ntt, row);
        }
        let mut values = input.clone();
        crate::batch_transform_parallel(&ntt, &mut values, crate::Direction::Forward, 2);
        assert!(values == oracle, "nested forward");
        crate::batch_transform_parallel(&ntt, &mut values, crate::Direction::Inverse, 2);
        assert!(values == input, "nested inverse");
    }

    /// The public entry point takes six-step just above the direct
    /// threshold, for the 32-bit field too.
    #[test]
    fn six_step_babybear_roundtrip_and_match() {
        let log_n = crate::VECTOR_DIRECT_MAX_LOG_N + 1;
        let ntt = Ntt::<BabyBear>::new(log_n);
        let input = random_vec::<BabyBear>(log_n, 99);
        let mut oracle = input.clone();
        oracle_forward(&ntt, &mut oracle);
        let mut values = input.clone();
        ntt.forward(&mut values);
        assert!(values == oracle);
        ntt.inverse(&mut values);
        assert!(values == input);
    }

    /// The CPU-selected geometric scaling (32 AVX-512 lanes for
    /// Goldilocks, 8 IFMA lanes for `Bn254Fr`, where the CPU has them)
    /// against the scalar chain, across the lane-group boundary and with a
    /// tail.
    #[test]
    fn scale_by_powers_matches_scalar_chain() {
        fn check<F: TwoAdicField>(lens: &[usize]) {
            for &len in lens {
                let input = random_vec::<F>(13, len as u64);
                let (start, step) = (input[0], input[1]);
                for (start, step) in [(start, step), (F::ONE, step), (start, F::ONE)] {
                    let mut got = input[..len].to_vec();
                    scale_by_powers(&mut got, start, step);
                    let mut want = input[..len].to_vec();
                    scale_by_powers_scalar(&mut want, start, step);
                    assert!(got == want, "{} len={len}", F::NAME);
                }
            }
        }
        check::<Goldilocks>(&[0, 1, 31, 32, 33, 64, 95, 4096 + 7]);
        check::<Bn254Fr>(&[0, 1, 7, 8, 9, 16, 63, 2048 + 5]);
    }

    #[test]
    fn transpose_blocked_matches_reference() {
        for (rows, cols) in [
            (1usize, 64usize),
            (64, 1),
            (8, 8),
            (33, 70),
            (128, 32),
            (70, 200),
        ] {
            let src: Vec<u32> = (0..rows * cols).map(|x| x as u32).collect();
            let mut dst = vec![0u32; rows * cols];
            transpose_blocked(&Executor::new(3), &src, &mut dst, rows, cols);
            assert_eq!(dst, crate::transpose(&src, rows, cols), "{rows}x{cols}");
        }
    }

    #[test]
    fn transpose_in_place_square_matches_reference() {
        for n in [1usize, 8, 32, 33, 64, 100, 200] {
            let src: Vec<u32> = (0..n * n).map(|x| x as u32).collect();
            let mut inplace = src.clone();
            transpose_in_place_square(&Executor::new(3), &mut inplace, n);
            assert_eq!(inplace, crate::transpose(&src, n, n), "n={n}");
        }
        // Goldilocks takes the register micro-tile kernel where AVX2 is
        // present; 132 leaves a 4-row last band.
        for n in [4usize, 64, 132, 256] {
            let src: Vec<Goldilocks> = (0..n * n).map(|x| Goldilocks::from_u64(x as u64)).collect();
            let mut inplace = src.clone();
            transpose_in_place_square(&Executor::new(3), &mut inplace, n);
            assert_eq!(inplace, crate::transpose(&src, n, n), "goldilocks n={n}");
        }
    }
}
