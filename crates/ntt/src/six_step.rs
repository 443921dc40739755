//! The six-step decomposition every [`crate::Ntt`] transform above
//! [`crate::VECTOR_DIRECT_MAX_LOG_N`] runs, and the running-product kernel
//! behind every geometric scaling in the workspace ([`scale_by_powers`]).
//!
//! Six-step is the Bailey factorization `N = N1·N2` with tile-blocked
//! transposes: all row transforms run over contiguous, cache-resident rows
//! on the vector kernels ([`crate::vector`]), and the step-② twiddle
//! multiplication is fused right after the inner transforms while each row
//! is still hot. The bit-reversal of a multi-MiB array — pure random
//! access — never happens. The row passes fork over [`unintt_exec::Executor`]
//! in [`BAND_ROWS`]-row bands, every transpose in page-sized block pairs
//! of 8 × 8 register tiles ([`transpose_on`]).
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
use std::ops::Range;
use std::sync::Arc;

use unintt_exec::Executor;
#[cfg(target_arch = "x86_64")]
use unintt_ff::Bn254Fr;
use unintt_ff::{Goldilocks, TwoAdicField};

#[cfg(target_arch = "x86_64")]
use crate::bitrev::{register_lines, Lines};
use crate::twiddle::TwiddleTable;
use crate::{cache, vector};

/// Transposes a row-major `rows×cols` matrix into a new `cols×rows` one:
/// the tile kernel of six-step's rectangular transposes, its blocks run in
/// turn on the calling thread.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn transpose<T: Copy + 'static>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
    let len = rows.checked_mul(cols);
    assert_eq!(len, Some(data.len()), "matrix shape mismatch");
    let mut out = Vec::with_capacity(data.len());
    let m = Move::new(data.as_ptr(), out.as_mut_ptr(), rows, cols, false);
    // SAFETY: `data` is the `rows × cols` matrix (asserted) and `out` has
    // room for its transpose; the blocks cover it, so every element is
    // written before the length is set.
    unsafe {
        m.blocks().for_each(|(rs, cs)| move_block(&m, rs, cs));
        out.set_len(data.len());
    }
    out
}

/// Rows per forked task in the row passes. A constant, not a knob: the
/// split — and so which task writes which element — is the same for any
/// pool size, and 64 rows (32 tasks per pass at `2^22`) is both coarse
/// enough to amortize a spawn and fine enough for work stealing.
const BAND_ROWS: usize = 64;

/// A transpose of the row-major `rows × cols` matrix at `src`: element
/// `(r, c)`, `src[r·cols + c]`, goes to `dst[c·rows + r]`. With `swap` the
/// two are one square matrix, and each element above the diagonal is
/// exchanged with its mirror.
struct Move<T> {
    src: *const T,
    dst: *mut T,
    rows: usize,
    cols: usize,
    swap: bool,
}

// SAFETY: the block tasks share a `&Move`; the shape fields are plain
// values, and only `move_block` dereferences the pointers, on blocks that
// touch pairwise disjoint elements (see `transpose_on`) of matrices
// borrowed until the scope joins. Tasks write some `T`s and read others,
// hence `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for Move<T> {}

impl<T> Move<T> {
    fn new(src: *const T, dst: *mut T, rows: usize, cols: usize, swap: bool) -> Self {
        Self {
            src,
            dst,
            rows,
            cols,
            swap,
        }
    }

    /// The task split: squares whose rows are each one 4 KiB page (512
    /// elements of 8 bytes, 1024 of 4), so the pages a task moves between
    /// stay in the TLB. With `swap`, only the blocks on and above the
    /// diagonal, each standing for itself and its mirror.
    fn blocks(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
        let (rows, cols, upper) = (self.rows, self.cols, self.swap);
        let b = (4096 / size_of::<T>().max(1)).max(8);
        (0..rows).step_by(b).flat_map(move |r| {
            let first = if upper { r } else { 0 };
            (first..cols)
                .step_by(b)
                .map(move |c| (r..(r + b).min(rows), c..(c + b).min(cols)))
        })
    }
}

/// Out-of-place transpose `dst[c·rows + r] = src[r·cols + c]`, the odd
/// `log_n` kernel ([`crate::transpose`] without the allocation).
fn transpose_blocked<F: Copy + Send + Sync + 'static>(
    exec: &Executor,
    src: &[F],
    dst: &mut [F],
    rows: usize,
    cols: usize,
) {
    // Memory safety of the block tasks rests on these lengths.
    assert!(rows.checked_mul(cols) == Some(src.len()) && dst.len() == src.len());
    let m = Move::new(src.as_ptr(), dst.as_mut_ptr(), rows, cols, false);
    // SAFETY: the lengths are asserted above, the slices borrowed throughout.
    unsafe { transpose_on(exec, m) };
}

/// In-place transpose of an `n × n` matrix, the even `log_n` kernel: no
/// scratch buffer.
fn transpose_in_place_square<F: Copy + Send + Sync + 'static>(
    exec: &Executor,
    a: &mut [F],
    n: usize,
) {
    // Memory safety of the block tasks rests on this length.
    assert_eq!(n.checked_mul(n), Some(a.len()));
    let p = a.as_mut_ptr();
    // SAFETY: the length is asserted above, the slice borrowed throughout.
    unsafe { transpose_on(exec, Move::new(p, p, n, n, true)) };
}

/// One pool task per block pair of [`Move::blocks`], 10 for a `2^22`
/// Goldilocks square on any pool, so every pool writes the same bits. Out
/// of place, task `(R, C)` writes destination block `(C, R)` alone. In
/// place, task `(R, C ≥ R)` swaps blocks `(R, C)` and `(C, R)` tile by
/// tile; two tasks share a block only if `(R', C') = (C, R)`, which with
/// `R' ≤ C'` needs `R = C`: the same task. So no task touches an element
/// another writes, the contract of [`move_block`].
///
/// # Safety
///
/// The matrices of `m` hold `rows × cols` elements, borrowed for the call.
unsafe fn transpose_on<F: Copy + Send + Sync + 'static>(exec: &Executor, m: Move<F>) {
    exec.scope(|s| {
        for (rs, cs) in m.blocks() {
            let m = &m;
            // SAFETY: the block lies inside the matrices (the caller's
            // contract), and no other task touches it (see above).
            s.spawn(move || unsafe { move_block(m, rs, cs) });
        }
    });
}

/// Source rows `rs` × columns `cs` of `m`, by 8 × 8 register tiles where
/// [`register_lines`] allows, element by element otherwise.
///
/// # Safety
///
/// The block lies inside the matrices (with `swap`, on or above the
/// diagonal) and nothing else touches it or its mirror meanwhile.
unsafe fn move_block<T: Copy + 'static>(m: &Move<T>, rs: Range<usize>, cs: Range<usize>) {
    #[cfg(target_arch = "x86_64")]
    match register_lines::<T>() {
        // SAFETY (both arms): `register_lines` vouches for the CPU feature
        // and the word `T` is; the caller for the block.
        Some(Lines::Zmm) => return x86::tiles_u64(m, rs, cs),
        Some(Lines::Ymm) => return x86::tiles_u32(m, rs, cs),
        None => {}
    }
    move_elements(m, rs, cs);
}

/// [`move_block`] element by element, eight rows at a time so that each
/// destination row takes eight adjacent elements.
///
/// # Safety
///
/// As for [`move_block`].
unsafe fn move_elements<T: Copy>(m: &Move<T>, rs: Range<usize>, cs: Range<usize>) {
    for r0 in rs.clone().step_by(8) {
        for c in cs.clone() {
            for r in r0..(r0 + 8).min(rs.end) {
                let (x, y) = (m.src.add(r * m.cols + c), m.dst.add(c * m.rows + r));
                if !m.swap {
                    y.write(x.read());
                } else if r < c {
                    core::ptr::swap_nonoverlapping(x.cast_mut(), y, 1);
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
    use std::ops::Range;

    use super::{move_elements, Move};
    use crate::bitrev::x86::{load_transposed, store, Line};

    use unintt_ff::packed::avx512 as w8;
    use unintt_ff::packed::ifma::Fr8;
    use unintt_ff::Bn254Fr;

    /// [`super::move_block`] over 8-byte words in zmm registers.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `T` is 8 bytes; as for [`super::move_block`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tiles_u64<T: Copy>(m: &Move<T>, rs: Range<usize>, cs: Range<usize>) {
        tiles::<_, __m512i>(m, rs, cs);
    }

    /// [`super::move_block`] over 4-byte words in ymm registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `T` is 4 bytes; as for [`super::move_block`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tiles_u32<T: Copy>(m: &Move<T>, rs: Range<usize>, cs: Range<usize>) {
        tiles::<_, __m256i>(m, rs, cs);
    }

    /// The block's whole tiles in registers, each loaded transposed and
    /// stored at its mirror (with `swap`, the mirror loaded first and
    /// stored in its place); the rows and columns past them element by
    /// element.
    ///
    /// # Safety
    ///
    /// As for [`tiles_u64`], with `V` eight `W` words wide.
    #[inline(always)]
    unsafe fn tiles<W: Copy, V: Line>(m: &Move<W>, rs: Range<usize>, cs: Range<usize>) {
        debug_assert_eq!(size_of::<V>(), 8 * size_of::<W>());
        let (r8, c8) = (rs.start + (rs.len() & !7), cs.start + (cs.len() & !7));
        let diagonal = m.swap && rs == cs;
        for r in (rs.start..r8).step_by(8) {
            let first = if diagonal { r } else { cs.start };
            for c in (first..c8).step_by(8) {
                let (x, y) = (m.src.add(r * m.cols + c), m.dst.add(c * m.rows + r));
                let tile = load_transposed::<W, V>(x, m.cols);
                if m.swap && r != c {
                    store(x.cast_mut(), m.cols, load_transposed::<W, V>(y, m.rows));
                }
                store(y, m.rows, tile);
            }
        }
        move_elements(m, rs.clone(), c8..cs.end);
        move_elements(m, r8..rs.end, cs.start..c8);
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
/// Row passes fork over `exec` in [`BAND_ROWS`]-row bands, transposes in
/// block pairs. Tasks write disjoint elements and no split depends on the
/// pool, so the output is the same bits on any `exec` (a zero-worker pool
/// runs the tasks inline, in order: the serial execution of this code),
/// and a call from inside another `exec` task composes through the
/// caller-helps scope. The tasks touch no telemetry and no cache.
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
    values.copy_from_slice(&scratch);
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
            println!("-- {threads} thread(s), {bands} band tasks per row pass");

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

    /// The oracle of the transpose tests: one element at a time.
    fn naive_transpose<T: Copy>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
        (0..cols)
            .flat_map(|c| (0..rows).map(move |r| data[r * cols + c]))
            .collect()
    }

    /// One transpose kernel against the naive loop, bit for bit, on pools
    /// of 1, 3 and 8, for every element type a transpose meets: `u32` and
    /// `u64` words, the two fields made of them, and `Bn254Fr` (32 bytes,
    /// element by element everywhere). Square: sides off the tile grid
    /// (33, 100, 132), one and two blocks of 8-byte words (512, 520), and 1024
    /// in both word widths (one block of 4-byte words, four of 8-byte
    /// ones). Out of place (also through [`crate::transpose`]): a row and
    /// a column of one, sides off the grid, and 512 × 1024; 1024 × 2048
    /// in the word types. Prints which register tiles the words moved in,
    /// so a log shows when a CPU without them skipped one.
    fn transposes_match_naive(square: bool) {
        fn check<T: Copy + PartialEq + Send + Sync + 'static>(
            square: bool,
            label: &str,
            make: impl Fn(u64) -> T,
            words: bool,
        ) {
            let mut shapes = if square {
                [1, 8, 33, 64, 100, 132, 512, 520].map(|n| (n, n)).to_vec()
            } else {
                vec![(1, 64), (64, 1), (33, 70), (512, 1024)]
            };
            if words {
                shapes.push(if square { (1024, 1024) } else { (1024, 2048) });
            }
            for (rows, cols) in shapes {
                let src: Vec<T> = (0..(rows * cols) as u64).map(&make).collect();
                let want = naive_transpose(&src, rows, cols);
                if !square {
                    assert!(
                        crate::transpose(&src, rows, cols) == want,
                        "{label} {rows}x{cols}"
                    );
                }
                for threads in [1, 3, 8] {
                    let exec = Executor::new(threads);
                    let mut got = src.clone();
                    if square {
                        transpose_in_place_square(&exec, &mut got, rows);
                    } else {
                        transpose_blocked(&exec, &src, &mut got, rows, cols);
                    }
                    assert!(got == want, "{label} {rows}x{cols} threads={threads}");
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            let ran = |has: bool| ["SKIPPED (not on this CPU)", "ran"][usize::from(has)];
            println!(
                "{} tiles: u64 / Goldilocks in zmm (avx512f) {}, u32 / BabyBear in ymm (avx2) {}",
                ["transpose_blocked", "transpose_in_place_square"][usize::from(square)],
                ran(is_x86_feature_detected!("avx512f")),
                ran(is_x86_feature_detected!("avx2"))
            );
        }
        check(square, "u32", |i| i as u32, true);
        check(square, "u64", |i| i, true);
        check(square, "goldilocks", Goldilocks::from_u64, true);
        check(square, "babybear", BabyBear::from_u64, true);
        check(square, "bn254", Bn254Fr::from_u64, false);
    }

    #[test]
    fn transpose_blocked_matches_reference() {
        transposes_match_naive(false);
    }

    #[test]
    fn transpose_in_place_square_matches_reference() {
        transposes_match_naive(true);
    }

    /// Forward then inverse at 2^23 (rectangular: the out-of-place kernel
    /// on 2048 × 4096 and back) on pools of 1, 2 and 8: the forward is the
    /// same bits on every pool, and the inverse lands back on the input.
    fn six_step_round_trip_on_every_pool<F: TwoAdicField>() {
        let log_n = 23;
        let table = cache::shared_table::<F>(log_n);
        let input = || random_vec::<F>(log_n, 23);
        let mut first: Option<Vec<F>> = None;
        for threads in [1usize, 2, 8] {
            let exec = Executor::new(threads);
            let mut values = input();
            six_step(&exec, &table, &mut values, false);
            match &first {
                Some(first) => assert!(values == *first, "forward threads={threads}"),
                None => first = Some(values.clone()),
            }
            six_step(&exec, &table, &mut values, true);
            assert!(values == input(), "inverse threads={threads}");
        }
    }

    #[test]
    fn six_step_round_trip_2p23_goldilocks() {
        six_step_round_trip_on_every_pool::<Goldilocks>();
    }

    #[test]
    fn six_step_round_trip_2p23_babybear() {
        six_step_round_trip_on_every_pool::<BabyBear>();
    }
}
