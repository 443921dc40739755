//! Bit-reversal permutations.
//!
//! Radix-2 Cooley–Tukey NTTs naturally consume or produce data in
//! *bit-reversed* order: element `i` sits at position `reverse_bits(i)`.
//! This module provides the index helper and in-place/out-of-place
//! permutation routines shared by every NTT variant in the workspace.
//!
//! **The in-place permutation moves whole tiles.** One swap per pair
//! `(i, rev(i))` touches two unrelated cache lines, and above L1 each one
//! misses. [`bit_reverse_permute`] splits an index of `log_n ≥ 6` bits
//! into `hi` (3 bits) | `mid` (`log_n − 6`) | `lo` (3 bits), so that
//! `rev(hi|mid|lo) = rev(lo)|rev(mid)|rev(hi)`: the eight 8-element lines
//! `hi·2^(log_n−3) + 8·mid` form a tile, and tile `mid` lands on tile
//! `rev(mid)` transposed, rows and columns in 3-bit-reversed order. Each
//! pair of tiles is exchanged in one visit, so every element moves once
//! and every pass reads and writes whole lines. Goldilocks words on
//! AVX-512F and BabyBear words on AVX2 transpose tiles in registers; other
//! types swap within the same two tiles.
//! Sizes below one tile read a compile-time pair list.
//!
//! **The narrow transpose reuses the same register tiles.** [`interleave`]
//! and [`deinterleave`] move a matrix one of whose sides is short (the GPU
//! count of a sharded vector) between `g` rows of `m` elements and the
//! row-major `m × g` interleaving, out of place, into vectors they
//! allocate and fill without zeroing. Goldilocks and `u64` words on
//! AVX-512F and BabyBear and `u32` words on AVX2 move by whole 8 × 8
//! tiles; the rows or columns past the last whole tile, `g < 8`, and other
//! element types copy element by element.

use std::ops::Range;

/// Reverses the low `bits` bits of `i`.
///
/// ```
/// use unintt_ntt::reverse_bits;
/// assert_eq!(reverse_bits(0b001, 3), 0b100);
/// assert_eq!(reverse_bits(0b110, 3), 0b011);
/// ```
#[inline]
pub fn reverse_bits(i: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    i.reverse_bits() >> (usize::BITS - bits)
}

/// The swap pairs `(i, rev(i))`, `i < rev(i)`, of each size below one
/// tile (`bits < 6`).
#[rustfmt::skip]
const SMALL_PAIRS: [&[(u8, u8)]; 6] = [
    &[], &[], &[(1, 2)], &[(1, 4), (3, 6)],
    &[(1, 8), (2, 4), (3, 12), (5, 10), (7, 14), (11, 13)],
    &[(1, 16), (2, 8), (3, 24), (5, 20), (6, 12), (7, 28),
      (9, 18), (11, 26), (13, 22), (15, 30), (19, 25), (23, 29)],
];

/// 3-bit reversal: the row and column order inside a tile.
const REV3: [usize; 8] = [0, 4, 2, 6, 1, 5, 3, 7];

/// The tile schedule of a size-`2^bits` permutation (`bits ≥ 6`): the
/// line offsets `(8·mid, 8·rev(mid))` of every tile pair, each once.
fn tile_pairs(bits: u32) -> impl Iterator<Item = (usize, usize)> {
    let mid_bits = bits - 6;
    (0..1usize << mid_bits).filter_map(move |mid| {
        let rev = reverse_bits(mid, mid_bits);
        (mid <= rev).then_some((8 * mid, 8 * rev))
    })
}

/// Applies the bit-reversal permutation in place, tile pair by tile pair
/// (see the module docs).
///
/// # Panics
///
/// Panics if `values.len()` is not a power of two.
pub fn bit_reverse_permute<T: 'static>(values: &mut [T]) {
    let n = values.len();
    assert!(n.is_power_of_two(), "length {n} is not a power of two");
    let bits = n.trailing_zeros();
    if bits < 6 {
        for &(i, j) in SMALL_PAIRS[bits as usize] {
            values.swap(usize::from(i), usize::from(j));
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        use std::any::TypeId;
        use unintt_ff::{BabyBear, Goldilocks};
        let id = TypeId::of::<T>();
        if id == TypeId::of::<Goldilocks>() && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected; `T` is Goldilocks, a u64
            // (`repr(transparent)`); there are 2^bits of them, bits ≥ 6.
            unsafe { x86::permute_u64(as_words(values), bits) };
            return;
        }
        if id == TypeId::of::<BabyBear>() && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected; `T` is BabyBear, a u32
            // (`repr(transparent)`); there are 2^bits of them, bits ≥ 6.
            unsafe { x86::permute_u32(as_words(values), bits) };
            return;
        }
    }
    exchange_tiles(values, bits);
}

/// `values` as the machine words its elements are, so that each register
/// kernel has one body per word width whatever field calls it.
///
/// # Safety
///
/// `T` is `W` or `repr(transparent)` over one.
#[cfg(target_arch = "x86_64")]
unsafe fn as_words<T, W>(values: &mut [T]) -> &mut [W] {
    debug_assert_eq!(size_of::<T>(), size_of::<W>());
    std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), values.len())
}

/// Row pointers retyped to the machine word the rows hold.
#[cfg(target_arch = "x86_64")]
fn word_ptrs<T, W>(wide: &[*mut T]) -> &[*mut W] {
    // SAFETY: `*mut T` and `*mut W` are thin pointers with one layout; the
    // pointers are only reinterpreted, never dereferenced here.
    unsafe { std::slice::from_raw_parts(wide.as_ptr().cast(), wide.len()) }
}

/// The generic tile exchange: every tile pair swapped element by element,
/// for any element type and `bits ≥ 6`.
fn exchange_tiles<T>(values: &mut [T], bits: u32) {
    let stride = values.len() >> 3;
    for (a, b) in tile_pairs(bits) {
        for (hi, &rev_hi) in REV3.iter().enumerate() {
            for (lo, &rev_lo) in REV3.iter().enumerate() {
                let i = hi * stride + a + lo;
                let j = rev_lo * stride + b + rev_hi;
                if a != b || i < j {
                    values.swap(i, j);
                }
            }
        }
    }
}

/// Returns a new vector with elements in bit-reversed order.
pub fn bit_reversed<T: Clone>(values: &[T]) -> Vec<T> {
    let n = values.len();
    assert!(n.is_power_of_two(), "length {n} is not a power of two");
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| values[reverse_bits(i, bits)].clone())
        .collect()
}

/// The narrow transpose, wide to narrow: `out[j·g + d] = rows[d][j]` for
/// the `g = rows.len()` rows of `m` elements each.
///
/// ```
/// use unintt_ntt::interleave;
/// assert_eq!(interleave(&[[1, 2, 3], [4, 5, 6]]), vec![1, 4, 2, 5, 3, 6]);
/// ```
///
/// # Panics
///
/// Panics if the rows differ in length.
pub fn interleave<T: Copy + 'static, R: AsRef<[T]>>(rows: &[R]) -> Vec<T> {
    let m = rows.first().map_or(0, |row| row.as_ref().len());
    let wide: Vec<*mut T> = rows
        .iter()
        .map(|row| {
            let row = row.as_ref();
            assert_eq!(row.len(), m, "rows differ in length");
            row.as_ptr().cast_mut()
        })
        .collect();
    let len = wide.len() * m;
    let mut out = Vec::with_capacity(len);
    // SAFETY: each pointer in `wide` comes from a row whose length was
    // checked to be `m`, and is only read (`to_narrow`); `out` has room for
    // the `g·m` elements, and `narrow_transpose` writes every one of them
    // before the length is set.
    unsafe {
        narrow_transpose(&wide, m, out.as_mut_ptr(), true);
        out.set_len(len);
    }
    out
}

/// The narrow transpose, narrow to wide: row `d` of the result holds
/// `narrow[j·g + d]` for `j < narrow.len() / g`.
///
/// ```
/// use unintt_ntt::deinterleave;
/// assert_eq!(deinterleave(&[1, 4, 2, 5, 3, 6], 2), vec![vec![1, 2, 3], vec![4, 5, 6]]);
/// ```
///
/// # Panics
///
/// Panics if `g` is zero or does not divide `narrow.len()`.
pub fn deinterleave<T: Copy + 'static>(narrow: &[T], g: usize) -> Vec<Vec<T>> {
    assert!(
        g > 0 && narrow.len().is_multiple_of(g),
        "{} elements do not form rows of {g}",
        narrow.len()
    );
    let m = narrow.len() / g;
    let mut rows: Vec<Vec<T>> = (0..g).map(|_| Vec::with_capacity(m)).collect();
    let wide: Vec<*mut T> = rows.iter_mut().map(Vec::as_mut_ptr).collect();
    // SAFETY: `narrow` holds `g·m` readable elements and is only read
    // (`!to_narrow`); every row has room for `m`, and `narrow_transpose`
    // writes all of them before the lengths are set.
    unsafe {
        narrow_transpose(&wide, m, narrow.as_ptr().cast_mut(), false);
        for row in &mut rows {
            row.set_len(m);
        }
    }
    rows
}

/// Copies between the `g = wide.len()` rows of `m` elements at `wide` and
/// the row-major `m × g` matrix at `narrow`: into `narrow` with
/// `to_narrow`, out of it without. Whole 8 × 8 tiles move in registers
/// where the element type and the CPU allow; the rest element by element.
///
/// # Safety
///
/// The source side is valid for reads and the destination side for writes
/// of its `g·m` elements, and the two do not overlap.
unsafe fn narrow_transpose<T: Copy + 'static>(
    wide: &[*mut T],
    m: usize,
    narrow: *mut T,
    to_narrow: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if wide.len() >= 8 && m >= 8 {
        use std::any::TypeId;
        use unintt_ff::{BabyBear, Goldilocks};
        let id = TypeId::of::<T>();
        let is = |ids: [TypeId; 2]| ids.contains(&id);
        if is([TypeId::of::<u64>(), TypeId::of::<Goldilocks>()])
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            // SAFETY: AVX-512F was detected; `T` is a `u64` or Goldilocks
            // (`repr(transparent)` over one); the caller vouches for the
            // pointers.
            x86::narrow_u64(word_ptrs(wide), m, narrow.cast(), to_narrow);
            return;
        }
        if is([TypeId::of::<u32>(), TypeId::of::<BabyBear>()])
            && std::arch::is_x86_feature_detected!("avx2")
        {
            // SAFETY: AVX2 was detected; `T` is a `u32` or BabyBear
            // (`repr(transparent)` over one); as above.
            x86::narrow_u32(word_ptrs(wide), m, narrow.cast(), to_narrow);
            return;
        }
    }
    copy_elements(wide, 0..wide.len(), 0..m, narrow, to_narrow);
}

/// [`narrow_transpose`] element by element over rows `rows` and columns
/// `cols` of the wide side.
///
/// # Safety
///
/// As for [`narrow_transpose`].
unsafe fn copy_elements<T: Copy>(
    wide: &[*mut T],
    rows: Range<usize>,
    cols: Range<usize>,
    narrow: *mut T,
    to_narrow: bool,
) {
    let g = wide.len();
    for j in cols {
        for d in rows.clone() {
            let (w, n) = (wide[d].add(j), narrow.add(j * g + d));
            if to_narrow {
                n.write(w.read());
            } else {
                w.write(n.read());
            }
        }
    }
}

/// The register tile kernels: one tile schedule (`x86::exchange`) over a
/// per-width 8 × 8 register transpose, and the narrow transpose's tiles
/// (`x86::narrow_tiles`) over the same transposes. Pure data movement.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    use super::{copy_elements, tile_pairs, REV3};

    /// A register holding one 8-element line of a tile.
    trait Line: Copy {
        /// Transposes the 8 × 8 tile whose row `k` is `rows[k]`, leaving
        /// its column `REV3[l]` in register `l`. Loaded as lines `REV3[k]`
        /// of a tile, line `l` of the partner tile is transposed row
        /// `REV3[l]`.
        ///
        /// # Safety
        ///
        /// Requires AVX-512F for `__m512i`, AVX2 for `__m256i`.
        unsafe fn transpose(rows: [Self; 8]) -> [Self; 8];
    }

    /// [`super::bit_reverse_permute`] over 8-byte words in zmm registers.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `words.len() == 1 << bits`, `bits ≥ 6`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn permute_u64(words: &mut [u64], bits: u32) {
        exchange::<_, __m512i>(words, bits);
    }

    /// [`super::bit_reverse_permute`] over 4-byte words in ymm registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `words.len() == 1 << bits`, `bits ≥ 6`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn permute_u32(words: &mut [u32], bits: u32) {
        exchange::<_, __m256i>(words, bits);
    }

    /// The tile schedule with `V` lines of eight `W` words. Both tiles of
    /// a pair are in registers before either is stored.
    ///
    /// # Safety
    ///
    /// As for [`permute_u64`], with `V` eight `W` words wide.
    #[inline(always)]
    unsafe fn exchange<W, V: Line>(words: &mut [W], bits: u32) {
        debug_assert!(bits >= 6 && words.len() == 1 << bits);
        debug_assert_eq!(size_of::<V>(), 8 * size_of::<W>());
        let (p, stride) = (words.as_mut_ptr(), words.len() >> 3);
        for (a, b) in tile_pairs(bits) {
            let ta = V::transpose(load(p.add(a), stride));
            if a != b {
                store(p.add(a), stride, V::transpose(load(p.add(b), stride)));
            }
            store(p.add(b), stride, ta);
        }
    }

    /// Lines `REV3[k]`, `k = 0..8`, of the tile at `p`.
    ///
    /// # Safety
    ///
    /// `p + k·stride` is valid for an unaligned `V` read, `k < 8`.
    #[inline(always)]
    unsafe fn load<W, V>(p: *const W, stride: usize) -> [V; 8] {
        REV3.map(|k| p.add(k * stride).cast::<V>().read_unaligned())
    }

    /// Stores `lines[l]` at `p + l·stride`.
    ///
    /// # Safety
    ///
    /// `p + l·stride` is valid for an unaligned `V` write, `l < 8`.
    #[inline(always)]
    unsafe fn store<W, V>(p: *mut W, stride: usize, lines: [V; 8]) {
        for (l, v) in lines.into_iter().enumerate() {
            p.add(l * stride).cast::<V>().write_unaligned(v);
        }
    }

    /// [`super::narrow_transpose`] over 8-byte words in zmm registers.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; as for [`super::narrow_transpose`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn narrow_u64(
        wide: &[*mut u64],
        m: usize,
        narrow: *mut u64,
        to_narrow: bool,
    ) {
        narrow_tiles::<_, __m512i>(wide, m, narrow, to_narrow);
    }

    /// [`super::narrow_transpose`] over 4-byte words in ymm registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2; as for [`super::narrow_transpose`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn narrow_u32(
        wide: &[*mut u32],
        m: usize,
        narrow: *mut u32,
        to_narrow: bool,
    ) {
        narrow_tiles::<_, __m256i>(wide, m, narrow, to_narrow);
    }

    /// The narrow transpose by 8 × 8 tiles: wide rows `d0..d0 + 8`,
    /// columns `j0..j0 + 8` against narrow rows `j0..j0 + 8`, columns
    /// `d0..d0 + 8`; the rows and columns past the last whole tile element
    /// by element.
    ///
    /// # Safety
    ///
    /// As for [`narrow_u64`], with `V` eight `W` words wide.
    #[inline(always)]
    unsafe fn narrow_tiles<W: Copy, V: Line>(
        wide: &[*mut W],
        m: usize,
        narrow: *mut W,
        to_narrow: bool,
    ) {
        debug_assert_eq!(size_of::<V>(), 8 * size_of::<W>());
        let g = wide.len();
        let (g8, m8) = (g & !7, m & !7);
        for d0 in (0..g8).step_by(8) {
            let rows: [*mut W; 8] = std::array::from_fn(|c| wide[d0 + c]);
            for j0 in (0..m8).step_by(8) {
                let w = rows.map(|row| row.add(j0));
                let n: [*mut W; 8] = std::array::from_fn(|k| narrow.add((j0 + k) * g + d0));
                let (src, dst) = if to_narrow { (w, n) } else { (n, w) };
                // Line `c` of the destination is column `c` of the source:
                // `transpose` leaves column `REV3[l]` in register `l`.
                let t = V::transpose(src.map(|p| p.cast::<V>().read_unaligned()));
                for (c, p) in dst.into_iter().enumerate() {
                    p.cast::<V>().write_unaligned(t[REV3[c]]);
                }
            }
        }
        copy_elements(wide, 0..g8, m8..m, narrow, to_narrow);
        copy_elements(wide, g8..g, 0..m, narrow, to_narrow);
    }

    impl Line for __m512i {
        #[inline(always)]
        unsafe fn transpose([r0, r1, r2, r3, r4, r5, r6, r7]: [Self; 8]) -> [Self; 8] {
            // Row pairs interleaved: even columns, then odd.
            let (t0, t1) = (_mm512_unpacklo_epi64(r0, r1), _mm512_unpackhi_epi64(r0, r1));
            let (t2, t3) = (_mm512_unpacklo_epi64(r2, r3), _mm512_unpackhi_epi64(r2, r3));
            let (t4, t5) = (_mm512_unpacklo_epi64(r4, r5), _mm512_unpackhi_epi64(r4, r5));
            let (t6, t7) = (_mm512_unpacklo_epi64(r6, r7), _mm512_unpackhi_epi64(r6, r7));
            // Even, then odd 128-bit lanes of two registers, twice: `v0..4`
            // hold columns (0, 4), (2, 6), (1, 5), (3, 7) of rows 0..4.
            let (v0, v1) = lanes(t0, t2);
            let (v2, v3) = lanes(t1, t3);
            let (v4, v5) = lanes(t4, t6);
            let (v6, v7) = lanes(t5, t7);
            let ((l0, l1), (l2, l3)) = (lanes(v0, v4), lanes(v1, v5));
            let ((l4, l5), (l6, l7)) = (lanes(v2, v6), lanes(v3, v7));
            [l0, l1, l2, l3, l4, l5, l6, l7]
        }
    }

    /// The even and the odd 128-bit lanes of `a` then `b`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[inline(always)]
    unsafe fn lanes(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        let even = _mm512_shuffle_i64x2::<0x88>(a, b);
        (even, _mm512_shuffle_i64x2::<0xdd>(a, b))
    }

    impl Line for __m256i {
        #[inline(always)]
        unsafe fn transpose([r0, r1, r2, r3, r4, r5, r6, r7]: [Self; 8]) -> [Self; 8] {
            // Row pairs interleaved: columns 0, 1, 4, 5, then 2, 3, 6, 7.
            let (t0, t1) = (_mm256_unpacklo_epi32(r0, r1), _mm256_unpackhi_epi32(r0, r1));
            let (t2, t3) = (_mm256_unpacklo_epi32(r2, r3), _mm256_unpackhi_epi32(r2, r3));
            let (t4, t5) = (_mm256_unpacklo_epi32(r4, r5), _mm256_unpackhi_epi32(r4, r5));
            let (t6, t7) = (_mm256_unpacklo_epi32(r6, r7), _mm256_unpackhi_epi32(r6, r7));
            // `v0..4` hold columns (0, 4), (2, 6), (1, 5), (3, 7) of rows 0..4.
            let (v0, v2) = (_mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2));
            let (v1, v3) = (_mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3));
            let (v4, v6) = (_mm256_unpacklo_epi64(t4, t6), _mm256_unpackhi_epi64(t4, t6));
            let (v5, v7) = (_mm256_unpacklo_epi64(t5, t7), _mm256_unpackhi_epi64(t5, t7));
            let ((l0, l1), (l2, l3)) = (halves(v0, v4), halves(v1, v5));
            let ((l4, l5), (l6, l7)) = (halves(v2, v6), halves(v3, v7));
            [l0, l1, l2, l3, l4, l5, l6, l7]
        }
    }

    /// The low, then the high 128-bit halves of `a` and `b`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn halves(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let lo = _mm256_permute2x128_si256::<0x20>(a, b);
        (lo, _mm256_permute2x128_si256::<0x31>(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_ff::{BabyBear, Bn254Fr, Goldilocks, PrimeField};

    #[test]
    fn reverse_bits_known_values() {
        assert_eq!(reverse_bits(0, 4), 0);
        assert_eq!(reverse_bits(1, 4), 8);
        assert_eq!(reverse_bits(0b1010, 4), 0b0101);
        assert_eq!(reverse_bits(5, 0), 0);
    }

    #[test]
    fn reverse_is_involution() {
        for bits in 1..10u32 {
            for i in 0..(1usize << bits) {
                assert_eq!(reverse_bits(reverse_bits(i, bits), bits), i);
            }
        }
    }

    #[test]
    fn permute_is_involution() {
        let original: Vec<u32> = (0..64).collect();
        let mut v = original.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, original);
        bit_reverse_permute(&mut v);
        assert_eq!(v, original);
    }

    #[test]
    fn permute_singleton_and_pair() {
        let mut one = [42];
        bit_reverse_permute(&mut one);
        assert_eq!(one, [42]);

        let mut two = [1, 2];
        bit_reverse_permute(&mut two);
        assert_eq!(two, [1, 2]);

        let mut four = [0, 1, 2, 3];
        bit_reverse_permute(&mut four);
        assert_eq!(four, [0, 2, 1, 3]);
    }

    #[test]
    fn bit_reversed_matches_in_place() {
        let original: Vec<u32> = (0..32).collect();
        let out = bit_reversed(&original);
        let mut inplace = original.clone();
        bit_reverse_permute(&mut inplace);
        assert_eq!(out, inplace);
    }

    /// The tiled permutation against the index form at every size up to
    /// 2^20: 4-, 8- and 32-byte elements, the two fields with register
    /// kernels, and those two again through the generic tile exchange.
    #[test]
    fn permute_matches_bit_reversed() {
        fn check<T: Clone + PartialEq + 'static>(
            label: &str,
            make: impl Fn(u64) -> T,
            permute: fn(&mut [T]),
        ) {
            let all: Vec<T> = (0..1u64 << 20).map(make).collect();
            for bits in 0..=20u32 {
                let input = &all[..1 << bits];
                let mut got = input.to_vec();
                permute(&mut got);
                assert!(got == bit_reversed(input), "{label} bits={bits}");
            }
        }
        fn generic<T: 'static>(values: &mut [T]) {
            match values.len().trailing_zeros() {
                bits @ 6.. => exchange_tiles(values, bits),
                _ => bit_reverse_permute(values),
            }
        }
        check("u32", |i| i as u32, bit_reverse_permute);
        check("u64", |i| i, bit_reverse_permute);
        check("bn254", Bn254Fr::from_u64, bit_reverse_permute);
        check("goldilocks", Goldilocks::from_u64, bit_reverse_permute);
        check("babybear", BabyBear::from_u64, bit_reverse_permute);
        check("goldilocks generic", Goldilocks::from_u64, generic);
        check("babybear generic", BabyBear::from_u64, generic);
    }

    /// Each register kernel the CPU has, called directly at every tiled
    /// size up to 2^20. Prints which kernels ran, so a log shows when a
    /// CPU without them skipped one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn register_kernels_match_bit_reversed() {
        let avx512 = is_x86_feature_detected!("avx512f");
        let avx2 = is_x86_feature_detected!("avx2");
        let ran = |has: bool| ["SKIPPED (not on this CPU)", "ran"][usize::from(has)];
        println!(
            "bitrev register kernels: permute_u64 (avx512f) {}, permute_u32 (avx2) {}",
            ran(avx512),
            ran(avx2)
        );
        for bits in 6..=20u32 {
            let n = 1u32 << bits;
            if avx512 {
                let input: Vec<u64> = (0..u64::from(n)).collect();
                let mut got = input.clone();
                // SAFETY: AVX-512F was detected; 2^bits words, bits ≥ 6.
                unsafe { x86::permute_u64(&mut got, bits) };
                assert!(got == bit_reversed(&input), "permute_u64 bits={bits}");
            }
            if avx2 {
                let input: Vec<u32> = (0..n).collect();
                let mut got = input.clone();
                // SAFETY: AVX2 was detected; 2^bits words, bits ≥ 6.
                unsafe { x86::permute_u32(&mut got, bits) };
                assert!(got == bit_reversed(&input), "permute_u32 bits={bits}");
            }
        }
    }

    /// Both directions of the narrow transpose against the naive
    /// [`crate::transpose`]: `g` up to 16 (tiled from 8), row lengths with
    /// and without a remainder past the last tile, 4-, 8- and 32-byte
    /// elements, and the two fields whose words move in registers.
    #[test]
    fn narrow_transpose_matches_naive() {
        fn check<T: Copy + PartialEq + std::fmt::Debug + 'static>(
            label: &str,
            make: impl Fn(u64) -> T,
        ) {
            for g in [1usize, 2, 4, 8, 16] {
                for m in [1usize, 7, 8, 9, 64, 100] {
                    let narrow: Vec<T> = (0..(g * m) as u64).map(&make).collect();
                    let rows = deinterleave(&narrow, g);
                    let wide = crate::transpose(&narrow, m, g);
                    assert_eq!(rows.concat(), wide, "{label} deinterleave g={g} m={m}");
                    assert_eq!(interleave(&rows), narrow, "{label} interleave g={g} m={m}");
                    let slices: Vec<&[T]> = wide.chunks_exact(m).collect();
                    assert_eq!(interleave(&slices), narrow, "{label} slices g={g} m={m}");
                }
            }
        }
        check("u32", |i| i as u32);
        check("u64", |i| i);
        check("goldilocks", Goldilocks::from_u64);
        check("babybear", BabyBear::from_u64);
        check("bn254", Bn254Fr::from_u64);
        assert!(interleave::<u64, &[u64]>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn ragged_rows_panic() {
        let _ = interleave(&[vec![1u64, 2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "do not form rows")]
    fn deinterleave_remainder_panics() {
        let _ = deinterleave(&[1u64, 2, 3], 2);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_panics() {
        let mut v = [1, 2, 3];
        bit_reverse_permute(&mut v);
    }
}
