//! The host NTT kernels: every [`crate::Ntt`] transform up to
//! [`VECTOR_DIRECT_MAX_LOG_N`] runs one [`VectorPlan`], and every row of a
//! larger transform's six-step decomposition does too.
//!
//! Three ideas compose:
//!
//! * **Lane-packed butterflies** — the transform body works on
//!   `[F; LANES]` register blocks through the const-generic layer on
//!   [`unintt_ff::ShoupField`] (portable), or through explicit AVX2 /
//!   AVX-512 `std::arch` kernels on x86_64 when the CPU reports the
//!   feature at runtime (`is_x86_feature_detected!`). Both backends
//!   compute exact canonical residues, so they are bit-identical to each
//!   other and to the radix-2 DIT oracle ([`crate::Ntt::dit_in_place`]).
//! * **Radix-4/8 stage fusion** — two (AVX2) or three (portable,
//!   AVX-512) DIF butterfly layers run per memory pass with intermediates
//!   held in registers, halving-to-thirding pass count and twiddle
//!   traffic relative to a stage-at-a-time loop.
//! * **A specialized-plan cache** — [`VectorPlan`] instances are built
//!   once per `(field, log_n)` (covering both directions) and memoized in
//!   [`crate::cache`]; a plan pins its backend choice, pre-extracted
//!   native twiddle banks, and the bit-reversal pair table, so
//!   per-transform dispatch is one enum match with no per-stage
//!   branching.
//!
//! AVX2 kernels fuse radix-4 (radix-8 would need >16 ymm live values and
//! spill); the portable path fuses radix-8 since its "registers" are
//! compiler-scheduled locals. Goldilocks AVX2 multiplies via the full
//! 64×64 product + ε-reduction rather than Shoup (a Shoup product needs
//! seven `vpmuludq`-class ops against four, and its `[0, 2p)` result
//! overflows the 64-bit lane), so its twiddle bank stores only the plain
//! `w` words.

use std::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use unintt_ff::{BabyBear, Goldilocks, ShoupTwiddle, TwoAdicField};

use crate::twiddle::TwiddleTable;
use crate::{bit_reverse_permute, cache};

/// Largest `log_n` the direct (single-buffer) vector kernel handles;
/// larger sizes decompose six-step with vector row transforms. The fused
/// passes are streaming (sequential loads/stores, no strided gathers), so
/// the working set can exceed L2 without the pass count paying for it.
pub const VECTOR_DIRECT_MAX_LOG_N: u32 = 20;

/// Which lane backend the vector kernels execute on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VectorBackend {
    /// Explicit `std::arch` SIMD (AVX2 on x86_64), selected when the CPU
    /// reports the feature at runtime and the field has a native kernel.
    Native,
    /// The portable const-generic lane path (always available).
    Portable,
}

/// 0 = auto-detect, 1 = force portable, 2 = prefer native.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides backend selection for the vector kernels.
///
/// `Some(VectorBackend::Portable)` forces the portable lane path even
/// where AVX2 is available (A/B testing and the bit-identity proptests);
/// `Some(VectorBackend::Native)` or `None` restore auto-detection (a
/// native request still falls back to portable where no native kernel
/// exists). Outputs are bit-identical on every backend.
pub fn set_vector_backend_override(backend: Option<VectorBackend>) {
    let enc = match backend {
        None => 0,
        Some(VectorBackend::Portable) => 1,
        Some(VectorBackend::Native) => 2,
    };
    BACKEND_OVERRIDE.store(enc, Ordering::Relaxed);
}

pub(crate) fn portable_forced() -> bool {
    BACKEND_OVERRIDE.load(Ordering::Relaxed) == 1
}

/// The backend transforms over `F` would use for
/// a size in the direct range (reporting hook for benches and docs).
pub fn active_vector_backend<F: TwoAdicField>() -> VectorBackend {
    if !portable_forced() && native_kernel::<F>(VECTOR_DIRECT_MAX_LOG_N) != NativeKernel::None {
        VectorBackend::Native
    } else {
        VectorBackend::Portable
    }
}

/// Native (explicit-SIMD) kernel selected for a plan at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NativeKernel {
    /// No native kernel: portable lane path.
    None,
    /// 4×u64 AVX2 Goldilocks kernel.
    GoldilocksAvx2,
    /// 8×u64 AVX-512 Goldilocks kernel (wide stages; the register-resident
    /// tail reuses the AVX2 shuffle pass).
    GoldilocksAvx512,
    /// 8×u32 AVX2 BabyBear kernel.
    BabyBearAvx2,
}

/// The native kernel available for `(F, log_n)` on this CPU. The AVX2
/// kernels need at least two vectors of data for their shuffle tails
/// (`log_n ≥ 3` Goldilocks, `≥ 4` BabyBear); smaller sizes take the
/// portable path, which handles every size. Goldilocks upgrades to the
/// 8-lane AVX-512 stage drivers where `avx512f`+`avx512dq` are present
/// (the twiddle bank layout is shared with the AVX2 kernel, so the
/// upgrade is pure dispatch).
fn native_kernel<F: TwoAdicField>(log_n: u32) -> NativeKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            if TypeId::of::<F>() == TypeId::of::<Goldilocks>() && log_n >= 3 {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                {
                    return NativeKernel::GoldilocksAvx512;
                }
                return NativeKernel::GoldilocksAvx2;
            }
            if TypeId::of::<F>() == TypeId::of::<BabyBear>() && log_n >= 4 {
                return NativeKernel::BabyBearAvx2;
            }
        }
    }
    let _ = log_n;
    NativeKernel::None
}

/// Short human label for the backend the vector path would use for `F`
/// (reporting hook for benches and docs): `"avx512"`, `"avx2"`, or
/// `"portable"`.
pub fn active_backend_label<F: TwoAdicField>() -> &'static str {
    if portable_forced() {
        return "portable";
    }
    match native_kernel::<F>(VECTOR_DIRECT_MAX_LOG_N) {
        NativeKernel::GoldilocksAvx512 => "avx512",
        NativeKernel::GoldilocksAvx2 | NativeKernel::BabyBearAvx2 => "avx2",
        NativeKernel::None => "portable",
    }
}

/// Twiddle banks re-laid-out for the native kernels' load width, built
/// next to the generic per-stage tables at plan-build time.
#[derive(Debug)]
enum NativeBank {
    /// Portable-only plan: the generic tables are the only layout.
    None,
    /// Goldilocks AVX2: plain `w` words per stage (`bank[s-1][j]`).
    U64(Vec<Vec<u64>>),
    /// BabyBear AVX2: split plain/quotient `u32` arrays per stage, so
    /// eight-lane loads need no deinterleaving shuffle.
    U32Pair {
        plain: Vec<Vec<u32>>,
        quot: Vec<Vec<u32>>,
    },
}

/// One direction's worth of kernel state: generic packed stage tables
/// (`stages[s-1][j]`, see [`pack_stages`]) plus the optional native
/// re-layout.
#[derive(Debug)]
struct DirPlan<F: TwoAdicField> {
    stages: Vec<Vec<ShoupTwiddle<F>>>,
    bank: NativeBank,
}

/// Per-stage packed twiddles: `stages[s-1][j]` is the stage-`s` DIF
/// twiddle `ω^{j·2^(log_n−s)}`, prepared, stored contiguously so stage
/// loops read sequentially instead of gathering `lane[j << stride]`.
fn pack_stages<F: TwoAdicField>(lane: &[ShoupTwiddle<F>], log_n: u32) -> Vec<Vec<ShoupTwiddle<F>>> {
    (1..=log_n)
        .map(|s| {
            let half = 1usize << (s - 1);
            let stride = log_n - s;
            (0..half).map(|j| lane[j << stride]).collect()
        })
        .collect()
}

fn build_bank<F: TwoAdicField>(
    stages: &[Vec<ShoupTwiddle<F>>],
    native: NativeKernel,
) -> NativeBank {
    match native {
        NativeKernel::None => NativeBank::None,
        NativeKernel::GoldilocksAvx2 | NativeKernel::GoldilocksAvx512 => NativeBank::U64(
            stages
                .iter()
                .map(|st| st.iter().map(|t| t.w.to_canonical_u64()).collect())
                .collect(),
        ),
        NativeKernel::BabyBearAvx2 => NativeBank::U32Pair {
            plain: stages
                .iter()
                .map(|st| st.iter().map(|t| (t.aux & 0xffff_ffff) as u32).collect())
                .collect(),
            quot: stages
                .iter()
                .map(|st| st.iter().map(|t| (t.aux >> 32) as u32).collect())
                .collect(),
        },
    }
}

/// A monomorphized vector-kernel instance for one `(field, log_n)`:
/// both directions' twiddle banks, the prepared `1/n` constant, the
/// backend selection, and the bit-reversal pair table (held by `Arc` so
/// the plan keeps working even if every process-wide cache evicts it).
/// Cached in [`crate::cache::shared_vector_plan`]; an [`crate::Ntt`]
/// holds the one it transforms with.
#[derive(Debug)]
pub(crate) struct VectorPlan<F: TwoAdicField> {
    log_n: u32,
    fwd: DirPlan<F>,
    inv: DirPlan<F>,
    n_inv: ShoupTwiddle<F>,
    bitrev: Option<Arc<Vec<(u32, u32)>>>,
    native: NativeKernel,
}

impl<F: TwoAdicField> VectorPlan<F> {
    pub(crate) fn new(table: &TwiddleTable<F>) -> Self {
        let log_n = table.log_n();
        let native = native_kernel::<F>(log_n);
        let fwd_stages = pack_stages(table.forward_shoup(), log_n);
        let inv_stages = pack_stages(table.inverse_shoup(), log_n);
        Self {
            log_n,
            fwd: DirPlan {
                bank: build_bank(&fwd_stages, native),
                stages: fwd_stages,
            },
            inv: DirPlan {
                bank: build_bank(&inv_stages, native),
                stages: inv_stages,
            },
            n_inv: F::shoup_prepare(table.n_inv()),
            bitrev: (log_n <= cache::MAX_CACHED_BITREV_BITS).then(|| cache::bitrev_pairs(log_n)),
            native,
        }
    }

    /// The bit-reversal pair table this plan pinned at build time.
    #[cfg(test)]
    pub(crate) fn bitrev_pairs(&self) -> Option<&Arc<Vec<(u32, u32)>>> {
        self.bitrev.as_ref()
    }

    /// The transform size this plan was built for.
    #[cfg(test)]
    pub(crate) fn log_n(&self) -> u32 {
        self.log_n
    }

    fn active_native(&self) -> NativeKernel {
        if portable_forced() {
            NativeKernel::None
        } else {
            self.native
        }
    }

    /// All DIF stages (no permutation), canonical output.
    fn run_stages(&self, values: &mut [F], dir: &DirPlan<F>) {
        match self.active_native() {
            #[cfg(target_arch = "x86_64")]
            NativeKernel::GoldilocksAvx2 => {
                let NativeBank::U64(bank) = &dir.bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words =
                    unintt_ff::packed::gl_words_mut(cast_slice_mut::<F, Goldilocks>(values));
                // SAFETY: AVX2 presence was verified at plan build.
                unsafe { x86::gl_stages(words, bank, self.log_n) }
            }
            #[cfg(target_arch = "x86_64")]
            NativeKernel::GoldilocksAvx512 => {
                let NativeBank::U64(bank) = &dir.bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words =
                    unintt_ff::packed::gl_words_mut(cast_slice_mut::<F, Goldilocks>(values));
                // SAFETY: AVX-512F/DQ (and AVX2 for the tail) presence was
                // verified at plan build.
                unsafe { x86::gl_stages_avx512(words, bank, self.log_n) }
            }
            #[cfg(target_arch = "x86_64")]
            NativeKernel::BabyBearAvx2 => {
                let NativeBank::U32Pair { plain, quot } = &dir.bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words = unintt_ff::packed::bb_words_mut(cast_slice_mut::<F, BabyBear>(values));
                // SAFETY: AVX2 presence was verified at plan build.
                unsafe { x86::bb_stages(words, plain, quot, self.log_n) }
            }
            _ => portable_stages_dispatch(values, &dir.stages, self.log_n),
        }
    }

    fn apply_bitrev(&self, values: &mut [F]) {
        match &self.bitrev {
            Some(pairs) => {
                for &(i, j) in pairs.iter() {
                    values.swap(i as usize, j as usize);
                }
            }
            None => bit_reverse_permute(values),
        }
    }

    /// One transform, natural order in and out, canonical output (the
    /// inverse includes the `1/n` scale).
    pub(crate) fn transform(&self, values: &mut [F], inverse: bool) {
        self.run_stages(values, if inverse { &self.inv } else { &self.fwd });
        self.apply_bitrev(values);
        if inverse {
            for v in values.iter_mut() {
                *v = F::reduce_lane(F::shoup_mul(*v, &self.n_inv));
            }
        }
    }
}

/// Reinterprets `&mut [F]` as the concrete field type `C`. Caller must
/// have established `TypeId::of::<F>() == TypeId::of::<C>()`.
fn cast_slice_mut<F: 'static, C: 'static>(values: &mut [F]) -> &mut [C] {
    debug_assert_eq!(TypeId::of::<F>(), TypeId::of::<C>());
    // SAFETY: F and C are the same type (checked above / by the caller's
    // kernel selection), so layout and validity are identical.
    unsafe { &mut *(values as *mut [F] as *mut [C]) }
}

/// Monomorphizes the portable kernel on the field's preferred lane
/// count. `F::LANES` cannot parameterize a const generic directly, so
/// the supported widths are enumerated here.
fn portable_stages_dispatch<F: TwoAdicField>(
    values: &mut [F],
    stages: &[Vec<ShoupTwiddle<F>>],
    log_n: u32,
) {
    match F::LANES {
        8 => portable_stages::<F, 8>(values, stages, log_n),
        4 => portable_stages::<F, 4>(values, stages, log_n),
        _ => portable_stages::<F, 1>(values, stages, log_n),
    }
}

/// Portable all-stages DIF kernel: greedy radix-8 fusion, then a radix-4
/// or radix-2 remainder, then the canonicalizing final stage. Lanes stay
/// lazy (`[0, 2p)`) between stages — each fused group performs the
/// butterflies of a stage-at-a-time DIF in the identical order, just with
/// one memory pass instead of two or three.
fn portable_stages<F: TwoAdicField, const L: usize>(
    values: &mut [F],
    stages: &[Vec<ShoupTwiddle<F>>],
    log_n: u32,
) {
    if log_n == 0 {
        return;
    }
    let mut s = log_n;
    // Fuse three layers while at least one non-final stage remains below.
    while s >= 4 {
        radix8_fused::<F, L>(values, s, stages);
        s -= 3;
    }
    if s == 3 {
        radix4_fused::<F, L>(values, 3, stages);
        s = 1;
    }
    if s == 2 {
        radix2_single::<F, L>(values, 2, stages);
    }
    // Final stage (s = 1): unit twiddle, canonicalizing stores.
    let t1 = &stages[0][0];
    for block in values.chunks_exact_mut(2) {
        let (a, b) = F::dif_butterfly(block[0], block[1], t1);
        block[0] = F::reduce_lane(a);
        block[1] = F::reduce_lane(b);
    }
}

#[inline(always)]
fn load_lanes<F: Copy, const L: usize>(src: &[F], j: usize) -> [F; L] {
    src[j..j + L].try_into().expect("lane window in bounds")
}

/// Three fused DIF layers (`s`, `s−1`, `s−2`): 8 strided streams, 12
/// butterflies per cell, 7 twiddle loads against 12 for the unfused
/// form, one memory pass against three.
fn radix8_fused<F: TwoAdicField, const L: usize>(
    values: &mut [F],
    s: u32,
    stages: &[Vec<ShoupTwiddle<F>>],
) {
    let m = 1usize << s;
    let q = m / 8;
    let t_s = &stages[(s - 1) as usize];
    let t_s1 = &stages[(s - 2) as usize];
    let t_s2 = &stages[(s - 3) as usize];
    for block in values.chunks_exact_mut(m) {
        let (x0, r) = block.split_at_mut(q);
        let (x1, r) = r.split_at_mut(q);
        let (x2, r) = r.split_at_mut(q);
        let (x3, r) = r.split_at_mut(q);
        let (x4, r) = r.split_at_mut(q);
        let (x5, r) = r.split_at_mut(q);
        let (x6, x7) = r.split_at_mut(q);
        let mut j = 0;
        while j + L <= q {
            let mut a0 = load_lanes::<F, L>(x0, j);
            let mut a1 = load_lanes::<F, L>(x1, j);
            let mut a2 = load_lanes::<F, L>(x2, j);
            let mut a3 = load_lanes::<F, L>(x3, j);
            let mut a4 = load_lanes::<F, L>(x4, j);
            let mut a5 = load_lanes::<F, L>(x5, j);
            let mut a6 = load_lanes::<F, L>(x6, j);
            let mut a7 = load_lanes::<F, L>(x7, j);
            F::dif_butterfly_lanes(&mut a0, &mut a4, &t_s[j..]);
            F::dif_butterfly_lanes(&mut a1, &mut a5, &t_s[j + q..]);
            F::dif_butterfly_lanes(&mut a2, &mut a6, &t_s[j + 2 * q..]);
            F::dif_butterfly_lanes(&mut a3, &mut a7, &t_s[j + 3 * q..]);
            F::dif_butterfly_lanes(&mut a0, &mut a2, &t_s1[j..]);
            F::dif_butterfly_lanes(&mut a1, &mut a3, &t_s1[j + q..]);
            F::dif_butterfly_lanes(&mut a4, &mut a6, &t_s1[j..]);
            F::dif_butterfly_lanes(&mut a5, &mut a7, &t_s1[j + q..]);
            F::dif_butterfly_lanes(&mut a0, &mut a1, &t_s2[j..]);
            F::dif_butterfly_lanes(&mut a2, &mut a3, &t_s2[j..]);
            F::dif_butterfly_lanes(&mut a4, &mut a5, &t_s2[j..]);
            F::dif_butterfly_lanes(&mut a6, &mut a7, &t_s2[j..]);
            x0[j..j + L].copy_from_slice(&a0);
            x1[j..j + L].copy_from_slice(&a1);
            x2[j..j + L].copy_from_slice(&a2);
            x3[j..j + L].copy_from_slice(&a3);
            x4[j..j + L].copy_from_slice(&a4);
            x5[j..j + L].copy_from_slice(&a5);
            x6[j..j + L].copy_from_slice(&a6);
            x7[j..j + L].copy_from_slice(&a7);
            j += L;
        }
        while j < q {
            let bf = |u: &mut F, v: &mut F, t: &ShoupTwiddle<F>| {
                let (a, b) = F::dif_butterfly(*u, *v, t);
                *u = a;
                *v = b;
            };
            bf(&mut x0[j], &mut x4[j], &t_s[j]);
            bf(&mut x1[j], &mut x5[j], &t_s[j + q]);
            bf(&mut x2[j], &mut x6[j], &t_s[j + 2 * q]);
            bf(&mut x3[j], &mut x7[j], &t_s[j + 3 * q]);
            bf(&mut x0[j], &mut x2[j], &t_s1[j]);
            bf(&mut x1[j], &mut x3[j], &t_s1[j + q]);
            bf(&mut x4[j], &mut x6[j], &t_s1[j]);
            bf(&mut x5[j], &mut x7[j], &t_s1[j + q]);
            bf(&mut x0[j], &mut x1[j], &t_s2[j]);
            bf(&mut x2[j], &mut x3[j], &t_s2[j]);
            bf(&mut x4[j], &mut x5[j], &t_s2[j]);
            bf(&mut x6[j], &mut x7[j], &t_s2[j]);
            j += 1;
        }
    }
}

/// Two fused DIF layers (`s`, `s−1`): 4 streams, 4 butterflies per cell,
/// 3 twiddle loads against 4 unfused.
fn radix4_fused<F: TwoAdicField, const L: usize>(
    values: &mut [F],
    s: u32,
    stages: &[Vec<ShoupTwiddle<F>>],
) {
    let m = 1usize << s;
    let q = m / 4;
    let t_s = &stages[(s - 1) as usize];
    let t_s1 = &stages[(s - 2) as usize];
    for block in values.chunks_exact_mut(m) {
        let (x0, r) = block.split_at_mut(q);
        let (x1, r) = r.split_at_mut(q);
        let (x2, x3) = r.split_at_mut(q);
        let mut j = 0;
        while j + L <= q {
            let mut a0 = load_lanes::<F, L>(x0, j);
            let mut a1 = load_lanes::<F, L>(x1, j);
            let mut a2 = load_lanes::<F, L>(x2, j);
            let mut a3 = load_lanes::<F, L>(x3, j);
            F::dif_butterfly_lanes(&mut a0, &mut a2, &t_s[j..]);
            F::dif_butterfly_lanes(&mut a1, &mut a3, &t_s[j + q..]);
            F::dif_butterfly_lanes(&mut a0, &mut a1, &t_s1[j..]);
            F::dif_butterfly_lanes(&mut a2, &mut a3, &t_s1[j..]);
            x0[j..j + L].copy_from_slice(&a0);
            x1[j..j + L].copy_from_slice(&a1);
            x2[j..j + L].copy_from_slice(&a2);
            x3[j..j + L].copy_from_slice(&a3);
            j += L;
        }
        while j < q {
            let bf = |u: &mut F, v: &mut F, t: &ShoupTwiddle<F>| {
                let (a, b) = F::dif_butterfly(*u, *v, t);
                *u = a;
                *v = b;
            };
            bf(&mut x0[j], &mut x2[j], &t_s[j]);
            bf(&mut x1[j], &mut x3[j], &t_s[j + q]);
            bf(&mut x0[j], &mut x1[j], &t_s1[j]);
            bf(&mut x2[j], &mut x3[j], &t_s1[j]);
            j += 1;
        }
    }
}

/// One lane-packed DIF layer (odd remainders of the fusion schedule).
fn radix2_single<F: TwoAdicField, const L: usize>(
    values: &mut [F],
    s: u32,
    stages: &[Vec<ShoupTwiddle<F>>],
) {
    let m = 1usize << s;
    let half = m / 2;
    let tw = &stages[(s - 1) as usize][..half];
    for block in values.chunks_exact_mut(m) {
        let (lo, hi) = block.split_at_mut(half);
        let mut j = 0;
        while j + L <= half {
            let mut u = load_lanes::<F, L>(lo, j);
            let mut v = load_lanes::<F, L>(hi, j);
            F::dif_butterfly_lanes(&mut u, &mut v, &tw[j..]);
            lo[j..j + L].copy_from_slice(&u);
            hi[j..j + L].copy_from_slice(&v);
            j += L;
        }
        while j < half {
            let (a, b) = F::dif_butterfly(lo[j], hi[j], &tw[j]);
            lo[j] = a;
            hi[j] = b;
            j += 1;
        }
    }
}

/// Explicit AVX2 kernels. Stage drivers carry
/// `#[target_feature(enable = "avx2")]`; the `unintt_ff::packed::avx2`
/// primitives are `#[inline(always)]` and specialize when inlined here.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use unintt_ff::packed::avx2::{bb_add, bb_shoup_mul, bb_sub, gl_add, gl_mul, gl_sub};
    use unintt_ff::packed::avx512 as w8;

    /// All Goldilocks DIF stages, canonical in/out. Schedule: an odd
    /// parity-fixing radix-2 pass, fused radix-4 pairs down to stage 3,
    /// then both sub-vector stages (`m = 4, 2`) in one register-resident
    /// shuffle pass.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `words.len() == 1 << log_n`, `log_n ≥ 3`, `bank`
    /// holding the per-stage plain twiddle words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gl_stages(words: &mut [u64], bank: &[Vec<u64>], log_n: u32) {
        debug_assert!(log_n >= 3);
        debug_assert_eq!(words.len(), 1usize << log_n);
        let mut s = log_n;
        if (log_n - 2) % 2 == 1 {
            gl_radix2(words, s, &bank[(s - 1) as usize]);
            s -= 1;
        }
        while s >= 4 {
            gl_radix4(words, s, &bank[(s - 1) as usize], &bank[(s - 2) as usize]);
            s -= 2;
        }
        debug_assert_eq!(s, 2);
        gl_tail(words, &bank[1]);
    }

    /// All Goldilocks DIF stages at AVX-512 width, canonical in/out.
    /// Schedule: fused radix-8 triples while the narrowest of the three
    /// strided streams still fills a 512-bit vector (`s ≥ 6`), then a
    /// radix-4 / radix-2 remainder, then the `m = 4, 2` shuffle tail on
    /// the existing AVX2 kernels — their column counts are below the
    /// 512-bit load width, and every lane is canonical at each stage
    /// boundary, so the hand-off is free.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F, AVX-512DQ, and AVX2; `words.len() == 1 <<
    /// log_n`, `log_n ≥ 3`, `bank` holding the per-stage plain twiddle
    /// words.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub(super) unsafe fn gl_stages_avx512(words: &mut [u64], bank: &[Vec<u64>], log_n: u32) {
        debug_assert!(log_n >= 3);
        debug_assert_eq!(words.len(), 1usize << log_n);
        let mut s = log_n;
        while s >= 6 {
            gl_radix8_512(
                words,
                s,
                &bank[(s - 1) as usize],
                &bank[(s - 2) as usize],
                &bank[(s - 3) as usize],
            );
            s -= 3;
        }
        if s == 5 {
            gl_radix4_512(words, 5, &bank[4], &bank[3]);
            s = 3;
        }
        if s == 4 {
            gl_radix4(words, 4, &bank[3], &bank[2]);
            s = 2;
        }
        if s == 3 {
            gl_radix2(words, 3, &bank[2]);
            s = 2;
        }
        debug_assert_eq!(s, 2);
        gl_tail(words, &bank[1]);
    }

    /// Three fused DIF layers (stages `s`, `s−1`, `s−2`) at 8-lane
    /// width: 8 strided streams, 12 butterflies and 7 twiddle loads per
    /// cell, one memory pass instead of three. Same pairings and twiddle
    /// indexing as the portable `radix8_fused`. Needs `q = m/8 ≥ 8`,
    /// i.e. `s ≥ 6`.
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn gl_radix8_512(words: &mut [u64], s: u32, tw_s: &[u64], tw_s1: &[u64], tw_s2: &[u64]) {
        let m = 1usize << s;
        let q = m / 8;
        debug_assert!(q >= 8 && tw_s.len() >= 4 * q && tw_s1.len() >= 2 * q && tw_s2.len() >= q);
        let tws = tw_s.as_ptr();
        let tws1 = tw_s1.as_ptr();
        let tws2 = tw_s2.as_ptr();
        for block in words.chunks_exact_mut(m) {
            let p = block.as_mut_ptr();
            let mut j = 0usize;
            while j < q {
                let px: [*mut u64; 8] = [
                    p.add(j),
                    p.add(j + q),
                    p.add(j + 2 * q),
                    p.add(j + 3 * q),
                    p.add(j + 4 * q),
                    p.add(j + 5 * q),
                    p.add(j + 6 * q),
                    p.add(j + 7 * q),
                ];
                let mut a0 = _mm512_loadu_si512(px[0].cast());
                let mut a1 = _mm512_loadu_si512(px[1].cast());
                let mut a2 = _mm512_loadu_si512(px[2].cast());
                let mut a3 = _mm512_loadu_si512(px[3].cast());
                let mut a4 = _mm512_loadu_si512(px[4].cast());
                let mut a5 = _mm512_loadu_si512(px[5].cast());
                let mut a6 = _mm512_loadu_si512(px[6].cast());
                let mut a7 = _mm512_loadu_si512(px[7].cast());
                // Stage s: halves at stride 4q.
                let w0 = _mm512_loadu_si512(tws.add(j).cast());
                let w1 = _mm512_loadu_si512(tws.add(j + q).cast());
                let w2 = _mm512_loadu_si512(tws.add(j + 2 * q).cast());
                let w3 = _mm512_loadu_si512(tws.add(j + 3 * q).cast());
                let t = w8::gl_sub(a0, a4);
                a0 = w8::gl_add(a0, a4);
                a4 = w8::gl_mul(t, w0);
                let t = w8::gl_sub(a1, a5);
                a1 = w8::gl_add(a1, a5);
                a5 = w8::gl_mul(t, w1);
                let t = w8::gl_sub(a2, a6);
                a2 = w8::gl_add(a2, a6);
                a6 = w8::gl_mul(t, w2);
                let t = w8::gl_sub(a3, a7);
                a3 = w8::gl_add(a3, a7);
                a7 = w8::gl_mul(t, w3);
                // Stage s−1: halves at stride 2q inside each half-block.
                let u0 = _mm512_loadu_si512(tws1.add(j).cast());
                let u1 = _mm512_loadu_si512(tws1.add(j + q).cast());
                let t = w8::gl_sub(a0, a2);
                a0 = w8::gl_add(a0, a2);
                a2 = w8::gl_mul(t, u0);
                let t = w8::gl_sub(a1, a3);
                a1 = w8::gl_add(a1, a3);
                a3 = w8::gl_mul(t, u1);
                let t = w8::gl_sub(a4, a6);
                a4 = w8::gl_add(a4, a6);
                a6 = w8::gl_mul(t, u0);
                let t = w8::gl_sub(a5, a7);
                a5 = w8::gl_add(a5, a7);
                a7 = w8::gl_mul(t, u1);
                // Stage s−2: adjacent streams.
                let v0 = _mm512_loadu_si512(tws2.add(j).cast());
                let t = w8::gl_sub(a0, a1);
                a0 = w8::gl_add(a0, a1);
                a1 = w8::gl_mul(t, v0);
                let t = w8::gl_sub(a2, a3);
                a2 = w8::gl_add(a2, a3);
                a3 = w8::gl_mul(t, v0);
                let t = w8::gl_sub(a4, a5);
                a4 = w8::gl_add(a4, a5);
                a5 = w8::gl_mul(t, v0);
                let t = w8::gl_sub(a6, a7);
                a6 = w8::gl_add(a6, a7);
                a7 = w8::gl_mul(t, v0);
                _mm512_storeu_si512(px[0].cast(), a0);
                _mm512_storeu_si512(px[1].cast(), a1);
                _mm512_storeu_si512(px[2].cast(), a2);
                _mm512_storeu_si512(px[3].cast(), a3);
                _mm512_storeu_si512(px[4].cast(), a4);
                _mm512_storeu_si512(px[5].cast(), a5);
                _mm512_storeu_si512(px[6].cast(), a6);
                _mm512_storeu_si512(px[7].cast(), a7);
                j += 8;
            }
        }
    }

    /// Fused radix-4 pair (stages `s`, `s−1`), 8-lane vectors, `q ≥ 16`.
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn gl_radix4_512(words: &mut [u64], s: u32, tw_s: &[u64], tw_s1: &[u64]) {
        let m = 1usize << s;
        let q = m / 4;
        debug_assert!(q >= 8 && tw_s.len() >= 2 * q && tw_s1.len() >= q);
        let tws = tw_s.as_ptr();
        let tws1 = tw_s1.as_ptr();
        for block in words.chunks_exact_mut(m) {
            let p = block.as_mut_ptr();
            let mut j = 0usize;
            while j < q {
                let pa = p.add(j);
                let pb = p.add(j + q);
                let pc = p.add(j + 2 * q);
                let pd = p.add(j + 3 * q);
                let a = _mm512_loadu_si512(pa.cast());
                let b = _mm512_loadu_si512(pb.cast());
                let c = _mm512_loadu_si512(pc.cast());
                let d = _mm512_loadu_si512(pd.cast());
                let w1 = _mm512_loadu_si512(tws.add(j).cast());
                let w2 = _mm512_loadu_si512(tws.add(j + q).cast());
                let w3 = _mm512_loadu_si512(tws1.add(j).cast());
                let t0 = w8::gl_add(a, c);
                let t1 = w8::gl_mul(w8::gl_sub(a, c), w1);
                let t2 = w8::gl_add(b, d);
                let t3 = w8::gl_mul(w8::gl_sub(b, d), w2);
                _mm512_storeu_si512(pa.cast(), w8::gl_add(t0, t2));
                _mm512_storeu_si512(pb.cast(), w8::gl_mul(w8::gl_sub(t0, t2), w3));
                _mm512_storeu_si512(pc.cast(), w8::gl_add(t1, t3));
                _mm512_storeu_si512(pd.cast(), w8::gl_mul(w8::gl_sub(t1, t3), w3));
                j += 8;
            }
        }
    }

    /// Fused radix-4 pair (stages `s`, `s−1`), 4-lane vectors, `q ≥ 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn gl_radix4(words: &mut [u64], s: u32, tw_s: &[u64], tw_s1: &[u64]) {
        let m = 1usize << s;
        let q = m / 4;
        debug_assert!(q >= 4 && tw_s.len() >= 2 * q && tw_s1.len() >= q);
        let tws = tw_s.as_ptr();
        let tws1 = tw_s1.as_ptr();
        for block in words.chunks_exact_mut(m) {
            let p = block.as_mut_ptr();
            let mut j = 0usize;
            while j < q {
                let pa = p.add(j);
                let pb = p.add(j + q);
                let pc = p.add(j + 2 * q);
                let pd = p.add(j + 3 * q);
                let a = _mm256_loadu_si256(pa.cast());
                let b = _mm256_loadu_si256(pb.cast());
                let c = _mm256_loadu_si256(pc.cast());
                let d = _mm256_loadu_si256(pd.cast());
                let w1 = _mm256_loadu_si256(tws.add(j).cast());
                let w2 = _mm256_loadu_si256(tws.add(j + q).cast());
                let w3 = _mm256_loadu_si256(tws1.add(j).cast());
                let t0 = gl_add(a, c);
                let t1 = gl_mul(gl_sub(a, c), w1);
                let t2 = gl_add(b, d);
                let t3 = gl_mul(gl_sub(b, d), w2);
                _mm256_storeu_si256(pa.cast(), gl_add(t0, t2));
                _mm256_storeu_si256(pb.cast(), gl_mul(gl_sub(t0, t2), w3));
                _mm256_storeu_si256(pc.cast(), gl_add(t1, t3));
                _mm256_storeu_si256(pd.cast(), gl_mul(gl_sub(t1, t3), w3));
                j += 4;
            }
        }
    }

    /// Single vector radix-2 stage, `half ≥ 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn gl_radix2(words: &mut [u64], s: u32, tw: &[u64]) {
        let m = 1usize << s;
        let half = m / 2;
        debug_assert!(half >= 4 && tw.len() >= half);
        let twp = tw.as_ptr();
        for block in words.chunks_exact_mut(m) {
            let p = block.as_mut_ptr();
            let mut j = 0usize;
            while j < half {
                let pu = p.add(j);
                let pv = p.add(j + half);
                let u = _mm256_loadu_si256(pu.cast());
                let v = _mm256_loadu_si256(pv.cast());
                let w = _mm256_loadu_si256(twp.add(j).cast());
                _mm256_storeu_si256(pu.cast(), gl_add(u, v));
                _mm256_storeu_si256(pv.cast(), gl_mul(gl_sub(u, v), w));
                j += 4;
            }
        }
    }

    /// Stages `m = 4` and `m = 2` fused over two-vector groups: block
    /// pairs are regrouped with cross-lane shuffles so both butterflies
    /// run at full width. The `m = 2` twiddle is `ω⁰ = 1`, so its
    /// product is elided (canonical lanes make the elision exact).
    #[target_feature(enable = "avx2")]
    unsafe fn gl_tail(words: &mut [u64], tw_m4: &[u64]) {
        debug_assert!(words.len() >= 8 && tw_m4.len() >= 2);
        let w = _mm256_setr_epi64x(
            tw_m4[0] as i64,
            tw_m4[1] as i64,
            tw_m4[0] as i64,
            tw_m4[1] as i64,
        );
        for chunk in words.chunks_exact_mut(8) {
            let p = chunk.as_mut_ptr();
            let a = _mm256_loadu_si256(p.cast());
            let b = _mm256_loadu_si256(p.add(4).cast());
            // m = 4: halves of two blocks regrouped per 128-bit lane.
            let u = _mm256_permute2x128_si256::<0x20>(a, b);
            let v = _mm256_permute2x128_si256::<0x31>(a, b);
            let s2 = gl_add(u, v);
            let d2 = gl_mul(gl_sub(u, v), w);
            let a = _mm256_permute2x128_si256::<0x20>(s2, d2);
            let b = _mm256_permute2x128_si256::<0x31>(s2, d2);
            // m = 2: adjacent pairs via 64-bit unpack (pair order within
            // the registers is permuted; the stores restore it).
            let u = _mm256_unpacklo_epi64(a, b);
            let v = _mm256_unpackhi_epi64(a, b);
            let s1 = gl_add(u, v);
            let d1 = gl_sub(u, v);
            _mm256_storeu_si256(p.cast(), _mm256_unpacklo_epi64(s1, d1));
            _mm256_storeu_si256(p.add(4).cast(), _mm256_unpackhi_epi64(s1, d1));
        }
    }

    /// All BabyBear DIF stages, canonical in/out. Schedule mirrors
    /// [`gl_stages`] with 8-lane vectors: parity radix-2, fused radix-4
    /// pairs down to stage 5, a full-width radix-2 at stage 4, then the
    /// three sub-vector stages (`m = 8, 4, 2`) in one shuffle pass.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `words.len() == 1 << log_n`, `log_n ≥ 4`, banks
    /// holding per-stage plain/quotient twiddle words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bb_stages(
        words: &mut [u32],
        plain: &[Vec<u32>],
        quot: &[Vec<u32>],
        log_n: u32,
    ) {
        debug_assert!(log_n >= 4);
        debug_assert_eq!(words.len(), 1usize << log_n);
        let mut s = log_n;
        if (log_n - 4) % 2 == 1 {
            bb_radix2(words, s, &plain[(s - 1) as usize], &quot[(s - 1) as usize]);
            s -= 1;
        }
        while s >= 6 {
            bb_radix4(
                words,
                s,
                &plain[(s - 1) as usize],
                &quot[(s - 1) as usize],
                &plain[(s - 2) as usize],
                &quot[(s - 2) as usize],
            );
            s -= 2;
        }
        debug_assert_eq!(s, 4);
        bb_radix2(words, 4, &plain[3], &quot[3]);
        bb_tail(words, &plain[2], &quot[2], &plain[1], &quot[1]);
    }

    /// Fused radix-4 pair (stages `s`, `s−1`), 8-lane vectors, `q ≥ 16`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn bb_radix4(
        words: &mut [u32],
        s: u32,
        pl_s: &[u32],
        qt_s: &[u32],
        pl_s1: &[u32],
        qt_s1: &[u32],
    ) {
        let m = 1usize << s;
        let q = m / 4;
        debug_assert!(q >= 8 && pl_s.len() >= 2 * q && pl_s1.len() >= q);
        for block in words.chunks_exact_mut(m) {
            let p = block.as_mut_ptr();
            let mut j = 0usize;
            while j < q {
                let pa = p.add(j);
                let pb = p.add(j + q);
                let pc = p.add(j + 2 * q);
                let pd = p.add(j + 3 * q);
                let a = _mm256_loadu_si256(pa.cast());
                let b = _mm256_loadu_si256(pb.cast());
                let c = _mm256_loadu_si256(pc.cast());
                let d = _mm256_loadu_si256(pd.cast());
                let w1p = _mm256_loadu_si256(pl_s.as_ptr().add(j).cast());
                let w1q = _mm256_loadu_si256(qt_s.as_ptr().add(j).cast());
                let w2p = _mm256_loadu_si256(pl_s.as_ptr().add(j + q).cast());
                let w2q = _mm256_loadu_si256(qt_s.as_ptr().add(j + q).cast());
                let w3p = _mm256_loadu_si256(pl_s1.as_ptr().add(j).cast());
                let w3q = _mm256_loadu_si256(qt_s1.as_ptr().add(j).cast());
                let t0 = bb_add(a, c);
                let t1 = bb_shoup_mul(bb_sub(a, c), w1p, w1q);
                let t2 = bb_add(b, d);
                let t3 = bb_shoup_mul(bb_sub(b, d), w2p, w2q);
                _mm256_storeu_si256(pa.cast(), bb_add(t0, t2));
                _mm256_storeu_si256(pb.cast(), bb_shoup_mul(bb_sub(t0, t2), w3p, w3q));
                _mm256_storeu_si256(pc.cast(), bb_add(t1, t3));
                _mm256_storeu_si256(pd.cast(), bb_shoup_mul(bb_sub(t1, t3), w3p, w3q));
                j += 8;
            }
        }
    }

    /// Single vector radix-2 stage, `half ≥ 8`.
    #[target_feature(enable = "avx2")]
    unsafe fn bb_radix2(words: &mut [u32], s: u32, pl: &[u32], qt: &[u32]) {
        let m = 1usize << s;
        let half = m / 2;
        debug_assert!(half >= 8 && pl.len() >= half && qt.len() >= half);
        for block in words.chunks_exact_mut(m) {
            let p = block.as_mut_ptr();
            let mut j = 0usize;
            while j < half {
                let pu = p.add(j);
                let pv = p.add(j + half);
                let u = _mm256_loadu_si256(pu.cast());
                let v = _mm256_loadu_si256(pv.cast());
                let wp = _mm256_loadu_si256(pl.as_ptr().add(j).cast());
                let wq = _mm256_loadu_si256(qt.as_ptr().add(j).cast());
                _mm256_storeu_si256(pu.cast(), bb_add(u, v));
                _mm256_storeu_si256(pv.cast(), bb_shoup_mul(bb_sub(u, v), wp, wq));
                j += 8;
            }
        }
    }

    /// Stages `m = 8, 4, 2` fused over two-vector (16-element) groups
    /// with cross-lane shuffles; the final stage's unit twiddle product
    /// is elided (lanes are canonical throughout).
    #[target_feature(enable = "avx2")]
    unsafe fn bb_tail(
        words: &mut [u32],
        pl_m8: &[u32],
        qt_m8: &[u32],
        pl_m4: &[u32],
        qt_m4: &[u32],
    ) {
        debug_assert!(words.len() >= 16 && pl_m8.len() >= 4 && pl_m4.len() >= 2);
        let w8p = _mm256_broadcastsi128_si256(_mm_loadu_si128(pl_m8.as_ptr().cast()));
        let w8q = _mm256_broadcastsi128_si256(_mm_loadu_si128(qt_m8.as_ptr().cast()));
        let pack2 = |lo: u32, hi: u32| -> i64 { ((u64::from(hi) << 32) | u64::from(lo)) as i64 };
        let w4p = _mm256_set1_epi64x(pack2(pl_m4[0], pl_m4[1]));
        let w4q = _mm256_set1_epi64x(pack2(qt_m4[0], qt_m4[1]));
        for chunk in words.chunks_exact_mut(16) {
            let p = chunk.as_mut_ptr();
            let a = _mm256_loadu_si256(p.cast());
            let b = _mm256_loadu_si256(p.add(8).cast());
            // m = 8: vector halves regrouped per 128-bit lane.
            let u = _mm256_permute2x128_si256::<0x20>(a, b);
            let v = _mm256_permute2x128_si256::<0x31>(a, b);
            let s3 = bb_add(u, v);
            let d3 = bb_shoup_mul(bb_sub(u, v), w8p, w8q);
            let a = _mm256_permute2x128_si256::<0x20>(s3, d3);
            let b = _mm256_permute2x128_si256::<0x31>(s3, d3);
            // m = 4: 64-bit unpack pairs the (j, j+2) elements.
            let u = _mm256_unpacklo_epi64(a, b);
            let v = _mm256_unpackhi_epi64(a, b);
            let s2 = bb_add(u, v);
            let d2 = bb_shoup_mul(bb_sub(u, v), w4p, w4q);
            let a = _mm256_unpacklo_epi64(s2, d2);
            let b = _mm256_unpackhi_epi64(s2, d2);
            // m = 2: swap the middle 32-bit lanes of each quad so the
            // 64-bit unpack pairs adjacent elements; undo after.
            let ta = _mm256_shuffle_epi32::<0b1101_1000>(a);
            let tb = _mm256_shuffle_epi32::<0b1101_1000>(b);
            let u = _mm256_unpacklo_epi64(ta, tb);
            let v = _mm256_unpackhi_epi64(ta, tb);
            let s1 = bb_add(u, v);
            let d1 = bb_sub(u, v);
            let oa = _mm256_unpacklo_epi64(s1, d1);
            let ob = _mm256_unpackhi_epi64(s1, d1);
            _mm256_storeu_si256(p.cast(), _mm256_shuffle_epi32::<0b1101_1000>(oa));
            _mm256_storeu_si256(p.add(8).cast(), _mm256_shuffle_epi32::<0b1101_1000>(ob));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ntt;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Bn254Fr, Field};

    fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
    }

    /// The radix-2 oracle: bit-reversal, then the DIT kernel.
    fn legacy_forward<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
        bit_reverse_permute(values);
        ntt.dit_in_place(values);
    }

    fn vector_matches_legacy<F: TwoAdicField>(max_log: u32, seed: u64) {
        for log_n in 0..=max_log {
            let ntt = Ntt::<F>::new(log_n);
            let input = random_vec::<F>(log_n, seed + u64::from(log_n));

            let mut expect = input.clone();
            legacy_forward(&ntt, &mut expect);
            let mut got = input.clone();
            ntt.forward(&mut got);
            assert_eq!(got, expect, "forward log_n={log_n}");

            let mut round = got;
            ntt.inverse(&mut round);
            assert_eq!(round, input, "roundtrip log_n={log_n}");
        }
    }

    #[test]
    fn vector_matches_legacy_goldilocks() {
        vector_matches_legacy::<Goldilocks>(13, 1000);
    }

    #[test]
    fn vector_matches_legacy_babybear() {
        vector_matches_legacy::<BabyBear>(13, 2000);
    }

    #[test]
    fn vector_matches_legacy_bn254_fallback() {
        vector_matches_legacy::<Bn254Fr>(9, 3000);
    }

    /// Either side of the direct / six-step threshold, against the radix-2
    /// oracle in both directions.
    #[test]
    fn vector_six_step_matches_fast_path() {
        for log_n in [VECTOR_DIRECT_MAX_LOG_N, VECTOR_DIRECT_MAX_LOG_N + 1] {
            let ntt = Ntt::<Goldilocks>::new(log_n);
            let input = random_vec::<Goldilocks>(log_n, 50 + u64::from(log_n));

            let mut expect = input.clone();
            legacy_forward(&ntt, &mut expect);
            let mut got = input.clone();
            ntt.forward(&mut got);
            assert!(got == expect, "forward log_n={log_n}");

            let mut expect_inv = input.clone();
            bit_reverse_permute(&mut expect_inv);
            ntt.inverse_dit_in_place(&mut expect_inv);
            ntt.scale_by_n_inv(&mut expect_inv);
            let mut got_inv = input.clone();
            ntt.inverse(&mut got_inv);
            assert!(got_inv == expect_inv, "inverse log_n={log_n}");

            ntt.inverse(&mut got);
            assert!(got == input, "roundtrip log_n={log_n}");
        }
    }

    #[test]
    fn portable_backend_matches_native() {
        for log_n in [1u32, 3, 5, 8, 11] {
            let table = cache::shared_table::<Goldilocks>(log_n);
            let plan = VectorPlan::<Goldilocks>::new(&table);
            let input = random_vec::<Goldilocks>(log_n, 600 + u64::from(log_n));

            set_vector_backend_override(Some(VectorBackend::Portable));
            let mut portable = input.clone();
            plan.transform(&mut portable, false);
            set_vector_backend_override(None);

            let mut auto = input.clone();
            plan.transform(&mut auto, false);
            assert_eq!(auto, portable, "log_n={log_n}");
        }
    }

    #[test]
    fn plan_pins_bitrev_pairs() {
        let table = cache::shared_table::<Goldilocks>(10);
        let plan = VectorPlan::<Goldilocks>::new(&table);
        let pinned = plan.bitrev_pairs().expect("cached range");
        assert!(Arc::ptr_eq(pinned, &cache::bitrev_pairs(10)));
    }

    #[test]
    fn backend_report_is_consistent() {
        // Whatever the CPU, the reporting hook and the plan agree.
        let plan = VectorPlan::<Goldilocks>::new(&cache::shared_table::<Goldilocks>(8));
        match active_vector_backend::<Goldilocks>() {
            VectorBackend::Native => assert_ne!(plan.active_native(), NativeKernel::None),
            VectorBackend::Portable => assert_eq!(plan.active_native(), NativeKernel::None),
        }
    }
}
