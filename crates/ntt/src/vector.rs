//! The host NTT kernels: every [`crate::Ntt`] transform up to
//! [`VECTOR_DIRECT_MAX_LOG_N`] runs one [`VectorPlan`], and every row of a
//! larger transform's six-step decomposition does too.
//!
//! Three ideas compose:
//!
//! * **Lane-packed butterflies** — the transform body works on
//!   `[F; LANES]` register blocks through the const-generic layer on
//!   [`unintt_ff::ShoupField`] (portable), or through explicit AVX2 /
//!   AVX-512 / AVX-512 IFMA (`Bn254Fr`) `std::arch` kernels on x86_64
//!   when the CPU reports the feature at runtime
//!   (`is_x86_feature_detected!`). Both backends
//!   compute exact canonical residues, so they are bit-identical to each
//!   other and to the radix-2 DIT oracle ([`crate::Ntt::dit_in_place`]).
//! * **Radix-4/8 stage fusion** — two (AVX2) or three (portable,
//!   AVX-512) DIF butterfly layers run per memory pass with intermediates
//!   held in registers, halving-to-thirding pass count and twiddle
//!   traffic relative to a stage-at-a-time loop. The strides below a
//!   vector run in one register-resident shuffle pass per row: AVX-512
//!   Goldilocks keeps its last three to five stages there at full width
//!   and folds the inverse's `1/n` into them, as the `Bn254Fr` IFMA tier
//!   does with its last three (its products, not its memory passes, set
//!   its cost, so it runs the earlier stages one at a time).
//! * **A specialized-plan cache** — [`VectorPlan`] instances are built
//!   once per `(field, log_n)` (covering both directions) and memoized in
//!   [`crate::cache`]; a plan pins its backend choice and pre-extracted
//!   native twiddle banks, so per-transform dispatch is one enum match
//!   with no per-stage branching. The natural-order output comes from
//!   [`crate::bit_reverse_permute`] after the stages, except on the
//!   `Bn254Fr` IFMA tier, whose last pass writes bit-reversed positions.
//!
//! AVX2 kernels fuse radix-4 (radix-8 would need >16 ymm live values and
//! spill); the portable path fuses radix-8 since its "registers" are
//! compiler-scheduled locals. Goldilocks AVX2 multiplies via the full
//! 64×64 product + ε-reduction rather than Shoup (a Shoup product needs
//! seven `vpmuludq`-class ops against four, and its `[0, 2p)` result
//! overflows the 64-bit lane), so its twiddle bank stores only the plain
//! `w` words.

use std::any::TypeId;

#[cfg(target_arch = "x86_64")]
use unintt_ff::Bn254Fr;
use unintt_ff::{BabyBear, Goldilocks, ShoupTwiddle, TwoAdicField};

use crate::bit_reverse_permute;
use crate::twiddle::TwiddleTable;

/// Largest `log_n` the direct (single-buffer) vector kernel handles;
/// larger sizes decompose six-step with vector row transforms. The fused
/// passes are streaming (sequential loads/stores, no strided gathers), so
/// the working set can exceed L2 without the pass count paying for it.
pub const VECTOR_DIRECT_MAX_LOG_N: u32 = 20;

/// Native (explicit-SIMD) kernel selected for a plan at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NativeKernel {
    /// No native kernel: portable lane path.
    None,
    /// 4×u64 AVX2 Goldilocks kernel.
    GoldilocksAvx2,
    /// 8×u64 AVX-512 Goldilocks kernel: every stage at 8 lanes, the last
    /// three to five in one register-resident pass that also applies the
    /// inverse's `1/n`.
    GoldilocksAvx512,
    /// 8×u32 AVX2 BabyBear kernel.
    BabyBearAvx2,
    /// 8-lane AVX-512 IFMA `Bn254Fr` kernel (`ff::packed::ifma::Fr8`):
    /// every stage at 8 lanes on five 52-bit limb rows, the last three in
    /// registers, the inverse's `1/n` and the bit-reversal folded into
    /// the write-back.
    #[cfg(target_arch = "x86_64")]
    Bn254FrIfma,
}

/// The native kernel available for `(F, log_n)` on this CPU. The native
/// kernels need at least two vectors of data for their shuffle tails
/// (`log_n ≥ 3` Goldilocks AVX2, `≥ 4` Goldilocks AVX-512 and BabyBear);
/// smaller sizes take the next tier down, and the portable path handles
/// every size. Goldilocks upgrades to the 8-lane AVX-512 stage driver
/// where `avx512f`+`avx512dq` are present (the twiddle bank layout is
/// shared with the AVX2 kernel, so the upgrade is pure dispatch).
/// `Bn254Fr` has one tier, IFMA lanes, where `avx512f`+`avx512ifma` are
/// present and `log_n ≥ 4`.
fn native_kernel<F: TwoAdicField>(log_n: u32) -> NativeKernel {
    #[cfg(target_arch = "x86_64")]
    {
        if TypeId::of::<F>() == TypeId::of::<Bn254Fr>()
            && log_n >= 4
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
        {
            return NativeKernel::Bn254FrIfma;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            if TypeId::of::<F>() == TypeId::of::<Goldilocks>() && log_n >= 3 {
                if log_n >= 4
                    && std::arch::is_x86_feature_detected!("avx512f")
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
/// (reporting hook for benches and docs): `"avx512"`, `"avx512ifma"`,
/// `"avx2"`, or `"portable"`.
pub fn active_backend_label<F: TwoAdicField>() -> &'static str {
    native_kernel::<F>(VECTOR_DIRECT_MAX_LOG_N).label()
}

impl NativeKernel {
    fn label(self) -> &'static str {
        match self {
            NativeKernel::GoldilocksAvx512 => "avx512",
            NativeKernel::GoldilocksAvx2 | NativeKernel::BabyBearAvx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            NativeKernel::Bn254FrIfma => "avx512ifma",
            NativeKernel::None => "portable",
        }
    }
}

/// One direction's twiddles, in the one layout the plan's tier reads:
/// the generic per-stage tables for the portable lanes, or their
/// re-layout for a native kernel's load width.
#[derive(Debug)]
enum Bank<F> {
    /// Portable lanes: `stages[s-1][j]`, see [`pack_stages`].
    Portable(Vec<Vec<ShoupTwiddle<F>>>),
    /// Goldilocks AVX2: plain `w` words per stage (`bank[s-1][j]`).
    U64(Vec<Vec<u64>>),
    /// BabyBear AVX2: split plain/quotient `u32` arrays per stage, so
    /// eight-lane loads need no deinterleaving shuffle.
    U32Pair {
        plain: Vec<Vec<u32>>,
        quot: Vec<Vec<u32>>,
    },
    /// `Bn254Fr` IFMA: per stage, the twiddles in lane form (`w·2^260 mod
    /// p`) as five limb rows of `max(half, 8)` words (`bank[s-1][k·width +
    /// j]`); a stage with fewer than eight twiddles repeats them across
    /// the row, the lane pattern the register-resident stages read.
    Limbs(Vec<Vec<u64>>),
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

fn build_bank<F: TwoAdicField>(stages: Vec<Vec<ShoupTwiddle<F>>>, native: NativeKernel) -> Bank<F> {
    match native {
        NativeKernel::None => Bank::Portable(stages),
        NativeKernel::GoldilocksAvx2 | NativeKernel::GoldilocksAvx512 => Bank::U64(
            stages
                .iter()
                .map(|st| st.iter().map(|t| t.w.to_canonical_u64()).collect())
                .collect(),
        ),
        #[cfg(target_arch = "x86_64")]
        NativeKernel::Bn254FrIfma => Bank::Limbs(
            stages
                .iter()
                .map(|st| {
                    use unintt_ff::packed::ifma::{Fr8, LIMBS};
                    let width = st.len().max(8);
                    let mut rows = vec![0u64; LIMBS * width];
                    for j in 0..width {
                        let w = cast_ref::<F, Bn254Fr>(&st[j % st.len()].w);
                        for (k, limb) in Fr8::to_limbs(w).into_iter().enumerate() {
                            rows[k * width + j] = limb;
                        }
                    }
                    rows
                })
                .collect(),
        ),
        NativeKernel::BabyBearAvx2 => Bank::U32Pair {
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
/// both directions' twiddle banks, the prepared `1/n` constant and the
/// backend selection. Cached in [`crate::cache::shared_vector_plan`]; an
/// [`crate::Ntt`] holds the one it transforms with.
#[derive(Debug)]
pub(crate) struct VectorPlan<F: TwoAdicField> {
    log_n: u32,
    fwd: Bank<F>,
    inv: Bank<F>,
    n_inv: ShoupTwiddle<F>,
    native: NativeKernel,
}

impl<F: TwoAdicField> VectorPlan<F> {
    /// The plan for this CPU: the best native kernel it has for the size,
    /// else the portable lanes.
    pub(crate) fn new(table: &TwiddleTable<F>) -> Self {
        Self::with_kernel(table, native_kernel::<F>(table.log_n()))
    }

    fn with_kernel(table: &TwiddleTable<F>, native: NativeKernel) -> Self {
        let log_n = table.log_n();
        Self {
            log_n,
            fwd: build_bank(pack_stages(table.forward_shoup(), log_n), native),
            inv: build_bank(pack_stages(table.inverse_shoup(), log_n), native),
            n_inv: F::shoup_prepare(table.n_inv()),
            native,
        }
    }

    /// The transform size this plan was built for.
    #[cfg(test)]
    pub(crate) fn log_n(&self) -> u32 {
        self.log_n
    }

    /// One direction's DIF stages, canonical output. Returns what the
    /// kernel also did of the rest of the transform: the AVX-512
    /// Goldilocks tier folds the inverse's `1/n` into its last stages, and
    /// the `Bn254Fr` IFMA tier that and the bit-reversal too.
    fn run_stages(&self, values: &mut [F], inverse: bool) -> Applied {
        let bank = if inverse { &self.inv } else { &self.fwd };
        match self.native {
            #[cfg(target_arch = "x86_64")]
            NativeKernel::GoldilocksAvx2 => {
                let Bank::U64(bank) = bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words =
                    unintt_ff::packed::gl_words_mut(cast_slice_mut::<F, Goldilocks>(values));
                // SAFETY: AVX2 presence was verified at plan build.
                unsafe { x86::gl_stages(words, bank, self.log_n) }
            }
            #[cfg(target_arch = "x86_64")]
            NativeKernel::GoldilocksAvx512 => {
                let Bank::U64(bank) = bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words =
                    unintt_ff::packed::gl_words_mut(cast_slice_mut::<F, Goldilocks>(values));
                let n_inv = inverse.then(|| self.n_inv.w.to_canonical_u64());
                // SAFETY: AVX-512F/DQ presence and `log_n ≥ 4` were
                // verified at plan build.
                unsafe { x86::gl_stages_avx512(words, bank, self.log_n, n_inv) };
                return Applied {
                    scaled: inverse,
                    permuted: false,
                };
            }
            #[cfg(target_arch = "x86_64")]
            NativeKernel::BabyBearAvx2 => {
                let Bank::U32Pair { plain, quot } = bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words = unintt_ff::packed::bb_words_mut(cast_slice_mut::<F, BabyBear>(values));
                // SAFETY: AVX2 presence was verified at plan build.
                unsafe { x86::bb_stages(words, plain, quot, self.log_n) }
            }
            #[cfg(target_arch = "x86_64")]
            NativeKernel::Bn254FrIfma => {
                let Bank::Limbs(bank) = bank else {
                    unreachable!("bank layout pinned at build")
                };
                let words = unintt_ff::packed::mont_words_mut(cast_slice_mut::<F, Bn254Fr>(values));
                let n_inv = inverse
                    .then(|| unintt_ff::packed::ifma::Fr8::to_limbs(cast_ref(&self.n_inv.w)));
                // SAFETY: AVX-512F/IFMA presence and `log_n ≥ 4` were
                // verified at plan build.
                unsafe { x86::fr_stages_ifma(words, bank, self.log_n, n_inv.as_ref()) };
                return Applied {
                    scaled: inverse,
                    permuted: true,
                };
            }
            _ => {
                let Bank::Portable(stages) = bank else {
                    unreachable!("bank layout pinned at build")
                };
                portable_stages_dispatch(values, stages, self.log_n)
            }
        }
        Applied {
            scaled: false,
            permuted: false,
        }
    }

    /// One transform, natural order in and out, canonical output (the
    /// inverse includes the `1/n` scale).
    pub(crate) fn transform(&self, values: &mut [F], inverse: bool) {
        let applied = self.run_stages(values, inverse);
        if !applied.permuted {
            bit_reverse_permute(values);
        }
        if inverse && !applied.scaled {
            for v in values.iter_mut() {
                *v = F::reduce_lane(F::shoup_mul(*v, &self.n_inv));
            }
        }
    }
}

/// The parts of a transform after the DIF stages that a tier's stage
/// driver already did ([`VectorPlan::run_stages`]).
struct Applied {
    /// The inverse's `1/n` scale.
    scaled: bool,
    /// The bit-reversal to natural order.
    permuted: bool,
}

/// Reinterprets `&F` as the concrete field type `C`. Caller must have
/// established `TypeId::of::<F>() == TypeId::of::<C>()`.
#[cfg(target_arch = "x86_64")]
fn cast_ref<F: 'static, C: 'static>(value: &F) -> &C {
    debug_assert_eq!(TypeId::of::<F>(), TypeId::of::<C>());
    // SAFETY: F and C are the same type (checked by the caller's kernel
    // selection), so layout and validity are identical.
    unsafe { &*(value as *const F).cast::<C>() }
}

/// Reinterprets `&mut [F]` as the concrete field type `C`. Caller must
/// have established `TypeId::of::<F>() == TypeId::of::<C>()`.
fn cast_slice_mut<F: 'static, C: 'static>(values: &mut [F]) -> &mut [C] {
    debug_assert_eq!(TypeId::of::<F>(), TypeId::of::<C>());
    // SAFETY: F and C are the same type (checked above / by the caller's
    // kernel selection), so layout and validity are identical.
    unsafe { &mut *(values as *mut [F] as *mut [C]) }
}

/// Largest `log_n` of the Goldilocks column kernel: a strip of eight
/// columns keeps its `2^4` rows and `2^3` twiddles in the 32 zmm
/// registers. Wider outer transforms (more than 16 GPUs or FRI folds by
/// more than 16) run the radix-2 row stages.
const COLUMNS_MAX_LOG_N: u32 = 4;

/// The Goldilocks column kernel's share of a column transform: every
/// transform down columns `0..cols & !7` of the row-major `2^log_n × cols`
/// matrix `values`, in AVX-512 lanes across eight columns, with the
/// radix-2 DIF `twiddles` (`ω^k`, `k < 2^(log_n−1)`) broadcast, rows
/// written to their bit-reversed positions and, with `n_inv`, every output
/// multiplied by it. Returns how many leading columns it transformed: none
/// for another field, a CPU without AVX-512F/DQ or `log_n` outside
/// `1..=4`, and the caller transforms the rest
/// (`crate::radix2::columns_radix2`).
pub(crate) fn columns_native<F: TwoAdicField>(
    values: &mut [F],
    cols: usize,
    log_n: u32,
    twiddles: &[F],
    n_inv: Option<F>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<F>() == TypeId::of::<Goldilocks>()
        && (1..=COLUMNS_MAX_LOG_N).contains(&log_n)
        && cols >= 8
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        let word = |x: &F| unintt_ff::packed::gl_word(*cast_ref::<F, Goldilocks>(x));
        let mut tw = [0u64; 1 << (COLUMNS_MAX_LOG_N - 1)];
        let half = 1usize << (log_n - 1);
        for (t, w) in tw.iter_mut().zip(&twiddles[..half]) {
            *t = word(w);
        }
        let words = unintt_ff::packed::gl_words_mut(cast_slice_mut::<F, Goldilocks>(values));
        // SAFETY: AVX-512F/DQ were detected; `words` holds `2^log_n · cols`
        // canonical words, `1 ≤ log_n ≤ 4`, and `tw` the stage twiddles.
        unsafe {
            x86::gl_columns_avx512(words, cols, &tw[..half], log_n, n_inv.as_ref().map(word))
        };
        return cols & !7;
    }
    let _ = (values, cols, log_n, twiddles, n_inv);
    0
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

/// Explicit AVX2 and AVX-512 kernels. Stage drivers carry
/// `#[target_feature]` for their tier; the `unintt_ff::packed` lane
/// primitives are `#[inline(always)]` and specialize when inlined here.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use unintt_ff::packed::avx2::{bb_add, bb_shoup_mul, bb_sub, gl_add, gl_mul, gl_sub};
    use unintt_ff::packed::avx512 as w8;
    use unintt_ff::packed::ifma::{Fr8, LIMBS};

    use crate::reverse_bits;

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

    /// All Goldilocks DIF stages at AVX-512 width, canonical in/out, every
    /// butterfly at 8 lanes. Schedule: fused radix-8 triples while the
    /// narrowest of the three strided streams still fills a 512-bit vector
    /// (`s ≥ 6`), then the remaining three to five stages in one
    /// register-resident pass ([`gl_tail_512`]). With `n_inv` (the
    /// inverse's `1/n`, canonical) every output is multiplied by it there.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512DQ; `words.len() == 1 << log_n`,
    /// `log_n ≥ 4`, `bank` holding the per-stage plain twiddle words.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn gl_stages_avx512(
        words: &mut [u64],
        bank: &[Vec<u64>],
        log_n: u32,
        n_inv: Option<u64>,
    ) {
        debug_assert!(log_n >= 4);
        debug_assert_eq!(words.len(), 1usize << log_n);
        let mut s = log_n;
        while s >= 6 {
            gl_radix8_512(words, bank, s);
            s -= 3;
        }
        gl_tail_512(words, bank, s, n_inv);
    }

    /// The last `s ∈ {3, 4, 5}` DIF stages in one pass over groups of
    /// `2^max(s, 4)` elements: `s − 3` whole-vector stages, then stages 3,
    /// 2 and 1 on each pair of 8-element blocks ([`gl_tail3`]). With
    /// `n_inv`, the stage-2 twiddles carry it into the differences and
    /// `gl_tail3` multiplies the sums: one product per 16 outputs.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn gl_tail_512(
        words: &mut [u64],
        bank: &[Vec<u64>],
        s: u32,
        n_inv: Option<u64>,
    ) {
        debug_assert!((3..=5).contains(&s) && words.len() >= 16);
        let scale = n_inv.map(|c| _mm512_set1_epi64(c as i64));
        // Stage-3 twiddles `[w0..w3]` and stage-2 `[w0, w1]`, repeated.
        let w3 = _mm512_broadcast_i64x4(_mm256_loadu_si256(bank[2].as_ptr().cast()));
        let mut w2 = _mm512_broadcast_i32x4(_mm_loadu_si128(bank[1].as_ptr().cast()));
        if let Some(c) = scale {
            w2 = w8::gl_mul(w2, c);
        }
        // `log_n ≥ 4`, so the stage-4 bank exists even when `s = 3`.
        let w4 = _mm512_loadu_si512(bank[3].as_ptr().cast());
        if s < 5 {
            for g in words.chunks_exact_mut(16) {
                let p = g.as_mut_ptr();
                let (mut a, mut b) = (
                    _mm512_loadu_si512(p.cast()),
                    _mm512_loadu_si512(p.add(8).cast()),
                );
                if s == 4 {
                    (a, b) = gl_bf(a, b, w4);
                }
                gl_tail3(p, a, b, w3, w2, scale);
            }
        } else {
            let w5 = bank[4].as_ptr();
            let (w5a, w5b) = (
                _mm512_loadu_si512(w5.cast()),
                _mm512_loadu_si512(w5.add(8).cast()),
            );
            for g in words.chunks_exact_mut(32) {
                let p = g.as_mut_ptr();
                let a0 = _mm512_loadu_si512(p.cast());
                let a1 = _mm512_loadu_si512(p.add(8).cast());
                let a2 = _mm512_loadu_si512(p.add(16).cast());
                let a3 = _mm512_loadu_si512(p.add(24).cast());
                let (a0, a2) = gl_bf(a0, a2, w5a);
                let (a1, a3) = gl_bf(a1, a3, w5b);
                let (a0, a1) = gl_bf(a0, a1, w4);
                let (a2, a3) = gl_bf(a2, a3, w4);
                gl_tail3(p, a0, a1, w3, w2, scale);
                gl_tail3(p.add(16), a2, a3, w3, w2, scale);
            }
        }
    }

    /// One 8-lane DIF butterfly: `(a + b, (a − b)·w)`.
    #[inline(always)]
    unsafe fn gl_bf(a: __m512i, b: __m512i, w: __m512i) -> (__m512i, __m512i) {
        (w8::gl_add(a, b), w8::gl_mul(w8::gl_sub(a, b), w))
    }

    /// Stages 3, 2 and 1 of the 8-element blocks `a` and `b`, stored at
    /// `p` and `p + 8`, every butterfly at 8 lanes. Stage 3 pairs the
    /// blocks' 4-element halves by 128-bit lane; stages 2 and 1 regroup the
    /// previous stage's sum and difference vectors, so the lanes are out of
    /// element order until one re-interleave at the store. Stage 1's
    /// twiddle is `ω⁰ = 1`, so its product is elided (canonical lanes make
    /// the elision exact). `scale` multiplies the stage-2 sums; the caller
    /// has folded it into `w2`, so every output is scaled.
    #[inline(always)]
    unsafe fn gl_tail3(
        p: *mut u64,
        a: __m512i,
        b: __m512i,
        w3: __m512i,
        w2: __m512i,
        scale: Option<__m512i>,
    ) {
        // Lanes hold elements a0–a3 b0–b3 | a4–a7 b4–b7.
        let (s, d) = gl_bf(
            _mm512_shuffle_i64x2::<0x44>(a, b),
            _mm512_shuffle_i64x2::<0xee>(a, b),
            w3,
        );
        // a0 a1 b0 b1 a4 a5 b4 b5 | a2 a3 b2 b3 a6 a7 b6 b7.
        let (mut s, d) = gl_bf(
            _mm512_shuffle_i64x2::<0x88>(s, d),
            _mm512_shuffle_i64x2::<0xdd>(s, d),
            w2,
        );
        if let Some(c) = scale {
            s = w8::gl_mul(s, c);
        }
        // Evens a0 a2 b0 b2 a4 a6 b4 b6 | odds.
        let (u, v) = (_mm512_unpacklo_epi64(s, d), _mm512_unpackhi_epi64(s, d));
        let (s, d) = (w8::gl_add(u, v), w8::gl_sub(u, v));
        let out_a = _mm512_setr_epi64(0, 8, 1, 9, 4, 12, 5, 13);
        let out_b = _mm512_setr_epi64(2, 10, 3, 11, 6, 14, 7, 15);
        _mm512_storeu_si512(p.cast(), _mm512_permutex2var_epi64(s, out_a, d));
        _mm512_storeu_si512(p.add(8).cast(), _mm512_permutex2var_epi64(s, out_b, d));
    }

    /// Three fused DIF layers (stages `s`, `s−1`, `s−2`) at 8-lane
    /// width: 8 strided streams, 12 butterflies and 7 twiddle loads per
    /// cell, one memory pass instead of three. Same pairings and twiddle
    /// indexing as the portable `radix8_fused`. Needs `q = m/8 ≥ 8`,
    /// i.e. `s ≥ 6`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn gl_radix8_512(words: &mut [u64], bank: &[Vec<u64>], s: u32) {
        let m = 1usize << s;
        let q = m / 8;
        // Stage `s` has `4q` twiddles, `s − 1` has `2q`, `s − 2` has `q`.
        debug_assert!(q >= 8 && bank[s as usize - 3].len() >= q);
        let tws = bank[s as usize - 1].as_ptr();
        let tws1 = bank[s as usize - 2].as_ptr();
        let tws2 = bank[s as usize - 3].as_ptr();
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
                let a0 = _mm512_loadu_si512(px[0].cast());
                let a1 = _mm512_loadu_si512(px[1].cast());
                let a2 = _mm512_loadu_si512(px[2].cast());
                let a3 = _mm512_loadu_si512(px[3].cast());
                let a4 = _mm512_loadu_si512(px[4].cast());
                let a5 = _mm512_loadu_si512(px[5].cast());
                let a6 = _mm512_loadu_si512(px[6].cast());
                let a7 = _mm512_loadu_si512(px[7].cast());
                // Stage s: halves at stride 4q.
                let w0 = _mm512_loadu_si512(tws.add(j).cast());
                let w1 = _mm512_loadu_si512(tws.add(j + q).cast());
                let w2 = _mm512_loadu_si512(tws.add(j + 2 * q).cast());
                let w3 = _mm512_loadu_si512(tws.add(j + 3 * q).cast());
                let (a0, a4) = gl_bf(a0, a4, w0);
                let (a1, a5) = gl_bf(a1, a5, w1);
                let (a2, a6) = gl_bf(a2, a6, w2);
                let (a3, a7) = gl_bf(a3, a7, w3);
                // Stage s−1: halves at stride 2q inside each half-block.
                let u0 = _mm512_loadu_si512(tws1.add(j).cast());
                let u1 = _mm512_loadu_si512(tws1.add(j + q).cast());
                let (a0, a2) = gl_bf(a0, a2, u0);
                let (a1, a3) = gl_bf(a1, a3, u1);
                let (a4, a6) = gl_bf(a4, a6, u0);
                let (a5, a7) = gl_bf(a5, a7, u1);
                // Stage s−2: adjacent streams.
                let v0 = _mm512_loadu_si512(tws2.add(j).cast());
                let (a0, a1) = gl_bf(a0, a1, v0);
                let (a2, a3) = gl_bf(a2, a3, v0);
                let (a4, a5) = gl_bf(a4, a5, v0);
                let (a6, a7) = gl_bf(a6, a7, v0);
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

    /// [`super::columns_native`] for Goldilocks: each strip of eight
    /// columns in one memory pass ([`gl_columns`]), `2^log_n` rows per
    /// strip.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512DQ; `1 ≤ log_n ≤ 4`; `words.len() ==
    /// cols << log_n`, canonical; `tw` holding the `2^(log_n−1)` canonical
    /// DIF twiddles `ω^k`; `n_inv` canonical.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn gl_columns_avx512(
        words: &mut [u64],
        cols: usize,
        tw: &[u64],
        log_n: u32,
        n_inv: Option<u64>,
    ) {
        match log_n {
            1 => gl_columns::<2>(words, cols, tw, n_inv),
            2 => gl_columns::<4>(words, cols, tw, n_inv),
            3 => gl_columns::<8>(words, cols, tw, n_inv),
            4 => gl_columns::<16>(words, cols, tw, n_inv),
            _ => unreachable!("column kernel sizes are 2^1..=2^4"),
        }
    }

    /// Size-`N` transforms down eight columns at a time: the strip's `N`
    /// rows are loaded into `N` vectors, run through every DIF stage there
    /// with broadcast twiddles (the first pair of each block has twiddle
    /// `ω⁰ = 1`, whose product is elided — canonical lanes make that
    /// exact), and stored to their bit-reversed rows, scaled by `n_inv`
    /// when given. All `N` rows are loaded before any is stored, so the
    /// reversal needs no second pass.
    #[inline(always)]
    unsafe fn gl_columns<const N: usize>(
        words: &mut [u64],
        cols: usize,
        tw: &[u64],
        n_inv: Option<u64>,
    ) {
        let log_n = N.trailing_zeros();
        debug_assert!(words.len() == N * cols && tw.len() == N / 2);
        // Loops, not closures: a closure would not inherit the target
        // features and could be left un-inlined.
        let mut w = [_mm512_setzero_si512(); N];
        for (k, &t) in tw.iter().enumerate() {
            w[k] = _mm512_set1_epi64(t as i64);
        }
        let scale = n_inv.map(|c| _mm512_set1_epi64(c as i64));
        let p = words.as_mut_ptr();
        let mut c = 0;
        while c + 8 <= cols {
            let mut a = [_mm512_setzero_si512(); N];
            for (r, v) in a.iter_mut().enumerate() {
                *v = _mm512_loadu_si512(p.add(r * cols + c).cast());
            }
            for s in (1..=log_n).rev() {
                let half = 1usize << (s - 1);
                for b in (0..N).step_by(2 * half) {
                    let (u, d) = gl_bf_unit(a[b], a[b + half]);
                    (a[b], a[b + half]) = (u, d);
                    for j in 1..half {
                        let (u, d) = gl_bf(a[b + j], a[b + j + half], w[j << (log_n - s)]);
                        (a[b + j], a[b + j + half]) = (u, d);
                    }
                }
            }
            for (r, &v) in a.iter().enumerate() {
                let v = match scale {
                    Some(k) => w8::gl_mul(v, k),
                    None => v,
                };
                _mm512_storeu_si512(p.add(reverse_bits(r, log_n) * cols + c).cast(), v);
            }
            c += 8;
        }
    }

    /// One 8-lane DIF butterfly with the unit twiddle: `(a + b, a − b)`.
    #[inline(always)]
    unsafe fn gl_bf_unit(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        (w8::gl_add(a, b), w8::gl_sub(a, b))
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

    /// A whole `Bn254Fr` transform's butterflies in IFMA lanes, natural
    /// order in, bit-reversed write-back to natural order out, canonical
    /// words throughout. `words` holds the elements' Montgomery words
    /// (four per element). They are split once into five 52-bit limb rows
    /// (a scratch of `5n` words) as they are: the lane form of `x/16`,
    /// which butterflies with lane-form twiddles keep (see
    /// `unintt_ff::packed::ifma`), so no element is converted. Stages
    /// `log_n … 4` run at full width ([`fr_stage`]), stages 3, 2 and 1 on
    /// pairs of vectors in registers ([`fr_tail`]), which also joins the
    /// limbs into each element's bit-reversed position. With `n_inv` (the
    /// inverse's `1/n`, lane form) every output is multiplied by it.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512 IFMA; `words.len() == 4 << log_n`,
    /// canonical; `log_n ≥ 4`; `bank` holding the per-stage lane-form
    /// twiddle rows of `Bank::Limbs`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn fr_stages_ifma(
        words: &mut [u64],
        bank: &[Vec<u64>],
        log_n: u32,
        n_inv: Option<&[u64; LIMBS]>,
    ) {
        debug_assert!(log_n >= 4);
        let n = 1usize << log_n;
        debug_assert_eq!(words.len(), 4 * n);
        let mut scratch = Vec::<u64>::with_capacity(LIMBS * n);
        // Every word of the scratch is written by the split before any is
        // read, so its uninitialised capacity is only ever seen through
        // raw pointers.
        let rows = scratch.as_mut_ptr();
        let src = words.as_ptr();
        for i in (0..n).step_by(8) {
            Fr8::load_words(src.add(4 * i)).store(rows.add(i), n);
        }
        for s in (4..=log_n).rev() {
            fr_stage(rows, n, s, &bank[s as usize - 1]);
        }
        fr_tail(rows, n, words.as_mut_ptr(), bank, log_n, n_inv);
    }

    /// DIF stage `s` (`half = 2^(s−1) ≥ 8`) on the limb rows: `(u + v,
    /// (u − v)·w)` at eight lanes.
    #[inline(always)]
    unsafe fn fr_stage(rows: *mut u64, n: usize, s: u32, tw: &[u64]) {
        let half = 1usize << (s - 1);
        debug_assert!(half >= 8 && tw.len() == LIMBS * half);
        let tw = tw.as_ptr();
        for base in (0..n).step_by(2 * half) {
            let mut j = 0;
            while j < half {
                let pu = rows.add(base + j);
                let pv = pu.add(half);
                let (u, v) = (Fr8::load(pu, n), Fr8::load(pv, n));
                let w = Fr8::load(tw.add(j), half);
                u.add(v).store(pu, n);
                u.sub(v).mul(w).store(pv, n);
                j += 8;
            }
        }
    }

    /// Stages 3, 2 and 1 on each 16-element group of the limb rows, as
    /// the AVX-512 Goldilocks `gl_tail3` pairs them (`permute2` on every
    /// limb), then the join into `out` at bit-reversed element positions.
    /// Stage 1's twiddle is 1, so its product is elided. With `n_inv`, it
    /// is folded into the stage-2 twiddles and multiplies the stage-2
    /// sums, so every output is scaled.
    #[inline(always)]
    unsafe fn fr_tail(
        rows: *const u64,
        n: usize,
        out: *mut u64,
        bank: &[Vec<u64>],
        log_n: u32,
        n_inv: Option<&[u64; LIMBS]>,
    ) {
        let w3 = Fr8::load(bank[2].as_ptr(), 8);
        let mut w2 = Fr8::load(bank[1].as_ptr(), 8);
        let mut scale = None;
        if let Some(c) = n_inv {
            let c = Fr8::splat(c);
            w2 = w2.mul(c);
            scale = Some(c);
        }
        // Stage 3: halves of each 8-element block, per 256-bit lane.
        let halves = (
            _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
            _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
        );
        // Stage 2: 128-bit lanes 0/2 and 1/3 of both vectors.
        let quarters = (
            _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
            _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
        );
        // Stage 1: even and odd lanes, interleaved from both vectors.
        let pairs = (
            _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14),
            _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15),
        );
        // After stage 1 the sums hold group elements 0 2 8 10 4 6 12 14
        // and the differences 1 3 9 11 5 7 13 15; element `g + r` goes to
        // `rev(g) + rev4(r)·2^(log_n−4)`.
        let shift = log_n - 4;
        let rev4 = |r: i64| i64::from((r as u8).reverse_bits() >> 4) << shift;
        let at_s = _mm512_setr_epi64(
            rev4(0),
            rev4(2),
            rev4(8),
            rev4(10),
            rev4(4),
            rev4(6),
            rev4(12),
            rev4(14),
        );
        let at_d = _mm512_setr_epi64(
            rev4(1),
            rev4(3),
            rev4(9),
            rev4(11),
            rev4(5),
            rev4(7),
            rev4(13),
            rev4(15),
        );
        for g in (0..n).step_by(16) {
            let a = Fr8::load(rows.add(g), n);
            let b = Fr8::load(rows.add(g + 8), n);
            let (u, v) = (a.permute2(halves.0, b), a.permute2(halves.1, b));
            let (s, d) = (u.add(v), u.sub(v).mul(w3));
            let (u, v) = (s.permute2(quarters.0, d), s.permute2(quarters.1, d));
            let (mut s, d) = (u.add(v), u.sub(v).mul(w2));
            if let Some(c) = scale {
                s = s.mul(c);
            }
            let (u, v) = (s.permute2(pairs.0, d), s.permute2(pairs.1, d));
            let base = _mm512_set1_epi64(reverse_bits(g, log_n) as i64);
            u.add(v).scatter_words(out, _mm512_add_epi64(base, at_s));
            u.sub(v).scatter_words(out, _mm512_add_epi64(base, at_d));
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
    use crate::{bit_reversed, cache, Ntt};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Bn254Fr, Field, PrimeField, ShoupField};

    fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
    }

    /// The radix-2 oracle: the index-form bit-reversal, then the DIT
    /// kernel.
    fn legacy_forward<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
        values.copy_from_slice(&bit_reversed(values));
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

            let mut expect_inv = bit_reversed(&input);
            ntt.inverse_dit_in_place(&mut expect_inv);
            ntt.scale_by_n_inv(&mut expect_inv);
            let mut got_inv = input.clone();
            ntt.inverse(&mut got_inv);
            assert!(got_inv == expect_inv, "inverse log_n={log_n}");

            ntt.inverse(&mut got);
            assert!(got == input, "roundtrip log_n={log_n}");
        }
    }

    /// One transform through the CPU-selected plan (the one `Ntt` runs,
    /// from the plan cache) and through a plan built with no native kernel
    /// (the portable lanes, never cached), both directions. Returns the
    /// tier each side ran.
    fn check_backend_match<F: TwoAdicField>(
        log_n: u32,
        seed: u64,
    ) -> Result<(&'static str, &'static str), String> {
        let cpu = cache::shared_vector_plan::<F>(log_n);
        let portable =
            VectorPlan::with_kernel(&cache::shared_table::<F>(log_n), NativeKernel::None);
        assert_eq!(cpu.native, native_kernel::<F>(log_n), "cached plan's tier");
        assert_eq!(portable.native, NativeKernel::None, "portable plan's tier");
        let input = random_vec::<F>(log_n, seed);
        for inverse in [false, true] {
            let (mut native, mut lanes) = (input.clone(), input.clone());
            cpu.transform(&mut native, inverse);
            portable.transform(&mut lanes, inverse);
            if native != lanes {
                return Err(format!(
                    "backend mismatch (inverse={inverse}) at log_n={log_n} seed={seed}"
                ));
            }
        }
        Ok((cpu.native.label(), portable.native.label()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        fn backend_match_cases(
            field in 0u8..3,
            log_n in 1u32..=16,
            seed in any::<u64>(),
        ) {
            let tiers = match field {
                0 => check_backend_match::<Goldilocks>(log_n, seed),
                1 => check_backend_match::<BabyBear>(log_n, seed),
                _ => check_backend_match::<Bn254Fr>(log_n, seed),
            };
            prop_assert!(tiers.is_ok(), "{:?}", tiers);
        }
    }

    /// Native vs portable lanes, Goldilocks, BabyBear and `Bn254Fr`: every
    /// `log_n` in 1..=16 once, then 96 random (field, size, seed) cases.
    /// Prints which tier each side ran at each size, so a log shows when a
    /// CPU without a native kernel compared portable with portable.
    #[test]
    fn portable_backend_matches_native() {
        fn sweep<F: TwoAdicField>(field: &str) {
            let tiers: Vec<String> = (1..=16u32)
                .map(|log_n| {
                    let (cpu, portable) =
                        check_backend_match::<F>(log_n, 0xbacc + u64::from(log_n))
                            .unwrap_or_else(|e| panic!("{field}: {e}"));
                    format!("{log_n}:{cpu}/{portable}")
                })
                .collect();
            println!("{field} log_n:cpu plan/portable plan {}", tiers.join(" "));
        }
        sweep::<Goldilocks>("goldilocks");
        sweep::<BabyBear>("babybear");
        sweep::<Bn254Fr>("bn254fr");
        backend_match_cases();
    }

    /// The plain twiddle words of one direction, as the Goldilocks native
    /// tiers read them (`bank[s-1][j]`).
    #[cfg(target_arch = "x86_64")]
    fn gl_bank(lane: &[ShoupTwiddle<Goldilocks>], log_n: u32) -> Vec<Vec<u64>> {
        match build_bank(pack_stages(lane, log_n), NativeKernel::GoldilocksAvx512) {
            Bank::U64(bank) => bank,
            _ => unreachable!("Goldilocks banks are u64 words"),
        }
    }

    /// Every native Goldilocks tier the CPU has, called directly (a plan
    /// only ever runs the best one): the AVX2 driver for `log_n` 3..=16 and
    /// the AVX-512 driver, with its folded `1/n`, for 4..=20. Both
    /// directions, on a random row and three edge-value rows (all `p − 1`;
    /// alternating `0`, `p − 1`; `0, 1, p − 1` cycled), against the radix-2
    /// oracle. Prints which tiers ran, so a log shows when a CPU without
    /// one skipped it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn goldilocks_native_tiers_match_oracle() {
        let avx2 = is_x86_feature_detected!("avx2");
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
        let ran = |has: bool| ["SKIPPED (not on this CPU)", "ran"][usize::from(has)];
        println!(
            "goldilocks native tiers: gl_stages (avx2) {}, gl_stages_avx512 (avx512f+dq) {}",
            ran(avx2),
            ran(avx512)
        );
        let top = Goldilocks::from_u64(unintt_ff::GOLDILOCKS_MODULUS - 1);
        for log_n in 3..=20u32 {
            let n = 1usize << log_n;
            let ntt = Ntt::<Goldilocks>::new(log_n);
            let fwd = gl_bank(ntt.table().forward_shoup(), log_n);
            let inv = gl_bank(ntt.table().inverse_shoup(), log_n);
            let n_inv = ntt.table().n_inv().to_canonical_u64();
            let rows = [
                random_vec::<Goldilocks>(log_n, 700 + u64::from(log_n)),
                vec![top; n],
                (0..n).map(|i| [Goldilocks::ZERO, top][i % 2]).collect(),
                (0..n)
                    .map(|i| [Goldilocks::ZERO, Goldilocks::ONE, top][i % 3])
                    .collect(),
            ];
            for (row, input) in rows.iter().enumerate() {
                let mut expect_fwd = input.clone();
                legacy_forward(&ntt, &mut expect_fwd);
                let mut expect_inv = bit_reversed(input);
                ntt.inverse_dit_in_place(&mut expect_inv);
                ntt.scale_by_n_inv(&mut expect_inv);
                // The driver's stages, then the plan's bit-reversal.
                let run = |driver: &dyn Fn(&mut [u64])| {
                    let mut got = input.clone();
                    driver(unintt_ff::packed::gl_words_mut(&mut got));
                    bit_reverse_permute(&mut got);
                    got
                };
                let at = format!("log_n={log_n} row={row}");
                // SAFETY (every driver call below): the features it needs
                // were detected above, `log_n` is in its range, the row
                // holds 2^log_n words and the banks are built for log_n.
                if avx2 && log_n <= 16 {
                    let got = run(&|w| unsafe { x86::gl_stages(w, &fwd, log_n) });
                    assert!(got == expect_fwd, "avx2 forward {at}");
                    let mut got = run(&|w| unsafe { x86::gl_stages(w, &inv, log_n) });
                    ntt.scale_by_n_inv(&mut got);
                    assert!(got == expect_inv, "avx2 inverse {at}");
                }
                if avx512 && log_n >= 4 {
                    let got = run(&|w| unsafe { x86::gl_stages_avx512(w, &fwd, log_n, None) });
                    assert!(got == expect_fwd, "avx512 forward {at}");
                    let got =
                        run(&|w| unsafe { x86::gl_stages_avx512(w, &inv, log_n, Some(n_inv)) });
                    assert!(got == expect_inv, "avx512 inverse {at}");
                }
            }
        }
    }

    /// The `Bn254Fr` IFMA tier, its driver called directly (so the
    /// check holds whatever tier a plan picks), for every `log_n` in
    /// 4..=14 in both directions, against the radix-2 oracle: a random row
    /// and the edge rows all `0`, all `1`, all `p − 1`, and `p − 1`
    /// alternating with `0`. The driver does the bit-reversal and, for the
    /// inverse, the `1/n` itself. Prints whether the tier ran or was
    /// skipped on this CPU.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn bn254_ifma_tier_matches_oracle() {
        use unintt_ff::packed::ifma::Fr8;
        let ifma = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
        if !ifma {
            println!("bn254 ifma tier: fr_stages_ifma SKIPPED (the CPU lacks avx512ifma)");
            return;
        }
        let limb_bank = |lane: &[ShoupTwiddle<Bn254Fr>], log_n: u32| match build_bank(
            pack_stages(lane, log_n),
            NativeKernel::Bn254FrIfma,
        ) {
            Bank::Limbs(bank) => bank,
            _ => unreachable!("Bn254Fr banks are limb rows"),
        };
        let top = -Bn254Fr::ONE;
        for log_n in 4..=14u32 {
            let n = 1usize << log_n;
            let ntt = Ntt::<Bn254Fr>::new(log_n);
            let fwd = limb_bank(ntt.table().forward_shoup(), log_n);
            let inv = limb_bank(ntt.table().inverse_shoup(), log_n);
            let n_inv = Fr8::to_limbs(&ntt.table().n_inv());
            let rows = [
                random_vec::<Bn254Fr>(log_n, 900 + u64::from(log_n)),
                vec![Bn254Fr::ZERO; n],
                vec![Bn254Fr::ONE; n],
                vec![top; n],
                (0..n).map(|i| [top, Bn254Fr::ZERO][i % 2]).collect(),
            ];
            for (row, input) in rows.iter().enumerate() {
                let mut expect_fwd = input.clone();
                legacy_forward(&ntt, &mut expect_fwd);
                let mut expect_inv = bit_reversed(input);
                ntt.inverse_dit_in_place(&mut expect_inv);
                ntt.scale_by_n_inv(&mut expect_inv);
                let run = |bank: &[Vec<u64>], scale: Option<&[u64; 5]>| {
                    let mut got = input.clone();
                    let words = unintt_ff::packed::mont_words_mut(&mut got);
                    // SAFETY: avx512f and avx512ifma were detected above,
                    // `log_n ≥ 4`, the row holds 2^log_n canonical elements
                    // and the bank is built for log_n.
                    unsafe { x86::fr_stages_ifma(words, bank, log_n, scale) };
                    got
                };
                let at = format!("log_n={log_n} row={row}");
                assert!(run(&fwd, None) == expect_fwd, "ifma forward {at}");
                assert!(run(&inv, Some(&n_inv)) == expect_inv, "ifma inverse {at}");
            }
        }
        println!("bn254 ifma tier: fr_stages_ifma ran, log_n 4..=14, both directions");
    }

    /// Dev profiling aid, not a correctness check: prints what each stage
    /// group of the AVX-512 Goldilocks driver costs over 2048 rows of 2^11
    /// (one row pass of a 2^22 six-step) on one thread, best of five
    /// sweeps, next to the whole driver in both directions and the scalar
    /// `1/n` loop the other tiers still run. Run with
    /// `cargo test -p unintt-ntt --release row_stage_profile -- --ignored --nocapture`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn row_stage_profile() {
        use std::time::Instant;
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")) {
            println!("no AVX-512F/DQ on this host");
            return;
        }
        let log_n = 11u32;
        let table = cache::shared_table::<Goldilocks>(log_n);
        let bank = gl_bank(table.forward_shoup(), log_n);
        let n_inv = Goldilocks::shoup_prepare(table.n_inv());
        let c = table.n_inv().to_canonical_u64();
        let mut rows = random_vec::<Goldilocks>(2 * log_n, 11);
        let mut time = |label: &str, f: &dyn Fn(&mut [Goldilocks])| {
            let best = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    rows.chunks_exact_mut(1 << log_n).for_each(f);
                    t.elapsed()
                })
                .min()
                .expect("five sweeps");
            println!("{label:<34} {:>6.2} ms", best.as_secs_f64() * 1e3);
        };
        let w = unintt_ff::packed::gl_words_mut;
        // SAFETY (every call below): AVX-512F/DQ were detected above; each
        // row is 2^11 words and the bank is built for 2^11.
        time("radix-8, stages 11..9", &|r| unsafe {
            x86::gl_radix8_512(w(r), &bank, 11)
        });
        time("radix-8, stages 8..6", &|r| unsafe {
            x86::gl_radix8_512(w(r), &bank, 8)
        });
        time("tail, stages 5..1", &|r| unsafe {
            x86::gl_tail_512(w(r), &bank, 5, None)
        });
        time("tail, stages 5..1 and 1/n", &|r| unsafe {
            x86::gl_tail_512(w(r), &bank, 5, Some(c))
        });
        time("whole driver, stages 11..1", &|r| unsafe {
            x86::gl_stages_avx512(w(r), &bank, log_n, None)
        });
        time("whole driver and 1/n", &|r| unsafe {
            x86::gl_stages_avx512(w(r), &bank, log_n, Some(c))
        });
        time("scalar 1/n loop", &|r| {
            for v in r.iter_mut() {
                *v = Goldilocks::reduce_lane(Goldilocks::shoup_mul(*v, &n_inv));
            }
        });
    }

    /// Dev profiling aid, not a correctness check: prints, per shape, what
    /// a plan's DIF stages cost against its bit-reversal over the same
    /// rows on one thread (best of five sweeps), for the row shapes of the
    /// `ntt-batch` and `ntt-large` workloads and `plonk-prove`'s BN254
    /// size, then a lone 2^20 Goldilocks permutation. Run with
    /// `cargo test -p unintt-ntt --release bitrev_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn bitrev_profile() {
        use std::time::{Duration, Instant};
        fn best(mut f: impl FnMut()) -> Duration {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed()
                })
                .min()
                .expect("five sweeps")
        }
        fn shape<F: TwoAdicField>(label: &str, log_n: u32, log_rows: u32, inverse: bool) {
            let plan = VectorPlan::<F>::new(&cache::shared_table::<F>(log_n));
            let mut data = random_vec::<F>(log_n + log_rows, 17);
            let rows = |data: &mut Vec<F>, f: &dyn Fn(&mut [F])| {
                data.chunks_exact_mut(1 << log_n).for_each(f)
            };
            let stages = best(|| {
                rows(&mut data, &|r| {
                    plan.run_stages(r, inverse);
                })
            });
            let perm = best(|| rows(&mut data, &|r| bit_reverse_permute(r)));
            println!(
                "{label:<30} stages {:>6.2} ms   bitrev {:>6.2} ms ({:.2} ns/elem)",
                stages.as_secs_f64() * 1e3,
                perm.as_secs_f64() * 1e3,
                perm.as_secs_f64() * 1e9 / data.len() as f64,
            );
        }
        shape::<Goldilocks>("goldilocks 2^12 x 1024 fwd", 12, 10, false);
        shape::<Goldilocks>("goldilocks 2^16 x 64 inv", 16, 6, true);
        shape::<BabyBear>("babybear 2^12 x 1024 fwd", 12, 10, false);
        shape::<Goldilocks>("goldilocks 2^11 x 2048 fwd", 11, 11, false);
        shape::<Bn254Fr>("bn254 2^11 x 64 fwd", 11, 6, false);
        let mut data = random_vec::<Goldilocks>(20, 19);
        let perm = best(|| bit_reverse_permute(&mut data));
        println!(
            "{:<30} bitrev {:>6.2} ms",
            "bit_reverse_permute 2^20",
            perm.as_secs_f64() * 1e3
        );
    }

    #[test]
    fn backend_report_is_consistent() {
        // Whatever the CPU, the reporting hook names the kernel a plan
        // runs (every size from 2^4 up takes the same tier).
        let gl = cache::shared_vector_plan::<Goldilocks>(8);
        assert_eq!(gl.native.label(), active_backend_label::<Goldilocks>());
        let bb = cache::shared_vector_plan::<BabyBear>(8);
        assert_eq!(bb.native.label(), active_backend_label::<BabyBear>());
        let bn = cache::shared_vector_plan::<Bn254Fr>(8);
        assert_eq!(bn.native.label(), active_backend_label::<Bn254Fr>());
    }
}
