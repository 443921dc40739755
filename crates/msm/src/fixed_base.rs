//! Fixed-base scalar multiplication: `kᵢ·G` for many scalars and the one
//! generator `G` — a KZG SRS's powers `τⁱ·G`.
//!
//! Every output is a multiple of the same base, so a table of
//! `d·16ʷ·G` for every nibble position `w` and digit `d` in `1..=15`
//! turns `k·G` into one mixed addition per nonzero nibble of `k` and no
//! doublings, and all outputs share one field inversion on the way to
//! affine. Chunks of scalars are tasks on the pool. Where the CPU has
//! `avx512ifma`, a task runs eight scalars at a time in IFMA lanes (see
//! `lanes`); elsewhere one at a time on the scalar formulas. Both give the
//! same Jacobian triples, so the points are the same under any pool size
//! and on any x86 CPU — and the same as `k` double-and-add ladders.

use unintt_exec::Executor;
use unintt_ff::{Bn254Fr, PrimeField, U256};

use crate::{G1Affine, G1Projective};

/// 4-bit digits (nibbles) in a 256-bit scalar.
const NIBBLES: usize = 64;
/// Nonzero values of a nibble.
const NIBBLE_MULTIPLES: usize = 15;
/// Scalars per pool task (eight lane groups).
const TASK_SCALARS: usize = 64;

/// `d·16ʷ·G` for every nibble position `w` and digit `d` in `1..=15`, at
/// index `15·w + d − 1`.
fn generator_table() -> Vec<G1Affine> {
    let mut table = Vec::with_capacity(NIBBLES * NIBBLE_MULTIPLES);
    let mut base = G1Projective::generator();
    for _ in 0..NIBBLES {
        let mut multiple = base;
        for _ in 0..NIBBLE_MULTIPLES {
            table.push(multiple);
            multiple += base;
        }
        base = multiple; // 16·base
    }
    G1Projective::batch_to_affine(&table)
}

/// Nibble `w` of `k`.
fn nibble(k: &U256, w: usize) -> usize {
    (k.limbs()[w / 16] >> (4 * (w % 16)) & 15) as usize
}

/// `k·G` from [`generator_table`]: one mixed addition per nonzero nibble.
fn mul_generator(table: &[G1Affine], k: &U256) -> G1Projective {
    (0..NIBBLES)
        .filter(|&w| nibble(k, w) != 0)
        .fold(G1Projective::identity(), |acc, w| {
            acc.add_affine(&table[NIBBLE_MULTIPLES * w + nibble(k, w) - 1])
        })
}

/// `kᵢ·G` for every scalar, in affine coordinates.
pub fn generator_multiples(scalars: &[Bn254Fr]) -> Vec<G1Affine> {
    generator_multiples_with(Executor::global(), scalars, true)
}

/// [`generator_multiples`] on `exec`, in IFMA lanes if `use_lanes` is set and
/// the CPU has them (see [`crate::msm_runs_lanes`]), on the scalar
/// formulas otherwise: tests compare the two.
#[doc(hidden)]
pub fn generator_multiples_with(
    exec: &Executor,
    scalars: &[Bn254Fr],
    use_lanes: bool,
) -> Vec<G1Affine> {
    let table = generator_table();
    let ks: Vec<U256> = scalars.iter().map(|k| k.to_canonical_u256()).collect();
    let mut out = vec![G1Projective::identity(); ks.len()];
    #[cfg(target_arch = "x86_64")]
    if use_lanes && crate::pippenger::lanes::detected() {
        let table = lanes::Table::new(&table);
        exec.parallel_chunks_mut(&mut out, TASK_SCALARS, |task, out| {
            let ks = &ks[task * TASK_SCALARS..][..out.len()];
            for (ks, out) in ks.chunks(lanes::LANES).zip(out.chunks_mut(lanes::LANES)) {
                // SAFETY: `lanes::detected` reported avx512f and avx512ifma.
                let group = unsafe { lanes::to_projective(&lanes::mul_generator(&table, ks)) };
                out.copy_from_slice(&group[..out.len()]);
            }
        });
        return G1Projective::batch_to_affine(&out);
    }
    let _ = use_lanes;
    exec.parallel_chunks_mut(&mut out, TASK_SCALARS, |task, out| {
        for (k, out) in ks[task * TASK_SCALARS..].iter().zip(out) {
            *out = mul_generator(&table, k);
        }
    });
    G1Projective::batch_to_affine(&out)
}

/// [`mul_generator`] in IFMA lanes: lane `l` of a group runs scalar `l`.
///
/// The table lives as `[coord][limb][entry]` words, so each lane's entry
/// for a nibble position (picked by that lane's digit) is one gather per
/// limb. The formulas are `curve`'s over [`Fq8`], with the masks of the
/// MSM's bucket pass: a lane whose digit is 0 keeps its sum, a lane whose
/// sum is still the identity takes the entry itself, and a lane that meets
/// `±entry` is redone by the scalar formulas out of line (it cannot happen
/// for a canonical scalar, whose partial sum stays below `16ʷ`, but the
/// formulas stay total). Each lane's triple is the scalar path's.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use core::arch::x86_64::*;

    use unintt_ff::packed::ifma::{Fq8, LIMBS};
    use unintt_ff::U256;

    use crate::curve::{mixed_add_head, mixed_add_tail, Jacobian};
    use crate::pippenger::lanes::{blend, identity, resolve_special};
    pub(super) use crate::pippenger::lanes::{to_projective, LANES};
    use crate::G1Affine;

    use super::{nibble, NIBBLES, NIBBLE_MULTIPLES};

    /// [`super::generator_table`] in lane form: `[coord][limb][entry]`.
    pub(super) struct Table {
        words: Vec<u64>,
    }

    impl Table {
        /// Entries per limb row.
        const STRIDE: usize = NIBBLES * NIBBLE_MULTIPLES;

        pub(super) fn new(table: &[G1Affine]) -> Self {
            assert_eq!(table.len(), Self::STRIDE);
            let mut words = vec![0u64; 2 * LIMBS * Self::STRIDE];
            for (e, p) in table.iter().enumerate() {
                for (j, (x, y)) in Fq8::to_limbs(&p.x)
                    .into_iter()
                    .zip(Fq8::to_limbs(&p.y))
                    .enumerate()
                {
                    words[j * Self::STRIDE + e] = x;
                    words[(LIMBS + j) * Self::STRIDE + e] = y;
                }
            }
            Self { words }
        }
    }

    /// `ks[l]·G` in lane `l` (`ks.len() ≤ LANES`; the lanes above it hold
    /// the identity).
    ///
    /// # Safety
    ///
    /// The CPU must support avx512f and avx512ifma
    /// (`crate::pippenger::lanes::detected`).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn mul_generator(table: &Table, ks: &[U256]) -> Jacobian<Fq8> {
        // Every gather stays inside the table: a digit is at most 15 and a
        // position below `NIBBLES`, so an index is below `STRIDE`.
        assert!(ks.len() <= LANES);
        assert_eq!(table.words.len(), 2 * LIMBS * Table::STRIDE);
        let x_row = table.words.as_ptr();
        let y_row = x_row.add(LIMBS * Table::STRIDE);
        let one = Fq8::splat(&Fq8::ONE);
        let mut acc = identity();
        for w in 0..NIBBLES {
            let mut entry = [0i64; LANES];
            let mut active = 0u8;
            for (l, (k, entry)) in ks.iter().zip(&mut entry).enumerate() {
                let d = nibble(k, w);
                active |= u8::from(d != 0) << l;
                *entry = (NIBBLE_MULTIPLES * w + d.max(1) - 1) as i64;
            }
            if active == 0 {
                continue;
            }
            let idx = _mm512_loadu_si512(entry.as_ptr().cast());
            let x2 = Fq8::gather(x_row, Table::STRIDE, idx);
            let y2 = Fq8::gather(y_row, Table::STRIDE, idx);
            let head = mixed_add_head(&acc, x2, y2);
            let fresh = acc.z.zero_mask();
            let mut sum = mixed_add_tail(&acc, &head);
            sum = blend(
                fresh,
                sum,
                Jacobian {
                    x: x2,
                    y: y2,
                    z: one,
                },
            );
            let special = active & !fresh & head.u2.eq_mask(acc.x);
            if special != 0 {
                resolve_special(&mut sum, &acc, head.s2, acc.y, special);
            }
            acc = blend(active, acc, sum);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;

    #[test]
    fn lanes_and_scalar_formulas_give_the_same_triples() {
        // Identity lanes (k = 0), single nibbles, the largest scalar, and a
        // ragged last group; triples, not just group elements.
        let mut rng = StdRng::seed_from_u64(3);
        let mut scalars = vec![Bn254Fr::ZERO, Bn254Fr::ONE, -Bn254Fr::ONE];
        scalars.extend((0..8).map(|i| Bn254Fr::from_u64(15 << (4 * i))));
        scalars.extend((0..10).map(|_| Bn254Fr::random(&mut rng)));
        let table = generator_table();
        let ks: Vec<U256> = scalars.iter().map(|k| k.to_canonical_u256()).collect();
        let scalar: Vec<G1Projective> = ks.iter().map(|k| mul_generator(&table, k)).collect();
        for (k, p) in scalars.iter().zip(&scalar) {
            assert_eq!(*p, G1Projective::generator().mul_scalar(k), "k={k}");
        }
        #[cfg(target_arch = "x86_64")]
        if crate::pippenger::lanes::detected() {
            let lane_table = lanes::Table::new(&table);
            for (ks, expected) in ks.chunks(lanes::LANES).zip(scalar.chunks(lanes::LANES)) {
                // SAFETY: `detected` reported avx512f and avx512ifma.
                let got = unsafe { lanes::to_projective(&lanes::mul_generator(&lane_table, ks)) };
                for (l, (got, want)) in got.iter().zip(expected).enumerate() {
                    assert_eq!((got.x, got.y, got.z), (want.x, want.y, want.z), "lane {l}");
                }
                for got in &got[ks.len()..] {
                    assert!(got.is_identity());
                }
            }
            return;
        }
        println!("fixed-base tier: scalar only (the CPU lacks avx512ifma): lanes not exercised");
    }
}
