//! Distributed vectors: data sharded across simulated GPUs, with the
//! layout tracked in the type.
//!
//! Getting multi-GPU NTT orderings wrong is the classic source of silent
//! corruption, so the layout travels with the data: every engine method
//! checks the tag of its input and stamps the tag of its output.
//!
//! Moving a vector in and out of the cyclic layout is a transpose whose
//! short side is the GPU count: [`Sharded::distribute`] and
//! [`Sharded::collect`] run it as `unintt_ntt`'s register-tiled narrow
//! transpose ([`unintt_ntt::deinterleave`] / [`unintt_ntt::interleave`]);
//! the block layouts move whole runs. Neither zero-fills what it builds.

use serde::{Deserialize, Serialize};
use unintt_ff::Field;
use unintt_ntt::{deinterleave, interleave};

/// How the logical vector `x[0..n)` maps onto per-GPU shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardLayout {
    /// `x[i]` lives on GPU `i mod G` at local index `i / G`.
    /// The input layout of the UniNTT forward transform.
    Cyclic,
    /// `x[i]` lives on GPU `i / M` at local index `i mod M`
    /// (`M = n / G`). The conventional contiguous distribution.
    NaturalBlocks,
    /// UniNTT forward-output order: writing `k = k1·M + k2` with
    /// `k1 < G`, `k2 < M`, and `C = M / G`, element `X[k]` lives on GPU
    /// `k2 / C` at local index `k1·C + (k2 mod C)`.
    BlockCyclic,
}

impl ShardLayout {
    /// The logical vector of `shards` laid out as `self`: one pass, every
    /// element moved once, into a vector that is never zero-filled. Cyclic
    /// shards are the narrow transpose's rows ([`unintt_ntt::interleave`]);
    /// the other layouts are whole runs, copied as such.
    pub(crate) fn assemble<F: Copy + 'static>(self, shards: &[Vec<F>]) -> Vec<F> {
        let (g, m) = (shards.len(), shards[0].len());
        match self {
            ShardLayout::Cyclic => interleave(shards),
            ShardLayout::NaturalBlocks => shards.concat(),
            ShardLayout::BlockCyclic => {
                let c = m / g;
                let mut out = Vec::with_capacity(g * m);
                for k1 in 0..g {
                    for shard in shards {
                        out.extend_from_slice(&shard[k1 * c..][..c]);
                    }
                }
                out
            }
        }
    }
}

/// A vector of field elements distributed over `G` simulated GPUs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sharded<F> {
    shards: Vec<Vec<F>>,
    layout: ShardLayout,
}

impl<F: Field> Sharded<F> {
    /// Wraps existing shards with a layout tag.
    ///
    /// # Panics
    ///
    /// Panics if shards are empty, lengths differ, or the GPU count and
    /// shard length are not powers of two.
    pub fn from_shards(shards: Vec<Vec<F>>, layout: ShardLayout) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let len = shards[0].len();
        assert!(
            shards.iter().all(|s| s.len() == len),
            "all shards must have equal length"
        );
        assert!(
            shards.len().is_power_of_two(),
            "GPU count must be a power of two"
        );
        assert!(len.is_power_of_two(), "shard length must be a power of two");
        Self { shards, layout }
    }

    /// Distributes a host vector into the given layout.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` is not divisible into `num_gpus`
    /// power-of-two shards, or for [`ShardLayout::BlockCyclic`] if the
    /// shard length is smaller than the GPU count.
    pub fn distribute(input: &[F], num_gpus: usize, layout: ShardLayout) -> Self {
        let n = input.len();
        assert!(
            num_gpus.is_power_of_two(),
            "GPU count must be a power of two"
        );
        assert_eq!(n % num_gpus, 0, "input not divisible across GPUs");
        let m = n / num_gpus;
        assert!(m.is_power_of_two(), "shard length must be a power of two");

        // One pass over the input: every element moves once.
        let shards = match layout {
            ShardLayout::Cyclic => deinterleave(input, num_gpus),
            ShardLayout::NaturalBlocks => input.chunks_exact(m).map(<[F]>::to_vec).collect(),
            ShardLayout::BlockCyclic => {
                assert!(m >= num_gpus, "shard too small for block-cyclic layout");
                let c = m / num_gpus;
                (0..num_gpus)
                    .map(|dev| {
                        let mut shard = Vec::with_capacity(m);
                        for block in input.chunks_exact(m) {
                            shard.extend_from_slice(&block[dev * c..][..c]);
                        }
                        shard
                    })
                    .collect()
            }
        };
        Self { shards, layout }
    }

    /// Collects the shards back into one host vector in logical order.
    pub fn collect(&self) -> Vec<F> {
        self.layout.assemble(&self.shards)
    }

    /// The layout tag.
    pub fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// Number of GPUs the vector is spread across.
    pub fn num_gpus(&self) -> usize {
        self.shards.len()
    }

    /// Per-GPU shard length.
    pub fn shard_len(&self) -> usize {
        self.shards[0].len()
    }

    /// Logical vector length.
    pub fn len(&self) -> usize {
        self.num_gpus() * self.shard_len()
    }

    /// Always false: sharded vectors are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Read access to the shards.
    pub fn shards(&self) -> &[Vec<F>] {
        &self.shards
    }

    /// Mutable access for engines (which must maintain the layout tag via
    /// [`Sharded::set_layout`] when they permute).
    pub fn shards_mut(&mut self) -> &mut Vec<Vec<F>> {
        &mut self.shards
    }

    /// Restamps the layout after an engine-performed permutation.
    pub fn set_layout(&mut self, layout: ShardLayout) {
        self.layout = layout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{BabyBear, Bn254Fr, Goldilocks, PrimeField};

    fn input<F: Field>(n: usize) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n).map(|_| F::random(&mut rng)).collect()
    }

    /// Every layout there and back, up to 16 GPUs (the narrow transpose's
    /// tiles from 8), over 8-, 4- and 32-byte fields.
    #[test]
    fn roundtrip_all_layouts() {
        fn roundtrip<F: PrimeField>() {
            let x = input::<F>(256);
            for layout in [
                ShardLayout::Cyclic,
                ShardLayout::NaturalBlocks,
                ShardLayout::BlockCyclic,
            ] {
                for g in [1usize, 2, 4, 8, 16] {
                    let s = Sharded::distribute(&x, g, layout);
                    assert_eq!(s.collect(), x, "{} {layout:?} g={g}", F::NAME);
                    assert_eq!(s.len(), 256);
                    assert_eq!(s.shard_len(), 256 / g);
                }
            }
        }
        roundtrip::<Goldilocks>();
        roundtrip::<BabyBear>();
        roundtrip::<Bn254Fr>();
    }

    #[test]
    fn cyclic_places_by_residue() {
        let x: Vec<Goldilocks> = (0..8).map(Goldilocks::from_u64).collect();
        let s = Sharded::distribute(&x, 4, ShardLayout::Cyclic);
        assert_eq!(s.shards()[1][0].to_canonical_u64(), 1);
        assert_eq!(s.shards()[1][1].to_canonical_u64(), 5);
        assert_eq!(s.shards()[3][1].to_canonical_u64(), 7);
    }

    #[test]
    fn natural_blocks_contiguous() {
        let x: Vec<Goldilocks> = (0..8).map(Goldilocks::from_u64).collect();
        let s = Sharded::distribute(&x, 2, ShardLayout::NaturalBlocks);
        let first: Vec<u64> = s.shards()[0].iter().map(|v| v.to_canonical_u64()).collect();
        assert_eq!(first, vec![0, 1, 2, 3]);
    }

    #[test]
    fn block_cyclic_indexing() {
        // n=16, g=2, m=8, c=4: X[k1*8+k2] on GPU k2/4 at [k1*4 + k2%4].
        let x: Vec<Goldilocks> = (0..16).map(Goldilocks::from_u64).collect();
        let s = Sharded::distribute(&x, 2, ShardLayout::BlockCyclic);
        // k=13: k1=1, k2=5 -> GPU 1, pos 1*4+1=5
        assert_eq!(s.shards()[1][5].to_canonical_u64(), 13);
        // k=2: k1=0, k2=2 -> GPU 0, pos 2
        assert_eq!(s.shards()[0][2].to_canonical_u64(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_gpus_rejected() {
        let x = input::<Goldilocks>(12);
        let _ = Sharded::distribute(&x, 3, ShardLayout::Cyclic);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_shards_rejected() {
        let _ = Sharded::from_shards(
            vec![vec![Goldilocks::ZERO; 4], vec![Goldilocks::ZERO; 2]],
            ShardLayout::Cyclic,
        );
    }
}
