//! Merkle trees over matrices of field elements.
//!
//! STARK commitments hash each *row* of an evaluation matrix (all columns
//! at one domain point) into a leaf, then build a binary tree of
//! [`compress`] nodes. Opening a row reveals the row plus its
//! authentication path.
//!
//! The matrix is one flat row-major buffer (`values`, `width`), the shape
//! the batched hash kernels read: the leaf level is
//! [`hash_rows`] over the buffer and every interior level is
//! [`compress_pairs`] over the level below. Each level is cut into bands
//! of [`BAND`] digests that fork over the worker pool; a level of one
//! band or less runs inline. Band boundaries are a constant, so the tree
//! is the same for every pool size (and the same as the serial loop).

use serde::{Deserialize, Serialize};
use unintt_exec::Executor;
use unintt_ff::Goldilocks;

use crate::hash::{compress, compress_pairs, hash_elements, hash_rows, Digest};

/// Digests per pool task: at width 8 about 512 leaf permutations, tens of
/// microseconds against a fork-join of about one.
const BAND: usize = 256;

/// A Merkle tree committed over the rows of a matrix.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// Number of leaves (power of two).
    leaves: usize,
    /// Heap layout: `nodes[1]` is the root, `nodes[2i]`/`nodes[2i+1]` are
    /// the children of `i`; leaf `j` sits at `nodes[leaves + j]`.
    nodes: Vec<Digest>,
}

/// An opening: the row values plus the authentication path to the root.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MerklePath {
    /// Index of the opened leaf.
    pub index: usize,
    /// The opened row.
    pub row: Vec<Goldilocks>,
    /// Sibling digests, leaf level first.
    pub siblings: Vec<Digest>,
}

/// Transposes equal-length columns into the row-major matrix a tree
/// commits to, `2^log_group` rows to a leaf: with `L` rows, leaf `r`
/// holds rows `r + t·L/2^log_group` for `t = 0, 1, …` in turn, row `i`
/// being `columns[..][i]`. At `log_group = 0` leaf `r` is row `r`.
pub(crate) fn row_major(columns: &[Vec<Goldilocks>], log_group: u32) -> Vec<Goldilocks> {
    let rows = columns.first().map_or(0, Vec::len);
    let leaves = rows >> log_group;
    let mut values = Vec::with_capacity(rows * columns.len());
    for r in 0..leaves {
        for i in (r..rows).step_by(leaves) {
            values.extend(columns.iter().map(|col| col[i]));
        }
    }
    values
}

impl MerkleTree {
    /// Commits to the rows of the row-major matrix `values` (one leaf per
    /// row of `width` elements).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or does not divide `values.len()`, or if
    /// the row count is zero or not a power of two.
    pub fn commit_matrix(values: &[Goldilocks], width: usize) -> Self {
        Self::build(Executor::global(), values, width)
    }

    /// Commits to `rows` (one leaf per row): [`MerkleTree::commit_matrix`]
    /// for callers holding the matrix as one `Vec` per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, its length is not a power of two, or the
    /// rows are empty or of unequal width.
    pub fn commit(rows: &[Vec<Goldilocks>]) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == width),
            "all rows must have equal width"
        );
        Self::commit_matrix(&rows.concat(), width)
    }

    /// [`MerkleTree::commit_matrix`] on a given pool. The result does not
    /// depend on the pool; tests pass pools of several sizes to show it.
    pub(crate) fn build(exec: &Executor, values: &[Goldilocks], width: usize) -> Self {
        assert!(width > 0, "matrix width must be positive");
        assert!(
            values.len().is_multiple_of(width),
            "matrix is not a whole number of rows"
        );
        let leaves = values.len() / width;
        assert!(
            leaves.is_power_of_two(),
            "leaf count must be a power of two"
        );
        let mut nodes = vec![Digest::zero(); 2 * leaves];
        exec.parallel_chunks_mut(&mut nodes[leaves..], BAND, |band, out| {
            let rows = &values[band * BAND * width..][..out.len() * width];
            hash_rows(rows, width, out);
        });
        // The level of `len` nodes sits at `nodes[len..2·len]`, its
        // parents directly below it at `nodes[len/2..len]`.
        let mut len = leaves;
        while len > 1 {
            let (upper, level) = nodes.split_at_mut(len);
            let level = &level[..len];
            exec.parallel_chunks_mut(&mut upper[len / 2..], BAND, |band, out| {
                compress_pairs(&level[2 * band * BAND..][..2 * out.len()], out);
            });
            len /= 2;
        }
        Self { leaves, nodes }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.nodes[1]
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves
    }

    /// Always false (the constructor rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Opens leaf `index` of the committed row-major matrix `values`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or `values` is not a whole
    /// number of rows for the committed leaf count.
    pub fn open(&self, values: &[Goldilocks], index: usize) -> MerklePath {
        assert!(index < self.leaves, "leaf index out of range");
        assert!(
            values.len().is_multiple_of(self.leaves),
            "matrix does not match the tree"
        );
        let width = values.len() / self.leaves;
        let mut siblings = Vec::new();
        let mut pos = self.leaves + index;
        while pos > 1 {
            siblings.push(self.nodes[pos ^ 1]);
            pos /= 2;
        }
        MerklePath {
            index,
            row: values[index * width..][..width].to_vec(),
            siblings,
        }
    }
}

impl MerklePath {
    /// Verifies the path against a root. The index must address a leaf of
    /// a tree exactly as deep as the path: bits above the sibling count
    /// are not ignored.
    pub fn verify(&self, root: &Digest) -> bool {
        let mut digest = hash_elements(&self.row);
        let mut pos = self.index;
        for sibling in &self.siblings {
            digest = if pos.is_multiple_of(2) {
                compress(&digest, sibling)
            } else {
                compress(sibling, &digest)
            };
            pos /= 2;
        }
        pos == 0 && digest == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows * cols)
            .map(|_| Goldilocks::random(&mut rng))
            .collect()
    }

    #[test]
    fn open_verify_all_leaves() {
        let values = random_matrix(16, 3, 1);
        let tree = MerkleTree::commit_matrix(&values, 3);
        for i in 0..16 {
            let path = tree.open(&values, i);
            assert!(path.verify(&tree.root()), "leaf {i}");
            assert_eq!(path.row, values[3 * i..3 * i + 3]);
            assert_eq!(path.siblings.len(), 4);
        }
    }

    #[test]
    fn tampered_row_rejected() {
        let values = random_matrix(8, 2, 2);
        let tree = MerkleTree::commit_matrix(&values, 2);
        let mut path = tree.open(&values, 3);
        path.row[0] += Goldilocks::ONE;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn wrong_index_rejected() {
        let values = random_matrix(8, 2, 3);
        let tree = MerkleTree::commit_matrix(&values, 2);
        let mut path = tree.open(&values, 3);
        path.index = 4;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn index_beyond_the_path_depth_rejected() {
        // 3 + 16 walks the same left/right turns as 3 through a 16-leaf
        // tree; only the leftover high bit tells them apart.
        let values = random_matrix(16, 2, 7);
        let tree = MerkleTree::commit_matrix(&values, 2);
        let mut path = tree.open(&values, 3);
        assert!(path.verify(&tree.root()));
        path.index = 3 + 16;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn different_matrices_different_roots() {
        let a = random_matrix(8, 2, 4);
        let mut b = a.clone();
        b[5 * 2 + 1] += Goldilocks::ONE;
        assert_ne!(
            MerkleTree::commit_matrix(&a, 2).root(),
            MerkleTree::commit_matrix(&b, 2).root()
        );
    }

    #[test]
    fn single_leaf_tree() {
        let values = random_matrix(1, 4, 5);
        let tree = MerkleTree::commit_matrix(&values, 4);
        let path = tree.open(&values, 0);
        assert!(path.siblings.is_empty());
        assert!(path.verify(&tree.root()));
    }

    #[test]
    fn row_major_transposes_columns() {
        let values = random_matrix(32, 5, 8);
        let columns: Vec<Vec<Goldilocks>> = (0..5)
            .map(|c| values.iter().skip(c).step_by(5).copied().collect())
            .collect();
        assert_eq!(row_major(&columns, 0), values);
        // Two rows to a leaf: leaf r holds rows r and r + 16.
        let grouped = row_major(&columns, 1);
        for r in 0..16 {
            assert_eq!(grouped[10 * r..][..5], values[5 * r..][..5]);
            assert_eq!(grouped[10 * r + 5..][..5], values[5 * (r + 16)..][..5]);
        }
    }

    #[test]
    fn tree_does_not_depend_on_the_pool() {
        // 1024 leaves: four leaf bands, two bands one level up, then
        // inline levels.
        let values = random_matrix(1024, 3, 9);
        let serial = MerkleTree::build(&Executor::new(1), &values, 3);
        for threads in [2, 8] {
            let pooled = MerkleTree::build(&Executor::new(threads), &values, 3);
            assert_eq!(pooled.nodes, serial.nodes, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        let values = random_matrix(6, 1, 6);
        let _ = MerkleTree::commit_matrix(&values, 1);
    }

    #[test]
    #[should_panic(expected = "equal width")]
    fn ragged_rows_rejected() {
        let _ = MerkleTree::commit(&[vec![Goldilocks::ONE], vec![]]);
    }
}
