//! The host hash path of `unintt-fri`: the sparse-mix permutation against
//! the dense definition, digests pinned from before the rewrite, the
//! batched kernels against per-row hashing, and the banded Merkle tree
//! against a naive serial one.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Field, Goldilocks, PrimeField, GOLDILOCKS_MODULUS};
use unintt_fri::hash::{compress_pairs, hash_rows, permute, ROUNDS, WIDTH};
use unintt_fri::{
    commit_trace, compress, hash_elements, verify_trace, Digest, FriConfig, LdeBackend, MerkleTree,
};

fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
}

fn digest(words: [u64; 4]) -> Digest {
    Digest(words.map(Goldilocks::from_u64))
}

/// Element `i` of the known-answer inputs.
fn sample(i: usize) -> Goldilocks {
    Goldilocks::from_u64((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `hash_elements(sample(0..len))` for `len = 1..=9`, captured from the
/// dense-mix implementation at commit a1d446f.
const HASH_KAT: [[u64; 4]; 9] = [
    [
        0xd31d1b47c91419d9,
        0x39ac6b6258641afb,
        0xa9f3772df5e9e95a,
        0xdefa566b60b24916,
    ],
    [
        0x7517b007004dd6ae,
        0x0f29954fb87a0de3,
        0x9886d9ce2aaba261,
        0xfdf6c91b9949fd46,
    ],
    [
        0x1938e665ca1ebb5c,
        0x20338e4656d20c2c,
        0x3a7a254421c2f745,
        0xacc728241dcc1fa8,
    ],
    [
        0x452eec1882a15516,
        0xcee41fcc710b2755,
        0x3faa9b2f706a0903,
        0x8b9a6cb13606e0b1,
    ],
    [
        0x28b6d25ac4e7256b,
        0xea7e2ab1b7b27138,
        0x3700205630a70f0d,
        0x1db35c729240c333,
    ],
    [
        0xe8cdae5abb0cfa97,
        0x04a4258da37a8940,
        0xb7edea138f81820d,
        0x85887a00bfee69a6,
    ],
    [
        0xbe3d78f19206a89f,
        0xabd60aa8f5ddc1d6,
        0xd696434d994bf816,
        0x95ead20f76e34f55,
    ],
    [
        0xb28e3401d0df65b6,
        0x7c35e062cdaa4790,
        0xd01a9745e5225b01,
        0x863c581102f675e0,
    ],
    [
        0x5886cec558a9d168,
        0xdf009b4963a08cb4,
        0xc114de6b60be1d8e,
        0x313313f317a4057d,
    ],
];

/// `compress(hash(sample(0..1)), hash(sample(0..2)))`, same capture.
const COMPRESS_KAT: [u64; 4] = [
    0xcff94979d4ff31b0,
    0x9a08bbae5f9d9a95,
    0xf84a8644f012c3f3,
    0x2030555e5c0e3ba4,
];

#[test]
fn digests_match_the_dense_mix_capture() {
    for (len, expected) in (1..).zip(HASH_KAT) {
        let input: Vec<Goldilocks> = (0..len).map(sample).collect();
        assert_eq!(hash_elements(&input), digest(expected), "len={len}");
    }
    assert_eq!(
        compress(&digest(HASH_KAT[0]), &digest(HASH_KAT[1])),
        digest(COMPRESS_KAT)
    );
}

#[test]
fn commitment_matches_the_dense_mix_capture() {
    // 2^8 × 5 extends to 2^10 rows, eight to a trace leaf and to a
    // first-layer FRI leaf, on whatever pool and lanes this host has.
    // Re-captured when FRI came to fold by 8 (the digests above did not
    // move).
    let mut rng = StdRng::seed_from_u64(16);
    let trace: Vec<Vec<Goldilocks>> = (0..5)
        .map(|_| (0..256).map(|_| Goldilocks::random(&mut rng)).collect())
        .collect();
    let config = FriConfig::standard();
    let commitment = commit_trace(&trace, &config, &mut LdeBackend::cpu());
    assert_eq!(commitment.content_digest(), 0x6062_4f55_7ffe_cf3a);
    assert!(verify_trace(&commitment, &config));
}

/// The permutation as first written — round constants rebuilt from the
/// π digits, the full 8×8 circulant product — kept as the oracle for the
/// sparse mix.
fn permute_dense(state: &mut [Goldilocks; WIDTH]) {
    const ROUND_CONSTANTS: [u64; ROUNDS * WIDTH] = [
        0x3141592653589793,
        0x2384626433832795,
        0x0288419716939937,
        0x5105820974944592,
        0x3078164062862089,
        0x9862803482534211,
        0x7067982148086513,
        0x2823066470938446,
        0x0955058223172535,
        0x9408128481117450,
        0x2841027019385211,
        0x0555964462294895,
        0x4930381964428810,
        0x9756659334461284,
        0x7564823378678316,
        0x5271201909145648,
        0x5669234603486104,
        0x5432664821339360,
        0x7260249141273724,
        0x5870066063155881,
        0x7488152092096282,
        0x9254091715364367,
        0x8925903600113305,
        0x3054882046652138,
        0x4146951941511609,
        0x4330572703657595,
        0x9195309218611738,
        0x1932611793105118,
        0x5480744623799627,
        0x4956735188575272,
        0x4891227938183011,
        0x9491298336733624,
        0x4065664308602139,
        0x4946395224737190,
        0x7021798609437027,
        0x7053921717629317,
        0x6759859050244594,
        0x5534690830264252,
        0x2308253344685035,
        0x2619311881710100,
        0x0313783875288658,
        0x7533208381420617,
        0x1771309960518707,
        0x2113499999983729,
        0x7804995105973173,
        0x2816096318595024,
        0x4594553469083026,
        0x4252230825334468,
        0x5035261931188171,
        0x0100313783875288,
        0x6587533208381420,
        0x6171771309960518,
        0x7072113499999983,
        0x7297804995105973,
        0x1732816096318595,
        0x0244594553469083,
    ];
    const C: [u64; WIDTH] = [2, 1, 1, 3, 1, 5, 1, 7];
    for r in 0..ROUNDS {
        for (i, s) in state.iter_mut().enumerate() {
            *s += Goldilocks::from_u64(ROUND_CONSTANTS[r * WIDTH + i]);
        }
        for s in state.iter_mut() {
            let x = *s;
            let x2 = x.square();
            let x4 = x2.square();
            *s = x4 * x2 * x;
        }
        let old = *state;
        for i in 0..WIDTH {
            let mut acc = Goldilocks::ZERO;
            for (j, &o) in old.iter().enumerate() {
                acc += o * Goldilocks::from_u64(C[(j + WIDTH - i) % WIDTH]);
            }
            state[i] = acc;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn permute_matches_the_dense_oracle(seed in any::<u64>()) {
        let mut sparse: [Goldilocks; WIDTH] = random_vec(WIDTH, seed).try_into().unwrap();
        let mut dense = sparse;
        permute(&mut sparse);
        permute_dense(&mut dense);
        prop_assert_eq!(sparse, dense);
    }

    /// States of `{0, 1, p − 1}`: the carry and borrow corners of the
    /// first round's adds and products.
    #[test]
    fn permute_matches_the_dense_oracle_on_edge_states(picks in 0u32..3u32.pow(WIDTH as u32)) {
        let edges = [0, 1, GOLDILOCKS_MODULUS - 1].map(Goldilocks::from_u64);
        let mut sparse: [Goldilocks; WIDTH] =
            core::array::from_fn(|i| edges[(picks / 3u32.pow(i as u32) % 3) as usize]);
        let mut dense = sparse;
        permute(&mut sparse);
        permute_dense(&mut dense);
        prop_assert_eq!(sparse, dense);
    }
}

#[test]
fn permute_matches_the_dense_oracle_on_uniform_edge_states() {
    for v in [0, 1, GOLDILOCKS_MODULUS - 1] {
        let mut sparse = [Goldilocks::from_u64(v); WIDTH];
        let mut dense = sparse;
        permute(&mut sparse);
        permute_dense(&mut dense);
        assert_eq!(sparse, dense, "v={v:#x}");
    }
}

/// Bands mixing full lane groups with a scalar remainder (and, on a CPU
/// without the wide lanes, all-remainder): every length either side of
/// the group size, every width either side of the rate.
const BAND_LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 31, 64];

#[test]
fn hash_rows_matches_per_row_hashing() {
    for width in [0usize, 1, 2, 4, 5, 8, 9] {
        for rows in BAND_LENGTHS {
            let values = random_vec(rows * width, (width * 100 + rows) as u64);
            let mut batched = vec![Digest::zero(); rows];
            hash_rows(&values, width, &mut batched);
            for (r, d) in batched.iter().enumerate() {
                let row = &values[r * width..][..width];
                assert_eq!(*d, hash_elements(row), "width={width} rows={rows} r={r}");
            }
        }
    }
}

#[test]
fn hash_rows_matches_per_row_hashing_on_edge_values() {
    // Rows of `{0, 1, p − 1}` push every lane's adds and products to
    // their carry and borrow corners.
    let edges = [0, 1, GOLDILOCKS_MODULUS - 1].map(Goldilocks::from_u64);
    for width in [4usize, 8] {
        let values: Vec<Goldilocks> = (0..64 * width)
            .map(|i| edges[(i / 3usize.pow((i % width) as u32 % 5)) % 3])
            .collect();
        let mut batched = vec![Digest::zero(); 64];
        hash_rows(&values, width, &mut batched);
        for (r, d) in batched.iter().enumerate() {
            assert_eq!(*d, hash_elements(&values[r * width..][..width]), "r={r}");
        }
    }
    let all_max = vec![edges[2]; 16 * 8];
    let mut batched = vec![Digest::zero(); 16];
    hash_rows(&all_max, 8, &mut batched);
    assert!(batched.iter().all(|d| *d == hash_elements(&all_max[..8])));
}

#[test]
fn compress_pairs_matches_per_pair_compression() {
    for parents in BAND_LENGTHS {
        let children: Vec<Digest> = random_vec(8 * parents, 700 + parents as u64)
            .chunks(4)
            .map(|c| Digest([c[0], c[1], c[2], c[3]]))
            .collect();
        let mut batched = vec![Digest::zero(); parents];
        compress_pairs(&children, &mut batched);
        for (k, d) in batched.iter().enumerate() {
            let expected = compress(&children[2 * k], &children[2 * k + 1]);
            assert_eq!(*d, expected, "parents={parents} k={k}");
        }
    }
}

#[test]
fn ragged_band_cut_from_a_larger_matrix() {
    // 21 rows starting at row 3 of a 40-row matrix: two full groups and
    // a remainder of five, none of them aligned to the matrix.
    let width = 5;
    let values = random_vec(40 * width, 800);
    let band = &values[3 * width..24 * width];
    let mut batched = vec![Digest::zero(); 21];
    hash_rows(band, width, &mut batched);
    for (r, d) in batched.iter().enumerate() {
        assert_eq!(
            *d,
            hash_elements(&values[(3 + r) * width..][..width]),
            "r={r}"
        );
    }
}

/// The tree as the serial loop built it: one `hash_elements` per leaf,
/// one `compress` per interior node, heap order.
fn naive_nodes(values: &[Goldilocks], width: usize) -> Vec<Digest> {
    let leaves = values.len() / width;
    let mut nodes = vec![Digest::zero(); 2 * leaves];
    for (j, row) in values.chunks(width).enumerate() {
        nodes[leaves + j] = hash_elements(row);
    }
    for i in (1..leaves).rev() {
        nodes[i] = compress(&nodes[2 * i], &nodes[2 * i + 1]);
    }
    nodes
}

#[test]
fn merkle_tree_matches_a_naive_serial_tree() {
    // 256 is one band exactly, 512 and 1024 fork on the pool.
    let width = 3;
    for leaves in [1usize, 2, 256, 512, 1024] {
        let values = random_vec(leaves * width, 900 + leaves as u64);
        let naive = naive_nodes(&values, width);
        let tree = MerkleTree::commit_matrix(&values, width);
        assert_eq!(tree.root(), naive[1], "leaves={leaves}");
        for index in 0..leaves {
            let path = tree.open(&values, index);
            assert_eq!(path.row, values[index * width..][..width]);
            let mut pos = leaves + index;
            for sibling in &path.siblings {
                assert_eq!(*sibling, naive[pos ^ 1], "leaves={leaves} index={index}");
                pos /= 2;
            }
            assert_eq!(pos, 1, "path ends at the root");
            assert!(path.verify(&tree.root()));
        }
    }
}

#[test]
fn row_vec_adapter_builds_the_same_tree() {
    let values = random_vec(512 * 8, 950);
    let rows: Vec<Vec<Goldilocks>> = values.chunks(8).map(<[_]>::to_vec).collect();
    assert_eq!(
        MerkleTree::commit(&rows).root(),
        MerkleTree::commit_matrix(&values, 8).root()
    );
}
