//! The 256-bit Montgomery fields against a big-integer oracle.
//!
//! Every operator is compared, on canonical integers, with the same
//! operation done by plain carry chains, `U256::widening_mul` and binary
//! long division — no Montgomery form, no modular add, subtract or
//! multiply. Inputs are random, plus the stored values that sit on the
//! edges of the branch-free carry selects: `0`, `1`, `p − 1` (any sum
//! wraps), `R mod p` and `p − R mod p` (their sum is exactly `p`).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254FqParams, Bn254FrParams, Field, Mont, MontParams, PrimeField, U256};

/// `(hi·2^256 + lo) mod p` by binary long division; `p < 2^255`.
fn reduce_wide(lo: &U256, hi: &U256, p: &U256) -> U256 {
    let mut rem = hi.reduce(p);
    for i in (0..256).rev() {
        let mut shifted = rem.adc(&rem).0.limbs();
        shifted[0] |= u64::from(lo.bit(i));
        rem = U256::from_limbs(shifted).reduce(p);
    }
    rem
}

/// The element whose stored (Montgomery) value is `repr`.
fn with_repr<P: MontParams>(repr: U256) -> Mont<P> {
    let r_inv = Mont::<P>::from_u256(Mont::<P>::ONE.repr())
        .inverse()
        .expect("R is a unit");
    let x = Mont::<P>::from_u256(repr) * r_inv;
    assert_eq!(x.repr(), repr);
    x
}

/// Stored values on the carry edges, then random ones.
fn pick<P: MontParams>(which: usize, seed: u64) -> Mont<P> {
    let p = P::MODULUS;
    let r = Mont::<P>::ONE.repr();
    match which {
        0 => with_repr(U256::ZERO),
        1 => with_repr(U256::ONE),
        2 => with_repr(p.sbb(&U256::ONE).0),
        3 => with_repr(r),
        4 => with_repr(p.sbb(&r).0),
        _ => Mont::random(&mut StdRng::seed_from_u64(seed)),
    }
}

fn check_against_oracle<P: MontParams>(x: Mont<P>, y: Mont<P>) -> Result<(), TestCaseError> {
    let p = P::MODULUS;
    let (a, b) = (x.to_canonical_u256(), y.to_canonical_u256());
    prop_assert!(a.lt(&p) && b.lt(&p));
    prop_assert_eq!(Mont::<P>::from_u256(a), x);

    let mul = |a: &U256, b: &U256| {
        let (lo, hi) = a.widening_mul(b);
        reduce_wide(&lo, &hi, &p)
    };
    // a, b, p − b < 2^254: none of these sums carries out of 256 bits.
    let neg_b = p.sbb(&b).0;
    prop_assert_eq!((x + y).to_canonical_u256(), a.adc(&b).0.reduce(&p));
    prop_assert_eq!((x - y).to_canonical_u256(), a.adc(&neg_b).0.reduce(&p));
    prop_assert_eq!(x.double().to_canonical_u256(), a.adc(&a).0.reduce(&p));
    prop_assert_eq!((-y).to_canonical_u256(), neg_b.reduce(&p));
    prop_assert_eq!((x * y).to_canonical_u256(), mul(&a, &b));
    prop_assert_eq!(x.square().to_canonical_u256(), mul(&a, &a));
    // The stored values obey the same sums directly.
    prop_assert_eq!((x + y).repr(), x.repr().adc(&y.repr()).0.reduce(&p));
    Ok(())
}

proptest! {
    #[test]
    fn bn254_fr_matches_oracle(i in 0usize..8, j in 0usize..8, s in any::<u64>(), t in any::<u64>()) {
        check_against_oracle::<Bn254FrParams>(pick(i, s), pick(j, t))?;
    }

    #[test]
    fn bn254_fq_matches_oracle(i in 0usize..8, j in 0usize..8, s in any::<u64>(), t in any::<u64>()) {
        check_against_oracle::<Bn254FqParams>(pick(i, s), pick(j, t))?;
    }
}

#[test]
fn every_edge_pair_matches_oracle() {
    for i in 0..5 {
        for j in 0..5 {
            check_against_oracle::<Bn254FrParams>(pick(i, 0), pick(j, 0))
                .unwrap_or_else(|e| panic!("Fr edge pair ({i}, {j}): {e:?}"));
            check_against_oracle::<Bn254FqParams>(pick(i, 0), pick(j, 0))
                .unwrap_or_else(|e| panic!("Fq edge pair ({i}, {j}): {e:?}"));
        }
    }
}
