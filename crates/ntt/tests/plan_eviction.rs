//! A context holds its table and plan: shrinking the process-wide caches
//! to one entry and churning other sizes through them evicts both, and
//! the context must go on transforming. One test, in a process of its
//! own: `set_cache_capacity` is global, and the unit tests that assert
//! two lookups share one `Arc` must not run beside it.

use unintt_ff::{BabyBear, Field, Goldilocks, PrimeField};
use unintt_ntt::{cache_capacity, set_cache_capacity, Ntt};

#[test]
fn a_context_outlives_the_eviction_of_its_plan() {
    let ntt = Ntt::<Goldilocks>::new(7);
    let input: Vec<Goldilocks> = (0..128u64).map(|i| Goldilocks::from_u64(i * i)).collect();
    let mut expected = input.clone();
    ntt.forward(&mut expected);

    let capacity = cache_capacity();
    set_cache_capacity(1);
    for log_n in 0..4 {
        Ntt::<BabyBear>::new(log_n).forward(&mut vec![BabyBear::ONE; 1 << log_n]);
    }
    set_cache_capacity(capacity);

    let mut again = input.clone();
    ntt.forward(&mut again);
    assert_eq!(again, expected);
    ntt.inverse_columns(&mut again);
    ntt.forward_columns(&mut again);
    assert_eq!(again, expected);
    ntt.inverse(&mut again);
    assert_eq!(again, input);
    // A context built after the churn rebuilds what was evicted.
    let mut fresh = input;
    Ntt::<Goldilocks>::new(7).forward(&mut fresh);
    assert_eq!(fresh, expected);
}
