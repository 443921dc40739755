//! Process-wide plan and twiddle caches.
//!
//! Engines, provers and benches construct [`crate::Ntt`] contexts for the
//! same `(field, log_n)` pairs over and over (the ZKP backend builds one
//! per proof, the FRI pipeline two per LDE, the cluster engines one per
//! shard size…). Tables and kernel plans are immutable once built, so the
//! whole process shares them: one bounded LRU map keyed by
//! `(TypeId, log_n)` behind a mutex, holding `Arc`s. Both transform
//! directions live in the same entry (forward and inverse lanes are built
//! together), so the key `(field, log_n)` covers the
//! `(field, log_n, direction)` plan space.
//!
//! **Boundedness.** A long-lived process (the `unintt-serve` proving
//! service) must not let a churn of tenant sizes grow these maps without
//! limit, so both caches are LRU-bounded at [`cache_capacity`] entries
//! (settable via [`set_cache_capacity`]). Eviction only drops the cache's
//! own `Arc`; outstanding contexts keep their tables alive, and a
//! re-request simply rebuilds. The default capacity (64 entries per
//! cache) is far above any workload in this repository, so eviction is a
//! safety valve, not a steady-state behaviour.
//!
//! **Who holds what, and when the lock is taken.** A [`crate::Ntt`] takes
//! its table from here when it is constructed and its kernel plan on the
//! first transform that runs on it, and holds both `Arc`s for its own
//! lifetime. So a context costs one lookup at construction and one at
//! first use; a transform after that touches no mutex, no map and no
//! reference count here, however many threads share the context (the
//! simulator calls one context tens of thousands of times per transform,
//! from several pool workers at once). Six-step transforms resolve their
//! two row plans once per call, on the calling thread, before forking.
//!
//! The bit-reversal pair tables (see [`crate::bit_reverse_permute`]) are
//! cached here too, keyed by `log_n` alone — the permutation is
//! element-type agnostic and its entry count is already bounded by
//! [`MAX_CACHED_BITREV_BITS`].

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use unintt_ff::TwoAdicField;

use crate::twiddle::TwiddleTable;
use crate::vector::VectorPlan;

type AnyArc = Arc<dyn Any + Send + Sync>;

/// Default per-cache entry limit for the table and plan caches.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// A capacity-bounded LRU map: `get` refreshes recency, `insert` evicts
/// the least-recently-used entry once the map exceeds its capacity.
///
/// Recency is a monotonically increasing tick, so the eviction victim is
/// always unique and independent of `HashMap` iteration order — a
/// requirement for the workspace-wide determinism guarantees.
pub(crate) struct BoundedCache<K, V> {
    entries: HashMap<K, (V, u64)>,
    tick: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (clamped ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(v, last)| {
            *last = tick;
            v.clone()
        })
    }

    /// Inserts `value` under `key` unless an entry already exists (a
    /// racing builder keeps the first copy, mirroring the old
    /// `entry().or_insert_with()` semantics), then evicts down to
    /// capacity. Returns the resident value.
    pub(crate) fn insert(&mut self, key: K, value: V) -> V {
        self.tick += 1;
        let tick = self.tick;
        let resident = self
            .entries
            .entry(key.clone())
            .or_insert_with(|| (value, tick));
        resident.1 = tick;
        let out = resident.0.clone();
        self.evict_to_capacity(Some(&key));
        out
    }

    /// Changes the capacity, evicting immediately if now over it.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.evict_to_capacity(None);
    }

    /// Current capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if `key` currently resides in the cache (no recency bump).
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    fn evict_to_capacity(&mut self, keep: Option<&K>) {
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| Some(*k) != keep)
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                }
                None => break, // only the protected key remains
            }
        }
    }
}

type TypedCache = Mutex<BoundedCache<(TypeId, u32), AnyArc>>;

fn table_cache() -> &'static TypedCache {
    static CACHE: OnceLock<TypedCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BoundedCache::new(DEFAULT_CACHE_CAPACITY)))
}

fn vector_plan_cache() -> &'static TypedCache {
    static CACHE: OnceLock<TypedCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BoundedCache::new(DEFAULT_CACHE_CAPACITY)))
}

/// Sets the entry capacity of the process-wide twiddle-table and
/// kernel-plan caches (each holds at most this many `(field, log_n)`
/// entries; least-recently-used entries are evicted first). Values are
/// clamped to ≥ 1. Long-lived services call this once at startup.
pub fn set_cache_capacity(capacity: usize) {
    table_cache().lock().unwrap().set_capacity(capacity);
    vector_plan_cache().lock().unwrap().set_capacity(capacity);
}

/// The current per-cache entry capacity (see [`set_cache_capacity`]).
pub fn cache_capacity() -> usize {
    table_cache().lock().unwrap().capacity()
}

/// The entry of `cache` for `(T's field, log_n)`, built on a miss.
fn shared<T: Any + Send + Sync>(
    cache: &TypedCache,
    key: (TypeId, u32),
    build: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.downcast().expect("cache type invariant");
    }
    // Build outside the lock: large tables take real time and other sizes
    // shouldn't stall behind them. A racing builder just loses its copy.
    let built = Arc::new(build());
    let resident = cache.lock().unwrap().insert(key, built as AnyArc);
    resident.downcast().expect("cache type invariant")
}

/// The shared twiddle table for `(F, log_n)`, built on first request.
///
/// # Panics
///
/// Panics if `log_n` exceeds the field's two-adicity (as
/// [`TwiddleTable::new`] does).
pub fn shared_table<F: TwoAdicField>(log_n: u32) -> Arc<TwiddleTable<F>> {
    shared(table_cache(), (TypeId::of::<F>(), log_n), || {
        TwiddleTable::<F>::new(log_n)
    })
}

#[cfg(test)]
thread_local! {
    /// Plan-cache lookups made by this thread.
    pub(crate) static PLAN_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The shared vectorized-kernel plan (lane-packed per-stage tables plus
/// the pre-interleaved native-lane banks) for `(F, log_n)`. One memoized,
/// monomorphized instance per `(field, log_n)` pair; both directions live
/// in the entry. A [`crate::Ntt`] asks once, on its first direct-size
/// transform, and keeps the `Arc`.
pub(crate) fn shared_vector_plan<F: TwoAdicField>(log_n: u32) -> Arc<VectorPlan<F>> {
    #[cfg(test)]
    PLAN_LOOKUPS.with(|c| c.set(c.get() + 1));
    shared(vector_plan_cache(), (TypeId::of::<F>(), log_n), || {
        VectorPlan::new(&shared_table::<F>(log_n))
    })
}

/// Largest `log_n` whose bit-reversal swap pairs are cached (a pair table
/// at `2^20` is 4 MiB; larger permutations fall back to on-the-fly index
/// computation — a transform never bit-reverses at those sizes
/// anyway, it decomposes six-step instead).
pub(crate) const MAX_CACHED_BITREV_BITS: u32 = 20;

/// A cached table of bit-reversal swap pairs.
type BitrevPairs = Arc<Vec<(u32, u32)>>;

/// The swap pairs `(i, j)` with `i < j = reverse_bits(i)` for a size-`2^bits`
/// bit-reversal permutation, shared process-wide.
pub(crate) fn bitrev_pairs(bits: u32) -> BitrevPairs {
    assert!(bits <= MAX_CACHED_BITREV_BITS);
    static CACHE: OnceLock<Mutex<HashMap<u32, BitrevPairs>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&bits) {
        return Arc::clone(hit);
    }
    let n = 1usize << bits;
    let mut pairs = Vec::new();
    for i in 0..n {
        let j = crate::bitrev::reverse_bits(i, bits);
        if i < j {
            pairs.push((i as u32, j as u32));
        }
    }
    let built = Arc::new(pairs);
    let mut guard = cache.lock().unwrap();
    Arc::clone(guard.entry(bits).or_insert(built))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_ff::{BabyBear, Goldilocks, PrimeField};

    #[test]
    fn tables_are_shared_per_field_and_size() {
        let a = shared_table::<Goldilocks>(6);
        let b = shared_table::<Goldilocks>(6);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_table::<Goldilocks>(7);
        assert!(!Arc::ptr_eq(&a, &c));
        // Different field, same log_n: distinct entries.
        let d = shared_table::<BabyBear>(6);
        assert_eq!(d.log_n(), 6);
    }

    #[test]
    fn shared_table_matches_fresh_table() {
        let shared = shared_table::<Goldilocks>(8);
        let fresh = TwiddleTable::<Goldilocks>::new(8);
        assert_eq!(shared.forward(), fresh.forward());
        assert_eq!(shared.inverse(), fresh.inverse());
        assert_eq!(shared.n_inv(), fresh.n_inv());
    }

    #[test]
    fn bitrev_pairs_are_shared_and_correct() {
        let p = bitrev_pairs(4);
        assert!(Arc::ptr_eq(&p, &bitrev_pairs(4)));
        // Applying the pairs must equal the naive permutation.
        let mut via_pairs: Vec<u32> = (0..16).collect();
        for &(i, j) in p.iter() {
            via_pairs.swap(i as usize, j as usize);
        }
        let mut naive: Vec<u32> = (0..16).collect();
        let n = naive.len();
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = crate::bitrev::reverse_bits(i, bits);
            if i < j {
                naive.swap(i, j);
            }
        }
        assert_eq!(via_pairs, naive);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let mut cache: BoundedCache<u32, u32> = BoundedCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so that 2 becomes the LRU victim.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&1), "recently used entry must survive");
        assert!(!cache.contains(&2), "LRU entry must be evicted");
        assert!(cache.contains(&3));
    }

    #[test]
    fn bounded_cache_shrinks_on_capacity_change() {
        let mut cache: BoundedCache<u32, u32> = BoundedCache::new(8);
        for k in 0..8 {
            cache.insert(k, k);
        }
        // Refresh 6 and 7 so they are the most recent.
        cache.get(&6);
        cache.get(&7);
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&6) && cache.contains(&7));
    }

    #[test]
    fn bounded_cache_insert_keeps_first_copy() {
        let mut cache: BoundedCache<u32, u32> = BoundedCache::new(4);
        assert_eq!(cache.insert(1, 10), 10);
        // A racing builder's duplicate loses: the resident value wins.
        assert_eq!(cache.insert(1, 99), 10);
        assert_eq!(cache.get(&1), Some(10));
    }

    #[test]
    fn bounded_cache_capacity_clamps_to_one() {
        let mut cache: BoundedCache<u32, u32> = BoundedCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&2), "newest insert survives at capacity 1");
    }

    #[test]
    fn vector_plans_are_shared() {
        let a = shared_vector_plan::<Goldilocks>(5);
        let b = shared_vector_plan::<Goldilocks>(5);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_vector_plan::<BabyBear>(5);
        assert_eq!(c.log_n(), 5);
    }

    #[test]
    fn evicted_vector_plan_keeps_working() {
        // Eviction safety: a plan Arc held by a live Ntt context must keep
        // its pinned bit-reversal pair table (and twiddle banks) usable
        // after the cache drops its own reference.
        let held = shared_vector_plan::<Goldilocks>(9);
        let pairs_before = held.bitrev_pairs().expect("log_n=9 pairs are cached");
        {
            let mut guard = vector_plan_cache().lock().unwrap();
            let snapshot = guard.capacity();
            guard.set_capacity(1);
            guard.set_capacity(snapshot);
        }
        // Force churn so the held entry is no longer guaranteed resident.
        for log_n in 0..4 {
            let _ = shared_vector_plan::<BabyBear>(log_n);
        }
        let pairs_after = held.bitrev_pairs().expect("pinned pairs survive eviction");
        assert!(Arc::ptr_eq(pairs_before, pairs_after));
        // And the plan still transforms correctly end-to-end.
        let input: Vec<Goldilocks> = (0..512u64).map(Goldilocks::from_u64).collect();
        let mut via_held = input.clone();
        held.transform(&mut via_held, false);
        let mut via_fresh = input;
        shared_vector_plan::<Goldilocks>(9).transform(&mut via_fresh, false);
        assert_eq!(via_held, via_fresh);
    }

    #[test]
    fn a_context_looks_its_plan_up_at_most_once() {
        let input: Vec<Goldilocks> = (0..256u64).map(Goldilocks::from_u64).collect();
        let ntt = crate::Ntt::<Goldilocks>::new(8);
        let before = PLAN_LOOKUPS.with(|c| c.get());
        let mut values = input.clone();
        for _ in 0..500 {
            ntt.forward(&mut values);
            ntt.inverse(&mut values);
        }
        assert_eq!(values, input);
        assert_eq!(PLAN_LOOKUPS.with(|c| c.get()) - before, 1);

        let ntt = crate::Ntt::<BabyBear>::new(6);
        let before = PLAN_LOOKUPS.with(|c| c.get());
        let mut values = vec![BabyBear::from_u64(3); 64];
        for _ in 0..1000 {
            ntt.forward(&mut values);
        }
        assert_eq!(PLAN_LOOKUPS.with(|c| c.get()) - before, 1);
    }

    #[test]
    fn global_capacity_is_generous_by_default() {
        // The default must comfortably exceed every size the workspace
        // uses, so the ptr-sharing tests above stay meaningful.
        assert!(cache_capacity() >= 32);
    }
}
