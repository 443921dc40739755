//! Proves the disabled hot path allocates nothing: a counting global
//! allocator wraps the system one, and every recording entry point is
//! driven with telemetry off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_sink_allocates_nothing() {
    unintt_telemetry::set_enabled(false);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..1000u64 {
        unintt_telemetry::record_span(|| -> unintt_telemetry::Span {
            unreachable!("span closure must not run while disabled")
        });
        unintt_telemetry::record_instant(|| -> unintt_telemetry::Instant {
            unreachable!("instant closure must not run while disabled")
        });
        unintt_telemetry::counter_add("hot_counter", i);
        unintt_telemetry::gauge_set("hot_gauge", i as f64);
        unintt_telemetry::gauge_max("hot_gauge_max", i as f64);
        unintt_telemetry::histogram_observe("hot_hist", i as f64);
        assert!(unintt_telemetry::reserve_span_id().is_none());
        // Carrying membership to forked work costs the same one load.
        assert!(!unintt_telemetry::adopt(true, unintt_telemetry::recording));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate on the hot path"
    );
}
