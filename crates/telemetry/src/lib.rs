//! Unified telemetry for the UniNTT stack: simulated-clock spans, a
//! metrics registry, and Perfetto/flamegraph exporters.
//!
//! Every layer of the simulation — warp-level kernels, the multi-GPU
//! fabric, the cluster, the proving service — charges the same simulated
//! clock. This crate records that clock's structure: *spans* (closed
//! intervals on named tracks, nested per the paper's hierarchy), *instant
//! events* (faults, retransmissions, lease repairs, coalescer flushes),
//! and *metrics* (counters / gauges / histograms with Prometheus text
//! exposition). Because no wall-clock time is ever involved, telemetry is
//! deterministic: two identical runs produce byte-identical traces.
//!
//! # Zero cost when disabled
//!
//! Recording is **off by default**. Every recording entry point takes a
//! closure and begins with one relaxed atomic load; when disabled the
//! closure is never invoked, so the hot path performs no allocation and
//! no locking (see `tests/zero_alloc.rs`). This is what keeps the
//! benchmark numbers byte-identical whether or not the crate is linked.
//!
//! # Sessions
//!
//! Tests and experiments run concurrently in one process, so the global
//! sink is guarded by a session lock: [`start_session`] clears state,
//! enables recording and returns a [`SessionGuard`]; dropping the guard
//! disables recording again. Drain with [`take_session`] while holding
//! the guard.
//!
//! A session has *members*: the thread that opened it, and any thread
//! while it runs work the opener forked ([`adopt`]). Only members record,
//! which shuts out unrelated work running concurrently in the same
//! process (other tests exercising instrumented engines) without any
//! lock on the record path. Code that forks instrumented work over a
//! pool carries the membership across: read [`recording`] where the
//! tasks are spawned and run each task under `adopt(that, ..)`. Counter
//! adds commute, so what a run counts does not depend on the pool size.

#![warn(missing_docs)]

mod export;
mod hist;
mod json;
mod latency;
mod registry;
mod slo;
mod span;
mod time;
mod tree;

pub use export::{chrome_trace_json, folded_stacks};
pub use hist::{StreamHist, MAX_REL_ERROR, SUB_BUCKETS};
pub use json::{parse as parse_json, validate_chrome_trace, JsonValue, TraceSummary};
pub use latency::LatencyStats;
pub use registry::{escape_label_value, Histogram, LabelPairs, Registry, DEFAULT_NS_BUCKETS};
pub use slo::{Alert, BurnWindows, Objective, SloEngine, SloEvent, SloSpec};
pub use span::{AttrValue, Instant, InstantKind, Session, Span, SpanLevel};
pub use time::SimTime;
pub use tree::SpanTree;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Session> = Mutex::new(Session::empty());
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::empty());
static SESSION_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether this thread is a member of the active session: set on the
    /// thread that opened it for the session's lifetime, and on any other
    /// thread for the duration of an [`adopt`]ed task.
    static MEMBER: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether recording is currently enabled. One relaxed atomic load —
/// this is the entire disabled-path cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Prefer [`start_session`], which also
/// serializes concurrent telemetry users and resets state.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether *this thread* may record right now: telemetry is enabled and
/// the thread is a member of the session (it opened it, or is running an
/// [`adopt`]ed task). Starts with the same single relaxed load as
/// [`enabled`], so disabled call sites stay free.
#[inline]
pub fn recording() -> bool {
    enabled() && MEMBER.with(Cell::get)
}

/// Runs `f` with this thread's session membership set to `member`, and
/// restores what it was afterwards (also if `f` unwinds). How forked work
/// records as its opener would: capture [`recording`] on the thread that
/// spawns the tasks and run each under `adopt(captured, ..)`; a task
/// forked from inside an adopted one inherits the same way, and a task of
/// an unrelated scope that a member thread happens to run does not
/// record. One relaxed load and nothing else while telemetry is off.
#[inline]
pub fn adopt<R>(member: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            MEMBER.with(|m| m.set(self.0));
        }
    }
    if !enabled() {
        return f();
    }
    let _restore = Restore(MEMBER.with(|m| m.replace(member)));
    f()
}

/// Allocates a session-unique span id.
pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Reserves a span id for a parent whose span will be recorded after its
/// children, or `None` when telemetry is disabled. Lets call sites hand
/// children an explicit `parent` id without recording the root first.
#[inline]
pub fn reserve_span_id() -> Option<u64> {
    if recording() {
        Some(fresh_id())
    } else {
        None
    }
}

/// Records a closed span. The closure only runs when telemetry is
/// enabled, so disabled call sites pay one atomic load and nothing else.
#[inline]
pub fn record_span(make: impl FnOnce() -> Span) {
    if !recording() {
        return;
    }
    let span = make();
    lock(&SINK).spans.push(span);
}

/// Records an instant event; same cost contract as [`record_span`].
#[inline]
pub fn record_instant(make: impl FnOnce() -> Instant) {
    if !recording() {
        return;
    }
    let instant = make();
    lock(&SINK).instants.push(instant);
}

/// Adds to a counter when enabled. Metric names are `&'static str`, so
/// the enabled path allocates only on first insertion.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !recording() {
        return;
    }
    lock(&REGISTRY).counter_add(name, delta);
}

/// Adds to a labeled counter when enabled (one numeric label per
/// series, e.g. `serve_shed_jobs{tenant="3"}`). Same cost contract as
/// [`counter_add`]: fully static keys, no allocation on the hot path.
#[inline]
pub fn counter_add_labeled(name: &'static str, label: &'static str, value: u64, delta: u64) {
    if !recording() {
        return;
    }
    lock(&REGISTRY).counter_add_labeled(name, label, value, delta);
}

/// Sets a gauge when enabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !recording() {
        return;
    }
    lock(&REGISTRY).gauge_set(name, value);
}

/// Raises a gauge to a new maximum when enabled.
#[inline]
pub fn gauge_max(name: &'static str, value: f64) {
    if !recording() {
        return;
    }
    lock(&REGISTRY).gauge_max(name, value);
}

/// Sets a labeled gauge series when enabled (e.g.
/// `slo_burn_rate{class="raw-ntt",slo="avail",tenant="3"}`). List the
/// labels alphabetically by key; values are escaped at exposition time.
/// The enabled path allocates for the label values — use on report and
/// control-loop surfaces, not per-kernel hot paths.
#[inline]
pub fn gauge_set_labeled(name: &'static str, labels: &[(&'static str, &str)], value: f64) {
    if !recording() {
        return;
    }
    lock(&REGISTRY).gauge_set_labeled(name, labels, value);
}

/// Observes a histogram sample when enabled.
#[inline]
pub fn histogram_observe(name: &'static str, value: f64) {
    if !recording() {
        return;
    }
    lock(&REGISTRY).histogram_observe(name, value);
}

/// Drains and returns everything recorded so far, leaving the sink
/// empty (recording stays in whatever state it was).
pub fn take_session() -> Session {
    std::mem::take(&mut *lock(&SINK))
}

/// Discards everything recorded so far.
pub fn clear_session() {
    lock(&SINK).spans.clear();
    lock(&SINK).instants.clear();
}

/// A copy of the current metrics registry.
pub fn registry_snapshot() -> Registry {
    lock(&REGISTRY).clone()
}

/// Renders the current registry in Prometheus text exposition format.
pub fn render_prometheus() -> String {
    lock(&REGISTRY).render_prometheus()
}

/// Serializes access to the global sink across threads. Held by
/// [`SessionGuard`]; recording is disabled when the guard drops.
pub struct SessionGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        set_enabled(false);
        MEMBER.with(|m| m.set(false));
        clear_session();
        lock(&REGISTRY).clear();
    }
}

/// Begins an exclusive telemetry session: waits for any other session to
/// finish, clears the sink, the registry and the id counter (so traces
/// are deterministic run-to-run), makes the calling thread the session's
/// first member (see [`recording`]) and enables it. Recording stops when
/// the returned guard drops (on this same thread: the guard is `!Send`).
pub fn start_session() -> SessionGuard {
    let guard = lock(&SESSION_LOCK);
    clear_session();
    lock(&REGISTRY).clear();
    NEXT_ID.store(1, Ordering::Relaxed);
    MEMBER.with(|m| m.set(true));
    set_enabled(true);
    SessionGuard { _lock: guard }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = lock(&SESSION_LOCK);
        set_enabled(false);
        clear_session();
        record_span(|| unreachable!("closure must not run when disabled"));
        record_instant(|| unreachable!("closure must not run when disabled"));
        counter_add("nope", 1);
        assert!(take_session().is_empty());
        assert_eq!(reserve_span_id(), None);
    }

    #[test]
    fn session_guard_enables_records_and_disables() {
        let spans = {
            let _g = start_session();
            assert!(enabled());
            record_span(|| Span {
                id: fresh_id(),
                parent: None,
                name: "k".into(),
                level: SpanLevel::Device,
                category: "compute",
                track: "gpu0".into(),
                t_start: SimTime::ZERO,
                t_end: SimTime::from_ns(5.0),
                attrs: vec![],
            });
            counter_add("kernels", 1);
            assert_eq!(registry_snapshot().counters["kernels"], 1);
            take_session().spans
        };
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, 1, "ids restart per session");
        assert!(!enabled(), "guard drop disables recording");
    }

    #[test]
    fn sessions_reset_ids_for_determinism() {
        let first = {
            let _g = start_session();
            fresh_id()
        };
        let second = {
            let _g = start_session();
            fresh_id()
        };
        assert_eq!(first, second);
    }
}
