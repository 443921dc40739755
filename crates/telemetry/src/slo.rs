//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states an objective — availability ("99.9 % of jobs
//! complete") or latency ("99 % of jobs finish within 2 ms") — scoped to
//! a tenant and/or job class. The [`SloEngine`] consumes the stream of
//! per-job [`SloEvent`]s on the *simulated* clock and evaluates the
//! **burn rate**: the rate at which the error budget (`1 − target`) is
//! being spent, where burn 1.0 exhausts the budget exactly at the
//! objective's horizon and burn 14.4 exhausts a 30-day budget in two
//! days (the classic paging threshold).
//!
//! Following the multi-window pattern, an alert fires only when the
//! burn rate exceeds its threshold over **both** a fast window (default
//! 5 min — "it is still happening") and a slow window (default 1 h —
//! "it is sustained, not a blip"). Windows slide on the simulated
//! clock in fixed-width buckets, so evaluation is O(buckets) memory and
//! fully deterministic: two identical runs produce byte-identical alert
//! streams.
//!
//! Firing emits a typed [`Alert`] (also recorded into the telemetry
//! session as an [`InstantKind::Alert`](crate::InstantKind::Alert)
//! instant on the `slo` track) and updates the
//! `slo_burn_rate{class,slo,tenant}` gauge — the input surface a
//! closed-loop autoscaler consumes.

use std::collections::VecDeque;

use crate::span::{Instant, InstantKind};

/// Sliding-window buckets per window (memory and time resolution).
const WINDOW_BUCKETS: i64 = 32;

/// One job-level service-level indicator sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloEvent {
    /// When the job reached its terminal state, simulated ns.
    pub t_ns: f64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Job class name (see `JobClass::name` in the serve crate).
    pub class: &'static str,
    /// True when the job completed successfully (availability SLI).
    pub ok: bool,
    /// Sojourn latency, ns (latency SLI; ignored for failed jobs).
    pub latency_ns: f64,
}

/// What an [`SloSpec`] promises.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// At least `target` of jobs complete successfully.
    Availability {
        /// Good fraction promised (e.g. `0.999`).
        target: f64,
    },
    /// At least `target` of completed jobs finish within `threshold_ns`.
    Latency {
        /// The latency bound, simulated ns.
        threshold_ns: f64,
        /// Good fraction promised (e.g. `0.99`).
        target: f64,
    },
}

impl Objective {
    /// The error budget: the tolerated bad fraction.
    pub fn budget(&self) -> f64 {
        let target = match *self {
            Objective::Availability { target } => target,
            Objective::Latency { target, .. } => target,
        };
        (1.0 - target).max(f64::EPSILON)
    }

    /// Whether `ev` is a good event under this objective.
    fn is_good(&self, ev: &SloEvent) -> bool {
        match *self {
            Objective::Availability { .. } => ev.ok,
            Objective::Latency { threshold_ns, .. } => ev.ok && ev.latency_ns <= threshold_ns,
        }
    }
}

/// Fast/slow window shapes and burn thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurnWindows {
    /// Fast ("it is still happening") window, simulated ns.
    pub fast_ns: f64,
    /// Slow ("it is sustained") window, simulated ns.
    pub slow_ns: f64,
    /// Burn rate that fires the fast window.
    pub fast_threshold: f64,
    /// Burn rate that fires the slow window.
    pub slow_threshold: f64,
    /// Events required in the slow window before alerting arms (a burn
    /// rate over a handful of jobs is noise).
    pub min_events: u64,
}

impl Default for BurnWindows {
    /// The classic paging pair: burn ≥ 14.4 over both 5 min and 1 h.
    fn default() -> Self {
        Self {
            fast_ns: 5.0 * 60.0 * 1e9,
            slow_ns: 3600.0 * 1e9,
            fast_threshold: 14.4,
            slow_threshold: 14.4,
            min_events: 8,
        }
    }
}

impl BurnWindows {
    /// Windows scaled to a short simulated horizon: fast = `horizon/24`,
    /// slow = `horizon/6`, same default thresholds. Lets experiments
    /// whose whole run spans milliseconds keep the multi-window
    /// semantics the 5 min / 1 h defaults give a real deployment.
    pub fn scaled_to(horizon_ns: f64) -> Self {
        Self {
            fast_ns: horizon_ns / 24.0,
            slow_ns: horizon_ns / 6.0,
            ..Self::default()
        }
    }
}

/// One declarative objective, scoped to a tenant and/or class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Stable alert/gauge name (e.g. `"raw-ntt-availability"`).
    pub name: &'static str,
    /// Only events from this tenant count (all tenants when `None`).
    pub tenant: Option<u32>,
    /// Only events of this class count (all classes when `None`).
    pub class: Option<&'static str>,
    /// The promise.
    pub objective: Objective,
    /// Window shapes and thresholds.
    pub windows: BurnWindows,
}

impl SloSpec {
    fn matches(&self, ev: &SloEvent) -> bool {
        self.tenant.is_none_or(|t| t == ev.tenant) && self.class.is_none_or(|c| c == ev.class)
    }
}

/// A burn-rate alert: both windows exceeded their thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Alert {
    /// The violated spec's name.
    pub spec: &'static str,
    /// Simulated instant the alert fired, ns.
    pub t_ns: f64,
    /// Fast-window burn rate at the firing instant.
    pub fast_burn: f64,
    /// Slow-window burn rate at the firing instant.
    pub slow_burn: f64,
}

/// A fixed-bucket sliding window of good/bad counts.
#[derive(Clone, Debug, Default)]
struct Window {
    /// Bucket width, ns.
    width_ns: f64,
    /// Live buckets, oldest first: (bucket index, good, bad).
    buckets: VecDeque<(i64, u64, u64)>,
    good: u64,
    bad: u64,
}

impl Window {
    fn new(span_ns: f64) -> Self {
        Self {
            width_ns: (span_ns / WINDOW_BUCKETS as f64).max(f64::MIN_POSITIVE),
            ..Self::default()
        }
    }

    fn record(&mut self, t_ns: f64, good: bool) {
        let idx = (t_ns / self.width_ns).floor() as i64;
        // Expire buckets that slid out of the window.
        while let Some(&(front, g, b)) = self.buckets.front() {
            if front > idx - WINDOW_BUCKETS {
                break;
            }
            self.good -= g;
            self.bad -= b;
            self.buckets.pop_front();
        }
        match self.buckets.back_mut() {
            Some(back) if back.0 == idx => {
                back.1 += u64::from(good);
                back.2 += u64::from(!good);
            }
            _ => self
                .buckets
                .push_back((idx, u64::from(good), u64::from(!good))),
        }
        self.good += u64::from(good);
        self.bad += u64::from(!good);
    }

    fn total(&self) -> u64 {
        self.good + self.bad
    }

    /// Bad fraction over the window (0 when empty).
    fn bad_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.bad as f64 / total as f64
        }
    }
}

/// Rolling evaluation state for one spec.
#[derive(Clone, Debug)]
struct SpecState {
    fast: Window,
    slow: Window,
    firing: bool,
    last_fast_burn: f64,
    last_slow_burn: f64,
}

/// The burn-rate engine: feed it job events in completion order.
#[derive(Clone, Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<SpecState>,
    alerts: Vec<Alert>,
    last_t_ns: f64,
}

impl SloEngine {
    /// Builds an engine over the given objectives.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let states = specs
            .iter()
            .map(|s| SpecState {
                fast: Window::new(s.windows.fast_ns),
                slow: Window::new(s.windows.slow_ns),
                firing: false,
                last_fast_burn: 0.0,
                last_slow_burn: 0.0,
            })
            .collect();
        Self {
            specs,
            states,
            alerts: Vec::new(),
            last_t_ns: 0.0,
        }
    }

    /// Consumes one event. Events must arrive in non-decreasing `t_ns`
    /// order (replay outcomes sorted by completion time); earlier
    /// timestamps are clamped to the clock's high-water mark.
    pub fn record(&mut self, ev: &SloEvent) {
        let t_ns = ev.t_ns.max(self.last_t_ns);
        self.last_t_ns = t_ns;
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            if !spec.matches(ev) {
                continue;
            }
            let good = spec.objective.is_good(ev);
            state.fast.record(t_ns, good);
            state.slow.record(t_ns, good);
            let budget = spec.objective.budget();
            let fast_burn = state.fast.bad_fraction() / budget;
            let slow_burn = state.slow.bad_fraction() / budget;
            state.last_fast_burn = fast_burn;
            state.last_slow_burn = slow_burn;
            crate::gauge_set_labeled(
                "slo_burn_rate",
                &[
                    ("class", spec.class.unwrap_or("all")),
                    ("slo", spec.name),
                    (
                        "tenant",
                        &spec.tenant.map_or("all".into(), |t| t.to_string()),
                    ),
                ],
                fast_burn,
            );
            let armed = state.slow.total() >= spec.windows.min_events;
            let over = fast_burn >= spec.windows.fast_threshold
                && slow_burn >= spec.windows.slow_threshold;
            if armed && over && !state.firing {
                state.firing = true;
                self.alerts.push(Alert {
                    spec: spec.name,
                    t_ns,
                    fast_burn,
                    slow_burn,
                });
                crate::record_instant(|| Instant {
                    name: spec.name.to_string(),
                    kind: InstantKind::Alert,
                    track: String::from("slo"),
                    t: crate::SimTime::from_ns(t_ns),
                    attrs: vec![
                        ("fast_burn", fast_burn.into()),
                        ("slow_burn", slow_burn.into()),
                    ],
                });
                crate::counter_add("slo_alerts_fired", 1);
            } else if state.firing && fast_burn < spec.windows.fast_threshold / 2.0 {
                // Hysteresis: re-arm once the fast window has clearly
                // recovered, so a later, separate degradation re-fires.
                state.firing = false;
            }
        }
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Final `(spec name, fast burn, slow burn)` per spec.
    pub fn burn_rates(&self) -> Vec<(&'static str, f64, f64)> {
        self.specs
            .iter()
            .zip(self.states.iter())
            .map(|(s, st)| (s.name, st.last_fast_burn, st.last_slow_burn))
            .collect()
    }

    /// The configured specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail_spec(windows: BurnWindows) -> SloSpec {
        SloSpec {
            name: "avail",
            tenant: None,
            class: None,
            objective: Objective::Availability { target: 0.99 },
            windows,
        }
    }

    fn windows(horizon_ns: f64) -> BurnWindows {
        BurnWindows {
            min_events: 4,
            ..BurnWindows::scaled_to(horizon_ns)
        }
    }

    fn ev(t_ns: f64, ok: bool) -> SloEvent {
        SloEvent {
            t_ns,
            tenant: 0,
            class: "raw-ntt",
            ok,
            latency_ns: 1000.0,
        }
    }

    #[test]
    fn clean_stream_never_alerts() {
        let mut eng = SloEngine::new(vec![avail_spec(windows(1e6))]);
        for i in 0..1000 {
            eng.record(&ev(i as f64 * 1e3, true));
        }
        assert!(eng.alerts().is_empty());
        let rates = eng.burn_rates();
        assert_eq!(rates[0].1, 0.0);
    }

    #[test]
    fn sustained_failures_alert_once_per_episode() {
        let mut eng = SloEngine::new(vec![avail_spec(windows(1e6))]);
        // Clean warm-up, a failure burst, recovery, a second burst.
        for i in 0..200 {
            eng.record(&ev(i as f64 * 1e3, true));
        }
        for i in 200..260 {
            eng.record(&ev(i as f64 * 1e3, false));
        }
        for i in 260..700 {
            eng.record(&ev(i as f64 * 1e3, true));
        }
        for i in 700..760 {
            eng.record(&ev(i as f64 * 1e3, false));
        }
        let alerts = eng.alerts();
        assert_eq!(alerts.len(), 2, "one alert per degradation: {alerts:?}");
        assert!(alerts[0].t_ns >= 200e3 && alerts[0].t_ns < 260e3);
        assert!(alerts[1].t_ns >= 700e3 && alerts[1].t_ns < 760e3);
        assert!(alerts[0].fast_burn >= 14.4);
        assert!(alerts[0].slow_burn >= 14.4);
    }

    #[test]
    fn latency_objective_counts_slow_jobs_as_bad() {
        let spec = SloSpec {
            name: "lat",
            tenant: None,
            class: None,
            // NB: burn rate is capped at `1/budget`, so the default 14.4
            // threshold is only reachable for targets above ~0.93.
            objective: Objective::Latency {
                threshold_ns: 500.0,
                target: 0.99,
            },
            windows: windows(1e6),
        };
        let mut eng = SloEngine::new(vec![spec]);
        for i in 0..100 {
            let mut e = ev(i as f64 * 1e3, true);
            e.latency_ns = if i >= 50 { 10_000.0 } else { 100.0 };
            eng.record(&e);
        }
        assert!(
            !eng.alerts().is_empty(),
            "a latency regression must burn the budget"
        );
    }

    #[test]
    fn tenant_and_class_scoping() {
        let spec = SloSpec {
            name: "t3",
            tenant: Some(3),
            class: Some("raw-ntt"),
            objective: Objective::Availability { target: 0.99 },
            windows: windows(1e6),
        };
        let mut eng = SloEngine::new(vec![spec]);
        for i in 0..100 {
            let mut e = ev(i as f64 * 1e3, false);
            e.tenant = 1; // wrong tenant: never counts
            eng.record(&e);
        }
        assert!(eng.alerts().is_empty(), "scoped spec must ignore others");
        for i in 100..200 {
            let mut e = ev(i as f64 * 1e3, false);
            e.tenant = 3;
            eng.record(&e);
        }
        assert!(!eng.alerts().is_empty());
    }

    #[test]
    fn min_events_gate_suppresses_noise() {
        let w = BurnWindows {
            min_events: 50,
            ..windows(1e6)
        };
        let mut eng = SloEngine::new(vec![avail_spec(w)]);
        for i in 0..10 {
            eng.record(&ev(i as f64 * 1e3, false));
        }
        assert!(eng.alerts().is_empty(), "under min_events nothing fires");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut eng = SloEngine::new(vec![avail_spec(windows(1e6))]);
            for i in 0..500 {
                eng.record(&ev(i as f64 * 997.0, i % 37 != 0));
            }
            eng.alerts().to_vec()
        };
        assert_eq!(run(), run());
    }
}
