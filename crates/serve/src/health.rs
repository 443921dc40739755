//! Per-cluster health tracking: a four-state machine driven by dispatch
//! results and probe jobs, with consecutive-failure circuit breaking and
//! exponential-backoff half-open recovery on the simulated clock.
//!
//! ```text
//!            failures < threshold          lost nodes
//!   Healthy ──────────────────────▶ Degraded
//!      ▲  ◀────────────────────────   │
//!      │      success resets          │ breaker trips
//!      │                              ▼
//!   Repairing ◀── probe succeeds ── Quarantined ──▶ (probe fails:
//!      │        (half-open)            ▲                backoff × 2)
//!      └── warmup elapses ─────────────┘
//! ```
//!
//! Backoff between probes grows exponentially per consecutive trip and
//! carries deterministic seeded jitter (a `splitmix64` draw over the
//! `(seed, cluster, trip)` triple) so co-quarantined clusters don't
//! probe in lockstep — yet two runs of the same fleet are bit-identical.

use unintt_gpu_sim::SimTime;

use crate::config::duration;

/// Tunables for the per-cluster [`HealthMachine`].
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Consecutive dispatch failures that trip the circuit breaker.
    pub failure_threshold: u32,
    /// First-trip backoff before the half-open probe, simulated ns.
    pub backoff_base_ns: f64,
    /// Backoff ceiling, simulated ns.
    pub backoff_max_ns: f64,
    /// Fractional jitter applied to each backoff (0.1 = ±10%).
    pub jitter_frac: f64,
    /// Simulated duration of one half-open probe job.
    pub probe_ns: f64,
    /// Warmup after a successful probe before the cluster re-admits
    /// production traffic (Repairing → Healthy), simulated ns.
    pub repair_warmup_ns: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            backoff_base_ns: 2.0e6,
            backoff_max_ns: 1.0e9,
            jitter_frac: 0.1,
            probe_ns: 100_000.0,
            repair_warmup_ns: 500_000.0,
            seed: 0x48ea_1742_5eed_0001,
        }
    }
}

/// Where a cluster sits in its health lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Serving normally.
    #[default]
    Healthy,
    /// Serving, but impaired (lost nodes or absorbed failures); the
    /// router prefers Healthy clusters and uses Degraded ones as
    /// fallback.
    Degraded,
    /// Circuit breaker open: no production traffic; a half-open probe is
    /// scheduled after the current backoff.
    Quarantined,
    /// Probe succeeded; warming back up before re-admission.
    Repairing,
}

impl HealthState {
    /// Short name for reports and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Repairing => "repairing",
        }
    }
}

/// The health state machine for one cluster.
#[derive(Clone, Debug)]
pub struct HealthMachine {
    cfg: HealthConfig,
    /// `backoff_base_ns`, `backoff_max_ns`, `probe_ns` and
    /// `repair_warmup_ns` on the event clock.
    backoff_base: SimTime,
    backoff_max: SimTime,
    probe: SimTime,
    warmup: SimTime,
    cluster: usize,
    state: HealthState,
    consecutive_failures: u32,
    /// Consecutive breaker trips without an intervening recovery —
    /// drives the exponential backoff.
    trips: u32,
    /// When Quarantined: the earliest instant the half-open probe may
    /// launch. When Repairing: when warmup completes. `None` otherwise.
    next_transition: Option<SimTime>,
    /// Lifetime count of breaker trips (metrics).
    pub total_quarantines: u64,
    /// Lifetime count of probes launched (metrics).
    pub total_probes: u64,
}

impl HealthMachine {
    /// A Healthy machine for cluster `cluster`.
    ///
    /// # Panics
    ///
    /// Panics unless every configured duration is finite and `>= 0` and
    /// the jitter fraction is finite.
    pub fn new(cfg: HealthConfig, cluster: usize) -> Self {
        assert!(
            cfg.jitter_frac.is_finite(),
            "jitter_frac must be finite, got {}",
            cfg.jitter_frac
        );
        Self {
            cfg,
            backoff_base: duration("backoff_base_ns", cfg.backoff_base_ns),
            backoff_max: duration("backoff_max_ns", cfg.backoff_max_ns),
            probe: duration("probe_ns", cfg.probe_ns),
            warmup: duration("repair_warmup_ns", cfg.repair_warmup_ns),
            cluster,
            state: HealthState::Healthy,
            consecutive_failures: 0,
            trips: 0,
            next_transition: None,
            total_quarantines: 0,
            total_probes: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// True when the router may send production traffic here.
    pub fn routable(&self) -> bool {
        matches!(self.state, HealthState::Healthy | HealthState::Degraded)
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// The next instant this machine wants the event loop's attention
    /// (probe launch or warmup completion), or `None` when idle.
    pub fn next_event(&self) -> Option<SimTime> {
        self.next_transition
    }

    /// A dispatch on this cluster succeeded: reset the failure streak;
    /// a Degraded cluster that strings together successes is re-promoted.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.trips = 0;
        if self.state == HealthState::Degraded {
            self.state = HealthState::Healthy;
        }
    }

    /// A dispatch on this cluster failed (lease died mid-batch, probe
    /// timeout, …). Returns `true` if this failure tripped the breaker
    /// into Quarantined.
    pub fn record_failure(&mut self, now: SimTime) -> bool {
        self.consecutive_failures += 1;
        if self.state == HealthState::Healthy {
            self.state = HealthState::Degraded;
        }
        if self.routable() && self.consecutive_failures >= self.cfg.failure_threshold {
            self.quarantine(now);
            return true;
        }
        false
    }

    /// Force the breaker open (chaos kill, whole-cluster loss): no
    /// production traffic until a probe succeeds.
    pub fn quarantine(&mut self, now: SimTime) {
        self.state = HealthState::Quarantined;
        self.total_quarantines += 1;
        self.trips += 1;
        self.next_transition = Some(now + self.backoff());
    }

    /// True when the half-open probe is due.
    pub fn probe_due(&self, now: SimTime) -> bool {
        self.state == HealthState::Quarantined && self.next_transition.is_some_and(|t| now >= t)
    }

    /// Resolve a half-open probe launched at `now`. On success the
    /// machine enters Repairing (warmup ends `probe_ns + repair_warmup_ns`
    /// later); on failure the backoff doubles and a new probe is
    /// scheduled. Returns the instant of the next transition.
    pub fn probe_result(&mut self, now: SimTime, ok: bool) -> SimTime {
        debug_assert_eq!(self.state, HealthState::Quarantined, "probes are half-open");
        self.total_probes += 1;
        let next = if ok {
            self.state = HealthState::Repairing;
            now + self.probe + self.warmup
        } else {
            self.trips += 1;
            now + self.probe + self.backoff()
        };
        self.next_transition = Some(next);
        next
    }

    /// Complete the Repairing warmup if due: the cluster returns to
    /// Healthy with a clean slate. Returns `true` on re-admission.
    pub fn try_readmit(&mut self, now: SimTime) -> bool {
        if self.state == HealthState::Repairing && self.next_transition.is_some_and(|t| now >= t) {
            self.state = HealthState::Healthy;
            self.consecutive_failures = 0;
            self.trips = 0;
            self.next_transition = None;
            return true;
        }
        false
    }

    /// The current backoff: `base · 2^(trips−1)` capped at the ceiling,
    /// with deterministic ±`jitter_frac` seeded jitter, and at least one
    /// picosecond, so a failing probe never reschedules itself at the
    /// instant it ran.
    fn backoff(&self) -> SimTime {
        let exp = self.trips.saturating_sub(1).min(30);
        let raw = SimTime(self.backoff_base.0.saturating_mul(1 << exp)).min(self.backoff_max);
        let draw = splitmix64(
            self.cfg
                .seed
                .wrapping_add((self.cluster as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_add(u64::from(self.trips).wrapping_mul(0xa076_1d64_78bd_642f)),
        );
        // Map the draw to [−jitter, +jitter].
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = raw.as_ns() * (1.0 + self.cfg.jitter_frac * (2.0 * unit - 1.0));
        SimTime::from_ns(jittered.max(0.0)).max(SimTime(1))
    }
}

/// The `splitmix64` mixer — one deterministic 64-bit draw per key.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn cfg() -> HealthConfig {
        HealthConfig {
            failure_threshold: 3,
            backoff_base_ns: 1_000.0,
            backoff_max_ns: 16_000.0,
            jitter_frac: 0.1,
            probe_ns: 100.0,
            repair_warmup_ns: 500.0,
            seed: 7,
        }
    }

    #[test]
    fn breaker_trips_after_consecutive_failures() {
        let mut m = HealthMachine::new(cfg(), 0);
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(!m.record_failure(ns(10.0)));
        assert_eq!(m.state(), HealthState::Degraded);
        assert!(!m.record_failure(ns(20.0)));
        assert!(
            m.record_failure(ns(30.0)),
            "third consecutive failure trips"
        );
        assert_eq!(m.state(), HealthState::Quarantined);
        assert!(!m.routable());
    }

    #[test]
    fn success_resets_the_streak() {
        let mut m = HealthMachine::new(cfg(), 0);
        m.record_failure(ns(10.0));
        m.record_failure(ns(20.0));
        m.record_success();
        assert_eq!(m.state(), HealthState::Healthy, "degraded recovers");
        assert!(!m.record_failure(ns(30.0)));
        assert!(!m.record_failure(ns(40.0)));
        assert!(m.record_failure(ns(50.0)), "streak restarted after success");
    }

    #[test]
    fn half_open_recovery_walks_quarantine_to_healthy() {
        let mut m = HealthMachine::new(cfg(), 0);
        m.quarantine(ns(1_000.0));
        assert!(!m.probe_due(ns(1_000.0)), "backoff holds the probe");
        let probe_at = m.next_event().expect("probe scheduled");
        assert!(m.probe_due(probe_at));
        let warm_done = m.probe_result(probe_at, true);
        assert_eq!(m.state(), HealthState::Repairing);
        assert!(!m.try_readmit(warm_done - ns(1.0)));
        assert!(m.try_readmit(warm_done));
        assert_eq!(m.state(), HealthState::Healthy);
        assert!(m.routable());
    }

    #[test]
    fn failed_probes_back_off_exponentially_with_jitter() {
        let mut m = HealthMachine::new(cfg(), 0);
        m.quarantine(ns(0.0));
        let first = m.next_event().expect("scheduled") - ns(0.0);
        let mut gaps = vec![first.as_ns()];
        let mut t = first;
        for _ in 0..4 {
            let next = m.probe_result(t, false);
            gaps.push((next - t).as_ns() - m.cfg.probe_ns);
            t = next;
        }
        for w in gaps.windows(2).take(3) {
            assert!(
                w[1] > w[0] * 1.5,
                "backoff must grow roughly geometrically: {gaps:?}"
            );
        }
        let cap = cfg().backoff_max_ns * (1.0 + cfg().jitter_frac);
        assert!(
            gaps.iter().all(|&g| g <= cap),
            "backoff respects the ceiling: {gaps:?}"
        );
        // Jitter keeps the gap off the exact power-of-two grid.
        assert!((gaps[0] - 1_000.0).abs() > 1e-6, "jitter applied: {gaps:?}");
    }

    #[test]
    fn jitter_is_deterministic_but_varies_per_cluster() {
        let mut a1 = HealthMachine::new(cfg(), 0);
        let mut a2 = HealthMachine::new(cfg(), 0);
        let mut b = HealthMachine::new(cfg(), 1);
        a1.quarantine(ns(0.0));
        a2.quarantine(ns(0.0));
        b.quarantine(ns(0.0));
        assert_eq!(
            a1.next_event(),
            a2.next_event(),
            "same seed+cluster → same jitter"
        );
        assert_ne!(
            a1.next_event(),
            b.next_event(),
            "different clusters desynchronize"
        );
    }

    #[test]
    fn readmission_resets_the_backoff_ladder() {
        let mut m = HealthMachine::new(cfg(), 0);
        m.quarantine(ns(0.0));
        let first_gap = m.next_event().expect("scheduled");
        let t = m.probe_result(first_gap, false); // trips ×2
        let t2 = m.probe_result(t, true);
        assert!(m.try_readmit(t2));
        m.quarantine(t2);
        let fresh_gap = m.next_event().expect("scheduled") - t2;
        let (fresh_gap, first_gap) = (fresh_gap.as_ns(), first_gap.as_ns());
        assert!(
            (fresh_gap - first_gap).abs() / first_gap < 0.25,
            "post-recovery backoff restarts near the base: {fresh_gap} vs {first_gap}"
        );
        assert_eq!(m.total_quarantines, 2);
        assert!(m.total_probes >= 2);
    }
}
