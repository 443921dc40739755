//! Typed compute queues (streams) with a resource-interference model,
//! integrated exactly on the machine's integer clock.
//!
//! Real GPUs expose multiple hardware queues: a compute-bound kernel
//! (MSM window accumulation) and a memory/shuffle-bound kernel (NTT
//! butterflies + exchanges) issued on different streams genuinely
//! overlap, each running somewhat slower than it would alone because
//! they contend for the SM issue slots and the memory system. Two
//! kernels of the *same* class gain nothing — they fight over the same
//! bottleneck resource — so schedulers serialize them.
//!
//! This module is the simulator's version of that: a [`StreamSet`] is a
//! small set of typed queues attached to one device lease, and an
//! [`InterferenceModel`] prices co-residency. Work is modelled as a
//! fluid: each in-flight stage carries its remaining *solo* work and
//! advances at rate `1 / slowdown` where the slowdown is the product of
//! pairwise interference factors against every co-resident stage.
//!
//! The integration is exact. Time is [`SimTime`], whole picoseconds —
//! the machine's own clock, so a stage's charged duration arrives here
//! as the integer its devices advanced by; every factor is a whole number of thousandths; and remaining work is
//! kept in integer units, `unit` per solo picosecond, where `unit` is a
//! multiple of every slowdown's numerator. So each rate is a whole
//! number of units per picosecond, a stage completes at the first
//! picosecond by which its work has drained, and advancing the set at an
//! extra instant between events changes no completion instant,
//! `busy_union` or `stream_busy`.
//!
//! Scheduling invariants (enforced here, relied on by `unintt-pipeline`
//! and `unintt-serve`):
//!
//! * at most one in-flight stage per [`ResourceClass`] per stream set —
//!   same-class stages serialize, exactly as on the real hardware;
//! * functional execution is *not* this module's business: callers run
//!   the stage's real data movement up front and hand only the charged
//!   duration here, which is what keeps overlapped schedules
//!   bit-identical to serialized ones.

use unintt_telemetry::SimTime;

/// The bottleneck resource a stage saturates while it runs. Mirrors the
/// ZKProphet observation that ZKP kernels leave either compute or
/// bandwidth idle depending on kernel class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceClass {
    /// ALU/issue-slot bound (MSM window accumulation, field towers).
    Compute,
    /// Memory/shuffle bound (NTT butterflies, transposes, exchanges).
    Memory,
    /// Somewhere in between (hashing, pointwise maps, FRI folds).
    Mixed,
}

impl ResourceClass {
    /// Stable lowercase name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            ResourceClass::Compute => "compute",
            ResourceClass::Memory => "memory",
            ResourceClass::Mixed => "mixed",
        }
    }
}

/// Pairwise slowdown factors for co-resident stages of *different*
/// classes (same-class pairs never co-reside — see [`StreamSet::admit`]).
///
/// A factor of `f ≥ 1` means each member of the pair advances at rate
/// `1/f` while the other is resident: a compute-bound MSM and a
/// memory-bound NTT at the default `1.12` finish in `1.12×` their solo
/// time each — far better than the `2×` of serialization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterferenceModel {
    /// Slowdown each side pays when a [`ResourceClass::Compute`] stage
    /// overlaps a [`ResourceClass::Memory`] stage. The most complementary
    /// pairing: they saturate different resources.
    pub compute_memory: f64,
    /// Slowdown each side pays when a [`ResourceClass::Mixed`] stage
    /// overlaps anything else. Mixed kernels touch both resources, so
    /// they interfere more.
    pub mixed_other: f64,
}

impl InterferenceModel {
    /// The calibrated default: MSM↔NTT overlap at 12% mutual slowdown,
    /// mixed pairings at 35%.
    pub const fn default_model() -> Self {
        Self {
            compute_memory: 1.12,
            mixed_other: 1.35,
        }
    }

    /// A pessimistic variant for sensitivity sweeps: heavy contention.
    pub const fn conservative() -> Self {
        Self {
            compute_memory: 1.45,
            mixed_other: 1.70,
        }
    }

    /// The slowdown factor each member of an `(a, b)` pair pays while
    /// co-resident, or `None` when `a == b` (same-class stages must
    /// serialize; schedulers never co-admit them).
    pub fn slowdown(&self, a: ResourceClass, b: ResourceClass) -> Option<f64> {
        if a == b {
            return None;
        }
        Some(match (a, b) {
            (ResourceClass::Compute, ResourceClass::Memory)
            | (ResourceClass::Memory, ResourceClass::Compute) => self.compute_memory,
            _ => self.mixed_other,
        })
    }

    /// Panics unless every factor is a finite slowdown (`≥ 1`) that is a
    /// whole number of thousandths — the exact rational the stream
    /// integration runs on; a factor without that form is rejected, not
    /// rounded.
    pub fn validate(&self) {
        self.work_unit();
    }

    /// Work units per solo picosecond: `(compute_memory ·
    /// mixed_other)²` in thousandths. A stage has at most two
    /// co-residents (one per other class), so its slowdown's numerator is
    /// a product of at most two factors, each of which this divides.
    fn work_unit(&self) -> u128 {
        let [cm, mo] = [
            ("compute_memory", self.compute_memory),
            ("mixed_other", self.mixed_other),
        ]
        .map(|(name, f)| {
            assert!(
                f.is_finite() && f >= 1.0,
                "interference factor {name} must be a finite slowdown >= 1, got {f}"
            );
            let thousandths = (f * 1e3).round();
            assert!(
                thousandths / 1e3 == f,
                "interference factor {name} must be a whole number of thousandths, got {f}"
            );
            thousandths as u128
        });
        cm.checked_mul(mo)
            .and_then(|p| p.checked_mul(p))
            .expect("interference factors too large for exact stream integration")
    }
}

impl Default for InterferenceModel {
    fn default() -> Self {
        Self::default_model()
    }
}

/// One stage resident on a stream.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Caller-chosen identity (dispatch sequence number, say) handed
    /// back on completion.
    pub key: u64,
    /// The queue (stream index) the stage occupies.
    pub queue: usize,
    /// Its resource class.
    pub class: ResourceClass,
    /// Remaining *solo* work, in the set's work units.
    remaining: u128,
}

/// A small set of typed compute queues attached to one device lease,
/// advancing in-flight stages as fluids under an [`InterferenceModel`]
/// (see the module docs for the model and its invariants).
#[derive(Clone, Debug)]
pub struct StreamSet {
    queues: usize,
    model: InterferenceModel,
    /// Work units per solo picosecond.
    unit: u128,
    now: SimTime,
    inflight: Vec<InFlight>,
    /// Admissions that joined at least one already-resident stage.
    pub costream_joins: u64,
    /// Wall time with ≥ 1 resident stage (the lease-busy union).
    pub busy_union: SimTime,
    /// Stream-occupied time (`Σ residents × dt`): exceeds `busy_union`
    /// exactly when overlap happened.
    pub stream_busy: SimTime,
}

impl StreamSet {
    /// A set of `queues` streams under `model`.
    ///
    /// # Panics
    ///
    /// Panics when `queues == 0` or the model is invalid.
    pub fn new(queues: usize, model: InterferenceModel) -> Self {
        assert!(queues >= 1, "a stream set needs at least one queue");
        Self {
            queues,
            model,
            unit: model.work_unit(),
            now: SimTime::ZERO,
            inflight: Vec::with_capacity(queues),
            costream_joins: 0,
            busy_union: SimTime::ZERO,
            stream_busy: SimTime::ZERO,
        }
    }

    /// The set's local clock (the last `advance_to` instant).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stages currently resident.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// True when no stage is resident.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Whether a stage of `class` may be admitted right now: a queue is
    /// free and no resident stage shares its class (same-class stages
    /// serialize).
    pub fn can_accept(&self, class: ResourceClass) -> bool {
        self.inflight.len() < self.queues && !self.inflight.iter().any(|s| s.class == class)
    }

    /// The slowdown a stage of `class` would suffer if admitted now: the
    /// product of pairwise factors against every resident stage (`1.0`
    /// on an idle set). Schedulers minimize this to pick complementary
    /// co-residents.
    pub fn join_penalty(&self, class: ResourceClass) -> f64 {
        self.factors(class, None).product()
    }

    /// The factors a `class` stage pays against every resident stage but
    /// the one at `skip`.
    fn factors(&self, class: ResourceClass, skip: Option<usize>) -> impl Iterator<Item = f64> + '_ {
        self.inflight
            .iter()
            .enumerate()
            .filter(move |&(j, _)| Some(j) != skip)
            .map(move |(_, s)| {
                self.model
                    .slowdown(class, s.class)
                    .expect("co-resident classes always differ")
            })
    }

    /// Work units resident stage `i` drains per picosecond: `unit` over
    /// its slowdown, exactly (see [`InterferenceModel::work_unit`]).
    fn rate_of(&self, i: usize) -> u128 {
        self.factors(self.inflight[i].class, Some(i))
            .fold(self.unit, |rate, f| rate / (f * 1e3).round() as u128 * 1000)
    }

    /// Admits a stage of `class` carrying `work` of solo time, returning
    /// the queue index it occupies (lowest free index).
    ///
    /// # Panics
    ///
    /// Panics when [`can_accept`](Self::can_accept) is false.
    pub fn admit(&mut self, key: u64, class: ResourceClass, work: SimTime) -> usize {
        assert!(
            self.can_accept(class),
            "admit requires a free queue and no resident {} stage",
            class.name()
        );
        let queue = (0..self.queues)
            .find(|&q| !self.inflight.iter().any(|s| s.queue == q))
            .expect("can_accept implies a free queue");
        if !self.inflight.is_empty() {
            self.costream_joins += 1;
        }
        self.inflight.push(InFlight {
            key,
            queue,
            class,
            // A zero-cost stage would complete "now" and stall an event
            // loop waiting for a *future* completion; it takes one
            // picosecond.
            remaining: u128::from(work.0.max(1))
                .checked_mul(self.unit)
                .expect("stage work fits the stream's work units"),
        });
        queue
    }

    /// The earliest instant a resident stage completes under the current
    /// residency (exact until the next admission), or `None` when idle.
    pub fn earliest_completion(&self) -> Option<SimTime> {
        (0..self.inflight.len())
            .map(|i| {
                let ps = self.inflight[i].remaining.div_ceil(self.rate_of(i));
                self.now + SimTime(u64::try_from(ps).expect("completion within the clock's range"))
            })
            .min()
    }

    /// Advances the local clock to `t`, draining remaining work at the
    /// current rates. Callers must not step past the earliest completion
    /// (rates change there); stepping exactly onto it is the normal way
    /// to retire a stage via [`take_finished`](Self::take_finished).
    ///
    /// # Panics
    ///
    /// Debug-panics when `t` would rewind the clock or overshoot a
    /// completion.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now, "stream clock cannot rewind");
        debug_assert!(
            self.earliest_completion().is_none_or(|c| t <= c),
            "advance_to overshot a completion"
        );
        let dt = t.max(self.now) - self.now;
        if dt > SimTime::ZERO && !self.inflight.is_empty() {
            self.busy_union += dt;
            self.stream_busy += SimTime(dt.0 * self.inflight.len() as u64);
            for i in 0..self.inflight.len() {
                let drained = u128::from(dt.0).saturating_mul(self.rate_of(i));
                let s = &mut self.inflight[i];
                s.remaining = s.remaining.saturating_sub(drained);
            }
        }
        self.now = self.now.max(t);
    }

    /// Removes and returns every stage whose work has drained (ordered
    /// by queue index, deterministically). Call after `advance_to`.
    pub fn take_finished(&mut self) -> Vec<InFlight> {
        let (mut done, left) = std::mem::take(&mut self.inflight)
            .into_iter()
            .partition::<Vec<_>, _>(|s| s.remaining == 0);
        self.inflight = left;
        done.sort_by_key(|s| s.queue);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn same_class_never_overlaps() {
        let model = InterferenceModel::default_model();
        assert_eq!(
            model.slowdown(ResourceClass::Memory, ResourceClass::Memory),
            None
        );
        let mut set = StreamSet::new(2, model);
        set.admit(1, ResourceClass::Memory, ns(100.0));
        assert!(!set.can_accept(ResourceClass::Memory));
        assert!(set.can_accept(ResourceClass::Compute));
        assert!(set.can_accept(ResourceClass::Mixed));
    }

    #[test]
    fn solo_stage_runs_at_full_rate() {
        let mut set = StreamSet::new(2, InterferenceModel::default_model());
        set.admit(7, ResourceClass::Compute, ns(1_000.0));
        assert_eq!(set.earliest_completion(), Some(ns(1_000.0)));
        set.advance_to(ns(1_000.0));
        let done = set.take_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].key, 7);
        assert_eq!(done[0].queue, 0);
        assert!(set.is_idle());
        assert_eq!(set.busy_union, ns(1_000.0));
        assert_eq!(set.stream_busy, ns(1_000.0));
    }

    #[test]
    fn complementary_pair_overlaps_with_modeled_slowdown() {
        // MSM (compute) and NTT (memory), each 1000 ns solo, co-resident
        // from t=0 under factor 1.12: both finish at 1120 ns — versus
        // 2000 ns serialized.
        let model = InterferenceModel::default_model();
        let mut set = StreamSet::new(2, model);
        set.admit(1, ResourceClass::Compute, ns(1_000.0));
        set.admit(2, ResourceClass::Memory, ns(1_000.0));
        assert_eq!(set.costream_joins, 1);
        let t = set.earliest_completion().unwrap();
        assert_eq!(t, ns(1_120.0));
        set.advance_to(t);
        let done = set.take_finished();
        assert_eq!(done.len(), 2, "equal work completes together");
        // Overlap shows up as stream-time exceeding the busy union.
        assert_eq!(set.busy_union, ns(1_120.0));
        assert_eq!(set.stream_busy, ns(2_240.0));
    }

    #[test]
    fn rates_rise_when_a_coresident_leaves() {
        // A 500 ns compute stage beside a 2000 ns memory stage at factor
        // 1.12: compute finishes at 560; memory drained 500 solo-ns by
        // then and runs the remaining 1500 alone, finishing at 2060.
        let mut set = StreamSet::new(2, InterferenceModel::default_model());
        set.admit(1, ResourceClass::Compute, ns(500.0));
        set.admit(2, ResourceClass::Memory, ns(2_000.0));
        let t1 = set.earliest_completion().unwrap();
        assert_eq!(t1, ns(560.0));
        set.advance_to(t1);
        assert_eq!(set.take_finished().len(), 1);
        let t2 = set.earliest_completion().unwrap();
        assert_eq!(t2, ns(2_060.0));
        set.advance_to(t2);
        assert_eq!(set.take_finished().len(), 1);
        assert!(set.is_idle());
    }

    #[test]
    fn join_penalty_prefers_complementary_classes() {
        let mut set = StreamSet::new(3, InterferenceModel::default_model());
        assert_eq!(set.join_penalty(ResourceClass::Memory), 1.0);
        set.admit(1, ResourceClass::Compute, ns(1_000.0));
        assert_eq!(set.join_penalty(ResourceClass::Memory), 1.12);
        assert_eq!(set.join_penalty(ResourceClass::Mixed), 1.35);
    }

    #[test]
    fn single_queue_set_is_strictly_serial() {
        let mut set = StreamSet::new(1, InterferenceModel::default_model());
        set.admit(1, ResourceClass::Compute, ns(100.0));
        assert!(!set.can_accept(ResourceClass::Memory), "no second queue");
        set.advance_to(ns(100.0));
        assert_eq!(set.take_finished().len(), 1);
        assert_eq!(set.costream_joins, 0);
        assert_eq!(set.busy_union, set.stream_busy);
    }

    #[test]
    fn determinism_bitwise() {
        let run = || {
            let mut set = StreamSet::new(2, InterferenceModel::conservative());
            set.admit(1, ResourceClass::Compute, ns(12_345.678));
            set.advance_to(ns(1_000.0));
            set.admit(2, ResourceClass::Memory, ns(9_876.543));
            let mut times = Vec::new();
            while let Some(t) = set.earliest_completion() {
                set.advance_to(t);
                for f in set.take_finished() {
                    times.push((f.key, t));
                }
            }
            (times, set.busy_union, set.stream_busy)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "free queue")]
    fn admitting_same_class_panics() {
        let mut set = StreamSet::new(2, InterferenceModel::default_model());
        set.admit(1, ResourceClass::Mixed, ns(10.0));
        set.admit(2, ResourceClass::Mixed, ns(10.0));
    }

    #[test]
    #[should_panic(expected = "finite slowdown")]
    fn sub_unity_factors_are_rejected() {
        StreamSet::new(
            2,
            InterferenceModel {
                compute_memory: 0.9,
                mixed_other: 1.2,
            },
        );
    }

    #[test]
    #[should_panic(expected = "whole number of thousandths")]
    fn factors_without_an_exact_form_are_rejected() {
        InterferenceModel {
            compute_memory: 1.0 + 1.0 / 3.0,
            mixed_other: 1.2,
        }
        .validate();
    }

    #[test]
    fn sim_time_rounds_once_and_rejects_what_it_cannot_hold() {
        assert_eq!(SimTime::from_ns(1.0004), SimTime(1_000));
        assert_eq!(SimTime::from_ns(1.0006), SimTime(1_001));
        assert_eq!(SimTime(1_500).as_ns(), 1.5);
        for bad in [-1.0, f64::NAN, f64::INFINITY, 1e30] {
            assert_eq!(SimTime::try_from_ns(bad), None, "{bad}");
        }
    }
}
