//! Per-device simulation state and the kernel interface.
//!
//! A kernel in this simulator is (a) ordinary Rust code that transforms the
//! device's data shard, paired with (b) a [`KernelProfile`] describing its
//! hardware footprint. The profile — not the Rust code's wall-clock — is
//! what advances the simulated clock, so algorithmic choices (layouts,
//! fusion, twiddle strategies) show up in simulated time exactly as their
//! byte/op counts dictate.
//!
//! The clock is integer: the cost model's `f64` formula is rounded to
//! whole picoseconds once per launch ([`SimTime`]), and the device's
//! clock, timeline and per-category books all add that same integer, so
//! they agree exactly.

use unintt_telemetry::SimTime;

use crate::cost::{CostModel, KernelCost};
use crate::timeline::{Timeline, TraceEvent};
use crate::trace::Stats;

/// Hardware footprint of one kernel launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (for traces).
    pub name: &'static str,
    /// Grid size in thread blocks (occupancy input).
    pub blocks: u64,
    /// Field multiplications performed.
    pub field_muls: u64,
    /// Field additions/subtractions performed.
    pub field_adds: u64,
    /// Bytes read from global memory.
    pub global_bytes_read: u64,
    /// Bytes written to global memory.
    pub global_bytes_written: u64,
    /// Fraction of peak DRAM bandwidth achieved (1.0 = perfectly coalesced,
    /// ~0.25 = strided access at warp granularity).
    pub coalescing_efficiency: f64,
    /// Shared-memory accesses (element granularity).
    pub shared_accesses: u64,
    /// Average bank-conflict serialization degree (1.0 = conflict-free).
    pub bank_conflict_degree: f64,
    /// Warp-shuffle operations.
    pub shuffle_ops: u64,
}

impl KernelProfile {
    /// A named, empty profile; fill in the relevant fields.
    pub fn named(name: &'static str) -> Self {
        Self {
            name,
            blocks: 1,
            field_muls: 0,
            field_adds: 0,
            global_bytes_read: 0,
            global_bytes_written: 0,
            coalescing_efficiency: 1.0,
            shared_accesses: 0,
            bank_conflict_degree: 1.0,
            shuffle_ops: 0,
        }
    }
}

/// Mutable per-device simulation state: a clock and accumulated stats.
#[derive(Clone, Debug)]
pub struct DeviceState {
    /// Simulated time on this device's stream.
    pub clock: SimTime,
    /// Accumulated accounting, on the same integer clock.
    pub stats: Stats<SimTime>,
    /// Bounded event log.
    pub timeline: Timeline,
    /// False once the device has been killed by an injected fault; a dead
    /// device's clock freezes and it is excluded from phases, barriers,
    /// and collectives.
    pub alive: bool,
    /// Straggler multiplier applied to every kernel's simulated time
    /// (`1.0` = healthy).
    pub speed_factor: f64,
}

impl Default for DeviceState {
    fn default() -> Self {
        Self {
            clock: SimTime::ZERO,
            stats: Stats::default(),
            timeline: Timeline::default(),
            alive: true,
            speed_factor: 1.0,
        }
    }
}

/// Handle passed to per-device closures; charges costs to one device.
pub struct DeviceCtx<'a> {
    id: usize,
    model: &'a CostModel,
    state: &'a mut DeviceState,
}

impl<'a> DeviceCtx<'a> {
    pub(crate) fn new(id: usize, model: &'a CostModel, state: &'a mut DeviceState) -> Self {
        Self { id, model, state }
    }

    /// This device's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The machine's cost model (read-only).
    pub fn model(&self) -> &CostModel {
        self.model
    }

    /// Charges one kernel launch and returns the simulated time it took.
    ///
    /// Call this alongside the Rust code that performs the kernel's data
    /// transformation.
    pub fn launch(&mut self, profile: &KernelProfile) -> SimTime {
        let cost = self.model.kernel_cost(profile);
        let state = &mut *self.state;
        let (work, launch) = book_kernel(&mut state.stats, profile, &cost, state.speed_factor);
        let charged = work + launch;
        state.timeline.push(TraceEvent {
            name: profile.name,
            start: state.clock,
            duration: charged,
            category: cost.bottleneck,
            queue: 0,
        });
        state.clock += charged;
        charged
    }

    /// Current simulated clock of this device.
    pub fn clock(&self) -> SimTime {
        self.state.clock
    }
}

/// Books one launch of `profile` into `stats` on a device running at
/// `speed`× its modelled `cost`: the counters, the work on its bottleneck
/// category, the launch overhead, and every raw component, each rounded
/// once to the integer clock. Returns `(work, launch)`.
pub(crate) fn book_kernel(
    stats: &mut Stats<SimTime>,
    profile: &KernelProfile,
    cost: &KernelCost,
    speed: f64,
) -> (SimTime, SimTime) {
    let (work, launch) = cost.charge(speed);
    let at_speed = |ns: f64| SimTime::from_ns(ns * speed);
    stats.kernels_launched += 1;
    stats.field_muls += profile.field_muls;
    stats.field_adds += profile.field_adds;
    stats.global_bytes_read += profile.global_bytes_read;
    stats.global_bytes_written += profile.global_bytes_written;
    stats.shuffle_ops += profile.shuffle_ops;
    stats.shared_accesses += profile.shared_accesses;
    *stats.time_ns.get_mut(cost.bottleneck) += work;
    stats.time_ns.launch += launch;
    let raw = &mut stats.raw_time_ns;
    raw.compute += at_speed(cost.compute_ns);
    raw.global_mem += at_speed(cost.global_mem_ns);
    raw.shared_mem += at_speed(cost.shared_mem_ns);
    raw.shuffle += at_speed(cost.shuffle_ns);
    raw.launch += launch;
    (work, launch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FieldSpec;
    use crate::presets;
    use crate::trace::Category;

    #[test]
    fn launch_advances_clock_and_counters() {
        let model = CostModel::new(&presets::a100_nvlink(1), FieldSpec::goldilocks());
        let mut state = DeviceState::default();
        let mut ctx = DeviceCtx::new(0, &model, &mut state);
        let mut p = KernelProfile::named("k");
        p.global_bytes_read = 1 << 20;
        p.field_muls = 1000;
        let charged = ctx.launch(&p);
        assert!(charged > SimTime::ZERO);
        assert_eq!(state.stats.kernels_launched, 1);
        assert_eq!(state.stats.field_muls, 1000);
        assert_eq!(state.stats.global_bytes_read, 1 << 20);
        assert_eq!(state.clock, charged);
        assert_eq!(state.stats.time_ns.total(), charged);
    }

    #[test]
    fn launch_overhead_always_charged() {
        let model = CostModel::new(&presets::a100_nvlink(1), FieldSpec::goldilocks());
        let mut state = DeviceState::default();
        let mut ctx = DeviceCtx::new(0, &model, &mut state);
        ctx.launch(&KernelProfile::named("empty"));
        assert!(state.stats.time_ns.get(Category::Launch) > SimTime::ZERO);
    }

    #[test]
    fn consecutive_launches_accumulate() {
        let model = CostModel::new(&presets::a100_nvlink(1), FieldSpec::goldilocks());
        let mut state = DeviceState::default();
        {
            let mut ctx = DeviceCtx::new(0, &model, &mut state);
            let mut p = KernelProfile::named("k");
            p.global_bytes_read = 1 << 24;
            ctx.launch(&p);
            let after_one = ctx.clock();
            ctx.launch(&p);
            assert_eq!(ctx.clock(), after_one + after_one);
        }
        assert_eq!(state.stats.kernels_launched, 2);
    }
}
