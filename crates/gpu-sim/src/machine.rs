//! The simulated multi-GPU machine.
//!
//! [`Machine`] owns one [`DeviceState`] per GPU plus the shared
//! [`CostModel`]. Engines drive it in *phases*:
//!
//! 1. [`Machine::parallel_phase`] — run a closure on every device
//!    concurrently (real OS threads), each closure transforming its own
//!    data shard and charging kernel costs through a [`DeviceCtx`];
//! 2. collectives ([`Machine::all_to_all`] & friends in
//!    [`crate::collective`]) — functional data movement between shards plus
//!    an α–β time charge;
//! 3. [`Machine::barrier`] — clock synchronization.
//!
//! Per-device clocks advance independently inside a phase and are re-synced
//! at collectives and barriers, mimicking streams + NCCL semantics.

use crate::config::{FieldSpec, MachineConfig};
use crate::cost::CostModel;
use crate::device::{DeviceCtx, DeviceState};
use crate::fabric::FabricGraph;
use crate::fault::{CollectiveReport, FaultEvent, FaultPlan};
use crate::timeline::TraceEvent;
use crate::trace::{Category, CollectiveEvent, Stats};

/// A simulated multi-GPU machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    model: CostModel,
    devices: Vec<DeviceState>,
    fabric: FabricGraph,
    fault_plan: Option<FaultPlan>,
    collective_seq: u64,
    fault_log: Vec<FaultEvent>,
    collective_events: Vec<CollectiveEvent>,
    /// Telemetry track label; also prefixes per-device track names.
    label: String,
}

impl Machine {
    /// Builds a machine from a config and the field being processed.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig, field: FieldSpec) -> Self {
        cfg.validate().expect("invalid machine config");
        let model = CostModel::new(&cfg, field);
        let devices = (0..cfg.num_gpus).map(|_| DeviceState::default()).collect();
        let fabric = FabricGraph::new(&cfg.interconnect, cfg.num_gpus);
        Self {
            cfg,
            model,
            devices,
            fabric,
            fault_plan: None,
            collective_seq: 0,
            fault_log: Vec::new(),
            collective_events: Vec::new(),
            label: String::from("machine"),
        }
    }

    /// Names this machine's telemetry tracks (e.g. `"node3"`). Distinct
    /// labels keep concurrent machines on distinct trace tracks.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// The telemetry track label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The telemetry track name for one device, `"{label}/gpu{d}"`.
    pub fn device_track(&self, device: usize) -> String {
        format!("{}/gpu{device}", self.label)
    }

    /// Number of GPUs.
    pub fn num_devices(&self) -> usize {
        self.cfg.num_gpus
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Runs `f(ctx, device_index, shard)` for every device concurrently.
    ///
    /// `shards` must hold exactly one element per device. Each closure owns
    /// its shard exclusively for the duration of the phase — exactly the
    /// isolation a real GPU has between kernels on different devices.
    /// Device closures are forked over the process-wide persistent pool
    /// ([`unintt_exec::Executor::global`]), which runs them wherever the
    /// evidence says: a phase of microsecond kernels or pure cost charges
    /// stays on the calling thread in device order, and only a phase that
    /// outlasts a wake-up round trip is shared with the workers.
    /// Simulated-clock accounting is unaffected because each device charges
    /// its own [`DeviceState`] regardless of which OS thread executes it,
    /// and telemetry is unaffected because every closure runs as a member
    /// of the caller's session ([`unintt_telemetry::adopt`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != self.num_devices()`.
    pub fn parallel_phase<T, F>(&mut self, shards: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut DeviceCtx<'_>, usize, &mut T) + Sync,
    {
        assert_eq!(
            shards.len(),
            self.num_devices(),
            "need exactly one shard per device"
        );
        let model = &self.model;
        // A device closure records as the thread driving the machine
        // would, whichever pool thread runs it.
        let member = unintt_telemetry::recording();
        unintt_exec::Executor::global().scope(|scope| {
            for (id, (state, shard)) in self.devices.iter_mut().zip(shards.iter_mut()).enumerate() {
                if !state.alive {
                    continue;
                }
                let f = &f;
                scope.spawn(move || {
                    let mut ctx = DeviceCtx::new(id, model, state);
                    unintt_telemetry::adopt(member, || f(&mut ctx, id, shard));
                });
            }
        });
    }

    /// Runs a closure on a single device (stream-0 style host-driven work).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn on_device<T, F>(&mut self, device: usize, shard: &mut T, f: F)
    where
        F: FnOnce(&mut DeviceCtx<'_>, &mut T),
    {
        assert!(device < self.num_devices(), "device index out of range");
        let mut ctx = DeviceCtx::new(device, &self.model, &mut self.devices[device]);
        f(&mut ctx, shard);
    }

    /// Synchronizes all device clocks to the maximum (plus one fabric
    /// latency), like a `cudaDeviceSynchronize` across the machine.
    /// Dead devices stay frozen at their time of death.
    pub fn barrier(&mut self) {
        let max = self.max_clock_ns();
        let latency = if self.num_devices() > 1 {
            self.cfg.interconnect.latency_ns
        } else {
            0.0
        };
        for d in &mut self.devices {
            if d.alive {
                d.clock_ns = max + latency;
            }
        }
    }

    /// The current maximum device clock — the machine's makespan so far.
    pub fn max_clock_ns(&self) -> f64 {
        self.devices.iter().map(|d| d.clock_ns).fold(0.0, f64::max)
    }

    /// Merged statistics: counters summed over devices, per-category times
    /// maxed (critical path across symmetric devices).
    pub fn stats(&self) -> Stats {
        let mut out = Stats::new();
        for d in &self.devices {
            out.merge_concurrent(&d.stats);
        }
        out
    }

    /// Per-device statistics (read-only).
    pub fn device_stats(&self, device: usize) -> &Stats {
        &self.devices[device].stats
    }

    /// Per-device event timeline (read-only).
    pub fn timeline(&self, device: usize) -> &crate::timeline::Timeline {
        &self.devices[device].timeline
    }

    /// Resets clocks, stats, device health, and the fault log, keeping
    /// the configuration and any installed fault plan (so a reset machine
    /// deterministically replays the same faults).
    pub fn reset(&mut self) {
        for d in &mut self.devices {
            *d = DeviceState::default();
        }
        self.collective_seq = 0;
        self.fault_log.clear();
        self.fabric.reset();
        self.collective_events.clear();
    }

    /// The link-level fabric graph with per-link occupancy totals.
    pub fn fabric(&self) -> &FabricGraph {
        &self.fabric
    }

    /// Every collective executed so far, with bytes, links used, and
    /// overlap-hidden nanoseconds.
    pub fn collective_events(&self) -> &[CollectiveEvent] {
        &self.collective_events
    }

    /// Installs a fault plan; subsequent collectives consult it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Removes the fault plan; subsequent collectives run fault-free.
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Every fault injected so far, in execution order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// The next collective sequence number.
    pub fn collective_seq(&self) -> u64 {
        self.collective_seq
    }

    /// Whether device `device` is still alive.
    pub fn is_alive(&self, device: usize) -> bool {
        self.devices[device].alive
    }

    /// Number of devices still alive.
    pub fn alive_devices(&self) -> usize {
        self.devices.iter().filter(|d| d.alive).count()
    }

    /// The lowest-numbered dead device, if any.
    pub fn first_dead_device(&self) -> Option<usize> {
        self.devices.iter().position(|d| !d.alive)
    }

    /// Kills a device: its clock freezes and every later collective on
    /// this machine fails with `FabricError::DeviceLost`.
    pub fn fail_device(&mut self, device: usize) {
        self.devices[device].alive = false;
    }

    /// Makes device `device` a straggler: every subsequent kernel on it
    /// takes `factor`× the modeled time.
    pub fn degrade_device(&mut self, device: usize, factor: f64) {
        self.devices[device].speed_factor = factor;
    }

    /// Charges `ns` of fault-handling time (detection timeouts, recovery
    /// backoff) to every alive device and records it on their timelines.
    pub fn charge_fault_ns(&mut self, name: &'static str, ns: f64) {
        for d in self.devices.iter_mut().filter(|d| d.alive) {
            d.timeline.push(TraceEvent {
                name,
                start_ns: d.clock_ns,
                duration_ns: ns,
                category: Category::Fault,
                queue: 0,
            });
            d.clock_ns += ns;
            *d.stats.time_ns.get_mut(Category::Fault) += ns;
            *d.stats.raw_time_ns.get_mut(Category::Fault) += ns;
        }
    }

    /// Counts one retried collective attempt on every alive device.
    pub fn count_retry(&mut self) {
        for d in self.devices.iter_mut().filter(|d| d.alive) {
            d.stats.retries += 1;
        }
    }

    pub(crate) fn take_fault_decision(&mut self) -> (u64, Option<crate::fault::FaultKind>) {
        let seq = self.collective_seq;
        self.collective_seq += 1;
        let kind = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.decide(seq, self.num_devices()));
        if let Some(kind) = kind {
            self.fault_log.push(FaultEvent { seq, kind });
            for d in self.devices.iter_mut().filter(|d| d.alive) {
                d.stats.faults_injected += 1;
            }
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: kind.name().to_string(),
                kind: unintt_telemetry::InstantKind::Fault,
                track: self.label.clone(),
                t_ns: self.max_clock_ns(),
                attrs: vec![("seq", seq.into())],
            });
            unintt_telemetry::counter_add("sim_faults_injected", 1);
        }
        (seq, kind)
    }

    /// Re-requests one damaged chunk of `bytes` from device `src`: charges
    /// the point-to-point transfer as fault time, emits the telemetry
    /// marker and counter, and counts the bytes on the sender and in
    /// `report`.
    pub(crate) fn retransmit(&mut self, src: usize, bytes: u64, report: &mut CollectiveReport) {
        self.charge_fault_ns("chunk-retransmit", self.model.p2p_ns(bytes));
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: String::from("chunk-retransmit"),
            kind: unintt_telemetry::InstantKind::Retransmission,
            track: self.device_track(src),
            t_ns: self.max_clock_ns(),
            attrs: vec![("bytes", bytes.into())],
        });
        unintt_telemetry::counter_add("sim_chunk_retransmissions", 1);
        self.devices[src].stats.interconnect_bytes_retransmitted += bytes;
        report.retransmitted_chunks += 1;
        report.retransmitted_bytes += bytes;
    }

    /// Exports every retained per-device timeline event as a
    /// [`unintt_telemetry::SpanLevel::Device`] span on that device's
    /// track. Call once at the end of a run, while a telemetry session
    /// is active; a no-op when telemetry is disabled.
    pub fn export_telemetry_spans(&self) {
        if !unintt_telemetry::recording() {
            return;
        }
        for d in 0..self.num_devices() {
            let track = self.device_track(d);
            for e in self.devices[d].timeline.events() {
                unintt_telemetry::record_span(|| unintt_telemetry::Span {
                    id: unintt_telemetry::fresh_id(),
                    parent: None,
                    name: e.name.to_string(),
                    level: unintt_telemetry::SpanLevel::Device,
                    category: e.category.as_str(),
                    track: track.clone(),
                    t_start_ns: e.start_ns,
                    t_end_ns: e.start_ns + e.duration_ns,
                    attrs: Vec::new(),
                });
            }
        }
    }

    /// Exports per-link fabric occupancy as
    /// [`unintt_telemetry::InstantKind::LinkUtilization`] markers (one
    /// per link, stamped at the final clock) plus a
    /// `fabric_link_utilization{link="..."}` gauge per link, where
    /// utilization is link busy time over the run's horizon. Call once
    /// at the end of a run, like [`Machine::export_telemetry_spans`];
    /// a no-op when telemetry is disabled.
    pub fn export_fabric_telemetry(&self) {
        if !unintt_telemetry::recording() {
            return;
        }
        let horizon = self.max_clock_ns();
        for link in self.fabric.links() {
            let utilization = if horizon > 0.0 {
                link.busy_ns / horizon
            } else {
                0.0
            };
            unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
                name: link.name.clone(),
                kind: unintt_telemetry::InstantKind::LinkUtilization,
                track: self.label.clone(),
                t_ns: horizon,
                attrs: vec![
                    ("bandwidth_gbps", link.bandwidth_gbps.into()),
                    ("busy_ns", link.busy_ns.into()),
                    ("bytes", link.bytes_carried.into()),
                    ("utilization", utilization.into()),
                ],
            });
            unintt_telemetry::gauge_set_labeled(
                "fabric_link_utilization",
                &[("link", &link.name)],
                utilization,
            );
        }
    }

    pub(crate) fn devices_mut(&mut self) -> &mut [DeviceState] {
        &mut self.devices
    }

    pub(crate) fn fabric_mut(&mut self) -> &mut FabricGraph {
        &mut self.fabric
    }

    pub(crate) fn record_collective_event(&mut self, event: CollectiveEvent) {
        unintt_telemetry::record_instant(|| unintt_telemetry::Instant {
            name: event.op.to_string(),
            kind: unintt_telemetry::InstantKind::Collective,
            track: self.label.clone(),
            t_ns: self.max_clock_ns(),
            attrs: vec![
                ("bytes", event.bytes.into()),
                ("links_used", event.links_used.into()),
                ("time_ns", event.time_ns.into()),
                ("hidden_ns", event.hidden_ns.into()),
            ],
        });
        unintt_telemetry::counter_add("sim_collectives", 1);
        self.collective_events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::KernelProfile;
    use crate::presets;

    fn machine(gpus: usize) -> Machine {
        Machine::new(presets::a100_nvlink(gpus), FieldSpec::goldilocks())
    }

    #[test]
    fn parallel_phase_transforms_all_shards() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|d| vec![d as u64; 8]).collect();
        m.parallel_phase(&mut shards, |ctx, id, shard| {
            let mut p = KernelProfile::named("inc");
            p.field_adds = shard.len() as u64;
            ctx.launch(&p);
            for v in shard.iter_mut() {
                *v += 10 + id as u64;
            }
        });
        assert_eq!(shards[0], vec![10; 8]);
        assert_eq!(shards[3], vec![16; 8]);
        assert_eq!(m.stats().kernels_launched, 4);
        assert!(m.max_clock_ns() > 0.0);
    }

    #[test]
    fn barrier_syncs_clocks() {
        let mut m = machine(2);
        let mut shards = vec![0u8, 0u8];
        // Device 1 does more work than device 0.
        m.parallel_phase(&mut shards, |ctx, id, _| {
            let mut p = KernelProfile::named("work");
            p.global_bytes_read = if id == 1 { 1 << 26 } else { 0 };
            ctx.launch(&p);
        });
        let clocks_differ = {
            let s0 = m.devices[0].clock_ns;
            let s1 = m.devices[1].clock_ns;
            (s0 - s1).abs() > 1.0
        };
        assert!(clocks_differ);
        m.barrier();
        assert!((m.devices[0].clock_ns - m.devices[1].clock_ns).abs() < 1e-9);
    }

    #[test]
    fn single_gpu_barrier_free() {
        let mut m = machine(1);
        m.barrier();
        assert_eq!(m.max_clock_ns(), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = machine(2);
        let mut shards = vec![(), ()];
        m.parallel_phase(&mut shards, |ctx, _, _| {
            ctx.launch(&KernelProfile::named("k"));
        });
        assert!(m.max_clock_ns() > 0.0);
        m.reset();
        assert_eq!(m.max_clock_ns(), 0.0);
        assert_eq!(m.stats().kernels_launched, 0);
    }

    #[test]
    fn timeline_records_kernels_and_collectives() {
        let mut m = machine(2);
        let mut shards: Vec<Vec<u64>> = vec![vec![0; 8], vec![0; 8]];
        m.parallel_phase(&mut shards, |ctx, _, _| {
            ctx.launch(&KernelProfile::named("my-kernel"));
        });
        m.all_to_all(&mut shards, 8).unwrap();
        let tl = m.timeline(0);
        assert_eq!(tl.events().len(), 2);
        assert_eq!(tl.events()[0].name, "my-kernel");
        assert_eq!(tl.events()[1].name, "collective");
        assert!(tl.events()[1].start_ns >= tl.events()[0].duration_ns);
        assert!(tl.render().contains("collective"));
    }

    #[test]
    #[should_panic(expected = "one shard per device")]
    fn shard_count_mismatch_panics() {
        let mut m = machine(2);
        let mut shards = vec![0u8];
        m.parallel_phase(&mut shards, |_, _, _| {});
    }
}
