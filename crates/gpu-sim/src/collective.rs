//! NCCL-style collectives over the simulated fabric.
//!
//! Each collective does two things: *functionally* moves the data between
//! the per-device shards (so downstream computation is bit-exact), and
//! charges α–β time from [`crate::cost::CostModel`] to every participant.
//! All collectives imply a clock synchronization first, as NCCL kernels do.
//!
//! # Faults
//!
//! Every collective consumes one sequence number from the machine's
//! monotone collective counter and consults the installed [`FaultPlan`]
//! (if any). Argument bugs and injected faults both surface as typed
//! [`FabricError`]s instead of panics:
//!
//! * **Drop** — atomic: no data moves, a detection timeout (one modeled
//!   collective duration) is charged as fault time, and
//!   [`FabricError::CollectiveDropped`] is returned. Retrying is safe.
//! * **Corrupt** — the collective *succeeds* with one damaged chunk.
//!   The checked variants ([`Machine::all_to_all_checked`],
//!   [`Machine::all_gather_checked`], [`Machine::reduce_to_root_checked`])
//!   repair exactly the `(src → dst)` chunk the decision names: it is
//!   re-requested point-to-point (charged as fault time + retransmitted
//!   bytes) whatever values it held, so the charge depends on the fault
//!   decision alone, never on the data. The plain variants deliver it
//!   silently.
//! * **Delay / Straggler** — the collective succeeds; extra time is
//!   charged (once, or persistently on the slow device).
//! * **DeviceLoss** — the device dies; this and every later collective
//!   return [`FabricError::DeviceLost`] until the caller re-plans.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use unintt_telemetry::SimTime;

use crate::cost::KernelCost;
use crate::device::{book_kernel, KernelProfile};
use crate::fault::{CollectiveReport, FabricError, FaultKind};
use crate::machine::Machine;
use crate::timeline::TraceEvent;
use crate::trace::Category;

/// Caller-supplied compute to interleave with an overlapped collective.
///
/// `producers` are the kernels that *generate* the outgoing data (e.g.
/// the final local butterfly pass of a distributed NTT): their work time
/// is sliced evenly across the chunks and each chunk is injected into
/// the fabric as soon as its slice completes. `consumers` are the
/// kernels that *use* the received data (e.g. the outer NTT): each
/// consumer slice starts as soon as its chunk has landed. Launch
/// overheads are charged once per kernel, not once per chunk — the
/// pipeline models a captured graph replayed per chunk, not `chunks`
/// separate host launches.
#[derive(Clone, Copy, Debug)]
pub struct OverlapCompute<'a> {
    /// Kernels producing the outgoing chunks (sliced before injection).
    pub producers: &'a [KernelProfile],
    /// Kernels consuming the arriving chunks (sliced after arrival).
    pub consumers: &'a [KernelProfile],
    /// Number of pipeline chunks (clamped to ≥ 1; `1` degenerates to the
    /// blocking order compute → transfer → compute).
    pub chunks: u32,
}

/// Timing outcome of one overlapped collective.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverlapReport {
    /// Fault/repair outcome of the underlying exchange.
    pub collective: CollectiveReport,
    /// End-to-end pipeline time: producers, transfer, and consumers with
    /// all overlap applied (what the makespan advanced by).
    pub elapsed: SimTime,
    /// The full (blocking-equivalent) communication charge the pipeline
    /// was working to hide.
    pub comm: SimTime,
    /// Communication time actually hidden behind compute.
    pub hidden_comm: SimTime,
}

impl Machine {
    /// Synchronizes clocks and charges `time` of interconnect time plus
    /// `egress_bytes` to every alive device, then marks the operation
    /// ([`Machine::record_collective`]).
    fn charge_collective(
        &mut self,
        op: &'static str,
        time: SimTime,
        egress_bytes: u64,
        links_used: u32,
    ) {
        self.barrier();
        let mut participants = 0u64;
        for d in self.devices_mut().iter_mut().filter(|d| d.alive) {
            d.timeline.push(TraceEvent {
                name: "collective",
                start: d.clock,
                duration: time,
                category: Category::Interconnect,
                queue: 0,
            });
            d.clock += time;
            d.stats.time_ns.interconnect += time;
            d.stats.raw_time_ns.interconnect += time;
            d.stats.interconnect_bytes_sent += egress_bytes;
            d.stats.collectives += 1;
            participants += 1;
        }
        let bytes = egress_bytes * participants;
        self.record_collective(op, bytes, links_used, time, SimTime::ZERO);
    }

    /// Fails fast if a device has already died.
    fn ensure_all_alive(&self) -> Result<(), FabricError> {
        match self.first_dead_device() {
            Some(device) => Err(FabricError::DeviceLost {
                device,
                seq: self.collective_seq(),
            }),
            None => Ok(()),
        }
    }

    /// Handles the fault kinds common to every collective. Returns the
    /// fault back for collective-specific handling (corruption, delay)
    /// when the collective should proceed.
    fn apply_pre_fault(
        &mut self,
        seq: u64,
        fault: Option<FaultKind>,
        base: SimTime,
    ) -> Result<Option<FaultKind>, FabricError> {
        match fault {
            Some(FaultKind::Drop) => {
                // The fabric waits out one modeled completion window
                // before declaring the collective dead.
                self.charge_fault("collective-timeout", base);
                Err(FabricError::CollectiveDropped { seq })
            }
            Some(FaultKind::DeviceLoss { device }) => {
                self.charge_fault("device-loss-detect", base);
                self.fail_device(device);
                Err(FabricError::DeviceLost { device, seq })
            }
            Some(FaultKind::ClusterLoss) => {
                // The whole machine drops out at once; detection costs the
                // same window as a single loss, but afterwards no healthy
                // device remains, so no local re-plan can succeed.
                self.charge_fault("cluster-loss-detect", base);
                for device in 0..self.num_devices() {
                    self.fail_device(device);
                }
                Err(FabricError::DeviceLost { device: 0, seq })
            }
            Some(FaultKind::Straggler { device, factor }) => {
                self.degrade_device(device, factor);
                Ok(None)
            }
            other => Ok(other),
        }
    }

    /// Charges the post-completion cost of a transient delay fault: the
    /// plan's factor stretches the collective's `base` charge.
    fn apply_delay_fault(&mut self, fault: Option<FaultKind>, base: SimTime) {
        if let Some(FaultKind::Delay { factor }) = fault {
            let extra = SimTime::from_ns((factor - 1.0).max(0.0) * base.as_ns());
            self.charge_fault("collective-delay", extra);
        }
    }

    /// The report of completed collective `seq`, with the fault the log
    /// shows it was injected with.
    fn logged_report(&self, seq: u64) -> CollectiveReport {
        let injected = self.fault_log().iter().rev().find(|e| e.seq == seq);
        CollectiveReport {
            seq,
            injected: injected.map(|e| e.kind),
            ..CollectiveReport::default()
        }
    }

    fn validate_equal_shards<T>(&self, shards: &[Vec<T>]) -> Result<usize, FabricError> {
        let d = self.num_devices();
        if shards.len() != d {
            return Err(FabricError::ShardCountMismatch {
                expected: d,
                got: shards.len(),
            });
        }
        let len = shards[0].len();
        if !shards.iter().all(|s| s.len() == len) {
            return Err(FabricError::UnequalShardLengths);
        }
        Ok(len)
    }

    /// All-to-all (NCCL `ncclAllToAll`): shard `d` is split into `D` equal
    /// chunks and chunk `c` of device `d` is delivered to device `c`, where
    /// it lands as chunk `d`.
    ///
    /// Viewing the global array as a `D×D` grid of chunks, this is the chunk
    /// transpose at the heart of every distributed four-step NTT.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShardCountMismatch`] / [`UnequalShardLengths`] /
    /// [`IndivisibleShard`] on argument bugs;
    /// [`CollectiveDropped`] / [`DeviceLost`] on injected faults. An
    /// injected *corruption* is **not** an error here — it silently
    /// damages one chunk; use [`Machine::all_to_all_checked`] to repair
    /// it.
    ///
    /// [`UnequalShardLengths`]: FabricError::UnequalShardLengths
    /// [`IndivisibleShard`]: FabricError::IndivisibleShard
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn all_to_all<T: Copy + Send + PartialEq>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
    ) -> Result<CollectiveReport, FabricError> {
        let len = shard_len(shards);
        self.exchange_all_to_all(Some(shards), len, elem_bytes, false, None)
            .map(|r| r.collective)
    }

    /// [`Machine::all_to_all`] plus repair: the chunk an injected
    /// corruption damaged is re-requested point-to-point from its sender
    /// (charged as fault time and counted as retransmitted bytes). The
    /// returned report says how much was repaired.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_to_all`].
    pub fn all_to_all_checked<T: Copy + Send + PartialEq>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
    ) -> Result<CollectiveReport, FabricError> {
        let len = shard_len(shards);
        self.exchange_all_to_all(Some(shards), len, elem_bytes, true, None)
            .map(|r| r.collective)
    }

    /// All-to-all with communication–compute overlap: the same chunk
    /// transpose, deterministic corruption position and (with
    /// `verify_checksums`) repair as [`Machine::all_to_all_checked`], but
    /// charged as a software pipeline that interleaves chunk transfers
    /// with the caller's producer/consumer kernels.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_to_all`]. Drops are atomic: no data moves and no
    /// pipeline time is charged beyond the detection timeout, so retrying
    /// is always safe.
    pub fn all_to_all_overlapped<T: Copy + Send + PartialEq>(
        &mut self,
        shards: &mut [Vec<T>],
        elem_bytes: usize,
        compute: &OverlapCompute<'_>,
        verify_checksums: bool,
    ) -> Result<OverlapReport, FabricError> {
        let (len, verify) = (shard_len(shards), verify_checksums);
        self.exchange_all_to_all(Some(shards), len, elem_bytes, verify, Some(compute))
    }

    /// The one all-to-all body, for both data planes. `shards` holds the
    /// data (`None`: nothing moves, the exchange is only charged); each
    /// device's shard weighs `shard_len` elements of `elem_bytes` on the
    /// wire on either plane (asserted against `shards`). The fault
    /// decision, its drop / delay / straggler / device-loss charges and,
    /// with `verify`, the repair of the one chunk a corruption decision
    /// names are the same calls whether or not data moves, so a cost-only
    /// walk charges exactly what the functional one does. `pipeline`
    /// selects how time is charged — `None` blocks, `Some` runs the
    /// software pipeline (with `chunks == 1` that degenerates to the
    /// blocking order: produce, transfer, consume). Overlap changes *when*
    /// things happen, never *what* data lands where.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_to_all`]; the shape checks need `shards`.
    pub fn exchange_all_to_all<T: Copy + Send + PartialEq>(
        &mut self,
        mut shards: Option<&mut [Vec<T>]>,
        shard_len: usize,
        elem_bytes: usize,
        verify: bool,
        pipeline: Option<&OverlapCompute<'_>>,
    ) -> Result<OverlapReport, FabricError> {
        let d = self.num_devices();
        let len = match shards.as_deref() {
            Some(shards) => self.validate_equal_shards(shards)?,
            None => 0,
        };
        assert!(
            shards.is_none() || len == shard_len,
            "shards of {len} elements charged as {shard_len}"
        );
        let bytes_per_device = (shard_len * elem_bytes) as u64;
        if d <= 1 {
            // Nothing moves; the interleaved kernels still run.
            if let Some(compute) = pipeline {
                self.charge_overlap_compute_flat(compute);
            }
            return Ok(OverlapReport::default());
        }
        if len % d != 0 {
            return Err(FabricError::IndivisibleShard { len, devices: d });
        }
        self.ensure_all_alive()?;
        let chunk = len / d;
        let base = SimTime::from_ns(self.model().all_to_all_ns(bytes_per_device));

        let (seq, fault) = self.take_fault_decision();
        let fault = self.apply_pre_fault(seq, fault, base)?;
        // An empty chunk has nothing to damage.
        let chunk_bytes = bytes_per_device / d as u64;
        let corrupt = match fault {
            Some(FaultKind::Corrupt { src, dst }) if chunk_bytes > 0 => Some((src, dst)),
            _ => None,
        };

        #[cfg(debug_assertions)]
        let sent = shards.as_deref().map(<[Vec<T>]>::to_vec);

        // Functional exchange, in place: chunk `src` of shard `dst` swaps
        // with chunk `dst` of shard `src`. An in-flight corruption then
        // overwrites one element of the (src → dst) chunk with a
        // neighbouring element from another chunk, at a position that is a
        // pure function of the sequence number; the element it replaced is
        // kept for the repair.
        let mut damaged = None;
        if let Some(shards) = shards.as_deref_mut() {
            for src in 1..d {
                let (below, from) = shards.split_at_mut(src);
                for (dst, shard) in below.iter_mut().enumerate() {
                    shard[src * chunk..(src + 1) * chunk]
                        .swap_with_slice(&mut from[0][dst * chunk..(dst + 1) * chunk]);
                }
            }
            if let Some((src, dst)) = corrupt.filter(|_| chunk > 0) {
                let off = (crate::fault::splitmix64(seq ^ 0xc0ff_ee00) % chunk as u64) as usize;
                let pos = src * chunk + off;
                damaged = Some((dst, pos, shards[dst][pos]));
                shards[dst][pos] = shards[dst][(pos + chunk) % len];
            }
        }

        // Timing.
        let mut report = OverlapReport {
            collective: CollectiveReport {
                seq,
                injected: fault,
                ..CollectiveReport::default()
            },
            ..OverlapReport::default()
        };
        match pipeline {
            None => {
                let (lat, wire) = self.fabric_mut().record_all_to_all(bytes_per_device);
                let links = self.fabric().links_used_all_to_all();
                let egress = bytes_per_device * (d as u64 - 1) / d as u64;
                self.charge_collective("all-to-all", lat + wire, egress, links);
            }
            Some(compute) => {
                (report.elapsed, report.comm, report.hidden_comm) =
                    self.run_overlap_pipeline("all-to-all-overlapped", bytes_per_device, compute);
            }
        }

        // Repair, keyed on the decision: the chunk it names is re-requested
        // from its sender before anything downstream touches the data.
        if let Some((src, _)) = corrupt.filter(|_| verify) {
            if let (Some(shards), Some((dst, pos, value))) = (&mut shards, damaged) {
                shards[dst][pos] = value;
            }
            self.retransmit(src, chunk_bytes, &mut report.collective);
        }

        // Every chunk holds what its sender dispatched, except an
        // unrepaired corruption's.
        #[cfg(debug_assertions)]
        if let (Some(sent), Some(received)) = (sent, shards.as_deref()) {
            let unrepaired = corrupt.filter(|_| !verify);
            for (dst, src) in (0..d).flat_map(|dst| (0..d).map(move |src| (dst, src))) {
                let got = &received[dst][src * chunk..(src + 1) * chunk];
                let want = &sent[src][dst * chunk..(dst + 1) * chunk];
                assert!(
                    got == want || unrepaired == Some((src, dst)),
                    "all-to-all seq {seq}: chunk {src} → {dst} differs from what was sent"
                );
            }
        }
        self.apply_delay_fault(fault, base);
        Ok(report)
    }

    /// Shared engine of the overlapped all-to-all: records the transfer
    /// on the fabric graph, software-pipelines producer slices → chunk
    /// transfers → consumer slices, and charges every alive device the
    /// resulting schedule. Communication is charged in full to
    /// `raw_time_ns.interconnect`; only the *exposed* part (what the
    /// pipeline failed to hide) lands on `time_ns.interconnect`, and the
    /// difference accumulates in [`crate::Stats::comm_hidden_ns`]. The
    /// schedule is integer: each kernel's charge is the one a plain launch
    /// books, and a time cut into chunks is cut into whole picoseconds
    /// that add back up to it.
    ///
    /// Returns `(elapsed, comm, hidden)`, maxed over devices.
    fn run_overlap_pipeline(
        &mut self,
        op: &'static str,
        bytes_per_device: u64,
        compute: &OverlapCompute<'_>,
    ) -> (SimTime, SimTime, SimTime) {
        let d = self.num_devices();
        let chunks = u64::from(compute.chunks.max(1));
        self.barrier();

        let costs = |profiles: &[KernelProfile]| -> Vec<KernelCost> {
            profiles
                .iter()
                .map(|p| self.model().kernel_cost(p))
                .collect()
        };
        let (prod_costs, cons_costs) = (costs(compute.producers), costs(compute.consumers));

        let (lat, wire) = self.fabric_mut().record_all_to_all(bytes_per_device);
        let links = self.fabric().links_used_all_to_all();
        let comm = lat + wire;
        let egress = bytes_per_device * (d as u64 - 1) / d as u64;

        // Work/launch split of a kernel list at straggler factor `s`.
        // Launch overhead is paid once per kernel; only the work part is
        // sliced across chunks (graph replay, not per-chunk launches).
        let split = |costs: &[KernelCost], s: f64| -> (SimTime, SimTime) {
            costs
                .iter()
                .fold((SimTime::ZERO, SimTime::ZERO), |(w, l), c| {
                    let (work, launch) = c.charge(s);
                    (w + work, l + launch)
                })
        };
        // The first `k` of `chunks` near-equal parts of `t` (`k <= chunks`,
        // so the quotient fits back in a `u64`).
        let upto = |t: SimTime, k: u64| {
            SimTime((u128::from(t.0) * u128::from(k) / u128::from(chunks)) as u64)
        };
        let part = |t: SimTime, k: u64| upto(t, k + 1) - upto(t, k);

        // Chunk k of the send buffer is ready once the *slowest* alive
        // device has produced slices 0..=k (the fabric is shared).
        let speeds: Vec<f64> = self
            .devices_mut()
            .iter()
            .filter(|dev| dev.alive)
            .map(|dev| dev.speed_factor)
            .collect();
        let mut avail = vec![SimTime::ZERO; chunks as usize];
        for &s in &speeds {
            let (work, launch) = split(&prod_costs, s);
            for (k, a) in (0..).zip(avail.iter_mut()) {
                *a = (*a).max(launch + upto(work, k + 1));
            }
        }

        // Chunk transfers serialize on the shared fabric; each arrives
        // one fabric latency after its wire slice completes.
        let mut x = SimTime::ZERO;
        let arrivals: Vec<SimTime> = (0..)
            .zip(&avail)
            .map(|(k, &a)| {
                x = x.max(a) + part(wire, k);
                x + lat
            })
            .collect();

        let mut elapsed_max = SimTime::ZERO;
        let mut hidden_max = SimTime::ZERO;
        for dev in self.devices_mut().iter_mut().filter(|dev| dev.alive) {
            let s = dev.speed_factor;
            let (cons_work, cons_launch) = split(&cons_costs, s);
            let elapsed = if cons_work + cons_launch > SimTime::ZERO {
                let done = (0..).zip(&arrivals).fold(SimTime::ZERO, |done, (k, &arr)| {
                    done.max(arr) + part(cons_work, k)
                });
                done + cons_launch
            } else {
                arrivals.last().copied().unwrap_or_default()
            };

            // Charge the interleaved kernels exactly as a plain launch
            // would: same counters, same bottleneck/raw accounting.
            let mut compute_total = SimTime::ZERO;
            for (profile, cost) in compute
                .producers
                .iter()
                .zip(&prod_costs)
                .chain(compute.consumers.iter().zip(&cons_costs))
            {
                let (work, launch) = book_kernel(&mut dev.stats, profile, cost, s);
                compute_total += work + launch;
            }

            let exposed = elapsed.saturating_sub(compute_total);
            let hidden = comm.saturating_sub(exposed);
            let st = &mut dev.stats;
            st.time_ns.interconnect += exposed;
            st.raw_time_ns.interconnect += comm;
            st.comm_hidden_ns += hidden;
            st.interconnect_bytes_sent += egress;
            st.collectives += 1;
            dev.timeline.push(TraceEvent {
                name: "overlapped-collective",
                start: dev.clock,
                duration: elapsed,
                category: Category::Interconnect,
                queue: 0,
            });
            dev.clock += elapsed;
            elapsed_max = elapsed_max.max(elapsed);
            hidden_max = hidden_max.max(hidden);
        }
        let alive = self.alive_devices() as u64;
        self.record_collective(op, egress * alive, links, elapsed_max, hidden_max);
        (elapsed_max, comm, hidden_max)
    }

    /// Charges `compute`'s kernels at their ordinary (non-pipelined)
    /// cost on every alive device — the degenerate path when there is no
    /// fabric to overlap against.
    fn charge_overlap_compute_flat(&mut self, compute: &OverlapCompute<'_>) {
        let profiles: Vec<KernelProfile> = compute
            .producers
            .iter()
            .chain(compute.consumers.iter())
            .copied()
            .collect();
        for dev in 0..self.num_devices() {
            if !self.is_alive(dev) {
                continue;
            }
            self.on_device(dev, &mut (), |ctx, _| {
                for p in &profiles {
                    ctx.launch(p);
                }
            });
        }
    }

    /// All-gather: every device ends with the concatenation of all shards
    /// (device order). Returns the gathered copies.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShardCountMismatch`] / [`UnequalShardLengths`] on
    /// argument bugs; [`CollectiveDropped`] / [`DeviceLost`] on injected
    /// faults. Injected corruption damages one element of one device's
    /// gathered copy (silently — use [`Machine::all_gather_checked`] to
    /// detect and repair it).
    ///
    /// [`UnequalShardLengths`]: FabricError::UnequalShardLengths
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn all_gather<T: Copy + Send>(
        &mut self,
        shards: &[Vec<T>],
        elem_bytes: usize,
    ) -> Result<Vec<Vec<T>>, FabricError> {
        let d = self.num_devices();
        let len = self.validate_equal_shards(shards)?;

        let mut gathered = Vec::with_capacity(len * d);
        for s in shards {
            gathered.extend_from_slice(s);
        }
        let mut out = vec![gathered; d];

        if d > 1 {
            self.ensure_all_alive()?;
            let bytes_per_device = (len * elem_bytes) as u64;
            let base = SimTime::from_ns(self.model().all_gather_ns(bytes_per_device));
            let (seq, fault) = self.take_fault_decision();
            let fault = self.apply_pre_fault(seq, fault, base)?;
            if let Some(FaultKind::Corrupt { src, dst }) = fault.filter(|_| len > 0) {
                let pos =
                    src * len + (crate::fault::splitmix64(seq ^ 0xc0ff_ee01) % len as u64) as usize;
                out[dst][pos] = out[dst][(pos + 1) % out[dst].len()];
            }
            let egress = bytes_per_device * (d as u64 - 1);
            self.charge_collective("all-gather", base, egress, d as u32);
            self.apply_delay_fault(fault, base);
        }
        Ok(out)
    }

    /// [`Machine::all_gather`] plus repair: the segment an injected
    /// corruption damaged is re-requested point-to-point from its source
    /// (charged as fault time and counted as retransmitted bytes) and
    /// copied back from the source's shard, whatever values it held — as
    /// [`Machine::reduce_to_root_checked`] repairs a contribution. The
    /// returned report says what was injected and how much was repaired.
    ///
    /// # Errors
    ///
    /// As [`Machine::all_gather`].
    pub fn all_gather_checked<T: Copy + Send + PartialEq>(
        &mut self,
        shards: &[Vec<T>],
        elem_bytes: usize,
    ) -> Result<(Vec<Vec<T>>, CollectiveReport), FabricError> {
        let seq = self.collective_seq();
        let mut out = self.all_gather(shards, elem_bytes)?;
        if self.num_devices() <= 1 {
            return Ok((out, CollectiveReport::default()));
        }
        let mut report = self.logged_report(seq);
        let len = shards[0].len();
        if let Some(FaultKind::Corrupt { src, dst }) = report.injected.filter(|_| len > 0) {
            out[dst][src * len..(src + 1) * len].copy_from_slice(&shards[src]);
            self.retransmit(src, (len * elem_bytes) as u64, &mut report);
        }
        debug_assert!(
            out.iter().all(|row| row[..] == shards.concat()[..]),
            "all-gather seq {seq}: a repaired copy differs from what was sent"
        );
        Ok((out, report))
    }

    /// Tree reduction to device 0 using a caller-supplied combiner
    /// (e.g. field addition, curve-point addition). Returns the reduced
    /// value; time is `ceil(log2 D)` point-to-point rounds of the full
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`FabricError::ShardCountMismatch`] if `values.len()` differs from
    /// the device count; [`CollectiveDropped`] / [`DeviceLost`] on
    /// injected faults. Injected corruption is ignored (reductions are
    /// assumed end-to-end verified by their small size).
    ///
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn reduce_to_root<T: Clone + Send>(
        &mut self,
        values: &[T],
        elem_bytes: usize,
        combine: impl Fn(&T, &T) -> T,
    ) -> Result<T, FabricError> {
        let d = self.num_devices();
        if values.len() != d {
            return Err(FabricError::ShardCountMismatch {
                expected: d,
                got: values.len(),
            });
        }
        let mut acc = values[0].clone();
        for v in &values[1..] {
            acc = combine(&acc, v);
        }
        if d > 1 {
            self.ensure_all_alive()?;
            let base = self.tree_rounds(elem_bytes);
            let (seq, fault) = self.take_fault_decision();
            let fault = self.apply_pre_fault(seq, fault, base)?;
            self.charge_collective("reduce-to-root", base, elem_bytes as u64, d as u32 - 1);
            self.apply_delay_fault(fault, base);
        }
        Ok(acc)
    }

    /// [`Machine::reduce_to_root`] with repaired contributions. The
    /// reduction never damages data (it combines the caller's values), so
    /// there is nothing to compare: when the machine's fault log shows a
    /// corruption injected into this collective, the contribution of its
    /// `src` device is re-requested once (charged as fault time plus
    /// retransmitted bytes) and the reduced value is the pristine one.
    ///
    /// # Errors
    ///
    /// As [`Machine::reduce_to_root`].
    pub fn reduce_to_root_checked<T: Clone + Send>(
        &mut self,
        values: &[T],
        elem_bytes: usize,
        combine: impl Fn(&T, &T) -> T,
    ) -> Result<(T, CollectiveReport), FabricError> {
        let seq = self.collective_seq();
        let acc = self.reduce_to_root(values, elem_bytes, combine)?;
        if self.num_devices() <= 1 {
            return Ok((acc, CollectiveReport::default()));
        }
        let mut report = self.logged_report(seq);
        if let Some(FaultKind::Corrupt { src, .. }) = report.injected {
            self.retransmit(src, elem_bytes as u64, &mut report);
        }
        Ok((acc, report))
    }

    /// Broadcast from device 0: returns one copy per device; time is a
    /// `ceil(log2 D)`-round binomial tree.
    ///
    /// # Errors
    ///
    /// [`CollectiveDropped`] / [`DeviceLost`] on injected faults.
    /// Injected corruption is ignored, as for reductions.
    ///
    /// [`CollectiveDropped`]: FabricError::CollectiveDropped
    /// [`DeviceLost`]: FabricError::DeviceLost
    pub fn broadcast<T: Clone + Send>(
        &mut self,
        value: &T,
        elem_bytes: usize,
    ) -> Result<Vec<T>, FabricError> {
        let d = self.num_devices();
        if d > 1 {
            self.ensure_all_alive()?;
            let base = self.tree_rounds(elem_bytes);
            let (seq, fault) = self.take_fault_decision();
            let fault = self.apply_pre_fault(seq, fault, base)?;
            self.charge_collective("broadcast", base, elem_bytes as u64, d as u32 - 1);
            self.apply_delay_fault(fault, base);
        }
        Ok(vec![value.clone(); d])
    }

    /// A binomial tree's `ceil(log2 D)` point-to-point rounds of
    /// `elem_bytes` each.
    fn tree_rounds(&self, elem_bytes: usize) -> SimTime {
        let rounds = self.num_devices().next_power_of_two().trailing_zeros();
        let p2p = SimTime::from_ns(self.model().p2p_ns(elem_bytes as u64));
        SimTime(p2p.0 * u64::from(rounds))
    }
}

/// What each device's shard weighs on the wire (the first shard's; the
/// collective rejects unequal shards before it charges anything).
fn shard_len<T>(shards: &[Vec<T>]) -> usize {
    shards.first().map_or(0, Vec::len)
}

#[cfg(test)]
mod tests {
    use super::{OverlapCompute, OverlapReport};
    use unintt_telemetry::{AttrValue, InstantKind, SimTime};

    use crate::config::FieldSpec;
    use crate::device::KernelProfile;
    use crate::fault::{FabricError, FaultEvent, FaultKind, FaultPlan, FaultRates};
    use crate::machine::Machine;
    use crate::presets;
    use crate::trace::Category;

    fn machine(gpus: usize) -> Machine {
        Machine::new(presets::a100_nvlink(gpus), FieldSpec::goldilocks())
    }

    /// The cost-only plane: an exchange with no data to move.
    const NOTHING: Option<&mut [Vec<u64>]> = None;

    fn scripted(machine: &mut Machine, seq: u64, kind: FaultKind) {
        machine.set_fault_plan(FaultPlan::scripted(vec![FaultEvent { seq, kind }]));
    }

    #[test]
    fn all_to_all_is_chunk_transpose() {
        let d = 4;
        let mut m = machine(d);
        let chunk = 3;
        // shard[dev][c*chunk + i] = dev*100 + c*10 + i
        let mut shards: Vec<Vec<u64>> = (0..d)
            .map(|dev| {
                (0..d * chunk)
                    .map(|j| (dev * 100 + (j / chunk) * 10 + j % chunk) as u64)
                    .collect()
            })
            .collect();
        m.all_to_all(&mut shards, 8).unwrap();
        for (dev, shard) in shards.iter().enumerate() {
            for c in 0..d {
                for i in 0..chunk {
                    // After exchange: device `dev` chunk `c` came from
                    // device `c` chunk `dev`.
                    assert_eq!(shard[c * chunk + i], (c * 100 + dev * 10 + i) as u64);
                }
            }
        }
        assert!(m.max_clock_ns() > 0.0);
        assert!(m.stats().interconnect_bytes_sent > 0);
    }

    #[test]
    fn all_to_all_involution() {
        let d = 8;
        let mut m = machine(d);
        let mut shards: Vec<Vec<u64>> = (0..d)
            .map(|dev| (0..64).map(|j| (dev * 64 + j) as u64).collect())
            .collect();
        let original = shards.clone();
        m.all_to_all(&mut shards, 8).unwrap();
        assert_ne!(shards, original);
        m.all_to_all(&mut shards, 8).unwrap();
        assert_eq!(shards, original, "all-to-all must be an involution");
    }

    #[test]
    fn all_to_all_single_device_noop() {
        let mut m = machine(1);
        let mut shards = vec![vec![1u64, 2, 3, 4]];
        m.all_to_all(&mut shards, 8).unwrap();
        assert_eq!(shards[0], vec![1, 2, 3, 4]);
        assert_eq!(m.max_clock_ns(), 0.0);
    }

    #[test]
    fn all_gather_concatenates_in_device_order() {
        let mut m = machine(3);
        let shards = vec![vec![1u64], vec![2], vec![3]];
        let gathered = m.all_gather(&shards, 8).unwrap();
        assert_eq!(gathered.len(), 3);
        for g in gathered {
            assert_eq!(g, vec![1, 2, 3]);
        }
    }

    #[test]
    fn reduce_to_root_combines_all() {
        let mut m = machine(4);
        let values = vec![1u64, 10, 100, 1000];
        let sum = m.reduce_to_root(&values, 8, |a, b| a + b).unwrap();
        assert_eq!(sum, 1111);
        assert!(m.max_clock_ns() > 0.0);
    }

    #[test]
    fn broadcast_replicates() {
        let mut m = machine(4);
        let copies = m.broadcast(&42u64, 8).unwrap();
        assert_eq!(copies, vec![42; 4]);
    }

    #[test]
    fn all_to_all_indivisible_is_typed_error() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0; 6]).collect();
        assert_eq!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::IndivisibleShard { len: 6, devices: 4 })
        );
    }

    #[test]
    fn shard_count_mismatch_is_typed_error() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..3).map(|_| vec![0; 4]).collect();
        assert_eq!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::ShardCountMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(
            m.all_gather(&shards, 8),
            Err(FabricError::ShardCountMismatch {
                expected: 4,
                got: 3
            })
        );
    }

    #[test]
    fn collective_time_grows_with_bytes() {
        let mut m1 = machine(4);
        let mut small: Vec<Vec<u64>> = (0..4).map(|_| vec![0; 1 << 10]).collect();
        m1.all_to_all(&mut small, 8).unwrap();
        let t_small = m1.max_clock_ns();

        let mut m2 = machine(4);
        let mut big: Vec<Vec<u64>> = (0..4).map(|_| vec![0; 1 << 16]).collect();
        m2.all_to_all(&mut big, 8).unwrap();
        assert!(m2.max_clock_ns() > t_small);
    }

    #[test]
    fn dropped_collective_moves_no_data_and_charges_timeout() {
        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Drop);
        let mut shards: Vec<Vec<u64>> = (0..4)
            .map(|dev| (0..8).map(|j| (dev * 8 + j) as u64).collect())
            .collect();
        let before = shards.clone();
        let err = m.all_to_all(&mut shards, 8).unwrap_err();
        assert_eq!(err, FabricError::CollectiveDropped { seq: 0 });
        assert_eq!(shards, before, "drop must be atomic");
        assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
        // The retry (seq 1) is clean and completes.
        m.all_to_all(&mut shards, 8).unwrap();
        assert_ne!(shards, before);
        assert_eq!(m.fault_log().len(), 1);
    }

    #[test]
    fn corruption_is_silent_unchecked_but_repaired_checked() {
        let kind = FaultKind::Corrupt { src: 2, dst: 1 };
        let make_shards = || -> Vec<Vec<u64>> {
            (0..4)
                .map(|dev| (0..16).map(|j| (dev * 1000 + j) as u64).collect())
                .collect()
        };
        // Expected result of a clean exchange.
        let mut clean = make_shards();
        machine(4).all_to_all(&mut clean, 8).unwrap();

        // Unchecked: corruption lands in the (src=2 → dst=1) chunk.
        let mut m = machine(4);
        scripted(&mut m, 0, kind);
        let mut shards = make_shards();
        m.all_to_all(&mut shards, 8).unwrap();
        assert_ne!(shards, clean, "corruption should damage the data");

        // Checked: detected, repaired, and billed.
        let mut m = machine(4);
        scripted(&mut m, 0, kind);
        let mut shards = make_shards();
        let report = m.all_to_all_checked(&mut shards, 8).unwrap();
        assert_eq!(shards, clean, "repair must restore the data");
        assert_eq!(report.retransmitted_chunks, 1);
        assert!(report.retransmitted_bytes > 0);
        assert!(m.stats().interconnect_bytes_retransmitted > 0);
        assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
    }

    #[test]
    fn both_planes_take_the_same_faults() {
        let (prod, cons) = overlap_profiles();
        let compute = OverlapCompute {
            producers: &[prod],
            consumers: &[cons],
            chunks: 3,
        };
        let plans = [
            FaultPlan::scripted(vec![FaultEvent {
                seq: 1,
                kind: FaultKind::DeviceLoss { device: 3 },
            }]),
            FaultPlan::random(7, FaultRates::transfers_only(0.4)),
            FaultPlan::random(
                8,
                FaultRates {
                    corrupt_p: 0.3,
                    delay_p: 0.2,
                    straggler_p: 0.2,
                    ..FaultRates::default()
                },
            ),
        ];
        for (plan, verify, pipelined) in plans
            .iter()
            .flat_map(|p| [false, true].map(move |v| (p, v)))
            .flat_map(|(p, v)| [false, true].map(move |o| (p, v, o)))
        {
            let pipeline = pipelined.then_some(&compute);
            let [elements, unit] = [true, false].map(|elements| {
                let mut m = machine(4);
                m.set_fault_plan(plan.clone());
                let mut shards: Vec<Vec<u64>> = (0..4).map(|dev| vec![dev as u64; 64]).collect();
                let outcomes: Vec<_> = (0..6)
                    .map(|_| {
                        let shards = elements.then_some(&mut shards[..]);
                        m.exchange_all_to_all(shards, 64, 8, verify, pipeline)
                    })
                    .collect();
                let log = m.fault_log().to_vec();
                (outcomes, log, m.max_clock_ns().to_bits(), m.stats())
            });
            assert!(!elements.1.is_empty(), "every plan injects something");
            assert_eq!(
                elements, unit,
                "{plan:?} verify={verify} pipelined={pipelined}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shards of 64 elements charged as 32")]
    fn exchange_charges_what_the_shards_hold() {
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 64]).collect();
        let _ = machine(4).exchange_all_to_all(Some(&mut shards[..]), 32, 8, false, None);
    }

    #[test]
    fn cluster_loss_kills_every_device_at_once() {
        let mut m = machine(4);
        scripted(&mut m, 1, FaultKind::ClusterLoss);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![7u64; 8]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        let err = m.all_to_all(&mut shards, 8).unwrap_err();
        assert!(matches!(err, FabricError::DeviceLost { .. }));
        assert_eq!(m.alive_devices(), 0, "the whole machine must be dead");
        // No local re-plan can succeed: every later collective fails too.
        assert!(matches!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::DeviceLost { .. })
        ));
    }

    #[test]
    fn checked_clean_run_retransmits_nothing() {
        let mut m = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4)
            .map(|dev| (0..16).map(|j| (dev * 16 + j) as u64).collect())
            .collect();
        let report = m.all_to_all_checked(&mut shards, 8).unwrap();
        assert_eq!(report.retransmitted_chunks, 0);
        assert_eq!(m.stats().time_ns.get(Category::Fault), 0.0);
    }

    #[test]
    fn device_loss_fails_this_and_later_collectives() {
        let mut m = machine(4);
        scripted(&mut m, 1, FaultKind::DeviceLoss { device: 2 });
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![7u64; 8]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        let err = m.all_to_all(&mut shards, 8).unwrap_err();
        assert_eq!(err, FabricError::DeviceLost { device: 2, seq: 1 });
        assert!(!m.is_alive(2));
        assert_eq!(m.alive_devices(), 3);
        // Every later collective keeps failing until the caller re-plans.
        assert!(matches!(
            m.all_to_all(&mut shards, 8),
            Err(FabricError::DeviceLost { device: 2, .. })
        ));
    }

    #[test]
    fn delay_charges_extra_fault_time() {
        let mut clean = machine(4);
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 1 << 10]).collect();
        clean.all_to_all(&mut shards, 8).unwrap();
        let t_clean = clean.max_clock_ns();

        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Delay { factor: 5.0 });
        let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 1 << 10]).collect();
        m.all_to_all(&mut shards, 8).unwrap();
        assert!(m.max_clock_ns() > t_clean);
        assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
    }

    #[test]
    fn straggler_slows_subsequent_kernels() {
        use crate::device::KernelProfile;
        let run = |straggle: bool| -> f64 {
            let mut m = machine(2);
            if straggle {
                scripted(
                    &mut m,
                    0,
                    FaultKind::Straggler {
                        device: 0,
                        factor: 3.0,
                    },
                );
            }
            let mut shards: Vec<Vec<u64>> = (0..2).map(|_| vec![0u64; 8]).collect();
            m.all_to_all(&mut shards, 8).unwrap();
            m.parallel_phase(&mut shards, |ctx, _, _| {
                let mut p = KernelProfile::named("work");
                p.global_bytes_read = 1 << 24;
                ctx.launch(&p);
            });
            m.max_clock_ns()
        };
        assert!(run(true) > run(false));
    }

    fn overlap_profiles() -> (KernelProfile, KernelProfile) {
        let mut prod = KernelProfile::named("producer");
        prod.blocks = 4096;
        prod.global_bytes_read = 1 << 26;
        prod.global_bytes_written = 1 << 26;
        let mut cons = KernelProfile::named("consumer");
        cons.blocks = 4096;
        cons.global_bytes_read = 1 << 26;
        cons.global_bytes_written = 1 << 26;
        cons.field_muls = 1 << 20;
        (prod, cons)
    }

    /// The collective markers `run` records: `(name, attributes)`.
    fn collective_marks(run: impl FnOnce()) -> Vec<(String, Vec<(&'static str, AttrValue)>)> {
        let _guard = unintt_telemetry::start_session();
        run();
        let instants = unintt_telemetry::take_session().instants;
        instants
            .into_iter()
            .filter(|i| i.kind == InstantKind::Collective)
            .map(|i| (i.name, i.attrs))
            .collect()
    }

    fn attr(attrs: &[(&'static str, AttrValue)], key: &str) -> AttrValue {
        attrs
            .iter()
            .find(|(k, _)| *k == key)
            .expect("attribute")
            .1
            .clone()
    }

    #[test]
    fn blocking_collectives_record_events() {
        let marks = collective_marks(|| {
            let mut m = machine(4);
            let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 16]).collect();
            m.all_to_all(&mut shards, 8).unwrap();
            let _ = m.all_gather(&shards, 8).unwrap();
        });
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].0, "all-to-all");
        assert_eq!(marks[1].0, "all-gather");
        assert_ne!(attr(&marks[0].1, "links_used"), AttrValue::U64(0));
        assert_ne!(attr(&marks[0].1, "bytes"), AttrValue::U64(0));
        assert_eq!(attr(&marks[0].1, "hidden_ns"), AttrValue::F64(0.0));
    }

    #[test]
    fn links_book_the_wire_time_the_devices_were_charged() {
        for cfg in [
            presets::a100_nvlink(4),
            presets::v100_nvlink_ring(8),
            presets::rtx4090_pcie(4),
            presets::a100_superpod(2, 4),
        ] {
            let mut m = Machine::new(cfg.clone(), FieldSpec::goldilocks());
            let d = m.num_devices();
            // The devices' interconnect books hold latency + wire per
            // exchange; take the latency out again.
            let mut wire = SimTime::ZERO;
            for len in [8, 1000, 4096, 12_344, 1 << 16] {
                let booked = |m: &Machine| m.device_stats(0).time_ns.interconnect;
                let before = booked(&m);
                m.exchange_all_to_all(NOTHING, len * d, 8, false, None)
                    .unwrap();
                let bytes = (len * d * 8) as u64;
                let (lat, _) = crate::fabric::all_to_all_split(&cfg.interconnect, d, bytes);
                wire += booked(&m) - before - SimTime::from_ns(lat);
            }
            for l in m.fabric().links() {
                assert_eq!(
                    l.busy, wire,
                    "{} on {:?}",
                    l.name, cfg.interconnect.topology
                );
            }
        }
    }

    #[test]
    fn overlapped_single_chunk_matches_blocking_schedule() {
        let (prod, cons) = overlap_profiles();
        let len = 1 << 16;

        let blocking = {
            let mut m = machine(4);
            let mut shards: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64; 2]).collect();
            m.parallel_phase(&mut shards, |ctx, _, _| {
                ctx.launch(&prod);
            });
            m.exchange_all_to_all(NOTHING, len, 8, false, None).unwrap();
            m.parallel_phase(&mut shards, |ctx, _, _| {
                ctx.launch(&cons);
            });
            m
        };
        let overlapped = {
            let mut m = machine(4);
            let compute = OverlapCompute {
                producers: &[prod],
                consumers: &[cons],
                chunks: 1,
            };
            m.exchange_all_to_all(NOTHING, len, 8, false, Some(&compute))
                .unwrap();
            m
        };

        assert_eq!(blocking.max_clock(), overlapped.max_clock());
        assert_eq!(
            blocking.stats().kernels_launched,
            overlapped.stats().kernels_launched
        );
        assert_eq!(
            blocking.stats().interconnect_bytes_sent,
            overlapped.stats().interconnect_bytes_sent
        );
        assert_eq!(overlapped.ledger().comm_hidden_ns, SimTime::ZERO);
    }

    #[test]
    fn overlap_hides_communication_with_many_chunks() {
        let (prod, cons) = overlap_profiles();
        let len = 1 << 21;
        let run = |chunks: u32| -> (Machine, OverlapReport) {
            let mut m = machine(8);
            let compute = OverlapCompute {
                producers: &[prod],
                consumers: &[cons],
                chunks,
            };
            let rep = m
                .exchange_all_to_all(NOTHING, len, 8, false, Some(&compute))
                .unwrap();
            (m, rep)
        };
        let (m1, r1) = run(1);
        let mut eight = None;
        let marks = collective_marks(|| eight = Some(run(8)));
        let (m8, r8) = eight.expect("ran");
        assert!(m8.max_clock_ns() < m1.max_clock_ns());
        assert!(r8.hidden_comm > SimTime::ZERO);
        assert_eq!(r1.hidden_comm, SimTime::ZERO);
        // The raw (overlap-blind) interconnect charge is identical: overlap
        // changes the exposed time, not the work done.
        let (s1, s8) = (m1.ledger(), m8.ledger());
        assert_eq!(s1.raw_time_ns.interconnect, s8.raw_time_ns.interconnect);
        // Hidden time is exactly what left the bottleneck account.
        assert_eq!(
            s8.raw_time_ns.interconnect - s8.time_ns.interconnect,
            s8.comm_hidden_ns
        );
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].0, "all-to-all-overlapped");
        assert_eq!(
            attr(&marks[0].1, "hidden_ns"),
            AttrValue::F64(r8.hidden_comm.as_ns())
        );
    }

    #[test]
    fn overlapped_exchange_is_bit_identical_to_blocking() {
        let d = 4;
        let make = || -> Vec<Vec<u64>> {
            (0..d)
                .map(|dev| (0..16).map(|j| (dev * 1000 + j) as u64).collect())
                .collect()
        };
        let mut blocking = make();
        machine(d).all_to_all(&mut blocking, 8).unwrap();

        let (prod, cons) = overlap_profiles();
        let compute = OverlapCompute {
            producers: &[prod],
            consumers: &[cons],
            chunks: 4,
        };
        let mut m = machine(d);
        let mut shards = make();
        m.all_to_all_overlapped(&mut shards, 8, &compute, true)
            .unwrap();
        assert_eq!(shards, blocking);
    }

    #[test]
    fn overlapped_corruption_repaired_and_drop_atomic() {
        let (prod, cons) = overlap_profiles();
        let compute = OverlapCompute {
            producers: &[prod],
            consumers: &[cons],
            chunks: 4,
        };
        let make = || -> Vec<Vec<u64>> {
            (0..4)
                .map(|dev| (0..16).map(|j| (dev * 1000 + j) as u64).collect())
                .collect()
        };
        let mut clean = make();
        machine(4).all_to_all(&mut clean, 8).unwrap();

        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Corrupt { src: 2, dst: 1 });
        let mut shards = make();
        let rep = m
            .all_to_all_overlapped(&mut shards, 8, &compute, true)
            .unwrap();
        assert_eq!(shards, clean, "repair must restore the data");
        assert_eq!(rep.collective.retransmitted_chunks, 1);
        assert!(m.stats().interconnect_bytes_retransmitted > 0);

        let mut m = machine(4);
        scripted(&mut m, 0, FaultKind::Drop);
        let mut shards = make();
        let before = shards.clone();
        let err = m
            .all_to_all_overlapped(&mut shards, 8, &compute, true)
            .unwrap_err();
        assert_eq!(err, FabricError::CollectiveDropped { seq: 0 });
        assert_eq!(shards, before, "drop must be atomic");
        // The retry (seq 1) is clean and completes.
        m.all_to_all_overlapped(&mut shards, 8, &compute, true)
            .unwrap();
        assert_eq!(shards, clean);
    }

    #[test]
    fn empty_shards_give_typed_results_under_every_fault() {
        let (prod, cons) = overlap_profiles();
        let compute = OverlapCompute {
            producers: &[prod],
            consumers: &[cons],
            chunks: 2,
        };
        for d in [2usize, 4] {
            let kinds = [
                FaultKind::Drop,
                FaultKind::Corrupt { src: d - 1, dst: 0 },
                FaultKind::Delay { factor: 3.0 },
                FaultKind::Straggler {
                    device: 1,
                    factor: 2.0,
                },
                FaultKind::DeviceLoss { device: 1 },
                FaultKind::ClusterLoss,
            ];
            for (kind, op) in kinds
                .into_iter()
                .flat_map(|k| (0..3).map(move |op| (k, op)))
            {
                let mut m = machine(d);
                scripted(&mut m, 0, kind);
                let mut shards: Vec<Vec<u64>> = vec![Vec::new(); d];
                let result = match op {
                    0 => m.all_to_all(&mut shards, 8),
                    1 => m.all_to_all_checked(&mut shards, 8),
                    _ => m
                        .all_to_all_overlapped(&mut shards, 8, &compute, true)
                        .map(|r| r.collective),
                };
                let case = format!("d{d} {kind:?} op{op}");
                match kind {
                    FaultKind::Drop => {
                        assert_eq!(result, Err(FabricError::CollectiveDropped { seq: 0 }));
                    }
                    FaultKind::DeviceLoss { .. } | FaultKind::ClusterLoss => {
                        assert!(
                            matches!(result, Err(FabricError::DeviceLost { .. })),
                            "{case}"
                        );
                    }
                    // A straggler is applied before the exchange, not reported.
                    FaultKind::Straggler { .. } => assert_eq!(result.unwrap().injected, None),
                    _ => {
                        let report = result.unwrap();
                        assert_eq!(report.injected, Some(kind), "{case}");
                        assert_eq!(report.retransmitted_chunks, 0, "{case}");
                    }
                }
                assert!(shards.iter().all(Vec::is_empty), "{case}");
            }
        }
    }

    #[test]
    fn random_plan_replays_identically() {
        let run = || {
            let mut m = machine(4);
            m.set_fault_plan(FaultPlan::random(99, FaultRates::transfers_only(0.2)));
            let mut shards: Vec<Vec<u64>> = (0..4)
                .map(|dev| (0..16).map(|j| (dev * 16 + j) as u64).collect())
                .collect();
            let mut outcomes = Vec::new();
            for _ in 0..20 {
                outcomes.push(
                    m.all_to_all_checked(&mut shards, 8)
                        .map(|r| r.retransmitted_chunks),
                );
            }
            (outcomes, m.fault_log().to_vec(), m.max_clock_ns(), shards)
        };
        assert_eq!(run(), run());
    }
}
