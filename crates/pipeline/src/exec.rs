//! A deterministic DAG executor over a fixed set of device lanes.
//!
//! [`DagExecutor`] schedules ready stages from multiple concurrent
//! proofs onto `lanes` simulated leases, each a
//! [`StreamSet`] of `streams_per_lane` typed compute queues. It is one
//! event loop: admit every placeable ready stage (earliest availability,
//! then proof index, then stage index), advance to the next completion,
//! commit it, repeat. So the MSM stage of one proof overlaps the NTT
//! stage of another, and independent stages *within* one proof (the
//! three wire commits; z-commit against the quotient LDE) run on
//! different lanes at the same simulated time. At one queue per lane a
//! lane holds one stage at a time; with more, stages of different
//! resource classes co-reside under the interference model.
//!
//! Per-proof progress — readiness, barriers, completion — is a
//! [`DagRun`], the same type the serving layer's event loop keeps; only
//! the placement rule is the executor's own: the accepting lane with the
//! lowest interference penalty, lowest lane index on ties.
//!
//! Everything is driven by the proofs' own simulated-clock deltas; the
//! executor is pure bookkeeping and fully deterministic, so two runs
//! over the same inputs produce identical reports.
//!
//! Stage faults: a transient [`unintt_gpu_sim::FabricError`] is retried
//! in place up to four times per stage (`MAX_RETRIES`); the wasted attempt
//! time stays charged to the lane (the hardware really ran), which is
//! exactly the "replay only the affected subgraph" failover story —
//! completed stages never re-run.

use std::collections::BTreeMap;

use unintt_core::RecoveryPolicy;
use unintt_gpu_sim::{InterferenceModel, SimTime, StreamSet};

use crate::dag::StageKind;
use crate::proof::ProofPipeline;
use crate::run::DagRun;

/// Transient-fault retries per stage before the executor gives up.
const MAX_RETRIES: u32 = 4;

/// The record of one executed proof.
#[derive(Clone, Debug)]
pub struct ProofRun {
    /// Stable fingerprint of the finished output.
    pub digest: u64,
    /// Simulated completion time of the final stage.
    pub completed: SimTime,
    /// Transient stage retries absorbed during execution.
    pub retries: u32,
    /// Lane-occupied simulated time attributed per stage kind.
    pub stage_time: BTreeMap<StageKind, SimTime>,
}

/// The executor's summary.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Per-proof outcomes, in submission order.
    pub runs: Vec<ProofRun>,
    /// Simulated time at which the last stage completed, ns (a
    /// read-out of the integer clock).
    pub makespan_ns: f64,
    /// Total lane-occupied simulated time, ns (a read-out of the integer
    /// clock).
    pub busy_ns: f64,
    /// Number of lanes.
    pub lanes: usize,
    /// Compute queues per lane (1 = serialized stage dispatch).
    pub streams_per_lane: usize,
}

impl ExecReport {
    /// Mean lane occupancy over the makespan. In serialized dispatch
    /// (`streams_per_lane == 1`) this is 0..=1; with stream overlap it
    /// counts stage residency, so two co-resident stages push it above
    /// 1.0 — that surplus *is* the overlap win.
    pub fn occupancy(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        self.busy_ns / (self.makespan_ns * self.lanes as f64)
    }
}

/// Deterministic multi-proof stage scheduler (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct DagExecutor {
    /// Number of device lanes (leases).
    pub lanes: usize,
    /// Compute queues per lane. `1` (the default) serializes stages on a
    /// lane; `2..=4` lets stages of *different*
    /// [`unintt_gpu_sim::ResourceClass`]es co-reside on one lane with the
    /// interference-model slowdown. Outputs are bit-identical at every
    /// queue count — only the clocks move.
    pub streams_per_lane: usize,
    /// Pairwise slowdown factors applied to co-resident stages.
    pub interference: InterferenceModel,
}

impl DagExecutor {
    /// An interleaving executor over `lanes` lanes, one queue each.
    pub fn interleaved(lanes: usize) -> Self {
        Self {
            lanes,
            streams_per_lane: 1,
            interference: InterferenceModel::default_model(),
        }
    }

    /// Returns `self` with `streams` compute queues per lane under the
    /// given interference model.
    pub fn with_streams(mut self, streams: usize, model: InterferenceModel) -> Self {
        self.streams_per_lane = streams;
        self.interference = model;
        self
    }

    /// Runs every pipeline to completion.
    ///
    /// Bit-identity holds at every queue count because stage *execution*
    /// is functional and happens at dispatch: a stage mutates its proof
    /// the instant it is admitted, in DAG dependency order, and
    /// transcript barriers are totally ordered — the queues only decide
    /// when completions commit on the simulated clock.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`, if `streams_per_lane` is outside
    /// `1..=`[`unintt_core::MAX_STREAMS_PER_LEASE`], or if a stage fails
    /// permanently (a non-transient fabric error, or a transient one that
    /// outlives `MAX_RETRIES` — executor callers model repair at a
    /// higher level).
    pub fn run(&self, pipelines: Vec<ProofPipeline>) -> ExecReport {
        assert!(self.lanes > 0, "need at least one lane");
        assert!(
            (1..=unintt_core::MAX_STREAMS_PER_LEASE as usize).contains(&self.streams_per_lane),
            "streams_per_lane must be 1..={}, got {}",
            unintt_core::MAX_STREAMS_PER_LEASE,
            self.streams_per_lane
        );
        let policy = RecoveryPolicy::none();
        let mut runs: Vec<DagRun> = pipelines
            .into_iter()
            .map(|p| DagRun::new(p, SimTime::ZERO))
            .collect();
        // Per proof: transient retries and lane time per stage kind.
        let mut retries = vec![0u32; runs.len()];
        let mut stage_time: Vec<BTreeMap<StageKind, SimTime>> = vec![BTreeMap::new(); runs.len()];
        let mut lanes: Vec<StreamSet> = (0..self.lanes)
            .map(|_| StreamSet::new(self.streams_per_lane, self.interference))
            .collect();
        // In-flight key -> (proof, stage, admit time). Keys are a plain
        // dispatch counter, unique across the run.
        let mut inflight: BTreeMap<u64, (usize, usize, SimTime)> = BTreeMap::new();
        let mut next_key = 0u64;
        let mut busy = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        let mut ready: Vec<(SimTime, usize, usize)> = Vec::new();

        loop {
            // Admit every placeable ready stage at `now`, best-first by
            // (availability, proof index, stage index). A stage whose
            // class no lane can accept is skipped this round; a
            // complementary-class stage behind it may still be placed
            // (work conservation).
            ready.clear();
            for (p, run) in runs.iter().enumerate() {
                ready.extend(run.ready().map(|(s, avail)| (avail, p, s)));
            }
            ready.sort_unstable();
            for &(_, p, s) in &ready {
                let class = runs[p].dag().nodes()[s].kind.resource_class();
                // Accepting lane with the lowest interference on its
                // current residents; lowest lane index on ties.
                let lane = (0..lanes.len())
                    .filter(|&l| lanes[l].can_accept(class))
                    .min_by(|&a, &b| {
                        lanes[a]
                            .join_penalty(class)
                            .total_cmp(&lanes[b].join_penalty(class))
                    });
                let Some(lane) = lane else { continue };
                let (elapsed, r) = start_with_retries(&mut runs[p], s, &policy);
                retries[p] += r;
                lanes[lane].admit(next_key, class, elapsed);
                inflight.insert(next_key, (p, s, now));
                next_key += 1;
            }

            // Advance to the next completion and commit everything
            // finishing there, in (lane, queue) order.
            let t = lanes
                .iter()
                .filter_map(StreamSet::earliest_completion)
                .min();
            let Some(t) = t else {
                assert!(
                    ready.is_empty(),
                    "ready stages but idle lanes could not accept"
                );
                break; // nothing in flight and nothing ready: done
            };
            debug_assert!(t > now, "completions advance the clock");
            now = t;
            for lane in &mut lanes {
                lane.advance_to(now);
                for fin in lane.take_finished() {
                    let (p, s, start) = inflight.remove(&fin.key).expect("known in-flight key");
                    let stretched = now - start;
                    runs[p].complete(s, now);
                    busy += stretched;
                    let kind = runs[p].dag().nodes()[s].kind;
                    *stage_time[p].entry(kind).or_default() += stretched;
                }
            }
        }

        assert!(inflight.is_empty(), "stages left in flight at drain");
        let done = |run: &DagRun| run.done().expect("every proof ran to completion");
        let records = runs
            .iter()
            .zip(retries)
            .zip(stage_time)
            .map(|((run, retries), stage_time)| ProofRun {
                digest: run
                    .pipe()
                    .output_digest()
                    .expect("complete proof has a digest"),
                completed: done(run),
                retries,
                stage_time,
            })
            .collect();
        ExecReport {
            runs: records,
            makespan_ns: runs.iter().map(done).max().unwrap_or_default().as_ns(),
            busy_ns: busy.as_ns(),
            lanes: self.lanes,
            streams_per_lane: self.streams_per_lane,
        }
    }
}

/// Starts one stage with in-place transient retries, returning the total
/// simulated time consumed (successful attempt plus any wasted faulted
/// attempts) and the retry count.
fn start_with_retries(run: &mut DagRun, stage: usize, policy: &RecoveryPolicy) -> (SimTime, u32) {
    let mut elapsed = SimTime::ZERO;
    let mut retries = 0u32;
    loop {
        let before = run.pipe().sim_total();
        match run.start(stage, policy) {
            Ok(t) => return (elapsed + t, retries),
            Err(e) => {
                elapsed += run.pipe().sim_total() - before;
                assert!(
                    e.is_transient() && retries < MAX_RETRIES,
                    "permanent stage failure: {e}"
                );
                retries += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "streams_per_lane must be")]
    fn out_of_range_stream_count_is_rejected() {
        let exec = DagExecutor::interleaved(2).with_streams(9, InterferenceModel::default_model());
        exec.run(Vec::new());
    }
}
