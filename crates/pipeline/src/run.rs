//! One proof's progress through its stage DAG.
//!
//! [`DagRun`] is the per-proof state both stage schedulers keep — the
//! [`crate::DagExecutor`] here and the serving layer's event loop
//! (`unintt_serve`): which stages have started, when each completed, and
//! which charged stages are ready. Placement (which lane or lease a ready
//! stage lands on, and when) stays with each scheduler; a `DagRun` only
//! answers "what may run, and from when".
//!
//! Barriers never reach a scheduler: [`DagRun::complete`] runs every
//! barrier a completion unblocks, on the host, at its latest
//! dependency's instant.

use unintt_core::RecoveryPolicy;
use unintt_gpu_sim::{FabricError, SimTime};

use crate::dag::ProofDag;
use crate::proof::ProofPipeline;

/// A [`ProofPipeline`] being scheduled stage by stage (see module docs).
pub struct DagRun {
    pipe: ProofPipeline,
    dag: ProofDag,
    /// The instant root stages become available.
    release: SimTime,
    /// Stage has been executed (dispatched, for a charged stage).
    started: Vec<bool>,
    /// Simulated completion instant per stage (`None` = not yet).
    completion: Vec<Option<SimTime>>,
}

impl DagRun {
    /// Stages `pipe` for scheduling; its root stages are available at
    /// `release` (0 in the executor, the job's arrival in the service).
    pub fn new(pipe: ProofPipeline, release: SimTime) -> Self {
        let dag = pipe.dag();
        let mut run = Self {
            started: vec![false; dag.len()],
            completion: vec![None; dag.len()],
            pipe,
            dag,
            release,
        };
        run.cascade_barriers();
        run
    }

    /// The proof being executed.
    pub fn pipe(&self) -> &ProofPipeline {
        &self.pipe
    }

    /// The proof's stage DAG.
    pub fn dag(&self) -> &ProofDag {
        &self.dag
    }

    /// The ready charged stages — not started, every dependency
    /// complete — in index order, each with its availability: the
    /// latest dependency completion, or the release instant for roots.
    pub fn ready(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        (0..self.dag.len())
            .filter(|&s| !self.started[s] && !self.dag.nodes()[s].kind.is_barrier())
            .filter_map(|s| Some((s, self.avail(s)?)))
    }

    /// Functionally executes the ready charged stage `s` at dispatch,
    /// returning the simulated time it charged.
    ///
    /// # Errors
    ///
    /// Propagates the pipeline's [`FabricError`]; the stage then stays
    /// ready and can be started again.
    pub fn start(&mut self, s: usize, policy: &RecoveryPolicy) -> Result<SimTime, FabricError> {
        debug_assert!(!self.started[s], "stage {s} started twice");
        let charged = self.pipe.run_stage(s, policy)?;
        self.started[s] = true;
        Ok(charged)
    }

    /// Commits the completion of started stage `s` at `t`, then runs
    /// every barrier that unblocks, each at its latest dependency's
    /// instant and without occupying a lane.
    pub fn complete(&mut self, s: usize, t: SimTime) {
        debug_assert!(self.started[s] && self.completion[s].is_none());
        self.completion[s] = Some(t);
        self.cascade_barriers();
    }

    /// The proof's completion instant (its latest stage completion), once
    /// every stage has completed.
    pub fn done(&self) -> Option<SimTime> {
        self.completion
            .iter()
            .try_fold(SimTime::ZERO, |done, c| Some(done.max((*c)?)))
    }

    /// When stage `s` may start, or `None` while a dependency is
    /// outstanding.
    fn avail(&self, s: usize) -> Option<SimTime> {
        let mut avail = self.release;
        for &d in &self.dag.nodes()[s].deps {
            avail = avail.max(self.completion[d]?);
        }
        Some(avail)
    }

    fn cascade_barriers(&mut self) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for s in 0..self.dag.len() {
                if self.started[s] || !self.dag.nodes()[s].kind.is_barrier() {
                    continue;
                }
                let Some(avail) = self.avail(s) else {
                    continue;
                };
                let charged = self
                    .pipe
                    .run_stage(s, &RecoveryPolicy::none())
                    .expect("barrier stages are host-only and cannot fault");
                debug_assert_eq!(charged, SimTime::ZERO, "barriers are charge-free");
                self.started[s] = true;
                self.completion[s] = Some(avail);
                progressed = true;
            }
        }
    }
}
