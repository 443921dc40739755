//! Service metrics: per-class latency distributions, throughput, batch
//! shapes and lease occupancy — all on the simulated clock.

use std::collections::BTreeMap;

use crate::job::{AdmissionError, JobOutcome, JobStatus};
use crate::lease::Lease;

/// Latency distribution summary, shared with the telemetry crate so
/// every consumer uses the same nearest-rank percentile math.
pub use unintt_telemetry::LatencyStats;
use unintt_telemetry::{SimTime, StreamHist};

/// Per-job-class counters and latency summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassMetrics {
    /// Jobs submitted (admitted + rejected).
    pub submitted: usize,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs hard-rejected by admission control (queue full at arrival).
    pub rejected: usize,
    /// Jobs shed by overload backpressure (graceful degradation), kept
    /// separate from hard rejections and deadline cancellations.
    pub shed: usize,
    /// Accepted jobs cancelled at dequeue because their deadline had
    /// already passed — they never occupied a lease.
    pub deadline_exceeded: usize,
    /// Completed jobs that finished after their deadline.
    pub deadline_misses: usize,
    /// Transient-fault retries absorbed by this class's dispatches.
    pub retries: u64,
    /// Degraded re-plans absorbed by this class's dispatches.
    pub replans: u64,
    /// Sojourn-time distribution of completed jobs.
    ///
    /// Nearest-rank percentiles over the run's samples. The samples are
    /// collected transiently inside [`ServiceMetrics::build_parts`] and
    /// dropped once summarized — nothing retains them across the run —
    /// and these exact values back the byte-frozen BENCH tables. Fleet
    /// aggregation and anything long-lived reads [`Self::latency_hist`]
    /// instead.
    pub latency: LatencyStats,
    /// Streaming log-bucketed sojourn distribution of the same jobs:
    /// O(buckets) memory, mergeable across clusters, tail quantiles
    /// (p999) within [`unintt_telemetry::MAX_REL_ERROR`] relative error.
    pub latency_hist: StreamHist,
}

/// Snapshot of one lease's utilization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeaseMetrics {
    /// Lease id.
    pub id: usize,
    /// Batches dispatched.
    pub dispatches: u64,
    /// Simulated time spent running batches, ns.
    pub busy_ns: f64,
    /// Fraction of the service horizon the lease was busy (0–1).
    pub occupancy: f64,
    /// Times the lease was swapped for fresh hardware.
    pub repairs: u32,
}

impl LeaseMetrics {
    /// Snapshot of one lease over a run of `horizon_ns`, reporting it
    /// under `id` (fleet runs renumber leases globally across clusters).
    pub fn from_lease(lease: &Lease, id: usize, horizon_ns: f64) -> Self {
        LeaseMetrics {
            id,
            dispatches: lease.dispatches,
            busy_ns: lease.busy.as_ns(),
            occupancy: if horizon_ns > 0.0 {
                lease.busy.as_ns() / horizon_ns
            } else {
                0.0
            },
            repairs: lease.repairs,
        }
    }
}

/// Everything the service measured over one run, on the simulated clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Simulated makespan: the last completion (or rejection) instant, ns.
    pub horizon_ns: f64,
    /// Per-class counters, keyed by [`crate::JobClass::name`].
    pub classes: BTreeMap<&'static str, ClassMetrics>,
    /// Dispatched-batch size histogram: `size → batches`.
    pub batch_histogram: BTreeMap<usize, u64>,
    /// Total batches dispatched.
    pub dispatches: u64,
    /// Peak admission-queue depth observed (coalescing + ready jobs).
    pub peak_queue_depth: usize,
    /// Per-lease utilization.
    pub leases: Vec<LeaseMetrics>,
}

impl ServiceMetrics {
    /// Builds the snapshot from run artifacts: `horizon` is the last
    /// outcome's instant, `batch_sizes` holds one entry per dispatched
    /// batch, `leases` every cluster's leases. Jobs rejected before
    /// admission (an invalid arrival or an unsupported shape) are left
    /// out.
    pub fn build_parts(
        outcomes: &[JobOutcome],
        horizon: SimTime,
        batch_sizes: &[usize],
        peak_queue_depth: usize,
        leases: Vec<LeaseMetrics>,
    ) -> Self {
        let horizon_ns = horizon.as_ns();

        let mut classes: BTreeMap<&'static str, ClassMetrics> = BTreeMap::new();
        let mut latencies: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for o in outcomes {
            let c = match o.status {
                JobStatus::Rejected(
                    AdmissionError::InvalidArrival | AdmissionError::UnsupportedShape,
                ) => continue,
                _ => classes.entry(o.class_name).or_default(),
            };
            c.submitted += 1;
            match o.status {
                JobStatus::Completed => {
                    c.completed += 1;
                    c.retries += o.retries;
                    c.replans += u64::from(o.replans);
                    if o.missed_deadline {
                        c.deadline_misses += 1;
                    }
                    c.latency_hist.observe(o.latency_ns());
                    latencies
                        .entry(o.class_name)
                        .or_default()
                        .push(o.latency_ns());
                }
                JobStatus::Rejected(AdmissionError::QueueFull { .. }) => c.rejected += 1,
                JobStatus::Rejected(AdmissionError::Overloaded { .. }) => c.shed += 1,
                JobStatus::Rejected(_) => unreachable!("skipped above"),
                JobStatus::DeadlineExceeded { .. } => c.deadline_exceeded += 1,
            }
        }
        for (name, samples) in &latencies {
            classes.get_mut(name).expect("class recorded above").latency =
                LatencyStats::from_samples(samples);
        }

        let mut batch_histogram = BTreeMap::new();
        for &size in batch_sizes {
            *batch_histogram.entry(size).or_insert(0u64) += 1;
        }

        Self {
            horizon_ns,
            classes,
            batch_histogram,
            dispatches: batch_sizes.len() as u64,
            peak_queue_depth,
            leases,
        }
    }

    /// Jobs completed across every class.
    pub fn completed(&self) -> usize {
        self.classes.values().map(|c| c.completed).sum()
    }

    /// Jobs hard-rejected across every class.
    pub fn rejected(&self) -> usize {
        self.classes.values().map(|c| c.rejected).sum()
    }

    /// Jobs shed by overload backpressure across every class.
    pub fn shed(&self) -> usize {
        self.classes.values().map(|c| c.shed).sum()
    }

    /// Accepted jobs cancelled for hopeless deadlines across every class.
    pub fn deadline_exceeded(&self) -> usize {
        self.classes.values().map(|c| c.deadline_exceeded).sum()
    }

    /// Completed-job throughput over the simulated horizon, jobs/s.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.horizon_ns <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / (self.horizon_ns * 1e-9)
    }

    /// Mean dispatched-batch size.
    pub fn mean_batch_size(&self) -> f64 {
        let jobs: u64 = self
            .batch_histogram
            .iter()
            .map(|(&size, &n)| size as u64 * n)
            .sum();
        if self.dispatches == 0 {
            return 0.0;
        }
        jobs as f64 / self.dispatches as f64
    }

    /// Mean lease occupancy (0–1).
    pub fn mean_occupancy(&self) -> f64 {
        if self.leases.is_empty() {
            return 0.0;
        }
        self.leases.iter().map(|l| l.occupancy).sum::<f64>() / self.leases.len() as f64
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "horizon {:.3} ms | {} completed, {} rejected, {} shed, {} expired | \
             {:.0} jobs/s | {} batches (mean size {:.2}) | peak queue {} | occupancy {:.0}%",
            self.horizon_ns * 1e-6,
            self.completed(),
            self.rejected(),
            self.shed(),
            self.deadline_exceeded(),
            self.throughput_jobs_per_s(),
            self.dispatches,
            self.mean_batch_size(),
            self.peak_queue_depth,
            100.0 * self.mean_occupancy(),
        );
        for (name, c) in &self.classes {
            let _ = writeln!(
                out,
                "  {name:>12}: {}/{} ok ({} rejected, {} shed, {} expired, {} late) | \
                 p50 {:.1} µs, p95 {:.1} µs, p99 {:.1} µs | {} retries, {} replans",
                c.completed,
                c.submitted,
                c.rejected,
                c.shed,
                c.deadline_exceeded,
                c.deadline_misses,
                c.latency.p50_ns * 1e-3,
                c.latency.p95_ns * 1e-3,
                c.latency.p99_ns * 1e-3,
                c.retries,
                c.replans,
            );
        }
        out
    }
}
