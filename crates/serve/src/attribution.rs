//! Bottleneck attribution: fold cost-model category totals, DAG stage
//! times and fabric link occupancy into per-scope **verdicts** —
//! compute-bound / memory-bound / wire-bound / queue-bound — with the
//! fraction of time each resource absorbed.
//!
//! The simulator already attributes every kernel's roofline time to its
//! dominant cost category (`Stats::time_ns` in `unintt-gpu-sim`), so a
//! machine-level verdict is a pure fold: sum the per-device category
//! totals, group them into compute / memory / wire, and pick the
//! largest. This is the ZKProphet-style analysis ("where does ZKP time
//! go, per kernel class?") as an always-on report instead of a one-off
//! profiling study. Service-level rows add the dimension the device
//! counters cannot see: time jobs spent *waiting* rather than running,
//! the queue-bound verdict.
//!
//! Two entry points, by what evidence is in hand:
//!
//! * [`AttributionRow::from_machine`] — a live simulated [`Machine`]
//!   (device category totals + per-link fabric occupancy);
//! * [`AttributionReport::from_service_report`] — a [`ServiceReport`]
//!   (per-stage lease time + queue-wait vs execution split).

use std::fmt::Write as _;

use unintt_gpu_sim::{Category, Machine};
use unintt_pipeline::StageKind;

use crate::service::ServiceReport;

/// What a scope's time is dominated by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Arithmetic throughput dominates (e.g. MSM window accumulation).
    ComputeBound,
    /// Memory traffic dominates (global/shared/shuffle — large-N NTT).
    MemoryBound,
    /// Interconnect transfer dominates (cross-device/node exchanges).
    WireBound,
    /// Waiting dominates: jobs queue far longer than they execute.
    QueueBound,
}

impl Verdict {
    /// Stable lowercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::ComputeBound => "compute-bound",
            Verdict::MemoryBound => "memory-bound",
            Verdict::WireBound => "wire-bound",
            Verdict::QueueBound => "queue-bound",
        }
    }
}

/// One attributed scope: a `(device-class, stage-kind)` cell, a DAG
/// stage, or the service queue.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionRow {
    /// What this row attributes, e.g. `"a100x8/ntt"` or `"stage/msm"`.
    pub scope: String,
    /// Total attributed simulated time, ns.
    pub total_ns: f64,
    /// Fraction absorbed by arithmetic.
    pub compute_frac: f64,
    /// Fraction absorbed by memory traffic (global + shared + shuffle).
    pub memory_frac: f64,
    /// Fraction absorbed by the interconnect.
    pub wire_frac: f64,
    /// Everything else (launch overhead, fault handling, queue wait).
    pub other_frac: f64,
    /// Busiest fabric link's occupancy over the horizon, when known.
    pub peak_link_utilization: Option<f64>,
    /// The dominant resource.
    pub verdict: Verdict,
}

/// Picks the dominant resource. Queue-bound is decided separately (it
/// needs wait-vs-run evidence, not category totals); ties break in
/// compute → memory → wire order so reports are deterministic.
fn classify(compute: f64, memory: f64, wire: f64) -> Verdict {
    if compute >= memory && compute >= wire {
        Verdict::ComputeBound
    } else if memory >= wire {
        Verdict::MemoryBound
    } else {
        Verdict::WireBound
    }
}

fn row_from_parts(
    scope: String,
    compute: f64,
    memory: f64,
    wire: f64,
    other: f64,
    peak_link_utilization: Option<f64>,
) -> AttributionRow {
    let total = compute + memory + wire + other;
    let frac = |x: f64| if total > 0.0 { x / total } else { 0.0 };
    AttributionRow {
        scope,
        total_ns: total,
        compute_frac: frac(compute),
        memory_frac: frac(memory),
        wire_frac: frac(wire),
        other_frac: frac(other),
        peak_link_utilization,
        verdict: classify(compute, memory, wire),
    }
}

/// Groups a cost category into the verdict axes.
fn category_axes(cat: Category, ns: f64) -> (f64, f64, f64, f64) {
    match cat {
        Category::Compute => (ns, 0.0, 0.0, 0.0),
        Category::GlobalMem | Category::SharedMem | Category::Shuffle => (0.0, ns, 0.0, 0.0),
        Category::Interconnect => (0.0, 0.0, ns, 0.0),
        Category::Launch | Category::Fault => (0.0, 0.0, 0.0, ns),
    }
}

impl AttributionRow {
    /// Attributes one simulated machine after a run: folds the merged
    /// per-device category totals and the fabric's per-link occupancy.
    pub fn from_machine(scope: impl Into<String>, machine: &Machine) -> Self {
        let stats = machine.stats();
        let (mut compute, mut memory, mut wire, mut other) = (0.0, 0.0, 0.0, 0.0);
        for cat in Category::ALL {
            let (c, m, w, o) = category_axes(cat, stats.time_ns.get(cat));
            compute += c;
            memory += m;
            wire += w;
            other += o;
        }
        let horizon = machine.max_clock_ns();
        let peak = machine
            .fabric()
            .links()
            .iter()
            .map(|l| {
                if horizon > 0.0 {
                    l.busy_ns / horizon
                } else {
                    0.0
                }
            })
            .fold(0.0f64, f64::max);
        let peak = (horizon > 0.0 && !machine.fabric().links().is_empty()).then_some(peak);
        row_from_parts(scope.into(), compute, memory, wire, other, peak)
    }

    /// One line: scope, verdict, and the fraction split.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:<13} {:>7.3} ms | compute {:>4.0}% mem {:>4.0}% wire {:>4.0}% other {:>4.0}%",
            self.scope,
            self.verdict.as_str(),
            self.total_ns * 1e-6,
            100.0 * self.compute_frac,
            100.0 * self.memory_frac,
            100.0 * self.wire_frac,
            100.0 * self.other_frac,
        );
        if let Some(u) = self.peak_link_utilization {
            let _ = write!(out, " | peak link {:.0}%", 100.0 * u);
        }
        out
    }
}

/// A set of attributed scopes, renderable as a table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttributionReport {
    /// One row per attributed scope, in deterministic scope order.
    pub rows: Vec<AttributionRow>,
}

impl AttributionReport {
    /// Attributes a service run: one row per DAG stage kind (lease time
    /// under the stage's [`StageKind::resource_class`]) plus a
    /// `service/queue` row comparing sojourn time against lease-busy
    /// execution time — when completed jobs spend more time waiting
    /// than every lease spent running, the service is queue-bound.
    pub fn from_service_report(report: &ServiceReport) -> Self {
        let mut rows = Vec::new();
        for (&name, &ns) in &report.stage_ns {
            let class = StageKind::from_tag(name).map(StageKind::resource_class);
            // Mixed stages split evenly; the compute-first tie-break then
            // labels them compute-bound deterministically.
            let (c, m) = match class {
                Some(unintt_gpu_sim::ResourceClass::Compute) => (ns, 0.0),
                Some(unintt_gpu_sim::ResourceClass::Memory) => (0.0, ns),
                _ => (ns / 2.0, ns / 2.0),
            };
            rows.push(row_from_parts(
                format!("stage/{name}"),
                c,
                m,
                0.0,
                0.0,
                None,
            ));
        }
        let busy_ns: f64 = report.metrics.leases.iter().map(|l| l.busy_ns).sum();
        let sojourn_ns: f64 = report
            .metrics
            .classes
            .values()
            .map(|c| c.latency.mean_ns * c.completed as f64)
            .sum();
        let wait_ns = (sojourn_ns - busy_ns).max(0.0);
        let mut queue = row_from_parts(
            String::from("service/queue"),
            busy_ns,
            0.0,
            0.0,
            wait_ns,
            None,
        );
        if wait_ns > busy_ns {
            queue.verdict = Verdict::QueueBound;
        }
        rows.push(queue);
        Self { rows }
    }

    /// Appends a row built elsewhere (e.g. per-machine cells).
    pub fn push(&mut self, row: AttributionRow) {
        self.rows.push(row);
    }

    /// Multi-line table, one row per scope.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn classify_breaks_ties_deterministically() {
        assert_eq!(classify(1.0, 1.0, 1.0), Verdict::ComputeBound);
        assert_eq!(classify(0.0, 1.0, 1.0), Verdict::MemoryBound);
        assert_eq!(classify(0.0, 0.0, 1.0), Verdict::WireBound);
    }

    #[test]
    fn stage_rows_follow_resource_classes() {
        let mut stage_ns = BTreeMap::new();
        stage_ns.insert("msm", 50.0);
        stage_ns.insert("ntt", 40.0);
        stage_ns.insert("hash", 10.0);
        let report = ServiceReport {
            outcomes: vec![],
            metrics: Default::default(),
            stage_ns,
            fleet: Default::default(),
        };
        let attr = AttributionReport::from_service_report(&report);
        let by_scope: BTreeMap<_, _> = attr
            .rows
            .iter()
            .map(|r| (r.scope.as_str(), r.verdict))
            .collect();
        assert_eq!(by_scope["stage/msm"], Verdict::ComputeBound);
        assert_eq!(by_scope["stage/ntt"], Verdict::MemoryBound);
        assert_eq!(
            by_scope["stage/hash"],
            Verdict::ComputeBound,
            "mixed stages split evenly; compute wins the tie-break"
        );
    }

    #[test]
    fn queue_bound_when_waiting_dominates() {
        use crate::metrics::{LatencyStats, LeaseMetrics, ServiceMetrics};
        let mut metrics = ServiceMetrics::default();
        metrics.leases.push(LeaseMetrics {
            id: 0,
            dispatches: 10,
            busy_ns: 1_000.0,
            occupancy: 0.1,
            repairs: 0,
        });
        let class = metrics.classes.entry("raw-ntt").or_default();
        class.completed = 10;
        class.latency = LatencyStats {
            count: 10,
            mean_ns: 5_000.0,
            ..Default::default()
        };
        let report = ServiceReport {
            outcomes: vec![],
            metrics,
            stage_ns: BTreeMap::new(),
            fleet: Default::default(),
        };
        let attr = AttributionReport::from_service_report(&report);
        let queue = attr
            .rows
            .iter()
            .find(|r| r.scope == "service/queue")
            .unwrap();
        assert_eq!(queue.verdict, Verdict::QueueBound);
        assert!(queue.other_frac > 0.9, "wait dominates: {queue:?}");
    }
}
