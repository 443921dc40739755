//! **E21 — SLO burn-rate alerting over injected degradations**: the
//! fleet-scale sensing layer end to end. A seeded multi-tenant stream
//! plays through the `serve::fleet` service three times — fault-free,
//! under a cluster kill/revive, and under a straggler burst of oversized
//! transforms — and every run's job outcomes replay through the
//! [`SloEngine`](unintt_telemetry::SloEngine) in completion order.
//!
//! Three sections:
//! * **slo** — multi-window burn-rate alerting: alerts fire inside every
//!   injected degradation window and **never** on the clean baseline
//!   (zero false positives is asserted, not sampled);
//! * **hist** — streaming-vs-exact reconciliation: the log-bucketed
//!   [`StreamHist`](unintt_telemetry::StreamHist) quantiles of the
//!   baseline sojourn stream stay within 2 % of the exact nearest-rank
//!   percentiles over the same samples;
//! * **attribution** — bottleneck verdicts on known workloads: multi-GPU
//!   MSM is compute-bound, a large-N NTT on NVLink is memory-bound, and
//!   the same transform across a PCIe ring is wire-bound.
//!
//! Everything runs on the simulated clock from seeded workloads, so two
//! runs produce byte-identical output — including the machine-readable
//! `BENCH_slo.json`.

use std::fmt::Write as _;

use unintt_core::{UniNttEngine, UniNttOptions};
use unintt_ff::Goldilocks;
use unintt_gpu_sim::{presets, FieldSpec, Machine, Topology};
use unintt_msm::simulate_multi_gpu_msm;
use unintt_ntt::Direction;
use unintt_serve::{
    AttributionRow, ChaosEvent, ChaosKind, ChaosPlan, FleetConfig, FleetReport, FleetService,
    JobClass, JobOutcome, JobSpec, JobStatus, Priority, SchedulerPolicy, ServiceConfig,
    ServiceField, Verdict, WorkloadSpec,
};
use unintt_telemetry::{
    self as telemetry, BurnWindows, LatencyStats, Objective, SloEngine, SloEvent, SloSpec,
    StreamHist,
};

use crate::report::{fmt_ns, Table};

/// Where the machine-readable results land.
pub const JSON_PATH: &str = "BENCH_slo.json";

/// Stream size per mode.
fn jobs(quick: bool) -> usize {
    if quick {
        48
    } else {
        160
    }
}

/// The seeded bursty multi-tenant stream every cell replays.
fn stream(quick: bool) -> WorkloadSpec {
    WorkloadSpec::bursty(0xe21, jobs(quick), 40_000.0)
}

/// A three-cluster fleet with the given chaos plan.
fn fleet_config(chaos: ChaosPlan) -> FleetConfig {
    FleetConfig {
        clusters: 3,
        base: ServiceConfig {
            policy: SchedulerPolicy::Fifo,
            ..ServiceConfig::default()
        },
        chaos,
        ..FleetConfig::default()
    }
}

/// Plays `specs` (already sorted by arrival) through a fleet with `chaos`.
fn run_fleet(specs: Vec<JobSpec>, chaos: ChaosPlan) -> FleetReport {
    let mut fleet = FleetService::new(fleet_config(chaos));
    fleet.submit_all(specs);
    fleet.run()
}

/// The degradation the straggler cell injects: a burst of oversized
/// raw-NTT jobs spread over distinct batch keys so they land on every
/// lease at once, queuing the regular traffic behind them.
fn straggler_burst(start_ns: f64) -> Vec<JobSpec> {
    let shapes = [
        (ServiceField::Goldilocks, 24, Direction::Forward),
        (ServiceField::Goldilocks, 24, Direction::Inverse),
        (ServiceField::BabyBear, 24, Direction::Forward),
        (ServiceField::BabyBear, 24, Direction::Inverse),
        (ServiceField::Goldilocks, 23, Direction::Forward),
        (ServiceField::Goldilocks, 23, Direction::Inverse),
        (ServiceField::BabyBear, 23, Direction::Forward),
        (ServiceField::BabyBear, 23, Direction::Inverse),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(field, log_n, direction))| JobSpec {
            // A tenant id outside the workload's 0..=5 range, so the
            // injected jobs stay identifiable in the outcome stream.
            tenant: 99,
            class: JobClass::RawNtt {
                field,
                log_n,
                direction,
            },
            priority: Priority::Normal,
            deadline_ns: None,
            arrival_ns: start_ns + i as f64 * 1_000.0,
        })
        .collect()
}

/// Merges `extra` into `base` keeping arrival order.
fn merged(base: Vec<JobSpec>, extra: Vec<JobSpec>) -> Vec<JobSpec> {
    let mut all = base;
    all.extend(extra);
    all.sort_by(|a, b| {
        a.arrival_ns
            .partial_cmp(&b.arrival_ns)
            .expect("arrivals are finite")
    });
    all
}

/// The SLO objectives every replay evaluates. `latency_threshold_ns` and
/// `deadline_slack_ns` are calibrated from the fault-free probe run so
/// the baseline is clean by construction, not by tuning.
fn slo_specs(horizon_ns: f64, latency_threshold_ns: f64) -> Vec<SloSpec> {
    // The multi-window ladder pairs the longer window with a lower
    // threshold (the classic 14.4-over-5min / 6-over-6h prescription);
    // the scaled defaults keep 14.4 on the fast window. `min_events`
    // drops with the windows: a quick-mode slow window only holds a
    // handful of completions.
    let windows = BurnWindows {
        slow_threshold: 6.0,
        min_events: 4,
        ..BurnWindows::scaled_to(horizon_ns)
    };
    vec![
        SloSpec {
            name: "raw-ntt-latency",
            tenant: None,
            class: Some("raw-ntt"),
            objective: Objective::Latency {
                threshold_ns: latency_threshold_ns,
                target: 0.97,
            },
            windows,
        },
        SloSpec {
            name: "fleet-availability",
            tenant: None,
            class: None,
            objective: Objective::Availability { target: 0.999 },
            windows,
        },
    ]
}

/// When a job's SLI materializes. Completed (and rejected) jobs count
/// at their terminal instant; a deadline-cancelled job counts at the
/// deadline itself — the moment the promise was broken — not at the
/// (much later) instant the scheduler got around to sweeping it.
fn sli_instant(o: &JobOutcome) -> f64 {
    match o.status {
        JobStatus::DeadlineExceeded { deadline_ns } => deadline_ns,
        _ => o.completed_ns,
    }
}

/// Replays a fleet run's outcomes through the burn-rate engine in
/// SLI-instant order.
fn replay(report: &FleetReport, specs: Vec<SloSpec>) -> SloEngine {
    let mut engine = SloEngine::new(specs);
    let mut ordered: Vec<&JobOutcome> = report.outcomes.iter().collect();
    ordered.sort_by(|a, b| {
        sli_instant(a)
            .partial_cmp(&sli_instant(b))
            .expect("instants are finite")
            .then(a.id.cmp(&b.id))
    });
    for o in &ordered {
        engine.record(&SloEvent {
            t_ns: sli_instant(o),
            tenant: o.tenant,
            class: o.class_name,
            ok: o.completed(),
            latency_ns: o.latency_ns(),
        });
    }
    engine
}

/// One SLO scenario: the run, its replay and the degradation window the
/// alerts must fall into (`None` = no degradation, alerts forbidden).
struct SloCell {
    scenario: &'static str,
    report: FleetReport,
    engine: SloEngine,
    window: Option<(f64, f64)>,
}

impl SloCell {
    fn alerts_ok(&self) -> bool {
        match self.window {
            None => self.engine.alerts().is_empty(),
            Some((lo, hi)) => {
                !self.engine.alerts().is_empty()
                    && self
                        .engine
                        .alerts()
                        .iter()
                        .all(|a| a.t_ns >= lo && a.t_ns <= hi)
            }
        }
    }
}

/// Largest completed-job sojourn in a run, ns.
fn max_latency_ns(report: &FleetReport) -> f64 {
    report
        .outcomes
        .iter()
        .filter(|o| o.completed())
        .map(JobOutcome::latency_ns)
        .fold(0.0f64, f64::max)
}

/// Runs the three SLO scenarios. Returns the cells plus the calibrated
/// latency threshold.
fn run_slo_cells(quick: bool) -> (Vec<SloCell>, f64) {
    let spec = stream(quick);
    let base_jobs = spec.generate();

    // Probe: the fault-free run calibrates everything downstream. The
    // latency SLO promises "no slower than 1.5× the worst fault-free
    // sojourn"; the deadline is looser still, so fault-free runs with
    // deadlines attached behave identically to the probe.
    let probe = run_fleet(base_jobs.clone(), ChaosPlan::none());
    assert!(probe.zero_accepted_failures());
    let horizon = probe.metrics.horizon_ns;
    let threshold_ns = 1.5 * max_latency_ns(&probe);
    let deadline_slack_ns = 2.5 * max_latency_ns(&probe);

    let with_deadlines = |jobs: &[JobSpec]| -> Vec<JobSpec> {
        jobs.iter()
            .map(|j| JobSpec {
                deadline_ns: Some(j.arrival_ns + deadline_slack_ns),
                ..*j
            })
            .collect()
    };

    let mut cells = Vec::new();

    // Baseline: same stream, deadlines attached, no faults — the
    // zero-false-positive reference.
    let baseline = run_fleet(with_deadlines(&base_jobs), ChaosPlan::none());
    assert!(baseline.zero_accepted_failures());
    let engine = replay(&baseline, slo_specs(horizon, threshold_ns));
    cells.push(SloCell {
        scenario: "baseline",
        report: baseline,
        engine,
        window: None,
    });

    // Chaos: two of three clusters die mid-burst and revive late; the
    // survivor's queue grows, sojourns inflate past the SLO threshold
    // and hopeless deadlines are cancelled — burn-rate alerts must fire
    // inside the outage (plus the backlog-drain tail).
    let kill_ns = horizon * 0.25;
    let revive_ns = horizon * 0.7;
    let double_kill = ChaosPlan {
        events: vec![
            ChaosEvent {
                t_ns: kill_ns,
                cluster: 0,
                kind: ChaosKind::Kill,
            },
            ChaosEvent {
                t_ns: kill_ns,
                cluster: 1,
                kind: ChaosKind::Kill,
            },
            ChaosEvent {
                t_ns: revive_ns,
                cluster: 0,
                kind: ChaosKind::Revive,
            },
            ChaosEvent {
                t_ns: revive_ns,
                cluster: 1,
                kind: ChaosKind::Revive,
            },
        ],
    };
    let chaos = run_fleet(with_deadlines(&base_jobs), double_kill);
    assert!(chaos.zero_accepted_failures());
    let engine = replay(&chaos, slo_specs(horizon, threshold_ns));
    // Outage effects persist past the revival: the survivor's backlog
    // drains and deadlines armed during the outage keep lapsing for up
    // to `deadline_slack_ns` after it ends.
    let chaos_window = (kill_ns, revive_ns + deadline_slack_ns + 0.5 * horizon);
    cells.push(SloCell {
        scenario: "chaos-kill",
        report: chaos,
        engine,
        window: Some(chaos_window),
    });

    // Straggler burst: oversized transforms occupy every lease at once;
    // regular jobs queue behind them and blow the latency SLO.
    let burst_ns = horizon * 0.4;
    let straggler = run_fleet(
        merged(with_deadlines(&base_jobs), straggler_burst(burst_ns)),
        ChaosPlan::none(),
    );
    assert!(straggler.zero_accepted_failures());
    let engine = replay(&straggler, slo_specs(horizon, threshold_ns));
    // Like the outage, the jam's effects last until the queued victims
    // drain and the deadlines armed behind the stragglers lapse.
    cells.push(SloCell {
        scenario: "straggler-burst",
        report: straggler,
        engine,
        window: Some((burst_ns, burst_ns + deadline_slack_ns + 0.6 * horizon)),
    });

    (cells, threshold_ns)
}

/// Streaming-vs-exact quantile reconciliation over one latency stream.
struct HistRecon {
    count: u64,
    exact: LatencyStats,
    stream_p50_ns: f64,
    stream_p95_ns: f64,
    stream_p99_ns: f64,
}

impl HistRecon {
    fn from_outcomes(outcomes: &[JobOutcome]) -> Self {
        let samples: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.completed())
            .map(JobOutcome::latency_ns)
            .collect();
        let mut hist = StreamHist::new();
        for &s in &samples {
            hist.observe(s);
        }
        Self {
            count: samples.len() as u64,
            exact: LatencyStats::from_samples(&samples),
            stream_p50_ns: hist.quantile(0.50),
            stream_p95_ns: hist.quantile(0.95),
            stream_p99_ns: hist.quantile(0.99),
        }
    }

    fn worst_rel_err(&self) -> f64 {
        [
            (self.stream_p50_ns, self.exact.p50_ns),
            (self.stream_p95_ns, self.exact.p95_ns),
            (self.stream_p99_ns, self.exact.p99_ns),
        ]
        .iter()
        .map(|&(approx, exact)| {
            if exact == 0.0 {
                0.0
            } else {
                (approx - exact).abs() / exact
            }
        })
        .fold(0.0f64, f64::max)
    }
}

/// One attribution cell: the attributed machine row plus the verdict the
/// workload's roofline analysis predicts.
struct AttrCell {
    row: AttributionRow,
    expected: Verdict,
}

/// The three known-class workloads of the acceptance criteria. All three
/// drive the cost-only simulation paths, so they are cheap enough to
/// keep full-size in quick mode (and the JSON stays mode-independent).
fn attribution_cells() -> Vec<AttrCell> {
    let mut cells = Vec::new();

    // Multi-GPU MSM: Pippenger bucket accumulation is arithmetic-heavy.
    let mut msm_machine = Machine::new(presets::a100_nvlink(4), FieldSpec::bn254_fr());
    simulate_multi_gpu_msm(&mut msm_machine, 1u64 << 20);
    cells.push(AttrCell {
        row: AttributionRow::from_machine("msm/a100x4-nvlink", &msm_machine),
        expected: Verdict::ComputeBound,
    });

    // Large-N NTT on NVLink: butterflies stream the whole vector through
    // global memory every round — memory-bound. (Below ~2^22 the launch
    // overhead and exchange latency still dominate; the verdict flips to
    // memory-bound exactly where the paper's roofline says it should.)
    let fs = FieldSpec::goldilocks();
    let log_n = 24;
    let cfg = presets::a100_nvlink(8);
    let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
    let mut machine = Machine::new(cfg, fs);
    engine.simulate_forward(&mut machine, 1);
    cells.push(AttrCell {
        row: AttributionRow::from_machine("ntt/a100x8-nvlink", &machine),
        expected: Verdict::MemoryBound,
    });

    // The same transform across a PCIe ring: the all-to-all exchange
    // crawls over ~25 GB/s hops — wire-bound.
    let mut pcie = presets::rtx4090_pcie(4);
    pcie.interconnect.topology = Topology::Ring;
    let log_n = 20;
    let engine = UniNttEngine::<Goldilocks>::new(log_n, &pcie, UniNttOptions::tuned_for(&fs), fs);
    let mut machine = Machine::new(pcie.clone(), fs);
    engine.simulate_forward(&mut machine, 1);
    cells.push(AttrCell {
        row: AttributionRow::from_machine("ntt/rtx4090x4-pcie-ring", &machine),
        expected: Verdict::WireBound,
    });

    cells
}

/// Renders the bottleneck-attribution verdicts for `which` — a substring
/// of a workload scope (`msm`, `ntt`, `pcie`, …) or `all`. Backs the
/// `harness attribute <workload>` command. Returns `None` when nothing
/// matches.
pub fn attribution_report(which: &str) -> Option<Table> {
    let cells = attribution_cells();
    let selected: Vec<&AttrCell> = cells
        .iter()
        .filter(|c| which == "all" || c.row.scope.contains(which))
        .collect();
    if selected.is_empty() {
        return None;
    }
    let mut table = Table::new(
        "Bottleneck attribution: utilization-vs-roofline fractions per workload",
        &[
            "workload",
            "total",
            "compute",
            "memory",
            "wire",
            "other",
            "peak-link",
            "verdict",
        ],
    );
    for c in &selected {
        let r = &c.row;
        table.row(vec![
            r.scope.clone(),
            fmt_ns(r.total_ns),
            format!("{:.1}%", 100.0 * r.compute_frac),
            format!("{:.1}%", 100.0 * r.memory_frac),
            format!("{:.1}%", 100.0 * r.wire_frac),
            format!("{:.1}%", 100.0 * r.other_frac),
            r.peak_link_utilization
                .map(|u| format!("{:.1}%", 100.0 * u))
                .unwrap_or_else(|| "-".into()),
            r.verdict.as_str().into(),
        ]);
    }
    table.note("verdict = dominant busy fraction vs the device roofline (see serve::attribution)");
    Some(table)
}

fn render_json(
    slo: &[SloCell],
    threshold_ns: f64,
    recon: &HistRecon,
    attr: &[AttrCell],
    alerts_recorded: usize,
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"slo-observability\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"latency_slo_threshold_ns\": {threshold_ns:.0},");
    let _ = writeln!(out, "  \"alert_instants_recorded\": {alerts_recorded},");
    out.push_str("  \"slo\": [\n");
    for (i, c) in slo.iter().enumerate() {
        let m = &c.report.metrics;
        let (lo, hi) = c.window.unwrap_or((0.0, 0.0));
        let alert_specs: Vec<String> = c
            .engine
            .alerts()
            .iter()
            .map(|a| format!("\"{}\"", a.spec))
            .collect();
        let _ = write!(
            out,
            "    {{\"scenario\": \"{}\", \"completed\": {}, \"deadline_cancelled\": {}, \
             \"failovers\": {}, \"horizon_ns\": {:.0}, \"p99_ns\": {:.0}, \
             \"alerts\": {}, \"alert_specs\": [{}], \
             \"window_ns\": [{:.0}, {:.0}], \"alerts_in_window\": {}}}",
            c.scenario,
            m.completed(),
            m.deadline_exceeded(),
            c.report.fleet.failovers,
            m.horizon_ns,
            m.classes["raw-ntt"].latency.p99_ns,
            c.engine.alerts().len(),
            alert_specs.join(", "),
            lo,
            hi,
            c.alerts_ok(),
        );
        out.push_str(if i + 1 < slo.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"hist\": {{\"count\": {}, \"exact_p50_ns\": {:.0}, \"stream_p50_ns\": {:.0}, \
         \"exact_p95_ns\": {:.0}, \"stream_p95_ns\": {:.0}, \
         \"exact_p99_ns\": {:.0}, \"stream_p99_ns\": {:.0}, \"worst_rel_err\": {:.6}}},",
        recon.count,
        recon.exact.p50_ns,
        recon.stream_p50_ns,
        recon.exact.p95_ns,
        recon.stream_p95_ns,
        recon.exact.p99_ns,
        recon.stream_p99_ns,
        recon.worst_rel_err(),
    );
    out.push_str("  \"attribution\": [\n");
    for (i, c) in attr.iter().enumerate() {
        let r = &c.row;
        let _ = write!(
            out,
            "    {{\"scope\": \"{}\", \"verdict\": \"{}\", \"expected\": \"{}\", \
             \"total_ns\": {:.0}, \"compute_frac\": {:.4}, \"memory_frac\": {:.4}, \
             \"wire_frac\": {:.4}, \"other_frac\": {:.4}{}}}",
            r.scope,
            r.verdict.as_str(),
            c.expected.as_str(),
            r.total_ns,
            r.compute_frac,
            r.memory_frac,
            r.wire_frac,
            r.other_frac,
            r.peak_link_utilization
                .map(|u| format!(", \"peak_link_utilization\": {u:.4}"))
                .unwrap_or_default(),
        );
        out.push_str(if i + 1 < attr.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs E21 and renders the table (also writes [`JSON_PATH`]).
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E21: SLO burn-rate alerts, streaming histograms, bottleneck attribution",
        &[
            "section",
            "cell",
            "detail",
            "alerts",
            "in-window",
            "p99",
            "verdict",
        ],
    );

    // The SLO replays run under a telemetry session so alert instants
    // and burn-rate gauges land somewhere inspectable.
    let guard = telemetry::start_session();
    let (cells, threshold_ns) = run_slo_cells(quick);
    let session = telemetry::take_session();
    drop(guard);
    let alerts_recorded = session
        .instants
        .iter()
        .filter(|i| i.kind == unintt_telemetry::InstantKind::Alert)
        .count();
    let fired: usize = cells.iter().map(|c| c.engine.alerts().len()).sum();
    assert_eq!(
        alerts_recorded, fired,
        "every fired alert must be recorded in the telemetry session"
    );

    for c in &cells {
        assert!(
            c.alerts_ok(),
            "E21 invariant ({}): alerts {:?} outside window {:?}",
            c.scenario,
            c.engine.alerts(),
            c.window
        );
        table.row(vec![
            "slo".into(),
            c.scenario.into(),
            match c.window {
                None => "no degradation injected".into(),
                Some((lo, hi)) => format!("degraded {}..{}", fmt_ns(lo), fmt_ns(hi)),
            },
            format!("{}", c.engine.alerts().len()),
            match c.window {
                None => "n/a (none allowed)".into(),
                Some(_) => if c.alerts_ok() { "yes" } else { "NO" }.into(),
            },
            fmt_ns(c.report.metrics.classes["raw-ntt"].latency.p99_ns),
            "-".into(),
        ]);
    }

    let recon = HistRecon::from_outcomes(&cells[0].report.outcomes);
    assert!(
        recon.worst_rel_err() < 0.02,
        "streaming quantiles drifted {:.4} > 2% from exact",
        recon.worst_rel_err()
    );
    table.row(vec![
        "hist".into(),
        "stream-vs-exact".into(),
        format!(
            "p99 {} vs {} exact",
            fmt_ns(recon.stream_p99_ns),
            fmt_ns(recon.exact.p99_ns)
        ),
        "-".into(),
        format!("err {:.3}%", 100.0 * recon.worst_rel_err()),
        fmt_ns(recon.exact.p99_ns),
        "-".into(),
    ]);

    let attr = attribution_cells();
    for c in &attr {
        assert_eq!(
            c.row.verdict, c.expected,
            "attribution verdict drifted on {}: {:?}",
            c.row.scope, c.row
        );
        table.row(vec![
            "attribution".into(),
            c.row.scope.clone(),
            format!(
                "compute {:.0}% mem {:.0}% wire {:.0}%",
                100.0 * c.row.compute_frac,
                100.0 * c.row.memory_frac,
                100.0 * c.row.wire_frac
            ),
            "-".into(),
            "-".into(),
            "-".into(),
            c.row.verdict.as_str().into(),
        ]);
    }

    table.note(format!(
        "latency SLO threshold {} = 1.5x the worst fault-free sojourn (self-calibrated)",
        fmt_ns(threshold_ns)
    ));
    table.note(
        "alerts: multi-window burn rate >= 14.4 over both fast (h/24) and slow (h/6) windows",
    );
    table.note("zero false positives on the clean baseline is asserted, not sampled");
    let json = render_json(&cells, threshold_ns, &recon, &attr, alerts_recorded, quick);
    crate::artifacts::write_bench(&mut table, JSON_PATH, quick, &json);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_clean_and_degraded_cells_alert_in_window() {
        let (cells, threshold_ns) = run_slo_cells(true);
        assert!(threshold_ns > 0.0);
        assert_eq!(cells.len(), 3);
        let baseline = &cells[0];
        assert!(baseline.window.is_none());
        assert!(
            baseline.engine.alerts().is_empty(),
            "fault-free baseline fired {:?}",
            baseline.engine.alerts()
        );
        for c in &cells[1..] {
            assert!(
                !c.engine.alerts().is_empty(),
                "{} injected a degradation but no alert fired",
                c.scenario
            );
            assert!(
                c.alerts_ok(),
                "{} alerts {:?} escaped window {:?}",
                c.scenario,
                c.engine.alerts(),
                c.window
            );
        }
    }

    #[test]
    fn streaming_quantiles_track_exact_within_two_percent() {
        let (cells, _) = run_slo_cells(true);
        let recon = HistRecon::from_outcomes(&cells[0].report.outcomes);
        assert!(recon.count > 0);
        assert!(
            recon.worst_rel_err() < 0.02,
            "streaming p50/p95/p99 drifted {:.4} from exact",
            recon.worst_rel_err()
        );
    }

    #[test]
    fn attribution_verdicts_match_known_classes() {
        for c in attribution_cells() {
            assert_eq!(
                c.row.verdict, c.expected,
                "attribution verdict drifted on {}: {:?}",
                c.row.scope, c.row
            );
        }
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let run_once = || {
            let (cells, threshold_ns) = run_slo_cells(true);
            let recon = HistRecon::from_outcomes(&cells[0].report.outcomes);
            let fired: usize = cells.iter().map(|c| c.engine.alerts().len()).sum();
            render_json(
                &cells,
                threshold_ns,
                &recon,
                &attribution_cells(),
                fired,
                true,
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        assert!(a.starts_with("{\n") && a.ends_with("}\n"));
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"alerts_in_window\": true"));
        assert!(!a.contains("\"alerts_in_window\": false"));
    }
}
