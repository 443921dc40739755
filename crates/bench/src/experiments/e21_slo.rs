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

use unintt_core::{UniNttEngine, UniNttOptions};
use unintt_ff::Goldilocks;
use unintt_gpu_sim::{presets, FieldSpec, Machine, Topology};
use unintt_msm::simulate_multi_gpu_msm;
use unintt_ntt::Direction;
use unintt_serve::{
    AttributionRow, ChaosEvent, ChaosKind, ChaosPlan, FleetReport, FleetService, JobClass,
    JobOutcome, JobSpec, JobStatus, Priority, SchedulerPolicy, ServiceField, Verdict, WorkloadSpec,
};
use unintt_telemetry::{
    self as telemetry, BurnWindows, LatencyStats, Objective, SloEngine, SloEvent, SloSpec,
    StreamHist,
};

use super::e17_resilience::{fleet_config, jobs};
use crate::report::{Kind, Table};

/// The seeded bursty multi-tenant stream every cell replays: E17's
/// shape, its own seed.
fn stream(quick: bool) -> WorkloadSpec {
    WorkloadSpec::bursty(0xe21, jobs(quick), 40_000.0)
}

/// Plays `specs` (already sorted by arrival) through a fleet with `chaos`.
fn run_fleet(specs: Vec<JobSpec>, chaos: ChaosPlan) -> FleetReport {
    let mut fleet = FleetService::new(fleet_config(chaos, SchedulerPolicy::Fifo));
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
    let pct = Kind::Num(1, "%");
    let mut table = Table::of(
        "attribution",
        "Bottleneck attribution: utilization-vs-roofline fractions per workload",
        selected,
        &[
            ("workload", Kind::Label, |c| c.row.scope.as_str().into()),
            ("total", Kind::Ns(0), |c| c.row.total_ns.into()),
            ("compute", pct, |c| (100.0 * c.row.compute_frac).into()),
            ("memory", pct, |c| (100.0 * c.row.memory_frac).into()),
            ("wire", pct, |c| (100.0 * c.row.wire_frac).into()),
            ("other", pct, |c| (100.0 * c.row.other_frac).into()),
            ("peak-link", pct, |c| {
                c.row.peak_link_utilization.map(|u| 100.0 * u).into()
            }),
            ("verdict", Kind::Label, |c| c.row.verdict.as_str().into()),
        ],
    );
    table.note("verdict = dominant busy fraction vs the device roofline (see serve::attribution)");
    Some(table)
}

/// E21's tables: the calibrated summary, one row per SLO scenario, the
/// alerts each fired, the streaming-vs-exact quantiles and the
/// attribution verdicts.
fn tables(
    slo: &[SloCell],
    threshold_ns: f64,
    recon: &HistRecon,
    attr: &[AttrCell],
    alerts_recorded: usize,
) -> Vec<Table> {
    let mut summary = Table::new(
        "summary",
        "E21: SLO burn-rate alerts, streaming histograms, bottleneck attribution",
        &[
            ("latency_slo_threshold_ns", Kind::Ns(0)),
            ("alert_instants_recorded", Kind::Count),
        ],
    );
    summary.row([threshold_ns.into(), alerts_recorded.into()]);
    summary.note("latency SLO threshold = 1.5x the worst fault-free sojourn (self-calibrated)");
    summary.note(
        "alerts: multi-window burn rate >= 14.4 over both fast (h/24) and slow (h/6) windows",
    );
    summary.note("zero false positives on the clean baseline is asserted, not sampled");

    // An undegraded scenario's window prints as 0..0.
    let scenarios = Table::of(
        "slo",
        "E21: burn-rate alerts per scenario, against the injected degradation window",
        slo,
        &[
            ("scenario", Kind::Label, |c| c.scenario.into()),
            ("completed", Kind::Count, |c| {
                c.report.metrics.completed().into()
            }),
            ("deadline_cancelled", Kind::Count, |c| {
                c.report.metrics.deadline_exceeded().into()
            }),
            ("failovers", Kind::Count, |c| {
                c.report.fleet.failovers.into()
            }),
            ("horizon_ns", Kind::Ns(0), |c| {
                c.report.metrics.horizon_ns.into()
            }),
            ("p99_ns", Kind::Ns(0), |c| {
                c.report.metrics.classes["raw-ntt"].latency.p99_ns.into()
            }),
            ("alerts", Kind::Count, |c| c.engine.alerts().len().into()),
            ("window_start_ns", Kind::Ns(0), |c| {
                c.window.map_or(0.0, |w| w.0).into()
            }),
            ("window_end_ns", Kind::Ns(0), |c| {
                c.window.map_or(0.0, |w| w.1).into()
            }),
            ("alerts_in_window", Kind::Bool, |c| c.alerts_ok().into()),
        ],
    );
    let fired = slo
        .iter()
        .flat_map(|c| c.engine.alerts().iter().map(move |a| (c.scenario, a.spec)));
    let alerts = Table::of(
        "alert_specs",
        "E21: the SLO each alert fired on, in firing order",
        fired,
        &[
            ("scenario", Kind::Label, |&(scenario, _)| scenario.into()),
            ("alert_specs", Kind::Label, |&(_, spec)| spec.into()),
        ],
    );
    let hist = Table::of(
        "hist",
        "E21: streaming vs exact latency quantiles over the baseline sojourns",
        [recon],
        &[
            ("count", Kind::Count, |r| r.count.into()),
            ("exact_p50_ns", Kind::Ns(0), |r| r.exact.p50_ns.into()),
            ("stream_p50_ns", Kind::Ns(0), |r| r.stream_p50_ns.into()),
            ("exact_p95_ns", Kind::Ns(0), |r| r.exact.p95_ns.into()),
            ("stream_p95_ns", Kind::Ns(0), |r| r.stream_p95_ns.into()),
            ("exact_p99_ns", Kind::Ns(0), |r| r.exact.p99_ns.into()),
            ("stream_p99_ns", Kind::Ns(0), |r| r.stream_p99_ns.into()),
            ("worst_rel_err", Kind::Num(6, ""), |r| {
                r.worst_rel_err().into()
            }),
        ],
    );
    let frac = Kind::Num(4, "");
    let verdicts = Table::of(
        "attribution",
        "E21: bottleneck verdicts on known workloads",
        attr,
        &[
            ("scope", Kind::Label, |c| c.row.scope.as_str().into()),
            ("verdict", Kind::Label, |c| c.row.verdict.as_str().into()),
            ("expected", Kind::Label, |c| c.expected.as_str().into()),
            ("total_ns", Kind::Ns(0), |c| c.row.total_ns.into()),
            ("compute_frac", frac, |c| c.row.compute_frac.into()),
            ("memory_frac", frac, |c| c.row.memory_frac.into()),
            ("wire_frac", frac, |c| c.row.wire_frac.into()),
            ("other_frac", frac, |c| c.row.other_frac.into()),
            ("peak_link_utilization", frac, |c| {
                c.row.peak_link_utilization.into()
            }),
        ],
    );
    vec![summary, scenarios, alerts, hist, verdicts]
}

/// Runs E21 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
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
    }

    let recon = HistRecon::from_outcomes(&cells[0].report.outcomes);
    assert!(
        recon.worst_rel_err() < 0.02,
        "streaming quantiles drifted {:.4} > 2% from exact",
        recon.worst_rel_err()
    );

    let attr = attribution_cells();
    for c in &attr {
        assert_eq!(
            c.row.verdict, c.expected,
            "attribution verdict drifted on {}: {:?}",
            c.row.scope, c.row
        );
    }
    tables(&cells, threshold_ns, &recon, &attr, alerts_recorded)
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// One quick run of the SLO cells, shared by every test that reads
    /// them (each run replays full-size straggler NTTs).
    fn quick_cells() -> &'static (Vec<SloCell>, f64) {
        static CELLS: OnceLock<(Vec<SloCell>, f64)> = OnceLock::new();
        CELLS.get_or_init(|| run_slo_cells(true))
    }

    /// The artifact the cells render to.
    fn render(cells: &[SloCell], threshold_ns: f64) -> String {
        let recon = HistRecon::from_outcomes(&cells[0].report.outcomes);
        let fired: usize = cells.iter().map(|c| c.engine.alerts().len()).sum();
        let tables = tables(cells, threshold_ns, &recon, &attribution_cells(), fired);
        crate::artifacts::json("t", true, &tables)
    }

    #[test]
    fn baseline_is_clean_and_degraded_cells_alert_in_window() {
        let (cells, threshold_ns) = quick_cells();
        assert!(*threshold_ns > 0.0);
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
        let (cells, _) = quick_cells();
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
        let (cells, threshold_ns) = quick_cells();
        let a = render(cells, *threshold_ns);
        let (fresh, fresh_threshold_ns) = run_slo_cells(true);
        assert_eq!(
            a,
            render(&fresh, fresh_threshold_ns),
            "identical runs must render byte-identical JSON"
        );
        let parsed = unintt_telemetry::parse_json(&a).expect("well-formed JSON");
        let rows = parsed
            .get("slo")
            .and_then(|t| t.get("rows")?.as_array())
            .unwrap();
        assert!(
            rows.iter()
                .all(|r| r.as_array().unwrap().last()
                    == Some(&unintt_telemetry::JsonValue::Bool(true))),
            "every scenario's alerts fall in its window"
        );
    }
}
