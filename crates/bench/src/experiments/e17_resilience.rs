//! **E17 — fleet resilience under injected chaos**: the `serve::fleet`
//! multi-cluster service driven by bursty multi-tenant load while a
//! seeded schedule kills and revives whole clusters.
//!
//! Four sections:
//! * **baseline** — the fault-free fleet: the digest set every chaos
//!   scenario must reproduce bit-for-bit;
//! * **chaos** — one-cluster kill/revive and a rolling two-cluster
//!   outage: in-flight and queued work fails over to survivors, circuit
//!   breakers quarantine the dead cluster, half-open probes re-admit it
//!   after revival — and **zero accepted jobs fail**;
//! * **policy** — the kill/revive scenario under FIFO, priority and
//!   shortest-job-first scheduling (failover is scheduler-agnostic);
//! * **deadline** — the same chaos with tight per-job deadlines: jobs
//!   whose deadline lapses while queued are cancelled with a typed
//!   status and counted separately from overload shedding.
//!
//! Everything runs on the simulated clock from seeded workloads and a
//! scripted chaos plan, so two runs produce byte-identical output —
//! including the machine-readable `BENCH_resilience.json`.

use unintt_serve::{
    ChaosPlan, FleetConfig, FleetReport, FleetService, SchedulerPolicy, ServiceConfig, WorkloadSpec,
};

use crate::report::{Kind, Table};

/// One measured fleet run.
struct Cell {
    section: &'static str,
    scenario: &'static str,
    policy: SchedulerPolicy,
    report: FleetReport,
    /// Completed-job digests identical to the fault-free baseline.
    digests_match: bool,
}

/// Stream size per mode (E21 replays the same size).
pub(crate) fn jobs(quick: bool) -> usize {
    if quick {
        48
    } else {
        160
    }
}

/// The seeded bursty multi-tenant stream every cell replays.
fn stream(quick: bool) -> WorkloadSpec {
    WorkloadSpec::bursty(0xe17, jobs(quick), 40_000.0)
}

/// A three-cluster fleet with the given chaos plan and policy (E21's
/// fleet too).
pub(crate) fn fleet_config(chaos: ChaosPlan, policy: SchedulerPolicy) -> FleetConfig {
    FleetConfig {
        clusters: 3,
        base: ServiceConfig {
            policy,
            ..ServiceConfig::default()
        },
        chaos,
        ..FleetConfig::default()
    }
}

/// Plays `spec` through a fleet configured with `chaos` + `policy`.
fn run_fleet(spec: &WorkloadSpec, chaos: ChaosPlan, policy: SchedulerPolicy) -> FleetReport {
    let mut fleet = FleetService::new(fleet_config(chaos, policy));
    fleet.submit_all(spec.generate());
    fleet.run()
}

/// Runs one scenario and checks the chaos-harness invariants: zero
/// failures among accepted jobs, and completed outputs bit-identical to
/// the fault-free baseline.
fn run_cell(
    section: &'static str,
    scenario: &'static str,
    spec: &WorkloadSpec,
    chaos: ChaosPlan,
    policy: SchedulerPolicy,
    baseline: &FleetReport,
) -> Cell {
    let report = run_fleet(spec, chaos, policy);
    assert!(
        report.zero_accepted_failures(),
        "E17 invariant: every accepted job completes or is cancelled for \
         a hopeless deadline ({section}/{scenario})"
    );
    // Every job completed in both runs must produce identical bits; a
    // job the chaos run cancelled (deadline section) is absent from its
    // digest map and exempt.
    let digests = report.digests();
    let digests_match = baseline
        .digests()
        .iter()
        .all(|(id, d)| digests.get(id).is_none_or(|x| x == d));
    Cell {
        section,
        scenario,
        policy,
        report,
        digests_match,
    }
}

/// Minimum per-cluster availability over the run.
fn min_availability(r: &FleetReport) -> f64 {
    r.fleet
        .availability
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// E17's tables: one row per cell, and each cell's per-cluster final
/// breaker states.
fn tables(cells: &[Cell]) -> Vec<Table> {
    let mut results = Table::of(
        "results",
        "E17: fleet resilience under injected chaos (3 clusters x 2 leases of 2 nodes x 2 A100)",
        cells,
        &[
            ("section", Kind::Label, |c| c.section.into()),
            ("scenario", Kind::Label, |c| c.scenario.into()),
            ("policy", Kind::Label, |c| c.policy.name().into()),
            ("completed", Kind::Count, |c| {
                c.report.metrics.completed().into()
            }),
            ("shed", Kind::Count, |c| c.report.metrics.shed().into()),
            ("deadline_cancelled", Kind::Count, |c| {
                c.report.metrics.deadline_exceeded().into()
            }),
            ("failovers", Kind::Count, |c| {
                c.report.fleet.failovers.into()
            }),
            ("hedges", Kind::Count, |c| c.report.fleet.hedges.into()),
            ("hedge_wins", Kind::Count, |c| {
                c.report.fleet.hedge_wins.into()
            }),
            ("quarantines", Kind::Count, |c| {
                c.report.fleet.quarantines.into()
            }),
            ("probes", Kind::Count, |c| c.report.fleet.probes.into()),
            ("readmissions", Kind::Count, |c| {
                c.report.fleet.readmissions.into()
            }),
            ("horizon_ns", Kind::Ns(0), |c| {
                c.report.metrics.horizon_ns.into()
            }),
            ("throughput_jobs_per_s", Kind::Num(1, ""), |c| {
                c.report.metrics.throughput_jobs_per_s().into()
            }),
            ("p99_ns", Kind::Ns(0), |c| {
                c.report.metrics.classes["raw-ntt"].latency.p99_ns.into()
            }),
            ("min_availability", Kind::Num(4, ""), |c| {
                min_availability(&c.report).into()
            }),
            ("digests_match_baseline", Kind::Bool, |c| {
                c.digests_match.into()
            }),
        ],
    );
    results.note("same seeded bursty stream per section; chaos kills/revives whole clusters");
    results
        .note("digests_match_baseline: completed-job digests identical to the fault-free baseline");
    results.note("zero accepted-job failures asserted in every cell");
    let rows = cells.iter().flat_map(|c| {
        c.report
            .fleet
            .final_states
            .iter()
            .enumerate()
            .map(move |s| (c, s))
    });
    let states = Table::of(
        "final_states",
        "E17: each cluster's breaker state at the end of each cell",
        rows,
        &[
            ("section", Kind::Label, |(c, _)| c.section.into()),
            ("scenario", Kind::Label, |(c, _)| c.scenario.into()),
            ("policy", Kind::Label, |(c, _)| c.policy.name().into()),
            ("cluster", Kind::Count, |&(_, (cluster, _))| cluster.into()),
            ("final_states", Kind::Label, |&(_, (_, &state))| {
                state.into()
            }),
        ],
    );
    vec![results, states]
}

/// Runs E17 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let spec = stream(quick);

    // Section 1: the fault-free baseline defines the digest set.
    let baseline = run_fleet(&spec, ChaosPlan::none(), SchedulerPolicy::Fifo);
    assert!(baseline.zero_accepted_failures());
    let horizon = baseline.metrics.horizon_ns;
    let mut cells = vec![Cell {
        section: "baseline",
        scenario: "fault-free",
        policy: SchedulerPolicy::Fifo,
        digests_match: true,
        report: baseline,
    }];
    let baseline = cells[0].report.clone();
    let baseline = &baseline;

    // Section 2: chaos — a mid-burst kill/revive and a rolling outage.
    let kill_revive = || ChaosPlan::kill_revive(0, horizon * 0.25, horizon * 0.7);
    cells.push(run_cell(
        "chaos",
        "kill-revive",
        &spec,
        kill_revive(),
        SchedulerPolicy::Fifo,
        baseline,
    ));
    cells.push(run_cell(
        "chaos",
        "rolling-outage",
        &spec,
        ChaosPlan::rolling(2, horizon * 0.2, horizon * 0.3, horizon * 0.25),
        SchedulerPolicy::Fifo,
        baseline,
    ));

    // Section 3: the same kill under every scheduling policy.
    for policy in [SchedulerPolicy::Priority, SchedulerPolicy::ShortestJobFirst] {
        cells.push(run_cell(
            "policy",
            "kill-revive",
            &spec,
            kill_revive(),
            policy,
            baseline,
        ));
    }

    // Section 4: chaos with tight deadlines — queued jobs whose deadline
    // lapses are cancelled with a typed status, not run late.
    let tight = WorkloadSpec {
        deadline_slack_ns: Some(150_000.0),
        ..spec
    };
    let deadline_baseline = run_fleet(&tight, ChaosPlan::none(), SchedulerPolicy::Fifo);
    cells.push(run_cell(
        "deadline",
        "kill-revive",
        &tight,
        kill_revive(),
        SchedulerPolicy::Fifo,
        &deadline_baseline,
    ));

    tables(&cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_cells_match_baseline_bits_and_fail_no_jobs() {
        let spec = stream(true);
        let baseline = run_fleet(&spec, ChaosPlan::none(), SchedulerPolicy::Fifo);
        let horizon = baseline.metrics.horizon_ns;
        let cell = run_cell(
            "t",
            "kill-revive",
            &spec,
            ChaosPlan::kill_revive(0, horizon * 0.25, horizon * 0.7),
            SchedulerPolicy::Fifo,
            &baseline,
        );
        assert!(cell.digests_match, "chaos must not change output bits");
        assert!(
            cell.report.fleet.quarantines >= 1,
            "the kill must trip a breaker"
        );
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let run_once = || {
            let spec = stream(true);
            let baseline = run_fleet(&spec, ChaosPlan::none(), SchedulerPolicy::Fifo);
            let horizon = baseline.metrics.horizon_ns;
            let cell = run_cell(
                "t",
                "kill-revive",
                &spec,
                ChaosPlan::kill_revive(0, horizon * 0.3, horizon * 0.8),
                SchedulerPolicy::Fifo,
                &baseline,
            );
            crate::artifacts::json("t", true, &tables(&[cell]))
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        unintt_telemetry::parse_json(&a).expect("well-formed JSON");
    }
}
