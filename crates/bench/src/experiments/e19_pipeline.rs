//! **E19 — pipelined whole-proof DAG scheduling**: the same mixed
//! multi-tenant workload served twice — once with proofs submitted as
//! monolithic jobs (one lease held for the whole proof) and once with
//! the identical proofs submitted as [`unintt_serve::JobClass::ProveDag`]
//! stage DAGs, dispatched stage-by-stage under the ordinary lease
//! policies and interleaved with every other tenant's work.
//!
//! The two submission streams are *identical* except for the class tag
//! (the DAG stream maps each proof class through
//! `JobClass::pipelined()` after generation, so arrivals, tenants,
//! priorities and fixtures match job-for-job), which makes three claims
//! checkable per load level:
//!
//! * **bit identity** — every job's `output_digest` matches between the
//!   monolithic and DAG runs (run_pair asserts this);
//! * **occupancy** — dispatching ready stages instead of whole proofs
//!   lets independent stages of one proof (e.g. PLONK's z-commit and
//!   quotient LDE) run on different leases concurrently and lets short
//!   raw-NTT jobs fill the gaps between stages, raising mean lease
//!   occupancy and finishing the same work in a shorter horizon;
//! * **attribution** — the DAG runs report lease-occupied time per
//!   stage kind (`ServiceReport::stage_ns`), the per-stage breakdown a
//!   monolithic dispatch cannot see.
//!
//! Everything is charged to the simulated clock and every workload is
//! seeded, so two runs produce byte-identical output — including the
//! machine-readable `BENCH_pipeline.json` written next to the process.

use unintt_serve::{
    JobSpec, ProofService, ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec,
};

use crate::report::{Kind, Table};

/// One measured service run (one load level, one submission mode).
struct Cell {
    load_jobs_per_s: f64,
    pipelined: bool,
    report: ServiceReport,
}

impl Cell {
    fn mode(&self) -> &'static str {
        if self.pipelined {
            "dag"
        } else {
            "monolithic"
        }
    }
}

/// Completed proof jobs (PLONK + STARK, either submission form).
pub(crate) fn proofs(report: &ServiceReport) -> usize {
    report
        .outcomes
        .iter()
        .filter(|o| o.completed() && o.class_name != "raw-ntt")
        .count()
}

/// Completed proofs per simulated second.
pub(crate) fn proofs_per_s(report: &ServiceReport) -> f64 {
    if report.metrics.horizon_ns <= 0.0 {
        return 0.0;
    }
    proofs(report) as f64 / (report.metrics.horizon_ns * 1e-9)
}

/// The swept grid: offered loads and jobs per cell (E20 sweeps the same
/// grid, so its dag rows replicate this experiment's cells).
pub(crate) fn grid(quick: bool) -> (Vec<f64>, usize) {
    let loads = vec![5_000.0, 20_000.0, 80_000.0];
    let jobs = if quick { 24 } else { 64 };
    (loads, jobs)
}

/// The seeded proof-heavy submission stream for one load level. Half
/// raw NTTs (the coalescer's food), half proofs — the stream every cell
/// at this load serves, so monolithic and DAG cells differ only in the
/// class tag. E20 reuses the same stream so its cells are comparable
/// with this experiment's row for row.
pub(crate) fn stream(load: f64, jobs: usize) -> Vec<JobSpec> {
    WorkloadSpec {
        mix: WorkloadMix {
            raw: 0.5,
            plonk: 0.25,
            stark: 0.25,
        },
        ..WorkloadSpec::raw_only(0xe19 ^ load.to_bits(), jobs, load)
    }
    .generate()
}

/// Runs one service configuration over the seeded stream for `load`,
/// mapping proof classes through `pipelined()` when asked. The mapping
/// happens *after* generation, so the DAG cell's arrivals, tenants and
/// priorities are job-for-job identical to the monolithic cell's.
fn run_cell(load: f64, jobs: usize, pipelined: bool) -> Cell {
    let mut stream = stream(load, jobs);
    if pipelined {
        for spec in &mut stream {
            spec.class = spec.class.pipelined();
        }
    }
    let mut service = ProofService::new(ServiceConfig::default());
    service.submit_all(stream);
    let report = service.run();
    assert!(
        report.all_completed(),
        "E19 runs under capacity-512 admission: nothing should be shed or failed"
    );
    Cell {
        load_jobs_per_s: load,
        pipelined,
        report,
    }
}

/// Runs the monolithic and DAG cells for one load and asserts the two
/// runs produced bit-identical outputs job-for-job.
fn run_pair(load: f64, jobs: usize) -> (Cell, Cell) {
    let mono = run_cell(load, jobs, false);
    let dag = run_cell(load, jobs, true);
    assert_eq!(mono.report.outcomes.len(), dag.report.outcomes.len());
    for (m, d) in mono.report.outcomes.iter().zip(&dag.report.outcomes) {
        assert_eq!(m.id, d.id);
        assert!(
            m.output_digest != 0,
            "{} {} must digest its output",
            m.id,
            m.class_name
        );
        assert_eq!(
            m.output_digest, d.output_digest,
            "{} ({} vs {}): DAG scheduling must not change a single output bit",
            m.id, m.class_name, d.class_name
        );
    }
    (mono, dag)
}

/// E19's tables: one row per cell, and the DAG cells' lease time per
/// stage kind.
fn tables(cells: &[Cell]) -> Vec<Table> {
    let mut results = Table::of(
        "results",
        "E19: DAG-pipelined vs monolithic proving under mixed load (2 leases of 2 nodes x 2 A100)",
        cells,
        &[
            ("load_jobs_per_s", Kind::Num(0, ""), |c| {
                c.load_jobs_per_s.into()
            }),
            ("mode", Kind::Label, |c| c.mode().into()),
            ("completed", Kind::Count, |c| {
                c.report.metrics.completed().into()
            }),
            ("proofs", Kind::Count, |c| proofs(&c.report).into()),
            ("horizon_ns", Kind::Ns(0), |c| {
                c.report.metrics.horizon_ns.into()
            }),
            ("throughput_jobs_per_s", Kind::Num(1, ""), |c| {
                c.report.metrics.throughput_jobs_per_s().into()
            }),
            ("proofs_per_s", Kind::Num(2, ""), |c| {
                proofs_per_s(&c.report).into()
            }),
            ("occupancy", Kind::Num(4, ""), |c| {
                c.report.metrics.mean_occupancy().into()
            }),
            ("raw_p95_ns", Kind::Ns(0), |c| {
                c.report.metrics.classes["raw-ntt"].latency.p95_ns.into()
            }),
        ],
    );
    results.note("same seeded stream per load; dag cells map proof classes via pipelined()");
    results.note("every job's output digest matches its monolithic twin (asserted per pair)");
    let rows = cells
        .iter()
        .flat_map(|c| c.report.stage_ns.iter().map(move |s| (c, s)));
    let stages = Table::of(
        "stage_ns",
        "E19: lease-occupied time per stage kind (DAG cells; a monolithic dispatch sees none)",
        rows,
        &[
            ("load_jobs_per_s", Kind::Num(0, ""), |(c, _)| {
                c.load_jobs_per_s.into()
            }),
            ("mode", Kind::Label, |(c, _)| c.mode().into()),
            ("stage", Kind::Label, |&(_, (&stage, _))| stage.into()),
            ("stage_ns", Kind::Ns(0), |&(_, (_, &ns))| ns.into()),
        ],
    );
    vec![results, stages]
}

/// Runs E19 and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let (loads, jobs) = grid(quick);
    let mut cells = Vec::new();
    for &load in &loads {
        let (mono, dag) = run_pair(load, jobs);
        cells.push(mono);
        cells.push(dag);
    }

    // The headline claim, checked on every run: at the highest load the
    // DAG cells keep the cluster busier and finish proofs faster.
    let high_mono = &cells[cells.len() - 2];
    let high_dag = &cells[cells.len() - 1];
    assert!(
        high_dag.report.metrics.mean_occupancy() > high_mono.report.metrics.mean_occupancy()
            && proofs_per_s(&high_dag.report) > proofs_per_s(&high_mono.report),
        "DAG pipelining must raise occupancy and proof throughput at high load: \
         occ {:.4} vs {:.4}, proofs/s {:.2} vs {:.2}",
        high_dag.report.metrics.mean_occupancy(),
        high_mono.report.metrics.mean_occupancy(),
        proofs_per_s(&high_dag.report),
        proofs_per_s(&high_mono.report),
    );

    tables(&cells)
}

#[cfg(test)]
mod tests {
    use unintt_telemetry as telemetry;

    use super::*;

    #[test]
    fn dag_cells_match_monolithic_digests_and_attribute_stages() {
        // run_pair asserts digest identity internally.
        let (mono, dag) = run_pair(20_000.0, 16);
        assert!(
            mono.report.stage_ns.is_empty(),
            "monolithic cells see no stages"
        );
        assert!(
            dag.report.stage_ns.contains_key("ntt")
                && dag.report.stage_ns.contains_key("msm")
                && dag.report.stage_ns.contains_key("fold"),
            "DAG cells attribute NTT, MSM and FRI-fold time: {:?}",
            dag.report.stage_ns
        );
        assert!(
            !dag.report.stage_ns.contains_key("barrier"),
            "barriers are charge-free and must not appear in the attribution"
        );
    }

    #[test]
    fn dag_pipelining_wins_at_high_load() {
        let (loads, _) = grid(true);
        let high = *loads.last().unwrap();
        let (mono, dag) = run_pair(high, 24);
        assert!(
            dag.report.metrics.mean_occupancy() > mono.report.metrics.mean_occupancy(),
            "stage interleaving should keep leases busier: {:.4} vs {:.4}",
            dag.report.metrics.mean_occupancy(),
            mono.report.metrics.mean_occupancy()
        );
        assert!(
            proofs_per_s(&dag.report) > proofs_per_s(&mono.report),
            "stage interleaving should finish proofs faster: {:.2} vs {:.2}",
            proofs_per_s(&dag.report),
            proofs_per_s(&mono.report)
        );
    }

    #[test]
    fn dag_stages_show_up_in_the_exported_trace() {
        let guard = telemetry::start_session();
        let _cell = run_cell(20_000.0, 12, true);
        let session = telemetry::take_session();
        drop(guard);
        let stage_spans: Vec<_> = session
            .spans
            .iter()
            .filter(|s| s.category == "stage")
            .collect();
        assert!(
            !stage_spans.is_empty(),
            "stage dispatches must record per-stage spans"
        );
        assert!(
            stage_spans.iter().any(|s| s.track.starts_with("lease")),
            "stage spans ride the lease tracks so traces show the interleaving"
        );
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let run_once = || {
            let (mono, dag) = run_pair(5_000.0, 12);
            crate::artifacts::json("t", true, &tables(&[mono, dag]))
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        unintt_telemetry::parse_json(&a).expect("well-formed JSON");
    }
}
