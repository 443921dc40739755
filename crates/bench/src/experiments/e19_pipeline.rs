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

use std::fmt::Write as _;

use unintt_serve::{
    JobSpec, ProofService, ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec,
};

use crate::report::{fmt_ns, Table};

/// Where the machine-readable results land.
pub const JSON_PATH: &str = "BENCH_pipeline.json";

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

    /// Completed proof jobs (PLONK + STARK, either submission form).
    fn proofs(&self) -> usize {
        self.report
            .outcomes
            .iter()
            .filter(|o| o.completed() && o.class_name != "raw-ntt")
            .count()
    }

    /// Completed proofs per simulated second.
    fn proofs_per_s(&self) -> f64 {
        if self.report.metrics.horizon_ns <= 0.0 {
            return 0.0;
        }
        self.proofs() as f64 / (self.report.metrics.horizon_ns * 1e-9)
    }

    /// The stage attribution as "ntt 42% msm 31% ..." (empty for
    /// monolithic cells, which cannot see inside a proof dispatch).
    fn attribution(&self) -> String {
        let total: f64 = self.report.stage_ns.values().sum();
        if total <= 0.0 {
            return "-".into();
        }
        let mut parts: Vec<(f64, &str)> = self
            .report
            .stage_ns
            .iter()
            .map(|(&name, &ns)| (ns / total, name))
            .collect();
        parts.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(b.1)));
        parts
            .iter()
            .map(|(frac, name)| format!("{name} {:.0}%", 100.0 * frac))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The swept grid: offered loads and jobs per cell.
fn grid(quick: bool) -> (Vec<f64>, usize) {
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

fn render_json(cells: &[Cell], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"pipeline-dag-scheduling\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let m = &c.report.metrics;
        let raw = &m.classes["raw-ntt"];
        let _ = write!(
            out,
            "    {{\"load_jobs_per_s\": {:.0}, \"mode\": \"{}\", \"completed\": {}, \
             \"proofs\": {}, \"horizon_ns\": {:.0}, \"throughput_jobs_per_s\": {:.1}, \
             \"proofs_per_s\": {:.2}, \"occupancy\": {:.4}, \"raw_p95_ns\": {:.0}, \
             \"stage_ns\": {{",
            c.load_jobs_per_s,
            c.mode(),
            m.completed(),
            c.proofs(),
            m.horizon_ns,
            m.throughput_jobs_per_s(),
            c.proofs_per_s(),
            m.mean_occupancy(),
            raw.latency.p95_ns,
        );
        for (j, (name, ns)) in c.report.stage_ns.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\": {ns:.0}", if j == 0 { "" } else { ", " });
        }
        out.push_str("}}");
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn push_row(table: &mut Table, c: &Cell) {
    let m = &c.report.metrics;
    let raw = &m.classes["raw-ntt"];
    table.row(vec![
        format!("{:.0}k/s", c.load_jobs_per_s / 1_000.0),
        c.mode().into(),
        format!("{:.0}", m.throughput_jobs_per_s()),
        format!("{:.1}", c.proofs_per_s()),
        format!("{:.0}%", 100.0 * m.mean_occupancy()),
        fmt_ns(raw.latency.p95_ns),
        c.attribution(),
    ]);
}

/// Runs E19 and renders the table (also writes [`JSON_PATH`]).
pub fn run(quick: bool) -> Table {
    let (loads, jobs) = grid(quick);
    let mut table = Table::new(
        "E19: DAG-pipelined vs monolithic proving under mixed load (2 leases of 2 nodes x 2 A100)",
        &[
            "load",
            "mode",
            "jobs/s",
            "proofs/s",
            "occ",
            "raw p95",
            "stage attribution",
        ],
    );
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
            && high_dag.proofs_per_s() > high_mono.proofs_per_s(),
        "DAG pipelining must raise occupancy and proof throughput at high load: \
         occ {:.4} vs {:.4}, proofs/s {:.2} vs {:.2}",
        high_dag.report.metrics.mean_occupancy(),
        high_mono.report.metrics.mean_occupancy(),
        high_dag.proofs_per_s(),
        high_mono.proofs_per_s(),
    );

    for c in &cells {
        push_row(&mut table, c);
    }

    table.note("same seeded stream per load; dag cells map proof classes via pipelined()");
    table.note("every job's output digest matches its monolithic twin (asserted per pair)");
    let json = render_json(&cells, quick);
    crate::artifacts::write_bench(&mut table, JSON_PATH, quick, &json);
    table
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
            dag.proofs_per_s() > mono.proofs_per_s(),
            "stage interleaving should finish proofs faster: {:.2} vs {:.2}",
            dag.proofs_per_s(),
            mono.proofs_per_s()
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
            render_json(&[mono, dag], true)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        assert!(a.starts_with("{\n") && a.ends_with("}\n"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
