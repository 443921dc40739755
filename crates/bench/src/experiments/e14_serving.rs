//! **E14 — proving-service offered load**: the `unintt-serve`
//! multi-tenant service under a swept offered load, coalescing window
//! and scheduling policy.
//!
//! Three sections:
//! * **coalescing** — offered load × batch window under FIFO: at high
//!   load a window lets compatible raw NTTs share one dispatch (and its
//!   fixed overhead), raising throughput and dropping tail latency;
//! * **policy** — FIFO vs priority vs shortest-job-first at the highest
//!   load with the default window;
//! * **faulted** — the same service under seeded device-loss fault
//!   injection: leases degrade, re-plan and get repaired, but every job
//!   completes.
//!
//! Everything is charged to the simulated clock and every workload is
//! seeded, so two runs produce byte-identical output — including the
//! machine-readable `BENCH_serve.json` written next to the process.

use std::fmt::Write as _;

use unintt_gpu_sim::FaultRates;
use unintt_serve::{ProofService, SchedulerPolicy, ServiceConfig, ServiceMetrics, WorkloadSpec};

use crate::report::{fmt_ns, Table};

/// Where the machine-readable results land.
pub const JSON_PATH: &str = "BENCH_serve.json";

/// One measured service run.
struct Cell {
    section: &'static str,
    load_jobs_per_s: f64,
    window_ns: f64,
    policy: SchedulerPolicy,
    faulted: bool,
    metrics: ServiceMetrics,
}

/// The swept grid.
fn grid(quick: bool) -> (Vec<f64>, Vec<f64>, usize) {
    let loads = vec![5_000.0, 20_000.0, 80_000.0];
    let windows = if quick {
        vec![0.0, 50_000.0]
    } else {
        vec![0.0, 25_000.0, 100_000.0]
    };
    let jobs = if quick { 32 } else { 96 };
    (loads, windows, jobs)
}

/// Runs one service configuration over the seeded workload for `load`.
/// The stream depends only on `(load, jobs)` so every window/policy cell
/// at one load serves identical submissions.
fn run_cell(
    section: &'static str,
    load: f64,
    jobs: usize,
    window_ns: f64,
    policy: SchedulerPolicy,
    fault_rates: Option<FaultRates>,
) -> Cell {
    let stream = WorkloadSpec::raw_only(0xe14 ^ load.to_bits(), jobs, load).generate();
    let mut service = ProofService::new(ServiceConfig {
        batch_window_ns: window_ns,
        policy,
        fault_rates,
        ..ServiceConfig::default()
    });
    service.submit_all(stream);
    let report = service.run();
    assert!(
        report.all_completed(),
        "E14 runs under capacity-512 admission: nothing should be shed or failed"
    );
    Cell {
        section,
        load_jobs_per_s: load,
        window_ns,
        policy,
        faulted: fault_rates.is_some(),
        metrics: report.metrics,
    }
}

/// Device-loss-heavy rates for the faulted section.
fn e14_fault_rates() -> FaultRates {
    FaultRates {
        drop_p: 0.01,
        device_loss_p: 0.004,
        ..FaultRates::default()
    }
}

fn render_json(cells: &[Cell], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"serve-offered-load\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let m = &c.metrics;
        let raw = &m.classes["raw-ntt"];
        let _ = write!(
            out,
            "    {{\"section\": \"{}\", \"load_jobs_per_s\": {:.0}, \"window_ns\": {:.0}, \
             \"policy\": \"{}\", \"faulted\": {}, \"completed\": {}, \"rejected\": {}, \
             \"horizon_ns\": {:.0}, \"throughput_jobs_per_s\": {:.1}, \
             \"mean_batch_size\": {:.3}, \"p50_ns\": {:.0}, \"p95_ns\": {:.0}, \
             \"p99_ns\": {:.0}, \"peak_queue\": {}, \"occupancy\": {:.4}, \
             \"retries\": {}, \"replans\": {}}}",
            c.section,
            c.load_jobs_per_s,
            c.window_ns,
            c.policy.name(),
            c.faulted,
            m.completed(),
            m.rejected(),
            m.horizon_ns,
            m.throughput_jobs_per_s(),
            m.mean_batch_size(),
            raw.latency.p50_ns,
            raw.latency.p95_ns,
            raw.latency.p99_ns,
            m.peak_queue_depth,
            m.mean_occupancy(),
            raw.retries,
            raw.replans,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn push_row(table: &mut Table, c: &Cell) {
    let m = &c.metrics;
    let raw = &m.classes["raw-ntt"];
    table.row(vec![
        c.section.into(),
        format!("{:.0}k/s", c.load_jobs_per_s / 1_000.0),
        if c.window_ns == 0.0 {
            "off".into()
        } else {
            fmt_ns(c.window_ns)
        },
        c.policy.name().into(),
        format!("{:.0}", m.throughput_jobs_per_s()),
        format!("{:.2}", m.mean_batch_size()),
        fmt_ns(raw.latency.p50_ns),
        fmt_ns(raw.latency.p95_ns),
        format!("{:.0}%", 100.0 * m.mean_occupancy()),
        format!("{}+{}", raw.retries, raw.replans),
    ]);
}

/// Runs E14 and renders the table (also writes [`JSON_PATH`]).
pub fn run(quick: bool) -> Table {
    let (loads, windows, jobs) = grid(quick);
    let mut table = Table::new(
        "E14: proving service under offered load (2 leases of 2 nodes x 2 A100)",
        &[
            "section", "load", "window", "policy", "jobs/s", "batch", "p50", "p95", "occ",
            "flt(r+p)",
        ],
    );
    let mut cells = Vec::new();

    // Section 1: coalescing — load × window sweep under FIFO.
    for &load in &loads {
        for &window in &windows {
            cells.push(run_cell(
                "coalescing",
                load,
                jobs,
                window,
                SchedulerPolicy::Fifo,
                None,
            ));
        }
    }

    // Section 2: policy comparison at the highest load, default window.
    let high = *loads.last().expect("non-empty load sweep");
    let default_window = ServiceConfig::default().batch_window_ns;
    for policy in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::Priority,
        SchedulerPolicy::ShortestJobFirst,
    ] {
        cells.push(run_cell("policy", high, jobs, default_window, policy, None));
    }

    // Section 3: seeded device-loss faults; leases degrade and get
    // repaired but no job fails (run_cell asserts all_completed).
    cells.push(run_cell(
        "faulted",
        loads[1],
        jobs,
        default_window,
        SchedulerPolicy::Fifo,
        Some(e14_fault_rates()),
    ));

    for c in &cells {
        push_row(&mut table, c);
    }

    table.note("same seeded stream per load across windows/policies; simulated clock only");
    table.note("flt(r+p): transient retries + degraded replans absorbed; all jobs completed");
    let json = render_json(&cells, quick);
    crate::artifacts::write_bench(&mut table, JSON_PATH, quick, &json);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_beats_no_window_at_high_load() {
        let (loads, _, _) = grid(true);
        let high = *loads.last().unwrap();
        let off = run_cell("t", high, 32, 0.0, SchedulerPolicy::Fifo, None);
        let on = run_cell("t", high, 32, 50_000.0, SchedulerPolicy::Fifo, None);
        // The stream spans 12 shapes (2 fields × 3 sizes × 2 directions),
        // so even at high load batches stay modest — but they must form.
        assert!(
            on.metrics.mean_batch_size() > 1.2,
            "window must actually coalesce: {}",
            on.metrics.mean_batch_size()
        );
        assert!(
            on.metrics.throughput_jobs_per_s() > off.metrics.throughput_jobs_per_s(),
            "coalescing should raise throughput at high load: {} vs {}",
            on.metrics.throughput_jobs_per_s(),
            off.metrics.throughput_jobs_per_s()
        );
    }

    #[test]
    fn faulted_cells_complete_every_job() {
        // run_cell asserts all_completed internally; also check faults fired.
        let c = run_cell(
            "t",
            20_000.0,
            32,
            25_000.0,
            SchedulerPolicy::Fifo,
            Some(e14_fault_rates()),
        );
        let raw = &c.metrics.classes["raw-ntt"];
        assert!(
            raw.retries + raw.replans > 0,
            "fault rates should produce visible recovery work"
        );
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let run_once = || {
            let c = run_cell("t", 5_000.0, 16, 25_000.0, SchedulerPolicy::Fifo, None);
            render_json(&[c], true)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        assert!(a.starts_with("{\n") && a.ends_with("}\n"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
