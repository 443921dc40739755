//! Command-line entry point regenerating the evaluation tables.

use std::process::ExitCode;

use unintt_bench::experiments;
use unintt_bench::Table;
use unintt_bench::{artifacts, perf_gate};

const USAGE: &str = "\
usage: harness [--quick] [--blocking-comm] <experiment>...
       harness [--quick] [--trace-dir <path>] trace <experiment>...
       harness attribute <workload>
       harness perf-gate [<artifact>...]
  <experiment>      one or more of: e1 e2 e3 e4 e5 e6 e7 e8 e9 e11 e12 e13
                    e14 e15 e16 e17 e19 e20 e21 all
  trace             run the named experiments with telemetry enabled and
                    write a Chrome/Perfetto trace_<experiment>.json into
                    the trace directory (e16 manages its own session and
                    always writes trace.json + trace.folded there)
  attribute         print the bottleneck-attribution verdicts for a
                    known-class workload: msm, ntt, pcie, or all
                    (substring match against the workload scope)
  perf-gate         rerun the experiment behind each committed
                    BENCH_*.json (all of them, or just the named
                    artifacts/experiments) and diff fresh output against
                    the committed baseline; exits non-zero on regression
  --trace-dir       where trace artifacts land (default: target/traces)
  --quick           trimmed sweeps (seconds instead of minutes)
  --blocking-comm   pin every simulated engine to the legacy blocking
                    exchange schedule instead of the chunked overlapped
                    pipeline (A/B escape hatch; outputs are bit-identical
                    either way)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--quick" => quick = true,
            "--blocking-comm" => {
                unintt_core::set_comm_mode_override(Some(unintt_core::CommMode::Blocking));
            }
            "--trace-dir" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--trace-dir needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                artifacts::set_trace_dir(value);
                i += 1;
            }
            _ if a.starts_with("--trace-dir=") => {
                artifacts::set_trace_dir(&a["--trace-dir=".len()..]);
            }
            _ if a.starts_with("--") => {
                eprintln!("unknown flag '{a}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            _ => selected.push(a.to_string()),
        }
        i += 1;
    }
    let selected: Vec<&str> = selected.iter().map(String::as_str).collect();

    if selected.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    }

    match selected[0] {
        "attribute" => {
            let which = selected.get(1).copied().unwrap_or("all");
            return match experiments::e21_slo::attribution_report(which) {
                Some(table) => {
                    println!("{table}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("no workload matches '{which}' (try msm, ntt, pcie, all)\n{USAGE}");
                    ExitCode::FAILURE
                }
            };
        }
        "perf-gate" => {
            let (table, ok) = perf_gate::run_gate(&selected[1..]);
            println!("{table}");
            return if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        _ => {}
    }

    let trace_mode = selected.first() == Some(&"trace");
    let selected: Vec<&str> = if trace_mode {
        let rest = selected[1..].to_vec();
        if rest.is_empty() {
            eprintln!("trace mode needs at least one experiment\n{USAGE}");
            return ExitCode::FAILURE;
        }
        rest
    } else {
        selected
    };

    let run_one = |name: &str| -> Option<Table> {
        let table = match name {
            "e1" => experiments::e1_headline::run(quick),
            "e2" => experiments::e2_scaling::run(quick),
            "e3" => experiments::e3_vs_baseline::run(quick),
            "e4" => experiments::e4_comm_volume::run(quick),
            "e5" => experiments::e5_breakdown::run(quick),
            "e6" => experiments::e6_ablation::run(quick),
            "e7" => experiments::e7_topology::run(quick),
            "e8" => experiments::e8_end_to_end::run(quick),
            "e9" => experiments::e9_batching::run(quick),
            "e11" => experiments::e11_stark_commit::run(quick),
            "e12" => experiments::e12_multi_node::run(quick),
            "e13" => experiments::e13_fault_tolerance::run(quick),
            "e14" => experiments::e14_serving::run(quick),
            "e15" => experiments::e15_comm_overlap::run(quick),
            "e16" => experiments::e16_observability::run(quick),
            "e17" => experiments::e17_resilience::run(quick),
            "e19" => experiments::e19_pipeline::run(quick),
            "e20" => experiments::e20_streams::run(quick),
            "e21" => experiments::e21_slo::run(quick),
            _ => return None,
        };
        Some(table)
    };

    for name in &selected {
        if trace_mode && *name != "all" && *name != "e16" && *name != "e21" {
            // E16 and E21 drive their own telemetry sessions (nesting
            // would deadlock on the session lock); E16 always writes
            // trace.json into the trace directory itself.
            let guard = unintt_telemetry::start_session();
            let Some(table) = run_one(name) else {
                eprintln!("unknown experiment '{name}'\n{USAGE}");
                return ExitCode::FAILURE;
            };
            let session = unintt_telemetry::take_session();
            drop(guard);
            println!("{table}");
            let path = artifacts::trace_path(&format!("trace_{name}.json"));
            match std::fs::write(&path, unintt_telemetry::chrome_trace_json(&session)) {
                Ok(()) => println!(
                    "trace with {} spans / {} instants written to {}",
                    session.spans.len(),
                    session.instants.len(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        } else if *name == "all" {
            for table in experiments::run_all(quick) {
                println!("{table}");
            }
        } else {
            match run_one(name) {
                Some(table) => println!("{table}"),
                None => {
                    eprintln!("unknown experiment '{name}'\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
