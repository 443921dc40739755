//! Drives the built binary the way `run.sh --quick` does — one op per
//! workload with tracing off, one traced run — and holds its output to
//! `BENCHMARK.json`: same metric names in both directions, every
//! correctness check passing, a loadable trace whose spans nest.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::{Duration, Instant};

use unintt_telemetry::{parse_json, validate_chrome_trace, JsonValue};

const BIN: &str = env!("CARGO_BIN_EXE_unintt-benchmark");

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(doc: &JsonValue, key: &str) -> BTreeSet<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} array"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload for one op and returns the stdout lines.
fn run(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seconds", "0", "--trace", trace])
        .output()
        .expect("spawn benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

/// Checks the result object on the last line and returns its metric names.
fn checked_metrics(lines: &[String]) -> BTreeSet<String> {
    let result = parse_json(lines.last().expect("a last line")).expect("result object");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
    let JsonValue::Object(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} has no value");
        assert!(
            m.get("unit").and_then(JsonValue::as_str).is_some(),
            "{name} has no unit"
        );
    }
    metrics.keys().cloned().collect()
}

#[test]
fn quick_mode_passes_every_check_and_emits_exactly_the_declared_metrics() {
    let spec = benchmark_json();
    let begin = Instant::now();

    for workload in names(&spec, "workloads") {
        let lines = run(&workload, "0");
        assert_eq!(
            checked_metrics(&lines),
            names(&spec, "end_to_end"),
            "{workload}"
        );
    }

    let lines = run("engine-sim", "1");
    assert_eq!(checked_metrics(&lines), names(&spec, "per_layer"));
    // The whole quick pass is the CI hook: it has to stay cheap.
    assert!(
        begin.elapsed() < Duration::from_secs(60),
        "quick mode took {:?}",
        begin.elapsed()
    );

    // The traced run says where it wrote the trace.
    let path = lines
        .iter()
        .find_map(|l| l.split(" -> ").nth(1))
        .expect("trace path line");
    let trace = std::fs::read_to_string(path).expect("trace file");
    let summary = validate_chrome_trace(&trace).expect("Perfetto-loadable trace");
    assert!(summary.complete > 50, "only {} spans", summary.complete);

    // Every child span lies inside its parent and shares its op id.
    let doc = parse_json(&trace).expect("trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("events");
    let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64).expect("number");
    let mut roots = 0;
    for e in events {
        let args = e.get("args").expect("args");
        let Some(parent) = args.get("parent").and_then(JsonValue::as_f64) else {
            roots += 1;
            continue;
        };
        let p = &events[parent as usize];
        assert_eq!(p.get("args").and_then(|a| a.get("op")), args.get("op"));
        // Timestamps are printed to the nanosecond; allow that rounding.
        assert!(num(p, "ts") <= num(e, "ts") + 0.002);
        assert!(num(e, "ts") + num(e, "dur") <= num(p, "ts") + num(p, "dur") + 0.002);
    }
    assert!(roots >= 2, "one root per traced op and per probe");
}

#[test]
fn rejects_unknown_workloads_and_flags_without_printing_a_result() {
    for args in [&["--workload", "nope"][..], &["--frobnicate", "1"], &[]] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("spawn benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
