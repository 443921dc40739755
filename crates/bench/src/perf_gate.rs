//! Perf-regression gate: rerun the experiment behind every committed
//! `BENCH_*.json` and diff the fresh bytes against the committed
//! baseline.
//!
//! Every gated artifact — `BENCH_paper.json` (E1–E9, E11–E13) and the
//! seven beyond the paper, `BENCH_serve.json` (E14), `BENCH_comm.json`
//! (E15), `BENCH_obs.json` (E16), `BENCH_resilience.json` (E17),
//! `BENCH_pipeline.json` (E19), `BENCH_streams.json` (E20) and
//! `BENCH_slo.json` (E21) — comes from a deterministic simulated clock,
//! so it must match **byte-for-byte**: any diff is a regression (or an
//! intentional change that needs a new committed baseline) and fails the
//! gate. On a failure the gate parses both sides and names the cells
//! that moved, `artifact table[row] column: old → new`. A full-mode rerun
//! also checks the tables' blocks in EXPERIMENTS.md
//! ([`crate::docs::stale_blocks`]) and fails naming each block that
//! differs from what the harness printed. Host wall-clock time is
//! measured by the repository benchmark (`benchmark/`), not here.
//!
//! The committed baseline is read from `git show HEAD:<file>` so a dirty
//! working tree cannot fool the gate; files not yet committed fall back
//! to the on-disk copy at the repo root. Each rerun's mode (quick/full)
//! is taken from the committed artifact's own `"quick"` field, so the
//! gate always compares like with like.
//!
//! ```bash
//! cargo run -p unintt-bench --release --bin harness -- perf-gate
//! cargo run -p unintt-bench --release --bin harness -- perf-gate BENCH_serve.json
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use unintt_telemetry::{parse_json, JsonValue};

use crate::experiments::{self, Experiment};
use crate::report::{Kind, Table};

/// At most this many moved cells are listed per artifact.
const MAX_LISTED: usize = 8;

/// What the gate concluded about one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Fresh bytes match the committed baseline byte for byte (and, in
    /// full mode, every table its EXPERIMENTS.md block).
    Pass,
    /// The fresh bytes diverged from the committed baseline; what moved.
    Fail(Vec<String>),
    /// No committed baseline exists yet; nothing to compare against.
    Skip(String),
}

/// The repo root (so `git show` and the disk fallback resolve no matter
/// which subdirectory the harness runs from).
fn repo_root() -> PathBuf {
    Command::new("git")
        .args(["rev-parse", "--show-toplevel"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| PathBuf::from(s.trim()))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The committed bytes of `file` at `HEAD`, falling back to the on-disk
/// copy at the repo root for artifacts that exist but are not yet
/// committed.
fn committed_bytes(file: &str) -> Option<Vec<u8>> {
    let root = repo_root();
    let shown = Command::new("git")
        .args(["show", &format!("HEAD:{file}")])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| o.stdout);
    shown.or_else(|| std::fs::read(root.join(file)).ok())
}

/// Parses an artifact's own `"quick"` field (defaults to full mode).
fn committed_quick(bytes: &[u8]) -> bool {
    parse_json(&String::from_utf8_lossy(bytes))
        .is_ok_and(|v| v.get("quick") == Some(&JsonValue::Bool(true)))
}

/// A parsed value as the report prints it.
fn show(v: Option<&JsonValue>) -> String {
    match v {
        None => "absent".into(),
        Some(JsonValue::Null) => "null".into(),
        Some(JsonValue::Bool(b)) => b.to_string(),
        Some(JsonValue::Number(x)) => x.to_string(),
        Some(JsonValue::String(s)) => format!("{s:?}"),
        Some(JsonValue::Array(items)) => {
            let items: Vec<String> = items.iter().map(|i| show(Some(i))).collect();
            format!("[{}]", items.join(", "))
        }
        Some(JsonValue::Object(_)) => "{…}".into(),
    }
}

/// `v` as an array; empty when absent or not an array.
fn items(v: Option<&JsonValue>) -> &[JsonValue] {
    v.and_then(JsonValue::as_array).unwrap_or(&[])
}

/// What moved between two renderings of an artifact, one line per cell:
/// `table[row] column: old → new`; a title, column list or note list
/// that moved, or a member that is not a table, is named whole.
fn moved_cells(old: &str, new: &str) -> Vec<String> {
    let (Ok(JsonValue::Object(old)), Ok(JsonValue::Object(new))) =
        (parse_json(old), parse_json(new))
    else {
        return vec!["an artifact does not parse as a JSON object".into()];
    };
    let mut moved = Vec::new();
    for key in old.keys().chain(new.keys()).collect::<BTreeSet<_>>() {
        let (a, b) = (old.get(key), new.get(key));
        if a == b {
            continue;
        }
        if a.or(b).and_then(|t| t.get("rows")).is_none() {
            moved.push(format!("{key}: {} → {}", show(a), show(b)));
            continue;
        }
        for field in ["title", "columns", "notes"] {
            let (fa, fb) = (a.and_then(|t| t.get(field)), b.and_then(|t| t.get(field)));
            if fa != fb {
                moved.push(format!("{key} {field}: {} → {}", show(fa), show(fb)));
            }
        }
        let columns = b.or(a).and_then(|t| t.get("columns")?.as_array());
        let (ra, rb) = (
            items(a.and_then(|t| t.get("rows"))),
            items(b.and_then(|t| t.get("rows"))),
        );
        for i in 0..ra.len().max(rb.len()) {
            let (ca, cb) = (items(ra.get(i)), items(rb.get(i)));
            for j in (0..ca.len().max(cb.len())).filter(|&j| ca.get(j) != cb.get(j)) {
                let column = columns.and_then(|c| c.get(j)?.as_str()).unwrap_or("?");
                moved.push(format!(
                    "{key}[{i}] {column}: {} → {}",
                    show(ca.get(j)),
                    show(cb.get(j))
                ));
            }
        }
    }
    if moved.is_empty() {
        moved.push("bytes differ but every value parses equal (layout only)".into());
    }
    moved
}

/// Reruns one gated artifact in its committed mode and compares it
/// against its baseline — and, in full mode, its tables against their
/// EXPERIMENTS.md blocks; returns the mode and the verdict.
///
/// The experiment writes its JSON where [`crate::artifacts::bench_path`]
/// puts it; the gate snapshots whatever was there before and restores it
/// afterwards, so a gate run never perturbs the working tree (a fresh
/// artifact only survives on disk when there was nothing to clobber).
pub fn run_one(experiment: &Experiment) -> (bool, Outcome) {
    let file = experiment
        .artifact
        .expect("a gated experiment writes an artifact");
    let Some(committed) = committed_bytes(file) else {
        let why = "no committed baseline (run the experiment and commit)";
        return (false, Outcome::Skip(why.into()));
    };
    let quick = committed_quick(&committed);
    let path = crate::artifacts::bench_path(file, quick);
    let preexisting = std::fs::read(&path).ok();

    let tables = experiment.run(quick);
    let stale = match quick {
        true => Vec::new(),
        false => {
            let doc = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md"));
            stale_docs(&doc.unwrap_or_default(), &tables)
        }
    };
    let fresh = std::fs::read(&path).ok();

    // Put the working directory back exactly as we found it.
    let _ = match &preexisting {
        Some(bytes) => std::fs::write(&path, bytes),
        None => std::fs::remove_file(&path),
    };

    let mut moved = match fresh {
        None => vec![format!("rerun produced no {file}")],
        Some(fresh) if fresh == committed => Vec::new(),
        Some(fresh) => moved_cells(
            &String::from_utf8_lossy(&committed),
            &String::from_utf8_lossy(&fresh),
        ),
    };
    moved.extend(stale);
    let outcome = match moved.is_empty() {
        true => Outcome::Pass,
        false => Outcome::Fail(moved),
    };
    (quick, outcome)
}

/// One line per EXPERIMENTS.md block that differs from its table.
fn stale_docs(doc: &str, tables: &[Table]) -> Vec<String> {
    crate::docs::stale_blocks(doc, tables)
        .iter()
        .map(|text| {
            let title = text.lines().next().unwrap_or_default();
            format!("EXPERIMENTS.md block \"{title}\" differs from the harness output")
        })
        .collect()
}

/// Runs the gate over `names` — artifacts or experiments; every gated
/// artifact when empty. Returns the rendered report and whether the gate
/// passed (no `Fail` rows).
pub fn run_gate(names: &[&str]) -> (Table, bool) {
    let mut table = Table::new(
        "perf-gate",
        "Perf-regression gate: fresh reruns vs committed BENCH baselines",
        &["artifact", "experiment", "mode", "verdict", "detail"].map(|h| (h, Kind::Label)),
    );
    let mut moved = Vec::new();
    for e in experiments::all() {
        let file = e.artifact.expect("every entry of all() writes an artifact");
        if !(names.is_empty() || names.contains(&e.name) || names.contains(&file)) {
            continue;
        }
        let (quick, outcome) = run_one(e);
        let (verdict, detail) = match &outcome {
            Outcome::Pass if quick => ("pass", "bytes match committed baseline".to_string()),
            Outcome::Pass => ("pass", "bytes and EXPERIMENTS.md blocks match".to_string()),
            Outcome::Skip(why) => ("skip", why.clone()),
            Outcome::Fail(lines) => {
                let listed = lines.iter().take(MAX_LISTED);
                moved.extend(listed.map(|l| format!("{file}: {l}")));
                if lines.len() > MAX_LISTED {
                    moved.push(format!("{file}: … and {} more", lines.len() - MAX_LISTED));
                }
                (
                    "FAIL",
                    format!("{} difference(s), listed below", lines.len()),
                )
            }
        };
        let mode = if quick { "quick" } else { "full" };
        table.row([
            file.into(),
            e.name.into(),
            mode.into(),
            verdict.into(),
            detail.into(),
        ]);
    }
    let ok = !table.is_empty() && moved.is_empty();
    if table.is_empty() {
        table.note("no artifact matched the requested names");
    }
    for line in moved {
        table.note(line);
    }
    table.note("every artifact must match byte-for-byte, and every full-mode table its EXPERIMENTS.md block");
    table.note(if ok { "gate: PASS" } else { "gate: FAIL" });
    (table, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_quick_parses_both_modes() {
        assert!(committed_quick(b"{\n  \"quick\": true\n}"));
        assert!(!committed_quick(b"{\n  \"quick\": false\n}"));
        assert!(!committed_quick(b"{}"));
    }

    #[test]
    fn report_names_the_moved_cell() {
        let committed = std::fs::read_to_string(repo_root().join("BENCH_comm.json")).unwrap();
        // Append a digit to the last cell of the third row.
        let mut lines: Vec<String> = committed.lines().map(String::from).collect();
        let at = lines
            .iter()
            .position(|l| l.contains("\"rows\": ["))
            .unwrap()
            + 3;
        let end = lines[at].rfind(']').unwrap();
        lines[at].insert(end, '7');
        let moved = moved_cells(&committed, &lines.join("\n"));
        assert_eq!(moved.len(), 1, "{moved:?}");
        assert!(
            moved[0].starts_with("results[2] reduction_vs_blocking: "),
            "{moved:?}"
        );
        assert_eq!(
            moved_cells(&committed, &committed.replace("\n      [", "\n[")),
            ["bytes differ but every value parses equal (layout only)"]
        );
    }

    #[test]
    fn stale_docs_names_the_edited_block() {
        let mut table = Table::new("t", "E99: a table", &[("n", Kind::Count)]);
        table.row([7u64.into()]);
        let doc = format!("# E99\n\n```\n{}```\n", table.render());
        let tables = [table];
        assert!(stale_docs(&doc, &tables).is_empty());
        assert_eq!(
            stale_docs(&doc.replace('7', "8"), &tables),
            ["EXPERIMENTS.md block \"== E99: a table ==\" differs from the harness output"]
        );
        assert_eq!(stale_docs("", &tables).len(), 1, "a missing block is stale");
    }

    #[test]
    fn gate_specs_cover_every_committed_artifact() {
        let root = repo_root();
        let mut missing = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.starts_with("BENCH_")
                && name.ends_with(".json")
                && !experiments::all().any(|e| e.artifact == Some(name.as_str()))
            {
                missing.push(name);
            }
        }
        assert!(
            missing.is_empty(),
            "BENCH artifacts with no gate entry: {missing:?}"
        );
    }
}
