//! Perf-regression gate: rerun the experiments behind every committed
//! `BENCH_*.json` and diff the fresh bytes against the committed
//! baseline.
//!
//! The simulation experiments (E14–E17, E19–E21) run on a deterministic
//! simulated clock, so their artifacts must match **byte-for-byte** —
//! any diff is a regression (or an intentional change that needs a new
//! committed baseline) and fails the gate. The host-kernel benchmark
//! (E18 → `BENCH_ntt.json`) measures wall-clock time and is inherently
//! noisy; for it the gate masks every numeric literal and compares only
//! the JSON *shape* (keys, rows, nesting), warning — never failing — on
//! value drift.
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

use std::path::PathBuf;
use std::process::Command;

use crate::experiments;
use crate::report::Table;

/// One gated artifact: which experiment regenerates it and whether its
/// bytes are deterministic.
pub struct GateSpec {
    /// Artifact name as committed at the repo root.
    pub file: &'static str,
    /// Harness experiment id that regenerates it.
    pub experiment: &'static str,
    /// Deterministic artifacts hard-fail on any byte diff; wall-clock
    /// ones only warn, and only when the masked shape diverges.
    pub deterministic: bool,
    runner: fn(bool) -> Table,
}

/// Every artifact the gate knows how to regenerate, in experiment order.
pub fn gate_specs() -> Vec<GateSpec> {
    vec![
        GateSpec {
            file: "BENCH_serve.json",
            experiment: "e14",
            deterministic: true,
            runner: experiments::e14_serving::run,
        },
        GateSpec {
            file: "BENCH_comm.json",
            experiment: "e15",
            deterministic: true,
            runner: experiments::e15_comm_overlap::run,
        },
        GateSpec {
            file: "BENCH_obs.json",
            experiment: "e16",
            deterministic: true,
            runner: experiments::e16_observability::run,
        },
        GateSpec {
            file: "BENCH_resilience.json",
            experiment: "e17",
            deterministic: true,
            runner: experiments::e17_resilience::run,
        },
        GateSpec {
            file: "BENCH_ntt.json",
            experiment: "e18",
            deterministic: false,
            runner: experiments::e18_vector_kernels::run,
        },
        GateSpec {
            file: "BENCH_pipeline.json",
            experiment: "e19",
            deterministic: true,
            runner: experiments::e19_pipeline::run,
        },
        GateSpec {
            file: "BENCH_streams.json",
            experiment: "e20",
            deterministic: true,
            runner: experiments::e20_streams::run,
        },
        GateSpec {
            file: "BENCH_slo.json",
            experiment: "e21",
            deterministic: true,
            runner: experiments::e21_slo::run,
        },
    ]
}

/// What the gate concluded about one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Fresh bytes match the committed baseline (byte-exact for
    /// deterministic artifacts, shape-exact for wall-clock ones).
    Pass,
    /// Wall-clock values drifted but the shape held — informational.
    Warn(String),
    /// A deterministic artifact diverged (or a noisy one changed shape).
    Fail(String),
    /// No committed baseline exists yet; nothing to compare against.
    Skip(String),
}

impl Outcome {
    fn label(&self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::Warn(_) => "warn",
            Outcome::Fail(_) => "FAIL",
            Outcome::Skip(_) => "skip",
        }
    }

    fn detail(&self) -> String {
        match self {
            Outcome::Pass => "bytes match committed baseline".into(),
            Outcome::Warn(d) | Outcome::Fail(d) | Outcome::Skip(d) => d.clone(),
        }
    }
}

/// One row of the gate report.
pub struct GateRow {
    /// Artifact name.
    pub file: &'static str,
    /// Experiment that regenerated it.
    pub experiment: &'static str,
    /// Mode the committed baseline was captured in (and the rerun used).
    pub quick: bool,
    /// Verdict.
    pub outcome: Outcome,
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

/// Parses the artifact's own `"quick"` field (defaults to full mode).
fn committed_quick(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    text.find("\"quick\":")
        .map(|i| text[i + 8..].trim_start().starts_with("true"))
        .unwrap_or(false)
}

/// Masks every numeric and boolean literal so wall-clock artifacts can be
/// compared structurally: `"p50_ns": 1234.5` and `"p50_ns": 987.0` both
/// become `"p50_ns": #`, and so do `"pass": true` and `"pass": false` —
/// a verdict derived from a timing is as noisy as the timing.
fn mask_numbers(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut in_string = false;
    let mut prev = ' ';
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if c == '"' && prev != '\\' {
                in_string = false;
            }
            prev = c;
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '0'..='9' | '-' if !prev.is_ascii_alphanumeric() => {
                while let Some(&n) = chars.peek() {
                    if n.is_ascii_digit() || n == '.' || n == 'e' || n == '-' || n == '+' {
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push('#');
            }
            't' | 'f' if !prev.is_ascii_alphanumeric() => {
                let rest = if c == 't' { "rue" } else { "alse" };
                let mut ahead = chars.clone();
                let is_literal = rest.chars().all(|r| ahead.next() == Some(r))
                    && !ahead.peek().is_some_and(char::is_ascii_alphanumeric);
                if is_literal {
                    chars = ahead;
                    out.push('#');
                } else {
                    out.push(c);
                }
            }
            _ => out.push(c),
        }
        prev = c;
    }
    out
}

/// 1-based line of the first byte where the two renderings diverge.
fn first_diff_line(a: &str, b: &str) -> usize {
    let mut line = 1;
    for (ca, cb) in a.chars().zip(b.chars()) {
        if ca != cb {
            return line;
        }
        if ca == '\n' {
            line += 1;
        }
    }
    line
}

/// Reruns one gated artifact and compares it against its baseline.
///
/// The experiment writes its JSON into the current directory; the gate
/// snapshots whatever was there before and restores it afterwards, so a
/// gate run never perturbs the working tree (a fresh artifact only
/// survives on disk when there was nothing to clobber).
pub fn run_one(spec: &GateSpec) -> GateRow {
    let Some(committed) = committed_bytes(spec.file) else {
        return GateRow {
            file: spec.file,
            experiment: spec.experiment,
            quick: false,
            outcome: Outcome::Skip("no committed baseline (run the experiment and commit)".into()),
        };
    };
    let quick = committed_quick(&committed);
    let preexisting = std::fs::read(spec.file).ok();

    let _ = (spec.runner)(quick);
    let fresh = std::fs::read(spec.file).ok();

    // Put the working directory back exactly as we found it.
    match &preexisting {
        Some(bytes) => {
            let _ = std::fs::write(spec.file, bytes);
        }
        None => {
            let _ = std::fs::remove_file(spec.file);
        }
    }

    let Some(fresh) = fresh else {
        return GateRow {
            file: spec.file,
            experiment: spec.experiment,
            quick,
            outcome: Outcome::Fail(format!("rerun produced no {}", spec.file)),
        };
    };

    let outcome = if fresh == committed {
        Outcome::Pass
    } else {
        let committed_text = String::from_utf8_lossy(&committed).into_owned();
        let fresh_text = String::from_utf8_lossy(&fresh).into_owned();
        if spec.deterministic {
            Outcome::Fail(format!(
                "bytes diverged at line {} (deterministic artifact)",
                first_diff_line(&committed_text, &fresh_text)
            ))
        } else if mask_numbers(&committed_text) == mask_numbers(&fresh_text) {
            Outcome::Warn("wall-clock values drifted; shape matches (noise-tolerated)".into())
        } else {
            Outcome::Fail(format!(
                "shape diverged at line {} (even with numeric values masked)",
                first_diff_line(&mask_numbers(&committed_text), &mask_numbers(&fresh_text))
            ))
        }
    };
    GateRow {
        file: spec.file,
        experiment: spec.experiment,
        quick,
        outcome,
    }
}

/// Runs the gate over `files` (all known artifacts when empty). Returns
/// the rendered report and whether the gate passed (no `Fail` rows).
pub fn run_gate(files: &[&str]) -> (Table, bool) {
    let specs = gate_specs();
    let selected: Vec<&GateSpec> = if files.is_empty() {
        specs.iter().collect()
    } else {
        specs
            .iter()
            .filter(|s| files.contains(&s.file) || files.contains(&s.experiment))
            .collect()
    };
    let mut table = Table::new(
        "Perf-regression gate: fresh reruns vs committed BENCH baselines",
        &["artifact", "experiment", "mode", "verdict", "detail"],
    );
    let mut ok = true;
    for spec in &selected {
        let row = run_one(spec);
        if matches!(row.outcome, Outcome::Fail(_)) {
            ok = false;
        }
        table.row(vec![
            row.file.into(),
            row.experiment.into(),
            if row.quick { "quick" } else { "full" }.into(),
            row.outcome.label().into(),
            row.outcome.detail(),
        ]);
    }
    if selected.is_empty() {
        table.note("no artifact matched the requested names");
        ok = false;
    }
    table.note("deterministic artifacts must match byte-for-byte; BENCH_ntt.json is wall-clock and only shape-checked");
    table.note(if ok { "gate: PASS" } else { "gate: FAIL" });
    (table, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_numbers_hides_values_but_keeps_shape() {
        let a = mask_numbers("{\"p50_ns\": 1234.5, \"rows\": [1, -2e9]}");
        let b = mask_numbers("{\"p50_ns\": 9.87, \"rows\": [42, 7]}");
        assert_eq!(a, b);
        assert_eq!(a, "{\"p50_ns\": #, \"rows\": [#, #]}");

        // A pass/fail verdict computed from a timing flips with it.
        let a = mask_numbers("{\"speedup\": 2.33, \"pass\": true, \"ok\":false}");
        let b = mask_numbers("{\"speedup\": 1.78, \"pass\": false, \"ok\":true}");
        assert_eq!(a, b);
        assert_eq!(a, "{\"speedup\": #, \"pass\": #, \"ok\":#}");
        // Only whole literals outside strings: keys, string values and
        // longer words are shape.
        let s = "{\"true\": \"false\", \"k\": truely, \"t\": xtrue}";
        assert_eq!(mask_numbers(s), s);
    }

    #[test]
    fn mask_numbers_leaves_strings_and_keys_alone() {
        let s = "{\"e21 v2\": \"x-9\", \"k3\": 5}";
        assert_eq!(
            mask_numbers(s),
            "{\"e21 v2\": \"x-9\", \"k3\": 5}".replace(": 5", ": #")
        );
    }

    #[test]
    fn committed_quick_parses_both_modes() {
        assert!(committed_quick(b"{\n  \"quick\": true,\n}"));
        assert!(!committed_quick(b"{\n  \"quick\": false,\n}"));
        assert!(!committed_quick(b"{}"));
    }

    #[test]
    fn first_diff_line_counts_newlines() {
        assert_eq!(first_diff_line("a\nb\nc", "a\nb\nd"), 3);
        assert_eq!(first_diff_line("same", "same"), 1);
    }

    #[test]
    fn gate_specs_cover_every_committed_artifact() {
        let specs = gate_specs();
        let root = repo_root();
        let mut missing = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.starts_with("BENCH_")
                && name.ends_with(".json")
                && !specs.iter().any(|s| s.file == name)
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
