//! Where harness artifacts land, and the one function that writes an
//! experiment's `BENCH_*.json`.
//!
//! An artifact renders the experiment's [`Table`]s — the cells its
//! stdout prints — as `bench`, `quick`, then one member per table
//! ([`json`]), so the gate and the text output cannot disagree.
//!
//! A full run writes its artifact in the working directory: run from the
//! repo root, these are the committed baselines the perf gate
//! byte-compares. A quick run writes the same file under `target/quick/`,
//! so a smoke run never overwrites a committed full-mode capture. Bulky
//! trace captures — Chrome/Perfetto JSON, folded stacks — route to a
//! dedicated trace directory, `target/traces/` by default, overridable
//! with `harness --trace-dir <path>`. Keeping them out of the repo root
//! means a tracing run never litters the tree with untracked artifacts.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::report::Table;

static TRACE_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Overrides the trace directory (first call wins; the harness calls
/// this once while parsing `--trace-dir`).
pub fn set_trace_dir(dir: impl Into<PathBuf>) {
    let _ = TRACE_DIR.set(dir.into());
}

/// The active trace directory (`target/traces` unless overridden).
pub fn trace_dir() -> PathBuf {
    TRACE_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| PathBuf::from("target/traces"))
}

/// Resolves `file` inside the trace directory, creating the directory
/// on first use.
pub fn trace_path(file: &str) -> PathBuf {
    let dir = trace_dir();
    let _ = std::fs::create_dir_all(&dir);
    dir.join(file)
}

/// Where an experiment's `BENCH_*.json` named `file` lands: the working
/// directory for a full run, `target/quick/` (created on first use) for a
/// quick one.
pub fn bench_path(file: &str, quick: bool) -> PathBuf {
    if !quick {
        return PathBuf::from(file);
    }
    let dir = Path::new("target/quick");
    let _ = std::fs::create_dir_all(dir);
    dir.join(file)
}

/// Renders an artifact: `bench`, `quick`, then each table as a member
/// keyed by its name.
pub fn json(bench: &str, quick: bool, tables: &[Table]) -> String {
    let mut members = vec![
        format!("  \"bench\": {bench:?}"),
        format!("  \"quick\": {quick}"),
    ];
    members.extend(tables.iter().map(Table::json));
    format!("{{\n{}\n}}\n", members.join(",\n"))
}

/// Writes `tables` as the artifact `file` at [`bench_path`]`(file, quick)`
/// and notes on the last table where it went.
pub fn write_bench(tables: &mut [Table], file: &str, bench: &str, quick: bool) {
    let body = json(bench, quick, tables);
    let path = bench_path(file, quick);
    let last = tables.last_mut().expect("an artifact has a table");
    write(last, &path, &body, "machine-readable results");
}

/// Writes `body` to `path` and notes on `table` where the `what` went, or
/// why it could not be written. The note is not part of the table's JSON.
pub fn write(table: &mut Table, path: &Path, body: &str, what: &str) {
    table.note_written(match std::fs::write(path, body) {
        Ok(()) => format!("{what} written to {}", path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_target_traces() {
        // The override is process-global, so only assert the default
        // when no other test has set it.
        if TRACE_DIR.get().is_none() {
            assert_eq!(trace_dir(), PathBuf::from("target/traces"));
        }
        assert!(trace_path("x.json").ends_with("x.json"));
    }

    #[test]
    fn quick_captures_stay_out_of_the_working_directory() {
        assert_eq!(
            bench_path("BENCH_x.json", false),
            PathBuf::from("BENCH_x.json")
        );
        assert_eq!(
            bench_path("BENCH_x.json", true),
            PathBuf::from("target/quick/BENCH_x.json")
        );
    }
}
