//! EXPERIMENTS.md holds the paper's result blocks (E1–E9, E11–E13) as
//! the harness prints them. This test renders the same tables in full
//! mode and fails on any block that drifted; the fix is to re-paste the
//! output of `harness <experiment>` and reread the verdict under it.
//! (`harness perf-gate` checks the blocks of E14–E21 the same way.)

use unintt_bench::docs::stale_blocks;
use unintt_bench::experiments::EXPERIMENTS;

#[test]
fn experiments_md_blocks_match_the_paper_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md at the repo root");
    let mut stale = Vec::new();
    for e in EXPERIMENTS.iter().filter(|e| e.artifact.is_none()) {
        for text in stale_blocks(&doc, &(e.tables)(false)) {
            stale.push(format!("{}:\n{text}", e.name));
        }
    }
    assert!(
        stale.is_empty(),
        "{} EXPERIMENTS.md block(s) differ from the harness; expected:\n{}",
        stale.len(),
        stale.join("\n")
    );
}
