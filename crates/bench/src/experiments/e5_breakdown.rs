//! **E5 — per-hierarchy-level time breakdown**: where a UniNTT forward
//! transform's work lives, mapped onto the four hierarchy levels
//! (warp / block / device / multi-GPU).
//!
//! Uses the *raw* (overlap-ignoring) component times: a GPU overlaps its
//! shuffle, shared-memory and DRAM pipelines, so bottleneck-attributed time
//! would show 0% for any level that never dominates — true, but it hides
//! the workload structure the figure is meant to show.

use unintt_core::UniNttOptions;
use unintt_ff::{Bn254Fr, Goldilocks};
use unintt_gpu_sim::{presets, FieldSpec, Level};

use crate::experiments::unintt_run;
use crate::report::{Cell, Kind, Table};

/// Runs E5 and renders the table.
pub fn run(quick: bool) -> Table {
    let sizes: &[u32] = if quick { &[24] } else { &[20, 24, 28] };
    let gpus = 8;
    let cfg = presets::a100_nvlink(gpus);

    let share = Kind::Num(1, "%");
    let mut table = Table::new(
        "e5",
        format!("E5: work breakdown by hierarchy level (UniNTT, {gpus}×A100, raw component time)"),
        &[
            ("field", Kind::Label),
            ("log2(N)", Kind::Label),
            ("warp", share),
            ("block", share),
            ("device", share),
            ("multi-GPU", share),
        ],
    );

    for &(fs, name) in &[
        (FieldSpec::goldilocks(), "Goldilocks"),
        (FieldSpec::bn254_fr(), "BN254-Fr"),
    ] {
        for &log_n in sizes {
            let opts = UniNttOptions::tuned_for(&fs);
            let stats = if name == "Goldilocks" {
                unintt_run::<Goldilocks>(log_n, &cfg, opts, fs, 1).1
            } else {
                unintt_run::<Bn254Fr>(log_n, &cfg, opts, fs, 1).1
            };
            let by_level = stats.raw_time_ns.by_level();
            let total: f64 = by_level.iter().map(|(_, t)| t).sum();
            let pct = |lvl: Level| -> Cell {
                let t = by_level
                    .iter()
                    .find(|(l, _)| *l == lvl)
                    .map(|(_, t)| *t)
                    .unwrap_or(0.0);
                (100.0 * t / total).into()
            };
            table.row([
                name.into(),
                format!("2^{log_n}").into(),
                pct(Level::Warp),
                pct(Level::Block),
                pct(Level::Device),
                pct(Level::MultiGpu),
            ]);
        }
    }
    table.note("raw per-pipeline time; pipelines overlap, so rows describe work, not makespan");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interconnect_is_major_for_cheap_fields() {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(8);
        let (_, stats) = unintt_run::<Goldilocks>(24, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
        let by_level = stats.raw_time_ns.by_level();
        let total: f64 = by_level.iter().map(|(_, t)| t).sum();
        let multi = by_level
            .iter()
            .find(|(l, _)| *l == Level::MultiGpu)
            .unwrap()
            .1;
        assert!(
            multi / total > 0.2,
            "interconnect should be a major cost for Goldilocks: {:.1}%",
            100.0 * multi / total
        );
    }

    #[test]
    fn every_level_contributes() {
        let fs = FieldSpec::bn254_fr();
        let cfg = presets::a100_nvlink(8);
        let (_, stats) = unintt_run::<Bn254Fr>(24, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
        for (level, t) in stats.raw_time_ns.by_level() {
            assert!(t > 0.0, "level {level} should have nonzero raw work");
        }
    }

    #[test]
    fn percentages_sum_to_hundred() {
        let rendered = run(true).render();
        let mut rows = 0;
        for line in rendered.lines().map(str::trim) {
            if !(line.starts_with("Goldilocks") || line.starts_with("BN254")) {
                continue;
            }
            rows += 1;
            let sum: f64 = line
                .split_whitespace()
                .filter(|c| c.ends_with('%'))
                .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
                .sum();
            assert!((sum - 100.0).abs() < 0.5, "{line}");
        }
        assert!(rows >= 2, "expected data rows in:\n{rendered}");
    }
}
