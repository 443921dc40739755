//! **E6 — optimization ablation**: slowdown from flipping each uniform
//! optimization (O1–O5) away from the cost-model-tuned configuration, and
//! from disabling everything.
//!
//! Note O2 is a *choice* (regenerate twiddles in registers vs stream
//! tables): the tuned configuration already picks the cheaper side for the
//! field, so the ablation flips to the wrong side.

use unintt_core::UniNttOptions;
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec};

use crate::experiments::unintt_run;
use crate::report::{Kind, Table};

/// The tuned configuration with exactly one optimization flipped.
fn flipped(base: UniNttOptions, which: u32) -> UniNttOptions {
    let mut o = base;
    match which {
        1 => o.fuse_twiddle = !o.fuse_twiddle,
        2 => o.twiddle_on_the_fly = !o.twiddle_on_the_fly,
        3 => o.padded_layout = !o.padded_layout,
        4 => o.fuse_exchange = !o.fuse_exchange,
        5 => o.batching = !o.batching,
        _ => unreachable!(),
    }
    o
}

/// Runs E6 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 8;
    let cfg = presets::a100_nvlink(gpus);
    let fs = FieldSpec::bn254_fr();
    let log_n = if quick { 20 } else { 24 };
    // O5 (batching) only shows up with a real batch.
    let batch = 8;
    let tuned = UniNttOptions::tuned_for(&fs);

    let mut table = Table::new(
        "e6",
        format!(
            "E6: optimization ablation (UniNTT, 2^{log_n} BN254-Fr, batch {batch}, {gpus}×A100)"
        ),
        &[
            ("configuration", Kind::Label),
            ("time", Kind::Ns(0)),
            ("slowdown", Kind::Num(2, "x")),
        ],
    );

    let (t_tuned, _) = unintt_run::<Bn254Fr>(log_n, &cfg, tuned, fs, batch);
    table.row(["tuned (O1-O5)".into(), t_tuned.into(), 1.0.into()]);

    for which in 1..=5u32 {
        let (t, _) = unintt_run::<Bn254Fr>(log_n, &cfg, flipped(tuned, which), fs, batch);
        table.row([
            UniNttOptions::ablation_label(which).into(),
            t.into(),
            (t / t_tuned).into(),
        ]);
    }

    let (t_none, _) = unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::none(), fs, batch);
    table.row([
        "none (all off)".into(),
        t_none.into(),
        (t_none / t_tuned).into(),
    ]);
    table.note("slowdown relative to the cost-model-tuned configuration");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slowdowns(rendered: &str) -> Vec<(String, f64)> {
        rendered
            .lines()
            .map(str::trim)
            .filter(|l| l.ends_with('x') && !l.is_empty())
            .map(|l| {
                let s: f64 = l
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .trim_end_matches('x')
                    .parse()
                    .unwrap();
                (l.to_string(), s)
            })
            .collect()
    }

    #[test]
    fn every_ablation_slows_down() {
        let all = slowdowns(&run(true).render());
        assert!(all.len() >= 7, "expected 7 config rows");
        for (line, s) in &all {
            assert!(
                *s >= 1.0 - 1e-9,
                "flipping a tuned optimization must not speed things up: {line}"
            );
        }
    }

    #[test]
    fn none_is_worst() {
        let all = slowdowns(&run(true).render());
        let none = all.last().unwrap().1;
        assert!(
            all.iter().all(|(_, s)| *s <= none + 1e-9),
            "all-off should be the slowest: {all:?}"
        );
    }
}
