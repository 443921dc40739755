//! **E1 — headline speedup**: UniNTT on 8 GPUs vs the strong single-GPU
//! NTT, across transform sizes and fields. The paper's abstract reports an
//! average 4.26× here; the headline statistic (PAPER.md) is the geometric
//! mean of the sweep's speedups.

use unintt_core::UniNttOptions;
use unintt_ff::{Bn254Fr, Goldilocks};
use unintt_gpu_sim::{presets, FieldSpec};

use crate::experiments::{single_gpu_run, unintt_run};
use crate::report::{Kind, Table};

/// Runs E1 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 8;
    let cfg = presets::a100_nvlink(gpus);
    let sizes: &[u32] = if quick {
        &[20, 24]
    } else {
        &[20, 21, 22, 23, 24, 25, 26, 27, 28]
    };

    let mut table = Table::new(
        "e1",
        format!("E1: UniNTT speedup on {gpus}×A100 (NVSwitch) vs 1×A100"),
        &[
            ("field", Kind::Label),
            ("log2(N)", Kind::Label),
            ("1-GPU", Kind::Ns(0)),
            ("UniNTT-8", Kind::Ns(0)),
            ("speedup", Kind::Num(2, "x")),
        ],
    );

    let mut speedups = Vec::new();
    let mut large_speedups = Vec::new();
    for &(fs, name) in &[
        (FieldSpec::goldilocks(), "Goldilocks"),
        (FieldSpec::bn254_fr(), "BN254-Fr"),
    ] {
        for &log_n in sizes {
            let (t1, t8) = if name == "Goldilocks" {
                (
                    single_gpu_run::<Goldilocks>(log_n, &cfg, fs).0,
                    unintt_run::<Goldilocks>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1).0,
                )
            } else {
                (
                    single_gpu_run::<Bn254Fr>(log_n, &cfg, fs).0,
                    unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1).0,
                )
            };
            let speedup = t1 / t8;
            speedups.push(speedup);
            if log_n >= 22 {
                large_speedups.push(speedup);
            }
            table.row([
                name.into(),
                format!("2^{log_n}").into(),
                t1.into(),
                t8.into(),
                speedup.into(),
            ]);
        }
    }
    let (all, large) = (geometric_mean(&speedups), geometric_mean(&large_speedups));
    table.note(format!(
        "geometric-mean speedup {all:.2}x over the full sweep; {large:.2}x at N >= 2^22 \
         (paper abstract: 4.26x average)"
    ));
    table
}

/// `exp(mean(ln x))`: the headline statistic, as `sim.engine_speedup_x`
/// computes it.
fn geometric_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_speedup_in_paper_ballpark() {
        let table = run(false);
        let rendered = table.render();
        // Extract the headline from the note.
        let headline: f64 = rendered
            .split("geometric-mean speedup ")
            .nth(1)
            .and_then(|s| s.split('x').next())
            .and_then(|s| s.parse().ok())
            .expect("note must contain the geometric-mean speedup");
        assert!(
            (2.5..8.0).contains(&headline),
            "geometric-mean speedup {headline} far from the paper's 4.26x"
        );
    }
}
