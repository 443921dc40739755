//! **E3 — UniNTT vs the naive four-step multi-GPU baseline**: the
//! transpose-based implementation pays three all-to-alls and standalone
//! pack/twiddle kernels; UniNTT pays one fused all-to-all. The gap widens
//! as communication dominates, and at small sizes *both* lose to a single
//! GPU (the crossover the paper motivates).

use unintt_core::UniNttOptions;
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec};

use crate::experiments::{baseline_run, single_gpu_run, unintt_run};
use crate::report::{Kind, Table};

/// Runs E3 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 4;
    let cfg = presets::a100_nvlink(gpus);
    let fs = FieldSpec::bn254_fr();
    let sizes: &[u32] = if quick {
        &[16, 24]
    } else {
        &[14, 16, 18, 20, 22, 24, 26, 28]
    };

    let mut table = Table::new(
        "e3",
        format!("E3: UniNTT vs naive four-step on {gpus}×A100 (BN254-Fr)"),
        &[
            ("log2(N)", Kind::Label),
            ("1-GPU", Kind::Ns(0)),
            ("four-step-4", Kind::Ns(0)),
            ("UniNTT-4", Kind::Ns(0)),
            ("UniNTT gain", Kind::Num(2, "x")),
            ("multi-GPU worth it?", Kind::Label),
        ],
    );

    for &log_n in sizes {
        let (t1, _) = single_gpu_run::<Bn254Fr>(log_n, &cfg, fs);
        let (tb, _) = baseline_run::<Bn254Fr>(log_n, &cfg, fs);
        let (tu, _) = unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
        table.row([
            format!("2^{log_n}").into(),
            t1.into(),
            tb.into(),
            tu.into(),
            (tb / tu).into(),
            if tu < t1 { "yes" } else { "no (latency-bound)" }.into(),
        ]);
    }
    table.note("UniNTT gain = four-step time / UniNTT time (same GPU count)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unintt_always_beats_four_step() {
        let rendered = run(false).render();
        let mut rows = 0;
        for line in rendered
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("2^"))
        {
            rows += 1;
            let gain: f64 = line
                .split_whitespace()
                .rev()
                .find(|c| c.ends_with('x'))
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(gain > 1.0, "UniNTT must beat the baseline: {line}");
        }
        assert!(rows >= 8, "expected a full sweep, got {rows} rows");
    }

    #[test]
    fn crossover_exists() {
        // Small sizes should say "no", large sizes "yes".
        let rendered = run(false).render();
        let find = |prefix: &str| {
            rendered
                .lines()
                .map(str::trim)
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing row {prefix} in:\n{rendered}"))
                .to_string()
        };
        let first = find("2^14");
        let last = find("2^28");
        assert!(
            first.contains("no"),
            "2^14 should be latency-bound: {first}"
        );
        assert!(last.contains("yes"), "2^28 should profit: {last}");
    }
}
