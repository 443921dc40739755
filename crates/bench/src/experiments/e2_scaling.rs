//! **E2 — strong scaling**: speedup and parallel efficiency of UniNTT as
//! the GPU count grows from 1 to 8 at fixed transform sizes.

use unintt_core::UniNttOptions;
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec};

use crate::experiments::{single_gpu_run, unintt_run};
use crate::report::{Kind, Table};

/// Runs E2 and renders the table.
pub fn run(quick: bool) -> Table {
    let sizes: &[u32] = if quick { &[24] } else { &[22, 24, 26] };
    let fs = FieldSpec::bn254_fr();

    let mut table = Table::new(
        "e2",
        "E2: strong scaling of UniNTT (BN254-Fr, A100 NVSwitch)",
        &[
            ("log2(N)", Kind::Label),
            ("GPUs", Kind::Count),
            ("time", Kind::Ns(0)),
            ("speedup", Kind::Num(2, "x")),
            ("efficiency", Kind::Num(0, "%")),
        ],
    );

    for &log_n in sizes {
        let base_cfg = presets::a100_nvlink(8);
        let (t1, _) = single_gpu_run::<Bn254Fr>(log_n, &base_cfg, fs);
        for gpus in [1usize, 2, 4, 8] {
            let cfg = presets::a100_nvlink(gpus);
            let (t, _) = unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
            let speedup = t1 / t;
            table.row([
                format!("2^{log_n}").into(),
                gpus.into(),
                t.into(),
                speedup.into(),
                (100.0 * speedup / gpus as f64).into(),
            ]);
        }
    }
    table.note("speedup relative to the 1-GPU configuration of the same size");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_monotone_in_gpu_count_at_large_n() {
        // Parse the 2^24 block and check monotone speedups.
        let rendered = run(true).render();
        let times: Vec<f64> = rendered
            .lines()
            .filter(|l| l.contains("2^24"))
            .map(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                // speedup column like "3.10x"
                cells[cells.len() - 2]
                    .trim_end_matches('x')
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(times.len(), 4);
        for w in times.windows(2) {
            assert!(w[1] >= w[0] * 0.95, "scaling should not regress: {times:?}");
        }
    }
}
