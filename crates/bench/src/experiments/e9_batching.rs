//! **E9 — batch NTT throughput**: transforms per second as the batch size
//! grows, with the O5 batching optimization on and off. Batching shares
//! kernel launches and coalesces the all-to-alls, so throughput climbs
//! until bandwidth saturates.

use unintt_core::UniNttOptions;
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec};

use crate::experiments::unintt_run;
use crate::report::{Kind, Table};

/// Runs E9 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 8;
    let cfg = presets::a100_nvlink(gpus);
    let fs = FieldSpec::bn254_fr();
    let log_n = if quick { 16 } else { 20 };
    let batches: &[u64] = if quick {
        &[1, 8, 32]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };

    let mut table = Table::new(
        "e9",
        format!("E9: batch NTT throughput (2^{log_n} BN254-Fr, {gpus}×A100)"),
        &[
            ("batch", Kind::Count),
            ("batched (O5 on)", Kind::Num(0, " NTT/s")),
            ("unbatched", Kind::Num(0, " NTT/s")),
            ("O5 gain", Kind::Num(2, "x")),
        ],
    );

    let tuned = UniNttOptions::tuned_for(&fs);
    let mut unbatched = tuned;
    unbatched.batching = false;

    let throughput = |t_ns: f64, b: u64| b as f64 / (t_ns / 1e9);
    for &b in batches {
        let (t_on, _) = unintt_run::<Bn254Fr>(log_n, &cfg, tuned, fs, b);
        let (t_off, _) = unintt_run::<Bn254Fr>(log_n, &cfg, unbatched, fs, b);
        table.row([
            b.into(),
            throughput(t_on, b).into(),
            throughput(t_off, b).into(),
            (t_off / t_on).into(),
        ]);
    }
    table.note("throughput = batch / simulated makespan of the whole batch");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_gain_grows_with_batch_size() {
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::bn254_fr();
        let tuned = UniNttOptions::tuned_for(&fs);
        let mut unbatched = tuned;
        unbatched.batching = false;
        let (t1_on, _) = unintt_run::<Bn254Fr>(16, &cfg, tuned, fs, 1);
        let (t32_on, _) = unintt_run::<Bn254Fr>(16, &cfg, tuned, fs, 32);
        let (t32_off, _) = unintt_run::<Bn254Fr>(16, &cfg, unbatched, fs, 32);
        // Batched 32 should be far cheaper than 32 separate transforms.
        assert!(
            t32_on < 0.5 * t32_off,
            "batching should help: on={t32_on} off={t32_off}"
        );
        // And throughput at batch 32 beats batch 1.
        assert!(32.0 / t32_on > 1.5 * (1.0 / t1_on));
    }

    #[test]
    fn batch_one_identical_either_way() {
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::bn254_fr();
        let tuned = UniNttOptions::tuned_for(&fs);
        let mut unbatched = tuned;
        unbatched.batching = false;
        let (on, _) = unintt_run::<Bn254Fr>(16, &cfg, tuned, fs, 1);
        let (off, _) = unintt_run::<Bn254Fr>(16, &cfg, unbatched, fs, 1);
        assert!((on - off).abs() < 1e-6 * on);
    }
}
