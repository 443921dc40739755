//! **E4 — communication volume**: bytes injected into the inter-GPU
//! fabric per transform. UniNTT's single fused all-to-all moves `(G−1)/G`
//! of the data once; the four-step baseline moves it three times.
//!
//! Bytes are counted at link injection, so the totals are identical
//! under the blocking and overlapped exchange schedules — the pipeline
//! (E15) changes *when* chunks cross the fabric, never how many bytes
//! do. E15 runs the two schedules side by side.

use unintt_core::UniNttOptions;
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec};

use crate::experiments::{baseline_run, unintt_run};
use crate::report::{Kind, Table};

/// Runs E4 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 8;
    let cfg = presets::a100_nvlink(gpus);
    let fs = FieldSpec::bn254_fr();
    let sizes: &[u32] = if quick {
        &[20, 24]
    } else {
        &[20, 22, 24, 26, 28]
    };

    let mut table = Table::new(
        "e4",
        format!("E4: inter-GPU traffic per forward NTT ({gpus}×A100, BN254-Fr)"),
        &[
            ("log2(N)", Kind::Label),
            ("data size", Kind::Bytes),
            ("UniNTT bytes", Kind::Bytes),
            ("four-step bytes", Kind::Bytes),
            ("ratio", Kind::Num(2, "x")),
        ],
    );

    for &log_n in sizes {
        let total_bytes = (1u64 << log_n) * fs.elem_bytes as u64;
        let (_, su) = unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
        let (_, sb) = baseline_run::<Bn254Fr>(log_n, &cfg, fs);
        table.row([
            format!("2^{log_n}").into(),
            total_bytes.into(),
            su.interconnect_bytes_sent.into(),
            sb.interconnect_bytes_sent.into(),
            (sb.interconnect_bytes_sent as f64 / su.interconnect_bytes_sent as f64).into(),
        ]);
    }
    table.note("bytes summed over all devices; UniNTT sends (G-1)/G of the data exactly once");
    table.note(
        "volumes are schedule-invariant: blocking and overlapped modes inject the same bytes",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::unintt_run;

    #[test]
    fn unintt_sends_exactly_one_exchange() {
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::bn254_fr();
        let log_n = 24;
        let (_, stats) = unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
        // Each device egresses shard_bytes * 7/8; eight devices.
        let shard_bytes = (1u64 << (log_n - 3)) * 32;
        assert_eq!(stats.interconnect_bytes_sent, 8 * shard_bytes * 7 / 8);
    }

    #[test]
    fn baseline_sends_three_times_as_much() {
        let table = run(true);
        let rendered = table.render();
        let mut rows = 0;
        for line in rendered
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("2^"))
        {
            rows += 1;
            let ratio: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!((2.9..3.1).contains(&ratio), "expected ~3x, got {line}");
        }
        assert!(rows >= 2, "expected data rows");
    }
}
