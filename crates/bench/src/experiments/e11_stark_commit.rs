//! **E11 — STARK trace commitment (Goldilocks)**: the hash-based pipeline
//! (LDE → Merkle → FRI) on one simulated GPU vs eight. This is the
//! transparent-setup counterpart of E8: the workload whose NTT phase is
//! over the 64-bit field, where the interconnect matters most.

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Field, Goldilocks};
use unintt_fri::{commit_trace, projected_commit_time, verify_trace, FriConfig, LdeBackend};
use unintt_gpu_sim::presets;

use crate::report::{Kind, Table};

/// Runs E11 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 8;
    let config = FriConfig::standard();
    let sizes: &[usize] = if quick {
        &[1 << 10]
    } else {
        &[1 << 10, 1 << 12, 1 << 14]
    };
    let width = 8; // trace columns

    let mut table = Table::new(
        "e11",
        format!("E11: STARK trace commitment, {width} columns (Goldilocks, blowup 4)"),
        &[
            ("rows", Kind::Label),
            ("mode", Kind::Label),
            ("1-GPU", Kind::Ns(0)),
            ("UniNTT-8", Kind::Ns(0)),
            ("speedup", Kind::Num(2, "x")),
            ("verified", Kind::Label),
        ],
    );

    let mut rng = StdRng::seed_from_u64(11);
    for &n in sizes {
        let trace: Vec<Vec<Goldilocks>> = (0..width)
            .map(|_| (0..n).map(|_| Goldilocks::random(&mut rng)).collect())
            .collect();

        let mut one = LdeBackend::simulated(presets::a100_nvlink(1));
        let c1 = commit_trace(&trace, &config, &mut one);
        let t1 = one.sim_time().as_ns();

        let mut eight = LdeBackend::simulated(presets::a100_nvlink(gpus));
        let c8 = commit_trace(&trace, &config, &mut eight);
        let t8 = eight.sim_time().as_ns();

        assert_eq!(c1.trace_root, c8.trace_root, "backends must agree");
        let ok = verify_trace(&c8, &config);

        table.row([
            format!("2^{}", n.trailing_zeros()).into(),
            "functional".into(),
            t1.into(),
            t8.into(),
            (t1 / t8).into(),
            if ok { "yes" } else { "NO" }.into(),
        ]);
    }

    // Production-scale traces, cost-only.
    let projected_sizes: &[u32] = if quick { &[20] } else { &[18, 20, 22, 24] };
    for &log_rows in projected_sizes {
        let projected = |gpus| {
            projected_commit_time(log_rows, width, presets::a100_nvlink(gpus), &config).as_ns()
        };
        let (t1, t8) = (projected(1), projected(gpus));
        table.row([
            format!("2^{log_rows}").into(),
            "projected".into(),
            t1.into(),
            t8.into(),
            (t1 / t8).into(),
            "-".into(),
        ]);
    }
    table.note("functional rows: identical commitments on both machine shapes, all verified");
    table.note("projected rows: same charge sequence through the cost-only paths");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_verify() {
        let rendered = run(true).render();
        assert!(rendered.contains("yes"));
        assert!(!rendered.contains("NO"));
    }
}
