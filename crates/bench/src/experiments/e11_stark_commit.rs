//! **E11 — STARK trace commitment (Goldilocks)**: the hash-based pipeline
//! (LDE → Merkle → FRI) on one simulated GPU vs eight. This is the
//! transparent-setup counterpart of E8: the workload whose NTT phase is
//! over the 64-bit field, where the interconnect matters most.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{UniNttEngine, UniNttOptions};
use unintt_ff::{Field, Goldilocks};
use unintt_fri::{commit_trace, fri, permutations_for, verify_trace, FriConfig, LdeBackend};
use unintt_gpu_sim::{presets, FieldSpec, KernelProfile, Machine, MachineConfig};

use crate::report::{Kind, Table};

/// Projected commitment time for a `2^log_rows × width` trace: the same
/// charge sequence `commit_trace` performs, through the cost-only paths.
fn projected(log_rows: u32, width: usize, cfg: &MachineConfig, config: &FriConfig) -> f64 {
    let fs = FieldSpec::goldilocks();
    let opts = {
        let mut o = UniNttOptions::tuned_for(&fs);
        o.natural_output = true;
        o
    };
    let mut machine = Machine::new(cfg.clone(), fs);
    let big_log = log_rows + config.log_blowup;
    let big_n = 1u64 << big_log;

    // LDE per column: iNTT(n) + coset NTT(n·blowup).
    let small = UniNttEngine::<Goldilocks>::new(log_rows, cfg, opts, fs);
    let big = UniNttEngine::<Goldilocks>::new(big_log, cfg, opts, fs);
    small.simulate_inverse(&mut machine, width as u64);
    big.simulate_coset_forward(&mut machine, width as u64);

    // Hashing + combination + FRI folds, as sharded kernels.
    let devices = machine.num_devices() as u64;
    let charge = |machine: &mut Machine, perms: u64| {
        let mut p = KernelProfile::named("sponge-hash");
        p.blocks = (perms / 32).max(1);
        p.field_muls = perms * 616 / devices;
        p.global_bytes_read = perms * 64 / devices;
        p.global_bytes_written = perms * 32 / devices;
        let mut dummy: Vec<()> = vec![(); devices as usize];
        machine.parallel_phase(&mut dummy, |ctx, _, _| {
            ctx.launch(&p);
        });
    };
    charge(&mut machine, big_n * permutations_for(width) + big_n - 1);
    charge(
        &mut machine,
        fri::prove_hash_permutations(config, big_n as usize),
    );
    machine.max_clock_ns()
}

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
    let one_cfg = presets::a100_nvlink(1);
    let eight_cfg = presets::a100_nvlink(gpus);
    for &log_rows in projected_sizes {
        let t1 = projected(log_rows, width, &one_cfg, &config);
        let t8 = projected(log_rows, width, &eight_cfg, &config);
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
