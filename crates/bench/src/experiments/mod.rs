//! The reconstructed evaluation suite: one module per table/figure.
//!
//! Every experiment prints the rows the paper's corresponding table or
//! figure would contain (see `DESIGN.md` for the experiment index E1–E10
//! and `EXPERIMENTS.md` for a captured run with commentary). Experiments
//! E1–E7 and E9 drive the cost-only simulation paths (whose lock-step
//! equivalence with the functional paths is enforced by tests in
//! `unintt-core`); E8 runs the full functional prover.

pub mod e11_stark_commit;
pub mod e12_multi_node;
pub mod e13_fault_tolerance;
pub mod e14_serving;
pub mod e15_comm_overlap;
pub mod e16_observability;
pub mod e17_resilience;
pub mod e19_pipeline;
pub mod e1_headline;
pub mod e20_streams;
pub mod e21_slo;
pub mod e2_scaling;
pub mod e3_vs_baseline;
pub mod e4_comm_volume;
pub mod e5_breakdown;
pub mod e6_ablation;
pub mod e7_topology;
pub mod e8_end_to_end;
pub mod e9_batching;

use unintt_core::{single_gpu, FourStepMultiGpuEngine, UniNttEngine, UniNttOptions};
use unintt_ff::TwoAdicField;
use unintt_gpu_sim::{FieldSpec, Machine, MachineConfig, Stats};

use crate::report::Table;

/// Simulated forward-NTT time and stats for UniNTT with the given options.
pub fn unintt_run<F: TwoAdicField>(
    log_n: u32,
    cfg: &MachineConfig,
    opts: UniNttOptions,
    fs: FieldSpec,
    batch: u64,
) -> (f64, Stats) {
    let engine = UniNttEngine::<F>::new(log_n, cfg, opts, fs);
    let mut machine = Machine::new(cfg.clone(), fs);
    engine.simulate_forward(&mut machine, batch);
    (machine.max_clock_ns(), machine.stats())
}

/// Simulated forward-NTT time on a single GPU of the same model
/// (the strong baseline).
pub fn single_gpu_run<F: TwoAdicField>(
    log_n: u32,
    cfg: &MachineConfig,
    fs: FieldSpec,
) -> (f64, Stats) {
    let engine = single_gpu::engine::<F>(log_n, cfg, fs);
    let mut machine = single_gpu::machine(cfg, fs);
    engine.simulate_forward(&mut machine, 1);
    (machine.max_clock_ns(), machine.stats())
}

/// Simulated forward-NTT time for the naive four-step multi-GPU baseline.
pub fn baseline_run<F: TwoAdicField>(
    log_n: u32,
    cfg: &MachineConfig,
    fs: FieldSpec,
) -> (f64, Stats) {
    let engine = FourStepMultiGpuEngine::<F>::new(log_n, cfg, fs);
    let mut machine = Machine::new(cfg.clone(), fs);
    engine.simulate_forward(&mut machine, 1);
    (machine.max_clock_ns(), machine.stats())
}

/// Runs every experiment and returns the rendered tables in order.
///
/// `quick` trims the sweeps (smaller sizes, fewer points) so the whole
/// suite finishes in seconds; the full mode is what `EXPERIMENTS.md`
/// records.
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        e1_headline::run(quick),
        e2_scaling::run(quick),
        e3_vs_baseline::run(quick),
        e4_comm_volume::run(quick),
        e5_breakdown::run(quick),
        e6_ablation::run(quick),
        e7_topology::run(quick),
        e8_end_to_end::run(quick),
        e9_batching::run(quick),
        e11_stark_commit::run(quick),
        e12_multi_node::run(quick),
        e13_fault_tolerance::run(quick),
        e14_serving::run(quick),
        e15_comm_overlap::run(quick),
        e16_observability::run(quick),
        e17_resilience::run(quick),
        e19_pipeline::run(quick),
        e21_slo::run(quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_produces_rows() {
        for table in run_all(true) {
            assert!(!table.is_empty(), "{}", table.render());
        }
    }
}
