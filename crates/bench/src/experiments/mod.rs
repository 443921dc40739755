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

/// What builds an experiment's tables; `quick` trims the sweeps.
pub type Tables = fn(bool) -> Vec<Table>;

/// One harness experiment: its name, what builds its tables, and the
/// artifact they are written to.
pub struct Experiment {
    /// Harness name (`e1`, `paper`, …); also the artifact's `"bench"`.
    pub name: &'static str,
    /// Builds the tables.
    pub tables: Tables,
    /// The artifact's file name, committed at the repo root; `None`:
    /// stdout only.
    pub artifact: Option<&'static str>,
}

const fn exp(name: &'static str, tables: Tables, artifact: Option<&'static str>) -> Experiment {
    Experiment {
        name,
        tables,
        artifact,
    }
}

impl Experiment {
    /// Runs the experiment, writes its artifact (if it has one) and
    /// returns its tables.
    pub fn run(&self, quick: bool) -> Vec<Table> {
        let mut tables = (self.tables)(quick);
        if let Some(file) = self.artifact {
            crate::artifacts::write_bench(&mut tables, file, self.name, quick);
        }
        tables
    }
}

/// Every experiment, in order: the one list the harness's names, `all`
/// and `perf-gate` read. The stdout-only entries are the paper's tables,
/// which the `paper` entry writes as one artifact.
pub static EXPERIMENTS: &[Experiment] = &[
    exp("e1", |q| vec![e1_headline::run(q)], None),
    exp("e2", |q| vec![e2_scaling::run(q)], None),
    exp("e3", |q| vec![e3_vs_baseline::run(q)], None),
    exp("e4", |q| vec![e4_comm_volume::run(q)], None),
    exp("e5", |q| vec![e5_breakdown::run(q)], None),
    exp("e6", |q| vec![e6_ablation::run(q)], None),
    exp("e7", |q| vec![e7_topology::run(q)], None),
    exp("e8", |q| vec![e8_end_to_end::run(q)], None),
    exp("e9", |q| vec![e9_batching::run(q)], None),
    exp("e11", |q| vec![e11_stark_commit::run(q)], None),
    exp("e12", |q| vec![e12_multi_node::run(q)], None),
    exp("e13", |q| vec![e13_fault_tolerance::run(q)], None),
    exp("paper", paper, Some("BENCH_paper.json")),
    exp("e14", e14_serving::run, Some("BENCH_serve.json")),
    exp("e15", e15_comm_overlap::run, Some("BENCH_comm.json")),
    exp("e16", e16_observability::run, Some("BENCH_obs.json")),
    exp("e17", e17_resilience::run, Some("BENCH_resilience.json")),
    exp("e19", e19_pipeline::run, Some("BENCH_pipeline.json")),
    exp("e20", e20_streams::run, Some("BENCH_streams.json")),
    exp("e21", e21_slo::run, Some("BENCH_slo.json")),
];

/// What `harness all` runs and `perf-gate` checks: every experiment with
/// an artifact (`paper` stands for E1–E13).
pub fn all() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.artifact.is_some())
}

/// The paper's tables, E1–E9 and E11–E13, in order.
fn paper(quick: bool) -> Vec<Table> {
    EXPERIMENTS
        .iter()
        .filter(|e| e.artifact.is_none())
        .flat_map(|e| (e.tables)(quick))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_runs_and_produces_rows() {
        let mut tables = Vec::new();
        for e in all() {
            let run = e.run(true);
            for table in &run {
                assert!(!table.is_empty(), "{}", table.render());
            }
            // Two tables with one name would collapse into one JSON member.
            let artifact = crate::artifacts::json(e.name, true, &run);
            match unintt_telemetry::parse_json(&artifact) {
                Ok(unintt_telemetry::JsonValue::Object(members)) => {
                    assert_eq!(
                        members.len(),
                        run.len() + 2,
                        "{} repeats a table name",
                        e.name
                    )
                }
                other => panic!("{} renders no JSON object: {other:?}", e.name),
            }
            tables.extend(run);
        }
        // `all` covers every entry: each experiment's title appears.
        for e in EXPERIMENTS.iter().filter(|e| e.name != "paper") {
            let prefix = format!("== {}:", e.name.to_uppercase());
            assert!(
                tables.iter().any(|t| t.render().starts_with(&prefix)),
                "harness all skips {}",
                e.name
            );
        }
    }
}
