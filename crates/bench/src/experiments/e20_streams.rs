//! **E20 — intra-lease stream overlap**: the E19 workload served a
//! third way. E19 established that dispatching proofs as stage DAGs
//! beats monolithic leasing; this experiment adds per-lease compute
//! queues ([`ServiceConfig::streams_per_lease`]) so a compute-bound MSM
//! stage and a memory-bound NTT stage co-reside on one lease, both
//! advancing under the interference-model slowdown instead of
//! serializing.
//!
//! Every load level runs the *identical* seeded stream (shared with E19
//! via [`super::e19_pipeline::stream`]) three ways — monolithic, DAG
//! with one queue (the E19 schedule), and DAG with two queues — and
//! asserts every job's output digest matches across all three. The
//! highest load additionally sweeps queue count 1–4 under both bundled
//! interference models ([`InterferenceModel::default_model`] and the
//! deliberately pessimistic [`InterferenceModel::conservative`]),
//! digest-checked cell by cell: co-scheduling moves simulated clocks
//! only, never data.
//!
//! The headline claim, asserted on every full (non-`--quick`) run: at
//! the highest offered load, two queues per lease finish the same work
//! in a horizon at least 15% shorter than the one-queue DAG baseline.
//!
//! Everything is seeded and charged to the simulated clock, so two runs
//! produce byte-identical output — including the machine-readable
//! `BENCH_streams.json` written next to the process.

use unintt_serve::{InterferenceModel, ProofService, ServiceConfig, ServiceReport};

use super::e19_pipeline::{grid, proofs, proofs_per_s, stream};
use crate::report::{Kind, Table};

/// The horizon-reduction floor the full-mode run asserts at the highest
/// load: two queues must shave at least this fraction off the one-queue
/// DAG horizon.
const HEADLINE_MIN_REDUCTION: f64 = 0.15;

/// One measured service run (one load level, one scheduling mode).
struct Cell {
    load_jobs_per_s: f64,
    mode: Mode,
    report: ServiceReport,
}

/// How one cell schedules the stream.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Whole proofs hold one lease each (the E19 baseline's baseline).
    Monolithic,
    /// Stage DAGs, one queue per lease — exactly E19's DAG cells.
    Dag,
    /// Stage DAGs over `k` queues per lease under `model`.
    Streams { k: usize, model: ModelChoice },
}

/// Which bundled interference model a streamed cell runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ModelChoice {
    Default,
    Conservative,
}

impl ModelChoice {
    fn model(self) -> InterferenceModel {
        match self {
            ModelChoice::Default => InterferenceModel::default_model(),
            ModelChoice::Conservative => InterferenceModel::conservative(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ModelChoice::Default => "default",
            ModelChoice::Conservative => "conservative",
        }
    }
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Monolithic => "monolithic",
            Mode::Dag => "dag",
            Mode::Streams { .. } => "dag+streams",
        }
    }

    fn streams(self) -> usize {
        match self {
            Mode::Monolithic | Mode::Dag => 1,
            Mode::Streams { k, .. } => k,
        }
    }

    fn interference(self) -> &'static str {
        match self {
            Mode::Monolithic | Mode::Dag => "-",
            Mode::Streams { model, .. } => model.name(),
        }
    }
}

/// Runs one scheduling mode over the seeded stream for `load`.
fn run_cell(load: f64, jobs: usize, mode: Mode) -> Cell {
    let mut stream = stream(load, jobs);
    if mode != Mode::Monolithic {
        for spec in &mut stream {
            spec.class = spec.class.pipelined();
        }
    }
    let cfg = match mode {
        Mode::Monolithic | Mode::Dag => ServiceConfig::default(),
        Mode::Streams { k, model } => ServiceConfig {
            streams_per_lease: k,
            interference: model.model(),
            ..ServiceConfig::default()
        },
    };
    let mut service = ProofService::new(cfg);
    service.submit_all(stream);
    let report = service.run();
    assert!(
        report.all_completed(),
        "E20 runs under capacity-512 admission: nothing should be shed or failed"
    );
    Cell {
        load_jobs_per_s: load,
        mode,
        report,
    }
}

/// Asserts two cells over the same stream produced bit-identical
/// outputs job for job.
fn assert_bit_identical(reference: &Cell, other: &Cell) {
    assert_eq!(reference.report.outcomes.len(), other.report.outcomes.len());
    for (r, o) in reference.report.outcomes.iter().zip(&other.report.outcomes) {
        assert_eq!(r.id, o.id);
        assert!(r.output_digest != 0, "{} must digest its output", r.id);
        assert_eq!(
            r.output_digest, o.output_digest,
            "{} ({:?} vs {:?}): stream overlap must not change a single output bit",
            r.id, reference.mode, other.mode,
        );
    }
}

/// The results table: one row per cell.
fn results(cells: &[Cell]) -> Table {
    Table::of(
        "results",
        "E20: intra-lease stream overlap under mixed load (2 leases of 2 nodes x 2 A100)",
        cells,
        &[
            ("load_jobs_per_s", Kind::Num(0, ""), |c| {
                c.load_jobs_per_s.into()
            }),
            ("mode", Kind::Label, |c| c.mode.name().into()),
            ("streams", Kind::Count, |c| c.mode.streams().into()),
            ("interference", Kind::Label, |c| {
                c.mode.interference().into()
            }),
            ("completed", Kind::Count, |c| {
                c.report.metrics.completed().into()
            }),
            ("proofs", Kind::Count, |c| proofs(&c.report).into()),
            ("horizon_ns", Kind::Ns(0), |c| {
                c.report.metrics.horizon_ns.into()
            }),
            ("throughput_jobs_per_s", Kind::Num(1, ""), |c| {
                c.report.metrics.throughput_jobs_per_s().into()
            }),
            ("proofs_per_s", Kind::Num(2, ""), |c| {
                proofs_per_s(&c.report).into()
            }),
            ("occupancy", Kind::Num(4, ""), |c| {
                c.report.metrics.mean_occupancy().into()
            }),
            ("raw_p95_ns", Kind::Ns(0), |c| {
                c.report.metrics.classes["raw-ntt"].latency.p95_ns.into()
            }),
        ],
    )
}

/// Runs E20 and returns its table.
pub fn run(quick: bool) -> Vec<Table> {
    let (loads, jobs) = grid(quick);

    // Three-way per load: monolithic / DAG (one queue) / DAG + two
    // queues, digest-checked against each other.
    let mut cells = Vec::new();
    let mut headline = (0.0, 0.0);
    for &load in &loads {
        let mono = run_cell(load, jobs, Mode::Monolithic);
        let dag = run_cell(load, jobs, Mode::Dag);
        let streamed = run_cell(
            load,
            jobs,
            Mode::Streams {
                k: 2,
                model: ModelChoice::Default,
            },
        );
        assert_bit_identical(&mono, &dag);
        assert_bit_identical(&mono, &streamed);
        let dag_horizon = dag.report.metrics.horizon_ns;
        headline = (dag_horizon, streamed.report.metrics.horizon_ns);
        cells.extend([mono, dag, streamed]);
    }

    // Queue-count x interference-model sweep at the highest load; every
    // cell digest-checked against the monolithic reference.
    let high = *loads.last().expect("grid has loads");
    let reference = run_cell(high, jobs, Mode::Monolithic);
    for model in [ModelChoice::Default, ModelChoice::Conservative] {
        for k in 1..=4 {
            if k == 2 && model == ModelChoice::Default {
                continue; // already measured in the three-way pass
            }
            let cell = run_cell(high, jobs, Mode::Streams { k, model });
            assert_bit_identical(&reference, &cell);
            cells.push(cell);
        }
    }

    // The headline claim: at the highest load, two queues per lease cut
    // the end-to-end horizon by >= 15% versus the one-queue DAG
    // baseline. Quick mode's trimmed stream is too short to saturate
    // the queues, so the gate applies to full runs.
    let (dag_ns, streamed_ns) = headline;
    let reduction = 1.0 - streamed_ns / dag_ns;
    assert!(
        quick || reduction >= HEADLINE_MIN_REDUCTION,
        "two queues must cut the high-load horizon by >= {:.0}%: \
         dag {:.0} ns vs streamed {:.0} ns ({:.1}%)",
        100.0 * HEADLINE_MIN_REDUCTION,
        dag_ns,
        streamed_ns,
        100.0 * reduction,
    );

    let mut table = results(&cells);
    table.note(format!(
        "high-load horizon reduction with k=2 (default model): {:.1}%",
        100.0 * reduction
    ));
    table.note("same seeded stream per load as E19; dag rows replicate that experiment");
    table.note("every cell's output digests match the monolithic reference (asserted)");
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_cells_match_monolithic_digests() {
        let mono = run_cell(20_000.0, 12, Mode::Monolithic);
        for k in [2, 3] {
            let streamed = run_cell(
                20_000.0,
                12,
                Mode::Streams {
                    k,
                    model: ModelChoice::Conservative,
                },
            );
            assert_bit_identical(&mono, &streamed);
        }
    }

    #[test]
    fn one_queue_streams_cell_replicates_the_dag_cell() {
        let dag = run_cell(20_000.0, 12, Mode::Dag);
        let one = run_cell(
            20_000.0,
            12,
            Mode::Streams {
                k: 1,
                model: ModelChoice::Default,
            },
        );
        // Both cells are the one-queue schedule under the default model,
        // so the clocks — not just the digests — must match exactly.
        assert_eq!(dag.report.outcomes, one.report.outcomes);
        assert_eq!(dag.report.stage_ns, one.report.stage_ns);
    }

    #[test]
    fn overlap_shortens_the_high_load_horizon() {
        let dag = run_cell(80_000.0, 24, Mode::Dag);
        let streamed = run_cell(
            80_000.0,
            24,
            Mode::Streams {
                k: 2,
                model: ModelChoice::Default,
            },
        );
        assert_bit_identical(&dag, &streamed);
        assert!(
            streamed.report.metrics.horizon_ns < dag.report.metrics.horizon_ns,
            "co-scheduling must shorten the horizon: {} vs {}",
            streamed.report.metrics.horizon_ns,
            dag.report.metrics.horizon_ns
        );
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let run_once = || {
            let mono = run_cell(5_000.0, 12, Mode::Monolithic);
            let streamed = run_cell(
                5_000.0,
                12,
                Mode::Streams {
                    k: 2,
                    model: ModelChoice::Default,
                },
            );
            crate::artifacts::json("t", true, &[results(&[mono, streamed])])
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        unintt_telemetry::parse_json(&a).expect("well-formed JSON");
    }
}
