//! **E15 — communication–compute overlap**: the chunked, software-
//! pipelined multi-GPU exchange against the legacy blocking schedule,
//! swept over fabric topology and pipeline depth.
//!
//! The exchange-adjacent kernels (the final fused local pass on the
//! producing side, the outer stage on the consuming side) are sliced per
//! chunk and interleaved with the chunk transfers, so wire time hides
//! behind compute. Outputs are bit-identical in both modes — only the
//! simulated clock moves. Three numbers tell the story per row:
//!
//! * **raw comm** — the overlap-blind interconnect charge (identical
//!   across modes: same bytes, same fabric);
//! * **hidden** — how much of it the pipeline buried under compute;
//! * **Δ vs blocking** — the end-to-end simulated-time reduction.
//!
//! Everything is charged to the simulated clock, so two runs produce
//! byte-identical output — including the machine-readable
//! `BENCH_comm.json` written next to the process.

use std::fmt::Write as _;

use unintt_core::{CommMode, UniNttOptions};
use unintt_ff::Goldilocks;
use unintt_gpu_sim::{presets, FieldSpec, MachineConfig};

use crate::experiments::unintt_run;
use crate::report::{fmt_ns, Table};

/// Where the machine-readable results land.
pub const JSON_PATH: &str = "BENCH_comm.json";

/// One measured configuration.
struct Cell {
    topology: &'static str,
    mode: &'static str,
    /// Pipeline depth; `0` means the planner's automatic pick.
    chunks: u32,
    time_ns: f64,
    raw_comm_ns: f64,
    exposed_comm_ns: f64,
    hidden_comm_ns: f64,
    /// `1 - time/time_blocking` against the same-topology blocking row.
    reduction_vs_blocking: f64,
}

impl Cell {
    /// Fraction of the raw interconnect charge hidden behind compute.
    fn overlap_efficiency(&self) -> f64 {
        if self.raw_comm_ns <= 0.0 {
            0.0
        } else {
            self.hidden_comm_ns / self.raw_comm_ns
        }
    }
}

/// The swept fabrics: one per `Topology` arm the paper's table covers.
fn topologies() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("NVSwitch crossbar (8x A100)", presets::a100_nvlink(8)),
        ("NVLink ring (8x V100)", presets::v100_nvlink_ring(8)),
        ("SuperPOD 2x4 (hierarchical)", presets::a100_superpod(2, 4)),
    ]
}

fn measure(
    topology: &'static str,
    cfg: &MachineConfig,
    log_n: u32,
    mode: CommMode,
    chunks: u32,
    blocking_ns: f64,
) -> Cell {
    let fs = FieldSpec::goldilocks();
    let mut opts = UniNttOptions::tuned_for(&fs);
    opts.comm_mode = mode;
    opts.comm_chunks = chunks;
    let (time_ns, stats) = unintt_run::<Goldilocks>(log_n, cfg, opts, fs, 1);
    Cell {
        topology,
        mode: match mode {
            CommMode::Blocking => "blocking",
            CommMode::Overlapped => "overlapped",
        },
        chunks,
        time_ns,
        raw_comm_ns: stats.raw_time_ns.interconnect,
        exposed_comm_ns: stats.time_ns.interconnect,
        hidden_comm_ns: stats.comm_hidden_ns,
        reduction_vs_blocking: if blocking_ns > 0.0 {
            1.0 - time_ns / blocking_ns
        } else {
            0.0
        },
    }
}

fn chunk_sweep(quick: bool) -> Vec<u32> {
    if quick {
        vec![1, 0]
    } else {
        vec![1, 2, 4, 8, 0]
    }
}

fn render_json(cells: &[Cell], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"comm-overlap\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"topology\": \"{}\", \"mode\": \"{}\", \"chunks\": {}, \
             \"time_ns\": {:.0}, \"raw_comm_ns\": {:.0}, \"exposed_comm_ns\": {:.0}, \
             \"hidden_comm_ns\": {:.0}, \"overlap_efficiency\": {:.4}, \
             \"reduction_vs_blocking\": {:.4}}}",
            c.topology,
            c.mode,
            c.chunks,
            c.time_ns,
            c.raw_comm_ns,
            c.exposed_comm_ns,
            c.hidden_comm_ns,
            c.overlap_efficiency(),
            // Zero out sub-display-precision deltas (a C=1 pipeline can
            // land a float ulp off the blocking clock) so the JSON never
            // renders a negative zero.
            if c.reduction_vs_blocking.abs() < 0.00005 {
                0.0
            } else {
                c.reduction_vs_blocking
            },
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs E15 and renders the table (also writes [`JSON_PATH`]).
pub fn run(quick: bool) -> Table {
    let log_n = if quick { 22 } else { 24 };
    let mut table = Table::new(
        format!("E15: communication-compute overlap (UniNTT, 2^{log_n} Goldilocks, 8 GPUs)"),
        &[
            "topology",
            "mode",
            "chunks",
            "time",
            "comm(raw)",
            "exposed",
            "hidden",
            "hid%",
            "dT vs blk",
        ],
    );

    let mut cells = Vec::new();
    for (name, cfg) in topologies() {
        let blocking = measure(name, &cfg, log_n, CommMode::Blocking, 0, 0.0);
        let blocking_ns = blocking.time_ns;
        cells.push(blocking);
        for chunks in chunk_sweep(quick) {
            cells.push(measure(
                name,
                &cfg,
                log_n,
                CommMode::Overlapped,
                chunks,
                blocking_ns,
            ));
        }
    }

    for c in &cells {
        table.row(vec![
            c.topology.into(),
            c.mode.into(),
            if c.mode == "blocking" {
                "-".into()
            } else if c.chunks == 0 {
                "auto".into()
            } else {
                c.chunks.to_string()
            },
            fmt_ns(c.time_ns),
            fmt_ns(c.raw_comm_ns),
            fmt_ns(c.exposed_comm_ns),
            fmt_ns(c.hidden_comm_ns),
            format!("{:.0}%", 100.0 * c.overlap_efficiency()),
            if c.mode == "blocking" {
                "-".into()
            } else {
                let delta = -100.0 * c.reduction_vs_blocking;
                format!("{:+.1}%", if delta.abs() < 0.05 { 0.0 } else { delta })
            },
        ]);
    }

    table.note("same bytes cross the fabric in every row; only the schedule changes");
    table.note("chunks=auto lets the planner size the pipeline from the exchange volume");
    let json = render_json(&cells, quick);
    crate::artifacts::write_bench(&mut table, JSON_PATH, quick, &json);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_hits_the_target_reduction_at_headline_scale() {
        // The issue's acceptance gate: >= 25% simulated-time reduction at
        // 2^24 / 8 GPUs with the planner-picked pipeline depth.
        let cfg = presets::a100_nvlink(8);
        let blocking = measure("t", &cfg, 24, CommMode::Blocking, 0, 0.0);
        let overlapped = measure("t", &cfg, 24, CommMode::Overlapped, 0, blocking.time_ns);
        assert!(
            overlapped.reduction_vs_blocking >= 0.25,
            "overlap must cut >=25% of simulated time: got {:.1}% (blk {} ovl {})",
            100.0 * overlapped.reduction_vs_blocking,
            blocking.time_ns,
            overlapped.time_ns
        );
        assert!(overlapped.hidden_comm_ns > 0.0);
        assert_eq!(
            overlapped.raw_comm_ns, blocking.raw_comm_ns,
            "same fabric charge in both modes"
        );
    }

    #[test]
    fn every_topology_benefits_from_overlap() {
        for (name, cfg) in topologies() {
            let blocking = measure(name, &cfg, 22, CommMode::Blocking, 0, 0.0);
            let overlapped = measure(name, &cfg, 22, CommMode::Overlapped, 0, blocking.time_ns);
            assert!(
                overlapped.time_ns < blocking.time_ns,
                "{name}: overlap must not be slower"
            );
        }
    }

    #[test]
    fn outputs_bit_identical_across_modes() {
        use rand::{rngs::StdRng, SeedableRng};
        use unintt_core::{ShardLayout, Sharded, UniNttEngine};
        use unintt_ff::Field;
        use unintt_gpu_sim::Machine;

        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(8);
        let mut rng = StdRng::seed_from_u64(0xe15);
        let input: Vec<Goldilocks> = (0..1 << 12).map(|_| Goldilocks::random(&mut rng)).collect();
        let mut outputs = Vec::new();
        for mode in [CommMode::Blocking, CommMode::Overlapped] {
            let mut opts = UniNttOptions::tuned_for(&fs);
            opts.comm_mode = mode;
            let engine = UniNttEngine::<Goldilocks>::new(12, &cfg, opts, fs);
            let mut machine = Machine::new(cfg.clone(), fs);
            let mut data = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
            engine.forward(&mut machine, &mut data);
            outputs.push(data.collect());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "schedule must not change the result"
        );
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let run_once = || {
            let cfg = presets::a100_nvlink(8);
            let b = measure("t", &cfg, 20, CommMode::Blocking, 0, 0.0);
            let bns = b.time_ns;
            let o = measure("t", &cfg, 20, CommMode::Overlapped, 0, bns);
            render_json(&[b, o], true)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "identical runs must render byte-identical JSON");
        assert!(a.starts_with("{\n") && a.ends_with("}\n"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
