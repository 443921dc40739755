//! Every metric the benchmark prints: name, unit, which way is better.
//!
//! This table is the binary's side of `BENCHMARK.json`; a test asserts the
//! two declare exactly the same names, units and directions. With
//! `--trace 0` a run prints every end-to-end metric, with `--trace 1`
//! every per-layer metric, whatever the workload.

/// Which direction counts as an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decl {
    /// Name, `[A-Za-z0-9][A-Za-z0-9_.-]*`.
    pub name: &'static str,
    /// Unit. `sim_*` units are simulated time, everything else is host.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, per workload, tracing off.
pub const END_TO_END: [Decl; 3] = [
    // 10th percentile of per-op wall time over the run.
    lo("op_ms_p10", "ms"),
    // p10 — with five samples, the fastest — of the cold set-ups of the
    // workload: this process's own and four child processes, spread over
    // the run.
    lo("setup_s", "s"),
    // `VmHWM` of the process after the timed ops.
    lo("peak_rss_mb", "MiB"),
];

/// Single-layer numbers from the traced run. Wall probes are the p10 of
/// their repeats; counts and `sim_*` values are exact per seed.
pub const PER_LAYER: [Decl; 101] = [
    // ff
    lo("ff.goldilocks_mul_ns", "ns"),
    lo("ff.babybear_mul_ns", "ns"),
    lo("ff.bn254fr_mul_ns", "ns"),
    lo("ff.bn254fq_mul_ns", "ns"),
    lo("ff.batch_inverse_ns_per_elem", "ns"),
    // ntt
    lo("ntt.gold_2p22_fwd_ms", "ms"),
    lo("ntt.gold_2p22_inv_ms", "ms"),
    lo("ntt.bb_2p22_fwd_ms", "ms"),
    lo("ntt.gold_2p12x1024_ms", "ms"),
    lo("ntt.gold_2p16x64_ms", "ms"),
    lo("ntt.bb_2p12x1024_ms", "ms"),
    lo("ntt.bn254_2p11_fwd_ms", "ms"),
    lo("ntt.lde_2p11x8_ms", "ms"),
    lo("ntt.bitrev_2p20_ms", "ms"),
    lo("ntt.transpose_2048_ms", "ms"),
    lo("ntt.twiddle_build_2p22_ms", "ms"),
    lo("ntt.gold_2p22_ns_per_butterfly", "ns"),
    lo("ntt.gold_2p22_computed_bytes", "bytes"),
    // exec
    lo("exec.fork_join_us", "us"),
    hi("exec.ntt_batch_scaling_x", "ratio"),
    hi("exec.serve_raw_scaling_x", "ratio"),
    // msm
    lo("msm.parallel_2p9_ms", "ms"),
    lo("msm.serial_2p9_ms", "ms"),
    lo("msm.group_ops_2p9", "count"),
    lo("msm.ns_per_group_op", "ns"),
    lo("msm.g1_add_ns", "ns"),
    lo("msm.g1_double_ns", "ns"),
    // zkp
    lo("zkp.stage_msm_ms", "ms"),
    lo("zkp.stage_ntt_ms", "ms"),
    lo("zkp.stage_pointwise_ms", "ms"),
    lo("zkp.stage_barrier_ms", "ms"),
    lo("zkp.staged_total_ms", "ms"),
    lo("zkp.mono_prove_ms", "ms"),
    lo("zkp.staged_over_mono_x", "ratio"),
    lo("zkp.verify_ms", "ms"),
    lo("zkp.setup_ms", "ms"),
    // fri
    lo("fri.hash_elements8_ns", "ns"),
    lo("fri.compress_ns", "ns"),
    lo("fri.merkle_commit_2p13x8_ms", "ms"),
    lo("fri.hash_permutations", "count"),
    lo("fri.stage_trace_coset_ms", "ms"),
    lo("fri.stage_trace_merkle_ms", "ms"),
    lo("fri.stage_alpha_combine_ms", "ms"),
    lo("fri.stage_fri_finalize_ms", "ms"),
    lo("fri.staged_total_ms", "ms"),
    lo("fri.mono_commit_ms", "ms"),
    lo("fri.staged_over_mono_x", "ratio"),
    lo("fri.verify_ms", "ms"),
    // gpu-sim
    lo("gpu-sim.sim_compute_ns", "sim_ns"),
    lo("gpu-sim.sim_globalmem_ns", "sim_ns"),
    lo("gpu-sim.sim_interconnect_ns", "sim_ns"),
    hi("gpu-sim.comm_hidden_ns", "sim_ns"),
    lo("gpu-sim.global_bytes", "bytes"),
    lo("gpu-sim.interconnect_bytes", "bytes"),
    lo("gpu-sim.kernels_launched", "count"),
    lo("gpu-sim.collectives", "count"),
    lo("gpu-sim.field_muls", "count"),
    lo("gpu-sim.simulate_sweep_us", "us"),
    // core
    lo("core.unintt_fwd_2p18_ms", "ms"),
    lo("core.fourstep_fwd_2p18_ms", "ms"),
    lo("core.cluster_fwd_2p10_us", "us"),
    lo("core.sim_overhead_x", "ratio"),
    lo("core.plan_build_us", "us"),
    // pipeline
    lo("pipeline.dag_run_ms", "ms"),
    lo("pipeline.sim_makespan_us", "sim_us"),
    hi("pipeline.sim_occupancy", "ratio"),
    lo("pipeline.stages_run", "count"),
    // serve
    lo("serve.raw_us_per_job", "us"),
    lo("serve.self_share", "ratio"),
    lo("serve.generate_us", "us"),
    lo("serve.submit_us", "us"),
    lo("serve.dispatches", "count"),
    hi("serve.mean_batch_size", "count"),
    hi("serve.mean_occupancy", "ratio"),
    lo("serve.peak_queue_depth", "count"),
    lo("serve.retries", "count"),
    lo("serve.shed", "count"),
    lo("serve.fleet_failovers", "count"),
    lo("serve.fleet_hedges", "count"),
    lo("serve.fleet_quarantines", "count"),
    lo("serve.fleet_probes", "count"),
    lo("serve.stage_share_msm", "ratio"),
    lo("serve.stage_share_ntt", "ratio"),
    // telemetry
    lo("telemetry.enabled_overhead_x", "ratio"),
    lo("telemetry.spans_per_op", "count"),
    lo("telemetry.export_ms", "ms"),
    lo("telemetry.hist_record_ns", "ns"),
    // bench: the harness itself, for the workload the run names
    lo("bench.op_ms_p50", "ms"),
    lo("bench.op_ms_p90", "ms"),
    hi("bench.samples", "count"),
    lo("bench.calib_ms_p10", "ms"),
    lo("bench.calib_ms_p50", "ms"),
    lo("bench.trace_overhead_x", "ratio"),
    // sim: the simulated clock, exact per seed. Any change that only
    // speeds up the simulator must leave these identical.
    lo("sim.serve_raw_horizon_us", "sim_us"),
    lo("sim.serve_raw_latency_p95_us", "sim_us"),
    lo("sim.serve_proofs_horizon_us", "sim_us"),
    lo("sim.serve_proofs_latency_p95_us", "sim_us"),
    lo("sim.fleet_chaos_horizon_us", "sim_us"),
    lo("sim.fleet_chaos_latency_p95_us", "sim_us"),
    lo("sim.engine_horizon_us", "sim_us"),
    hi("sim.engine_speedup_x", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_json_rules() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for w in crate::workloads::NAMES {
            assert!(name_ok(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "{w} used twice");
        }
    }

    /// `BENCHMARK.json` and this table declare the same metrics — names,
    /// units and directions, in the same order — and the same workloads.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        use unintt_telemetry::{parse_json, JsonValue};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let field =
            |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_str).expect(k).to_string();
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
                .collect()
        };
        let ours = |decls: &[Decl]| -> Vec<(String, String, String)> {
            decls
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
