//! **E16 — observability**: the unified telemetry layer exercised end to
//! end, with its books balanced against the cost model.
//!
//! Three reference workloads run under one telemetry session and land in
//! one Chrome/Perfetto trace (`trace.json`, namespaced tracks) plus a
//! folded-stack file for flamegraphs:
//!
//! * **e1/** — the E1 headline shape (UniNTT on one 8×A100 node), with
//!   every retained per-device timeline event exported as a device span
//!   under the engine's phase spans;
//! * **e12/** — the E12 multi-node shape (2 nodes over IB 400G), cluster
//!   phases over per-node fabric phases over device spans;
//! * **serve/** — a small mixed proving-service stream: job lifecycle
//!   spans (queued → execute), lease dispatch spans, coalescer-flush and
//!   lease-repair instants;
//! * **streams/** — the same stream with proofs submitted as stage DAGs
//!   over two compute queues per lease, so the per-queue span tracks
//!   (`lease{l}.q{q}`) show MSM/NTT stages co-resident on one lease.
//!
//! The headline check is **reconciliation**: for every device track the
//! sum of exported span durations must equal the cost model's
//! bottleneck-attributed total (`Stats::time_ns.total()`) to within
//! float-summation rounding — and for the streamed serving section, the
//! per-queue stage spans must sum to the service report's own per-kind
//! stage attribution (`ServiceReport::stage_ns`). A trace that disagrees
//! with the numbers the benchmarks report would be worse than no trace
//! at all.

use std::fmt::Write as _;

use unintt_core::{Cluster, ClusterNttEngine, NetworkConfig, UniNttEngine, UniNttOptions};
use unintt_ff::{Bn254Fr, Goldilocks};
use unintt_gpu_sim::{presets, FieldSpec, Machine};
use unintt_serve::{
    JobSpec, ProofService, ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec,
};
use unintt_telemetry::{self as telemetry, AttrValue, InstantKind, Registry, Session, SpanLevel};

use crate::report::Table;

/// The machine-readable results' file name (committed, byte-compared;
/// placed by [`crate::artifacts::bench_path`], unlike the trace captures).
pub const JSON_PATH: &str = "BENCH_obs.json";
/// The merged Chrome/Perfetto trace's file name, resolved inside
/// [`crate::artifacts::trace_dir`].
pub const TRACE_FILE: &str = "trace.json";
/// Folded stacks for `flamegraph.pl`-style tooling, same directory.
pub const FOLDED_FILE: &str = "trace.folded";

/// Spans must account for the stats total to within float-summation
/// rounding (the two sides add the same numbers in different orders).
const RECON_REL_TOL: f64 = 1e-9;

/// One device track's reconciliation row: the sum of its telemetry span
/// durations against the cost model's bottleneck-attributed total.
pub struct ReconRow {
    /// Device track name (before section prefixing).
    pub track: String,
    /// Σ duration over the track's exported device spans, ns.
    pub span_ns: f64,
    /// `Stats::time_ns.total()` for the same device, ns.
    pub stats_ns: f64,
}

impl ReconRow {
    /// Relative disagreement between the two accountings.
    pub fn rel_err(&self) -> f64 {
        if self.stats_ns <= 0.0 {
            return if self.span_ns.abs() <= f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            };
        }
        ((self.span_ns - self.stats_ns) / self.stats_ns).abs()
    }
}

/// One trace section plus its reconciliation evidence.
pub struct SectionReport {
    /// Section name, also the track prefix (sans `/`).
    pub name: &'static str,
    /// Spans contributed to the merged trace.
    pub spans: usize,
    /// Instant events contributed.
    pub instants: usize,
    /// Per-device reconciliation rows (empty for the serve section, whose
    /// spans live on the service clock rather than a device clock).
    pub recon: Vec<ReconRow>,
}

/// Everything E16 produces before any file is written.
pub struct Collected {
    /// The merged, track-prefixed telemetry session.
    pub session: Session,
    /// Per-section bookkeeping.
    pub sections: Vec<SectionReport>,
    /// Metrics registry accumulated over all three sections.
    pub registry: Registry,
    /// The same registry in Prometheus text exposition format.
    pub prometheus: String,
}

/// Sums exported device spans per track and pairs each with the cost
/// model's own total. Panics if any device timeline overflowed (a
/// truncated timeline cannot balance) or the books disagree.
fn reconcile_devices(session: &Session, machine: &Machine) -> Vec<ReconRow> {
    (0..machine.num_devices())
        .map(|d| {
            let track = machine.device_track(d);
            assert_eq!(
                machine.timeline(d).dropped(),
                0,
                "reconciliation requires a complete timeline on {track}"
            );
            let span_ns = session
                .spans
                .iter()
                .filter(|s| s.level == SpanLevel::Device && s.track == track)
                .map(|s| s.duration_ns())
                .sum();
            let row = ReconRow {
                track,
                span_ns,
                stats_ns: machine.device_stats(d).time_ns.total(),
            };
            assert!(
                row.rel_err() < RECON_REL_TOL,
                "telemetry drifted from the cost model on {}: spans {} ns vs stats {} ns",
                row.track,
                row.span_ns,
                row.stats_ns
            );
            row
        })
        .collect()
}

/// Sums the per-queue stage spans per stage kind and pairs each with the
/// service report's own attribution — the serving-layer analogue of
/// [`reconcile_devices`] (serve spans live on the service clock, so the
/// report's `stage_ns` books are the total they must balance against).
/// Panics if the books disagree.
fn reconcile_stages(session: &Session, report: &ServiceReport) -> Vec<ReconRow> {
    report
        .stage_ns
        .iter()
        .map(|(&kind, &stats_ns)| {
            let span_ns = session
                .spans
                .iter()
                .filter(|s| {
                    s.category == "stage"
                        && s.attrs
                            .iter()
                            .any(|(k, v)| *k == "kind" && *v == AttrValue::Str(kind))
                })
                .map(|s| s.duration_ns())
                .sum();
            let row = ReconRow {
                track: format!("stage:{kind}"),
                span_ns,
                stats_ns,
            };
            assert!(
                row.rel_err() < RECON_REL_TOL,
                "per-queue spans drifted from the stage attribution on {}: \
                 spans {} ns vs stage_ns {} ns",
                row.track,
                row.span_ns,
                row.stats_ns
            );
            row
        })
        .collect()
}

/// Runs the four reference workloads under one telemetry session and
/// returns the merged trace plus reconciliation evidence. Writes nothing.
pub fn collect(quick: bool) -> Collected {
    let guard = telemetry::start_session();
    let mut sections = Vec::new();
    let mut merged = Session::default();

    // Section e1/ — the headline single-node shape.
    {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(8);
        let log_n = if quick { 16 } else { 20 };
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg.clone(), fs);
        engine.simulate_forward(&mut machine, 1);
        machine.export_telemetry_spans();
        let mut session = telemetry::take_session();
        let recon = reconcile_devices(&session, &machine);
        session.prefix_tracks("e1/");
        sections.push(SectionReport {
            name: "e1",
            spans: session.spans.len(),
            instants: session.instants.len(),
            recon,
        });
        merged.merge(session);
    }

    // Section e12/ — the multi-node shape over the datacenter network.
    {
        let fs = FieldSpec::bn254_fr();
        let nodes = 2;
        let node_cfg = presets::a100_nvlink(4);
        let log_n = if quick { 14 } else { 18 };
        let engine = ClusterNttEngine::<Bn254Fr>::new(
            log_n,
            nodes,
            &node_cfg,
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let mut cluster = Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
        engine.simulate_forward(&mut cluster);
        for n in 0..cluster.num_nodes() {
            cluster.node(n).export_telemetry_spans();
        }
        let mut session = telemetry::take_session();
        let mut recon = Vec::new();
        for n in 0..cluster.num_nodes() {
            recon.extend(reconcile_devices(&session, cluster.node(n)));
        }
        session.prefix_tracks("e12/");
        sections.push(SectionReport {
            name: "e12",
            spans: session.spans.len(),
            instants: session.instants.len(),
            recon,
        });
        merged.merge(session);
    }

    // Section serve/ — a small mixed proving-service stream.
    {
        let jobs = if quick { 12 } else { 32 };
        let spec = WorkloadSpec {
            mix: WorkloadMix::mixed(),
            ..WorkloadSpec::raw_only(0xe16, jobs, 20_000.0)
        };
        let mut service = ProofService::new(ServiceConfig::default());
        service.submit_all(spec.generate());
        let report = service.run();
        assert!(
            report.all_completed(),
            "the E16 stream runs well under default admission capacity"
        );
        let mut session = telemetry::take_session();
        // Lease clusters restart their simulated clocks at zero on every
        // dispatch, so their device/fabric/cluster spans do not share the
        // service clock; keep only the service-level story.
        session.spans.retain(|s| s.level == SpanLevel::Serve);
        session.instants.retain(|i| {
            matches!(
                i.kind,
                InstantKind::LeaseRepair | InstantKind::CoalescerFlush
            )
        });
        session.prefix_tracks("serve/");
        sections.push(SectionReport {
            name: "serve",
            spans: session.spans.len(),
            instants: session.instants.len(),
            recon: Vec::new(),
        });
        merged.merge(session);
    }

    // Section streams/ — the same stream with proofs submitted as stage
    // DAGs over two compute queues per lease. Stage spans ride
    // `lease{l}.q{q}` tracks and must sum, kind by kind, to the service
    // report's own stage attribution.
    {
        let jobs = if quick { 12 } else { 32 };
        let spec = WorkloadSpec {
            mix: WorkloadMix::mixed(),
            ..WorkloadSpec::raw_only(0xe16, jobs, 20_000.0)
        };
        let stream: Vec<JobSpec> = spec
            .generate()
            .into_iter()
            .map(|s| JobSpec {
                class: s.class.pipelined(),
                ..s
            })
            .collect();
        let mut service = ProofService::new(ServiceConfig {
            streams_per_lease: 2,
            ..ServiceConfig::default()
        });
        service.submit_all(stream);
        let report = service.run();
        assert!(
            report.all_completed(),
            "the E16 streamed section runs well under default admission capacity"
        );
        let mut session = telemetry::take_session();
        // Same clock rationale as serve/: keep the service-level story.
        session.spans.retain(|s| s.level == SpanLevel::Serve);
        session.instants.retain(|i| {
            matches!(
                i.kind,
                InstantKind::LeaseRepair | InstantKind::CoalescerFlush
            )
        });
        let recon = reconcile_stages(&session, &report);
        session.prefix_tracks("streams/");
        sections.push(SectionReport {
            name: "streams",
            spans: session.spans.len(),
            instants: session.instants.len(),
            recon,
        });
        merged.merge(session);
    }

    let registry = telemetry::registry_snapshot();
    let prometheus = telemetry::render_prometheus();
    drop(guard);
    Collected {
        session: merged,
        sections,
        registry,
        prometheus,
    }
}

fn render_json(collected: &Collected, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"observability\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"sections\": [\n");
    for (i, sec) in collected.sections.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"spans\": {}, \"instants\": {}, \"reconciliation\": [",
            sec.name, sec.spans, sec.instants
        );
        for (j, r) in sec.recon.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"track\": \"{}\", \"span_ns\": {:.3}, \"stats_ns\": {:.3}, \
                 \"rel_err\": {:.3e}}}",
                if j == 0 { "" } else { ", " },
                r.track,
                r.span_ns,
                r.stats_ns,
                r.rel_err()
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < collected.sections.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": {");
    for (i, (name, value)) in collected.registry.counters.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {value}", if i == 0 { "" } else { ", " });
    }
    out.push_str("}\n}\n");
    out
}

/// Runs E16, writes [`TRACE_FILE`] and [`FOLDED_FILE`] into the trace
/// directory plus [`JSON_PATH`] where [`crate::artifacts::bench_path`]
/// puts it, and renders the table.
pub fn run(quick: bool) -> Table {
    let collected = collect(quick);
    let mut table = Table::new(
        "E16: unified telemetry — Perfetto trace + cost-model reconciliation",
        &["section", "spans", "instants", "tracks", "max rel err"],
    );
    for sec in &collected.sections {
        let max_err = sec.recon.iter().map(ReconRow::rel_err).fold(0.0, f64::max);
        table.row(vec![
            sec.name.to_string(),
            sec.spans.to_string(),
            sec.instants.to_string(),
            if sec.recon.is_empty() {
                "-".into()
            } else {
                sec.recon.len().to_string()
            },
            if sec.recon.is_empty() {
                "-".into()
            } else {
                format!("{max_err:.1e}")
            },
        ]);
    }
    table.note("every device track's span total matches Stats::time_ns.total()");

    let trace = telemetry::chrome_trace_json(&collected.session);
    let summary = telemetry::validate_chrome_trace(&trace)
        .expect("exported trace must be well-formed Chrome/Perfetto JSON");
    table.note(format!(
        "trace validated: {} events on {} tracks",
        summary.events, summary.tracks
    ));
    let folded = telemetry::folded_stacks(&collected.session);
    let json = render_json(&collected, quick);
    for (file, body, what) in [
        (TRACE_FILE, &trace, "Perfetto/chrome://tracing trace"),
        (FOLDED_FILE, &folded, "folded stacks"),
    ] {
        crate::artifacts::write(&mut table, &crate::artifacts::trace_path(file), body, what);
    }
    crate::artifacts::write_bench(&mut table, JSON_PATH, quick, &json);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_telemetry::SpanTree;

    #[test]
    fn reconciliation_holds_and_sections_are_populated() {
        let collected = collect(true);
        assert_eq!(collected.sections.len(), 4);
        for sec in &collected.sections {
            assert!(sec.spans > 0, "section {} recorded no spans", sec.name);
        }
        let device_rows: usize = collected.sections[..2].iter().map(|s| s.recon.len()).sum();
        assert_eq!(device_rows, 8 + 2 * 4, "e1 has 8 devices, e12 has 2x4");
        // collect() already asserts each row balances; spot-check one.
        assert!(collected.sections[0].recon[0].stats_ns > 0.0);
        assert!(
            collected.registry.counters.contains_key("sim_collectives"),
            "engine exchanges must bump the collective counter"
        );
        assert!(collected.prometheus.contains("sim_collectives"));
    }

    #[test]
    fn merged_trace_is_valid_and_tree_checks_pass() {
        let collected = collect(true);
        let trace = telemetry::chrome_trace_json(&collected.session);
        let summary = telemetry::validate_chrome_trace(&trace).expect("trace must parse");
        assert!(summary.complete > 0 && summary.metadata > 0);
        assert!(summary.tracks >= 8 + 2 * 4, "one track per device at least");
        assert!(trace.contains("e1/machine/gpu0"));
        assert!(trace.contains("e12/node1/gpu0"));
        assert!(trace.contains("serve/"));

        let tree = SpanTree::build(&collected.session.spans);
        tree.validate().expect("span tree invariants must hold");
        assert!(!telemetry::folded_stacks(&collected.session).is_empty());
    }

    #[test]
    fn serve_section_keeps_the_service_level_story() {
        let collected = collect(true);
        let serve = &collected.sections[2];
        assert!(serve.instants > 0, "coalescer flushes must be marked");
        let serve_spans: Vec<_> = collected
            .session
            .spans
            .iter()
            .filter(|s| s.track.starts_with("serve/"))
            .collect();
        assert!(serve_spans.iter().all(|s| s.level == SpanLevel::Serve));
        assert!(serve_spans.iter().any(|s| s.name == "job"));
        assert!(serve_spans.iter().any(|s| s.name == "dispatch"));
    }

    #[test]
    fn streams_section_reconciles_per_queue_stage_spans() {
        let collected = collect(true);
        let streams = &collected.sections[3];
        assert_eq!(streams.name, "streams");
        assert!(
            !streams.recon.is_empty(),
            "the streamed section must reconcile its stage attribution"
        );
        assert!(streams.recon.iter().all(|r| r.track.starts_with("stage:")));
        // collect() already asserts each row balances; check the spans
        // actually ride per-queue tracks so traces show co-residency.
        let queue_tracks: std::collections::BTreeSet<_> = collected
            .session
            .spans
            .iter()
            .filter(|s| s.track.starts_with("streams/lease") && s.track.contains(".q"))
            .map(|s| s.track.clone())
            .collect();
        assert!(
            queue_tracks.len() > 2,
            "two queues per lease must spread stages over several queue \
             tracks, got {queue_tracks:?}"
        );
    }

    #[test]
    fn output_is_deterministic_run_to_run() {
        let a = collect(true);
        let b = collect(true);
        assert_eq!(
            telemetry::chrome_trace_json(&a.session),
            telemetry::chrome_trace_json(&b.session),
            "identical runs must render byte-identical traces"
        );
        assert_eq!(render_json(&a, true), render_json(&b, true));
        assert_eq!(a.prometheus, b.prometheus);
    }

    #[test]
    fn telemetry_never_changes_the_simulated_numbers() {
        let run_once = || {
            let fs = FieldSpec::goldilocks();
            let cfg = presets::a100_nvlink(8);
            let engine =
                UniNttEngine::<Goldilocks>::new(14, &cfg, UniNttOptions::tuned_for(&fs), fs);
            let mut machine = Machine::new(cfg.clone(), fs);
            engine.simulate_forward(&mut machine, 1);
            (machine.max_clock_ns(), machine.stats())
        };
        let (t_plain, s_plain) = run_once();
        let (t_traced, s_traced) = {
            let _guard = telemetry::start_session();
            run_once()
        };
        assert_eq!(t_plain, t_traced, "recording must not move the clock");
        assert_eq!(s_plain.time_ns.total(), s_traced.time_ns.total());
        assert_eq!(s_plain.comm_hidden_ns, s_traced.comm_hidden_ns);
    }
}
