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
//! bottleneck-attributed total (`Stats::time_ns.total()`) — exactly, since
//! both add the same integer charges — and for the streamed serving
//! section, the per-queue stage spans must sum to the service report's
//! own per-kind stage attribution (`ServiceReport::stage_ns`). A trace
//! that disagrees with the numbers the benchmarks report would be worse
//! than no trace at all.

use unintt_core::{Cluster, ClusterNttEngine, NetworkConfig, UniNttEngine, UniNttOptions};
use unintt_ff::{Bn254Fr, Goldilocks};
use unintt_gpu_sim::{presets, FieldSpec, Machine, SimTime};
use unintt_serve::{ProofService, ServiceConfig, ServiceReport, WorkloadMix, WorkloadSpec};
use unintt_telemetry::{self as telemetry, AttrValue, InstantKind, Registry, Session, SpanLevel};

use crate::report::{Kind, Table};

/// The merged Chrome/Perfetto trace's file name, resolved inside
/// [`crate::artifacts::trace_dir`].
pub const TRACE_FILE: &str = "trace.json";
/// Folded stacks for `flamegraph.pl`-style tooling, same directory.
pub const FOLDED_FILE: &str = "trace.folded";

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
            let span: SimTime = session
                .spans
                .iter()
                .filter(|s| s.level == SpanLevel::Device && s.track == track)
                .map(|s| s.duration())
                .sum();
            let stats = machine.device_stats(d).time_ns.total();
            assert_eq!(
                span, stats,
                "telemetry drifted from the cost model on {track}"
            );
            ReconRow {
                track,
                span_ns: span.as_ns(),
                stats_ns: stats.as_ns(),
            }
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
            let span: SimTime = session
                .spans
                .iter()
                .filter(|s| {
                    s.category == "stage"
                        && s.attrs
                            .iter()
                            .any(|(k, v)| *k == "kind" && *v == AttrValue::Str(kind))
                })
                .map(|s| s.duration())
                .sum();
            let row = ReconRow {
                track: format!("stage:{kind}"),
                span_ns: span.as_ns(),
                stats_ns,
            };
            assert_eq!(
                row.span_ns, row.stats_ns,
                "per-queue spans drifted from the stage attribution on {}",
                row.track
            );
            row
        })
        .collect()
}

/// Serves the E16 mixed stream — its proofs as stage DAGs over two
/// queues per lease when `pipelined` — and takes the session's
/// service-level story: lease clusters restart their simulated clocks at
/// zero on every dispatch, so their device/fabric/cluster spans do not
/// share the service clock.
fn serve_session(quick: bool, pipelined: bool) -> (Session, ServiceReport) {
    let jobs = if quick { 12 } else { 32 };
    let spec = WorkloadSpec {
        mix: WorkloadMix::mixed(),
        ..WorkloadSpec::raw_only(0xe16, jobs, 20_000.0)
    };
    let mut stream = spec.generate();
    if pipelined {
        for s in &mut stream {
            s.class = s.class.pipelined();
        }
    }
    let mut service = ProofService::new(ServiceConfig {
        streams_per_lease: if pipelined { 2 } else { 1 },
        ..ServiceConfig::default()
    });
    service.submit_all(stream);
    let report = service.run();
    assert!(
        report.all_completed(),
        "the E16 stream runs well under default admission capacity"
    );
    let mut session = telemetry::take_session();
    session.spans.retain(|s| s.level == SpanLevel::Serve);
    session.instants.retain(|i| {
        matches!(
            i.kind,
            InstantKind::LeaseRepair | InstantKind::CoalescerFlush
        )
    });
    (session, report)
}

/// Runs the four reference workloads under one telemetry session and
/// returns the merged trace plus reconciliation evidence. Writes nothing.
pub fn collect(quick: bool) -> Collected {
    let guard = telemetry::start_session();
    let mut sections = Vec::new();
    let mut merged = Session::default();
    let mut add = |name: &'static str, mut session: Session, recon| {
        session.prefix_tracks(&format!("{name}/"));
        let (spans, instants) = (session.spans.len(), session.instants.len());
        sections.push(SectionReport {
            name,
            spans,
            instants,
            recon,
        });
        merged.merge(session);
    };

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
        let session = telemetry::take_session();
        let recon = reconcile_devices(&session, &machine);
        add("e1", session, recon);
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
        let session = telemetry::take_session();
        let mut recon = Vec::new();
        for n in 0..cluster.num_nodes() {
            recon.extend(reconcile_devices(&session, cluster.node(n)));
        }
        add("e12", session, recon);
    }

    // Section serve/ — a small mixed proving-service stream.
    let (session, _) = serve_session(quick, false);
    add("serve", session, Vec::new());

    // Section streams/ — the same stream with proofs submitted as stage
    // DAGs over two compute queues per lease. Stage spans ride
    // `lease{l}.q{q}` tracks and must sum, kind by kind, to the service
    // report's own stage attribution.
    let (session, report) = serve_session(quick, true);
    let recon = reconcile_stages(&session, &report);
    add("streams", session, recon);

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

/// E16's tables: per-section span counts, the reconciliation rows of
/// every section, and the registry's counters.
fn tables(collected: &Collected) -> Vec<Table> {
    let sections = Table::of(
        "sections",
        "E16: unified telemetry — Perfetto trace + cost-model reconciliation",
        &collected.sections,
        &[
            ("name", Kind::Label, |s| s.name.into()),
            ("spans", Kind::Count, |s| s.spans.into()),
            ("instants", Kind::Count, |s| s.instants.into()),
        ],
    );
    let rows = collected
        .sections
        .iter()
        .flat_map(|s| s.recon.iter().map(move |r| (s.name, r)));
    let mut recon = Table::of(
        "reconciliation",
        "E16: span totals vs the cost model, per device track and stage kind",
        rows,
        &[
            ("section", Kind::Label, |&(s, _)| s.into()),
            ("track", Kind::Label, |(_, r)| r.track.as_str().into()),
            ("span_ns", Kind::Ns(3), |(_, r)| r.span_ns.into()),
            ("stats_ns", Kind::Ns(3), |(_, r)| r.stats_ns.into()),
        ],
    );
    recon.note(
        "span totals equal Stats::time_ns.total() per device track and \
         ServiceReport::stage_ns per stage kind, exactly: both add the same \
         integer picoseconds",
    );
    let counters = Table::of(
        "counters",
        "E16: metrics registry counters",
        &collected.registry.counters,
        &[
            ("counter", Kind::Label, |&(&name, _)| name.into()),
            ("value", Kind::Count, |&(_, &value)| value.into()),
        ],
    );
    vec![sections, recon, counters]
}

/// Runs E16, writes [`TRACE_FILE`] and [`FOLDED_FILE`] into the trace
/// directory, and returns its tables.
pub fn run(quick: bool) -> Vec<Table> {
    let collected = collect(quick);
    let mut tables = tables(&collected);
    let trace = telemetry::chrome_trace_json(&collected.session);
    let summary = telemetry::validate_chrome_trace(&trace)
        .expect("exported trace must be well-formed Chrome/Perfetto JSON");
    let sections = &mut tables[0];
    sections.note(format!(
        "trace validated: {} events on {} tracks",
        summary.events, summary.tracks
    ));
    let folded = telemetry::folded_stacks(&collected.session);
    for (file, body, what) in [
        (TRACE_FILE, &trace, "Perfetto/chrome://tracing trace"),
        (FOLDED_FILE, &folded, "folded stacks"),
    ] {
        crate::artifacts::write(sections, &crate::artifacts::trace_path(file), body, what);
    }
    tables
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
        let json = |c: &Collected| crate::artifacts::json("t", true, &tables(c));
        assert_eq!(json(&a), json(&b));
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
