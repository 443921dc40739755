//! The two planes of every walk leave the same simulated world behind.
//!
//! A cost-only `simulate_*` is the functional transform's walk with
//! nothing to move, so for any engine, option set, communication mode,
//! batch, direction and fault plan the two must charge equal integer
//! clocks and equal [`Stats`] books, log the same faults, and — with a telemetry
//! session open — record the same span tree. There is one path to check,
//! so what this file checks is that the planes really are the only
//! difference. The fault plans hold the kinds a transform without a
//! recovery policy survives: delays, stragglers and corruptions that no
//! one verifies.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{
    Cluster, ClusterNttEngine, CommMode, FourStepMultiGpuEngine, NetworkConfig, ShardLayout,
    Sharded, UniNttEngine, UniNttOptions,
};
use unintt_ff::{Field, Goldilocks, PrimeField};
use unintt_gpu_sim::{
    presets, FaultEvent, FaultKind, FaultPlan, FaultRates, FieldSpec, Machine, MachineConfig,
    SimTime, Stats,
};
use unintt_telemetry::{AttrValue, Session};

const LOG_N: u32 = 13;

fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
}

fn batch_of(len: usize, gpus: usize, layout: ShardLayout) -> Vec<Sharded<Goldilocks>> {
    (0..len)
        .map(|i| Sharded::distribute(&random_vec(1 << LOG_N, i as u64), gpus, layout))
        .collect()
}

/// Every option set of the grid: tuned, nothing, each single ablation,
/// natural output.
fn option_grid(fs: &FieldSpec) -> Vec<(String, UniNttOptions)> {
    let mut natural = UniNttOptions::tuned_for(fs);
    natural.natural_output = true;
    let mut grid = vec![
        ("tuned".to_string(), UniNttOptions::tuned_for(fs)),
        ("none".to_string(), UniNttOptions::none()),
    ];
    grid.extend((1..=5).map(|k| (format!("ablate{k}"), UniNttOptions::ablate(k))));
    grid.push(("natural".to_string(), natural));
    grid
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Forward,
    Inverse,
    CosetForward,
}

/// The fault plans every pair runs under, for a machine of `gpus`
/// devices: none, two scripted ones and a seeded one.
fn fault_plans(gpus: usize) -> Vec<(&'static str, Option<FaultPlan>)> {
    let at = |seq, kind| FaultEvent { seq, kind };
    let last = gpus.saturating_sub(1);
    let corrupt = FaultKind::Corrupt { src: last, dst: 0 };
    let straggler = FaultKind::Straggler {
        device: last,
        factor: 2.5,
    };
    let rates = FaultRates {
        corrupt_p: 0.3,
        delay_p: 0.2,
        straggler_p: 0.1,
        ..FaultRates::default()
    };
    vec![
        ("clean", None),
        (
            "corrupt-delay-straggler",
            Some(FaultPlan::scripted(vec![
                at(0, corrupt),
                at(1, FaultKind::Delay { factor: 3.0 }),
                at(2, straggler),
            ])),
        ),
        (
            "straggler-corrupt",
            Some(FaultPlan::scripted(vec![at(0, straggler), at(1, corrupt)])),
        ),
        ("seeded", Some(FaultPlan::random(11, rates))),
    ]
}

/// A fresh machine under `plan`.
fn machine(cfg: &MachineConfig, plan: &Option<FaultPlan>) -> Machine {
    let mut m = Machine::new(cfg.clone(), FieldSpec::goldilocks());
    if let Some(plan) = plan {
        m.set_fault_plan(plan.clone());
    }
    m
}

/// What one plane left on a machine.
fn outcome(m: &Machine) -> (SimTime, Stats<SimTime>, Vec<FaultEvent>) {
    (m.max_clock(), m.ledger(), m.fault_log().to_vec())
}

/// Runs `op` over `batch` vectors on `plane` — the element plane (real
/// data) or the unit plane (nothing to move) — of `engine`.
fn run(engine: &UniNttEngine<Goldilocks>, m: &mut Machine, op: Op, batch: usize, elements: bool) {
    let gpus = engine.plan().num_gpus();
    let input = |layout| batch_of(batch, gpus, layout);
    let output = if engine.options().natural_output {
        ShardLayout::NaturalBlocks
    } else {
        ShardLayout::BlockCyclic
    };
    match (op, elements) {
        (Op::Forward, true) => engine.forward_batch(m, &mut input(ShardLayout::Cyclic)),
        (Op::Forward, false) => engine.simulate_forward(m, batch as u64),
        (Op::Inverse, true) => engine.inverse_batch(m, &mut input(output)),
        (Op::Inverse, false) => engine.simulate_inverse(m, batch as u64),
        (Op::CosetForward, true) => {
            engine.coset_forward_batch(m, &mut input(ShardLayout::Cyclic), Goldilocks::GENERATOR);
        }
        (Op::CosetForward, false) => engine.simulate_coset_forward(m, batch as u64),
    }
}

#[test]
fn both_planes_charge_the_same_clock_and_stats() {
    let fs = FieldSpec::goldilocks();
    for gpus in [1usize, 2, 8] {
        let cfg = presets::a100_nvlink(gpus);
        for (opt_tag, base) in option_grid(&fs) {
            for mode in [CommMode::Overlapped, CommMode::Blocking] {
                let mut opts = base;
                opts.comm_mode = mode;
                let engine = UniNttEngine::<Goldilocks>::new(LOG_N, &cfg, opts, fs);
                for batch in [1usize, 3] {
                    for op in [Op::Forward, Op::Inverse, Op::CosetForward] {
                        for (plan_tag, plan) in fault_plans(gpus) {
                            let [elements, unit] = [true, false].map(|elements| {
                                let mut m = machine(&cfg, &plan);
                                run(&engine, &mut m, op, batch, elements);
                                outcome(&m)
                            });
                            let case =
                                format!("g{gpus} {opt_tag} {mode:?} b{batch} {op:?} {plan_tag}");
                            let injected = !elements.2.is_empty();
                            assert_eq!(injected, gpus > 1 && plan.is_some(), "{case}");
                            assert_eq!(elements, unit, "{case}");
                        }
                    }
                }
            }
        }

        // The four-step baseline is the same walk with two more phases.
        let engine = FourStepMultiGpuEngine::<Goldilocks>::new(LOG_N, &cfg, fs);
        for (plan_tag, plan) in fault_plans(gpus) {
            let (mut elements, mut unit) = (machine(&cfg, &plan), machine(&cfg, &plan));
            let mut data = batch_of(1, gpus, ShardLayout::NaturalBlocks).remove(0);
            engine.forward(&mut elements, &mut data);
            engine.simulate_forward(&mut unit, 1);
            assert_eq!(
                outcome(&elements),
                outcome(&unit),
                "four-step g{gpus} {plan_tag}"
            );
        }
    }
}

/// What one plane left on a cluster: its clock, the network counters and
/// every node's stats and fault log.
type ClusterOutcome = (
    SimTime,
    u64,
    SimTime,
    Vec<(Stats<SimTime>, Vec<FaultEvent>)>,
);

fn cluster_outcome(cl: &Cluster) -> ClusterOutcome {
    let node = |i| (cl.node(i).ledger(), cl.node(i).fault_log().to_vec());
    (
        cl.total_time(),
        cl.network_bytes(),
        cl.network_hidden(),
        (0..cl.num_nodes()).map(node).collect(),
    )
}

/// Both planes of a cluster forward, every node under `plan`.
fn cluster_planes(
    nodes: usize,
    gpus: usize,
    mode: CommMode,
    plan: &Option<FaultPlan>,
) -> [Cluster; 2] {
    let fs = FieldSpec::goldilocks();
    let node_cfg = presets::a100_nvlink(gpus);
    let mut opts = UniNttOptions::tuned_for(&fs);
    opts.comm_mode = mode;
    let engine = ClusterNttEngine::<Goldilocks>::new(LOG_N, nodes, &node_cfg, opts, fs);
    let cluster = || {
        let mut cl = Cluster::new(
            nodes,
            node_cfg.clone(),
            NetworkConfig::infiniband_400g(),
            fs,
        );
        if let Some(plan) = plan {
            for node in 0..nodes {
                cl.node_mut(node).set_fault_plan(plan.clone());
            }
        }
        cl
    };
    let (mut elements, mut unit) = (cluster(), cluster());
    let mut shards = engine.distribute(&random_vec(1 << LOG_N, 5));
    engine.forward(&mut elements, &mut shards);
    engine.simulate_forward(&mut unit);
    [elements, unit]
}

#[test]
fn both_cluster_planes_charge_the_same_clock_and_stats() {
    for (nodes, gpus) in [(1usize, 2usize), (2, 2), (4, 4), (4, 1)] {
        for mode in [CommMode::Overlapped, CommMode::Blocking] {
            for (plan_tag, plan) in fault_plans(gpus) {
                let [elements, unit] = cluster_planes(nodes, gpus, mode, &plan);
                assert_eq!(
                    cluster_outcome(&elements),
                    cluster_outcome(&unit),
                    "t{nodes} g{gpus} {mode:?} {plan_tag}"
                );
            }
        }
    }
}

/// A session's spans and instants with every timestamp as bits and the
/// one attribute the planes are allowed to differ in (`path`) left out.
fn shape(session: &Session) -> Vec<String> {
    let attrs = |attrs: &[(&'static str, AttrValue)]| -> Vec<String> {
        attrs
            .iter()
            .filter(|(key, _)| *key != "path")
            .map(|(key, value)| match value {
                AttrValue::F64(v) => format!("{key}={:016x}", v.to_bits()),
                other => format!("{key}={other:?}"),
            })
            .collect()
    };
    let spans = session.spans.iter().map(|s| {
        format!(
            "span {} parent={:?} {} {:?} {} {} [{}, {}] {:?}",
            s.id,
            s.parent,
            s.name,
            s.level,
            s.category,
            s.track,
            s.t_start.0,
            s.t_end.0,
            attrs(&s.attrs),
        )
    });
    let instants = session.instants.iter().map(|i| {
        format!(
            "instant {} {:?} {} {} {:?}",
            i.name,
            i.kind,
            i.track,
            i.t.0,
            attrs(&i.attrs),
        )
    });
    spans.chain(instants).collect()
}

/// Everything `run` records, in a session of its own (ids restart).
fn recorded(run: impl FnOnce()) -> Vec<String> {
    let _session = unintt_telemetry::start_session();
    run();
    shape(&unintt_telemetry::take_session())
}

#[test]
fn both_planes_record_the_same_span_tree() {
    let fs = FieldSpec::goldilocks();
    let cfg = presets::a100_nvlink(8);
    let mut natural = UniNttOptions::tuned_for(&fs);
    natural.natural_output = true;
    for opts in [
        UniNttOptions::tuned_for(&fs),
        UniNttOptions::none(),
        natural,
    ] {
        let engine = UniNttEngine::<Goldilocks>::new(LOG_N, &cfg, opts, fs);
        for op in [Op::Forward, Op::Inverse, Op::CosetForward] {
            let [elements, unit] = [true, false].map(|elements| {
                recorded(|| run(&engine, &mut Machine::new(cfg.clone(), fs), op, 3, elements))
            });
            assert!(elements.len() >= 4, "a multi-GPU walk records its phases");
            assert_eq!(elements, unit, "{opts:?} {op:?}");
        }
    }

    let engine = FourStepMultiGpuEngine::<Goldilocks>::new(LOG_N, &cfg, fs);
    let elements = recorded(|| {
        let mut data = batch_of(1, 8, ShardLayout::NaturalBlocks).remove(0);
        engine.forward(&mut Machine::new(cfg.clone(), fs), &mut data);
    });
    let unit = recorded(|| engine.simulate_forward(&mut Machine::new(cfg.clone(), fs), 1));
    assert_eq!(elements, unit, "four-step");

    for mode in [CommMode::Overlapped, CommMode::Blocking] {
        let node_cfg = presets::a100_nvlink(2);
        let mut opts = UniNttOptions::tuned_for(&fs);
        opts.comm_mode = mode;
        let engine = ClusterNttEngine::<Goldilocks>::new(LOG_N, 4, &node_cfg, opts, fs);
        let cluster = || Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
        let elements = recorded(|| {
            let mut shards = engine.distribute(&random_vec(1 << LOG_N, 9));
            engine.forward(&mut cluster(), &mut shards);
        });
        let unit = recorded(|| engine.simulate_forward(&mut cluster()));
        // Four node walks of five spans, three cluster phases, one root.
        assert_eq!(
            elements.len() - elements.iter().filter(|l| l.starts_with("instant")).count(),
            24
        );
        assert_eq!(elements, unit, "cluster {mode:?}");
    }
}
