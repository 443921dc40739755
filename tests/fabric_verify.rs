//! What the fabric verifies, pinned against what it decided when it hashed.
//!
//! The checked collectives used to checksum every sent and every received
//! chunk with SipHash and re-request the chunks whose sums differed. They
//! now repair exactly the chunk a corruption decision names, whatever
//! values it held, so the charge is a function of the fault decision
//! alone:
//!
//! * the collective runs and the cluster runs below were captured from
//!   the last commit that hashed (`tests/data/fabric_verify_pins.txt`).
//!   Where a corruption there copied an equal value, the hashing form
//!   re-requested nothing; those `few`-pattern rows of the checked
//!   collectives were re-pinned once, when repair became keyed on the
//!   decision, and differ from the capture only in the one retransmission
//!   each such corruption now charges;
//! * the property test checks that every corruption of a non-empty chunk
//!   re-requests exactly that chunk, on data where it changes a value and
//!   on data where it copies an equal one, and that the repair is exact;
//! * the `Sharded` layout moves are checked against the per-element form
//!   they replaced, kept here as the oracle.
//!
//! The Makefile reruns this file on one-thread and eight-thread pools.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{
    Cluster, ClusterNttEngine, NetworkConfig, RecoveryPolicy, ShardLayout, Sharded, UniNttOptions,
};
use unintt_ff::{Field, Goldilocks, PrimeField};
use unintt_gpu_sim::{
    presets, CollectiveReport, FabricError, FaultEvent, FaultKind, FaultPlan, FaultRates,
    FieldSpec, KernelProfile, Machine, OverlapCompute,
};

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

/// FNV-1a over every limb of every element's canonical value.
fn digest<F: PrimeField>(xs: &[F]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for limb in x.to_canonical_u256().0 {
            h = (h ^ limb).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn machine(gpus: usize) -> Machine {
    Machine::new(presets::a100_nvlink(gpus), FieldSpec::goldilocks())
}

/// `d` shards of `d · chunk` elements. `"random"` data makes every
/// corruption visible; `"few"` draws from three values, so some
/// corruptions copy an equal value; in `"constant"` data every corruption
/// does. Each is repaired and charged the same.
fn shards(d: usize, chunk: usize, pattern: &str) -> Vec<Vec<Goldilocks>> {
    (0..d)
        .map(|dev| match pattern {
            "random" => random_vec(d * chunk, 1000 + (d * 100 + chunk * 10 + dev) as u64),
            "few" => (0..d * chunk)
                .map(|i| Goldilocks::from_u64(((i * 7 + dev) % 3) as u64))
                .collect(),
            _ => vec![Goldilocks::from_u64(5); d * chunk],
        })
        .collect()
}

/// Producer and consumer kernels for the overlapped exchange.
fn overlap_kernels() -> [KernelProfile; 2] {
    let mut prod = KernelProfile::named("producer");
    prod.blocks = 64;
    prod.global_bytes_read = 1 << 16;
    prod.global_bytes_written = 1 << 16;
    let mut cons = KernelProfile::named("consumer");
    cons.blocks = 64;
    cons.global_bytes_read = 1 << 16;
    cons.global_bytes_written = 1 << 16;
    cons.field_muls = 1 << 12;
    [prod, cons]
}

// ---------------------------------------------------------------------
// (a) The collectives and the cluster against the capture.
// ---------------------------------------------------------------------

const OPS: [&str; 5] = [
    "all-to-all",
    "all-to-all-checked",
    "overlapped-verify",
    "overlapped-unverified",
    "all-gather-checked",
];

/// Collectives per pinned run: enough for every fault kind to fire.
const ROUNDS: u64 = 10;

/// One run of `ROUNDS` collectives of kind `op` under a seeded plan with
/// drop, corrupt and delay faults: what each returned, the fault log, the
/// clock, the data and the merged `Stats`.
fn collective_row(op: &str, d: usize, chunk: usize, pattern: &str) -> String {
    let mut m = machine(d);
    let seed = (d * 1000 + chunk) as u64;
    let rates = FaultRates {
        drop_p: 0.2,
        corrupt_p: 0.4,
        delay_p: 0.15,
        ..FaultRates::default()
    };
    m.set_fault_plan(FaultPlan::random(seed, rates));
    let [prod, cons] = overlap_kernels();
    let compute = OverlapCompute {
        producers: &[prod],
        consumers: &[cons],
        chunks: 2,
    };
    let mut data = shards(d, chunk, pattern);
    let mut gathered_digest = 0u64;
    let mut outcomes = Vec::new();
    for _ in 0..ROUNDS {
        let outcome: Result<CollectiveReport, FabricError> = match op {
            "all-to-all" => m.all_to_all(&mut data, 8),
            "all-to-all-checked" => m.all_to_all_checked(&mut data, 8),
            "overlapped-verify" => m
                .all_to_all_overlapped(&mut data, 8, &compute, true)
                .map(|r| r.collective),
            "overlapped-unverified" => m
                .all_to_all_overlapped(&mut data, 8, &compute, false)
                .map(|r| r.collective),
            _ => m.all_gather_checked(&data, 8).map(|(out, report)| {
                for copy in &out {
                    gathered_digest = gathered_digest.rotate_left(7) ^ digest(copy);
                }
                report
            }),
        };
        outcomes.push(match outcome {
            Ok(r) => format!(
                "ok({} {:?} {} {})",
                r.seq, r.injected, r.retransmitted_chunks, r.retransmitted_bytes
            ),
            Err(e) => format!("err({e:?})"),
        });
    }
    let all: Vec<Goldilocks> = data.concat();
    format!(
        "{op} d{d} c{chunk} {pattern} outcomes={outcomes:?} faults={:?} clock={:016x} data={:016x} gathered={gathered_digest:016x} stats={:?}",
        m.fault_log(),
        m.max_clock_ns().to_bits(),
        digest(&all),
        m.stats(),
    )
}

/// `forward_with_recovery` with every node under its own seeded plan that
/// drops, corrupts and delays, with checksums on and off.
fn cluster_row(nodes: usize, gpus: usize, log_n: u32, seed: u64, verify: bool) -> String {
    let fs = FieldSpec::goldilocks();
    let node_cfg = presets::a100_nvlink(gpus);
    let engine = ClusterNttEngine::<Goldilocks>::new(
        log_n,
        nodes,
        &node_cfg,
        UniNttOptions::tuned_for(&fs),
        fs,
    );
    let mut cl = Cluster::new(nodes, node_cfg, NetworkConfig::infiniband_400g(), fs);
    let rates = FaultRates {
        drop_p: 0.1,
        corrupt_p: 0.5,
        delay_p: 0.1,
        ..FaultRates::default()
    };
    for node in 0..nodes {
        cl.node_mut(node)
            .set_fault_plan(FaultPlan::random(seed + node as u64, rates));
    }
    let policy = match verify {
        true => RecoveryPolicy::default(),
        false => RecoveryPolicy::retry_only(),
    };
    let input = random_vec::<Goldilocks>(1 << log_n, seed);
    let outcome = match engine.forward_with_recovery(&mut cl, &input, &policy) {
        Ok(r) => {
            if verify {
                let mut expected = input.clone();
                unintt_ntt::Ntt::<Goldilocks>::new(log_n).forward(&mut expected);
                assert!(r.output == expected, "t{nodes} seed{seed}: repair is exact");
            }
            format!(
                "replans={} lost_nodes={:?} nodes_used={} retries_per_attempt={:?} collectives={} comm_bytes={} comm_hidden={:016x} output={:016x}",
                r.replans,
                r.lost_nodes,
                r.nodes_used,
                r.retries_per_attempt,
                r.collectives,
                r.comm_bytes,
                r.comm_hidden.as_ns().to_bits(),
                digest(&r.output),
            )
        }
        Err(e) => format!("err({e:?})"),
    };
    let retransmitted: Vec<u64> = (0..nodes)
        .map(|i| cl.node(i).stats().interconnect_bytes_retransmitted)
        .collect();
    format!(
        "cluster t{nodes} g{gpus} 2^{log_n} seed{seed} verify={verify} {outcome} clock={:016x} retransmitted={retransmitted:?}",
        cl.total_time().as_ns().to_bits(),
    )
}

fn fabric_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for op in OPS {
        for d in [2usize, 4, 8] {
            for chunk in [1usize, 3, 64] {
                for pattern in ["random", "few"] {
                    rows.push(collective_row(op, d, chunk, pattern));
                }
            }
        }
    }
    for (nodes, gpus, log_n) in [(2usize, 2usize, 8u32), (2, 2, 10), (4, 4, 12)] {
        for seed in [3u64, 17] {
            for verify in [true, false] {
                rows.push(cluster_row(nodes, gpus, log_n, seed, verify));
            }
        }
    }
    rows
}

/// Captured at `2b16d6b`, the last commit whose checked collectives
/// compared SipHash checksums of the sent and the received chunks; the
/// `few` rows whose corruptions copied an equal value re-pinned once, and
/// every time re-captured once when the machine clock became integer
/// picoseconds (each within 9 ps; no count, fault or digest moved).
const FABRIC_PINS: &str = include_str!("data/fabric_verify_pins.txt");

#[test]
fn verification_decides_what_the_checksums_decided() {
    let rows = fabric_rows();
    let pins: Vec<&str> = FABRIC_PINS.lines().collect();
    assert_eq!(rows.len(), pins.len());
    for (row, pin) in rows.iter().zip(pins) {
        assert_eq!(row, pin);
    }
}

// ---------------------------------------------------------------------
// (b) Exactly the decided chunk is re-requested, whatever it held.
// ---------------------------------------------------------------------

/// How many `len`-element chunks of `got` differ from `want`, row by row.
fn differing_chunks(got: &[Vec<Goldilocks>], want: &[Vec<Goldilocks>], len: usize) -> u64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            g.chunks(len)
                .zip(w.chunks(len))
                .filter(|(a, b)| a != b)
                .count() as u64
        })
        .sum()
}

#[test]
fn verification_retransmits_exactly_the_decided_chunk() {
    let [prod, cons] = overlap_kernels();
    let compute = OverlapCompute {
        producers: &[prod],
        consumers: &[cons],
        chunks: 2,
    };
    let mut equal_value_corruptions = 0;
    for d in [2usize, 4, 8] {
        for chunk in [1usize, 3, 64] {
            let bytes = chunk as u64 * 8;
            for pattern in ["random", "few", "constant"] {
                let input = shards(d, chunk, pattern);
                let mut clean = input.clone();
                machine(d).all_to_all(&mut clean, 8).unwrap();
                let clean_gather = machine(d).all_gather(&input, 8).unwrap();
                for (src, dst) in (0..d).flat_map(|s| (0..d).map(move |t| (s, t))) {
                    for seq in 0..3u64 {
                        // The corruption hits the collective after `seq`
                        // clean ones: its offset is a function of `seq`.
                        let faulty = || {
                            let mut m = machine(d);
                            m.set_fault_plan(FaultPlan::scripted(vec![FaultEvent {
                                seq,
                                kind: FaultKind::Corrupt { src, dst },
                            }]));
                            for _ in 0..seq {
                                m.all_to_all(&mut vec![vec![Goldilocks::ZERO; d]; d], 8)
                                    .unwrap();
                            }
                            m
                        };
                        let case = format!("d{d} c{chunk} {pattern} {src}->{dst} seq{seq}");

                        // What the silent exchange damaged: at most the
                        // decided chunk, and nothing where the corruption
                        // copied an equal value.
                        let mut silent = input.clone();
                        faulty().all_to_all(&mut silent, 8).unwrap();
                        let damaged = differing_chunks(&silent, &clean, chunk);
                        assert!(damaged <= 1, "{case}");
                        if pattern == "constant" {
                            assert_eq!(damaged, 0, "{case}: equal values cannot damage");
                        }
                        equal_value_corruptions += u64::from(damaged == 0);

                        let mut m = faulty();
                        let mut checked = input.clone();
                        let report = m.all_to_all_checked(&mut checked, 8).unwrap();
                        assert_eq!(checked, clean, "{case}");
                        assert_eq!(report.retransmitted_chunks, 1, "{case}");
                        assert_eq!(report.retransmitted_bytes, bytes, "{case}");
                        let stats = m.stats();
                        assert_eq!(stats.interconnect_bytes_retransmitted, bytes, "{case}");

                        let mut overlapped = input.clone();
                        let report = faulty()
                            .all_to_all_overlapped(&mut overlapped, 8, &compute, true)
                            .unwrap();
                        assert_eq!(overlapped, clean, "{case} overlapped");
                        assert_eq!(report.collective.retransmitted_chunks, 1, "{case}");

                        let (gathered, report) = faulty().all_gather_checked(&input, 8).unwrap();
                        assert_eq!(gathered, clean_gather, "{case} gather");
                        assert_eq!(report.retransmitted_chunks, 1, "{case} gather");
                        let segment = d as u64 * bytes;
                        assert_eq!(report.retransmitted_bytes, segment, "{case} gather");
                    }
                }
            }
        }
    }
    assert!(equal_value_corruptions > 0);
}

// ---------------------------------------------------------------------
// (c) The layout moves against the per-element form.
// ---------------------------------------------------------------------

/// The per-element `Sharded::distribute` the one-pass moves replaced.
fn oracle_distribute<F: Field>(input: &[F], g: usize, layout: ShardLayout) -> Vec<Vec<F>> {
    let m = input.len() / g;
    let mut shards = vec![Vec::with_capacity(m); g];
    match layout {
        ShardLayout::Cyclic => {
            for round in input.chunks_exact(g) {
                for (shard, &v) in shards.iter_mut().zip(round) {
                    shard.push(v);
                }
            }
        }
        ShardLayout::NaturalBlocks => {
            for (dev, shard) in shards.iter_mut().enumerate() {
                shard.extend_from_slice(&input[dev * m..(dev + 1) * m]);
            }
        }
        ShardLayout::BlockCyclic => {
            let c = m / g;
            for shard in &mut shards {
                shard.resize(m, F::ZERO);
            }
            for (k1, block) in input.chunks_exact(m).enumerate() {
                for (shard, piece) in shards.iter_mut().zip(block.chunks_exact(c)) {
                    shard[k1 * c..][..c].copy_from_slice(piece);
                }
            }
        }
    }
    shards
}

/// The per-element `Sharded::collect` the one-pass moves replaced.
fn oracle_collect<F: Field>(shards: &[Vec<F>], layout: ShardLayout) -> Vec<F> {
    let (g, m) = (shards.len(), shards[0].len());
    let mut out = vec![F::ZERO; g * m];
    for (dev, shard) in shards.iter().enumerate() {
        for (j, &v) in shard.iter().enumerate() {
            let i = match layout {
                ShardLayout::Cyclic => j * g + dev,
                ShardLayout::NaturalBlocks => dev * m + j,
                ShardLayout::BlockCyclic => {
                    let c = m / g;
                    (j / c) * m + dev * c + j % c
                }
            };
            out[i] = v;
        }
    }
    out
}

#[test]
fn layout_moves_match_the_per_element_form() {
    for layout in [
        ShardLayout::Cyclic,
        ShardLayout::NaturalBlocks,
        ShardLayout::BlockCyclic,
    ] {
        for g in [1usize, 2, 4, 8] {
            for m in [g, 2 * g, 64] {
                let case = format!("{layout:?} g{g} m{m}");
                let input = random_vec::<Goldilocks>(g * m, (g * 1000 + m) as u64);
                let sharded = Sharded::distribute(&input, g, layout);
                let expected = oracle_distribute(&input, g, layout);
                assert_eq!(sharded.shards(), &expected[..], "{case}: distribute");
                assert_eq!(sharded.collect(), input, "{case}: round trip");
                // Collecting shards that did not come from `distribute`.
                let other: Vec<Vec<Goldilocks>> = (0..g)
                    .map(|dev| random_vec(m, (dev * 31 + m) as u64))
                    .collect();
                let wrapped = Sharded::from_shards(other.clone(), layout);
                assert_eq!(wrapped.collect(), oracle_collect(&other, layout), "{case}");
            }
        }
    }
}

#[test]
fn cluster_collect_is_the_node_level_block_cyclic_order() {
    let fs = FieldSpec::goldilocks();
    for nodes in [1usize, 2, 4] {
        let engine = ClusterNttEngine::<Goldilocks>::new(
            10,
            nodes,
            &presets::a100_nvlink(2),
            UniNttOptions::tuned_for(&fs),
            fs,
        );
        let shards: Vec<Vec<Goldilocks>> = (0..nodes)
            .map(|t| random_vec((1 << 10) / nodes, t as u64))
            .collect();
        assert_eq!(
            engine.collect(&shards),
            oracle_collect(&shards, ShardLayout::BlockCyclic),
            "t{nodes}"
        );
        let input = random_vec::<Goldilocks>(1 << 10, 99);
        assert_eq!(
            engine.distribute(&input),
            oracle_distribute(&input, nodes, ShardLayout::Cyclic)
        );
    }
}
