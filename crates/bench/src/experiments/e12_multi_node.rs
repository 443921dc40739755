//! **E12 — multi-node scale-out** (beyond the paper): the UniNTT
//! recursion extended one level, with the datacenter network as the
//! outermost exchange medium. The question the paper leaves open: does the
//! decomposition keep paying when the next fabric down is 10–50× slower
//! than NVLink?
//!
//! Under the default overlapped schedule the staged cross-node exchange
//! pipelines against the outer column NTTs, so only the un-hidden wire
//! remainder lands on the cluster makespan (a cluster whose options set
//! `CommMode::Blocking` pays the whole wire time); the network cost itself
//! comes from the same α–β formula the intra-node fabric charges with.

use unintt_core::{Cluster, ClusterNttEngine, NetworkConfig, UniNttOptions};
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec};

use crate::report::{fmt_ns, Table};

/// Runs E12 and renders the table.
pub fn run(quick: bool) -> Table {
    let fs = FieldSpec::bn254_fr();
    let gpus_per_node = 8;
    let log_n = if quick { 24 } else { 28 };
    let node_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut table = Table::new(
        format!("E12: multi-node UniNTT (2^{log_n} BN254-Fr, {gpus_per_node}×A100 per node)"),
        &[
            "nodes",
            "network",
            "time",
            "vs 1 node",
            "network bytes",
            "comm hidden",
            "collectives",
        ],
    );

    let node_cfg = presets::a100_nvlink(gpus_per_node);
    let mut baseline_ns = 0.0f64;
    for &nodes in node_counts {
        for (net, name) in [
            (NetworkConfig::infiniband_400g(), "IB 400G"),
            (NetworkConfig::ethernet_100g(), "Eth 100G"),
        ] {
            if nodes == 1 && name == "Eth 100G" {
                continue; // no network use on one node
            }
            let engine = ClusterNttEngine::<Bn254Fr>::new(
                log_n,
                nodes,
                &node_cfg,
                UniNttOptions::tuned_for(&fs),
                fs,
            );
            let mut cluster = Cluster::new(nodes, node_cfg.clone(), net, fs);
            engine.simulate_forward(&mut cluster);
            let t = cluster.total_time_ns();
            if nodes == 1 {
                baseline_ns = t;
            }
            // Hidden communication = network wire time buried under the
            // outer column NTTs plus each node's intra-fabric overlap.
            let hidden_ns = cluster.network_hidden_ns()
                + (0..nodes)
                    .map(|n| cluster.node(n).stats().comm_hidden_ns)
                    .sum::<f64>();
            let collectives: u64 = (0..nodes)
                .map(|n| cluster.node(n).stats().collectives)
                .sum();
            table.row(vec![
                nodes.to_string(),
                if nodes == 1 {
                    "-".into()
                } else {
                    name.to_string()
                },
                fmt_ns(t),
                format!("{:.2}x", baseline_ns / t),
                crate::report::fmt_bytes(cluster.network_bytes()),
                fmt_ns(hidden_ns),
                collectives.to_string(),
            ]);
        }
    }
    table.note("the cross-node all-to-all is charged once; node phases overlap");
    table.note(
        "finding: even 400G IB (~42 GB/s effective) is ~12x slower than NVSwitch, so at \
         2^28 multi-node LOSES — the recursion is sound but needs larger transforms or \
         fatter fabrics, which is exactly why the paper stops at one node",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infiniband_beats_ethernet() {
        let fs = FieldSpec::bn254_fr();
        let node_cfg = presets::a100_nvlink(8);
        let engine =
            ClusterNttEngine::<Bn254Fr>::new(26, 4, &node_cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut ib = Cluster::new(4, node_cfg.clone(), NetworkConfig::infiniband_400g(), fs);
        engine.simulate_forward(&mut ib);
        let mut eth = Cluster::new(4, node_cfg, NetworkConfig::ethernet_100g(), fs);
        engine.simulate_forward(&mut eth);
        assert!(ib.total_time_ns() < eth.total_time_ns());
    }

    #[test]
    fn table_renders() {
        let table = run(true);
        assert!(table.len() >= 3, "{}", table.render());
    }
}
