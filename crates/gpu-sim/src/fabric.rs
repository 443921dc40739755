//! Link-level fabric graph: the topology-aware communication model.
//!
//! Every machine owns a [`FabricGraph`] built from its
//! [`InterconnectConfig`]. The graph holds one directed [`Link`] per
//! physical resource (GPU injection/ejection port, ring hop, PCIe lane
//! pair, host-memory channel, node uplink) and tracks per-link occupancy:
//! how many bytes each link carried and for how long it was busy on the
//! simulated clock. Collectives are charged by *scheduling* their
//! messages over these links — the charged time is the busy period of the
//! bottleneck link plus the topology's latency terms — so contention
//! (host-memory caps, inter-node uplinks shared by a whole node) falls
//! out of the link loads instead of a hand-written closed form.
//!
//! For the uniform topologies the bottleneck-link schedule reduces
//! exactly to the classical α–β charges the simulator always used (see
//! [`alpha_beta_all_to_all_ns`]), which keeps the cost model auditable;
//! the [`Topology::Hierarchical`] preset is where the graph earns its
//! keep: intra-node NVLink stages and the shared inter-node uplink are
//! separate links with separate loads, producing the staged
//! gather → exchange → scatter all-to-all of multi-node machines.

use unintt_telemetry::SimTime;

use crate::config::{InterconnectConfig, Topology};

/// Per-message fixed cost of crossing the inter-node fabric (IB verbs
/// post + completion), charged per stage of the hierarchical exchange.
const INTER_NODE_SETUP_NS: f64 = 2000.0;

/// The standard α–β all-to-all charge shared by the GPU fabric and the
/// cluster network model: each of `participants` members holds
/// `bytes_per_member` and keeps `1/p` locally, so it injects
/// `bytes·(p−1)/p` at `bandwidth_gbps · efficiency`, after one
/// `latency_ns` synchronization.
///
/// Both `CostModel::all_to_all_ns` (full-crossbar arm) and
/// `NetworkConfig::all_to_all_ns` in `unintt-core` route through this
/// function, so the two layers cannot drift apart in units.
pub fn alpha_beta_all_to_all_ns(
    participants: usize,
    bytes_per_member: u64,
    bandwidth_gbps: f64,
    latency_ns: f64,
    efficiency: f64,
) -> f64 {
    if participants <= 1 {
        return 0.0;
    }
    let p = participants as f64;
    let egress = bytes_per_member as f64 * (p - 1.0) / p;
    latency_ns + egress / (bandwidth_gbps * 1e9 * efficiency) * 1e9
}

/// Splits the all-to-all charge into `(latency_ns, wire_ns)` so that the
/// blocking total is exactly `latency + wire` and chunked schedules can
/// pipeline the wire part while paying the latency part once.
pub(crate) fn all_to_all_split(
    ic: &InterconnectConfig,
    num_gpus: usize,
    bytes_per_device: u64,
) -> (f64, f64) {
    let d = num_gpus;
    if d <= 1 {
        return (0.0, 0.0);
    }
    let df = d as f64;
    let link_bw = ic.per_gpu_bandwidth_gbps * 1e9 * ic.efficiency;
    let egress = bytes_per_device as f64 * (df - 1.0) / df;
    match ic.topology {
        Topology::AllToAll => {
            // Full-bisection switch: every injection port drains its own
            // egress concurrently; the port is the bottleneck link, and the
            // charge is exactly the shared α–β form.
            let total = alpha_beta_all_to_all_ns(
                d,
                bytes_per_device,
                ic.per_gpu_bandwidth_gbps,
                ic.latency_ns,
                ic.efficiency,
            );
            (ic.latency_ns, total - ic.latency_ns)
        }
        Topology::Ring => {
            // D-1 pipelined steps; each step occupies every ring hop with
            // one chunk and pays one hop latency.
            let chunk = bytes_per_device as f64 / df;
            (
                (df - 1.0) * ic.latency_ns,
                (df - 1.0) * chunk / link_bw * 1e9,
            )
        }
        Topology::HostBounce => {
            // Device→host→device: 2× traffic on every PCIe link, and the
            // host-memory channel carries all devices' traffic at once.
            let host_bw = ic.host_aggregate_bandwidth_gbps * 1e9 * ic.efficiency;
            let per_dev = 2.0 * egress / link_bw * 1e9;
            let host_total = 2.0 * egress * df / host_bw * 1e9;
            (ic.latency_ns, per_dev.max(host_total))
        }
        Topology::Hierarchical => {
            let g = ic.gpus_per_node.max(1).min(d);
            let nodes = d / g;
            if nodes <= 1 {
                // Degenerate single node: identical to the crossbar.
                return (ic.latency_ns, egress / link_bw * 1e9);
            }
            let gf = g as f64;
            let nf = nodes as f64;
            let inter_bw = ic.inter_node_bandwidth_gbps * 1e9 * ic.efficiency;
            // Stage 1 (gather): each GPU reshuffles within its node so
            // every GPU holds the slice bound for one remote-node group.
            let intra_wire = bytes_per_device as f64 * (gf - 1.0) / gf / link_bw * 1e9;
            // Stage 2 (exchange): each node pushes its off-node bytes
            // through the shared uplink — the contention point.
            let node_bytes = gf * bytes_per_device as f64 * (nf - 1.0) / nf;
            let inter_wire = node_bytes / inter_bw * 1e9;
            let inter_lat = ic.inter_node_latency_ns + (nf - 1.0) * INTER_NODE_SETUP_NS;
            // Stage 3 (scatter): the mirror intra-node reshuffle.
            let lat = 2.0 * ic.latency_ns + inter_lat;
            let wire = 2.0 * intra_wire + inter_wire;
            (lat, wire)
        }
    }
}

/// One directed link of the fabric graph, with occupancy totals.
#[derive(Clone, Debug)]
pub struct Link {
    /// Human-readable endpoint description, e.g. `"gpu3→switch"`.
    pub name: String,
    /// Link bandwidth in GB/s (before the fabric efficiency derate).
    pub bandwidth_gbps: f64,
    /// Total bytes this link carried.
    pub bytes_carried: u64,
    /// Total simulated time this link was occupied: the rounded wire
    /// charge of every collective it carried, as the devices book it.
    pub busy: SimTime,
}

impl Link {
    fn new(name: String, bandwidth_gbps: f64) -> Self {
        Self {
            name,
            bandwidth_gbps,
            bytes_carried: 0,
            busy: SimTime::ZERO,
        }
    }
}

/// The link graph of one machine's interconnect.
#[derive(Clone, Debug)]
pub struct FabricGraph {
    ic: InterconnectConfig,
    num_gpus: usize,
    links: Vec<Link>,
}

impl FabricGraph {
    /// Builds the graph for `num_gpus` devices on `ic`.
    pub fn new(ic: &InterconnectConfig, num_gpus: usize) -> Self {
        let mut links = Vec::new();
        let d = num_gpus;
        if d > 1 {
            match ic.topology {
                Topology::AllToAll => {
                    for i in 0..d {
                        links.push(Link::new(
                            format!("gpu{i}→switch"),
                            ic.per_gpu_bandwidth_gbps,
                        ));
                        links.push(Link::new(
                            format!("switch→gpu{i}"),
                            ic.per_gpu_bandwidth_gbps,
                        ));
                    }
                }
                Topology::Ring => {
                    for i in 0..d {
                        let j = (i + 1) % d;
                        links.push(Link::new(
                            format!("gpu{i}→gpu{j}"),
                            ic.per_gpu_bandwidth_gbps,
                        ));
                    }
                }
                Topology::HostBounce => {
                    for i in 0..d {
                        links.push(Link::new(format!("gpu{i}↔host"), ic.per_gpu_bandwidth_gbps));
                    }
                    links.push(Link::new(
                        "host-memory".into(),
                        ic.host_aggregate_bandwidth_gbps,
                    ));
                }
                Topology::Hierarchical => {
                    for i in 0..d {
                        links.push(Link::new(
                            format!("gpu{i}→switch"),
                            ic.per_gpu_bandwidth_gbps,
                        ));
                        links.push(Link::new(
                            format!("switch→gpu{i}"),
                            ic.per_gpu_bandwidth_gbps,
                        ));
                    }
                    let g = ic.gpus_per_node.max(1).min(d);
                    for n in 0..d / g {
                        links.push(Link::new(
                            format!("node{n}→fabric"),
                            ic.inter_node_bandwidth_gbps,
                        ));
                        links.push(Link::new(
                            format!("fabric→node{n}"),
                            ic.inter_node_bandwidth_gbps,
                        ));
                    }
                }
            }
        }
        Self {
            ic: ic.clone(),
            num_gpus,
            links,
        }
    }

    /// The links of the graph, with their occupancy totals.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of links an all-to-all occupies on this topology.
    pub fn links_used_all_to_all(&self) -> u32 {
        self.links.len() as u32
    }

    /// Zeroes the per-link occupancy totals (machine reset).
    pub fn reset(&mut self) {
        for l in &mut self.links {
            l.bytes_carried = 0;
            l.busy = SimTime::ZERO;
        }
    }

    /// Schedules one all-to-all of `bytes_per_device` over the graph,
    /// recording per-link loads, and returns the `(latency, wire)` split
    /// of the charge (total = latency + wire), each rounded once.
    pub(crate) fn record_all_to_all(&mut self, bytes_per_device: u64) -> (SimTime, SimTime) {
        let d = self.num_gpus;
        let (lat, wire) = all_to_all_split(&self.ic, d, bytes_per_device);
        let (lat, wire) = (SimTime::from_ns(lat), SimTime::from_ns(wire));
        if d <= 1 {
            return (lat, wire);
        }
        let df = d as f64;
        let egress = (bytes_per_device as f64 * (df - 1.0) / df) as u64;
        match self.ic.topology {
            Topology::AllToAll => {
                // Each injection and ejection port carries one egress.
                for l in &mut self.links {
                    l.bytes_carried += egress;
                    l.busy += wire;
                }
            }
            Topology::Ring => {
                // Every hop forwards one chunk per pipelined step.
                let chunk = bytes_per_device / d as u64;
                for l in &mut self.links {
                    l.bytes_carried += (d as u64 - 1) * chunk;
                    l.busy += wire;
                }
            }
            Topology::HostBounce => {
                // Per-device PCIe links carry the up+down traffic; the
                // host-memory channel carries everyone's.
                let (pcie, host) = self.links.split_at_mut(d);
                for l in pcie {
                    l.bytes_carried += 2 * egress;
                    l.busy += wire;
                }
                host[0].bytes_carried += 2 * egress * d as u64;
                host[0].busy += wire;
            }
            Topology::Hierarchical => {
                let g = self.ic.gpus_per_node.max(1).min(d);
                let nodes = d / g;
                let intra = (bytes_per_device as f64 * (g as f64 - 1.0) / g as f64) as u64;
                let node_bytes = if nodes > 1 {
                    (g as f64 * bytes_per_device as f64 * (nodes as f64 - 1.0) / nodes as f64)
                        as u64
                } else {
                    0
                };
                let (gpu_links, node_links) = self.links.split_at_mut(2 * d);
                for l in gpu_links {
                    // Two intra-node stages (gather + scatter).
                    l.bytes_carried += 2 * intra;
                    l.busy += wire;
                }
                for l in node_links {
                    l.bytes_carried += node_bytes;
                    l.busy += wire;
                }
            }
        }
        (lat, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn alpha_beta_matches_closed_form() {
        // a100_nvlink(8): 600 GB/s, 9 µs, 0.8 efficiency; 128 MiB shards.
        let bytes = 1u64 << 27;
        let ns = alpha_beta_all_to_all_ns(8, bytes, 600.0, 9000.0, 0.8);
        let egress = bytes as f64 * 7.0 / 8.0;
        let expected = 9000.0 + egress / 480.0; // 480 bytes/ns effective
        assert!((ns - expected).abs() < 1e-9, "{ns} vs {expected}");
    }

    #[test]
    fn alpha_beta_single_participant_free() {
        assert_eq!(
            alpha_beta_all_to_all_ns(1, 1 << 30, 600.0, 9000.0, 0.8),
            0.0
        );
    }

    #[test]
    fn split_sums_to_legacy_charges() {
        for cfg in [
            presets::a100_nvlink(8),
            presets::v100_nvlink_ring(8),
            presets::rtx4090_pcie(8),
        ] {
            let ic = &cfg.interconnect;
            let (lat, wire) = all_to_all_split(ic, 8, 1 << 24);
            assert!(lat > 0.0 && wire > 0.0);
            let model = crate::cost::CostModel::new(&cfg, crate::config::FieldSpec::goldilocks());
            assert!(
                (lat + wire - model.all_to_all_ns(1 << 24)).abs() < 1e-9,
                "split must reproduce the model charge for {:?}",
                ic.topology
            );
        }
    }

    #[test]
    fn graph_records_link_occupancy() {
        let cfg = presets::a100_nvlink(4);
        let mut g = FabricGraph::new(&cfg.interconnect, 4);
        assert_eq!(g.links().len(), 8); // 4 inject + 4 eject ports
        let (lat, wire) = g.record_all_to_all(1 << 20);
        assert!(lat > SimTime::ZERO && wire > SimTime::ZERO);
        for l in g.links() {
            assert_eq!(l.bytes_carried, (1 << 20) * 3 / 4);
            assert_eq!(l.busy, wire);
        }
        g.reset();
        assert!(g.links().iter().all(|l| l.bytes_carried == 0));
    }

    #[test]
    fn host_bounce_host_channel_is_hot() {
        let cfg = presets::rtx4090_pcie(4);
        let mut g = FabricGraph::new(&cfg.interconnect, 4);
        g.record_all_to_all(1 << 20);
        let host = g.links().last().expect("host link");
        assert_eq!(host.name, "host-memory");
        let pcie = &g.links()[0];
        assert!(
            host.bytes_carried == 4 * pcie.bytes_carried,
            "host memory carries every device's bounce traffic"
        );
    }

    #[test]
    fn hierarchical_staged_exchange_slower_than_crossbar_but_beats_pcie() {
        let bytes = 1u64 << 24;
        let xbar = all_to_all_split(&presets::a100_nvlink(8).interconnect, 8, bytes);
        let hier = all_to_all_split(&presets::a100_superpod(2, 4).interconnect, 8, bytes);
        let pcie = all_to_all_split(&presets::rtx4090_pcie(8).interconnect, 8, bytes);
        let t = |(l, w): (f64, f64)| l + w;
        assert!(t(hier) > t(xbar), "IB uplinks cannot beat NVSwitch");
        assert!(t(pcie) > t(hier), "staged NVLink+IB beats host bouncing");
    }

    #[test]
    fn hierarchical_single_node_degenerates_to_crossbar() {
        let cfg = presets::a100_superpod(1, 8);
        let (lat, wire) = all_to_all_split(&cfg.interconnect, 8, 1 << 24);
        let flat = all_to_all_split(&presets::a100_nvlink(8).interconnect, 8, 1 << 24);
        assert!((lat - flat.0).abs() < 1e-9 && (wire - flat.1).abs() < 1e-9);
    }
}
