//! **E7 — interconnect sensitivity**: the same UniNTT transform on an
//! NVSwitch all-to-all fabric, an NVLink ring, a two-level hierarchical
//! fabric (NVSwitch islands joined by InfiniBand), and PCIe host-bounce.
//! Multi-GPU NTT is communication-bound, so topology decides whether
//! multi-GPU pays off at all. All rows run the default overlapped
//! exchange schedule — E15 isolates how much each fabric's wire time the
//! pipeline can hide.

use unintt_core::UniNttOptions;
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec, MachineConfig, Topology};

use crate::experiments::{single_gpu_run, unintt_run};
use crate::report::{Kind, Table};

fn with_topology(mut cfg: MachineConfig, topology: Topology) -> MachineConfig {
    cfg.interconnect.topology = topology;
    if topology == Topology::HostBounce {
        // PCIe numbers replace NVLink numbers.
        cfg.interconnect.per_gpu_bandwidth_gbps = 32.0;
        cfg.interconnect.host_aggregate_bandwidth_gbps = 64.0;
        cfg.interconnect.latency_ns = 15_000.0;
    }
    cfg
}

/// Runs E7 and renders the table.
pub fn run(quick: bool) -> Table {
    let fs = FieldSpec::bn254_fr();
    let log_n = if quick { 22 } else { 24 };
    let gpu_counts: &[usize] = if quick { &[8] } else { &[4, 8] };

    let mut table = Table::new(
        "e7",
        format!("E7: interconnect sensitivity (UniNTT, 2^{log_n} BN254-Fr, A100-class GPUs)"),
        &[
            ("GPUs", Kind::Count),
            ("topology", Kind::Label),
            ("time", Kind::Ns(0)),
            ("vs 1 GPU", Kind::Num(2, "x")),
        ],
    );

    for &gpus in gpu_counts {
        let base = presets::a100_nvlink(gpus);
        let (t1, _) = single_gpu_run::<Bn254Fr>(log_n, &base, fs);
        for (topology, name) in [
            (Topology::AllToAll, "NVSwitch all-to-all"),
            (Topology::Ring, "NVLink ring"),
            (Topology::HostBounce, "PCIe host-bounce"),
        ] {
            let cfg = with_topology(base.clone(), topology);
            let (t, _) = unintt_run::<Bn254Fr>(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs, 1);
            table.row([gpus.into(), name.into(), t.into(), (t1 / t).into()]);
        }
        // Two-level hierarchy: NVSwitch islands of gpus/2 joined by IB.
        let pod = presets::a100_superpod(2, gpus / 2);
        let (t, _) = unintt_run::<Bn254Fr>(log_n, &pod, UniNttOptions::tuned_for(&fs), fs, 1);
        table.row([
            gpus.into(),
            "2-node hierarchical (IB)".into(),
            t.into(),
            (t1 / t).into(),
        ]);
    }
    table.note(">1x means the multi-GPU configuration beats one GPU of the same model");
    table.note("all rows use the overlapped exchange; E15 breaks out hidden vs exposed wire time");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_beats_ring_beats_pcie() {
        let fs = FieldSpec::bn254_fr();
        let base = presets::a100_nvlink(8);
        let mut times = Vec::new();
        for topology in [Topology::AllToAll, Topology::Ring, Topology::HostBounce] {
            let cfg = with_topology(base.clone(), topology);
            times.push(unintt_run::<Bn254Fr>(24, &cfg, UniNttOptions::tuned_for(&fs), fs, 1).0);
        }
        assert!(times[0] < times[1], "switch should beat ring: {times:?}");
        assert!(times[1] < times[2], "ring should beat PCIe: {times:?}");
    }

    #[test]
    fn pcie_makes_multi_gpu_unattractive() {
        let fs = FieldSpec::bn254_fr();
        let base = presets::a100_nvlink(8);
        let (t1, _) = single_gpu_run::<Bn254Fr>(24, &base, fs);
        let pcie = with_topology(base, Topology::HostBounce);
        let (tp, _) = unintt_run::<Bn254Fr>(24, &pcie, UniNttOptions::tuned_for(&fs), fs, 1);
        assert!(
            tp > t1,
            "host-bounced 8-GPU NTT should lose to one GPU: 1gpu={t1} pcie8={tp}"
        );
    }
}
