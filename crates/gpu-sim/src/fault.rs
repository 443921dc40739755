//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] decides, for every collective the machine executes
//! (numbered by a monotone sequence counter), whether that collective is
//! hit by a fault and which kind. Decisions are a pure function of
//! `(plan, sequence number, device count)`, so a given seed always
//! produces the identical fault event sequence, identical simulated-time
//! totals, and identical data — the property the recovery tests and
//! experiment E13 rely on.
//!
//! Fault *timing* is charged to the simulated clock under
//! [`crate::Category::Fault`]: dropped collectives cost a detection
//! timeout, corrupted chunks cost their retransmission, stragglers
//! stretch every subsequent kernel on the slow device, and recovery
//! backoff (charged by the engines through
//! [`crate::Machine::charge_fault`]) also lands there. Recovery
//! overhead is therefore directly readable from the stats as the
//! fault-category share of total time.

use serde::{Deserialize, Serialize};

/// One kind of injected fault, with its parameters resolved.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The collective is dropped atomically: no data moves, every alive
    /// device is charged a detection timeout, and the collective returns
    /// [`FabricError::CollectiveDropped`]. Retrying is always safe.
    Drop,
    /// The chunk travelling from device `src` to device `dst` is
    /// corrupted in flight (one element is overwritten). Silent unless
    /// the verified (`*_checked`) collective variant is used.
    Corrupt {
        /// Source device of the damaged chunk.
        src: usize,
        /// Destination device of the damaged chunk.
        dst: usize,
    },
    /// The collective completes but takes `factor`× its modeled time;
    /// the excess is charged as fault time (transient congestion).
    Delay {
        /// Slowdown multiplier, `> 1.0`.
        factor: f64,
    },
    /// Device `device` becomes persistently slow: every subsequent
    /// kernel on it takes `factor`× the modeled time.
    Straggler {
        /// The slowed device.
        device: usize,
        /// Slowdown multiplier, `> 1.0`.
        factor: f64,
    },
    /// Device `device` dies permanently at this collective. The
    /// collective fails with [`FabricError::DeviceLost`] and every
    /// later collective on this machine fails the same way until the
    /// caller re-plans around the loss.
    DeviceLoss {
        /// The lost device.
        device: usize,
    },
    /// Every device on the machine dies at once (rack power loss, fabric
    /// partition): the whole node drops out of the cluster. The
    /// collective fails with [`FabricError::DeviceLost`] for device 0 and
    /// no re-plan over this machine can succeed — recovery must route
    /// around the node (or, in the serving fleet, around the cluster).
    ClusterLoss,
}

impl FaultKind {
    /// Stable lowercase name, used for telemetry instant events.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Drop => "fault-drop",
            FaultKind::Corrupt { .. } => "fault-corrupt",
            FaultKind::Delay { .. } => "fault-delay",
            FaultKind::Straggler { .. } => "fault-straggler",
            FaultKind::DeviceLoss { .. } => "fault-device-loss",
            FaultKind::ClusterLoss => "fault-cluster-loss",
        }
    }
}

/// A fault that was actually injected, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The collective sequence number the fault hit.
    pub seq: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// Per-collective fault probabilities for [`FaultPlan::random`].
///
/// Probabilities are evaluated in the declared order against a single
/// uniform draw, so at most one fault hits any collective and the sum
/// of the rates must stay ≤ 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// P(collective dropped).
    pub drop_p: f64,
    /// P(one chunk corrupted in flight).
    pub corrupt_p: f64,
    /// P(transient delay).
    pub delay_p: f64,
    /// P(a device turns straggler at this collective).
    pub straggler_p: f64,
    /// P(a device dies at this collective).
    pub device_loss_p: f64,
    /// P(the whole machine dies at this collective). Zero in every stock
    /// profile — whole-node loss is catastrophic enough that callers opt
    /// in explicitly (the serving fleet's chaos harness does).
    pub cluster_loss_p: f64,
}

impl FaultRates {
    /// A rate profile where every per-device fault kind fires with
    /// probability `p` (whole-machine loss stays at zero; see
    /// [`FaultRates::cluster_loss_p`]).
    pub fn uniform(p: f64) -> Self {
        Self {
            drop_p: p,
            corrupt_p: p,
            delay_p: p,
            straggler_p: p,
            device_loss_p: p,
            cluster_loss_p: 0.0,
        }
    }

    /// Only transfer faults (drop + corrupt), each with probability `p`.
    /// Devices stay healthy, so single-machine recovery always suffices.
    pub fn transfers_only(p: f64) -> Self {
        Self {
            drop_p: p,
            corrupt_p: p,
            ..Self::default()
        }
    }

    fn total(&self) -> f64 {
        self.drop_p
            + self.corrupt_p
            + self.delay_p
            + self.straggler_p
            + self.device_loss_p
            + self.cluster_loss_p
    }
}

/// A deterministic schedule of faults, keyed by collective sequence
/// number.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultPlan {
    /// Explicit list of faults (targeted tests, examples). Faults whose
    /// `seq` never comes up simply never fire.
    Scripted(Vec<FaultEvent>),
    /// Independent per-collective draws from `rates`, seeded by `seed`.
    /// The decision for sequence number `s` depends only on
    /// `(seed, s, device count)`.
    Random {
        /// Seed for the per-collective hash.
        seed: u64,
        /// Per-kind probabilities.
        rates: FaultRates,
    },
}

/// SplitMix64: the per-sequence-number hash behind random plans.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform f64 in [0, 1) from 53 hash bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan that fires exactly the given faults.
    pub fn scripted(events: Vec<FaultEvent>) -> Self {
        Self::Scripted(events)
    }

    /// A seeded random plan with the given per-collective rates.
    ///
    /// # Panics
    ///
    /// Panics if the rates sum to more than 1.
    pub fn random(seed: u64, rates: FaultRates) -> Self {
        assert!(
            rates.total() <= 1.0,
            "fault rates sum to {} > 1",
            rates.total()
        );
        Self::Random { seed, rates }
    }

    /// The fault (if any) hitting collective `seq` on a machine with
    /// `num_devices` devices. Pure and deterministic.
    pub fn decide(&self, seq: u64, num_devices: usize) -> Option<FaultKind> {
        match self {
            Self::Scripted(events) => events.iter().find(|e| e.seq == seq).map(|e| e.kind),
            Self::Random { seed, rates } => {
                let h = splitmix64(seed ^ seq.wrapping_mul(0xa076_1d64_78bd_642f));
                let u = unit(h);
                // Independent streams for parameter choices.
                let p1 = splitmix64(h ^ 1);
                let p2 = splitmix64(h ^ 2);
                let d = num_devices.max(1);
                let mut lo = 0.0;
                let mut hit = |p: f64| {
                    let in_band = u >= lo && u < lo + p;
                    lo += p;
                    in_band
                };
                if hit(rates.drop_p) {
                    Some(FaultKind::Drop)
                } else if hit(rates.corrupt_p) {
                    let src = (p1 % d as u64) as usize;
                    // A distinct destination when the machine has one.
                    let dst = if d > 1 {
                        (src + 1 + (p2 % (d as u64 - 1)) as usize) % d
                    } else {
                        src
                    };
                    Some(FaultKind::Corrupt { src, dst })
                } else if hit(rates.delay_p) {
                    // 2×–10× transient slowdown.
                    Some(FaultKind::Delay {
                        factor: 2.0 + 8.0 * unit(p1),
                    })
                } else if hit(rates.straggler_p) {
                    // 1.5×–4× persistent slowdown.
                    Some(FaultKind::Straggler {
                        device: (p1 % d as u64) as usize,
                        factor: 1.5 + 2.5 * unit(p2),
                    })
                } else if hit(rates.device_loss_p) {
                    Some(FaultKind::DeviceLoss {
                        device: (p1 % d as u64) as usize,
                    })
                } else if hit(rates.cluster_loss_p) {
                    Some(FaultKind::ClusterLoss)
                } else {
                    None
                }
            }
        }
    }
}

/// Why a collective failed.
///
/// The first three variants are caller bugs (previously `panic!`s); the
/// last two are injected faults that recovery layers are expected to
/// handle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FabricError {
    /// `shards.len()` differed from the device count.
    ShardCountMismatch {
        /// Devices on the machine.
        expected: usize,
        /// Shards supplied.
        got: usize,
    },
    /// Shards had differing lengths.
    UnequalShardLengths,
    /// Shard length is not divisible by the device count.
    IndivisibleShard {
        /// Shard length supplied.
        len: usize,
        /// Device count.
        devices: usize,
    },
    /// The collective was dropped by an injected fault; no data moved,
    /// so retrying the same collective is safe.
    CollectiveDropped {
        /// Sequence number of the dropped collective.
        seq: u64,
    },
    /// A device died (now or earlier); the machine cannot complete
    /// collectives until the caller re-plans around the loss.
    DeviceLost {
        /// The dead device.
        device: usize,
        /// Sequence number at which the failure surfaced.
        seq: u64,
    },
}

impl core::fmt::Display for FabricError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ShardCountMismatch { expected, got } => {
                write!(
                    f,
                    "need exactly one shard per device ({expected} devices, {got} shards)"
                )
            }
            Self::UnequalShardLengths => f.write_str("all shards must have equal length"),
            Self::IndivisibleShard { len, devices } => {
                write!(f, "shard length {len} not divisible by {devices} devices")
            }
            Self::CollectiveDropped { seq } => {
                write!(f, "collective #{seq} dropped by injected fault")
            }
            Self::DeviceLost { device, seq } => {
                write!(f, "device {device} lost (surfaced at collective #{seq})")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl FabricError {
    /// True for errors a retry of the same collective can fix
    /// (transient faults); false for caller bugs and permanent losses.
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::CollectiveDropped { .. })
    }
}

/// What a successful (possibly repaired) collective did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CollectiveReport {
    /// Sequence number of this collective (`0` for degenerate
    /// single-device no-ops, which consume no sequence number).
    pub seq: u64,
    /// The fault injected into this collective, if any survived to
    /// completion (drops and losses return errors instead).
    pub injected: Option<FaultKind>,
    /// Chunks re-requested because verification found them damaged.
    pub retransmitted_chunks: u64,
    /// Bytes re-requested because verification found them damaged.
    pub retransmitted_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_fires_at_exact_seq() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            seq: 3,
            kind: FaultKind::Drop,
        }]);
        assert_eq!(plan.decide(2, 4), None);
        assert_eq!(plan.decide(3, 4), Some(FaultKind::Drop));
        assert_eq!(plan.decide(4, 4), None);
    }

    #[test]
    fn random_is_deterministic() {
        let a = FaultPlan::random(42, FaultRates::uniform(0.05));
        let b = FaultPlan::random(42, FaultRates::uniform(0.05));
        for seq in 0..1000 {
            assert_eq!(a.decide(seq, 8), b.decide(seq, 8));
        }
    }

    #[test]
    fn random_rate_roughly_respected() {
        let plan = FaultPlan::random(7, FaultRates::transfers_only(0.05));
        let hits = (0..10_000).filter(|&s| plan.decide(s, 4).is_some()).count();
        // 2 kinds × 5% = ~10% of collectives; allow wide slack.
        assert!((500..1500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_rates_never_fire() {
        let plan = FaultPlan::random(9, FaultRates::default());
        assert!((0..5000).all(|s| plan.decide(s, 4).is_none()));
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overfull_rates_rejected() {
        let _ = FaultPlan::random(0, FaultRates::uniform(0.3));
    }

    #[test]
    fn corrupt_picks_valid_distinct_devices() {
        let plan = FaultPlan::random(
            11,
            FaultRates {
                corrupt_p: 1.0,
                ..FaultRates::default()
            },
        );
        for seq in 0..500 {
            match plan.decide(seq, 4) {
                Some(FaultKind::Corrupt { src, dst }) => {
                    assert!(src < 4 && dst < 4 && src != dst);
                }
                other => panic!("expected corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn error_display_matches_legacy_messages() {
        let e = FabricError::IndivisibleShard { len: 6, devices: 4 };
        assert!(e.to_string().contains("not divisible"));
        let e = FabricError::ShardCountMismatch {
            expected: 4,
            got: 3,
        };
        assert!(e.to_string().contains("one shard per device"));
    }

    #[test]
    fn transience_classification() {
        assert!(FabricError::CollectiveDropped { seq: 0 }.is_transient());
        assert!(!FabricError::DeviceLost { device: 1, seq: 0 }.is_transient());
        assert!(!FabricError::UnequalShardLengths.is_transient());
    }
}
