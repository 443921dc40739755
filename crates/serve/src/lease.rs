//! GPU leases: fixed slices of the simulated cluster that batches run on.
//!
//! Each lease owns a `nodes × gpus_per_node` slice and holds one
//! [`Cluster`] per field it has served (cost models are per-field). A
//! dispatch resets that cluster to the state a freshly built one has and
//! re-applies the device losses the lease has accumulated — so a lease
//! degraded by an earlier fault stays degraded until repaired. A lease
//! whose every node has lost a GPU is taken out of service for
//! the configured repair time and comes back whole.

use unintt_core::{Cluster, NetworkConfig};
use unintt_gpu_sim::{presets, SimTime};

use crate::config::LeaseShape;
use crate::job::ServiceField;

/// One schedulable slice of the cluster.
#[derive(Debug)]
pub struct Lease {
    /// Stable index, used as the deterministic tie-breaker.
    pub id: usize,
    shape: LeaseShape,
    /// Simulated instant the current (or last) dispatch finishes.
    pub free_at: SimTime,
    /// Total simulated time spent running batches.
    pub busy: SimTime,
    /// Batches dispatched on this lease.
    pub dispatches: u64,
    /// Times the lease was swapped for fresh hardware.
    pub repairs: u32,
    /// `(node, device)` pairs lost to injected device-loss faults, in
    /// discovery order.
    dead: Vec<(usize, usize)>,
    /// The cluster slice per field served so far, reset per dispatch.
    clusters: Vec<(ServiceField, Cluster)>,
}

impl Lease {
    fn new(id: usize, shape: LeaseShape) -> Self {
        Self {
            id,
            shape,
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            dispatches: 0,
            repairs: 0,
            dead: Vec::new(),
            clusters: Vec::new(),
        }
    }

    /// A fresh cluster slice for `field`, its nodes labelled by lease.
    fn build_cluster(&self, field: ServiceField) -> Cluster {
        let node_cfg = presets::a100_nvlink(self.shape.gpus_per_node);
        let network = NetworkConfig::infiniband_400g();
        let mut cluster = Cluster::new(self.shape.nodes, node_cfg, network, field.spec());
        for node in 0..self.shape.nodes {
            cluster
                .node_mut(node)
                .set_label(format!("lease{}-node{node}", self.id));
        }
        cluster
    }

    /// Runs one dispatch, `f`, on this lease's cluster slice for `field`.
    /// The held cluster is first [reset](Cluster::reset) to a fresh one's
    /// state and the lease's accumulated device losses are re-applied;
    /// afterwards any GPU found dead stays dead for future dispatches.
    pub(crate) fn with_cluster<R>(
        &mut self,
        field: ServiceField,
        f: impl FnOnce(&mut Cluster) -> R,
    ) -> R {
        let held = match self
            .clusters
            .iter()
            .position(|(served, _)| *served == field)
        {
            Some(held) => held,
            None => {
                self.clusters.push((field, self.build_cluster(field)));
                self.clusters.len() - 1
            }
        };
        let cluster = &mut self.clusters[held].1;
        cluster.reset();
        for &(node, device) in &self.dead {
            cluster.node_mut(node).fail_device(device);
        }
        let out = f(cluster);
        for node in 0..self.shape.nodes {
            let machine = cluster.node(node);
            for device in 0..machine.num_devices() {
                if !machine.is_alive(device) && !self.dead.contains(&(node, device)) {
                    self.dead.push((node, device));
                }
            }
        }
        out
    }

    /// Nodes with every GPU still alive.
    pub fn healthy_nodes(&self) -> usize {
        (0..self.shape.nodes)
            .filter(|&n| !self.dead.iter().any(|&(dn, _)| dn == n))
            .count()
    }

    /// True when no healthy node remains: the cluster engine cannot plan
    /// even a degraded run, so the lease must be repaired.
    pub fn is_dead(&self) -> bool {
        self.healthy_nodes() == 0
    }

    /// Swaps the lease for fresh hardware: losses clear, and the lease
    /// rejoins the pool `repair` after `now` (or after its current run).
    pub fn repair(&mut self, now: SimTime, repair: SimTime) {
        self.dead.clear();
        self.repairs += 1;
        self.free_at = self.free_at.max(now) + repair;
    }

    /// GPUs currently lost.
    pub fn lost_devices(&self) -> usize {
        self.dead.len()
    }

    /// The lease shape.
    pub fn shape(&self) -> LeaseShape {
        self.shape
    }
}

/// The fixed pool of leases the scheduler draws from.
#[derive(Debug)]
pub struct LeasePool {
    leases: Vec<Lease>,
}

impl LeasePool {
    /// A pool of `count` identical leases (`count` clamped to ≥ 1).
    pub fn new(count: usize, shape: LeaseShape) -> Self {
        Self {
            leases: (0..count.max(1)).map(|id| Lease::new(id, shape)).collect(),
        }
    }

    /// The lease that frees earliest (ties broken by lowest id).
    pub fn earliest(&mut self) -> &mut Lease {
        self.leases
            .iter_mut()
            .min_by_key(|l| (l.free_at, l.id))
            .expect("pool is never empty")
    }

    /// The earliest instant any lease is free.
    pub fn next_free(&self) -> SimTime {
        self.leases
            .iter()
            .map(|l| l.free_at)
            .min()
            .expect("pool is never empty")
    }

    /// Mutable access to one lease by id.
    pub fn lease_mut(&mut self, id: usize) -> &mut Lease {
        &mut self.leases[id]
    }

    /// All leases, for metrics.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// Number of leases.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Never true — pools hold at least one lease.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_breaks_ties_by_id() {
        let mut pool = LeasePool::new(3, LeaseShape::default());
        assert_eq!(pool.earliest().id, 0);
        pool.leases[0].free_at = SimTime::from_ns(100.0);
        assert_eq!(pool.earliest().id, 1);
        pool.leases[1].free_at = SimTime::from_ns(50.0);
        pool.leases[2].free_at = SimTime::from_ns(50.0);
        assert_eq!(pool.earliest().id, 1, "equal clocks resolve by id");
    }

    #[test]
    fn losses_persist_across_dispatch_clusters() {
        let mut lease = Lease::new(0, LeaseShape::default());
        lease.with_cluster(ServiceField::Goldilocks, |c| c.node_mut(1).fail_device(0));
        assert_eq!(lease.lost_devices(), 1);
        assert_eq!(lease.healthy_nodes(), 1);

        // The next dispatch on this lease, in either field, comes up with
        // the same GPU dead.
        for field in [ServiceField::BabyBear, ServiceField::Goldilocks] {
            lease.with_cluster(field, |next| {
                assert!(!next.node(1).is_alive(0));
                assert!(next.node(0).is_alive(0));
            });
        }
        assert_eq!(lease.lost_devices(), 1, "a loss is recorded once");
    }

    #[test]
    fn repair_clears_losses_and_charges_time() {
        let mut lease = Lease::new(0, LeaseShape::default());
        lease.with_cluster(ServiceField::Goldilocks, |c| {
            c.node_mut(0).fail_device(0);
            c.node_mut(1).fail_device(1);
        });
        assert!(lease.is_dead());

        lease.repair(SimTime::from_ns(1_000.0), SimTime::from_ns(5_000.0));
        assert!(!lease.is_dead());
        assert_eq!(lease.lost_devices(), 0);
        assert_eq!(lease.free_at, SimTime::from_ns(6_000.0));
        assert_eq!(lease.repairs, 1);
        lease.with_cluster(ServiceField::Goldilocks, |c| {
            assert_eq!(c.healthy_nodes(), vec![0, 1], "repaired hardware is whole");
        });
    }

    /// One sequence of raw dispatches on one lease, run twice: once on
    /// the held clusters, once on a cluster built from scratch for every
    /// dispatch. Goldilocks and BabyBear alternate, fault injection
    /// (every kind) is on for three dispatches in four, and a device is
    /// lost mid-sequence. Every dispatch's result and the cluster it
    /// leaves behind must be equal to the last bit.
    #[test]
    fn reset_cluster_equals_a_fresh_one() {
        use unintt_gpu_sim::FaultRates;
        use unintt_ntt::Direction;

        use crate::coalesce::{BatchKey, QueuedJob};
        use crate::config::ServiceConfig;
        use crate::dispatch::{run_raw_batch, EngineCaches};
        use crate::job::{JobClass, JobId, JobSpec};

        let rates = FaultRates {
            drop_p: 0.05,
            corrupt_p: 0.05,
            delay_p: 0.05,
            straggler_p: 0.05,
            device_loss_p: 0.01,
            ..FaultRates::default()
        };
        let run = |fresh_each: bool| {
            let mut lease = Lease::new(1, LeaseShape::default());
            let mut caches = EngineCaches::default();
            let (mut trace, mut losses) = (Vec::new(), 0);
            for step in 0..24u64 {
                let field = [ServiceField::Goldilocks, ServiceField::BabyBear][step as usize % 2];
                if step == 11 {
                    lease.with_cluster(field, |c| c.node_mut(0).fail_device(1));
                }
                let cfg = ServiceConfig {
                    fault_rates: (step % 4 != 3).then_some(rates),
                    ..ServiceConfig::default()
                };
                let log_n = 8 + (step % 3) as u32;
                let direction = [Direction::Forward, Direction::Inverse][(step % 5 % 2) as usize];
                let key = BatchKey {
                    field,
                    log_n,
                    forward: direction == Direction::Forward,
                };
                let class = JobClass::RawNtt {
                    field,
                    log_n,
                    direction,
                };
                let jobs: Vec<QueuedJob> = (0..3)
                    .map(|i| QueuedJob {
                        id: JobId(3 * step + i),
                        spec: JobSpec::new(0, class, 0.0),
                    })
                    .collect();
                let fresh = {
                    let mut fresh = lease.build_cluster(field);
                    for &(node, device) in &lease.dead {
                        fresh.node_mut(node).fail_device(device);
                    }
                    fresh
                };
                trace.push(lease.with_cluster(field, |cluster| {
                    if fresh_each {
                        *cluster = fresh;
                    } else {
                        assert_eq!(format!("{cluster:?}"), format!("{fresh:?}"));
                    }
                    let start = SimTime::from_ns(1e5 * step as f64);
                    let r = run_raw_batch(&mut caches, &cfg, key, &jobs, cluster, step, start);
                    let report = format!("{:?} {:?}", r.completions, r.leftover);
                    (r.elapsed, report, format!("{cluster:?}"))
                }));
                losses = losses.max(lease.lost_devices());
                if lease.is_dead() {
                    lease.repair(SimTime::ZERO, SimTime::ZERO);
                }
            }
            assert!(losses > 0, "a device is lost mid-sequence");
            trace
        };
        let (held, fresh) = (run(false), run(true));
        for (step, (h, f)) in held.iter().zip(&fresh).enumerate() {
            assert!(
                h == f,
                "dispatch {step} differs between held and fresh clusters"
            );
        }
    }
}
