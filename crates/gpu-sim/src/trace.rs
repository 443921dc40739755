//! Cost accounting: categories, hierarchy levels, and accumulated stats.
//!
//! A device's books are kept on the integer clock ([`SimTime`]): each
//! charge lands in them as the same whole number of picoseconds its
//! clock advanced by, so per-category totals, the clock and the device's
//! telemetry spans add up exactly. [`Stats::as_ns`] is the `f64` read-out
//! reports print.

use std::ops::Add;

use serde::{Deserialize, Serialize};
use unintt_telemetry::SimTime;

/// Where simulated time is spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Arithmetic (field butterflies, twiddle products).
    Compute,
    /// Global-memory (HBM) traffic.
    GlobalMem,
    /// Shared-memory traffic within a thread block.
    SharedMem,
    /// Register-shuffle exchanges within a warp.
    Shuffle,
    /// Kernel-launch overhead.
    Launch,
    /// Inter-GPU communication.
    Interconnect,
    /// Fault handling: detection timeouts, chunk retransmissions, and
    /// recovery backoff. The fault-category share of total time is the
    /// recovery overhead of a run.
    Fault,
}

impl Category {
    /// All categories, in display order.
    pub const ALL: [Category; 7] = [
        Category::Compute,
        Category::GlobalMem,
        Category::SharedMem,
        Category::Shuffle,
        Category::Launch,
        Category::Interconnect,
        Category::Fault,
    ];

    /// The hierarchy level this category's hardware lives at.
    pub fn level(self) -> Level {
        match self {
            Category::Shuffle => Level::Warp,
            Category::SharedMem => Level::Block,
            Category::Compute | Category::GlobalMem | Category::Launch => Level::Device,
            Category::Interconnect | Category::Fault => Level::MultiGpu,
        }
    }

    /// Stable lowercase name (also what [`core::fmt::Display`] prints);
    /// `&'static` so telemetry can attach it without allocating.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::GlobalMem => "global-mem",
            Category::SharedMem => "shared-mem",
            Category::Shuffle => "shuffle",
            Category::Launch => "launch",
            Category::Interconnect => "interconnect",
            Category::Fault => "fault",
        }
    }
}

impl core::fmt::Display for Category {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The four levels of the multi-GPU hierarchy the paper optimizes across.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// 32 lanes exchanging through registers.
    Warp,
    /// Warps in a thread block exchanging through shared memory.
    Block,
    /// Thread blocks on one GPU exchanging through global memory.
    Device,
    /// GPUs exchanging through the interconnect.
    MultiGpu,
}

impl Level {
    /// All levels, innermost first.
    pub const ALL: [Level; 4] = [Level::Warp, Level::Block, Level::Device, Level::MultiGpu];
}

impl core::fmt::Display for Level {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Level::Warp => "warp",
            Level::Block => "block",
            Level::Device => "device",
            Level::MultiGpu => "multi-gpu",
        };
        f.write_str(s)
    }
}

/// Accumulated simulation statistics (per device, mergeable).
///
/// `T` is the unit of the three time fields. A device books
/// `Stats<SimTime>`: every charge is a whole number of picoseconds, so
/// the books add up exactly. [`Stats::as_ns`] reads them out as `Stats`
/// in `f64` nanoseconds, for reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats<T = f64> {
    /// Simulated time charged, by bottleneck category. Each kernel's full
    /// roofline time lands on the single category that dominated it.
    pub time_ns: TimeByCategory<T>,
    /// Raw (overlap-ignoring) component time: every kernel adds each of
    /// its pipeline components here, whether or not it was the
    /// bottleneck. Use for "where does the work live" breakdowns; sums to
    /// more than the makespan by construction.
    pub raw_time_ns: TimeByCategory<T>,
    /// Bytes read from global memory.
    pub global_bytes_read: u64,
    /// Bytes written to global memory.
    pub global_bytes_written: u64,
    /// Bytes this device injected into the inter-GPU fabric.
    pub interconnect_bytes_sent: u64,
    /// Bytes re-sent after verification detected corruption.
    pub interconnect_bytes_retransmitted: u64,
    /// Interconnect time hidden behind compute by overlapped collectives
    /// (already *excluded* from `time_ns.interconnect`; the raw,
    /// overlap-blind charge is in `raw_time_ns.interconnect`).
    pub comm_hidden_ns: T,
    /// Kernel launches.
    pub kernels_launched: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Injected faults observed by this device.
    pub faults_injected: u64,
    /// Collective attempts retried after transient failures.
    pub retries: u64,
    /// Field multiplications executed.
    pub field_muls: u64,
    /// Field additions executed.
    pub field_adds: u64,
    /// Warp-shuffle operations.
    pub shuffle_ops: u64,
    /// Shared-memory accesses (bank-conflict-weighted accesses are charged
    /// in time, this counts raw accesses).
    pub shared_accesses: u64,
}

/// Simulated time indexed by [`Category`], in the unit `T` (see
/// [`Stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeByCategory<T = f64> {
    /// See [`Category::Compute`].
    pub compute: T,
    /// See [`Category::GlobalMem`].
    pub global_mem: T,
    /// See [`Category::SharedMem`].
    pub shared_mem: T,
    /// See [`Category::Shuffle`].
    pub shuffle: T,
    /// See [`Category::Launch`].
    pub launch: T,
    /// See [`Category::Interconnect`].
    pub interconnect: T,
    /// See [`Category::Fault`].
    pub fault: T,
}

impl<T: Copy + Default + PartialOrd + Add<Output = T>> TimeByCategory<T> {
    /// Mutable access by category.
    pub fn get_mut(&mut self, cat: Category) -> &mut T {
        match cat {
            Category::Compute => &mut self.compute,
            Category::GlobalMem => &mut self.global_mem,
            Category::SharedMem => &mut self.shared_mem,
            Category::Shuffle => &mut self.shuffle,
            Category::Launch => &mut self.launch,
            Category::Interconnect => &mut self.interconnect,
            Category::Fault => &mut self.fault,
        }
    }

    /// Read access by category.
    pub fn get(&self, cat: Category) -> T {
        match cat {
            Category::Compute => self.compute,
            Category::GlobalMem => self.global_mem,
            Category::SharedMem => self.shared_mem,
            Category::Shuffle => self.shuffle,
            Category::Launch => self.launch,
            Category::Interconnect => self.interconnect,
            Category::Fault => self.fault,
        }
    }

    /// Total across categories.
    pub fn total(&self) -> T {
        Category::ALL
            .iter()
            .fold(T::default(), |sum, &c| sum + self.get(c))
    }

    /// Element-wise maximum (used when merging per-device critical paths).
    pub fn max_merge(&mut self, other: &Self) {
        for cat in Category::ALL {
            if other.get(cat) > self.get(cat) {
                *self.get_mut(cat) = other.get(cat);
            }
        }
    }

    /// Time aggregated to hierarchy levels.
    pub fn by_level(&self) -> [(Level, T); 4] {
        let mut out = Level::ALL.map(|level| (level, T::default()));
        for cat in Category::ALL {
            let idx = match cat.level() {
                Level::Warp => 0,
                Level::Block => 1,
                Level::Device => 2,
                Level::MultiGpu => 3,
            };
            out[idx].1 = out[idx].1 + self.get(cat);
        }
        out
    }
}

impl TimeByCategory<SimTime> {
    /// The same books in nanoseconds.
    pub fn as_ns(&self) -> TimeByCategory {
        TimeByCategory {
            compute: self.compute.as_ns(),
            global_mem: self.global_mem.as_ns(),
            shared_mem: self.shared_mem.as_ns(),
            shuffle: self.shuffle.as_ns(),
            launch: self.launch.as_ns(),
            interconnect: self.interconnect.as_ns(),
            fault: self.fault.as_ns(),
        }
    }
}

impl<T: Copy + Default + PartialOrd + Add<Output = T>> Stats<T> {
    /// Creates empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another device's stats: counters sum, per-category times take
    /// the maximum (devices run concurrently, so the per-category critical
    /// path is the max across symmetric devices).
    pub fn merge_concurrent(&mut self, other: &Self) {
        self.time_ns.max_merge(&other.time_ns);
        self.raw_time_ns.max_merge(&other.raw_time_ns);
        self.global_bytes_read += other.global_bytes_read;
        self.global_bytes_written += other.global_bytes_written;
        self.interconnect_bytes_sent += other.interconnect_bytes_sent;
        self.interconnect_bytes_retransmitted += other.interconnect_bytes_retransmitted;
        if other.comm_hidden_ns > self.comm_hidden_ns {
            self.comm_hidden_ns = other.comm_hidden_ns;
        }
        self.kernels_launched += other.kernels_launched;
        self.collectives += other.collectives;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.field_muls += other.field_muls;
        self.field_adds += other.field_adds;
        self.shuffle_ops += other.shuffle_ops;
        self.shared_accesses += other.shared_accesses;
    }
}

impl Stats<SimTime> {
    /// The same books with their times in nanoseconds.
    pub fn as_ns(&self) -> Stats {
        Stats {
            time_ns: self.time_ns.as_ns(),
            raw_time_ns: self.raw_time_ns.as_ns(),
            global_bytes_read: self.global_bytes_read,
            global_bytes_written: self.global_bytes_written,
            interconnect_bytes_sent: self.interconnect_bytes_sent,
            interconnect_bytes_retransmitted: self.interconnect_bytes_retransmitted,
            comm_hidden_ns: self.comm_hidden_ns.as_ns(),
            kernels_launched: self.kernels_launched,
            collectives: self.collectives,
            faults_injected: self.faults_injected,
            retries: self.retries,
            field_muls: self.field_muls,
            field_adds: self.field_adds,
            shuffle_ops: self.shuffle_ops,
            shared_accesses: self.shared_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_level_mapping() {
        assert_eq!(Category::Shuffle.level(), Level::Warp);
        assert_eq!(Category::SharedMem.level(), Level::Block);
        assert_eq!(Category::GlobalMem.level(), Level::Device);
        assert_eq!(Category::Interconnect.level(), Level::MultiGpu);
    }

    #[test]
    fn time_by_category_accessors() {
        let mut t = TimeByCategory::<f64>::default();
        *t.get_mut(Category::Compute) += 5.0;
        *t.get_mut(Category::Interconnect) += 7.0;
        assert_eq!(t.get(Category::Compute), 5.0);
        assert_eq!(t.total(), 12.0);
    }

    #[test]
    fn by_level_aggregates_device_categories() {
        let t = TimeByCategory {
            compute: 1.0,
            global_mem: 2.0,
            launch: 3.0,
            shuffle: 10.0,
            ..TimeByCategory::default()
        };
        let by = t.by_level();
        assert_eq!(by[0], (Level::Warp, 10.0));
        assert_eq!(by[2], (Level::Device, 6.0));
    }

    #[test]
    fn merge_concurrent_sums_counters_maxes_times() {
        let mut a = Stats::new();
        a.global_bytes_read = 100;
        a.time_ns.compute = 5.0;
        let mut b = Stats::new();
        b.global_bytes_read = 50;
        b.time_ns.compute = 9.0;
        a.merge_concurrent(&b);
        assert_eq!(a.global_bytes_read, 150);
        assert_eq!(a.time_ns.compute, 9.0);
    }

    #[test]
    fn display_strings() {
        assert_eq!(Level::MultiGpu.to_string(), "multi-gpu");
        assert_eq!(Category::GlobalMem.to_string(), "global-mem");
    }
}
