//! Span and instant-event types recorded against the simulated clock.
//!
//! Every timestamp in this module is a simulated nanosecond produced by
//! the cost model — never wall-clock time. Two runs of the same workload
//! therefore produce byte-identical telemetry, which is what makes the
//! traces replayable and diffable.

/// Where in the paper's execution hierarchy a span lives.
///
/// The ordering is meaningful: `Warp < Block < Device < Fabric < Cluster
/// < Serve`, mirroring warp → thread block → GPU → multi-GPU fabric →
/// multi-node cluster → proving service. Parent derivation (see
/// [`crate::SpanTree::build`]) only ever attaches a span to one of a
/// *strictly higher* level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanLevel {
    /// A warp-scope operation (shuffle-based butterfly stages).
    Warp,
    /// A thread-block scope operation (shared-memory stages).
    Block,
    /// A single simulated GPU: kernels, per-device collective legs.
    Device,
    /// The multi-GPU fabric inside one node: NTT phases, exchanges.
    Fabric,
    /// The multi-node cluster: node phases, network all-to-alls.
    Cluster,
    /// The proving service: job lifecycle, lease dispatches.
    Serve,
}

impl SpanLevel {
    /// Stable lowercase name used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanLevel::Warp => "warp",
            SpanLevel::Block => "block",
            SpanLevel::Device => "device",
            SpanLevel::Fabric => "fabric",
            SpanLevel::Cluster => "cluster",
            SpanLevel::Serve => "serve",
        }
    }
}

/// A typed attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (counts, bytes, ids).
    U64(u64),
    /// A simulated-time or ratio value.
    F64(f64),
    /// A short static label (modes, kinds).
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

/// A closed interval of simulated time on one track.
///
/// Spans are recorded *after* they end (both endpoints are known), so
/// there is no open/running state to manage and the disabled path never
/// has to track anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Session-unique id (from [`crate::fresh_id`]).
    pub id: u64,
    /// Explicit parent span id, or `None` to let the tree builder derive
    /// one by interval containment.
    pub parent: Option<u64>,
    /// Human-readable name ("local-phase", "exchange", "job", ...).
    pub name: String,
    /// Hierarchy level; drives parent derivation and trace filtering.
    pub level: SpanLevel,
    /// Cost category ("compute", "interconnect", "phase", ...).
    pub category: &'static str,
    /// The timeline this span renders on (one Perfetto thread per track).
    pub track: String,
    /// Simulated start, ns.
    pub t_start_ns: f64,
    /// Simulated end, ns.
    pub t_end_ns: f64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Simulated duration in nanoseconds (never negative).
    pub fn duration_ns(&self) -> f64 {
        (self.t_end_ns - self.t_start_ns).max(0.0)
    }
}

/// What kind of zero-duration event an [`Instant`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// A fault-plan decision fired (drop, corrupt, delay, ...).
    Fault,
    /// A chunk that failed verification was re-sent over the fabric.
    Retransmission,
    /// A lease went through post-dispatch repair.
    LeaseRepair,
    /// The batch coalescer closed a window and released a batch.
    CoalescerFlush,
    /// A collective finished (op, bytes, hidden time in attrs).
    Collective,
    /// A cluster's work was re-sharded onto survivors after a failure.
    Failover,
    /// A straggling dispatch was speculatively re-dispatched elsewhere.
    Hedge,
    /// A job was shed by backpressure or cancelled past its deadline.
    Shed,
    /// A cluster health-state transition (quarantine, probe, recovery).
    Quarantine,
    /// An SLO burn-rate alert fired (fast + slow windows both over).
    Alert,
    /// A fabric link's end-of-run occupancy summary (bytes, busy time).
    LinkUtilization,
}

impl InstantKind {
    /// Stable lowercase name used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            InstantKind::Fault => "fault",
            InstantKind::Retransmission => "retransmission",
            InstantKind::LeaseRepair => "lease-repair",
            InstantKind::CoalescerFlush => "coalescer-flush",
            InstantKind::Collective => "collective",
            InstantKind::Failover => "failover",
            InstantKind::Hedge => "hedge",
            InstantKind::Shed => "shed",
            InstantKind::Quarantine => "quarantine",
            InstantKind::Alert => "alert",
            InstantKind::LinkUtilization => "link-utilization",
        }
    }
}

/// A zero-duration marker on a track (Perfetto "instant" event).
#[derive(Debug, Clone, PartialEq)]
pub struct Instant {
    /// Human-readable name ("fault-drop", "chunk-retransmit", ...).
    pub name: String,
    /// Event class; becomes the trace category.
    pub kind: InstantKind,
    /// The timeline the marker renders on.
    pub track: String,
    /// Simulated time of the event, ns.
    pub t_ns: f64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Everything recorded between enabling telemetry and draining the sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Session {
    /// Closed spans, in recording order.
    pub spans: Vec<Span>,
    /// Instant events, in recording order.
    pub instants: Vec<Instant>,
}

impl Session {
    /// An empty session (const so the global sink can be a static).
    pub const fn empty() -> Self {
        Session {
            spans: Vec::new(),
            instants: Vec::new(),
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.instants.is_empty()
    }

    /// Prefixes every track name, used to namespace merged sections
    /// ("e1/", "serve/") inside one exported trace.
    pub fn prefix_tracks(&mut self, prefix: &str) {
        for s in &mut self.spans {
            s.track = format!("{prefix}{}", s.track);
        }
        for i in &mut self.instants {
            i.track = format!("{prefix}{}", i.track);
        }
    }

    /// Appends all events from `other`, preserving order.
    pub fn merge(&mut self, other: Session) {
        self.spans.extend(other.spans);
        self.instants.extend(other.instants);
    }
}
