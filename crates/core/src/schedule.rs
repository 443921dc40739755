//! One schedule, one walker: the recursion of [`crate::decompose`] as code.
//!
//! Every level this crate executes — the multi-GPU fabric
//! ([`crate::UniNttEngine`]), the multi-node cluster
//! ([`crate::ClusterNttEngine`]) and the four-step baseline — runs the
//! same steps: local sub-transforms with the boundary twiddle fused in,
//! one exchange through the level's medium, the outer transform. A
//! [`Schedule`] is that list for one transform; [`walk`] runs it front to
//! back for a forward transform and back to front for an inverse one.
//!
//! What moves through the phases is the level's *plane*, and each level
//! has exactly two: one holds the elements and does the host arithmetic
//! and the real collectives, the other holds only a count and charges
//! the same collectives without data. Every launch, pipeline, layout
//! stamp and span is therefore written once; a cost-only "simulate" is
//! the walk with nothing to move, and cannot drift from the functional
//! run because it is the functional run.

use unintt_ntt::Direction;
use unintt_telemetry::{AttrValue, Span, SpanLevel};

use crate::RecoveryPolicy;

/// What moves through the phases of a transform: sharded vectors through
/// the fabric's, one host vector per node through the cluster's.
pub(crate) enum Plane<'a, T> {
    /// The data itself, transformed in place, and how transient collective
    /// faults are absorbed: phases do the host arithmetic and run the real
    /// collectives under the policy.
    Elements(&'a mut [T], &'a RecoveryPolicy),
    /// Nothing but a count of vectors: phases only charge.
    Unit(u64),
}

impl<'a, T> Plane<'a, T> {
    /// The element plane with no recovery: the first fabric error is final.
    pub(crate) fn unguarded(data: &'a mut [T]) -> Self {
        const NONE: RecoveryPolicy = RecoveryPolicy::none();
        Plane::Elements(data, &NONE)
    }

    /// How many vectors the plane stands for.
    pub(crate) fn len(&self) -> u64 {
        match self {
            Plane::Elements(data, _) => data.len() as u64,
            Plane::Unit(count) => *count,
        }
    }
}

/// Span attributes a phase hands back to the walker.
pub(crate) type Attrs = Vec<(&'static str, AttrValue)>;

/// One step of a transform. The first three are lead-ins outside the
/// transform proper (and its root span); the rest are the recursion's own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Coset scaling `cᵢ ← cᵢ·shiftⁱ`, fused into the first local pass.
    Scale,
    /// The four-step baseline's standalone bucket pack / unpack kernel.
    Pack,
    /// The four-step baseline's layout-conversion all-to-all (blocking).
    Convert,
    /// Local sub-transforms plus the fused boundary twiddle.
    Local,
    /// The level's one exchange, pipelined or blocking.
    Exchange,
    /// The outer transform down the received columns.
    Outer,
    /// The extra all-to-all restoring natural output order (blocking).
    NaturalReorder,
}

impl Phase {
    /// `(name, category)` of this phase's span at `level`; `None` for the
    /// lead-ins, which record no span.
    fn span(self, level: SpanLevel) -> Option<(&'static str, &'static str)> {
        let cluster = level == SpanLevel::Cluster;
        Some(match self {
            Phase::Scale | Phase::Pack | Phase::Convert => return None,
            Phase::Local if cluster => ("node-phase", "phase"),
            Phase::Local => ("local-phase", "phase"),
            Phase::Exchange if cluster => ("cluster-exchange", "interconnect"),
            Phase::Exchange => ("exchange", "interconnect"),
            Phase::Outer => ("outer-phase", "phase"),
            Phase::NaturalReorder => ("natural-reorder", "interconnect"),
        })
    }
}

/// The ordered phases of one transform, in forward order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Schedule {
    phases: [Phase; 6],
    len: usize,
}

impl Schedule {
    /// `lead → local → (exchange → outer → natural-reorder?)?`. A level
    /// with one participant has nothing to exchange — or to convert, so
    /// only a [`Phase::Scale`] lead-in survives there.
    pub(crate) fn derive(lead: &[Phase], exchange: bool, reorder: bool) -> Self {
        use Phase::{Exchange, Local, NaturalReorder, Outer};
        let core = [Local, Exchange, Outer, NaturalReorder];
        let core = &core[..match (exchange, reorder) {
            (false, _) => 1,
            (true, false) => 3,
            (true, true) => 4,
        }];
        let lead = lead.iter().filter(|&&p| exchange || p == Phase::Scale);
        let (phases, len) = ([Local; 6], 0);
        let mut schedule = Self { phases, len };
        for &phase in lead.chain(core) {
            schedule.phases[schedule.len] = phase;
            schedule.len += 1;
        }
        schedule
    }
}

/// How the walker reads a level's clock and names its spans.
pub(crate) struct Level<Hw> {
    /// The hierarchy level the spans are recorded at.
    pub span_level: SpanLevel,
    /// The level's simulated clock.
    pub clock_ns: fn(&Hw) -> f64,
    /// The telemetry track the spans render on.
    pub track: fn(&Hw) -> String,
}

/// Runs `schedule` on `hw`: front to back for [`Direction::Forward`], back
/// to front for [`Direction::Inverse`]. `phase(hw, phase, observed)` moves
/// whatever the caller's plane holds and charges `hw`, returning the
/// phase's span attributes when `observed`. The transform's own phases
/// each record a span under one root span (`root()` names it; recorded
/// last, under an id reserved before the first of them); lead-ins record
/// none and sit outside the root.
pub(crate) fn walk<Hw, E>(
    level: &Level<Hw>,
    hw: &mut Hw,
    schedule: &Schedule,
    direction: Direction,
    root: impl FnOnce() -> (&'static str, Attrs),
    mut phase: impl FnMut(&mut Hw, Phase, bool) -> Result<Attrs, E>,
) -> Result<(), E> {
    let phases = &schedule.phases[..schedule.len];
    let named = |p: &Phase| p.span(level.span_level);
    let clock = level.clock_ns;
    let record =
        |hw: &Hw, id: Option<u64>, parent, (name, category): (&str, _), t_start_ns, attrs| {
            unintt_telemetry::record_span(|| Span {
                id: id.unwrap_or_else(unintt_telemetry::fresh_id),
                parent,
                name: name.to_string(),
                level: level.span_level,
                category,
                track: (level.track)(hw),
                t_start_ns,
                t_end_ns: clock(hw),
                attrs,
            });
        };
    // The transform proper is the tail of the list, after the lead-ins.
    let last = phases.len() - 1;
    let first = phases
        .iter()
        .position(|p| named(p).is_some())
        .expect("every schedule has a local phase");
    let (enter, leave) = match direction {
        Direction::Forward => (first, last),
        Direction::Inverse => (last, first),
    };
    // `(root id, start)` while inside the transform, and only with
    // telemetry on: the disabled path never builds an attribute.
    let mut open = None;
    let mut root = Some(root);
    for step in 0..=last {
        let i = match direction {
            Direction::Forward => step,
            Direction::Inverse => last - step,
        };
        if i == enter {
            open = unintt_telemetry::reserve_span_id().map(|id| (id, clock(hw)));
        }
        let t_start_ns = open.map_or(0.0, |_| clock(hw));
        let attrs = phase(hw, phases[i], open.is_some())?;
        if let (Some((root_id, _)), Some(span)) = (open, named(&phases[i])) {
            record(hw, None, Some(root_id), span, t_start_ns, attrs);
        }
        if i == leave {
            if let (Some((root_id, t_begin)), Some(root)) = (open.take(), root.take()) {
                let (name, attrs) = root();
                record(hw, Some(root_id), None, (name, "transform"), t_begin, attrs);
            }
        }
    }
    Ok(())
}
