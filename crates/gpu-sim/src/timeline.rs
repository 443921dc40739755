//! Per-device event timelines: what ran, when, and why it took that long.
//!
//! Every kernel launch and collective appends a [`TraceEvent`] to its
//! device's timeline (bounded; see [`MAX_EVENTS`]). The timeline is the
//! simulator's equivalent of an Nsight trace — the tool for answering
//! "where did the 400 µs go" questions that aggregate [`crate::Stats`]
//! cannot.

use unintt_telemetry::SimTime;

use crate::trace::Category;

/// Maximum events retained per device; beyond this, events are counted
/// but not stored (timelines are a debugging aid, not an unbounded log).
pub const MAX_EVENTS: usize = 4096;

/// One executed kernel or collective.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Kernel or collective name.
    pub name: &'static str,
    /// Simulated start time on the device stream.
    pub start: SimTime,
    /// Simulated duration.
    pub duration: SimTime,
    /// The bottleneck category the duration was attributed to.
    pub category: Category,
    /// The compute queue (stream) the work ran on. `0` is the default
    /// stream; stage schedulers running co-resident work through
    /// [`crate::StreamSet`] tag their queues so traces show the overlap.
    pub queue: u32,
}

/// A bounded per-device event log.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Timeline {
    /// Records an event (or counts it as dropped past [`MAX_EVENTS`]).
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total number of events observed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Renders a compact text trace (one line per event).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{:>12.2} µs  +{:>9.2} µs  {:<24} [{}]{}",
                e.start.as_ns() / 1e3,
                e.duration.as_ns() / 1e3,
                e.name,
                e.category,
                if e.queue > 0 {
                    format!(" q{}", e.queue)
                } else {
                    String::new()
                }
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "… {} further events dropped", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, start: u64) -> TraceEvent {
        TraceEvent {
            name,
            start: SimTime(start),
            duration: SimTime(10_000),
            category: Category::Compute,
            queue: 0,
        }
    }

    #[test]
    fn records_in_order() {
        let mut t = Timeline::default();
        t.push(event("a", 0));
        t.push(event("b", 10_000));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[1].name, "b");
        assert_eq!(t.total(), 2);
    }

    #[test]
    fn bounds_and_counts_drops() {
        let mut t = Timeline::default();
        for i in 0..(MAX_EVENTS + 5) {
            t.push(event("k", i as u64));
        }
        assert_eq!(t.events().len(), MAX_EVENTS);
        assert_eq!(t.dropped(), 5);
        assert_eq!(t.total(), (MAX_EVENTS + 5) as u64);
        assert!(t.render().contains("further events dropped"));
    }

    #[test]
    fn render_contains_names() {
        let mut t = Timeline::default();
        t.push(event("my-kernel", 1_000_000));
        let s = t.render();
        assert!(s.contains("my-kernel"));
        assert!(s.contains("[compute]"));
    }
}
