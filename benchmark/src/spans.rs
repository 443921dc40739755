//! The benchmark's own span recorder.
//!
//! Spans are recorded here, around the calls the benchmark makes into each
//! layer, never inside `crates/`. Every op gets a root span; the spans of
//! one op share its identifier (`<workload>#<index>`). Spans stay in
//! memory and are written once, at exit, as Chrome-trace JSON that
//! Perfetto (<https://ui.perfetto.dev>) loads directly.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed interval on the wall clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The span that caused this one (`None` for an op's root span).
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op.
    pub op: String,
    /// What ran.
    pub name: String,
    /// The layer crate the call went into (`bench` for harness spans).
    pub layer: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span sink. A disabled recorder runs the closures it is
/// handed and records nothing, so timed ops and traced ops share code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<usize>,
    op: String,
}

impl Recorder {
    /// A recorder that records nothing (timed rounds: tracing is off).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder (traced round).
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: String::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as the root span of op `op` (layer `bench`).
    pub fn op<R>(&mut self, op: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = op.to_string();
        self.span("bench", op, f)
    }

    /// Runs `f` inside a span named `name` charged to `layer`, nested
    /// under whichever span is open.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            op: self.op.clone(),
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }
}

/// Self time of span `idx`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = me.start_ns;
    for (a, b) in kids {
        let a = a.max(frontier);
        if b > a {
            covered += b - a;
            frontier = b;
        }
    }
    me.duration_ns() - covered
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Chrome-trace JSON (`traceEvents`, complete events, µs) for `spans`.
/// All spans come from the one driver thread, so nesting in the viewer
/// follows from containment in time.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"op\":\"{}\",\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            json_escape(&s.name),
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            json_escape(&s.op),
            i,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            self_ns(spans, i) as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            op: "w#0".into(),
            name: "s".into(),
            layer: "bench",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_once() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 70),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 30);
        assert_eq!(self_ns(&spans, 1), 20);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_merges_overlap() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 50), // nested: charged to span 1, not the root
            span(Some(0), 50, 80), // overlaps span 1 by 10
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 70);
        assert_eq!(self_ns(&spans, 1), 50 - 30);
    }

    #[test]
    fn recorder_nests_children_inside_their_root_and_shares_the_op_id() {
        let mut rec = Recorder::on();
        let got = rec.op("w#3", |rec| {
            rec.span("ntt", "a", |rec| rec.span("ff", "b", |_| 7)) + rec.span("msm", "c", |_| 1)
        });
        assert_eq!(got, 8);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            s.iter().map(|x| x.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|x| x.op == "w#3"));
        for child in &s[1..] {
            let parent = &s[child.parent.unwrap()];
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
        let json = chrome_trace_json(s);
        let summary = unintt_telemetry::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.complete, 4);
    }

    #[test]
    fn disabled_recorder_runs_closures_and_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.op("w#0", |rec| rec.span("ntt", "a", |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
