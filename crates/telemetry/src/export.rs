//! Trace exporters: Chrome/Perfetto `trace.json` and folded stacks.
//!
//! The Chrome Trace Event Format is the JSON-array flavour accepted by
//! both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev):
//! complete events (`"ph":"X"`) for spans, instant events (`"ph":"i"`)
//! for markers, and metadata events naming one thread per track.
//! Timestamps are microseconds in the file (the viewer convention); the
//! simulated instants are carried losslessly in `args`, as nanoseconds
//! with three decimals (whole picoseconds).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::{AttrValue, Session};
use crate::time::SimTime;
use crate::tree::SpanTree;

/// Escapes a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn attr_json(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(x) => x.to_string(),
        AttrValue::F64(x) => format!("{x:.3}"),
        AttrValue::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

/// Assigns a stable Perfetto thread id per track, in first-appearance
/// order over spans then instants — deterministic for identical runs.
fn track_ids(session: &Session) -> BTreeMap<String, u64> {
    let mut ids = BTreeMap::new();
    let mut next = 0u64;
    let tracks = session
        .spans
        .iter()
        .map(|s| s.track.as_str())
        .chain(session.instants.iter().map(|i| i.track.as_str()));
    for t in tracks {
        if !ids.contains_key(t) {
            ids.insert(t.to_string(), next);
            next += 1;
        }
    }
    ids
}

/// Renders a [`Session`] as a Chrome Trace Event Format JSON document.
pub fn chrome_trace_json(session: &Session) -> String {
    let ids = track_ids(session);
    let mut events: Vec<String> = Vec::new();

    events.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"unintt simulated clock\"}}"
            .to_string(),
    );
    // Name one thread per track, in tid order so the file is stable.
    let mut by_tid: Vec<(&String, &u64)> = ids.iter().collect();
    by_tid.sort_by_key(|(_, &tid)| tid);
    for (track, tid) in &by_tid {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(track)
        ));
    }

    for s in &session.spans {
        let tid = ids[&s.track];
        let mut args = format!(
            "\"level\":\"{}\",\"span_id\":{},\"t_start_ns\":{:.3},\"t_end_ns\":{:.3}",
            s.level.as_str(),
            s.id,
            s.t_start.as_ns(),
            s.t_end.as_ns()
        );
        if let Some(p) = s.parent {
            let _ = write!(args, ",\"parent_id\":{p}");
        }
        for (k, v) in &s.attrs {
            let _ = write!(args, ",\"{}\":{}", escape_json(k), attr_json(v));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            escape_json(&s.name),
            escape_json(s.category),
            s.t_start.as_ns() * 1e-3,
            s.duration().as_ns() * 1e-3,
        ));
    }

    for i in &session.instants {
        let tid = ids[&i.track];
        let mut args = format!("\"t_ns\":{:.3}", i.t.as_ns());
        for (k, v) in &i.attrs {
            let _ = write!(args, ",\"{}\":{}", escape_json(k), attr_json(v));
        }
        events.push(format!(
            "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{:.3},\"s\":\"t\",\"args\":{{{args}}}}}",
            escape_json(&i.name),
            i.kind.as_str(),
            i.t.as_ns() * 1e-3,
        ));
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Renders a [`Session`] as folded stacks (`inferno` / `flamegraph.pl`
/// input): one `track;frame;frame value` line per span, where the value
/// is the span's *self* time in integer nanoseconds.
pub fn folded_stacks(session: &Session) -> String {
    let tree = SpanTree::build(&session.spans);
    let mut lines: Vec<String> = Vec::new();
    for i in 0..session.spans.len() {
        let self_time = tree.self_time(i);
        if self_time == SimTime::ZERO {
            continue;
        }
        let mut stack = vec![session.spans[i].track.as_str()];
        stack.extend(tree.path(i));
        lines.push(format!(
            "{} {}",
            stack.join(";"),
            self_time.as_ns().round() as u64
        ));
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Instant, InstantKind, Span, SpanLevel};

    fn demo_session() -> Session {
        Session {
            spans: vec![
                Span {
                    id: 1,
                    parent: None,
                    name: "unintt-forward".into(),
                    level: SpanLevel::Fabric,
                    category: "transform",
                    track: "machine".into(),
                    t_start: SimTime::ZERO,
                    t_end: SimTime::from_ns(100.0),
                    attrs: vec![("batch", 1u64.into())],
                },
                Span {
                    id: 2,
                    parent: Some(1),
                    name: "local-phase".into(),
                    level: SpanLevel::Fabric,
                    category: "phase",
                    track: "machine".into(),
                    t_start: SimTime::ZERO,
                    t_end: SimTime::from_ns(60.0),
                    attrs: vec![],
                },
            ],
            instants: vec![Instant {
                name: "fault-drop".into(),
                kind: InstantKind::Fault,
                track: "machine".into(),
                t: SimTime::from_ns(30.0),
                attrs: vec![("seq", 0u64.into())],
            }],
        }
    }

    #[test]
    fn chrome_trace_has_metadata_spans_and_instants() {
        let json = chrome_trace_json(&demo_session());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"unintt-forward\""));
        assert!(json.contains("\"s\":\"t\""));
        // µs conversion: the 100 ns root renders as dur 0.100 µs.
        assert!(json.contains("\"dur\":0.100"));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        assert_eq!(
            chrome_trace_json(&demo_session()),
            chrome_trace_json(&demo_session())
        );
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let folded = folded_stacks(&demo_session());
        // Root self time = 100 - 60; the child keeps its full 60.
        assert!(folded.contains("machine;unintt-forward 40"));
        assert!(folded.contains("machine;unintt-forward;local-phase 60"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
