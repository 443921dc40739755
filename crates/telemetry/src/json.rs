//! A minimal JSON parser plus a Chrome-trace schema check.
//!
//! The workspace's vendored `serde` is a no-op marker stub and there is
//! no `serde_json`, so validating the emitted trace needs a real parser.
//! This one covers the full JSON grammar the exporters produce (objects,
//! arrays, strings with escapes, numbers, booleans, null) — enough for a
//! round-trip structural check, which is what the CI smoke test wants.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as f64.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. `BTreeMap` keeps key iteration deterministic.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
    }
}

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] learned about a trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events of every phase.
    pub events: usize,
    /// `"ph":"X"` complete (span) events.
    pub complete: usize,
    /// `"ph":"i"` instant events.
    pub instants: usize,
    /// `"ph":"M"` metadata events.
    pub metadata: usize,
    /// Distinct `tid`s seen across non-metadata events.
    pub tracks: usize,
}

/// Parses and structurally validates a Chrome Trace Event Format
/// document: top-level `traceEvents` array; every event an object with
/// string `ph` and `name`, numeric `ts`/`dur` where required; instants
/// carry a scope. Returns counts for smoke assertions.
pub fn validate_chrome_trace(input: &str) -> Result<TraceSummary, String> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;

    let mut summary = TraceSummary {
        events: events.len(),
        complete: 0,
        instants: 0,
        metadata: 0,
        tracks: 0,
    };
    let mut tids = std::collections::BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        e.get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            "X" => {
                let ts = e.get("ts").and_then(|v| v.as_f64());
                let dur = e.get("dur").and_then(|v| v.as_f64());
                if ts.is_none() || dur.is_none() {
                    return Err(format!("event {i}: complete event needs ts and dur"));
                }
                if dur.unwrap_or(0.0) < 0.0 {
                    return Err(format!("event {i}: negative duration"));
                }
                summary.complete += 1;
            }
            "i" => {
                if e.get("ts").and_then(|v| v.as_f64()).is_none() {
                    return Err(format!("event {i}: instant event needs ts"));
                }
                e.get("s")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| format!("event {i}: instant event needs scope"))?;
                summary.instants += 1;
            }
            "M" => summary.metadata += 1,
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
        if ph != "M" {
            if let Some(tid) = e.get("tid").and_then(|v| v.as_f64()) {
                tids.insert(tid as u64);
            }
        }
    }
    summary.tracks = tids.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "e": "x\ny"}"#)
            .expect("parse");
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse("{} x").is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn validates_the_exporter_output() {
        use crate::span::{Session, Span, SpanLevel};
        let session = Session {
            spans: vec![Span {
                id: 1,
                parent: None,
                name: "k".into(),
                level: SpanLevel::Device,
                category: "compute",
                track: "gpu0".into(),
                t_start: crate::SimTime::ZERO,
                t_end: crate::SimTime::from_ns(10.0),
                attrs: vec![],
            }],
            instants: vec![],
        };
        let json = crate::chrome_trace_json(&session);
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.complete, 1);
        assert_eq!(summary.tracks, 1);
        assert!(summary.metadata >= 2);
    }

    #[test]
    fn rejects_missing_trace_events() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
    }
}
