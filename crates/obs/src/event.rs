//! The typed event record that flows through every sink, and its exact
//! JSON-Lines representation.
//!
//! One event is one line:
//!
//! ```json
//! {"ts_us":1234,"kind":"span_end","name":"single_cpu_schedule","fields":{"id":3,"dur_us":812,"rounds":1}}
//! ```
//!
//! `kind` is a small closed vocabulary (see [`kind`]); `name` identifies
//! the span / state / request within that kind; `fields` carries numeric
//! and string payload values. Encoding and re-parsing an event yields an
//! identical [`Event`] (covered by tests), so a JSON-Lines file is a
//! faithful serialization of the in-memory stream.

use crate::json::{Json, JsonError};

/// Well-known values of [`Event::kind`]. Sinks must pass through unknown
/// kinds untouched, so downstream crates can add their own.
pub mod kind {
    /// A span opened (`name` = span name; fields: `id`, `parent`).
    pub const SPAN_BEGIN: &str = "span_begin";
    /// A span closed (fields: `id`, `parent`, `dur_us`, plus one field per
    /// span counter).
    pub const SPAN_END: &str = "span_end";
    /// A disk power-state transition (`name` = state; fields: `run`,
    /// `disk`, `at_ms`, `rpm`).
    pub const DISK_STATE: &str = "disk_state";
    /// An I/O request issued by the trace generator (fields: `proc`,
    /// `at_ms`, `offset`, `len`, plus `op` as a string field).
    pub const REQUEST: &str = "request";
    /// A reuse-window (cache filter) hit in the trace generator; emitted
    /// per access only in verbose mode (fields: `proc`, `block`).
    pub const CACHE_HIT: &str = "cache_hit";
    /// An injected fault fired in the simulator (`name` = fault class:
    /// `spin_up_failure`, `transient_error`, `stuck_rpm`, `latency_jitter`,
    /// `timeout`; fields: `run`, `disk`, `at_ms`, plus class-specific
    /// payload such as `jitter_ms`).
    pub const FAULT: &str = "fault";
    /// The simulator retried a faulted operation (fields: `run`, `disk`,
    /// `at_ms`, `attempt`, `backoff_ms`).
    pub const RETRY: &str = "retry";
    /// A disk exhausted its retries and was marked degraded; the failed
    /// request is re-queued behind a recovery delay (fields: `run`,
    /// `disk`, `at_ms`).
    pub const DEGRADE: &str = "degrade";
    /// A static-analysis diagnostic from `dpm-analyze` (`name` = stable
    /// diagnostic code; fields: `severity`, plus location fields `nest`,
    /// `stmt`, `array`, `line`, `col` where known, and `message`).
    pub const DIAGNOSTIC: &str = "diagnostic";
}

/// A field value: three numeric flavours (kept apart so JSON round-trips
/// exactly) plus strings.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer (used when negative).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
}

impl Value {
    /// Numeric view of the value, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            Value::F64(x) => Some(*x),
            Value::Str(_) => None,
        }
    }

    /// Unsigned view of the value, when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            Value::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Value::U64(x) => Json::U64(*x),
            Value::I64(x) => Json::I64(*x),
            Value::F64(x) => Json::F64(*x),
            Value::Str(s) => Json::Str(s.clone()),
        }
    }

    fn from_json(j: &Json) -> Option<Value> {
        match j {
            Json::U64(x) => Some(Value::U64(*x)),
            Json::I64(x) => Some(Value::I64(*x)),
            Json::F64(x) => Some(Value::F64(*x)),
            Json::Str(s) => Some(Value::Str(s.clone())),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::U64(x)
    }
}

impl From<u32> for Value {
    fn from(x: u32) -> Value {
        Value::U64(u64::from(x))
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::U64(x as u64)
    }
}

impl From<i64> for Value {
    fn from(x: i64) -> Value {
        if x >= 0 {
            Value::U64(x as u64)
        } else {
            Value::I64(x)
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// One instrumentation event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Wall-clock microseconds since the registry epoch (process start of
    /// instrumentation, not Unix time — deltas are meaningful, absolutes
    /// are not).
    pub ts_us: u64,
    /// Event type tag; see [`kind`].
    pub kind: String,
    /// Name within the kind: span name, power-state name, …
    pub name: String,
    /// Payload fields, in insertion order. Keys are unique per event.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Creates an event (timestamp supplied by the registry).
    pub fn new(ts_us: u64, kind: &str, name: &str) -> Event {
        Event {
            ts_us,
            kind: kind.to_string(),
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds a field (builder style).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Event {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric field shorthand.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// The exact JSON-Lines representation (one line, no trailing newline).
    pub fn to_json_line(&self) -> String {
        let fields = Json::Obj(
            self.fields
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::obj(vec![
            ("ts_us", Json::U64(self.ts_us)),
            ("kind", Json::Str(self.kind.clone())),
            ("name", Json::Str(self.name.clone())),
            ("fields", fields),
        ])
        .to_string()
    }

    /// Parses one JSON-Lines line back into an event.
    pub fn from_json_line(line: &str) -> Result<Event, JsonError> {
        let bad = |msg| JsonError { at: 0, msg };
        let j = Json::parse(line)?;
        let ts_us = j
            .get("ts_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing ts_us"))?;
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing kind"))?;
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing name"))?;
        let mut ev = Event::new(ts_us, kind, name);
        if let Some(Json::Obj(pairs)) = j.get("fields") {
            for (k, v) in pairs {
                let value = Value::from_json(v).ok_or_else(|| bad("non-scalar field"))?;
                ev.fields.push((k.clone(), value));
            }
        }
        Ok(ev)
    }
}

/// Parses a whole JSON-Lines document (blank lines ignored).
pub fn parse_json_lines(text: &str) -> Result<Vec<Event>, JsonError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Event::from_json_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_round_trips_exactly() {
        let ev = Event::new(12345, kind::SPAN_END, "single_cpu_schedule")
            .field("id", 3u64)
            .field("dur_us", 812u64)
            .field("neg", -4i64)
            .field("ratio", 0.25)
            .field("op", "read");
        let line = ev.to_json_line();
        let back = Event::from_json_line(&line).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn whole_stream_round_trips() {
        let evs = vec![
            Event::new(0, kind::SPAN_BEGIN, "a").field("id", 1u64),
            Event::new(7, kind::DISK_STATE, "idle")
                .field("disk", 2u32)
                .field("at_ms", 10.5),
            Event::new(9, kind::SPAN_END, "a")
                .field("id", 1u64)
                .field("dur_us", 9u64),
        ];
        let text: String = evs.iter().map(|e| e.to_json_line() + "\n").collect();
        let back = parse_json_lines(&text).unwrap();
        assert_eq!(back, evs);
    }

    #[test]
    fn accessors() {
        let ev = Event::new(1, kind::REQUEST, "io_request")
            .field("offset", 4096u64)
            .field("op", "write");
        assert_eq!(ev.num("offset"), Some(4096.0));
        assert_eq!(ev.get("op").and_then(Value::as_str), Some("write"));
        assert_eq!(ev.get("missing"), None);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(-1i64), Value::I64(-1));
        assert_eq!(Value::from(1i64), Value::U64(1));
        assert_eq!(Value::from(2u32), Value::U64(2));
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line("{\"ts_us\":1}").is_err());
        assert!(parse_json_lines("{\"ts_us\":1,\"kind\":\"k\",\"name\":\"n\"}\nnot json").is_err());
    }
}
