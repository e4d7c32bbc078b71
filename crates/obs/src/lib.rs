//! # dpm-obs — zero-dependency instrumentation for the whole pipeline
//!
//! The paper's argument is about *observable* idle-period structure: the
//! restructured schedules save energy because of what each disk's
//! power-state timeline looks like. This crate is the always-available
//! instrumentation layer the rest of the workspace records that structure
//! with, and the lens on where the compile → trace → simulate time goes:
//!
//! * **Spans** — [`span()`] / [`span!`] return the one scope guard of
//!   the workspace, a [`SpanGuard`]. It feeds two recorders, each with
//!   its own switch:
//!   - the **event stream** ([`enable`]): `span_begin`/`span_end` events
//!     with wall-clock duration, nesting (parent ids) and per-span
//!     counters, from which the bench harness builds per-pass timing
//!     tables;
//!   - the **profile** ([`prof::enable`]): a per-thread call tree that
//!     [`prof::snapshot`] merges into a [`prof::Profile`], exportable as
//!     a JSON tree or as flamegraph collapsed-stack text.
//!
//!   Both recorders read one per-thread frame stack, so a span's event
//!   parent and its profile frame always name the same enclosing span.
//!   A [`Context`] carries that stack's top across threads: `dpm-exec`
//!   captures it before a parallel map and each helper attaches it, so a
//!   helper's spans nest under the span that issued the map in both
//!   views.
//! * **Events** — a typed record ([`Event`]) flows through an
//!   [`EventSink`]; built-in sinks are the in-memory [`MemorySink`] (with
//!   a [`Collector`] read handle) and the [`JsonLinesSink`] file writer.
//!   The simulator emits per-disk power-state transitions, the trace
//!   generator request-issue events.
//!
//! Everything funnels through one global, thread-safe registry so
//! multi-processor stages can record from any thread. Both recorders'
//! switches are bits of one relaxed atomic word: with both off (the
//! default) a span costs exactly one load of it, so hot paths stay hot.
//!
//! ```
//! use dpm_obs as obs;
//!
//! let collector = obs::install_collector();
//! obs::enable();
//! {
//!     let mut sp = obs::span!("demo_pass");
//!     sp.add("items", 3);
//! } // span_end emitted here
//! obs::disable();
//! let events = collector.snapshot();
//! assert_eq!(events.last().unwrap().kind, "span_end");
//! assert_eq!(events.last().unwrap().num("items"), Some(3.0));
//! # obs::clear_sinks();
//! ```
//!
//! The environment contract (used by the binaries via
//! [`init_from_env`]): `DPM_OBS` unset/`0`/`off` → disabled;
//! `DPM_OBS=1` (or any other value) → enabled, JSON-Lines events written
//! to `$DPM_OBS_PATH` (default `dpm-obs.jsonl`); `DPM_OBS=verbose` →
//! additionally emit per-access cache-hit events. The profile has no
//! environment switch: the callers that read it turn it on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod prof;
pub mod rng;
pub mod sink;
mod span;

pub use event::{kind, parse_json_lines, Event, Value};
pub use json::{Json, JsonError};
pub use rng::XorShift64Star;
pub use sink::{read_json_lines, span_durations, Collector, EventSink, JsonLinesSink, MemorySink};
pub use span::{span, Context, ContextGuard, SpanGuard};

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Switch-word bit: spans and [`emit`] publish events.
const EVENTS: u8 = 1;
/// Switch-word bit: spans file their time in the profile call tree.
const PROFILE: u8 = 2;
/// Switch-word bit: per-access (verbose) events are requested too.
const VERBOSE: u8 = 4;

/// The one switch word both recorders read.
static SWITCH: AtomicU8 = AtomicU8::new(0);
static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);
static SINKS: Mutex<Vec<Box<dyn EventSink>>> = Mutex::new(Vec::new());

#[inline]
fn switch() -> u8 {
    SWITCH.load(Ordering::Relaxed)
}

fn set(bit: u8, on: bool) {
    if on {
        SWITCH.fetch_or(bit, Ordering::Relaxed);
    } else {
        SWITCH.fetch_and(!bit, Ordering::Relaxed);
    }
}

fn sinks() -> std::sync::MutexGuard<'static, Vec<Box<dyn EventSink>>> {
    SINKS.lock().expect("obs registry poisoned")
}

/// Whether the event stream is on. One relaxed atomic load — the entire
/// cost of a disabled instrumentation point.
#[inline]
pub fn enabled() -> bool {
    switch() & EVENTS != 0
}

/// Whether verbose (per-access) events are requested too.
#[inline]
pub fn verbose() -> bool {
    switch() & VERBOSE != 0
}

/// Turns the event stream on.
pub fn enable() {
    epoch();
    set(EVENTS, true);
}

/// Turns the event stream off (sinks stay installed). Spans already
/// open still emit their `span_end`: a guard records what was on when it
/// opened.
pub fn disable() {
    set(EVENTS, false);
}

/// Turns per-access (verbose) events on or off.
pub fn set_verbose(on: bool) {
    set(VERBOSE, on);
}

/// The event clock's zero: the first time instrumentation was switched
/// on, a sink installed, or the clock read.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds from the event clock's zero to `at`.
fn since_epoch(at: Instant) -> u64 {
    micros(at.saturating_duration_since(epoch()))
}

/// Microseconds since the event clock's zero.
fn now_us() -> u64 {
    since_epoch(Instant::now())
}

/// Installs a sink; events are fanned out to every installed sink.
pub fn install_sink(sink: Box<dyn EventSink>) {
    epoch();
    sinks().push(sink);
}

/// Convenience: installs a [`MemorySink`] and returns its read handle.
pub fn install_collector() -> Collector {
    let (sink, collector) = MemorySink::new();
    install_sink(Box::new(sink));
    collector
}

/// Flushes every installed sink.
pub fn flush() {
    for s in sinks().iter_mut() {
        s.flush_sink();
    }
}

/// Removes (and flushes) all installed sinks. Mainly for tests and for
/// binaries that install per-phase sinks.
pub fn clear_sinks() {
    let mut sinks = sinks();
    for s in sinks.iter_mut() {
        s.flush_sink();
    }
    sinks.clear();
}

/// A fresh identifier tying together the events of one logical run
/// (e.g. one simulation); lets consumers separate interleaved runs in a
/// single event stream.
pub fn next_run_id() -> u64 {
    NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Hands a stamped event to every installed sink.
fn publish(ev: &Event) {
    for s in sinks().iter_mut() {
        s.record(ev);
    }
}

/// Emits one event through the registry (no-op when disabled).
pub fn emit(kind: &str, name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let mut ev = Event::new(now_us(), kind, name);
    ev.fields = fields
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect();
    publish(&ev);
}

/// Emits an already-built event, stamping its timestamp (no-op when
/// disabled).
pub fn emit_event(mut ev: Event) {
    if !enabled() {
        return;
    }
    ev.ts_us = now_us();
    publish(&ev);
}

/// Initializes from the environment (see the crate docs for the
/// contract). Returns whether instrumentation ended up enabled. Intended
/// for binaries; libraries should leave the decision to their caller.
pub fn init_from_env() -> bool {
    let Some(value) = std::env::var_os("DPM_OBS") else {
        return false;
    };
    let value = value.to_string_lossy().to_string();
    match value.as_str() {
        "" | "0" | "false" | "off" => return false,
        "verbose" | "full" | "2" => set_verbose(true),
        _ => {}
    }
    let path = std::env::var_os("DPM_OBS_PATH")
        .map(|p| p.to_string_lossy().to_string())
        .unwrap_or_else(|| "dpm-obs.jsonl".to_string());
    match JsonLinesSink::create(&path) {
        Ok(sink) => {
            install_sink(Box::new(sink));
            eprintln!("dpm-obs: writing events to {path}");
        }
        Err(e) => eprintln!("dpm-obs: cannot open {path}: {e}; events will be dropped"),
    }
    enable();
    true
}

/// `span!("name")` — sugar for [`span()`], mirroring the usual
/// tracing-macro shape.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Serializes the tests that switch the global recorders, across this
/// crate's modules, and leaves everything off and empty behind them.
#[cfg(test)]
mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Holds the recorder lock for one test. Dropped last (it is bound
    /// first), it switches both recorders off and resets the profile
    /// before releasing the lock, so the test thread's tree is empty when
    /// libtest retires the thread: its exit merge, which lands after the
    /// lock is gone, has nothing to add to the next test's snapshot.
    pub struct Fresh {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for Fresh {
        fn drop(&mut self) {
            off();
        }
    }

    fn off() {
        crate::disable();
        crate::set_verbose(false);
        crate::prof::disable();
        crate::prof::reset();
        crate::clear_sinks();
    }

    pub fn fresh() -> Fresh {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        off();
        Fresh { _lock: lock }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::fresh;
    use super::*;

    /// A kind no built-in producer uses: sinks pass unknown kinds through.
    const PROBE: &str = "probe";

    #[test]
    fn disabled_means_no_events_and_inert_guards() {
        let _g = fresh();
        let collector = install_collector();
        {
            let mut sp = span!("quiet");
            sp.add("n", 1);
            assert!(!sp.active());
        }
        emit(PROBE, "c", &[("value", 1u64.into())]);
        assert!(collector.is_empty());
    }

    #[test]
    fn spans_nest_and_carry_counters() {
        let _g = fresh();
        let collector = install_collector();
        enable();
        {
            let mut outer = span("outer");
            outer.add("items", 2);
            outer.add("items", 3);
            {
                let _inner = span("inner");
            }
        }
        disable();
        let events = collector.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["span_begin", "span_begin", "span_end", "span_end"]);
        let outer_id = events[0].num("id").unwrap();
        let inner_begin = &events[1];
        assert_eq!(inner_begin.num("parent"), Some(outer_id));
        let outer_end = &events[3];
        assert_eq!(outer_end.name, "outer");
        assert_eq!(outer_end.num("items"), Some(5.0));
        assert_eq!(events[2].num("parent"), Some(outer_id));
        // Durations are sane: inner ended before outer.
        assert!(outer_end.num("dur_us").unwrap() >= events[2].num("dur_us").unwrap());
    }

    #[test]
    fn one_guard_feeds_both_recorders() {
        let _g = fresh();
        let collector = install_collector();
        enable();
        prof::enable();
        {
            let _outer = span!("outer");
            let _inner = span!("inner");
        }
        let profile = prof::snapshot();
        let events = collector.snapshot();
        let inner = profile.find(&["outer", "inner"]).expect("profile frame");
        assert_eq!(profile.node(inner).count, 1);
        let ends: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == kind::SPAN_END)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(ends, ["inner", "outer"]);
    }

    #[test]
    fn events_fan_out_to_all_sinks() {
        let _g = fresh();
        let c1 = install_collector();
        let c2 = install_collector();
        enable();
        emit(PROBE, "g", &[("value", 1.5.into())]);
        disable();
        assert_eq!(c1.len(), 1);
        assert_eq!(c2.len(), 1);
        assert_eq!(c1.snapshot()[0].num("value"), Some(1.5));
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn timestamps_are_monotone() {
        let _g = fresh();
        let collector = install_collector();
        enable();
        for _ in 0..5 {
            emit(PROBE, "tick", &[]);
        }
        disable();
        let events = collector.snapshot();
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }
}
