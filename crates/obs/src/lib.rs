//! # dpm-obs — zero-dependency instrumentation for the whole pipeline
//!
//! The paper's argument is about *observable* idle-period structure: the
//! restructured schedules save energy because of what each disk's
//! power-state timeline looks like. This crate is the always-available
//! instrumentation layer the rest of the workspace records that structure
//! with:
//!
//! * **Spans** — [`span`] / [`span!`] return a guard that emits
//!   `span_begin`/`span_end` events with wall-clock duration, nesting
//!   (parent ids via a per-thread stack), and per-span counters. Compiler
//!   passes wrap their phases in spans; the bench harness turns the
//!   resulting durations into per-pass timing tables.
//! * **Events** — a typed record ([`Event`]) flows through an
//!   [`EventSink`]; built-in sinks are the in-memory [`MemorySink`] (with
//!   a [`Collector`] read handle) and the [`JsonLinesSink`] file writer.
//!   The simulator emits per-disk power-state transitions, the trace
//!   generator request-issue events.
//! * **Metrics** — [`Histogram`] with configurable bucket edges (the
//!   simulator's idle-period histogram, generalized).
//!
//! Everything funnels through one global, thread-safe registry so
//! multi-processor stages can record from any thread. The switch is a
//! single relaxed atomic: with instrumentation disabled (the default) the
//! only cost at an instrumentation point is that load, so hot paths stay
//! hot.
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
//! additionally emit per-access cache-hit events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod sink;

pub use event::{kind, parse_json_lines, Event, Value};
pub use json::{Json, JsonError};
pub use metrics::Histogram;
pub use rng::XorShift64Star;
pub use sink::{read_json_lines, span_durations, Collector, EventSink, JsonLinesSink, MemorySink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static VERBOSE: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

struct Registry {
    sinks: Vec<Box<dyn EventSink>>,
    epoch: Instant,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            sinks: Vec::new(),
            epoch: Instant::now(),
        })
    })
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Whether instrumentation is on. One relaxed atomic load — the entire
/// cost of a disabled instrumentation point.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether verbose (per-access) events are requested too.
#[inline]
pub fn verbose() -> bool {
    VERBOSE.load(Ordering::Relaxed)
}

/// Turns instrumentation on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns instrumentation off (sinks stay installed).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Turns per-access (verbose) events on or off.
pub fn set_verbose(on: bool) {
    VERBOSE.store(on, Ordering::Relaxed);
}

/// Microseconds since the registry epoch (first use of the registry).
pub fn now_us() -> u64 {
    let epoch = registry().lock().expect("obs registry poisoned").epoch;
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Installs a sink; events are fanned out to every installed sink.
pub fn install_sink(sink: Box<dyn EventSink>) {
    registry()
        .lock()
        .expect("obs registry poisoned")
        .sinks
        .push(sink);
}

/// Convenience: installs a [`MemorySink`] and returns its read handle.
pub fn install_collector() -> Collector {
    let (sink, collector) = MemorySink::new();
    install_sink(Box::new(sink));
    collector
}

/// Flushes every installed sink.
pub fn flush() {
    for s in &mut registry().lock().expect("obs registry poisoned").sinks {
        s.flush_sink();
    }
}

/// Removes (and flushes) all installed sinks. Mainly for tests and for
/// binaries that install per-phase sinks.
pub fn clear_sinks() {
    let mut reg = registry().lock().expect("obs registry poisoned");
    for s in &mut reg.sinks {
        s.flush_sink();
    }
    reg.sinks.clear();
}

/// A fresh identifier tying together the events of one logical run
/// (e.g. one simulation); lets consumers separate interleaved runs in a
/// single event stream.
pub fn next_run_id() -> u64 {
    NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Emits one event through the registry (no-op when disabled).
pub fn emit(kind: &str, name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().expect("obs registry poisoned");
    let ts_us = u64::try_from(reg.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut ev = Event::new(ts_us, kind, name);
    ev.fields = fields
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect();
    for s in &mut reg.sinks {
        s.record(&ev);
    }
}

/// Emits an already-built event, stamping its timestamp (no-op when
/// disabled).
pub fn emit_event(mut ev: Event) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock().expect("obs registry poisoned");
    ev.ts_us = u64::try_from(reg.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    for s in &mut reg.sinks {
        s.record(&ev);
    }
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

/// Live state of an open span.
struct SpanData {
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: u64,
    counters: Vec<(&'static str, u64)>,
}

/// Guard object returned by [`span`]: emits `span_end` (with duration and
/// accumulated counters) when dropped. Inert — a single `None` — when
/// instrumentation is disabled.
pub struct SpanGuard {
    data: Option<SpanData>,
}

impl SpanGuard {
    /// Whether this guard is actually recording.
    pub fn active(&self) -> bool {
        self.data.is_some()
    }

    /// Adds to a named per-span counter (created on first use); the totals
    /// ride on the `span_end` event.
    pub fn add(&mut self, key: &'static str, delta: u64) {
        if let Some(data) = &mut self.data {
            match data.counters.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += delta,
                None => data.counters.push((key, delta)),
            }
        }
    }

    /// Increments a named per-span counter by one.
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&data.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards moved across scopes): remove
                // wherever it is so nesting stays consistent.
                stack.retain(|&id| id != data.id);
            }
        });
        let end_us = now_us();
        let mut ev = Event::new(0, kind::SPAN_END, data.name)
            .field("id", data.id)
            .field("parent", data.parent)
            .field("dur_us", end_us.saturating_sub(data.start_us));
        for (k, v) in data.counters {
            ev = ev.field(k, v);
        }
        emit_event(ev);
    }
}

/// Opens a span. When instrumentation is enabled this emits `span_begin`,
/// pushes the span onto the thread's nesting stack, and returns a guard
/// whose drop emits `span_end`; when disabled it returns an inert guard.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let start_us = now_us();
    emit_event(
        Event::new(0, kind::SPAN_BEGIN, name)
            .field("id", id)
            .field("parent", parent),
    );
    SpanGuard {
        data: Some(SpanData {
            name,
            id,
            parent,
            start_us,
            counters: Vec::new(),
        }),
    }
}

/// `span!("name")` — sugar for [`span`], mirroring the usual tracing-macro
/// shape.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh() -> Collector {
        clear_sinks();
        disable();
        set_verbose(false);
        install_collector()
    }

    #[test]
    fn disabled_means_no_events_and_inert_guards() {
        let _guard = lock();
        let collector = fresh();
        {
            let mut sp = span!("quiet");
            sp.add("n", 1);
            assert!(!sp.active());
        }
        emit(kind::COUNTER, "c", &[("value", 1u64.into())]);
        assert!(collector.is_empty());
        clear_sinks();
    }

    #[test]
    fn spans_nest_and_carry_counters() {
        let _guard = lock();
        let collector = fresh();
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
        clear_sinks();
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
    fn events_fan_out_to_all_sinks() {
        let _guard = lock();
        let c1 = fresh();
        let c2 = install_collector();
        enable();
        emit(kind::GAUGE, "g", &[("value", 1.5.into())]);
        disable();
        assert_eq!(c1.len(), 1);
        assert_eq!(c2.len(), 1);
        assert_eq!(c1.snapshot()[0].num("value"), Some(1.5));
        clear_sinks();
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn timestamps_are_monotone() {
        let _guard = lock();
        let collector = fresh();
        enable();
        for _ in 0..5 {
            emit(kind::COUNTER, "tick", &[]);
        }
        disable();
        let events = collector.snapshot();
        clear_sinks();
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn metric_emit_goes_through_registry() {
        let _guard = lock();
        let collector = fresh();
        enable();
        let mut h = Histogram::new(vec![1.0]);
        h.record(0.5);
        h.record(3.0);
        h.emit("my_hist");
        disable();
        let events = collector.snapshot();
        clear_sinks();
        assert_eq!(events[0].name, "my_hist");
        assert_eq!(events[0].num("bucket0"), Some(1.0));
        assert_eq!(events[0].num("bucket1"), Some(1.0));
    }
}
