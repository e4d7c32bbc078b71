//! Event sinks: where the instrumentation stream goes.
//!
//! Two built-ins cover the common cases — [`MemorySink`] for programmatic
//! inspection (tests, report builders) and [`JsonLinesSink`] for
//! machine-readable files that outlive the process. Both are installed
//! into the global registry with [`crate::install_sink`]; any number of
//! sinks can be active at once.

use crate::event::{parse_json_lines, Event};
use crate::json::JsonError;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A destination for events. Implementations must be cheap per call: the
/// registry holds its lock while recording.
pub trait EventSink: Send {
    /// Receives one event.
    fn record(&mut self, event: &Event);
    /// Flushes any buffering (called by [`crate::flush`]).
    fn flush_sink(&mut self) {}
}

/// An in-memory collector. The sink half goes into the registry; the
/// [`Collector`] handle (a clone of the shared buffer) stays with the
/// caller for snapshots.
#[derive(Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

/// Read half of a [`MemorySink`].
#[derive(Clone, Default)]
pub struct Collector {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Creates a sink plus its reader handle.
    pub fn new() -> (MemorySink, Collector) {
        let events = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                events: Arc::clone(&events),
            },
            Collector { events },
        )
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events
            .lock()
            .expect("collector poisoned")
            .push(event.clone());
    }
}

impl Collector {
    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("collector poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events.lock().expect("collector poisoned").clear();
    }
}

/// Writes one JSON line per event (see [`Event::to_json_line`] for the
/// schema).
///
/// **Line-atomic under parallel execution**: each event is serialized to a
/// complete line *before* the writer lock is taken, and the whole line goes
/// to the writer in a single `write_all` under that lock. Clones share the
/// writer, so the sink can be handed to concurrent producers (one clone per
/// `dpm_exec` worker) and the output can interleave only at line
/// granularity — never mid-line.
///
/// Buffered; call [`JsonLinesSink::flush`] (or [`crate::flush`], or drop
/// the registry sink via [`crate::clear_sinks`]) before reading the file.
pub struct JsonLinesSink<W: Write + Send> {
    state: Arc<Mutex<SinkState<W>>>,
}

struct SinkState<W> {
    out: W,
    errored: bool,
}

impl<W: Write + Send> Clone for JsonLinesSink<W> {
    fn clone(&self) -> Self {
        JsonLinesSink {
            state: Arc::clone(&self.state),
        }
    }
}

impl JsonLinesSink<BufWriter<std::fs::File>> {
    /// Creates (truncates) a JSON-Lines file sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink::new(BufWriter::new(file)))
    }
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            state: Arc::new(Mutex::new(SinkState {
                out,
                errored: false,
            })),
        }
    }

    /// Records one event (shared-reference form, so cloned handles on
    /// worker threads can emit without exclusive access).
    pub fn record_shared(&self, event: &Event) {
        // Serialize outside the lock: by the time any byte reaches the
        // writer the line is complete, so concurrent producers can only
        // interleave whole lines.
        let mut line = event.to_json_line();
        line.push('\n');
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.errored {
            return;
        }
        if st.out.write_all(line.as_bytes()).is_err() {
            // Instrumentation must never take the workload down; note the
            // failure once and go quiet.
            st.errored = true;
            eprintln!("dpm-obs: event sink write failed; disabling sink");
        }
    }

    /// Explicitly flushes buffered lines to the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.errored {
            return Ok(());
        }
        let result = st.out.flush();
        if result.is_err() {
            st.errored = true;
        }
        result
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    fn record(&mut self, event: &Event) {
        self.record_shared(event);
    }

    fn flush_sink(&mut self) {
        let _ = self.flush();
    }
}

impl<W: Write + Send> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Reads a JSON-Lines event file back into events.
pub fn read_json_lines(path: impl AsRef<Path>) -> io::Result<Result<Vec<Event>, JsonError>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_json_lines(&text))
}

/// Sums the `dur_us` of every `span_end` event per span name — the
/// per-pass timing table of a run. Names appear in first-seen order.
pub fn span_durations(events: &[Event]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for ev in events {
        if ev.kind != crate::event::kind::SPAN_END {
            continue;
        }
        let dur = ev.num("dur_us").unwrap_or(0.0) as u64;
        match out.iter_mut().find(|(name, _)| *name == ev.name) {
            Some((_, total)) => *total += dur,
            None => out.push((ev.name.clone(), dur)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::kind;

    #[test]
    fn memory_sink_collects() {
        let (mut sink, collector) = MemorySink::new();
        assert!(collector.is_empty());
        sink.record(&Event::new(1, kind::REQUEST, "c").field("value", 2u64));
        sink.record(&Event::new(2, kind::REQUEST, "c").field("value", 3u64));
        assert_eq!(collector.len(), 2);
        assert_eq!(collector.snapshot()[1].ts_us, 2);
        collector.clear();
        assert!(collector.is_empty());
    }

    #[test]
    fn jsonl_sink_round_trips_through_a_writer() {
        let events = vec![
            Event::new(1, kind::SPAN_BEGIN, "s").field("id", 1u64),
            Event::new(5, kind::SPAN_END, "s")
                .field("id", 1u64)
                .field("dur_us", 4u64)
                .field("note", "done"),
        ];
        let mut buf = Vec::new();
        {
            let mut sink = JsonLinesSink::new(&mut buf);
            for e in &events {
                sink.record(e);
            }
            sink.flush_sink();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(parse_json_lines(&text).unwrap(), events);
    }

    /// A deliberately hostile writer: one byte per `write` call, so any
    /// tearing window in the sink shows up as interleaved fragments.
    struct ByteAtATime(Arc<Mutex<Vec<u8>>>);

    impl Write for ByteAtATime {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let take = buf.len().min(1);
            self.0.lock().unwrap().extend_from_slice(&buf[..take]);
            Ok(take)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_is_line_atomic_under_concurrent_producers() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = JsonLinesSink::new(ByteAtATime(Arc::clone(&buf)));
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 100;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sink = sink.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        sink.record_shared(
                            &Event::new(i, kind::REQUEST, "tick")
                                .field("thread", t)
                                .field("seq", i),
                        );
                    }
                });
            }
        });
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let events = parse_json_lines(&text).expect("no torn lines");
        assert_eq!(events.len(), (THREADS * PER_THREAD) as usize);
        // Every (thread, seq) pair arrived exactly once, in per-thread order.
        for t in 0..THREADS {
            let seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.num("thread") == Some(t as f64))
                .map(|e| e.num("seq").unwrap() as u64)
                .collect();
            assert_eq!(seqs, (0..PER_THREAD).collect::<Vec<_>>());
        }
    }

    #[test]
    fn span_durations_aggregate_per_name() {
        let events = vec![
            Event::new(0, kind::SPAN_END, "a").field("dur_us", 10u64),
            Event::new(1, kind::SPAN_END, "b").field("dur_us", 5u64),
            Event::new(2, kind::SPAN_END, "a").field("dur_us", 7u64),
            Event::new(3, kind::SPAN_BEGIN, "a").field("id", 9u64),
        ];
        assert_eq!(
            span_durations(&events),
            vec![("a".to_string(), 17), ("b".to_string(), 5)]
        );
    }
}
