//! Pull-based request streams: the interface between trace producers and
//! the simulator's event loop.
//!
//! A [`RequestStream`] hands the simulator one time-sorted [`IoRequest`]
//! at a time, so the consumer never needs the whole trace in memory — a
//! materialized [`Trace`] is just the special case [`TraceStream`], a
//! cursor over its slice. The streaming trace generator in `dpm-trace`
//! and the binary codec reader both implement this trait, which is what
//! lets the full experiment matrix run in resident memory that does not
//! grow with trace length.
//!
//! [`MergedStream`] interleaves several applications' streams into one
//! shared-system stream without materializing any of them.
//!
//! [`TraceAccounting`] is the streaming replacement for re-walking a
//! trace after the run: the event loop folds per-disk expected work into
//! it as requests flow past, and the invariant checker compares those
//! expectations against what the disks actually serviced.

use crate::request::{IoRequest, Trace};

/// A source of time-sorted I/O requests, pulled one at a time.
///
/// Implementations must yield requests with non-decreasing `arrival_ms`
/// (the simulator asserts this) and keep returning `None` once exhausted.
pub trait RequestStream {
    /// The next request, or `None` when the stream is exhausted.
    fn next_request(&mut self) -> Option<IoRequest>;
}

impl<S: RequestStream + ?Sized> RequestStream for &mut S {
    fn next_request(&mut self) -> Option<IoRequest> {
        (**self).next_request()
    }
}

/// A [`RequestStream`] over a materialized [`Trace`]: the thin adapter
/// that makes `Simulator::run(&Trace)` a special case of the streaming
/// event loop.
pub struct TraceStream<'a> {
    requests: &'a [IoRequest],
    pos: usize,
}

impl<'a> TraceStream<'a> {
    /// A stream over `trace`'s requests, in order.
    pub fn new(trace: &'a Trace) -> TraceStream<'a> {
        TraceStream {
            requests: trace.requests(),
            pos: 0,
        }
    }
}

impl RequestStream for TraceStream<'_> {
    fn next_request(&mut self) -> Option<IoRequest> {
        let r = self.requests.get(self.pos).copied();
        self.pos += r.is_some() as usize;
        r
    }
}

/// How far a request stream reaches: the end of its address range and
/// its highest processor id. A merge relocates each part past the extents
/// of the parts before it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Extents {
    /// One past the last byte any request touches.
    pub max_end: u64,
    /// The highest processor id seen (0 for an empty stream).
    pub max_proc: u32,
}

impl Extents {
    /// The extents of a whole stream, draining it.
    pub fn of(stream: &mut dyn RequestStream) -> Extents {
        let mut e = Extents::default();
        while let Some(r) = stream.next_request() {
            e.max_end = e.max_end.max(r.offset + r.len);
            e.max_proc = e.max_proc.max(r.proc_id);
        }
        e
    }
}

/// The shared-system merge of several applications' request streams, the
/// one home of the multi-program relocation rule: part `k`'s arrivals are
/// shifted by `k * stagger_ms`, its offsets relocated past the previous
/// parts' address ranges (so independent applications' files do not
/// alias), and its processor ids renumbered into a disjoint range.
///
/// Each part must be sorted by arrival. Taking the earliest head, the
/// lowest part index on ties, then yields the stable arrival sort of the
/// relocated concatenation, which is what [`Trace::merged`] returns.
pub struct MergedStream<S> {
    parts: Vec<MergePart<S>>,
}

struct MergePart<S> {
    stream: S,
    head: Option<IoRequest>,
    stagger_ms: f64,
    offset: u64,
    proc: u32,
}

impl<S: RequestStream> MergePart<S> {
    fn advance(&mut self) {
        self.head = self.stream.next_request().map(|r| IoRequest {
            arrival_ms: r.arrival_ms + self.stagger_ms,
            offset: r.offset + self.offset,
            proc_id: r.proc_id + self.proc,
            ..r
        });
    }
}

impl<S: RequestStream> MergedStream<S> {
    /// Merges `streams`; `extents[k]` are part `k`'s extents, needed for
    /// every part but the last (the relocation bases are their prefix
    /// sums).
    ///
    /// # Panics
    ///
    /// Panics if fewer extents than parts before the last are given.
    pub fn new(streams: Vec<S>, extents: &[Extents], stagger_ms: f64) -> MergedStream<S> {
        assert!(
            extents.len() + 1 >= streams.len(),
            "a merge of {} parts needs the extents of all but the last",
            streams.len()
        );
        let (mut offset, mut proc) = (0u64, 0u32);
        let mut parts = Vec::with_capacity(streams.len());
        for (k, stream) in streams.into_iter().enumerate() {
            let mut part = MergePart {
                stream,
                head: None,
                stagger_ms: stagger_ms * k as f64,
                offset,
                proc,
            };
            part.advance();
            parts.push(part);
            if let Some(e) = extents.get(k) {
                offset += e.max_end;
                proc += e.max_proc + 1;
            }
        }
        MergedStream { parts }
    }
}

impl<S: RequestStream> RequestStream for MergedStream<S> {
    fn next_request(&mut self) -> Option<IoRequest> {
        let (k, _) = self
            .parts
            .iter()
            .enumerate()
            .filter_map(|(k, p)| Some((k, p.head.as_ref()?.arrival_ms)))
            .min_by(|(ka, ta), (kb, tb)| ta.total_cmp(tb).then(ka.cmp(kb)))?;
        let r = self.parts[k].head.take();
        self.parts[k].advance();
        r
    }
}

/// Expected-work totals accumulated while a stream is consumed, replacing
/// the post-hoc trace walk the invariant checker used to do: application
/// request/byte counts, the latest arrival and, per disk, the
/// sub-requests and bytes the striping assigned to it.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceAccounting {
    /// Application-level requests consumed from the stream.
    pub app_requests: u64,
    /// Total application bytes requested.
    pub app_bytes: u64,
    /// The largest arrival time consumed, ms (0 before the first request).
    /// Every request completes no earlier than it arrives, so the makespan
    /// is at least this.
    pub max_arrival_ms: f64,
    /// Per-disk sub-request counts the striping split produced.
    pub want_requests: Vec<u64>,
    /// Per-disk byte totals the striping split produced.
    pub want_bytes: Vec<u64>,
}

impl TraceAccounting {
    /// Zeroed accounting for a volume of `num_disks` disks.
    pub fn new(num_disks: usize) -> TraceAccounting {
        TraceAccounting {
            app_requests: 0,
            app_bytes: 0,
            max_arrival_ms: 0.0,
            want_requests: vec![0; num_disks],
            want_bytes: vec![0; num_disks],
        }
    }

    /// Folds one application request and its striping pieces
    /// `(disk, local_byte, len)` into the totals.
    pub fn push(&mut self, r: &IoRequest, pieces: &[(usize, u64, u64)]) {
        self.app_requests += 1;
        self.app_bytes += r.len;
        self.max_arrival_ms = self.max_arrival_ms.max(r.arrival_ms);
        for &(disk, _, len) in pieces {
            self.want_requests[disk] += 1;
            self.want_bytes[disk] += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    #[test]
    fn trace_stream_yields_every_request_then_none() {
        let t = Trace::from_requests(vec![
            IoRequest {
                arrival_ms: 0.0,
                offset: 0,
                len: 100,
                kind: RequestKind::Read,
                proc_id: 0,
            },
            IoRequest {
                arrival_ms: 1.0,
                offset: 4096,
                len: 200,
                kind: RequestKind::Write,
                proc_id: 1,
            },
        ]);
        let mut s = TraceStream::new(&t);
        assert_eq!(s.next_request().as_ref(), Some(&t.requests()[0]));
        assert_eq!(s.next_request().as_ref(), Some(&t.requests()[1]));
        assert!(s.next_request().is_none());
        assert!(s.next_request().is_none());
    }

    #[test]
    fn accounting_folds_pieces_per_disk() {
        let mut acc = TraceAccounting::new(2);
        let r = IoRequest {
            arrival_ms: 0.0,
            offset: 0,
            len: 300,
            kind: RequestKind::Read,
            proc_id: 0,
        };
        acc.push(&r, &[(0, 0, 100), (1, 0, 200)]);
        acc.push(
            &IoRequest {
                arrival_ms: 7.5,
                ..r
            },
            &[(1, 200, 300)],
        );
        acc.push(&r, &[(0, 100, 1)]);
        assert_eq!(acc.app_requests, 3);
        assert_eq!(acc.max_arrival_ms, 7.5);
        assert_eq!(acc.app_bytes, 900);
        assert_eq!(acc.want_requests, vec![2, 2]);
        assert_eq!(acc.want_bytes, vec![101, 500]);
    }
}
