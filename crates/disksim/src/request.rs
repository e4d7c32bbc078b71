//! I/O request traces in the paper's five-field format (§7.1): arrival time
//! (ms), start block, size (bytes), read/write, processor id.

use crate::stream::{Extents, MergedStream, RequestStream, TraceStream};
use std::error::Error;
use std::fmt;

/// Logical block size used to express "start block number" in serialized
/// traces (page-block granularity, §7.1).
pub const TRACE_BLOCK_BYTES: u64 = 4096;

/// Read or write request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read (`R`).
    Read,
    /// Write (`W`).
    Write,
}

impl RequestKind {
    fn letter(self) -> char {
        match self {
            RequestKind::Read => 'R',
            RequestKind::Write => 'W',
        }
    }
}

/// One application-level I/O request against the striped volume.
///
/// The simulator splits it into per-disk sub-requests according to the
/// striping ("start block number: a logical disk block striped over several
/// I/O nodes", §7.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoRequest {
    /// Arrival time in milliseconds from program start.
    pub arrival_ms: f64,
    /// Starting byte offset within the volume.
    pub offset: u64,
    /// Length in bytes (> 0).
    pub len: u64,
    /// Read or write.
    pub kind: RequestKind,
    /// Id of the processor that issued the request.
    pub proc_id: u32,
}

/// A whole trace: requests sorted by arrival time.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    requests: Vec<IoRequest>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from requests. Non-monotonic input is handled
    /// explicitly: arrivals are **stable-sorted** (equal-time requests
    /// keep insertion order, so a shuffled trace and its sorted twin
    /// produce bit-identical simulations), and requests the sort cannot
    /// give a meaning to — non-finite arrival times, negative arrival
    /// times, zero-length transfers — are **rejected** up front rather
    /// than left to trip the simulator's ordering assertion mid-run.
    ///
    /// Already-sorted input — the common case: the generator emits
    /// merged-in-order streams, and codec replays preserve order — is
    /// detected in the validation pass and skips the sort entirely, so no
    /// scratch allocation or element moves happen on that path.
    ///
    /// # Panics
    ///
    /// Panics, naming the offending request index, if any arrival time is
    /// NaN/infinite/negative or any length is zero.
    pub fn from_requests(mut requests: Vec<IoRequest>) -> Self {
        let mut sorted = true;
        for (i, r) in requests.iter().enumerate() {
            assert!(
                r.arrival_ms.is_finite() && r.arrival_ms >= 0.0,
                "request {i}: arrival time {} is not a finite non-negative ms value",
                r.arrival_ms
            );
            assert!(r.len > 0, "request {i}: length must be positive");
            if i > 0 && requests[i - 1].arrival_ms.total_cmp(&r.arrival_ms).is_gt() {
                sorted = false;
            }
        }
        if !sorted {
            requests.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
        }
        Trace { requests }
    }

    /// Appends a request; the caller must keep arrivals non-decreasing or
    /// call [`Trace::sort`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length request or a non-finite/negative arrival.
    pub fn push(&mut self, r: IoRequest) {
        assert!(
            r.arrival_ms.is_finite() && r.arrival_ms >= 0.0,
            "arrival time {} is not a finite non-negative ms value",
            r.arrival_ms
        );
        assert!(r.len > 0, "request length must be positive");
        self.requests.push(r);
    }

    /// Stable-sorts by arrival time.
    pub fn sort(&mut self) {
        self.requests
            .sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.len).sum()
    }

    /// Last arrival time, or 0 for an empty trace.
    pub fn last_arrival_ms(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_ms)
    }

    /// Merges several traces into one shared-system trace: the
    /// materialized form of [`MergedStream`], whose relocation rule it
    /// applies (trace `k` shifted by `k * stagger_ms`, its offsets placed
    /// past the previous traces' address ranges, its processor ids
    /// renumbered into a disjoint range).
    pub fn merged(traces: &[Trace], stagger_ms: f64) -> Trace {
        let extents: Vec<Extents> = traces
            .iter()
            .map(|t| Extents::of(&mut TraceStream::new(t)))
            .collect();
        let parts = traces.iter().map(TraceStream::new).collect();
        let mut merged = MergedStream::new(parts, &extents, stagger_ms);
        let mut all = Vec::with_capacity(traces.iter().map(Trace::len).sum());
        while let Some(r) = merged.next_request() {
            all.push(r);
        }
        Trace::from_requests(all)
    }

    /// Serializes in the paper's five-field line format:
    /// `arrival_ms start_block size_bytes R|W proc_id`.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.requests.len() * 32);
        for r in &self.requests {
            out.push_str(&format!(
                "{:.3} {} {} {} {}\n",
                r.arrival_ms,
                r.offset / TRACE_BLOCK_BYTES,
                r.len,
                r.kind.letter(),
                r.proc_id
            ));
        }
        out
    }

    /// Parses the five-field line format produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceParseError`] naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Trace, TraceParseError> {
        let mut requests = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let mut next = |what: &str| {
                fields.next().ok_or_else(|| TraceParseError {
                    line: lineno + 1,
                    message: format!("missing field `{what}`"),
                })
            };
            let arrival_ms: f64 = next("arrival")?.parse().map_err(|_| TraceParseError {
                line: lineno + 1,
                message: "bad arrival time".into(),
            })?;
            let block: u64 = next("block")?.parse().map_err(|_| TraceParseError {
                line: lineno + 1,
                message: "bad start block".into(),
            })?;
            let len: u64 = next("size")?.parse().map_err(|_| TraceParseError {
                line: lineno + 1,
                message: "bad size".into(),
            })?;
            let kind = match next("kind")? {
                "R" => RequestKind::Read,
                "W" => RequestKind::Write,
                other => {
                    return Err(TraceParseError {
                        line: lineno + 1,
                        message: format!("bad request type `{other}`"),
                    })
                }
            };
            let proc_id: u32 = next("proc")?.parse().map_err(|_| TraceParseError {
                line: lineno + 1,
                message: "bad processor id".into(),
            })?;
            requests.push(IoRequest {
                arrival_ms,
                offset: block * TRACE_BLOCK_BYTES,
                len,
                kind,
                proc_id,
            });
        }
        Ok(Trace::from_requests(requests))
    }
}

/// Error from [`Trace::from_text`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, off: u64, len: u64, proc_id: u32) -> IoRequest {
        IoRequest {
            arrival_ms: t,
            offset: off,
            len,
            kind: RequestKind::Read,
            proc_id,
        }
    }

    #[test]
    fn from_requests_sorts() {
        let t = Trace::from_requests(vec![req(5.0, 0, 10, 0), req(1.0, 4096, 10, 0)]);
        assert_eq!(t.requests()[0].arrival_ms, 1.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_bytes(), 20);
        assert_eq!(t.last_arrival_ms(), 5.0);
    }

    #[test]
    fn text_round_trip() {
        let mut t = Trace::new();
        t.push(req(0.0, 0, 32768, 0));
        t.push(IoRequest {
            arrival_ms: 12.5,
            offset: 8192,
            len: 4096,
            kind: RequestKind::Write,
            proc_id: 3,
        });
        let text = t.to_text();
        assert!(text.contains(" W 3"));
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.requests()[1].kind, RequestKind::Write);
        assert_eq!(back.requests()[1].offset, 8192);
        assert_eq!(back.requests()[1].proc_id, 3);
    }

    #[test]
    fn merged_relocates_and_renumbers() {
        let a = Trace::from_requests(vec![req(0.0, 0, 4096, 0), req(10.0, 8192, 4096, 1)]);
        let b = Trace::from_requests(vec![req(5.0, 0, 4096, 0)]);
        let m = Trace::merged(&[a.clone(), b], 100.0);
        assert_eq!(m.len(), 3);
        // b's request lands at offset >= a's end, proc 2, time 105.
        let moved = m
            .requests()
            .iter()
            .find(|r| r.proc_id == 2)
            .expect("renumbered request");
        assert!(moved.offset >= 12288);
        assert!((moved.arrival_ms - 105.0).abs() < 1e-9);
        // Without a stagger, parts interleave by arrival and a tie goes to
        // the earlier part: the stable sort of the concatenation.
        let tie = Trace::from_requests(vec![req(0.0, 0, 4096, 0), req(5.0, 0, 4096, 0)]);
        let m = Trace::merged(&[a, tie], 0.0);
        let order: Vec<(f64, u32)> = m
            .requests()
            .iter()
            .map(|r| (r.arrival_ms, r.proc_id))
            .collect();
        assert_eq!(order, [(0.0, 0), (0.0, 2), (5.0, 2), (10.0, 1)]);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let t = Trace::from_text("# header\n\n0.0 0 4096 R 0\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let e = Trace::from_text("0.0 0 4096 X 0").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("bad request type"));
    }

    #[test]
    #[should_panic]
    fn push_rejects_empty_request() {
        let mut t = Trace::new();
        t.push(req(0.0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "request 1: arrival time NaN")]
    fn from_requests_rejects_nan_arrival() {
        let _ = Trace::from_requests(vec![req(0.0, 0, 10, 0), req(f64::NAN, 4096, 10, 0)]);
    }

    #[test]
    #[should_panic(expected = "not a finite non-negative")]
    fn from_requests_rejects_negative_arrival() {
        let _ = Trace::from_requests(vec![req(-1.0, 0, 10, 0)]);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn from_requests_rejects_zero_length() {
        let _ = Trace::from_requests(vec![req(0.0, 0, 0, 0)]);
    }

    #[test]
    #[should_panic(expected = "not a finite non-negative")]
    fn push_rejects_infinite_arrival() {
        let mut t = Trace::new();
        t.push(req(f64::INFINITY, 0, 10, 0));
    }

    #[test]
    fn from_requests_sort_is_stable_on_equal_arrivals() {
        // Two requests at the same instant keep insertion order, so a
        // shuffled trace sorts to exactly one canonical order.
        let t = Trace::from_requests(vec![
            req(5.0, 0, 10, 0),
            req(1.0, 4096, 10, 1),
            req(1.0, 8192, 10, 2),
        ]);
        let procs: Vec<u32> = t.requests().iter().map(|r| r.proc_id).collect();
        assert_eq!(procs, vec![1, 2, 0]);
    }

    #[test]
    fn from_requests_sorted_input_keeps_exact_order() {
        // Already-sorted input (including equal-arrival runs) must come
        // back untouched — this is the no-sort fast path the streaming
        // adapter relies on.
        let input = vec![
            req(1.0, 0, 10, 3),
            req(1.0, 4096, 10, 1),
            req(2.0, 8192, 10, 2),
            req(2.0, 0, 10, 0),
        ];
        let t = Trace::from_requests(input.clone());
        assert_eq!(t.requests(), &input[..]);
    }
}
