//! Pull-based trace generation: the streaming counterpart of
//! [`TraceGenerator::generate`](crate::TraceGenerator::generate).
//!
//! The batch path materializes each processor's requests as a lane and
//! merges the lanes by `(arrival, processor)`; at `Scale::Paper` that is
//! tens of megabytes of `IoRequest`s per trace. The streaming path
//! produces the *same sequence* one request at a time:
//!
//! * each processor's lane walks its iterations of the current phase with
//!   a [`ScheduleIter`] held by value ([`Schedule::iter`]), which unranks
//!   the schedule's runs as it goes, so nothing is materialized;
//! * [`GenStream`] drives all lanes in lockstep and merges their emissions
//!   with a watermark rule that reproduces the batch path's order **bit
//!   for bit** — including under non-zero arrival jitter, where a
//!   processor's own emissions are not monotone.
//!
//! Resident memory is O(processors × (pending streams + reuse window +
//! in-flight merge buffer)) — independent of trace length.
//!
//! ## Why the merge is exact
//!
//! Both paths order requests by the key `(arrival, proc, seq)`, where
//! `seq` numbers a processor's emissions across the whole run: the stable
//! sort by `arrival_ms` (`total_cmp`) of the processor-major concatenation
//! of every processor's emissions. The batch path stably sorts each lane
//! by arrival (only under jitter is one out of order) and merges the lanes
//! with ties to the lower processor. `GenStream` buffers each
//! processor's emissions sorted on `(arrival, seq)` and releases a
//! processor's head only when no *future* emission anywhere can precede it
//! under that key. A processor's future arrivals are bounded below by its
//! watermark `W = min(min pending first_ms, clock)`: a pending request
//! emits at `first_ms + jitter ≥ first_ms`, and a request opened later has
//! `first_ms ≥ clock` (clocks never move backwards — compute and blocking
//! only add time, and barriers take the max). So the head with the
//! smallest `(arrival, proc)` among heads with `arrival ≤ own W` is safe
//! to release once it also precedes `(min(head, W), proc)` of every other
//! processor.

use crate::{contention_factor, ProcState, TraceGenerator, TraceStats};
use dpm_core::{Schedule, ScheduleIter};
use dpm_disksim::{IoRequest, RequestStream};
use std::collections::VecDeque;

/// Requests a lane emits per [`GenStream`] drive before the merge looks
/// again. Driving a lane only to its first request made the merge rescan
/// every lane once per request; a block amortizes that over many, at the
/// cost of buffering at most this many requests (plus one iteration's
/// worth) per lane.
const EMIT_BLOCK: usize = 64;

/// One request in a processor's release buffer, ordered by
/// `(arrival bits, emission seq)`. Arrivals are finite and non-negative,
/// so their IEEE-754 bit patterns order exactly like `total_cmp`.
struct Buffered {
    key: (u64, u64),
    req: IoRequest,
}

/// One processor's lane of the lockstep merge.
struct Lane<'g> {
    st: ProcState,
    /// `Some` while the lane still has iterations (or a pending flush) in
    /// the current phase; `None` once the phase's emissions are complete.
    walk: Option<ScheduleIter<'g>>,
    /// This phase's stat deltas, merged at the barrier in processor order
    /// (the batch path's association, so stats match bit for bit).
    delta: TraceStats,
    /// Emitted requests not yet released, sorted by key. Without jitter a
    /// lane emits in key order, so pushes land at the back.
    buffer: VecDeque<Buffered>,
    seq: u64,
    /// Lower bound (as arrival bits) on this lane's future emissions:
    /// `W = min(clock, min pending first_ms)`, or +∞ once the run is
    /// finished. Only driving the lane and barriers change its state, so
    /// both refresh it.
    watermark: u64,
}

impl Lane<'_> {
    fn refresh_watermark(&mut self) {
        let mut w = self.st.clock_ms;
        for p in &self.st.pending {
            w = w.min(p.first_ms);
        }
        self.watermark = w.to_bits();
    }

    fn head_bits(&self) -> Option<u64> {
        self.buffer.front().map(|b| b.key.0)
    }

    fn drain_emitted(&mut self) {
        for req in self.st.requests.drain(..) {
            let b = Buffered {
                key: (req.arrival_ms.to_bits(), self.seq),
                req,
            };
            self.seq += 1;
            if self.buffer.back().is_none_or(|last| last.key < b.key) {
                self.buffer.push_back(b);
            } else {
                let at = self.buffer.partition_point(|x| x.key < b.key);
                self.buffer.insert(at, b);
            }
        }
    }
}

/// A [`RequestStream`] that *generates* the trace on demand — the
/// streaming form of [`TraceGenerator::generate`], bit-identical to it in
/// request sequence and [`TraceStats`].
///
/// Create with [`TraceGenerator::stream`]; consume via
/// [`RequestStream::next_request`] (e.g. feed it straight to
/// `Simulator::run_stream`, or to every simulator of a pass through
/// `dpm_bench::simulate_all`). Call
/// [`stats`](GenStream::stats) after exhaustion for the generation
/// statistics.
///
/// Generation is single-threaded: the lockstep merge is inherently
/// serial, and so is the simulator's event loop that usually consumes
/// it. Experiment matrices run whole cells in parallel instead.
pub struct GenStream<'g> {
    generator: &'g TraceGenerator<'g>,
    schedule: &'g Schedule,
    lanes: Vec<Lane<'g>>,
    phase: usize,
    contention: Vec<f64>,
    stats: TraceStats,
    run_finished: bool,
}

impl<'p> TraceGenerator<'p> {
    /// Streams the program's trace in `schedule`'s order, one request at a
    /// time. The yielded sequence (and final [`GenStream::stats`]) is
    /// bit-identical to [`generate`](Self::generate) on the same schedule.
    pub fn stream<'g>(&'g self, schedule: &'g Schedule) -> GenStream<'g> {
        let lanes = (0..schedule.num_procs())
            .map(|proc| Lane {
                st: self.proc_state(proc),
                walk: None,
                delta: TraceStats::default(),
                buffer: VecDeque::new(),
                seq: 0,
                watermark: 0.0_f64.to_bits(),
            })
            .collect();
        let mut s = GenStream {
            generator: self,
            schedule,
            lanes,
            phase: 0,
            contention: Vec::new(),
            stats: TraceStats::default(),
            run_finished: false,
        };
        // A schedule has at least one phase.
        s.start_phase();
        s
    }
}

impl GenStream<'_> {
    /// Generation statistics. Complete (and equal to the batch path's)
    /// once the stream has been exhausted; partial before that.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Whether every request has been yielded.
    pub fn is_finished(&self) -> bool {
        self.run_finished && self.lanes.iter().all(|l| l.buffer.is_empty())
    }

    fn finish_run(&mut self) {
        self.run_finished = true;
        for lane in &mut self.lanes {
            lane.watermark = f64::INFINITY.to_bits();
        }
    }

    fn start_phase(&mut self) {
        let footprints = self.generator.phase_footprints(self.schedule, self.phase);
        self.contention = (0..self.lanes.len())
            .map(|p| contention_factor(&footprints, p))
            .collect();
        for (proc, lane) in (0u32..).zip(&mut self.lanes) {
            lane.walk = Some(self.schedule.iter(self.phase, proc));
        }
    }

    /// Runs lane `i` until it emits [`EMIT_BLOCK`] requests or finishes
    /// its phase (and its end-of-phase flush), then buffers what it
    /// emitted.
    ///
    /// How far a lane runs ahead cannot change the merge: its buffer only
    /// gains requests, kept sorted by key, and its watermark only rises
    /// (the clock only advances, and new streams open at the clock), so it
    /// stays a lower bound on the lane's future emissions. The release
    /// rule alone fixes the output order.
    fn drive(&mut self, i: usize) {
        let lane = &mut self.lanes[i];
        let contention = self.contention[i];
        let Some(walk) = lane.walk.as_mut() else {
            return;
        };
        let mut phase_done = false;
        while lane.st.requests.len() < EMIT_BLOCK {
            match walk.next_point() {
                Some((nest, iter)) => self.generator.execute_iteration(
                    nest,
                    iter,
                    i as u32,
                    contention,
                    &mut lane.st,
                    &mut lane.delta,
                ),
                None => {
                    self.generator
                        .flush_all(i as u32, contention, &mut lane.st, &mut lane.delta);
                    phase_done = true;
                    break;
                }
            }
        }
        if phase_done {
            lane.walk = None;
        }
        lane.drain_emitted();
        lane.refresh_watermark();
    }

    /// All lanes done with the current phase: merge stats in processor
    /// order, synchronize clocks to the laggard, and open the next phase
    /// (or finish the run).
    fn barrier(&mut self) {
        for lane in &mut self.lanes {
            self.stats.merge(&lane.delta);
            lane.delta = TraceStats::default();
        }
        let max_clock = self
            .lanes
            .iter()
            .map(|l| l.st.clock_ms)
            .fold(0.0_f64, f64::max);
        for lane in &mut self.lanes {
            lane.st.clock_ms = max_clock;
            lane.refresh_watermark();
        }
        self.phase += 1;
        if self.phase < self.schedule.num_phases() {
            self.start_phase();
        } else {
            self.finish_run();
        }
    }
}

impl RequestStream for GenStream<'_> {
    fn next_request(&mut self) -> Option<IoRequest> {
        loop {
            // Candidate: the minimal (arrival, proc) head that cannot be
            // preceded by its own lane's future emissions...
            let mut best: Option<(u64, usize)> = None;
            for (i, lane) in self.lanes.iter().enumerate() {
                if let Some(hb) = lane.head_bits() {
                    if hb <= lane.watermark && best.is_none_or(|b| (hb, i) < b) {
                        best = Some((hb, i));
                    }
                }
            }
            // ...and safe against every other lane's bound min(head, W):
            // if the minimal candidate fails that check, every larger one
            // does too, so drive the generator instead of scanning on.
            if let Some((hb, i)) = best {
                let safe = self.lanes.iter().enumerate().all(|(q, lane)| {
                    if q == i {
                        return true;
                    }
                    let lb = lane.watermark.min(lane.head_bits().unwrap_or(u64::MAX));
                    (hb, i) < (lb, q)
                });
                if safe {
                    let b = self.lanes[i].buffer.pop_front().expect("head just peeked");
                    return Some(b.req);
                }
            }
            if self.run_finished {
                // Nothing buffered anywhere (all heads are releasable once
                // watermarks are infinite, so best=None means empty buffers).
                debug_assert!(self.lanes.iter().all(|l| l.buffer.is_empty()));
                return None;
            }
            // Make progress on the lane holding the merge back: the
            // unfinished lane with the lowest future-emission bound.
            let next = self
                .lanes
                .iter()
                .enumerate()
                .filter(|(_, l)| l.walk.is_some())
                .min_by_key(|(q, l)| (l.watermark.min(l.head_bits().unwrap_or(u64::MAX)), *q))
                .map(|(q, _)| q);
            match next {
                Some(q) => self.drive(q),
                None => self.barrier(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceGenOptions;
    use dpm_core::{original_schedule, CompactIter};
    use dpm_ir::Program;
    use dpm_layout::{LayoutMap, Striping};

    fn program(src: &str) -> Program {
        dpm_ir::parse_program(src).unwrap()
    }

    fn drain(stream: &mut GenStream<'_>) -> Vec<IoRequest> {
        let mut v = Vec::new();
        while let Some(r) = stream.next_request() {
            v.push(r);
        }
        v
    }

    #[test]
    fn streamed_original_order_matches_batch() {
        let p = program(
            "program t; array A[256][128] : f64;
             nest L { for i = 0 .. 255 { for j = 0 .. 127 { A[i][j] = A[i][j] + 1 @ 750; } } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let generator = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let schedule = original_schedule(&p);
        let (trace, stats) = generator.generate(&schedule);
        let mut stream = generator.stream(&schedule);
        let streamed = drain(&mut stream);
        assert_eq!(streamed, trace.requests());
        assert_eq!(stream.stats(), stats);
        assert!(stream.is_finished());
        assert!(stream.next_request().is_none());
    }

    /// A multi-processor, multi-phase schedule streamed through
    /// `TraceGenerator::stream` yields the batch path's trace and stats
    /// bit for bit — the hardest merge case (cross-processor arrival ties
    /// at every barrier).
    #[test]
    fn streamed_schedule_matches_batch_generation() {
        let p = program(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
        );
        let mut s = Schedule::new(&p, 2, 2);
        p.nests[0].walk(|pt| {
            let phase = usize::from(pt[0] >= 32);
            let proc = (pt[0] % 2) as u32;
            s.push(phase, proc, CompactIter::new(0, pt));
        });
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let generator = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, stats) = generator.generate(&s);
        let mut stream = generator.stream(&s);
        assert_eq!(drain(&mut stream), trace.requests());
        assert_eq!(stream.stats(), stats);
    }

    #[test]
    fn streamed_matches_batch_with_jitter() {
        // Jitter makes per-processor emissions non-monotone; the watermark
        // buffer must still reproduce the batch path's sorted lanes.
        let p = program(
            "program t; array A[256][128] : f64;
             nest L { for i = 0 .. 255 { for j = 0 .. 127 { A[i][j] = A[i][j] + 1 @ 750; } } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            arrival_jitter_ms: 2.0,
            ..TraceGenOptions::default()
        };
        let generator = TraceGenerator::new(&p, &layout, opts);
        let schedule = original_schedule(&p);
        let (trace, stats) = generator.generate(&schedule);
        let mut stream = generator.stream(&schedule);
        assert_eq!(drain(&mut stream), trace.requests());
        assert_eq!(stream.stats(), stats);
    }
}
