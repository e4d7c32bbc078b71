//! Pull-based trace generation: the streaming counterpart of
//! [`TraceGenerator::generate`](crate::TraceGenerator::generate).
//!
//! The batch path materializes every processor's requests and stable-sorts
//! them by arrival; at `Scale::Paper` that is tens of megabytes of
//! `IoRequest`s per trace. The streaming path produces the *same sequence*
//! one request at a time:
//!
//! * an [`IterCursor`] walks one processor's iterations of one phase
//!   lazily (the [`StreamOrder`] trait supplies cursors; closed-form orders
//!   like [`OriginalOrder`](crate::OriginalOrder) and
//!   [`SetOrder`](crate::SetOrder) need no materialization at all);
//! * [`GenStream`] drives all processors' cursors in lockstep and merges
//!   their emissions with a watermark rule that reproduces the batch
//!   path's stable sort **bit for bit** — including under non-zero arrival
//!   jitter, where a processor's own emissions are not monotone.
//!
//! Resident memory is O(processors × (pending streams + reuse window +
//! in-flight merge buffer)) — independent of trace length.
//!
//! ## Why the merge is exact
//!
//! The batch path concatenates per-processor request vectors (processor
//! order, emission order within a processor, phases in sequence) and
//! stable-sorts by `arrival_ms` (`total_cmp`). That is precisely the
//! sequence sorted by the key `(arrival, proc, seq)` where `seq` numbers a
//! processor's emissions across the whole run. `GenStream` buffers each
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

use crate::{contention_factor, ExecutionOrder, ProcState, TraceGenerator, TraceStats};
use dpm_disksim::{IoRequest, RequestStream};
use dpm_ir::{LoopNest, NestId, Program};
use std::collections::VecDeque;

/// A lazy walk over `(nest, iteration)` pairs: the pull-based counterpart
/// of [`ExecutionOrder::for_each_in_phase`].
pub trait IterCursor {
    /// Writes the next iteration's coordinates into `point` and returns
    /// its nest, or `None` when the walk is exhausted.
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId>;
}

/// An [`ExecutionOrder`] that can also hand out per-`(phase, proc)`
/// cursors, so the trace generator can stream it without materializing
/// iteration lists.
///
/// Contract: the cursor must yield exactly the pairs
/// [`for_each_in_phase`](ExecutionOrder::for_each_in_phase) would visit,
/// in the same order — that is what makes the streamed trace bit-identical
/// to the batch trace.
pub trait StreamOrder: ExecutionOrder {
    /// A cursor over processor `proc`'s iterations within `phase`.
    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_>;
}

/// Lexicographic odometer over one loop nest: the lazy equivalent of
/// [`walk_nest`](crate::walk_nest), handling dynamic (prefix-dependent)
/// bounds and empty ranges at any level.
pub struct NestCursor<'a> {
    nest: &'a LoopNest,
    point: Vec<i64>,
    his: Vec<i64>,
    started: bool,
    done: bool,
}

impl<'a> NestCursor<'a> {
    /// A cursor positioned before the nest's first iteration.
    pub fn new(nest: &'a LoopNest) -> NestCursor<'a> {
        let d = nest.depth();
        NestCursor {
            nest,
            point: vec![0; d],
            his: vec![0; d],
            started: false,
            done: false,
        }
    }

    /// The next iteration point, in the order `walk_nest` visits them.
    pub fn next_point(&mut self) -> Option<&[i64]> {
        if self.done {
            return None;
        }
        let dim = self.nest.depth();
        if dim == 0 {
            // A depth-0 nest has exactly one (empty) iteration.
            if self.started {
                self.done = true;
                return None;
            }
            self.started = true;
            return Some(&self.point);
        }
        let (mut level, mut entering) = if self.started {
            (dim - 1, false)
        } else {
            self.started = true;
            (0, true)
        };
        loop {
            if entering {
                let lo = self.nest.loops[level].lo.eval_prefix(&self.point[..level]);
                let hi = self.nest.loops[level].hi.eval_prefix(&self.point[..level]);
                if lo > hi {
                    if level == 0 {
                        self.done = true;
                        return None;
                    }
                    level -= 1;
                    entering = false;
                    continue;
                }
                self.point[level] = lo;
                self.his[level] = hi;
            } else {
                if self.point[level] >= self.his[level] {
                    if level == 0 {
                        self.done = true;
                        return None;
                    }
                    level -= 1;
                    continue;
                }
                self.point[level] += 1;
            }
            if level + 1 == dim {
                return Some(&self.point);
            }
            level += 1;
            entering = true;
        }
    }
}

/// Cursor over a whole program: nests in program order, iterations
/// lexicographic — [`OriginalOrder`](crate::OriginalOrder)'s walk.
struct OriginalCursor<'a> {
    program: &'a Program,
    nest: usize,
    cur: Option<NestCursor<'a>>,
}

impl IterCursor for OriginalCursor<'_> {
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
        loop {
            if self.nest >= self.program.nests.len() {
                return None;
            }
            let cur = self
                .cur
                .get_or_insert_with(|| NestCursor::new(&self.program.nests[self.nest]));
            if let Some(pt) = cur.next_point() {
                point.clear();
                point.extend_from_slice(pt);
                return Some(self.nest);
            }
            self.cur = None;
            self.nest += 1;
        }
    }
}

impl StreamOrder for crate::OriginalOrder<'_> {
    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_> {
        debug_assert_eq!(phase, 0);
        debug_assert_eq!(proc, 0);
        Box::new(OriginalCursor {
            program: self.program,
            nest: 0,
            cur: None,
        })
    }
}

/// Cursor over a [`SetOrder`](crate::SetOrder): pieces in insertion order,
/// each piece's points streamed lazily through
/// [`dpm_poly::Set::cursor`] (proven to match the sorted enumeration the
/// batch path uses), with the auxiliary `skip` prefix stripped.
struct SetOrderCursor<'a> {
    order: &'a crate::SetOrder,
    piece: usize,
    cur: Option<dpm_poly::SetCursor<'a>>,
}

impl IterCursor for SetOrderCursor<'_> {
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
        loop {
            let (nest, set) = self.order.pieces.get(self.piece)?;
            let cur = self.cur.get_or_insert_with(|| set.cursor());
            if let Some(pt) = cur.next_point() {
                point.clear();
                point.extend_from_slice(&pt[self.order.skip..]);
                return Some(*nest);
            }
            self.cur = None;
            self.piece += 1;
        }
    }
}

impl StreamOrder for crate::SetOrder {
    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_> {
        debug_assert_eq!(phase, 0);
        debug_assert_eq!(proc, 0);
        Box::new(SetOrderCursor {
            order: self,
            piece: 0,
            cur: None,
        })
    }
}

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
    cursor: Option<Box<dyn IterCursor + 'g>>,
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
    order: &'g dyn StreamOrder,
    lanes: Vec<Lane<'g>>,
    phase: usize,
    contention: Vec<f64>,
    stats: TraceStats,
    point: Vec<i64>,
    run_finished: bool,
}

impl<'p> TraceGenerator<'p> {
    /// Streams the program's trace in the given order, one request at a
    /// time. The yielded sequence (and final [`GenStream::stats`]) is
    /// bit-identical to [`generate`](Self::generate) on the same order.
    pub fn stream<'g>(&'g self, order: &'g dyn StreamOrder) -> GenStream<'g> {
        let nprocs = order.num_procs();
        let lanes = (0..nprocs)
            .map(|proc| Lane {
                st: self.proc_state(proc),
                cursor: None,
                delta: TraceStats::default(),
                buffer: VecDeque::new(),
                seq: 0,
                watermark: 0.0_f64.to_bits(),
            })
            .collect();
        let mut s = GenStream {
            generator: self,
            order,
            lanes,
            phase: 0,
            contention: Vec::new(),
            stats: TraceStats::default(),
            point: Vec::new(),
            run_finished: false,
        };
        if order.num_phases() == 0 {
            s.finish_run();
        } else {
            s.start_phase();
        }
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
        let footprints = self.generator.phase_footprints(self.order, self.phase);
        self.contention = (0..self.lanes.len())
            .map(|p| contention_factor(&footprints, p))
            .collect();
        for (proc, lane) in self.lanes.iter_mut().enumerate() {
            lane.cursor = Some(self.order.cursor(self.phase, proc as u32));
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
        let Some(cursor) = lane.cursor.as_mut() else {
            return;
        };
        let mut phase_done = false;
        while lane.st.requests.len() < EMIT_BLOCK {
            match cursor.next(&mut self.point) {
                Some(nest) => self.generator.execute_iteration(
                    nest,
                    &self.point,
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
            lane.cursor = None;
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
        if self.phase < self.order.num_phases() {
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
                .filter(|(_, l)| l.cursor.is_some())
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
    use crate::{OriginalOrder, SetOrder, TraceGenOptions};
    use dpm_layout::{LayoutMap, Striping};

    fn program(src: &str) -> Program {
        dpm_ir::parse_program(src).unwrap()
    }

    #[test]
    fn nest_cursor_matches_walk_nest() {
        let p = program(
            "program t; array A[8][4] : f64;
             nest L { for i = 0 .. 7 { for j = 0 .. i { A[i][j] = 1; } } }",
        );
        let mut expect = Vec::new();
        crate::walk_nest(&p.nests[0], &mut |pt| expect.push(pt.to_vec()));
        let mut cur = NestCursor::new(&p.nests[0]);
        let mut got = Vec::new();
        while let Some(pt) = cur.next_point() {
            got.push(pt.to_vec());
        }
        assert_eq!(got, expect);
        assert!(cur.next_point().is_none());
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
        let order = OriginalOrder::new(&p);
        let (trace, stats) = generator.generate(&order);
        let mut stream = generator.stream(&order);
        let streamed = drain(&mut stream);
        assert_eq!(streamed, trace.requests());
        assert_eq!(stream.stats(), stats);
        assert!(stream.is_finished());
        assert!(stream.next_request().is_none());
    }

    #[test]
    fn streamed_set_order_matches_batch() {
        let p = program(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = A[i][j] + 1; } } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let space = dpm_poly::Polyhedron::universe(2)
            .with_range(0, 0, 63)
            .with_range(1, 0, 7);
        let mut order = SetOrder::new(0);
        order.push(0, dpm_poly::Set::from(space));
        let generator = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, stats) = generator.generate(&order);
        let mut stream = generator.stream(&order);
        assert_eq!(drain(&mut stream), trace.requests());
        assert_eq!(stream.stats(), stats);
    }

    #[test]
    fn streamed_matches_batch_with_jitter() {
        // Jitter makes per-processor emissions non-monotone; the watermark
        // buffer must still reproduce the batch path's stable sort.
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
        let order = OriginalOrder::new(&p);
        let (trace, stats) = generator.generate(&order);
        let mut stream = generator.stream(&order);
        assert_eq!(drain(&mut stream), trace.requests());
        assert_eq!(stream.stats(), stats);
    }
}
