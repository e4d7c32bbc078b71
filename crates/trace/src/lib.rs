//! # dpm-trace — compiler-side I/O trace generation
//!
//! Executes a loop-nest `Program` in the order a [`Schedule`] gives
//! (original or compiler-restructured, on one or several processors) and
//! produces the disk I/O request trace that the paper's simulator consumes
//! (§7.1). Every code version the paper evaluates is a `Schedule`, so that
//! is the one input [`TraceGenerator::generate`] and
//! [`TraceGenerator::stream`] take; each walks a processor's iterations
//! with [`Schedule::iter`].
//!
//! The model:
//!
//! * each processor has a virtual clock advanced by per-statement compute
//!   cycles (the stand-in for the paper's measured UltraSPARC-III cycle
//!   estimates) and by the nominal service time of the I/O it issues
//!   (applications block on disk I/O — the paper's codes spend 75–82 % of
//!   their time in it);
//! * a per-processor window of recently touched stripes models the on-disk
//!   cache / OS page cache, so re-touching a just-used block issues no new
//!   request;
//! * consecutive accesses to adjacent volume bytes coalesce into larger
//!   requests (up to a cap), the way readahead/collective I/O batches
//!   requests in a real system.
//!
//! ```
//! use dpm_trace::{TraceGenerator, TraceGenOptions};
//! use dpm_layout::{LayoutMap, Striping};
//!
//! let p = dpm_ir::parse_program(
//!     "program t; array A[512][64] : f64;
//!      nest L { for i = 0 .. 511 { for j = 0 .. 63 { A[i][j] = A[i][j] + 1; } } }",
//! ).unwrap();
//! let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
//! let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
//! let (trace, stats) = gen.generate(&dpm_core::original_schedule(&p));
//! assert!(trace.len() > 0);
//! assert_eq!(stats.element_accesses, 2 * 512 * 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpm_core::compile::CompiledProgram;
use dpm_core::Schedule;
use dpm_disksim::{DiskParams, IoRequest, RequestKind, SequentialStreams, ServiceTime, Trace};
use dpm_ir::{AccessKind, NestId, Program};
use dpm_layout::LayoutMap;
use dpm_obs::XorShift64Star;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use window::ReuseWindow;

mod codec;
mod stream;
mod window;

pub use codec::{TraceReader, TraceWriter, TRACE_MAGIC};
pub use dpm_disksim::RequestStream;
pub use stream::GenStream;

/// Options controlling trace generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceGenOptions {
    /// Processor clock rate; default 750 MHz (the paper's SUN Blade1000,
    /// UltraSPARC-III, §7.1).
    pub cpu_hz: f64,
    /// Page-block size: disk-resident data is accessed in whole blocks of
    /// this many bytes (§7.1, "page block granularity").
    pub block_bytes: u64,
    /// Maximum size of one coalesced request.
    pub max_request_bytes: u64,
    /// Per-processor count of recently-touched blocks that hit in cache.
    pub reuse_window_blocks: usize,
    /// Concurrent request-assembly streams per processor (a loop body that
    /// walks several arrays at once keeps one readahead stream per array,
    /// as an OS per-file readahead would).
    pub streams: usize,
    /// Whether processors block for the nominal service time of each
    /// request they issue (keeps the compute/I/O balance realistic).
    pub block_on_io: bool,
    /// Uniform random jitter (ms) added to each request's arrival time,
    /// modeling OS scheduling noise. `0.0` (the default) keeps generation
    /// fully deterministic; non-zero jitter uses a fixed seed, so traces
    /// remain reproducible.
    pub arrival_jitter_ms: f64,
}

impl TraceGenOptions {
    /// Compute time of `cycles` processor cycles at [`cpu_hz`](Self::cpu_hz),
    /// ms.
    #[inline]
    pub fn compute_ms(&self, cycles: u64) -> f64 {
        (cycles as f64) / self.cpu_hz * 1000.0
    }
}

impl Default for TraceGenOptions {
    fn default() -> Self {
        TraceGenOptions {
            cpu_hz: 750.0e6,
            block_bytes: 4096,
            max_request_bytes: 1024 * 1024,
            reuse_window_blocks: 128,
            streams: 8,
            block_on_io: true,
            arrival_jitter_ms: 0.0,
        }
    }
}

/// Summary statistics of a generated trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Array-element accesses executed.
    pub element_accesses: u64,
    /// Accesses absorbed by the reuse window (no request issued).
    pub cache_hits: u64,
    /// I/O requests emitted.
    pub requests: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Pure compute time accumulated over all processors (ms).
    pub compute_ms: f64,
    /// Nominal I/O blocking time accumulated over all processors (ms).
    pub io_block_ms: f64,
}

impl TraceStats {
    /// Fraction of virtual execution time spent blocked on I/O.
    pub fn io_fraction(&self) -> f64 {
        let total = self.compute_ms + self.io_block_ms;
        if total == 0.0 {
            0.0
        } else {
            self.io_block_ms / total
        }
    }

    /// Folds another processor's per-phase deltas into this total. The
    /// batch generator and [`GenStream`] both accumulate per-processor
    /// deltas and merge them at each barrier in processor order, so the
    /// float association (and hence the result) is the same in both.
    fn merge(&mut self, other: &TraceStats) {
        self.element_accesses += other.element_accesses;
        self.cache_hits += other.cache_hits;
        self.requests += other.requests;
        self.bytes += other.bytes;
        self.compute_ms += other.compute_ms;
        self.io_block_ms += other.io_block_ms;
    }
}

/// A request under assembly in one readahead stream.
#[derive(Clone, Copy, Debug)]
struct Pending {
    offset: u64,
    len: u64,
    kind: AccessKind,
    first_ms: f64,
}

/// Per-processor execution state during generation.
struct ProcState {
    clock_ms: f64,
    rng: XorShift64Star,
    /// Requests under assembly, one per active stream. Allocated with room
    /// for `streams.max(1)` entries, which it never exceeds.
    pending: Vec<Pending>,
    /// Recently-touched blocks (FIFO eviction).
    recent: ReuseWindow,
    /// Per-disk sequential-stream tables, for the nominal blocking
    /// estimate.
    detector: Vec<SequentialStreams>,
    /// Scratch for per-disk request splitting in the blocking estimate
    /// (reused across requests to avoid a per-request allocation).
    split_buf: Vec<(usize, u64, u64)>,
    requests: Vec<IoRequest>,
}

impl ProcState {
    fn jitter(&mut self, max_ms: f64) -> f64 {
        self.rng.uniform(max_ms)
    }
}

/// Generates traces for a program under a given layout.
#[derive(Debug)]
pub struct TraceGenerator<'p> {
    program: &'p Program,
    layout: &'p LayoutMap,
    options: TraceGenOptions,
    compiled: CompiledProgram,
    /// Compute time of each statement, ms: `stmt_ms[nest][stmt]`.
    stmt_ms: Vec<Vec<f64>>,
    /// The disks' service-time model at full speed, for the nominal
    /// blocking estimate.
    service: ServiceTime,
}

impl<'p> TraceGenerator<'p> {
    /// Creates a generator, compiling every array reference of `program`.
    pub fn new(program: &'p Program, layout: &'p LayoutMap, options: TraceGenOptions) -> Self {
        let params = DiskParams::default();
        let compiled = CompiledProgram::new(program);
        let stmt_ms = (0..program.nests.len())
            .map(|nest| {
                compiled
                    .nest(nest)
                    .iter()
                    .map(|stmt| options.compute_ms(stmt.cost_cycles))
                    .collect()
            })
            .collect();
        TraceGenerator {
            program,
            layout,
            options,
            compiled,
            stmt_ms,
            service: params.service_at(params.max_rpm),
        }
    }

    /// Uses non-default disk parameters for the nominal-service estimate.
    #[must_use]
    pub fn with_disk_params(mut self, params: DiskParams) -> Self {
        self.service = params.service_at(params.max_rpm);
        self
    }

    /// Fresh execution state for processor `proc`.
    fn proc_state(&self, proc: u32) -> ProcState {
        ProcState {
            clock_ms: 0.0,
            rng: XorShift64Star::new(0x5eed_0000 + u64::from(proc)),
            pending: Vec::with_capacity(self.options.streams.max(1)),
            recent: ReuseWindow::with_capacity(self.options.reuse_window_blocks),
            detector: vec![SequentialStreams::default(); self.layout.striping().num_disks()],
            split_buf: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Runs the program in `schedule`'s order, returning the trace and
    /// generation statistics. Phase boundaries act as barriers: every
    /// processor's clock advances to the slowest one's before the next
    /// phase starts, and pending requests are flushed.
    ///
    /// Each processor's requests form a lane, in arrival order, shrunk to
    /// fit once the last phase ends. A single lane is the trace itself;
    /// several are merged by `(arrival, processor)` into one vector of
    /// exactly their total length. The result is the sequence
    /// [`stream`](Self::stream) yields, bit for bit.
    pub fn generate(&self, schedule: &Schedule) -> (Trace, TraceStats) {
        let mut sp = dpm_obs::span!("trace_generate");
        let mut stats = TraceStats::default();
        let nprocs = schedule.num_procs();
        sp.add("procs", u64::from(nprocs));
        sp.add("phases", schedule.num_phases() as u64);
        // Within a phase the processors are independent (they synchronize
        // only at phase boundaries), so each runs its whole phase in turn.
        // Its stat deltas are merged in processor order, the association
        // `GenStream::barrier` uses, so both generators agree bit for bit.
        let mut states: Vec<ProcState> = (0..nprocs).map(|proc| self.proc_state(proc)).collect();
        for phase in 0..schedule.num_phases() {
            // Device-sharing estimate for this phase: a processor's I/O
            // blocking scales with the number of processors whose disk
            // footprints overlap its own (a disk time-shares its bandwidth
            // among the processors driving it). A layout-aware partition
            // with disjoint per-processor disk groups therefore pays no
            // contention, while a naive parallelization in which every
            // processor sweeps every disk pays the full factor.
            let footprints = self.phase_footprints(schedule, phase);
            for (proc, st) in (0u32..).zip(&mut states) {
                let contention = contention_factor(&footprints, proc as usize);
                let mut delta = TraceStats::default();
                let mut walk = schedule.iter(phase, proc);
                while let Some((nest, iter)) = walk.next_point() {
                    self.execute_iteration(nest, iter, proc, contention, st, &mut delta);
                }
                self.flush_all(proc, contention, st, &mut delta);
                stats.merge(&delta);
            }
            // Barrier: synchronize clocks.
            let max_clock = states.iter().map(|s| s.clock_ms).fold(0.0_f64, f64::max);
            for st in &mut states {
                st.clock_ms = max_clock;
            }
        }
        let lanes = states
            .into_iter()
            .map(|st| {
                let mut lane = st.requests;
                lane.shrink_to_fit();
                // Eviction emits the pending request with the oldest
                // `first_ms`, so without jitter a lane is already in
                // arrival order and pays no sort.
                if !lane.is_sorted_by_key(|r| r.arrival_ms.to_bits()) {
                    lane.sort_by_key(|r| r.arrival_ms.to_bits());
                }
                lane
            })
            .collect();
        sp.add("requests", stats.requests);
        sp.add("cache_hits", stats.cache_hits);
        sp.add("element_accesses", stats.element_accesses);
        (Trace::from_requests(merge_lanes(lanes)), stats)
    }

    /// Which disks each processor touches within one phase:
    /// `footprints[proc][disk]`. A single processor shares nothing, so its
    /// footprint is left empty. A processor's walk stops once it has
    /// touched every disk: its footprint is then all-true whatever the rest
    /// of its phase touches.
    fn phase_footprints(&self, schedule: &Schedule, phase: usize) -> Vec<Vec<bool>> {
        let nprocs = schedule.num_procs();
        if nprocs == 1 {
            return vec![Vec::new()];
        }
        let striping = self.layout.striping();
        (0..nprocs)
            .map(|proc| {
                let mut touched = vec![false; striping.num_disks()];
                let mut untouched = touched.len();
                let mut walk = schedule.iter(phase, proc);
                'walk: while let Some((nest, iter)) = walk.next_point() {
                    for stmt in self.compiled.nest(nest) {
                        for r in &stmt.refs {
                            let offset = r.offset(self.program, self.layout, iter);
                            let disk = &mut touched[striping.disk_of_offset(offset)];
                            if !*disk {
                                *disk = true;
                                untouched -= 1;
                                if untouched == 0 {
                                    break 'walk;
                                }
                            }
                        }
                    }
                }
                touched
            })
            .collect()
    }

    fn execute_iteration(
        &self,
        nest: NestId,
        iter: &[i64],
        proc: u32,
        contention: f64,
        st: &mut ProcState,
        stats: &mut TraceStats,
    ) {
        for (stmt, &ms) in self.compiled.nest(nest).iter().zip(&self.stmt_ms[nest]) {
            for r in &stmt.refs {
                stats.element_accesses += 1;
                let offset = r.offset(self.program, self.layout, iter);
                self.access(proc, offset, r.elem_bytes, r.kind, contention, st, stats);
            }
            stats.compute_ms += ms;
            st.clock_ms += ms;
        }
    }

    /// One element access: disk data moves in whole page blocks, so the
    /// access touches every block overlapping `[offset, offset+len)`. A
    /// block in the reuse window (or already covered by the pending
    /// request) costs nothing; a missing block is fetched whole, coalescing
    /// with the pending request when adjacent.
    #[allow(clippy::too_many_arguments)] // hot path; grouping would box per-access state
    fn access(
        &self,
        proc: u32,
        offset: u64,
        len: u64,
        kind: AccessKind,
        contention: f64,
        st: &mut ProcState,
        stats: &mut TraceStats,
    ) {
        let bs = self.options.block_bytes;
        let first_block = offset / bs;
        let last_block = (offset + len - 1) / bs;
        let mut any_miss = false;
        for b in first_block..=last_block {
            let bo = b * bs;
            // One pass over the streams answers two questions. Is the
            // block the tail block of some pending request? Then it is
            // still "in hand" (write-then-read of the same element is
            // free); older coverage must come from the reuse window, so a
            // large pending request does not double as an unbounded cache.
            // Pending requests are whole blocks, at least one, so the tail
            // block starts at `offset + len - bs`. Otherwise, the first
            // stream whose request ends exactly here and has room left is
            // the one a miss extends.
            let mut in_hand = false;
            let mut extend = None;
            for (i, p) in st.pending.iter().enumerate() {
                let end = p.offset + p.len;
                if end == bo + bs {
                    in_hand = true;
                    break;
                }
                if extend.is_none()
                    && end == bo
                    && p.kind == kind
                    && p.len + bs <= self.options.max_request_bytes
                {
                    extend = Some(i);
                }
            }
            if in_hand || st.recent.touch(b) {
                continue;
            }
            any_miss = true;
            if let Some(i) = extend {
                st.pending[i].len += bs;
                continue;
            }
            // Open a new stream, evicting the oldest when full: the first
            // stream, in the current (swap-remove) order, with the minimal
            // `first_ms`.
            if st.pending.len() >= self.options.streams.max(1) {
                let oldest = st
                    .pending
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.first_ms.total_cmp(&b.first_ms))
                    .map(|(i, _)| i)
                    .expect("pending is non-empty: len >= streams.max(1) >= 1");
                let p = st.pending.swap_remove(oldest);
                self.emit(proc, p, contention, st, stats);
            }
            st.pending.push(Pending {
                offset: bo,
                len: bs,
                kind,
                first_ms: st.clock_ms,
            });
        }
        if !any_miss {
            stats.cache_hits += 1;
            // Per-element events are voluminous; they are only emitted in
            // verbose mode, and otherwise summarized by the
            // `trace_generate` span's cache_hits counter.
            if dpm_obs::verbose() {
                dpm_obs::emit(
                    dpm_obs::kind::CACHE_HIT,
                    "reuse_window",
                    &[("proc", proc.into()), ("block", first_block.into())],
                );
            }
        }
    }

    /// Flushes every stream (phase boundary / end of run), oldest first.
    fn flush_all(&self, proc: u32, contention: f64, st: &mut ProcState, stats: &mut TraceStats) {
        let mut drained = std::mem::take(&mut st.pending);
        drained.sort_by(|a, b| a.first_ms.total_cmp(&b.first_ms));
        for p in drained.drain(..) {
            self.emit(proc, p, contention, st, stats);
        }
        st.pending = drained;
    }

    fn emit(
        &self,
        proc: u32,
        p: Pending,
        contention: f64,
        st: &mut ProcState,
        stats: &mut TraceStats,
    ) {
        let arrival = p.first_ms + st.jitter(self.options.arrival_jitter_ms);
        let kind = match p.kind {
            AccessKind::Read => RequestKind::Read,
            AccessKind::Write => RequestKind::Write,
        };
        if dpm_obs::enabled() {
            dpm_obs::emit(
                dpm_obs::kind::REQUEST,
                "io_request",
                &[
                    ("proc", proc.into()),
                    ("at_ms", arrival.into()),
                    ("offset", p.offset.into()),
                    ("len", p.len.into()),
                    (
                        "op",
                        match kind {
                            RequestKind::Read => "read",
                            RequestKind::Write => "write",
                        }
                        .into(),
                    ),
                ],
            );
        }
        st.requests.push(IoRequest {
            arrival_ms: arrival,
            offset: p.offset,
            len: p.len,
            kind,
            proc_id: proc,
        });
        stats.requests += 1;
        stats.bytes += p.len;
        if self.options.block_on_io {
            // Blocking estimate: the request's per-disk pieces are serviced
            // in parallel, so the processor waits for the slowest piece;
            // positioning is charged only when a piece does not continue a
            // sequential stream on its disk. A device-sharing factor
            // models p processors hammering the same disks.
            let mut worst = 0.0_f64;
            self.layout
                .striping()
                .split_range_into(p.offset, p.len, &mut st.split_buf);
            for &(disk, local_byte, len) in &st.split_buf {
                let sequential = st.detector[disk].continues(local_byte, len);
                worst = worst.max(self.service.ms(len, sequential));
            }
            let block = worst * contention;
            st.clock_ms += block;
            stats.io_block_ms += block;
        }
    }
}

/// Device-sharing factor for `proc`: the largest number of processors
/// (including `proc`) that drive some disk in `proc`'s phase footprint.
fn contention_factor(footprints: &[Vec<bool>], proc: usize) -> f64 {
    if footprints.len() == 1 {
        return 1.0;
    }
    let worst = footprints[proc]
        .iter()
        .enumerate()
        .filter(|&(_, &touched)| touched)
        .map(|(d, _)| footprints.iter().filter(|f| f[d]).count())
        .max()
        .unwrap_or(1);
    worst as f64
}

/// Merges per-processor lanes, each in arrival order, into one sequence
/// ordered by `(arrival, processor)`, a lane's equal arrivals keeping
/// their emission order: the stable sort by arrival of the lanes'
/// processor-major concatenation. A single lane is returned as it is;
/// otherwise the output is allocated at exactly the lanes' total, and a
/// heap of lane heads costs O(log lanes) per request. Arrivals are finite
/// and non-negative, so their bit patterns order exactly like `total_cmp`.
fn merge_lanes(mut lanes: Vec<Vec<IoRequest>>) -> Vec<IoRequest> {
    if let [lane] = &mut lanes[..] {
        return std::mem::take(lane);
    }
    let mut merged = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    let mut next = vec![0; lanes.len()];
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = lanes
        .iter()
        .enumerate()
        .filter_map(|(proc, lane)| Some(Reverse((lane.first()?.arrival_ms.to_bits(), proc))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((_, proc)) = *head;
        merged.push(lanes[proc][next[proc]]);
        next[proc] += 1;
        match lanes[proc].get(next[proc]) {
            Some(r) => *head = Reverse((r.arrival_ms.to_bits(), proc)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    merged
}

/// Number of times consecutive requests in the trace land on different
/// disks — a simple clustering (disk-reuse) metric: lower is better.
pub fn disk_switch_count(trace: &Trace, striping: &dpm_layout::Striping) -> u64 {
    let mut switches = 0;
    let mut last: Option<usize> = None;
    for r in trace.requests() {
        let d = striping.disk_of_offset(r.offset);
        if let Some(prev) = last {
            if prev != d {
                switches += 1;
            }
        }
        last = Some(d);
    }
    switches
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::{original_schedule, CompactIter};
    use dpm_layout::Striping;

    fn program(src: &str) -> Program {
        dpm_ir::parse_program(src).unwrap()
    }

    fn sequential_program() -> Program {
        program(
            "program t; array A[256][128] : f64;
             nest L { for i = 0 .. 255 { for j = 0 .. 127 { A[i][j] = A[i][j] + 1 @ 750; } } }",
        )
    }

    #[test]
    fn sequential_sweep_coalesces() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, stats) = gen.generate(&original_schedule(&p));
        // 256*128 elements * 8 B = 256 KiB of data; block-granularity
        // fetches coalesce into a handful of large requests.
        assert!(trace.len() < 8, "{} requests", trace.len());
        assert_eq!(stats.bytes, 256 * 128 * 8);
        // Writes after reads of the same stripe hit the reuse window.
        assert!(stats.cache_hits > 0);
    }

    #[test]
    fn arrivals_are_monotone_per_processor() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, _) = gen.generate(&original_schedule(&p));
        let mut last = f64::NEG_INFINITY;
        for r in trace.requests() {
            assert!(r.arrival_ms >= last);
            last = r.arrival_ms;
        }
    }

    #[test]
    fn io_fraction_reported() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (_, stats) = gen.generate(&original_schedule(&p));
        let f = stats.io_fraction();
        assert!(f > 0.05 && f < 0.98, "io fraction {f}");
    }

    #[test]
    fn cache_window_absorbs_rereads() {
        let p = program(
            "program t; array A[64] : f64;
             nest L1 { for i = 0 .. 63 { A[i] = A[i] + A[i] + A[i]; } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (_, stats) = gen.generate(&original_schedule(&p));
        assert_eq!(stats.element_accesses, 4 * 64);
        assert!(stats.cache_hits >= 3 * 64 - 8, "hits {}", stats.cache_hits);
    }

    #[test]
    fn zero_reuse_window_disables_cache() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            reuse_window_blocks: 0,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        let (trace, _) = gen.generate(&original_schedule(&p));
        // Without the reuse window every block fetch is visible, but the
        // pending-request coverage check still absorbs same-block rereads,
        // so the trace stays finite and block-aligned.
        assert!(trace.requests().iter().all(|r| r.len % 4096 == 0));
    }

    #[test]
    fn max_request_size_caps_coalescing() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            max_request_bytes: 8192,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        let (trace, _) = gen.generate(&original_schedule(&p));
        assert!(trace.requests().iter().all(|r| r.len <= 8192));
        assert!(!trace.is_empty());
    }

    #[test]
    fn transposed_access_refetches_blocks() {
        // A column-major traversal of a row-major array revisits every
        // block once per column; with a small reuse window it re-fetches
        // the whole array over and over, while the row sweep reads each
        // block exactly once.
        let row = program(
            "program t; array A[64][64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[i][j] = 1; } } }",
        );
        let col = program(
            "program t; array A[64][64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[j][i] = 1; } } }",
        );
        let striping = Striping::new(512, 4, 0);
        let opts = TraceGenOptions {
            block_bytes: 512,
            reuse_window_blocks: 4,
            ..TraceGenOptions::default()
        };
        let lr = LayoutMap::new(&row, striping);
        let lc = LayoutMap::new(&col, striping);
        let (tr, sr) = TraceGenerator::new(&row, &lr, opts).generate(&original_schedule(&row));
        let (tc, sc) = TraceGenerator::new(&col, &lc, opts).generate(&original_schedule(&col));
        assert!(
            sc.bytes > 16 * sr.bytes,
            "row {} col {} bytes",
            sr.bytes,
            sc.bytes
        );
        assert!(
            tc.len() >= tr.len(),
            "row {} col {} reqs",
            tr.len(),
            tc.len()
        );
    }

    #[test]
    fn phase_barriers_synchronize_clocks() {
        // Two phases; proc 1 does nothing in phase 0. Its phase-1 requests
        // must still start no earlier than proc 0's phase-0 finish.
        let p = sequential_program();
        let all = 0..p.nests[0].trip_count() as usize;
        let mut two_phase = Schedule::new(&p, 2, 2);
        two_phase.push_ranks(0, 0, 0, all.clone());
        two_phase.push_ranks(1, 1, 0, all);
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        // One block per request, so proc 0's requests spread over its
        // phase; coalesced into one request each, both procs would issue
        // theirs at time 0 and the check below could not fail.
        let opts = TraceGenOptions {
            reuse_window_blocks: 0,
            max_request_bytes: 4096,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        let (trace, _) = gen.generate(&two_phase);
        let p0_last = trace
            .requests()
            .iter()
            .filter(|r| r.proc_id == 0)
            .map(|r| r.arrival_ms)
            .fold(0.0, f64::max);
        let p1_first = trace
            .requests()
            .iter()
            .filter(|r| r.proc_id == 1)
            .map(|r| r.arrival_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(
            p1_first >= p0_last,
            "phase barrier violated: proc1 at {p1_first} before proc0 done at {p0_last}"
        );
    }

    #[test]
    fn contention_scales_blocking_for_overlapping_footprints() {
        // Two procs sweeping the SAME data: each must be paced ~2x slower
        // than a single proc doing half the work.
        let p = sequential_program();
        let shared = |procs: u32| {
            let mut s = Schedule::new(&p, procs, 1);
            p.nests[0].walk(|pt| {
                let proc = pt[1].rem_euclid(i64::from(procs)) as u32;
                s.push(0, proc, CompactIter::new(0, pt));
            });
            s
        };
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (_, one) = gen.generate(&shared(1));
        let (_, two) = gen.generate(&shared(2));
        // Same bytes moved, but the two-proc run blocks ~2x per request.
        let per_req_1 = one.io_block_ms / one.requests.max(1) as f64;
        let per_req_2 = two.io_block_ms / two.requests.max(1) as f64;
        assert!(
            per_req_2 > 1.5 * per_req_1,
            "contention not applied: {per_req_2} vs {per_req_1}"
        );
    }

    #[test]
    fn jitter_perturbs_but_preserves_requests() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let plain = TraceGenerator::new(&p, &layout, TraceGenOptions::default())
            .generate(&original_schedule(&p));
        let jopts = TraceGenOptions {
            arrival_jitter_ms: 2.0,
            ..TraceGenOptions::default()
        };
        let jittered = TraceGenerator::new(&p, &layout, jopts).generate(&original_schedule(&p));
        assert_eq!(plain.0.len(), jittered.0.len());
        assert_eq!(plain.1.bytes, jittered.1.bytes);
        // Deterministic seed: same run twice is identical.
        let again = TraceGenerator::new(&p, &layout, jopts).generate(&original_schedule(&p));
        assert_eq!(
            jittered.0.requests()[0].arrival_ms,
            again.0.requests()[0].arrival_ms
        );
        // And at least one arrival actually moved.
        let moved = plain
            .0
            .requests()
            .iter()
            .zip(jittered.0.requests())
            .any(|(a, b)| (a.arrival_ms - b.arrival_ms).abs() > 1e-9);
        assert!(moved);
    }

    /// A compiled reference's out-of-bounds panic reaches the caller of
    /// `generate` and names the array.
    #[test]
    #[should_panic(expected = "out of bounds for extent 8 in array Edge")]
    fn out_of_bounds_subscript_names_the_array() {
        let p = program(
            "program t; array Edge[8] : f64;
             nest L { for i = 0 .. 7 { Edge[i + 1] = 1; } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        gen.generate(&original_schedule(&p));
    }

    /// Footprints count sharers per disk over every disk of the striping:
    /// with 72 disks, disk 64 is not disk 0.
    #[test]
    fn contention_counts_disks_beyond_64() {
        let p = program(
            "program t; array A[4608] : f64;
             nest L { for i = 0 .. 4607 { A[i] = 1; } }",
        );
        // 512-byte stripes hold 64 elements: element 0 sits on disk 0,
        // element 64 * 64 on disk 64.
        let mut apart = Schedule::new(&p, 2, 1);
        for proc in 0..2u32 {
            apart.push(0, proc, CompactIter::new(0, &[i64::from(proc) * 64 * 64]));
        }
        let layout = LayoutMap::new(&p, Striping::new(512, 72, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let footprints = gen.phase_footprints(&apart, 0);
        assert!(footprints[0][0] && footprints[1][64]);
        assert_eq!(contention_factor(&footprints, 0), 1.0);
        assert_eq!(contention_factor(&footprints, 1), 1.0);
    }

    /// The walk `phase_footprints` stops early: every reference of every
    /// iteration of each processor's phase.
    fn full_walk_footprints(
        gen: &TraceGenerator<'_>,
        schedule: &Schedule,
        phase: usize,
    ) -> Vec<Vec<bool>> {
        if schedule.num_procs() == 1 {
            return vec![Vec::new()];
        }
        let striping = gen.layout.striping();
        (0..schedule.num_procs())
            .map(|proc| {
                let mut touched = vec![false; striping.num_disks()];
                for it in schedule.iter(phase, proc) {
                    let point = it.coords();
                    for stmt in gen.compiled.nest(it.nest as NestId) {
                        for r in &stmt.refs {
                            let offset = r.offset(gen.program, gen.layout, &point);
                            touched[striping.disk_of_offset(offset)] = true;
                        }
                    }
                }
                touched
            })
            .collect()
    }

    /// Stopping a processor's footprint walk once it has touched every
    /// disk returns what the full walk returns, on seeded schedules over
    /// 2 to 72 disks, with processors that saturate and processors that
    /// never do.
    #[test]
    fn footprints_stop_at_saturation_and_match_the_full_walk() {
        // Each array fills 72 stripes of 512 bytes.
        let p = program(
            "program t; array A[4608] : f64; array B[96][48] : f64;
             nest L1 { for i = 0 .. 4607 { A[i] = A[i] + 1; } }
             nest L2 { for i = 0 .. 95 { for j = 0 .. 47 { B[i][j] = A[48 * i + j]; } } }",
        );
        let mut points = Vec::new();
        for (nest, n) in p.nests.iter().enumerate() {
            n.walk(|pt| points.push(CompactIter::new(nest, pt)));
        }
        let (mut saturated, mut partial) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = XorShift64Star::new(0xF007_0000 + seed);
            let procs = rng.range_i64(2, 4) as u32;
            let phases = rng.range_i64(1, 3) as usize;
            let mut s = Schedule::new(&p, procs, phases);
            let mut at = 0;
            while at < points.len() {
                let len = (rng.range_i64(1, 700) as usize).min(points.len() - at);
                let phase = rng.range_i64(0, phases as i64 - 1) as usize;
                let proc = rng.range_i64(0, i64::from(procs) - 1) as u32;
                for it in &points[at..at + len] {
                    s.push(phase, proc, *it);
                }
                at += len;
            }
            let disks = [2, 4, 8, 72][seed as usize % 4];
            let layout = LayoutMap::new(&p, Striping::new(512, disks, 0));
            let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
            for phase in 0..phases {
                let want = full_walk_footprints(&gen, &s, phase);
                assert_eq!(
                    gen.phase_footprints(&s, phase),
                    want,
                    "seed {seed}, phase {phase}, {disks} disks"
                );
                for f in &want {
                    if f.iter().all(|&t| t) {
                        saturated += 1;
                    } else {
                        partial += 1;
                    }
                }
            }
        }
        assert!(
            saturated >= 10 && partial >= 10,
            "{saturated} saturated and {partial} partial footprints: \
             both outcomes must be exercised"
        );
    }

    /// With the footprint walk stopping at saturation, a subscript out of
    /// bounds later in a processor's phase is reached only by generation,
    /// and still panics naming the array.
    #[test]
    #[should_panic(expected = "out of bounds for extent 256 in array Edge")]
    fn out_of_bounds_after_saturation_still_names_the_array() {
        // 512-byte stripes hold 64 elements over 2 disks. Processor 1
        // writes elements 129..=256: disk 0 first, disk 1 from element
        // 192 on, and element 256 does not exist.
        let p = program(
            "program t; array Edge[256] : f64;
             nest L { for i = 0 .. 255 { Edge[i + 1] = 1; } }",
        );
        let mut s = Schedule::new(&p, 2, 1);
        s.push_ranks(0, 0, 0, 0..128);
        s.push_ranks(0, 1, 0, 128..256);
        let layout = LayoutMap::new(&p, Striping::new(512, 2, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        assert_eq!(gen.phase_footprints(&s, 0), vec![vec![true; 2]; 2]);
        gen.generate(&s);
    }

    #[test]
    fn multi_proc_order_merges_by_time() {
        let p = sequential_program();
        // Processor p executes the half of nest 0 with i % 2 == p.
        let mut two_procs = Schedule::new(&p, 2, 1);
        p.nests[0].walk(|pt| two_procs.push(0, (pt[0] % 2) as u32, CompactIter::new(0, pt)));
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, _) = gen.generate(&two_procs);
        let procs: std::collections::HashSet<u32> =
            trace.requests().iter().map(|r| r.proc_id).collect();
        assert_eq!(procs.len(), 2);
        // Sorted by arrival despite two independent streams.
        let mut last = f64::NEG_INFINITY;
        for r in trace.requests() {
            assert!(r.arrival_ms >= last);
            last = r.arrival_ms;
        }
    }
}
