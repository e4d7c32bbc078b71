//! # dpm-trace — compiler-side I/O trace generation
//!
//! Executes a loop-nest `Program` (in original or
//! compiler-restructured order, on one or several processors) and produces
//! the disk I/O request trace that the paper's simulator consumes (§7.1).
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
//! use dpm_trace::{TraceGenerator, TraceGenOptions, OriginalOrder};
//! use dpm_layout::{LayoutMap, Striping};
//!
//! let p = dpm_ir::parse_program(
//!     "program t; array A[512][64] : f64;
//!      nest L { for i = 0 .. 511 { for j = 0 .. 63 { A[i][j] = A[i][j] + 1; } } }",
//! ).unwrap();
//! let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
//! let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
//! let (trace, stats) = gen.generate(&OriginalOrder::new(&p));
//! assert!(trace.len() > 0);
//! assert_eq!(stats.element_accesses, 2 * 512 * 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use compile::CompiledProgram;
use dpm_disksim::{DiskParams, IoRequest, RequestKind, ServiceTime, Trace};
use dpm_ir::{NestId, Program};
use dpm_layout::LayoutMap;
use dpm_obs::XorShift64Star;
use window::{ReuseWindow, StreamDetector};

mod codec;
pub mod compile;
mod stream;
mod window;

pub use codec::{TraceReader, TraceWriter, TRACE_MAGIC};
pub use dpm_disksim::RequestStream;
pub use stream::{GenStream, IterCursor, NestCursor, StreamOrder};

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

/// An execution order: which iterations run on which processor, in what
/// sequence. Implemented by the original program order here and by the
/// restructurer's schedules in `dpm-core`.
///
/// Execution proceeds in *phases* separated by barriers: within a phase
/// each processor runs its iteration stream independently; at a phase
/// boundary all processors synchronize (their virtual clocks advance to
/// the laggard's). Single-processor orders normally use one phase;
/// multi-processor parallelizations use one phase per loop nest.
pub trait ExecutionOrder {
    /// Number of processors.
    fn num_procs(&self) -> u32;
    /// Number of barrier-separated phases (default 1).
    fn num_phases(&self) -> usize {
        1
    }
    /// Streams `(nest, iteration)` pairs of processor `proc` within
    /// `phase`, in execution order.
    fn for_each_in_phase(&self, phase: usize, proc: u32, f: &mut dyn FnMut(NestId, &[i64]));
}

/// The untransformed order: one processor, nests in program order,
/// iterations lexicographic.
#[derive(Debug)]
pub struct OriginalOrder<'p> {
    program: &'p Program,
}

impl<'p> OriginalOrder<'p> {
    /// Wraps a program.
    pub fn new(program: &'p Program) -> Self {
        OriginalOrder { program }
    }
}

impl ExecutionOrder for OriginalOrder<'_> {
    fn num_procs(&self) -> u32 {
        1
    }

    fn for_each_in_phase(&self, phase: usize, proc: u32, f: &mut dyn FnMut(NestId, &[i64])) {
        debug_assert_eq!(phase, 0);
        debug_assert_eq!(proc, 0);
        for (ni, nest) in self.program.nests.iter().enumerate() {
            walk_nest(nest, &mut |pt| f(ni, pt));
        }
    }
}

/// An [`ExecutionOrder`] over explicit polyhedral iteration sets — the
/// trace-generation consumer for per-disk affinity footprints such as
/// `dpm_core::disk_iteration_sets`. Pieces are visited in insertion order
/// (push them disk-major for the perfect-reuse order); each piece's points
/// are streamed through one shared flat buffer ([`dpm_poly::Set::points_into`]),
/// with `skip` leading auxiliary variables (e.g. the stripe-row counter `t`
/// of the symbolic restructurer) stripped before the iteration reaches the
/// generator.
#[derive(Debug, Default)]
pub struct SetOrder {
    pieces: Vec<(NestId, dpm_poly::Set)>,
    skip: usize,
}

impl SetOrder {
    /// An empty order whose sets carry `skip` leading auxiliary variables.
    pub fn new(skip: usize) -> Self {
        SetOrder {
            pieces: Vec::new(),
            skip,
        }
    }

    /// Appends a piece: all points of `set` (sorted lexicographically)
    /// attributed to `nest`.
    pub fn push(&mut self, nest: NestId, set: dpm_poly::Set) {
        assert!(
            set.dim() > self.skip || (set.dim() == 0 && self.skip == 0),
            "set dimension {} leaves no iteration variables after skipping {}",
            set.dim(),
            self.skip
        );
        self.pieces.push((nest, set));
    }

    /// Number of pieces pushed so far.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether no pieces have been pushed.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }
}

impl ExecutionOrder for SetOrder {
    fn num_procs(&self) -> u32 {
        1
    }

    fn for_each_in_phase(&self, phase: usize, proc: u32, f: &mut dyn FnMut(NestId, &[i64])) {
        debug_assert_eq!(phase, 0);
        debug_assert_eq!(proc, 0);
        let mut buf = Vec::new();
        for (nest, set) in &self.pieces {
            let n = set.points_into(&mut buf);
            let dim = set.dim();
            if dim == 0 {
                for _ in 0..n {
                    f(*nest, &[]);
                }
                continue;
            }
            for pt in buf.chunks(dim).take(n) {
                f(*nest, &pt[self.skip..]);
            }
        }
    }
}

/// Enumerates a nest's iterations lexicographically without materializing
/// them.
pub fn walk_nest(nest: &dpm_ir::LoopNest, f: &mut dyn FnMut(&[i64])) {
    fn rec(nest: &dpm_ir::LoopNest, level: usize, point: &mut Vec<i64>, f: &mut dyn FnMut(&[i64])) {
        if level == nest.depth() {
            f(point);
            return;
        }
        let lo = nest.loops[level].lo.eval_prefix(&point[..level]);
        let hi = nest.loops[level].hi.eval_prefix(&point[..level]);
        for x in lo..=hi {
            point[level] = x;
            rec(nest, level + 1, point, f);
        }
    }
    let mut point = vec![0i64; nest.depth()];
    rec(nest, 0, &mut point, f);
}

/// A request under assembly in one readahead stream.
#[derive(Clone, Copy, Debug)]
struct Pending {
    offset: u64,
    len: u64,
    kind: RequestKind,
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
    /// Per-disk recent sequential-stream end positions, for the nominal
    /// blocking estimate.
    detector: StreamDetector,
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
            detector: StreamDetector::new(self.layout.striping().num_disks()),
            split_buf: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Runs the program in the given order, returning the merged trace and
    /// generation statistics. Phase boundaries act as barriers: every
    /// processor's clock advances to the slowest one's before the next
    /// phase starts, and pending requests are flushed.
    pub fn generate(&self, order: &dyn ExecutionOrder) -> (Trace, TraceStats) {
        let mut sp = dpm_obs::span!("trace_generate");
        let mut stats = TraceStats::default();
        let mut all = Vec::new();
        let nprocs = order.num_procs();
        sp.add("procs", u64::from(nprocs));
        sp.add("phases", order.num_phases() as u64);
        // Within a phase the processors are independent (they synchronize
        // only at phase boundaries), so each runs its whole phase in turn.
        // Its stat deltas are merged in processor order, the association
        // `GenStream::barrier` uses, so both generators agree bit for bit.
        let mut states: Vec<ProcState> = (0..nprocs).map(|proc| self.proc_state(proc)).collect();
        for phase in 0..order.num_phases() {
            // Device-sharing estimate for this phase: a processor's I/O
            // blocking scales with the number of processors whose disk
            // footprints overlap its own (a disk time-shares its bandwidth
            // among the processors driving it). A layout-aware partition
            // with disjoint per-processor disk groups therefore pays no
            // contention, while a naive parallelization in which every
            // processor sweeps every disk pays the full factor.
            let footprints = self.phase_footprints(order, phase);
            for (proc, st) in states.iter_mut().enumerate() {
                let contention = contention_factor(&footprints, proc);
                let mut delta = TraceStats::default();
                order.for_each_in_phase(phase, proc as u32, &mut |nest, iter| {
                    self.execute_iteration(nest, iter, proc as u32, contention, st, &mut delta);
                });
                self.flush_all(proc as u32, contention, st, &mut delta);
                stats.merge(&delta);
            }
            // Barrier: synchronize clocks.
            let max_clock = states.iter().map(|s| s.clock_ms).fold(0.0_f64, f64::max);
            for st in &mut states {
                st.clock_ms = max_clock;
            }
        }
        for st in states {
            all.extend(st.requests);
        }
        sp.add("requests", stats.requests);
        sp.add("cache_hits", stats.cache_hits);
        sp.add("element_accesses", stats.element_accesses);
        (Trace::from_requests(all), stats)
    }

    /// Which disks each processor touches within one phase:
    /// `footprints[proc][disk]`. A single processor shares nothing, so its
    /// footprint is left empty.
    fn phase_footprints(&self, order: &dyn ExecutionOrder, phase: usize) -> Vec<Vec<bool>> {
        let nprocs = order.num_procs();
        if nprocs == 1 {
            return vec![Vec::new()];
        }
        let striping = self.layout.striping();
        (0..nprocs)
            .map(|proc| {
                let mut touched = vec![false; striping.num_disks()];
                order.for_each_in_phase(phase, proc, &mut |nest, iter| {
                    for stmt in self.compiled.nest(nest) {
                        for r in &stmt.refs {
                            let offset = r.offset(self.program, self.layout, iter);
                            touched[striping.disk_of_offset(offset)] = true;
                        }
                    }
                });
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
        kind: RequestKind,
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
                        match p.kind {
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
            kind: p.kind,
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
                let sequential = st.detector.continues(disk, local_byte, len);
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
        let (trace, stats) = gen.generate(&OriginalOrder::new(&p));
        // 256*128 elements * 8 B = 256 KiB of data; block-granularity
        // fetches coalesce into a handful of large requests.
        assert!(trace.len() < 8, "{} requests", trace.len());
        assert_eq!(stats.bytes, 256 * 128 * 8);
        // Writes after reads of the same stripe hit the reuse window.
        assert!(stats.cache_hits > 0);
    }

    /// A `SetOrder` whose single set is exactly the nest's iteration space
    /// must generate the same trace, byte for byte, as `OriginalOrder` —
    /// the polyhedral route into the generator changes nothing.
    #[test]
    fn set_order_over_full_space_matches_original_order() {
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
        assert_eq!(order.len(), 1);
        assert!(!order.is_empty());
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, stats) = gen.generate(&order);
        let (base_trace, base_stats) = gen.generate(&OriginalOrder::new(&p));
        assert_eq!(trace.requests(), base_trace.requests());
        assert_eq!(stats, base_stats);
    }

    /// The `skip` prefix strips auxiliary variables (the symbolic
    /// restructurer's stripe-row counter `t`) before iterations reach the
    /// generator.
    #[test]
    fn set_order_strips_auxiliary_prefix() {
        // (t, i) with i = 4t .. 4t+3, t in 0..=3: i sweeps 0..=15 in order.
        let t = dpm_poly::LinExpr::var(2, 0);
        let i = dpm_poly::LinExpr::var(2, 1);
        let piece = dpm_poly::Polyhedron::universe(2)
            .with_range(0, 0, 3)
            .with(dpm_poly::Constraint::geq(&i, &t.scaled(4)))
            .with(dpm_poly::Constraint::leq(&i, &t.scaled(4).plus_const(3)));
        let mut order = SetOrder::new(1);
        order.push(0, dpm_poly::Set::from(piece));
        let mut seen = Vec::new();
        order.for_each_in_phase(0, 0, &mut |ni, pt| {
            assert_eq!(ni, 0);
            assert_eq!(pt.len(), 1);
            seen.push(pt[0]);
        });
        assert_eq!(seen, (0..16).collect::<Vec<i64>>());
    }

    #[test]
    fn arrivals_are_monotone_per_processor() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, _) = gen.generate(&OriginalOrder::new(&p));
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
        let (_, stats) = gen.generate(&OriginalOrder::new(&p));
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
        let (_, stats) = gen.generate(&OriginalOrder::new(&p));
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
        let (trace, _) = gen.generate(&OriginalOrder::new(&p));
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
        let (trace, _) = gen.generate(&OriginalOrder::new(&p));
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
        let (tr, sr) = TraceGenerator::new(&row, &lr, opts).generate(&OriginalOrder::new(&row));
        let (tc, sc) = TraceGenerator::new(&col, &lc, opts).generate(&OriginalOrder::new(&col));
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
        struct TwoPhase<'p>(&'p Program);
        impl ExecutionOrder for TwoPhase<'_> {
            fn num_procs(&self) -> u32 {
                2
            }
            fn num_phases(&self) -> usize {
                2
            }
            fn for_each_in_phase(
                &self,
                phase: usize,
                proc: u32,
                f: &mut dyn FnMut(NestId, &[i64]),
            ) {
                // Phase 0: proc 0 runs the whole nest; phase 1: proc 1 does.
                if (phase == 0 && proc == 0) || (phase == 1 && proc == 1) {
                    walk_nest(&self.0.nests[0], &mut |pt| f(0, pt));
                }
            }
        }
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            reuse_window_blocks: 0,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        let (trace, _) = gen.generate(&TwoPhase(&p));
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
        struct Shared<'p>(&'p Program, u32);
        impl ExecutionOrder for Shared<'_> {
            fn num_procs(&self) -> u32 {
                self.1
            }
            fn for_each_in_phase(
                &self,
                _phase: usize,
                proc: u32,
                f: &mut dyn FnMut(NestId, &[i64]),
            ) {
                walk_nest(&self.0.nests[0], &mut |pt| {
                    if (pt[1].rem_euclid(self.1 as i64)) as u32 == proc {
                        f(0, pt);
                    }
                });
            }
        }
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (_, one) = gen.generate(&Shared(&p, 1));
        let (_, two) = gen.generate(&Shared(&p, 2));
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
            .generate(&OriginalOrder::new(&p));
        let jopts = TraceGenOptions {
            arrival_jitter_ms: 2.0,
            ..TraceGenOptions::default()
        };
        let jittered = TraceGenerator::new(&p, &layout, jopts).generate(&OriginalOrder::new(&p));
        assert_eq!(plain.0.len(), jittered.0.len());
        assert_eq!(plain.1.bytes, jittered.1.bytes);
        // Deterministic seed: same run twice is identical.
        let again = TraceGenerator::new(&p, &layout, jopts).generate(&OriginalOrder::new(&p));
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

    /// Footprints count sharers per disk over every disk of the striping:
    /// with 72 disks, disk 64 is not disk 0.
    #[test]
    fn contention_counts_disks_beyond_64() {
        struct Apart;
        impl ExecutionOrder for Apart {
            fn num_procs(&self) -> u32 {
                2
            }
            fn for_each_in_phase(
                &self,
                _phase: usize,
                proc: u32,
                f: &mut dyn FnMut(NestId, &[i64]),
            ) {
                // 512-byte stripes hold 64 elements: element 0 sits on
                // disk 0, element 64 * 64 on disk 64.
                f(0, &[i64::from(proc) * 64 * 64]);
            }
        }
        let p = program(
            "program t; array A[4608] : f64;
             nest L { for i = 0 .. 4607 { A[i] = 1; } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(512, 72, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let footprints = gen.phase_footprints(&Apart, 0);
        assert!(footprints[0][0] && footprints[1][64]);
        assert_eq!(contention_factor(&footprints, 0), 1.0);
        assert_eq!(contention_factor(&footprints, 1), 1.0);
    }

    #[test]
    fn multi_proc_order_merges_by_time() {
        struct TwoProcs<'p>(&'p Program);
        impl ExecutionOrder for TwoProcs<'_> {
            fn num_procs(&self) -> u32 {
                2
            }
            fn for_each_in_phase(
                &self,
                _phase: usize,
                proc: u32,
                f: &mut dyn FnMut(NestId, &[i64]),
            ) {
                // Processor p executes the half of nest 0 with i % 2 == p.
                walk_nest(&self.0.nests[0], &mut |pt| {
                    if (pt[0] % 2) as u32 == proc {
                        f(0, pt);
                    }
                });
            }
        }
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, _) = gen.generate(&TwoProcs(&p));
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
