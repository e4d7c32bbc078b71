//! Seeded differential test of the two generators: over random
//! multi-processor, multi-phase schedules, `TraceGenerator::generate` must
//! equal the drained `TraceGenerator::stream` request for request (float
//! bits included) and in the bits of every `TraceStats` field.
//!
//! The two paths order requests by different means — the batch path
//! merges its per-processor lanes, the stream releases heads under a
//! watermark — and both must produce the sequence ordered by
//! `(arrival, processor, emission index)`. The schedules here spread two
//! nests over 2–5 processors and 1–4 phases in shuffled chunks, with some
//! lanes left empty, under arrival jitter zero and non-zero. Three
//! configurations charge no compute and no I/O blocking, so arrivals sit
//! at the barrier clocks and requests tie across processors and at
//! barriers: there only the tie rule orders them.

use dpm_core::{CompactIter, Schedule};
use dpm_disksim::{IoRequest, RequestKind};
use dpm_ir::Program;
use dpm_layout::{LayoutMap, Striping};
use dpm_obs::XorShift64Star;
use dpm_trace::{RequestStream, TraceGenOptions, TraceGenerator, TraceStats};

/// Two nests over two arrays, each statement charged `cost` cycles.
fn program(cost: u32) -> Program {
    dpm_ir::parse_program(&format!(
        "program t; array A[48][32] : f64; array B[24][64] : f64;
         nest L1 {{ for i = 0 .. 23 {{ for j = 0 .. 31 {{
             A[i][j] = A[i + 24][j] + B[i][j + 32] @ {cost};
         }} }} }}
         nest L2 {{ for i = 0 .. 23 {{ for j = 0 .. 31 {{
             B[i][2 * j] = A[2 * i][j] @ {cost};
             A[47 - 2 * i][31 - j] = B[i][63 - 2 * j] @ {cost};
         }} }} }}"
    ))
    .expect("the test program parses")
}

/// A random schedule over `p`: every iteration once, in chunks of 1–96
/// consecutive iterations, each chunk on a random `(phase, proc)`, the
/// chunks pushed in shuffled order.
fn random_schedule(p: &Program, rng: &mut XorShift64Star) -> Schedule {
    let procs = rng.range_i64(2, 5) as u32;
    let phases = rng.range_i64(1, 4) as usize;
    let mut points = Vec::new();
    for (nest, n) in p.nests.iter().enumerate() {
        n.walk(|pt| points.push(CompactIter::new(nest, pt)));
    }
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < points.len() {
        let len = (rng.range_i64(1, 96) as usize).min(points.len() - at);
        let phase = rng.range_i64(0, phases as i64 - 1) as usize;
        let proc = rng.range_i64(0, i64::from(procs) - 1) as u32;
        chunks.push((phase, proc, at..at + len));
        at += len;
    }
    for i in (1..chunks.len()).rev() {
        let j = rng.range_i64(0, i as i64) as usize;
        chunks.swap(i, j);
    }
    let mut s = Schedule::new(p, procs, phases);
    for (phase, proc, range) in chunks {
        for it in &points[range] {
            s.push(phase, proc, *it);
        }
    }
    s
}

/// A request as the bits it is compared by.
fn bits(r: &IoRequest) -> (u64, u64, u64, bool, u32) {
    (
        r.arrival_ms.to_bits(),
        r.offset,
        r.len,
        r.kind == RequestKind::Write,
        r.proc_id,
    )
}

fn stats_bits(s: &TraceStats) -> [u64; 6] {
    [
        s.element_accesses,
        s.cache_hits,
        s.requests,
        s.bytes,
        s.compute_ms.to_bits(),
        s.io_block_ms.to_bits(),
    ]
}

/// Requests of an arrival-sorted sequence that share their arrival time
/// with a request of another processor.
fn tied_across_procs(requests: &[IoRequest]) -> usize {
    requests
        .chunk_by(|a, b| a.arrival_ms == b.arrival_ms)
        .filter(|run| run.iter().any(|r| r.proc_id != run[0].proc_id))
        .map(<[IoRequest]>::len)
        .sum()
}

/// One configuration: statement cost, blocking on I/O, arrival jitter.
struct Config {
    name: &'static str,
    cost: u32,
    block_on_io: bool,
    jitter_ms: f64,
}

const CONFIGS: [Config; 5] = [
    Config {
        name: "blocking",
        cost: 900,
        block_on_io: true,
        jitter_ms: 0.0,
    },
    Config {
        name: "blocking+jitter",
        cost: 900,
        block_on_io: true,
        jitter_ms: 0.75,
    },
    Config {
        name: "ties",
        cost: 0,
        block_on_io: false,
        jitter_ms: 0.0,
    },
    Config {
        name: "ties+jitter",
        cost: 0,
        block_on_io: false,
        jitter_ms: 0.05,
    },
    // Jitter of four subnormal steps: every arrival is one of a few
    // values, so each lane is out of order and most requests tie across
    // processors. Only sorting each lane before the merge orders them.
    Config {
        name: "ties+quantized jitter",
        cost: 0,
        block_on_io: false,
        jitter_ms: 2e-323,
    },
];

#[test]
fn generate_equals_drained_stream_on_random_schedules() {
    let mut tied = 0;
    for config in &CONFIGS {
        let p = program(config.cost);
        for seed in 0..12u64 {
            let mut rng = XorShift64Star::new(0xD1FF_0000 + seed);
            let schedule = random_schedule(&p, &mut rng);
            let disks = [2, 3, 4, 8][rng.range_i64(0, 3) as usize];
            let layout = LayoutMap::new(&p, Striping::new(1024, disks, 0));
            let options = TraceGenOptions {
                block_bytes: 512,
                max_request_bytes: 512 << rng.range_i64(0, 3),
                reuse_window_blocks: [0, 4, 128][rng.range_i64(0, 2) as usize],
                streams: rng.range_i64(1, 8) as usize,
                block_on_io: config.block_on_io,
                arrival_jitter_ms: config.jitter_ms,
                ..TraceGenOptions::default()
            };
            let gen = TraceGenerator::new(&p, &layout, options);
            let (trace, stats) = gen.generate(&schedule);
            let mut stream = gen.stream(&schedule);
            let mut streamed = Vec::new();
            while let Some(r) = stream.next_request() {
                streamed.push(r);
            }
            let case = format!(
                "{} seed {seed} ({} procs, {} phases, {disks} disks)",
                config.name,
                schedule.num_procs(),
                schedule.num_phases()
            );
            assert!(trace.len() > 50, "{case}: only {} requests", trace.len());
            let batch: Vec<_> = trace.requests().iter().map(bits).collect();
            let lazy: Vec<_> = streamed.iter().map(bits).collect();
            assert_eq!(batch, lazy, "{case}: request sequences differ");
            assert_eq!(
                stats_bits(&stats),
                stats_bits(&stream.stats()),
                "{case}: stats differ"
            );
            tied += tied_across_procs(trace.requests());
        }
    }
    assert!(
        tied > 10_000,
        "only {tied} requests share their arrival with another processor's: \
         the tie rule is barely exercised"
    );
}
