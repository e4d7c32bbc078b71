//! Flat memory and codec density of the streamed path.
//!
//! Runs the harness's streamed path for the AST Plain 1-processor cell —
//! the schedule [`dpm_bench::build_schedule`] builds (what
//! `run_app_streamed` and the end-to-end benchmark stream) → lazy
//! generation ([`dpm_trace::GenStream`]) → binary codec spill
//! ([`TraceWriter`]) → replay ([`TraceReader`]) → event-driven simulation
//! ([`Simulator::run_stream`]) — at `Tiny` and `Small` scale, measuring
//! the peak live heap with a counting global allocator.
//!
//! `Small` carries ~16× the requests (and iterations) of `Tiny`, so if
//! the path's peak heap is a function of (schedule runs + disks + request
//! window) rather than trace length, the two peaks must be close: any
//! O(requests) or O(iterations) buffer on the path, a materialized
//! schedule or trace included, scales 16× between the probes and
//! overshoots [`FLAT_FACTOR`] by an order of magnitude.
//!
//! The allocator is process-global, so this binary holds exactly one
//! test: no other test's allocations can land inside a probe.

use dpm_apps::Scale;
use dpm_bench::{ExperimentConfig, ScheduleShape};
use dpm_disksim::{PowerPolicy, Simulator};
use dpm_layout::LayoutMap;
use dpm_trace::{TraceGenerator, TraceReader, TraceWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak heap at `Small` may exceed the `Tiny` peak by at most this factor.
/// Genuine flat-memory runs differ only by allocator noise.
const FLAT_FACTOR: f64 = 1.6;

/// The codec's density bound, in encoded bytes per request (header
/// included).
const MAX_CODEC_BYTES_PER_REQUEST: f64 = 16.0;

/// Counting allocator: tracks live heap bytes and their high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System` and
// return what it returns, so `System`'s guarantees carry over; the
// bookkeeping only updates two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What one pass over the streamed path wrote, replayed and held.
struct Probe {
    requests: u64,
    codec_bytes: u64,
    replayed: u64,
    peak_bytes: usize,
}

/// One pass: build the AST Plain 1-processor schedule as the harness
/// does, stream-generate its trace, spill it through the codec to a temp
/// file, replay it into the simulator. The peak covers the whole path,
/// schedule included.
fn probe(scale: Scale) -> Probe {
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("AST", scale).expect("AST is in the suite");
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
    let path = std::env::temp_dir().join(format!("dpm-stream-memory-{}.trc", std::process::id()));

    // Restart the high-water mark at the current live size, so the probe
    // reports only its own peak.
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    let schedule = dpm_bench::build_schedule(&program, &layout, &deps, ScheduleShape::Plain, 1);
    let mut writer = TraceWriter::new(std::fs::File::create(&path).expect("create spill file"));
    writer
        .write_stream(&mut gen.stream(&schedule))
        .expect("spill trace");
    let requests = writer.requests();
    let codec_bytes = writer.bytes_written();
    writer.finish().expect("finish spill");

    let sim = Simulator::new(config.disk, PowerPolicy::None, config.striping);
    let file = std::fs::File::open(&path).expect("open spill file");
    let mut reader = TraceReader::new(file).expect("read spill header");
    let replayed = sim.run_stream(&mut reader).app_requests;
    let peak_bytes = PEAK.load(Ordering::Relaxed);
    let _ = std::fs::remove_file(&path);
    Probe {
        requests,
        codec_bytes,
        replayed,
        peak_bytes,
    }
}

#[test]
fn streamed_path_memory_is_flat_and_codec_is_compact() {
    let tiny = probe(Scale::Tiny);
    let small = probe(Scale::Small);
    for (label, p) in [("tiny", &tiny), ("small", &small)] {
        assert_eq!(
            p.replayed, p.requests,
            "{label}: replay simulated {} requests, the spill holds {}",
            p.replayed, p.requests
        );
    }
    let growth = small.requests as f64 / tiny.requests as f64;
    assert!(
        growth > 8.0,
        "probes too close in size: x{growth:.1} requests"
    );

    let ratio = small.peak_bytes as f64 / tiny.peak_bytes as f64;
    assert!(
        ratio <= FLAT_FACTOR,
        "peak heap grew x{ratio:.3} ({} -> {} B) while requests grew x{growth:.1}: \
         the streamed path must hold O(schedule runs + disks + window), not \
         O(requests) or O(iterations) (limit x{FLAT_FACTOR})",
        tiny.peak_bytes,
        small.peak_bytes
    );

    let density = small.codec_bytes as f64 / small.requests as f64;
    assert!(
        density <= MAX_CODEC_BYTES_PER_REQUEST,
        "codec density {density:.1} B/request over {} requests (limit \
         {MAX_CODEC_BYTES_PER_REQUEST})",
        small.requests
    );
}
