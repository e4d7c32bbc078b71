//! Streaming-pipeline benchmark and flat-memory gate.
//!
//! Runs the harness's streamed path for a Plain 1-processor cell — the
//! schedule [`dpm_bench::build_schedule`] builds (what `run_app_streamed`
//! and the end-to-end benchmark stream) → lazy generation
//! ([`dpm_trace::GenStream`]) → binary codec spill ([`dpm_trace::TraceWriter`])
//! → replay ([`dpm_trace::TraceReader`]) → event-driven simulation
//! ([`dpm_disksim::Simulator::run_stream`]) — at `Tiny` and `Small` scale,
//! measuring the peak *live heap* with a counting global allocator.
//!
//! The hard gate: `Small` carries ~16× the requests (and iterations) of
//! `Tiny`, so if the path's peak heap is a function of (schedule runs +
//! disks + request window) rather than trace length, the two peaks must be
//! close. The gate fails (and the process exits non-zero) when
//! `peak(Small) > FLAT_FACTOR × peak(Tiny)` — any O(requests) or
//! O(iterations) buffer anywhere on the path, a materialized schedule
//! included, trips it immediately, because it scales 16× between the
//! probes.
//!
//! Also recorded: streamed simulation throughput (`_x`, regresses
//! downward) and codec density in bytes per request (regresses upward),
//! both trended against `scripts/BENCH_stream_baseline.json` by
//! `bench-report`.
//!
//! Usage: `stream_bench [out-path]` (default `BENCH_stream.json`).

use dpm_apps::Scale;
use dpm_bench::{BenchRecord, ExperimentConfig, GateStatus, ScheduleShape};
use dpm_disksim::{PowerPolicy, Simulator};
use dpm_layout::LayoutMap;
use dpm_obs::Json;
use dpm_trace::{TraceGenerator, TraceReader, TraceWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Peak heap at `Small` may exceed the `Tiny` peak by at most this factor.
/// The request count grows 16× between the probes, so a leaked O(requests)
/// buffer overshoots this bound by an order of magnitude; genuine
/// flat-memory runs differ only by allocator noise.
const FLAT_FACTOR: f64 = 1.6;

/// Counting allocator: tracks live heap bytes and their high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Restarts the high-water mark at the current live size, so each probe
/// reports only its own peak, not a predecessor's.
fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

struct Probe {
    requests: u64,
    codec_bytes: u64,
    peak_bytes: u64,
    replay_secs: f64,
}

/// One end-to-end pipeline run: build the AST Plain 1-processor schedule
/// as the harness does, stream-generate its trace, spill it through the
/// codec to a temp file, replay it into the simulator. Returns the peak
/// live heap over the whole path, schedule included.
fn probe(scale: Scale) -> Probe {
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("AST", scale).unwrap();
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
    let path = std::env::temp_dir().join(format!("dpm-stream-bench-{}.trc", std::process::id()));

    reset_peak();
    let schedule = dpm_bench::build_schedule(&program, &layout, &deps, ScheduleShape::Plain, 1);
    let file = std::fs::File::create(&path).expect("create spill file");
    let mut writer = TraceWriter::new(file);
    let mut stream = gen.stream(&schedule);
    writer.write_stream(&mut stream).expect("spill trace");
    let requests = writer.requests();
    let codec_bytes = writer.bytes_written();
    writer.finish().expect("finish spill");

    let sim = Simulator::new(config.disk, PowerPolicy::None, config.striping);
    let t = Instant::now();
    let file = std::fs::File::open(&path).expect("open spill file");
    let mut reader = TraceReader::new(file).expect("read spill header");
    let report = sim.run_stream(&mut reader);
    let replay_secs = t.elapsed().as_secs_f64();
    let peak_bytes = PEAK.load(Ordering::Relaxed) as u64;
    let _ = std::fs::remove_file(&path);
    assert_eq!(report.app_requests, requests, "replay lost requests");

    Probe {
        requests,
        codec_bytes,
        peak_bytes,
        replay_secs,
    }
}

fn main() {
    dpm_obs::init_from_env();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_stream.json".into());
    let threads = dpm_exec::num_threads();
    println!("stream_bench: AST Plain pipeline at Tiny and Small, {threads} threads");

    let tiny = probe(Scale::Tiny);
    let small = probe(Scale::Small);
    let ratio = small.peak_bytes as f64 / tiny.peak_bytes.max(1) as f64;
    let growth = small.requests as f64 / tiny.requests.max(1) as f64;
    let throughput = small.requests as f64 / small.replay_secs.max(1e-9);
    let density = small.codec_bytes as f64 / small.requests.max(1) as f64;
    println!(
        "  tiny : {:>9} requests, peak heap {:>12} B, codec {:>10} B",
        tiny.requests, tiny.peak_bytes, tiny.codec_bytes
    );
    println!(
        "  small: {:>9} requests, peak heap {:>12} B, codec {:>10} B",
        small.requests, small.peak_bytes, small.codec_bytes
    );
    println!(
        "  requests x{growth:.1}, peak heap x{ratio:.3} (gate <= {FLAT_FACTOR}), \
         replay {throughput:.0} req/s, codec {density:.1} B/req"
    );

    let mut record = BenchRecord::new("stream_bench", "Tiny->Small", threads);
    record.metric("stream_requests_small", small.requests as f64);
    record.metric("stream_peak_heap_tiny_bytes", tiny.peak_bytes as f64);
    record.metric("stream_peak_heap_small_bytes", small.peak_bytes as f64);
    record.metric("stream_requests_per_sec_x", throughput);
    record.metric("codec_bytes_per_request", density);
    record.context(
        "probe",
        Json::obj(vec![
            ("app", Json::Str("AST".into())),
            ("shape", Json::Str("Plain".into())),
            ("request_growth", Json::F64(growth)),
            ("peak_ratio", Json::F64(ratio)),
        ]),
    );

    let flat = ratio <= FLAT_FACTOR;
    record.gate(
        "stream_flat_memory",
        if flat {
            GateStatus::Pass
        } else {
            GateStatus::Fail
        },
        format!(
            "peak heap small/tiny = {ratio:.3} (limit {FLAT_FACTOR}) while requests grew \
             {growth:.1}x — the streamed path's memory must be O(schedule runs + disks + \
             window), not O(requests) or O(iterations)"
        ),
    );
    let compact = density <= 16.0;
    record.gate(
        "codec_compact",
        if compact {
            GateStatus::Pass
        } else {
            GateStatus::Fail
        },
        format!("codec density {density:.1} B/request (limit 16.0)"),
    );
    record.write(&out_path).expect("write BENCH_stream.json");
    println!("wrote {out_path}");
    if !flat || !compact {
        eprintln!("stream_bench: FAIL — see gates above");
        std::process::exit(1);
    }
}
