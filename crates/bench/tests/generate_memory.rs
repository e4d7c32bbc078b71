//! Heap gate for the batch generator: `TraceGenerator::generate` holds
//! and computes only what its trace needs.
//!
//! For every application of the `Scale::Small` suite under four schedule
//! shapes (original order and disk-reuse restructuring on one processor;
//! the plain and the layout-aware clustered parallelization on four), a
//! counting global allocator measures, relative to the live heap before
//! the call:
//!
//! * the peak while `generate` runs, which must stay within
//!   [`MAX_PEAK_OVER_TRACE`] × the returned trace's request bytes: the
//!   per-processor lanes at growth capacity, then one exact output beside
//!   the shrunk lanes, with no concatenated copy and no sort scratch;
//! * what is still held once it returns, which must not exceed the
//!   trace's request bytes: the trace carries no growth slack.
//!
//! The allocator forwards `realloc`, so growing or shrinking a vector in
//! place counts as the size change, not as a second buffer. It is
//! process-global, so this binary holds exactly one test: no other test's
//! allocations can land inside a probe.

use dpm_apps::Scale;
use dpm_bench::{build_schedule, ExperimentConfig, ScheduleShape};
use dpm_disksim::IoRequest;
use dpm_layout::LayoutMap;
use dpm_trace::TraceGenerator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak heap during `generate` may exceed the returned trace's request
/// bytes by at most this factor. Lanes grow by doubling, so one lane at
/// growth capacity, or several shrunk lanes beside their merged output,
/// reach 2× the trace; the rest is the generator's per-processor state.
const MAX_PEAK_OVER_TRACE: f64 = 2.1;

/// The shapes the figure-9 matrix generates, as `(label, shape, procs)`.
const SHAPES: [(&str, ScheduleShape, u32); 4] = [
    ("plain-1p", ScheduleShape::Plain, 1),
    ("clustered-1p", ScheduleShape::ClusteredS, 1),
    ("plain-4p", ScheduleShape::Plain, 4),
    ("clustered-m-4p", ScheduleShape::ClusteredM, 4),
];

/// Counting allocator: tracks live heap bytes and their high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what it returns, so `System`'s guarantees carry over; the
// bookkeeping only updates two atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn generate_peaks_near_its_trace_and_returns_it_without_slack() {
    let config = ExperimentConfig::default();
    let mut table = String::new();
    let mut failures = Vec::new();
    // The first span on a thread allocates per-thread instrumentation
    // state that outlives the call; open it before any probe.
    drop(dpm_obs::span!("warm_up"));
    for app in dpm_apps::suite(Scale::Small) {
        let program = app.program();
        let layout = LayoutMap::new(&program, config.striping);
        let deps = dpm_ir::analyze(&program);
        let gen =
            TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
        for (label, shape, procs) in SHAPES {
            let schedule = build_schedule(&program, &layout, &deps, shape, procs);
            let before = CURRENT.load(Ordering::Relaxed);
            PEAK.store(before, Ordering::Relaxed);
            let (trace, stats) = gen.generate(&schedule);
            let peak = PEAK.load(Ordering::Relaxed) - before;
            let held = CURRENT.load(Ordering::Relaxed) as isize - before as isize;
            let trace_bytes = trace.len() * std::mem::size_of::<IoRequest>();
            assert_eq!(stats.requests, trace.len() as u64);
            let peak_x = peak as f64 / trace_bytes as f64;
            let held_x = held as f64 / trace_bytes as f64;
            let _ = writeln!(
                table,
                "{:>10} {label:<15} {:>6} requests  peak {peak_x:.3}x  held {held_x:.3}x ({held} B)",
                app.name,
                trace.len()
            );
            if peak_x > MAX_PEAK_OVER_TRACE || held > trace_bytes as isize {
                failures.push(format!("{} {label}", app.name));
            }
        }
    }
    print!("{table}");
    assert!(
        failures.is_empty(),
        "generate peaked above {MAX_PEAK_OVER_TRACE}x its trace's request bytes, or \
         held more than them after returning, for {failures:?}:\n{table}"
    );
}
