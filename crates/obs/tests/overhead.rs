//! Measures the cost of a span with both recorders off and asserts it is
//! under 2% of a representative hot-path unit of work.
//!
//! A naive A/B wall-clock comparison (loop with spans vs loop without)
//! is hopeless on a noisy shared host: run-to-run variance of the
//! workload itself exceeds 10%, far above the 2% bar. Instead the test
//! measures the two quantities separately — the disabled guard over a
//! million tight calls (a stable, milliseconds-long block) and the
//! workload per call — and compares the per-call ratio. The guard is one
//! relaxed atomic load, a few tens of nanoseconds even unoptimized,
//! against a ~100µs workload unit, so the assertion holds with two
//! orders of magnitude of margin.

use dpm_obs::prof;
use std::hint::black_box;
use std::time::Instant;

/// Stand-in for one hot-path unit of work between instrumentation
/// points (the real spans wrap far larger regions: a polyhedral count,
/// a simulated request batch, a `par_map` participant).
fn workload(n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    acc
}

#[test]
fn disabled_span_overhead_under_two_percent() {
    const INNER: u64 = 20_000;
    const GUARD_CALLS: u64 = 1_000_000;
    const SAMPLES: u32 = 20;

    dpm_obs::disable();
    prof::disable();
    prof::reset();

    // Warm-up.
    black_box(workload(INNER));
    for _ in 0..1_000 {
        black_box(dpm_obs::span!("overhead_probe"));
    }

    // Guard cost: a million disabled open+drop cycles back to back.
    let mut guard_ns = u128::MAX;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..GUARD_CALLS {
            black_box(dpm_obs::span!("overhead_probe"));
        }
        guard_ns = guard_ns.min(t.elapsed().as_nanos());
    }
    let guard_per_call = guard_ns as f64 / GUARD_CALLS as f64;

    // Workload cost per instrumented call (min over samples — the
    // low-noise estimator).
    let mut work_ns = u128::MAX;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        black_box(workload(INNER));
        work_ns = work_ns.min(t.elapsed().as_nanos());
    }
    let work_per_call = work_ns as f64;

    // Disabled spans must record nothing at all.
    assert!(prof::snapshot().is_empty(), "disabled span recorded frames");

    let ratio = guard_per_call / work_per_call;
    assert!(
        ratio < 0.02,
        "disabled-span overhead too high: guard {guard_per_call:.1}ns/call \
         vs workload {work_per_call:.0}ns/call (ratio {ratio:.5})"
    );
}
