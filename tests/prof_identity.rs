//! Profiler bit-identity: enabling the `dpm_obs::prof` recorder must not
//! change simulation output — not by an ulp, not in any counter — at any
//! pool width.
//!
//! The profiler only *reads* clocks and writes to its own thread-local
//! arenas; this test pins that contract by rendering every report of the
//! Tiny figure-9(a) suite (floats by bit pattern, streaming metrics by
//! their full debug form) with the profiler off and on at 1, 2, and 8
//! threads, and requiring all six renderings to be byte-identical.
//!
//! Both recorders are fed by one span guard, so a run with both on must
//! also name the same regions in the profile and in the event stream.

use dpm_apps::Scale;
use dpm_bench::{run_matrix, AppResults, ExperimentConfig, MatrixCell, Version};
use dpm_obs::prof;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

/// The recorders are process-global; this file's tests must not
/// interleave.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cells() -> Vec<MatrixCell> {
    dpm_apps::suite(Scale::Tiny)
        .into_iter()
        .map(|app| MatrixCell {
            app,
            versions: Version::single_cpu().to_vec(),
            procs: 1,
        })
        .collect()
}

/// Canonical rendering with run ids and wall times excluded. Floats are
/// rendered from their bit patterns; the streaming metrics use `Debug`,
/// whose shortest-roundtrip float form is also injective — any divergence
/// flips the string.
fn canonical(all: &[AppResults]) -> String {
    let mut out = String::new();
    for res in all {
        let _ = writeln!(out, "app={} procs={}", res.app, res.procs);
        for r in &res.results {
            let _ = writeln!(
                out,
                "  {} requests={} makespan={:016x} io={:016x} resp={:016x} \
                 energy={:016x} stats={:?} stream={:?}",
                r.version.label(),
                r.report.app_requests,
                r.report.makespan_ms.to_bits(),
                r.report.total_io_time_ms.to_bits(),
                r.report.total_response_ms.to_bits(),
                r.report.total_energy_j().to_bits(),
                r.trace_stats,
                r.report.stream,
            );
        }
    }
    out
}

fn run_suite(threads: usize, profiled: bool) -> String {
    if profiled {
        prof::reset();
        prof::enable();
    }
    let results = dpm_exec::with_env_threads(threads, || {
        run_matrix(cells(), &ExperimentConfig::default())
    });
    if profiled {
        let profile = prof::snapshot();
        prof::disable();
        prof::reset();
        // The profiled run must actually have profiled something, or the
        // bit-identity claim is vacuous.
        assert!(
            profile.find(&["experiment_matrix"]).is_some(),
            "profiler enabled but no experiment_matrix frame captured at {threads} thread(s)"
        );
    }
    canonical(&results)
}

#[test]
fn profiler_on_off_bit_identical_at_1_2_8_threads() {
    let _g = lock();
    let reference = run_suite(1, false);
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 8] {
        let off = run_suite(threads, false);
        let on = run_suite(threads, true);
        assert_eq!(
            off, reference,
            "profiler-off run at {threads} thread(s) diverged from serial reference"
        );
        assert_eq!(
            on, reference,
            "profiler-on run at {threads} thread(s) changed simulation output"
        );
    }
}

#[test]
fn profile_frames_and_span_events_name_the_same_regions() {
    let _g = lock();
    let collector = dpm_obs::install_collector();
    prof::reset();
    prof::enable();
    dpm_obs::enable();
    run_matrix(cells(), &ExperimentConfig::default());
    dpm_obs::disable();
    prof::disable();
    let profile = prof::snapshot();
    prof::reset();
    dpm_obs::clear_sinks();

    let frames: BTreeSet<String> = (1..profile.len())
        .map(|ix| profile.node(ix).name.to_string())
        .collect();
    let ends: BTreeSet<String> = collector
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == dpm_obs::kind::SPAN_END)
        .map(|e| e.name)
        .collect();
    assert!(frames.contains("experiment_matrix"), "{frames:?}");
    assert_eq!(frames, ends, "profile frames vs span_end names");
}
