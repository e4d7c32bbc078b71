//! Bit-for-bit equivalence of the optimized polyhedral/bitset paths
//! against the engines they replaced, across the whole Tiny-scale suite.
//!
//! The perf work (cached projection chains, closed-form `count_points`,
//! the bitset `Q_d` scheduler) is only admissible if it is *invisible* in
//! every output: schedules, traces and simulation reports must match the
//! reference implementations exactly — floats bitwise, not approximately.

use disk_reuse::core::disk_iteration_sets;
use disk_reuse::prelude::*;

/// Field-by-field `SimReport` equality; floats compared bitwise.
/// (`SimReport` carries a per-run `obs_run` id, so it has no `PartialEq`.)
fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(
        a.makespan_ms.to_bits(),
        b.makespan_ms.to_bits(),
        "{label}: makespan_ms differs ({} vs {})",
        a.makespan_ms,
        b.makespan_ms
    );
    assert_eq!(
        a.total_io_time_ms.to_bits(),
        b.total_io_time_ms.to_bits(),
        "{label}: total_io_time_ms differs ({} vs {})",
        a.total_io_time_ms,
        b.total_io_time_ms
    );
    assert_eq!(
        a.total_response_ms.to_bits(),
        b.total_response_ms.to_bits(),
        "{label}: total_response_ms differs ({} vs {})",
        a.total_response_ms,
        b.total_response_ms
    );
    assert_eq!(a.app_requests, b.app_requests, "{label}: app_requests");
    assert_eq!(a.per_disk, b.per_disk, "{label}: per-disk stats differ");
    assert_eq!(
        a.idle_histograms, b.idle_histograms,
        "{label}: idle histograms differ"
    );
    assert_eq!(a.timelines, b.timelines, "{label}: timelines differ");
}

/// The bitset `Q_d` engine must reproduce the reference engine's schedule,
/// trace and simulated report for every app in the suite — the Figure-3
/// deferral loop's visit order is part of the contract, not an internal.
#[test]
fn bitset_scheduler_is_bit_identical_across_suite() {
    for app in suite(Scale::Tiny) {
        let label = app.name.to_string();
        let program = app.program();
        let layout = LayoutMap::new(&program, paper_striping());
        let deps = analyze(&program);

        let (fast, reference) = dpm_exec::serial_scope(|| {
            (
                restructure_single(&program, &layout, &deps),
                restructure_single_reference(&program, &layout, &deps),
            )
        });
        assert_eq!(
            fast.num_phases(),
            reference.num_phases(),
            "{label}: phase count differs"
        );
        for phase in 0..fast.num_phases() {
            assert_eq!(
                fast.iters(phase, 0),
                reference.iters(phase, 0),
                "{label}: schedule differs in phase {phase}"
            );
        }

        let ((trace_fast, stats_fast), (trace_ref, stats_ref)) = dpm_exec::serial_scope(|| {
            let gen = TraceGenerator::new(&program, &layout, TraceGenOptions::default());
            (gen.generate(&fast), gen.generate(&reference))
        });
        assert_eq!(
            trace_fast.requests(),
            trace_ref.requests(),
            "{label}: traces differ"
        );
        assert_eq!(stats_fast, stats_ref, "{label}: trace stats differ");

        let run = |trace: &Trace| {
            Simulator::new(
                DiskParams::default(),
                PowerPolicy::Tpm(TpmConfig::default()),
                paper_striping(),
            )
            .with_timelines()
            .run(trace)
        };
        assert_reports_identical(&run(&trace_fast), &run(&trace_ref), &label);
    }
}

/// The symbolic per-disk iteration sets must count identically through the
/// closed forms and through plain enumeration, and together they must
/// cover each nest exactly once (they partition it).
#[test]
fn symbolic_disk_sets_count_identically_across_suite() {
    let mut checked = 0u32;
    for app in suite(Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, paper_striping());
        for nest in 0..program.nests.len() {
            // Apps with dependences or non-one-to-one subscripts have no
            // symbolic form; the numeric engine covers those.
            let Ok(sets) = disk_iteration_sets(&program, &layout, nest) else {
                continue;
            };
            checked += 1;
            let nest_size: u64 = program.nests[nest].trip_count();
            let mut total = 0u64;
            for (d, set) in sets.iter().enumerate() {
                let closed = set.count_points();
                let enumerated = set.count_points_enumerated();
                assert_eq!(
                    closed, enumerated,
                    "{}: nest {nest} disk {d}: closed {closed} != enumerated {enumerated}",
                    app.name
                );
                total += closed;
            }
            assert_eq!(
                total, nest_size,
                "{}: nest {nest}: disk sets do not partition the nest",
                app.name
            );
        }
    }
    assert!(
        checked >= 3,
        "expected several symbolic nests in the suite, found {checked}"
    );
}
