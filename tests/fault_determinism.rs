//! Determinism suite for fault injection.
//!
//! A fault plan is part of the simulation's *input*: the same seed and
//! rates must reproduce the same faults — and therefore bit-identical
//! reports — however many times it runs. The zero plan must be
//! indistinguishable from never arming faults at all, and every report a
//! fault plan produces must still satisfy the simulator's invariants.

use disk_reuse::prelude::*;
use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, Version};
use dpm_disksim::{invariants, RaidConfig, SimReport};

fn test_striping() -> Striping {
    Striping::new(8 << 10, 4, 0)
}

/// A trace built through the full compiler half of the pipeline, so
/// simulator runs have a fixed input.
fn test_trace() -> Trace {
    let program = parse_program(
        "program faults; array A[96][32] : f64; array B[96][32] : f64;
         nest L1 { for i = 0 .. 95 { for j = 0 .. 31 { A[i][j] = B[i][j] + 1; } } }
         nest L2 { for i = 0 .. 95 { for j = 0 .. 31 { B[i][j] = A[i][j] * 2; } } }",
    )
    .expect("test program parses");
    let layout = LayoutMap::new(&program, test_striping());
    let deps = analyze(&program);
    let schedule = restructure_single(&program, &layout, &deps);
    let gen = TraceGenerator::new(&program, &layout, TraceGenOptions::default());
    gen.generate(&schedule).0
}

/// Field-by-field `SimReport` equality with floats compared *bitwise* —
/// the determinism contract is exact, not approximate.
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

fn run_sim(trace: &Trace, policy: PowerPolicy, plan: FaultPlan) -> SimReport {
    Simulator::new(DiskParams::default(), policy, test_striping())
        .with_faults(plan)
        .with_timelines()
        .run(trace)
}

#[test]
fn same_seed_same_plan_bit_identical() {
    let trace = test_trace();
    let plan = FaultPlan::chaos(42, 0.3);
    for policy in [
        PowerPolicy::Tpm(TpmConfig::default()),
        PowerPolicy::Drpm(DrpmConfig::default()),
    ] {
        let a = run_sim(&trace, policy, plan);
        let b = run_sim(&trace, policy, plan);
        assert!(a.total_faults() > 0, "{policy}: plan must inject something");
        assert_reports_identical(&a, &b, &format!("{policy} repeat"));
    }
}

#[test]
fn zero_plan_is_bit_identical_to_no_plan() {
    let trace = test_trace();
    for policy in [
        PowerPolicy::None,
        PowerPolicy::Tpm(TpmConfig::default()),
        PowerPolicy::Drpm(DrpmConfig::default()),
    ] {
        let without = Simulator::new(DiskParams::default(), policy, test_striping())
            .with_timelines()
            .run(&trace);
        let with_zero = run_sim(&trace, policy, FaultPlan::zero());
        assert_reports_identical(&without, &with_zero, &format!("{policy} zero plan"));
        assert_eq!(with_zero.total_faults(), 0);
        assert_eq!(with_zero.total_retries(), 0);
        assert_eq!(with_zero.total_timeouts(), 0);
        assert_eq!(with_zero.total_requeues(), 0);
        assert_eq!(with_zero.degraded_disks(), 0);
    }
}

#[test]
fn different_seeds_inject_different_faults() {
    let trace = test_trace();
    let policy = PowerPolicy::Tpm(TpmConfig::default());
    let a = run_sim(&trace, policy, FaultPlan::chaos(1, 0.1));
    let b = run_sim(&trace, policy, FaultPlan::chaos(2, 0.1));
    // Same rates, different seeds: the realized fault pattern must differ
    // somewhere (counters or timing).
    let differs = a.per_disk != b.per_disk || a.makespan_ms.to_bits() != b.makespan_ms.to_bits();
    assert!(differs, "seeds 1 and 2 produced identical fault patterns");
}

#[test]
fn faults_never_lose_or_duplicate_work() {
    let trace = test_trace();
    let clean = run_sim(
        &trace,
        PowerPolicy::Tpm(TpmConfig::default()),
        FaultPlan::zero(),
    );
    let chaotic = run_sim(
        &trace,
        PowerPolicy::Tpm(TpmConfig::default()),
        FaultPlan::chaos(5, 0.25),
    );
    assert!(chaotic.total_faults() > 0);
    for (disk, (c, f)) in clean.per_disk.iter().zip(&chaotic.per_disk).enumerate() {
        assert_eq!(c.requests, f.requests, "disk {disk}: sub-request count");
        assert_eq!(c.bytes, f.bytes, "disk {disk}: byte count");
    }
    // Faults only ever add time and energy, never remove work.
    assert!(chaotic.makespan_ms >= clean.makespan_ms);
    assert!(chaotic.total_energy_j() >= clean.total_energy_j());
}

/// Regression for non-monotonic trace input: `Trace::from_requests`
/// stable-sorts, so a shuffled trace must simulate bit-identically to its
/// arrival-ordered twin.
#[test]
fn shuffled_trace_simulates_identically_after_sort() {
    // Distinct arrival times, so the sorted order is unique and the
    // comparison is exact (ties would legitimately keep insertion order).
    let reqs: Vec<IoRequest> = (0..200u64)
        .map(|k| IoRequest {
            arrival_ms: 137.0 * k as f64,
            offset: (k * 12288) % (1 << 20),
            len: 8192,
            kind: RequestKind::Read,
            proc_id: 0,
        })
        .collect();
    let sorted = Trace::from_requests(reqs.clone());
    let mut shuffled = reqs;
    shuffled.reverse();
    shuffled.swap(0, 100);
    shuffled.swap(57, 3);
    let resorted = Trace::from_requests(shuffled);
    assert_eq!(
        sorted.requests(),
        resorted.requests(),
        "sort must canonicalize order"
    );
    let policy = PowerPolicy::Tpm(TpmConfig::default());
    let plan = FaultPlan::chaos(3, 0.1);
    let a = run_sim(&sorted, policy, plan);
    let b = run_sim(&resorted, policy, plan);
    assert_reports_identical(&a, &b, "shuffled-then-sorted trace");
}

/// The Tiny figure-9(a) matrix under escalating chaos plans: every report
/// passes the invariant checker, called explicitly because release builds
/// compile out the simulator's automatic debug check.
#[test]
fn chaos_matrix_reports_satisfy_invariants() {
    let cells = || -> Vec<MatrixCell> {
        suite(Scale::Tiny)
            .into_iter()
            .map(|app| MatrixCell {
                app,
                versions: Version::single_cpu().to_vec(),
                procs: 1,
            })
            .collect()
    };
    for rate in [0.01, 0.05, 0.20] {
        let config = ExperimentConfig {
            faults: FaultPlan::chaos(0xD15C_FA17, rate),
            ..ExperimentConfig::default()
        };
        let mut faults = 0;
        for app in run_matrix(cells(), &config) {
            for r in &app.results {
                faults += r.report.total_faults();
                let violations =
                    invariants::check_report(&r.report, &config.disk, &RaidConfig::single());
                let violations: Vec<String> = violations.iter().map(ToString::to_string).collect();
                assert!(
                    violations.is_empty(),
                    "rate {rate}, {} {}: {}",
                    app.app,
                    r.version.label(),
                    violations.join("; ")
                );
            }
        }
        assert!(faults > 0, "rate {rate}: the plan injected nothing");
    }
}
