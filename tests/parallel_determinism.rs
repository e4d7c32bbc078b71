//! Parallel == serial determinism suite for the `dpm-exec` execution layer.
//!
//! The execution layer promises *bit-for-bit* reproducibility: sharding the
//! disk simulator, parallelizing the Q_d clustering, or fanning the trace
//! generator across a pool must never change a single output byte. These
//! tests pin that contract at several thread counts, and check that worker
//! panics propagate instead of vanishing.

use disk_reuse::prelude::*;
use dpm_disksim::RaidConfig;

/// A small multi-nest program whose arrays stripe across several disks —
/// enough work that the sharded simulator actually engages all workers.
fn test_program() -> Program {
    parse_program(
        "program det; array A[96][32] : f64; array B[96][32] : f64;
         nest L1 { for i = 0 .. 95 { for j = 0 .. 31 { A[i][j] = B[i][j] + 1; } } }
         nest L2 { for i = 0 .. 95 { for j = 0 .. 31 { B[i][j] = A[i][j] * 2; } } }",
    )
    .expect("test program parses")
}

fn test_striping() -> Striping {
    Striping::new(8 << 10, 4, 0)
}

/// Builds a trace through the full front half of the pipeline (restructure →
/// generate), serially, so the simulator tests have a fixed input.
fn test_trace() -> Trace {
    dpm_exec::serial_scope(|| {
        let program = test_program();
        let layout = LayoutMap::new(&program, test_striping());
        let deps = analyze(&program);
        let schedule = restructure_single(&program, &layout, &deps);
        let gen = TraceGenerator::new(&program, &layout, TraceGenOptions::default());
        gen.generate(&schedule).0
    })
}

/// Field-by-field `SimReport` equality. `SimReport` carries an `obs_run` id
/// that differs per run by design, so it has no `PartialEq`; everything the
/// experiments consume is compared here instead. Floats are compared
/// *bitwise* — the determinism contract is exact, not approximate.
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

fn run_sim(trace: &Trace, policy: PowerPolicy, threads: usize) -> SimReport {
    Simulator::new(DiskParams::default(), policy, test_striping())
        .with_timelines()
        .with_exec_threads(threads)
        .run(trace)
}

#[test]
fn sharded_simulator_matches_serial_tpm() {
    let trace = test_trace();
    let policy = PowerPolicy::Tpm(TpmConfig::default());
    let serial = run_sim(&trace, policy, 1);
    assert!(
        serial.total_energy_j() > 0.0,
        "trace must exercise the disks"
    );
    for threads in [2usize, 8] {
        let parallel = run_sim(&trace, policy, threads);
        assert_reports_identical(&serial, &parallel, &format!("tpm x{threads}"));
    }
}

#[test]
fn sharded_simulator_matches_serial_drpm() {
    let trace = test_trace();
    let policy = PowerPolicy::Drpm(DrpmConfig::default());
    let serial = run_sim(&trace, policy, 1);
    for threads in [2usize, 8] {
        let parallel = run_sim(&trace, policy, threads);
        assert_reports_identical(&serial, &parallel, &format!("drpm x{threads}"));
    }
}

#[test]
fn sharded_simulator_matches_serial_with_raid_substriping() {
    let trace = test_trace();
    let policy = PowerPolicy::Tpm(TpmConfig::proactive());
    let sim = |threads: usize| {
        Simulator::new(DiskParams::default(), policy, test_striping())
            .with_raid(RaidConfig::raid0(2, 4 << 10))
            .with_timelines()
            .with_exec_threads(threads)
            .run(&trace)
    };
    let serial = sim(1);
    for threads in [2usize, 8] {
        assert_reports_identical(&serial, &sim(threads), &format!("raid x{threads}"));
    }
}

/// The compiler half of the pipeline: Q_d clustering (`restructure_single`)
/// and trace generation read `DPM_THREADS`. The schedule and trace must be
/// identical at 1, 2 and 8 threads.
#[test]
fn restructure_and_trace_deterministic_across_thread_counts() {
    let program = test_program();
    let layout = LayoutMap::new(&program, test_striping());
    let deps = analyze(&program);

    // Baseline: force everything through the serial path.
    let (base_schedule, base_trace, base_stats) = dpm_exec::serial_scope(|| {
        let schedule = restructure_single(&program, &layout, &deps);
        let gen = TraceGenerator::new(&program, &layout, TraceGenOptions::default());
        let (trace, stats) = gen.generate(&schedule);
        (schedule, trace, stats)
    });
    assert!(base_schedule.num_phases() > 0);
    assert!(!base_trace.is_empty());

    for threads in [1, 2, 8] {
        dpm_exec::with_env_threads(threads, || {
            let schedule = restructure_single(&program, &layout, &deps);
            assert_eq!(
                schedule.num_phases(),
                base_schedule.num_phases(),
                "DPM_THREADS={threads}: phase count"
            );
            for phase in 0..schedule.num_phases() {
                assert_eq!(
                    schedule.iters(phase, 0),
                    base_schedule.iters(phase, 0),
                    "DPM_THREADS={threads}: schedule differs in phase {phase}"
                );
            }
            let gen = TraceGenerator::new(&program, &layout, TraceGenOptions::default());
            let (trace, stats) = gen.generate(&schedule);
            assert_eq!(
                trace.requests(),
                base_trace.requests(),
                "DPM_THREADS={threads}: generated trace differs"
            );
            assert_eq!(
                stats, base_stats,
                "DPM_THREADS={threads}: trace stats differ"
            );
        });
    }
}

/// A worker panic must surface in the caller with its payload intact — a
/// silently swallowed panic would let a half-computed experiment masquerade
/// as a finished one.
#[test]
fn pool_propagates_worker_panics() {
    let result = std::panic::catch_unwind(|| {
        dpm_exec::Pool::new(2).map_vec(vec![0u32, 1, 2, 3], |_, x| {
            if x == 2 {
                panic!("worker exploded on item {x}");
            }
            x * 10
        })
    });
    let payload = result.expect_err("panic must propagate out of map_vec");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("worker exploded on item 2"),
        "panic payload should be preserved, got: {msg:?}"
    );
}

/// Ordered parallel map: results come back in input order, whatever the
/// thread count — the property every merge loop in the pipeline relies on.
#[test]
fn parallel_map_preserves_input_order() {
    let items: Vec<usize> = (0..257).collect();
    for threads in [1usize, 2, 8] {
        let out = dpm_exec::Pool::new(threads).map_indexed(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }
}

/// Hostile schedule for the parallel map: one cell near the front of the
/// index space is orders of magnitude slower than the rest, so the
/// participant that claims it stalls and the others claim the rest of
/// its block from under it. The float outputs must still land bitwise
/// identical to the serial pass at every width.
#[test]
fn stealing_matches_serial_with_pinned_slow_cell() {
    let items: Vec<u64> = (0..256).collect();
    let cell = |i: usize, &x: &u64| -> f64 {
        if i == 5 {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Non-associative float chain: any evaluation-order drift would
        // flip low-order bits and fail the comparison below.
        (0..64).fold(x as f64, |acc, k| acc * 1.000_1 + (k as f64) * 0.1)
    };
    let serial: Vec<u64> = dpm_exec::serial_scope(|| {
        items
            .iter()
            .enumerate()
            .map(|(i, x)| cell(i, x).to_bits())
            .collect()
    });
    for threads in [1usize, 2, 8] {
        let parallel: Vec<u64> = dpm_exec::Pool::new(threads)
            .map_indexed(&items, cell)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            serial, parallel,
            "pinned-slow-cell map diverged at {threads} threads"
        );
    }
}

/// The full experiment pipeline under a deliberately skewed matrix: the
/// paper-scale app in one cell dwarfs the tiny-scale cells around it, so
/// the matrix fan-out cannot be balanced by an even split. Results must
/// be identical however wide the pool is.
#[test]
fn skewed_matrix_deterministic_across_thread_counts() {
    use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, Version};
    let cells = || -> Vec<MatrixCell> {
        let mut v: Vec<MatrixCell> = ["AST", "FFT", "Cholesky"]
            .iter()
            .map(|name| MatrixCell {
                app: dpm_apps::by_name(name, dpm_apps::Scale::Tiny).expect("app"),
                versions: vec![Version::Base, Version::TTpmS],
                procs: 1,
            })
            .collect();
        // The skew: one cell at Small scale among Tiny ones.
        v[0].app = dpm_apps::by_name("AST", dpm_apps::Scale::Small).expect("app");
        v
    };
    let config = ExperimentConfig::default();
    let canonical = |results: Vec<dpm_bench::AppResults>| -> Vec<(String, u64, u64)> {
        results
            .into_iter()
            .flat_map(|app| {
                app.results.into_iter().map(move |r| {
                    (
                        format!("{}/{:?}", app.app, r.version),
                        r.report.makespan_ms.to_bits(),
                        r.report.total_energy_j().to_bits(),
                    )
                })
            })
            .collect()
    };
    let run = |threads| dpm_exec::with_env_threads(threads, || run_matrix(cells(), &config));
    let baseline = canonical(run(1));
    for threads in [2, 8] {
        assert_eq!(
            baseline,
            canonical(run(threads)),
            "DPM_THREADS={threads}: skewed matrix diverged"
        );
    }
}

/// Depth-1 nesting through `shard_scope`: each shard worker counts as a
/// map participant, so a parallel map issued *inside* a shard body must
/// degrade to the serial path (no nested fan-out) and produce the same
/// bits as a fully serial evaluation.
#[test]
fn nested_map_inside_shard_scope_matches_serial() {
    let inner = |seed: u64| -> Vec<u64> {
        let items: Vec<u64> = (0..32).map(|i| seed + i).collect();
        dpm_exec::par_map_indexed(&items, |i, &x| {
            (0..16).fold(x as f64 + i as f64, |acc, k| acc * 1.01 + k as f64)
        })
        .into_iter()
        .map(f64::to_bits)
        .collect()
    };
    let serial: Vec<Vec<u64>> =
        dpm_exec::serial_scope(|| (0..4u64).map(|s| inner(s * 100)).collect());
    let (outs, ()) = dpm_exec::shard_scope(
        vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()],
        4,
        |_, state: &mut Vec<Vec<u64>>, seed: u64| state.push(inner(seed)),
        |feeder| {
            for s in 0..4u64 {
                feeder.push(s as usize, s * 100);
            }
            for s in 0..4 {
                feeder.pop(s);
            }
        },
    );
    let nested: Vec<Vec<u64>> = outs.into_iter().map(|mut v| v.remove(0)).collect();
    assert_eq!(
        serial, nested,
        "nested shard_scope map diverged from serial"
    );
}
