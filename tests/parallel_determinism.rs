//! Parallel == serial determinism suite for the `dpm-exec` execution layer.
//!
//! The execution layer promises *bit-for-bit* reproducibility: running
//! experiment cells concurrently must never change a single output byte.
//! These tests pin that contract at several thread counts, and check that
//! worker panics propagate instead of vanishing.

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
    let serial: Vec<u64> = items
        .iter()
        .enumerate()
        .map(|(i, x)| cell(i, x).to_bits())
        .collect();
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
/// be identical however wide the pool is, fault-free and under a chaos
/// plan (a fault plan is part of the input, not of the schedule).
#[test]
fn skewed_matrix_deterministic_across_thread_counts() {
    use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, Version};
    use dpm_faults::FaultPlan;
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
    let canonical = |results: Vec<dpm_bench::AppResults>| -> Vec<(String, u64, u64, u64)> {
        results
            .into_iter()
            .flat_map(|app| {
                app.results.into_iter().map(move |r| {
                    (
                        format!("{}/{:?}", app.app, r.version),
                        r.report.makespan_ms.to_bits(),
                        r.report.total_energy_j().to_bits(),
                        r.report.total_faults(),
                    )
                })
            })
            .collect()
    };
    for faults in [FaultPlan::zero(), FaultPlan::chaos(0xD15C_FA17, 0.2)] {
        let config = ExperimentConfig {
            faults,
            ..ExperimentConfig::default()
        };
        let run = |threads| dpm_exec::with_env_threads(threads, || run_matrix(cells(), &config));
        let baseline = canonical(run(1));
        for threads in [2, 8] {
            assert_eq!(
                baseline,
                canonical(run(threads)),
                "DPM_THREADS={threads}, {faults:?}: skewed matrix diverged"
            );
        }
    }
}
