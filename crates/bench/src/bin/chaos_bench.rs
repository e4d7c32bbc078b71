//! Chaos sweep: the figure-9(a) experiment matrix under escalating fault
//! rates, one row of fault, retry and energy aggregates per rate.
//!
//! The fault seed is fixed, so every run reproduces the same faults. This
//! is a report: the contracts it illustrates are tests —
//! `tests/fault_determinism.rs` checks every report of the Tiny sweep
//! against the simulator's invariants, and
//! `tests/parallel_determinism.rs` pins serial == parallel under a chaos
//! plan.
//!
//! Usage: `chaos_bench [scale]` (scale: tiny | small | large | paper;
//! default tiny; `full` is accepted as `paper`).

use dpm_apps::Scale;
use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, Version};
use dpm_disksim::{FaultPlan, SimReport};
use std::time::Instant;

/// Fixed fault seed: the sweep is reproducible run over run.
const SEED: u64 = 0xD15C_FA17;

/// The swept per-decision fault rates (0 = the fault-free control).
const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

fn main() {
    dpm_obs::init_from_env();
    let scale = dpm_apps::scale_arg(Scale::Tiny);
    let cells = || -> Vec<MatrixCell> {
        dpm_apps::suite(scale)
            .into_iter()
            .map(|app| MatrixCell {
                app,
                versions: Version::single_cpu().to_vec(),
                procs: 1,
            })
            .collect()
    };
    println!(
        "chaos_bench: figure-9(a) matrix at {scale:?} scale, {} cells, seed {SEED:#x}, \
         {} thread(s)",
        cells().len(),
        dpm_exec::num_threads()
    );
    println!(
        "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>14} {:>10}",
        "rate", "faults", "retries", "timeouts", "requeues", "degraded", "energy J", "wall ms"
    );
    for rate in RATES {
        let config = ExperimentConfig {
            faults: FaultPlan::chaos(SEED, rate),
            ..ExperimentConfig::default()
        };
        let t = Instant::now();
        let results = run_matrix(cells(), &config);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let reports: Vec<&SimReport> = results
            .iter()
            .flat_map(|a| a.results.iter().map(|r| &r.report))
            .collect();
        let total = |f: fn(&SimReport) -> u64| -> u64 { reports.iter().map(|r| f(r)).sum() };
        let energy: f64 = reports.iter().map(|r| r.total_energy_j()).sum();
        println!(
            "  {rate:>5.2} {:>8} {:>8} {:>8} {:>8} {:>8} {energy:>14.1} {wall_ms:>10.1}",
            total(SimReport::total_faults),
            total(SimReport::total_retries),
            total(SimReport::total_timeouts),
            total(SimReport::total_requeues),
            total(|r| r.degraded_disks() as u64),
        );
    }
}
