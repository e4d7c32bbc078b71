//! Chaos sweep: the figure-9(a) experiment matrix under escalating fault
//! rates.
//!
//! For each fault rate the whole matrix runs twice — once pinned to the
//! serial path, once on the `DPM_THREADS` pool — and the two result sets
//! must be byte-identical (floats compared by bit pattern): determinism
//! is a contract that holds under *any* fault plan, not just the happy
//! path. Every report is then pushed through the simulator's invariant
//! checker explicitly (release builds skip the automatic
//! `debug_assertions` check), and the per-rate aggregates land in a
//! machine-readable JSON file.
//!
//! Usage: `chaos_bench [scale] [out-path]` (scale: tiny | small | large |
//! paper | full; default tiny, output default `BENCH_chaos.json`; `full`
//! runs both legs through the streaming pipeline, so the serial/parallel
//! byte-compare also covers fault determinism on streamed requests). The fault
//! seed is fixed so every run of this binary reproduces the same faults.
//! Output is one unified [`BenchRecord`] document: per-rate wall times as
//! trended metrics, the full sweep table as context.

use dpm_apps::Scale;
use dpm_bench::{
    run_matrix, AppResults, BenchRecord, ExperimentConfig, GateStatus, MatrixCell, Version,
};
use dpm_disksim::{invariants, FaultPlan, RaidConfig};
use dpm_obs::Json;
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed fault seed: the sweep is reproducible run over run.
const SEED: u64 = 0xD15C_FA17;

/// The swept per-decision fault rates (0 = the fault-free control).
const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

fn cells(scale: Scale) -> Vec<MatrixCell> {
    dpm_apps::suite(scale)
        .into_iter()
        .map(|app| MatrixCell {
            app,
            versions: Version::single_cpu().to_vec(),
            procs: 1,
        })
        .collect()
}

/// Canonical rendering with run ids and wall times excluded; floats are
/// rendered from their bit patterns so a last-ulp divergence flips the
/// comparison. Fault counters are part of the contract.
fn canonical(all: &[AppResults]) -> String {
    let mut out = String::new();
    for res in all {
        let _ = writeln!(out, "app={} procs={}", res.app, res.procs);
        for r in &res.results {
            let _ = writeln!(
                out,
                "  {} requests={} makespan={:016x} io={:016x} resp={:016x} \
                 energy={:016x} faults={} retries={} timeouts={} requeues={} \
                 degraded={} stats={:?}",
                r.version.label(),
                r.report.app_requests,
                r.report.makespan_ms.to_bits(),
                r.report.total_io_time_ms.to_bits(),
                r.report.total_response_ms.to_bits(),
                r.report.total_energy_j().to_bits(),
                r.report.total_faults(),
                r.report.total_retries(),
                r.report.total_timeouts(),
                r.report.total_requeues(),
                r.report.degraded_disks(),
                r.trace_stats,
            );
        }
    }
    out
}

/// Explicit invariant pass over every report in the sweep (release builds
/// do not run the automatic debug check). Returns the number of reports
/// checked; exits the process on any violation.
fn check_invariants(all: &[AppResults], config: &ExperimentConfig, rate: f64) -> u64 {
    let mut checked = 0;
    for res in all {
        for r in &res.results {
            let violations =
                invariants::check_report(&r.report, &config.disk, &RaidConfig::single());
            if !violations.is_empty() {
                eprintln!(
                    "chaos_bench: FAIL — invariants violated at rate {rate} \
                     (app {}, version {}):",
                    res.app,
                    r.version.label()
                );
                for v in &violations {
                    eprintln!("  - {v}");
                }
                std::process::exit(1);
            }
            checked += 1;
        }
    }
    checked
}

fn main() {
    dpm_obs::init_from_env();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("full") => Scale::Full,
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        _ => Scale::Tiny,
    };
    // At `full` scale the traces are too large to materialize; stream them.
    let run = if scale == Scale::Full {
        dpm_bench::run_matrix_streamed
    } else {
        run_matrix
    };
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_chaos.json".into());
    let threads: usize = std::env::var("DPM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    // Pin the map width for the parallel passes to the figure we are
    // about to report.
    std::env::set_var("DPM_THREADS", threads.to_string());
    let num_cells = cells(scale).len();
    println!(
        "chaos_bench: figure-9(a) matrix at {scale:?} scale, {num_cells} cells, \
         seed {SEED:#x}, rates {RATES:?}, {threads} threads"
    );

    let mut record = BenchRecord::new("chaos_bench", &format!("{scale:?}"), threads);
    record.metric("cells", num_cells as f64);
    record.context("seed", Json::U64(SEED));

    let mut sweep = Vec::new();
    let mut total_serial_ms = 0.0;
    let mut total_parallel_ms = 0.0;
    for rate in RATES {
        let config = ExperimentConfig {
            faults: FaultPlan::chaos(SEED, rate),
            ..ExperimentConfig::default()
        };

        let t = Instant::now();
        let serial = dpm_exec::with_env_threads(1, || run(cells(scale), &config));
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let parallel = run(cells(scale), &config);
        let parallel_ms = t.elapsed().as_secs_f64() * 1e3;

        if canonical(&serial) != canonical(&parallel) {
            eprintln!("chaos_bench: FAIL — parallel diverged from serial at rate {rate}");
            eprintln!("--- serial ---\n{}", canonical(&serial));
            eprintln!("--- parallel ---\n{}", canonical(&parallel));
            std::process::exit(1);
        }
        total_serial_ms += serial_ms;
        total_parallel_ms += parallel_ms;
        let reports =
            check_invariants(&serial, &config, rate) + check_invariants(&parallel, &config, rate);

        let total = |f: &dyn Fn(&dpm_disksim::SimReport) -> u64| -> u64 {
            serial
                .iter()
                .flat_map(|a| a.results.iter())
                .map(|r| f(&r.report))
                .sum()
        };
        let faults = total(&|r| r.total_faults());
        let retries = total(&|r| r.total_retries());
        let timeouts = total(&|r| r.total_timeouts());
        let requeues = total(&|r| r.total_requeues());
        let degraded = total(&|r| r.degraded_disks() as u64);
        let energy: f64 = serial
            .iter()
            .flat_map(|a| a.results.iter())
            .map(|r| r.report.total_energy_j())
            .sum();
        if rate == 0.0 && faults + retries + timeouts + requeues != 0 {
            eprintln!("chaos_bench: FAIL — zero-fault plan injected something");
            std::process::exit(1);
        }
        println!(
            "  rate {rate:>5.2}: faults {faults:>6} retries {retries:>6} \
             timeouts {timeouts:>5} requeues {requeues:>5} degraded {degraded:>3} \
             energy {energy:>12.1} J  serial {serial_ms:>8.1} ms  \
             parallel {parallel_ms:>8.1} ms  identical: yes, invariants: {reports} reports clean"
        );
        sweep.push(Json::obj(vec![
            ("rate", Json::F64(rate)),
            ("faults", Json::U64(faults)),
            ("retries", Json::U64(retries)),
            ("timeouts", Json::U64(timeouts)),
            ("requeues", Json::U64(requeues)),
            ("degraded_disks", Json::U64(degraded)),
            ("total_energy_j", Json::F64(energy)),
            ("serial_ms", Json::F64(serial_ms)),
            ("parallel_ms", Json::F64(parallel_ms)),
            ("identical_output", Json::Bool(true)),
            ("reports_checked", Json::U64(reports)),
        ]));
    }

    record.metric("sweep_serial_ms", total_serial_ms);
    record.metric("sweep_parallel_ms", total_parallel_ms);
    record.gate(
        "outputs_identical_all_rates",
        GateStatus::Pass,
        format!("serial == parallel byte-for-byte at rates {RATES:?}"),
    );
    record.gate(
        "invariants_clean_all_rates",
        GateStatus::Pass,
        "every report passed the simulator invariant checker",
    );
    record.context("sweep", Json::Arr(sweep));
    record.write(&out_path).expect("write BENCH_chaos.json");
    println!("wrote {out_path}");
}
