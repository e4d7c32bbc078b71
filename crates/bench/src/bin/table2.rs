//! Regenerates Table 2: per-application characteristics — data size, number
//! of disk requests, base disk energy, and base disk I/O time (no power
//! management, single processor).
//!
//! Usage: `table2 [scale]` (paper | large | small | tiny; default paper,
//! which `full` also selects). Prints
//! the paper's values alongside for comparison and writes the measured
//! rows as JSON to `results/table2.json`. With `DPM_OBS` set, the whole
//! run additionally streams instrumentation events (spans, per-disk state
//! changes) to a JSON-Lines file.

use dpm_apps::Scale;
use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, RunReport, Version};
use dpm_obs::Json;

/// The paper's Table 2 rows: (name, data GB, requests, energy J, io ms).
const PAPER: [(&str, f64, u64, f64, f64); 6] = [
    ("AST", 153.3, 148_526, 44_581.1, 476_278.6),
    ("FFT", 96.6, 81_027, 24_570.3, 371_483.1),
    ("Cholesky", 87.4, 74_441, 20_996.3, 337_028.0),
    ("Visuo", 95.5, 86_309, 26_711.4, 369_649.5),
    ("SCF 3.0", 106.1, 119_862, 36_924.7, 424_118.7),
    ("RSense 2.0", 104.0, 126_990, 37_508.2, 419_973.5),
];

fn main() {
    let obs = dpm_obs::init_from_env();
    let collector = obs.then(dpm_obs::install_collector);
    let scale = dpm_apps::scale_arg(Scale::Paper);
    let config = ExperimentConfig::default();
    let mut report = RunReport::new("table2")
        .with_config(&config)
        .with_field("scale", Json::Str(format!("{scale:?}")));
    println!("Table 2: application characteristics ({scale:?} scale)");
    println!(
        "{:<12} {:>9} {:>10} {:>12} {:>12} {:>8} | paper: {:>8} {:>9} {:>10} {:>11}",
        "Name",
        "Data(GB)",
        "Requests",
        "BaseEnergy(J)",
        "IOTime(ms)",
        "io-frac",
        "GB",
        "Reqs",
        "Energy(J)",
        "IOTime(ms)"
    );
    // One Base cell per app, all run concurrently; `run_matrix` preserves
    // suite order so the printed table matches a serial sweep.
    let apps = dpm_apps::suite(scale);
    let cells: Vec<MatrixCell> = apps
        .iter()
        .map(|app| MatrixCell {
            app: app.clone(),
            versions: vec![Version::Base],
            procs: 1,
        })
        .collect();
    let all = run_matrix(cells, &config);
    for (app, res) in apps.iter().zip(&all) {
        let program = app.program();
        let gb = program.total_data_bytes() as f64 / (1u64 << 30) as f64;
        let Some(base) = res.results.iter().find(|r| r.version == Version::Base) else {
            eprintln!(
                "table2: app {:?} (1 proc): no result for version Base; cannot tabulate",
                res.app
            );
            std::process::exit(2);
        };
        let Some(paper) = PAPER.iter().find(|p| p.0 == app.name) else {
            eprintln!(
                "table2: app {:?} has no reference row in the paper's Table 2; \
                 known apps: {:?}",
                app.name,
                PAPER.map(|p| p.0)
            );
            std::process::exit(2);
        };
        println!(
            "{:<12} {:>9.1} {:>10} {:>13.1} {:>12.1} {:>8.2} | {:>14.1} {:>9} {:>10.1} {:>11.1}",
            app.name,
            gb,
            base.report.app_requests,
            base.report.total_energy_j(),
            base.report.total_io_time_ms,
            base.trace_stats.io_fraction(),
            paper.1,
            paper.2,
            paper.3,
            paper.4,
        );
        report.push_app(res);
    }
    println!();
    println!(
        "note: data sizes are scaled down from the paper's testbed; request\n\
         counts scale with data size at matched average request size."
    );
    if let Some(c) = &collector {
        report.add_pass_timings(&c.snapshot());
    }
    report
        .write("results/table2.json")
        .expect("write json report");
    println!("JSON report written to results/table2.json");
    dpm_obs::flush();
}
