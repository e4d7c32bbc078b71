//! Regenerates Figure 9: normalized disk energy consumption per application
//! and code version — part (a) single processor, part (b) four processors.
//!
//! Usage: `figure9 [scale] [csv-path]` (scale: paper | large | small |
//! tiny; default paper, which `full` also selects). Each trace is
//! generated in one pass that feeds every version's simulator, so no
//! trace is held in memory at any scale.
//! Prints the paper's reported averages next to the measured ones and
//! optionally writes a CSV with every bar. Always writes the full result
//! set as JSON to `results/figure9.json`; with `DPM_OBS` set, the JSON
//! additionally carries per-pass compiler/simulator timings.

use dpm_apps::Scale;
use dpm_bench::{
    mean, pct, run_matrix, AppResults, ExperimentConfig, MatrixCell, RunReport, Version,
};
use dpm_obs::Json;
use std::fmt::Write as _;

/// Looks up a version's normalized energy, exiting with a named diagnostic
/// (instead of a panic) when the cell is missing from the sweep.
fn energy(res: &AppResults, v: Version) -> f64 {
    res.try_normalized_energy(v).unwrap_or_else(|e| {
        eprintln!("figure9: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let obs = dpm_obs::init_from_env();
    let collector = obs.then(dpm_obs::install_collector);
    let scale = dpm_apps::scale_arg(Scale::Paper);
    let csv_path = std::env::args().nth(2);
    let config = ExperimentConfig::default();
    let mut csv = String::from("figure,app,version,normalized_energy\n");
    let mut report = RunReport::new("figure9")
        .with_config(&config)
        .with_field("scale", Json::Str(format!("{scale:?}")));

    for (part, procs, versions) in [
        ("9(a)", 1u32, Version::single_cpu().to_vec()),
        ("9(b)", 4u32, Version::multi_cpu().to_vec()),
    ] {
        println!("\nFigure {part}: normalized energy, {procs} processor(s), {scale:?} scale");
        print!("{:<12}", "App");
        for v in &versions {
            print!(" {:>9}", v.label());
        }
        println!();
        // All apps of this part run concurrently; `run_matrix` returns them
        // in suite order, so the printed rows, CSV, and JSON are identical
        // to a serial sweep.
        let cells: Vec<MatrixCell> = dpm_apps::suite(scale)
            .into_iter()
            .map(|app| MatrixCell {
                app,
                versions: versions.clone(),
                procs,
            })
            .collect();
        let all: Vec<AppResults> = run_matrix(cells, &config);
        for res in &all {
            print!("{:<12}", res.app);
            for v in &versions {
                let e = energy(res, *v);
                print!(" {:>9.3}", e);
                let _ = writeln!(csv, "{part},{},{},{e:.4}", res.app, v.label());
            }
            println!();
            report.push_app(res);
        }
        print!("{:<12}", "average");
        for v in &versions {
            let avg = mean(&all.iter().map(|r| energy(r, *v)).collect::<Vec<_>>());
            print!(" {:>9.3}", avg);
        }
        println!();
        print!("{:<12}", "avg saving");
        for v in &versions {
            let avg = mean(&all.iter().map(|r| 1.0 - energy(r, *v)).collect::<Vec<_>>());
            print!(" {:>9}", pct(avg));
        }
        println!();
        if procs == 1 {
            println!("paper avgs:  TPM ~0%, DRPM 9.95%, T-TPM-s 8.30%, T-DRPM-s 18.30% savings");
        } else {
            println!(
                "paper avgs:  T-TPM-s 3.84%, T-DRPM-s 10.66%, T-TPM-m 11.04%, T-DRPM-m 18.04% savings"
            );
        }
    }

    if let Some(path) = csv_path {
        std::fs::write(&path, csv).expect("write csv");
        println!("\nCSV written to {path}");
    }
    if let Some(c) = &collector {
        report.add_pass_timings(&c.snapshot());
    }
    report
        .write("results/figure9.json")
        .expect("write json report");
    println!("\nJSON report written to results/figure9.json");
    dpm_obs::flush();
}
