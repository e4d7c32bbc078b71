//! Regenerates Figure 10: percentage disk-I/O-time degradation over the
//! Base version — part (a) single processor, part (b) four processors.
//!
//! Usage: `figure10 [scale] [csv-path]` (scale: paper | large | small |
//! tiny; default paper, which `full` also selects).
//! Always writes the full result set as JSON to `results/figure10.json`;
//! with `DPM_OBS` set, the JSON additionally carries per-pass timings.

use dpm_apps::Scale;
use dpm_bench::{
    mean, pct, run_matrix, AppResults, ExperimentConfig, MatrixCell, RunReport, Version,
};
use dpm_obs::Json;
use std::fmt::Write as _;

/// Looks up a version's I/O-time degradation, exiting with a named
/// diagnostic (instead of a panic) when the cell is missing from the sweep.
fn degradation(res: &AppResults, v: Version) -> f64 {
    res.try_degradation(v).unwrap_or_else(|e| {
        eprintln!("figure10: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let obs = dpm_obs::init_from_env();
    let collector = obs.then(dpm_obs::install_collector);
    let scale = match std::env::args().nth(1).as_deref() {
        Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Paper,
    };
    let csv_path = std::env::args().nth(2);
    let config = ExperimentConfig::default();
    let mut csv = String::from("figure,app,version,degradation\n");
    let mut report = RunReport::new("figure10")
        .with_config(&config)
        .with_field("scale", Json::Str(format!("{scale:?}")));

    for (part, procs, versions) in [
        ("10(a)", 1u32, Version::single_cpu().to_vec()),
        ("10(b)", 4u32, Version::multi_cpu().to_vec()),
    ] {
        println!(
            "\nFigure {part}: % disk I/O time degradation, {procs} processor(s), {scale:?} scale"
        );
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
                let d = degradation(res, *v);
                print!(" {:>9}", pct(d));
                let _ = writeln!(csv, "{part},{},{},{d:.4}", res.app, v.label());
            }
            println!();
            report.push_app(res);
        }
        print!("{:<12}", "average");
        for v in &versions {
            let avg = mean(&all.iter().map(|r| degradation(r, *v)).collect::<Vec<_>>());
            print!(" {:>9}", pct(avg));
        }
        println!();
        if procs == 1 {
            println!("paper avgs:  TPM ~0%, DRPM 11.9%, T-TPM-s 2.1%, T-DRPM-s 4.7%");
        } else {
            println!(
                "paper avgs:  DRPM 16.8%, T-TPM-s 4.7%, T-DRPM-s 8.7%, T-TPM-m 2.8%, T-DRPM-m 5.0%"
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
        .write("results/figure10.json")
        .expect("write json report");
    println!("\nJSON report written to results/figure10.json");
    dpm_obs::flush();
}
