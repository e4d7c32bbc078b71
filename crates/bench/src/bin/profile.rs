//! Self-profile of the figure-9(a) experiment matrix.
//!
//! Runs the matrix once with the `dpm_obs::prof` recorder enabled, prints
//! the pass's wall time and the share of it the profile attributes to
//! named spans, and exports the call tree to `results/PROF_<scale>.json`
//! plus flamegraph-collapsed stacks to `results/PROF_<scale>.txt`.
//! `tests/prof_identity.rs` holds the profiler's contracts: output
//! bit-identical with it on or off, and ≥95% of a Tiny pass in spans.
//!
//! Usage: `profile [scale]` (scale: tiny | small | large | paper; default
//! tiny). The pool width comes from `DPM_THREADS`.

use dpm_apps::Scale;
use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, Version};
use dpm_obs::prof;
use std::time::Instant;

fn main() {
    dpm_obs::init_from_env();
    let scale = dpm_apps::scale_arg(Scale::Tiny);
    let cells: Vec<MatrixCell> = dpm_apps::suite(scale)
        .into_iter()
        .map(|app| MatrixCell {
            app,
            versions: Version::single_cpu().to_vec(),
            procs: 1,
        })
        .collect();
    println!(
        "profile: figure-9(a) matrix at {scale:?} scale, {} cells, {} thread(s) \
         (host has {} core(s))",
        cells.len(),
        dpm_exec::num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    prof::reset();
    prof::enable();
    let t = Instant::now();
    let _results = run_matrix(cells, &ExperimentConfig::default());
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let profile = prof::snapshot();
    prof::disable();
    let coverage = profile.total_ns() as f64 / (wall_ms * 1e6);
    println!(
        "  profiled pass: {wall_ms:.1} ms, {:.1}% in named spans",
        coverage * 100.0
    );

    let scale_file = format!("{scale:?}").to_lowercase();
    let collapsed_path = format!("results/PROF_{scale_file}.txt");
    let tree_path = format!("results/PROF_{scale_file}.json");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&collapsed_path, profile.to_collapsed()).expect("write collapsed stacks");
    let mut tree = String::new();
    profile.to_json().write(&mut tree);
    tree.push('\n');
    std::fs::write(&tree_path, tree).expect("write profile tree");
    println!("  wrote {collapsed_path} and {tree_path}");
}
