//! Quick end-to-end shape check: runs a configurable subset of the suite
//! at reduced scale and prints normalized energy / degradation per version.
//! Usage: `smoke [scale] [app]` with scale in {tiny, small, large, paper}.

use dpm_apps::Scale;
use dpm_bench::{run_app, ExperimentConfig, Version};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = dpm_apps::scale_arg(Scale::Small);
    let config = ExperimentConfig::default();
    let apps = match args.get(2) {
        Some(name) => vec![dpm_apps::by_name(name, scale).expect("unknown app")],
        None => dpm_apps::suite(scale),
    };
    for app in &apps {
        for procs in [1u32, 4] {
            let versions: Vec<Version> = if procs == 1 {
                Version::single_cpu().to_vec()
            } else {
                Version::multi_cpu().to_vec()
            };
            let t0 = std::time::Instant::now();
            let res = run_app(app, &versions, procs, &config);
            let base = res.base();
            println!(
                "\n=== {} ({} proc) — base energy {:.0} J, io {:.1} s, {} reqs, io-frac {:.2}, gen+sim {:?}",
                app.name,
                procs,
                base.report.total_energy_j(),
                base.report.total_io_time_ms / 1000.0,
                base.report.app_requests,
                base.trace_stats.io_fraction(),
                t0.elapsed(),
            );
            for v in &versions {
                let e = res.normalized_energy(*v).unwrap();
                let d = res.degradation(*v).unwrap();
                let r = res.results.iter().find(|r| r.version == *v).unwrap();
                println!(
                    "  {:<9} energy {:>6.3}  (saving {:>7})  degr {:>9}  downs {:>3} ups {:>3} spd {:>5}  reqs {:>6} GB {:>5.2} mkspan {:>7.1}s seq% {:>3.0}",
                    v.label(),
                    e,
                    dpm_bench::pct(1.0 - e),
                    dpm_bench::pct(d),
                    r.report.total_spin_downs(),
                    r.report.per_disk.iter().map(|d| d.spin_ups).sum::<u64>(),
                    r.report.total_speed_changes(),
                    r.report.app_requests,
                    r.report.total_bytes() as f64 / (1u64 << 30) as f64,
                    r.report.makespan_ms / 1000.0,
                    100.0 * r.report.per_disk.iter().map(|d| d.sequential_requests).sum::<u64>() as f64
                        / r.report.total_sub_requests().max(1) as f64,
                );
            }
        }
    }
}
