//! Visualizes what the restructuring does to each disk's life: per-disk
//! power-state timelines for the Base and restructured runs, as ASCII
//! strips (`#` busy, `.` idle full-speed, `o` idle reduced-speed,
//! `_` standby, `~` transition).
//!
//! The timelines are not recorded by the simulator: they are rebuilt from
//! the `disk_state` events of the instrumentation stream
//! ([`dpm_disksim::timelines_from_events`]), exercising the same path an
//! external consumer of the JSONL output would use. Each simulation's
//! events are selected by the `obs_run` id stamped on its report.
//!
//! Usage: `timeline [scale] [app]` (default small AST).

use dpm_apps::Scale;
use dpm_bench::{run_app, ExperimentConfig, Version};
use dpm_disksim::{ascii_timelines, timelines_from_events};

fn main() {
    // This binary *is* a consumer of the event stream, so instrumentation
    // is always on here; DPM_OBS additionally tees the events to a file.
    dpm_obs::init_from_env();
    dpm_obs::enable();
    let collector = dpm_obs::install_collector();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Small,
    };
    let app_name = std::env::args().nth(2).unwrap_or_else(|| "AST".into());
    let app = dpm_apps::by_name(&app_name, scale).expect("unknown app");
    let config = ExperimentConfig::default();
    // The two Original-code rows share one generation pass, and so do
    // the two restructured ones; no trace is held.
    let rows = [
        ("Base (no PM)", Version::Base),
        ("TPM on original code", Version::Tpm),
        ("T-TPM-s (restructured)", Version::TTpmS),
        ("T-DRPM-s (restructured)", Version::TDrpmS),
    ];
    let versions = rows.map(|(_, v)| v);
    let res = run_app(&app, &versions, 1, &config);
    for ((label, _), r) in rows.iter().zip(&res.results) {
        let report = &r.report;
        println!(
            "\n{label} — {:.0} J over {:.0} s (rebuilt from run {} of the event stream)",
            report.total_energy_j(),
            report.makespan_ms / 1000.0,
            report.obs_run,
        );
        let timelines = timelines_from_events(
            &collector.snapshot(),
            report.obs_run,
            config.striping.num_disks(),
            report.makespan_ms,
        );
        print!("{}", ascii_timelines(&timelines, report.makespan_ms, 72));
    }
    println!(
        "\nlegend: # busy   . idle (full rpm)   o idle (reduced rpm)   _ standby   ~ transition\n\
         note: a column shows `#` if the disk was busy at any point inside it, so\n\
         short request bursts paint solid strips; the per-disk busy fractions in\n\
         the reports are the quantitative view."
    );
    dpm_obs::flush();
}
