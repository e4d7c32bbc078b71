//! Idle-period analysis: the mechanism behind every result in the paper
//! (§3: "most prior techniques become more effective with long disk idle
//! periods"). Prints per-version idle-period histograms so the shift from
//! sub-second gaps to spin-down-worthy windows is directly visible.
//!
//! The histograms are built from the instrumentation stream, not from
//! simulator internals: per-disk timelines are rebuilt from `disk_state`
//! events ([`dpm_disksim::timelines_from_events`]) and the non-busy gaps
//! between service periods are bucketed into the paper's edges with
//! [`IdleHistogram`]. Gap lengths measured this way include any
//! spin-up/speed-change stall inside the gap, so counts can differ
//! slightly from the simulator's arrival-gap histogram near bucket
//! edges.
//!
//! Traces flow through [`run_app`]: each schedule shape's generation pass
//! feeds every version of that shape, so no trace is ever held.
//!
//! Usage: `idle_histogram [scale] [app]`.

use dpm_apps::Scale;
use dpm_bench::{run_app, ExperimentConfig, Version};
use dpm_disksim::{timelines_from_events, IdleHistogram, Span, SpanState};

/// Records every maximal non-busy interval of a timeline (leading and
/// trailing gaps included, matching the simulator's accounting).
fn record_gaps(spans: &[Span], h: &mut IdleHistogram) {
    let mut gap: Option<(f64, f64)> = None;
    for s in spans {
        if s.state == SpanState::Busy {
            if let Some((a, b)) = gap.take() {
                h.record(b - a);
            }
        } else {
            match &mut gap {
                Some((_, b)) => *b = s.end_ms,
                None => gap = Some((s.start_ms, s.end_ms)),
            }
        }
    }
    if let Some((a, b)) = gap {
        h.record(b - a);
    }
}

fn main() {
    // This binary consumes the event stream itself, so instrumentation is
    // always on here; DPM_OBS additionally tees the events to a file.
    dpm_obs::init_from_env();
    dpm_obs::enable();
    let collector = dpm_obs::install_collector();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Small,
    };
    let apps = match std::env::args().nth(2) {
        Some(name) => vec![dpm_apps::by_name(&name, scale).expect("unknown app")],
        None => dpm_apps::suite(scale),
    };
    let config = ExperimentConfig::default();
    let num_disks = config.striping.num_disks();
    for app in &apps {
        for procs in [1u32, 4] {
            let versions = if procs == 1 {
                vec![Version::Base, Version::TTpmS]
            } else {
                vec![Version::Base, Version::TTpmS, Version::TTpmM]
            };
            let res = run_app(app, &versions, procs, &config);
            let events = collector.snapshot();
            println!(
                "\n{} ({} proc): idle-period histogram per version (ms buckets)",
                app.name, procs
            );
            print!("{:<10}", "version");
            for label in IdleHistogram::LABELS {
                print!(" {label:>9}");
            }
            println!("  {:>11}", "spin-worthy");
            for r in &res.results {
                let mut h = IdleHistogram::default();
                let timelines = timelines_from_events(
                    &events,
                    r.report.obs_run,
                    num_disks,
                    r.report.makespan_ms,
                );
                for tl in &timelines {
                    record_gaps(tl, &mut h);
                }
                print!("{:<10}", r.version.label());
                for c in h.counts() {
                    print!(" {c:>9}");
                }
                println!("  {:>11}", h.spin_down_candidates());
            }
            collector.clear();
        }
    }
    println!(
        "\nreading guide: restructuring (T-…) moves idle mass from the sub-second\n\
         buckets into the ≥15.2 s buckets that TPM/DRPM can exploit."
    );
    dpm_obs::flush();
}
