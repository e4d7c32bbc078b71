//! Tiered-placement report: the whole suite through the four placement
//! scenarios of [`dpm_bench::tier`] — flat homogeneous baseline,
//! compiler-guided placement, heat-blind heuristic placement, and online
//! hot/cold migration — on the same hardware budget, all four fed by one
//! generation pass per app.
//!
//! Prints two tables: each scenario's absolute energy and migration
//! count per app, then energy normalized to the flat array with the
//! average saving. The placement claims are tests:
//! `tests/tier_determinism.rs` requires the compiler placement to beat
//! the flat array and never lose to the heuristic, per app.
//!
//! Usage: `tier_bench [tiny|small|large|paper]` (default `tiny`).

use dpm_apps::Scale;
use dpm_bench::{mean, pct, run_tier_suite, TierScenario, TierSweepConfig};

fn main() {
    dpm_obs::init_from_env();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        _ => Scale::Tiny,
    };
    let config = TierSweepConfig::default();
    println!(
        "tier_bench: suite at {scale:?}, {} fast + {} cold disks, fast tier holds {:.0}% of \
         each app, {} thread(s)",
        config.fast_disks,
        config.cold_disks,
        config.fast_fraction * 100.0,
        dpm_exec::num_threads()
    );
    let sweep = run_tier_suite(scale, &config);
    let scenarios = TierScenario::all();
    let energy = |app: &dpm_bench::TierAppResults, s: TierScenario| {
        app.energy(s).expect("run_tier_suite runs every scenario")
    };

    println!("\nenergy (J)");
    print!("{:<12}", "App");
    for s in scenarios {
        print!(" {:>14}", s.label());
    }
    println!(" {:>6}", "moves");
    for app in &sweep {
        print!("{:<12}", app.app);
        for s in scenarios {
            print!(" {:>14.1}", energy(app, s));
        }
        let moves = app
            .results
            .iter()
            .find(|r| r.scenario == TierScenario::OnlineMigrated)
            .and_then(|r| r.report.tiers.as_ref())
            .map_or(0, |t| t.events.len());
        println!(" {moves:>6}");
    }
    print!("{:<12}", "mean");
    for s in scenarios {
        let m = mean(&sweep.iter().map(|a| energy(a, s)).collect::<Vec<_>>());
        print!(" {m:>14.1}");
    }
    println!();

    println!("\nenergy normalized to the flat array");
    print!("{:<12}", "App");
    for s in scenarios {
        print!(" {:>9}", s.label());
    }
    println!();
    for app in &sweep {
        let flat = energy(app, TierScenario::Flat);
        print!("{:<12}", app.app);
        for s in scenarios {
            print!(" {:>9.3}", energy(app, s) / flat);
        }
        println!();
    }
    print!("{:<12}", "avg saving");
    for s in scenarios {
        let savings: Vec<f64> = sweep
            .iter()
            .map(|a| 1.0 - energy(a, s) / energy(a, TierScenario::Flat))
            .collect();
        print!(" {:>9}", pct(mean(&savings)));
    }
    println!();
}
