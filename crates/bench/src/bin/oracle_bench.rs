//! Static-energy-oracle report.
//!
//! For every application of the suite and four scheduler outputs —
//! original order, single-CPU disk-reuse clustering, 4-processor
//! baseline parallelization, and 4-processor layout-aware
//! parallelization — plus a synthetic long-burst program whose windows
//! clear break-even, the oracle ([`dpm_analyze::predict_energy`])
//! derives closed-form energy bounds before a single request is
//! simulated, and then one generation pass feeds the
//! no-power-management, reactive-TPM, and directive-driven simulators.
//!
//! Per cell it prints the mean bound tightness (lower/upper), predicted
//! vs simulated spin-downs, the directive policy's energy relative to
//! reactive TPM, and the number of verified power directives; then the
//! means, with the spin-down hit-rate. The oracle's soundness claims are
//! tests: `tests/oracle_golden.rs` requires every simulated energy of the
//! Tiny suite and the burst program to lie inside its bounds, the walked
//! counts to match the closed forms, and every hint table to verify.
//!
//! Usage: `oracle_bench [tiny|small|large|paper]` (default `tiny`).

use disk_reuse::optimizer::insert_power_hints;
use dpm_apps::Scale;
use dpm_bench::{mean, simulate_all};
use dpm_core::Schedule;
use dpm_disksim::{DirectiveConfig, DiskParams, PowerPolicy, RaidConfig, Simulator, TpmConfig};
use dpm_trace::{TraceGenOptions, TraceGenerator};

/// One (app, schedule) cell of the oracle matrix.
struct Cell {
    app: &'static str,
    variant: &'static str,
    tightness: Vec<f64>,
    predicted_spin_downs: u64,
    actual_spin_downs: u64,
    directive_j: f64,
    tpm_j: f64,
    /// Verified directives, or `None` when `insert_power_hints` failed.
    hints: Option<usize>,
}

fn schedules(
    program: &dpm_ir::Program,
    layout: &dpm_layout::LayoutMap,
) -> Vec<(&'static str, Schedule)> {
    let deps = dpm_ir::analyze(program);
    vec![
        ("orig-1p", dpm_core::original_schedule(program)),
        (
            "reuse-1p",
            dpm_core::restructure_single(program, layout, &deps),
        ),
        (
            "base-4p",
            dpm_core::parallelize_baseline(program, layout, &deps, 4, false),
        ),
        (
            "aware-4p",
            dpm_core::parallelize_layout_aware(program, layout, &deps, 4, true),
        ),
    ]
}

fn run_cell(
    app: &'static str,
    variant: &'static str,
    program: &dpm_ir::Program,
    layout: &dpm_layout::LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    params: &DiskParams,
) -> Cell {
    let striping = *layout.striping();
    let raid = RaidConfig::single();
    let gen = TraceGenerator::new(program, layout, *options);
    let policies = [
        PowerPolicy::None,
        PowerPolicy::Tpm(TpmConfig::default()),
        PowerPolicy::Directive(DirectiveConfig::for_params(params)),
    ];
    let sims: Vec<Simulator> = policies
        .iter()
        .map(|&policy| Simulator::new(*params, policy, striping).with_raid(raid))
        .collect();
    let reports = simulate_all(&mut gen.stream(schedule), &sims);

    let mut cell = Cell {
        app,
        variant,
        tightness: Vec::new(),
        predicted_spin_downs: 0,
        actual_spin_downs: 0,
        directive_j: 0.0,
        tpm_j: 0.0,
        hints: insert_power_hints(program, layout, schedule, options, params)
            .ok()
            .map(|table| table.len()),
    };
    for (policy, report) in policies.into_iter().zip(reports) {
        let predicted =
            dpm_analyze::predict_energy(program, layout, schedule, options, params, &policy, &raid);
        cell.tightness.push(predicted.tightness());
        match policy {
            PowerPolicy::Tpm(_) => cell.tpm_j = report.total_energy_j(),
            PowerPolicy::Directive(_) => {
                cell.directive_j = report.total_energy_j();
                cell.predicted_spin_downs = predicted.spin_down_opportunities();
                cell.actual_spin_downs = report.total_spin_downs();
            }
            _ => {}
        }
    }
    cell
}

/// Predicted-vs-actual spin-down agreement in [0, 1]; perfect when both
/// sides agree (including the "no opportunity, no spin-down" case).
fn hit_rate(predicted: u64, actual: u64) -> f64 {
    let (lo, hi) = (predicted.min(actual), predicted.max(actual));
    if hi == 0 {
        1.0
    } else {
        lo as f64 / hi as f64
    }
}

fn main() {
    dpm_obs::init_from_env();
    let scale = dpm_apps::scale_arg(Scale::Tiny);
    let striping = dpm_apps::paper_striping();
    let params = DiskParams::default();
    let options = TraceGenOptions {
        max_request_bytes: striping.stripe_unit(),
        ..TraceGenOptions::default()
    };
    println!(
        "oracle_bench: suite at {scale:?}, {} disks, break-even {:.0} ms",
        striping.num_disks(),
        params.break_even_ms()
    );

    let mut cells: Vec<Cell> = Vec::new();
    for app in dpm_apps::suite(scale) {
        let program = app.program();
        let layout = dpm_layout::LayoutMap::new(&program, striping);
        for (variant, schedule) in schedules(&program, &layout) {
            cells.push(run_cell(
                app.name, variant, &program, &layout, &schedule, &options, &params,
            ));
        }
    }
    // The suite's Tiny compute bursts never clear the ~15 s break-even
    // point, so add one synthetic long-burst program where the oracle
    // proves real windows: hints are inserted, the directive policy
    // actually spins disks down, and the hit-rate means something.
    let burst = dpm_ir::parse_program(
        "program burst;
         array A[2048] : f64;
         nest L1 { for i = 0 .. 511 { A[i] = A[i] + 1 @ 30000000; } }
         nest L2 { for i = 1536 .. 2047 { A[i] = A[i] + 1 @ 30000000; } }",
    )
    .expect("burst fixture parses");
    let burst_layout = dpm_layout::LayoutMap::new(&burst, dpm_layout::Striping::new(4096, 2, 0));
    for (variant, schedule) in schedules(&burst, &burst_layout) {
        cells.push(run_cell(
            "Burst",
            variant,
            &burst,
            &burst_layout,
            &schedule,
            &TraceGenOptions::default(),
            &params,
        ));
    }

    println!(
        "  {:<10} {:<9} {:>10} {:>9} {:>9} {:>12} {:>8}",
        "app", "variant", "tight", "pred sd", "sim sd", "static/tpm", "hints"
    );
    for c in &cells {
        println!(
            "  {:<10} {:<9} {:>10.4} {:>9} {:>9} {:>12.4} {:>8}",
            c.app,
            c.variant,
            mean(&c.tightness),
            c.predicted_spin_downs,
            c.actual_spin_downs,
            c.directive_j / c.tpm_j.max(1e-12),
            c.hints.map_or("rejected".to_string(), |n| n.to_string())
        );
    }
    let tightness: Vec<f64> = cells.iter().map(|c| mean(&c.tightness)).collect();
    let hit_rates: Vec<f64> = cells
        .iter()
        .map(|c| hit_rate(c.predicted_spin_downs, c.actual_spin_downs))
        .collect();
    let ratios: Vec<f64> = cells
        .iter()
        .map(|c| c.directive_j / c.tpm_j.max(1e-12))
        .collect();
    println!(
        "  mean: tightness {:.4}, hit-rate {:.4}, static/dynamic {:.4} over {} cells",
        mean(&tightness),
        mean(&hit_rates),
        mean(&ratios),
        cells.len()
    );
}
