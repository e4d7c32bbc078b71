//! The tiered-storage experiment harness: one application's trace replayed
//! against four placement scenarios on the same heterogeneous hardware
//! budget, so the scenario axis — *who decided where the data lives* — is
//! the only variable.
//!
//! * [`TierScenario::Flat`] — the Table 1 world: every disk the
//!   performance class, round-robin striping, no tiers.
//! * [`TierScenario::CompilerPlaced`] — the compiler-guided plan: arrays
//!   packed onto the fast tier by static heat density (closed-form access
//!   counts from `dpm-analyze`), verified legal before simulation.
//! * [`TierScenario::HeuristicPlaced`] — the heat-blind competitor:
//!   round-robin placement by array index.
//! * [`TierScenario::OnlineMigrated`] — the heuristic start plus the
//!   simulator's windowed hot/cold migration, which must *earn back* its
//!   migration traffic.
//!
//! Every scenario replays the same spilled trace (the spill-once /
//! replay-many streaming backbone), so trace generation cost is paid once
//! and the comparison is exact.

use crate::SpilledTrace;
use dpm_apps::BenchApp;
use dpm_disksim::{DiskClass, MigrationConfig, PowerPolicy, SimReport, Simulator, TpmConfig};
use dpm_ir::Program;
use dpm_layout::{LayoutMap, PlacementPlan, Striping, TieredVolume};
use dpm_trace::{TraceGenOptions, TraceGenerator};

/// The placement scenarios of the tier sweep, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TierScenario {
    /// Homogeneous performance-class array, no tiers (today's baseline).
    Flat,
    /// Static compiler-guided placement (greedy by static heat density).
    CompilerPlaced,
    /// Static heat-blind placement (round-robin by array index).
    HeuristicPlaced,
    /// Heuristic start + online windowed hot/cold migration.
    OnlineMigrated,
}

impl TierScenario {
    /// All four scenarios, in report order.
    pub fn all() -> [TierScenario; 4] {
        [
            TierScenario::Flat,
            TierScenario::CompilerPlaced,
            TierScenario::HeuristicPlaced,
            TierScenario::OnlineMigrated,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TierScenario::Flat => "flat",
            TierScenario::CompilerPlaced => "compiler",
            TierScenario::HeuristicPlaced => "heuristic",
            TierScenario::OnlineMigrated => "migrated",
        }
    }
}

/// Configuration of the tier sweep. The heterogeneous array keeps the
/// flat experiment's disk count (`fast_disks + cold_disks` should equal
/// the flat striping's), swapping `cold_disks` of them for the nearline
/// class; the fast tier's capacity is deliberately starved to
/// `fast_fraction` of each application's data so placement is a real
/// decision, not a formality.
#[derive(Clone, Copy, Debug)]
pub struct TierSweepConfig {
    /// Stripe unit in bytes (shared by the flat baseline and every tier).
    pub stripe_unit: u64,
    /// Disks in the fast (performance-class) tier.
    pub fast_disks: usize,
    /// Disks in the cold (nearline-class) tier.
    pub cold_disks: usize,
    /// Fraction of an app's volume the fast tier can hold (0 < f ≤ 1).
    pub fast_fraction: f64,
    /// Online-migration policy for [`TierScenario::OnlineMigrated`].
    pub migration: MigrationConfig,
}

impl Default for TierSweepConfig {
    fn default() -> Self {
        TierSweepConfig {
            stripe_unit: Striping::paper_default().stripe_unit(),
            fast_disks: 2,
            cold_disks: 6,
            fast_fraction: 0.25,
            migration: MigrationConfig::default(),
        }
    }
}

impl TierSweepConfig {
    /// The flat striping of the sweep: all disks, one class.
    pub fn striping(&self) -> Striping {
        Striping::new(self.stripe_unit, self.fast_disks + self.cold_disks, 0)
    }

    /// The heterogeneous tier configuration sized for a `volume_bytes`
    /// workload: fast-tier capacity is `fast_fraction` of the volume
    /// (rounded up to whole stripe units per disk, at least one), cold
    /// tier at the nearline class's native capacity.
    pub fn tiers_for(&self, volume_bytes: u64) -> dpm_disksim::TierConfig {
        let su = self.stripe_unit;
        let want = (volume_bytes as f64 * self.fast_fraction).ceil() as u64;
        let per_disk = (want / self.fast_disks as u64).div_ceil(su).max(1) * su;
        let fast = DiskClass {
            capacity_bytes: per_disk,
            ..DiskClass::performance()
        };
        dpm_disksim::TierConfig::new(
            su,
            vec![
                dpm_disksim::Tier {
                    class: fast,
                    disks: self.fast_disks,
                },
                dpm_disksim::Tier {
                    class: DiskClass::nearline(),
                    disks: self.cold_disks,
                },
            ],
        )
    }
}

/// One scenario's outcome.
#[derive(Clone, Debug)]
pub struct TierScenarioResult {
    /// Which scenario ran.
    pub scenario: TierScenario,
    /// Simulation report (tiered scenarios carry a tier report).
    pub report: SimReport,
    /// Modeled total energy, shorthand for `report.total_energy_j()`.
    pub energy_j: f64,
}

/// All scenarios of one application.
#[derive(Clone, Debug)]
pub struct TierAppResults {
    /// Application name (Table 2).
    pub app: &'static str,
    /// Per-scenario outcomes, in the order requested.
    pub results: Vec<TierScenarioResult>,
}

impl TierAppResults {
    /// The energy of `scenario`, if it was part of the run.
    pub fn energy(&self, scenario: TierScenario) -> Option<f64> {
        self.results
            .iter()
            .find(|r| r.scenario == scenario)
            .map(|r| r.energy_j)
    }
}

/// Builds the disk-reuse restructured schedule and the placement demands
/// for one app, asserting the plans legal through the analyze gate.
fn placements(
    program: &Program,
    layout: &LayoutMap,
    config: &dpm_disksim::TierConfig,
) -> (PlacementPlan, PlacementPlan) {
    let demands = dpm_analyze::array_demands(program, layout);
    let topo = config.topology();
    let compiler = PlacementPlan::greedy(&topo, &demands)
        .unwrap_or_else(|e| panic!("{}: greedy placement failed: {e}", program.name));
    let heuristic = PlacementPlan::round_robin(&topo, &demands)
        .unwrap_or_else(|e| panic!("{}: round-robin placement failed: {e}", program.name));
    for (label, plan) in [("greedy", &compiler), ("round-robin", &heuristic)] {
        let diags = dpm_analyze::verify_placement(program, layout, &topo, plan);
        assert!(
            diags.is_empty(),
            "{}: {label} plan failed verification: {diags:?}",
            program.name
        );
    }
    (compiler, heuristic)
}

/// Runs the requested scenarios for one application: generates the
/// disk-reuse restructured trace once (streamed and spilled through the
/// binary codec), then replays it under each scenario's simulator. All
/// scenarios run the default TPM policy, so power management is held
/// constant while placement varies.
pub fn run_tier_app(
    app: &BenchApp,
    scenarios: &[TierScenario],
    config: &TierSweepConfig,
) -> TierAppResults {
    let _sp = dpm_obs::span!("run_tier_app");
    let program = app.program();
    let striping = config.striping();
    let layout = LayoutMap::new(&program, striping);
    let deps = dpm_ir::analyze(&program);
    let perf = DiskClass::performance();
    let opts = TraceGenOptions {
        max_request_bytes: striping.stripe_unit(),
        ..TraceGenOptions::default()
    };
    let gen = TraceGenerator::new(&program, &layout, opts).with_disk_params(perf.params);
    let schedule = crate::build_schedule(
        &program,
        &layout,
        &deps,
        crate::ScheduleShape::ClusteredS,
        1,
    );
    let spill = SpilledTrace::spill(&gen, &schedule);

    let tiers = config.tiers_for(layout.volume_bytes());
    let (compiler, heuristic) = placements(&program, &layout, &tiers);
    let policy = PowerPolicy::Tpm(TpmConfig::default());

    let mut results = Vec::with_capacity(scenarios.len());
    for &scenario in scenarios {
        let sim = Simulator::new(perf.params, policy, striping);
        let sim = match scenario {
            TierScenario::Flat => sim,
            TierScenario::CompilerPlaced => {
                let vol = TieredVolume::new(&layout, tiers.topology(), &compiler);
                sim.with_tiers(tiers.clone(), vol)
            }
            TierScenario::HeuristicPlaced => {
                let vol = TieredVolume::new(&layout, tiers.topology(), &heuristic);
                sim.with_tiers(tiers.clone(), vol)
            }
            TierScenario::OnlineMigrated => {
                let vol = TieredVolume::new(&layout, tiers.topology(), &heuristic);
                sim.with_tiers(tiers.clone(), vol)
                    .with_migration(config.migration)
            }
        };
        let report = spill.replay(&sim);
        let energy_j = report.total_energy_j();
        results.push(TierScenarioResult {
            scenario,
            report,
            energy_j,
        });
    }
    TierAppResults {
        app: app.name,
        results,
    }
}

/// Runs the whole suite at `scale` through all four scenarios, cells in
/// parallel on the `DPM_THREADS` pool, results in suite order.
pub fn run_tier_suite(scale: dpm_apps::Scale, config: &TierSweepConfig) -> Vec<TierAppResults> {
    let mut sp = dpm_obs::span!("tier_sweep");
    let apps = dpm_apps::suite(scale);
    sp.add("apps", apps.len() as u64);
    let cfg = *config;
    dpm_exec::par_map_vec(apps, move |_, app| {
        run_tier_app(&app, &TierScenario::all(), &cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_apps::Scale;

    #[test]
    fn tier_sweep_runs_all_scenarios_for_one_app() {
        let app = dpm_apps::by_name("AST", Scale::Tiny).unwrap();
        let config = TierSweepConfig::default();
        let res = run_tier_app(&app, &TierScenario::all(), &config);
        assert_eq!(res.results.len(), 4);
        // Flat carries no tier report; every tiered scenario does.
        for r in &res.results {
            assert!(r.energy_j > 0.0, "{:?}", r.scenario);
            assert_eq!(
                r.report.tiers.is_some(),
                r.scenario != TierScenario::Flat,
                "{:?}",
                r.scenario
            );
            // All scenarios service the same application requests.
            assert_eq!(r.report.app_requests, res.results[0].report.app_requests);
        }
        // The starved fast tier cannot hold the whole volume, so the
        // compiler plan must have used both tiers.
        let compiler = res
            .results
            .iter()
            .find(|r| r.scenario == TierScenario::CompilerPlaced)
            .unwrap();
        let tiers = compiler.report.tiers.as_ref().unwrap();
        assert_eq!(tiers.per_tier.len(), 2);
        assert!(tiers.per_tier.iter().all(|t| t.disks > 0));
    }

    #[test]
    fn fast_tier_capacity_tracks_fraction() {
        let config = TierSweepConfig::default();
        let tiers = config.tiers_for(10 << 20);
        let fast_total = tiers.tiers()[0].class.capacity_bytes * tiers.tiers()[0].disks as u64;
        // 25% of 10 MiB, rounded up to stripe units per disk.
        assert!(fast_total >= (10 << 20) / 4);
        assert!(fast_total < (10 << 20) / 2, "fast tier not starved");
    }
}
