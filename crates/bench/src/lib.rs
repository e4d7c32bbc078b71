//! # dpm-bench — the experiment harness
//!
//! Regenerates every table and figure of the CGO 2006 evaluation (§7):
//!
//! * `--bin table1` — the simulation parameters actually in effect;
//! * `--bin table2` — application characteristics (data size, request
//!   count, base energy, base I/O time);
//! * `--bin figure9` — normalized disk energy for all code versions, single
//!   and 4-processor;
//! * `--bin figure10` — percentage I/O-time degradation for the same runs;
//! * dependency-free microbenches (`cargo bench`) for the compiler
//!   machinery itself, including the instrumentation-overhead check.
//!
//! The library part holds the shared experiment pipeline: application →
//! transform → trace → simulation → normalized metrics. [`RunReport`]
//! exports the same numbers as machine-readable JSON next to the printed
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod microbench;
pub mod report;
pub mod tier;

pub use report::RunReport;
pub use tier::{
    run_tier_app, run_tier_suite, TierAppResults, TierScenario, TierScenarioResult, TierSweepConfig,
};

use dpm_apps::BenchApp;
use dpm_core::{apply_transform, Assignment, Schedule, Transform};
use dpm_disksim::{
    DiskParams, DrpmConfig, PowerPolicy, RequestStream, SimReport, SimRun, Simulator, TpmConfig,
};
use dpm_faults::FaultPlan;
use dpm_ir::Program;
use dpm_layout::{LayoutMap, Striping};
use dpm_trace::{TraceGenOptions, TraceGenerator, TraceStats};

/// The seven code versions of §7.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Version {
    /// No power management, original code.
    Base,
    /// Original code on TPM disks.
    Tpm,
    /// Original code on DRPM disks.
    Drpm,
    /// Disk-reuse restructured code (single-processor scheme) + TPM.
    TTpmS,
    /// Disk-reuse restructured code (single-processor scheme) + DRPM.
    TDrpmS,
    /// Layout-aware parallelized + restructured code + TPM (multi only).
    TTpmM,
    /// Layout-aware parallelized + restructured code + DRPM (multi only).
    TDrpmM,
}

impl Version {
    /// The versions evaluated in the single-processor experiments
    /// (Figures 9(a), 10(a)).
    pub fn single_cpu() -> [Version; 5] {
        [
            Version::Base,
            Version::Tpm,
            Version::Drpm,
            Version::TTpmS,
            Version::TDrpmS,
        ]
    }

    /// The versions evaluated in the 4-processor experiments
    /// (Figures 9(b), 10(b)).
    pub fn multi_cpu() -> [Version; 7] {
        [
            Version::Base,
            Version::Tpm,
            Version::Drpm,
            Version::TTpmS,
            Version::TDrpmS,
            Version::TTpmM,
            Version::TDrpmM,
        ]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Version::Base => "Base",
            Version::Tpm => "TPM",
            Version::Drpm => "DRPM",
            Version::TTpmS => "T-TPM-s",
            Version::TDrpmS => "T-DRPM-s",
            Version::TTpmM => "T-TPM-m",
            Version::TDrpmM => "T-DRPM-m",
        }
    }

    /// The power policy the version runs under. The compiler-transformed
    /// (T-…) versions run the *proactive* policy variants: the compiler
    /// knows the disk access pattern, so it issues spin-up / speed-up calls
    /// ahead of each disk phase (§3's compiler-directed power management).
    pub fn policy(self) -> PowerPolicy {
        match self {
            Version::Base => PowerPolicy::None,
            Version::Tpm => PowerPolicy::Tpm(TpmConfig::default()),
            Version::TTpmS | Version::TTpmM => PowerPolicy::Tpm(TpmConfig::proactive()),
            Version::Drpm => PowerPolicy::Drpm(DrpmConfig::default()),
            Version::TDrpmS | Version::TDrpmM => PowerPolicy::Drpm(DrpmConfig::proactive()),
        }
    }

    /// The code shape (schedule family) the version executes.
    pub fn shape(self) -> ScheduleShape {
        match self {
            Version::Base | Version::Tpm | Version::Drpm => ScheduleShape::Plain,
            Version::TTpmS | Version::TDrpmS => ScheduleShape::ClusteredS,
            Version::TTpmM | Version::TDrpmM => ScheduleShape::ClusteredM,
        }
    }
}

/// The three distinct schedules per (app, processor count): versions
/// sharing a shape share a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScheduleShape {
    /// Untransformed (original order / plain baseline parallelization).
    Plain,
    /// Single-processor-style disk-reuse restructuring (T-…-s).
    ClusteredS,
    /// Layout-aware parallelization + restructuring (T-…-m).
    ClusteredM,
}

/// Experiment configuration shared by all runs.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Striping (Table 1 defaults).
    pub striping: Striping,
    /// Disk model (Table 1 defaults).
    pub disk: DiskParams,
    /// Trace-generation options.
    pub trace: TraceGenOptions,
    /// Fault plan every simulation runs under (zero = fault-free; the
    /// chaos benchmark sweeps this).
    pub faults: FaultPlan,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let striping = Striping::paper_default();
        ExperimentConfig {
            striping,
            disk: DiskParams::ultrastar_36z15(),
            trace: TraceGenOptions {
                // The paper's applications issue synchronous stripe-sized
                // requests; capping coalescing at the stripe unit keeps one
                // request on one I/O node, which is the regime in which
                // clustering costs no device parallelism (§5).
                max_request_bytes: striping.stripe_unit(),
                ..TraceGenOptions::default()
            },
            faults: FaultPlan::zero(),
        }
    }
}

/// The outcome of simulating one version of one application.
#[derive(Clone, Debug)]
pub struct VersionResult {
    /// Which version ran.
    pub version: Version,
    /// Simulation report.
    pub report: SimReport,
    /// Trace-generation statistics.
    pub trace_stats: TraceStats,
}

/// All versions of one application at one processor count, sharing traces
/// between versions with the same schedule shape.
#[derive(Clone, Debug)]
pub struct AppResults {
    /// Application name (Table 2).
    pub app: &'static str,
    /// Processor count used.
    pub procs: u32,
    /// Per-version outcomes, in the order requested.
    pub results: Vec<VersionResult>,
}

impl AppResults {
    /// The Base result (always present).
    ///
    /// # Panics
    ///
    /// Panics if the run did not include [`Version::Base`].
    pub fn base(&self) -> &VersionResult {
        self.results
            .iter()
            .find(|r| r.version == Version::Base)
            .expect("Base version missing")
    }

    /// Normalized energy of `v` (1.0 = Base).
    pub fn normalized_energy(&self, v: Version) -> Option<f64> {
        let base = self.base();
        self.results
            .iter()
            .find(|r| r.version == v)
            .map(|r| r.report.normalized_energy(&base.report))
    }

    /// Fractional I/O-time degradation of `v` vs Base.
    pub fn degradation(&self, v: Version) -> Option<f64> {
        let base = self.base();
        self.results
            .iter()
            .find(|r| r.version == v)
            .map(|r| r.report.degradation_vs(&base.report))
    }

    /// [`normalized_energy`](Self::normalized_energy) with a named
    /// diagnostic: a missing version yields an error identifying the app,
    /// processor count, and version instead of a bare `None` that binaries
    /// would `unwrap` into an unhelpful panic mid-sweep.
    pub fn try_normalized_energy(&self, v: Version) -> Result<f64, String> {
        self.normalized_energy(v).ok_or_else(|| {
            format!(
                "app {:?} ({} proc(s)): no result for version {}; it was not part of this run",
                self.app,
                self.procs,
                v.label()
            )
        })
    }

    /// [`degradation`](Self::degradation) with a named diagnostic (see
    /// [`try_normalized_energy`](Self::try_normalized_energy)).
    pub fn try_degradation(&self, v: Version) -> Result<f64, String> {
        self.degradation(v).ok_or_else(|| {
            format!(
                "app {:?} ({} proc(s)): no result for version {}; it was not part of this run",
                self.app,
                self.procs,
                v.label()
            )
        })
    }
}

/// One cell of the experiment matrix: one application at one processor
/// count, run through a set of code versions.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// The application to run.
    pub app: BenchApp,
    /// The code versions to evaluate.
    pub versions: Vec<Version>,
    /// Processor count.
    pub procs: u32,
}

/// Runs the experiment-matrix cells concurrently on the `DPM_THREADS` pool
/// (each cell's compile → trace → simulate pipeline is independent) and
/// returns results in input order, so reports and CSV rows merge exactly as
/// a serial sweep would produce them.
pub fn run_matrix(cells: Vec<MatrixCell>, config: &ExperimentConfig) -> Vec<AppResults> {
    let mut sp = dpm_obs::span!("experiment_matrix");
    sp.add("cells", cells.len() as u64);
    dpm_exec::par_map_vec(cells, |_, c| run_app(&c.app, &c.versions, c.procs, config))
}

/// [`run_matrix`], under the name the end-to-end benchmark's reference
/// path calls; no trace is materialized on either.
pub fn run_matrix_streamed(cells: Vec<MatrixCell>, config: &ExperimentConfig) -> Vec<AppResults> {
    run_matrix(cells, config)
}

/// Builds the schedule for a shape at a processor count.
pub fn build_schedule(
    program: &Program,
    layout: &LayoutMap,
    deps: &dpm_ir::DependenceInfo,
    shape: ScheduleShape,
    procs: u32,
) -> Schedule {
    let _sp = dpm_obs::span!("build_schedule");
    let transform = match (shape, procs) {
        (ScheduleShape::Plain, 1) => Transform::Original,
        (ScheduleShape::ClusteredS, 1) | (ScheduleShape::ClusteredM, 1) => Transform::DiskReuse,
        (ScheduleShape::Plain, p) => Transform::Parallel {
            procs: p,
            scheme: Assignment::Baseline,
            cluster: false,
        },
        (ScheduleShape::ClusteredS, p) => Transform::Parallel {
            procs: p,
            scheme: Assignment::Baseline,
            cluster: true,
        },
        (ScheduleShape::ClusteredM, p) => Transform::Parallel {
            procs: p,
            scheme: Assignment::LayoutAware,
            cluster: true,
        },
    };
    apply_transform(program, layout, deps, transform)
}

/// Requests [`simulate_all`] pulls from its source per block. A block
/// lets the generator's code and the simulator's each stay hot for a
/// while and makes the per-block spans negligible, while staying a few
/// tens of kilobytes (1024 × 40 B), independent of trace length.
const DRIVE_BLOCK: usize = 1024;

/// Feeds one pass over `stream` to every simulator in `sims` and returns
/// their reports in the same order: the one driver between trace
/// generation and simulation. Each request is pulled once and fed to
/// every run ([`Simulator::start`]), so no trace is held and nothing is
/// spilled; every report is bit-identical to `sims[i].run_stream` over
/// the same requests.
///
/// Requests are pulled in fixed-size blocks (`DRIVE_BLOCK`) under a
/// `trace_generate` span, and each block is fed under a `simulate` span
/// (counter `requests`), so a profile shows generation and simulation
/// as sibling frames.
///
/// # Panics
///
/// Panics if the stream's arrivals are not non-decreasing.
pub fn simulate_all(stream: &mut dyn RequestStream, sims: &[Simulator]) -> Vec<SimReport> {
    let mut runs: Vec<SimRun<'_>> = {
        let _sp = dpm_obs::span!("simulate");
        sims.iter().map(Simulator::start).collect()
    };
    let mut block = Vec::with_capacity(DRIVE_BLOCK);
    loop {
        {
            let _sp = dpm_obs::span!("trace_generate");
            block.clear();
            while block.len() < DRIVE_BLOCK {
                match stream.next_request() {
                    Some(r) => block.push(r),
                    None => break,
                }
            }
        }
        let mut sp = dpm_obs::span!("simulate");
        sp.add("requests", block.len() as u64);
        for run in &mut runs {
            run.feed(&block);
        }
        if block.len() < DRIVE_BLOCK {
            return runs.into_iter().map(SimRun::finish).collect();
        }
    }
}

/// Runs the requested versions of one application. Each distinct schedule
/// shape, in first-use order, gets its schedule built and one generation
/// pass ([`TraceGenerator::stream`]) that [`simulate_all`] feeds to every
/// version of that shape; results come back in the requested order. The
/// schedule lives only for its pass, and no trace is ever held.
pub fn run_app(
    app: &BenchApp,
    versions: &[Version],
    procs: u32,
    config: &ExperimentConfig,
) -> AppResults {
    let _sp = dpm_obs::span!("run_app");
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);

    let mut results: Vec<Option<VersionResult>> = vec![None; versions.len()];
    for first in 0..versions.len() {
        if results[first].is_some() {
            continue;
        }
        let shape = versions[first].shape();
        let schedule = build_schedule(&program, &layout, &deps, shape, procs);
        debug_assert!(schedule.validate_coverage(&program).is_ok());
        // Debug builds prove every schedule legal before simulating it:
        // an illegal schedule would produce a plausible-looking (but
        // meaningless) energy number.
        #[cfg(debug_assertions)]
        {
            let diags = dpm_analyze::verify_schedule(&program, &deps, &schedule);
            debug_assert_eq!(
                dpm_analyze::error_count(&diags),
                0,
                "illegal {shape:?} schedule for {}: {diags:?}",
                app.name
            );
        }
        let members: Vec<usize> = (first..versions.len())
            .filter(|&i| versions[i].shape() == shape)
            .collect();
        let sims: Vec<Simulator> = members
            .iter()
            .map(|&i| {
                Simulator::new(config.disk, versions[i].policy(), config.striping)
                    .with_faults(config.faults)
            })
            .collect();
        let mut stream = gen.stream(&schedule);
        let reports = simulate_all(&mut stream, &sims);
        let trace_stats = stream.stats();
        for (i, report) in members.into_iter().zip(reports) {
            results[i] = Some(VersionResult {
                version: versions[i],
                report,
                trace_stats,
            });
        }
    }
    AppResults {
        app: app.name,
        procs,
        results: results
            .into_iter()
            .map(|r| r.expect("every version's shape was simulated"))
            .collect(),
    }
}

/// [`run_app`], under the name the end-to-end benchmark's reference path
/// calls.
pub fn run_app_streamed(
    app: &BenchApp,
    versions: &[Version],
    procs: u32,
    config: &ExperimentConfig,
) -> AppResults {
    run_app(app, versions, procs, config)
}

/// Formats a fraction as a signed percentage.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Geometric-mean-free average used by the paper ("on average"):
/// arithmetic mean of the per-application values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_apps::Scale;

    #[test]
    fn version_tables() {
        assert_eq!(Version::single_cpu().len(), 5);
        assert_eq!(Version::multi_cpu().len(), 7);
        assert_eq!(Version::TDrpmM.label(), "T-DRPM-m");
        assert!(matches!(Version::TTpmS.policy(), PowerPolicy::Tpm(_)));
        assert_eq!(Version::Drpm.shape(), ScheduleShape::Plain);
    }

    #[test]
    fn run_app_shares_traces_and_normalizes() {
        let app = dpm_apps::by_name("AST", Scale::Tiny).unwrap();
        let res = run_app(
            &app,
            &[Version::Base, Version::Tpm, Version::TTpmS],
            1,
            &ExperimentConfig::default(),
        );
        assert_eq!(res.results.len(), 3);
        assert!((res.normalized_energy(Version::Base).unwrap() - 1.0).abs() < 1e-12);
        assert!(res.normalized_energy(Version::TTpmS).unwrap() > 0.0);
        assert!(res.degradation(Version::Base).unwrap().abs() < 1e-12);
    }

    #[test]
    fn mean_and_pct() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(pct(0.1234), "+12.34%");
    }
}
