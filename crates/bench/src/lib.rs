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
pub mod record;
pub mod report;
pub mod tier;

pub use record::{BenchRecord, GateStatus};
pub use report::RunReport;
pub use tier::{
    run_tier_app, run_tier_suite, tier_axis_enabled, tier_sweep_json, TierAppResults, TierScenario,
    TierScenarioResult, TierSweepConfig,
};

use dpm_apps::BenchApp;
use dpm_core::{apply_transform, Assignment, Schedule, Transform};
use dpm_disksim::{DiskParams, DrpmConfig, PowerPolicy, SimReport, Simulator, TpmConfig, Trace};
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

/// The streaming counterpart of [`run_matrix`]: every cell runs through
/// [`run_app_streamed`], so no trace is ever materialized in memory.
/// Results are bit-identical to [`run_matrix`] on the same cells.
pub fn run_matrix_streamed(cells: Vec<MatrixCell>, config: &ExperimentConfig) -> Vec<AppResults> {
    let mut sp = dpm_obs::span!("experiment_matrix_streamed");
    sp.add("cells", cells.len() as u64);
    dpm_exec::par_map_vec(cells, |_, c| {
        run_app_streamed(&c.app, &c.versions, c.procs, config)
    })
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

/// Runs the requested versions of one application, reusing traces across
/// versions that share a schedule shape.
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

    let mut traces: Vec<(ScheduleShape, Trace, TraceStats)> = Vec::new();
    let mut results = Vec::new();
    for &v in versions {
        let shape = v.shape();
        if !traces.iter().any(|(s, _, _)| *s == shape) {
            let schedule = build_schedule(&program, &layout, &deps, shape, procs);
            debug_assert!(schedule.validate_coverage(&program).is_ok());
            // Debug builds prove every schedule legal before simulating
            // it: an illegal schedule would produce a plausible-looking
            // (but meaningless) energy number.
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
            let (trace, stats) = gen.generate(&schedule);
            traces.push((shape, trace, stats));
        }
        let (_, trace, stats) = traces
            .iter()
            .find(|(s, _, _)| *s == shape)
            .expect("every version shape was generated above");
        let sim =
            Simulator::new(config.disk, v.policy(), config.striping).with_faults(config.faults);
        let report = sim.run(trace);
        results.push(VersionResult {
            version: v,
            report,
            trace_stats: *stats,
        });
    }
    AppResults {
        app: app.name,
        procs,
        results,
    }
}

/// A generated trace spilled once through the compact `DPMTRC01` binary
/// codec to a file in the OS temp directory, then replayed any number of
/// times without regenerating it — the spill-once/replay-many backbone of
/// every streamed bin ([`run_app_streamed`] replays one spill per code
/// version; `ablations` replays one per policy/RAID point). The file is
/// removed on drop, so a panicking cell cannot leak spill files.
pub struct SpilledTrace {
    path: std::path::PathBuf,
    stats: TraceStats,
}

impl Drop for SpilledTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl SpilledTrace {
    /// Generates `schedule`'s trace lazily ([`TraceGenerator::stream`])
    /// and spills it through the binary codec, so no full trace is ever
    /// materialized in memory. The schedule can be dropped afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the OS temp directory refuses the spill file.
    pub fn spill(gen: &TraceGenerator<'_>, schedule: &Schedule) -> SpilledTrace {
        let _sp = dpm_obs::span!("trace_spill");
        let path = spill_path();
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create spill file {}: {e}", path.display()));
        let mut writer = dpm_trace::TraceWriter::new(file);
        let mut stream = gen.stream(schedule);
        writer.write_stream(&mut stream).expect("spill trace");
        writer.finish().expect("finish trace spill");
        let stats = stream.stats();
        SpilledTrace { path, stats }
    }

    /// Generation statistics captured while spilling.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Replays the spilled trace through `sim` via
    /// [`Simulator::run_stream`]; bit-identical to simulating the
    /// materialized trace (the codec round-trips every request).
    pub fn replay(&self, sim: &Simulator) -> dpm_disksim::SimReport {
        let file = std::fs::File::open(&self.path)
            .unwrap_or_else(|e| panic!("open spill file {}: {e}", self.path.display()));
        let mut reader = dpm_trace::TraceReader::new(file).expect("read trace spill header");
        sim.run_stream(&mut reader)
    }

    /// The streaming counterpart of [`Trace::merged`]: merges several
    /// spilled traces into one shared-system spill without materializing
    /// any of them. Part `k`'s arrivals are shifted by `k * stagger_ms`,
    /// its offsets relocated past the previous parts' address ranges, and
    /// its processor ids renumbered into a disjoint range — the same
    /// relocation rules as the materialized merge, and the k-way merge
    /// (ties broken by part index) reproduces `from_requests`' stable
    /// sort, so replaying the result is bit-identical to simulating
    /// `Trace::merged` of the materialized parts.
    ///
    /// # Panics
    ///
    /// Panics if a spill file cannot be reopened or the merged spill
    /// cannot be written.
    pub fn merge(parts: &[&SpilledTrace], stagger_ms: f64) -> SpilledTrace {
        use dpm_disksim::RequestStream;
        let _sp = dpm_obs::span!("trace_spill_merge");
        // Pass 1: each part's address-range and processor-id extents, which
        // set the *next* part's relocation bases (exactly `Trace::merged`).
        let mut shifts = Vec::with_capacity(parts.len());
        let mut base_offset = 0u64;
        let mut base_proc = 0u32;
        let mut stats = TraceStats::default();
        for (k, part) in parts.iter().enumerate() {
            let mut reader = part.reader();
            let mut max_end = 0u64;
            let mut max_proc = 0u32;
            while let Some(r) = reader.next_request() {
                max_end = max_end.max(r.offset + r.len);
                max_proc = max_proc.max(r.proc_id);
            }
            shifts.push((base_offset, base_proc, stagger_ms * k as f64));
            base_offset += max_end;
            base_proc += max_proc + 1;
            let s = part.stats();
            stats.element_accesses += s.element_accesses;
            stats.cache_hits += s.cache_hits;
            stats.requests += s.requests;
            stats.bytes += s.bytes;
            stats.compute_ms += s.compute_ms;
            stats.io_block_ms += s.io_block_ms;
        }
        // Pass 2: k-way merge of the shifted streams. Each part is sorted
        // by arrival, so taking the minimum head (lowest part index on
        // ties) emits the stable-sorted concatenation.
        let path = spill_path();
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create spill file {}: {e}", path.display()));
        let mut writer = dpm_trace::TraceWriter::new(file);
        let mut readers: Vec<_> = parts.iter().map(|p| p.reader()).collect();
        let mut heads: Vec<Option<dpm_disksim::IoRequest>> = readers
            .iter_mut()
            .zip(&shifts)
            .map(|(r, &(off, proc, t))| r.next_request().map(|q| shift_request(q, off, proc, t)))
            .collect();
        loop {
            let next = heads
                .iter()
                .enumerate()
                .filter_map(|(k, h)| h.as_ref().map(|r| (k, r.arrival_ms)))
                .min_by(|(ka, ta), (kb, tb)| ta.total_cmp(tb).then(ka.cmp(kb)));
            let Some((k, _)) = next else { break };
            let r = heads[k].take().expect("head present");
            writer.write(&r).expect("write merged spill");
            let (off, proc, t) = shifts[k];
            heads[k] = readers[k]
                .next_request()
                .map(|q| shift_request(q, off, proc, t));
        }
        writer.finish().expect("finish merged spill");
        SpilledTrace { path, stats }
    }

    /// Reopens the spill for another streaming pass.
    fn reader(&self) -> dpm_trace::TraceReader<std::fs::File> {
        let file = std::fs::File::open(&self.path)
            .unwrap_or_else(|e| panic!("open spill file {}: {e}", self.path.display()));
        dpm_trace::TraceReader::new(file).expect("read trace spill header")
    }
}

/// Applies one merge part's relocation: time stagger, address-range
/// relocation, processor renumbering.
fn shift_request(
    mut r: dpm_disksim::IoRequest,
    offset: u64,
    proc: u32,
    stagger_ms: f64,
) -> dpm_disksim::IoRequest {
    r.arrival_ms += stagger_ms;
    r.offset += offset;
    r.proc_id += proc;
    r
}

/// A process-unique spill-file path: temp dir + pid + counter.
fn spill_path() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SPILL_ID: AtomicU64 = AtomicU64::new(0);
    let id = SPILL_ID.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dpm-spill-{}-{id}.trc", std::process::id()))
}

/// Runs the requested versions of one application through the streaming
/// pipeline: each schedule shape's trace is *generated lazily*
/// ([`TraceGenerator::stream`]), spilled once through the binary codec to a
/// temp file, and replayed per version with [`Simulator::run_stream`], so
/// simulation memory is O(disks + request window) regardless of trace
/// length. The schedule itself is transient — it lives only while its
/// stream spills, never across a simulation.
///
/// Reports and trace statistics are bit-identical to [`run_app`] on the
/// same inputs: the same [`build_schedule`] order drives both pipelines,
/// the streamed generator reproduces the batch generator's stable sort
/// exactly, and the codec round-trips every request bit-for-bit (see
/// `tests/stream_equivalence.rs`).
pub fn run_app_streamed(
    app: &BenchApp,
    versions: &[Version],
    procs: u32,
    config: &ExperimentConfig,
) -> AppResults {
    let _sp = dpm_obs::span!("run_app_streamed");
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);

    let mut spills: Vec<(ScheduleShape, SpilledTrace)> = Vec::new();
    let mut results = Vec::new();
    for &v in versions {
        let shape = v.shape();
        if !spills.iter().any(|(s, _)| *s == shape) {
            let schedule = build_schedule(&program, &layout, &deps, shape, procs);
            debug_assert!(schedule.validate_coverage(&program).is_ok());
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
            spills.push((shape, SpilledTrace::spill(&gen, &schedule)));
        }
        let (_, spill) = spills
            .iter()
            .find(|(s, _)| *s == shape)
            .expect("every version shape was spilled above");
        let sim =
            Simulator::new(config.disk, v.policy(), config.striping).with_faults(config.faults);
        results.push(VersionResult {
            version: v,
            report: spill.replay(&sim),
            trace_stats: spill.stats(),
        });
    }
    AppResults {
        app: app.name,
        procs,
        results,
    }
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
