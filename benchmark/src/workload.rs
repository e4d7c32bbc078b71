//! The four workloads, the pipeline each cell runs (composed here from the
//! layers' public entry points, one span per call), the digests that pin
//! every output, and the checks a cell must pass.

use crate::span::{nanos_since, Span, Tracer, CELL};
use disk_reuse::optimizer::insert_power_hints;
use dpm_apps::{BenchApp, Scale};
use dpm_bench::{ExperimentConfig, ScheduleShape, Version};
use dpm_core::{apply_transform, Assignment, Schedule, Transform};
use dpm_disksim::{
    invariants, FaultPlan, RaidConfig, RequestStream, SimReport, Simulator, TraceAccounting,
    TraceStream,
};
use dpm_layout::{LayoutMap, Striping};
use dpm_trace::{TraceGenerator, TraceReader, TraceWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of every `chaos-large` fault plan. It is fixed, not taken from
/// `--seed`: fault plans from different seeds differ in how much retry
/// work they cause (wall time varied by 12% across ten seeds), which
/// would make `wall_s` depend on the seed.
pub const FAULT_SEED: u64 = 1;

/// Fault rates `chaos-large` replays each trace under, for TPM and DRPM.
pub const CHAOS_RATES: [f64; 3] = [0.01, 0.05, 0.20];

/// The schedule shapes of one `analyze-d4` app: the five distinct
/// transforms of the paper's versions.
pub const ANALYZE_SHAPES: [(ScheduleShape, u32); 5] = [
    (ScheduleShape::Plain, 1),
    (ScheduleShape::ClusteredS, 1),
    (ScheduleShape::Plain, 4),
    (ScheduleShape::ClusteredS, 4),
    (ScheduleShape::ClusteredM, 4),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figures 9 and 10 at `Scale::Large`, traces materialized.
    Figure9Large,
    /// Plain code at `Scale::Paper`: streamed generation, codec spill, replays.
    StreamPaper,
    /// Plain code at `Scale::Large`, replayed under seeded fault plans.
    ChaosLarge,
    /// Compile-time analysis only at `Scale::Custom(4)`.
    AnalyzeD4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Figure9Large,
        Workload::StreamPaper,
        Workload::ChaosLarge,
        Workload::AnalyzeD4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure9Large => "figure9-large",
            Workload::StreamPaper => "stream-paper",
            Workload::ChaosLarge => "chaos-large",
            Workload::AnalyzeD4 => "analyze-d4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::Figure9Large | Workload::ChaosLarge => Scale::Large,
            Workload::StreamPaper => Scale::Paper,
            Workload::AnalyzeD4 => Scale::Custom(4),
        }
    }

    /// One pass's cells in canonical order (the order digests are kept in).
    pub fn cells(self, scale: Scale) -> Vec<Cell> {
        let suite = dpm_apps::suite(scale);
        match self {
            Workload::Figure9Large => [
                (1, Version::single_cpu().to_vec()),
                (4, Version::multi_cpu().to_vec()),
            ]
            .into_iter()
            .flat_map(|(procs, versions)| {
                suite.iter().map(move |app| Cell {
                    label: format!("{}/{procs}p", app.name),
                    app: app.clone(),
                    job: Job::Materialized {
                        procs,
                        versions: versions.clone(),
                    },
                })
            })
            .collect(),
            Workload::StreamPaper => suite
                .into_iter()
                .map(|app| Cell {
                    label: format!("{}/1p", app.name),
                    app,
                    job: Job::Spilled {
                        replays: [Version::Base, Version::Tpm, Version::Drpm]
                            .into_iter()
                            .map(|v| Replay {
                                label: v.label().into(),
                                version: v,
                                faults: FaultPlan::zero(),
                            })
                            .collect(),
                    },
                })
                .collect(),
            Workload::ChaosLarge => suite
                .into_iter()
                .map(|app| Cell {
                    label: format!("{}/1p", app.name),
                    app,
                    job: Job::Spilled {
                        replays: chaos_replays(),
                    },
                })
                .collect(),
            Workload::AnalyzeD4 => suite
                .iter()
                .flat_map(|app| {
                    ANALYZE_SHAPES.into_iter().map(|(shape, procs)| Cell {
                        label: format!("{}/{}", app.name, shape_label(shape, procs)),
                        app: app.clone(),
                        job: Job::Analyze { shape, procs },
                    })
                })
                .collect(),
        }
    }
}

fn chaos_replays() -> Vec<Replay> {
    CHAOS_RATES
        .into_iter()
        .flat_map(|rate| {
            [Version::Tpm, Version::Drpm].map(|v| Replay {
                label: format!("{}@{rate}", v.label()),
                version: v,
                faults: FaultPlan::chaos(FAULT_SEED, rate),
            })
        })
        .collect()
}

pub fn shape_label(shape: ScheduleShape, procs: u32) -> String {
    let name = match shape {
        ScheduleShape::Plain => "plain",
        ScheduleShape::ClusteredS => "clustered-s",
        ScheduleShape::ClusteredM => "clustered-m",
    };
    format!("{name}-{procs}p")
}

/// One unit of work: one app through one job. Cells are independent, so a
/// pass maps them over the execution pool.
#[derive(Clone, Debug)]
pub struct Cell {
    pub label: String,
    pub app: BenchApp,
    pub job: Job,
}

#[derive(Clone, Debug)]
pub enum Job {
    /// Generate each shape's trace in memory and simulate every version.
    Materialized { procs: u32, versions: Vec<Version> },
    /// Stream the plain single-processor trace into a codec spill once,
    /// then replay it for every entry.
    Spilled { replays: Vec<Replay> },
    /// Build one schedule, verify it, bound its energy, insert hints.
    Analyze { shape: ScheduleShape, procs: u32 },
}

#[derive(Clone, Debug)]
pub struct Replay {
    pub label: String,
    pub version: Version,
    pub faults: FaultPlan,
}

/// What a cell run needs besides the cell.
pub struct Ctx {
    pub config: ExperimentConfig,
    pub spill_dir: PathBuf,
    pub epoch: Instant,
    /// Record spans around each layer call.
    pub traced: bool,
    /// Also gather what the invariant checks need (per-trace request
    /// accounting), and time one decode-only read of each spill.
    pub checked: bool,
}

/// One simulation's report, with the trace it consumed.
#[derive(Clone, Debug)]
pub struct Sim {
    pub label: String,
    pub version: Version,
    pub report: SimReport,
    pub trace: usize,
}

/// One `analyze-d4` cell's compile-time results.
#[derive(Clone, Debug)]
pub struct Analysis {
    pub errors: usize,
    pub counts_verified: bool,
    pub energy_lower_j: f64,
    pub energy_upper_j: f64,
    pub makespan_lower_ms: f64,
    pub makespan_upper_ms: f64,
    pub idle_windows: u64,
    /// Directives in the accepted table, or the verifier's complaint.
    pub hints: Result<usize, String>,
}

/// Work counted inside a cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub iters: u64,
    pub requests: u64,
    pub codec_bytes: u64,
    /// Decode-only time of every spill, times the replays that decode it.
    pub decode_ns: u64,
}

#[derive(Clone, Debug)]
pub struct CellOutput {
    pub index: usize,
    pub sims: Vec<Sim>,
    pub analysis: Option<Analysis>,
    /// Per trace, what the striping says its requests split into (checked
    /// runs only).
    pub accounting: Vec<TraceAccounting>,
    pub counts: Counts,
    pub spans: Vec<Span>,
    /// The most heap the cell held at once (set by the pass that ran it).
    pub heap_bytes: u64,
}

impl CellOutput {
    /// The bit patterns that pin this cell's outputs, one line per
    /// simulation (or one for the analysis).
    pub fn digest(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .sims
            .iter()
            .map(|s| sim_digest(&s.label, &s.report))
            .collect();
        lines.extend(self.analysis.iter().map(analysis_digest));
        lines
    }
}

pub fn sim_digest(label: &str, r: &SimReport) -> String {
    format!(
        "{label} req={} makespan={:016x} io={:016x} resp={:016x} energy={:016x}",
        r.app_requests,
        r.makespan_ms.to_bits(),
        r.total_io_time_ms.to_bits(),
        r.total_response_ms.to_bits(),
        r.total_energy_j().to_bits(),
    )
}

pub fn analysis_digest(a: &Analysis) -> String {
    let hints = match &a.hints {
        Ok(n) => n.to_string(),
        Err(_) => "rejected".into(),
    };
    format!(
        "errors={} counts_verified={} energy=[{:016x},{:016x}] makespan=[{:016x},{:016x}] \
         windows={} hints={hints}",
        a.errors,
        a.counts_verified,
        a.energy_lower_j.to_bits(),
        a.energy_upper_j.to_bits(),
        a.makespan_lower_ms.to_bits(),
        a.makespan_upper_ms.to_bits(),
        a.idle_windows,
    )
}

/// The transform behind a schedule shape at a processor count (the
/// harness's `build_schedule` mapping).
pub fn transform(shape: ScheduleShape, procs: u32) -> Transform {
    match (shape, procs) {
        (ScheduleShape::Plain, 1) => Transform::Original,
        (_, 1) => Transform::DiskReuse,
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
    }
}

struct Compiled {
    program: dpm_ir::Program,
    layout: LayoutMap,
    deps: dpm_ir::DependenceInfo,
}

impl Compiled {
    fn new(app: &BenchApp, striping: Striping, tr: &mut Tracer) -> Compiled {
        let program = tr.span("ir.parse", || app.program());
        let layout = tr.span("layout.map", || LayoutMap::new(&program, striping));
        let deps = tr.span("ir.deps", || dpm_ir::analyze(&program));
        Compiled {
            program,
            layout,
            deps,
        }
    }

    fn schedule(
        &self,
        shape: ScheduleShape,
        procs: u32,
        tr: &mut Tracer,
        c: &mut Counts,
    ) -> Schedule {
        let t = transform(shape, procs);
        let name = match t {
            Transform::Original => "core.original",
            Transform::DiskReuse => "core.reuse",
            Transform::Parallel { .. } => "core.parallel",
        };
        let s = tr.span(name, || {
            apply_transform(&self.program, &self.layout, &self.deps, t)
        });
        c.iters += s.total_iterations();
        s
    }
}

/// Runs one cell through its pipeline.
///
/// # Panics
///
/// Panics if a spill file cannot be written or read back.
pub fn run_cell(cell: &Cell, index: usize, ctx: &Ctx) -> CellOutput {
    let cfg = &ctx.config;
    let mut tr = Tracer::new(ctx.epoch, index, ctx.traced);
    tr.begin(CELL);
    let mut out = CellOutput {
        index,
        sims: Vec::new(),
        analysis: None,
        accounting: Vec::new(),
        counts: Counts::default(),
        spans: Vec::new(),
        heap_bytes: 0,
    };
    let c = Compiled::new(&cell.app, cfg.striping, &mut tr);
    match &cell.job {
        Job::Materialized { procs, versions } => {
            let gen =
                TraceGenerator::new(&c.program, &c.layout, cfg.trace).with_disk_params(cfg.disk);
            let mut traces: Vec<(ScheduleShape, dpm_disksim::Trace)> = Vec::new();
            for &v in versions {
                let shape = v.shape();
                let t = match traces.iter().position(|(s, _)| *s == shape) {
                    Some(t) => t,
                    None => {
                        let schedule = c.schedule(shape, *procs, &mut tr, &mut out.counts);
                        let (trace, stats) = tr.span("trace.gen", || gen.generate(&schedule));
                        out.counts.requests += stats.requests;
                        if ctx.checked {
                            let mut stream = TraceStream::new(&trace);
                            out.accounting.push(account(&mut stream, &cfg.striping));
                        }
                        traces.push((shape, trace));
                        traces.len() - 1
                    }
                };
                let sim =
                    Simulator::new(cfg.disk, v.policy(), cfg.striping).with_faults(cfg.faults);
                let report = tr.span("disksim.sim", || sim.run(&traces[t].1));
                out.sims.push(Sim {
                    label: v.label().into(),
                    version: v,
                    report,
                    trace: t,
                });
            }
        }
        Job::Spilled { replays } => {
            let path = ctx.spill_dir.join(format!("cell-{index}.trc"));
            let gen =
                TraceGenerator::new(&c.program, &c.layout, cfg.trace).with_disk_params(cfg.disk);
            let schedule = c.schedule(ScheduleShape::Plain, 1, &mut tr, &mut out.counts);
            let (stats, bytes) = tr.span("trace.spill", || spill(&gen, &schedule, &path));
            drop(schedule);
            out.counts.requests += stats.requests;
            out.counts.codec_bytes += bytes;
            for r in replays {
                let sim = Simulator::new(cfg.disk, r.version.policy(), cfg.striping)
                    .with_faults(r.faults);
                let report = tr.span("disksim.replay", || sim.run_stream(&mut open_spill(&path)));
                out.sims.push(Sim {
                    label: r.label.clone(),
                    version: r.version,
                    report,
                    trace: 0,
                });
            }
            if ctx.checked {
                let t = Instant::now();
                let mut reader = open_spill(&path);
                while reader.next_request().is_some() {}
                out.counts.decode_ns += nanos_since(t) * replays.len() as u64;
                out.accounting
                    .push(account(&mut open_spill(&path), &cfg.striping));
            }
            let _ = std::fs::remove_file(&path);
        }
        Job::Analyze { shape, procs } => {
            let schedule = c.schedule(*shape, *procs, &mut tr, &mut out.counts);
            let diags = tr.span("analyze.verify", || {
                dpm_analyze::verify_schedule(&c.program, &c.deps, &schedule)
            });
            let policy = Version::Tpm.policy();
            let predicted = tr.span("analyze.predict", || {
                dpm_analyze::predict_energy(
                    &c.program,
                    &c.layout,
                    &schedule,
                    &cfg.trace,
                    &cfg.disk,
                    &policy,
                    &RaidConfig::single(),
                )
            });
            let hints = tr.span("optimizer.hints", || {
                insert_power_hints(&c.program, &c.layout, &schedule, &cfg.trace, &cfg.disk)
            });
            out.analysis = Some(analysis(&diags, &predicted, hints));
        }
    }
    drop(c);
    tr.end();
    out.spans = tr.into_spans();
    out
}

pub fn analysis(
    diags: &[dpm_analyze::Diagnostic],
    predicted: &dpm_analyze::PredictedReport,
    hints: Result<dpm_core::DirectiveTable, Vec<dpm_analyze::Diagnostic>>,
) -> Analysis {
    Analysis {
        errors: dpm_analyze::error_count(diags),
        counts_verified: predicted.counts_verified,
        energy_lower_j: predicted.energy_lower_j,
        energy_upper_j: predicted.energy_upper_j,
        makespan_lower_ms: predicted.makespan_lower_ms,
        makespan_upper_ms: predicted.makespan_upper_ms,
        idle_windows: predicted.windows.len() as u64,
        hints: hints.map(|t| t.len()).map_err(|d| {
            d.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        }),
    }
}

/// Streams `schedule`'s trace through the codec into `path`; returns the
/// generation statistics and the encoded size.
fn spill(
    gen: &TraceGenerator<'_>,
    schedule: &Schedule,
    path: &Path,
) -> (dpm_trace::TraceStats, u64) {
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("create spill file {}: {e}", path.display()));
    let mut writer = TraceWriter::new(file);
    let mut stream = gen.stream(schedule);
    writer.write_stream(&mut stream).expect("write spill");
    let bytes = writer.bytes_written();
    writer.finish().expect("finish spill");
    (stream.stats(), bytes)
}

fn open_spill(path: &Path) -> TraceReader<std::fs::File> {
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| panic!("open spill file {}: {e}", path.display()));
    TraceReader::new(file).expect("read spill header")
}

/// What the striping says a request stream splits into, per disk.
fn account(stream: &mut dyn RequestStream, striping: &Striping) -> TraceAccounting {
    let mut acc = TraceAccounting::new(striping.num_disks());
    let mut pieces = Vec::new();
    while let Some(r) = stream.next_request() {
        striping.split_range_into(r.offset, r.len, &mut pieces);
        acc.push(&r, &pieces);
    }
    acc
}

/// Simulator invariant violations of every report in `out`, plus request
/// conservation against the striping when the cell gathered accounting.
pub fn violations(out: &CellOutput, config: &ExperimentConfig) -> Vec<String> {
    let mut all = Vec::new();
    for s in &out.sims {
        let mut v = invariants::check_report(&s.report, &config.disk, &RaidConfig::single());
        if let Some(acc) = out.accounting.get(s.trace) {
            v.extend(invariants::check_accounting(&s.report, acc));
        }
        all.extend(v.iter().map(|v| format!("{}: {v}", s.label)));
    }
    all
}

/// Every way `out` falls short: digest lines that differ from `expected`,
/// simulator invariant violations, request-conservation violations (when
/// the cell gathered accounting), and analysis errors.
pub fn check_cell(
    label: &str,
    out: &CellOutput,
    expected: &[String],
    config: &ExperimentConfig,
) -> Vec<String> {
    let mut failures = Vec::new();
    let got = out.digest();
    if got.len() != expected.len() {
        failures.push(format!(
            "{label}: {} digest lines, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for (g, e) in got.iter().zip(expected) {
        if g != e {
            failures.push(format!("{label}: digest {g:?}, expected {e:?}"));
        }
    }
    failures.extend(
        violations(out, config)
            .iter()
            .map(|v| format!("{label} {v}")),
    );
    if let Some(a) = &out.analysis {
        if a.errors > 0 {
            failures.push(format!(
                "{label}: schedule has {} verifier errors",
                a.errors
            ));
        }
        if !a.counts_verified {
            failures.push(format!(
                "{label}: oracle walk disagrees with closed-form counts"
            ));
        }
        if let Err(e) = &a.hints {
            failures.push(format!("{label}: hint table rejected: {e}"));
        }
    }
    failures
}

/// The same cells run through the harness's own entry points
/// (`run_matrix`, `run_matrix_streamed`, `run_app_streamed` with a fault
/// plan, `build_schedule`), as digest lines per cell in canonical order.
/// This is how `expected.json` is made, and what the composed pipeline is
/// tested against.
pub fn reference(workload: Workload, scale: Scale) -> Vec<(String, Vec<String>)> {
    let cells = workload.cells(scale);
    let config = ExperimentConfig::default();
    let sims = |all: Vec<dpm_bench::AppResults>| -> Vec<Vec<String>> {
        all.iter()
            .map(|a| {
                a.results
                    .iter()
                    .map(|r| sim_digest(r.version.label(), &r.report))
                    .collect()
            })
            .collect()
    };
    let lines: Vec<Vec<String>> = match workload {
        Workload::Figure9Large => {
            let matrix = cells
                .iter()
                .map(|c| match &c.job {
                    Job::Materialized { procs, versions } => dpm_bench::MatrixCell {
                        app: c.app.clone(),
                        versions: versions.clone(),
                        procs: *procs,
                    },
                    _ => unreachable!("figure9 cells are materialized"),
                })
                .collect();
            sims(dpm_bench::run_matrix(matrix, &config))
        }
        Workload::StreamPaper => {
            let matrix = cells
                .iter()
                .map(|c| dpm_bench::MatrixCell {
                    app: c.app.clone(),
                    versions: vec![Version::Base, Version::Tpm, Version::Drpm],
                    procs: 1,
                })
                .collect();
            sims(dpm_bench::run_matrix_streamed(matrix, &config))
        }
        Workload::ChaosLarge => dpm_exec::par_map_indexed(&cells, |_, c| {
            CHAOS_RATES
                .into_iter()
                .flat_map(|rate| {
                    let config = ExperimentConfig {
                        faults: FaultPlan::chaos(FAULT_SEED, rate),
                        ..ExperimentConfig::default()
                    };
                    dpm_bench::run_app_streamed(&c.app, &[Version::Tpm, Version::Drpm], 1, &config)
                        .results
                        .iter()
                        .map(|r| sim_digest(&format!("{}@{rate}", r.version.label()), &r.report))
                        .collect::<Vec<_>>()
                })
                .collect()
        }),
        Workload::AnalyzeD4 => dpm_exec::par_map_indexed(&cells, |_, c| {
            let Job::Analyze { shape, procs } = c.job else {
                unreachable!("analyze cells analyze")
            };
            let program = c.app.program();
            let layout = LayoutMap::new(&program, config.striping);
            let deps = dpm_ir::analyze(&program);
            let schedule = dpm_bench::build_schedule(&program, &layout, &deps, shape, procs);
            let diags = dpm_analyze::verify_schedule(&program, &deps, &schedule);
            let predicted = dpm_analyze::predict_energy(
                &program,
                &layout,
                &schedule,
                &config.trace,
                &config.disk,
                &Version::Tpm.policy(),
                &RaidConfig::single(),
            );
            let hints =
                insert_power_hints(&program, &layout, &schedule, &config.trace, &config.disk);
            vec![analysis_digest(&analysis(&diags, &predicted, hints))]
        }),
    };
    cells.into_iter().map(|c| c.label).zip(lines).collect()
}
