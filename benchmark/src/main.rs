//! End-to-end benchmark of the compile → trace → simulate pipeline.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds T] [--trace 0|1] [--out run.json] [--spans spans.json]
//! benchmark compare A/*.json B/*.json
//! benchmark regen-expected [PATH]
//! ```
//!
//! A run measures one workload. It sets up (several times, reporting the
//! median), runs one checked pass that also warms caches, then repeats
//! timed passes until `--seconds` have gone by. Every pass's outputs are
//! digested and compared with `expected.json`; the last line of standard
//! output is the JSON result. See README.md for the workloads and metrics.

mod compare;
mod heap;
mod metrics;
mod span;
mod stats;
mod workload;

use dpm_bench::{ExperimentConfig, Version};
use dpm_disksim::SimReport;
use dpm_obs::{Json, XorShift64Star};
use span::{nanos_since, Rollup, Span};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{check_cell, reference, run_cell, Cell, CellOutput, Ctx, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Worker threads, fixed so runs on any host load the same way.
const THREADS: usize = 2;

/// Set-ups before each pass. `setup_s` is the median over all of them, so
/// its samples come from every part of the run: set-ups in one short
/// window ran 1.6x slower in some processes than in others.
const SETUPS_PER_PASS: usize = 15;

/// `--seed` when none is given.
const DEFAULT_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected.json");

const USAGE: &str =
    "usage: benchmark --workload <figure9-large|stream-paper|chaos-large|analyze-d4> \
[--seed N] [--seconds N] [--trace 0|1] [--out PATH] [--spans PATH]
       benchmark compare A/*.json B/*.json
       benchmark regen-expected [PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("regen-expected") => regen_expected(args.get(1).map(String::as_str)),
        _ => match Opts::parse(&args) {
            Ok(opts) => run(&opts),
            Err(e) => Err(format!("{e}\n{USAGE}")),
        },
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut workload = None;
        let mut opts = Opts {
            workload: Workload::Figure9Large,
            seed: DEFAULT_SEED,
            seconds: 20.0,
            traced: false,
            out: None,
            spans: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?,
                    );
                }
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    opts.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--out" => opts.out = Some(PathBuf::from(value()?)),
                "--spans" => opts.spans = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        opts.workload = workload.ok_or("--workload is required")?;
        Ok(opts)
    }
}

/// Everything a run prepares before its first cell: the cells with their
/// app sources, and the digests they must reproduce.
struct Setup {
    cells: Vec<Cell>,
    /// Per cell, in canonical order.
    expected: Vec<Vec<String>>,
}

impl Setup {
    fn new(workload: Workload) -> Result<Setup, String> {
        let cells = workload.cells(workload.scale());
        let expected = expected_digests(workload, &cells)?;
        Ok(Setup { cells, expected })
    }

    /// Sets up [`SETUPS_PER_PASS`] times, appending each duration to
    /// `times`, and returns the last set-up.
    fn timed(workload: Workload, times: &mut Vec<f64>) -> Result<Setup, String> {
        let mut setup = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            setup = Some(Setup::new(workload)?);
            times.push(t.elapsed().as_secs_f64());
        }
        Ok(setup.expect("SETUPS_PER_PASS is positive"))
    }
}

fn expected_digests(workload: Workload, cells: &[Cell]) -> Result<Vec<Vec<String>>, String> {
    let doc = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let table = doc
        .get(workload.name())
        .ok_or_else(|| format!("expected.json has no {:?}", workload.name()))?;
    cells
        .iter()
        .map(|c| {
            table
                .get(&c.label)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("expected.json has no cell {:?}", c.label))?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(String::from)
                        .ok_or("expected.json: non-string digest")
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(String::from)
        })
        .collect()
}

/// The order the checked pass submits its cells in: a seeded shuffle, so
/// the digests show that results do not depend on it (outputs are
/// re-sorted before anything reads them). Timed passes submit in
/// canonical order, as the harness does, so that wall time does not
/// depend on the seed.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = XorShift64Star::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

struct Pass {
    wall_s: f64,
    start_ns: u64,
    outputs: Vec<CellOutput>,
}

fn run_pass(cells: &[Cell], ctx: &Ctx, order: &[usize]) -> Pass {
    let start_ns = nanos_since(ctx.epoch);
    let t = Instant::now();
    let mut outputs = dpm_exec::par_map_vec(order.to_vec(), |_, i| {
        let (mut out, heap_bytes) = heap::peak_during(|| run_cell(&cells[i], i, ctx));
        out.heap_bytes = heap_bytes;
        out
    });
    let wall_s = t.elapsed().as_secs_f64();
    outputs.sort_by_key(|o| o.index);
    Pass {
        wall_s,
        start_ns,
        outputs,
    }
}

/// Cell runs attempted and failed; every failure is reported on stderr.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, setup: &Setup, outputs: &[CellOutput], config: &ExperimentConfig) {
        for ((cell, out), expected) in setup.cells.iter().zip(outputs).zip(&setup.expected) {
            self.attempted += 1;
            let failures = check_cell(&cell.label, out, expected, config);
            if !failures.is_empty() {
                self.failed += 1;
                for f in failures.iter().take(3) {
                    eprintln!("benchmark: FAIL {f}");
                }
            }
        }
    }
}

/// The directory spill files go to, in the working directory; removed
/// however the run ends.
struct SpillDir(PathBuf);

impl SpillDir {
    /// Creates the directory, points the harness's temp files at it, and
    /// fixes the pool width. Both settings are read from the environment,
    /// so this runs before any thread exists.
    fn create() -> Result<SpillDir, String> {
        std::env::set_var("DPM_THREADS", THREADS.to_string());
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let dir = cwd.join(format!(".bench_spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::env::set_var("TMPDIR", &dir);
        Ok(SpillDir(dir))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the timed passes measured.
#[derive(Default)]
struct Timed {
    untraced_s: Vec<f64>,
    /// Per untraced pass, the largest heap any one cell held.
    heap_mb: Vec<f64>,
    traced: Vec<(f64, Rollup)>,
    spans: Vec<Vec<Span>>,
}

fn run(opts: &Opts) -> Result<i32, String> {
    let epoch = Instant::now();
    let spill = SpillDir::create()?;
    let w = opts.workload;
    let mut setup_s = Vec::new();
    let setup = Setup::timed(w, &mut setup_s)?;
    let n = setup.cells.len();
    println!(
        "benchmark: {} at {:?}, seed {}, {} threads, {n} cells per pass{}",
        w.name(),
        w.scale(),
        opts.seed,
        dpm_exec::num_threads(),
        if opts.traced { ", traced" } else { "" }
    );

    let config = ExperimentConfig::default();
    let mut ctx = Ctx {
        config,
        spill_dir: spill.0.clone(),
        epoch,
        traced: false,
        checked: true,
    };
    let mut tally = Tally::default();
    let checked = run_pass(&setup.cells, &ctx, &shuffled(n, opts.seed));
    println!("  checked pass: {:.3} s", checked.wall_s);
    tally.check(&setup, &checked.outputs, &config);
    ctx.checked = false;

    // Timed passes; with tracing, untraced and traced passes alternate so
    // that drift in the host's speed hits both alike.
    let canonical: Vec<usize> = (0..n).collect();
    let mut timed = Timed::default();
    let t0 = Instant::now();
    while timed.untraced_s.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        for trace in [false, true].into_iter().filter(|&t| opts.traced || !t) {
            ctx.traced = trace;
            let setup = Setup::timed(w, &mut setup_s)?;
            let p = run_pass(&setup.cells, &ctx, &canonical);
            println!(
                "  pass: {:.3} s{}",
                p.wall_s,
                if trace { " (traced)" } else { "" }
            );
            tally.check(&setup, &p.outputs, &config);
            if !trace {
                timed.untraced_s.push(p.wall_s);
                let heap = p.outputs.iter().map(|o| o.heap_bytes).max().unwrap_or(0);
                timed.heap_mb.push(heap as f64 / (1024.0 * 1024.0));
                continue;
            }
            let cell_spans: Vec<&[Span]> = p.outputs.iter().map(|o| o.spans.as_slice()).collect();
            let mut rollup = Rollup::of(&cell_spans);
            rollup
                .cell_start_ns
                .iter_mut()
                .for_each(|s| *s -= p.start_ns.min(*s));
            timed.traced.push((p.wall_s, rollup));
            timed
                .spans
                .push(p.outputs.into_iter().flat_map(|o| o.spans).collect());
        }
    }
    let correct = tally.failed == 0;

    let metrics: Vec<(&'static str, f64)> = if opts.traced {
        let path = opts.spans.clone().unwrap_or_else(|| {
            Path::new(".bench_spans").join(format!("{}-seed{}.json", w.name(), opts.seed))
        });
        write_spans(&path, &timed.spans)?;
        println!("  spans written to {}", path.display());
        layer_metrics(&checked.outputs, &timed)
    } else {
        vec![
            ("wall_s", stats::median(&timed.untraced_s)),
            ("setup_s", stats::median(&setup_s)),
            ("peak_heap_mb", stats::median(&timed.heap_mb)),
        ]
    };
    for (name, value) in &metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("metric {name} = {value} {unit}");
    }
    let simulated = simulated_metrics(w, &checked.outputs);
    for (name, value, unit) in &simulated {
        println!("simulated {name} = {value} {unit}");
    }
    println!(
        "checks: {} cell runs, {} failed{}",
        tally.attempted,
        tally.failed,
        if correct { "" } else { " (see stderr)" }
    );

    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(tally.attempted as u64)),
        ("failed", Json::U64(tally.failed as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value)| {
                        let unit = metrics::find(name).map_or("", |m| m.unit);
                        let entry = Json::obj(vec![
                            ("value", Json::F64(*value)),
                            ("unit", Json::Str(unit.into())),
                        ]);
                        ((*name).to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(out) = &opts.out {
        let simulated = simulated
            .iter()
            .map(|(n, v, _)| ((*n).to_string(), Json::F64(*v)))
            .collect();
        let mut record = vec![
            ("workload".to_string(), Json::Str(w.name().into())),
            ("seed".to_string(), Json::U64(opts.seed)),
            (
                "threads".to_string(),
                Json::U64(dpm_exec::num_threads() as u64),
            ),
            ("traced".to_string(), Json::Bool(opts.traced)),
            (
                "pass_s".to_string(),
                Json::Arr(timed.untraced_s.iter().map(|&s| Json::F64(s)).collect()),
            ),
            ("simulated".to_string(), Json::Obj(simulated)),
        ];
        if let Json::Obj(fields) = &result {
            record.extend(fields.iter().cloned());
        }
        write_file(out, &Json::Obj(record).to_string())?;
    }
    println!("{result}");
    Ok(if correct { 0 } else { 1 })
}

/// Per-layer metrics: times are medians over the traced passes; counts
/// come from the checked pass (every pass repeats them exactly).
fn layer_metrics(checked: &[CellOutput], timed: &Timed) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&Rollup) -> f64| {
        stats::median(&timed.traced.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let count = |f: &dyn Fn(&CellOutput) -> u64| checked.iter().map(f).sum::<u64>() as f64;
    let sims =
        |f: &dyn Fn(&SimReport) -> u64| count(&|o| o.sims.iter().map(|s| f(&s.report)).sum());
    let analyses =
        |f: &dyn Fn(&workload::Analysis) -> u64| count(&|o| o.analysis.as_ref().map_or(0, f));
    let config = ExperimentConfig::default();

    let iters = count(&|o| o.counts.iters);
    let requests = count(&|o| o.counts.requests);
    let simulated = sims(&|r| r.app_requests);
    let sub_requests = sims(&SimReport::total_sub_requests);
    let retries = sims(&SimReport::total_retries);
    let schedule_ms = med(&|r| r.ms("core."));
    let gen_ms = med(&|r| r.ms("trace.gen"));
    let spill_ms = med(&|r| r.ms("trace.spill"));
    let sim_ms = med(&|r| r.ms("disksim."));
    let untraced_wall = stats::median(&timed.untraced_s);
    let traced_wall = stats::median(&timed.traced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    vec![
        ("ir.parse_ms", med(&|r| r.ms("ir.parse"))),
        ("ir.deps_ms", med(&|r| r.ms("ir.deps"))),
        ("layout.map_ms", med(&|r| r.ms("layout."))),
        ("core.schedule_ms", schedule_ms),
        ("core.reuse_ms", med(&|r| r.ms("core.reuse"))),
        ("core.parallel_ms", med(&|r| r.ms("core.parallel"))),
        ("core.iters", iters),
        ("core.ns_per_iter", ratio(schedule_ms * 1e6, iters)),
        ("analyze.verify_ms", med(&|r| r.ms("analyze.verify"))),
        ("analyze.predict_ms", med(&|r| r.ms("analyze.predict"))),
        ("analyze.errors", analyses(&|a| a.errors as u64)),
        ("analyze.idle_windows", analyses(&|a| a.idle_windows)),
        ("optimizer.hints_ms", med(&|r| r.ms("optimizer."))),
        (
            "optimizer.hint_accept_ratio",
            ratio(analyses(&|a| u64::from(a.hints.is_ok())), analyses(&|_| 1)),
        ),
        ("trace.gen_ms", gen_ms),
        ("trace.spill_ms", spill_ms),
        ("trace.decode_ms", count(&|o| o.counts.decode_ns) / 1e6),
        ("trace.requests", requests),
        (
            "trace.gen_ns_per_req",
            ratio((gen_ms + spill_ms) * 1e6, requests),
        ),
        (
            "trace.codec_bytes_per_req",
            // Only spilling workloads encode, and they spill every request.
            ratio(count(&|o| o.counts.codec_bytes), requests),
        ),
        ("disksim.sim_ms", sim_ms),
        ("disksim.replay_ms", med(&|r| r.ms("disksim.replay"))),
        ("disksim.ns_per_req", ratio(sim_ms * 1e6, simulated)),
        ("disksim.sub_requests", sub_requests),
        ("disksim.faults", sims(&SimReport::total_faults)),
        ("disksim.retries", retries),
        ("disksim.retry_ratio", ratio(retries, sub_requests)),
        (
            "disksim.violations",
            count(&|o| workload::violations(o, &config).len() as u64),
        ),
        ("exec.cell_ms_p50", med(&|r| stats::median(&r.cell_ms))),
        (
            "exec.cell_ms_max",
            med(&|r| r.cell_ms.iter().copied().fold(0.0, f64::max)),
        ),
        (
            "exec.wait_ms",
            med(&|r| {
                let waits: Vec<f64> = r.cell_start_ns.iter().map(|&s| s as f64 / 1e6).collect();
                ratio(waits.iter().fold(0.0, |a, b| a + b), waits.len() as f64)
            }),
        ),
        (
            "exec.idle_frac",
            stats::median(
                &timed
                    .traced
                    .iter()
                    .map(|(wall, r)| {
                        let busy_ms = r.cell_ms.iter().fold(0.0, |a, b| a + b);
                        1.0 - busy_ms / (wall * 1e3 * THREADS as f64)
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        ("bench.coverage", med(&Rollup::coverage)),
        (
            "bench.trace_overhead_frac",
            traced_wall / untraced_wall - 1.0,
        ),
    ]
}

/// The averages the paper reports, in percent, as (processors, version,
/// energy saving in Figure 9 or I/O-time degradation in Figure 10).
const PAPER_SAVING: [(u32, Version, f64); 8] = [
    (1, Version::Tpm, 0.0),
    (1, Version::Drpm, 9.95),
    (1, Version::TTpmS, 8.30),
    (1, Version::TDrpmS, 18.30),
    (4, Version::TTpmS, 3.84),
    (4, Version::TDrpmS, 10.66),
    (4, Version::TTpmM, 11.04),
    (4, Version::TDrpmM, 18.04),
];
const PAPER_DEGRADATION: [(u32, Version, f64); 9] = [
    (1, Version::Tpm, 0.0),
    (1, Version::Drpm, 11.9),
    (1, Version::TTpmS, 2.1),
    (1, Version::TDrpmS, 4.7),
    (4, Version::Drpm, 16.8),
    (4, Version::TTpmS, 4.7),
    (4, Version::TDrpmS, 8.7),
    (4, Version::TTpmM, 2.8),
    (4, Version::TDrpmM, 5.0),
];

/// The paper-facing numbers of `figure9-large`, from the checked pass:
/// the headline compiler version's mean saving and I/O-time cost against
/// Base (T-DRPM-s on one processor, T-DRPM-m on four), and the mean
/// absolute gap to the 17 averages the paper reports in Figures 9 and 10.
/// They are pinned bit-for-bit by the digests, so they are printed, not
/// bounded.
fn simulated_metrics(
    w: Workload,
    outputs: &[CellOutput],
) -> Vec<(&'static str, f64, &'static str)> {
    if w != Workload::Figure9Large {
        return Vec::new();
    }
    // Mean over apps of f(version's report, Base report), in percent.
    let mean = |procs: u32, v: Version, f: fn(&SimReport, &SimReport) -> f64| {
        let per_app: Vec<f64> = outputs
            .iter()
            .filter(|o| o.sims.len() == if procs == 1 { 5 } else { 7 })
            .map(|o| {
                let report = |v| {
                    &o.sims
                        .iter()
                        .find(|s| s.version == v)
                        .expect("version ran")
                        .report
                };
                100.0 * f(report(v), report(Version::Base))
            })
            .collect();
        per_app.iter().sum::<f64>() / per_app.len() as f64
    };
    let saving: fn(&SimReport, &SimReport) -> f64 = SimReport::energy_saving_vs;
    let degradation: fn(&SimReport, &SimReport) -> f64 = SimReport::degradation_vs;
    let gaps: Vec<f64> = PAPER_SAVING
        .iter()
        .map(|&(p, v, paper)| (mean(p, v, saving) - paper).abs())
        .chain(
            PAPER_DEGRADATION
                .iter()
                .map(|&(p, v, paper)| (mean(p, v, degradation) - paper).abs()),
        )
        .collect();
    let headline = |f| (mean(1, Version::TDrpmS, f) + mean(4, Version::TDrpmM, f)) / 2.0;
    vec![
        ("energy_saving_pct", headline(saving), "%"),
        ("io_degradation_pct", headline(degradation), "%"),
        (
            "paper_gap_pp",
            gaps.iter().sum::<f64>() / gaps.len() as f64,
            "pp",
        ),
    ]
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_spans(path: &Path, passes: &[Vec<Span>]) -> Result<(), String> {
    let mut text = String::from("[\n");
    for (p, spans) in passes.iter().enumerate() {
        for s in spans {
            if text.len() > 2 {
                text.push_str(",\n");
            }
            s.to_json(p).write(&mut text);
        }
    }
    text.push_str("\n]\n");
    write_file(path, &text)
}

/// Writes the digests of every workload at its own scale, produced by the
/// harness's entry points rather than by this benchmark's composition.
fn regen_expected(path: Option<&str>) -> Result<i32, String> {
    let _spill = SpillDir::create()?;
    let path = Path::new(path.unwrap_or(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json")));
    let mut text = String::from("{\n");
    for (k, w) in Workload::ALL.into_iter().enumerate() {
        let t = Instant::now();
        let cells = reference(w, w.scale());
        eprintln!(
            "regen-expected: {} in {:.1} s",
            w.name(),
            t.elapsed().as_secs_f64()
        );
        text.push_str(&format!("  {}: {{\n", Json::Str(w.name().into())));
        for (i, (label, lines)) in cells.iter().enumerate() {
            let lines = Json::Arr(lines.iter().map(|l| Json::Str(l.clone())).collect());
            let sep = if i + 1 < cells.len() { "," } else { "" };
            text.push_str(&format!("    {}: {lines}{sep}\n", Json::Str(label.clone())));
        }
        text.push_str(if k + 1 < Workload::ALL.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    text.push_str("}\n");
    write_file(path, &text)?;
    println!("wrote {}", path.display());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_apps::Scale;

    fn composed(w: Workload, scale: Scale) -> (Vec<Cell>, Vec<CellOutput>) {
        let name = format!("benchmark-test-{}-{}", std::process::id(), w.name());
        let spill_dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&spill_dir).unwrap();
        let _cleanup = SpillDir(spill_dir.clone());
        let ctx = Ctx {
            config: ExperimentConfig::default(),
            spill_dir,
            epoch: Instant::now(),
            traced: true,
            checked: true,
        };
        let cells = w.cells(scale);
        let pass = run_pass(&cells, &ctx, &shuffled(cells.len(), 3));
        (cells, pass.outputs)
    }

    /// At Tiny, every workload's composition reproduces the harness path
    /// bit for bit, passes every check, and records a span for the cell.
    #[test]
    fn composition_matches_harness_at_tiny() {
        for w in Workload::ALL {
            let (cells, outputs) = composed(w, Scale::Tiny);
            let (labels, expected): (Vec<String>, Vec<Vec<String>>) =
                reference(w, Scale::Tiny).into_iter().unzip();
            assert_eq!(
                labels,
                cells.iter().map(|c| c.label.clone()).collect::<Vec<_>>()
            );
            let setup = Setup { cells, expected };
            let mut tally = Tally::default();
            tally.check(&setup, &outputs, &ExperimentConfig::default());
            assert_eq!(
                (tally.attempted, tally.failed),
                (setup.cells.len(), 0),
                "{}",
                w.name()
            );
            for out in &outputs {
                assert!(!out.accounting.is_empty() || out.analysis.is_some());
                assert_eq!(out.spans[0].name, span::CELL);
            }
        }
    }

    /// The gate can fail: one flipped digest, or one report whose energy
    /// is 5% off, each fail exactly one cell.
    #[test]
    fn planted_defects_fail_one_cell() {
        let (cells, outputs) = composed(Workload::StreamPaper, Scale::Tiny);
        let expected = outputs.iter().map(CellOutput::digest).collect();
        let mut setup = Setup { cells, expected };
        let failed = |setup: &Setup, outputs: &[CellOutput]| {
            let mut tally = Tally::default();
            tally.check(setup, outputs, &ExperimentConfig::default());
            tally.failed
        };
        assert_eq!(failed(&setup, &outputs), 0);

        let mut off = outputs.clone();
        for d in &mut off[4].sims[0].report.per_disk {
            d.energy_j *= 1.05;
        }
        assert_eq!(failed(&setup, &off), 1);

        let line = &mut setup.expected[2][1];
        let flipped = if line.ends_with('0') { '1' } else { '0' };
        line.pop();
        line.push(flipped);
        assert_eq!(failed(&setup, &outputs), 1);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(30, 5);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
        assert_eq!(a, shuffled(30, 5));
        assert_ne!(a, shuffled(30, 6));
    }

    #[test]
    fn expected_json_covers_every_cell() {
        for w in Workload::ALL {
            let setup = Setup::new(w).unwrap();
            assert_eq!(setup.expected.len(), setup.cells.len());
            assert!(setup.expected.iter().all(|d| !d.is_empty()));
        }
    }
}
