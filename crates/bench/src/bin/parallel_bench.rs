//! Serial-vs-parallel wall-time harness for the `dpm-exec` execution layer,
//! plus the self-profiler's coverage gate.
//!
//! Three passes over the figure-9(a) experiment matrix:
//!
//! 1. **Serial** — pinned to the serial path; the canonical result set.
//! 2. **Parallel** — at `DPM_THREADS` width; must be byte-identical to
//!    the serial pass (floats compared by bit pattern).
//! 3. **Profiled** — parallel again with `dpm-prof` enabled; must *still*
//!    be byte-identical (profiling cannot perturb simulation output), must
//!    attribute ≥95% of the pass's wall time to named scopes, and exports
//!    the call tree to `results/PROF_<scale>.json` plus
//!    flamegraph-collapsed stacks to `results/PROF_<scale>.txt`.
//!
//! Plus two microbenches of the execution layer itself:
//!
//! * **Skew** — synthetic cells whose heavy items are clustered into
//!   participant 0's block — the shape a static even split serializes on
//!   and claiming from the other blocks does not. Its serial and parallel
//!   outputs must match bit-for-bit, and its speedup feeds the gate below.
//! * **Map dispatch** (`map_dispatch_ns`) — the median cost of a 2-item
//!   map at width 2: what one parallel map pays to spawn and join its
//!   scoped helper.
//!
//! The speedup gate is honest about the host: when fewer than 4 cores are
//! available the check is recorded as *skipped* with the measured values
//! (a 1-core host cannot demonstrate parallel speedup, only parallel
//! correctness); with ≥4 cores the parallel matrix pass must beat serial
//! (>1x) *and* the skew microbench must reach ≥1.5x, or the run fails.
//!
//! Output is one unified [`BenchRecord`] document. Usage:
//! `parallel_bench [scale] [out-path]` (scale: tiny | small | large |
//! paper; default tiny, output default `BENCH_parallel.json`). Thread
//! count comes from `DPM_THREADS` (default 4).

use dpm_apps::Scale;
use dpm_bench::microbench::bench;
use dpm_bench::{
    run_matrix, AppResults, BenchRecord, ExperimentConfig, GateStatus, MatrixCell, Version,
};
use dpm_layout::Striping;
use dpm_obs::Json;
use dpm_poly::{Constraint, LinExpr, Polyhedron, Set};
use std::fmt::Write as _;
use std::time::Instant;

/// Below this many host cores the >1x speedup gate is vacuous and skipped.
const MIN_CORES_FOR_SPEEDUP_GATE: usize = 4;

/// The profiled pass must attribute at least this fraction of its wall
/// time to named scopes.
const MIN_PROF_COVERAGE: f64 = 0.95;

/// Minimum skew-microbench speedup on hosts where the gate is enforced:
/// a static even split caps this workload near 1.2x, so clearing 1.5x
/// demonstrates the heavy items were actually claimed across blocks.
const MIN_SKEW_SPEEDUP: f64 = 1.5;

fn cells(scale: Scale) -> Vec<MatrixCell> {
    dpm_apps::suite(scale)
        .into_iter()
        .map(|app| MatrixCell {
            app,
            versions: Version::single_cpu().to_vec(),
            procs: 1,
        })
        .collect()
}

/// Canonical rendering of a sweep's results with run ids and wall times
/// excluded: the byte string the "identical output" claim is made over.
/// Floats are rendered from their bit patterns, so any divergence — even a
/// last-ulp one — flips the comparison.
fn canonical(all: &[AppResults]) -> String {
    let mut out = String::new();
    for res in all {
        let _ = writeln!(out, "app={} procs={}", res.app, res.procs);
        for r in &res.results {
            let _ = writeln!(
                out,
                "  {} requests={} makespan={:016x} io={:016x} resp={:016x} \
                 energy={:016x} stats={:?}",
                r.version.label(),
                r.report.app_requests,
                r.report.makespan_ms.to_bits(),
                r.report.total_io_time_ms.to_bits(),
                r.report.total_response_ms.to_bits(),
                r.report.total_energy_j().to_bits(),
                r.trace_stats,
            );
        }
    }
    out
}

/// The poly hot path the restructurer drives: a `Q = Q − Q_d` subtraction
/// chain, borrowed (per-step clone) vs owned (disjuncts moved through).
fn poly_microbench() -> (f64, f64) {
    let n = 64i64;
    let a = Set::from(
        Polyhedron::universe(2)
            .with_range(0, 0, n - 1)
            .with_range(1, 0, n - 1)
            .with(Constraint::geq_zero(
                LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
            )),
    );
    let holes: Vec<Set> = (0..4)
        .map(|k| {
            Set::from(
                Polyhedron::universe(2)
                    .with_range(0, k * n / 8, k * n / 8 + n / 8)
                    .with_range(1, 0, n - 1),
            )
        })
        .collect();
    let borrowed = bench("poly/subtract_chain_borrowed", || {
        let mut q = a.clone();
        for h in &holes {
            q = q.subtract(h);
        }
        q
    });
    let owned = bench("poly/subtract_chain_owned", || {
        let mut q = a.clone();
        for h in &holes {
            q = q.into_subtract(h);
        }
        q
    });
    (borrowed.ns_per_iter, owned.ns_per_iter)
}

/// Deterministic spin workload (`units` rounds of xorshift mixing), kept
/// honest by `black_box`. No allocation, no I/O: pure CPU, so the skew
/// bench measures scheduling, not memory effects.
fn spin(units: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (units + 1);
    for _ in 0..units * 20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Imbalanced synthetic cells: all the heavy items sit at the *front* of
/// the index space, i.e. inside participant 0's block. A static even
/// split leaves ~85% of the work on one worker (speedup ≤ ~1.2x at 4
/// threads); participants that drain their own blocks claim the heavy
/// items one at a time and approach the work-ratio bound (~3.9x).
fn skew_weights() -> Vec<u64> {
    (0..64u64).map(|i| if i < 8 { 32 } else { 1 }).collect()
}

/// Serial and parallel wall times of one workload, and whether the two
/// outputs matched bit-for-bit.
struct AbResult {
    serial_ms: f64,
    parallel_ms: f64,
    identical: bool,
}

/// Runs the skew cells serially and in parallel, checking bit-identity
/// of the outputs.
fn skew_microbench() -> AbResult {
    let weights = skew_weights();
    let run =
        |w: &[u64]| dpm_exec::par_map_indexed(w, |i, &units| spin(units).wrapping_add(i as u64));
    let t = Instant::now();
    let serial_out = dpm_exec::with_env_threads(1, || run(&weights));
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let parallel_out = run(&weights);
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    AbResult {
        serial_ms,
        parallel_ms,
        identical: serial_out == parallel_out,
    }
}

/// Median cost of a 2-item map at width 2, in ns: one scoped helper
/// spawned and joined per map.
fn map_dispatch_microbench() -> f64 {
    let items = [1u64, 2];
    bench("exec/map_2_items_width_2", || {
        dpm_exec::Pool::new(2).map_indexed(&items, |_, &x| x + 1)
    })
    .ns_per_iter
}

/// Request splitting in the simulator's inner loop: fresh allocation per
/// request vs the reusable scratch buffer.
fn split_microbench() -> (f64, f64) {
    let s = Striping::new(8 << 10, 8, 0);
    // A request long enough to span every disk several times over.
    let (offset, len) = (3 << 10, 256u64 << 10);
    let alloc = bench("striping/split_range_alloc", || s.split_range(offset, len));
    let mut buf = Vec::new();
    let scratch = bench("striping/split_range_into", || {
        s.split_range_into(offset, len, &mut buf);
        buf.len()
    });
    (alloc.ns_per_iter, scratch.ns_per_iter)
}

fn main() {
    dpm_obs::init_from_env();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        _ => Scale::Tiny,
    };
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = std::env::var("DPM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    // Pin the map width for the parallel passes (and everything the matrix
    // runs beneath them) to the figure we are about to report.
    std::env::set_var("DPM_THREADS", threads.to_string());
    let config = ExperimentConfig::default();
    let num_cells = cells(scale).len();
    let scale_label = format!("{scale:?}");
    println!(
        "parallel_bench: figure-9(a) matrix at {scale_label} scale, {num_cells} cells, \
         {threads} threads (host has {host} core(s))"
    );

    let mut record = BenchRecord::new("parallel_bench", &scale_label, threads);
    record.metric("cells", num_cells as f64);
    let mut failures = 0u32;

    let t = Instant::now();
    let serial = dpm_exec::with_env_threads(1, || run_matrix(cells(scale), &config));
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("  serial   pass: {serial_ms:>9.1} ms");

    let t = Instant::now();
    let parallel = run_matrix(cells(scale), &config);
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    let speedup = serial_ms / parallel_ms;
    println!("  parallel pass: {parallel_ms:>9.1} ms  ({speedup:.2}x)");

    let skew = skew_microbench();
    let skew_speedup = skew.serial_ms / skew.parallel_ms;
    println!(
        "  skew bench:    serial {:.1} ms, parallel {:.1} ms  ({skew_speedup:.2}x)",
        skew.serial_ms, skew.parallel_ms
    );
    let map_dispatch_ns = map_dispatch_microbench();

    let reference = canonical(&serial);
    if reference == canonical(&parallel) && skew.identical {
        println!("  outputs identical: yes");
        record.gate(
            "outputs_identical",
            GateStatus::Pass,
            "matrix and skew-microbench outputs bit-identical to serial",
        );
    } else {
        eprintln!("parallel_bench: FAIL — parallel output diverged from serial");
        if !skew.identical {
            eprintln!("(skew microbench outputs diverged)");
        } else {
            eprintln!("--- serial ---\n{reference}");
            eprintln!("--- parallel ---\n{}", canonical(&parallel));
        }
        record.gate(
            "outputs_identical",
            GateStatus::Fail,
            "parallel pass diverged from serial",
        );
        failures += 1;
    }

    // Speedup gate: only meaningful when the host can actually run the
    // map in parallel. The skip details always carry the *measured*
    // values so the record stays honest about what this host actually did.
    if host < MIN_CORES_FOR_SPEEDUP_GATE {
        let detail = format!(
            "host has {host} core(s) < {MIN_CORES_FOR_SPEEDUP_GATE}: measured \
             {speedup:.2}x on the matrix and {skew_speedup:.2}x on the skew \
             microbench (recorded, not gated)"
        );
        println!("  speedup gate skipped: {detail}");
        record.gate("speedup_gt_1", GateStatus::Skipped, detail);
    } else if speedup > 1.0 && skew_speedup >= MIN_SKEW_SPEEDUP {
        record.gate(
            "speedup_gt_1",
            GateStatus::Pass,
            format!(
                "matrix {speedup:.2}x (>1x) and skew {skew_speedup:.2}x \
                 (>={MIN_SKEW_SPEEDUP}x) on {host} cores"
            ),
        );
    } else {
        eprintln!(
            "parallel_bench: FAIL — matrix {speedup:.2}x (need >1x), skew \
             {skew_speedup:.2}x (need >={MIN_SKEW_SPEEDUP}x) on a {host}-core host"
        );
        record.gate(
            "speedup_gt_1",
            GateStatus::Fail,
            format!(
                "matrix {speedup:.2}x (need >1x), skew {skew_speedup:.2}x \
                 (need >={MIN_SKEW_SPEEDUP}x) on {host} cores"
            ),
        );
        failures += 1;
    }

    // ---- profiled pass -------------------------------------------------
    dpm_prof::reset();
    dpm_prof::enable();
    let t = Instant::now();
    let profiled = run_matrix(cells(scale), &config);
    let profiled_ms = t.elapsed().as_secs_f64() * 1e3;
    let profile = dpm_prof::snapshot();
    dpm_prof::disable();
    dpm_prof::reset();

    let profiled_same = reference == canonical(&profiled);
    let coverage = profile.total_ns() as f64 / (profiled_ms * 1e6);
    println!(
        "  profiled pass: {profiled_ms:>9.1} ms  (coverage {:.1}%, identical: {})",
        coverage * 100.0,
        if profiled_same { "yes" } else { "NO" }
    );
    if profiled_same {
        record.gate(
            "profiler_bit_identity",
            GateStatus::Pass,
            "profiled pass bit-identical to serial",
        );
    } else {
        eprintln!("parallel_bench: FAIL — enabling the profiler changed simulation output");
        record.gate(
            "profiler_bit_identity",
            GateStatus::Fail,
            "profiled pass diverged from serial",
        );
        failures += 1;
    }
    if coverage >= MIN_PROF_COVERAGE {
        record.gate(
            "prof_coverage_95pct",
            GateStatus::Pass,
            format!("{:.1}% of wall time in named scopes", coverage * 100.0),
        );
    } else {
        eprintln!(
            "parallel_bench: FAIL — profiler attributed only {:.1}% of the profiled \
             pass's wall time (need {:.0}%)",
            coverage * 100.0,
            MIN_PROF_COVERAGE * 100.0
        );
        record.gate(
            "prof_coverage_95pct",
            GateStatus::Fail,
            format!("{:.1}% of wall time in named scopes", coverage * 100.0),
        );
        failures += 1;
    }

    let scale_file = scale_label.to_lowercase();
    let collapsed_path = format!("results/PROF_{scale_file}.txt");
    let tree_path = format!("results/PROF_{scale_file}.json");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(&collapsed_path, profile.to_collapsed()).expect("write collapsed stacks");
    let mut tree = String::new();
    profile.to_json().write(&mut tree);
    tree.push('\n');
    std::fs::write(&tree_path, tree).expect("write profile tree");
    println!("  wrote {collapsed_path} and {tree_path}");

    let (poly_borrowed_ns, poly_owned_ns) = poly_microbench();
    let (split_alloc_ns, split_scratch_ns) = split_microbench();

    record.metric("serial_ms", serial_ms);
    record.metric("parallel_ms", parallel_ms);
    record.metric("profiled_ms", profiled_ms);
    record.metric("speedup_x", speedup);
    record.metric("skew_serial_ms", skew.serial_ms);
    record.metric("skew_parallel_ms", skew.parallel_ms);
    record.metric("skew_speedup_x", skew_speedup);
    record.metric("map_dispatch_ns", map_dispatch_ns);
    record.metric("prof_coverage", coverage.min(1.0));
    record.metric("poly_subtract_chain_borrowed_ns", poly_borrowed_ns);
    record.metric("poly_subtract_chain_owned_ns", poly_owned_ns);
    record.metric("split_range_alloc_ns", split_alloc_ns);
    record.metric("split_range_into_ns", split_scratch_ns);
    record.context(
        "prof_exports",
        Json::obj(vec![
            ("collapsed", Json::Str(collapsed_path)),
            ("tree", Json::Str(tree_path)),
        ]),
    );
    record.write(&out_path).expect("write BENCH_parallel.json");
    println!("wrote {out_path}");

    if failures > 0 {
        eprintln!("parallel_bench: {failures} failure(s)");
        std::process::exit(1);
    }
}
