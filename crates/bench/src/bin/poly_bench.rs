//! Before/after harness for the closed-form counting and cached
//! projection-chain work in `dpm-poly` and the bitset `Q_d` scheduler in
//! `dpm-core`.
//!
//! Three things happen per run:
//!
//! 1. **Equivalence**: every closed-form count is asserted equal to the
//!    enumeration baseline it replaced; the bitset scheduler is asserted
//!    bit-identical to the reference engine. A mismatch exits non-zero.
//! 2. **Microbenches**: counting and `Q_d` footprint construction at
//!    `Scale::Large` geometry, closed-form vs enumerated, plus cached vs
//!    uncached repeated queries and the two scheduling engines. The
//!    closed-vs-enumerated speedup must reach 10x on the rectangle-count
//!    bench, or the run fails; the `Q_d` footprint speedup is recorded
//!    but not gated.
//! 3. **Matrix**: the figure-9(a) experiment matrix at the requested scale
//!    (default `small`), wall-clock recorded — the "does the pipeline scale
//!    past Tiny now" smoke check.
//!
//! Results land as one unified [`BenchRecord`] document; regression
//! comparison against `scripts/BENCH_poly_baseline.json` is `bench-report`'s
//! job, not this bin's.
//!
//! Usage: `poly_bench [scale] [out-path]` (scale: tiny | small | large |
//! paper; default small, output default `BENCH_poly.json`).

use dpm_apps::Scale;
use dpm_bench::microbench::{bench, group};
use dpm_bench::{run_matrix, BenchRecord, ExperimentConfig, GateStatus, MatrixCell, Version};
use dpm_layout::LayoutMap;
use dpm_poly::{Constraint, LinExpr, Polyhedron};
use dpm_trace::compile::CompiledProgram;
use std::time::Instant;

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

/// Array extent of the benchmark geometry at `Scale::Large` (the suite
/// declares 1024-wide arrays at paper scale).
fn large_n() -> i64 {
    (1024 / Scale::Large.divisor()) as i64
}

/// A `Scale::Large` rectangular iteration space — the row-/column-block
/// footprint shape the paper's schemes count constantly.
fn rect_large() -> Polyhedron {
    let n = large_n();
    Polyhedron::universe(2)
        .with_range(0, 0, n - 1)
        .with_range(1, 0, n - 1)
}

/// A `Scale::Large` triangular space (Cholesky/SCF sweeps).
fn tri_large() -> Polyhedron {
    rect_large().with(Constraint::geq_zero(
        LinExpr::var(2, 0).minus(&LinExpr::var(2, 1)),
    ))
}

fn main() {
    dpm_obs::init_from_env();
    let scale = match std::env::args().nth(1).as_deref() {
        Some("paper") => Scale::Paper,
        Some("large") => Scale::Large,
        Some("tiny") => Scale::Tiny,
        _ => Scale::Small,
    };
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_poly.json".into());
    let threads: usize = std::env::var("DPM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);

    let mut failures = 0u32;
    let mut record = BenchRecord::new("poly_bench", &format!("{scale:?}"), threads);

    // ---- counting: closed form vs enumeration -------------------------
    group("count_points at Scale::Large geometry");
    {
        let expect_rect = (large_n() * large_n()) as u64;
        let expect_tri = (large_n() * (large_n() + 1) / 2) as u64;
        // Fresh polyhedron per iteration on both sides, so the closed side
        // pays its full cache-build cost and the comparison is construction
        // + query vs construction + query.
        let closed_rect = bench("poly/count_rect_closed", || rect_large().count_points());
        let enum_rect = bench("poly/count_rect_enumerated", || {
            rect_large().count_points_enumerated()
        });
        let closed_tri = bench("poly/count_tri_closed", || tri_large().count_points());
        let enum_tri = bench("poly/count_tri_enumerated", || {
            tri_large().count_points_enumerated()
        });
        let mut equal = true;
        for (label, got, want) in [
            ("rect closed", rect_large().count_points(), expect_rect),
            (
                "rect enumerated",
                rect_large().count_points_enumerated(),
                expect_rect,
            ),
            ("tri closed", tri_large().count_points(), expect_tri),
            (
                "tri enumerated",
                tri_large().count_points_enumerated(),
                expect_tri,
            ),
        ] {
            if got != want {
                eprintln!("poly_bench: FAIL — {label} count {got} != expected {want}");
                failures += 1;
                equal = false;
            }
        }
        record.gate(
            "count_equivalence",
            if equal {
                GateStatus::Pass
            } else {
                GateStatus::Fail
            },
            "closed-form counts match enumeration at Large geometry",
        );
        record.metric("poly_count_rect_closed_ns", closed_rect.ns_per_iter);
        record.metric("poly_count_rect_enumerated_ns", enum_rect.ns_per_iter);
        record.metric("poly_count_tri_closed_ns", closed_tri.ns_per_iter);
        record.metric("poly_count_tri_enumerated_ns", enum_tri.ns_per_iter);
    }

    // ---- Q_d footprint construction: closed form vs enumeration -------
    group("per-disk Q_d footprints (AST nest 0, paper striping, Large)");
    let qd_speedup;
    {
        let program = dpm_apps::ast(Scale::Large).program();
        let layout = LayoutMap::new(&program, dpm_apps::paper_striping());
        let sets = dpm_core::disk_iteration_sets(&program, &layout, 0)
            .expect("AST nest 0 must admit symbolic per-disk sets");
        let per_disk_closed: Vec<u64> = sets.iter().map(|s| s.count_points()).collect();
        let per_disk_enum: Vec<u64> = sets.iter().map(|s| s.count_points_enumerated()).collect();
        if per_disk_closed != per_disk_enum {
            eprintln!(
                "poly_bench: FAIL — Q_d closed-form counts {per_disk_closed:?} \
                 != enumerated {per_disk_enum:?}"
            );
            failures += 1;
        }
        record.gate(
            "qd_equivalence",
            if per_disk_closed == per_disk_enum {
                GateStatus::Pass
            } else {
                GateStatus::Fail
            },
            "per-disk closed-form counts match enumeration",
        );
        // Fresh sets per iteration: the bench measures building the
        // footprints and counting them, the restructurer's actual pattern.
        let closed = bench("core/qd_footprints_closed", || {
            let sets = dpm_core::disk_iteration_sets(&program, &layout, 0).unwrap();
            sets.iter().map(|s| s.count_points()).sum::<u64>()
        });
        let enumerated = bench("core/qd_footprints_enumerated", || {
            let sets = dpm_core::disk_iteration_sets(&program, &layout, 0).unwrap();
            sets.iter()
                .map(|s| s.count_points_enumerated())
                .sum::<u64>()
        });
        qd_speedup = enumerated.ns_per_iter / closed.ns_per_iter;
        record.metric("core_qd_footprints_closed_ns", closed.ns_per_iter);
        record.metric("core_qd_footprints_enumerated_ns", enumerated.ns_per_iter);
    }

    // ---- Q_d mask sweep: compiled references vs per-call allocation ----
    // The fast side is the mask dpm-core's passes run (the program
    // compiled once per sweep); the metric and gate names predate it.
    group("iteration_disk_mask sweep (AST nest 0, Small, compiled vs alloc)");
    let mask_speedup;
    {
        let program = dpm_apps::ast(Scale::Small).program();
        let layout = LayoutMap::new(&program, dpm_apps::paper_striping());
        let mut iters: Vec<Vec<i64>> = Vec::new();
        dpm_trace::walk_nest(&program.nests[0], &mut |pt| iters.push(pt.to_vec()));
        // The allocating IR path: a fresh coordinate Vec per reference
        // plus a fresh disk Vec per element, every iteration.
        let alloc_mask = |pt: &[i64]| -> u64 {
            let mut mask = 0u64;
            for stmt in &program.nests[0].body {
                for r in &stmt.refs {
                    let coords = r.element_at(pt);
                    for d in layout.disks_of_element(&program, r.array, &coords) {
                        mask |= 1 << d;
                    }
                }
            }
            mask
        };
        let compiled = CompiledProgram::new(&program);
        let same = iters
            .iter()
            .all(|pt| alloc_mask(pt) == compiled.disk_mask(&program, &layout, 0, pt));
        if !same {
            eprintln!("poly_bench: FAIL — compiled disk masks diverge from allocating masks");
            failures += 1;
        }
        record.gate(
            "qd_mask_scratch_equivalence",
            if same {
                GateStatus::Pass
            } else {
                GateStatus::Fail
            },
            "compiled disk masks bit-identical to allocating path",
        );
        let alloc = bench("core/qd_mask_sweep_alloc", || {
            iters.iter().fold(0u64, |acc, pt| acc ^ alloc_mask(pt))
        });
        let compiled_bench = bench("core/qd_mask_sweep_compiled", || {
            let compiled = CompiledProgram::new(&program);
            iters.iter().fold(0u64, |acc, pt| {
                acc ^ compiled.disk_mask(&program, &layout, 0, pt)
            })
        });
        mask_speedup = alloc.ns_per_iter / compiled_bench.ns_per_iter;
        record.metric("core_qd_mask_sweep_alloc_ns", alloc.ns_per_iter);
        record.metric("core_qd_mask_sweep_scratch_ns", compiled_bench.ns_per_iter);
        if mask_speedup < 1.0 {
            eprintln!(
                "poly_bench: FAIL — compiled mask sweep regressed vs allocating \
                 path ({mask_speedup:.2}x)"
            );
            record.gate(
                "qd_mask_scratch_no_regression",
                GateStatus::Fail,
                format!("{mask_speedup:.2}x — compiled slower than allocating path"),
            );
            failures += 1;
        } else {
            record.gate(
                "qd_mask_scratch_no_regression",
                GateStatus::Pass,
                format!("{mask_speedup:.2}x vs allocating path"),
            );
        }
    }

    // ---- cached vs uncached repeated queries --------------------------
    group("projection-chain cache (repeated queries, one polyhedron)");
    {
        let warm = tri_large();
        let cached = bench("poly/queries_cached", || {
            // Same polyhedron every iteration: everything after the first
            // hit comes from the cache.
            (warm.count_points(), warm.is_empty(), warm.lexmax())
        });
        let uncached = bench("poly/queries_uncached", || {
            // Fresh polyhedron per iteration: every query rebuilds its
            // chain, the pre-cache behaviour.
            let p = tri_large();
            (p.count_points(), p.is_empty(), p.lexmax())
        });
        record.metric("poly_queries_cached_ns", cached.ns_per_iter);
        record.metric("poly_queries_uncached_ns", uncached.ns_per_iter);
    }

    // ---- scheduling engines: bitset vs reference ----------------------
    group("Figure-3 scheduler (AST at Tiny, bitset vs reference)");
    {
        let program = dpm_apps::ast(Scale::Tiny).program();
        let layout = LayoutMap::new(&program, dpm_apps::paper_striping());
        let deps = dpm_ir::analyze(&program);
        let fast = dpm_core::restructure_single(&program, &layout, &deps);
        let reference = dpm_core::restructure_single_reference(&program, &layout, &deps);
        let same = fast == reference;
        if !same {
            eprintln!("poly_bench: FAIL — bitset schedule diverged from reference engine");
            failures += 1;
        }
        record.gate(
            "scheduler_equivalence",
            if same {
                GateStatus::Pass
            } else {
                GateStatus::Fail
            },
            "bitset schedule bit-identical to reference engine",
        );
        let bitset = bench("core/schedule_bitset", || {
            dpm_core::restructure_single(&program, &layout, &deps)
        });
        let refeng = bench("core/schedule_reference", || {
            dpm_core::restructure_single_reference(&program, &layout, &deps)
        });
        record.metric("core_schedule_bitset_ns", bitset.ns_per_iter);
        record.metric("core_schedule_reference_ns", refeng.ns_per_iter);
    }

    // ---- speedup gate -------------------------------------------------
    let ns_of = |rec: &BenchRecord, name: &str| {
        rec.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let rect_speedup = ns_of(&record, "poly_count_rect_enumerated_ns")
        / ns_of(&record, "poly_count_rect_closed_ns");
    let tri_speedup =
        ns_of(&record, "poly_count_tri_enumerated_ns") / ns_of(&record, "poly_count_tri_closed_ns");
    let cached_speedup =
        ns_of(&record, "poly_queries_uncached_ns") / ns_of(&record, "poly_queries_cached_ns");
    println!(
        "\nspeedups: rect {rect_speedup:.1}x, tri {tri_speedup:.1}x, \
         qd {qd_speedup:.1}x, mask-compiled {mask_speedup:.1}x, \
         cached-queries {cached_speedup:.1}x"
    );
    record.metric("count_rect_speedup_x", rect_speedup);
    record.metric("count_tri_speedup_x", tri_speedup);
    record.metric("qd_footprints_speedup_x", qd_speedup);
    record.metric("qd_mask_scratch_speedup_x", mask_speedup);
    record.metric("cached_queries_speedup_x", cached_speedup);
    if rect_speedup < 10.0 {
        eprintln!(
            "poly_bench: FAIL — the count_points rectangle bench ({rect_speedup:.1}x) \
             did not reach the 10x bar"
        );
        record.gate(
            "count_speedup_10x",
            GateStatus::Fail,
            format!("rect {rect_speedup:.1}x — under 10x"),
        );
        failures += 1;
    } else {
        record.gate(
            "count_speedup_10x",
            GateStatus::Pass,
            format!("rect {rect_speedup:.1}x"),
        );
    }

    // ---- figure-9(a) matrix at the requested scale --------------------
    let num_cells = cells(scale).len();
    println!("\nfigure-9(a) matrix at {scale:?} scale ({num_cells} cells)…");
    let t = Instant::now();
    let results = run_matrix(cells(scale), &ExperimentConfig::default());
    let matrix_ms = t.elapsed().as_secs_f64() * 1e3;
    let total_requests: u64 = results
        .iter()
        .flat_map(|a| a.results.iter())
        .map(|r| r.report.app_requests)
        .sum();
    println!("  completed in {matrix_ms:.1} ms ({total_requests} simulated requests)");
    record.metric("matrix_cells", num_cells as f64);
    record.metric("matrix_ms", matrix_ms);
    record.metric("matrix_requests", total_requests as f64);

    record.write(&out_path).expect("write BENCH_poly.json");
    println!("wrote {out_path}");

    if failures > 0 {
        eprintln!("poly_bench: {failures} failure(s)");
        std::process::exit(1);
    }
}
