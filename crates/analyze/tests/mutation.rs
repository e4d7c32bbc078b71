//! Mutation tests for the exact schedule verifier: seeded illegal edits
//! of known-good schedules must be *rejected*, each with the right typed
//! diagnostic code, across every application of the Tiny suite.
//!
//! Three mutation operators, per the issue:
//! * swap two dependent iterations (intra-nest exact pair, or hoist a
//!   cross-nest sink above its unique source) → `E_DEP_ORDER` /
//!   `E_CROSS_ORDER`;
//! * drop an iteration → `E_COVERAGE_MISSING`;
//! * reorder across a cross-nest barrier → `E_BARRIER_ORDER`.

use std::collections::HashSet;

use dpm_analyze::{error_count, verify_schedule, DiagCode, Diagnostic};
use dpm_apps::Scale;
use dpm_core::{original_schedule, restructure_single, CompactIter, Schedule};
use dpm_ir::{analyze, CrossDep, DependenceInfo, Program};
use dpm_layout::LayoutMap;

fn flatten(s: &Schedule) -> Vec<CompactIter> {
    let mut v = Vec::new();
    s.for_each_scheduled(|_, ni, pt| v.push(CompactIter::new(ni, pt)));
    v
}

fn has_code(diags: &[Diagnostic], code: DiagCode) -> bool {
    diags.iter().any(|d| d.code == code)
}

/// Finds an intra-nest dependent iteration pair `(src, sink)` related by
/// an exact distance vector, if the program has one.
fn intra_pair(program: &Program, deps: &DependenceInfo) -> Option<(CompactIter, CompactIter)> {
    for (ni, nest) in program.nests.iter().enumerate() {
        let dists = deps.nest_exact_distances(ni);
        if dists.is_empty() {
            continue;
        }
        let iters = nest.iterations();
        let domain: HashSet<&[i64]> = iters.iter().map(Vec::as_slice).collect();
        for d in &dists {
            for sink in &iters {
                let src: Vec<i64> = sink.iter().zip(d).map(|(s, dv)| s - dv).collect();
                if src != *sink && domain.contains(src.as_slice()) {
                    return Some((CompactIter::new(ni, &src), CompactIter::new(ni, sink)));
                }
            }
        }
    }
    None
}

/// Finds a cross-nest `(src, sink)` pair related by an exact map.
fn cross_pair(program: &Program, deps: &DependenceInfo) -> Option<(CompactIter, CompactIter)> {
    for dep in &deps.cross {
        let CrossDep::Exact {
            src_nest,
            dst_nest,
            map,
        } = dep
        else {
            continue;
        };
        let src_iters = program.nests[*src_nest].iterations();
        let src_domain: HashSet<&[i64]> = src_iters.iter().map(Vec::as_slice).collect();
        for sink in program.nests[*dst_nest].iterations() {
            let src = map.apply(&sink);
            if src_domain.contains(src.as_slice()) {
                return Some((
                    CompactIter::new(*src_nest, &src),
                    CompactIter::new(*dst_nest, &sink),
                ));
            }
        }
    }
    None
}

/// Moves `sink` to the very front of the order, keeping everything else.
fn hoist_to_front(items: &[CompactIter], sink: CompactIter) -> Vec<CompactIter> {
    let mut out = vec![sink];
    out.extend(items.iter().copied().filter(|&it| it != sink));
    out
}

/// The whole suite: every clean scheduler output verifies, and every
/// mutation is rejected with its designated diagnostic code.
#[test]
fn tiny_suite_rejects_all_mutations() {
    let striping = dpm_apps::paper_striping();
    let mut intra_swaps = 0usize;
    let mut cross_swaps = 0usize;
    let mut barrier_reorders = 0usize;

    for app in dpm_apps::suite(Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);

        // Baseline sanity: both the original order and the restructured
        // schedule verify clean — the mutations below start from these.
        let original = original_schedule(&program);
        let restructured = restructure_single(&program, &layout, &deps);
        for s in [&original, &restructured] {
            let diags = verify_schedule(&program, &deps, s);
            assert_eq!(error_count(&diags), 0, "{}: clean {diags:?}", app.name);
        }

        // Mutation: drop the last scheduled iteration.
        let mut dropped = flatten(&restructured);
        dropped.pop();
        let diags = verify_schedule(&program, &deps, &Schedule::single(&program, dropped));
        assert!(
            has_code(&diags, DiagCode::CoverageMissing),
            "{}: drop-last must report E_COVERAGE_MISSING: {diags:?}",
            app.name
        );

        // Mutation: swap an intra-nest dependent pair in original order,
        // putting the sink before its source.
        if let Some((src, sink)) = intra_pair(&program, &deps) {
            let mut items = flatten(&original);
            let si = items.iter().position(|&it| it == src).unwrap();
            let di = items.iter().position(|&it| it == sink).unwrap();
            items.swap(si, di);
            let diags = verify_schedule(&program, &deps, &Schedule::single(&program, items));
            assert!(
                has_code(&diags, DiagCode::DepOrder),
                "{}: intra swap must report E_DEP_ORDER: {diags:?}",
                app.name
            );
            intra_swaps += 1;
        }

        // Mutation: hoist a cross-nest sink above its unique source.
        if let Some((_, sink)) = cross_pair(&program, &deps) {
            let items = hoist_to_front(&flatten(&original), sink);
            let diags = verify_schedule(&program, &deps, &Schedule::single(&program, items));
            assert!(
                has_code(&diags, DiagCode::CrossOrder),
                "{}: cross hoist must report E_CROSS_ORDER: {diags:?}",
                app.name
            );
            cross_swaps += 1;
        }

        // Mutation: reorder across a cross-nest barrier — hoist the first
        // sink-nest iteration above the whole source nest.
        if let Some((_, dst_nest)) = deps.cross.iter().find_map(|c| match c {
            CrossDep::Barrier { src_nest, dst_nest } => Some((*src_nest, *dst_nest)),
            _ => None,
        }) {
            let items = flatten(&original);
            let sink = *items
                .iter()
                .find(|it| usize::from(it.nest) == dst_nest)
                .unwrap();
            let diags = verify_schedule(
                &program,
                &deps,
                &Schedule::single(&program, hoist_to_front(&items, sink)),
            );
            assert!(
                has_code(&diags, DiagCode::BarrierOrder),
                "{}: barrier hoist must report E_BARRIER_ORDER: {diags:?}",
                app.name
            );
            barrier_reorders += 1;
        }

        // Every app must be mutable at all: at least one dependent-pair
        // operator applied (the drop operator always applies).
        assert!(
            intra_swaps + cross_swaps + barrier_reorders > 0,
            "{}: no dependence-based mutation applied — census changed?",
            app.name
        );
    }

    // Each operator class must be exercised somewhere in the suite.
    assert!(intra_swaps > 0, "no intra swap exercised");
    assert!(cross_swaps > 0, "no cross swap exercised");
    assert!(
        barrier_reorders > 0,
        "no barrier reorder exercised (Visuo's transform→sample barrier?)"
    );
}

/// Deterministic barrier coverage independent of the app census: a
/// constant-subscript read forces a conservative barrier, and hoisting
/// any sink iteration above the source nest is rejected.
#[test]
fn synthetic_barrier_reorder_is_rejected() {
    let p = dpm_ir::parse_program(
        "program t; const N = 4; array T[N][N] : f64; array S[N] : f64;
         nest L1 { for d = 0 .. N-1 { for x = 0 .. N-1 { T[d][x] = 1; } } }
         nest L2 { for x = 0 .. N-1 { S[x] = T[0][x]; } }",
    )
    .unwrap();
    let deps = analyze(&p);
    assert!(
        deps.cross
            .iter()
            .any(|c| matches!(c, CrossDep::Barrier { .. })),
        "premise: constant-subscript read yields a barrier"
    );
    let items = flatten(&original_schedule(&p));
    let sink = *items.iter().find(|it| it.nest == 1).unwrap();
    let diags = verify_schedule(
        &p,
        &deps,
        &Schedule::single(&p, hoist_to_front(&items, sink)),
    );
    assert!(has_code(&diags, DiagCode::BarrierOrder), "{diags:?}");
    // …while the untouched original order is provably fine.
    assert_eq!(verify_schedule(&p, &deps, &original_schedule(&p)), vec![]);
}
