//! Exact schedule legality verification by enumeration.
//!
//! Works for any [`Schedule`] over any program whose iteration domains
//! fit in memory (the Tiny through Large suite scales): it rebuilds the
//! schedule *position* of every iteration, in a per-nest table indexed by
//! the iteration's dense rank ([`DomainIndex`]), and discharges each
//! dependence as a concrete precedes-check, so a violation always comes
//! with a witness iteration pair. Each obligation costs time linear in the
//! iterations it covers, barriers included; only `*` distance vectors are
//! checked pairwise.
//!
//! ## Coverage
//!
//! A [`Schedule`] stores ranks over the domains of the program it was built
//! for, so it can hold only points of *that* program. The verifier never
//! reads those ranks: it ranks each yielded point through `program`'s own
//! [`DomainIndex`]. A *foreign* iteration is therefore one of a schedule
//! built over another program's domains (a wider nest, or more nests) that
//! lies outside `program`'s.
//!
//! ## Ordering model
//!
//! A schedule position is a [`SchedulePos`] `(phase, proc, idx)`. Phases
//! are barriers, so `a` is guaranteed to run before `b` iff
//!
//! ```text
//! a.phase < b.phase  ∨  (a.phase = b.phase ∧ a.proc = b.proc ∧ a.idx < b.idx)
//! ```
//!
//! Same phase on *different* processors means potentially concurrent —
//! never ordered. A dependent pair placed that way is reported as
//! `E_DEP_CONCURRENT` (intra) or as part of `E_CROSS_ORDER` /
//! `E_BARRIER_ORDER` (cross) rather than the plain order codes, so tests
//! can distinguish "ran too early" from "raced".
//!
//! ## Star distances
//!
//! A `*` entry means the dependence distance along that loop is unknown,
//! so *every* lex-positive instantiation is a potential dependence. The
//! checker enumerates them: for each sink iteration it scans all domain
//! points matching the exact entries of the vector and requires each
//! lex-positive match to precede the sink. This is deliberately stronger
//! than "keep the nest serial": a schedule may legally split a starred
//! nest across processors when the partition keeps every dependent pair
//! on one processor (the §6.1 baseline does exactly that), and the
//! per-pair check accepts it while still rejecting any real violation.

use crate::diag::{DiagCode, DiagSink, Diagnostic, Location};
use dpm_core::{CompactIter, DomainIndex, Schedule, SchedulePos};
use dpm_ir::{CrossDep, DependenceInfo, DistElem, Program};

fn precedes(a: SchedulePos, b: SchedulePos) -> bool {
    a.phase < b.phase || (a.phase == b.phase && a.proc == b.proc && a.idx < b.idx)
}

fn concurrent(a: SchedulePos, b: SchedulePos) -> bool {
    a.phase == b.phase && a.proc != b.proc
}

fn fmt_pos(p: SchedulePos) -> String {
    format!("phase {} proc {} idx {}", p.phase, p.proc, p.idx)
}

/// Verifies `schedule` against `program`'s dependences, returning every
/// finding (empty means *proven legal*, coverage included).
///
/// Checks, in order:
/// 1. **Coverage**: every domain point scheduled exactly once, nothing
///    foreign (`E_COVERAGE_*`).
/// 2. **Intra-nest dependences**: exact distance vectors per sink
///    iteration; `*` vectors by per-pair enumeration (`E_DEP_ORDER`,
///    `E_DEP_CONCURRENT`).
/// 3. **Cross-nest dependences**: exact iteration maps pointwise;
///    barriers as all-before-all (`E_CROSS_ORDER`, `E_BARRIER_ORDER`).
pub fn verify_schedule(
    program: &Program,
    deps: &DependenceInfo,
    schedule: &Schedule,
) -> Vec<Diagnostic> {
    let mut sp = dpm_obs::span!("verify_schedule");
    let mut sink = DiagSink::new();

    // Nests too deep to pack in a CompactIter can't be carried by a
    // Schedule at all; report once and bail before enumerating.
    for (ni, nest) in program.nests.iter().enumerate() {
        if nest.depth() > CompactIter::MAX_DEPTH {
            sink.push(Diagnostic::new(
                DiagCode::Malformed,
                Location::nest(ni).with_pos(program.src.nest(ni)),
                format!(
                    "nest {} is {} deep; schedules carry at most {} loop indices",
                    nest.name,
                    nest.depth(),
                    CompactIter::MAX_DEPTH
                ),
            ));
            return sink.finish();
        }
    }

    // Each nest's domain as a dense rank: `pos[ni][rank]` is the position
    // of that iteration, and membership is `rank(..).is_some()`.
    let indices: Vec<DomainIndex> = program.nests.iter().map(DomainIndex::new).collect();
    let mut pos: Vec<Vec<Option<SchedulePos>>> =
        indices.iter().map(|ix| vec![None; ix.len()]).collect();
    // Occurrence lists in schedule order, kept only for barrier endpoints.
    let mut in_barrier = vec![false; program.nests.len()];
    for dep in &deps.cross {
        if let CrossDep::Barrier { src_nest, dst_nest } = dep {
            in_barrier[*src_nest] = true;
            in_barrier[*dst_nest] = true;
        }
    }
    let mut occ: Vec<Vec<(SchedulePos, CompactIter)>> = vec![Vec::new(); program.nests.len()];

    // Pass 1: position table + foreign/duplicate detection.
    schedule.for_each_scheduled(|here, ni, coords| {
        let Some(rank) = indices.get(ni).and_then(|ix| ix.rank(coords)) else {
            sink.push(Diagnostic::new(
                DiagCode::CoverageForeign,
                Location::none(),
                format!(
                    "scheduled iteration nest {} {:?} at {} is outside the program's domains",
                    ni,
                    coords,
                    fmt_pos(here)
                ),
            ));
            return;
        };
        if in_barrier[ni] {
            occ[ni].push((here, CompactIter::new(ni, coords)));
        }
        if let Some(first) = pos[ni][rank].replace(here) {
            sink.push(Diagnostic::new(
                DiagCode::CoverageDuplicate,
                Location::nest(ni).with_pos(program.src.nest(ni)),
                format!(
                    "iteration {} {:?} scheduled twice: {} and {}",
                    program.nests[ni].name,
                    coords,
                    fmt_pos(first),
                    fmt_pos(here)
                ),
            ));
        }
    });

    // Pass 1b: missing iterations.
    for (ni, nest) in program.nests.iter().enumerate() {
        let mut rank = 0;
        nest.walk(|pt| {
            if pos[ni][rank].is_none() {
                sink.push(Diagnostic::new(
                    DiagCode::CoverageMissing,
                    Location::nest(ni).with_pos(program.src.nest(ni)),
                    format!("iteration {} {:?} is never scheduled", nest.name, pt),
                ));
            }
            rank += 1;
        });
    }

    // Pass 2: intra-nest dependences.
    let mut buf = [0i64; CompactIter::MAX_DEPTH];
    for (ni, nest) in program.nests.iter().enumerate() {
        let name = &nest.name;
        let loc = || Location::nest(ni).with_pos(program.src.nest(ni));
        let (index, pos) = (&indices[ni], &pos[ni]);
        // Exact vectors: the source of sink J under distance d is J − d.
        for d in deps.nest_exact_distances(ni) {
            let mut sink_rank = 0;
            nest.walk(|sink_pt| {
                let pj = pos[sink_rank];
                sink_rank += 1;
                let src_pt = &mut buf[..sink_pt.len()];
                for ((s, j), k) in src_pt.iter_mut().zip(sink_pt).zip(&d) {
                    *s = j - k;
                }
                let Some(src_rank) = index.rank(src_pt) else {
                    return;
                };
                let (Some(ps), Some(pj)) = (pos[src_rank], pj) else {
                    return; // already reported as a coverage error
                };
                if !precedes(ps, pj) {
                    let code = if concurrent(ps, pj) {
                        DiagCode::DepConcurrent
                    } else {
                        DiagCode::DepOrder
                    };
                    sink.push(Diagnostic::new(
                        code,
                        loc(),
                        format!(
                            "nest {name}: {src_pt:?} must precede {sink_pt:?} \
                             (distance {d:?}) but runs at {} vs {}",
                            fmt_pos(ps),
                            fmt_pos(pj)
                        ),
                    ));
                }
            });
        }
        // Star vectors: enumerate every potentially dependent pair. Dedup
        // the vectors first — several statement pairs often share one.
        let mut star_vecs: Vec<Vec<DistElem>> = Vec::new();
        for dep in deps.intra.iter().filter(|d| d.nest == ni) {
            if !dep.distance.is_exact() && !star_vecs.contains(&dep.distance.0) {
                star_vecs.push(dep.distance.0.clone());
            }
        }
        for d in &star_vecs {
            let mut sink_rank = 0;
            nest.walk(|sink_pt| {
                let pj = pos[sink_rank];
                sink_rank += 1;
                let mut src_rank = 0;
                nest.walk(|src_pt| {
                    let ps = pos[src_rank];
                    src_rank += 1;
                    // src must match the exact entries and be a true
                    // lexicographic predecessor of the sink.
                    let matches = d.iter().enumerate().all(|(v, e)| match e {
                        DistElem::Exact(k) => sink_pt[v] - src_pt[v] == *k,
                        DistElem::Star => true,
                    });
                    if !matches {
                        return;
                    }
                    let lex_positive = sink_pt
                        .iter()
                        .zip(src_pt)
                        .map(|(j, i)| j - i)
                        .find(|&x| x != 0)
                        .is_some_and(|first| first > 0);
                    if !lex_positive {
                        return;
                    }
                    let (Some(ps), Some(pj)) = (ps, pj) else {
                        return;
                    };
                    if !precedes(ps, pj) {
                        let code = if concurrent(ps, pj) {
                            DiagCode::DepConcurrent
                        } else {
                            DiagCode::DepOrder
                        };
                        sink.push(Diagnostic::new(
                            code,
                            loc(),
                            format!(
                                "nest {name}: {src_pt:?} must precede {sink_pt:?} \
                                 (conservative `*` distance {d:?}) but runs at {} vs {}",
                                fmt_pos(ps),
                                fmt_pos(pj)
                            ),
                        ));
                    }
                });
            });
        }
    }

    // Pass 3: cross-nest dependences.
    for dep in &deps.cross {
        match dep {
            CrossDep::Exact {
                src_nest,
                dst_nest,
                map,
            } => {
                let (si, di) = (*src_nest, *dst_nest);
                let mut dst_rank = 0;
                program.nests[di].walk(|dst_pt| {
                    let pd = pos[di][dst_rank];
                    dst_rank += 1;
                    let src_pt = &mut buf[..map.src_depth()];
                    for (v, s) in src_pt.iter_mut().enumerate() {
                        let (coef, dst_var, constant) = map.term(v);
                        *s = coef * dst_pt[dst_var] + constant;
                    }
                    let Some(src_rank) = indices[si].rank(src_pt) else {
                        return;
                    };
                    let (Some(ps), Some(pd)) = (pos[si][src_rank], pd) else {
                        return;
                    };
                    if !precedes(ps, pd) {
                        sink.push(Diagnostic::new(
                            DiagCode::CrossOrder,
                            Location::nest(di).with_pos(program.src.nest(di)),
                            format!(
                                "{} {:?} must precede {} {:?} (cross-nest dependence){} \
                                 but runs at {} vs {}",
                                program.nests[si].name,
                                src_pt,
                                program.nests[di].name,
                                dst_pt,
                                if concurrent(ps, pd) {
                                    " — scheduled concurrently"
                                } else {
                                    ""
                                },
                                fmt_pos(ps),
                                fmt_pos(pd)
                            ),
                        ));
                    }
                });
            }
            CrossDep::Barrier { src_nest, dst_nest } => {
                if let Some((s, d)) = barrier_witness(&occ[*src_nest], &occ[*dst_nest]) {
                    sink.push(Diagnostic::new(
                        DiagCode::BarrierOrder,
                        Location::nest(*dst_nest).with_pos(program.src.nest(*dst_nest)),
                        format!(
                            "barrier between {} and {} violated: {} {:?} at {} does not \
                             strictly precede {} {:?} at {}",
                            program.nests[*src_nest].name,
                            program.nests[*dst_nest].name,
                            program.nests[*src_nest].name,
                            s.1.coords(),
                            fmt_pos(s.0),
                            program.nests[*dst_nest].name,
                            d.1.coords(),
                            fmt_pos(d.0)
                        ),
                    ));
                }
            }
        }
    }

    let out = sink.finish();
    sp.add("diagnostics", out.len() as u64);
    out
}

/// Finds a violating pair for an all-before-all barrier between the
/// occurrence lists of two nests (each in schedule order), in one pass:
/// only the latest source phase and earliest destination phase can clash.
/// Returns the pair the all-pairs scan would find first — the first
/// source entry that violates against any sink entry, with its first
/// violating sink entry.
fn barrier_witness(
    src: &[(SchedulePos, CompactIter)],
    dst: &[(SchedulePos, CompactIter)],
) -> Option<((SchedulePos, CompactIter), (SchedulePos, CompactIter))> {
    let max_src_phase = src.iter().map(|(p, _)| p.phase).max()?;
    let min_dst_phase = dst.iter().map(|(p, _)| p.phase).min()?;
    if max_src_phase > min_dst_phase {
        let s = *src.iter().find(|(p, _)| p.phase == max_src_phase)?;
        let d = *dst.iter().find(|(p, _)| p.phase == min_dst_phase)?;
        return Some((s, d));
    }
    if max_src_phase < min_dst_phase {
        return None;
    }
    // Same phase: any cross-processor pair is unordered; a same-processor
    // pair is ordered by `idx`. The sink's entries in this phase come
    // in (proc, idx) order, so for a source entry the first violating sink
    // entry is the first one, unless that shares the source's processor
    // and runs later — then every entry on that processor does, and the
    // first entry on another processor is it.
    let p = max_src_phase;
    let mut dst_p = dst.iter().filter(|(q, _)| q.phase == p);
    let first = *dst_p.next()?;
    let other = dst_p.find(|(q, _)| q.proc != first.0.proc).copied();
    src.iter().filter(|(q, _)| q.phase == p).find_map(|&s| {
        if s.0.proc != first.0.proc || s.0.idx > first.0.idx {
            Some((s, first))
        } else {
            other.map(|d| (s, d))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::original_schedule;
    use dpm_ir::{analyze, parse_program};

    fn setup(src: &str) -> (Program, DependenceInfo) {
        let p = parse_program(src).unwrap();
        let d = analyze(&p);
        (p, d)
    }

    #[test]
    fn original_order_always_verifies() {
        let (p, d) = setup(
            "program t; array A[16] : f64;
             nest L { for i = 3 .. 15 { A[i] = A[i-3]; } }",
        );
        let s = original_schedule(&p);
        assert_eq!(verify_schedule(&p, &d, &s), vec![]);
    }

    #[test]
    fn reversed_dependent_nest_is_rejected() {
        let (p, d) = setup(
            "program t; array A[8] : f64;
             nest L { for i = 1 .. 7 { A[i] = A[i-1]; } }",
        );
        let rev = (1..=7).rev().map(|i| CompactIter::new(0, &[i]));
        let diags = verify_schedule(&p, &d, &Schedule::single(&p, rev));
        assert!(
            diags.iter().any(|x| x.code == DiagCode::DepOrder),
            "{diags:?}"
        );
        assert!(diags.iter().all(|x| x.code != DiagCode::CoverageMissing));
    }

    #[test]
    fn dropping_an_iteration_is_rejected() {
        let (p, d) = setup(
            "program t; array A[8] : f64;
             nest L { for i = 0 .. 7 { A[i] = 1; } }",
        );
        let part = (0..7).map(|i| CompactIter::new(0, &[i]));
        let diags = verify_schedule(&p, &d, &Schedule::single(&p, part));
        assert!(diags.iter().any(|x| x.code == DiagCode::CoverageMissing));
    }

    /// A schedule can only hold points of the program it was built over,
    /// so the foreign point comes from a schedule over a wider nest.
    #[test]
    fn duplicate_and_foreign_iterations_are_rejected() {
        let (p, d) = setup(
            "program t; array A[4] : f64;
             nest L { for i = 0 .. 3 { A[i] = 1; } }",
        );
        let wide = parse_program(
            "program t; array A[10] : f64;
             nest L { for i = 0 .. 9 { A[i] = 1; } }",
        )
        .unwrap();
        let mut items: Vec<CompactIter> = (0..4).map(|i| CompactIter::new(0, &[i])).collect();
        items.push(CompactIter::new(0, &[2])); // duplicate
        items.push(CompactIter::new(0, &[9])); // outside `p`'s domain
        let diags = verify_schedule(&p, &d, &Schedule::single(&wide, items));
        assert!(diags.iter().any(|x| x.code == DiagCode::CoverageDuplicate));
        assert!(diags.iter().any(|x| x.code == DiagCode::CoverageForeign));
    }

    #[test]
    fn concurrent_dependent_pair_is_flagged_as_concurrent() {
        let (p, d) = setup(
            "program t; array A[8] : f64;
             nest L { for i = 1 .. 7 { A[i] = A[i-1]; } }",
        );
        // Two procs, one phase: evens on proc 0, odds on proc 1 — every
        // consecutive pair races.
        let mut s = Schedule::new(&p, 2, 1);
        for i in 1..=7i64 {
            s.push(0, (i % 2) as u32, CompactIter::new(0, &[i]));
        }
        let diags = verify_schedule(&p, &d, &s);
        assert!(
            diags.iter().any(|x| x.code == DiagCode::DepConcurrent),
            "{diags:?}"
        );
    }

    /// The §6.1-style legal split of a starred nest: `A[i] = A[i] + 1`
    /// under an `(i, j)` nest has distance `(0, *)` — `j` never appears
    /// in a subscript, so its distance is conservatively unknown, but
    /// `i` is provably 0. Splitting on `i` keeps every dependent pair
    /// on one processor; reordering `j` inside an `i` does not.
    #[test]
    fn star_dependences_allow_partition_but_not_reorder() {
        let (p, d) = setup(
            "program t; array A[4] : f64;
             nest L { for i = 0 .. 3 { for j = 0 .. 3 { A[i] = A[i] + 1; } } }",
        );
        assert!(
            deps_have_star(&d),
            "test premise: dependence must be conservative"
        );
        assert!(
            d.intra
                .iter()
                .all(|dep| dep.distance.0[0] == dpm_ir::DistElem::Exact(0)),
            "test premise: every vector is Exact(0) in dim 0: {:?}",
            d.intra
        );
        // Legal: partition by i across two procs, original j order inside.
        let mut split = Schedule::new(&p, 2, 1);
        for i in 0..4i64 {
            for j in 0..4i64 {
                split.push(0, (i % 2) as u32, CompactIter::new(0, &[i, j]));
            }
        }
        assert_eq!(verify_schedule(&p, &d, &split), vec![]);
        // Illegal: reverse j within one i.
        let mut rev = Vec::new();
        for i in 0..4i64 {
            for j in (0..4i64).rev() {
                rev.push(CompactIter::new(0, &[i, j]));
            }
        }
        let diags = verify_schedule(&p, &d, &Schedule::single(&p, rev));
        assert!(
            diags.iter().any(|x| x.code == DiagCode::DepOrder),
            "{diags:?}"
        );
    }

    fn deps_have_star(d: &DependenceInfo) -> bool {
        d.intra.iter().any(|dep| !dep.distance.is_exact())
    }

    #[test]
    fn cross_nest_exact_order_is_enforced() {
        let (p, d) = setup(
            "program t; const N = 4; array A[N][N] : f64; array B[N][N] : f64;
             nest L1 { for i = 0 .. N-1 { for j = 0 .. N-1 { A[i][j] = 1; } } }
             nest L2 { for i = 0 .. N-1 { for j = 0 .. N-1 { B[i][j] = A[j][i]; } } }",
        );
        assert!(
            d.cross.iter().any(|c| matches!(c, CrossDep::Exact { .. })),
            "test premise: transposed read gives an exact cross map"
        );
        let ok = original_schedule(&p);
        assert_eq!(verify_schedule(&p, &d, &ok), vec![]);
        // Hoist one L2 iteration before its transposed L1 source.
        let hoisted = CompactIter::new(1, &[3, 1]);
        let items = std::iter::once(hoisted).chain(ok.iter(0, 0).filter(|&it| it != hoisted));
        let diags = verify_schedule(&p, &d, &Schedule::single(&p, items));
        assert!(
            diags.iter().any(|x| x.code == DiagCode::CrossOrder),
            "{diags:?}"
        );
    }

    #[test]
    fn cross_nest_barrier_is_enforced() {
        // T[0][x] read against writes T[d][x]: subscript pair (var, const)
        // has no exact iteration map, so the analyzer emits a Barrier.
        let (p, d) = setup(
            "program t; const N = 4; array T[N][N] : f64; array S[N] : f64;
             nest L1 { for dd = 0 .. N-1 { for x = 0 .. N-1 { T[dd][x] = 1; } } }
             nest L2 { for x = 0 .. N-1 { S[x] = T[0][x]; } }",
        );
        assert!(
            d.cross
                .iter()
                .any(|c| matches!(c, CrossDep::Barrier { .. })),
            "test premise: constant-row read must yield a barrier, got {:?}",
            d.cross
        );
        let ok = original_schedule(&p);
        assert_eq!(verify_schedule(&p, &d, &ok), vec![]);
        // Move the first L2 iteration to the very front.
        let hoisted = CompactIter::new(1, &[0]);
        let items = std::iter::once(hoisted).chain(ok.iter(0, 0).filter(|&it| it != hoisted));
        let diags = verify_schedule(&p, &d, &Schedule::single(&p, items));
        assert!(
            diags.iter().any(|x| x.code == DiagCode::BarrierOrder),
            "{diags:?}"
        );
    }

    /// The all-pairs barrier scan the one-pass [`barrier_witness`]
    /// replaced, kept as its oracle.
    fn barrier_witness_all_pairs(
        src: &[(SchedulePos, CompactIter)],
        dst: &[(SchedulePos, CompactIter)],
    ) -> Option<((SchedulePos, CompactIter), (SchedulePos, CompactIter))> {
        let max_src_phase = src.iter().map(|(p, _)| p.phase).max()?;
        let min_dst_phase = dst.iter().map(|(p, _)| p.phase).min()?;
        if max_src_phase > min_dst_phase {
            let s = *src.iter().find(|(p, _)| p.phase == max_src_phase)?;
            let d = *dst.iter().find(|(p, _)| p.phase == min_dst_phase)?;
            return Some((s, d));
        }
        if max_src_phase < min_dst_phase {
            return None;
        }
        let p = max_src_phase;
        let src_p: Vec<_> = src.iter().filter(|(q, _)| q.phase == p).collect();
        let dst_p: Vec<_> = dst.iter().filter(|(q, _)| q.phase == p).collect();
        for s in &src_p {
            for d in &dst_p {
                if s.0.proc != d.0.proc || s.0.idx > d.0.idx {
                    return Some((**s, **d));
                }
            }
        }
        None
    }

    /// Every placement of up to five source/sink iterations over 1–3
    /// processors and 1–2 phases, in every order within each (phase,
    /// processor) list: the one-pass witness equals the all-pairs one.
    #[test]
    fn one_pass_barrier_witness_matches_all_pairs_scan() {
        let mut checked = 0u64;
        for (phases, procs) in [(1u32, 1u32), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)] {
            let slots = phases * procs;
            for n in 1..=5u32 {
                for kinds in 0..1u32 << n {
                    for code in 0..slots.pow(n) {
                        // Item k is a source iff bit k of `kinds` is set, and
                        // goes to slot `code`'s k-th base-`slots` digit; items
                        // keep their k order within a slot.
                        let mut lists = vec![Vec::new(); slots as usize];
                        let mut c = code;
                        for k in 0..n {
                            lists[(c % slots) as usize].push(k);
                            c /= slots;
                        }
                        let (mut src, mut dst) = (Vec::new(), Vec::new());
                        for (slot, list) in lists.iter().enumerate() {
                            for (idx, &k) in list.iter().enumerate() {
                                let at = SchedulePos::new(
                                    slot as u32 / procs,
                                    slot as u32 % procs,
                                    idx as u32,
                                );
                                let it = CompactIter::new(0, &[i64::from(k)]);
                                if kinds >> k & 1 == 1 {
                                    src.push((at, it));
                                } else {
                                    dst.push((at, it));
                                }
                            }
                        }
                        assert_eq!(
                            barrier_witness(&src, &dst),
                            barrier_witness_all_pairs(&src, &dst),
                            "src {src:?} dst {dst:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100_000, "{checked}");
    }

    #[test]
    fn barrier_allows_multi_phase_separation() {
        let (p, d) = setup(
            "program t; const N = 4; array T[N][N] : f64; array S[N] : f64;
             nest L1 { for dd = 0 .. N-1 { for x = 0 .. N-1 { T[dd][x] = 1; } } }
             nest L2 { for x = 0 .. N-1 { S[x] = T[0][x]; } }",
        );
        // L1 in phase 0 across two procs, L2 in phase 1: legal.
        let mut s = Schedule::new(&p, 2, 2);
        for dd in 0..4i64 {
            for x in 0..4i64 {
                s.push(0, (dd % 2) as u32, CompactIter::new(0, &[dd, x]));
            }
        }
        for x in 0..4i64 {
            s.push(1, 0, CompactIter::new(1, &[x]));
        }
        assert_eq!(verify_schedule(&p, &d, &s), vec![]);
        // Same phase on different procs: unordered, must be rejected.
        let mut racy = Schedule::new(&p, 2, 1);
        for dd in 0..4i64 {
            for x in 0..4i64 {
                racy.push(0, 0, CompactIter::new(0, &[dd, x]));
            }
        }
        for x in 0..4i64 {
            racy.push(0, 1, CompactIter::new(1, &[x]));
        }
        let diags = verify_schedule(&p, &d, &racy);
        assert!(
            diags.iter().any(|x| x.code == DiagCode::BarrierOrder),
            "{diags:?}"
        );
    }
}
