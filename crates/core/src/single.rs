//! Disk-reuse code restructuring for single-processor execution — the
//! algorithm of the paper's Figure 3.
//!
//! Starting from the full iteration pool `Q` (all iterations of all nests),
//! the scheduler repeatedly sweeps the disks in order: during disk `d`'s
//! pass it schedules every still-unscheduled iteration that touches disk
//! `d` *and* whose dependence predecessors have already been scheduled.
//! Iterations blocked by dependences stay in `Q` for a later pass or a
//! later round of the while-loop, exactly as in the paper's worked example
//! (Figure 4). Dependence-free programs finish in a single round with each
//! disk visited once — the perfect disk reuse of Figure 2(c).

use crate::compile::CompiledProgram;
use crate::domain::DomainIndex;
use crate::schedule::{CompactIter, Lane, Schedule};
use dpm_ir::{CrossDep, DependenceInfo, NestId, Program};
use dpm_layout::LayoutMap;

/// Per-nest bookkeeping for the scheduler.
struct NestTable {
    base_id: usize,
    iters: Vec<CompactIter>,
    /// Dense rank of the nest's domain: `iters[index.rank(p)?]` is `p`.
    index: DomainIndex,
    /// Exact intra-nest distance vectors.
    distances: Vec<Vec<i64>>,
    /// `true` if the nest carries a `*` dependence and must keep its
    /// original iteration order.
    serial: bool,
    /// Exact cross-nest predecessor maps: `(src_nest, map)`.
    exact_preds: Vec<(NestId, dpm_ir::IterMap)>,
    /// Nests that must complete entirely before this nest may start.
    barrier_preds: Vec<NestId>,
}

/// A set of global iteration ids as a bit vector — one per disk, the `Q_d`
/// sets of Figure 3 in streamable form. A disk pass walks its set words in
/// ascending id order (`trailing_zeros` over each word), which is exactly
/// the `(nest, index)` visit order of the reference engine because global
/// ids are assigned nest-major.
struct IdBitset {
    words: Vec<u64>,
}

impl IdBitset {
    fn new(len: usize) -> Self {
        IdBitset {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, id: usize) {
        self.words[id / 64] |= 1u64 << (id % 64);
    }
}

/// Whether iteration `idx` of nest `ni` (global id `id`) has all its
/// dependence predecessors scheduled — shared by both scheduling engines
/// and the fallback path. Each predecessor is computed into a stack array
/// and located through its nest's [`DomainIndex`], so the check allocates
/// nothing.
fn iter_ready(
    tables: &[NestTable],
    id: usize,
    ni: usize,
    idx: usize,
    scheduled: &[bool],
    nest_done: &[usize],
    buf: &mut [i64; CompactIter::MAX_DEPTH],
) -> bool {
    let t = &tables[ni];
    for &src in &t.barrier_preds {
        if nest_done[src] < tables[src].iters.len() {
            return false;
        }
    }
    if t.serial && idx > 0 && !scheduled[id - 1] {
        return false;
    }
    if t.distances.is_empty() && t.exact_preds.is_empty() {
        return true;
    }
    let pt = t.iters[idx].coords_into(buf);
    let mut pred = [0i64; CompactIter::MAX_DEPTH];
    for d in &t.distances {
        for ((p, a), b) in pred.iter_mut().zip(pt.iter()).zip(d) {
            *p = a - b;
        }
        if let Some(pid) = find_iter(t, ni, &pred[..pt.len()]) {
            if !scheduled[pid] {
                return false;
            }
        }
    }
    for (src, map) in &t.exact_preds {
        // Every table's nest fits a CompactIter, so the source point does.
        let src_pt = &mut pred[..map.src_depth()];
        for (v, p) in src_pt.iter_mut().enumerate() {
            let (coef, dst_var, constant) = map.term(v);
            *p = coef * pt[dst_var] + constant;
        }
        if let Some(pid) = find_iter(&tables[*src], *src, src_pt) {
            if !scheduled[pid] {
                return false;
            }
        }
    }
    true
}

/// Disk-affinity masks for every iteration, in global-id order (nest
/// by nest, each nest's iterations in table order).
fn compute_masks(program: &Program, layout: &LayoutMap, tables: &[NestTable]) -> Vec<u64> {
    let mut qd = dpm_obs::span!("q_d_compute");
    qd.add("nests", tables.len() as u64);
    let compiled = CompiledProgram::new(program);
    let mut buf = [0i64; CompactIter::MAX_DEPTH];
    let mut masks = Vec::with_capacity(tables.iter().map(|t| t.iters.len()).sum());
    for (ni, t) in tables.iter().enumerate() {
        masks.extend(
            t.iters
                .iter()
                .map(|it| compiled.disk_mask(program, layout, ni, it.coords_into(&mut buf))),
        );
    }
    masks
}

/// The Figure 3 restructuring: schedules all iterations of `program` on one
/// processor, clustering accesses disk by disk while honouring data
/// dependences.
///
/// The per-disk pools `Q_d` are held as `IdBitset`s over global iteration
/// ids, so a disk pass visits only the iterations with affinity to that
/// disk instead of filtering the whole pool per pass; the schedule produced
/// is bit-identical to [`restructure_single_reference`], which keeps the
/// literal mask-filtering loop.
///
/// # Examples
///
/// ```
/// use dpm_layout::{LayoutMap, Striping};
/// let p = dpm_ir::parse_program(
///     "program t; array A[64][8] : f64;
///      nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
/// ).unwrap();
/// let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
/// let deps = dpm_ir::analyze(&p);
/// let schedule = dpm_core::restructure_single(&p, &layout, &deps);
/// schedule.validate_coverage(&p).unwrap();
/// ```
pub fn restructure_single(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
) -> Schedule {
    let mut sp = dpm_obs::span!("single_cpu_schedule");
    let tables = build_tables(program, deps);
    let total: usize = tables.iter().map(|t| t.iters.len()).sum();
    let num_disks = layout.striping().num_disks();
    sp.add("iterations", total as u64);

    let masks = compute_masks(program, layout, &tables);

    // Stream the masks into per-disk bitsets (the Q_d of Figure 3) plus a
    // global-id → nest lookup, so each disk pass touches only its own pool.
    // Iterations that touch no disk at all are folded into disk 0's pass;
    // mask bits beyond the disk count are unreachable by any pass and are
    // left to the fallback path, exactly as in the reference engine.
    let mut qd: Vec<IdBitset> = (0..num_disks.max(1))
        .map(|_| IdBitset::new(total))
        .collect();
    let mut nest_of: Vec<u16> = vec![0; total];
    for (ni, t) in tables.iter().enumerate() {
        for idx in 0..t.iters.len() {
            nest_of[t.base_id + idx] = ni as u16;
        }
    }
    for (id, &m) in masks.iter().enumerate() {
        if m == 0 {
            qd[0].insert(id);
            continue;
        }
        let mut m = m;
        while m != 0 {
            let d = m.trailing_zeros() as usize;
            m &= m - 1;
            if d < num_disks {
                qd[d].insert(id);
            }
        }
    }

    let mut buf = [0i64; CompactIter::MAX_DEPTH];
    let mut scheduled = vec![false; total];
    let mut nest_done = vec![0usize; tables.len()];
    let mut out = Lane::default();
    let mut remaining = total;

    // The while-loop of Figure 3, sweeping bitsets instead of the full pool.
    // An id scheduled during another disk's pass keeps its bit here until
    // observed (lazy clearing): the `scheduled` check skips it exactly where
    // the reference engine's pool filter would.
    let mut rounds = 0u64;
    let mut deferred = 0u64;
    let mut fallbacks = 0u64;
    while remaining > 0 {
        rounds += 1;
        let before = remaining;
        for set in qd.iter_mut().take(num_disks) {
            for wi in 0..set.words.len() {
                let mut w = set.words[wi];
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let id = wi * 64 + b;
                    if scheduled[id] {
                        set.words[wi] &= !(1u64 << b);
                        continue;
                    }
                    let ni = nest_of[id] as usize;
                    let idx = id - tables[ni].base_id;
                    if iter_ready(&tables, id, ni, idx, &scheduled, &nest_done, &mut buf) {
                        scheduled[id] = true;
                        nest_done[ni] += 1;
                        out.push(ni, idx..idx + 1);
                        remaining -= 1;
                        set.words[wi] &= !(1u64 << b);
                    } else {
                        // Dependence-deferred: stays in Q_d for a later pass
                        // or the next round of the while-loop.
                        deferred += 1;
                    }
                }
            }
        }
        if remaining == before {
            // No disk pass could schedule anything (possible only when a
            // dependence spans disks in a pathological way): fall back to
            // the first unscheduled iteration in original order, which is
            // always ready because all dependences point backward.
            fallbacks += 1;
            // Lazy clearing takes care of the id's bits: any pass that
            // still holds it skips it via the `scheduled` check.
            fallback_schedule(
                &tables,
                &mut scheduled,
                &mut nest_done,
                &mut out,
                &mut remaining,
                &mut buf,
            );
        }
    }
    sp.add("rounds", rounds);
    sp.add("deferred", deferred);
    sp.add("fallbacks", fallbacks);
    into_schedule(tables, out)
}

/// The single-phase, single-processor schedule issuing `out`, over the
/// tables' domain indices.
fn into_schedule(tables: Vec<NestTable>, out: Lane) -> Schedule {
    let domains = tables.into_iter().map(|t| t.index).collect();
    let mut schedule = Schedule::from_domains(domains, 1, 1);
    *schedule.lane_mut(0, 0) = out;
    schedule.shrink_to_fit();
    schedule
}

/// Schedules the first unscheduled iteration in original order, asserting
/// it is ready; returns its global id. Shared by both engines' stall paths.
fn fallback_schedule(
    tables: &[NestTable],
    scheduled: &mut [bool],
    nest_done: &mut [usize],
    out: &mut Lane,
    remaining: &mut usize,
    buf: &mut [i64; CompactIter::MAX_DEPTH],
) -> usize {
    for (ni, t) in tables.iter().enumerate() {
        for idx in 0..t.iters.len() {
            let id = t.base_id + idx;
            if scheduled[id] {
                continue;
            }
            assert!(
                iter_ready(tables, id, ni, idx, scheduled, nest_done, buf),
                "dependence cycle at nest {ni} iteration {idx}"
            );
            scheduled[id] = true;
            nest_done[ni] += 1;
            out.push(ni, idx..idx + 1);
            *remaining -= 1;
            return id;
        }
    }
    panic!("scheduler stalled with {remaining} iterations left");
}

/// The pre-bitset Figure 3 engine: every disk pass filters the *entire*
/// iteration pool against the disk's mask bit. Kept as the enumeration
/// reference for the equivalence suite (`tests/poly_equivalence.rs`) and
/// the `compiler_passes` engine microbench; [`restructure_single`] must
/// produce a bit-identical schedule.
pub fn restructure_single_reference(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
) -> Schedule {
    let mut sp = dpm_obs::span!("single_cpu_schedule_reference");
    let tables = build_tables(program, deps);
    let total: usize = tables.iter().map(|t| t.iters.len()).sum();
    let num_disks = layout.striping().num_disks();
    sp.add("iterations", total as u64);

    let masks = compute_masks(program, layout, &tables);
    let mut buf = [0i64; CompactIter::MAX_DEPTH];

    let mut scheduled = vec![false; total];
    let mut nest_done = vec![0usize; tables.len()];
    let mut out = Lane::default();
    let mut remaining = total;

    // The while-loop of Figure 3.
    let mut rounds = 0u64;
    let mut deferred = 0u64;
    let mut fallbacks = 0u64;
    while remaining > 0 {
        rounds += 1;
        let before = remaining;
        for d in 0..num_disks {
            let bit = 1u64 << d;
            for (ni, t) in tables.iter().enumerate() {
                for idx in 0..t.iters.len() {
                    let id = t.base_id + idx;
                    if scheduled[id] {
                        continue;
                    }
                    let m = masks[id];
                    // Iterations that touch no disk at all are folded into
                    // disk 0's pass.
                    if m & bit == 0 && !(m == 0 && d == 0) {
                        continue;
                    }
                    if iter_ready(&tables, id, ni, idx, &scheduled, &nest_done, &mut buf) {
                        scheduled[id] = true;
                        nest_done[ni] += 1;
                        out.push(ni, idx..idx + 1);
                        remaining -= 1;
                    } else {
                        // Dependence-deferred: stays in Q for a later pass
                        // or the next round of the while-loop.
                        deferred += 1;
                    }
                }
            }
        }
        if remaining == before {
            fallbacks += 1;
            fallback_schedule(
                &tables,
                &mut scheduled,
                &mut nest_done,
                &mut out,
                &mut remaining,
                &mut buf,
            );
        }
    }
    sp.add("rounds", rounds);
    sp.add("deferred", deferred);
    sp.add("fallbacks", fallbacks);
    into_schedule(tables, out)
}

/// The untransformed single-processor schedule (nests in program order,
/// iterations lexicographic) as an explicit [`Schedule`]: one run per
/// nest.
pub fn original_schedule(program: &Program) -> Schedule {
    let mut s = Schedule::new(program, 1, 1);
    for ni in 0..program.nests.len() {
        let len = s.domains()[ni].len();
        s.push_ranks(0, 0, ni, 0..len);
    }
    s
}

/// Orders one nest's iteration list for disk reuse: stable sort by the
/// primary (lowest-numbered) disk each iteration touches, with the disk
/// sweep starting at `rotation` and wrapping around. Only legal for nests
/// without intra-nest dependences; callers pass `serial = true` to keep the
/// original order instead.
///
/// The rotation matters for naive multi-processor clustering (the T-…-s
/// versions): each processor's code is restructured *independently*, so
/// different processors' disk sweeps have no reason to start on the same
/// disk; rotating by processor reproduces that interleaving.
///
/// `compiled` is `program` compiled once by the calling pass; `iters`
/// holds ranks of nest `nest` over `domains`, and the reordered ranks are
/// returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cluster_iterations(
    program: &Program,
    layout: &LayoutMap,
    compiled: &CompiledProgram,
    domains: &[DomainIndex],
    nest: NestId,
    iters: Lane,
    serial: bool,
    rotation: usize,
) -> Lane {
    if serial {
        return iters;
    }
    let num_disks = layout.striping().num_disks() as u32;
    let rot = rotation as u32 % num_disks.max(1);
    let mut keyed: Vec<(u32, u32)> = Vec::with_capacity(iters.len());
    let mut walk = iters.walk(domains);
    while let Some((_, rank)) = walk.advance() {
        let mask = compiled.disk_mask(program, layout, nest, walk.coords());
        let primary = if mask == 0 { 0 } else { mask.trailing_zeros() };
        keyed.push(((primary + num_disks - rot) % num_disks, rank as u32));
    }
    keyed.sort_by_key(|&(d, _)| d); // stable: preserves lex order per disk
    let mut out = Lane::default();
    for (_, rank) in keyed {
        out.push(nest, rank as usize..rank as usize + 1);
    }
    out
}

fn build_tables(program: &Program, deps: &DependenceInfo) -> Vec<NestTable> {
    let mut tables = Vec::with_capacity(program.nests.len());
    let mut base = 0usize;
    for (ni, nest) in program.nests.iter().enumerate() {
        let mut iters = Vec::new();
        nest.walk(|pt| iters.push(CompactIter::new(ni, pt)));
        let mut exact_preds = Vec::new();
        let mut barrier_preds = Vec::new();
        for c in &deps.cross {
            match c {
                CrossDep::Exact {
                    src_nest,
                    dst_nest,
                    map,
                } if *dst_nest == ni => exact_preds.push((*src_nest, map.clone())),
                CrossDep::Barrier { src_nest, dst_nest }
                    if *dst_nest == ni && !barrier_preds.contains(src_nest) =>
                {
                    barrier_preds.push(*src_nest);
                }
                _ => {}
            }
        }
        let len = iters.len();
        let index = DomainIndex::new(nest);
        debug_assert_eq!(index.len(), len);
        tables.push(NestTable {
            base_id: base,
            iters,
            index,
            distances: deps.nest_exact_distances(ni),
            serial: deps.nest_requires_original_order(ni),
            exact_preds,
            barrier_preds,
        });
        base += len;
    }
    tables
}

/// Locates an iteration point in a nest table, returning its global id, or
/// `None` when the point lies outside the nest's domain.
///
/// A point that cannot be packed into a [`CompactIter`] — deeper than
/// [`CompactIter::MAX_DEPTH`] or with a coordinate outside `i32` — cannot
/// be in the table, so the lookup answers `None`; but since a missed lookup
/// here means a dependence predecessor is treated as absent, the
/// out-of-range path is reported as an explicit `diagnostic` event rather
/// than silently dropped (see the `find_iter_out_of_range_*` regression
/// tests).
fn find_iter(table: &NestTable, nest: NestId, pt: &[i64]) -> Option<usize> {
    if pt.len() > CompactIter::MAX_DEPTH || pt.iter().any(|&c| i32::try_from(c).is_err()) {
        dpm_obs::emit(
            "diagnostic",
            "find_iter_out_of_range",
            &[
                ("nest", (nest as u64).into()),
                ("depth", (pt.len() as u64).into()),
                ("max_depth", (CompactIter::MAX_DEPTH as u64).into()),
            ],
        );
        return None;
    }
    table.index.rank(pt).map(|idx| table.base_id + idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{iteration_disk_mask, mean_disk_run_length};
    use dpm_layout::Striping;

    fn setup(src: &str, striping: Striping) -> (Program, LayoutMap, DependenceInfo) {
        let p = dpm_ir::parse_program(src).unwrap();
        let layout = LayoutMap::new(&p, striping);
        let deps = dpm_ir::analyze(&p);
        (p, layout, deps)
    }

    #[test]
    fn independent_nest_visits_each_disk_once() {
        // 64×8 f64 = 4 KiB; stripe 512 B ⇒ 8 stripes over 4 disks, 2 each.
        let (p, layout, deps) = setup(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
            Striping::new(512, 4, 0),
        );
        let s = restructure_single(&p, &layout, &deps);
        s.validate_coverage(&p).unwrap();
        // Disk sequence of the schedule must be non-decreasing (each disk
        // visited exactly once).
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        let mut last = 0u32;
        for it in s.iter(0, 0) {
            let m = iteration_disk_mask(&p, &layout, it.nest as usize, it.coords_into(&mut buf));
            let d = m.trailing_zeros();
            assert!(d >= last, "disk went backwards: {d} after {last}");
            last = d;
        }
    }

    #[test]
    fn restructuring_improves_clustering_across_nests() {
        // Two nests with different access patterns over the same arrays —
        // the Figure 2(a) situation.
        let (p, layout, deps) = setup(
            "program fig2; const N = 32;
             array U1[N][N] : f64; array U2[N][N] : f64;
             nest L1 { for i = 0 .. N-1 { for j = 0 .. N-1 { U1[i][j] = 1; } } }
             nest L2 { for i = 0 .. N-1 { for j = 0 .. N-1 { U2[i][j] = 2; } } }",
            Striping::new(512, 4, 0),
        );
        let orig = original_schedule(&p);
        let rest = restructure_single(&p, &layout, &deps);
        rest.validate_coverage(&p).unwrap();
        let r0 = mean_disk_run_length(&p, &layout, &orig);
        let r1 = mean_disk_run_length(&p, &layout, &rest);
        assert!(r1 >= r0, "clustering regressed: {r1} < {r0}");
    }

    #[test]
    fn dependences_are_respected() {
        // A[i] = A[i-3]: distance (3). Any schedule must put i-3 before i.
        let (p, layout, deps) = setup(
            "program t; array A[256] : f64;
             nest L { for i = 3 .. 255 { A[i] = A[i-3]; } }",
            Striping::new(256, 4, 0),
        );
        let s = restructure_single(&p, &layout, &deps);
        s.validate_coverage(&p).unwrap();
        let order: Vec<i64> = s.iter(0, 0).map(|it| it.coords()[0]).collect();
        let pos = |v: i64| order.iter().position(|&x| x == v).unwrap();
        for i in 6..256 {
            assert!(
                pos(i - 3) < pos(i),
                "iteration {} scheduled before its predecessor {}",
                i,
                i - 3
            );
        }
    }

    #[test]
    fn serial_nest_keeps_original_order() {
        let (p, layout, deps) = setup(
            "program t; array A[64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 3 { A[i] = A[i] + 1; } } }",
            Striping::new(64, 4, 0),
        );
        assert!(deps.nest_requires_original_order(0));
        let s = restructure_single(&p, &layout, &deps);
        s.validate_coverage(&p).unwrap();
        let pts: Vec<Vec<i64>> = s.iter(0, 0).map(|it| it.coords()).collect();
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted, "serial nest was reordered");
    }

    #[test]
    fn cross_nest_exact_dependence_respected() {
        // Nest 2 reads what nest 1 wrote, transposed: sink (i, j) needs
        // source (j, i) first.
        let (p, layout, deps) = setup(
            "program t; array A[32][32] : f64; array B[32][32] : f64;
             nest L1 { for i = 0 .. 31 { for j = 0 .. 31 { A[i][j] = 1; } } }
             nest L2 { for i = 0 .. 31 { for j = 0 .. 31 { B[i][j] = A[j][i]; } } }",
            Striping::new(512, 4, 0),
        );
        let s = restructure_single(&p, &layout, &deps);
        s.validate_coverage(&p).unwrap();
        use std::collections::HashMap;
        let mut pos: HashMap<(u16, Vec<i64>), usize> = HashMap::new();
        for (k, it) in s.iter(0, 0).enumerate() {
            pos.insert((it.nest, it.coords()), k);
        }
        for i in 0..32i64 {
            for j in 0..32i64 {
                let sink = pos[&(1u16, vec![i, j])];
                let src = pos[&(0u16, vec![j, i])];
                assert!(src < sink, "A[{j}][{i}] read before written");
            }
        }
    }

    #[test]
    fn barrier_dependence_serializes_nests() {
        let (p, layout, deps) = setup(
            "program t; array A[64][8] : f64;
             nest L1 { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }
             nest L2 { for i = 0 .. 31 { for j = 0 .. 7 { A[2*i][j] = A[2*i][j] + 1; } } }",
            Striping::new(512, 4, 0),
        );
        assert!(deps
            .cross
            .iter()
            .any(|c| matches!(c, dpm_ir::CrossDep::Barrier { .. })));
        let s = restructure_single(&p, &layout, &deps);
        s.validate_coverage(&p).unwrap();
        let order: Vec<CompactIter> = s.iter(0, 0).collect();
        let first_l2 = order.iter().position(|it| it.nest == 1).unwrap();
        let last_l1 = order.iter().rposition(|it| it.nest == 0).unwrap();
        assert!(last_l1 < first_l2, "L2 started before L1 finished");
    }

    /// Both scheduling engines must agree exactly — the bitset engine is
    /// only an optimization. Exercised across dependence-free, intra-nest,
    /// cross-nest-exact, barrier, and serial programs, rectangular and not:
    /// the last two are Cholesky's shape (triangular, with an intra-nest
    /// distance and a transposed cross-nest map) and Visuo's (3-D, with a
    /// barrier).
    #[test]
    fn bitset_engine_matches_reference_engine() {
        let programs = [
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
            "program t; array A[256] : f64;
             nest L { for i = 3 .. 255 { A[i] = A[i-3]; } }",
            "program t; array A[32][32] : f64; array B[32][32] : f64;
             nest L1 { for i = 0 .. 31 { for j = 0 .. 31 { A[i][j] = 1; } } }
             nest L2 { for i = 0 .. 31 { for j = 0 .. 31 { B[i][j] = A[j][i]; } } }",
            "program t; array A[64][8] : f64;
             nest L1 { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }
             nest L2 { for i = 0 .. 31 { for j = 0 .. 7 { A[2*i][j] = A[2*i][j] + 1; } } }",
            "program t; array A[64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 3 { A[i] = A[i] + 1; } } }",
            "program t; const N = 24; array L[N][N] : f64; array S[N][N] : f64;
             nest panel { for i = 1 .. N-1 { for j = 0 .. i { L[i][j] = f(L[i-1][j], L[i][j]); } } }
             nest scale { for i = 0 .. N-1 { for j = 0 .. i { S[i][j] = g(L[i][j], L[j][i]); } } }",
            "program t; const D = 3; const N = 16;
             array V[D][N][N] : f64; array T[D][N][N] : f64; array F[N][N] : f64;
             nest transform { for d = 0 .. D-1 { for x = 0 .. N-1 { for y = 0 .. N-1 {
               T[d][x][y] = f(V[d][x][y]); } } } }
             nest sample { for x = 0 .. N-1 { for y = 0 .. N-1 {
               F[x][y] = g(T[0][x][y], T[D-1][x][y]); } } }",
        ];
        let (cholesky, visuo) = (
            dpm_ir::analyze(&dpm_ir::parse_program(programs[5]).unwrap()),
            dpm_ir::analyze(&dpm_ir::parse_program(programs[6]).unwrap()),
        );
        assert!(cholesky.nest_exact_distances(0).contains(&vec![1, 0]));
        assert!(cholesky.cross.iter().any(|c| matches!(
            c,
            CrossDep::Exact { map, .. } if !map.is_identity()
        )));
        assert!(visuo
            .cross
            .iter()
            .any(|c| matches!(c, CrossDep::Barrier { .. })));
        for src in programs {
            let (p, layout, deps) = setup(src, Striping::new(512, 4, 0));
            let fast = restructure_single(&p, &layout, &deps);
            let reference = restructure_single_reference(&p, &layout, &deps);
            assert_eq!(fast, reference, "{src}");
        }
    }

    /// The domain of `iters: vec![CompactIter::new(0, &[0])]` below.
    fn one_point_index() -> DomainIndex {
        let p = dpm_ir::parse_program(
            "program t; array A[1] : f64; nest L { for i = 0 .. 0 { A[i] = 1; } }",
        )
        .unwrap();
        DomainIndex::new(&p.nests[0])
    }

    /// A dependence-predecessor probe that cannot be packed into a
    /// `CompactIter` answers `None` *and* reports a diagnostic event — the
    /// silent-drop regression guard for depth `MAX_DEPTH + 1`.
    #[test]
    fn find_iter_out_of_range_depth_is_diagnosed() {
        dpm_obs::enable();
        let collector = dpm_obs::install_collector();
        let table = NestTable {
            base_id: 0,
            iters: vec![CompactIter::new(0, &[0])],
            index: one_point_index(),
            distances: Vec::new(),
            serial: false,
            exact_preds: Vec::new(),
            barrier_preds: Vec::new(),
        };
        let too_deep = vec![0i64; CompactIter::MAX_DEPTH + 1];
        assert_eq!(find_iter(&table, 0, &too_deep), None);
        let events = collector.snapshot();
        let diag = events
            .iter()
            .find(|e| e.name == "find_iter_out_of_range")
            .expect("out-of-range lookup must emit a diagnostic");
        assert_eq!(diag.kind, "diagnostic");
    }

    /// Same guard for a coordinate that overflows `i32`.
    #[test]
    fn find_iter_out_of_range_coordinate_is_diagnosed() {
        dpm_obs::enable();
        let collector = dpm_obs::install_collector();
        let table = NestTable {
            base_id: 0,
            iters: vec![CompactIter::new(0, &[0])],
            index: one_point_index(),
            distances: Vec::new(),
            serial: false,
            exact_preds: Vec::new(),
            barrier_preds: Vec::new(),
        };
        assert_eq!(find_iter(&table, 0, &[i64::from(i32::MAX) + 1]), None);
        assert!(collector
            .snapshot()
            .iter()
            .any(|e| e.name == "find_iter_out_of_range"));
    }

    #[test]
    fn cluster_iterations_sorts_by_disk() {
        let (p, layout, _) = setup(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = 1; } } }",
            Striping::new(512, 4, 0),
        );
        let domains = [DomainIndex::new(&p.nests[0])];
        // Shuffle deterministically by reversing.
        let mut iters = Lane::default();
        for rank in (0..domains[0].len()).rev() {
            iters.push(0, rank..rank + 1);
        }
        let iters = cluster_iterations(
            &p,
            &layout,
            &CompiledProgram::new(&p),
            &domains,
            0,
            iters,
            false,
            0,
        );
        assert_eq!(iters.len(), 64 * 8);
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        let mut last = 0;
        for it in iters.walk(&domains) {
            let d = iteration_disk_mask(&p, &layout, 0, it.coords_into(&mut buf)).trailing_zeros();
            assert!(d >= last);
            last = d;
        }
    }
}
