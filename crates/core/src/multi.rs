//! Code parallelization for multi-processor execution.
//!
//! * [`parallelize_baseline`] — the conventional loop-based scheme of §6.1:
//!   each nest's outermost parallelizable loop is block-partitioned across
//!   the processors, nest by nest, with no regard for which data (disks)
//!   each processor ends up touching.
//! * [`parallelize_layout_aware`] — the paper's contribution (§6.2): array
//!   elements are first divided into per-processor regions (a distribution
//!   dimension per array, chosen by majority vote over the nests' access
//!   patterns — the *unification step*), and every nest's iterations are
//!   then assigned to the processor owning the data they touch, so the same
//!   processor keeps hitting the same array region — and therefore the same
//!   disks — across all nests (Figure 6(b)).
//!
//! Both produce one phase per nest (a barrier-synchronized parallel loop),
//! and both can optionally apply the single-processor disk-reuse clustering
//! (§5) within each processor's per-nest chunk — yielding the paper's
//! T-…-s and T-…-m code versions.

use crate::schedule::{Lane, Schedule};
use crate::single::cluster_iterations;
use dpm_ir::{outermost_parallel_loop, ArrayId, DependenceInfo, NestId, Program};
use dpm_layout::LayoutMap;
use dpm_trace::compile::CompiledProgram;

/// Which parallelization strategy assigned iterations to processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Block partition of the outermost parallel loop (§6.1).
    Baseline,
    /// Data-region (disk-layout-aware) ownership (§6.2).
    LayoutAware,
}

/// Loop-based parallelization (§6.1): block-partitions each nest's
/// outermost parallelizable loop over `num_procs` processors. Nests with no
/// parallelizable loop run entirely on processor 0. With `cluster` set,
/// each processor's chunk is afterwards reordered for disk reuse (§5),
/// producing the T-…-s versions.
pub fn parallelize_baseline(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
    num_procs: u32,
    cluster: bool,
) -> Schedule {
    let mut sp = dpm_obs::span!("parallelize_baseline");
    sp.add("procs", u64::from(num_procs));
    sp.add("phases", program.nests.len() as u64);
    let mut schedule = Schedule::new(program, num_procs, program.nests.len());
    let compiled = CompiledProgram::new(program);
    for ni in 0..program.nests.len() {
        let chunks = baseline_chunks(program, deps, ni, num_procs);
        // Each processor's chunk is restructured independently (§5 applied
        // per processor), so the per-processor disk sweeps interleave.
        finish_phase(
            program,
            layout,
            &compiled,
            deps,
            ni,
            chunks,
            cluster,
            true,
            &mut schedule,
        );
    }
    schedule.shrink_to_fit();
    schedule
}

/// Disk-layout-aware parallelization (§6.2). Each array gets a distribution
/// dimension by majority vote over the nests that access it (the
/// unification step); each processor owns an equal block of every array
/// along its distribution dimension; and each nest's iterations go to the
/// processor owning the elements touched by the nest's representative
/// reference. Nests whose data dependences make a data-driven split unsafe
/// fall back to the baseline partition. With `cluster` set, per-processor
/// chunks are reordered for disk reuse (§5), producing the T-…-m versions.
pub fn parallelize_layout_aware(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
    num_procs: u32,
    cluster: bool,
) -> Schedule {
    let mut sp = dpm_obs::span!("parallelize_layout_aware");
    sp.add("procs", u64::from(num_procs));
    sp.add("phases", program.nests.len() as u64);
    let mut schedule = Schedule::new(program, num_procs, program.nests.len());
    let compiled = CompiledProgram::new(program);
    for ni in 0..program.nests.len() {
        let nest = &program.nests[ni];
        let parallel = outermost_parallel_loop(&deps.nest_distances(ni), nest.depth());
        let has_intra_deps =
            !deps.nest_exact_distances(ni).is_empty() || deps.nest_requires_original_order(ni);
        let chunks = if parallel.is_none() {
            // Fully serial nest: everything on processor 0.
            sp.incr("serial_phases");
            serial_chunks(program, ni, num_procs)
        } else if has_intra_deps {
            // A data-driven split could break the dependence structure the
            // baseline partition is known to respect; stay conservative.
            sp.incr("baseline_fallbacks");
            baseline_chunks(program, deps, ni, num_procs)
        } else {
            sp.incr("region_phases");
            region_chunks(program, layout, &compiled, ni, num_procs)
        };
        finish_phase(
            program,
            layout,
            &compiled,
            deps,
            ni,
            chunks,
            cluster,
            false,
            &mut schedule,
        );
    }
    schedule.shrink_to_fit();
    schedule
}

/// The distribution dimension chosen for each array by the unification
/// step: for every nest, each reference votes for the array dimension that
/// its subscript ties to the nest's partitioned (outermost parallel) loop;
/// the dimension with the most votes wins (ties break toward the outer
/// dimension, the row-block layout of the paper's example).
pub fn distribution_dims(program: &Program, deps: &DependenceInfo) -> Vec<usize> {
    let mut sp = dpm_obs::span!("unification");
    sp.add("arrays", program.arrays.len() as u64);
    let mut votes: Vec<Vec<u32>> = program
        .arrays
        .iter()
        .map(|a| vec![0u32; a.rank()])
        .collect();
    for (ni, nest) in program.nests.iter().enumerate() {
        let Some(par) = outermost_parallel_loop(&deps.nest_distances(ni), nest.depth()) else {
            continue;
        };
        for r in nest.all_refs() {
            for (dim, ix) in r.indices.iter().enumerate() {
                if ix.coeff(par) != 0 {
                    votes[r.array][dim] += 1;
                    sp.incr("votes");
                }
            }
        }
    }
    votes
        .into_iter()
        .map(|v| {
            v.iter()
                .enumerate()
                .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// The processor that owns `coords` of `array` under a block distribution
/// along `dim`.
pub fn region_owner(
    program: &Program,
    array: ArrayId,
    dim: usize,
    coords: &[i64],
    num_procs: u32,
) -> u32 {
    let extent = program.arrays[array].dims[dim];
    let c = coords[dim].clamp(0, extent as i64 - 1) as u64;
    let owner = c * u64::from(num_procs) / extent;
    (owner as u32).min(num_procs - 1)
}

/// Block partition of the nest's outermost parallel loop; all iterations to
/// processor 0 when no loop is parallelizable. Like `region_chunks`, it
/// walks the nest once, counting ranks, and pushes each rank to its owner.
fn baseline_chunks(
    program: &Program,
    deps: &DependenceInfo,
    ni: NestId,
    num_procs: u32,
) -> Vec<Lane> {
    let nest = &program.nests[ni];
    let parallel = outermost_parallel_loop(&deps.nest_distances(ni), nest.depth());
    let Some(k) = parallel else {
        return serial_chunks(program, ni, num_procs);
    };
    // Iteration count per parallel-loop value, for a load-balanced block
    // partition (equal-value ranges would skew badly on triangular nests).
    use std::collections::BTreeMap;
    let mut per_value: BTreeMap<i64, u64> = BTreeMap::new();
    let mut total = 0u64;
    dpm_trace::walk_nest(nest, &mut |pt| {
        *per_value.entry(pt[k]).or_insert(0) += 1;
        total += 1;
    });
    // Assign each value of the parallel loop to a processor so cumulative
    // iteration counts split evenly.
    let mut owner_of: BTreeMap<i64, u32> = BTreeMap::new();
    let mut seen = 0u64;
    for (&v, &count) in &per_value {
        let owner = ((seen * u64::from(num_procs)) / total.max(1)) as u32;
        owner_of.insert(v, owner.min(num_procs - 1));
        seen += count;
    }
    let mut chunks = vec![Lane::default(); num_procs as usize];
    let mut rank = 0;
    dpm_trace::walk_nest(nest, &mut |pt| {
        let owner = owner_of[&pt[k]];
        chunks[owner as usize].push(ni, rank..rank + 1);
        rank += 1;
    });
    chunks
}

fn serial_chunks(program: &Program, ni: NestId, num_procs: u32) -> Vec<Lane> {
    let mut chunks = vec![Lane::default(); num_procs as usize];
    chunks[0].push(ni, 0..program.nests[ni].trip_count() as usize);
    chunks
}

/// Affinity classes (§6.2.2's third issue): arrays whose elements are
/// touched by the same loop iteration belong together — iteration
/// assignment must consider them jointly, or the arrays left out see no
/// disk reuse. Computed as connected components of the "co-referenced in
/// one statement" relation.
pub fn affinity_classes(program: &Program) -> Vec<Vec<ArrayId>> {
    let mut sp = dpm_obs::span!("affinity_classes");
    let n = program.arrays.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for nest in &program.nests {
        for stmt in &nest.body {
            let mut prev: Option<usize> = None;
            for r in &stmt.refs {
                if let Some(p) = prev {
                    let (a, b) = (find(&mut parent, p), find(&mut parent, r.array));
                    if a != b {
                        parent[a] = b;
                    }
                }
                prev = Some(r.array);
            }
        }
    }
    let mut classes: std::collections::BTreeMap<usize, Vec<ArrayId>> = Default::default();
    for a in 0..n {
        let root = find(&mut parent, a);
        classes.entry(root).or_default().push(a);
    }
    let out: Vec<Vec<ArrayId>> = classes.into_values().collect();
    sp.add("arrays", n as u64);
    sp.add("classes", out.len() as u64);
    out
}

/// The processor owning disk `disk` when the disks are divided into
/// `num_procs` contiguous groups — the paper's "partitions the disks in the
/// storage system across the processors" (§6.2.2).
pub fn disk_group_owner(disk: usize, num_disks: usize, num_procs: u32) -> u32 {
    ((disk as u64 * u64::from(num_procs) / num_disks as u64) as u32).min(num_procs - 1)
}

/// Data-region (disk-ownership) assignment: each iteration goes to the
/// processor owning the I/O node that holds the element its representative
/// reference touches. Because the regions `Z_{s,j}` are defined by disk
/// ownership, the same processor keeps hitting the same disks in *every*
/// nest — the localization the paper's unification step aims for.
fn region_chunks(
    program: &Program,
    layout: &LayoutMap,
    compiled: &CompiledProgram,
    ni: NestId,
    num_procs: u32,
) -> Vec<Lane> {
    // Representative reference: the first write, else the first reference.
    let refs = || compiled.nest(ni).iter().flat_map(|stmt| &stmt.refs);
    let Some(rep) = refs().find(|r| r.kind.is_write()).or_else(|| refs().next()) else {
        return serial_chunks(program, ni, num_procs);
    };
    let striping = layout.striping();
    let num_disks = striping.num_disks();
    let mut chunks = vec![Lane::default(); num_procs as usize];
    let mut rank = 0;
    dpm_trace::walk_nest(&program.nests[ni], &mut |pt| {
        let disk = striping.disk_of_offset(rep.offset(program, layout, pt));
        let owner = disk_group_owner(disk, num_disks, num_procs);
        chunks[owner as usize].push(ni, rank..rank + 1);
        rank += 1;
    });
    chunks
}

/// Installs a phase's chunks into the schedule, optionally clustering each
/// processor's chunk for disk reuse. With `rotate` set (independent
/// per-processor restructuring), processor `s`'s disk sweep starts at disk
/// `s·D/p` instead of disk 0.
#[allow(clippy::too_many_arguments)]
fn finish_phase(
    program: &Program,
    layout: &LayoutMap,
    compiled: &CompiledProgram,
    deps: &DependenceInfo,
    ni: NestId,
    chunks: Vec<Lane>,
    cluster: bool,
    rotate: bool,
    schedule: &mut Schedule,
) {
    let serial = deps.nest_requires_original_order(ni) || !deps.nest_exact_distances(ni).is_empty();
    let num_disks = layout.striping().num_disks();
    let num_procs = chunks.len().max(1);
    for (proc, mut chunk) in chunks.into_iter().enumerate() {
        if cluster {
            let rotation = if rotate {
                proc * num_disks / num_procs
            } else {
                0
            };
            let domains = schedule.domains();
            chunk = cluster_iterations(
                program, layout, compiled, domains, ni, chunk, serial, rotation,
            );
        }
        *schedule.lane_mut(ni, proc as u32) = chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{iteration_disk_mask, CompactIter};
    use dpm_layout::Striping;

    fn setup(src: &str, striping: Striping) -> (Program, LayoutMap, DependenceInfo) {
        let p = dpm_ir::parse_program(src).unwrap();
        let layout = LayoutMap::new(&p, striping);
        let deps = dpm_ir::analyze(&p);
        (p, layout, deps)
    }

    /// The Figure 5 scenario: three nests over one array; two access it by
    /// rows, one by columns.
    fn fig5() -> (Program, LayoutMap, DependenceInfo) {
        setup(
            "program fig5; const N = 32;
             array A[N][N] : f64; array B[N][N] : f64; array C[N][N] : f64;
             nest L1 { for i = 0 .. N-1 { for j = 0 .. N-1 { B[i][j] = A[i][j]; } } }
             nest L2 { for i = 0 .. N-1 { for j = 0 .. N-1 { C[i][j] = A[j][i]; } } }
             nest L3 { for i = 0 .. N-1 { for j = 0 .. N-1 { B[i][j] = A[i][j] + 1; } } }",
            Striping::new(512, 4, 0),
        )
    }

    #[test]
    fn baseline_partitions_outermost_loop() {
        let (p, layout, deps) = fig5();
        let s = parallelize_baseline(&p, &layout, &deps, 4, false);
        s.validate_coverage(&p).unwrap();
        // Each processor gets 8 consecutive i-values of each nest.
        for proc in 0..4u32 {
            for it in s.iter(0, proc) {
                let i = it.coords()[0];
                assert_eq!((i / 8) as u32, proc);
            }
        }
    }

    #[test]
    fn unification_votes_row_block_for_majority() {
        let (p, _, deps) = fig5();
        let dims = distribution_dims(&p, &deps);
        // A: L1 and L3 tie i (parallel loop) to dim 0; L2 ties i to dim 1.
        // Majority → dim 0 (row-block), as in the paper's example.
        assert_eq!(dims[p.array_by_name("A").unwrap()], 0);
        assert_eq!(dims[p.array_by_name("B").unwrap()], 0);
        // C is written with i in dim 0 by L2 only.
        assert_eq!(dims[p.array_by_name("C").unwrap()], 0);
    }

    #[test]
    fn layout_aware_keeps_processor_on_its_disks() {
        let (p, layout, deps) = fig5();
        let s = parallelize_layout_aware(&p, &layout, &deps, 4, false);
        s.validate_coverage(&p).unwrap();
        // Every iteration's *written* element lives on a disk owned by the
        // executing processor, in every nest — the §6.2.2 disk
        // partitioning.
        let num_disks = layout.striping().num_disks();
        for phase in 0..s.num_phases() {
            for proc in 0..4u32 {
                for it in s.iter(phase, proc) {
                    let nest = &p.nests[it.nest as usize];
                    let w = nest.all_refs().find(|r| r.kind.is_write()).unwrap();
                    let coords = w.element_at(&it.coords());
                    let d = layout.disk_of_element(&p, w.array, &coords);
                    assert_eq!(
                        disk_group_owner(d, num_disks, 4),
                        proc,
                        "phase {phase} proc {proc} touched disk {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn affinity_classes_group_coaccessed_arrays() {
        let (p, _, _) = fig5();
        // L1: B ← A; L2: C ← A; L3: B ← A ⇒ one class {A, B, C}.
        let classes = affinity_classes(&p);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].len(), 3);
        // A program with two independent pipelines has two classes.
        let q = dpm_ir::parse_program(
            "program t; array A[8] : f64; array B[8] : f64;
             array C[8] : f64; array D[8] : f64;
             nest L1 { for i = 0 .. 7 { B[i] = A[i]; } }
             nest L2 { for i = 0 .. 7 { D[i] = C[i]; } }",
        )
        .unwrap();
        let classes = affinity_classes(&q);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![0, 1]);
        assert_eq!(classes[1], vec![2, 3]);
    }

    #[test]
    fn disk_group_owner_partitions_evenly() {
        let owners: Vec<u32> = (0..8).map(|d| disk_group_owner(d, 8, 4)).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        let owners2: Vec<u32> = (0..8).map(|d| disk_group_owner(d, 8, 3)).collect();
        assert_eq!(owners2, vec![0, 0, 0, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn layout_aware_differs_from_baseline_on_transposed_nest() {
        let (p, layout, deps) = fig5();
        let base = parallelize_baseline(&p, &layout, &deps, 4, false);
        let aware = parallelize_layout_aware(&p, &layout, &deps, 4, false);
        // L2 writes C[i][j] reading A[j][i]; under layout-aware assignment
        // iterations of L2 go to the owner of C's rows — same as baseline
        // here. The interesting difference: each processor's *disk
        // footprint* across all three phases is narrower under the aware
        // scheme (measured via masks).
        let footprint = |s: &Schedule| -> Vec<u64> {
            let mut buf = [0i64; CompactIter::MAX_DEPTH];
            (0..4u32)
                .map(|proc| {
                    let mut m = 0u64;
                    for phase in 0..s.num_phases() {
                        for it in s.iter(phase, proc) {
                            m |= iteration_disk_mask(
                                &p,
                                &layout,
                                it.nest as usize,
                                it.coords_into(&mut buf),
                            );
                        }
                    }
                    m
                })
                .collect()
        };
        let fb: Vec<u32> = footprint(&base).iter().map(|m| m.count_ones()).collect();
        let fa: Vec<u32> = footprint(&aware).iter().map(|m| m.count_ones()).collect();
        let sum_b: u32 = fb.iter().sum();
        let sum_a: u32 = fa.iter().sum();
        assert!(sum_a <= sum_b, "aware {fa:?} vs base {fb:?}");
    }

    #[test]
    fn serial_nest_lands_on_proc0() {
        let (p, layout, deps) = setup(
            "program t; array A[64] : f64;
             nest L { for i = 1 .. 63 { A[i] = A[i-1]; } }",
            Striping::new(64, 4, 0),
        );
        let s = parallelize_baseline(&p, &layout, &deps, 4, false);
        s.validate_coverage(&p).unwrap();
        assert_eq!(s.len(0, 0), 63);
        for proc in 1..4 {
            assert_eq!(s.len(0, proc), 0);
        }
        let a = parallelize_layout_aware(&p, &layout, &deps, 4, false);
        a.validate_coverage(&p).unwrap();
        assert_eq!(a.len(0, 0), 63);
    }

    #[test]
    fn dependent_nest_falls_back_to_baseline_partition() {
        // d = (1, 0): i loop carries it, j parallelizable at level 1. The
        // layout-aware scheme must not split by data region here.
        let (p, layout, deps) = setup(
            "program t; array A[32][32] : f64;
             nest L { for i = 1 .. 31 { for j = 0 .. 31 { A[i][j] = A[i-1][j]; } } }",
            Striping::new(512, 4, 0),
        );
        let s = parallelize_layout_aware(&p, &layout, &deps, 4, false);
        s.validate_coverage(&p).unwrap();
        // Baseline partitions the parallel loop (j): each processor's j
        // values form one block.
        for proc in 0..4u32 {
            for it in s.iter(0, proc) {
                let j = it.coords()[1];
                assert_eq!((j / 8) as u32, proc);
            }
        }
    }

    #[test]
    fn clustering_is_applied_per_chunk() {
        let (p, layout, deps) = fig5();
        let s = parallelize_layout_aware(&p, &layout, &deps, 2, true);
        s.validate_coverage(&p).unwrap();
        // Within each (phase, proc) chunk the primary-disk sequence is
        // non-decreasing.
        let mut buf = [0i64; CompactIter::MAX_DEPTH];
        for phase in 0..3 {
            for proc in 0..2u32 {
                let mut last = 0u32;
                for it in s.iter(phase, proc) {
                    let m = iteration_disk_mask(
                        &p,
                        &layout,
                        it.nest as usize,
                        it.coords_into(&mut buf),
                    );
                    if m == 0 {
                        continue;
                    }
                    let d = m.trailing_zeros();
                    assert!(d >= last, "phase {phase} proc {proc}");
                    last = d;
                }
            }
        }
    }
}
