//! Property tests for the parallelization schemes: coverage, load balance,
//! disk ownership, and phase structure over randomized programs.
//!
//! Off by default: needs the external `proptest` crate, which this tree
//! does not depend on so that it builds fully offline. To run, re-add a
//! `proptest` dev-dependency and pass `--features proptests`.
#![cfg(feature = "proptests")]

use dpm_core::{disk_group_owner, parallelize_baseline, parallelize_layout_aware, Schedule};
use dpm_ir::Program;
use dpm_layout::{LayoutMap, Striping};
use proptest::prelude::*;

fn arb_program() -> impl Strategy<Value = Program> {
    (2u64..14, 2u64..14, prop::bool::ANY, prop::bool::ANY).prop_map(
        |(rows, cols, transposed, second_nest)| {
            let n = rows.max(cols);
            let extra = if second_nest {
                let reads = if transposed { "A[j][i]" } else { "A[i][j]" };
                format!(
                    "nest L2 {{ for i = 0 .. {m} {{ for j = 0 .. {m} {{
                         B[i][j] = f({reads});
                     }} }} }}",
                    m = n - 1
                )
            } else {
                String::new()
            };
            let src = format!(
                "program rnd;
                 const N = {n};
                 array A[N][N] : f64; array B[N][N] : f64;
                 nest L1 {{ for i = 0 .. N-1 {{ for j = 0 .. N-1 {{
                     A[i][j] = g(A[i][j]);
                 }} }} }}
                 {extra}"
            );
            dpm_ir::parse_program(&src).expect("generated program parses")
        },
    )
}

fn arb_striping() -> impl Strategy<Value = Striping> {
    (32u64..256, 2usize..9).prop_map(|(unit, disks)| Striping::new(unit, disks, 0))
}

/// Returns per-(phase, proc) iteration counts.
fn loads(s: &Schedule) -> Vec<Vec<usize>> {
    (0..s.num_phases())
        .map(|ph| (0..s.num_procs()).map(|p| s.len(ph, p)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Baseline parallelization balances each dependence-free nest to
    /// within one parallel-loop slice per processor.
    #[test]
    fn baseline_is_load_balanced(p in arb_program(), s in arb_striping(), procs in 1u32..5) {
        let layout = LayoutMap::new(&p, s);
        let deps = dpm_ir::analyze(&p);
        let sched = parallelize_baseline(&p, &layout, &deps, procs, false);
        sched.validate_coverage(&p).unwrap();
        for (ph, nest) in p.nests.iter().enumerate() {
            let counts = &loads(&sched)[ph];
            let total: usize = counts.iter().sum();
            prop_assert_eq!(total as u64, nest.trip_count());
            // Each chunk within one slice (= inner trip count) of fair.
            let depth = nest.depth();
            let slice = if depth >= 2 { nest.trip_count() as usize / counts.len().max(1) } else { 0 };
            let fair = total / counts.len();
            for &c in counts {
                prop_assert!(c <= fair + slice.max(1) + fair / 2 + 1,
                    "unbalanced: {counts:?}");
            }
        }
    }

    /// Layout-aware assignment puts every dependence-free iteration's write
    /// on a disk owned by its processor.
    #[test]
    fn layout_aware_owns_its_disks(p in arb_program(), s in arb_striping(), procs in 2u32..5) {
        let layout = LayoutMap::new(&p, s);
        let deps = dpm_ir::analyze(&p);
        let sched = parallelize_layout_aware(&p, &layout, &deps, procs, true);
        sched.validate_coverage(&p).unwrap();
        let nd = s.num_disks();
        for ph in 0..sched.num_phases() {
            // Skip nests that fell back to the baseline partition.
            if !deps.nest_exact_distances(ph).is_empty()
                || deps.nest_requires_original_order(ph)
            {
                continue;
            }
            for proc in 0..procs {
                for it in sched.iter(ph, proc) {
                    let nest = &p.nests[it.nest as usize];
                    let Some(w) = nest.all_refs().find(|r| r.kind.is_write()) else {
                        continue;
                    };
                    let coords = w.element_at(&it.coords());
                    let d = layout.disk_of_element(&p, w.array, &coords);
                    prop_assert_eq!(disk_group_owner(d, nd, procs), proc);
                }
            }
        }
    }

    /// Phases equal nests, and a one-processor parallelization degenerates
    /// to the sequential order nest by nest.
    #[test]
    fn single_proc_parallelization_is_sequential(p in arb_program(), s in arb_striping()) {
        let layout = LayoutMap::new(&p, s);
        let deps = dpm_ir::analyze(&p);
        let sched = parallelize_baseline(&p, &layout, &deps, 1, false);
        prop_assert_eq!(sched.num_phases(), p.nests.len());
        for (ph, nest) in p.nests.iter().enumerate() {
            let got: Vec<Vec<i64>> = sched.iter(ph, 0).map(|it| it.coords()).collect();
            prop_assert_eq!(got, nest.iterations());
        }
    }
}
