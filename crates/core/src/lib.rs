//! # dpm-core — disk-reuse code restructuring and layout-aware parallelization
//!
//! The primary contribution of *"A Compiler-Guided Approach for Reducing
//! Disk Power Consumption by Exploiting Disk Access Locality"* (CGO 2006),
//! reimplemented from scratch:
//!
//! * **Single-processor restructuring** (§5, Figure 3):
//!   [`restructure_single`] reorders all iterations of a program so that
//!   accesses cluster on one disk at a time, deferring dependence-blocked
//!   iterations to later passes exactly as in the paper's Figure 4 example.
//!   [`restructure_symbolic`] produces the transformed *source code* (the
//!   Figure 2(c) shape) via the polyhedral engine, for dependence-free
//!   programs.
//! * **Multi-processor parallelization** (§6): [`parallelize_baseline`]
//!   implements the conventional loop-based scheme, and
//!   [`parallelize_layout_aware`] the paper's data-region-driven assignment
//!   with the unification step, so each processor keeps touching the same
//!   disks across all nests.
//!
//! All passes emit a [`Schedule`], the one input the trace generator
//! (dpm-trace) takes: it walks each processor's sequence with
//! [`Schedule::iter`]. A schedule stores each
//! processor's sequence in each phase as runs of consecutive dense ranks
//! over the nests' [`DomainIndex`]es, which it owns: the untransformed order
//! is one run per nest, and a restructured one as many runs as the
//! clustering leaves consecutive ranks apart.
//!
//! ```
//! use dpm_layout::{LayoutMap, Striping};
//! use dpm_core::{Transform, apply_transform};
//!
//! let p = dpm_ir::parse_program(
//!     "program demo; array A[64][8] : f64;
//!      nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = A[i][j] + 1; } } }",
//! ).unwrap();
//! let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
//! let deps = dpm_ir::analyze(&p);
//! let schedule = apply_transform(&p, &layout, &deps, dpm_core::Transform::DiskReuse);
//! schedule.validate_coverage(&p).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classic;
pub mod compile;
mod directives;
mod domain;
mod multi;
mod schedule;
mod single;
mod symbolic;

pub use classic::{can_fuse, can_interchange, fuse_program, interchange, tile};
pub use directives::{Directive, DirectiveKind, DirectiveTable, SchedulePos};
pub use domain::DomainIndex;
pub use multi::{
    affinity_classes, disk_group_owner, distribution_dims, parallelize_baseline,
    parallelize_layout_aware, region_owner, Assignment,
};
pub use schedule::{
    iteration_disk_mask, mean_disk_run_length, CompactIter, Schedule, ScheduleIter,
};
pub use single::{original_schedule, restructure_single, restructure_single_reference};
pub use symbolic::{
    disk_iteration_sets, restructure_symbolic, SymbolicError, SymbolicPiece, SymbolicPlan,
};

use dpm_ir::{DependenceInfo, Program};
use dpm_layout::LayoutMap;

/// The code versions evaluated in the paper (§7.1), as transformations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transform {
    /// Untransformed single-processor order (the Base / TPM / DRPM runs).
    Original,
    /// Single-processor disk-reuse restructuring (the T-…-s runs on one
    /// CPU).
    DiskReuse,
    /// Multi-processor execution.
    Parallel {
        /// Number of processors.
        procs: u32,
        /// Baseline (§6.1) or layout-aware (§6.2) iteration assignment.
        scheme: Assignment,
        /// Whether to apply per-chunk disk-reuse clustering (§5) — the
        /// `T-` prefix in the paper's version names.
        cluster: bool,
    },
}

/// Applies a [`Transform`], producing the explicit schedule to simulate.
pub fn apply_transform(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
    transform: Transform,
) -> Schedule {
    match transform {
        Transform::Original => original_schedule(program),
        Transform::DiskReuse => restructure_single(program, layout, deps),
        Transform::Parallel {
            procs,
            scheme,
            cluster,
        } => match scheme {
            Assignment::Baseline => parallelize_baseline(program, layout, deps, procs, cluster),
            Assignment::LayoutAware => {
                parallelize_layout_aware(program, layout, deps, procs, cluster)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_layout::Striping;

    #[test]
    fn apply_transform_covers_all_versions() {
        let p = dpm_ir::parse_program(
            "program t; array A[32][8] : f64;
             nest L { for i = 0 .. 31 { for j = 0 .. 7 { A[i][j] = 1; } } }",
        )
        .unwrap();
        let layout = LayoutMap::new(&p, Striping::new(256, 4, 0));
        let deps = dpm_ir::analyze(&p);
        for t in [
            Transform::Original,
            Transform::DiskReuse,
            Transform::Parallel {
                procs: 4,
                scheme: Assignment::Baseline,
                cluster: false,
            },
            Transform::Parallel {
                procs: 4,
                scheme: Assignment::Baseline,
                cluster: true,
            },
            Transform::Parallel {
                procs: 4,
                scheme: Assignment::LayoutAware,
                cluster: true,
            },
        ] {
            let s = apply_transform(&p, &layout, &deps, t);
            s.validate_coverage(&p)
                .unwrap_or_else(|e| panic!("{t:?}: {e}"));
        }
    }
}
