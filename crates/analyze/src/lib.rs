//! # dpm-analyze — static legality verification & program lints
//!
//! The compiler-side correctness oracle for the disk-power pipeline: it
//! *proves* (rather than tests) that schedules respect data dependences,
//! and lints programs/layouts for the malformations the simulator would
//! otherwise silently accept.
//!
//! * [`verify_schedule`]: exact legality verification of any
//!   [`dpm_core::Schedule`] by enumeration — coverage, intra-nest
//!   distance vectors (conservative `*` included), cross-nest maps and
//!   barriers, with concrete witness iteration pairs on failure.
//! * [`verify_disk_major`]: the symbolic/polyhedral path — proves the
//!   per-disk iteration sets partition each domain and decides, without
//!   enumerating a single iteration, whether the paper's disk-major
//!   order respects every cross-nest dependence at any scale.
//! * [`lint_program`]: footprint ⊆ extents, striping coverage/overlap,
//!   non-affine accesses, unused arrays, empty nests, §6 affinity-class
//!   consistency.
//! * [`analyze_suite`]: all of the above over the whole `dpm_apps`
//!   suite, as one JSON document (the `dpm-analyze` CLI's output and the
//!   golden snapshot's input).
//!
//! Every finding is a typed [`Diagnostic`] with a stable code, mirrored
//! onto the `dpm-obs` event stream.
//!
//! ## Example
//!
//! ```
//! use dpm_layout::{LayoutMap, Striping};
//! let p = dpm_ir::parse_program(
//!     "program t; array A[64] : f64;
//!      nest L { for i = 3 .. 63 { A[i] = A[i-3]; } }",
//! )?;
//! let layout = LayoutMap::new(&p, Striping::paper_default());
//! let deps = dpm_ir::analyze(&p);
//! // The restructurer's output is provably legal…
//! let s = dpm_core::restructure_single(&p, &layout, &deps);
//! assert!(dpm_analyze::verify_schedule(&p, &deps, &s).is_empty());
//! // …and the lint pass finds nothing wrong with the program.
//! assert!(dpm_analyze::lint_program(&p, Some(&layout), &deps).is_empty());
//! # Ok::<(), dpm_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod energy;
pub mod footprint;
pub mod hints;
pub mod lint;
pub mod placement;
pub mod report;
pub mod symbolic;
pub mod verify;

pub use diag::{
    error_count, warning_count, DiagCode, DiagSink, Diagnostic, Location, Severity, MAX_PER_CODE,
};
pub use energy::{disk_idle_windows, predict_energy, IdleWindow, PredictedDisk, PredictedReport};
pub use footprint::{footprint_contains, static_volume_footprint};
pub use hints::{compute_prefix, verify_hints, ComputePrefix};
pub use lint::lint_program;
pub use placement::{array_demands, static_access_counts, verify_placement};
pub use report::{analyze_suite, SuiteReport};
pub use symbolic::{verify_disk_major, SymbolicOutcome};
pub use verify::verify_schedule;
