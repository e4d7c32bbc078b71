//! # disk-reuse — compiler-guided disk power reduction
//!
//! A from-scratch Rust reproduction of *"A Compiler-Guided Approach for
//! Reducing Disk Power Consumption by Exploiting Disk Access Locality"*
//! (Son, Chen, Kandemir — CGO 2006).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`poly`] — integer set algebra + loop generation (Omega substitute);
//! * [`ir`] — affine loop-nest IR, pseudo-language front-end, dependence
//!   analysis (SUIF substitute);
//! * [`layout`] — files, striping, element→I/O-node mapping;
//! * [`core`] — the paper's contribution: disk-reuse restructuring (§5)
//!   and disk-layout-aware parallelization (§6);
//! * [`trace`] — program execution → I/O request traces (§7.1);
//! * [`disksim`] — the TPM/DRPM disk energy simulator (§4, §7.1);
//! * [`apps`] — the six Table 2 benchmark applications;
//! * [`obs`] — zero-dependency instrumentation: spans, counters, typed
//!   events, JSON-Lines sinks (enable with the `DPM_OBS` env var);
//! * [`exec`] — zero-dependency execution layer: scoped-thread
//!   ordered parallel maps with bit-for-bit deterministic results
//!   (width via the `DPM_THREADS` env var);
//! * [`faults`] — deterministic fault injection: seeded per-disk plans
//!   for spin-up failures, transient errors, latency jitter, and stuck
//!   spindles, with retry/backoff/degradation handled by the simulator;
//! * [`analyze`] — static legality verification and program lints:
//!   exact and symbolic schedule verifiers, layout/footprint/affinity
//!   lints, typed diagnostics, and the `dpm-analyze` CLI gate.
//!
//! ## Quickstart
//!
//! ```
//! use disk_reuse::prelude::*;
//!
//! // Parse a program in the paper's pseudo-language…
//! let program = parse_program(
//!     "program demo; array A[128][16] : f64;
//!      nest L { for i = 0 .. 127 { for j = 0 .. 15 { A[i][j] = A[i][j] + 1; } } }",
//! )?;
//! // …expose the disk layout to the compiler…
//! let layout = LayoutMap::new(&program, Striping::new(2048, 4, 0));
//! let deps = analyze(&program);
//! // …restructure for disk reuse and generate the I/O trace…
//! let schedule = apply_transform(&program, &layout, &deps, Transform::DiskReuse);
//! let gen = TraceGenerator::new(&program, &layout, TraceGenOptions::default());
//! let (trace, _) = gen.generate(&schedule);
//! // …and simulate disk energy under TPM.
//! let sim = Simulator::new(DiskParams::default(), PowerPolicy::Tpm(TpmConfig::default()),
//!                          *layout.striping());
//! let report = sim.run(&trace);
//! assert!(report.total_energy_j() > 0.0);
//! # Ok::<(), disk_reuse::ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod optimizer;

pub use dpm_analyze as analyze;
pub use dpm_apps as apps;
pub use dpm_core as core;
pub use dpm_disksim as disksim;
pub use dpm_exec as exec;
pub use dpm_faults as faults;
pub use dpm_ir as ir;
pub use dpm_layout as layout;
pub use dpm_obs as obs;
pub use dpm_poly as poly;
pub use dpm_trace as trace;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use dpm_analyze::{
        array_demands, disk_idle_windows, lint_program, predict_energy, static_access_counts,
        verify_disk_major, verify_hints, verify_placement, verify_schedule, Diagnostic, IdleWindow,
        PredictedReport,
    };
    pub use dpm_apps::{by_name, paper_striping, suite, BenchApp, Scale};
    pub use dpm_core::{
        apply_transform, mean_disk_run_length, original_schedule, parallelize_baseline,
        parallelize_layout_aware, restructure_single, restructure_single_reference,
        restructure_symbolic, Assignment, Directive, DirectiveKind, DirectiveTable, Schedule,
        SchedulePos, Transform,
    };
    pub use dpm_disksim::{
        DirectiveConfig, DiskClass, DiskParams, DrpmConfig, IoRequest, MigrationConfig,
        PowerPolicy, RequestKind, SimReport, Simulator, Tier, TierConfig, TierReport, TpmConfig,
        Trace,
    };
    pub use dpm_faults::{FaultPlan, RetryPolicy};
    pub use dpm_ir::{analyze, parse_program, DependenceInfo, Program};
    pub use dpm_layout::{
        ArrayDemand, LayoutMap, PlacementEntry, PlacementPlan, Striping, TierTopology, TieredVolume,
    };
    pub use dpm_trace::{
        disk_switch_count, ExecutionOrder, OriginalOrder, TraceGenOptions, TraceGenerator,
    };
}
