//! # dpm-disksim — trace-driven disk energy/performance simulator
//!
//! A from-scratch reimplementation of the simulator used in §7 of the CGO
//! 2006 disk-locality paper: a set of identical server disks (IBM Ultrastar
//! 36Z15, Table 1) behind round-robin striping, driven by an I/O request
//! trace in the paper's five-field format, under one of three power
//! regimes:
//!
//! * **Base** ([`PowerPolicy::None`]) — no power management; idle disks
//!   burn full idle power.
//! * **TPM** ([`PowerPolicy::Tpm`]) — spin down after a fixed idle timeout
//!   (break-even 15.2 s), pay a 10.9 s / 135 J spin-up on the next request.
//! * **DRPM** ([`PowerPolicy::Drpm`]) — a multi-speed disk (3 000–15 000
//!   RPM in 3 000 steps) with a windowed response-time controller (window
//!   100) and idle-triggered downward ramping; power scales quadratically
//!   with RPM as in Gurumurthi et al.
//!
//! Outputs are the paper's two metrics: total disk energy (J) and total
//! disk I/O time (sum of request response times), plus per-disk detail and
//! idle-period histograms ([`IdleHistogram`], the paper's fixed buckets).
//! Every run also carries streaming O(1)-per-disk metrics
//! ([`DiskStreamMetrics`]): [`LogHistogram`]s of service time and spin-up
//! stalls, a [`QueueDepthGauge`] and an [`RpmResidency`] table, all in
//! simulated time and exactly mergeable into run totals.
//!
//! ```
//! use dpm_disksim::{Simulator, Trace, IoRequest, RequestKind, PowerPolicy, DiskParams, TpmConfig};
//! use dpm_layout::Striping;
//!
//! let sim = Simulator::new(
//!     DiskParams::ultrastar_36z15(),
//!     PowerPolicy::Tpm(TpmConfig::default()),
//!     Striping::paper_default(),
//! );
//! let trace = Trace::from_requests(vec![
//!     IoRequest { arrival_ms: 0.0, offset: 0, len: 32 * 1024,
//!                 kind: RequestKind::Read, proc_id: 0 },
//!     IoRequest { arrival_ms: 60_000.0, offset: 0, len: 32 * 1024,
//!                 kind: RequestKind::Read, proc_id: 0 },
//! ]);
//! let report = sim.run(&trace);
//! assert!(report.total_energy_j() > 0.0);
//! assert_eq!(report.per_disk.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod hist;
pub mod invariants;
mod metrics;
mod params;
mod request;
mod sim;
mod stats;
mod stream;

pub use disk::{DiskSim, SequentialStreams, SubRequest};
pub use dpm_faults::{FaultInjector, FaultPlan, RetryPolicy};
pub use hist::LogHistogram;
pub use metrics::{DiskStreamMetrics, QueueDepthGauge, RpmResidency};
pub use params::{
    DirectiveConfig, DiskClass, DiskParams, DrpmConfig, MigrationConfig, PowerPolicy, RaidConfig,
    ServiceTime, Tier, TierConfig, TpmConfig,
};
pub use request::{IoRequest, RequestKind, Trace, TraceParseError, TRACE_BLOCK_BYTES};
pub use sim::{SimRun, Simulator};
pub use stats::{
    ascii_timelines, coalesce_spans, timelines_from_events, DiskStats, IdleHistogram,
    MigrationEvent, SimReport, Span, SpanState, TierReport, TierStats,
};
pub use stream::{Extents, MergedStream, RequestStream, TraceAccounting, TraceStream};
