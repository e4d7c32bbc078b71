//! Simulator invariant checking: the test backbone's oracle.
//!
//! Every [`SimReport`] — fault-free or produced under an arbitrary
//! [`dpm_faults::FaultPlan`] — must satisfy a set of conservation laws
//! that follow from the accounting model, whatever the policy, striping,
//! RAID shape, or injected fault mix:
//!
//! 1. **Time coverage** — per disk, `busy + idle + standby + transition`
//!    accounts for the whole makespan. The sum may legitimately exceed it
//!    by bounded transition slack (a trailing spin-down is charged in
//!    full even when the trace ends mid-transition, and a final spin-up
//!    stall can extend past the last arrival), never fall short of it.
//! 2. **Energy conservation** — total energy lies between "everything in
//!    standby, the cheapest state" and "every spinning millisecond at
//!    full active power plus every transition lump", with failed spin-up
//!    attempts (counted in `faults`) allowed their own energy lumps.
//! 3. **Timeline coverage** — when recording is enabled, each disk's
//!    spans are contiguous from 0, strictly ordered (monotonic clocks),
//!    reach the makespan, and their per-state durations agree with the
//!    scalar counters.
//! 4. **Fault-counter accounting** — every injected fault is answered by
//!    exactly one retry or one re-queue (a stuck spindle adds at most one
//!    unanswered fault per disk), a disk is degraded iff it re-queued,
//!    and a fault-free report carries all-zero fault counters.
//! 5. **Request conservation** — no request is lost or duplicated: the
//!    per-disk sub-request and byte totals match what the striping says
//!    the trace splits into.
//!
//! Every simulation checks all of this automatically in debug builds
//! (hence in every `cargo test`) when [`SimRun::finish`](crate::SimRun::finish)
//! builds its report; release users call [`check_report`] (or
//! [`check_report_tiered`]) with [`check_accounting`] or
//! [`check_trace_accounting`] explicitly.

use crate::params::{DiskParams, RaidConfig, TierConfig};
use crate::request::Trace;
use crate::stats::{SimReport, SpanState};
use crate::stream::TraceAccounting;
use dpm_layout::Striping;
use std::fmt;

/// One violated invariant, with enough context to debug it.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The disk the violation was detected on, if per-disk.
    pub disk: Option<usize>,
    /// Which invariant failed and by how much.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.disk {
            Some(d) => write!(f, "disk {d}: {}", self.what),
            None => write!(f, "{}", self.what),
        }
    }
}

fn violation(list: &mut Vec<Violation>, disk: Option<usize>, what: String) {
    list.push(Violation { disk, what });
}

/// Absolute-plus-relative tolerance for accumulated float sums.
fn tol(scale: f64) -> f64 {
    1e-6 + 1e-9 * scale.abs()
}

/// Checks the report-internal invariants (time coverage, energy
/// conservation, timeline contiguity, fault-counter accounting).
/// Returns every violation found; an empty vector means the report is
/// consistent.
pub fn check_report(report: &SimReport, params: &DiskParams, raid: &RaidConfig) -> Vec<Violation> {
    check_report_params(report, raid, &|_| *params)
}

/// Class-aware form of [`check_report`] for heterogeneous runs: each
/// disk is judged against its own tier's parameter set, energy
/// conservation is re-asserted *per tier* (not just per disk), the
/// report's per-tier aggregates must match a recomputation from the
/// per-disk counters, and migration byte accounting must balance (each
/// recorded move reads and writes its logical bytes exactly once).
pub fn check_report_tiered(
    report: &SimReport,
    config: &TierConfig,
    raid: &RaidConfig,
) -> Vec<Violation> {
    let mut v = check_report_params(report, raid, &|disk| *config.params_of_disk(disk));
    if report.per_disk.len() != config.num_disks() {
        violation(
            &mut v,
            None,
            format!(
                "report covers {} disks, tier config has {}",
                report.per_disk.len(),
                config.num_disks()
            ),
        );
        return v;
    }
    let members = f64::from(raid.members);
    let nt = config.num_tiers();
    for t in 0..nt {
        let lo = config.first_disk(t);
        let slice = &report.per_disk[lo..lo + config.tiers()[t].disks];
        let p = &config.tiers()[t].class.params;
        // Per-tier energy conservation: the tier's total energy must lie
        // within the summed per-disk bounds under the tier's own class
        // parameters.
        let mut tier_lo = 0.0;
        let mut tier_hi = 0.0;
        let energy: f64 = slice.iter().map(|d| d.energy_j).sum();
        for d in slice {
            let spinning_s = (d.busy_ms + d.idle_ms + d.transition_ms) / 1000.0;
            let standby_s = d.standby_ms / 1000.0;
            let lumps = p.spin_down_energy_j * d.spin_downs as f64
                + p.spin_up_energy_j * (d.spin_ups + d.faults) as f64;
            tier_lo += members * p.standby_power_w * (spinning_s + standby_s);
            tier_hi +=
                members * (p.active_power_w * spinning_s + p.standby_power_w * standby_s + lumps);
        }
        if energy < tier_lo - tol(tier_lo) || energy > tier_hi + tol(tier_hi) {
            violation(
                &mut v,
                None,
                format!(
                    "tier {t} energy {energy} J outside conservation bounds \
                     [{tier_lo}, {tier_hi}] J"
                ),
            );
        }
    }
    match &report.tiers {
        Some(tr) => {
            if tr.per_tier.len() != nt {
                violation(
                    &mut v,
                    None,
                    format!(
                        "tier report covers {} tiers, config has {nt}",
                        tr.per_tier.len()
                    ),
                );
                return v;
            }
            for (t, ts) in tr.per_tier.iter().enumerate() {
                let lo = config.first_disk(t);
                let slice = &report.per_disk[lo..lo + config.tiers()[t].disks];
                if ts.class != config.tiers()[t].class.name || ts.disks != config.tiers()[t].disks {
                    violation(
                        &mut v,
                        None,
                        format!(
                            "tier {t} summary says {}x{}, config says {}x{}",
                            ts.disks,
                            ts.class,
                            config.tiers()[t].disks,
                            config.tiers()[t].class.name
                        ),
                    );
                }
                let energy: f64 = slice.iter().map(|d| d.energy_j).sum();
                if (ts.energy_j - energy).abs() > tol(energy) {
                    violation(
                        &mut v,
                        None,
                        format!(
                            "tier {t} summary energy {} J, per-disk counters sum to {energy} J",
                            ts.energy_j
                        ),
                    );
                }
                let mig_req: u64 = slice.iter().map(|d| d.migration_requests).sum();
                let mig_bytes: u64 = slice.iter().map(|d| d.migration_bytes).sum();
                if ts.migration_requests != mig_req || ts.migration_bytes != mig_bytes {
                    violation(
                        &mut v,
                        None,
                        format!(
                            "tier {t} summary migration {}req/{}B, counters say \
                             {mig_req}req/{mig_bytes}B",
                            ts.migration_requests, ts.migration_bytes
                        ),
                    );
                }
            }
            // Migration byte balance: every recorded move reads its bytes
            // off the source tier and writes them onto the destination, so
            // the per-disk migration bytes must total exactly twice the
            // event bytes.
            let event_bytes: u64 = tr.events.iter().map(|e| e.bytes).sum();
            let moved = report.total_migration_bytes();
            if moved != 2 * event_bytes {
                violation(
                    &mut v,
                    None,
                    format!(
                        "disks moved {moved} migration bytes, events account for \
                         2x{event_bytes}"
                    ),
                );
            }
            for e in &tr.events {
                if e.from_tier >= nt || e.to_tier >= nt || e.from_tier == e.to_tier {
                    violation(
                        &mut v,
                        None,
                        format!(
                            "migration event for array {} names bad tiers {}->{}",
                            e.array, e.from_tier, e.to_tier
                        ),
                    );
                }
            }
        }
        None => {
            violation(&mut v, None, "tiered run is missing its tier report".into());
        }
    }
    v
}

/// The per-disk invariants with a per-disk parameter lookup (identical
/// parameters in the flat world, the tier's class in the tiered one).
fn check_report_params(
    report: &SimReport,
    raid: &RaidConfig,
    params_of: &dyn Fn(usize) -> DiskParams,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let makespan = report.makespan_ms;
    if !makespan.is_finite() || makespan < 0.0 {
        violation(&mut v, None, format!("non-finite makespan {makespan}"));
        return v;
    }
    if report.total_io_time_ms > report.total_response_ms + tol(report.total_response_ms) {
        violation(
            &mut v,
            None,
            format!(
                "io time {} exceeds response time {}",
                report.total_io_time_ms, report.total_response_ms
            ),
        );
    }
    let members = f64::from(raid.members);
    for (disk, d) in report.per_disk.iter().enumerate() {
        let params = params_of(disk);
        let times = [d.busy_ms, d.idle_ms, d.standby_ms, d.transition_ms];
        if times.iter().any(|t| !t.is_finite() || *t < 0.0) {
            violation(
                &mut v,
                Some(disk),
                format!("negative/non-finite time {times:?}"),
            );
            continue;
        }
        // (1) Time coverage. Every other accrual is folded into request
        // completions (and therefore into the makespan); only a trailing
        // spin-down that the trace ends inside is charged in full past
        // the makespan, so the permitted slack is one transition pair.
        let wall = times.iter().sum::<f64>();
        let slack = params.spin_down_ms + params.spin_up_ms;
        if wall < makespan - tol(makespan) {
            violation(
                &mut v,
                Some(disk),
                format!("accounted wall {wall} ms falls short of makespan {makespan} ms"),
            );
        }
        if wall > makespan + slack + tol(makespan) {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "accounted wall {wall} ms exceeds makespan {makespan} ms \
                     beyond the transition slack {slack} ms"
                ),
            );
        }
        // (2) Energy conservation.
        if !d.energy_j.is_finite() || d.energy_j < 0.0 {
            violation(&mut v, Some(disk), format!("bad energy {}", d.energy_j));
            continue;
        }
        let spinning_s = (d.busy_ms + d.idle_ms + d.transition_ms) / 1000.0;
        let standby_s = d.standby_ms / 1000.0;
        let lumps = params.spin_down_energy_j * d.spin_downs as f64
            + params.spin_up_energy_j * (d.spin_ups + d.faults) as f64;
        let lo = members * params.standby_power_w * (spinning_s + standby_s);
        let hi = members
            * (params.active_power_w * spinning_s + params.standby_power_w * standby_s + lumps);
        if d.energy_j < lo - tol(lo) || d.energy_j > hi + tol(hi) {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "energy {} J outside conservation bounds [{lo}, {hi}] J",
                    d.energy_j
                ),
            );
        }
        // (4) Fault-counter accounting.
        let answered = d.retries + d.requeues;
        if answered > d.faults {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "retries {} + requeues {} exceed faults {}",
                    d.retries, d.requeues, d.faults
                ),
            );
        }
        // Unanswered faults: at most one stuck-spindle detection, plus
        // timeouts (observations, never retried) are counted separately.
        if d.faults > answered + 1 {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "faults {} not matched by retries {} + requeues {} (+1 stuck)",
                    d.faults, d.retries, d.requeues
                ),
            );
        }
        if d.degraded != (d.requeues > 0) {
            violation(
                &mut v,
                Some(disk),
                format!("degraded={} but requeues={}", d.degraded, d.requeues),
            );
        }
        if d.sequential_requests > d.requests {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "sequential requests {} exceed requests {}",
                    d.sequential_requests, d.requests
                ),
            );
        }
        // Spin-state accounting: every spin-up answers a prior spin-down;
        // only a trailing spin-down (trace ends in standby) may go
        // unanswered. Holds under every policy — reactive timeout,
        // proactive, or compiler-directed.
        if d.spin_ups > d.spin_downs {
            violation(
                &mut v,
                Some(disk),
                format!("spin-ups {} exceed spin-downs {}", d.spin_ups, d.spin_downs),
            );
        }
    }
    // (3) Timeline coverage, when recorded.
    if let Some(timelines) = &report.timelines {
        for (disk, spans) in timelines.iter().enumerate() {
            let mut cursor = 0.0;
            let mut by_state = [0.0_f64; 4]; // busy, idle, standby, transition
            for s in spans {
                if (s.start_ms - cursor).abs() > tol(cursor) {
                    violation(
                        &mut v,
                        Some(disk),
                        format!(
                            "timeline gap/overlap at {cursor} ms (span starts {})",
                            s.start_ms
                        ),
                    );
                }
                if s.end_ms <= s.start_ms {
                    violation(
                        &mut v,
                        Some(disk),
                        format!("non-monotonic span [{}, {}]", s.start_ms, s.end_ms),
                    );
                }
                let idx = match s.state {
                    SpanState::Busy => 0,
                    SpanState::Idle(_) => 1,
                    SpanState::Standby => 2,
                    SpanState::Transition => 3,
                };
                by_state[idx] += s.end_ms - s.start_ms;
                cursor = s.end_ms;
            }
            if cursor < makespan - tol(makespan) {
                violation(
                    &mut v,
                    Some(disk),
                    format!("timeline ends at {cursor} ms, before makespan {makespan} ms"),
                );
            }
            if let Some(d) = report.per_disk.get(disk) {
                let scalars = [d.busy_ms, d.idle_ms, d.standby_ms, d.transition_ms];
                for (i, (tl, sc)) in by_state.iter().zip(&scalars).enumerate() {
                    if (tl - sc).abs() > tol(*sc) {
                        violation(
                            &mut v,
                            Some(disk),
                            format!("timeline state {i} totals {tl} ms, counters say {sc} ms"),
                        );
                    }
                }
            }
        }
    }
    v
}

/// Checks request conservation against the trace the report came from:
/// every application request splits into striping-determined pieces, and
/// each piece must be serviced exactly once — no request may be lost or
/// duplicated, faults or not.
pub fn check_trace_accounting(
    report: &SimReport,
    trace: &Trace,
    striping: &Striping,
) -> Vec<Violation> {
    let mut acc = TraceAccounting::new(striping.num_disks());
    let mut pieces: Vec<(usize, u64, u64)> = Vec::new();
    for r in trace.requests() {
        striping.split_range_into(r.offset, r.len, &mut pieces);
        acc.push(r, &pieces);
    }
    check_accounting(report, &acc)
}

/// Streaming form of [`check_trace_accounting`]: compares the report
/// against per-disk totals accumulated while the request stream was
/// consumed, so conservation is checkable without a materialized trace to
/// re-walk. Every run in debug builds goes through this.
pub fn check_accounting(report: &SimReport, acc: &TraceAccounting) -> Vec<Violation> {
    let mut v = Vec::new();
    if report.app_requests != acc.app_requests {
        violation(
            &mut v,
            None,
            format!(
                "report counts {} app requests, stream carried {}",
                report.app_requests, acc.app_requests
            ),
        );
    }
    let n = acc.want_requests.len();
    if report.per_disk.len() != n {
        violation(
            &mut v,
            None,
            format!(
                "report covers {} disks, striping has {n}",
                report.per_disk.len()
            ),
        );
        return v;
    }
    for (disk, d) in report.per_disk.iter().enumerate() {
        if d.requests != acc.want_requests[disk] {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "serviced {} sub-requests, striping projects {} (lost or duplicated work)",
                    d.requests, acc.want_requests[disk]
                ),
            );
        }
        if d.bytes != acc.want_bytes[disk] {
            violation(
                &mut v,
                Some(disk),
                format!(
                    "serviced {} bytes, striping projects {}",
                    d.bytes, acc.want_bytes[disk]
                ),
            );
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{PowerPolicy, TpmConfig};
    use crate::request::{IoRequest, RequestKind, Trace};
    use crate::Simulator;
    use dpm_faults::FaultPlan;

    fn read(t: f64, offset: u64, len: u64) -> IoRequest {
        IoRequest {
            arrival_ms: t,
            offset,
            len,
            kind: RequestKind::Read,
            proc_id: 0,
        }
    }

    fn trace() -> Trace {
        Trace::from_requests(
            (0..40u32)
                .map(|k| read(2_500.0 * f64::from(k), u64::from(k) * 8192, 16 * 1024))
                .collect(),
        )
    }

    #[test]
    fn clean_run_has_no_violations() {
        let striping = Striping::new(4096, 4, 0);
        let sim = Simulator::new(
            DiskParams::default(),
            PowerPolicy::Tpm(TpmConfig::default()),
            striping,
        )
        .with_timelines();
        let t = trace();
        let report = sim.run(&t);
        assert!(check_report(&report, &DiskParams::default(), &RaidConfig::single()).is_empty());
        assert!(check_trace_accounting(&report, &t, &striping).is_empty());
    }

    #[test]
    fn faulty_run_still_satisfies_invariants() {
        let striping = Striping::new(4096, 4, 0);
        let sim = Simulator::new(
            DiskParams::default(),
            PowerPolicy::Tpm(TpmConfig::proactive()),
            striping,
        )
        .with_faults(FaultPlan::chaos(7, 0.3))
        .with_timelines();
        let t = trace();
        let report = sim.run(&t);
        assert!(report.total_faults() > 0, "chaos plan injected nothing");
        assert!(check_report(&report, &DiskParams::default(), &RaidConfig::single()).is_empty());
        assert!(check_trace_accounting(&report, &t, &striping).is_empty());
    }

    #[test]
    fn detects_lost_requests() {
        let striping = Striping::new(4096, 2, 0);
        let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let t = trace();
        let mut report = sim.run(&t);
        report.per_disk[0].requests -= 1;
        let v = check_trace_accounting(&report, &t, &striping);
        assert!(v.iter().any(|x| x.what.contains("lost or duplicated")));
    }

    #[test]
    fn detects_energy_violation() {
        let striping = Striping::new(4096, 2, 0);
        let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let t = trace();
        let mut report = sim.run(&t);
        report.per_disk[0].energy_j *= 100.0;
        let v = check_report(&report, &DiskParams::default(), &RaidConfig::single());
        assert!(v.iter().any(|x| x.what.contains("conservation bounds")));
    }

    #[test]
    fn detects_spin_state_mismatch() {
        let striping = Striping::new(4096, 2, 0);
        let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let t = trace();
        let mut report = sim.run(&t);
        report.per_disk[0].spin_ups = report.per_disk[0].spin_downs + 1;
        let v = check_report(&report, &DiskParams::default(), &RaidConfig::single());
        assert!(v.iter().any(|x| x.what.contains("exceed spin-downs")));
    }

    #[test]
    fn directive_run_satisfies_invariants() {
        let striping = Striping::new(4096, 2, 0);
        let params = DiskParams::default();
        let cfg = crate::params::DirectiveConfig::for_params(&params);
        let sim = Simulator::new(params, PowerPolicy::Directive(cfg), striping).with_timelines();
        // Two bursts separated by a window well past break-even, plus a
        // long trailing gap: exercises both the pre-activated and the
        // unanswered spin-down.
        let mut reqs: Vec<IoRequest> = (0..8u32)
            .map(|k| read(f64::from(k) * 10.0, u64::from(k) * 8192, 16 * 1024))
            .collect();
        reqs.extend((0..8u32).map(|k| {
            read(
                60_000.0 + f64::from(k) * 10.0,
                u64::from(k) * 8192,
                16 * 1024,
            )
        }));
        let t = Trace::from_requests(reqs);
        let report = sim.run(&t);
        assert!(
            report.total_spin_downs() > 0,
            "directive policy never engaged"
        );
        assert!(check_report(&report, &DiskParams::default(), &RaidConfig::single()).is_empty());
        assert!(check_trace_accounting(&report, &t, &striping).is_empty());
    }

    #[test]
    fn detects_counter_mismatch() {
        let striping = Striping::new(4096, 2, 0);
        let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let t = trace();
        let mut report = sim.run(&t);
        report.per_disk[0].retries = 5; // retries with zero faults
        let v = check_report(&report, &DiskParams::default(), &RaidConfig::single());
        assert!(v.iter().any(|x| x.what.contains("exceed faults")));
    }
}
