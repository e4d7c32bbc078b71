//! Verification of compiler-inserted power-management directives.
//!
//! [`verify_hints`] checks a [`DirectiveTable`] against the schedule's
//! static access model (the same block/stripe expansion the energy oracle
//! uses) and reports every violation with a stable `E_HINT_*` code:
//!
//! * **`E_HINT_DUP`** — the same directive appears twice at one
//!   `(disk, position)`, or a spin-down and a pre-activation collide at
//!   one position (contradictory).
//! * **`E_HINT_UNMATCHED`** — a disk's directive sequence does not
//!   alternate spin-down → pre-activate (a pre-activation with no open
//!   spin-down window, or two spin-downs in a row). A trailing spin-down
//!   with no accesses after it is legal (the disk parks to end-of-run).
//! * **`E_HINT_ACCESS_IN_WINDOW`** — some access targets the disk at a
//!   position not *provably* outside a spun-down window. Provability is
//!   conservative about concurrency: an access on another processor in
//!   the same phase as the window boundary is treated as possibly inside,
//!   unless the boundary sits at a phase entry (`idx == 0`), which is
//!   anchored at the barrier and therefore ordered with the whole phase.
//! * **`E_HINT_LEAD_SHORT`** — the provable compute-only lead time from a
//!   pre-activation to the first access that may follow it is shorter
//!   than the disk's spin-up time, so the access could stall.
//!
//! Out-of-range positions (beyond the schedule's phases, processors, or
//! iteration counts) are reported as `E_MALFORMED`.

use crate::diag::{DiagCode, DiagSink, Diagnostic, Location};
use dpm_core::compile::CompiledProgram;
use dpm_core::{Directive, DirectiveKind, DirectiveTable, Schedule, SchedulePos};
use dpm_disksim::DiskParams;
use dpm_ir::Program;
use dpm_layout::LayoutMap;
use dpm_trace::TraceGenOptions;

/// The compute-only timing model both hint passes use: per-(phase,
/// processor) compute prefix sums and per-phase floors. The inserter
/// places pre-activations with it and the verifier checks their leads
/// with it, so the two agree on every lead to the last bit.
#[derive(Clone, Debug, PartialEq)]
pub struct ComputePrefix {
    /// `prefix[phase][proc][i]` = compute (ms) of the processor's first
    /// `i` iterations in the phase; the last entry is the phase total (a
    /// processor with no iterations in the phase has just `[0.0]`).
    pub prefix: Vec<Vec<Vec<f64>>>,
    /// Slowest processor's compute per phase — a lower bound on the
    /// phase's barrier-to-barrier duration.
    pub phase_floor: Vec<f64>,
}

/// Builds the [`ComputePrefix`] of `schedule`. One iteration's compute is
/// its statements' times, each converted at the generator's clock and
/// summed in body order.
pub fn compute_prefix(
    program: &Program,
    schedule: &Schedule,
    options: &TraceGenOptions,
) -> ComputePrefix {
    let iter_ms: Vec<f64> = program
        .nests
        .iter()
        .map(|n| {
            n.body
                .iter()
                .fold(0.0, |ms, stmt| ms + options.compute_ms(stmt.cost_cycles))
        })
        .collect();
    let mut prefix = Vec::with_capacity(schedule.num_phases());
    let mut phase_floor = Vec::with_capacity(schedule.num_phases());
    for phase in 0..schedule.num_phases() {
        let procs: Vec<Vec<f64>> = (0..schedule.num_procs())
            .map(|proc| {
                let mut pre = Vec::with_capacity(schedule.len(phase, proc) + 1);
                let mut acc = 0.0f64;
                pre.push(acc);
                // One add per iteration, in issue order: a `len × ms`
                // shortcut per run would round differently.
                for (nest, ranks) in schedule.runs(phase, proc) {
                    for _ in ranks {
                        acc += iter_ms[nest];
                        pre.push(acc);
                    }
                }
                pre
            })
            .collect();
        phase_floor.push(
            procs
                .iter()
                .map(|pre| pre[pre.len() - 1])
                .fold(0.0f64, f64::max),
        );
        prefix.push(procs);
    }
    ComputePrefix {
        prefix,
        phase_floor,
    }
}

/// Touch positions per disk, in schedule-walk order, one per iteration.
fn disk_touches(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
) -> Vec<Vec<SchedulePos>> {
    let striping = layout.striping();
    let bs = options.block_bytes.max(1);
    let compiled = CompiledProgram::new(program);
    let mut touches: Vec<Vec<SchedulePos>> = vec![Vec::new(); striping.num_disks()];
    let mut pieces: Vec<(usize, u64, u64)> = Vec::new();
    schedule.for_each_scheduled(|pos, ni, coords| {
        for stmt in compiled.nest(ni) {
            for re in &stmt.refs {
                let off = re.offset(program, layout, coords);
                for b in off / bs..=(off + re.elem_bytes - 1) / bs {
                    striping.split_range_into(b * bs, bs, &mut pieces);
                    for &(d, _, _) in &pieces {
                        let list = &mut touches[d];
                        if list.last() != Some(&pos) {
                            list.push(pos);
                        }
                    }
                }
            }
        }
    });
    touches
}

/// `true` when access `a` is provably ordered before directive `s`.
fn provably_before(a: SchedulePos, s: SchedulePos) -> bool {
    a.phase < s.phase || (a.phase == s.phase && a.proc == s.proc && a.idx < s.idx)
}

/// `true` when access `a` is provably ordered at-or-after directive `q`.
/// A directive at a phase entry (`idx == 0`) fires at the barrier and is
/// therefore ordered with every access in its phase.
fn provably_at_or_after(q: SchedulePos, a: SchedulePos) -> bool {
    q.phase < a.phase
        || (q.phase == a.phase && (q.idx == 0 || (q.proc == a.proc && q.idx <= a.idx)))
}

impl ComputePrefix {
    /// Provable compute-only time (ms) from issuing a directive at `q` to
    /// the arrival of access `a`; 0 when no ordering is provable.
    fn lead_ms(&self, q: SchedulePos, a: SchedulePos) -> f64 {
        let pre_a = &self.prefix[a.phase as usize][a.proc as usize];
        let a_off = pre_a[(a.idx as usize).min(pre_a.len() - 1)];
        if a.phase == q.phase {
            if q.idx == 0 {
                return a_off;
            }
            if q.proc == a.proc && q.idx <= a.idx {
                let pre_q = &self.prefix[q.phase as usize][q.proc as usize];
                return a_off - pre_q[(q.idx as usize).min(pre_q.len() - 1)];
            }
            return 0.0;
        }
        if a.phase < q.phase {
            return 0.0;
        }
        // Remaining time in q's phase: the issuing processor's leftover
        // compute (or the whole phase floor for a barrier-anchored
        // directive), then full intervening phases, then a's prefix.
        let pre_q = &self.prefix[q.phase as usize][q.proc as usize];
        let rem = if q.idx == 0 {
            self.phase_floor[q.phase as usize]
        } else {
            pre_q[pre_q.len() - 1] - pre_q[(q.idx as usize).min(pre_q.len() - 1)]
        };
        let between: f64 = (q.phase as usize + 1..a.phase as usize)
            .map(|p| self.phase_floor[p])
            .sum();
        rem + between + a_off
    }
}

fn pos_str(p: SchedulePos) -> String {
    format!("(phase {}, proc {}, idx {})", p.phase, p.proc, p.idx)
}

fn in_range(schedule: &Schedule, d: &Directive) -> bool {
    (d.at.phase as usize) < schedule.num_phases()
        && d.at.proc < schedule.num_procs()
        && (d.at.idx as usize) < schedule.len(d.at.phase as usize, d.at.proc).max(1)
}

/// Checks a directive table against the schedule's static access model.
/// Returns one [`Diagnostic`] per violation (empty = verified), with the
/// stable codes documented at the module level.
pub fn verify_hints(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    params: &DiskParams,
    table: &DirectiveTable,
) -> Vec<Diagnostic> {
    // No directive, nothing to check: skip the model.
    if table.is_empty() {
        return Vec::new();
    }
    let mut sink = DiagSink::new();
    let num_disks = layout.striping().num_disks();

    // Positions must exist in the schedule.
    for d in table.entries() {
        if (d.disk as usize) >= num_disks || !in_range(schedule, d) {
            sink.push(Diagnostic::new(
                DiagCode::Malformed,
                Location::none(),
                format!(
                    "directive {} on disk {} at {} is outside the schedule",
                    d.kind.label(),
                    d.disk,
                    pos_str(d.at)
                ),
            ));
        }
    }

    // Duplicates / contradictions: the table is sorted by (disk, at,
    // kind), so collisions are adjacent.
    for pair in table.entries().windows(2) {
        if pair[0].disk == pair[1].disk && pair[0].at == pair[1].at {
            let what = if pair[0].kind == pair[1].kind {
                format!("duplicate {}", pair[0].kind.label())
            } else {
                "contradictory spin_down and pre_activate".to_string()
            };
            sink.push(Diagnostic::new(
                DiagCode::HintDuplicate,
                Location::none(),
                format!(
                    "{} directives on disk {} at {}",
                    what,
                    pair[0].disk,
                    pos_str(pair[0].at)
                ),
            ));
        }
    }

    let touches = disk_touches(program, layout, schedule, options);
    let compute = compute_prefix(program, schedule, options);

    for disk in 0..num_disks as u32 {
        let seq: Vec<&Directive> = table.for_disk(disk).collect();
        if seq.is_empty() {
            continue;
        }
        // Alternation: spin-down opens a window, pre-activate closes it.
        let mut open: Option<SchedulePos> = None;
        let mut windows: Vec<(SchedulePos, Option<SchedulePos>)> = Vec::new();
        for d in &seq {
            match (d.kind, open) {
                (DirectiveKind::SpinDown, None) => open = Some(d.at),
                (DirectiveKind::SpinDown, Some(prev)) => {
                    sink.push(Diagnostic::new(
                        DiagCode::HintUnmatched,
                        Location::none(),
                        format!(
                            "disk {}: spin_down at {} while the window opened at {} is \
                             still spun down",
                            disk,
                            pos_str(d.at),
                            pos_str(prev)
                        ),
                    ));
                    // The disk is already parked: the earlier window
                    // stays open so the access checks still cover it.
                }
                (DirectiveKind::PreActivate, Some(s)) => {
                    windows.push((s, Some(d.at)));
                    open = None;
                }
                (DirectiveKind::PreActivate, None) => {
                    sink.push(Diagnostic::new(
                        DiagCode::HintUnmatched,
                        Location::none(),
                        format!(
                            "disk {}: pre_activate at {} without a preceding spin_down",
                            disk,
                            pos_str(d.at)
                        ),
                    ));
                }
            }
        }
        if let Some(s) = open {
            windows.push((s, None)); // trailing window: parked to end of run
        }

        let accesses = touches
            .get(disk as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);

        // No access may fall inside a spun-down window.
        for &(s, q) in &windows {
            for &a in accesses {
                let before = provably_before(a, s);
                let after = match q {
                    Some(q) => provably_at_or_after(q, a),
                    None => false,
                };
                if !before && !after {
                    sink.push(Diagnostic::new(
                        DiagCode::HintAccessInWindow,
                        Location::none(),
                        format!(
                            "disk {}: access at {} is not provably outside the spun-down \
                             window [{} .. {}]",
                            disk,
                            pos_str(a),
                            pos_str(s),
                            q.map(pos_str).unwrap_or_else(|| "end".to_string())
                        ),
                    ));
                }
            }
        }

        // Every pre-activation must lead its first possible access by at
        // least the spin-up time.
        for d in &seq {
            if d.kind != DirectiveKind::PreActivate || !in_range(schedule, d) {
                continue;
            }
            let mut worst: Option<(SchedulePos, f64)> = None;
            for &a in accesses {
                if provably_before(a, d.at) {
                    continue;
                }
                let lead = compute.lead_ms(d.at, a);
                if worst.map(|(_, w)| lead < w).unwrap_or(true) {
                    worst = Some((a, lead));
                }
            }
            if let Some((a, lead)) = worst {
                if lead < params.spin_up_ms {
                    sink.push(Diagnostic::new(
                        DiagCode::HintLeadShort,
                        Location::none(),
                        format!(
                            "disk {}: pre_activate at {} leads the access at {} by only \
                             {:.1} ms (< spin-up {:.1} ms)",
                            disk,
                            pos_str(d.at),
                            pos_str(a),
                            lead,
                            params.spin_up_ms
                        ),
                    ));
                }
            }
        }
    }

    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::original_schedule;
    use dpm_ir::parse_program;
    use dpm_layout::Striping;

    /// Same access pattern as the energy-oracle tests: block 0 (disk 0)
    /// for iterations 0..511, block 3 (disk 1) for iterations 512..1023,
    /// 40 ms of compute per iteration — so disk 1 idles for ~20.5 s
    /// before its burst and disk 0 idles afterwards.
    fn fixture() -> (dpm_ir::Program, LayoutMap, Schedule) {
        let p = parse_program(
            "program t;
             array A[2048] : f64;
             nest L1 { for i = 0 .. 511 { A[i] = A[i] + 1 @ 30000000; } }
             nest L2 { for i = 1536 .. 2047 { A[i] = A[i] + 1 @ 30000000; } }",
        )
        .expect("parse");
        let layout = LayoutMap::new(&p, Striping::new(4096, 2, 0));
        let s = original_schedule(&p);
        (p, layout, s)
    }

    fn dir(phase: u32, idx: u32, disk: u32, kind: DirectiveKind) -> Directive {
        Directive {
            at: SchedulePos::new(phase, 0, idx),
            disk,
            kind,
        }
    }

    /// A correct table: disk 1 spins down at the start, pre-activates
    /// 312 iterations (12.5 s > spin-up 10.9 s) before its first access
    /// at idx 512; disk 0 parks right after its last access.
    fn valid_table() -> DirectiveTable {
        let mut t = DirectiveTable::new();
        t.push(dir(0, 0, 1, DirectiveKind::SpinDown));
        t.push(dir(0, 200, 1, DirectiveKind::PreActivate));
        t.push(dir(0, 512, 0, DirectiveKind::SpinDown));
        t
    }

    fn codes(
        p: &dpm_ir::Program,
        layout: &LayoutMap,
        s: &Schedule,
        t: &DirectiveTable,
    ) -> Vec<&'static str> {
        let opts = TraceGenOptions::default();
        let params = DiskParams::ultrastar_36z15();
        verify_hints(p, layout, s, &opts, &params, t)
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn valid_directives_verify_clean() {
        let (p, layout, s) = fixture();
        assert_eq!(codes(&p, &layout, &s, &valid_table()), Vec::<&str>::new());
    }

    #[test]
    fn late_pre_activation_is_lead_short() {
        let (p, layout, s) = fixture();
        let mut t = DirectiveTable::new();
        t.push(dir(0, 0, 1, DirectiveKind::SpinDown));
        // Only 32 iterations (1.28 s) before the first disk-1 access —
        // far less than the 10.9 s spin-up.
        t.push(dir(0, 480, 1, DirectiveKind::PreActivate));
        t.push(dir(0, 512, 0, DirectiveKind::SpinDown));
        assert_eq!(codes(&p, &layout, &s, &t), vec!["E_HINT_LEAD_SHORT"]);
    }

    #[test]
    fn access_inside_window_is_rejected() {
        let (p, layout, s) = fixture();
        let mut t = valid_table();
        // Spin disk 0 down while L1 is still touching it.
        t.push(dir(0, 100, 0, DirectiveKind::SpinDown));
        let got = codes(&p, &layout, &s, &t);
        assert!(got.contains(&"E_HINT_ACCESS_IN_WINDOW"), "got {got:?}");
        // The premature spin-down also breaks the alternation (two
        // spin-downs, no pre-activation in between).
        assert!(got.contains(&"E_HINT_UNMATCHED"), "got {got:?}");
    }

    #[test]
    fn duplicate_and_contradictory_directives_are_rejected() {
        let (p, layout, s) = fixture();
        let mut t = valid_table();
        t.push(dir(0, 0, 1, DirectiveKind::SpinDown)); // exact duplicate
        let got = codes(&p, &layout, &s, &t);
        assert!(got.contains(&"E_HINT_DUP"), "got {got:?}");

        let mut t2 = valid_table();
        t2.push(dir(0, 512, 0, DirectiveKind::PreActivate)); // collides with spin-down
        let got2 = codes(&p, &layout, &s, &t2);
        assert!(got2.contains(&"E_HINT_DUP"), "got {got2:?}");
    }

    #[test]
    fn pre_activation_without_spin_down_is_unmatched() {
        let (p, layout, s) = fixture();
        let mut t = DirectiveTable::new();
        t.push(dir(0, 200, 1, DirectiveKind::PreActivate));
        assert_eq!(codes(&p, &layout, &s, &t), vec!["E_HINT_UNMATCHED"]);
    }

    #[test]
    fn out_of_range_positions_are_malformed() {
        let (p, layout, s) = fixture();
        let mut t = DirectiveTable::new();
        t.push(dir(7, 0, 1, DirectiveKind::SpinDown)); // no phase 7
        let mut u = DirectiveTable::new();
        u.push(dir(0, 0, 9, DirectiveKind::SpinDown)); // no disk 9
        assert!(codes(&p, &layout, &s, &t).contains(&"E_MALFORMED"));
        assert!(codes(&p, &layout, &s, &u).contains(&"E_MALFORMED"));
    }

    /// On a 65-disk volume the fixture touches disks 0 and 3 only, so
    /// parking disk 64 for the whole run is as legal as parking disk 63.
    #[test]
    fn disks_past_63_are_checked_against_their_own_accesses() {
        let (p, _, s) = fixture();
        let layout = LayoutMap::new(&p, Striping::new(4096, 65, 0));
        for disk in [63, 64] {
            let mut t = DirectiveTable::new();
            t.push(dir(0, 0, disk, DirectiveKind::SpinDown));
            assert_eq!(
                codes(&p, &layout, &s, &t),
                Vec::<&str>::new(),
                "disk {disk}"
            );
        }
    }

    #[test]
    fn barrier_anchored_directives_order_across_processors() {
        // Two processors, two phases: proc 0 runs L1 in phase 0, proc 1
        // runs L2 in phase 1. Barrier-anchored directives (idx == 0) are
        // provably ordered with the whole phase even across processors.
        let (p, layout, _) = fixture();
        let mut s = Schedule::new(&p, 2, 2);
        p.nests[0].walk(|pt| s.push(0, 0, dpm_core::CompactIter::new(0, pt)));
        p.nests[1].walk(|pt| s.push(1, 1, dpm_core::CompactIter::new(1, pt)));
        let mut t = DirectiveTable::new();
        // Disk 1: spin down at the phase-0 barrier, pre-activate at the
        // phase-1 barrier. Lead = phase 0 floor (20.5 s) ... no: the
        // pre-activation at phase 1 entry leads the first phase-1 access
        // by only that access's prefix (0 ms) — so anchor it at phase 0
        // entry instead? No: spin-down and pre-activation at the same
        // barrier would collide. The provable lead from the phase-1
        // barrier is 0 ms, which must be rejected.
        t.push(dir(0, 0, 1, DirectiveKind::SpinDown));
        t.push(Directive {
            at: SchedulePos::new(1, 0, 0),
            disk: 1,
            kind: DirectiveKind::PreActivate,
        });
        let got = codes(&p, &layout, &s, &t);
        assert_eq!(got, vec!["E_HINT_LEAD_SHORT"], "got {got:?}");
    }
}
