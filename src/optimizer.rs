//! The *unified optimizer* the paper's conclusion sketches as future work:
//! jointly choosing the disk layout (stripe unit, stripe factor, starting
//! iodevice — the knobs of Son et al.'s companion work \[23\]) **and** the
//! code restructuring, by evaluating candidate combinations through the
//! trace generator and disk simulator.
//!
//! ```
//! use disk_reuse::optimizer::{LayoutSearchSpace, unified_optimize};
//! use disk_reuse::prelude::*;
//!
//! let p = parse_program(
//!     "program t; array A[64][64] : bytes(4096);
//!      nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[i][j] = f(A[i][j]); } } }",
//! ).unwrap();
//! let space = LayoutSearchSpace {
//!     stripe_units: vec![16 * 1024, 32 * 1024],
//!     num_disks: vec![8],
//!     start_disks: vec![0],
//! };
//! let best = unified_optimize(&p, &space, PowerPolicy::Tpm(TpmConfig::proactive()));
//! assert!(!best.is_empty());
//! assert!(best[0].energy_j <= best.last().unwrap().energy_j);
//! ```

use crate::prelude::*;

/// The layout knobs to explore (the `pvfs_filestat` triple of §2).
#[derive(Clone, Debug)]
pub struct LayoutSearchSpace {
    /// Candidate stripe units in bytes.
    pub stripe_units: Vec<u64>,
    /// Candidate stripe factors (number of I/O nodes).
    pub num_disks: Vec<usize>,
    /// Candidate starting iodevices.
    pub start_disks: Vec<usize>,
}

impl Default for LayoutSearchSpace {
    fn default() -> Self {
        LayoutSearchSpace {
            stripe_units: vec![8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10],
            num_disks: vec![8],
            start_disks: vec![0],
        }
    }
}

impl LayoutSearchSpace {
    /// All striping candidates in the space.
    pub fn candidates(&self) -> Vec<Striping> {
        let mut out = Vec::new();
        for &su in &self.stripe_units {
            for &nd in &self.num_disks {
                for &sd in &self.start_disks {
                    if sd < nd {
                        out.push(Striping::new(su, nd, sd));
                    }
                }
            }
        }
        out
    }
}

/// One evaluated (layout, transform) combination.
#[derive(Clone, Debug)]
pub struct LayoutCandidate {
    /// The striping evaluated.
    pub striping: Striping,
    /// The code transformation evaluated.
    pub transform: Transform,
    /// Total disk energy (J).
    pub energy_j: f64,
    /// Device-attributed disk I/O time (ms).
    pub io_time_ms: f64,
    /// Requests in the generated trace.
    pub requests: u64,
}

/// Evaluates one (layout, transform, policy) combination end to end.
pub fn evaluate(
    program: &Program,
    striping: Striping,
    transform: Transform,
    policy: PowerPolicy,
) -> LayoutCandidate {
    let layout = LayoutMap::new(program, striping);
    let deps = analyze(program);
    let schedule = apply_transform(program, &layout, &deps, transform);
    let gen = TraceGenerator::new(
        program,
        &layout,
        TraceGenOptions {
            max_request_bytes: striping.stripe_unit(),
            ..TraceGenOptions::default()
        },
    );
    let (trace, _) = gen.generate(&schedule);
    let sim = Simulator::new(DiskParams::default(), policy, striping);
    let report = sim.run(&trace);
    LayoutCandidate {
        striping,
        transform,
        energy_j: report.total_energy_j(),
        io_time_ms: report.total_io_time_ms,
        requests: report.app_requests,
    }
}

/// Exhaustively evaluates the search space for one fixed transform,
/// returning candidates sorted by energy (best first). The candidates are
/// evaluated in parallel on the `DPM_THREADS` pool and come back in
/// candidate order, so the stable sort ranks ties as a serial sweep would.
pub fn optimize_layout(
    program: &Program,
    space: &LayoutSearchSpace,
    transform: Transform,
    policy: PowerPolicy,
) -> Vec<LayoutCandidate> {
    let mut out = dpm_exec::par_map_vec(space.candidates(), |_, s| {
        evaluate(program, s, transform, policy)
    });
    out.sort_by(|a, b| a.energy_j.total_cmp(&b.energy_j));
    out
}

/// The unified search: layouts × {original, disk-reuse restructured},
/// sorted by energy (best first). The paper's observation that layout and
/// restructuring interact (a layout that is good for the original order
/// may differ from the one that maximizes clustered idle periods) shows up
/// directly in the ranking.
pub fn unified_optimize(
    program: &Program,
    space: &LayoutSearchSpace,
    policy: PowerPolicy,
) -> Vec<LayoutCandidate> {
    let mut out = Vec::new();
    for transform in [Transform::Original, Transform::DiskReuse] {
        out.extend(optimize_layout(program, space, transform, policy));
    }
    out.sort_by(|a, b| a.energy_j.total_cmp(&b.energy_j));
    out
}

// ---------------------------------------------------------------------------
// Compiler hint insertion: explicit power-management directives
// ---------------------------------------------------------------------------

/// Inserts explicit [`DirectiveKind::SpinDown`] / [`DirectiveKind::PreActivate`]
/// directives at schedule points, driven by the static energy oracle's
/// idle windows ([`dpm_analyze::disk_idle_windows`]).
///
/// For every provable window at least `max(break_even, spin_down +
/// spin_up)` long, the pass issues a spin-down at the window's first
/// position and — when the window has a closing access — a pre-activation
/// at the latest position whose provable compute-only lead to that access
/// still covers the spin-up time. Windows where no such pair fits (e.g. a
/// single giant iteration spans the whole window) are skipped rather than
/// guessed at. The resulting table is checked by
/// [`dpm_analyze::verify_hints`] before it is returned, so a successful
/// return is a *verified* set of directives.
///
/// # Errors
///
/// Returns the verifier's diagnostics if the inserted table fails
/// verification (a bug in this pass, not an input error).
pub fn insert_power_hints(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    params: &DiskParams,
) -> Result<DirectiveTable, Vec<Diagnostic>> {
    let min_idle_ms = DirectiveConfig::for_params(params).min_idle_ms;
    let windows = dpm_analyze::disk_idle_windows(program, layout, schedule, options, min_idle_ms);
    let dpm_analyze::ComputePrefix {
        prefix,
        phase_floor: floors,
    } = dpm_analyze::compute_prefix(program, schedule, options);
    let single = schedule.num_procs() == 1;
    let mut table = DirectiveTable::new();
    for w in &windows {
        let Some(open) = w.open else { continue };
        let pre = match w.close {
            None => None, // trailing window: park, no wake-up needed
            Some(close) => {
                let found = if single {
                    latest_single_proc_lead(&prefix, &floors, open, close, params.spin_up_ms)
                } else {
                    latest_barrier_lead(&prefix, &floors, open, close, params.spin_up_ms)
                };
                match found {
                    // No position fits both the spin-down and a
                    // sufficient lead: skip the whole window.
                    None => continue,
                    some => some,
                }
            }
        };
        table.push(Directive {
            at: open,
            disk: w.disk,
            kind: DirectiveKind::SpinDown,
        });
        if let Some(at) = pre {
            table.push(Directive {
                at,
                disk: w.disk,
                kind: DirectiveKind::PreActivate,
            });
        }
    }
    let diags = dpm_analyze::verify_hints(program, layout, schedule, options, params, &table);
    if diags.is_empty() {
        Ok(table)
    } else {
        Err(diags)
    }
}

/// Latest single-processor position strictly after `open` whose
/// compute-only lead to `close` covers `need_ms`. Walks the processor's
/// sequence backwards from `close`.
fn latest_single_proc_lead(
    prefix: &[Vec<Vec<f64>>],
    floors: &[f64],
    open: SchedulePos,
    close: SchedulePos,
    need_ms: f64,
) -> Option<SchedulePos> {
    let close_off = prefix[close.phase as usize][0][close.idx as usize];
    let mut best: Option<SchedulePos> = None;
    let mut ph = close.phase as i64;
    while ph >= open.phase as i64 && best.is_none() {
        let pre = &prefix[ph as usize][0];
        // Lead from (ph, 0, k) to close: remaining compute of this
        // phase, plus full intervening phases, plus close's prefix.
        let after: f64 = (ph as usize + 1..close.phase as usize)
            .map(|p| floors[p])
            .sum::<f64>()
            + if (ph as u32) < close.phase {
                close_off
            } else {
                0.0
            };
        let top = if ph as u32 == close.phase {
            close.idx as usize
        } else {
            pre.len() - 1
        };
        for k in (0..=top).rev() {
            let lead = if ph as u32 == close.phase {
                close_off - pre[k]
            } else {
                pre[pre.len() - 1] - pre[k] + after
            };
            if lead < need_ms {
                continue;
            }
            let cand = SchedulePos::new(ph as u32, 0, k as u32);
            if cand > open {
                best = Some(cand);
            }
            break; // first (= latest) sufficient lead in this phase
        }
        ph -= 1;
    }
    best
}

/// Latest barrier-anchored position `(p, 0, 0)` strictly after `open`
/// whose provable lead to `close` covers `need_ms` (multi-processor
/// schedules: only phase entries are ordered across processors).
fn latest_barrier_lead(
    prefix: &[Vec<Vec<f64>>],
    floors: &[f64],
    open: SchedulePos,
    close: SchedulePos,
    need_ms: f64,
) -> Option<SchedulePos> {
    let close_off = prefix[close.phase as usize]
        .get(close.proc as usize)
        .and_then(|pre| pre.get(close.idx as usize))
        .copied()
        .unwrap_or(0.0);
    for p in (open.phase as usize..=close.phase as usize).rev() {
        let lead: f64 = (p..close.phase as usize).map(|q| floors[q]).sum::<f64>()
            + if p == close.phase as usize {
                close_off
            } else {
                0.0
            };
        if lead < need_ms {
            continue;
        }
        let cand = SchedulePos::new(p as u32, 0, 0);
        if cand > open {
            return Some(cand);
        }
        break;
    }
    None
}

// ---------------------------------------------------------------------------
// Energy-aware tier placement
// ---------------------------------------------------------------------------

/// A verified tier placement: the plan, the static demands that drove it,
/// and the plan's score under the static energy model.
#[derive(Clone, Debug)]
pub struct TierPlacement {
    /// The placement, provably legal per [`dpm_analyze::verify_placement`].
    pub plan: PlacementPlan,
    /// Per-array demands (rounded file bytes, closed-form access counts).
    pub demands: Vec<ArrayDemand>,
    /// Modeled energy of the plan (J) — a ranking score, not a simulation.
    pub modeled_energy_j: f64,
}

/// Static (closed-form) energy model of a placement: the score the
/// placement pass minimizes. Per access, one trace block is positioned
/// and transferred on the class holding the byte (entries share an
/// array's accesses pro-rata by bytes); on top, every disk of a tier that
/// holds any accessed data idles — while cold tiers stand by — for the
/// serialized active time. The model rewards concentrating hot arrays on
/// few fast disks and letting cold tiers sleep, which is exactly the
/// signal the greedy packer needs; real verdicts come from simulation.
pub fn modeled_placement_energy(
    config: &TierConfig,
    demands: &[ArrayDemand],
    plan: &PlacementPlan,
) -> f64 {
    let nt = config.num_tiers();
    let mut active_j = 0.0;
    let mut active_ms = 0.0;
    let mut tier_hot = vec![false; nt];
    for e in &plan.entries {
        let d = &demands[e.array];
        if d.heat == 0 || d.bytes == 0 {
            continue;
        }
        let share = (e.byte_hi - e.byte_lo) as f64 / d.bytes as f64;
        let accesses = d.heat as f64 * share;
        let p = &config.tiers()[e.tier].class.params;
        let access_ms = p.avg_seek_ms
            + p.avg_rotation_ms / 2.0
            + p.transfer_ms(dpm_disksim::TRACE_BLOCK_BYTES, p.max_rpm);
        active_ms += accesses * access_ms;
        active_j += accesses * access_ms * p.active_power_w / 1000.0;
        tier_hot[e.tier] = true;
    }
    let mut rest_j = 0.0;
    for (t, tier) in config.tiers().iter().enumerate() {
        let p = &tier.class.params;
        let watts = if tier_hot[t] {
            p.idle_power_w
        } else {
            p.standby_power_w
        };
        rest_j += tier.disks as f64 * watts * active_ms / 1000.0;
    }
    active_j + rest_j
}

/// The compiler-guided placement pass: derives per-array demands from
/// closed-form static access counts, builds candidate plans (greedy
/// heat-density packing, round-robin, and each single-tier uniform plan
/// that fits), scores them with [`modeled_placement_energy`], and returns
/// the cheapest plan — verified legal by `dpm-analyze` before it is
/// handed to the simulator.
///
/// # Errors
///
/// Returns a message when no candidate fits the topology's capacities or
/// the winning plan fails placement verification (a bug, not an input
/// error — the builders only emit legal plans).
pub fn place_energy_aware(
    program: &Program,
    layout: &LayoutMap,
    config: &TierConfig,
) -> Result<TierPlacement, String> {
    let demands = dpm_analyze::array_demands(program, layout);
    let topo = config.topology();
    let sizes: Vec<u64> = demands.iter().map(|d| d.bytes).collect();
    let mut candidates = Vec::new();
    if let Ok(p) = PlacementPlan::greedy(&topo, &demands) {
        candidates.push(p);
    }
    if let Ok(p) = PlacementPlan::round_robin(&topo, &demands) {
        candidates.push(p);
    }
    for t in 0..topo.num_tiers() {
        let rows: u64 = sizes
            .iter()
            .map(|&b| b.max(1).div_ceil(topo.row_bytes(t)))
            .sum();
        if rows * topo.row_bytes(t) <= topo.tier_capacity_bytes(t) {
            candidates.push(PlacementPlan::uniform(t, &sizes));
        }
    }
    let best = candidates
        .into_iter()
        .map(|p| {
            let e = modeled_placement_energy(config, &demands, &p);
            (p, e)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or_else(|| "no placement candidate fits the tier capacities".to_string())?;
    finish_placement(program, layout, config, best.0, demands)
}

/// The heat-blind competitor the experiments compare against: round-robin
/// placement by array index, same verification, same scoring.
///
/// # Errors
///
/// Returns a message when the plan fits no tier or fails verification.
pub fn place_heuristic(
    program: &Program,
    layout: &LayoutMap,
    config: &TierConfig,
) -> Result<TierPlacement, String> {
    let demands = dpm_analyze::array_demands(program, layout);
    let plan = PlacementPlan::round_robin(&config.topology(), &demands)?;
    finish_placement(program, layout, config, plan, demands)
}

/// Verifies `plan` with the analyze gate and attaches its model score.
fn finish_placement(
    program: &Program,
    layout: &LayoutMap,
    config: &TierConfig,
    plan: PlacementPlan,
    demands: Vec<ArrayDemand>,
) -> Result<TierPlacement, String> {
    let diags = dpm_analyze::verify_placement(program, layout, &config.topology(), &plan);
    if !diags.is_empty() {
        return Err(format!(
            "placement failed verification: {}",
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ));
    }
    let modeled_energy_j = modeled_placement_energy(config, &demands, &plan);
    Ok(TierPlacement {
        plan,
        demands,
        modeled_energy_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        parse_program(
            "program t; array A[128][32] : bytes(4096);
             nest L1 { for i = 0 .. 127 { for j = 0 .. 31 { A[i][j] = f(A[i][j]) @ 40000; } } }
             nest L2 { for i = 0 .. 127 { for j = 0 .. 31 { A[i][j] = g(A[i][j]) @ 40000; } } }",
        )
        .unwrap()
    }

    #[test]
    fn candidates_enumerate_the_space() {
        let space = LayoutSearchSpace {
            stripe_units: vec![4096, 8192],
            num_disks: vec![4, 8],
            start_disks: vec![0, 5],
        };
        // start_disk 5 is invalid for 4 disks → 2*2*2 − 2 = 6.
        assert_eq!(space.candidates().len(), 6);
    }

    #[test]
    fn optimizer_sorts_by_energy() {
        let p = program();
        let space = LayoutSearchSpace {
            stripe_units: vec![8192, 32768],
            num_disks: vec![4],
            start_disks: vec![0],
        };
        let rank = |threads| {
            dpm_exec::with_env_threads(threads, || {
                optimize_layout(
                    &p,
                    &space,
                    Transform::DiskReuse,
                    PowerPolicy::Tpm(TpmConfig::proactive()),
                )
            })
        };
        let ranked = rank(1);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].energy_j <= ranked[1].energy_j);
        // The candidate map is ordered, so the ranking does not depend on
        // the thread count.
        let bits = |ranked: &[LayoutCandidate]| -> Vec<(Striping, u64)> {
            ranked
                .iter()
                .map(|c| (c.striping, c.energy_j.to_bits()))
                .collect()
        };
        assert_eq!(bits(&ranked), bits(&rank(8)));
    }

    #[test]
    fn unified_search_includes_both_transforms() {
        let p = program();
        let space = LayoutSearchSpace {
            stripe_units: vec![16384],
            num_disks: vec![4],
            start_disks: vec![0],
        };
        let ranked = unified_optimize(&p, &space, PowerPolicy::None);
        assert_eq!(ranked.len(), 2);
        let transforms: Vec<Transform> = ranked.iter().map(|c| c.transform).collect();
        assert!(transforms.contains(&Transform::Original));
        assert!(transforms.contains(&Transform::DiskReuse));
    }

    /// One array red-hot, two cold: the energy-aware pass puts the hot
    /// one on the fast tier, the plan verifies, and its model score beats
    /// the heat-blind round-robin's.
    #[test]
    fn energy_aware_placement_beats_heuristic_on_skewed_heat() {
        let p = parse_program(
            "program t;
             array HOT[16][64] : f64;
             array COLD1[64][64] : f64;
             array COLD2[64][64] : f64;
             nest L1 { for r = 0 .. 63 { for i = 0 .. 15 { for j = 0 .. 63 {
                 HOT[i][j] = f(HOT[i][j]); } } } }
             nest L2 { for i = 0 .. 63 { for j = 0 .. 63 {
                 COLD1[i][j] = COLD2[i][j]; } } }",
        )
        .unwrap();
        let config = TierConfig::perf_nearline(1024, 2, 4);
        let layout = LayoutMap::new(&p, Striping::new(1024, 6, 0));
        let compiler = place_energy_aware(&p, &layout, &config).unwrap();
        let heuristic = place_heuristic(&p, &layout, &config).unwrap();
        assert_eq!(
            compiler.plan.tier_of_array(0),
            Some(0),
            "hot array off the fast tier"
        );
        assert!(
            compiler.modeled_energy_j <= heuristic.modeled_energy_j,
            "compiler {} J > heuristic {} J",
            compiler.modeled_energy_j,
            heuristic.modeled_energy_j
        );
        // Both plans build tiered volumes without tripping any assert.
        let topo = config.topology();
        let _ = TieredVolume::new(&layout, topo.clone(), &compiler.plan);
        let _ = TieredVolume::new(&layout, topo, &heuristic.plan);
    }

    /// The pass fails loudly (not silently) when nothing fits.
    #[test]
    fn placement_errs_when_capacity_is_impossible() {
        let p = parse_program(
            "program t; array A[64][64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[i][j] = 1; } } }",
        )
        .unwrap();
        let layout = LayoutMap::new(&p, Striping::new(1024, 2, 0));
        let tiny = DiskClass {
            capacity_bytes: 1024,
            ..DiskClass::performance()
        };
        let config = TierConfig::single_class(1024, tiny, 2);
        assert!(place_energy_aware(&p, &layout, &config).is_err());
    }

    #[test]
    fn restructuring_wins_under_tpm_on_clusterable_program() {
        let p = program();
        let space = LayoutSearchSpace {
            stripe_units: vec![32768],
            num_disks: vec![8],
            start_disks: vec![0],
        };
        let ranked = unified_optimize(&p, &space, PowerPolicy::Tpm(TpmConfig::proactive()));
        // Best candidate must not be worse than the original-order one.
        let orig = ranked
            .iter()
            .find(|c| c.transform == Transform::Original)
            .unwrap();
        assert!(ranked[0].energy_j <= orig.energy_j);
    }

    /// One array spanning four stripes of a two-disk volume. Nest L1
    /// hammers block 0 (disk 0) for ~20.5 s, then L2 hammers block 3
    /// (disk 1) — long exclusive bursts, so each disk has one provable
    /// idle window well past the spin-down break-even point.
    fn windowed_fixture() -> (Program, LayoutMap) {
        let p = parse_program(
            "program t;
             array A[2048] : f64;
             nest L1 { for i = 0 .. 511 { A[i] = A[i] + 1 @ 30000000; } }
             nest L2 { for i = 1536 .. 2047 { A[i] = A[i] + 1 @ 30000000; } }",
        )
        .unwrap();
        let layout = LayoutMap::new(&p, Striping::new(4096, 2, 0));
        (p, layout)
    }

    /// The hint pass spins down both disks (disk 1 before its burst,
    /// disk 0 after its own), pre-activates disk 1 with a provable
    /// spin-up lead, and the emitted table passes `verify_hints` — and
    /// the directive-driven simulator actually honours it.
    #[test]
    fn hint_insertion_emits_verified_directives() {
        let (p, layout) = windowed_fixture();
        let schedule = original_schedule(&p);
        let options = TraceGenOptions::default();
        let params = DiskParams::default();
        let table = insert_power_hints(&p, &layout, &schedule, &options, &params)
            .expect("inserted hints must verify");
        assert!(
            table.count(DirectiveKind::SpinDown) >= 2,
            "expected a spin-down per disk, got {:?}",
            table.entries()
        );
        assert!(
            table.count(DirectiveKind::PreActivate) >= 1,
            "disk 1's window closes with an access and needs a wake-up"
        );
        // Every pre-activation sits strictly inside its disk's window.
        for d in table.entries() {
            assert!(d.at.phase < schedule.num_phases() as u32);
        }
        // The simulator acts on the table: proactive spin-downs, no
        // reactive ones, and less energy than leaving the disks spinning.
        let gen = TraceGenerator::new(&p, &layout, options);
        let (trace, _) = gen.generate(&schedule);
        let striping = *layout.striping();
        let directive = Simulator::new(
            params,
            PowerPolicy::Directive(DirectiveConfig::for_params(&params)),
            striping,
        )
        .run(&trace);
        let none = Simulator::new(params, PowerPolicy::None, striping).run(&trace);
        assert!(directive.total_spin_downs() >= 1);
        assert!(directive.total_energy_j() < none.total_energy_j());
    }

    /// The windowed fixture with each body split into two statements of
    /// 15000000 and 15000007 cycles. At 750 MHz, summing the cycles before
    /// converting and converting each statement before summing differ in
    /// the last bit; the inserter and the verifier share one conversion,
    /// so the table the inserter builds verifies clean.
    #[test]
    fn hint_insertion_verifies_with_multi_statement_bodies() {
        let p = parse_program(
            "program t;
             array A[2048] : f64;
             nest L1 { for i = 0 .. 511 {
                 A[i] = A[i] + 1 @ 15000000;
                 A[i] = A[i] + 2 @ 15000007;
             } }
             nest L2 { for i = 1536 .. 2047 {
                 A[i] = A[i] + 1 @ 15000000;
                 A[i] = A[i] + 2 @ 15000007;
             } }",
        )
        .unwrap();
        let options = TraceGenOptions::default();
        assert_ne!(
            options.compute_ms(15_000_000 + 15_000_007),
            options.compute_ms(15_000_000) + options.compute_ms(15_000_007),
            "the fixture must tell the two conversions apart"
        );
        let layout = LayoutMap::new(&p, Striping::new(4096, 2, 0));
        let schedule = original_schedule(&p);
        let params = DiskParams::default();
        let table = insert_power_hints(&p, &layout, &schedule, &options, &params)
            .expect("inserted hints must verify");
        assert!(
            table.count(DirectiveKind::PreActivate) >= 1,
            "{:?}",
            table.entries()
        );
        assert!(verify_hints(&p, &layout, &schedule, &options, &params, &table).is_empty());
    }

    /// Short compute bursts leave no gap past break-even: the pass
    /// inserts nothing rather than guessing.
    #[test]
    fn hint_insertion_is_empty_without_provable_windows() {
        let p = program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let schedule = original_schedule(&p);
        let table = insert_power_hints(
            &p,
            &layout,
            &schedule,
            &TraceGenOptions::default(),
            &DiskParams::default(),
        )
        .expect("empty table trivially verifies");
        assert!(table.is_empty(), "got {:?}", table.entries());
    }
}
