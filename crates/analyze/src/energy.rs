//! The static energy oracle: symbolic per-disk idle-window analysis and
//! provable energy bounds for a verified [`Schedule`].
//!
//! The pass walks the schedule once (the same order the trace generator
//! executes), maps every array reference — compiled once per walk
//! ([`dpm_core::compile`]) — through the [`LayoutMap`] to page blocks
//! and striped disk pieces, and derives — *without generating a trace or
//! running the simulator* —
//!
//! * per-disk **traffic bounds**: every distinct `(processor, block)`
//!   pair is fetched at least once (the reuse window starts empty), and
//!   at most every block touch misses — so per-disk bytes lie in
//!   `[bytes_lower, bytes_upper]`;
//! * per-disk **inter-access gap lower bounds**: compute-only time
//!   between consecutive touches of a disk (single-processor schedules at
//!   statement granularity; multi-processor schedules at barrier/phase
//!   granularity), classified against the spin-down break-even time into
//!   spin-down / pre-activation opportunities;
//! * **energy bounds** `[energy_lower_j, energy_upper_j]` that provably
//!   contain the simulated energy of the fault-free run under the given
//!   [`PowerPolicy`] (the soundness contract `tests/oracle_golden.rs`
//!   checks against the simulator).
//!
//! Soundness sketch (full argument in DESIGN §16): the makespan is at
//! least the largest per-disk transfer time of the *guaranteed* bytes at
//! full speed, and at most the last possible arrival (closed-form compute
//! plus worst-case blocking for every potential miss) plus the worst
//! disk's backlog and power-management stalls. Energy is bounded below by
//! the cheapest power state over the minimal makespan plus a per-byte
//! transfer surcharge, and above by full idle power over the maximal
//! makespan plus the active-power surcharge on maximal busy time and
//! every possible transition lump. The per-nest iteration totals the walk
//! accumulates are cross-checked against `dpm-poly`'s closed-form point
//! counts, so the walk provably covered the schedule it claims to.
//!
//! Gap bounds ignore request-assembly front-running (a coalesced request
//! can arrive at a disk slightly before the statically anchored touch of
//! the piece that lands there); the simulator's directive policy decides
//! by the *actual* gap, so this approximation can cost prediction
//! hit-rate but never correctness — see DESIGN §16.

use crate::diag::{DiagCode, Diagnostic, Location};
use dpm_core::compile::CompiledProgram;
use dpm_core::{Schedule, SchedulePos};
use dpm_disksim::{DirectiveConfig, DiskParams, PowerPolicy, RaidConfig};
use dpm_ir::Program;
use dpm_layout::LayoutMap;
use dpm_obs::Json;
use dpm_trace::TraceGenOptions;

/// One statically predicted idle window of a disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IdleWindow {
    /// The disk the window belongs to.
    pub disk: u32,
    /// First schedule position inside the window (where a `SpinDown`
    /// directive can be issued); `None` when the window trails the last
    /// scheduled iteration (the simulator's end-of-trace accounting
    /// parks the disk without a directive).
    pub open: Option<SchedulePos>,
    /// Position of the first access to the disk after the window;
    /// `None` for a trailing window.
    pub close: Option<SchedulePos>,
    /// Provable lower bound on the window length (compute-only time), ms.
    pub lower_ms: f64,
}

/// Per-disk prediction detail.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedDisk {
    /// Disk id.
    pub disk: usize,
    /// Distinct `(processor, block)` pairs with bytes on this disk —
    /// each is fetched at least once.
    pub touched_blocks: u64,
    /// Block-touch events with bytes on this disk (upper bound on
    /// fetches of this disk's blocks).
    pub block_touches: u64,
    /// Guaranteed bytes transferred (distinct blocks' pieces).
    pub bytes_lower: u64,
    /// Maximal bytes transferred (every touch misses).
    pub bytes_upper: u64,
    /// Upper bound on serviced sub-requests (stripe-piece events).
    pub pieces_upper: u64,
    /// Upper bound on busy time under the analyzed policy, ms.
    pub busy_upper_ms: f64,
    /// Predicted idle windows at least as long as the spin-down target.
    pub idle_windows: u64,
    /// Windows long enough to spin down profitably.
    pub spin_down_opportunities: u64,
    /// Windows with a following access (a pre-activation is insertable).
    pub pre_activation_opportunities: u64,
    /// The longest provable window, ms (0 when none).
    pub longest_window_lower_ms: f64,
}

/// The oracle's output: per-disk idle windows, opportunity counts, and
/// provable makespan/energy bounds for one schedule under one policy.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedReport {
    /// Display form of the analyzed power policy.
    pub policy: String,
    /// Processors in the schedule.
    pub procs: u32,
    /// Barrier-separated phases.
    pub phases: usize,
    /// Closed-form total compute time (all processors), ms.
    pub compute_ms: f64,
    /// The disk's spin-down break-even time, ms.
    pub break_even_ms: f64,
    /// Idle-window length the analysis classifies against
    /// (`max(break_even, spin_down + spin_up)`), ms.
    pub min_idle_ms: f64,
    /// Upper bound on the last request arrival, ms.
    pub arrival_upper_ms: f64,
    /// Provable lower bound on the simulated makespan, ms.
    pub makespan_lower_ms: f64,
    /// Provable upper bound on the simulated makespan, ms.
    pub makespan_upper_ms: f64,
    /// Provable lower bound on total disk energy, J.
    pub energy_lower_j: f64,
    /// Provable upper bound on total disk energy, J.
    pub energy_upper_j: f64,
    /// Whether the walk's per-nest iteration totals matched the
    /// polyhedral closed-form counts (a failed cross-check means the
    /// schedule does not cover the program and the bounds describe the
    /// schedule as-is, not the program).
    pub counts_verified: bool,
    /// All predicted idle windows, disk-major.
    pub windows: Vec<IdleWindow>,
    /// Per-disk detail.
    pub per_disk: Vec<PredictedDisk>,
}

impl PredictedReport {
    /// Whether a simulated energy lands inside the proven bounds
    /// (with a small relative tolerance for float accumulation).
    pub fn contains(&self, energy_j: f64) -> bool {
        let tol = 1e-6 + 1e-9 * energy_j.abs();
        energy_j >= self.energy_lower_j - tol && energy_j <= self.energy_upper_j + tol
    }

    /// Bound tightness in (0, 1]: lower / upper. Higher is better.
    pub fn tightness(&self) -> f64 {
        if self.energy_upper_j <= 0.0 {
            return 1.0;
        }
        (self.energy_lower_j / self.energy_upper_j).clamp(0.0, 1.0)
    }

    /// Total predicted spin-down opportunities over all disks.
    pub fn spin_down_opportunities(&self) -> u64 {
        self.per_disk
            .iter()
            .map(|d| d.spin_down_opportunities)
            .sum()
    }

    /// JSON form (the `tests/golden/oracle_tiny.json` snapshot).
    pub fn to_json(&self) -> Json {
        let pos = |p: &Option<SchedulePos>| match p {
            Some(p) => Json::Arr(vec![
                Json::U64(u64::from(p.phase)),
                Json::U64(u64::from(p.proc)),
                Json::U64(u64::from(p.idx)),
            ]),
            None => Json::Null,
        };
        Json::obj(vec![
            ("policy", Json::Str(self.policy.clone())),
            ("procs", Json::U64(u64::from(self.procs))),
            ("phases", Json::U64(self.phases as u64)),
            ("compute_ms", Json::F64(self.compute_ms)),
            ("break_even_ms", Json::F64(self.break_even_ms)),
            ("min_idle_ms", Json::F64(self.min_idle_ms)),
            ("arrival_upper_ms", Json::F64(self.arrival_upper_ms)),
            ("makespan_lower_ms", Json::F64(self.makespan_lower_ms)),
            ("makespan_upper_ms", Json::F64(self.makespan_upper_ms)),
            ("energy_lower_j", Json::F64(self.energy_lower_j)),
            ("energy_upper_j", Json::F64(self.energy_upper_j)),
            ("tightness", Json::F64(self.tightness())),
            ("counts_verified", Json::Bool(self.counts_verified)),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("disk", Json::U64(u64::from(w.disk))),
                                ("open", pos(&w.open)),
                                ("close", pos(&w.close)),
                                ("lower_ms", Json::F64(w.lower_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_disk",
                Json::Arr(
                    self.per_disk
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("disk", Json::U64(d.disk as u64)),
                                ("touched_blocks", Json::U64(d.touched_blocks)),
                                ("block_touches", Json::U64(d.block_touches)),
                                ("bytes_lower", Json::U64(d.bytes_lower)),
                                ("bytes_upper", Json::U64(d.bytes_upper)),
                                ("pieces_upper", Json::U64(d.pieces_upper)),
                                ("busy_upper_ms", Json::F64(d.busy_upper_ms)),
                                ("idle_windows", Json::U64(d.idle_windows)),
                                (
                                    "spin_down_opportunities",
                                    Json::U64(d.spin_down_opportunities),
                                ),
                                (
                                    "pre_activation_opportunities",
                                    Json::U64(d.pre_activation_opportunities),
                                ),
                                (
                                    "longest_window_lower_ms",
                                    Json::F64(d.longest_window_lower_ms),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-nest compute time of ONE iteration, ms: the nest's statement
/// cycles summed, then converted at the generator's clock rate. The
/// oracle's closed-form compute total uses it. The hint passes share
/// [`compute_prefix`](crate::hints::compute_prefix) instead, which converts
/// per statement as the walks do.
pub fn nest_iter_compute_ms(program: &Program, options: &TraceGenOptions) -> Vec<f64> {
    program
        .nests
        .iter()
        .map(|n| options.compute_ms(n.body.iter().map(|s| s.cost_cycles).sum()))
        .collect()
}

/// The first schedule position strictly after `pos` that actually holds
/// an iteration (`None` when `pos` is the last one). Used to anchor a
/// `SpinDown` directly after a window-opening access.
pub fn successor_pos(schedule: &Schedule, pos: SchedulePos) -> Option<SchedulePos> {
    if (pos.idx as usize) + 1 < schedule.len(pos.phase as usize, pos.proc) {
        return Some(SchedulePos::new(pos.phase, pos.proc, pos.idx + 1));
    }
    first_pos_from(schedule, pos.phase as usize + 1)
}

/// The first non-empty schedule position at or after `phase`.
pub fn first_pos_from(schedule: &Schedule, phase: usize) -> Option<SchedulePos> {
    for ph in phase..schedule.num_phases() {
        for proc in 0..schedule.num_procs() {
            if schedule.len(ph, proc) > 0 {
                return Some(SchedulePos::new(ph as u32, proc, 0));
            }
        }
    }
    None
}

/// Per-disk accumulators of the schedule walk.
struct DiskAcc {
    touched_blocks: u64,
    block_touches: u64,
    bytes_lower: u64,
    bytes_upper: u64,
    pieces_upper: u64,
    // Single-processor window tracking: compute clock and position of the
    // last touch (None = never touched yet).
    last_clock_ms: f64,
    last_pos: Option<SchedulePos>,
}

/// Everything the walk gathers; shared by the oracle and the window
/// helper so the numbers cannot drift apart.
struct WalkResult {
    compute: Vec<Vec<f64>>, // [phase][proc] compute ms
    touches: Vec<Vec<u64>>, // [phase][proc] block-touch events
    disks: Vec<DiskAcc>,
    // Multi-processor window tracking: the first touch of each disk in
    // each phase, `None` when the phase never touches the disk.
    first_touch: Vec<Vec<Option<SchedulePos>>>, // [phase][disk]
    // Single-processor windows emitted inline during the walk (interior
    // and leading gaps; trailing gaps are appended by `build_windows`).
    sp_windows: Vec<IdleWindow>,
    iters_per_nest: Vec<u64>,
    total_compute_ms: f64, // flat single-processor clock at end of walk
}

fn walk(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    min_idle_ms: f64,
) -> WalkResult {
    let striping = layout.striping();
    let num_disks = striping.num_disks();
    let nphases = schedule.num_phases();
    let nprocs = schedule.num_procs() as usize;
    let single = nprocs == 1;
    let bs = options.block_bytes.max(1);
    let mut r = WalkResult {
        compute: vec![vec![0.0; nprocs]; nphases],
        touches: vec![vec![0; nprocs]; nphases],
        disks: (0..num_disks)
            .map(|_| DiskAcc {
                touched_blocks: 0,
                block_touches: 0,
                bytes_lower: 0,
                bytes_upper: 0,
                pieces_upper: 0,
                last_clock_ms: 0.0,
                last_pos: None,
            })
            .collect(),
        first_touch: vec![vec![None; num_disks]; nphases],
        sp_windows: Vec::new(),
        iters_per_nest: vec![0; program.nests.len()],
        total_compute_ms: 0.0,
    };
    let compiled = CompiledProgram::new(program);
    let mut pieces: Vec<(usize, u64, u64)> = Vec::new();
    // The distinct (processor, block) pairs: one bit per volume block for
    // each processor.
    let words = layout.volume_bytes().div_ceil(bs).div_ceil(64) as usize;
    let mut seen = vec![vec![0u64; words]; nprocs];
    // `for_each_scheduled` is phase-major, processor-major, issue order —
    // for a single-processor schedule this IS the execution order, so the
    // flat clock below is the processor's compute-only virtual clock.
    let mut clock = 0.0f64;
    schedule.for_each_scheduled(|pos, ni, coords| {
        let (phase, proc) = (pos.phase as usize, pos.proc as usize);
        r.iters_per_nest[ni] += 1;
        let seen = &mut seen[proc];
        for stmt in compiled.nest(ni) {
            for re in &stmt.refs {
                let off = re.offset(program, layout, coords);
                for b in off / bs..=(off + re.elem_bytes - 1) / bs {
                    striping.split_range_into(b * bs, bs, &mut pieces);
                    let (word, bit) = ((b / 64) as usize, 1u64 << (b % 64));
                    let fresh = seen[word] & bit == 0;
                    seen[word] |= bit;
                    // Pieces come sorted by disk: the window state of a
                    // disk takes one touch per block.
                    let mut prev_disk = None;
                    for &(d, _, len) in &pieces {
                        let acc = &mut r.disks[d];
                        acc.block_touches += 1;
                        acc.bytes_upper += len;
                        acc.pieces_upper += 1;
                        if fresh {
                            acc.touched_blocks += 1;
                            acc.bytes_lower += len;
                        }
                        if prev_disk == Some(d) {
                            continue;
                        }
                        prev_disk = Some(d);
                        if single {
                            // Compute-clock gap since the previous touch
                            // of this disk (or since t = 0 for the first
                            // touch) — a lower bound on the real idle
                            // gap, since real time only adds blocking.
                            let gap = clock - acc.last_clock_ms;
                            if gap >= min_idle_ms && gap > 0.0 {
                                let open = match acc.last_pos {
                                    Some(p) => successor_pos(schedule, p),
                                    None => first_pos_from(schedule, 0),
                                };
                                r.sp_windows.push(IdleWindow {
                                    disk: d as u32,
                                    open,
                                    close: Some(pos),
                                    lower_ms: gap,
                                });
                            }
                        }
                        acc.last_clock_ms = clock;
                        acc.last_pos = Some(pos);
                        r.first_touch[phase][d].get_or_insert(pos);
                    }
                    r.touches[phase][proc] += 1;
                }
            }
            let ms = options.compute_ms(stmt.cost_cycles);
            clock += ms;
            r.compute[phase][proc] += ms;
        }
    });
    r.total_compute_ms = clock;
    r
}

/// Statically predicted idle windows of every disk, at the spin-down
/// target `min_idle_ms` (use
/// [`DirectiveConfig::for_params`] for the profitable-and-feasible
/// target). Single-processor schedules get statement-granularity
/// compute-clock gaps; multi-processor schedules get barrier-granularity
/// runs of phases that never touch the disk.
pub fn disk_idle_windows(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    min_idle_ms: f64,
) -> Vec<IdleWindow> {
    let w = walk(program, layout, schedule, options, min_idle_ms);
    build_windows(schedule, &w, min_idle_ms)
}

fn build_windows(schedule: &Schedule, w: &WalkResult, min_idle_ms: f64) -> Vec<IdleWindow> {
    let num_disks = w.disks.len();
    let mut windows;
    if schedule.num_procs() == 1 {
        // Statement-granularity gaps were emitted during the walk; only
        // the trailing gap of each disk (and whole-run windows of disks
        // never touched) remain.
        windows = w.sp_windows.clone();
        for (d, acc) in w.disks.iter().enumerate() {
            let tail = w.total_compute_ms - acc.last_clock_ms;
            if tail >= min_idle_ms && tail > 0.0 {
                let open = match acc.last_pos {
                    Some(p) => successor_pos(schedule, p),
                    None => first_pos_from(schedule, 0),
                };
                windows.push(IdleWindow {
                    disk: d as u32,
                    open,
                    close: None,
                    lower_ms: tail,
                });
            }
        }
    } else {
        // Phase-granularity: maximal runs of phases that never touch the
        // disk, each worth at least the slowest processor's compute of
        // every phase in the run (phase duration ≥ max_q compute).
        windows = Vec::new();
        let nphases = schedule.num_phases();
        let phase_floor: Vec<f64> = (0..nphases)
            .map(|p| w.compute[p].iter().fold(0.0f64, |a, &c| a.max(c)))
            .collect();
        for d in 0..num_disks {
            let mut run_start: Option<usize> = Some(0);
            for p in 0..nphases {
                if let Some(close) = w.first_touch[p][d] {
                    if let Some(a) = run_start.take() {
                        // The leading run before the first-ever touch
                        // counts from t = 0; interior runs open after the
                        // closing access of the previous touched phase.
                        let lower: f64 = (a..p).map(|q| phase_floor[q]).sum();
                        if lower >= min_idle_ms && lower > 0.0 {
                            windows.push(IdleWindow {
                                disk: d as u32,
                                open: first_pos_from(schedule, a),
                                close: Some(close),
                                lower_ms: lower,
                            });
                        }
                    }
                    run_start = Some(p + 1);
                }
            }
            if let Some(a) = run_start {
                // Trailing run; for a never-touched disk this is the
                // whole schedule.
                let lower: f64 = (a..nphases).map(|q| phase_floor[q]).sum();
                if lower >= min_idle_ms && lower > 0.0 {
                    windows.push(IdleWindow {
                        disk: d as u32,
                        open: first_pos_from(schedule, a),
                        close: None,
                        lower_ms: lower,
                    });
                }
            }
        }
    }
    // Disk-major, chronological within a disk (stable sort preserves the
    // emission order of each disk's windows).
    windows.sort_by_key(|win| win.disk);
    windows
}

/// Full oracle entry point: walk the schedule, cross-check the iteration
/// totals against the polyhedral closed forms, and derive idle windows,
/// opportunity counts, and energy/makespan bounds under `policy`.
pub fn predict_energy(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    params: &DiskParams,
    policy: &PowerPolicy,
    raid: &RaidConfig,
) -> PredictedReport {
    let min_idle_ms = DirectiveConfig::for_params(params).min_idle_ms;
    let w = walk(program, layout, schedule, options, min_idle_ms);
    let windows = build_windows(schedule, &w, min_idle_ms);

    // dpm-poly closed-form cross-check: the walk must have visited each
    // nest exactly its trip count — otherwise the schedule (and hence the
    // bounds) describe something other than the program.
    let mut counts_verified = true;
    let mut closed_compute = 0.0f64;
    let per_iter = nest_iter_compute_ms(program, options);
    for (ni, nest) in program.nests.iter().enumerate() {
        let closed = nest.iteration_space().count_points();
        if closed != w.iters_per_nest[ni] {
            counts_verified = false;
        }
        closed_compute += closed as f64 * per_iter[ni];
    }

    let num_disks = layout.striping().num_disks();
    let members = f64::from(raid.members);
    let bw_ms = params.transfer_mb_s * 1024.0 * 1024.0 / 1000.0; // bytes/ms at max RPM
    let (rho_floor, floor_rpm, drpm_steps) = match policy {
        PowerPolicy::Drpm(c) => (
            f64::from(c.min_rpm) / f64::from(params.max_rpm),
            c.min_rpm,
            c.levels(params.max_rpm).len() as f64,
        ),
        _ => (1.0, params.max_rpm, 0.0),
    };

    // Latest possible arrival: per phase, the slowest processor's compute
    // plus worst-case blocking for every potential miss (each at the
    // largest coalesced request, random positioning, full device
    // sharing), then the jitter cap.
    let svc_req_hi = params.service_ms(options.max_request_bytes.max(1), params.max_rpm, false);
    let contention_hi = f64::from(schedule.num_procs());
    let mut arrival_hi = options.arrival_jitter_ms;
    for p in 0..schedule.num_phases() {
        let mut phase_hi = 0.0f64;
        for q in 0..schedule.num_procs() as usize {
            let io = if options.block_on_io {
                w.touches[p][q] as f64 * svc_req_hi * contention_hi
            } else {
                0.0
            };
            phase_hi = phase_hi.max(w.compute[p][q] + io);
        }
        arrival_hi += phase_hi;
    }

    // Per-disk busy/stall upper bounds under the policy's slowest speed.
    let positioning_hi = params.avg_seek_ms + params.rotational_latency_ms(floor_rpm);
    let mut worst_backlog = 0.0f64;
    let mut per_disk = Vec::with_capacity(num_disks);
    let mut busy_hi = vec![0.0f64; num_disks];
    let mut stall_hi = vec![0.0f64; num_disks];
    for (d, acc) in w.disks.iter().enumerate() {
        let transfer = acc.bytes_upper as f64 / (bw_ms * rho_floor);
        busy_hi[d] = transfer + acc.pieces_upper as f64 * positioning_hi;
        stall_hi[d] = match policy {
            PowerPolicy::None | PowerPolicy::Directive(_) => 0.0,
            PowerPolicy::Tpm(_) => {
                acc.pieces_upper as f64 * (params.spin_down_ms + params.spin_up_ms)
            }
            PowerPolicy::Drpm(c) => {
                // Idle-end ramp waits plus window-controller transitions,
                // both bounded per arrival.
                2.0 * acc.pieces_upper as f64 * drpm_steps * c.transition_ms_per_step
            }
        };
        worst_backlog = worst_backlog.max(busy_hi[d] + stall_hi[d]);
    }
    let makespan_hi = arrival_hi + worst_backlog;
    let makespan_lo = w
        .disks
        .iter()
        .map(|a| a.bytes_lower as f64 / bw_ms)
        .fold(0.0f64, f64::max);

    // Energy bounds. Floor power: the cheapest any accounted millisecond
    // can be — standby power, or a transition lump pro-rated over its
    // duration, whichever is smaller (transition time carries only its
    // lump under TPM/directive accounting).
    let floor_w = params
        .standby_power_w
        .min(params.spin_down_energy_j * 1000.0 / params.spin_down_ms)
        .min(params.spin_up_energy_j * 1000.0 / params.spin_up_ms);
    let delta_active = params.active_power_w - params.standby_power_w;
    let mut energy_lo = 0.0f64;
    let mut energy_hi = 0.0f64;
    let (slack_ms, lump_e) = match policy {
        PowerPolicy::None => (0.0, 0.0),
        PowerPolicy::Drpm(_) => (params.spin_down_ms + params.spin_up_ms, 0.0),
        PowerPolicy::Tpm(_) | PowerPolicy::Directive(_) => (
            params.spin_down_ms + params.spin_up_ms,
            params.spin_down_energy_j + params.spin_up_energy_j,
        ),
    };
    for (d, acc) in w.disks.iter().enumerate() {
        // Lower: floor power over the minimal makespan plus the transfer
        // surcharge of the guaranteed bytes at the cheapest feasible
        // speed.
        let transfer_lo_ms = acc.bytes_lower as f64 / bw_ms;
        let surcharge_w = delta_active * rho_floor + (params.standby_power_w - floor_w);
        energy_lo += members * (floor_w * makespan_lo + transfer_lo_ms * surcharge_w) / 1000.0;
        // Upper: idle power over the maximal wall (makespan plus the
        // trailing-transition slack the invariants allow), the active
        // surcharge on maximal busy/transition time, and every possible
        // transition lump.
        let trans_hi = match policy {
            PowerPolicy::Drpm(_) => stall_hi[d],
            _ => 0.0,
        };
        energy_hi += members
            * (params.idle_power_w * (makespan_hi + slack_ms)
                + (params.active_power_w - params.idle_power_w) * (busy_hi[d] + trans_hi))
            / 1000.0
            + members * lump_e * (acc.pieces_upper as f64 + 1.0);
        per_disk.push(PredictedDisk {
            disk: d,
            touched_blocks: acc.touched_blocks,
            block_touches: acc.block_touches,
            bytes_lower: acc.bytes_lower,
            bytes_upper: acc.bytes_upper,
            pieces_upper: acc.pieces_upper,
            busy_upper_ms: busy_hi[d],
            idle_windows: 0,
            spin_down_opportunities: 0,
            pre_activation_opportunities: 0,
            longest_window_lower_ms: 0.0,
        });
    }
    for win in &windows {
        let d = &mut per_disk[win.disk as usize];
        d.idle_windows += 1;
        d.spin_down_opportunities += 1;
        if win.close.is_some() {
            d.pre_activation_opportunities += 1;
        }
        if win.lower_ms > d.longest_window_lower_ms {
            d.longest_window_lower_ms = win.lower_ms;
        }
    }

    PredictedReport {
        policy: policy.to_string(),
        procs: schedule.num_procs(),
        phases: schedule.num_phases(),
        compute_ms: closed_compute,
        break_even_ms: params.break_even_ms(),
        min_idle_ms,
        arrival_upper_ms: arrival_hi,
        makespan_lower_ms: makespan_lo,
        makespan_upper_ms: makespan_hi,
        energy_lower_j: energy_lo,
        energy_upper_j: energy_hi,
        counts_verified,
        windows,
        per_disk,
    }
}

/// A diagnostic wrapper for a failed closed-form cross-check, for callers
/// that want the oracle's coverage mismatch as a typed finding.
pub fn check_counts(report: &PredictedReport) -> Vec<Diagnostic> {
    if report.counts_verified {
        Vec::new()
    } else {
        vec![Diagnostic::new(
            DiagCode::CoverageMissing,
            Location::none(),
            "oracle walk totals disagree with polyhedral closed-form counts",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_core::{original_schedule, CompactIter};
    use dpm_disksim::{DrpmConfig, Simulator, TpmConfig};
    use dpm_ir::parse_program;
    use dpm_layout::Striping;
    use dpm_trace::TraceGenerator;

    /// One array spanning four stripes of a two-disk volume. Nest L1
    /// hammers block 0 (disk 0) for ~20.5 s of compute, then L2 hammers
    /// block 3 (disk 1) — non-adjacent blocks, so the generator cannot
    /// coalesce them into one request and each disk keeps one idle
    /// window far beyond the 15.2 s break-even.
    fn two_burst() -> (Program, LayoutMap) {
        let p = parse_program(
            "program t;
             array A[2048] : f64;
             nest L1 { for i = 0 .. 511 { A[i] = A[i] + 1 @ 30000000; } }
             nest L2 { for i = 1536 .. 2047 { A[i] = A[i] + 1 @ 30000000; } }",
        )
        .expect("parse");
        let layout = LayoutMap::new(&p, Striping::new(4096, 2, 0));
        (p, layout)
    }

    /// L1 on processor 0 in phase 0, then L2 on processor 1 in phase 1.
    fn two_phase(p: &Program) -> Schedule {
        let mut s = Schedule::new(p, 2, 2);
        p.nests[0].walk(|pt| s.push(0, 0, CompactIter::new(0, pt)));
        p.nests[1].walk(|pt| s.push(1, 1, CompactIter::new(1, pt)));
        s
    }

    fn all_policies(params: &DiskParams) -> Vec<PowerPolicy> {
        vec![
            PowerPolicy::None,
            PowerPolicy::Tpm(TpmConfig::default()),
            PowerPolicy::Drpm(DrpmConfig::default()),
            PowerPolicy::Directive(DirectiveConfig::for_params(params)),
        ]
    }

    #[test]
    fn bounds_contain_simulated_energy_for_every_policy() {
        let (p, layout) = two_burst();
        let schedule = original_schedule(&p);
        let opts = TraceGenOptions::default();
        let params = DiskParams::ultrastar_36z15();
        let (trace, _) = TraceGenerator::new(&p, &layout, opts).generate(&schedule);
        for policy in all_policies(&params) {
            let pred = predict_energy(
                &p,
                &layout,
                &schedule,
                &opts,
                &params,
                &policy,
                &RaidConfig::default(),
            );
            assert!(pred.counts_verified, "{policy}: closed-form cross-check");
            assert!(check_counts(&pred).is_empty());
            assert!(
                pred.energy_lower_j <= pred.energy_upper_j,
                "{policy}: inverted bounds"
            );
            let sim = Simulator::new(params, policy, *layout.striping());
            let report = sim.run(&trace);
            assert!(
                report.makespan_ms >= pred.makespan_lower_ms - 1e-6
                    && report.makespan_ms <= pred.makespan_upper_ms + 1e-6,
                "{policy}: makespan {} outside [{}, {}]",
                report.makespan_ms,
                pred.makespan_lower_ms,
                pred.makespan_upper_ms
            );
            let e = report.total_energy_j();
            assert!(
                pred.contains(e),
                "{policy}: energy {e} outside [{}, {}]",
                pred.energy_lower_j,
                pred.energy_upper_j
            );
            let t = pred.tightness();
            assert!(t > 0.0 && t <= 1.0, "{policy}: tightness {t}");
        }
    }

    #[test]
    fn single_proc_windows_cover_both_bursts() {
        let (p, layout) = two_burst();
        let schedule = original_schedule(&p);
        let opts = TraceGenOptions::default();
        let params = DiskParams::ultrastar_36z15();
        let policy = PowerPolicy::Directive(DirectiveConfig::for_params(&params));
        let pred = predict_energy(
            &p,
            &layout,
            &schedule,
            &opts,
            &params,
            &policy,
            &RaidConfig::default(),
        );
        // Disk 1 idles from t = 0 until L2's first touch (leading window
        // with a closing access); disk 0 idles from L2 to the end
        // (trailing window, no close).
        assert!(
            pred.windows
                .iter()
                .any(|w| w.disk == 1 && w.close.is_some() && w.lower_ms >= pred.min_idle_ms),
            "windows: {:?}",
            pred.windows
        );
        assert!(
            pred.windows
                .iter()
                .any(|w| w.disk == 0 && w.close.is_none() && w.lower_ms >= pred.min_idle_ms),
            "windows: {:?}",
            pred.windows
        );
        assert!(pred.per_disk[0].spin_down_opportunities >= 1);
        assert!(pred.per_disk[1].pre_activation_opportunities >= 1);
        assert!(pred.per_disk[1].longest_window_lower_ms >= pred.min_idle_ms);
        // The simulator's directive policy realizes the prediction: at
        // least one spin-down, energy still inside the bounds.
        let (trace, _) = TraceGenerator::new(&p, &layout, opts).generate(&schedule);
        let sim = Simulator::new(params, policy, *layout.striping());
        let report = sim.run(&trace);
        assert!(report.total_spin_downs() >= 1);
        assert!(pred.contains(report.total_energy_j()));
    }

    #[test]
    fn multi_proc_windows_at_phase_granularity() {
        let (p, layout) = two_burst();
        let s = two_phase(&p);
        let opts = TraceGenOptions::default();
        let params = DiskParams::ultrastar_36z15();
        let pred = predict_energy(
            &p,
            &layout,
            &s,
            &opts,
            &params,
            &PowerPolicy::None,
            &RaidConfig::default(),
        );
        assert!(pred.counts_verified);
        // Disk 1 is untouched through phase 0 (>= 20 s of compute), so a
        // leading window closes at its first phase-1 access; disk 0 gets
        // the symmetric trailing window.
        assert!(
            pred.windows
                .iter()
                .any(|w| w.disk == 1 && w.close == Some(SchedulePos::new(1, 1, 0))),
            "windows: {:?}",
            pred.windows
        );
        assert!(pred
            .windows
            .iter()
            .any(|w| w.disk == 0 && w.close.is_none()));
        // Containment still holds for the parallel schedule.
        let (trace, _) = TraceGenerator::new(&p, &layout, opts).generate(&s);
        let report = sim_run(&params, &layout, &trace);
        assert!(
            pred.contains(report.total_energy_j()),
            "energy {} outside [{}, {}]",
            report.total_energy_j(),
            pred.energy_lower_j,
            pred.energy_upper_j
        );
    }

    fn sim_run(
        params: &DiskParams,
        layout: &LayoutMap,
        trace: &dpm_disksim::Trace,
    ) -> dpm_disksim::SimReport {
        Simulator::new(*params, PowerPolicy::None, *layout.striping()).run(trace)
    }

    /// The two bursts on a 65-disk volume touch disks 0 and 3 only, so
    /// disks 63 and 64 are both idle for the whole run and must get the
    /// same window. A disk id must never fold onto `id % 64`.
    #[test]
    fn disks_past_63_keep_their_own_windows() {
        let (p, _) = two_burst();
        let layout = LayoutMap::new(&p, Striping::new(4096, 65, 0));
        let opts = TraceGenOptions::default();
        let min_idle_ms = DirectiveConfig::for_params(&DiskParams::default()).min_idle_ms;
        for schedule in [original_schedule(&p), two_phase(&p)] {
            let windows = disk_idle_windows(&p, &layout, &schedule, &opts, min_idle_ms);
            let of = |disk: u32| -> Vec<(Option<SchedulePos>, Option<SchedulePos>, f64)> {
                windows
                    .iter()
                    .filter(|w| w.disk == disk)
                    .map(|w| (w.open, w.close, w.lower_ms))
                    .collect()
            };
            assert_eq!(
                of(64),
                vec![(Some(SchedulePos::new(0, 0, 0)), None, 40960.0)],
                "procs {}",
                schedule.num_procs()
            );
            assert_eq!(of(64), of(63), "procs {}", schedule.num_procs());
        }
    }

    #[test]
    fn successor_crosses_phases_and_ends() {
        let (p, _) = two_burst();
        let s = two_phase(&p);
        // Last iteration of phase 0 proc 0 jumps to phase 1; proc 0 of
        // phase 1 is empty, so the successor is proc 1's first slot.
        assert_eq!(
            successor_pos(&s, SchedulePos::new(0, 0, 511)),
            Some(SchedulePos::new(1, 1, 0))
        );
        assert_eq!(successor_pos(&s, SchedulePos::new(1, 1, 511)), None);
        assert_eq!(first_pos_from(&s, 0), Some(SchedulePos::new(0, 0, 0)));
        assert_eq!(first_pos_from(&s, 2), None);
    }

    #[test]
    fn report_json_round_trips_key_fields() {
        let (p, layout) = two_burst();
        let schedule = original_schedule(&p);
        let opts = TraceGenOptions::default();
        let params = DiskParams::ultrastar_36z15();
        let pred = predict_energy(
            &p,
            &layout,
            &schedule,
            &opts,
            &params,
            &PowerPolicy::None,
            &RaidConfig::default(),
        );
        let j = pred.to_json();
        assert_eq!(
            j.get("energy_lower_j").and_then(Json::as_f64),
            Some(pred.energy_lower_j)
        );
        assert_eq!(
            j.get("energy_upper_j").and_then(Json::as_f64),
            Some(pred.energy_upper_j)
        );
        let per_disk = j.get("per_disk").and_then(Json::as_arr).expect("per_disk");
        assert_eq!(per_disk.len(), 2);
        assert!(j.get("windows").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn raid_members_scale_bounds() {
        let (p, layout) = two_burst();
        let schedule = original_schedule(&p);
        let opts = TraceGenOptions::default();
        let params = DiskParams::ultrastar_36z15();
        let r1 = RaidConfig::default();
        let r2 = RaidConfig {
            members: 2 * r1.members,
            ..r1
        };
        let a = predict_energy(
            &p,
            &layout,
            &schedule,
            &opts,
            &params,
            &PowerPolicy::None,
            &r1,
        );
        let b = predict_energy(
            &p,
            &layout,
            &schedule,
            &opts,
            &params,
            &PowerPolicy::None,
            &r2,
        );
        assert!((b.energy_upper_j - 2.0 * a.energy_upper_j).abs() < 1e-6);
        assert!((b.energy_lower_j - 2.0 * a.energy_lower_j).abs() < 1e-6);
    }
}
