//! Per-disk (per-I/O-node) simulation: service-time accounting, energy
//! integration, and the TPM / DRPM power-management state machines.

use crate::metrics::DiskStreamMetrics;
use crate::params::{
    DirectiveConfig, DiskParams, DrpmConfig, PowerPolicy, RaidConfig, ServiceTime, TpmConfig,
};
use crate::stats::{DiskStats, IdleHistogram, Span, SpanState};
use dpm_faults::{FaultInjector, RetryPolicy};

/// One contiguous piece of an application request on a single disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubRequest {
    /// Arrival time (ms).
    pub arrival_ms: f64,
    /// First byte of the piece in the disk's local address space
    /// (`local_block * stripe_unit + offset_within_stripe`).
    pub local_byte: u64,
    /// Length in bytes.
    pub len: u64,
    /// Whether this transfer is tier-migration traffic. Serviced exactly
    /// like application I/O (busy time and energy accrue normally) but
    /// counted in [`DiskStats::migration_requests`] /
    /// [`DiskStats::migration_bytes`] so application-request conservation
    /// stays exact.
    pub migration: bool,
}

/// What servicing one sub-request cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceOutcome {
    /// Completion time (ms).
    pub completion_ms: f64,
    /// Power-management stall charged to this request (spin-up wait,
    /// in-flight RPM transition), in ms.
    pub stall_ms: f64,
    /// Pure service (positioning + transfer) time, in ms.
    pub service_ms: f64,
}

/// Trace-driven model of one disk under a chosen power policy.
///
/// Sub-requests must be fed in non-decreasing arrival order (the per-disk
/// projection of a time-sorted trace). The model is open-loop: arrivals are
/// fixed, and power-management penalties show up as response time, not as
/// shifted arrivals — matching the paper's trace-driven simulator (§7.1).
#[derive(Clone, Debug)]
pub struct DiskSim {
    params: DiskParams,
    policy: PowerPolicy,
    raid: RaidConfig,
    /// Time up to which this disk's behaviour has been decided.
    clock_ms: f64,
    /// Current spindle speed (always `max_rpm` for non-DRPM disks). Only
    /// [`DiskSim::set_rpm`] writes it, so the constants below stay in step.
    rpm: u32,
    /// The service-time model at `rpm`.
    service: ServiceTime,
    /// The service-time model at `max_rpm` (the DRPM controller's target).
    service_max: ServiceTime,
    /// Node power while idle at `rpm`, W (members × the per-disk draw).
    idle_w: f64,
    /// Node power while servicing at `rpm`, W.
    active_w: f64,
    /// The firmware's sequential-stream table (readahead detection).
    streams: SequentialStreams,
    /// DRPM window accumulators.
    window_requests: u32,
    window_response_ms: f64,
    window_target_ms: f64,
    /// Windows remaining before another speed change is allowed.
    cooldown_windows: u32,
    stats: DiskStats,
    idle_hist: IdleHistogram,
    finished: bool,
    /// Optional power-state timeline; `None` unless recording is enabled.
    timeline: Option<Vec<Span>>,
    /// Wall-clock cursor for timeline spans (advances with each accrual).
    span_cursor: f64,
    /// Identity `(run, disk)` stamped onto emitted `disk_state` events.
    obs_identity: (u64, usize),
    /// Last power state announced to the instrumentation layer.
    obs_state: Option<SpanState>,
    /// Seeded fault decision stream; `None` = the fault-free fast path.
    injector: Option<FaultInjector>,
    /// Whether the stuck-spindle fault has been counted yet (it is a
    /// per-disk condition, counted once on first suppression).
    stuck_reported: bool,
    /// Streaming metrics (service/spin-up histograms, queue gauge, RPM
    /// residency) accumulated in O(1) memory from the request stream.
    stream: DiskStreamMetrics,
}

impl DiskSim {
    /// Creates a disk in the idle, full-speed state at time zero.
    pub fn new(params: DiskParams, policy: PowerPolicy) -> Self {
        DiskSim::with_raid(params, policy, RaidConfig::single())
    }

    /// Creates an I/O node backed by a RAID set of identical disks.
    pub fn with_raid(params: DiskParams, policy: PowerPolicy, raid: RaidConfig) -> Self {
        let full_speed = params.service_at(params.max_rpm);
        let mut disk = DiskSim {
            rpm: params.max_rpm,
            service: full_speed,
            service_max: full_speed,
            idle_w: 0.0,
            active_w: 0.0,
            params,
            policy,
            raid,
            clock_ms: 0.0,
            streams: SequentialStreams::default(),
            window_requests: 0,
            window_response_ms: 0.0,
            window_target_ms: 0.0,
            cooldown_windows: 0,
            stats: DiskStats::default(),
            idle_hist: IdleHistogram::default(),
            finished: false,
            timeline: None,
            span_cursor: 0.0,
            obs_identity: (0, 0),
            obs_state: None,
            injector: None,
            stuck_reported: false,
            stream: DiskStreamMetrics::new(),
        };
        disk.set_rpm(params.max_rpm);
        disk
    }

    /// Arms fault injection: subsequent services consult `injector` at
    /// every decision point (service attempt, spin-up, RPM transition).
    /// Without an injector the behaviour is bit-identical to the
    /// fault-free simulator.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Stamps the `(run, disk)` identity carried by this disk's
    /// `disk_state` events, so one event stream can hold several
    /// interleaved simulations.
    pub fn set_obs_identity(&mut self, run: u64, disk: usize) {
        self.obs_identity = (run, disk);
    }

    /// Enables power-state timeline recording (off by default; costs one
    /// `Span` per accrual).
    pub fn record_timeline(&mut self) {
        self.timeline = Some(Vec::new());
    }

    /// The recorded timeline, if enabled.
    pub fn timeline(&self) -> Option<&[Span]> {
        self.timeline.as_deref()
    }

    fn push_span(&mut self, ms: f64, state: SpanState) {
        let start = self.span_cursor;
        self.span_cursor += ms.max(0.0);
        if ms <= 0.0 {
            return;
        }
        if let Some(tl) = &mut self.timeline {
            tl.push(Span {
                start_ms: start,
                end_ms: self.span_cursor,
                state,
            });
        }
        // Power-state transition events: one per state *change* (including
        // RPM level changes), so the full timeline is reconstructible from
        // the event stream alone.
        if dpm_obs::enabled() && self.obs_state != Some(state) {
            self.obs_state = Some(state);
            let (run, disk) = self.obs_identity;
            let (name, rpm) = match state {
                SpanState::Busy => ("busy", self.rpm),
                SpanState::Idle(rpm) => ("idle", rpm),
                SpanState::Standby => ("standby", 0),
                SpanState::Transition => ("transition", self.rpm),
            };
            dpm_obs::emit(
                dpm_obs::kind::DISK_STATE,
                name,
                &[
                    ("run", run.into()),
                    ("disk", disk.into()),
                    ("at_ms", start.into()),
                    ("rpm", rpm.into()),
                ],
            );
        }
    }

    /// The disk's statistics so far. Complete only after [`DiskSim::finish`].
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// The idle-period histogram.
    pub fn idle_histogram(&self) -> &IdleHistogram {
        &self.idle_hist
    }

    /// The streaming metric set accumulated so far.
    pub fn stream_metrics(&self) -> &DiskStreamMetrics {
        &self.stream
    }

    /// Current spindle speed.
    pub fn rpm(&self) -> u32 {
        self.rpm
    }

    /// Services one sub-request, returning its completion time and cost
    /// breakdown.
    ///
    /// # Panics
    ///
    /// Panics if called after [`DiskSim::finish`] or with an arrival that
    /// precedes the previous one.
    pub fn service(&mut self, r: &SubRequest) -> ServiceOutcome {
        assert!(!self.finished, "disk already finished");
        assert!(r.len > 0, "sub-request length must be positive");
        self.stream.queue.on_arrival(r.arrival_ms);
        let gap = r.arrival_ms - self.clock_ms;
        let mut ready_ms = r.arrival_ms;
        let mut stall = 0.0;
        if gap > 0.0 {
            self.idle_hist.record(gap);
            let extra = self.pass_idle(gap, true);
            ready_ms += extra;
            stall = extra;
            if extra > 0.0 {
                // Power-management stall suffered by this request: spin-up
                // wait or in-flight RPM transition.
                self.stream.spin_up_us.record_ms(extra);
            }
        }
        // If the disk was still busy at arrival, service starts when free.
        let start = ready_ms.max(self.clock_ms);
        let sequential = self.streams.continues(r.local_byte, r.len);
        // RAID-0 members transfer their chunk shares in parallel; the node
        // completes when the most-loaded member does.
        let member_bytes = self.raid.max_member_bytes(r.len);
        let mut svc = self.service.ms(member_bytes, sequential);
        let jitter = self.injector.as_mut().map_or(0.0, FaultInjector::jitter_ms);
        if jitter > 0.0 {
            svc += jitter;
            let at = self.span_cursor;
            self.emit_fault(
                dpm_obs::kind::FAULT,
                "latency_jitter",
                at,
                &[("jitter_ms", jitter.into())],
            );
        }
        // Transient-error retry loop: a failed attempt still occupies the
        // heads for the full service time, then waits out a capped
        // exponential backoff. A request that exhausts its retries is
        // re-queued behind the degraded-disk recovery delay and then
        // forced through — work is never dropped.
        self.stream.service_us.record_ms(svc);
        let mut elapsed = 0.0;
        let mut attempt = 0u32;
        loop {
            let failed = self
                .injector
                .as_mut()
                .is_some_and(FaultInjector::transient_error);
            self.accrue_busy(svc);
            elapsed += svc;
            if !failed {
                break;
            }
            let _sp = dpm_obs::span!("fault_retry");
            self.stats.faults += 1;
            let at = self.span_cursor;
            self.emit_fault(dpm_obs::kind::FAULT, "transient_error", at, &[]);
            let rp: RetryPolicy = *self
                .injector
                .as_ref()
                .expect("fault without injector")
                .retry();
            if attempt < rp.max_retries {
                let backoff = rp.backoff_ms(attempt);
                self.stats.retries += 1;
                self.emit_fault(
                    dpm_obs::kind::RETRY,
                    "backoff",
                    at,
                    &[("attempt", attempt.into()), ("backoff_ms", backoff.into())],
                );
                self.accrue_idle(backoff);
                elapsed += backoff;
                attempt += 1;
            } else {
                self.stats.requeues += 1;
                self.mark_degraded(at);
                self.accrue_idle(rp.requeue_delay_ms);
                elapsed += rp.requeue_delay_ms;
                self.accrue_busy(svc);
                elapsed += svc;
                break;
            }
        }
        let completion = start + elapsed;
        self.stream.queue.on_completion(completion);
        if sequential && !r.migration {
            self.stats.sequential_requests += 1;
        }
        stall += elapsed - svc;
        if r.migration {
            self.stats.migration_requests += 1;
            self.stats.migration_bytes += r.len;
        } else {
            self.stats.requests += 1;
            self.stats.bytes += r.len;
        }
        self.clock_ms = completion;
        // Timeout accounting: response past the plan's budget is counted
        // (and reported) but never cancelled — the trace-driven model has
        // no caller to hand a cancellation to, so a timeout is an
        // observation, not a control action.
        if let Some(rp) = self.injector.as_ref().map(|i| *i.retry()) {
            let response = completion - r.arrival_ms;
            if rp.timeout_ms > 0.0 && response > rp.timeout_ms {
                self.stats.timeouts += 1;
                self.emit_fault(
                    dpm_obs::kind::FAULT,
                    "timeout",
                    completion,
                    &[("response_ms", response.into())],
                );
            }
        }
        // DRPM window bookkeeping.
        if let PowerPolicy::Drpm(cfg) = self.policy {
            let target = self.service_max.ms(r.len, sequential);
            self.window_response_ms += completion - r.arrival_ms;
            self.window_target_ms += target;
            self.window_requests += 1;
            if self.window_requests >= cfg.window_size {
                self.window_decision(&cfg);
            }
        }
        ServiceOutcome {
            completion_ms: completion,
            stall_ms: stall,
            service_ms: svc,
        }
    }

    /// Accounts the trailing idle period up to `makespan_ms` and freezes the
    /// disk. Idempotent per disk; further [`DiskSim::service`] calls panic.
    pub fn finish(&mut self, makespan_ms: f64) {
        assert!(!self.finished, "disk already finished");
        let gap = makespan_ms - self.clock_ms;
        if gap > 0.0 {
            self.idle_hist.record(gap);
            let _ = self.pass_idle(gap, false);
            self.clock_ms = makespan_ms;
        }
        self.finished = true;
    }

    /// Simulates an idle gap of `gap` ms under the power policy, accruing
    /// energy and state changes. Returns the extra wait (ms past the end of
    /// the gap) before the disk can service, caused by an in-flight
    /// transition or a required spin-up. `request_follows` is false for the
    /// trailing gap at end of trace (no spin-up is charged then).
    fn pass_idle(&mut self, gap: f64, request_follows: bool) -> f64 {
        match self.policy {
            PowerPolicy::None => {
                self.accrue_idle(gap);
                0.0
            }
            PowerPolicy::Tpm(cfg) => self.pass_idle_tpm(gap, request_follows, &cfg),
            PowerPolicy::Drpm(cfg) => self.pass_idle_drpm(gap, &cfg),
            PowerPolicy::Directive(cfg) => self.pass_idle_directive(gap, request_follows, &cfg),
        }
    }

    /// Compiler-directed power management: the directives this gap would
    /// carry have been *verified* (`dpm_analyze::verify_hints`), so their
    /// runtime effect is fully determined by the gap itself — a window at
    /// least `min_idle_ms` long spins down at its start, and when a
    /// request follows, the pre-activation spin-up completes exactly at
    /// the gap end (zero reactive stall). Shorter windows carry no
    /// directives and idle at full speed. Spin-up fault injection is not
    /// consulted here: the directive gate runs under the zero-fault plan,
    /// and a verified directive set makes no claim about failing spindles.
    fn pass_idle_directive(
        &mut self,
        gap: f64,
        request_follows: bool,
        cfg: &DirectiveConfig,
    ) -> f64 {
        let transitions = self.params.spin_down_ms
            + if request_follows {
                self.params.spin_up_ms
            } else {
                0.0
            };
        if gap < cfg.min_idle_ms || gap < transitions {
            self.accrue_idle(gap);
            return 0.0;
        }
        // Spin down at the window start.
        self.stats.spin_downs += 1;
        self.stats.transition_ms += self.params.spin_down_ms;
        self.stats.energy_j += self.members() * self.params.spin_down_energy_j;
        self.push_span(self.params.spin_down_ms, SpanState::Transition);
        self.accrue_standby(gap - transitions);
        if request_follows {
            // Pre-activation: the spin-up overlaps the tail of the window.
            self.stats.spin_ups += 1;
            self.stats.transition_ms += self.params.spin_up_ms;
            self.stats.energy_j += self.members() * self.params.spin_up_energy_j;
            self.push_span(self.params.spin_up_ms, SpanState::Transition);
        }
        0.0
    }

    fn pass_idle_tpm(&mut self, gap: f64, request_follows: bool, cfg: &TpmConfig) -> f64 {
        if gap <= cfg.spin_down_timeout_ms {
            self.accrue_idle(gap);
            return 0.0;
        }
        // Compiler-directed mode: the next access time is known, so an
        // unprofitable spin-down (one whose standby period cannot cover
        // the transitions) is simply not issued.
        if cfg.proactive
            && request_follows
            && gap < cfg.spin_down_timeout_ms + self.params.spin_down_ms + self.params.spin_up_ms
        {
            self.accrue_idle(gap);
            return 0.0;
        }
        // Idle until the timeout fires, then spin down.
        self.accrue_idle(cfg.spin_down_timeout_ms);
        self.stats.spin_downs += 1;
        self.stats.transition_ms += self.params.spin_down_ms;
        self.stats.energy_j += self.members() * self.params.spin_down_energy_j;
        self.push_span(self.params.spin_down_ms, SpanState::Transition);
        let after_timeout = gap - cfg.spin_down_timeout_ms;
        let mut extra = 0.0;
        let mut standby = 0.0;
        if after_timeout < self.params.spin_down_ms {
            // The next arrival lands mid-spin-down: it waits for the
            // spin-down to complete before the spin-up can start.
            extra += self.params.spin_down_ms - after_timeout;
        } else {
            standby = after_timeout - self.params.spin_down_ms;
        }
        if request_follows {
            if cfg.proactive {
                // Compiler-issued spin-up call: the spin-up overlaps the
                // tail of the standby period instead of stalling the
                // request; only the unhidden remainder is a stall.
                let hidden = standby.min(self.params.spin_up_ms);
                standby -= hidden;
                extra += self.params.spin_up_ms - hidden;
            } else {
                extra += self.params.spin_up_ms;
            }
        }
        self.accrue_standby(standby);
        if request_follows {
            // Injected spin-up failures: each failed attempt burns a full
            // spin-up (time and energy) and the spindle falls back to
            // standby for a backoff before the next try; exhaustion marks
            // the disk degraded and re-queues behind the recovery delay.
            // Failed attempts are always unhidden stall — even a
            // compiler-issued proactive spin-up cannot predict a failing
            // spindle.
            let mut attempt = 0u32;
            while self
                .injector
                .as_mut()
                .is_some_and(FaultInjector::spin_up_fails)
            {
                let _sp = dpm_obs::span!("fault_retry");
                self.stats.faults += 1;
                let at = self.span_cursor;
                self.emit_fault(dpm_obs::kind::FAULT, "spin_up_failure", at, &[]);
                self.stats.transition_ms += self.params.spin_up_ms;
                self.stats.energy_j += self.members() * self.params.spin_up_energy_j;
                self.push_span(self.params.spin_up_ms, SpanState::Transition);
                extra += self.params.spin_up_ms;
                let rp: RetryPolicy = *self
                    .injector
                    .as_ref()
                    .expect("fault without injector")
                    .retry();
                if attempt < rp.max_retries {
                    let backoff = rp.backoff_ms(attempt);
                    self.stats.retries += 1;
                    self.emit_fault(
                        dpm_obs::kind::RETRY,
                        "backoff",
                        at,
                        &[("attempt", attempt.into()), ("backoff_ms", backoff.into())],
                    );
                    self.accrue_standby(backoff);
                    extra += backoff;
                    attempt += 1;
                } else {
                    self.stats.requeues += 1;
                    self.mark_degraded(at);
                    self.accrue_standby(rp.requeue_delay_ms);
                    extra += rp.requeue_delay_ms;
                    break; // the forced (successful) spin-up follows
                }
            }
            self.stats.spin_ups += 1;
            self.stats.transition_ms += self.params.spin_up_ms;
            self.stats.energy_j += self.members() * self.params.spin_up_energy_j;
            self.push_span(self.params.spin_up_ms, SpanState::Transition);
        }
        extra
    }

    fn pass_idle_drpm(&mut self, gap: f64, cfg: &DrpmConfig) -> f64 {
        if gap <= cfg.idle_ramp_threshold_ms {
            self.accrue_idle(gap);
            return 0.0;
        }
        // A stuck spindle cannot change speed: the ramp that would have
        // started here is suppressed and the whole gap is idled away at
        // the current level.
        if self.stuck() {
            self.accrue_idle(gap);
            return 0.0;
        }
        // In compiler-directed mode the end of the idle period is known:
        // reserve enough of the gap's tail to ramp back to full speed just
        // in time, and only ramp down as far as can be restored.
        let mut budget = gap;
        let levels_below_max = (self.params.max_rpm - self.rpm) / cfg.rpm_step;
        if cfg.proactive {
            // Pay for the eventual ramp-up from wherever we will end; we
            // conservatively reserve as we descend, level by level, below.
            budget -= f64::from(levels_below_max) * cfg.transition_ms_per_step;
            if budget <= cfg.idle_ramp_threshold_ms {
                // Not enough room to do anything but restore speed.
                self.ramp_up_to_max(gap, cfg);
                return 0.0;
            }
        }
        // Idle at the current level until the ramp threshold, then step
        // down one level per `step_down_idle_ms` until the minimum.
        let mut consumed = cfg.idle_ramp_threshold_ms;
        self.accrue_idle(cfg.idle_ramp_threshold_ms);
        loop {
            let at_floor = self.rpm < cfg.min_rpm + cfg.rpm_step;
            // In compiler-directed mode a further step down must also fit
            // its matching step back up within the remaining budget; a
            // reactive disk just starts the transition and lets an early
            // arrival wait out the remainder.
            let fits = consumed + 2.0 * cfg.transition_ms_per_step <= budget;
            if at_floor || (cfg.proactive && !fits) {
                if cfg.proactive {
                    // Dwell, then ramp back to max exactly at the gap end.
                    let up_ms = f64::from((self.params.max_rpm - self.rpm) / cfg.rpm_step)
                        * cfg.transition_ms_per_step;
                    let dwell = (gap - consumed - up_ms).max(0.0);
                    self.accrue_idle(dwell);
                    consumed += dwell;
                    self.ramp_up_to_max(gap - consumed, cfg);
                    return 0.0;
                }
                self.accrue_idle(gap - consumed);
                return 0.0;
            }
            // Transition one level down.
            let target = self.rpm - cfg.rpm_step;
            let t = cfg.transition_ms_per_step;
            let overrun = (consumed + t) - gap;
            self.accrue_transition(t, self.rpm.max(target));
            self.stats.speed_changes += 1;
            self.set_rpm(target);
            if overrun > 0.0 {
                // The arrival lands mid-transition and waits for it.
                return overrun;
            }
            consumed += t;
            if cfg.proactive {
                budget -= cfg.transition_ms_per_step; // reserve the step back up
            }
            // Dwell at this level before considering another step.
            let dwell = cfg.step_down_idle_ms.min((gap - consumed).max(0.0));
            self.accrue_idle(dwell);
            consumed += dwell;
            if consumed >= gap {
                return 0.0;
            }
        }
    }

    /// Proactive ramp back to maximum RPM at the end of a known idle gap;
    /// `avail_ms` is the remaining idle time (any shortfall is idled away
    /// first, any surplus is spent idling at the current level).
    fn ramp_up_to_max(&mut self, avail_ms: f64, cfg: &DrpmConfig) {
        let levels = (self.params.max_rpm - self.rpm) / cfg.rpm_step;
        if levels == 0 {
            self.accrue_idle(avail_ms.max(0.0));
            return;
        }
        let up_ms = f64::from(levels) * cfg.transition_ms_per_step;
        let slack = avail_ms - up_ms;
        if slack > 0.0 {
            self.accrue_idle(slack);
        }
        self.accrue_transition(up_ms, self.params.max_rpm);
        self.stats.speed_changes += u64::from(levels);
        self.set_rpm(self.params.max_rpm);
    }

    /// DRPM end-of-window decision: compare the window's mean response to
    /// the full-speed estimate and step the spindle up or down one level.
    ///
    /// A step *down* must pass three gates: (a) the cooldown since the last
    /// change has expired, (b) the observed slowdown is comfortable
    /// (`< min_slowdown`), and (c) the slowdown *predicted* at the lower
    /// level — scaling by the RPM ratio — still fits under `max_slowdown`.
    /// Gate (c) is what keeps the controller from oscillating between two
    /// levels and piling queueing delay onto every window.
    fn window_decision(&mut self, cfg: &DrpmConfig) {
        let slowdown = if self.window_target_ms > 0.0 {
            self.window_response_ms / self.window_target_ms
        } else {
            1.0
        };
        self.window_requests = 0;
        self.window_response_ms = 0.0;
        self.window_target_ms = 0.0;
        if self.cooldown_windows > 0 {
            self.cooldown_windows -= 1;
            return;
        }
        if slowdown > cfg.max_slowdown && self.rpm < self.params.max_rpm {
            if self.stuck() {
                return;
            }
            let target = (self.rpm + cfg.rpm_step).min(self.params.max_rpm);
            self.transition_now(self.rpm, target, cfg);
            self.cooldown_windows = 2;
        } else if slowdown < cfg.min_slowdown && self.rpm >= cfg.min_rpm + cfg.rpm_step {
            let target = self.rpm - cfg.rpm_step;
            let predicted = slowdown * f64::from(self.rpm) / f64::from(target);
            if predicted <= cfg.max_slowdown {
                if self.stuck() {
                    return;
                }
                self.transition_now(self.rpm, target, cfg);
                self.cooldown_windows = 2;
            }
        }
    }

    /// An immediate (busy-time) RPM transition; the time is spent on the
    /// disk's clock, delaying subsequent requests.
    fn transition_now(&mut self, from: u32, to: u32, cfg: &DrpmConfig) {
        let steps = (from.abs_diff(to) / cfg.rpm_step).max(1);
        let t = cfg.transition_ms_per_step * f64::from(steps);
        self.accrue_transition(t, from.max(to));
        self.stats.speed_changes += 1;
        self.set_rpm(to);
        self.clock_ms += t;
    }

    /// Sets the spindle speed and recomputes the model at it: the one
    /// place `rpm` changes, so every service and accrual reads constants
    /// computed once per speed change instead of once per call.
    fn set_rpm(&mut self, rpm: u32) {
        self.rpm = rpm;
        self.service = self.params.service_at(rpm);
        self.idle_w = self.members() * self.params.idle_power_at_rpm_w(rpm);
        self.active_w = self.members() * self.params.active_power_at_rpm_w(rpm);
    }

    /// The node's disks spin in lock-step, so power scales with the member
    /// count.
    fn members(&self) -> f64 {
        f64::from(self.raid.members)
    }

    fn accrue_idle(&mut self, ms: f64) {
        debug_assert!(ms >= -1e-9);
        let ms = ms.max(0.0);
        self.stream.residency.accrue(self.rpm, ms);
        self.stats.idle_ms += ms;
        self.stats.energy_j += self.idle_w * ms / 1000.0;
        self.push_span(ms, SpanState::Idle(self.rpm));
    }

    fn accrue_busy(&mut self, ms: f64) {
        self.stream.residency.accrue(self.rpm, ms);
        self.stats.busy_ms += ms;
        self.stats.energy_j += self.active_w * ms / 1000.0;
        self.push_span(ms, SpanState::Busy);
    }

    fn accrue_transition(&mut self, ms: f64, at_rpm: u32) {
        self.stats.transition_ms += ms;
        self.stats.energy_j +=
            self.members() * self.params.active_power_at_rpm_w(at_rpm) * ms / 1000.0;
        self.push_span(ms, SpanState::Transition);
    }

    fn accrue_standby(&mut self, ms: f64) {
        if ms <= 0.0 {
            return;
        }
        self.stats.standby_ms += ms;
        self.stats.energy_j += self.members() * self.params.standby_power_w * ms / 1000.0;
        self.push_span(ms, SpanState::Standby);
    }

    /// Whether this disk's spindle is stuck at its current RPM. Counted
    /// as a fault (once) the first time it actually suppresses a speed
    /// change, so fault-free runs of a healthy plan stay clean.
    fn stuck(&mut self) -> bool {
        if !self.injector.as_ref().is_some_and(FaultInjector::stuck_rpm) {
            return false;
        }
        if !self.stuck_reported {
            self.stuck_reported = true;
            self.stats.faults += 1;
            let at = self.span_cursor;
            self.emit_fault(
                dpm_obs::kind::FAULT,
                "stuck_rpm",
                at,
                &[("rpm", self.rpm.into())],
            );
        }
        true
    }

    /// Marks the disk degraded (idempotent) and emits the typed event on
    /// the first transition.
    fn mark_degraded(&mut self, at_ms: f64) {
        if self.stats.degraded {
            return;
        }
        self.stats.degraded = true;
        self.emit_fault(dpm_obs::kind::DEGRADE, "marked", at_ms, &[]);
    }

    /// Emits one typed fault/retry/degrade event carrying this disk's
    /// `(run, disk)` identity and the accounted wall position.
    fn emit_fault(&self, kind: &str, name: &str, at_ms: f64, extra: &[(&str, dpm_obs::Value)]) {
        if !dpm_obs::enabled() {
            return;
        }
        let (run, disk) = self.obs_identity;
        let mut fields: Vec<(&str, dpm_obs::Value)> = vec![
            ("run", run.into()),
            ("disk", disk.into()),
            ("at_ms", at_ms.into()),
        ];
        fields.extend_from_slice(extra);
        dpm_obs::emit(kind, name, &fields);
    }
}

/// How many sequential streams the firmware tracks per disk.
const SEQUENTIAL_STREAMS: usize = 32;

/// A disk firmware's sequential-stream table: where each of its last 32
/// streams ended, in a fixed ring searched oldest first. A sub-request
/// that continues a stream skips positioning. The simulated disks and the
/// trace generator's blocking estimate each keep one per disk.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialStreams {
    /// Stream ends, oldest first from `head`. The ring fills slots
    /// `0..len` in order before it first wraps, so `head` stays 0 until
    /// then.
    ends: [u64; SEQUENTIAL_STREAMS],
    head: usize,
    len: usize,
}

impl SequentialStreams {
    /// Whether a `len`-byte piece at disk-local byte `local` continues a
    /// tracked stream. The first matching stream, oldest first, advances
    /// past the piece; otherwise the piece opens a new stream, replacing
    /// the oldest when all are in use.
    #[inline]
    pub fn continues(&mut self, local: u64, len: u64) -> bool {
        // Oldest to newest is `head..` then `..head` once the ring is
        // full, and just `..len` before that (`head` is still 0).
        let (older, newer) = if self.len < SEQUENTIAL_STREAMS {
            (&self.ends[..self.len], &self.ends[..0])
        } else {
            (&self.ends[self.head..], &self.ends[..self.head])
        };
        let found = match older.iter().position(|&end| end == local) {
            Some(k) => Some(self.head + k),
            None => newer.iter().position(|&end| end == local),
        };
        if let Some(slot) = found {
            self.ends[slot] = local + len;
            return true;
        }
        if self.len == SEQUENTIAL_STREAMS {
            self.ends[self.head] = local + len;
            self.head = (self.head + 1) % SEQUENTIAL_STREAMS;
        } else {
            self.ends[self.len] = local + len;
            self.len += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DiskParams {
        DiskParams::ultrastar_36z15()
    }

    fn sub(t: f64, byte: u64, len: u64) -> SubRequest {
        SubRequest {
            arrival_ms: t,
            local_byte: byte,
            len,
            migration: false,
        }
    }

    #[test]
    fn base_energy_is_idle_plus_active() {
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        let done = d.service(&sub(1000.0, 0, 32 * 1024)).completion_ms;
        d.finish(done + 1000.0);
        let s = d.stats();
        let svc = params().service_ms(32 * 1024, 15_000, false);
        assert!((s.busy_ms - svc).abs() < 1e-9);
        assert!((s.idle_ms - 2000.0).abs() < 1e-9);
        let expect = 10.2 * 2.0 + 13.5 * svc / 1000.0;
        assert!(
            (s.energy_j - expect).abs() < 1e-6,
            "{} vs {expect}",
            s.energy_j
        );
    }

    #[test]
    fn sequential_requests_skip_positioning() {
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        let c2 = d.service(&sub(c1, 1024, 1024)).completion_ms;
        assert_eq!(d.stats().sequential_requests, 1);
        let t_seq = params().service_ms(1024, 15_000, true);
        assert!((c2 - c1 - t_seq).abs() < 1e-9);
    }

    #[test]
    fn queueing_delays_start() {
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        let c1 = d.service(&sub(0.0, 0, 1024 * 1024)).completion_ms;
        // Second request arrives while the first is in service.
        let c2 = d.service(&sub(1.0, 1 << 30, 1024)).completion_ms;
        assert!(c2 > c1);
        assert!((c2 - c1 - params().service_ms(1024, 15_000, false)).abs() < 1e-9);
    }

    #[test]
    fn tpm_spins_down_after_long_idle() {
        let mut d = DiskSim::new(params(), PowerPolicy::Tpm(TpmConfig::default()));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        // 100 s gap: timeout (15.2 s) + spin-down + standby, then spin-up.
        let c2 = d.service(&sub(c1 + 100_000.0, 1 << 30, 1024)).completion_ms;
        let s = d.stats();
        assert_eq!(s.spin_downs, 1);
        assert_eq!(s.spin_ups, 1);
        assert!(s.standby_ms > 0.0);
        // The response includes the 10.9 s spin-up.
        assert!(c2 - (c1 + 100_000.0) > 10_900.0 - 1e-9);
        d.finish(c2);
    }

    #[test]
    fn tpm_short_idle_does_nothing() {
        let mut d = DiskSim::new(params(), PowerPolicy::Tpm(TpmConfig::default()));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        let _ = d.service(&sub(c1 + 1_000.0, 1 << 30, 1024));
        assert_eq!(d.stats().spin_downs, 0);
        assert_eq!(d.stats().standby_ms, 0.0);
    }

    #[test]
    fn tpm_saves_energy_on_long_idle_vs_base() {
        let run = |policy| {
            let mut d = DiskSim::new(params(), policy);
            let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
            let c2 = d.service(&sub(c1 + 200_000.0, 1 << 30, 1024)).completion_ms;
            d.finish(c2);
            d.stats().energy_j
        };
        let base = run(PowerPolicy::None);
        let tpm = run(PowerPolicy::Tpm(TpmConfig::default()));
        assert!(tpm < base, "tpm {tpm} >= base {base}");
    }

    #[test]
    fn tpm_trailing_idle_spins_down_without_spin_up() {
        let mut d = DiskSim::new(params(), PowerPolicy::Tpm(TpmConfig::default()));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        d.finish(c1 + 500_000.0);
        let s = d.stats();
        assert_eq!(s.spin_downs, 1);
        assert_eq!(s.spin_ups, 0);
    }

    #[test]
    fn directive_long_idle_spins_down_without_stall() {
        let cfg = DirectiveConfig::for_params(&params());
        let mut d = DiskSim::new(params(), PowerPolicy::Directive(cfg));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        // 100 s window: spin-down at the window start, standby, then a
        // pre-activated spin-up ending exactly at the next arrival.
        let a2 = c1 + 100_000.0;
        let out = d.service(&sub(a2, 1 << 30, 1024));
        let s = d.stats();
        assert_eq!(s.spin_downs, 1);
        assert_eq!(s.spin_ups, 1);
        assert!((out.stall_ms - 0.0).abs() < 1e-9, "stall {}", out.stall_ms);
        let p = params();
        let expect_standby = 100_000.0 - p.spin_down_ms - p.spin_up_ms;
        assert!((s.standby_ms - expect_standby).abs() < 1e-9);
        // The request completes exactly one service time after arrival.
        let svc = p.service_ms(1024, 15_000, false);
        assert!((out.completion_ms - a2 - svc).abs() < 1e-9);
        d.finish(out.completion_ms);
    }

    #[test]
    fn directive_short_idle_stays_at_full_speed() {
        let cfg = DirectiveConfig::for_params(&params());
        let mut d = DiskSim::new(params(), PowerPolicy::Directive(cfg));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        // Just under the break-even window: no directive, pure idle.
        let _ = d.service(&sub(c1 + cfg.min_idle_ms - 1.0, 1 << 30, 1024));
        let s = d.stats();
        assert_eq!(s.spin_downs, 0);
        assert_eq!(s.standby_ms, 0.0);
    }

    #[test]
    fn directive_trailing_idle_spins_down_without_spin_up() {
        let cfg = DirectiveConfig::for_params(&params());
        let mut d = DiskSim::new(params(), PowerPolicy::Directive(cfg));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        d.finish(c1 + 100_000.0);
        let s = d.stats();
        assert_eq!(s.spin_downs, 1);
        assert_eq!(s.spin_ups, 0);
        let expect_standby = 100_000.0 - params().spin_down_ms;
        assert!((s.standby_ms - expect_standby).abs() < 1e-9);
    }

    #[test]
    fn directive_beats_reactive_tpm_on_long_idle() {
        let run = |policy| {
            let mut d = DiskSim::new(params(), policy);
            let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
            let c2 = d.service(&sub(c1 + 200_000.0, 1 << 30, 1024)).completion_ms;
            d.finish(c2);
            (d.stats().energy_j, c2)
        };
        let (base_e, _) = run(PowerPolicy::None);
        let (tpm_e, tpm_end) = run(PowerPolicy::Tpm(TpmConfig::default()));
        let cfg = DirectiveConfig::for_params(&params());
        let (dir_e, dir_end) = run(PowerPolicy::Directive(cfg));
        // The static policy spins down immediately (no timeout wait) and
        // never stalls the request (no reactive spin-up).
        assert!(dir_e < tpm_e, "directive {dir_e} >= tpm {tpm_e}");
        assert!(dir_e < base_e, "directive {dir_e} >= base {base_e}");
        assert!(
            dir_end < tpm_end,
            "directive end {dir_end} >= tpm {tpm_end}"
        );
    }

    #[test]
    fn drpm_ramps_down_during_long_idle() {
        let mut d = DiskSim::new(params(), PowerPolicy::Drpm(DrpmConfig::default()));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        d.finish(c1 + 60_000.0);
        assert_eq!(d.rpm(), 3_000);
        assert!(d.stats().speed_changes >= 4);
    }

    #[test]
    fn drpm_long_idle_beats_base_energy() {
        let run = |policy| {
            let mut d = DiskSim::new(params(), policy);
            let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
            d.finish(c1 + 60_000.0);
            d.stats().energy_j
        };
        let base = run(PowerPolicy::None);
        let drpm = run(PowerPolicy::Drpm(DrpmConfig::default()));
        assert!(drpm < 0.6 * base, "drpm {drpm} vs base {base}");
    }

    #[test]
    fn drpm_services_slower_at_low_rpm() {
        let mut d = DiskSim::new(params(), PowerPolicy::Drpm(DrpmConfig::default()));
        let c1 = d.service(&sub(0.0, 0, 32 * 1024)).completion_ms;
        // Long idle drops to 3 000 rpm; the next service is slower than the
        // full-speed one.
        let a2 = c1 + 60_000.0;
        let c2 = d.service(&sub(a2, 1 << 30, 32 * 1024)).completion_ms;
        let slow = c2 - a2;
        let full = params().service_ms(32 * 1024, 15_000, false);
        assert!(slow > 2.0 * full, "slow {slow} vs full {full}");
    }

    #[test]
    fn drpm_window_ramps_back_up_under_load() {
        let cfg = DrpmConfig::default();
        let mut d = DiskSim::new(params(), PowerPolicy::Drpm(cfg));
        // Drop to the floor with one long idle.
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        let mut t = c1 + 120_000.0;
        assert!(d.rpm() > 0);
        // Then a dense burst: after enough windows the disk climbs back.
        for k in 0..((cfg.window_size as u64) * 6) {
            let c = d.service(&sub(t, (1 << 20) * k, 32 * 1024)).completion_ms;
            t = c + 0.1;
        }
        assert!(d.rpm() > 3_000, "rpm stayed at {}", d.rpm());
        d.finish(t);
    }

    #[test]
    fn histogram_records_gaps() {
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        let c2 = d.service(&sub(c1 + 5.0, 1 << 20, 1024)).completion_ms;
        let _ = d.service(&sub(c2 + 500.0, 1 << 21, 1024));
        let h = d.idle_histogram();
        assert_eq!(h.total_periods(), 2);
    }

    #[test]
    #[should_panic]
    fn service_after_finish_panics() {
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        d.finish(10.0);
        let _ = d.service(&sub(20.0, 0, 1024));
    }

    #[test]
    fn transient_error_retries_then_succeeds() {
        use dpm_faults::FaultPlan;
        let mut plan = FaultPlan::zero();
        plan.transient_error_rate = 1.0; // every attempt fails
        plan.retry.max_retries = 2;
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        d.set_fault_injector(plan.injector_for_disk(0));
        let out = d.service(&sub(0.0, 0, 1024));
        let s = d.stats();
        // 3 failed attempts (initial + 2 retries), then the forced pass.
        assert_eq!(s.faults, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.requeues, 1);
        assert!(s.degraded);
        assert_eq!(s.requests, 1, "work is never dropped");
        let svc = params().service_ms(1024, 15_000, false);
        let backoffs = plan.retry.backoff_ms(0) + plan.retry.backoff_ms(1);
        let expect = 4.0 * svc + backoffs + plan.retry.requeue_delay_ms;
        assert!(
            (out.completion_ms - expect).abs() < 1e-9,
            "{} vs {expect}",
            out.completion_ms
        );
        assert!((out.stall_ms - (expect - svc)).abs() < 1e-9);
        d.finish(out.completion_ms);
    }

    #[test]
    fn timeout_counted_when_response_exceeds_budget() {
        use dpm_faults::FaultPlan;
        let mut plan = FaultPlan::zero();
        plan.transient_error_rate = 1.0;
        plan.retry.max_retries = 0;
        plan.retry.requeue_delay_ms = 5_000.0;
        plan.retry.timeout_ms = 1_000.0;
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        d.set_fault_injector(plan.injector_for_disk(0));
        let _ = d.service(&sub(0.0, 0, 1024));
        assert_eq!(d.stats().timeouts, 1);
    }

    #[test]
    fn spin_up_failure_costs_extra_transitions() {
        use dpm_faults::FaultPlan;
        let clean = {
            let mut d = DiskSim::new(params(), PowerPolicy::Tpm(TpmConfig::default()));
            let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
            let c2 = d.service(&sub(c1 + 100_000.0, 1 << 30, 1024)).completion_ms;
            d.finish(c2);
            (c2, d.stats().clone())
        };
        let mut plan = FaultPlan::zero();
        plan.spin_up_failure_rate = 1.0; // every attempt fails → retries exhaust
        plan.retry.max_retries = 1;
        let mut d = DiskSim::new(params(), PowerPolicy::Tpm(TpmConfig::default()));
        d.set_fault_injector(plan.injector_for_disk(0));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        let c2 = d.service(&sub(c1 + 100_000.0, 1 << 30, 1024)).completion_ms;
        d.finish(c2);
        let s = d.stats();
        assert_eq!(s.faults, 2); // initial failure + failed retry
        assert_eq!(s.retries, 1);
        assert_eq!(s.requeues, 1);
        assert!(s.degraded);
        assert_eq!(s.spin_ups, clean.1.spin_ups);
        // Two extra full spin-ups of time and energy, plus backoff/requeue.
        assert!(c2 > clean.0 + 2.0 * params().spin_up_ms - 1e-9);
        assert!(s.energy_j > clean.1.energy_j + 2.0 * params().spin_up_energy_j - 1e-6);
    }

    #[test]
    fn stuck_rpm_disk_never_changes_speed() {
        use dpm_faults::FaultPlan;
        let mut plan = FaultPlan::zero();
        plan.stuck_rpm_rate = 1.0;
        let mut d = DiskSim::new(params(), PowerPolicy::Drpm(DrpmConfig::default()));
        d.set_fault_injector(plan.injector_for_disk(0));
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        d.finish(c1 + 60_000.0);
        assert_eq!(d.rpm(), 15_000, "stuck spindle must not ramp");
        assert_eq!(d.stats().speed_changes, 0);
        assert_eq!(d.stats().faults, 1, "stuck condition counted once");
    }

    #[test]
    fn jitter_slows_service_deterministically() {
        use dpm_faults::FaultPlan;
        let mut plan = FaultPlan::zero();
        plan.jitter_max_ms = 10.0;
        let run = |inject: bool| {
            let mut d = DiskSim::new(params(), PowerPolicy::None);
            if inject {
                d.set_fault_injector(plan.injector_for_disk(3));
            }
            d.service(&sub(0.0, 0, 1024)).completion_ms
        };
        let clean = run(false);
        let a = run(true);
        let b = run(true);
        assert!(a >= clean, "jitter only adds latency");
        assert_eq!(a.to_bits(), b.to_bits(), "same seed, same jitter");
    }

    #[test]
    fn zero_plan_injector_is_bit_identical_to_none() {
        use dpm_faults::FaultPlan;
        let run = |inject: bool| {
            let mut d = DiskSim::new(params(), PowerPolicy::Tpm(TpmConfig::default()));
            if inject {
                d.set_fault_injector(FaultPlan::zero().injector_for_disk(0));
            }
            let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
            let c2 = d.service(&sub(c1 + 100_000.0, 1 << 30, 1024)).completion_ms;
            d.finish(c2 + 1_000.0);
            (c2, d.stats().clone())
        };
        let (c_none, s_none) = run(false);
        let (c_zero, s_zero) = run(true);
        assert_eq!(c_none.to_bits(), c_zero.to_bits());
        assert_eq!(s_none.energy_j.to_bits(), s_zero.energy_j.to_bits());
        assert_eq!(s_none.faults, 0);
        assert_eq!(s_zero.faults, 0);
    }

    /// The ring against the list semantics it must keep: a `VecDeque`
    /// searched front to back, popped at the front when full.
    #[test]
    fn detector_matches_the_deque_model() {
        use dpm_obs::XorShift64Star;
        use std::collections::VecDeque;
        let mut rng = XorShift64Star::new(7);
        let mut rings = [SequentialStreams::default(); 3];
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); 3];
        for step in 0..50_000 {
            let disk = (rng.next_u64() % 3) as usize;
            // Few distinct positions, so matches, duplicates and
            // evictions all occur; some differ only above bit 32.
            let local = (rng.next_u64() % 48) * 4096 + ((rng.next_u64() % 2) << 32);
            let len = 4096 * (1 + rng.next_u64() % 2);
            let q = &mut model[disk];
            let want = if let Some(e) = q.iter_mut().find(|e| **e == local) {
                *e = local + len;
                true
            } else {
                if q.len() == SEQUENTIAL_STREAMS {
                    q.pop_front();
                }
                q.push_back(local + len);
                false
            };
            assert_eq!(rings[disk].continues(local, len), want, "step {step}");
        }
    }

    #[test]
    fn time_conservation() {
        // busy + idle + standby + transition ≈ makespan (per disk), except
        // that waits caused by spin-up overlap are also accounted as
        // transition time (so the sum can exceed makespan only for the
        // spin-up that delayed the final service past its arrival).
        let mut d = DiskSim::new(params(), PowerPolicy::None);
        let c1 = d.service(&sub(0.0, 0, 1024)).completion_ms;
        let c2 = d.service(&sub(c1 + 3_000.0, 1 << 20, 2048)).completion_ms;
        d.finish(c2 + 1_000.0);
        let s = d.stats();
        let sum = s.busy_ms + s.idle_ms + s.standby_ms + s.transition_ms;
        assert!((sum - (c2 + 1_000.0)).abs() < 1e-6, "sum {sum}");
    }
}
