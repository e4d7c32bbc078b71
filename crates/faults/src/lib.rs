//! # dpm-faults — deterministic fault injection for the disk simulator
//!
//! The paper's evaluation (§7) assumes disks that always spin up on demand
//! and serve every request. This crate supplies the misbehaviour: a seeded
//! [`FaultPlan`] describing *how often* disks fail and a per-disk
//! [`FaultInjector`] that turns the plan into a reproducible decision
//! stream. `dpm-disksim` consults the injector at each decision point
//! (spin-up, service attempt, RPM transition) and reacts with retries,
//! capped exponential backoff, and graceful degradation instead of
//! panicking or silently dropping work.
//!
//! Determinism is the whole design: every decision is a pure function of
//! `(plan.seed, disk index, decision order within that disk)`, drawn from
//! the workspace's own [`XorShift64Star`]. The simulator services each
//! disk's sub-request stream in arrival order, so the same plan produces
//! *bit-identical* reports on every run — the property
//! `tests/fault_determinism.rs` pins.
//!
//! Fault classes (all independently rated, all off at rate 0):
//!
//! * **Spin-up failures** — a TPM spin-up attempt fails; the controller
//!   retries with backoff, and after [`RetryPolicy::max_retries`] failures
//!   marks the disk degraded and re-queues the request behind a recovery
//!   delay.
//! * **Transient read/write errors** — one service attempt is wasted (the
//!   platter time is still spent), then retried with capped exponential
//!   backoff; exhaustion degrades the disk and re-queues the request.
//! * **Latency jitter** — an additive uniform service-time perturbation,
//!   modelling rotational-position misses and thermal recalibration.
//! * **Stuck-at-RPM spindles** — a per-disk coin decides at plan time that
//!   the disk's speed actuator is stuck: every DRPM level change is
//!   suppressed (the disk idles at full speed forever).
//!
//! ```
//! use dpm_faults::{FaultPlan, RetryPolicy};
//!
//! let plan = FaultPlan::chaos(42, 0.05);
//! assert!(!plan.is_zero());
//! let mut a = plan.injector_for_disk(3);
//! let mut b = plan.injector_for_disk(3);
//! // Same plan + same disk => the same decision stream, always.
//! for _ in 0..100 {
//!     assert_eq!(a.transient_error(), b.transient_error());
//! }
//! // The zero plan never injects anything.
//! let mut z = FaultPlan::zero().injector_for_disk(3);
//! assert!(!z.transient_error() && !z.spin_up_fails() && !z.stuck_rpm());
//! assert_eq!(RetryPolicy::default().backoff_ms(3), 8.0 * 50.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpm_obs::XorShift64Star;

/// Retry, backoff, timeout, and re-queue knobs shared by every fault class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries before a request gives up, degrades the disk, and is
    /// re-queued behind [`requeue_delay_ms`](Self::requeue_delay_ms).
    pub max_retries: u32,
    /// First-retry backoff in milliseconds; attempt `k` waits
    /// `base * 2^k`, capped at [`backoff_cap_ms`](Self::backoff_cap_ms).
    pub backoff_base_ms: f64,
    /// Upper bound on a single backoff wait.
    pub backoff_cap_ms: f64,
    /// Response-time budget per application sub-request; a completion
    /// later than `arrival + timeout_ms` is counted (and reported) as a
    /// timeout. `0` disables the check.
    pub timeout_ms: f64,
    /// Recovery delay charged when a request exhausts its retries and is
    /// re-queued on the (now degraded) disk.
    pub requeue_delay_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 50.0,
            backoff_cap_ms: 2_000.0,
            timeout_ms: 30_000.0,
            requeue_delay_ms: 5_000.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based): capped exponential.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        let factor = 2.0_f64.powi(attempt.min(30) as i32);
        (self.backoff_base_ms * factor).min(self.backoff_cap_ms)
    }
}

/// A seeded description of how the disk fleet misbehaves. Copyable and
/// cheap; the per-disk decision state lives in [`FaultInjector`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; together with the disk index it determines every
    /// injected fault.
    pub seed: u64,
    /// Probability that one spin-up attempt fails.
    pub spin_up_failure_rate: f64,
    /// Probability that one service attempt suffers a transient
    /// read/write error.
    pub transient_error_rate: f64,
    /// Probability that a disk's speed actuator is stuck (decided once
    /// per disk): all DRPM level changes are suppressed.
    pub stuck_rpm_rate: f64,
    /// Maximum additive service-time jitter in milliseconds (uniform in
    /// `[0, jitter_max_ms)`); `0` disables jitter.
    pub jitter_max_ms: f64,
    /// Retry/backoff/timeout policy the simulator applies when a fault
    /// from this plan fires.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The plan that injects nothing — the paper's fault-free world.
    /// Simulating under the zero plan is bit-identical to simulating with
    /// no plan at all (the golden-report tests pin this).
    pub fn zero() -> FaultPlan {
        FaultPlan {
            seed: 0,
            spin_up_failure_rate: 0.0,
            transient_error_rate: 0.0,
            stuck_rpm_rate: 0.0,
            jitter_max_ms: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// A one-knob chaos plan: every fault class at `rate` (clamped to
    /// `[0, 1]`), 1 ms of jitter per 1% of rate, default retry policy.
    pub fn chaos(seed: u64, rate: f64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            seed,
            spin_up_failure_rate: rate,
            transient_error_rate: rate,
            stuck_rpm_rate: rate,
            jitter_max_ms: rate * 100.0,
            retry: RetryPolicy::default(),
        }
    }

    /// Whether the plan can ever inject a fault. The simulator skips the
    /// injector entirely for zero plans, so the fault-free fast path costs
    /// nothing.
    pub fn is_zero(&self) -> bool {
        self.spin_up_failure_rate <= 0.0
            && self.transient_error_rate <= 0.0
            && self.stuck_rpm_rate <= 0.0
            && self.jitter_max_ms <= 0.0
    }

    /// The decision stream for one disk. Two injectors built from the
    /// same `(plan, disk)` produce identical decisions; different disks
    /// get statistically independent streams.
    pub fn injector_for_disk(&self, disk: usize) -> FaultInjector {
        let _sp = dpm_obs::span!("fault_injector_setup");
        let mut rng = XorShift64Star::new(splitmix64(
            self.seed ^ (disk as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ));
        // The stuck-spindle coin is flipped once, up front, so the
        // per-request decision order is identical for stuck and healthy
        // disks.
        let stuck_rpm = self.stuck_rpm_rate > 0.0 && rng.next_f64() < self.stuck_rpm_rate;
        FaultInjector {
            plan: *self,
            rng,
            stuck_rpm,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::zero()
    }
}

/// SplitMix64 finalizer: decorrelates near-identical seeds so per-disk
/// streams do not share prefixes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-disk fault decision stream. Draws happen only for fault classes
/// with a positive rate, so enabling one class never perturbs another's
/// stream relative to a plan where it is off.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: XorShift64Star,
    stuck_rpm: bool,
}

impl FaultInjector {
    /// The retry/backoff policy in effect.
    pub fn retry(&self) -> &RetryPolicy {
        &self.plan.retry
    }

    /// Whether this disk's speed actuator is stuck (decided at
    /// construction; stable for the disk's lifetime).
    pub fn stuck_rpm(&self) -> bool {
        self.stuck_rpm
    }

    /// Draws one spin-up attempt: `true` = the spindle failed to start.
    pub fn spin_up_fails(&mut self) -> bool {
        self.plan.spin_up_failure_rate > 0.0 && self.rng.next_f64() < self.plan.spin_up_failure_rate
    }

    /// Draws one service attempt: `true` = transient read/write error.
    pub fn transient_error(&mut self) -> bool {
        self.plan.transient_error_rate > 0.0 && self.rng.next_f64() < self.plan.transient_error_rate
    }

    /// Draws the additive service-time jitter for one sub-request
    /// (`0.0` when jitter is disabled).
    pub fn jitter_ms(&mut self) -> f64 {
        if self.plan.jitter_max_ms > 0.0 {
            self.rng.uniform(self.plan.jitter_max_ms)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero_and_never_fires() {
        let plan = FaultPlan::zero();
        assert!(plan.is_zero());
        let mut inj = plan.injector_for_disk(0);
        for _ in 0..1000 {
            assert!(!inj.spin_up_fails());
            assert!(!inj.transient_error());
            assert_eq!(inj.jitter_ms(), 0.0);
        }
        assert!(!inj.stuck_rpm());
    }

    #[test]
    fn chaos_rate_zero_is_zero() {
        assert!(FaultPlan::chaos(7, 0.0).is_zero());
        assert!(!FaultPlan::chaos(7, 0.01).is_zero());
    }

    #[test]
    fn injectors_are_deterministic_per_disk_and_differ_across_disks() {
        let plan = FaultPlan::chaos(0xDEAD_BEEF, 0.3);
        let draw = |mut inj: FaultInjector| -> Vec<bool> {
            (0..256).map(|_| inj.transient_error()).collect()
        };
        assert_eq!(
            draw(plan.injector_for_disk(2)),
            draw(plan.injector_for_disk(2))
        );
        assert_ne!(
            draw(plan.injector_for_disk(2)),
            draw(plan.injector_for_disk(3))
        );
        // Different seeds change the stream too.
        assert_ne!(
            draw(plan.injector_for_disk(2)),
            draw(FaultPlan::chaos(0xFEED, 0.3).injector_for_disk(2))
        );
    }

    #[test]
    fn stuck_coin_is_stable_and_rate_sensitive() {
        let always = FaultPlan {
            stuck_rpm_rate: 1.0,
            ..FaultPlan::zero()
        };
        let never = FaultPlan {
            stuck_rpm_rate: 0.0,
            ..FaultPlan::zero()
        };
        for d in 0..16 {
            assert!(always.injector_for_disk(d).stuck_rpm());
            assert!(!never.injector_for_disk(d).stuck_rpm());
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let rp = RetryPolicy::default();
        assert_eq!(rp.backoff_ms(0), 50.0);
        assert_eq!(rp.backoff_ms(1), 100.0);
        assert_eq!(rp.backoff_ms(2), 200.0);
        assert_eq!(rp.backoff_ms(20), rp.backoff_cap_ms);
        // Huge attempt counts must not overflow the exponent.
        assert_eq!(rp.backoff_ms(u32::MAX), rp.backoff_cap_ms);
    }

    #[test]
    fn jitter_stays_in_range() {
        let plan = FaultPlan {
            jitter_max_ms: 5.0,
            ..FaultPlan::zero()
        };
        assert!(!plan.is_zero());
        let mut inj = plan.injector_for_disk(1);
        for _ in 0..1000 {
            let j = inj.jitter_ms();
            assert!((0.0..5.0).contains(&j), "{j}");
        }
    }
}
