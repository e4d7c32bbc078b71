//! Streaming, constant-memory per-disk simulation metrics.
//!
//! The pull-based simulator ([`Simulator::run_stream`](crate::Simulator::run_stream))
//! never materializes a trace, so anything we want to know about a run
//! must be computed incrementally from the request stream with O(1)
//! memory per disk. This module is that accumulator set:
//!
//! * [`LogHistogram`]s for request service time and spin-up latency
//!   (microseconds of simulated time — integers, so bit-reproducible at
//!   any thread count);
//! * a [`QueueDepthGauge`] sampling outstanding sub-requests in simulated
//!   time over a bounded completion window;
//! * [`RpmResidency`]: per-RPM spinning-time counters (the DRPM analogue
//!   of the busy/idle/standby split `DiskStats` already tracks).
//!
//! Everything merges exactly, so per-disk metrics aggregate to run totals
//! in the report layer without a second pass over the stream.

use crate::hist::LogHistogram;
use dpm_obs::Json;

/// Bounded window of in-flight completion times tracked by the gauge.
/// Constant memory: depths beyond this saturate (recorded as `CAP`).
const DEPTH_WINDOW: usize = 64;

/// Time-weighted queue-depth gauge over simulated time.
///
/// The per-disk sub-request stream arrives in non-decreasing arrival
/// order and completes in FIFO order, so the set of outstanding requests
/// at any arrival is a suffix of recent completions. The gauge keeps at
/// most 64 completion times (constant memory) and
/// integrates `depth × Δt` between arrivals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueDepthGauge {
    /// Outstanding completion times, oldest first (bounded ring).
    window: Vec<f64>,
    /// `Σ depth · Δt` in depth·ms of simulated time.
    depth_ms: f64,
    /// Simulated time of the last sample.
    last_ms: f64,
    /// Largest observed depth.
    max_depth: u64,
    /// Arrivals sampled.
    samples: u64,
}

impl QueueDepthGauge {
    /// A fresh gauge at simulated time zero.
    pub fn new() -> QueueDepthGauge {
        QueueDepthGauge::default()
    }

    /// Samples the gauge at an arrival: expires completions at or before
    /// `arrival_ms`, charges the elapsed interval at the previous depth,
    /// and counts the sample.
    pub fn on_arrival(&mut self, arrival_ms: f64) {
        let dt = (arrival_ms - self.last_ms).max(0.0);
        self.depth_ms += self.window.len() as f64 * dt;
        self.last_ms = self.last_ms.max(arrival_ms);
        self.window.retain(|&c| c > arrival_ms);
        self.samples += 1;
    }

    /// Registers a request's completion time (non-decreasing per disk).
    pub fn on_completion(&mut self, completion_ms: f64) {
        if self.window.len() == DEPTH_WINDOW {
            self.window.remove(0);
        }
        self.window.push(completion_ms);
        self.max_depth = self.max_depth.max(self.window.len() as u64);
    }

    /// Mean outstanding depth over `horizon_ms` of simulated time
    /// (conventionally the makespan). Zero for an idle disk.
    pub fn mean_depth(&self, horizon_ms: f64) -> f64 {
        if horizon_ms <= 0.0 {
            0.0
        } else {
            self.depth_ms / horizon_ms
        }
    }

    /// Largest observed depth (saturates at the window size).
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }

    /// Arrivals sampled.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Folds another disk's gauge into an aggregate: depth-time and
    /// samples add, max depth takes the maximum. (The completion window
    /// is per-disk state and does not participate.)
    pub fn merge(&mut self, other: &QueueDepthGauge) {
        self.depth_ms += other.depth_ms;
        self.samples += other.samples;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.last_ms = self.last_ms.max(other.last_ms);
    }
}

/// Per-RPM spinning-time residency: how long the spindle spent at each
/// speed level (busy or idle — standby and transitions are accounted by
/// the existing `DiskStats` fields). At most one entry per DRPM level,
/// so memory is O(#levels), a small constant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RpmResidency {
    levels: Vec<(u32, f64)>,
}

impl RpmResidency {
    /// A fresh residency table.
    pub fn new() -> RpmResidency {
        RpmResidency::default()
    }

    /// Accrues `ms` of simulated time at `rpm`. Levels appear in
    /// first-accrual order; lookups are linear over the handful of DRPM
    /// steps.
    pub fn accrue(&mut self, rpm: u32, ms: f64) {
        if ms <= 0.0 {
            return;
        }
        match self.levels.iter_mut().find(|(r, _)| *r == rpm) {
            Some((_, t)) => *t += ms,
            None => self.levels.push((rpm, ms)),
        }
    }

    /// `(rpm, ms)` entries sorted by RPM descending (full speed first).
    pub fn levels(&self) -> Vec<(u32, f64)> {
        let mut v = self.levels.clone();
        v.sort_by_key(|&(rpm, _)| std::cmp::Reverse(rpm));
        v
    }

    /// Total spinning time across levels.
    pub fn total_ms(&self) -> f64 {
        self.levels.iter().map(|(_, t)| t).sum()
    }

    /// Merges another residency table into this one.
    pub fn merge(&mut self, other: &RpmResidency) {
        for &(rpm, ms) in &other.levels {
            self.accrue(rpm, ms);
        }
    }
}

/// The full streaming metric set for one disk (or, after merging, one
/// run). All state is O(1) per disk and derived purely from simulated
/// time, so it is bit-identical from run to run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskStreamMetrics {
    /// Pure service time (positioning + transfer) per sub-request, µs.
    pub service_us: LogHistogram,
    /// Spin-up / power-transition stall suffered by requests, µs. One
    /// recording per stalled request, including fault-retry spin-ups.
    pub spin_up_us: LogHistogram,
    /// Outstanding-request gauge in simulated time.
    pub queue: QueueDepthGauge,
    /// Per-RPM spinning residency.
    pub residency: RpmResidency,
}

impl DiskStreamMetrics {
    /// A fresh metric set.
    pub fn new() -> DiskStreamMetrics {
        DiskStreamMetrics::default()
    }

    /// Merges another disk's metrics into this aggregate.
    pub fn merge(&mut self, other: &DiskStreamMetrics) {
        self.service_us.merge(&other.service_us);
        self.spin_up_us.merge(&other.spin_up_us);
        self.queue.merge(&other.queue);
        self.residency.merge(&other.residency);
    }

    /// Summary JSON for reports: histogram quantiles, queue statistics,
    /// and the RPM residency table. `horizon_ms` (conventionally the
    /// makespan, times the disk count for aggregates) normalizes the
    /// mean queue depth.
    pub fn to_json(&self, horizon_ms: f64) -> Json {
        let residency: Vec<Json> = self
            .residency
            .levels()
            .into_iter()
            .map(|(rpm, ms)| {
                Json::obj(vec![
                    ("rpm", Json::U64(u64::from(rpm))),
                    ("ms", Json::F64(ms)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("service_count", Json::U64(self.service_us.count())),
            ("service_p50_us", Json::U64(self.service_us.quantile(0.5))),
            ("service_p99_us", Json::U64(self.service_us.quantile(0.99))),
            ("service_max_us", Json::U64(self.service_us.max())),
            ("spin_up_stalls", Json::U64(self.spin_up_us.count())),
            ("spin_up_p99_us", Json::U64(self.spin_up_us.quantile(0.99))),
            (
                "mean_queue_depth",
                Json::F64(self.queue.mean_depth(horizon_ms)),
            ),
            ("max_queue_depth", Json::U64(self.queue.max_depth())),
            ("rpm_residency", Json::Arr(residency)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_integrates_depth_over_time() {
        let mut g = QueueDepthGauge::new();
        g.on_arrival(0.0);
        g.on_completion(10.0); // outstanding until t=10
        g.on_arrival(5.0); // depth was 1 over [0,5): +5 depth·ms
        g.on_completion(12.0);
        g.on_arrival(20.0); // depth was 2 over [5,20) but both expire at 20
        assert_eq!(g.max_depth(), 2);
        assert_eq!(g.samples(), 3);
        // [0,5): 1·5 = 5; [5,20): 2·15 = 30.
        assert!((g.depth_ms - 35.0).abs() < 1e-9, "{}", g.depth_ms);
        assert!((g.mean_depth(100.0) - 0.35).abs() < 1e-9);
    }

    #[test]
    fn gauge_window_saturates_not_grows() {
        let mut g = QueueDepthGauge::new();
        for i in 0..10_000u64 {
            g.on_arrival(i as f64);
            g.on_completion(1e12); // nothing ever completes
        }
        assert!(g.window.len() <= DEPTH_WINDOW);
        assert_eq!(g.max_depth(), DEPTH_WINDOW as u64);
    }

    #[test]
    fn residency_accrues_and_merges() {
        let mut a = RpmResidency::new();
        a.accrue(15_000, 10.0);
        a.accrue(9_000, 5.0);
        a.accrue(15_000, 2.5);
        let mut b = RpmResidency::new();
        b.accrue(9_000, 1.5);
        b.accrue(3_000, 1.0);
        a.merge(&b);
        assert_eq!(a.levels(), vec![(15_000, 12.5), (9_000, 6.5), (3_000, 1.0)]);
        assert!((a.total_ms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn disk_metrics_merge_and_export() {
        let mut a = DiskStreamMetrics::new();
        a.service_us.record_ms(2.0);
        a.spin_up_us.record_ms(10_900.0);
        a.residency.accrue(15_000, 100.0);
        let mut b = DiskStreamMetrics::new();
        b.service_us.record_ms(4.0);
        let mut all = DiskStreamMetrics::new();
        all.merge(&a);
        all.merge(&b);
        assert_eq!(all.service_us.count(), 2);
        assert_eq!(all.spin_up_us.count(), 1);
        let mut s = String::new();
        all.to_json(1000.0).write(&mut s);
        assert!(s.contains("\"service_p99_us\""), "{s}");
        assert!(s.contains("\"rpm_residency\""), "{s}");
    }
}
