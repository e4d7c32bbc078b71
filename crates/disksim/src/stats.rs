//! Simulation statistics: per-disk accounting, idle-period histograms, and
//! the whole-run report with the paper's two headline metrics (disk energy
//! and disk I/O time).

use crate::metrics::DiskStreamMetrics;
use std::fmt;

/// Per-disk accounting accumulated by the simulator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiskStats {
    /// Sub-requests serviced.
    pub requests: u64,
    /// Sub-requests that continued sequentially from the previous one.
    pub sequential_requests: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Time spent servicing (ms).
    pub busy_ms: f64,
    /// Time spent spinning idle (at any RPM level) (ms).
    pub idle_ms: f64,
    /// Time spent spun down (ms).
    pub standby_ms: f64,
    /// Time spent in power-state/RPM transitions (ms).
    pub transition_ms: f64,
    /// Energy consumed (J).
    pub energy_j: f64,
    /// TPM spin-downs.
    pub spin_downs: u64,
    /// TPM spin-ups.
    pub spin_ups: u64,
    /// DRPM level changes.
    pub speed_changes: u64,
    /// Injected fault events that fired on this disk (spin-up failures,
    /// transient errors, stuck-spindle detections).
    pub faults: u64,
    /// Retries issued in response to faults (each waits out a capped
    /// exponential backoff before the next attempt).
    pub retries: u64,
    /// Sub-requests whose response exceeded the plan's timeout budget.
    pub timeouts: u64,
    /// Requests that exhausted their retries and were re-queued behind
    /// the degraded-disk recovery delay. Work is never dropped: a
    /// re-queued request still completes.
    pub requeues: u64,
    /// Whether the disk was marked degraded (a request exhausted its
    /// retries at least once).
    pub degraded: bool,
    /// Migration transfers serviced (hot/cold moves between tiers).
    /// Counted separately from `requests` so application-request
    /// conservation stays exact under migration.
    pub migration_requests: u64,
    /// Bytes moved by migration transfers (likewise separate from
    /// `bytes`).
    pub migration_bytes: u64,
}

/// Histogram of idle-period lengths with buckets chosen around the
/// power-management thresholds (the TPM break-even sits between the last
/// two interior bucket edges).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdleHistogram {
    counts: [u64; 6],
}

impl IdleHistogram {
    /// Bucket upper edges in milliseconds (the last bucket is unbounded).
    pub const EDGES_MS: [f64; 5] = [10.0, 100.0, 1_000.0, 15_200.0, 60_000.0];

    /// Human-readable bucket labels.
    pub const LABELS: [&'static str; 6] =
        ["<10ms", "10-100ms", "0.1-1s", "1-15.2s", "15.2-60s", ">60s"];

    /// Records one idle period.
    pub fn record(&mut self, ms: f64) {
        let ix = Self::EDGES_MS
            .iter()
            .position(|&e| ms < e)
            .unwrap_or(Self::EDGES_MS.len());
        self.counts[ix] += 1;
    }

    /// Count per bucket.
    pub fn counts(&self) -> &[u64; 6] {
        &self.counts
    }

    /// Total idle periods recorded.
    pub fn total_periods(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Periods at or above the TPM break-even bucket (≥ 15.2 s).
    pub fn spin_down_candidates(&self) -> u64 {
        self.counts[4] + self.counts[5]
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &IdleHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for IdleHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = Self::LABELS
            .iter()
            .zip(&self.counts)
            .map(|(l, c)| format!("{l}:{c}"))
            .collect();
        write!(f, "{}", parts.join(" "))
    }
}

/// One contiguous interval of a disk's power-state timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Interval start (ms).
    pub start_ms: f64,
    /// Interval end (ms).
    pub end_ms: f64,
    /// What the disk was doing.
    pub state: SpanState,
}

/// The power state of a timeline span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanState {
    /// Servicing a request.
    Busy,
    /// Spinning idle at the given RPM.
    Idle(u32),
    /// Spun down.
    Standby,
    /// Spin-up/down or RPM transition.
    Transition,
}

/// Merges adjacent spans that share a state (the form in which a timeline
/// is reconstructible from `disk_state` events, which mark changes only).
pub fn coalesce_spans(spans: &[Span]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for &s in spans {
        match out.last_mut() {
            Some(prev) if prev.state == s.state && (prev.end_ms - s.start_ms).abs() < 1e-9 => {
                prev.end_ms = s.end_ms;
            }
            _ => out.push(s),
        }
    }
    out
}

/// Rebuilds per-disk power-state timelines from an instrumentation event
/// stream: the `disk_state` events of run `run` each open a state at
/// `at_ms`; the state lasts until the disk's next event (or `end_ms`).
/// The result is coalesced — equal to [`coalesce_spans`] of the
/// simulator-recorded timeline of the same run.
pub fn timelines_from_events(
    events: &[dpm_obs::Event],
    run: u64,
    num_disks: usize,
    end_ms: f64,
) -> Vec<Vec<Span>> {
    let mut changes: Vec<Vec<(f64, SpanState)>> = vec![Vec::new(); num_disks];
    for ev in events {
        if ev.kind != dpm_obs::kind::DISK_STATE || ev.num("run") != Some(run as f64) {
            continue;
        }
        let (Some(disk), Some(at_ms)) = (ev.num("disk"), ev.num("at_ms")) else {
            continue;
        };
        let disk = disk as usize;
        if disk >= num_disks {
            continue;
        }
        let state = match ev.name.as_str() {
            "busy" => SpanState::Busy,
            "idle" => SpanState::Idle(ev.num("rpm").unwrap_or(0.0) as u32),
            "standby" => SpanState::Standby,
            "transition" => SpanState::Transition,
            _ => continue,
        };
        changes[disk].push((at_ms, state));
    }
    changes
        .into_iter()
        .map(|mut ch| {
            ch.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut spans = Vec::with_capacity(ch.len());
            for (i, &(at_ms, state)) in ch.iter().enumerate() {
                let end = ch.get(i + 1).map_or_else(|| end_ms.max(at_ms), |n| n.0);
                if end > at_ms {
                    spans.push(Span {
                        start_ms: at_ms,
                        end_ms: end,
                        state,
                    });
                }
            }
            spans
        })
        .collect()
}

/// Renders per-disk timelines as fixed-width ASCII strips:
/// `#` busy, `.` idle at full speed, `o` idle at reduced speed,
/// `_` standby, `~` transition.
pub fn ascii_timelines(timelines: &[Vec<Span>], makespan_ms: f64, width: usize) -> String {
    let width = width.max(8);
    let mut out = String::new();
    for (d, spans) in timelines.iter().enumerate() {
        let mut row = vec![' '; width];
        for span in spans {
            let a = ((span.start_ms / makespan_ms) * width as f64).floor() as usize;
            let b = ((span.end_ms / makespan_ms) * width as f64).ceil() as usize;
            let ch = match span.state {
                SpanState::Busy => '#',
                SpanState::Idle(rpm) if rpm < 15_000 => 'o',
                SpanState::Idle(_) => '.',
                SpanState::Standby => '_',
                SpanState::Transition => '~',
            };
            for c in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                // Busy wins over everything; standby over idle.
                let keep = matches!(*c, '#') || (*c == '_' && ch == '.');
                if !keep {
                    *c = ch;
                }
            }
        }
        out.push_str(&format!(
            "disk{d}: {}
",
            row.iter().collect::<String>()
        ));
    }
    out
}

/// One promote/demote decision taken by the online migration policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationEvent {
    /// Application-request index at whose window boundary the move fired.
    pub at_request: u64,
    /// The array moved.
    pub array: usize,
    /// Source tier.
    pub from_tier: usize,
    /// Destination tier.
    pub to_tier: usize,
    /// Logical bytes moved.
    pub bytes: u64,
}

/// Aggregated statistics for one tier of a heterogeneous run.
#[derive(Clone, Debug, PartialEq)]
pub struct TierStats {
    /// Class name of the tier's disks.
    pub class: &'static str,
    /// Disks in the tier.
    pub disks: usize,
    /// Energy consumed by the tier's disks (J).
    pub energy_j: f64,
    /// Busy time summed over the tier's disks (ms).
    pub busy_ms: f64,
    /// Standby time summed over the tier's disks (ms).
    pub standby_ms: f64,
    /// Spin-downs summed over the tier's disks.
    pub spin_downs: u64,
    /// Migration transfers serviced by the tier's disks.
    pub migration_requests: u64,
    /// Migration bytes moved through the tier's disks.
    pub migration_bytes: u64,
}

/// Tier-level results of a heterogeneous run: per-tier aggregates plus
/// the full promote/demote sequence (empty without online migration).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TierReport {
    /// One entry per tier, in tier order.
    pub per_tier: Vec<TierStats>,
    /// Promote/demote decisions in the order they fired.
    pub events: Vec<MigrationEvent>,
}

/// The result of simulating one trace.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Time of the last request completion (ms).
    pub makespan_ms: f64,
    /// Device-attributed disk I/O time: the sum over application requests
    /// of the slowest piece's power-management stall plus service time.
    /// This is the paper's "disk I/O time" performance metric — it charges
    /// each spin-up or speed penalty once, to the request that suffered it.
    pub total_io_time_ms: f64,
    /// Sum of application-visible response times (completion − arrival),
    /// including queueing behind earlier requests. With open-loop traces a
    /// single long stall inflates every queued request, so this is reported
    /// for analysis but not used for the Figure 10 degradation numbers.
    pub total_response_ms: f64,
    /// Per-disk statistics.
    pub per_disk: Vec<DiskStats>,
    /// Per-disk idle histograms.
    pub idle_histograms: Vec<IdleHistogram>,
    /// Application-level requests simulated.
    pub app_requests: u64,
    /// Per-disk power-state timelines, when recording was enabled via
    /// [`Simulator::with_timelines`](crate::Simulator::with_timelines).
    pub timelines: Option<Vec<Vec<Span>>>,
    /// The instrumentation run id stamped on this run's `disk_state`
    /// events (see [`timelines_from_events`]). Zero for hand-built
    /// reports.
    pub obs_run: u64,
    /// Per-disk streaming metrics (service-time and spin-up-latency
    /// histograms, queue-depth gauge, RPM residency), computed
    /// incrementally with O(1) memory per disk. Empty for hand-built
    /// reports.
    pub stream: Vec<DiskStreamMetrics>,
    /// Tier-level results for heterogeneous runs (see
    /// [`Simulator::with_tiers`](crate::Simulator::with_tiers)). `None`
    /// for flat single-class runs, keeping their reports byte-identical
    /// to the pre-tier simulator.
    pub tiers: Option<TierReport>,
}

impl SimReport {
    /// Total disk energy over all I/O nodes (J).
    pub fn total_energy_j(&self) -> f64 {
        self.per_disk.iter().map(|d| d.energy_j).sum()
    }

    /// Total sub-requests over all disks.
    pub fn total_sub_requests(&self) -> u64 {
        self.per_disk.iter().map(|d| d.requests).sum()
    }

    /// Total bytes over all disks.
    pub fn total_bytes(&self) -> u64 {
        self.per_disk.iter().map(|d| d.bytes).sum()
    }

    /// Energy of this run relative to `base` (1.0 = equal; < 1 = saving).
    pub fn normalized_energy(&self, base: &SimReport) -> f64 {
        self.total_energy_j() / base.total_energy_j()
    }

    /// Fractional energy saving vs `base` (positive = saved).
    pub fn energy_saving_vs(&self, base: &SimReport) -> f64 {
        1.0 - self.normalized_energy(base)
    }

    /// Fractional I/O-time degradation vs `base` (positive = slower).
    pub fn degradation_vs(&self, base: &SimReport) -> f64 {
        self.total_io_time_ms / base.total_io_time_ms - 1.0
    }

    /// Merged streaming metrics over all disks (exact — histogram merge
    /// is per-bucket addition). Empty when the report carries none.
    pub fn merged_stream_metrics(&self) -> DiskStreamMetrics {
        let mut m = DiskStreamMetrics::new();
        for d in &self.stream {
            m.merge(d);
        }
        m
    }

    /// Total spin-downs across disks.
    pub fn total_spin_downs(&self) -> u64 {
        self.per_disk.iter().map(|d| d.spin_downs).sum()
    }

    /// Total DRPM speed changes across disks.
    pub fn total_speed_changes(&self) -> u64 {
        self.per_disk.iter().map(|d| d.speed_changes).sum()
    }

    /// Total injected fault events across disks.
    pub fn total_faults(&self) -> u64 {
        self.per_disk.iter().map(|d| d.faults).sum()
    }

    /// Total fault retries across disks.
    pub fn total_retries(&self) -> u64 {
        self.per_disk.iter().map(|d| d.retries).sum()
    }

    /// Total request timeouts across disks.
    pub fn total_timeouts(&self) -> u64 {
        self.per_disk.iter().map(|d| d.timeouts).sum()
    }

    /// Total degraded-disk re-queues across disks.
    pub fn total_requeues(&self) -> u64 {
        self.per_disk.iter().map(|d| d.requeues).sum()
    }

    /// How many disks ended the run marked degraded.
    pub fn degraded_disks(&self) -> usize {
        self.per_disk.iter().filter(|d| d.degraded).count()
    }

    /// Total migration transfers serviced across disks.
    pub fn total_migration_requests(&self) -> u64 {
        self.per_disk.iter().map(|d| d.migration_requests).sum()
    }

    /// Total migration bytes moved across disks (reads + writes, so a
    /// one-array move counts its logical bytes twice).
    pub fn total_migration_bytes(&self) -> u64 {
        self.per_disk.iter().map(|d| d.migration_bytes).sum()
    }

    /// An unachievable *oracle* lower bound on energy for this run's disk
    /// activity: every disk pays active power exactly while busy and
    /// standby power the rest of the makespan, with free instantaneous
    /// transitions. Useful context for how much headroom a power policy
    /// leaves.
    pub fn oracle_energy_j(&self, params: &crate::DiskParams) -> f64 {
        self.per_disk
            .iter()
            .map(|d| {
                let busy_s = d.busy_ms / 1000.0;
                let rest_s = (self.makespan_ms - d.busy_ms).max(0.0) / 1000.0;
                params.active_power_w * busy_s + params.standby_power_w * rest_s
            })
            .sum()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "makespan {:.1} s, energy {:.1} J, io-time {:.1} s, {} app reqs / {} sub-reqs",
            self.makespan_ms / 1000.0,
            self.total_energy_j(),
            self.total_io_time_ms / 1000.0,
            self.app_requests,
            self.total_sub_requests(),
        )?;
        for (i, d) in self.per_disk.iter().enumerate() {
            write!(
                f,
                "  disk{i}: busy {:.1}s idle {:.1}s standby {:.1}s trans {:.1}s energy {:.1}J \
                 reqs {} (seq {}) downs {} ups {} speed-chg {}",
                d.busy_ms / 1000.0,
                d.idle_ms / 1000.0,
                d.standby_ms / 1000.0,
                d.transition_ms / 1000.0,
                d.energy_j,
                d.requests,
                d.sequential_requests,
                d.spin_downs,
                d.spin_ups,
                d.speed_changes,
            )?;
            if d.faults > 0 || d.timeouts > 0 {
                write!(
                    f,
                    " faults {} retries {} timeouts {} requeues {}{}",
                    d.faults,
                    d.retries,
                    d.timeouts,
                    d.requeues,
                    if d.degraded { " DEGRADED" } else { "" },
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = IdleHistogram::default();
        h.record(1.0);
        h.record(50.0);
        h.record(500.0);
        h.record(5_000.0);
        h.record(20_000.0);
        h.record(100_000.0);
        assert_eq!(h.counts(), &[1, 1, 1, 1, 1, 1]);
        assert_eq!(h.total_periods(), 6);
        assert_eq!(h.spin_down_candidates(), 2);
    }

    /// Exact bucket-boundary semantics: a period equal to an edge belongs
    /// to the bucket *above* that edge.
    #[test]
    fn histogram_exact_edges_go_to_the_upper_bucket() {
        let mut h = IdleHistogram::default();
        for edge in [10.0, 100.0, 1_000.0, 15_200.0, 60_000.0] {
            h.record(edge);
        }
        assert_eq!(h.counts(), &[0, 1, 1, 1, 1, 1]);
        // Infinitesimally below each edge lands one bucket lower.
        let mut low = IdleHistogram::default();
        for edge in IdleHistogram::EDGES_MS {
            low.record(edge - 1e-9);
        }
        assert_eq!(low.counts(), &[1, 1, 1, 1, 1, 0]);
        // The break-even edge itself (15.2 s) counts as a candidate.
        assert_eq!(h.spin_down_candidates(), 2);
        assert_eq!(low.spin_down_candidates(), 1);
    }

    #[test]
    fn histogram_merge() {
        let mut a = IdleHistogram::default();
        a.record(1.0);
        let mut b = IdleHistogram::default();
        b.record(1.0);
        b.record(100_000.0);
        a.merge(&b);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[5], 1);
    }

    #[test]
    fn ascii_timeline_renders_states() {
        let spans = vec![vec![
            Span {
                start_ms: 0.0,
                end_ms: 25.0,
                state: SpanState::Busy,
            },
            Span {
                start_ms: 25.0,
                end_ms: 50.0,
                state: SpanState::Idle(15_000),
            },
            Span {
                start_ms: 50.0,
                end_ms: 75.0,
                state: SpanState::Standby,
            },
            Span {
                start_ms: 75.0,
                end_ms: 100.0,
                state: SpanState::Idle(3_000),
            },
        ]];
        let art = ascii_timelines(&spans, 100.0, 40);
        assert!(art.starts_with("disk0: "));
        for ch in ['#', '.', '_', 'o'] {
            assert!(art.contains(ch), "missing {ch} in {art}");
        }
    }

    #[test]
    fn coalesce_merges_adjacent_equal_states() {
        let spans = [
            Span {
                start_ms: 0.0,
                end_ms: 1.0,
                state: SpanState::Busy,
            },
            Span {
                start_ms: 1.0,
                end_ms: 2.0,
                state: SpanState::Busy,
            },
            Span {
                start_ms: 2.0,
                end_ms: 3.0,
                state: SpanState::Idle(15_000),
            },
            Span {
                start_ms: 3.0,
                end_ms: 4.0,
                state: SpanState::Idle(3_000),
            },
            Span {
                start_ms: 4.0,
                end_ms: 5.0,
                state: SpanState::Busy,
            },
        ];
        let merged = coalesce_spans(&spans);
        assert_eq!(merged.len(), 4);
        assert_eq!(
            merged[0],
            Span {
                start_ms: 0.0,
                end_ms: 2.0,
                state: SpanState::Busy
            }
        );
        // Different RPM levels are different states.
        assert_eq!(merged[1].state, SpanState::Idle(15_000));
        assert_eq!(merged[2].state, SpanState::Idle(3_000));
    }

    #[test]
    fn timelines_rebuild_from_events() {
        use dpm_obs::{kind, Event};
        let mk = |at_ms: f64, disk: usize, name: &str, rpm: u32| {
            Event::new(0, kind::DISK_STATE, name)
                .field("run", 7u64)
                .field("disk", disk)
                .field("at_ms", at_ms)
                .field("rpm", rpm)
        };
        let events = vec![
            mk(0.0, 0, "idle", 15_000),
            mk(10.0, 0, "busy", 15_000),
            mk(12.0, 0, "standby", 0),
            mk(0.0, 1, "idle", 15_000),
            // Wrong run: must be ignored.
            Event::new(0, kind::DISK_STATE, "busy")
                .field("run", 8u64)
                .field("disk", 1usize)
                .field("at_ms", 5.0)
                .field("rpm", 15_000u32),
        ];
        let tl = timelines_from_events(&events, 7, 2, 20.0);
        assert_eq!(tl.len(), 2);
        assert_eq!(
            tl[0],
            vec![
                Span {
                    start_ms: 0.0,
                    end_ms: 10.0,
                    state: SpanState::Idle(15_000)
                },
                Span {
                    start_ms: 10.0,
                    end_ms: 12.0,
                    state: SpanState::Busy
                },
                Span {
                    start_ms: 12.0,
                    end_ms: 20.0,
                    state: SpanState::Standby
                },
            ]
        );
        assert_eq!(
            tl[1],
            vec![Span {
                start_ms: 0.0,
                end_ms: 20.0,
                state: SpanState::Idle(15_000)
            }]
        );
    }

    #[test]
    fn oracle_bound_is_below_any_real_energy() {
        let params = crate::DiskParams::default();
        let d = DiskStats {
            busy_ms: 10_000.0,
            idle_ms: 90_000.0,
            energy_j: 13.5 * 10.0 + 10.2 * 90.0, // base-policy accounting
            ..DiskStats::default()
        };
        let r = SimReport {
            makespan_ms: 100_000.0,
            total_io_time_ms: 0.0,
            total_response_ms: 0.0,
            timelines: None,
            per_disk: vec![d],
            idle_histograms: vec![IdleHistogram::default()],
            app_requests: 0,
            obs_run: 0,
            stream: Vec::new(),
            tiers: None,
        };
        let oracle = r.oracle_energy_j(&params);
        let expect = 13.5 * 10.0 + 2.5 * 90.0;
        assert!((oracle - expect).abs() < 1e-9);
        assert!(oracle < r.total_energy_j());
    }

    #[test]
    fn report_aggregation() {
        let d = DiskStats {
            energy_j: 10.0,
            requests: 3,
            bytes: 300,
            ..DiskStats::default()
        };
        let r = SimReport {
            makespan_ms: 100.0,
            total_io_time_ms: 50.0,
            total_response_ms: 50.0,
            timelines: None,
            per_disk: vec![d.clone(), d],
            idle_histograms: vec![IdleHistogram::default(); 2],
            app_requests: 4,
            obs_run: 0,
            stream: Vec::new(),
            tiers: None,
        };
        assert_eq!(r.total_energy_j(), 20.0);
        assert_eq!(r.total_sub_requests(), 6);
        assert_eq!(r.total_bytes(), 600);
        let base = SimReport {
            total_io_time_ms: 40.0,
            ..r.clone()
        };
        assert!((r.degradation_vs(&base) - 0.25).abs() < 1e-12);
        assert!((r.energy_saving_vs(&base) - 0.0).abs() < 1e-12);
    }
}
