//! The trace-driven multi-disk simulator: splits application requests into
//! per-disk sub-requests according to the striping, feeds each disk's
//! stream through its [`DiskSim`], and aggregates energy and I/O-time
//! statistics.

use crate::disk::{DiskSim, SubRequest};
use crate::params::{DiskParams, MigrationConfig, PowerPolicy, RaidConfig, TierConfig};
use crate::request::{IoRequest, Trace};
use crate::stats::{MigrationEvent, SimReport, TierReport, TierStats};
use crate::stream::{RequestStream, TraceAccounting};
use dpm_faults::FaultPlan;
use dpm_layout::{MigrationMove, Striping, TieredVolume};
use dpm_obs::XorShift64Star;

/// A configured simulator: disk parameters + power policy + striping.
///
/// # Examples
///
/// ```
/// use dpm_disksim::{Simulator, Trace, IoRequest, RequestKind, PowerPolicy, DiskParams};
/// use dpm_layout::Striping;
///
/// let striping = Striping::new(32 * 1024, 4, 0);
/// let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
/// let trace = Trace::from_requests(vec![IoRequest {
///     arrival_ms: 0.0,
///     offset: 0,
///     len: 128 * 1024, // spans all four disks
///     kind: RequestKind::Read,
///     proc_id: 0,
/// }]);
/// let report = sim.run(&trace);
/// assert_eq!(report.per_disk.len(), 4);
/// assert!(report.per_disk.iter().all(|d| d.requests == 1));
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    params: DiskParams,
    policy: PowerPolicy,
    striping: Striping,
    raid: RaidConfig,
    timelines: bool,
    faults: FaultPlan,
    tiers: Option<TierSetup>,
}

/// The heterogeneous-array configuration armed by
/// [`Simulator::with_tiers`]: disk classes per tier plus the placed
/// volume, and optionally the online migration policy.
#[derive(Clone, Debug)]
struct TierSetup {
    config: TierConfig,
    volume: TieredVolume,
    migration: Option<MigrationConfig>,
}

impl Simulator {
    /// Creates a simulator over `striping.num_disks()` identical
    /// single-disk I/O nodes.
    pub fn new(params: DiskParams, policy: PowerPolicy, striping: Striping) -> Self {
        Simulator {
            params,
            policy,
            striping,
            raid: RaidConfig::single(),
            timelines: false,
            faults: FaultPlan::zero(),
            tiers: None,
        }
    }

    /// Runs over a heterogeneous tiered array instead of the flat striping:
    /// each disk takes its tier's class parameters, addressing goes through
    /// the placed [`TieredVolume`] (the flat striping is ignored for
    /// splitting), and the report carries per-tier aggregates. A
    /// single-class configuration with a whole-array file-order placement
    /// is bit-identical to the flat simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config` and `volume` disagree on geometry.
    #[must_use]
    pub fn with_tiers(mut self, config: TierConfig, volume: TieredVolume) -> Self {
        assert_eq!(
            &config.topology(),
            volume.topology(),
            "tier config and placed volume disagree on geometry"
        );
        self.tiers = Some(TierSetup {
            config,
            volume,
            migration: None,
        });
        self
    }

    /// Arms the online hot/cold migration policy (windowed per-array
    /// access counters, seeded-deterministic promote/demote at window
    /// boundaries, moved bytes charged to the energy model as real disk
    /// traffic). Decisions are taken after each application request, so
    /// the sequence is a pure function of the trace and the seed.
    ///
    /// # Panics
    ///
    /// Panics unless [`with_tiers`](Self::with_tiers) was called first.
    #[must_use]
    pub fn with_migration(mut self, cfg: MigrationConfig) -> Self {
        self.tiers
            .as_mut()
            .expect("with_migration requires with_tiers")
            .migration = Some(cfg);
        self
    }

    /// The tier configuration in effect, if any.
    pub fn tier_config(&self) -> Option<&TierConfig> {
        self.tiers.as_ref().map(|t| &t.config)
    }

    /// Disks in the simulated array (tier-aware).
    fn num_disks(&self) -> usize {
        self.tiers
            .as_ref()
            .map_or(self.striping.num_disks(), |t| t.config.num_disks())
    }

    fn make_router(&self) -> Option<TierRouter> {
        self.tiers.as_ref().map(|t| TierRouter {
            volume: t.volume.clone(),
            migration: t.migration,
            rng: XorShift64Star::new(t.migration.map_or(0, |m| m.seed)),
            counts: Vec::new(),
            seen: 0,
            processed: 0,
            events: Vec::new(),
        })
    }

    /// Arms a deterministic fault plan. The zero plan (the default) takes
    /// the fault-free fast path and is bit-identical to a simulator that
    /// never heard of faults; any other plan derives one independent
    /// decision stream per disk from `plan.seed`, so the same plan
    /// reproduces the same report on every run.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// The fault plan in effect.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Enables per-disk power-state timeline recording in the report.
    #[must_use]
    pub fn with_timelines(mut self) -> Self {
        self.timelines = true;
        self
    }

    /// Backs each I/O node with a RAID set (§2's second striping level).
    #[must_use]
    pub fn with_raid(mut self, raid: RaidConfig) -> Self {
        self.raid = raid;
        self
    }

    /// The striping in effect.
    pub fn striping(&self) -> &Striping {
        &self.striping
    }

    /// The power policy in effect.
    pub fn policy(&self) -> PowerPolicy {
        self.policy
    }

    fn make_disks(&self, obs_run: u64) -> Vec<DiskSim> {
        (0..self.num_disks())
            .map(|disk| {
                let params = self
                    .tiers
                    .as_ref()
                    .map_or(self.params, |t| *t.config.params_of_disk(disk));
                let mut d = DiskSim::with_raid(params, self.policy, self.raid);
                d.set_obs_identity(obs_run, disk);
                if self.timelines {
                    d.record_timeline();
                }
                if !self.faults.is_zero() {
                    d.set_fault_injector(self.faults.injector_for_disk(disk));
                }
                d
            })
            .collect()
    }

    /// Runs the simulation over a (time-sorted) trace: one [`SimRun`] fed
    /// the whole slice, from [`start`](Self::start) to
    /// [`SimRun::finish`], under the `simulate` span and counters
    /// [`run_stream`](Self::run_stream) records. Both feed the same event
    /// loop in the same order, so their reports are bit-identical
    /// (`tests/stream_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the trace's arrivals are not non-decreasing.
    pub fn run(&self, trace: &Trace) -> SimReport {
        self.simulate(|run| run.feed(trace.requests()))
    }

    /// Runs the simulation over any [`RequestStream`], pulling one request
    /// at a time into one [`SimRun`]. Resident memory is O(disks) no
    /// matter how long the stream is.
    ///
    /// # Panics
    ///
    /// Panics if the stream's arrivals are not non-decreasing.
    pub fn run_stream(&self, stream: &mut dyn RequestStream) -> SimReport {
        self.simulate(|run| run.serve(std::iter::from_fn(|| stream.next_request())))
    }

    /// One run from [`start`](Self::start) to [`SimRun::finish`], with
    /// `drive` feeding it, under the `simulate` span and its counters.
    fn simulate(&self, drive: impl FnOnce(&mut SimRun<'_>)) -> SimReport {
        let mut sp = dpm_obs::span!("simulate");
        let mut run = self.start();
        drive(&mut run);
        let report = run.finish();
        sp.add("run", report.obs_run);
        sp.add("app_requests", report.app_requests);
        sp.add(
            "sub_requests",
            report.per_disk.iter().map(|d| d.requests).sum(),
        );
        report
    }

    /// Starts a push-driven run: the caller [`feed`](SimRun::feed)s it
    /// requests in arrival order and [`finish`](SimRun::finish)es it into
    /// the report. Several runs can share one pass over a request source,
    /// fed a block at a time; each run's report is bit-identical to
    /// [`run_stream`](Self::run_stream) over the same requests. The run
    /// takes its `obs_run` id here.
    pub fn start(&self) -> SimRun<'_> {
        let obs_run = dpm_obs::next_run_id();
        SimRun {
            sim: self,
            obs_run,
            disks: self.make_disks(obs_run),
            router: self.make_router(),
            accounting: TraceAccounting::new(self.num_disks()),
            acc: Accum::default(),
            prev_arrival: f64::NEG_INFINITY,
            pieces: Vec::new(),
        }
    }
}

/// One simulation in progress, fed requests in arrival order (see
/// [`Simulator::start`]). It services every sub-request inline, in request
/// order, pieces in `(disk, local_byte)` order within a request. The loop
/// is serial: each disk's energy depends only on its own sub-request
/// stream, but a per-disk worker pass never measured faster (DESIGN §14).
pub struct SimRun<'s> {
    sim: &'s Simulator,
    obs_run: u64,
    disks: Vec<DiskSim>,
    router: Option<TierRouter>,
    /// Expected per-disk work, folded as requests flow past: request
    /// conservation is judged against it, as there is no trace to re-walk.
    accounting: TraceAccounting,
    acc: Accum,
    prev_arrival: f64,
    /// Scratch for one request's striping pieces `(disk, local_byte, len)`.
    pieces: Vec<(usize, u64, u64)>,
}

impl SimRun<'_> {
    /// Services application requests in arrival order: one block of a
    /// shared pass, or a single request (`std::slice::from_ref`).
    ///
    /// # Panics
    ///
    /// Panics if a request arrives before the previously fed one.
    pub fn feed(&mut self, requests: &[IoRequest]) {
        self.serve(requests.iter().copied());
    }

    /// The event loop. The run's state moves into locals for the length of
    /// the loop and back after it: kept behind `&mut self`, every call out
    /// of the loop would make the compiler reload it (measured 2–5% slower
    /// at Paper scale).
    fn serve(&mut self, requests: impl Iterator<Item = IoRequest>) {
        let striping = &self.sim.striping;
        let mut disks = std::mem::take(&mut self.disks);
        let mut router = self.router.take();
        let mut accounting = std::mem::replace(&mut self.accounting, TraceAccounting::new(0));
        let mut acc = std::mem::take(&mut self.acc);
        let mut prev_arrival = self.prev_arrival;
        let mut pieces = std::mem::take(&mut self.pieces);
        for r in requests {
            assert!(
                r.arrival_ms >= prev_arrival,
                "trace must be sorted by arrival time"
            );
            prev_arrival = r.arrival_ms;
            let mut completion = r.arrival_ms;
            let mut device_ms = 0.0_f64;
            match &router {
                Some(rt) => rt.volume.split_range_into(r.offset, r.len, &mut pieces),
                None => striping.split_range_into(r.offset, r.len, &mut pieces),
            }
            accounting.push(&r, &pieces);
            for &(disk, local_byte, len) in &pieces {
                let out = disks[disk].service(&SubRequest {
                    arrival_ms: r.arrival_ms,
                    local_byte,
                    len,
                    migration: false,
                });
                completion = completion.max(out.completion_ms);
                device_ms = device_ms.max(out.stall_ms + out.service_ms);
            }
            acc.push(r.arrival_ms, completion, device_ms);
            if let Some(rt) = &mut router {
                for (disk, sub) in rt.after_request(r.offset, r.arrival_ms) {
                    let out = disks[disk].service(&sub);
                    acc.observe(out.completion_ms);
                }
            }
        }
        self.disks = disks;
        self.router = router;
        self.accounting = accounting;
        self.acc = acc;
        self.prev_arrival = prev_arrival;
        self.pieces = pieces;
    }

    /// Closes every disk at the makespan and builds the report. Debug
    /// builds (hence every `cargo test`) verify the conservation laws
    /// here, after every run, request conservation against the accounting
    /// folded while requests flowed past; see [`crate::invariants`].
    pub fn finish(mut self) -> SimReport {
        let sim = self.sim;
        let makespan_ms = self.acc.makespan;
        for d in &mut self.disks {
            d.finish(makespan_ms);
        }
        let disks = self.disks;
        let idle_histograms = disks.iter().map(|d| d.idle_histogram().clone()).collect();
        let timelines = sim.timelines.then(|| {
            disks
                .iter()
                .map(|d| d.timeline().unwrap_or_default().to_vec())
                .collect()
        });
        let stream = disks.iter().map(|d| d.stream_metrics().clone()).collect();
        let per_disk: Vec<_> = disks.into_iter().map(|d| d.stats().clone()).collect();
        let tiers = sim.tiers.as_ref().map(|setup| {
            let cfg = &setup.config;
            let per_tier = (0..cfg.num_tiers())
                .map(|t| {
                    let lo = cfg.first_disk(t);
                    let slice = &per_disk[lo..lo + cfg.tiers()[t].disks];
                    TierStats {
                        class: cfg.tiers()[t].class.name,
                        disks: cfg.tiers()[t].disks,
                        energy_j: slice.iter().map(|d| d.energy_j).sum(),
                        busy_ms: slice.iter().map(|d| d.busy_ms).sum(),
                        standby_ms: slice.iter().map(|d| d.standby_ms).sum(),
                        spin_downs: slice.iter().map(|d| d.spin_downs).sum(),
                        migration_requests: slice.iter().map(|d| d.migration_requests).sum(),
                        migration_bytes: slice.iter().map(|d| d.migration_bytes).sum(),
                    }
                })
                .collect();
            let events = self.router.take().map(|r| r.events).unwrap_or_default();
            TierReport { per_tier, events }
        });
        let report = SimReport {
            makespan_ms,
            total_io_time_ms: self.acc.total_io_time_ms,
            total_response_ms: self.acc.total_response_ms,
            idle_histograms,
            timelines,
            stream,
            per_disk,
            app_requests: self.accounting.app_requests,
            obs_run: self.obs_run,
            tiers,
        };
        #[cfg(debug_assertions)]
        {
            use crate::invariants::{check_accounting, check_report, check_report_tiered};
            let mut v = match &sim.tiers {
                Some(setup) => check_report_tiered(&report, &setup.config, &sim.raid),
                None => check_report(&report, &sim.params, &sim.raid),
            };
            v.extend(check_accounting(&report, &self.accounting));
            assert!(
                v.is_empty(),
                "simulator invariants violated:\n{}",
                v.iter().map(|x| format!("  - {x}\n")).collect::<String>()
            );
        }
        report
    }
}

/// Run-local tier state: the (mutable) placed volume plus the online
/// migration policy. The event loop consults it after each application
/// request, so the promote/demote sequence — and with it every per-disk
/// sub-request stream — is a pure function of the trace and the seed.
struct TierRouter {
    volume: TieredVolume,
    migration: Option<MigrationConfig>,
    /// Seeded tie-break stream for equally-hot/cold candidates.
    rng: XorShift64Star,
    /// Per-array access counts in the current window (grown on demand).
    counts: Vec<u64>,
    /// Requests seen in the current window.
    seen: u64,
    /// Application requests processed so far (stamps migration events).
    processed: u64,
    events: Vec<MigrationEvent>,
}

impl TierRouter {
    /// Accounts one application request; at a window boundary, runs the
    /// promote/demote policy and returns the migration transfers as
    /// `(disk, sub-request)` in deterministic service order (each move's
    /// source-tier reads then destination-tier writes, by disk).
    fn after_request(&mut self, offset: u64, now_ms: f64) -> Vec<(usize, SubRequest)> {
        self.processed += 1;
        let Some(cfg) = self.migration else {
            return Vec::new();
        };
        if let Some(array) = self.volume.array_of_offset(offset) {
            if array >= self.counts.len() {
                self.counts.resize(array + 1, 0);
            }
            self.counts[array] += 1;
        }
        self.seen += 1;
        if self.seen < cfg.window_requests {
            return Vec::new();
        }
        self.seen = 0;
        let moves = self.window_decision(&cfg);
        let mut subs = Vec::new();
        for mv in &moves {
            self.events.push(MigrationEvent {
                at_request: self.processed,
                array: mv.array,
                from_tier: mv.from_tier,
                to_tier: mv.to_tier,
                bytes: mv.bytes,
            });
            for &(disk, len) in mv.reads.iter().chain(mv.writes.iter()) {
                subs.push((
                    disk,
                    SubRequest {
                        arrival_ms: now_ms,
                        local_byte: 0,
                        len,
                        migration: true,
                    },
                ));
            }
        }
        for c in &mut self.counts {
            *c = 0;
        }
        subs
    }

    /// One window boundary's worth of decisions: promote the hottest
    /// whole array stranded off the fast tier when its window count beats
    /// the fast tier's coldest resident by the configured margin, demoting
    /// that resident to make room when capacity demands it.
    fn window_decision(&mut self, cfg: &MigrationConfig) -> Vec<MigrationMove> {
        let nt = self.volume.topology().num_tiers();
        let mut out = Vec::new();
        if nt < 2 {
            return out;
        }
        for _ in 0..cfg.max_moves_per_window {
            let mut hot: Option<usize> = None;
            for a in 0..self.counts.len() {
                if self.counts[a] == 0 || self.volume.tier_of_array(a).is_none_or(|t| t == 0) {
                    continue;
                }
                hot = match hot {
                    None => Some(a),
                    Some(h) if self.counts[a] > self.counts[h] => Some(a),
                    Some(h) if self.counts[a] == self.counts[h] && self.rng.next_u64() & 1 == 1 => {
                        Some(a)
                    }
                    keep => keep,
                };
            }
            let Some(hot) = hot else { break };
            let hot_tier = self.volume.tier_of_array(hot).expect("hot is whole");
            let mut cold: Option<usize> = None;
            for a in 0..self.volume.num_arrays() {
                if self.volume.tier_of_array(a) != Some(0) {
                    continue;
                }
                let ca = self.counts.get(a).copied().unwrap_or(0);
                cold = match cold {
                    None => Some(a),
                    Some(c) => {
                        let cc = self.counts.get(c).copied().unwrap_or(0);
                        if ca < cc || (ca == cc && self.rng.next_u64() & 1 == 1) {
                            Some(a)
                        } else {
                            Some(c)
                        }
                    }
                };
            }
            let hot_count = self.counts[hot] as f64;
            let cold_count = cold.map_or(0, |c| self.counts.get(c).copied().unwrap_or(0)) as f64;
            if hot_count < cfg.promote_margin * cold_count.max(1.0) {
                break;
            }
            if !self.volume.fits(hot, 0) {
                let Some(cold) = cold else { break };
                if !self.volume.fits(cold, hot_tier) {
                    break;
                }
                out.push(self.volume.remap_array(cold, hot_tier));
                if !self.volume.fits(hot, 0) {
                    break;
                }
            }
            out.push(self.volume.remap_array(hot, 0));
        }
        out
    }
}

/// The per-request aggregates the event loop folds, in request order.
#[derive(Default)]
struct Accum {
    total_io_time_ms: f64,
    total_response_ms: f64,
    makespan: f64,
}

impl Accum {
    fn push(&mut self, arrival_ms: f64, completion: f64, device_ms: f64) {
        self.total_io_time_ms += device_ms;
        self.total_response_ms += completion - arrival_ms;
        self.makespan = self.makespan.max(completion);
    }

    /// Folds a background (migration) completion into the makespan without
    /// charging application I/O or response time.
    fn observe(&mut self, completion: f64) {
        self.makespan = self.makespan.max(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DrpmConfig, TpmConfig};
    use crate::request::{IoRequest, RequestKind};

    fn striping4() -> Striping {
        Striping::new(1024, 4, 0)
    }

    fn simulator(policy: PowerPolicy) -> Simulator {
        Simulator::new(DiskParams::default(), policy, striping4())
    }

    fn read(t: f64, offset: u64, len: u64) -> IoRequest {
        IoRequest {
            arrival_ms: t,
            offset,
            len,
            kind: RequestKind::Read,
            proc_id: 0,
        }
    }

    #[test]
    fn run_accounts_every_disk_until_makespan() {
        let sim = simulator(PowerPolicy::None);
        let trace = Trace::from_requests(vec![read(0.0, 0, 1024), read(50.0, 1024, 1024)]);
        let r = sim.run(&trace);
        assert_eq!(r.app_requests, 2);
        for d in &r.per_disk {
            let wall = d.busy_ms + d.idle_ms + d.standby_ms + d.transition_ms;
            assert!((wall - r.makespan_ms).abs() < 1e-6);
        }
        // Disks 2 and 3 never service anything.
        assert_eq!(r.per_disk[2].requests, 0);
        assert_eq!(r.per_disk[3].requests, 0);
    }

    #[test]
    fn io_time_counts_slowest_piece() {
        let sim = simulator(PowerPolicy::None);
        // One request spanning two disks: response = slower piece.
        let trace = Trace::from_requests(vec![read(0.0, 512, 1024)]);
        let r = sim.run(&trace);
        let svc = DiskParams::default().service_ms(512, 15_000, false);
        assert!((r.total_io_time_ms - svc).abs() < 1e-9);
        assert!((r.total_response_ms - svc).abs() < 1e-9);
    }

    #[test]
    fn base_energy_scales_with_makespan() {
        let sim = simulator(PowerPolicy::None);
        let t1 = Trace::from_requests(vec![read(0.0, 0, 1024), read(1_000.0, 0, 1024)]);
        let t2 = Trace::from_requests(vec![read(0.0, 0, 1024), read(10_000.0, 0, 1024)]);
        let r1 = sim.run(&t1);
        let r2 = sim.run(&t2);
        assert!(r2.total_energy_j() > r1.total_energy_j());
    }

    #[test]
    fn tpm_beats_base_when_idle_is_long() {
        let reqs = vec![read(0.0, 0, 1024), read(120_000.0, 0, 1024)];
        let base = simulator(PowerPolicy::None).run(&Trace::from_requests(reqs.clone()));
        let tpm =
            simulator(PowerPolicy::Tpm(TpmConfig::default())).run(&Trace::from_requests(reqs));
        assert!(tpm.total_energy_j() < base.total_energy_j());
        assert!(tpm.total_spin_downs() == 4); // every disk idles long
    }

    #[test]
    fn drpm_beats_base_on_medium_idle() {
        // 20-second gaps: below TPM's spin-down timeout, ripe for DRPM.
        let reqs: Vec<IoRequest> = (0..10)
            .map(|k| read(20_000.0 * k as f64, 0, 4096))
            .collect();
        let base = simulator(PowerPolicy::None).run(&Trace::from_requests(reqs.clone()));
        let tpm = simulator(PowerPolicy::Tpm(TpmConfig::default()))
            .run(&Trace::from_requests(reqs.clone()));
        let drpm =
            simulator(PowerPolicy::Drpm(DrpmConfig::default())).run(&Trace::from_requests(reqs));
        assert!((tpm.total_energy_j() - base.total_energy_j()).abs() < 1e-6);
        assert!(drpm.total_energy_j() < 0.8 * base.total_energy_j());
    }

    #[test]
    fn report_normalization_helpers() {
        let reqs = vec![read(0.0, 0, 1024), read(60_000.0, 0, 1024)];
        let base = simulator(PowerPolicy::None).run(&Trace::from_requests(reqs.clone()));
        let drpm =
            simulator(PowerPolicy::Drpm(DrpmConfig::default())).run(&Trace::from_requests(reqs));
        let saving = drpm.energy_saving_vs(&base);
        assert!(saving > 0.0 && saving < 1.0);
        assert!(drpm.degradation_vs(&base) >= 0.0);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;
    use crate::params::TpmConfig;
    use crate::request::{IoRequest, RequestKind};
    use crate::stats::SpanState;

    #[test]
    fn timelines_cover_the_makespan_without_overlap() {
        let striping = Striping::new(1024, 4, 0);
        let sim = Simulator::new(
            DiskParams::default(),
            PowerPolicy::Tpm(TpmConfig::default()),
            striping,
        )
        .with_timelines();
        let trace = Trace::from_requests(vec![
            IoRequest {
                arrival_ms: 0.0,
                offset: 0,
                len: 4096,
                kind: RequestKind::Read,
                proc_id: 0,
            },
            IoRequest {
                arrival_ms: 120_000.0,
                offset: 0,
                len: 4096,
                kind: RequestKind::Write,
                proc_id: 0,
            },
        ]);
        let r = sim.run(&trace);
        let timelines = r.timelines.as_ref().expect("recording enabled");
        assert_eq!(timelines.len(), 4);
        for spans in timelines {
            // Contiguous, non-overlapping, starting at 0.
            let mut cursor = 0.0;
            for s in spans {
                assert!((s.start_ms - cursor).abs() < 1e-6, "gap at {cursor}");
                assert!(s.end_ms > s.start_ms);
                cursor = s.end_ms;
            }
            // Reaches (at least) the makespan; spin-up stalls may extend
            // the accounted span past it.
            assert!(cursor >= r.makespan_ms - 1e-6);
        }
        // The long gap must show standby somewhere.
        assert!(timelines
            .iter()
            .flatten()
            .any(|s| s.state == SpanState::Standby));
    }

    #[test]
    fn timelines_absent_unless_requested() {
        let striping = Striping::new(1024, 4, 0);
        let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let trace = Trace::from_requests(vec![IoRequest {
            arrival_ms: 0.0,
            offset: 0,
            len: 4096,
            kind: RequestKind::Read,
            proc_id: 0,
        }]);
        assert!(sim.run(&trace).timelines.is_none());
    }
}

#[cfg(test)]
mod raid_tests {
    use super::*;
    use crate::params::RaidConfig;
    use crate::request::{IoRequest, RequestKind};

    fn trace() -> Trace {
        Trace::from_requests(
            (0..50)
                .map(|k| IoRequest {
                    arrival_ms: 40.0 * k as f64,
                    offset: 65536 * k as u64,
                    len: 32 * 1024,
                    kind: RequestKind::Read,
                    proc_id: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn raid0_speeds_up_large_requests() {
        let striping = Striping::new(32 * 1024, 4, 0);
        let single = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let raid = Simulator::new(DiskParams::default(), PowerPolicy::None, striping)
            .with_raid(RaidConfig::raid0(4, 8 * 1024));
        let rs = single.run(&trace());
        let rr = raid.run(&trace());
        assert!(
            rr.total_io_time_ms < rs.total_io_time_ms,
            "raid {} vs single {}",
            rr.total_io_time_ms,
            rs.total_io_time_ms
        );
    }

    #[test]
    fn raid0_scales_node_power() {
        let striping = Striping::new(32 * 1024, 4, 0);
        let single = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let raid = Simulator::new(DiskParams::default(), PowerPolicy::None, striping)
            .with_raid(RaidConfig::raid0(2, 8 * 1024));
        let rs = single.run(&trace());
        let rr = raid.run(&trace());
        let ratio = rr.total_energy_j() / rs.total_energy_j();
        assert!((1.8..2.05).contains(&ratio), "energy ratio {ratio}");
    }

    #[test]
    fn max_member_bytes_distribution() {
        let r = RaidConfig::raid0(4, 8 * 1024);
        // 32 KB = 4 chunks → 1 per member.
        assert_eq!(r.max_member_bytes(32 * 1024), 8 * 1024);
        // 40 KB = 5 chunks → one member carries 2.
        assert_eq!(r.max_member_bytes(40 * 1024), 16 * 1024);
        // Tiny request: one member does all of it.
        assert_eq!(r.max_member_bytes(100), 100);
        assert_eq!(RaidConfig::single().max_member_bytes(12345), 12345);
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;
    use crate::params::{DiskClass, TpmConfig};
    use crate::request::{IoRequest, RequestKind};
    use dpm_layout::{LayoutMap, PlacementPlan, TieredVolume};

    fn layout(striping: Striping) -> LayoutMap {
        let p = dpm_ir::parse_program(
            "program t;
             array A[64][64] : f64;
             array B[32][64] : f64;
             array C[16][64] : f64;
             nest L { for i = 0 .. 0 { A[0][0] = B[0][0] + C[0][0]; } }",
        )
        .unwrap();
        LayoutMap::new(&p, striping)
    }

    fn read(t: f64, offset: u64, len: u64) -> IoRequest {
        IoRequest {
            arrival_ms: t,
            offset,
            len,
            kind: RequestKind::Read,
            proc_id: 0,
        }
    }

    /// A single-class tier configuration with a whole-array file-order
    /// placement reproduces the flat simulator bit for bit (per-disk
    /// stats, makespan, energy), with only the tier summary added.
    #[test]
    fn single_class_tiers_match_flat_exactly() {
        let striping = Striping::new(1024, 4, 0);
        let m = layout(striping);
        let sizes: Vec<u64> = (0..3).map(|a| m.file_len(a)).collect();
        let plan = PlacementPlan::uniform(0, &sizes);
        let config = TierConfig::single_class(1024, DiskClass::performance(), 4);
        let vol = TieredVolume::new(&m, config.topology(), &plan);
        let trace = Trace::from_requests(vec![
            read(0.0, 0, 10_000),
            read(5_000.0, m.file_base(1), 4_096),
            read(120_000.0, m.file_base(2) + 1_024, 2_048),
        ]);
        let policy = PowerPolicy::Tpm(TpmConfig::default());
        let flat = Simulator::new(DiskParams::default(), policy, striping).run(&trace);
        let tiered = Simulator::new(DiskParams::default(), policy, striping)
            .with_tiers(config, vol)
            .run(&trace);
        assert!(
            tiered.tiers.is_some(),
            "tiered run must carry a tier report"
        );
        let mut a = flat.clone();
        let mut b = tiered.clone();
        a.obs_run = 0;
        b.obs_run = 0;
        b.tiers = None;
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            flat.total_energy_j().to_bits(),
            tiered.total_energy_j().to_bits()
        );
    }

    /// Online migration promotes a hot array parked on the cold tier, and
    /// the moved bytes balance (reads + writes = 2x logical).
    #[test]
    fn migration_promotes_hot_array_deterministically() {
        let striping = Striping::new(1024, 4, 0);
        let m = layout(striping);
        let sizes: Vec<u64> = (0..3).map(|a| m.file_len(a)).collect();
        // Everything starts on the cold (nearline) tier.
        let plan = PlacementPlan::uniform(1, &sizes);
        let config = TierConfig::perf_nearline(1024, 2, 2);
        let vol = TieredVolume::new(&m, config.topology(), &plan);
        // Hammer array C with closely spaced reads.
        let c_lo = m.file_base(2);
        let reqs: Vec<IoRequest> = (0..64)
            .map(|k| read(100.0 * k as f64, c_lo + 1024 * (k % 8), 1024))
            .collect();
        let trace = Trace::from_requests(reqs);
        let mig = MigrationConfig {
            window_requests: 16,
            ..MigrationConfig::default()
        };
        let report = Simulator::new(DiskParams::default(), PowerPolicy::None, striping)
            .with_tiers(config, vol)
            .with_migration(mig)
            .run(&trace);
        let tiers = report.tiers.as_ref().expect("tier report");
        assert!(!tiers.events.is_empty(), "no promotion fired");
        let first = tiers.events[0];
        assert_eq!(first.array, 2);
        assert_eq!(first.from_tier, 1);
        assert_eq!(first.to_tier, 0);
        assert_eq!(first.bytes, m.file_len(2));
        let event_bytes: u64 = tiers.events.iter().map(|e| e.bytes).sum();
        assert_eq!(report.total_migration_bytes(), 2 * event_bytes);
        assert!(report.total_migration_requests() > 0);
        // App-request conservation is untouched by migration traffic.
        assert_eq!(report.app_requests, 64);
    }
}
