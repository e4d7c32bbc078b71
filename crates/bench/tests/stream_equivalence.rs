//! The one-pass pipeline == the materialized pipeline, bit for bit.
//!
//! `run_app` (one lazy generation pass per schedule shape, fed by
//! `simulate_all` to every version's simulator) must reproduce the
//! materialized pipeline it replaced, written out here as the reference
//! (batch generation → `Simulator::run` per version): same requests, same
//! schedules, same simulator reports, same trace statistics — across the
//! whole Tiny suite, at 1, 2, and 8 threads, under fault injection, and
//! with arrival jitter enabled. The driver itself must match
//! `Simulator::run_stream` per simulator over every simulator feature, and
//! the streamed multi-program merge must match `Trace::merged`. Floats are
//! compared by bit pattern, so a last-ulp divergence fails the test.

use dpm_apps::Scale;
use dpm_bench::{
    build_schedule, run_app, simulate_all, AppResults, ExperimentConfig, ScheduleShape, Version,
    VersionResult,
};
use dpm_disksim::{
    DirectiveConfig, DrpmConfig, Extents, MergedStream, MigrationConfig, PowerPolicy, RaidConfig,
    RequestStream, SimReport, Simulator, TpmConfig, Trace, TraceStream,
};
use dpm_faults::FaultPlan;
use dpm_layout::{LayoutMap, PlacementPlan, TieredVolume};
use dpm_trace::{TraceGenerator, TraceStats};
use std::fmt::Write as _;

/// The materialized pipeline `run_app` replaced: each shape's trace is
/// generated whole, then simulated once per version with
/// `Simulator::run`.
fn reference(
    app: &dpm_apps::BenchApp,
    versions: &[Version],
    procs: u32,
    config: &ExperimentConfig,
) -> AppResults {
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
    let mut traces: Vec<(ScheduleShape, (Trace, TraceStats))> = Vec::new();
    let mut results = Vec::new();
    for &v in versions {
        if !traces.iter().any(|(s, _)| *s == v.shape()) {
            let schedule = build_schedule(&program, &layout, &deps, v.shape(), procs);
            traces.push((v.shape(), gen.generate(&schedule)));
        }
        let (_, (trace, trace_stats)) = traces.iter().find(|(s, _)| *s == v.shape()).unwrap();
        let sim = Simulator::new(config.disk, v.policy(), config.striping);
        let report = sim.with_faults(config.faults).run(trace);
        let trace_stats = *trace_stats;
        results.push(VersionResult {
            version: v,
            report,
            trace_stats,
        });
    }
    AppResults {
        app: app.name,
        procs,
        results,
    }
}

/// Every report field with the per-run instrumentation id zeroed. `Debug`
/// prints floats in their shortest round-trip form, which is injective, so
/// a last-ulp divergence shows.
fn render(mut r: SimReport) -> String {
    r.obs_run = 0;
    format!("{r:?}")
}

/// Canonical rendering of a whole cell: every report and trace statistic.
fn canonical(res: &AppResults) -> String {
    let mut out = format!("app={} procs={}\n", res.app, res.procs);
    for r in &res.results {
        let report = render(r.report.clone());
        let _ = writeln!(
            out,
            "  {} {report} stats={:?}",
            r.version.label(),
            r.trace_stats
        );
    }
    out
}

/// Runs one app both ways at a given thread count and asserts identity.
fn assert_identical(
    app: &dpm_apps::BenchApp,
    versions: &[Version],
    procs: u32,
    config: &ExperimentConfig,
    threads: usize,
) {
    dpm_exec::with_env_threads(threads, || {
        let materialized = reference(app, versions, procs, config);
        let one_pass = run_app(app, versions, procs, config);
        assert_eq!(
            canonical(&materialized),
            canonical(&one_pass),
            "{} @ {procs} procs, {threads} threads: one pass diverged from materialized",
            app.name
        );
    });
}

/// The whole Tiny suite, single-processor versions, at 1/2/8 threads:
/// every schedule shape (Plain, ClusteredS) and every power policy.
#[test]
fn tiny_suite_single_cpu_identical_across_thread_counts() {
    let config = ExperimentConfig::default();
    for threads in [1, 2, 8] {
        for app in dpm_apps::suite(Scale::Tiny) {
            assert_identical(&app, &Version::single_cpu(), 1, &config, threads);
        }
    }
}

/// Multi-processor versions exercise the parallel schedule shapes
/// (Baseline and LayoutAware assignments) through the streamed generator's
/// multi-lane merge.
#[test]
fn tiny_multi_cpu_identical() {
    let config = ExperimentConfig::default();
    for app in dpm_apps::suite(Scale::Tiny).into_iter().take(2) {
        assert_identical(&app, &Version::multi_cpu(), 4, &config, 8);
    }
}

/// Fault injection is a function of each disk's own decision sequence, so
/// a chaos plan must fire identically on one-pass and materialized runs.
#[test]
fn fault_plan_runs_identical() {
    let config = ExperimentConfig {
        faults: FaultPlan::chaos(0xD15C_FA17, 0.05),
        ..ExperimentConfig::default()
    };
    for app in dpm_apps::suite(Scale::Tiny).into_iter().take(3) {
        assert_identical(&app, &Version::single_cpu(), 1, &config, 8);
    }
    // And a faulty multi-proc run through the streamed generator's
    // multi-lane merge.
    let app = dpm_apps::by_name("AST", Scale::Tiny).unwrap();
    assert_identical(&app, &Version::multi_cpu(), 4, &config, 8);
}

/// Arrival jitter makes per-processor emission times non-monotone, which
/// exercises the streamed generator's reorder heap; the merge must still
/// reproduce the batch path's order exactly.
#[test]
fn jittered_arrivals_identical() {
    let mut config = ExperimentConfig::default();
    config.trace.arrival_jitter_ms = 0.25;
    for app in dpm_apps::suite(Scale::Tiny).into_iter().take(3) {
        assert_identical(&app, &Version::single_cpu(), 1, &config, 2);
        assert_identical(&app, &Version::multi_cpu(), 4, &config, 2);
    }
}

/// One simulator per feature of the event loop: every power policy
/// (None, TPM, proactive TPM, DRPM, proactive DRPM, Directive), a chaos
/// fault plan, RAID-0 and a migrating tiered array, four with timelines.
/// The chaos run is at [`CHAOS`] and the tiered one at [`TIERED`].
fn feature_simulators(
    config: &ExperimentConfig,
    program: &dpm_ir::Program,
    layout: &LayoutMap,
) -> Vec<Simulator> {
    let tiers = dpm_bench::TierSweepConfig::default().tiers_for(layout.volume_bytes());
    let demands = dpm_analyze::array_demands(program, layout);
    let plan = PlacementPlan::round_robin(&tiers.topology(), &demands).unwrap();
    let volume = TieredVolume::new(layout, tiers.topology(), &plan);
    let sim = |policy| Simulator::new(config.disk, policy, config.striping);
    let tpm = PowerPolicy::Tpm(TpmConfig::default());
    vec![
        sim(PowerPolicy::None).with_timelines(),
        sim(tpm).with_timelines(),
        sim(PowerPolicy::Tpm(TpmConfig::proactive())),
        sim(PowerPolicy::Drpm(DrpmConfig::default())),
        sim(PowerPolicy::Drpm(DrpmConfig::proactive())).with_timelines(),
        sim(PowerPolicy::Directive(DirectiveConfig::for_params(
            &config.disk,
        ))),
        sim(tpm).with_faults(FaultPlan::chaos(0xD15C_FA17, 0.05)),
        sim(tpm).with_raid(RaidConfig::raid0(2, 8 << 10)),
        sim(tpm)
            .with_tiers(tiers, volume)
            .with_migration(MigrationConfig {
                window_requests: 64,
                ..MigrationConfig::default()
            })
            .with_timelines(),
    ]
}

/// Index of the chaos-plan run in [`feature_simulators`].
const CHAOS: usize = 6;
/// Index of the migrating tiered run in [`feature_simulators`].
const TIERED: usize = 8;

/// Asserts that the chaos plan fired and the tiered array migrated in a
/// set of [`feature_simulators`] reports, so both paths are exercised.
fn assert_features_fired(reports: &[SimReport]) {
    let migrations = reports[TIERED].tiers.as_ref().map_or(0, |t| t.events.len());
    assert!(migrations > 0, "the tiered run must migrate");
    assert!(
        reports[CHAOS].total_faults() > 0,
        "the chaos plan must fire"
    );
}

/// The driver feeds each simulator exactly what `run_stream` would: over
/// one pass of a generated trace (several driver blocks long), every
/// report, timelines, tier reports and migration events included, equals
/// a separate `run_stream` pass per simulator, bit for bit, across power
/// policies, a fault plan, RAID-0 and a migrating tiered array.
#[test]
fn driver_matches_run_stream_per_simulator() {
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("AST", Scale::Tiny).unwrap();
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let schedule = build_schedule(&program, &layout, &deps, ScheduleShape::ClusteredS, 1);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
    let sims = feature_simulators(&config, &program, &layout);
    let driven = simulate_all(&mut gen.stream(&schedule), &sims);
    assert_eq!(driven.len(), sims.len());
    assert!(
        driven[0].app_requests > 2048,
        "the trace must span several driver blocks"
    );
    assert_features_fired(&driven);
    for (k, (sim, got)) in sims.iter().zip(driven).enumerate() {
        let want = sim.run_stream(&mut gen.stream(&schedule));
        assert_eq!(
            render(want),
            render(got),
            "simulator {k}: the driver diverged from run_stream"
        );
    }
}

/// `Simulator::run` feeds a trace's slice to one run; `run_stream` pulls
/// the same requests one at a time through a `TraceStream`. Over a trace
/// several 1024-request blocks long, their reports are equal field by
/// field for every simulator feature.
#[test]
fn run_matches_run_stream_per_simulator() {
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("AST", Scale::Tiny).unwrap();
    let program = app.program();
    let layout = LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let schedule = build_schedule(&program, &layout, &deps, ScheduleShape::ClusteredM, 4);
    let gen = TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
    let (trace, _) = gen.generate(&schedule);
    assert!(
        trace.len() > 2048,
        "the trace must span several 1024-request blocks"
    );
    let sims = feature_simulators(&config, &program, &layout);
    let run: Vec<SimReport> = sims.iter().map(|sim| sim.run(&trace)).collect();
    assert_features_fired(&run);
    for (k, (sim, got)) in sims.iter().zip(run).enumerate() {
        let want = sim.run_stream(&mut TraceStream::new(&trace));
        assert_eq!(
            render(want),
            render(got),
            "simulator {k}: run diverged from run_stream"
        );
    }
}

/// The streamed shared-system merge (`MergedStream` over two generator
/// streams) reproduces `Trace::merged` of the materialized traces request
/// for request, float bits included, with and without a stagger between
/// the applications.
#[test]
fn streaming_merge_matches_materialized_merge() {
    let config = ExperimentConfig::default();
    let programs =
        ["AST", "Cholesky"].map(|n| dpm_apps::by_name(n, Scale::Tiny).unwrap().program());
    let layouts = programs
        .each_ref()
        .map(|p| LayoutMap::new(p, config.striping));
    let schedules = [0, 1].map(|k| {
        let deps = dpm_ir::analyze(&programs[k]);
        build_schedule(
            &programs[k],
            &layouts[k],
            &deps,
            ScheduleShape::ClusteredS,
            1,
        )
    });
    let gens = [0, 1].map(|k| TraceGenerator::new(&programs[k], &layouts[k], config.trace));
    let streams = || Vec::from([0, 1].map(|k| gens[k].stream(&schedules[k])));
    let traces = [0, 1].map(|k| gens[k].generate(&schedules[k]).0);
    let extents = [Extents::of(&mut gens[0].stream(&schedules[0]))];
    for stagger_ms in [0.0, 40.0] {
        let materialized = Trace::merged(&traces, stagger_ms);
        let mut merged = MergedStream::new(streams(), &extents, stagger_ms);
        let mut streamed = Vec::new();
        while let Some(r) = merged.next_request() {
            streamed.push(r);
        }
        assert_eq!(
            materialized.requests(),
            &streamed[..],
            "stagger {stagger_ms} ms: streamed merge diverged from Trace::merged"
        );
    }
}

/// The codec spill is exact: a trace written through `TraceWriter` and
/// read back through `TraceReader` replays request-for-request, including
/// float bit patterns, and simulating the replay matches simulating the
/// original trace.
#[test]
fn codec_spill_round_trips_through_simulation() {
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("FFT", Scale::Tiny).unwrap();
    let program = app.program();
    let layout = dpm_layout::LayoutMap::new(&program, config.striping);
    let deps = dpm_ir::analyze(&program);
    let gen = dpm_trace::TraceGenerator::new(&program, &layout, config.trace)
        .with_disk_params(config.disk);
    let schedule =
        dpm_bench::build_schedule(&program, &layout, &deps, dpm_bench::ScheduleShape::Plain, 1);
    let (trace, _) = gen.generate(&schedule);

    let mut writer = dpm_trace::TraceWriter::new(Vec::new());
    for r in trace.requests() {
        writer.write(r).unwrap();
    }
    let bytes = writer.finish().unwrap();
    let mut reader = dpm_trace::TraceReader::new(&bytes[..]).unwrap();
    let mut replayed = Vec::new();
    while let Some(r) = reader.next_request() {
        replayed.push(r);
    }
    assert_eq!(trace.requests(), &replayed[..], "codec replay diverged");

    let sim =
        dpm_disksim::Simulator::new(config.disk, dpm_disksim::PowerPolicy::None, config.striping);
    let mut direct = sim.run(&trace);
    let mut reader = dpm_trace::TraceReader::new(&bytes[..]).unwrap();
    let mut streamed = sim.run_stream(&mut reader);
    // The instrumentation run id is the only per-run field; everything
    // else must match bit for bit.
    direct.obs_run = 0;
    streamed.obs_run = 0;
    assert_eq!(
        format!("{direct:?}"),
        format!("{streamed:?}"),
        "simulating the codec replay diverged from the direct run"
    );
}
