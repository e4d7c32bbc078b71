//! Streamed pipeline == materialized pipeline, bit for bit.
//!
//! `run_app_streamed` (lazy generation → binary codec spill → per-version
//! replay through `Simulator::run_stream`) must reproduce `run_app`
//! (batch generation → `Simulator::run`) exactly: same requests, same
//! schedules, same simulator reports, same trace statistics — across the
//! whole Tiny suite, at 1, 2, and 8 threads, under fault injection, and
//! with arrival jitter enabled. Floats are compared by bit pattern via
//! the canonical rendering, so a last-ulp divergence fails the test.

use dpm_apps::Scale;
use dpm_bench::{run_app, run_app_streamed, AppResults, ExperimentConfig, Version};
use dpm_faults::FaultPlan;
use std::fmt::Write as _;

/// Canonical rendering with run ids and wall times excluded; floats are
/// rendered from their bit patterns (the `chaos_bench` contract).
fn canonical(res: &AppResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "app={} procs={}", res.app, res.procs);
    for r in &res.results {
        let _ = writeln!(
            out,
            "  {} requests={} makespan={:016x} io={:016x} resp={:016x} \
             energy={:016x} faults={} retries={} timeouts={} requeues={} \
             degraded={} stats={:?}",
            r.version.label(),
            r.report.app_requests,
            r.report.makespan_ms.to_bits(),
            r.report.total_io_time_ms.to_bits(),
            r.report.total_response_ms.to_bits(),
            r.report.total_energy_j().to_bits(),
            r.report.total_faults(),
            r.report.total_retries(),
            r.report.total_timeouts(),
            r.report.total_requeues(),
            r.report.degraded_disks(),
            r.trace_stats,
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
        let batch = run_app(app, versions, procs, config);
        let streamed = run_app_streamed(app, versions, procs, config);
        assert_eq!(
            canonical(&batch),
            canonical(&streamed),
            "{} @ {procs} procs, {threads} threads: streamed diverged from batch",
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
/// a chaos plan must fire identically on streamed and materialized runs.
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
/// reproduce the batch stable sort exactly.
#[test]
fn jittered_arrivals_identical() {
    let mut config = ExperimentConfig::default();
    config.trace.arrival_jitter_ms = 0.25;
    for app in dpm_apps::suite(Scale::Tiny).into_iter().take(3) {
        assert_identical(&app, &Version::single_cpu(), 1, &config, 2);
        assert_identical(&app, &Version::multi_cpu(), 4, &config, 2);
    }
}

/// The streaming shared-system merge (`SpilledTrace::merge`) reproduces
/// the materialized `Trace::merged` bit for bit: same relocations, same
/// stable-sorted arrival order, so the simulator reports are identical —
/// with and without a stagger between the applications.
#[test]
fn streaming_merge_matches_materialized_merge() {
    let config = ExperimentConfig::default();
    let mut traces = Vec::new();
    let mut spills = Vec::new();
    for name in ["AST", "Cholesky"] {
        let app = dpm_apps::by_name(name, Scale::Tiny).unwrap();
        let program = app.program();
        let layout = dpm_layout::LayoutMap::new(&program, config.striping);
        let deps = dpm_ir::analyze(&program);
        let schedule = dpm_bench::build_schedule(
            &program,
            &layout,
            &deps,
            dpm_bench::ScheduleShape::ClusteredS,
            1,
        );
        let gen = dpm_trace::TraceGenerator::new(&program, &layout, config.trace);
        traces.push(gen.generate(&schedule).0);
        spills.push(dpm_bench::SpilledTrace::spill(&gen, &schedule));
    }
    let sim =
        dpm_disksim::Simulator::new(config.disk, dpm_disksim::PowerPolicy::None, config.striping);
    for stagger_ms in [0.0, 40.0] {
        let materialized = dpm_disksim::Trace::merged(&traces, stagger_ms);
        let mut direct = sim.run(&materialized);
        let merged = dpm_bench::SpilledTrace::merge(&[&spills[0], &spills[1]], stagger_ms);
        let mut replayed = merged.replay(&sim);
        direct.obs_run = 0;
        replayed.obs_run = 0;
        assert_eq!(
            format!("{direct:?}"),
            format!("{replayed:?}"),
            "stagger {stagger_ms} ms: streamed merge diverged from Trace::merged"
        );
        // The merged spill's stats are the per-part sums.
        assert_eq!(
            merged.stats().requests,
            spills[0].stats().requests + spills[1].stats().requests
        );
        assert_eq!(
            merged.stats().bytes,
            spills[0].stats().bytes + spills[1].stats().bytes
        );
    }
}

/// The codec spill is exact: a trace written through `TraceWriter` and
/// read back through `TraceReader` replays request-for-request, including
/// float bit patterns, and simulating the replay matches simulating the
/// original trace.
#[test]
fn codec_spill_round_trips_through_simulation() {
    use dpm_trace::RequestStream;

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
