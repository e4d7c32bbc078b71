//! Micro-benchmarks for the trace generator and the disk simulator, plus
//! an instrumentation-overhead check: the same trace+sim hot path with
//! `dpm-obs` disabled (the default) and enabled with an in-memory sink.
//! The disabled figure should be indistinguishable from the baseline —
//! each instrumentation point is a single relaxed atomic load.
//!
//! Manual harness (`dpm_bench::microbench`); run with `cargo bench`.

use dpm_apps::Scale;
use dpm_bench::microbench::{bench, group};
use dpm_bench::{build_schedule, ExperimentConfig, ScheduleShape};
use dpm_core::{apply_transform, Transform};
use dpm_disksim::{DrpmConfig, FaultPlan, PowerPolicy, Simulator, TpmConfig, Trace};
use dpm_layout::LayoutMap;
use dpm_trace::TraceGenerator;

fn prepared_trace(clustered: bool) -> (ExperimentConfig, Trace) {
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("AST", Scale::Small).unwrap();
    let p = app.program();
    let layout = LayoutMap::new(&p, config.striping);
    let deps = dpm_ir::analyze(&p);
    let t = if clustered {
        Transform::DiskReuse
    } else {
        Transform::Original
    };
    let schedule = apply_transform(&p, &layout, &deps, t);
    let gen = TraceGenerator::new(&p, &layout, config.trace);
    let (trace, _) = gen.generate(&schedule);
    (config, trace)
}

fn main() {
    group("trace_generation");
    let config = ExperimentConfig::default();
    let app = dpm_apps::by_name("AST", Scale::Small).unwrap();
    let p = app.program();
    let layout = LayoutMap::new(&p, config.striping);
    let deps = dpm_ir::analyze(&p);
    let schedule = apply_transform(&p, &layout, &deps, Transform::Original);
    let gen = TraceGenerator::new(&p, &layout, config.trace);
    let requests = gen.generate(&schedule).0.len() as u64;
    let r = bench("trace_generation/ast_small", || gen.generate(&schedule));
    println!(
        "    ({:.1} ns per loop iteration, {:.1} ns per request)",
        r.ns_per_element(p.total_iterations()),
        r.ns_per_element(requests)
    );
    // Four processors: each phase walks every lane's disk footprint, and
    // the lanes merge into one trace.
    for (name, shape) in [
        ("ast_small_4p_baseline", ScheduleShape::Plain),
        ("ast_small_4p_clustered_m", ScheduleShape::ClusteredM),
    ] {
        let schedule = build_schedule(&p, &layout, &deps, shape, 4);
        let requests = gen.generate(&schedule).0.len() as u64;
        let r = bench(&format!("trace_generation/{name}"), || {
            gen.generate(&schedule)
        });
        println!(
            "    ({:.1} ns per request, {requests} requests)",
            r.ns_per_element(requests)
        );
    }

    // Per sub-request, the unit the simulator's bookkeeping works in: one
    // application request splits into one piece per disk it touches. The
    // chaos replay keeps the queue gauge's completion window full.
    group("simulate");
    let (config, trace) = prepared_trace(false);
    let tpm = PowerPolicy::Tpm(TpmConfig::default());
    for (name, policy, faults) in [
        ("base", PowerPolicy::None, FaultPlan::zero()),
        ("tpm", tpm, FaultPlan::zero()),
        (
            "drpm",
            PowerPolicy::Drpm(DrpmConfig::default()),
            FaultPlan::zero(),
        ),
        ("tpm_chaos_0.2", tpm, FaultPlan::chaos(1, 0.2)),
    ] {
        let sim = Simulator::new(config.disk, policy, config.striping).with_faults(faults);
        let sub_requests: u64 = sim.run(&trace).per_disk.iter().map(|d| d.requests).sum();
        let r = bench(&format!("simulate/{name}"), || sim.run(&trace));
        println!(
            "    ({:.1} ns per sub-request, {sub_requests} sub-requests)",
            r.ns_per_element(sub_requests)
        );
    }

    group("simulate_clustered");
    let (config, ctrace) = prepared_trace(true);
    let sim = Simulator::new(
        config.disk,
        PowerPolicy::Tpm(TpmConfig::proactive()),
        config.striping,
    );
    bench("simulate_clustered/tpm_proactive", || sim.run(&ctrace));

    group("obs_overhead (trace + simulate hot path)");
    let sim = Simulator::new(
        config.disk,
        PowerPolicy::Tpm(TpmConfig::default()),
        config.striping,
    );
    let hot = || {
        let (t, _) = gen.generate(&schedule);
        sim.run(&t)
    };
    let off = bench("obs disabled (default)", hot);
    let collector = dpm_obs::install_collector();
    dpm_obs::enable();
    let on = bench("obs enabled (memory sink)", hot);
    dpm_obs::disable();
    dpm_obs::clear_sinks();
    println!(
        "    disabled {:.3} ms vs enabled {:.3} ms per run \
         ({} events collected while enabled)",
        off.ns_per_iter / 1e6,
        on.ns_per_iter / 1e6,
        collector.len()
    );
}
