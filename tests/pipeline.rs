//! End-to-end integration tests: program → layout → dependence analysis →
//! transform → trace → simulation, across all crates.

use disk_reuse::prelude::*;

fn config() -> (Striping, TraceGenOptions) {
    let striping = Striping::paper_default();
    let opts = TraceGenOptions {
        max_request_bytes: striping.stripe_unit(),
        ..TraceGenOptions::default()
    };
    (striping, opts)
}

/// Runs one version end to end, returning (energy J, io-time ms).
fn run(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
    transform: Transform,
    policy: PowerPolicy,
    opts: TraceGenOptions,
) -> (f64, f64) {
    let schedule = apply_transform(program, layout, deps, transform);
    schedule.validate_coverage(program).expect("coverage");
    let gen = TraceGenerator::new(program, layout, opts);
    let (trace, _) = gen.generate(&schedule);
    let sim = Simulator::new(DiskParams::default(), policy, *layout.striping());
    let report = sim.run(&trace);
    (report.total_energy_j(), report.total_io_time_ms)
}

#[test]
fn every_app_every_transform_covers_all_iterations() {
    let (striping, _) = config();
    for app in suite(Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);
        for t in [
            Transform::Original,
            Transform::DiskReuse,
            Transform::Parallel {
                procs: 4,
                scheme: Assignment::Baseline,
                cluster: true,
            },
            Transform::Parallel {
                procs: 4,
                scheme: Assignment::LayoutAware,
                cluster: true,
            },
        ] {
            let s = apply_transform(&program, &layout, &deps, t);
            s.validate_coverage(&program)
                .unwrap_or_else(|e| panic!("{} {:?}: {e}", app.name, t));
        }
    }
}

#[test]
fn restructured_traces_move_the_same_bytes() {
    let (striping, opts) = config();
    for app in suite(Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);
        let gen = TraceGenerator::new(&program, &layout, opts);
        let (orig, so) = gen.generate(&apply_transform(
            &program,
            &layout,
            &deps,
            Transform::Original,
        ));
        let (rest, sr) = gen.generate(&apply_transform(
            &program,
            &layout,
            &deps,
            Transform::DiskReuse,
        ));
        assert_eq!(
            so.element_accesses, sr.element_accesses,
            "{}: access counts differ",
            app.name
        );
        // Reordering may change cache behaviour, so byte totals differ
        // somewhat — but not wildly.
        let ratio = rest.total_bytes() as f64 / orig.total_bytes() as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "{}: byte ratio {ratio} out of band",
            app.name
        );
    }
}

#[test]
fn clustering_never_hurts_disk_reuse_metric() {
    let (striping, _) = config();
    for app in suite(Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);
        let orig = apply_transform(&program, &layout, &deps, Transform::Original);
        let rest = apply_transform(&program, &layout, &deps, Transform::DiskReuse);
        let before = disk_reuse::core::mean_disk_run_length(&program, &layout, &orig);
        let after = disk_reuse::core::mean_disk_run_length(&program, &layout, &rest);
        assert!(
            after >= before * 0.99,
            "{}: run length regressed {before} -> {after}",
            app.name
        );
    }
}

#[test]
fn tpm_never_exceeds_base_energy_with_proactive_policy() {
    let (striping, opts) = config();
    for app in suite(Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);
        let (base, _) = run(
            &program,
            &layout,
            &deps,
            Transform::DiskReuse,
            PowerPolicy::None,
            opts,
        );
        let (tpm, _) = run(
            &program,
            &layout,
            &deps,
            Transform::DiskReuse,
            PowerPolicy::Tpm(TpmConfig::proactive()),
            opts,
        );
        // The proactive policy skips unprofitable spin-downs, so energy is
        // never (materially) worse than base.
        assert!(
            tpm <= base * 1.001,
            "{}: proactive TPM used more energy ({tpm} > {base})",
            app.name
        );
    }
}

#[test]
fn energy_ordering_matches_paper_shape_on_small_scale() {
    // At Small scale the AST phases are long enough for the qualitative
    // ordering to show: restructured + DRPM saves the most, plain TPM
    // saves nothing.
    let (striping, opts) = config();
    let app = by_name("AST", Scale::Small).unwrap();
    let program = app.program();
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);
    let (base, _) = run(
        &program,
        &layout,
        &deps,
        Transform::Original,
        PowerPolicy::None,
        opts,
    );
    let (tpm, _) = run(
        &program,
        &layout,
        &deps,
        Transform::Original,
        PowerPolicy::Tpm(TpmConfig::default()),
        opts,
    );
    let (t_drpm, _) = run(
        &program,
        &layout,
        &deps,
        Transform::DiskReuse,
        PowerPolicy::Drpm(DrpmConfig::proactive()),
        opts,
    );
    assert!(
        (tpm - base).abs() < base * 0.01,
        "plain TPM should be ~Base"
    );
    assert!(
        t_drpm < base * 0.95,
        "T-DRPM-s should save: {t_drpm} vs {base}"
    );
}

#[test]
fn trace_round_trips_through_text_format() {
    let (striping, opts) = config();
    let app = by_name("FFT", Scale::Tiny).unwrap();
    let program = app.program();
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);
    let gen = TraceGenerator::new(&program, &layout, opts);
    let (trace, _) = gen.generate(&apply_transform(
        &program,
        &layout,
        &deps,
        Transform::Original,
    ));
    let text = trace.to_text();
    let back = Trace::from_text(&text).expect("parse");
    assert_eq!(back.len(), trace.len());
    assert_eq!(back.total_bytes(), trace.total_bytes());
    // Same simulation outcome from the round-tripped trace.
    let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
    let a = sim.run(&trace);
    let b = sim.run(&back);
    assert!((a.total_energy_j() - b.total_energy_j()).abs() < 1.0);
}

#[test]
fn multi_cpu_layout_aware_localizes_disks_for_aligned_apps() {
    let (striping, _) = config();
    let app = by_name("AST", Scale::Tiny).unwrap();
    let program = app.program();
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);
    let s = apply_transform(
        &program,
        &layout,
        &deps,
        Transform::Parallel {
            procs: 4,
            scheme: Assignment::LayoutAware,
            cluster: true,
        },
    );
    s.validate_coverage(&program).unwrap();
    // Each processor's write footprint stays in its disk group in every
    // phase (AST nests are dependence-free after the first and aligned).
    let num_disks = striping.num_disks();
    for phase in 0..s.num_phases() {
        for proc in 0..4u32 {
            for it in s.iter(phase, proc) {
                let nest = &program.nests[it.nest as usize];
                let w = nest.all_refs().find(|r| r.kind.is_write()).unwrap();
                let coords = w.element_at(&it.coords());
                let d = layout.disk_of_element(&program, w.array, &coords);
                assert_eq!(
                    disk_reuse::core::disk_group_owner(d, num_disks, 4),
                    proc,
                    "phase {phase}"
                );
            }
        }
    }
}

#[test]
fn relaxed_mappings_run_end_to_end() {
    // §2's one-to-many / many-to-one mappings: the full pipeline still
    // covers every iteration, and the compiler clusters against whatever
    // layout is exposed.
    let (striping, opts) = config();
    let app = by_name("AST", Scale::Tiny).unwrap();
    let program = app.program();
    let deps = analyze(&program);
    let groups: Vec<Vec<usize>> = vec![(0..program.arrays.len()).collect()];
    for mapping in [
        disk_reuse::layout::FileMapping::shared(&program, &groups),
        disk_reuse::layout::FileMapping::split_rows(&program, 0, 2),
    ] {
        let layout = LayoutMap::with_mapping(&program, striping, &mapping);
        assert!(!layout.is_one_to_one());
        let schedule = apply_transform(&program, &layout, &deps, Transform::DiskReuse);
        schedule.validate_coverage(&program).unwrap();
        let gen = TraceGenerator::new(&program, &layout, opts);
        let (trace, _) = gen.generate(&schedule);
        assert!(!trace.is_empty());
        let sim = Simulator::new(DiskParams::default(), PowerPolicy::None, striping);
        let report = sim.run(&trace);
        assert!(report.total_energy_j() > 0.0);
        // The symbolic path correctly refuses relaxed mappings.
        assert!(matches!(
            restructure_symbolic(&program, &layout, &deps),
            Err(disk_reuse::core::SymbolicError::RelaxedMapping)
                | Err(disk_reuse::core::SymbolicError::HasDependences)
        ));
    }
}

#[test]
fn symbolic_plan_agrees_with_enumerated_iteration_set() {
    let program = parse_program(
        "program t; const N = 24;
         array X[N][N] : f64; array Y[N][N] : f64;
         nest L1 { for i = 0 .. N-1 { for j = 0 .. N-1 { X[i][j] = 1; } } }
         nest L2 { for i = 0 .. N-1 { for j = 0 .. N-1 { Y[j][i] = 2; } } }",
    )
    .unwrap();
    let striping = Striping::new(1024, 4, 0);
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);
    let plan = restructure_symbolic(&program, &layout, &deps).expect("symbolic");
    let mut count = 0u64;
    plan.execute(|d, nest, pt| {
        // Each scanned iteration's primary element must live on disk d.
        let r = program.nests[nest].all_refs().next().unwrap();
        let coords = r.element_at(pt);
        assert_eq!(layout.disk_of_element(&program, r.array, &coords), d);
        count += 1;
    });
    assert_eq!(count, program.total_iterations());
}
