//! Golden snapshot of the static energy oracle's `PredictedReport`s:
//! every Tiny-suite application under reactive TPM and each of the five
//! schedule shapes `analyze-d4` analyzes (the original single-processor
//! order, disk-reuse restructuring, and the three 4-processor
//! parallelizations), plus a synthetic long-burst program (the only
//! Tiny-sized input whose windows clear break-even) under all three
//! power policies. Any change to the bound math, the window derivation,
//! the schedule walk, or the report wire format shows up here as a
//! per-field diff.
//!
//! The soundness test checks the same reports against the simulator:
//! simulated energy inside the proven bounds, walked counts equal to the
//! closed forms, and inserted power hints accepted by the verifier.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! DPM_UPDATE_GOLDEN=1 cargo test --test oracle_golden
//! ```

use disk_reuse::optimizer::insert_power_hints;
use disk_reuse::prelude::*;
use dpm_bench::ScheduleShape;
use dpm_disksim::RaidConfig;
use dpm_obs::Json;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The schedule shapes past the original order, with the labels their
/// reports carry (the multi-processor ones take the phase-granularity
/// window path).
const SHAPES: [(ScheduleShape, u32, &str); 4] = [
    (ScheduleShape::ClusteredS, 1, "clustered-s-1p"),
    (ScheduleShape::Plain, 4, "plain-4p"),
    (ScheduleShape::ClusteredS, 4, "clustered-s-4p"),
    (ScheduleShape::ClusteredM, 4, "clustered-m-4p"),
];

fn predict(
    program: &Program,
    layout: &LayoutMap,
    options: &TraceGenOptions,
    policy: &PowerPolicy,
) -> Json {
    predict_on(
        program,
        layout,
        &original_schedule(program),
        options,
        policy,
    )
}

fn predict_on(
    program: &Program,
    layout: &LayoutMap,
    schedule: &Schedule,
    options: &TraceGenOptions,
    policy: &PowerPolicy,
) -> Json {
    predict_energy(
        program,
        layout,
        schedule,
        options,
        &DiskParams::default(),
        policy,
        &RaidConfig::single(),
    )
    .to_json()
}

/// A synthetic long-burst program: two 512-element sweeps at 30 ms per
/// element on two disks, so each disk idles far past break-even while
/// the other works.
fn burst() -> (Program, LayoutMap) {
    let program = parse_program(
        "program burst;
         array A[2048] : f64;
         nest L1 { for i = 0 .. 511 { A[i] = A[i] + 1 @ 30000000; } }
         nest L2 { for i = 1536 .. 2047 { A[i] = A[i] + 1 @ 30000000; } }",
    )
    .expect("burst fixture parses");
    let layout = LayoutMap::new(&program, Striping::new(4096, 2, 0));
    (program, layout)
}

fn build_oracle_tiny() -> Json {
    let striping = paper_striping();
    let options = TraceGenOptions {
        max_request_bytes: striping.stripe_unit(),
        ..TraceGenOptions::default()
    };
    let tpm = PowerPolicy::Tpm(TpmConfig::default());
    let mut apps = Vec::new();
    for app in suite(dpm_apps::Scale::Tiny) {
        let program = app.program();
        let layout = LayoutMap::new(&program, striping);
        let deps = analyze(&program);
        let shapes = SHAPES
            .iter()
            .map(|&(shape, procs, label)| {
                let schedule = dpm_bench::build_schedule(&program, &layout, &deps, shape, procs);
                (
                    label,
                    predict_on(&program, &layout, &schedule, &options, &tpm),
                )
            })
            .collect();
        apps.push(Json::obj(vec![
            ("app", Json::Str(app.name.into())),
            ("tpm", predict(&program, &layout, &options, &tpm)),
            ("tpm_shapes", Json::obj(shapes)),
        ]));
    }
    // The long-burst fixture: the only Tiny-sized input with provable
    // idle windows, so its report pins the window/opportunity fields.
    let (burst, burst_layout) = burst();
    let burst_options = TraceGenOptions::default();
    let params = DiskParams::default();
    let burst_reports = Json::obj(vec![
        (
            "none",
            predict(&burst, &burst_layout, &burst_options, &PowerPolicy::None),
        ),
        (
            "tpm",
            predict(
                &burst,
                &burst_layout,
                &burst_options,
                &PowerPolicy::Tpm(TpmConfig::default()),
            ),
        ),
        (
            "directive",
            predict(
                &burst,
                &burst_layout,
                &burst_options,
                &PowerPolicy::Directive(DirectiveConfig::for_params(&params)),
            ),
        ),
    ]);
    // The same bursts on two processors, one nest per phase: disk 1
    // idles through phase 0 and disk 0 through phase 1, which pins the
    // phase-granularity windows with content.
    let mut two_phase = Schedule::new(&burst, 2, 2);
    for (ni, nest) in burst.nests.iter().enumerate() {
        nest.walk(|pt| two_phase.push(ni, ni as u32, dpm_core::CompactIter::new(ni, pt)));
    }
    let burst_2p = predict_on(
        &burst,
        &burst_layout,
        &two_phase,
        &burst_options,
        &PowerPolicy::Directive(DirectiveConfig::for_params(&params)),
    );
    Json::obj(vec![
        ("title", Json::Str("oracle_tiny".into())),
        ("apps", Json::Arr(apps)),
        ("burst", burst_reports),
        ("burst_2p", burst_2p),
    ])
}

fn as_number(j: &Json) -> Option<f64> {
    match *j {
        Json::U64(x) => Some(x as f64),
        Json::I64(x) => Some(x as f64),
        Json::F64(x) => Some(x),
        _ => None,
    }
}

/// Recursive structural diff with numeric tolerance, mirroring
/// `tests/golden_reports.rs` (the oracle report has no run-varying
/// fields, so no skip-list is needed).
fn diff(path: &str, got: &Json, want: &Json, out: &mut Vec<String>) {
    if let (Some(a), Some(b)) = (as_number(got), as_number(want)) {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
        if (a - b).abs() > tol {
            out.push(format!("{path}: got {a}, golden has {b}"));
        }
        return;
    }
    match (got, want) {
        (Json::Obj(g), Json::Obj(w)) => {
            for (k, gv) in g {
                match w.iter().find(|(wk, _)| wk == k) {
                    Some((_, wv)) => diff(&format!("{path}.{k}"), gv, wv, out),
                    None => out.push(format!("{path}.{k}: missing from golden")),
                }
            }
            for (k, _) in w {
                if !g.iter().any(|(gk, _)| gk == k) {
                    out.push(format!("{path}.{k}: in golden but not in fresh report"));
                }
            }
        }
        (Json::Arr(g), Json::Arr(w)) => {
            if g.len() != w.len() {
                out.push(format!("{path}: length {} vs golden {}", g.len(), w.len()));
            }
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                diff(&format!("{path}[{i}]"), gv, wv, out);
            }
        }
        _ if got == want => {}
        _ => out.push(format!("{path}: got {got}, golden has {want}")),
    }
}

#[test]
fn oracle_tiny_matches_golden() {
    let fresh = build_oracle_tiny();
    let path = golden_path("oracle_tiny.json");
    if std::env::var_os("DPM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, fresh.to_string() + "\n").expect("write golden");
        eprintln!("oracle_golden: regenerated {}", path.display());
        return;
    }
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n\
             (regenerate with DPM_UPDATE_GOLDEN=1 cargo test --test oracle_golden)",
            path.display()
        )
    });
    let golden = Json::parse(&body).expect("golden file parses as JSON");
    let mut diffs = Vec::new();
    diff("oracle_tiny", &fresh, &golden, &mut diffs);
    assert!(
        diffs.is_empty(),
        "oracle_tiny.json: fresh report diverges from golden in {} place(s):\n{}\n\
         If the change is intentional, regenerate with \
         DPM_UPDATE_GOLDEN=1 cargo test --test oracle_golden",
        diffs.len(),
        diffs
            .iter()
            .map(|d| format!("  - {d}\n"))
            .collect::<String>()
    );
}

/// The oracle's soundness contract, checked against the simulator: for
/// every Tiny-suite application and the burst program, under four
/// scheduler outputs and three power policies, the simulated energy lies
/// inside the proven `[energy_lower_j, energy_upper_j]`, the walked
/// iteration counts match dpm-poly's closed forms, and
/// `insert_power_hints` emits a table `verify_hints` accepts.
#[test]
fn oracle_bounds_contain_simulated_energy() {
    let params = DiskParams::default();
    let raid = RaidConfig::single();
    let striping = paper_striping();
    let suite_options = TraceGenOptions {
        max_request_bytes: striping.stripe_unit(),
        ..TraceGenOptions::default()
    };
    let mut inputs: Vec<(String, Program, LayoutMap, TraceGenOptions)> = suite(Scale::Tiny)
        .into_iter()
        .map(|app| {
            let program = app.program();
            let layout = LayoutMap::new(&program, striping);
            (app.name.to_string(), program, layout, suite_options)
        })
        .collect();
    let (program, layout) = burst();
    inputs.push(("Burst".into(), program, layout, TraceGenOptions::default()));

    let mut failures = Vec::new();
    let mut checks = 0;
    let mut burst_hints = 0;
    for (name, program, layout, options) in &inputs {
        let deps = analyze(program);
        let schedules = [
            ("orig-1p", original_schedule(program)),
            ("reuse-1p", restructure_single(program, layout, &deps)),
            (
                "base-4p",
                parallelize_baseline(program, layout, &deps, 4, false),
            ),
            (
                "aware-4p",
                parallelize_layout_aware(program, layout, &deps, 4, true),
            ),
        ];
        for (variant, schedule) in &schedules {
            let cell = format!("{name}/{variant}");
            let (trace, _) = TraceGenerator::new(program, layout, *options).generate(schedule);
            for policy in [
                PowerPolicy::None,
                PowerPolicy::Tpm(TpmConfig::default()),
                PowerPolicy::Directive(DirectiveConfig::for_params(&params)),
            ] {
                let predicted =
                    predict_energy(program, layout, schedule, options, &params, &policy, &raid);
                let energy = Simulator::new(params, policy, *layout.striping())
                    .with_raid(raid)
                    .run(&trace)
                    .total_energy_j();
                checks += 1;
                if !predicted.contains(energy) {
                    failures.push(format!(
                        "{cell}/{policy}: simulated {energy:.3} J outside [{:.3}, {:.3}]",
                        predicted.energy_lower_j, predicted.energy_upper_j
                    ));
                }
                if !predicted.counts_verified {
                    failures.push(format!(
                        "{cell}/{policy}: walked counts disagree with the closed forms"
                    ));
                }
            }
            match insert_power_hints(program, layout, schedule, options, &params) {
                Ok(table) if name == "Burst" => burst_hints += table.len(),
                Ok(_) => {}
                Err(diags) => {
                    let diags: Vec<String> = diags.iter().map(ToString::to_string).collect();
                    failures.push(format!("{cell}: hints rejected: {}", diags.join("; ")));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failure(s) over {checks} cell x policy checks:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        burst_hints > 0,
        "the burst program's windows clear break-even, yet no hint was inserted"
    );
}
