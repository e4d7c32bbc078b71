//! `dpm-analyze` — run the static analysis suite over the benchmark apps.
//!
//! ```text
//! dpm-analyze [tiny|small|large|paper] [OUT.json]
//! ```
//!
//! Lints every application, symbolically verifies the disk-major plan,
//! and (at tiny/small/large, where enumeration is affordable) exactly
//! verifies the four scheduler outputs per app. Prints a per-app table,
//! writes the JSON report (default `results/ANALYZE_<scale>.json`), and
//! exits non-zero iff any `Error`-severity diagnostic was found — which
//! makes it usable as a hard gate in `scripts/check.sh`.

use dpm_analyze::analyze_suite;
use dpm_apps::Scale;
use dpm_obs::Json;
use std::process::ExitCode;

fn main() -> ExitCode {
    dpm_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = dpm_apps::scale_arg(Scale::Tiny);
    // Exact enumeration is affordable below Paper scale.
    let exact = scale != Scale::Paper;
    let out_path = args.get(1).cloned().unwrap_or_else(|| {
        let name = args.first().map_or("tiny", String::as_str);
        format!("results/ANALYZE_{name}.json")
    });
    let procs = 4;

    let rep = analyze_suite(scale, procs, exact);
    print_table(&rep.json);

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("dpm-analyze: cannot create {}: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, rep.json.to_string() + "\n") {
        eprintln!("dpm-analyze: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nreport written to {out_path}");

    if rep.total_errors > 0 {
        eprintln!("dpm-analyze: {} error(s) found", rep.total_errors);
        return ExitCode::FAILURE;
    }
    println!("dpm-analyze: 0 errors");
    ExitCode::SUCCESS
}

fn count(diags: &Json, severity: &str) -> u64 {
    diags
        .as_arr()
        .map(|a| {
            a.iter()
                .filter(|d| d.get("severity").and_then(Json::as_str) == Some(severity))
                .count() as u64
        })
        .unwrap_or(0)
}

fn print_table(json: &Json) {
    let scale = json.get("scale").and_then(Json::as_str).unwrap_or("?");
    println!("static analysis over the {scale} suite");
    println!(
        "{:<10} {:>6} {:>6} {:>8} {:>10}  schedules (errors)",
        "app", "errors", "warns", "proved", "plan-viol"
    );
    let empty = Vec::new();
    for app in json.get("apps").and_then(Json::as_arr).unwrap_or(&empty) {
        let name = app.get("app").and_then(Json::as_str).unwrap_or("?");
        let lint = app.get("lint").cloned().unwrap_or(Json::Arr(vec![]));
        let sym = app.get("symbolic");
        let proved = sym
            .and_then(|s| s.get("proved"))
            .map(|p| matches!(p, Json::Bool(true)))
            .unwrap_or(false);
        let plan = sym
            .and_then(|s| s.get("plan_violations"))
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        let mut errors = count(&lint, "error");
        let mut warns = count(&lint, "warning");
        if let Some(s) = sym {
            if let Some(d) = s.get("diagnostics") {
                errors += count(d, "error");
                warns += count(d, "warning");
            }
        }
        let mut sched = String::new();
        for s in app
            .get("schedules")
            .and_then(Json::as_arr)
            .unwrap_or(&empty)
        {
            let n = s.get("name").and_then(Json::as_str).unwrap_or("?");
            let e = s.get("errors").and_then(Json::as_u64).unwrap_or(0);
            errors += e;
            if !sched.is_empty() {
                sched.push_str(", ");
            }
            sched.push_str(&format!("{n}({e})"));
        }
        println!(
            "{name:<10} {errors:>6} {warns:>6} {:>8} {plan:>10}  {sched}",
            if proved { "yes" } else { "no" }
        );
    }
}
