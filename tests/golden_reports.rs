//! Golden-report snapshots: the Tiny-scale `RunReport` JSON for the
//! table-2 and figure-9 experiments under the zero-fault plan, and for
//! figure 9(a) under three chaos plans, compared field-by-field against
//! checked-in files.
//!
//! These pin the *output* of the whole pipeline: any change to the
//! compiler, trace generator, simulator, or report format that shifts a
//! number shows up here as a readable per-field diff. Run-varying fields
//! (`obs_run`, `pass_timings_us`) are skipped. Floats compare with a
//! relative tolerance of 1e-9 — bit-exactness across toolchains is not
//! the contract here (the determinism suite owns that); the goldens
//! guard against *semantic* drift.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! DPM_UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```

use dpm_apps::Scale;
use dpm_bench::{run_matrix, ExperimentConfig, MatrixCell, RunReport, Version};
use dpm_faults::FaultPlan;
use dpm_obs::Json;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Mirrors the `table2` binary's report construction at Tiny scale: one
/// Base cell per application, single processor, default (zero-fault)
/// configuration.
fn build_table2() -> Json {
    let config = ExperimentConfig::default();
    let mut report = RunReport::new("table2")
        .with_config(&config)
        .with_field("scale", Json::Str("Tiny".into()));
    let cells: Vec<MatrixCell> = dpm_apps::suite(Scale::Tiny)
        .into_iter()
        .map(|app| MatrixCell {
            app,
            versions: vec![Version::Base],
            procs: 1,
        })
        .collect();
    for res in &run_matrix(cells, &config) {
        report.push_app(res);
    }
    report.to_json()
}

/// Mirrors the `figure9` binary's report construction at Tiny scale:
/// part (a) single-processor versions, part (b) four-processor versions.
fn build_figure9() -> Json {
    let config = ExperimentConfig::default();
    let mut report = RunReport::new("figure9")
        .with_config(&config)
        .with_field("scale", Json::Str("Tiny".into()));
    for (procs, versions) in [
        (1u32, Version::single_cpu().to_vec()),
        (4u32, Version::multi_cpu().to_vec()),
    ] {
        let cells: Vec<MatrixCell> = dpm_apps::suite(Scale::Tiny)
            .into_iter()
            .map(|app| MatrixCell {
                app,
                versions: versions.clone(),
                procs,
            })
            .collect();
        for res in &run_matrix(cells, &config) {
            report.push_app(res);
        }
    }
    report.to_json()
}

/// The fault path's golden: figure 9(a) at Tiny under `FaultPlan::chaos(1,
/// rate)` for three rates, one `figure9`-style report per rate. Retries and
/// requeues keep the disks' completion windows full, so this pins the
/// queue gauge at saturation, which the fault-free goldens never reach.
fn build_chaos() -> Json {
    let reports = [0.01, 0.05, 0.20]
        .into_iter()
        .map(|rate| {
            let config = ExperimentConfig {
                faults: FaultPlan::chaos(1, rate),
                ..ExperimentConfig::default()
            };
            let mut report = RunReport::new("figure9a_chaos")
                .with_config(&config)
                .with_field("scale", Json::Str("Tiny".into()))
                .with_field("chaos_rate", Json::F64(rate));
            let cells: Vec<MatrixCell> = dpm_apps::suite(Scale::Tiny)
                .into_iter()
                .map(|app| MatrixCell {
                    app,
                    versions: Version::single_cpu().to_vec(),
                    procs: 1,
                })
                .collect();
            for res in &run_matrix(cells, &config) {
                report.push_app(res);
            }
            report.to_json()
        })
        .collect();
    Json::obj(vec![
        ("title", Json::Str("chaos_tiny".into())),
        ("rates", Json::Arr(reports)),
    ])
}

/// The tier-sweep golden: every application of the Tiny suite through the
/// four placement scenarios, with per-tier energy/busy/standby/migration
/// counters and the full promote/demote sequence of the migrated run.
fn build_tier() -> Json {
    let config = dpm_bench::TierSweepConfig::default();
    let sweep = dpm_bench::run_tier_suite(Scale::Tiny, &config);
    let apps: Vec<Json> = sweep
        .iter()
        .map(|app| {
            let scenarios: Vec<Json> = app
                .results
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("scenario".to_string(), Json::Str(r.scenario.label().into())),
                        ("energy_j".to_string(), Json::F64(r.energy_j)),
                        ("app_requests".to_string(), Json::U64(r.report.app_requests)),
                    ];
                    if let Some(t) = &r.report.tiers {
                        let per_tier: Vec<Json> = t
                            .per_tier
                            .iter()
                            .map(|ts| {
                                Json::obj(vec![
                                    ("class", Json::Str(ts.class.into())),
                                    ("disks", Json::U64(ts.disks as u64)),
                                    ("energy_j", Json::F64(ts.energy_j)),
                                    ("busy_ms", Json::F64(ts.busy_ms)),
                                    ("standby_ms", Json::F64(ts.standby_ms)),
                                    ("spin_downs", Json::U64(ts.spin_downs)),
                                    ("migration_requests", Json::U64(ts.migration_requests)),
                                    ("migration_bytes", Json::U64(ts.migration_bytes)),
                                ])
                            })
                            .collect();
                        fields.push(("per_tier".to_string(), Json::Arr(per_tier)));
                        let events: Vec<Json> = t
                            .events
                            .iter()
                            .map(|e| {
                                Json::obj(vec![
                                    ("at_request", Json::U64(e.at_request)),
                                    ("array", Json::U64(e.array as u64)),
                                    ("from_tier", Json::U64(e.from_tier as u64)),
                                    ("to_tier", Json::U64(e.to_tier as u64)),
                                    ("bytes", Json::U64(e.bytes)),
                                ])
                            })
                            .collect();
                        fields.push(("migrations".to_string(), Json::Arr(events)));
                    }
                    Json::Obj(fields)
                })
                .collect();
            Json::obj(vec![
                ("app", Json::Str(app.app.into())),
                ("scenarios", Json::Arr(scenarios)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("title", Json::Str("tier_tiny".into())),
        ("apps", Json::Arr(apps)),
    ])
}

/// Keys excluded from comparison: run ids differ per process, and pass
/// timings are wall-clock measurements.
const SKIP_KEYS: [&str; 2] = ["obs_run", "pass_timings_us"];

fn as_number(j: &Json) -> Option<f64> {
    match *j {
        Json::U64(x) => Some(x as f64),
        Json::I64(x) => Some(x as f64),
        Json::F64(x) => Some(x),
        _ => None,
    }
}

/// Recursive structural diff with numeric tolerance. `path` names the
/// location (`apps[2].versions[1].energy_j`) so a failure reads directly.
fn diff(path: &str, got: &Json, want: &Json, out: &mut Vec<String>) {
    if let (Some(a), Some(b)) = (as_number(got), as_number(want)) {
        let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
        if (a - b).abs() > tol {
            out.push(format!("{path}: got {a}, golden has {b}"));
        }
        return;
    }
    match (got, want) {
        // NaN serializes as null; a fresh NaN matches a golden null.
        (Json::F64(x), Json::Null) | (Json::Null, Json::F64(x)) if x.is_nan() => {}
        (Json::Obj(g), Json::Obj(w)) => {
            for (k, gv) in g {
                if SKIP_KEYS.contains(&k.as_str()) {
                    continue;
                }
                match w.iter().find(|(wk, _)| wk == k) {
                    Some((_, wv)) => diff(&format!("{path}.{k}"), gv, wv, out),
                    None => out.push(format!("{path}.{k}: missing from golden")),
                }
            }
            for (k, _) in w {
                if !SKIP_KEYS.contains(&k.as_str()) && !g.iter().any(|(gk, _)| gk == k) {
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

fn check_golden(name: &str, fresh: &Json) {
    let path = golden_path(name);
    if std::env::var_os("DPM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fresh.to_string() + "\n").unwrap();
        eprintln!("golden_reports: regenerated {}", path.display());
        return;
    }
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n\
             (regenerate with DPM_UPDATE_GOLDEN=1 cargo test --test golden_reports)",
            path.display()
        )
    });
    let golden = Json::parse(&body).expect("golden file parses as JSON");
    let mut diffs = Vec::new();
    diff(name.trim_end_matches(".json"), fresh, &golden, &mut diffs);
    assert!(
        diffs.is_empty(),
        "{name}: fresh report diverges from golden in {} place(s):\n{}\n\
         If the change is intentional, regenerate with \
         DPM_UPDATE_GOLDEN=1 cargo test --test golden_reports",
        diffs.len(),
        diffs
            .iter()
            .map(|d| format!("  - {d}\n"))
            .collect::<String>()
    );
}

#[test]
fn table2_tiny_matches_golden() {
    check_golden("table2_tiny.json", &build_table2());
}

#[test]
fn figure9_tiny_matches_golden() {
    check_golden("figure9_tiny.json", &build_figure9());
}

#[test]
fn chaos_tiny_matches_golden() {
    check_golden("chaos_tiny.json", &build_chaos());
}

#[test]
fn tier_tiny_matches_golden() {
    check_golden("tier_tiny.json", &build_tier());
}

/// The skip-list actually skips: a report compared against itself with a
/// different `obs_run` must still match.
#[test]
fn obs_run_is_excluded_from_comparison() {
    let fresh = build_table2();
    let mut mutated = fresh.clone();
    fn bump_obs_run(j: &mut Json) {
        match j {
            Json::Obj(pairs) => {
                for (k, v) in pairs {
                    if k == "obs_run" {
                        *v = Json::U64(0xDEAD_BEEF);
                    } else {
                        bump_obs_run(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(bump_obs_run),
            _ => {}
        }
    }
    bump_obs_run(&mut mutated);
    let mut diffs = Vec::new();
    diff("self", &fresh, &mutated, &mut diffs);
    assert!(diffs.is_empty(), "obs_run leaked into the diff: {diffs:?}");
}
