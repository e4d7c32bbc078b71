//! Golden snapshot of the Tiny-scale static-analysis report: the full
//! `analyze_suite` JSON — lint findings, symbolic proof outcomes, plan
//! violations, and per-schedule exact-verification results for every
//! app — compared field-by-field against a checked-in file.
//!
//! This pins the *diagnostic surface*: a new lint firing, a proof
//! regressing from `proved: true`, or a schedule growing an error shows
//! up as a readable per-field diff, same convention as
//! `golden_reports.rs`. To regenerate after an intentional change:
//!
//! ```text
//! DPM_UPDATE_GOLDEN=1 cargo test --test golden_analyze
//! ```

use disk_reuse::analyze::analyze_suite;
use disk_reuse::obs::Json;
use dpm_apps::Scale;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn build_analyze() -> Json {
    analyze_suite(Scale::Tiny, 4, true).json
}

fn as_number(j: &Json) -> Option<f64> {
    match *j {
        Json::U64(x) => Some(x as f64),
        Json::I64(x) => Some(x as f64),
        Json::F64(x) => Some(x),
        _ => None,
    }
}

/// Recursive structural diff with numeric tolerance — the same shape as
/// `golden_reports.rs`, minus its skip-list (the analyze report has no
/// run-varying fields: diagnostics are deterministic by construction).
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

fn check_golden(name: &str, fresh: &Json) {
    let path = golden_path(name);
    if std::env::var_os("DPM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fresh.to_string() + "\n").unwrap();
        eprintln!("golden_analyze: regenerated {}", path.display());
        return;
    }
    let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n\
             (regenerate with DPM_UPDATE_GOLDEN=1 cargo test --test golden_analyze)",
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
         DPM_UPDATE_GOLDEN=1 cargo test --test golden_analyze",
        diffs.len(),
        diffs
            .iter()
            .map(|d| format!("  - {d}\n"))
            .collect::<String>()
    );
}

/// `analyze_suite` maps its apps on the `DPM_THREADS` pool; the report
/// must match the golden whether they run serially or on 8 threads.
#[test]
fn analyze_tiny_matches_golden() {
    for threads in [1, 8] {
        check_golden(
            "analyze_tiny.json",
            &dpm_exec::with_env_threads(threads, build_analyze),
        );
    }
}

/// The report is bit-stable across runs in one process — a prerequisite
/// for snapshotting it at all.
#[test]
fn analyze_report_is_deterministic() {
    assert_eq!(build_analyze().to_string(), build_analyze().to_string());
}
