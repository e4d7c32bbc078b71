//! `benchmark compare A/*.json B/*.json`: reads two sets of run records
//! (written with `--out`), grouped by directory, and prints one row per
//! workload and end-to-end metric with each side's median and quartiles,
//! the share of pairs B wins, and a verdict.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;
use dpm_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs `(a[i], b[i])` in which B is better; ties count for
/// neither side.
pub fn pair_wins(a: &[f64], b: &[f64], better: Better) -> f64 {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
        .count();
    wins as f64 / pairs as f64
}

/// B against A. Regressed: B's median is worse than A's by more than
/// `bound` (a share of A's median). Improved: B wins at least 9 in 10
/// pairs and the medians differ by more than A's interquartile range.
/// Unresolved: either side spreads wider than `bound`, unless every B run
/// beats every A run. Otherwise unchanged.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let (q1, q3) = quartiles(a);
    let all_better = match better {
        Better::Lower => {
            b.iter().fold(f64::MIN, |m, &x| m.max(x)) < a.iter().fold(f64::MAX, |m, &x| m.min(x))
        }
        Better::Higher => {
            b.iter().fold(f64::MAX, |m, &x| m.min(x)) > a.iter().fold(f64::MIN, |m, &x| m.max(x))
        }
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if pair_wins(a, b, better) >= 0.9 && worse_by < 0.0 && (mb - ma).abs() > q3 - q1 {
        Verdict::Improved
    } else if (spread(a) > bound || spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

struct Run {
    workload: String,
    traced: bool,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    simulated: Vec<(String, u64)>,
}

fn load(path: &Path) -> Result<Run, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{}: no {k:?}", path.display()))
    };
    let metrics = match field("metrics")? {
        Json::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{}: metrics is not an object", path.display())),
    };
    let simulated = match doc.get("simulated") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?.to_bits())))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Run {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        traced: matches!(field("traced")?, Json::Bool(true)),
        failed: field("failed")?.as_u64().unwrap_or(u64::MAX),
        correct: matches!(field("correct")?, Json::Bool(true)),
        metrics,
        simulated,
    })
}

/// Splits the arguments into two sets: a directory stands for its `*.json`
/// files, and files are grouped by the directory they sit in.
fn two_sets(args: &[String]) -> Result<[Vec<PathBuf>; 2], String> {
    let mut groups: Vec<(PathBuf, Vec<PathBuf>)> = Vec::new();
    for arg in args {
        let path = PathBuf::from(arg);
        let (dir, files) = if path.is_dir() {
            let mut files: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            files.sort();
            (path, files)
        } else {
            (
                path.parent().unwrap_or(Path::new("")).to_path_buf(),
                vec![path],
            )
        };
        match groups.iter_mut().find(|(d, _)| *d == dir) {
            Some((_, g)) => g.extend(files),
            None => groups.push((dir, files)),
        }
    }
    match <[_; 2]>::try_from(groups) {
        Ok([(_, a), (_, b)]) => Ok([a, b]),
        Err(g) => Err(format!(
            "compare needs runs from exactly two directories, got {}",
            g.len()
        )),
    }
}

/// The untraced runs of workload `w`.
fn runs(set: &[Run], w: Workload) -> Vec<&Run> {
    set.iter()
        .filter(|r| r.workload == w.name() && !r.traced)
        .collect()
}

pub fn main(args: &[String]) -> Result<i32, String> {
    let [a, b] = two_sets(args)?;
    let load_all = |files: &[PathBuf]| files.iter().map(|f| load(f)).collect::<Result<Vec<_>, _>>();
    let (a, b) = (load_all(&a)?, load_all(&b)?);
    println!(
        "{:<14} {:<12} {:>36} {:>36} {:>6} verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B wins"
    );
    let mut bad = false;
    for w in Workload::ALL {
        let (ra, rb) = (runs(&a, w), runs(&b, w));
        if ra.is_empty() && rb.is_empty() {
            continue;
        }
        for m in END_TO_END {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                println!("{:<14} {:<12} missing on one side", w.name(), m.name);
                bad = true;
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound.unwrap_or(0.0));
            bad |= v == Verdict::Regressed;
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.5e} [{q1:.4e}, {q3:.4e}] ({})", median(v), v.len())
            };
            println!(
                "{:<14} {:<12} {:>36} {:>36} {:>6.2} {}",
                w.name(),
                m.name,
                side(&va),
                side(&vb),
                pair_wins(&va, &vb, m.better),
                v.as_str()
            );
        }
        let failed: u64 = ra.iter().chain(&rb).map(|r| r.failed).sum();
        let all_correct = ra.iter().chain(&rb).all(|r| r.correct);
        let first = ra.first().or(rb.first()).map(|r| &r.simulated);
        let identical = ra.iter().chain(&rb).all(|r| Some(&r.simulated) == first);
        println!(
            "{:<14} outputs: {} failed cell runs, simulated metrics {}",
            w.name(),
            failed,
            if identical { "bit-identical" } else { "DIFFER" }
        );
        bad |= failed > 0 || !all_correct || !identical;
    }
    Ok(i32::from(bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let same = [
            10.01, 10.0, 9.97, 10.03, 10.0, 9.99, 10.02, 10.0, 9.96, 10.04,
        ];
        assert_eq!(verdict(&a, &same, Better::Lower, 0.05), Verdict::Unchanged);
        let faster: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.05), Verdict::Improved);
        assert_eq!(pair_wins(&a, &faster, Better::Lower), 1.0);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.1).collect();
        assert_eq!(
            verdict(&a, &slower, Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &slower, Better::Higher, 0.05),
            Verdict::Improved
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 7.0, 13.0, 10.0, 9.0, 11.0];
        assert_eq!(
            verdict(&a, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }
}
