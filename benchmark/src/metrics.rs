//! The metric table. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; a test keeps the two equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported with tracing off. Bounds come from the measured run-to-run
/// spread (see README.md).
pub const END_TO_END: [Metric; 3] = [
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_heap_mb", "MB", 0.10),
];

use Better::{Higher, Lower};

/// Reported by the traced run. A layer a workload bypasses reads 0.
pub const PER_LAYER: [Metric; 34] = [
    layer("ir.parse_ms", "ms", Lower),
    layer("ir.deps_ms", "ms", Lower),
    layer("layout.map_ms", "ms", Lower),
    layer("core.schedule_ms", "ms", Lower),
    layer("core.reuse_ms", "ms", Lower),
    layer("core.parallel_ms", "ms", Lower),
    layer("core.iters", "count", Lower),
    layer("core.ns_per_iter", "ns/iter", Lower),
    layer("analyze.verify_ms", "ms", Lower),
    layer("analyze.predict_ms", "ms", Lower),
    layer("analyze.errors", "count", Lower),
    layer("analyze.idle_windows", "count", Higher),
    layer("optimizer.hints_ms", "ms", Lower),
    layer("optimizer.hint_accept_ratio", "ratio", Higher),
    layer("trace.gen_ms", "ms", Lower),
    layer("trace.spill_ms", "ms", Lower),
    layer("trace.decode_ms", "ms", Lower),
    layer("trace.requests", "count", Lower),
    layer("trace.gen_ns_per_req", "ns/req", Lower),
    layer("trace.codec_bytes_per_req", "B/req", Lower),
    layer("disksim.sim_ms", "ms", Lower),
    layer("disksim.replay_ms", "ms", Lower),
    layer("disksim.ns_per_req", "ns/req", Lower),
    layer("disksim.sub_requests", "count", Lower),
    layer("disksim.faults", "count", Lower),
    layer("disksim.retries", "count", Lower),
    layer("disksim.retry_ratio", "ratio", Lower),
    layer("disksim.violations", "count", Lower),
    layer("exec.cell_ms_p50", "ms", Lower),
    layer("exec.cell_ms_max", "ms", Lower),
    layer("exec.wait_ms", "ms", Lower),
    layer("exec.idle_frac", "ratio", Lower),
    layer("bench.coverage", "ratio", Higher),
    layer("bench.trace_overhead_frac", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_obs::Json;

    fn check(listed: &Json, table: &[Metric]) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), table.len());
        for (j, m) in listed.iter().zip(table) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(
                j.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
        }
    }

    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        check(doc.get("end_to_end").expect("end_to_end"), &END_TO_END);
        check(doc.get("per_layer").expect("per_layer"), &PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
