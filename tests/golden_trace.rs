//! Golden trace fingerprints beyond Tiny: for every application of the
//! `Scale::Small` suite under three schedules (original order on one
//! processor, disk-reuse restructuring on one processor, layout-aware
//! clustered parallelization on four), the generated trace's request
//! count, the bit patterns of every `TraceStats` field, and an FNV-1a
//! digest over every request's `(arrival bits, offset, len, kind, proc)`.
//!
//! The generator's contract is bit-identical output, so the fresh
//! rendering must equal the checked-in file byte for byte. Each entry is
//! generated twice, by `TraceGenerator::generate` and by draining
//! `TraceGenerator::stream`, and the two must agree on the request count,
//! the stats bits and the digest, so the file pins both paths. To regenerate
//! after an intentional behavior change:
//!
//! ```text
//! DPM_UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use dpm_apps::Scale;
use dpm_bench::{build_schedule, ExperimentConfig, ScheduleShape};
use dpm_disksim::{IoRequest, RequestKind};
use dpm_layout::LayoutMap;
use dpm_obs::Json;
use dpm_trace::{RequestStream, TraceGenerator, TraceStats};
use std::path::PathBuf;

const GOLDEN: &str = "trace_small.json";

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Request count and digest of a request sequence.
fn fingerprint(requests: impl Iterator<Item = IoRequest>) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut n = 0;
    for r in requests {
        h.word(r.arrival_ms.to_bits());
        h.word(r.offset);
        h.word(r.len);
        h.word(u64::from(r.kind == RequestKind::Write));
        h.word(u64::from(r.proc_id));
        n += 1;
    }
    (n, h.0)
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:#018x}"))
}

fn stats_json(s: &TraceStats) -> Json {
    Json::obj(vec![
        ("element_accesses", hex(s.element_accesses)),
        ("cache_hits", hex(s.cache_hits)),
        ("requests", hex(s.requests)),
        ("bytes", hex(s.bytes)),
        ("compute_ms_bits", hex(s.compute_ms.to_bits())),
        ("io_block_ms_bits", hex(s.io_block_ms.to_bits())),
    ])
}

fn build() -> Json {
    let config = ExperimentConfig::default();
    let runs = [
        ("original_1p", ScheduleShape::Plain, 1u32),
        ("disk_reuse_1p", ScheduleShape::ClusteredS, 1),
        ("clustered_m_4p", ScheduleShape::ClusteredM, 4),
    ];
    let apps: Vec<Json> = dpm_apps::suite(Scale::Small)
        .into_iter()
        .map(|app| {
            let program = app.program();
            let layout = LayoutMap::new(&program, config.striping);
            let deps = dpm_ir::analyze(&program);
            let gen =
                TraceGenerator::new(&program, &layout, config.trace).with_disk_params(config.disk);
            let traces: Vec<Json> = runs
                .iter()
                .map(|&(label, shape, procs)| {
                    let schedule = build_schedule(&program, &layout, &deps, shape, procs);
                    let (trace, stats) = gen.generate(&schedule);
                    let (requests, digest) = fingerprint(trace.requests().iter().copied());
                    drop(trace);
                    let mut stream = gen.stream(&schedule);
                    let streamed = fingerprint(std::iter::from_fn(|| stream.next_request()));
                    assert_eq!(
                        streamed,
                        (requests, digest),
                        "{}/{label}: streamed (requests, digest) differ from generate's",
                        app.name
                    );
                    let stats = stats_json(&stats);
                    assert_eq!(
                        stats_json(&stream.stats()).to_string(),
                        stats.to_string(),
                        "{}/{label}: streamed stats differ from generate's",
                        app.name
                    );
                    Json::obj(vec![
                        ("schedule", Json::Str(label.into())),
                        ("requests", Json::U64(requests)),
                        ("stats", stats),
                        ("digest", hex(digest)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("app", Json::Str(app.name.into())),
                ("traces", Json::Arr(traces)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("title", Json::Str("trace_small".into())),
        ("apps", Json::Arr(apps)),
    ])
}

#[test]
fn small_suite_traces_match_golden() {
    let fresh = build().to_string() + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(GOLDEN);
    if std::env::var_os("DPM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).unwrap();
        eprintln!("golden_trace: regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\n\
             (regenerate with DPM_UPDATE_GOLDEN=1 cargo test --test golden_trace)",
            path.display()
        )
    });
    assert!(
        fresh == golden,
        "{GOLDEN}: generated traces diverge from the golden fingerprints.\n\
         fresh:  {fresh}\ngolden: {golden}\n\
         If the change is intentional, regenerate with \
         DPM_UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
}
