#!/usr/bin/env bash
# Full offline quality gate: build, tests, formatting, lints.
#
# Everything runs with --offline: the tree has no registry dependencies by
# design (see README "Building offline"), so this must pass on a machine
# with no network access at all.

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo fmt --all --check

# Pinned lint set. `-D warnings` promotes every default clippy lint plus
# rustc warnings to errors; the extra pins deny leftover debugging and
# placeholder macros that are warn-by-default (or allow-by-default) and
# would otherwise slip through a green build. Extend the list here rather
# than in per-crate attributes so every crate is held to the same bar.
run cargo clippy --offline --workspace --all-targets -- \
    -D warnings \
    -D clippy::dbg_macro \
    -D clippy::todo \
    -D clippy::unimplemented

# Stricter bar for library code only (`--lib` excludes tests, benches and
# bins, where unwrap/expect on infallible setup is idiomatic): every
# `unsafe` block needs a SAFETY comment, and library code may not unwrap —
# fallible paths must surface typed errors or documented expects.
run cargo clippy --offline --workspace --lib -- \
    -D warnings \
    -D clippy::dbg_macro \
    -D clippy::todo \
    -D clippy::unimplemented \
    -D clippy::undocumented_unsafe_blocks \
    -D clippy::unwrap_used

# API docs must build clean: an intra-doc link to a private item, or one
# that is ambiguous (`span` is both a function and a macro), is an error.
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Static legality gate: lint every app, symbolically verify the disk-major
# plan, and exactly verify all four scheduler outputs per app. Exits
# non-zero on any Error-severity diagnostic, so an illegal schedule or a
# malformed program fails the build before any benchmark runs. The Large
# run proves legal, at the benchmark's own scale, four of the five
# schedule shapes figure9-large simulates (all but the unclustered
# 4-processor baseline). The apps are analyzed concurrently on the
# DPM_THREADS pool; each app's schedules are built and verified serially.
run ./target/release/dpm-analyze tiny results/ANALYZE_tiny.json
run ./target/release/dpm-analyze large results/ANALYZE_large.json

# Fault-injection determinism suite in release mode: same seed => bit-identical
# reports on every run, zero plan indistinguishable from no plan, no plan
# ever loses or duplicates work.
run cargo test -q --offline --release --test fault_determinism

# Serial-vs-parallel harness at 4 threads: asserts the parallel map
# reproduces the serial figure-9(a) results byte-for-byte (with the
# profiler off AND on — profiling must not perturb simulation output), as
# does the skewed-weights microbench; and attributes >=95% of the profiled
# pass's wall time to named scopes (exported to
# results/PROF_tiny.{txt,json}). Records wall times and the cost of one
# 2-item map (map_dispatch_ns).
# The speedup gate (matrix >1x AND skew >=1.5x) applies only on hosts with
# >=4 cores; below that the record reports the measured values and says
# explicitly that the gate was skipped.
run ./target/release/parallel_bench tiny BENCH_parallel.json

# Closed-form counting and cached projection-chain gate: asserts the
# closed-form counts match enumeration, requires >=10x on the counting
# microbench, and runs the figure-9(a) matrix at Scale::Small (the first
# scale past Tiny). Baseline comparison moved to bench-report below.
run ./target/release/poly_bench small BENCH_poly.json

# Chaos sweep: the figure-9(a) matrix under escalating fault rates with a
# fixed seed. Asserts serial == parallel byte-for-byte under every plan,
# re-checks all simulator invariants in release mode, and records the
# per-rate fault/energy aggregates in BENCH_chaos.json (tracked).
run ./target/release/chaos_bench tiny BENCH_chaos.json

# Streaming-pipeline gate: generation → codec spill → replay → simulate at
# Tiny and Small with a counting allocator; hard-fails unless peak heap is
# flat across a 16x request growth (O(disks + window) memory) and the
# codec stays within 16 bytes/request.
run ./target/release/stream_bench BENCH_stream.json

# Tiered-placement gate: the whole suite through flat / compiler-placed /
# heuristic / online-migrated scenarios on a starved heterogeneous array.
# Hard-fails unless the compiler-guided placement beats the flat baseline
# and never loses to the heat-blind heuristic, a single-class tier config
# replays bit-identical to the flat simulator, and migration byte
# accounting balances (2x the event log's logical bytes).
run ./target/release/tier_bench tiny BENCH_tier.json

# Prediction-soundness gate: the static energy oracle's closed-form
# bounds must contain the simulated energy of every Tiny-suite cell x
# policy, the walked iteration counts must match dpm-poly's closed
# forms, and insert_power_hints must emit directive tables that
# verify_hints accepts. Also trends bound tightness and the spin-down
# prediction hit-rate.
run ./target/release/oracle_bench tiny BENCH_oracle.json

# Bench-trend regression gate: schema-checks the six BenchRecord files
# just produced, fails on any failed gate or on metrics regressed beyond
# DPM_BENCH_TOL (default 8x) vs scripts/BENCH_*_baseline.json, and appends
# every record to results/BENCH_TREND.jsonl so the perf trajectory
# accumulates run over run. (The BenchRecord wire format itself is pinned
# by tests/golden/bench_record.json via the workspace test run above.)
run ./target/release/bench-report BENCH_parallel.json BENCH_poly.json BENCH_chaos.json BENCH_stream.json BENCH_tier.json BENCH_oracle.json

# End-to-end benchmark's own tests (a separate package, so the workspace
# run above does not reach them): Tiny composition equals the harness's
# entry points, and planted defects (a flipped digest, energy 5% off) must
# fail its correctness check.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "All checks passed."
