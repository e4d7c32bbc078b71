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

# The root examples are public-API walkthroughs: `cargo test` compiles
# them, this runs each one, so a runtime panic fails the gate. They run
# from a scratch directory because some write to their working directory
# (`observability` writes dpm-obs.jsonl).
run cargo build --release --offline --examples
examples_cwd=$(mktemp -d)
for src in examples/*.rs; do
    example=$(basename "$src" .rs)
    echo "==> examples/$example"
    (cd "$examples_cwd" && "$OLDPWD/target/release/examples/$example" > "$example.out")
done
rm -rf "$examples_cwd"

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

# Fault-injection determinism suite in release mode, where the
# simulator's automatic debug-build invariant check is compiled out: same
# seed => bit-identical reports, zero plan indistinguishable from no
# plan, no plan ever loses or duplicates work, and every report of the
# Tiny figure-9(a) matrix under escalating chaos plans passes an explicit
# invariant check.
run cargo test -q --offline --release --test fault_determinism

# End-to-end benchmark's own tests (a separate package, so the workspace
# run above does not reach them): Tiny composition equals the harness's
# entry points, and planted defects (a flipped digest, energy 5% off) must
# fail its correctness check.
run cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "All checks passed."
