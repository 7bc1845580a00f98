#!/usr/bin/env sh
# Pre-merge gate for this workspace (see docs/determinism.md).
#
#   ./ci.sh            # full gate: fmt, clippy, simlint, tests
#   ./ci.sh --fast     # skip clippy (useful while iterating)
#
# Every step must pass; the script stops at the first failure.

set -eu

cd "$(dirname "$0")"

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check

if [ "$fast" -eq 0 ]; then
    step cargo clippy --workspace --all-targets -- -D warnings
fi

# Determinism & robustness lints (rules 1-9: wall-clock, ambient RNG,
# unordered iteration, library panics, WAL expects, journal coverage,
# float accumulation order, shared mutability, wildcard event matches).
# The JSON report is committed alongside the bench baselines so lint
# drift shows up in review; the --check gate then fails on any finding
# not in simlint.baseline.
echo
echo "==> cargo run -q -p simlint -- --format json > SIMLINT_report.json"
cargo run -q -p simlint -- --format json > SIMLINT_report.json
step cargo run -q -p simlint -- --check

step cargo test --workspace -q

# perfbench self-test (the benchmark is a package of its own, outside the
# workspace): every workload at toy size, untraced and traced, including
# the journaled crash, resume and cold-recover path of analysis_durable.
# Building it refreshes perfbench/Cargo.lock while that file is stale.
step cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Bench gates (crates/bench/src/gate.rs). Each bench_* binary compares
# its result with the committed baseline of the same name before anything
# is written: every counter and digest exactly, the timing keys it names
# at most 1.2x worse (best of 5 runs). The result always goes to
# target/bench/<name>.json and the committed file is never written. To
# re-baseline, copy the result over the committed file and log the copy
# in CHANGES.md.

# Release-mode cluster-run smoke: fixed seed, failure-policy machinery
# included. Gates the ops-plane snapshot METRICS_cluster.json and prints
# throughput.
step cargo run -q --release -p lobster-bench --bin bench_cluster

# Render the ops dashboard straight from the committed snapshot — proves
# the HTML view needs nothing but metrics.json. The artifact is
# regenerated, not committed.
step cargo run -q --release -p lobster --bin lobster -- \
    dashboard METRICS_cluster.json --out DASHBOARD_cluster.html

# Scale-campaign sweep (2.5k -> 20k cores with fault windows) against
# BENCH_scale.json; events/sec is the timing key.
step cargo run -q --release -p lobster-bench --bin bench_scale

# Recovery bench: WAL v3 snapshot+tail vs full replay, and operating
# journal bytes per record, against BENCH_recovery.json; the resume time
# is the timing key. Also fails on more than 7.8 journal bytes per
# record, a resume over 100 ms, or a snapshot+tail resume that does not
# beat full replay.
step cargo run -q --release -p lobster-bench --bin bench_recovery

# Multi-tenant sweep (1 -> 100 masters over one shared pool) against
# BENCH_multitenant.json; events/sec is the timing key. Also fails if any
# contended point's Jain fairness drops below 0.9.
step cargo run -q --release -p lobster-bench --bin bench_multitenant

# Crash-consistency smoke: the sampled crash-point matrix (boundary,
# in-commit-window, torn-append, and mid-compaction crashes, resume,
# convergence). The full 64-point sweep stays behind --ignored; run it:
#   cargo test --release -p lobster --test crash_matrix -- --ignored
step cargo test --release -q -p lobster --test crash_matrix

# Chaos-sweep conformance: every scenarios/*.json library file plus ten
# seeded random fault schedules, each checked against the four global
# invariants (no hang, conservation, determinism, crash/resume), then
# gated against CONFORMANCE_chaos.json (every trace digest exactly).
step cargo run -q --release -p lobster-bench --bin bench_chaos

# Figure outputs: every docs/outputs/*.txt regenerates byte for byte from
# its fig*/ablation* binary into target/bench/outputs/.
figures() {
    mkdir -p target/bench/outputs
    for committed in docs/outputs/*.txt; do
        out="target/bench/outputs/$(basename "$committed")"
        cargo run -q --release -p lobster-bench --bin "$(basename "$committed" .txt)" >"$out"
        cmp "$committed" "$out"
    done
}
step figures

echo
echo "ci.sh: all gates passed"
