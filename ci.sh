#!/usr/bin/env bash
# CI gate for the crowd4u workspace. Run from the repo root.
#
# Mirrors what a hosted CI would run; every step must pass:
#   1. cargo fmt --check       — formatting is canonical
#   2. cargo clippy -D warnings — lint-clean across all targets
#   3. cargo build --release   — the whole workspace builds optimized,
#                                 and the e2e benchmark as BENCHMARK.json builds it
#   4. cargo test -q           — unit + property + integration + doc tests
#   5. bench smoke             — ingestion-throughput bench still runs
#   6. cargo doc --no-deps     — docs build with zero warnings
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings
step cargo build --release
# The end-to-end benchmark is also a package of its own (own Cargo.lock,
# path dependencies on the crates it measures), and that is how
# BENCHMARK.json builds it. Build it the same way here, so a change to a
# measured crate's public surface that breaks the standalone package fails
# CI and not the benchmark driver.
step cargo build --release --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml
step cargo test -q
# Bench smoke: run the ingestion-throughput bench on a tiny budget so a
# batching regression fails fast. The per-answer/10000 baseline runs one
# full pass by design (that slowness is the point of the comparison);
# skipping the shim's warmup keeps this step to roughly that single pass.
# The recorded reference numbers live in BENCH_ingest.json (regenerate
# with `cargo run --release -p crowd4u-bench --bin report -- ingest`).
echo
echo "==> bench smoke: e9_ingest_throughput (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e9_ingest_throughput
# Shard-scaling smoke: the bench itself asserts that one shard's cost per
# event does not grow with the number of items (<=1.5x from a quarter of
# the items to all of them) and that 4 shards are not slower than 1 on the
# mixed multi-project workload (the full-size baseline under the same two
# gates, with the core count, lives in BENCH_shard.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- shard`).
echo
echo "==> bench smoke: e10_shard_scaling (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e10_shard_scaling
# Front-door smoke: the bench itself asserts that 4 clients through cloned
# IngestGate handles out-admit the same clients funnelled through a
# single-submitter front door by >=1.5x at 4 shards (full-size baseline in
# BENCH_gate.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- gate`).
echo
echo "==> bench smoke: e11_gate_throughput (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e11_gate_throughput
# Scenario-streaming smoke: the bench itself asserts byte-identical
# journals (streamed == serial reference at 1 and 4 shards; shard-job
# slices == their decision shadows) plus the throughput floors vs the
# retired whole-driver shard-job model (full-size baseline in
# BENCH_scenario.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- scenario`).
echo
echo "==> bench smoke: e12_scenario_streaming (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e12_scenario_streaming
# Worker-scale smoke: 10^5 workers + churn through the lazy affinity
# provider and the coordinator-owned worker service. The bench itself
# gates O(1) amortised registration, the 2*top_k*n affinity-state bound,
# population-independent p99 assignment latency, worker-version lockstep
# across 4 shards, and peak RSS far below the dense-matrix footprint
# (full-size 10^6 baseline in BENCH_workers.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- workers`).
echo
echo "==> bench smoke: e13_worker_scale (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e13_worker_scale
# Telemetry-overhead smoke: the bench itself asserts that telemetry on
# and off derive identical facts, that every pipeline-stage histogram
# records, and that enabled telemetry stays within a loose 1.5x of
# disabled on this budget (the strict <=5%-enabled / ~0%-disabled gates
# run full-size in `report -- obs`; baseline in BENCH_obs.json).
echo
echo "==> bench smoke: e14_telemetry_overhead (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e14_telemetry_overhead
# Observability surface: the obs baseline renders the Prometheus text
# exposition, validates it, requires all five pipeline-stage histograms
# non-empty after the workload, and enforces the overhead gates
# (rewrites BENCH_obs.json).
echo
echo "==> report -- obs (telemetry exposition + overhead gates)"
cargo run --release -p crowd4u-bench --bin report -- obs > /dev/null
# Recovery-latency smoke: the bench itself asserts the planned kill
# fired, that the chaos run derives identical facts to the clean run, and
# a loose 2x recovery-vs-workload ratio on this budget (the strict >=10x
# gate runs full-size in `report -- recovery`; baseline in
# BENCH_recovery.json).
echo
echo "==> bench smoke: e15_recovery_latency (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e15_recovery_latency
# Shared-crowd smoke: the bench itself asserts the marketplace contract —
# the shared streamed run is byte-identical to the serial shared
# composite, the per-scenario split ledgers partition the platform total
# exactly, and the least-loaded proposal strictly beats the skill-only
# base pick on a star-skewed crowd (full-size baseline in
# BENCH_marketplace.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- marketplace`).
echo
echo "==> bench smoke: e16_marketplace (CRITERION_BUDGET_MS=50)"
CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
    cargo bench -p crowd4u-bench --bench e16_marketplace
# Shared-crowd baseline: the full 1/2/4-shard sweep with the byte-identity
# and exact-split gates plus the proposal comparison (rewrites
# BENCH_marketplace.json).
echo
echo "==> report -- marketplace (shared-crowd equivalence + split gates)"
cargo run --release -p crowd4u-bench --bin report -- marketplace > /dev/null
# Exercise the parallel path on every CI run: the integration suite again,
# with the runtime pinned to 4 shards (shard_equivalence,
# affinity_provider — the provider-parity proptest — and
# scenario_streaming pick the value up via RUNTIME_SHARDS and add it to
# their shard-count sweeps; recovery_equivalence adds 4 shards to its
# no-fault / fault+recover / fault+migrate differential sweep).
echo
echo "==> integration tests with RUNTIME_SHARDS=4"
RUNTIME_SHARDS=4 cargo test -q -p crowd4u --tests
# Deterministic chaos replay: rerun the crash-recovery differential
# proptest under a pinned seed so the exact crash schedules (FaultPlan
# kill points derived from PROPTEST_SEED) are reproduced byte-for-byte on
# every CI run — a regression here replays identically on a dev box with
# the same seed.
echo
echo "==> chaos replay: recovery_equivalence with PROPTEST_SEED=1803"
RUNTIME_SHARDS=4 PROPTEST_SEED=1803 \
    cargo test -q -p crowd4u --test recovery_equivalence
# Shared-crowd replay: rerun the marketplace differential proptest (three
# scenarios, one population, chaos leg included) under a pinned seed so
# its crash schedules and generated configs reproduce byte-for-byte.
echo
echo "==> shared-crowd replay: shared_crowd with PROPTEST_SEED=1016"
RUNTIME_SHARDS=4 PROPTEST_SEED=1016 \
    cargo test -q -p crowd4u --test shared_crowd
# Docs must be warning-free, not just successful.
echo
echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo
echo "CI green."
