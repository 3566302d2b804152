#!/usr/bin/env bash
# CI gate for the crowd4u workspace. Run from the repo root.
#
# Mirrors what a hosted CI would run, in two parts.
#
# Part 1 — correctness and docs; the first failure stops the script:
#   1. cargo fmt --check        — formatting is canonical
#   2. cargo clippy -D warnings — lint-clean across all targets
#   3. cargo build --release    — the whole workspace builds optimized,
#                                  and the e2e benchmark as BENCHMARK.json builds it
#   4. cargo test -q            — unit + property + integration + doc tests
#   5. RUNTIME_SHARDS=4 pass    — the integration suite on the parallel path
#   6. pinned-seed replays      — chaos (with the two worker-log truncation
#                                  regressions: a replica recovers, a project
#                                  migrates, both past three truncation chunks)
#                                  and shared-crowd proptests, and the three
#                                  collaborative-path differentials (table search
#                                  vs its reference, cached vs re-screened
#                                  eligibility, memoised vs fresh affinity),
#                                  reproducible
#   7. blocking tests, 20x      — gate_backpressure, mailbox_batches and the
#                                  runtime's mid-batch / blocked-submit /
#                                  dead-shard / finish-surfaces unit tests
#                                  assert on blocking with timeouts or on a
#                                  reply closing; a race that shows one run in
#                                  ten must not pass by luck
#   8. cargo doc --no-deps      — docs build with zero warnings
#
# Part 2 — bench smokes, `report --` gates and the telemetry budget. These
# assert on timings, so one noisy gate must not hide the ones behind it:
# every gate runs to completion, failures are collected, and the script
# exits non-zero at the end if any failed.
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo
    echo "==> $*"
    "$@"
}

failed_gates=()
# gate <label> <command...>: run a timing gate without stopping on failure.
gate() {
    local label="$1"
    shift
    echo
    echo "==> $label"
    if ! "$@"; then
        echo "!! gate failed: $label"
        failed_gates+=("$label")
    fi
}
bench_smoke() {
    gate "bench smoke: $1 (CRITERION_BUDGET_MS=50)" \
        env CRITERION_BUDGET_MS=50 CRITERION_SKIP_WARMUP=1 \
        cargo bench -p crowd4u-bench --bench "$1"
}
report_gate() {
    gate "report -- $1 ($2)" \
        sh -c "cargo run --release -p crowd4u-bench --bin report -- $1 > /dev/null"
}
# telemetry_budget <workload>: one traced e2e run, as BENCHMARK.json builds
# it. Its `telemetry.overhead_pct` is the median of interleaved A-B-B-A
# pairs (telemetry on / off on the workload's own stream) and
# `telemetry.overhead_iqr_pct` their quartile distance. The <=5 % budget is
# judged only where that distance is below 5: over budget there fails;
# where it is not, the run cannot tell 5 % from noise and says so.
telemetry_budget() {
    local line pct iqr
    line=$(cargo run --release --quiet --offline \
        --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
        --workload "$1" --seed 42 --seconds 25 --trace 1 | tail -n 1) || return 1
    [ "$(jq -r '.correct' <<<"$line")" = true ] || return 1
    pct=$(jq -r '.metrics["telemetry.overhead_pct"].value' <<<"$line")
    iqr=$(jq -r '.metrics["telemetry.overhead_iqr_pct"].value' <<<"$line")
    echo "telemetry.overhead_pct $pct %, IQR $iqr %"
    if awk -v q="$iqr" 'BEGIN { exit !(q >= 5) }'; then
        echo "undecidable on this box: IQR $iqr % is not below the 5 % budget"
    elif awk -v p="$pct" 'BEGIN { exit !(p > 5) }'; then
        echo "over the 5 % telemetry budget"
        return 1
    fi
}

# ---- Part 1: correctness and docs ----

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
# Exercise the parallel path on every CI run: the integration suite again,
# with the runtime pinned to 4 shards (shard_equivalence,
# affinity_provider — the provider-parity proptest — and
# scenario_streaming pick the value up via RUNTIME_SHARDS and add it to
# their shard-count sweeps; recovery_equivalence adds 4 shards to its
# no-fault / fault+recover / fault+migrate differential sweep).
step env RUNTIME_SHARDS=4 cargo test -q -p crowd4u --tests
# Deterministic chaos replay: rerun the crash-recovery differential
# proptest under a pinned seed so the exact crash schedules (FaultPlan
# kill points derived from PROPTEST_SEED) are reproduced byte-for-byte on
# every CI run — a regression here replays identically on a dev box with
# the same seed. The same file holds the worker-log truncation
# regressions (recovery and migration past TRUNCATE_CHUNK registrations),
# and its generator's crowd-burst op crosses truncation under this seed.
step env RUNTIME_SHARDS=4 PROPTEST_SEED=1803 \
    cargo test -q -p crowd4u --test recovery_equivalence
# Shared-crowd replay: rerun the marketplace differential proptest (three
# scenarios, one population, chaos leg included) under a pinned seed so
# its crash schedules and generated configs reproduce byte-for-byte.
step env RUNTIME_SHARDS=4 PROPTEST_SEED=1016 \
    cargo test -q -p crowd4u --test shared_crowd
# Collaborative-path replays, same rationale (a failure reproduces
# byte-for-byte on a dev box with the same seed): the table-indexed team
# search, with its seed bound, against the id-based reference it replaced
# (uniform, quantised, tie-heavy and all-zero tables); the patched
# eligibility cache against a twin with no cache; and the pair memo
# against submatrices computed from scratch.
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-assign --lib greedy::reference
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-core --lib platform::eligibility_diff
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-core --lib workers::memo_diff
# The tests that assert a thread *is* blocked (a timeout elapsing) or *gets*
# unblocked (a reply arriving) — backpressure on a full mailbox, the credit
# return that releases it, a shard stalled, killed or panicking inside a
# batch, a flush or finish reply closing when the job carrying it is
# dropped or abandoned — twenty times over: one green run says little
# about a race.
echo
echo "==> 20x: gate_backpressure, mailbox_batches, runtime mid_batch + blocking_submit + dead_shard + finish_surfaces"
for _ in $(seq 20); do
    cargo test -q -p crowd4u --test gate_backpressure --test mailbox_batches
    cargo test -q -p crowd4u-runtime --lib -- mid_batch blocking_submit dead_shard finish_surfaces
done
# Docs must be warning-free, not just successful.
step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# ---- Part 2: timing gates, each run to completion ----

# Bench smoke: run the ingestion-throughput bench on a tiny budget so a
# batching regression fails fast. The per-answer/10000 baseline runs one
# full pass by design (that slowness is the point of the comparison);
# skipping the shim's warmup keeps this step to roughly that single pass.
# The recorded reference numbers live in BENCH_ingest.json (regenerate
# with `cargo run --release -p crowd4u-bench --bin report -- ingest`).
bench_smoke e9_ingest_throughput
# Shard-scaling smoke: the bench itself asserts that one shard's cost per
# event does not grow with the number of items (<=1.5x from a quarter of
# the items to all of them) and that 4 shards are not slower than 1 on the
# mixed multi-project workload (the full-size baseline under the same two
# gates, with the core count, lives in BENCH_shard.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- shard`).
bench_smoke e10_shard_scaling
# Front-door smoke: the bench itself asserts that 4 clients through cloned
# IngestGate handles out-admit the same clients funnelled through a
# single-submitter front door by >=1.5x at 4 shards (full-size baseline in
# BENCH_gate.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- gate`).
bench_smoke e11_gate_throughput
# Scenario-streaming smoke: the bench itself asserts byte-identical
# journals (streamed == serial reference at 1, 2 and 4 shards); it gates
# no timing (full-size sweep, with the core count, in
# BENCH_scenario.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- scenario`).
bench_smoke e12_scenario_streaming
# Worker-scale smoke: 10^5 workers + churn through the lazy affinity
# provider and the coordinator-owned worker service. The bench itself
# gates O(1) amortised registration, the 2*top_k*n affinity-state bound,
# population-independent p99 assignment latency, worker-version lockstep
# across 4 shards (which guards the filed-delta path: each replica takes
# the whole crowd as one pull, files it in its ledger slot and installs it
# delta by delta), and peak RSS far below the dense-matrix footprint
# (full-size baseline in BENCH_workers.json, which names its population
# and core count; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- workers`).
# The first and third of those gates are also what guard
# `install_worker_delta`'s per-registration loop over projects (the
# eligibility-cache patch, ARCHITECTURE.md §13): it must cost one screen
# per project with a live cache and nothing per registered worker.
bench_smoke e13_worker_scale
# Telemetry budget, per workload: enabled telemetry (the shipped default)
# may cost at most 5 % of pipelined throughput. Decided by the traced e2e
# run's A-B-B-A quartile distance, not best-of-N; the equivalence,
# stage-coverage and exposition checks are tests (telemetry_equivalence,
# telemetry_sampling).
for workload in mixed_shared judge_stream crowd_churn crash_recover; do
    gate "telemetry budget: $workload (traced e2e, <=5 %)" telemetry_budget "$workload"
done
# Recovery-latency smoke: the bench itself asserts the planned kill
# fired, that the chaos run derives identical facts to the clean run, and
# a loose 2x recovery-vs-workload ratio on this budget (the strict >=10x
# gate runs full-size in `report -- recovery`; baseline in
# BENCH_recovery.json).
bench_smoke e15_recovery_latency
# Shared-crowd smoke: the bench itself asserts the marketplace contract —
# the shared streamed run is byte-identical to the serial shared
# composite, the per-scenario split ledgers partition the platform total
# exactly, and the least-loaded proposal strictly beats the skill-only
# base pick on a star-skewed crowd (full-size baseline in
# BENCH_marketplace.json; regenerate with
# `cargo run --release -p crowd4u-bench --bin report -- marketplace`).
bench_smoke e16_marketplace
# Shared-crowd baseline: the full 1/2/4-shard sweep with the byte-identity
# and exact-split gates plus the proposal comparison (rewrites
# BENCH_marketplace.json).
report_gate marketplace "shared-crowd equivalence + split gates"

echo
if [ ${#failed_gates[@]} -gt 0 ]; then
    echo "CI red: ${#failed_gates[@]} timing gate(s) failed:"
    printf '  - %s\n' "${failed_gates[@]}"
    exit 1
fi
echo "CI green."
