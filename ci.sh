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
#   4. report                   — the paper harness prints every figure,
#                                  experiment and ablation without a panic
#   5. cargo test -q            — unit + property + integration + doc tests
#   6. RUNTIME_SHARDS=4 pass    — the integration suite on the parallel path
#   7. pinned-seed replays      — chaos (with the two worker-churn
#                                  regressions: a replica recovers, a project
#                                  migrates, both after 200 registrations),
#                                  the shard- and telemetry-equivalence op mix
#                                  (its worker churn installed on every replica
#                                  at 4 shards, each registration re-screening
#                                  the declarative project) and shared-crowd
#                                  proptests, the three
#                                  collaborative-path differentials (table search
#                                  vs its reference, cached vs re-screened
#                                  eligibility, memoised vs fresh affinity), the
#                                  worker↔task relation store vs a pair-set
#                                  model (its dump vs the storage snapshot) and
#                                  the three CyLog evaluator oracles
#                                  (incremental vs semi-naive vs naive on layered
#                                  programs, the cylog lib proptests, and joins
#                                  and aggregates against in-test references),
#                                  reproducible
#   8. blocking tests, 20x      — gate_backpressure, mailbox_batches and the
#                                  runtime's mid-batch / blocked-submit /
#                                  dead-shard / finish-surfaces / admission-
#                                  ladder unit tests assert on blocking with
#                                  timeouts or on a reply closing; a race that
#                                  shows one run in ten must not pass by luck
#   9. cargo doc --no-deps      — docs build with zero warnings
#
# Part 2 — one `e2e --all` document (every workload, untraced then traced,
# as BENCHMARK.json builds the benchmark), read by three gates. Two of them
# judge timings, so one noisy gate must not hide the ones behind it: every
# gate runs to completion, failures are collected, and the script exits
# non-zero at the end if any failed.
#   1. correctness              — `e2e --all`'s exit status: non-zero when any
#                                  check of any run fails, untraced or traced
#   2. telemetry budget         — per workload, telemetry may cost at most 5 %
#                                  where the run can resolve 5 %
#   3. linearity                — judge_stream's last-decile over first-decile
#                                  wave time stays at or below 1.5
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo
    echo "==> $*"
    "$@"
}

failed_gates=()
# gate <label> <command...>: run a part 2 gate without stopping on failure.
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
E2E_DOC="${CARGO_TARGET_DIR:-target}/e2e/ci.json"
WORKLOADS="mixed_shared judge_stream crowd_churn crash_recover"
# e2e_all: the one benchmark run of part 2, built as BENCHMARK.json builds
# it; prints each workload's verdict and returns the run's exit status.
e2e_all() {
    local status=0
    mkdir -p "$(dirname "$E2E_DOC")"
    cargo run --release --quiet --offline \
        --manifest-path crates/bench/src/bin/e2e/Cargo.toml -- \
        --all --seed 42 --seconds 25 >"$E2E_DOC" || status=$?
    jq -r '.workloads | to_entries[] | "\(.key): correct \(.value.correct), traced \(.value.traced_correct), failed \(.value.failed) / \(.value.attempted)"' \
        "$E2E_DOC" || status=1
    return "$status"
}
# per_layer <workload> <metric>: a traced metric's value from the document;
# fails if the document does not hold it.
per_layer() {
    jq -er --arg w "$1" --arg m "$2" '.workloads[$w].per_layer[$m].value' "$E2E_DOC"
}
# telemetry_budget <workload>: the traced run's `telemetry.overhead_pct` is
# the median of interleaved A-B-B-A pairs (telemetry on / off on the
# workload's own stream) and `telemetry.overhead_iqr_pct` their quartile
# distance. The <=5 % budget is judged only where that distance is below 5:
# over budget there fails; where it is not, the run cannot tell 5 % from
# noise and says so.
telemetry_budget() {
    local pct iqr
    pct=$(per_layer "$1" telemetry.overhead_pct) || return 1
    iqr=$(per_layer "$1" telemetry.overhead_iqr_pct) || return 1
    echo "telemetry.overhead_pct $pct %, IQR $iqr %"
    if awk -v q="$iqr" 'BEGIN { exit !(q >= 5) }'; then
        echo "undecidable on this box: IQR $iqr % is not below the 5 % budget"
    elif awk -v p="$pct" 'BEGIN { exit !(p > 5) }'; then
        echo "over the 5 % telemetry budget"
        return 1
    fi
}
# linearity <workload>: `runtime.decile_ratio` is the last decile's
# closed-loop wave time over the first's. judge_stream, the multi-project
# judge stream, is gated at 1.5: a sync or answer path whose cost grows
# with the backlog pushes it above that (before the apply path was
# flattened, one shard's cost per event grew more than 3x with 4x the
# items). The other workloads' ratios are printed, not gated.
linearity() {
    local ratio
    ratio=$(per_layer "$1" runtime.decile_ratio) || return 1
    if [ "$1" != judge_stream ]; then
        echo "runtime.decile_ratio $ratio (not gated)"
        return 0
    fi
    echo "runtime.decile_ratio $ratio (limit 1.5)"
    awk -v r="$ratio" 'BEGIN { exit !(r <= 1.5) }'
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
# The paper harness: every section of `report` (E1–E9 and the ablations)
# must run to the end; its tables are read by people, not gated.
echo
echo "==> report (every section; tables discarded)"
cargo run --release -q -p crowd4u-bench --bin report >/dev/null
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
# the same seed. The same file holds the worker-churn regressions
# (recovery and migration after 200 registrations), and its generator's
# crowd-burst op files long runs of worker installs under this seed.
step env RUNTIME_SHARDS=4 PROPTEST_SEED=1803 \
    cargo test -q -p crowd4u --test recovery_equivalence
# The sharded-vs-serial differential under a pinned seed: its op mix's
# worker churn (re-registrations and crowd bursts) reaches each of the
# four shards' mailboxes, recorded on the coordinator and installed on
# every replica, between the project events and drains it interleaves with;
# each registration re-evaluates the declarative project's eligibility rule
# on its owner. The telemetry differential draws the same ops, scraped
# mid-run.
step env RUNTIME_SHARDS=4 PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u --test shard_equivalence
step env RUNTIME_SHARDS=4 PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u --test telemetry_equivalence
# Shared-crowd replay: rerun the marketplace differential proptest (three
# scenarios, one population, chaos leg included) under a pinned seed so
# its crash schedules and generated configs reproduce byte-for-byte.
step env RUNTIME_SHARDS=4 PROPTEST_SEED=1016 \
    cargo test -q -p crowd4u --test shared_crowd
# Collaborative-path replays, same rationale (a failure reproduces
# byte-for-byte on a dev box with the same seed): the table-indexed team
# search, with its seed bound, against the id-based reference it replaced
# (uniform, quantised, tie-heavy and all-zero tables); the patched
# eligibility cache against a twin with no cache (factor screens and three
# CyLog programs: the paper's rule, a skill gate, a stratified `not`); the
# pair memo against submatrices computed from scratch; and the
# Eligible / InterestedIn / Undertakes store against a pair-set model, its
# dump against the storage snapshot text `state_dump()` carries.
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-assign --lib greedy::reference
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-core --lib platform::eligibility_diff
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-core --lib workers::memo_diff
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-core --lib relations::model_diff
# The CyLog evaluator's oracles, same rationale: the three evaluation modes
# on random layered programs and op streams (their stats pinned by the
# same file's table test), the cylog crate's own proptests (naive vs
# semi-naive vs incremental closure, parser round trip, determinism), and
# join and aggregate rules against a nested-loop join and a per-group fold
# written in the test (CyLog is the only evaluator, so the references
# live there).
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u --test cylog_incremental
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u-cylog --lib proptests
step env PROPTEST_SEED=1707 \
    cargo test -q -p crowd4u --test cross_validation
# The tests that assert a thread *is* blocked (a timeout elapsing) or *gets*
# unblocked (a reply arriving) — backpressure on a full mailbox, the credit
# return that releases it, a shard stalled, killed or panicking inside a
# batch, a flush or finish reply closing when the job carrying it is
# dropped or abandoned, a blocked admission of each scope completing once
# its mailbox state clears — twenty times over: one green run says little
# about a race.
echo
echo "==> 20x: gate_backpressure, mailbox_batches, runtime mid_batch + blocking_submit + dead_shard + finish_surfaces + admission_ladder"
for _ in $(seq 20); do
    cargo test -q -p crowd4u --test gate_backpressure --test mailbox_batches
    cargo test -q -p crowd4u-runtime --lib -- mid_batch blocking_submit dead_shard finish_surfaces admission_ladder
done
# Docs must be warning-free, not just successful.
step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# ---- Part 2: one e2e document, three gates, each run to completion ----

part2_start=$SECONDS
gate "correctness: e2e --all --seed 42 --seconds 25 (untraced and traced)" e2e_all
for workload in $WORKLOADS; do
    gate "telemetry budget: $workload (traced e2e, <=5 %)" telemetry_budget "$workload"
done
for workload in $WORKLOADS; do
    gate "linearity: $workload (runtime.decile_ratio)" linearity "$workload"
done
echo
echo "part 2: $((SECONDS - part2_start)) s"

echo
if [ ${#failed_gates[@]} -gt 0 ]; then
    echo "CI red: ${#failed_gates[@]} gate(s) failed:"
    printf '  - %s\n' "${failed_gates[@]}"
    exit 1
fi
echo "CI green."
