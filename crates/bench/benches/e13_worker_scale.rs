//! E13: million-worker crowds — lazy sparse affinity + the
//! coordinator-owned worker service.
//!
//! Before PR 7 the platform cached a dense `AffinityMatrix` (n²/2 floats,
//! invalidated on every registration) and broadcast every worker event to
//! every shard. This bench registers 10⁵ (smoke) to 10⁶ workers with
//! re-registration churn and gates the properties that make that scale
//! feasible:
//!
//! * **O(1) amortised registration** — the last decile of registrations
//!   costs about the same per event as the first (no per-registration
//!   dense-state invalidation, no O(n) rebuild downstream);
//! * **o(n²) affinity state** — resident provider state stays ≤
//!   `2 · top_k · n` entries and the process peak RSS stays far below the
//!   dense-matrix footprint;
//! * **population-independent assignment latency** — p99 of
//!   `run_assignment` over a fixed candidate slice is flat as the
//!   population grows 25×;
//! * **coordinator-owned replication** — the same stream through the
//!   4-shard runtime (workers first: each replica files and installs the
//!   whole crowd in one pull) lands every shard on identical
//!   `(workers, version)`.
//!
//! `ci.sh` runs this bench on a tiny budget with the default 10⁵-worker
//! smoke; `report -- workers` records the full-size baseline to
//! `BENCH_workers.json`. Set `E13_WORKERS` to override the population.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd4u_bench::{
    assignment_p99, peak_rss_bytes, registration_deciles, run_worker_scale_runtime, scale_profile,
    worker_scale_project, WorkerScaleWorkload,
};

fn workload_from_env() -> WorkerScaleWorkload {
    let mut w = WorkerScaleWorkload::default();
    if let Some(n) = std::env::var("E13_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        w.workers = n;
    }
    w
}

fn bench_worker_scale(c: &mut Criterion) {
    // Criterion leg: registration throughput at two population sizes (the
    // sampled sizes are small — the smoke gates below cover the full n).
    let mut group = c.benchmark_group("e13_worker_scale");
    group.sample_size(10);
    for &n in &[5_000usize, 20_000] {
        let w = WorkerScaleWorkload {
            workers: n,
            ..WorkerScaleWorkload::default()
        };
        group.throughput(criterion::Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("register", n), &w, |b, w| {
            b.iter(|| registration_deciles(w))
        });
    }
    group.finish();

    smoke_gates(&workload_from_env());
}

/// The in-bench gates (run once under any `CRITERION_BUDGET_MS`).
fn smoke_gates(w: &WorkerScaleWorkload) {
    let n = w.workers;

    // Gate 1: O(1) amortised registration — last decile vs first decile.
    let (first, last, events, mut platform) = registration_deciles(w);
    let ratio = last.as_secs_f64() / first.as_secs_f64().max(1e-9);
    println!(
        "e13 smoke: {events} registrations ({n} workers + churn) — \
         first decile {first:.2?}, last decile {last:.2?} ({ratio:.2}x)"
    );
    assert!(
        ratio < 8.0,
        "registration is not O(1) amortised: last decile {ratio:.2}x the first"
    );

    // Gate 2: o(n²) affinity state. Probe the provider with a bounded
    // top-k cache policy and a sample of pair lookups several times the
    // population size, then bound its resident state.
    platform.workers.set_affinity_cache(0.0, w.top_k);
    let sample = (4 * n).min(200_000) as u64;
    for k in 0..sample {
        let a = 1 + k % n as u64;
        let b = 1 + (k * 7 + 13) % n as u64;
        platform.workers.pair_affinity(
            crowd4u_crowd::profile::WorkerId(a),
            crowd4u_crowd::profile::WorkerId(b),
        );
    }
    let entries = platform.workers.cached_affinity_entries();
    let dense_pairs = n * (n - 1) / 2;
    println!(
        "e13 smoke: {sample} pair probes — {entries} cached entries \
         (bound {}, dense would be {dense_pairs})",
        2 * w.top_k * n
    );
    assert!(
        entries <= 2 * w.top_k * n,
        "affinity cache exceeded its 2·top_k·n bound: {entries}"
    );
    assert!(
        entries * 50 < dense_pairs,
        "affinity state is not o(n²): {entries} entries vs {dense_pairs} dense pairs"
    );

    // Gate 3: population-independent assignment latency. Same candidate
    // slice on a 25×-smaller population; p99 must stay comparable.
    let small = WorkerScaleWorkload {
        workers: (n / 25).max(w.eligible * 2),
        ..*w
    };
    let (_, _, _, mut small_platform) = registration_deciles(&small);
    let sp = worker_scale_project(&mut small_platform);
    let p99_small = assignment_p99(&mut small_platform, sp, w.eligible, 100);
    let lp = worker_scale_project(&mut platform);
    let p99_large = assignment_p99(&mut platform, lp, w.eligible, 100);
    println!(
        "e13 smoke: p99 assignment — {} workers {p99_small:.2?}, {n} workers {p99_large:.2?}",
        small.workers
    );
    assert!(
        p99_large.as_secs_f64() < 5.0 * p99_small.as_secs_f64() + 2e-3,
        "p99 assignment latency scales with population: \
         {p99_small:.2?} → {p99_large:.2?}"
    );

    // Gate 4: the runtime leg — same stream, 4 shards, workers first (one
    // bulk pull per replica, filed in its ledger slot and installed delta
    // by delta), churn included. Every shard must land on the same
    // (workers, version), and peak RSS must stay far below the
    // dense-matrix footprint.
    let (elapsed, applied, per_shard) = run_worker_scale_runtime(4, w);
    // The version a serial register reaches: one bump per worker event
    // (registration_deciles truncates to equal deciles; the runtime does
    // not, so recompute the full stream length).
    let serial_version = (n + n * w.churn_percent / 100) as u64;
    println!(
        "e13 smoke: 4-shard runtime — {applied} applied in {elapsed:.2?}, \
         per-shard (workers, version) {per_shard:?}"
    );
    for (shard, (len, version)) in per_shard.iter().enumerate() {
        assert_eq!(*len, n, "shard {shard} worker population diverged");
        assert_eq!(
            *version, serial_version,
            "shard {shard} worker version out of lockstep"
        );
    }
    if let Some(peak) = peak_rss_bytes() {
        let dense_bytes = (n as u64) * (n as u64 - 1) / 2 * 8;
        println!(
            "e13 smoke: peak RSS {} MiB (dense matrix would be {} MiB)",
            peak >> 20,
            dense_bytes >> 20
        );
        // The 256 MiB term absorbs the process baseline so the gate stays
        // meaningful at small E13_WORKERS overrides too.
        assert!(
            peak < dense_bytes / 10 + (256 << 20),
            "peak RSS {peak} is not far below the dense-matrix footprint {dense_bytes}"
        );
    }

    // Spot-check the profile generator: the eligible slice is fluent in
    // the rare language, everyone else is not.
    assert!(
        scale_profile(1, w.eligible)
            .factors
            .fluency_in(&crowd4u_crowd::profile::Lang::new("xh"))
            >= 0.5
    );
    assert!(
        scale_profile(w.eligible as u64 + 1, w.eligible)
            .factors
            .fluency_in(&crowd4u_crowd::profile::Lang::new("xh"))
            < 0.5
    );
}

criterion_group!(benches, bench_worker_scale);
criterion_main!(benches);
