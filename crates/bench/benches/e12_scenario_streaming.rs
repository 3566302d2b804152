//! E12: scenario streaming through the ingestion gate.
//!
//! Workload: multi-project scenarios — one seeded crowd driving all three
//! §2.5 schemes on one `Driver`, three projects each. Each scenario's
//! decision stream is recorded once (untimed client-side work) and pushed
//! through `IngestGate` handles, so every project lands on its owner
//! shard and concurrent scenarios interleave.
//!
//! The bench times the streamed run at 1/2/4 shards and checks what the
//! streaming port is for: the merged journal equals the serial reference
//! byte for byte at every shard count. It gates no timing — the baseline
//! it used to be compared against (whole scenarios shipped to one shard
//! as jobs) is an execution model the product no longer has, and e10
//! already gates "4 shards not slower than 1".
//!
//! `report -- scenario` records the sweep to `BENCH_scenario.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd4u_bench::{
    best_multi_project_run, multi_project_configs, multi_project_serial_reference,
    record_multi_project_trace, run_multi_project_streamed, ScenarioStreamWorkload,
};

fn bench_scenario_streaming(c: &mut Criterion) {
    let w = ScenarioStreamWorkload::default();
    let configs = multi_project_configs(&w);
    let traces: Vec<_> = configs.iter().map(record_multi_project_trace).collect();

    let mut group = c.benchmark_group("e12_scenario_streaming");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("streamed", shards),
            &shards,
            |b, &shards| b.iter(|| run_multi_project_streamed(shards, &traces)),
        );
    }
    group.finish();

    // Smoke gate (runs under any CRITERION_BUDGET_MS): the streamed
    // journal equals the serial reference at every shard count.
    let serial_ref = multi_project_serial_reference(&traces);
    let mut times = Vec::new();
    for shards in [1usize, 2, 4] {
        let (t, journal) =
            best_multi_project_run(3, || run_multi_project_streamed(shards, &traces));
        assert_eq!(
            journal, serial_ref,
            "streamed journal != serial reference at {shards} shards"
        );
        times.push(format!("{shards} shard(s) {t:.2?}"));
    }
    println!(
        "e12 smoke: {} drivers x 3 projects streamed — {}; journals byte-identical to serial",
        w.drivers,
        times.join(", ")
    );
}

criterion_group!(benches, bench_scenario_streaming);
criterion_main!(benches);
