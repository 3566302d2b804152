//! E10: shard-scaling of the event-routed runtime.
//!
//! A mixed multi-project workload (answers interleaved round-robin over
//! the projects) is ingested through the `ShardedRuntime` at 1/2/4/8
//! shards in streaming mode. Shards exist for one reason: on multi-core
//! hardware their fixpoint and apply work runs in parallel. On one core
//! the curve is flat, and that is the honest result — an earlier version
//! of this bench reported a 4× "speed-up" on one core because every sync
//! rescanned the project's whole pending queue, so a shard that synced
//! its projects less often did less redundant work. Sync now costs in
//! proportion to the new demands, and what the bench gates is exactly
//! that: one shard's cost per event must not grow with the number of
//! items (linearity), and adding shards must not make the run slower.
//!
//! `ci.sh` runs this bench on a tiny budget with both gates at smoke
//! sizes; `report -- shard` records the full-size sweep and the machine's
//! core count to `BENCH_shard.json` under the same two gates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd4u_bench::{
    best_shard_run, run_shard_workload, shard_linearity, ShardWorkload, SHARD_LINEARITY_MAX,
    SHARD_NOT_SLOWER_MIN,
};

fn bench_shards(c: &mut Criterion) {
    let workload = ShardWorkload {
        projects: 8,
        items: 120,
        workers: 8,
        drain_every: 48,
    };
    let mut group = c.benchmark_group("e10_shard_scaling");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        group.throughput(criterion::Throughput::Elements(
            (workload.projects * workload.items) as u64,
        ));
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| run_shard_workload(shards, &workload))
        });
    }
    group.finish();

    // Smoke gates (run under any CRITERION_BUDGET_MS), best of three
    // direct measurements per configuration.
    let (us_small, us_full) = shard_linearity(&workload, 3);
    let (t1, events, good1) = best_shard_run(1, &workload, 3);
    let (t4, _, good4) = best_shard_run(4, &workload, 3);
    assert_eq!(good1, good4, "shard counts must derive identical facts");
    let growth = us_full / us_small;
    let speedup = t1 / t4;
    println!(
        "e10 smoke: {events} events — 1 shard {:.2} ms, 4 shards {:.2} ms ({speedup:.2}x); \
         1-shard cost per event x{growth:.2} from {} to {} items",
        t1 * 1e3,
        t4 * 1e3,
        workload.items / 4,
        workload.items
    );
    assert!(
        growth <= SHARD_LINEARITY_MAX,
        "1-shard cost per event grew {growth:.2}x with 4x the items (limit {SHARD_LINEARITY_MAX}x)"
    );
    assert!(
        speedup >= SHARD_NOT_SLOWER_MIN,
        "4 shards must not be slower than 1 (got {speedup:.2}x)"
    );
}

criterion_group!(benches, bench_shards);
criterion_main!(benches);
