//! Ablation benches for four design choices:
//!
//! 1. semi-naive vs naive Datalog evaluation (recursive workload);
//! 2. dense vs sparse affinity representation (team-objective reads);
//! 3. branch-and-bound pruning on vs off;
//! 4. storage point lookups with vs without a secondary index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd4u_assign::prelude::*;
use crowd4u_bench::random_instance;
use crowd4u_crowd::affinity::{group_affinity, AffinityMatrix, SparseAffinity};
use crowd4u_crowd::profile::WorkerId;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_cylog::eval::EvalMode;
use crowd4u_sim::rng::SimRng;
use crowd4u_storage::prelude::*;

/// Ablation 1: evaluation strategy on a recursive chain (transitive
/// closure over a 150-node path + chords).
fn ablation_seminaive(c: &mut Criterion) {
    let src = "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
               path(X, Y) :- edge(X, Y).\n\
               path(X, Z) :- edge(X, Y), path(Y, Z).\n";
    let build = |mode: EvalMode| {
        let mut e = CylogEngine::from_source(src).unwrap();
        e.set_mode(mode);
        for i in 0..150i64 {
            e.add_fact("edge", vec![i.into(), (i + 1).into()]).unwrap();
            if i % 10 == 0 {
                e.add_fact("edge", vec![i.into(), (i + 5).min(150).into()])
                    .unwrap();
            }
        }
        e
    };
    let mut group = c.benchmark_group("ablation_seminaive");
    group.sample_size(10);
    for (name, mode) in [
        ("semi-naive", EvalMode::SemiNaive),
        ("naive", EvalMode::Naive),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || build(mode),
                |mut e| {
                    e.run().unwrap();
                    std::hint::black_box(e.fact_count("path").unwrap())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Ablation 2: affinity storage — team formation reads O(k²) pairs per
/// candidate team; dense triangular wins on lookup-heavy workloads.
fn ablation_affinity_repr(c: &mut Criterion) {
    let n = 300u64;
    let ids: Vec<WorkerId> = (0..n).map(WorkerId).collect();
    let mut rng = SimRng::seed_from(2);
    let mut dense = AffinityMatrix::new(ids.clone());
    let mut sparse = SparseAffinity::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let v = rng.unit();
            dense.set(WorkerId(i), WorkerId(j), v);
            sparse.set(WorkerId(i), WorkerId(j), v);
        }
    }
    let group_ids: Vec<WorkerId> = (0..20).map(WorkerId).collect();
    let mut group = c.benchmark_group("ablation_affinity_repr");
    group.bench_function("dense", |b| {
        b.iter(|| std::hint::black_box(group_affinity(&dense, &group_ids)))
    });
    group.bench_function("sparse", |b| {
        b.iter(|| std::hint::black_box(group_affinity(&sparse, &group_ids)))
    });
    group.finish();
}

/// Ablation 3: branch-and-bound pruning.
fn ablation_bb_pruning(c: &mut Criterion) {
    let constraints = TeamConstraints::sized(3, 5);
    let mut group = c.benchmark_group("ablation_bb_pruning");
    group.sample_size(10);
    for &n in &[14usize, 18] {
        let (cands, aff) = random_instance(n, 5);
        group.bench_with_input(BenchmarkId::new("pruned", n), &n, |b, _| {
            let alg = ExactBB::default();
            b.iter(|| std::hint::black_box(alg.form(&cands, &aff, &constraints)))
        });
        group.bench_with_input(BenchmarkId::new("unpruned", n), &n, |b, _| {
            let alg = ExactBB::without_pruning();
            b.iter(|| std::hint::black_box(alg.form(&cands, &aff, &constraints)))
        });
    }
    group.finish();
}

/// Ablation 4: storage point lookups, indexed vs scan.
fn ablation_storage_index(c: &mut Criterion) {
    let n = 10_000i64;
    let make = |indexed: bool| {
        let mut rel = Relation::new(
            "t",
            Schema::of(&[("k", ValueType::Int), ("v", ValueType::Int)]),
        );
        if indexed {
            rel.create_index(&["k"], false).unwrap();
        }
        for i in 0..n {
            rel.insert(tuple![i % 1000, i]).unwrap();
        }
        rel
    };
    let indexed = make(true);
    let plain = make(false);
    let mut group = c.benchmark_group("ablation_storage_index");
    group.bench_function("indexed_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7) % 1000;
            std::hint::black_box(indexed.lookup(&[0], &[Value::Int(k)]).len())
        })
    });
    group.bench_function("scan_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7) % 1000;
            std::hint::black_box(plain.lookup(&[0], &[Value::Int(k)]).len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_seminaive,
    ablation_affinity_repr,
    ablation_bb_pruning,
    ablation_storage_index
);
criterion_main!(benches);
