//! E4 (paper Figure 4): worker human factors — profile updates, affinity
//! matrix rebuilds, and system-side skill estimation from task history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd4u_core::workers::WorkerManager;
use crowd4u_crowd::estimate::{estimate_skills, EstimatorConfig, TeamObservation};
use crowd4u_crowd::profile::{Region, WorkerId, WorkerProfile};
use crowd4u_sim::rng::SimRng;

fn manager(n: u64) -> WorkerManager {
    let mut m = WorkerManager::new();
    for i in 1..=n {
        m.register(
            WorkerProfile::new(WorkerId(i), format!("w{i}"))
                .with_native_lang(if i % 2 == 0 { "en" } else { "ja" })
                .with_region(Region::new("r", (i % 10) as f64 / 10.0, 0.5))
                .with_skill("translation", (i % 100) as f64 / 100.0),
        );
    }
    m
}

fn bench_worker_factors(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_worker_factors");
    // Figure 4's "update your factors" action, at scale.
    group.bench_function("update_10k_factors", |b| {
        b.iter_batched(
            || manager(100),
            |mut m| {
                for k in 0..10_000u64 {
                    let id = WorkerId(1 + (k % 100));
                    let p = m.get_mut(id).unwrap();
                    p.factors.set_skill("translation", (k % 100) as f64 / 100.0);
                    p.factors.logged_in = k % 7 != 0;
                }
                std::hint::black_box(m.len())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    // Candidate-set affinity submatrix from the lazy provider (the dense
    // full-population matrix no longer exists anywhere).
    for &n in &[50u64, 200] {
        group.bench_with_input(BenchmarkId::new("candidate_affinity", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let m = manager(n);
                    let ids = m.ids();
                    (m, ids)
                },
                |(m, ids)| {
                    let a = m.candidate_affinity(&ids);
                    std::hint::black_box(a.len())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    // Single-pair lazy queries against a large population: O(1) per probe,
    // each computed from the two profiles.
    group.bench_function("pair_probe_10k", |b| {
        b.iter_batched(
            || manager(5_000),
            |m| {
                let mut acc = 0.0;
                for k in 0..10_000u64 {
                    let a = WorkerId(1 + (k % 5_000));
                    let bw = WorkerId(1 + ((k * 7 + 3) % 5_000));
                    acc += m.pair_affinity(a, bw);
                }
                std::hint::black_box(acc)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    // System-computed skills (paper [10]) from team history.
    for &obs_count in &[100usize, 1000] {
        group.bench_with_input(
            BenchmarkId::new("skill_estimation", obs_count),
            &obs_count,
            |b, &obs_count| {
                let mut rng = SimRng::seed_from(4);
                let observations: Vec<TeamObservation> = (0..obs_count)
                    .map(|_| {
                        let k = 2 + rng.index(3);
                        let members = rng
                            .sample_indices(30, k)
                            .into_iter()
                            .map(|i| WorkerId(i as u64))
                            .collect();
                        TeamObservation::new(members, rng.unit())
                    })
                    .collect();
                b.iter(|| {
                    let e = estimate_skills(&observations, &EstimatorConfig::default());
                    std::hint::black_box(e.skills.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_worker_factors);
criterion_main!(benches);
