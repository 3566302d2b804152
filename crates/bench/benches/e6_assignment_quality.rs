//! E6: team-formation *quality* — the objective value (mean intra-team
//! affinity) each algorithm achieves, plus its runtime. Reproduces the
//! evaluation shape of Rahman et al. [9], which the demo paper adapts:
//! exact ≥ local-search ≥ greedy ≫ random.
//!
//! Quality numbers are printed once at startup (criterion measures time;
//! the table is the paper-facing result — `report -- e6` prints it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd4u_assign::prelude::*;
use crowd4u_bench::{all_algorithms, clustered_instance, TablePrinter};

fn print_quality_table() {
    let constraints = TeamConstraints::sized(3, 5).with_quality(0.3);
    let mut t = TablePrinter::new(&["n", "exact", "greedy", "local-search", "random"]);
    for &n in &[10usize, 14, 18] {
        let mut row = vec![n.to_string()];
        let (cands, aff) = clustered_instance(n, 3, 1);
        for alg in all_algorithms(1) {
            let a = alg
                .form(&cands, &aff, &constraints)
                .map(|team| format!("{:.3}", team.affinity))
                .unwrap_or_else(|| "-".into());
            row.push(a);
        }
        // reorder: all_algorithms gives exact, greedy, local, random — match headers
        t.row(row);
    }
    println!("\nE6 quality (mean team affinity, clustered instances):");
    println!("{}", t.render());
}

fn bench_quality(c: &mut Criterion) {
    print_quality_table();
    let constraints = TeamConstraints::sized(3, 5).with_quality(0.3);
    let mut group = c.benchmark_group("e6_assignment_quality");
    for &n in &[14usize, 18] {
        let (cands, aff) = clustered_instance(n, 3, 1);
        for alg in all_algorithms(1) {
            group.bench_with_input(BenchmarkId::new(alg.name(), n), &n, |b, _| {
                b.iter(|| {
                    let t = alg.form(&cands, &aff, &constraints);
                    std::hint::black_box(t.map(|t| t.affinity))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_quality);
criterion_main!(benches);
