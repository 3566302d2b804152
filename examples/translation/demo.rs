//! What the translation example prints, as one string.

use crowd4u::core::controller::AlgorithmChoice;
use crowd4u::scenarios::{translation, ScenarioConfig};
use std::fmt::Write;

/// The example's whole output for a crowd size, item count and seed.
pub fn output(crowd: usize, items: usize, seed: u64) -> String {
    let mut out = String::new();
    writeln!(out, "video subtitle translation — sequential collaboration").unwrap();
    writeln!(out, "crowd={crowd} items={items} seed={seed}\n").unwrap();

    for alg in [
        AlgorithmChoice::Greedy,
        AlgorithmChoice::LocalSearch,
        AlgorithmChoice::Exact,
    ] {
        let config = ScenarioConfig::default()
            .with_crowd(crowd)
            .with_items(items)
            .with_seed(seed)
            .with_algorithm(alg);
        match translation::run(&config) {
            Ok(report) => {
                writeln!(out, "[{:>12}] {report}", format!("{alg:?}")).unwrap();
                writeln!(
                    out,
                    "               completion {:.0}%, {:.1} answers/item",
                    report.completion_rate() * 100.0,
                    report.answers as f64 / report.items_total.max(1) as f64
                )
                .unwrap();
            }
            Err(e) => writeln!(out, "[{:>12}] failed: {e}", format!("{alg:?}")).unwrap(),
        }
    }
    writeln!(
        out,
        "\nsequential coordination pays per-item quality for makespan — compare\n\
         with `cargo run --example journalism` (simultaneous) on the same seed."
    )
    .unwrap();
    out
}
