//! A tour of the CyLog language (§2.1): declarations, facts, rules,
//! negation, aggregation, and the defining feature — open predicates whose
//! facts come from humans.
//!
//! Run with: `cargo run --example cylog_tour`

use crowd4u::cylog::engine::CylogEngine;
use crowd4u::cylog::eval::EvalMode;
use crowd4u::forms::from_cylog::form_for_request;
use crowd4u::storage::prelude::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = r#"
// ---- closed relations (machine facts + derived rules) ----
rel edge(a: int, b: int).
rel path(a: int, b: int).
rel node(x: int).
rel unreachable(x: int).
rel reach_count(n: int).

edge(1, 2). edge(2, 3). edge(3, 4).
node(1). node(2). node(3). node(4). node(5).

path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).          // recursion (semi-naive)
unreachable(X) :- node(X), not path(1, X), X != 1.  // stratified negation
reach_count(count<X>) :- path(1, X).           // aggregation

// ---- the human side: open predicates ----
open label(x: int) -> (name: str) points 2.
rel labelled(x: int, name: str).
labelled(X, N) :- unreachable(X), label(X, N).
"#;

    let mut engine = CylogEngine::from_source(source)?;
    engine.run()?;

    println!("paths from 1: {:?}", engine.facts("path")?.rows.len());
    println!("reach_count = {}", engine.facts("reach_count")?.rows[0][0]);
    for row in &engine.facts("unreachable")?.rows {
        println!("unreachable node: {row}");
    }

    // The engine turned the `label` demand into crowd questions:
    println!("\npending crowd questions:");
    let questions: Vec<_> = engine.pending_requests().iter().cloned().collect();
    for req in questions {
        println!(
            "  {}({:?}) for {} points",
            req.pred_name, req.inputs, req.points
        );
        // …each of which renders as a task form (the worker UI):
        let form = form_for_request(engine.program(), &req);
        println!("{form}\n");
    }

    // A simulated worker answers; the dependent rule fires on the next run.
    engine.answer(
        "label",
        vec![Value::Int(5)],
        vec!["isolated-5".into()],
        Some(7),
    )?;
    engine.run()?;
    for row in &engine.facts("labelled")?.rows {
        println!("labelled: {row}");
    }
    println!("worker 7 earned {} points", engine.points_of(7));

    // Naive vs semi-naive produce identical fixpoints (ablation 1).
    let mut naive = CylogEngine::from_source(source)?;
    naive.set_mode(EvalMode::Naive);
    naive.run()?;
    assert_eq!(
        naive.facts("path")?.rows.len(),
        engine.facts("path")?.rows.len()
    );
    println!("\nnaive and semi-naive fixpoints agree ✓");
    let stats = engine.cumulative_stats();
    println!(
        "evaluation: {} rounds, {} facts derived, {} duplicate firings",
        stats.rounds, stats.derived, stats.duplicates
    );
    Ok(())
}
