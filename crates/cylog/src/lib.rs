//! # crowd4u-cylog — the CyLog language and processor
//!
//! CyLog is "a Datalog-like language designed for crowdsourcing applications
//! with complex data flows" whose defining feature is that it "allows humans
//! to evaluate predicates in rules" (paper §2.1, citing Morishima et al.,
//! *CyLog/game aspect*, Information Systems 2016). This crate implements:
//!
//! * the **language**: lexer, parser and AST ([`lexer`], [`parser`], [`ast`]);
//! * **semantic analysis**: declaration/arity/type checks, rule safety via
//!   well-moded body reordering, stratification of negation and aggregation,
//!   and demand compilation for open predicates ([`analysis`]);
//! * the **evaluator**: stratified bottom-up evaluation in three modes
//!   ([`eval`]): naive and semi-naive (both clear-and-rerun), and
//!   **cross-batch incremental** — the default — which persists derived
//!   relations across [`engine::CylogEngine::run`] calls, seeds each pass
//!   from the facts and answers inserted since the last fixpoint, and
//!   falls back to a full recompute after retractions (which deltas
//!   cannot express). All three modes are observationally identical —
//!   byte-identical snapshots, pending queues and points ledgers after
//!   every batch (see `tests/cylog_incremental.rs`);
//! * the **processor** ([`engine::CylogEngine`]): owns the fact store, runs
//!   rules to fixpoint, converts open-predicate demands into crowd questions,
//!   ingests answers, and keeps the game-aspect points ledger.
//!
//! ## Open predicates
//!
//! ```text
//! rel  sentence(s: str).
//! open translate(s: str) -> (t: str) points 3.
//! rel  published(s: str, t: str).
//! published(S, T) :- sentence(S), translate(S, T).
//! ```
//!
//! `translate` is an *open* predicate: its input column `s` is bound by the
//! engine (one question per distinct sentence), and its output column `t` is
//! filled in by a worker. The engine exposes unanswered questions through
//! [`engine::CylogEngine::pending_requests`] and accepts answers through
//! [`engine::CylogEngine::answer`]; each accepted first answer credits the
//! worker with the declared points.
//!
//! ## Evaluation statistics: what `firings` means
//!
//! [`eval::EvalStats::firings`] counts **candidate rows enumerated at
//! positive body literals** — the join work the evaluator explored,
//! whether or not each row unified with the partial binding. It does *not*
//! count rule-head derivations: those are [`eval::EvalStats::derived`]
//! (new facts) plus [`eval::EvalStats::duplicates`] (re-derivations of
//! known facts). Since PR 6 (cross-batch incremental evaluation with
//! per-stratum dispatch) the counter therefore measures the work a pass
//! *actually did*, which varies with how each stratum was dispatched — a
//! skipped stratum contributes zero firings even though its rules are
//! still logically "true".
//!
//! The two cross-batch incremental paths make the distinction visible —
//! a **delta-seeded** stratum enumerates only the rows inserted since the
//! previous fixpoint, while a **rebuilt** stratum (one a change reaches
//! through negation or an aggregate) clears its derived relations and
//! re-enumerates its full input. The exact counts on both paths are
//! pinned by `firings_count_candidates_on_delta_seeded_vs_rebuilt_strata`
//! in [`engine`]'s tests, and the running totals are exported as the
//! `crowd4u_cylog_*_total` telemetry counters (see
//! [`engine::CylogEngine::set_telemetry`]).
//!
//! ```
//! use crowd4u_cylog::engine::CylogEngine;
//!
//! let mut e = CylogEngine::from_source(
//!     "rel s(x: str). open t(x: str) -> (y: str). rel out(x: str, y: str).
//!      out(X, Y) :- s(X), t(X, Y).",
//! ).unwrap();
//! e.add_fact("s", vec!["hello".into()]).unwrap();
//! e.run().unwrap();
//! assert_eq!(e.pending_requests().len(), 1);
//! e.answer("t", vec!["hello".into()], vec!["bonjour".into()], None).unwrap();
//! e.run().unwrap();
//! assert_eq!(e.fact_count("out").unwrap(), 1);
//! ```

pub mod analysis;
pub mod ast;
pub mod engine;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod token;

pub mod prelude {
    pub use crate::analysis::{compile, CompiledProgram, PredId, PredKind};
    pub use crate::ast::Program;
    pub use crate::engine::{
        AnswerRecord, BatchOutcome, CylogEngine, OpenRequest, PendingRequests,
    };
    pub use crate::error::CylogError;
    pub use crate::eval::{EvalMode, EvalStats};
    pub use crate::parser::parse;
}

#[cfg(test)]
mod proptests {
    use crate::eval::EvalMode;
    use crate::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Naive ≡ semi-naive ≡ cross-batch incremental on transitive
        /// closure — the classic recursive workload — for arbitrary edge
        /// sets. The incremental engine (the default mode) receives the
        /// edges in two waves with a fixpoint between them, so its second
        /// run takes the delta path.
        #[test]
        fn seminaive_equals_naive_on_closure(
            edges in proptest::collection::vec((0i64..12, 0i64..12), 0..40)
        ) {
            let src = "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
                       path(X, Y) :- edge(X, Y).\n\
                       path(X, Z) :- edge(X, Y), path(Y, Z).\n";
            let mut naive = CylogEngine::from_source(src).unwrap();
            naive.set_mode(EvalMode::Naive);
            let mut semi = CylogEngine::from_source(src).unwrap();
            semi.set_mode(EvalMode::SemiNaive);
            let mut inc = CylogEngine::from_source(src).unwrap();
            prop_assert_eq!(inc.mode(), EvalMode::Incremental);
            for (a, b) in &edges {
                naive.add_fact("edge", vec![(*a).into(), (*b).into()]).unwrap();
                semi.add_fact("edge", vec![(*a).into(), (*b).into()]).unwrap();
            }
            naive.run().unwrap();
            semi.run().unwrap();
            let half = edges.len() / 2;
            for (a, b) in &edges[..half] {
                inc.add_fact("edge", vec![(*a).into(), (*b).into()]).unwrap();
            }
            inc.run().unwrap();
            for (a, b) in &edges[half..] {
                inc.add_fact("edge", vec![(*a).into(), (*b).into()]).unwrap();
            }
            inc.run().unwrap();
            let mut r1 = naive.facts("path").unwrap().rows;
            let mut r2 = semi.facts("path").unwrap().rows;
            let mut r3 = inc.facts("path").unwrap().rows;
            r1.sort();
            r2.sort();
            r3.sort();
            prop_assert_eq!(&r1, &r2);
            prop_assert_eq!(&r1, &r3);
        }

        /// Pretty-printing a parsed program reparses to the same AST.
        #[test]
        fn parser_pretty_roundtrip(n_rels in 1usize..4, n_rules in 0usize..4) {
            let mut src = String::new();
            for i in 0..n_rels {
                src.push_str(&format!("rel p{i}(a: int, b: str).\n"));
            }
            for i in 0..n_rules {
                let from = i % n_rels;
                src.push_str(&format!("p{from}(1, \"x\").\n"));
                if n_rels > 1 {
                    let to = (i + 1) % n_rels;
                    src.push_str(&format!("p{to}(A, B) :- p{from}(A, B), A >= 0.\n"));
                }
            }
            let ast1 = parse(&src).unwrap();
            let printed = ast1.to_string();
            let ast2 = parse(&printed).unwrap();
            prop_assert_eq!(ast1, ast2);
        }

        /// Evaluation is deterministic: same inputs, same outputs (sorted).
        #[test]
        fn evaluation_deterministic(
            facts in proptest::collection::vec((0i64..20, 0i64..20), 0..30)
        ) {
            let src = "rel r(a: int, b: int).\nrel s(a: int, b: int).\n\
                       s(X, Y) :- r(X, Y), X < Y.\n";
            let mut runs = Vec::new();
            for _ in 0..2 {
                let mut e = CylogEngine::from_source(src).unwrap();
                for (a, b) in &facts {
                    e.add_fact("r", vec![(*a).into(), (*b).into()]).unwrap();
                }
                e.run().unwrap();
                let mut rows = e.facts("s").unwrap().rows;
                rows.sort();
                runs.push(rows);
            }
            prop_assert_eq!(runs[0].clone(), runs[1].clone());
        }
    }
}
