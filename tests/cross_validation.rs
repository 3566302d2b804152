//! Cross-validation properties for the CyLog evaluator: a join rule against
//! a nested-loop reference join, and grouped aggregates against a fold over
//! the same facts.

use crowd4u::cylog::engine::CylogEngine;
use crowd4u::storage::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Nested-loop reference join for the property test.
fn reference_join(left: &[(i64, i64)], right: &[(i64, i64)]) -> Vec<(i64, i64, i64, i64)> {
    let mut out = Vec::new();
    for &(a, b) in left {
        for &(c, d) in right {
            if b == c {
                out.push((a, b, c, d));
            }
        }
    }
    out.sort_unstable();
    out
}

/// The facts as a set: sorted, duplicates removed.
fn dedup(mut facts: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    facts.sort_unstable();
    facts.dedup();
    facts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CyLog join rule ≡ nested-loop join of the same (set-semantics) facts.
    #[test]
    fn cylog_join_matches_reference(
        left in proptest::collection::vec((0i64..6, 0i64..6), 0..20),
        right in proptest::collection::vec((0i64..6, 0i64..6), 0..20),
    ) {
        let mut engine = CylogEngine::from_source(
            "rel l(a: int, b: int).\nrel r(b: int, c: int).\n\
             rel j(a: int, b: int, c: int).\n\
             j(A, B, C) :- l(A, B), r(B, C).\n",
        )
        .unwrap();
        for (a, b) in &left {
            engine.add_fact("l", vec![(*a).into(), (*b).into()]).unwrap();
        }
        for (b, c) in &right {
            engine.add_fact("r", vec![(*b).into(), (*c).into()]).unwrap();
        }
        engine.run().unwrap();
        let mut cylog_rows = engine.facts("j").unwrap().rows;
        cylog_rows.sort();

        let mut expect: Vec<Tuple> = reference_join(&dedup(left), &dedup(right))
            .into_iter()
            .map(|(a, b, _, c)| tuple![a, b, c])
            .collect();
        expect.sort();
        expect.dedup();
        prop_assert_eq!(cylog_rows, expect);
    }

    /// CyLog aggregates ≡ a per-group fold over the same facts.
    #[test]
    fn cylog_aggregates_match_reference(
        facts in proptest::collection::vec((0i64..4, -100i64..100), 1..30),
    ) {
        let mut engine = CylogEngine::from_source(
            "rel w(g: int, v: int).\n\
             rel s(g: int, n: int, lo: int, hi: int).\n\
             s(G, count<V>, min<V>, max<V>) :- w(G, V).\n",
        )
        .unwrap();
        for (g, v) in &facts {
            engine.add_fact("w", vec![(*g).into(), (*v).into()]).unwrap();
        }
        engine.run().unwrap();
        let mut cylog_rows = engine.facts("s").unwrap().rows;
        cylog_rows.sort();

        // Counts agree because both sides see the deduplicated fact set
        // (set semantics on `w`).
        let mut groups: BTreeMap<i64, (i64, i64, i64)> = BTreeMap::new();
        for (g, v) in dedup(facts) {
            let (n, lo, hi) = groups.entry(g).or_insert((0, v, v));
            *n += 1;
            *lo = (*lo).min(v);
            *hi = (*hi).max(v);
        }
        let expect: Vec<Tuple> = groups
            .into_iter()
            .map(|(g, (n, lo, hi))| tuple![g, n, lo, hi])
            .collect();
        prop_assert_eq!(cylog_rows, expect);
    }
}
