//! Differential property test for cross-batch incremental evaluation.
//!
//! A random stratified program — layered derived predicates mixing plain
//! projection, joins (one through a `let`), recursion, negation and
//! aggregation over a pool of
//! base predicates, plus an open predicate hooked to the top layer — is
//! driven by a random stream of fact insertions, crowd answers and
//! retractions, chopped into batches. After **every** batch, three engines
//! that saw the identical stream must agree **byte-identically**:
//!
//! * `Incremental` (the default): persists derived relations across runs
//!   and advances the fixpoint from per-batch deltas, falling back to a
//!   full recompute after retractions;
//! * `SemiNaive`: clear-and-rerun on every run;
//! * `Naive`: clear-and-rerun without delta joins.
//!
//! Agreement covers the canonical relation dump (every base, derived and
//! open relation), the pending question queue *including order*, and the
//! game-aspect points ledger. This is the proof obligation for making
//! incremental evaluation the default mode.
//!
//! Agreement on results says nothing about the work each mode does. A
//! table test pins that too: for every layer kind, in every mode, over a
//! fixed stream of inserts, answers and one retraction, all eight
//! [`EvalStats`] fields of each `run` and the pending-queue length must
//! equal the recorded values exactly.

use crowd4u::cylog::engine::CylogEngine;
use crowd4u::cylog::eval::{EvalMode, EvalStats};
use crowd4u::storage::prelude::Value;
use crowd4u::storage::snapshot;
use proptest::prelude::*;

/// A generated stratified program: CyLog source plus the base-predicate
/// count the op stream needs for addressing.
#[derive(Debug, Clone)]
struct ProgramSpec {
    src: String,
    n_base: usize,
}

/// Build a layered program. Layer `i` derives `d{i}` from the layer below
/// (`d{i-1}`, or `b0` for the first) according to `kind`:
///
/// * 0 — copy: `d(X, Y) :- src(X, Y).`
/// * 1 — join with a base predicate
/// * 2 — recursive closure over the layer below
/// * 3 — stratified negation against a base predicate
/// * 4 — `count` aggregate grouped by the first column
/// * 5 — join through a `let`: the base atom's `Z` is assigned by
///   `Z := Y + 1` before the atom reads it, so a delta on the base
///   predicate cannot be hoisted ahead of the assignment
///
/// The top layer feeds the demand sub-body of an open predicate `q`, so
/// crowd questions are generated from *derived* deltas, not base facts.
fn build_program(n_base: usize, layer_kinds: &[u8], points: i64) -> ProgramSpec {
    let mut src = String::new();
    for j in 0..n_base {
        src.push_str(&format!("rel b{j}(x: int, y: int).\n"));
    }
    for (i, kind) in layer_kinds.iter().enumerate() {
        let prev = if i == 0 {
            "b0".to_string()
        } else {
            format!("d{}", i - 1)
        };
        let base = format!("b{}", i % n_base);
        src.push_str(&format!("rel d{i}(x: int, y: int).\n"));
        match kind % 6 {
            0 => src.push_str(&format!("d{i}(X, Y) :- {prev}(X, Y).\n")),
            1 => src.push_str(&format!("d{i}(X, Z) :- {prev}(X, Y), {base}(Y, Z).\n")),
            2 => {
                src.push_str(&format!("d{i}(X, Y) :- {prev}(X, Y).\n"));
                src.push_str(&format!("d{i}(X, Z) :- {prev}(X, Y), d{i}(Y, Z).\n"));
            }
            3 => src.push_str(&format!("d{i}(X, Y) :- {prev}(X, Y), not {base}(Y, X).\n")),
            4 => src.push_str(&format!("d{i}(X, count<Y>) :- {prev}(X, Y).\n")),
            _ => src.push_str(&format!(
                "d{i}(X, Z) :- {prev}(X, Y), Z := Y + 1, {base}(X, Z).\n"
            )),
        }
    }
    let top = format!("d{}", layer_kinds.len() - 1);
    src.push_str(&format!("open q(x: int) -> (v: int) points {points}.\n"));
    src.push_str("rel hooked(x: int, v: int).\n");
    src.push_str(&format!("hooked(X, V) :- {top}(X, _), q(X, V).\n"));
    ProgramSpec { src, n_base }
}

/// One generated operation: `(kind, a, b, worker)`.
type RawOp = (u8, i64, i64, u64);

/// Apply one op identically to an engine. Kinds 0–3 insert a base fact,
/// 4–5 answer the open predicate (unsolicited answers included), 6–7
/// retract base facts by first column — the path that must force the
/// incremental engine into its full-recompute fallback.
fn apply_op(engine: &mut CylogEngine, n_base: usize, op: &RawOp) {
    let (kind, a, b, w) = *op;
    match kind % 8 {
        k @ 0..=3 => {
            let pred = format!("b{}", (k as usize) % n_base);
            engine
                .add_fact(&pred, vec![Value::Int(a), Value::Int(b)])
                .unwrap();
        }
        4 | 5 => {
            engine
                .answer("q", vec![Value::Int(a)], vec![Value::Int(b)], Some(w))
                .unwrap();
        }
        k => {
            let pred = format!("b{}", (k as usize) % n_base);
            engine.retract_by_key(&pred, &Value::Int(a)).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn incremental_equals_clear_and_rerun_equals_naive(
        spec in (1usize..4, proptest::collection::vec(0u8..6, 1..4), 1i64..4)
            .prop_map(|(n_base, kinds, points)| build_program(n_base, &kinds, points)),
        ops in proptest::collection::vec((0u8..8, 0i64..6, 0i64..6, 1u64..4), 0..30),
        batch in 1usize..6,
    ) {
        let mut inc = CylogEngine::from_source(&spec.src).unwrap();
        prop_assert_eq!(inc.mode(), EvalMode::Incremental, "incremental is the default");
        let mut semi = CylogEngine::from_source(&spec.src).unwrap();
        semi.set_mode(EvalMode::SemiNaive);
        let mut naive = CylogEngine::from_source(&spec.src).unwrap();
        naive.set_mode(EvalMode::Naive);

        for (bi, chunk) in ops.chunks(batch).enumerate() {
            for engine in [&mut inc, &mut semi, &mut naive] {
                for op in chunk {
                    apply_op(engine, spec.n_base, op);
                }
                engine.run().unwrap();
            }
            // Byte-identical relation state (base, derived, open, pending
            // queue with order, and the points ledger) after every batch.
            let inc_dump = snapshot::dump(inc.database());
            prop_assert_eq!(
                &inc_dump,
                &snapshot::dump(semi.database()),
                "incremental vs semi-naive dump diverged after batch {} of program:\n{}",
                bi,
                spec.src
            );
            prop_assert_eq!(
                &inc_dump,
                &snapshot::dump(naive.database()),
                "incremental vs naive dump diverged after batch {} of program:\n{}",
                bi,
                spec.src
            );
            prop_assert_eq!(
                inc.pending_requests(),
                semi.pending_requests(),
                "pending queue diverged after batch {} of program:\n{}",
                bi,
                spec.src
            );
            prop_assert_eq!(inc.pending_requests(), naive.pending_requests());
            prop_assert_eq!(inc.leaderboard(), semi.leaderboard());
            prop_assert_eq!(inc.leaderboard(), naive.leaderboard());
        }

        // The incremental engine must actually have run incrementally:
        // with no retractions in the stream, exactly one full recompute
        // (the first run) is allowed.
        let retractions = ops.iter().filter(|(k, ..)| k % 8 >= 6).count();
        if retractions == 0 && !ops.is_empty() {
            prop_assert_eq!(
                inc.cumulative_stats().recomputes, 1,
                "retraction-free stream must stay on the delta path"
            );
        }
    }
}

/// The fixed op stream of the pinned table: chains through `b0` and `b1`,
/// answers to `q` (one unsolicited), one retraction of `b0` rows keyed 2,
/// then growth after it.
const PINNED_BATCHES: [&[RawOp]; 6] = [
    &[
        (0, 1, 2, 1),
        (0, 2, 3, 1),
        (1, 2, 3, 1),
        (1, 3, 4, 1),
        (0, 3, 4, 1),
    ],
    &[(0, 4, 5, 1), (1, 4, 5, 1), (1, 5, 1, 1), (0, 1, 3, 1)],
    &[(4, 1, 7, 1), (4, 2, 8, 2), (5, 9, 9, 3)],
    &[(2, 5, 1, 1), (4, 3, 1, 2), (3, 1, 2, 1), (0, 4, 6, 1)],
    &[(6, 2, 0, 1)],
    &[(0, 2, 5, 1), (5, 4, 4, 3), (1, 0, 1, 1), (2, 2, 6, 1)],
];

/// One row per `run`: `rounds`, `derived`, `duplicates`, `firings`,
/// `delta_seeded`, `strata_skipped`, `strata_recomputed`, `recomputes`,
/// then the pending-queue length.
fn stats_row(s: EvalStats, pending: usize) -> [u64; 9] {
    [
        s.rounds,
        s.derived,
        s.duplicates,
        s.firings,
        s.delta_seeded,
        s.strata_skipped,
        s.strata_recomputed,
        s.recomputes,
        pending as u64,
    ]
}

/// The rows one mode produces on the two-layer program `[kind, join]`.
fn pinned_rows(kind: u8, mode: EvalMode) -> Vec<[u64; 9]> {
    let spec = build_program(2, &[kind, 1], 2);
    let mut engine = CylogEngine::from_source(&spec.src).unwrap();
    if mode != EvalMode::Incremental {
        engine.set_mode(mode);
    }
    PINNED_BATCHES
        .iter()
        .map(|batch| {
            for op in *batch {
                apply_op(&mut engine, spec.n_base, op);
            }
            let stats = engine.run().unwrap();
            stats_row(stats, engine.pending_requests().len())
        })
        .collect()
}

/// Recorded per layer kind, then per mode (`Naive`, `SemiNaive`,
/// `Incremental`), then per batch of [`PINNED_BATCHES`]; see [`stats_row`].
const PINNED: [[[[u64; 9]; 6]; 3]; 6] = [
    // 0: copy
    [
        [
            [2, 5, 2, 17, 0, 0, 0, 1, 2],
            [2, 10, 5, 35, 0, 0, 0, 1, 4],
            [2, 12, 9, 41, 0, 0, 0, 1, 2],
            [2, 16, 11, 53, 0, 0, 0, 1, 2],
            [2, 13, 9, 44, 0, 0, 0, 1, 2],
            [2, 18, 12, 58, 0, 0, 0, 1, 1],
        ],
        [
            [2, 5, 2, 17, 0, 0, 0, 1, 2],
            [2, 10, 5, 35, 0, 0, 0, 1, 4],
            [2, 12, 9, 41, 0, 0, 0, 1, 2],
            [2, 16, 11, 53, 0, 0, 0, 1, 2],
            [2, 13, 9, 44, 0, 0, 0, 1, 2],
            [2, 18, 12, 58, 0, 0, 0, 1, 1],
        ],
        [
            [2, 5, 2, 17, 0, 0, 0, 1, 2],
            [3, 5, 1, 13, 4, 0, 0, 0, 4],
            [2, 2, 1, 6, 3, 0, 0, 0, 2],
            [2, 4, 1, 10, 4, 0, 0, 0, 2],
            [2, 13, 9, 44, 0, 0, 0, 1, 2],
            [4, 5, 0, 10, 4, 0, 0, 0, 1],
        ],
    ],
    // 1: join
    [
        [
            [2, 3, 1, 13, 0, 0, 0, 1, 1],
            [2, 8, 4, 33, 0, 0, 0, 1, 3],
            [2, 10, 8, 39, 0, 0, 0, 1, 1],
            [2, 18, 12, 67, 0, 0, 0, 1, 2],
            [2, 13, 7, 48, 0, 0, 0, 1, 2],
            [2, 20, 13, 73, 0, 0, 0, 1, 1],
        ],
        [
            [2, 3, 1, 13, 0, 0, 0, 1, 1],
            [2, 8, 4, 33, 0, 0, 0, 1, 3],
            [2, 10, 8, 39, 0, 0, 0, 1, 1],
            [2, 18, 12, 67, 0, 0, 0, 1, 2],
            [2, 13, 7, 48, 0, 0, 0, 1, 2],
            [2, 20, 13, 73, 0, 0, 0, 1, 1],
        ],
        [
            [2, 3, 1, 13, 0, 0, 0, 1, 1],
            [2, 5, 2, 18, 4, 0, 0, 0, 3],
            [2, 2, 1, 6, 3, 0, 0, 0, 1],
            [3, 8, 1, 22, 4, 0, 0, 0, 2],
            [2, 13, 7, 48, 0, 0, 0, 1, 2],
            [4, 7, 1, 19, 4, 0, 0, 0, 1],
        ],
    ],
    // 2: recursion
    [
        [
            [3, 9, 11, 55, 0, 0, 0, 1, 2],
            [3, 20, 32, 123, 0, 0, 0, 1, 4],
            [3, 22, 49, 142, 0, 0, 0, 1, 2],
            [5, 58, 236, 558, 0, 0, 0, 1, 2],
            [4, 46, 117, 330, 0, 0, 0, 1, 2],
            [4, 59, 196, 474, 0, 0, 0, 1, 1],
        ],
        [
            [3, 9, 5, 40, 0, 0, 0, 1, 2],
            [4, 20, 15, 86, 0, 0, 0, 1, 4],
            [4, 22, 25, 98, 0, 0, 0, 1, 2],
            [6, 58, 52, 228, 0, 0, 0, 1, 2],
            [5, 46, 35, 177, 0, 0, 0, 1, 2],
            [5, 59, 62, 244, 0, 0, 0, 1, 1],
        ],
        [
            [3, 9, 5, 40, 0, 0, 0, 1, 2],
            [5, 11, 4, 34, 4, 0, 0, 0, 4],
            [2, 2, 5, 10, 3, 0, 0, 0, 2],
            [6, 36, 18, 113, 4, 0, 0, 0, 2],
            [5, 46, 35, 177, 0, 0, 0, 1, 2],
            [4, 13, 16, 50, 4, 0, 0, 0, 1],
        ],
    ],
    // 3: negation
    [
        [
            [2, 5, 2, 17, 0, 0, 0, 1, 2],
            [2, 10, 5, 35, 0, 0, 0, 1, 4],
            [2, 12, 9, 41, 0, 0, 0, 1, 2],
            [2, 16, 11, 53, 0, 0, 0, 1, 2],
            [2, 13, 9, 44, 0, 0, 0, 1, 2],
            [2, 18, 12, 58, 0, 0, 0, 1, 1],
        ],
        [
            [2, 5, 2, 17, 0, 0, 0, 1, 2],
            [2, 10, 5, 35, 0, 0, 0, 1, 4],
            [2, 12, 9, 41, 0, 0, 0, 1, 2],
            [2, 16, 11, 53, 0, 0, 0, 1, 2],
            [2, 13, 9, 44, 0, 0, 0, 1, 2],
            [2, 18, 12, 58, 0, 0, 0, 1, 1],
        ],
        [
            [2, 5, 2, 17, 0, 0, 0, 1, 2],
            [2, 10, 5, 35, 4, 1, 1, 0, 4],
            [2, 2, 1, 6, 3, 1, 0, 0, 2],
            [2, 16, 11, 53, 4, 1, 1, 0, 2],
            [2, 13, 9, 44, 0, 0, 0, 1, 2],
            [2, 18, 12, 58, 4, 1, 1, 0, 1],
        ],
    ],
    // 4: count
    [
        [
            [1, 3, 0, 6, 0, 0, 0, 1, 0],
            [2, 5, 0, 12, 0, 0, 0, 1, 1],
            [2, 6, 1, 14, 0, 0, 0, 1, 0],
            [2, 13, 3, 33, 0, 0, 0, 1, 2],
            [2, 10, 2, 26, 0, 0, 0, 1, 2],
            [2, 14, 4, 36, 0, 0, 0, 1, 1],
        ],
        [
            [1, 3, 0, 6, 0, 0, 0, 1, 0],
            [2, 5, 0, 12, 0, 0, 0, 1, 1],
            [2, 6, 1, 14, 0, 0, 0, 1, 0],
            [2, 13, 3, 33, 0, 0, 0, 1, 2],
            [2, 10, 2, 26, 0, 0, 0, 1, 2],
            [2, 14, 4, 36, 0, 0, 0, 1, 1],
        ],
        [
            [1, 3, 0, 6, 0, 0, 0, 1, 0],
            [2, 5, 0, 12, 4, 1, 1, 0, 1],
            [2, 1, 0, 4, 3, 1, 0, 0, 0],
            [2, 13, 3, 33, 4, 1, 1, 0, 2],
            [2, 10, 2, 26, 0, 0, 0, 1, 2],
            [2, 14, 4, 36, 4, 1, 1, 0, 1],
        ],
    ],
    // 5: let-join
    [
        [
            [1, 0, 0, 3, 0, 0, 0, 1, 0],
            [2, 2, 1, 12, 0, 0, 0, 1, 1],
            [2, 3, 2, 14, 0, 0, 0, 1, 0],
            [2, 4, 2, 19, 0, 0, 0, 1, 0],
            [2, 4, 2, 18, 0, 0, 0, 1, 0],
            [2, 5, 2, 23, 0, 0, 0, 1, 0],
        ],
        [
            [1, 0, 0, 3, 0, 0, 0, 1, 0],
            [2, 2, 1, 12, 0, 0, 0, 1, 1],
            [2, 3, 2, 14, 0, 0, 0, 1, 0],
            [2, 4, 2, 19, 0, 0, 0, 1, 0],
            [2, 4, 2, 18, 0, 0, 0, 1, 0],
            [2, 5, 2, 23, 0, 0, 0, 1, 0],
        ],
        [
            [1, 0, 0, 3, 0, 0, 0, 1, 0],
            [3, 2, 0, 22, 4, 0, 0, 0, 1],
            [2, 1, 0, 4, 3, 0, 0, 0, 0],
            [2, 1, 0, 26, 4, 0, 0, 0, 0],
            [2, 4, 2, 18, 0, 0, 0, 1, 0],
            [2, 1, 1, 30, 4, 0, 0, 0, 0],
        ],
    ],
];

/// Every mode does exactly the recorded work on every layer kind: the
/// fixpoint rounds, each firing, each derivation and duplicate, the
/// strata skipped and rebuilt, and the questions left pending.
#[test]
fn eval_stats_are_pinned_per_layer_kind_mode_and_batch() {
    let modes = [EvalMode::Naive, EvalMode::SemiNaive, EvalMode::Incremental];
    for (kind, per_mode) in PINNED.iter().enumerate() {
        for (mode, want) in modes.into_iter().zip(per_mode) {
            assert_eq!(
                pinned_rows(kind as u8, mode),
                want,
                "layer kind {kind} under {mode:?}"
            );
        }
    }
}
