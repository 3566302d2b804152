//! The oracle's own tests, run once (the suites include `mod.rs` as a
//! module; this file makes `tests/common` a test target of its own): the
//! shrinker cuts a planted failure down to its two causes, and a mismatch
//! names the part and the line that differ.

#[path = "mod.rs"]
mod common;

use common::*;
use proptest::test_runner::TestCaseError;

/// The `k`-th op, of the generator's `kind`: 4 is a clock, 9 a burst.
fn op(kind: u8, k: usize) -> RawOp {
    (kind, 0, 0, 1, format!("op{k}"), false)
}

#[test]
fn ddmin_shrinks_a_planted_failure_to_its_two_ops() {
    // Forty ops, the longest list a suite draws, with one clock and one
    // burst among ops of every other kind.
    let others = [0u8, 1, 2, 3, 5, 6, 7, 8, 10];
    let mut ops: Vec<RawOp> = (0..40).map(|k| op(others[k % others.len()], k)).collect();
    ops[13] = op(4, 13);
    ops[31] = op(9, 31);
    let planted = |ops: &[RawOp]| {
        let holds = |kind| ops.iter().any(|op| op.0 % 11 == kind);
        holds(4) && holds(9)
    };

    let (smallest, calls) = shrink(&ops, SHRINK_RERUNS, planted);
    assert_eq!(smallest, vec![op(4, 13), op(9, 31)]);
    assert!(calls < SHRINK_RERUNS, "the cap cut the shrink short");

    // `shrinking` fails with the original failure, not the shrunk one's.
    let property = |ops: &[RawOp]| {
        if planted(ops) {
            Err(TestCaseError::fail(format!("{} ops", ops.len())))
        } else {
            Ok(())
        }
    };
    assert_eq!(shrinking(&ops, property).unwrap_err().to_string(), "40 ops");
    assert!(shrinking(&ops[..20], property).is_ok());
}

#[test]
fn a_mismatch_names_the_journal_and_its_first_differing_line() {
    let events = setup_events(2, 2);
    let reference = Reference::serial(std::slice::from_ref(&events));
    assert_eq!(reference.dropped, 0);
    // The last event seeds project 2's "s1"; the run seeds "sX" instead.
    let mut changed = events.clone();
    *changed.last_mut().unwrap() = sentence(2, "sX");

    let (run, _) = Run::at(2).batches(&[changed]);
    let Err(failure) = assert_equivalent(&reference, &run, "one event off") else {
        panic!("a run one event off passed the oracle");
    };
    let message = failure.to_string();
    // Line 1 is the journal's header, so event k is on line k + 1.
    let line = events.len() + 1;
    let head = message.lines().take(3).collect::<Vec<_>>();
    assert_eq!(head[0], format!("journal differs at line {line}:"));
    assert!(
        head[1].contains("sX") && head[2].contains("s1"),
        "{message}"
    );
    assert!(message.len() < 1024, "two lines, not two journals");
}
