//! Property: telemetry is **observe-only**. For any random multi-project
//! op stream, a `ShardedRuntime` run at 1, 2 and 4 shards (plus
//! `RUNTIME_SHARDS`) equals the single-threaded reference by the
//! `tests/common` oracle whether telemetry is **enabled** (a live
//! `Registry`), **disabled** (`Registry::disabled`) or **scraped mid-run**
//! (`ShardedRuntime::metrics` called between every batch, while shard
//! threads are producing) — and the disabled and scraped runs equal the
//! enabled one slice by slice. This is the PR 8 observability contract:
//! metrics and spans never feed back into routing, evaluation, or the
//! journal, and a scrape never perturbs (or blocks) producers. A live
//! registry must also actually record: the shard-apply stage histogram
//! covers at least every applied event.
//!
//! Ops come from the shard-equivalence generator (`tests/common`):
//! blind-guess answers and interest on project-strided task ids, worker
//! churn and crowd bursts (filed on every replica under the scrape, each
//! one re-evaluating the declarative project's eligibility rule), clock
//! advances, collab tasks — so drops (stale/invalid events) are part of
//! the property too.

mod common;

use common::*;
use crowd4u::telemetry::stage;
use proptest::prelude::*;

/// A live registry recorded: every applied event was wrapped in the
/// shard-apply span (broadcasts apply on every shard, so the histogram may
/// exceed the applied count).
fn recorded(run: &Outcome) -> Result<(), TestCaseError> {
    let spans = run.metrics.histogram_count(stage::SHARD_APPLY);
    let applied = run.report.stats.applied;
    prop_assert!(
        spans >= applied,
        "shard-apply histogram undercounts: {} < {}: {}",
        spans,
        applied,
        run.label
    );
    Ok(())
}

/// At every shard count: the batches, each drained, with telemetry on
/// against the serial platform, then with telemetry off and scraped
/// mid-run against the telemetry-on run, every slice's dump included.
fn telemetry_property(
    n_projects: usize,
    items: usize,
    batch: usize,
    ops: &[RawOp],
) -> Result<(), TestCaseError> {
    let events = build_events(n_projects, items, ops);
    let batches: Vec<_> = events.chunks(batch).map(<[_]>::to_vec).collect();
    let serial = Reference::serial(&batches);
    for shards in shard_counts(&[1, 2, 4]) {
        let (enabled, _) = Run::at(shards).batches(&batches);
        assert_equivalent(&serial, &enabled, "telemetry on")?;
        recorded(&enabled)?;
        let reference = Reference::run(&enabled, events.len());
        let (disabled, _) = Run::at(shards).telemetry(Telemetry::Off).batches(&batches);
        assert_equivalent(&reference, &disabled, "telemetry off")?;
        let (scraped, _) = Run::at(shards)
            .telemetry(Telemetry::Scraped)
            .batches(&batches);
        assert_equivalent(&reference, &scraped, "scraped mid-run")?;
        recorded(&scraped)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn telemetry_on_off_and_scraped_runs_are_byte_identical(
        n_projects in 2usize..4,
        items in 2usize..4,
        batch in 3usize..10,
        ops in proptest::collection::vec(
            raw_op(),
            0..32,
        ),
    ) {
        shrinking(&ops, |ops| telemetry_property(n_projects, items, batch, ops))?;
    }
}
