//! Property: telemetry is **observe-only**. For any random multi-project
//! op stream, a `ShardedRuntime` run at 1, 2 and 4 shards produces a
//! merged journal and a replayed [`Crowd4U::state_dump`] byte-identical
//! to the single-threaded reference regardless of whether telemetry is
//!
//! * **enabled** (a live [`Registry`], every stage recording),
//! * **disabled** ([`Registry::disabled`], all cells no-op), or
//! * **scraped mid-run** (a live registry with [`ShardedRuntime::metrics`]
//!   called between every batch, while shard threads are producing) —
//!
//! and the three runs are identical to *each other*. This is the PR 8
//! observability contract: metrics and spans never feed back into
//! routing, evaluation, or the journal, and a scrape never perturbs (or
//! blocks) producers. The enabled run must also actually record: the
//! shard-apply stage histogram covers at least every applied event.
//!
//! Ops come from the shard-equivalence generator (`tests/common`):
//! blind-guess answers and interest on project-strided task ids, worker
//! churn and crowd bursts (installed on every replica under the scrape,
//! each one re-evaluating the declarative project's eligibility rule),
//! clock advances, collab tasks — so drops (stale/invalid events) are
//! part of the property too.

mod common;

use common::{build_events, raw_op};
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::prelude::*;
use crowd4u::telemetry::{stage, Registry};
use proptest::prelude::*;

/// How a variant run treats telemetry.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Enabled,
    Disabled,
    ScrapedMidRun,
}

/// Run the batches through a sharded runtime under one telemetry mode;
/// return (journal dump, replayed state dump, applied, dropped).
fn run_variant(
    shards: usize,
    batches: &[Vec<PlatformEvent>],
    mode: Mode,
) -> (String, String, u64, u64) {
    let registry = match mode {
        Mode::Disabled => Registry::disabled(),
        _ => Registry::new(),
    };
    let rt = ShardedRuntime::new_instrumented(
        RuntimeConfig {
            shards,
            drain_every: 0,
            mailbox_capacity: 1024,
            recovery: false,
        },
        registry.clone(),
    );
    for b in batches {
        rt.submit_batch(b.clone());
        rt.drain();
        if mode == Mode::ScrapedMidRun {
            // Scrape while shard threads are live — must not block or
            // perturb them (the rendered text is also exercised).
            let snap = rt.metrics();
            let _ = snap.render();
        }
    }
    let run = rt.finish().expect("runtime alive");
    if mode != Mode::Disabled {
        // The enabled registry must actually have recorded: every applied
        // event was wrapped in the shard-apply span (broadcasts apply on
        // every shard, so the histogram may exceed the applied count).
        let snap = registry.snapshot();
        assert!(
            snap.histogram_count(stage::SHARD_APPLY) >= run.stats.applied,
            "shard-apply histogram undercounts: {} < {}",
            snap.histogram_count(stage::SHARD_APPLY),
            run.stats.applied
        );
    }
    let replayed = Crowd4U::replay(&run.journal).expect("journal replays");
    (
        run.journal.dump(),
        replayed.state_dump(),
        run.stats.applied,
        run.stats.dropped,
    )
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
        let events = build_events(n_projects, items, &ops);
        let batches: Vec<Vec<PlatformEvent>> =
            events.chunks(batch.max(1)).map(|c| c.to_vec()).collect();

        // Single-threaded reference (telemetry never attached).
        let mut serial = Crowd4U::new();
        let mut serial_dropped = 0u64;
        for b in &batches {
            serial_dropped += serial.apply_batch(b.clone()).unwrap().errors.len() as u64;
        }
        let serial_journal = serial.journal().dump();
        let serial_dump = serial.state_dump();

        for shards in [1usize, 2, 4] {
            let (j_on, s_on, applied, dropped) =
                run_variant(shards, &batches, Mode::Enabled);
            let (j_off, s_off, _, _) = run_variant(shards, &batches, Mode::Disabled);
            let (j_scraped, s_scraped, _, _) =
                run_variant(shards, &batches, Mode::ScrapedMidRun);

            // All three variants match the serial reference…
            prop_assert_eq!(&j_on, &serial_journal, "journal (on) at {} shards", shards);
            prop_assert_eq!(&s_on, &serial_dump, "state (on) at {} shards", shards);
            // …and therefore each other; spelled out so a failure names
            // the variant that diverged.
            prop_assert_eq!(&j_off, &j_on, "journal on/off diverge at {} shards", shards);
            prop_assert_eq!(&s_off, &s_on, "state on/off diverge at {} shards", shards);
            prop_assert_eq!(&j_scraped, &j_on, "journal scraped diverges at {} shards", shards);
            prop_assert_eq!(&s_scraped, &s_on, "state scraped diverges at {} shards", shards);
            prop_assert_eq!(dropped, serial_dropped, "dropped mismatch at {} shards", shards);
            prop_assert_eq!(
                applied + dropped,
                events.len() as u64,
                "event accounting mismatch at {} shards",
                shards
            );
        }
    }
}
