//! Shared-crowd marketplace property (PR 10 tentpole): one worker
//! population serving all three §2.5 applications at once is
//! **observationally identical** to the serial shared composite, and its
//! per-scenario accounting **partitions** the platform totals exactly.
//!
//! For a generated config, the three schemes' traces (recorded over the
//! same seeded population), merged in `CrowdMode::Shared` and streamed
//! through the gate at 1, 2 and 4 shards (plus `RUNTIME_SHARDS`), must
//!
//! * equal `stream::apply_stream` of the same merge on one platform by
//!   the `tests/common` oracle;
//! * split each shared worker's points per scenario so that every
//!   scheme's ledger sums to its report total, equal to the scheme's
//!   **standalone disjoint run**, and the per-worker sums across schemes
//!   reproduce the platform's `points_of` exactly;
//! * report per-worker collab contributions that match the replay's
//!   `worker_collabs_in` counters (the affinity-history split);
//! * and survive **chaos**: a shard killed anywhere in the stream (PR 9
//!   recovery) leaves the run equal to the fault-free one, slices and
//!   splits included.

mod common;

use common::*;
use crowd4u::collab::Scheme;
use crowd4u::core::error::WorkerId;
use crowd4u::runtime::prelude::*;
use crowd4u::runtime::scenario::stream_traces_shared;
use crowd4u::scenarios::stream::{merge_traces_with, CrowdMode};
use crowd4u::scenarios::{mixed, run_scheme, ScenarioConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The serial reference is the shared-crowd merge applied by one
    /// thread to one platform.
    #[test]
    fn shared_crowd_streams_replay_identically_and_split_exactly(
        crowd in 12usize..22,
        items in 1usize..3,
        seed in 0u64..1000,
        kill_pick in 0usize..16,
        kill_at in 0.0f64..1.0,
    ) {
        let cfg = ScenarioConfig::default()
            .with_crowd(crowd)
            .with_items(items)
            .with_seed(seed);
        let traces = mixed::record(&cfg).expect("record");
        let merged = merge_traces_with(&traces, CrowdMode::Shared).expect("shared merge");
        let serial = Reference::stream(&merged);
        // The authoritative project ids each trace's splits live under.
        let remaps = merged.remaps;

        // The disjoint reference: each scheme run standalone on its own
        // platform. Sharing the crowd must not change what any scheme
        // awards — only *who* holds the points.
        let standalone: Vec<_> = Scheme::all()
            .into_iter()
            .map(|s| run_scheme(s, &cfg).expect("standalone"))
            .collect();

        for shards in shard_counts(&[1, 2, 4]) {
            let config = Run::at(shards).capacity(16);
            let (clean, (reports, splits)) =
                config.run(|rt| stream_traces_shared(rt, &traces).expect("stream"));
            let replayed = assert_equivalent(&serial, &clean, "shared crowd")?;

            // Per-scheme split totals: ledger == streamed report ==
            // standalone disjoint run.
            for i in 0..traces.len() {
                prop_assert_eq!(
                    splits[i].total_points(), reports[i].points_awarded,
                    "scheme {} ledger diverges from its report", i
                );
                prop_assert_eq!(
                    reports[i].points_awarded, standalone[i].points_awarded,
                    "sharing the crowd changed scheme {}'s accounting", i
                );
            }

            // Partition: per-worker sums across all schemes reproduce the
            // shared platform's global leaderboard exactly.
            let mut by_worker: BTreeMap<WorkerId, i64> = BTreeMap::new();
            for split in &splits {
                for (w, pts) in &split.points {
                    *by_worker.entry(*w).or_insert(0) += pts;
                }
            }
            for (w, pts) in &by_worker {
                prop_assert_eq!(
                    *pts, replayed.points_of(*w),
                    "worker {} split sum diverges from points_of", w
                );
            }
            let platform_total: i64 = replayed
                .workers
                .iter_ids()
                .map(|w| replayed.points_of(w))
                .sum();
            prop_assert_eq!(
                by_worker.values().sum::<i64>(), platform_total,
                "splits do not partition the platform total at {} shards", shards
            );

            // Affinity-history split: the per-worker collab contributions
            // read off the owner shards match what a replay of the merged
            // journal derives per project.
            for (i, trace) in traces.iter().enumerate() {
                let mut collabs: BTreeMap<WorkerId, u64> = BTreeMap::new();
                for local in &trace.projects {
                    let project = remaps[i].project(*local);
                    for w in replayed.workers.iter_ids() {
                        let n = replayed.worker_collabs_in(project, w);
                        if n > 0 {
                            *collabs.entry(w).or_insert(0) += n;
                        }
                    }
                }
                prop_assert_eq!(
                    &collabs, &splits[i].collabs,
                    "scheme {} collab split diverges from the replay", i
                );
            }

            // Chaos: the very same shared stream with a shard killed at a
            // drawn fraction of its recorded applies in the fault-free
            // run, so anywhere in the stream; PR 9 recovery must keep it
            // identical to the fault-free run, slices and splits included.
            let shard = kill_pick % shards;
            let applies = clean.report.per_shard[shard].applied;
            let chaos = config.faults(FaultPlan::kill(shard, kill_point(applies, kill_at)));
            let (run, (_, chaos_splits)) =
                chaos.run(|rt| stream_traces_shared(rt, &traces).expect("chaos stream"));
            assert_equivalent(&Reference::run(&clean, serial.submitted as usize), &run, "chaos")?;
            for (a, b) in chaos_splits.iter().zip(&splits) {
                prop_assert_eq!(&a.points, &b.points, "chaos split points diverged");
                prop_assert_eq!(&a.collabs, &b.collabs, "chaos split collabs diverged");
            }
        }
    }
}

/// The shared merge's safety rails, pinned deterministically: traces
/// recorded over *different* populations refuse to share a crowd, and the
/// shared streamed run equals the serial shared composite on the smoke
/// config (the cheap always-on version of the property above).
#[test]
fn shared_merge_rejects_mismatched_populations() {
    let a = mixed::record(&ScenarioConfig::default().with_crowd(12).with_seed(7)).unwrap();
    let b = mixed::record(&ScenarioConfig::default().with_crowd(14).with_seed(7)).unwrap();
    let mixed_traces = vec![a[0].clone(), b[1].clone()];
    assert!(
        merge_traces_with(&mixed_traces, CrowdMode::Shared).is_err(),
        "unequal crowds must not merge as shared"
    );
}
