//! Shared-crowd marketplace property (PR 10 tentpole): one worker
//! population serving all three §2.5 applications at once is
//! **observationally identical** to the serial shared composite, and its
//! per-scenario accounting **partitions** the platform totals exactly.
//!
//! For a generated config, the three schemes' traces (recorded over the
//! same seeded population) merged in [`CrowdMode::Shared`] and streamed
//! through the gate must, at 1, 2 and 4 shards (plus `RUNTIME_SHARDS`):
//!
//! * produce a merged journal **byte-identical** to
//!   `stream::apply_stream` of the same shared merge on one platform,
//!   and a replay with a byte-identical `state_dump()`;
//! * split each shared worker's points per scenario such that every
//!   scheme's ledger sums to that scheme's report total, equal to the
//!   scheme's **standalone disjoint run** (sharing a crowd must not leak
//!   accounting across applications), and the per-worker sums across
//!   schemes reproduce the platform's `points_of` exactly — no point
//!   counted twice, none lost;
//! * report per-worker collab contributions that match the replayed
//!   platform's `worker_collabs_in` counters (the affinity-history split);
//! * and survive **chaos**: the same stream with a seed-derived shard
//!   kill mid-stream (PR 9 recovery) stays byte-identical, splits
//!   included.
//!
//! CI replays this file under `RUNTIME_SHARDS=4` with a pinned
//! `PROPTEST_SEED`.

use crowd4u::collab::Scheme;
use crowd4u::core::error::WorkerId;
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::prelude::*;
use crowd4u::scenarios::stream::{apply_stream, merge_traces_with, CrowdMode, ScenarioTrace};
use crowd4u::scenarios::{mixed, run_scheme, ScenarioConfig};
use crowd4u::telemetry::Registry;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    let env = crowd4u::runtime::router::shards_from_env(0);
    if env > 0 && !counts.contains(&env) {
        counts.push(env);
    }
    counts
}

fn config(shards: usize, recovery: bool) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 16,
        recovery,
    }
}

/// Serial reference: the shared-crowd merge applied by one thread to one
/// platform. Returns (journal dump, state dump, dropped). The scenarios
/// run the default `LocalSearch` algorithm, which is also what a fresh
/// (and crash-rebuilt) shard slice carries — chaos recovery replays the
/// shard's ledger onto a default slice, so the test pins the config's
/// algorithm to the default.
fn serial_shared_reference(traces: &[ScenarioTrace]) -> (String, String, u64) {
    let merged = merge_traces_with(traces, CrowdMode::Shared).expect("shared merge");
    let mut platform = Crowd4U::new();
    let dropped = apply_stream(&mut platform, &merged).expect("serial apply");
    (platform.journal().dump(), platform.state_dump(), dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn shared_crowd_streams_replay_identically_and_split_exactly(
        crowd in 12usize..22,
        items in 1usize..3,
        seed in 0u64..1000,
        kill_pick in 0usize..16,
        kill_after in 1u64..8,
    ) {
        let cfg = ScenarioConfig::default()
            .with_crowd(crowd)
            .with_items(items)
            .with_seed(seed);
        let traces = mixed::record(&cfg).expect("record");
        let (serial_journal, serial_dump, serial_dropped) = serial_shared_reference(&traces);
        // The authoritative project ids each trace's splits live under.
        let remaps = merge_traces_with(&traces, CrowdMode::Shared)
            .expect("shared merge")
            .remaps;

        // The disjoint reference: each scheme run standalone on its own
        // platform. Sharing the crowd must not change what any scheme
        // awards — only *who* holds the points.
        let standalone: Vec<_> = Scheme::all()
            .into_iter()
            .map(|s| run_scheme(s, &cfg).expect("standalone"))
            .collect();

        for shards in shard_counts() {
            let rt = ShardedRuntime::new(config(shards, false));
            let (reports, splits) =
                crowd4u::runtime::scenario::stream_traces_shared(&rt, &traces).expect("stream");
            let run = rt.finish().expect("finish");
            prop_assert_eq!(
                run.stats.dropped, serial_dropped,
                "dropped mismatch at {} shards", shards
            );
            prop_assert_eq!(
                run.journal.dump(), serial_journal.clone(),
                "journal mismatch at {} shards", shards
            );
            let replayed = Crowd4U::replay(&run.journal).expect("replay");
            prop_assert_eq!(
                replayed.state_dump(), serial_dump.clone(),
                "state mismatch at {} shards", shards
            );

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

            // Chaos: the very same shared stream with a seed-derived kill
            // mid-stream; PR 9 recovery must keep it byte-identical,
            // splits included.
            let plan = FaultPlan::kill(kill_pick % shards, kill_after);
            let rt = ShardedRuntime::new_chaos_instrumented(config(shards, true), Registry::new(), plan);
            let (_, chaos_splits) =
                crowd4u::runtime::scenario::stream_traces_shared(&rt, &traces).expect("chaos stream");
            let run = rt.finish().expect("chaos finish");
            prop_assert_eq!(
                run.journal.dump(), serial_journal.clone(),
                "chaos journal mismatch at {} shards", shards
            );
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
