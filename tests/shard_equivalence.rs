//! Property: sharded execution is observationally identical to
//! single-threaded execution. For any multi-project event stream — worker
//! registrations, **re-registration churn and crowd bursts** (each a
//! broadcast: recorded on the coordinator, installed on every replica
//! from its mailbox), a project that screens eligibility with a CyLog
//! rule beside factor-screened ones, fact seeds, blind-guess
//! answers/interest/assignment on predictable project-strided task ids,
//! clock advances — a run through the `ShardedRuntime` at 1, 2 and 4
//! shards must:
//!
//! * drop exactly the events the single-threaded `apply_batch` path
//!   rejects (stale/invalid worker actions), and count them identically;
//! * produce a merged journal (per-shard streams stitched by global
//!   sequence number) byte-identical to the serial platform's journal;
//! * replay that journal to a byte-identical
//!   [`Crowd4U::state_dump`](crowd4u::core::platform::Crowd4U::state_dump).
//!
//! This extends the PR 2 batch-equivalence guarantee to parallel
//! execution. A second property extends it to **concurrent submission**:
//! ops fanned in from 4 producer threads through cloned `IngestGate`
//! handles (tiny mailboxes, blocking backpressure) must merge to a journal
//! byte-identical to a serial run in the gate's global-sequence order.
//! A third (PR 9) re-runs that fan-in under **chaos**: a random shard is
//! killed at a random applied-event count mid-fan-in and crash-recovered
//! by journal-slice replay — the same seq-order equivalence must hold,
//! with blocked submitters parked (not failed) across the rebuild.
//! Set `RUNTIME_SHARDS` to test an extra shard count (CI runs with
//! `RUNTIME_SHARDS=4`).

mod common;

use common::{build_events, crowd_task, op_events, raw_op, setup_events, team_crowd};
use crowd4u::core::controller::{
    candidates_from_profiles, constraints_from_factors, suggest_team, AlgorithmChoice,
};
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::core::task::TaskState;
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::runtime::prelude::*;
use crowd4u::storage::snapshot;
use crowd4u::telemetry::Registry;
use proptest::prelude::*;

fn chunked(events: &[PlatformEvent], batch: usize) -> Vec<Vec<PlatformEvent>> {
    events.chunks(batch.max(1)).map(|c| c.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn sharded_runs_replay_byte_identical_to_serial(
        n_projects in 2usize..4,
        items in 2usize..5,
        batch in 3usize..10,
        ops in proptest::collection::vec(
            raw_op(),
            0..40,
        ),
    ) {
        let events = build_events(n_projects, items, &ops);
        let batches = chunked(&events, batch);

        // Single-threaded reference: one batch, one drain — repeatedly.
        let mut serial = Crowd4U::new();
        let mut serial_dropped = 0u64;
        for b in &batches {
            let report = serial.apply_batch(b.clone()).unwrap();
            serial_dropped += report.errors.len() as u64;
        }
        let serial_journal = serial.journal().dump();
        let serial_dump = serial.state_dump();

        let mut shard_counts = vec![1usize, 2, 4];
        let env_shards = crowd4u::runtime::router::shards_from_env(0);
        if env_shards > 0 && !shard_counts.contains(&env_shards) {
            shard_counts.push(env_shards);
        }
        for shards in shard_counts {
            let rt = ShardedRuntime::new(RuntimeConfig {
                shards,
                drain_every: 0,
                mailbox_capacity: 1024,
                recovery: false,
            });
            for b in &batches {
                rt.submit_batch(b.clone());
                rt.drain();
            }
            let run = rt.finish().unwrap();

            // Identical drop accounting (stale-event parity).
            prop_assert_eq!(
                run.stats.dropped, serial_dropped,
                "dropped mismatch at {} shards", shards
            );
            prop_assert_eq!(
                run.stats.applied + run.stats.dropped,
                events.len() as u64,
                "event accounting mismatch at {} shards", shards
            );
            // Merged journal byte-identical to the serial journal…
            prop_assert_eq!(
                run.journal.dump(), serial_journal.clone(),
                "journal mismatch at {} shards", shards
            );
            // …and it replays to a byte-identical platform state.
            let replayed = Crowd4U::replay(&run.journal).unwrap();
            prop_assert_eq!(
                replayed.state_dump(), serial_dump.clone(),
                "state mismatch at {} shards", shards
            );
            // The merged journal is the run's only event history: every
            // slice handed back its entries to the ledger.
            prop_assert!(
                run.platforms.iter().all(|p| p.journal().is_empty()),
                "a slice kept journal entries at {} shards", shards
            );

            // Streaming mode: auto-drains put per-project `sync` entries
            // into the merged journal, so it is not the serial journal —
            // but it still accounts for every event, leaves no slice
            // journal behind, and replays to each owner slice's project.
            let rt = ShardedRuntime::new(RuntimeConfig {
                shards,
                drain_every: batch,
                mailbox_capacity: 1024,
                recovery: false,
            });
            rt.submit_batch(events.clone());
            rt.drain();
            let run = rt.finish().unwrap();
            prop_assert_eq!(
                run.stats.applied + run.stats.dropped,
                events.len() as u64,
                "streaming event accounting mismatch at {} shards", shards
            );
            prop_assert!(
                run.platforms.iter().all(|p| p.journal().is_empty()),
                "a streaming slice kept journal entries at {} shards", shards
            );
            let replayed = Crowd4U::replay(&run.journal).unwrap();
            for id in replayed.project_ids() {
                let owner = &run.platforms[(id.0 as usize - 1) % shards];
                prop_assert_eq!(
                    snapshot::dump(replayed.project(id).unwrap().engine.database()),
                    snapshot::dump(owner.project(id).unwrap().engine.database()),
                    "streaming replay of project {} diverges at {} shards", id, shards
                );
            }
        }
    }

    /// The gate extension of the property: the same guarantees hold when
    /// the ops are *fanned in from 4 concurrent submitter threads* through
    /// cloned `IngestGate` handles, with a small mailbox capacity so the
    /// blocking backpressure path is exercised. The serial reference
    /// applies the events in the gate's global-sequence order (each
    /// thread records the seq `submit` returned), so this also proves the
    /// stamp-inside-the-shard-lock ordering rule: every mailbox is
    /// delivered in seq order even under contention.
    #[test]
    fn concurrent_submitters_replay_byte_identical_to_seq_order_serial(
        n_projects in 2usize..5,
        items in 2usize..4,
        ops in proptest::collection::vec(
            raw_op(),
            4..48,
        ),
    ) {
        const SUBMITTERS: usize = 4;
        let setup = setup_events(n_projects, items);

        for shards in [2usize, 4] {
            let rt = ShardedRuntime::new(RuntimeConfig {
                shards,
                drain_every: 0,
                mailbox_capacity: 8, // tiny: force blocking backpressure
                recovery: false,
            });
            rt.submit_batch(setup.clone());
            rt.drain();

            // Fan the ops in round-robin over 4 submitter threads; each
            // thread keeps (seq, event) for the serial reference.
            let mut streams: Vec<Vec<PlatformEvent>> = vec![Vec::new(); SUBMITTERS];
            for (k, op) in ops.iter().enumerate() {
                streams[k % SUBMITTERS].extend(op_events(n_projects, items, op));
            }
            let submitted: usize = streams.iter().map(Vec::len).sum();
            let handles: Vec<_> = streams
                .into_iter()
                .map(|stream| {
                    let gate = rt.gate();
                    std::thread::spawn(move || {
                        stream
                            .into_iter()
                            .map(|e| (gate.submit(e.clone()).expect("runtime alive"), e))
                            .collect::<Vec<(u64, PlatformEvent)>>()
                    })
                })
                .collect();
            let mut stamped: Vec<(u64, PlatformEvent)> = Vec::new();
            for h in handles {
                stamped.extend(h.join().expect("submitter thread"));
            }
            rt.drain();
            let run = rt.finish().unwrap();

            // Serial reference: the same events in global-sequence order.
            stamped.sort_by_key(|(seq, _)| *seq);
            let ordered: Vec<PlatformEvent> =
                stamped.into_iter().map(|(_, e)| e).collect();
            let mut serial = Crowd4U::new();
            let mut dropped = serial.apply_batch(setup.clone()).unwrap().errors.len() as u64;
            dropped += serial.apply_batch(ordered).unwrap().errors.len() as u64;

            prop_assert_eq!(
                run.stats.dropped, dropped,
                "dropped mismatch at {} shards", shards
            );
            prop_assert_eq!(
                run.stats.applied + run.stats.dropped,
                (setup.len() + submitted) as u64,
                "event accounting mismatch at {} shards", shards
            );
            prop_assert_eq!(
                run.journal.dump(), serial.journal().dump(),
                "journal mismatch at {} shards", shards
            );
            let replayed = Crowd4U::replay(&run.journal).unwrap();
            prop_assert_eq!(
                replayed.state_dump(), serial.state_dump(),
                "state mismatch at {} shards", shards
            );
            prop_assert!(
                run.platforms.iter().all(|p| p.journal().is_empty()),
                "a slice kept journal entries at {} shards", shards
            );
        }
    }

    /// Chaos extension (PR 9): the same 4-submitter fan-in with a random
    /// single-shard kill point injected mid-stream. The killed shard is
    /// crash-recovered by journal-slice replay while producers park on the
    /// recovering mailbox, so every accepted event still lands exactly
    /// once and the merged journal equals the seq-order serial reference —
    /// the crash is observationally invisible even under concurrent
    /// submission and backpressure.
    #[test]
    fn concurrent_submitters_survive_a_random_shard_kill(
        n_projects in 2usize..5,
        items in 2usize..4,
        ops in proptest::collection::vec(
            raw_op(),
            8..40,
        ),
        kill_pick in 0usize..16,
        kill_after in 1u64..8,
    ) {
        const SUBMITTERS: usize = 4;
        let setup = setup_events(n_projects, items);

        for shards in [2usize, 4] {
            let rt = ShardedRuntime::new_chaos_instrumented(RuntimeConfig {
                    shards,
                    drain_every: 0,
                    mailbox_capacity: 8, // tiny: backpressure + recovery holds
                    recovery: true,
                },
                Registry::new(),
                FaultPlan::kill(kill_pick % shards, kill_after),
            );
            rt.submit_batch(setup.clone());
            rt.drain();

            let mut streams: Vec<Vec<PlatformEvent>> = vec![Vec::new(); SUBMITTERS];
            for (k, op) in ops.iter().enumerate() {
                streams[k % SUBMITTERS].extend(op_events(n_projects, items, op));
            }
            let submitted: usize = streams.iter().map(Vec::len).sum();
            let handles: Vec<_> = streams
                .into_iter()
                .map(|stream| {
                    let gate = rt.gate();
                    std::thread::spawn(move || {
                        stream
                            .into_iter()
                            .map(|e| (gate.submit(e.clone()).expect("runtime alive"), e))
                            .collect::<Vec<(u64, PlatformEvent)>>()
                    })
                })
                .collect();
            let mut stamped: Vec<(u64, PlatformEvent)> = Vec::new();
            for h in handles {
                stamped.extend(h.join().expect("submitter thread"));
            }
            rt.drain();
            let run = rt.finish().unwrap();

            stamped.sort_by_key(|(seq, _)| *seq);
            let ordered: Vec<PlatformEvent> =
                stamped.into_iter().map(|(_, e)| e).collect();
            let mut serial = Crowd4U::new();
            let mut dropped = serial.apply_batch(setup.clone()).unwrap().errors.len() as u64;
            dropped += serial.apply_batch(ordered).unwrap().errors.len() as u64;

            prop_assert_eq!(
                run.stats.dropped, dropped,
                "dropped mismatch at {} shards (chaos)", shards
            );
            prop_assert_eq!(
                run.stats.applied + run.stats.dropped,
                (setup.len() + submitted) as u64,
                "event accounting mismatch at {} shards (chaos)", shards
            );
            prop_assert_eq!(
                run.journal.dump(), serial.journal().dump(),
                "journal mismatch at {} shards (chaos)", shards
            );
            let replayed = Crowd4U::replay(&run.journal).unwrap();
            prop_assert_eq!(
                replayed.state_dump(), serial.state_dump(),
                "state mismatch at {} shards (chaos)", shards
            );
            prop_assert!(
                run.platforms.iter().all(|p| p.journal().is_empty()),
                "a slice kept journal entries at {} shards (chaos)", shards
            );
        }
    }
}

/// The team op tells the algorithms apart: run serially, project 1 suggests
/// the team Greedy forms over the team crowd, and LocalSearch would form
/// another. A replica or a replay that read project 1's algorithm wrong
/// would therefore suggest a different team, and refuse the undertaking of
/// a member of the right one.
#[test]
fn the_team_op_forms_greedys_team_not_local_searchs() {
    let mut events = setup_events(2, 2);
    events.extend(op_events(2, 2, &(10, 0, 2, 1, "a".into(), false)));
    let mut serial = Crowd4U::new();
    let report = serial.apply_batch(events).unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let TaskState::Suggested {
        team, undertaken, ..
    } = &serial.pool().get(crowd_task()).unwrap().state
    else {
        panic!("the crowd task holds no team");
    };

    let crowd = team_crowd();
    let ids: Vec<_> = crowd.iter().map(|p| p.id).collect();
    let profiles: Vec<_> = crowd.iter().collect();
    let affinity = serial.workers.candidate_affinity(&ids);
    let constraints = constraints_from_factors(&DesiredFactors {
        min_team: 4,
        max_team: 6,
        ..Default::default()
    });
    let form = |algorithm| {
        let candidates = candidates_from_profiles(&profiles, None);
        let mut members = suggest_team(algorithm, &candidates, &affinity, &constraints)
            .unwrap()
            .members;
        members.sort();
        members
    };
    let mut suggested = team.clone();
    suggested.sort();
    assert_eq!(suggested, form(AlgorithmChoice::Greedy));
    assert_ne!(suggested, form(AlgorithmChoice::LocalSearch));
    assert_eq!(
        undertaken,
        &vec![crowd[2].id],
        "the third of the crowd is Greedy's"
    );
}

/// The replica-sweep op sweeps on a replica: at 2 and 4 shards project 2
/// lives on shard 1, which suggests its team and then misses the team's
/// deadline on its copy of the clock that shard 0 records. The serial
/// platform misses the same one deadline, and the merged journal is its.
#[test]
fn the_replica_sweep_op_misses_a_deadline_on_shard_1() {
    let mut events = setup_events(2, 2);
    events.extend(op_events(2, 2, &(10, 0, 2, 1, "a".into(), true)));
    let mut serial = Crowd4U::new();
    let report = serial.apply_batch(events.clone()).unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(serial.counters().deadlines_missed, 1);
    for shards in [2usize, 4] {
        let rt = ShardedRuntime::new(RuntimeConfig {
            shards,
            drain_every: 0,
            mailbox_capacity: 1024,
            recovery: false,
        });
        rt.submit_batch(events.clone());
        rt.drain();
        let run = rt.finish().unwrap();
        let missed: Vec<u64> = run
            .platforms
            .iter()
            .map(|p| p.counters().deadlines_missed)
            .collect();
        assert_eq!(missed[..2], [0, 1], "{shards} shards");
        assert_eq!(run.journal.dump(), serial.journal().dump());
    }
}
