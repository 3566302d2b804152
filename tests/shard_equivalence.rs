//! Property: sharded execution is observationally identical to
//! single-threaded execution. For any multi-project event stream — worker
//! registrations, **re-registration churn and crowd bursts** (broadcasts:
//! recorded on the coordinator, filed as a copy on every replica), a
//! project that screens eligibility with a CyLog rule beside
//! factor-screened ones, fact seeds, blind-guess answers, interest and
//! assignments on predictable project-strided task ids, clock advances —
//! a run through the `ShardedRuntime` at 1, 2 and 4 shards (plus
//! `RUNTIME_SHARDS`) equals the serial `apply_batch` path by the
//! `tests/common` oracle: the same drops, and a byte-identical merged
//! journal and replayed `state_dump()`. In streaming mode it equals the
//! same stream streamed through other mailboxes with telemetry off.
//!
//! A second property extends this to **concurrent submission**: ops fanned
//! in from 4 producer threads through cloned `IngestGate` handles (tiny
//! mailboxes, blocking backpressure) equal a serial run in the gate's
//! global-sequence order. A third (PR 9) re-runs that fan-in under
//! **chaos**: a random shard is killed anywhere in the stream and
//! crash-recovered by journal-slice replay, with blocked submitters parked
//! (not failed) across the rebuild.

mod common;

use common::*;
use crowd4u::core::controller::{
    candidates_from_profiles, constraints_from_factors, suggest_team, AlgorithmChoice,
};
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::core::task::TaskState;
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::runtime::prelude::*;
use proptest::prelude::*;

/// At every shard count: `batch`-sized batches, each drained, against the
/// serial platform; then the whole stream in streaming mode (auto-drains
/// every `batch` events, so the merged journal holds per-project `sync`
/// entries and is not the serial journal) through 8-slot mailboxes with
/// telemetry off, against the same stream streamed through 1 024-slot
/// mailboxes with telemetry on.
fn serial_property(
    n_projects: usize,
    items: usize,
    batch: usize,
    ops: &[RawOp],
) -> Result<(), TestCaseError> {
    let events = build_events(n_projects, items, ops);
    let batches: Vec<_> = events.chunks(batch).map(<[_]>::to_vec).collect();
    let serial = Reference::serial(&batches);
    let whole = [events.clone()];
    for shards in shard_counts(&[1, 2, 4]) {
        assert_equivalent(&serial, &Run::at(shards).batches(&batches).0, "coordinated")?;
        let streaming = Run::at(shards).drain_every(batch);
        let streamed = Reference::run(&streaming.batches(&whole).0, events.len());
        let run = streaming.capacity(8).telemetry(Telemetry::Off);
        assert_equivalent(&streamed, &run.batches(&whole).0, "streaming")?;
    }
    Ok(())
}

/// The set-up drained, then the ops fanned in from 4 submitter threads
/// through 8-slot mailboxes (blocking backpressure), against the serial
/// platform applying the same events in the gate's global-sequence order.
/// `faults` picks a run's fault plan from its shard count and the batches.
fn fan_in_property(
    n_projects: usize,
    items: usize,
    ops: &[RawOp],
    faults: impl Fn(usize, &[Vec<PlatformEvent>]) -> FaultPlan,
) -> Result<(), TestCaseError> {
    let mut batches = vec![setup_events(n_projects, items)];
    batches.extend(ops.iter().map(|op| op_events(n_projects, items, op)));
    for shards in shard_counts(&[2, 4]) {
        let config = Run::at(shards).capacity(8).submitters(4);
        let (run, sequenced) = config.faults(faults(shards, &batches)).batches(&batches);
        assert_equivalent(&Reference::serial(&sequenced), &run, "4 submitters")?;
    }
    Ok(())
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
        shrinking(&ops, |ops| serial_property(n_projects, items, batch, ops))?;
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
        shrinking(&ops, |ops| {
            fan_in_property(n_projects, items, ops, |_, _| FaultPlan::none())
        })?;
    }

    /// Chaos extension (PR 9): the same 4-submitter fan-in with a random
    /// single-shard kill point injected mid-stream. The killed shard is
    /// crash-recovered by journal-slice replay while producers park on the
    /// recovering mailbox, so every accepted event still lands exactly
    /// once and the merged journal equals the seq-order serial reference —
    /// the crash is observationally invisible even under concurrent
    /// submission and backpressure. The kill point is a fraction of the
    /// events the stream routes to the shard's recorder, so it can land
    /// anywhere in the stream (a point past the shard's recorded applies,
    /// which leave out its drops, is a fault-free run).
    #[test]
    fn concurrent_submitters_survive_a_random_shard_kill(
        n_projects in 2usize..5,
        items in 2usize..4,
        ops in proptest::collection::vec(
            raw_op(),
            8..40,
        ),
        kill_pick in 0usize..16,
        kill_at in 0.0f64..1.0,
    ) {
        shrinking(&ops, |ops| {
            fan_in_property(n_projects, items, ops, |shards, batches| {
                let shard = kill_pick % shards;
                let routed = routed_to(batches.iter().flatten(), shard, shards);
                FaultPlan::kill(shard, kill_point(routed, kill_at))
            })
        })?;
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
    let reference = Reference::of(&serial, 0, events.len());
    for shards in [2usize, 4] {
        let (run, _) = Run::at(shards).batches(&[events.clone()]);
        expect_equivalent(&reference, &run, "replica sweep");
        let missed: Vec<u64> = run
            .report
            .platforms
            .iter()
            .map(|p| p.counters().deadlines_missed)
            .collect();
        assert_eq!(missed[..2], [0, 1], "{shards} shards");
    }
}
