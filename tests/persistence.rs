//! Persistence: a project's CyLog database snapshots to text mid-run and
//! resumes in a fresh engine without losing human answers; and the whole
//! platform restores deterministically by replaying its event journal.

use crowd4u::collab::Scheme;
use crowd4u::core::prelude::*;
use crowd4u::crowd::profile::{WorkerId, WorkerProfile};
use crowd4u::cylog::engine::CylogEngine;
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::sim::time::SimTime;
use crowd4u::storage::prelude::*;
use crowd4u::storage::snapshot;

const SRC: &str = "\
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";

#[test]
fn project_database_snapshot_round_trip_mid_run() {
    let mut engine = CylogEngine::from_source(SRC).unwrap();
    for s in ["a", "b", "c"] {
        engine.add_fact("sentence", vec![s.into()]).unwrap();
    }
    engine.run().unwrap();
    engine
        .answer("translate", vec!["a".into()], vec!["A".into()], Some(1))
        .unwrap();
    engine.run().unwrap();
    assert_eq!(engine.fact_count("published").unwrap(), 1);
    assert_eq!(engine.pending_requests().len(), 2);

    // Snapshot the fact store.
    let text = snapshot::dump(engine.database());

    // A fresh engine from the same program ingests the snapshot's base and
    // open facts (derived facts are recomputed, so skipping them is safe).
    let restored = snapshot::load(&text).unwrap();
    let mut engine2 = CylogEngine::from_source(SRC).unwrap();
    for rel in ["sentence", "translate"] {
        for row in restored.relation(rel).unwrap().iter() {
            let vals: Vec<Value> = row.values().to_vec();
            if rel == "sentence" {
                engine2.add_fact(rel, vals).unwrap();
            } else {
                let inputs = vals[..1].to_vec();
                let outputs = vals[1..].to_vec();
                engine2.answer(rel, inputs, outputs, None).unwrap();
            }
        }
    }
    engine2.run().unwrap();

    // Identical derived state and identical remaining work.
    assert_eq!(engine2.fact_count("published").unwrap(), 1);
    assert_eq!(engine2.pending_requests().len(), 2);
    let mut a = engine.facts("published").unwrap().rows;
    let mut b = engine2.facts("published").unwrap().rows;
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn snapshot_file_round_trip() {
    let mut engine = CylogEngine::from_source(SRC).unwrap();
    engine.add_fact("sentence", vec!["x".into()]).unwrap();
    engine.run().unwrap();
    let dir = std::env::temp_dir().join("crowd4u_it_persistence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("project.snapshot");
    snapshot::save_to_file(engine.database(), &path).unwrap();
    let loaded = snapshot::load_from_file(&path).unwrap();
    assert_eq!(snapshot::dump(&loaded), snapshot::dump(engine.database()));
    std::fs::remove_file(path).ok();
}

/// Drive a platform through a full mixed workload — registrations, project
/// setup, seeded facts, batched answers, team formation, deadlines,
/// completion — then replay its journal from its text form and check the
/// restored platform is indistinguishable: relations, every project
/// database, points ledgers and pending queues byte-identical.
#[test]
fn event_journal_replay_round_trip() {
    let mut live = Crowd4U::new();
    live.max_reassignments = 2;
    for i in 1..=5u64 {
        live.register_worker(WorkerProfile::new(WorkerId(i), format!("w{i}")));
    }
    let proj = live
        .register_project(
            "demo",
            SRC,
            DesiredFactors {
                min_team: 2,
                max_team: 3,
                recruitment_secs: 300,
                ..Default::default()
            },
            Scheme::Sequential,
        )
        .unwrap();
    // Batched seeding + one drain.
    let seeds: Vec<PlatformEvent> = ["a", "b", "c", "d"]
        .iter()
        .map(|s| PlatformEvent::FactSeeded {
            project: proj,
            pred: "sentence".into(),
            values: vec![(*s).into()],
        })
        .collect();
    live.apply_batch(seeds).unwrap();
    // Batched answers for half the open questions.
    let answer_events: Vec<PlatformEvent> = live
        .pool
        .open_tasks(Some(proj))
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, t)| PlatformEvent::AnswerSubmitted {
            worker: WorkerId(1 + i as u64),
            task: t.id,
            outputs: vec![format!("T{i}").into()],
        })
        .collect();
    live.apply_batch(answer_events).unwrap();
    // A collaborative task through the five-step workflow with one missed
    // deadline on the way.
    let collab = live.create_collab_task(proj, "subtitle").unwrap();
    for i in 1..=4 {
        live.express_interest(WorkerId(i), collab).unwrap();
    }
    let team = live.run_assignment(collab).unwrap();
    live.undertake(team.members[0], collab).unwrap();
    live.advance_to(SimTime(301)).unwrap(); // deadline miss → re-assignment
    if let TaskState::Suggested { team, .. } = live.pool.get(collab).unwrap().state.clone() {
        for m in team {
            live.undertake(m, collab).unwrap();
        }
    }
    if matches!(
        live.pool.get(collab).unwrap().state,
        TaskState::InProgress { .. }
    ) {
        live.record_activity(
            match &live.pool.get(collab).unwrap().state {
                TaskState::InProgress { team } => team[0],
                _ => unreachable!(),
            },
            collab,
        )
        .unwrap();
        live.complete_collab_task(collab, 0.85).unwrap();
    }

    // Journal → text file → journal → replay.
    let dir = std::env::temp_dir().join("crowd4u_it_journal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("platform.journal");
    live.journal().save_to_file(&path).unwrap();
    let journal = EventJournal::load_from_file(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut base = Crowd4U::new();
    base.max_reassignments = 2; // configuration is not an event
    let restored = Crowd4U::replay_with(&journal, base).unwrap();

    // Byte-identical relations and project databases.
    assert_eq!(live.relations.dump(), restored.relations.dump());
    assert_eq!(
        snapshot::dump(live.project(proj).unwrap().engine.database()),
        snapshot::dump(restored.project(proj).unwrap().engine.database())
    );
    // Identical pending queues and points.
    assert_eq!(
        live.project(proj).unwrap().engine.pending_requests(),
        restored.project(proj).unwrap().engine.pending_requests()
    );
    for i in 1..=5u64 {
        assert_eq!(live.points_of(WorkerId(i)), restored.points_of(WorkerId(i)));
    }
    // Identical pool, clock, counters and monitor verdicts.
    assert_eq!(live.pool.state_counts(), restored.pool.state_counts());
    assert_eq!(live.now(), restored.now());
    assert_eq!(live.collaboration_health(), restored.collaboration_health());
    // And the replayed journal is byte-identical to the source journal.
    assert_eq!(restored.journal().dump(), live.journal().dump());
}

#[test]
fn snapshot_is_canonical_and_stable() {
    let mut engine = CylogEngine::from_source(SRC).unwrap();
    for s in ["m", "n"] {
        engine.add_fact("sentence", vec![s.into()]).unwrap();
    }
    engine.run().unwrap();
    let d1 = snapshot::dump(engine.database());
    // Re-running evaluation does not change the canonical dump (derived
    // facts are recomputed identically).
    engine.run().unwrap();
    let d2 = snapshot::dump(engine.database());
    assert_eq!(d1, d2);
    // load→dump is the identity on canonical snapshots
    assert_eq!(snapshot::dump(&snapshot::load(&d1).unwrap()), d1);
}
