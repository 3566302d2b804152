//! Crash-recovery property (PR 9): killing a shard mid-run and replaying
//! it back is **observationally invisible**. For a generated multi-project
//! event stream, a run at 1, 2 and 4 shards (plus `RUNTIME_SHARDS`) with a
//! shard killed after its k-th recorded apply — k a drawn fraction of the
//! shard's recorded applies in the fault-free run, so anywhere in the
//! stream, and in most cases a second kill on another shard — must equal
//! the fault-free run by the `tests/common` oracle, slice by slice (a
//! replica's filed copies of registrations and clocks are in no journal,
//! so only its slice shows them). The [`FaultPlan`] derives from the
//! proptest seed, so `PROPTEST_SEED` replays the exact crash schedule.
//!
//! The same holds for a kill *inside* the apply (PR 10: the supervisor's
//! in-flight slot redoes the popped-but-unledgered event, pinned by
//! [`a_mid_apply_crash_keeps_the_popped_event`]); in **streaming mode**
//! (auto-drains every three events a shard applies) against the fault-free
//! streaming run, so a rebuilt shard keeps its auto-drain phase; and with
//! a **hot project migration** between the two halves of the stream.
//! Shard count 1 exercises coordinator death; the others replica death,
//! rebuilt from the registration copies the replica filed in its own
//! ledger slot — the generator's crowd bursts and the two
//! `churn_beside_a_live_project` regressions below file hundreds.

mod common;

use common::*;
use crowd4u::core::error::{ProjectId, TaskId};
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::prelude::*;
use crowd4u::sim::time::SimTime;
use proptest::prelude::*;

/// The stream in two drained halves at every shard count. The fault-free
/// run is checked against the serial platform and then stands as the
/// reference, slice by slice, for the same stream with a shard killed at
/// `kill` (and another at `second`), each a shard pick and a fraction of
/// the shard's recorded applies: at an event boundary and inside the
/// apply, in coordinated and in streaming mode (against the fault-free
/// streaming run), and with one project migrated to the next shard
/// between the halves.
fn recovery_property(
    (n_projects, items, split): (usize, usize, usize),
    ops: &[RawOp],
    kill: (usize, f64),
    second: Option<(usize, f64)>,
    migrate_pick: usize,
) -> Result<(), TestCaseError> {
    let events = build_events(n_projects, items, ops);
    let cut = (events.len() * split / 8).min(events.len());
    let halves = [events[..cut].to_vec(), events[cut..].to_vec()];
    let serial = Reference::serial(&halves);
    for shards in shard_counts(&[1, 2, 4]) {
        let (clean, _) = Run::at(shards).batches(&halves);
        assert_equivalent(&serial, &clean, "fault-free")?;
        let reference = Reference::run(&clean, events.len());

        // Each kill point is a fraction of the shard's recorded applies in
        // the fault-free run, so it can land anywhere in the stream; the
        // second kill is on another shard.
        let applies = |shard: usize| clean.report.per_shard[shard].applied;
        let s1 = kill.0 % shards;
        let mut kills = vec![(s1, kill_point(applies(s1), kill.1))];
        if let Some((pick, fraction)) = second.filter(|_| shards > 1) {
            let s2 = (s1 + 1 + pick % (shards - 1)) % shards;
            kills.push((s2, kill_point(applies(s2), fraction)));
        }
        // Mid-apply: the same kill points, firing *inside* the apply — the
        // event was popped from the mailbox and is not yet in the ledger,
        // and the supervisor's in-flight redo must make it invisible.
        let (plan, mid) = kills.iter().fold(
            (FaultPlan::none(), FaultPlan::none()),
            |(plan, mid), &(s, k)| (plan.and_kill(s, k), mid.and_kill_mid(s, k)),
        );
        for (faults, leg) in [(plan.clone(), "fault"), (mid.clone(), "mid-apply fault")] {
            let (run, _) = Run::at(shards).faults(faults).batches(&halves);
            assert_equivalent(&reference, &run, leg)?;
        }

        // Streaming mode: the shard's auto-drain phase is in its ledger
        // slot, so a rebuilt shard places its next auto-drain where the
        // dead one would have.
        let streamed = Reference::run(
            &Run::at(shards).drain_every(3).batches(&halves).0,
            events.len(),
        );
        for (faults, leg) in [
            (plan.clone(), "streaming fault"),
            (mid, "streaming mid-apply fault"),
        ] {
            let (run, _) = Run::at(shards)
                .faults(faults)
                .drain_every(3)
                .batches(&halves);
            assert_equivalent(&streamed, &run, leg)?;
        }

        // Fault + migrate: a split that cuts before the project's
        // registration meets an unknown project, and the migration is
        // refused; the run must be as unperturbed by that as by a move.
        if shards > 1 {
            let project = ProjectId((migrate_pick % n_projects) as u64 + 1);
            let registered = halves[0]
                .iter()
                .filter(|e| matches!(e, PlatformEvent::ProjectRegistered { .. }))
                .count() as u64
                >= project.0;
            let to = (project.0 as usize) % shards;
            let config = Run::at(shards).faults(plan);
            let (run, _) = config.migrate(Some((project, to))).batches(&halves);
            prop_assert_eq!(run.moved.is_some(), registered, "{}", run.label);
            assert_equivalent(&reference, &run, "fault+migrate")?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn killed_shards_recover_and_migrate_to_byte_identical_journals(
        n_projects in 2usize..4,
        items in 2usize..4,
        split in 2usize..8,
        ops in proptest::collection::vec(raw_op(), 6..32),
        kill_pick in 0usize..16,
        kill_at in 0.0f64..1.0,
        migrate_pick in 0usize..16,
        second in proptest::option::of((0usize..16, 0.0f64..1.0)),
    ) {
        shrinking(&ops, |ops| {
            recovery_property((n_projects, items, split), ops, (kill_pick, kill_at), second, migrate_pick)
        })?;
    }
}

/// PR 9 residue, pinned: an *injected* fault always fired on a ledgered
/// boundary, so recovery never had to face the real crash shape — a panic
/// in the middle of `apply_event`, when the event has been popped from
/// the mailbox but not yet ledgered. Before the in-flight redo, that one
/// event silently vanished: the merged journal was short one entry and
/// the replayed state diverged from the clean run.
#[test]
fn a_mid_apply_crash_keeps_the_popped_event() {
    let events = [setup_events(2, 3)];
    let serial = Reference::serial(&events);
    assert_eq!(serial.dropped, 0);
    for shards in [1usize, 2] {
        // Kill the coordinator inside its 4th recorded apply — well within
        // the 6 registrations it records, so the fault always fires.
        let config = Run::at(shards).faults(FaultPlan::kill_mid_apply(0, 4));
        let (run, _) = config.batches(&events);
        expect_equivalent(&serial, &run, "mid-apply crash");
    }
}

/// A mid-apply kill landing on the recorder's registration — a first
/// registration, and a re-registration — with recovery on. The in-flight
/// slot holds a clone of the registration's shared `Arc`, and the redo
/// registers it once: the merged journal equals the serial one, and every
/// slice's registry stands at the serial registry's size and version.
#[test]
fn a_mid_apply_crash_on_a_registration_redoes_it_once() {
    // Six registrations, the last two re-registering workers 1 and 2,
    // then a project: the coordinator's first six recorded applies are
    // the registrations.
    let mut events: Vec<PlatformEvent> = (1..=6u64)
        .map(|r| worker(if r > 4 { r - 4 } else { r }, format!("r{r}")))
        .collect();
    events.push(project("after"));

    let mut serial = Crowd4U::new();
    let report = serial.apply_batch(events.clone()).unwrap();
    assert!(report.errors.is_empty());
    let want = (serial.workers.len(), serial.workers.version());
    let reference = Reference::of(&serial, 0, events.len());
    let events = [events];

    for shards in [1usize, 2, 4] {
        for nth in [1, 5] {
            let config = Run::at(shards).faults(FaultPlan::kill_mid_apply(0, nth));
            let (run, _) = config.batches(&events);
            let label = format!("kill inside apply {nth} at {shards} shards");
            let recoveries = run.metrics.counter_total("crowd4u_recoveries_total");
            assert_eq!(recoveries, 1, "{label}");
            expect_equivalent(&reference, &run, &label);
            for (shard, p) in run.report.platforms.iter().enumerate() {
                let held = (p.workers.len(), p.workers.version());
                assert_eq!(held, want, "{label}: shard {shard}");
            }
        }
    }
}

/// Characterisation (PR 10 satellite): a migrated-away project leaves
/// **no shell at the live source** — `extract_project` removes it
/// entirely, so the source answers `UnknownProject` — but a source that
/// later crashes and recovers regains the *empty broadcast shell* every
/// non-owner holds: the Global `ProjectRegistered` replays from its
/// ledger while the project-scoped history is filtered to the current
/// owner. Both shapes hold zero task/fact residue, and neither perturbs
/// the merged journal.
#[test]
fn migrated_away_projects_leave_no_source_residue_even_across_recovery() {
    let events = [setup_events(2, 3)];
    let serial = Reference::serial(&events);

    // Recovery on: a job panic crashes the source below.
    let (mut run, ()) = Run::at(2).recovery(true).run(|rt| {
        rt.submit_batch(events[0].clone());
        rt.drain();

        // Project 1 lives on shard 0; push it to shard 1.
        assert_eq!(rt.owner_of(ProjectId(1)), 0);
        let moved = rt.migrate_project(ProjectId(1), 1).unwrap();
        assert!(moved > 0, "the seeded project should carry tasks");

        // Live source: no shell at all — the project is simply gone.
        let gone = rt
            .submit_job(0, |p| p.project(ProjectId(1)).is_err())
            .recv()
            .unwrap();
        assert!(gone, "live source still knows the migrated project");

        // Crash the old owner (a job panic is a genuine, non-injected
        // crash shape) and let the supervisor rebuild it from the ledger.
        // The next query queues behind the held mailbox, so it runs
        // post-recovery; no extra drain (each `drain()` journals an entry,
        // and the serial reference performed exactly one).
        let _ = rt.submit_job(0, |_| panic!("chaos: source dies after migration"));

        // Recovered source: the broadcast shell is back — registered, but
        // with zero facts and zero tasks (its project-1 history now
        // belongs to shard 1 and was filtered out of the replay).
        let shell = rt
            .submit_job(0, |p| {
                p.project(ProjectId(1))
                    .map(|proj| proj.engine.fact_count("sentence").unwrap())
                    .ok()
            })
            .recv()
            .unwrap();
        assert_eq!(
            shell,
            Some(0),
            "recovered source should hold an empty shell"
        );
    });
    // Migration and source recovery perturb neither the journal nor the
    // replay, neither the rebuilt source nor the adopting destination kept
    // a journal of its own, and the destination's project is the replay's.
    run.moved = Some((ProjectId(1), 1));
    expect_equivalent(&serial, &run, "migration + source recovery");
    let sentences = |shard: usize| {
        run.report.platforms[shard]
            .project(ProjectId(1))
            .map(|p| p.engine.fact_count("sentence").unwrap())
            .ok()
    };
    // The destination holds the real project, tasks and all…
    assert!(sentences(1) > Some(0));
    // …and the finished source still reports the shell shape.
    assert_eq!(sentences(0), Some(0));
}

/// Regression: a replica's copy of a clock journals nothing, so the
/// rebuilt replica must get it back from the `clock` it filed in its own
/// slot. Shard 1 suggests a team on its own project; three clocks, which
/// shard 0 records, pass the recruitment deadline on every sweep, and
/// shard 1's copies expire and re-assign the task; then shard 1 dies on
/// its next recorded event, at its boundary or inside it. The rebuilt
/// slice must hold what the live one held — the clock, the re-assigned
/// task, the withdrawn interest — though the merged journal, which has
/// none of shard 1's sweeps, would be the same without them.
#[test]
fn a_rebuilt_replica_keeps_the_clocks_it_filed() {
    let task = TaskId::compose(ProjectId(2), 1);
    let crowd = team_crowd();
    let mut events = vec![project("on-shard-0"), project("on-shard-1")];
    events.extend(
        crowd
            .iter()
            .map(|p| PlatformEvent::WorkerRegistered { profile: p.clone() }),
    );
    // Shard 1's recorded applies 1–10: the task, eight interests, the run.
    events.push(PlatformEvent::CollabTaskCreated {
        project: ProjectId(2),
        description: "replica team".into(),
    });
    events.extend(
        crowd
            .iter()
            .map(|p| PlatformEvent::InterestExpressed { worker: p.id, task }),
    );
    events.push(PlatformEvent::AssignmentRun { task });
    // Each clock is past the deadline the sweep before it set (600 s).
    events.extend((1..=3).map(|k| PlatformEvent::ClockAdvanced {
        to: SimTime(601 * k),
        owner: 0,
    }));
    // Shard 1's recorded apply 11.
    events.push(sentence(2, "after the clocks"));

    let events = [events];
    let (clean, _) = Run::at(2).batches(&events);
    // Every clock swept the task on shard 1, the owner, and only there.
    let missed: Vec<u64> = clean
        .report
        .platforms
        .iter()
        .map(|p| p.counters().deadlines_missed)
        .collect();
    assert_eq!(missed, [0, 3]);
    let reference = Reference::run(&clean, events[0].len());
    for faults in [FaultPlan::kill(1, 11), FaultPlan::kill_mid_apply(1, 11)] {
        let (run, _) = Run::at(2).faults(faults).batches(&events);
        let recoveries = run.metrics.counter_total("crowd4u_recoveries_total");
        assert_eq!(recoveries, 1, "{}", run.label);
        expect_equivalent(&reference, &run, "a replica killed after its clocks");
    }
}

/// Worker churn beside a live project: two projects first, then `rounds` ×
/// (a registration, a seed owned by replica shard 1), a clock broadcast
/// every 16 rounds, so every replica installs registrations between the
/// events it applies. Every fourth registration re-registers an earlier
/// worker.
fn churn_beside_a_live_project(rounds: u64) -> Vec<PlatformEvent> {
    let mut events = vec![project("on-shard-0"), project("on-shard-1")];
    for r in 0..rounds {
        let id = if r % 4 == 3 { r / 2 } else { r } + 1;
        events.push(worker(id, format!("churn{r}")));
        events.push(sentence(2, format!("s{r}")));
        if r % 16 == 15 {
            events.push(PlatformEvent::ClockAdvanced {
                to: SimTime(r),
                owner: 0,
            });
        }
    }
    events
}

/// Regression: a replica that dies inside 200 registrations of churn
/// rebuilds from the registration copies it filed in its own slot — every one of
/// them, at its position between the replica's own events — and ends with
/// the same registry as every other slice.
#[test]
fn a_replica_recovers_after_200_registrations() {
    let rounds = 200;
    let events = [churn_beside_a_live_project(rounds)];
    // Shard 1 records one seed per round: 150 is inside the churn, with
    // 150 registration copies filed before it.
    let faults = [FaultPlan::kill(1, 150), FaultPlan::kill_mid_apply(1, 150)];
    for shards in [2usize, 4] {
        let reference = Reference::run(&Run::at(shards).batches(&events).0, events[0].len());
        for plan in &faults {
            let (run, _) = Run::at(shards).faults(plan.clone()).batches(&events);
            let label = format!("{plan:?} at {shards} shards");
            expect_equivalent(&reference, &run, &label);
            let recoveries = run.metrics.counter_total("crowd4u_recoveries_total");
            assert_eq!(recoveries, 1, "{label}");
            // Every slice — the rebuilt one included — holds the same
            // registry at the same version.
            let registries: Vec<(usize, u64)> = run
                .report
                .platforms
                .iter()
                .map(|p| (p.workers.len(), p.workers.version()))
                .collect();
            assert!(
                registries.iter().all(|r| *r == registries[0]) && registries[0].1 == rounds,
                "worker registries out of lockstep ({registries:?}): {label}"
            );
        }
    }
}

/// Regression: hot migration after the same stream. The migration replays
/// the source's slot, which the flush under the migration hold brings up
/// to every registration admitted.
#[test]
fn a_project_migrates_after_200_registrations() {
    let rounds = 200;
    // The migrated project keeps taking traffic at its new owner, beside
    // more churn.
    let second: Vec<PlatformEvent> = (0..72)
        .flat_map(|r| {
            [
                worker(r + 1, format!("after{r}")),
                sentence(2, format!("t{r}")),
            ]
        })
        .collect();
    let halves = [churn_beside_a_live_project(rounds), second];
    let submitted = halves[0].len() + halves[1].len();
    for shards in [2usize, 4] {
        let reference = Reference::run(&Run::at(shards).batches(&halves).0, submitted);
        // Off replica 1: to the coordinator, and to every other replica.
        for to in (0..shards).filter(|&to| to != 1) {
            let config = Run::at(shards).migrate(Some((ProjectId(2), to)));
            let (run, _) = config.batches(&halves);
            let label = format!("migrate 1 → {to} at {shards} shards");
            assert_eq!(run.moved, Some((ProjectId(2), to)), "{label}");
            expect_equivalent(&reference, &run, &label);
            let sentences = run.report.platforms[to]
                .project(ProjectId(2))
                .unwrap()
                .engine
                .fact_count("sentence")
                .unwrap();
            assert_eq!(sentences as u64, rounds + 72, "{label}");
        }
    }
}
