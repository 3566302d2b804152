//! Crash-recovery property (PR 9): killing a shard mid-run and replaying
//! it back is **observationally invisible**. For a generated multi-project
//! event stream and a generated kill point (shard S dies after its k-th
//! applied event — the [`FaultPlan`] is derived from the proptest seed, so
//! `PROPTEST_SEED` replays the exact crash schedule), a run at 1, 2 and 4
//! shards must produce
//!
//! * a merged journal **byte-identical** to the same run with no fault,
//! * identical applied/dropped accounting, and
//! * a journal that replays to a byte-identical
//!   [`Crowd4U::state_dump`](crowd4u::core::platform::Crowd4U::state_dump),
//!   and, where the routing is the fault-free run's (no migration), shard
//!   slices whose dumps equal that run's: a replica's filed copies of
//!   registrations and clocks are in no journal, so only its slice shows
//!   them;
//!
//! and the same must hold when the fault is followed by a **hot project
//! migration** (`migrate_project`) to another shard mid-stream — the
//! routing flip moves where events record, not what the merged journal
//! says. The fault and mid-apply legs run again in **streaming mode**
//! (auto-drains every three events a shard applies), against the
//! fault-free streaming run: a rebuilt shard keeps its auto-drain phase.
//! Shard count 1 exercises coordinator death (the shard that
//! records registrations); the multi-shard counts exercise replica death,
//! rebuilt from the registration copies the replica filed in its own
//! ledger slot — the generator's crowd bursts and the two
//! `churn_beside_a_live_project` regressions below file hundreds. CI
//! replays this file under `RUNTIME_SHARDS=4` and a pinned `PROPTEST_SEED`.
//!
//! PR 10 extends the property to **mid-apply** crashes: a kill firing
//! *inside* `apply_event` — after the message left the mailbox, before
//! the ledger saw it — must also be invisible. The supervisor's in-flight
//! slot redoes the popped-but-unledgered event on the next incarnation;
//! without it, exactly one event would silently vanish from the journal
//! (the regression pinned by [`a_mid_apply_crash_keeps_the_popped_event`]).

mod common;

use common::{build_events, project, raw_op, sentence, setup_events, team_crowd, worker};
use crowd4u::core::error::{PlatformError, ProjectId, TaskId};
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::prelude::*;
use crowd4u::runtime::RunReport;
use crowd4u::sim::time::SimTime;
use crowd4u::telemetry::Registry;
use proptest::prelude::*;

fn config(shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 1024,
        recovery: true,
    }
}

/// [`config`] in streaming mode: each shard auto-drains its dirty projects
/// every three mailbox events it applies, replica copies included.
fn streaming(shards: usize) -> RuntimeConfig {
    RuntimeConfig {
        drain_every: 3,
        ..config(shards)
    }
}

/// Run the event stream in two drained halves, with an optional action
/// between them (the migration hook).
fn run_halves(
    rt: ShardedRuntime,
    first: &[PlatformEvent],
    second: &[PlatformEvent],
    between: impl FnOnce(&ShardedRuntime),
) -> RunReport {
    rt.submit_batch(first.to_vec());
    rt.drain();
    between(&rt);
    rt.submit_batch(second.to_vec());
    rt.drain();
    rt.finish().unwrap()
}

fn assert_equivalent(clean: &RunReport, run: &RunReport, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        run.journal.dump(),
        clean.journal.dump(),
        "journal mismatch: {}",
        label
    );
    prop_assert_eq!(run.stats.applied, clean.stats.applied, "{}", label);
    prop_assert_eq!(run.stats.dropped, clean.stats.dropped, "{}", label);
    let replayed = Crowd4U::replay(&run.journal).unwrap();
    let clean_replayed = Crowd4U::replay(&clean.journal).unwrap();
    prop_assert_eq!(
        replayed.state_dump(),
        clean_replayed.state_dump(),
        "replayed state mismatch: {}",
        label
    );
    // Rebuilt and migrated-to slices hold no journal of their own either:
    // what a recovery replays, and what a migration adopts, stays the
    // ledger's.
    prop_assert!(
        run.platforms.iter().all(|p| p.journal().is_empty()),
        "a slice kept journal entries: {}",
        label
    );
    Ok(())
}

/// Each shard's slice equals the fault-free run's: a rebuilt shard holds
/// what the shard it replaced held — its replica state included (the
/// clocks it moved and the deadlines they swept, the workers it
/// installed), which the merged journal, written by the recorders, does
/// not show. Routing must be the same in both runs, so a migrated run is
/// not compared this way.
fn assert_same_slices(
    clean: &RunReport,
    run: &RunReport,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(run.platforms.len(), clean.platforms.len(), "{}", label);
    for (shard, (p, q)) in run.platforms.iter().zip(&clean.platforms).enumerate() {
        prop_assert!(
            p.state_dump() == q.state_dump(),
            "shard {} slice differs: {}",
            shard,
            label
        );
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
        kill_after in 1u64..6,
        migrate_pick in 0usize..16,
    ) {
        let events = build_events(n_projects, items, &ops);
        let cut = (events.len() * split / 8).min(events.len());
        let (first, second) = events.split_at(cut);

        let mut shard_counts = vec![1usize, 2, 4];
        let env_shards = crowd4u::runtime::router::shards_from_env(0);
        if env_shards > 0 && !shard_counts.contains(&env_shards) {
            shard_counts.push(env_shards);
        }
        for shards in shard_counts {
            // Reference: the same traffic, no fault injected.
            let rt = ShardedRuntime::new(config(shards));
            let clean = run_halves(rt, first, second, |_| {});

            // Fault + recover: shard S dies after its k-th applied event
            // (a no-op when S never reaches k applies — also a valid,
            // trivially equivalent schedule).
            let plan = FaultPlan::kill(kill_pick % shards, kill_after);
            let rt = ShardedRuntime::new_chaos_instrumented(config(shards), Registry::new(), plan.clone());
            let run = run_halves(rt, first, second, |_| {});
            let label = format!("fault at {shards} shards");
            assert_equivalent(&clean, &run, &label)?;
            assert_same_slices(&clean, &run, &label)?;

            // Mid-apply fault: the same kill point, but firing *inside*
            // the k-th apply — the event was popped from the mailbox and
            // is not yet in the ledger. The supervisor's in-flight redo
            // must make this shape equally invisible (PR 10).
            let mid = FaultPlan::kill_mid_apply(kill_pick % shards, kill_after);
            let rt = ShardedRuntime::new_chaos_instrumented(config(shards), Registry::new(), mid.clone());
            let run = run_halves(rt, first, second, |_| {});
            let label = format!("mid-apply fault at {shards} shards");
            assert_equivalent(&clean, &run, &label)?;
            assert_same_slices(&clean, &run, &label)?;

            // Streaming mode, boundary and mid-apply fault: the shard's
            // auto-drain phase is in its ledger slot, so a rebuilt shard
            // places its next auto-drain where the dead one would have and
            // the faulted run's `sync` entries sit where the fault-free
            // streaming run's do.
            let rt = ShardedRuntime::new(streaming(shards));
            let streamed = run_halves(rt, first, second, |_| {});
            for (faults, leg) in [(plan.clone(), "fault"), (mid, "mid-apply fault")] {
                let rt = ShardedRuntime::new_chaos_instrumented(streaming(shards), Registry::new(), faults);
                let run = run_halves(rt, first, second, |_| {});
                let label = format!("streaming {leg} at {shards} shards");
                assert_equivalent(&streamed, &run, &label)?;
                assert_same_slices(&streamed, &run, &label)?;
            }

            // Fault + migrate: same crash schedule, plus a hot migration
            // of one project to the next shard between the two halves. A
            // split that cuts before the project's registration meets an
            // unknown project: the migration is refused, and the run must
            // be as unperturbed by that as by a migration.
            if shards > 1 {
                let project = ProjectId((migrate_pick % n_projects) as u64 + 1);
                let registered = first
                    .iter()
                    .filter(|e| matches!(e, PlatformEvent::ProjectRegistered { .. }))
                    .count() as u64
                    >= project.0;
                let rt = ShardedRuntime::new_chaos_instrumented(config(shards), Registry::new(), plan);
                let run = run_halves(rt, first, second, |rt| {
                    let to = (rt.owner_of(project) + 1) % shards;
                    let moved = rt.migrate_project(project, to);
                    if registered {
                        moved.unwrap();
                        assert_eq!(rt.owner_of(project), to);
                    } else {
                        assert_eq!(moved, Err(PlatformError::UnknownProject(project)));
                    }
                });
                assert_equivalent(
                    &clean,
                    &run,
                    &format!("fault+migrate at {shards} shards"),
                )?;
            }
        }
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
    let events = setup_events(2, 3);

    let mut serial = Crowd4U::new();
    let report = serial.apply_batch(events.clone()).unwrap();
    assert!(report.errors.is_empty());

    for shards in [1usize, 2] {
        // Kill the coordinator inside its 4th recorded apply — well within
        // the 6 registrations it records, so the fault always fires.
        let rt = ShardedRuntime::new_chaos_instrumented(
            config(shards),
            Registry::new(),
            FaultPlan::kill_mid_apply(0, 4),
        );
        rt.submit_batch(events.clone());
        rt.drain();
        let run = rt.finish().unwrap();
        assert_eq!(
            run.journal.dump(),
            serial.journal().dump(),
            "mid-apply crash lost an event at {shards} shards"
        );
        assert_eq!(run.stats.dropped, 0);
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        assert_eq!(replayed.state_dump(), serial.state_dump());
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

    for shards in [1usize, 2, 4] {
        for nth in [1, 5] {
            let registry = Registry::new();
            let rt = ShardedRuntime::new_chaos_instrumented(
                config(shards),
                registry.clone(),
                FaultPlan::kill_mid_apply(0, nth),
            );
            rt.submit_batch(events.clone());
            rt.drain();
            let run = rt.finish().unwrap();
            let label = format!("kill inside apply {nth} at {shards} shards");
            assert_eq!(
                registry
                    .snapshot()
                    .counter_total("crowd4u_recoveries_total"),
                1,
                "{label}"
            );
            assert_eq!(run.journal.dump(), serial.journal().dump(), "{label}");
            assert_eq!((run.stats.applied, run.stats.dropped), (7, 0), "{label}");
            for (shard, p) in run.platforms.iter().enumerate() {
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
    let events = setup_events(2, 3);

    let mut serial = Crowd4U::new();
    serial.apply_batch(events.clone()).unwrap();

    let rt = ShardedRuntime::new(config(2));
    rt.submit_batch(events);
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

    // Crash the old owner (a job panic is a genuine, non-injected crash
    // shape) and let the supervisor rebuild it from the ledger. The next
    // query queues behind the held mailbox, so it runs post-recovery; no
    // extra drain (each `drain()` journals an entry, and the serial
    // reference performed exactly one).
    let _ = rt.submit_job(0, |_| panic!("chaos: source dies after migration"));

    // Recovered source: the broadcast shell is back — registered, but
    // with zero facts and zero tasks (its project-1 history now belongs
    // to shard 1 and was filtered out of the replay).
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

    let run = rt.finish().unwrap();
    assert_eq!(
        run.journal.dump(),
        serial.journal().dump(),
        "migration + source recovery must not perturb the journal"
    );
    // Neither the rebuilt source nor the adopting destination kept a
    // journal of its own.
    assert!(run.platforms.iter().all(|p| p.journal().is_empty()));
    // The destination holds the real project, tasks and all.
    assert!(run.platforms[1]
        .project(ProjectId(1))
        .map(|p| p.engine.fact_count("sentence").unwrap() > 0)
        .unwrap_or(false));
    // The finished source still reports the shell shape.
    assert_eq!(
        run.platforms[0]
            .project(ProjectId(1))
            .map(|p| p.engine.fact_count("sentence").unwrap())
            .ok(),
        Some(0)
    );
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

    let clean = run_halves(ShardedRuntime::new(config(2)), &events, &[], |_| {});
    // Every clock swept the task on shard 1, the owner, and only there.
    let missed: Vec<u64> = clean
        .platforms
        .iter()
        .map(|p| p.counters().deadlines_missed)
        .collect();
    assert_eq!(missed, [0, 3]);
    for plan in [FaultPlan::kill(1, 11), FaultPlan::kill_mid_apply(1, 11)] {
        let registry = Registry::new();
        let rt = ShardedRuntime::new_chaos_instrumented(config(2), registry.clone(), plan.clone());
        let run = run_halves(rt, &events, &[], |_| {});
        let label = format!("{plan:?}");
        assert_eq!(
            registry
                .snapshot()
                .counter_total("crowd4u_recoveries_total"),
            1,
            "{label}"
        );
        assert_equivalent(&clean, &run, &label).unwrap();
        assert_same_slices(&clean, &run, &label).unwrap();
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
    let events = churn_beside_a_live_project(rounds);
    // Shard 1 records one seed per round: 150 is inside the churn, with
    // 150 registration copies filed before it.
    let faults = [FaultPlan::kill(1, 150), FaultPlan::kill_mid_apply(1, 150)];
    for shards in [2usize, 4] {
        let clean = run_halves(ShardedRuntime::new(config(shards)), &events, &[], |_| {});
        for plan in &faults {
            let registry = Registry::new();
            let rt = ShardedRuntime::new_chaos_instrumented(
                config(shards),
                registry.clone(),
                plan.clone(),
            );
            let run = run_halves(rt, &events, &[], |_| {});
            let label = format!("{plan:?} at {shards} shards");
            assert_equivalent(&clean, &run, &label).unwrap();
            let snap = registry.snapshot();
            assert_eq!(snap.counter_total("crowd4u_recoveries_total"), 1, "{label}");
            // Every slice — the rebuilt one included — holds the same
            // registry at the same version.
            let registries: Vec<(usize, u64)> = run
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
    let first = churn_beside_a_live_project(rounds);
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
    for shards in [2usize, 4] {
        let clean = run_halves(ShardedRuntime::new(config(shards)), &first, &second, |_| {});
        // Off replica 1: to the coordinator, and to every other replica.
        for to in (0..shards).filter(|&to| to != 1) {
            let rt = ShardedRuntime::new(config(shards));
            let run = run_halves(rt, &first, &second, |rt| {
                assert_eq!(rt.owner_of(ProjectId(2)), 1);
                let moved = rt.migrate_project(ProjectId(2), to).unwrap();
                assert!(moved > 0, "the seeded project carries tasks");
                assert_eq!(rt.owner_of(ProjectId(2)), to);
            });
            let label = format!("migrate 1 → {to} at {shards} shards");
            assert_equivalent(&clean, &run, &label).unwrap();
            let sentences = run.platforms[to]
                .project(ProjectId(2))
                .unwrap()
                .engine
                .fact_count("sentence")
                .unwrap();
            assert_eq!(sentences as u64, rounds + 72, "{label}");
        }
    }
}
