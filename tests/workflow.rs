//! Experiment E2 (paper Figure 2): the five-step collaborative task
//! assignment workflow, including deadline-driven re-execution and the
//! requester-relaxation path.

use crowd4u::collab::Scheme;
use crowd4u::core::pages::{admin_page, user_page};
use crowd4u::core::prelude::*;
use crowd4u::crowd::profile::{WorkerId, WorkerProfile};
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::sim::time::SimTime;

const SRC: &str = "\
rel doc(d: id, text: str).
open summarize(d: id, text: str) -> (summary: str) points 2.
rel summarized(d: id, summary: str).
summarized(D, S) :- doc(D, T), summarize(D, T, S).
";

fn factors(min_team: usize, max_team: usize) -> DesiredFactors {
    DesiredFactors {
        min_team,
        max_team,
        recruitment_secs: 600,
        ..Default::default()
    }
}

fn world(n_workers: u64) -> Crowd4U {
    let mut p = Crowd4U::new();
    for i in 1..=n_workers {
        p.register_worker(WorkerProfile::new(WorkerId(i), format!("w{i}")).with_native_lang("en"));
    }
    p
}

#[test]
fn steps_one_through_five() {
    let mut p = world(6);

    // Step (1): project registration creates the admin page.
    let proj = p
        .register_project("figure2", SRC, factors(2, 3), Scheme::Sequential)
        .unwrap();
    let page = admin_page(&p, proj, &[], &["en"]).unwrap();
    assert!(page.to_string().contains("Upper critical mass"));

    // Step (2): factors are held by the project and reach the controller.
    assert_eq!(p.project(proj).unwrap().factors.min_team, 2);

    // Step (3): user pages show eligible tasks; workers declare interest.
    let task = p.create_collab_task(proj, "summarise the archive").unwrap();
    for i in 1..=4 {
        let up = user_page(&p, WorkerId(i)).unwrap();
        assert_eq!(up.entries.len(), 1, "worker {i} sees the task");
        p.express_interest(WorkerId(i), task).unwrap();
    }

    // Steps (4)+(5): the controller suggests a team from eligible∩interested.
    let team = p.run_assignment(task).unwrap();
    assert!(team.size() >= 2 && team.size() <= 3);
    for m in &team.members {
        assert!(m.0 <= 4, "only interested workers are suggested");
    }
    // The suggested team is asked to join; everyone undertakes.
    for &m in &team.members {
        p.undertake(m, task).unwrap();
        assert!(p.relations().is_undertaking(m, task));
    }
    assert_eq!(p.pool().get(task).unwrap().state.label(), "in-progress");
    p.complete_collab_task(task, 0.9).unwrap();
    assert_eq!(p.counters().teams_started, 1);
}

#[test]
fn deadline_miss_reexecutes_assignment_with_new_team() {
    let mut p = world(6);
    let proj = p
        .register_project("deadline", SRC, factors(2, 2), Scheme::Sequential)
        .unwrap();
    let task = p.create_collab_task(proj, "x").unwrap();
    for i in 1..=6 {
        p.express_interest(WorkerId(i), task).unwrap();
    }
    let first = p.run_assignment(task).unwrap();
    // Only the first member undertakes; the second never responds.
    p.undertake(first.members[0], task).unwrap();
    p.advance_to(SimTime(601)).unwrap();

    // A second team was suggested; the no-show is excluded.
    let state = p.pool().get(task).unwrap().state.clone();
    match state {
        TaskState::Suggested { team, .. } => {
            assert!(
                !team.contains(&first.members[1]),
                "no-show must be excluded"
            );
        }
        other => panic!("expected a fresh suggestion, got {other:?}"),
    }
    assert_eq!(p.pool().get(task).unwrap().reassignments, 1);
    assert_eq!(p.counters().deadlines_missed, 1);
}

#[test]
fn infeasible_constraints_suggest_relaxation_then_succeed() {
    let mut p = world(3);
    // Demand more skill than anyone has.
    let mut f = factors(2, 3);
    f.skill_name = Some("summarisation".into());
    f.min_quality = 0.9;
    let proj = p
        .register_project("strict", SRC, f, Scheme::Sequential)
        .unwrap();
    let task = p.create_collab_task(proj, "x").unwrap();
    // Nobody is eligible (skill floor 0.45), so nobody can even be interested.
    assert!(p.relations().eligible_workers(task).is_empty());
    let err = p.run_assignment(task).unwrap_err();
    assert!(matches!(err, PlatformError::NoFeasibleTeam { .. }));
    assert!(p.project(proj).unwrap().suggestion.is_some());

    // The requester relaxes the constraints: a new task under a relaxed
    // project succeeds with the same crowd.
    let proj2 = p
        .register_project("relaxed", SRC, factors(2, 3), Scheme::Sequential)
        .unwrap();
    let task2 = p.create_collab_task(proj2, "x").unwrap();
    for i in 1..=3 {
        p.express_interest(WorkerId(i), task2).unwrap();
    }
    let team = p.run_assignment(task2).unwrap();
    assert!(team.size() >= 2);
    assert!(p.project(proj2).unwrap().suggestion.is_none());
}

#[test]
fn abandoned_after_retry_budget() {
    let mut p = world(2);
    let proj = p
        .register_project("fragile", SRC, factors(2, 2), Scheme::Sequential)
        .unwrap();
    let task = p.create_collab_task(proj, "x").unwrap();
    // The pair is suggested, nobody undertakes before the deadline, and
    // the miss withdraws their interest; they come back and the same
    // happens again, until the miss after the retry budget gives up.
    let mut now = 0;
    for miss in 1..=MAX_REASSIGNMENTS + 1 {
        assert_eq!(p.pool().get(task).unwrap().state.label(), "open");
        p.express_interest(WorkerId(1), task).unwrap();
        p.express_interest(WorkerId(2), task).unwrap();
        p.run_assignment(task).unwrap();
        now += 601;
        p.advance_to(SimTime(now)).unwrap();
        assert_eq!(p.pool().get(task).unwrap().reassignments, miss);
    }
    assert_eq!(p.pool().get(task).unwrap().state.label(), "abandoned");
    assert_eq!(p.counters().tasks_abandoned, 1);
    // relationships are cleaned up
    assert_eq!(p.relations().counts(), (0, 0, 0));
}

#[test]
fn micro_tasks_complete_through_cylog() {
    let mut p = world(2);
    let proj = p
        .register_project("micro", SRC, factors(1, 2), Scheme::Sequential)
        .unwrap();
    p.seed_fact(proj, "doc", vec![1u64.into(), "long text".into()])
        .unwrap();
    assert_eq!(p.sync_tasks(proj).unwrap(), 1);
    let task = p.pool().open_tasks(Some(proj))[0].id;
    p.submit_micro_answer(WorkerId(1), task, vec!["short".into()])
        .unwrap();
    p.sync_tasks(proj).unwrap();
    let facts = p.project(proj).unwrap().engine.facts("summarized").unwrap();
    assert_eq!(facts.rows.len(), 1);
    assert_eq!(p.points_of(WorkerId(1)), 2);
    assert_eq!(p.points_of(WorkerId(2)), 0);
}
