//! Failure injection across the platform: unresponsive crowds, flaky
//! teams, invalid form submissions, tampered answers, and mid-task
//! dissolution.

use crowd4u::collab::prelude::*;
use crowd4u::collab::Scheme;
use crowd4u::core::prelude::*;
use crowd4u::crowd::prelude::*;
use crowd4u::forms::prelude::*;
use crowd4u::sim::prelude::*;
use crowd4u::storage::prelude::Value;

const SRC: &str = "\
rel item(x: str).
open label(x: str) -> (y: str) points 1.
rel labelled(x: str, y: str).
labelled(X, Y) :- item(X), label(X, Y).
";

fn world(n: u64) -> Crowd4U {
    let mut p = Crowd4U::new();
    for i in 1..=n {
        p.register_worker(WorkerProfile::new(WorkerId(i), format!("w{i}")));
    }
    p
}

#[test]
fn unresponsive_crowd_never_blocks_the_platform() {
    let mut rng = SimRng::seed_from(1);
    let mut agents: Vec<WorkerAgent> = (1..=5u64)
        .map(|i| {
            WorkerAgent::new(
                WorkerProfile::new(WorkerId(i), format!("w{i}")),
                Behavior::unresponsive(),
                rng.fork(i),
            )
        })
        .collect();
    let mut p = world(5);
    let proj = p
        .register_project("dead", SRC, DesiredFactors::default(), Scheme::Sequential)
        .unwrap();
    let task = p.create_collab_task(proj, "x").unwrap();
    // Nobody declares interest.
    for a in &mut agents {
        assert!(!a.declares_interest());
    }
    let err = p.run_assignment(task).unwrap_err();
    assert!(matches!(err, PlatformError::NoFeasibleTeam { .. }));
    // The platform stays consistent and reports the problem.
    assert!(p.project(proj).unwrap().suggestion.is_some());
    assert_eq!(p.pool.get(task).unwrap().state.label(), "open");
}

#[test]
fn flaky_team_dissolves_and_task_eventually_abandons() {
    let mut p = world(4);
    p.max_reassignments = 2;
    // Single-member teams so each retry can suggest a different worker.
    let f = DesiredFactors {
        min_team: 1,
        max_team: 1,
        recruitment_secs: 60,
        ..Default::default()
    };
    let proj = p
        .register_project("flaky", SRC, f, Scheme::Sequential)
        .unwrap();
    let task = p.create_collab_task(proj, "x").unwrap();
    for i in 1..=4 {
        p.express_interest(WorkerId(i), task).unwrap();
    }
    p.run_assignment(task).unwrap();
    // Nobody ever undertakes; every deadline miss excludes the no-show and
    // re-executes assignment, until the retry budget is exhausted.
    let mut now = 0;
    for _ in 0..4 {
        now += 61;
        p.advance_to(SimTime(now)).unwrap();
        if p.pool.get(task).unwrap().state.label() == "abandoned" {
            break;
        }
    }
    assert_eq!(p.pool.get(task).unwrap().state.label(), "abandoned");
    assert!(p.counters.get("deadlines_missed") >= 3);
    // Everything was cleaned up.
    assert_eq!(p.relations.counts(), (0, 0, 0));
}

#[test]
fn invalid_form_submission_rejected_then_corrected() {
    let mut engine = crowd4u::cylog::engine::CylogEngine::from_source(
        "rel q(x: str).\nopen rate(x: str) -> (stars: int, note: str).\n\
         rel rated(x: str, stars: int).\nrated(X, S) :- q(X), rate(X, S, _).\n",
    )
    .unwrap();
    engine.add_fact("q", vec!["item".into()]).unwrap();
    engine.run().unwrap();
    let req = engine.pending_requests()[0].clone();
    let form = form_for_request(engine.program(), &req);

    // Wrong types and a tampered read-only field.
    let bad = FormResponse::new()
        .set("x", "tampered")
        .set("stars", "five")
        .set("note", 3i64);
    let errs = form.validate(&bad).unwrap_err();
    assert!(errs.len() >= 3);

    // Corrected submission flows through.
    let good = FormResponse::new().set("stars", 4i64).set("note", "nice");
    let vals = form.validate(&good).unwrap();
    let outputs = vals[1..].to_vec(); // after the single input column
    engine
        .answer(&req.pred_name, req.inputs.clone(), outputs, Some(5))
        .unwrap();
    engine.run().unwrap();
    assert_eq!(engine.fact_count("rated").unwrap(), 1);
}

#[test]
fn wrong_typed_answers_rejected_at_engine_boundary() {
    let mut p = world(2);
    let proj = p
        .register_project("types", SRC, DesiredFactors::default(), Scheme::Sequential)
        .unwrap();
    p.seed_fact(proj, "item", vec!["a".into()]).unwrap();
    p.sync_tasks(proj).unwrap();
    let task = p.pool.open_tasks(Some(proj))[0].id;
    // wrong output type: int instead of str
    let err = p
        .submit_micro_answer(WorkerId(1), task, vec![Value::Int(3)])
        .unwrap_err();
    assert!(matches!(err, PlatformError::Cylog(_)));
    // task is still open and answerable
    assert_eq!(p.pool.get(task).unwrap().state.label(), "open");
    p.submit_micro_answer(WorkerId(1), task, vec!["fine".into()])
        .unwrap();
}

#[test]
fn worker_dropout_mid_collaboration_detected_by_monitor() {
    let members = [WorkerId(1), WorkerId(2), WorkerId(3)];
    let mut monitor = CollabMonitor::new(&members, SimTime(0), SimDuration::minutes(5));
    let mut ws = SharedWorkspace::new("doc", members.to_vec(), &["s"]);
    // workers 1 and 2 contribute; worker 3 silently drops out
    ws.contribute(WorkerId(1), 0, "a", 0.8).unwrap();
    monitor.record_activity(WorkerId(1), SimTime(100));
    ws.contribute(WorkerId(2), 0, "b", 0.7).unwrap();
    monitor.record_activity(WorkerId(2), SimTime(150));
    // At t=399: w1 idle 299s, w2 idle 249s (below the 300s threshold);
    // w3 idle since t=0 → stalled.
    match monitor.check(SimTime(399)) {
        Verdict::MembersStalled(stalled) => assert_eq!(stalled, vec![WorkerId(3)]),
        other => panic!("expected stall detection, got {other:?}"),
    }
    // The platform replaces the dropout; work completes.
    monitor.remove_member(WorkerId(3));
    monitor.record_activity(WorkerId(4), SimTime(400));
    monitor.record_activity(WorkerId(1), SimTime(410));
    monitor.record_activity(WorkerId(2), SimTime(420));
    assert_eq!(monitor.check(SimTime(450)), Verdict::Healthy);
    let doc = ws.submit(WorkerId(1)).unwrap();
    assert_eq!(doc.team.len(), 3); // attribution keeps the original team
    monitor.mark_complete();
    assert_eq!(monitor.check(SimTime(999_999)), Verdict::Complete);
}

#[test]
fn eligibility_revocation_cascades_cleanly() {
    let mut p = world(3);
    let proj = p
        .register_project("rev", SRC, DesiredFactors::default(), Scheme::Sequential)
        .unwrap();
    let task = p.create_collab_task(proj, "x").unwrap();
    p.express_interest(WorkerId(1), task).unwrap();
    // Worker logs out → platform revokes eligibility (manual trigger here).
    p.relations.revoke_eligibility(WorkerId(1), task);
    assert!(!p.relations.is_interested(WorkerId(1), task));
    // They can no longer undertake or re-express interest.
    assert!(matches!(
        p.express_interest(WorkerId(1), task),
        Err(PlatformError::NotEligible { .. })
    ));
}
