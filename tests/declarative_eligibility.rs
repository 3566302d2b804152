//! End-to-end test of §2.2's defining sentence: Eligible "is computed by
//! the CyLog processor using the project description and worker human
//! factors" — here the project description itself says who qualifies, and
//! the platform obeys it; plus qualification tests feeding the factors.

use crowd4u::collab::Scheme;
use crowd4u::core::prelude::*;
use crowd4u::crowd::profile::{WorkerId, WorkerProfile};
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::forms::form::FormResponse;

/// The paper's own example: "only workers who log in to Crowd4U and speak
/// English as a native language are eligible", written in CyLog.
const DECLARATIVE: &str = "\
rel worker(w: id).
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_native(W, \"en\").
rel item(x: str).
open label(x: str) -> (y: str).
rel out(x: str, y: str).
out(X, Y) :- item(X), label(X, Y).
";

#[test]
fn cylog_rules_decide_eligibility_on_the_platform() {
    let mut p = Crowd4U::new();
    p.register_worker(WorkerProfile::new(WorkerId(1), "en-online").with_native_lang("en"));
    let mut offline = WorkerProfile::new(WorkerId(2), "en-offline").with_native_lang("en");
    offline.factors.logged_in = false;
    p.register_worker(offline);
    p.register_worker(WorkerProfile::new(WorkerId(3), "ja-online").with_native_lang("ja"));

    let proj = p
        .register_project(
            "declarative",
            DECLARATIVE,
            DesiredFactors {
                min_team: 1,
                max_team: 2,
                ..Default::default()
            },
            Scheme::Sequential,
        )
        .unwrap();
    assert!(uses_declarative_eligibility(
        &p.project(proj).unwrap().engine
    ));

    let task = p.create_collab_task(proj, "work").unwrap();
    // Only the online English native qualifies — exactly the paper's rule.
    assert_eq!(p.relations.eligible_workers(task), vec![WorkerId(1)]);
    assert!(p.express_interest(WorkerId(1), task).is_ok());
    assert!(matches!(
        p.express_interest(WorkerId(2), task),
        Err(PlatformError::NotEligible { .. })
    ));
    assert!(matches!(
        p.express_interest(WorkerId(3), task),
        Err(PlatformError::NotEligible { .. })
    ));
    let team = p.run_assignment(task).unwrap();
    assert_eq!(team.members, vec![WorkerId(1)]);
}

#[test]
fn factor_changes_update_declarative_eligibility() {
    let mut p = Crowd4U::new();
    p.register_worker(WorkerProfile::new(WorkerId(1), "ann").with_native_lang("en"));
    let proj = p
        .register_project(
            "declarative",
            DECLARATIVE,
            DesiredFactors::default(),
            Scheme::Sequential,
        )
        .unwrap();
    let t1 = p.create_collab_task(proj, "first").unwrap();
    assert_eq!(p.relations.eligible_workers(t1), vec![WorkerId(1)]);

    // The worker logs out; the next task sees no eligible workers.
    p.workers.get_mut(WorkerId(1)).unwrap().factors.logged_in = false;
    let t2 = p.create_collab_task(proj, "second").unwrap();
    assert!(p.relations.eligible_workers(t2).is_empty());
}

#[test]
fn micro_tasks_respect_declarative_eligibility() {
    let mut p = Crowd4U::new();
    p.register_worker(WorkerProfile::new(WorkerId(1), "en").with_native_lang("en"));
    p.register_worker(WorkerProfile::new(WorkerId(2), "fr").with_native_lang("fr"));
    let proj = p
        .register_project(
            "declarative",
            DECLARATIVE,
            DesiredFactors::default(),
            Scheme::Sequential,
        )
        .unwrap();
    p.seed_fact(proj, "item", vec!["photo".into()]).unwrap();
    assert_eq!(p.sync_tasks(proj).unwrap(), 1);
    let task = p.pool.open_tasks(Some(proj))[0].id;
    // The French speaker can't answer; the English native can.
    assert!(matches!(
        p.submit_micro_answer(WorkerId(2), task, vec!["tag".into()]),
        Err(PlatformError::NotEligible { .. })
    ));
    p.submit_micro_answer(WorkerId(1), task, vec!["tag".into()])
        .unwrap();
    p.sync_tasks(proj).unwrap();
    assert_eq!(
        p.project(proj).unwrap().engine.fact_count("out").unwrap(),
        1
    );
}

#[test]
fn qualification_test_scores_flow_into_declarative_rules() {
    // A project that requires a passed qualification (skill ≥ 0.75) —
    // the test score is the system-computed factor (§2.4).
    const SKILL_GATED: &str = "\
rel worker_skill(w: id, skill: str, level: float).
rel eligible(w: id).
eligible(W) :- worker_skill(W, \"translation\", L), L >= 0.75.
rel item(x: str).
open label(x: str) -> (y: str).
rel out(x: str, y: str).
out(X, Y) :- item(X), label(X, Y).
";
    let mut p = Crowd4U::new();
    p.register_worker(WorkerProfile::new(WorkerId(1), "ann"));
    p.register_worker(WorkerProfile::new(WorkerId(2), "bob"));

    let test = QualificationTest::multiple_choice(
        "translation",
        &[
            ("'bonjour'?", &["hello", "bye"], "hello"),
            ("'merci'?", &["thanks", "please"], "thanks"),
            ("'chat'?", &["cat", "dog"], "cat"),
            ("'pain'?", &["bread", "hurt"], "bread"),
        ],
    );
    // Ann aces it; Bob gets half.
    let ann = FormResponse::new()
        .set("q0", "hello")
        .set("q1", "thanks")
        .set("q2", "cat")
        .set("q3", "bread");
    let bob = FormResponse::new()
        .set("q0", "hello")
        .set("q1", "please")
        .set("q2", "dog")
        .set("q3", "bread");
    for (id, response, expect) in [(1, ann, 1.0), (2, bob, 0.5)] {
        let profile = p.workers.get(WorkerId(id)).unwrap();
        let (score, graded) = test.graded(profile, &response).unwrap();
        assert_eq!(score, expect);
        // Re-registering journals the graded profile.
        p.register_worker(graded);
    }

    let proj = p
        .register_project(
            "gated",
            SKILL_GATED,
            DesiredFactors::default(),
            Scheme::Sequential,
        )
        .unwrap();
    let task = p.create_collab_task(proj, "translate things").unwrap();
    assert_eq!(p.relations.eligible_workers(task), vec![WorkerId(1)]);
    assert_eq!(
        Crowd4U::replay(p.journal()).unwrap().state_dump(),
        p.state_dump()
    );
}
