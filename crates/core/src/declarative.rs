//! Declarative eligibility: Eligible computed *by the CyLog processor*.
//!
//! Paper §2.2: "*Eligible* … is computed by the CyLog processor using the
//! project description and worker human factors. For example, in a project
//! description a task requester may specify that only workers who log in to
//! Crowd4U and speak English as a native language are eligible for their
//! tasks."
//!
//! A project opts in by declaring the conventional predicates below and
//! deriving `eligible(w: id)` with ordinary rules. The platform feeds the
//! worker-factor facts in and reads `eligible` back out:
//!
//! ```text
//! rel worker(w: id).
//! rel worker_online(w: id).
//! rel worker_native(w: id, lang: str).
//! rel worker_fluent(w: id, lang: str, level: float).
//! rel worker_skill(w: id, skill: str, level: float).
//! rel eligible(w: id).
//! eligible(W) :- worker_online(W), worker_native(W, "en").
//! ```
//!
//! Projects without an `eligible` predicate fall back to the built-in
//! screen in [`crate::eligibility`]. A project that derives `eligible` must
//! declare each conventional predicate it uses with the column types above,
//! and derive no worker-factor predicate by a rule; registration refuses
//! it otherwise.

use crate::error::{PlatformError, WorkerId};
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_cylog::error::CylogError;
use crowd4u_storage::prelude::{Value, ValueType};

/// The conventional worker-factor predicates a project may declare, with
/// the column types the platform writes into them.
pub const WORKER_PREDS: [(&str, &[ValueType]); 5] = [
    ("worker", &[ValueType::Id]),
    ("worker_online", &[ValueType::Id]),
    ("worker_native", &[ValueType::Id, ValueType::Str]),
    (
        "worker_fluent",
        &[ValueType::Id, ValueType::Str, ValueType::Float],
    ),
    (
        "worker_skill",
        &[ValueType::Id, ValueType::Str, ValueType::Float],
    ),
];

/// Does the project description compute eligibility declaratively?
pub fn uses_declarative_eligibility(engine: &CylogEngine) -> bool {
    engine
        .program()
        .pred("eligible")
        .is_some_and(|p| engine.program().pred_info(p).derived)
}

/// Check a declarative project's conventional predicates: each worker-factor
/// predicate it declares is a base relation with the column types in
/// [`WORKER_PREDS`], and `eligible`'s first column is an id. A mismatch
/// would make every later [`sync_worker_facts`] fail, or
/// [`eligible_workers`] find no one, so it is a semantic error of the
/// project description.
pub(crate) fn check_conventions(engine: &CylogEngine) -> Result<(), PlatformError> {
    let program = engine.program();
    let refuse = |expected: String| {
        Err(CylogError::Semantic(format!("declarative eligibility expects {expected}")).into())
    };
    for (name, types) in WORKER_PREDS {
        let Some(pid) = program.pred(name) else {
            continue;
        };
        let info = program.pred_info(pid);
        if info.col_types != types || info.derived {
            let cols: Vec<String> = types.iter().map(ToString::to_string).collect();
            return refuse(format!("`{name}({})`, derived by no rule", cols.join(", ")));
        }
    }
    if let Some(pid) = program.pred("eligible") {
        if program.pred_info(pid).col_types.first() != Some(&ValueType::Id) {
            return refuse("`eligible` with an id first column".to_owned());
        }
    }
    Ok(())
}

/// Push one worker's human factors into the engine as facts. Existing
/// facts for this worker are retracted first, so factor *updates* (e.g.
/// logging out) are reflected on the next evaluation.
pub fn sync_worker_facts(
    engine: &mut CylogEngine,
    profile: &WorkerProfile,
) -> Result<(), PlatformError> {
    let wid = Value::Id(profile.id.0);
    for (pred, _) in WORKER_PREDS {
        if engine.program().pred(pred).is_none() {
            continue;
        }
        engine.retract_by_key(pred, &wid)?;
    }
    let has = |engine: &CylogEngine, pred: &str| engine.program().pred(pred).is_some();
    if has(engine, "worker") {
        engine.add_fact("worker", vec![wid.clone()])?;
    }
    if has(engine, "worker_online") && profile.factors.logged_in {
        engine.add_fact("worker_online", vec![wid.clone()])?;
    }
    if has(engine, "worker_native") {
        for lang in &profile.factors.native_langs {
            engine.add_fact(
                "worker_native",
                vec![wid.clone(), Value::Str(lang.code().to_owned())],
            )?;
        }
    }
    if has(engine, "worker_fluent") {
        for (lang, level) in &profile.factors.fluency {
            engine.add_fact(
                "worker_fluent",
                vec![
                    wid.clone(),
                    Value::Str(lang.code().to_owned()),
                    Value::Float(*level),
                ],
            )?;
        }
    }
    if has(engine, "worker_skill") {
        for (skill, level) in &profile.factors.skills {
            engine.add_fact(
                "worker_skill",
                vec![wid.clone(), Value::Str(skill.clone()), Value::Float(*level)],
            )?;
        }
    }
    Ok(())
}

/// Read the CyLog-computed eligible set (call after `engine.run()`).
pub fn eligible_workers(engine: &CylogEngine) -> Result<Vec<WorkerId>, PlatformError> {
    let rs = engine.facts("eligible")?;
    let mut out: Vec<WorkerId> = rs
        .rows
        .iter()
        .filter_map(|r| r[0].as_id().map(WorkerId))
        .collect();
    out.sort();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::profile::WorkerProfile;

    const SRC: &str = "\
rel worker(w: id).
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel worker_skill(w: id, skill: str, level: float).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_native(W, \"en\"), worker_skill(W, \"translation\", L), L >= 0.5.
rel item(x: str).
open label(x: str) -> (y: str).
rel out(x: str, y: str).
out(X, Y) :- item(X), label(X, Y).
";

    fn worker(id: u64, lang: &str, skill: f64, online: bool) -> WorkerProfile {
        let mut p = WorkerProfile::new(WorkerId(id), format!("w{id}"))
            .with_native_lang(lang)
            .with_skill("translation", skill);
        p.factors.logged_in = online;
        p
    }

    #[test]
    fn detects_declarative_projects() {
        let e = CylogEngine::from_source(SRC).unwrap();
        assert!(uses_declarative_eligibility(&e));
        let plain = CylogEngine::from_source("rel item(x: str).\n").unwrap();
        assert!(!uses_declarative_eligibility(&plain));
        // `eligible` as a plain EDB (no rules) does not count.
        let edb_only = CylogEngine::from_source("rel eligible(w: id).\n").unwrap();
        assert!(!uses_declarative_eligibility(&edb_only));
    }

    #[test]
    fn rules_filter_on_factors() {
        let mut e = CylogEngine::from_source(SRC).unwrap();
        sync_worker_facts(&mut e, &worker(1, "en", 0.8, true)).unwrap(); // ok
        sync_worker_facts(&mut e, &worker(2, "ja", 0.8, true)).unwrap(); // lang
        sync_worker_facts(&mut e, &worker(3, "en", 0.2, true)).unwrap(); // skill
        sync_worker_facts(&mut e, &worker(4, "en", 0.8, false)).unwrap(); // offline
        e.run().unwrap();
        assert_eq!(eligible_workers(&e).unwrap(), vec![WorkerId(1)]);
    }

    #[test]
    fn factor_updates_are_reflected() {
        let mut e = CylogEngine::from_source(SRC).unwrap();
        sync_worker_facts(&mut e, &worker(1, "en", 0.8, true)).unwrap();
        e.run().unwrap();
        assert_eq!(eligible_workers(&e).unwrap(), vec![WorkerId(1)]);
        // the worker logs out: facts re-synced, eligibility disappears
        sync_worker_facts(&mut e, &worker(1, "en", 0.8, false)).unwrap();
        e.run().unwrap();
        assert!(eligible_workers(&e).unwrap().is_empty());
        // and back in
        sync_worker_facts(&mut e, &worker(1, "en", 0.8, true)).unwrap();
        e.run().unwrap();
        assert_eq!(eligible_workers(&e).unwrap(), vec![WorkerId(1)]);
    }

    /// A declarative project whose conventional predicates have the wrong
    /// shape is refused at registration, with nothing journaled — not
    /// admitted to fail every later worker sync.
    #[test]
    fn malformed_conventions_are_refused_at_registration() {
        use crate::platform::Crowd4U;
        use crowd4u_collab::Scheme;
        use crowd4u_forms::admin::DesiredFactors;
        let malformed = [
            "rel worker_online(w: id, since: int).\nrel eligible(w: id).\n\
             eligible(W) :- worker_online(W, S).\n",
            "rel worker_native(w: id, lang: int).\nrel eligible(w: id).\n\
             eligible(W) :- worker_native(W, 1).\n",
            "rel worker(w: id).\nrel worker_online(w: id).\nrel eligible(w: id).\n\
             worker_online(W) :- worker(W).\neligible(W) :- worker_online(W).\n",
            "rel worker(w: id).\nrel eligible(w: str).\neligible(\"x\") :- worker(W).\n",
        ];
        let mut p = Crowd4U::new();
        p.register_worker(worker(1, "en", 0.8, true));
        let journaled = p.journal().len();
        for src in malformed {
            CylogEngine::from_source(src).expect("the program itself compiles");
            let got = p.register_project("bad", src, DesiredFactors::default(), Scheme::Sequential);
            assert!(
                matches!(got, Err(PlatformError::Cylog(CylogError::Semantic(_)))),
                "{src}: {got:?}"
            );
            assert_eq!(p.journal().len(), journaled, "{src}: journaled");
        }
        assert!(p.project_ids().is_empty());
        // The conventional shapes register, and the worker syncs.
        let proj = p
            .register_project("ok", SRC, DesiredFactors::default(), Scheme::Sequential)
            .unwrap();
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(1)]);
    }

    /// Every conventional predicate declared with its listed types accepts
    /// what the sync writes into it: the types in [`WORKER_PREDS`] and the
    /// values `sync_worker_facts` builds cannot drift apart.
    #[test]
    fn listed_shapes_accept_every_synced_fact() {
        let mut src = String::new();
        for (name, types) in WORKER_PREDS {
            let cols: Vec<String> = types
                .iter()
                .enumerate()
                .map(|(i, t)| format!("c{i}: {t}"))
                .collect();
            src += &format!("rel {name}({}).\n", cols.join(", "));
        }
        src += "rel eligible(w: id, n: int).\neligible(W, 1) :- worker(W).\n";
        let mut e = CylogEngine::from_source(&src).unwrap();
        check_conventions(&e).unwrap();
        let p = worker(1, "en", 0.8, true).with_fluency("ja", 0.6);
        sync_worker_facts(&mut e, &p).unwrap();
        e.run().unwrap();
        for (name, _) in WORKER_PREDS {
            assert!(!e.facts(name).unwrap().is_empty(), "{name}");
        }
        assert_eq!(eligible_workers(&e).unwrap(), vec![WorkerId(1)]);
    }

    #[test]
    fn partial_predicate_declarations_ok() {
        // A project may declare only the predicates it needs.
        let src = "\
rel worker_online(w: id).
rel eligible(w: id).
eligible(W) :- worker_online(W).
";
        let mut e = CylogEngine::from_source(src).unwrap();
        sync_worker_facts(&mut e, &worker(9, "fr", 0.1, true)).unwrap();
        e.run().unwrap();
        assert_eq!(eligible_workers(&e).unwrap(), vec![WorkerId(9)]);
    }
}
