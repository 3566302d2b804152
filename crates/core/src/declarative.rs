//! Declarative eligibility: Eligible computed *by the CyLog processor*.
//!
//! Paper §2.2: "*Eligible* … is computed by the CyLog processor using the
//! project description and worker human factors. For example, in a project
//! description a task requester may specify that only workers who log in to
//! Crowd4U and speak English as a native language are eligible for their
//! tasks."
//!
//! A project opts in by declaring the conventional predicates below and
//! deriving `eligible(w: id)` with ordinary rules. The platform binds each
//! worker-factor predicate the project declares to the worker registry:
//! the project's engine reads their rows from it at every run
//! ([`facts_of`] builds them from the registered profiles) and holds none
//! itself. The platform reads `eligible` back out:
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
//! as a `rel` that no rule derives and no program fact fills; registration
//! refuses it otherwise. A fact seeded into a bound predicate is refused
//! too: only a registration changes what the registry says of a worker.

use crate::error::{PlatformError, WorkerId};
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_cylog::error::CylogError;
use crowd4u_storage::prelude::{Tuple, Value, ValueType};
use std::collections::BTreeMap;

/// The conventional worker-factor predicates a project may declare, with
/// the column types of the rows [`facts_of`] builds.
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
/// would make every row [`facts_of`] builds ill-typed, or
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

/// Bind every worker-factor predicate the program declares to the host,
/// the worker registry (call after [`check_conventions`]).
pub(crate) fn bind_worker_preds(engine: &mut CylogEngine) -> Result<(), PlatformError> {
    let declared: Vec<&str> = WORKER_PREDS
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| engine.program().pred(name).is_some())
        .collect();
    Ok(engine.bind_host(&declared)?)
}

/// The rows one registered profile holds in the worker-factor predicate
/// `pred`, handed to `emit`: the one definition of what a declarative
/// program reads about a worker. A name outside [`WORKER_PREDS`] holds
/// none.
pub fn facts_of(profile: &WorkerProfile, pred: &str, mut emit: impl FnMut(Tuple)) {
    let f = &profile.factors;
    let id = || Value::Id(profile.id.0);
    match pred {
        "worker" => emit(Tuple::new(vec![id()])),
        "worker_online" if f.logged_in => emit(Tuple::new(vec![id()])),
        "worker_native" => {
            for (i, lang) in f.native_langs.iter().enumerate() {
                // A relation is a set: a language listed twice is one row.
                if !f.native_langs[..i].contains(lang) {
                    emit(Tuple::new(vec![id(), Value::Str(lang.code().to_owned())]));
                }
            }
        }
        "worker_fluent" => {
            for (lang, level) in &f.fluency {
                let lang = Value::Str(lang.code().to_owned());
                emit(Tuple::new(vec![id(), lang, Value::Float(*level)]));
            }
        }
        "worker_skill" => {
            for (skill, level) in &f.skills {
                let skill = Value::Str(skill.clone());
                emit(Tuple::new(vec![id(), skill, Value::Float(*level)]));
            }
        }
        _ => {}
    }
}

/// Per predicate of [`WORKER_PREDS`], in its order: whether re-registering
/// `old` as `new` takes a row of it away — a logout, a dropped native
/// language, or a fluency or skill dropped or at another level. Compares
/// fields and allocates nothing.
pub(crate) fn lost_rows(old: &WorkerProfile, new: &WorkerProfile) -> [bool; WORKER_PREDS.len()] {
    let (old, new) = (&old.factors, &new.factors);
    fn levels_lost<K: Ord>(old: &BTreeMap<K, f64>, new: &BTreeMap<K, f64>) -> bool {
        old.iter()
            .any(|(k, v)| new.get(k).map(|n| n.to_bits()) != Some(v.to_bits()))
    }
    [
        false,
        old.logged_in && !new.logged_in,
        old.native_langs
            .iter()
            .any(|l| !new.native_langs.contains(l)),
        levels_lost(&old.fluency, &new.fluency),
        levels_lost(&old.skills, &new.skills),
    ]
}

/// Read the CyLog-computed eligible set (call after the engine ran).
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
    use crate::platform::Crowd4U;
    use crowd4u_collab::Scheme;
    use crowd4u_crowd::profile::WorkerProfile;
    use crowd4u_forms::admin::DesiredFactors;

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

    fn platform(workers: &[WorkerProfile], src: &str) -> (Crowd4U, crate::error::ProjectId) {
        let mut p = Crowd4U::new();
        for w in workers {
            p.register_worker(w.clone());
        }
        let proj = p
            .register_project("decl", src, DesiredFactors::default(), Scheme::Sequential)
            .unwrap();
        (p, proj)
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
        let (mut p, proj) = platform(
            &[
                worker(1, "en", 0.8, true),  // ok
                worker(2, "ja", 0.8, true),  // lang
                worker(3, "en", 0.2, true),  // skill
                worker(4, "en", 0.8, false), // offline
            ],
            SRC,
        );
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(1)]);
    }

    #[test]
    fn factor_updates_are_reflected() {
        let (mut p, proj) = platform(&[worker(1, "en", 0.8, true)], SRC);
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(1)]);
        // the worker logs out: a re-registration, eligibility disappears
        p.register_worker(worker(1, "en", 0.8, false));
        assert!(p.eligible_set(proj).unwrap().is_empty());
        // and back in
        p.register_worker(worker(1, "en", 0.8, true));
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(1)]);
    }

    /// A declarative project whose conventional predicates have the wrong
    /// shape is refused at registration, with nothing journaled — not
    /// admitted to misread every later worker.
    #[test]
    fn malformed_conventions_are_refused_at_registration() {
        let malformed = [
            "rel worker_online(w: id, since: int).\nrel eligible(w: id).\n\
             eligible(W) :- worker_online(W, S).\n",
            "rel worker_native(w: id, lang: int).\nrel eligible(w: id).\n\
             eligible(W) :- worker_native(W, 1).\n",
            "rel worker(w: id).\nrel worker_online(w: id).\nrel eligible(w: id).\n\
             worker_online(W) :- worker(W).\neligible(W) :- worker_online(W).\n",
            "rel worker(w: id).\nrel eligible(w: str).\neligible(\"x\") :- worker(W).\n",
            // A program fact in a worker-factor predicate: a phantom worker.
            "rel worker_online(w: id).\nworker_online(#5).\nrel eligible(w: id).\n\
             eligible(W) :- worker_online(W).\n",
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
        // The conventional shapes register, and the worker is read.
        let proj = p
            .register_project("ok", SRC, DesiredFactors::default(), Scheme::Sequential)
            .unwrap();
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(1)]);
    }

    /// Every row [`facts_of`] builds has the column types [`WORKER_PREDS`]
    /// lists, so the two cannot drift apart; and a program declaring all
    /// five predicates reads each of them from the registry.
    #[test]
    fn listed_shapes_accept_every_synced_fact() {
        let w = worker(1, "en", 0.8, true).with_fluency("ja", 0.6);
        let mut src = String::new();
        for (name, types) in WORKER_PREDS {
            let mut rows = 0;
            facts_of(&w, name, |row| {
                assert_eq!(row.values().len(), types.len(), "{name}");
                for (v, ty) in row.values().iter().zip(types) {
                    assert!(v.conforms_to(*ty), "{name}: {v} is not {ty}");
                }
                rows += 1;
            });
            assert!(rows > 0, "{name}");
            let cols: Vec<String> = types
                .iter()
                .enumerate()
                .map(|(i, t)| format!("c{i}: {t}"))
                .collect();
            src += &format!("rel {name}({}).\n", cols.join(", "));
        }
        src += "rel eligible(w: id, n: int).\n\
                eligible(W, 1) :- worker(W), worker_online(W), worker_native(W, L), \
                worker_fluent(W, F, X), worker_skill(W, S, Y).\n";
        let (mut p, proj) = platform(&[w], &src);
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(1)]);
        let engine = &p.project(proj).unwrap().engine;
        for (name, _) in WORKER_PREDS {
            assert_eq!(engine.fact_count(name).unwrap(), 0, "{name} is not copied");
        }
    }

    /// [`lost_rows`] says a predicate lost a row exactly when some row
    /// [`facts_of`] builds for the old profile is not among the new one's.
    #[test]
    fn lost_rows_is_the_row_difference() {
        let variants: Vec<WorkerProfile> = (0..16u64)
            .map(|v| {
                let mut p = WorkerProfile::new(WorkerId(1), "w")
                    .with_native_lang(if v & 1 == 0 { "en" } else { "ja" })
                    .with_skill("t", if v & 2 == 0 { 0.5 } else { 0.7 });
                if v & 4 != 0 {
                    p = p.with_fluency("fr", 0.4).with_skill("u", 0.1);
                }
                p.factors.logged_in = v & 8 == 0;
                p
            })
            .collect();
        let rows = |p: &WorkerProfile, pred: &str| {
            let mut out = Vec::new();
            facts_of(p, pred, |row| out.push(row));
            out
        };
        for old in &variants {
            for new in &variants {
                let lost = lost_rows(old, new);
                for (i, (name, _)) in WORKER_PREDS.iter().enumerate() {
                    let kept = rows(new, name);
                    let want = rows(old, name).iter().any(|r| !kept.contains(r));
                    assert_eq!(lost[i], want, "{name}: {old:?} -> {new:?}");
                }
            }
        }
    }

    #[test]
    fn partial_predicate_declarations_ok() {
        // A project may declare only the predicates it needs.
        let src = "\
rel worker_online(w: id).
rel eligible(w: id).
eligible(W) :- worker_online(W).
";
        let (mut p, proj) = platform(&[worker(9, "fr", 0.1, true)], src);
        assert_eq!(p.eligible_set(proj).unwrap(), vec![WorkerId(9)]);
    }
}
