//! Differential test of the relation store against a reference model that
//! keeps each relationship as one `BTreeSet<(WorkerId, TaskId)>`.
//!
//! Each generated step is one store operation — `mark_eligible`,
//! `express_interest`, `undertake`, `withdraw_interest`,
//! `revoke_eligibility` or `clear_task` — over small worker and task
//! domains, applied to the store and to the model. After every step the
//! two must agree on: the step's return value
//! (`NotEligible` included); every `is_*` probe over the domains; the
//! sorted `*_workers` and `eligible_tasks` reads; `counts()`; and `dump()`,
//! which must equal `snapshot::dump` of a `crowd4u-storage` database built
//! from the model with the three tables' `(worker id, task id)` schema —
//! the text `state_dump()` carries. A separate test checks the empty store.

use super::*;
use proptest::prelude::*;

const WORKERS: u64 = 4;
const TASKS: u64 = 4;

type Set = BTreeSet<(WorkerId, TaskId)>;

#[derive(Default)]
struct Model {
    eligible: Set,
    interested: Set,
    undertakes: Set,
}

/// What a step returned, in one comparable form.
type Outcome = Option<Result<bool, PlatformError>>;

fn apply_store(rs: &mut RelationStore, (kind, w, t): (u8, WorkerId, TaskId)) -> Outcome {
    match kind {
        0 => Some(Ok(rs.mark_eligible(w, t))),
        1 => Some(rs.express_interest(w, t)),
        2 => Some(rs.undertake(w, t)),
        3 => {
            rs.withdraw_interest(w, t);
            None
        }
        4 => {
            rs.revoke_eligibility(w, t);
            None
        }
        _ => {
            rs.clear_task(t);
            None
        }
    }
}

fn apply_model(m: &mut Model, (kind, w, t): (u8, WorkerId, TaskId)) -> Outcome {
    let not_eligible = Err(PlatformError::NotEligible { worker: w, task: t });
    match kind {
        0 => Some(Ok(m.eligible.insert((w, t)))),
        1 if !m.eligible.contains(&(w, t)) => Some(not_eligible),
        1 => Some(Ok(m.interested.insert((w, t)))),
        2 if !m.eligible.contains(&(w, t)) => Some(not_eligible),
        2 => Some(Ok(m.undertakes.insert((w, t)))),
        3 => {
            m.interested.remove(&(w, t));
            None
        }
        4 => {
            for set in [&mut m.eligible, &mut m.interested, &mut m.undertakes] {
                set.remove(&(w, t));
            }
            None
        }
        _ => {
            for set in [&mut m.eligible, &mut m.interested, &mut m.undertakes] {
                set.retain(|&(_, task)| task != t);
            }
            None
        }
    }
}

fn workers_of(set: &Set, t: TaskId) -> Vec<WorkerId> {
    set.iter()
        .filter(|&&(_, task)| task == t)
        .map(|&(w, _)| w)
        .collect()
}

/// The model as the storage database the relation store used to be.
fn model_dump(m: &Model) -> String {
    let mut db = Database::new();
    for (name, set) in [
        ("eligible", &m.eligible),
        ("interested_in", &m.interested),
        ("undertakes", &m.undertakes),
    ] {
        let rel = db
            .create_relation(
                name,
                Schema::of(&[("worker", ValueType::Id), ("task", ValueType::Id)]),
            )
            .unwrap();
        for &(w, t) in set {
            rel.insert(tuple![w.0, t.0]).unwrap();
        }
    }
    snapshot::dump(&db)
}

/// Every accessor of the store against the model; the first difference.
fn disagreement(rs: &RelationStore, m: &Model) -> Option<String> {
    for wi in 0..WORKERS {
        let w = WorkerId(wi);
        let tasks: Vec<TaskId> = m
            .eligible
            .iter()
            .filter(|&&(worker, _)| worker == w)
            .map(|&(_, t)| t)
            .collect();
        if rs.eligible_tasks(w) != tasks {
            return Some(format!("eligible_tasks({w:?})"));
        }
        for ti in 0..TASKS {
            let t = TaskId(ti);
            let probes = [
                rs.is_eligible(w, t) == m.eligible.contains(&(w, t)),
                rs.is_interested(w, t) == m.interested.contains(&(w, t)),
                rs.is_undertaking(w, t) == m.undertakes.contains(&(w, t)),
            ];
            if probes.contains(&false) {
                return Some(format!("is_* probes ({w:?}, {t:?}): {probes:?}"));
            }
        }
    }
    for ti in 0..TASKS {
        let t = TaskId(ti);
        if rs.eligible_workers(t) != workers_of(&m.eligible, t)
            || rs.interested_workers(t) != workers_of(&m.interested, t)
            || rs.undertaking_workers(t) != workers_of(&m.undertakes, t)
        {
            return Some(format!("*_workers({t:?})"));
        }
    }
    let counts = (m.eligible.len(), m.interested.len(), m.undertakes.len());
    if rs.counts() != counts {
        return Some(format!("counts {:?} vs {counts:?}", rs.counts()));
    }
    let (got, want) = (rs.dump(), model_dump(m));
    (got != want).then(|| format!("dump\n{got}\nvs\n{want}"))
}

#[test]
fn empty_store_matches_empty_model() {
    assert_eq!(disagreement(&RelationStore::new(), &Model::default()), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_pair_set_model(
        steps in proptest::collection::vec((0u8..6, 0..WORKERS, 0..TASKS), 0..64),
    ) {
        let mut rs = RelationStore::new();
        let mut m = Model::default();
        for (i, &(kind, wi, ti)) in steps.iter().enumerate() {
            let op = (kind, WorkerId(wi), TaskId(ti));
            let got = apply_store(&mut rs, op);
            let want = apply_model(&mut m, op);
            prop_assert!(got == want, "step {} {:?} returned {:?}, model {:?}", i, op, got, want);
            let diff = disagreement(&rs, &m);
            prop_assert!(diff.is_none(), "step {} {:?}: {}", i, op, diff.unwrap_or_default());
        }
    }
}
