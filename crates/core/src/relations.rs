//! The three worker↔task relationships, as typed pair sets.
//!
//! Paper §2.2: "Crowd4U manages three types of relationships between
//! workers and tasks explicitly. (1) *Eligible* … computed by the CyLog
//! processor using the project description and worker human factors.
//! (2) *InterestedIn* … declared by each worker when she is shown a list of
//! eligible tasks. (3) *Undertakes* … A (worker,task) pair can go into this
//! relationship status only when the worker is Eligible for that task."
//!
//! Each relationship is a set of `(worker, task)` pairs held twice, by task
//! and by worker, in B-trees: an insert, probe or removal costs O(log n)
//! per pair, clearing a task costs in proportion to that task's own rows,
//! and every read comes out sorted. [`RelationStore::dump`] prints the
//! `crowd4u-storage` snapshot of the three relations as `(worker id,
//! task id)` tables.

use crate::error::{PlatformError, TaskId, WorkerId};
use crowd4u_storage::prelude::*;
use crowd4u_storage::snapshot;
use std::collections::{BTreeMap, BTreeSet};

/// One relationship: a set of `(worker, task)` pairs, indexed both ways.
#[derive(Default)]
struct Pairs {
    by_task: BTreeMap<TaskId, BTreeSet<WorkerId>>,
    by_worker: BTreeMap<WorkerId, BTreeSet<TaskId>>,
    len: usize,
}

/// Take `v` out of `k`'s set, dropping the set once it is empty.
fn unlink<K: Ord, V: Ord>(map: &mut BTreeMap<K, BTreeSet<V>>, k: K, v: &V) -> bool {
    let Some(set) = map.get_mut(&k) else {
        return false;
    };
    let removed = set.remove(v);
    if set.is_empty() {
        map.remove(&k);
    }
    removed
}

/// The members of `k`'s set, in order.
fn members<K: Ord, V: Copy>(map: &BTreeMap<K, BTreeSet<V>>, k: &K) -> Vec<V> {
    map.get(k)
        .map_or_else(Vec::new, |set| set.iter().copied().collect())
}

impl Pairs {
    fn insert(&mut self, w: WorkerId, t: TaskId) -> bool {
        let fresh = self.by_task.entry(t).or_default().insert(w);
        if fresh {
            self.by_worker.entry(w).or_default().insert(t);
            self.len += 1;
        }
        fresh
    }

    fn contains(&self, w: WorkerId, t: TaskId) -> bool {
        self.by_task.get(&t).is_some_and(|ws| ws.contains(&w))
    }

    fn remove(&mut self, w: WorkerId, t: TaskId) {
        if unlink(&mut self.by_task, t, &w) {
            unlink(&mut self.by_worker, w, &t);
            self.len -= 1;
        }
    }

    fn remove_task(&mut self, t: TaskId) {
        for w in self.by_task.remove(&t).unwrap_or_default() {
            unlink(&mut self.by_worker, w, &t);
            self.len -= 1;
        }
    }
}

/// Eligible / InterestedIn / Undertakes.
#[derive(Default)]
pub struct RelationStore {
    eligible: Pairs,
    interested: Pairs,
    undertakes: Pairs,
}

impl RelationStore {
    pub fn new() -> RelationStore {
        RelationStore::default()
    }

    // ---- Eligible ----

    /// Mark a worker eligible for a task (computed by the platform);
    /// `false` when the pair was already there.
    pub fn mark_eligible(&mut self, w: WorkerId, t: TaskId) -> bool {
        self.eligible.insert(w, t)
    }

    pub fn is_eligible(&self, w: WorkerId, t: TaskId) -> bool {
        self.eligible.contains(w, t)
    }

    pub fn eligible_workers(&self, t: TaskId) -> Vec<WorkerId> {
        members(&self.eligible.by_task, &t)
    }

    pub fn eligible_tasks(&self, w: WorkerId) -> Vec<TaskId> {
        members(&self.eligible.by_worker, &w)
    }

    /// Withdraw eligibility (e.g. worker logged out); cascades to
    /// InterestedIn and Undertakes, preserving the state-machine invariant.
    pub fn revoke_eligibility(&mut self, w: WorkerId, t: TaskId) {
        self.eligible.remove(w, t);
        self.interested.remove(w, t);
        self.undertakes.remove(w, t);
    }

    // ---- InterestedIn ----

    /// A worker declares interest. Only eligible workers may (§2.2 (2) —
    /// the user page only *shows* eligible tasks, so the API enforces it).
    pub fn express_interest(&mut self, w: WorkerId, t: TaskId) -> Result<bool, PlatformError> {
        if !self.is_eligible(w, t) {
            return Err(PlatformError::NotEligible { worker: w, task: t });
        }
        Ok(self.interested.insert(w, t))
    }

    pub fn is_interested(&self, w: WorkerId, t: TaskId) -> bool {
        self.interested.contains(w, t)
    }

    pub fn interested_workers(&self, t: TaskId) -> Vec<WorkerId> {
        members(&self.interested.by_task, &t)
    }

    /// Withdraw interest (does not touch undertakes).
    pub fn withdraw_interest(&mut self, w: WorkerId, t: TaskId) {
        self.interested.remove(w, t);
    }

    // ---- Undertakes ----

    /// A worker confirms they perform the task. "A (worker,task) pair can
    /// go into this relationship status only when the worker is Eligible."
    pub fn undertake(&mut self, w: WorkerId, t: TaskId) -> Result<bool, PlatformError> {
        if !self.is_eligible(w, t) {
            return Err(PlatformError::NotEligible { worker: w, task: t });
        }
        Ok(self.undertakes.insert(w, t))
    }

    pub fn is_undertaking(&self, w: WorkerId, t: TaskId) -> bool {
        self.undertakes.contains(w, t)
    }

    pub fn undertaking_workers(&self, t: TaskId) -> Vec<WorkerId> {
        members(&self.undertakes.by_task, &t)
    }

    /// Remove every relationship of a finished/abandoned task.
    pub fn clear_task(&mut self, t: TaskId) {
        self.eligible.remove_task(t);
        self.interested.remove_task(t);
        self.undertakes.remove_task(t);
    }

    /// The three relations as the `crowd4u-storage` snapshot of a database
    /// holding them as `eligible`, `interested_in` and `undertakes` tables
    /// of `(worker id, task id)`: the text `state_dump()` carries.
    pub fn dump(&self) -> String {
        let mut db = Database::new();
        for (name, pairs) in [
            ("eligible", &self.eligible),
            ("interested_in", &self.interested),
            ("undertakes", &self.undertakes),
        ] {
            let rel = db
                .create_relation(
                    name,
                    Schema::of(&[("worker", ValueType::Id), ("task", ValueType::Id)]),
                )
                .expect("fresh database");
            for (w, ts) in &pairs.by_worker {
                for t in ts {
                    rel.insert(tuple![w.0, t.0])
                        .expect("an id pair fits the schema");
                }
            }
        }
        snapshot::dump(&db)
    }

    /// Relationship row counts `(eligible, interested, undertakes)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.eligible.len, self.interested.len, self.undertakes.len)
    }
}

#[cfg(test)]
mod model_diff;

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u64) -> WorkerId {
        WorkerId(i)
    }

    fn t(i: u64) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn state_machine_order_enforced() {
        let mut rs = RelationStore::new();
        // interest before eligibility: rejected
        assert!(matches!(
            rs.express_interest(w(1), t(1)),
            Err(PlatformError::NotEligible { .. })
        ));
        // undertake before eligibility: rejected
        assert!(matches!(
            rs.undertake(w(1), t(1)),
            Err(PlatformError::NotEligible { .. })
        ));
        assert!(rs.mark_eligible(w(1), t(1)));
        assert!(rs.express_interest(w(1), t(1)).unwrap());
        assert!(rs.undertake(w(1), t(1)).unwrap());
        assert!(rs.is_eligible(w(1), t(1)));
        assert!(rs.is_interested(w(1), t(1)));
        assert!(rs.is_undertaking(w(1), t(1)));
        assert_eq!(rs.counts(), (1, 1, 1));
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut rs = RelationStore::new();
        rs.mark_eligible(w(1), t(1));
        assert!(!rs.mark_eligible(w(1), t(1)));
        rs.express_interest(w(1), t(1)).unwrap();
        assert!(!rs.express_interest(w(1), t(1)).unwrap());
        assert_eq!(rs.counts(), (1, 1, 0));
    }

    #[test]
    fn lookups_sorted() {
        let mut rs = RelationStore::new();
        for i in [3u64, 1, 2] {
            rs.mark_eligible(w(i), t(7));
            rs.express_interest(w(i), t(7)).unwrap();
        }
        assert_eq!(rs.eligible_workers(t(7)), vec![w(1), w(2), w(3)]);
        assert_eq!(rs.interested_workers(t(7)), vec![w(1), w(2), w(3)]);
        rs.mark_eligible(w(1), t(9));
        assert_eq!(rs.eligible_tasks(w(1)), vec![t(7), t(9)]);
        assert!(rs.undertaking_workers(t(7)).is_empty());
    }

    #[test]
    fn revoke_cascades() {
        let mut rs = RelationStore::new();
        rs.mark_eligible(w(1), t(1));
        rs.express_interest(w(1), t(1)).unwrap();
        rs.undertake(w(1), t(1)).unwrap();
        rs.revoke_eligibility(w(1), t(1));
        assert!(!rs.is_eligible(w(1), t(1)));
        assert!(!rs.is_interested(w(1), t(1)));
        assert!(!rs.is_undertaking(w(1), t(1)));
        assert_eq!(rs.counts(), (0, 0, 0));
    }

    #[test]
    fn withdraw_interest_keeps_eligibility() {
        let mut rs = RelationStore::new();
        rs.mark_eligible(w(1), t(1));
        rs.express_interest(w(1), t(1)).unwrap();
        rs.withdraw_interest(w(1), t(1));
        assert!(rs.is_eligible(w(1), t(1)));
        assert!(!rs.is_interested(w(1), t(1)));
    }

    #[test]
    fn clear_task_removes_only_that_task() {
        let mut rs = RelationStore::new();
        for task in [t(1), t(2)] {
            rs.mark_eligible(w(1), task);
            rs.express_interest(w(1), task).unwrap();
        }
        rs.clear_task(t(1));
        assert!(!rs.is_eligible(w(1), t(1)));
        assert!(rs.is_eligible(w(1), t(2)));
        assert!(rs.is_interested(w(1), t(2)));
    }
}
