//! The three worker↔task relationships, as typed pair sets.
//!
//! Paper §2.2: "Crowd4U manages three types of relationships between
//! workers and tasks explicitly. (1) *Eligible* … computed by the CyLog
//! processor using the project description and worker human factors.
//! (2) *InterestedIn* … declared by each worker when she is shown a list of
//! eligible tasks. (3) *Undertakes* … A (worker,task) pair can go into this
//! relationship status only when the worker is Eligible for that task."
//!
//! Each relationship is a set of `(worker, task)` pairs held once, by
//! task: a B-tree of tasks, each with the B-tree set of its workers. An
//! insert, probe or removal costs O(log n) per pair, clearing a task drops
//! that task's own entry, and every per-task read comes out sorted. There
//! is no inverse by-worker copy: every event reads and writes rows by task,
//! and a copy kept for the one by-worker read (the user page) doubled the
//! cost of every mark and clear. That page scans the pool's active tasks
//! and probes [`RelationStore::is_eligible`] instead
//! (`Crowd4U::visible_tasks`). [`RelationStore::dump`] prints the
//! `crowd4u-storage` snapshot of the three relations as `(worker id, task
//! id)` tables.

use crate::error::{PlatformError, TaskId, WorkerId};
use crowd4u_storage::prelude::*;
use crowd4u_storage::snapshot;
use std::collections::{BTreeMap, BTreeSet};

/// One relationship: a set of `(worker, task)` pairs, indexed by task.
#[derive(Default)]
struct Pairs {
    by_task: BTreeMap<TaskId, BTreeSet<WorkerId>>,
    len: usize,
}

impl Pairs {
    fn insert(&mut self, w: WorkerId, t: TaskId) -> bool {
        let fresh = self.by_task.entry(t).or_default().insert(w);
        self.len += usize::from(fresh);
        fresh
    }

    fn contains(&self, w: WorkerId, t: TaskId) -> bool {
        self.by_task.get(&t).is_some_and(|ws| ws.contains(&w))
    }

    /// Take the pair out, dropping the task's set once it is empty.
    fn remove(&mut self, w: WorkerId, t: TaskId) {
        let Some(ws) = self.by_task.get_mut(&t) else {
            return;
        };
        if ws.remove(&w) {
            self.len -= 1;
            if ws.is_empty() {
                self.by_task.remove(&t);
            }
        }
    }

    fn remove_task(&mut self, t: TaskId) {
        if let Some(ws) = self.by_task.remove(&t) {
            self.len -= ws.len();
        }
    }

    /// The task's workers, in order.
    fn workers(&self, t: TaskId) -> Vec<WorkerId> {
        self.by_task
            .get(&t)
            .map_or_else(Vec::new, |ws| ws.iter().copied().collect())
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
        self.eligible.workers(t)
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
        self.interested.workers(t)
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
        self.undertakes.workers(t)
    }

    /// Remove every relationship of a finished/abandoned task: one entry
    /// dropped per relation.
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
            for (t, ws) in &pairs.by_task {
                for w in ws {
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
        assert!(rs.undertaking_workers(t(7)).is_empty());
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
