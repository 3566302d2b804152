//! The three worker↔task relationships, stored relationally.
//!
//! Paper §2.2: "Crowd4U manages three types of relationships between
//! workers and tasks explicitly. (1) *Eligible* … computed by the CyLog
//! processor using the project description and worker human factors.
//! (2) *InterestedIn* … declared by each worker when she is shown a list of
//! eligible tasks. (3) *Undertakes* … A (worker,task) pair can go into this
//! relationship status only when the worker is Eligible for that task."
//!
//! The relationships live in indexed `crowd4u-storage` relations — the same
//! substrate the production platform's SQL tables provide — so scans,
//! lookups and cascading deletes exercise the storage engine.

use crate::error::{PlatformError, TaskId, WorkerId};
use crowd4u_storage::prelude::*;

const RELS: [&str; 3] = ["eligible", "interested_in", "undertakes"];

/// Relational store of Eligible / InterestedIn / Undertakes.
pub struct RelationStore {
    db: Database,
}

impl Default for RelationStore {
    fn default() -> Self {
        let mut db = Database::new();
        for name in RELS {
            let rel = db
                .create_relation(
                    name,
                    Schema::of(&[("worker", ValueType::Id), ("task", ValueType::Id)]),
                )
                .expect("fresh database");
            // A `(worker, task)` probe can use either index; the storage
            // layer walks the shorter posting list (a task's few workers,
            // not a worker's every task) and, on a tie, the first declared.
            rel.create_index(&["task"], false).expect("index");
            rel.create_index(&["worker"], false).expect("index");
        }
        RelationStore { db }
    }
}

impl RelationStore {
    pub fn new() -> RelationStore {
        RelationStore::default()
    }

    fn insert(&mut self, rel: &str, w: WorkerId, t: TaskId) -> Result<bool, PlatformError> {
        let (_, fresh) = self
            .db
            .relation_mut(rel)?
            .insert_distinct(tuple![w.0, t.0])?;
        Ok(fresh)
    }

    fn contains(&self, rel: &str, w: WorkerId, t: TaskId) -> bool {
        self.db
            .relation(rel)
            .map(|r| r.contains(&tuple![w.0, t.0]))
            .unwrap_or(false)
    }

    fn workers_of(&self, rel: &str, t: TaskId) -> Vec<WorkerId> {
        let Ok(r) = self.db.relation(rel) else {
            return Vec::new();
        };
        let mut out: Vec<WorkerId> = r
            .lookup(&[1], &[Value::Id(t.0)])
            .into_iter()
            .filter_map(|row| row[0].as_id().map(WorkerId))
            .collect();
        out.sort();
        out
    }

    fn tasks_of(&self, rel: &str, w: WorkerId) -> Vec<TaskId> {
        let Ok(r) = self.db.relation(rel) else {
            return Vec::new();
        };
        let mut out: Vec<TaskId> = r
            .lookup(&[0], &[Value::Id(w.0)])
            .into_iter()
            .filter_map(|row| row[1].as_id().map(TaskId))
            .collect();
        out.sort();
        out
    }

    // ---- Eligible ----

    /// Mark a worker eligible for a task (computed by the platform).
    pub fn mark_eligible(&mut self, w: WorkerId, t: TaskId) -> Result<bool, PlatformError> {
        self.insert("eligible", w, t)
    }

    pub fn is_eligible(&self, w: WorkerId, t: TaskId) -> bool {
        self.contains("eligible", w, t)
    }

    pub fn eligible_workers(&self, t: TaskId) -> Vec<WorkerId> {
        self.workers_of("eligible", t)
    }

    pub fn eligible_tasks(&self, w: WorkerId) -> Vec<TaskId> {
        self.tasks_of("eligible", w)
    }

    /// Withdraw eligibility (e.g. worker logged out); cascades to
    /// InterestedIn and Undertakes, preserving the state-machine invariant.
    pub fn revoke_eligibility(&mut self, w: WorkerId, t: TaskId) -> Result<(), PlatformError> {
        for rel in RELS {
            self.db
                .relation_mut(rel)?
                .delete_matching(&[0, 1], &[Value::Id(w.0), Value::Id(t.0)]);
        }
        Ok(())
    }

    // ---- InterestedIn ----

    /// A worker declares interest. Only eligible workers may (§2.2 (2) —
    /// the user page only *shows* eligible tasks, so the API enforces it).
    pub fn express_interest(&mut self, w: WorkerId, t: TaskId) -> Result<bool, PlatformError> {
        if !self.is_eligible(w, t) {
            return Err(PlatformError::NotEligible { worker: w, task: t });
        }
        self.insert("interested_in", w, t)
    }

    pub fn is_interested(&self, w: WorkerId, t: TaskId) -> bool {
        self.contains("interested_in", w, t)
    }

    pub fn interested_workers(&self, t: TaskId) -> Vec<WorkerId> {
        self.workers_of("interested_in", t)
    }

    /// Withdraw interest (does not touch undertakes).
    pub fn withdraw_interest(&mut self, w: WorkerId, t: TaskId) -> Result<(), PlatformError> {
        self.db
            .relation_mut("interested_in")?
            .delete_matching(&[0, 1], &[Value::Id(w.0), Value::Id(t.0)]);
        Ok(())
    }

    // ---- Undertakes ----

    /// A worker confirms they perform the task. "A (worker,task) pair can
    /// go into this relationship status only when the worker is Eligible."
    pub fn undertake(&mut self, w: WorkerId, t: TaskId) -> Result<bool, PlatformError> {
        if !self.is_eligible(w, t) {
            return Err(PlatformError::NotEligible { worker: w, task: t });
        }
        self.insert("undertakes", w, t)
    }

    pub fn is_undertaking(&self, w: WorkerId, t: TaskId) -> bool {
        self.contains("undertakes", w, t)
    }

    pub fn undertaking_workers(&self, t: TaskId) -> Vec<WorkerId> {
        self.workers_of("undertakes", t)
    }

    /// Remove every relationship of a finished/abandoned task.
    pub fn clear_task(&mut self, t: TaskId) -> Result<(), PlatformError> {
        // Runs on every answer and completion. The task index finds the
        // rows (one per worker of the task); taking each out of its
        // worker's posting list then scans that list for the row id, so
        // the cost is the task's rows plus a cheap pass over those
        // workers' lists — not O(matches), and not a hash probe per entry.
        for rel in RELS {
            self.db
                .relation_mut(rel)?
                .delete_matching(&[1], &[Value::Id(t.0)]);
        }
        Ok(())
    }

    /// The underlying database (read-only), e.g. for snapshots and
    /// replay-equality checks.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Relationship row counts `(eligible, interested, undertakes)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.db.relation("eligible").map(|r| r.len()).unwrap_or(0),
            self.db
                .relation("interested_in")
                .map(|r| r.len())
                .unwrap_or(0),
            self.db.relation("undertakes").map(|r| r.len()).unwrap_or(0),
        )
    }
}

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
        assert!(rs.mark_eligible(w(1), t(1)).unwrap());
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
        rs.mark_eligible(w(1), t(1)).unwrap();
        assert!(!rs.mark_eligible(w(1), t(1)).unwrap());
        rs.express_interest(w(1), t(1)).unwrap();
        assert!(!rs.express_interest(w(1), t(1)).unwrap());
        assert_eq!(rs.counts(), (1, 1, 0));
    }

    #[test]
    fn lookups_sorted() {
        let mut rs = RelationStore::new();
        for i in [3u64, 1, 2] {
            rs.mark_eligible(w(i), t(7)).unwrap();
            rs.express_interest(w(i), t(7)).unwrap();
        }
        assert_eq!(rs.eligible_workers(t(7)), vec![w(1), w(2), w(3)]);
        assert_eq!(rs.interested_workers(t(7)), vec![w(1), w(2), w(3)]);
        rs.mark_eligible(w(1), t(9)).unwrap();
        assert_eq!(rs.eligible_tasks(w(1)), vec![t(7), t(9)]);
        assert!(rs.undertaking_workers(t(7)).is_empty());
    }

    #[test]
    fn revoke_cascades() {
        let mut rs = RelationStore::new();
        rs.mark_eligible(w(1), t(1)).unwrap();
        rs.express_interest(w(1), t(1)).unwrap();
        rs.undertake(w(1), t(1)).unwrap();
        rs.revoke_eligibility(w(1), t(1)).unwrap();
        assert!(!rs.is_eligible(w(1), t(1)));
        assert!(!rs.is_interested(w(1), t(1)));
        assert!(!rs.is_undertaking(w(1), t(1)));
        assert_eq!(rs.counts(), (0, 0, 0));
    }

    #[test]
    fn withdraw_interest_keeps_eligibility() {
        let mut rs = RelationStore::new();
        rs.mark_eligible(w(1), t(1)).unwrap();
        rs.express_interest(w(1), t(1)).unwrap();
        rs.withdraw_interest(w(1), t(1)).unwrap();
        assert!(rs.is_eligible(w(1), t(1)));
        assert!(!rs.is_interested(w(1), t(1)));
    }

    #[test]
    fn clear_task_removes_only_that_task() {
        let mut rs = RelationStore::new();
        for task in [t(1), t(2)] {
            rs.mark_eligible(w(1), task).unwrap();
            rs.express_interest(w(1), task).unwrap();
        }
        rs.clear_task(t(1)).unwrap();
        assert!(!rs.is_eligible(w(1), t(1)));
        assert!(rs.is_eligible(w(1), t(2)));
        assert!(rs.is_interested(w(1), t(2)));
    }
}
