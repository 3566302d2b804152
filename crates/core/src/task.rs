//! Tasks and the task pool.
//!
//! Two task flavours exist, mirroring the platform:
//! * **micro-tasks** generated by the CyLog processor from open-predicate
//!   demands ("the CyLog processor … dynamically generates and registers
//!   tasks into the task pool", §2.1) — answered by one worker;
//! * **collaborative tasks** — team-level tasks carrying a collaboration
//!   scheme, formed by the assignment controller and completed through the
//!   schemes in `crowd4u-collab`.

use crate::error::{PlatformError, ProjectId, TaskId, WorkerId};
use crowd4u_collab::Scheme;
use crowd4u_sim::time::SimTime;
use crowd4u_storage::prelude::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Lifecycle of a task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskState {
    /// In the pool, collecting interest.
    Open,
    /// A team has been suggested; waiting for every member to undertake
    /// before the deadline.
    Suggested {
        team: Vec<WorkerId>,
        deadline: SimTime,
        undertaken: Vec<WorkerId>,
    },
    /// All members undertook; collaboration in progress.
    InProgress { team: Vec<WorkerId> },
    /// Finished with a result.
    Completed { team: Vec<WorkerId> },
    /// Abandoned (no feasible team after retries, or cancelled).
    Abandoned { reason: String },
}

impl TaskState {
    pub fn label(&self) -> &'static str {
        match self {
            TaskState::Open => "open",
            TaskState::Suggested { .. } => "suggested",
            TaskState::InProgress { .. } => "in-progress",
            TaskState::Completed { .. } => "completed",
            TaskState::Abandoned { .. } => "abandoned",
        }
    }

    /// Index slot for the by-state secondary index.
    fn slot(&self) -> usize {
        match self {
            TaskState::Open => 0,
            TaskState::Suggested { .. } => 1,
            TaskState::InProgress { .. } => 2,
            TaskState::Completed { .. } => 3,
            TaskState::Abandoned { .. } => 4,
        }
    }

    /// The recruitment deadline, when the state carries one.
    fn deadline(&self) -> Option<SimTime> {
        match self {
            TaskState::Suggested { deadline, .. } => Some(*deadline),
            _ => None,
        }
    }
}

/// Labels for the five by-state index slots, in slot order.
const STATE_LABELS: [&str; 5] = ["open", "suggested", "in-progress", "completed", "abandoned"];

/// What the task asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskBody {
    /// A CyLog open question: predicate + input values.
    Micro {
        predicate: String,
        inputs: Vec<Value>,
        points: i64,
    },
    /// A team-level collaborative task.
    Collaborative {
        scheme: Scheme,
        description: String,
        /// Skill dimension used for eligibility/quality.
        skill: Option<String>,
    },
}

/// A task in the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    pub id: TaskId,
    pub project: ProjectId,
    pub body: TaskBody,
    pub state: TaskState,
    pub created_at: SimTime,
    /// Times assignment had to be re-executed after a missed deadline.
    pub reassignments: u32,
}

impl Task {
    pub fn is_micro(&self) -> bool {
        matches!(self.body, TaskBody::Micro { .. })
    }

    pub fn scheme(&self) -> Option<Scheme> {
        match &self.body {
            TaskBody::Collaborative { scheme, .. } => Some(*scheme),
            TaskBody::Micro { .. } => None,
        }
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            TaskBody::Micro {
                predicate, inputs, ..
            } => write!(
                f,
                "{} [{}] micro {predicate}({})",
                self.id,
                self.state.label(),
                inputs
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            TaskBody::Collaborative {
                scheme,
                description,
                ..
            } => write!(
                f,
                "{} [{}] {scheme} task: {description}",
                self.id,
                self.state.label()
            ),
        }
    }
}

/// The task pool: owns every task, keyed by id, with deterministic order.
///
/// Besides the primary id map, the pool maintains three secondary indexes
/// so the hot platform paths never scan the full pool:
/// * **by state** — one id set per lifecycle state (user pages ask for
///   open/suggested tasks; dashboards count by state);
/// * **open-by-project** — task generation and eligibility refresh only
///   touch one project's open tasks;
/// * **by deadline** — the deadline sweep range-scans suggested tasks whose
///   recruitment deadline has passed instead of checking every task.
///
/// All state changes must go through [`TaskPool::set_state`] so the indexes
/// stay consistent (there is deliberately no public `&mut Task` accessor).
#[derive(Debug, Default)]
pub struct TaskPool {
    tasks: BTreeMap<TaskId, Task>,
    /// Per-project local sequence counters: ids are project-strided
    /// ([`TaskId::compose`]), so a project's task ids depend only on that
    /// project's own registration order. This is the property the sharded
    /// runtime relies on — a shard owning a project allocates exactly the
    /// ids a single-threaded platform would.
    next_local: BTreeMap<ProjectId, u64>,
    /// Task ids per state, indexed by `TaskState::slot`.
    by_state: [BTreeSet<TaskId>; 5],
    /// Open tasks per project.
    open_by_project: BTreeMap<ProjectId, BTreeSet<TaskId>>,
    /// Recruitment deadlines of suggested tasks, time-ordered.
    deadlines: BTreeSet<(SimTime, TaskId)>,
    /// Micro-task lookup by project → predicate → inputs. Nested rather
    /// than tuple-keyed so a probe borrows its `&str` and `&[Value]`
    /// instead of building an owned key per lookup.
    micro: BTreeMap<ProjectId, BTreeMap<String, BTreeMap<Vec<Value>, TaskId>>>,
}

impl TaskPool {
    pub fn new() -> TaskPool {
        TaskPool::default()
    }

    /// Add `task` to the secondary indexes for its current state.
    fn index(
        by_state: &mut [BTreeSet<TaskId>; 5],
        open_by_project: &mut BTreeMap<ProjectId, BTreeSet<TaskId>>,
        deadlines: &mut BTreeSet<(SimTime, TaskId)>,
        task: &Task,
    ) {
        by_state[task.state.slot()].insert(task.id);
        if matches!(task.state, TaskState::Open) {
            open_by_project
                .entry(task.project)
                .or_default()
                .insert(task.id);
        }
        if let Some(d) = task.state.deadline() {
            deadlines.insert((d, task.id));
        }
    }

    /// Remove `task` from the secondary indexes for its current state.
    fn unindex(
        by_state: &mut [BTreeSet<TaskId>; 5],
        open_by_project: &mut BTreeMap<ProjectId, BTreeSet<TaskId>>,
        deadlines: &mut BTreeSet<(SimTime, TaskId)>,
        task: &Task,
    ) {
        by_state[task.state.slot()].remove(&task.id);
        if matches!(task.state, TaskState::Open) {
            if let Some(set) = open_by_project.get_mut(&task.project) {
                set.remove(&task.id);
                if set.is_empty() {
                    open_by_project.remove(&task.project);
                }
            }
        }
        if let Some(d) = task.state.deadline() {
            deadlines.remove(&(d, task.id));
        }
    }

    /// Enter a micro-task into the question index.
    fn index_micro(&mut self, project: ProjectId, body: &TaskBody, id: TaskId) {
        let TaskBody::Micro {
            predicate, inputs, ..
        } = body
        else {
            return;
        };
        let by_pred = self.micro.entry(project).or_default();
        match by_pred.get_mut(predicate.as_str()) {
            Some(by_inputs) => {
                by_inputs.insert(inputs.clone(), id);
            }
            None => {
                by_pred.insert(predicate.clone(), BTreeMap::from([(inputs.clone(), id)]));
            }
        }
    }

    pub fn register(&mut self, project: ProjectId, body: TaskBody, now: SimTime) -> TaskId {
        let local = self.next_local.entry(project).or_insert(0);
        *local += 1;
        let id = TaskId::compose(project, *local);
        self.index_micro(project, &body, id);
        let task = Task {
            id,
            project,
            body,
            state: TaskState::Open,
            created_at: now,
            reassignments: 0,
        };
        Self::index(
            &mut self.by_state,
            &mut self.open_by_project,
            &mut self.deadlines,
            &task,
        );
        self.tasks.insert(id, task);
        id
    }

    pub fn get(&self, id: TaskId) -> Result<&Task, PlatformError> {
        self.tasks.get(&id).ok_or(PlatformError::UnknownTask(id))
    }

    /// Move a task to a new lifecycle state, keeping the indexes in sync.
    pub fn set_state(&mut self, id: TaskId, state: TaskState) -> Result<(), PlatformError> {
        let task = self
            .tasks
            .get_mut(&id)
            .ok_or(PlatformError::UnknownTask(id))?;
        Self::unindex(
            &mut self.by_state,
            &mut self.open_by_project,
            &mut self.deadlines,
            task,
        );
        task.state = state;
        Self::index(
            &mut self.by_state,
            &mut self.open_by_project,
            &mut self.deadlines,
            task,
        );
        Ok(())
    }

    /// Count another missed-deadline re-assignment; returns the new total.
    pub fn bump_reassignments(&mut self, id: TaskId) -> Result<u32, PlatformError> {
        let task = self
            .tasks
            .get_mut(&id)
            .ok_or(PlatformError::UnknownTask(id))?;
        task.reassignments += 1;
        Ok(task.reassignments)
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.values()
    }

    /// Open tasks of a project (the user page shows these). Served from the
    /// open-by-project index, in id order.
    pub fn open_tasks(&self, project: Option<ProjectId>) -> Vec<&Task> {
        match project {
            Some(p) => self
                .open_by_project
                .get(&p)
                .into_iter()
                .flatten()
                .map(|id| &self.tasks[id])
                .collect(),
            None => self.by_state[0].iter().map(|id| &self.tasks[id]).collect(),
        }
    }

    /// Projects that currently have at least one open task.
    pub fn projects_with_open_tasks(&self) -> Vec<ProjectId> {
        self.open_by_project.keys().copied().collect()
    }

    /// Is the task visible on user pages (open or suggested)? O(log n) via
    /// the by-state index; unknown tasks are not active.
    pub fn is_active(&self, id: TaskId) -> bool {
        self.by_state[0].contains(&id) || self.by_state[1].contains(&id)
    }

    /// The active (open ∪ suggested) tasks, in id order, served from the
    /// by-state index.
    pub fn active(&self) -> impl Iterator<Item = &Task> {
        self.by_state[0]
            .union(&self.by_state[1])
            .map(|id| &self.tasks[id])
    }

    /// Suggested tasks whose recruitment deadline is at or before `now`,
    /// range-scanned from the deadline index in deadline order.
    pub fn expired_suggested(&self, now: SimTime) -> Vec<TaskId> {
        self.deadlines
            .range(..=(now, TaskId(u64::MAX)))
            .map(|&(_, id)| id)
            .collect()
    }

    /// Count tasks by state label, served from the by-state index sizes.
    pub fn state_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for (slot, label) in STATE_LABELS.iter().enumerate() {
            if !self.by_state[slot].is_empty() {
                out.insert(*label, self.by_state[slot].len());
            }
        }
        out
    }

    /// Find a project's micro-task matching a CyLog question, if registered
    /// (indexed by project + predicate + inputs — two projects may pose the
    /// same question without colliding).
    pub fn find_micro(
        &self,
        project: ProjectId,
        predicate: &str,
        inputs: &[Value],
    ) -> Option<&Task> {
        let id = self.micro.get(&project)?.get(predicate)?.get(inputs)?;
        Some(&self.tasks[id])
    }

    /// Remove every task belonging to `project` — plus its local-id
    /// counter and micro-task index entries — so the project can be
    /// adopted by another platform instance
    /// ([`TaskPool::adopt_project`]). The counter travels with the tasks:
    /// ids are project-strided, so the adopting pool must keep allocating
    /// exactly the ids this one would have.
    pub fn extract_project(&mut self, project: ProjectId) -> (Vec<Task>, u64) {
        let ids: Vec<TaskId> = self
            .tasks
            .values()
            .filter(|t| t.project == project)
            .map(|t| t.id)
            .collect();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let task = self.tasks.remove(&id).expect("task id from the scan above");
            Self::unindex(
                &mut self.by_state,
                &mut self.open_by_project,
                &mut self.deadlines,
                &task,
            );
            out.push(task);
        }
        self.micro.remove(&project);
        (out, self.next_local.remove(&project).unwrap_or(0))
    }

    /// Insert a project's tasks extracted from another platform instance
    /// by [`TaskPool::extract_project`], restoring every index and the
    /// project's local-id counter.
    pub fn adopt_project(&mut self, project: ProjectId, tasks: Vec<Task>, next_local: u64) {
        if next_local > 0 {
            self.next_local.insert(project, next_local);
        }
        for task in tasks {
            self.index_micro(project, &task.body, task.id);
            Self::index(
                &mut self.by_state,
                &mut self.open_by_project,
                &mut self.deadlines,
                &task,
            );
            self.tasks.insert(task.id, task);
        }
    }

    /// Debug helper: verify every index agrees with the primary map.
    #[cfg(test)]
    fn check_indexes(&self) {
        let mut counts = [0usize; 5];
        for t in self.tasks.values() {
            counts[t.state.slot()] += 1;
            assert!(self.by_state[t.state.slot()].contains(&t.id));
            if let Some(d) = t.state.deadline() {
                assert!(self.deadlines.contains(&(d, t.id)));
            }
        }
        for (set, count) in self.by_state.iter().zip(counts) {
            assert_eq!(set.len(), count);
        }
        let open_indexed: usize = self.open_by_project.values().map(|s| s.len()).sum();
        assert_eq!(open_indexed, counts[0]);
        assert_eq!(self.deadlines.len(), self.by_state[1].len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with_tasks() -> (TaskPool, TaskId, TaskId) {
        let mut pool = TaskPool::new();
        let a = pool.register(
            ProjectId(1),
            TaskBody::Micro {
                predicate: "translate".into(),
                inputs: vec!["hello".into()],
                points: 3,
            },
            SimTime(0),
        );
        let b = pool.register(
            ProjectId(1),
            TaskBody::Collaborative {
                scheme: Scheme::Sequential,
                description: "subtitle video".into(),
                skill: Some("translation".into()),
            },
            SimTime(5),
        );
        (pool, a, b)
    }

    #[test]
    fn register_and_lookup() {
        let (pool, a, b) = pool_with_tasks();
        assert_eq!(pool.len(), 2);
        assert_ne!(a, b);
        assert!(pool.get(a).unwrap().is_micro());
        assert!(!pool.get(b).unwrap().is_micro());
        assert_eq!(pool.get(b).unwrap().scheme(), Some(Scheme::Sequential));
        assert_eq!(pool.get(a).unwrap().scheme(), None);
        assert!(pool.get(TaskId(99)).is_err());
    }

    #[test]
    fn open_tasks_filtered_by_project() {
        let (mut pool, a, _) = pool_with_tasks();
        let c = pool.register(
            ProjectId(2),
            TaskBody::Micro {
                predicate: "x".into(),
                inputs: vec![],
                points: 0,
            },
            SimTime(9),
        );
        assert_eq!(pool.open_tasks(None).len(), 3);
        assert_eq!(pool.open_tasks(Some(ProjectId(1))).len(), 2);
        assert_eq!(pool.open_tasks(Some(ProjectId(2)))[0].id, c);
        assert_eq!(
            pool.projects_with_open_tasks(),
            vec![ProjectId(1), ProjectId(2)]
        );
        // closing one removes it from open
        pool.set_state(a, TaskState::Completed { team: vec![] })
            .unwrap();
        assert_eq!(pool.open_tasks(Some(ProjectId(1))).len(), 1);
        pool.check_indexes();
    }

    #[test]
    fn state_counts() {
        let (mut pool, a, _) = pool_with_tasks();
        pool.set_state(
            a,
            TaskState::Abandoned {
                reason: "test".into(),
            },
        )
        .unwrap();
        let counts = pool.state_counts();
        assert_eq!(counts.get("open"), Some(&1));
        assert_eq!(counts.get("abandoned"), Some(&1));
    }

    #[test]
    fn deadline_index_tracks_suggested_tasks() {
        let (mut pool, a, b) = pool_with_tasks();
        pool.set_state(
            b,
            TaskState::Suggested {
                team: vec![WorkerId(1)],
                deadline: SimTime(100),
                undertaken: vec![],
            },
        )
        .unwrap();
        pool.set_state(
            a,
            TaskState::Suggested {
                team: vec![WorkerId(2)],
                deadline: SimTime(50),
                undertaken: vec![],
            },
        )
        .unwrap();
        pool.check_indexes();
        assert!(pool.expired_suggested(SimTime(49)).is_empty());
        assert_eq!(pool.expired_suggested(SimTime(50)), vec![a]);
        // earlier deadlines come first regardless of id order
        assert_eq!(pool.expired_suggested(SimTime(100)), vec![a, b]);
        // re-suggesting with a new deadline replaces the old bucket entry
        pool.set_state(
            a,
            TaskState::Suggested {
                team: vec![WorkerId(2)],
                deadline: SimTime(200),
                undertaken: vec![],
            },
        )
        .unwrap();
        assert_eq!(pool.expired_suggested(SimTime(100)), vec![b]);
        // leaving the suggested state clears the deadline entry
        pool.set_state(
            a,
            TaskState::InProgress {
                team: vec![WorkerId(2)],
            },
        )
        .unwrap();
        pool.set_state(b, TaskState::Open).unwrap();
        assert!(pool.expired_suggested(SimTime(10_000)).is_empty());
        pool.check_indexes();
    }

    #[test]
    fn active_membership_and_reassignment_counter() {
        let (mut pool, a, b) = pool_with_tasks();
        assert!(pool.is_active(a));
        assert!(pool.is_active(b));
        assert!(!pool.is_active(TaskId(99)));
        pool.set_state(a, TaskState::Completed { team: vec![] })
            .unwrap();
        assert!(!pool.is_active(a));
        assert_eq!(pool.bump_reassignments(b).unwrap(), 1);
        assert_eq!(pool.bump_reassignments(b).unwrap(), 2);
        assert_eq!(pool.get(b).unwrap().reassignments, 2);
        assert!(pool.bump_reassignments(TaskId(99)).is_err());
        assert!(pool.set_state(TaskId(99), TaskState::Open).is_err());
    }

    #[test]
    fn find_micro_matches_exact_inputs() {
        let (mut pool, a, _) = pool_with_tasks();
        let p = ProjectId(1);
        let found = pool.find_micro(p, "translate", &["hello".into()]).unwrap();
        assert_eq!(found.id, a);
        assert!(pool.find_micro(p, "translate", &["bye".into()]).is_none());
        assert!(pool.find_micro(p, "nope", &[]).is_none());
        // The same question under another project is a distinct task.
        let other = ProjectId(2);
        assert!(pool
            .find_micro(other, "translate", &["hello".into()])
            .is_none());
        let c = pool.register(
            other,
            TaskBody::Micro {
                predicate: "translate".into(),
                inputs: vec!["hello".into()],
                points: 3,
            },
            SimTime(0),
        );
        assert_eq!(
            pool.find_micro(other, "translate", &["hello".into()])
                .unwrap()
                .id,
            c
        );
        assert_ne!(a, c);
    }

    #[test]
    fn ids_are_per_project_and_deterministic() {
        let (mut pool, a, b) = pool_with_tasks();
        assert_eq!(a, TaskId::compose(ProjectId(1), 1));
        assert_eq!(b, TaskId::compose(ProjectId(1), 2));
        // Another project's counter is independent of interleaving.
        let c = pool.register(
            ProjectId(9),
            TaskBody::Micro {
                predicate: "x".into(),
                inputs: vec![],
                points: 0,
            },
            SimTime(0),
        );
        assert_eq!(c, TaskId::compose(ProjectId(9), 1));
        assert_eq!(c.project(), ProjectId(9));
    }

    #[test]
    fn display_and_labels() {
        let (pool, a, b) = pool_with_tasks();
        let ta = pool.get(a).unwrap().to_string();
        assert!(ta.contains("micro translate(hello)"));
        let tb = pool.get(b).unwrap().to_string();
        assert!(tb.contains("sequential task"));
        assert_eq!(TaskState::Open.label(), "open");
        assert_eq!(
            TaskState::Suggested {
                team: vec![],
                deadline: SimTime(0),
                undertaken: vec![]
            }
            .label(),
            "suggested"
        );
    }

    #[test]
    fn empty_pool() {
        let pool = TaskPool::new();
        assert!(pool.is_empty());
        assert_eq!(pool.iter().count(), 0);
        assert!(pool.state_counts().is_empty());
    }
}
