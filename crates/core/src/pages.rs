//! Page models: the offline equivalents of the platform's web pages.
//!
//! * [`AdminPage`] — paper Figure 3: per-project administration page with
//!   the constraint entry form, requester feedback and task statistics;
//! * [`UserPage`] — paper Figure 4's surroundings: the worker's view with
//!   eligible tasks, interest toggles and earned points.

use crate::error::{ProjectId, TaskId, WorkerId};
use crate::platform::Crowd4U;
use crate::task::TaskState;
use crowd4u_forms::admin::constraint_form;
use crowd4u_forms::form::Form;
use std::collections::BTreeMap;
use std::fmt;

/// One row of the user page's task list.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTaskEntry {
    pub task: TaskId,
    pub description: String,
    pub interested: bool,
    pub state: &'static str,
}

/// The worker-facing page.
#[derive(Debug, Clone)]
pub struct UserPage {
    pub worker: WorkerId,
    pub worker_name: String,
    pub points: i64,
    pub entries: Vec<UserTaskEntry>,
}

impl fmt::Display for UserPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "── user page: {} ({}) — {} points ──",
            self.worker_name, self.worker, self.points
        )?;
        if self.entries.is_empty() {
            writeln!(f, "no eligible tasks right now")?;
        }
        for e in &self.entries {
            writeln!(
                f,
                "[{}] {} {} — {}",
                if e.interested { "x" } else { " " },
                e.task,
                e.state,
                e.description
            )?;
        }
        Ok(())
    }
}

/// Build a worker's user page from the platform state.
pub fn user_page(
    platform: &Crowd4U,
    worker: WorkerId,
) -> Result<UserPage, crate::error::PlatformError> {
    let profile = platform.workers.get(worker)?;
    let entries = platform
        .visible_tasks(worker)
        .into_iter()
        .map(|t| UserTaskEntry {
            task: t.id,
            description: t.to_string(),
            interested: platform.relations().is_interested(worker, t.id),
            state: t.state.label(),
        })
        .collect();
    Ok(UserPage {
        worker,
        worker_name: profile.name.clone(),
        points: platform.points_of(worker),
        entries,
    })
}

/// The requester-facing administration page.
#[derive(Debug, Clone)]
pub struct AdminPage {
    pub project: ProjectId,
    pub project_name: String,
    /// The constraint entry form (Figure 3), pre-built with the platform's
    /// known skills/languages.
    pub form: Form,
    /// Feedback when assignment was infeasible.
    pub suggestion: Option<String>,
    pub task_counts: BTreeMap<&'static str, usize>,
    pub pending_questions: usize,
    /// Suggested teams awaiting undertakes, with their deadlines.
    pub waiting_teams: usize,
}

impl fmt::Display for AdminPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "── project admin: {} ({}) ──",
            self.project_name, self.project
        )?;
        if let Some(s) = &self.suggestion {
            writeln!(f, "! {s}")?;
        }
        for (state, n) in &self.task_counts {
            writeln!(f, "tasks {state}: {n}")?;
        }
        writeln!(f, "pending crowd questions: {}", self.pending_questions)?;
        writeln!(f, "teams awaiting undertakes: {}", self.waiting_teams)?;
        write!(f, "{}", self.form)
    }
}

/// Build a project's admin page from the platform state.
pub fn admin_page(
    platform: &Crowd4U,
    project: ProjectId,
    skills: &[&str],
    languages: &[&str],
) -> Result<AdminPage, crate::error::PlatformError> {
    let proj = platform.project(project)?;
    let mut task_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut waiting = 0usize;
    for t in platform.pool().iter().filter(|t| t.project == project) {
        *task_counts.entry(t.state.label()).or_insert(0) += 1;
        if matches!(t.state, TaskState::Suggested { .. }) {
            waiting += 1;
        }
    }
    Ok(AdminPage {
        project,
        project_name: proj.name.clone(),
        form: constraint_form(skills, languages),
        suggestion: proj.suggestion.clone(),
        task_counts,
        pending_questions: proj.engine.pending_requests().len(),
        waiting_teams: waiting,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_collab::Scheme;
    use crowd4u_crowd::profile::WorkerProfile;
    use crowd4u_forms::admin::DesiredFactors;

    const SRC: &str = "\
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";

    fn setup() -> (Crowd4U, ProjectId) {
        let mut p = Crowd4U::new();
        for i in 1..=3u64 {
            p.register_worker(
                WorkerProfile::new(WorkerId(i), format!("w{i}")).with_native_lang("en"),
            );
        }
        let proj = p
            .register_project("demo", SRC, DesiredFactors::default(), Scheme::Sequential)
            .unwrap();
        p.seed_fact(proj, "sentence", vec!["hello".into()]).unwrap();
        p.sync_tasks(proj).unwrap();
        (p, proj)
    }

    #[test]
    fn user_page_lists_eligible_tasks() {
        let (mut p, _) = setup();
        let page = user_page(&p, WorkerId(1)).unwrap();
        assert_eq!(page.entries.len(), 1);
        assert!(!page.entries[0].interested);
        assert_eq!(page.points, 0);
        let task = page.entries[0].task;
        p.express_interest(WorkerId(1), task).unwrap();
        let page = user_page(&p, WorkerId(1)).unwrap();
        assert!(page.entries[0].interested);
        let text = page.to_string();
        assert!(text.contains("[x]"));
        assert!(text.contains("w1"));
        assert!(user_page(&p, WorkerId(99)).is_err());
    }

    #[test]
    fn user_page_empty_when_nothing_eligible() {
        let mut p = Crowd4U::new();
        p.register_worker(WorkerProfile::new(WorkerId(1), "solo"));
        let page = user_page(&p, WorkerId(1)).unwrap();
        assert!(page.entries.is_empty());
        assert!(page.to_string().contains("no eligible tasks"));
    }

    #[test]
    fn admin_page_reflects_state() {
        let (mut p, proj) = setup();
        let task = p.pool().open_tasks(Some(proj))[0].id;
        p.submit_micro_answer(WorkerId(2), task, vec!["bonjour".into()])
            .unwrap();
        p.sync_tasks(proj).unwrap();
        let page = admin_page(&p, proj, &["translation"], &["en"]).unwrap();
        assert_eq!(page.task_counts.get("completed"), Some(&1));
        assert_eq!(page.pending_questions, 0);
        assert_eq!(page.waiting_teams, 0);
        assert!(page.suggestion.is_none());
        let text = page.to_string();
        assert!(text.contains("project admin: demo"));
        assert!(text.contains("tasks completed: 1"));
        assert!(text.contains("Upper critical mass"));
        assert!(admin_page(&p, ProjectId(99), &[], &[]).is_err());
    }

    #[test]
    fn admin_page_shows_suggestion_on_infeasible() {
        let (mut p, proj) = setup();
        let task = p.create_collab_task(proj, "team work").unwrap();
        p.express_interest(WorkerId(1), task).unwrap();
        // default factors need min 2 interested workers
        let _ = p.run_assignment(task);
        let page = admin_page(&p, proj, &[], &["en"]).unwrap();
        assert!(page.suggestion.is_some());
        assert!(page.to_string().contains("! no team"));
    }
}
