//! The differential suites' shared event generator: one multi-project
//! set-up and one mapping from generated raw ops onto the platform's event
//! space, used by `shard_equivalence`, `recovery_equivalence` and
//! `telemetry_equivalence`, so a new op kind reaches every oracle at once.
//! Project 2 screens eligibility declaratively with the paper's rule, and
//! every registration is a profile that rule admits or refuses, so each
//! suite runs the CyLog recompute a registration triggers.
#![allow(dead_code)] // each suite uses its own subset

use crowd4u::collab::Scheme;
use crowd4u::core::error::{ProjectId, TaskId, WorkerId};
use crowd4u::core::events::PlatformEvent;
use crowd4u::crowd::profile::WorkerProfile;
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::sim::time::SimTime;
use crowd4u::storage::prelude::Value;
use proptest::prelude::*;

pub const SRC: &str = "\
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
open check(s: str, t: str) -> (ok: bool) points 1.
rel approved(s: str, t: str).
approved(S, T) :- sentence(S), translate(S, T), check(S, T, OK), OK = true.
";

/// The paper's declarative eligibility (§2.2): "only workers who log in to
/// Crowd4U and speak English as a native language are eligible". Project 2
/// carries it beside [`SRC`].
pub const ELIGIBLE_SRC: &str = "\
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_native(W, \"en\").
";

/// One generated operation; ids are blind guesses into the predictable
/// project-strided id space, so validity is decided identically by the
/// serial platform and the owning shard — which is exactly the property
/// under test.
pub type RawOp = (u8, usize, usize, u64, String, bool);

/// The strategy every suite draws its ops from.
pub fn raw_op() -> impl Strategy<Value = RawOp> {
    (
        0u8..10,
        0usize..4,
        0usize..8,
        1u64..5,
        "[a-k]{1,4}",
        any::<bool>(),
    )
}

/// A profile [`ELIGIBLE_SRC`] admits on even ids not divisible by three:
/// native English on even ids, logged out on multiples of three.
pub fn profile(id: u64, name: impl Into<String>) -> WorkerProfile {
    let lang = if id.is_multiple_of(2) { "en" } else { "ja" };
    let mut p = WorkerProfile::new(WorkerId(id), name).with_native_lang(lang);
    p.factors.logged_in = !id.is_multiple_of(3);
    p
}

pub fn worker(id: u64, name: impl Into<String>) -> PlatformEvent {
    PlatformEvent::WorkerRegistered {
        profile: profile(id, name),
    }
}

pub fn project(name: impl Into<String>) -> PlatformEvent {
    project_with(name, SRC.into())
}

/// A project whose eligibility is [`ELIGIBLE_SRC`]'s rule.
pub fn declarative_project(name: impl Into<String>) -> PlatformEvent {
    project_with(name, format!("{ELIGIBLE_SRC}{SRC}"))
}

fn project_with(name: impl Into<String>, source: String) -> PlatformEvent {
    PlatformEvent::ProjectRegistered {
        name: name.into(),
        source,
        factors: DesiredFactors {
            min_team: 1,
            max_team: 3,
            recruitment_secs: 600,
            ..Default::default()
        },
        scheme: Scheme::Sequential,
        owner: 0,
    }
}

pub fn sentence(project: u64, s: impl Into<String>) -> PlatformEvent {
    PlatformEvent::FactSeeded {
        project: ProjectId(project),
        pred: "sentence".into(),
        values: vec![s.into().into()],
    }
}

/// Worker registrations, project registrations (project 2 declarative)
/// and interleaved seed facts — the mixed multi-project shape a router has
/// to unpick.
pub fn setup_events(n_projects: usize, items: usize) -> Vec<PlatformEvent> {
    let mut events = Vec::new();
    for w in 1..=4u64 {
        events.push(worker(w, format!("w{w}")));
    }
    for p in 0..n_projects {
        events.push(match p {
            1 => declarative_project(format!("proj-{p}")),
            _ => project(format!("proj-{p}")),
        });
    }
    for i in 0..items {
        for p in 0..n_projects {
            events.push(sentence(p as u64 + 1, format!("s{i}")));
        }
    }
    events
}

/// Map one generated op onto platform events: one event, except for the
/// crowd burst.
pub fn op_events(n_projects: usize, items: usize, op: &RawOp) -> Vec<PlatformEvent> {
    let (kind, p, i, w, s, b) = op;
    let project = ProjectId((*p % n_projects) as u64 + 1);
    let task = TaskId::compose(project, *i as u64 + 1);
    let worker = WorkerId(*w);
    let event = match kind % 10 {
        // Translate-level answer guesses (valid while the task is open).
        0 | 1 => PlatformEvent::AnswerSubmitted {
            worker,
            task,
            outputs: vec![Value::Str(s.clone())],
        },
        // Check-level answer guesses (tasks appear after drains).
        2 => PlatformEvent::AnswerSubmitted {
            worker,
            task: TaskId::compose(project, (items + i) as u64 + 1),
            outputs: vec![Value::Bool(*b)],
        },
        3 => PlatformEvent::InterestExpressed { worker, task },
        4 => PlatformEvent::ClockAdvanced {
            to: SimTime(*i as u64 * 137),
            owner: 0,
        },
        5 => self::worker(10 + w, format!("late{w}")),
        6 => PlatformEvent::CollabTaskCreated {
            project,
            description: format!("collab {s}"),
        },
        7 => PlatformEvent::AssignmentRun { task },
        // Worker churn: re-register a setup worker with an updated profile
        // — the versioning path, installed on every replica — that logs
        // in or out, flipping the declarative project's verdict.
        8 => {
            let mut profile = profile(*w, format!("re{w}")).with_skill("survey", *i as f64 / 8.0);
            profile.factors.logged_in = *b;
            PlatformEvent::WorkerRegistered { profile }
        }
        // Crowd burst: 64–96 registrations in a row, ids `w..w + n` — the
        // setup workers, the late ones and earlier bursts re-register,
        // the rest are new. One burst is at least 64 registrations, so
        // every suite runs long install runs on every replica.
        _ => {
            return (0..64 + 8 * (*i as u64 % 5))
                .map(|k| PlatformEvent::WorkerRegistered {
                    profile: profile(w + k, format!("b{k}-{s}"))
                        .with_skill("survey", (k % 8) as f64 / 8.0),
                })
                .collect()
        }
    };
    vec![event]
}

pub fn build_events(n_projects: usize, items: usize, ops: &[RawOp]) -> Vec<PlatformEvent> {
    let mut events = setup_events(n_projects, items);
    events.extend(ops.iter().flat_map(|op| op_events(n_projects, items, op)));
    events
}
