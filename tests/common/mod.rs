//! The differential suites' one equivalence oracle ([`oracle`]), and the
//! event generator of the op-list suites.
//!
//! **The oracle** is the one statement of the runtime's contract: a run's
//! merged journal and replayed `state_dump()` are byte-identical to a
//! reference's. `shard_equivalence`, `telemetry_equivalence`,
//! `recovery_equivalence`, `scenario_streaming` and `shared_crowd` describe
//! their runs as configurations of [`Run`] — shard count, coordinated or
//! `drain_every` K drains, mailbox capacity, telemetry on, off or scraped
//! mid-run, a fault plan, one submitter or four, a migration — and check
//! each against a [`Reference`], the serial platform or a fault-free run
//! with the same routing, with [`assert_equivalent`]: the journal, the
//! replay, the accounting, empty slice journals, every slice against a
//! runtime reference, and each project's database on its owner slice. A
//! failure names the part and its first differing line. The suites keep
//! only their own checks (scenario reports, split ledgers, histograms,
//! recovery counters, registries). [`shard_counts`] is the one place they
//! read `RUNTIME_SHARDS`. A failing op-list property is shrunk by
//! [`shrinking`] (ddmin, at most [`SHRINK_RERUNS`] re-runs), and a chaos
//! leg's kill point is a fraction of the shard's recorded applies
//! ([`kill_point`]), so it can land anywhere in the stream.
//!
//! **The generator**: one multi-project set-up and one mapping from
//! generated raw ops onto the platform's event space, so a new op kind
//! reaches every op-list suite at once.
//! Project 1 forms its teams of 4–6 with `AlgorithmChoice::Greedy` (the
//! others teams of 1–3 with the default), so every suite carries a
//! non-default algorithm through its registration, recoveries and
//! migrations; the team op forms its teams over [`team_crowd`], where
//! Greedy and LocalSearch choose different teams, so a project that lost
//! its algorithm shows in the journal and the state. Half of the team ops
//! suggest a team on project 2 instead and pass its deadline, so a
//! replica's clock copy sweeps it at 2 and 4 shards. Project 2 screens
//! eligibility declaratively with the paper's rule, and every registration
//! is a profile that rule admits or refuses, so each suite runs the CyLog
//! recompute a registration triggers.
#![allow(dead_code)] // each suite uses its own subset

pub mod oracle;
#[allow(unused_imports)] // suites without a runtime use the generator only
pub use oracle::*;

use crowd4u::collab::Scheme;
use crowd4u::core::error::{ProjectId, TaskId, WorkerId};
use crowd4u::core::events::PlatformEvent;
use crowd4u::crowd::population::{generate, PopulationConfig};
use crowd4u::crowd::profile::WorkerProfile;
use crowd4u::forms::admin::{AlgorithmChoice, DesiredFactors};
use crowd4u::sim::rng::SimRng;
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
        0u8..11,
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
    project_with(name, SRC.into(), (1, 3), AlgorithmChoice::default())
}

/// A [`project`] whose teams of 4–6 [`AlgorithmChoice::Greedy`] forms.
pub fn greedy_project(name: impl Into<String>) -> PlatformEvent {
    project_with(name, SRC.into(), (4, 6), AlgorithmChoice::Greedy)
}

/// A project whose eligibility is [`ELIGIBLE_SRC`]'s rule.
pub fn declarative_project(name: impl Into<String>) -> PlatformEvent {
    project_with(
        name,
        format!("{ELIGIBLE_SRC}{SRC}"),
        (1, 3),
        AlgorithmChoice::default(),
    )
}

fn project_with(
    name: impl Into<String>,
    source: String,
    (min_team, max_team): (usize, usize),
    algorithm: AlgorithmChoice,
) -> PlatformEvent {
    PlatformEvent::ProjectRegistered {
        name: name.into(),
        source,
        factors: DesiredFactors {
            min_team,
            max_team,
            recruitment_secs: 600,
            algorithm,
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

/// Eight logged-in workers (ids 100–107) over whom project 1's teams of
/// 4–6 differ by algorithm: Greedy chooses {100, 102, 103, 104}, LocalSearch
/// and Exact {100, 101, 103, 104}.
pub fn team_crowd() -> Vec<WorkerProfile> {
    let config = PopulationConfig {
        size: 8,
        first_id: 100,
        ..Default::default()
    };
    generate(&config, &mut SimRng::seed_from(11))
        .agents
        .into_iter()
        .map(|agent| agent.profile)
        .collect()
}

/// Project 1's collaborative task for [`team_crowd`]: the first task the
/// project creates, before any of its micro-tasks.
pub fn crowd_task() -> TaskId {
    TaskId::compose(ProjectId(1), 1)
}

/// Project 2's collaborative task, made like [`crowd_task`]: shard 1 owns
/// it at 2 and 4 shards, so its deadlines are swept by a replica's copy of
/// each clock.
pub fn replica_task() -> TaskId {
    TaskId::compose(ProjectId(2), 1)
}

/// Worker registrations, project registrations (project 1 Greedy, project
/// 2 declarative), the [`crowd_task`] and the [`replica_task`], and
/// interleaved seed facts — the mixed multi-project shape a router has to
/// unpick. The two collaborative tasks come before any seed, so their ids
/// do not depend on where a run drains.
pub fn setup_events(n_projects: usize, items: usize) -> Vec<PlatformEvent> {
    let mut events = Vec::new();
    for w in 1..=4u64 {
        events.push(worker(w, format!("w{w}")));
    }
    for p in 0..n_projects {
        events.push(match p {
            0 => greedy_project(format!("proj-{p}")),
            1 => declarative_project(format!("proj-{p}")),
            _ => project(format!("proj-{p}")),
        });
    }
    for (project, description) in [(1, "crowd team"), (2, "replica team")] {
        events.push(PlatformEvent::CollabTaskCreated {
            project: ProjectId(project),
            description: description.into(),
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
/// crowd burst and the team op.
pub fn op_events(n_projects: usize, items: usize, op: &RawOp) -> Vec<PlatformEvent> {
    let (kind, p, i, w, s, b) = op;
    let project = ProjectId((*p % n_projects) as u64 + 1);
    let task = TaskId::compose(project, *i as u64 + 1);
    let worker = WorkerId(*w);
    let event = match kind % 11 {
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
        9 => {
            return (0..64 + 8 * (*i as u64 % 5))
                .map(|k| PlatformEvent::WorkerRegistered {
                    profile: profile(w + k, format!("b{k}-{s}"))
                        .with_skill("survey", (k % 8) as f64 / 8.0),
                })
                .collect()
        }
        // A replica-side sweep: the team crowd (re-)registers, workers 101
        // and 105 — the two of it project 2's rule admits — show interest
        // in the replica task, project 2 suggests a team with a 600 s
        // deadline, and a clock well past it sweeps the task on its owner,
        // which at 2 and 4 shards applies the clock as a replica's copy.
        // The clock is not monotone over ops: a later sweep needs a later
        // clock.
        _ if *b => {
            let task = replica_task();
            let crowd = team_crowd();
            let interest = [101, 105].map(|w| PlatformEvent::InterestExpressed {
                worker: WorkerId(w),
                task,
            });
            return crowd
                .into_iter()
                .map(|profile| PlatformEvent::WorkerRegistered { profile })
                .chain(interest)
                .chain([
                    PlatformEvent::AssignmentRun { task },
                    PlatformEvent::ClockAdvanced {
                        to: SimTime(601 * (2 + *i as u64 + 8 * w)),
                        owner: 0,
                    },
                ])
                .collect();
        }
        // A team over a larger pool: the team crowd (re-)registers and
        // shows interest in the crowd task, project 1 forms a team of 4–6
        // from eight or more candidates, and one of the crowd undertakes —
        // accepted only from a member of the team the project's algorithm
        // chose.
        _ => {
            let task = crowd_task();
            let crowd = team_crowd();
            let undertaker = crowd[*i % crowd.len()].id;
            let interest = crowd
                .iter()
                .map(|p| PlatformEvent::InterestExpressed { worker: p.id, task });
            return crowd
                .iter()
                .map(|p| PlatformEvent::WorkerRegistered { profile: p.clone() })
                .chain(interest)
                .chain([
                    PlatformEvent::AssignmentRun { task },
                    PlatformEvent::Undertaken {
                        worker: undertaker,
                        task,
                    },
                ])
                .collect();
        }
    };
    vec![event]
}

pub fn build_events(n_projects: usize, items: usize, ops: &[RawOp]) -> Vec<PlatformEvent> {
    let mut events = setup_events(n_projects, items);
    events.extend(ops.iter().flat_map(|op| op_events(n_projects, items, op)));
    events
}
