//! The typed event vocabulary of the platform's execution core.
//!
//! Every state-changing entry point of [`crate::platform::Crowd4U`] has a
//! [`PlatformEvent`] counterpart. The platform appends one journal entry
//! per successful call (see [`crowd4u_storage::journal::EventJournal`]),
//! batched ingestion ([`crate::platform::Crowd4U::apply_batch`]) consumes
//! streams of these, and replaying a journal through
//! [`crate::platform::Crowd4U::replay_with`] reconstructs the platform
//! deterministically — relations, points ledgers and pending queues come
//! back byte-identical.
//!
//! Each variant round-trips through a `(kind, args)` journal entry via
//! [`PlatformEvent::encode`] / [`PlatformEvent::decode`]. The journal also
//! carries one platform-level entry with no event counterpart: `drain`,
//! written by [`crate::platform::Crowd4U::drain_events`] to mark the point
//! where dirty projects were synchronised.

use crate::error::{PlatformError, ProjectId, TaskId, WorkerId};
use crowd4u_collab::Scheme;
use crowd4u_crowd::profile::{Lang, Region, WorkerProfile};
use crowd4u_forms::admin::DesiredFactors;
use crowd4u_sim::time::SimTime;
use crowd4u_storage::prelude::{JournalEntry, Value};

/// One platform-level occurrence, in journalable form.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformEvent {
    /// A worker registered (or re-registered with updated factors).
    WorkerRegistered { profile: WorkerProfile },
    /// A project was registered from CyLog source + desired factors.
    ProjectRegistered {
        name: String,
        source: String,
        factors: DesiredFactors,
        scheme: Scheme,
        /// Clock-domain tag of the project's recruitment deadlines: only
        /// [`PlatformEvent::ClockAdvanced`] events carrying the same owner
        /// sweep them. `0` is the global domain (every standalone run);
        /// merged scenario streams tag each trace with its own owner so one
        /// scenario's clock cannot fire another's deadline (ARCHITECTURE.md
        /// §11). Encoded only when non-zero, so pre-existing journals decode
        /// unchanged.
        owner: u64,
    },
    /// A base fact was added to a project's CyLog database.
    FactSeeded {
        project: ProjectId,
        pred: String,
        values: Vec<Value>,
    },
    /// A project's rules were run and new demands became micro-tasks.
    TasksSynced { project: ProjectId },
    /// A collaborative (team) task was created.
    CollabTaskCreated {
        project: ProjectId,
        description: String,
    },
    /// Workflow step (3): a worker declared interest.
    InterestExpressed { worker: WorkerId, task: TaskId },
    /// Workflow steps (4)+(5): assignment was executed for a task.
    AssignmentRun { task: TaskId },
    /// A suggested worker confirmed they start the task.
    Undertaken { worker: WorkerId, task: TaskId },
    /// The platform clock advanced (deadline processing point).
    ClockAdvanced {
        to: SimTime,
        /// Clock domain being advanced. `0` (the default, encoded as an
        /// absent trailing argument) is the global clock; a non-zero owner
        /// advances that domain's clock and sweeps only deadlines of
        /// projects registered with the same owner. See
        /// [`PlatformEvent::ProjectRegistered::owner`].
        owner: u64,
    },
    /// A worker answered a micro-task.
    AnswerSubmitted {
        worker: WorkerId,
        task: TaskId,
        outputs: Vec<Value>,
    },
    /// A collaborative task finished with an observed quality.
    TaskCompleted { task: TaskId, quality: f64 },
    /// A team member showed activity on an in-progress task (feeds the
    /// collaboration monitor).
    ActivityRecorded { worker: WorkerId, task: TaskId },
}

/// Journal-entry kind reserved for [`crate::platform::Crowd4U::drain_events`].
pub const DRAIN_KIND: &str = "drain";

/// Where an event must be delivered in a partitioned (sharded) runtime —
/// the ordering metadata a router needs, kept next to the event vocabulary
/// so adding a variant forces a routing decision.
///
/// The scopes carry different ordering obligations:
///
/// * [`EventScope::Project`] events touch exactly one project's state
///   (CyLog engine, tasks, relations, points ledger) and may be applied on
///   the owning partition alone, concurrently with other projects' events.
/// * [`EventScope::Global`] events mutate state every partition replicates
///   (the clock, the project-id sequence, the worker registry) and must be
///   applied by **every** partition **in the same relative order** — the
///   broadcast-lockstep rule that keeps the project-id sequence and the
///   worker registry identical across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventScope {
    /// Replicated state: every partition must apply it, in sequence order.
    Global,
    /// Partitioned state: only the owner of this project applies it.
    Project(ProjectId),
}

impl PlatformEvent {
    /// The delivery scope of this event (see [`EventScope`]). Task-scoped
    /// events resolve to their project via the project-strided task-id
    /// encoding ([`TaskId::compose`](crate::error::TaskId::compose)), so
    /// classification is pure bit arithmetic.
    pub fn scope(&self) -> EventScope {
        match self {
            PlatformEvent::WorkerRegistered { .. }
            | PlatformEvent::ClockAdvanced { .. }
            | PlatformEvent::ProjectRegistered { .. } => EventScope::Global,
            PlatformEvent::FactSeeded { project, .. }
            | PlatformEvent::TasksSynced { project }
            | PlatformEvent::CollabTaskCreated { project, .. } => EventScope::Project(*project),
            PlatformEvent::InterestExpressed { task, .. }
            | PlatformEvent::AssignmentRun { task }
            | PlatformEvent::Undertaken { task, .. }
            | PlatformEvent::AnswerSubmitted { task, .. }
            | PlatformEvent::TaskCompleted { task, .. }
            | PlatformEvent::ActivityRecorded { task, .. } => EventScope::Project(task.project()),
        }
    }

    /// The journal entry kind for this event.
    pub fn kind(&self) -> &'static str {
        match self {
            PlatformEvent::WorkerRegistered { .. } => "worker",
            PlatformEvent::ProjectRegistered { .. } => "project",
            PlatformEvent::FactSeeded { .. } => "seed",
            PlatformEvent::TasksSynced { .. } => "sync",
            PlatformEvent::CollabTaskCreated { .. } => "collab",
            PlatformEvent::InterestExpressed { .. } => "interest",
            PlatformEvent::AssignmentRun { .. } => "assign",
            PlatformEvent::Undertaken { .. } => "undertake",
            PlatformEvent::ClockAdvanced { .. } => "clock",
            PlatformEvent::AnswerSubmitted { .. } => "answer",
            PlatformEvent::TaskCompleted { .. } => "complete",
            PlatformEvent::ActivityRecorded { .. } => "activity",
        }
    }

    /// Encode into a journal entry.
    pub fn encode(&self) -> JournalEntry {
        let args = match self {
            PlatformEvent::WorkerRegistered { profile } => encode_profile(profile),
            PlatformEvent::ProjectRegistered {
                name,
                source,
                factors,
                scheme,
                owner,
            } => {
                let mut args = vec![
                    Value::Str(name.clone()),
                    Value::Str(source.clone()),
                    Value::Str(scheme.name().to_owned()),
                ];
                args.extend(encode_factors(factors));
                if *owner != 0 {
                    args.push(Value::Id(*owner));
                }
                args
            }
            PlatformEvent::FactSeeded {
                project,
                pred,
                values,
            } => {
                let mut args = vec![Value::Id(project.0), Value::Str(pred.clone())];
                args.extend(values.iter().cloned());
                args
            }
            PlatformEvent::TasksSynced { project } => vec![Value::Id(project.0)],
            PlatformEvent::CollabTaskCreated {
                project,
                description,
            } => vec![Value::Id(project.0), Value::Str(description.clone())],
            PlatformEvent::InterestExpressed { worker, task } => {
                vec![Value::Id(worker.0), Value::Id(task.0)]
            }
            PlatformEvent::AssignmentRun { task } => vec![Value::Id(task.0)],
            PlatformEvent::Undertaken { worker, task } => {
                vec![Value::Id(worker.0), Value::Id(task.0)]
            }
            PlatformEvent::ClockAdvanced { to, owner } => {
                let mut args = vec![Value::Id(to.ticks())];
                if *owner != 0 {
                    args.push(Value::Id(*owner));
                }
                args
            }
            PlatformEvent::AnswerSubmitted {
                worker,
                task,
                outputs,
            } => {
                let mut args = vec![Value::Id(worker.0), Value::Id(task.0)];
                args.extend(outputs.iter().cloned());
                args
            }
            PlatformEvent::TaskCompleted { task, quality } => {
                vec![Value::Id(task.0), Value::Float(*quality)]
            }
            PlatformEvent::ActivityRecorded { worker, task } => {
                vec![Value::Id(worker.0), Value::Id(task.0)]
            }
        };
        JournalEntry::new(self.kind(), args)
    }

    /// The journal entry of a [`PlatformEvent::WorkerRegistered`] of
    /// `profile`, encoded from the borrowed profile: the entry
    /// [`encode`](Self::encode) writes for that event, without the event
    /// and the copy of the profile it would own.
    pub fn encode_registration(profile: &WorkerProfile) -> JournalEntry {
        JournalEntry::new("worker", encode_profile(profile))
    }

    /// Decode a journal entry produced by [`encode`](Self::encode).
    pub fn decode(entry: &JournalEntry) -> Result<PlatformEvent, PlatformError> {
        let mut cur = Cursor::new(&entry.kind, &entry.args);
        let ev = match entry.kind.as_str() {
            "worker" => PlatformEvent::WorkerRegistered {
                profile: decode_profile(&mut cur)?,
            },
            "project" => {
                let name = cur.str()?;
                let source = cur.str()?;
                let scheme = parse_scheme(&cur.str()?)?;
                let factors = decode_factors(&mut cur)?;
                let owner = cur.owner_tag()?;
                PlatformEvent::ProjectRegistered {
                    name,
                    source,
                    factors,
                    scheme,
                    owner,
                }
            }
            "seed" => PlatformEvent::FactSeeded {
                project: ProjectId(cur.id()?),
                pred: cur.str()?,
                values: cur.rest(),
            },
            "sync" => PlatformEvent::TasksSynced {
                project: ProjectId(cur.id()?),
            },
            "collab" => PlatformEvent::CollabTaskCreated {
                project: ProjectId(cur.id()?),
                description: cur.str()?,
            },
            "interest" => PlatformEvent::InterestExpressed {
                worker: WorkerId(cur.id()?),
                task: TaskId(cur.id()?),
            },
            "assign" => PlatformEvent::AssignmentRun {
                task: TaskId(cur.id()?),
            },
            "undertake" => PlatformEvent::Undertaken {
                worker: WorkerId(cur.id()?),
                task: TaskId(cur.id()?),
            },
            "clock" => {
                let to = SimTime(cur.id()?);
                let owner = cur.owner_tag()?;
                PlatformEvent::ClockAdvanced { to, owner }
            }
            "answer" => PlatformEvent::AnswerSubmitted {
                worker: WorkerId(cur.id()?),
                task: TaskId(cur.id()?),
                outputs: cur.rest(),
            },
            "complete" => PlatformEvent::TaskCompleted {
                task: TaskId(cur.id()?),
                quality: cur.float()?,
            },
            "activity" => PlatformEvent::ActivityRecorded {
                worker: WorkerId(cur.id()?),
                task: TaskId(cur.id()?),
            },
            other => {
                return Err(PlatformError::BadEvent(format!(
                    "unknown event kind `{other}`"
                )))
            }
        };
        cur.finish()?;
        Ok(ev)
    }
}

fn parse_scheme(name: &str) -> Result<Scheme, PlatformError> {
    Scheme::all()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| PlatformError::BadEvent(format!("unknown scheme `{name}`")))
}

/// Sequential reader over an entry's argument row.
struct Cursor<'a> {
    kind: &'a str,
    args: &'a [Value],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(kind: &'a str, args: &'a [Value]) -> Cursor<'a> {
        Cursor { kind, args, pos: 0 }
    }

    fn bad(&self, what: &str) -> PlatformError {
        PlatformError::BadEvent(format!(
            "`{}` entry: expected {what} at arg {}",
            self.kind, self.pos
        ))
    }

    fn next(&mut self) -> Result<&'a Value, PlatformError> {
        let v = self.args.get(self.pos).ok_or_else(|| self.bad("a value"))?;
        self.pos += 1;
        Ok(v)
    }

    fn id(&mut self) -> Result<u64, PlatformError> {
        match self.next()? {
            Value::Id(i) => Ok(*i),
            _ => Err(self.bad("an id")),
        }
    }

    fn int(&mut self) -> Result<i64, PlatformError> {
        match self.next()? {
            Value::Int(i) => Ok(*i),
            _ => Err(self.bad("an int")),
        }
    }

    fn float(&mut self) -> Result<f64, PlatformError> {
        match self.next()? {
            Value::Float(x) => Ok(*x),
            _ => Err(self.bad("a float")),
        }
    }

    fn bool(&mut self) -> Result<bool, PlatformError> {
        match self.next()? {
            Value::Bool(b) => Ok(*b),
            _ => Err(self.bad("a bool")),
        }
    }

    fn str(&mut self) -> Result<String, PlatformError> {
        match self.next()? {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(self.bad("a string")),
        }
    }

    fn opt_str(&mut self) -> Result<Option<String>, PlatformError> {
        match self.next()? {
            Value::Null => Ok(None),
            Value::Str(s) => Ok(Some(s.clone())),
            _ => Err(self.bad("a string or null")),
        }
    }

    /// Optional trailing clock-domain owner: absent (pre-ownership
    /// journals) decodes as the global domain `0`.
    fn owner_tag(&mut self) -> Result<u64, PlatformError> {
        if self.pos == self.args.len() {
            Ok(0)
        } else {
            self.id()
        }
    }

    /// All remaining values, consuming the cursor's tail.
    fn rest(&mut self) -> Vec<Value> {
        let out = self.args[self.pos..].to_vec();
        self.pos = self.args.len();
        out
    }

    /// Assert every argument was consumed.
    fn finish(self) -> Result<(), PlatformError> {
        if self.pos == self.args.len() {
            Ok(())
        } else {
            Err(PlatformError::BadEvent(format!(
                "`{}` entry: {} trailing argument(s)",
                self.kind,
                self.args.len() - self.pos
            )))
        }
    }
}

fn encode_profile(p: &WorkerProfile) -> Vec<Value> {
    let mut args = vec![
        Value::Id(p.id.0),
        Value::Str(p.name.clone()),
        Value::Float(p.cost),
        Value::Bool(p.factors.logged_in),
        Value::Str(p.factors.region.name.clone()),
        Value::Float(p.factors.region.x),
        Value::Float(p.factors.region.y),
    ];
    args.push(Value::Int(p.factors.native_langs.len() as i64));
    for l in &p.factors.native_langs {
        args.push(Value::Str(l.code().to_owned()));
    }
    args.push(Value::Int(p.factors.fluency.len() as i64));
    for (l, level) in &p.factors.fluency {
        args.push(Value::Str(l.code().to_owned()));
        args.push(Value::Float(*level));
    }
    args.push(Value::Int(p.factors.skills.len() as i64));
    for (s, level) in &p.factors.skills {
        args.push(Value::Str(s.clone()));
        args.push(Value::Float(*level));
    }
    args
}

fn decode_profile(cur: &mut Cursor<'_>) -> Result<WorkerProfile, PlatformError> {
    let id = WorkerId(cur.id()?);
    let name = cur.str()?;
    let mut p = WorkerProfile::new(id, name);
    p.cost = cur.float()?;
    p.factors.logged_in = cur.bool()?;
    p.factors.region = Region::new(cur.str()?, cur.float()?, cur.float()?);
    let n = cur.int()?;
    for _ in 0..n {
        p.factors.native_langs.push(Lang::new(cur.str()?));
    }
    let n = cur.int()?;
    for _ in 0..n {
        let lang = Lang::new(cur.str()?);
        let level = cur.float()?;
        p.factors.fluency.insert(lang, level);
    }
    let n = cur.int()?;
    for _ in 0..n {
        let skill = cur.str()?;
        let level = cur.float()?;
        p.factors.skills.insert(skill, level);
    }
    Ok(p)
}

fn encode_factors(f: &DesiredFactors) -> Vec<Value> {
    vec![
        f.required_language
            .clone()
            .map(Value::Str)
            .unwrap_or(Value::Null),
        f.skill_name.clone().map(Value::Str).unwrap_or(Value::Null),
        Value::Float(f.min_quality),
        Value::Int(f.min_team as i64),
        Value::Int(f.max_team as i64),
        Value::Float(f.max_cost),
        Value::Id(f.recruitment_secs),
        Value::Bool(f.require_login),
    ]
}

fn decode_factors(cur: &mut Cursor<'_>) -> Result<DesiredFactors, PlatformError> {
    Ok(DesiredFactors {
        required_language: cur.opt_str()?,
        skill_name: cur.opt_str()?,
        min_quality: cur.float()?,
        min_team: cur.int()? as usize,
        max_team: cur.int()? as usize,
        max_cost: cur.float()?,
        recruitment_secs: cur.id()?,
        require_login: cur.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_storage::journal::EventJournal;

    fn rich_profile() -> WorkerProfile {
        let mut p = WorkerProfile::new(WorkerId(7), "ann \t odd name")
            .with_native_lang("en")
            .with_native_lang("fr")
            .with_fluency("ja", 0.4)
            .with_region(Region::new("tokyo", 0.8, 0.2))
            .with_skill("journalism", 0.9)
            .with_skill("translation", 0.3)
            .with_cost(2.5);
        p.factors.logged_in = false;
        p
    }

    fn all_events() -> Vec<PlatformEvent> {
        vec![
            PlatformEvent::WorkerRegistered {
                profile: rich_profile(),
            },
            PlatformEvent::WorkerRegistered {
                profile: WorkerProfile::new(WorkerId(1), "bare"),
            },
            PlatformEvent::ProjectRegistered {
                name: "demo".into(),
                source: "rel a(x: int).\n".into(),
                factors: DesiredFactors {
                    required_language: Some("en".into()),
                    skill_name: None,
                    min_quality: 0.25,
                    min_team: 2,
                    max_team: 5,
                    max_cost: f64::INFINITY,
                    recruitment_secs: 600,
                    require_login: true,
                },
                scheme: Scheme::Hybrid,
                owner: 0,
            },
            PlatformEvent::ProjectRegistered {
                name: "owned".into(),
                source: "rel b(x: int).\n".into(),
                factors: DesiredFactors::default(),
                scheme: Scheme::Sequential,
                owner: 2,
            },
            PlatformEvent::FactSeeded {
                project: ProjectId(3),
                pred: "sentence".into(),
                values: vec!["hello".into(), Value::Null, Value::Int(-4)],
            },
            PlatformEvent::TasksSynced {
                project: ProjectId(3),
            },
            PlatformEvent::CollabTaskCreated {
                project: ProjectId(3),
                description: "subtitle a video".into(),
            },
            PlatformEvent::InterestExpressed {
                worker: WorkerId(1),
                task: TaskId(9),
            },
            PlatformEvent::AssignmentRun { task: TaskId(9) },
            PlatformEvent::Undertaken {
                worker: WorkerId(1),
                task: TaskId(9),
            },
            PlatformEvent::ClockAdvanced {
                to: SimTime(1801),
                owner: 0,
            },
            PlatformEvent::ClockAdvanced {
                to: SimTime(1802),
                owner: 3,
            },
            PlatformEvent::AnswerSubmitted {
                worker: WorkerId(1),
                task: TaskId(10),
                outputs: vec![true.into(), "multi\nline".into()],
            },
            PlatformEvent::TaskCompleted {
                task: TaskId(9),
                quality: 0.875,
            },
            PlatformEvent::ActivityRecorded {
                worker: WorkerId(1),
                task: TaskId(9),
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_a_journal() {
        let events = all_events();
        let mut journal = EventJournal::new();
        for e in &events {
            let entry = e.encode();
            journal.append(entry.kind, entry.args).unwrap();
        }
        // Through the text format, too.
        let journal = EventJournal::load(&journal.dump()).unwrap();
        let back: Vec<PlatformEvent> = journal
            .iter()
            .map(|e| PlatformEvent::decode(e).unwrap())
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn a_registration_encodes_from_the_borrowed_profile() {
        let mut profiles = 0;
        for event in all_events() {
            if let PlatformEvent::WorkerRegistered { profile } = &event {
                assert_eq!(PlatformEvent::encode_registration(profile), event.encode());
                profiles += 1;
            }
        }
        assert_eq!(profiles, 2);
    }

    #[test]
    fn owner_tags_are_backward_compatible() {
        // The global domain (owner 0) encodes with no trailing tag —
        // byte-identical to the pre-ownership format — so old journals
        // decode unchanged and untagged runs keep their journal bytes.
        let global = PlatformEvent::ClockAdvanced {
            to: SimTime(9),
            owner: 0,
        };
        assert_eq!(global.encode().args.len(), 1);
        let owned = PlatformEvent::ClockAdvanced {
            to: SimTime(9),
            owner: 4,
        };
        assert_eq!(owned.encode().args.len(), 2);
        assert_eq!(PlatformEvent::decode(&owned.encode()).unwrap(), owned);
    }

    #[test]
    fn kinds_are_distinct() {
        let events = all_events();
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.dedup(); // consecutive duplicates only (worker appears twice)
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 12);
        assert!(!kinds.contains(&DRAIN_KIND));
    }

    #[test]
    fn scopes_partition_the_vocabulary() {
        // Every variant classifies; task-scoped ones resolve the project
        // out of the strided task id.
        for e in all_events() {
            match (e.kind(), e.scope()) {
                ("worker" | "clock" | "project", EventScope::Global) => {}
                ("seed" | "sync" | "collab", EventScope::Project(p)) => {
                    assert_eq!(p, ProjectId(3));
                }
                (
                    "interest" | "assign" | "undertake" | "answer" | "complete" | "activity",
                    EventScope::Project(p),
                ) => {
                    // Raw TaskId(n) decodes as project 0 (the raw id space).
                    assert_eq!(p, ProjectId(0));
                }
                (kind, scope) => panic!("unexpected scope {scope:?} for kind `{kind}`"),
            }
        }
        let strided = PlatformEvent::AnswerSubmitted {
            worker: WorkerId(1),
            task: TaskId::compose(ProjectId(7), 4),
            outputs: vec![],
        };
        assert_eq!(strided.scope(), EventScope::Project(ProjectId(7)));
    }

    #[test]
    fn malformed_entries_rejected() {
        let cases = [
            JournalEntry::new("mystery", vec![]),
            JournalEntry::new("sync", vec![]), // missing arg
            JournalEntry::new("sync", vec![Value::Int(1)]), // wrong type
            JournalEntry::new("assign", vec![Value::Id(1), Value::Id(2)]), // trailing
            JournalEntry::new("complete", vec![Value::Id(1), Value::Str("x".into())]),
            JournalEntry::new("project", vec![Value::Str("n".into())]), // truncated
            JournalEntry::new(
                "project",
                vec![
                    Value::Str("n".into()),
                    Value::Str("src".into()),
                    Value::Str("waterfall".into()), // unknown scheme
                ],
            ),
            JournalEntry::new("worker", vec![Value::Id(1)]), // truncated profile
            // Owner tag must be an id, not a string.
            JournalEntry::new("clock", vec![Value::Id(5), Value::Str("o".into())]),
        ];
        for entry in cases {
            assert!(
                PlatformEvent::decode(&entry).is_err(),
                "should reject {entry:?}"
            );
        }
    }
}
