//! The Crowd4U platform facade: projects, task generation, the five-step
//! assignment workflow of §2.2.1, deadline-driven re-assignment, and task
//! completion bookkeeping.
//!
//! # Event-driven execution core
//!
//! Every state-changing entry point has a [`PlatformEvent`] counterpart and
//! appends one entry to an append-only [`EventJournal`] on success, so a
//! platform can be replayed deterministically ([`Crowd4U::replay_with`]).
//! Worker actions can be ingested one call at a time or as batches
//! ([`Crowd4U::apply_batch`]): batched answers mark their project *dirty*
//! instead of re-running the CyLog fixpoint per answer, and
//! [`Crowd4U::drain_events`] synchronises each dirty project exactly once.
//! Eligibility is cached per project: a factor-screen project's set is
//! patched in place for the one worker a registration names, and screened
//! again in full only when the profiles changed by another route or — for
//! a declarative screen — the project's facts did.

use crate::controller::{
    candidates_from_profiles, constraints_from_factors, non_committers, AssignmentController,
};
use crate::eligibility;
use crate::error::{PlatformError, ProjectId, TaskId, WorkerId};
use crate::events::{PlatformEvent, DRAIN_KIND};
use crate::relations::RelationStore;
use crate::task::{Task, TaskBody, TaskPool, TaskState};
use crate::workers::WorkerManager;
use crowd4u_assign::prelude::Team;
use crowd4u_collab::prelude::{CollabMonitor, MonitorEvent, Verdict};
use crowd4u_collab::Scheme;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_forms::admin::DesiredFactors;
use crowd4u_sim::stats::Counters;
use crowd4u_sim::time::{SimDuration, SimTime};
use crowd4u_storage::prelude::{EventJournal, JournalEntry, Value};
use crowd4u_telemetry::{stage, Counter, Histogram, Span, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet};

/// The eligibility cache of one project: valid while both epochs match.
#[derive(Debug, Clone)]
struct EligibleCache {
    /// The [`WorkerManager::version`] the set is exact for. Set by a full
    /// screen; advanced only by [`Crowd4U::install_worker_delta`], and only
    /// from the version immediately before the registration it installs.
    worker_version: u64,
    project_epoch: u64,
    /// Ascending by id under the factor screen (the order
    /// [`WorkerManager::profiles`] yields), which is what lets a
    /// registration patch it by binary search.
    workers: Vec<WorkerId>,
}

/// A registered project: declarative description + desired human factors.
pub struct Project {
    pub id: ProjectId,
    pub name: String,
    /// The CyLog processor instance for this project's description.
    pub engine: CylogEngine,
    pub factors: DesiredFactors,
    pub scheme: Scheme,
    /// Feedback to the requester when no feasible team exists (§2.2.1:
    /// "Crowd4U suggests to the requester to update her input").
    pub suggestion: Option<String>,
    /// Clock domain owning this project's recruitment deadlines: `0` (the
    /// default) is the global clock; a non-zero owner means only clock
    /// advances tagged with the same owner set and sweep them. Merged
    /// scenario streams give each trace its own domain so one scenario's
    /// clock cannot expire another's recruitment window.
    pub owner: u64,
    /// Whether the CyLog description derives `eligible(w: id)` — decided
    /// once at registration (rules are fixed after compilation). Gates
    /// how aggressively the eligible-set cache is reused: only a
    /// declarative screen depends on the project's fact base.
    declarative: bool,
    /// Bumped whenever the project's fact base changes through the platform
    /// (seeded facts, answers); part of the eligibility-cache key.
    epoch: u64,
    /// Cached eligible set, keyed by (worker version, project epoch).
    eligible_cache: Option<EligibleCache>,
}

impl Project {
    /// The project's data epoch (for cache-staleness diagnostics).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Outcome of [`Crowd4U::apply_batch`]: events are applied with per-event
/// error tolerance, so one invalid worker action does not poison the batch.
#[derive(Debug, Default)]
pub struct BatchReport {
    /// Events applied (and journaled) successfully.
    pub applied: usize,
    /// Events rejected, with their position in the batch.
    pub errors: Vec<(usize, PlatformError)>,
    /// Projects synchronised by the closing [`Crowd4U::drain_events`].
    pub synced: Vec<ProjectId>,
}

/// Telemetry cells the platform records into. Defaults to all-disabled
/// cells (recording is a no-op) until [`Crowd4U::set_telemetry`] attaches a
/// live registry. Strictly observe-only: nothing here feeds back into
/// platform behaviour, the journal, or [`Crowd4U::state_dump`].
#[derive(Default)]
struct PlatformTelemetry {
    /// Kept so project engines registered later attach to the same registry.
    handle: TelemetryHandle,
    journal_append: Histogram,
    /// Journal appends on this slice so far: the sample key of the next.
    appends: u64,
    events_applied: Counter,
    events_dropped: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_patches: Counter,
    pairs_computed: Counter,
    pairs_reused: Counter,
}

impl PlatformTelemetry {
    fn from_handle(handle: &TelemetryHandle) -> PlatformTelemetry {
        PlatformTelemetry {
            handle: handle.clone(),
            journal_append: handle.histogram(stage::JOURNAL_APPEND),
            appends: 0,
            events_applied: handle.counter("crowd4u_core_events_applied_total"),
            events_dropped: handle.counter("crowd4u_core_events_dropped_total"),
            cache_hits: handle.counter("crowd4u_core_eligibility_cache_hits_total"),
            cache_misses: handle.counter("crowd4u_core_eligibility_cache_misses_total"),
            cache_patches: handle.counter("crowd4u_core_eligibility_cache_patches_total"),
            pairs_computed: handle.counter("crowd4u_core_affinity_pairs_computed_total"),
            pairs_reused: handle.counter("crowd4u_core_affinity_pairs_reused_total"),
        }
    }

    /// Span one journal append, keyed by the slice's own append count:
    /// timed if that count is in the sample, counted either way.
    fn append_span(&mut self) -> Span<'_> {
        self.appends += 1;
        self.journal_append.span_for(self.appends)
    }
}

/// The platform.
pub struct Crowd4U {
    now: SimTime,
    pub workers: WorkerManager,
    pub relations: RelationStore,
    pub pool: TaskPool,
    projects: BTreeMap<ProjectId, Project>,
    next_project: u64,
    /// High-water mark of each non-global clock domain (owner ≠ 0), fed by
    /// owner-tagged [`PlatformEvent::ClockAdvanced`] events. Purely
    /// event-derived, so replay reconstructs it; dumped by
    /// [`Crowd4U::state_dump`] when non-empty.
    owner_clocks: BTreeMap<u64, SimTime>,
    pub controller: AssignmentController,
    pub counters: Counters,
    /// Reused buffer for scoped counter names (`p<project>.<name>`): a bump
    /// formats into it instead of allocating a `String` per event.
    counter_key: String,
    /// Give up on a collaborative task after this many missed deadlines.
    pub max_reassignments: u32,
    /// A collaboration member idle for this long counts as stalled.
    pub stall_after: SimDuration,
    /// Append-only log of every applied event (the replay source of truth).
    journal: EventJournal,
    /// Projects whose CyLog fact base changed since their last sync.
    dirty: BTreeSet<ProjectId>,
    /// Collaboration monitors, one per task whose team started.
    monitors: BTreeMap<TaskId, CollabMonitor>,
    /// Observe-only metric cells — excluded from `state_dump`, like the
    /// `counters` above.
    telemetry: PlatformTelemetry,
}

impl Default for Crowd4U {
    fn default() -> Self {
        Crowd4U {
            now: SimTime::ZERO,
            workers: WorkerManager::new(),
            relations: RelationStore::new(),
            pool: TaskPool::new(),
            projects: BTreeMap::new(),
            next_project: 0,
            owner_clocks: BTreeMap::new(),
            controller: AssignmentController::default(),
            counters: Counters::new(),
            counter_key: String::new(),
            max_reassignments: 3,
            stall_after: SimDuration::minutes(30),
            journal: EventJournal::new(),
            dirty: BTreeSet::new(),
            monitors: BTreeMap::new(),
            telemetry: PlatformTelemetry::default(),
        }
    }
}

impl Crowd4U {
    pub fn new() -> Crowd4U {
        Crowd4U::default()
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Append one event to the journal (call only after the event's effects
    /// were applied successfully).
    fn record(&mut self, event: &PlatformEvent) {
        let _span = self.telemetry.append_span();
        let entry = event.encode();
        self.journal
            .append(entry.kind, entry.args)
            .expect("event kinds are static identifiers");
        self.counters.incr("events_journaled");
    }

    /// Attach telemetry: journal appends count in the `journal.append`
    /// stage histogram (a sample of them timed), applied/dropped events,
    /// eligibility-cache hits/misses/patches and the assignment path's
    /// computed/reused pair affinities count into
    /// `crowd4u_core_*_total`, and every project
    /// engine — current and future — records its fixpoint stage and
    /// `EvalStats` counters (see [`CylogEngine::set_telemetry`]).
    /// Observe-only: two platforms differing only in telemetry produce
    /// byte-identical journals and state dumps.
    pub fn set_telemetry(&mut self, handle: &TelemetryHandle) {
        self.telemetry = PlatformTelemetry::from_handle(handle);
        for p in self.projects.values_mut() {
            p.engine.set_telemetry(handle);
        }
    }

    /// The append-only event journal (replay it with [`Crowd4U::replay_with`]).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Move the journaled entries out, leaving the journal empty — for an
    /// owner that keeps the event history itself. The sharded runtime calls
    /// this after every message and files the entries in its ledger, so a
    /// shard slice holds no second copy; a standalone platform never calls
    /// it and keeps its whole journal. Journaling itself is unaffected.
    pub fn take_journal(&mut self) -> impl Iterator<Item = JournalEntry> + '_ {
        self.journal.take()
    }

    /// Bump a **project-scoped** counter alongside its platform-global
    /// twin. Scoped counters are what scenario-level accounting reads when
    /// several workloads share one platform (or one shard slice): a global
    /// delta cannot attribute `teams_suggested` to the scenario that
    /// formed the team, a per-project count can. Like all counters they
    /// are volatile bookkeeping — excluded from [`Crowd4U::state_dump`].
    fn bump_project_counter(&mut self, project: ProjectId, name: &str) {
        self.bump_scoped(format_args!("p{}.{name}", project.0));
    }

    fn bump_scoped(&mut self, key: std::fmt::Arguments<'_>) {
        use std::fmt::Write as _;
        self.counter_key.clear();
        let _ = self.counter_key.write_fmt(key);
        self.counters.incr(&self.counter_key);
    }

    /// A project-scoped counter (see the mirrored increments:
    /// `teams_suggested`, `deadlines_missed`, `answers`,
    /// `collab_completed`, `tasks_abandoned`). Zero for never-touched
    /// projects.
    pub fn project_counter(&self, project: ProjectId, name: &str) -> u64 {
        self.counters.get(&format!("p{}.{name}", project.0))
    }

    /// Move the platform clock forward, processing any expired recruitment
    /// deadlines (workflow step: "unless all suggested workers start … by
    /// the specified deadline, task assignment is re-executed").
    pub fn advance_to(&mut self, t: SimTime) -> Result<(), PlatformError> {
        self.advance_owned(t, 0)
    }

    /// Advance one clock domain. Owner `0` is the global clock
    /// ([`Crowd4U::advance_to`]); a non-zero owner also moves that domain's
    /// high-water mark and sweeps **only** deadlines of projects registered
    /// with the same owner — the deadline-isolation half of the shared-crowd
    /// contract (ARCHITECTURE.md §11). The global `now` still tracks the
    /// max over all domains, so wall-clock-derived state (task creation
    /// stamps, stall monitors) stays a single timeline.
    pub fn advance_owned(&mut self, t: SimTime, owner: u64) -> Result<(), PlatformError> {
        self.record(&PlatformEvent::ClockAdvanced { to: t, owner });
        if t > self.now {
            self.now = t;
        }
        if owner != 0 {
            let domain = self.owner_clocks.entry(owner).or_insert(SimTime::ZERO);
            if t > *domain {
                *domain = t;
            }
        }
        self.process_deadlines_inner(owner)
    }

    // ---- workers ----

    pub fn register_worker(&mut self, profile: crowd4u_crowd::profile::WorkerProfile) {
        self.record(&PlatformEvent::WorkerRegistered {
            profile: profile.clone(),
        });
        self.counters.incr("workers_registered");
        self.install_worker_delta(profile);
    }

    /// The state effects of a worker registration, without the journal
    /// entry or the platform counter. This is the runtime's replica path:
    /// the coordinator shard journals [`PlatformEvent::WorkerRegistered`]
    /// via [`register_worker`](Crowd4U::register_worker); other shards
    /// mirror its effects by installing the same profile deltas, in the
    /// same seq order, through this method — keeping
    /// `WorkerManager::version()` in lockstep without the event ever being
    /// broadcast.
    ///
    /// A registration changes one worker, so under the factor screen it
    /// changes each project's eligible set by at most that worker. Every
    /// factor-screen project with something to repair — a cached set that
    /// is exact for the version just before this registration, or open
    /// tasks — screens the new profile once, and the verdict repairs both:
    /// the cached set is patched at the worker's `binary_search` position
    /// and moved to the new version (so the next
    /// [`eligible_set`](Crowd4U::eligible_set) is a hit, not a screen of
    /// the whole population), and an eligible worker is marked on the open
    /// tasks. A cache that is not exact for the preceding version — the
    /// profiles moved through `workers.get_mut` or `refresh_skills`, the
    /// project arrived from another shard — is left behind for the full
    /// screen. A worker who stops qualifying leaves the cached set but
    /// keeps the open-task rows they already have. Declarative projects
    /// recompute in full: a new worker fact may flip *other* workers'
    /// derived eligibility.
    pub fn install_worker_delta(&mut self, profile: crowd4u_crowd::profile::WorkerProfile) {
        let worker = profile.id;
        if self.projects.is_empty() {
            // Nothing to repair — bulk onboarding registers the crowd before
            // the first project — so it pays for none of the bookkeeping.
            self.workers.register(profile);
            return;
        }
        let before = self.workers.version();
        let open = self.pool.projects_with_open_tasks();
        // Screen before the profile moves into the registry. `open` and
        // `verdicts` are in ascending project order, which the binary
        // searches rely on.
        let verdicts: Vec<(ProjectId, bool)> = self
            .projects
            .values()
            .filter(|p| {
                let cached = matches!(&p.eligible_cache, Some(c) if c.worker_version == before);
                !p.declarative && (cached || open.binary_search(&p.id).is_ok())
            })
            .map(|p| (p.id, eligibility::is_eligible(&profile, &p.factors)))
            .collect();
        self.workers.register(profile);
        let after = self.workers.version();
        let mut patched = false;
        for &(id, eligible) in &verdicts {
            let proj = self.projects.get_mut(&id).expect("screened above");
            if let Some(cache) = proj
                .eligible_cache
                .as_mut()
                .filter(|c| c.worker_version == before)
            {
                match (cache.workers.binary_search(&worker), eligible) {
                    (Err(at), true) => cache.workers.insert(at, worker),
                    (Ok(at), false) => {
                        cache.workers.remove(at);
                    }
                    _ => {}
                }
                cache.worker_version = after;
                patched = true;
            }
        }
        if patched {
            self.counters.incr("eligibility_cache_patches");
            self.telemetry.cache_patches.incr();
        }
        for project in open {
            let screened = verdicts
                .binary_search_by_key(&project, |&(id, _)| id)
                .ok()
                .map(|at| verdicts[at].1);
            let _ = self.refresh_registered_eligibility(worker, project, screened);
        }
    }

    /// Post-registration eligibility repair for one project with open
    /// tasks: mark the new worker on them if the factor screen admitted
    /// them (`screened`), or fall back to the full recompute for a project
    /// that was not factor-screened — a declarative one.
    fn refresh_registered_eligibility(
        &mut self,
        worker: WorkerId,
        project: ProjectId,
        screened: Option<bool>,
    ) -> Result<(), PlatformError> {
        match screened {
            None => return self.refresh_project_eligibility(project),
            Some(false) => return Ok(()),
            Some(true) => {}
        }
        let tasks: Vec<TaskId> = self
            .pool
            .open_tasks(Some(project))
            .iter()
            .map(|t| t.id)
            .collect();
        for task in tasks {
            self.relations.mark_eligible(worker, task)?;
        }
        Ok(())
    }

    /// The workers eligible for a project's tasks. Projects whose CyLog
    /// description derives `eligible(w: id)` get the declarative path
    /// (§2.2: Eligible "is computed by the CyLog processor"); all others
    /// use the built-in human-factor screen.
    ///
    /// The result is cached: it is served from the cache while the cache
    /// is exact for the current [`WorkerManager::version`] (and, for a
    /// declarative screen, the project's epoch), and recomputed over every
    /// registered profile otherwise. Registrations keep a factor-screen
    /// project's cache exact by patching it
    /// ([`install_worker_delta`](Crowd4U::install_worker_delta)); any other
    /// profile change leaves it behind, so this version check is the
    /// safety net and the recompute below is the one implementation of
    /// "who is eligible".
    pub fn eligible_set(&mut self, project: ProjectId) -> Result<Vec<WorkerId>, PlatformError> {
        let worker_version = self.workers.version();
        {
            let proj = self
                .projects
                .get(&project)
                .ok_or(PlatformError::UnknownProject(project))?;
            if let Some(cache) = &proj.eligible_cache {
                // The human-factor screen is a pure function of profiles ×
                // requester factors, so its cached set survives fact-base
                // changes; only a declarative screen (CyLog-derived
                // `eligible`) must also match the project epoch.
                if cache.worker_version == worker_version
                    && (!proj.declarative || cache.project_epoch == proj.epoch)
                {
                    self.counters.incr("eligibility_cache_hits");
                    self.telemetry.cache_hits.incr();
                    return Ok(cache.workers.clone());
                }
            }
        }
        self.counters.incr("eligibility_cache_misses");
        self.telemetry.cache_misses.incr();
        let proj = self.projects.get_mut(&project).expect("checked above");
        let workers = if proj.declarative {
            for p in self.workers.profiles() {
                crate::declarative::sync_worker_facts(&mut proj.engine, p)?;
            }
            proj.engine.run()?;
            crate::declarative::eligible_workers(&proj.engine)?
        } else {
            self.workers
                .profiles()
                .filter(|p| eligibility::is_eligible(p, &proj.factors))
                .map(|p| p.id)
                .collect()
        };
        proj.eligible_cache = Some(EligibleCache {
            worker_version,
            project_epoch: proj.epoch,
            workers: workers.clone(),
        });
        Ok(workers)
    }

    /// Recompute the Eligible relation for every open task of a project.
    fn refresh_project_eligibility(&mut self, project: ProjectId) -> Result<(), PlatformError> {
        let eligible = self.eligible_set(project)?;
        let tasks: Vec<TaskId> = self
            .pool
            .open_tasks(Some(project))
            .iter()
            .map(|t| t.id)
            .collect();
        for task in tasks {
            for &w in &eligible {
                self.relations.mark_eligible(w, task)?;
            }
        }
        Ok(())
    }

    // ---- projects ----

    /// Register a project: its CyLog description is compiled and an admin
    /// page (constraint form) becomes available.
    pub fn register_project(
        &mut self,
        name: impl Into<String>,
        cylog_source: &str,
        factors: DesiredFactors,
        scheme: Scheme,
    ) -> Result<ProjectId, PlatformError> {
        self.register_project_owned(name, cylog_source, factors, scheme, 0)
    }

    /// Register a project into a specific clock domain (see
    /// [`Project::owner`]); owner `0` is [`Crowd4U::register_project`].
    pub fn register_project_owned(
        &mut self,
        name: impl Into<String>,
        cylog_source: &str,
        factors: DesiredFactors,
        scheme: Scheme,
        owner: u64,
    ) -> Result<ProjectId, PlatformError> {
        let mut engine = CylogEngine::from_source(cylog_source)?;
        engine.set_telemetry(&self.telemetry.handle);
        let declarative = crate::declarative::uses_declarative_eligibility(&engine);
        let name = name.into();
        self.record(&PlatformEvent::ProjectRegistered {
            name: name.clone(),
            source: cylog_source.to_owned(),
            factors: factors.clone(),
            scheme,
            owner,
        });
        self.next_project += 1;
        let id = ProjectId(self.next_project);
        self.projects.insert(
            id,
            Project {
                id,
                name,
                engine,
                factors,
                scheme,
                suggestion: None,
                owner,
                declarative,
                epoch: 0,
                eligible_cache: None,
            },
        );
        self.counters.incr("projects_registered");
        Ok(id)
    }

    pub fn project(&self, id: ProjectId) -> Result<&Project, PlatformError> {
        self.projects
            .get(&id)
            .ok_or(PlatformError::UnknownProject(id))
    }

    /// Mutable project access — crate-internal only. Mutations made through
    /// the returned reference bypass both the event journal and the
    /// eligibility epoch cache, so external callers must go through the
    /// journaled entry points ([`Crowd4U::seed_fact`],
    /// [`Crowd4U::sync_tasks`], …) instead; internal callers may only touch
    /// state that is neither journaled nor part of a cache key (e.g. the
    /// requester `suggestion`).
    pub(crate) fn project_mut(&mut self, id: ProjectId) -> Result<&mut Project, PlatformError> {
        self.projects
            .get_mut(&id)
            .ok_or(PlatformError::UnknownProject(id))
    }

    pub fn project_ids(&self) -> Vec<ProjectId> {
        self.projects.keys().copied().collect()
    }

    /// Mark a project's fact base changed: invalidates its eligibility
    /// cache and queues it for the next [`Crowd4U::drain_events`].
    fn touch_project(&mut self, id: ProjectId) {
        if let Some(p) = self.projects.get_mut(&id) {
            p.epoch += 1;
        }
        self.dirty.insert(id);
    }

    /// Add a base fact to a project's CyLog database. The project is marked
    /// dirty; call [`Crowd4U::sync_tasks`] (or let a batch drain) to turn
    /// new demands into tasks.
    pub fn seed_fact(
        &mut self,
        project: ProjectId,
        pred: &str,
        values: Vec<Value>,
    ) -> Result<bool, PlatformError> {
        let fresh = self
            .projects
            .get_mut(&project)
            .ok_or(PlatformError::UnknownProject(project))?
            .engine
            .add_fact(pred, values.clone())?;
        self.touch_project(project);
        self.record(&PlatformEvent::FactSeeded {
            project,
            pred: pred.to_owned(),
            values,
        });
        Ok(fresh)
    }

    /// Run the project's CyLog rules and register a micro-task for every
    /// new open question. Returns the number of new tasks. Eligibility for
    /// the new tasks is computed for all registered workers.
    pub fn sync_tasks(&mut self, project: ProjectId) -> Result<usize, PlatformError> {
        let n = self.sync_tasks_inner(project)?;
        self.record(&PlatformEvent::TasksSynced { project });
        Ok(n)
    }

    /// [`Crowd4U::sync_tasks`] without the journal entry — used by
    /// [`Crowd4U::drain_events`], whose own `drain` entry implies the syncs.
    fn sync_tasks_inner(&mut self, project: ProjectId) -> Result<usize, PlatformError> {
        let now = self.now;
        let proj = self
            .projects
            .get_mut(&project)
            .ok_or(PlatformError::UnknownProject(project))?;
        proj.engine.run()?;
        // Only the demands enqueued since the last hand-off: the backlog of
        // questions that already have a task is never revisited.
        let mut new_tasks = Vec::new();
        for r in proj.engine.take_new_requests() {
            if self
                .pool
                .find_micro(project, &r.pred_name, &r.inputs)
                .is_none()
            {
                let id = self.pool.register(
                    project,
                    TaskBody::Micro {
                        predicate: r.pred_name.clone(),
                        inputs: r.inputs.clone(),
                        points: r.points,
                    },
                    now,
                );
                new_tasks.push(id);
            }
        }
        self.counters
            .add("micro_tasks_generated", new_tasks.len() as u64);
        if !new_tasks.is_empty() {
            let eligible = self.eligible_set(project)?;
            for task in &new_tasks {
                for &w in &eligible {
                    self.relations.mark_eligible(w, *task)?;
                }
            }
        }
        self.dirty.remove(&project);
        Ok(new_tasks.len())
    }

    /// Create a collaborative (team) task for a project.
    pub fn create_collab_task(
        &mut self,
        project: ProjectId,
        description: impl Into<String>,
    ) -> Result<TaskId, PlatformError> {
        let description = description.into();
        let proj = self.project(project)?;
        let body = TaskBody::Collaborative {
            scheme: proj.scheme,
            description: description.clone(),
            skill: proj.factors.skill_name.clone(),
        };
        let id = self.pool.register(project, body, self.now);
        self.counters.incr("collab_tasks_created");
        let eligible = self.eligible_set(project)?;
        for w in eligible {
            self.relations.mark_eligible(w, id)?;
        }
        self.record(&PlatformEvent::CollabTaskCreated {
            project,
            description,
        });
        Ok(id)
    }

    // ---- workflow steps (3)–(5) ----

    /// Step (3): a worker declares interest in an eligible task.
    pub fn express_interest(
        &mut self,
        worker: WorkerId,
        task: TaskId,
    ) -> Result<(), PlatformError> {
        self.workers.get(worker)?;
        self.pool.get(task)?;
        self.relations.express_interest(worker, task)?;
        self.counters.incr("interest_expressed");
        self.record(&PlatformEvent::InterestExpressed { worker, task });
        Ok(())
    }

    /// Steps (4)+(5): form a team from eligible∩interested workers and
    /// suggest it. The task enters `Suggested` with a recruitment deadline.
    pub fn run_assignment(&mut self, task: TaskId) -> Result<Team, PlatformError> {
        let t = self.pool.get(task)?;
        if !matches!(t.state, TaskState::Open) {
            return Err(PlatformError::BadTaskState {
                task,
                state: t.state.label().into(),
            });
        }
        // Journaled regardless of feasibility: an infeasible run still
        // mutates state (suggestion + counters) that a replay must repeat.
        self.record(&PlatformEvent::AssignmentRun { task });
        self.run_assignment_inner(task)
    }

    /// Assignment without the state precondition or journal entry (the
    /// deadline sweep re-executes assignment as a consequence of a
    /// journaled clock advance).
    fn run_assignment_inner(&mut self, task: TaskId) -> Result<Team, PlatformError> {
        let t = self.pool.get(task)?;
        let project = t.project;
        let skill = match &t.body {
            TaskBody::Collaborative { skill, .. } => skill.clone(),
            TaskBody::Micro { .. } => None,
        };
        let (factors, owner) = {
            let p = self.project(project)?;
            (p.factors.clone(), p.owner)
        };
        // Eligible ∩ interested, minus workers excluded by earlier retries.
        let interested = self.relations.interested_workers(task);
        let eligible: Vec<WorkerId> = interested
            .into_iter()
            .filter(|w| self.relations.is_eligible(*w, task))
            .collect();
        let profiles: Vec<&crowd4u_crowd::profile::WorkerProfile> = eligible
            .iter()
            .filter_map(|w| self.workers.get(*w).ok())
            .collect();
        let candidates = candidates_from_profiles(&profiles, skill.as_deref());
        let constraints = constraints_from_factors(&factors);
        // The algorithms only ever look up affinities among the
        // candidates, and pair affinity is a pure function of the two
        // profiles — so ask the worker manager for the candidate submatrix
        // instead of materialising (or cloning) a full population matrix
        // (which no longer exists anywhere). This makes assignment cost
        // independent of how many workers the platform hosts:
        // O(candidates²), not O(population²). `interested_workers` is in
        // ascending id order, so every pair is one the memo keeps: a pair
        // is computed once per change of either profile.
        let (affinity, work) = self.workers.fill_candidate_affinity(&eligible);
        self.counters.add("affinity_pairs_computed", work.computed);
        self.counters.add("affinity_pairs_reused", work.reused);
        self.telemetry.pairs_computed.add(work.computed);
        self.telemetry.pairs_reused.add(work.reused);
        let team = self
            .controller
            .suggest_team(&candidates, &affinity, &constraints);
        match team {
            Some(team) => {
                // Recruitment windows are measured on the project's own
                // clock domain: an owned project's deadline starts from its
                // domain's high-water mark, not the global max over every
                // interleaved scenario's clock.
                let base = if owner == 0 {
                    self.now
                } else {
                    self.owner_clocks
                        .get(&owner)
                        .copied()
                        .unwrap_or(SimTime::ZERO)
                };
                let deadline = base + SimDuration::secs(factors.recruitment_secs);
                self.pool.set_state(
                    task,
                    TaskState::Suggested {
                        team: team.members.clone(),
                        deadline,
                        undertaken: Vec::new(),
                    },
                )?;
                self.counters.incr("teams_suggested");
                self.bump_project_counter(project, "teams_suggested");
                self.project_mut(project)?.suggestion = None;
                Ok(team)
            }
            None => {
                self.counters.incr("assignment_infeasible");
                self.project_mut(project)?.suggestion = Some(format!(
                    "no team of {}–{} workers with the desired human factors is available \
                     for task {task}; consider relaxing the constraints",
                    factors.min_team, factors.max_team
                ));
                Err(PlatformError::NoFeasibleTeam { task })
            }
        }
    }

    /// A suggested worker confirms they start the task. When the whole team
    /// has confirmed, the task moves to `InProgress` and a collaboration
    /// monitor starts tracking the team.
    pub fn undertake(&mut self, worker: WorkerId, task: TaskId) -> Result<(), PlatformError> {
        // Validate state and membership BEFORE touching the relation store:
        // a failed call must leave no trace, or replaying the journal (which
        // only holds successful events) would diverge from the live state.
        let t = self.pool.get(task)?;
        let TaskState::Suggested {
            team,
            deadline,
            undertaken,
        } = t.state.clone()
        else {
            return Err(PlatformError::BadTaskState {
                task,
                state: t.state.label().into(),
            });
        };
        if !team.contains(&worker) {
            return Err(PlatformError::NotSuggested { worker, task });
        }
        // Eligibility precondition enforced by the relation store.
        self.relations.undertake(worker, task)?;
        let mut undertaken = undertaken;
        if !undertaken.contains(&worker) {
            undertaken.push(worker);
        }
        self.record(&PlatformEvent::Undertaken { worker, task });
        if undertaken.len() == team.len() {
            self.pool
                .set_state(task, TaskState::InProgress { team: team.clone() })?;
            self.counters.incr("teams_started");
            // Undertaking counts as the team's first activity.
            self.monitors
                .insert(task, CollabMonitor::new(&team, self.now, self.stall_after));
        } else {
            self.pool.set_state(
                task,
                TaskState::Suggested {
                    team,
                    deadline,
                    undertaken,
                },
            )?;
        }
        Ok(())
    }

    /// Deadline sweep: re-execute assignment for suggested tasks whose
    /// deadline passed without the full team undertaking. Non-committers
    /// lose their interest; after `max_reassignments` misses the task is
    /// abandoned.
    pub fn process_deadlines(&mut self) -> Result<(), PlatformError> {
        // Deadline processing is a consequence of time passing, so it is
        // journaled as a clock event at the current instant.
        self.record(&PlatformEvent::ClockAdvanced {
            to: self.now,
            owner: 0,
        });
        self.process_deadlines_inner(0)
    }

    /// Sweep the deadlines of one clock domain: the global clock (owner 0)
    /// expires globally-owned projects' deadlines up to `now`; an owned
    /// clock expires only its own projects' deadlines, and only up to its
    /// own high-water mark — another domain's later clock never reaches in.
    fn process_deadlines_inner(&mut self, owner: u64) -> Result<(), PlatformError> {
        let horizon = if owner == 0 {
            self.now
        } else {
            self.owner_clocks
                .get(&owner)
                .copied()
                .unwrap_or(SimTime::ZERO)
        };
        // Range-scan the deadline index instead of sweeping the whole pool.
        let expired: Vec<TaskId> = self
            .pool
            .expired_suggested(horizon)
            .into_iter()
            .filter(|id| match self.pool.get(*id) {
                Ok(t) => {
                    let same_domain = self
                        .projects
                        .get(&t.project)
                        .is_some_and(|p| p.owner == owner);
                    same_domain
                        && match &t.state {
                            TaskState::Suggested {
                                team, undertaken, ..
                            } => undertaken.len() < team.len(),
                            _ => false,
                        }
                }
                _ => false,
            })
            .collect();
        for task in expired {
            let (team, undertaken) = match &self.pool.get(task)?.state {
                TaskState::Suggested {
                    team, undertaken, ..
                } => (team.clone(), undertaken.clone()),
                _ => continue,
            };
            for w in non_committers(&team, &undertaken) {
                self.relations.withdraw_interest(w, task)?;
            }
            self.counters.incr("deadlines_missed");
            self.bump_project_counter(task.project(), "deadlines_missed");
            if self.pool.bump_reassignments(task)? > self.max_reassignments {
                self.pool.set_state(
                    task,
                    TaskState::Abandoned {
                        reason: "no team undertook before the deadline".into(),
                    },
                )?;
                self.relations.clear_task(task)?;
                self.counters.incr("tasks_abandoned");
                self.bump_project_counter(task.project(), "tasks_abandoned");
                continue;
            }
            self.pool.set_state(task, TaskState::Open)?;
            // Re-execute assignment immediately; infeasibility leaves the
            // task open with a suggestion recorded for the requester.
            let _ = self.run_assignment_inner(task);
        }
        Ok(())
    }

    // ---- completion ----

    /// A worker answers a micro-task directly (micro-tasks are performed by
    /// one worker; no team formation). The answer lands in the project's
    /// fact base without re-running rules; the project is marked dirty and
    /// is synchronised by the next [`Crowd4U::sync_tasks`] or batch drain.
    pub fn submit_micro_answer(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        outputs: Vec<Value>,
    ) -> Result<(), PlatformError> {
        if !self.relations.is_eligible(worker, task) {
            return Err(PlatformError::NotEligible { worker, task });
        }
        let t = self.pool.get(task)?;
        let TaskBody::Micro {
            predicate, inputs, ..
        } = &t.body
        else {
            return Err(PlatformError::BadTaskState {
                task,
                state: "not a micro task".into(),
            });
        };
        if !matches!(t.state, TaskState::Open) {
            return Err(PlatformError::BadTaskState {
                task,
                state: t.state.label().into(),
            });
        }
        let project = t.project;
        let (predicate, inputs) = (predicate.clone(), inputs.clone());
        self.projects
            .get_mut(&project)
            .ok_or(PlatformError::UnknownProject(project))?
            .engine
            .answer(&predicate, inputs, outputs.clone(), Some(worker.0))?;
        self.pool
            .set_state(task, TaskState::Completed { team: vec![worker] })?;
        self.relations.clear_task(task)?;
        self.counters.incr("micro_tasks_completed");
        self.bump_project_counter(project, "answers");
        self.touch_project(project);
        self.record(&PlatformEvent::AnswerSubmitted {
            worker,
            task,
            outputs,
        });
        Ok(())
    }

    /// Record completion of a collaborative task with an observed quality;
    /// the outcome feeds the skill estimator and closes the monitor.
    pub fn complete_collab_task(
        &mut self,
        task: TaskId,
        quality: f64,
    ) -> Result<(), PlatformError> {
        let t = self.pool.get(task)?;
        let TaskState::InProgress { team } = &t.state else {
            return Err(PlatformError::BadTaskState {
                task,
                state: t.state.label().into(),
            });
        };
        let members = team.clone();
        self.pool.set_state(
            task,
            TaskState::Completed {
                team: members.clone(),
            },
        )?;
        self.workers.record_outcome(members.clone(), quality);
        self.relations.clear_task(task)?;
        self.counters.incr("collab_tasks_completed");
        self.bump_project_counter(task.project(), "collab_completed");
        // Per-(project, worker) split of the affinity feed: on a shared
        // crowd the same worker collaborates in several scenarios, and the
        // platform-wide history length must decompose exactly into these
        // cells (see `worker_collabs_in`).
        for w in &members {
            self.bump_scoped(format_args!("p{}.w{}.collabs", task.project().0, w.0));
        }
        if let Some(m) = self.monitors.get_mut(&task) {
            m.apply(MonitorEvent::Completed);
        }
        self.record(&PlatformEvent::TaskCompleted { task, quality });
        Ok(())
    }

    // ---- collaboration monitoring ----

    /// A team member showed activity on an in-progress collaborative task
    /// ("Crowd4U monitors their collaboration for ensuring successful task
    /// completion", §2.2.1).
    pub fn record_activity(&mut self, worker: WorkerId, task: TaskId) -> Result<(), PlatformError> {
        let now = self.now;
        let Some(m) = self.monitors.get_mut(&task) else {
            return Err(PlatformError::BadTaskState {
                task,
                state: "not monitored (team never started)".into(),
            });
        };
        m.apply(MonitorEvent::Activity(worker, now));
        self.record(&PlatformEvent::ActivityRecorded { worker, task });
        Ok(())
    }

    /// The monitor of a task whose team started, if any.
    pub fn monitor(&self, task: TaskId) -> Option<&CollabMonitor> {
        self.monitors.get(&task)
    }

    /// Health verdicts of every monitored collaboration at the current
    /// platform time, in task order.
    pub fn collaboration_health(&self) -> Vec<(TaskId, Verdict)> {
        self.monitors
            .iter()
            .map(|(&t, m)| (t, m.check(self.now)))
            .collect()
    }

    // ---- batched ingestion & replay ----

    /// Apply one typed event through the corresponding platform call.
    pub fn apply_event(&mut self, event: PlatformEvent) -> Result<(), PlatformError> {
        let result = self.apply_event_inner(event);
        match &result {
            Ok(()) => self.telemetry.events_applied.incr(),
            Err(_) => self.telemetry.events_dropped.incr(),
        }
        result
    }

    fn apply_event_inner(&mut self, event: PlatformEvent) -> Result<(), PlatformError> {
        match event {
            PlatformEvent::WorkerRegistered { profile } => {
                self.register_worker(profile);
                Ok(())
            }
            PlatformEvent::ProjectRegistered {
                name,
                source,
                factors,
                scheme,
                owner,
            } => self
                .register_project_owned(name, &source, factors, scheme, owner)
                .map(|_| ()),
            PlatformEvent::FactSeeded {
                project,
                pred,
                values,
            } => self.seed_fact(project, &pred, values).map(|_| ()),
            PlatformEvent::TasksSynced { project } => self.sync_tasks(project).map(|_| ()),
            PlatformEvent::CollabTaskCreated {
                project,
                description,
            } => self.create_collab_task(project, description).map(|_| ()),
            PlatformEvent::InterestExpressed { worker, task } => {
                self.express_interest(worker, task)
            }
            PlatformEvent::AssignmentRun { task } => match self.run_assignment(task) {
                Ok(_) => Ok(()),
                // Infeasibility is a journaled outcome, not a failure.
                Err(PlatformError::NoFeasibleTeam { .. }) => Ok(()),
                Err(e) => Err(e),
            },
            PlatformEvent::Undertaken { worker, task } => self.undertake(worker, task),
            PlatformEvent::ClockAdvanced { to, owner } => self.advance_owned(to, owner),
            PlatformEvent::AnswerSubmitted {
                worker,
                task,
                outputs,
            } => self.submit_micro_answer(worker, task, outputs),
            PlatformEvent::TaskCompleted { task, quality } => {
                self.complete_collab_task(task, quality)
            }
            PlatformEvent::ActivityRecorded { worker, task } => self.record_activity(worker, task),
        }
    }

    /// Ingest a batch of events, then drain: answers and seeded facts mark
    /// their project dirty, and every dirty project is synchronised exactly
    /// once at the end — N answers cost one fixpoint run instead of N.
    /// Events are applied in order with per-event error tolerance; failures
    /// are reported, not journaled.
    pub fn apply_batch(
        &mut self,
        events: impl IntoIterator<Item = PlatformEvent>,
    ) -> Result<BatchReport, PlatformError> {
        let mut report = BatchReport::default();
        for (i, event) in events.into_iter().enumerate() {
            match self.apply_event(event) {
                Ok(()) => report.applied += 1,
                Err(e) => report.errors.push((i, e)),
            }
        }
        report.synced = self.drain_events()?;
        self.counters.incr("batches_applied");
        Ok(report)
    }

    /// Synchronise every dirty project (run its rules once, register new
    /// micro-tasks, refresh eligibility) and clear the dirty set. Returns
    /// the projects synchronised, in id order.
    pub fn drain_events(&mut self) -> Result<Vec<ProjectId>, PlatformError> {
        // Sync from a snapshot of the dirty set; each project is removed
        // from it only when its sync succeeds, so a mid-drain error keeps
        // the failed and remaining projects dirty for a retry. The `drain`
        // entry is journaled after the syncs so the journal never records a
        // drain that did not happen.
        let dirty: Vec<ProjectId> = self.dirty.iter().copied().collect();
        for p in &dirty {
            self.sync_tasks_inner(*p)?;
        }
        let _span = self.telemetry.append_span();
        self.journal
            .append(DRAIN_KIND, vec![])
            .expect("static kind");
        self.counters.incr("events_journaled");
        Ok(dirty)
    }

    /// Projects whose fact base changed since their last sync, in id order.
    /// A sharded runtime drains these per shard; a single platform drains
    /// them through [`Crowd4U::drain_events`].
    pub fn dirty_projects(&self) -> Vec<ProjectId> {
        self.dirty.iter().copied().collect()
    }

    /// Canonical, deterministic dump of the whole platform state: clock,
    /// relations, every project engine (facts, pending questions, points),
    /// every task, every monitor. Two platforms that went through equivalent
    /// histories produce byte-identical dumps — this is the comparison
    /// backbone of the replay and sharded-equivalence tests. Volatile
    /// bookkeeping (counters, caches) is deliberately excluded.
    pub fn state_dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("crowd4u-state v1\n");
        let _ = writeln!(out, "clock {}", self.now.ticks());
        // Owned clock domains (empty — and absent — outside shared-crowd
        // merges, keeping single-domain dumps byte-stable).
        for (owner, t) in &self.owner_clocks {
            let _ = writeln!(out, "clock@{owner} {}", t.ticks());
        }
        let _ = writeln!(
            out,
            "workers {} version {}",
            self.workers.len(),
            self.workers.version()
        );
        out.push_str("## relations\n");
        out.push_str(&crowd4u_storage::snapshot::dump(self.relations.database()));
        for (id, p) in &self.projects {
            let _ = write!(out, "## project {id} {} epoch {}", p.name, p.epoch);
            if p.owner != 0 {
                let _ = write!(out, " owner {}", p.owner);
            }
            out.push('\n');
            if let Some(s) = &p.suggestion {
                let _ = writeln!(out, "suggestion {s}");
            }
            out.push_str(&crowd4u_storage::snapshot::dump(p.engine.database()));
            for r in p.engine.pending_requests() {
                let inputs: Vec<String> = r.inputs.iter().map(|v| v.to_string()).collect();
                let _ = writeln!(
                    out,
                    "pending {} points {} ({})",
                    r.pred_name,
                    r.points,
                    inputs.join(", ")
                );
            }
            for (w, pts) in p.engine.leaderboard() {
                let _ = writeln!(out, "points w{w} {pts}");
            }
        }
        out.push_str("## tasks\n");
        for t in self.pool.iter() {
            let _ = writeln!(
                out,
                "{t} created {} reassign {} {:?}",
                t.created_at.ticks(),
                t.reassignments,
                t.state
            );
        }
        out.push_str("## monitors\n");
        for (t, m) in &self.monitors {
            let _ = writeln!(
                out,
                "monitor {t} members {:?} verdict {:?}",
                m.members(),
                m.check(self.now)
            );
        }
        out
    }

    /// Replay a journal into a fresh, default-configured platform.
    pub fn replay(journal: &EventJournal) -> Result<Crowd4U, PlatformError> {
        Self::replay_with(journal, Crowd4U::new())
    }

    /// Replay a journal into `base` — a freshly configured platform (set
    /// the controller algorithm, `max_reassignments` etc. first; those are
    /// configuration, not events). Replay applies every entry through the
    /// same public entry points that produced it, so the reconstructed
    /// platform's relations, points ledgers, pending queues — and its
    /// journal — are identical to the live one's.
    pub fn replay_with(
        journal: &EventJournal,
        mut base: Crowd4U,
    ) -> Result<Crowd4U, PlatformError> {
        if !base.journal.is_empty() {
            return Err(PlatformError::BadEvent(
                "replay base must not have journaled events of its own".into(),
            ));
        }
        for entry in journal.iter() {
            if entry.kind == DRAIN_KIND {
                base.drain_events()?;
                continue;
            }
            base.apply_event(PlatformEvent::decode(entry)?)?;
        }
        Ok(base)
    }

    // ---- project migration (the runtime's rebalancing entry point) ----

    /// Detach a project's complete owned state — the [`Project`] itself,
    /// its tasks and local task-id counter, its relation rows, its
    /// collaboration monitors and its dirty bit — so another platform
    /// instance can [`adopt`](Crowd4U::adopt_project) it. Nothing is
    /// journaled on either side: a migration is invisible in the event
    /// history, which is what keeps merged journals byte-identical across
    /// a mid-run rebalance.
    pub fn extract_project(&mut self, id: ProjectId) -> Result<ProjectSlice, PlatformError> {
        let project = self
            .projects
            .remove(&id)
            .ok_or(PlatformError::UnknownProject(id))?;
        let (tasks, next_local) = self.pool.extract_project(id);
        let mut rows = Vec::with_capacity(tasks.len());
        for t in &tasks {
            let eligible = self.relations.eligible_workers(t.id);
            let interested = self.relations.interested_workers(t.id);
            let undertaking = self.relations.undertaking_workers(t.id);
            if !(eligible.is_empty() && interested.is_empty() && undertaking.is_empty()) {
                self.relations.clear_task(t.id)?;
                rows.push((t.id, eligible, interested, undertaking));
            }
        }
        let monitor_ids: Vec<TaskId> = self
            .monitors
            .keys()
            .filter(|t| t.project() == id)
            .copied()
            .collect();
        let monitors = monitor_ids
            .into_iter()
            .map(|t| {
                (
                    t,
                    self.monitors.remove(&t).expect("key from the scan above"),
                )
            })
            .collect();
        let dirty = self.dirty.remove(&id);
        Ok(ProjectSlice {
            project,
            tasks,
            next_local,
            rows,
            monitors,
            dirty,
        })
    }

    /// Install a project slice extracted from another platform instance,
    /// replacing this instance's empty shell of the same project (every
    /// shard registers every project; only the owner holds tasks). Rows
    /// are re-inserted eligible-first so the relation store's eligibility
    /// precondition holds throughout.
    pub fn adopt_project(&mut self, slice: ProjectSlice) {
        let ProjectSlice {
            project,
            tasks,
            next_local,
            rows,
            monitors,
            dirty,
        } = slice;
        let id = project.id;
        self.projects.insert(id, project);
        self.pool.adopt_project(id, tasks, next_local);
        for (task, eligible, interested, undertaking) in rows {
            for w in eligible {
                self.relations
                    .mark_eligible(w, task)
                    .expect("adopted eligibility row re-inserts");
            }
            for w in interested {
                self.relations
                    .express_interest(w, task)
                    .expect("adopted interest row re-inserts");
            }
            for w in undertaking {
                self.relations
                    .undertake(w, task)
                    .expect("adopted undertaking row re-inserts");
            }
        }
        self.monitors.extend(monitors);
        if dirty {
            self.dirty.insert(id);
        }
    }

    // ---- user-facing queries ----

    /// Worker's accumulated points across all projects (game aspect).
    pub fn points_of(&self, worker: WorkerId) -> i64 {
        self.projects
            .values()
            .map(|p| p.engine.points_of(worker.0))
            .sum()
    }

    /// Worker's points earned in **one** project — the per-scenario split
    /// of [`Crowd4U::points_of`] when several scenarios share one crowd.
    /// Projects partition the points ledgers, so summing this over every
    /// project reproduces `points_of` exactly (the split-accounting
    /// invariant of ARCHITECTURE.md §11).
    pub fn project_points_of(&self, project: ProjectId, worker: WorkerId) -> i64 {
        self.projects
            .get(&project)
            .map(|p| p.engine.points_of(worker.0))
            .unwrap_or(0)
    }

    /// How many collaborative completions of `project` the worker was a
    /// team member of — the per-scenario split of the worker's affinity
    /// contributions (every completion pushes exactly one team observation
    /// into the shared skill/affinity history). Summing over all projects
    /// and team members reproduces the platform history length.
    pub fn worker_collabs_in(&self, project: ProjectId, worker: WorkerId) -> u64 {
        self.counters
            .get(&format!("p{}.w{}.collabs", project.0, worker.0))
    }

    /// Active assignment load per worker: how many suggested or in-progress
    /// teams the worker is currently on, across **all** projects of this
    /// platform. This is what a cross-scenario assignment policy weighs
    /// before proposing a team from a shared crowd (see
    /// `crowd4u_assign::load`). Workers with zero load are absent.
    pub fn assignment_loads(&self) -> BTreeMap<WorkerId, u64> {
        let mut loads = BTreeMap::new();
        for t in self.pool.iter() {
            let members = match &t.state {
                TaskState::Suggested { team, .. } | TaskState::InProgress { team } => team,
                _ => continue,
            };
            for w in members {
                *loads.entry(*w).or_insert(0) += 1;
            }
        }
        loads
    }

    /// Tasks (ids) a worker may currently see on their user page. Served
    /// from the worker's eligibility relation intersected with the pool's
    /// by-state index (open ∪ suggested) — no full-pool scan.
    pub fn visible_tasks(&self, worker: WorkerId) -> Vec<&Task> {
        self.relations
            .eligible_tasks(worker)
            .into_iter()
            .filter(|t| self.pool.is_active(*t))
            .filter_map(|t| self.pool.get(t).ok())
            .collect()
    }
}

/// `(task, eligible, interested, undertaking)` worker membership carried
/// per task inside a [`ProjectSlice`].
type TaskWorkerRows = (TaskId, Vec<WorkerId>, Vec<WorkerId>, Vec<WorkerId>);

/// A project's complete owned state, detached from one platform instance
/// by [`Crowd4U::extract_project`] so another instance can
/// [`Crowd4U::adopt_project`] it. This is the payload of the sharded
/// runtime's hot-project migration: the project struct (engine,
/// leaderboard, eligibility cache), its tasks with their local-id
/// counter, its relation rows, its collaboration monitors, and whether it
/// was dirty. The journal is deliberately absent — slices move state, not
/// history.
pub struct ProjectSlice {
    project: Project,
    tasks: Vec<Task>,
    next_local: u64,
    /// `(task, eligible, interested, undertaking)` worker rows, one tuple
    /// per task that had any.
    rows: Vec<TaskWorkerRows>,
    monitors: Vec<(TaskId, CollabMonitor)>,
    dirty: bool,
}

impl ProjectSlice {
    /// Which project this slice carries.
    pub fn project_id(&self) -> ProjectId {
        self.project.id
    }

    /// Number of tasks travelling with the project.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }
}

#[cfg(test)]
mod eligibility_diff;

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::profile::WorkerProfile;

    const SRC: &str = "\
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";

    fn factors() -> DesiredFactors {
        DesiredFactors {
            min_team: 2,
            max_team: 3,
            recruitment_secs: 600,
            ..Default::default()
        }
    }

    fn platform_with_workers(n: u64) -> Crowd4U {
        let mut p = Crowd4U::new();
        for i in 1..=n {
            p.register_worker(
                WorkerProfile::new(WorkerId(i), format!("w{i}")).with_native_lang("en"),
            );
        }
        p
    }

    #[test]
    fn micro_task_generation_and_answer() {
        let mut p = platform_with_workers(2);
        let proj = p
            .register_project("demo", SRC, factors(), Scheme::Sequential)
            .unwrap();
        p.seed_fact(proj, "sentence", vec!["hello".into()]).unwrap();
        let n = p.sync_tasks(proj).unwrap();
        assert_eq!(n, 1);
        // same demand is not re-registered
        assert_eq!(p.sync_tasks(proj).unwrap(), 0);
        let task = p.pool.open_tasks(Some(proj))[0].id;
        // both workers are eligible (no constraints beyond login)
        assert!(p.relations.is_eligible(WorkerId(1), task));
        p.submit_micro_answer(WorkerId(1), task, vec!["bonjour".into()])
            .unwrap();
        p.sync_tasks(proj).unwrap();
        assert_eq!(
            p.project(proj)
                .unwrap()
                .engine
                .fact_count("published")
                .unwrap(),
            1
        );
        assert_eq!(p.points_of(WorkerId(1)), 2);
        // answered task is completed; answering again fails
        assert!(p
            .submit_micro_answer(WorkerId(2), task, vec!["salut".into()])
            .is_err());
    }

    #[test]
    fn five_step_workflow() {
        let mut p = platform_with_workers(4);
        let proj = p
            .register_project("collab", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let task = p.create_collab_task(proj, "subtitle a video").unwrap();
        // step 3: interest
        for i in 1..=3 {
            p.express_interest(WorkerId(i), task).unwrap();
        }
        // step 5: suggestion
        let team = p.run_assignment(task).unwrap();
        assert!(team.size() >= 2 && team.size() <= 3);
        // undertaking moves to in-progress when everyone confirms
        for &m in &team.members {
            p.undertake(m, task).unwrap();
        }
        assert_eq!(p.pool.get(task).unwrap().state.label(), "in-progress");
        p.complete_collab_task(task, 0.8).unwrap();
        assert_eq!(p.pool.get(task).unwrap().state.label(), "completed");
        assert_eq!(p.workers.history_len(), 1);
        assert_eq!(p.counters.get("teams_suggested"), 1);
        assert_eq!(p.counters.get("teams_started"), 1);
    }

    #[test]
    fn assignment_computes_each_pair_once() {
        // The work follows the candidates, not the crowd: the same three
        // pairs at 4 registered workers and at 2 000.
        for population in [4u64, 2_000] {
            let mut p = platform_with_workers(population);
            let proj = p
                .register_project("collab", SRC, factors(), Scheme::Sequential)
                .unwrap();
            for round in 0..2 {
                let task = p
                    .create_collab_task(proj, format!("video {round}"))
                    .unwrap();
                for i in 1..=3 {
                    p.express_interest(WorkerId(i), task).unwrap();
                }
                p.run_assignment(task).unwrap();
            }
            // Three candidates, three pairs: computed by the first run,
            // read from the memo by the second.
            assert_eq!(p.counters.get("affinity_pairs_computed"), 3);
            assert_eq!(p.counters.get("affinity_pairs_reused"), 3);
        }
    }

    #[test]
    fn uninterested_workers_not_suggested() {
        let mut p = platform_with_workers(5);
        let proj = p
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let task = p.create_collab_task(proj, "x").unwrap();
        p.express_interest(WorkerId(1), task).unwrap();
        p.express_interest(WorkerId(2), task).unwrap();
        let team = p.run_assignment(task).unwrap();
        assert!(team.members.iter().all(|m| m.0 <= 2));
    }

    #[test]
    fn infeasible_assignment_records_suggestion() {
        let mut p = platform_with_workers(1);
        let proj = p
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let task = p.create_collab_task(proj, "x").unwrap();
        p.express_interest(WorkerId(1), task).unwrap();
        // needs 2 workers, only 1 interested
        let err = p.run_assignment(task).unwrap_err();
        assert!(matches!(err, PlatformError::NoFeasibleTeam { .. }));
        let sugg = p.project(proj).unwrap().suggestion.clone().unwrap();
        assert!(sugg.contains("relaxing"));
        // task remains open
        assert_eq!(p.pool.get(task).unwrap().state.label(), "open");
    }

    #[test]
    fn deadline_reassignment_excludes_non_committers() {
        let mut p = platform_with_workers(4);
        let mut f = factors();
        f.min_team = 2;
        f.max_team = 2;
        let proj = p.register_project("c", SRC, f, Scheme::Sequential).unwrap();
        let task = p.create_collab_task(proj, "x").unwrap();
        for i in 1..=4 {
            p.express_interest(WorkerId(i), task).unwrap();
        }
        let team1 = p.run_assignment(task).unwrap();
        // only one member undertakes
        p.undertake(team1.members[0], task).unwrap();
        // deadline passes
        p.advance_to(SimTime(601)).unwrap();
        assert_eq!(p.counters.get("deadlines_missed"), 1);
        let t = p.pool.get(task).unwrap();
        assert_eq!(t.reassignments, 1);
        // a new team was suggested, excluding the non-committer
        match &t.state {
            TaskState::Suggested { team, .. } => {
                assert!(!team.contains(&team1.members[1]));
            }
            other => panic!("unexpected state {other:?}"),
        }
    }

    #[test]
    fn repeated_misses_abandon_task() {
        let mut p = platform_with_workers(2);
        let mut f = factors();
        f.min_team = 2;
        f.max_team = 2;
        let proj = p.register_project("c", SRC, f, Scheme::Sequential).unwrap();
        p.max_reassignments = 1;
        let task = p.create_collab_task(proj, "x").unwrap();
        p.express_interest(WorkerId(1), task).unwrap();
        p.express_interest(WorkerId(2), task).unwrap();
        p.run_assignment(task).unwrap();
        // nobody undertakes; first deadline → interest withdrawn → infeasible
        p.advance_to(SimTime(601)).unwrap();
        let t = p.pool.get(task).unwrap();
        // After the miss, non-committers lost interest so reassignment is
        // infeasible; the task stays open with a suggestion, or is abandoned
        // after exceeding the retry budget.
        assert!(t.reassignments >= 1);
        assert!(matches!(
            t.state,
            TaskState::Open | TaskState::Abandoned { .. }
        ));
    }

    #[test]
    fn undertake_validations() {
        let mut p = platform_with_workers(3);
        let proj = p
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let task = p.create_collab_task(proj, "x").unwrap();
        // undertake before suggestion: eligible but wrong state
        assert!(matches!(
            p.undertake(WorkerId(1), task),
            Err(PlatformError::BadTaskState { .. })
        ));
        p.express_interest(WorkerId(1), task).unwrap();
        p.express_interest(WorkerId(2), task).unwrap();
        let team = p.run_assignment(task).unwrap();
        // a worker outside the team cannot undertake — and the failed call
        // leaves no trace (no relation row, no journal entry), or journal
        // replay would diverge from the live state
        let outsider = (1..=3).map(WorkerId).find(|w| !team.members.contains(w));
        if let Some(w) = outsider {
            let counts_before = p.relations.counts();
            let journal_before = p.journal().len();
            assert!(matches!(
                p.undertake(w, task),
                Err(PlatformError::NotSuggested { .. })
            ));
            assert_eq!(p.relations.counts(), counts_before);
            assert_eq!(p.journal().len(), journal_before);
        }
        // double undertake is idempotent
        p.undertake(team.members[0], task).unwrap();
        p.undertake(team.members[0], task).unwrap();
    }

    #[test]
    fn visible_tasks_only_open_or_suggested() {
        let mut p = platform_with_workers(2);
        let proj = p
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        p.seed_fact(proj, "sentence", vec!["a".into()]).unwrap();
        p.sync_tasks(proj).unwrap();
        let task = p.pool.open_tasks(Some(proj))[0].id;
        assert_eq!(p.visible_tasks(WorkerId(1)).len(), 1);
        p.submit_micro_answer(WorkerId(1), task, vec!["b".into()])
            .unwrap();
        assert!(p.visible_tasks(WorkerId(1)).is_empty());
    }

    #[test]
    fn bad_cylog_project_rejected() {
        let mut p = Crowd4U::new();
        assert!(p
            .register_project("bad", "p(X) :- q(X).", factors(), Scheme::Sequential)
            .is_err());
        assert!(p.project(ProjectId(1)).is_err());
        assert!(p.seed_fact(ProjectId(1), "x", vec![]).is_err());
        assert!(p.sync_tasks(ProjectId(1)).is_err());
        // nothing was journaled for the failed calls
        assert!(p.journal().is_empty());
    }

    #[test]
    fn eligibility_respects_factors() {
        let mut p = Crowd4U::new();
        p.register_worker(WorkerProfile::new(WorkerId(1), "en-native").with_native_lang("en"));
        p.register_worker(WorkerProfile::new(WorkerId(2), "ja-only").with_native_lang("ja"));
        let f = DesiredFactors {
            required_language: Some("en".into()),
            ..factors()
        };
        let proj = p.register_project("c", SRC, f, Scheme::Sequential).unwrap();
        let task = p.create_collab_task(proj, "x").unwrap();
        assert!(p.relations.is_eligible(WorkerId(1), task));
        assert!(!p.relations.is_eligible(WorkerId(2), task));
        assert!(matches!(
            p.express_interest(WorkerId(2), task),
            Err(PlatformError::NotEligible { .. })
        ));
        // late-registering qualified worker becomes eligible
        p.register_worker(WorkerProfile::new(WorkerId(3), "late").with_native_lang("en"));
        assert!(p.relations.is_eligible(WorkerId(3), task));
    }

    // ---- event-core tests ----

    /// Build a platform that exercises every event kind, for replay tests.
    fn eventful_platform() -> (Crowd4U, ProjectId, TaskId) {
        let mut p = platform_with_workers(4);
        let proj = p
            .register_project("demo", SRC, factors(), Scheme::Sequential)
            .unwrap();
        p.seed_fact(proj, "sentence", vec!["hello".into()]).unwrap();
        p.seed_fact(proj, "sentence", vec!["bye".into()]).unwrap();
        p.sync_tasks(proj).unwrap();
        let micro = p.pool.open_tasks(Some(proj))[0].id;
        p.submit_micro_answer(WorkerId(1), micro, vec!["bonjour".into()])
            .unwrap();
        let collab = p.create_collab_task(proj, "subtitle").unwrap();
        for i in 1..=3 {
            p.express_interest(WorkerId(i), collab).unwrap();
        }
        let team = p.run_assignment(collab).unwrap();
        for &m in &team.members {
            p.undertake(m, collab).unwrap();
        }
        p.advance_to(SimTime(120)).unwrap();
        p.record_activity(team.members[0], collab).unwrap();
        p.complete_collab_task(collab, 0.9).unwrap();
        p.drain_events().unwrap();
        (p, proj, collab)
    }

    #[test]
    fn journal_replay_reconstructs_identical_state() {
        let (live, proj, _) = eventful_platform();
        // Round-trip the journal through its text form, then replay.
        let text = live.journal().dump();
        let journal = EventJournal::load(&text).unwrap();
        let replayed = Crowd4U::replay(&journal).unwrap();

        // Relations byte-identical.
        assert_eq!(
            crowd4u_storage::snapshot::dump(live.relations.database()),
            crowd4u_storage::snapshot::dump(replayed.relations.database())
        );
        // Every project engine byte-identical (facts, derived, everything).
        for id in live.project_ids() {
            assert_eq!(
                crowd4u_storage::snapshot::dump(live.project(id).unwrap().engine.database()),
                crowd4u_storage::snapshot::dump(replayed.project(id).unwrap().engine.database())
            );
            assert_eq!(
                live.project(id).unwrap().engine.pending_requests(),
                replayed.project(id).unwrap().engine.pending_requests()
            );
            assert_eq!(
                live.project(id).unwrap().engine.leaderboard(),
                replayed.project(id).unwrap().engine.leaderboard()
            );
        }
        // Task pool, clock, monitors agree.
        assert_eq!(live.pool.state_counts(), replayed.pool.state_counts());
        assert_eq!(live.now(), replayed.now());
        assert_eq!(live.collaboration_health(), replayed.collaboration_health());
        assert_eq!(live.points_of(WorkerId(1)), replayed.points_of(WorkerId(1)));
        // The replayed journal is the same journal.
        assert_eq!(replayed.journal().dump(), text);
        // Sanity: the cache saw real traffic on both sides.
        assert!(live.project(proj).unwrap().epoch() > 0);
    }

    #[test]
    fn replay_base_must_be_fresh() {
        let (live, ..) = eventful_platform();
        let dirty_base = platform_with_workers(1);
        assert!(matches!(
            Crowd4U::replay_with(live.journal(), dirty_base),
            Err(PlatformError::BadEvent(..))
        ));
    }

    #[test]
    fn apply_batch_ingests_answers_with_one_drain() {
        let mut serial = platform_with_workers(2);
        let mut batched = platform_with_workers(2);
        let setup = |p: &mut Crowd4U| -> (ProjectId, Vec<TaskId>) {
            let proj = p
                .register_project("demo", SRC, factors(), Scheme::Sequential)
                .unwrap();
            for s in ["a", "b", "c"] {
                p.seed_fact(proj, "sentence", vec![s.into()]).unwrap();
            }
            p.sync_tasks(proj).unwrap();
            let tasks = p.pool.open_tasks(Some(proj)).iter().map(|t| t.id).collect();
            (proj, tasks)
        };
        let (proj_s, tasks_s) = setup(&mut serial);
        let (proj_b, tasks_b) = setup(&mut batched);
        assert_eq!(tasks_s, tasks_b);

        // Serial path: answer + sync per answer.
        for (i, t) in tasks_s.iter().enumerate() {
            serial
                .submit_micro_answer(WorkerId(1), *t, vec![format!("t{i}").into()])
                .unwrap();
            serial.sync_tasks(proj_s).unwrap();
        }
        // Batched path: one batch, one drain.
        let events: Vec<PlatformEvent> = tasks_b
            .iter()
            .enumerate()
            .map(|(i, t)| PlatformEvent::AnswerSubmitted {
                worker: WorkerId(1),
                task: *t,
                outputs: vec![format!("t{i}").into()],
            })
            .collect();
        let report = batched.apply_batch(events).unwrap();
        assert_eq!(report.applied, 3);
        assert!(report.errors.is_empty());
        assert_eq!(report.synced, vec![proj_b]);

        // Same final knowledge, points and task states.
        assert_eq!(
            crowd4u_storage::snapshot::dump(serial.project(proj_s).unwrap().engine.database()),
            crowd4u_storage::snapshot::dump(batched.project(proj_b).unwrap().engine.database())
        );
        assert_eq!(
            serial.points_of(WorkerId(1)),
            batched.points_of(WorkerId(1))
        );
        assert_eq!(serial.pool.state_counts(), batched.pool.state_counts());
    }

    #[test]
    fn apply_batch_tolerates_bad_events() {
        let mut p = platform_with_workers(2);
        let proj = p
            .register_project("demo", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let before = p.journal().len();
        let report = p
            .apply_batch(vec![
                PlatformEvent::FactSeeded {
                    project: proj,
                    pred: "sentence".into(),
                    values: vec!["ok".into()],
                },
                PlatformEvent::FactSeeded {
                    project: ProjectId(99),
                    pred: "sentence".into(),
                    values: vec!["bad".into()],
                },
                PlatformEvent::InterestExpressed {
                    worker: WorkerId(1),
                    task: TaskId(42), // unknown task
                },
            ])
            .unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.errors[0].0, 1);
        // The drain synced the dirty project: the seeded fact became a task.
        assert_eq!(report.synced, vec![proj]);
        assert_eq!(p.pool.open_tasks(Some(proj)).len(), 1);
        // Journal holds only the applied event + the drain marker.
        assert_eq!(p.journal().len(), before + 2);
    }

    #[test]
    fn eligibility_cache_hits_until_invalidated() {
        let mut p = platform_with_workers(3);
        let proj = p
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        p.eligible_set(proj).unwrap();
        let misses_after_first = p.counters.get("eligibility_cache_misses");
        for _ in 0..5 {
            assert_eq!(p.eligible_set(proj).unwrap().len(), 3);
        }
        assert_eq!(
            p.counters.get("eligibility_cache_misses"),
            misses_after_first
        );
        assert!(p.counters.get("eligibility_cache_hits") >= 5);

        // A new worker patches the cached set instead of dropping it: the
        // set grows, and the read after it is still a hit.
        p.register_worker(WorkerProfile::new(WorkerId(9), "late"));
        assert_eq!(p.eligible_set(proj).unwrap().len(), 4);
        assert_eq!(
            p.counters.get("eligibility_cache_misses"),
            misses_after_first
        );
        assert_eq!(p.counters.get("eligibility_cache_patches"), 1);

        // A profile edit behind the platform's back moves the version
        // without a patch: exactly one miss, then hits again.
        p.workers.get_mut(WorkerId(9)).unwrap().factors.logged_in = false;
        assert_eq!(p.eligible_set(proj).unwrap().len(), 3);
        assert_eq!(p.eligible_set(proj).unwrap().len(), 3);
        assert_eq!(
            p.counters.get("eligibility_cache_misses"),
            misses_after_first + 1
        );

        // The factor screen is a pure function of profiles × factors, so
        // new facts do NOT invalidate it (the set is served from cache).
        let misses = p.counters.get("eligibility_cache_misses");
        p.seed_fact(proj, "sentence", vec!["x".into()]).unwrap();
        p.eligible_set(proj).unwrap();
        assert_eq!(p.counters.get("eligibility_cache_misses"), misses);

        // A declaratively screened project (CyLog-derived `eligible`)
        // still invalidates on fact changes — its rules may read them.
        const DECL: &str = "\
rel worker(w: id).
rel flag(w: id).
rel eligible(w: id).
eligible(W) :- flag(W).
rel sentence(s: str).
open translate(s: str) -> (t: str).
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";
        let decl = p
            .register_project("decl", DECL, factors(), Scheme::Sequential)
            .unwrap();
        assert!(p.eligible_set(decl).unwrap().is_empty());
        let misses = p.counters.get("eligibility_cache_misses");
        p.seed_fact(decl, "flag", vec![Value::Id(1)]).unwrap();
        assert_eq!(p.eligible_set(decl).unwrap(), vec![WorkerId(1)]);
        assert_eq!(p.counters.get("eligibility_cache_misses"), misses + 1);
    }

    #[test]
    fn a_registration_counts_one_patch_however_many_projects() {
        // The second population makes "registration is O(1) amortised" an
        // exact count: at 2 000 workers, 100 registrations are still 100
        // patches and not one re-screen of the crowd.
        for population in [2u64, 2_000] {
            let registry = crowd4u_telemetry::Registry::new();
            let mut p = platform_with_workers(population);
            p.set_telemetry(&registry.handle());
            let patches = |p: &Crowd4U| {
                let total = registry
                    .snapshot()
                    .counter_total("crowd4u_core_eligibility_cache_patches_total");
                assert_eq!(total, p.counters.get("eligibility_cache_patches"));
                total
            };
            let a = p
                .register_project("a", SRC, factors(), Scheme::Sequential)
                .unwrap();
            let b = p
                .register_project("b", SRC, factors(), Scheme::Sequential)
                .unwrap();
            let (early, mid) = (WorkerId(population + 5), WorkerId(population + 3));
            // No project has read its eligible set yet: nothing to patch.
            p.register_worker(WorkerProfile::new(early, "early"));
            assert_eq!(patches(&p), 0);
            // Two live caches, one registration: one patch event, both sets.
            p.eligible_set(a).unwrap();
            p.eligible_set(b).unwrap();
            p.register_worker(WorkerProfile::new(mid, "mid"));
            assert_eq!(patches(&p), 1);
            let want: Vec<WorkerId> = (1..=population).map(WorkerId).chain([mid, early]).collect();
            assert_eq!(p.eligible_set(a).unwrap(), want);
            assert_eq!(p.eligible_set(b).unwrap(), want);
            // Re-registering as ineligible patches the worker back out.
            let mut gone = WorkerProfile::new(mid, "mid");
            gone.factors.logged_in = false;
            p.register_worker(gone);
            assert_eq!(patches(&p), 2);
            let live = population as usize + 1;
            assert_eq!(p.eligible_set(a).unwrap().len(), live);
            // A hundred more: one patch each, and every read stays a hit.
            let misses = p.counters.get("eligibility_cache_misses");
            for k in 1..=100 {
                p.register_worker(WorkerProfile::new(WorkerId(population + 10 + k), "late"));
            }
            assert_eq!(patches(&p), 102);
            assert_eq!(p.eligible_set(a).unwrap().len(), live + 100);
            assert_eq!(p.eligible_set(b).unwrap().len(), live + 100);
            assert_eq!(p.counters.get("eligibility_cache_misses"), misses);
        }
    }

    /// Compile-time shardability audit: every type a shard thread owns (or
    /// a coordinator hands across threads) must be `Send`, and the shared
    /// read-only views must be `Sync`. If a future change stores an `Rc`,
    /// `RefCell` or non-`Send` trait object inside any of these, this test
    /// stops compiling — the sharded runtime depends on it.
    #[test]
    fn platform_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Crowd4U>();
        assert_sync::<Crowd4U>();
        assert_send::<TaskPool>();
        assert_sync::<TaskPool>();
        assert_send::<WorkerManager>();
        assert_sync::<WorkerManager>();
        assert_send::<RelationStore>();
        assert_sync::<RelationStore>();
        assert_send::<AssignmentController>();
        assert_sync::<AssignmentController>();
        assert_send::<PlatformEvent>();
        assert_send::<EventJournal>();
        assert_sync::<EventJournal>();
    }

    #[test]
    fn state_dump_is_deterministic_and_complete() {
        let (live, proj, collab) = eventful_platform();
        let dump = live.state_dump();
        // Two dumps of the same platform are identical.
        assert_eq!(dump, live.state_dump());
        // A replayed platform dumps byte-identically.
        let replayed = Crowd4U::replay(live.journal()).unwrap();
        assert_eq!(replayed.state_dump(), dump);
        // The dump mentions the structural pieces.
        assert!(dump.contains(&format!("## project {proj}")));
        assert!(dump.contains("## relations"));
        assert!(dump.contains("## tasks"));
        assert!(dump.contains(&format!("monitor {collab}")));
        assert!(dump.contains("points w1"));
        // Divergent histories dump differently.
        let other = platform_with_workers(1);
        assert_ne!(other.state_dump(), dump);
    }

    #[test]
    fn project_counters_attribute_per_project() {
        let mut p = platform_with_workers(3);
        let a = p
            .register_project("a", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let b = p
            .register_project("b", SRC, factors(), Scheme::Sequential)
            .unwrap();
        // One answer in project a only.
        p.seed_fact(a, "sentence", vec!["x".into()]).unwrap();
        p.sync_tasks(a).unwrap();
        let task = p.pool.open_tasks(Some(a))[0].id;
        p.submit_micro_answer(WorkerId(1), task, vec!["y".into()])
            .unwrap();
        assert_eq!(p.project_counter(a, "answers"), 1);
        assert_eq!(p.project_counter(b, "answers"), 0);
        // A team + completion in project b only.
        let collab = p.create_collab_task(b, "x").unwrap();
        p.express_interest(WorkerId(1), collab).unwrap();
        p.express_interest(WorkerId(2), collab).unwrap();
        let team = p.run_assignment(collab).unwrap();
        assert_eq!(p.project_counter(b, "teams_suggested"), 1);
        assert_eq!(p.project_counter(a, "teams_suggested"), 0);
        for &m in &team.members {
            p.undertake(m, collab).unwrap();
        }
        p.complete_collab_task(collab, 0.9).unwrap();
        assert_eq!(p.project_counter(b, "collab_completed"), 1);
        assert_eq!(p.project_counter(a, "collab_completed"), 0);
        // Scoped counters stay out of the canonical state dump.
        assert!(!p.state_dump().contains("teams_suggested"));
    }

    #[test]
    fn dirty_projects_tracks_unsynced_changes() {
        let mut p = platform_with_workers(1);
        let proj = p
            .register_project("demo", SRC, factors(), Scheme::Sequential)
            .unwrap();
        assert!(p.dirty_projects().is_empty());
        p.seed_fact(proj, "sentence", vec!["a".into()]).unwrap();
        assert_eq!(p.dirty_projects(), vec![proj]);
        p.sync_tasks(proj).unwrap();
        assert!(p.dirty_projects().is_empty());
    }

    #[test]
    fn monitors_track_started_teams() {
        let mut p = platform_with_workers(3);
        let proj = p
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let task = p.create_collab_task(proj, "x").unwrap();
        assert!(p.monitor(task).is_none());
        assert!(p.record_activity(WorkerId(1), task).is_err());
        p.express_interest(WorkerId(1), task).unwrap();
        p.express_interest(WorkerId(2), task).unwrap();
        let team = p.run_assignment(task).unwrap();
        for &m in &team.members {
            p.undertake(m, task).unwrap();
        }
        // the monitor started with the team
        assert_eq!(p.monitor(task).unwrap().members(), {
            let mut m = team.members.clone();
            m.sort();
            m
        });
        assert_eq!(p.collaboration_health(), vec![(task, Verdict::Healthy)]);
        // one member acts much later; the other goes stale
        p.advance_to(p.now() + p.stall_after).unwrap();
        p.record_activity(team.members[0], task).unwrap();
        match &p.collaboration_health()[0].1 {
            Verdict::MembersStalled(stalled) => assert!(!stalled.contains(&team.members[0])),
            other => panic!("unexpected verdict {other:?}"),
        }
        p.complete_collab_task(task, 0.7).unwrap();
        assert_eq!(p.collaboration_health(), vec![(task, Verdict::Complete)]);
    }
}
