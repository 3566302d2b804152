//! The Crowd4U platform facade: projects, task generation, the five-step
//! assignment workflow of §2.2.1, deadline-driven re-assignment, and task
//! completion bookkeeping.
//!
//! # Event-driven execution core
//!
//! Every state-changing entry point has a [`PlatformEvent`] counterpart and
//! appends one entry to an append-only [`EventJournal`] on success, so a
//! platform can be replayed deterministically ([`Crowd4U::replay`]). The
//! journal carries every setting: a project's team algorithm rides in its
//! registration, and the retry budget and stall window are constants.
//! Worker actions can be ingested one call at a time or as batches
//! ([`Crowd4U::apply_batch`]): batched answers mark their project *dirty*
//! instead of re-running the CyLog fixpoint per answer, and
//! [`Crowd4U::drain_events`] synchronises each dirty project exactly once.
//! Eligibility is cached per project: a factor-screen project's set is
//! patched in place for the one worker a registration names, and screened
//! again in full only when the cache fell behind by another route (the
//! project arrived from another instance) or — for a declarative screen —
//! the profiles or the project's facts changed.

use crate::controller::{
    candidates_from_profiles, constraints_from_factors, non_committers, suggest_team,
};
use crate::counters::{PlatformCounters, ProjectCounters};
use crate::eligibility;
use crate::error::{PlatformError, ProjectId, TaskId, WorkerId};
use crate::events::{DataEvent, PlatformEvent, ReplicaCopy, DRAIN_KIND};
use crate::relations::RelationStore;
use crate::task::{Task, TaskBody, TaskPool, TaskState};
use crate::workers::WorkerManager;
use crowd4u_assign::prelude::Team;
use crowd4u_collab::prelude::{CollabMonitor, MonitorEvent, Verdict};
use crowd4u_collab::Scheme;
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_cylog::engine::CylogEngine;
use crowd4u_forms::admin::DesiredFactors;
use crowd4u_sim::time::{SimDuration, SimTime};
use crowd4u_storage::prelude::{EventJournal, JournalEntry, Value};
use crowd4u_telemetry::{stage, Histogram, Span, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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
    /// The project's counts: they travel with it in a [`ProjectSlice`].
    pub counters: ProjectCounters,
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

/// The `journal.append` stage the platform records into. Defaults to a
/// disabled histogram (recording is a no-op) until
/// [`Crowd4U::set_telemetry`] attaches a live registry. Strictly
/// observe-only: nothing here feeds back into platform behaviour, the
/// journal, or [`Crowd4U::state_dump`].
#[derive(Default)]
struct PlatformTelemetry {
    /// Kept so project engines registered later attach to the same registry.
    handle: TelemetryHandle,
    journal_append: Histogram,
    /// Journal appends on this slice so far: the sample key of the next.
    appends: u64,
}

impl PlatformTelemetry {
    fn from_handle(handle: &TelemetryHandle) -> PlatformTelemetry {
        PlatformTelemetry {
            handle: handle.clone(),
            journal_append: handle.histogram(stage::JOURNAL_APPEND),
            appends: 0,
        }
    }

    /// Span one journal append, keyed by the slice's own append count:
    /// timed if that count is in the sample, counted either way.
    fn append_span(&mut self) -> Span<'_> {
        self.appends += 1;
        self.journal_append.span_for(self.appends)
    }
}

/// Give up on a collaborative task once it has missed this many recruitment
/// deadlines and misses one more.
pub const MAX_REASSIGNMENTS: u32 = 3;

/// A collaboration member idle for this long counts as stalled.
pub const STALL_AFTER: SimDuration = SimDuration::minutes(30);

/// The platform.
pub struct Crowd4U {
    now: SimTime,
    pub workers: WorkerManager,
    relations: RelationStore,
    pool: TaskPool,
    projects: BTreeMap<ProjectId, Project>,
    next_project: u64,
    /// High-water mark of each non-global clock domain (owner ≠ 0), fed by
    /// owner-tagged [`PlatformEvent::ClockAdvanced`] events. Purely
    /// event-derived, so replay reconstructs it; dumped by
    /// [`Crowd4U::state_dump`] when non-empty.
    owner_clocks: BTreeMap<u64, SimTime>,
    counters: PlatformCounters,
    /// Append-only log of every applied event (the replay source of truth).
    journal: EventJournal,
    /// Projects whose CyLog fact base changed since their last sync.
    dirty: BTreeSet<ProjectId>,
    /// Collaboration monitors, one per task whose team started.
    monitors: BTreeMap<TaskId, CollabMonitor>,
    /// Observe-only metric cells — excluded from `state_dump`, like the
    /// counters.
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
            counters: PlatformCounters::default(),
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

    /// The Eligible / InterestedIn / Undertakes relations.
    pub fn relations(&self) -> &RelationStore {
        &self.relations
    }

    /// Every task the platform holds.
    pub fn pool(&self) -> &TaskPool {
        &self.pool
    }

    /// The platform-wide counts (volatile bookkeeping, excluded from
    /// [`state_dump`](Crowd4U::state_dump)). A project's own counts are
    /// [`Project::counters`].
    pub fn counters(&self) -> &PlatformCounters {
        &self.counters
    }

    /// Append one event to the journal (call only after the event's effects
    /// were applied successfully).
    fn record(&mut self, event: &PlatformEvent) {
        self.record_entry(event.encode());
    }

    /// Append one encoded entry (see [`record`](Crowd4U::record)).
    fn record_entry(&mut self, entry: JournalEntry) {
        let _span = self.telemetry.append_span();
        self.journal
            .append(entry.kind, entry.args)
            .expect("event kinds are static identifiers");
        self.counters.events_journaled += 1;
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
        self.counters.attach(handle);
        for p in self.projects.values_mut() {
            p.engine.set_telemetry(handle);
        }
    }

    /// The append-only event journal (replay it with [`Crowd4U::replay`]).
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
        self.move_clock(t, owner)
    }

    /// The state half of [`advance_owned`](Crowd4U::advance_owned): the
    /// clocks move, then the domain's deadlines are swept.
    fn move_clock(&mut self, t: SimTime, owner: u64) -> Result<(), PlatformError> {
        if t > self.now {
            self.now = t;
        }
        if owner != 0 {
            let domain = self.owner_clocks.entry(owner).or_insert(SimTime::ZERO);
            if t > *domain {
                *domain = t;
            }
        }
        self.process_deadlines(owner)
    }

    // ---- workers ----

    /// Register (or re-register) a worker: journal the registration,
    /// encoded from the borrowed profile, and install it. The profile is
    /// the caller's allocation: a plain `WorkerProfile` moves into an
    /// `Arc`, and an `Arc` the caller shares — the runtime's, whose other
    /// holders are the other shards' registries — is registered as it is.
    pub fn register_worker(&mut self, profile: impl Into<Arc<WorkerProfile>>) {
        let profile = profile.into();
        self.record_entry(PlatformEvent::encode_registration(&profile));
        self.counters.workers_registered += 1;
        self.install_worker_delta(profile);
    }

    /// The state half of [`register_worker`](Crowd4U::register_worker):
    /// the registration without its journal entry or the platform counter,
    /// and all of a replica's registration copy.
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
    /// project arrived from another shard — is left behind for the full
    /// screen. A worker who stops qualifying leaves the cached set but
    /// keeps the open-task rows they already have. A declarative project
    /// with open tasks re-evaluates its rules, since a worker's facts may
    /// flip *other* workers' derived eligibility: its engine reads the
    /// registry, seeded with this worker's rows, and recomputes in full
    /// only when the registration took a row of a predicate it declares.
    /// A run that fails (a rule erring at run time) leaves that project's
    /// open tasks unscreened for this registration; it is counted in
    /// `eligibility_errors` and its project-scoped twin, not journaled, so
    /// a replay counts it again.
    fn install_worker_delta(&mut self, profile: Arc<WorkerProfile>) {
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
            self.counters.eligibility_cache_patches.add(1);
        }
        for project in open {
            let screened = verdicts
                .binary_search_by_key(&project, |&(id, _)| id)
                .ok()
                .map(|at| verdicts[at].1);
            if self
                .refresh_registered_eligibility(worker, project, screened)
                .is_err()
            {
                self.counters.eligibility_errors += 1;
                if let Some(p) = self.projects.get_mut(&project) {
                    p.counters.eligibility_errors += 1;
                }
            }
        }
    }

    /// Post-registration eligibility repair for one project with open
    /// tasks: mark the new worker on them if the factor screen admitted
    /// them (`screened`), or re-evaluate a project that was not
    /// factor-screened — a declarative one — and mark its whole set.
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
            self.relations.mark_eligible(worker, task);
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
    /// declarative screen, the project's epoch), and recomputed otherwise.
    /// Registrations keep a factor-screen project's cache exact by patching
    /// it ([`register_worker`](Crowd4U::register_worker)); a
    /// cache adopted from another instance may be behind, so this version
    /// check is the safety net and the recompute below is the one
    /// implementation of "who is eligible". A factor screen recomputes over
    /// every registered profile. A declarative miss runs the project's
    /// engine on the registry, which reads it as it stands: seeded with
    /// the workers registered since the engine's last fixpoint, in full
    /// only when one of those registrations took a row away.
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
                    self.counters.eligibility_cache_hits.add(1);
                    return Ok(cache.workers.clone());
                }
            }
        }
        self.counters.eligibility_cache_misses.add(1);
        let proj = self.projects.get_mut(&project).expect("checked above");
        let workers = if proj.declarative {
            proj.engine.run_with(&self.workers)?;
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
                self.relations.mark_eligible(w, task);
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
        let event = PlatformEvent::ProjectRegistered {
            name: name.into(),
            source: cylog_source.to_owned(),
            factors,
            scheme,
            owner,
        };
        let id = self.install_project(&event)?;
        self.record(&event);
        Ok(id)
    }

    /// The state half of a project registration: the project compiled and
    /// added, without its journal entry. Any other event is refused.
    fn install_project(&mut self, event: &PlatformEvent) -> Result<ProjectId, PlatformError> {
        let PlatformEvent::ProjectRegistered {
            name,
            source,
            factors,
            scheme,
            owner,
        } = event
        else {
            return Err(PlatformError::BadEvent(format!(
                "`{}` is not a project registration",
                event.kind()
            )));
        };
        let mut engine = CylogEngine::from_source(source)?;
        engine.set_telemetry(&self.telemetry.handle);
        let declarative = crate::declarative::uses_declarative_eligibility(&engine);
        if declarative {
            crate::declarative::check_conventions(&engine)?;
            crate::declarative::bind_worker_preds(&mut engine)?;
        }
        self.next_project += 1;
        let id = ProjectId(self.next_project);
        self.projects.insert(
            id,
            Project {
                id,
                name: name.clone(),
                engine,
                factors: factors.clone(),
                scheme: *scheme,
                suggestion: None,
                owner: *owner,
                declarative,
                epoch: 0,
                eligible_cache: None,
                counters: ProjectCounters::default(),
            },
        );
        self.counters.projects_registered += 1;
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
    /// new demands into tasks. A declarative project's worker-factor
    /// predicates are read from the registry and take no seeded fact: the
    /// seed is refused with `CylogError::HostBound`, and nothing is
    /// journaled.
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
        proj.engine.run_with(&self.workers)?;
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
        self.counters.micro_tasks_generated += new_tasks.len() as u64;
        if !new_tasks.is_empty() {
            let eligible = self.eligible_set(project)?;
            for task in &new_tasks {
                for &w in &eligible {
                    self.relations.mark_eligible(w, *task);
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
        self.counters.collab_tasks_created += 1;
        let eligible = self.eligible_set(project)?;
        for w in eligible {
            self.relations.mark_eligible(w, id);
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
        self.counters.interest_expressed += 1;
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
        // The algorithms only ever look up affinities among the
        // candidates, and pair affinity is a pure function of the two
        // profiles — so ask the worker manager for the candidate submatrix
        // instead of materialising (or cloning) a full population matrix
        // (which no longer exists anywhere). This makes assignment cost
        // independent of how many workers the platform hosts:
        // O(candidates²), not O(population²). Each candidate takes a slot
        // in the manager's pair memo, and `interested_workers` is in
        // ascending id order, so in a pool of up to 256 workers every pair
        // is one the memo keeps: a pair is computed once per change of
        // either profile, and read back by slot, with no hash.
        let (affinity, work, profiles) = self.workers.fill_candidate_affinity(&eligible);
        self.counters.affinity_pairs_computed.add(work.computed);
        self.counters.affinity_pairs_reused.add(work.reused);
        let candidates = candidates_from_profiles(&profiles, skill.as_deref());
        let constraints = constraints_from_factors(&factors);
        let team = suggest_team(factors.algorithm, &candidates, &affinity, &constraints);
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
                self.counters.teams_suggested += 1;
                let p = self.project_mut(project)?;
                p.counters.teams_suggested += 1;
                p.suggestion = None;
                Ok(team)
            }
            None => {
                self.counters.assignment_infeasible += 1;
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
            self.counters.teams_started += 1;
            // Undertaking counts as the team's first activity.
            self.monitors
                .insert(task, CollabMonitor::new(&team, self.now, STALL_AFTER));
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
    /// lose their interest; the miss after [`MAX_REASSIGNMENTS`] of them
    /// abandons the task.
    ///
    /// It sweeps one clock domain: the global clock (owner 0) expires
    /// globally-owned projects' deadlines up to `now`; an owned clock
    /// expires only its own projects' deadlines, and only up to its own
    /// high-water mark — another domain's later clock never reaches in.
    fn process_deadlines(&mut self, owner: u64) -> Result<(), PlatformError> {
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
                self.relations.withdraw_interest(w, task);
            }
            self.counters.deadlines_missed += 1;
            self.project_mut(task.project())?.counters.deadlines_missed += 1;
            if self.pool.bump_reassignments(task)? > MAX_REASSIGNMENTS {
                self.pool.set_state(
                    task,
                    TaskState::Abandoned {
                        reason: "no team undertook before the deadline".into(),
                    },
                )?;
                self.relations.clear_task(task);
                self.counters.tasks_abandoned += 1;
                self.project_mut(task.project())?.counters.tasks_abandoned += 1;
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
        self.relations.clear_task(task);
        self.counters.micro_tasks_completed += 1;
        self.project_mut(project)?.counters.answers += 1;
        self.touch_project(project);
        self.record(&PlatformEvent::AnswerSubmitted {
            worker,
            task,
            outputs,
        });
        Ok(())
    }

    /// Record completion of a collaborative task with an observed quality
    /// (journaled with the completion) and close its monitor.
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
        self.relations.clear_task(task);
        self.counters.collab_tasks_completed += 1;
        // Per-(project, worker) split of team memberships: on a shared
        // crowd the same worker collaborates in several scenarios, and each
        // completion's team must decompose exactly into these cells (see
        // `worker_collabs_in`).
        let counts = &mut self.project_mut(task.project())?.counters;
        counts.collab_completed += 1;
        for &w in &members {
            *counts.collabs.entry(w).or_default() += 1;
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
        self.count_outcome(result)
    }

    /// [`apply_event`](Crowd4U::apply_event) of a [`DataEvent`]: a
    /// registration is registered from its shared `Arc` as it is.
    pub fn apply(&mut self, data: DataEvent) -> Result<(), PlatformError> {
        match data {
            DataEvent::Event(event) => self.apply_event(event),
            DataEvent::Registration(profile) => {
                self.register_worker(profile);
                self.count_outcome(Ok(()))
            }
        }
    }

    /// Apply a replica's copy of a broadcast, live or on a rebuild: the
    /// state half of the event with no journal entry, counted as an applied
    /// or dropped event. The broadcast's recorder journals it.
    pub fn apply_copy(&mut self, copy: &ReplicaCopy) -> Result<(), PlatformError> {
        let result = match copy {
            ReplicaCopy::Registration(profile) => {
                self.install_worker_delta(Arc::clone(profile));
                Ok(())
            }
            ReplicaCopy::Clock(to, owner) => self.move_clock(*to, *owner),
            ReplicaCopy::Event(event) => self.install_project(event).map(|_| ()),
        };
        self.count_outcome(result)
    }

    /// Count an applied event as applied or dropped, and pass it on.
    fn count_outcome(&mut self, result: Result<(), PlatformError>) -> Result<(), PlatformError> {
        match &result {
            Ok(()) => self.counters.events_applied.add(1),
            Err(_) => self.counters.events_dropped.add(1),
        }
        result
    }

    fn apply_event_inner(&mut self, event: PlatformEvent) -> Result<(), PlatformError> {
        match event {
            PlatformEvent::WorkerRegistered { profile } => {
                self.register_worker(profile);
                Ok(())
            }
            event @ PlatformEvent::ProjectRegistered { .. } => {
                self.install_project(&event)?;
                self.record(&event);
                Ok(())
            }
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
        self.counters.batches_applied += 1;
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
        self.record_entry(JournalEntry::new(DRAIN_KIND, vec![]));
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
        out.push_str(&self.relations.dump());
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
            for r in p.engine.pending_requests().iter() {
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

    /// Replay a journal into `Crowd4U::new()`. The journal carries every
    /// setting (a project's algorithm rides in its registration). Replay
    /// applies every entry through the same public entry points that
    /// produced it, so the reconstructed platform's relations, points
    /// ledgers, pending queues — and its journal — are identical to the
    /// live one's.
    pub fn replay(journal: &EventJournal) -> Result<Crowd4U, PlatformError> {
        let mut base = Crowd4U::new();
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
                self.relations.clear_task(t.id);
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
                self.relations.mark_eligible(w, task);
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
    /// team member of — the per-scenario split of the worker's team
    /// history. Summing over all projects and team members reproduces the
    /// summed team sizes of every completion.
    pub fn worker_collabs_in(&self, project: ProjectId, worker: WorkerId) -> u64 {
        self.projects
            .get(&project)
            .and_then(|p| p.counters.collabs.get(&worker))
            .copied()
            .unwrap_or(0)
    }

    /// Tasks a worker may currently see on their user page, in id order:
    /// the pool's active tasks (open ∪ suggested, from its by-state index)
    /// the worker is eligible for. The relation store holds pairs by task
    /// only, so this page — no event — pays the scan of active tasks.
    pub fn visible_tasks(&self, worker: WorkerId) -> Vec<&Task> {
        self.pool
            .active()
            .filter(|t| self.relations.is_eligible(worker, t.id))
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
        assert_eq!(p.counters.collab_tasks_completed, 1);
        assert_eq!(p.counters.teams_suggested, 1);
        assert_eq!(p.counters.teams_started, 1);
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
            assert_eq!(p.counters.affinity_pairs_computed.get(), 3);
            assert_eq!(p.counters.affinity_pairs_reused.get(), 3);
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
        assert_eq!(p.counters.deadlines_missed, 1);
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
        let task = p.create_collab_task(proj, "x").unwrap();
        // Each round the pair re-expresses interest, is suggested again and
        // nobody undertakes: the miss after MAX_REASSIGNMENTS of them
        // abandons the task.
        for miss in 1..=MAX_REASSIGNMENTS + 1 {
            p.express_interest(WorkerId(1), task).unwrap();
            p.express_interest(WorkerId(2), task).unwrap();
            p.run_assignment(task).unwrap();
            let past_deadline = p.now() + SimDuration::secs(601);
            p.advance_to(past_deadline).unwrap();
            let t = p.pool.get(task).unwrap();
            // After a miss, non-committers lost interest so reassignment is
            // infeasible; the task stays open with a suggestion, or is
            // abandoned after exceeding the retry budget.
            assert!(t.reassignments >= 1);
            assert!(matches!(
                t.state,
                TaskState::Open | TaskState::Abandoned { .. }
            ));
            assert_eq!(
                matches!(t.state, TaskState::Abandoned { .. }),
                miss > MAX_REASSIGNMENTS,
                "miss {miss}"
            );
        }
        assert_eq!(p.counters.deadlines_missed, 4);
        assert_eq!(p.counters.tasks_abandoned, 1);
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

    /// The user page scans the pool's active tasks and probes Eligible; it
    /// must list exactly what a filter over every pool task lists, across a
    /// factor-screen registration patch (open tasks only), answered
    /// micro-tasks and suggested and in-progress collaborative tasks.
    #[test]
    fn visible_tasks_equal_a_filter_over_the_whole_pool() {
        let mut p = platform_with_workers(4);
        p.register_worker(WorkerProfile::new(WorkerId(5), "ja").with_native_lang("ja"));
        let f = DesiredFactors {
            required_language: Some("en".into()),
            ..factors()
        };
        let proj = p.register_project("v", SRC, f, Scheme::Sequential).unwrap();
        for i in 0..300 {
            p.seed_fact(proj, "sentence", vec![format!("s{i}").into()])
                .unwrap();
        }
        assert_eq!(p.sync_tasks(proj).unwrap(), 300);
        let micro: Vec<TaskId> = p.pool.open_tasks(Some(proj)).iter().map(|t| t.id).collect();
        for (k, &task) in micro.iter().enumerate().step_by(7) {
            let w = WorkerId(1 + k as u64 % 4);
            p.submit_micro_answer(w, task, vec!["t".into()]).unwrap();
        }
        let suggested = p.create_collab_task(proj, "suggested").unwrap();
        let running = p.create_collab_task(proj, "running").unwrap();
        p.create_collab_task(proj, "open").unwrap();
        for task in [suggested, running] {
            for i in 1..=3 {
                p.express_interest(WorkerId(i), task).unwrap();
            }
        }
        p.run_assignment(suggested).unwrap();
        for m in p.run_assignment(running).unwrap().members {
            p.undertake(m, running).unwrap();
        }
        assert!(matches!(
            p.pool.get(running).unwrap().state,
            TaskState::InProgress { .. }
        ));
        // Registered after the collaborative tasks were suggested: the patch
        // marks the English native on open tasks only.
        p.register_worker(WorkerProfile::new(WorkerId(6), "late").with_native_lang("en"));
        p.register_worker(WorkerProfile::new(WorkerId(7), "late-ja").with_native_lang("ja"));
        assert!(!p.relations.is_eligible(WorkerId(6), suggested));
        for w in (1..=8).map(WorkerId) {
            let brute: Vec<TaskId> = p
                .pool
                .iter()
                .filter(|t| p.pool.is_active(t.id) && p.relations.is_eligible(w, t.id))
                .map(|t| t.id)
                .collect();
            let got: Vec<TaskId> = p.visible_tasks(w).iter().map(|t| t.id).collect();
            assert_eq!(got, brute, "worker {w:?}");
        }
        assert_eq!(p.visible_tasks(WorkerId(1)).len(), 300 - 43 + 2);
        assert!(p.visible_tasks(WorkerId(5)).is_empty());
    }

    /// Answers retire their questions from `state_dump()` at once: a dump
    /// taken between the answers and the next sync lists none of them, and
    /// equals the dump of the journal's replay.
    #[test]
    fn a_dump_between_answer_and_sync_lists_no_answered_question() {
        let mut p = platform_with_workers(2);
        let proj = p
            .register_project("d", SRC, factors(), Scheme::Sequential)
            .unwrap();
        for i in 0..6 {
            p.seed_fact(proj, "sentence", vec![format!("s{i}").into()])
                .unwrap();
        }
        p.sync_tasks(proj).unwrap();
        let tasks: Vec<TaskId> = p.pool.open_tasks(Some(proj)).iter().map(|t| t.id).collect();
        for &task in &tasks[..2] {
            p.submit_micro_answer(WorkerId(1), task, vec!["t".into()])
                .unwrap();
        }
        let engine = &p.project(proj).unwrap().engine;
        // Two of six answered: the queue is not compacted yet.
        assert_eq!(engine.compaction_count(), 0);
        assert_eq!(engine.pending_requests().len(), 4);
        let dump = p.state_dump();
        let pending: Vec<&str> = dump.lines().filter(|l| l.starts_with("pending ")).collect();
        assert_eq!(
            pending,
            ["s2", "s3", "s4", "s5"].map(|q| format!("pending translate points 2 ({q})"))
        );
        assert_eq!(dump, Crowd4U::replay(p.journal()).unwrap().state_dump());
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
        assert_eq!(live.relations.dump(), replayed.relations.dump());
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
        let misses_after_first = p.counters.eligibility_cache_misses.get();
        for _ in 0..5 {
            assert_eq!(p.eligible_set(proj).unwrap().len(), 3);
        }
        assert_eq!(
            p.counters.eligibility_cache_misses.get(),
            misses_after_first
        );
        assert!(p.counters.eligibility_cache_hits.get() >= 5);

        // A new worker patches the cached set instead of dropping it: the
        // set grows, and the read after it is still a hit.
        p.register_worker(WorkerProfile::new(WorkerId(9), "late"));
        assert_eq!(p.eligible_set(proj).unwrap().len(), 4);
        assert_eq!(
            p.counters.eligibility_cache_misses.get(),
            misses_after_first
        );
        assert_eq!(p.counters.eligibility_cache_patches.get(), 1);

        // So does a re-registration that stops the worker qualifying.
        let mut away = p.workers.get(WorkerId(9)).unwrap().clone();
        away.factors.logged_in = false;
        p.register_worker(away);
        assert_eq!(p.eligible_set(proj).unwrap().len(), 3);
        assert_eq!(
            p.counters.eligibility_cache_misses.get(),
            misses_after_first
        );
        assert_eq!(p.counters.eligibility_cache_patches.get(), 2);

        // A cache that fell behind while its project was away — extracted,
        // then adopted after a registration — misses exactly once, then
        // hits again.
        let slice = p.extract_project(proj).unwrap();
        p.register_worker(WorkerProfile::new(WorkerId(10), "later"));
        p.adopt_project(slice);
        assert_eq!(p.eligible_set(proj).unwrap().len(), 4);
        assert_eq!(p.eligible_set(proj).unwrap().len(), 4);
        assert_eq!(
            p.counters.eligibility_cache_misses.get(),
            misses_after_first + 1
        );

        // The factor screen is a pure function of profiles × factors, so
        // new facts do NOT invalidate it (the set is served from cache).
        let misses = p.counters.eligibility_cache_misses.get();
        p.seed_fact(proj, "sentence", vec!["x".into()]).unwrap();
        p.eligible_set(proj).unwrap();
        assert_eq!(p.counters.eligibility_cache_misses.get(), misses);

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
        let misses = p.counters.eligibility_cache_misses.get();
        p.seed_fact(decl, "flag", vec![Value::Id(1)]).unwrap();
        assert_eq!(p.eligible_set(decl).unwrap(), vec![WorkerId(1)]);
        assert_eq!(p.counters.eligibility_cache_misses.get(), misses + 1);
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
                assert_eq!(total, p.counters.eligibility_cache_patches.get());
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
            let misses = p.counters.eligibility_cache_misses.get();
            for k in 1..=100 {
                p.register_worker(WorkerProfile::new(WorkerId(population + 10 + k), "late"));
            }
            assert_eq!(patches(&p), 102);
            assert_eq!(p.eligible_set(a).unwrap().len(), live + 100);
            assert_eq!(p.eligible_set(b).unwrap().len(), live + 100);
            assert_eq!(p.counters.eligibility_cache_misses.get(), misses);
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
        assert_eq!(p.project(a).unwrap().counters.answers, 1);
        assert_eq!(p.project(b).unwrap().counters.answers, 0);
        // A team + completion in project b only.
        let collab = p.create_collab_task(b, "x").unwrap();
        p.express_interest(WorkerId(1), collab).unwrap();
        p.express_interest(WorkerId(2), collab).unwrap();
        let team = p.run_assignment(collab).unwrap();
        assert_eq!(p.project(b).unwrap().counters.teams_suggested, 1);
        assert_eq!(p.project(a).unwrap().counters.teams_suggested, 0);
        for &m in &team.members {
            p.undertake(m, collab).unwrap();
        }
        p.complete_collab_task(collab, 0.9).unwrap();
        assert_eq!(p.project(b).unwrap().counters.collab_completed, 1);
        assert_eq!(p.project(a).unwrap().counters.collab_completed, 0);
        // Scoped counters stay out of the canonical state dump.
        assert!(!p.state_dump().contains("teams_suggested"));
    }

    /// A project's counts are part of its state: they move with it to the
    /// adopting platform and leave none behind.
    #[test]
    fn a_migrated_project_keeps_its_counts() {
        let mut src = platform_with_workers(3);
        let proj = src
            .register_project("c", SRC, factors(), Scheme::Sequential)
            .unwrap();
        let task = src.create_collab_task(proj, "x").unwrap();
        src.express_interest(WorkerId(1), task).unwrap();
        src.express_interest(WorkerId(2), task).unwrap();
        let team = src.run_assignment(task).unwrap();
        for &m in &team.members {
            src.undertake(m, task).unwrap();
        }
        src.complete_collab_task(task, 0.9).unwrap();
        let member = team.members[0];
        let counts = |p: &Crowd4U| {
            let c = p
                .project(proj)
                .map(|p| p.counters.clone())
                .unwrap_or_default();
            (
                c.teams_suggested,
                c.collab_completed,
                p.worker_collabs_in(proj, member),
            )
        };
        let before = counts(&src);
        assert_eq!(before, (1, 1, 1));
        let mut dst = platform_with_workers(3);
        dst.adopt_project(src.extract_project(proj).unwrap());
        assert_eq!(counts(&dst), before);
        assert_eq!(counts(&src), (0, 0, 0));
    }

    /// Declarative eligibility beside a rule that divides by `online − 3`:
    /// the project's fixpoint fails exactly while three workers are online.
    fn poisoned_src(poisoned: bool) -> String {
        let headroom = if poisoned { "12 / (N - 3)" } else { "N" };
        format!(
            "\
rel worker_online(w: id).
rel eligible(w: id).
eligible(W) :- worker_online(W).
rel online(n: int).
online(count<W>) :- worker_online(W).
rel headroom(z: int).
headroom(Z) :- online(N), Z := {headroom}.
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
"
        )
    }

    /// The one-store contract as exact counts, at one and at three
    /// declarative projects: no project engine holds a worker row, so a
    /// declarative slice is the same whatever the crowd's size; a new
    /// worker's registration is a seeded run and recomputes nothing; a
    /// logout takes a row away and recomputes each project exactly once.
    #[test]
    fn declarative_projects_hold_no_worker_rows() {
        const DECL: &str = "\
rel worker(w: id).
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel eligible(w: id).
eligible(W) :- worker(W), worker_online(W), worker_native(W, \"en\").
rel sentence(s: str).
open translate(s: str) -> (t: str).
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";
        let slice_dump = |n: u64, projects: usize| -> String {
            // Ten English natives qualify; the rest of the crowd does not.
            let mut p = Crowd4U::new();
            for i in 1..=n {
                let lang = if i <= 10 { "en" } else { "ja" };
                p.register_worker(WorkerProfile::new(WorkerId(i), "w").with_native_lang(lang));
            }
            let ids: Vec<ProjectId> = (0..projects)
                .map(|k| {
                    let id = p
                        .register_project(format!("d{k}"), DECL, factors(), Scheme::Sequential)
                        .unwrap();
                    p.seed_fact(id, "sentence", vec!["s".into()]).unwrap();
                    assert_eq!(p.sync_tasks(id).unwrap(), 1);
                    id
                })
                .collect();
            let stats = |p: &Crowd4U| -> Vec<(u64, u64)> {
                ids.iter()
                    .map(|&id| p.project(id).unwrap().engine.cumulative_stats())
                    .map(|s| (s.recomputes, s.delta_seeded))
                    .collect()
            };
            let before = stats(&p);
            p.register_worker(WorkerProfile::new(WorkerId(n + 1), "new").with_native_lang("ja"));
            for ((r0, d0), (r1, d1)) in before.iter().zip(stats(&p)) {
                assert_eq!(r1, *r0, "a new worker recomputes nothing (n = {n})");
                assert!(d1 > *d0, "a new worker seeds the run (n = {n})");
            }
            let mut away = p.workers.get(WorkerId(1)).unwrap().clone();
            away.factors.logged_in = false;
            p.register_worker(away);
            for ((r0, _), (r1, _)) in before.iter().zip(stats(&p)) {
                assert_eq!(r1, r0 + 1, "a logout recomputes once (n = {n})");
            }
            for &id in &ids {
                assert_eq!(p.eligible_set(id).unwrap().len(), 9);
                let engine = &p.project(id).unwrap().engine;
                for (pred, _) in crate::declarative::WORKER_PREDS {
                    if engine.program().pred(pred).is_some() {
                        assert_eq!(engine.fact_count(pred).unwrap(), 0, "{pred} (n = {n})");
                    }
                }
            }
            let slice = p.extract_project(ids[0]).unwrap();
            crowd4u_storage::snapshot::dump(slice.project.engine.database())
        };
        for projects in [1, 3] {
            assert_eq!(slice_dump(10, projects), slice_dump(200, projects));
        }
    }

    #[test]
    fn a_failing_registration_refresh_is_counted_not_journaled() {
        // One open task, then four registrations: each one's declarative
        // refresh recomputes the project's eligible set.
        let run = |poisoned: bool| {
            let mut p = Crowd4U::new();
            let id = p
                .register_project("p", &poisoned_src(poisoned), factors(), Scheme::Sequential)
                .unwrap();
            p.seed_fact(id, "sentence", vec!["s".into()]).unwrap();
            p.sync_tasks(id).unwrap();
            let task = p.pool.open_tasks(Some(id))[0].id;
            let mut steps = Vec::new();
            for w in 1..=4 {
                p.register_worker(WorkerProfile::new(WorkerId(w), format!("w{w}")));
                steps.push((
                    p.project(id).unwrap().counters.eligibility_errors,
                    p.relations.eligible_workers(task).len(),
                ));
            }
            (p, id, steps)
        };
        let (clean, _, clean_steps) = run(false);
        assert_eq!(clean_steps, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(clean.counters.eligibility_errors, 0);
        // The third registration's refresh fails: counted once, globally
        // and for the project, and the third worker stays unmarked until
        // the fourth registration's refresh succeeds.
        let (p, id, steps) = run(true);
        assert_eq!(steps, [(0, 1), (0, 2), (1, 2), (1, 4)]);
        assert_eq!(p.counters.eligibility_errors, 1);
        // Nothing is journaled for it: past the project entry, whose
        // source differs, the journal is the clean run's.
        assert_eq!(p.journal().len(), clean.journal().len());
        assert!(p
            .journal()
            .iter()
            .skip(1)
            .eq(clean.journal().iter().skip(1)));
        // A replay re-applies the registrations and counts the error again.
        let replayed = Crowd4U::replay(p.journal()).unwrap();
        assert_eq!(replayed.counters.eligibility_errors, 1);
        assert_eq!(replayed.project(id).unwrap().counters.eligibility_errors, 1);
        assert_eq!(replayed.state_dump(), p.state_dump());
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
        p.advance_to(p.now() + STALL_AFTER).unwrap();
        p.record_activity(team.members[0], task).unwrap();
        match &p.collaboration_health()[0].1 {
            Verdict::MembersStalled(stalled) => assert!(!stalled.contains(&team.members[0])),
            other => panic!("unexpected verdict {other:?}"),
        }
        p.complete_collab_task(task, 0.7).unwrap();
        assert_eq!(p.collaboration_health(), vec![(task, Verdict::Complete)]);
    }
}
