//! Scenario event streams: the contract between scenario logic and a
//! partitioned runtime.
//!
//! A scenario is interactive — team formation reads task state, interest
//! collection reads eligibility — so its decisions cannot be precomputed.
//! The streaming model therefore splits a scenario into two halves:
//!
//! * the **decision shadow**: a [`Driver`] running the scenario logic
//!   against its own platform slice, exactly as a single-threaded run
//!   would. Every state change it makes is journaled, and the journal,
//!   decoded and timestamped, *is* the scenario's event stream
//!   ([`Driver::ops_since`] / [`Driver::drain_due`]);
//! * the **authoritative runtime**: whatever applies the yielded stream —
//!   a single platform ([`apply_stream`], the serial reference) or the
//!   sharded runtime's ingestion gate (`crowd4u-runtime::scenario`), where
//!   one scenario's projects span shards and several scenarios interleave.
//!
//! Because the stream is exactly the shadow's journal, replaying it in
//! order reproduces the shadow's platform state byte-identically; pushed
//! through `ShardedRuntime` mailboxes it inherits the PR 3/4 determinism
//! contract (merged journal byte-identical to the serial journal at any
//! shard count).
//!
//! # Interleaving several scenarios
//!
//! [`merge_traces`] interleaves any number of recorded scenario streams by
//! timestamp into one deterministic stream for a shared runtime, remapping
//! ids so the scenarios stay disjoint:
//!
//! * **workers** are offset per scenario (scenario *i*'s crowd follows
//!   scenario *i−1*'s) — each scenario keeps its own seeded crowd, and a
//!   broadcast registration can never overwrite another scenario's
//!   profile. [`merge_traces_with`] in [`CrowdMode::Shared`] instead keeps
//!   every worker reference on the shared registration order (offset 0)
//!   and deduplicates the identical re-registrations — the paper's
//!   one-crowd-many-applications marketplace;
//! * **projects** are renumbered in merged-stream registration order —
//!   exactly the id sequence the (broadcast-lockstep) platform assigns, so
//!   the remap table *predicts* the authoritative ids and task-scoped
//!   events can be rewritten up front (task ids are project-strided);
//! * **clock domains**: when more than one trace merges, trace *i*'s
//!   `ClockAdvanced` and `ProjectRegistered` events are tagged with owner
//!   *i + 1*, so each scenario's recruitment deadlines are set and swept
//!   by its own clock only — another scenario's later clock can no longer
//!   expire a deadline up to one tick early (the PR 5 interleaving
//!   gotcha). A lone trace stays untagged and byte-identical to its
//!   shadow.
//!
//! Scenario accounting then splits the same way the execution did:
//! crowd-simulation observables (answers scheduled, artifact quality,
//! makespan, team affinity) come from the shadow, while platform
//! observables (items completed, teams suggested, reassignments, points)
//! are recomputed from the authoritative runtime via per-project counters
//! and points aggregation ([`platform_side`] + [`assemble_report`]).

use crate::config::{ScenarioConfig, ScenarioReport};
use crate::driver::Driver;
use crate::run_scheme_on;
use crowd4u_collab::Scheme;
use crowd4u_core::error::{PlatformError, ProjectId, TaskId, WorkerId};
use crowd4u_core::events::PlatformEvent;
use crowd4u_core::platform::Crowd4U;
use crowd4u_sim::time::SimTime;
use std::collections::BTreeMap;

/// One step of a scenario's event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOp {
    /// Apply one platform event (route by its
    /// [`EventScope`](crowd4u_core::events::EventScope)).
    Event(PlatformEvent),
    /// Synchronise every dirty project — a `drain` journal entry; a
    /// sharded runtime turns this into a coordinated drain barrier.
    Drain,
}

/// A stream op stamped with the platform clock at the moment it applied.
/// Stamps are non-decreasing within one scenario's stream; across
/// scenarios they define the deterministic interleaving order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedOp {
    pub at: SimTime,
    pub op: StreamOp,
}

/// How a scenario's `items_completed` is derived from platform state.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// Count the facts of a derived predicate (e.g. translation's
    /// `published`, surveillance's `verified`).
    Facts(String),
    /// Count completed collaborative tasks of the project (journalism).
    CollabsCompleted,
}

/// A fully recorded scenario: its timed op stream plus everything needed
/// to remap it into a shared runtime and to rebuild its report from
/// authoritative platform state.
#[derive(Debug, Clone)]
pub struct ScenarioTrace {
    pub scheme: Scheme,
    /// The decision shadow's journal, decoded and timestamped.
    pub ops: Vec<TimedOp>,
    /// Worker-id stride: how many workers this scenario registered.
    pub crowd: u64,
    /// The shadow's project ids, in registration order (the remap keys).
    pub projects: Vec<ProjectId>,
    /// Recipe for `items_completed` from platform state.
    pub completion: Completion,
    /// The shadow's own report: the crowd-simulation-side observables
    /// (and, for a lone scenario, the serial reference to compare with).
    pub shadow: ScenarioReport,
}

/// The completion recipe of each built-in scheme.
pub fn completion_for(scheme: Scheme) -> Completion {
    match scheme {
        Scheme::Sequential => Completion::Facts("published".into()),
        Scheme::Simultaneous => Completion::CollabsCompleted,
        Scheme::Hybrid => Completion::Facts("verified".into()),
    }
}

/// Run one scheme on a fresh decision shadow and record its stream.
pub fn record_scheme(
    scheme: Scheme,
    config: &ScenarioConfig,
) -> Result<ScenarioTrace, PlatformError> {
    let mut d = Driver::new(config);
    let shadow = run_scheme_on(&mut d, scheme, config)?;
    let ops = d.ops_since(0)?;
    Ok(ScenarioTrace {
        scheme,
        ops,
        crowd: config.crowd as u64,
        projects: d.platform.project_ids(),
        completion: completion_for(scheme),
        shadow,
    })
}

/// Per-scenario id translation into a shared runtime's id spaces. The
/// identity remap (offset 0, projects mapping to themselves) is what a
/// lone scenario gets — its stream reaches the runtime verbatim.
#[derive(Debug, Clone, Default)]
pub struct IdRemap {
    /// Added to every worker id (scenario crowds are stacked end to end;
    /// zero for every trace of a shared-crowd merge).
    pub worker_offset: u64,
    /// Shadow project id → authoritative project id (merged registration
    /// order). Unmapped ids pass through.
    pub projects: BTreeMap<ProjectId, ProjectId>,
    /// Clock-domain owner stamped onto this trace's `ClockAdvanced` /
    /// `ProjectRegistered` events (`0` = leave events untagged, the lone-
    /// trace identity).
    pub scenario: u64,
}

impl IdRemap {
    pub fn worker(&self, w: WorkerId) -> WorkerId {
        WorkerId(w.0 + self.worker_offset)
    }

    pub fn project(&self, p: ProjectId) -> ProjectId {
        *self.projects.get(&p).unwrap_or(&p)
    }

    /// Task ids are project-strided, so remapping one is recomposing it
    /// under the remapped project (raw ids — project 0 — pass through).
    pub fn task(&self, t: TaskId) -> TaskId {
        if t.project().0 == 0 {
            t
        } else {
            TaskId::compose(self.project(t.project()), t.local())
        }
    }

    /// Rewrite every id an event carries. Exhaustive over the vocabulary:
    /// adding a `PlatformEvent` variant forces a remapping decision here.
    pub fn event(&self, event: PlatformEvent) -> PlatformEvent {
        match event {
            PlatformEvent::WorkerRegistered { mut profile } => {
                profile.id = self.worker(profile.id);
                PlatformEvent::WorkerRegistered { profile }
            }
            PlatformEvent::ProjectRegistered {
                name,
                source,
                factors,
                scheme,
                owner,
            } => PlatformEvent::ProjectRegistered {
                name,
                source,
                factors,
                scheme,
                owner: if self.scenario != 0 {
                    self.scenario
                } else {
                    owner
                },
            },
            PlatformEvent::FactSeeded {
                project,
                pred,
                values,
            } => PlatformEvent::FactSeeded {
                project: self.project(project),
                pred,
                values,
            },
            PlatformEvent::TasksSynced { project } => PlatformEvent::TasksSynced {
                project: self.project(project),
            },
            PlatformEvent::CollabTaskCreated {
                project,
                description,
            } => PlatformEvent::CollabTaskCreated {
                project: self.project(project),
                description,
            },
            PlatformEvent::InterestExpressed { worker, task } => PlatformEvent::InterestExpressed {
                worker: self.worker(worker),
                task: self.task(task),
            },
            PlatformEvent::AssignmentRun { task } => PlatformEvent::AssignmentRun {
                task: self.task(task),
            },
            PlatformEvent::Undertaken { worker, task } => PlatformEvent::Undertaken {
                worker: self.worker(worker),
                task: self.task(task),
            },
            PlatformEvent::ClockAdvanced { to, owner } => PlatformEvent::ClockAdvanced {
                to,
                owner: if self.scenario != 0 {
                    self.scenario
                } else {
                    owner
                },
            },
            PlatformEvent::AnswerSubmitted {
                worker,
                task,
                outputs,
            } => PlatformEvent::AnswerSubmitted {
                worker: self.worker(worker),
                task: self.task(task),
                outputs,
            },
            PlatformEvent::TaskCompleted { task, quality } => PlatformEvent::TaskCompleted {
                task: self.task(task),
                quality,
            },
            PlatformEvent::ActivityRecorded { worker, task } => PlatformEvent::ActivityRecorded {
                worker: self.worker(worker),
                task: self.task(task),
            },
        }
    }
}

/// Several scenario streams interleaved by timestamp into one
/// deterministic, id-remapped stream for a shared runtime.
#[derive(Debug, Clone)]
pub struct MergedStream {
    /// `(trace index, remapped op)` in stream order.
    pub ops: Vec<(usize, StreamOp)>,
    /// The id translation applied to each trace, by trace index.
    pub remaps: Vec<IdRemap>,
}

/// How [`merge_traces_with`] treats the traces' worker populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrowdMode {
    /// Offset each trace's worker ids past the previous trace's crowd:
    /// scenarios keep disjoint populations (the pre-marketplace default).
    Disjoint,
    /// Keep every trace's worker references on the shared registration
    /// order (offset 0): all scenarios draw from **one** crowd. Requires
    /// every trace to have been recorded over the same seeded population —
    /// equal crowd sizes, and byte-identical profiles wherever ids
    /// coincide; the duplicate registrations are deduplicated out of the
    /// merged stream (the first trace to register a worker wins, later
    /// identical registrations vanish).
    Shared,
}

/// Interleave recorded traces by `(timestamp, trace index, position)` —
/// stable, shard-count-independent, and identical on every run — and
/// remap ids so the scenarios stay disjoint. Global project ids are
/// assigned by registration order *within the merged stream*, which is
/// exactly the sequence a broadcast-lockstep platform will assign when
/// the stream is applied, so every task-scoped event can be rewritten to
/// its authoritative id before submission.
pub fn merge_traces(traces: &[ScenarioTrace]) -> MergedStream {
    merge_traces_with(traces, CrowdMode::Disjoint).expect("disjoint merge is total")
}

/// [`merge_traces`] with an explicit [`CrowdMode`]. In
/// [`CrowdMode::Shared`] the merge fails if the traces were not recorded
/// over one common population (different crowd sizes, or the same worker
/// id registering with different profiles) — silent profile clobbering
/// across scenarios is exactly what the disjoint mode exists to prevent.
///
/// Sharing is sound because applying a trace's project-scoped events never
/// reads another project's state, and the one cross-project surface the
/// traces do share — the worker registry — changes only by registration,
/// and a shared population registers each worker with one profile.
/// Deadlines stay isolated via the per-trace clock domains tagged by the
/// merge.
pub fn merge_traces_with(
    traces: &[ScenarioTrace],
    mode: CrowdMode,
) -> Result<MergedStream, PlatformError> {
    // A lone trace must merge to the identity stream (byte-identical to
    // its shadow journal), so clock-domain tags only appear when traces
    // actually interleave.
    let tag = |i: usize| if traces.len() > 1 { i as u64 + 1 } else { 0 };
    let mut remaps: Vec<IdRemap> = Vec::with_capacity(traces.len());
    let mut offset = 0u64;
    for (i, t) in traces.iter().enumerate() {
        remaps.push(IdRemap {
            worker_offset: offset,
            projects: BTreeMap::new(),
            scenario: tag(i),
        });
        if mode == CrowdMode::Disjoint {
            offset += t.crowd;
        } else if t.crowd != traces[0].crowd {
            return Err(PlatformError::BadEvent(format!(
                "shared-crowd merge needs one common population: trace 0 \
                 registered {} workers, trace {i} registered {}",
                traces[0].crowd, t.crowd
            )));
        }
    }
    let mut tagged: Vec<(SimTime, usize, usize)> = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        for (pos, op) in t.ops.iter().enumerate() {
            tagged.push((op.at, i, pos));
        }
    }
    tagged.sort_unstable();
    let mut next_project = 0u64;
    let mut registered: Vec<usize> = vec![0; traces.len()];
    let mut seen_workers: BTreeMap<WorkerId, crowd4u_crowd::profile::WorkerProfile> =
        BTreeMap::new();
    let mut ops = Vec::with_capacity(tagged.len());
    for (_, i, pos) in tagged {
        let out = match &traces[i].ops[pos].op {
            StreamOp::Drain => StreamOp::Drain,
            StreamOp::Event(e) => {
                if matches!(e, PlatformEvent::ProjectRegistered { .. }) {
                    next_project += 1;
                    let local = traces[i].projects[registered[i]];
                    registered[i] += 1;
                    remaps[i].projects.insert(local, ProjectId(next_project));
                }
                let remapped = remaps[i].event(e.clone());
                if mode == CrowdMode::Shared {
                    if let PlatformEvent::WorkerRegistered { profile } = &remapped {
                        match seen_workers.get(&profile.id) {
                            // The shared population registers once; later
                            // traces' identical registrations drop out.
                            Some(first) if first == profile => continue,
                            Some(_) => {
                                return Err(PlatformError::BadEvent(format!(
                                    "shared-crowd merge: trace {i} re-registers worker \
                                     {} with a different profile",
                                    profile.id
                                )))
                            }
                            None => {
                                seen_workers.insert(profile.id, profile.clone());
                            }
                        }
                    }
                }
                StreamOp::Event(remapped)
            }
        };
        ops.push((i, out));
    }
    Ok(MergedStream { ops, remaps })
}

/// Apply a merged stream to one platform — the serial reference executor
/// every streamed run is compared against. Semantics mirror a shard
/// mailbox exactly: events apply in stream order with per-event error
/// tolerance (an event the platform rejects is dropped and counted, never
/// journaled), and [`StreamOp::Drain`] synchronises every dirty project.
/// Returns the number of dropped events. Interleaved scenarios touch
/// disjoint projects and workers, so drops only arise from genuine
/// cross-stream timing (e.g. a recruitment deadline swept a tick early by
/// another scenario's clock) — a lone scenario's stream applies with zero
/// drops.
pub fn apply_stream(platform: &mut Crowd4U, merged: &MergedStream) -> Result<u64, PlatformError> {
    let mut dropped = 0u64;
    for (_, op) in &merged.ops {
        match op {
            StreamOp::Drain => {
                platform.drain_events()?;
            }
            StreamOp::Event(e) => {
                if platform.apply_event(e.clone()).is_err() {
                    dropped += 1;
                }
            }
        }
    }
    Ok(dropped)
}

/// The report fields recomputed from authoritative platform state (as
/// opposed to the crowd-simulation-side fields the shadow supplies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformSide {
    pub items_completed: usize,
    pub teams_formed: u64,
    pub reassignments: u64,
    pub points_awarded: i64,
}

impl PlatformSide {
    /// Accumulate another project's contribution (multi-project traces).
    pub fn absorb(&mut self, other: PlatformSide) {
        self.items_completed += other.items_completed;
        self.teams_formed += other.teams_formed;
        self.reassignments += other.reassignments;
        self.points_awarded += other.points_awarded;
    }
}

/// Derive one project's scenario accounting from the platform that owns
/// it: completion via the trace's [`Completion`] recipe, team formation
/// and reassignment via the project-scoped counters, points via the
/// project's ledger (`points_of`-style aggregation — the ledger is
/// project-owned, so summing a project's leaderboard is the per-scenario
/// slice of the global per-worker totals).
pub fn platform_side(
    p: &Crowd4U,
    project: ProjectId,
    completion: &Completion,
) -> Result<PlatformSide, PlatformError> {
    let proj = p.project(project)?;
    let items_completed = match completion {
        Completion::Facts(pred) => proj.engine.fact_count(pred)?,
        Completion::CollabsCompleted => p.project_counter(project, "collab_completed") as usize,
    };
    let points_awarded = proj.engine.leaderboard().iter().map(|(_, pts)| pts).sum();
    Ok(PlatformSide {
        items_completed,
        teams_formed: p.project_counter(project, "teams_suggested"),
        reassignments: p.project_counter(project, "deadlines_missed"),
        points_awarded,
    })
}

/// Join the two halves of a streamed scenario's accounting: platform
/// observables from the authoritative runtime, crowd-side observables from
/// the decision shadow.
pub fn assemble_report(shadow: &ScenarioReport, side: PlatformSide) -> ScenarioReport {
    ScenarioReport {
        scheme: shadow.scheme,
        items_completed: side.items_completed,
        items_total: shadow.items_total,
        mean_quality: shadow.mean_quality,
        makespan: shadow.makespan,
        answers: shadow.answers,
        teams_formed: side.teams_formed,
        reassignments: side.reassignments,
        mean_team_affinity: shadow.mean_team_affinity,
        points_awarded: side.points_awarded,
    }
}

/// Per-worker split of one scenario's share of a shared crowd's
/// accounting: the points its projects awarded each worker, and the
/// collaborative completions each worker contributed to it. The
/// split-accounting invariant (ARCHITECTURE.md §11): summing a worker's
/// cells across every scenario's ledger reproduces the platform-wide
/// `points_of` and team-observation totals exactly — projects partition
/// both, so nothing is double-counted or lost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitLedger {
    /// Points per worker (workers with zero points are absent).
    pub points: BTreeMap<WorkerId, i64>,
    /// Collaborative completions the worker was a team member of.
    pub collabs: BTreeMap<WorkerId, u64>,
}

impl SplitLedger {
    /// Merge another project's split into this scenario's ledger.
    pub fn absorb(&mut self, other: SplitLedger) {
        for (w, v) in other.points {
            *self.points.entry(w).or_insert(0) += v;
        }
        for (w, v) in other.collabs {
            *self.collabs.entry(w).or_insert(0) += v;
        }
    }

    /// Total points the scenario awarded across its crowd.
    pub fn total_points(&self) -> i64 {
        self.points.values().sum()
    }

    /// Total per-member collaborative completions.
    pub fn total_collabs(&self) -> u64 {
        self.collabs.values().sum()
    }
}

/// One project's per-worker split, read off the platform (or shard slice)
/// that owns it.
pub fn project_split(p: &Crowd4U, project: ProjectId) -> SplitLedger {
    let mut out = SplitLedger::default();
    for w in p.workers.iter_ids() {
        let pts = p.project_points_of(project, w);
        if pts != 0 {
            out.points.insert(w, pts);
        }
        let collabs = p.worker_collabs_in(project, w);
        if collabs != 0 {
            out.collabs.insert(w, collabs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig::default()
            .with_crowd(20)
            .with_items(1)
            .with_seed(5)
    }

    #[test]
    fn recorded_stream_is_the_shadow_journal() {
        let cfg = small();
        let trace = record_scheme(Scheme::Sequential, &cfg).unwrap();
        // A reference shadow run journals the identical op sequence.
        let mut d = Driver::new(&cfg);
        run_scheme_on(&mut d, Scheme::Sequential, &cfg).unwrap();
        assert_eq!(trace.ops, d.ops_since(0).unwrap());
        assert_eq!(trace.ops.len(), d.platform.journal().len());
        // Stamps never decrease within a stream.
        for w in trace.ops.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert_eq!(trace.projects.len(), 1);
    }

    #[test]
    fn lone_trace_merges_to_identity() {
        let trace = record_scheme(Scheme::Hybrid, &small()).unwrap();
        let ops = trace.ops.clone();
        let merged = merge_traces(std::slice::from_ref(&trace));
        assert_eq!(merged.remaps[0].worker_offset, 0);
        for p in &trace.projects {
            assert_eq!(merged.remaps[0].project(*p), *p);
        }
        let back: Vec<StreamOp> = merged.ops.into_iter().map(|(_, op)| op).collect();
        let want: Vec<StreamOp> = ops.into_iter().map(|t| t.op).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn lone_stream_replays_the_shadow_byte_identically() {
        let cfg = small();
        let mut d = Driver::new(&cfg);
        run_scheme_on(&mut d, Scheme::Simultaneous, &cfg).unwrap();
        let trace = record_scheme(Scheme::Simultaneous, &cfg).unwrap();
        let merged = merge_traces(std::slice::from_ref(&trace));
        let mut fresh = Crowd4U::new();
        fresh.controller.algorithm = cfg.algorithm;
        let dropped = apply_stream(&mut fresh, &merged).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(fresh.journal().dump(), d.platform.journal().dump());
        assert_eq!(fresh.state_dump(), d.platform.state_dump());
    }

    #[test]
    fn platform_side_matches_the_shadow_report() {
        for scheme in Scheme::all() {
            let cfg = small();
            let trace = record_scheme(scheme, &cfg).unwrap();
            let merged = merge_traces(std::slice::from_ref(&trace));
            let mut fresh = Crowd4U::new();
            fresh.controller.algorithm = cfg.algorithm;
            apply_stream(&mut fresh, &merged).unwrap();
            let mut side = PlatformSide::default();
            for p in &trace.projects {
                side.absorb(platform_side(&fresh, *p, &trace.completion).unwrap());
            }
            let report = assemble_report(&trace.shadow, side);
            assert_eq!(
                report.items_completed, trace.shadow.items_completed,
                "{scheme}"
            );
            assert_eq!(report.teams_formed, trace.shadow.teams_formed, "{scheme}");
            assert_eq!(report.reassignments, trace.shadow.reassignments, "{scheme}");
            assert_eq!(
                report.points_awarded, trace.shadow.points_awarded,
                "{scheme}"
            );
        }
    }

    #[test]
    fn remap_rewrites_every_id_family() {
        let remap = IdRemap {
            worker_offset: 100,
            projects: BTreeMap::from([(ProjectId(1), ProjectId(7))]),
            scenario: 0,
        };
        assert_eq!(remap.worker(WorkerId(3)), WorkerId(103));
        assert_eq!(remap.project(ProjectId(1)), ProjectId(7));
        assert_eq!(remap.project(ProjectId(2)), ProjectId(2)); // unmapped passes
        assert_eq!(
            remap.task(TaskId::compose(ProjectId(1), 4)),
            TaskId::compose(ProjectId(7), 4)
        );
        assert_eq!(remap.task(TaskId(9)), TaskId(9)); // raw id space passes
        let e = remap.event(PlatformEvent::AnswerSubmitted {
            worker: WorkerId(2),
            task: TaskId::compose(ProjectId(1), 1),
            outputs: vec![],
        });
        assert_eq!(
            e,
            PlatformEvent::AnswerSubmitted {
                worker: WorkerId(102),
                task: TaskId::compose(ProjectId(7), 1),
                outputs: vec![],
            }
        );
    }
}
