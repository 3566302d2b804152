//! Cross-scenario assignment over a shared crowd — the marketplace policy.
//!
//! When one worker population serves several applications on the same
//! runtime (PR 10's shared-crowd mode), each application's local
//! assignment run only sees its own project's interested workers: a
//! worker already suggested onto two teams elsewhere looks exactly as
//! available as an idle one. This module closes that gap *in front of*
//! the event stream. It snapshots the authoritative cross-application
//! state — worker profiles and the pair affinity they give, from the
//! coordinator (which owns the worker registry), active team memberships summed
//! across every owner shard — and proposes a team through
//! [`crowd4u_assign::load::form_least_loaded`], which prefers the
//! feasible team whose busiest member is least busy.
//!
//! The policy deliberately does **not** run inside the shards' apply
//! path: an owner shard sees only its own projects' tasks, so a
//! load-aware decision taken during event application would read
//! different loads at different shard counts and break the
//! byte-identical-journal contract. A front end calls [`propose_team`],
//! then submits the resulting interest/assignment events like any other
//! requester action — the journal records only the outcome, never the
//! load table that motivated it.

use crate::router::ShardedRuntime;
use crowd4u_assign::load::form_least_loaded;
use crowd4u_assign::types::{Candidate, Team, TeamConstraints, TeamFormation};
use crowd4u_core::controller::candidates_from_profiles;
use crowd4u_core::error::WorkerId;
use crowd4u_crowd::affinity::AffinityMatrix;
use std::collections::BTreeMap;

/// One consistent cross-application view of the shared crowd: who exists,
/// how well they work together, and how busy each of them already is.
#[derive(Debug, Clone)]
pub struct MarketSnapshot {
    /// Optimiser candidates for every registered worker, built from the
    /// coordinator's authoritative profiles (skill dimension optional).
    pub candidates: Vec<Candidate>,
    /// Pairwise affinity over those candidates, from their registered
    /// profiles.
    pub affinity: AffinityMatrix,
    /// Active suggested/in-progress team memberships per worker, summed
    /// across all applications. Absent workers are idle.
    pub loads: BTreeMap<WorkerId, u64>,
}

/// Snapshot the marketplace state off the runtime. Loads come from every
/// owner shard ([`ShardedRuntime::assignment_loads`]); candidates and
/// affinity come from the coordinator, which owns the worker registry.
/// The two reads ride the same mailboxes as the event stream, so each
/// reflects all events submitted before the call.
pub fn market_snapshot(rt: &ShardedRuntime, skill: Option<String>) -> MarketSnapshot {
    let loads = rt.assignment_loads();
    let (candidates, affinity) = rt
        .submit_job(0, move |p| {
            let profiles: Vec<_> = p.workers.profiles().collect();
            let candidates = candidates_from_profiles(&profiles, skill.as_deref());
            let ids: Vec<WorkerId> = candidates.iter().map(|c| c.id).collect();
            let affinity = p.workers.candidate_affinity(&ids);
            (candidates, affinity)
        })
        .recv()
        .expect("coordinator alive");
    MarketSnapshot {
        candidates,
        affinity,
        loads,
    }
}

/// Propose a team from the shared crowd, weighing each worker's total
/// load across **all** applications: snapshot the marketplace, then run
/// the base algorithm least-loaded-first. Returns `None` when no feasible
/// team exists even over the full population.
pub fn propose_team(
    rt: &ShardedRuntime,
    skill: Option<String>,
    base: &dyn TeamFormation,
    constraints: &TeamConstraints,
) -> Option<Team> {
    let snap = market_snapshot(rt, skill);
    form_least_loaded(
        base,
        &snap.candidates,
        &snap.affinity,
        constraints,
        &snap.loads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RuntimeConfig;
    use crowd4u_assign::greedy::LocalSearch;
    use crowd4u_collab::Scheme;
    use crowd4u_core::error::{ProjectId, TaskId};
    use crowd4u_core::events::PlatformEvent;
    use crowd4u_crowd::profile::WorkerProfile;
    use crowd4u_forms::admin::DesiredFactors;

    const SRC: &str = "\
rel item(x: str).
open label(x: str) -> (y: str) points 1.
rel out(x: str, y: str).
out(X, Y) :- item(X), label(X, Y).
";

    fn runtime(shards: usize) -> ShardedRuntime {
        ShardedRuntime::new(RuntimeConfig {
            shards,
            drain_every: 0,
            mailbox_capacity: 1024,
            recovery: false,
        })
    }

    fn worker(i: u64) -> PlatformEvent {
        PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
        }
    }

    fn project(name: &str) -> PlatformEvent {
        PlatformEvent::ProjectRegistered {
            name: name.into(),
            source: SRC.into(),
            factors: DesiredFactors {
                min_team: 2,
                max_team: 3,
                recruitment_secs: 600,
                ..Default::default()
            },
            scheme: Scheme::Simultaneous,
            owner: 0,
        }
    }

    #[test]
    fn snapshot_reads_the_whole_registry_with_no_loads_when_idle() {
        let rt = runtime(2);
        for w in 1..=5 {
            rt.submit(worker(w));
        }
        rt.drain();
        let snap = market_snapshot(&rt, None);
        assert_eq!(snap.candidates.len(), 5);
        assert!(snap.loads.is_empty());
        let team = propose_team(
            &rt,
            None,
            &LocalSearch::default(),
            &TeamConstraints::sized(2, 3),
        );
        assert!(team.is_some(), "idle full crowd must be feasible");
        rt.finish().unwrap();
    }

    #[test]
    fn busy_workers_are_passed_over_across_applications() {
        // Workers 1–3 get suggested onto a collab team in project 1;
        // a marketplace proposal for the *next* task must prefer the
        // idle workers 4–6 even though project 1's assignment never
        // saw them.
        let rt = runtime(2);
        for w in 1..=6 {
            rt.submit(worker(w));
        }
        rt.submit(project("app-a"));
        rt.drain();
        rt.submit(PlatformEvent::CollabTaskCreated {
            project: ProjectId(1),
            description: "first team".into(),
        });
        let task = TaskId::compose(ProjectId(1), 1);
        for w in 1..=3 {
            rt.submit(PlatformEvent::InterestExpressed {
                worker: WorkerId(w),
                task,
            });
        }
        rt.submit(PlatformEvent::AssignmentRun { task });
        rt.drain();

        let snap = market_snapshot(&rt, None);
        assert!(
            !snap.loads.is_empty(),
            "assignment should have suggested a team: {:?}",
            snap.loads
        );
        let team = propose_team(
            &rt,
            None,
            &LocalSearch::default(),
            &TeamConstraints::sized(2, 3),
        )
        .expect("six registered workers can field a team");
        for w in &team.members {
            assert_eq!(
                snap.loads.get(w),
                None,
                "busy worker {w} picked while idle workers were available"
            );
        }
        rt.finish().unwrap();
    }
}
