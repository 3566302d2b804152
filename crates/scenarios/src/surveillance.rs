//! Demo scenario 3 (paper §2.5): surveillance with hybrid coordination.
//!
//! "The goal of this task is to collect as much data about facts and
//! testimonials in different geographic regions and at different time
//! periods. Under this scheme, some workers contribute to fact collection
//! in a sequence, correcting each others' observations, and others provide
//! testimonials separately and simultaneously."
//!
//! Per region: a surveillance *team* (formed on affinity — same-area
//! workers pair better, §2.2) observes and corrects sequentially, while
//! non-team witnesses testify simultaneously; the hybrid flow joins both.

use crate::config::{ScenarioConfig, ScenarioReport};
use crate::driver::Driver;
use crowd4u_collab::prelude::*;
use crowd4u_collab::Scheme;
use crowd4u_core::prelude::*;
use crowd4u_crowd::profile::WorkerId;
use crowd4u_storage::prelude::Value;

const CYLOG: &str = "\
rel region(rid: id, name: str).
open confirm(rid: id, name: str) -> (credible: bool) points 1.
rel verified(rid: id).
verified(R) :- region(R, N), confirm(R, N, OK), OK = true.
";

/// Run the surveillance scenario on a fresh platform.
pub fn run(config: &ScenarioConfig) -> Result<ScenarioReport, PlatformError> {
    let mut d = Driver::new(config);
    run_on(&mut d, config)
}

/// Run the surveillance scenario on a prepared [`Driver`] — the entry
/// point the sharded runtime uses against a shard's resident platform.
/// Report accounting is scenario-scoped (counter deltas, per-project
/// points).
pub fn run_on(d: &mut Driver, config: &ScenarioConfig) -> Result<ScenarioReport, PlatformError> {
    let teams_before = d.platform.counters().teams_suggested;
    let misses_before = d.platform.counters().deadlines_missed;
    let proj = d.collab_project(
        "surveillance",
        CYLOG,
        config,
        Scheme::Hybrid,
        Some("surveillance"),
    )?;

    let mut reports: Vec<SurveillanceReport> = Vec::new();
    let mut answers = 0u64;
    let mut affinities = Vec::new();

    for i in 0..config.items {
        let rid = i as u64 + 1;
        let region_name = format!("region-{i}");
        d.platform.seed_fact(
            proj,
            "region",
            vec![Value::Id(rid), Value::Str(region_name.clone())],
        )?;
        let task = d
            .platform
            .create_collab_task(proj, format!("surveil {region_name}"))?;
        d.collect_interest(task)?;
        let Some(team) = d.form_team(task, 3)? else {
            continue;
        };
        let aff = d.team_affinity(&team.members);
        affinities.push(aff);

        // Sequential track: observations + corrections within the team.
        let mut flow = HybridFlow::new();
        let mut max_delay = crowd4u_sim::time::SimDuration::ZERO;
        for (k, &obs) in team.members.iter().enumerate() {
            let (q, delay) = d
                .crowd
                .agent_mut(obs)
                .map(|a| (a.produce_quality(Some("surveillance")), a.response_delay()))
                .unwrap_or((0.5, Default::default()));
            // Observation rounds happen in sequence: time accumulates.
            d.pass_time(delay)?;
            let fact = flow
                .observe(
                    obs,
                    region_name.clone(),
                    format!("fact {k} in {region_name}"),
                    q,
                )
                .map_err(|e| PlatformError::BadTaskState {
                    task,
                    state: e.to_string(),
                })?;
            // The next teammate corrects the observation.
            let corrector = team.members[(k + 1) % team.members.len()];
            if corrector != obs {
                let cq = d
                    .crowd
                    .agent_mut(corrector)
                    .map(|a| a.produce_quality(Some("surveillance")))
                    .unwrap_or(0.5);
                flow.correct(fact, corrector, cq)
                    .map_err(|e| PlatformError::BadTaskState {
                        task,
                        state: e.to_string(),
                    })?;
                answers += 1;
            }
            answers += 1;
        }

        // Simultaneous track: witnesses outside the team testify in parallel.
        let witnesses: Vec<WorkerId> = d
            .platform
            .workers
            .iter_ids()
            .filter(|w| !team.members.contains(w))
            .take(6)
            .collect();
        let mut witness_qs = Vec::new();
        for &w in &witnesses {
            let Some(agent) = d.crowd.agent_mut(w) else {
                continue;
            };
            if !agent.declares_interest() {
                continue;
            }
            let delay = agent.response_delay();
            if delay > max_delay {
                max_delay = delay;
            }
            let q = agent.produce_quality(Some("surveillance"));
            witness_qs.push(q);
            flow.testify(w, region_name.clone(), format!("testimony by {w}"), q)
                .map_err(|e| PlatformError::BadTaskState {
                    task,
                    state: e.to_string(),
                })?;
            answers += 1;
        }
        d.pass_time(max_delay)?;
        let witness_ids: Vec<WorkerId> = witnesses;
        let witness_aff = d.team_affinity(&witness_ids);
        let report = flow
            .close(witness_aff)
            .map_err(|e| PlatformError::BadTaskState {
                task,
                state: e.to_string(),
            })?;
        d.platform
            .complete_collab_task(task, report.overall_quality)?;

        // The confirm micro-tasks: a team member vouches for the region
        // when the report is strong enough. Ingested as one event batch.
        d.platform.sync_tasks(proj)?;
        let voucher = team.members[0];
        let credible = report.overall_quality >= 0.5;
        let vouch_events: Vec<PlatformEvent> = d
            .platform
            .pool()
            .open_tasks(Some(proj))
            .iter()
            .filter(|t| t.is_micro() && d.platform.relations().is_eligible(voucher, t.id))
            .map(|t| PlatformEvent::AnswerSubmitted {
                worker: voucher,
                task: t.id,
                outputs: vec![Value::Bool(credible)],
            })
            .collect();
        let batch = d.platform.apply_batch(vouch_events)?;
        answers += batch.applied as u64;
        reports.push(report);
    }
    d.platform.drain_events()?;

    let verified = d.platform.project(proj)?.engine.fact_count("verified")?;
    let mean_quality = if reports.is_empty() {
        0.0
    } else {
        reports.iter().map(|r| r.overall_quality).sum::<f64>() / reports.len() as f64
    };
    let mean_aff = if affinities.is_empty() {
        0.0
    } else {
        affinities.iter().sum::<f64>() / affinities.len() as f64
    };
    // Project-scoped points: only this scenario's project contributes.
    let points: i64 = d
        .platform
        .project(proj)?
        .engine
        .leaderboard()
        .iter()
        .map(|(_, pts)| pts)
        .sum();
    Ok(ScenarioReport {
        scheme: Scheme::Hybrid,
        items_completed: verified,
        items_total: config.items,
        mean_quality,
        makespan: d.elapsed(),
        answers,
        teams_formed: d.platform.counters().teams_suggested - teams_before,
        reassignments: d.platform.counters().deadlines_missed - misses_before,
        mean_team_affinity: mean_aff,
        points_awarded: points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surveillance_verifies_regions() {
        let cfg = ScenarioConfig::default()
            .with_crowd(50)
            .with_items(4)
            .with_seed(17);
        let r = run(&cfg).unwrap();
        assert_eq!(r.scheme, Scheme::Hybrid);
        assert!(r.items_completed > 0, "no regions verified: {r}");
        assert!(r.mean_quality > 0.3);
        assert!(r.answers > r.items_completed as u64 * 3);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ScenarioConfig::default()
            .with_crowd(30)
            .with_items(3)
            .with_seed(6);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.items_completed, b.items_completed);
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn corrections_lift_quality_over_raw_observation() {
        // With hybrid coordination, correction + testimony lifts quality
        // over what a lone average observer would produce (~0.6-0.7).
        let cfg = ScenarioConfig::default()
            .with_crowd(60)
            .with_items(5)
            .with_seed(23);
        let r = run(&cfg).unwrap();
        assert!(
            r.mean_quality > 0.55,
            "hybrid coordination should lift quality: {r}"
        );
    }
}
