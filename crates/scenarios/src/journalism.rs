//! Demo scenario 2 (paper §2.5): citizen journalism.
//!
//! "Workers are instructed to write a short report on a topic of their
//! choice (chosen from a list of available topics). Here, workers can work
//! simultaneously, contributing to different parts of the same text."
//!
//! One collaborative task per topic; the suggested team runs the
//! simultaneous-session protocol (SNS-id solicitation → shared workspace →
//! one member submits for the team).

use crate::config::{ScenarioConfig, ScenarioReport};
use crate::driver::Driver;
use crowd4u_collab::prelude::*;
use crowd4u_collab::Scheme;
use crowd4u_core::prelude::*;
use crowd4u_storage::prelude::Value;

const CYLOG: &str = "\
rel topic(tid: id, title: str).
open headline(tid: id, title: str) -> (headline: str) points 1.
rel report(tid: id, headline: str).
report(T, H) :- topic(T, X), headline(T, X, H).
";

const SECTIONS: [&str; 3] = ["what happened", "context", "witness voices"];

/// Run the citizen-journalism scenario on a fresh platform.
pub fn run(config: &ScenarioConfig) -> Result<ScenarioReport, PlatformError> {
    let mut d = Driver::new(config);
    run_on(&mut d, config)
}

/// Run the citizen-journalism scenario on a prepared [`Driver`] — the
/// entry point the sharded runtime uses against a shard's resident
/// platform. Report accounting is scenario-scoped (counter deltas,
/// per-project points).
pub fn run_on(d: &mut Driver, config: &ScenarioConfig) -> Result<ScenarioReport, PlatformError> {
    let teams_before = d.platform.counters().teams_suggested;
    let misses_before = d.platform.counters().deadlines_missed;
    let proj = d.collab_project(
        "citizen journalism",
        CYLOG,
        config,
        Scheme::Simultaneous,
        Some("journalism"),
    )?;

    let mut qualities = Vec::new();
    let mut answers = 0u64;
    let mut affinities = Vec::new();
    let mut completed = 0usize;

    for i in 0..config.items {
        let tid = i as u64 + 1;
        d.platform.seed_fact(
            proj,
            "topic",
            vec![Value::Id(tid), Value::Str(format!("topic {i}"))],
        )?;
        let task = d
            .platform
            .create_collab_task(proj, format!("report on topic {i}"))?;
        d.collect_interest(task)?;
        let Some(team) = d.form_team(task, 3)? else {
            continue;
        };
        let aff = d.team_affinity(&team.members);
        affinities.push(aff);

        // Simultaneous protocol.
        let mut session =
            SimultaneousSession::new(format!("report {i}"), team.members.clone(), &SECTIONS, aff);
        for &m in &team.members {
            session
                .provide_sns_id(m, format!("{m}@example.net"))
                .map_err(|e| PlatformError::BadTaskState {
                    task,
                    state: e.to_string(),
                })?;
        }
        // Everyone contributes to the section matching their position,
        // wrapping when the team is larger than the section list.
        let mut max_delay = crowd4u_sim::time::SimDuration::ZERO;
        for (k, &m) in team.members.iter().enumerate() {
            let Some(agent) = d.crowd.agent_mut(m) else {
                continue;
            };
            let delay = agent.response_delay();
            if delay > max_delay {
                max_delay = delay;
            }
            let q = agent.produce_quality(Some("journalism"));
            let text = format!("paragraph by {m} on topic {i}");
            session
                .contribute(m, k % SECTIONS.len(), text, q)
                .map_err(|e| PlatformError::BadTaskState {
                    task,
                    state: e.to_string(),
                })?;
            answers += 1;
        }
        // Simultaneous work: elapsed time is the slowest member, not the sum.
        d.pass_time(max_delay)?;
        let (doc, quality) =
            session
                .submit(team.members[0])
                .map_err(|e| PlatformError::BadTaskState {
                    task,
                    state: e.to_string(),
                })?;
        assert_eq!(doc.team.len(), team.members.len());
        qualities.push(quality);
        d.platform.complete_collab_task(task, quality)?;
        completed += 1;

        // The headline micro-tasks go to the submitting member, ingested as
        // one event batch (a single drain syncs the project afterwards).
        d.platform.sync_tasks(proj)?;
        let mut headline_events = Vec::new();
        for t in d.platform.pool().open_tasks(Some(proj)) {
            let TaskBody::Micro { inputs, .. } = &t.body else {
                continue;
            };
            let headline = format!("HEADLINE: {}", inputs[1]);
            let writer = team.members[0];
            if d.platform.relations().is_eligible(writer, t.id) {
                headline_events.push(PlatformEvent::AnswerSubmitted {
                    worker: writer,
                    task: t.id,
                    outputs: vec![Value::Str(headline)],
                });
            }
        }
        let report = d.platform.apply_batch(headline_events)?;
        answers += report.applied as u64;
    }
    d.platform.drain_events()?;

    let mean_quality = if qualities.is_empty() {
        0.0
    } else {
        qualities.iter().sum::<f64>() / qualities.len() as f64
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
        scheme: Scheme::Simultaneous,
        items_completed: completed,
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
    fn journalism_produces_reports() {
        let cfg = ScenarioConfig::default()
            .with_crowd(50)
            .with_items(5)
            .with_seed(21);
        let r = run(&cfg).unwrap();
        assert_eq!(r.scheme, Scheme::Simultaneous);
        assert!(r.items_completed > 0, "no reports: {r}");
        assert!(r.mean_quality > 0.3);
        assert!(r.mean_team_affinity > 0.0);
        assert!(r.answers as usize >= r.items_completed * 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ScenarioConfig::default()
            .with_crowd(30)
            .with_items(3)
            .with_seed(8);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.items_completed, b.items_completed);
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn simultaneous_makespan_beats_item_count_scaling() {
        // Because members work in parallel, makespan grows sublinearly in
        // team size; mostly it tracks item count. Sanity: doubling items
        // should not 10x the makespan.
        let base = run(&ScenarioConfig::default()
            .with_crowd(40)
            .with_items(2)
            .with_seed(4))
        .unwrap();
        let more = run(&ScenarioConfig::default()
            .with_crowd(40)
            .with_items(4)
            .with_seed(4))
        .unwrap();
        assert!(more.makespan.ticks() < base.makespan.ticks() * 10 + 1);
    }
}
