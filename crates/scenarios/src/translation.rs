//! Demo scenario 1 (paper §2.5): video subtitle generation and translation.
//!
//! "Workers are instructed to first transcribe speech into text in order to
//! generate subtitles in the original language. Then, other workers are
//! asked to translate the resulting subtitles into the target language. It
//! has been shown that for text translation, sequential coordination
//! whereby workers improve each others' contributions, is the most
//! effective scheme."
//!
//! The CyLog program chains three open predicates — transcribe → translate
//! → review — so each human answer dynamically generates the next question
//! (sequential collaboration, §2.3). A team is formed once per batch; its
//! members perform the passes in rotation, and per-item quality follows the
//! sequential improvement model.

use crate::config::{ScenarioConfig, ScenarioReport};
use crate::driver::Driver;
use crowd4u_collab::prelude::*;
use crowd4u_collab::Scheme;
use crowd4u_core::prelude::*;
use crowd4u_crowd::profile::WorkerId;
use crowd4u_storage::prelude::Value;

const CYLOG: &str = "\
rel utterance(uid: id, speech: str).
open transcribe(uid: id, speech: str) -> (subtitle: str) points 2.
open translate(uid: id, subtitle: str) -> (translated: str) points 3.
open review(uid: id, translated: str) -> (ok: bool) points 1.
rel published(uid: id, translated: str).
published(U, T) :- utterance(U, S), transcribe(U, S, SUB), translate(U, SUB, T), review(U, T, OK), OK = true.
";

/// Run the translation scenario on a fresh platform.
pub fn run(config: &ScenarioConfig) -> Result<ScenarioReport, PlatformError> {
    let mut d = Driver::new(config);
    run_on(&mut d, config)
}

/// Run the translation scenario on a prepared [`Driver`] — the entry point
/// the sharded runtime uses against a shard's resident platform. All
/// report accounting is scenario-scoped (counter deltas, per-project
/// points), so earlier scenarios on the same platform don't leak in.
pub fn run_on(d: &mut Driver, config: &ScenarioConfig) -> Result<ScenarioReport, PlatformError> {
    let teams_before = d.platform.counters().teams_suggested;
    let misses_before = d.platform.counters().deadlines_missed;
    let proj = d.collab_project(
        "video subtitle translation",
        CYLOG,
        config,
        Scheme::Sequential,
        Some("translation"),
    )?;

    // Seed the utterances (the video's sentences).
    for i in 0..config.items {
        d.platform.seed_fact(
            proj,
            "utterance",
            vec![
                Value::Id(i as u64 + 1),
                Value::Str(format!("speech segment {i}")),
            ],
        )?;
    }

    // Form the batch team through the collaborative task.
    let batch = d.platform.create_collab_task(proj, "subtitle the video")?;
    d.collect_interest(batch)?;
    let Some(team) = d.form_team(batch, 4)? else {
        // No team at all: report an empty run (requester must relax input).
        return Ok(empty_report(d, config, teams_before, misses_before));
    };
    let team_affinity = d.team_affinity(&team.members);

    // Per-item sequential flows tracked alongside the CyLog pipeline.
    let mut flows: Vec<Option<SequentialFlow>> = (0..config.items).map(|_| None).collect();
    let mut qualities = Vec::new();
    let mut answers = 0u64;
    let mut rotation = 0usize;
    let next_worker = |rotation: &mut usize, exclude: Option<WorkerId>| -> WorkerId {
        // Round-robin over the team, skipping the previous worker so
        // "workers improve each others' contributions".
        loop {
            let w = team.members[*rotation % team.members.len()];
            *rotation += 1;
            if Some(w) != exclude {
                return w;
            }
        }
    };

    // Drive the CyLog task pool until no open questions remain. Each round
    // schedules every answer as a timed event (sequential scheme: one
    // worker after another, so delivery times accumulate) and pumps them
    // through the platform; the closing drain synchronises the project and
    // surfaces the next pass's questions.
    d.platform.sync_tasks(proj)?;
    loop {
        let open: Vec<(TaskId, String, Vec<Value>)> = d
            .platform
            .pool()
            .open_tasks(Some(proj))
            .iter()
            .filter_map(|t| match &t.body {
                TaskBody::Micro {
                    predicate, inputs, ..
                } => Some((t.id, predicate.clone(), inputs.clone())),
                _ => None,
            })
            .collect();
        if open.is_empty() {
            break;
        }
        let done_before = d.platform.counters().micro_tasks_completed;
        let mut at = d.platform.now();
        for (task, pred, inputs) in open {
            let uid = inputs[0].as_id().expect("uid input") as usize - 1;
            let last = flows[uid]
                .as_ref()
                .and_then(|f| f.artifact().history.last().map(|p| p.worker));
            let worker = next_worker(&mut rotation, last);
            let skill_q = d
                .crowd
                .agent_mut(worker)
                .map(|a| a.produce_quality(Some("translation")))
                .unwrap_or(0.5);
            let delay = d
                .crowd
                .agent_mut(worker)
                .map(|a| a.response_delay())
                .unwrap_or_default();
            at += delay;
            let outputs: Vec<Value> = match pred.as_str() {
                "transcribe" => {
                    let art = Artifact::produced_by(worker, format!("sub-{uid}"), skill_q);
                    flows[uid] = Some(SequentialFlow::start(
                        SequentialPipeline::translation(1),
                        art,
                    ));
                    vec![Value::Str(format!("sub-{uid}"))]
                }
                "translate" => {
                    if let Some(flow) = flows[uid].as_mut() {
                        let _ = flow.advance(worker, format!("fr-sub-{uid}"), skill_q);
                    }
                    vec![Value::Str(format!("fr-sub-{uid}"))]
                }
                "review" => {
                    let q = flows[uid]
                        .as_mut()
                        .map(|flow| {
                            let _ = flow.advance(worker, "", skill_q);
                            flow.artifact().quality
                        })
                        .unwrap_or(0.0);
                    let ok = q >= 0.5;
                    if ok {
                        qualities.push(q);
                    }
                    vec![Value::Bool(ok)]
                }
                other => panic!("unexpected open predicate {other}"),
            };
            d.schedule_at(
                at,
                PlatformEvent::AnswerSubmitted {
                    worker,
                    task,
                    outputs,
                },
            );
            answers += 1;
        }
        d.pump()?;
        // Defensive: if no scheduled answer landed, stop rather than spin.
        if d.platform.counters().micro_tasks_completed == done_before {
            break;
        }
    }

    // Close out the batch task with the mean quality.
    let mean_quality = if qualities.is_empty() {
        0.0
    } else {
        qualities.iter().sum::<f64>() / qualities.len() as f64
    };
    d.platform.complete_collab_task(batch, mean_quality)?;

    let published = d.platform.project(proj)?.engine.fact_count("published")?;
    // Points are project-scoped so scenarios sharing a platform (one shard
    // running several jobs) don't contaminate each other's reports.
    let engine = &d.platform.project(proj)?.engine;
    let points: i64 = team.members.iter().map(|m| engine.points_of(m.0)).sum();
    Ok(ScenarioReport {
        scheme: Scheme::Sequential,
        items_completed: published,
        items_total: config.items,
        mean_quality,
        makespan: d.elapsed(),
        answers,
        teams_formed: d.platform.counters().teams_suggested - teams_before,
        reassignments: d.platform.counters().deadlines_missed - misses_before,
        mean_team_affinity: team_affinity,
        points_awarded: points,
    })
}

fn empty_report(
    d: &Driver,
    config: &ScenarioConfig,
    teams_before: u64,
    misses_before: u64,
) -> ScenarioReport {
    ScenarioReport {
        scheme: Scheme::Sequential,
        items_completed: 0,
        items_total: config.items,
        mean_quality: 0.0,
        makespan: d.elapsed(),
        answers: 0,
        // Teams may have been suggested and still never fully undertaken;
        // count them like the successful path does (and like the
        // platform's own per-project accounting does) instead of
        // hard-coding zero.
        teams_formed: d.platform.counters().teams_suggested - teams_before,
        reassignments: d.platform.counters().deadlines_missed - misses_before,
        mean_team_affinity: 0.0,
        points_awarded: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_pipeline_publishes_items() {
        let cfg = ScenarioConfig::default()
            .with_crowd(40)
            .with_items(6)
            .with_seed(3);
        let r = run(&cfg).unwrap();
        assert_eq!(r.scheme, Scheme::Sequential);
        assert!(r.items_completed > 0, "nothing published: {r}");
        assert!(r.items_completed <= 6);
        // 3 answers per published item at minimum
        assert!(r.answers >= 3 * r.items_completed as u64);
        assert!(r.mean_quality > 0.4, "quality too low: {r}");
        assert!(r.points_awarded > 0);
        assert!(r.makespan.ticks() > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ScenarioConfig::default()
            .with_crowd(30)
            .with_items(4)
            .with_seed(11);
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a.items_completed, b.items_completed);
        assert_eq!(a.answers, b.answers);
        assert!((a.mean_quality - b.mean_quality).abs() < 1e-12);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = run(&ScenarioConfig::default()
            .with_crowd(30)
            .with_items(4)
            .with_seed(1))
        .unwrap();
        let b = run(&ScenarioConfig::default()
            .with_crowd(30)
            .with_items(4)
            .with_seed(2))
        .unwrap();
        // At least one observable differs (makespan is effectively continuous).
        assert!(
            a.makespan != b.makespan || a.answers != b.answers || a.mean_quality != b.mean_quality
        );
    }

    #[test]
    fn tiny_crowd_reports_gracefully() {
        let cfg = ScenarioConfig {
            crowd: 2,
            min_team: 5,
            max_team: 6,
            items: 2,
            ..Default::default()
        };
        let r = run(&cfg).unwrap();
        assert_eq!(r.items_completed, 0);
        assert_eq!(r.answers, 0);
    }
}
