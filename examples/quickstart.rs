//! Quickstart: the full Crowd4U deployment pipeline of paper Figure 1 —
//! task decomposition → task assignment → task completion — on a small
//! simulated crowd.
//!
//! Run with: `cargo run --example quickstart`

use crowd4u::collab::Scheme;
use crowd4u::core::pages::{admin_page, user_page};
use crowd4u::core::prelude::*;
use crowd4u::crowd::profile::{WorkerId, WorkerProfile};
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::storage::prelude::Value;

fn main() -> Result<(), PlatformError> {
    let mut platform = Crowd4U::new();

    // --- the crowd signs up, each with human factors (paper Fig. 4) ---
    for (i, (name, lang, skill)) in [
        ("ann", "en", 0.9),
        ("bob", "en", 0.7),
        ("chika", "ja", 0.8),
        ("dai", "ja", 0.6),
        ("emma", "fr", 0.75),
    ]
    .iter()
    .enumerate()
    {
        platform.register_worker(
            WorkerProfile::new(WorkerId(i as u64 + 1), *name)
                .with_native_lang(*lang)
                .with_skill("translation", *skill),
        );
    }
    println!("registered {} workers\n", platform.workers.len());

    // --- a requester registers a declarative project (CyLog, §2.1) ---
    let cylog = "\
rel sentence(sid: id, text: str).
open translate(sid: id, text: str) -> (translated: str) points 3.
rel published(sid: id, translated: str).
published(S, T) :- sentence(S, X), translate(S, X, T).
";
    let factors = DesiredFactors {
        skill_name: Some("translation".into()),
        min_quality: 0.6,
        min_team: 2,
        max_team: 3,
        ..Default::default()
    };
    let project = platform.register_project("quickstart", cylog, factors, Scheme::Sequential)?;

    // --- decomposition: sentences become micro-tasks via CyLog demands ---
    for (i, text) in ["hello world", "good morning", "see you soon"]
        .iter()
        .enumerate()
    {
        platform.seed_fact(
            project,
            "sentence",
            vec![Value::Id(i as u64 + 1), Value::Str((*text).into())],
        )?;
    }
    let generated = platform.sync_tasks(project)?;
    println!("CyLog processor generated {generated} micro-tasks\n");

    // --- a worker's view (user page) ---
    println!("{}", user_page(&platform, WorkerId(1))?);

    // --- workers answer the open questions ---
    let open: Vec<TaskId> = platform
        .pool()
        .open_tasks(Some(project))
        .iter()
        .map(|t| t.id)
        .collect();
    for (k, task) in open.iter().enumerate() {
        let worker = WorkerId((k % 2) as u64 + 1);
        let inputs = match &platform.pool().get(*task)?.body {
            TaskBody::Micro { inputs, .. } => inputs.clone(),
            _ => continue,
        };
        let translated = format!("[fr] {}", inputs[1]);
        platform.submit_micro_answer(worker, *task, vec![Value::Str(translated)])?;
    }
    platform.sync_tasks(project)?;

    // --- team assignment for a collaborative task (workflow §2.2.1) ---
    let team_task = platform.create_collab_task(project, "review the whole subtitle file")?;
    for w in platform.workers.ids() {
        if platform.relations().is_eligible(w, team_task) {
            platform.express_interest(w, team_task)?;
        }
    }
    match platform.run_assignment(team_task) {
        Ok(team) => {
            println!("suggested team: {team}");
            for &m in &team.members {
                platform.undertake(m, team_task)?;
            }
            platform.complete_collab_task(team_task, 0.85)?;
            println!("collaborative task completed by the team\n");
        }
        Err(PlatformError::NoFeasibleTeam { .. }) => {
            println!("no feasible team — requester should relax constraints\n");
        }
        Err(e) => return Err(e),
    }

    // --- results & bookkeeping ---
    let published = platform.project(project)?.engine.facts("published")?;
    println!("published translations:");
    for row in &published.rows {
        println!("  {row}");
    }
    println!();
    println!(
        "{}",
        admin_page(&platform, project, &["translation"], &["en", "ja", "fr"])?
    );
    println!("\nplatform counters: {:#?}", platform.counters());
    println!(
        "project counters: {:?}",
        platform.project(project)?.counters
    );
    Ok(())
}
