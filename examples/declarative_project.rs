//! A fully declarative project: the CyLog description defines *both* the
//! task data-flow and the eligibility policy (§2.2: Eligible "is computed
//! by the CyLog processor using the project description and worker human
//! factors"), while a pluggable decomposer breaks the source document into
//! micro-task seeds (§2.1: "Crowd4U can use any task decomposition
//! algorithm").
//!
//! Run with: `cargo run --example declarative_project`

use crowd4u::collab::Scheme;
use crowd4u::core::prelude::*;
use crowd4u::crowd::profile::{WorkerId, WorkerProfile};
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::storage::prelude::Value;

const PROJECT: &str = "\
// --- who may work: only logged-in native English speakers (§2.2) ---
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_native(W, \"en\").

// --- what to do: caption every sentence of the announcement ---
rel sentence(sid: id, text: str).
open caption(sid: id, text: str) -> (caption: str) points 2.
rel captioned(sid: id, caption: str).
captioned(S, C) :- sentence(S, T), caption(S, T, C).
rel progress(n: int).
progress(count<S>) :- captioned(S, _).
";

fn main() -> Result<(), PlatformError> {
    let mut platform = Crowd4U::new();
    platform.register_worker(WorkerProfile::new(WorkerId(1), "ann").with_native_lang("en"));
    platform.register_worker(WorkerProfile::new(WorkerId(2), "bea").with_native_lang("en"));
    platform.register_worker(WorkerProfile::new(WorkerId(3), "chie").with_native_lang("ja"));

    let project = platform.register_project(
        "announcement captions",
        PROJECT,
        DesiredFactors::default(),
        Scheme::Sequential,
    )?;
    println!(
        "project uses declarative eligibility: {}\n",
        uses_declarative_eligibility(&platform.project(project)?.engine)
    );

    // Decompose the source document into sentences with a pluggable algorithm.
    let document = "Crowd4U is open to everyone. Tasks are declarative! \
                    Teams form on affinity. Join us today?";
    let splitter: Box<dyn Decomposer> = Box::new(SentenceSplitter);
    for piece in splitter.decompose(document) {
        println!("decomposed {piece}");
        platform.seed_fact(
            project,
            "sentence",
            vec![Value::Id(piece.index as u64 + 1), Value::Str(piece.content)],
        )?;
    }
    let n = platform.sync_tasks(project)?;
    println!("\n{n} micro-tasks registered");

    // The Japanese speaker is filtered out *by the CyLog rules*.
    let task = platform.pool().open_tasks(Some(project))[0].id;
    println!(
        "eligible for {task}: {:?}",
        platform.relations().eligible_workers(task)
    );

    // The eligible workers caption everything, alternating.
    let open: Vec<TaskId> = platform
        .pool()
        .open_tasks(Some(project))
        .iter()
        .map(|t| t.id)
        .collect();
    for (k, t) in open.iter().enumerate() {
        let worker = WorkerId(1 + (k % 2) as u64);
        let text = match &platform.pool().get(*t)?.body {
            TaskBody::Micro { inputs, .. } => inputs[1].to_string(),
            _ => continue,
        };
        platform.submit_micro_answer(worker, *t, vec![Value::Str(format!("[CC] {text}"))])?;
    }
    platform.sync_tasks(project)?;

    let engine = &platform.project(project)?.engine;
    println!("\nprogress: {}", engine.facts("progress")?.rows[0][0]);
    for row in &engine.facts("captioned")?.rows {
        println!("  {row}");
    }
    println!(
        "\npoints: ann={} bea={} chie={}",
        platform.points_of(WorkerId(1)),
        platform.points_of(WorkerId(2)),
        platform.points_of(WorkerId(3)),
    );
    Ok(())
}
