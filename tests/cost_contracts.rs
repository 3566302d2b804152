//! Cost contracts: an event costs the rows it touches, never the backlog it
//! lands in (ARCHITECTURE §12). Each contract drives the same events into a
//! platform holding N and then 4N of the backlog, and compares an exact,
//! observe-only work counter: equal at both sizes, or bounded by what the
//! event itself touches. A contract is not widened to pass.
//!
//! The same holds for team formation: an assignment pays for the pairs of
//! its own candidate pool that changed, never for the crowd or the task
//! backlog around it.

use crowd4u::collab::Scheme;
use crowd4u::core::error::{ProjectId, TaskId, WorkerId};
use crowd4u::core::platform::Crowd4U;
use crowd4u::crowd::profile::{Region, WorkerProfile};
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::storage::prelude::Value;

const JUDGE: &str = "\
rel item(x: int).
open judge(x: int) -> (ok: bool) points 1.
rel good(x: int).
good(X) :- item(X), judge(X, OK), OK = true.
";

const N: i64 = 200;
const W: WorkerId = WorkerId(1);

/// A judge project with `n` open questions, each a synced micro-task that
/// worker 1 is eligible for.
fn judge_platform(n: i64) -> (Crowd4U, ProjectId) {
    let mut p = Crowd4U::new();
    p.register_worker(WorkerProfile::new(W, "w1"));
    let proj = p
        .register_project(
            "judge",
            JUDGE,
            DesiredFactors::default(),
            Scheme::Sequential,
        )
        .unwrap();
    for i in 0..n {
        p.seed_fact(proj, "item", vec![Value::Int(i)]).unwrap();
    }
    assert_eq!(p.sync_tasks(proj).unwrap(), n as usize);
    (p, proj)
}

fn open_tasks(p: &Crowd4U, proj: ProjectId) -> Vec<TaskId> {
    p.pool()
        .open_tasks(Some(proj))
        .iter()
        .map(|t| t.id)
        .collect()
}

fn walked(p: &Crowd4U, proj: ProjectId) -> u64 {
    p.project(proj).unwrap().engine.pending_walked()
}

fn pending(p: &Crowd4U, proj: ProjectId) -> usize {
    p.project(proj).unwrap().engine.pending_requests().len()
}

/// Pending entries walked by answering five questions and syncing, on a
/// project with `n` open questions.
fn walked_by_five_answers_and_a_sync(n: i64) -> u64 {
    let (mut p, proj) = judge_platform(n);
    let before = walked(&p, proj);
    for task in open_tasks(&p, proj).into_iter().take(5) {
        p.submit_micro_answer(W, task, vec![true.into()]).unwrap();
    }
    assert_eq!(p.sync_tasks(proj).unwrap(), 0);
    assert_eq!(pending(&p, proj), n as usize - 5);
    walked(&p, proj) - before
}

/// A sync after a few answers walks none of the pending backlog: the same
/// (zero) entries at N and at 4N open questions, since no eager compaction
/// is due.
#[test]
fn a_sync_never_walks_the_pending_backlog() {
    let small = walked_by_five_answers_and_a_sync(N);
    let large = walked_by_five_answers_and_a_sync(4 * N);
    assert_eq!((small, large), (0, 0));
}

/// Only the answer that leaves answered entries in the majority compacts
/// the queue, and it walks at most twice the questions live before it:
/// the queue never holds more than that.
#[test]
fn the_tipping_answer_walks_at_most_twice_the_live_entries() {
    for n in [N, 4 * N] {
        let (mut p, proj) = judge_platform(n);
        let mut compactions = 0;
        for task in open_tasks(&p, proj) {
            let (live, before) = (pending(&p, proj) as u64, walked(&p, proj));
            p.submit_micro_answer(W, task, vec![true.into()]).unwrap();
            let walk = walked(&p, proj) - before;
            assert!(
                walk <= 2 * live,
                "n = {n}: an answer walked {walk} entries with {live} live"
            );
            compactions += u64::from(walk > 0);
        }
        assert!(compactions > 0, "n = {n}: no answer compacted the queue");
        assert_eq!(pending(&p, proj), 0);
    }
}

/// The candidate pool of the assignment contract: workers `1..=K`.
const K: u64 = 12;

/// A worker of the crowd, its profile varied by id.
fn crowd_worker(i: u64) -> WorkerProfile {
    let x = i as f64;
    WorkerProfile::new(WorkerId(i), format!("w{i}"))
        .with_native_lang(if i.is_multiple_of(2) { "en" } else { "ja" })
        .with_region(Region::new("r", (x * 0.37).fract(), (x * 0.71).fract()))
        .with_skill("survey", (x * 0.13).fract())
}

/// Pairs `(computed, reused)` by three assignments over the same K-worker
/// pool, on a platform hosting `population` workers and `tasks` open
/// collaborative tasks, each with the pool's interest: a first, a repeat,
/// and one after a member of the pool re-registers.
fn pairs_of_three_assignments(population: u64, tasks: u64) -> Vec<(u64, u64)> {
    let mut p = Crowd4U::new();
    for i in 1..=population {
        p.register_worker(crowd_worker(i));
    }
    let factors = DesiredFactors {
        min_team: 2,
        max_team: 4,
        ..Default::default()
    };
    let proj = p
        .register_project("teams", JUDGE, factors, Scheme::Sequential)
        .unwrap();
    let open: Vec<TaskId> = (0..tasks)
        .map(|t| p.create_collab_task(proj, format!("t{t}")).unwrap())
        .collect();
    for &task in &open {
        for w in 1..=K {
            p.express_interest(WorkerId(w), task).unwrap();
        }
    }
    let pairs = |p: &Crowd4U| {
        let c = p.counters();
        (
            c.affinity_pairs_computed.get(),
            c.affinity_pairs_reused.get(),
        )
    };
    let mut work = Vec::new();
    for (n, &task) in open.iter().take(3).enumerate() {
        if n == 2 {
            p.register_worker(crowd_worker(K / 2).with_skill("survey", 0.99));
        }
        let before = pairs(&p);
        p.run_assignment(task).unwrap();
        let after = pairs(&p);
        work.push((after.0 - before.0, after.1 - before.1));
    }
    work
}

/// A repeat assignment computes no pair of its pool and reuses all
/// K(K−1)/2; after one member re-registers, exactly its K−1 pairs are
/// computed — the same at N and 4N workers, and at T and 4T open tasks.
#[test]
fn an_assignment_computes_only_its_pools_changed_pairs() {
    const T: u64 = 8;
    let all = K * (K - 1) / 2;
    let want = vec![(all, 0), (0, all), (K - 1, all - (K - 1))];
    for (population, tasks) in [(N as u64, T), (4 * N as u64, T), (N as u64, 4 * T)] {
        assert_eq!(
            pairs_of_three_assignments(population, tasks),
            want,
            "{population} workers, {tasks} open tasks"
        );
    }
}
