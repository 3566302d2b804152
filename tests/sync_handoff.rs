//! Differential property for the engine→platform demand hand-off.
//!
//! `sync_tasks` registers a micro-task only for the demands the project's
//! engine enqueued since the previous hand-off — it never revisits the
//! backlog. This test pins what that must not change. A reference platform
//! and a *migrating* twin (the project is extracted and adopted into a
//! second instance at random points, as `migrate_project` does) are driven
//! through the same random stream, and after every step they must agree on
//! every task, its state and eligible workers, and on the engine's pending
//! queue and facts. After every successful sync, on both:
//!
//! * each entry of `pending_requests()` has exactly one registered,
//!   open micro-task;
//! * no question — answered or not — ever has a second task.
//!
//! The stream covers the interleavings the hand-off has to survive:
//! an out-of-band answer (a seeded `judge` fact) before the first sync;
//! the engine run *outside* a sync (a declarative project runs its engine
//! inside `eligible_set`, e.g. on `create_collab_task` or a worker
//! registration) with answers landing before the sync that follows;
//! every run reading the worker registry as it stands (a login seeds the
//! run with the worker's rows; a logout takes a row away and forces a
//! full recompute, so every demand is computed again); syncs that fail —
//! the program divides by `online workers − 3`, so a third online worker
//! poisons the fixpoint at the top of the sync — and are retried once a
//! registration moves the count; and migration with demands enqueued but
//! not yet handed off, the migrated engine catching up with registrations
//! its new instance installed.

use crowd4u::collab::Scheme;
use crowd4u::core::error::{ProjectId, WorkerId};
use crowd4u::core::platform::Crowd4U;
use crowd4u::core::task::{TaskBody, TaskState};
use crowd4u::crowd::profile::WorkerProfile;
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::storage::prelude::Value;
use crowd4u::storage::snapshot;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Two-stage open questions (an answer to `judge` raises a `confirm`
/// demand), declarative eligibility, and a rule that fails at run time
/// when exactly three workers are online.
const SRC: &str = "\
rel worker(w: id).
rel worker_online(w: id).
rel eligible(w: id).
eligible(W) :- worker_online(W).
rel online(n: int).
online(count<W>) :- worker_online(W).
rel headroom(z: int).
headroom(Z) :- online(N), Z := 12 / (N - 3).
rel item(x: id).
open judge(x: id) -> (ok: bool) points 1.
open confirm(x: id, ok: bool) -> (sure: bool) points 1.
rel good(x: id).
good(X) :- item(X), judge(X, OK), confirm(X, OK, S), S = true.
";

const P: ProjectId = ProjectId(1);
const WORKERS: u64 = 4;
const ITEMS: u64 = 10;

fn profile(id: u64, online: bool) -> WorkerProfile {
    let mut p = WorkerProfile::new(WorkerId(id), format!("w{id}"));
    p.factors.logged_in = online;
    p
}

fn fresh_platform() -> Crowd4U {
    let mut p = Crowd4U::new();
    // Two online, two offline: the poisoned count (3) is one login away.
    for w in 1..=WORKERS {
        p.register_worker(profile(w, w <= 2));
    }
    p.register_project(
        "handoff",
        SRC,
        DesiredFactors {
            min_team: 1,
            max_team: 2,
            ..Default::default()
        },
        Scheme::Sequential,
    )
    .unwrap();
    p
}

/// The migrating twin: two instances that both see every worker
/// registration (as the runtime's shards do); the project lives on one.
struct Twin {
    shards: [Crowd4U; 2],
    owner: usize,
}

impl Twin {
    fn new() -> Twin {
        Twin {
            shards: [fresh_platform(), fresh_platform()],
            owner: 0,
        }
    }

    fn home(&mut self) -> &mut Crowd4U {
        &mut self.shards[self.owner]
    }

    fn migrate(&mut self) {
        let slice = self.home().extract_project(P).unwrap();
        self.owner = 1 - self.owner;
        self.home().adopt_project(slice);
    }
}

/// One step of the stream, applied to one platform. Returns whether the
/// step succeeded (both sides must agree).
fn apply(p: &mut Crowd4U, op: &Op) -> bool {
    match *op {
        Op::SeedItem(k) => p.seed_fact(P, "item", vec![Value::Id(k)]).is_ok(),
        Op::SeedJudge(k, ok) => p
            .seed_fact(P, "judge", vec![Value::Id(k), ok.into()])
            .is_ok(),
        Op::Answer(k, ok) => {
            // Whichever open question about item `k` has a task: the
            // judge question first, else its confirmation.
            let open = |t: &&crowd4u::core::task::Task| matches!(t.state, TaskState::Open);
            let task = p
                .pool()
                .find_micro(P, "judge", &[Value::Id(k)])
                .filter(open)
                .or_else(|| {
                    [true, false].into_iter().find_map(|j| {
                        p.pool()
                            .find_micro(P, "confirm", &[Value::Id(k), j.into()])
                            .filter(open)
                    })
                })
                .map(|t| t.id);
            let Some(task) = task else { return false };
            let Some(&worker) = p.relations().eligible_workers(task).first() else {
                return false;
            };
            p.submit_micro_answer(worker, task, vec![ok.into()]).is_ok()
        }
        Op::Register(w, online) => {
            p.register_worker(profile(w, online));
            true
        }
        Op::Collab => p.create_collab_task(P, "review").is_ok(),
        Op::Sync => p.sync_tasks(P).is_ok(),
        Op::SyncUnknown => p.sync_tasks(ProjectId(99)).is_ok(),
        Op::Drain => p.drain_events().is_ok(),
        Op::Migrate => true,
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    SeedItem(u64),
    SeedJudge(u64, bool),
    Answer(u64, bool),
    Register(u64, bool),
    Collab,
    Sync,
    SyncUnknown,
    Drain,
    Migrate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..16, 1u64..ITEMS + 1, any::<bool>()).prop_map(|(kind, k, flag)| match kind {
        0..=2 => Op::SeedItem(k),
        3 => Op::SeedJudge(k, flag),
        4..=7 => Op::Answer(k, flag),
        8 | 9 => Op::Register(1 + k % WORKERS, flag),
        10 => Op::Collab,
        11 | 12 => Op::Sync,
        13 => Op::Drain,
        14 => Op::Migrate,
        _ => Op::SyncUnknown,
    })
}

/// Everything about the project that must not depend on whether (or when)
/// it migrated.
fn view(p: &Crowd4U) -> String {
    use std::fmt::Write as _;
    let engine = &p.project(P).unwrap().engine;
    let mut out = snapshot::dump(engine.database());
    for r in engine.pending_requests().iter() {
        let _ = writeln!(out, "pending {} {:?}", r.pred_name, r.inputs);
    }
    for t in p.pool().iter() {
        let _ = writeln!(
            out,
            "{t} {:?} eligible {:?}",
            t.state,
            p.relations().eligible_workers(t.id)
        );
    }
    out
}

/// The hand-off invariants, checked after a successful sync.
fn check_synced(p: &Crowd4U) -> Result<(), TestCaseError> {
    let mut tasks_of: BTreeMap<(String, Vec<Value>), Vec<&TaskState>> = BTreeMap::new();
    for t in p.pool().iter() {
        if let TaskBody::Micro {
            predicate, inputs, ..
        } = &t.body
        {
            tasks_of
                .entry((predicate.clone(), inputs.clone()))
                .or_default()
                .push(&t.state);
        }
    }
    for (question, states) in &tasks_of {
        prop_assert_eq!(
            states.len(),
            1,
            "{:?} registered {} times",
            question,
            states.len()
        );
    }
    for r in p.project(P).unwrap().engine.pending_requests().iter() {
        let states = tasks_of.get(&(r.pred_name.clone(), r.inputs.clone()));
        prop_assert!(
            matches!(states.map(Vec::as_slice), Some([TaskState::Open])),
            "pending {} {:?} has tasks {:?}, want exactly one open",
            r.pred_name,
            r.inputs,
            states
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sync_registers_each_new_demand_once_with_or_without_migration(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let mut reference = fresh_platform();
        let mut twin = Twin::new();
        for (step, op) in ops.iter().enumerate() {
            if matches!(op, Op::Migrate) {
                twin.migrate();
            }
            let ok = apply(&mut reference, op);
            if let Op::Register(..) = op {
                // Registrations are broadcast; the owner's outcome counts.
                let away = 1 - twin.owner;
                apply(&mut twin.shards[away], op);
            }
            let twin_ok = apply(twin.home(), op);
            prop_assert_eq!(ok, twin_ok, "step {} {:?}: outcomes differ", step, op);
            prop_assert_eq!(
                view(&reference),
                view(twin.home()),
                "step {} {:?}: migration changed the project",
                step,
                op
            );
            if ok && matches!(op, Op::Sync | Op::Drain) {
                check_synced(&reference)?;
                check_synced(twin.home())?;
            }
        }
        // Close every stream with a sync that can succeed, so the
        // invariants are checked at least once per case.
        let online = |p: &Crowd4U| p.workers.profiles().filter(|w| w.factors.logged_in).count();
        if online(&reference) == 3 {
            let op = Op::Register(1, !reference.workers.get(WorkerId(1)).unwrap().factors.logged_in);
            apply(&mut reference, &op);
            apply(&mut twin.shards[0], &op);
            apply(&mut twin.shards[1], &op);
        }
        prop_assert!(apply(&mut reference, &Op::Sync), "closing sync must succeed");
        prop_assert!(apply(twin.home(), &Op::Sync));
        prop_assert_eq!(view(&reference), view(twin.home()));
        check_synced(&reference)?;
        check_synced(twin.home())?;
    }
}

/// The poisoned-fixpoint path, pinned: a sync whose fixpoint fails hands
/// nothing off and stays dirty, and the retry registers each task once.
/// Both runs of a sync (its own and the eligibility run for its new tasks)
/// read the registry as it stands, so the failure comes at the top of the
/// sync, never after the hand-off.
#[test]
fn failed_sync_is_retried_without_re_registering() {
    let mut p = fresh_platform();
    // No open tasks yet, so this login does not run the project engine:
    // the third online worker is first read by the sync's fixpoint.
    p.register_worker(profile(3, true));
    p.seed_fact(P, "item", vec![Value::Id(1)]).unwrap();
    p.seed_fact(P, "item", vec![Value::Id(2)]).unwrap();
    let err = p.sync_tasks(P).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    assert_eq!(p.pool().len(), 0, "the failed fixpoint handed nothing off");
    assert_eq!(p.dirty_projects(), vec![P], "a failed sync stays dirty");

    // A fourth login moves the count off the pole; the retry registers
    // both tasks, and the sync after it finds nothing new.
    p.register_worker(profile(4, true));
    assert_eq!(p.sync_tasks(P).unwrap(), 2);
    assert_eq!(p.sync_tasks(P).unwrap(), 0);
    assert_eq!(p.pool().len(), 2);
    check_synced(&p).unwrap();
    for t in p.pool().iter() {
        assert_eq!(p.relations().eligible_workers(t.id).len(), 4);
    }
}
