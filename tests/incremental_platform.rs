//! Retraction coverage through the platform. A declarative project's
//! engine reads the worker-factor predicates from the worker registry, so
//! a worker re-registering with changed human factors changes what it
//! reads. A registration that takes a row away (w1 logs out) must (a) make
//! the derived `eligible` fact disappear and (b) force the default
//! incremental engine into its full-recompute fallback (visible in
//! `EvalStats`); one that only adds rows (w3 logs in) is a seeded run with
//! no recompute. Both must (c) stay byte-identical across serial
//! execution, the `ShardedRuntime` at 1/2/4 shards (plus
//! `RUNTIME_SHARDS`), and journal replay.
//!
//! This is the platform-level companion to the engine-level fallback tests
//! in `crowd4u-cylog` and the differential property in
//! `tests/cylog_incremental.rs`: a worker fact shrinks only through a
//! re-registration, never through an explicit retraction event, so this
//! is the path production traffic takes.

use crowd4u::collab::Scheme;
use crowd4u::core::declarative::eligible_workers;
use crowd4u::core::error::{ProjectId, TaskId, WorkerId};
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::crowd::profile::WorkerProfile;
use crowd4u::forms::admin::DesiredFactors;
use crowd4u::runtime::prelude::*;
use crowd4u::sim::time::SimTime;
use crowd4u::storage::prelude::Value;

/// Declarative eligibility (paper §2.2: Eligible "is computed by the CyLog
/// processor") plus a translation pipeline so the project has open tasks.
const DECL_SRC: &str = "\
rel worker(w: id).
rel worker_online(w: id).
rel worker_native(w: id, lang: str).
rel eligible(w: id).
eligible(W) :- worker_online(W), worker_native(W, \"en\").
rel sentence(s: str).
open translate(s: str) -> (t: str) points 2.
rel published(s: str, t: str).
published(S, T) :- sentence(S), translate(S, T).
";

fn profile(id: u64, online: bool) -> WorkerProfile {
    let mut p = WorkerProfile::new(WorkerId(id), format!("w{id}")).with_native_lang("en");
    p.factors.logged_in = online;
    p
}

fn registered(id: u64, online: bool) -> PlatformEvent {
    PlatformEvent::WorkerRegistered {
        profile: profile(id, online),
    }
}

/// Workers, the declarative project, and enough seed facts to open tasks.
fn setup_events() -> Vec<PlatformEvent> {
    let mut events = vec![
        registered(1, true),
        registered(2, true),
        registered(3, false),
    ];
    events.push(PlatformEvent::ProjectRegistered {
        name: "decl-retract".into(),
        source: DECL_SRC.into(),
        factors: DesiredFactors {
            min_team: 1,
            max_team: 3,
            recruitment_secs: 600,
            ..Default::default()
        },
        scheme: Scheme::Sequential,
        owner: 0,
    });
    for i in 0..3 {
        events.push(PlatformEvent::FactSeeded {
            project: ProjectId(1),
            pred: "sentence".into(),
            values: vec![format!("s{i}").into()],
        });
    }
    events
}

/// The retraction-heavy tail: answers interleaved with worker
/// re-registrations whose factor changes retract rows in the project
/// engine (w1 logs out, w3 logs in), then more growth.
fn churn_events() -> Vec<PlatformEvent> {
    let p = ProjectId(1);
    vec![
        PlatformEvent::AnswerSubmitted {
            worker: WorkerId(1),
            task: TaskId::compose(p, 1),
            outputs: vec![Value::Str("t0".into())],
        },
        registered(1, false),
        PlatformEvent::AnswerSubmitted {
            worker: WorkerId(2),
            task: TaskId::compose(p, 2),
            outputs: vec![Value::Str("t1".into())],
        },
        registered(3, true),
        PlatformEvent::FactSeeded {
            project: p,
            pred: "sentence".into(),
            values: vec!["s3".into()],
        },
        PlatformEvent::AnswerSubmitted {
            worker: WorkerId(3),
            task: TaskId::compose(p, 3),
            outputs: vec![Value::Str("t2".into())],
        },
        PlatformEvent::ClockAdvanced {
            to: SimTime(100),
            owner: 0,
        },
    ]
}

/// Direct assertion of the fallback: re-registering a worker logged out
/// takes their `worker_online` row away, the derived `eligible` fact
/// disappears, and `EvalStats` reports a full recompute; logging a worker
/// in takes nothing away and recomputes nothing.
#[test]
fn factor_change_retracts_derived_eligibility_and_recomputes() {
    let mut platform = Crowd4U::new();
    platform.apply_batch(setup_events()).unwrap();
    let pid = ProjectId(1);

    let engine = &platform.project(pid).unwrap().engine;
    let before = eligible_workers(engine).unwrap();
    assert!(
        before.contains(&WorkerId(1)) && before.contains(&WorkerId(2)),
        "online native speakers start eligible: {before:?}"
    );
    assert!(
        !before.contains(&WorkerId(3)),
        "logged-out worker starts ineligible"
    );
    let recomputes_before = engine.cumulative_stats().recomputes;

    // w1 logs out: the re-registration takes `worker_online(1)` away — the
    // incremental engine must fall back.
    platform.apply_batch(vec![registered(1, false)]).unwrap();
    let engine = &platform.project(pid).unwrap().engine;
    let after = eligible_workers(engine).unwrap();
    assert!(
        !after.contains(&WorkerId(1)),
        "derived eligible(1) must disappear after the retraction: {after:?}"
    );
    assert!(after.contains(&WorkerId(2)), "w2 untouched: {after:?}");
    assert!(
        engine.cumulative_stats().recomputes > recomputes_before,
        "retraction during worker re-sync must force a full recompute \
         (before {recomputes_before}, after {})",
        engine.cumulative_stats().recomputes
    );

    // w3 logs in: a row is added and none taken, so eligibility grows
    // back on the delta-seeded path.
    let recomputes_after_logout = engine.cumulative_stats().recomputes;
    platform.apply_batch(vec![registered(3, true)]).unwrap();
    let engine = &platform.project(pid).unwrap().engine;
    let grown = eligible_workers(engine).unwrap();
    assert!(grown.contains(&WorkerId(3)), "w3 now eligible: {grown:?}");
    assert!(!grown.contains(&WorkerId(1)), "w1 still out: {grown:?}");
    assert_eq!(
        engine.cumulative_stats().recomputes,
        recomputes_after_logout,
        "a login takes no row away and must not recompute"
    );
}

/// The equivalence assertion: the same retraction-bearing stream must
/// produce byte-identical journals and replayed state at every shard
/// count, exactly like retraction-free streams do.
#[test]
fn retraction_stream_replays_byte_identical_at_all_shard_counts() {
    let mut events = setup_events();
    events.extend(churn_events());
    let batches: Vec<Vec<PlatformEvent>> = events.chunks(3).map(|c| c.to_vec()).collect();

    let mut serial = Crowd4U::new();
    let mut serial_dropped = 0u64;
    for b in &batches {
        serial_dropped += serial.apply_batch(b.clone()).unwrap().errors.len() as u64;
    }
    let serial_journal = serial.journal().dump();
    let serial_dump = serial.state_dump();

    // The scenario must actually exercise the fallback, or the sweep below
    // proves nothing about retraction.
    let stats = serial
        .project(ProjectId(1))
        .unwrap()
        .engine
        .cumulative_stats();
    assert!(
        stats.recomputes >= 2,
        "stream must force at least one post-setup full recompute, got {}",
        stats.recomputes
    );

    let mut shard_counts = vec![1usize, 2, 4];
    let env_shards = crowd4u::runtime::router::shards_from_env(0);
    if env_shards > 0 && !shard_counts.contains(&env_shards) {
        shard_counts.push(env_shards);
    }
    for shards in shard_counts {
        let rt = ShardedRuntime::new(RuntimeConfig {
            shards,
            drain_every: 0,
            mailbox_capacity: 1024,
            recovery: false,
        });
        for b in &batches {
            rt.submit_batch(b.clone());
            rt.drain();
        }
        let run = rt.finish().unwrap();

        assert_eq!(
            run.stats.dropped, serial_dropped,
            "dropped mismatch at {shards} shards"
        );
        assert_eq!(
            run.journal.dump(),
            serial_journal,
            "journal mismatch at {shards} shards"
        );
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        assert_eq!(
            replayed.state_dump(),
            serial_dump,
            "replayed state mismatch at {shards} shards"
        );
        // Replay drives the same engines through the same retraction, so
        // the replayed platform must land on the same eligible set too.
        let engine = &replayed.project(ProjectId(1)).unwrap().engine;
        let eligible = eligible_workers(engine).unwrap();
        assert!(
            !eligible.contains(&WorkerId(1)) && eligible.contains(&WorkerId(3)),
            "replayed eligibility wrong at {shards} shards: {eligible:?}"
        );
    }
}
