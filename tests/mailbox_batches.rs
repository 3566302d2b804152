//! The shard loop consumes its mailbox in batches (ARCHITECTURE.md §4,
//! "Consumer side"): one mailbox lock moves up to K messages into a batch
//! the shard's supervisor owns. Two things follow that nothing else pins:
//!
//! * the number of batch takes is a **deterministic work count** — a
//!   stalled shard with N + 1 messages waiting takes them in exactly
//!   ⌈(N + 1) / K⌉ batches, readable off the running system as
//!   `crowd4u_mailbox_batches_total{shard="i"}`;
//! * a shard killed **strictly inside** a batch loses none of it and
//!   repeats none of it: the rebuilt incarnation redoes the event in
//!   flight, resumes the *same* batch, and the run is byte-identical to
//!   one where nothing failed.
//!
//! Both stall the shard inside a job first, so the whole backlog is in the
//! mailbox before the first batch is taken and the batch boundaries are
//! fixed by the test, not by thread timing. (That a blocked `submit` is
//! released by the consumer's credit return is pinned by
//! `gate_backpressure.rs`, which this change did not have to touch.)

mod common;

use common::{project, sentence, worker};
use crowd4u::core::error::ProjectId;
use crowd4u::core::events::PlatformEvent;
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::prelude::*;
use crowd4u::sim::time::SimTime;
use crowd4u::telemetry::{stage, MetricsSnapshot, Registry};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// The batch size at the default capacity: `(1024 / 4).clamp(1, 64)`.
const K: u64 = 64;
/// The shard every test stalls: the owner of project 2 at 2 and 4 shards.
const SHARD: usize = 1;

fn config(shards: usize, recovery: bool) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 1024, // ≥ every backlog below, so K = 64 and no submit blocks
        recovery,
    }
}

/// Park `shard` inside a job and return once the job is *running* — the
/// batch it came in is in the shard's hands, the mailbox behind it empty.
/// Dropping (or sending on) the returned sender lets the shard go on.
fn stall(rt: &ShardedRuntime, shard: usize) -> Sender<()> {
    let (running_tx, running_rx) = channel::<()>();
    let (release_tx, release_rx) = channel::<()>();
    let _ = rt.submit_job(shard, move |_| {
        running_tx.send(()).expect("test waits for the stall");
        let _ = release_rx.recv();
    });
    running_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stall job must start");
    release_tx
}

/// Queue `backlog` and one trailing job behind a stalled `SHARD`, let the
/// shard go, and wait until the trailing job — the last message of the
/// last batch — has run.
fn run_backlog_behind_a_stall(rt: &ShardedRuntime, backlog: Vec<PlatformEvent>) {
    let release = stall(rt, SHARD);
    rt.submit_batch(backlog);
    let tail: Receiver<()> = rt.submit_job(SHARD, |_| ());
    release.send(()).expect("stalled job waits for its release");
    tail.recv_timeout(Duration::from_secs(30))
        .expect("the backlog must be consumed");
}

fn batches(snap: &MetricsSnapshot, shard: usize) -> u64 {
    let key = (
        "crowd4u_mailbox_batches_total".to_string(),
        format!("shard=\"{shard}\""),
    );
    snap.counters.get(&key).copied().unwrap_or(0)
}

#[test]
fn a_backlog_of_n_messages_is_taken_in_ceil_n_over_k_batches() {
    let registry = Registry::new();
    let rt = ShardedRuntime::new_instrumented(config(2, false), registry.clone());
    rt.submit_batch(vec![project("on-shard-0"), project("on-shard-1")]);
    rt.barrier();
    assert_eq!(rt.owner_of(ProjectId(2)), SHARD);

    for n in [1u64, 62, 63, 64, 200] {
        let before = registry.snapshot();
        run_backlog_behind_a_stall(
            &rt,
            (0..n).map(|i| sentence(2, format!("n{n}-{i}"))).collect(),
        );
        let after = registry.snapshot();
        // The stall job's own batch, then the backlog: n events and the
        // trailing job, K at a time, no take that returns nothing.
        let messages = n + 1;
        assert_eq!(
            batches(&after, SHARD) - batches(&before, SHARD),
            1 + messages.div_ceil(K),
            "{n} events + 1 job behind a stall"
        );
        // Nothing was routed to the other shard, and dwell is observed
        // once per message picked — so dwell count ÷ batches is the mean
        // batch size.
        assert_eq!(batches(&after, 0), batches(&before, 0));
        assert_eq!(
            after.histogram_count(stage::MAILBOX_DWELL)
                - before.histogram_count(stage::MAILBOX_DWELL),
            1 + messages,
        );
    }
    let run = rt.finish().unwrap();
    assert_eq!(run.stats.dropped, 0);
}

/// `rounds` × (a sentence owned by `SHARD`, every 8th round a
/// registration the replica pulls mid-batch, every 50th a broadcast that
/// rides in the batch unrecorded).
fn backlog(rounds: u64) -> Vec<PlatformEvent> {
    let mut events = Vec::new();
    for r in 0..rounds {
        events.push(sentence(2, format!("s{r}")));
        if r % 8 == 7 {
            events.push(worker(100 + r, format!("late{r}")));
        }
        if r % 50 == 49 {
            events.push(PlatformEvent::ClockAdvanced {
                to: SimTime(r),
                owner: 0,
            });
        }
    }
    events
}

#[test]
fn a_shard_killed_strictly_inside_a_batch_resumes_that_batch() {
    let rounds = 3 * K + 8;
    let setup = vec![
        worker(1, "ann"),
        project("on-shard-0"),
        project("on-shard-1"),
    ];
    let backlog = backlog(rounds);
    // What reaches SHARD's mailbox: its sentences and the broadcasts.
    let routed = rounds + rounds / 50;
    // SHARD records nothing but the sentences, so its 100th recorded
    // apply is the 100th sentence: message 101 behind the stall (one
    // broadcast rides ahead of it), well inside the second batch of 64.
    let kill_at = K + 36;

    let mut serial = Crowd4U::new();
    let report = serial
        .apply_batch(setup.iter().chain(&backlog).cloned())
        .unwrap();
    assert!(report.errors.is_empty());

    for shards in [2usize, 4] {
        let plans = [
            FaultPlan::kill(SHARD, kill_at),
            FaultPlan::kill_mid_apply(SHARD, kill_at),
        ];
        for plan in plans {
            let label = format!("{plan:?} at {shards} shards");
            let registry = Registry::new();
            let rt = ShardedRuntime::new_chaos_instrumented(
                config(shards, true),
                registry.clone(),
                plan,
            );
            rt.submit_batch(setup.clone());
            rt.barrier();
            let before = registry.snapshot();
            run_backlog_behind_a_stall(&rt, backlog.clone());
            let after = registry.snapshot();
            rt.drain();
            let run = rt.finish().unwrap();

            // Invisible: journal, accounting and replayed state are the
            // serial platform's — every event of the interrupted batch
            // applied exactly once, none of the next batch early.
            assert_eq!(run.journal.dump(), serial.journal().dump(), "{label}");
            assert_eq!(run.stats.applied, report.applied as u64, "{label}");
            assert_eq!(run.stats.dropped, 0, "{label}");
            let replayed = Crowd4U::replay(&run.journal).unwrap();
            assert_eq!(replayed.state_dump(), serial.state_dump(), "{label}");
            let rebuilt = run.platforms[SHARD].project(ProjectId(2)).unwrap();
            let sentences = rebuilt.engine.fact_count("sentence").unwrap();
            assert_eq!(sentences as u64, rounds, "{label}");

            // One death, one recovery — and the rebuilt incarnation went
            // on with the batch the dead one had taken: the kill added no
            // batch take to the fault-free count.
            let snap = registry.snapshot();
            assert_eq!(snap.counter_total(stage::RECOVERIES), 1, "{label}");
            assert_eq!(
                batches(&after, SHARD) - batches(&before, SHARD),
                1 + (routed + 1).div_ceil(K),
                "{label}"
            );
        }
    }
}
