//! The per-event stage histograms time a deterministic 1-in-64 sample of
//! events and count every one (ARCHITECTURE.md §9, "The sample"). On a
//! round-robin 8-project stream — the shape that would alias with a
//! `seq % 64` rule — at 2 and 4 shards, every number below is an exact
//! count, fixed by the stream and not by thread timing:
//!
//! * the shard-apply `count` is the number of applies, broadcast copies
//!   included, and its `sampled` is exactly the number of applies whose
//!   seq the sample picks — a noise-free work count;
//! * every shard's slice holds sampled seqs, so every shard times;
//! * the journal's sample follows each slice's own append count;
//! * the fixpoint and recovery spans time every observation, and a killed
//!   shard still counts exactly one recovery.
//!
//! It also keeps the checks the retired best-of-N overhead report made
//! besides timing: telemetry on and off journal the same bytes, every
//! stage histogram records, and the exposition is valid.

mod common;

use common::setup_events;
use crowd4u::core::events::{EventScope, PlatformEvent};
use crowd4u::runtime::prelude::*;
use crowd4u::sim::time::SimTime;
use crowd4u::telemetry::{
    sampled, stage, validate_exposition, HistogramSnapshot, MetricsSnapshot, Registry,
};

const PROJECTS: usize = 8;

/// Four workers, eight projects, 256 seeds per project issued round-robin
/// over the projects — a `seq % 64` rule would time one project's seeds
/// only — then sixteen clock broadcasts.
fn stream() -> Vec<PlatformEvent> {
    let mut events = setup_events(PROJECTS, 256);
    events.extend((1..=16).map(|t| PlatformEvent::ClockAdvanced {
        to: SimTime(t * 60),
        owner: 0,
    }));
    events
}

/// One run of the stream, submitted by one thread into unbounded
/// mailboxes (so no admission waits), drained once.
struct Run {
    /// Per submitted event: its seq and the shards that apply it.
    applied_on: Vec<(u64, Vec<usize>)>,
    snap: MetricsSnapshot,
    journal: String,
}

fn run(shards: usize, registry: &Registry, kill: Option<(usize, u64)>) -> Run {
    let config = RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 0,
        recovery: kill.is_some(),
    };
    let rt = match kill {
        Some((shard, after)) => ShardedRuntime::new_chaos_instrumented(
            config,
            registry.clone(),
            FaultPlan::kill(shard, after),
        ),
        None => ShardedRuntime::new_instrumented(config, registry.clone()),
    };
    let gate = rt.gate();
    let events = stream();
    let total = events.len() as u64;
    let mut applied_on = Vec::new();
    for event in events {
        let on = match event.scope() {
            EventScope::Global => (0..shards).collect(),
            EventScope::Project(p) => vec![rt.owner_of(p)],
        };
        let seq = gate.submit(event).expect("the runtime accepts the stream");
        applied_on.push((seq, on));
    }
    rt.drain();
    rt.barrier();
    let snap = rt.metrics();
    let done = rt.finish().expect("runtime alive");
    assert_eq!((done.stats.applied, done.stats.dropped), (total, 0));
    Run {
        applied_on,
        snap,
        journal: done.journal.dump(),
    }
}

fn hist_with(snap: &MetricsSnapshot, name: &str, labels: &str) -> HistogramSnapshot {
    snap.histograms
        .get(&(name.to_string(), labels.to_string()))
        .unwrap_or_else(|| panic!("{name}{{{labels}}} never recorded"))
        .clone()
}

fn hist(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    hist_with(snap, name, "")
}

fn sampled_below(n: u64) -> u64 {
    (1..=n).filter(|&k| sampled(k)).count() as u64
}

#[test]
fn stage_counts_are_exact_and_the_sample_is_the_hashed_seqs() {
    for shards in [2usize, 4] {
        let run = run(shards, &Registry::new(), None);
        let applies = |pick: &dyn Fn(u64) -> bool| -> u64 {
            run.applied_on
                .iter()
                .filter(|(seq, _)| pick(*seq))
                .map(|(_, on)| on.len() as u64)
                .sum()
        };

        // Apply: every copy counted, exactly the hashed seqs timed.
        let apply = hist(&run.snap, stage::SHARD_APPLY);
        assert_eq!(apply.count, applies(&|_| true), "{shards} shards");
        assert_eq!(apply.sampled, applies(&sampled), "{shards} shards");
        assert!(apply.sampled > 0 && apply.sampled < apply.count / 32);

        // No shard is left out of the sample: each one's slice holds
        // project-scoped seqs the hash picks, and the exact total above
        // says each of those was timed where it was applied.
        for shard in 0..shards {
            let own_sampled = run
                .applied_on
                .iter()
                .filter(|(seq, on)| on.len() == 1 && on[0] == shard && sampled(*seq))
                .count();
            assert!(own_sampled > 0, "shard {shard} of {shards} never timed");
        }

        // Dwell times the same data events (control messages are counted,
        // never timed); admit is keyed by the seq about to be drawn, which
        // one submitter always draws. Nothing waits for room, so every
        // admission is a direct one.
        let dwell = hist(&run.snap, stage::MAILBOX_DWELL);
        assert_eq!(dwell.sampled, apply.sampled);
        assert!(dwell.count > apply.count, "control messages count too");
        let admit = hist_with(&run.snap, stage::GATE_ADMIT, "path=\"direct\"");
        assert_eq!(admit.count, run.applied_on.len() as u64);
        let admitted_sampled = run.applied_on.iter().filter(|(s, _)| sampled(*s)).count();
        assert_eq!(admit.sampled, admitted_sampled as u64);
        let waited = hist_with(&run.snap, stage::GATE_ADMIT, "path=\"waited\"");
        assert_eq!(waited.count, 0);

        // Journal: each slice appends one entry per apply and one for the
        // drain — a replica's worker installs append none — and times the
        // appends its own count picks.
        let registrations = stream()
            .iter()
            .filter(|e| matches!(e, PlatformEvent::WorkerRegistered { .. }))
            .count() as u64;
        let per_shard: Vec<u64> = (0..shards)
            .map(|k| {
                let installs = if k == 0 { 0 } else { registrations };
                1 + run
                    .applied_on
                    .iter()
                    .filter(|(_, on)| on.contains(&k))
                    .count() as u64
                    - installs
            })
            .collect();
        let journal = hist(&run.snap, stage::JOURNAL_APPEND);
        assert_eq!(journal.count, per_shard.iter().sum::<u64>());
        let expected: u64 = per_shard.iter().map(|&n| sampled_below(n)).sum();
        assert_eq!(journal.sampled, expected);

        // The fixpoint runs once per sync and is timed every time; a
        // fully timed histogram's sum is exact, not scaled.
        let fixpoint = hist(&run.snap, stage::CYLOG_FIXPOINT);
        assert!(fixpoint.count > 0);
        assert_eq!(fixpoint.sampled, fixpoint.count);
    }
}

#[test]
fn a_killed_shard_counts_one_recovery_and_keeps_the_apply_counts() {
    for shards in [2usize, 4] {
        let clean = run(shards, &Registry::new(), None);
        let killed = run(shards, &Registry::new(), Some((1, 100)));
        assert_eq!(killed.journal, clean.journal, "{shards} shards");

        assert_eq!(killed.snap.counter_total(stage::RECOVERIES), 1);
        let recovery = hist(&killed.snap, stage::RECOVERY_SPAN);
        assert_eq!((recovery.count, recovery.sampled), (1, 1));
        assert!(recovery.sum > 0);

        // Recovery replays the ledger, not the apply path: the apply
        // counts are the fault-free run's.
        let (a, b) = (
            hist(&killed.snap, stage::SHARD_APPLY),
            hist(&clean.snap, stage::SHARD_APPLY),
        );
        assert_eq!((a.count, a.sampled), (b.count, b.sampled));
    }
}

#[test]
fn every_stage_records_and_the_exposition_says_what_it_holds() {
    let on = run(2, &Registry::new(), None);
    let off = run(2, &Registry::disabled(), None);
    assert_eq!(on.journal, off.journal, "telemetry changed the journal");
    assert!(Registry::disabled().snapshot().histograms.is_empty());

    let text = on.snap.render();
    validate_exposition(&text).expect("valid exposition");
    let line = |series: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(series))
            .unwrap_or_else(|| panic!("no {series}"))
            .trim()
            .to_string()
    };
    for name in stage::ALL {
        let labels = if name == stage::GATE_ADMIT {
            "path=\"direct\""
        } else {
            ""
        };
        let h = hist_with(&on.snap, name, labels);
        assert!(h.count > 0 && h.sampled > 0, "stage {name} empty");
        assert!(h.quantile(0.5).is_some());
        // `_count` is the sample and equals the +Inf bucket; the exact
        // count is its own series.
        let (set, le) = if labels.is_empty() {
            (String::new(), "{le=\"+Inf\"}".to_string())
        } else {
            (format!("{{{labels}}}"), format!("{{{labels},le=\"+Inf\"}}"))
        };
        let count = line(&format!("{name}_count{set} "));
        assert_eq!(count, h.sampled.to_string());
        assert_eq!(line(&format!("{name}_bucket{le} ")), count);
        let observed = line(&format!("{name}_observed_total{set} "));
        assert_eq!(observed, h.count.to_string());
    }
}
