//! Property: a scenario streamed through the ingestion gate is
//! observationally identical to its single-threaded `Driver` run.
//!
//! The scenario layer's half of the determinism contract
//! (ARCHITECTURE.md §5): a recorded scenario stream *is* the decision
//! shadow's journal, so pushing it through `ShardedRuntime` mailboxes at
//! 1, 2 and 4 shards (plus `RUNTIME_SHARDS`) must equal the serial run by
//! the `tests/common` oracle, and produce a report equal to the
//! single-threaded run field for field, its platform-side fields
//! recomputed from the owner shards. The second property extends this to
//! the `mixed` workload: translation, journalism and surveillance
//! interleaved by timestamp through one gate, per-scenario id remapping
//! keeping them disjoint, against `stream::apply_stream` of the same
//! merged stream on one platform.
//!
//! Deliberately tiny mailboxes (capacity 8 and 1, and a dedicated
//! capacity-1 test on the mixed workload) make the producer block on
//! backpressure, so the properties also pin that a blocked submission
//! never reorders a stream and is admitted, and counted, once.

mod common;

use common::*;
use crowd4u::collab::Scheme;
use crowd4u::core::controller::AlgorithmChoice;
use crowd4u::core::platform::Crowd4U;
use crowd4u::runtime::scenario::stream_traces;
use crowd4u::scenarios::stream::{
    apply_stream, merge_traces, record_scheme, MergedStream, ScenarioTrace, StreamOp,
};
use crowd4u::scenarios::{mixed, ScenarioConfig, ScenarioReport};
use crowd4u::telemetry::stage;
use proptest::prelude::*;

/// Stream `traces` through a coordinated runtime of `shards` shards and
/// `capacity`-slot mailboxes; returns the run and the scenario reports.
fn stream(
    shards: usize,
    capacity: usize,
    traces: &[ScenarioTrace],
) -> (Outcome, Vec<ScenarioReport>) {
    Run::at(shards)
        .capacity(capacity)
        .run(|rt| stream_traces(rt, traces).expect("stream"))
}

fn assert_reports_equal(got: &ScenarioReport, want: &ScenarioReport, label: &str) {
    assert_eq!(got.scheme, want.scheme, "{label}");
    assert_eq!(got.items_completed, want.items_completed, "{label}");
    assert_eq!(got.items_total, want.items_total, "{label}");
    assert_eq!(got.answers, want.answers, "{label}");
    assert_eq!(got.teams_formed, want.teams_formed, "{label}");
    assert_eq!(got.reassignments, want.reassignments, "{label}");
    assert_eq!(got.points_awarded, want.points_awarded, "{label}");
    assert_eq!(got.makespan, want.makespan, "{label}");
    assert!(
        (got.mean_quality - want.mean_quality).abs() < 1e-12,
        "{label}"
    );
    assert!(
        (got.mean_team_affinity - want.mean_team_affinity).abs() < 1e-12,
        "{label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One scenario, streamed: merged journal byte-identical to the
    /// serial `Driver` journal, replay byte-identical, report equal to
    /// the single-threaded run — at every shard count, through a small
    /// mailbox and a capacity-1 one so producers block on backpressure,
    /// with every event admitted through the gate exactly once. The team
    /// algorithm is drawn too (Greedy or LocalSearch): the scenario's
    /// project registration names it, and the default-built shards and
    /// the replay read it from there.
    #[test]
    fn streamed_scenario_is_byte_identical_to_the_serial_driver_run(
        scheme_idx in 0usize..3,
        crowd in 12usize..26,
        items in 1usize..3,
        seed in 0u64..1000,
        greedy in any::<bool>(),
    ) {
        let scheme = Scheme::all()[scheme_idx];
        let algorithm = if greedy {
            AlgorithmChoice::Greedy
        } else {
            AlgorithmChoice::LocalSearch
        };
        let cfg = ScenarioConfig::default()
            .with_crowd(crowd)
            .with_items(items)
            .with_seed(seed)
            .with_algorithm(algorithm);
        // The recording *is* the serial run: its shadow report is the
        // single-threaded reference.
        let trace = record_scheme(scheme, &cfg).expect("record");
        let traces = std::slice::from_ref(&trace);
        let serial = Reference::stream(&merge_traces(traces));
        prop_assert_eq!(serial.dropped, 0, "a lone stream never drops");

        for (shards, capacity) in shard_counts(&[1, 2, 4]).into_iter().flat_map(|s| [(s, 8), (s, 1)]) {
            let (run, reports) = stream(shards, capacity, traces);
            // One admission per event, whether it went straight through
            // (`path="direct"`) or waited on a full mailbox
            // (`path="waited"`): a bounced event is not counted twice.
            prop_assert_eq!(
                run.metrics.histogram_count(stage::GATE_ADMIT), serial.submitted,
                "admissions at {} shards, capacity {}", shards, capacity
            );
            assert_equivalent(&serial, &run, scheme.name())?;
            assert_reports_equal(&reports[0], &trace.shadow, scheme.name());
        }
    }

    /// Three scenarios streamed concurrently (the mixed workload):
    /// byte-identical journals and replays across 1/2/4 shards and
    /// against the serial composite, and per-scheme reports equal to the
    /// serial mixed run's.
    #[test]
    fn mixed_concurrent_scenarios_replay_identically_at_every_shard_count(
        crowd in 12usize..22,
        items in 1usize..3,
        seed in 0u64..1000,
    ) {
        let cfg = ScenarioConfig::default()
            .with_crowd(crowd)
            .with_items(items)
            .with_seed(seed);
        let traces = mixed::record(&cfg).expect("record");
        let serial = Reference::stream(&merge_traces(&traces));
        let serial_run = mixed::run(&cfg).expect("serial mixed");

        for shards in shard_counts(&[1, 2, 4]) {
            let (run, reports) = stream(shards, 16, &traces);
            assert_equivalent(&serial, &run, "mixed")?;
            for (got, want) in reports.iter().zip(&serial_run.reports) {
                assert_reports_equal(got, want, want.scheme.name());
            }
        }
    }
}

/// With a **capacity-1** mailbox nearly every submission waits for the
/// shard to take the one before it — and the merged journal must still
/// be byte-identical to the serial run (a single reordering would surface
/// here as a journal or replay diff).
#[test]
fn capacity_one_mailbox_stream_replays_byte_identically_after_retries() {
    let cfg = ScenarioConfig::default()
        .with_crowd(18)
        .with_items(2)
        .with_seed(41);
    let traces = mixed::record(&cfg).expect("record");
    let serial = Reference::stream(&merge_traces(&traces));
    for shards in [1usize, 2] {
        let (run, _) = stream(shards, 1, &traces);
        expect_equivalent(&serial, &run, "retries must not reorder the stream");
    }
}

/// The interleaved-deadline gotcha, pinned (PR 10 tentpole (d)): when two
/// scenarios interleave on one platform, one scenario's `ClockAdvanced`
/// must **not** sweep another scenario's recruitment deadline. The merge
/// tags each trace's clock events and project registrations with a
/// per-trace owner, so a clock only expires deadlines of projects in its
/// own domain. Without the tags (the pre-PR 10 shape, reconstructed below
/// as a negative control), scenario B's clock tick reaches over and
/// reopens scenario A's suggested collab task *before* its members
/// undertake — silently dropping their `Undertaken` events and charging A
/// a missed deadline it never had.
#[test]
fn interleaved_clocks_cannot_sweep_another_scenarios_deadline() {
    use crowd4u::core::error::{ProjectId, TaskId, WorkerId};
    use crowd4u::core::events::PlatformEvent;
    use crowd4u::crowd::profile::WorkerProfile;
    use crowd4u::forms::admin::DesiredFactors;
    use crowd4u::scenarios::stream::{Completion, StreamOp, TimedOp};
    use crowd4u::sim::time::{SimDuration, SimTime};

    const SRC: &str = "\
rel item(x: str).
open label(x: str) -> (y: str) points 1.
rel out(x: str, y: str).
out(X, Y) :- item(X), label(X, Y).
";

    fn ev(at: u64, e: PlatformEvent) -> TimedOp {
        TimedOp {
            at: SimTime(at),
            op: StreamOp::Event(e),
        }
    }
    fn worker(i: u64) -> PlatformEvent {
        PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
        }
    }
    fn project(name: &str) -> PlatformEvent {
        PlatformEvent::ProjectRegistered {
            name: name.into(),
            source: SRC.into(),
            factors: DesiredFactors {
                min_team: 2,
                max_team: 2,
                recruitment_secs: 100,
                ..Default::default()
            },
            scheme: Scheme::Simultaneous,
            owner: 0,
        }
    }
    fn dummy_report(scheme: Scheme) -> ScenarioReport {
        ScenarioReport {
            scheme,
            items_completed: 0,
            items_total: 0,
            mean_quality: 0.0,
            makespan: SimDuration::ZERO,
            answers: 0,
            teams_formed: 0,
            reassignments: 0,
            mean_team_affinity: 0.0,
            points_awarded: 0,
        }
    }
    fn trace(scheme: Scheme, ops: Vec<TimedOp>, crowd: u64) -> ScenarioTrace {
        ScenarioTrace {
            scheme,
            ops,
            crowd,
            projects: vec![ProjectId(1)],
            completion: Completion::CollabsCompleted,
            shadow: dummy_report(scheme),
        }
    }

    // Scenario A: a two-person collab team suggested at t=0 with a
    // 100-tick recruitment deadline; both members undertake at t=150
    // (their own clock never advanced — in A's domain the deadline is
    // still live).
    let task = TaskId::compose(ProjectId(1), 1);
    let a_ops = vec![
        ev(0, worker(1)),
        ev(0, worker(2)),
        ev(0, project("newsroom")),
        ev(
            0,
            PlatformEvent::CollabTaskCreated {
                project: ProjectId(1),
                description: "draft the story".into(),
            },
        ),
        ev(
            0,
            PlatformEvent::InterestExpressed {
                worker: WorkerId(1),
                task,
            },
        ),
        ev(
            0,
            PlatformEvent::InterestExpressed {
                worker: WorkerId(2),
                task,
            },
        ),
        ev(0, PlatformEvent::AssignmentRun { task }),
        ev(
            150,
            PlatformEvent::Undertaken {
                worker: WorkerId(1),
                task,
            },
        ),
        ev(
            150,
            PlatformEvent::Undertaken {
                worker: WorkerId(2),
                task,
            },
        ),
    ];
    // Scenario B: an unrelated project whose clock ticks to t=120 —
    // *past* A's deadline, *before* A's undertakes in the interleaving.
    let b_ops = vec![
        ev(0, worker(1)),
        ev(0, project("other-app")),
        ev(
            120,
            PlatformEvent::ClockAdvanced {
                to: SimTime(120),
                owner: 0,
            },
        ),
    ];
    let traces = vec![
        trace(Scheme::Simultaneous, a_ops, 2),
        trace(Scheme::Sequential, b_ops, 1),
    ];

    // Tagged merge (the fix): B's clock lives in its own domain, A's
    // deadline survives, both undertakes land — and the streamed run
    // stays byte-identical to the serial composite at every shard count.
    let serial = Reference::stream(&merge_traces(&traces));
    assert_eq!(serial.dropped, 0, "owner tags must isolate the deadline");
    for shards in shard_counts(&[1, 2, 4]) {
        let (run, _) = stream(shards, 16, &traces);
        let replayed = expect_equivalent(&serial, &run, "tagged clocks");
        assert_eq!(
            replayed
                .project(ProjectId(1))
                .unwrap()
                .counters
                .deadlines_missed,
            0
        );
    }

    // Negative control — strip the owner tags off the merged stream (the
    // pre-PR 10 shape). B's t=120 tick now sweeps A's t=100 deadline:
    // interest is withdrawn, the task reopens, both undertakes bounce.
    let merged = merge_traces(&traces);
    let untagged = MergedStream {
        ops: merged
            .ops
            .iter()
            .map(|(i, op)| {
                let op = match op {
                    StreamOp::Event(PlatformEvent::ProjectRegistered {
                        name,
                        source,
                        factors,
                        scheme,
                        ..
                    }) => StreamOp::Event(PlatformEvent::ProjectRegistered {
                        name: name.clone(),
                        source: source.clone(),
                        factors: factors.clone(),
                        scheme: *scheme,
                        owner: 0,
                    }),
                    StreamOp::Event(PlatformEvent::ClockAdvanced { to, .. }) => {
                        StreamOp::Event(PlatformEvent::ClockAdvanced { to: *to, owner: 0 })
                    }
                    other => other.clone(),
                };
                (*i, op)
            })
            .collect(),
        remaps: merged.remaps.clone(),
    };
    let mut platform = Crowd4U::new();
    let dropped = apply_stream(&mut platform, &untagged).expect("apply");
    assert_eq!(
        dropped, 2,
        "without owner tags the foreign clock must drop both undertakes"
    );
    assert_eq!(
        platform
            .project(ProjectId(1))
            .unwrap()
            .counters
            .deadlines_missed,
        1
    );
}

/// Scenario project registrations are routed events now — the PR 3
/// restriction ("scenario jobs register projects directly on their shard;
/// don't mix them with routed `ProjectRegistered` events") is gone. Pin
/// both halves: the scenarios' projects span shards via broadcast
/// registration, and *after* the streams, ordinary routed traffic can
/// target a scenario's project (extra worker, extra fact, drain) on the
/// very same runtime without diverging the replay.
#[test]
fn scenario_streams_coexist_with_routed_events() {
    use crowd4u::core::error::{ProjectId, WorkerId};
    use crowd4u::core::events::PlatformEvent;
    use crowd4u::crowd::profile::WorkerProfile;

    let cfg = ScenarioConfig::default()
        .with_crowd(16)
        .with_items(1)
        .with_seed(3);
    let traces = vec![
        record_scheme(Scheme::Sequential, &cfg).unwrap(),
        record_scheme(Scheme::Hybrid, &cfg).unwrap(),
    ];
    // The translation scenario's project streams in first, so the remap
    // assigns it id 1 (owner shard 0) and surveillance id 2 (shard 1).
    // Routed traffic aimed at the *scenario's* project: a late worker and
    // an extra utterance, through the ordinary gate path.
    let late = vec![
        PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(1000), "late"),
        },
        PlatformEvent::FactSeeded {
            project: ProjectId(1),
            pred: "utterance".into(),
            values: vec![
                crowd4u::storage::prelude::Value::Id(99),
                "late speech".into(),
            ],
        },
    ];
    // The serial reference: the merged streams, then the routed tail and
    // the drain after it, applied by one thread.
    let mut merged = merge_traces(&traces);
    let tail = late.iter().map(|e| StreamOp::Event(e.clone()));
    merged
        .ops
        .extend(tail.chain([StreamOp::Drain]).map(|op| (0, op)));
    let reference = Reference::stream(&merged);
    assert_eq!(reference.dropped, 0);

    let (run, reports) = Run::at(2).capacity(64).run(|rt| {
        let reports = stream_traces(rt, &traces).unwrap();
        rt.submit_batch(late);
        rt.drain();
        reports
    });
    for (report, trace) in reports.iter().zip(&traces) {
        assert_reports_equal(report, &trace.shadow, trace.scheme.name());
    }
    // The whole history — scenario streams plus routed tail — replays from
    // one journal, and each project, the late fact included, is on its
    // round-robin owner: the projects span both shards.
    let replayed = expect_equivalent(&reference, &run, "scenario streams + routed tail");
    // The drain surfaced the late utterance as a new transcribe task on
    // the scenario's project.
    assert!(!replayed.pool().open_tasks(Some(ProjectId(1))).is_empty());
    assert!(replayed.workers.get(WorkerId(1000)).is_ok());
}
