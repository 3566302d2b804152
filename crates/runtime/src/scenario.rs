//! The §2.5 demo scenarios **streamed through the ingestion gate** — the
//! scenario front-end of the sharded runtime.
//!
//! Until PR 5 a scenario executed as a whole-`Driver` job pinned to one
//! shard's resident platform slice, which structurally excluded the
//! cross-project, cross-application workloads the paper is about: a
//! scenario could never span shards, and scenario jobs could not coexist
//! with routed `ProjectRegistered` events. That execution model is
//! retired. A scenario now runs in two halves:
//!
//! 1. **Record** — the scenario logic runs on its own *decision shadow*
//!    (a [`Driver`](crowd4u_scenarios::Driver) over a private slice,
//!    [`record_scheme`]); every
//!    state change it makes is yielded as a timed op
//!    ([`Driver::ops`](crowd4u_scenarios::Driver::ops)).
//!    Recording different scenarios is embarrassingly parallel.
//! 2. **Stream** — [`stream_traces`] interleaves the recorded streams by
//!    `SimTime` (deterministically, with per-scenario worker/project id
//!    remapping — see [`crowd4u_scenarios::stream::merge_traces`]) and
//!    pushes every op through an [`IngestGate`](crate::gate::IngestGate)
//!    handle: project registrations broadcast like any other global event,
//!    project-scoped ops land on their owner shard, and
//!    [`StreamOp::Drain`](crowd4u_scenarios::stream::StreamOp) markers
//!    become coordinated drain barriers. One scenario's projects span
//!    shards; many scenarios interleave through the same gate.
//!
//! Submission uses the blocking
//! [`IngestGate::submit`](crate::gate::IngestGate::submit): on a full
//! mailbox, a recovering shard or a migration hold the producer parks
//! until the event is admitted, and no later op is submitted before it, so
//! backpressure can delay the stream but **never reorder it** — the
//! determinism contract (ARCHITECTURE.md §5) depends on stream order
//! surviving full mailboxes.
//!
//! Reports are scenario-scoped without resident-slice counter deltas:
//! platform observables (items completed, teams suggested, reassignments,
//! points) are recomputed from the owner shards via per-project counters
//! and project-ledger aggregation, crowd-simulation observables (answers,
//! quality, makespan, affinity) come from the decision shadow. For a lone
//! scenario the streamed report equals a single-threaded run exactly:
//!
//! ```
//! use crowd4u_runtime::prelude::*;
//! use crowd4u_runtime::scenario::run_scenarios;
//! use crowd4u_scenarios::{run_scheme, ScenarioConfig};
//! use crowd4u_collab::Scheme;
//!
//! let cfg = ScenarioConfig::default().with_crowd(16).with_items(1).with_seed(3);
//! let rt = ShardedRuntime::new(RuntimeConfig {
//!     shards: 2,
//!     drain_every: 0,
//!     mailbox_capacity: 64,
//!     recovery: false,
//! });
//! let streamed = run_scenarios(&rt, &[(Scheme::Sequential, cfg.clone())]).unwrap();
//! let serial = run_scheme(Scheme::Sequential, &cfg).unwrap();
//! assert_eq!(streamed[0].items_completed, serial.items_completed);
//! assert_eq!(streamed[0].answers, serial.answers);
//! assert_eq!(streamed[0].teams_formed, serial.teams_formed);
//! assert_eq!(streamed[0].points_awarded, serial.points_awarded);
//! assert_eq!(streamed[0].makespan, serial.makespan);
//! rt.finish().unwrap();
//! ```

use crate::router::ShardedRuntime;
use crowd4u_collab::Scheme;
use crowd4u_core::error::PlatformError;
use crowd4u_scenarios::mixed::{reports_from, splits_from, MixedReport};
use crowd4u_scenarios::stream::{
    merge_traces, merge_traces_with, platform_side, project_split, record_scheme, CrowdMode,
    MergedStream, ScenarioTrace, SplitLedger, StreamOp,
};
use crowd4u_scenarios::{ScenarioConfig, ScenarioReport};

/// Stream recorded scenario traces through the runtime's ingestion gate
/// and rebuild each scenario's report from the shards.
///
/// The traces are interleaved by timestamp into one deterministic stream
/// (worker/project ids remapped per trace so the scenarios stay
/// disjoint), then pushed through a gate handle in stream order —
/// project-scoped ops to their owner shard, registrations and clocks
/// broadcast, drain markers as coordinated barriers. The submission
/// order is independent of the shard count, so the merged journal is
/// byte-identical at 1, 2 or 4 shards — and equal to
/// [`apply_stream`](crowd4u_scenarios::stream::apply_stream)'s serial
/// reference (proptested in `tests/scenario_streaming.rs`).
///
/// Reports come back in trace order. The runtime must be **fresh** (no
/// events submitted yet — the remap predicts the platform's registration
/// sequence from zero; a reused runtime is rejected with a typed error)
/// and in coordinated drain mode (`drain_every: 0`) for byte-identical
/// journals; streaming mode works too but inserts per-shard `sync`
/// entries.
pub fn stream_traces(
    rt: &ShardedRuntime,
    traces: &[ScenarioTrace],
) -> Result<Vec<ScenarioReport>, PlatformError> {
    let merged = merge_traces(traces);
    stream_merged(rt, traces, merged)
}

/// [`stream_traces`] over **one shared crowd**: the traces are merged in
/// [`CrowdMode::Shared`] — all worker references stay on the shared
/// registration order, duplicate registrations are deduplicated before
/// submission (so each shared worker's registration is broadcast, and
/// applied on every replica, exactly once), and each trace keeps its own
/// clock domain.
/// Alongside the per-scenario reports, returns each scenario's per-worker
/// [`SplitLedger`] read off the owner shards — the marketplace accounting
/// whose sums must reproduce the platform totals exactly.
pub fn stream_traces_shared(
    rt: &ShardedRuntime,
    traces: &[ScenarioTrace],
) -> Result<(Vec<ScenarioReport>, Vec<SplitLedger>), PlatformError> {
    let merged = merge_traces_with(traces, CrowdMode::Shared)?;
    let remaps = merged.remaps.clone();
    let reports = stream_merged(rt, traces, merged)?;
    let splits = splits_from(
        traces,
        &MergedStream {
            ops: Vec::new(),
            remaps,
        },
        |project| {
            Ok::<_, PlatformError>(rt.with_project(project, move |p| project_split(p, project)))
        },
    )?;
    Ok((reports, splits))
}

/// The shared submit-and-account core of [`stream_traces`] /
/// [`stream_traces_shared`]: push a pre-merged stream through the gate in
/// order and rebuild the per-trace reports from the owner shards.
fn stream_merged(
    rt: &ShardedRuntime,
    traces: &[ScenarioTrace],
    mut merged: MergedStream,
) -> Result<Vec<ScenarioReport>, PlatformError> {
    // The merge *predicts* the ids the runtime will assign (projects
    // from 1 in registration order, workers from each trace's own id
    // space), so the runtime must not have registered anything yet — on
    // a reused runtime every remapped event would silently land on the
    // wrong project or overwrite foreign worker profiles. Every applied
    // event is counted in the ledger by the one shard that records it, so
    // a zero total is "nothing was ever registered or clocked".
    if rt.stats().applied != 0 {
        return Err(PlatformError::BadEvent(
            "scenario streams must start on a fresh runtime: the id remap predicts the \
             platform's registration sequence, which prior events have already advanced"
                .into(),
        ));
    }
    let gate = rt.gate();
    // Consume the merged ops by value: the gate takes ownership of each
    // event, so the submit loop never clones the payload.
    for (_, op) in merged.ops.drain(..) {
        match op {
            StreamOp::Event(e) => {
                gate.submit(e).map_err(|_| {
                    PlatformError::BadEvent(
                        "runtime closed while a scenario stream was in flight".into(),
                    )
                })?;
            }
            StreamOp::Drain => {
                rt.drain();
            }
        }
    }
    // Platform-side accounting from the owner shards. `with_project`
    // queries ride the same mailboxes as the events, so each owner has
    // applied the full stream before it answers.
    reports_from(traces, &merged, |project, completion| {
        let completion = completion.clone();
        rt.with_project(project, move |p| platform_side(p, project, &completion))
    })
}

/// Record each job's scenario on its own decision shadow (in parallel —
/// recording is independent per job) and stream the results through the
/// gate. Reports come back in job order and match single-threaded
/// `run_scheme` runs exactly.
///
/// Jobs may name different team algorithms: each job's algorithm rides in
/// its projects' registrations, so every shard, recovery replay and
/// migration carries it (ARCHITECTURE.md §2).
pub fn run_scenarios(
    rt: &ShardedRuntime,
    jobs: &[(Scheme, ScenarioConfig)],
) -> Result<Vec<ScenarioReport>, PlatformError> {
    let traces: Vec<ScenarioTrace> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(scheme, config)| scope.spawn(move || record_scheme(*scheme, config)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recording thread"))
            .collect::<Result<Vec<_>, PlatformError>>()
    })?;
    stream_traces(rt, &traces)
}

/// The mixed workload (scenario 4, `crowd4u_scenarios::mixed`) on the
/// sharded runtime: all three schemes recorded under one config and
/// streamed concurrently through the gate — the first genuinely
/// cross-shard workload (three projects, round-robin ownership).
pub fn run_mixed(
    rt: &ShardedRuntime,
    config: &ScenarioConfig,
) -> Result<MixedReport, PlatformError> {
    let jobs: Vec<(Scheme, ScenarioConfig)> = Scheme::all()
        .into_iter()
        .map(|s| (s, config.clone()))
        .collect();
    Ok(MixedReport::combine(run_scenarios(rt, &jobs)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateError;
    use crate::router::RuntimeConfig;
    use crowd4u_core::error::ProjectId;
    use crowd4u_core::events::PlatformEvent;
    use crowd4u_scenarios::run_scheme;

    fn config(shards: usize, mailbox_capacity: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            drain_every: 0,
            mailbox_capacity,
            recovery: false,
        }
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

    #[test]
    fn streamed_scenario_reports_match_single_threaded_runs() {
        let rt = ShardedRuntime::new(config(3, 1024));
        let jobs: Vec<(Scheme, ScenarioConfig)> = Scheme::all()
            .into_iter()
            .map(|s| {
                (
                    s,
                    ScenarioConfig::default()
                        .with_crowd(30)
                        .with_items(2)
                        .with_seed(7),
                )
            })
            .collect();
        let streamed = run_scenarios(&rt, &jobs).unwrap();
        for ((scheme, cfg), got) in jobs.iter().zip(&streamed) {
            let want = run_scheme(*scheme, cfg).unwrap();
            assert_reports_equal(got, &want, scheme.name());
        }
        // The workload genuinely crossed shards: three projects,
        // round-robin ownership over three shards.
        let run = rt.finish().unwrap();
        let populated = run
            .platforms
            .iter()
            .filter(|p| !p.project_ids().is_empty())
            .count();
        assert_eq!(populated, 3, "each shard should own one project");
        assert_eq!(run.stats.dropped, 0);
    }

    #[test]
    fn interleaved_same_config_scenarios_stay_isolated() {
        // All three schemes with the *same* seed interleave through one
        // gate on one shard; id remapping keeps their crowds and projects
        // disjoint, so every report still equals a fresh standalone run.
        let rt = ShardedRuntime::new(config(1, 1024));
        let cfg = ScenarioConfig::default()
            .with_crowd(30)
            .with_items(2)
            .with_seed(9);
        let jobs: Vec<(Scheme, ScenarioConfig)> = Scheme::all()
            .into_iter()
            .map(|s| (s, cfg.clone()))
            .collect();
        let streamed = run_scenarios(&rt, &jobs).unwrap();
        for ((scheme, cfg), got) in jobs.iter().zip(&streamed) {
            let want = run_scheme(*scheme, cfg).unwrap();
            assert_reports_equal(got, &want, scheme.name());
        }
        rt.finish().unwrap();
    }

    #[test]
    fn run_mixed_aggregates_the_three_schemes() {
        let cfg = ScenarioConfig::default()
            .with_crowd(24)
            .with_items(1)
            .with_seed(13);
        let rt = ShardedRuntime::new(config(2, 512));
        let streamed = run_mixed(&rt, &cfg).unwrap();
        rt.finish().unwrap();
        let serial = crowd4u_scenarios::mixed::run(&cfg).unwrap();
        assert_eq!(streamed.items_completed, serial.items_completed);
        assert_eq!(streamed.answers, serial.answers);
        assert_eq!(streamed.points_awarded, serial.points_awarded);
        assert_eq!(streamed.makespan, serial.makespan);
    }

    #[test]
    fn reused_runtimes_are_rejected() {
        use crowd4u_core::error::WorkerId;
        use crowd4u_crowd::profile::WorkerProfile;
        // Any prior event advances the platform's id/clock sequences, so
        // the remap's predictions would silently mis-route the stream —
        // the scheduler must refuse instead.
        let rt = ShardedRuntime::new(config(2, 64));
        rt.submit(PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(1), "prior"),
        });
        rt.barrier();
        let cfg = ScenarioConfig::default().with_crowd(8).with_items(1);
        let err = run_scenarios(&rt, &[(Scheme::Sequential, cfg)]).unwrap_err();
        assert!(err.to_string().contains("fresh runtime"), "{err}");
        rt.finish().unwrap();
    }

    #[test]
    fn jobs_with_different_algorithms_share_one_runtime() {
        use crowd4u_core::controller::AlgorithmChoice;
        // Each job's projects are registered with its own algorithm, so
        // the three stream through one runtime side by side and each
        // report equals its standalone run.
        let rt = ShardedRuntime::new(config(2, 64));
        let base = ScenarioConfig::default()
            .with_crowd(16)
            .with_items(1)
            .with_seed(21);
        let jobs = vec![
            (
                Scheme::Sequential,
                base.clone().with_algorithm(AlgorithmChoice::Greedy),
            ),
            (
                Scheme::Hybrid,
                base.clone().with_algorithm(AlgorithmChoice::LocalSearch),
            ),
            (
                Scheme::Simultaneous,
                base.with_algorithm(AlgorithmChoice::Exact),
            ),
        ];
        let streamed = run_scenarios(&rt, &jobs).unwrap();
        for ((scheme, cfg), got) in jobs.iter().zip(&streamed) {
            let want = run_scheme(*scheme, cfg).unwrap();
            assert_reports_equal(got, &want, cfg.algorithm.name());
        }
        let run = rt.finish().unwrap();
        assert_eq!(run.stats.dropped, 0);
        // The journal names each job's algorithm in its registrations.
        let registered: Vec<AlgorithmChoice> = run
            .journal
            .iter()
            .filter(|e| e.kind == "project")
            .map(|e| match PlatformEvent::decode(e).unwrap() {
                PlatformEvent::ProjectRegistered { factors, .. } => factors.algorithm,
                other => panic!("a `project` entry decoded as {other:?}"),
            })
            .collect();
        for (_, cfg) in &jobs {
            assert!(registered.contains(&cfg.algorithm), "{registered:?}");
        }
    }

    /// A `GateError::Full` handback must not reorder the stream. With a
    /// capacity-1 mailbox and the owner shard stalled in a job, the second
    /// submission is rejected and handed back; resubmitting it before
    /// anything later keeps the journal in stream order.
    #[test]
    fn full_mailbox_handback_preserves_stream_order() {
        use crowd4u_core::error::WorkerId;
        use crowd4u_crowd::profile::WorkerProfile;
        use crowd4u_storage::prelude::Value;

        let rt = ShardedRuntime::new(config(1, 1));
        let gate = rt.gate();
        rt.submit(PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(1), "w1"),
        });
        rt.submit(PlatformEvent::ProjectRegistered {
            name: "p".into(),
            source: "rel item(x: str).\n".into(),
            factors: Default::default(),
            scheme: Scheme::Sequential,
            owner: 0,
        });
        rt.barrier();
        let seed = |s: &str| PlatformEvent::FactSeeded {
            project: ProjectId(1),
            pred: "item".into(),
            values: vec![Value::Str(s.into())],
        };
        // Stall the only shard so the mailbox stays full.
        let release = rt.submit_job(0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(50))
        });
        gate.submit(seed("first")).unwrap(); // fills the capacity-1 mailbox
        let err = gate.try_submit(seed("second")).unwrap_err();
        let GateError::Full { shard, event } = err else {
            panic!("expected Full, got Closed");
        };
        assert_eq!(shard, 0);
        // The event comes back intact.
        assert_eq!(*event, seed("second"));
        // The streaming scheduler's policy: the handed-back event goes
        // through the blocking submit before anything later due.
        gate.submit(*event).unwrap();
        gate.submit(seed("third")).unwrap();
        release.recv().unwrap();
        rt.drain();
        let run = rt.finish().unwrap();
        let seeds: Vec<String> = run
            .journal
            .iter()
            .filter(|e| e.kind == "seed")
            .map(|e| e.args.last().unwrap().to_string())
            .collect();
        assert_eq!(seeds, vec!["first", "second", "third"]);
    }
}
