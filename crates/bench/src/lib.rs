//! # crowd4u-bench — benchmark harness support
//!
//! Shared workload generators and table printers used by the Criterion
//! benches (`crates/bench/benches/`) and by the `report` binary that
//! regenerates every paper figure/experiment as a text table
//! (`cargo run -p crowd4u-bench --bin report`).
//!
//! Experiment map (see DESIGN.md §4): E1 = Figure 1 pipeline, E2 = Figure 2
//! workflow, E3 = Figure 3 admin form, E4 = Figure 4 worker factors,
//! E5 = Figure 5 simultaneous session, E6/E7 = the assignment-algorithm
//! quality/runtime evaluation the demo adapts from Rahman et al. \[9\],
//! E8 = platform scale ("600,000 tasks performed"), E9 = the three demo
//! scenarios.

use crowd4u_assign::prelude::*;
use crowd4u_crowd::affinity::AffinityMatrix;
use crowd4u_crowd::profile::{Region, WorkerId, WorkerProfile};
use crowd4u_cylog::engine::{AnswerRecord, CylogEngine};
use crowd4u_sim::rng::SimRng;

/// The CyLog program of the ingestion-throughput experiment (E9-ingest):
/// one open judge question per item, one derived relation consuming it.
pub const INGEST_SRC: &str = "rel item(i: id).\nopen judge(i: id) -> (ok: bool) points 1.\n\
     rel good(i: id).\ngood(I) :- item(I), judge(I, OK), OK = true.\n";

/// The E9-ingest workload: an engine with `n` open questions plus the
/// answers for all of them (90% approvals, workers rotating over 100 ids).
/// Shared by the `e9_ingest_throughput` bench and the `report -- ingest`
/// baseline so both measure the same experiment.
pub fn ingest_workload(n: u64) -> (CylogEngine, Vec<AnswerRecord>) {
    let mut engine = CylogEngine::from_source(INGEST_SRC).expect("static program");
    for i in 0..n {
        engine
            .add_fact("item", vec![(i + 1).into()])
            .expect("typed fact");
    }
    engine.run().expect("stratified program");
    let answers: Vec<AnswerRecord> = engine
        .pending_requests()
        .iter()
        .enumerate()
        .map(|(k, req)| AnswerRecord {
            pred: req.pred_name.clone(),
            inputs: req.inputs.clone(),
            outputs: vec![(k % 10 != 0).into()],
            worker: Some(1 + (k % 100) as u64),
        })
        .collect();
    (engine, answers)
}

/// The cross-batch incremental workload: the E9 program fed by many
/// *small* waves — `batch` items seeded, the fixpoint run (generating that
/// wave's questions), the wave's questions answered in one batch — until
/// `n` items have flowed through. This is the steady-state shape of a
/// live platform, and the case cross-batch incremental evaluation exists
/// for: in `EvalMode::Incremental` each wave advances the fixpoint from
/// its delta, while `EvalMode::SemiNaive` clears and re-derives the whole
/// database twice per wave. Answers and workers are a pure function of
/// the item id, so any two modes must land on byte-identical state.
pub fn incremental_stream_workload(
    n: u64,
    batch: u64,
    mode: crowd4u_cylog::eval::EvalMode,
) -> CylogEngine {
    let mut engine = CylogEngine::from_source(INGEST_SRC).expect("static program");
    engine.set_mode(mode);
    let mut next = 1u64;
    while next <= n {
        let hi = (next + batch - 1).min(n);
        for i in next..=hi {
            engine.add_fact("item", vec![i.into()]).expect("typed fact");
        }
        engine.run().expect("stratified program");
        let answers: Vec<AnswerRecord> = engine
            .pending_requests()
            .iter()
            .map(|req| {
                let id = req.inputs[0].as_id().expect("item ids");
                AnswerRecord {
                    pred: req.pred_name.clone(),
                    inputs: req.inputs.clone(),
                    outputs: vec![(id % 10 != 0).into()],
                    worker: Some(1 + (id % 100)),
                }
            })
            .collect();
        engine.answer_batch(&answers).expect("valid answers");
        next = hi + 1;
    }
    engine
}

/// The E10 shard-scaling workload shape: a mixed multi-project stream —
/// `projects` CyLog projects, `items` judged items each, answers arriving
/// round-robin across projects (the interleaving a router has to unpick).
#[derive(Debug, Clone, Copy)]
pub struct ShardWorkload {
    pub projects: usize,
    pub items: usize,
    pub workers: u64,
    /// Streaming-mode mailbox batch size handed to the runtime: each shard
    /// syncs its dirty projects after this many mailbox events.
    pub drain_every: usize,
}

impl Default for ShardWorkload {
    fn default() -> Self {
        ShardWorkload {
            projects: 8,
            items: 400,
            workers: 8,
            drain_every: 48,
        }
    }
}

/// The E10 event stream: `(setup, answers)`. Setup registers workers and
/// projects and seeds every item; answers approve/reject each project's
/// judge tasks round-robin across projects. Task ids are project-strided,
/// so the answer stream is written without touching a platform.
pub fn shard_workload_events(
    w: &ShardWorkload,
) -> (
    Vec<crowd4u_core::events::PlatformEvent>,
    Vec<crowd4u_core::events::PlatformEvent>,
) {
    use crowd4u_core::error::{ProjectId, TaskId};
    use crowd4u_core::events::PlatformEvent;
    use crowd4u_crowd::profile::WorkerProfile;
    use crowd4u_forms::admin::DesiredFactors;

    let mut setup = Vec::new();
    for i in 1..=w.workers {
        setup.push(PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
        });
    }
    for p in 0..w.projects {
        setup.push(PlatformEvent::ProjectRegistered {
            name: format!("proj-{p}"),
            source: INGEST_SRC.into(),
            factors: DesiredFactors::default(),
            scheme: crowd4u_collab::Scheme::Sequential,
            owner: 0,
        });
    }
    for i in 0..w.items {
        for p in 0..w.projects {
            setup.push(PlatformEvent::FactSeeded {
                project: ProjectId(p as u64 + 1),
                pred: "item".into(),
                values: vec![(i as u64 + 1).into()],
            });
        }
    }
    let mut answers = Vec::new();
    for i in 0..w.items {
        for p in 0..w.projects {
            answers.push(PlatformEvent::AnswerSubmitted {
                worker: WorkerId(1 + (i as u64 % w.workers)),
                task: TaskId::compose(ProjectId(p as u64 + 1), i as u64 + 1),
                outputs: vec![(i % 10 != 0).into()],
            });
        }
    }
    (setup, answers)
}

/// Run the E10 workload through a `ShardedRuntime` at the given shard
/// count; returns (elapsed, events ingested, derived `good` facts). The
/// `good` count is the correctness check — every shard count must derive
/// the same facts.
pub fn run_shard_workload(shards: usize, w: &ShardWorkload) -> (std::time::Duration, u64, usize) {
    use crowd4u_core::error::ProjectId;
    use crowd4u_runtime::prelude::*;

    let (setup, answers) = shard_workload_events(w);
    let total = (setup.len() + answers.len()) as u64;
    let rt = ShardedRuntime::new_instrumented(
        RuntimeConfig {
            shards,
            drain_every: w.drain_every,
            mailbox_capacity: 0, // unbounded: E10 measures shard scaling, not admission
            recovery: false,
        },
        crowd4u_telemetry::Registry::new(),
    );
    let start = std::time::Instant::now();
    rt.submit_batch(setup);
    rt.drain();
    rt.barrier(); // every judge task exists before the answer stream starts
    rt.submit_batch(answers);
    rt.drain();
    rt.barrier();
    let elapsed = start.elapsed();
    // Capture placements from the router itself before it shuts down —
    // the owner's slice holds the real facts, replicas are empty.
    let owners: Vec<usize> = (0..w.projects)
        .map(|p| rt.owner_of(ProjectId(p as u64 + 1)))
        .collect();
    let run = rt.finish().expect("runtime finish");
    assert_eq!(run.stats.dropped, 0, "E10 workload must be fully valid");
    let mut good = 0usize;
    for (p, &owner) in owners.iter().enumerate() {
        let project = ProjectId(p as u64 + 1);
        good += run.platforms[owner]
            .project(project)
            .expect("registered")
            .engine
            .fact_count("good")
            .expect("derived");
    }
    (elapsed, total, good)
}

/// E10 linearity gate: one shard's cost per event at the full size may be
/// at most this many times its cost at a quarter of the items. A sync or
/// answer path whose cost grows with the backlog fails it (before the
/// apply path was flattened the ratio was above 3).
pub const SHARD_LINEARITY_MAX: f64 = 1.5;

/// E10 scaling gate: four shards must not be slower than one (1-shard
/// time over 4-shard time, each the best of N runs).
pub const SHARD_NOT_SLOWER_MIN: f64 = 1.0;

/// Best of `reps` runs of [`run_shard_workload`]: `(seconds, events,
/// derived good facts)`.
pub fn best_shard_run(shards: usize, w: &ShardWorkload, reps: usize) -> (f64, u64, usize) {
    (0..reps.max(1))
        .map(|_| {
            let (elapsed, events, good) = run_shard_workload(shards, w);
            (elapsed.as_secs_f64(), events, good)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run")
}

/// The measurement behind [`SHARD_LINEARITY_MAX`]: one shard's cost per
/// event in µs at a quarter of `w`'s items and at all of them, `(quarter,
/// full)`, each the best of `reps` runs. The two sizes alternate, so a
/// slow phase of a shared host falls on both and not on one side of the
/// ratio.
pub fn shard_linearity(w: &ShardWorkload, reps: usize) -> (f64, f64) {
    let quarter = ShardWorkload {
        items: w.items / 4,
        ..*w
    };
    let us_per_event = |w: &ShardWorkload| {
        let (elapsed, events, _) = run_shard_workload(1, w);
        elapsed.as_secs_f64() * 1e6 / events as f64
    };
    (0..reps.max(1)).fold((f64::MAX, f64::MAX), |(small, full), _| {
        (small.min(us_per_event(&quarter)), full.min(us_per_event(w)))
    })
}

/// What one chaos run of the E10 workload measured (E15).
pub struct RecoveryRun {
    /// Wall-clock for the whole ingest, fault and recovery included.
    pub elapsed: std::time::Duration,
    /// Total time spent inside recovery replay (`crowd4u_recovery_ns`).
    pub recovery_ns: u64,
    /// Recoveries performed (`crowd4u_recoveries_total`) — the harness
    /// asserts the planned kill actually fired.
    pub recoveries: u64,
    /// Derived `good` facts — must equal the no-fault run's count.
    pub good: usize,
}

/// E15: the E10 workload on a chaos runtime whose [`FaultPlan`] kills
/// `kill.0` after its `kill.1`-th applied event, mid-answer-stream; the
/// shard is crash-recovered by journal-slice replay and the run completes
/// normally. The point of the experiment: recovery replays only the dead
/// shard's slice, so its cost must stay a small fraction of rerunning the
/// whole workload — `report -- recovery` gates on ≥10×.
///
/// [`FaultPlan`]: crowd4u_runtime::recovery::FaultPlan
pub fn run_recovery_workload(shards: usize, w: &ShardWorkload, kill: (usize, u64)) -> RecoveryRun {
    use crowd4u_core::error::ProjectId;
    use crowd4u_runtime::prelude::*;
    use crowd4u_telemetry::{stage, Registry};

    let telemetry = Registry::new();
    let (setup, answers) = shard_workload_events(w);
    let rt = ShardedRuntime::new_chaos_instrumented(
        RuntimeConfig {
            shards,
            drain_every: w.drain_every,
            mailbox_capacity: 0,
            recovery: true,
        },
        telemetry.clone(),
        FaultPlan::kill(kill.0, kill.1),
    );
    let start = std::time::Instant::now();
    rt.submit_batch(setup);
    rt.drain();
    rt.barrier();
    rt.submit_batch(answers);
    rt.drain();
    rt.barrier();
    let elapsed = start.elapsed();
    let owners: Vec<usize> = (0..w.projects)
        .map(|p| rt.owner_of(ProjectId(p as u64 + 1)))
        .collect();
    let run = rt.finish().expect("runtime finish");
    assert_eq!(run.stats.dropped, 0, "E15 workload must be fully valid");
    let mut good = 0usize;
    for (p, &owner) in owners.iter().enumerate() {
        let project = ProjectId(p as u64 + 1);
        good += run.platforms[owner]
            .project(project)
            .expect("registered")
            .engine
            .fact_count("good")
            .expect("derived");
    }
    let snap = telemetry.snapshot();
    let recovery_ns = snap
        .histograms
        .get(&(stage::RECOVERY_SPAN.to_string(), String::new()))
        .map(|h| h.sum)
        .unwrap_or(0);
    RecoveryRun {
        elapsed,
        recovery_ns,
        recoveries: snap.counter_total(stage::RECOVERIES),
        good,
    }
}

/// One E16 shared-crowd measurement: the three §2.5 scenarios streamed
/// over **one** worker population, with the PR 10 contract asserted
/// in-run.
#[derive(Debug, Clone)]
pub struct MarketplaceRun {
    /// Wall-clock of the shared streamed run (submission → final drain).
    pub elapsed: std::time::Duration,
    /// Per-scheme split-ledger totals, in `Scheme::all()` order.
    pub scheme_points: Vec<i64>,
    /// The replayed platform's whole leaderboard — what the splits must
    /// partition exactly.
    pub platform_points: i64,
}

/// E16: stream the three scenarios' traces in [`CrowdMode::Shared`] at
/// `shards` shards and hold the marketplace contract: the merged journal
/// is **byte-identical** to the serial shared composite, and the
/// per-scenario split ledgers **partition** the platform's point total
/// exactly (every scheme's ledger sums to its report, the scheme sums
/// reproduce the global leaderboard). Panics if either gate fails.
///
/// [`CrowdMode::Shared`]: crowd4u_scenarios::stream::CrowdMode
pub fn run_marketplace_workload(
    shards: usize,
    cfg: &crowd4u_scenarios::ScenarioConfig,
) -> MarketplaceRun {
    use crowd4u_core::platform::Crowd4U;
    use crowd4u_runtime::prelude::*;
    use crowd4u_scenarios::mixed;
    use crowd4u_scenarios::stream::{apply_stream, merge_traces_with, CrowdMode};

    let traces = mixed::record(cfg).expect("record traces");
    let merged = merge_traces_with(&traces, CrowdMode::Shared).expect("shared merge");
    let mut serial = Crowd4U::new();
    let serial_dropped = apply_stream(&mut serial, &merged).expect("serial apply");
    let serial_journal = serial.journal().dump();

    let rt = ShardedRuntime::new(RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 0,
        recovery: false,
    });
    let start = std::time::Instant::now();
    let (reports, splits) = stream_traces_shared(&rt, &traces).expect("shared stream");
    let elapsed = start.elapsed();
    let run = rt.finish().expect("runtime finish");
    assert_eq!(
        run.stats.dropped, serial_dropped,
        "E16 stream validity drift"
    );
    assert_eq!(
        run.journal.dump(),
        serial_journal,
        "E16 shared stream must be byte-identical to the serial composite"
    );
    let replayed = Crowd4U::replay(&run.journal).expect("replay");

    // Exact-partition gate: ledger == report per scheme, and the scheme
    // sums reproduce the platform leaderboard with nothing counted twice
    // and nothing lost.
    let mut scheme_points = Vec::with_capacity(splits.len());
    for (i, split) in splits.iter().enumerate() {
        assert_eq!(
            split.total_points(),
            reports[i].points_awarded,
            "scheme {i}'s split ledger diverges from its report"
        );
        scheme_points.push(split.total_points());
    }
    let platform_points: i64 = replayed
        .workers
        .iter_ids()
        .map(|w| replayed.points_of(w))
        .sum();
    assert_eq!(
        scheme_points.iter().sum::<i64>(),
        platform_points,
        "scenario splits must partition the platform total exactly"
    );
    MarketplaceRun {
        elapsed,
        scheme_points,
        platform_points,
    }
}

/// The E16 proposal A/B: what the cross-application marketplace policy
/// buys over a per-application view of the same crowd.
#[derive(Debug, Clone)]
pub struct MarketProposal {
    /// Busiest member's cross-application load in the base algorithm's
    /// team (the base sees skills, not loads).
    pub base_max_load: u64,
    /// Busiest member's load in the least-loaded marketplace proposal.
    pub market_max_load: u64,
}

/// E16 proposal workload: a shared runtime where the three
/// highest-skilled workers are already suggested onto a team in one
/// application, then a team for the *next* task is formed twice — by the
/// base algorithm alone (which, seeing only skill, keeps picking the busy
/// stars) and through [`crowd4u_runtime::marketplace::propose_team`],
/// which weighs total load across applications. Returns both teams'
/// busiest-member loads; the marketplace one must never be worse.
pub fn run_marketplace_proposal(shards: usize, crowd: u64) -> MarketProposal {
    use crowd4u_collab::Scheme;
    use crowd4u_core::error::{ProjectId, TaskId};
    use crowd4u_core::events::PlatformEvent;
    use crowd4u_forms::admin::DesiredFactors;
    use crowd4u_runtime::prelude::*;

    assert!(crowd >= 6, "need busy stars plus an idle bench");
    let rt = ShardedRuntime::new(RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 0,
        recovery: false,
    });
    // Workers 1–3 are the skill leaders; everyone else is competent but
    // slightly behind, so a skill-only formation always wants the stars.
    for i in 1..=crowd {
        let skill = if i <= 3 { 0.95 } else { 0.90 };
        rt.submit(PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(i), format!("w{i}")).with_skill("label", skill),
        });
    }
    rt.submit(PlatformEvent::ProjectRegistered {
        name: "app-a".into(),
        source: INGEST_SRC.into(),
        factors: DesiredFactors {
            min_team: 2,
            max_team: 3,
            recruitment_secs: 600,
            ..Default::default()
        },
        scheme: Scheme::Simultaneous,
        owner: 0,
    });
    rt.drain();
    // App A's assignment suggests the stars onto its team...
    rt.submit(PlatformEvent::CollabTaskCreated {
        project: ProjectId(1),
        description: "app A's team".into(),
    });
    let task = TaskId::compose(ProjectId(1), 1);
    for w in 1..=3 {
        rt.submit(PlatformEvent::InterestExpressed {
            worker: WorkerId(w),
            task,
        });
    }
    rt.submit(PlatformEvent::AssignmentRun { task });
    rt.drain();

    // ...and app B forms its team both ways off the same snapshot.
    let snap = market_snapshot(&rt, Some("label".into()));
    let base = crowd4u_assign::greedy::LocalSearch::default();
    let constraints = TeamConstraints::sized(2, 3);
    let base_team = base
        .form(&snap.candidates, &snap.affinity, &constraints)
        .expect("full crowd is feasible");
    let market_team = propose_team(&rt, Some("label".into()), &base, &constraints)
        .expect("idle bench is feasible");
    rt.finish().expect("runtime finish");
    let max_load = |team: &crowd4u_assign::types::Team| {
        team.members
            .iter()
            .map(|w| snap.loads.get(w).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    };
    MarketProposal {
        base_max_load: max_load(&base_team),
        market_max_load: max_load(&market_team),
    }
}

/// How concurrent clients reach the sharded runtime in E11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontDoor {
    /// The pre-gate (PR 3) shape: the runtime's submission API is
    /// single-submitter, so concurrent clients must stage their events
    /// over a shared channel to the one thread allowed to submit —
    /// "every client serialises on one submitter thread". Each event pays
    /// an extra queue hop (client → staging channel → submitter → shard
    /// mailbox) plus the submitter's wakeups.
    SingleSubmitter,
    /// The gate (PR 4) shape: every client owns a cloned
    /// [`IngestGate`](crowd4u_runtime::gate::IngestGate) handle and pushes
    /// straight into the owner shard's mailbox — one hop, no staging
    /// thread.
    Gate,
}

impl FrontDoor {
    pub fn name(&self) -> &'static str {
        match self {
            FrontDoor::SingleSubmitter => "single-submitter",
            FrontDoor::Gate => "gate",
        }
    }
}

/// The E11 gate-throughput workload: the E10 mixed multi-project stream,
/// with the answer phase driven by `submitters` concurrent client threads
/// (each owning a disjoint set of projects — disjoint owner shards is the
/// partitioning axis clients are expected to follow for peak ingest).
#[derive(Debug, Clone, Copy)]
pub struct GateWorkload {
    /// The event-stream shape (projects, items, workers, drain batching).
    pub shape: ShardWorkload,
    /// Concurrent client threads submitting the answer stream.
    pub submitters: usize,
}

impl Default for GateWorkload {
    fn default() -> Self {
        GateWorkload {
            // More items than E10: the admission window must be long
            // enough to time robustly (the answer stream is the timed
            // part). A deep drain_every keeps the *untimed* apply phase
            // cheap — E11 tunes for door measurement, not sync latency.
            shape: ShardWorkload {
                items: 2000,
                drain_every: 512,
                ..ShardWorkload::default()
            },
            submitters: 4,
        }
    }
}

/// Run the E11 workload at the given shard count through one of the two
/// front doors; returns (admission elapsed, answer events ingested,
/// derived `good` facts).
///
/// The timed region is **front-door admission**: how fast `submitters`
/// concurrent clients can push the answer stream into the shard mailboxes
/// while every shard is busy (stalled inside a job for the duration, the
/// regime where door capacity matters — a saturated platform must still
/// absorb client bursts without stalling them). Apply work is identical
/// through either door and deliberately excluded from the timer; after
/// admission the shards are released and the run completes normally. The
/// `good` count is the correctness check — both doors must derive the
/// same facts.
pub fn run_gate_workload(
    door: FrontDoor,
    shards: usize,
    w: &GateWorkload,
) -> (std::time::Duration, u64, usize) {
    use crowd4u_core::error::ProjectId;
    use crowd4u_core::events::{EventScope, PlatformEvent};
    use crowd4u_runtime::prelude::*;
    use std::time::Instant;

    let (setup, answers) = shard_workload_events(&w.shape);
    let total = answers.len() as u64;
    // Bounded mailboxes sized for the whole answer stream: the shards are
    // stalled for the entire admission window, so in the worst case every
    // answer queues on one shard. Deriving the bound from the workload
    // (instead of a fixed constant) keeps backpressure from ever engaging
    // — E11 measures the door, not shedding — for any workload size.
    // Telemetry is pinned off: the admission hop is ~150ns/event, so the
    // per-event span/stamp clock reads would dominate both doors and
    // compress the ratio the 1.5x gate watches. Telemetry cost has its
    // own budget (e2e's `telemetry.overhead_pct`, gated in `ci.sh`).
    let rt = ShardedRuntime::new_instrumented(
        RuntimeConfig {
            shards,
            drain_every: w.shape.drain_every,
            mailbox_capacity: answers.len() + 1,
            recovery: false,
        },
        crowd4u_telemetry::Registry::disabled(),
    );
    rt.submit_batch(setup);
    rt.drain();
    rt.barrier(); // every judge task exists before the answer fan-in starts

    // Partition the answer stream by project over the client threads.
    let submitters = w.submitters.max(1);
    let mut parts: Vec<Vec<PlatformEvent>> = vec![Vec::new(); submitters];
    for a in answers {
        let EventScope::Project(p) = a.scope() else {
            unreachable!("answer events are project-scoped");
        };
        parts[(p.0 as usize - 1) % submitters].push(a);
    }

    // Stall every shard: the admission window measures the front door,
    // not the (door-independent) apply work behind it.
    let stalls: Vec<_> = (0..shards)
        .map(|s| {
            let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
            let done = rt.submit_job(s, move |_| {
                release_rx.recv().expect("released");
            });
            (release_tx, done)
        })
        .collect();

    // Clients spawn before the timer and hold at a start barrier: thread
    // creation cost is front-door-independent and excluded from the
    // admission window.
    let go = std::sync::Barrier::new(submitters + 1);
    let elapsed = match door {
        FrontDoor::SingleSubmitter => std::thread::scope(|scope| {
            // The one thread allowed to touch the runtime's submission
            // API, fed by a shared staging channel.
            let (stage_tx, stage_rx) = std::sync::mpsc::channel::<PlatformEvent>();
            let submitter = scope.spawn(|| {
                for e in stage_rx {
                    rt.submit(e);
                }
            });
            for part in parts {
                let stage_tx = stage_tx.clone();
                let go = &go;
                scope.spawn(move || {
                    go.wait();
                    for e in part {
                        stage_tx.send(e).expect("submitter alive");
                    }
                });
            }
            drop(stage_tx);
            let start = Instant::now();
            go.wait();
            submitter.join().expect("submitter thread");
            start.elapsed()
        }),
        FrontDoor::Gate => std::thread::scope(|scope| {
            let clients: Vec<_> = parts
                .into_iter()
                .map(|part| {
                    let gate = rt.gate();
                    let go = &go;
                    scope.spawn(move || {
                        go.wait();
                        for e in part {
                            gate.submit(e).expect("runtime alive");
                        }
                    })
                })
                .collect();
            let start = Instant::now();
            go.wait();
            for c in clients {
                c.join().expect("client thread");
            }
            start.elapsed()
        }),
    };

    // Release the shards and let the run complete normally.
    for (release_tx, done) in stalls {
        release_tx.send(()).expect("shard alive");
        done.recv().expect("stall job finished");
    }
    rt.drain();
    rt.barrier();

    let owners: Vec<usize> = (0..w.shape.projects)
        .map(|p| rt.owner_of(ProjectId(p as u64 + 1)))
        .collect();
    let run = rt.finish().expect("runtime finish");
    assert_eq!(run.stats.dropped, 0, "E11 workload must be fully valid");
    let mut good = 0usize;
    for (p, &owner) in owners.iter().enumerate() {
        let project = ProjectId(p as u64 + 1);
        good += run.platforms[owner]
            .project(project)
            .expect("registered")
            .engine
            .fact_count("good")
            .expect("derived");
    }
    (elapsed, total, good)
}

/// Best-of-`reps` admission time for one front door (each repetition is a
/// fresh runtime + full workload; the minimum filters scheduler noise the
/// way Criterion's sampling does). Returns (best elapsed, events, good).
pub fn best_gate_admission(
    door: FrontDoor,
    shards: usize,
    w: &GateWorkload,
    reps: usize,
) -> (std::time::Duration, u64, usize) {
    let mut best: Option<(std::time::Duration, u64, usize)> = None;
    for _ in 0..reps.max(1) {
        let (elapsed, events, good) = run_gate_workload(door, shards, w);
        if let Some((b, be, bg)) = best {
            assert_eq!((events, good), (be, bg), "repetitions must agree");
            if elapsed < b {
                best = Some((elapsed, events, good));
            }
        } else {
            best = Some((elapsed, events, good));
        }
    }
    best.expect("reps >= 1")
}

/// The E12 scenario-streaming workload: `drivers` multi-project
/// scenarios, each ONE seeded crowd running all three §2.5 schemes on one
/// `Driver` — three projects per scenario. This is exactly the shape the
/// retired PR 3 execution model could not exploit: a whole-`Driver` shard
/// job pins all of a scenario's projects to one shard, while the PR 5
/// streaming port routes each project to its owner and the scenario spans
/// the runtime.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioStreamWorkload {
    /// Multi-project scenarios (keep ≤ the shard count: the baseline
    /// round-robins one whole scenario per shard).
    pub drivers: usize,
    pub crowd: usize,
    pub items: usize,
    pub seed: u64,
}

impl Default for ScenarioStreamWorkload {
    fn default() -> Self {
        ScenarioStreamWorkload {
            drivers: 2,
            crowd: 40,
            items: 4,
            seed: 29,
        }
    }
}

/// Per-driver scenario configs (distinct seeds).
pub fn multi_project_configs(w: &ScenarioStreamWorkload) -> Vec<crowd4u_scenarios::ScenarioConfig> {
    (0..w.drivers)
        .map(|i| {
            crowd4u_scenarios::ScenarioConfig::default()
                .with_crowd(w.crowd)
                .with_items(w.items)
                .with_seed(w.seed + i as u64 * 17)
        })
        .collect()
}

/// Drive one decision shadow through all three schemes back to back —
/// one crowd, three projects — and record its stream. The trace's
/// `shadow`/`completion` report fields are not meaningful for a
/// heterogeneous multi-project trace; E12 checks correctness by journal
/// byte-equality instead of report assembly.
pub fn record_multi_project_trace(
    config: &crowd4u_scenarios::ScenarioConfig,
) -> crowd4u_scenarios::ScenarioTrace {
    use crowd4u_scenarios::{run_scheme_on, Driver};
    let mut d = Driver::new(config);
    let mut last = None;
    for scheme in crowd4u_collab::Scheme::all() {
        last = Some(run_scheme_on(&mut d, scheme, config).expect("scenario run"));
    }
    crowd4u_scenarios::ScenarioTrace {
        scheme: crowd4u_collab::Scheme::Hybrid,
        ops: d.ops_since(0).expect("decode own journal"),
        crowd: config.crowd as u64,
        projects: d.platform.project_ids(),
        completion: crowd4u_scenarios::stream::Completion::CollabsCompleted,
        shadow: last.expect("three schemes ran"),
    }
}

/// The scenario execution model: push the pre-recorded scenario streams
/// through the ingestion gate — every project routed to its owner shard,
/// scenarios interleaved by timestamp, drain markers as coordinated
/// barriers. Timed region: submission and apply (the platform-side cost);
/// recording is untimed client-side decision work, exactly like a
/// production front-end deciding *before* it calls the ingestion API.
/// Returns the merged journal dump (must equal the serial
/// `apply_stream` reference byte for byte).
pub fn run_multi_project_streamed(
    shards: usize,
    traces: &[crowd4u_scenarios::ScenarioTrace],
) -> (std::time::Duration, String) {
    use crowd4u_runtime::prelude::*;
    use crowd4u_runtime::scenario::submit_retrying;
    use crowd4u_scenarios::stream::StreamOp;

    let rt = ShardedRuntime::new(RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 0,
        recovery: false,
    });
    let mut merged = crowd4u_scenarios::merge_traces(traces);
    let gate = rt.gate();
    let start = std::time::Instant::now();
    for (_, op) in merged.ops.drain(..) {
        match op {
            StreamOp::Event(e) => {
                submit_retrying(&gate, e).expect("runtime alive");
            }
            StreamOp::Drain => {
                rt.drain();
            }
        }
    }
    rt.barrier();
    let elapsed = start.elapsed();
    let run = rt.finish().expect("finish");
    (elapsed, run.journal.dump())
}

/// The untimed serial reference for the streamed run's correctness
/// check: the same merged stream applied by one thread to one platform.
pub fn multi_project_serial_reference(traces: &[crowd4u_scenarios::ScenarioTrace]) -> String {
    let merged = crowd4u_scenarios::merge_traces(traces);
    let mut platform = crowd4u_core::platform::Crowd4U::new();
    crowd4u_scenarios::stream::apply_stream(&mut platform, &merged).expect("serial apply");
    platform.journal().dump()
}

/// Best-of-`reps` timing for an E12 run; every repetition must reproduce
/// the same journal dumps (byte-level correctness inside the bench).
pub fn best_multi_project_run<T: PartialEq + std::fmt::Debug>(
    reps: usize,
    mut run: impl FnMut() -> (std::time::Duration, T),
) -> (std::time::Duration, T) {
    let mut best: Option<(std::time::Duration, T)> = None;
    for _ in 0..reps.max(1) {
        let (elapsed, out) = run();
        match &mut best {
            Some((b, prev)) => {
                assert_eq!(prev, &out, "repetitions must agree byte for byte");
                if elapsed < *b {
                    *b = elapsed;
                }
            }
            None => best = Some((elapsed, out)),
        }
    }
    best.expect("reps >= 1")
}

/// A random team-formation instance: `n` workers with uniform skills,
/// costs in `[0, 3)` and uniform pairwise affinities.
pub fn random_instance(n: usize, seed: u64) -> (Vec<Candidate>, AffinityMatrix) {
    let mut rng = SimRng::seed_from(seed);
    let cands: Vec<Candidate> = (0..n as u64)
        .map(|i| Candidate::new(WorkerId(i), rng.unit(), rng.range_f64(0.0, 3.0)))
        .collect();
    let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
    for i in 0..n as u64 {
        for j in (i + 1)..n as u64 {
            m.set(WorkerId(i), WorkerId(j), rng.unit());
        }
    }
    (cands, m)
}

/// A clustered instance (k clusters, high intra / low inter affinity) —
/// the regime where affinity-aware assignment visibly beats random.
pub fn clustered_instance(
    n: usize,
    clusters: usize,
    seed: u64,
) -> (Vec<Candidate>, AffinityMatrix) {
    let mut rng = SimRng::seed_from(seed);
    let cands: Vec<Candidate> = (0..n as u64)
        .map(|i| Candidate::new(WorkerId(i), 0.4 + 0.6 * rng.unit(), 0.0))
        .collect();
    let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
    let k = clusters.max(1);
    for i in 0..n {
        for j in (i + 1)..n {
            let same = (i % k) == (j % k);
            let base = if same { 0.75 } else { 0.15 };
            let v = (base + 0.15 * rng.gaussian()).clamp(0.0, 1.0);
            m.set(WorkerId(i as u64), WorkerId(j as u64), v);
        }
    }
    (cands, m)
}

/// All competing formation algorithms for E6/E7, boxed behind the trait.
pub fn all_algorithms(seed: u64) -> Vec<Box<dyn TeamFormation>> {
    vec![
        Box::new(ExactBB::default()),
        Box::new(GreedyAff::default()),
        Box::new(LocalSearch::default()),
        Box::new(RandomTeam::new(seed)),
    ]
}

/// Markdown-style table printer for experiment reports.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    pub fn new(headers: &[&str]) -> TablePrinter {
        TablePrinter {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(width) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('|');
        for w in &width {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
        }
        out
    }
}

// ---- E13: worker scale (lazy affinity + coordinator-owned service) ----

/// The E13 worker-scale workload shape: a large synthetic crowd with a
/// small slice speaking the project's rare required language (so the
/// assignment candidate set stays fixed while the population grows), plus
/// re-registration churn.
#[derive(Debug, Clone, Copy)]
pub struct WorkerScaleWorkload {
    /// Population size (10⁵ in the CI smoke, 10⁶ in the recorded baseline).
    pub workers: usize,
    /// Extra re-registrations, as a percentage of `workers`.
    pub churn_percent: usize,
    /// Crowd slice fluent in the rare project language — the assignment
    /// candidate pool, deliberately independent of `workers`.
    pub eligible: usize,
    /// Provider cache policy probed by the memory gate (top-k per worker).
    pub top_k: usize,
}

impl Default for WorkerScaleWorkload {
    fn default() -> Self {
        WorkerScaleWorkload {
            workers: 100_000,
            churn_percent: 10,
            eligible: 16,
            top_k: 8,
        }
    }
}

/// CyLog program of the E13 collaborative project (the declarative part is
/// irrelevant to the experiment; eligibility is the human-factor screen).
pub const WORKER_SCALE_SRC: &str = "rel doc(d: id).\n\
     open draft(d: id) -> (t: str) points 2.\nrel drafted(d: id, t: str).\n\
     drafted(D, T) :- doc(D), draft(D, T).\n";

/// Deterministic synthetic profile for worker `i` (1-based id): spread over
/// the unit square with a few languages and skills. Workers `i <= eligible`
/// are fluent in the rare language `"xh"` the E13 project requires.
pub fn scale_profile(i: u64, eligible: usize) -> WorkerProfile {
    // Cheap splitmix-style hash: profile features must be a pure function
    // of the id so churn re-registrations are reproducible.
    let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    let x = (h & 0xFFFF) as f64 / 65536.0;
    let y = ((h >> 16) & 0xFFFF) as f64 / 65536.0;
    let langs = ["en", "ja", "fr", "pt"];
    let mut p = WorkerProfile::new(WorkerId(i), format!("w{i}"))
        .with_region(Region::new(format!("r{}", h % 7), x, y))
        .with_native_lang(langs[(h % 4) as usize])
        .with_skill("survey", ((h >> 32) & 0xFF) as f64 / 255.0);
    if i as usize <= eligible {
        p = p.with_fluency("xh", 1.0).with_skill("drafting", 0.9);
    }
    p
}

/// The E13 event stream: `workers` registrations followed by churn
/// re-registrations (every `100 / churn_percent`-th worker comes back with
/// a bumped skill). Workers come **first** — bulk onboarding, which a
/// replica takes as one pull of the worker service's delta log.
pub fn worker_scale_events(w: &WorkerScaleWorkload) -> Vec<crowd4u_core::events::PlatformEvent> {
    use crowd4u_core::events::PlatformEvent;
    let churn = w.workers * w.churn_percent / 100;
    let mut events = Vec::with_capacity(w.workers + churn);
    for i in 1..=w.workers as u64 {
        events.push(PlatformEvent::WorkerRegistered {
            profile: scale_profile(i, w.eligible),
        });
    }
    let stride = (w.workers / churn.max(1)).max(1) as u64;
    for k in 0..churn as u64 {
        let i = 1 + (k * stride) % w.workers as u64;
        events.push(PlatformEvent::WorkerRegistered {
            profile: scale_profile(i, w.eligible).with_skill("survey", 0.99),
        });
    }
    events
}

/// Register the E13 crowd (with churn) on one platform, timing the first
/// and last decile of registrations. With the lazy provider both deciles
/// cost the same per event — there is no per-registration dense-state
/// invalidation, and nothing downstream rebuilds an O(n²) matrix.
/// Returns `(first_decile, last_decile, events, platform)`.
pub fn registration_deciles(
    w: &WorkerScaleWorkload,
) -> (
    std::time::Duration,
    std::time::Duration,
    usize,
    crowd4u_core::platform::Crowd4U,
) {
    let mut events = worker_scale_events(w);
    let decile = (events.len() / 10).max(1);
    events.truncate(decile * 10); // equal-length deciles
    let n = events.len();
    let mut platform = crowd4u_core::platform::Crowd4U::new();
    let mut first = std::time::Duration::ZERO;
    let mut last = std::time::Duration::ZERO;
    for (k, chunk) in events.chunks(decile).enumerate() {
        let t = std::time::Instant::now();
        for e in chunk {
            platform.apply_event(e.clone()).expect("registration");
        }
        let dt = t.elapsed();
        if k == 0 {
            first = dt;
        }
        last = dt;
    }
    (first, last, n, platform)
}

/// Set up the E13 collaborative project on a populated platform and return
/// its id. The project requires the rare language, so its candidate pool
/// is the `eligible` slice regardless of population size.
pub fn worker_scale_project(
    platform: &mut crowd4u_core::platform::Crowd4U,
) -> crowd4u_core::error::ProjectId {
    use crowd4u_forms::admin::DesiredFactors;
    platform
        .register_project(
            "e13-drafting",
            WORKER_SCALE_SRC,
            DesiredFactors {
                required_language: Some("xh".into()),
                skill_name: Some("drafting".into()),
                min_quality: 0.6,
                min_team: 2,
                max_team: 4,
                recruitment_secs: 600,
                ..Default::default()
            },
            crowd4u_collab::Scheme::Sequential,
        )
        .expect("e13 project")
}

/// p99 latency of `run_assignment` over `iters` fresh collaborative tasks
/// (each with the eligible slice's interest expressed). The candidate set
/// is the fixed eligible slice, so this latency must not scale with the
/// total population — the relative gate the E13 bench asserts.
pub fn assignment_p99(
    platform: &mut crowd4u_core::platform::Crowd4U,
    project: crowd4u_core::error::ProjectId,
    eligible: usize,
    iters: usize,
) -> std::time::Duration {
    let mut samples = Vec::with_capacity(iters);
    for k in 0..iters {
        let task = platform
            .create_collab_task(project, format!("draft {k}"))
            .expect("collab task");
        for i in 1..=eligible as u64 {
            platform
                .express_interest(WorkerId(i), task)
                .expect("eligible interest");
        }
        let t = std::time::Instant::now();
        let team = platform.run_assignment(task);
        samples.push(t.elapsed());
        team.expect("feasible team from the eligible slice");
    }
    samples.sort();
    samples[(samples.len() * 99 / 100).min(samples.len() - 1)]
}

/// Peak resident set size of this process (Linux `VmHWM`), if readable.
/// The E13 memory gate bounds it far below the dense-matrix footprint.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The E13 runtime leg: the registration + churn stream through the
/// sharded runtime (workers first — one bulk pull per replica), then
/// the project, a collaborative assignment, and `finish`. Returns the wall
/// time, total applied events, and each shard's `(workers, version)` —
/// which must agree across shards and with a serial register.
pub fn run_worker_scale_runtime(
    shards: usize,
    w: &WorkerScaleWorkload,
) -> (std::time::Duration, u64, Vec<(usize, u64)>) {
    use crowd4u_core::events::PlatformEvent;
    use crowd4u_runtime::prelude::*;
    let events = worker_scale_events(w);
    let start = std::time::Instant::now();
    let rt = ShardedRuntime::new(RuntimeConfig {
        shards,
        drain_every: 0,
        mailbox_capacity: 4096,
        recovery: false,
    });
    rt.submit_batch(events);
    // Mailbox order makes the sequencing safe: the project broadcast lands
    // behind every registration, and the collab/interest/assignment events
    // land behind the project on its owning shard.
    rt.submit(PlatformEvent::ProjectRegistered {
        name: "e13-drafting".into(),
        source: WORKER_SCALE_SRC.into(),
        factors: crowd4u_forms::admin::DesiredFactors {
            required_language: Some("xh".into()),
            skill_name: Some("drafting".into()),
            min_quality: 0.6,
            min_team: 2,
            max_team: 4,
            recruitment_secs: 600,
            ..Default::default()
        },
        scheme: crowd4u_collab::Scheme::Sequential,
        owner: 0,
    });
    let project = crowd4u_core::error::ProjectId(1);
    rt.submit(PlatformEvent::CollabTaskCreated {
        project,
        description: "draft 0".into(),
    });
    let task = crowd4u_core::error::TaskId::compose(project, 1);
    for i in 1..=w.eligible as u64 {
        rt.submit(PlatformEvent::InterestExpressed {
            worker: WorkerId(i),
            task,
        });
    }
    rt.submit(PlatformEvent::AssignmentRun { task });
    rt.drain();
    let run = rt.finish().expect("clean finish");
    let elapsed = start.elapsed();
    let per_shard = run
        .platforms
        .iter()
        .map(|p| (p.workers.len(), p.workers.version()))
        .collect();
    (elapsed, run.stats.applied, per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::affinity::AffinityLookup;

    #[test]
    fn random_instance_is_seeded() {
        let (c1, m1) = random_instance(12, 5);
        let (c2, m2) = random_instance(12, 5);
        assert_eq!(c1, c2);
        assert_eq!(
            m1.affinity(WorkerId(0), WorkerId(5)),
            m2.affinity(WorkerId(0), WorkerId(5))
        );
        let (c3, _) = random_instance(12, 6);
        assert_ne!(c1, c3);
    }

    #[test]
    fn clustered_instance_has_structure() {
        let (_, m) = clustered_instance(30, 3, 7);
        let mut same = Vec::new();
        let mut cross = Vec::new();
        for i in 0..30u64 {
            for j in (i + 1)..30 {
                let a = m.affinity(WorkerId(i), WorkerId(j));
                if i % 3 == j % 3 {
                    same.push(a);
                } else {
                    cross.push(a);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&same) > mean(&cross) + 0.3);
    }

    #[test]
    fn shard_workload_runs_and_agrees_across_shard_counts() {
        let w = ShardWorkload {
            projects: 4,
            items: 20,
            workers: 4,
            drain_every: 8,
        };
        let (setup, answers) = shard_workload_events(&w);
        assert_eq!(setup.len(), 4 + 4 + 4 * 20);
        assert_eq!(answers.len(), 4 * 20);
        let (_, total1, good1) = run_shard_workload(1, &w);
        let (_, total2, good2) = run_shard_workload(2, &w);
        assert_eq!(total1, total2);
        assert_eq!(good1, good2);
        assert_eq!(good1, 4 * 18); // 10% of 20 rejected per project
    }

    #[test]
    fn algorithms_enumerated() {
        let algs = all_algorithms(1);
        assert_eq!(algs.len(), 4);
        let names: Vec<&str> = algs.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"exact-bb"));
        assert!(names.contains(&"random"));
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = TablePrinter::new(&["alg", "affinity"]);
        t.row(vec!["exact".into(), "0.91".into()]);
        t.row(vec!["greedy-longer-name".into(), "0.88".into()]);
        let out = t.render();
        assert!(out.contains("| alg"));
        assert!(out.lines().count() == 4);
        assert!(out.contains("|---"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_bad_arity() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
