//! The four workloads and their event generators.
//!
//! The benchmark owns its generators: nothing here comes from
//! `crowd4u_bench`, so editing that library cannot change what is measured.
//! Every generator is a pure function of `(size, seed)`.

use crate::sut::{
    self, DesiredFactors, Op, PlatformEvent, ProjectId, Region, Scheme, TaskId, WorkerId,
    WorkerProfile,
};
use std::time::Duration;

pub const NAMES: [&str; 4] = [
    "mixed_shared",
    "judge_stream",
    "crowd_churn",
    "crash_recover",
];

/// The shipped defaults every end-to-end run uses.
pub const SHARDS: usize = 2;
pub const MAILBOX_CAPACITY: usize = 1024;

/// SplitMix64: the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What a run's outputs are checked against.
pub enum Check {
    /// Merged journal byte-identical to the serial `apply_stream`.
    JournalIdentical,
    /// This many `good` facts, nothing dropped, and `Crowd4U::replay` of
    /// the merged journal reproduces them.
    GoodFacts(usize),
}

/// Workload sizes; `describe` is what the result document records.
#[derive(Clone, Copy, Debug)]
pub enum Sizes {
    Mixed {
        crowd: usize,
        items: usize,
    },
    Judge {
        projects: u64,
        items: u64,
        workers: u64,
        wave: usize,
        drain_every: usize,
        kill: bool,
    },
    Churn {
        workers: u64,
        projects: u64,
        eligible: u64,
        rounds: usize,
        churn: usize,
    },
}

impl Sizes {
    pub fn of(name: &str, smoke: bool) -> Option<Sizes> {
        let judge = |kill| {
            if smoke {
                Sizes::Judge {
                    projects: 4,
                    items: 20,
                    workers: 4,
                    wave: 16,
                    drain_every: 12,
                    kill,
                }
            } else {
                Sizes::Judge {
                    projects: 8,
                    items: 300,
                    workers: 8,
                    wave: 64,
                    drain_every: 48,
                    kill,
                }
            }
        };
        Some(match name {
            "mixed_shared" if smoke => Sizes::Mixed {
                crowd: 16,
                items: 2,
            },
            "mixed_shared" => Sizes::Mixed {
                crowd: 100,
                items: 40,
            },
            "judge_stream" => judge(false),
            "crash_recover" => judge(true),
            "crowd_churn" if smoke => Sizes::Churn {
                workers: 400,
                projects: 2,
                eligible: 8,
                rounds: 4,
                churn: 10,
            },
            "crowd_churn" => Sizes::Churn {
                workers: 5_000,
                projects: 4,
                eligible: 16,
                rounds: 128,
                churn: 64,
            },
            _ => return None,
        })
    }

    pub fn describe(&self) -> String {
        match *self {
            Sizes::Mixed { crowd, items } => format!("crowd={crowd} items={items}"),
            Sizes::Judge {
                projects,
                items,
                workers,
                wave,
                drain_every,
                kill,
            } => format!(
                "projects={projects} items={items} workers={workers} wave={wave} \
                 drain_every={drain_every} kill={kill}"
            ),
            Sizes::Churn {
                workers,
                projects,
                eligible,
                rounds,
                churn,
            } => format!(
                "workers={workers} projects={projects} eligible={eligible} rounds={rounds} \
                 churn={churn}"
            ),
        }
    }
}

pub struct Workload {
    pub sizes: Sizes,
    pub config: sut::Config,
    /// The population and the projects of the synthetic workloads,
    /// submitted and drained before the timed phases and counted in set-up
    /// (empty on `mixed_shared`, whose recorded stream registers its own).
    pub onboard: Vec<PlatformEvent>,
    pub ops: Vec<Op>,
    /// A closed-loop client stops to look at the first drain point at least
    /// this many events after its last look. The scenario stream drains at
    /// every simulated tick, and a client polling each tick would mostly
    /// time empty ticks; the synthetic streams mark their own waves.
    pub min_wave_events: usize,
    pub check: Check,
    /// `scenarios.record_s` / `scenarios.merge_ms` (zero for the synthetic
    /// generators).
    pub record: Duration,
    pub merge: Duration,
}

impl Workload {
    pub fn events(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Event(_)))
            .count()
    }
}

pub fn generate(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let sizes = Sizes::of(name, smoke)?;
    let mut w = Workload {
        sizes,
        config: sut::Config {
            shards: SHARDS,
            drain_every: 0,
            mailbox_capacity: MAILBOX_CAPACITY,
            recovery: false,
            telemetry: true,
            kill: None,
        },
        onboard: Vec::new(),
        ops: Vec::new(),
        min_wave_events: 1,
        check: Check::JournalIdentical,
        record: Duration::ZERO,
        merge: Duration::ZERO,
    };
    match sizes {
        Sizes::Mixed { crowd, items } => {
            (w.ops, w.record, w.merge) = sut::mixed_shared_stream(crowd, items, seed);
            w.min_wave_events = if smoke { 32 } else { 256 };
        }
        Sizes::Judge {
            projects,
            items,
            workers,
            wave,
            drain_every,
            kill,
        } => {
            w.config.drain_every = drain_every;
            if kill {
                // Shard 1 owns every second project; it dies three-quarters
                // through its own seeds and answers.
                w.config.recovery = true;
                w.config.kill = Some((1, projects * items * 3 / 4));
            }
            w.onboard = judge_onboard(projects, workers);
            let (ops, good) = judge_ops(projects, items, workers, wave, seed);
            w.ops = ops;
            w.check = Check::GoodFacts(good);
        }
        Sizes::Churn {
            workers,
            projects,
            eligible,
            rounds,
            churn,
        } => {
            w.onboard = churn_onboard(workers, projects, eligible);
            w.ops = churn_ops(workers, projects, eligible, rounds, churn, seed);
        }
    }
    Some(w)
}

/// Append `events` as closed-loop waves of `wave` events, and drain after
/// the last one. Between waves the runtime's own streaming-mode auto-drain
/// is what syncs, as it would under a client that never waits.
fn push_waves(ops: &mut Vec<Op>, events: Vec<PlatformEvent>, wave: usize) {
    for (i, e) in events.into_iter().enumerate() {
        if i > 0 && i % wave == 0 {
            ops.push(Op::Wave);
        }
        ops.push(Op::Event(e));
    }
    ops.push(Op::Drain);
}

/// The micro-task population: the workers and the judge projects.
fn judge_onboard(projects: u64, workers: u64) -> Vec<PlatformEvent> {
    let workers = (1..=workers).map(|i| PlatformEvent::WorkerRegistered {
        profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
    });
    let projects = (0..projects).map(|p| PlatformEvent::ProjectRegistered {
        name: format!("proj-{p}"),
        source: sut::JUDGE_SRC.into(),
        factors: DesiredFactors::default(),
        scheme: Scheme::Sequential,
        owner: 0,
    });
    workers.chain(projects).collect()
}

/// The micro-task stream: every item seeded round-robin across projects,
/// then every judge task answered in the same order. The seed picks which
/// tenth of each project's items is rejected and who answers; returns the
/// ops and the expected `good` count.
fn judge_ops(projects: u64, items: u64, workers: u64, wave: usize, seed: u64) -> (Vec<Op>, usize) {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut seeds = Vec::new();
    for i in 1..=items {
        for p in 1..=projects {
            seeds.push(PlatformEvent::FactSeeded {
                project: ProjectId(p),
                pred: "item".into(),
                values: vec![sut::id_value(i)],
            });
        }
    }
    push_waves(&mut ops, seeds, wave);
    // Exactly one rejection in every ten consecutive items of a project, at
    // a seeded position, so the `good` count is the same for every seed.
    let mut answers = Vec::new();
    let mut good = 0usize;
    let mut reject_at = vec![0u64; projects as usize];
    for i in 0..items {
        for p in 0..projects {
            if i % 10 == 0 {
                reject_at[p as usize] = rng.below(10);
            }
            let ok = i % 10 != reject_at[p as usize];
            good += ok as usize;
            answers.push(PlatformEvent::AnswerSubmitted {
                worker: WorkerId(1 + rng.below(workers)),
                task: TaskId::compose(ProjectId(p + 1), i + 1),
                outputs: vec![sut::bool_value(ok)],
            });
        }
    }
    push_waves(&mut ops, answers, wave);
    (ops, good)
}

/// Deterministic synthetic profile for worker `i` (1-based): spread over
/// the unit square with a few languages and skills. Workers `i <= eligible`
/// are fluent in the rare language the churn projects require.
fn scale_profile(i: u64, eligible: u64) -> WorkerProfile {
    let mut h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    let x = (h & 0xFFFF) as f64 / 65536.0;
    let y = ((h >> 16) & 0xFFFF) as f64 / 65536.0;
    let langs = ["en", "ja", "fr", "pt"];
    let mut p = WorkerProfile::new(WorkerId(i), format!("w{i}"))
        .with_region(Region::new(format!("r{}", h % 7), x, y))
        .with_native_lang(langs[(h % 4) as usize])
        .with_skill("survey", ((h >> 32) & 0xFF) as f64 / 255.0);
    if i <= eligible {
        p = p.with_fluency("xh", 1.0).with_skill("drafting", 0.9);
    }
    p
}

/// The churn population: the bulk crowd, and projects that only the rare
/// language's speakers may join.
fn churn_onboard(workers: u64, projects: u64, eligible: u64) -> Vec<PlatformEvent> {
    let workers = (1..=workers).map(|i| PlatformEvent::WorkerRegistered {
        profile: scale_profile(i, eligible),
    });
    let projects = (0..projects).map(|p| PlatformEvent::ProjectRegistered {
        name: format!("drafting-{p}"),
        source: sut::DRAFT_SRC.into(),
        factors: DesiredFactors {
            required_language: Some("xh".into()),
            skill_name: Some("drafting".into()),
            min_quality: 0.6,
            min_team: 2,
            max_team: 4,
            recruitment_secs: 600,
            ..Default::default()
        },
        scheme: Scheme::Sequential,
        owner: 0,
    });
    workers.chain(projects).collect()
}

/// Profile writes beside assignment reads: every round re-registers `churn`
/// seeded workers with a new skill level, then each project opens a
/// collaborative task, hears from its eligible slice and forms a team.
fn churn_ops(
    workers: u64,
    projects: u64,
    eligible: u64,
    rounds: usize,
    churn: usize,
    seed: u64,
) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    for round in 1..=rounds as u64 {
        for _ in 0..churn {
            let i = 1 + rng.below(workers);
            let level = rng.below(256) as f64 / 255.0;
            ops.push(Op::Event(PlatformEvent::WorkerRegistered {
                profile: scale_profile(i, eligible).with_skill("survey", level),
            }));
        }
        for p in 1..=projects {
            let project = ProjectId(p);
            ops.push(Op::Event(PlatformEvent::CollabTaskCreated {
                project,
                description: format!("draft {round}"),
            }));
            let task = TaskId::compose(project, round);
            for w in 1..=eligible {
                ops.push(Op::Event(PlatformEvent::InterestExpressed {
                    worker: WorkerId(w),
                    task,
                }));
            }
            ops.push(Op::Event(PlatformEvent::AssignmentRun { task }));
        }
        ops.push(Op::Drain);
    }
    ops
}

/// The candidate-pool size the stream's assignments see: interests
/// expressed per assignment run (16 where the stream forms no team).
pub fn candidate_pool(ops: &[Op]) -> usize {
    let count = |kind: &str| {
        ops.iter()
            .filter(|op| matches!(op, Op::Event(e) if sut::kind_of(e) == kind))
            .count()
    };
    match count("assign") {
        0 => 16,
        assigns => (count("interest") / assigns).max(2),
    }
}

/// Items per project for the direct CyLog probe: the workload's own where it
/// has judge items, the full-size judge default elsewhere.
pub fn items_per_project(sizes: &Sizes) -> u64 {
    match *sizes {
        Sizes::Judge { items, .. } => items,
        _ => 300,
    }
}
