//! The one adapter between the benchmark and the system under test.
//!
//! Every call into a `crowd4u-*` crate goes through this file, and only
//! public functions are used. A later change to the runtime's constructors
//! or execution model therefore needs an edit here and nowhere else in the
//! benchmark. The event vocabulary is re-exported so the workload
//! generators can build their streams without naming a crate.

pub use crowd4u_collab::Scheme;
pub use crowd4u_core::error::{ProjectId, TaskId, WorkerId};
pub use crowd4u_core::events::PlatformEvent;
pub use crowd4u_crowd::profile::{Region, WorkerProfile};
pub use crowd4u_forms::admin::DesiredFactors;

use crowd4u_assign::greedy::{GreedyAff, LocalSearch};
use crowd4u_assign::types::{Candidate, TeamConstraints, TeamFormation};
use crowd4u_core::events::{EventScope, DRAIN_KIND};
use crowd4u_core::platform::Crowd4U;
use crowd4u_crowd::affinity::AffinityProvider;
use crowd4u_cylog::engine::{AnswerRecord, CylogEngine};
use crowd4u_runtime::{FaultPlan, RuntimeConfig, ShardedRuntime};
use crowd4u_scenarios::stream::{merge_traces_with, CrowdMode, StreamOp};
use crowd4u_scenarios::{mixed, ScenarioConfig};
use crowd4u_storage::journal::{EventJournal, JournalEntry};
use crowd4u_storage::relation::Relation;
use crowd4u_storage::schema::Schema;
use crowd4u_storage::value::{Value, ValueType};
use crowd4u_telemetry::{stage, Registry};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The CyLog program of the micro-task workloads: one open `judge`
/// question per item and one derived relation consuming the answers.
pub const JUDGE_SRC: &str = "rel item(i: id).\nopen judge(i: id) -> (ok: bool) points 1.\n\
     rel good(i: id).\ngood(I) :- item(I), judge(I, OK), OK = true.\n";

/// The CyLog program of the `crowd_churn` projects (the declarative part
/// is idle there: eligibility is the human-factor screen).
pub const DRAFT_SRC: &str = "rel doc(d: id).\nopen draft(d: id) -> (t: str) points 2.\n\
     rel drafted(d: id, t: str).\ndrafted(D, T) :- doc(D), draft(D, T).\n";

/// An item-id fact argument (`item(i)` rows, `judge` inputs).
pub fn id_value(i: u64) -> Value {
    i.into()
}

/// A boolean answer output.
pub fn bool_value(b: bool) -> Value {
    b.into()
}

/// One step of a workload's stream. `Drain` and `Wave` both end a wave: a
/// closed-loop client waits there for `drain()+barrier()`. A `Drain` is part
/// of the stream itself (a pipelined run submits it as an in-stream
/// barrier, the serial reference drains); a `Wave` only marks where the
/// closed-loop client of a streaming-mode workload stops to look.
#[derive(Clone)]
pub enum Op {
    Event(PlatformEvent),
    Drain,
    Wave,
}

/// True for events every shard applies (`EventScope::Global`).
pub fn is_broadcast(e: &PlatformEvent) -> bool {
    e.scope() == EventScope::Global
}

/// The journal kind of an event (`worker`, `seed`, `assign`, ...).
pub fn kind_of(e: &PlatformEvent) -> &'static str {
    e.kind()
}

/// How a runtime is built. `kill` is `(shard, after_applied)`.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub shards: usize,
    pub drain_every: usize,
    pub mailbox_capacity: usize,
    pub recovery: bool,
    pub telemetry: bool,
    pub kill: Option<(usize, u64)>,
}

/// What the five stage histograms and the recovery cells held after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTotals {
    /// `(count, sum_ns)` in `stage::ALL` order: gate admit, mailbox dwell,
    /// shard apply, CyLog fixpoint, journal append.
    pub stages: [(u64, u64); 5],
    pub recoveries: u64,
    pub recovery_ns: u64,
}

/// A running sharded runtime and the handle the submitter uses.
pub struct Runtime {
    rt: ShardedRuntime,
    gate: crowd4u_runtime::IngestGate,
}

/// What a finished run hands to the correctness checks.
pub struct Finished {
    pub journal: EventJournal,
    pub dropped: u64,
    pub auto_drains: u64,
    /// `good` facts summed over every slice (replicas hold none).
    pub good: usize,
    pub finish_wall: Duration,
}

impl Runtime {
    /// The benchmark's only runtime constructor call sites.
    pub fn start(cfg: &Config) -> Runtime {
        let config = RuntimeConfig {
            shards: cfg.shards,
            drain_every: cfg.drain_every,
            mailbox_capacity: cfg.mailbox_capacity,
            recovery: cfg.recovery,
        };
        let telemetry = if cfg.telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let rt = match cfg.kill {
            Some((shard, after)) => ShardedRuntime::new_chaos_instrumented(
                config,
                telemetry,
                FaultPlan::kill(shard, after),
            ),
            None => ShardedRuntime::new_instrumented(config, telemetry),
        };
        let gate = rt.gate();
        Runtime { rt, gate }
    }

    /// Blocking submit through the gate; `false` is a gate error.
    pub fn submit(&self, event: PlatformEvent) -> bool {
        self.gate.submit(event).is_ok()
    }

    /// Enqueue a coordinated drain barrier (does not wait).
    pub fn drain(&self) {
        self.rt.drain();
    }

    /// Wait until every shard has processed its mailbox.
    pub fn barrier(&self) {
        self.rt.barrier();
    }

    pub fn stage_totals(&self) -> StageTotals {
        let snap = self.rt.metrics();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .filter(|((n, _), _)| n == name)
                .fold((0, 0), |(c, s), (_, h)| (c + h.count, s + h.sum))
        };
        let mut out = StageTotals::default();
        for (slot, name) in out.stages.iter_mut().zip(stage::ALL) {
            *slot = hist(name);
        }
        out.recoveries = snap.counter_total(stage::RECOVERIES);
        out.recovery_ns = hist(stage::RECOVERY_SPAN).1;
        out
    }

    /// Time a metrics scrape and its Prometheus rendering: `(snapshot, render)`.
    pub fn scrape_cost(&self) -> (Duration, Duration) {
        let t = Instant::now();
        let snap = self.rt.metrics();
        let snapshot = t.elapsed();
        let t = Instant::now();
        black_box(snap.render());
        (snapshot, t.elapsed())
    }

    pub fn finish(self) -> Finished {
        let t = Instant::now();
        let run = self.rt.finish().expect("runtime finish");
        let finish_wall = t.elapsed();
        let good = run.platforms.iter().map(good_facts).sum();
        Finished {
            journal: run.journal,
            dropped: run.stats.dropped,
            auto_drains: run.stats.auto_drains,
            good,
            finish_wall,
        }
    }
}

fn good_facts(p: &Crowd4U) -> usize {
    p.project_ids()
        .into_iter()
        .filter_map(|id| p.project(id).ok())
        .filter_map(|proj| proj.engine.fact_count("good").ok())
        .sum()
}

/// The serial reference: the stream applied by one thread to one platform,
/// with a mailbox's per-event error tolerance.
pub struct Serial {
    platform: Crowd4U,
    pub dropped: u64,
}

impl Serial {
    pub fn new() -> Serial {
        Serial {
            platform: Crowd4U::new(),
            dropped: 0,
        }
    }

    /// Apply one event; `false` (and one more `dropped`) if the platform
    /// rejects it.
    pub fn apply(&mut self, event: PlatformEvent) -> bool {
        let ok = self.platform.apply_event(event).is_ok();
        self.dropped += !ok as u64;
        ok
    }

    pub fn drain(&mut self) {
        self.platform.drain_events().expect("serial drain");
    }

    /// `sync_tasks` on every dirty project, without the `drain` entry —
    /// what a shard's streaming-mode auto-drain does.
    pub fn sync_dirty(&mut self) {
        for p in self.platform.dirty_projects() {
            self.platform.sync_tasks(p).expect("serial sync");
        }
    }

    pub fn run(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Event(e) => {
                    self.apply(e.clone());
                }
                Op::Drain => self.drain(),
                Op::Wave => {}
            }
        }
    }

    pub fn journal(&self) -> &EventJournal {
        self.platform.journal()
    }

    pub fn journal_dump(&self) -> String {
        self.platform.journal().dump()
    }

    pub fn state_dump(&self) -> String {
        self.platform.state_dump()
    }

    pub fn good(&self) -> usize {
        good_facts(&self.platform)
    }

    /// `Crowd4U::eligible_set` on the first project.
    pub fn eligible_set(&mut self) -> usize {
        self.platform
            .eligible_set(ProjectId(1))
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// Up to `n` registered profiles (the affinity and formation probes
    /// run over the workload's own crowd).
    pub fn profiles(&self, n: usize) -> Vec<WorkerProfile> {
        self.platform.workers.profiles().take(n).cloned().collect()
    }
}

/// `Crowd4U::replay` of a journal; returns the replayed `good` count and
/// state dump.
pub fn replay(journal: &EventJournal) -> Result<(usize, String), String> {
    let p = Crowd4U::replay(journal).map_err(|e| e.to_string())?;
    Ok((good_facts(&p), p.state_dump()))
}

pub fn journal_dump(journal: &EventJournal) -> String {
    journal.dump()
}

/// PR 10's shared-crowd `mixed` stream: the three schemes recorded over one
/// population and merged by timestamp. Returns the ops and the two
/// generation walls `(record, merge)`.
pub fn mixed_shared_stream(crowd: usize, items: usize, seed: u64) -> (Vec<Op>, Duration, Duration) {
    let cfg = ScenarioConfig::default()
        .with_crowd(crowd)
        .with_items(items)
        .with_seed(seed);
    let t = Instant::now();
    let traces = mixed::record(&cfg).expect("record the three schemes");
    let record = t.elapsed();
    let t = Instant::now();
    let merged = merge_traces_with(&traces, CrowdMode::Shared).expect("shared merge");
    let merge = t.elapsed();
    let ops = merged
        .ops
        .into_iter()
        .map(|(_, op)| match op {
            StreamOp::Event(e) => Op::Event(e),
            StreamOp::Drain => Op::Drain,
        })
        .collect();
    (ops, record, merge)
}

// ---- layer probes: each layer driven directly, from outside ----

fn per_op_ns(wall: Duration, n: usize) -> f64 {
    wall.as_nanos() as f64 / n.max(1) as f64
}

/// `cylog.*`: a `CylogEngine` fed the judge program in waves.
#[derive(Debug, Default)]
pub struct CylogProbe {
    pub add_fact_ns: f64,
    pub run_delta_us: f64,
    pub run_full_ms: f64,
    pub answer_batch_ns_per_answer: f64,
    pub firings_per_answer: f64,
    pub derived_per_answer: f64,
    pub recomputes: f64,
    pub strata_skipped_share: f64,
}

pub fn cylog_probe(items: u64, wave: u64) -> CylogProbe {
    let mut engine = CylogEngine::from_source(JUDGE_SRC).expect("static program");
    let (mut add, mut delta, mut batch) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut runs, mut answers) = (0usize, 0usize);
    let mut next = 1u64;
    while next <= items {
        let hi = (next + wave - 1).min(items);
        let t = Instant::now();
        for i in next..=hi {
            engine.add_fact("item", vec![i.into()]).expect("typed fact");
        }
        add += t.elapsed();
        let t = Instant::now();
        engine.run().expect("stratified program");
        delta += t.elapsed();
        let recs: Vec<AnswerRecord> = engine
            .pending_requests()
            .iter()
            .map(|req| AnswerRecord {
                pred: req.pred_name.clone(),
                inputs: req.inputs.clone(),
                outputs: vec![(req.inputs[0].as_id().expect("item id") % 10 != 0).into()],
                worker: Some(1),
            })
            .collect();
        let t = Instant::now();
        engine.answer_batch(&recs).expect("valid answers");
        batch += t.elapsed();
        let t = Instant::now();
        engine.run().expect("stratified program");
        delta += t.elapsed();
        runs += 2;
        answers += recs.len();
        next = hi + 1;
    }
    let stats = engine.cumulative_stats();
    // A full recomputation at the final size: what one retraction costs.
    let mut full = CylogEngine::from_source(JUDGE_SRC).expect("static program");
    for i in 1..=items {
        full.add_fact("item", vec![i.into()]).expect("typed fact");
    }
    let t = Instant::now();
    full.run().expect("stratified program");
    let run_full = t.elapsed();
    let strata = (stats.strata_skipped + stats.strata_recomputed + stats.rounds).max(1);
    CylogProbe {
        add_fact_ns: per_op_ns(add, items as usize),
        run_delta_us: per_op_ns(delta, runs) / 1e3,
        run_full_ms: run_full.as_secs_f64() * 1e3,
        answer_batch_ns_per_answer: per_op_ns(batch, answers),
        firings_per_answer: stats.firings as f64 / answers.max(1) as f64,
        derived_per_answer: stats.derived as f64 / answers.max(1) as f64,
        recomputes: stats.recomputes as f64,
        strata_skipped_share: stats.strata_skipped as f64 / strata as f64,
    }
}

/// `storage.relation.*`: an indexed two-column relation at `rows` rows.
/// Returns `(insert_ns, lookup_ns, delete_matching_ns)` per operation.
pub fn relation_probe(rows: u64) -> (f64, f64, f64) {
    let schema = Schema::of(&[("task", ValueType::Id), ("worker", ValueType::Id)]);
    let mut rel = Relation::new("probe", schema);
    rel.create_index(&["task"], false).expect("index column");
    let per_task = 16u64;
    let row = |i: u64| -> Vec<Value> { vec![(i / per_task).into(), (i % per_task).into()] };
    let t = Instant::now();
    for i in 0..rows {
        rel.insert_distinct(row(i)).expect("typed row");
    }
    let insert = per_op_ns(t.elapsed(), rows as usize);
    let tasks = rows / per_task;
    let probes = tasks.clamp(1, 2000);
    let t = Instant::now();
    for k in 0..probes {
        let key: Value = ((k * 7919) % tasks.max(1)).into();
        black_box(rel.lookup(&[0], &[key]).len());
    }
    let lookup = per_op_ns(t.elapsed(), probes as usize);
    let t = Instant::now();
    for k in 0..probes {
        let key: Value = ((k * 7919) % tasks.max(1)).into();
        black_box(rel.delete_matching(&[0], &[key]));
    }
    let delete = per_op_ns(t.elapsed(), probes as usize);
    (insert, lookup, delete)
}

/// `storage.journal.*` over a run's own journal, all per entry.
#[derive(Debug, Default)]
pub struct JournalProbe {
    pub encode_ns: f64,
    pub append_ns: f64,
    pub dump_ns_per_entry: f64,
    pub load_ns_per_entry: f64,
    pub merge_ns_per_entry: f64,
    pub bytes_per_event: f64,
}

pub fn journal_probe(events: &[PlatformEvent], journal: &EventJournal) -> JournalProbe {
    let sample = &events[..events.len().min(20_000)];
    let t = Instant::now();
    for e in sample {
        black_box(e.encode());
    }
    let encode = per_op_ns(t.elapsed(), sample.len());
    let entries: Vec<JournalEntry> = journal.iter().cloned().collect();
    let n = entries.len();
    let mut copy = EventJournal::new();
    let t = Instant::now();
    for e in entries.clone() {
        copy.append(e.kind, e.args).expect("journaled kind");
    }
    let append = per_op_ns(t.elapsed(), n);
    let t = Instant::now();
    let text = journal.dump();
    let dump = per_op_ns(t.elapsed(), n);
    let t = Instant::now();
    let loaded = EventJournal::load(&text).expect("own dump parses");
    let load = per_op_ns(t.elapsed(), n);
    assert_eq!(loaded.len(), n, "journal round-trip lost entries");
    // Two interleaved streams, as two shards would hand them to `finish`.
    let mut streams: Vec<Vec<(u64, JournalEntry)>> = vec![Vec::new(), Vec::new()];
    for (i, e) in entries.into_iter().enumerate() {
        streams[i % 2].push((i as u64, e));
    }
    let t = Instant::now();
    let merged = EventJournal::merge_streams(streams).expect("merge");
    let merge = per_op_ns(t.elapsed(), n);
    assert_eq!(merged.len(), n, "merge lost entries");
    let drains = journal.iter().filter(|e| e.kind == DRAIN_KIND).count();
    JournalProbe {
        encode_ns: encode,
        append_ns: append,
        dump_ns_per_entry: dump,
        load_ns_per_entry: load,
        merge_ns_per_entry: merge,
        bytes_per_event: text.len() as f64 / (n - drains).max(1) as f64,
    }
}

/// The affinity weights `Crowd4U::new()` installs on its worker manager.
fn platform_affinity() -> AffinityProvider {
    AffinityProvider::new(1.0, 1.0, 0.5)
}

/// `crowd.affinity.*` over a candidate pool drawn from the workload's crowd:
/// `(pair_cold_ns, pair_warm_ns, submatrix_us, cached_entries)`.
pub fn affinity_probe(pool: &[WorkerProfile]) -> (f64, f64, f64, f64) {
    let mut provider = platform_affinity();
    let pairs = pool.len() * pool.len().saturating_sub(1) / 2;
    let sweep = |p: &mut AffinityProvider| {
        let t = Instant::now();
        for (i, a) in pool.iter().enumerate() {
            for b in &pool[i + 1..] {
                black_box(p.pair(a, b));
            }
        }
        per_op_ns(t.elapsed(), pairs)
    };
    let cold = sweep(&mut provider);
    let warm = sweep(&mut provider);
    let refs: Vec<&WorkerProfile> = pool.iter().collect();
    let reps = 50;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(provider.submatrix(&refs).len());
    }
    let submatrix = per_op_ns(t.elapsed(), reps) / 1e3;
    (cold, warm, submatrix, provider.cached_entries() as f64)
}

/// `assign.form_us.*`: `TeamFormation::form` on a candidate pool, with the
/// platform's default team bounds: `(local_search_us, greedy_us)`.
pub fn formation_probe(pool: &[WorkerProfile]) -> (f64, f64) {
    let refs: Vec<&WorkerProfile> = pool.iter().collect();
    let provider = platform_affinity();
    let affinity = provider.submatrix(&refs);
    let cands: Vec<Candidate> = pool
        .iter()
        .map(|p| Candidate::new(p.id, 1.0, p.cost))
        .collect();
    let factors = DesiredFactors::default();
    let constraints = TeamConstraints::sized(factors.min_team, factors.max_team);
    let time = |alg: &dyn TeamFormation| {
        let reps = 20;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(alg.form(&cands, &affinity, &constraints));
        }
        per_op_ns(t.elapsed(), reps) / 1e3
    };
    (time(&LocalSearch::default()), time(&GreedyAff::default()))
}
