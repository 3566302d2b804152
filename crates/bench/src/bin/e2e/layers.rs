//! The traced run of one workload: every per-layer metric, taken from
//! outside the program. End-to-end numbers never come from here.
//!
//! The run drives the same stream as the end-to-end run through a serial
//! `Crowd4U` with a span around every call, a traced two-shard runtime and
//! a one-shard runtime, then probes each lower layer directly at the sizes
//! the workload produces.

use crate::metrics::{KINDS, PER_LAYER};
use crate::run::{drive, fingerprint, onboarded_serial, start, wave_ends, Measured};
use crate::stats;
use crate::sut::{self, Op, Runtime};
use crate::trace::{self_time_ns, Tracer};
use crate::workloads::{self, Check, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct LayerOutcome {
    pub metrics: Vec<Measured>,
    pub checks: Vec<(&'static str, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Share of the serial replay that is the harness's own loop (the
    /// `replay` span's self time): what the layer table cannot attribute.
    pub replay_self_share: f64,
    pub tracer: Tracer,
}

/// The measured values, by metric name.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name.to_owned(), value);
    }

    fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} was not measured"))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What a traced drive of one runtime measured.
struct TracedDrive {
    wall: Duration,
    /// Time spent inside `submit` calls, summed.
    in_submit: Duration,
    gate_errors: u64,
}

/// [`drive`] with spans `run → wave → {submit, drain_wait}` and a clock
/// read on both sides of every `submit`.
fn drive_traced(rt: &Runtime, w: &Workload, closed_loop: bool, tr: &mut Tracer) -> TracedDrive {
    let mut in_submit = Duration::ZERO;
    let mut gate_errors = 0;
    let start = Instant::now();
    let run = tr.begin(
        0,
        if closed_loop {
            "run.closed"
        } else {
            "run.pipelined"
        },
        -1,
    );
    let mut wave = 0i64;
    let mut wave_span = tr.begin(run, "wave", wave);
    let mut submit_span = tr.begin(wave_span, "submit", wave);
    let mut in_wave = 0;
    for op in &w.ops {
        if let Op::Event(e) = op {
            let e = e.clone();
            let t = Instant::now();
            gate_errors += !rt.submit(e) as u64;
            in_submit += t.elapsed();
            in_wave += 1;
        } else if closed_loop && wave_ends(op, in_wave, w) {
            tr.end(submit_span);
            let wait = tr.begin(wave_span, "drain_wait", wave);
            rt.drain();
            rt.barrier();
            tr.end(wait);
            tr.end(wave_span);
            wave += 1;
            in_wave = 0;
            wave_span = tr.begin(run, "wave", wave);
            submit_span = tr.begin(wave_span, "submit", wave);
        } else if matches!(op, Op::Drain) {
            rt.drain();
        }
    }
    // The closing `drain()+barrier()` is the tail wave (empty in a closed
    // loop, the whole backlog in a pipelined run).
    tr.end(submit_span);
    let wait = tr.begin(wave_span, "drain_wait", wave);
    rt.drain();
    rt.barrier();
    tr.end(wait);
    tr.end(wave_span);
    tr.end(run);
    TracedDrive {
        wall: start.elapsed(),
        in_submit,
        gate_errors,
    }
}

/// Correctness bookkeeping over every runtime run of the traced run.
struct Audit {
    serial_dropped: u64,
    reference: (usize, u64),
    gate_errors: u64,
    drop_drift: u64,
    runs: u64,
    outputs_ok: bool,
}

impl Audit {
    fn finished(&mut self, w: &Workload, done: &sut::Finished) {
        self.runs += 1;
        self.drop_drift += done.dropped.abs_diff(self.serial_dropped);
        self.outputs_ok &= match w.check {
            Check::JournalIdentical => {
                fingerprint(&sut::journal_dump(&done.journal)) == self.reference
            }
            Check::GoodFacts(expected) => done.good == expected,
        };
    }
}

/// One untraced pipelined run on a fresh runtime.
struct Pipelined {
    wall: f64,
    setup_s: f64,
    totals: sut::StageTotals,
    done: sut::Finished,
}

fn pipelined(w: &Workload, config: &sut::Config, audit: &mut Audit) -> Pipelined {
    let (rt, setup, errs) = start(w, config);
    let phase = drive(&rt, w, false);
    let totals = rt.stage_totals();
    let done = rt.finish();
    audit.gate_errors += errs + phase.gate_errors;
    audit.finished(w, &done);
    Pipelined {
        wall: phase.wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        totals,
        done,
    }
}

/// The serial layer replay: the stream on one `Crowd4U` on this thread, a
/// span around every `apply_event`, `drain_events` and — in streaming mode,
/// where a shard syncs its dirty projects every `drain_every` events —
/// every `sync_tasks` sweep.
fn serial_replay(w: &Workload, tr: &mut Tracer) -> (sut::Serial, Duration) {
    let mut serial = onboarded_serial(w);
    let start = Instant::now();
    let replay = tr.begin(0, "replay", -1);
    let mut since_drain = 0;
    for op in &w.ops {
        match op {
            Op::Event(e) => {
                let e = e.clone();
                let span = tr.begin_kind(replay, "apply", sut::kind_of(&e), -1);
                let ok = serial.apply(e);
                tr.end(span);
                since_drain += ok as usize;
                if w.config.drain_every > 0 && since_drain >= w.config.drain_every {
                    since_drain = 0;
                    let span = tr.begin(replay, "sync", -1);
                    serial.sync_dirty();
                    tr.end(span);
                }
            }
            Op::Drain => {
                let span = tr.begin(replay, "drain", -1);
                serial.drain();
                tr.end(span);
                since_drain = 0;
            }
            Op::Wave => {}
        }
    }
    let span = tr.begin(replay, "drain", -1);
    serial.drain();
    tr.end(span);
    tr.end(replay);
    (serial, start.elapsed())
}

/// Interleaved A-B-B-A pipelined runs of two configurations until `budget`
/// seconds are spent (two blocks at least); the `a`/`b` wall ratio of each
/// block.
fn abba(
    w: &Workload,
    a: &sut::Config,
    b: &sut::Config,
    budget: f64,
    audit: &mut Audit,
) -> Vec<f64> {
    let started = Instant::now();
    let (mut walls_a, mut walls_b) = (Vec::new(), Vec::new());
    while walls_a.len() < 4 || started.elapsed().as_secs_f64() < budget {
        for is_a in [true, false, false, true] {
            let wall = pipelined(w, if is_a { a } else { b }, audit).wall;
            if is_a { &mut walls_a } else { &mut walls_b }.push(wall);
        }
    }
    stats::abba_ratios(&walls_a, &walls_b)
}

pub fn run(name: &str, seed: u64, seconds: f64, smoke: bool) -> Option<LayerOutcome> {
    let w = workloads::generate(name, seed, smoke)?;
    let events = w.events();
    let mut tr = Tracer::new();
    let mut v = Values::default();
    v.set("scenarios.record_s", w.record.as_secs_f64());
    v.set("scenarios.merge_ms", ms(w.merge));

    // core: the serial layer replay comes first; it is also the reference
    // every runtime run below is checked against.
    let (mut serial, serial_wall) = serial_replay(&w, &mut tr);
    let replay_ns = tr.durations("replay", "")[0];
    // The replay is the first span recorded.
    let replay_self_share = self_time_ns(&tr.spans, 1) as f64 / replay_ns;
    for kind in KINDS {
        let spans = tr.durations("apply", kind);
        v.set(&format!("core.apply_us.{kind}"), stats::mean(&spans) / 1e3);
        v.set(
            &format!("core.apply_share.{kind}"),
            spans.iter().sum::<f64>() / replay_ns,
        );
    }
    let drains = tr.durations("drain", "");
    let syncs = tr.durations("sync", "");
    v.set("core.drain_us", stats::mean(&drains) / 1e3);
    v.set("core.sync_tasks_us", stats::mean(&syncs) / 1e3);
    v.set(
        "core.drain_share",
        (drains.iter().sum::<f64>() + syncs.iter().sum::<f64>()) / replay_ns,
    );
    let mut audit = Audit {
        serial_dropped: serial.dropped,
        reference: fingerprint(&serial.journal_dump()),
        gate_errors: 0,
        drop_drift: 0,
        runs: 0,
        outputs_ok: true,
    };
    let t = Instant::now();
    let replayed = sut::replay(serial.journal());
    v.set(
        "core.replay_events_per_s",
        (events + w.onboard.len()) as f64 / t.elapsed().as_secs_f64(),
    );
    let t = Instant::now();
    let state = serial.state_dump();
    v.set("core.state_dump_ms", ms(t.elapsed()));
    let replay_ok = match (&replayed, &w.check) {
        (Ok((good, _)), Check::GoodFacts(expected)) => good == expected,
        (Ok((_, dump)), Check::JournalIdentical) => *dump == state,
        (Err(_), _) => false,
    };

    // runtime: closed loop, traced.
    let (rt, _, errs) = start(&w, &w.config);
    let closed = drive_traced(&rt, &w, true, &mut tr);
    audit.gate_errors += errs + closed.gate_errors;
    let finish = tr.begin(0, "finish", -1);
    let closed_done = rt.finish();
    tr.end(finish);
    audit.finished(&w, &closed_done);
    // The tail wave of a closed loop is the empty closing barrier.
    let mut waves_ms: Vec<f64> = tr.durations("wave", "").iter().map(|ns| ns / 1e6).collect();
    waves_ms.pop();
    let n = waves_ms.len();
    let slowest = waves_ms.iter().copied().fold(0.0, f64::max);
    v.set(
        "runtime.wave.submit_ms",
        stats::mean(&tr.durations("submit", "")[..n]) / 1e6,
    );
    v.set(
        "runtime.wave.drain_wait_ms",
        stats::mean(&tr.durations("drain_wait", "")[..n]) / 1e6,
    );
    v.set("runtime.wave_p99_ms", stats::percentile(&waves_ms, 99.0));
    v.set("runtime.wave_max_ms", slowest);
    let decile = (n / 10).max(1);
    v.set(
        "runtime.decile_ratio",
        stats::mean(&waves_ms[n - decile..]) / stats::mean(&waves_ms[..decile]),
    );
    // The wave the kill lands in is the slowest by far: the stall a client sees.
    let killed = w.config.kill.is_some();
    v.set(
        "runtime.recovery.stall_ms",
        if killed { slowest } else { 0.0 },
    );

    // runtime against core: five rounds of {serial replay, one shard, two
    // shards untraced, two shards traced}, pipelined. The program's hash
    // maps are randomly keyed and the box drifts, so one wall is one draw:
    // the ratios below are taken between medians of walls measured side by
    // side, and the two-shard pair swaps order every round.
    let quiet = sut::Config {
        kill: None,
        recovery: false,
        ..w.config
    };
    let one_shard = sut::Config { shards: 1, ..quiet };
    let mut serial_walls = vec![serial_wall.as_secs_f64()];
    let (mut walls_1, mut untraced, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut block_share, mut finish_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..5 {
        if round > 0 {
            serial_walls.push(serial_replay(&w, &mut Tracer::new()).1.as_secs_f64());
        }
        walls_1.push(pipelined(&w, &one_shard, &mut audit).wall);
        for with_trace in [round % 2 == 1, round % 2 == 0] {
            if with_trace {
                let (rt, setup, errs) = start(&w, &w.config);
                let d = drive_traced(&rt, &w, false, &mut tr);
                audit.gate_errors += errs + d.gate_errors;
                audit.finished(&w, &rt.finish());
                traced.push(d.wall.as_secs_f64());
                block_share.push(d.in_submit.as_secs_f64() / d.wall.as_secs_f64());
                setup_s.push(setup.as_secs_f64());
            } else {
                let p = pipelined(&w, &w.config, &mut audit);
                untraced.push(p.wall);
                finish_ms.push(ms(p.done.finish_wall));
                setup_s.push(p.setup_s);
                last = Some(p);
            }
        }
    }
    let (serial_wall, wall_1) = (stats::median(&serial_walls), stats::median(&walls_1));
    v.set("core.serial_events_per_s", events as f64 / serial_wall);
    v.set("runtime.overhead_share", 1.0 - serial_wall / wall_1);
    v.set("runtime.scaling_2v1", wall_1 / stats::median(&untraced));
    v.set(
        "bench.trace_overhead_pct",
        (stats::median(&traced) / stats::median(&untraced) - 1.0) * 100.0,
    );
    v.set("runtime.gate.submit_block_share", stats::mean(&block_share));
    v.set("runtime.finish_ms", stats::median(&finish_ms));
    let onboard_rate = w.onboard.len() as f64 / stats::median(&setup_s);
    v.set("runtime.workers.onboard_regs_per_s", onboard_rate);
    let last = last.expect("untraced runs were made");
    v.set("runtime.auto_drains", last.done.auto_drains as f64);
    let mean_of = |(count, sum): (u64, u64)| sum as f64 / count.max(1) as f64;
    let busy = |(_, sum): (u64, u64)| sum as f64 / 1e9 / (w.config.shards as f64 * last.wall);
    let stages = last.totals.stages;
    v.set("runtime.stage.gate_admit_ns", mean_of(stages[0]));
    v.set("runtime.stage.mailbox_dwell_us", mean_of(stages[1]) / 1e3);
    v.set("runtime.stage.shard_apply_share", busy(stages[2]));
    v.set("runtime.stage.cylog_fixpoint_share", busy(stages[3]));
    v.set("runtime.stage.journal_append_share", busy(stages[4]));
    v.set(
        "runtime.recovery.replay_ms",
        last.totals.recovery_ns as f64 / 1e6,
    );
    let recoveries_ok = last.totals.recoveries == killed as u64;
    let broadcasts = w
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Event(e) if sut::is_broadcast(e)))
        .count();
    v.set("runtime.broadcast_share", broadcasts as f64 / events as f64);

    // runtime: admission alone (nothing ever blocks on an unbounded mailbox).
    let unbounded = sut::Config {
        mailbox_capacity: 0,
        ..w.config
    };
    let (rt, _, errs) = start(&w, &unbounded);
    let d = drive_traced(&rt, &w, false, &mut Tracer::new());
    audit.gate_errors += errs + d.gate_errors;
    audit.finished(&w, &rt.finish());
    v.set(
        "runtime.gate.admit_ns",
        d.in_submit.as_nanos() as f64 / events as f64,
    );

    // core: the eligibility cache, right after a profile update and warm.
    let pool = serial.profiles(workloads::candidate_pool(&w.ops));
    if let Some(p) = pool.first() {
        serial.apply(sut::PlatformEvent::WorkerRegistered { profile: p.clone() });
    }
    let t = Instant::now();
    std::hint::black_box(serial.eligible_set());
    v.set("core.eligible_set_cold_us", us(t.elapsed()));
    let t = Instant::now();
    for _ in 0..100 {
        std::hint::black_box(serial.eligible_set());
    }
    v.set("core.eligible_set_warm_us", us(t.elapsed()) / 100.0);

    // cylog, storage, crowd, assign: each layer driven directly.
    let c = sut::cylog_probe(workloads::items_per_project(&w.sizes), 48);
    v.set("cylog.add_fact_ns", c.add_fact_ns);
    v.set("cylog.run_delta_us", c.run_delta_us);
    v.set("cylog.run_full_ms", c.run_full_ms);
    v.set(
        "cylog.answer_batch_ns_per_answer",
        c.answer_batch_ns_per_answer,
    );
    v.set("cylog.firings_per_answer", c.firings_per_answer);
    v.set("cylog.derived_per_answer", c.derived_per_answer);
    v.set("cylog.recomputes", c.recomputes);
    v.set("cylog.strata_skipped_share", c.strata_skipped_share);
    let (small, large) = if smoke {
        (1_000, 10_000)
    } else {
        (10_000, 100_000)
    };
    let (insert_small, _, _) = sut::relation_probe(small);
    let (insert, lookup, delete) = sut::relation_probe(large);
    v.set("storage.relation.insert_ns", insert);
    v.set("storage.relation.lookup_ns", lookup);
    v.set("storage.relation.delete_matching_ns", delete);
    v.set("storage.relation.scale_ratio", insert / insert_small);
    let stream_events: Vec<sut::PlatformEvent> = w
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Event(e) => Some(e.clone()),
            _ => None,
        })
        .collect();
    let j = sut::journal_probe(&stream_events, &closed_done.journal);
    v.set("storage.journal.encode_ns", j.encode_ns);
    v.set("storage.journal.append_ns", j.append_ns);
    v.set("storage.journal.dump_ns_per_entry", j.dump_ns_per_entry);
    v.set("storage.journal.load_ns_per_entry", j.load_ns_per_entry);
    v.set("storage.journal.merge_ns_per_entry", j.merge_ns_per_entry);
    v.set("storage.journal.bytes_per_event", j.bytes_per_event);
    let (cold, warm, submatrix, cached) = sut::affinity_probe(&pool);
    v.set("crowd.affinity.pair_cold_ns", cold);
    v.set("crowd.affinity.pair_warm_ns", warm);
    v.set("crowd.affinity.submatrix_us", submatrix);
    v.set("crowd.affinity.cached_entries", cached);
    let (local_search, greedy) = sut::formation_probe(&pool);
    v.set("assign.form_us.local_search", local_search);
    v.set("assign.form_us.greedy", greedy);
    let assign_us = v.get("core.apply_us.assign");
    v.set(
        "assign.form_share_of_assign",
        if assign_us > 0.0 {
            local_search / assign_us
        } else {
            0.0
        },
    );

    // telemetry and the recovery ledger: interleaved on/off runs.
    let budget = if smoke { 0.0 } else { seconds * 0.3 };
    let off = sut::Config {
        telemetry: false,
        ..quiet
    };
    let (pct, iqr) = stats::overhead_pct(&abba(&w, &quiet, &off, budget, &mut audit));
    v.set("telemetry.overhead_pct", pct);
    v.set("telemetry.overhead_iqr_pct", iqr);
    let (rt, _, _) = start(&w, &quiet);
    drive(&rt, &w, false);
    let (snapshot, render) = rt.scrape_cost();
    audit.finished(&w, &rt.finish());
    v.set("telemetry.snapshot_us", us(snapshot));
    v.set("telemetry.render_us", us(render));
    let ledgered = sut::Config {
        recovery: true,
        ..quiet
    };
    let (pct, _) = stats::overhead_pct(&abba(&w, &ledgered, &quiet, budget, &mut audit));
    v.set("runtime.recovery.ledger_cost_pct", pct);

    let metrics = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            value: v.get(m.name),
            samples: Vec::new(),
        })
        .collect();
    let outputs = match w.check {
        Check::JournalIdentical => "journal_identical_to_serial",
        Check::GoodFacts(_) => "good_facts",
    };
    let mut checks = vec![
        ("gate_accepted_every_event", audit.gate_errors == 0),
        ("dropped_equals_serial", audit.drop_drift == 0),
        (outputs, audit.outputs_ok),
        ("replay_reproduces_serial", replay_ok),
    ];
    if killed {
        checks.push(("one_recovery_per_run", recoveries_ok));
    }
    Some(LayerOutcome {
        metrics,
        checks,
        attempted: (events + w.onboard.len()) as u64 * audit.runs,
        failed: audit.gate_errors + audit.drop_drift,
        replay_self_share,
        tracer: tr,
    })
}
