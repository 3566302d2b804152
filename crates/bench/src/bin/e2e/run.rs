//! The end-to-end run of one workload: untraced, shipped defaults, two
//! shards and one submitter thread.
//!
//! Each repetition has two phases, each on a fresh runtime. *Pipelined*:
//! submit as fast as the mailboxes allow, the stream's drains as in-stream
//! barriers, one final `drain()+barrier()`; it yields throughput and CPU
//! per event. *Closed loop*: one client; a wave is the events up to the
//! drain point where the client stops to look, and is timed from its first
//! submit to the return of `drain()+barrier()` — submit to visible.

use crate::metrics::END_TO_END;
use crate::stats;
use crate::sut::{self, Op, Runtime};
use crate::workloads::{self, Check, Workload};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// One metric of the result document: the headline value, and the per-run
/// samples it summarises.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

pub struct Outcome {
    pub metrics: Vec<Measured>,
    /// `(check, passed)`.
    pub checks: Vec<(&'static str, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub repetitions: usize,
    pub waves_pooled: usize,
    /// The 95th percentile of the waves of all repetitions pooled: the
    /// figure with at least ten samples beyond it, printed beside
    /// `wave_p95_ms` (the median of the repetitions' own).
    pub pooled_wave_p95_ms: f64,
    pub events: usize,
    pub sizes: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// CPU time (user + system) this process has consumed, in seconds: the sum
/// of every live thread's on-CPU nanoseconds, or the process's clock ticks
/// where the scheduler statistics are not exposed.
pub fn process_cpu_s() -> f64 {
    let threads = std::fs::read_dir("/proc/self/task").ok().map(|dir| {
        dir.flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum::<u64>()
    });
    if let Some(ns) = threads.filter(|ns| *ns > 0) {
        return ns as f64 / 1e9;
    }
    // Fields 14 and 15 of /proc/self/stat, counted after the `(comm)` field.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Length and hash of a journal dump: enough to compare every repetition's
/// journal with the serial reference without keeping the dumps alive.
pub fn fingerprint(text: &str) -> (usize, u64) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    (text.len(), h.finish())
}

/// Start a runtime and onboard the workload's bulk population; returns the
/// runtime, the set-up wall and the gate errors met.
pub fn start(w: &Workload, config: &sut::Config) -> (Runtime, Duration, u64) {
    let t = Instant::now();
    let rt = Runtime::start(config);
    let mut gate_errors = 0;
    if !w.onboard.is_empty() {
        for e in &w.onboard {
            gate_errors += !rt.submit(e.clone()) as u64;
        }
        rt.drain();
        rt.barrier();
    }
    (rt, t.elapsed(), gate_errors)
}

/// What one phase measured.
pub struct Phase {
    pub wall: Duration,
    pub cpu_s: f64,
    /// Closed loop only: one latency per wave, in stream order.
    pub waves_ms: Vec<f64>,
    pub gate_errors: u64,
}

/// Whether a closed-loop client stops to look at this point of the stream:
/// at a drain point, once the wave holds at least `min_wave_events` events.
pub fn wave_ends(op: &Op, in_wave: usize, w: &Workload) -> bool {
    matches!(op, Op::Drain | Op::Wave) && in_wave >= w.min_wave_events
}

/// Push the workload's stream through a started runtime.
pub fn drive(rt: &Runtime, w: &Workload, closed_loop: bool) -> Phase {
    let mut waves_ms = Vec::new();
    let mut gate_errors = 0;
    let cpu = process_cpu_s();
    let start = Instant::now();
    let mut wave_start = start;
    let mut in_wave = 0;
    for op in &w.ops {
        if let Op::Event(e) = op {
            gate_errors += !rt.submit(e.clone()) as u64;
            in_wave += 1;
        } else if closed_loop && wave_ends(op, in_wave, w) {
            rt.drain();
            rt.barrier();
            let now = Instant::now();
            waves_ms.push((now - wave_start).as_secs_f64() * 1e3);
            wave_start = now;
            in_wave = 0;
        } else if matches!(op, Op::Drain) {
            rt.drain();
        }
    }
    rt.drain();
    rt.barrier();
    Phase {
        wall: start.elapsed(),
        cpu_s: process_cpu_s() - cpu,
        waves_ms,
        gate_errors,
    }
}

/// A serial platform brought up to the workload's population, as
/// [`start`] brings up a runtime.
pub fn onboarded_serial(w: &Workload) -> sut::Serial {
    let mut serial = sut::Serial::new();
    if !w.onboard.is_empty() {
        for e in &w.onboard {
            serial.apply(e.clone());
        }
        serial.drain();
    }
    serial
}

/// The serial reference for a workload: onboarding and stream applied by
/// one thread to one platform.
pub fn serial_reference(w: &Workload) -> sut::Serial {
    let mut serial = onboarded_serial(w);
    serial.run(&w.ops);
    serial.drain();
    serial
}

/// The seed of one repetition's stream: repetitions draw different crowds
/// and answers from the run's seed, so a run's medians are taken over many
/// inputs, not over one input many times.
pub fn repetition_seed(seed: u64, repetition: u64) -> u64 {
    workloads::Rng::new(seed ^ repetition.wrapping_mul(0xA076_1D64_78BD_642F)).next()
}

/// One repetition: its own stream, then the two phases on fresh runtimes.
struct Repetition {
    workload: Workload,
    /// Runtime construction and onboarding, pipelined then closed loop.
    construct_s: [f64; 2],
    pipelined: Phase,
    closed: Phase,
    /// Pipelined then closed loop.
    finished: [sut::Finished; 2],
    recoveries: u64,
}

fn repetition(name: &str, seed: u64, smoke: bool) -> Option<Repetition> {
    let workload = workloads::generate(name, seed, smoke)?;
    let mut recoveries = 0;
    let mut phase = |closed_loop| {
        let (rt, setup, errs) = start(&workload, &workload.config);
        let mut phase = drive(&rt, &workload, closed_loop);
        phase.gate_errors += errs;
        recoveries += rt.stage_totals().recoveries;
        (phase, rt.finish(), setup.as_secs_f64())
    };
    let (pipelined, done_p, construct_p) = phase(false);
    let (closed, done_c, construct_c) = phase(true);
    Some(Repetition {
        construct_s: [construct_p, construct_c],
        pipelined,
        closed,
        finished: [done_p, done_c],
        recoveries,
        workload,
    })
}

pub fn run(name: &str, seed: u64, seconds: f64, smoke: bool) -> Option<Outcome> {
    let min_reps = if smoke { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut events_per_s = Vec::new();
    let mut cpu_ms_per_kevent = Vec::new();
    let mut wave_p50 = Vec::new();
    let mut wave_p95 = Vec::new();
    let mut pool: Vec<f64> = Vec::new();
    let (mut attempted, mut gate_errors, mut drop_drift, mut recoveries) = (0u64, 0u64, 0u64, 0u64);
    let (mut phases_agree, mut goods_ok) = (true, true);
    let mut last = None;

    let measuring = Instant::now();
    let mut reps = 0u64;
    while reps < min_reps || measuring.elapsed().as_secs_f64() < seconds {
        // One repetition alive at a time, so the peak is one repetition's.
        drop(last.take());
        let r = repetition(name, repetition_seed(seed, reps), smoke)?;
        let events = r.workload.events();
        // The program's own work before the first measured event: the
        // scenario recording where there is one, and bringing a runtime up
        // to its population. The synthetic generators are the harness's.
        let recording = r.workload.record + r.workload.merge;
        setup_s.push(recording.as_secs_f64() + stats::mean(&r.construct_s));
        events_per_s.push(events as f64 / r.pipelined.wall.as_secs_f64());
        cpu_ms_per_kevent.push(r.pipelined.cpu_s * 1e3 / (events as f64 / 1e3));
        wave_p50.push(stats::percentile(&r.closed.waves_ms, 50.0));
        wave_p95.push(stats::percentile(&r.closed.waves_ms, 95.0));
        pool.extend(&r.closed.waves_ms);
        attempted += 2 * (events + r.workload.onboard.len()) as u64;
        gate_errors += r.pipelined.gate_errors + r.closed.gate_errors;
        recoveries += r.recoveries;
        // Both phases push the same stream, so they must agree with each
        // other on every repetition; the last one is also held against the
        // serial reference below.
        let [p, c] = &r.finished;
        drop_drift += p.dropped.abs_diff(c.dropped);
        match r.workload.check {
            Check::JournalIdentical => {
                phases_agree &= fingerprint(&sut::journal_dump(&p.journal))
                    == fingerprint(&sut::journal_dump(&c.journal));
            }
            Check::GoodFacts(expected) => goods_ok &= p.good == expected && c.good == expected,
        }
        last = Some(r);
        reps += 1;
    }
    // Read before the serial reference below builds a second platform.
    let peak_rss = peak_rss_mib();

    let last = last.expect("at least one repetition ran");
    let w = &last.workload;
    let [_, done] = &last.finished;
    let serial = serial_reference(w);
    drop_drift += done.dropped.abs_diff(serial.dropped);
    let mut checks = vec![
        ("gate_accepted_every_event", gate_errors == 0),
        ("dropped_equals_serial", drop_drift == 0),
    ];
    match w.check {
        Check::JournalIdentical => {
            let identical = sut::journal_dump(&done.journal) == serial.journal_dump();
            checks.push(("journal_identical_to_serial", phases_agree && identical));
        }
        Check::GoodFacts(expected) => {
            checks.push(("good_facts", goods_ok && serial.good() == expected));
            let replayed = sut::replay(&done.journal).map(|(good, _)| good);
            checks.push(("replay_reproduces_good_facts", replayed == Ok(expected)));
        }
    }
    if w.config.kill.is_some() {
        checks.push(("one_recovery_per_run", recoveries == 2 * reps));
    }

    let values = [
        (stats::median(&events_per_s), events_per_s),
        (stats::median(&wave_p50), wave_p50),
        (stats::median(&wave_p95), wave_p95),
        (stats::median(&cpu_ms_per_kevent), cpu_ms_per_kevent),
        (peak_rss, vec![peak_rss]),
        (stats::median(&setup_s), setup_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Measured {
            name: m.name,
            unit: m.unit,
            value,
            samples,
        })
        .collect();
    Some(Outcome {
        metrics,
        checks,
        attempted,
        failed: gate_errors + drop_drift,
        repetitions: reps as usize,
        waves_pooled: pool.len(),
        pooled_wave_p95_ms: stats::percentile(&pool, 95.0),
        events: w.events(),
        sizes: w.sizes.describe(),
    })
}
