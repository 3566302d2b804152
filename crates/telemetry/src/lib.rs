//! # crowd4u-telemetry — sharded metrics, span tracing, Prometheus text
//!
//! The platform-wide observability layer: a [`Registry`] of named
//! **counters** and **log-bucketed histograms** (boundaries at powers of
//! two), scraped into a [`MetricsSnapshot`] and rendered in the Prometheus
//! text exposition format. Zero external dependencies (same vendored-shim discipline as
//! the rest of the workspace — this crate needs none at all).
//!
//! ## Design: handles, merge on scrape
//!
//! Each subsystem asks the registry for a [`TelemetryHandle`]; every metric
//! fetched through a handle is an atomic cell owned by that handle. A scrape
//! ([`Registry::snapshot`]) walks all handles and merges same-named cells —
//! counters by summation, histograms bucket-wise. Recording is a
//! relaxed atomic add on a pre-fetched cell, and **scrapes never block
//! producers**: the per-handle mutex only guards the name→cell map (locked
//! when a metric is first fetched and during a scrape).
//!
//! Handles do not imply disjoint cells: the sharded runtime hands **one**
//! handle to all its shards, so shard threads add into the same stage
//! histograms. A handle per shard was measured and bought nothing, with or
//! without sampling, so shared cells stay.
//!
//! ## Observe-only and cheap
//!
//! Telemetry must never change platform behaviour (journals with
//! telemetry on and off are proven byte-identical by
//! `tests/telemetry_equivalence.rs`) and must cost ~nothing when off:
//! [`Registry::disabled`] hands out handles whose metrics are `None`
//! inside — an `incr` is a branch on a niche-optimised option, a
//! [`Span`] never reads the clock.
//!
//! ## Spans and the sample
//!
//! The four per-event stages (gate admit, mailbox dwell, shard apply,
//! journal append; named in [`stage`]) time a deterministic sample of one
//! event in [`SAMPLE_EVERY`] and **count every event**. An event
//! is timed when [`sampled`] holds for its key — a Fibonacci hash of the
//! key with its top bits zero, so no routing stride aliases with the
//! sample. A [`Span`] from [`Histogram::span_for`] reads the clock twice
//! for a sampled key and on drop observes the elapsed nanoseconds; for any
//! other key it reads no clock and on drop adds one to the count. A
//! [`HistogramSnapshot`] says what it holds: `count` is every
//! observation, `sampled` the timed ones, and `sum` the sample's sum
//! scaled to the whole. Once-per-sync and rare spans (the CyLog fixpoint,
//! recovery) are timed every time with [`Histogram::stamp`] and
//! [`Histogram::since`].
//!
//! ```
//! use crowd4u_telemetry::{sampled, stage, Registry};
//! let registry = Registry::new();
//! let handle = registry.handle();
//! let hist = handle.histogram(stage::GATE_ADMIT);
//! for key in 0..128 {
//!     let _span = hist.span_for(key); // counted on drop; timed if sampled
//! }
//! let snap = registry.snapshot();
//! let admit = &snap.histograms[&(stage::GATE_ADMIT.to_string(), String::new())];
//! assert_eq!(admit.count, 128);
//! assert_eq!(admit.sampled, (0..128).filter(|&k| sampled(k)).count() as u64);
//! assert!(snap
//!     .render()
//!     .contains("crowd4u_stage_gate_admit_ns_observed_total 128"));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One event in this many is timed at a per-event stage (see [`sampled`]).
/// A constant, not a knob: at ~300 k events/s it still times ~4.7 k events
/// per second per stage, and one clock pair per 64 events is well under 1 %
/// of a ~3 µs event.
pub const SAMPLE_EVERY: u64 = 1 << SAMPLE_BITS;
const SAMPLE_BITS: u32 = 6;

/// Is the event keyed `key` in the timed sample? True for one key in
/// [`SAMPLE_EVERY`]: those whose Fibonacci hash (`key × 2⁶⁴/φ`) has its
/// top bits zero. A hash and not `key % 64`, because keys are sequence
/// numbers and events are routed round-robin: a modulus would time the
/// same few projects — and so the same shard — every time, where the hash
/// picks close to 1/64 of every residue class of every small stride.
#[inline]
pub fn sampled(key: u64) -> bool {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SAMPLE_BITS) == 0
}

/// Canonical metric names of the five pipeline-stage histograms (elapsed
/// nanoseconds per event at each stage), plus the shard-lifecycle
/// recovery/migration metrics. The four per-event stages time a
/// [`sampled`] subset of events and count all of them; the fixpoint and
/// the recovery span time every observation.
pub mod stage {
    /// Front-door admission: routing + stamping + mailbox push, waits for
    /// room included. Two label sets: `path="direct"`, sampled and keyed
    /// by the sequence number the stamper is about to issue, and
    /// `path="waited"`, every admission that had to wait, all timed.
    pub const GATE_ADMIT: &str = "crowd4u_stage_gate_admit_ns";
    /// Dwell between mailbox enqueue and the shard picking the message
    /// from its batch for apply. Sampled, keyed by the event's sequence
    /// number; control messages are counted, never timed.
    pub const MAILBOX_DWELL: &str = "crowd4u_stage_mailbox_dwell_ns";
    /// A shard applying one event to its platform slice. Sampled, keyed
    /// by the event's sequence number.
    pub const SHARD_APPLY: &str = "crowd4u_stage_shard_apply_ns";
    /// One CyLog fixpoint pass (`CylogEngine::run`); every pass timed.
    pub const CYLOG_FIXPOINT: &str = "crowd4u_stage_cylog_fixpoint_ns";
    /// Appending one entry to the event journal. Sampled, keyed by the
    /// slice's own append count.
    pub const JOURNAL_APPEND: &str = "crowd4u_stage_journal_append_ns";
    /// All five, in pipeline order.
    pub const ALL: [&str; 5] = [
        GATE_ADMIT,
        MAILBOX_DWELL,
        SHARD_APPLY,
        CYLOG_FIXPOINT,
        JOURNAL_APPEND,
    ];
    /// Shard recoveries completed (counter): one per slice replay after a
    /// shard-thread death.
    pub const RECOVERIES: &str = "crowd4u_recoveries_total";
    /// One shard recovery end to end (histogram, ns): mailbox hold →
    /// ledger slice replay → release.
    pub const RECOVERY_SPAN: &str = "crowd4u_recovery_ns";
    /// Hot project migrations committed (counter).
    pub const MIGRATIONS: &str = "crowd4u_migrations_total";
}

/// The shared metric registry. Cloneable (cheap `Arc` clone); a disabled
/// registry is a `None` and everything downstream of it is a no-op.
#[derive(Clone, Default)]
pub struct Registry {
    /// Every handle ever issued; scrapes walk this list and merge.
    handles: Option<Arc<Mutex<Vec<Cells>>>>,
}

/// One handle's name→cell maps.
type Cells = Arc<Mutex<HandleCells>>;

#[derive(Default)]
struct HandleCells {
    counters: BTreeMap<(String, String), Arc<AtomicU64>>,
    histograms: BTreeMap<(String, String), Arc<HistogramCore>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Registry {
        Registry {
            handles: Some(Arc::default()),
        }
    }

    /// The no-op registry: handles, metrics and spans all compile down to
    /// a branch on `None`.
    pub fn disabled() -> Registry {
        Registry { handles: None }
    }

    /// Issue a fresh handle (one per shard / subsystem). Metrics fetched
    /// through distinct handles never share atomics.
    pub fn handle(&self) -> TelemetryHandle {
        match &self.handles {
            None => TelemetryHandle::disabled(),
            Some(handles) => {
                let cells = Arc::new(Mutex::new(HandleCells::default()));
                handles
                    .lock()
                    .expect("telemetry registry poisoned")
                    .push(Arc::clone(&cells));
                TelemetryHandle { cells: Some(cells) }
            }
        }
    }

    /// Scrape: merge every handle's cells into one snapshot. Producers
    /// keep recording concurrently — only the name→cell maps are locked,
    /// never the atomics being written.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(handles) = &self.handles else {
            return snap;
        };
        let handles = handles.lock().expect("telemetry registry poisoned").clone();
        for h in handles {
            let cells = h.lock().expect("telemetry handle poisoned");
            for (key, c) in &cells.counters {
                *snap.counters.entry(key.clone()).or_insert(0) += c.load(Ordering::Relaxed);
            }
            for (key, hc) in &cells.histograms {
                let entry = snap
                    .histograms
                    .entry(key.clone())
                    .or_insert_with(HistogramSnapshot::empty);
                entry.absorb(hc);
            }
        }
        snap
    }
}

/// A per-shard (or per-subsystem) metric handle. Fetch metrics once at
/// wiring time and keep the returned [`Counter`]/[`Histogram`]
/// — fetching locks the handle's map, recording does not.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    cells: Option<Cells>,
}

impl TelemetryHandle {
    /// The no-op handle (what [`Registry::disabled`] issues).
    pub fn disabled() -> TelemetryHandle {
        TelemetryHandle { cells: None }
    }

    /// Fetch (or create) an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, "")
    }

    /// Fetch (or create) a counter carrying a pre-formatted Prometheus
    /// label set, e.g. `shard="2"`.
    pub fn counter_with(&self, name: &str, labels: &str) -> Counter {
        Counter(self.cells.as_ref().map(|h| {
            let mut cells = h.lock().expect("telemetry handle poisoned");
            Arc::clone(
                cells
                    .counters
                    .entry((name.to_string(), labels.to_string()))
                    .or_default(),
            )
        }))
    }

    /// Fetch (or create) an unlabelled log-bucketed histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, "")
    }

    /// Fetch (or create) a labelled log-bucketed histogram.
    pub fn histogram_with(&self, name: &str, labels: &str) -> Histogram {
        Histogram(self.cells.as_ref().map(|h| {
            let mut cells = h.lock().expect("telemetry handle poisoned");
            Arc::clone(
                cells
                    .histograms
                    .entry((name.to_string(), labels.to_string()))
                    .or_insert_with(|| Arc::new(HistogramCore::new())),
            )
        }))
    }
}

/// Monotonic counter handle. `None` inside ⇒ no-op.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// The no-op counter (for default struct fields).
    pub fn disabled() -> Counter {
        Counter(None)
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Lock-free log-bucketed histogram core: bucket `i` counts values whose
/// bit length is `i` — i.e. boundaries at `2^i`. `count` is every
/// observation; `sampled`, `sum` and the buckets describe the timed ones.
struct HistogramCore {
    count: AtomicU64,
    sampled: AtomicU64,
    sum: AtomicU64,
    buckets: Vec<AtomicU64>,
}

/// One bucket per bit length, 0 to 64.
const BUCKETS: usize = 65;

fn bucket_index(v: u64) -> usize {
    64 - v.leading_zeros() as usize // 0 for v == 0
}

/// Inclusive upper bound of bucket `i`: `2^i − 1`, saturating at
/// `u64::MAX` for the top bucket (rendered as `+Inf`).
fn bucket_upper(i: usize) -> u64 {
    u64::try_from((1u128 << i) - 1).unwrap_or(u64::MAX)
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            count: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A timed observation: counted, and recorded in the sample.
    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sampled.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// An observation that was not timed: counted only.
    fn count_only(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// Histogram handle. `None` inside ⇒ no-op (spans skip the clock).
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// The no-op histogram (for default struct fields).
    pub fn disabled() -> Histogram {
        Histogram(None)
    }

    /// Record one timed observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Start an RAII span for the event keyed `key`: when [`sampled`]
    /// holds it times the event and observes the elapsed nanoseconds on
    /// drop; otherwise it reads no clock and only counts the event on
    /// drop. Disabled histograms do neither.
    #[inline]
    pub fn span_for(&self, key: u64) -> Span<'_> {
        Span {
            core: self.0.as_deref(),
            start: self.stamp_for(key),
        }
    }

    /// A timestamp for a measurement closed later by [`Histogram::since`]
    /// — the producer side of a cross-thread span whose two ends live in
    /// different scopes. Every observation stamped this way is timed;
    /// `None` when disabled.
    #[inline]
    pub fn stamp(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// [`Histogram::stamp`] for the event keyed `key`: `None`, with no
    /// clock read, unless the key is [`sampled`].
    #[inline]
    pub fn stamp_for(&self, key: u64) -> Option<Instant> {
        match &self.0 {
            Some(_) if sampled(key) => Some(Instant::now()),
            _ => None,
        }
    }

    /// Close a stamp: observe the elapsed nanoseconds, or — for `None`,
    /// an observation that was not sampled — count it only.
    #[inline]
    pub fn since(&self, stamp: Option<Instant>) {
        if let Some(h) = &self.0 {
            match stamp {
                Some(t) => h.observe(elapsed_ns(t)),
                None => h.count_only(),
            }
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// RAII stage timer from [`Histogram::span_for`]: on drop it observes the
/// elapsed nanoseconds when its event was sampled, and counts the event
/// otherwise. Borrows its histogram — starting one clones nothing.
pub struct Span<'a> {
    core: Option<&'a HistogramCore>,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(h) = self.core {
            match self.start {
                Some(t) => h.observe(elapsed_ns(t)),
                None => h.count_only(),
            }
        }
    }
}

/// One merged histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Every observation, timed or not: exact.
    pub count: u64,
    /// The timed observations — the sample the buckets describe. Equal
    /// to `count` on a histogram that times every observation.
    pub sampled: u64,
    /// Estimated sum of every observation: the sample's sum scaled to the
    /// whole, `sampled_sum × count / sampled` (0 while nothing was
    /// timed). Exact whenever every observation was timed.
    pub sum: u64,
    /// The sample's own sum (what the exposition's `_sum` reports).
    sampled_sum: u64,
    /// Per-bucket (non-cumulative) counts of the sample; rendering
    /// accumulates.
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sampled: 0,
            sum: 0,
            sampled_sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    fn absorb(&mut self, core: &HistogramCore) {
        self.count += core.count.load(Ordering::Relaxed);
        self.sampled += core.sampled.load(Ordering::Relaxed);
        self.sampled_sum = self
            .sampled_sum
            .wrapping_add(core.sum.load(Ordering::Relaxed));
        for (b, c) in self.buckets.iter_mut().zip(&core.buckets) {
            *b += c.load(Ordering::Relaxed);
        }
        self.sum = match self.sampled {
            0 => 0,
            n => {
                let scaled = u128::from(self.sampled_sum) * u128::from(self.count) / u128::from(n);
                u64::try_from(scaled).unwrap_or(u64::MAX)
            }
        };
    }

    /// The upper bound of the bucket holding the `q`-th sampled
    /// observation (nearest rank; `q` is clamped to `0..=1`, so `q = 0` is
    /// the smallest and `q = 1` the largest), or `None` when nothing was
    /// timed. Error bound: the observation lies within a factor of two
    /// below the result — in `(result / 2, result]`, exactly 0 for a
    /// result of 0 — and `u64::MAX` stands for the unbounded top bucket.
    /// It is a quantile of the sample, which on a sampled stage is a
    /// 1-in-[`SAMPLE_EVERY`] subset of the observations.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let i = self
            .buckets
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(self.buckets.len() - 1);
        Some(bucket_upper(i))
    }
}

/// A merged point-in-time view of every metric, keyed by
/// `(name, labels)`. [`MetricsSnapshot::render`] produces the Prometheus
/// text exposition format.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<(String, String), u64>,
    pub histograms: BTreeMap<(String, String), HistogramSnapshot>,
}

fn sample_line(out: &mut String, name: &str, labels: &str, extra: &str, value: &str) {
    out.push_str(name);
    if !labels.is_empty() || !extra.is_empty() {
        out.push('{');
        out.push_str(labels);
        if !labels.is_empty() && !extra.is_empty() {
            out.push(',');
        }
        out.push_str(extra);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

impl MetricsSnapshot {
    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Total observation count of a histogram across all label sets —
    /// every observation, sampled or not.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, h)| h.count)
            .sum()
    }

    /// Render in the Prometheus text exposition format: `# TYPE` headers,
    /// then per histogram the cumulative `_bucket{le=…}` series
    /// (zero-delta buckets elided), `_sum` and `_count` — all three
    /// describing the timed sample, so `_count` equals the `+Inf` bucket —
    /// and, after every histogram, an exact `<name>_observed_total`
    /// counter per histogram: every observation, timed or not.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<(char, String)> = None;
        let mut typed = |out: &mut String, kind: char, name: &str, ty: &str| {
            if last_type.as_ref() != Some(&(kind, name.to_string())) {
                out.push_str(&format!("# TYPE {name} {ty}\n"));
                last_type = Some((kind, name.to_string()));
            }
        };
        for ((name, labels), v) in &self.counters {
            typed(&mut out, 'c', name, "counter");
            sample_line(&mut out, name, labels, "", &v.to_string());
        }
        for ((name, labels), h) in &self.histograms {
            typed(&mut out, 'h', name, "histogram");
            let bucket_name = format!("{name}_bucket");
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                let last = i + 1 == h.buckets.len();
                if c == 0 && !last {
                    continue;
                }
                cumulative += c;
                let le = if last {
                    "le=\"+Inf\"".to_string()
                } else {
                    format!("le=\"{}\"", bucket_upper(i))
                };
                sample_line(&mut out, &bucket_name, labels, &le, &cumulative.to_string());
            }
            let sum = format!("{name}_sum");
            sample_line(&mut out, &sum, labels, "", &h.sampled_sum.to_string());
            let count = format!("{name}_count");
            sample_line(&mut out, &count, labels, "", &cumulative.to_string());
        }
        for ((name, labels), h) in &self.histograms {
            let observed = format!("{name}_observed_total");
            typed(&mut out, 'o', &observed, "counter");
            sample_line(&mut out, &observed, labels, "", &h.count.to_string());
        }
        out
    }
}

/// Validate a Prometheus text exposition: every sample line must be
/// `name{labels} value` with a parseable finite value, `# TYPE` comments
/// must precede their family. Returns the number of sample lines.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("TYPE") {
                return Err(format!("line {n}: unknown comment {line:?}"));
            }
            let (name, ty) = (parts.next(), parts.next());
            if name.is_none() || !matches!(ty, Some("counter" | "histogram")) {
                return Err(format!("line {n}: malformed TYPE comment {line:?}"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value in {line:?}"))?;
        let name = series.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {n}: bad metric name in {line:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {n}: unclosed label set in {line:?}"));
        }
        if value != "+Inf" && !value.parse::<f64>().map(f64::is_finite).unwrap_or(false) {
            return Err(format!("line {n}: unparseable value in {line:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_no_op() {
        let r = Registry::disabled();
        let h = r.handle();
        let c = h.counter("crowd4u_test_total");
        c.incr();
        let hist = h.histogram("crowd4u_test_ns");
        hist.observe(9);
        drop(hist.span_for(0));
        hist.since(hist.stamp());
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.render().is_empty());
    }

    #[test]
    fn per_shard_handles_merge_on_scrape() {
        let r = Registry::new();
        let (h0, h1) = (r.handle(), r.handle());
        h0.counter("crowd4u_events_total").add(3);
        h1.counter("crowd4u_events_total").add(4);
        h0.counter_with("crowd4u_lag_total", "shard=\"0\"").add(2);
        h1.counter_with("crowd4u_lag_total", "shard=\"1\"").add(5);
        h0.histogram("crowd4u_apply_ns").observe(10);
        h1.histogram("crowd4u_apply_ns").observe(1000);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("crowd4u_events_total"), 7);
        assert_eq!(snap.counter_total("crowd4u_lag_total"), 7);
        assert_eq!(
            snap.counters
                .get(&("crowd4u_lag_total".into(), "shard=\"1\"".into())),
            Some(&5)
        );
        let h = &snap.histograms[&("crowd4u_apply_ns".into(), String::new())];
        assert_eq!((h.count, h.sum), (2, 1010));
    }

    #[test]
    fn bucket_indexing_is_logarithmic() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    fn only(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
        snap.histograms[&(name.to_string(), String::new())].clone()
    }

    #[test]
    fn span_feeds_its_histogram() {
        let r = Registry::new();
        let h = r.handle();
        let hist = h.histogram(stage::SHARD_APPLY);
        // Keys 0 and 1: the first sampled, the second not.
        assert!(sampled(0) && !sampled(1));
        for key in [0, 1, 1] {
            let _span = hist.span_for(key);
        }
        let apply = only(&r.snapshot(), stage::SHARD_APPLY);
        assert_eq!((apply.count, apply.sampled), (3, 1));
    }

    #[test]
    fn dwell_stamps_measure_across_scopes() {
        let r = Registry::new();
        let h = r.handle();
        let hist = h.histogram(stage::MAILBOX_DWELL);
        let t = hist.stamp();
        assert!(t.is_some());
        hist.since(t);
        // A key outside the sample stamps nothing, and its `None` still
        // counts: it means "not sampled", not "lost".
        assert!(hist.stamp_for(1).is_none());
        assert!(hist.stamp_for(0).is_some());
        hist.since(None);
        let dwell = only(&r.snapshot(), stage::MAILBOX_DWELL);
        assert_eq!((dwell.count, dwell.sampled), (2, 1));
        assert!(Histogram::disabled().stamp().is_none());
        assert!(Histogram::disabled().stamp_for(0).is_none());
    }

    #[test]
    fn the_sample_does_not_alias_with_any_small_stride() {
        // Round-robin routing hands a shard or a project every s-th
        // sequence number; each residue class must still be sampled at
        // close to 1 in 64, never all or nothing.
        for s in [1u64, 2, 3, 4, 8, 16, 64] {
            for r in 0..s {
                let keys = (r..1 << 16).step_by(s as usize);
                let n = keys.clone().count() as f64;
                let hits = keys.filter(|&k| sampled(k)).count() as f64;
                let share = hits / n;
                assert!(
                    (1.0 / 128.0..=1.0 / 32.0).contains(&share),
                    "stride {s} residue {r}: {hits} of {n} sampled"
                );
            }
        }
    }

    #[test]
    fn count_only_and_timed_paths_add_up() {
        let r = Registry::new();
        let h = r.handle();
        let hist = h.histogram(stage::JOURNAL_APPEND);
        // Two timed observations of 100 and 300 among ten counted ones.
        hist.observe(100);
        hist.observe(300);
        for _ in 0..8 {
            hist.since(None);
        }
        let snap = r.snapshot();
        let j = only(&snap, stage::JOURNAL_APPEND);
        assert_eq!((j.count, j.sampled), (10, 2));
        assert_eq!(snap.histogram_count(stage::JOURNAL_APPEND), 10);
        // The sample's sum scaled to the whole: 400 × 10 / 2.
        assert_eq!(j.sum, 2000);
        // Merging across handles scales the merged totals, and when every
        // observation is timed the estimate is the exact sum.
        let exact = Registry::new();
        let (a, b) = (exact.handle(), exact.handle());
        a.histogram(stage::SHARD_APPLY).observe(7);
        b.histogram(stage::SHARD_APPLY).observe(8);
        let e = only(&exact.snapshot(), stage::SHARD_APPLY);
        assert_eq!((e.count, e.sampled, e.sum), (2, 2, 15));
        // Counted but never timed: no estimate.
        let blind = Registry::new();
        blind.handle().histogram(stage::GATE_ADMIT).since(None);
        let g = only(&blind.snapshot(), stage::GATE_ADMIT);
        assert_eq!((g.count, g.sampled, g.sum), (1, 0, 0));
    }

    #[test]
    fn quantile_is_the_upper_bound_of_the_ranked_bucket() {
        let r = Registry::new();
        let hist = r.handle().histogram(stage::SHARD_APPLY);
        let empty = || only(&r.snapshot(), stage::SHARD_APPLY);
        hist.since(None);
        assert_eq!(empty().quantile(0.5), None, "nothing timed");
        // Base 2: 0 → le 0, 5 → le 7, 6 → le 7, 100 → le 127, 3000 → le 4095.
        for v in [100, 0, 5, 3000, 6] {
            hist.observe(v);
        }
        let h = only(&r.snapshot(), stage::SHARD_APPLY);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.1), Some(0));
        assert_eq!(h.quantile(0.5), Some(7));
        assert_eq!(h.quantile(0.55), Some(7));
        assert_eq!(h.quantile(0.75), Some(127));
        assert_eq!(h.quantile(1.0), Some(4095));
        assert_eq!(h.quantile(7.0), Some(4095), "q is clamped");
        // The error bound: each observation lies in (result / 2, result].
        for (v, q) in [(5u64, 0.3), (100, 0.75), (3000, 1.0)] {
            let upper = h.quantile(q).unwrap();
            assert!(upper / 2 < v && v <= upper, "{v} vs {upper}");
        }
        // The unbounded top bucket reads as u64::MAX.
        hist.observe(u64::MAX);
        assert_eq!(empty().quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn render_is_valid_exposition() {
        let r = Registry::new();
        let h = r.handle();
        h.counter("crowd4u_events_total").add(2);
        h.counter_with("crowd4u_events_total", "shard=\"1\"").incr();
        let hist = h.histogram(stage::JOURNAL_APPEND);
        hist.observe(0);
        hist.observe(5);
        hist.observe(300);
        hist.since(None); // counted, not timed
        let text = r.snapshot().render();
        assert!(text.contains("# TYPE crowd4u_events_total counter"));
        assert!(text.contains("crowd4u_events_total{shard=\"1\"} 1"));
        assert!(text.contains("crowd4u_stage_journal_append_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("crowd4u_stage_journal_append_ns_sum 305"));
        // Cumulative le series: 0 lands in le="0", 5 in le="7", 300 in
        // le="511" (boundaries 2^i − 1).
        assert!(text.contains("crowd4u_stage_journal_append_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("crowd4u_stage_journal_append_ns_bucket{le=\"7\"} 2"));
        assert!(text.contains("crowd4u_stage_journal_append_ns_bucket{le=\"511\"} 3"));
        // `_count` is the sample (= the +Inf bucket); the exact count of
        // every observation is its own counter.
        assert!(text.contains("crowd4u_stage_journal_append_ns_count 3"));
        assert!(text.contains("# TYPE crowd4u_stage_journal_append_ns_observed_total counter"));
        assert!(text.contains("crowd4u_stage_journal_append_ns_observed_total 4"));
        // Two counters, four buckets, `_sum`, `_count` and the observed total.
        assert_eq!(validate_exposition(&text), Ok(9));
    }

    #[test]
    fn validate_rejects_malformed_lines() {
        assert!(validate_exposition("bad-name 1\n").is_err());
        assert!(validate_exposition("name{unclosed 1\n").is_err());
        assert!(validate_exposition("name one\n").is_err());
        assert!(validate_exposition("# HELP x y\n").is_err());
        assert!(validate_exposition("# TYPE a gauge\na 1\n").is_err());
        assert_eq!(validate_exposition("# TYPE a counter\na 1\n"), Ok(1));
    }

    #[test]
    fn handles_are_send_and_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<TelemetryHandle>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Histogram>();
        assert_send_sync::<MetricsSnapshot>();
    }
}
