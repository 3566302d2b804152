//! In-memory spans for the traced run, written out as JSON lines at exit.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; the program under test carries none. The tree is
//! `run → wave → {submit, drain_wait}` and `finish` for a runtime run, and
//! `replay → apply.<kind> | drain | sync` for the serial layer replay.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 = a root span.
    pub parent: u32,
    pub name: &'static str,
    /// The event kind of an `apply` span, empty otherwise; written out as
    /// `apply.<kind>`.
    pub kind: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the wave the span belongs to, -1 outside any wave.
    pub wave: i64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end). Returns its id.
    pub fn begin(&mut self, parent: u32, name: &'static str, wave: i64) -> u32 {
        self.begin_kind(parent, name, "", wave)
    }

    pub fn begin_kind(
        &mut self,
        parent: u32,
        name: &'static str,
        kind: &'static str,
        wave: i64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            kind,
            start_ns: 0,
            end_ns: 0,
            wave,
        });
        // Read the clock last, so the bookkeeping above is outside the span.
        let now = self.now_ns();
        let span = self.spans.last_mut().expect("just pushed");
        (span.start_ns, span.end_ns) = (now, now);
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Durations (ns) of every span with this name and kind.
    pub fn durations(&self, name: &str, kind: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.kind == kind)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let dot = if s.kind.is_empty() { "" } else { "." };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}{dot}{}\",\"start_ns\":{},\"end_ns\":{},\"wave\":{}}}",
                s.id, s.parent, s.name, s.kind, s.start_ns, s.end_ns, s.wave
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of it its direct
/// children cover (children of one parent do not overlap here: they are
/// recorded by one thread).
pub fn self_time_ns(spans: &[Span], id: u32) -> u64 {
    let span = &spans[id as usize - 1];
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| s.end_ns.min(span.end_ns) - s.start_ns.max(span.start_ns))
        .sum();
    span.duration_ns().saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            kind: "",
            start_ns,
            end_ns,
            wave: -1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 90),
            span(4, 2, 15, 35), // grandchild: already inside span 2
        ];
        assert_eq!(self_time_ns(&spans, 1), 100 - 30 - 40);
        assert_eq!(self_time_ns(&spans, 2), 30 - 20);
        assert_eq!(self_time_ns(&spans, 4), 20);
    }

    #[test]
    fn tracer_nests_and_times_spans() {
        let mut t = Tracer::new();
        let run = t.begin(0, "run", -1);
        let wave = t.begin(run, "wave", 0);
        t.end(wave);
        t.end(run);
        assert_eq!(t.spans[1].parent, run);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations("wave", "").len(), 1);
        assert!(self_time_ns(&t.spans, run) <= t.spans[0].duration_ns());
    }
}
