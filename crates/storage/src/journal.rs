//! The append-only event journal: the durable backbone of the platform's
//! event-driven execution core.
//!
//! A journal is an ordered log of [`JournalEntry`] records, each a short
//! `kind` tag plus a row of [`Value`] arguments. The platform appends one
//! entry per successful state-changing operation; replaying the entries
//! against a fresh platform reconstructs the live state deterministically
//! (see `crowd4u-core`'s `events` module for the entry vocabulary).
//!
//! Like [`crate::snapshot`], the on-disk form is a versioned, line-oriented
//! text format that round-trips exactly, using the same escaped cell
//! encoding for values:
//!
//! ```text
//! crowd4u-journal v1
//! event <kind> <v1>\t<v2>...
//! event <kind>
//! ```
//!
//! Snapshots and journals compose: a snapshot captures a database at an
//! instant, the journal captures how the platform got there, so a platform
//! can be restored either by loading relation snapshots or by replaying the
//! journal from the beginning.

use crate::error::StorageError;
use crate::snapshot::{decode_value, encode_value};
use crate::value::Value;
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: &str = "crowd4u-journal v1";

/// One journaled event: a kind tag plus its argument row.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Short event tag (no whitespace; e.g. `answer`, `clock`, `drain`).
    pub kind: String,
    /// Event arguments in the order the decoder expects them.
    pub args: Vec<Value>,
}

impl JournalEntry {
    pub fn new(kind: impl Into<String>, args: Vec<Value>) -> JournalEntry {
        JournalEntry {
            kind: kind.into(),
            args,
        }
    }
}

/// An append-only, replayable log of [`JournalEntry`] records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventJournal {
    entries: Vec<JournalEntry>,
}

impl EventJournal {
    pub fn new() -> EventJournal {
        EventJournal::default()
    }

    /// Append an entry; returns its sequence number (position). The kind
    /// must be non-empty and free of whitespace so the text format stays
    /// one-line-per-entry.
    pub fn append(
        &mut self,
        kind: impl Into<String>,
        args: Vec<Value>,
    ) -> Result<u64, StorageError> {
        let kind = kind.into();
        if kind.is_empty() || kind.chars().any(|c| c.is_whitespace()) {
            return Err(StorageError::Journal {
                line: 0,
                message: format!("invalid entry kind `{kind}`"),
            });
        }
        self.entries.push(JournalEntry { kind, args });
        Ok(self.entries.len() as u64 - 1)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry at a sequence number.
    pub fn get(&self, seq: usize) -> Option<&JournalEntry> {
        self.entries.get(seq)
    }

    /// All entries in append order.
    pub fn iter(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter()
    }

    /// Entries from a sequence number on (for incremental consumers).
    pub fn since(&self, seq: usize) -> &[JournalEntry] {
        &self.entries[seq.min(self.entries.len())..]
    }

    /// Move every entry out, in append order, leaving the journal empty
    /// (its buffer is kept). For an owner that keeps the history somewhere
    /// else — the sharded runtime's ledger — and must not hold it twice.
    /// Entries not consumed from the iterator are dropped.
    pub fn take(&mut self) -> impl Iterator<Item = JournalEntry> + '_ {
        self.entries.drain(..)
    }

    /// Serialise the journal to its canonical text form.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        for e in &self.entries {
            let _ = write!(out, "event {}", e.kind);
            for (i, v) in e.args.iter().enumerate() {
                out.push(if i == 0 { ' ' } else { '\t' });
                encode_value(v, &mut out);
            }
            out.push('\n');
        }
        out
    }

    /// Parse a journal produced by [`dump`](Self::dump).
    pub fn load(text: &str) -> Result<EventJournal, StorageError> {
        let jerr = |line: usize, message: String| StorageError::Journal { line, message };
        let mut lines = text.lines().enumerate();
        let (_, first) = lines
            .next()
            .ok_or_else(|| jerr(1, "empty journal".into()))?;
        if first != MAGIC {
            return Err(jerr(1, format!("bad magic `{first}`")));
        }
        let mut journal = EventJournal::new();
        for (idx, raw) in lines {
            let lineno = idx + 1;
            let line = raw.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("event ")
                .ok_or_else(|| jerr(lineno, format!("expected `event`, got `{line}`")))?;
            let (kind, cells) = match rest.split_once(' ') {
                Some((k, c)) => (k, Some(c)),
                None => (rest, None),
            };
            if kind.is_empty() {
                return Err(jerr(lineno, "entry without a kind".into()));
            }
            let mut args = Vec::new();
            if let Some(cells) = cells {
                for cell in cells.split('\t') {
                    args.push(decode_value(cell).map_err(|m| jerr(lineno, m))?);
                }
            }
            journal.entries.push(JournalEntry {
                kind: kind.to_owned(),
                args,
            });
        }
        Ok(journal)
    }

    /// Stitch several per-shard entry streams into one journal, ordered by
    /// a caller-supplied sort key (e.g. the global sequence number a router
    /// stamped on each event). All entries are sorted together by
    /// (key, stream index, position in stream), so streams need no
    /// pre-sorting, and on equal keys the earlier stream wins the tie — a
    /// coordinator stream can safely share a key with follower streams.
    /// The usual entry-kind validation applies.
    pub fn merge_streams<K: Ord>(
        streams: Vec<Vec<(K, JournalEntry)>>,
    ) -> Result<EventJournal, StorageError> {
        let mut tagged: Vec<(K, usize, usize, JournalEntry)> = Vec::new();
        for (stream_idx, stream) in streams.into_iter().enumerate() {
            for (pos, (key, entry)) in stream.into_iter().enumerate() {
                tagged.push((key, stream_idx, pos, entry));
            }
        }
        tagged.sort_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
        let mut journal = EventJournal::new();
        for (_, _, _, entry) in tagged {
            journal.append(entry.kind, entry.args)?;
        }
        Ok(journal)
    }

    /// Write the journal to a file.
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> Result<(), StorageError> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.dump().as_bytes())?;
        f.flush()?;
        Ok(())
    }

    /// Read a journal from a file.
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<EventJournal, StorageError> {
        EventJournal::load(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventJournal {
        let mut j = EventJournal::new();
        j.append(
            "worker",
            vec![Value::Id(1), Value::Str("ann\twith tab".into())],
        )
        .unwrap();
        j.append("clock", vec![Value::Int(600)]).unwrap();
        j.append("drain", vec![]).unwrap();
        j.append(
            "answer",
            vec![
                Value::Id(1),
                Value::Id(2),
                Value::Str("multi\nline".into()),
                Value::Null,
                Value::Bool(true),
                Value::Float(0.1 + 0.2),
            ],
        )
        .unwrap();
        j
    }

    #[test]
    fn append_assigns_sequence_numbers() {
        let mut j = EventJournal::new();
        assert!(j.is_empty());
        assert_eq!(j.append("a", vec![]).unwrap(), 0);
        assert_eq!(j.append("b", vec![Value::Int(1)]).unwrap(), 1);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(0).unwrap().kind, "a");
        assert_eq!(j.get(1).unwrap().args, vec![Value::Int(1)]);
        assert!(j.get(2).is_none());
        assert_eq!(j.since(1).len(), 1);
        assert_eq!(j.since(99).len(), 0);
        // `take` moves the entries out in order; numbering restarts.
        let kinds: Vec<String> = j.take().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["a", "b"]);
        assert!(j.is_empty());
        assert_eq!(j.append("c", vec![]).unwrap(), 0);
    }

    #[test]
    fn kinds_with_whitespace_rejected() {
        let mut j = EventJournal::new();
        assert!(j.append("", vec![]).is_err());
        assert!(j.append("two words", vec![]).is_err());
        assert!(j.append("tab\tbed", vec![]).is_err());
        assert!(j.append("line\nfeed", vec![]).is_err());
        assert!(j.is_empty());
    }

    #[test]
    fn round_trip_exact() {
        let j = sample();
        let text = j.dump();
        let back = EventJournal::load(&text).unwrap();
        assert_eq!(back, j);
        // Canonical: dumping the loaded journal is byte-identical.
        assert_eq!(back.dump(), text);
    }

    #[test]
    fn empty_journal_round_trips() {
        let j = EventJournal::new();
        let back = EventJournal::load(&j.dump()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(EventJournal::load("").is_err());
        assert!(EventJournal::load("not a journal\n").is_err());
        assert!(EventJournal::load("crowd4u-journal v1\nwat x\n").is_err());
        assert!(EventJournal::load("crowd4u-journal v1\nevent \n").is_err());
        assert!(EventJournal::load("crowd4u-journal v1\nevent k x9\n").is_err()); // bad tag
        assert!(EventJournal::load("crowd4u-journal v1\nevent k s\\q\n").is_err());
        // blank lines tolerated
        let ok = EventJournal::load("crowd4u-journal v1\n\nevent k i1\n").unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn merge_streams_orders_by_key_then_stream() {
        let e = |k: &str, n: i64| (n as u64, JournalEntry::new(k, vec![Value::Int(n)]));
        // Shard 0 recorded seqs 0, 3 (and the drain at 3 shares the key);
        // shard 1 recorded seqs 1, 2.
        let s0 = vec![e("a", 0), e("drain", 3)];
        let s1 = vec![e("b", 1), e("c", 2), (3, JournalEntry::new("d", vec![]))];
        let merged = EventJournal::merge_streams(vec![s0, s1]).unwrap();
        let kinds: Vec<&str> = merged.iter().map(|e| e.kind.as_str()).collect();
        // Equal keys: the earlier stream (coordinator) wins the tie.
        assert_eq!(kinds, vec!["a", "b", "c", "drain", "d"]);
        // Canonical text round-trip still holds.
        assert_eq!(EventJournal::load(&merged.dump()).unwrap(), merged);
    }

    #[test]
    fn merge_streams_rejects_bad_kinds() {
        let s = vec![(0u64, JournalEntry::new("two words", vec![]))];
        assert!(EventJournal::merge_streams(vec![s]).is_err());
        assert!(EventJournal::merge_streams::<u64>(vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn file_round_trip() {
        let j = sample();
        let dir = std::env::temp_dir().join("crowd4u_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.txt");
        j.save_to_file(&path).unwrap();
        let back = EventJournal::load_from_file(&path).unwrap();
        assert_eq!(back, j);
        std::fs::remove_file(&path).ok();
        assert!(EventJournal::load_from_file(dir.join("missing.txt")).is_err());
    }
}
