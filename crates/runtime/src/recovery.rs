//! Crash recovery: the shared apply ledger, deterministic fault
//! injection, and the journal-slice replay that rebuilds a dead shard's
//! platform.
//!
//! # Why recovery is replay
//!
//! Everything a shard's platform slice *is* was produced by applying a
//! prefix of the global event stream: its owned projects' events and
//! every broadcast, at their sequence positions. The runtime therefore
//! keeps each shard's applied stream in a shared per-shard ledger —
//! outside the shard thread, so a panic cannot take it down — and a
//! restart is nothing more than replaying that ledger slice onto a fresh
//! base platform:
//!
//! * **recorded entries** — the shard's project events, and on the
//!   coordinator the broadcasts — come from the dead shard's own ledger
//!   slot, as the journal entries the platform wrote;
//! * **replica copies** come from the same slot: a shard that does not
//!   record a broadcast — a worker or project registration, a clock —
//!   applies it without journaling it and files its copy
//!   (`Applied::Copy`, keyed by the broadcast's sequence number), which a
//!   replay applies the same way. The slot holds them at exactly the
//!   positions the live shard reached them, and none it had not reached
//!   (broadcasts queued behind the dead shard's position stay in its
//!   mailbox, the future it resumes with), and it does not wait on the
//!   coordinator, which may not have applied the broadcast yet;
//! * entries for projects the routing table has since moved elsewhere
//!   are filtered out (the rebuilt shard keeps only the shell every
//!   platform holds), and entries for projects migrated *in* are pulled
//!   from the previous owners' slots.
//!
//! The mailbox itself is left intact while the shard recovers — queued
//! events are part of the *future*, not the slice — so held traffic
//! resumes in the exact order it was admitted and the merged journal is
//! byte-identical to a run where the failure never happened.
//!
//! # Deterministic chaos
//!
//! [`FaultPlan`] injects crashes at exact points: *kill shard S after
//! its k-th applied event*. The panic fires after the k-th recorded
//! apply is already ledgered, so the injection lands on a clean
//! boundary and the equivalence proptests can assert byte-identity
//! between faulted and fault-free runs. Plans are plain data, handed to
//! `new_chaos_instrumented`; the chaos tests derive theirs from the
//! proptest seed (`PROPTEST_SEED`), which is what CI pins for its replays.

use crate::shard::{SeqKey, ShardStats};
use crowd4u_core::error::ProjectId;
use crowd4u_core::events::{EventScope, PlatformEvent, ReplicaCopy, DRAIN_KIND};
use crowd4u_core::platform::Crowd4U;
use crowd4u_storage::journal::JournalEntry;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What a ledger entry replays.
#[derive(Debug, Clone)]
pub(crate) enum Applied {
    /// The journal entry the platform itself wrote for an applied message
    /// (moved out of the slice, never re-encoded).
    Journaled(JournalEntry),
    /// The copy of a broadcast a replica applied without journaling it
    /// (`Crowd4U::apply_copy`).
    Copy(ReplicaCopy),
}

// A ledger entry holds an `Applied` per applied message: filing a whole
// event (168 bytes) instead of its compact copy would grow every entry.
const _: () = assert!(std::mem::size_of::<Applied>() == 48);

/// One applied message in a shard's history: its sort key, what it
/// replays, the scope it was routed by, and whether this shard is the
/// event's unique recorder (broadcast copies on replica shards are
/// ledgered but not recorded).
#[derive(Debug, Clone)]
pub(crate) struct LedgerEntry {
    pub key: SeqKey,
    pub entry: Applied,
    /// What the slice filters select on, so none of them decodes `entry`:
    /// the event's own scope, `Global` for a broadcast copy and a drain
    /// barrier; `Project(p)` for an auto-drain sync
    /// of `p`.
    pub scope: EventScope,
    pub recorded: bool,
}

/// One shard's applied history and counters, owned by the runtime (not
/// the shard thread) so they survive a shard death.
#[derive(Debug, Default)]
pub(crate) struct LedgerSlot {
    /// Every applied message in apply order (keys strictly increase).
    pub entries: Vec<LedgerEntry>,
    /// Monotonic across shard incarnations — also what a [`FaultPlan`]
    /// kill point counts, so an injected fault cannot re-fire after the
    /// recovery it caused.
    pub stats: ShardStats,
    /// Streaming-mode auto-drain phase, persisted so a recovered shard
    /// places its next auto-drain exactly where the dead one would have.
    pub since_drain: usize,
}

/// The per-shard apply ledger: the replay source of truth for recovery
/// and the runtime's merged journal.
#[derive(Debug)]
pub(crate) struct ShardLedger {
    slots: Vec<Mutex<LedgerSlot>>,
}

impl ShardLedger {
    pub(crate) fn new(shards: usize) -> ShardLedger {
        ShardLedger {
            slots: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    pub(crate) fn slot(&self, shard: usize) -> MutexGuard<'_, LedgerSlot> {
        self.slots[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn shards(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn stats(&self, shard: usize) -> ShardStats {
        self.slot(shard).stats
    }

    /// Clones of the entries of one slot that `keep` selects, picked
    /// under the slot lock (the slot stays in place for the live shard to
    /// append to).
    fn select(&self, shard: usize, keep: impl Fn(&LedgerEntry) -> bool) -> Vec<LedgerEntry> {
        let slot = self.slot(shard);
        slot.entries.iter().filter(|e| keep(e)).cloned().collect()
    }

    /// The slice a rebuild of `shard` replays: from its own slot every
    /// drain and broadcast (journaled on the coordinator, filed copies on
    /// a replica) and the project
    /// events it owns under the *current* routing table `owner_of`; and, when
    /// projects have `migrated`, the recorded events of projects migrated
    /// in, which earlier owners applied and therefore hold in their
    /// slots. In key order.
    pub(crate) fn shard_slice(
        &self,
        shard: usize,
        owner_of: impl Fn(ProjectId) -> usize,
        migrated: bool,
    ) -> Vec<LedgerEntry> {
        let mut entries = self.select(shard, |e| match e.scope {
            EventScope::Global => true,
            EventScope::Project(p) => owner_of(p) == shard,
        });
        if migrated {
            for other in (0..self.shards()).filter(|&other| other != shard) {
                entries.extend(self.select(other, |e| match e.scope {
                    EventScope::Project(p) => e.recorded && owner_of(p) == shard,
                    EventScope::Global => false,
                }));
            }
            entries.sort_by_key(|e| e.key);
        }
        entries
    }

    /// The recorded journal stream of one shard, for the merged journal:
    /// clones, not moved entries. Moved, the merged journal would keep
    /// the finished shard threads' own allocations alive in their heaps,
    /// and the next runtime's shards in the same process measured slower
    /// for it (see CHANGES.md).
    pub(crate) fn recorded_stream(&self, shard: usize) -> Vec<(SeqKey, JournalEntry)> {
        self.slot(shard)
            .entries
            .iter()
            .filter_map(|e| match &e.entry {
                Applied::Journaled(entry) if e.recorded => Some((e.key, entry.clone())),
                _ => None,
            })
            .collect()
    }
}

/// A deterministic crash schedule: kill shard *S* after its *k*-th
/// applied (recorded) event. Plans are plain data — derive them from a
/// proptest seed or build them with [`FaultPlan::kill`] — and the
/// injected panic always fires at the same event boundary, which is what
/// makes chaos runs replayable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kills: Vec<(usize, u64)>,
    /// Mid-apply kill points: panic *inside* the k-th recorded apply,
    /// before anything is ledgered — the genuine-crash shape (a bug in
    /// `apply_event`, an OOM) as opposed to the clean boundary above.
    mid_kills: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// No injected faults (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill `shard` right after its `after_applied`-th applied event.
    pub fn kill(shard: usize, after_applied: u64) -> FaultPlan {
        FaultPlan::none().and_kill(shard, after_applied)
    }

    /// Kill `shard` *inside* its `nth_apply`-th recorded apply — after the
    /// message left the mailbox, before the ledger saw it. Exercises the
    /// in-flight redo path rather than boundary replay.
    pub fn kill_mid_apply(shard: usize, nth_apply: u64) -> FaultPlan {
        FaultPlan::none().and_kill_mid(shard, nth_apply)
    }

    /// Add another kill point to the plan.
    pub fn and_kill(mut self, shard: usize, after_applied: u64) -> FaultPlan {
        if after_applied > 0 {
            self.kills.push((shard, after_applied));
        }
        self
    }

    /// Add another mid-apply kill point to the plan.
    pub fn and_kill_mid(mut self, shard: usize, nth_apply: u64) -> FaultPlan {
        if nth_apply > 0 {
            self.mid_kills.push((shard, nth_apply));
        }
        self
    }

    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.mid_kills.is_empty()
    }

    /// Does the plan fire for `shard` at exactly `applied` applied
    /// events? Applied counts are monotonic across recoveries, so a kill
    /// point fires at most once.
    pub(crate) fn fires(&self, shard: usize, applied: u64) -> bool {
        self.kills.iter().any(|&(s, k)| s == shard && k == applied)
    }

    /// Does the plan hold any mid-apply kill for `shard`? When it does
    /// not — every shard of a run without chaos — the apply path skips the
    /// ledger-slot lock that reading `next_applied` takes.
    pub(crate) fn kills_mid_apply(&self, shard: usize) -> bool {
        self.mid_kills.iter().any(|&(s, _)| s == shard)
    }

    /// Does the plan fire for `shard` *inside* its `next_applied`-th
    /// recorded apply? Checked before the ledger sees the event; the
    /// post-recovery redo path skips injection, so a mid-apply kill also
    /// fires at most once.
    pub(crate) fn fires_mid(&self, shard: usize, next_applied: u64) -> bool {
        self.mid_kills
            .iter()
            .any(|&(s, k)| s == shard && k == next_applied)
    }
}

/// Replay one shard slice onto a fresh `platform`: journaled entries
/// re-apply (a drain re-drains) and filed copies re-apply unjournaled,
/// each at the position the live shard reached it. Returns the rebuilt platform —
/// its journal empty, like every live slice's: the entries just replayed
/// are the ledger's already.
pub(crate) fn replay_slice(mut platform: Crowd4U, entries: &[LedgerEntry]) -> Crowd4U {
    for e in entries {
        match &e.entry {
            Applied::Copy(copy) => platform
                .apply_copy(copy)
                .expect("a filed copy must re-apply — it applied cleanly live"),
            Applied::Journaled(entry) if entry.kind == DRAIN_KIND => {
                platform
                    .drain_events()
                    .expect("ledgered drain must replay — it applied cleanly live");
            }
            Applied::Journaled(entry) => {
                let event = PlatformEvent::decode(entry)
                    .expect("ledgered entry must decode — the platform journaled it");
                platform
                    .apply_event(event)
                    .expect("ledgered event must re-apply — it applied cleanly live");
            }
        }
    }
    drop(platform.take_journal());
    platform
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_core::events::DataEvent;
    use crowd4u_crowd::profile::{WorkerId, WorkerProfile};
    use crowd4u_sim::time::SimTime;

    #[test]
    fn fault_plans_parse_and_fire_exactly() {
        let plan = FaultPlan::kill(1, 5).and_kill(0, 9);
        assert!(plan.fires(1, 5));
        assert!(!plan.fires(1, 6));
        assert!(!plan.fires(2, 5));
        assert!(plan.fires(0, 9));
        assert!(FaultPlan::none().is_empty());
        // A zero kill point would fire before any event; it is dropped.
        assert!(FaultPlan::kill(3, 0).is_empty());
    }

    #[test]
    fn mid_apply_kill_points_parse_and_fire_separately() {
        let plan = FaultPlan::kill_mid_apply(1, 5).and_kill(0, 9);
        assert!(plan.fires_mid(1, 5));
        assert!(!plan.fires(1, 5), "mid kill is not a boundary kill");
        assert!(plan.fires(0, 9));
        assert!(!plan.fires_mid(0, 9), "boundary kill is not a mid kill");
        assert!(FaultPlan::kill_mid_apply(2, 0).is_empty());
    }

    #[test]
    fn ledger_slots_filter_recorded_streams() {
        let entry = |seq: u64, kind: &str, scope: EventScope, recorded: bool| LedgerEntry {
            key: (seq, 0),
            entry: Applied::Journaled(JournalEntry::new(kind, vec![])),
            scope,
            recorded,
        };
        let copy = |seq: u64, event: PlatformEvent| LedgerEntry {
            key: (seq, 0),
            entry: Applied::Copy(DataEvent::new(event).into()),
            scope: EventScope::Global,
            recorded: false,
        };
        let project = |p: u64| EventScope::Project(ProjectId(p));
        // Two shards, round-robin ownership: project 1 on shard 0, project
        // 2 on shard 1. Shard 0 coordinates: it journals the registration
        // and the clock, and records them and the drain; shard 1 holds the
        // copies of both it filed and an unrecorded copy of the drain.
        // The unrecorded project entry at 6 stands for an entry only the
        // slot that applied it may replay.
        let ledger = ShardLedger::new(2);
        {
            let mut slot = ledger.slot(0);
            slot.entries.extend([
                entry(1, "worker", EventScope::Global, true),
                entry(2, "clock", EventScope::Global, true),
                entry(3, "seed", project(1), true),
                entry(7, DRAIN_KIND, EventScope::Global, true),
            ]);
            slot.stats.applied = 3;
        }
        {
            let mut slot = ledger.slot(1);
            slot.entries.extend([
                copy(
                    1,
                    PlatformEvent::WorkerRegistered {
                        profile: WorkerProfile::new(WorkerId(1), "w"),
                    },
                ),
                copy(
                    2,
                    PlatformEvent::ClockAdvanced {
                        to: SimTime(60),
                        owner: 0,
                    },
                ),
                entry(4, "seed", project(2), true),
                entry(5, "sync", project(2), true),
                entry(6, "seed", project(2), false),
                entry(7, DRAIN_KIND, EventScope::Global, false),
            ]);
            slot.stats.applied = 1;
        }
        let seqs = |entries: Vec<LedgerEntry>| -> Vec<u64> {
            entries.into_iter().map(|e| e.key.0).collect()
        };

        // The filed copies are never part of the merged journal: shard 0's
        // journaled registration and clock at the same seqs are.
        let stream = ledger.recorded_stream(1);
        assert_eq!(stream.len(), 2);
        assert_eq!(stream[0].0, (4, 0));
        assert_eq!(ledger.stats(1).applied, 1);
        let stream = ledger.recorded_stream(0);
        assert_eq!(stream.len(), 4);
        assert_eq!(stream[0].1.kind, "worker");

        // Own slice, no migration: everything the slot holds, recorded or
        // not — and nothing of the other slot's.
        let round_robin = |p: ProjectId| (p.0 as usize - 1) % 2;
        assert_eq!(
            seqs(ledger.shard_slice(0, round_robin, false)),
            [1, 2, 3, 7]
        );
        assert_eq!(
            seqs(ledger.shard_slice(1, round_robin, false)),
            [1, 2, 4, 5, 6, 7]
        );

        // Project 2 migrated to shard 0. Shard 1's slice loses it (the
        // filed copies and the drain stay); shard 0's gains the recorded
        // history from shard 1's slot — not the unrecorded entry, not the
        // copies or the drain it already has its own of — merged in key
        // order.
        let moved = |_: ProjectId| 0;
        let is_filed = |e: &LedgerEntry| matches!(e.entry, Applied::Copy(_));
        assert_eq!(seqs(ledger.shard_slice(1, moved, true)), [1, 2, 7]);
        let rebuilt_zero = ledger.shard_slice(0, moved, true);
        assert!(!rebuilt_zero.iter().any(is_filed));
        assert_eq!(seqs(rebuilt_zero), [1, 2, 3, 4, 5, 7]);
    }
}
