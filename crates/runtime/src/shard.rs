//! The shard worker: one thread owning one `Crowd4U` slice, applying
//! routed events from its gate mailbox and moving the journal entries the
//! slice writes into the runtime's ledger, seq-tagged, for recovery and
//! the merged journal. The slice's own journal is empty between messages.
//!
//! A shard's mailbox is one of the [`IngestGate`](crate::gate::IngestGate)'s
//! bounded per-shard queues; the gate guarantees the mailbox is already in
//! global sequence order, so the shard just applies front to back — a
//! **batch** at a time: one mailbox lock moves up to K messages into a
//! queue the supervisor owns, the shard applies them in order (ledgering
//! each apply as before), and the slots they held go back to producers
//! when it returns for the next batch (see the gate's "Consumer side").
//! Every shard keeps a replica of the worker registry, and a broadcast —
//! a worker or project registration, a clock — reaches every shard at the
//! same mailbox position, a registration as the one `Arc` the gate moved
//! the submitted profile into. One rule decides what a shard does with a
//! data event: its recorder (the owner; shard 0 for a broadcast) applies
//! it, journals it and ledgers the entry; every other shard applies the
//! event's replica copy through `Crowd4U::apply_copy`, which journals
//! nothing, and files the copy in its ledger slot for a rebuild to apply
//! again. Both go through one path: the in-flight slot, the auto-drain
//! phase and the apply timing are the same, and only the recorder counts
//! towards `ShardStats` and the kill points. So a job, a drain or an event
//! sees exactly the broadcasts admitted before it, and every registry
//! holds the same profile allocation.
//!
//! The thread body is a **supervisor**: the apply loop runs under
//! `catch_unwind`, and when a panic escapes it (an injected [`FaultPlan`]
//! kill, a job closure blowing up) a recovery-enabled runtime holds the
//! mailbox, rebuilds the slice by replaying the shard's runtime-ledger
//! slice, and resumes consuming exactly where the dead incarnation
//! stopped — the event in flight first, then the rest of the batch it had
//! taken, then the mailbox. With recovery disabled the panic propagates,
//! the unwind drops the batch (and every reply `Sender` queued in it) and
//! the mailbox is abandoned, which scopes the failure to the dead shard.

use crate::gate::{Batch, GateCore};
use crate::recovery::{replay_slice, Applied, FaultPlan, LedgerEntry, LedgerSlot};
use crowd4u_core::events::{DataEvent, EventScope, ReplicaCopy};
use crowd4u_core::platform::Crowd4U;
use crowd4u_telemetry::{stage, Histogram, TelemetryHandle};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Sort key of a recorded entry: (global sequence number, sub-position).
/// Sub-position 0 is the event itself; auto-drain `sync` entries triggered
/// by the event at `seq` record at sub-positions 1, 2, … so they replay
/// immediately after their cause.
pub type SeqKey = (u64, u32);

/// Messages a shard consumes, in mailbox order. Data events
/// ([`ToShard::Apply`]) are subject to the gate's capacity bound; drain
/// barriers and jobs are runtime control messages and are capacity-exempt.
pub(crate) enum ToShard {
    /// Apply one routed event. `record` is true on exactly one shard per
    /// event (the owner; the coordinator for broadcasts), so the merged
    /// journal and the applied/dropped statistics count each event once;
    /// every other shard applies and files the event's replica copy.
    Apply {
        seq: u64,
        data: DataEvent,
        record: bool,
    },
    /// Coordinated drain barrier: sync every dirty project. The coordinator
    /// records the single `drain` entry at `seq`.
    Drain { seq: u64, record: bool },
    /// Run a job against the shard's platform slice once every prior
    /// message has been processed — the control plane: queries, flushes,
    /// migration, the hand-back at finish. No job journals: public jobs
    /// see the slice read-only, and the runtime's own jobs (migration's
    /// extract and adopt, the finish hand-back) do not journal, so a job
    /// can neither change what a replay rebuilds nor shift the next
    /// event's ledger entry.
    Job(Job),
}

/// The body of a [`ToShard::Job`].
pub(crate) type Job = Box<dyn FnOnce(&mut Crowd4U) + Send>;

/// Counters a shard maintains while applying events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events applied (and recorded) successfully.
    pub applied: u64,
    /// Events rejected by the platform — stale worker actions, unknown
    /// ids — dropped and counted, never journaled.
    pub dropped: u64,
    /// Auto-drains triggered by the mailbox batching policy.
    pub auto_drains: u64,
}

impl ShardStats {
    pub(crate) fn absorb(&mut self, other: &ShardStats) {
        self.applied += other.applied;
        self.dropped += other.dropped;
        self.auto_drains += other.auto_drains;
    }
}

/// A fresh platform slice recording into `telemetry`: what a shard starts
/// from and what a recovery replays onto. A platform has no settings
/// outside its journal (ARCHITECTURE.md §2), so every slice the runtime
/// builds is built here — one way, with nothing a replay could miss.
pub(crate) fn fresh_slice(telemetry: &TelemetryHandle) -> Crowd4U {
    let mut platform = Crowd4U::new();
    platform.set_telemetry(telemetry);
    platform
}

/// The one data event a shard incarnation has picked from its batch and
/// not yet made durable: not yet applied, or applied but not yet
/// ledgered. Together with the batch it came from, this is everything a
/// shard holds *outside* the mailbox and *outside* the ledger, and the
/// supervisor owns both, so a panic inside the apply loses neither —
/// the next incarnation redoes this event once, then resumes the batch.
/// Parked (a copy of the event; of a registration, a clone of its `Arc`)
/// only when `ShardCtx::recovery` gives a supervisor that will read it.
/// Injected boundary faults fire *after* ledgering (the slot is already
/// clear); only a genuine mid-apply crash — or
/// [`FaultPlan::kill_mid_apply`], which simulates one — leaves the slot
/// occupied.
pub(crate) struct InFlight {
    seq: u64,
    data: DataEvent,
    record: bool,
    /// Set once a recovery has redone this event: a second panic on the
    /// same event means the event itself is poison, so the incarnation
    /// after that drops it (counted, like any rejected event) instead of
    /// crash-looping.
    retried: bool,
}

/// Everything a shard thread needs to run — and to *re-run*: the fault
/// plan stays with the supervisor across incarnations.
pub(crate) struct ShardCtx {
    pub gate: Arc<GateCore>,
    pub shard: usize,
    pub drain_every: usize,
    pub telemetry: TelemetryHandle,
    /// Recover from panics by slice replay instead of propagating them.
    pub recovery: bool,
    pub faults: Arc<FaultPlan>,
}

/// Abandons the shard's mailbox when the thread exits — crucially also by
/// panic (a [`ToShard::Job`] closure or a drain `expect` unwinding past
/// the supervisor). Without it a dead shard leaves its mailbox open:
/// producers blocked on a full queue would park forever, and the reply
/// channels behind `finish()`/`barrier()` still queued there would never
/// close (those already taken into the supervisor's batch close as the
/// same unwind drops it). On a normal exit the mailbox is already closed
/// and drained, so abandoning it is a no-op.
struct MailboxGuard<'a> {
    gate: &'a GateCore,
    shard: usize,
}

impl Drop for MailboxGuard<'_> {
    fn drop(&mut self) {
        self.gate.abandon(self.shard);
    }
}

/// The shard thread body: a supervisor around [`shard_loop`]. A normal
/// return (mailbox closed and drained) ends the thread; a
/// panic either propagates (recovery off — the mailbox guard abandons the
/// queue, scoping the failure) or triggers an in-place restart: hold the
/// mailbox, replay the ledger slice onto a fresh base, release, resume
/// consuming.
pub(crate) fn shard_main(ctx: ShardCtx) {
    let _guard = MailboxGuard {
        gate: &ctx.gate,
        shard: ctx.shard,
    };
    let recoveries = ctx.telemetry.counter(stage::RECOVERIES);
    let recovery_ns = ctx.telemetry.histogram(stage::RECOVERY_SPAN);
    let mut platform = fresh_slice(&ctx.telemetry);
    let mut in_flight: Option<InFlight> = None;
    // The batch taken from the mailbox and the capacity credit its data
    // events still hold. Owned here, not by the loop: a rebuilt
    // incarnation resumes the same batch, and a panic that propagates
    // drops it, closing every reply channel queued in it.
    let mut batch = Batch::new();
    let mut credit = 0usize;
    loop {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shard_loop(&ctx, &mut platform, &mut in_flight, &mut batch, &mut credit)
        }));
        match outcome {
            Ok(()) => return,
            Err(payload) => {
                if !ctx.recovery {
                    // The mailbox guard abandons the queue as this
                    // propagates; `finish()` resurfaces the panic.
                    std::panic::resume_unwind(payload);
                }
                // The half-applied incarnation is gone. Rebuild the slice
                // the ledger describes; if the panic struck *inside* an
                // apply (mid-apply crash), the picked-but-unledgered event
                // survives in `in_flight` and the fresh incarnation redoes
                // it first, ahead of the rest of `batch` — unless a redo
                // already failed once, in which case the event is poison
                // and gets dropped.
                if let Some(f) = in_flight.as_mut() {
                    if f.retried {
                        if f.record {
                            ctx.gate.ledger().slot(ctx.shard).stats.dropped += 1;
                        }
                        in_flight = None;
                    } else {
                        f.retried = true;
                    }
                }
                ctx.gate.begin_recovery(ctx.shard);
                let span = recovery_ns.stamp();
                platform = rebuild(&ctx);
                recoveries.incr();
                recovery_ns.since(span);
                ctx.gate.end_recovery(ctx.shard);
            }
        }
    }
}

/// Rebuild a dead shard's platform from the runtime-owned ledger: the
/// shard's slice under the current routing table (see
/// [`ShardLedger::shard_slice`](crate::recovery::ShardLedger::shard_slice)),
/// replayed.
fn rebuild(ctx: &ShardCtx) -> Crowd4U {
    let gate = &ctx.gate;
    let entries = gate
        .ledger()
        .shard_slice(ctx.shard, |p| gate.owner_of(p), gate.has_overrides());
    replay_slice(fresh_slice(&ctx.telemetry), &entries)
}

/// Drain the gate mailbox until it is closed and empty, a batch per
/// mailbox lock, applying each message against the slice `p`. `batch` may
/// arrive non-empty: what a dead incarnation had taken and not reached.
fn shard_loop(
    ctx: &ShardCtx,
    p: &mut Crowd4U,
    in_flight: &mut Option<InFlight>,
    batch: &mut Batch,
    credit: &mut usize,
) {
    let gate = &ctx.gate;
    let shard = ctx.shard;
    // Pre-fetched once per incarnation: recording an observation is a
    // relaxed atomic add, never a registry lookup — and, for the 63 in 64
    // events outside the sample, the only cost.
    let apply_hist = ctx.telemetry.histogram(stage::SHARD_APPLY);

    loop {
        // The redo of an event a dead incarnation picked and never
        // ledgered comes first — it outlives that incarnation in
        // `in_flight`, which is clear between applies otherwise, and its
        // dwell was observed when it was first picked — then the batch
        // front, then the next batch.
        if let Some(f) = in_flight.as_ref() {
            let (seq, data, record) = (f.seq, f.data.clone(), f.record);
            apply_data(ctx, p, in_flight, &apply_hist, seq, data, record);
            continue;
        }
        let msg = if let Some((msg, enqueued)) = batch.pop_front() {
            gate.observe_dwell(enqueued);
            msg
        } else if gate.recv_batch(shard, batch, credit) {
            continue;
        } else {
            return;
        };
        match msg {
            ToShard::Apply { seq, data, record } => {
                apply_data(ctx, p, in_flight, &apply_hist, seq, data, record);
            }
            ToShard::Drain { seq, record } => {
                p.drain_events()
                    .expect("drain failed on shard — dirty project unsyncable");
                let mut slot = gate.ledger().slot(shard);
                slot.since_drain = 0;
                // Ledgered on every shard (replays must re-run the drain);
                // recorded in the merged journal by the coordinator only.
                ledger_journaled(p, &mut slot, (seq, 0), EventScope::Global, record);
            }
            ToShard::Job(run) => {
                run(p);
                debug_assert!(
                    p.journal().is_empty(),
                    "a job journaled: jobs are not ledgered, so its entry would ride \
                     along with the next event's"
                );
            }
        }
    }
}

/// Apply one data event and make it durable: the in-flight slot around
/// the apply, the kill points, the ledger entry, the applied count and the
/// auto-drain phase. `record` alone picks what is applied and ledgered:
/// the recorder applies the event and files the entry the platform
/// journaled; any other shard applies the event's replica copy, which
/// journals nothing, and files the copy.
fn apply_data(
    ctx: &ShardCtx,
    p: &mut Crowd4U,
    in_flight: &mut Option<InFlight>,
    apply_hist: &Histogram,
    seq: u64,
    data: DataEvent,
    record: bool,
) {
    let gate = &ctx.gate;
    let shard = ctx.shard;
    // A redo skips fault injection, so an injected kill cannot re-fire on
    // its own retry: each fires at most once.
    let inject = in_flight.is_none();
    // Park the event in the supervisor-owned slot for the duration of the
    // apply: a mid-apply panic must not lose it (see `InFlight`). A redo's
    // copy is parked already; without recovery nothing reads the slot, so
    // no copy is made.
    if ctx.recovery && inject {
        *in_flight = Some(InFlight {
            seq,
            data: data.clone(),
            record,
            retried: false,
        });
    }
    if inject && record && ctx.faults.kills_mid_apply(shard) {
        let next = gate.ledger().slot(shard).stats.applied + 1;
        if ctx.faults.fires_mid(shard, next) {
            panic!("injected fault: shard {shard} killed inside apply #{next}");
        }
    }
    // The scope is taken before the apply consumes the event: the slice
    // filters of recovery and migration select on it.
    let scope = data.scope();
    let applied = {
        let _span = apply_hist.span_for(seq);
        if record {
            p.apply(data).map(|()| None)
        } else {
            let copy = ReplicaCopy::from(data);
            p.apply_copy(&copy).map(|()| Some(copy))
        }
    };
    let Ok(filed) = applied else {
        // Per-event error tolerance, mirroring `apply_batch` and the
        // scenario driver: a stale or invalid worker action is dropped and
        // counted, not fatal — and never ledgered, so replays skip it
        // identically. Nor may anything it journaled before failing stay
        // behind.
        drop(p.take_journal());
        if record {
            gate.ledger().slot(shard).stats.dropped += 1;
        }
        *in_flight = None;
        return;
    };
    // Every Ok apply is ledgered — broadcast copies included — because the
    // ledger slice is what a recovery replays.
    let mut slot = gate.ledger().slot(shard);
    match filed {
        Some(copy) => {
            debug_assert!(p.journal().is_empty(), "a replica's copy journaled");
            slot.entries.push(LedgerEntry {
                key: (seq, 0),
                entry: Applied::Copy(copy),
                scope,
                recorded: false,
            });
        }
        None => ledger_journaled(p, &mut slot, (seq, 0), scope, true),
    }
    let fired = if record {
        slot.stats.applied += 1;
        inject && ctx.faults.fires(shard, slot.stats.applied)
    } else {
        false
    };
    slot.since_drain += 1;
    if ctx.drain_every > 0 && slot.since_drain >= ctx.drain_every {
        slot.since_drain = 0;
        auto_drain(p, &mut slot, seq);
    }
    let applied_so_far = slot.stats.applied;
    drop(slot);
    // Ledgered: from here on a crash re-derives this event from the
    // ledger, so the in-flight copy is obsolete — and must be cleared
    // *before* a boundary fault fires, or the recovery would redo an
    // already-ledgered event.
    *in_flight = None;
    if fired {
        panic!(
            "injected fault: shard {shard} killed after \
             {applied_so_far} applied events"
        );
    }
}

/// File the one entry the platform journaled for the message just applied
/// — an event, a drain barrier, an auto-drain sync — in the ledger slot,
/// moving it out of the slice.
fn ledger_journaled(
    platform: &mut Crowd4U,
    slot: &mut LedgerSlot,
    key: SeqKey,
    scope: EventScope,
    recorded: bool,
) {
    let mut journaled = platform.take_journal();
    let entry = journaled
        .next()
        .expect("an applied message journals its entry");
    assert!(
        journaled.next().is_none(),
        "an applied message journals exactly one entry"
    );
    slot.entries.push(LedgerEntry {
        key,
        entry: Applied::Journaled(entry),
        scope,
        recorded,
    });
}

/// Streaming-mode drain: sync each dirty project individually, ledgering
/// the platform's `sync` entry per project at the triggering sequence
/// number so the merged journal replays the sync at exactly this point —
/// only for this shard's projects, unlike a global `drain` entry.
fn auto_drain(platform: &mut Crowd4U, slot: &mut LedgerSlot, seq: u64) {
    let dirty = platform.dirty_projects();
    if dirty.is_empty() {
        return;
    }
    slot.stats.auto_drains += 1;
    for (i, project) in dirty.into_iter().enumerate() {
        platform
            .sync_tasks(project)
            .expect("auto-drain sync failed on shard");
        let key = (seq, 1 + i as u32);
        ledger_journaled(platform, slot, key, EventScope::Project(project), true);
    }
}
