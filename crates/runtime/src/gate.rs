//! The ingestion front door: many concurrent producers, one deterministic
//! event order.
//!
//! [`IngestGate`] is a cloneable handle that any number of client threads
//! can submit [`PlatformEvent`]s through simultaneously, built from:
//!
//! * a **lock-free global sequence stamper** — one `AtomicU64` fetch-add
//!   is the only state all producers share;
//! * **per-shard bounded MPSC mailboxes** — producers targeting different
//!   shards proceed in parallel and contend only on the owner shard's
//!   queue; and
//! * **backpressure** when a mailbox is full, with both policies: block
//!   ([`IngestGate::submit`]) or typed error ([`IngestGate::try_submit`],
//!   which hands the event back in [`GateError::Full`]). A rejected event
//!   is returned to the caller, and no accepted event is ever dropped —
//!   except when its destination shard thread dies before applying it
//!   *with recovery disabled*, in which case the shard's mailbox is
//!   abandoned (queued events, and the rest of the batch the dead
//!   consumer had in hand, discarded; the mailbox closed) so callers
//!   fail fast with [`GateError::ShardDown`] — scoped to the dead shard,
//!   healthy shards keep accepting — and the panic resurfaces from
//!   `ShardedRuntime::finish`. With recovery enabled the mailbox is
//!   instead *held* ([`GateError::Recovering`] on `try_submit`, a wait on
//!   blocking `submit`) while the shard respawns and replays its slice;
//!   queued events — and the batch in hand, which the supervisor owns —
//!   are preserved and applied by the rebuilt consumer, so nothing is
//!   lost. Migrations quiesce a single project the same way
//!   ([`GateError::Migrating`]).
//!
//! # Admission (one loop for every scope)
//!
//! Every event goes through the same steps in `GateCore::admit`. Its
//! [`EventScope`] names the destination shards and the one *recorder*
//! among them: a project event goes to its owner, which records it; a
//! global event — a clock advance, a project or a worker registration —
//! goes to every shard, and shard 0 records it. The destinations are
//! locked in ascending order and one ladder is checked, first match wins:
//!
//! 1. the recorder is dead → [`GateError::ShardDown`];
//! 2. a live destination is closed → [`GateError::Closed`];
//! 3. a migration holds the scope (a project event: its own project; a
//!    broadcast: any project) → [`GateError::Migrating`];
//! 4. a live destination is recovering → [`GateError::Recovering`];
//! 5. a live destination is full → [`GateError::Full`].
//!
//! A refused `try_submit` gets its event back. A blocking `submit` drops
//! the locks, waits out the refusal (the hold's release, or room on or the
//! recovery of the refusing shard) and resolves the destination again —
//! a migration may have moved the owner meanwhile. Closed and dead are
//! final. An admitted event is stamped and pushed to every live
//! destination in one step, `record` set on the recorder only.
//!
//! # Ordering guarantee (why the stamp happens inside the shard lock)
//!
//! The determinism contract (ARCHITECTURE.md) requires each shard to apply
//! its slice of the event stream **in global sequence order** — that is
//! what makes the merged journal byte-identical to a serial run. A naive
//! "stamp, then enqueue" scheme breaks it: producer A could take seq 5,
//! get preempted, and producer B could take seq 6 and enqueue to the same
//! shard first. The gate therefore acquires the destination mailbox lock
//! *first*, and stamps and pushes while still holding it (a producer
//! waits for room with every lock dropped, so it never blocks the
//! consumer). Two consequences:
//!
//! * per mailbox, queue order == sequence order, always;
//! * sequence numbers may have gaps (a `try_submit` that found the queue
//!   full never stamps, but a producer that panics between operations
//!   cannot leave one — stamp and push are adjacent under the lock).
//!   Nothing in the runtime requires density: the merged journal sorts by
//!   sequence number, not by counting.
//!
//! A broadcast is pushed under **all** shard locks (ascending order, so
//! two broadcasts cannot deadlock): every shard sees it at the same
//! position relative to its project events, and admission is
//! all-or-nothing — `try_submit` never leaves a partial broadcast. A dead
//! replica is skipped (its slice is lost already; stalling every healthy
//! shard on it would globalise a scoped failure), a dead recorder is not.
//!
//! A worker registration is a broadcast like any other, with one
//! difference in what the shards receive: the submitted profile moves,
//! before any lock, into one `Arc`, and every destination — the recorder
//! included, at any shard count — gets a `ToShard::Install` of that `Arc`.
//! The recorder registers and records it; each live replica files it in
//! its ledger slot and installs it without journaling. No shard copies
//! the profile: every registry holds the submitter's allocation. A refused
//! registration is handed back by unwrapping the `Arc`, which nothing else
//! holds until admission. Mailbox order then places every job, drain and
//! event after each registration admitted before it, on every shard.
//!
//! Producers to distinct shards share nothing but the atomic stamper; the
//! per-shard critical section is a few `VecDeque` operations. The gate is
//! wired into [`ShardedRuntime`](crate::router::ShardedRuntime), which
//! spawns the shard consumers and hands out handles via
//! [`gate()`](crate::router::ShardedRuntime::gate).
//!
//! # Consumer side (why the shard takes batches)
//!
//! A shard does not pop one message per lock. `GateCore::recv_batch` moves
//! up to `K = (capacity / 4).clamp(1, 64)` messages, in mailbox order,
//! into a batch the shard's supervisor owns, and the *credit* for the data
//! events in it — their share of the capacity bound — goes back only when
//! the consumer returns for the next batch, under that same lock, with at
//! most one producer wake-up. So a submitter parked on a full mailbox is
//! woken once per batch into K free slots, instead of once per event into
//! one — the sleep/wake pair per event that made two threads take turns on
//! one core. And because a taken event keeps its slot until its batch is
//! done, *admitted and not yet applied ≤ capacity* holds exactly: the
//! bound covers the mailbox **and** the batch in hand. A quarter of the
//! capacity keeps three quarters of the mailbox open to producers while
//! the shard works through a batch; the cap of 64 keeps a batch's worth of
//! held slots (and of messages outside the mailbox) small on the default
//! 1024-slot mailbox, where caps of 16, 64 and 256 measure within a few
//! per cent of one another.

use crate::recovery::ShardLedger;
use crate::shard::{DataEvent, Job, ToShard};
use crowd4u_core::error::ProjectId;
use crowd4u_core::events::{EventScope, PlatformEvent};
use crowd4u_telemetry::{stage, Counter, Histogram, TelemetryHandle};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why a submission did not enter the runtime. Every variant hands the
/// event back so the caller can retry, reroute or surface it — the gate
/// never swallows an event it did not accept.
#[derive(Debug)]
pub enum GateError {
    /// The runtime has shut down (or is shutting down); nothing is
    /// accepted any more.
    Closed(Box<PlatformEvent>),
    /// `try_submit` only: the destination mailbox (for a broadcast: the
    /// first full mailbox found) had no room. Retry later, or use the
    /// blocking [`IngestGate::submit`].
    Full {
        /// The shard whose mailbox was full.
        shard: usize,
        /// The rejected event, handed back for retry.
        event: Box<PlatformEvent>,
    },
    /// The destination shard's thread died and recovery is disabled —
    /// the error is scoped to that shard: events owned by healthy
    /// shards (and broadcasts, while the coordinator lives) keep
    /// flowing. The dead shard's panic resurfaces from
    /// `ShardedRuntime::finish`.
    ShardDown {
        /// The shard whose consumer is gone.
        shard: usize,
        /// The rejected event, handed back.
        event: Box<PlatformEvent>,
    },
    /// `try_submit` only: the destination shard died and is currently
    /// rebuilding its slice from the ledger. Retry shortly, or use the
    /// blocking [`IngestGate::submit`], which waits out the recovery.
    Recovering {
        /// The shard being respawned.
        shard: usize,
        /// The rejected event, handed back for retry.
        event: Box<PlatformEvent>,
    },
    /// `try_submit` only: admission is briefly held while a project
    /// migrates between shards (the quiesced project's events, plus
    /// broadcasts — they interleave with every slice). Retry shortly, or
    /// use the blocking [`IngestGate::submit`], which waits out the
    /// migration.
    Migrating {
        /// A project currently being migrated.
        project: ProjectId,
        /// The rejected event, handed back for retry.
        event: Box<PlatformEvent>,
    },
}

impl GateError {
    /// Recover the event that was not accepted.
    pub fn into_event(self) -> PlatformEvent {
        match self {
            GateError::Closed(e) => *e,
            GateError::Full { event, .. }
            | GateError::ShardDown { event, .. }
            | GateError::Recovering { event, .. }
            | GateError::Migrating { event, .. } => *event,
        }
    }
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Closed(_) => write!(f, "ingestion gate closed (runtime shut down)"),
            GateError::Full { shard, .. } => {
                write!(f, "shard {shard} mailbox full (backpressure)")
            }
            GateError::ShardDown { shard, .. } => {
                write!(
                    f,
                    "shard {shard} is down (its thread panicked; recovery disabled)"
                )
            }
            GateError::Recovering { shard, .. } => {
                write!(f, "shard {shard} is recovering (slice replay in progress)")
            }
            GateError::Migrating { project, .. } => {
                write!(f, "admission held while project {project} migrates")
            }
        }
    }
}

impl std::error::Error for GateError {}

/// The rung of the admission ladder that refused an event, before the
/// event is handed back in the matching [`GateError`].
#[derive(Debug, Clone, Copy)]
enum Refusal {
    Closed,
    Full(usize),
    ShardDown(usize),
    Recovering(usize),
    Migrating(ProjectId),
}

impl Refusal {
    fn hand_back(self, event: PlatformEvent) -> GateError {
        let event = Box::new(event);
        match self {
            Refusal::Closed => GateError::Closed(event),
            Refusal::Full(shard) => GateError::Full { shard, event },
            Refusal::ShardDown(shard) => GateError::ShardDown { shard, event },
            Refusal::Recovering(shard) => GateError::Recovering { shard, event },
            Refusal::Migrating(project) => GateError::Migrating { project, event },
        }
    }
}

/// One shard's bounded MPSC mailbox. The mutex covers only a few
/// `VecDeque` operations; waiting (producer on `not_full`, consumer on
/// `not_empty`) always releases it.
struct ShardQueue {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
}

/// Messages in mailbox order, each with its enqueue timestamp — `None`
/// unless telemetry is on and the message is a data event whose seq is in
/// the timed sample (`crowd4u_telemetry::sampled`): the mailbox's own
/// queue, and the batch a shard takes from it (see
/// [`GateCore::recv_batch`]).
pub(crate) type Batch = VecDeque<(ToShard, Option<Instant>)>;

/// How many messages one [`GateCore::recv_batch`] moves at most: a quarter
/// of the capacity — so producers keep most of the mailbox while the
/// shard works through a batch — at least one, at most 64 (unbounded
/// mailboxes included). Derived, not configured.
fn batch_limit(capacity: usize) -> usize {
    (capacity / 4).clamp(1, 64)
}

struct QueueState {
    queue: Batch,
    /// Data events ([`ToShard::Apply`], [`ToShard::Install`]) admitted and
    /// not yet given back by
    /// the consumer: those queued here **plus** those in the batch the
    /// shard has in hand, whose credit returns with its next
    /// [`GateCore::recv_batch`]. The capacity bound applies to this count
    /// only — control messages (jobs, drain barriers) ride along
    /// unbounded, so a full mailbox can never wedge the control plane, and
    /// a queued job never eats a data slot.
    data_len: usize,
    closed: bool,
    /// The consumer thread died unrecoverably (abandoned mailbox while
    /// the runtime was live). Implies `closed`; scopes the producer
    /// error to [`GateError::ShardDown`] instead of the runtime-wide
    /// [`GateError::Closed`].
    dead: bool,
    /// The consumer thread died and is rebuilding its slice. New data
    /// events are held ([`GateError::Recovering`] / blocking wait);
    /// queued messages are preserved — they are the traffic the
    /// recovered shard resumes with, still in sequence order.
    recovering: bool,
    /// True while the shard consumer is parked on `not_empty`; producers
    /// skip the signal entirely when it is not (the common case under
    /// load), keeping the hot submit path to a lock + stamp + push.
    consumer_waiting: bool,
    /// Producers currently parked on `not_full`; the consumer skips the
    /// signal when nobody is (always, in unbounded mode), keeping the
    /// batch take to a lock + drain — the mirror of `consumer_waiting`.
    producers_waiting: usize,
}

impl QueueState {
    fn push_data(&mut self, msg: ToShard, at: Option<Instant>) {
        self.queue.push_back((msg, at));
        self.data_len += 1;
    }

    fn notify_consumer(&mut self, q: &ShardQueue) {
        if self.consumer_waiting {
            self.consumer_waiting = false;
            q.not_empty.notify_one();
        }
    }
}

fn lock(q: &ShardQueue) -> MutexGuard<'_, QueueState> {
    q.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The `crowd4u_stage_gate_admit_ns` span of one admission, in one of two
/// label sets. An admission that goes straight through is `path="direct"`
/// and timed only when its key is sampled. One that has to wait —
/// backpressure, a recovery, a migration hold — is `path="waited"` and
/// timed every time: from its start when sampled, else from its first
/// wait (the fast prefix that misses is ~0.1 µs against waits of µs to
/// ms). Each label set's scaled sum is unbiased on its own and together
/// they estimate the whole. A sample alone cannot: under backpressure one
/// admission in K per shard carries nearly all the wait (the one a credit
/// return releases), and a 1-in-64 sample of a run's few dozen such
/// admissions catches none or two of them.
struct Admission<'a> {
    gate: &'a GateCore,
    start: Option<Instant>,
    waited_since: Option<Instant>,
}

impl Admission<'_> {
    /// Called before every producer wait.
    fn waits(&mut self) {
        if self.waited_since.is_none() {
            self.waited_since = self.gate.admit_waited.stamp();
        }
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        match self.waited_since {
            Some(w) => self.gate.admit_waited.since(Some(self.start.unwrap_or(w))),
            None => self.gate.admit.since(self.start),
        }
    }
}

/// The shared state behind every [`IngestGate`] handle and every shard
/// consumer.
pub(crate) struct GateCore {
    /// The lock-free global sequence stamper.
    stamper: AtomicU64,
    /// Per-shard bound on data events admitted and not yet applied — in
    /// the mailbox or in the batch the shard has in hand (runtime control
    /// messages are exempt so a full queue can never wedge a drain
    /// barrier).
    capacity: usize,
    queues: Vec<ShardQueue>,
    /// Gate-admission span histogram (the whole route: lock, stamp, push),
    /// counting every admission: `path="direct"` times a sample of those
    /// that never wait, `path="waited"` every one that does (see
    /// [`Admission`]).
    admit: Histogram,
    admit_waited: Histogram,
    /// Mailbox-dwell histogram: enqueue → picked from its batch for
    /// apply, observed by the consumer outside the mailbox lock. Only a
    /// sampled data event reads the clock at enqueue (under the mailbox
    /// lock, where its seq is drawn); every message is counted.
    dwell: Histogram,
    /// `crowd4u_mailbox_batches_total{shard="i"}`: batch takes that
    /// returned messages. Dwell count ÷ batches is the mean batch size —
    /// ≈ 1 on a starved shard, ≈ K on a saturated one.
    batches: Vec<Counter>,
    /// Per-shard applied-history slots: the replay source for recovery,
    /// and where `finish()` collects the merged journal.
    ledger: ShardLedger,
    /// Routing-table overrides installed by migrations. `owner_of`
    /// consults this only while `overridden != 0` — the common
    /// no-migration case stays a pure function of the id.
    overrides: Mutex<BTreeMap<u64, usize>>,
    /// Number of projects with a routing override (fast-path guard).
    overridden: AtomicUsize,
    /// Projects currently quiesced by an in-flight migration. While any
    /// hold is active, broadcasts are held too — they interleave with
    /// every shard's slice.
    holds: Mutex<BTreeSet<u64>>,
    /// Number of active migration holds (fast-path guard, checked inside
    /// mailbox critical sections so admission cannot race a hold).
    holding: AtomicUsize,
    /// Signalled when a migration hold is released.
    released: Condvar,
}

impl GateCore {
    pub(crate) fn new(shards: usize, capacity: usize, telemetry: &TelemetryHandle) -> GateCore {
        GateCore {
            stamper: AtomicU64::new(0),
            admit: telemetry.histogram_with(stage::GATE_ADMIT, "path=\"direct\""),
            admit_waited: telemetry.histogram_with(stage::GATE_ADMIT, "path=\"waited\""),
            dwell: telemetry.histogram(stage::MAILBOX_DWELL),
            batches: (0..shards.max(1))
                .map(|i| {
                    telemetry
                        .counter_with("crowd4u_mailbox_batches_total", &format!("shard=\"{i}\""))
                })
                .collect(),
            ledger: ShardLedger::new(shards),
            overrides: Mutex::new(BTreeMap::new()),
            overridden: AtomicUsize::new(0),
            holds: Mutex::new(BTreeSet::new()),
            holding: AtomicUsize::new(0),
            released: Condvar::new(),
            // `0` means unbounded (backpressure disabled).
            capacity: if capacity == 0 { usize::MAX } else { capacity },
            queues: (0..shards.max(1))
                .map(|_| ShardQueue {
                    state: Mutex::new(QueueState {
                        // Pre-size bounded mailboxes (within reason) so the
                        // hot submit path never pays a reallocation.
                        queue: if capacity == 0 {
                            VecDeque::new()
                        } else {
                            VecDeque::with_capacity(capacity.min(8192))
                        },
                        data_len: 0,
                        closed: false,
                        dead: false,
                        recovering: false,
                        consumer_waiting: false,
                        producers_waiting: 0,
                    }),
                    not_full: Condvar::new(),
                    not_empty: Condvar::new(),
                })
                .collect(),
        }
    }

    /// The per-shard applied-history ledger.
    pub(crate) fn ledger(&self) -> &ShardLedger {
        &self.ledger
    }

    pub(crate) fn shards(&self) -> usize {
        self.queues.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard owning a project: a routing-table override when a
    /// migration installed one, else round-robin over registration order
    /// (raw/unregistered ids land on the coordinator). The override map
    /// is consulted only while at least one override exists, so the
    /// no-migration fast path stays a pure function of the id.
    pub(crate) fn owner_of(&self, project: ProjectId) -> usize {
        if self.overridden.load(Ordering::Acquire) != 0 {
            if let Some(&shard) = lock_plain(&self.overrides).get(&project.0) {
                return shard;
            }
        }
        if project.0 == 0 {
            0
        } else {
            ((project.0 - 1) % self.queues.len() as u64) as usize
        }
    }

    /// Flip a project's ownership in the routing table (migration
    /// commit). Callers must have the project's traffic held — the flip
    /// itself is atomic but not fenced against in-flight routing.
    pub(crate) fn set_owner(&self, project: ProjectId, shard: usize) {
        assert!(shard < self.queues.len(), "owner shard out of range");
        let mut map = lock_plain(&self.overrides);
        let fresh = map.insert(project.0, shard).is_none();
        if fresh {
            self.overridden.fetch_add(1, Ordering::Release);
        }
    }

    /// Are any routing overrides installed? (Recovery uses this to skip
    /// the cross-slot scan for migrated-in projects.)
    pub(crate) fn has_overrides(&self) -> bool {
        self.overridden.load(Ordering::Acquire) != 0
    }

    /// Quiesce one project's admission (plus broadcasts) for a
    /// migration. After this returns, no new event that
    /// could touch the project's slice can enter any mailbox until
    /// [`release_migration`](GateCore::release_migration).
    pub(crate) fn hold_for_migration(&self, project: ProjectId) {
        {
            let mut holds = lock_plain(&self.holds);
            assert!(
                holds.insert(project.0),
                "project {project} is already migrating"
            );
            self.holding.fetch_add(1, Ordering::Release);
        }
        // Fence: every producer checks the hold *inside* a mailbox
        // critical section, so taking each queue lock once guarantees
        // any submission that raced past the flag has fully enqueued —
        // and is therefore covered by the migration's source flush —
        // while everything after this loop observes the hold.
        for q in &self.queues {
            drop(lock(q));
        }
    }

    /// Release a migration hold and wake every producer waiting on it.
    pub(crate) fn release_migration(&self, project: ProjectId) {
        let mut holds = lock_plain(&self.holds);
        if holds.remove(&project.0) {
            self.holding.fetch_sub(1, Ordering::Release);
        }
        drop(holds);
        self.released.notify_all();
    }

    /// The held project that stops an event of `scope`, if any: a project
    /// event waits for its own project only; a broadcast, which
    /// interleaves with every slice, for any. Only meaningful inside
    /// a destination's critical section (see [`hold_for_migration`]'s
    /// fence).
    fn hold_on(&self, scope: EventScope) -> Option<ProjectId> {
        if self.holding.load(Ordering::Acquire) == 0 {
            return None;
        }
        let holds = lock_plain(&self.holds);
        match scope {
            EventScope::Project(p) => holds.contains(&p.0).then_some(p),
            EventScope::Global => holds.first().copied().map(ProjectId),
        }
    }

    /// Mark one shard as recovering: its mailbox holds new data events
    /// (blocking submits park, `try_submit` gets
    /// [`GateError::Recovering`]) while everything already queued stays
    /// put, awaiting the rebuilt consumer.
    pub(crate) fn begin_recovery(&self, shard: usize) {
        lock(&self.queues[shard]).recovering = true;
    }

    /// Recovery finished: release held producers; the respawned consumer
    /// resumes popping the intact mailbox.
    pub(crate) fn end_recovery(&self, shard: usize) {
        let q = &self.queues[shard];
        lock(q).recovering = false;
        q.not_full.notify_all();
        q.not_empty.notify_all();
    }

    /// Data events admitted for a shard and not yet given back by its
    /// consumer: the mailbox plus the batch in hand (diagnostics; racy by
    /// nature).
    pub(crate) fn queued(&self, shard: usize) -> usize {
        lock(&self.queues[shard]).data_len
    }

    /// Admit one event (see the module docs' *Admission*): resolve its
    /// destination, check the ladder under the destination locks, then
    /// stamp and push — or refuse, handing the event back (`wait` false)
    /// or waiting the refusal out and resolving again (`wait` true).
    fn admit(&self, event: PlatformEvent, wait: bool) -> Result<u64, GateError> {
        // Keyed by the seq the stamper is about to issue. A concurrent
        // producer may draw it first, which moves the sample, not the count.
        let key = self.stamper.load(Ordering::Relaxed);
        let admit = &mut Admission {
            gate: self,
            start: self.admit.stamp_for(key),
            waited_since: None,
        };
        let scope = event.scope();
        // A registration's profile moves into the `Arc` every shard will
        // hold before any lock is taken, so the mailbox locks the shards'
        // batch takes contend on are not held across the allocation.
        let data = DataEvent::new(event);
        loop {
            // Every lock this pass takes is dropped at the end of this
            // block, before any wait.
            let refused = {
                // The destinations: a run of shards, locked in ascending
                // order, whose first is the recorder.
                let (first, len) = match scope {
                    EventScope::Project(p) => (self.owner_of(p), 1),
                    EventScope::Global => (0, self.queues.len()),
                };
                let queues = &self.queues[first..first + len];
                // One destination locks into an array, not a `Vec`: the
                // common admission allocates nothing.
                let (mut one, mut all);
                let guards: &mut [MutexGuard<'_, QueueState>] = match queues {
                    [q] => {
                        one = [lock(q)];
                        &mut one
                    }
                    _ => {
                        all = queues.iter().map(lock).collect::<Vec<_>>();
                        &mut all
                    }
                };
                if guards[0].dead {
                    Refusal::ShardDown(first)
                } else if guards.iter().any(|g| g.closed && !g.dead) {
                    Refusal::Closed
                } else if let Some(project) = self.hold_on(scope) {
                    Refusal::Migrating(project)
                } else if let Some(i) = guards.iter().position(|g| g.recovering) {
                    Refusal::Recovering(first + i)
                } else if let Some(i) = guards
                    .iter()
                    .position(|g| !g.dead && g.data_len >= self.capacity)
                {
                    Refusal::Full(first + i)
                } else {
                    // Admitted. Stamp and push with every destination lock
                    // held, so each mailbox stays in sequence order.
                    let seq = self.stamper.fetch_add(1, Ordering::Relaxed);
                    let at = self.dwell.stamp_for(seq);
                    for (i, g) in guards.iter_mut().enumerate().skip(1) {
                        if !g.dead {
                            g.push_data(data.clone().message(seq, false), at);
                            g.notify_consumer(&queues[i]);
                        }
                    }
                    guards[0].push_data(data.message(seq, true), at);
                    guards[0].notify_consumer(&queues[0]);
                    return Ok(seq);
                }
            };
            if !wait || !self.wait_out(refused, admit) {
                return Err(refused.hand_back(data.into_event()));
            }
        }
    }

    /// The one wait of a blocking admission, with every destination lock
    /// dropped: until no migration hold is active, or until the refusing
    /// shard has room and is not recovering (or closes). `false` when the
    /// refusal is final — closed, or the recorder dead.
    fn wait_out(&self, refused: Refusal, admit: &mut Admission<'_>) -> bool {
        let shard = match refused {
            Refusal::Closed | Refusal::ShardDown(_) => return false,
            Refusal::Migrating(_) => None,
            Refusal::Full(shard) | Refusal::Recovering(shard) => Some(shard),
        };
        admit.waits();
        let Some(shard) = shard else {
            let mut holds = lock_plain(&self.holds);
            while self.holding.load(Ordering::Acquire) != 0 {
                holds = self
                    .released
                    .wait(holds)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            return true;
        };
        let q = &self.queues[shard];
        let mut s = lock(q);
        while !s.closed && (s.recovering || s.data_len >= self.capacity) {
            s.producers_waiting += 1;
            s = q.not_full.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.producers_waiting -= 1;
        }
        true
    }

    /// Enqueue a job on one mailbox, capacity-exempt. Returns `false` if
    /// the gate is closed.
    pub(crate) fn push_job(&self, shard: usize, run: Job) -> bool {
        let q = &self.queues[shard];
        let mut s = lock(q);
        if s.closed {
            return false;
        }
        s.queue.push_back((ToShard::Job(run), None));
        s.notify_consumer(q);
        true
    }

    /// A stamped barrier: under every shard lock, take one sequence number
    /// and enqueue `mk(shard, seq)` on every mailbox (capacity-exempt, so
    /// a full mailbox can never wedge the barrier that would drain it).
    /// Returns `None` if the gate is closed.
    pub(crate) fn stamped_barrier(&self, mk: impl Fn(usize, u64) -> ToShard) -> Option<u64> {
        let mut guards: Vec<MutexGuard<'_, QueueState>> = self.queues.iter().map(lock).collect();
        if guards.iter().any(|g| g.closed) {
            return None;
        }
        let seq = self.stamper.fetch_add(1, Ordering::Relaxed);
        for (i, g) in guards.iter_mut().enumerate() {
            g.queue.push_back((mk(i, seq), None));
            g.notify_consumer(&self.queues[i]);
        }
        Some(seq)
    }

    /// Close every mailbox, enqueueing the job `mk(shard)` as each one's
    /// final message (atomically with the close, so no later submission
    /// can slip in behind it — so the close-time job is always the last
    /// message of a shard's last batch, and the shard returns after it
    /// with nothing left in hand). Queued messages are still delivered;
    /// new submissions fail with [`GateError::Closed`].
    pub(crate) fn close_each(&self, mut mk: impl FnMut(usize) -> Job) {
        for (i, q) in self.queues.iter().enumerate() {
            let mut s = lock(q);
            if !s.closed {
                s.queue.push_back((ToShard::Job(mk(i)), None));
                s.closed = true;
            }
            q.not_empty.notify_all();
            q.not_full.notify_all();
        }
    }

    /// Consumer-death guard (see `shard_main`): close one mailbox and drop
    /// everything still queued. Producers blocked on the full mailbox wake
    /// to [`GateError::ShardDown`] — scoped to this shard, so traffic for
    /// healthy shards keeps flowing — and reply `Sender`s queued for the
    /// dead shard are dropped so their `Receiver`s fail fast instead of
    /// waiting on a reply that can never come (those already in the dead
    /// consumer's batch went with it as the panic unwound its
    /// supervisor). On a normal shard exit the mailbox is already closed
    /// and drained, so this is a no-op (in particular it does *not* mark
    /// an orderly-shutdown shard dead).
    pub(crate) fn abandon(&self, shard: usize) {
        let q = &self.queues[shard];
        let mut s = lock(q);
        if !s.closed {
            s.dead = true;
        }
        s.closed = true;
        s.recovering = false;
        s.queue.clear();
        s.data_len = 0;
        drop(s);
        q.not_empty.notify_all();
        q.not_full.notify_all();
    }

    /// Close every mailbox without a final message (shutdown path).
    pub(crate) fn close(&self) {
        for q in &self.queues {
            let mut s = lock(q);
            s.closed = true;
            q.not_empty.notify_all();
            q.not_full.notify_all();
        }
    }

    /// Consumer side: under **one** mailbox lock, give back the previous
    /// batch's `credit` (its data events' share of the capacity bound —
    /// one producer wake-up, if any producer waits), then move the next
    /// up-to-[`batch_limit`] messages for `shard`, in order, into the
    /// empty `batch` and set `credit` to the data events among them.
    /// Waits while the mailbox is empty; `false` once the gate is closed
    /// and the mailbox drained. `batch` and `credit` belong to the shard's
    /// supervisor, so they outlive the incarnation that took them.
    pub(crate) fn recv_batch(&self, shard: usize, batch: &mut Batch, credit: &mut usize) -> bool {
        debug_assert!(batch.is_empty(), "a batch is applied whole before the next");
        let q = &self.queues[shard];
        let mut s = lock(q);
        if *credit > 0 {
            s.data_len -= std::mem::take(credit);
            if s.producers_waiting > 0 {
                q.not_full.notify_all();
            }
        }
        while s.queue.is_empty() {
            if s.closed {
                return false;
            }
            s.consumer_waiting = true;
            s = q.not_empty.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.consumer_waiting = false;
        }
        let take = s.queue.len().min(batch_limit(self.capacity));
        batch.extend(s.queue.drain(..take));
        drop(s);
        *credit = batch
            .iter()
            .filter(|(msg, _)| matches!(msg, ToShard::Apply { .. } | ToShard::Install { .. }))
            .count();
        self.batches[shard].incr();
        true
    }

    /// Close a message's mailbox-dwell measurement: the shard calls this
    /// as it picks the message from its batch, outside the mailbox lock.
    /// A `None` stamp — an unsampled event, or a control message, which is
    /// never timed — is counted only.
    pub(crate) fn observe_dwell(&self, enqueued: Option<Instant>) {
        self.dwell.since(enqueued);
    }
}

/// A cloneable, thread-safe submission handle onto a
/// [`ShardedRuntime`](crate::router::ShardedRuntime)'s shard mailboxes.
///
/// Clone one per client thread; every handle shares the same global
/// sequence stamper and mailboxes. See the [module docs](self) for the
/// ordering and backpressure guarantees, and the crate docs for a runnable
/// multi-submitter example.
#[derive(Clone)]
pub struct IngestGate {
    core: Arc<GateCore>,
}

impl IngestGate {
    pub(crate) fn new(core: Arc<GateCore>) -> IngestGate {
        IngestGate { core }
    }

    pub(crate) fn core(&self) -> &Arc<GateCore> {
        &self.core
    }

    /// Submit one event, **blocking** while a destination mailbox is full
    /// (the backpressure default), a destination shard recovers, or a
    /// migration holds the event's scope. Returns the event's global
    /// sequence number, or hands the event back in [`GateError::Closed`]
    /// if the runtime has shut down, or in [`GateError::ShardDown`] if the
    /// shard that would record it died with recovery disabled.
    pub fn submit(&self, event: PlatformEvent) -> Result<u64, GateError> {
        self.core.admit(event, true)
    }

    /// Submit one event, **failing fast** when the destination mailbox is
    /// full: returns [`GateError::Full`] carrying the shard index and the
    /// event itself, so the caller decides — retry, shed load, or fall
    /// back to the blocking [`submit`](Self::submit). Broadcast events are
    /// admitted all-or-nothing: on `Full`, no shard received anything.
    pub fn try_submit(&self, event: PlatformEvent) -> Result<u64, GateError> {
        self.core.admit(event, false)
    }

    /// Submit a batch in order (blocking policy). Sequence numbers of a
    /// batch are *not* guaranteed contiguous when other handles submit
    /// concurrently. Stops at the first error (runtime shut down).
    pub fn submit_batch(
        &self,
        events: impl IntoIterator<Item = PlatformEvent>,
    ) -> Result<(), GateError> {
        for e in events {
            self.submit(e)?;
        }
        Ok(())
    }

    /// Number of shards behind this gate.
    pub fn shards(&self) -> usize {
        self.core.shards()
    }

    /// Per-shard bound on data events admitted and not yet applied — in
    /// the mailbox or in the batch the shard has in hand (`usize::MAX`
    /// when unbounded).
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// The shard owning a project (round-robin by id, like the runtime).
    pub fn owner_of(&self, project: ProjectId) -> usize {
        self.core.owner_of(project)
    }

    /// Data events admitted for one shard and not yet applied: those in
    /// its mailbox plus the batch its consumer has in hand, which keeps
    /// its slots until the consumer returns for the next one — so this
    /// never exceeds [`capacity`](Self::capacity), and reads 0 on an idle
    /// shard. A racy diagnostic — useful for load shedding and tests, not
    /// for synchronisation.
    pub fn queued(&self, shard: usize) -> usize {
        self.core.queued(shard)
    }
}

impl std::fmt::Debug for IngestGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestGate")
            .field("shards", &self.shards())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_core::error::WorkerId;
    use crowd4u_crowd::profile::WorkerProfile;
    use std::sync::Arc;

    const _: () = {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IngestGate>();
    };

    fn gate(shards: usize, capacity: usize) -> (IngestGate, Arc<GateCore>) {
        let core = Arc::new(GateCore::new(
            shards,
            capacity,
            &TelemetryHandle::disabled(),
        ));
        (IngestGate::new(Arc::clone(&core)), core)
    }

    fn seed(p: u64, s: &str) -> PlatformEvent {
        PlatformEvent::FactSeeded {
            project: ProjectId(p),
            pred: "item".into(),
            values: vec![s.into()],
        }
    }

    fn worker(i: u64) -> PlatformEvent {
        PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
        }
    }

    fn clock(t: u64) -> PlatformEvent {
        PlatformEvent::ClockAdvanced {
            to: crowd4u_sim::time::SimTime(t),
            owner: 0,
        }
    }

    /// A shard's consuming end, as its supervisor holds it: the batch in
    /// hand and the credit its data events have not given back yet.
    #[derive(Default)]
    struct Consumer {
        batch: Batch,
        credit: usize,
    }

    impl Consumer {
        /// Done with the batch in hand: return for the next one, as the
        /// shard loop does. `false` once the mailbox is closed and empty.
        fn next_batch(&mut self, core: &GateCore, shard: usize) -> bool {
            self.batch.clear();
            core.recv_batch(shard, &mut self.batch, &mut self.credit)
        }
    }

    /// Drain a mailbox after closing; returns (seq, record) of its data
    /// messages (`Apply` and `Install`) in queue order.
    fn drain_data(core: &GateCore, shard: usize) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        let mut consumer = Consumer::default();
        while consumer.next_batch(core, shard) {
            for (msg, _) in &consumer.batch {
                if let ToShard::Apply { seq, record, .. } | ToShard::Install { seq, record, .. } =
                    msg
                {
                    out.push((*seq, *record));
                }
            }
        }
        out
    }

    #[test]
    fn mailbox_order_is_seq_order_under_contention() {
        let (gate, core) = gate(2, 0);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let g = gate.clone();
            handles.push(std::thread::spawn(move || {
                let mut seqs = Vec::new();
                for i in 0..200u64 {
                    // Both shards, plus occasional worker registrations
                    // and clock broadcasts.
                    let ev = if i % 50 == 49 {
                        worker(t * 1000 + i)
                    } else if i % 50 == 24 {
                        clock(t * 1000 + i)
                    } else {
                        seed(1 + (i % 2), "x")
                    };
                    seqs.push(g.submit(ev).unwrap());
                }
                seqs
            }));
        }
        let mut all_seqs: Vec<u64> = Vec::new();
        for h in handles {
            all_seqs.extend(h.join().unwrap());
        }
        core.close();
        // Every seq unique; per-mailbox order strictly increasing; every
        // event has exactly one recorder (broadcast replicas on shard > 0
        // are unrecorded), registrations included.
        all_seqs.sort_unstable();
        all_seqs.dedup();
        assert_eq!(all_seqs.len(), 800);
        let mut recorded = 0usize;
        for shard in 0..2 {
            let data = drain_data(&core, shard);
            assert!(
                data.windows(2).all(|w| w[0].0 < w[1].0),
                "shard {shard} mailbox out of sequence order"
            );
            recorded += data.iter().filter(|(_, record)| *record).count();
        }
        assert_eq!(recorded, 800);
    }

    #[test]
    fn try_submit_fills_then_errors_and_hands_the_event_back() {
        let (gate, core) = gate(1, 8); // K = 2
        for i in 0..8 {
            gate.try_submit(seed(1, &format!("{i}"))).unwrap();
        }
        let err = gate.try_submit(seed(1, "overflow")).unwrap_err();
        match err {
            GateError::Full { shard, event } => {
                assert_eq!(shard, 0);
                assert_eq!(*event, seed(1, "overflow"));
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // A taken batch keeps its slots: the bound covers the mailbox and
        // the batch in hand, so nothing is admitted on top of it.
        let mut consumer = Consumer::default();
        assert!(consumer.next_batch(&core, 0));
        assert_eq!((consumer.batch.len(), consumer.credit), (2, 2));
        let err = gate.try_submit(seed(1, "still-full")).unwrap_err();
        assert!(matches!(err, GateError::Full { shard: 0, .. }));
        assert_eq!(gate.queued(0), 8);
        // Coming back for the next batch frees exactly the two it held.
        assert!(consumer.next_batch(&core, 0));
        assert_eq!(gate.queued(0), 6);
        gate.try_submit(seed(1, "fits")).unwrap();
        gate.try_submit(seed(1, "fits-too")).unwrap();
        let err = gate.try_submit(seed(1, "overflow-again")).unwrap_err();
        assert!(matches!(err, GateError::Full { shard: 0, .. }));
        assert_eq!(gate.queued(0), 8);
    }

    #[test]
    fn a_batch_is_a_quarter_of_the_capacity_between_1_and_64() {
        // (capacity, K); capacity 0 is the unbounded mailbox.
        for (capacity, k) in [(1, 1), (2, 1), (3, 1), (8, 2), (1024, 64), (0, 64)] {
            let (gate, core) = gate(1, capacity);
            let submitted = if capacity == 0 { 100 } else { capacity };
            for i in 0..submitted {
                gate.try_submit(seed(1, &format!("{i}"))).unwrap();
            }
            let mut consumer = Consumer::default();
            assert!(consumer.next_batch(&core, 0));
            assert_eq!(consumer.batch.len(), k, "capacity {capacity}");
            assert_eq!(consumer.credit, k, "capacity {capacity}");
        }
    }

    #[test]
    fn control_messages_ride_in_a_batch_without_holding_credit() {
        let (gate, core) = gate(1, 16); // K = 4
        gate.submit(seed(1, "a")).unwrap();
        assert!(core.push_job(0, Box::new(|_| ())));
        gate.submit(seed(1, "b")).unwrap();
        let mut consumer = Consumer::default();
        assert!(consumer.next_batch(&core, 0));
        // Mailbox order, the job between the two events; only the two
        // data events count against the bound.
        assert_eq!(consumer.batch.len(), 3);
        assert!(matches!(consumer.batch[1].0, ToShard::Job { .. }));
        assert_eq!(consumer.credit, 2);
        assert_eq!(gate.queued(0), 2);
    }

    #[test]
    fn broadcast_admission_is_all_or_nothing() {
        let (gate, core) = gate(2, 2);
        // Fill shard 1 only.
        gate.submit(seed(2, "a")).unwrap();
        gate.submit(seed(2, "b")).unwrap();
        assert_eq!(gate.queued(0), 0);
        let err = gate.try_submit(clock(7)).unwrap_err();
        assert!(matches!(err, GateError::Full { shard: 1, .. }));
        // Nothing leaked into shard 0's mailbox.
        assert_eq!(gate.queued(0), 0);
        // Free a slot on shard 1 (K = 1: its consumer takes one event and
        // comes back for the next); the broadcast now lands on both.
        let mut consumer = Consumer::default();
        assert!(consumer.next_batch(&core, 1));
        assert!(consumer.next_batch(&core, 1));
        gate.try_submit(clock(7)).unwrap();
        assert_eq!(gate.queued(0), 1);
        assert_eq!(gate.queued(1), 2);
    }

    #[test]
    fn worker_events_reach_every_shard() {
        let (gate, core) = gate(3, 0);
        let seqs = [
            gate.submit(worker(1)).unwrap(),
            gate.submit(worker(2)).unwrap(),
        ];
        for shard in 0..3 {
            assert_eq!(gate.queued(shard), 2, "shard {shard}");
        }
        core.close();
        // Every shard gets an install of each registration at the same
        // seq, recorded on the coordinator only — and all of them the one
        // profile allocation.
        let mut profiles: Vec<Vec<Arc<WorkerProfile>>> = Vec::new();
        for shard in 0..3 {
            let mut consumer = Consumer::default();
            let mut got = Vec::new();
            let mut held = Vec::new();
            while consumer.next_batch(&core, shard) {
                for (msg, _) in &consumer.batch {
                    let ToShard::Install {
                        seq,
                        profile,
                        record,
                    } = msg
                    else {
                        panic!("shard {shard}: unexpected message");
                    };
                    assert_eq!(*record, shard == 0, "shard {shard}: the recorder only");
                    assert_eq!(profile.id.0, *seq + 1);
                    got.push(*seq);
                    held.push(Arc::clone(profile));
                }
            }
            assert_eq!(got, seqs, "shard {shard}");
            profiles.push(held);
        }
        for (i, profile) in profiles[0].iter().enumerate() {
            assert!(profiles.iter().all(|held| Arc::ptr_eq(&held[i], profile)));
        }
    }

    #[test]
    fn a_refused_registration_is_handed_back_whole() {
        let registration = PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(4), "dee").with_skill("t", 0.5),
        };
        let (full, _core) = gate(1, 1);
        full.try_submit(seed(1, "fill")).unwrap();
        let err = full.try_submit(registration.clone()).unwrap_err();
        assert!(matches!(err, GateError::Full { shard: 0, .. }));
        assert_eq!(err.into_event(), registration);
        // Admitted on one shard, the recorder takes an install as well.
        let (open, core) = gate(1, 0);
        open.submit(registration).unwrap();
        core.close();
        assert_eq!(drain_data(&core, 0), [(0, true)]);
    }

    #[test]
    fn worker_backpressure_reports_the_full_replica() {
        let (gate, _core) = gate(2, 1);
        // Project 2 is owned by shard 1: its event fills the replica only.
        gate.try_submit(seed(2, "fill")).unwrap();
        let err = gate.try_submit(worker(1)).unwrap_err();
        assert!(matches!(err, GateError::Full { shard: 1, .. }));
        assert_eq!(gate.queued(0), 0, "nothing leaked to the coordinator");
    }

    #[test]
    fn blocking_submit_waits_for_room_then_completes() {
        let (gate, core) = gate(1, 1);
        gate.submit(seed(1, "first")).unwrap();
        let g = gate.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let seq = g.submit(seed(1, "second")).unwrap();
            done_tx.send(seq).unwrap();
        });
        // The submitter must still be blocked on the full mailbox — and
        // stays blocked while the consumer has the event in hand.
        let mut consumer = Consumer::default();
        assert!(consumer.next_batch(&core, 0));
        assert!(done_rx
            .recv_timeout(std::time::Duration::from_millis(100))
            .is_err());
        // The consumer's return gives the slot back; it then waits for
        // the event the released submitter pushes.
        assert!(consumer.next_batch(&core, 0));
        let seq = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("blocked submit must complete once room appears");
        assert_eq!(seq, 1);
        assert_eq!(gate.queued(0), 1);
    }

    #[test]
    fn an_admission_that_waits_is_timed_in_its_own_label_set() {
        let registry = crowd4u_telemetry::Registry::new();
        let core = Arc::new(GateCore::new(1, 1, &registry.handle()));
        let gate = IngestGate::new(Arc::clone(&core));
        gate.submit(seed(1, "first")).unwrap();
        let g = gate.clone();
        let blocked = std::thread::spawn(move || g.submit(seed(1, "second")).unwrap());
        // Release the producer only once it is parked on the full mailbox.
        while lock(&core.queues[0]).producers_waiting == 0 {
            std::thread::yield_now();
        }
        let mut consumer = Consumer::default();
        assert!(consumer.next_batch(&core, 0));
        assert!(consumer.next_batch(&core, 0));
        blocked.join().unwrap();
        let snap = registry.snapshot();
        let admit = |path: &str| {
            let key = (stage::GATE_ADMIT.to_string(), format!("path=\"{path}\""));
            let h = &snap.histograms[&key];
            (h.count, h.sampled, h.sum > 0)
        };
        // Seq 0 is in the sample, seq 1 is not: the direct admission is
        // timed, and so is the waiting one — every time, whatever its key.
        assert_eq!(admit("direct"), (1, 1, true));
        assert_eq!(admit("waited"), (1, 1, true));
        assert_eq!(snap.histogram_count(stage::GATE_ADMIT), 2);
    }

    #[test]
    fn abandoned_mailbox_wakes_blocked_producers_with_shard_down() {
        let (gate, core) = gate(1, 1);
        gate.submit(seed(1, "fill")).unwrap();
        let g = gate.clone();
        let blocked = std::thread::spawn(move || g.submit(seed(1, "blocked")));
        // Let the producer park on the full mailbox (benign race: if the
        // abandon lands first, submit sees `dead` and errors directly).
        std::thread::sleep(std::time::Duration::from_millis(50));
        core.abandon(0);
        let err = blocked.join().unwrap().unwrap_err();
        assert!(
            matches!(err, GateError::ShardDown { shard: 0, .. }),
            "abandoning a live mailbox scopes the error to the dead shard, got {err:?}"
        );
        // The queued event was dropped with the mailbox.
        assert!(!Consumer::default().next_batch(&core, 0));
    }

    #[test]
    fn routing_overrides_redirect_owner_of() {
        let (gate, core) = gate(4, 0);
        assert_eq!(gate.owner_of(ProjectId(5)), 0); // (5-1) % 4
        core.set_owner(ProjectId(5), 3);
        assert_eq!(gate.owner_of(ProjectId(5)), 3);
        // Other projects keep the round-robin mapping.
        assert_eq!(gate.owner_of(ProjectId(6)), 1);
        gate.submit(seed(5, "migrated")).unwrap();
        assert_eq!(gate.queued(3), 1);
        assert_eq!(gate.queued(0), 0);
    }

    #[test]
    fn migration_hold_parks_held_project_and_broadcasts_only() {
        let (gate, core) = gate(2, 0);
        core.hold_for_migration(ProjectId(1));
        // try_submit on the held project (owner shard 0) and on broadcasts
        // reports Migrating; an unrelated project keeps flowing.
        let err = gate.try_submit(seed(1, "held")).unwrap_err();
        assert!(matches!(
            err,
            GateError::Migrating {
                project: ProjectId(1),
                ..
            }
        ));
        let err = gate.try_submit(clock(9)).unwrap_err();
        assert!(matches!(err, GateError::Migrating { .. }));
        let err = gate.try_submit(worker(7)).unwrap_err();
        assert!(matches!(err, GateError::Migrating { .. }));
        gate.try_submit(seed(2, "flows")).unwrap();
        // A blocking submit parks until the release, then lands on the
        // *new* owner installed while it waited.
        let g = gate.clone();
        let parked = std::thread::spawn(move || g.submit(seed(1, "after")));
        std::thread::sleep(std::time::Duration::from_millis(50));
        core.set_owner(ProjectId(1), 1);
        core.release_migration(ProjectId(1));
        parked.join().unwrap().unwrap();
        assert_eq!(gate.queued(1), 2); // "flows" + re-routed "after"
    }

    /// A mailbox state one admission is tried against, on a two-shard gate
    /// of capacity 2 where project 2 is owned by shard 1 and project 1 by
    /// shard 0.
    #[derive(Clone, Copy, Debug)]
    enum State {
        Open,
        Shard1Full,
        Shard1Recovering,
        ThisProjectHeld,
        OtherProjectHeld,
        Shard1Dead,
        Shard0Dead,
        Closed,
    }

    /// What an admission returned, without the event.
    #[derive(Debug, PartialEq, Eq)]
    enum Outcome {
        Ok,
        Closed,
        Full(usize),
        ShardDown(usize),
        Recovering(usize),
        Migrating(u64),
    }

    fn outcome(result: &Result<u64, GateError>) -> Outcome {
        match result {
            Ok(_) => Outcome::Ok,
            Err(GateError::Closed(_)) => Outcome::Closed,
            Err(GateError::Full { shard, .. }) => Outcome::Full(*shard),
            Err(GateError::ShardDown { shard, .. }) => Outcome::ShardDown(*shard),
            Err(GateError::Recovering { shard, .. }) => Outcome::Recovering(*shard),
            Err(GateError::Migrating { project, .. }) => Outcome::Migrating(project.0),
        }
    }

    fn enter(state: State, gate: &IngestGate, core: &GateCore) {
        match state {
            State::Open => {}
            State::Shard1Full => {
                gate.try_submit(seed(2, "a")).unwrap();
                gate.try_submit(seed(2, "b")).unwrap();
            }
            State::Shard1Recovering => core.begin_recovery(1),
            State::ThisProjectHeld => core.hold_for_migration(ProjectId(2)),
            State::OtherProjectHeld => core.hold_for_migration(ProjectId(1)),
            State::Shard1Dead => core.abandon(1),
            State::Shard0Dead => core.abandon(0),
            State::Closed => core.close(),
        }
    }

    /// Lift a waiting state: shard 1's consumer takes a batch and returns
    /// its credit, its recovery ends, or the hold is released.
    fn clear(state: State, core: &GateCore, consumer: &mut Consumer) {
        match state {
            State::Shard1Full => {
                assert!(consumer.next_batch(core, 1));
                assert!(consumer.next_batch(core, 1));
            }
            State::Shard1Recovering => core.end_recovery(1),
            State::ThisProjectHeld => core.release_migration(ProjectId(2)),
            State::OtherProjectHeld => core.release_migration(ProjectId(1)),
            other => panic!("{other:?} is not a state a submitter waits out"),
        }
    }

    #[test]
    fn admission_ladder_per_scope_and_mailbox_state() {
        use Outcome::*;
        // Per state: a project event for shard 1, a worker event, a
        // broadcast.
        let table = [
            (State::Open, [Ok, Ok, Ok]),
            (State::Shard1Full, [Full(1), Full(1), Full(1)]),
            (
                State::Shard1Recovering,
                [Recovering(1), Recovering(1), Recovering(1)],
            ),
            (
                State::ThisProjectHeld,
                [Migrating(2), Migrating(2), Migrating(2)],
            ),
            (State::OtherProjectHeld, [Ok, Migrating(1), Migrating(1)]),
            (State::Shard1Dead, [ShardDown(1), Ok, Ok]),
            (State::Shard0Dead, [Ok, ShardDown(0), ShardDown(0)]),
            (State::Closed, [Closed, Closed, Closed]),
        ];
        let scopes = [seed(2, "p"), worker(1), clock(1)];
        for (state, expected) in table {
            for (event, want) in scopes.iter().zip(expected) {
                let (gate, core) = gate(2, 2);
                enter(state, &gate, &core);
                let result = gate.try_submit(event.clone());
                assert_eq!(outcome(&result), want, "{state:?}, {event:?}");
                let Err(err) = result else { continue };
                if !matches!(want, Full(_) | Recovering(_) | Migrating(_)) {
                    assert_eq!(err.into_event(), *event, "{state:?}: event handed back");
                    continue;
                }
                // A blocking submit of the same event waits the state out.
                let g = gate.clone();
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    done_tx.send(outcome(&g.submit(err.into_event()))).unwrap();
                });
                assert!(
                    done_rx
                        .recv_timeout(std::time::Duration::from_millis(20))
                        .is_err(),
                    "{state:?}, {event:?}: admitted before the state cleared"
                );
                clear(state, &core, &mut Consumer::default());
                let done = done_rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("{state:?}, {event:?}: still blocked"));
                assert_eq!(done, Ok, "{state:?}, {event:?}");
            }
        }
    }

    #[test]
    fn closed_gate_rejects_and_returns_the_event() {
        let (gate, core) = gate(2, 0);
        gate.submit(seed(1, "in")).unwrap();
        core.close();
        let err = gate.submit(seed(1, "late")).unwrap_err();
        assert!(matches!(err, GateError::Closed(_)));
        assert_eq!(err.into_event(), seed(1, "late"));
        let err = gate.submit(worker(9)).unwrap_err();
        assert!(matches!(err, GateError::Closed(_)));
        // Queued messages still drain, then the mailbox reports closed.
        assert_eq!(drain_data(&core, 0).len(), 1);
        assert!(!Consumer::default().next_batch(&core, 0));
    }
}
