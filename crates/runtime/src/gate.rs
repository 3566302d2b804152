//! The ingestion front door: many concurrent producers, one deterministic
//! event order.
//!
//! [`IngestGate`] is a cloneable handle that any number of client threads
//! can submit [`PlatformEvent`]s through simultaneously. It replaces the
//! single-submitter router bottleneck (the PR 3 `&mut self` API, where
//! every client had to funnel through one thread) with:
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
//! # Ordering guarantee (why the stamp happens inside the shard lock)
//!
//! The determinism contract (ARCHITECTURE.md) requires each shard to apply
//! its slice of the event stream **in global sequence order** — that is
//! what makes the merged journal byte-identical to a serial run. A naive
//! "stamp, then enqueue" scheme breaks it: producer A could take seq 5,
//! get preempted, and producer B could take seq 6 and enqueue to the same
//! shard first. The gate therefore acquires the destination mailbox lock
//! *first*, waits for room (waiting releases the lock, so it never blocks
//! the consumer), and only then stamps and pushes while still holding the
//! lock. Two consequences:
//!
//! * per mailbox, queue order == sequence order, always;
//! * sequence numbers may have gaps (a `try_submit` that found the queue
//!   full never stamps, but a producer that panics between operations
//!   cannot leave one — stamp and push are adjacent under the lock).
//!   Nothing in the runtime requires density: the merged journal sorts by
//!   sequence number, not by counting.
//!
//! Global-scope events (see [`EventScope`]) are fanned out to **every**
//! mailbox under **all** shard locks (acquired in ascending index order, so
//! two broadcasts cannot deadlock), which keeps the broadcast-lockstep rule
//! intact: every shard sees a broadcast at the same position relative to
//! its project-scoped events. Broadcast admission is all-or-nothing — with
//! every lock held, room is verified on every mailbox before any push, so
//! `try_submit` can never leave a partial broadcast behind.
//!
//! Worker-scoped events are **not** broadcast: they are delivered to the
//! coordinator's mailbox only and simultaneously appended to the
//! [`WorkerService`] delta log, with the
//! sequence number drawn inside the service's critical section (while the
//! mailbox lock is still held). Replicas pull seq-keyed deltas from the
//! service before applying any later-stamped message, reproducing the
//! broadcast's interleaving at O(1) submission cost per event instead of
//! O(shards) — see `crate::workers` for the ordering argument.
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
use crate::shard::{Job, ToShard};
use crate::workers::WorkerService;
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
    /// shards (and worker events, while the coordinator lives) keep
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
    /// broadcasts and worker events — they interleave with every
    /// slice). Retry shortly, or use the blocking
    /// [`IngestGate::submit`], which waits out the migration.
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
    /// Data events ([`ToShard::Apply`]) admitted and not yet given back by
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

/// Park a producer on `q`'s `not_full` — for room, or for the end of a
/// recovery — and hand the lock back once woken. The admission is timed
/// from here on (see [`Admission`]).
fn park<'q>(
    q: &'q ShardQueue,
    mut s: MutexGuard<'q, QueueState>,
    admit: &mut Admission<'_>,
) -> MutexGuard<'q, QueueState> {
    admit.waits();
    s.producers_waiting += 1;
    s = q.not_full.wait(s).unwrap_or_else(PoisonError::into_inner);
    s.producers_waiting -= 1;
    s
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
    /// The coordinator-owned worker registry side channel; worker events
    /// are appended here (instead of broadcast) and replicas pull them.
    service: Arc<WorkerService>,
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
    /// Per-shard applied-history slots: the replay source for recovery
    /// and migration, and where `finish()` collects the merged journal.
    ledger: ShardLedger,
    /// Routing-table overrides installed by migrations. `owner_of`
    /// consults this only while `overridden != 0` — the common
    /// no-migration case stays a pure function of the id.
    overrides: Mutex<BTreeMap<u64, usize>>,
    /// Number of projects with a routing override (fast-path guard).
    overridden: AtomicUsize,
    /// Projects currently quiesced by an in-flight migration. While any
    /// hold is active, broadcasts and worker events are held too — they
    /// interleave with every shard's slice.
    holds: Mutex<BTreeSet<u64>>,
    /// Number of active migration holds (fast-path guard, checked inside
    /// mailbox critical sections so admission cannot race a hold).
    holding: AtomicUsize,
    /// Signalled when a migration hold is released.
    released: Condvar,
}

impl GateCore {
    pub(crate) fn new(
        shards: usize,
        capacity: usize,
        service: Arc<WorkerService>,
        telemetry: &TelemetryHandle,
    ) -> GateCore {
        GateCore {
            stamper: AtomicU64::new(0),
            service,
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

    /// The worker service replicas sync from (shard consumers hold a
    /// clone; tests and benches introspect it).
    pub(crate) fn worker_service(&self) -> &Arc<WorkerService> {
        &self.service
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

    /// Quiesce one project's admission (plus broadcasts and worker
    /// events) for a migration. After this returns, no new event that
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
        for q in &self.queues {
            q.not_full.notify_all();
        }
    }

    /// Is `project` currently quiesced? Only meaningful inside a mailbox
    /// critical section (see [`hold_for_migration`]'s fence).
    fn project_held(&self, project: u64) -> bool {
        self.holding.load(Ordering::Acquire) != 0 && lock_plain(&self.holds).contains(&project)
    }

    /// Park until no migration hold is active (or the gate closes).
    fn wait_for_release(&self, admit: &mut Admission<'_>) {
        admit.waits();
        let mut holds = lock_plain(&self.holds);
        while self.holding.load(Ordering::Acquire) != 0 {
            holds = self
                .released
                .wait(holds)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Any project currently held (for typed errors on broadcast/worker
    /// submissions, which aren't project-scoped themselves).
    fn held_project(&self) -> ProjectId {
        ProjectId(lock_plain(&self.holds).iter().next().copied().unwrap_or(0))
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

    /// Park until `shard` leaves recovery (or closes); the caller
    /// re-validates under its own locks afterwards.
    fn wait_for_recovery(&self, shard: usize, admit: &mut Admission<'_>) {
        let q = &self.queues[shard];
        let mut s = lock(q);
        while s.recovering && !s.closed {
            s = park(q, s, admit);
        }
    }

    /// Data events admitted for a shard and not yet given back by its
    /// consumer: the mailbox plus the batch in hand (diagnostics; racy by
    /// nature).
    pub(crate) fn queued(&self, shard: usize) -> usize {
        lock(&self.queues[shard]).data_len
    }

    /// Route one event: stamp it with the next global sequence number and
    /// enqueue it on its destination mailbox(es). `wait` selects the
    /// backpressure policy.
    fn route(&self, event: PlatformEvent, wait: bool) -> Result<u64, GateError> {
        // Keyed by the seq the stamper is about to issue. A concurrent
        // producer may draw it first, which moves the sample, not the count.
        let key = self.stamper.load(Ordering::Relaxed);
        let admit = &mut Admission {
            gate: self,
            start: self.admit.stamp_for(key),
            waited_since: None,
        };
        match event.scope() {
            EventScope::Project(p) => self.route_project(p, event, wait, admit),
            EventScope::Worker => self.route_worker(event, wait, admit),
            EventScope::Global => self.route_global(event, wait, admit),
        }
    }

    /// Worker-scoped delivery: the coordinator's mailbox only, plus an
    /// append to the worker service's delta log for replicas to pull.
    /// The sequence number is drawn **inside the service's critical
    /// section** (while the mailbox lock is still held): that is what
    /// lets a replica, by briefly holding the service lock, know that
    /// every worker event below its current seq has finished appending —
    /// see `crate::workers` for the full argument. Lock order is
    /// mailbox → service, same as the control-plane bound capture, so the
    /// pair cannot deadlock.
    fn route_worker(
        &self,
        event: PlatformEvent,
        wait: bool,
        admit: &mut Admission<'_>,
    ) -> Result<u64, GateError> {
        let PlatformEvent::WorkerRegistered { profile } = &event else {
            unreachable!("EventScope::Worker classifies worker registrations only");
        };
        // The replicas' copy — a deep clone and an allocation — is made
        // before either lock: shard 0's batch take contends on this one.
        let delta = Arc::new(profile.clone());
        let q = &self.queues[0];
        let mut s = lock(q);
        loop {
            if s.dead {
                return Err(GateError::ShardDown {
                    shard: 0,
                    event: Box::new(event),
                });
            }
            if s.closed {
                return Err(GateError::Closed(Box::new(event)));
            }
            // Worker events interleave with every shard's slice, so any
            // active migration hold quiesces them too (checked inside the
            // critical section — see `hold_for_migration`'s fence).
            if self.holding.load(Ordering::Acquire) != 0 {
                drop(s);
                if !wait {
                    return Err(GateError::Migrating {
                        project: self.held_project(),
                        event: Box::new(event),
                    });
                }
                self.wait_for_release(admit);
                s = lock(q);
                continue;
            }
            if s.recovering {
                if !wait {
                    return Err(GateError::Recovering {
                        shard: 0,
                        event: Box::new(event),
                    });
                }
                s = park(q, s, admit);
                continue;
            }
            if s.data_len < self.capacity {
                break;
            }
            if !wait {
                return Err(GateError::Full {
                    shard: 0,
                    event: Box::new(event),
                });
            }
            s = park(q, s, admit);
        }
        let seq = self
            .service
            .append_with(delta, || self.stamper.fetch_add(1, Ordering::Relaxed));
        // Still holding the mailbox lock: stamp (inside the append) and
        // push are adjacent, so the coordinator mailbox stays in sequence
        // order, and the log entry is visible before the lock drops.
        let at = self.dwell.stamp_for(seq);
        s.push_data(
            ToShard::Apply {
                seq,
                event,
                record: true,
            },
            at,
        );
        s.notify_consumer(q);
        Ok(seq)
    }

    /// Project-scoped delivery: one mailbox, `record: true` (the owner is
    /// the unique recorder). The owner is re-resolved after any migration
    /// wait — the hold exists precisely because ownership may flip.
    fn route_project(
        &self,
        project: ProjectId,
        event: PlatformEvent,
        wait: bool,
        admit: &mut Admission<'_>,
    ) -> Result<u64, GateError> {
        'resolve: loop {
            let shard = self.owner_of(project);
            let q = &self.queues[shard];
            let mut s = lock(q);
            loop {
                if s.dead {
                    return Err(GateError::ShardDown {
                        shard,
                        event: Box::new(event),
                    });
                }
                if s.closed {
                    return Err(GateError::Closed(Box::new(event)));
                }
                // Hold check inside the critical section: a submission
                // that misses the flag completes before the migration's
                // fence and is therefore swept up by its source flush.
                if self.project_held(project.0) {
                    drop(s);
                    if !wait {
                        return Err(GateError::Migrating {
                            project,
                            event: Box::new(event),
                        });
                    }
                    self.wait_for_release(admit);
                    continue 'resolve;
                }
                if s.recovering {
                    if !wait {
                        return Err(GateError::Recovering {
                            shard,
                            event: Box::new(event),
                        });
                    }
                    s = park(q, s, admit);
                    continue;
                }
                if s.data_len < self.capacity {
                    break;
                }
                if !wait {
                    return Err(GateError::Full {
                        shard,
                        event: Box::new(event),
                    });
                }
                s = park(q, s, admit);
            }
            // Still holding the lock: nothing can interleave between the
            // stamp and the push, so this mailbox stays in sequence order.
            let seq = self.stamper.fetch_add(1, Ordering::Relaxed);
            let at = self.dwell.stamp_for(seq);
            s.push_data(
                ToShard::Apply {
                    seq,
                    event,
                    record: true,
                },
                at,
            );
            s.notify_consumer(q);
            return Ok(seq);
        }
    }

    /// Global-scope delivery: every mailbox, under every shard lock
    /// (ascending order), all-or-nothing; the coordinator (shard 0) is the
    /// unique recorder. Dead shards (thread gone, recovery disabled) are
    /// skipped — their slice is already lost, and stalling every healthy
    /// shard's broadcasts on a corpse would globalise a scoped failure —
    /// unless the coordinator itself died, which leaves the broadcast with
    /// no recorder and must error.
    fn route_global(
        &self,
        event: PlatformEvent,
        wait: bool,
        admit: &mut Admission<'_>,
    ) -> Result<u64, GateError> {
        loop {
            let mut guards: Vec<MutexGuard<'_, QueueState>> =
                self.queues.iter().map(lock).collect();
            if guards[0].dead {
                return Err(GateError::ShardDown {
                    shard: 0,
                    event: Box::new(event),
                });
            }
            if guards.iter().any(|g| g.closed && !g.dead) {
                return Err(GateError::Closed(Box::new(event)));
            }
            // Broadcasts interleave with every slice: any migration hold
            // quiesces them (checked under all locks, same fence argument
            // as the project route).
            if self.holding.load(Ordering::Acquire) != 0 {
                drop(guards);
                if !wait {
                    return Err(GateError::Migrating {
                        project: self.held_project(),
                        event: Box::new(event),
                    });
                }
                self.wait_for_release(admit);
                continue;
            }
            if let Some(r) = guards.iter().position(|g| g.recovering) {
                drop(guards);
                if !wait {
                    return Err(GateError::Recovering {
                        shard: r,
                        event: Box::new(event),
                    });
                }
                self.wait_for_recovery(r, admit);
                continue;
            }
            if let Some(full) = guards
                .iter()
                .position(|g| !g.dead && g.data_len >= self.capacity)
            {
                // Drop every lock before waiting so no consumer is stalled
                // while we sleep; re-validate from scratch afterwards.
                drop(guards);
                if !wait {
                    return Err(GateError::Full {
                        shard: full,
                        event: Box::new(event),
                    });
                }
                // On a close (or death) of the full shard, re-validate from
                // the top: a genuine shutdown hits the closed check, a dead
                // shard is skipped by the dead check.
                self.wait_for_room(full, admit);
                continue;
            }
            let live: Vec<usize> = (0..guards.len()).filter(|&i| !guards[i].dead).collect();
            let seq = self.stamper.fetch_add(1, Ordering::Relaxed);
            let at = self.dwell.stamp_for(seq);
            let last = *live.last().expect("the coordinator is live");
            let mut event = Some(event);
            for &i in &live {
                let ev = if i == last {
                    event.take().expect("event consumed once")
                } else {
                    event.as_ref().expect("event alive").clone()
                };
                guards[i].push_data(
                    ToShard::Apply {
                        seq,
                        event: ev,
                        record: i == 0,
                    },
                    at,
                );
                guards[i].notify_consumer(&self.queues[i]);
            }
            return Ok(seq);
        }
    }

    /// Block until `shard`'s mailbox has room (or the gate closes —
    /// returns `false`).
    fn wait_for_room(&self, shard: usize, admit: &mut Admission<'_>) -> bool {
        let q = &self.queues[shard];
        let mut s = lock(q);
        while !s.closed && s.data_len >= self.capacity {
            s = park(q, s, admit);
        }
        !s.closed
    }

    /// Wrap `run` as the job message it is enqueued as — called under the
    /// destination mailbox lock, which is what makes its *bound* right: the
    /// worker-service log length at enqueue time. A replica installs log
    /// entries up to the bound before running the job, which reproduces
    /// exactly the worker events the old broadcast would have delivered
    /// ahead of it — any worker event already queued ahead of the job
    /// appended before this capture (its append happens under the same
    /// mailbox lock), and any event that appends after it will also be
    /// queued (or seq-stamped) after it.
    fn job(&self, run: Job) -> ToShard {
        ToShard::Job {
            bound: self.service.log_len(),
            run,
        }
    }

    /// Enqueue a job on one mailbox, capacity-exempt. Returns `false` if
    /// the gate is closed.
    pub(crate) fn push_job(&self, shard: usize, run: Job) -> bool {
        let q = &self.queues[shard];
        let mut s = lock(q);
        if s.closed {
            return false;
        }
        s.queue.push_back((self.job(run), None));
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
        // Ascending order matters: the coordinator's mailbox (shard 0)
        // closes first, so no further worker event can append once the
        // replicas' final jobs capture their log bounds — a close-time
        // bound therefore always covers the whole log.
        for (i, q) in self.queues.iter().enumerate() {
            let mut s = lock(q);
            if !s.closed {
                s.queue.push_back((self.job(mk(i)), None));
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
            .filter(|(msg, _)| matches!(msg, ToShard::Apply { .. }))
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

    /// Submit one event, **blocking** while the destination mailbox is
    /// full (the backpressure default). Returns the event's global
    /// sequence number, or [`GateError::Closed`] with the event handed
    /// back if the runtime has shut down.
    pub fn submit(&self, event: PlatformEvent) -> Result<u64, GateError> {
        self.core.route(event, true)
    }

    /// Submit one event, **failing fast** when the destination mailbox is
    /// full: returns [`GateError::Full`] carrying the shard index and the
    /// event itself, so the caller decides — retry, shed load, or fall
    /// back to the blocking [`submit`](Self::submit). Broadcast events are
    /// admitted all-or-nothing: on `Full`, no shard received anything.
    pub fn try_submit(&self, event: PlatformEvent) -> Result<u64, GateError> {
        self.core.route(event, false)
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
            Arc::new(WorkerService::new()),
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

    /// Drain a mailbox after closing; returns (seq, record) of Apply
    /// messages in queue order.
    fn drain_applies(core: &GateCore, shard: usize) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        let mut consumer = Consumer::default();
        while consumer.next_batch(core, shard) {
            for (msg, _) in &consumer.batch {
                if let ToShard::Apply { seq, record, .. } = msg {
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
                    // Both shards, plus occasional coordinator-only worker
                    // events and true broadcasts.
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
        // are unrecorded).
        all_seqs.sort_unstable();
        all_seqs.dedup();
        assert_eq!(all_seqs.len(), 800);
        let mut recorded = 0usize;
        for shard in 0..2 {
            let applies = drain_applies(&core, shard);
            assert!(
                applies.windows(2).all(|w| w[0].0 < w[1].0),
                "shard {shard} mailbox out of sequence order"
            );
            recorded += applies.iter().filter(|(_, record)| *record).count();
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
    fn worker_events_reach_the_coordinator_only() {
        let (gate, core) = gate(3, 0);
        gate.submit(worker(1)).unwrap();
        gate.submit(worker(2)).unwrap();
        // No broadcast: replicas' mailboxes stay empty; the delta log has
        // both events for them to pull instead.
        assert_eq!(gate.queued(0), 2);
        assert_eq!(gate.queued(1), 0);
        assert_eq!(gate.queued(2), 0);
        assert_eq!(core.worker_service().events_logged(), 2);
        core.close();
        // The coordinator records them (it is the unique recorder).
        let applies = drain_applies(&core, 0);
        assert_eq!(applies.len(), 2);
        assert!(applies.iter().all(|(_, record)| *record));
    }

    #[test]
    fn worker_backpressure_reports_the_coordinator() {
        let (gate, _core) = gate(2, 1);
        gate.try_submit(worker(1)).unwrap();
        let err = gate.try_submit(worker(2)).unwrap_err();
        assert!(matches!(err, GateError::Full { shard: 0, .. }));
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
        let core = Arc::new(GateCore::new(
            1,
            1,
            Arc::new(WorkerService::new()),
            &registry.handle(),
        ));
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
        assert_eq!(drain_applies(&core, 0).len(), 1);
        assert!(!Consumer::default().next_batch(&core, 0));
    }
}
