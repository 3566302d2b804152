//! The runtime orchestrator: spawns the shard threads, hands out
//! [`IngestGate`] submission handles, and stitches the ledger's per-shard
//! recorded streams back into one replayable log when the run finishes.
//!
//! Since PR 4 the routing itself — sequence stamping, ownership/broadcast
//! dispatch, backpressure — lives in the concurrent [`gate`](crate::gate):
//! any number of client threads submit through cloned gate handles without
//! serialising on one submitter. `ShardedRuntime`'s own submission methods
//! delegate to an internal handle, so single-client code keeps working
//! unchanged (and no longer needs `&mut`).

use crate::gate::{GateCore, IngestGate};
use crate::recovery::{replay_slice, FaultPlan};
use crate::shard::{fresh_slice, shard_main, SeqKey, ShardCtx, ShardStats, ToShard};
use crowd4u_core::error::{PlatformError, ProjectId};
use crowd4u_core::events::PlatformEvent;
use crowd4u_core::platform::Crowd4U;
use crowd4u_storage::journal::EventJournal;
use crowd4u_telemetry::{stage, MetricsSnapshot, Registry};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Runtime tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Number of shard threads (≥ 1).
    pub shards: usize,
    /// Streaming-mode mailbox batching: after this many applied events a
    /// shard syncs its dirty projects (`0` = coordinated mode, drains only
    /// at explicit [`ShardedRuntime::drain`] barriers). Batching this way
    /// rides the PR 2 fast path: answers accumulate without per-answer
    /// fixpoints, and one sync amortises over the whole mailbox batch.
    pub drain_every: usize,
    /// Per-shard mailbox capacity for data events — the backpressure
    /// bound on events admitted and not yet applied (the mailbox plus the
    /// batch the shard has taken from it: up to a quarter of the capacity,
    /// at most 64 messages, whose slots free when the shard returns for
    /// the next batch). A producer hitting a full mailbox blocks
    /// ([`IngestGate::submit`]) or gets the event back
    /// ([`IngestGate::try_submit`]). `0` disables the bound (unbounded
    /// queues, no backpressure). Control messages (drain barriers, jobs)
    /// are always exempt, so a full mailbox cannot wedge the barrier that
    /// would drain it.
    pub mailbox_capacity: usize,
    /// Restart a shard whose thread panics by replaying its ledger slice
    /// (see `crate::recovery`), instead of abandoning its mailbox and
    /// resurfacing the panic from [`ShardedRuntime::finish`]. Off by
    /// default: recovery deliberately swallows the panic, which is the
    /// wrong default while a panic usually means a bug. The event being
    /// applied when a mid-apply panic fires is *not* lost: the shard
    /// parks it in an in-flight slot before applying and the rebuilt
    /// shard re-applies it once; if it panics again (a poison event) it
    /// is dropped and counted rather than crash-looping the shard.
    pub recovery: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            shards: shards_from_env(4),
            drain_every: 0,
            mailbox_capacity: 1024,
            recovery: false,
        }
    }
}

/// Shard count from the `RUNTIME_SHARDS` environment variable, or
/// `default`. CI runs the integration suite with `RUNTIME_SHARDS=4` to
/// exercise the parallel path.
pub fn shards_from_env(default: usize) -> usize {
    std::env::var("RUNTIME_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

/// Everything a finished run hands back.
pub struct RunReport {
    /// The per-shard journals stitched by global sequence number. Replaying
    /// this on a single-threaded platform reconstructs the equivalent
    /// state (byte-identical in coordinated-drain mode).
    pub journal: EventJournal,
    /// Aggregated statistics across shards.
    pub stats: ShardStats,
    /// Per-shard statistics, by shard index.
    pub per_shard: Vec<ShardStats>,
    /// The shard platform slices, by shard index (for inspection and
    /// aggregation queries after the run). Their own journals are empty:
    /// the run's event history is `journal` above.
    pub platforms: Vec<Crowd4U>,
}

/// The sharded runtime: N shard threads behind the [`IngestGate`]'s
/// bounded mailboxes, a lock-free global sequence stamper, and round-robin
/// project ownership. Shard 0 doubles as the **coordinator**: it records
/// broadcast events and drain barriers in the merged journal (every shard
/// *applies* broadcasts; exactly one records them), and it alone receives
/// worker events — the other shards pull profile deltas from the
/// coordinator-owned [`WorkerService`](crate::workers::WorkerService)
/// exactly where the old broadcast would have interleaved them.
///
/// Submission is concurrent: clone handles with
/// [`gate()`](ShardedRuntime::gate) and submit from as many threads as you
/// like; the convenience methods on the runtime itself
/// ([`submit`](ShardedRuntime::submit),
/// [`submit_batch`](ShardedRuntime::submit_batch),
/// [`drain`](ShardedRuntime::drain)) delegate to an internal handle and
/// only need `&self`.
///
/// Every slice the runtime builds — at spawn, on a recovery, for a
/// migration — is a default-configured platform: configuration is not
/// journaled, so a slice configured any other way would silently lose it
/// at the first rebuild. The four constructors differ only in the
/// telemetry registry and the fault plan.
pub struct ShardedRuntime {
    gate: IngestGate,
    handles: Vec<JoinHandle<()>>,
    drain_every: usize,
    telemetry: Registry,
}

impl ShardedRuntime {
    /// Spawn the runtime with an enabled telemetry registry
    /// ([`Registry::new`]).
    pub fn new(config: RuntimeConfig) -> ShardedRuntime {
        ShardedRuntime::spawn(config, Registry::new(), FaultPlan::none())
    }

    /// Spawn the runtime with an explicit telemetry registry (pass
    /// [`Registry::disabled`] to turn telemetry off). Every layer shares
    /// the one registry: the gate (admission + mailbox-dwell histograms),
    /// the worker service (delta-log gauges), each shard's platform slice
    /// (apply/journal/fixpoint stages, event and cache counters).
    pub fn new_instrumented(config: RuntimeConfig, telemetry: Registry) -> ShardedRuntime {
        ShardedRuntime::spawn(config, telemetry, FaultPlan::none())
    }

    /// Spawn the runtime with an explicit [`FaultPlan`] — the deterministic
    /// chaos entry point, and the only way to inject a fault: the other
    /// constructors run with [`FaultPlan::none`]. Pair with
    /// `config.recovery = true` to exercise crash recovery; with recovery
    /// off an injected kill behaves like any shard panic.
    pub fn new_chaos(config: RuntimeConfig, faults: FaultPlan) -> ShardedRuntime {
        ShardedRuntime::spawn(config, Registry::new(), faults)
    }

    /// [`new_chaos`](Self::new_chaos) with an explicit telemetry registry —
    /// the `e2e` benchmark's `crash_recover` workload scrapes the
    /// `crowd4u_recoveries_total` / `crowd4u_recovery_ns` cells from it
    /// after the run (`runtime.recovery.replay_ms`).
    pub fn new_chaos_instrumented(
        config: RuntimeConfig,
        telemetry: Registry,
        faults: FaultPlan,
    ) -> ShardedRuntime {
        ShardedRuntime::spawn(config, telemetry, faults)
    }

    fn spawn(config: RuntimeConfig, telemetry: Registry, faults: FaultPlan) -> ShardedRuntime {
        let shards = config.shards.max(1);
        let handle = telemetry.handle();
        let mut service = crate::workers::WorkerService::new();
        // Replica attachment must precede telemetry: the per-replica lag
        // gauges are created from the attached replica count.
        service.attach_replicas(shards);
        service.set_telemetry(&handle);
        let service = Arc::new(service);
        let core = Arc::new(GateCore::new(
            shards,
            config.mailbox_capacity,
            service,
            &handle,
        ));
        let faults = Arc::new(faults);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let ctx = ShardCtx {
                gate: Arc::clone(&core),
                shard: i,
                drain_every: config.drain_every,
                telemetry: handle.clone(),
                recovery: config.recovery,
                faults: Arc::clone(&faults),
            };
            let handle = std::thread::Builder::new()
                .name(format!("crowd4u-shard-{i}"))
                .spawn(move || shard_main(ctx))
                .expect("spawn shard thread");
            handles.push(handle);
        }
        ShardedRuntime {
            gate: IngestGate::new(core),
            handles,
            drain_every: config.drain_every,
            telemetry,
        }
    }

    /// The telemetry registry every layer of this runtime records into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Scrape: merge every shard's local cells into one snapshot. Safe to
    /// call any time — producers are never blocked (see the telemetry
    /// crate docs); mid-run values are racy-but-consistent per cell.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// A cloneable concurrent submission handle onto this runtime's shard
    /// mailboxes. Hand one to each client thread; all handles share the
    /// same global sequence stamper, so cross-handle submissions are
    /// totally ordered. Handles outlive the runtime gracefully: after
    /// [`finish`](ShardedRuntime::finish) (or drop) their submissions
    /// return [`GateError::Closed`](crate::gate::GateError::Closed).
    pub fn gate(&self) -> IngestGate {
        self.gate.clone()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.gate.shards()
    }

    /// Streaming-mode mailbox batch size (0 in coordinated mode).
    pub fn drain_every(&self) -> usize {
        self.drain_every
    }

    /// The shard owning a project (round-robin over registration order).
    pub fn owner_of(&self, project: ProjectId) -> usize {
        self.gate.owner_of(project)
    }

    /// Submit one event through the runtime's own gate handle; returns its
    /// global sequence number. Broadcast events fan out to every shard
    /// (coordinator records); project-scoped events go to the owner only.
    /// Blocks while the destination mailbox is full — use
    /// [`gate()`](ShardedRuntime::gate) +
    /// [`try_submit`](IngestGate::try_submit) for the error policy.
    ///
    /// # Panics
    ///
    /// Panics if the gate reports the runtime closed. While the runtime is
    /// still borrowed that only happens when the destination shard thread
    /// has died (its mailbox closes as the thread unwinds, so callers fail
    /// fast instead of hanging); detached [`IngestGate`] handles get a
    /// typed error instead.
    pub fn submit(&self, event: PlatformEvent) -> u64 {
        self.gate.submit(event).expect("runtime alive")
    }

    /// Submit a batch of events in order (blocking policy). With
    /// concurrent gate handles active, other submitters' events may
    /// interleave between batch elements in the global order.
    pub fn submit_batch(&self, events: impl IntoIterator<Item = PlatformEvent>) {
        for e in events {
            self.submit(e);
        }
    }

    /// Coordinated drain barrier: every shard syncs its dirty projects, the
    /// coordinator records one `drain` entry — the sharded counterpart of
    /// the drain closing [`Crowd4U::apply_batch`]. The barrier takes one
    /// global sequence number under every shard lock, so it lands at the
    /// same position in every mailbox even while gate handles are
    /// submitting concurrently. Returns the barrier's sequence number.
    pub fn drain(&self) -> u64 {
        self.gate
            .core()
            .stamped_barrier(|shard, seq| ToShard::Drain {
                seq,
                record: shard == 0,
            })
            .expect("runtime alive")
    }

    /// Wait until every shard has processed its mailbox; returns per-shard
    /// statistics snapshots. This flushes events already enqueued, but
    /// concurrent gate handles may enqueue more while the barrier settles.
    /// A flush is a job, so it also pulls a replica up to the worker-log
    /// bound captured when it was enqueued: every registration logged
    /// before the barrier is in every shard's ledger slot when it returns.
    pub fn barrier(&self) -> Vec<ShardStats> {
        let replies: Vec<Receiver<ShardStats>> =
            (0..self.shards()).map(|i| self.push_flush(i)).collect();
        replies
            .into_iter()
            .map(|rx| rx.recv().expect("shard thread alive"))
            .collect()
    }

    /// Aggregated statistics across shards (barriers first).
    pub fn stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for s in self.barrier() {
            total.absorb(&s);
        }
        total
    }

    /// Wait until one shard has processed everything already in its
    /// mailbox (the single-shard [`barrier`](Self::barrier)).
    fn barrier_one(&self, shard: usize) -> ShardStats {
        self.push_flush(shard).recv().expect("shard thread alive")
    }

    fn push_flush(&self, shard: usize) -> Receiver<ShardStats> {
        let core = Arc::clone(self.gate.core());
        self.submit_job(shard, move |_| core.ledger().stats(shard))
    }

    /// Move a project to another shard while the runtime keeps running —
    /// hot rebalancing. Returns the number of tasks that moved.
    ///
    /// The sequence: quiesce the project at the gate (its events, plus
    /// broadcasts and worker events, are held — blocking submitters park,
    /// `try_submit` gets
    /// [`GateError::Migrating`](crate::gate::GateError::Migrating)); flush
    /// the source shard so everything admitted is ledgered; **replay** the
    /// project's slice — its recorded ledger entries interleaved with the
    /// source's drains, broadcasts and worker entries — onto a fresh
    /// base; extract the project from the replay and adopt it into the
    /// destination shard; drop it from the source; flip the routing
    /// table; release the hold. Unrelated projects keep flowing the whole
    /// time, and the merged journal is untouched — recorded entries stay
    /// in the slots that recorded them, sorted by global sequence number.
    pub fn migrate_project(
        &self,
        project: ProjectId,
        to_shard: usize,
    ) -> Result<usize, PlatformError> {
        assert!(
            to_shard < self.shards(),
            "destination shard {to_shard} out of range ({} shards)",
            self.shards()
        );
        let core = self.gate.core();
        let from = core.owner_of(project);
        if from == to_shard {
            return Ok(0);
        }
        core.hold_for_migration(project);
        struct Release<'a> {
            core: &'a GateCore,
            project: ProjectId,
        }
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.core.release_migration(self.project);
            }
        }
        let _release = Release { core, project };
        // Flush the source: every event admitted before the hold's fence
        // is applied and ledgered before the slice is read — and, worker
        // admission being held, the flush's bound is the *full* worker
        // log, so the source's slot holds every registration. The
        // destination's adopt job syncs to this same bound before
        // adopting: eligibility rows in the slice must cover every worker
        // the destination will have installed.
        self.barrier_one(from);
        let entries = core.ledger().project_slice(project, from);
        let telemetry = self.telemetry.handle();
        let mut replayed = replay_slice(fresh_slice(&telemetry), &entries);
        let slice = replayed.extract_project(project)?;
        let moved = slice.task_count();
        // Demote at the source (extract and drop) and adopt at the
        // destination; the jobs run concurrently on their shards, and the
        // adopt's captured bound equals the flush's (the log is held
        // stable).
        let demoted = self.run_on(from, move |p| p.extract_project(project).map(drop));
        let adopted = self.run_on(to_shard, move |p| p.adopt_project(slice));
        demoted.recv().expect("source shard alive")?;
        adopted.recv().expect("destination shard alive");
        core.set_owner(project, to_shard);
        telemetry.counter(stage::MIGRATIONS).incr();
        Ok(moved)
    }

    /// Ship a read-only job to a shard and return a receiver for its
    /// result without blocking — jobs on different shards run in parallel.
    /// The job sees the shard's platform slice after every event enqueued
    /// before it. Jobs are the control plane (queries, flushes), not
    /// events: the slice is borrowed shared, so a job can change nothing
    /// a replay would have to rebuild — submit an event for a change that
    /// must be part of the history.
    ///
    /// ```compile_fail
    /// use crowd4u_core::error::ProjectId;
    /// use crowd4u_runtime::prelude::*;
    ///
    /// let rt = ShardedRuntime::new(RuntimeConfig::default());
    /// // A journaling platform call needs `&mut Crowd4U`: it does not compile.
    /// let _ = rt.submit_job(0, |p| p.seed_fact(ProjectId(1), "item", vec!["x".into()]));
    /// ```
    pub fn submit_job<R: Send + 'static>(
        &self,
        shard: usize,
        job: impl FnOnce(&Crowd4U) -> R + Send + 'static,
    ) -> Receiver<R> {
        self.run_on(shard, move |p| job(p))
    }

    /// [`submit_job`](Self::submit_job) with the slice borrowed mutably —
    /// for migration's extract and adopt only: neither journals, and a
    /// rebuild re-derives both from the routing table. (The runtime's one
    /// other mutating job, the hand-back at [`finish`](Self::finish), is
    /// enqueued as the gate closes.)
    fn run_on<R: Send + 'static>(
        &self,
        shard: usize,
        job: impl FnOnce(&mut Crowd4U) -> R + Send + 'static,
    ) -> Receiver<R> {
        let (tx, rx) = channel();
        let run = Box::new(move |p: &mut Crowd4U| {
            let _ = tx.send(job(p));
        });
        assert!(
            self.gate.core().push_job(shard, run),
            "shard {shard} mailbox closed under a live ShardedRuntime (shard thread died?)"
        );
        rx
    }

    /// Run a read-only closure against the owner slice of a project and
    /// wait for the result (a synchronous cross-shard query).
    pub fn with_project<R: Send + 'static>(
        &self,
        project: ProjectId,
        job: impl FnOnce(&Crowd4U) -> R + Send + 'static,
    ) -> R {
        self.submit_job(self.owner_of(project), job)
            .recv()
            .expect("shard thread alive")
    }

    /// Global per-worker points: the sum of the worker's points over every
    /// shard slice (the ledger is project-owned, so totals are aggregates).
    /// All shards are queried concurrently before any reply is awaited.
    pub fn points_of(&self, worker: crowd4u_core::error::WorkerId) -> i64 {
        let replies: Vec<Receiver<i64>> = (0..self.shards())
            .map(|s| self.submit_job(s, move |p| p.points_of(worker)))
            .collect();
        replies
            .into_iter()
            .map(|rx| rx.recv().expect("shard thread alive"))
            .sum()
    }

    /// Cross-application assignment load per worker: how many suggested or
    /// in-progress teams each worker is on across **every** project of the
    /// runtime. Tasks live only on their owner shard (broadcast shells
    /// hold none), so summing the per-shard maps counts each membership
    /// exactly once. All shards are queried concurrently. This is the load
    /// table a marketplace front-end feeds to
    /// `crowd4u_assign::load::LeastLoaded` before proposing a team from a
    /// shared crowd.
    pub fn assignment_loads(
        &self,
    ) -> std::collections::BTreeMap<crowd4u_core::error::WorkerId, u64> {
        let replies: Vec<Receiver<_>> = (0..self.shards())
            .map(|s| self.submit_job(s, |p| p.assignment_loads()))
            .collect();
        let mut loads = std::collections::BTreeMap::new();
        for rx in replies {
            for (w, n) in rx.recv().expect("shard thread alive") {
                *loads.entry(w).or_insert(0) += n;
            }
        }
        loads
    }

    /// Stop the runtime: the gate closes (later submissions through
    /// detached handles get
    /// [`GateError::Closed`](crate::gate::GateError::Closed)), every
    /// shard applies what is already in its mailbox and hands back its
    /// platform slice (its journal empty); statistics and the seq-tagged
    /// recorded streams are read from the runtime-owned ledger, and the
    /// streams are stitched into the merged journal.
    pub fn finish(mut self) -> Result<RunReport, PlatformError> {
        let (reply_txs, reply_rxs): (Vec<_>, Vec<_>) =
            (0..self.shards()).map(|_| channel::<Crowd4U>()).unzip();
        // Closing with the hand-back job in the same critical section
        // means no submission can slip in behind it. The shard keeps an
        // empty platform for the few instructions it has left.
        self.gate.core().close_each(|i| {
            let reply = reply_txs[i].clone();
            Box::new(move |p: &mut Crowd4U| {
                let _ = reply.send(std::mem::take(p));
            })
        });
        // The queued clones are now the only live senders: if a shard died
        // (its unwind drops the batch it had taken, its mailbox guard
        // everything still queued), the matching `recv` below fails fast
        // instead of waiting on a reply that cannot come.
        drop(reply_txs);
        let mut platforms = Vec::new();
        for rx in reply_rxs {
            match rx.recv() {
                Ok(platform) => platforms.push(platform),
                // A shard died before reporting — join to surface its
                // original panic rather than a bare channel error.
                Err(_) => {
                    for h in self.handles.drain(..) {
                        if let Err(panic) = h.join() {
                            std::panic::resume_unwind(panic);
                        }
                    }
                    panic!("shard reply channel closed but no shard thread panicked");
                }
            }
        }
        for h in self.handles.drain(..) {
            h.join().expect("shard thread panicked");
        }
        // Statistics and recorded streams live in the runtime-owned
        // ledger, where they survived any shard deaths along the way.
        let ledger = self.gate.core().ledger();
        let mut per_shard = Vec::new();
        let mut streams: Vec<Vec<(SeqKey, crowd4u_storage::journal::JournalEntry)>> = Vec::new();
        let mut stats = ShardStats::default();
        for shard in 0..ledger.shards() {
            let s = ledger.stats(shard);
            stats.absorb(&s);
            per_shard.push(s);
            streams.push(ledger.recorded_stream(shard));
        }
        let journal = EventJournal::merge_streams(streams)?;
        Ok(RunReport {
            journal,
            stats,
            per_shard,
            platforms,
        })
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        // Closing the gate ends each shard loop once its mailbox is
        // drained; join to avoid leaks.
        self.gate.core().close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_collab::Scheme;
    use crowd4u_core::error::{TaskId, WorkerId};
    use crowd4u_crowd::profile::WorkerProfile;
    use crowd4u_forms::admin::DesiredFactors;

    const SRC: &str = "\
rel item(x: str).
open label(x: str) -> (y: str) points 1.
rel out(x: str, y: str).
out(X, Y) :- item(X), label(X, Y).
";

    fn config(shards: usize, drain_every: usize) -> RuntimeConfig {
        RuntimeConfig {
            shards,
            drain_every,
            mailbox_capacity: 1024,
            recovery: false,
        }
    }

    fn worker(i: u64) -> PlatformEvent {
        PlatformEvent::WorkerRegistered {
            profile: WorkerProfile::new(WorkerId(i), format!("w{i}")),
        }
    }

    fn project(name: &str) -> PlatformEvent {
        PlatformEvent::ProjectRegistered {
            name: name.into(),
            source: SRC.into(),
            factors: DesiredFactors::default(),
            scheme: Scheme::Sequential,
            owner: 0,
        }
    }

    fn seed(p: u64, s: &str) -> PlatformEvent {
        PlatformEvent::FactSeeded {
            project: ProjectId(p),
            pred: "item".into(),
            values: vec![s.into()],
        }
    }

    fn answer(p: u64, local: u64, w: u64, out: &str) -> PlatformEvent {
        PlatformEvent::AnswerSubmitted {
            worker: WorkerId(w),
            task: TaskId::compose(ProjectId(p), local),
            outputs: vec![out.into()],
        }
    }

    #[test]
    fn ownership_is_round_robin_and_stable() {
        let rt = ShardedRuntime::new(config(3, 0));
        assert_eq!(rt.shards(), 3);
        assert_eq!(rt.owner_of(ProjectId(1)), 0);
        assert_eq!(rt.owner_of(ProjectId(2)), 1);
        assert_eq!(rt.owner_of(ProjectId(3)), 2);
        assert_eq!(rt.owner_of(ProjectId(4)), 0);
        // Ids that never came from a pool land on the coordinator.
        assert_eq!(rt.owner_of(ProjectId(0)), 0);
    }

    #[test]
    fn routed_run_matches_serial_platform() {
        // The same event sequence, applied serially and through 2 shards.
        let mut events = vec![worker(1), worker(2), project("a"), project("b")];
        for s in ["x", "y", "z"] {
            events.push(seed(1, s));
            events.push(seed(2, s));
        }

        let mut serial = Crowd4U::new();
        let report = serial.apply_batch(events.clone()).unwrap();
        assert!(report.errors.is_empty());

        let rt = ShardedRuntime::new(config(2, 0));
        rt.submit_batch(events);
        rt.drain();
        let run = rt.finish().unwrap();
        assert_eq!(run.stats.applied, 10);
        assert_eq!(run.stats.dropped, 0);

        // Merged journal is byte-identical to the serial journal, and
        // replays to the serial platform's exact state.
        assert_eq!(run.journal.dump(), serial.journal().dump());
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        assert_eq!(replayed.state_dump(), serial.state_dump());

        // Each project lives where ownership says; the other slice holds an
        // empty replica.
        let owner_a = &run.platforms[0];
        assert_eq!(
            owner_a
                .project(ProjectId(1))
                .unwrap()
                .engine
                .fact_count("item")
                .unwrap(),
            3
        );
        assert_eq!(
            run.platforms[1]
                .project(ProjectId(1))
                .unwrap()
                .engine
                .fact_count("item")
                .unwrap(),
            0
        );
    }

    #[test]
    fn invalid_events_are_dropped_and_counted() {
        let rt = ShardedRuntime::new(config(2, 0));
        rt.submit_batch(vec![worker(1), project("a")]);
        rt.submit(seed(9, "nope")); // unknown project → owner drops it
        rt.submit(answer(1, 7, 1, "nope")); // unknown task → dropped
        rt.drain();
        let run = rt.finish().unwrap();
        assert_eq!(run.stats.applied, 2);
        assert_eq!(run.stats.dropped, 2);
        // Dropped events never reach the journal; the run still replays.
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        assert_eq!(replayed.project_ids(), vec![ProjectId(1)]);
    }

    #[test]
    fn streaming_auto_drain_syncs_and_stays_replayable() {
        let rt = ShardedRuntime::new(config(2, 2));
        rt.submit_batch(vec![worker(1), project("a"), project("b")]);
        for s in ["x", "y", "z", "w"] {
            rt.submit(seed(1, s));
            rt.submit(seed(2, s));
        }
        rt.barrier();
        // Auto-drains already surfaced micro tasks without an explicit
        // drain: answer one through the routed path.
        let open = rt.with_project(ProjectId(1), |p| {
            p.pool.open_tasks(Some(ProjectId(1))).len()
        });
        assert!(open > 0, "auto-drain should have synced project 1");
        rt.submit(answer(1, 1, 1, "lab"));
        rt.drain();
        let run = rt.finish().unwrap();
        assert!(run.stats.auto_drains > 0);
        // The merged journal (with per-project `sync` entries) replays to
        // the exact live state of the shards.
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        assert_eq!(
            replayed
                .project(ProjectId(1))
                .unwrap()
                .engine
                .fact_count("out")
                .unwrap(),
            1
        );
    }

    #[test]
    fn jobs_and_aggregation_queries() {
        let rt = ShardedRuntime::new(config(2, 0));
        rt.submit_batch(vec![worker(1), project("a"), project("b")]);
        rt.submit(seed(1, "x"));
        rt.submit(seed(2, "y"));
        rt.drain();
        rt.submit(answer(1, 1, 1, "out-a"));
        rt.submit(answer(2, 1, 1, "out-b"));
        rt.drain();
        // Worker 1 earned 1 point in each project, owned by different
        // shards; the global total aggregates both.
        assert_eq!(rt.points_of(WorkerId(1)), 2);
        let n1 = rt.with_project(ProjectId(1), |p| p.workers.len());
        assert_eq!(n1, 1); // the worker delta reached the owning shard
        rt.finish().unwrap();
    }

    #[test]
    fn dead_shard_closes_its_mailbox_instead_of_hanging() {
        let rt = ShardedRuntime::new(config(2, 0));
        let gate = rt.gate();
        rt.submit_batch(vec![project("a"), project("b")]);
        let _ = rt.submit_job(1, |_| panic!("boom"));
        // The mailbox guard closes shard 1's queue as the thread unwinds;
        // until then submissions may still be accepted, so keep submitting
        // until the death surfaces as a typed error (a hang here is the
        // regression this test pins) — scoped to the dead shard, not the
        // runtime-wide `Closed`.
        loop {
            match gate.submit(seed(2, "x")) {
                Ok(_) => std::thread::yield_now(),
                Err(err) => {
                    assert!(
                        matches!(err, crate::gate::GateError::ShardDown { shard: 1, .. }),
                        "a shard death must scope its error, got {err:?}"
                    );
                    break;
                }
            }
        }
        // Shard 0 is untouched and still serves queries.
        assert!(rt.with_project(ProjectId(1), |p| p.project(ProjectId(1)).is_ok()));
    }

    #[test]
    fn a_job_panicking_mid_batch_closes_the_replies_queued_behind_it() {
        let rt = ShardedRuntime::new(config(2, 0));
        let gate = rt.gate();
        rt.submit_batch(vec![project("a"), project("b")]);
        rt.barrier();
        // Stall shard 1 inside a job, so that what is queued meanwhile —
        // a panicking job, events, a flush — is taken as *one* batch.
        let (running_tx, running_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let _ = rt.submit_job(1, move |_| {
            running_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        running_rx.recv().unwrap();
        let _ = rt.submit_job(1, |_| panic!("boom mid-batch"));
        for s in ["x", "y", "z"] {
            gate.submit(seed(2, s)).unwrap();
        }
        let flushed = rt.push_flush(1);
        release_tx.send(()).unwrap();
        // The flush left the mailbox with the batch, so abandoning the
        // mailbox cannot reach it: the unwind has to drop the batch, or
        // `barrier()` would wait forever on this receiver.
        assert_eq!(
            flushed.recv_timeout(std::time::Duration::from_secs(10)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
        );
        // Producers for the dead shard get the scoped error …
        loop {
            match gate.submit(seed(2, "late")) {
                Ok(_) => std::thread::yield_now(),
                Err(err) => {
                    assert!(
                        matches!(err, crate::gate::GateError::ShardDown { shard: 1, .. }),
                        "a shard death must scope its error, got {err:?}"
                    );
                    break;
                }
            }
        }
        // … and the healthy shard keeps accepting and applying.
        gate.submit(seed(1, "alive")).unwrap();
        let items = rt.with_project(ProjectId(1), |p| {
            let project = p.project(ProjectId(1)).unwrap();
            project.engine.fact_count("item").unwrap()
        });
        assert_eq!(items, 1);
    }

    #[test]
    fn recovery_replays_a_killed_shard_and_keeps_the_journal_identical() {
        // Reference: the same traffic with no fault.
        let events = || {
            let mut evs = vec![worker(1), project("a"), project("b")];
            for s in ["x", "y", "z"] {
                evs.push(seed(1, s));
                evs.push(seed(2, s));
            }
            evs
        };
        let rt = ShardedRuntime::new(config(2, 0));
        rt.submit_batch(events());
        rt.drain();
        let clean = rt.finish().unwrap();

        let mut cfg = config(2, 0);
        cfg.recovery = true;
        // Kill shard 1 after its 2nd applied event, mid-stream.
        let rt = ShardedRuntime::new_chaos(cfg, FaultPlan::kill(1, 2));
        rt.submit_batch(events());
        rt.drain();
        let run = rt.finish().unwrap();
        assert_eq!(run.journal.dump(), clean.journal.dump());
        assert_eq!(run.stats.applied, clean.stats.applied);
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        let clean_replayed = Crowd4U::replay(&clean.journal).unwrap();
        assert_eq!(replayed.state_dump(), clean_replayed.state_dump());
    }

    #[test]
    fn migration_moves_a_live_project_between_shards() {
        let rt = ShardedRuntime::new(config(2, 0));
        rt.submit_batch(vec![worker(1), project("a"), project("b")]);
        rt.submit(seed(1, "x"));
        rt.submit(seed(1, "y"));
        rt.submit(seed(2, "z"));
        rt.drain();
        rt.submit(answer(1, 1, 1, "lab"));
        rt.drain();
        assert_eq!(rt.owner_of(ProjectId(1)), 0);
        let moved = rt.migrate_project(ProjectId(1), 1).unwrap();
        assert!(moved >= 2, "project 1 had at least its two label tasks");
        assert_eq!(rt.owner_of(ProjectId(1)), 1);
        // The project now answers queries from its new owner, with state
        // intact (the submitted answer's derived fact included) …
        let out = rt.with_project(ProjectId(1), |p| {
            p.project(ProjectId(1))
                .unwrap()
                .engine
                .fact_count("out")
                .unwrap()
        });
        assert_eq!(out, 1);
        // … keeps taking new traffic through the routed path …
        rt.submit(seed(1, "w"));
        rt.submit(answer(1, 2, 1, "lab2"));
        rt.drain();
        // … and the merged journal still replays to the exact state.
        let run = rt.finish().unwrap();
        assert_eq!(run.stats.dropped, 0);
        let replayed = Crowd4U::replay(&run.journal).unwrap();
        assert_eq!(
            replayed
                .project(ProjectId(1))
                .unwrap()
                .engine
                .fact_count("out")
                .unwrap(),
            2
        );
        // The live slices agree with ownership: project 1 lives on shard 1
        // with all three of its seeded items (x, y pre-migration, w post).
        assert_eq!(
            run.platforms[1]
                .project(ProjectId(1))
                .unwrap()
                .engine
                .fact_count("item")
                .unwrap(),
            3
        );
        assert!(run.platforms[0].project(ProjectId(1)).is_err());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn finish_surfaces_a_dead_shards_panic() {
        let rt = ShardedRuntime::new(config(2, 0));
        let _ = rt.submit_job(1, |_| panic!("boom"));
        let _ = rt.finish();
    }

    #[test]
    fn detached_gate_handles_survive_shutdown() {
        let rt = ShardedRuntime::new(config(2, 0));
        let gate = rt.gate();
        rt.submit_batch(vec![worker(1), project("a")]);
        gate.submit(seed(1, "via-gate")).unwrap();
        rt.drain();
        let run = rt.finish().unwrap();
        assert_eq!(run.stats.applied, 3);
        // The handle outlives the runtime; submissions now fail typed.
        let err = gate.submit(seed(1, "late")).unwrap_err();
        assert!(matches!(err, crate::gate::GateError::Closed(_)));
    }
}
