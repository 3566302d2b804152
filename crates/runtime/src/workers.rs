//! The coordinator-owned worker service.
//!
//! Before PR 7, every `WorkerRegistered` event was broadcast to all shard
//! mailboxes, so one registration cost O(shards) queue pushes and O(shards)
//! full applies — the fan-out that made million-worker churn infeasible.
//! Now the event is routed to **shard 0 (the coordinator) only**, which
//! journals and applies it; this service is the side channel the other
//! shards use to replicate the effect *exactly where the broadcast would
//! have placed it* in their own apply order.
//!
//! ## The seq-keyed delta log
//!
//! The service keeps an append-only log of `(seq, profile)` pairs, one per
//! worker event, in stamping order. The gate appends **while holding both
//! shard 0's mailbox lock and this service's lock, drawing the sequence
//! number inside the critical section** (`WorkerService::append_with`).
//! That coupling is what makes a replica's pull race-free: when a shard
//! holds the service lock, any worker event with a smaller seq has already
//! completed its append (it drew its seq inside an earlier critical
//! section), and any event still waiting for the lock will draw a larger
//! seq. So "install every log entry with seq < S, then apply S" replays
//! precisely the prefix the broadcast would have delivered before S.
//!
//! ## Sync points
//!
//! A non-coordinator shard syncs at exactly the places the old broadcast
//! interleaved worker events with its stream:
//!
//! * before applying a seq-stamped message (event or drain) at seq `S`:
//!   install all log entries with seq < `S`;
//! * before running a seq-less control message (job, finish): install up
//!   to the log length captured when the message was enqueued (the
//!   *bound*, recorded under the mailbox lock by the gate).
//!
//! Installs go through `Crowd4U::install_worker_delta` — registration
//! minus the journal entry and counter — so `WorkerManager::version()`
//! advances in the same lockstep the eligibility epoch cache and the
//! determinism contract key on.
//!
//! ## Snapshots
//!
//! Every [`SNAPSHOT_EVERY`] appends the
//! service compacts the log prefix into a version-keyed snapshot (latest
//! profile per worker + how many events it covers). A **fresh** replica
//! (no workers, no projects) fast-forwards through the snapshot instead of
//! replaying each delta; `events_covered` keeps its worker version in
//! lockstep. Replicas that already hold projects take the delta path —
//! project registrations are broadcast, so in practice snapshots serve the
//! "bulk-register the crowd first" phase, which is exactly where 10⁵–10⁶
//! registrations happen.
//!
//! ## Truncation (bounded log)
//!
//! Cursors and bounds are **logical** positions in the append stream. The
//! resident `log` vector only holds the suffix `[base..]`: each replica
//! reports its cursor back to the service inside the sync critical
//! section, and once every reported cursor (and, when snapshots are
//! enabled, the running compaction) has moved at least
//! [`TRUNCATE_CHUNK`] entries past `base`, the consumed prefix is
//! dropped and `base` advances. A runtime with no replicas (one shard)
//! treats the whole log as consumed. Entries being installed are `Arc`
//! clones planned under the lock, so a concurrent truncation by another
//! replica can never pull data out from under an install. The bound is
//! observable: the service exports `crowd4u_worker_delta_log_len`
//! (resident entries) and `crowd4u_worker_min_cursor` gauges, both
//! written under the service lock.

use crowd4u_core::platform::Crowd4U;
use crowd4u_crowd::profile::{WorkerId, WorkerProfile};
use crowd4u_telemetry::{Counter, Gauge, TelemetryHandle};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The runtime's snapshot cadence: compact every N appends.
pub const SNAPSHOT_EVERY: usize = 1024;

/// Truncate the consumed log prefix in chunks of this many entries (the
/// drain is O(chunk), so amortised cost per append stays O(1)).
pub const TRUNCATE_CHUNK: usize = 64;

/// Coordinator-owned worker registry side channel (see module docs).
pub struct WorkerService {
    state: Mutex<ServiceState>,
    snapshot_every: usize,
    /// Number of replica shards (shards 1..=replicas) reporting cursors;
    /// set by [`WorkerService::attach_replicas`] before the runtime runs.
    replicas: usize,
    telemetry: ServiceTelemetry,
}

#[derive(Default)]
struct ServiceTelemetry {
    /// `crowd4u_worker_delta_log_len` — resident (un-truncated) entries.
    log_len: Gauge,
    /// `crowd4u_worker_min_cursor` — slowest reported replica cursor.
    min_cursor: Gauge,
    /// `crowd4u_worker_log_truncated_total` — entries dropped so far.
    truncated: Counter,
    /// `crowd4u_worker_snapshots_published_total`.
    snapshots: Counter,
    /// `crowd4u_worker_snapshot_covered` — logical events the latest
    /// published snapshot covers.
    snapshot_covered: Gauge,
    /// `crowd4u_worker_replica_lag{shard="i"}` — logical entries shard
    /// `i` has not yet installed, one gauge per replica.
    lag: Vec<Gauge>,
}

#[derive(Default)]
struct ServiceState {
    /// `(seq, profile)` per worker event, ascending seq by construction
    /// (appends draw their seq inside this lock's critical section).
    /// Physically holds only the logical suffix `[base..]`.
    log: Vec<(u64, Arc<WorkerProfile>)>,
    /// Logical position of `log[0]`: entries below `base` were consumed
    /// by every replica and truncated.
    base: usize,
    /// Running compaction of the logical prefix `[..covered]`: latest
    /// profile per worker. Maintained even with snapshots disabled —
    /// truncation folds entries in before dropping them, so a recovery
    /// can always reconstruct the full registration history
    /// (compacted prefix + resident deltas).
    compacted: BTreeMap<WorkerId, Arc<WorkerProfile>>,
    covered: usize,
    /// Sequence number of the last event folded into `compacted` (only
    /// meaningful while `covered > 0`). Recovery replays use it to check
    /// the prefix sits strictly below the first ledger entry they must
    /// interleave with.
    covered_seq: u64,
    /// Latest published snapshot, shared with every shard that uses it.
    published: Option<Arc<Snapshot>>,
    /// Per-replica logical cursors (index `shard − 1`), reported inside
    /// the sync critical sections. Empty until replicas attach.
    cursors: Vec<usize>,
    /// Whether the replica set was declared — truncation stays off until
    /// it is, so a service used bare (unit tests) keeps the full log.
    attached: bool,
}

impl ServiceState {
    /// Logical length of the append stream (what bounds are captured
    /// against).
    fn logical_len(&self) -> usize {
        self.base + self.log.len()
    }

    /// The slowest consumer: min reported cursor, or the full stream
    /// when there are no replicas to wait for.
    fn min_cursor(&self) -> usize {
        self.cursors
            .iter()
            .copied()
            .min()
            .unwrap_or_else(|| self.logical_len())
    }
}

impl WorkerService {
    /// A service compacting every `snapshot_every` appends (0 disables
    /// snapshots); the runtime uses [`SNAPSHOT_EVERY`].
    pub fn new(snapshot_every: usize) -> WorkerService {
        WorkerService {
            state: Mutex::new(ServiceState::default()),
            snapshot_every,
            replicas: 0,
            telemetry: ServiceTelemetry::default(),
        }
    }

    /// Declare the runtime's shard count so the service knows which
    /// replica cursors gate truncation (shards `1..shards`; shard 0 is
    /// the coordinator and consumes events through its own mailbox).
    /// Must be called before the shards start pulling.
    pub fn attach_replicas(&mut self, shards: usize) {
        self.replicas = shards.saturating_sub(1);
        let s = self.state.get_mut().expect("worker service poisoned");
        s.cursors = vec![0; self.replicas];
        s.attached = true;
    }

    /// Wire the service's gauges/counters to a telemetry handle. Call
    /// after [`WorkerService::attach_replicas`] so per-replica lag gauges
    /// exist for every shard.
    pub fn set_telemetry(&mut self, handle: &TelemetryHandle) {
        self.telemetry = ServiceTelemetry {
            log_len: handle.gauge("crowd4u_worker_delta_log_len"),
            min_cursor: handle.gauge("crowd4u_worker_min_cursor"),
            truncated: handle.counter("crowd4u_worker_log_truncated_total"),
            snapshots: handle.counter("crowd4u_worker_snapshots_published_total"),
            snapshot_covered: handle.gauge("crowd4u_worker_snapshot_covered"),
            lag: (1..=self.replicas)
                .map(|shard| {
                    handle.gauge_with("crowd4u_worker_replica_lag", &format!("shard=\"{shard}\""))
                })
                .collect(),
        };
    }

    /// Append a worker event, drawing its sequence number **inside** the
    /// service critical section. The caller must already hold the
    /// coordinator mailbox lock (lock order: mailbox → service); `stamp`
    /// is the gate's stamper. Returns the drawn seq.
    pub(crate) fn append_with(&self, profile: WorkerProfile, stamp: impl FnOnce() -> u64) -> u64 {
        let mut s = self.state.lock().expect("worker service poisoned");
        let seq = stamp();
        s.log.push((seq, Arc::new(profile)));
        if self.snapshot_every > 0 && s.logical_len() - s.covered >= self.snapshot_every {
            s.refresh_snapshot();
            self.telemetry.snapshots.incr();
            self.telemetry.snapshot_covered.set(s.covered as i64);
        }
        self.truncate_and_observe(&mut s);
        seq
    }

    /// Current *logical* log length — the *bound* captured for seq-less
    /// control messages. Must be read under the destination mailbox's
    /// lock for the bound to compose with seq-ordered sync.
    pub(crate) fn log_len(&self) -> usize {
        self.state
            .lock()
            .expect("worker service poisoned")
            .logical_len()
    }

    /// Number of worker events appended so far (test/bench introspection).
    pub fn events_logged(&self) -> usize {
        self.log_len()
    }

    /// Resident (un-truncated) log entries (test/bench introspection).
    pub fn resident_log_len(&self) -> usize {
        self.state
            .lock()
            .expect("worker service poisoned")
            .log
            .len()
    }

    /// Whether a snapshot has been published (test/bench introspection).
    pub fn has_snapshot(&self) -> bool {
        self.state
            .lock()
            .expect("worker service poisoned")
            .published
            .is_some()
    }

    /// Install every log entry with seq < `upto` that `cursor` has not
    /// yet consumed. Called by replica shard `shard` right before it
    /// applies its own message stamped `upto`.
    pub(crate) fn sync_below_seq(
        &self,
        shard: usize,
        cursor: &mut usize,
        upto: u64,
        platform: &mut Crowd4U,
    ) {
        let plan = {
            let mut s = self.state.lock().expect("worker service poisoned");
            // Scan physically from the resident prefix end; a cursor
            // below `base` (late fresh consumer) is served by the
            // snapshot fast-forward in `plan_install`.
            let mut target = (*cursor).max(s.base);
            while target < s.logical_len() && s.log[target - s.base].0 < upto {
                target += 1;
            }
            let plan = plan_install(&s, cursor, target, is_fresh(platform));
            self.report_cursor(&mut s, shard, *cursor);
            plan
        };
        install(plan, platform);
    }

    /// Install every log entry up to logical position `bound` (a log
    /// length captured at enqueue time) that `cursor` has not yet
    /// consumed. Called by replica shard `shard` right before it runs a
    /// seq-less control message.
    pub(crate) fn sync_to_index(
        &self,
        shard: usize,
        cursor: &mut usize,
        bound: usize,
        platform: &mut Crowd4U,
    ) {
        if *cursor >= bound {
            return;
        }
        let plan = {
            let mut s = self.state.lock().expect("worker service poisoned");
            let target = bound.min(s.logical_len());
            let plan = plan_install(&s, cursor, target, is_fresh(platform));
            self.report_cursor(&mut s, shard, *cursor);
            plan
        };
        install(plan, platform);
    }

    /// A point-in-time view of the registration history for a recovery
    /// replay: the running compaction (everything folded below the
    /// truncation point) plus the resident delta suffix. Taken under the
    /// service lock, so it is internally consistent; the caller holds the
    /// dead shard's gate traffic, so nothing the rebuilt shard needs can
    /// append after this reads.
    ///
    /// The prefix comes from the **live** compaction, not the published
    /// snapshot — truncation advances `covered` without republishing, so
    /// the snapshot can sit below `base` and strand a replay that needs
    /// the folded entries.
    pub(crate) fn recovery_feed(&self) -> crate::recovery::WorkerFeed {
        let s = self.state.lock().expect("worker service poisoned");
        let prefix = (s.covered > 0).then(|| {
            (
                s.compacted.values().cloned().collect(),
                s.covered,
                s.covered_seq,
            )
        });
        crate::recovery::WorkerFeed {
            prefix,
            deltas: s.log.clone(),
            base: s.base,
        }
    }

    /// The last cursor replica `shard` reported (0 for the coordinator or
    /// before any sync) — the worker-install high-water mark a recovery
    /// replay must reproduce, no further.
    pub(crate) fn replica_cursor(&self, shard: usize) -> usize {
        let s = self.state.lock().expect("worker service poisoned");
        if shard >= 1 && shard <= s.cursors.len() {
            s.cursors[shard - 1]
        } else {
            0
        }
    }

    /// Re-register a rebuilt replica's cursor so truncation accounting
    /// stays correct across the restart (the dead incarnation's last
    /// report is replaced, not orphaned).
    pub(crate) fn reattach(&self, shard: usize, cursor: usize) {
        let mut s = self.state.lock().expect("worker service poisoned");
        self.report_cursor(&mut s, shard, cursor);
    }

    /// Record a replica's cursor, update its lag gauge, and truncate the
    /// prefix every replica (and the compaction) is done with. Runs under
    /// the service lock.
    fn report_cursor(&self, s: &mut ServiceState, shard: usize, cursor: usize) {
        if s.attached && shard >= 1 && shard <= s.cursors.len() {
            s.cursors[shard - 1] = cursor;
            if let Some(lag) = self.telemetry.lag.get(shard - 1) {
                lag.set((s.logical_len() - cursor) as i64);
            }
        }
        self.truncate_and_observe(s);
    }

    /// Drop the consumed log prefix (in [`TRUNCATE_CHUNK`] steps) and
    /// refresh the `delta_log_len` / `min_cursor` gauges.
    fn truncate_and_observe(&self, s: &mut ServiceState) {
        let min = s.min_cursor();
        if s.attached && min - s.base >= TRUNCATE_CHUNK {
            // Fold the entries about to drop into the running compaction
            // first — unconditionally, not just when snapshots are on —
            // so a later snapshot still covers them and a recovery replay
            // can always rebuild the full history.
            if s.covered < min {
                let (from, to) = (s.covered - s.base, min - s.base);
                s.covered_seq = s.log[to - 1].0;
                let (log, compacted) = (&s.log, &mut s.compacted);
                for (_, p) in &log[from..to] {
                    compacted.insert(p.id, Arc::clone(p));
                }
                s.covered = min;
            }
            let dropped = min - s.base;
            s.log.drain(..dropped);
            s.base = min;
            self.telemetry.truncated.add(dropped as u64);
        }
        self.telemetry.log_len.set(s.log.len() as i64);
        self.telemetry.min_cursor.set(min as i64);
    }
}

/// A compacted, version-keyed view of the logical log prefix
/// `[..covered]`.
struct Snapshot {
    covered: usize,
    profiles: BTreeMap<WorkerId, Arc<WorkerProfile>>,
}

/// What a sync resolved to, computed under the service lock but installed
/// outside it (the plan holds `Arc` clones, so truncation by another
/// replica cannot invalidate it).
struct InstallPlan {
    snapshot: Option<Arc<Snapshot>>,
    deltas: Vec<Arc<WorkerProfile>>,
}

fn is_fresh(platform: &Crowd4U) -> bool {
    platform.workers.is_empty() && platform.project_ids().is_empty()
}

fn plan_install(s: &ServiceState, cursor: &mut usize, target: usize, fresh: bool) -> InstallPlan {
    let mut snapshot = None;
    if *cursor == 0 && fresh {
        if let Some(p) = &s.published {
            if p.covered <= target {
                snapshot = Some(Arc::clone(p));
                *cursor = p.covered;
            }
        }
    }
    // Attached replicas always sit at or above `base` (truncation stops
    // at their minimum); an unattached late consumer below `base` must
    // have been fast-forwarded by a covering snapshot above.
    assert!(
        *cursor >= s.base,
        "worker log truncated past an unattached replica cursor"
    );
    let deltas = s.log[(*cursor - s.base)..(target - s.base)]
        .iter()
        .map(|(_, p)| Arc::clone(p))
        .collect();
    *cursor = target;
    InstallPlan { snapshot, deltas }
}

fn install(plan: InstallPlan, platform: &mut Crowd4U) {
    if let Some(snap) = plan.snapshot {
        platform.install_worker_snapshot(
            snap.profiles.values().map(|p| (**p).clone()),
            snap.covered as u64,
        );
    }
    for p in plan.deltas {
        platform.install_worker_delta((*p).clone());
    }
}

impl ServiceState {
    fn refresh_snapshot(&mut self) {
        // Split-borrow: extend the running compaction with the new log
        // suffix, then publish an Arc'd copy keyed by how much it covers.
        let covered = self.covered - self.base;
        if let Some((seq, _)) = self.log.last() {
            self.covered_seq = *seq;
        }
        for (_, p) in &self.log[covered..] {
            self.compacted.insert(p.id, Arc::clone(p));
        }
        self.covered = self.logical_len();
        self.published = Some(Arc::new(Snapshot {
            covered: self.covered,
            profiles: self.compacted.clone(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(i: u64) -> WorkerProfile {
        WorkerProfile::new(WorkerId(i), format!("w{i}"))
    }

    fn fill(svc: &WorkerService, ids: impl IntoIterator<Item = u64>, seq: &mut u64) {
        for i in ids {
            svc.append_with(profile(i), || {
                *seq += 1;
                *seq
            });
        }
    }

    #[test]
    fn deltas_install_in_seq_order_with_version_lockstep() {
        let svc = WorkerService::new(0);
        let mut seq = 0u64;
        fill(&svc, 1..=5, &mut seq);
        let mut replica = Crowd4U::new();
        let mut cursor = 0;
        svc.sync_below_seq(1, &mut cursor, 4, &mut replica); // seqs 1..3
        assert_eq!(replica.workers.len(), 3);
        assert_eq!(replica.workers.version(), 3);
        svc.sync_below_seq(1, &mut cursor, u64::MAX, &mut replica);
        assert_eq!(replica.workers.len(), 5);
        assert_eq!(replica.workers.version(), 5);
        // Idempotent: the cursor remembers what is already installed.
        svc.sync_below_seq(1, &mut cursor, u64::MAX, &mut replica);
        assert_eq!(replica.workers.version(), 5);
    }

    #[test]
    fn index_bound_sync_stops_at_the_bound() {
        let svc = WorkerService::new(0);
        let mut seq = 0u64;
        fill(&svc, 1..=4, &mut seq);
        let mut replica = Crowd4U::new();
        let mut cursor = 0;
        svc.sync_to_index(1, &mut cursor, 2, &mut replica);
        assert_eq!(replica.workers.len(), 2);
        svc.sync_to_index(1, &mut cursor, 2, &mut replica); // no-op
        assert_eq!(replica.workers.version(), 2);
        svc.sync_to_index(1, &mut cursor, 4, &mut replica);
        assert_eq!(replica.workers.len(), 4);
    }

    #[test]
    fn fresh_replica_fast_forwards_through_snapshot() {
        let svc = WorkerService::new(2); // compact every 2 appends
        let mut seq = 0u64;
        // 3 events over 2 distinct workers: the snapshot compacts
        // re-registration churn.
        fill(&svc, [1, 2, 1], &mut seq);
        assert!(svc.has_snapshot());
        let mut replica = Crowd4U::new();
        let mut cursor = 0;
        svc.sync_below_seq(1, &mut cursor, u64::MAX, &mut replica);
        // 2 profiles resident, but version counts all 3 events — the
        // lockstep a delta-by-delta replica would reach.
        assert_eq!(replica.workers.len(), 2);
        assert_eq!(replica.workers.version(), 3);
    }

    #[test]
    fn non_fresh_replica_takes_the_delta_path() {
        let svc = WorkerService::new(1);
        let mut seq = 0u64;
        fill(&svc, 1..=3, &mut seq);
        assert!(svc.has_snapshot());
        let mut replica = Crowd4U::new();
        // Any pre-existing worker disqualifies the snapshot fast-path …
        replica.workers.register(profile(9));
        let mut cursor = 0;
        svc.sync_below_seq(1, &mut cursor, u64::MAX, &mut replica);
        // … so all 3 deltas install individually on top of it.
        assert_eq!(replica.workers.len(), 4);
        assert_eq!(replica.workers.version(), 1 + 3);
    }

    #[test]
    fn log_truncates_below_the_minimum_replica_cursor() {
        let mut svc = WorkerService::new(0);
        svc.attach_replicas(3); // replicas are shards 1 and 2
        let mut seq = 0u64;
        fill(&svc, 1..=200, &mut seq);
        assert_eq!(svc.events_logged(), 200);
        assert_eq!(svc.resident_log_len(), 200); // nobody consumed yet

        let (mut r1, mut r2) = (Crowd4U::new(), Crowd4U::new());
        let (mut c1, mut c2) = (0usize, 0usize);
        svc.sync_to_index(1, &mut c1, 150, &mut r1);
        // Replica 2 still at 0 — min cursor pins the log.
        assert_eq!(svc.resident_log_len(), 200);
        svc.sync_to_index(2, &mut c2, 100, &mut r2);
        // min cursor = 100: prefix dropped, logical length unchanged.
        assert_eq!(svc.resident_log_len(), 100);
        assert_eq!(svc.events_logged(), 200);
        // Logical cursors keep working across the truncation.
        svc.sync_to_index(2, &mut c2, 200, &mut r2);
        svc.sync_below_seq(1, &mut c1, u64::MAX, &mut r1);
        assert_eq!(r1.workers.len(), 200);
        assert_eq!(r2.workers.len(), 200);
        assert_eq!(r1.workers.version(), r2.workers.version());
        // Everyone at 200 ⇒ the whole log is reclaimable.
        assert!(svc.resident_log_len() < TRUNCATE_CHUNK);
    }

    #[test]
    fn truncation_folds_into_the_compaction_before_dropping() {
        let mut svc = WorkerService::new(1000); // snapshots on, far cadence
        svc.attach_replicas(2); // one replica: shard 1
        let mut seq = 0u64;
        fill(&svc, (1..=80).map(|i| i % 7 + 1), &mut seq);
        let mut r1 = Crowd4U::new();
        let mut c1 = 0usize;
        svc.sync_to_index(1, &mut c1, 80, &mut r1);
        assert!(svc.resident_log_len() < 80, "prefix should truncate");
        // A snapshot published *after* truncation must still cover the
        // dropped entries (the compaction absorbed them first).
        fill(&svc, 1..=1000, &mut seq);
        assert!(svc.has_snapshot());
        let mut fresh = Crowd4U::new();
        let mut c2 = 0usize;
        // Unattached replica id 2 (not in cursor set): plain consumer.
        svc.sync_below_seq(2, &mut c2, u64::MAX, &mut fresh);
        assert_eq!(fresh.workers.version(), 1080);
        assert_eq!(r1.workers.len(), 7); // ids 1..=7 from the churn prefix
        assert_eq!(fresh.workers.len(), 1000);
    }

    #[test]
    fn single_shard_runtime_reclaims_the_whole_log() {
        let mut svc = WorkerService::new(0);
        svc.attach_replicas(1); // no replicas: nothing ever pulls
        let mut seq = 0u64;
        fill(&svc, 1..=130, &mut seq);
        assert_eq!(svc.events_logged(), 130);
        assert!(svc.resident_log_len() < TRUNCATE_CHUNK);
    }

    /// A replica re-attaching after the delta log truncated below its old
    /// cursor must fast-forward through the compacted prefix — not panic,
    /// and not silently skip deltas (version lockstep pins that).
    #[test]
    fn recovery_feed_fast_forwards_past_truncation() {
        let mut svc = WorkerService::new(0); // snapshots fully disabled
        svc.attach_replicas(3); // replicas: shards 1 and 2
        let mut seq = 0u64;
        fill(&svc, 1..=150, &mut seq);
        let (mut r1, mut r2) = (Crowd4U::new(), Crowd4U::new());
        let (mut c1, mut c2) = (0usize, 0usize);
        svc.sync_to_index(1, &mut c1, 150, &mut r1);
        svc.sync_to_index(2, &mut c2, 100, &mut r2);
        // min cursor 100: the log truncated below replica 1's cursor.
        assert!(svc.resident_log_len() <= 50);
        let feed = svc.recovery_feed();
        assert!(feed.base >= 100, "prefix below base must be compacted");
        let (covered, covered_seq) = {
            let (_, covered, covered_seq) = feed.prefix.as_ref().expect("fold ran");
            (*covered, *covered_seq)
        };
        assert_eq!(covered, feed.base);
        assert_eq!(covered_seq, feed.base as u64); // seqs are 1-based here
                                                   // Rebuild replica 1 from the feed, capped at its reported cursor.
        let upto = svc.replica_cursor(1);
        assert_eq!(upto, 150);
        let (rebuilt, cursor) =
            crate::recovery::replay_slice(Crowd4U::new(), &[], Some((&feed, upto)));
        assert_eq!(cursor, 150);
        svc.reattach(1, cursor);
        assert_eq!(svc.replica_cursor(1), 150);
        // Same registry, same version lockstep as the live replica — a
        // silent delta skip would show up as a version mismatch.
        assert_eq!(rebuilt.workers.len(), 150);
        assert_eq!(rebuilt.workers.version(), r1.workers.version());
    }

    #[test]
    fn truncation_exports_gauges() {
        let registry = crowd4u_telemetry::Registry::new();
        let mut svc = WorkerService::new(0);
        svc.attach_replicas(2);
        svc.set_telemetry(&registry.handle());
        let mut seq = 0u64;
        fill(&svc, 1..=100, &mut seq);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge_total("crowd4u_worker_delta_log_len"), Some(100));
        assert_eq!(snap.gauge_total("crowd4u_worker_min_cursor"), Some(0));
        let mut r1 = Crowd4U::new();
        let mut c1 = 0usize;
        svc.sync_to_index(1, &mut c1, 100, &mut r1);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge_total("crowd4u_worker_delta_log_len"), Some(0));
        assert_eq!(snap.gauge_total("crowd4u_worker_min_cursor"), Some(100));
        assert_eq!(
            snap.counter_total("crowd4u_worker_log_truncated_total"),
            100
        );
        assert_eq!(snap.gauge_total("crowd4u_worker_replica_lag"), Some(0));
    }
}
