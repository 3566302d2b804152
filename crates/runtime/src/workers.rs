//! The coordinator-owned worker service.
//!
//! A `WorkerRegistered` event is not broadcast: a broadcast would cost
//! O(shards) queue pushes and O(shards) full applies per registration, the
//! fan-out that makes million-worker churn infeasible. The event is routed
//! to **shard 0 (the coordinator) only**, which journals and applies it;
//! this service is the side channel the other shards use to replicate the
//! effect *exactly where a broadcast would have placed it* in their own
//! apply order.
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
//! A non-coordinator shard pulls at exactly the places a broadcast would
//! have interleaved worker events with its stream:
//!
//! * before applying a seq-stamped message (event or drain) at seq `S`:
//!   every log entry with seq < `S` (`pull_below_seq`);
//! * before running a job (a query, a flush, the hand-back at finish): up
//!   to the log length captured when the job was enqueued (the
//!   *bound*, recorded under the mailbox lock by the gate;
//!   `pull_to_index`).
//!
//! A pull only *hands the deltas over*. The shard files them in its own
//! ledger slot, reports its new cursor here, and then installs them
//! through `Crowd4U::install_worker_delta` — registration minus the
//! journal entry and counter — so `WorkerManager::version()` advances in
//! the same lockstep the eligibility epoch cache and the determinism
//! contract key on. The service never sees a platform and never
//! reconstructs history: what a replica installed is remembered in that
//! replica's slot, which is what recovery and migration replay.
//!
//! ## Truncation (bounded log)
//!
//! Cursors and bounds are **logical** positions in the append stream. The
//! resident `log` vector only holds the suffix `[base..]`: each replica
//! reports its cursor back *after filing what it pulled*, and once every
//! reported cursor has moved at least [`TRUNCATE_CHUNK`] entries past
//! `base`, the consumed prefix is dropped and `base` advances — nothing
//! is kept of it here, because every replica's ledger already holds it.
//! A runtime with no replicas (one shard) treats the whole log as
//! consumed. Pulled entries are `Arc` clones taken under the lock, so a
//! concurrent truncation by another replica can never pull data out from
//! under an install. The bound is observable: the service exports
//! `crowd4u_worker_delta_log_len` (resident entries) and
//! `crowd4u_worker_min_cursor` gauges, both written under the service
//! lock.

use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_telemetry::{Counter, Gauge, TelemetryHandle};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Truncate the consumed log prefix in chunks of this many entries (the
/// drain is O(chunk), so amortised cost per append stays O(1)).
pub const TRUNCATE_CHUNK: usize = 64;

/// One log entry as a pull hands it over: the event's global sequence
/// number and its profile, shared with the service's log.
pub(crate) type Delta = (u64, Arc<WorkerProfile>);

/// Coordinator-owned worker registry side channel (see module docs).
#[derive(Default)]
pub struct WorkerService {
    state: Mutex<ServiceState>,
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
    /// `crowd4u_worker_replica_lag{shard="i"}` — entries shard `i` has
    /// not yet filed in its ledger, one gauge per replica.
    lag: Vec<Gauge>,
}

#[derive(Default)]
struct ServiceState {
    /// `(seq, profile)` per worker event, ascending seq by construction
    /// (appends draw their seq inside this lock's critical section).
    /// Physically holds only the logical suffix `[base..]`.
    log: Vec<Delta>,
    /// Logical position of `log[0]`: entries below `base` were filed by
    /// every replica and dropped.
    base: usize,
    /// Per-replica logical cursors (index `shard − 1`), reported after
    /// each filing. Empty until replicas attach.
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

    /// `Arc` clones of the logical range `[cursor..target]`.
    fn hand_over(&self, cursor: usize, target: usize) -> Vec<Delta> {
        // Replicas report only what they filed and truncation stops at
        // the minimum report, so a live cursor never sits below `base`.
        assert!(
            cursor >= self.base,
            "worker log truncated past a replica cursor ({cursor} < base {})",
            self.base
        );
        self.log[(cursor - self.base)..(target - self.base)].to_vec()
    }
}

impl WorkerService {
    pub fn new() -> WorkerService {
        WorkerService::default()
    }

    /// The one way to the state. A poisoned lock is taken over, not
    /// propagated: the state is a push and a `drain`, there is no
    /// half-applied invariant a panicking holder could leave behind.
    fn state(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Declare the runtime's shard count so the service knows which
    /// replica cursors gate truncation (shards `1..shards`; shard 0 is
    /// the coordinator and consumes events through its own mailbox).
    /// Must be called before the shards start pulling.
    pub fn attach_replicas(&mut self, shards: usize) {
        self.replicas = shards.saturating_sub(1);
        let mut s = self.state();
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
    /// is the gate's stamper, and `profile` arrives allocated, so neither
    /// lock is held across a profile copy. Returns the drawn seq.
    pub(crate) fn append_with(
        &self,
        profile: Arc<WorkerProfile>,
        stamp: impl FnOnce() -> u64,
    ) -> u64 {
        let mut s = self.state();
        let seq = stamp();
        s.log.push((seq, profile));
        self.truncate_and_observe(&mut s);
        seq
    }

    /// Current *logical* log length — the *bound* captured for seq-less
    /// control messages. Must be read under the destination mailbox's
    /// lock for the bound to compose with seq-ordered sync.
    pub(crate) fn log_len(&self) -> usize {
        self.state().logical_len()
    }

    /// Number of worker events appended so far (test/bench introspection).
    pub fn events_logged(&self) -> usize {
        self.log_len()
    }

    /// Resident (un-truncated) log entries (test/bench introspection).
    pub fn resident_log_len(&self) -> usize {
        self.state().log.len()
    }

    /// Every log entry from logical position `cursor` with seq < `upto`.
    /// Called by a replica right before it applies its own message
    /// stamped `upto`.
    pub(crate) fn pull_below_seq(&self, cursor: usize, upto: u64) -> Vec<Delta> {
        let s = self.state();
        let mut target = cursor.max(s.base);
        while target < s.logical_len() && s.log[target - s.base].0 < upto {
            target += 1;
        }
        s.hand_over(cursor, target)
    }

    /// Every log entry from logical position `cursor` up to `bound` (a
    /// log length captured at enqueue time). Called by a replica right
    /// before it runs a seq-less control message.
    pub(crate) fn pull_to_index(&self, cursor: usize, bound: usize) -> Vec<Delta> {
        if cursor >= bound {
            return Vec::new();
        }
        let s = self.state();
        s.hand_over(cursor, bound.min(s.logical_len()))
    }

    /// Record that replica `shard` has *filed* everything below `cursor`
    /// in its ledger slot, update its lag gauge, and drop the prefix
    /// every replica is done with. A report before the filing could
    /// truncate entries a crash would then need; reports for shards
    /// outside the replica set (the coordinator) only refresh the gauges.
    pub(crate) fn report_cursor(&self, shard: usize, cursor: usize) {
        let mut s = self.state();
        if s.attached && shard >= 1 && shard <= s.cursors.len() {
            s.cursors[shard - 1] = cursor;
            if let Some(lag) = self.telemetry.lag.get(shard - 1) {
                lag.set((s.logical_len() - cursor) as i64);
            }
        }
        self.truncate_and_observe(&mut s);
    }

    /// Drop the consumed log prefix (in [`TRUNCATE_CHUNK`] steps) and
    /// refresh the `delta_log_len` / `min_cursor` gauges.
    fn truncate_and_observe(&self, s: &mut ServiceState) {
        let min = s.min_cursor();
        if s.attached && min - s.base >= TRUNCATE_CHUNK {
            let dropped = min - s.base;
            s.log.drain(..dropped);
            s.base = min;
            self.telemetry.truncated.add(dropped as u64);
        }
        self.telemetry.log_len.set(s.log.len() as i64);
        self.telemetry.min_cursor.set(min as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_core::platform::Crowd4U;
    use crowd4u_crowd::profile::WorkerId;

    fn profile(i: u64) -> WorkerProfile {
        WorkerProfile::new(WorkerId(i), format!("w{i}"))
    }

    fn fill(svc: &WorkerService, ids: impl IntoIterator<Item = u64>, seq: &mut u64) {
        for i in ids {
            svc.append_with(Arc::new(profile(i)), || {
                *seq += 1;
                *seq
            });
        }
    }

    /// What a replica shard does with a pull, minus the ledger: advance
    /// the cursor, report it, install.
    fn consume(
        svc: &WorkerService,
        shard: usize,
        cursor: &mut usize,
        pulled: Vec<Delta>,
        replica: &mut Crowd4U,
    ) {
        *cursor += pulled.len();
        svc.report_cursor(shard, *cursor);
        for (_, p) in pulled {
            replica.install_worker_delta((*p).clone());
        }
    }

    fn sync_below_seq(
        svc: &WorkerService,
        shard: usize,
        cursor: &mut usize,
        upto: u64,
        replica: &mut Crowd4U,
    ) {
        let pulled = svc.pull_below_seq(*cursor, upto);
        consume(svc, shard, cursor, pulled, replica);
    }

    fn sync_to_index(
        svc: &WorkerService,
        shard: usize,
        cursor: &mut usize,
        bound: usize,
        replica: &mut Crowd4U,
    ) {
        let pulled = svc.pull_to_index(*cursor, bound);
        consume(svc, shard, cursor, pulled, replica);
    }

    #[test]
    fn deltas_install_in_seq_order_with_version_lockstep() {
        let svc = WorkerService::new();
        let mut seq = 0u64;
        // Five events over four workers: the last re-registers worker 1.
        fill(&svc, [1, 2, 3, 4, 1], &mut seq);
        let mut replica = Crowd4U::new();
        let mut cursor = 0;
        sync_below_seq(&svc, 1, &mut cursor, 4, &mut replica); // seqs 1..3
        assert_eq!(replica.workers.len(), 3);
        assert_eq!(replica.workers.version(), 3);
        sync_below_seq(&svc, 1, &mut cursor, u64::MAX, &mut replica);
        // `version()` counts events, not distinct workers.
        assert_eq!(replica.workers.len(), 4);
        assert_eq!(replica.workers.version(), 5);
        // Idempotent: the cursor remembers what is already installed.
        sync_below_seq(&svc, 1, &mut cursor, u64::MAX, &mut replica);
        assert_eq!(replica.workers.version(), 5);
    }

    #[test]
    fn index_bound_sync_stops_at_the_bound() {
        let svc = WorkerService::new();
        let mut seq = 0u64;
        fill(&svc, 1..=4, &mut seq);
        let mut replica = Crowd4U::new();
        let mut cursor = 0;
        sync_to_index(&svc, 1, &mut cursor, 2, &mut replica);
        assert_eq!(replica.workers.len(), 2);
        sync_to_index(&svc, 1, &mut cursor, 2, &mut replica); // no-op
        assert_eq!(replica.workers.version(), 2);
        sync_to_index(&svc, 1, &mut cursor, 4, &mut replica);
        assert_eq!(replica.workers.len(), 4);
    }

    #[test]
    fn log_truncates_below_the_minimum_replica_cursor() {
        let mut svc = WorkerService::new();
        svc.attach_replicas(3); // replicas are shards 1 and 2
        let mut seq = 0u64;
        fill(&svc, 1..=200, &mut seq);
        assert_eq!(svc.events_logged(), 200);
        assert_eq!(svc.resident_log_len(), 200); // nobody consumed yet

        let (mut r1, mut r2) = (Crowd4U::new(), Crowd4U::new());
        let (mut c1, mut c2) = (0usize, 0usize);
        sync_to_index(&svc, 1, &mut c1, 150, &mut r1);
        // Replica 2 still at 0 — min cursor pins the log.
        assert_eq!(svc.resident_log_len(), 200);
        sync_to_index(&svc, 2, &mut c2, 100, &mut r2);
        // min cursor = 100: prefix dropped, logical length unchanged.
        assert_eq!(svc.resident_log_len(), 100);
        assert_eq!(svc.events_logged(), 200);
        // Logical cursors keep working across the truncation.
        sync_to_index(&svc, 2, &mut c2, 200, &mut r2);
        sync_below_seq(&svc, 1, &mut c1, u64::MAX, &mut r1);
        assert_eq!(r1.workers.len(), 200);
        assert_eq!(r2.workers.len(), 200);
        assert_eq!(r1.workers.version(), r2.workers.version());
        // Everyone at 200 ⇒ the whole log is reclaimable.
        assert!(svc.resident_log_len() < TRUNCATE_CHUNK);
    }

    /// The service frees only what a replica says it has filed: handing
    /// the entries over is not enough, because a replica that dies with
    /// the pull in hand must be able to pull it again.
    #[test]
    fn a_pull_alone_frees_nothing_a_report_does() {
        let mut svc = WorkerService::new();
        svc.attach_replicas(2); // one replica: shard 1
        let mut seq = 0u64;
        fill(&svc, 1..=100, &mut seq);
        let pulled = svc.pull_to_index(0, 100);
        assert_eq!(pulled.len(), 100);
        assert_eq!(svc.resident_log_len(), 100);
        // The same range is still there for a second pull.
        assert_eq!(svc.pull_below_seq(0, u64::MAX).len(), 100);
        svc.report_cursor(1, 100);
        assert_eq!(svc.resident_log_len(), 0);
        assert_eq!(svc.events_logged(), 100);
        // The pulled `Arc`s outlive the truncation.
        assert_eq!(pulled[99].1.id, WorkerId(100));
    }

    #[test]
    fn single_shard_runtime_reclaims_the_whole_log() {
        let mut svc = WorkerService::new();
        svc.attach_replicas(1); // no replicas: nothing ever pulls
        let mut seq = 0u64;
        fill(&svc, 1..=130, &mut seq);
        assert_eq!(svc.events_logged(), 130);
        assert!(svc.resident_log_len() < TRUNCATE_CHUNK);
    }

    #[test]
    fn truncation_exports_gauges() {
        let registry = crowd4u_telemetry::Registry::new();
        let mut svc = WorkerService::new();
        svc.attach_replicas(2);
        svc.set_telemetry(&registry.handle());
        let mut seq = 0u64;
        fill(&svc, 1..=100, &mut seq);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge_total("crowd4u_worker_delta_log_len"), Some(100));
        assert_eq!(snap.gauge_total("crowd4u_worker_min_cursor"), Some(0));
        let mut r1 = Crowd4U::new();
        let mut c1 = 0usize;
        sync_to_index(&svc, 1, &mut c1, 100, &mut r1);
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
