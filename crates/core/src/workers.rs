//! The worker manager (paper Figure 2): user properties (human factors)
//! and lazy pair affinity. It is the one store of worker facts: a
//! registration is the only way a profile changes, and declarative
//! projects read the worker-factor predicates from it as the
//! [`HostFacts`] source of their CyLog runs. A skill computed by the
//! system (a graded qualification test, an estimate) reaches it the same
//! way, as a profile the caller registers.
//!
//! Affinity is never materialised for the whole population. Pair values
//! are computed from profiles on demand and dense candidate-set
//! submatrices are built for assignment — so registering worker N is O(1)
//! in the population size instead of an O(n²) cache invalidation. The
//! assignment path pays for a pair once per change of either profile: a
//! pair memo keeps what `WorkerManager::fill_candidate_affinity` computed
//! until one of the two workers changes. The memo is a table indexed by
//! worker *slots*, handed out by the assignment path and held in the
//! registry beside each worker's change stamp, so reading a pair is an
//! array index, not a hash.

use crate::declarative::{facts_of, lost_rows, WORKER_PREDS};
use crate::error::{PlatformError, WorkerId};
use crowd4u_crowd::affinity::{
    affinity_from_profile_refs_with, group_affinity, pair_affinity_of, AffinityMatrix,
};
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_cylog::eval::HostFacts;
use crowd4u_storage::prelude::{Tuple, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The affinity synthesis weights (geo, language, skill).
const WEIGHTS: (f64, f64, f64) = (1.0, 1.0, 0.5);

/// The memo's bound in slots: four times the largest mean candidate pool
/// the collaborative workloads form teams over (66), so a crowd of up to
/// this many interested workers is memoised in full — 32 640 pairs.
/// Reaching it empties the memo, which costs only recomputation: an absent
/// pair is computed, never guessed.
const MEMO_POOL: usize = 256;

/// The slot of a worker with no pairs in the memo.
const NO_SLOT: u32 = u32::MAX;

/// A registered profile, the [`WorkerManager::version`] it last changed
/// at — its *change stamp* — and its slot in the pair memo. The profile is
/// the registrant's allocation, shared, never copied: every registry a
/// registration reaches holds the same `Arc`.
struct Registered {
    profile: Arc<WorkerProfile>,
    changed: u64,
    slot: u32,
}

impl Registered {
    /// The change stamp and slot the memo reads this worker's pairs by, or
    /// `None` while it holds no slot.
    fn memo_key(&self) -> Option<(u64, usize)> {
        (self.slot != NO_SLOT).then_some((self.changed, self.slot as usize))
    }
}

/// How an affinity submatrix was served: pair values computed from
/// profiles, and pair values read from the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairWork {
    pub computed: u64,
    pub reused: u64,
}

/// Registry of worker profiles + lazy pair affinity.
#[derive(Default)]
pub struct WorkerManager {
    profiles: BTreeMap<WorkerId, Registered>,
    /// Pair affinities the assignment path computed, lower-triangular by
    /// slot pair ([`cell`]). A cell holds the value — [`pair_affinity_of`]
    /// of the two profiles, the smaller id first — and the version it was
    /// computed at; it answers only while that version is at or past both
    /// workers' change stamps. `(0.0, 0)` is an empty cell: every stamp is
    /// at least 1.
    memo: Vec<(f64, u64)>,
    /// The worker holding each slot, at most [`MEMO_POOL`] of them.
    slots: Vec<WorkerId>,
    /// Bumped by every registration, the one way a profile changes.
    /// Epoch-based caches — the platform's eligibility cache, a declarative
    /// project's last fixpoint — compare this to detect staleness without
    /// scanning profiles.
    version: u64,
    /// Per predicate of [`WORKER_PREDS`], in its order: the version at
    /// which a registration last took a row of it from some worker.
    lost: [u64; WORKER_PREDS.len()],
}

/// The memo cell of the pair of two distinct slots.
fn cell(a: usize, b: usize) -> usize {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    hi * (hi - 1) / 2 + lo
}

impl WorkerManager {
    pub fn new() -> WorkerManager {
        WorkerManager::default()
    }

    /// Register (or re-register) a worker. O(log n): one map insert and a
    /// version bump — no affinity state exists to invalidate eagerly; the
    /// worker keeps its memo slot, and its new change stamp retires its
    /// memoised pairs. A re-registration that takes a row of a
    /// worker-factor predicate from the old profile stamps that predicate's
    /// loss; the old profile itself goes by a reference-count decrement.
    pub(crate) fn register(&mut self, profile: Arc<WorkerProfile>) {
        self.version += 1;
        let changed = self.version;
        match self.profiles.entry(profile.id) {
            Entry::Vacant(entry) => {
                entry.insert(Registered {
                    profile,
                    changed,
                    slot: NO_SLOT,
                });
            }
            Entry::Occupied(mut entry) => {
                let registered = entry.get_mut();
                let lost = lost_rows(&registered.profile, &profile);
                for (stamp, lost) in self.lost.iter_mut().zip(lost) {
                    if lost {
                        *stamp = changed;
                    }
                }
                registered.profile = profile;
                registered.changed = changed;
            }
        }
    }

    /// Profile-set version; changes whenever any profile may have changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn get(&self, id: WorkerId) -> Result<&WorkerProfile, PlatformError> {
        self.profiles
            .get(&id)
            .map(|r| &*r.profile)
            .ok_or(PlatformError::UnknownWorker(id))
    }

    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// All worker ids, ascending, as a fresh `Vec`. Prefer [`iter_ids`]
    /// (no allocation) when you only iterate.
    ///
    /// [`iter_ids`]: WorkerManager::iter_ids
    pub fn ids(&self) -> Vec<WorkerId> {
        self.profiles.keys().copied().collect()
    }

    /// All worker ids, ascending, without allocating.
    pub fn iter_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.profiles.keys().copied()
    }

    pub fn profiles(&self) -> impl Iterator<Item = &WorkerProfile> {
        self.profiles.values().map(|r| &*r.profile)
    }

    /// Pairwise affinity, computed from the two profiles. Unknown workers
    /// and self-pairs are 0, matching the dense matrix's convention.
    pub fn pair_affinity(&self, a: WorkerId, b: WorkerId) -> f64 {
        match (self.profiles.get(&a), self.profiles.get(&b)) {
            (Some(ra), Some(rb)) => {
                let (wg, wl, ws) = WEIGHTS;
                pair_affinity_of(&ra.profile, &rb.profile, wg, wl, ws)
            }
            _ => 0.0,
        }
    }

    /// Dense affinity submatrix over borrowed candidate profiles. O(k²) in
    /// the candidate count, independent of the population size; entries
    /// are bit-identical to what a full population matrix would hold.
    /// Memoised pairs are read, nothing is stored: a profile that is not
    /// the one registered under its id is never served from the memo.
    pub fn submatrix_of(&self, profiles: &[&WorkerProfile]) -> AffinityMatrix {
        let keys: Vec<Option<(u64, usize)>> = profiles
            .iter()
            .map(|p| {
                self.profiles
                    .get(&p.id)
                    .filter(|r| std::ptr::eq(&*r.profile, *p))
                    .and_then(Registered::memo_key)
            })
            .collect();
        self.memo_submatrix(profiles, &keys, |_, _| {}).0
    }

    /// Dense affinity submatrix over a candidate id set (unknown ids are
    /// skipped, so they read as affinity 0 — the dense matrix convention).
    pub fn candidate_affinity(&self, ids: &[WorkerId]) -> AffinityMatrix {
        self.submatrix_of(&self.registered(ids))
    }

    /// [`candidate_affinity`](WorkerManager::candidate_affinity) for the
    /// assignment path: every registered candidate takes a memo slot, pairs
    /// in ascending id order come from the memo while both workers are
    /// unchanged, and every such pair computed here is kept for the next
    /// call. Returns the matrix, how it was served, and the registered
    /// profiles among `ids` in `ids` order (the matrix's workers).
    pub(crate) fn fill_candidate_affinity(
        &mut self,
        ids: &[WorkerId],
    ) -> (AffinityMatrix, PairWork, Vec<&WorkerProfile>) {
        self.take_slots(ids);
        let (profiles, keys): (Vec<&WorkerProfile>, Vec<_>) = ids
            .iter()
            .filter_map(|w| self.profiles.get(w))
            .map(|r| (&*r.profile, r.memo_key()))
            .unzip();
        let mut fresh = Vec::new();
        let (matrix, work) =
            self.memo_submatrix(&profiles, &keys, |at, value| fresh.push((at, value)));
        for (at, value) in fresh {
            self.memo[at] = (value, self.version);
        }
        (matrix, work, profiles)
    }

    /// Mean pairwise affinity of a team, via a candidate submatrix —
    /// O(k²) instead of the O(n²) full-matrix build this used to force.
    pub fn team_affinity(&self, members: &[WorkerId]) -> f64 {
        group_affinity(&self.candidate_affinity(members), members)
    }

    /// The registered profiles among `ids`, in `ids` order.
    fn registered(&self, ids: &[WorkerId]) -> Vec<&WorkerProfile> {
        ids.iter()
            .filter_map(|w| self.profiles.get(w).map(|r| &*r.profile))
            .collect()
    }

    /// Give every registered worker among `ids` a memo slot. A worker that
    /// finds every slot taken empties the memo, unless the slots are all
    /// this pool's already, and the pool takes slots afresh; a pool larger
    /// than [`MEMO_POOL`] leaves its last workers without one, their pairs
    /// computed and not kept.
    fn take_slots(&mut self, ids: &[WorkerId]) {
        let (held, refused) = self.hand_out_slots(ids);
        if refused && held < self.slots.len() {
            for id in self.slots.drain(..) {
                if let Some(r) = self.profiles.get_mut(&id) {
                    r.slot = NO_SLOT;
                }
            }
            self.memo.clear();
            self.hand_out_slots(ids);
        }
        let n = self.slots.len();
        self.memo.resize(n * n.saturating_sub(1) / 2, (0.0, 0));
    }

    /// Free slots to the slotless registered workers among `ids`, in order,
    /// while any is free. Returns how many of them hold a slot and whether
    /// one was refused.
    fn hand_out_slots(&mut self, ids: &[WorkerId]) -> (usize, bool) {
        let (mut held, mut refused) = (0, false);
        for &id in ids {
            let Some(r) = self.profiles.get_mut(&id) else {
                continue;
            };
            if r.slot == NO_SLOT && self.slots.len() < MEMO_POOL {
                r.slot = self.slots.len() as u32;
                self.slots.push(id);
            }
            if r.slot == NO_SLOT {
                refused = true;
            } else {
                held += 1;
            }
        }
        (held, refused)
    }

    /// The one submatrix builder: memo hits where the memo is exact, a
    /// fresh computation elsewhere, `fresh(cell, value)` told of every
    /// computed pair the memo may keep. `keys` holds each position's
    /// [`Registered::memo_key`], or `None` where the profile is not the
    /// registered one (an unregistered id, or a copy).
    fn memo_submatrix(
        &self,
        profiles: &[&WorkerProfile],
        keys: &[Option<(u64, usize)>],
        mut fresh: impl FnMut(usize, f64),
    ) -> (AffinityMatrix, PairWork) {
        let mut reused = 0;
        let (wg, wl, ws) = WEIGHTS;
        let matrix = affinity_from_profile_refs_with(
            profiles,
            wg,
            wl,
            ws,
            |i, j| {
                let ((si, a), (sj, b)) = (keys[i]?, keys[j]?);
                let (value, at) = self.memo[cell(a, b)];
                let exact = at >= si && at >= sj;
                reused += u64::from(exact);
                exact.then_some(value)
            },
            |i, j, value| {
                if let (Some((_, a)), Some((_, b))) = (keys[i], keys[j]) {
                    fresh(cell(a, b), value);
                }
            },
        );
        let n = profiles.len() as u64;
        let computed = n * n.saturating_sub(1) / 2 - reused;
        (matrix, PairWork { computed, reused })
    }
}

/// The registry as the host source of a declarative project's CyLog runs:
/// every row is built by [`facts_of`] from the profile registered now, so
/// no project holds a copy. Change stamps give the delta a run is seeded
/// with; the per-predicate loss stamps say when it cannot be.
impl HostFacts for WorkerManager {
    fn version(&self) -> u64 {
        self.version
    }

    fn lookup(&self, pred: &str, cols: &[usize], key: &[Value], out: &mut Vec<Tuple>) {
        let mut keep = |row: Tuple| {
            if cols.iter().zip(key).all(|(&c, k)| &row[c] == k) {
                out.push(row);
            }
        };
        // Every worker-factor predicate is keyed by its worker id.
        match cols.iter().position(|&c| c == 0).map(|at| &key[at]) {
            Some(Value::Id(w)) => {
                if let Some(r) = self.profiles.get(&WorkerId(*w)) {
                    facts_of(&r.profile, pred, &mut keep);
                }
            }
            Some(_) => {}
            None => {
                for r in self.profiles.values() {
                    facts_of(&r.profile, pred, &mut keep);
                }
            }
        }
    }

    fn lost_since(&self, pred: &str, since: u64) -> bool {
        WORKER_PREDS
            .iter()
            .position(|&(name, _)| name == pred)
            .is_some_and(|i| self.lost[i] > since)
    }

    fn changed_since(&self, pred: &str, since: u64, out: &mut Vec<Tuple>) {
        for r in self.profiles.values().filter(|r| r.changed > since) {
            facts_of(&r.profile, pred, |row| out.push(row));
        }
    }
}

#[cfg(test)]
mod memo_diff;

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::affinity::AffinityLookup;
    use crowd4u_crowd::profile::Region;

    fn manager() -> WorkerManager {
        let mut m = WorkerManager::new();
        m.register(
            WorkerProfile::new(WorkerId(1), "ann")
                .with_native_lang("en")
                .with_region(Region::new("tokyo", 0.8, 0.4))
                .into(),
        );
        m.register(
            WorkerProfile::new(WorkerId(2), "bob")
                .with_native_lang("en")
                .with_region(Region::new("tokyo", 0.8, 0.4))
                .into(),
        );
        m.register(
            WorkerProfile::new(WorkerId(3), "eve")
                .with_native_lang("fr")
                .with_region(Region::new("paris", 0.1, 0.5))
                .into(),
        );
        m
    }

    #[test]
    fn register_and_lookup() {
        let mut m = manager();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.get(WorkerId(1)).unwrap().name, "ann");
        assert!(m.get(WorkerId(9)).is_err());
        let mut away = m.get(WorkerId(1)).unwrap().clone();
        away.factors.logged_in = false;
        m.register(away.into());
        assert!(!m.get(WorkerId(1)).unwrap().factors.logged_in);
        assert_eq!(m.ids(), vec![WorkerId(1), WorkerId(2), WorkerId(3)]);
        assert_eq!(m.iter_ids().collect::<Vec<_>>(), m.ids());
        assert_eq!(m.profiles().count(), 3);
    }

    #[test]
    fn affinity_is_lazy_and_tracks_registration() {
        let mut m = manager();
        let near = m.pair_affinity(WorkerId(1), WorkerId(2));
        let far = m.pair_affinity(WorkerId(1), WorkerId(3));
        assert!(near > far);
        // Registration is O(1): no dense state to rebuild, and the new
        // worker is visible to the next query.
        m.register(
            WorkerProfile::new(WorkerId(4), "dan")
                .with_native_lang("en")
                .into(),
        );
        assert!(m.pair_affinity(WorkerId(2), WorkerId(4)) > 0.0);
        assert_eq!(m.pair_affinity(WorkerId(9), WorkerId(1)), 0.0, "unknown id");
        assert_eq!(m.pair_affinity(WorkerId(2), WorkerId(2)), 0.0, "self-pair");
        // Single-pair values are bit-identical to the dense submatrix's.
        let ids = m.ids();
        let dense = m.candidate_affinity(&ids);
        assert_eq!(dense.len(), 4);
        for &a in &ids {
            for &b in &ids {
                let pair = m.pair_affinity(a, b).to_bits();
                assert_eq!(pair, dense.affinity(a, b).to_bits(), "({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn team_affinity_uses_candidate_submatrix() {
        let m = manager();
        let team = [WorkerId(1), WorkerId(2), WorkerId(3)];
        let sub = m.candidate_affinity(&team);
        let expect = crowd4u_crowd::affinity::group_affinity(&sub, &team);
        assert_eq!(m.team_affinity(&team).to_bits(), expect.to_bits());
        // Unknown members contribute 0 pairs but still count in the mean,
        // exactly as a full-population matrix lookup would score them.
        assert!(m.team_affinity(&[WorkerId(1), WorkerId(99)]) == 0.0);
        assert_eq!(m.team_affinity(&[WorkerId(1)]), 0.0);
    }

    #[test]
    fn the_memo_pays_once_per_pair_and_change() {
        let mut m = manager();
        m.register(
            WorkerProfile::new(WorkerId(4), "dan")
                .with_native_lang("en")
                .into(),
        );
        let ids = m.ids();
        let work = |computed, reused| PairWork { computed, reused };
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(6, 0));
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(0, 6));
        // A re-registration retires exactly the changed worker's three
        // pairs.
        m.register(
            WorkerProfile::new(WorkerId(2), "bob")
                .with_native_lang("fr")
                .into(),
        );
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(3, 3));
        // Descending pairs are computed in slice order and never kept.
        let reversed: Vec<WorkerId> = ids.iter().rev().copied().collect();
        assert_eq!(m.fill_candidate_affinity(&reversed).1, work(6, 0));
    }

    /// The memo's bound. Two overlapping pools whose union passes
    /// [`MEMO_POOL`] empty the memo in turn, so the first pool's refill
    /// computes every pair again; a pool larger than the bound keeps the
    /// pairs of its first `MEMO_POOL` workers and computes the rest. Every
    /// read is the fresh value and no more than `MEMO_POOL` slots are held.
    #[test]
    fn the_memo_empties_at_its_bound() {
        let mut m = WorkerManager::new();
        for i in 0..400u64 {
            let x = i as f64;
            m.register(
                WorkerProfile::new(WorkerId(i), format!("w{i}"))
                    .with_native_lang(["en", "ja", "fr"][i as usize % 3])
                    .with_region(Region::new("r", (x * 0.37).fract(), (x * 0.11).fract()))
                    .with_skill("survey", (x * 0.13).fract())
                    .into(),
            );
        }
        let pool = |ids: std::ops::Range<u64>| ids.map(WorkerId).collect::<Vec<_>>();
        let pairs = |k: u64| k * (k - 1) / 2;
        let fill = |m: &mut WorkerManager, ids: &[WorkerId]| {
            let (filled, work, _) = m.fill_candidate_affinity(ids);
            assert!(m.slots.len() <= MEMO_POOL, "{} slots", m.slots.len());
            assert_eq!(work.computed + work.reused, pairs(ids.len() as u64));
            let (wg, wl, ws) = WEIGHTS;
            let want =
                crowd4u_crowd::affinity::affinity_from_profile_refs(&m.registered(ids), wg, wl, ws);
            let bits = |a: &AffinityMatrix| -> Vec<u64> {
                a.table(ids).iter().map(|v| v.to_bits()).collect()
            };
            assert!(bits(&filled) == bits(&want), "fill over {} ids", ids.len());
            let read = m.candidate_affinity(ids);
            assert!(bits(&read) == bits(&want), "read over {} ids", ids.len());
            work
        };
        let work = |computed, reused| PairWork { computed, reused };
        let (first, second, large) = (pool(0..200), pool(100..300), pool(100..400));
        assert_eq!(fill(&mut m, &first), work(pairs(200), 0));
        assert_eq!(fill(&mut m, &first), work(0, pairs(200)));
        // The second pool's hundred new workers find 56 free slots: the memo
        // empties, and the second pool computes every pair afresh…
        assert_eq!(fill(&mut m, &second), work(pairs(200), 0));
        assert_eq!(fill(&mut m, &second), work(0, pairs(200)));
        // …and so does the first pool's refill.
        assert_eq!(fill(&mut m, &first), work(pairs(200), 0));
        // A pool past the bound is served: its first 256 workers take every
        // slot, and the pairs of its last 44 are computed and not kept.
        assert_eq!(fill(&mut m, &large), work(pairs(300), 0));
        assert_eq!(m.slots.len(), MEMO_POOL);
        assert_eq!(
            fill(&mut m, &large),
            work(pairs(300) - pairs(256), pairs(256))
        );
    }

    #[test]
    fn version_tracks_profile_changes() {
        let mut m = manager();
        let v0 = m.version();
        m.register(WorkerProfile::new(WorkerId(9), "new").into());
        let v1 = m.version();
        assert!(v1 > v0);
        // reads do not bump
        m.get(WorkerId(9)).unwrap();
        assert_eq!(m.version(), v1);
        // a re-registration does, unchanged profile or not
        m.register(WorkerProfile::new(WorkerId(9), "new").into());
        assert!(m.version() > v1);
    }

    /// The registry as a host source: rows by worker id or by scan, the
    /// rows of the workers changed since a version, and a loss stamped per
    /// predicate only by a registration that takes a row away.
    #[test]
    fn host_rows_and_loss_stamps_follow_registrations() {
        let mut m = manager();
        let rows = |m: &WorkerManager, pred: &str, cols: &[usize], key: &[Value]| {
            let mut out = Vec::new();
            m.lookup(pred, cols, key, &mut out);
            out.iter().map(|t| t.values().to_vec()).collect::<Vec<_>>()
        };
        let en = Value::Str("en".into());
        assert_eq!(
            rows(&m, "worker_native", &[1], std::slice::from_ref(&en)),
            vec![
                vec![Value::Id(1), en.clone()],
                vec![Value::Id(2), en.clone()]
            ]
        );
        assert_eq!(
            rows(&m, "worker_native", &[0], &[Value::Id(3)]),
            vec![vec![Value::Id(3), Value::Str("fr".into())]]
        );
        assert!(rows(&m, "worker_native", &[0], &[Value::Id(9)]).is_empty());
        assert!(rows(&m, "worker_native", &[0], &[Value::Int(1)]).is_empty());
        assert!(rows(&m, "no_such_pred", &[], &[]).is_empty());

        let v = m.version();
        let lost = |m: &WorkerManager| -> Vec<bool> {
            WORKER_PREDS
                .iter()
                .map(|(name, _)| m.lost_since(name, v))
                .collect()
        };
        // A new worker and a gained skill lose nothing.
        m.register(
            WorkerProfile::new(WorkerId(4), "dan")
                .with_skill("t", 0.5)
                .into(),
        );
        let ann = m.get(WorkerId(1)).unwrap().clone();
        m.register(ann.clone().with_skill("t", 0.5).into());
        assert_eq!(lost(&m), vec![false; 5]);
        let mut changed = Vec::new();
        m.changed_since("worker", v, &mut changed);
        assert_eq!(changed.len(), 2, "workers 4 and 1");
        // A logout and a skill at another level each lose their row.
        let mut away = ann.with_skill("t", 0.7);
        away.factors.logged_in = false;
        m.register(away.into());
        assert_eq!(lost(&m), vec![false, true, false, false, true]);
        assert!(!m.lost_since("worker_online", m.version()));
    }
}
