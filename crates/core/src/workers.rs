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
//! until one of the two workers changes.

use crate::declarative::{facts_of, lost_rows, WORKER_PREDS};
use crate::error::{PlatformError, WorkerId};
use crowd4u_crowd::affinity::{
    affinity_from_profile_refs_with, group_affinity, pair_affinity_of, AffinityMatrix,
};
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_cylog::eval::HostFacts;
use crowd4u_storage::prelude::{Tuple, Value};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The affinity synthesis weights (geo, language, skill).
const WEIGHTS: (f64, f64, f64) = (1.0, 1.0, 0.5);

/// The memo holds every pair of a pool this large: four times the largest
/// mean candidate pool the collaborative workloads form teams over (66), so
/// a crowd of up to this many interested workers is memoised in full.
const MEMO_POOL: usize = 256;

/// The memo's bound in pairs. Reaching it empties the memo, which costs
/// only recomputation: an absent pair is computed, never guessed.
const MEMO_PAIRS: usize = MEMO_POOL * (MEMO_POOL - 1) / 2;

/// A registered profile and the [`WorkerManager::version`] it last changed
/// at — its *change stamp*. The profile is the registrant's allocation,
/// shared, never copied: every registry a registration reaches holds the
/// same `Arc`.
struct Registered {
    profile: Arc<WorkerProfile>,
    changed: u64,
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
    /// Pair affinities the assignment path computed, keyed `(smaller id,
    /// larger id)`. An entry holds the value — [`pair_affinity_of`] of the
    /// two profiles — and the version it was computed at; it answers only
    /// while that version is at or past both workers' change stamps.
    memo: HashMap<(WorkerId, WorkerId), (f64, u64)>,
    /// Bumped by every registration, the one way a profile changes.
    /// Epoch-based caches — the platform's eligibility cache, a declarative
    /// project's last fixpoint — compare this to detect staleness without
    /// scanning profiles.
    version: u64,
    /// Per predicate of [`WORKER_PREDS`], in its order: the version at
    /// which a registration last took a row of it from some worker.
    lost: [u64; WORKER_PREDS.len()],
}

impl WorkerManager {
    pub fn new() -> WorkerManager {
        WorkerManager::default()
    }

    /// Register (or re-register) a worker. O(log n): one map insert and a
    /// version bump — no affinity state exists to invalidate eagerly; the
    /// worker's new change stamp retires its memoised pairs. A
    /// re-registration that takes a row of a worker-factor predicate from
    /// the old profile stamps that predicate's loss; the old profile itself
    /// goes by a reference-count decrement.
    pub(crate) fn register(&mut self, profile: Arc<WorkerProfile>) {
        self.version += 1;
        let changed = self.version;
        let fresh = Registered { profile, changed };
        match self.profiles.entry(fresh.profile.id) {
            Entry::Vacant(slot) => {
                slot.insert(fresh);
            }
            Entry::Occupied(mut slot) => {
                let lost = lost_rows(&slot.get().profile, &fresh.profile);
                for (stamp, lost) in self.lost.iter_mut().zip(lost) {
                    if lost {
                        *stamp = changed;
                    }
                }
                slot.insert(fresh);
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
        self.memo_submatrix(profiles, |_, _| {}).0
    }

    /// Dense affinity submatrix over a candidate id set (unknown ids are
    /// skipped, so they read as affinity 0 — the dense matrix convention).
    pub fn candidate_affinity(&self, ids: &[WorkerId]) -> AffinityMatrix {
        self.submatrix_of(&self.registered(ids))
    }

    /// [`candidate_affinity`](WorkerManager::candidate_affinity) for the
    /// assignment path: pairs in ascending id order come from the memo
    /// while both workers are unchanged, and every such pair computed here
    /// is kept for the next call. Returns the matrix and how it was served.
    pub(crate) fn fill_candidate_affinity(
        &mut self,
        ids: &[WorkerId],
    ) -> (AffinityMatrix, PairWork) {
        let mut fresh = Vec::new();
        let (matrix, work) =
            self.memo_submatrix(&self.registered(ids), |key, value| fresh.push((key, value)));
        for (key, value) in fresh {
            if self.memo.len() >= MEMO_PAIRS {
                self.memo.clear();
            }
            self.memo.insert(key, (value, self.version));
        }
        (matrix, work)
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

    /// The one submatrix builder: memo hits where the memo is exact, a
    /// fresh computation elsewhere, `fresh(key, value)` told of every
    /// computed pair the memo may keep.
    fn memo_submatrix(
        &self,
        profiles: &[&WorkerProfile],
        mut fresh: impl FnMut((WorkerId, WorkerId), f64),
    ) -> (AffinityMatrix, PairWork) {
        // Each position's change stamp, or `None` for a profile that is not
        // the registered one (an unregistered id, or a copy): the registered
        // one is the `Arc`'s target itself.
        let stamps: Vec<Option<u64>> = profiles
            .iter()
            .map(|p| {
                self.profiles
                    .get(&p.id)
                    .filter(|r| std::ptr::eq(&*r.profile, *p))
                    .map(|r| r.changed)
            })
            .collect();
        let mut reused = 0;
        let (wg, wl, ws) = WEIGHTS;
        let matrix = affinity_from_profile_refs_with(
            profiles,
            wg,
            wl,
            ws,
            |i, j| {
                let (si, sj) = (stamps[i]?, stamps[j]?);
                let &(value, at) = self.memo.get(&(profiles[i].id, profiles[j].id))?;
                let exact = at >= si && at >= sj;
                reused += u64::from(exact);
                exact.then_some(value)
            },
            |i, j, value| {
                if stamps[i].is_some() && stamps[j].is_some() {
                    fresh((profiles[i].id, profiles[j].id), value);
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
