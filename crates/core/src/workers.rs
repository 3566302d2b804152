//! The worker manager (paper Figure 2): user properties (human factors),
//! lazy pair affinity, and system-computed skill refreshes from task
//! history.
//!
//! Affinity is never materialised for the whole population. Pair values
//! are computed from profiles on demand and dense candidate-set
//! submatrices are built for assignment — so registering worker N is O(1)
//! in the population size instead of an O(n²) cache invalidation. The
//! assignment path pays for a pair once per change of either profile: a
//! pair memo keeps what `WorkerManager::fill_candidate_affinity` computed
//! until one of the two workers changes.

use crate::error::{PlatformError, WorkerId};
use crowd4u_crowd::affinity::{
    affinity_from_profile_refs_with, group_affinity, pair_affinity_of, AffinityMatrix,
};
use crowd4u_crowd::estimate::{estimate_skills, EstimatorConfig, TeamObservation};
use crowd4u_crowd::profile::WorkerProfile;
use std::collections::{BTreeMap, HashMap};

/// The memo holds every pair of a pool this large: four times the largest
/// mean candidate pool the collaborative workloads form teams over (66), so
/// a crowd of up to this many interested workers is memoised in full.
const MEMO_POOL: usize = 256;

/// The memo's bound in pairs. Reaching it empties the memo, which costs
/// only recomputation: an absent pair is computed, never guessed.
const MEMO_PAIRS: usize = MEMO_POOL * (MEMO_POOL - 1) / 2;

/// A registered profile and the [`WorkerManager::version`] it last changed
/// at — its *change stamp*.
struct Registered {
    profile: WorkerProfile,
    changed: u64,
}

/// Pair affinities the assignment path computed, keyed `(smaller id,
/// larger id)`. An entry holds the value — [`pair_affinity_of`] of the two
/// profiles — and the version it was computed at; it answers only while
/// that version is at or past both workers' change stamps, and only under
/// the weights it was computed with.
#[derive(Default)]
struct PairMemo {
    weights: (f64, f64, f64),
    pairs: HashMap<(WorkerId, WorkerId), (f64, u64)>,
}

impl PairMemo {
    /// Keep `fresh`, computed at version `at` under `weights`.
    fn store(
        &mut self,
        weights: (f64, f64, f64),
        at: u64,
        fresh: Vec<((WorkerId, WorkerId), f64)>,
    ) {
        if self.weights != weights {
            self.pairs.clear();
            self.weights = weights;
        }
        for (key, value) in fresh {
            if self.pairs.len() >= MEMO_PAIRS {
                self.pairs.clear();
            }
            self.pairs.insert(key, (value, at));
        }
    }
}

/// How an affinity submatrix was served: pair values computed from
/// profiles, and pair values read from the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairWork {
    pub computed: u64,
    pub reused: u64,
}

/// Registry of worker profiles + lazy pair affinity + team-task history.
pub struct WorkerManager {
    profiles: BTreeMap<WorkerId, Registered>,
    /// The affinity synthesis weights (geo, language, skill).
    weights: (f64, f64, f64),
    /// Pair values computed so far, kept while exact.
    memo: PairMemo,
    /// Observed team outcomes, for skill estimation ([10]).
    history: Vec<TeamObservation>,
    /// Bumped on every profile change (registration, mutable access, skill
    /// refresh). Epoch-based caches — the platform's eligibility cache —
    /// compare this to detect staleness without scanning profiles.
    version: u64,
}

impl Default for WorkerManager {
    fn default() -> Self {
        WorkerManager {
            profiles: BTreeMap::new(),
            weights: (1.0, 1.0, 0.5),
            memo: PairMemo::default(),
            history: Vec::new(),
            version: 0,
        }
    }
}

impl WorkerManager {
    pub fn new() -> WorkerManager {
        WorkerManager::default()
    }

    /// Register (or re-register) a worker. O(log n): one map insert and a
    /// version bump — no affinity state exists to invalidate eagerly; the
    /// worker's new change stamp retires its memoised pairs.
    pub fn register(&mut self, profile: WorkerProfile) {
        self.version += 1;
        let changed = self.version;
        self.profiles
            .insert(profile.id, Registered { profile, changed });
    }

    /// Profile-set version; changes whenever any profile may have changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn get(&self, id: WorkerId) -> Result<&WorkerProfile, PlatformError> {
        self.profiles
            .get(&id)
            .map(|r| &r.profile)
            .ok_or(PlatformError::UnknownWorker(id))
    }

    /// Mutable profile access. Conservatively bumps the version and the
    /// worker's change stamp: the caller may change factors, which
    /// invalidates eligibility caches and the worker's memoised pairs.
    pub fn get_mut(&mut self, id: WorkerId) -> Result<&mut WorkerProfile, PlatformError> {
        let r = self
            .profiles
            .get_mut(&id)
            .ok_or(PlatformError::UnknownWorker(id))?;
        self.version += 1;
        r.changed = self.version;
        Ok(&mut r.profile)
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
        self.profiles.values().map(|r| &r.profile)
    }

    /// The affinity synthesis weights (geo, language, skill).
    pub fn weights(&self) -> (f64, f64, f64) {
        self.weights
    }

    /// Replace the affinity synthesis weights. Every pair value depends on
    /// them, so the pair memo — keyed on the weights — stops answering at
    /// once and is emptied by the next fill.
    pub fn set_weights(&mut self, w_geo: f64, w_lang: f64, w_skill: f64) {
        self.weights = (w_geo, w_lang, w_skill);
    }

    /// Pairwise affinity, computed from the two profiles. Unknown workers
    /// and self-pairs are 0, matching the dense matrix's convention.
    pub fn pair_affinity(&self, a: WorkerId, b: WorkerId) -> f64 {
        match (self.profiles.get(&a), self.profiles.get(&b)) {
            (Some(ra), Some(rb)) => {
                let (wg, wl, ws) = self.weights;
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
        let (weights, at) = (self.weights(), self.version);
        self.memo.store(weights, at, fresh);
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
            .filter_map(|w| self.profiles.get(w).map(|r| &r.profile))
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
        let weights = self.weights();
        let memo = (self.memo.weights == weights).then_some(&self.memo.pairs);
        // Each position's change stamp, or `None` for a profile that is not
        // the registered one (an unregistered id, or a copy).
        let stamps: Vec<Option<u64>> = profiles
            .iter()
            .map(|p| {
                self.profiles
                    .get(&p.id)
                    .filter(|r| std::ptr::eq(&r.profile, *p))
                    .map(|r| r.changed)
            })
            .collect();
        let mut reused = 0;
        let (wg, wl, ws) = weights;
        let matrix = affinity_from_profile_refs_with(
            profiles,
            wg,
            wl,
            ws,
            |i, j| {
                let (si, sj) = (stamps[i]?, stamps[j]?);
                let &(value, at) = memo?.get(&(profiles[i].id, profiles[j].id))?;
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

    /// Record an observed team outcome (drives skill estimation).
    pub fn record_outcome(&mut self, members: Vec<WorkerId>, quality: f64) {
        self.history.push(TeamObservation::new(members, quality));
    }

    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Re-estimate the named skill for every worker appearing in history
    /// ("computed by the system based on previously performed tasks", §2.4).
    /// Returns how many profiles were updated; each gets a new change
    /// stamp.
    pub fn refresh_skills(&mut self, skill_name: &str) -> usize {
        if self.history.is_empty() {
            return 0;
        }
        let est = estimate_skills(&self.history, &EstimatorConfig::default());
        let next = self.version + 1;
        let mut updated = 0;
        for (w, s) in &est.skills {
            if let Some(r) = self.profiles.get_mut(w) {
                r.profile.factors.set_skill(skill_name.to_string(), *s);
                r.changed = next;
                updated += 1;
            }
        }
        if updated > 0 {
            // Skills feed pair affinity; the new change stamps retire the
            // updated workers' memoised pairs.
            self.version = next;
        }
        updated
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
                .with_region(Region::new("tokyo", 0.8, 0.4)),
        );
        m.register(
            WorkerProfile::new(WorkerId(2), "bob")
                .with_native_lang("en")
                .with_region(Region::new("tokyo", 0.8, 0.4)),
        );
        m.register(
            WorkerProfile::new(WorkerId(3), "eve")
                .with_native_lang("fr")
                .with_region(Region::new("paris", 0.1, 0.5)),
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
        m.get_mut(WorkerId(1)).unwrap().factors.logged_in = false;
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
        m.register(WorkerProfile::new(WorkerId(4), "dan").with_native_lang("en"));
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
        m.register(WorkerProfile::new(WorkerId(4), "dan").with_native_lang("en"));
        let ids = m.ids();
        let work = |computed, reused| PairWork { computed, reused };
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(6, 0));
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(0, 6));
        // A re-registration, a mutable access and a skill refresh each
        // retire exactly the changed worker's three pairs.
        m.register(WorkerProfile::new(WorkerId(2), "bob").with_native_lang("fr"));
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(3, 3));
        m.get_mut(WorkerId(3)).unwrap();
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(3, 3));
        m.record_outcome(vec![WorkerId(1)], 0.9);
        m.refresh_skills("x");
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(3, 3));
        // Descending pairs are computed in slice order and never kept.
        let reversed: Vec<WorkerId> = ids.iter().rev().copied().collect();
        assert_eq!(m.fill_candidate_affinity(&reversed).1, work(6, 0));
        // New weights: nothing memoised answers, the next fill starts over.
        m.set_weights(0.0, 1.0, 0.0);
        assert_eq!(m.weights(), (0.0, 1.0, 0.0));
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(6, 0));
        assert_eq!(m.fill_candidate_affinity(&ids).1, work(0, 6));
    }

    #[test]
    fn skill_refresh_from_history() {
        let mut m = manager();
        // worker 1 consistently great, worker 3 consistently poor
        for _ in 0..5 {
            m.record_outcome(vec![WorkerId(1)], 0.95);
            m.record_outcome(vec![WorkerId(3)], 0.15);
        }
        assert_eq!(m.history_len(), 10);
        let n = m.refresh_skills("translation");
        assert_eq!(n, 2);
        let s1 = m.get(WorkerId(1)).unwrap().factors.skill("translation");
        let s3 = m.get(WorkerId(3)).unwrap().factors.skill("translation");
        assert!(s1 > 0.8, "skilled worker got {s1}");
        assert!(s3 < 0.3, "unskilled worker got {s3}");
        // worker 2 never observed: unchanged default
        assert_eq!(
            m.get(WorkerId(2)).unwrap().factors.skill("translation"),
            0.0
        );
    }

    #[test]
    fn refresh_with_no_history_is_noop() {
        let mut m = manager();
        assert_eq!(m.refresh_skills("x"), 0);
    }

    #[test]
    fn version_tracks_profile_changes() {
        let mut m = manager();
        let v0 = m.version();
        m.register(WorkerProfile::new(WorkerId(9), "new"));
        let v1 = m.version();
        assert!(v1 > v0);
        // reads do not bump
        m.get(WorkerId(9)).unwrap();
        assert_eq!(m.version(), v1);
        // mutable access bumps (conservatively)
        m.get_mut(WorkerId(9)).unwrap().factors.logged_in = false;
        assert!(m.version() > v1);
        let v2 = m.version();
        // skill refresh bumps only when profiles changed
        assert_eq!(m.refresh_skills("x"), 0);
        assert_eq!(m.version(), v2);
        m.record_outcome(vec![WorkerId(1)], 0.9);
        assert!(m.refresh_skills("x") > 0);
        assert!(m.version() > v2);
    }

    #[test]
    fn outcomes_for_unknown_workers_ignored_in_refresh() {
        let mut m = manager();
        m.record_outcome(vec![WorkerId(77)], 0.9);
        // estimate includes w77 but profile update skips it
        assert_eq!(m.refresh_skills("x"), 0);
    }
}
