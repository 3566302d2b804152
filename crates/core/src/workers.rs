//! The worker manager (paper Figure 2): user properties (human factors),
//! lazy pair affinity, and system-computed skill refreshes from task
//! history.
//!
//! Affinity is never materialised for the whole population. The manager
//! owns an [`AffinityProvider`] that computes pair values from profiles on
//! demand (with a small above-floor / top-k cache) and builds dense
//! candidate-set submatrices for assignment — so registering worker N is
//! O(1) in the population size instead of an O(n²) cache invalidation.

use crate::error::{PlatformError, WorkerId};
use crowd4u_crowd::affinity::{group_affinity, AffinityMatrix, AffinityProvider};
use crowd4u_crowd::estimate::{estimate_skills, EstimatorConfig, TeamObservation};
use crowd4u_crowd::profile::WorkerProfile;
use std::collections::BTreeMap;

/// Registry of worker profiles + lazy affinity provider + team-task history.
pub struct WorkerManager {
    profiles: BTreeMap<WorkerId, WorkerProfile>,
    /// Lazy pair-affinity source; its small cache is dropped (not rebuilt)
    /// whenever profiles change, keyed off `version`.
    provider: AffinityProvider,
    /// The `version` the provider's cache was filled under.
    provider_version: u64,
    /// Observed team outcomes, for skill estimation ([10]).
    history: Vec<TeamObservation>,
    /// Affinity synthesis weights (geo, language, skill).
    pub weights: (f64, f64, f64),
    /// Bumped on every profile change (registration, mutable access, skill
    /// refresh). Epoch-based caches — the platform's eligibility cache —
    /// compare this to detect staleness without scanning profiles.
    version: u64,
}

impl Default for WorkerManager {
    fn default() -> Self {
        let weights = (1.0, 1.0, 0.5);
        WorkerManager {
            profiles: BTreeMap::new(),
            provider: AffinityProvider::new(weights.0, weights.1, weights.2),
            provider_version: 0,
            history: Vec::new(),
            weights,
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
    /// provider's cache is dropped lazily on the next affinity query.
    pub fn register(&mut self, profile: WorkerProfile) {
        self.profiles.insert(profile.id, profile);
        self.version += 1;
    }

    /// Profile-set version; changes whenever any profile may have changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    pub fn get(&self, id: WorkerId) -> Result<&WorkerProfile, PlatformError> {
        self.profiles
            .get(&id)
            .ok_or(PlatformError::UnknownWorker(id))
    }

    /// Mutable profile access. Conservatively bumps the version: the caller
    /// may change factors, which invalidates eligibility caches.
    pub fn get_mut(&mut self, id: WorkerId) -> Result<&mut WorkerProfile, PlatformError> {
        let p = self
            .profiles
            .get_mut(&id)
            .ok_or(PlatformError::UnknownWorker(id))?;
        self.version += 1;
        Ok(p)
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
        self.profiles.values()
    }

    /// Pairwise affinity, computed lazily from the two profiles (cached
    /// per the provider's floor / top-k policy). Unknown workers and
    /// self-pairs are 0, matching the dense matrix's convention.
    pub fn pair_affinity(&mut self, a: WorkerId, b: WorkerId) -> f64 {
        self.ensure_provider_fresh();
        match (self.profiles.get(&a), self.profiles.get(&b)) {
            (Some(pa), Some(pb)) => self.provider.pair(pa, pb),
            _ => 0.0,
        }
    }

    /// Dense affinity submatrix over borrowed candidate profiles — the
    /// assignment-time path. O(k²) in the candidate count, independent of
    /// the population size; entries are bit-identical to what a full
    /// population matrix would hold.
    pub fn submatrix_of(&self, profiles: &[&WorkerProfile]) -> AffinityMatrix {
        let (wg, wl, ws) = self.weights;
        crowd4u_crowd::affinity::affinity_from_profile_refs(profiles, wg, wl, ws)
    }

    /// Dense affinity submatrix over a candidate id set (unknown ids are
    /// skipped, so they read as affinity 0 — the dense matrix convention).
    pub fn candidate_affinity(&self, ids: &[WorkerId]) -> AffinityMatrix {
        let profiles: Vec<&WorkerProfile> =
            ids.iter().filter_map(|w| self.profiles.get(w)).collect();
        self.submatrix_of(&profiles)
    }

    /// Mean pairwise affinity of a team, via a candidate submatrix —
    /// O(k²) instead of the O(n²) full-matrix build this used to force.
    pub fn team_affinity(&self, members: &[WorkerId]) -> f64 {
        group_affinity(&self.candidate_affinity(members), members)
    }

    /// Configure the provider's pair cache (floor + per-worker top-k).
    pub fn set_affinity_cache(&mut self, floor: f64, top_k: usize) {
        self.provider.set_cache_policy(floor, top_k);
    }

    /// Resident affinity cache entries — the manager's entire affinity
    /// footprint (there is no dense matrix).
    pub fn cached_affinity_entries(&self) -> usize {
        self.provider.cached_entries()
    }

    /// Drop the provider's cache when profiles or weights changed since it
    /// was filled. O(1) when nothing changed; clearing is O(cache), never
    /// O(population²).
    fn ensure_provider_fresh(&mut self) {
        if self.provider_version != self.version {
            self.provider.clear();
            self.provider_version = self.version;
        }
        let (wg, wl, ws) = self.weights;
        self.provider.set_weights(wg, wl, ws); // no-op unless changed
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
    /// Returns how many profiles were updated.
    pub fn refresh_skills(&mut self, skill_name: &str) -> usize {
        if self.history.is_empty() {
            return 0;
        }
        let est = estimate_skills(&self.history, &EstimatorConfig::default());
        let mut updated = 0;
        for (w, s) in &est.skills {
            if let Some(p) = self.profiles.get_mut(w) {
                p.factors.set_skill(skill_name.to_string(), *s);
                updated += 1;
            }
        }
        if updated > 0 {
            // Skills feed pair affinity; the version bump drops the
            // provider's cache on the next query.
            self.version += 1;
        }
        updated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(m.cached_affinity_entries() > 0, "queried pairs are cached");
        // Registration is O(1): no dense state to rebuild. The stale cache
        // is dropped on the next query and the new worker is visible.
        m.register(WorkerProfile::new(WorkerId(4), "dan").with_native_lang("en"));
        assert!(m.pair_affinity(WorkerId(2), WorkerId(4)) > 0.0);
        assert_eq!(m.pair_affinity(WorkerId(9), WorkerId(1)), 0.0, "unknown id");
        assert_eq!(m.candidate_affinity(&m.ids()).len(), 4);
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
    fn affinity_cache_policy_bounds_entries() {
        let mut m = manager();
        m.set_affinity_cache(0.0, 1);
        for a in m.ids() {
            for b in m.ids() {
                m.pair_affinity(a, b);
            }
        }
        assert!(m.cached_affinity_entries() <= 2 * m.len());
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
