//! The worker-to-worker affinity matrix.
//!
//! Paper §2.2: "the worker affinity matrix … maintains the information on
//! how a pair of workers is expected to work well". Affinities are symmetric
//! values in `[0, 1]` over unordered worker pairs.
//!
//! Three representations are provided (the `ablations` bench's ablation 2
//! compares the first two):
//! * [`AffinityMatrix`] — dense lower-triangular storage, O(1) lookup;
//! * [`SparseAffinity`] — hash-map storage for sparse populations;
//! * [`AffinityProvider`] — *lazy* computation from profiles with a
//!   per-worker cache of the pairs asked for, so a million-worker
//!   population never materialises O(n²) state.
//!
//! The first two implement [`AffinityLookup`], the trait the assignment
//! algorithms consume; the provider produces dense candidate-set
//! *submatrices* on demand (bit-identical to the full matrix's entries)
//! and answers single-pair queries directly.

use crate::profile::{WorkerId, WorkerProfile};
use std::cell::OnceCell;
use std::collections::HashMap;

/// Read interface used by team-formation algorithms.
pub trait AffinityLookup {
    /// Symmetric affinity between two workers; 0.0 when unknown. The
    /// affinity of a worker with itself is defined as 0 (no self-pairs).
    fn affinity(&self, a: WorkerId, b: WorkerId) -> f64;

    /// Row-major `n × n` table of the pair affinities among `ids`: entry
    /// `p * n + q` is exactly `affinity(ids[p], ids[q])`. A search that
    /// reads the same pairs many times fills this once and then works on
    /// positions in `ids` instead of worker ids.
    fn table(&self, ids: &[WorkerId]) -> Vec<f64> {
        let mut tab = Vec::with_capacity(ids.len() * ids.len());
        for &a in ids {
            tab.extend(ids.iter().map(|&b| self.affinity(a, b)));
        }
        tab
    }
}

/// Dense symmetric affinity matrix over a fixed worker universe.
#[derive(Debug, Clone)]
pub struct AffinityMatrix {
    ids: Vec<WorkerId>,
    index: HashMap<WorkerId, usize>,
    /// Lower triangle, row-major: entry (i, j) with i > j at `i*(i-1)/2 + j`.
    tri: Vec<f64>,
}

impl AffinityMatrix {
    /// Create a zero matrix over the given workers.
    pub fn new(ids: Vec<WorkerId>) -> AffinityMatrix {
        let n = ids.len();
        let pairs = if n < 2 { 0 } else { n * (n - 1) / 2 };
        let index = ids
            .iter()
            .copied()
            .enumerate()
            .map(|(i, w)| (w, i))
            .collect();
        AffinityMatrix {
            ids,
            index,
            tri: vec![0.0; pairs],
        }
    }

    pub fn workers(&self) -> &[WorkerId] {
        &self.ids
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn slot(&self, a: WorkerId, b: WorkerId) -> Option<usize> {
        tri_slot(*self.index.get(&a)?, *self.index.get(&b)?)
    }

    /// Set the symmetric affinity (clamped to `[0,1]`). Unknown workers or
    /// self-pairs are ignored.
    pub fn set(&mut self, a: WorkerId, b: WorkerId, value: f64) {
        if let Some(s) = self.slot(a, b) {
            self.tri[s] = value.clamp(0.0, 1.0);
        }
    }

    /// Mean affinity across all pairs (0.0 for < 2 workers).
    pub fn mean(&self) -> f64 {
        if self.tri.is_empty() {
            return 0.0;
        }
        self.tri.iter().sum::<f64>() / self.tri.len() as f64
    }
}

/// Position of the unordered pair of matrix indices `(i, j)` in the lower
/// triangle; `None` for the diagonal.
fn tri_slot(i: usize, j: usize) -> Option<usize> {
    if i == j {
        return None;
    }
    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
    Some(hi * (hi - 1) / 2 + lo)
}

impl AffinityLookup for AffinityMatrix {
    fn affinity(&self, a: WorkerId, b: WorkerId) -> f64 {
        self.slot(a, b).map(|s| self.tri[s]).unwrap_or(0.0)
    }

    /// Resolves each id to its matrix index once (`n` hash probes, not
    /// `2n²`) and copies from the triangle; unknown ids and self-pairs
    /// stay 0.0, as in [`affinity`](AffinityLookup::affinity).
    fn table(&self, ids: &[WorkerId]) -> Vec<f64> {
        let n = ids.len();
        let at: Vec<Option<usize>> = ids.iter().map(|w| self.index.get(w).copied()).collect();
        let mut tab = vec![0.0; n * n];
        for (p, i) in at.iter().enumerate() {
            for (q, j) in at.iter().enumerate().skip(p + 1) {
                if let Some(s) = i.zip(*j).and_then(|(i, j)| tri_slot(i, j)) {
                    tab[p * n + q] = self.tri[s];
                    tab[q * n + p] = self.tri[s];
                }
            }
        }
        tab
    }
}

/// Sparse affinity storage: only non-zero pairs are kept.
#[derive(Debug, Clone, Default)]
pub struct SparseAffinity {
    map: HashMap<(WorkerId, WorkerId), f64>,
}

impl SparseAffinity {
    pub fn new() -> SparseAffinity {
        SparseAffinity::default()
    }

    fn key(a: WorkerId, b: WorkerId) -> (WorkerId, WorkerId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    pub fn set(&mut self, a: WorkerId, b: WorkerId, value: f64) {
        if a == b {
            return;
        }
        let v = value.clamp(0.0, 1.0);
        if v == 0.0 {
            self.map.remove(&Self::key(a, b));
        } else {
            self.map.insert(Self::key(a, b), v);
        }
    }

    pub fn pair_count(&self) -> usize {
        self.map.len()
    }
}

impl AffinityLookup for SparseAffinity {
    fn affinity(&self, a: WorkerId, b: WorkerId) -> f64 {
        if a == b {
            return 0.0;
        }
        self.map.get(&Self::key(a, b)).copied().unwrap_or(0.0)
    }
}

/// Derive an affinity matrix from worker profiles, combining:
/// * geographic proximity (closer ⇒ higher), weight `w_geo`;
/// * language overlap (shared fluent languages), weight `w_lang`;
/// * skill-profile similarity, weight `w_skill`.
///
/// Weights are renormalised to sum to 1.
pub fn affinity_from_profiles(
    workers: &[WorkerProfile],
    w_geo: f64,
    w_lang: f64,
    w_skill: f64,
) -> AffinityMatrix {
    let refs: Vec<&WorkerProfile> = workers.iter().collect();
    affinity_from_profile_refs(&refs, w_geo, w_lang, w_skill)
}

/// [`affinity_from_profiles`] over borrowed profiles — the entry point
/// for computing a *submatrix* (e.g. an assignment's candidate set)
/// without cloning profiles or touching the rest of the population. Pair
/// affinity is a pure function of the two profiles and the weights, so a
/// submatrix entry is bit-identical to the full matrix's.
pub fn affinity_from_profile_refs(
    workers: &[&WorkerProfile],
    w_geo: f64,
    w_lang: f64,
    w_skill: f64,
) -> AffinityMatrix {
    affinity_from_profile_refs_with(workers, w_geo, w_lang, w_skill, |_, _| None, |_, _, _| {})
}

/// [`affinity_from_profile_refs`] with a pair memo around it. Positions
/// `i < j` whose ids ascend (`workers[i].id < workers[j].id`) are the pairs
/// whose slice-order value *is* [`pair_affinity_of`]: for those,
/// `known(i, j)` is asked first, and `computed(i, j, value)` hears every
/// one it did not answer. Every other pair — a descending or repeated id —
/// is computed in slice order and reported to neither, because the
/// skill-union sum is order-sensitive in the last ulp. A worker's features
/// are read out of its profile the first time one of its pairs is
/// computed, so a submatrix `known` serves in full reads no profile maps.
pub fn affinity_from_profile_refs_with(
    workers: &[&WorkerProfile],
    w_geo: f64,
    w_lang: f64,
    w_skill: f64,
    mut known: impl FnMut(usize, usize) -> Option<f64>,
    mut computed: impl FnMut(usize, usize, f64),
) -> AffinityMatrix {
    let (wg, wl, ws) = normalised_weights(w_geo, w_lang, w_skill);
    let mut m = AffinityMatrix::new(workers.iter().map(|w| w.id).collect());
    // The pair loop is O(n²) — hoist every per-worker feature (fluent
    // languages, skill names with their levels) out of it so the inner
    // body neither allocates nor probes a profile's maps. Same arithmetic,
    // same iteration orders, bit-identical affinities.
    let features: Vec<OnceCell<Features>> = workers.iter().map(|_| OnceCell::new()).collect();
    for (i, a) in workers.iter().enumerate() {
        for (j, b) in workers.iter().enumerate().skip(i + 1) {
            let ascending = a.id < b.id;
            let value = match ascending.then(|| known(i, j)).flatten() {
                Some(v) => v,
                None => {
                    let fa = features[i].get_or_init(|| Features::of(a));
                    let fb = features[j].get_or_init(|| Features::of(b));
                    let v = pair_value(a, b, fa, fb, wg, wl, ws);
                    if ascending {
                        computed(i, j, v);
                    }
                    v
                }
            };
            // Write the lower-triangle slot directly — ids arrived in
            // matrix order, so the position is arithmetic, not a hash
            // lookup per pair.
            m.tri[j * (j - 1) / 2 + i] = value;
        }
    }
    m
}

fn normalised_weights(w_geo: f64, w_lang: f64, w_skill: f64) -> (f64, f64, f64) {
    let total = (w_geo + w_lang + w_skill).max(f64::MIN_POSITIVE);
    (w_geo / total, w_lang / total, w_skill / total)
}

/// Languages a worker is fluent in (fluency ≥ 0.5), in profile map order.
fn fluent_langs(w: &WorkerProfile) -> Vec<&str> {
    w.factors
        .fluency
        .iter()
        .filter(|(_, &f)| f >= 0.5)
        .map(|(l, _)| l.code())
        .collect()
}

/// A worker's named skills with their levels, in profile map order.
fn skill_levels(w: &WorkerProfile) -> Vec<(&str, f64)> {
    w.factors
        .skills
        .iter()
        .map(|(name, &level)| (name.as_str(), level))
        .collect()
}

fn level_of(skills: &[(&str, f64)], name: &str) -> Option<f64> {
    skills.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

/// A worker's hoisted pair features: fluent languages and `(skill, level)`
/// pairs, each in profile map order.
struct Features<'a> {
    langs: Vec<&'a str>,
    skills: Vec<(&'a str, f64)>,
}

impl<'a> Features<'a> {
    fn of(w: &'a WorkerProfile) -> Features<'a> {
        Features {
            langs: fluent_langs(w),
            skills: skill_levels(w),
        }
    }
}

/// The single-pair affinity body shared by the matrix builder and the lazy
/// provider. Callers pass the hoisted per-worker features. The arithmetic
/// here is the *only* place a pair affinity is computed, which is what
/// makes the lazy path bit-identical to the dense one by construction.
fn pair_value(
    a: &WorkerProfile,
    b: &WorkerProfile,
    fa: &Features,
    fb: &Features,
    wg: f64,
    wl: f64,
    ws: f64,
) -> f64 {
    let (la, lb, sa, sb) = (&fa.langs, &fb.langs, &fa.skills, &fb.skills);
    // Geography: map distance in [0, sqrt(2)] to closeness in [0,1].
    let d = a.factors.region.distance(&b.factors.region);
    let geo = (1.0 - d / std::f64::consts::SQRT_2).clamp(0.0, 1.0);
    // Language: Jaccard over languages with fluency ≥ 0.5.
    let inter = la.iter().filter(|l| lb.contains(l)).count();
    let union = la.len() + lb.len() - inter;
    let lang = if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    };
    // Skills: 1 - mean |Δ| over the union of named skills, summed over
    // a's names and then the names only b has (the sum is order-sensitive
    // in the last ulp); a skill a worker does not list is 0.0.
    let mut names = sa.len();
    let mut diff = 0.0;
    for &(name, level) in sa {
        diff += (level - level_of(sb, name).unwrap_or(0.0)).abs();
    }
    for &(name, level) in sb {
        if level_of(sa, name).is_none() {
            diff += (0.0 - level).abs();
            names += 1;
        }
    }
    let skill = if names == 0 {
        0.0
    } else {
        1.0 - diff / names as f64
    };
    wg * geo + wl * lang + ws * skill
}

/// Affinity of a single worker pair, computed directly from the two
/// profiles. Arguments are canonicalised by worker id (smaller id first)
/// so the value is bit-identical to the entry a full-population
/// [`affinity_from_profiles`] matrix built in ascending-id order would
/// hold — the skill-union sum is order-sensitive in the last ulp, and the
/// dense builder always visits the smaller matrix index first.
pub fn pair_affinity_of(
    a: &WorkerProfile,
    b: &WorkerProfile,
    w_geo: f64,
    w_lang: f64,
    w_skill: f64,
) -> f64 {
    if a.id == b.id {
        return 0.0;
    }
    let (a, b) = if a.id <= b.id { (a, b) } else { (b, a) };
    let (wg, wl, ws) = normalised_weights(w_geo, w_lang, w_skill);
    pair_value(a, b, &Features::of(a), &Features::of(b), wg, wl, ws)
}

/// Lazy affinity source for large populations: pair values are computed
/// from profiles on demand and cached per worker. Registering worker N
/// against a provider costs O(1) — there is no dense state to invalidate —
/// and resident affinity state is the pairs asked for, not `n²/2`.
///
/// Every value returned is bit-identical to [`affinity_from_profiles`] over
/// the ascending-id population.
#[derive(Debug, Clone)]
pub struct AffinityProvider {
    weights: (f64, f64, f64),
    cache: HashMap<WorkerId, Vec<(WorkerId, f64)>>,
    entries: usize,
}

impl AffinityProvider {
    pub fn new(w_geo: f64, w_lang: f64, w_skill: f64) -> AffinityProvider {
        AffinityProvider {
            weights: (w_geo, w_lang, w_skill),
            cache: HashMap::new(),
            entries: 0,
        }
    }

    /// Total cached adjacency entries: each cached pair is stored under
    /// both endpoints, so this is twice the distinct pairs asked for. This
    /// is the provider's entire resident affinity state.
    pub fn cached_entries(&self) -> usize {
        self.entries
    }

    /// Affinity of a worker pair: cache hit, else compute and cache.
    /// Self-pairs are 0 by definition.
    pub fn pair(&mut self, a: &WorkerProfile, b: &WorkerProfile) -> f64 {
        if a.id == b.id {
            return 0.0;
        }
        if let Some(&(_, v)) = self
            .cache
            .get(&a.id)
            .and_then(|list| list.iter().find(|(o, _)| *o == b.id))
        {
            return v;
        }
        let (wg, wl, ws) = self.weights;
        let v = pair_affinity_of(a, b, wg, wl, ws);
        self.cache.entry(a.id).or_default().push((b.id, v));
        self.cache.entry(b.id).or_default().push((a.id, v));
        self.entries += 2;
        v
    }

    /// Dense matrix over a candidate set, in candidate order — what the
    /// assignment algorithms consume. Pure profile computation (the pair
    /// cache is not consulted: a k-candidate submatrix is O(k²) anyway).
    pub fn submatrix(&self, profiles: &[&WorkerProfile]) -> AffinityMatrix {
        let (wg, wl, ws) = self.weights;
        affinity_from_profile_refs(profiles, wg, wl, ws)
    }
}

/// Mean pairwise affinity of a group (the objective the team-formation
/// algorithms maximise). Groups of size < 2 have affinity 0.
pub fn group_affinity(aff: &dyn AffinityLookup, group: &[WorkerId]) -> f64 {
    let n = group.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            total += aff.affinity(group[i], group[j]);
        }
    }
    total / (n * (n - 1) / 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Region;

    fn ids(n: u64) -> Vec<WorkerId> {
        (0..n).map(WorkerId).collect()
    }

    #[test]
    fn dense_set_get_symmetric() {
        let mut m = AffinityMatrix::new(ids(4));
        m.set(WorkerId(0), WorkerId(3), 0.7);
        assert_eq!(m.affinity(WorkerId(0), WorkerId(3)), 0.7);
        assert_eq!(m.affinity(WorkerId(3), WorkerId(0)), 0.7);
        assert_eq!(m.affinity(WorkerId(1), WorkerId(2)), 0.0);
        assert_eq!(m.affinity(WorkerId(1), WorkerId(1)), 0.0);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn dense_unknown_workers_ignored() {
        let mut m = AffinityMatrix::new(ids(2));
        m.set(WorkerId(0), WorkerId(99), 0.5);
        assert_eq!(m.affinity(WorkerId(0), WorkerId(99)), 0.0);
    }

    #[test]
    fn dense_clamps_and_means() {
        let mut m = AffinityMatrix::new(ids(3));
        m.set(WorkerId(0), WorkerId(1), 2.0);
        m.set(WorkerId(0), WorkerId(2), -1.0);
        assert_eq!(m.affinity(WorkerId(0), WorkerId(1)), 1.0);
        assert_eq!(m.affinity(WorkerId(0), WorkerId(2)), 0.0);
        assert!((m.mean() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(AffinityMatrix::new(vec![]).mean(), 0.0);
    }

    #[test]
    fn sparse_matches_dense_behaviour() {
        let mut s = SparseAffinity::new();
        s.set(WorkerId(2), WorkerId(1), 0.4);
        assert_eq!(s.affinity(WorkerId(1), WorkerId(2)), 0.4);
        assert_eq!(s.affinity(WorkerId(2), WorkerId(1)), 0.4);
        assert_eq!(s.affinity(WorkerId(1), WorkerId(1)), 0.0);
        assert_eq!(s.pair_count(), 1);
        s.set(WorkerId(1), WorkerId(1), 0.9); // self-pair ignored
        assert_eq!(s.pair_count(), 1);
        s.set(WorkerId(2), WorkerId(1), 0.0); // zero removes
        assert_eq!(s.pair_count(), 0);
    }

    #[test]
    fn group_affinity_means_pairs() {
        let mut m = AffinityMatrix::new(ids(3));
        m.set(WorkerId(0), WorkerId(1), 0.6);
        m.set(WorkerId(0), WorkerId(2), 0.0);
        m.set(WorkerId(1), WorkerId(2), 0.3);
        let g = [WorkerId(0), WorkerId(1), WorkerId(2)];
        assert!((group_affinity(&m, &g) - 0.3).abs() < 1e-12);
        assert_eq!(group_affinity(&m, &[WorkerId(0)]), 0.0);
        assert_eq!(group_affinity(&m, &[]), 0.0);
    }

    #[test]
    fn profile_affinity_same_region_and_lang_is_high() {
        let a = WorkerProfile::new(WorkerId(1), "a")
            .with_native_lang("ja")
            .with_region(Region::new("tsukuba", 0.5, 0.5))
            .with_skill("survey", 0.8);
        let b = WorkerProfile::new(WorkerId(2), "b")
            .with_native_lang("ja")
            .with_region(Region::new("tsukuba", 0.5, 0.5))
            .with_skill("survey", 0.8);
        let c = WorkerProfile::new(WorkerId(3), "c")
            .with_native_lang("fr")
            .with_region(Region::new("grenoble", 0.0, 1.0))
            .with_skill("survey", 0.1);
        let m = affinity_from_profiles(&[a, b, c], 1.0, 1.0, 1.0);
        let near = m.affinity(WorkerId(1), WorkerId(2));
        let far = m.affinity(WorkerId(1), WorkerId(3));
        assert!(near > far, "same region/lang/skill must beat different");
        assert!(near > 0.9);
        assert!((0.0..=1.0).contains(&far));
    }

    fn crew(n: u64) -> Vec<WorkerProfile> {
        (1..=n)
            .map(|i| {
                WorkerProfile::new(WorkerId(i), format!("w{i}"))
                    .with_native_lang(if i % 2 == 0 { "en" } else { "ja" })
                    .with_region(Region::new("r", (i as f64) / (n as f64), 0.3))
                    .with_skill("survey", (i as f64) / (n as f64))
                    .with_skill(if i % 3 == 0 { "edit" } else { "translate" }, 0.4)
            })
            .collect()
    }

    #[test]
    fn pair_affinity_of_matches_dense_matrix_bitwise() {
        let workers = crew(7);
        let m = affinity_from_profiles(&workers, 1.0, 1.0, 0.5);
        for a in &workers {
            for b in &workers {
                let lazy = pair_affinity_of(a, b, 1.0, 1.0, 0.5);
                let dense = m.affinity(a.id, b.id);
                assert_eq!(
                    lazy.to_bits(),
                    dense.to_bits(),
                    "pair ({:?}, {:?}): lazy {lazy} != dense {dense}",
                    a.id,
                    b.id
                );
            }
        }
    }

    /// A pair's affinity as it was computed while the skill term probed
    /// both profiles' skill maps for every name of the union — the oracle
    /// the hoisted `(name, level)` form is held bit-equal to.
    fn pair_affinity_by_map_probes(
        a: &WorkerProfile,
        b: &WorkerProfile,
        (wg, wl, ws): (f64, f64, f64),
    ) -> f64 {
        let (wg, wl, ws) = normalised_weights(wg, wl, ws);
        let d = a.factors.region.distance(&b.factors.region);
        let geo = (1.0 - d / std::f64::consts::SQRT_2).clamp(0.0, 1.0);
        let (la, lb) = (fluent_langs(a), fluent_langs(b));
        let inter = la.iter().filter(|l| lb.contains(l)).count();
        let union = la.len() + lb.len() - inter;
        let lang = if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        };
        let mut names: Vec<&str> = a.factors.skills.keys().map(String::as_str).collect();
        for k in b.factors.skills.keys() {
            if !names.contains(&k.as_str()) {
                names.push(k);
            }
        }
        let skill = if names.is_empty() {
            0.0
        } else {
            let diff: f64 = names
                .iter()
                .map(|n| (a.factors.skill(n) - b.factors.skill(n)).abs())
                .sum::<f64>()
                / names.len() as f64;
            1.0 - diff
        };
        wg * geo + wl * lang + ws * skill
    }

    /// A crowd whose skill maps are empty, disjoint, overlapping and equal
    /// in name sets: worker `i` lists the skills whose bit is set in
    /// `masks[i]`, at levels that differ per worker.
    fn crew_with_skill_masks(masks: &[u8]) -> Vec<WorkerProfile> {
        const SKILLS: [&str; 4] = ["survey", "drafting", "edit", "translate"];
        masks
            .iter()
            .enumerate()
            .map(|(i, mask)| {
                let x = (i as f64 + 1.0) / (masks.len() as f64 + 1.0);
                let mut w = WorkerProfile::new(WorkerId(3 * i as u64 + 1), format!("w{i}"))
                    .with_native_lang(if i % 2 == 0 { "en" } else { "ja" })
                    .with_region(Region::new("r", x, 1.0 - x));
                for (bit, name) in SKILLS.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        w = w.with_skill(*name, (x * (bit as f64 + 1.7)).fract());
                    }
                }
                w
            })
            .collect()
    }

    #[test]
    fn hoisted_skill_levels_match_map_probes_bitwise() {
        // Every pair of name sets over four skills: empty × empty, empty ×
        // some, disjoint, overlapping, nested, equal.
        let workers = crew_with_skill_masks(&(0..16).collect::<Vec<u8>>());
        let refs: Vec<&WorkerProfile> = workers.iter().collect();
        for weights in [(1.0, 1.0, 0.5), (0.0, 0.0, 1.0), (0.3, 1.9, 0.7)] {
            let (wg, wl, ws) = weights;
            let m = affinity_from_profile_refs(&refs, wg, wl, ws);
            for (i, a) in workers.iter().enumerate() {
                for b in &workers[i + 1..] {
                    let want = pair_affinity_by_map_probes(a, b, weights);
                    assert_eq!(
                        m.affinity(a.id, b.id).to_bits(),
                        want.to_bits(),
                        "matrix entry ({:?}, {:?})",
                        a.id,
                        b.id
                    );
                    // Either argument order: the lazy path canonicalises.
                    assert_eq!(pair_affinity_of(b, a, wg, wl, ws).to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn memo_hooks_see_only_ascending_pairs() {
        let workers = crew(5);
        // Slice order 2, 4, 1, 5: of its six pairs, (2,4), (2,5), (4,5)
        // and (1,5) ascend; (2,1) and (4,1) do not.
        let refs: Vec<&WorkerProfile> = [1, 3, 0, 4].iter().map(|&i| &workers[i]).collect();
        let plain = affinity_from_profile_refs(&refs, 1.0, 1.0, 0.5);
        let (mut asked, mut heard) = (Vec::new(), Vec::new());
        let memo = affinity_from_profile_refs_with(
            &refs,
            1.0,
            1.0,
            0.5,
            |i, j| {
                asked.push((i, j));
                // Answer one pair, with its true value.
                ((i, j) == (0, 1)).then(|| pair_affinity_of(refs[0], refs[1], 1.0, 1.0, 0.5))
            },
            |i, j, v| heard.push((i, j, v)),
        );
        assert_eq!(asked, vec![(0, 1), (0, 3), (1, 3), (2, 3)]);
        let heard_pairs: Vec<(usize, usize)> = heard.iter().map(|&(i, j, _)| (i, j)).collect();
        assert_eq!(heard_pairs, vec![(0, 3), (1, 3), (2, 3)]);
        for (i, j, v) in heard {
            assert_eq!(
                v.to_bits(),
                pair_affinity_of(refs[i], refs[j], 1.0, 1.0, 0.5).to_bits()
            );
        }
        let ids: Vec<WorkerId> = refs.iter().map(|w| w.id).collect();
        let bits = |m: &AffinityMatrix| -> Vec<u64> {
            m.table(&ids).iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&memo), bits(&plain));
        assert_eq!(memo.mean().to_bits(), plain.mean().to_bits());
    }

    /// Answers pairs from a matrix but inherits `table`'s default.
    struct PairsOnly<'a>(&'a AffinityMatrix);

    impl AffinityLookup for PairsOnly<'_> {
        fn affinity(&self, a: WorkerId, b: WorkerId) -> f64 {
            self.0.affinity(a, b)
        }
    }

    #[test]
    fn matrix_table_matches_the_default() {
        let workers = crew(7);
        let m = affinity_from_profiles(&workers, 1.0, 1.0, 0.5);
        // Permuted, with an id the matrix does not know (99), a repeat
        // (3) and the empty and one-id edge cases.
        for ids in [
            vec![5, 2, 99, 7, 3, 1, 3, 6],
            vec![4, 1],
            vec![99, 98],
            vec![2],
            vec![],
        ] {
            let ids: Vec<WorkerId> = ids.into_iter().map(WorkerId).collect();
            let n = ids.len();
            let table = m.table(&ids);
            assert_eq!(table.len(), n * n);
            let default = PairsOnly(&m).table(&ids);
            for p in 0..n {
                for q in 0..n {
                    let want = m.affinity(ids[p], ids[q]).to_bits();
                    assert_eq!(table[p * n + q].to_bits(), want, "override at ({p}, {q})");
                    assert_eq!(default[p * n + q].to_bits(), want, "default at ({p}, {q})");
                }
            }
        }
    }

    #[test]
    fn provider_submatrix_matches_refs_path() {
        let workers = crew(5);
        let p = AffinityProvider::new(1.0, 1.0, 0.5);
        let refs: Vec<&WorkerProfile> = workers.iter().collect();
        let sub = p.submatrix(&refs);
        let full = affinity_from_profiles(&workers, 1.0, 1.0, 0.5);
        for a in &workers {
            for b in &workers {
                assert_eq!(
                    sub.affinity(a.id, b.id).to_bits(),
                    full.affinity(a.id, b.id).to_bits()
                );
            }
        }
    }

    #[test]
    fn profile_affinity_weights_normalised() {
        let a = WorkerProfile::new(WorkerId(1), "a").with_native_lang("en");
        let b = WorkerProfile::new(WorkerId(2), "b").with_native_lang("en");
        // Only language weight: identical language sets ⇒ affinity 1.
        let m = affinity_from_profiles(&[a.clone(), b.clone()], 0.0, 5.0, 0.0);
        assert!((m.affinity(WorkerId(1), WorkerId(2)) - 1.0).abs() < 1e-12);
        // No fluent languages at all ⇒ language component 0.
        let c = WorkerProfile::new(WorkerId(3), "c");
        let d = WorkerProfile::new(WorkerId(4), "d");
        let m = affinity_from_profiles(&[c, d], 0.0, 1.0, 0.0);
        assert_eq!(m.affinity(WorkerId(3), WorkerId(4)), 0.0);
    }
}
