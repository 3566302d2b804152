//! Greedy team formation with multi-seed restarts, plus local-search
//! refinement by member swaps — the "efficient in practice" approximations
//! of Rahman et al. \[9\] that Crowd4U adapts per collaboration scheme.
//!
//! Both searches read the same pair affinities many times over (every
//! seed × every growth step × every outsider × every member), so `form`
//! fills one row-major `n × n` table of the candidates' pair affinities
//! ([`AffinityLookup::table`]) and then works on candidate *positions*:
//! `tab[a * n + b]` is the affinity of `cands[a]` and `cands[b]`. Team
//! identity depends on the order floating-point sums are taken in, so the
//! orders are part of the contract: a marginal is summed over the team in
//! join order (kept as a running sum, one addition per join), a team's pair
//! sum over `i < j` in member order — the order [`Team::assemble`] uses.
//!
//! The multi-seed greedy grows only the seeds that can still win: a seed
//! whose admissible bound — the one [`ExactBB`](crate::exact::ExactBB)
//! prunes with, specialised to a team through one seed — cannot strictly
//! beat the best team found so far is skipped. A skipped seed could only
//! have tied or lost, and ties go to the first seen, so the result is the
//! one every seed would give.

use crate::types::{mean_bound, pair_count, Candidate, Team, TeamConstraints, TeamFormation};
use crowd4u_crowd::affinity::AffinityLookup;
use crowd4u_crowd::profile::WorkerId;

#[cfg(test)]
mod reference;

/// Greedy expansion: for each seed worker, repeatedly add the candidate with
/// the highest marginal affinity while keeping cost feasible; keep the best
/// feasible team over all seeds.
#[derive(Debug, Clone, Default)]
pub struct GreedyAff {
    /// Limit the number of seeds tried (0 = all workers). Large pools use
    /// the highest-skill workers as seeds.
    pub max_seeds: usize,
}

impl GreedyAff {
    pub fn with_seed_cap(max_seeds: usize) -> GreedyAff {
        GreedyAff { max_seeds }
    }
}

/// The seed bound's slack, relative to the table's largest magnitude `M`.
/// A team mean over `m` pairs carries a summation error of at most about
/// `m · 2⁻⁵³ · M`; `1e-9 · M` is far above that up to `10⁶` pairs, and the
/// slack grows with `m` past them.
const BOUND_SLACK: f64 = 1e-9;

#[cfg(test)]
thread_local! {
    /// Seeds `greedy_start` skipped by the bound on this thread.
    pub(crate) static SEEDS_SKIPPED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Mean pair affinity of a team given as candidate positions, summed over
/// `i < j` in member order ([`crowd4u_crowd::affinity::group_affinity`]'s
/// order, read from the table).
fn mean_pair(team: &[usize], tab: &[f64], n: usize) -> f64 {
    let k = team.len();
    if k < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..k {
        for j in (i + 1)..k {
            total += tab[team[i] * n + team[j]];
        }
    }
    total / (k * (k - 1) / 2) as f64
}

fn assemble(team: &[usize], cands: &[Candidate], aff: &dyn AffinityLookup) -> Team {
    Team::assemble(team.iter().map(|&i| cands[i].id).collect(), cands, aff)
}

/// Grow a team greedily from one seed; returns the best feasible prefix as
/// candidate positions, in join order.
fn grow_from_seed(
    seed: usize,
    cands: &[Candidate],
    tab: &[f64],
    constraints: &TeamConstraints,
) -> Option<(f64, Vec<usize>)> {
    let n = cands.len();
    let mut in_team = vec![false; n];
    in_team[seed] = true;
    let mut team = vec![seed];
    let mut pair_sum = 0.0;
    let mut skill_sum = cands[seed].skill;
    let mut cost_sum = cands[seed].cost;
    if cost_sum > constraints.max_cost {
        return None;
    }
    let mut best: Option<(f64, Vec<usize>)> = None;
    let consider = |team: &[usize],
                    pair_sum: f64,
                    skill_sum: f64,
                    cost_sum: f64,
                    best: &mut Option<(f64, Vec<usize>)>| {
        let k = team.len();
        if k < constraints.min_size {
            return;
        }
        if skill_sum / k as f64 + 1e-12 < constraints.min_quality {
            return;
        }
        if cost_sum > constraints.max_cost + 1e-12 {
            return;
        }
        let mean = if k < 2 { 0.0 } else { pair_sum / pair_count(k) };
        if best.as_ref().is_none_or(|(b, _)| mean > *b) {
            *best = Some((mean, team.to_vec()));
        }
    };
    consider(&team, pair_sum, skill_sum, cost_sum, &mut best);

    // Each candidate's marginal — its pair sum with the team — kept as a
    // running sum: it starts where an empty `sum()` starts and adds each
    // member's row as the member joins, which is the fold
    // `team.iter().map(..).sum()` performs, addition for addition.
    let mut marginal = vec![std::iter::empty::<f64>().sum::<f64>(); n];
    let mut joined = seed;
    while team.len() < constraints.max_size {
        for (m, &a) in marginal.iter_mut().zip(&tab[joined * n..(joined + 1) * n]) {
            *m += a;
        }
        // Pick the addition that maximises (greedily) the new mean affinity,
        // breaking ties toward higher skill to help the quality constraint.
        let mut pick: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate() {
            if in_team[i] || cost_sum + c.cost > constraints.max_cost + 1e-12 {
                continue;
            }
            let new_mean = (pair_sum + marginal[i]) / pair_count(team.len() + 1);
            let score = new_mean + 1e-9 * c.skill;
            if pick.as_ref().is_none_or(|(_, s)| score > *s) {
                pick = Some((i, score));
            }
        }
        let Some((i, _)) = pick else { break };
        in_team[i] = true;
        team.push(i);
        pair_sum += marginal[i];
        skill_sum += cands[i].skill;
        cost_sum += cands[i].cost;
        consider(&team, pair_sum, skill_sum, cost_sum, &mut best);
        joined = i;
    }
    best
}

/// The seed bound: no team grown from seed `s` has a mean above
/// [`of(s)`](SeedBound::of). Such a team of `k` members has `k − 1` pairs
/// through `s`, each at most `s`'s row maximum, and its other pairs at most
/// the table maximum; a singleton, where allowed, has mean 0.
struct SeedBound {
    row_max: Vec<f64>,
    tab_max: f64,
    slack: f64,
    sizes: std::ops::RangeInclusive<usize>,
    singleton: bool,
}

impl SeedBound {
    fn new(tab: &[f64], n: usize, constraints: &TeamConstraints) -> SeedBound {
        let mut row_max = vec![f64::NEG_INFINITY; n];
        let mut magnitude: f64 = 0.0;
        for (a, row) in tab.chunks_exact(n).enumerate() {
            for (b, &v) in row.iter().enumerate() {
                if a != b {
                    row_max[a] = row_max[a].max(v);
                    magnitude = magnitude.max(v.abs());
                }
            }
        }
        let hi = constraints.max_size.min(n);
        SeedBound {
            tab_max: row_max.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            row_max,
            slack: BOUND_SLACK * magnitude * (pair_count(hi) / 1e6).max(1.0),
            sizes: constraints.min_size.max(2)..=hi,
            singleton: constraints.min_size <= 1,
        }
    }

    fn of(&self, seed: usize) -> f64 {
        let row = self.row_max[seed];
        let pairs = mean_bound(self.sizes.clone(), |k| {
            let through = (k - 1) as f64;
            through * row + (pair_count(k) - through) * self.tab_max
        });
        if self.singleton {
            pairs.max(0.0)
        } else {
            pairs
        }
    }

    /// Whether no team grown from `seed` can strictly beat `incumbent` —
    /// the only way a later seed replaces the best team.
    fn cannot_beat(&self, seed: usize, incumbent: f64) -> bool {
        self.of(seed) + self.slack <= incumbent
    }
}

/// Fill the candidates' pair table and run the multi-seed greedy over it:
/// the table and the best team over the seeds tried, as candidate
/// positions. A seed whose [`SeedBound`] cannot strictly beat the best
/// team so far is not grown.
fn greedy_start(
    cands: &[Candidate],
    aff: &dyn AffinityLookup,
    constraints: &TeamConstraints,
    max_seeds: usize,
) -> Option<(Vec<f64>, Vec<usize>)> {
    if cands.is_empty() || constraints.min_size > constraints.max_size {
        return None;
    }
    let ids: Vec<WorkerId> = cands.iter().map(|c| c.id).collect();
    let tab = aff.table(&ids);
    let bound = SeedBound::new(&tab, cands.len(), constraints);
    // Seed order: by descending skill (helps meet quality constraints).
    let mut seeds: Vec<usize> = (0..cands.len()).collect();
    seeds.sort_by(|&a, &b| cands[b].skill.total_cmp(&cands[a].skill));
    if max_seeds > 0 {
        seeds.truncate(max_seeds);
    }
    let mut best: Option<(f64, Vec<usize>)> = None;
    for s in seeds {
        if best.as_ref().is_some_and(|(b, _)| bound.cannot_beat(s, *b)) {
            #[cfg(test)]
            SEEDS_SKIPPED.with(|c| c.set(c.get() + 1));
            continue;
        }
        if let Some((mean, team)) = grow_from_seed(s, cands, &tab, constraints) {
            if best.as_ref().is_none_or(|(b, _)| mean > *b) {
                best = Some((mean, team));
            }
        }
    }
    best.map(|(_, team)| (tab, team))
}

impl TeamFormation for GreedyAff {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn form(
        &self,
        cands: &[Candidate],
        aff: &dyn AffinityLookup,
        constraints: &TeamConstraints,
    ) -> Option<Team> {
        let (_, team) = greedy_start(cands, aff, constraints, self.max_seeds)?;
        Some(assemble(&team, cands, aff))
    }
}

/// Local search: start from the greedy solution and improve it by swapping
/// one member for one outsider while feasible, until a local optimum.
#[derive(Debug, Clone)]
pub struct LocalSearch {
    pub max_iterations: usize,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            max_iterations: 1000,
        }
    }
}

impl TeamFormation for LocalSearch {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn form(
        &self,
        cands: &[Candidate],
        aff: &dyn AffinityLookup,
        constraints: &TeamConstraints,
    ) -> Option<Team> {
        // One table serves the greedy start and every swap tried after it.
        let (tab, mut team) = greedy_start(cands, aff, constraints, 0)?;
        let n = cands.len();
        let mut in_team = vec![false; n];
        for &m in &team {
            in_team[m] = true;
        }
        let mut current = mean_pair(&team, &tab, n);
        for _ in 0..self.max_iterations {
            let mut improved = false;
            'outer: for mi in 0..team.len() {
                let out = team[mi];
                for c in 0..n {
                    if in_team[c] {
                        continue;
                    }
                    // Evaluate the swap in place, in `Team::assemble`'s
                    // summation orders: skills, costs, then pairs `i < j`.
                    team[mi] = c;
                    let quality =
                        team.iter().map(|&m| cands[m].skill).sum::<f64>() / team.len() as f64;
                    let cost = team.iter().map(|&m| cands[m].cost).sum::<f64>();
                    let feasible = quality + 1e-12 >= constraints.min_quality
                        && cost <= constraints.max_cost + 1e-12;
                    if !feasible {
                        continue;
                    }
                    let affinity = mean_pair(&team, &tab, n);
                    if affinity > current + 1e-12 {
                        in_team[out] = false;
                        in_team[c] = true;
                        current = affinity;
                        improved = true;
                        break 'outer;
                    }
                }
                team[mi] = out;
            }
            if !improved {
                break;
            }
        }
        Some(assemble(&team, cands, aff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactBB;
    use crate::types::validate_team;
    use crowd4u_crowd::affinity::AffinityMatrix;

    fn random_instance(n: u64, seed: u64) -> (Vec<Candidate>, AffinityMatrix) {
        let mut rng = crowd4u_sim::rng::SimRng::seed_from(seed);
        let cands: Vec<Candidate> = (0..n)
            .map(|i| Candidate::new(WorkerId(i), rng.unit(), rng.range_f64(0.0, 3.0)))
            .collect();
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(WorkerId(i), WorkerId(j), rng.unit());
            }
        }
        (cands, m)
    }

    #[test]
    fn greedy_finds_feasible_teams() {
        for seed in 0..10 {
            let (cands, m) = random_instance(20, seed);
            let constraints = TeamConstraints::sized(3, 6)
                .with_quality(0.3)
                .with_budget(10.0);
            if let Some(t) = GreedyAff::default().form(&cands, &m, &constraints) {
                assert!(validate_team(&t, &cands, &constraints), "seed {seed}: {t}");
            }
        }
    }

    #[test]
    fn greedy_never_beats_exact() {
        for seed in 0..8 {
            let (cands, m) = random_instance(10, seed);
            let constraints = TeamConstraints::sized(2, 4);
            let g = GreedyAff::default().form(&cands, &m, &constraints).unwrap();
            let e = ExactBB::default().form(&cands, &m, &constraints).unwrap();
            assert!(
                e.affinity + 1e-9 >= g.affinity,
                "seed {seed}: exact {} < greedy {}",
                e.affinity,
                g.affinity
            );
        }
    }

    #[test]
    fn local_search_at_least_greedy() {
        for seed in 0..8 {
            let (cands, m) = random_instance(25, seed);
            let constraints = TeamConstraints::sized(3, 5);
            let g = GreedyAff::default().form(&cands, &m, &constraints).unwrap();
            let l = LocalSearch::default()
                .form(&cands, &m, &constraints)
                .unwrap();
            assert!(
                l.affinity + 1e-9 >= g.affinity,
                "seed {seed}: local {} < greedy {}",
                l.affinity,
                g.affinity
            );
            assert!(validate_team(&l, &cands, &constraints));
        }
    }

    #[test]
    fn local_search_never_beats_exact_on_small() {
        for seed in 0..5 {
            let (cands, m) = random_instance(9, seed);
            let constraints = TeamConstraints::sized(2, 4);
            let l = LocalSearch::default()
                .form(&cands, &m, &constraints)
                .unwrap();
            let e = ExactBB::default().form(&cands, &m, &constraints).unwrap();
            assert!(e.affinity + 1e-9 >= l.affinity, "seed {seed}");
        }
    }

    #[test]
    fn greedy_handles_infeasible() {
        let (cands, m) = random_instance(5, 1);
        assert!(GreedyAff::default()
            .form(&cands, &m, &TeamConstraints::sized(2, 4).with_quality(2.0))
            .is_none());
        assert!(GreedyAff::default()
            .form(&[], &m, &TeamConstraints::default())
            .is_none());
        assert!(GreedyAff::default()
            .form(&cands, &m, &TeamConstraints::sized(3, 2))
            .is_none());
        assert!(LocalSearch::default()
            .form(&cands, &m, &TeamConstraints::sized(2, 4).with_quality(2.0))
            .is_none());
    }

    #[test]
    fn greedy_seed_cap_reduces_work_but_stays_feasible() {
        let (cands, m) = random_instance(40, 3);
        let constraints = TeamConstraints::sized(3, 6).with_quality(0.2);
        let capped = GreedyAff::with_seed_cap(4)
            .form(&cands, &m, &constraints)
            .unwrap();
        let full = GreedyAff::default().form(&cands, &m, &constraints).unwrap();
        assert!(validate_team(&capped, &cands, &constraints));
        assert!(full.affinity + 1e-9 >= capped.affinity);
    }

    #[test]
    fn quality_constraint_steers_selection() {
        // High-affinity pair is low-skill; greedy must still satisfy quality.
        let cands = vec![
            Candidate::new(WorkerId(0), 0.1, 0.0),
            Candidate::new(WorkerId(1), 0.1, 0.0),
            Candidate::new(WorkerId(2), 0.9, 0.0),
            Candidate::new(WorkerId(3), 0.9, 0.0),
        ];
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        m.set(WorkerId(0), WorkerId(1), 1.0);
        m.set(WorkerId(2), WorkerId(3), 0.2);
        let constraints = TeamConstraints::sized(2, 2).with_quality(0.8);
        let t = GreedyAff::default().form(&cands, &m, &constraints).unwrap();
        let mut members = t.members.clone();
        members.sort();
        assert_eq!(members, vec![WorkerId(2), WorkerId(3)]);
    }

    #[test]
    fn a_seed_with_weak_pairs_of_its_own_still_wins() {
        // Seeds in skill order: a (0.9), s, x, y, b, c. Seed a finds
        // {a, b, c} at 0.6. Seed s's own pairs are 0.5 — below the
        // incumbent — but it grows {s, x, y} at 2/3 because x–y is 1.0; the
        // bound must let it grow, or x would find the same team later and
        // the members would come back as [x, y, s].
        let ids = ["a", "s", "x", "y", "b", "c"];
        let cands: Vec<Candidate> = (0..6u64)
            .map(|i| Candidate::new(WorkerId(i), 0.9 - 0.1 * i as f64, 0.0))
            .collect();
        let at = |name| WorkerId(ids.iter().position(|n| *n == name).unwrap() as u64);
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        for (p, q, v) in [
            ("a", "b", 0.6),
            ("a", "c", 0.6),
            ("b", "c", 0.6),
            ("s", "x", 0.5),
            ("s", "y", 0.5),
            ("x", "y", 1.0),
        ] {
            m.set(at(p), at(q), v);
        }
        let t = GreedyAff::default()
            .form(&cands, &m, &TeamConstraints::sized(3, 3))
            .unwrap();
        assert_eq!(t.members, vec![at("s"), at("x"), at("y")]);
    }

    #[test]
    fn names() {
        assert_eq!(GreedyAff::default().name(), "greedy");
        assert_eq!(LocalSearch::default().name(), "local-search");
    }
}
