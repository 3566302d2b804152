//! Exact team formation via branch and bound.
//!
//! Optimal but exponential — \[9\] proves the problem NP-complete, and
//! experiment E7 shows exactly where this algorithm stops being viable,
//! which is the paper's motivation for the approximations in the sibling
//! modules. An optional affinity upper-bound pruning step (ablation 3 of
//! the `ablations` bench) keeps the search practical into the low twenties
//! of workers.

use crate::types::{mean_bound, pair_count, Candidate, Team, TeamConstraints, TeamFormation};
use crowd4u_crowd::affinity::AffinityLookup;
use crowd4u_crowd::profile::WorkerId;

/// Branch-and-bound exact solver.
#[derive(Debug, Clone)]
pub struct ExactBB {
    /// Enable the optimistic-affinity pruning bound.
    pub prune: bool,
}

impl Default for ExactBB {
    fn default() -> Self {
        ExactBB { prune: true }
    }
}

impl ExactBB {
    pub fn without_pruning() -> ExactBB {
        ExactBB { prune: false }
    }
}

struct Search<'a> {
    cands: &'a [Candidate],
    aff: &'a dyn AffinityLookup,
    constraints: &'a TeamConstraints,
    max_edge: f64,
    prune: bool,
    best: Option<(f64, Vec<WorkerId>)>,
}

impl<'a> Search<'a> {
    /// Mean pairwise affinity achievable from the current partial team, in
    /// the most optimistic completion (every pair still to come at the
    /// pool's largest affinity); used for pruning.
    fn upper_bound(&self, pair_sum: f64, size: usize) -> f64 {
        let lo = size.max(self.constraints.min_size).max(2);
        mean_bound(lo..=self.constraints.max_size, |k| {
            pair_sum + (pair_count(k) - pair_count(size)) * self.max_edge
        })
    }

    fn consider(&mut self, team: &[WorkerId], pair_sum: f64, skill_sum: f64, cost_sum: f64) {
        let n = team.len();
        if n < self.constraints.min_size || n == 0 {
            return;
        }
        if skill_sum / n as f64 + 1e-12 < self.constraints.min_quality {
            return;
        }
        if cost_sum > self.constraints.max_cost + 1e-12 {
            return;
        }
        let mean = if n < 2 { 0.0 } else { pair_sum / pair_count(n) };
        let better = match &self.best {
            None => true,
            Some((b, members)) => {
                mean > *b + 1e-15 || (mean >= *b - 1e-15 && team.len() < members.len())
            }
        };
        if better {
            self.best = Some((mean, team.to_vec()));
        }
    }

    fn recurse(
        &mut self,
        idx: usize,
        team: &mut Vec<WorkerId>,
        pair_sum: f64,
        skill_sum: f64,
        cost_sum: f64,
    ) {
        self.consider(team, pair_sum, skill_sum, cost_sum);
        if team.len() == self.constraints.max_size || idx == self.cands.len() {
            return;
        }
        // Prune: even the most optimistic completion cannot beat the best.
        if self.prune {
            if let Some((best, _)) = &self.best {
                if self.upper_bound(pair_sum, team.len()) <= *best + 1e-15 {
                    return;
                }
            }
        }
        // Branch 1: include candidate idx.
        let c = &self.cands[idx];
        if cost_sum + c.cost <= self.constraints.max_cost + 1e-12 {
            let added: f64 = team.iter().map(|m| self.aff.affinity(*m, c.id)).sum();
            team.push(c.id);
            self.recurse(
                idx + 1,
                team,
                pair_sum + added,
                skill_sum + c.skill,
                cost_sum + c.cost,
            );
            team.pop();
        }
        // Branch 2: exclude candidate idx.
        self.recurse(idx + 1, team, pair_sum, skill_sum, cost_sum);
    }
}

impl TeamFormation for ExactBB {
    fn name(&self) -> &'static str {
        if self.prune {
            "exact-bb"
        } else {
            "exact-exhaustive"
        }
    }

    fn form(
        &self,
        cands: &[Candidate],
        aff: &dyn AffinityLookup,
        constraints: &TeamConstraints,
    ) -> Option<Team> {
        if constraints.min_size == 0 || constraints.min_size > constraints.max_size {
            return None;
        }
        let mut max_edge: f64 = 0.0;
        for (i, a) in cands.iter().enumerate() {
            for b in cands.iter().skip(i + 1) {
                max_edge = max_edge.max(aff.affinity(a.id, b.id));
            }
        }
        let mut search = Search {
            cands,
            aff,
            constraints,
            max_edge,
            prune: self.prune,
            best: None,
        };
        let mut team = Vec::with_capacity(constraints.max_size);
        search.recurse(0, &mut team, 0.0, 0.0, 0.0);
        let (_, members) = search.best?;
        Some(Team::assemble(members, cands, aff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::validate_team;
    use crowd4u_crowd::affinity::AffinityMatrix;

    fn pool(n: u64) -> (Vec<Candidate>, AffinityMatrix) {
        let cands: Vec<Candidate> = (0..n)
            .map(|i| Candidate::new(WorkerId(i), 0.5, 1.0))
            .collect();
        let m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        (cands, m)
    }

    #[test]
    fn finds_the_obvious_clique() {
        let (cands, mut m) = pool(6);
        // Workers 0,1,2 form a tight clique.
        m.set(WorkerId(0), WorkerId(1), 0.9);
        m.set(WorkerId(0), WorkerId(2), 0.9);
        m.set(WorkerId(1), WorkerId(2), 0.9);
        m.set(WorkerId(3), WorkerId(4), 0.4);
        let t = ExactBB::default()
            .form(&cands, &m, &TeamConstraints::sized(3, 3))
            .unwrap();
        let mut members = t.members.clone();
        members.sort();
        assert_eq!(members, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
        assert!((t.affinity - 0.9).abs() < 1e-12);
    }

    #[test]
    fn respects_quality_constraint() {
        let mut cands: Vec<Candidate> = Vec::new();
        for i in 0..4u64 {
            // workers 0,1 low skill but high affinity; 2,3 high skill
            let skill = if i < 2 { 0.2 } else { 0.9 };
            cands.push(Candidate::new(WorkerId(i), skill, 0.0));
        }
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        m.set(WorkerId(0), WorkerId(1), 1.0);
        m.set(WorkerId(2), WorkerId(3), 0.3);
        let constraints = TeamConstraints::sized(2, 2).with_quality(0.8);
        let t = ExactBB::default().form(&cands, &m, &constraints).unwrap();
        let mut members = t.members.clone();
        members.sort();
        assert_eq!(members, vec![WorkerId(2), WorkerId(3)]);
        assert!(validate_team(&t, &cands, &constraints));
    }

    #[test]
    fn respects_cost_budget() {
        let cands = vec![
            Candidate::new(WorkerId(0), 0.5, 10.0),
            Candidate::new(WorkerId(1), 0.5, 10.0),
            Candidate::new(WorkerId(2), 0.5, 1.0),
            Candidate::new(WorkerId(3), 0.5, 1.0),
        ];
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        m.set(WorkerId(0), WorkerId(1), 1.0); // great but unaffordable
        m.set(WorkerId(2), WorkerId(3), 0.5);
        let constraints = TeamConstraints::sized(2, 2).with_budget(5.0);
        let t = ExactBB::default().form(&cands, &m, &constraints).unwrap();
        let mut members = t.members.clone();
        members.sort();
        assert_eq!(members, vec![WorkerId(2), WorkerId(3)]);
    }

    #[test]
    fn infeasible_returns_none() {
        let (cands, m) = pool(3);
        // quality unreachable
        assert!(ExactBB::default()
            .form(&cands, &m, &TeamConstraints::sized(2, 3).with_quality(0.9))
            .is_none());
        // not enough workers
        assert!(ExactBB::default()
            .form(&cands, &m, &TeamConstraints::sized(4, 5))
            .is_none());
        // degenerate constraints
        assert!(ExactBB::default()
            .form(&cands, &m, &TeamConstraints::sized(3, 2))
            .is_none());
        // empty pool
        assert!(ExactBB::default()
            .form(&[], &m, &TeamConstraints::sized(1, 2))
            .is_none());
    }

    #[test]
    fn pruned_equals_unpruned() {
        // Deterministic pseudo-random affinities; both variants must agree
        // on the optimal objective.
        let n = 10u64;
        let cands: Vec<Candidate> = (0..n)
            .map(|i| Candidate::new(WorkerId(i), 0.3 + (i as f64) * 0.07 % 0.7, (i % 3) as f64))
            .collect();
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        for i in 0..n {
            for j in (i + 1)..n {
                let v = ((i * 7 + j * 13) % 10) as f64 / 10.0;
                m.set(WorkerId(i), WorkerId(j), v);
            }
        }
        let constraints = TeamConstraints::sized(2, 4)
            .with_quality(0.35)
            .with_budget(6.0);
        let a = ExactBB::default().form(&cands, &m, &constraints).unwrap();
        let b = ExactBB::without_pruning()
            .form(&cands, &m, &constraints)
            .unwrap();
        assert!(
            (a.affinity - b.affinity).abs() < 1e-12,
            "pruned {} vs unpruned {}",
            a.affinity,
            b.affinity
        );
    }

    #[test]
    fn min_size_one_allows_singletons() {
        let (cands, m) = pool(2);
        let t = ExactBB::default()
            .form(&cands, &m, &TeamConstraints::sized(1, 1))
            .unwrap();
        assert_eq!(t.size(), 1);
        assert_eq!(t.affinity, 0.0);
    }

    #[test]
    fn prefers_smaller_team_on_ties() {
        // All affinities zero: a minimal feasible team is preferred.
        let (cands, m) = pool(5);
        let t = ExactBB::default()
            .form(&cands, &m, &TeamConstraints::sized(2, 5))
            .unwrap();
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn names() {
        assert_eq!(ExactBB::default().name(), "exact-bb");
        assert_eq!(ExactBB::without_pruning().name(), "exact-exhaustive");
    }
}
