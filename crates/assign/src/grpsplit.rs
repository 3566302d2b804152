//! Grp&Split: team formation for decomposable parallel tasks.
//!
//! Paper §2.2: "For parallel tasks that can naturally be decomposed, we
//! decompose it into a set of independent sub-tasks (such as, independent
//! sections of a document to draft together). We then identify groups for
//! each sub-task who edit simultaneously on their allocated section, with
//! collaboration across the sub-groups … to effectively merge the sections."
//!
//! The algorithm forms `g` groups (one per sub-task): workers are taken in
//! descending total-affinity order and each joins the non-full group where
//! its marginal affinity is highest; a balancing pass then fills groups that
//! missed their minimum size.

use crate::types::{Candidate, Team, TeamConstraints};
use crowd4u_crowd::affinity::AffinityLookup;
use crowd4u_crowd::profile::WorkerId;

/// Result of a Grp&Split run: one team per sub-task plus the cross-group
/// "merge" affinity (how well adjacent groups can coordinate the merge).
#[derive(Debug, Clone)]
pub struct SplitAssignment {
    pub groups: Vec<Team>,
    /// Mean affinity between consecutive groups' members (merge channel).
    pub merge_affinity: f64,
}

impl SplitAssignment {
    /// Mean intra-group affinity across groups.
    pub fn mean_group_affinity(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        self.groups.iter().map(|g| g.affinity).sum::<f64>() / self.groups.len() as f64
    }

    pub fn total_workers(&self) -> usize {
        self.groups.iter().map(Team::size).sum()
    }
}

/// Grp&Split solver for `n_groups` parallel sub-tasks.
#[derive(Debug, Clone)]
pub struct GrpSplit {
    pub n_groups: usize,
}

impl GrpSplit {
    pub fn new(n_groups: usize) -> GrpSplit {
        GrpSplit { n_groups }
    }

    /// Partition candidates into per-sub-task groups. Returns `None` when
    /// the pool cannot populate every group at `min_size` within budget.
    pub fn split(
        &self,
        cands: &[Candidate],
        aff: &dyn AffinityLookup,
        constraints: &TeamConstraints,
    ) -> Option<SplitAssignment> {
        let g = self.n_groups;
        if g == 0 || cands.len() < g * constraints.min_size {
            return None;
        }
        // Order workers by total affinity to everyone (strong connectors
        // first, so early placements anchor coherent groups). Each total is
        // summed once, not once per comparison.
        let total_aff: Vec<f64> = cands
            .iter()
            .map(|ci| cands.iter().map(|c| aff.affinity(ci.id, c.id)).sum())
            .collect();
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by(|&a, &b| total_aff[b].total_cmp(&total_aff[a]));

        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); g];
        let mut group_cost = vec![0.0; g];
        for &i in &order {
            // Highest marginal affinity among groups with room and budget.
            let mut best: Option<(usize, f64)> = None;
            for (gi, grp) in groups.iter().enumerate() {
                if grp.len() >= constraints.max_size {
                    continue;
                }
                if group_cost[gi] + cands[i].cost > constraints.max_cost + 1e-12 {
                    continue;
                }
                let marginal: f64 = grp
                    .iter()
                    .map(|&m| aff.affinity(cands[m].id, cands[i].id))
                    .sum();
                // Prefer under-filled groups on ties (encourages balance).
                let score = marginal - 0.001 * grp.len() as f64;
                if best.as_ref().is_none_or(|(_, s)| score > *s) {
                    best = Some((gi, score));
                }
            }
            if let Some((gi, _)) = best {
                groups[gi].push(i);
                group_cost[gi] += cands[i].cost;
            }
        }

        // Every group must reach min_size and quality.
        for grp in &groups {
            if grp.len() < constraints.min_size {
                return None;
            }
            let q = grp.iter().map(|&i| cands[i].skill).sum::<f64>() / grp.len() as f64;
            if q + 1e-12 < constraints.min_quality {
                return None;
            }
        }

        let teams: Vec<Team> = groups
            .iter()
            .map(|grp| {
                Team::assemble(
                    grp.iter().map(|&i| cands[i].id).collect::<Vec<WorkerId>>(),
                    cands,
                    aff,
                )
            })
            .collect();

        // Merge affinity: mean pairwise affinity between consecutive groups.
        let mut merge = 0.0;
        let mut pairs = 0usize;
        for w in teams.windows(2) {
            for a in &w[0].members {
                for b in &w[1].members {
                    merge += aff.affinity(*a, *b);
                    pairs += 1;
                }
            }
        }
        let merge_affinity = if pairs == 0 {
            0.0
        } else {
            merge / pairs as f64
        };
        Some(SplitAssignment {
            groups: teams,
            merge_affinity,
        })
    }
}

/// Random split baseline for the same decomposable setting.
pub fn random_split(
    cands: &[Candidate],
    aff: &dyn AffinityLookup,
    constraints: &TeamConstraints,
    n_groups: usize,
    rng: &mut crowd4u_sim::rng::SimRng,
) -> Option<SplitAssignment> {
    if n_groups == 0 || cands.len() < n_groups * constraints.min_size {
        return None;
    }
    let mut idx: Vec<usize> = (0..cands.len()).collect();
    rng.shuffle(&mut idx);
    let per = (cands.len() / n_groups).min(constraints.max_size);
    let mut groups = Vec::with_capacity(n_groups);
    let mut at = 0;
    for _ in 0..n_groups {
        let take = per.min(idx.len() - at);
        let members: Vec<WorkerId> = idx[at..at + take].iter().map(|&i| cands[i].id).collect();
        at += take;
        if members.len() < constraints.min_size {
            return None;
        }
        groups.push(Team::assemble(members, cands, aff));
    }
    Some(SplitAssignment {
        groups,
        merge_affinity: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::affinity::AffinityMatrix;
    use crowd4u_sim::rng::SimRng;

    fn clustered_instance() -> (Vec<Candidate>, AffinityMatrix) {
        // Two natural clusters of 3: {0,1,2} and {3,4,5}.
        let cands: Vec<Candidate> = (0..6u64)
            .map(|i| Candidate::new(WorkerId(i), 0.6, 0.0))
            .collect();
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        for i in 0..6u64 {
            for j in (i + 1)..6 {
                let same = (i < 3) == (j < 3);
                m.set(WorkerId(i), WorkerId(j), if same { 0.9 } else { 0.1 });
            }
        }
        (cands, m)
    }

    #[test]
    fn split_finds_natural_clusters() {
        let (cands, m) = clustered_instance();
        let s = GrpSplit::new(2)
            .split(&cands, &m, &TeamConstraints::sized(3, 3))
            .unwrap();
        assert_eq!(s.groups.len(), 2);
        assert_eq!(s.total_workers(), 6);
        for g in &s.groups {
            assert!(
                (g.affinity - 0.9).abs() < 1e-9,
                "each group should be one cluster: {g}"
            );
        }
        assert!((s.merge_affinity - 0.1).abs() < 1e-9);
        assert!((s.mean_group_affinity() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn split_beats_random_on_clusters() {
        let (cands, m) = clustered_instance();
        let constraints = TeamConstraints::sized(3, 3);
        let s = GrpSplit::new(2).split(&cands, &m, &constraints).unwrap();
        let mut rng = SimRng::seed_from(11);
        let mut random_better = 0;
        for _ in 0..20 {
            let r = random_split(&cands, &m, &constraints, 2, &mut rng).unwrap();
            if r.mean_group_affinity() > s.mean_group_affinity() + 1e-12 {
                random_better += 1;
            }
        }
        assert_eq!(
            random_better, 0,
            "random split should never beat Grp&Split here"
        );
    }

    #[test]
    fn split_infeasible_cases() {
        let (cands, m) = clustered_instance();
        // not enough workers for 3 groups of 3
        assert!(GrpSplit::new(3)
            .split(&cands, &m, &TeamConstraints::sized(3, 3))
            .is_none());
        // zero groups
        assert!(GrpSplit::new(0)
            .split(&cands, &m, &TeamConstraints::sized(1, 3))
            .is_none());
        // quality unreachable
        assert!(GrpSplit::new(2)
            .split(&cands, &m, &TeamConstraints::sized(3, 3).with_quality(0.95))
            .is_none());
    }

    #[test]
    fn split_respects_max_size() {
        let cands: Vec<Candidate> = (0..10u64)
            .map(|i| Candidate::new(WorkerId(i), 0.5, 0.0))
            .collect();
        let m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        let s = GrpSplit::new(2)
            .split(&cands, &m, &TeamConstraints::sized(2, 4))
            .unwrap();
        for g in &s.groups {
            assert!(g.size() >= 2 && g.size() <= 4);
        }
        // Workers beyond capacity are simply left unassigned.
        assert!(s.total_workers() <= 8);
    }

    #[test]
    fn split_respects_budget() {
        let cands: Vec<Candidate> = (0..6u64)
            .map(|i| Candidate::new(WorkerId(i), 0.5, 2.0))
            .collect();
        let m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        let s = GrpSplit::new(2)
            .split(&cands, &m, &TeamConstraints::sized(2, 3).with_budget(4.0))
            .unwrap();
        for g in &s.groups {
            assert!(g.cost <= 4.0 + 1e-9);
        }
    }

    #[test]
    fn random_split_feasibility() {
        let (cands, m) = clustered_instance();
        let mut rng = SimRng::seed_from(5);
        let r = random_split(&cands, &m, &TeamConstraints::sized(3, 3), 2, &mut rng).unwrap();
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.total_workers(), 6);
        assert!(random_split(&cands, &m, &TeamConstraints::sized(4, 4), 2, &mut rng).is_none());
    }
}
