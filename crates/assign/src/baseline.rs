//! Random-team baseline: the floor every real algorithm must beat.

use crate::types::{Candidate, Team, TeamConstraints, TeamFormation};
use crowd4u_crowd::affinity::AffinityLookup;
use crowd4u_crowd::profile::WorkerId;
use crowd4u_sim::rng::SimRng;
use std::cell::RefCell;

/// Samples a [`RandomTeam`] draws per call; it keeps the best feasible one.
const ATTEMPTS: usize = 32;

/// Uniformly random feasible team (the best of `ATTEMPTS` samples).
#[derive(Debug)]
pub struct RandomTeam {
    rng: RefCell<SimRng>,
}

impl RandomTeam {
    pub fn new(seed: u64) -> RandomTeam {
        RandomTeam {
            rng: RefCell::new(SimRng::seed_from(seed)),
        }
    }
}

impl TeamFormation for RandomTeam {
    fn name(&self) -> &'static str {
        "random"
    }

    fn form(
        &self,
        cands: &[Candidate],
        aff: &dyn AffinityLookup,
        constraints: &TeamConstraints,
    ) -> Option<Team> {
        if cands.len() < constraints.min_size || constraints.min_size > constraints.max_size {
            return None;
        }
        let mut rng = self.rng.borrow_mut();
        let mut best: Option<Team> = None;
        for _ in 0..ATTEMPTS {
            let size = if constraints.min_size == constraints.max_size {
                constraints.min_size
            } else {
                constraints.min_size
                    + rng.index(constraints.max_size.min(cands.len()) - constraints.min_size + 1)
            };
            let size = size.min(cands.len());
            let members: Vec<WorkerId> = rng
                .sample_indices(cands.len(), size)
                .into_iter()
                .map(|i| cands[i].id)
                .collect();
            let t = Team::assemble(members, cands, aff);
            let feasible = t.size() >= constraints.min_size
                && t.size() <= constraints.max_size
                && t.quality + 1e-12 >= constraints.min_quality
                && t.cost <= constraints.max_cost + 1e-12;
            if feasible && best.as_ref().is_none_or(|b| t.affinity > b.affinity) {
                best = Some(t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactBB;
    use crate::types::validate_team;
    use crowd4u_crowd::affinity::AffinityMatrix;

    fn instance(n: u64, seed: u64) -> (Vec<Candidate>, AffinityMatrix) {
        let mut rng = SimRng::seed_from(seed);
        let cands: Vec<Candidate> = (0..n)
            .map(|i| Candidate::new(WorkerId(i), rng.unit(), 0.0))
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
    fn random_teams_are_feasible() {
        let (cands, m) = instance(15, 2);
        let constraints = TeamConstraints::sized(3, 6).with_quality(0.2);
        let alg = RandomTeam::new(7);
        for _ in 0..10 {
            if let Some(t) = alg.form(&cands, &m, &constraints) {
                assert!(validate_team(&t, &cands, &constraints));
            }
        }
    }

    #[test]
    fn random_never_beats_exact() {
        let (cands, m) = instance(10, 3);
        let constraints = TeamConstraints::sized(2, 4);
        let e = ExactBB::default().form(&cands, &m, &constraints).unwrap();
        let alg = RandomTeam::new(9);
        for _ in 0..10 {
            let r = alg.form(&cands, &m, &constraints).unwrap();
            assert!(e.affinity + 1e-9 >= r.affinity);
        }
    }

    #[test]
    fn random_handles_edge_cases() {
        let (cands, m) = instance(3, 1);
        assert!(RandomTeam::new(1)
            .form(&cands, &m, &TeamConstraints::sized(5, 8))
            .is_none());
        assert!(RandomTeam::new(1)
            .form(&cands, &m, &TeamConstraints::sized(3, 2))
            .is_none());
        assert!(RandomTeam::new(1)
            .form(&[], &m, &TeamConstraints::sized(1, 2))
            .is_none());
        // infeasible quality: all attempts rejected
        assert!(RandomTeam::new(1)
            .form(&cands, &m, &TeamConstraints::sized(2, 3).with_quality(1.5))
            .is_none());
        assert_eq!(RandomTeam::new(1).name(), "random");
    }

    #[test]
    fn fixed_size_constraint_respected() {
        let (cands, m) = instance(12, 4);
        let t = RandomTeam::new(5)
            .form(&cands, &m, &TeamConstraints::sized(4, 4))
            .unwrap();
        assert_eq!(t.size(), 4);
    }
}
