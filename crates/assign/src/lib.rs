//! # crowd4u-assign — affinity-aware team formation
//!
//! Implements the task assignment component of Crowd4U (paper §2.2): given
//! a pool of eligible, interested workers, find "a clique that maximizes
//! intra-affinity and satisfies quality and cost limits", where the clique
//! size is bounded by the task's *upper critical mass*. The underlying
//! optimisation is NP-complete (Rahman et al., ICDM 2015 — the paper's
//! reference \[9\]), so alongside the exact branch-and-bound solver this
//! crate ships the practical approximations the platform actually runs:
//!
//! | algorithm | module | use |
//! |-----------|--------|-----|
//! | `ExactBB` | [`exact`] | optimal; viable to ~20 workers (experiment E7) |
//! | `GreedyAff` | [`greedy`] | multi-seed greedy expansion |
//! | `LocalSearch` | [`greedy`] | greedy + swap refinement |
//! | `GrpSplit` | [`grpsplit`] | decomposable parallel tasks (one group per sub-task) |
//! | `RandomTeam` | [`baseline`] | the baseline floor |
//!
//! All implement [`types::TeamFormation`] and are interchangeable inside the
//! platform's assignment controller; per §2.2 "we adapt the algorithms
//! depending on the type of collaboration scheme" — sequential tasks use a
//! single group, parallel tasks use `GrpSplit`.

pub mod baseline;
pub mod exact;
pub mod greedy;
pub mod grpsplit;
pub mod types;

pub mod prelude {
    pub use crate::baseline::RandomTeam;
    pub use crate::exact::ExactBB;
    pub use crate::greedy::{GreedyAff, LocalSearch};
    pub use crate::grpsplit::{random_split, GrpSplit, SplitAssignment};
    pub use crate::types::{validate_team, Candidate, Team, TeamConstraints, TeamFormation};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use crowd4u_crowd::affinity::AffinityMatrix;
    use crowd4u_crowd::profile::WorkerId;
    use proptest::prelude::*;

    fn build(skills: &[f64], affs: &[f64]) -> (Vec<Candidate>, AffinityMatrix) {
        let n = skills.len();
        let cands: Vec<Candidate> = skills
            .iter()
            .enumerate()
            .map(|(i, &s)| Candidate::new(WorkerId(i as u64), s, 0.0))
            .collect();
        let mut m = AffinityMatrix::new(cands.iter().map(|c| c.id).collect());
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(WorkerId(i as u64), WorkerId(j as u64), affs[k % affs.len()]);
                k += 1;
            }
        }
        (cands, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// On small instances the exact solver is optimal: no algorithm can
        /// beat it, and it matches brute force via the unpruned variant.
        #[test]
        fn exact_dominates(
            skills in proptest::collection::vec(0.0f64..1.0, 5..9),
            affs in proptest::collection::vec(0.0f64..1.0, 8..24),
        ) {
            let (cands, m) = build(&skills, &affs);
            let constraints = TeamConstraints::sized(2, 4);
            let e = ExactBB::default().form(&cands, &m, &constraints).unwrap();
            let brute = ExactBB::without_pruning().form(&cands, &m, &constraints).unwrap();
            prop_assert!((e.affinity - brute.affinity).abs() < 1e-9);
            for alg in [&GreedyAff::default() as &dyn TeamFormation,
                        &LocalSearch::default()] {
                if let Some(t) = alg.form(&cands, &m, &constraints) {
                    prop_assert!(e.affinity + 1e-9 >= t.affinity,
                        "{} beat exact: {} > {}", alg.name(), t.affinity, e.affinity);
                    prop_assert!(validate_team(&t, &cands, &constraints));
                }
            }
        }

        /// Every algorithm's output satisfies the constraints it was given.
        #[test]
        fn teams_always_valid(
            skills in proptest::collection::vec(0.0f64..1.0, 6..16),
            affs in proptest::collection::vec(0.0f64..1.0, 6..30),
            min_q in 0.0f64..0.6,
        ) {
            let (cands, m) = build(&skills, &affs);
            let constraints = TeamConstraints::sized(2, 5).with_quality(min_q);
            for alg in [&ExactBB::default() as &dyn TeamFormation,
                        &GreedyAff::default(),
                        &LocalSearch::default(),
                        &RandomTeam::new(1)] {
                if let Some(t) = alg.form(&cands, &m, &constraints) {
                    prop_assert!(validate_team(&t, &cands, &constraints),
                        "{} produced invalid team {t}", alg.name());
                }
            }
        }

        /// Grp&Split groups are disjoint and within size bounds.
        #[test]
        fn grpsplit_partition_valid(
            skills in proptest::collection::vec(0.3f64..1.0, 8..20),
            affs in proptest::collection::vec(0.0f64..1.0, 10..40),
        ) {
            let (cands, m) = build(&skills, &affs);
            let constraints = TeamConstraints::sized(2, 4);
            if let Some(s) = GrpSplit::new(2).split(&cands, &m, &constraints) {
                let mut seen = std::collections::HashSet::new();
                for g in &s.groups {
                    prop_assert!(g.size() >= 2 && g.size() <= 4);
                    for w in &g.members {
                        prop_assert!(seen.insert(*w), "worker {w} in two groups");
                    }
                }
            }
        }
    }
}
