//! The task assignment controller (paper Figure 2, step (5)): "chooses a
//! team of workers that satisfies the desired human factors, out of the
//! workers who are eligible and interested in the task."

use crate::error::WorkerId;
use crowd4u_assign::prelude::*;
use crowd4u_crowd::affinity::AffinityLookup;
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_forms::admin::DesiredFactors;

pub use crowd4u_forms::admin::AlgorithmChoice;

/// Convert requester factors to optimiser constraints.
pub fn constraints_from_factors(factors: &DesiredFactors) -> TeamConstraints {
    TeamConstraints {
        min_size: factors.min_team,
        max_size: factors.max_team,
        min_quality: if factors.skill_name.is_some() {
            factors.min_quality
        } else {
            0.0
        },
        max_cost: factors.max_cost,
    }
}

/// Build optimiser candidates from worker profiles for a skill dimension.
pub fn candidates_from_profiles(
    profiles: &[&WorkerProfile],
    skill: Option<&str>,
) -> Vec<Candidate> {
    profiles
        .iter()
        .map(|p| {
            let s = match skill {
                Some(name) => p.factors.skill(name),
                None => 1.0, // no skill dimension: everyone fully qualified
            };
            Candidate::new(p.id, s, p.cost)
        })
        .collect()
}

/// Run `algorithm` over the candidates. Per §2.2 the algorithm is adapted
/// to the collaboration scheme, and each project names its own
/// ([`DesiredFactors::algorithm`]); every scheme forms one cohesive group.
/// A new algorithm is a [`TeamFormation`] behind a new [`AlgorithmChoice`]
/// variant, so the journal that registers a project names it.
pub fn suggest_team(
    algorithm: AlgorithmChoice,
    candidates: &[Candidate],
    affinity: &dyn AffinityLookup,
    constraints: &TeamConstraints,
) -> Option<Team> {
    match algorithm {
        AlgorithmChoice::Exact => ExactBB::default().form(candidates, affinity, constraints),
        AlgorithmChoice::Greedy => GreedyAff::default().form(candidates, affinity, constraints),
        AlgorithmChoice::LocalSearch => {
            LocalSearch::default().form(candidates, affinity, constraints)
        }
    }
}

/// Workers in `team` that did not undertake by the deadline (they are
/// excluded from the retry, §2.2.1).
pub fn non_committers(team: &[WorkerId], undertaken: &[WorkerId]) -> Vec<WorkerId> {
    team.iter()
        .copied()
        .filter(|w| !undertaken.contains(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::affinity::AffinityMatrix;

    fn profiles() -> Vec<WorkerProfile> {
        (0..8u64)
            .map(|i| {
                WorkerProfile::new(WorkerId(i), format!("w{i}"))
                    .with_skill("journalism", 0.4 + 0.05 * i as f64)
            })
            .collect()
    }

    fn affinity(ids: &[WorkerId]) -> AffinityMatrix {
        let mut m = AffinityMatrix::new(ids.to_vec());
        for (i, a) in ids.iter().enumerate() {
            for b in ids.iter().skip(i + 1) {
                m.set(*a, *b, ((a.0 + b.0) % 7) as f64 / 7.0);
            }
        }
        m
    }

    #[test]
    fn constraints_conversion() {
        let mut f = DesiredFactors {
            skill_name: Some("journalism".into()),
            min_quality: 0.5,
            min_team: 2,
            max_team: 4,
            max_cost: 9.0,
            ..Default::default()
        };
        let c = constraints_from_factors(&f);
        assert_eq!(c.min_size, 2);
        assert_eq!(c.max_size, 4);
        assert_eq!(c.min_quality, 0.5);
        assert_eq!(c.max_cost, 9.0);
        // without a skill dimension the quality bound is moot
        f.skill_name = None;
        assert_eq!(constraints_from_factors(&f).min_quality, 0.0);
    }

    #[test]
    fn candidates_use_skill_or_default() {
        let ps = profiles();
        let refs: Vec<&WorkerProfile> = ps.iter().collect();
        let with = candidates_from_profiles(&refs, Some("journalism"));
        assert!((with[2].skill - 0.5).abs() < 1e-12);
        let without = candidates_from_profiles(&refs, None);
        assert!(without.iter().all(|c| c.skill == 1.0));
    }

    #[test]
    fn all_algorithms_produce_feasible_teams() {
        let ps = profiles();
        let refs: Vec<&WorkerProfile> = ps.iter().collect();
        let cands = candidates_from_profiles(&refs, Some("journalism"));
        let ids: Vec<WorkerId> = cands.iter().map(|c| c.id).collect();
        let aff = affinity(&ids);
        let constraints = TeamConstraints::sized(2, 4).with_quality(0.45);
        for alg in AlgorithmChoice::ALL {
            let t = suggest_team(alg, &cands, &aff, &constraints).unwrap();
            assert!(validate_team(&t, &cands, &constraints), "{}", alg.name());
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let ps = profiles();
        let refs: Vec<&WorkerProfile> = ps.iter().collect();
        let cands = candidates_from_profiles(&refs, Some("journalism"));
        let ids: Vec<WorkerId> = cands.iter().map(|c| c.id).collect();
        let aff = affinity(&ids);
        let constraints = TeamConstraints::sized(2, 4).with_quality(0.99);
        for alg in AlgorithmChoice::ALL {
            assert!(suggest_team(alg, &cands, &aff, &constraints).is_none());
        }
    }

    #[test]
    fn non_committers_diff() {
        let team = vec![WorkerId(1), WorkerId(2), WorkerId(3)];
        let undertaken = vec![WorkerId(2)];
        assert_eq!(
            non_committers(&team, &undertaken),
            vec![WorkerId(1), WorkerId(3)]
        );
        assert!(non_committers(&team, &team).is_empty());
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(AlgorithmChoice::Exact.name(), "exact");
        assert_eq!(AlgorithmChoice::Greedy.name(), "greedy");
        assert_eq!(AlgorithmChoice::default().name(), "local-search");
    }
}
