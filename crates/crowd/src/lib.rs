//! # crowd4u-crowd — workers, human factors, affinity, and the simulated crowd
//!
//! The paper's worker manager keeps "user properties" (human factors) and
//! the "worker affinity matrix" (Figure 2). This crate provides:
//!
//! * [`profile`] — worker identities, languages, regions, skills, costs;
//! * [`affinity`] — dense and sparse symmetric affinity storage, profile-
//!   derived affinity synthesis, and the group-affinity objective;
//! * [`estimate`] — individual skill estimation from team task history
//!   (paper reference \[10\]);
//! * [`agent`] — stochastic worker agents (the stand-in for live
//!   volunteers: interest, commitment, latency, quality);
//! * [`population`] — seeded synthesis of diverse crowds.

pub mod affinity;
pub mod agent;
pub mod estimate;
pub mod population;
pub mod profile;

pub mod prelude {
    pub use crate::affinity::{
        affinity_from_profiles, group_affinity, AffinityLookup, AffinityMatrix, SparseAffinity,
    };
    pub use crate::agent::{Behavior, WorkerAgent};
    pub use crate::estimate::{estimate_skills, EstimatorConfig, SkillEstimate, TeamObservation};
    pub use crate::population::{generate, Population, PopulationConfig};
    pub use crate::profile::{HumanFactors, Lang, Region, WorkerId, WorkerProfile};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use proptest::prelude::*;

    proptest! {
        /// Dense and sparse affinity agree on arbitrary update sequences.
        #[test]
        fn dense_sparse_equivalence(
            ops in proptest::collection::vec((0u64..8, 0u64..8, 0.0f64..1.0), 0..60)
        ) {
            let ids: Vec<WorkerId> = (0..8).map(WorkerId).collect();
            let mut dense = AffinityMatrix::new(ids.clone());
            let mut sparse = SparseAffinity::new();
            for (a, b, v) in ops {
                dense.set(WorkerId(a), WorkerId(b), v);
                sparse.set(WorkerId(a), WorkerId(b), v);
            }
            for &a in &ids {
                for &b in &ids {
                    prop_assert!((dense.affinity(a, b) - sparse.affinity(a, b)).abs() < 1e-15);
                }
            }
        }

        /// Group affinity is permutation-invariant and bounded by [0,1].
        #[test]
        fn group_affinity_invariants(
            vals in proptest::collection::vec(0.0f64..1.0, 10),
            perm_seed in any::<u64>()
        ) {
            let ids: Vec<WorkerId> = (0..5).map(WorkerId).collect();
            let mut m = AffinityMatrix::new(ids.clone());
            let mut k = 0;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    m.set(ids[i], ids[j], vals[k]);
                    k += 1;
                }
            }
            let a1 = group_affinity(&m, &ids);
            let mut shuffled = ids.clone();
            let mut rng = crowd4u_sim::rng::SimRng::seed_from(perm_seed);
            rng.shuffle(&mut shuffled);
            let a2 = group_affinity(&m, &shuffled);
            prop_assert!((a1 - a2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&a1));
        }

        /// Skill estimation always stays within [0,1] and never diverges.
        #[test]
        fn estimation_bounded(
            obs in proptest::collection::vec(
                (proptest::collection::vec(0u64..6, 1..4), 0.0f64..1.0), 1..20)
        ) {
            let observations: Vec<TeamObservation> = obs
                .into_iter()
                .map(|(ws, q)| TeamObservation::new(
                    ws.into_iter().map(WorkerId).collect(), q))
                .collect();
            let e = estimate_skills(&observations, &EstimatorConfig::default());
            for s in e.skills.values() {
                prop_assert!((0.0..=1.0).contains(s));
            }
            prop_assert!(e.rmse.is_finite());
        }
    }
}
