//! Stochastic worker agents — the substitute for live volunteers.
//!
//! The platform only ever observes a worker through a narrow protocol:
//! does she declare interest in a task (`InterestedIn`), does she start it
//! by the deadline (`Undertakes`), how long does she take, and what quality
//! does her contribution have. `WorkerAgent` models exactly those four
//! observables with a seeded RNG, so simulations are deterministic and the
//! platform code paths exercised are identical to production.

use crate::profile::WorkerProfile;
use crowd4u_sim::rng::SimRng;
use crowd4u_sim::time::SimDuration;

/// Behavioural parameters of a simulated worker.
#[derive(Debug, Clone)]
pub struct Behavior {
    /// Probability of declaring interest in an eligible task.
    pub interest_prob: f64,
    /// Probability of actually starting (undertaking) a task she was
    /// suggested for, before the deadline.
    pub commit_prob: f64,
    /// Mean response delay (exponentially distributed), in seconds.
    pub mean_response_secs: f64,
    /// Mean quality of produced work in `[0,1]`.
    pub quality_mean: f64,
    /// Standard deviation of produced quality.
    pub quality_std: f64,
}

impl Default for Behavior {
    fn default() -> Self {
        Behavior {
            interest_prob: 0.6,
            commit_prob: 0.85,
            mean_response_secs: 300.0,
            quality_mean: 0.7,
            quality_std: 0.12,
        }
    }
}

impl Behavior {
    /// A worker that never responds (failure injection).
    pub fn unresponsive() -> Behavior {
        Behavior {
            interest_prob: 0.0,
            commit_prob: 0.0,
            ..Default::default()
        }
    }

    /// An eager, reliable expert.
    pub fn expert() -> Behavior {
        Behavior {
            interest_prob: 0.9,
            commit_prob: 0.97,
            mean_response_secs: 120.0,
            quality_mean: 0.92,
            quality_std: 0.05,
        }
    }

    /// Interested but flaky: signs up, rarely delivers.
    pub fn flaky() -> Behavior {
        Behavior {
            interest_prob: 0.9,
            commit_prob: 0.25,
            ..Default::default()
        }
    }
}

/// A simulated worker: profile + behaviour + private RNG stream.
#[derive(Debug, Clone)]
pub struct WorkerAgent {
    pub profile: WorkerProfile,
    pub behavior: Behavior,
    rng: SimRng,
}

impl WorkerAgent {
    pub fn new(profile: WorkerProfile, behavior: Behavior, rng: SimRng) -> WorkerAgent {
        WorkerAgent {
            profile,
            behavior,
            rng,
        }
    }

    /// Does the worker declare interest when shown an eligible task?
    pub fn declares_interest(&mut self) -> bool {
        let p = self.behavior.interest_prob;
        self.rng.chance(p)
    }

    /// Does the worker actually start a suggested task before the deadline?
    pub fn commits(&mut self) -> bool {
        let p = self.behavior.commit_prob;
        self.rng.chance(p)
    }

    /// How long until the worker reacts (exponential).
    pub fn response_delay(&mut self) -> SimDuration {
        let mean = self.behavior.mean_response_secs.max(1.0);
        SimDuration::secs(self.rng.exponential(mean).ceil() as u64)
    }

    /// Quality of a produced contribution for a task requiring `skill_name`.
    /// The worker's profile skill shifts the quality: an unskilled worker on
    /// a demanding task produces worse work than their base quality.
    pub fn produce_quality(&mut self, skill_name: Option<&str>) -> f64 {
        let base = self.behavior.quality_mean;
        let skill_bonus = match skill_name {
            Some(name) => 0.3 * (self.profile.factors.skill(name) - 0.5),
            None => 0.0,
        };

        self.rng
            .normal_clamped(base + skill_bonus, self.behavior.quality_std, 0.0, 1.0)
    }

    /// Mutable access to the private RNG stream (for scenario-specific
    /// content generation, e.g. picking a report topic).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{WorkerId, WorkerProfile};

    fn agent(behavior: Behavior, seed: u64) -> WorkerAgent {
        WorkerAgent::new(
            WorkerProfile::new(WorkerId(1), "a").with_skill("x", 0.9),
            behavior,
            SimRng::seed_from(seed),
        )
    }

    #[test]
    fn determinism_across_clones() {
        let mut a = agent(Behavior::default(), 9);
        let mut b = agent(Behavior::default(), 9);
        for _ in 0..50 {
            assert_eq!(a.declares_interest(), b.declares_interest());
            assert_eq!(a.response_delay(), b.response_delay());
            assert_eq!(a.produce_quality(Some("x")), b.produce_quality(Some("x")));
        }
    }

    #[test]
    fn unresponsive_never_engages() {
        let mut a = agent(Behavior::unresponsive(), 3);
        for _ in 0..100 {
            assert!(!a.declares_interest());
            assert!(!a.commits());
        }
    }

    #[test]
    fn expert_beats_default_quality() {
        let mut e = agent(Behavior::expert(), 5);
        let mut d = agent(Behavior::default(), 5);
        let n = 2000;
        let qe: f64 = (0..n).map(|_| e.produce_quality(None)).sum::<f64>() / n as f64;
        let qd: f64 = (0..n).map(|_| d.produce_quality(None)).sum::<f64>() / n as f64;
        assert!(qe > qd + 0.1, "expert {qe} vs default {qd}");
    }

    #[test]
    fn skill_shifts_quality() {
        let skilled = WorkerProfile::new(WorkerId(1), "s").with_skill("t", 1.0);
        let unskilled = WorkerProfile::new(WorkerId(2), "u").with_skill("t", 0.0);
        let mut a = WorkerAgent::new(skilled, Behavior::default(), SimRng::seed_from(7));
        let mut b = WorkerAgent::new(unskilled, Behavior::default(), SimRng::seed_from(7));
        let n = 2000;
        let qa: f64 = (0..n).map(|_| a.produce_quality(Some("t"))).sum::<f64>() / n as f64;
        let qb: f64 = (0..n).map(|_| b.produce_quality(Some("t"))).sum::<f64>() / n as f64;
        assert!(qa > qb + 0.2, "skilled {qa} vs unskilled {qb}");
    }

    #[test]
    fn quality_bounded() {
        let mut a = agent(
            Behavior {
                quality_mean: 1.2,
                quality_std: 0.5,
                ..Default::default()
            },
            11,
        );
        for _ in 0..500 {
            let q = a.produce_quality(None);
            assert!((0.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn response_delay_positive_and_near_mean() {
        let mut a = agent(Behavior::default(), 13);
        let n = 5000;
        let total: u64 = (0..n).map(|_| a.response_delay().ticks()).sum();
        let mean = total as f64 / n as f64;
        assert!(mean > 250.0 && mean < 350.0, "mean delay {mean}");
    }

    #[test]
    fn flaky_commits_rarely() {
        let mut a = agent(Behavior::flaky(), 17);
        let commits = (0..1000).filter(|_| a.commits()).count();
        assert!(commits < 350, "flaky committed {commits}/1000");
    }
}
