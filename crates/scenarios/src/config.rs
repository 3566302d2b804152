//! Shared scenario configuration and report types.

use crowd4u_collab::Scheme;
use crowd4u_core::controller::AlgorithmChoice;
use crowd4u_sim::time::SimDuration;
use std::fmt;

/// Knobs shared by the three demo scenarios.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// RNG seed: same seed ⇒ identical run.
    pub seed: u64,
    /// Crowd size.
    pub crowd: usize,
    /// Work items (sentences / topics / regions).
    pub items: usize,
    /// Team-formation algorithm, named in each project's factors.
    pub algorithm: AlgorithmChoice,
    /// Upper critical mass for teams.
    pub max_team: usize,
    pub min_team: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            crowd: 60,
            items: 10,
            algorithm: AlgorithmChoice::LocalSearch,
            max_team: 5,
            min_team: 2,
        }
    }
}

impl ScenarioConfig {
    pub fn with_seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }

    pub fn with_crowd(mut self, crowd: usize) -> ScenarioConfig {
        self.crowd = crowd;
        self
    }

    pub fn with_items(mut self, items: usize) -> ScenarioConfig {
        self.items = items;
        self
    }

    pub fn with_algorithm(mut self, algorithm: AlgorithmChoice) -> ScenarioConfig {
        self.algorithm = algorithm;
        self
    }
}

/// What a scenario run produced — the measurable face of paper §2.5.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub scheme: Scheme,
    /// Items fully processed (subtitled sentences / published reports /
    /// closed region reports).
    pub items_completed: usize,
    /// Items attempted.
    pub items_total: usize,
    /// Mean output quality over completed items (model of §"quality.rs").
    pub mean_quality: f64,
    /// Simulated wall-clock the scenario took.
    pub makespan: SimDuration,
    /// Micro-task answers submitted by the crowd.
    pub answers: u64,
    /// Teams suggested by the controller.
    pub teams_formed: u64,
    /// Deadline-driven assignment re-executions.
    pub reassignments: u64,
    /// Mean intra-team affinity of accepted teams.
    pub mean_team_affinity: f64,
    /// Game-aspect points awarded in total.
    pub points_awarded: i64,
}

impl ScenarioReport {
    pub fn completion_rate(&self) -> f64 {
        if self.items_total == 0 {
            0.0
        } else {
            self.items_completed as f64 / self.items_total as f64
        }
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheme={} completed={}/{} quality={:.3} makespan={} answers={} \
             teams={} reassignments={} affinity={:.3} points={}",
            self.scheme,
            self.items_completed,
            self.items_total,
            self.mean_quality,
            self.makespan,
            self.answers,
            self.teams_formed,
            self.reassignments,
            self.mean_team_affinity,
            self.points_awarded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let c = ScenarioConfig::default()
            .with_seed(7)
            .with_crowd(10)
            .with_items(3)
            .with_algorithm(AlgorithmChoice::Greedy);
        assert_eq!(c.seed, 7);
        assert_eq!(c.crowd, 10);
        assert_eq!(c.items, 3);
        assert_eq!(c.algorithm, AlgorithmChoice::Greedy);
    }

    #[test]
    fn completion_rate() {
        let mut r = ScenarioReport {
            scheme: Scheme::Sequential,
            items_completed: 3,
            items_total: 4,
            mean_quality: 0.8,
            makespan: SimDuration::minutes(5),
            answers: 9,
            teams_formed: 1,
            reassignments: 0,
            mean_team_affinity: 0.5,
            points_awarded: 12,
        };
        assert!((r.completion_rate() - 0.75).abs() < 1e-12);
        r.items_total = 0;
        assert_eq!(r.completion_rate(), 0.0);
        assert!(r.to_string().contains("scheme=sequential"));
    }
}
