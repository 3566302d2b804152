//! Team-formation problem definition.
//!
//! Paper §2.2: "we model the set of workers as a complete graph with nodes
//! representing workers and edges labeled with pairwise affinities. A group
//! of workers is a clique in the graph whose size does not surpass the
//! critical mass imposed by a task. … Our task assignment problem reduces to
//! finding a clique that maximizes intra-affinity and satisfies quality and
//! cost limits." (\[9\] proves the optimization NP-complete.)

use crowd4u_crowd::affinity::{group_affinity, AffinityLookup};
use crowd4u_crowd::profile::WorkerId;
use std::fmt;

/// One worker as seen by the optimiser: id plus the scalar quality (skill on
/// the task's dimension) and cost extracted from the profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub id: WorkerId,
    /// Skill on the task's relevant dimension, in `[0,1]`.
    pub skill: f64,
    /// Cost of engaging this worker (0 for volunteers).
    pub cost: f64,
}

impl Candidate {
    pub fn new(id: WorkerId, skill: f64, cost: f64) -> Candidate {
        Candidate { id, skill, cost }
    }
}

/// Constraints a valid team must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub struct TeamConstraints {
    /// Minimum team size (≥ 1).
    pub min_size: usize,
    /// Upper critical mass: "a constraint on the group size beyond which the
    /// collaboration effectiveness diminishes" (§1).
    pub max_size: usize,
    /// Lower bound on the team's mean skill (quality limit).
    pub min_quality: f64,
    /// Upper bound on the team's total cost.
    pub max_cost: f64,
}

impl Default for TeamConstraints {
    fn default() -> Self {
        TeamConstraints {
            min_size: 2,
            max_size: 5,
            min_quality: 0.0,
            max_cost: f64::INFINITY,
        }
    }
}

impl TeamConstraints {
    pub fn sized(min_size: usize, max_size: usize) -> TeamConstraints {
        TeamConstraints {
            min_size,
            max_size,
            ..Default::default()
        }
    }

    pub fn with_quality(mut self, q: f64) -> TeamConstraints {
        self.min_quality = q;
        self
    }

    pub fn with_budget(mut self, c: f64) -> TeamConstraints {
        self.max_cost = c;
        self
    }

    /// Is a concrete team feasible under these constraints?
    pub fn feasible(&self, team: &[&Candidate]) -> bool {
        let n = team.len();
        if n < self.min_size || n > self.max_size || n == 0 {
            return false;
        }
        let quality = team.iter().map(|c| c.skill).sum::<f64>() / n as f64;
        let cost = team.iter().map(|c| c.cost).sum::<f64>();
        quality + 1e-12 >= self.min_quality && cost <= self.max_cost + 1e-12
    }
}

/// A formed team with its objective and constraint values.
#[derive(Debug, Clone, PartialEq)]
pub struct Team {
    pub members: Vec<WorkerId>,
    /// Mean pairwise affinity (the objective).
    pub affinity: f64,
    /// Mean member skill.
    pub quality: f64,
    /// Total cost.
    pub cost: f64,
}

impl Team {
    /// Build a team record from members, computing objective/limits.
    pub fn assemble(members: Vec<WorkerId>, cands: &[Candidate], aff: &dyn AffinityLookup) -> Team {
        let n = members.len().max(1);
        let quality = members
            .iter()
            .map(|m| cands.iter().find(|c| c.id == *m).map_or(0.0, |c| c.skill))
            .sum::<f64>()
            / n as f64;
        let cost = members
            .iter()
            .map(|m| cands.iter().find(|c| c.id == *m).map_or(0.0, |c| c.cost))
            .sum::<f64>();
        let affinity = group_affinity(aff, &members);
        Team {
            members,
            affinity,
            quality,
            cost,
        }
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }
}

impl fmt::Display for Team {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "team[{}] affinity={:.3} quality={:.3} cost={:.1}",
            self.members
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.affinity,
            self.quality,
            self.cost
        )
    }
}

/// The number of unordered pairs among `k` members, as a mean's divisor.
pub(crate) fn pair_count(k: usize) -> f64 {
    (k * k.saturating_sub(1) / 2) as f64
}

/// The admissible bound both pruning searches share: the largest mean pair
/// affinity over final team sizes `k` in `sizes` (each `k ≥ 2`), when a
/// team of `k` members can have a pair sum of at most `sum_bound(k)`.
/// `f64::NEG_INFINITY` for an empty range.
pub(crate) fn mean_bound(
    sizes: std::ops::RangeInclusive<usize>,
    sum_bound: impl Fn(usize) -> f64,
) -> f64 {
    sizes
        .map(|k| sum_bound(k) / pair_count(k))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Common interface of all team-formation algorithms.
pub trait TeamFormation {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Form the best team the algorithm can find, or `None` when no feasible
    /// team exists (the platform then "suggests to the requester to update
    /// her input", §2.2.1).
    ///
    /// Candidate ids are distinct: a worker appears in `cands` at most
    /// once (the platform's pool is `interested_workers`, a set of rows).
    /// Implementations may track membership by position in `cands`.
    fn form(
        &self,
        cands: &[Candidate],
        aff: &dyn AffinityLookup,
        constraints: &TeamConstraints,
    ) -> Option<Team>;
}

/// Validate a team against constraints (shared test/diagnostic helper).
pub fn validate_team(team: &Team, cands: &[Candidate], constraints: &TeamConstraints) -> bool {
    let members: Vec<&Candidate> = team
        .members
        .iter()
        .filter_map(|m| cands.iter().find(|c| c.id == *m))
        .collect();
    if members.len() != team.members.len() {
        return false; // member not in candidate pool
    }
    // no duplicate members
    for (i, m) in team.members.iter().enumerate() {
        if team.members[..i].contains(m) {
            return false;
        }
    }
    constraints.feasible(&members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::affinity::AffinityMatrix;

    fn cands(n: u64) -> Vec<Candidate> {
        (0..n)
            .map(|i| Candidate::new(WorkerId(i), 0.5 + 0.05 * i as f64, 1.0))
            .collect()
    }

    #[test]
    fn constraints_feasibility() {
        let cs = cands(4);
        let team: Vec<&Candidate> = cs.iter().collect();
        let c = TeamConstraints::sized(2, 5);
        assert!(c.feasible(&team));
        assert!(!TeamConstraints::sized(5, 9).feasible(&team)); // too small
        assert!(!TeamConstraints::sized(1, 3).feasible(&team)); // too big
        assert!(!c.clone().with_quality(0.9).feasible(&team)); // mean ≈ 0.575
        assert!(c.clone().with_quality(0.5).feasible(&team));
        assert!(!c.clone().with_budget(3.0).feasible(&team)); // cost 4
        assert!(c.with_budget(4.0).feasible(&team));
        assert!(!TeamConstraints::default().feasible(&[]));
    }

    #[test]
    fn assemble_computes_metrics() {
        let cs = cands(3);
        let mut m = AffinityMatrix::new(cs.iter().map(|c| c.id).collect());
        m.set(WorkerId(0), WorkerId(1), 0.8);
        m.set(WorkerId(0), WorkerId(2), 0.2);
        m.set(WorkerId(1), WorkerId(2), 0.5);
        let t = Team::assemble(vec![WorkerId(0), WorkerId(1), WorkerId(2)], &cs, &m);
        assert!((t.affinity - 0.5).abs() < 1e-12);
        assert!((t.quality - 0.55).abs() < 1e-12);
        assert!((t.cost - 3.0).abs() < 1e-12);
        assert_eq!(t.size(), 3);
        assert!(t.to_string().contains("affinity=0.500"));
    }

    #[test]
    fn validate_rejects_bad_teams() {
        let cs = cands(3);
        let m = AffinityMatrix::new(cs.iter().map(|c| c.id).collect());
        let constraints = TeamConstraints::sized(2, 3);
        let good = Team::assemble(vec![WorkerId(0), WorkerId(1)], &cs, &m);
        assert!(validate_team(&good, &cs, &constraints));
        // duplicate member
        let dup = Team::assemble(vec![WorkerId(0), WorkerId(0)], &cs, &m);
        assert!(!validate_team(&dup, &cs, &constraints));
        // unknown member
        let unknown = Team::assemble(vec![WorkerId(0), WorkerId(99)], &cs, &m);
        assert!(!validate_team(&unknown, &cs, &constraints));
    }
}
