//! The searches as they were before they moved onto a candidate-indexed
//! table — every pair read through `AffinityLookup::affinity`, every swap a
//! fresh `Team::assemble` — kept verbatim as the oracle the table search is
//! held bit-equal to. Test-only: nothing outside this module calls it.

use crate::greedy::{GreedyAff, LocalSearch, SEEDS_SKIPPED};
use crate::types::{pair_count, Candidate, Team, TeamConstraints, TeamFormation};
use crowd4u_crowd::affinity::{AffinityLookup, AffinityMatrix, SparseAffinity};
use crowd4u_crowd::profile::WorkerId;
use proptest::prelude::*;

fn grow_from_seed(
    seed: usize,
    cands: &[Candidate],
    aff: &dyn AffinityLookup,
    constraints: &TeamConstraints,
) -> Option<(f64, Vec<WorkerId>)> {
    let mut in_team = vec![false; cands.len()];
    in_team[seed] = true;
    let mut team = vec![seed];
    let mut pair_sum = 0.0;
    let mut skill_sum = cands[seed].skill;
    let mut cost_sum = cands[seed].cost;
    if cost_sum > constraints.max_cost {
        return None;
    }
    let mut best: Option<(f64, Vec<WorkerId>)> = None;
    let consider = |team: &[usize],
                    pair_sum: f64,
                    skill_sum: f64,
                    cost_sum: f64,
                    best: &mut Option<(f64, Vec<WorkerId>)>| {
        let n = team.len();
        if n < constraints.min_size {
            return;
        }
        if skill_sum / n as f64 + 1e-12 < constraints.min_quality {
            return;
        }
        if cost_sum > constraints.max_cost + 1e-12 {
            return;
        }
        let mean = if n < 2 { 0.0 } else { pair_sum / pair_count(n) };
        if best.as_ref().is_none_or(|(b, _)| mean > *b) {
            *best = Some((mean, team.iter().map(|&i| cands[i].id).collect()));
        }
    };
    consider(&team, pair_sum, skill_sum, cost_sum, &mut best);

    while team.len() < constraints.max_size {
        let mut pick: Option<(usize, f64)> = None;
        for (i, c) in cands.iter().enumerate() {
            if in_team[i] || cost_sum + c.cost > constraints.max_cost + 1e-12 {
                continue;
            }
            let marginal: f64 = team.iter().map(|&m| aff.affinity(cands[m].id, c.id)).sum();
            let new_mean = (pair_sum + marginal) / pair_count(team.len() + 1);
            let score = new_mean + 1e-9 * c.skill;
            if pick.as_ref().is_none_or(|(_, s)| score > *s) {
                pick = Some((i, score));
            }
        }
        let Some((i, _)) = pick else { break };
        let marginal: f64 = team
            .iter()
            .map(|&m| aff.affinity(cands[m].id, cands[i].id))
            .sum();
        in_team[i] = true;
        team.push(i);
        pair_sum += marginal;
        skill_sum += cands[i].skill;
        cost_sum += cands[i].cost;
        consider(&team, pair_sum, skill_sum, cost_sum, &mut best);
    }
    best
}

fn greedy_form(
    max_seeds: usize,
    cands: &[Candidate],
    aff: &dyn AffinityLookup,
    constraints: &TeamConstraints,
) -> Option<Team> {
    if cands.is_empty() || constraints.min_size > constraints.max_size {
        return None;
    }
    let mut seeds: Vec<usize> = (0..cands.len()).collect();
    seeds.sort_by(|&a, &b| cands[b].skill.total_cmp(&cands[a].skill));
    if max_seeds > 0 {
        seeds.truncate(max_seeds);
    }
    let mut best: Option<(f64, Vec<WorkerId>)> = None;
    for s in seeds {
        if let Some((mean, members)) = grow_from_seed(s, cands, aff, constraints) {
            if best.as_ref().is_none_or(|(b, _)| mean > *b) {
                best = Some((mean, members));
            }
        }
    }
    best.map(|(_, members)| Team::assemble(members, cands, aff))
}

fn local_search_form(
    max_iterations: usize,
    cands: &[Candidate],
    aff: &dyn AffinityLookup,
    constraints: &TeamConstraints,
) -> Option<Team> {
    let start = greedy_form(0, cands, aff, constraints)?;
    let mut members = start.members;
    let mut current = start.affinity;
    for _ in 0..max_iterations {
        let mut improved = false;
        'outer: for mi in 0..members.len() {
            for c in cands {
                if members.contains(&c.id) {
                    continue;
                }
                let mut trial = members.clone();
                trial[mi] = c.id;
                let t = Team::assemble(trial, cands, aff);
                let feasible = t.quality + 1e-12 >= constraints.min_quality
                    && t.cost <= constraints.max_cost + 1e-12;
                if feasible && t.affinity > current + 1e-12 {
                    members = t.members;
                    current = t.affinity;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Some(Team::assemble(members, cands, aff))
}

/// A pool drawn by the proptests below: candidates with distinct,
/// non-contiguous ids in shuffled order, and the same pair affinities held
/// two ways — densely (a matrix that was not told about one id in eight,
/// whose pairs therefore read 0.0) and sparsely (only the non-zero pairs).
struct Pool {
    cands: Vec<Candidate>,
    dense: AffinityMatrix,
    sparse: SparseAffinity,
}

/// One raw candidate: id gap, skill, cost, and "the matrix knows this id"
/// unless the last draw is 0.
type RawCandidate = (u64, f64, f64, u8);

/// How a pool's pair affinities are drawn.
#[derive(Debug, Clone, Copy)]
enum Table {
    Uniform,
    /// Quarter steps: equal means and equal scores are common, so the
    /// first-wins tie rules are exercised.
    Quantised,
    /// A clique of two to four candidates whose pairs all sit at the
    /// table's maximum, 1.0, over quarter steps up to 0.75 — the incumbent
    /// reaches the seed bound, so seeds are skipped. `poor` makes the
    /// clique's members skill 0.05 and cost 9, so a quality or cost limit
    /// can rule the maximum pairs out.
    TieHeavy {
        poor: bool,
    },
    /// Every pair 0.0.
    Zero,
}

impl Table {
    fn of(draw: u8) -> Table {
        match draw % 5 {
            0 => Table::Uniform,
            1 => Table::Quantised,
            2 => Table::TieHeavy { poor: false },
            3 => Table::TieHeavy { poor: true },
            _ => Table::Zero,
        }
    }
}

fn pool(raw: &[RawCandidate], seed: u64, table: Table) -> Pool {
    let mut rng = crowd4u_sim::rng::SimRng::seed_from(seed);
    let clique = 2 + (seed % 3) as usize;
    let mut id = 0u64;
    let mut cands = Vec::new();
    let mut known = Vec::new();
    for (i, &(gap, skill, cost, knows)) in raw.iter().enumerate() {
        id += 1 + gap;
        let poor = matches!(table, Table::TieHeavy { poor: true }) && i < clique;
        let (skill, cost) = if poor { (0.05, 9.0) } else { (skill, cost) };
        cands.push(Candidate::new(WorkerId(id), skill, cost));
        if knows != 0 {
            known.push(WorkerId(id));
        }
    }
    let mut dense = AffinityMatrix::new(known.clone());
    let mut sparse = SparseAffinity::new();
    for (i, a) in cands.iter().enumerate() {
        for (j, b) in cands.iter().enumerate().skip(i + 1) {
            let v = rng.unit();
            let v = match table {
                Table::Uniform => v,
                Table::Quantised => (v * 4.0).round() / 4.0,
                Table::TieHeavy { .. } if j < clique => 1.0,
                Table::TieHeavy { .. } => (v * 3.0).round() / 4.0,
                Table::Zero => 0.0,
            };
            dense.set(a.id, b.id, v);
            if known.contains(&a.id) && known.contains(&b.id) {
                sparse.set(a.id, b.id, v);
            }
        }
    }
    rng.shuffle(&mut cands);
    Pool {
        cands,
        dense,
        sparse,
    }
}

fn bits(team: &Option<Team>) -> Option<(Vec<WorkerId>, u64, u64, u64)> {
    team.as_ref().map(|t| {
        (
            t.members.clone(),
            t.affinity.to_bits(),
            t.quality.to_bits(),
            t.cost.to_bits(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The table search returns what the reference returns — the same
    /// members in the same order, the same objective and limits to the
    /// bit, `None` for `None` — through the `table` default
    /// (`SparseAffinity`) and the `AffinityMatrix` override alike.
    #[test]
    fn table_search_is_bit_identical_to_the_reference(
        raw in proptest::collection::vec((0u64..7, 0.0f64..1.0, 0.0f64..3.0, 0u8..8), 0..49),
        seed in any::<u64>(),
        table in any::<u8>(),
        (min_size, max_size) in (0usize..5, 0usize..8),
        min_quality in prop_oneof![Just(0.0f64), 0.0f64..0.8],
        max_cost in prop_oneof![Just(f64::INFINITY), 0.0f64..12.0],
        max_seeds in 0usize..6,
        max_iterations in prop_oneof![Just(1000usize), 0usize..3],
    ) {
        let p = pool(&raw, seed, Table::of(table));
        let constraints = TeamConstraints::sized(min_size, max_size)
            .with_quality(min_quality)
            .with_budget(max_cost);
        both_match(&p, &constraints, max_seeds, max_iterations)?;
    }

    /// The seed bound where it bites: tables whose maximum is reached by
    /// several pairs, or every pair; `min_size` 1, 2 and 3; and quality and
    /// cost limits that rule the maximum pairs out (a poor clique), so the
    /// incumbent stays below a bound the infeasible pairs keep high.
    #[test]
    fn seed_bound_is_exact_on_tie_heavy_tables(
        raw in proptest::collection::vec((0u64..3, 0.0f64..1.0, 0.0f64..3.0, 1u8..8), 2..41),
        seed in any::<u64>(),
        table in prop_oneof![Just(2u8), Just(3u8), Just(4u8)],
        min_size in 1usize..4,
        extra in 0usize..5,
        min_quality in prop_oneof![Just(0.0f64), Just(0.5f64), 0.0f64..0.8],
        max_cost in prop_oneof![Just(f64::INFINITY), Just(8.5f64), 0.0f64..12.0],
        max_seeds in prop_oneof![Just(0usize), 1usize..6],
    ) {
        let p = pool(&raw, seed, Table::of(table));
        let constraints = TeamConstraints::sized(min_size, min_size + extra)
            .with_quality(min_quality)
            .with_budget(max_cost);
        both_match(&p, &constraints, max_seeds, 1000)?;
    }
}

/// Both searches, through both `table` implementations, equal the
/// reference to the bit.
fn both_match(
    p: &Pool,
    constraints: &TeamConstraints,
    max_seeds: usize,
    max_iterations: usize,
) -> Result<(), TestCaseError> {
    for aff in [&p.dense as &dyn AffinityLookup, &p.sparse] {
        let greedy = GreedyAff::with_seed_cap(max_seeds).form(&p.cands, aff, constraints);
        prop_assert_eq!(
            bits(&greedy),
            bits(&greedy_form(max_seeds, &p.cands, aff, constraints)),
            "greedy, {} candidates, {:?}",
            p.cands.len(),
            constraints
        );
        let local = LocalSearch { max_iterations }.form(&p.cands, aff, constraints);
        prop_assert_eq!(
            bits(&local),
            bits(&local_search_form(
                max_iterations,
                &p.cands,
                aff,
                constraints
            )),
            "local search, {} candidates, {:?}",
            p.cands.len(),
            constraints
        );
    }
    Ok(())
}

/// The bound is not vacuous: on tie-heavy pools whose maximum pairs are
/// feasible, it skips at least one seed in most `form` calls, and the
/// result still equals the reference.
#[test]
fn the_seed_bound_skips_seeds_on_most_tie_heavy_pools() {
    let (mut calls, mut skipping) = (0, 0);
    for seed in 0..200u64 {
        let mut rng = crowd4u_sim::rng::SimRng::seed_from(seed);
        let n = 8 + (seed % 33) as usize;
        let raw: Vec<RawCandidate> = (0..n)
            .map(|_| (rng.range_u64(0, 3), rng.unit(), rng.range_f64(0.0, 3.0), 1))
            .collect();
        let p = pool(&raw, seed, Table::of(2));
        let min_size = 1 + (seed % 3) as usize;
        let constraints = TeamConstraints::sized(min_size, min_size + (seed % 4) as usize);
        let before = SEEDS_SKIPPED.with(|c| c.get());
        let greedy = GreedyAff::default().form(&p.cands, &p.dense, &constraints);
        calls += 1;
        skipping += usize::from(SEEDS_SKIPPED.with(|c| c.get()) > before);
        assert_eq!(
            bits(&greedy),
            bits(&greedy_form(0, &p.cands, &p.dense, &constraints)),
            "seed {seed}"
        );
    }
    assert!(
        2 * skipping > calls,
        "the bound skipped seeds in {skipping} of {calls} calls"
    );
}
