//! Synthetic crowd generation: seeded populations of worker agents with
//! realistic human-factor diversity.

use crate::agent::{Behavior, WorkerAgent};
use crate::profile::{Region, WorkerId, WorkerProfile};
use crowd4u_sim::rng::SimRng;

/// Knobs for population synthesis.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    pub size: usize,
    /// Language pool: (code, probability a worker speaks it natively).
    pub languages: Vec<(String, f64)>,
    /// Probability of an extra fluent (non-native) language.
    pub second_lang_prob: f64,
    /// Named regions workers are placed in (uniformly).
    pub regions: Vec<Region>,
    /// Skill names; each worker gets each skill ~ clamped N(0.55, 0.2).
    pub skills: Vec<String>,
    /// Fractions of behaviour archetypes: (expert, flaky, unresponsive);
    /// the remainder get `Behavior::default()`.
    pub expert_frac: f64,
    pub flaky_frac: f64,
    pub unresponsive_frac: f64,
    /// First worker id to allocate.
    pub first_id: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            size: 100,
            languages: vec![
                ("en".into(), 0.45),
                ("ja".into(), 0.30),
                ("fr".into(), 0.15),
                ("es".into(), 0.10),
            ],
            second_lang_prob: 0.35,
            regions: vec![
                Region::new("tsukuba", 0.82, 0.35),
                Region::new("tokyo", 0.80, 0.38),
                Region::new("grenoble", 0.18, 0.42),
                Region::new("arlington", 0.35, 0.65),
                Region::new("doha", 0.55, 0.55),
            ],
            skills: vec![
                "transcription".into(),
                "translation".into(),
                "journalism".into(),
                "surveillance".into(),
            ],
            expert_frac: 0.15,
            flaky_frac: 0.15,
            unresponsive_frac: 0.05,
            first_id: 1,
        }
    }
}

/// A generated crowd. Pair affinity is the platform's to compute from the
/// profiles (`WorkerManager` memoises it), so none is stored here.
pub struct Population {
    pub agents: Vec<WorkerAgent>,
}

impl Population {
    pub fn ids(&self) -> Vec<WorkerId> {
        self.agents.iter().map(|a| a.profile.id).collect()
    }

    pub fn agent(&self, id: WorkerId) -> Option<&WorkerAgent> {
        self.agents.iter().find(|a| a.profile.id == id)
    }

    pub fn agent_mut(&mut self, id: WorkerId) -> Option<&mut WorkerAgent> {
        self.agents.iter_mut().find(|a| a.profile.id == id)
    }

    pub fn profiles(&self) -> Vec<WorkerProfile> {
        self.agents.iter().map(|a| a.profile.clone()).collect()
    }
}

/// Generate a population deterministically from a seed.
pub fn generate(config: &PopulationConfig, rng: &mut SimRng) -> Population {
    let mut agents = Vec::with_capacity(config.size);
    for i in 0..config.size {
        let id = WorkerId(config.first_id + i as u64);
        let mut profile = WorkerProfile::new(id, format!("worker-{}", id.0));

        // Native language: weighted pick.
        let weights: Vec<f64> = config.languages.iter().map(|(_, p)| *p).collect();
        if let Some(li) = rng.weighted_index(&weights) {
            profile = profile.with_native_lang(config.languages[li].0.clone());
            // Maybe a second fluent language.
            if config.languages.len() > 1 && rng.chance(config.second_lang_prob) {
                let mut other = rng.index(config.languages.len());
                if other == li {
                    other = (other + 1) % config.languages.len();
                }
                profile = profile
                    .with_fluency(config.languages[other].0.clone(), rng.range_f64(0.5, 1.0));
            }
        }

        // Region with a little jitter around the centroid.
        if !config.regions.is_empty() {
            let r = rng.choose(&config.regions).clone();
            let jit = |rng: &mut SimRng, v: f64| (v + rng.normal(0.0, 0.02)).clamp(0.0, 1.0);
            let region = Region {
                x: jit(rng, r.x),
                y: jit(rng, r.y),
                name: r.name,
            };
            profile = profile.with_region(region);
        }

        // Skills.
        for s in &config.skills {
            profile = profile.with_skill(s.clone(), rng.normal_clamped(0.55, 0.2, 0.0, 1.0));
        }

        // Behaviour archetype.
        let roll = rng.unit();
        let behavior = if roll < config.expert_frac {
            Behavior::expert()
        } else if roll < config.expert_frac + config.flaky_frac {
            Behavior::flaky()
        } else if roll < config.expert_frac + config.flaky_frac + config.unresponsive_frac {
            Behavior::unresponsive()
        } else {
            Behavior::default()
        };

        let agent_rng = rng.fork(id.0);
        agents.push(WorkerAgent::new(profile, behavior, agent_rng));
    }
    Population { agents }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{affinity_from_profiles, AffinityLookup};

    #[test]
    fn generation_is_deterministic() {
        let cfg = PopulationConfig {
            size: 30,
            ..Default::default()
        };
        let p1 = generate(&cfg, &mut SimRng::seed_from(42));
        let p2 = generate(&cfg, &mut SimRng::seed_from(42));
        assert_eq!(p1.profiles(), p2.profiles());
        let a1 = affinity_from_profiles(&p1.profiles(), 1.0, 1.0, 0.5);
        let a2 = affinity_from_profiles(&p2.profiles(), 1.0, 1.0, 0.5);
        let ids = p1.ids();
        for i in 0..ids.len().min(10) {
            for j in (i + 1)..ids.len().min(10) {
                assert_eq!(a1.affinity(ids[i], ids[j]), a2.affinity(ids[i], ids[j]));
            }
        }
    }

    #[test]
    fn population_has_requested_size_and_ids() {
        let cfg = PopulationConfig {
            size: 25,
            first_id: 100,
            ..Default::default()
        };
        let p = generate(&cfg, &mut SimRng::seed_from(1));
        assert_eq!(p.agents.len(), 25);
        assert_eq!(p.ids()[0], WorkerId(100));
        assert_eq!(p.ids()[24], WorkerId(124));
        assert!(p.agent(WorkerId(100)).is_some());
        assert!(p.agent(WorkerId(999)).is_none());
    }

    #[test]
    fn diversity_present() {
        let p = generate(
            &PopulationConfig {
                size: 200,
                ..Default::default()
            },
            &mut SimRng::seed_from(7),
        );
        let langs: std::collections::HashSet<String> = p
            .agents
            .iter()
            .flat_map(|a| a.profile.factors.native_langs.iter().map(|l| l.0.clone()))
            .collect();
        assert!(
            langs.len() >= 3,
            "expected ≥3 native languages, got {langs:?}"
        );
        let regions: std::collections::HashSet<String> = p
            .agents
            .iter()
            .map(|a| a.profile.factors.region.name.clone())
            .collect();
        assert!(regions.len() >= 4);
        // Behaviour mix: some experts (quality ~0.92) and some defaults.
        let high = p
            .agents
            .iter()
            .filter(|a| a.behavior.quality_mean > 0.9)
            .count();
        assert!(high > 10 && high < 80, "expert count {high}");
    }

    #[test]
    fn affinity_same_region_higher_on_average() {
        let p = generate(
            &PopulationConfig {
                size: 120,
                ..Default::default()
            },
            &mut SimRng::seed_from(3),
        );
        let affinity = affinity_from_profiles(&p.profiles(), 1.0, 1.0, 0.5);
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for (i, a) in p.agents.iter().enumerate() {
            for b in p.agents.iter().skip(i + 1) {
                let aff = affinity.affinity(a.profile.id, b.profile.id);
                if a.profile.factors.region.name == b.profile.factors.region.name {
                    same.push(aff);
                } else {
                    diff.push(aff);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&same) > mean(&diff),
            "same-region affinity {} should exceed cross-region {}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn skills_assigned_for_all_names() {
        let p = generate(
            &PopulationConfig {
                size: 10,
                ..Default::default()
            },
            &mut SimRng::seed_from(5),
        );
        for a in &p.agents {
            for s in ["transcription", "translation", "journalism", "surveillance"] {
                let v = a.profile.factors.skill(s);
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn empty_population() {
        let p = generate(
            &PopulationConfig {
                size: 0,
                ..Default::default()
            },
            &mut SimRng::seed_from(1),
        );
        assert!(p.agents.is_empty());
        assert!(p.ids().is_empty());
    }
}
