//! Eligibility computation: project description × worker human factors.
//!
//! Paper §2.2: "*Eligible* means that a worker is eligible for performing a
//! task. This is computed by the CyLog processor using the project
//! description and worker human factors. For example, … a task requester
//! may specify that only workers who log in to Crowd4U and speak English as
//! a native language are eligible."
//!
//! Screening rules (documented so benchmarks are interpretable):
//! * `require_login` ⇒ the worker must be logged in;
//! * `required_language` ⇒ native **or** fluency ≥ 0.5;
//! * `skill_name` with `min_quality` q ⇒ individual skill ≥ q/2. The full
//!   `q` is a *team-mean* constraint enforced by the assignment controller;
//!   the individual screen only "filters out unqualified workers" (§1), so
//!   a team of mixed skills can still average above the bar.

use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_forms::admin::DesiredFactors;

/// Individual screening threshold derived from the team-quality bound.
pub fn individual_skill_floor(factors: &DesiredFactors) -> f64 {
    factors.min_quality / 2.0
}

/// The factor screen: does the worker pass every rule the requester set?
/// Allocation-free, since a registration runs it once per factor-screen
/// project on every shard, and a full screen once per registered worker.
pub fn is_eligible(profile: &WorkerProfile, factors: &DesiredFactors) -> bool {
    if factors.require_login && !profile.factors.logged_in {
        return false;
    }
    if let Some(lang) = &factors.required_language {
        if profile.factors.fluency_in_code(lang) < 0.5 {
            return false;
        }
    }
    if let Some(skill) = &factors.skill_name {
        if profile.factors.skill(skill) < individual_skill_floor(factors) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::profile::WorkerId;

    fn factors() -> DesiredFactors {
        DesiredFactors {
            required_language: Some("en".into()),
            skill_name: Some("translation".into()),
            min_quality: 0.6,
            ..Default::default()
        }
    }

    fn qualified() -> WorkerProfile {
        WorkerProfile::new(WorkerId(1), "ann")
            .with_native_lang("en")
            .with_skill("translation", 0.7)
    }

    #[test]
    fn qualified_worker_passes() {
        assert!(is_eligible(&qualified(), &factors()));
    }

    #[test]
    fn login_required() {
        let mut w = qualified();
        w.factors.logged_in = false;
        assert!(!is_eligible(&w, &factors()));
        // unless the requester does not care
        let mut f = factors();
        f.require_login = false;
        assert!(is_eligible(&w, &f));
    }

    #[test]
    fn language_native_or_fluent() {
        let fluent = WorkerProfile::new(WorkerId(2), "bob")
            .with_native_lang("ja")
            .with_fluency("en", 0.6)
            .with_skill("translation", 0.7);
        assert!(is_eligible(&fluent, &factors()));
        let weak = WorkerProfile::new(WorkerId(3), "caz")
            .with_native_lang("ja")
            .with_fluency("en", 0.3)
            .with_skill("translation", 0.7);
        assert!(!is_eligible(&weak, &factors()));
    }

    #[test]
    fn skill_floor_is_half_quality() {
        let f = factors(); // min_quality 0.6 → floor 0.3
        assert_eq!(individual_skill_floor(&f), 0.3);
        let borderline = WorkerProfile::new(WorkerId(4), "dee")
            .with_native_lang("en")
            .with_skill("translation", 0.3);
        assert!(is_eligible(&borderline, &f));
        let below = WorkerProfile::new(WorkerId(5), "eli")
            .with_native_lang("en")
            .with_skill("translation", 0.29);
        assert!(!is_eligible(&below, &f));
    }

    #[test]
    fn no_constraints_accepts_anyone_logged_in() {
        let d = DesiredFactors::default();
        let w = WorkerProfile::new(WorkerId(6), "raw");
        assert!(is_eligible(&w, &d));
    }
}
