//! Worker profiles and human factors.
//!
//! Paper §2.4: "Figure 4 shows the set of human factors that can be updated
//! by each worker. Those factors are either provided by the worker when
//! creating an Crowd4U account (e.g., native languages, location) or
//! computed by the system based on previously performed tasks."

use std::collections::BTreeMap;
use std::fmt;

/// Unique worker identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u64);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A language tag (ISO-style short code, e.g. "en", "ja", "fr").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lang(pub String);

impl Lang {
    pub fn new(code: impl Into<String>) -> Lang {
        Lang(code.into())
    }

    pub fn code(&self) -> &str {
        &self.0
    }
}

/// A `Lang` orders, compares and hashes as its code, so a map keyed by
/// `Lang` can be probed with a `&str`.
impl std::borrow::Borrow<str> for Lang {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A geographic region: a name plus normalised coordinates in `[0,1]²`,
/// used for distance-based affinity in surveillance tasks ("if workers live
/// in the same geographic area, their affinity value is larger", §2.2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub name: String,
    pub x: f64,
    pub y: f64,
}

impl Region {
    pub fn new(name: impl Into<String>, x: f64, y: f64) -> Region {
        Region {
            name: name.into(),
            x,
            y,
        }
    }

    /// Euclidean distance between region centroids.
    pub fn distance(&self, other: &Region) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// The user-editable and system-computed human factors of one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct HumanFactors {
    /// Languages spoken natively.
    pub native_langs: Vec<Lang>,
    /// All languages with fluency in `[0,1]` (native ⇒ 1.0 by convention).
    pub fluency: BTreeMap<Lang, f64>,
    /// Where the worker lives.
    pub region: Region,
    /// Application-specific skills in `[0,1]` (e.g. "transcription",
    /// "journalism"), provided via qualification tests or estimated from
    /// task history (see [`crate::estimate`]).
    pub skills: BTreeMap<String, f64>,
    /// Whether the worker is currently logged in (an eligibility factor the
    /// paper calls out explicitly: "only workers who log in to Crowd4U…").
    pub logged_in: bool,
}

impl Default for HumanFactors {
    fn default() -> Self {
        HumanFactors {
            native_langs: Vec::new(),
            fluency: BTreeMap::new(),
            region: Region::new("unknown", 0.5, 0.5),
            skills: BTreeMap::new(),
            logged_in: true,
        }
    }
}

impl HumanFactors {
    /// Fluency in a language (native ⇒ 1.0; unknown ⇒ 0.0).
    pub fn fluency_in(&self, lang: &Lang) -> f64 {
        self.fluency_in_code(lang.code())
    }

    /// [`fluency_in`](Self::fluency_in) by language code, for callers that
    /// hold a `&str` (the eligibility screen runs this once per worker and
    /// must not build a [`Lang`] to ask).
    pub fn fluency_in_code(&self, code: &str) -> f64 {
        if self.native_langs.iter().any(|l| l.code() == code) {
            return 1.0;
        }
        self.fluency.get(code).copied().unwrap_or(0.0)
    }

    pub fn speaks_natively(&self, lang: &Lang) -> bool {
        self.native_langs.contains(lang)
    }

    /// Skill level in `[0,1]` (0.0 when unknown).
    pub fn skill(&self, name: &str) -> f64 {
        self.skills.get(name).copied().unwrap_or(0.0)
    }

    pub fn set_skill(&mut self, name: impl Into<String>, level: f64) {
        self.skills.insert(name.into(), level.clamp(0.0, 1.0));
    }
}

/// A complete worker record as kept by the worker manager.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    pub id: WorkerId,
    pub name: String,
    pub factors: HumanFactors,
    /// Per-task cost of engaging this worker. Crowd4U is volunteer-based so
    /// production cost is 0, but the assignment algorithms of Rahman et al.
    /// \[9\] include cost budgets, so the field is carried through.
    pub cost: f64,
}

impl WorkerProfile {
    pub fn new(id: WorkerId, name: impl Into<String>) -> WorkerProfile {
        WorkerProfile {
            id,
            name: name.into(),
            factors: HumanFactors::default(),
            cost: 0.0,
        }
    }

    pub fn with_native_lang(mut self, lang: impl Into<String>) -> WorkerProfile {
        let l = Lang::new(lang);
        self.factors.fluency.insert(l.clone(), 1.0);
        self.factors.native_langs.push(l);
        self
    }

    pub fn with_fluency(mut self, lang: impl Into<String>, level: f64) -> WorkerProfile {
        self.factors
            .fluency
            .insert(Lang::new(lang), level.clamp(0.0, 1.0));
        self
    }

    pub fn with_region(mut self, region: Region) -> WorkerProfile {
        self.factors.region = region;
        self
    }

    pub fn with_skill(mut self, name: impl Into<String>, level: f64) -> WorkerProfile {
        self.factors.set_skill(name, level);
        self
    }

    pub fn with_cost(mut self, cost: f64) -> WorkerProfile {
        self.cost = cost;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let w = WorkerProfile::new(WorkerId(1), "ann")
            .with_native_lang("en")
            .with_fluency("fr", 0.6)
            .with_region(Region::new("tokyo", 0.8, 0.2))
            .with_skill("journalism", 0.9)
            .with_cost(2.0);
        assert_eq!(w.id, WorkerId(1));
        assert!(w.factors.speaks_natively(&Lang::new("en")));
        assert_eq!(w.factors.fluency_in(&Lang::new("en")), 1.0);
        assert_eq!(w.factors.fluency_in(&Lang::new("fr")), 0.6);
        assert_eq!(w.factors.fluency_in(&Lang::new("zz")), 0.0);
        assert_eq!(w.factors.fluency_in_code("en"), 1.0);
        assert_eq!(w.factors.fluency_in_code("fr"), 0.6);
        assert_eq!(w.factors.fluency_in_code("zz"), 0.0);
        assert_eq!(w.factors.skill("journalism"), 0.9);
        assert_eq!(w.factors.skill("nothing"), 0.0);
        assert_eq!(w.cost, 2.0);
        assert_eq!(w.factors.region.name, "tokyo");
    }

    #[test]
    fn skills_clamped() {
        let mut f = HumanFactors::default();
        f.set_skill("x", 1.5);
        assert_eq!(f.skill("x"), 1.0);
        f.set_skill("x", -0.5);
        assert_eq!(f.skill("x"), 0.0);
        let w = WorkerProfile::new(WorkerId(1), "a").with_fluency("fr", 7.0);
        assert_eq!(w.factors.fluency_in(&Lang::new("fr")), 1.0);
    }

    #[test]
    fn region_distance() {
        let a = Region::new("a", 0.0, 0.0);
        let b = Region::new("b", 3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn default_factors() {
        let f = HumanFactors::default();
        assert!(f.logged_in);
        assert!(f.native_langs.is_empty());
        assert_eq!(f.region.name, "unknown");
    }

    #[test]
    fn display_forms() {
        assert_eq!(WorkerId(42).to_string(), "w42");
        assert_eq!(Lang::new("en").to_string(), "en");
        assert_eq!(Lang::new("en").code(), "en");
    }
}
