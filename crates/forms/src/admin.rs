//! The project administration page's constraint entry form (paper Figure 3):
//! "a requester specifies the desired human factors for task assignment …
//! The requester also specifies an expiration time for worker recruitment."

use crate::field::{Field, FieldType};
use crate::form::{Form, FormResponse};
use crowd4u_storage::prelude::Value;

/// Which team-formation algorithm forms a project's teams (paper Figure 2,
/// step (5): the controller's algorithm is "adapted to the collaboration
/// scheme", a property of each project). Registration journals it with the
/// other factors, so a replayed, recovered or migrated project keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmChoice {
    Exact,
    Greedy,
    #[default]
    LocalSearch,
}

impl AlgorithmChoice {
    pub const ALL: [AlgorithmChoice; 3] = [
        AlgorithmChoice::Exact,
        AlgorithmChoice::Greedy,
        AlgorithmChoice::LocalSearch,
    ];

    /// The algorithm's journal name.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmChoice::Exact => "exact",
            AlgorithmChoice::Greedy => "greedy",
            AlgorithmChoice::LocalSearch => "local-search",
        }
    }

    /// The algorithm whose [`name`](Self::name) this is, if any.
    pub fn from_name(name: &str) -> Option<AlgorithmChoice> {
        Self::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// Validated requester input from the admin page.
#[derive(Debug, Clone, PartialEq)]
pub struct DesiredFactors {
    /// Language workers must speak (natively or fluently), if any.
    pub required_language: Option<String>,
    /// Skill dimension to screen on, with its minimum mean level.
    pub skill_name: Option<String>,
    pub min_quality: f64,
    /// Team size bounds; `max_team` is the upper critical mass.
    pub min_team: usize,
    pub max_team: usize,
    /// Budget cap across the team (0-cost volunteers make this moot).
    pub max_cost: f64,
    /// Recruitment expiration in simulated seconds.
    pub recruitment_secs: u64,
    /// Require workers to be logged in.
    pub require_login: bool,
    /// The team-formation algorithm; not on the Figure 3 form, so a parsed
    /// submission takes the default.
    pub algorithm: AlgorithmChoice,
}

impl Default for DesiredFactors {
    fn default() -> Self {
        DesiredFactors {
            required_language: None,
            skill_name: None,
            min_quality: 0.0,
            min_team: 2,
            max_team: 5,
            max_cost: f64::INFINITY,
            recruitment_secs: 3600,
            require_login: true,
            algorithm: AlgorithmChoice::default(),
        }
    }
}

/// The constraint entry form itself, matching Figure 3's fields.
pub fn constraint_form(skill_options: &[&str], language_options: &[&str]) -> Form {
    let mut langs = vec!["any"];
    langs.extend_from_slice(language_options);
    let mut skills = vec!["none"];
    skills.extend_from_slice(skill_options);
    Form::new("Project administration: desired human factors")
        .describe("Constraints the suggested worker team must satisfy")
        .field(Field::new(
            "language",
            "Required language",
            FieldType::choice(&langs),
        ))
        .field(Field::new(
            "skill",
            "Skill to screen on",
            FieldType::choice(&skills),
        ))
        .field(Field::new(
            "min_quality",
            "Minimum mean skill",
            FieldType::bounded(0.0, 1.0),
        ))
        .field(Field::new(
            "min_team",
            "Minimum team size",
            FieldType::Number {
                integer: true,
                min: Some(1.0),
                max: Some(100.0),
            },
        ))
        .field(Field::new(
            "max_team",
            "Upper critical mass",
            FieldType::Number {
                integer: true,
                min: Some(1.0),
                max: Some(100.0),
            },
        ))
        .field(
            Field::new(
                "max_cost",
                "Budget",
                FieldType::Number {
                    integer: false,
                    min: Some(0.0),
                    max: None,
                },
            )
            .optional(),
        )
        .field(Field::new(
            "recruitment_secs",
            "Recruitment expiration (seconds)",
            FieldType::Number {
                integer: true,
                min: Some(1.0),
                max: None,
            },
        ))
        .field(Field::new(
            "require_login",
            "Workers must be logged in",
            FieldType::Boolean,
        ))
}

/// Errors from cross-field validation of the admin form.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminFormError {
    Field(Vec<crate::field::FieldError>),
    /// min_team > max_team.
    TeamBoundsInverted {
        min: usize,
        max: usize,
    },
}

impl std::fmt::Display for AdminFormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminFormError::Field(errs) => {
                write!(f, "invalid fields: ")?;
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            AdminFormError::TeamBoundsInverted { min, max } => {
                write!(
                    f,
                    "minimum team size {min} exceeds upper critical mass {max}"
                )
            }
        }
    }
}

/// Parse a requester's submission into [`DesiredFactors`].
pub fn parse_constraints(
    form: &Form,
    response: &FormResponse,
) -> Result<DesiredFactors, AdminFormError> {
    let values = form.validate(response).map_err(AdminFormError::Field)?;
    let by_name = |name: &str| -> &Value {
        let idx = form
            .fields
            .iter()
            .position(|f| f.name == name)
            .expect("constraint form field");
        &values[idx]
    };
    let language = match by_name("language").as_str() {
        Some("any") | None => None,
        Some(l) => Some(l.to_string()),
    };
    let skill = match by_name("skill").as_str() {
        Some("none") | None => None,
        Some(s) => Some(s.to_string()),
    };
    let min_team = by_name("min_team").as_int().unwrap_or(2) as usize;
    let max_team = by_name("max_team").as_int().unwrap_or(5) as usize;
    if min_team > max_team {
        return Err(AdminFormError::TeamBoundsInverted {
            min: min_team,
            max: max_team,
        });
    }
    Ok(DesiredFactors {
        required_language: language,
        skill_name: skill,
        min_quality: by_name("min_quality").as_float().unwrap_or(0.0),
        min_team,
        max_team,
        max_cost: by_name("max_cost").as_float().unwrap_or(f64::INFINITY),
        recruitment_secs: by_name("recruitment_secs").as_int().unwrap_or(3600) as u64,
        require_login: by_name("require_login").as_bool().unwrap_or(true),
        algorithm: AlgorithmChoice::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_response() -> FormResponse {
        FormResponse::new()
            .set("language", "en")
            .set("skill", "translation")
            .set("min_quality", 0.6)
            .set("min_team", 3i64)
            .set("max_team", 5i64)
            .set("max_cost", 10.0)
            .set("recruitment_secs", 7200i64)
            .set("require_login", true)
    }

    #[test]
    fn parses_complete_form() {
        let form = constraint_form(&["translation"], &["en", "ja"]);
        let d = parse_constraints(&form, &full_response()).unwrap();
        assert_eq!(d.required_language.as_deref(), Some("en"));
        assert_eq!(d.skill_name.as_deref(), Some("translation"));
        assert_eq!(d.min_quality, 0.6);
        assert_eq!(d.min_team, 3);
        assert_eq!(d.max_team, 5);
        assert_eq!(d.max_cost, 10.0);
        assert_eq!(d.recruitment_secs, 7200);
        assert!(d.require_login);
    }

    #[test]
    fn any_language_and_no_skill_become_none() {
        let form = constraint_form(&["translation"], &["en"]);
        let resp = full_response().set("language", "any").set("skill", "none");
        let d = parse_constraints(&form, &resp).unwrap();
        assert!(d.required_language.is_none());
        assert!(d.skill_name.is_none());
    }

    #[test]
    fn field_errors_reported() {
        let form = constraint_form(&[], &["en"]);
        // min_quality out of range, missing min_team
        let resp = FormResponse::new()
            .set("language", "en")
            .set("skill", "none")
            .set("min_quality", 2.0)
            .set("max_team", 5i64)
            .set("recruitment_secs", 100i64)
            .set("require_login", false);
        let err = parse_constraints(&form, &resp).unwrap_err();
        match err {
            AdminFormError::Field(errs) => {
                let fields: Vec<&str> = errs.iter().map(|e| e.field.as_str()).collect();
                assert!(fields.contains(&"min_quality"));
                assert!(fields.contains(&"min_team"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn inverted_bounds_rejected() {
        let form = constraint_form(&[], &["en"]);
        let resp = full_response()
            .set("skill", "none")
            .set("min_team", 6i64)
            .set("max_team", 2i64);
        let err = parse_constraints(&form, &resp).unwrap_err();
        assert!(matches!(
            err,
            AdminFormError::TeamBoundsInverted { min: 6, max: 2 }
        ));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn unknown_language_rejected_by_choice_field() {
        let form = constraint_form(&[], &["en"]);
        let resp = full_response().set("language", "xx").set("skill", "none");
        assert!(parse_constraints(&form, &resp).is_err());
    }

    #[test]
    fn optional_budget_defaults_to_infinity() {
        let form = constraint_form(&[], &["en"]);
        let mut resp = full_response().set("skill", "none");
        resp.values.remove("max_cost");
        let d = parse_constraints(&form, &resp).unwrap();
        assert!(d.max_cost.is_infinite());
    }

    #[test]
    fn defaults_are_sane() {
        let d = DesiredFactors::default();
        assert_eq!(d.min_team, 2);
        assert_eq!(d.max_team, 5);
        assert!(d.required_language.is_none());
        assert!(d.require_login);
        assert_eq!(d.algorithm, AlgorithmChoice::LocalSearch);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for a in AlgorithmChoice::ALL {
            assert_eq!(AlgorithmChoice::from_name(a.name()), Some(a));
        }
        assert_eq!(AlgorithmChoice::default().name(), "local-search");
        assert_eq!(AlgorithmChoice::from_name("grp-split"), None);
    }
}
