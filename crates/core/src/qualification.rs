//! Qualification tests.
//!
//! Paper §2.4: skills are "computed by the system based on previously
//! performed tasks (e.g., **via qualification tests**, or by learning
//! workers' profiles)". A qualification test is a graded form: the score
//! (fraction of correctly answered questions) becomes the worker's level
//! on the tested skill.

use crate::error::PlatformError;
use crowd4u_crowd::profile::WorkerProfile;
use crowd4u_forms::field::{Field, FieldType};
use crowd4u_forms::form::{Form, FormResponse};
use crowd4u_storage::prelude::Value;

/// A graded test for one skill.
pub struct QualificationTest {
    pub skill: String,
    pub form: Form,
    /// Expected answer per field name, in form order.
    answer_key: Vec<(String, Value)>,
}

impl QualificationTest {
    /// Build a test from (question, choices, correct answer) triples.
    pub fn multiple_choice(
        skill: impl Into<String>,
        questions: &[(&str, &[&str], &str)],
    ) -> QualificationTest {
        let skill = skill.into();
        let mut form = Form::new(format!("Qualification test: {skill}"))
            .describe("Your score sets your skill level");
        let mut answer_key = Vec::with_capacity(questions.len());
        for (i, (prompt, choices, correct)) in questions.iter().enumerate() {
            let name = format!("q{i}");
            assert!(
                choices.contains(correct),
                "answer key must be one of the choices"
            );
            form = form.field(Field::new(
                name.clone(),
                *prompt,
                FieldType::choice(choices),
            ));
            answer_key.push((name, Value::Str((*correct).to_string())));
        }
        QualificationTest {
            skill,
            form,
            answer_key,
        }
    }

    pub fn questions(&self) -> usize {
        self.answer_key.len()
    }

    /// Grade a submission: fraction of questions answered correctly.
    /// Invalid submissions (wrong types / unknown fields) score an error.
    pub fn grade(&self, response: &FormResponse) -> Result<f64, PlatformError> {
        let values = self.form.validate(response).map_err(|errs| {
            PlatformError::Cylog(crowd4u_cylog::error::CylogError::Eval(format!(
                "invalid test submission: {} field error(s)",
                errs.len()
            )))
        })?;
        if self.answer_key.is_empty() {
            return Ok(0.0);
        }
        let correct = self
            .answer_key
            .iter()
            .enumerate()
            .filter(|(i, (_, expect))| values.get(*i) == Some(expect))
            .count();
        Ok(correct as f64 / self.answer_key.len() as f64)
    }

    /// Grade `profile`'s submission: the score, and the profile with the
    /// score as its level on the tested skill (a system-computed human
    /// factor). The caller registers that profile — `register_worker`, or a
    /// runtime's gate — so the change is journaled and a replay has it.
    pub fn graded(
        &self,
        profile: &WorkerProfile,
        response: &FormResponse,
    ) -> Result<(f64, WorkerProfile), PlatformError> {
        let score = self.grade(response)?;
        let mut graded = profile.clone();
        graded.factors.set_skill(self.skill.clone(), score);
        Ok((score, graded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd4u_crowd::profile::WorkerId;

    fn test_fixture() -> QualificationTest {
        QualificationTest::multiple_choice(
            "translation",
            &[
                ("'bonjour' means", &["hello", "goodbye"], "hello"),
                ("'merci' means", &["please", "thanks"], "thanks"),
                ("'chat' means", &["cat", "dog"], "cat"),
                ("'pain' means", &["bread", "hurt"], "bread"),
            ],
        )
    }

    #[test]
    fn grading_counts_correct_answers() {
        let t = test_fixture();
        assert_eq!(t.questions(), 4);
        let perfect = FormResponse::new()
            .set("q0", "hello")
            .set("q1", "thanks")
            .set("q2", "cat")
            .set("q3", "bread");
        assert_eq!(t.grade(&perfect).unwrap(), 1.0);
        let half = FormResponse::new()
            .set("q0", "hello")
            .set("q1", "please")
            .set("q2", "cat")
            .set("q3", "hurt");
        assert_eq!(t.grade(&half).unwrap(), 0.5);
    }

    #[test]
    fn invalid_submissions_rejected() {
        let t = test_fixture();
        // missing questions
        assert!(t.grade(&FormResponse::new()).is_err());
        // out-of-choice answer
        let bad = FormResponse::new()
            .set("q0", "banana")
            .set("q1", "thanks")
            .set("q2", "cat")
            .set("q3", "bread");
        assert!(t.grade(&bad).is_err());
    }

    #[test]
    fn score_becomes_skill_level() {
        let ann = WorkerProfile::new(WorkerId(1), "ann");
        let t = test_fixture();
        let resp = FormResponse::new()
            .set("q0", "hello")
            .set("q1", "thanks")
            .set("q2", "cat")
            .set("q3", "hurt");
        let (score, graded) = t.graded(&ann, &resp).unwrap();
        assert_eq!(score, 0.75);
        assert_eq!(graded.factors.skill("translation"), 0.75);
        assert_eq!(graded.id, ann.id);
        // The input profile is untouched; an invalid submission errors.
        assert_eq!(ann.factors.skill("translation"), 0.0);
        assert!(t.graded(&ann, &FormResponse::new()).is_err());
    }

    #[test]
    #[should_panic]
    fn answer_key_must_be_a_choice() {
        let _ = QualificationTest::multiple_choice("x", &[("q", &["a", "b"] as &[&str], "c")]);
    }
}
