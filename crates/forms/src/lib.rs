//! # crowd4u-forms — the form-based task UI, as data
//!
//! Crowd4U "provides an easy-to-use form-based task UI" (abstract) and lets
//! requesters "define tasks with a form-based user interface and
//! spreadsheets" (§2.1). The production system renders web pages; this crate
//! models the same artifacts as plain data with deterministic text
//! rendering, so simulated workers and tests can drive exactly the same
//! validation paths:
//!
//! * [`field`]/[`form`] — typed fields, forms, responses, validation;
//! * [`from_cylog`] — worker task forms generated from CyLog open
//!   predicates (inputs read-only, outputs editable);
//! * [`admin`] — the Figure 3 constraint-entry form on the project
//!   administration page, parsed into [`admin::DesiredFactors`];
//! * [`spreadsheet`] — CSV import of task seeds / export of results.

pub mod admin;
pub mod field;
pub mod form;
pub mod from_cylog;
pub mod spreadsheet;

pub mod prelude {
    pub use crate::admin::{
        constraint_form, parse_constraints, AdminFormError, AlgorithmChoice, DesiredFactors,
    };
    pub use crate::field::{Field, FieldError, FieldType};
    pub use crate::form::{Form, FormResponse};
    pub use crate::from_cylog::form_for_request;
    pub use crate::spreadsheet::{describe_csv_error, export_csv, import_csv};
}

#[cfg(test)]
mod proptests {
    use crate::prelude::*;
    use crowd4u_storage::prelude::Value;
    use proptest::prelude::*;

    proptest! {
        /// Validation is total: any response either validates or produces
        /// at least one field error — never a panic.
        #[test]
        fn validation_total(
            text in "[ -~]{0,30}",
            num in proptest::option::of(-1e6f64..1e6),
            flag in proptest::option::of(any::<bool>()),
            extra in proptest::option::of("[a-z]{1,8}"),
        ) {
            let form = Form::new("t")
                .field(Field::new("text", "T", FieldType::Text { multiline: false, max_len: 10 }))
                .field(Field::new("num", "N", FieldType::bounded(0.0, 100.0)))
                .field(Field::new("flag", "F", FieldType::Boolean).optional());
            let mut resp = FormResponse::new().set("text", text);
            if let Some(n) = num { resp = resp.set("num", n); }
            if let Some(b) = flag { resp = resp.set("flag", b); }
            if let Some(x) = extra { resp = resp.set(x, 1i64); }
            match form.validate(&resp) {
                Ok(vals) => {
                    prop_assert_eq!(vals.len(), 3);
                    // all constraints hold
                    if let Value::Str(s) = &vals[0] {
                        prop_assert!(s.chars().count() <= 10);
                    }
                    if let Some(f) = vals[1].as_float() {
                        prop_assert!((0.0..=100.0).contains(&f));
                    }
                }
                Err(errs) => prop_assert!(!errs.is_empty()),
            }
        }

        /// The admin form parser never accepts inverted team bounds.
        #[test]
        fn admin_bounds_enforced(min in 1i64..20, max in 1i64..20) {
            let form = constraint_form(&[], &["en"]);
            let resp = FormResponse::new()
                .set("language", "any")
                .set("skill", "none")
                .set("min_quality", 0.5)
                .set("min_team", min)
                .set("max_team", max)
                .set("recruitment_secs", 60i64)
                .set("require_login", true);
            match parse_constraints(&form, &resp) {
                Ok(d) => prop_assert!(d.min_team <= d.max_team),
                Err(AdminFormError::TeamBoundsInverted { .. }) => prop_assert!(min > max),
                Err(other) => prop_assert!(false, "unexpected error {other}"),
            }
        }
    }
}
