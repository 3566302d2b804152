//! Generate task forms from CyLog open predicates.
//!
//! Paper §2.1: "Crowd4U also provides tools to help requesters generate
//! CyLog rules by allowing them to define tasks with a form-based user
//! interface" — and the reverse direction is how workers *see* CyLog tasks:
//! every open-predicate question renders as a form whose read-only fields
//! are the question's inputs and whose editable fields are its outputs.

use crate::field::{Field, FieldType};
use crate::form::Form;
use crowd4u_cylog::analysis::{CompiledProgram, PredKind};
use crowd4u_cylog::engine::OpenRequest;
use crowd4u_storage::prelude::{Value, ValueType};

/// Map a storage type to the form field type a worker fills in.
fn field_type_for(ty: ValueType) -> FieldType {
    match ty {
        ValueType::Bool => FieldType::Boolean,
        ValueType::Int => FieldType::integer(),
        ValueType::Float => FieldType::number(),
        ValueType::Str => FieldType::textarea(),
        // Ids are entered as integers (pickers exist only in the real UI).
        ValueType::Id => FieldType::integer(),
    }
}

/// Build the worker-facing form for one open question.
///
/// Input columns become read-only context fields pre-filled with the
/// question's values; output columns become required editable fields.
pub fn form_for_request(program: &CompiledProgram, req: &OpenRequest) -> Form {
    let info = program.pred_info(req.pred);
    let n_inputs = match info.kind {
        PredKind::Open { n_inputs, .. } => n_inputs,
        PredKind::Closed => 0,
    };
    let mut form = Form::new(format!("Task: {}", info.name)).describe(if req.points > 0 {
        format!("Answer to earn {} points", req.points)
    } else {
        "Volunteer task".to_string()
    });
    for (i, (name, ty)) in info
        .col_names
        .iter()
        .zip(&info.col_types)
        .enumerate()
        .take(n_inputs)
    {
        let value = req.inputs.get(i).cloned().unwrap_or(Value::Null);
        form =
            form.field(Field::new(name.clone(), name.clone(), field_type_for(*ty)).readonly(value));
    }
    for (name, ty) in info.col_names.iter().zip(&info.col_types).skip(n_inputs) {
        form = form.field(Field::new(name.clone(), name.clone(), field_type_for(*ty)));
    }
    form
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::form::FormResponse;
    use crowd4u_cylog::engine::CylogEngine;
    use crowd4u_storage::prelude::Value;

    fn engine() -> CylogEngine {
        let mut e = CylogEngine::from_source(
            "rel sentence(s: str).\n\
             open judge(src: str, dst: str) -> (ok: bool, score: float) points 2.\n\
             rel out(s: str, ok: bool).\n\
             out(S, OK) :- sentence(S), judge(S, S, OK, _).\n",
        )
        .unwrap();
        e.add_fact("sentence", vec!["hola".into()]).unwrap();
        e.run().unwrap();
        e
    }

    #[test]
    fn form_mirrors_open_predicate() {
        let e = engine();
        let req = e.pending_requests().iter().next().unwrap();
        let form = form_for_request(e.program(), req);
        assert_eq!(form.fields.len(), 4);
        // inputs are read-only and prefilled
        assert_eq!(
            form.fields[0].readonly_value,
            Some(Value::Str("hola".into()))
        );
        assert_eq!(
            form.fields[1].readonly_value,
            Some(Value::Str("hola".into()))
        );
        // outputs editable: bool then float
        assert!(form.fields[2].readonly_value.is_none());
        assert_eq!(form.fields[2].ty, FieldType::Boolean);
        assert_eq!(form.fields[3].ty, FieldType::number());
        assert!(form.description.contains("2 points"));
    }

    #[test]
    fn filled_form_supplies_the_answer() {
        let mut e = engine();
        let req = e.pending_requests().iter().next().unwrap().clone();
        let form = form_for_request(e.program(), &req);
        let vals = form
            .validate(&FormResponse::new().set("ok", true).set("score", 0.9))
            .unwrap();
        // First n_inputs values echo the question, the rest are the answer.
        let outputs = vals[2..].to_vec();
        e.answer(&req.pred_name, req.inputs.clone(), outputs, Some(1))
            .unwrap();
        e.run().unwrap();
        assert_eq!(e.fact_count("out").unwrap(), 1);
    }

    #[test]
    fn bad_fill_is_rejected_by_the_form() {
        let e = engine();
        let req = e.pending_requests().iter().next().unwrap();
        let form = form_for_request(e.program(), req);
        // Missing score, wrong type for ok.
        let errs = form
            .validate(&FormResponse::new().set("ok", 3i64))
            .unwrap_err();
        assert!(errs.iter().any(|er| er.field == "ok"));
        assert!(errs.iter().any(|er| er.field == "score"));
    }

    #[test]
    fn type_mapping() {
        assert_eq!(field_type_for(ValueType::Bool), FieldType::Boolean);
        assert_eq!(field_type_for(ValueType::Int), FieldType::integer());
        assert_eq!(field_type_for(ValueType::Id), FieldType::integer());
        assert_eq!(field_type_for(ValueType::Float), FieldType::number());
        assert_eq!(field_type_for(ValueType::Str), FieldType::textarea());
    }
}
