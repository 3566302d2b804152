//! Semantic analysis: declaration checking, type inference, rule safety
//! (well-moded body reordering), open-predicate demand compilation, and
//! stratification.
//!
//! The compiler turns the string-based AST into an index-based form:
//! predicates become `PredId`s, variables become dense per-rule slots, and
//! rule bodies are reordered so a left-to-right evaluator is always *ready*
//! (every comparison/assignment/negation sees only bound variables).

use crate::ast::*;
use crate::error::CylogError;
use crowd4u_storage::prelude::{Value, ValueType};
use std::collections::{BTreeSet, HashMap};

pub type PredId = usize;

/// What kind of predicate this is.
#[derive(Debug, Clone, PartialEq)]
pub enum PredKind {
    /// Machine relation (EDB facts and/or IDB rules).
    Closed,
    /// Human-evaluated predicate: first `n_inputs` columns are posed to the
    /// crowd, the rest are filled in by the answering worker.
    Open { n_inputs: usize, points: i64 },
}

/// Compiled predicate metadata.
#[derive(Debug, Clone)]
pub struct PredInfo {
    pub name: String,
    pub col_names: Vec<String>,
    pub col_types: Vec<ValueType>,
    pub kind: PredKind,
    /// True when at least one (non-fact) rule derives this predicate.
    pub derived: bool,
    /// Stratum index assigned by stratification.
    pub stratum: usize,
    /// True when evaluation reads this predicate from the host's facts, not
    /// from the engine's database. Compilation leaves it false; only
    /// [`CylogEngine::bind_host`](crate::engine::CylogEngine::bind_host)
    /// sets it.
    pub host: bool,
}

impl PredInfo {
    pub fn arity(&self) -> usize {
        self.col_types.len()
    }

    pub fn is_open(&self) -> bool {
        matches!(self.kind, PredKind::Open { .. })
    }

    pub fn open_inputs(&self) -> usize {
        match self.kind {
            PredKind::Open { n_inputs, .. } => n_inputs,
            PredKind::Closed => 0,
        }
    }
}

/// Compiled term: per-rule variable slot or constant.
#[derive(Debug, Clone, PartialEq)]
pub enum CTerm {
    Var(u32),
    Const(Value),
}

/// Compiled scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    Var(u32),
    Const(Value),
    Binary(ArithOp, Box<CExpr>, Box<CExpr>),
}

/// Compiled atom.
#[derive(Debug, Clone, PartialEq)]
pub struct CAtom {
    pub pred: PredId,
    pub terms: Vec<CTerm>,
}

/// Compiled body literal, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub enum CLit {
    Pos(CAtom),
    Neg(CAtom),
    Cmp(CmpOp, CExpr, CExpr),
    Let(u32, CExpr),
}

/// Compiled head term.
#[derive(Debug, Clone, PartialEq)]
pub enum CHeadTerm {
    Var(u32),
    Const(Value),
    Agg(AggFunc, u32),
}

/// Demand specification: how to compute the crowd questions an open atom in
/// a rule generates ("magic set" of its input columns).
#[derive(Debug, Clone)]
pub struct DemandSpec {
    pub open_pred: PredId,
    /// Terms for the open predicate's input columns.
    pub input_terms: Vec<CTerm>,
    /// Sub-body (already safety-ordered) that binds the input terms.
    pub sub_body: Vec<CLit>,
    pub num_vars: usize,
}

/// A compiled rule.
#[derive(Debug, Clone)]
pub struct CRule {
    pub head_pred: PredId,
    pub head: Vec<CHeadTerm>,
    /// Safety-ordered body.
    pub body: Vec<CLit>,
    pub num_vars: usize,
    pub var_names: Vec<String>,
    pub is_agg: bool,
    /// Demands for open atoms appearing in this rule's body.
    pub demands: Vec<DemandSpec>,
    /// Pretty-printed source form, for diagnostics.
    pub display: String,
}

/// Read/write footprint of one stratum, used by incremental evaluation to
/// decide whether a stratum can be skipped, delta-seeded, or must be
/// rebuilt when the predicates it reads change between fixpoints.
#[derive(Debug, Clone, Default)]
pub struct StratumInfo {
    /// Predicates derived by rules in this stratum.
    pub heads: BTreeSet<PredId>,
    /// Predicates read through positive atoms of non-aggregate rules —
    /// growth in these can be handled by delta joins.
    pub pos_reads: BTreeSet<PredId>,
    /// Predicates whose changes delta joins cannot absorb: negated atoms
    /// (monotonicity breaks), and every positive atom of an aggregate rule
    /// (a fold must see its whole group, not just the new rows).
    pub unsafe_reads: BTreeSet<PredId>,
}

/// A fully analysed program ready for evaluation.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub preds: Vec<PredInfo>,
    pub pred_ids: HashMap<String, PredId>,
    pub rules: Vec<CRule>,
    /// Ground facts given in the program text.
    pub facts: Vec<(PredId, Vec<Value>)>,
    /// Rule indices grouped by stratum, in evaluation order.
    pub strata: Vec<Vec<usize>>,
    /// Per-stratum read/write footprint, parallel to `strata`.
    pub stratum_info: Vec<StratumInfo>,
}

impl CompiledProgram {
    pub fn pred(&self, name: &str) -> Option<PredId> {
        self.pred_ids.get(name).copied()
    }

    pub fn pred_info(&self, id: PredId) -> &PredInfo {
        &self.preds[id]
    }
}

struct RuleCtx {
    var_ids: HashMap<String, u32>,
    var_names: Vec<String>,
    var_types: Vec<Option<ValueType>>,
}

impl RuleCtx {
    fn new() -> RuleCtx {
        RuleCtx {
            var_ids: HashMap::new(),
            var_names: Vec::new(),
            var_types: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.var_ids.get(name) {
            return id;
        }
        let id = self.var_names.len() as u32;
        self.var_ids.insert(name.to_owned(), id);
        self.var_names.push(name.to_owned());
        self.var_types.push(None);
        id
    }

    fn note_type(&mut self, var: u32, ty: ValueType, rule: &str) -> Result<(), CylogError> {
        let slot = &mut self.var_types[var as usize];
        match slot {
            None => {
                *slot = Some(ty);
                Ok(())
            }
            Some(t) if *t == ty => Ok(()),
            // ints and floats unify to float (numeric widening)
            Some(t @ ValueType::Int) if ty == ValueType::Float => {
                *t = ValueType::Float;
                Ok(())
            }
            Some(ValueType::Float) if ty == ValueType::Int => Ok(()),
            Some(t) => Err(CylogError::Semantic(format!(
                "variable `{}` used as {} and {} in rule `{}`",
                self.var_names[var as usize], t, ty, rule
            ))),
        }
    }
}

/// Analyse a parsed program.
pub fn compile(program: &Program) -> Result<CompiledProgram, CylogError> {
    // ---- Collect predicate declarations ----
    let mut preds: Vec<PredInfo> = Vec::new();
    let mut pred_ids: HashMap<String, PredId> = HashMap::new();
    let declare = |preds: &mut Vec<PredInfo>,
                   pred_ids: &mut HashMap<String, PredId>,
                   info: PredInfo|
     -> Result<PredId, CylogError> {
        if pred_ids.contains_key(&info.name) {
            return Err(CylogError::Semantic(format!(
                "predicate `{}` declared twice",
                info.name
            )));
        }
        let id = preds.len();
        pred_ids.insert(info.name.clone(), id);
        preds.push(info);
        Ok(id)
    };

    for clause in &program.clauses {
        match clause {
            Clause::Rel(d) => {
                check_unique_cols(&d.name, d.cols.iter())?;
                declare(
                    &mut preds,
                    &mut pred_ids,
                    PredInfo {
                        name: d.name.clone(),
                        col_names: d.cols.iter().map(|c| c.name.clone()).collect(),
                        col_types: d.cols.iter().map(|c| c.ty).collect(),
                        kind: PredKind::Closed,
                        derived: false,
                        stratum: 0,
                        host: false,
                    },
                )?;
            }
            Clause::Open(d) => {
                check_unique_cols(&d.name, d.inputs.iter().chain(d.outputs.iter()))?;
                declare(
                    &mut preds,
                    &mut pred_ids,
                    PredInfo {
                        name: d.name.clone(),
                        col_names: d
                            .inputs
                            .iter()
                            .chain(d.outputs.iter())
                            .map(|c| c.name.clone())
                            .collect(),
                        col_types: d
                            .inputs
                            .iter()
                            .chain(d.outputs.iter())
                            .map(|c| c.ty)
                            .collect(),
                        kind: PredKind::Open {
                            n_inputs: d.inputs.len(),
                            points: d.points,
                        },
                        derived: false,
                        stratum: 0,
                        host: false,
                    },
                )?;
            }
            Clause::Rule(_) => {}
        }
    }

    // ---- Compile facts and rules ----
    let mut rules: Vec<CRule> = Vec::new();
    let mut facts: Vec<(PredId, Vec<Value>)> = Vec::new();
    for clause in &program.clauses {
        let Clause::Rule(rule) = clause else { continue };
        let rule_str = rule.to_string();
        let head_id = *pred_ids.get(&rule.head_pred).ok_or_else(|| {
            CylogError::Semantic(format!(
                "undeclared predicate `{}` in rule `{rule_str}`",
                rule.head_pred
            ))
        })?;
        if rule.head_terms.len() != preds[head_id].arity() {
            return Err(CylogError::Semantic(format!(
                "`{}` has arity {}, used with {} head terms in `{rule_str}`",
                rule.head_pred,
                preds[head_id].arity(),
                rule.head_terms.len()
            )));
        }
        if rule.is_fact() {
            let values: Vec<Value> = rule
                .head_terms
                .iter()
                .map(|t| match t {
                    HeadTerm::Plain(Term::Const(v)) => v.clone(),
                    _ => unreachable!("is_fact checked"),
                })
                .collect();
            check_fact_types(&preds[head_id], &values, &rule_str)?;
            facts.push((head_id, values));
            continue;
        }
        if preds[head_id].is_open() {
            return Err(CylogError::Semantic(format!(
                "open predicate `{}` cannot be derived by a rule (`{rule_str}`)",
                rule.head_pred
            )));
        }
        preds[head_id].derived = true;
        let compiled = compile_rule(rule, head_id, &preds, &pred_ids, &rule_str)?;
        rules.push(compiled);
    }

    // ---- Stratification ----
    let strata_of = stratify(&preds, &rules, program)?;
    for (pid, s) in strata_of.iter().enumerate() {
        preds[pid].stratum = *s;
    }
    let max_stratum = strata_of.iter().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); max_stratum + 1];
    for (ri, r) in rules.iter().enumerate() {
        strata[strata_of[r.head_pred]].push(ri);
    }
    let stratum_info: Vec<StratumInfo> = strata
        .iter()
        .map(|rule_idx| {
            let mut info = StratumInfo::default();
            for &ri in rule_idx {
                let r = &rules[ri];
                info.heads.insert(r.head_pred);
                for lit in &r.body {
                    match lit {
                        CLit::Pos(a) if r.is_agg => {
                            info.unsafe_reads.insert(a.pred);
                        }
                        CLit::Pos(a) => {
                            info.pos_reads.insert(a.pred);
                        }
                        CLit::Neg(a) => {
                            info.unsafe_reads.insert(a.pred);
                        }
                        CLit::Cmp(..) | CLit::Let(..) => {}
                    }
                }
            }
            info
        })
        .collect();

    Ok(CompiledProgram {
        preds,
        pred_ids,
        rules,
        facts,
        strata,
        stratum_info,
    })
}

fn check_unique_cols<'a>(
    pred: &str,
    cols: impl Iterator<Item = &'a ColDecl>,
) -> Result<(), CylogError> {
    let mut seen = std::collections::HashSet::new();
    for c in cols {
        if !seen.insert(&c.name) {
            return Err(CylogError::Semantic(format!(
                "duplicate column `{}` in predicate `{pred}`",
                c.name
            )));
        }
    }
    Ok(())
}

fn check_fact_types(info: &PredInfo, values: &[Value], rule: &str) -> Result<(), CylogError> {
    for (v, ty) in values.iter().zip(&info.col_types) {
        let ok = match (v, ty) {
            (Value::Null, _) => true,
            (Value::Int(_), ValueType::Float) => true, // widen
            _ => v.conforms_to(*ty),
        };
        if !ok {
            return Err(CylogError::Semantic(format!(
                "fact `{rule}` has value {v} incompatible with column type {ty}"
            )));
        }
    }
    Ok(())
}

fn compile_term(t: &Term, ctx: &mut RuleCtx) -> CTerm {
    match t {
        Term::Var(v) => CTerm::Var(ctx.intern(v)),
        Term::Const(c) => CTerm::Const(c.clone()),
    }
}

fn compile_expr(e: &ScalarExpr, ctx: &mut RuleCtx) -> CExpr {
    match e {
        ScalarExpr::Term(Term::Var(v)) => CExpr::Var(ctx.intern(v)),
        ScalarExpr::Term(Term::Const(c)) => CExpr::Const(c.clone()),
        ScalarExpr::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(compile_expr(a, ctx)),
            Box::new(compile_expr(b, ctx)),
        ),
    }
}

fn expr_vars(e: &CExpr, out: &mut Vec<u32>) {
    match e {
        CExpr::Var(v) => out.push(*v),
        CExpr::Const(_) => {}
        CExpr::Binary(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
    }
}

fn atom_vars(a: &CAtom) -> Vec<u32> {
    a.terms
        .iter()
        .filter_map(|t| match t {
            CTerm::Var(v) => Some(*v),
            CTerm::Const(_) => None,
        })
        .collect()
}

fn lit_required_vars(l: &CLit) -> Vec<u32> {
    match l {
        CLit::Pos(_) => Vec::new(),
        CLit::Neg(a) => atom_vars(a),
        CLit::Cmp(_, a, b) => {
            let mut v = Vec::new();
            expr_vars(a, &mut v);
            expr_vars(b, &mut v);
            v
        }
        CLit::Let(_, e) => {
            let mut v = Vec::new();
            expr_vars(e, &mut v);
            v
        }
    }
}

fn lit_bound_vars(l: &CLit) -> Vec<u32> {
    match l {
        CLit::Pos(a) => atom_vars(a),
        CLit::Let(v, _) => vec![*v],
        _ => Vec::new(),
    }
}

/// Greedy well-moded reorder. Returns the new order or the index of a stuck
/// literal for error reporting.
fn reorder_body(lits: &[CLit]) -> Result<Vec<CLit>, usize> {
    let n = lits.len();
    let mut used = vec![false; n];
    let mut bound: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut picked = None;
        for (i, lit) in lits.iter().enumerate() {
            if used[i] {
                continue;
            }
            // Lets must not rebind an already-bound variable.
            if let CLit::Let(v, _) = lit {
                if bound.contains(v) {
                    continue;
                }
            }
            if lit_required_vars(lit).iter().all(|v| bound.contains(v)) {
                picked = Some(i);
                break;
            }
        }
        let Some(i) = picked else {
            // report the first unused literal as the stuck one
            let stuck = (0..n).find(|&i| !used[i]).expect("n literals remain");
            return Err(stuck);
        };
        used[i] = true;
        for v in lit_bound_vars(&lits[i]) {
            bound.insert(v);
        }
        out.push(lits[i].clone());
    }
    Ok(out)
}

fn infer_expr_type(e: &CExpr, ctx: &RuleCtx, rule: &str) -> Result<Option<ValueType>, CylogError> {
    match e {
        CExpr::Var(v) => Ok(ctx.var_types[*v as usize]),
        CExpr::Const(c) => Ok(c.value_type()),
        CExpr::Binary(op, a, b) => {
            let ta = infer_expr_type(a, ctx, rule)?;
            let tb = infer_expr_type(b, ctx, rule)?;
            match (ta, tb) {
                (Some(ValueType::Str), Some(ValueType::Str)) => {
                    if *op == ArithOp::Add {
                        Ok(Some(ValueType::Str))
                    } else {
                        Err(CylogError::Semantic(format!(
                            "operator `{op}` not defined on strings in `{rule}`"
                        )))
                    }
                }
                (Some(ValueType::Int), Some(ValueType::Int)) => Ok(Some(ValueType::Int)),
                (Some(x), Some(y)) if numeric(x) && numeric(y) => Ok(Some(ValueType::Float)),
                (None, _) | (_, None) => Ok(None),
                (Some(x), Some(y)) => Err(CylogError::Semantic(format!(
                    "arithmetic on {x} and {y} in `{rule}`"
                ))),
            }
        }
    }
}

fn numeric(t: ValueType) -> bool {
    matches!(t, ValueType::Int | ValueType::Float)
}

fn note_atom_types(
    atom: &CAtom,
    info: &PredInfo,
    ctx: &mut RuleCtx,
    rule: &str,
) -> Result<(), CylogError> {
    for (t, ty) in atom.terms.iter().zip(&info.col_types) {
        match t {
            CTerm::Var(v) => ctx.note_type(*v, *ty, rule)?,
            CTerm::Const(c) => {
                let ok = match (c, ty) {
                    (Value::Null, _) => true,
                    (Value::Int(_), ValueType::Float) => true,
                    _ => c.conforms_to(*ty),
                };
                if !ok {
                    return Err(CylogError::Semantic(format!(
                        "constant {c} incompatible with column type {ty} in `{rule}`"
                    )));
                }
            }
        }
    }
    Ok(())
}

fn compile_rule(
    rule: &Rule,
    head_id: PredId,
    preds: &[PredInfo],
    pred_ids: &HashMap<String, PredId>,
    rule_str: &str,
) -> Result<CRule, CylogError> {
    let mut ctx = RuleCtx::new();

    // Compile body literals.
    let mut body: Vec<CLit> = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        let c = match lit {
            BodyLit::Pos(a) | BodyLit::Neg(a) => {
                let pid = *pred_ids.get(&a.pred).ok_or_else(|| {
                    CylogError::Semantic(format!(
                        "undeclared predicate `{}` in `{rule_str}`",
                        a.pred
                    ))
                })?;
                if a.terms.len() != preds[pid].arity() {
                    return Err(CylogError::Semantic(format!(
                        "`{}` has arity {}, used with {} terms in `{rule_str}`",
                        a.pred,
                        preds[pid].arity(),
                        a.terms.len()
                    )));
                }
                let catom = CAtom {
                    pred: pid,
                    terms: a.terms.iter().map(|t| compile_term(t, &mut ctx)).collect(),
                };
                note_atom_types(&catom, &preds[pid], &mut ctx, rule_str)?;
                if matches!(lit, BodyLit::Pos(_)) {
                    CLit::Pos(catom)
                } else {
                    CLit::Neg(catom)
                }
            }
            BodyLit::Cmp(op, a, b) => {
                CLit::Cmp(*op, compile_expr(a, &mut ctx), compile_expr(b, &mut ctx))
            }
            BodyLit::Let(v, e) => {
                let e = compile_expr(e, &mut ctx);
                let vid = ctx.intern(v);
                CLit::Let(vid, e)
            }
        };
        body.push(c);
    }

    // Compile head.
    let head_info = &preds[head_id];
    let mut head: Vec<CHeadTerm> = Vec::with_capacity(rule.head_terms.len());
    for (i, t) in rule.head_terms.iter().enumerate() {
        let col_ty = head_info.col_types[i];
        match t {
            HeadTerm::Plain(Term::Var(v)) => {
                let vid = ctx.intern(v);
                ctx.note_type(vid, col_ty, rule_str)?;
                head.push(CHeadTerm::Var(vid));
            }
            HeadTerm::Plain(Term::Const(c)) => {
                let ok = match (c, col_ty) {
                    (Value::Null, _) => true,
                    (Value::Int(_), ValueType::Float) => true,
                    _ => c.conforms_to(col_ty),
                };
                if !ok {
                    return Err(CylogError::Semantic(format!(
                        "head constant {c} incompatible with column type {col_ty} in `{rule_str}`"
                    )));
                }
                head.push(CHeadTerm::Const(c.clone()));
            }
            HeadTerm::Agg(func, v) => {
                let vid = ctx.intern(v);
                head.push(CHeadTerm::Agg(*func, vid));
            }
        }
    }

    // Reorder for safety.
    let body = reorder_body(&body).map_err(|stuck| {
        CylogError::Semantic(format!(
            "rule `{rule_str}` is unsafe: literal `{}` has unbound variables",
            rule.body
                .get(stuck)
                .map(|l| l.to_string())
                .unwrap_or_default()
        ))
    })?;

    // Infer let/expr types along the final order; check comparisons.
    for lit in &body {
        match lit {
            CLit::Let(v, e) => {
                if let Some(t) = infer_expr_type(e, &ctx, rule_str)? {
                    ctx.note_type(*v, t, rule_str)?;
                }
            }
            CLit::Cmp(_, a, b) => {
                let ta = infer_expr_type(a, &ctx, rule_str)?;
                let tb = infer_expr_type(b, &ctx, rule_str)?;
                if let (Some(x), Some(y)) = (ta, tb) {
                    let ok = x == y || (numeric(x) && numeric(y));
                    if !ok {
                        return Err(CylogError::Semantic(format!(
                            "comparison between {x} and {y} in `{rule_str}`"
                        )));
                    }
                }
            }
            _ => {}
        }
    }

    // Head safety: every head var/agg var must be bound by the body.
    let mut bound: std::collections::HashSet<u32> = std::collections::HashSet::new();
    for lit in &body {
        for v in lit_bound_vars(lit) {
            bound.insert(v);
        }
    }
    for (i, t) in head.iter().enumerate() {
        let (v, what) = match t {
            CHeadTerm::Var(v) => (v, "head variable"),
            CHeadTerm::Agg(_, v) => (v, "aggregated variable"),
            CHeadTerm::Const(_) => continue,
        };
        if !bound.contains(v) {
            return Err(CylogError::Semantic(format!(
                "{what} `{}` not bound by the body in `{rule_str}`",
                ctx.var_names[*v as usize]
            )));
        }
        // Aggregate input types: sum/avg need numerics.
        if let CHeadTerm::Agg(func, v) = t {
            if matches!(func, AggFunc::Sum | AggFunc::Avg) {
                if let Some(ty) = ctx.var_types[*v as usize] {
                    if !numeric(ty) {
                        return Err(CylogError::Semantic(format!(
                            "{}<{}> needs a numeric variable in `{rule_str}`",
                            func.name(),
                            ctx.var_names[*v as usize]
                        )));
                    }
                }
            }
            // The head column type must accept the aggregate's output.
            let col_ty = head_info.col_types[i];
            let in_ty = ctx.var_types[*v as usize].unwrap_or(col_ty);
            let out_ty = func.output_type(in_ty);
            let ok = col_ty == out_ty || (col_ty == ValueType::Float && out_ty == ValueType::Int);
            if !ok {
                return Err(CylogError::Semantic(format!(
                    "aggregate {} produces {out_ty} but column {i} of `{}` is {col_ty} in `{rule_str}`",
                    func.name(),
                    head_info.name
                )));
            }
        }
    }

    // Aggregate rules: plain head terms are the group keys; nothing else to
    // check beyond binding, which is done above.

    // Demand specs for open atoms.
    let mut demands = Vec::new();
    for (i, lit) in body.iter().enumerate() {
        let CLit::Pos(atom) = lit else { continue };
        let info = &preds[atom.pred];
        if !info.is_open() {
            continue;
        }
        let n_inputs = info.open_inputs();
        let input_terms: Vec<CTerm> = atom.terms[..n_inputs].to_vec();
        // Candidate literals: every literal except the target, in an order
        // where each is ready when reached.
        let rest: Vec<CLit> = body
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, l)| l.clone())
            .collect();
        let ordered = best_effort_order(&rest);
        // Backward dependency slice: keep only the literals transitively
        // needed to bind the input variables. This matters when the rule
        // contains *other* open atoms: asking "check(S,T)?" must not wait on
        // the answer to "translate(S)?" unless T really flows from it.
        let mut first_binder: HashMap<u32, usize> = HashMap::new();
        {
            let mut bound: std::collections::HashSet<u32> = std::collections::HashSet::new();
            for (j, l) in ordered.iter().enumerate() {
                for v in lit_bound_vars(l) {
                    if bound.insert(v) {
                        first_binder.insert(v, j);
                    }
                }
            }
        }
        let mut needed: Vec<u32> = input_terms
            .iter()
            .filter_map(|t| match t {
                CTerm::Var(v) => Some(*v),
                CTerm::Const(_) => None,
            })
            .collect();
        let mut kept = vec![false; ordered.len()];
        let mut qi = 0;
        while qi < needed.len() {
            let v = needed[qi];
            qi += 1;
            let Some(&j) = first_binder.get(&v) else {
                return Err(CylogError::Semantic(format!(
                    "input `{}` of open predicate `{}` is not derivable from the closed \
                     part of rule `{rule_str}`",
                    ctx.var_names[v as usize], info.name
                )));
            };
            if kept[j] {
                continue;
            }
            kept[j] = true;
            // A kept positive atom joins on *all* its variables; a kept let
            // needs its expression variables.
            let more: Vec<u32> = match &ordered[j] {
                CLit::Pos(a) => atom_vars(a),
                other => lit_required_vars(other),
            };
            for m in more {
                if !needed.contains(&m) {
                    needed.push(m);
                }
            }
        }
        // Tighten the demand with any filter whose variables are all bound
        // by the kept binders (fewer, more precise questions).
        let kept_bound: std::collections::HashSet<u32> = ordered
            .iter()
            .enumerate()
            .filter(|&(j, _)| kept[j])
            .flat_map(|(_, l)| lit_bound_vars(l))
            .collect();
        for (j, l) in ordered.iter().enumerate() {
            if kept[j] {
                continue;
            }
            if matches!(l, CLit::Cmp(..) | CLit::Neg(_))
                && lit_required_vars(l).iter().all(|v| kept_bound.contains(v))
            {
                kept[j] = true;
            }
        }
        let sub_body: Vec<CLit> = ordered
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| kept[j])
            .map(|(_, l)| l)
            .collect();
        demands.push(DemandSpec {
            open_pred: atom.pred,
            input_terms,
            sub_body,
            num_vars: ctx.var_names.len(),
        });
    }

    Ok(CRule {
        head_pred: head_id,
        head,
        body,
        num_vars: ctx.var_names.len(),
        var_names: ctx.var_names,
        is_agg: rule.is_aggregate(),
        demands,
        display: rule_str.to_owned(),
    })
}

/// Keep the subset of literals that can be evaluated left-to-right, dropping
/// anything that never becomes ready (used for demand computation).
fn best_effort_order(lits: &[CLit]) -> Vec<CLit> {
    let n = lits.len();
    let mut used = vec![false; n];
    let mut bound: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for (i, lit) in lits.iter().enumerate() {
            if used[i] {
                continue;
            }
            if let CLit::Let(v, _) = lit {
                if bound.contains(v) {
                    continue;
                }
            }
            if lit_required_vars(lit).iter().all(|v| bound.contains(v)) {
                used[i] = true;
                for v in lit_bound_vars(lit) {
                    bound.insert(v);
                }
                out.push(lit.clone());
                progressed = true;
            }
        }
        if !progressed {
            return out;
        }
    }
}

/// Assign strata to predicates. Positive dependencies keep the stratum;
/// negations and aggregations push the head strictly above the body.
fn stratify(
    preds: &[PredInfo],
    rules: &[CRule],
    _program: &Program,
) -> Result<Vec<usize>, CylogError> {
    let n = preds.len();
    let mut stratum = vec![0usize; n];
    // Iterate to fixpoint; more than n*#rules+1 rounds means a negative cycle.
    let max_rounds = n * rules.len() + 2;
    for round in 0..=max_rounds {
        let mut changed = false;
        for r in rules {
            for lit in &r.body {
                let (bp, negative) = match lit {
                    CLit::Pos(a) => (a.pred, r.is_agg),
                    CLit::Neg(a) => (a.pred, true),
                    _ => continue,
                };
                let need = if negative {
                    stratum[bp] + 1
                } else {
                    stratum[bp]
                };
                if stratum[r.head_pred] < need {
                    stratum[r.head_pred] = need;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(stratum);
        }
        if round == max_rounds {
            break;
        }
    }
    Err(CylogError::Semantic(
        "program is not stratifiable: recursion through negation or aggregation".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Result<CompiledProgram, CylogError> {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn minimal_program_compiles() {
        let p = compile_src(
            "rel edge(a: int, b: int).\n\
             rel path(a: int, b: int).\n\
             edge(1, 2).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n",
        )
        .unwrap();
        assert_eq!(p.preds.len(), 2);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.facts.len(), 1);
        assert_eq!(p.strata.len(), 1);
        assert!(p.preds[p.pred("path").unwrap()].derived);
        assert!(!p.preds[p.pred("edge").unwrap()].derived);
    }

    #[test]
    fn undeclared_predicate_rejected() {
        let err = compile_src("p(X) :- q(X).").unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = compile_src("rel q(a: int).\nrel p(a: int).\np(X) :- q(X, X).").unwrap_err();
        assert!(err.to_string().contains("arity"));
        let err = compile_src("rel p(a: int).\np(1, 2).").unwrap_err();
        assert!(err.to_string().contains("arity") || err.to_string().contains("head terms"));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let err = compile_src("rel p(a: int).\nrel p(b: int).").unwrap_err();
        assert!(err.to_string().contains("twice"));
        let err = compile_src("rel p(a: int, a: str).").unwrap_err();
        assert!(err.to_string().contains("duplicate column"));
    }

    #[test]
    fn type_conflicts_rejected() {
        // X used as int and str
        let err =
            compile_src("rel a(x: int).\nrel b(x: str).\nrel r(x: int).\nr(X) :- a(X), b(X).")
                .unwrap_err();
        assert!(err.to_string().contains("used as"));
        // fact value of the wrong type
        let err = compile_src("rel p(a: int).\np(\"no\").").unwrap_err();
        assert!(err.to_string().contains("incompatible"));
        // int facts widen into float columns
        compile_src("rel p(a: float).\np(3).").unwrap();
    }

    #[test]
    fn unsafe_rules_rejected() {
        // head var not bound
        let err = compile_src("rel p(a: int).\nrel q(a: int).\nq(Y) :- p(X).").unwrap_err();
        assert!(err.to_string().contains("not bound"));
        // negation-only variable
        let err =
            compile_src("rel p(a: int).\nrel q(a: int).\nrel r(a: int).\nr(X) :- p(X), not q(Y).")
                .unwrap_err();
        assert!(err.to_string().contains("unsafe"));
        // comparison with unbound var
        let err = compile_src("rel p(a: int).\nrel r(a: int).\nr(X) :- p(X), Y > 3.").unwrap_err();
        assert!(err.to_string().contains("unsafe"));
    }

    #[test]
    fn body_reordered_for_safety() {
        // The comparison appears before its variable is bound; reorder fixes it.
        let p = compile_src("rel p(a: int).\nrel r(a: int).\nr(X) :- X > 3, p(X).").unwrap();
        let r = &p.rules[0];
        assert!(matches!(r.body[0], CLit::Pos(_)));
        assert!(matches!(r.body[1], CLit::Cmp(..)));
    }

    #[test]
    fn let_rebinding_rejected() {
        let err = compile_src("rel p(a: int).\nrel r(a: int).\nr(X) :- p(X), X := 3.").unwrap_err();
        assert!(err.to_string().contains("unsafe"));
    }

    #[test]
    fn open_predicates_cannot_be_derived() {
        let err = compile_src("open j(x: int) -> (ok: bool).\nrel p(x: int).\nj(X, true) :- p(X).")
            .unwrap_err();
        assert!(err.to_string().contains("cannot be derived"));
    }

    #[test]
    fn stratification_negation() {
        let p = compile_src(
            "rel p(a: int).\nrel q(a: int).\nrel r(a: int).\n\
             q(X) :- p(X).\n\
             r(X) :- p(X), not q(X).\n",
        )
        .unwrap();
        let q = p.pred("q").unwrap();
        let r = p.pred("r").unwrap();
        assert!(p.preds[r].stratum > p.preds[q].stratum);
        assert_eq!(p.strata.len(), 2);
    }

    #[test]
    fn unstratifiable_rejected() {
        let err = compile_src(
            "rel p(a: int).\nrel q(a: int).\n\
             p(X) :- q(X).\n\
             q(X) :- p(X), not q(X).\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("stratifiable"));
    }

    #[test]
    fn aggregates_stratify_above_inputs() {
        let p = compile_src(
            "rel w(g: int, s: float).\nrel n(g: int, c: int).\n\
             n(G, count<S>) :- w(G, S).\n",
        )
        .unwrap();
        let w = p.pred("w").unwrap();
        let n = p.pred("n").unwrap();
        assert!(p.preds[n].stratum > p.preds[w].stratum);
    }

    #[test]
    fn aggregate_type_checks() {
        // sum over strings rejected
        let err = compile_src(
            "rel w(g: int, s: str).\nrel n(g: int, c: float).\n\
             n(G, sum<S>) :- w(G, S).\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("numeric"));
        // count into an int column is fine
        compile_src(
            "rel w(g: int, s: str).\nrel n(g: int, c: int).\n\
             n(G, count<S>) :- w(G, S).\n",
        )
        .unwrap();
        // count into a str column rejected
        let err = compile_src(
            "rel w(g: int, s: str).\nrel n(g: int, c: str).\n\
             n(G, count<S>) :- w(G, S).\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("produces"));
    }

    #[test]
    fn demand_specs_computed() {
        let p = compile_src(
            "rel sentence(s: str).\n\
             open translate(s: str) -> (t: str) points 2.\n\
             rel out(s: str, t: str).\n\
             out(S, T) :- sentence(S), translate(S, T).\n",
        )
        .unwrap();
        let r = &p.rules[0];
        assert_eq!(r.demands.len(), 1);
        let d = &r.demands[0];
        assert_eq!(d.open_pred, p.pred("translate").unwrap());
        assert_eq!(d.input_terms.len(), 1);
        assert_eq!(d.sub_body.len(), 1); // just sentence(S)
    }

    #[test]
    fn chained_open_demands() {
        // second open's input comes from the first open's output
        let p = compile_src(
            "rel s(x: str).\n\
             open a(x: str) -> (y: str).\n\
             open b(y: str) -> (z: str).\n\
             rel out(x: str, z: str).\n\
             out(X, Z) :- s(X), a(X, Y), b(Y, Z).\n",
        )
        .unwrap();
        let r = &p.rules[0];
        assert_eq!(r.demands.len(), 2);
        // demand for b includes atom a in its sub-body
        let db = r
            .demands
            .iter()
            .find(|d| d.open_pred == p.pred("b").unwrap())
            .unwrap();
        assert_eq!(db.sub_body.len(), 2);
    }

    #[test]
    fn open_input_underivable_rejected() {
        let err = compile_src(
            "open j(x: int) -> (ok: bool).\n\
             rel r(ok: bool).\n\
             r(OK) :- j(X, OK).\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not derivable"));
    }

    #[test]
    fn int_float_widening_in_vars() {
        compile_src(
            "rel a(x: int).\nrel b(x: float).\nrel r(x: float).\n\
             r(X) :- a(X), b(X).\n",
        )
        .unwrap();
    }
}
