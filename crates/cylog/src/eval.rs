//! Bottom-up evaluation of compiled CyLog programs: stratified, with a
//! naive mode, a semi-naive mode (delta-driven re-derivation within one
//! fixpoint) and the default incremental mode (cross-batch deltas seeded by
//! the engine from facts inserted since the previous fixpoint).
//!
//! The evaluator reads relations from a [`Database`] whose relation names
//! equal predicate names, and produces derived tuples. Within-run it never
//! mutates relations other than through `insert_all`-style distinct
//! insertion (the incremental driver additionally clears strata it decides
//! to rebuild), which keeps borrow scopes simple and makes the evaluator
//! easy to test in isolation.
//!
//! Every mode runs through one stratum fixpoint ([`eval_stratum`]), one
//! body walk and one demand pass ([`compute_demands`]); a delta only
//! restricts the rows one body atom reads. A predicate bound to the host
//! ([`HostFacts`]) is read from the source a run is given, at the body
//! walk's two read sites, and never from the database.

use crate::analysis::{CAtom, CExpr, CHeadTerm, CLit, CRule, CTerm, CompiledProgram, PredId};
use crate::ast::{AggFunc, ArithOp, CmpOp};
use crate::error::CylogError;
use crowd4u_storage::prelude::{Database, Tuple, Value};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Evaluation strategy; the `ablations` bench compares the three, and
/// ARCHITECTURE.md §6 ("Incremental evaluation contract") states what they
/// must agree on. `Incremental` behaves like `SemiNaive` within a single
/// from-scratch fixpoint; the difference lives in the engine, which
/// persists derived relations across `run()` calls and seeds the next
/// fixpoint from the facts inserted since the last one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    Naive,
    SemiNaive,
    #[default]
    Incremental,
}

/// Counters describing one evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds across all strata.
    pub rounds: u64,
    /// Distinct new facts derived.
    pub derived: u64,
    /// Rule firings that produced an already-known fact.
    pub duplicates: u64,
    /// Candidate rows enumerated at positive body literals (join work
    /// explored, whether or not the row unified).
    pub firings: u64,
    /// Tuples used to seed cross-batch incremental deltas.
    pub delta_seeded: u64,
    /// Strata skipped because nothing they read changed.
    pub strata_skipped: u64,
    /// Strata rebuilt from scratch during an incremental pass (a changed
    /// predicate reached them through negation or an aggregate).
    pub strata_recomputed: u64,
    /// Full from-scratch recomputations (startup, retraction, mode switch).
    pub recomputes: u64,
}

impl EvalStats {
    pub fn absorb(&mut self, other: EvalStats) {
        self.rounds += other.rounds;
        self.derived += other.derived;
        self.duplicates += other.duplicates;
        self.firings += other.firings;
        self.delta_seeded += other.delta_seeded;
        self.strata_skipped += other.strata_skipped;
        self.strata_recomputed += other.strata_recomputed;
        self.recomputes += other.recomputes;
    }
}

/// Tuples per predicate: a seed, one round's delta, or what a pass derived.
pub type Deltas = HashMap<PredId, Vec<Tuple>>;

/// A read-only source of the rows of *host-bound* predicates: rows the
/// engine's host keeps, like scallop's foreign predicates. The caller
/// passes the source to each run. Evaluation reads a bound predicate from
/// it at the two sites it reads the database (a body atom's lookup and a
/// negated atom's membership test), so every rule body, aggregate and
/// demand pass sees it, and none of its rows is copied into the database.
///
/// The engine remembers the [`version`](Self::version) of its last
/// successful fixpoint. At the next run, a row lost since then forces a
/// full recompute; otherwise the rows that changes since then carry are
/// the delta seed.
pub trait HostFacts {
    /// The source's change counter: it moves whenever a row may change.
    fn version(&self) -> u64;
    /// Push to `out` every row of `pred` whose columns `cols` hold `key`.
    fn lookup(&self, pred: &str, cols: &[usize], key: &[Value], out: &mut Vec<Tuple>);
    /// Whether some row of `pred` was lost after version `since`.
    fn lost_since(&self, pred: &str, since: u64) -> bool;
    /// Push to `out` the current rows of `pred` that changes after version
    /// `since` touched: every row new since then, and possibly old ones.
    fn changed_since(&self, pred: &str, since: u64, out: &mut Vec<Tuple>);
}

/// The host source of one evaluation; `None` for an engine that binds no
/// predicate.
pub type Host<'a> = Option<&'a dyn HostFacts>;

/// Evaluate a scalar expression under bindings. An unbound variable, a
/// division by zero or arithmetic on non-numeric values is an error.
fn eval_expr(e: &CExpr, bind: &[Option<Value>]) -> Result<Value, CylogError> {
    match e {
        CExpr::Var(v) => bind[*v as usize]
            .clone()
            .ok_or_else(|| CylogError::Eval("unbound variable in expression".into())),
        CExpr::Const(c) => Ok(c.clone()),
        CExpr::Binary(op, a, b) => {
            let va = eval_expr(a, bind)?;
            let vb = eval_expr(b, bind)?;
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            // String concatenation.
            if *op == ArithOp::Add {
                if let (Some(x), Some(y)) = (va.as_str(), vb.as_str()) {
                    let mut s = String::with_capacity(x.len() + y.len());
                    s.push_str(x);
                    s.push_str(y);
                    return Ok(Value::Str(s));
                }
            }
            if let (Some(x), Some(y)) = (va.as_int(), vb.as_int()) {
                return match op {
                    ArithOp::Add => Ok(Value::Int(x.wrapping_add(y))),
                    ArithOp::Sub => Ok(Value::Int(x.wrapping_sub(y))),
                    ArithOp::Mul => Ok(Value::Int(x.wrapping_mul(y))),
                    ArithOp::Div => {
                        if y == 0 {
                            Err(CylogError::Eval("integer division by zero".into()))
                        } else {
                            Ok(Value::Int(x / y))
                        }
                    }
                };
            }
            match (va.as_float(), vb.as_float()) {
                (Some(x), Some(y)) => Ok(Value::Float(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                })),
                _ => Err(CylogError::Eval(format!(
                    "arithmetic on non-numeric values {va} and {vb}"
                ))),
            }
        }
    }
}

fn cmp_holds(op: CmpOp, a: &Value, b: &Value) -> bool {
    if a.is_null() || b.is_null() {
        return false; // SQL-style: comparisons with null never hold
    }
    let ord = a.cmp(b);
    match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    }
}

/// Try to unify an atom's terms with a concrete tuple, extending `bind`.
/// Returns the list of variables newly bound (for backtracking), or `None`
/// if the tuple does not match.
fn unify_atom(atom: &CAtom, row: &Tuple, bind: &mut [Option<Value>]) -> Option<Vec<u32>> {
    let mut newly = Vec::new();
    for (t, v) in atom.terms.iter().zip(row.values()) {
        match t {
            CTerm::Const(c) => {
                if c != v {
                    undo(bind, &newly);
                    return None;
                }
            }
            CTerm::Var(var) => match &bind[*var as usize] {
                Some(bound) => {
                    if bound != v {
                        undo(bind, &newly);
                        return None;
                    }
                }
                None => {
                    bind[*var as usize] = Some(v.clone());
                    newly.push(*var);
                }
            },
        }
    }
    Some(newly)
}

fn undo(bind: &mut [Option<Value>], vars: &[u32]) {
    for v in vars {
        bind[*v as usize] = None;
    }
}

/// Check whether the predicate holds the (fully ground) atom.
fn exists_match(atom: &CAtom, reads: Reads<'_>, bind: &[Option<Value>]) -> bool {
    let info = &reads.program.preds[atom.pred];
    // All vars are bound (analysis guarantees ground negation): build the key.
    let key: Vec<Value> = atom
        .terms
        .iter()
        .map(|t| match t {
            CTerm::Const(c) => c.clone(),
            CTerm::Var(v) => bind[*v as usize].clone().expect("ground negation"),
        })
        .collect();
    if info.host {
        let cols: Vec<usize> = (0..key.len()).collect();
        return !host_rows(reads.host, &info.name, &cols, &key).is_empty();
    }
    let Ok(rel) = reads.db.relation(&info.name) else {
        return false;
    };
    rel.contains(&Tuple::new(key))
}

/// The rows of a host-bound predicate whose columns `cols` hold `key`.
fn host_rows(host: Host<'_>, pred: &str, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
    let mut rows = Vec::new();
    if let Some(source) = host {
        source.lookup(pred, cols, key, &mut rows);
    }
    rows
}

/// Callback invoked with each complete binding vector.
type EmitFn<'a> = dyn FnMut(&[Option<Value>]) -> Result<(), CylogError> + 'a;

/// Where a body's atoms are read from: the database, and the host source
/// for the predicates bound to it.
#[derive(Clone, Copy)]
struct Reads<'a> {
    program: &'a CompiledProgram,
    db: &'a Database,
    host: Host<'a>,
}

/// Evaluate a body (already safety-ordered) and call `emit` for every
/// complete binding. `delta`, when set, restricts the positive atom at
/// that body index to the given tuples (semi-naive rewriting).
///
/// The delta atom is walked first when that is safe. Enumerating the
/// (small) delta first binds its variables before any other atom is
/// touched, so every later positive atom gets a bound-column index lookup
/// instead of a scan — the difference between O(Δ) and O(|relation|·Δ) per
/// delta join. The hoist preserves safety-ordered semantics: every other
/// literal keeps its relative order and only *gains* bindings. The one
/// exception is a `let` assigning a variable the delta atom binds (the
/// assignment would clobber the join binding), so such bodies — and a
/// delta at position 0, where the hoist is a no-op — walk in declared
/// order.
fn eval_body(
    reads: Reads<'_>,
    body: &[CLit],
    bind: &mut [Option<Value>],
    delta: Option<(usize, &[Tuple])>,
    stats: &mut EvalStats,
    emit: &mut EmitFn<'_>,
) -> Result<(), CylogError> {
    let hoist = delta.map(|(pos, _)| pos).filter(|&pos| {
        let CLit::Pos(atom) = &body[pos] else {
            return false;
        };
        pos > 0
            && body.iter().all(|l| match l {
                CLit::Let(v, _) => !atom.terms.contains(&CTerm::Var(*v)),
                _ => true,
            })
    });
    BodyWalk {
        reads,
        body,
        delta,
        hoist,
        stats,
        emit,
    }
    .walk(0, bind)
}

/// What stays fixed while [`eval_body`] recurses over a body's literals.
struct BodyWalk<'a, 'e> {
    reads: Reads<'a>,
    body: &'a [CLit],
    delta: Option<(usize, &'a [Tuple])>,
    /// The delta atom's position when it is walked first.
    hoist: Option<usize>,
    stats: &'a mut EvalStats,
    emit: &'a mut EmitFn<'e>,
}

impl<'a> BodyWalk<'a, '_> {
    /// Walk the body from step `step` on. Step `s` is literal `s`, except
    /// that a hoisted delta atom is step 0 and the literals before it
    /// shift one step later.
    fn walk(&mut self, step: usize, bind: &mut [Option<Value>]) -> Result<(), CylogError> {
        let body = self.body;
        if step == body.len() {
            return (self.emit)(bind);
        }
        let i = match self.hoist {
            Some(h) if step == 0 => h,
            Some(h) if step <= h => step - 1,
            _ => step,
        };
        match &body[i] {
            CLit::Pos(atom) => {
                let hosted;
                let (delta, looked_up) = match self.delta {
                    Some((at, rows)) if at == i => (rows, Vec::new()),
                    _ => {
                        let (owned, stored) = self.lookup(atom, bind);
                        hosted = owned;
                        (&hosted[..], stored)
                    }
                };
                for row in delta.iter().chain(looked_up) {
                    self.stats.firings += 1;
                    if let Some(newly) = unify_atom(atom, row, bind) {
                        self.walk(step + 1, bind)?;
                        undo(bind, &newly);
                    }
                }
            }
            CLit::Neg(atom) => {
                if !exists_match(atom, self.reads, bind) {
                    self.walk(step + 1, bind)?;
                }
            }
            CLit::Cmp(op, a, b) => {
                if cmp_holds(*op, &eval_expr(a, bind)?, &eval_expr(b, bind)?) {
                    self.walk(step + 1, bind)?;
                }
            }
            CLit::Let(v, e) => {
                bind[*v as usize] = Some(eval_expr(e, bind)?);
                self.walk(step + 1, bind)?;
                bind[*v as usize] = None;
            }
        }
        Ok(())
    }

    /// The rows of the atom's predicate that agree with its constants and
    /// bound variables: built by the host for a host-bound predicate,
    /// borrowed from the database (through an index when one exists)
    /// otherwise.
    fn lookup(&self, atom: &CAtom, bind: &[Option<Value>]) -> (Vec<Tuple>, Vec<&'a Tuple>) {
        let Reads { program, db, host } = self.reads;
        let info = &program.preds[atom.pred];
        let (cols, key) = bound_columns(atom, bind);
        if info.host {
            return (host_rows(host, &info.name, &cols, &key), Vec::new());
        }
        let Ok(rel) = db.relation(&info.name) else {
            return (Vec::new(), Vec::new()); // no facts yet
        };
        (Vec::new(), rel.lookup(&cols, &key))
    }
}

/// The columns of an atom that its constants and bound variables fix, and
/// their values.
fn bound_columns(atom: &CAtom, bind: &[Option<Value>]) -> (Vec<usize>, Vec<Value>) {
    let mut cols = Vec::new();
    let mut key = Vec::new();
    for (i, t) in atom.terms.iter().enumerate() {
        let val = match t {
            CTerm::Const(c) => c,
            CTerm::Var(v) => match &bind[*v as usize] {
                Some(val) => val,
                None => continue,
            },
        };
        cols.push(i);
        key.push(val.clone());
    }
    (cols, key)
}

/// The positive atoms of `body` whose predicate has tuples in `deltas`, as
/// `(body index, those tuples)`: the delta joins one body needs.
fn delta_positions<'a>(
    body: &'a [CLit],
    deltas: &'a Deltas,
) -> impl Iterator<Item = (usize, &'a [Tuple])> + 'a {
    body.iter().enumerate().filter_map(|(i, lit)| match lit {
        CLit::Pos(atom) => deltas
            .get(&atom.pred)
            .filter(|d| !d.is_empty())
            .map(|d| (i, d.as_slice())),
        _ => None,
    })
}

/// Build the head tuple from a complete binding (non-aggregate rules).
fn head_tuple(rule: &CRule, bind: &[Option<Value>]) -> Vec<Value> {
    rule.head
        .iter()
        .map(|t| match t {
            CHeadTerm::Var(v) => bind[*v as usize].clone().expect("head var bound"),
            CHeadTerm::Const(c) => c.clone(),
            CHeadTerm::Agg(..) => unreachable!("aggregate handled separately"),
        })
        .collect()
}

/// Fire a non-aggregate rule (restricted to `delta`, when given), insert
/// its head tuples and add the new ones to `fresh`.
fn fire(
    program: &CompiledProgram,
    db: &mut Database,
    host: Host<'_>,
    rule: &CRule,
    delta: Option<(usize, &[Tuple])>,
    stats: &mut EvalStats,
    fresh: &mut Deltas,
) -> Result<(), CylogError> {
    let mut rows = Vec::new();
    let mut bind: Vec<Option<Value>> = vec![None; rule.num_vars];
    let reads = Reads { program, db, host };
    eval_body(reads, &rule.body, &mut bind, delta, stats, &mut |b| {
        rows.push(head_tuple(rule, b));
        Ok(())
    })?;
    let new = insert_all(program, db, rule.head_pred, rows, stats)?;
    if !new.is_empty() {
        fresh.entry(rule.head_pred).or_default().extend(new);
    }
    Ok(())
}

/// Evaluate an aggregate rule: group bindings by the plain head terms and
/// fold the aggregate functions.
fn eval_agg_rule(
    program: &CompiledProgram,
    db: &Database,
    host: Host<'_>,
    rule: &CRule,
    stats: &mut EvalStats,
) -> Result<Vec<Vec<Value>>, CylogError> {
    #[derive(Clone)]
    enum Acc {
        Count(i64),
        Sum(f64),
        Min(Option<Value>),
        Max(Option<Value>),
        Avg(f64, i64),
    }
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut bind: Vec<Option<Value>> = vec![None; rule.num_vars];
    let head = &rule.head;
    let reads = Reads { program, db, host };
    eval_body(reads, &rule.body, &mut bind, None, stats, &mut |b| {
        let key: Vec<Value> = head
            .iter()
            .filter_map(|t| match t {
                CHeadTerm::Var(v) => Some(b[*v as usize].clone().expect("bound")),
                CHeadTerm::Const(c) => Some(c.clone()),
                CHeadTerm::Agg(..) => None,
            })
            .collect();
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            head.iter()
                .filter_map(|t| match t {
                    CHeadTerm::Agg(f, _) => Some(match f {
                        AggFunc::Count => Acc::Count(0),
                        AggFunc::Sum => Acc::Sum(0.0),
                        AggFunc::Min => Acc::Min(None),
                        AggFunc::Max => Acc::Max(None),
                        AggFunc::Avg => Acc::Avg(0.0, 0),
                    }),
                    _ => None,
                })
                .collect()
        });
        let mut ai = 0;
        for t in head {
            let CHeadTerm::Agg(_, v) = t else { continue };
            let val = b[*v as usize].clone().expect("agg var bound");
            match &mut accs[ai] {
                Acc::Count(n) => *n += 1,
                Acc::Sum(s) => {
                    if let Some(f) = val.as_float() {
                        *s += f;
                    }
                }
                Acc::Min(m) => {
                    if !val.is_null() && m.as_ref().is_none_or(|c| &val < c) {
                        *m = Some(val);
                    }
                }
                Acc::Max(m) => {
                    if !val.is_null() && m.as_ref().is_none_or(|c| &val > c) {
                        *m = Some(val);
                    }
                }
                Acc::Avg(s, n) => {
                    if let Some(f) = val.as_float() {
                        *s += f;
                        *n += 1;
                    }
                }
            }
            ai += 1;
        }
        Ok(())
    })?;

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group exists");
        let mut row = Vec::with_capacity(head.len());
        let mut ki = 0;
        let mut ai = 0;
        for t in head {
            match t {
                CHeadTerm::Var(_) | CHeadTerm::Const(_) => {
                    row.push(key[ki].clone());
                    ki += 1;
                }
                CHeadTerm::Agg(..) => {
                    let v = match accs[ai].clone() {
                        Acc::Count(n) => Value::Int(n),
                        Acc::Sum(s) => Value::Float(s),
                        Acc::Min(m) | Acc::Max(m) => m.unwrap_or(Value::Null),
                        Acc::Avg(s, n) => {
                            if n == 0 {
                                Value::Null
                            } else {
                                Value::Float(s / n as f64)
                            }
                        }
                    };
                    row.push(v);
                    ai += 1;
                }
            }
        }
        out.push(row);
    }
    Ok(out)
}

/// Run one stratum to fixpoint. Returns its stats and, on a seeded start,
/// the distinct new tuples per head predicate (a full start returns no
/// tuples: its caller reads whole relations).
///
/// Round 0 starts the loop one of two ways. Without a `seed` it evaluates
/// every rule in full, aggregates first (their inputs live strictly below
/// this stratum). With a `seed` — the tuples new since the previous
/// fixpoint — it joins each rule once per positive body position whose
/// predicate the seed changed: the other positions see full relations, so
/// every derivation using at least one seeded tuple is found, and those
/// using none were already present at the previous fixpoint. Aggregate
/// rules are skipped then — the caller rebuilds a stratum instead whenever
/// an aggregate's input changed.
///
/// Every later round joins each rule once per positive body position whose
/// predicate has tuples in the previous round's delta (distinct insertion
/// dedups derivations that use more than one delta tuple). Delta keys are
/// always this stratum's heads. `Naive` instead re-evaluates in full every
/// rule that reads a head of this stratum.
pub fn eval_stratum(
    program: &CompiledProgram,
    db: &mut Database,
    host: Host<'_>,
    rules: &[usize],
    mode: EvalMode,
    seed: Option<&Deltas>,
) -> Result<(EvalStats, Deltas), CylogError> {
    let mut stats = EvalStats::default();
    let mut derived = Deltas::new();
    let all = || rules.iter().map(|&ri| &program.rules[ri]);
    let regular = || all().filter(|r| !r.is_agg);
    if seed.is_none() {
        for rule in all().filter(|r| r.is_agg) {
            let rows = eval_agg_rule(program, db, host, rule, &mut stats)?;
            insert_all(program, db, rule.head_pred, rows, &mut stats)?;
        }
    }
    if regular().next().is_none() {
        return Ok((stats, derived));
    }

    let mut delta = Deltas::new();
    stats.rounds += 1;
    for rule in regular() {
        match seed {
            None => fire(program, db, host, rule, None, &mut stats, &mut delta)?,
            Some(seed) => {
                for d in delta_positions(&rule.body, seed) {
                    fire(program, db, host, rule, Some(d), &mut stats, &mut delta)?;
                }
            }
        }
    }

    while !delta.is_empty() {
        stats.rounds += 1;
        let mut next = Deltas::new();
        for rule in regular() {
            if mode == EvalMode::Naive {
                let reads_head = rule
                    .body
                    .iter()
                    .any(|l| matches!(l, CLit::Pos(a) if regular().any(|r| r.head_pred == a.pred)));
                if reads_head {
                    fire(program, db, host, rule, None, &mut stats, &mut next)?;
                }
            } else {
                for d in delta_positions(&rule.body, &delta) {
                    fire(program, db, host, rule, Some(d), &mut stats, &mut next)?;
                }
            }
        }
        let done = std::mem::replace(&mut delta, next);
        if seed.is_some() {
            for (p, rows) in done {
                derived.entry(p).or_default().extend(rows);
            }
        }
    }
    Ok((stats, derived))
}

/// Insert rows into a predicate's relation, counting derivations and
/// duplicates; returns the rows that were new.
fn insert_all(
    program: &CompiledProgram,
    db: &mut Database,
    pred: PredId,
    rows: Vec<Vec<Value>>,
    stats: &mut EvalStats,
) -> Result<Vec<Tuple>, CylogError> {
    let rel = db.relation_mut(&program.preds[pred].name)?;
    let mut fresh = Vec::new();
    for row in rows {
        let t = Tuple::new(row);
        let (_, new) = rel.insert_distinct(t.clone())?;
        if new {
            stats.derived += 1;
            fresh.push(t);
        } else {
            stats.duplicates += 1;
        }
    }
    Ok(fresh)
}

/// Run the whole program (all strata in order) to fixpoint.
pub fn eval_program(
    program: &CompiledProgram,
    db: &mut Database,
    host: Host<'_>,
    mode: EvalMode,
) -> Result<EvalStats, CylogError> {
    let mut stats = EvalStats::default();
    for stratum in &program.strata {
        stats.absorb(eval_stratum(program, db, host, stratum, mode, None)?.0);
    }
    Ok(stats)
}

/// What one cross-batch incremental pass did.
#[derive(Debug, Default)]
pub struct IncrementalOutcome {
    pub stats: EvalStats,
    /// Every tuple that is new since the previous fixpoint, per predicate:
    /// the seed itself plus everything delta joins derived from it. A
    /// rebuilt stratum adds no rows for its heads: nothing would read them,
    /// since a stratum that reads a rebuilt head is rebuilt too, and any
    /// rebuild sets [`any_rebuild`](Self::any_rebuild), after which
    /// demands are computed in full.
    pub changed: Deltas,
    /// True when any stratum was rebuilt — derived relations may have
    /// *shrunk*, so demand computation must not rely on deltas alone.
    pub any_rebuild: bool,
}

/// Advance an already-at-fixpoint database to the next fixpoint given the
/// base facts inserted since (`seed`). Strata that cannot see a changed
/// predicate are skipped; strata reached only through positive non-aggregate
/// atoms are delta-joined; strata reached through negation or aggregates —
/// where new input can *remove* conclusions — are cleared and rebuilt, as is
/// any stratum positively reading a rebuilt (hence possibly shrunken) head.
pub fn eval_program_incremental(
    program: &CompiledProgram,
    db: &mut Database,
    host: Host<'_>,
    seed: &BTreeMap<PredId, Vec<Tuple>>,
) -> Result<IncrementalOutcome, CylogError> {
    let mut out = IncrementalOutcome::default();
    let mut rebuilt: HashSet<PredId> = HashSet::new();
    for (&p, rows) in seed {
        out.stats.delta_seeded += rows.len() as u64;
        if !rows.is_empty() {
            out.changed
                .entry(p)
                .or_default()
                .extend(rows.iter().cloned());
        }
    }
    for (si, rule_idx) in program.strata.iter().enumerate() {
        let info = &program.stratum_info[si];
        let dirty =
            |p: &PredId| rebuilt.contains(p) || out.changed.get(p).is_some_and(|v| !v.is_empty());
        let dirty_pos = info.pos_reads.iter().any(&dirty);
        let dirty_unsafe = info.unsafe_reads.iter().any(&dirty);
        let rebuilt_pos = info.pos_reads.iter().any(|p| rebuilt.contains(p));
        if !dirty_pos && !dirty_unsafe {
            out.stats.strata_skipped += 1;
            continue;
        }
        if dirty_unsafe || rebuilt_pos {
            // Rebuild: clear the stratum's heads, restore their program
            // facts, and run the ordinary from-scratch fixpoint for it.
            for &hp in &info.heads {
                db.relation_mut(&program.preds[hp].name)?.clear();
            }
            for (pid, vals) in &program.facts {
                if info.heads.contains(pid) {
                    db.relation_mut(&program.preds[*pid].name)?
                        .insert_distinct(Tuple::new(vals.clone()))?;
                }
            }
            let (s, _) = eval_stratum(program, db, host, rule_idx, EvalMode::SemiNaive, None)?;
            out.stats.absorb(s);
            out.stats.strata_recomputed += 1;
            out.any_rebuild = true;
            rebuilt.extend(info.heads.iter().copied());
        } else {
            // The seed is everything changed so far, uncopied: a body joins
            // only on the predicates it reads, and none of this stratum's
            // own heads has changed yet.
            let (s, fresh) = eval_stratum(
                program,
                db,
                host,
                rule_idx,
                EvalMode::Incremental,
                Some(&out.changed),
            )?;
            out.stats.absorb(s);
            for (p, rows) in fresh {
                out.changed.entry(p).or_default().extend(rows);
            }
        }
    }
    Ok(out)
}

/// Compute open-predicate demands: the distinct input bindings each rule
/// requests from the crowd, given the current database.
///
/// With `changed` (the tuples new since the previous fixpoint), each
/// demand sub-body is joined once per positive position whose predicate
/// changed, restricted to that predicate's new tuples. That is sound as
/// long as no relation shrank since the previous fixpoint: a demand
/// derivable without any new tuple was already derivable then and has
/// already been posed (or answered). The engine passes `None`, a full
/// pass, whenever a stratum was rebuilt.
pub fn compute_demands(
    program: &CompiledProgram,
    db: &Database,
    host: Host<'_>,
    changed: Option<&Deltas>,
) -> Result<Vec<(PredId, Vec<Value>)>, CylogError> {
    let mut out: Vec<(PredId, Vec<Value>)> = Vec::new();
    let mut seen: HashSet<(PredId, Vec<Value>)> = HashSet::new();
    let mut stats = EvalStats::default();
    let reads = Reads { program, db, host };
    for demand in program.rules.iter().flat_map(|r| &r.demands) {
        let mut bind: Vec<Option<Value>> = vec![None; demand.num_vars];
        let mut emit = |b: &[Option<Value>]| -> Result<(), CylogError> {
            let key: Vec<Value> = demand
                .input_terms
                .iter()
                .map(|t| match t {
                    CTerm::Const(c) => c.clone(),
                    CTerm::Var(v) => b[*v as usize].clone().expect("demand inputs bound"),
                })
                .collect();
            if seen.insert((demand.open_pred, key.clone())) {
                out.push((demand.open_pred, key));
            }
            Ok(())
        };
        let body = &demand.sub_body;
        match changed {
            None => eval_body(reads, body, &mut bind, None, &mut stats, &mut emit)?,
            Some(changed) => {
                for d in delta_positions(body, changed) {
                    eval_body(reads, body, &mut bind, Some(d), &mut stats, &mut emit)?;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::compile;
    use crate::parser::parse;
    use crowd4u_storage::prelude::*;

    fn setup(src: &str) -> (CompiledProgram, Database) {
        let program = compile(&parse(src).unwrap()).unwrap();
        let mut db = Database::new();
        for info in &program.preds {
            let cols: Vec<Column> = info
                .col_names
                .iter()
                .zip(&info.col_types)
                .map(|(n, t)| Column::nullable(n.clone(), *t))
                .collect();
            db.create_relation(&info.name, Schema::new(cols).unwrap())
                .unwrap();
        }
        for (pid, vals) in &program.facts {
            db.relation_mut(&program.preds[*pid].name)
                .unwrap()
                .insert_distinct(Tuple::new(vals.clone()))
                .unwrap();
        }
        (program, db)
    }

    fn rows(db: &Database, name: &str) -> Vec<Tuple> {
        let mut r = db.relation(name).unwrap().to_rows();
        r.sort();
        r
    }

    #[test]
    fn transitive_closure() {
        let (p, mut db) = setup(
            "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
             edge(1, 2). edge(2, 3). edge(3, 4).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n",
        );
        let stats = eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "path").len(), 6); // 1-2,1-3,1-4,2-3,2-4,3-4
        assert_eq!(stats.derived, 6);
        assert!(stats.rounds >= 3);
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let src = "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
             edge(1, 2). edge(2, 3). edge(3, 1). edge(3, 4). edge(4, 5).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n";
        let (p1, mut db1) = setup(src);
        let (p2, mut db2) = setup(src);
        let s1 = eval_program(&p1, &mut db1, None, EvalMode::Naive).unwrap();
        let s2 = eval_program(&p2, &mut db2, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db1, "path"), rows(&db2, "path"));
        assert_eq!(s1.derived, s2.derived);
        // Semi-naive explores fewer join candidates on recursive programs.
        assert!(
            s2.firings <= s1.firings,
            "semi-naive should not do more work"
        );
    }

    #[test]
    fn negation_stratified() {
        let (p, mut db) = setup(
            "rel node(x: int).\nrel edge(a: int, b: int).\n\
             rel reachable(x: int).\nrel isolated(x: int).\n\
             node(1). node(2). node(3).\n\
             edge(1, 2).\n\
             reachable(X) :- edge(_, X).\n\
             reachable(X) :- edge(X, _).\n\
             isolated(X) :- node(X), not reachable(X).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "isolated"), vec![tuple![3i64]]);
    }

    #[test]
    fn comparisons_and_lets() {
        let (p, mut db) = setup(
            "rel score(w: id, s: float).\nrel grade(w: id, g: float).\n\
             score(#1, 0.5). score(#2, 0.9).\n\
             grade(W, G) :- score(W, S), S >= 0.6, G := S * 100.0.\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        let g = rows(&db, "grade");
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], tuple![2u64, 90.0f64]);
    }

    #[test]
    fn string_concat() {
        let (p, mut db) = setup(
            "rel name(n: str).\nrel greet(g: str).\n\
             name(\"ann\").\n\
             greet(G) :- name(N), G := \"hi \" + N.\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "greet"), vec![tuple!["hi ann"]]);
    }

    #[test]
    fn aggregates_group_correctly() {
        let (p, mut db) = setup(
            "rel w(team: str, score: float).\n\
             rel summary(team: str, n: int, avg: float, best: float).\n\
             w(\"a\", 0.5). w(\"a\", 0.7). w(\"b\", 1.0).\n\
             summary(T, count<S>, avg<S>, max<S>) :- w(T, S).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        let s = rows(&db, "summary");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0][0], Value::Str("a".into()));
        assert_eq!(s[0][1], Value::Int(2));
        assert!((s[0][2].as_float().unwrap() - 0.6).abs() < 1e-9);
        assert_eq!(s[0][3], Value::Float(0.7));
        assert_eq!(s[1], tuple!["b", 1i64, 1.0f64, 1.0f64]);
    }

    #[test]
    fn aggregate_feeding_rule_in_same_run() {
        let (p, mut db) = setup(
            "rel w(team: str, score: float).\n\
             rel n(team: str, c: int).\n\
             rel big(team: str).\n\
             w(\"a\", 0.5). w(\"a\", 0.7). w(\"b\", 1.0).\n\
             n(T, count<S>) :- w(T, S).\n\
             big(T) :- n(T, C), C >= 2.\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "big"), vec![tuple!["a"]]);
    }

    #[test]
    fn division_by_zero_surfaces() {
        let (p, mut db) = setup(
            "rel a(x: int).\nrel r(x: int).\n\
             a(1). a(0).\n\
             r(Z) :- a(X), Z := 10 / X.\n",
        );
        let err = eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn demands_computed_and_shrink_with_answers() {
        let (p, mut db) = setup(
            "rel sentence(s: str).\n\
             open translate(s: str) -> (t: str).\n\
             rel out(s: str, t: str).\n\
             sentence(\"hello\"). sentence(\"bye\").\n\
             out(S, T) :- sentence(S), translate(S, T).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        let demands = compute_demands(&p, &db, None, None).unwrap();
        assert_eq!(demands.len(), 2);
        // Supply one answer: out derives for it; demand remains for the other.
        db.relation_mut("translate")
            .unwrap()
            .insert_distinct(tuple!["hello", "bonjour"])
            .unwrap();
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "out"), vec![tuple!["hello", "bonjour"]]);
        // Demands are still both "wanted" by the rule; the engine layer
        // dedups against already-asked questions.
        let demands = compute_demands(&p, &db, None, None).unwrap();
        assert_eq!(demands.len(), 2);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let (p, mut db) = setup(
            "rel e(a: int, b: int).\nrel selfloop(x: int).\n\
             e(1, 1). e(1, 2). e(3, 3).\n\
             selfloop(X) :- e(X, X).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "selfloop"), vec![tuple![1i64], tuple![3i64]]);
    }

    #[test]
    fn constants_in_atoms_filter() {
        let (p, mut db) = setup(
            "rel e(a: int, b: str).\nrel hit(x: int).\n\
             e(1, \"x\"). e(2, \"y\").\n\
             hit(A) :- e(A, \"x\").\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "hit"), vec![tuple![1i64]]);
    }

    #[test]
    fn null_comparisons_never_hold() {
        let (p, mut db) = setup(
            "rel v(x: int).\nrel r(x: int).\n\
             v(null). v(5).\n\
             r(X) :- v(X), X > 0.\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "r"), vec![tuple![5i64]]);
    }

    #[test]
    fn zero_arity_predicates() {
        let (p, mut db) = setup(
            "rel go().\nrel done().\n\
             go().\n\
             done() :- go().\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(db.relation("done").unwrap().len(), 1);
    }

    #[test]
    fn stats_absorb() {
        let mut a = EvalStats {
            rounds: 1,
            derived: 2,
            duplicates: 3,
            firings: 4,
            delta_seeded: 5,
            strata_skipped: 6,
            strata_recomputed: 7,
            recomputes: 8,
        };
        a.absorb(EvalStats {
            rounds: 10,
            derived: 20,
            duplicates: 30,
            firings: 40,
            delta_seeded: 50,
            strata_skipped: 60,
            strata_recomputed: 70,
            recomputes: 80,
        });
        assert_eq!(a.rounds, 11);
        assert_eq!(a.derived, 22);
        assert_eq!(a.duplicates, 33);
        assert_eq!(a.firings, 44);
        assert_eq!(a.delta_seeded, 55);
        assert_eq!(a.strata_skipped, 66);
        assert_eq!(a.strata_recomputed, 77);
        assert_eq!(a.recomputes, 88);
    }

    /// Cross-batch delta pass on a recursive program: after the initial
    /// fixpoint, seeding one new edge must derive exactly the paths that
    /// use it, without touching anything else.
    #[test]
    fn incremental_pass_extends_closure() {
        let (p, mut db) = setup(
            "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
             edge(1, 2). edge(2, 3).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "path").len(), 3);
        // New base fact arrives: edge(3, 4).
        let new = tuple![3i64, 4i64];
        db.relation_mut("edge")
            .unwrap()
            .insert_distinct(new.clone())
            .unwrap();
        let edge = p.pred("edge").unwrap();
        let mut seed = BTreeMap::new();
        seed.insert(edge, vec![new]);
        let outcome = eval_program_incremental(&p, &mut db, None, &seed).unwrap();
        assert!(!outcome.any_rebuild);
        assert_eq!(outcome.stats.delta_seeded, 1);
        // 1-4, 2-4, 3-4 are new.
        assert_eq!(outcome.stats.derived, 3);
        assert_eq!(rows(&db, "path").len(), 6);
        let path = p.pred("path").unwrap();
        let mut changed = outcome.changed.get(&path).cloned().unwrap();
        changed.sort();
        assert_eq!(
            changed,
            vec![tuple![1i64, 4i64], tuple![2i64, 4i64], tuple![3i64, 4i64]]
        );
    }

    /// An empty seed leaves the database untouched and skips every stratum.
    #[test]
    fn incremental_pass_with_empty_seed_skips_everything() {
        let (p, mut db) = setup(
            "rel edge(a: int, b: int).\nrel path(a: int, b: int).\n\
             edge(1, 2).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- edge(X, Y), path(Y, Z).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        let before = rows(&db, "path");
        let outcome = eval_program_incremental(&p, &mut db, None, &BTreeMap::new()).unwrap();
        assert_eq!(outcome.stats.strata_skipped as usize, p.strata.len());
        assert_eq!(outcome.stats.derived, 0);
        assert_eq!(rows(&db, "path"), before);
    }

    /// A changed predicate reaching a stratum through negation forces that
    /// stratum to be rebuilt — and the rebuild may *shrink* its head.
    #[test]
    fn incremental_pass_rebuilds_negation_stratum() {
        let (p, mut db) = setup(
            "rel node(x: int).\nrel edge(a: int, b: int).\n\
             rel reachable(x: int).\nrel isolated(x: int).\n\
             node(1). node(2). node(3).\n\
             edge(1, 2).\n\
             reachable(X) :- edge(_, X).\n\
             reachable(X) :- edge(X, _).\n\
             isolated(X) :- node(X), not reachable(X).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "isolated"), vec![tuple![3i64]]);
        // edge(2, 3) makes node 3 reachable: isolated must shrink to empty.
        let new = tuple![2i64, 3i64];
        db.relation_mut("edge")
            .unwrap()
            .insert_distinct(new.clone())
            .unwrap();
        let mut seed = BTreeMap::new();
        seed.insert(p.pred("edge").unwrap(), vec![new]);
        let outcome = eval_program_incremental(&p, &mut db, None, &seed).unwrap();
        assert!(outcome.any_rebuild);
        assert!(outcome.stats.strata_recomputed >= 1);
        assert!(rows(&db, "isolated").is_empty());
    }

    /// Aggregate strata are rebuilt, not delta-joined: a new input row must
    /// replace the old group row rather than coexist with it.
    #[test]
    fn incremental_pass_rebuilds_aggregate_stratum() {
        let (p, mut db) = setup(
            "rel w(team: str, score: float).\n\
             rel n(team: str, c: int).\n\
             w(\"a\", 0.5).\n\
             n(T, count<S>) :- w(T, S).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        assert_eq!(rows(&db, "n"), vec![tuple!["a", 1i64]]);
        let new = tuple!["a", 0.7f64];
        db.relation_mut("w")
            .unwrap()
            .insert_distinct(new.clone())
            .unwrap();
        let mut seed = BTreeMap::new();
        seed.insert(p.pred("w").unwrap(), vec![new]);
        let outcome = eval_program_incremental(&p, &mut db, None, &seed).unwrap();
        assert!(outcome.any_rebuild);
        assert_eq!(rows(&db, "n"), vec![tuple!["a", 2i64]]);
    }

    /// Delta demand computation finds exactly the demands that need a new
    /// tuple, and none that were already derivable.
    #[test]
    fn delta_demands_match_full_recomputation_on_growth() {
        let (p, mut db) = setup(
            "rel sentence(s: str).\n\
             open translate(s: str) -> (t: str).\n\
             rel out(s: str, t: str).\n\
             sentence(\"hello\").\n\
             out(S, T) :- sentence(S), translate(S, T).\n",
        );
        eval_program(&p, &mut db, None, EvalMode::SemiNaive).unwrap();
        let new = tuple!["bye"];
        db.relation_mut("sentence")
            .unwrap()
            .insert_distinct(new.clone())
            .unwrap();
        let sentence = p.pred("sentence").unwrap();
        let mut seed = BTreeMap::new();
        seed.insert(sentence, vec![new]);
        let outcome = eval_program_incremental(&p, &mut db, None, &seed).unwrap();
        let delta = compute_demands(&p, &db, None, Some(&outcome.changed)).unwrap();
        assert_eq!(
            delta,
            vec![(p.pred("translate").unwrap(), vec!["bye".into()])]
        );
        // The full set contains the delta set plus the already-known demand.
        let full = compute_demands(&p, &db, None, None).unwrap();
        assert_eq!(full.len(), 2);
        for d in &delta {
            assert!(full.contains(d));
        }
    }
}
