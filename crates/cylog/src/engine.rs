//! The CyLog processor: owns the fact store, runs evaluation to fixpoint,
//! turns open-predicate demands into crowd tasks, accepts worker answers,
//! and keeps the game-aspect points ledger.
//!
//! This is the component labelled "CyLog Processor" in paper Figure 2: it
//! "interprets and executes the rules describing tasks and their dependency,
//! dynamically generates and registers tasks into the task pool".

use crate::analysis::{compile, CompiledProgram, PredId, PredKind};
use crate::ast::Program;
use crate::error::CylogError;
use crate::eval::{
    compute_demands, eval_program, eval_program_incremental, EvalMode, EvalStats, Host, HostFacts,
};
use crate::parser::parse;
use crowd4u_storage::prelude::*;
use crowd4u_telemetry::{stage, Counter, Histogram, TelemetryHandle};
use std::collections::{BTreeMap, HashSet};

/// A question for the crowd: "evaluate open predicate `pred` on `inputs`".
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRequest {
    pub pred: PredId,
    pub pred_name: String,
    pub inputs: Vec<Value>,
    /// Game-aspect reward for answering.
    pub points: i64,
}

/// One worker answer destined for [`CylogEngine::answer_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRecord {
    /// Open predicate being answered.
    pub pred: String,
    /// The question's input values.
    pub inputs: Vec<Value>,
    /// The worker-supplied output values.
    pub outputs: Vec<Value>,
    /// Worker credited the predicate's points (if any).
    pub worker: Option<u64>,
}

/// What a call to [`CylogEngine::answer_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Answers that created a new fact.
    pub fresh: usize,
    /// Answers whose fact already existed (no points awarded).
    pub duplicates: usize,
}

/// Telemetry cells the engine records into after every `run` — the
/// [`EvalStats`] fields surfaced as monotonic counters, plus the fixpoint
/// span histogram. Defaults to all-disabled cells (every record is a no-op)
/// until [`CylogEngine::set_telemetry`] attaches a live registry.
#[derive(Default)]
struct EngineTelemetry {
    fixpoint: Histogram,
    rounds: Counter,
    firings: Counter,
    derived: Counter,
    duplicates: Counter,
    recomputes: Counter,
    delta_seeded: Counter,
    strata_skipped: Counter,
    strata_recomputed: Counter,
}

impl EngineTelemetry {
    fn from_handle(handle: &TelemetryHandle) -> EngineTelemetry {
        EngineTelemetry {
            fixpoint: handle.histogram(stage::CYLOG_FIXPOINT),
            rounds: handle.counter("crowd4u_cylog_rounds_total"),
            firings: handle.counter("crowd4u_cylog_firings_total"),
            derived: handle.counter("crowd4u_cylog_derived_total"),
            duplicates: handle.counter("crowd4u_cylog_duplicates_total"),
            recomputes: handle.counter("crowd4u_cylog_recomputes_total"),
            delta_seeded: handle.counter("crowd4u_cylog_delta_seeded_total"),
            strata_skipped: handle.counter("crowd4u_cylog_strata_skipped_total"),
            strata_recomputed: handle.counter("crowd4u_cylog_strata_recomputed_total"),
        }
    }

    fn observe(&self, stats: &EvalStats) {
        self.rounds.add(stats.rounds);
        self.firings.add(stats.firings);
        self.derived.add(stats.derived);
        self.duplicates.add(stats.duplicates);
        self.recomputes.add(stats.recomputes);
        self.delta_seeded.add(stats.delta_seeded);
        self.strata_skipped.add(stats.strata_skipped);
        self.strata_recomputed.add(stats.strata_recomputed);
    }
}

/// The live entries of `queue`, in order.
fn live_entries<'a>(
    queue: &'a [OpenRequest],
    live: &'a [HashSet<Vec<Value>>],
) -> impl Iterator<Item = &'a OpenRequest> + 'a {
    queue
        .iter()
        .filter(move |r| live[r.pred].contains(r.inputs.as_slice()))
}

/// The questions awaiting a crowd answer, in the order they were posed
/// ([`CylogEngine::pending_requests`]).
pub struct PendingRequests<'a> {
    queue: &'a [OpenRequest],
    live: &'a [HashSet<Vec<Value>>],
    len: usize,
}

impl<'a> PendingRequests<'a> {
    pub fn iter(&self) -> impl Iterator<Item = &'a OpenRequest> + 'a {
        live_entries(self.queue, self.live)
    }

    /// How many questions are pending, in O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PartialEq for PendingRequests<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for PendingRequests<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The CyLog engine: compiled program + fact database + open-task queue.
pub struct CylogEngine {
    program: CompiledProgram,
    db: Database,
    mode: EvalMode,
    /// Questions already posed (never re-asked).
    asked: HashSet<(PredId, Vec<Value>)>,
    /// Questions posed, in the order they were posed: the live ones and
    /// those answered since the last compaction.
    pending: Vec<OpenRequest>,
    /// Inputs of the live `pending` entries, per predicate, for O(1)
    /// membership/removal probed by `&[Value]`. An answer only takes its
    /// entry out of here; `pending` itself is compacted once answered
    /// entries outnumber live ones, so it never holds more than twice the
    /// live entries, and no `run` walks it.
    pending_set: Vec<HashSet<Vec<Value>>>,
    /// Entries across `pending_set`, kept beside it so the eager-compaction
    /// test on every answer is one comparison.
    pending_live: usize,
    /// How many leading `pending` entries the platform has already been
    /// handed ([`CylogEngine::take_new_requests`]). Part of the engine, so
    /// demands enqueued but not yet handed off move with it when a project
    /// migrates.
    handed_off: usize,
    /// Times the pending queue was compacted.
    compactions: u64,
    /// `pending` entries those compactions visited.
    pending_walked: u64,
    /// Game aspect: worker id → accumulated points.
    points: BTreeMap<u64, i64>,
    /// Cumulative evaluation statistics.
    stats: EvalStats,
    /// Facts inserted since the last completed fixpoint, per predicate —
    /// the cross-batch delta seed for incremental runs.
    delta_log: BTreeMap<PredId, Vec<Tuple>>,
    /// When set, the next `run` recomputes derived relations from scratch
    /// (startup, retraction, mode switch, a failed pass, or a host-bound
    /// predicate that lost a row).
    needs_full: bool,
    /// The predicates read from the host ([`CylogEngine::bind_host`]).
    host_preds: Vec<PredId>,
    /// The host's [`HostFacts::version`] at the last successful fixpoint.
    host_seen: Option<u64>,
    /// Per-predicate input-column indices (`0..n_inputs`), precomputed so
    /// `has_answer` does not rebuild the vector on every pending check.
    input_cols: Vec<Vec<usize>>,
    /// Observe-only metric cells (never part of `state_dump`/journals).
    telemetry: EngineTelemetry,
}

impl CylogEngine {
    /// Build an engine from an already-parsed program.
    pub fn from_program(ast: &Program) -> Result<CylogEngine, CylogError> {
        let program = compile(ast)?;
        let mut db = Database::new();
        for info in &program.preds {
            let cols: Vec<Column> = info
                .col_names
                .iter()
                .zip(&info.col_types)
                .map(|(n, t)| Column::nullable(n.clone(), *t))
                .collect();
            let rel =
                db.create_relation(&info.name, Schema::new(cols).map_err(CylogError::from)?)?;
            // Index strategy (keeps large workloads linear):
            // * full-row index → O(1) set-semantics dedup (a whole-row
            //   probe always resolves through the widest index);
            // * open predicates: index on the input columns → O(1)
            //   answered-question lookups;
            // * first column: the common join pattern `p(Bound, Free…)`,
            //   unless the input index above already is that index.
            let all_cols: Vec<&str> = info.col_names.iter().map(String::as_str).collect();
            if !all_cols.is_empty() {
                rel.create_index(&all_cols, false)?;
                let n_in = info.open_inputs();
                if n_in > 0 && n_in < all_cols.len() {
                    rel.create_index(&all_cols[..n_in], false)?;
                }
                if all_cols.len() > 1 && n_in != 1 {
                    rel.create_index(&all_cols[..1], false)?;
                }
            }
        }
        let input_cols = program
            .preds
            .iter()
            .map(|info| (0..info.open_inputs()).collect())
            .collect();
        let pending_set = vec![HashSet::new(); program.preds.len()];
        let mut engine = CylogEngine {
            program,
            db,
            mode: EvalMode::default(),
            asked: HashSet::new(),
            pending: Vec::new(),
            pending_set,
            pending_live: 0,
            handed_off: 0,
            compactions: 0,
            pending_walked: 0,
            points: BTreeMap::new(),
            stats: EvalStats::default(),
            delta_log: BTreeMap::new(),
            needs_full: true,
            host_preds: Vec::new(),
            host_seen: None,
            input_cols,
            telemetry: EngineTelemetry::default(),
        };
        engine.reset_facts()?;
        Ok(engine)
    }

    /// Parse CyLog source and build an engine.
    pub fn from_source(src: &str) -> Result<CylogEngine, CylogError> {
        Self::from_program(&parse(src)?)
    }

    /// Switch between naive, semi-naive and incremental evaluation
    /// (default: incremental). Any switch forces the next `run` to
    /// recompute from scratch so the modes stay byte-equivalent.
    pub fn set_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
        self.needs_full = true;
    }

    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Attach telemetry: every subsequent [`run`](Self::run) records its
    /// wall time in the `cylog.fixpoint` stage histogram and adds its
    /// [`EvalStats`] to the `crowd4u_cylog_*_total` counters. Telemetry is
    /// observe-only — it never changes evaluation or the engine's state.
    pub fn set_telemetry(&mut self, handle: &TelemetryHandle) {
        self.telemetry = EngineTelemetry::from_handle(handle);
    }

    /// The compiled program (for introspection).
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Re-insert the program-text facts (used at startup and after clears).
    fn reset_facts(&mut self) -> Result<(), CylogError> {
        for (pid, vals) in &self.program.facts {
            let name = &self.program.preds[*pid].name;
            self.db
                .relation_mut(name)?
                .insert_distinct(Tuple::new(vals.clone()))?;
        }
        Ok(())
    }

    /// Bind predicates to the host: from now on evaluation reads their rows
    /// from the [`HostFacts`] source that each run is given
    /// ([`run_with`](Self::run_with)), never from this engine's database,
    /// and inserting into them is refused with [`CylogError::HostBound`].
    /// Each must be a base `rel` predicate holding no fact, program facts
    /// included; otherwise nothing is bound.
    pub fn bind_host(&mut self, preds: &[&str]) -> Result<(), CylogError> {
        let mut pids = Vec::with_capacity(preds.len());
        for name in preds {
            let pid = self.pred_id(name)?;
            let info = &self.program.preds[pid];
            if info.derived || info.is_open() || !self.db.relation(&info.name)?.is_empty() {
                return Err(CylogError::Semantic(format!(
                    "`{name}` cannot be bound to host facts: only a base `rel` holding no fact can"
                )));
            }
            pids.push(pid);
        }
        for pid in pids {
            if !self.program.preds[pid].host {
                self.program.preds[pid].host = true;
                self.host_preds.push(pid);
            }
        }
        self.needs_full = true;
        Ok(())
    }

    fn pred_id(&self, name: &str) -> Result<PredId, CylogError> {
        self.program
            .pred(name)
            .ok_or_else(|| CylogError::Eval(format!("unknown predicate `{name}`")))
    }

    /// Insert an extensional fact. Rejected for rule-derived predicates.
    /// Returns whether the fact is new.
    pub fn add_fact(&mut self, pred: &str, values: Vec<Value>) -> Result<bool, CylogError> {
        let pid = self.pred_id(pred)?;
        let info = &self.program.preds[pid];
        if info.derived {
            return Err(CylogError::Eval(format!(
                "cannot insert into derived predicate `{pred}`"
            )));
        }
        if info.host {
            return Err(CylogError::HostBound(pred.to_owned()));
        }
        if values.len() != info.arity() {
            return Err(CylogError::Eval(format!(
                "`{pred}` has arity {}, got {} values",
                info.arity(),
                values.len()
            )));
        }
        for (v, ty) in values.iter().zip(&info.col_types) {
            let ok = v.is_null()
                || v.conforms_to(*ty)
                || matches!((v, ty), (Value::Int(_), ValueType::Float));
            if !ok {
                return Err(CylogError::Eval(format!(
                    "value {v} incompatible with {ty} column of `{pred}`"
                )));
            }
        }
        // Widen ints destined for float columns so set-dedup is canonical.
        let widened: Vec<Value> = values
            .into_iter()
            .zip(&info.col_types)
            .map(|(v, ty)| match (&v, ty) {
                (Value::Int(i), ValueType::Float) => Value::Float(*i as f64),
                _ => v,
            })
            .collect();
        let t = Tuple::new(widened);
        let (_, fresh) = self
            .db
            .relation_mut(&info.name)?
            .insert_distinct(t.clone())?;
        if fresh {
            self.delta_log.entry(pid).or_default().push(t);
        }
        Ok(fresh)
    }

    /// Run rules to fixpoint, then refresh the open-task queue with any new
    /// demands. In the default incremental mode, derived relations persist
    /// between calls and the fixpoint restarts from the facts inserted since
    /// the previous one; retractions (and mode switches, startup, or an
    /// error mid-pass) automatically fall back to a full recompute. In naive
    /// and semi-naive modes every call recomputes from scratch. All modes
    /// produce byte-identical state — see ARCHITECTURE.md, "Incremental
    /// evaluation contract". An engine with host-bound predicates refuses
    /// to run without their source: use [`run_with`](Self::run_with).
    pub fn run(&mut self) -> Result<EvalStats, CylogError> {
        self.run_on(None)
    }

    /// [`run`](Self::run), reading the host-bound predicates
    /// ([`bind_host`](Self::bind_host)) from `host` as it stands now. The
    /// incremental mode pulls what changed since the last successful
    /// fixpoint: nothing when the host's version has not moved, a full
    /// recompute when a bound predicate lost a row since (or the version
    /// went back), and otherwise the rows of
    /// [`HostFacts::changed_since`] as part of the delta seed. An engine
    /// that binds nothing ignores `host`.
    pub fn run_with(&mut self, host: &dyn HostFacts) -> Result<EvalStats, CylogError> {
        self.run_on(Some(host))
    }

    fn run_on(&mut self, host: Host<'_>) -> Result<EvalStats, CylogError> {
        let host = match self.host_preds.first() {
            None => None,
            Some(&pid) => Some(
                host.ok_or_else(|| CylogError::HostBound(self.program.preds[pid].name.clone()))?,
            ),
        };
        // Once per sync, not per event: every pass is timed.
        let started = self.telemetry.fixpoint.stamp();
        let seen = host.map(|h| self.seed_host(h));
        let outcome = if self.mode == EvalMode::Incremental && !self.needs_full {
            self.run_incremental(host)
        } else {
            self.run_full(host)
        };
        self.telemetry.fixpoint.since(started);
        let stats = outcome?;
        self.host_seen = seen;
        self.telemetry.observe(&stats);
        Ok(stats)
    }

    /// Add to the delta log the rows the host changed since the last
    /// successful fixpoint, or mark a full recompute where a delta cannot
    /// describe the change. Returns the host version this run reads.
    fn seed_host(&mut self, host: &dyn HostFacts) -> u64 {
        let now = host.version();
        let preds = &self.program.preds;
        let grown_since = self.host_seen.filter(|&seen| {
            seen <= now
                && !self
                    .host_preds
                    .iter()
                    .any(|&p| host.lost_since(&preds[p].name, seen))
        });
        match grown_since {
            Some(seen) if self.mode == EvalMode::Incremental && !self.needs_full => {
                if seen < now {
                    for &p in &self.host_preds {
                        let rows = self.delta_log.entry(p).or_default();
                        host.changed_since(&preds[p].name, seen, rows);
                    }
                }
            }
            _ => self.needs_full = true,
        }
        now
    }

    /// Clear derived relations, re-seed program facts and recompute the
    /// whole fixpoint — honours retractions of base facts.
    fn run_full(&mut self, host: Host<'_>) -> Result<EvalStats, CylogError> {
        for info in &self.program.preds {
            if info.derived {
                self.db.relation_mut(&info.name)?.clear();
            }
        }
        self.reset_facts()?;
        let mut stats = eval_program(&self.program, &mut self.db, host, self.mode)?;
        stats.recomputes += 1;
        self.stats.absorb(stats);
        // Everything inserted up to here is part of the fixpoint just
        // computed; the next incremental pass starts from a clean slate.
        self.delta_log.clear();
        self.needs_full = false;

        let demands = compute_demands(&self.program, &self.db, host, None)?;
        self.push_new_demands(demands)?;
        Ok(stats)
    }

    /// Advance the persisted fixpoint by the facts logged since the last
    /// one. Any error marks the engine for a full recompute, since a failed
    /// pass may leave strata half-updated.
    fn run_incremental(&mut self, host: Host<'_>) -> Result<EvalStats, CylogError> {
        let seed = std::mem::take(&mut self.delta_log);
        let result = self.run_incremental_inner(host, &seed);
        if result.is_err() {
            self.needs_full = true;
        }
        result
    }

    fn run_incremental_inner(
        &mut self,
        host: Host<'_>,
        seed: &BTreeMap<PredId, Vec<Tuple>>,
    ) -> Result<EvalStats, CylogError> {
        let outcome = eval_program_incremental(&self.program, &mut self.db, host, seed)?;
        self.stats.absorb(outcome.stats);
        // A rebuilt stratum may have shrunk, so deltas alone cannot prove a
        // demand new — recompute the full demand set in that case (the
        // `asked` ledger still dedups).
        let changed = (!outcome.any_rebuild).then_some(&outcome.changed);
        let demands = compute_demands(&self.program, &self.db, host, changed)?;
        self.push_new_demands(demands)?;
        Ok(outcome.stats)
    }

    /// Filter answered and already-asked demands, then append the rest to
    /// the pending queue in canonical `(predicate, inputs)` order, so every
    /// evaluation mode enqueues identically regardless of the order the
    /// demand computation discovered them in.
    fn push_new_demands(&mut self, demands: Vec<(PredId, Vec<Value>)>) -> Result<(), CylogError> {
        let mut fresh: Vec<(PredId, Vec<Value>)> = Vec::new();
        for (pid, inputs) in demands {
            // A question is only pending while unanswered: if the open
            // relation already has a fact with these inputs, skip.
            if self.has_answer(pid, &inputs)? {
                continue;
            }
            if self.asked.insert((pid, inputs.clone())) {
                fresh.push((pid, inputs));
            }
        }
        fresh.sort();
        for (pid, inputs) in fresh {
            let info = &self.program.preds[pid];
            let points = match info.kind {
                PredKind::Open { points, .. } => points,
                PredKind::Closed => 0,
            };
            self.pending_live += usize::from(self.pending_set[pid].insert(inputs.clone()));
            self.pending.push(OpenRequest {
                pred: pid,
                pred_name: info.name.clone(),
                inputs,
                points,
            });
        }
        Ok(())
    }

    fn has_answer(&self, pid: PredId, inputs: &[Value]) -> Result<bool, CylogError> {
        let rel = self.db.relation(&self.program.preds[pid].name)?;
        Ok(!rel.lookup(&self.input_cols[pid], inputs).is_empty())
    }

    /// Questions awaiting a crowd answer, in the order they were posed: a
    /// view of the pending queue that skips the entries answered since its
    /// last compaction, so it reads the same between an answer and the next
    /// `run` as after it.
    pub fn pending_requests(&self) -> PendingRequests<'_> {
        PendingRequests {
            queue: &self.pending,
            live: &self.pending_set,
            len: self.pending_live,
        }
    }

    /// Hand over the questions enqueued since the previous call that are
    /// still unanswered, in queue order. This is the engine→platform demand
    /// hand-off: every question is enqueued once (the `asked` ledger) and
    /// handed off once, so a caller that registers one task per item it is
    /// handed does work in proportion to the new demands, not to the
    /// backlog in [`pending_requests`](Self::pending_requests).
    pub fn take_new_requests(&mut self) -> impl Iterator<Item = &OpenRequest> {
        let from = std::mem::replace(&mut self.handed_off, self.pending.len());
        live_entries(&self.pending[from..], &self.pending_set)
    }

    /// Validate one answer against the program: the predicate must be open,
    /// arities must match, values must conform to column types. Returns the
    /// predicate id and its per-answer points.
    fn validate_answer(
        &self,
        pred: &str,
        inputs: &[Value],
        outputs: &[Value],
    ) -> Result<(PredId, i64), CylogError> {
        let pid = self.pred_id(pred)?;
        let info = &self.program.preds[pid];
        let PredKind::Open { n_inputs, points } = info.kind else {
            return Err(CylogError::Eval(format!(
                "`{pred}` is not an open predicate"
            )));
        };
        if inputs.len() != n_inputs || outputs.len() != info.arity() - n_inputs {
            return Err(CylogError::Eval(format!(
                "`{pred}` expects {} inputs and {} outputs, got {} and {}",
                n_inputs,
                info.arity() - n_inputs,
                inputs.len(),
                outputs.len()
            )));
        }
        for (v, ty) in inputs.iter().chain(outputs).zip(&info.col_types) {
            let ok = v.is_null()
                || v.conforms_to(*ty)
                || matches!((v, ty), (Value::Int(_), ValueType::Float));
            if !ok {
                return Err(CylogError::Eval(format!(
                    "answer value {v} incompatible with {ty} column of `{pred}`"
                )));
            }
        }
        Ok((pid, points))
    }

    /// Apply a validated answer: store the fact, retire the pending entry,
    /// credit the worker. Does not run rules.
    fn apply_answer(
        &mut self,
        pid: PredId,
        points: i64,
        inputs: Vec<Value>,
        outputs: Vec<Value>,
        worker: Option<u64>,
    ) -> Result<bool, CylogError> {
        let n_inputs = inputs.len();
        let mut values = inputs;
        values.extend(outputs);
        let t = Tuple::new(values);
        let (_, fresh) = self
            .db
            .relation_mut(&self.program.preds[pid].name)?
            .insert_distinct(t.clone())?;
        // Retire the pending entry. A question that was not pending (an
        // unsolicited answer) enters the `asked` ledger instead, so it is
        // never posed; a pending one is already there.
        let inputs = &t.values()[..n_inputs];
        if self.pending_set[pid].remove(inputs) {
            self.pending_live -= 1;
            // Once answered entries outnumber live ones, rebuild the queue:
            // amortised O(1) per answer, and the queue stays within twice
            // its live entries.
            if 2 * self.pending_live < self.pending.len() {
                self.compact_pending();
            }
        } else {
            self.asked.insert((pid, inputs.to_vec()));
        }
        if fresh {
            self.delta_log.entry(pid).or_default().push(t);
            if let Some(w) = worker {
                *self.points.entry(w).or_insert(0) += points;
            }
        }
        Ok(fresh)
    }

    /// Drop answered entries from the pending queue. Only
    /// [`apply_answer`](Self::apply_answer) calls it, once answered entries
    /// outnumber live ones, so the walk is paid for by the answers that
    /// made those entries stale.
    fn compact_pending(&mut self) {
        self.pending_walked += self.pending.len() as u64;
        let live = &self.pending_set;
        // Entries before the hand-off cursor that survive stay before it.
        let (handed, mut seen, mut kept_handed) = (self.handed_off, 0, 0);
        self.pending.retain(|r| {
            let keep = live[r.pred].contains(r.inputs.as_slice());
            kept_handed += usize::from(keep && seen < handed);
            seen += 1;
            keep
        });
        self.handed_off = kept_handed;
        self.compactions += 1;
    }

    /// Times the pending queue has been compacted (for observability).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Pending-queue entries that compaction has visited, in total (for
    /// observability, like [`compaction_count`](Self::compaction_count):
    /// never journaled, never in a state dump). It grows only with the
    /// answers that tip the eager compaction, never with a `run`.
    pub fn pending_walked(&self) -> u64 {
        self.pending_walked
    }

    /// Supply a worker's answer to an open question. `worker` (if given) is
    /// credited the predicate's points. Returns whether the answer created a
    /// new fact. The engine does **not** rerun rules automatically — call
    /// [`run`](Self::run) after a batch of answers, or use
    /// [`answer_batch`](Self::answer_batch) to do both in one step.
    pub fn answer(
        &mut self,
        pred: &str,
        inputs: Vec<Value>,
        outputs: Vec<Value>,
        worker: Option<u64>,
    ) -> Result<bool, CylogError> {
        let (pid, points) = self.validate_answer(pred, &inputs, &outputs)?;
        self.apply_answer(pid, points, inputs, outputs, worker)
    }

    /// Ingest a batch of answers and run the fixpoint **once**, instead of
    /// once per answer. The whole batch is validated up front, so either
    /// every answer is applied or none is (the error names the offending
    /// answer). Equivalent to calling [`answer`](Self::answer) followed by
    /// [`run`](Self::run) for each record, at a fraction of the cost — this
    /// is the engine half of the platform's batched ingestion path.
    pub fn answer_batch(&mut self, answers: &[AnswerRecord]) -> Result<BatchOutcome, CylogError> {
        let mut validated = Vec::with_capacity(answers.len());
        for (i, a) in answers.iter().enumerate() {
            let (pid, points) = self
                .validate_answer(&a.pred, &a.inputs, &a.outputs)
                .map_err(|e| {
                    CylogError::Eval(format!("answer {} of {}: {e}", i + 1, answers.len()))
                })?;
            validated.push((pid, points));
        }
        let mut outcome = BatchOutcome::default();
        for (a, (pid, points)) in answers.iter().zip(validated) {
            let fresh =
                self.apply_answer(pid, points, a.inputs.clone(), a.outputs.clone(), a.worker)?;
            if fresh {
                outcome.fresh += 1;
            } else {
                outcome.duplicates += 1;
            }
        }
        self.run()?;
        Ok(outcome)
    }

    /// All facts of a predicate as a result set (snapshot).
    pub fn facts(&self, pred: &str) -> Result<ResultSet, CylogError> {
        let pid = self.pred_id(pred)?;
        Ok(self.db.scan(&self.program.preds[pid].name)?)
    }

    /// Number of facts of a predicate.
    pub fn fact_count(&self, pred: &str) -> Result<usize, CylogError> {
        let pid = self.pred_id(pred)?;
        Ok(self.db.relation(&self.program.preds[pid].name)?.len())
    }

    /// Remove every base fact of `pred` whose first column is `key`; returns
    /// how many were removed. The victims are found through the relation's
    /// first-column index, so the cost is the matching rows, not the
    /// relation. Any actual deletion forces the next `run` to recompute
    /// derived relations from scratch — deltas only describe growth, never
    /// removal.
    pub fn retract_by_key(&mut self, pred: &str, key: &Value) -> Result<usize, CylogError> {
        let pid = self.pred_id(pred)?;
        let info = &self.program.preds[pid];
        if info.derived {
            return Err(CylogError::Eval(format!(
                "cannot retract from derived predicate `{pred}`"
            )));
        }
        if info.arity() == 0 {
            return Err(CylogError::Eval(format!(
                "`{pred}` has no column to retract by"
            )));
        }
        let name = info.name.clone();
        let n = self
            .db
            .relation_mut(&name)?
            .delete_matching(&[0], std::slice::from_ref(key));
        if n > 0 {
            self.needs_full = true;
        }
        Ok(n)
    }

    /// Game-aspect points for one worker.
    pub fn points_of(&self, worker: u64) -> i64 {
        self.points.get(&worker).copied().unwrap_or(0)
    }

    /// Leaderboard (worker, points) sorted by points descending, id ascending.
    pub fn leaderboard(&self) -> Vec<(u64, i64)> {
        let mut v: Vec<(u64, i64)> = self.points.iter().map(|(w, p)| (*w, *p)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Cumulative statistics across all `run` calls.
    pub fn cumulative_stats(&self) -> EvalStats {
        self.stats
    }

    /// Access the underlying database (read-only), e.g. for snapshots.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRANSLATE: &str = "\
rel sentence(s: str).
open translate(s: str) -> (t: str) points 3.
open check(s: str, t: str) -> (ok: bool) points 1.
rel approved(s: str, t: str).
approved(S, T) :- sentence(S), translate(S, T), check(S, T, OK), OK = true.
";

    /// Compile-time check that an engine (and everything a shard must move
    /// across threads with it) stays `Send + Sync`: the sharded runtime
    /// owns one engine per project inside a shard thread. Adding interior
    /// mutability or a non-`Send` trait object to the engine state breaks
    /// this test at compile time, not in production.
    #[test]
    fn engine_state_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<CylogEngine>();
        assert_sync::<CylogEngine>();
        assert_send::<OpenRequest>();
        assert_send::<AnswerRecord>();
        assert_send::<BatchOutcome>();
    }

    #[test]
    fn end_to_end_translation_flow() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["hello".into()]).unwrap();
        e.add_fact("sentence", vec!["bye".into()]).unwrap();
        e.run().unwrap();
        // Only translate demands exist so far (check needs translations).
        let pend: Vec<&OpenRequest> = e.pending_requests().iter().collect();
        assert_eq!(pend.len(), 2);
        assert!(pend.iter().all(|r| r.pred_name == "translate"));
        assert_eq!(pend[0].points, 3);

        // Worker 7 answers one translation.
        let fresh = e
            .answer(
                "translate",
                vec!["hello".into()],
                vec!["bonjour".into()],
                Some(7),
            )
            .unwrap();
        assert!(fresh);
        assert_eq!(e.points_of(7), 3);
        e.run().unwrap();
        // Now a check question appears for (hello, bonjour).
        let checks: Vec<&OpenRequest> = e
            .pending_requests()
            .iter()
            .filter(|r| r.pred_name == "check")
            .collect();
        assert_eq!(checks.len(), 1);
        assert_eq!(
            checks[0].inputs,
            vec![Value::Str("hello".into()), Value::Str("bonjour".into())]
        );

        // Worker 8 approves; rule fires.
        e.answer(
            "check",
            vec!["hello".into(), "bonjour".into()],
            vec![true.into()],
            Some(8),
        )
        .unwrap();
        e.run().unwrap();
        assert_eq!(e.fact_count("approved").unwrap(), 1);
        assert_eq!(e.points_of(8), 1);
        assert_eq!(e.leaderboard(), vec![(7, 3), (8, 1)]);
    }

    #[test]
    fn questions_not_reasked_after_answer() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["hello".into()]).unwrap();
        e.run().unwrap();
        assert_eq!(e.pending_requests().len(), 1);
        e.answer(
            "translate",
            vec!["hello".into()],
            vec!["salut".into()],
            None,
        )
        .unwrap();
        e.run().unwrap();
        // translate question answered; only the check question pends.
        let names: Vec<&str> = e
            .pending_requests()
            .iter()
            .map(|r| r.pred_name.as_str())
            .collect();
        assert_eq!(names, vec!["check"]);
        // Re-running does not duplicate pending entries.
        e.run().unwrap();
        assert_eq!(e.pending_requests().len(), 1);
    }

    #[test]
    fn duplicate_answer_is_not_fresh_and_not_repaid() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["hello".into()]).unwrap();
        e.run().unwrap();
        assert!(e
            .answer(
                "translate",
                vec!["hello".into()],
                vec!["salut".into()],
                Some(1)
            )
            .unwrap());
        assert!(!e
            .answer(
                "translate",
                vec!["hello".into()],
                vec!["salut".into()],
                Some(1)
            )
            .unwrap());
        assert_eq!(e.points_of(1), 3);
    }

    #[test]
    fn multiple_answers_to_same_question_allowed() {
        // Different workers may translate the same sentence differently;
        // both facts coexist (quality arbitration is the platform's job).
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["hello".into()]).unwrap();
        e.run().unwrap();
        e.answer(
            "translate",
            vec!["hello".into()],
            vec!["salut".into()],
            Some(1),
        )
        .unwrap();
        e.answer(
            "translate",
            vec!["hello".into()],
            vec!["bonjour".into()],
            Some(2),
        )
        .unwrap();
        assert_eq!(e.fact_count("translate").unwrap(), 2);
        assert_eq!(e.points_of(2), 3);
    }

    #[test]
    fn answer_validation() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        // not an open predicate
        assert!(e
            .answer("sentence", vec!["x".into()], vec![], None)
            .is_err());
        // wrong arity
        assert!(e
            .answer("translate", vec![], vec!["y".into()], None)
            .is_err());
        // wrong type
        assert!(e
            .answer("translate", vec![Value::Int(3)], vec!["y".into()], None)
            .is_err());
        // unknown predicate
        assert!(e.answer("nope", vec![], vec![], None).is_err());
    }

    #[test]
    fn add_fact_validation() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        assert!(e
            .add_fact("approved", vec!["a".into(), "b".into()])
            .is_err()); // derived
        assert!(e.add_fact("sentence", vec![]).is_err()); // arity
        assert!(e.add_fact("sentence", vec![Value::Int(1)]).is_err()); // type
        assert!(e.add_fact("nope", vec![]).is_err()); // unknown
                                                      // duplicates are deduped
        assert!(e.add_fact("sentence", vec!["x".into()]).unwrap());
        assert!(!e.add_fact("sentence", vec!["x".into()]).unwrap());
    }

    #[test]
    fn retraction_recomputes_derived() {
        let mut e =
            CylogEngine::from_source("rel a(x: int).\nrel b(x: int).\nb(X) :- a(X).\n").unwrap();
        e.add_fact("a", vec![Value::Int(1)]).unwrap();
        e.add_fact("a", vec![Value::Int(2)]).unwrap();
        e.run().unwrap();
        assert_eq!(e.fact_count("b").unwrap(), 2);
        let n = e.retract_by_key("a", &Value::Int(1)).unwrap();
        assert_eq!(n, 1);
        e.run().unwrap();
        assert_eq!(e.fact_count("b").unwrap(), 1);
        // cannot retract from derived, nor by the key of a column-less fact
        assert!(e.retract_by_key("b", &Value::Int(2)).is_err());
        let mut flag = CylogEngine::from_source("rel go().\ngo().\n").unwrap();
        assert!(flag.retract_by_key("go", &Value::Int(1)).is_err());
    }

    /// The incremental default stays on the delta path across growth-only
    /// batches, and a mid-stream retraction (the documented reason for the
    /// old clear-and-rerun design) automatically falls back to exactly one
    /// full recompute — visible in `EvalStats::recomputes` — after which
    /// derived facts have disappeared and the delta path resumes.
    #[test]
    fn retraction_falls_back_to_full_recompute_then_resumes_deltas() {
        let mut e =
            CylogEngine::from_source("rel a(x: int).\nrel b(x: int).\nb(X) :- a(X).\n").unwrap();
        assert_eq!(e.mode(), EvalMode::Incremental);
        e.add_fact("a", vec![Value::Int(1)]).unwrap();
        e.run().unwrap(); // first run is always a full recompute
        assert_eq!(e.cumulative_stats().recomputes, 1);
        e.add_fact("a", vec![Value::Int(2)]).unwrap();
        let stats = e.run().unwrap(); // growth stays incremental
        assert_eq!(stats.recomputes, 0);
        assert_eq!(stats.delta_seeded, 1);
        assert_eq!(e.cumulative_stats().recomputes, 1);
        assert_eq!(e.fact_count("b").unwrap(), 2);

        e.retract_by_key("a", &Value::Int(1)).unwrap();
        let stats = e.run().unwrap(); // retraction forces the fallback
        assert_eq!(stats.recomputes, 1);
        assert_eq!(e.cumulative_stats().recomputes, 2);
        assert_eq!(e.fact_count("b").unwrap(), 1); // derived fact is gone

        e.add_fact("a", vec![Value::Int(3)]).unwrap();
        let stats = e.run().unwrap(); // and the delta path resumes
        assert_eq!(stats.recomputes, 0);
        assert_eq!(e.fact_count("b").unwrap(), 2);
    }

    /// A retraction that deletes nothing must not trigger the fallback —
    /// the platform's declarative sync retracts zero rows on first contact.
    #[test]
    fn empty_retraction_stays_on_delta_path() {
        let mut e =
            CylogEngine::from_source("rel a(x: int).\nrel b(x: int).\nb(X) :- a(X).\n").unwrap();
        e.add_fact("a", vec![Value::Int(1)]).unwrap();
        e.run().unwrap();
        assert_eq!(e.retract_by_key("a", &Value::Int(99)).unwrap(), 0);
        e.add_fact("a", vec![Value::Int(2)]).unwrap();
        let stats = e.run().unwrap();
        assert_eq!(stats.recomputes, 0);
        assert_eq!(e.fact_count("b").unwrap(), 2);
    }

    /// Switching evaluation modes resynchronises with a full recompute.
    #[test]
    fn mode_switch_forces_full_recompute() {
        let mut e =
            CylogEngine::from_source("rel a(x: int).\nrel b(x: int).\nb(X) :- a(X).\n").unwrap();
        e.add_fact("a", vec![Value::Int(1)]).unwrap();
        e.run().unwrap();
        e.set_mode(EvalMode::Incremental); // same mode, still a resync
        let stats = e.run().unwrap();
        assert_eq!(stats.recomputes, 1);
        assert_eq!(e.fact_count("b").unwrap(), 1);
    }

    /// Pin the two demand-dedup gates: a demand whose answer already exists
    /// is skipped (without being re-asked later), and a demand in the
    /// `asked` ledger is never pushed twice — even after its answer is
    /// retracted again.
    #[test]
    fn demand_dedup_via_asked_ledger_and_existing_answers() {
        const JUDGE: &str = "rel item(x: int).\n\
             open judge(x: int) -> (ok: bool) points 1.\n\
             rel good(x: int).\ngood(X) :- item(X), judge(X, OK), OK = true.\n";
        let mut e = CylogEngine::from_source(JUDGE).unwrap();
        // Unsolicited answer arrives before its question could be posed.
        e.answer("judge", vec![Value::Int(1)], vec![true.into()], None)
            .unwrap();
        e.add_fact("item", vec![Value::Int(1)]).unwrap();
        e.add_fact("item", vec![Value::Int(2)]).unwrap();
        e.run().unwrap();
        // Only the unanswered item pends; judge(1) was skipped.
        let inputs: Vec<i64> = e
            .pending_requests()
            .iter()
            .map(|r| r.inputs[0].as_int().unwrap())
            .collect();
        assert_eq!(inputs, vec![2]);
        // Re-running (incremental no-op run) does not duplicate the entry.
        e.run().unwrap();
        assert_eq!(e.pending_requests().len(), 1);
        // Retracting the answer does not resurrect the question: answering
        // put judge(1) in the asked ledger.
        e.retract_by_key("judge", &Value::Int(1)).unwrap();
        e.run().unwrap();
        let inputs: Vec<i64> = e
            .pending_requests()
            .iter()
            .map(|r| r.inputs[0].as_int().unwrap())
            .collect();
        assert_eq!(inputs, vec![2]);
    }

    #[test]
    fn program_facts_survive_reruns() {
        let mut e =
            CylogEngine::from_source("rel a(x: int).\nrel b(x: int).\na(5).\nb(X) :- a(X).\n")
                .unwrap();
        e.run().unwrap();
        e.run().unwrap();
        assert_eq!(e.fact_count("a").unwrap(), 1);
        assert_eq!(e.fact_count("b").unwrap(), 1);
    }

    #[test]
    fn unsolicited_answers_accepted() {
        // A worker may answer a question the engine never asked (e.g.
        // proactive contribution); the fact is stored and usable.
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.answer("translate", vec!["x".into()], vec!["y".into()], Some(3))
            .unwrap();
        assert_eq!(e.fact_count("translate").unwrap(), 1);
        assert_eq!(e.points_of(3), 3);
    }

    #[test]
    fn naive_mode_agrees() {
        let mut a = CylogEngine::from_source(TRANSLATE).unwrap();
        let mut b = CylogEngine::from_source(TRANSLATE).unwrap();
        b.set_mode(EvalMode::Naive);
        assert_eq!(b.mode(), EvalMode::Naive);
        for e in [&mut a, &mut b] {
            e.add_fact("sentence", vec!["s".into()]).unwrap();
            e.run().unwrap();
            e.answer("translate", vec!["s".into()], vec!["t".into()], None)
                .unwrap();
            e.answer(
                "check",
                vec!["s".into(), "t".into()],
                vec![true.into()],
                None,
            )
            .unwrap();
            e.run().unwrap();
        }
        assert_eq!(
            a.facts("approved").unwrap().rows,
            b.facts("approved").unwrap().rows
        );
    }

    #[test]
    fn answer_batch_matches_one_at_a_time() {
        let mut batched = CylogEngine::from_source(TRANSLATE).unwrap();
        let mut serial = CylogEngine::from_source(TRANSLATE).unwrap();
        for e in [&mut batched, &mut serial] {
            e.add_fact("sentence", vec!["a".into()]).unwrap();
            e.add_fact("sentence", vec!["b".into()]).unwrap();
            e.run().unwrap();
        }
        let answers = vec![
            AnswerRecord {
                pred: "translate".into(),
                inputs: vec!["a".into()],
                outputs: vec!["A".into()],
                worker: Some(1),
            },
            AnswerRecord {
                pred: "check".into(),
                inputs: vec!["a".into(), "A".into()],
                outputs: vec![true.into()],
                worker: Some(2),
            },
            AnswerRecord {
                pred: "translate".into(),
                inputs: vec!["b".into()],
                outputs: vec!["B".into()],
                worker: Some(1),
            },
        ];
        let outcome = batched.answer_batch(&answers).unwrap();
        assert_eq!(outcome.fresh, 3);
        assert_eq!(outcome.duplicates, 0);
        for a in &answers {
            serial
                .answer(&a.pred, a.inputs.clone(), a.outputs.clone(), a.worker)
                .unwrap();
            serial.run().unwrap();
        }
        // Same databases, points and remaining work.
        assert_eq!(
            crowd4u_storage::snapshot::dump(batched.database()),
            crowd4u_storage::snapshot::dump(serial.database())
        );
        assert_eq!(batched.leaderboard(), serial.leaderboard());
        assert_eq!(batched.pending_requests(), serial.pending_requests());
    }

    #[test]
    fn answer_batch_rejects_whole_batch_on_bad_answer() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["a".into()]).unwrap();
        e.run().unwrap();
        let answers = vec![
            AnswerRecord {
                pred: "translate".into(),
                inputs: vec!["a".into()],
                outputs: vec!["A".into()],
                worker: Some(1),
            },
            AnswerRecord {
                pred: "sentence".into(), // not an open predicate
                inputs: vec!["x".into()],
                outputs: vec![],
                worker: None,
            },
        ];
        let err = e.answer_batch(&answers).unwrap_err();
        assert!(err.to_string().contains("answer 2 of 2"));
        // Nothing was applied: the valid first answer did not land either.
        assert_eq!(e.fact_count("translate").unwrap(), 0);
        assert_eq!(e.points_of(1), 0);
        assert_eq!(e.pending_requests().len(), 1);
    }

    #[test]
    fn answer_batch_counts_duplicates_and_skips_their_points() {
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["a".into()]).unwrap();
        e.run().unwrap();
        let rec = AnswerRecord {
            pred: "translate".into(),
            inputs: vec!["a".into()],
            outputs: vec!["A".into()],
            worker: Some(7),
        };
        let outcome = e.answer_batch(&[rec.clone(), rec]).unwrap();
        assert_eq!(outcome.fresh, 1);
        assert_eq!(outcome.duplicates, 1);
        assert_eq!(e.points_of(7), 3);
    }

    /// An answer retires its question from the pending view at once; the
    /// queue underneath is compacted only by the answer that leaves answered
    /// entries in the majority, and a `run` never walks it.
    #[test]
    fn pending_compacts_eagerly_when_half_answered() {
        let mut e = CylogEngine::from_source(
            "rel item(x: int).\nopen judge(x: int) -> (ok: bool) points 1.\n\
             rel good(x: int).\ngood(X) :- item(X), judge(X, OK), OK = true.\n",
        )
        .unwrap();
        let live = |e: &CylogEngine| -> Vec<i64> {
            e.pending_requests()
                .iter()
                .map(|r| r.inputs[0].as_int().unwrap())
                .collect()
        };
        for i in 0..8 {
            e.add_fact("item", vec![Value::Int(i)]).unwrap();
        }
        e.run().unwrap();
        assert_eq!(e.pending_requests().len(), 8);
        assert_eq!(e.compaction_count(), 0);
        // Answer four: answered == live, not yet a majority → no compaction,
        // but the view already leaves the answered questions out.
        for i in 0..4 {
            e.answer("judge", vec![Value::Int(i)], vec![true.into()], None)
                .unwrap();
        }
        assert_eq!(e.compaction_count(), 0);
        assert_eq!(e.pending_requests().len(), 4);
        assert_eq!(live(&e), vec![4, 5, 6, 7]);
        // A run leaves the queue alone.
        e.run().unwrap();
        assert_eq!(e.compaction_count(), 0);
        assert_eq!(e.pending_walked(), 0);
        assert_eq!(live(&e), vec![4, 5, 6, 7]);
        // The fifth answer tips the majority: compaction happens without a
        // `run`, walking the eight queued entries once.
        e.answer("judge", vec![Value::Int(4)], vec![true.into()], None)
            .unwrap();
        assert_eq!(e.compaction_count(), 1);
        assert_eq!(e.pending_walked(), 8);
        assert_eq!(e.pending_requests().len(), 3);
        assert_eq!(live(&e), vec![5, 6, 7]);
    }

    /// The hand-off yields each demand once, skips the ones answered
    /// before it, and keeps its place when the queue is compacted.
    #[test]
    fn take_new_requests_hands_each_live_demand_off_once() {
        const JUDGE: &str = "rel item(x: int).\n\
             open judge(x: int) -> (ok: bool) points 1.\n\
             rel good(x: int).\ngood(X) :- item(X), judge(X, OK), OK = true.\n";
        let taken = |e: &mut CylogEngine| -> Vec<i64> {
            e.take_new_requests()
                .map(|r| r.inputs[0].as_int().unwrap())
                .collect()
        };
        let mut e = CylogEngine::from_source(JUDGE).unwrap();
        for i in 1..=4 {
            e.add_fact("item", vec![Value::Int(i)]).unwrap();
        }
        e.run().unwrap();
        // Answered between the run and the hand-off: never handed over.
        e.answer("judge", vec![Value::Int(2)], vec![true.into()], None)
            .unwrap();
        assert_eq!(taken(&mut e), vec![1, 3, 4]);
        assert_eq!(taken(&mut e), Vec::<i64>::new());
        // Two more answers tip the eager compaction: the queue shrinks to
        // [4] underneath the cursor, which must still sit at its end.
        for i in [1, 3] {
            e.answer("judge", vec![Value::Int(i)], vec![true.into()], None)
                .unwrap();
        }
        assert_eq!(e.compaction_count(), 1);
        assert_eq!(e.pending_requests().len(), 1);
        e.add_fact("item", vec![Value::Int(5)]).unwrap();
        e.run().unwrap();
        assert_eq!(taken(&mut e), vec![5]);
        assert_eq!(e.pending_requests().len(), 2);
    }

    /// Pin the `firings` semantics (candidate rows enumerated at positive
    /// body literals — see the crate docs) on the two incremental
    /// dispatch paths: a **delta-seeded** stratum enumerates only the rows
    /// inserted since the previous fixpoint, while a **rebuilt** stratum
    /// (reached by a change through negation) re-enumerates its full
    /// input. Exact counts are asserted so any change to what the counter
    /// measures fails loudly here instead of silently skewing telemetry.
    #[test]
    fn firings_count_candidates_on_delta_seeded_vs_rebuilt_strata() {
        const SRC: &str = "rel item(x: int).\nrel cand(x: int).\n\
             rel seen(x: int).\nrel fresh(x: int).\n\
             seen(X) :- item(X).\nfresh(X) :- cand(X), not seen(X).\n";
        let mut e = CylogEngine::from_source(SRC).unwrap();
        e.add_fact("item", vec![Value::Int(1)]).unwrap();
        e.add_fact("cand", vec![Value::Int(1)]).unwrap();
        e.add_fact("cand", vec![Value::Int(2)]).unwrap();
        let full = e.run().unwrap(); // first run is always a full recompute
        assert_eq!(full.recomputes, 1);
        assert_eq!(e.fact_count("fresh").unwrap(), 1); // fresh = {2}

        // Growth reaching `fresh` only through the negated `seen`: the
        // `seen` stratum takes the delta path, the `fresh` stratum must
        // rebuild (its result shrinks, which deltas cannot express).
        e.add_fact("item", vec![Value::Int(2)]).unwrap();
        let inc = e.run().unwrap();
        assert_eq!(inc.recomputes, 0);
        assert_eq!(inc.delta_seeded, 1); // the one new `item` row
        assert_eq!(inc.strata_recomputed, 1); // the `fresh` stratum
                                              // Delta-seeded `seen` enumerates the 1 delta row; rebuilt `fresh`
                                              // re-enumerates both `cand` rows: 1 + 2.
        assert_eq!(inc.firings, 3);
        assert_eq!(e.fact_count("fresh").unwrap(), 0); // shrank correctly
    }

    #[test]
    fn points_default_zero_and_stats_accumulate() {
        let e = CylogEngine::from_source(TRANSLATE).unwrap();
        assert_eq!(e.points_of(99), 0);
        assert!(e.leaderboard().is_empty());
        let mut e = CylogEngine::from_source(TRANSLATE).unwrap();
        e.add_fact("sentence", vec!["s".into()]).unwrap();
        e.run().unwrap();
        let s1 = e.cumulative_stats();
        e.run().unwrap();
        let s2 = e.cumulative_stats();
        assert!(s2.rounds >= s1.rounds);
    }
}
