//! # engine — the single front door for certain-answer evaluation
//!
//! The paper's "how to fix it" message is a dispatch rule: **classify the
//! query, then use naïve evaluation where it is provably exact** (UCQs under
//! OWA and CWA, `RA_cwa` under CWA — Section 6) **and fall back to more
//! expensive or explicitly approximate machinery elsewhere**. This crate is
//! that rule as an API. Instead of hand-picking among `eval_naive`,
//! `eval_3vl`, `certain_answer_worlds`, … at every call site, callers say:
//!
//! ```
//! use engine::{Engine, Guarantee, StrategyKind};
//! use relmodel::builder::orders_and_payments_example;
//! use relmodel::Semantics;
//!
//! let db = orders_and_payments_example();
//! let report = Engine::new(&db)
//!     .semantics(Semantics::Cwa)
//!     .plan_text("project[#0](Order)")
//!     .unwrap();
//! assert_eq!(report.strategy, StrategyKind::NaiveExact);
//! assert_eq!(report.guarantee, Guarantee::Exact);
//! assert_eq!(report.answers.len(), 2);
//! ```
//!
//! and get back a [`CertainReport`]: the answers **plus** the strategy that
//! produced them, the query's class, the guarantee the answers carry
//! (exact / sound / complete / none), and per-phase timing. SQL's silent
//! wrong answers — the failure gallery of the paper's introduction — become
//! an explicitly requested baseline ([`Engine::baseline_3vl`]) whose report
//! says `no-guarantee` out loud.
//!
//! ## Dispatch rule
//!
//! | class      | semantics | default strategy        | guarantee |
//! |------------|-----------|-------------------------|-----------|
//! | positive   | OWA / CWA | naïve evaluation        | exact     |
//! | `RA_cwa`   | CWA       | naïve evaluation        | exact     |
//! | `RA_cwa`   | OWA       | naïve evaluation        | complete  |
//! | full RA    | CWA       | symbolic c-tables       | exact     |
//! | full RA    | OWA       | certain⁺ pair evaluation| none      |
//!
//! The symbolic strategy ([`releval::symbolic`]) evaluates the query with
//! the Imieliński–Lipski c-table algebra and extracts certain answers with
//! a certainty solver — exact under CWA for *every* class, polynomial per
//! output tuple, no world enumerated: membership is decided per candidate
//! by a DPLL-style search over the conditions' (dis)equalities. It punts
//! explicitly (null-bearing `Values` literals; the solver's decision
//! budget, [`EngineOptions::with_max_decisions`]), in which case the
//! engine falls back to the streaming world oracle within the `max_nulls` /
//! `max_worlds` budget and then to certain⁺ pair evaluation, recording the
//! reason in [`EngineStats::fallback`]. (`certain⁺` is [`releval::approx`]:
//! under/over-approximating pair evaluation with null unification —
//! polynomial, and sound under CWA where exact certain answers are
//! coNP-hard.)
//!
//! Every row of this table, the analyzer's upgrades and the consistent-answer
//! rows below included, is one pure function in the `dispatch` module: from
//! the class, the semantics, the analyzer's root facts, the null count, the
//! conflict-graph facts and the options to an ordered chain of at most three
//! steps, each with its strategy, its guarantee and the fallback reason that
//! put it there. The engine walks the chain. A punt or an aborted repair
//! fold hands over to the next step; a forced strategy
//! ([`Engine::plan_with`]) is a one-step chain, so there it is a typed
//! error. The world step's budget, `nulls ≤ max_nulls ∧ estimate ≤
//! max_worlds`, is the table's one guard, checked when the walk reaches the
//! step — a symbolic request never pays for the world-count estimate unless
//! it punts.
//!
//! ## Consistent query answering
//!
//! Inconsistency is incompleteness's twin: a database violating its
//! schema's integrity constraints denotes the set of its subset-minimal
//! *repairs*, and [`Semantics::ConsistentAnswers`] asks for what survives
//! every repair (each repair read under CWA for its nulls). The dispatch
//! rule has the same classify-and-degrade shape as everything above:
//!
//! * **no violations** — the database's only repair is itself: delegate to
//!   the certain-answer pipeline wholesale (same strategies, same
//!   guarantees);
//! * **violations, small conflict graph** — stream the subset-minimal
//!   repairs ([`StrategyKind::RepairEnumeration`], budget = repairs
//!   visited, early exit on ∅) and intersect exact per-repair certain
//!   answers: `Exact`;
//! * **otherwise** — evaluate once over the repair interval `[conflict-free
//!   core, db − doomed]` with the certain⁺ pair executor
//!   ([`StrategyKind::ConflictFreeCore`]): polynomial, `Sound` for every
//!   class, with the blown budget recorded in [`EngineStats::fallback`]
//!   exactly like a symbolic punt.
//!
//! In [`EngineOptions::exhaustive`] mode the remaining non-exact rows
//! upgrade to possible-world enumeration while the database fits the
//! `max_nulls` / `max_worlds` budget, and degrade back to the table above —
//! with [`EngineStats::degraded`] set — when it does not. The planner is
//! therefore never *accidentally* exponential. Enumeration is `exact` under
//! CWA, where the worlds *are* `[[D]]_cwa`; under OWA only finitely many of
//! the infinitely many supersets can be visited, so for non-monotone classes
//! the enumerated intersection is an over-approximation and is reported as
//! `complete`, not `exact`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod dispatch;
mod options;
mod report;
mod semantics;

pub use context::DbContext;
pub use options::EngineOptions;
pub use report::{
    AnalysisReport, AnalyzerStats, CertainReport, EngineStats, ExplainAnalyze, FallbackReason,
    Guarantee, RepairAbort, StrategyKind,
};
pub use semantics::Semantics;

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relalgebra::analysis::{self, Analysis};
use relalgebra::ast::RaExpr;
use relalgebra::classify::QueryClass;
use relalgebra::plan::PlannedQuery;
use relalgebra::typecheck::{check_depth, TypeError};
use releval::exec::columnar::approx::execute_approx_counted_over;
use releval::exec::columnar::{execute_counted_over, execute_profiled_over};
use releval::exec::{NodeProfile, OpStats};
use releval::fold::ShardProfile;
use releval::split::inline_ground_subtrees;
use releval::symbolic::{symbolic_certain_answer, SymbolicOutcome};
use releval::three_valued::eval_3vl_unchecked;
use releval::worlds::{estimated_world_count, stream_certain_answer};
use releval::EvalError;
use relmodel::{Database, Relation};
use repairs::{core_consistent_answer, stream_consistent_answer, ConflictGraph, RepairError};

use dispatch::{Conflicts, Dispatch, Input, Step};

/// Errors from the engine front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A textual query failed to parse or typecheck.
    Text(qparser::PlanTextError),
    /// An expression failed to typecheck against the database schema.
    Type(TypeError),
    /// The selected strategy failed (world budget, incomplete input, …).
    Eval(EvalError),
    /// A forced repair enumeration failed (repair budget, per-repair world
    /// budget); the planner-chosen path degrades instead of erring.
    Repair(RepairError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Text(e) => write!(f, "{e}"),
            EngineError::Type(e) => write!(f, "type error: {e}"),
            EngineError::Eval(e) => write!(f, "evaluation error: {e}"),
            EngineError::Repair(e) => write!(f, "consistent-answer error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RepairError> for EngineError {
    fn from(e: RepairError) -> Self {
        EngineError::Repair(e)
    }
}

impl From<qparser::PlanTextError> for EngineError {
    fn from(e: qparser::PlanTextError) -> Self {
        EngineError::Text(e)
    }
}

impl From<TypeError> for EngineError {
    fn from(e: TypeError) -> Self {
        EngineError::Type(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

/// The classify-and-dispatch evaluation engine over one database.
///
/// The engine is generic over *how it holds* the database: any
/// `Borrow<Database>` works, so a borrow-scoped `Engine::new(&db)` and a
/// long-lived `Engine::over(Arc<Database>)` run the identical dispatch. The
/// precomputed per-database facts (null count, census, lazy conflict graph)
/// live in an [`Arc<DbContext>`] so a snapshot-owning service can build the
/// context once and hand it to every request-scoped engine via
/// [`Engine::with_context`] — N queries on one snapshot then measure the
/// database once and build the conflict graph exactly once.
///
/// Construction via [`Engine::new`]/[`Engine::over`] measures the database
/// (one linear scan); via [`Engine::with_context`] it is free, and the
/// engine reuses every batch the context's earlier queries transposed.
/// Configure by chaining [`Engine::semantics`] and [`Engine::options`].
#[derive(Debug, Clone)]
pub struct Engine<D: Borrow<Database> = Database> {
    db: D,
    semantics: Semantics,
    options: EngineOptions,
    /// The precomputed dispatch facts for `db` — owned alone by this engine
    /// when self-measured, shared with a snapshot when injected.
    ctx: Arc<DbContext>,
}

impl<'db> Engine<&'db Database> {
    /// An engine borrowing `db`, defaulting to CWA semantics and the
    /// conservative default [`EngineOptions`] — the one-shot front door.
    pub fn new(db: &'db Database) -> Self {
        Engine::over(db)
    }
}

impl<D: Borrow<Database>> Engine<D> {
    /// An engine over any owned or borrowed database handle (`&Database`,
    /// `Database`, `Arc<Database>`, …), measuring its dispatch context
    /// itself.
    pub fn over(db: D) -> Self {
        let ctx = Arc::new(DbContext::of(db.borrow()));
        Engine::with_context(db, ctx)
    }

    /// An engine over `db` reusing an already measured [`DbContext`].
    /// Construction does no database work at all — this is the request path
    /// of a snapshot-owning service. `ctx` **must** have been measured from
    /// this same database; a mismatched context silently mis-dispatches
    /// (wrong census, stale conflict graph), so the pairing is the caller's
    /// contract (a cheap invariant is debug-asserted).
    pub fn with_context(db: D, ctx: Arc<DbContext>) -> Self {
        debug_assert_eq!(
            ctx.nulls(),
            db.borrow().null_ids().len(),
            "DbContext must be measured from the engine's own database"
        );
        Engine {
            db,
            semantics: Semantics::Cwa,
            options: EngineOptions::default(),
            ctx,
        }
    }

    /// The database behind whatever handle the engine holds.
    fn db(&self) -> &Database {
        self.db.borrow()
    }

    /// The precomputed dispatch context (shared, when the engine was built
    /// with [`Engine::with_context`]).
    pub fn context(&self) -> &Arc<DbContext> {
        &self.ctx
    }

    /// The morsel size the columnar executors run under: the explicit
    /// [`EngineOptions::morsel_rows`] when set, else the environment seed
    /// (re-read per call — services pin it explicitly instead).
    fn morsel(&self) -> usize {
        self.options
            .morsel_rows
            .unwrap_or_else(relmodel::batch::morsel_rows)
    }

    /// Naive evaluation on the columnar core, every scan read from the
    /// context's per-relation batches.
    fn execute_naive(&self, plan: &PlannedQuery) -> (Relation, OpStats) {
        execute_counted_over(
            plan.physical(),
            self.db(),
            self.ctx.batches(),
            self.morsel(),
        )
    }

    /// The cached conflict hypergraph; `None` when the schema declares no
    /// constraints.
    fn conflict_graph(&self) -> Option<&ConflictGraph> {
        self.ctx.conflict_graph(self.db())
    }

    /// Selects the semantics queries are answered under. Accepts the base
    /// [`relmodel::Semantics`] (CWA / OWA certain answers) or the engine's
    /// own [`Semantics`] (adding [`Semantics::ConsistentAnswers`]).
    pub fn semantics(mut self, semantics: impl Into<Semantics>) -> Self {
        self.semantics = semantics.into();
        self
    }

    /// Shorthand for `semantics(Semantics::ConsistentAnswers)`: answer with
    /// what survives every subset-minimal repair of the database.
    pub fn consistent_answers(self) -> Self {
        self.semantics(Semantics::ConsistentAnswers)
    }

    /// The possible-world semantics strategy execution reads nulls under
    /// (consistent answering evaluates each repair under CWA).
    fn base(&self) -> relmodel::Semantics {
        self.semantics.base()
    }

    /// Replaces the planner options.
    pub fn options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// The database the engine answers over.
    pub fn database(&self) -> &Database {
        self.db()
    }

    /// Classifies, dispatches, executes, and reports on `query`.
    pub fn plan(&self, query: &RaExpr) -> Result<CertainReport, EngineError> {
        let started = Instant::now();
        let plan = self.typecheck(query)?;
        self.finish(plan, started)
    }

    /// [`Engine::plan`] for textual queries: parse, typecheck, classify,
    /// dispatch, execute — one call from text to guaranteed answers.
    pub fn plan_text(&self, query: &str) -> Result<CertainReport, EngineError> {
        let started = Instant::now();
        let plan = qparser::parse_and_plan(query, self.db().schema())?;
        self.finish(plan, started)
    }

    /// [`Engine::plan`] for a query that is already typechecked against this
    /// database's schema.
    pub fn plan_prepared(&self, plan: &PlannedQuery) -> Result<CertainReport, EngineError> {
        let started = Instant::now();
        self.finish(plan.clone(), started)
    }

    /// Executes `query` with a caller-chosen strategy instead of the
    /// planner's choice. The report's guarantee is still computed honestly
    /// for the query's class — forcing [`StrategyKind::NaiveExact`] on a full
    /// RA query yields `no-guarantee`, not `exact`. A forced strategy has
    /// nothing to fall back to, so a punt or a blown budget is an error.
    pub fn plan_with(
        &self,
        strategy: StrategyKind,
        query: &RaExpr,
    ) -> Result<CertainReport, EngineError> {
        let started = Instant::now();
        let plan = self.typecheck(query)?;
        let dispatch = dispatch::forced(strategy, plan.class(), self.semantics);
        // Forced dispatch skips the analyzer, so there is no dispatch phase
        // to time inside the plan span.
        self.walk(&dispatch, &plan, &plan, started, None)
    }

    /// The paper's "what SQL does" baseline through the front door: evaluates
    /// under three-valued logic and reports it as such, with no guarantee.
    pub fn baseline_3vl(&self, query: &RaExpr) -> Result<CertainReport, EngineError> {
        self.plan_with(StrategyKind::ThreeValuedBaseline, query)
    }

    /// Possible-world ground truth through the front door (subject to the
    /// engine's world budget — errs rather than degrading, since the caller
    /// asked for the truth and nothing else).
    pub fn ground_truth(&self, query: &RaExpr) -> Result<CertainReport, EngineError> {
        self.plan_with(StrategyKind::WorldsGroundTruth, query)
    }

    /// The planner's decision for a query of the given class over this
    /// database, without executing anything: which strategy would run, and
    /// what guarantee the answer would carry. A query deeper than
    /// [`MAX_DEPTH`](relalgebra::ast::MAX_DEPTH), which every door that
    /// executes refuses, previews as the three-valued baseline with no
    /// guarantee, without being analyzed.
    pub fn select_strategy(&self, query: &RaExpr, class: QueryClass) -> (StrategyKind, Guarantee) {
        if let Some(refused) = too_deep_preview(query) {
            return refused;
        }
        let (_, step) = self.preview(query, class);
        (step.strategy, step.guarantee)
    }

    /// Statically analyzes `query` against this engine's database — no
    /// execution. The report carries the analyzer's root facts, the
    /// dispatch the planner *would* take (strategy and guarantee, identical
    /// to [`Engine::select_strategy`]), the lint diagnostics (`QL…` codes),
    /// and an annotated plan rendering.
    pub fn analyze(&self, query: &RaExpr) -> Result<AnalysisReport, EngineError> {
        let plan = self.typecheck(query)?;
        Ok(self.analysis_report(&plan))
    }

    /// [`Engine::analyze`] for textual queries.
    pub fn analyze_text(&self, query: &str) -> Result<AnalysisReport, EngineError> {
        let plan = qparser::parse_and_plan(query, self.db().schema())?;
        Ok(self.analysis_report(&plan))
    }

    fn analysis_report(&self, plan: &PlannedQuery) -> AnalysisReport {
        let census = self.ctx.census();
        let (analysis, step) = self.preview(plan.expr(), plan.class());
        let facts = analysis.root().clone();
        AnalysisReport {
            class: plan.class(),
            certainty_preserving: facts.certainty_preserving(self.base()),
            facts,
            strategy: step.strategy,
            guarantee: step.guarantee,
            diagnostics: analysis::lint(plan.expr(), census, Some(self.db().schema())),
            annotated: analysis::annotate(plan.expr(), census),
        }
    }

    /// Typechecks `query` against this database's schema. The depth bound
    /// is checked first, because cloning the query recurses.
    fn typecheck(&self, query: &RaExpr) -> Result<PlannedQuery, EngineError> {
        check_depth(query)?;
        Ok(PlannedQuery::new(query.clone(), self.db().schema())?)
    }

    /// The dispatch table's decision for a query of `class` with the given
    /// analysis, over this engine's database and options. `plan` yields the
    /// planned query, and is called only when the factorized repair count
    /// is read.
    fn dispatch(
        &self,
        class: QueryClass,
        analysis: &Analysis,
        plan: &dyn Fn() -> Option<PlannedQuery>,
    ) -> Dispatch {
        // Only consistent answering reads the conflict graph, which is
        // built on first use.
        let graph = self
            .semantics
            .is_consistent_answers()
            .then(|| self.conflict_graph());
        let conflicts = graph
            .flatten()
            .filter(|g| !g.is_conflict_free())
            .map(|g| Conflicts::of(g, self.db(), &self.options.repair_options, plan));
        dispatch::dispatch(&Input {
            class,
            semantics: self.semantics,
            facts: analysis.root(),
            inlinable: analysis.has_inlinable_subtree(),
            nulls: self.ctx.nulls(),
            conflicts,
            options: &self.options,
        })
    }

    /// The first step at or after `index` whose world guard, if any, admits
    /// `expr`, and the world estimate when a guard was checked. A guarded
    /// step is never a chain's last.
    fn admit(&self, steps: &[Step], mut index: usize, expr: &RaExpr) -> (usize, Option<u128>) {
        let mut estimate = None;
        while let Some(guard) = steps[index].guard {
            let worlds = estimated_world_count(expr, self.db(), &self.options.world_options);
            estimate = Some(worlds);
            if guard.admits(worlds) {
                break;
            }
            index += 1;
        }
        (index, estimate)
    }

    /// The analysis of `query`, and the step its dispatch answers at unless
    /// it punts or aborts at run time: what the previews report.
    fn preview(&self, query: &RaExpr, class: QueryClass) -> (Analysis, Step) {
        let analysis = analysis::analyze(query, self.ctx.census());
        let plan = || PlannedQuery::new(query.clone(), self.db().schema()).ok();
        let chain = self.dispatch(class, &analysis, &plan).chain;
        let step = chain[self.admit(&chain, 0, query).0];
        (analysis, step)
    }

    fn finish(&self, plan: PlannedQuery, started: Instant) -> Result<CertainReport, EngineError> {
        // Tracing disabled costs exactly this branch: no timers start, no
        // spans allocate anywhere below.
        let decide_started = self.options.trace.then(Instant::now);
        let analysis = analysis::analyze(plan.expr(), self.ctx.census());
        let mut dispatch = self.dispatch(plan.class(), &analysis, &|| Some(plan.clone()));
        let dispatch_time = decide_started.map(|t| t.elapsed());
        // Subtree inlining is preparation work, so it counts toward the
        // plan phase, not strategy execution.
        let reduced = dispatch
            .split
            .then(|| self.inline_ground(&plan, &mut dispatch.analyzer))
            .flatten();
        let executed = reduced.as_ref().unwrap_or(&plan);
        self.walk(&dispatch, &plan, executed, started, dispatch_time)
    }

    /// Performs a split dispatch's subtree split: evaluates the maximal
    /// ground proper subtrees plainly, inlines them as complete literals,
    /// and re-plans the reduced query (`None` when nothing was inlined).
    /// The dispatch is **not** revisited — it was already taken on the
    /// analyzer's split class, so preview ([`Engine::select_strategy`]) and
    /// execution always agree.
    fn inline_ground(
        &self,
        plan: &PlannedQuery,
        analyzer: &mut Option<AnalyzerStats>,
    ) -> Option<PlannedQuery> {
        let outcome = inline_ground_subtrees(plan.expr(), self.db(), self.ctx.census());
        if outcome.inlined == 0 {
            return None;
        }
        // Defensive: a subtree of a typechecked query re-plans cleanly; if
        // it ever did not, run the original plan unchanged.
        let reduced = PlannedQuery::new(outcome.expr, self.db().schema()).ok()?;
        if let Some(analyzer) = analyzer {
            analyzer.inlined_subtrees = outcome.inlined;
        }
        Some(reduced)
    }

    /// Walks a dispatch's chain over `executed` — the `dispatched` plan, or
    /// its reduction after a subtree split — and assembles the report. A
    /// punt or an abort hands over to the next step, which reports the
    /// cause; any other failure, or a punt or abort with no step left, is
    /// the caller's error. A leading world step is guarded on the query as
    /// dispatched, like the rest of the dispatch; a later one on the plan
    /// that punted.
    fn walk(
        &self,
        dispatch: &Dispatch,
        dispatched: &PlannedQuery,
        executed: &PlannedQuery,
        started: Instant,
        dispatch_time: Option<Duration>,
    ) -> Result<CertainReport, EngineError> {
        let plan_time = started.elapsed();
        let steps = &dispatch.chain;
        let mut cause = None;
        let (mut index, mut estimated_worlds) = self.admit(steps, 0, dispatched.expr());
        let (step, run) = loop {
            let step = steps[index];
            match self.run(step.strategy, executed) {
                Ok(run) => break (step, run),
                Err(e) => match fallback_reason(&e) {
                    Some(reason) if index + 1 < steps.len() => {
                        cause = Some(reason);
                        let (next, estimate) = self.admit(steps, index + 1, executed.expr());
                        (index, estimated_worlds) = (next, estimate.or(estimated_worlds));
                    }
                    _ => return Err(e),
                },
            }
        };
        let total_time = started.elapsed();
        let mut stats = EngineStats {
            plan_time,
            execute_time: total_time - plan_time,
            total_time,
            nulls: self.ctx.nulls(),
            estimated_worlds,
            degraded: step.degraded,
            fallback: cause.or(step.fallback),
            violations: dispatch.violations,
            conflict_tuples: dispatch.conflict_tuples,
            estimated_repairs: dispatch.estimated_repairs,
            plan_text: executed.physical().explain(),
            analyzer: dispatch.analyzer,
            ..run.stats
        };
        if self.options.trace {
            stats.trace = Some(trace(
                &stats,
                step.strategy,
                run.time,
                &run.shards,
                dispatch_time,
            ));
        }
        Ok(CertainReport {
            answers: run.answers,
            object_answer: run.object_answer,
            strategy: step.strategy,
            guarantee: step.guarantee,
            class: dispatched.class(),
            semantics: self.semantics,
            stats,
        })
    }

    /// Runs one strategy over `plan`: its answers, and the counters it
    /// fills into [`EngineStats`].
    fn run(&self, strategy: StrategyKind, plan: &PlannedQuery) -> Result<Run, EngineError> {
        let started = Instant::now();
        let mut stats = EngineStats::default();
        let mut shards = Vec::new();
        // The repair strategies run against the cached conflict graph, or
        // (forced on a constraint-free schema) the empty graph, whose single
        // repair is the database.
        let empty_graph = ConflictGraph::default();
        let graph = || self.conflict_graph().unwrap_or(&empty_graph);
        let (answers, object_answer) = match strategy {
            StrategyKind::NaiveExact => {
                let (object, ops) = self.execute_naive(plan);
                stats.physical_ops = Some(ops);
                (object.complete_part(), Some(object))
            }
            StrategyKind::SymbolicCTable => {
                let exec = match symbolic_certain_answer(
                    plan,
                    self.db(),
                    &self.options.symbolic_options,
                ) {
                    SymbolicOutcome::Answered(exec) => exec,
                    SymbolicOutcome::Punted(reason) => {
                        return Err(EvalError::SymbolicPunt(reason).into())
                    }
                };
                stats.condition_atoms = Some(exec.condition_atoms);
                stats.solver_calls = Some(exec.solver_calls);
                stats.simplification_wins = Some(exec.simplification_wins);
                stats.solver_decisions = Some(exec.solver_decisions);
                stats.physical_ops = Some(exec.op_stats);
                (exec.answers, None)
            }
            StrategyKind::WorldsGroundTruth => {
                let exec = stream_certain_answer(
                    plan,
                    self.db(),
                    self.base(),
                    &self.options.world_options,
                )?;
                stats.worlds_enumerated = Some(exec.worlds_visited);
                stats.worlds_batched = Some(exec.worlds_batched);
                stats.world_early_exit = exec.early_exit;
                stats.world_threads = Some(exec.threads);
                stats.peak_worlds_in_flight = Some(exec.peak_worlds_in_flight);
                stats.physical_ops = Some(exec.op_stats);
                shards = exec.shards;
                (exec.answers, None)
            }
            StrategyKind::RepairEnumeration => {
                let exec = stream_consistent_answer(
                    plan,
                    self.db(),
                    graph(),
                    &self.options.repair_options,
                )?;
                stats.repairs_enumerated = Some(exec.repairs_visited);
                stats.repairs_batched = Some(exec.repairs_batched);
                stats.repair_early_exit = exec.early_exit;
                stats.physical_ops = Some(exec.op_stats);
                shards = exec.shards;
                (exec.answers, None)
            }
            StrategyKind::ConflictFreeCore => {
                let exec = core_consistent_answer(plan, self.db(), graph());
                stats.physical_ops = Some(exec.op_stats);
                (exec.answers, Some(exec.pair.certain))
            }
            StrategyKind::ThreeValuedBaseline => {
                let raw = eval_3vl_unchecked(plan.expr(), self.db());
                (raw.complete_part(), Some(raw))
            }
            StrategyKind::SoundApproximation => {
                if plan.class() == QueryClass::RaCwa && self.base() == relmodel::Semantics::Owa {
                    // Naïve evaluation computes the CWA certain answer for
                    // RA_cwa (Section 6.2), which contains the OWA one: a
                    // provable over-approximation, reported as `complete`.
                    let (naive, ops) = self.execute_naive(plan);
                    stats.physical_ops = Some(ops);
                    (naive.complete_part(), Some(naive))
                } else {
                    // Pair evaluation: the certain⁺ under-approximation.
                    let (approx, ops) = execute_approx_counted_over(
                        plan.physical(),
                        self.db(),
                        self.ctx.batches(),
                        self.morsel(),
                    );
                    stats.physical_ops = Some(ops);
                    (approx.certain.complete_part(), Some(approx.certain))
                }
            }
        };
        Ok(Run {
            answers,
            object_answer,
            stats,
            shards,
            time: started.elapsed(),
        })
    }

    /// `EXPLAIN ANALYZE`: lowers the query, runs it once through the
    /// profiled columnar executor, and returns the plan annotated with
    /// measured per-node rows, batches, table reuse, and inclusive
    /// wall-clock (Postgres-style: a parent's time covers its children's,
    /// so the root's time is the whole execution).
    ///
    /// The measured run is the shared ground physical core — the executor
    /// behind [`StrategyKind::NaiveExact`] and the naïve branch of
    /// [`StrategyKind::SoundApproximation`] — regardless of what the
    /// planner would dispatch this query to; it answers "where does the
    /// plan spend its time", not "what is the certain answer".
    pub fn explain_analyze(&self, query: &RaExpr) -> Result<ExplainAnalyze, EngineError> {
        let plan = self.typecheck(query)?;
        Ok(self.explain_analyze_prepared(&plan))
    }

    /// [`Engine::explain_analyze`] for textual queries.
    pub fn explain_analyze_text(&self, query: &str) -> Result<ExplainAnalyze, EngineError> {
        let plan = qparser::parse_and_plan(query, self.db().schema())?;
        Ok(self.explain_analyze_prepared(&plan))
    }

    /// [`Engine::explain_analyze`] for an already-planned query.
    pub fn explain_analyze_prepared(&self, plan: &PlannedQuery) -> ExplainAnalyze {
        let execute_started = Instant::now();
        let (answers, op_stats, profiles) = execute_profiled_over(
            plan.physical(),
            self.db(),
            self.ctx.batches(),
            self.morsel(),
        );
        let execute_time = execute_started.elapsed();
        let by_id: HashMap<u32, &NodeProfile> = profiles.iter().map(|p| (p.id, p)).collect();
        let mut annotated = plan.physical().explain_annotated(&mut |node| {
            by_id.get(&node.id()).map(|p| {
                format!(
                    "(rows={}, batches={}, tables_reused={}, time={:?})",
                    p.rows,
                    p.batches,
                    p.tables_reused,
                    Duration::from_nanos(p.nanos)
                )
            })
        });
        let footer = format!(
            "execute {:?} · {} answer row(s)\n{}",
            execute_time,
            answers.len(),
            op_stats.summary()
        );
        for line in footer.lines() {
            annotated.push_str("-- ");
            annotated.push_str(line);
            annotated.push('\n');
        }
        ExplainAnalyze {
            annotated,
            profiles,
            op_stats,
            execute_time,
            rows: answers.len(),
        }
    }
}

/// The preview of a query too deep to analyze (its walk would recurse
/// past the stack): the step promising nothing. `None` for any other query.
fn too_deep_preview(query: &RaExpr) -> Option<(StrategyKind, Guarantee)> {
    check_depth(query)
        .is_err()
        .then_some((StrategyKind::ThreeValuedBaseline, Guarantee::NoGuarantee))
}

/// Saturating narrowing for trace fields (`u128` world/repair counters).
fn clamp_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// What one strategy run produced.
struct Run {
    answers: Relation,
    object_answer: Option<Relation>,
    /// The strategy's own counters; the walker fills in the rest.
    stats: EngineStats,
    /// Per-worker wall-clock of an enumeration fold, for the trace.
    shards: Vec<ShardProfile>,
    /// The run's wall-clock.
    time: Duration,
}

/// The reason the next step reports when a run's error hands over to it:
/// a symbolic punt or an aborted repair fold. Any other error ends the walk.
fn fallback_reason(e: &EngineError) -> Option<FallbackReason> {
    use RepairError::{BudgetExceeded, Eval as PerRepair};
    Some(match e.clone() {
        EngineError::Eval(EvalError::SymbolicPunt(punt)) => FallbackReason::Symbolic(punt),
        EngineError::Repair(e) => FallbackReason::RepairEnumerationAborted(match e {
            BudgetExceeded { repairs, budget } => RepairAbort::RepairBudget { repairs, budget },
            PerRepair(EvalError::WorldBudgetExceeded { worlds, budget }) => {
                RepairAbort::PerRepairWorldBudget { worlds, budget }
            }
            PerRepair(_) => RepairAbort::PerRepairEvaluation,
        }),
        _ => return None,
    })
}

/// The query's span tree, read from its finished stats: the plan phase
/// (with the analyze + dispatch slice, when timed) and the execute phase,
/// which holds the answering strategy's span — its counters as fields, one
/// child per enumeration-fold shard.
fn trace(
    stats: &EngineStats,
    strategy: StrategyKind,
    run_time: Duration,
    shards: &[ShardProfile],
    dispatch_time: Option<Duration>,
) -> obs::Span {
    let count = |n: Option<usize>| n.map(|n| n as u64);
    let worlds = stats
        .worlds_enumerated
        .map(|_| u64::from(stats.world_early_exit));
    let repairs = stats
        .repairs_enumerated
        .map(|_| u64::from(stats.repair_early_exit));
    let ops = |field: fn(&OpStats) -> usize| stats.physical_ops.as_ref().map(|o| field(o) as u64);
    let fields = [
        ("worlds_visited", stats.worlds_enumerated.map(clamp_u64)),
        ("worlds_batched", stats.worlds_batched.map(clamp_u64)),
        ("world_threads", count(stats.world_threads)),
        ("world_early_exit", worlds),
        ("condition_atoms", count(stats.condition_atoms)),
        ("solver_calls", count(stats.solver_calls)),
        ("simplification_wins", count(stats.simplification_wins)),
        ("solver_decisions", count(stats.solver_decisions)),
        ("repairs_visited", stats.repairs_enumerated.map(clamp_u64)),
        ("repairs_batched", stats.repairs_batched.map(clamp_u64)),
        ("repair_early_exit", repairs),
        ("operators", ops(|o| o.operators)),
        ("batches", ops(|o| o.batches)),
        ("tables_built", ops(|o| o.tables_built)),
        ("tables_reused", ops(|o| o.tables_reused)),
    ];
    let mut span = obs::Span::with_duration(strategy.name(), run_time);
    for (name, value) in fields {
        if let Some(value) = value {
            span.push_field(name, value);
        }
    }
    for (index, shard) in shards.iter().enumerate() {
        let mut child = obs::Span::with_duration("shard", Duration::from_nanos(shard.nanos));
        child.push_field("index", index as u64);
        child.push_field("units_batched", clamp_u64(shard.units));
        span.push_child(child);
    }
    let mut execute = obs::Span::with_duration("execute", stats.execute_time);
    execute.push_child(span);
    let mut plan = obs::Span::with_duration("plan", stats.plan_time);
    plan.push_field("nulls", stats.nulls as u64);
    if let Some(d) = dispatch_time {
        plan.push_child(obs::Span::with_duration("analyze+dispatch", d));
    }
    let mut root = obs::Span::with_duration("query", stats.total_time);
    root.push_child(plan);
    root.push_child(execute);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::builder::{difference_example, orders_and_payments_example};
    use relmodel::{DatabaseBuilder, Tuple, Value};

    #[test]
    fn positive_queries_dispatch_to_naive_exact() {
        let db = orders_and_payments_example();
        for semantics in [Semantics::Owa, Semantics::Cwa] {
            let report = Engine::new(&db)
                .semantics(semantics)
                .plan_text("project[#0](Order)")
                .unwrap();
            assert_eq!(report.strategy, StrategyKind::NaiveExact);
            assert_eq!(report.guarantee, Guarantee::Exact);
            assert_eq!(report.class, QueryClass::Positive);
            assert_eq!(report.answers.len(), 2);
            assert!(report.object_answer.is_some());
        }
    }

    #[test]
    fn division_is_exact_under_cwa_and_complete_under_owa() {
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .tuple("R", vec![Value::int(2), Value::null(0)])
            .ints("S", &[10])
            .ints("S", &[20])
            .build();
        let q = qparser::parse("R divide S").unwrap();
        let cwa = Engine::new(&db).plan(&q).unwrap();
        assert_eq!(cwa.strategy, StrategyKind::NaiveExact);
        assert_eq!(cwa.guarantee, Guarantee::Exact);
        assert!(cwa.answers.contains(&Tuple::ints(&[1])));

        let owa = Engine::new(&db).semantics(Semantics::Owa).plan(&q).unwrap();
        assert_eq!(owa.strategy, StrategyKind::SoundApproximation);
        assert_eq!(owa.guarantee, Guarantee::Complete);
    }

    #[test]
    fn full_ra_defaults_to_symbolic_exact_under_cwa() {
        let db = orders_and_payments_example();
        let report = Engine::new(&db)
            .plan_text("project[#0](Order) minus project[#1](Pay)")
            .unwrap();
        assert_eq!(report.class, QueryClass::FullRa);
        assert_eq!(report.strategy, StrategyKind::SymbolicCTable);
        assert_eq!(report.guarantee, Guarantee::Exact);
        // The certain answer here is ∅ — and symbolic evaluation proves it
        // without enumerating a single world.
        assert!(report.answers.is_empty());
        assert!(report.stats.solver_calls.is_some());
        assert!(report.stats.condition_atoms.unwrap() > 0);
        assert!(report.stats.worlds_enumerated.is_none());
        assert!(report.stats.fallback.is_none());
        // Disabling symbolic restores the pre-symbolic sound approximation.
        let approx = Engine::new(&db)
            .options(EngineOptions::default().without_symbolic())
            .plan_text("project[#0](Order) minus project[#1](Pay)")
            .unwrap();
        assert_eq!(approx.strategy, StrategyKind::SoundApproximation);
        assert_eq!(approx.guarantee, Guarantee::Sound);
        assert!(approx.answers.is_empty());
        let naive = Engine::new(&db)
            .plan_with(
                StrategyKind::NaiveExact,
                &qparser::parse("project[#0](Order) minus project[#1](Pay)").unwrap(),
            )
            .unwrap();
        assert_eq!(naive.object_answer.unwrap().len(), 2);
        assert_eq!(naive.guarantee, Guarantee::NoGuarantee);
    }

    #[test]
    fn null_values_literals_fall_back_with_a_reason() {
        // The classifier's counterexample: a literal ⊥0 joined against the
        // database ⊥0. Symbolic evaluation would conflate them, so the
        // planner must pass it over — explicitly.
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .build();
        let lit = RaExpr::values(relmodel::Relation::from_tuples(
            2,
            vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
        ));
        let q = RaExpr::relation("R")
            .product(lit)
            .select(relalgebra::predicate::Predicate::eq(
                relalgebra::predicate::Operand::col(1),
                relalgebra::predicate::Operand::col(2),
            ))
            .project(vec![0, 3]);
        let report = Engine::new(&db).plan(&q).unwrap();
        // Same fallback chain as a solver punt: the world oracle, since this
        // one null fits the budget — exact, with the reason on the report.
        assert_eq!(report.strategy, StrategyKind::WorldsGroundTruth);
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert_eq!(
            report.stats.fallback,
            Some(FallbackReason::Symbolic(
                releval::symbolic::PuntReason::NullValuesLiteral
            ))
        );
        assert!(report.answers.is_empty(), "certain answer is ∅ here");
        // Beyond the world budget the chain ends at the approximation,
        // explicitly degraded.
        let starved = Engine::new(&db)
            .options(EngineOptions::default().with_max_worlds(1))
            .plan(&q)
            .unwrap();
        assert_eq!(starved.strategy, StrategyKind::SoundApproximation);
        assert!(starved.stats.degraded);
        assert_eq!(
            starved.stats.fallback,
            Some(FallbackReason::Symbolic(
                releval::symbolic::PuntReason::NullValuesLiteral
            ))
        );
        // Forcing symbolic on the same query is a typed error, not a lie.
        let err = Engine::new(&db)
            .plan_with(StrategyKind::SymbolicCTable, &q)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Eval(EvalError::SymbolicPunt(
                releval::symbolic::PuntReason::NullValuesLiteral
            ))
        ));
    }

    #[test]
    fn solver_budget_punt_falls_back_to_worlds_with_a_reason() {
        // A nested difference tower leaves a disjunction propagation cannot
        // settle, so a zero-decision solver budget punts; the engine must
        // fall back to the (budgeted) world oracle and still answer
        // exactly, with the punt on the report.
        let db = difference_example();
        let q = qparser::parse("(R minus S) minus (S minus R)").unwrap();
        let report = Engine::new(&db)
            .options(EngineOptions::default().with_max_decisions(0))
            .plan(&q)
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::WorldsGroundTruth);
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert!(matches!(
            report.stats.fallback,
            Some(FallbackReason::Symbolic(
                releval::symbolic::PuntReason::SolverBudget { budget: 0 }
            ))
        ));
        assert!(report.stats.worlds_enumerated.is_some());
        // With the default budget the same query stays symbolic and agrees.
        let symbolic = Engine::new(&db).plan(&q).unwrap();
        assert_eq!(symbolic.strategy, StrategyKind::SymbolicCTable);
        assert!(symbolic.stats.solver_decisions.is_some_and(|d| d > 0));
        assert_eq!(symbolic.answers, report.answers);
    }

    #[test]
    fn exhaustive_mode_upgrades_to_ground_truth_within_budget() {
        let db = orders_and_payments_example();
        // Even in exhaustive mode the symbolic strategy answers first; rule
        // it out to exercise the enumeration path.
        let engine = Engine::new(&db).options(EngineOptions::exhaustive().without_symbolic());
        let report = engine
            .plan_text("project[#0](Order) minus project[#1](Pay)")
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::WorldsGroundTruth);
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert!(report.answers.is_empty());
        assert!(report.stats.worlds_enumerated.is_some());
        assert!(!report.stats.degraded);
    }

    #[test]
    fn budget_degrades_explicitly_instead_of_hanging() {
        let mut b = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"]);
        for i in 0..12u64 {
            b = b.tuple("S", vec![Value::null(i)]);
        }
        b = b.ints("R", &[1]);
        let db = b.build();
        let engine = Engine::new(&db).options(
            EngineOptions::exhaustive()
                .with_max_nulls(4)
                .without_symbolic(),
        );
        let report = engine.plan_text("R minus S").unwrap();
        assert_eq!(report.strategy, StrategyKind::SoundApproximation);
        assert!(report.stats.degraded);
        assert!(report.stats.estimated_worlds.unwrap() > 1_000_000);
        // The forced ground-truth path errs (rather than degrading) when the
        // streaming fold cannot converge within the visit budget: `R union S`
        // keeps the tuple (1) in every world's answer, so the intersection
        // never empties and no early exit can rescue the enumeration.
        let starved = Engine::new(&db).options(
            EngineOptions::exhaustive()
                .with_max_nulls(4)
                .with_max_worlds(100),
        );
        let err = starved
            .ground_truth(&qparser::parse("R union S").unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Eval(EvalError::WorldBudgetExceeded { .. })
        ));
    }

    #[test]
    fn early_exit_answers_queries_the_budget_would_refuse() {
        // Same exponential world space, but the certain answer of `R minus S`
        // is provably ∅ the moment one world values a null of S to 1 — and
        // the very first world does. The streaming fold early-exits after a
        // handful of worlds where the materializing path would have needed
        // 14^12 of them.
        let mut b = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"]);
        for i in 0..12u64 {
            b = b.tuple("S", vec![Value::null(i)]);
        }
        b = b.ints("R", &[1]);
        let db = b.build();
        let engine = Engine::new(&db).options(EngineOptions::exhaustive().with_max_worlds(100));
        let report = engine
            .ground_truth(&qparser::parse("R minus S").unwrap())
            .unwrap();
        assert!(report.answers.is_empty());
        assert!(report.stats.world_early_exit);
        assert!(report.stats.worlds_enumerated.unwrap() < 100);
        assert!(report.stats.world_threads.unwrap() >= 1);
        assert!(report.stats.peak_worlds_in_flight.unwrap() >= report.stats.world_threads.unwrap());
        assert_eq!(
            report.stats.worlds_batched, report.stats.worlds_enumerated,
            "every visited world went through the batched split executor"
        );
    }

    #[test]
    fn owa_enumeration_never_claims_exact_beyond_the_monotone_fragment() {
        // Finite OWA enumeration visits only some of the infinitely many
        // supersets, so for a non-monotone query its intersection may keep
        // tuples the true certain answer loses: R = {1}, S = ∅ — a world may
        // add 1 to S, so certain(R − S) = ∅ under OWA, yet minimal-world
        // enumeration answers {1}. The report must say `complete`, not
        // `exact`.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .ints("R", &[1])
            .build();
        let engine = Engine::new(&db)
            .semantics(Semantics::Owa)
            .options(EngineOptions::exhaustive());
        let report = engine.plan_text("R minus S").unwrap();
        assert_eq!(report.strategy, StrategyKind::WorldsGroundTruth);
        assert_eq!(report.guarantee, Guarantee::Complete);
        assert_eq!(report.answers.len(), 1);
        // Letting worlds grow exposes the shrinkage the label must allow for.
        let grown = Engine::new(&db)
            .semantics(Semantics::Owa)
            .options(
                EngineOptions::exhaustive()
                    .with_world_options(releval::worlds::WorldOptions::with_owa_extra(1)),
            )
            .plan_text("R minus S")
            .unwrap();
        assert!(grown.answers.is_empty());
        // Positive queries stay exact: minimal worlds attain the intersection.
        let pos = engine.plan_with(
            StrategyKind::WorldsGroundTruth,
            &qparser::parse("R").unwrap(),
        );
        assert_eq!(pos.unwrap().guarantee, Guarantee::Exact);
    }

    #[test]
    fn worlds_visited_reflects_early_exit_not_the_estimate() {
        // `R minus R` is ∅ in the very first world, so the streaming fold
        // stops immediately: the honest visit count must undercut the
        // planner's |domain|^|nulls| estimate.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("R", vec![Value::null(1)])
            .build();
        let engine = Engine::new(&db).options(EngineOptions::exhaustive().without_symbolic());
        let report = engine.plan_text("R minus R").unwrap();
        let visited = report.stats.worlds_enumerated.unwrap();
        let estimated = report.stats.estimated_worlds.unwrap();
        assert!(report.stats.world_early_exit);
        assert!(
            visited < estimated,
            "early exit must show: {visited} visited of {estimated} estimated"
        );
    }

    #[test]
    fn baseline_reports_what_sql_would_say_with_no_guarantee() {
        let db = orders_and_payments_example();
        let q = qparser::parse("project[#0](select[#1 = 'oid1' or #1 != 'oid1'](Pay))").unwrap();
        let report = Engine::new(&db).baseline_3vl(&q).unwrap();
        assert_eq!(report.strategy, StrategyKind::ThreeValuedBaseline);
        assert_eq!(report.guarantee, Guarantee::NoGuarantee);
        assert!(
            report.object_answer.unwrap().is_empty(),
            "3VL drops the tautology row"
        );
        // Ground truth through the same door disagrees — and is labelled exact.
        let truth = Engine::new(&db).ground_truth(&q).unwrap();
        assert_eq!(truth.answers.len(), 1);
        assert_eq!(truth.guarantee, Guarantee::Exact);
    }

    #[test]
    fn forcing_naive_on_full_ra_reports_no_guarantee() {
        let db = difference_example();
        let q = qparser::parse("R minus S").unwrap();
        let report = Engine::new(&db)
            .plan_with(StrategyKind::NaiveExact, &q)
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::NaiveExact);
        assert_eq!(report.guarantee, Guarantee::NoGuarantee);
        assert_eq!(
            report.answers.len(),
            2,
            "naïve over-reports, and the label warns about it"
        );
    }

    #[test]
    fn certain_true_respects_guarantees() {
        let db = orders_and_payments_example();
        // "Is some order certainly unpaid?" — Boolean query, ground truth: yes.
        let q = qparser::parse("project[#0](Order) minus project[#1](Pay)")
            .unwrap()
            .project(vec![]);
        let exhaustive = Engine::new(&db).options(EngineOptions::exhaustive());
        assert_eq!(exhaustive.plan(&q).unwrap().certain_true(), Some(true));
        // The *default* engine now concludes the same symbolically — the
        // disjunctive fact world enumeration needed every world for.
        let default_report = Engine::new(&db).plan(&q).unwrap();
        assert_eq!(default_report.strategy, StrategyKind::SymbolicCTable);
        assert_eq!(default_report.certain_true(), Some(true));
        // The sound approximation returns ∅ for this query: too weak to
        // conclude either way, and the report says so.
        let approx = Engine::new(&db)
            .options(EngineOptions::default().without_symbolic())
            .plan(&q)
            .unwrap();
        assert_eq!(approx.certain_true(), None);
        // SQL's baseline can conclude nothing at all.
        assert_eq!(
            Engine::new(&db).baseline_3vl(&q).unwrap().certain_true(),
            None
        );
    }

    #[test]
    fn select_strategy_previews_without_executing() {
        let db = orders_and_payments_example();
        let engine = Engine::new(&db);
        let q = qparser::parse("project[#0](Order)").unwrap();
        assert_eq!(
            engine.select_strategy(&q, QueryClass::Positive),
            (StrategyKind::NaiveExact, Guarantee::Exact)
        );
        let hard = qparser::parse("project[#0](Order) minus project[#1](Pay)").unwrap();
        assert_eq!(
            engine.select_strategy(&hard, QueryClass::FullRa),
            (StrategyKind::SymbolicCTable, Guarantee::Exact)
        );
        let engine_owa = Engine::new(&db).semantics(Semantics::Owa);
        assert_eq!(
            engine_owa.select_strategy(&hard, QueryClass::FullRa),
            (StrategyKind::SoundApproximation, Guarantee::NoGuarantee)
        );
    }

    #[test]
    fn division_arity_underflow_is_rejected_not_a_panic() {
        // Regression: `dividend.arity() - divisor.arity()` in the leaf
        // evaluator would underflow (and panic) if a wider divisor ever
        // reached it. The type checker must reject such plans — through
        // every front door — with `InvalidDivision`, never by panicking.
        let db = DatabaseBuilder::new()
            .relation("Narrow", &["a"])
            .relation("Wide", &["a", "b", "c"])
            .ints("Narrow", &[1])
            .build();
        let engine = Engine::new(&db);
        for query in ["Narrow divide Wide", "Narrow divide Narrow"] {
            let err = engine.plan_text(query).unwrap_err();
            assert!(
                err.to_string().contains("division"),
                "`{query}` must fail with a division type error, got: {err}"
            );
        }
        // The same guard through the non-textual door, as a typed error.
        let q = RaExpr::relation("Narrow").divide(RaExpr::relation("Wide"));
        assert!(matches!(
            engine.plan(&q),
            Err(EngineError::Type(
                relalgebra::typecheck::TypeError::InvalidDivision {
                    dividend: 1,
                    divisor: 3
                }
            ))
        ));
    }

    #[test]
    fn errors_are_classified() {
        let db = orders_and_payments_example();
        let engine = Engine::new(&db);
        assert!(matches!(
            engine.plan_text("project[#0]("),
            Err(EngineError::Text(_))
        ));
        assert!(matches!(
            engine.plan(&RaExpr::relation("Nope")),
            Err(EngineError::Type(_))
        ));
        let e = engine.plan_text("Nope").unwrap_err();
        assert!(e.to_string().contains("Nope"));
    }

    /// R(k, v) with key k: a dirty pair for k = 1, a clean tuple for k = 2.
    fn dirty_db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .build()
    }

    #[test]
    fn consistent_database_delegates_to_the_certain_pipeline() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 30])
            .build();
        let report = Engine::new(&db)
            .consistent_answers()
            .plan_text("project[#1](R)")
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::NaiveExact);
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert_eq!(report.semantics, Semantics::ConsistentAnswers);
        assert_eq!(report.stats.violations, Some(0), "checked and clean");
        assert_eq!(report.answers.len(), 2);
        // Full RA over a clean *complete* database: the analyzer sees a
        // ground query, so the delegate upgrades past symbolic all the way
        // to naïve evaluation — exact, because every world agrees with the
        // database itself.
        let hard = Engine::new(&db)
            .consistent_answers()
            .plan_text("project[#0](R) minus project[#1](R)")
            .unwrap();
        assert_eq!(hard.strategy, StrategyKind::NaiveExact);
        assert_eq!(hard.guarantee, Guarantee::Exact);
        assert!(hard.stats.analyzer.unwrap().ground);
        assert!(hard.stats.analyzer.unwrap().upgraded);
    }

    #[test]
    fn violations_dispatch_to_repair_enumeration_exact() {
        let db = dirty_db();
        let report = Engine::new(&db)
            .consistent_answers()
            .plan_text("project[#1](R)")
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::RepairEnumeration);
        assert_eq!(report.guarantee, Guarantee::Exact);
        assert_eq!(report.stats.violations, Some(1));
        assert_eq!(report.stats.conflict_tuples, Some(2));
        assert_eq!(report.stats.estimated_repairs, Some(2));
        assert_eq!(report.stats.repairs_enumerated, Some(2));
        assert_eq!(
            report.stats.repairs_batched,
            Some(2),
            "complete input: both repairs take the mask path"
        );
        assert!(!report.stats.degraded);
        assert!(report.stats.fallback.is_none());
        // Only v = 30 survives both repairs.
        assert_eq!(report.answers.len(), 1);
        assert!(report.answers.contains(&Tuple::ints(&[30])));
        // The same query under plain CWA sees the dirty data as-is.
        let cwa = Engine::new(&db).plan_text("project[#1](R)").unwrap();
        assert_eq!(cwa.answers.len(), 3);
    }

    #[test]
    fn repair_budget_degrades_to_the_core_with_a_reason() {
        let db = dirty_db();
        let report = Engine::new(&db)
            .consistent_answers()
            .options(EngineOptions::default().with_max_repairs(1))
            .plan_text("project[#1](R)")
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::ConflictFreeCore);
        assert_eq!(report.guarantee, Guarantee::Sound);
        assert!(report.stats.degraded);
        assert_eq!(
            report.stats.fallback,
            Some(FallbackReason::RepairBudget {
                estimated: 2,
                budget: 1
            })
        );
        // The core answer is a subset of the exact consistent answer — here
        // it happens to coincide.
        assert_eq!(report.answers.len(), 1);
        assert!(report.answers.contains(&Tuple::ints(&[30])));
        assert!(report.object_answer.is_some());
    }

    #[test]
    fn forced_repair_enumeration_errors_instead_of_degrading() {
        let db = dirty_db();
        let engine = Engine::new(&db)
            .consistent_answers()
            .options(EngineOptions::default().with_max_repairs(1));
        let err = engine
            .plan_with(
                StrategyKind::RepairEnumeration,
                &qparser::parse("project[#1](R)").unwrap(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Repair(repairs::RepairError::BudgetExceeded { budget: 1, .. })
        ));
        // On a constraint-free schema a forced enumeration folds the single
        // trivial repair — the database itself — with no guarantee attached
        // to the certain-answer question it was not asked.
        let clean = relmodel::builder::orders_and_payments_example();
        let report = Engine::new(&clean)
            .plan_with(
                StrategyKind::RepairEnumeration,
                &qparser::parse("project[#0](Order)").unwrap(),
            )
            .unwrap();
        assert_eq!(report.stats.repairs_enumerated, Some(1));
        assert_eq!(report.guarantee, Guarantee::NoGuarantee);
    }

    #[test]
    fn aborted_enumeration_degrades_with_its_cause_on_the_report() {
        // Repairs of this database carry two nulls each, and the null-
        // bearing Values literal rules symbolic out per repair, so every
        // per-repair evaluation must go through the world oracle — which a
        // 1-world budget starves. The engine must degrade to the core with
        // the per-repair world budget named as the cause.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .tuple("R", vec![Value::int(2), Value::null(0)])
            .tuple("R", vec![Value::int(3), Value::null(1)])
            .build();
        let lit = RaExpr::values(relmodel::Relation::from_tuples(
            2,
            vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
        ));
        // (R ∩ R) ∪ literal: the literal keeps every per-repair
        // intersection nonempty, so no early exit can rescue the starved
        // inner budget. R ∩ R is not linear, so the fold builds each repair
        // (a linear plan would value the nulls itself, without the oracle).
        let q = RaExpr::relation("R")
            .intersection(RaExpr::relation("R"))
            .union(lit);
        let mut repair_options = repairs::RepairOptions::default();
        repair_options.world_options.max_worlds = 1;
        let report = Engine::new(&db)
            .consistent_answers()
            .options(EngineOptions::default().with_repair_options(repair_options))
            .plan(&q)
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::ConflictFreeCore);
        assert_eq!(report.guarantee, Guarantee::Sound);
        assert!(report.stats.degraded);
        assert!(
            matches!(
                report.stats.fallback,
                Some(FallbackReason::RepairEnumerationAborted(
                    RepairAbort::PerRepairWorldBudget { budget: 1, .. }
                ))
            ),
            "cause must survive onto the report: {:?}",
            report.stats.fallback
        );
    }

    #[test]
    fn nulls_and_violations_compose() {
        // The k = 1 pair conflicts and every repair carries a null: k = 2 is
        // certain in every world of every repair, while no v value is. Both
        // projections are linear, so the fold values the nulls itself, one
        // joint component at a time, through the split executor.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("R", vec![Value::int(2), Value::null(1)])
            .build();
        let engine = Engine::new(&db).consistent_answers();
        let keys = engine.plan_text("project[#0](R)").unwrap();
        assert_eq!(keys.strategy, StrategyKind::RepairEnumeration);
        assert_eq!(keys.guarantee, Guarantee::Exact);
        assert_eq!(keys.answers.len(), 2);
        let vals = engine.plan_text("project[#1](R)").unwrap();
        assert!(vals.answers.is_empty());
        assert_eq!(vals.stats.repairs_batched, vals.stats.repairs_enumerated);
    }

    #[test]
    fn stats_record_phases_and_nulls() {
        let db = orders_and_payments_example();
        let report = Engine::new(&db).plan_text("project[#0](Order)").unwrap();
        assert_eq!(report.stats.nulls, 1);
        assert!(report.stats.total_time >= report.stats.execute_time);
        assert!(report.to_string().contains("naive-exact"));
    }

    #[test]
    fn tracing_is_off_by_default_and_records_phase_spans_when_on() {
        let db = orders_and_payments_example();
        let untraced = Engine::new(&db).plan_text("project[#0](Order)").unwrap();
        assert!(untraced.stats.trace.is_none(), "tracing is opt-in");

        let engine = Engine::new(&db).options(EngineOptions::default().with_trace(true));
        for (query, strategy) in [
            ("project[#0](Order)", StrategyKind::NaiveExact),
            (
                "project[#0](Order) minus project[#1](Pay)",
                StrategyKind::SymbolicCTable,
            ),
        ] {
            let report = engine.plan_text(query).unwrap();
            assert_eq!(report.strategy, strategy);
            let trace = report.stats.trace.as_ref().expect("trace requested");
            assert_eq!(trace.name, "query");
            let plan = trace.find("plan").expect("plan phase span");
            assert_eq!(plan.field_value("nulls"), Some(1));
            assert!(
                plan.find("analyze+dispatch").is_some(),
                "planner dispatch is timed inside the plan span"
            );
            let execute = trace.find("execute").expect("execute phase span");
            assert!(
                execute.find(strategy.name()).is_some(),
                "the strategy that answered names its span: {trace:?}"
            );
            assert!(trace.duration >= execute.duration);
            assert_eq!(trace.duration, report.stats.total_time);
        }
    }

    #[test]
    fn worlds_trace_carries_per_shard_spans() {
        let db = orders_and_payments_example();
        let report = Engine::new(&db)
            .options(EngineOptions::exhaustive().with_trace(true))
            .ground_truth(&qparser::parse("project[#0](Order)").unwrap())
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::WorldsGroundTruth);
        let trace = report.stats.trace.as_ref().expect("trace requested");
        let strategy = trace
            .find("worlds-ground-truth")
            .expect("strategy span present");
        assert_eq!(
            strategy.field_value("worlds_visited"),
            report.stats.worlds_enumerated.map(|w| w as u64)
        );
        let shards: Vec<_> = strategy
            .children
            .iter()
            .filter(|s| s.name == "shard")
            .collect();
        assert_eq!(
            shards.len(),
            report.stats.world_threads.unwrap(),
            "one shard span per worker"
        );
        assert_eq!(shards[0].field_value("index"), Some(0));
    }

    #[test]
    fn symbolic_trace_carries_the_solver_decisions() {
        let db = difference_example();
        let report = Engine::new(&db)
            .options(EngineOptions::default().with_trace(true))
            .plan_text("(R minus S) minus (S minus R)")
            .unwrap();
        assert_eq!(report.strategy, StrategyKind::SymbolicCTable);
        let decisions = report.stats.solver_decisions.expect("symbolic ran");
        assert!(decisions > 0, "the tower needs a search");
        let trace = report.stats.trace.as_ref().expect("trace requested");
        let strategy = trace.find("symbolic-ctable").expect("strategy span");
        assert_eq!(
            strategy.field_value("solver_decisions"),
            Some(decisions as u64)
        );
        assert!(report
            .stats
            .summary()
            .contains(&format!("solver decisions {decisions}")));
    }

    #[test]
    fn explain_analyze_annotates_every_node_and_times_nest() {
        let db = orders_and_payments_example();
        let engine = Engine::new(&db);
        let ea = engine
            .explain_analyze_text("project[#0](select[#0 = #2](product(Order, Pay)))")
            .unwrap();
        // Every operator line carries a measurement annotation.
        for line in ea.annotated.lines().filter(|l| !l.starts_with("-- ")) {
            assert!(
                line.contains("(rows=") && line.contains("time="),
                "unannotated operator line: {line}"
            );
        }
        assert!(ea.annotated.contains("-- execute"));
        // Profiles cover the whole plan; the root (id 0) completes last and
        // its inclusive time bounds every node's and sits within the
        // measured execution.
        let root = *ea.root_profile().expect("non-empty plan");
        assert_eq!(root.id, 0);
        assert_eq!(
            ea.profiles.len(),
            ea.annotated
                .lines()
                .filter(|l| !l.starts_with("-- "))
                .count()
        );
        for p in &ea.profiles {
            assert!(p.nanos <= root.nanos, "inclusive times nest: {p:?}");
        }
        assert!(root.nanos <= ea.execute_time.as_nanos() as u64);
        assert_eq!(root.rows, ea.rows);
        // The measured run is the naïve ground core: its answer matches the
        // naïve dispatch for this (exact-fragment) query.
        let report = engine
            .plan_text("project[#0](select[#0 = #2](product(Order, Pay)))")
            .unwrap();
        assert_eq!(ea.rows, report.answers.len());
    }

    #[test]
    fn summaries_render_on_one_line() {
        let db = orders_and_payments_example();
        let report = Engine::new(&db)
            .plan_text("project[#0](Order) minus project[#1](Pay)")
            .unwrap();
        let line = report.summary();
        assert!(line.contains("symbolic-ctable"));
        assert!(line.contains("exact"));
        assert!(line.contains("solver calls"));
        assert!(!line.contains('\n'));
        assert!(!report.stats.summary().contains('\n'));
    }
}
