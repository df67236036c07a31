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

use relalgebra::analysis;
use relalgebra::ast::RaExpr;
use relalgebra::classify::{has_incomplete_values, QueryClass};
use relalgebra::plan::PlannedQuery;
use relalgebra::typecheck::TypeError;
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

    /// The engine [`Semantics`] dispatch decisions are taken under: the
    /// declared one, with `ConsistentAnswers` lowered to `Cwa` when the
    /// certain-answer pipeline is the delegate (a consistent database's
    /// only repair is itself).
    fn dispatch_semantics(&self) -> Semantics {
        Semantics::from(self.base())
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
        let plan = PlannedQuery::new(query.clone(), self.db().schema())?;
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
    /// RA query yields `no-guarantee`, not `exact`.
    pub fn plan_with(
        &self,
        strategy: StrategyKind,
        query: &RaExpr,
    ) -> Result<CertainReport, EngineError> {
        let started = Instant::now();
        let plan = PlannedQuery::new(query.clone(), self.db().schema())?;
        let plan_time = started.elapsed();
        let decision = Decision {
            strategy,
            guarantee: strategy.guarantee(plan.class(), self.semantics),
            class: plan.class(),
            forced: true,
            ..Decision::default()
        };
        let mut report = self.execute(plan, decision, plan_time, started)?;
        // Forced dispatch skips the analyzer, so there is no dispatch phase
        // to time inside the plan span.
        wrap_trace(&mut report, None);
        Ok(report)
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
    /// what guarantee the answer would carry.
    pub fn select_strategy(&self, query: &RaExpr, class: QueryClass) -> (StrategyKind, Guarantee) {
        let decision = self.decide(query, class);
        (decision.strategy, decision.guarantee)
    }

    /// The dispatch semantics a given (possibly reduced) plan is executed
    /// under: the declared one, lowered from OWA to CWA when the query is
    /// monotone (monotonicity makes the two certain answers coincide).
    fn effective_semantics(&self, query: &RaExpr) -> Semantics {
        if self.base() == relmodel::Semantics::Owa
            && analysis::analyze(query, self.ctx.census()).root().monotone
        {
            Semantics::Cwa
        } else {
            self.dispatch_semantics()
        }
    }

    /// Statically analyzes `query` against this engine's database — no
    /// execution. The report carries the analyzer's root facts, the
    /// dispatch the planner *would* take (strategy and guarantee, identical
    /// to [`Engine::select_strategy`]), the lint diagnostics (`QL…` codes),
    /// and an annotated plan rendering.
    pub fn analyze(&self, query: &RaExpr) -> Result<AnalysisReport, EngineError> {
        let plan = PlannedQuery::new(query.clone(), self.db().schema())?;
        Ok(self.analysis_report(&plan))
    }

    /// [`Engine::analyze`] for textual queries.
    pub fn analyze_text(&self, query: &str) -> Result<AnalysisReport, EngineError> {
        let plan = qparser::parse_and_plan(query, self.db().schema())?;
        Ok(self.analysis_report(&plan))
    }

    fn analysis_report(&self, plan: &PlannedQuery) -> AnalysisReport {
        let analysis = analysis::analyze(plan.expr(), self.ctx.census());
        let facts = analysis.root().clone();
        let decision = self.decide(plan.expr(), plan.class());
        let diagnostics = analysis::lint(plan.expr(), self.ctx.census(), Some(self.db().schema()));
        let annotated = analysis::annotate(plan.expr(), self.ctx.census());
        AnalysisReport {
            class: plan.class(),
            certainty_preserving: facts.certainty_preserving(self.base()),
            facts,
            strategy: decision.strategy,
            guarantee: decision.guarantee,
            diagnostics,
            annotated,
        }
    }

    fn finish(&self, plan: PlannedQuery, started: Instant) -> Result<CertainReport, EngineError> {
        // Tracing disabled costs exactly this branch: no timers start, no
        // spans allocate anywhere below.
        let decide_started = self.options.trace.then(Instant::now);
        let decision = self.decide(plan.expr(), plan.class());
        let dispatch_time = decide_started.map(|t| t.elapsed());
        let (plan, decision) = if decision.split {
            self.inline_ground(plan, decision)
        } else {
            (plan, decision)
        };
        // Subtree inlining is preparation work, so it counts toward the
        // plan phase, not strategy execution.
        let plan_time = started.elapsed();
        let mut report = self.execute(plan, decision, plan_time, started)?;
        wrap_trace(&mut report, dispatch_time);
        Ok(report)
    }

    /// Performs the subtree split a [`Decision`] with `split` requested:
    /// evaluates the maximal ground proper subtrees plainly, inlines them as
    /// complete literals, and re-plans the reduced query. The dispatch is
    /// **not** revisited — the decision was already taken on the analyzer's
    /// split class, so preview ([`Engine::select_strategy`]) and execution
    /// always agree.
    fn inline_ground(&self, plan: PlannedQuery, decision: Decision) -> (PlannedQuery, Decision) {
        let outcome = inline_ground_subtrees(plan.expr(), self.db(), self.ctx.census());
        if outcome.inlined == 0 {
            return (plan, decision);
        }
        match PlannedQuery::new(outcome.expr, self.db().schema()) {
            Ok(reduced) => {
                let analyzer = decision.analyzer.map(|a| AnalyzerStats {
                    inlined_subtrees: outcome.inlined,
                    ..a
                });
                (
                    reduced,
                    Decision {
                        analyzer,
                        ..decision
                    },
                )
            }
            // Defensive: a subtree of a typechecked query re-plans cleanly;
            // if it ever did not, run the original plan unchanged.
            Err(_) => (plan, decision),
        }
    }

    fn decide(&self, query: &RaExpr, class: QueryClass) -> Decision {
        if self.semantics == Semantics::ConsistentAnswers {
            return self.decide_consistent(query, class);
        }
        self.decide_certain(query, class)
    }

    /// The consistent-answer dispatch: delegate when the database is clean,
    /// enumerate repairs while the conflict graph is small, degrade to the
    /// conflict-free-core approximation (with the reason on the report)
    /// beyond that.
    fn decide_consistent(&self, query: &RaExpr, class: QueryClass) -> Decision {
        let Some(graph) = self.conflict_graph().filter(|g| !g.is_conflict_free()) else {
            // No violations: the only repair is the database itself, so the
            // consistent answer *is* the CWA certain answer — delegate to
            // the whole certain-answer pipeline, guarantees included.
            let violations = Some(0);
            return Decision {
                violations,
                ..self.decide_certain(query, class)
            };
        };
        let violations = Some(graph.violation_count());
        let conflict_tuples = Some(graph.conflict_tuples());
        let estimated = graph.estimated_repairs();
        let budget = self.options.repair_options.max_repairs;
        if estimated <= budget {
            Decision {
                strategy: StrategyKind::RepairEnumeration,
                guarantee: StrategyKind::RepairEnumeration.guarantee(class, self.semantics),
                class,
                estimated_repairs: Some(estimated),
                violations,
                conflict_tuples,
                ..Decision::default()
            }
        } else {
            // The explicit degradation the repair budget exists for: one
            // polynomial pass over the repair interval instead of an
            // exponential enumeration, labelled `Sound` and explained.
            Decision {
                strategy: StrategyKind::ConflictFreeCore,
                guarantee: StrategyKind::ConflictFreeCore.guarantee(class, self.semantics),
                class,
                estimated_repairs: Some(estimated),
                violations,
                conflict_tuples,
                degraded: true,
                fallback: Some(FallbackReason::RepairBudget { estimated, budget }),
                ..Decision::default()
            }
        }
    }

    /// The certain-answer dispatch, taken under [`Engine::dispatch_semantics`]
    /// (so a consistent-answer delegate behaves exactly like a CWA engine),
    /// refined by the static analyzer:
    ///
    /// * **certainty preservation** — a query the analyzer proves naïve-exact
    ///   (by class, by groundness under CWA, or by groundness + monotonicity
    ///   under OWA) dispatches to [`StrategyKind::NaiveExact`] with
    ///   [`Guarantee::Exact`], even beyond the class-based theorem;
    /// * **OWA-as-CWA** — a monotone query has `certain_owa = certain_cwa`,
    ///   so under OWA the planner may use the CWA machinery (symbolic,
    ///   worlds) at full strength;
    /// * **subtree splitting** — when the unsound region is a proper subtree,
    ///   the ground remainder is evaluated plainly and inlined
    ///   ([`releval::split`]), and the dispatch is taken on the analyzer's
    ///   [`relalgebra::analysis::NodeFacts::split_class`]: a mixed query
    ///   whose non-monotone core is ground upgrades all the way to
    ///   `NaiveExact`/`Exact`.
    fn decide_certain(&self, query: &RaExpr, class: QueryClass) -> Decision {
        let analysis = analysis::analyze(query, self.ctx.census());
        let facts = analysis.root();
        let class_sound = class.naive_evaluation_sound(self.base());
        let analyzer = AnalyzerStats {
            ground: facts.ground,
            monotone: facts.monotone,
            upgraded: false,
            owa_as_cwa: false,
            inlined_subtrees: 0,
        };
        if class_sound || facts.certainty_preserving(self.base()) {
            return Decision {
                strategy: StrategyKind::NaiveExact,
                guarantee: Guarantee::Exact,
                class,
                analyzer: Some(AnalyzerStats {
                    upgraded: !class_sound,
                    ..analyzer
                }),
                ..Decision::default()
            };
        }
        // For a monotone query the OWA certain answer equals the CWA one,
        // so the planner may dispatch under the CWA rules at full strength.
        let owa_as_cwa = self.base() == relmodel::Semantics::Owa && facts.monotone;
        let semantics = if owa_as_cwa {
            Semantics::Cwa
        } else {
            self.dispatch_semantics()
        };
        let analyzer = AnalyzerStats {
            owa_as_cwa,
            ..analyzer
        };
        // Subtree splitting: sound whenever the split-off region has the
        // same value in every (effective-CWA) world.
        let split = semantics == Semantics::Cwa && analysis.has_inlinable_subtree();
        let dispatch_class = if split { facts.split_class } else { class };
        if split && dispatch_class.naive_evaluation_sound(relmodel::Semantics::Cwa) {
            // After inlining the ground regions, what remains is in the
            // naïve-exact fragment: the mixed-query upgrade.
            return Decision {
                strategy: StrategyKind::NaiveExact,
                guarantee: Guarantee::Exact,
                class,
                split: true,
                analyzer: Some(AnalyzerStats {
                    upgraded: true,
                    ..analyzer
                }),
                ..Decision::default()
            };
        }
        // Beyond the naïve theorem, the symbolic c-table strategy is the
        // planner's first choice under (effective) CWA: exact, polynomial
        // per output tuple, no world enumeration. (Under OWA its answer is
        // only an over-approximation for non-monotone classes, so the
        // planner keeps the pre-symbolic rules there.)
        if self.options.symbolic && semantics == Semantics::Cwa {
            if !has_incomplete_values(query) {
                return Decision {
                    strategy: StrategyKind::SymbolicCTable,
                    guarantee: StrategyKind::SymbolicCTable.guarantee(class, semantics),
                    class,
                    split,
                    analyzer: Some(analyzer),
                    ..Decision::default()
                };
            }
            // Null-bearing `Values` literals would make the c-table algebra
            // conflate literal and database nulls: rule symbolic out at
            // planning time and record why. The fallback policy is the same
            // as for an execution-time solver punt — the world oracle within
            // budget, then the approximation — so both punt kinds honour the
            // one documented contract.
            return Decision {
                class,
                split,
                analyzer: Some(analyzer),
                ..self.enumerate_or_approximate(
                    query,
                    class,
                    semantics,
                    Some(FallbackReason::Symbolic(
                        releval::symbolic::PuntReason::NullValuesLiteral,
                    )),
                    true,
                )
            };
        }
        Decision {
            class,
            split,
            analyzer: Some(analyzer),
            ..self.enumerate_or_approximate(query, class, semantics, None, self.options.exhaustive)
        }
    }

    /// The pre-symbolic decision logic: possible-world enumeration within
    /// budget when `allow_worlds`, otherwise (or beyond budget, with
    /// [`EngineStats::degraded`] set) the sound approximation. Also the
    /// landing path when the symbolic strategy punts — the fallback reason
    /// carries the reason into the report. `semantics` is the *effective*
    /// dispatch semantics (OWA lowered to CWA for monotone queries).
    fn enumerate_or_approximate(
        &self,
        query: &RaExpr,
        class: QueryClass,
        semantics: Semantics,
        fallback_reason: Option<FallbackReason>,
        allow_worlds: bool,
    ) -> Decision {
        let fallback = StrategyKind::SoundApproximation;
        if !allow_worlds {
            return Decision {
                strategy: fallback,
                guarantee: fallback.guarantee(class, semantics),
                class,
                fallback: fallback_reason,
                ..Decision::default()
            };
        }
        let estimate = estimated_world_count(query, self.db(), &self.options.world_options);
        let within_budget = self.ctx.nulls() <= self.options.max_nulls
            && estimate <= self.options.world_options.max_worlds;
        if within_budget {
            Decision {
                strategy: StrategyKind::WorldsGroundTruth,
                guarantee: StrategyKind::WorldsGroundTruth.guarantee(class, semantics),
                class,
                estimated_worlds: Some(estimate),
                fallback: fallback_reason,
                ..Decision::default()
            }
        } else {
            // The explicit degradation the budget exists for: report the
            // approximation instead of hanging on an exponential enumeration.
            Decision {
                strategy: fallback,
                guarantee: fallback.guarantee(class, semantics),
                class,
                estimated_worlds: Some(estimate),
                degraded: true,
                fallback: fallback_reason,
                ..Decision::default()
            }
        }
    }

    fn execute(
        &self,
        plan: PlannedQuery,
        decision: Decision,
        plan_time: std::time::Duration,
        started: Instant,
    ) -> Result<CertainReport, EngineError> {
        let execute_started = Instant::now();
        // (worlds visited, early exit, threads, peak worlds in flight,
        // worlds batched)
        let mut world_exec: Option<(u128, bool, usize, usize, u128)> = None;
        // (condition atoms, solver calls, simplification wins, decisions)
        let mut symbolic_exec: Option<(usize, usize, usize, usize)> = None;
        // (repairs visited, early exit, repairs batched)
        let mut repair_exec: Option<(u128, bool, u128)> = None;
        // Physical-operator telemetry from whichever executor ran.
        let mut physical_ops: Option<OpStats> = None;
        // Per-worker wall-clock of an enumeration fold, for the trace.
        let mut shard_profiles: Vec<ShardProfile> = Vec::new();
        // The conflict graph the repair strategies run against: the cached
        // one, or (for a forced repair strategy on a constraint-free
        // schema) the empty graph, whose single repair is the database.
        let empty_graph = ConflictGraph::default();
        let (answers, object_answer) = match decision.strategy {
            StrategyKind::SymbolicCTable => {
                match symbolic_certain_answer(&plan, self.db(), &self.options.symbolic_options) {
                    SymbolicOutcome::Answered(exec) => {
                        symbolic_exec = Some((
                            exec.condition_atoms,
                            exec.solver_calls,
                            exec.simplification_wins,
                            exec.solver_decisions,
                        ));
                        physical_ops = Some(exec.op_stats);
                        (exec.answers, None)
                    }
                    SymbolicOutcome::Punted(reason) => {
                        if decision.forced {
                            // The caller asked for symbolic and nothing else:
                            // surface the punt as a typed error, like the
                            // forced ground-truth door does with its budget.
                            return Err(EngineError::Eval(EvalError::SymbolicPunt(reason)));
                        }
                        // Fall back to the streaming world oracle within
                        // budget (then to the sound approximation), with the
                        // reason on the report. The guarantee is computed
                        // under the same effective semantics the symbolic
                        // choice was (OWA lowered to CWA for a monotone
                        // plan — re-derived here because `plan` may be the
                        // reduced, post-inlining query).
                        let effective = self.effective_semantics(plan.expr());
                        let fallback = self.enumerate_or_approximate(
                            plan.expr(),
                            plan.class(),
                            effective,
                            Some(FallbackReason::Symbolic(reason)),
                            true,
                        );
                        let fallback = Decision {
                            class: decision.class,
                            analyzer: decision.analyzer,
                            violations: decision.violations,
                            ..fallback
                        };
                        return self.execute(plan, fallback, plan_time, started);
                    }
                }
            }
            StrategyKind::RepairEnumeration => {
                let graph = self.conflict_graph().unwrap_or(&empty_graph);
                match stream_consistent_answer(
                    &plan,
                    self.db(),
                    graph,
                    &self.options.repair_options,
                ) {
                    Ok(exec) => {
                        repair_exec =
                            Some((exec.repairs_visited, exec.early_exit, exec.repairs_batched));
                        physical_ops = Some(exec.op_stats);
                        shard_profiles = exec.shards;
                        (exec.answers, None)
                    }
                    Err(e) => {
                        if decision.forced {
                            // The caller asked for enumeration and nothing
                            // else: surface the failure as a typed error.
                            return Err(EngineError::Repair(e));
                        }
                        // Degrade to the polynomial core approximation with
                        // the abort — and its cause — on the report: the
                        // runtime twin of the planning-time repair-budget
                        // fallback.
                        let abort = match e {
                            RepairError::BudgetExceeded { repairs, budget } => {
                                RepairAbort::RepairBudget { repairs, budget }
                            }
                            RepairError::Eval(EvalError::WorldBudgetExceeded {
                                worlds,
                                budget,
                            }) => RepairAbort::PerRepairWorldBudget { worlds, budget },
                            RepairError::Eval(_) => RepairAbort::PerRepairEvaluation,
                        };
                        let fallback = Decision {
                            strategy: StrategyKind::ConflictFreeCore,
                            guarantee: StrategyKind::ConflictFreeCore
                                .guarantee(plan.class(), self.semantics),
                            degraded: true,
                            fallback: Some(FallbackReason::RepairEnumerationAborted(abort)),
                            forced: false,
                            ..decision
                        };
                        return self.execute(plan, fallback, plan_time, started);
                    }
                }
            }
            StrategyKind::ConflictFreeCore => {
                let graph = self.conflict_graph().unwrap_or(&empty_graph);
                let exec = core_consistent_answer(&plan, self.db(), graph);
                physical_ops = Some(exec.op_stats);
                (exec.answers, Some(exec.pair.certain))
            }
            StrategyKind::NaiveExact => {
                let (object, ops) = self.execute_naive(&plan);
                physical_ops = Some(ops);
                (object.complete_part(), Some(object))
            }
            StrategyKind::ThreeValuedBaseline => {
                let raw = eval_3vl_unchecked(plan.expr(), self.db());
                (raw.complete_part(), Some(raw))
            }
            StrategyKind::WorldsGroundTruth => {
                let exec = stream_certain_answer(
                    &plan,
                    self.db(),
                    self.base(),
                    &self.options.world_options,
                )?;
                world_exec = Some((
                    exec.worlds_visited,
                    exec.early_exit,
                    exec.threads,
                    exec.peak_worlds_in_flight,
                    exec.worlds_batched,
                ));
                physical_ops = Some(exec.op_stats);
                shard_profiles = exec.shards;
                (exec.answers, None)
            }
            StrategyKind::SoundApproximation => {
                if plan.class() == QueryClass::RaCwa && self.base() == relmodel::Semantics::Owa {
                    // Naïve evaluation computes the CWA certain answer for
                    // RA_cwa (Section 6.2), which contains the OWA one: a
                    // provable over-approximation, reported as `complete`.
                    let (naive, ops) = self.execute_naive(&plan);
                    physical_ops = Some(ops);
                    (naive.complete_part(), Some(naive))
                } else {
                    // Pair evaluation: the certain⁺ under-approximation.
                    let (approx, ops) = execute_approx_counted_over(
                        plan.physical(),
                        self.db(),
                        self.ctx.batches(),
                        self.morsel(),
                    );
                    physical_ops = Some(ops);
                    (approx.certain.complete_part(), Some(approx.certain))
                }
            }
        };
        let execute_time = execute_started.elapsed();
        // The execute span is assembled here, at the literal the fallback
        // recursions bottom out in, so a degraded run traces the strategy
        // that actually answered. The entry points wrap it into the root
        // "query" span after this returns.
        let trace = self.options.trace.then(|| {
            let mut strategy = obs::Span::with_duration(decision.strategy.name(), execute_time);
            if let Some((visited, early_exit, threads, _, batched)) = world_exec {
                strategy.push_field("worlds_visited", clamp_u64(visited));
                strategy.push_field("worlds_batched", clamp_u64(batched));
                strategy.push_field("world_threads", threads as u64);
                strategy.push_field("world_early_exit", u64::from(early_exit));
            }
            if let Some((atoms, calls, wins, decisions)) = symbolic_exec {
                strategy.push_field("condition_atoms", atoms as u64);
                strategy.push_field("solver_calls", calls as u64);
                strategy.push_field("simplification_wins", wins as u64);
                strategy.push_field("solver_decisions", decisions as u64);
            }
            if let Some((visited, early_exit, batched)) = repair_exec {
                strategy.push_field("repairs_visited", clamp_u64(visited));
                strategy.push_field("repairs_batched", clamp_u64(batched));
                strategy.push_field("repair_early_exit", u64::from(early_exit));
            }
            if let Some(ops) = &physical_ops {
                strategy.push_field("operators", ops.operators as u64);
                strategy.push_field("batches", ops.batches as u64);
                strategy.push_field("tables_built", ops.tables_built as u64);
                strategy.push_field("tables_reused", ops.tables_reused as u64);
            }
            for (index, shard) in shard_profiles.iter().enumerate() {
                let mut span = obs::Span::with_duration("shard", Duration::from_nanos(shard.nanos));
                span.push_field("index", index as u64);
                span.push_field("units_batched", clamp_u64(shard.units));
                strategy.push_child(span);
            }
            let mut execute_span = obs::Span::with_duration("execute", execute_time);
            execute_span.push_child(strategy);
            execute_span
        });
        Ok(CertainReport {
            answers,
            object_answer,
            strategy: decision.strategy,
            guarantee: decision.guarantee,
            class: decision.class,
            semantics: self.semantics,
            stats: EngineStats {
                plan_time,
                execute_time,
                total_time: started.elapsed(),
                nulls: self.ctx.nulls(),
                estimated_worlds: decision.estimated_worlds,
                worlds_enumerated: world_exec.map(|e| e.0),
                worlds_batched: world_exec.map(|e| e.4),
                degraded: decision.degraded,
                world_early_exit: world_exec.is_some_and(|e| e.1),
                world_threads: world_exec.map(|e| e.2),
                peak_worlds_in_flight: world_exec.map(|e| e.3),
                condition_atoms: symbolic_exec.map(|e| e.0),
                solver_calls: symbolic_exec.map(|e| e.1),
                simplification_wins: symbolic_exec.map(|e| e.2),
                solver_decisions: symbolic_exec.map(|e| e.3),
                fallback: decision.fallback,
                violations: decision.violations,
                conflict_tuples: decision.conflict_tuples,
                estimated_repairs: decision.estimated_repairs,
                repairs_enumerated: repair_exec.map(|e| e.0),
                repairs_batched: repair_exec.map(|e| e.2),
                repair_early_exit: repair_exec.is_some_and(|e| e.1),
                plan_text: plan.physical().explain(),
                physical_ops,
                analyzer: decision.analyzer,
                // The serving-layer fields: a direct engine call is always a
                // fresh computation against no snapshot; `serve` stamps them.
                cache_hit: false,
                plan_cache_hit: false,
                snapshot_version: None,
                trace,
            },
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
        let plan = PlannedQuery::new(query.clone(), self.db().schema())?;
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

/// Saturating narrowing for trace fields (`u128` world/repair counters).
fn clamp_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Wraps a recorded execute span into the root `query` span, with the plan
/// phase (and the analyze + dispatch slice, when timed) attached — called by
/// the entry points once `execute` has returned, because fallback paths
/// recurse through `execute` and only the outermost call knows the whole
/// query's shape. No-op when tracing is off.
fn wrap_trace(report: &mut CertainReport, dispatch_time: Option<Duration>) {
    if let Some(execute_span) = report.stats.trace.take() {
        let mut plan_span = obs::Span::with_duration("plan", report.stats.plan_time);
        plan_span.push_field("nulls", report.stats.nulls as u64);
        if let Some(d) = dispatch_time {
            plan_span.push_child(obs::Span::with_duration("analyze+dispatch", d));
        }
        let mut root = obs::Span::with_duration("query", report.stats.total_time);
        root.push_child(plan_span);
        root.push_child(execute_span);
        report.stats.trace = Some(root);
    }
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    strategy: StrategyKind,
    guarantee: Guarantee,
    /// The class of the *original* query — what the report declares, even
    /// when subtree inlining hands the executor a reduced plan.
    class: QueryClass,
    /// Evaluate ground subtrees plainly and inline them before executing
    /// the strategy ([`releval::split`]).
    split: bool,
    /// What the analyzer contributed, for the report.
    analyzer: Option<AnalyzerStats>,
    estimated_worlds: Option<u128>,
    degraded: bool,
    /// Why the planner's first choice is not the one executing (symbolic
    /// rule-out or punt, repair budget, aborted enumeration).
    fallback: Option<FallbackReason>,
    /// Violations witnessed, when consistent answering dispatched.
    violations: Option<usize>,
    /// Conflict vertices, when consistent answering dispatched.
    conflict_tuples: Option<usize>,
    /// The Moon–Moser repair estimate, when enumeration was considered.
    estimated_repairs: Option<u128>,
    /// Caller-forced strategy: punts become errors instead of fallbacks.
    forced: bool,
}

/// The all-`None` baseline every decision starts from; `strategy` and
/// `guarantee` are always overridden at the construction site.
impl Default for Decision {
    fn default() -> Self {
        Decision {
            strategy: StrategyKind::NaiveExact,
            guarantee: Guarantee::NoGuarantee,
            class: QueryClass::FullRa,
            split: false,
            analyzer: None,
            estimated_worlds: None,
            degraded: false,
            fallback: None,
            violations: None,
            conflict_tuples: None,
            estimated_repairs: None,
            forced: false,
        }
    }
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
            "every visited world went through the batched overlay path"
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
        // R ∪ literal: the literal keeps every per-repair intersection
        // nonempty, so no early exit can rescue the starved inner budget.
        let q = RaExpr::relation("R").union(lit);
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
        // The k = 1 pair conflicts; the surviving repairs each carry a null,
        // so the per-repair answers flow through the certain-answer
        // machinery: k = 2 is certain in every world of every repair, while
        // no v value is.
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
        assert!(vals.stats.repair_early_exit || vals.stats.repairs_enumerated == Some(2));
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
