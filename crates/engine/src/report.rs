//! Guarantee-carrying results: what the engine answered, how, and what the
//! answer is worth.

use std::fmt;
use std::time::Duration;

use relalgebra::analysis::{Diagnostic, NodeFacts};
use relalgebra::classify::QueryClass;
use releval::exec::{NodeProfile, OpStats};
use releval::symbolic::PuntReason;
use relmodel::Relation;

use crate::Semantics;

/// The strategy the engine dispatched a query to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Naïve evaluation on the fragment where the paper proves it exact
    /// (UCQs under either semantics, `RA_cwa` under CWA).
    NaiveExact,
    /// Possible-world enumeration — the classical intersection-based certain
    /// answer, exponential in the number of nulls. Selected automatically
    /// only in [`crate::EngineOptions::exhaustive`] mode, within budget.
    WorldsGroundTruth,
    /// SQL's three-valued logic, as a *baseline*: what a SQL engine would
    /// return. Never selected automatically; request it explicitly to
    /// reproduce the paper's §1 failure gallery through the same front door.
    ThreeValuedBaseline,
    /// The polynomial fallback beyond the exact fragment: certain⁺/possible?
    /// pair evaluation with null unification (`releval::approx`), sound under
    /// CWA — or naïve evaluation alone where that yields a provable
    /// over-approximation (`RA_cwa` under OWA).
    SoundApproximation,
    /// The symbolic c-table strategy (`releval::symbolic`): lift to a
    /// conditional database, evaluate with the Imieliński–Lipski algebra,
    /// extract certain answers with the certainty solver. **Exact** under
    /// CWA for every query class, polynomial per output tuple; selected by
    /// default for the classes naïve evaluation cannot cover under CWA.
    SymbolicCTable,
    /// Consistent answers by streaming enumeration of subset-minimal
    /// repairs (`repairs::fold`): the certain answer that survives every
    /// repair. Exact under [`Semantics::ConsistentAnswers`]; selected when
    /// the database has violations and the conflict graph's repair estimate
    /// fits the repair budget.
    RepairEnumeration,
    /// The conflict-free-core approximation (`repairs::core_approx`):
    /// certain⁺ pair evaluation over the repair interval `[core, db −
    /// doomed]` — polynomial and sound for every query class; the fallback
    /// when the repair space exceeds its budget.
    ConflictFreeCore,
}

impl StrategyKind {
    /// Every strategy, in declaration order — the registry the serving
    /// layer's metrics pre-allocate their per-strategy histograms over.
    pub const ALL: [StrategyKind; 7] = [
        StrategyKind::NaiveExact,
        StrategyKind::WorldsGroundTruth,
        StrategyKind::ThreeValuedBaseline,
        StrategyKind::SoundApproximation,
        StrategyKind::SymbolicCTable,
        StrategyKind::RepairEnumeration,
        StrategyKind::ConflictFreeCore,
    ];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::NaiveExact => "naive-exact",
            StrategyKind::WorldsGroundTruth => "worlds-ground-truth",
            StrategyKind::ThreeValuedBaseline => "sql-3vl-baseline",
            StrategyKind::SoundApproximation => "sound-approximation",
            StrategyKind::SymbolicCTable => "symbolic-ctable",
            StrategyKind::RepairEnumeration => "repair-enumeration",
            StrategyKind::ConflictFreeCore => "conflict-free-core",
        }
    }

    /// The guarantee this strategy can honestly attach to its answer for a
    /// query of the given class under the given semantics. Accepts either
    /// the engine's [`Semantics`] or the base [`relmodel::Semantics`].
    pub fn guarantee(self, class: QueryClass, semantics: impl Into<Semantics>) -> Guarantee {
        use Semantics as S;
        let semantics = semantics.into();
        match self {
            // Under CWA the enumerated worlds are exactly `[[D]]_cwa`, so the
            // intersection is the certain answer by definition. Under OWA the
            // enumeration visits finitely many of the infinitely many
            // supersets: for monotone (positive) queries the minimal worlds
            // already attain the intersection, but beyond that fragment
            // intersecting *fewer* worlds can only over-approximate — no
            // false negatives, hence `Complete`. Under the consistent-answer
            // question, an answer computed while ignoring the constraints
            // promises nothing.
            StrategyKind::WorldsGroundTruth => match (class, semantics) {
                (_, S::Cwa) | (QueryClass::Positive, S::Owa) => Guarantee::Exact,
                (_, S::Owa) => Guarantee::Complete,
                (_, S::ConsistentAnswers) => Guarantee::NoGuarantee,
            },
            StrategyKind::ThreeValuedBaseline => Guarantee::NoGuarantee,
            StrategyKind::NaiveExact => {
                if semantics == S::ConsistentAnswers {
                    Guarantee::NoGuarantee
                } else if class.naive_evaluation_sound(semantics.base()) {
                    Guarantee::Exact
                } else if class == QueryClass::RaCwa && semantics == S::Owa {
                    // naïve = certain_cwa ⊇ certain_owa: an over-approximation.
                    Guarantee::Complete
                } else {
                    Guarantee::NoGuarantee
                }
            }
            // The symbolic strategy computes the CWA certain answer exactly
            // (strong representation + a complete solver). Under OWA that
            // answer is exact for the monotone fragment (minimal worlds
            // attain the intersection) and an over-approximation beyond it
            // (CWA worlds are a subset of OWA worlds), mirroring the
            // enumeration guarantee row for row.
            StrategyKind::SymbolicCTable => match (class, semantics) {
                (_, S::Cwa) | (QueryClass::Positive, S::Owa) => Guarantee::Exact,
                (_, S::Owa) => Guarantee::Complete,
                (_, S::ConsistentAnswers) => Guarantee::NoGuarantee,
            },
            StrategyKind::SoundApproximation => match (class, semantics) {
                // naïve alone: certain_cwa over-approximates certain_owa.
                (QueryClass::RaCwa, S::Owa) => Guarantee::Complete,
                // Under OWA, certain answers for full RA are undecidable; no
                // finite evaluation can promise anything.
                (QueryClass::FullRa, S::Owa) => Guarantee::NoGuarantee,
                // Certain answers over the dirty database say nothing about
                // what survives its repairs.
                (_, S::ConsistentAnswers) => Guarantee::NoGuarantee,
                // Exact fragment (under-claims: the answer is in fact exact
                // before the ∩) and full RA under CWA.
                _ => Guarantee::Sound,
            },
            // The repair fold intersects exact per-repair CWA certain
            // answers over the complete repair space: exact for every class
            // — but only as an answer to the consistent-answer question.
            StrategyKind::RepairEnumeration => match semantics {
                S::ConsistentAnswers => Guarantee::Exact,
                S::Cwa | S::Owa => Guarantee::NoGuarantee,
            },
            // Every complete tuple on the interval pair's certain side holds
            // in every world of every repair: sound for every class.
            StrategyKind::ConflictFreeCore => match semantics {
                S::ConsistentAnswers => Guarantee::Sound,
                S::Cwa | S::Owa => Guarantee::NoGuarantee,
            },
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`CertainReport`]'s answer set is worth, relative to the classical
/// certain answer `certain(Q, D)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guarantee {
    /// `answers = certain(Q, D)`.
    Exact,
    /// `answers ⊆ certain(Q, D)`: no false positives, possibly incomplete.
    Sound,
    /// `answers ⊇ certain(Q, D)`: no false negatives, possibly over-full.
    Complete,
    /// No relationship promised (e.g. raw SQL 3VL output).
    NoGuarantee,
}

impl Guarantee {
    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Guarantee::Exact => "exact",
            Guarantee::Sound => "sound",
            Guarantee::Complete => "complete",
            Guarantee::NoGuarantee => "no-guarantee",
        }
    }

    /// May a tuple in the answer set be trusted to be certain?
    pub fn answers_are_certain(self) -> bool {
        matches!(self, Guarantee::Exact | Guarantee::Sound)
    }

    /// Is every certain tuple guaranteed to appear in the answer set?
    pub fn answers_are_complete(self) -> bool {
        matches!(self, Guarantee::Exact | Guarantee::Complete)
    }
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the planner's first-choice strategy is not the one that answered —
/// one structured enum for every fallback the engine can take, rendered via
/// [`fmt::Display`] so reports stay readable without tests ever matching on
/// string fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The symbolic c-table strategy was ruled out at planning time or
    /// punted during execution; the wrapped [`PuntReason`] says why.
    Symbolic(PuntReason),
    /// The conflict graph's repair estimate exceeded the repair budget, so
    /// consistent answering degraded to the conflict-free-core
    /// approximation without enumerating.
    RepairBudget {
        /// The Moon–Moser repair-count estimate.
        estimated: u128,
        /// The configured `max_repairs` budget.
        budget: u128,
    },
    /// Repair enumeration was attempted but aborted, and the engine
    /// degraded to the conflict-free-core approximation; the wrapped
    /// [`RepairAbort`] says what stopped the fold.
    RepairEnumerationAborted(RepairAbort),
}

/// What stopped an attempted repair enumeration mid-fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAbort {
    /// The repair-visit budget fired. (Unreachable from the planner's own
    /// dispatch — the Moon–Moser estimate gating enumeration upper-bounds
    /// the visit count — but an explicitly configured fold can hit it.)
    RepairBudget {
        /// Repairs visited when the budget fired.
        repairs: u128,
        /// The configured maximum.
        budget: u128,
    },
    /// A per-repair certain-answer evaluation blew its world budget (an
    /// incomplete repair whose symbolic evaluation punted).
    PerRepairWorldBudget {
        /// Worlds visited inside the failing repair.
        worlds: u128,
        /// The configured per-repair maximum.
        budget: u128,
    },
    /// A per-repair evaluation failed for another reason (empty valuation
    /// domain, …).
    PerRepairEvaluation,
}

impl fmt::Display for RepairAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairAbort::RepairBudget { repairs, budget } => {
                write!(f, "{repairs} repairs visited exceed the budget of {budget}")
            }
            RepairAbort::PerRepairWorldBudget { worlds, budget } => write!(
                f,
                "a repair's world enumeration visited {worlds} worlds, exceeding the budget of {budget}"
            ),
            RepairAbort::PerRepairEvaluation => {
                write!(f, "a per-repair evaluation failed")
            }
        }
    }
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackReason::Symbolic(reason) => write!(f, "symbolic strategy punted: {reason}"),
            FallbackReason::RepairBudget { estimated, budget } => write!(
                f,
                "estimated {estimated} repairs exceed the budget of {budget}"
            ),
            FallbackReason::RepairEnumerationAborted(abort) => {
                write!(f, "repair enumeration aborted: {abort}")
            }
        }
    }
}

impl FallbackReason {
    /// The symbolic punt, when that is what the fallback was.
    pub fn symbolic_punt(&self) -> Option<PuntReason> {
        match self {
            FallbackReason::Symbolic(reason) => Some(*reason),
            _ => None,
        }
    }
}

/// What the static analyzer contributed to one dispatch: the facts the
/// decision turned on and the upgrades it licensed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalyzerStats {
    /// The whole query is ground (world-invariant given the null census).
    pub ground: bool,
    /// The whole query is instance-monotone.
    pub monotone: bool,
    /// The analyzer upgraded the verdict beyond the class-based theorem:
    /// the class alone did not license `NaiveExact`/`Exact`, but groundness
    /// (or subtree inlining) did.
    pub upgraded: bool,
    /// Under OWA, monotonicity let the planner dispatch with the CWA rules
    /// (`certain_owa = certain_cwa` for monotone queries).
    pub owa_as_cwa: bool,
    /// Ground proper subtrees evaluated plainly and inlined as complete
    /// literals before strategy execution.
    pub inlined_subtrees: usize,
}

/// The result of [`crate::Engine::analyze`]: the static verdict on a query
/// over this engine's database — no evaluation performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The syntactic class the classifier assigns.
    pub class: QueryClass,
    /// The analyzer's whole-query facts (groundness, monotonicity,
    /// per-column nullability, split class, …).
    pub facts: NodeFacts,
    /// Is naïve evaluation provably exact for this query on this database
    /// under the engine's semantics?
    pub certainty_preserving: bool,
    /// The strategy the planner would dispatch to.
    pub strategy: StrategyKind,
    /// The guarantee that dispatch would carry.
    pub guarantee: Guarantee,
    /// Lint findings (`QL001` …), plan order, constraint findings last.
    pub diagnostics: Vec<Diagnostic>,
    /// The logical plan annotated with per-node facts and lint codes.
    pub annotated: String,
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "class: {} | dispatch: {} ({})",
            self.class, self.strategy, self.guarantee
        )?;
        write!(f, "{}", self.annotated)?;
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Per-phase timing and planner telemetry for one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Time to parse (if textual), typecheck and classify the query.
    pub plan_time: Duration,
    /// Time spent walking the dispatch chain: the strategy that answered,
    /// plus any step that punted or aborted before it.
    pub execute_time: Duration,
    /// End-to-end time of the engine call.
    pub total_time: Duration,
    /// Number of distinct marked nulls in the database.
    pub nulls: usize,
    /// The planner's `|domain|^|nulls|` world-count estimate, when ground
    /// truth was considered.
    pub estimated_worlds: Option<u128>,
    /// Worlds actually **visited** by the streaming fold, when the worlds
    /// strategy ran. Early exit can make this far smaller than the estimate,
    /// and so can a fold that took one null component at a time: it counts
    /// component valuations (`releval::worlds::WorldExecution::components`).
    pub worlds_enumerated: Option<u128>,
    /// Of the visited worlds, how many were evaluated as valuation overlays
    /// through the batched split executor (stable subresults and hash
    /// tables shared across the shard) rather than materialized databases,
    /// when the worlds strategy ran. Equal to
    /// [`EngineStats::worlds_enumerated`] on the default path.
    pub worlds_batched: Option<u128>,
    /// True when exhaustive mode was requested but the budget forced the
    /// planner to degrade to the sound approximation.
    pub degraded: bool,
    /// Did the streaming world fold stop early because its running
    /// intersection emptied? Early exit only ever fires on an empty certain
    /// answer, so a `true` here never costs correctness.
    pub world_early_exit: bool,
    /// Worker threads the streaming world fold sharded valuations across,
    /// when the worlds strategy ran.
    pub world_threads: Option<usize>,
    /// Upper bound on worlds concurrently materialized by the fold (one per
    /// worker, plus one OWA extension per worker), when the worlds strategy
    /// ran — the O(threads) memory face of the streaming engine.
    pub peak_worlds_in_flight: Option<usize>,
    /// The static analyzer's contribution to the dispatch, when the planner
    /// consulted it (every certain-answer dispatch; `None` for forced
    /// strategies and the repair strategies).
    pub analyzer: Option<AnalyzerStats>,
    /// Condition atoms across the conditional answer table, when the
    /// symbolic strategy ran — the paper's "hardly meaningful to humans"
    /// size measure, and the polynomial cost face of the symbolic engine.
    pub condition_atoms: Option<usize>,
    /// Certainty-solver questions asked, when the symbolic strategy ran —
    /// the honest "units evaluated" figure to set against
    /// [`EngineStats::worlds_enumerated`].
    pub solver_calls: Option<usize>,
    /// Solver questions settled by constant folding alone (no search),
    /// when the symbolic strategy ran.
    pub simplification_wins: Option<usize>,
    /// Branching decisions the solver's search took across all questions,
    /// when the symbolic strategy ran — the unit its budget counts.
    pub solver_decisions: Option<usize>,
    /// Why the planner's first choice was not the strategy that answered —
    /// a symbolic punt, a blown repair budget, an aborted enumeration: the
    /// explicit fallback trail. `None` when the first choice answered.
    pub fallback: Option<FallbackReason>,
    /// Constraint violations witnessed in the database, when consistent
    /// answering ran (`Some(0)` means the constraints were checked and the
    /// database is clean).
    pub violations: Option<usize>,
    /// Tuples in at least one binary conflict edge, when consistent
    /// answering ran.
    pub conflict_tuples: Option<usize>,
    /// The planner's Moon–Moser repair-count estimate, when repair
    /// enumeration was considered.
    pub estimated_repairs: Option<u128>,
    /// Repairs actually visited by the streaming fold, when the
    /// repair-enumeration strategy ran. When the fold factorized (a plan
    /// linear in the conflict vertices, over a complete database), these
    /// are **local** repairs: the sum over conflict components of each
    /// component's maximal independent sets, not their product.
    pub repairs_enumerated: Option<u128>,
    /// Of the visited repairs, how many were evaluated as survival masks
    /// through the batched split executor, when the repair-enumeration
    /// strategy ran. Equal to [`EngineStats::repairs_enumerated`] for
    /// complete inputs; zero when nulls force the materializing path.
    pub repairs_batched: Option<u128>,
    /// Did the repair fold stop early because its running intersection
    /// emptied? Early exit only ever fires on an empty consistent answer.
    pub repair_early_exit: bool,
    /// The `EXPLAIN` rendering of the physical plan the strategies execute —
    /// join fusion, pushdowns and all. Filled for every planned query.
    pub plan_text: String,
    /// Physical-operator telemetry (operators run, hash joins, build/probe
    /// rows, symbolic fallback pairs), when a physical-executing strategy
    /// ran. For the worlds strategy this aggregates across every per-world
    /// execution; `None` for the 3VL baseline, which keeps its own
    /// deliberately naïve interpreter.
    pub physical_ops: Option<OpStats>,
    /// The report was served from a service's certain-answer result cache
    /// (no strategy executed for this call; the timing fields describe the
    /// original computation). Always `false` for a direct [`crate::Engine`]
    /// call — only `serve::CertainService` sets it.
    pub cache_hit: bool,
    /// The plan came from a service's plan cache (parse + typecheck + lower
    /// were skipped for this call). Always `false` for a direct engine call.
    pub plan_cache_hit: bool,
    /// The snapshot version the answer was computed against, when a
    /// snapshot-versioned service answered. `None` for a direct engine call.
    pub snapshot_version: Option<u64>,
    /// The query's span tree — phase timings (plan, analyze + dispatch,
    /// execute), the executed strategy with its counters as span fields, and
    /// one child span per worker shard of an enumeration fold. Recorded only
    /// when [`crate::EngineOptions::trace`] is on; `None` otherwise, so the
    /// disabled path allocates nothing.
    pub trace: Option<obs::Span>,
}

impl EngineStats {
    /// A one-line rendering of the run: phase times, enumeration/cache
    /// flags, and the degradation marker — the log-line counterpart of the
    /// full `Debug` dump, used by the serve tour and the bench harness.
    pub fn summary(&self) -> String {
        use fmt::Write as _;
        let mut out = format!(
            "plan {:?} · exec {:?} · total {:?}",
            self.plan_time, self.execute_time, self.total_time
        );
        if let Some(worlds) = self.worlds_enumerated {
            let _ = write!(out, " · worlds {worlds}");
        }
        if let Some(calls) = self.solver_calls {
            let _ = write!(out, " · solver calls {calls}");
        }
        if let Some(decisions) = self.solver_decisions {
            let _ = write!(out, " · solver decisions {decisions}");
        }
        if let Some(repairs) = self.repairs_enumerated {
            let _ = write!(out, " · repairs {repairs}");
        }
        if self.degraded {
            out.push_str(" · degraded");
        }
        if self.cache_hit {
            out.push_str(" · cache hit");
        } else if self.plan_cache_hit {
            out.push_str(" · plan cache hit");
        }
        if let Some(version) = self.snapshot_version {
            let _ = write!(out, " · v{version}");
        }
        out
    }
}

/// The result of [`crate::Engine::explain_analyze`]: the physical plan with
/// measured per-node execution spliced into each operator line, plus the raw
/// profiles for programmatic use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainAnalyze {
    /// The annotated `EXPLAIN` rendering — each operator line carries
    /// `(rows=…, batches=…, tables_reused=…, time=…)` — followed by a
    /// `-- `-prefixed footer with the whole run's time, answer size, and
    /// aggregate operator telemetry.
    pub annotated: String,
    /// The per-node profiles, in completion (post) order — the root last.
    /// Times are inclusive of each node's subtree.
    pub profiles: Vec<NodeProfile>,
    /// Aggregate operator telemetry for the measured run.
    pub op_stats: OpStats,
    /// Wall-clock of the measured execution (the root profile's time is
    /// within this; the difference is final result materialization).
    pub execute_time: Duration,
    /// Rows in the measured (naïve, set-semantics) answer.
    pub rows: usize,
}

impl ExplainAnalyze {
    /// The profile of the plan's root node, when the plan is non-empty.
    pub fn root_profile(&self) -> Option<&NodeProfile> {
        self.profiles.last()
    }
}

impl fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.annotated)
    }
}

/// The engine's answer to a query: the tuples, the strategy that produced
/// them, and the guarantee they carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertainReport {
    /// The (classical, null-free) certain-answer estimate — exactly what the
    /// [`Guarantee`] says it is.
    pub answers: Relation,
    /// The raw evaluator output, where the strategy has one: the object-level
    /// naïve answer (nulls included) for [`StrategyKind::NaiveExact`], the
    /// literal SQL answer for [`StrategyKind::ThreeValuedBaseline`].
    pub object_answer: Option<Relation>,
    /// Which evaluator answered.
    pub strategy: StrategyKind,
    /// What the answer set is worth.
    pub guarantee: Guarantee,
    /// The syntactic class the classifier assigned.
    pub class: QueryClass,
    /// The possible-world semantics the query was answered under.
    pub semantics: Semantics,
    /// Per-phase timing and planner telemetry.
    pub stats: EngineStats,
}

impl CertainReport {
    /// For Boolean (arity-0) queries: is the query certainly true / certainly
    /// false, insofar as the guarantee allows concluding it?
    ///
    /// * `Some(true)` — the answer set is nonempty and carries no false
    ///   positives, so the query holds in every world.
    /// * `Some(false)` — the answer set is empty and carries no false
    ///   negatives, so the query fails in some world.
    /// * `None` — the guarantee is too weak to conclude either.
    pub fn certain_true(&self) -> Option<bool> {
        if !self.answers.is_empty() && self.guarantee.answers_are_certain() {
            Some(true)
        } else if self.answers.is_empty() && self.guarantee.answers_are_complete() {
            Some(false)
        } else {
            None
        }
    }

    /// One line saying what was answered and how: strategy, guarantee,
    /// answer size, and the stats summary. The serve and observe tours print
    /// this instead of hand-assembling the same fields.
    pub fn summary(&self) -> String {
        format!(
            "{} | {} | {} tuple(s) | {}",
            self.strategy,
            self.guarantee,
            self.answers.len(),
            self.stats.summary()
        )
    }
}

impl fmt::Display for CertainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} | {} | {} | {} tuple(s) in {:?}]",
            self.answers,
            self.strategy,
            self.guarantee,
            self.class,
            self.answers.len(),
            self.stats.total_time
        )
    }
}
