//! Symbolic certain answers via conditional tables — **polynomial per
//! output tuple**, no world enumeration.
//!
//! The paper's §2 recalls that c-tables are a *strong representation
//! system*: `eval_ctable(Q, lift(D))` is a conditional table whose worlds
//! are exactly `Q([[D]]_cwa)`. This module turns that representation
//! theorem into an evaluation strategy for the classes where naïve
//! evaluation has no guarantee:
//!
//! 1. **Lift** the input [`Database`] to a `ConditionalDatabase` (every
//!    tuple conditioned on `true`).
//! 2. **Evaluate** the planned query with the Imieliński–Lipski algebra
//!    (`ctables::algebra::eval_ctable_unchecked` — the plan already carries
//!    the typecheck).
//! 3. **Extract** certain answers with the certainty solver
//!    (`ctables::condition::solver`): a complete tuple `t` is certain iff
//!    the disjunction `⋁ᵢ (tᵢ = t ∧ cᵢ)` over the answer rows `(tᵢ, cᵢ)` is
//!    **valid** — true under every valuation of the nulls. Validity is
//!    decided by a DPLL-style search over equalities and disequalities on
//!    the infinite constant domain; no valuation is ever enumerated.
//!
//! Only null-free answer rows can be certain (any null-carrying candidate
//! is killed by a valuation sending its nulls to fresh constants), so the
//! candidate set — and with it the number of solver calls — is at most the
//! number of answer rows. Against the possible-world oracle's
//! `|domain|^|nulls|` evaluated worlds, that is the exponential-to-
//! polynomial gap `benches/symbolic.rs` measures.
//!
//! Membership is indexed by candidate: the complete rows are bucketed by
//! their tuple, and the null-bearing rows kept in one list. Only rows whose
//! tuple unifies with `t` can equal it, so `t`'s disjunction covers its own
//! bucket plus the null-bearing rows that unify with it — not every row of
//! the answer. A bucket row whose condition is `true` makes `t` certain
//! with no solver work at all.
//!
//! The strategy computes **CWA** certain answers (the c-table expansion is
//! closed-world): exact for every query class under CWA, and an
//! over-approximation (`⊇`) of the OWA certain answer elsewhere — the
//! dispatching engine only selects it under CWA. It **punts** — explicitly,
//! never wrongly — in two cases, both reported as a [`PuntReason`]:
//! queries whose `Values` literals mention nulls (the c-table algebra would
//! conflate literal nulls with database nulls, the classifier's
//! counterexample), and membership questions whose search exceeds the
//! solver's decision budget. The differential fuzz harness
//! (`tests/symbolic_differential.rs`) replays random workloads of every
//! class against the streaming world oracle to keep all of this honest.

use std::collections::HashMap;

use ctables::condition::solver::{CertaintySolver, SolverPunt};
use ctables::condition::Condition;
use ctables::ctable::{ConditionalDatabase, ConditionalTuple};
use relalgebra::classify::has_incomplete_values;
use relalgebra::plan::PlannedQuery;
use relmodel::{Database, Relation, Tuple};

use crate::exec::columnar::ctable::execute_ctable_counted;
use crate::exec::OpStats;

/// Options governing the symbolic strategy — exactly the certainty solver's
/// budget, re-exported under the strategy's name: the solver *is* the only
/// tunable (and puntable) part of the pipeline.
pub use ctables::condition::solver::SolverOptions as SymbolicOptions;

/// Why the symbolic strategy declined to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PuntReason {
    /// The query contains a `Values` literal mentioning nulls: possible
    /// worlds value database nulls but leave query literals untouched,
    /// while the c-table algebra would equate the two syntactically —
    /// answering would be unsound, so the strategy refuses.
    NullValuesLiteral,
    /// The certainty solver's decision budget fired.
    SolverBudget {
        /// The configured maximum.
        budget: usize,
    },
}

impl std::fmt::Display for PuntReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PuntReason::NullValuesLiteral => {
                write!(f, "query contains a Values literal with nulls")
            }
            PuntReason::SolverBudget { budget } => write!(
                f,
                "condition solver needed more than the budget of {budget} decisions"
            ),
        }
    }
}

/// Telemetry from one symbolic certain-answer execution — the polynomial
/// counterpart of `worlds::WorldExecution`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicExecution {
    /// The CWA certain answer.
    pub answers: Relation,
    /// Rows of the conditional answer table.
    pub rows: usize,
    /// Condition atoms across the answer table (the paper's "hardly
    /// meaningful to humans" size measure).
    pub condition_atoms: usize,
    /// Distinct null-free candidate tuples the solver was asked about.
    pub candidates: usize,
    /// Validity questions asked — the "units evaluated" figure to compare
    /// against worlds visited.
    pub solver_calls: usize,
    /// Questions the solver's constant folding settled without a search.
    pub simplification_wins: usize,
    /// Branching decisions the solver's search took across all questions.
    pub solver_decisions: usize,
    /// Physical-operator telemetry from the c-table execution (the algebra
    /// runs on the same hash-join operator core as every other strategy).
    pub op_stats: OpStats,
}

/// The outcome of a symbolic evaluation: an answer, or an explicit punt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicOutcome {
    /// The strategy answered; the answer is the exact CWA certain answer.
    Answered(SymbolicExecution),
    /// The strategy declined, and says why. Never a wrong answer.
    Punted(PuntReason),
}

/// The symbolic certain answer for a pre-typechecked plan: lift, evaluate
/// through the c-table algebra, extract certain tuples with the certainty
/// solver. Computes the **CWA** certain answer; see the module docs for the
/// guarantee this does (and does not) give under OWA.
pub fn symbolic_certain_answer(
    plan: &PlannedQuery,
    db: &Database,
    opts: &SymbolicOptions,
) -> SymbolicOutcome {
    if has_incomplete_values(plan.expr()) {
        return SymbolicOutcome::Punted(PuntReason::NullValuesLiteral);
    }
    let cdb = ConditionalDatabase::from_database(db);
    // The c-table algebra re-expressed on the physical operator core: the
    // same lowered plan every other strategy runs, with condition-carrying
    // rows and hash equi-joins on ground keys.
    let (answer, op_stats) = execute_ctable_counted(plan.physical(), &cdb);
    let mut solver = CertaintySolver::new(*opts);

    // Only null-free rows can name certain tuples: a valuation sending every
    // null to a fresh constant turns a null-carrying row into a tuple no
    // fixed candidate equals. The candidates are the buckets of complete
    // rows, in first-seen order.
    let mut bucket_of: HashMap<&Tuple, usize> = HashMap::new();
    let mut buckets: Vec<(&Tuple, Vec<&Condition>)> = Vec::new();
    let mut symbolic_rows: Vec<&ConditionalTuple> = Vec::new();
    for row in answer.rows() {
        if !row.tuple.is_complete() {
            symbolic_rows.push(row);
            continue;
        }
        let bucket = *bucket_of.entry(&row.tuple).or_insert_with(|| {
            buckets.push((&row.tuple, Vec::new()));
            buckets.len() - 1
        });
        buckets[bucket].1.push(&row.condition);
    }

    let mut certain = Relation::new(answer.arity());
    let candidate_count = buckets.len();
    for (t, conditions) in buckets {
        if conditions.contains(&&Condition::True) {
            certain.insert(t.clone());
            continue;
        }
        // t is certain iff it is produced by *some* row in *every* world:
        // validity of ⋁ᵢ (tᵢ = t ∧ cᵢ) over the rows that can equal t,
        // relative to the global condition (the lifted database's global
        // is `true`; entailment keeps this correct for any global-carrying
        // caller).
        let membership = Condition::Or(
            conditions
                .into_iter()
                .cloned()
                .chain(
                    symbolic_rows
                        .iter()
                        .filter(|row| unifies(&row.tuple, t))
                        .map(|row| {
                            row.condition
                                .clone()
                                .and(Condition::tuples_equal(&row.tuple, t))
                        }),
                )
                .collect(),
        );
        match solver.entails(&cdb.global, &membership) {
            Ok(true) => {
                certain.insert(t.clone());
            }
            Ok(false) => {}
            Err(SolverPunt::DecisionBudgetExceeded { budget }) => {
                return SymbolicOutcome::Punted(PuntReason::SolverBudget { budget });
            }
        }
    }
    let stats = solver.stats();
    SymbolicOutcome::Answered(SymbolicExecution {
        answers: certain,
        rows: answer.len(),
        condition_atoms: answer.condition_atoms(),
        candidates: candidate_count,
        solver_calls: stats.calls,
        simplification_wins: stats.simplification_wins,
        solver_decisions: stats.decisions,
        op_stats,
    })
}

/// Can some valuation make the (null-bearing) tuple `row` equal the complete
/// tuple `t`? Every constant must match, and every null must meet a single
/// constant wherever it occurs.
fn unifies(row: &Tuple, t: &Tuple) -> bool {
    let (row, t) = (row.values(), t.values());
    row.iter().zip(t).enumerate().all(|(i, (r, c))| {
        if r.is_null() {
            row[..i]
                .iter()
                .zip(t)
                .all(|(earlier, d)| earlier != r || d == c)
        } else {
            r == c
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::{certain_answer_worlds, WorldOptions};
    use relalgebra::ast::RaExpr;
    use relmodel::builder::{difference_example, orders_and_payments_example};
    use relmodel::{DatabaseBuilder, Semantics, Value};

    fn planned(expr: &RaExpr, db: &Database) -> PlannedQuery {
        PlannedQuery::new(expr.clone(), db.schema()).unwrap()
    }

    fn symbolic(expr: &RaExpr, db: &Database) -> SymbolicExecution {
        match symbolic_certain_answer(&planned(expr, db), db, &SymbolicOptions::default()) {
            SymbolicOutcome::Answered(exec) => exec,
            SymbolicOutcome::Punted(reason) => panic!("unexpected punt: {reason}"),
        }
    }

    #[test]
    fn difference_example_matches_ground_truth_without_worlds() {
        // R = {1,2}, S = {⊥}: certain(R − S) = ∅ — the paper's §2 example.
        let db = difference_example();
        let q = RaExpr::relation("R").difference(RaExpr::relation("S"));
        let exec = symbolic(&q, &db);
        assert!(exec.answers.is_empty());
        assert_eq!(exec.candidates, 2, "rows 1 and 2 are candidates");
        assert!(exec.solver_calls >= 2);
        assert_eq!(
            exec.answers,
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap()
        );
    }

    #[test]
    fn unpaid_orders_certainly_exist_but_no_specific_order_does() {
        let db = orders_and_payments_example();
        let unpaid = RaExpr::relation("Order")
            .project(vec![0])
            .difference(RaExpr::relation("Pay").project(vec![1]));
        assert!(symbolic(&unpaid, &db).answers.is_empty());
        // The Boolean version ("is some order unpaid?") is certainly true —
        // a disjunctive fact world enumeration needs every world for, and
        // the solver settles with one validity query.
        let exists = unpaid.project(vec![]);
        let exec = symbolic(&exists, &db);
        assert_eq!(exec.answers.len(), 1);
        assert!(exec.answers.contains(&Tuple::empty()));
    }

    #[test]
    fn tautology_selection_is_certain() {
        // SQL's 3VL drops this row; the symbolic strategy proves it certain.
        let db = orders_and_payments_example();
        let q = qparser_free_tautology();
        let exec = symbolic(&q, &db);
        assert_eq!(exec.answers.len(), 1);
        assert!(exec.answers.contains(&Tuple::strs(&["pid1"])));
    }

    /// σ_{#1='oid1' ∨ #1≠'oid1'}(Pay) projected to the payment id, built
    /// without the parser (releval does not depend on qparser).
    fn qparser_free_tautology() -> RaExpr {
        use relalgebra::predicate::{Operand, Predicate};
        RaExpr::relation("Pay")
            .select(
                Predicate::eq(Operand::col(1), Operand::str("oid1"))
                    .or(Predicate::neq(Operand::col(1), Operand::str("oid1"))),
            )
            .project(vec![0])
    }

    #[test]
    fn null_values_literals_punt_instead_of_conflating() {
        // D = { R(1, ⊥0) }, Q joins a literal ⊥0 against the database ⊥0:
        // the c-table algebra would equate them syntactically; the strategy
        // must refuse.
        use relalgebra::predicate::{Operand, Predicate};
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .build();
        let lit = RaExpr::values(Relation::from_tuples(
            2,
            vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
        ));
        let q = RaExpr::relation("R")
            .product(lit)
            .select(Predicate::eq(Operand::col(1), Operand::col(2)))
            .project(vec![0, 3]);
        let plan = planned(&q, &db);
        assert_eq!(
            symbolic_certain_answer(&plan, &db, &SymbolicOptions::default()),
            SymbolicOutcome::Punted(PuntReason::NullValuesLiteral)
        );
    }

    #[test]
    fn solver_budget_punt_is_reported() {
        // A difference tower leaves a disjunction in the membership
        // question that propagation cannot settle; a zero-decision budget
        // must punt, not hang or lie.
        let db = difference_example();
        let q = RaExpr::relation("R")
            .difference(RaExpr::relation("S"))
            .difference(RaExpr::relation("S").difference(RaExpr::relation("R")));
        let starved = SymbolicOptions { max_decisions: 0 };
        match symbolic_certain_answer(&planned(&q, &db), &db, &starved) {
            SymbolicOutcome::Punted(PuntReason::SolverBudget { budget: 0 }) => {}
            other => panic!("expected a solver-budget punt, got {other:?}"),
        }
        // The default budget answers it with a real search, and agrees with
        // the oracle.
        let exec = symbolic(&q, &db);
        assert!(exec.solver_decisions > 0);
        assert_eq!(
            exec.answers,
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap()
        );
    }

    #[test]
    fn null_rows_join_every_candidate_they_unify_with() {
        // R = {1}, S = {⊥0}, Q = (R − S) ∪ S. The complete row (1) carries
        // ⊥0 ≠ 1 and the null row (⊥0) covers the other case, so (1) is
        // certain only through ⊥0 ≠ 1 ∨ ⊥0 = 1: an index over equal ground
        // tuples alone would drop it.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .ints("R", &[1])
            .tuple("S", vec![Value::null(0)])
            .build();
        let q = RaExpr::relation("R")
            .difference(RaExpr::relation("S"))
            .union(RaExpr::relation("S"));
        let exec = symbolic(&q, &db);
        assert_eq!(
            exec.answers,
            Relation::from_tuples(1, vec![Tuple::ints(&[1])])
        );
        assert_eq!(exec.candidates, 1);
        assert_eq!(
            exec.answers,
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap()
        );
    }

    #[test]
    fn unification_respects_repeated_nulls_and_constants() {
        let t = Tuple::ints(&[1, 2]);
        let row = |a: Value, b: Value| Tuple::new(vec![a, b]);
        assert!(unifies(&row(Value::null(0), Value::null(1)), &t));
        assert!(unifies(&row(Value::int(1), Value::null(0)), &t));
        assert!(!unifies(&row(Value::null(0), Value::null(0)), &t));
        assert!(!unifies(&row(Value::int(2), Value::null(0)), &t));
        assert!(unifies(
            &row(Value::null(0), Value::null(0)),
            &Tuple::ints(&[3, 3])
        ));
    }

    #[test]
    fn int_str_distinct_constants_regression() {
        // ⊥0 may be valued to Int(1) or Str("1"): neither makes R ∩ {(1)}
        // certain — the PR 2 world-dedup regression class, now exercised
        // through the solver.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("S", vec![Value::int(1)])
            .tuple("S", vec![Value::str("1")])
            .build();
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[1])]));
        let q = RaExpr::relation("R").intersection(lit);
        let exec = symbolic(&q, &db);
        assert!(exec.answers.is_empty(), "got {}", exec.answers);
    }

    #[test]
    fn complete_databases_shortcut_through_simplification() {
        // With no nulls every condition is ground: constant folding settles
        // every candidate and the solver never searches.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .ints("R", &[1])
            .ints("R", &[2])
            .ints("S", &[2])
            .build();
        let q = RaExpr::relation("R").difference(RaExpr::relation("S"));
        let exec = symbolic(&q, &db);
        assert_eq!(exec.answers.len(), 1);
        assert!(exec.answers.contains(&Tuple::ints(&[1])));
        assert_eq!(exec.simplification_wins, exec.solver_calls);
    }
}
