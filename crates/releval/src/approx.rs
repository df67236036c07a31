//! Sound approximation of certain answers for **full** relational algebra
//! under CWA, by pair evaluation.
//!
//! Beyond the fragment where naïve evaluation is exact, certain answers are
//! coNP-hard (paper §2), and neither naïve evaluation nor SQL's 3VL is even
//! *sound*: each can return tuples that are not certain. Following the
//! approximation-scheme line of work that grew out of this paper (Guagliardo
//! & Libkin, "Making SQL queries correct on incomplete databases", PODS
//! 2016), this module evaluates every subexpression to a **pair** of
//! relations:
//!
//! * `certain` — an under-approximation: for every valuation `v`, each tuple
//!   `t` here satisfies `v(t) ∈ Q(v(D))`;
//! * `possible` — an over-approximation: every tuple of `Q(v(D))`, for any
//!   `v`, is `v(s)` for some `s` here.
//!
//! The two sides feed each other exactly where naïveté goes wrong: a tuple is
//! *certainly* in `A − B` only if it is certainly in `A` and **unifies with
//! nothing possibly in** `B`; it is *possibly* in `A − B` unless it is
//! certainly in `B`. Selections use the marked-null-aware three-valued
//! predicate semantics ([`Predicate::eval_3vl_marked`](relalgebra::predicate::Predicate::eval_3vl_marked)): its `True` holds
//! under every valuation, its `False` under none.
//!
//! The classical (null-free) sound certain answer is
//! `eval_approx(..).certain.complete_part()`; the engine's
//! `SoundApproximation` strategy is this computation.

use std::collections::BTreeMap;

use relalgebra::ast::RaExpr;
use relalgebra::typecheck::output_arity;
use relmodel::value::{Constant, NullId, Value};
use relmodel::{Database, Relation, Tuple};

use crate::error::EvalError;
use crate::exec::delta_diagonal;

/// The result of pair evaluation: an under- and an over-approximation of the
/// query's answer across all valuations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproxAnswer {
    /// Under-approximation: tuples certainly in the answer (object-level —
    /// may contain nulls; take [`Relation::complete_part`] for the classical
    /// certain answer).
    pub certain: Relation,
    /// Over-approximation: a cover of every possible answer tuple.
    pub possible: Relation,
}

/// Pair-evaluates an expression after typechecking it.
pub fn eval_approx(expr: &RaExpr, db: &Database) -> Result<ApproxAnswer, EvalError> {
    output_arity(expr, db.schema())?;
    Ok(eval_approx_unchecked(expr, db))
}

/// Pair-evaluates without re-running the type checker (callers guarantee the
/// expression type-checks against the database schema).
pub fn eval_approx_unchecked(expr: &RaExpr, db: &Database) -> ApproxAnswer {
    eval_approx_between_unchecked(expr, db, db)
}

/// Pair-evaluates over an **interval** of databases: the certain side reads
/// every leaf from `lower`, the possible side from `upper` (both must
/// type-check the expression). For any database `D` with `lower ⊆ D ⊆
/// upper` (tuple-wise, same schema) and any valuation `v`, the invariant
/// `v(certain) ⊆ Q(v(D)) ⊆ v(possible)` holds at every node by the same
/// induction that proves the single-database evaluator sound — only the
/// leaf case changes, and there `v(lower_R) ⊆ v(D_R) ⊆ v(upper_R)` is
/// immediate.
///
/// Consistent query answering relies on this: every subset-repair of an
/// inconsistent database lies between its conflict-free core (`lower`) and
/// the database minus its doomed tuples (`upper`). This is the reference
/// the columnar `execute_approx_between` is differentially tested against;
/// with `lower == upper` it is [`eval_approx_unchecked`].
pub fn eval_approx_between_unchecked(
    expr: &RaExpr,
    lower: &Database,
    upper: &Database,
) -> ApproxAnswer {
    let eval = |e: &RaExpr| eval_approx_between_unchecked(e, lower, upper);
    match expr {
        RaExpr::Relation(name) => {
            let expect = "type checker guarantees the relation exists";
            ApproxAnswer {
                certain: lower.relation(name).expect(expect).clone(),
                possible: upper.relation(name).expect(expect).clone(),
            }
        }
        RaExpr::Values(rel) => ApproxAnswer {
            // Literal nulls are *rigid*: possible worlds value the nulls of
            // the database, never those of the query, so a literal ⊥ᵢ is
            // never certainly equal to anything — putting it on the certain
            // side would let downstream operators (e.g. a selection equating
            // it with a database ⊥ᵢ) derive complete tuples that hold in no
            // world. Only the complete literal tuples are certain; the full
            // literal stays on the possible side, where treating its nulls
            // as bindable merely over-covers (which is the sound direction).
            certain: rel.complete_part(),
            possible: rel.clone(),
        },
        RaExpr::Delta => {
            // The diagonal over the active domain: (x, x) is certainly in Δ
            // for every x occurring in the database, and every world's
            // diagonal entry is the valuation of one of them.
            ApproxAnswer {
                certain: Relation::from_tuples(2, delta_diagonal(lower)),
                possible: Relation::from_tuples(2, delta_diagonal(upper)),
            }
        }
        RaExpr::Select(e, p) => {
            let input = eval(e);
            let mut certain = Relation::new(input.certain.arity());
            for t in input.certain.iter() {
                if p.eval_3vl_marked(t).is_true() {
                    certain.insert(t.clone());
                }
            }
            let mut possible = Relation::new(input.possible.arity());
            for t in input.possible.iter() {
                // Keep unless certainly false: some valuation may satisfy p.
                if p.eval_3vl_marked(t) != relmodel::value::Truth::False {
                    possible.insert(t.clone());
                }
            }
            ApproxAnswer { certain, possible }
        }
        RaExpr::Project(e, cols) => {
            let input = eval(e);
            ApproxAnswer {
                certain: project(&input.certain, cols),
                possible: project(&input.possible, cols),
            }
        }
        RaExpr::Product(a, b) => {
            let left = eval(a);
            let right = eval(b);
            ApproxAnswer {
                certain: product(&left.certain, &right.certain),
                possible: product(&left.possible, &right.possible),
            }
        }
        RaExpr::Union(a, b) => {
            let left = eval(a);
            let right = eval(b);
            ApproxAnswer {
                certain: left.certain.union(&right.certain),
                possible: left.possible.union(&right.possible),
            }
        }
        RaExpr::Intersection(a, b) => {
            let left = eval(a);
            let right = eval(b);
            // Certainly in both: syntactic equality is the only certain
            // equality across valuations.
            let certain = left.certain.intersection(&right.certain);
            // Possibly in both: some valuation makes t equal to a tuple
            // possibly in the right side.
            let mut possible = Relation::new(left.possible.arity());
            for t in left.possible.iter() {
                if right.possible.iter().any(|s| unifiable(t, s)) {
                    possible.insert(t.clone());
                }
            }
            ApproxAnswer { certain, possible }
        }
        RaExpr::Difference(a, b) => {
            let left = eval(a);
            let right = eval(b);
            // Certainly in A and not even *possibly* equal to anything
            // possibly in B.
            let mut certain = Relation::new(left.certain.arity());
            for t in left.certain.iter() {
                if !right.possible.iter().any(|s| unifiable(t, s)) {
                    certain.insert(t.clone());
                }
            }
            // Possibly in A and not certainly in B.
            let mut possible = Relation::new(left.possible.arity());
            for t in left.possible.iter() {
                if !right.certain.contains(t) {
                    possible.insert(t.clone());
                }
            }
            ApproxAnswer { certain, possible }
        }
        RaExpr::Divide(a, b) => {
            let dividend = eval(a);
            let divisor = eval(b);
            let prefix_arity = dividend.certain.arity() - divisor.certain.arity();
            let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
            // A prefix is certainly in A ÷ B if pairing it with anything
            // possibly in B lands certainly in A.
            let mut certain = Relation::new(prefix_arity);
            for t in dividend.certain.iter() {
                let prefix = t.project(&prefix_cols);
                if divisor
                    .possible
                    .iter()
                    .all(|s| dividend.certain.contains(&prefix.concat(s)))
                {
                    certain.insert(prefix);
                }
            }
            // Every world's division result is a prefix of that world's
            // dividend, so the possible prefixes cover it.
            ApproxAnswer {
                certain,
                possible: project(&dividend.possible, &prefix_cols),
            }
        }
    }
}

fn project(rel: &Relation, cols: &[usize]) -> Relation {
    Relation::from_tuples(cols.len(), rel.iter().map(|t| t.project(cols)))
}

fn product(a: &Relation, b: &Relation) -> Relation {
    let mut out = Vec::with_capacity(a.len().saturating_mul(b.len()));
    for l in a.iter() {
        for r in b.iter() {
            out.push(l.concat(r));
        }
    }
    Relation::from_tuples(a.arity() + b.arity(), out)
}

/// Is there a valuation `v` with `v(t) = v(s)`?
///
/// Positionally pairs the tuples and solves the resulting equality
/// constraints: constants must match outright, a null may be bound to one
/// constant, and nulls equated with each other form classes (union-find) that
/// may carry at most one constant.
pub fn unifiable(t: &Tuple, s: &Tuple) -> bool {
    if t.arity() != s.arity() {
        return false;
    }
    unifiable_pairs(t.values().iter().zip(s.values().iter()))
}

/// [`unifiable`] over positionally paired values, without requiring
/// materialized tuples — the columnar set operators feed batch rows to this
/// column by column. The caller is responsible for pairing rows of equal
/// arity.
pub fn unifiable_pairs<'a>(pairs: impl IntoIterator<Item = (&'a Value, &'a Value)>) -> bool {
    let mut uf = UnionFind::default();
    for (x, y) in pairs {
        let ok = match (x, y) {
            (Value::Const(a), Value::Const(b)) => a == b,
            (Value::Null(n), Value::Const(c)) | (Value::Const(c), Value::Null(n)) => {
                uf.bind(*n, c.clone())
            }
            (Value::Null(a), Value::Null(b)) => uf.union(*a, *b),
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Union-find over null ids with at most one constant binding per class.
#[derive(Debug, Default)]
struct UnionFind {
    parent: BTreeMap<NullId, NullId>,
    binding: BTreeMap<NullId, Constant>,
}

impl UnionFind {
    fn find(&mut self, n: NullId) -> NullId {
        let p = *self.parent.entry(n).or_insert(n);
        if p == n {
            return n;
        }
        let root = self.find(p);
        self.parent.insert(n, root);
        root
    }

    /// Binds the class of `n` to constant `c`; false on conflict.
    fn bind(&mut self, n: NullId, c: Constant) -> bool {
        let root = self.find(n);
        match self.binding.get(&root) {
            Some(existing) => *existing == c,
            None => {
                self.binding.insert(root, c);
                true
            }
        }
    }

    /// Merges the classes of `a` and `b`; false if their bindings conflict.
    fn union(&mut self, a: NullId, b: NullId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        match (
            self.binding.get(&ra).cloned(),
            self.binding.get(&rb).cloned(),
        ) {
            (Some(x), Some(y)) if x != y => return false,
            (Some(x), None) => {
                self.binding.insert(rb, x);
            }
            _ => {}
        }
        self.parent.insert(ra, rb);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::builder::orders_and_payments_example;
    use relmodel::DatabaseBuilder;

    #[test]
    fn unification_cases() {
        let n = |i| Value::null(i);
        let c = |i| Value::int(i);
        // (⊥0, 1) ~ (2, ⊥1): bind ⊥0=2, ⊥1=1.
        assert!(unifiable(
            &Tuple::new(vec![n(0), c(1)]),
            &Tuple::new(vec![c(2), n(1)])
        ));
        // (⊥0, ⊥0) ~ (1, 2): ⊥0 cannot be both.
        assert!(!unifiable(
            &Tuple::new(vec![n(0), n(0)]),
            &Tuple::new(vec![c(1), c(2)])
        ));
        // (⊥0, ⊥1) ~ (⊥1, ⊥0): one class, no constants — fine.
        assert!(unifiable(
            &Tuple::new(vec![n(0), n(1)]),
            &Tuple::new(vec![n(1), n(0)])
        ));
        // (⊥0, 1, ⊥0) ~ (⊥1, ⊥1, 2): chain forces 1 = 2.
        assert!(!unifiable(
            &Tuple::new(vec![n(0), c(1), n(0)]),
            &Tuple::new(vec![n(1), n(1), c(2)])
        ));
        // Mismatched constants fail immediately.
        assert!(!unifiable(&Tuple::ints(&[1]), &Tuple::ints(&[2])));
        assert!(unifiable(&Tuple::ints(&[1, 2]), &Tuple::ints(&[1, 2])));
        // Arity mismatch never unifies.
        assert!(!unifiable(&Tuple::ints(&[1]), &Tuple::ints(&[1, 1])));
    }

    #[test]
    fn certain_side_fixes_the_naive_difference_failure() {
        // π_A(R − S) with R = {(1,⊥0)}, S = {(1,⊥1)}: naïve evaluation says
        // {1}; the certain answer is ∅ because (1,⊥0) unifies with (1,⊥1).
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["a", "b"])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("S", vec![Value::int(1), Value::null(1)])
            .build();
        let q = RaExpr::relation("R")
            .difference(RaExpr::relation("S"))
            .project(vec![0]);
        let out = eval_approx(&q, &db).unwrap();
        assert!(out.certain.is_empty());
        assert!(out.possible.contains(&Tuple::ints(&[1])));
    }

    #[test]
    fn certain_side_fixes_the_3vl_double_negation_failure() {
        // S − (S − R) with S = {1}, R = {⊥}: SQL's 3VL returns {1} (the inner
        // difference drops 1 because membership is unknown, the outer keeps
        // it), but 1 is not certain — ⊥ may differ from 1.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .ints("S", &[1])
            .tuple("R", vec![Value::null(0)])
            .build();
        let q = RaExpr::relation("S")
            .difference(RaExpr::relation("S").difference(RaExpr::relation("R")));
        let sql = crate::three_valued::eval_3vl(&q, &db).unwrap();
        assert_eq!(sql.len(), 1, "3VL over-reports here");
        let out = eval_approx(&q, &db).unwrap();
        assert!(out.certain.is_empty());
    }

    #[test]
    fn tautological_selection_is_certain() {
        // The paper's §1 tautology: unlike plain 3VL, the marked-null
        // predicate semantics keeps the row with the null order id — the
        // disjunction is true under every valuation... for a *shared* null it
        // is Unknown OR Unknown, so only naïve-style reasoning gets it. The
        // certain side must therefore *not* over-claim either: it may miss
        // the tuple (sound ≠ complete) but never invent one.
        let db = orders_and_payments_example();
        let q = RaExpr::relation("Pay")
            .select(
                Predicate::eq(Operand::col(1), Operand::str("oid1"))
                    .or(Predicate::neq(Operand::col(1), Operand::str("oid1"))),
            )
            .project(vec![0]);
        let out = eval_approx(&q, &db).unwrap();
        let truth = crate::worlds::certain_answer_worlds(
            &q,
            &db,
            relmodel::Semantics::Cwa,
            &crate::worlds::WorldOptions::default(),
        )
        .unwrap();
        assert!(out.certain.complete_part().is_subset(&truth));
    }

    #[test]
    fn agrees_with_naive_on_positive_queries() {
        let db = orders_and_payments_example();
        let q = RaExpr::relation("Order")
            .project(vec![0])
            .union(RaExpr::relation("Pay").project(vec![1]));
        let out = eval_approx(&q, &db).unwrap();
        let naive = crate::naive::eval_naive(&q, &db).unwrap();
        assert_eq!(
            out.certain, naive,
            "positive queries lose nothing in pair evaluation"
        );
        assert_eq!(out.possible, naive);
    }

    #[test]
    fn null_bearing_literals_never_reach_the_certain_side() {
        // D = { R(1, ⊥0) }, Q = π_{0,3}(σ_{#1 = #2}(R × {(⊥0, 7)})): naïve
        // evaluation equates the database ⊥0 with the rigid literal ⊥0 and
        // emits the complete tuple (1, 7), which holds in *no* world. The
        // pair evaluator must keep the literal null off the certain side.
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
        let naive = crate::naive::eval_naive(&q, &db).unwrap();
        assert!(naive.contains(&Tuple::ints(&[1, 7])), "naïve over-reports");
        let out = eval_approx(&q, &db).unwrap();
        assert!(out.certain.is_empty());
        let truth = crate::worlds::certain_answer_worlds(
            &q,
            &db,
            relmodel::Semantics::Cwa,
            &crate::worlds::WorldOptions::default(),
        )
        .unwrap();
        assert!(
            truth.is_empty(),
            "ground truth: the join fails in every world"
        );
    }

    #[test]
    fn division_certain_side_is_sound() {
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 20])
            .ints("S", &[10])
            .ints("S", &[20])
            .build();
        let q = RaExpr::relation("R").divide(RaExpr::relation("S"));
        let out = eval_approx(&q, &db).unwrap();
        assert_eq!(out.certain.len(), 1);
        assert!(out.certain.contains(&Tuple::ints(&[1])));
        assert!(out.possible.contains(&Tuple::ints(&[2])));
    }

    #[test]
    fn typechecks_inputs() {
        let db = orders_and_payments_example();
        assert!(eval_approx(&RaExpr::relation("Nope"), &db).is_err());
    }
}
