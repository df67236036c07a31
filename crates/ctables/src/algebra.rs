//! The Imieliński–Lipski algebra: evaluating full relational algebra directly
//! on conditional databases, producing a conditional table that represents
//! *all* possible answers (the strong representation property).

use relalgebra::ast::RaExpr;
use relalgebra::predicate::{Operand, Predicate};
use relalgebra::typecheck::{output_arity, TypeError};
use relmodel::value::Value;
use relmodel::Tuple;

use crate::condition::Condition;
use crate::ctable::{ConditionalDatabase, ConditionalTable, ConditionalTuple};

/// Evaluates a relational algebra expression over a conditional database,
/// returning a conditional table `A` with `[[A]]_cwa = Q([[D]]_cwa)`.
///
/// The database's global condition is **propagated** into every answer
/// row's local condition, so the answer table is self-contained: rows never
/// survive instantiation under a valuation the database itself rules out.
pub fn eval_ctable(
    expr: &RaExpr,
    cdb: &ConditionalDatabase,
) -> Result<ConditionalTable, TypeError> {
    output_arity(expr, cdb.schema())?;
    Ok(eval_ctable_unchecked(expr, cdb))
}

/// [`eval_ctable`] for an expression that is already known to typecheck
/// against the database's schema (what `relalgebra::plan::PlannedQuery`
/// guarantees): skips the type checker, so a dispatching engine never pays
/// for it twice.
pub fn eval_ctable_unchecked(expr: &RaExpr, cdb: &ConditionalDatabase) -> ConditionalTable {
    eval_unchecked(expr, cdb)
        .and_condition(&cdb.global)
        .simplify()
}

fn eval_unchecked(expr: &RaExpr, cdb: &ConditionalDatabase) -> ConditionalTable {
    match expr {
        RaExpr::Relation(name) => cdb
            .table(name)
            .cloned()
            .expect("type checker guarantees the relation exists"),
        RaExpr::Values(rel) => ConditionalTable::from_relation(rel),
        RaExpr::Delta => {
            let mut out = ConditionalTable::new(2);
            let mut seen = std::collections::BTreeSet::new();
            for (_, table) in cdb.iter() {
                for row in table.rows() {
                    for v in row.tuple.values() {
                        let key = (v.clone(), row.condition.clone());
                        if seen.insert(key) {
                            out.push(ConditionalTuple::new(
                                Tuple::new(vec![v.clone(), v.clone()]),
                                row.condition.clone(),
                            ));
                        }
                    }
                }
            }
            out
        }
        RaExpr::Select(e, p) => {
            let input = eval_unchecked(e, cdb);
            let mut out = ConditionalTable::new(input.arity());
            for row in input.rows() {
                let cond = predicate_condition(p, &row.tuple);
                let combined = row.condition.clone().and(cond);
                if combined != Condition::False {
                    out.push(ConditionalTuple::new(row.tuple.clone(), combined));
                }
            }
            out
        }
        RaExpr::Project(e, cols) => {
            let input = eval_unchecked(e, cdb);
            let mut out = ConditionalTable::new(cols.len());
            for row in input.rows() {
                out.push(ConditionalTuple::new(
                    row.tuple.project(cols),
                    row.condition.clone(),
                ));
            }
            out
        }
        RaExpr::Product(a, b) => {
            let left = eval_unchecked(a, cdb);
            let right = eval_unchecked(b, cdb);
            let mut out = ConditionalTable::new(left.arity() + right.arity());
            for l in left.rows() {
                for r in right.rows() {
                    out.push(ConditionalTuple::new(
                        l.tuple.concat(&r.tuple),
                        l.condition.clone().and(r.condition.clone()),
                    ));
                }
            }
            out
        }
        RaExpr::Union(a, b) => {
            let left = eval_unchecked(a, cdb);
            let right = eval_unchecked(b, cdb);
            let mut out = ConditionalTable::new(left.arity());
            for r in left.rows().iter().chain(right.rows()) {
                out.push(r.clone());
            }
            out
        }
        RaExpr::Difference(a, b) => {
            let left = eval_unchecked(a, cdb);
            let right = eval_unchecked(b, cdb);
            let mut out = ConditionalTable::new(left.arity());
            for l in left.rows() {
                // l is in the answer iff it is present and no right-hand row is
                // present *and equal to it*.
                let mut cond = l.condition.clone();
                for r in right.rows() {
                    let clash = r
                        .condition
                        .clone()
                        .and(Condition::tuples_equal(&l.tuple, &r.tuple));
                    cond = cond.and(clash.negate());
                }
                out.push(ConditionalTuple::new(l.tuple.clone(), cond));
            }
            out
        }
        RaExpr::Intersection(a, b) => {
            let left = eval_unchecked(a, cdb);
            let right = eval_unchecked(b, cdb);
            let mut out = ConditionalTable::new(left.arity());
            for l in left.rows() {
                let mut membership = Condition::False;
                for r in right.rows() {
                    membership = membership.or(r
                        .condition
                        .clone()
                        .and(Condition::tuples_equal(&l.tuple, &r.tuple)));
                }
                out.push(ConditionalTuple::new(
                    l.tuple.clone(),
                    l.condition.clone().and(membership),
                ));
            }
            out
        }
        RaExpr::Divide(a, b) => {
            let dividend = eval_unchecked(a, cdb);
            let divisor = eval_unchecked(b, cdb);
            let prefix_arity = dividend.arity() - divisor.arity();
            let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
            let mut out = ConditionalTable::new(prefix_arity);
            let mut seen_prefixes = std::collections::BTreeSet::new();
            for row in dividend.rows() {
                let prefix = row.tuple.project(&prefix_cols);
                if !seen_prefixes.insert(prefix.clone()) {
                    continue;
                }
                // The prefix is in the answer world iff (1) some dividend row
                // present in the world has this prefix, and (2) for every
                // divisor row present in the world, the combined tuple is
                // present in the dividend world.
                let mut presence = Condition::False;
                for u in dividend.rows() {
                    presence = presence.or(u.condition.clone().and(Condition::tuples_equal(
                        &u.tuple.project(&prefix_cols),
                        &prefix,
                    )));
                }
                let mut universal = Condition::True;
                for s in divisor.rows() {
                    let combined = prefix.concat(&s.tuple);
                    let mut exists = Condition::False;
                    for u in dividend.rows() {
                        exists = exists.or(u
                            .condition
                            .clone()
                            .and(Condition::tuples_equal(&u.tuple, &combined)));
                    }
                    universal = universal.and(s.condition.clone().negate().or(exists));
                }
                out.push(ConditionalTuple::new(prefix, presence.and(universal)));
            }
            out
        }
    }
}

/// Converts a selection predicate, applied to a concrete (possibly
/// null-carrying) tuple, into a condition on nulls. Shared with the
/// physical-plan c-table executor (`releval::exec`), which evaluates the
/// same algebra over hash-joined row streams.
///
/// Ground and trivial atoms fold to `true`/`false` as they are built, and
/// the connectives absorb them, so a selection whose predicate is refuted
/// by a row's constants yields `false` and the row is dropped at once
/// instead of riding through every later operator.
pub fn predicate_condition(p: &Predicate, tuple: &Tuple) -> Condition {
    let resolve = |o: &Operand| -> Value {
        match o {
            Operand::Column(i) => tuple[*i].clone(),
            Operand::Const(c) => Value::Const(c.clone()),
        }
    };
    match p {
        Predicate::True => Condition::True,
        Predicate::False => Condition::False,
        Predicate::Eq(a, b) => Condition::eq(resolve(a), resolve(b)).simplify(),
        Predicate::NotEq(a, b) => Condition::neq(resolve(a), resolve(b)).simplify(),
        Predicate::And(a, b) => predicate_condition(a, tuple).and(predicate_condition(b, tuple)),
        Predicate::Or(a, b) => predicate_condition(a, tuple).or(predicate_condition(b, tuple)),
        Predicate::Not(inner) => predicate_condition(inner, tuple).negate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::builder::difference_example;
    use relmodel::value::Constant;
    use relmodel::{Valuation, Value};
    use std::collections::BTreeSet;

    /// The paper's §2 running example: R = {1,2}, S = {⊥}, query R − S.
    fn paper_setup() -> (ConditionalDatabase, RaExpr) {
        let cdb = ConditionalDatabase::from_database(&difference_example());
        let q = RaExpr::relation("R").difference(RaExpr::relation("S"));
        (cdb, q)
    }

    #[test]
    fn difference_produces_conditions_on_the_null() {
        let (cdb, q) = paper_setup();
        let answer = eval_ctable(&q, &cdb).unwrap();
        // Two rows: 1 with condition ⊥ ≠ 1, 2 with condition ⊥ ≠ 2 — exactly the
        // conditional table of the paper (up to the equivalent formulation
        // "1 if ⊥=1 ∨ ⊥=2 … " discussed there).
        assert_eq!(answer.len(), 2);
        for row in answer.rows() {
            assert_ne!(row.condition, Condition::True);
            assert_eq!(row.condition.atom_count(), 1);
        }
        // Instantiating at ⊥ = 1 keeps only the tuple (2).
        let v = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(1))]);
        let world = answer.instantiate(&v);
        assert_eq!(world.len(), 1);
        assert!(world.contains(&Tuple::ints(&[2])));
        // Instantiating at ⊥ = 7 keeps both.
        let v = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(7))]);
        assert_eq!(answer.instantiate(&v).len(), 2);
    }

    #[test]
    fn select_turns_predicates_into_conditions() {
        let cdb = ConditionalDatabase::from_database(&difference_example());
        let q = RaExpr::relation("S").select(Predicate::eq(Operand::col(0), Operand::int(5)));
        let answer = eval_ctable(&q, &cdb).unwrap();
        assert_eq!(answer.len(), 1);
        assert_eq!(
            answer.rows()[0].condition,
            Condition::eq(Value::null(0), Value::int(5))
        );
    }

    #[test]
    fn union_product_projection() {
        let cdb = ConditionalDatabase::from_database(&difference_example());
        let q = RaExpr::relation("R").union(RaExpr::relation("S"));
        assert_eq!(eval_ctable(&q, &cdb).unwrap().len(), 3);
        let q = RaExpr::relation("R").product(RaExpr::relation("S"));
        let prod = eval_ctable(&q, &cdb).unwrap();
        assert_eq!(prod.len(), 2);
        assert_eq!(prod.arity(), 2);
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .project(vec![1]);
        assert_eq!(eval_ctable(&q, &cdb).unwrap().arity(), 1);
    }

    #[test]
    fn intersection_membership_condition() {
        let cdb = ConditionalDatabase::from_database(&difference_example());
        let q = RaExpr::relation("R").intersection(RaExpr::relation("S"));
        let answer = eval_ctable(&q, &cdb).unwrap();
        // 1 is present iff ⊥ = 1; 2 iff ⊥ = 2.
        assert_eq!(answer.len(), 2);
        let v1 = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(1))]);
        assert_eq!(answer.instantiate(&v1).len(), 1);
        let v7 = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(7))]);
        assert!(answer.instantiate(&v7).is_empty());
    }

    #[test]
    fn division_on_ctables() {
        // R(a,b) = {(1,10), (1,⊥0), (2,10)}, S(b) = {10, 20}.
        // 1 ∈ R ÷ S iff ⊥0 = 20; 2 is never in the answer.
        let db = relmodel::DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .ints("R", &[2, 10])
            .ints("S", &[10])
            .ints("S", &[20])
            .build();
        let cdb = ConditionalDatabase::from_database(&db);
        let q = RaExpr::relation("R").divide(RaExpr::relation("S"));
        let answer = eval_ctable(&q, &cdb).unwrap();
        let with_20 = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(20))]);
        let world = answer.instantiate(&with_20);
        assert_eq!(world.len(), 1);
        assert!(world.contains(&Tuple::ints(&[1])));
        let with_30 = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(30))]);
        assert!(answer.instantiate(&with_30).is_empty());
    }

    #[test]
    fn delta_collects_adom_values() {
        let cdb = ConditionalDatabase::from_database(&difference_example());
        let answer = eval_ctable(&RaExpr::Delta, &cdb).unwrap();
        let values: BTreeSet<Value> = answer
            .rows()
            .iter()
            .map(|r| r.tuple.values()[0].clone())
            .collect();
        assert!(values.contains(&Value::int(1)));
        assert!(values.contains(&Value::int(2)));
        assert!(values.contains(&Value::null(0)));
    }

    #[test]
    fn type_errors_are_reported() {
        let cdb = ConditionalDatabase::from_database(&difference_example());
        assert!(eval_ctable(&RaExpr::relation("Missing"), &cdb).is_err());
    }

    #[test]
    fn global_condition_survives_the_round_trip() {
        // Regression: lifting a relation with `ConditionalTable::from_relation`
        // gives every row condition `true`; evaluating the identity query over
        // a database whose `with_global` condition constrains ⊥0 used to
        // return those unconditional rows verbatim — the answer table had
        // forgotten the global condition, so instantiating it at a valuation
        // the database rules out produced rows from a world that does not
        // exist. The fix propagates the global condition into every answer
        // row.
        let schema = relmodel::Schema::builder().relation("R", &["a"]).build();
        let rel = relmodel::Relation::from_tuples(1, vec![Tuple::ints(&[1])]);
        let mut cdb = ConditionalDatabase::new(schema);
        cdb.set_table("R", ConditionalTable::from_relation(&rel));
        let cdb = cdb.with_global(Condition::eq(Value::null(0), Value::int(0)));

        let answer = eval_ctable(&RaExpr::relation("R"), &cdb).unwrap();
        let violating = Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(7))]);
        assert!(
            answer.instantiate(&violating).is_empty(),
            "the global condition ⊥0 = 0 must gate the answer rows"
        );
        let admissible =
            Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(0))]);
        assert_eq!(answer.instantiate(&admissible).len(), 1);
        // ... and with the default global `true` nothing changes.
        let plain = ConditionalDatabase::from_database(&difference_example());
        let ans = eval_ctable(&RaExpr::relation("R"), &plain).unwrap();
        assert!(ans.rows().iter().all(|r| r.condition == Condition::True));
    }

    #[test]
    fn predicate_conditions_fold_ground_atoms() {
        let p = Predicate::eq(Operand::col(0), Operand::int(2))
            .and(Predicate::eq(Operand::col(1), Operand::col(0)));
        // A constant refutes the first conjunct: the whole selection is
        // `false`, however the null column fares.
        let refuted = Tuple::new(vec![Value::int(5), Value::null(0)]);
        assert_eq!(predicate_condition(&p, &refuted), Condition::False);
        // A satisfied ground atom drops out, leaving the null's atom.
        let open = Tuple::new(vec![Value::int(2), Value::null(0)]);
        assert_eq!(
            predicate_condition(&p, &open),
            Condition::eq(Value::null(0), Value::int(2))
        );
    }
}
