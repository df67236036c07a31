//! Pre-typechecked, pre-classified query plans.
//!
//! A [`PlannedQuery`] bundles a relational algebra expression with the facts
//! every evaluator needs and that are wasteful to recompute per evaluator:
//! its output arity against a fixed schema (the type check), its syntactic
//! [`QueryClass`], and the rewritten [`PhysicalPlan`] the executors run. The
//! evaluation engine typechecks and lowers **once** when the plan is built;
//! downstream strategies trust the plan, skip the checker, and share the
//! physical plan — the worlds strategy in particular lowers once and
//! executes the same physical plan in every possible world.

use std::fmt;

use relmodel::Schema;

use crate::ast::RaExpr;
use crate::classify::{classify, QueryClass};
use crate::physical::PhysicalPlan;
use crate::typecheck::{check_depth, output_arity, TypeError};

/// A typechecked and classified query, bound to the schema it was checked
/// against, carrying its lowered physical plan.
///
/// Construction is the only place arity errors can surface; every accessor is
/// infallible afterwards. The expression is immutable once planned, so the
/// recorded arity, class, and physical plan cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedQuery {
    expr: RaExpr,
    arity: usize,
    class: QueryClass,
    physical: PhysicalPlan,
}

impl PlannedQuery {
    /// Typechecks `expr` against `schema`, classifies it into the smallest
    /// fragment of the paper's taxonomy, and lowers it to a physical plan.
    pub fn new(expr: RaExpr, schema: &Schema) -> Result<Self, TypeError> {
        check_depth(&expr)?;
        let arity = output_arity(&expr, schema)?;
        let class = classify(&expr);
        let physical = PhysicalPlan::lower_unchecked(&expr, schema);
        Ok(PlannedQuery {
            expr,
            arity,
            class,
            physical,
        })
    }

    /// The planned expression.
    pub fn expr(&self) -> &RaExpr {
        &self.expr
    }

    /// The output arity established by the type check.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The syntactic query class (positive / `RA_cwa` / full RA).
    pub fn class(&self) -> QueryClass {
        self.class
    }

    /// The rewritten physical plan — lowered once at construction, shared by
    /// every strategy that executes this query.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// Consumes the plan, returning the underlying expression.
    pub fn into_expr(self) -> RaExpr {
        self.expr
    }
}

impl fmt::Display for PlannedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : {} [{}]", self.expr, self.arity, self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .relation("R", &["a", "b"])
            .relation("S", &["b"])
            .build()
    }

    #[test]
    fn plans_record_arity_and_class() {
        let s = schema();
        let q = RaExpr::relation("R").project(vec![0]);
        let plan = PlannedQuery::new(q.clone(), &s).unwrap();
        assert_eq!(plan.arity(), 1);
        assert_eq!(plan.class(), QueryClass::Positive);
        assert_eq!(plan.expr(), &q);
        assert_eq!(plan.physical().arity(), 1);
        assert!(plan.physical().operator_count() >= 2);
        assert_eq!(plan.clone().into_expr(), q);

        let div =
            PlannedQuery::new(RaExpr::relation("R").divide(RaExpr::relation("S")), &s).unwrap();
        assert_eq!(div.arity(), 1);
        assert_eq!(div.class(), QueryClass::RaCwa);

        let diff =
            PlannedQuery::new(RaExpr::relation("S").difference(RaExpr::relation("S")), &s).unwrap();
        assert_eq!(diff.class(), QueryClass::FullRa);
    }

    #[test]
    fn type_errors_surface_at_plan_time() {
        let s = schema();
        assert!(PlannedQuery::new(RaExpr::relation("T"), &s).is_err());
        assert!(PlannedQuery::new(RaExpr::relation("S").project(vec![9]), &s).is_err());
    }

    #[test]
    fn display_mentions_arity_and_class() {
        let s = schema();
        let plan = PlannedQuery::new(RaExpr::relation("S"), &s).unwrap();
        assert!(plan.to_string().contains("positive"));
    }
}
