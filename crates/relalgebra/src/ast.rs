//! Relational algebra expressions.
//!
//! Attributes are positional (0-based column indices); the textual query
//! language in the `qparser` crate maps named attributes onto positions.
//!
//! The operator set covers full relational algebra as used by the paper:
//! selection, projection, cartesian product, union, difference, intersection,
//! the derived *division* operator (which the paper uses to characterise
//! `RA_cwa`), the active-domain diagonal `Δ = {(a,a) | a ∈ adom(D)}`, and
//! literal relations.

use std::collections::BTreeSet;
use std::fmt;

use relmodel::value::Constant;
use relmodel::Relation;

use crate::predicate::Predicate;

/// The deepest expression the workspace accepts, by [`RaExpr::depth`].
/// Typechecking, lowering, analysis and every evaluator walk an expression
/// recursively, so deeper trees are refused at the door (with
/// `TypeError::TooDeep`, or `ParseError::TooDeep` for text) instead of
/// overflowing a thread's stack further down. Generated and benchmark
/// queries nest fewer than 20 levels.
pub const MAX_DEPTH: usize = 128;

/// A relational algebra expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaExpr {
    /// A base relation of the schema, by name.
    Relation(String),
    /// A literal relation (constant table). May contain nulls, which makes it
    /// possible to write tableau-style fixed data inside queries in tests.
    Values(Relation),
    /// The active-domain diagonal `Δ = {(a,a) | a ∈ adom(D)}` of the input
    /// database. Definable in positive algebra; provided as a primitive
    /// because the `RA(Δ, π, ×, ∪)` class of divisor queries refers to it.
    Delta,
    /// Selection `σ_p(e)`.
    Select(Box<RaExpr>, Predicate),
    /// Projection `π_{cols}(e)` onto the listed columns, in the listed order.
    Project(Box<RaExpr>, Vec<usize>),
    /// Cartesian product `e₁ × e₂`.
    Product(Box<RaExpr>, Box<RaExpr>),
    /// Union `e₁ ∪ e₂` (operands must have equal arity).
    Union(Box<RaExpr>, Box<RaExpr>),
    /// Difference `e₁ − e₂` (operands must have equal arity).
    Difference(Box<RaExpr>, Box<RaExpr>),
    /// Intersection `e₁ ∩ e₂` (operands must have equal arity).
    Intersection(Box<RaExpr>, Box<RaExpr>),
    /// Division `e₁ ÷ e₂`: if `e₁` has arity `m + k` and `e₂` has arity `k`,
    /// the result has arity `m` and contains those `m`-tuples `t` such that
    /// `(t, s) ∈ e₁` for **every** `s ∈ e₂`.
    Divide(Box<RaExpr>, Box<RaExpr>),
}

impl RaExpr {
    /// A base relation reference.
    pub fn relation(name: impl Into<String>) -> Self {
        RaExpr::Relation(name.into())
    }

    /// A literal relation.
    pub fn values(relation: Relation) -> Self {
        RaExpr::Values(relation)
    }

    /// `σ_p(self)`.
    pub fn select(self, predicate: Predicate) -> Self {
        RaExpr::Select(Box::new(self), predicate)
    }

    /// `π_{cols}(self)`.
    pub fn project(self, columns: Vec<usize>) -> Self {
        RaExpr::Project(Box::new(self), columns)
    }

    /// `self × other`.
    pub fn product(self, other: RaExpr) -> Self {
        RaExpr::Product(Box::new(self), Box::new(other))
    }

    /// `self ∪ other`.
    pub fn union(self, other: RaExpr) -> Self {
        RaExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: RaExpr) -> Self {
        RaExpr::Difference(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersection(self, other: RaExpr) -> Self {
        RaExpr::Intersection(Box::new(self), Box::new(other))
    }

    /// `self ÷ other`.
    pub fn divide(self, other: RaExpr) -> Self {
        RaExpr::Divide(Box::new(self), Box::new(other))
    }

    /// An equi-join of `self` and `other` on pairs of columns
    /// `(left column, right column)`, expressed as a selection over a product
    /// (the standard derived form).
    pub fn equi_join(self, other: RaExpr, on: &[(usize, usize)], left_arity: usize) -> Self {
        let mut pred = Predicate::True;
        for (l, r) in on {
            let atom = Predicate::Eq(
                crate::predicate::Operand::Column(*l),
                crate::predicate::Operand::Column(left_arity + *r),
            );
            pred = if pred == Predicate::True {
                atom
            } else {
                pred.and(atom)
            };
        }
        self.product(other).select(pred)
    }

    /// Names of base relations mentioned anywhere in the expression.
    pub fn relations(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let RaExpr::Relation(name) = e {
                out.insert(name.clone());
            }
        });
        out
    }

    /// Constants mentioned in predicates and literal relations of the
    /// expression — `Const(Q)`, needed to build an adequate valuation domain.
    pub fn constants(&self) -> BTreeSet<Constant> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| match e {
            RaExpr::Select(_, p) => out.extend(p.constants()),
            RaExpr::Values(rel) => out.extend(rel.constants()),
            _ => {}
        });
        out
    }

    /// Does the expression mention the `Δ` primitive?
    pub fn uses_delta(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, RaExpr::Delta) {
                found = true;
            }
        });
        found
    }

    /// Number of operator nodes in the expression (a rough size measure used
    /// in reports).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// The depth of the expression tree, a leaf being 1 and a selection's
    /// predicate counting as a subtree of the selection: the measure
    /// [`MAX_DEPTH`] bounds. Walks an explicit stack, so it is safe on trees
    /// too deep for any recursive walk.
    pub fn depth(&self) -> usize {
        enum Node<'a> {
            Expr(&'a RaExpr),
            Pred(&'a Predicate),
        }
        let mut deepest = 0;
        let mut stack = vec![(Node::Expr(self), 1)];
        while let Some((node, depth)) = stack.pop() {
            deepest = deepest.max(depth);
            let below = depth + 1;
            match node {
                Node::Expr(RaExpr::Select(e, p)) => {
                    stack.push((Node::Expr(e), below));
                    stack.push((Node::Pred(p), below));
                }
                Node::Expr(RaExpr::Project(e, _)) => stack.push((Node::Expr(e), below)),
                Node::Expr(
                    RaExpr::Product(a, b)
                    | RaExpr::Union(a, b)
                    | RaExpr::Difference(a, b)
                    | RaExpr::Intersection(a, b)
                    | RaExpr::Divide(a, b),
                ) => {
                    stack.push((Node::Expr(a), below));
                    stack.push((Node::Expr(b), below));
                }
                Node::Pred(Predicate::And(a, b) | Predicate::Or(a, b)) => {
                    stack.push((Node::Pred(a), below));
                    stack.push((Node::Pred(b), below));
                }
                Node::Pred(Predicate::Not(a)) => stack.push((Node::Pred(a), below)),
                Node::Expr(RaExpr::Relation(_) | RaExpr::Values(_) | RaExpr::Delta)
                | Node::Pred(
                    Predicate::True | Predicate::False | Predicate::Eq(..) | Predicate::NotEq(..),
                ) => {}
            }
        }
        deepest
    }

    /// Applies `f` to every sub-expression, parents before children.
    pub fn visit(&self, f: &mut impl FnMut(&RaExpr)) {
        f(self);
        match self {
            RaExpr::Relation(_) | RaExpr::Values(_) | RaExpr::Delta => {}
            RaExpr::Select(e, _) | RaExpr::Project(e, _) => e.visit(f),
            RaExpr::Product(a, b)
            | RaExpr::Union(a, b)
            | RaExpr::Difference(a, b)
            | RaExpr::Intersection(a, b)
            | RaExpr::Divide(a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }
}

impl fmt::Display for RaExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaExpr::Relation(name) => write!(f, "{name}"),
            RaExpr::Values(rel) => write!(f, "VALUES{rel}"),
            RaExpr::Delta => write!(f, "Δ"),
            RaExpr::Select(e, p) => write!(f, "σ[{p}]({e})"),
            RaExpr::Project(e, cols) => {
                let cols: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
                write!(f, "π[{}]({e})", cols.join(","))
            }
            RaExpr::Product(a, b) => write!(f, "({a} × {b})"),
            RaExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            RaExpr::Difference(a, b) => write!(f, "({a} − {b})"),
            RaExpr::Intersection(a, b) => write!(f, "({a} ∩ {b})"),
            RaExpr::Divide(a, b) => write!(f, "({a} ÷ {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Operand;
    use relmodel::Tuple;

    #[test]
    fn builders_and_display() {
        let q = RaExpr::relation("R")
            .select(Predicate::eq(Operand::col(0), Operand::int(1)))
            .project(vec![1]);
        assert_eq!(q.to_string(), "π[#1](σ[#0 = 1](R))");
        let u = RaExpr::relation("R").union(RaExpr::relation("S"));
        assert_eq!(u.to_string(), "(R ∪ S)");
        let d = RaExpr::relation("R").divide(RaExpr::relation("S"));
        assert_eq!(d.to_string(), "(R ÷ S)");
    }

    #[test]
    fn relation_and_constant_collection() {
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(0), Operand::str("x")))
            .difference(RaExpr::relation("R"));
        assert_eq!(q.relations().len(), 2);
        assert_eq!(q.constants().len(), 1);
        // nodes: difference, select, product, R, S, R
        assert_eq!(q.size(), 6);
    }

    #[test]
    fn values_and_delta() {
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[7])]));
        assert!(lit.constants().contains(&Constant::Int(7)));
        assert!(!lit.uses_delta());
        assert!(RaExpr::Delta.uses_delta());
        assert!(RaExpr::relation("R").divide(RaExpr::Delta).uses_delta());
    }

    #[test]
    fn equi_join_builds_selected_product() {
        // R(a,b) ⋈_{b = c} S(c,d)
        let j = RaExpr::relation("R").equi_join(RaExpr::relation("S"), &[(1, 0)], 2);
        match &j {
            RaExpr::Select(inner, p) => {
                assert!(matches!(**inner, RaExpr::Product(_, _)));
                assert_eq!(p.to_string(), "#1 = #2");
            }
            other => panic!("expected select over product, got {other}"),
        }
    }
}
