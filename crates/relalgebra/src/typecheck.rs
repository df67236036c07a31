//! Arity checking of relational algebra expressions against a schema.

use std::fmt;

use relmodel::Schema;

use crate::ast::{RaExpr, MAX_DEPTH};

/// Errors detected while type-checking an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A base relation is not in the schema.
    UnknownRelation(String),
    /// A projection refers to a column outside the operand's arity.
    ProjectionOutOfRange {
        /// Offending column index.
        column: usize,
        /// Arity of the projected expression.
        arity: usize,
    },
    /// A selection predicate refers to a column outside the operand's arity.
    PredicateOutOfRange {
        /// Offending column index.
        column: usize,
        /// Arity of the selected expression.
        arity: usize,
    },
    /// A set operation was applied to operands of different arities.
    ArityMismatch {
        /// Name of the operator (`union`, `difference`, `intersection`).
        operator: &'static str,
        /// Arity of the left operand.
        left: usize,
        /// Arity of the right operand.
        right: usize,
    },
    /// Division where the divisor's arity is not strictly smaller than the
    /// dividend's.
    InvalidDivision {
        /// Arity of the dividend.
        dividend: usize,
        /// Arity of the divisor.
        divisor: usize,
    },
    /// The expression is deeper than [`MAX_DEPTH`].
    TooDeep {
        /// The depth limit the expression exceeded.
        limit: usize,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            TypeError::ProjectionOutOfRange { column, arity } => {
                write!(f, "projection onto column #{column} but operand has arity {arity}")
            }
            TypeError::PredicateOutOfRange { column, arity } => {
                write!(f, "predicate mentions column #{column} but operand has arity {arity}")
            }
            TypeError::ArityMismatch { operator, left, right } => {
                write!(f, "{operator} of relations with arities {left} and {right}")
            }
            TypeError::InvalidDivision { dividend, divisor } => write!(
                f,
                "division requires divisor arity ({divisor}) strictly smaller than dividend arity ({dividend})"
            ),
            TypeError::TooDeep { limit } => {
                write!(f, "expression nests deeper than the limit of {limit} levels")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Refuses an expression deeper than [`MAX_DEPTH`]. Every recursive walk
/// of an expression — its typecheck, its `clone`, its analysis — must come
/// after this check.
pub fn check_depth(expr: &RaExpr) -> Result<(), TypeError> {
    if expr.depth() > MAX_DEPTH {
        return Err(TypeError::TooDeep { limit: MAX_DEPTH });
    }
    Ok(())
}

/// Computes the output arity of an expression over the given schema, checking
/// all arity constraints along the way.
pub fn output_arity(expr: &RaExpr, schema: &Schema) -> Result<usize, TypeError> {
    match expr {
        RaExpr::Relation(name) => schema
            .relation(name)
            .map(|rs| rs.arity())
            .ok_or_else(|| TypeError::UnknownRelation(name.clone())),
        RaExpr::Values(rel) => Ok(rel.arity()),
        RaExpr::Delta => Ok(2),
        RaExpr::Select(e, p) => {
            let arity = output_arity(e, schema)?;
            if let Some(max) = p.max_column() {
                if max >= arity {
                    return Err(TypeError::PredicateOutOfRange { column: max, arity });
                }
            }
            Ok(arity)
        }
        RaExpr::Project(e, cols) => {
            let arity = output_arity(e, schema)?;
            for &c in cols {
                if c >= arity {
                    return Err(TypeError::ProjectionOutOfRange { column: c, arity });
                }
            }
            Ok(cols.len())
        }
        RaExpr::Product(a, b) => Ok(output_arity(a, schema)? + output_arity(b, schema)?),
        RaExpr::Union(a, b) => same_arity("union", a, b, schema),
        RaExpr::Difference(a, b) => same_arity("difference", a, b, schema),
        RaExpr::Intersection(a, b) => same_arity("intersection", a, b, schema),
        RaExpr::Divide(a, b) => {
            let dividend = output_arity(a, schema)?;
            let divisor = output_arity(b, schema)?;
            if divisor == 0 || divisor >= dividend {
                return Err(TypeError::InvalidDivision { dividend, divisor });
            }
            Ok(dividend - divisor)
        }
    }
}

fn same_arity(
    operator: &'static str,
    a: &RaExpr,
    b: &RaExpr,
    schema: &Schema,
) -> Result<usize, TypeError> {
    let left = output_arity(a, schema)?;
    let right = output_arity(b, schema)?;
    if left != right {
        return Err(TypeError::ArityMismatch {
            operator,
            left,
            right,
        });
    }
    Ok(left)
}

/// Convenience: checks an expression and returns `()` or the first error.
pub fn typecheck(expr: &RaExpr, schema: &Schema) -> Result<(), TypeError> {
    output_arity(expr, schema).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Operand, Predicate};
    use relmodel::{Relation, Tuple};

    fn schema() -> Schema {
        Schema::builder()
            .relation("R", &["a", "b"])
            .relation("S", &["a"])
            .build()
    }

    #[test]
    fn arities_of_operators() {
        let s = schema();
        assert_eq!(output_arity(&RaExpr::relation("R"), &s), Ok(2));
        assert_eq!(output_arity(&RaExpr::Delta, &s), Ok(2));
        assert_eq!(
            output_arity(&RaExpr::relation("R").product(RaExpr::relation("S")), &s),
            Ok(3)
        );
        assert_eq!(
            output_arity(&RaExpr::relation("R").project(vec![1, 1, 0]), &s),
            Ok(3)
        );
        assert_eq!(
            output_arity(&RaExpr::relation("R").divide(RaExpr::relation("S")), &s),
            Ok(1)
        );
        assert_eq!(
            output_arity(
                &RaExpr::values(Relation::from_tuples(3, vec![Tuple::ints(&[1, 2, 3])])),
                &s
            ),
            Ok(3)
        );
    }

    #[test]
    fn errors_are_detected() {
        let s = schema();
        assert!(matches!(
            output_arity(&RaExpr::relation("T"), &s),
            Err(TypeError::UnknownRelation(_))
        ));
        assert!(matches!(
            output_arity(&RaExpr::relation("S").project(vec![1]), &s),
            Err(TypeError::ProjectionOutOfRange { .. })
        ));
        assert!(matches!(
            output_arity(
                &RaExpr::relation("S").select(Predicate::eq(Operand::col(3), Operand::int(1))),
                &s
            ),
            Err(TypeError::PredicateOutOfRange { .. })
        ));
        assert!(matches!(
            output_arity(&RaExpr::relation("R").union(RaExpr::relation("S")), &s),
            Err(TypeError::ArityMismatch { .. })
        ));
        assert!(matches!(
            output_arity(&RaExpr::relation("S").divide(RaExpr::relation("R")), &s),
            Err(TypeError::InvalidDivision { .. })
        ));
        assert!(typecheck(&RaExpr::relation("R"), &s).is_ok());
        assert!(typecheck(&RaExpr::relation("T"), &s).is_err());
    }

    #[test]
    fn errors_display() {
        let e = TypeError::ArityMismatch {
            operator: "union",
            left: 1,
            right: 2,
        };
        assert!(e.to_string().contains("union"));
        let e = TypeError::InvalidDivision {
            dividend: 1,
            divisor: 1,
        };
        assert!(e.to_string().contains("division"));
    }
}
