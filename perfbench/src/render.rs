//! Renders relational algebra expressions as `qparser` query text.
//!
//! `RaExpr`'s `Display` prints mathematical notation (`π`, `−`, `σ`) that
//! the textual front door cannot read, and the service only accepts text.
//! The renderer parenthesises every binary operator and every compound
//! predicate, so parsing the output rebuilds exactly the input tree
//! (`parse(render(q)) == q`).

use std::fmt::Write;

use relalgebra::ast::RaExpr;
use relalgebra::predicate::{Operand, Predicate};
use relmodel::value::Constant;

/// A construct the query language has no syntax for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unrenderable(pub &'static str);

/// `expr` as query text the `qparser` grammar parses back to `expr`.
pub fn render(expr: &RaExpr) -> Result<String, Unrenderable> {
    let mut out = String::new();
    write_expr(expr, &mut out)?;
    Ok(out)
}

fn write_expr(expr: &RaExpr, out: &mut String) -> Result<(), Unrenderable> {
    match expr {
        RaExpr::Relation(name) => out.push_str(name),
        RaExpr::Values(_) => return Err(Unrenderable("literal relations")),
        RaExpr::Delta => out.push_str("delta"),
        RaExpr::Select(input, predicate) => {
            out.push_str("select[");
            write_predicate(predicate, out)?;
            out.push_str("](");
            write_expr(input, out)?;
            out.push(')');
        }
        RaExpr::Project(input, columns) => {
            if columns.is_empty() {
                return Err(Unrenderable("projection onto no columns"));
            }
            out.push_str("project[");
            for (i, c) in columns.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "#{c}").expect("writing to a String cannot fail");
            }
            out.push_str("](");
            write_expr(input, out)?;
            out.push(')');
        }
        RaExpr::Product(left, right) => {
            out.push_str("product(");
            write_expr(left, out)?;
            out.push_str(", ");
            write_expr(right, out)?;
            out.push(')');
        }
        RaExpr::Union(l, r) => write_set_op(l, "union", r, out)?,
        RaExpr::Difference(l, r) => write_set_op(l, "minus", r, out)?,
        RaExpr::Intersection(l, r) => write_set_op(l, "intersect", r, out)?,
        RaExpr::Divide(l, r) => write_set_op(l, "divide", r, out)?,
    }
    Ok(())
}

fn write_set_op(
    left: &RaExpr,
    keyword: &str,
    right: &RaExpr,
    out: &mut String,
) -> Result<(), Unrenderable> {
    out.push('(');
    write_expr(left, out)?;
    write!(out, " {keyword} ").expect("writing to a String cannot fail");
    write_expr(right, out)?;
    out.push(')');
    Ok(())
}

fn write_predicate(predicate: &Predicate, out: &mut String) -> Result<(), Unrenderable> {
    match predicate {
        Predicate::True => out.push_str("true"),
        Predicate::False => out.push_str("false"),
        Predicate::Eq(a, b) => write_comparison(a, "=", b, out)?,
        Predicate::NotEq(a, b) => write_comparison(a, "!=", b, out)?,
        Predicate::And(a, b) => write_connective(a, "and", b, out)?,
        Predicate::Or(a, b) => write_connective(a, "or", b, out)?,
        Predicate::Not(inner) => {
            out.push_str("not (");
            write_predicate(inner, out)?;
            out.push(')');
        }
    }
    Ok(())
}

fn write_connective(
    left: &Predicate,
    keyword: &str,
    right: &Predicate,
    out: &mut String,
) -> Result<(), Unrenderable> {
    out.push('(');
    write_predicate(left, out)?;
    write!(out, " {keyword} ").expect("writing to a String cannot fail");
    write_predicate(right, out)?;
    out.push(')');
    Ok(())
}

fn write_comparison(
    left: &Operand,
    op: &str,
    right: &Operand,
    out: &mut String,
) -> Result<(), Unrenderable> {
    write_operand(left, out)?;
    write!(out, " {op} ").expect("writing to a String cannot fail");
    write_operand(right, out)
}

fn write_operand(operand: &Operand, out: &mut String) -> Result<(), Unrenderable> {
    match operand {
        Operand::Column(c) => write!(out, "#{c}").expect("writing to a String cannot fail"),
        Operand::Const(Constant::Int(i)) => {
            write!(out, "{i}").expect("writing to a String cannot fail")
        }
        Operand::Const(Constant::Str(s)) => {
            if s.contains('\'') {
                return Err(Unrenderable("string constants containing a quote"));
            }
            write!(out, "'{s}'").expect("writing to a String cannot fail");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{
        random_division_query, random_full_ra_query, random_mixed_query, random_positive_query,
        QueryGenConfig,
    };
    use relmodel::Schema;

    fn round_trip(q: &RaExpr) {
        let text = render(q).expect("generated queries are renderable");
        let parsed = qparser::parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        assert_eq!(&parsed, q, "`{text}` did not parse back to the same tree");
    }

    #[test]
    fn every_generator_round_trips() {
        let schema = datagen::random::random_schema();
        type Generator = fn(&Schema, &QueryGenConfig) -> RaExpr;
        let generators: [Generator; 4] = [
            random_positive_query,
            random_division_query,
            random_full_ra_query,
            random_mixed_query,
        ];
        for seed in 0..300 {
            for generate in generators {
                let config = QueryGenConfig {
                    max_atoms: 3,
                    max_union: 3,
                    constant_pool: 40,
                    seed,
                };
                round_trip(&generate(&schema, &config));
            }
        }
    }

    #[test]
    fn hand_written_shapes_round_trip() {
        let pred = Predicate::eq(Operand::col(0), Operand::str("a b"))
            .or(Predicate::neq(Operand::col(1), Operand::int(-3)).negate())
            .and(Predicate::True.and(Predicate::False));
        let q = RaExpr::relation("R")
            .select(pred)
            .product(RaExpr::Delta)
            .project(vec![3, 0])
            .divide(RaExpr::relation("S").union(RaExpr::relation("S")))
            .intersection(RaExpr::relation("S").difference(RaExpr::relation("S")));
        round_trip(&q);
    }

    #[test]
    fn constructs_without_syntax_are_refused() {
        let values = RaExpr::values(relmodel::Relation::new(1));
        assert!(render(&values).is_err());
        let quoted =
            RaExpr::relation("R").select(Predicate::eq(Operand::col(0), Operand::str("it's")));
        assert!(render(&quoted).is_err());
    }
}
