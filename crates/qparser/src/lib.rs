//! # qparser — a small textual query language
//!
//! The paper assumes SQL as the query toolkit; no canonical relational-algebra
//! toolkit exists for Rust, so this crate provides a compact textual syntax
//! that the examples and benchmarks use to write queries readably. The
//! language maps 1:1 onto [`relalgebra::ast::RaExpr`]:
//!
//! ```text
//! expr    := term (("union" | "minus" | "intersect" | "divide") term)*
//! term    := "select" "[" pred "]" "(" expr ")"
//!          | "project" "[" cols "]" "(" expr ")"
//!          | "product" "(" expr "," expr ")"
//!          | "delta"
//!          | IDENT                          -- base relation
//!          | "(" expr ")"
//! pred    := disj
//! disj    := conj ("or" conj)*
//! conj    := atom ("and" atom)*
//! atom    := "not" atom | "true" | "false"
//!          | operand ("=" | "!=") operand | "(" pred ")"
//! operand := "#" NUMBER | NUMBER | "'" STRING "'"
//! cols    := "#"? NUMBER ("," "#"? NUMBER)*
//! ```
//!
//! Set operators associate to the left. Columns are 0-based positions.
//! Queries nested deeper than [`MAX_DEPTH`] levels are refused with
//! [`ParseError::TooDeep`].
//!
//! ```
//! use qparser::parse;
//! // The unpaid-orders query of the paper's introduction:
//! let q = parse("project[#0](Order) minus project[#1](Pay)").unwrap();
//! assert_eq!(q.to_string(), "(π[#0](Order) − π[#1](Pay))");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod plan;

pub use lexer::{tokenize, LexError, Token};
pub use parser::{parse, ParseError, MAX_DEPTH};
pub use plan::{parse_and_plan, PlanTextError};
