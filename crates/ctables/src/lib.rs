//! # ctables — conditional tables
//!
//! Conditional tables (c-tables) are the classical *strong representation
//! system*: for every relational algebra query `Q` and every c-table `D`
//! there is a c-table `A` with `[[A]]_cwa = Q([[D]]_cwa)` (Imieliński & Lipski
//! 1984, recalled in Section 2 of the paper). The paper uses them both as the
//! benchmark of what strong representation costs — the resulting conditions
//! are "hardly meaningful to humans" — and as evidence that query answers may
//! need representations richer than plain database objects.
//!
//! This crate provides:
//!
//! * [`condition`] — Boolean conditions over equalities between constants and
//!   nulls, with simplification and evaluation under valuations;
//! * [`condition::solver`] — the certainty solver: validity / satisfiability /
//!   entailment of conditions decided by a DPLL-style search (backtrackable
//!   union–find, propagation, a decision budget) over the infinite constant
//!   domain, with **no** valuation enumeration — the decision procedure
//!   behind the engine's symbolic strategy;
//! * [`ctable`] — conditional tuples, tables, and databases, with their
//!   closed-world possible-world expansion;
//! * [`algebra`] — the Imieliński–Lipski algebra: evaluation of full
//!   relational algebra directly on conditional databases;
//! * [`verify`] — expansion-based checking of the strong representation
//!   property on finite domains (used by tests and experiment E6).
//!
//! This crate deliberately depends only on `relmodel` and `relalgebra`, so
//! the evaluator crate (`releval`) can build its symbolic strategy on top of
//! it; classical evaluation over the complete worlds [`verify`] expands is
//! recovered from the c-table algebra itself (ground conditions fold to
//! `true`/`false`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod condition;
pub mod ctable;
pub mod verify;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::algebra::{eval_ctable, eval_ctable_unchecked};
    pub use crate::condition::solver::{CertaintySolver, SolverOptions, SolverPunt};
    pub use crate::condition::Condition;
    pub use crate::ctable::{ConditionalDatabase, ConditionalTable, ConditionalTuple};
    pub use crate::verify::strong_representation_holds;
}

pub use condition::Condition;
pub use ctable::{ConditionalDatabase, ConditionalTable, ConditionalTuple};
