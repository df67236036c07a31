//! # relmodel — relational databases with incomplete information
//!
//! This crate provides the data model underlying the whole workspace: the
//! model of *naïve* (marked) nulls from Imieliński & Lipski, as used in
//! Libkin's PODS 2014 keynote *"Incomplete Data: What Went Wrong, and How to
//! Fix It"*.
//!
//! The model distinguishes two kinds of atomic values:
//!
//! * **constants** ([`value::Constant`]) — ordinary known values (integers or
//!   strings), drawn from a countably infinite set `Const`;
//! * **nulls** ([`value::NullId`]) — placeholders for unknown values, drawn
//!   from a countably infinite set `Null`, written `⊥₁, ⊥₂, …`.
//!
//! A [`relation::Relation`] is a finite set of tuples over `Const ∪ Null`; a
//! [`database::Database`] assigns a relation to every relation symbol of a
//! [`schema::Schema`]. A database where each null occurs at most once is a
//! *Codd database* (this models SQL's unmarked `NULL`); a database without any
//! nulls is *complete*.
//!
//! The semantics of an incomplete database is the set of complete databases it
//! can denote. Two standard semantics are provided in [`semantics`]:
//!
//! * `[[D]]_cwa = { v(D) | v a valuation }` — closed-world assumption;
//! * `[[D]]_owa = { D' ⊇ v(D) | v a valuation }` — open-world assumption;
//!
//! where a [`valuation::Valuation`] maps every null of `D` to a constant.
//! Exhaustive enumeration of valuations over a finite constant domain (enough
//! for *generic* queries) lives in [`valuation`] and [`semantics`].
//!
//! ```
//! use relmodel::prelude::*;
//!
//! // The running example of the paper: Order(o_id, product), Pay(p_id, order, amount)
//! let mut db = Database::new(
//!     Schema::builder()
//!         .relation("Order", &["o_id", "product"])
//!         .relation("Pay", &["p_id", "order", "amount"])
//!         .build(),
//! );
//! db.insert("Order", Tuple::new(vec![Value::str("oid1"), Value::str("pr1")])).unwrap();
//! db.insert("Order", Tuple::new(vec![Value::str("oid2"), Value::str("pr2")])).unwrap();
//! db.insert("Pay", Tuple::new(vec![Value::str("pid1"), Value::null(0), Value::int(100)])).unwrap();
//!
//! assert!(!db.is_complete());
//! assert!(db.is_codd());
//! assert_eq!(db.null_ids().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod builder;
pub mod constraint;
pub mod database;
pub mod display;
pub mod error;
pub mod relation;
pub mod schema;
pub mod semantics;
pub mod tuple;
pub mod valuation;
pub mod value;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::batch::{ColumnBatch, RelationBatches, RunSplit};
    pub use crate::builder::DatabaseBuilder;
    pub use crate::constraint::{CompareOp, Constraint, Violation};
    pub use crate::database::Database;
    pub use crate::error::ModelError;
    pub use crate::relation::Relation;
    pub use crate::schema::{RelationSchema, Schema, SchemaBuilder};
    pub use crate::semantics::Semantics;
    pub use crate::tuple::Tuple;
    pub use crate::valuation::Valuation;
    pub use crate::value::{Constant, NullId, Value};
}

pub use batch::{ColumnBatch, RelationBatches, RunSplit};
pub use builder::DatabaseBuilder;
pub use constraint::{CompareOp, Constraint, Violation};
pub use database::Database;
pub use error::ModelError;
pub use relation::Relation;
pub use schema::{RelationSchema, Schema};
pub use semantics::{Semantics, WorldIter};
pub use tuple::Tuple;
pub use valuation::Valuation;
pub use value::{Constant, NullId, Value};
