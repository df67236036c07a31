//! # repairs — consistent query answering as a second world-space
//!
//! An incomplete database denotes the set of complete databases it could
//! be; an **inconsistent** database — one violating its schema's integrity
//! constraints — denotes the set of its subset-minimal **repairs**. The
//! *consistent answer* to a query is what survives every repair:
//!
//! ```text
//! consistent(Q, D) = ⋂ { certain(Q, R) | R a subset-minimal repair of D }
//! ```
//!
//! which is the certain-answer equation with repairs where worlds were —
//! and because repairs of a database with nulls are themselves incomplete
//! databases, the two world-spaces *compose*: a linear plan folds a local
//! repair and a valuation of its component's nulls together, one joint
//! component at a time ([`fold`]), and any other plan delegates the inner
//! `certain` to the existing machinery (physical execution on complete
//! repairs, symbolic c-tables on incomplete ones, the world oracle when
//! symbolic punts).
//!
//! The crate mirrors the shape of the possible-world engine layer by layer:
//!
//! | worlds ([`releval::worlds`])        | repairs (this crate)                         |
//! |-------------------------------------|----------------------------------------------|
//! | valuations over a finite domain     | maximal independent sets of the conflict graph ([`conflict::ConflictGraph`]) |
//! | `WorldIter` (structural dedup)      | [`enumerate::RepairIter`] (dedup by construction) |
//! | valuation ranges as parts           | decision prefixes as parts                   |
//! | streaming ∩ fold, early exit        | [`fold::stream_consistent_answer`]           |
//! | budget = worlds visited             | budget = repairs visited                     |
//! | fold driver [`releval::fold`]       | the same driver                              |
//! | `S ∪ ⋂ᵢ Vᵢ` over valued rows         | `S ∪ ⋂ᵢ Vᵢ` over survival masks      |
//! | one component fold: one component of every null, or one per null component for linear plans | the same: one component of every vertex, or one per joint (conflict-or-null) component for linear plans, nulls valued in place |
//! | certain⁺ pair approximation         | conflict-free core over the repair interval ([`core_approx`]) |
//!
//! The sound polynomial shortcut deserves a word: tuples in no conflict
//! edge survive every repair, so the conflict-free core under-approximates
//! every repair while the database minus its doomed tuples over-approximates
//! it — an *interval* the certain⁺ pair executor evaluates in one pass
//! ([`core_approx::core_consistent_answer`]), yielding a `Sound` consistent
//! answer for every query class without enumerating a single repair.
//!
//! ```
//! use relalgebra::ast::RaExpr;
//! use relalgebra::plan::PlannedQuery;
//! use relmodel::{DatabaseBuilder, Tuple};
//! use repairs::conflict::ConflictGraph;
//! use repairs::fold::{stream_consistent_answer, RepairOptions};
//!
//! // R(k, v) with key k, and a dirty pair for k = 1.
//! let db = DatabaseBuilder::new()
//!     .relation("R", &["k", "v"])
//!     .key("R", &["k"])
//!     .ints("R", &[1, 10])
//!     .ints("R", &[1, 20])
//!     .ints("R", &[2, 30])
//!     .build();
//! let graph = ConflictGraph::build(&db);
//! let q = RaExpr::relation("R").project(vec![1]);
//! let plan = PlannedQuery::new(q, db.schema()).unwrap();
//! let exec = stream_consistent_answer(&plan, &db, &graph, &RepairOptions::default()).unwrap();
//! assert_eq!(exec.repairs_visited, 2);
//! assert!(exec.answers.contains(&Tuple::ints(&[30]))); // survives both repairs
//! assert_eq!(exec.answers.len(), 1);                   // 10 and 20 do not
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conflict;
pub mod core_approx;
pub mod enumerate;
pub mod fold;

pub use conflict::ConflictGraph;
pub use core_approx::{conflict_free_core, core_consistent_answer, CoreExecution};
pub use enumerate::RepairIter;
pub use fold::{
    enumerate_repairs, factorized_repair_count, stream_consistent_answer,
    stream_consistent_answer_rows, RepairError, RepairExecution, RepairOptions,
};
