//! # incomplete-data
//!
//! Umbrella crate for a from-scratch Rust implementation of certain-answer
//! query evaluation over incomplete relational databases, reproducing
//! Libkin's PODS 2014 keynote *"Incomplete Data: What Went Wrong, and How to
//! Fix It"*.
//!
//! ## The front door: [`Engine`]
//!
//! The paper's fix is a dispatch rule — classify the query, evaluate naïvely
//! where that is provably exact, be explicit about the guarantee everywhere
//! else. The [`Engine`] is that rule as an API, and the recommended way to
//! use this workspace:
//!
//! ```
//! use incomplete_data::prelude::*;
//!
//! let db = incomplete_data::relmodel::builder::orders_and_payments_example();
//! let engine = Engine::new(&db).semantics(Semantics::Cwa);
//!
//! // A positive query: dispatched to naïve evaluation, guaranteed exact.
//! let products = engine.plan_text("project[#1](Order)").unwrap();
//! assert_eq!(products.guarantee, Guarantee::Exact);
//! assert_eq!(products.strategy, StrategyKind::NaiveExact);
//! assert_eq!(products.answers.len(), 2);
//!
//! // The unpaid-orders query of the paper's introduction is full RA: the
//! // default engine answers it *symbolically* — c-tables plus a certainty
//! // solver — exactly, without enumerating a single possible world …
//! let unpaid = engine.plan_text("project[#0](Order) minus project[#1](Pay)").unwrap();
//! assert_eq!(unpaid.guarantee, Guarantee::Exact);
//! assert_eq!(unpaid.strategy, StrategyKind::SymbolicCTable);
//! assert!(unpaid.stats.worlds_enumerated.is_none());
//!
//! // … and the exponential world oracle agrees, when explicitly bought.
//! let truth = Engine::new(&db)
//!     .options(EngineOptions::exhaustive())
//!     .ground_truth(&incomplete_data::qparser::parse(
//!         "project[#0](Order) minus project[#1](Pay)").unwrap())
//!     .unwrap();
//! assert_eq!(truth.strategy, StrategyKind::WorldsGroundTruth);
//! assert_eq!(truth.answers, unpaid.answers);
//! ```
//!
//! Every answer comes back as a [`engine::CertainReport`]: the tuples, the
//! strategy that produced them, the query's class, the guarantee they carry
//! (`exact` / `sound` / `complete` / `no-guarantee`), and per-phase timing.
//!
//! ## The crates underneath
//!
//! - [`relmodel`]: relational model with marked (naïve) nulls and Codd tables
//! - [`relalgebra`]: relational algebra, CQ/UCQ, `Pos∀G`/`RA_cwa`,
//!   classification, typechecked plans, physical plans (join fusion,
//!   pushdowns, `EXPLAIN`), and the static analyzer
//!   ([`relalgebra::analysis`]: per-node abstract interpretation, `QL…`
//!   lints, null-census-aware certainty preservation — surfaced through
//!   [`Engine::analyze`])
//! - [`releval`]: the evaluation strategies (complete / naïve / SQL 3VL /
//!   possible worlds / certain⁺ / symbolic c-tables) as plain functions, the
//!   logical evaluators that define them, and the one physical operator core
//!   they execute on ([`releval::exec`])
//! - [`engine`]: the classify-and-dispatch front door re-exported above
//!   (including [`engine::Semantics::ConsistentAnswers`])
//! - [`repairs`]: consistent query answering — conflict hypergraphs,
//!   streaming subset-minimal repair enumeration, the conflict-free-core
//!   approximation
//! - [`ctables`]: conditional tables and the Imielinski–Lipski algebra
//! - [`certain_core`]: information orderings, homomorphisms,
//!   `certainO`/`certainK` (rebuilt on top of the engine)
//! - [`exchange`]: schema mappings, the chase, data exchange
//! - [`qparser`]: a small textual query language; `parse_and_plan` feeds the
//!   engine directly
//! - [`serve`]: the serving layer — a concurrent, snapshot-versioned
//!   [`serve::CertainService`] wrapping the engine with copy-on-write
//!   database versions, a plan cache, and a version-keyed certain-answer
//!   result cache
//! - [`obs`]: the observability substrate — query-trace [`obs::Span`]s,
//!   lock-free latency [`obs::Histogram`]s, the serve-layer
//!   [`obs::MetricsRegistry`], and the slow-query ring (surfaced through
//!   [`engine::EngineOptions`]'s `trace` flag, `Engine::explain_analyze`,
//!   and `serve::CertainService::{metrics_text, metrics_json, slow_queries}`)
//! - [`datagen`]: synthetic workload generators

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use certain_core;
pub use ctables;
pub use datagen;
pub use engine;
pub use exchange;
pub use obs;
pub use qparser;
pub use relalgebra;
pub use releval;
pub use relmodel;
pub use repairs;
pub use serve;

pub use engine::{
    AnalysisReport, AnalyzerStats, CertainReport, Engine, EngineError, EngineOptions,
    FallbackReason, Guarantee, RepairAbort, StrategyKind,
};

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use certain_core::{
        homomorphism::{find_homomorphism, HomKind},
        ordering::InfoOrdering,
        CertainAnswers,
    };
    pub use engine::{
        AnalysisReport, AnalyzerStats, CertainReport, Engine, EngineError, EngineOptions,
        EngineStats, FallbackReason, Guarantee, RepairAbort, StrategyKind,
    };
    pub use qparser::{parse, parse_and_plan};
    pub use relalgebra::{
        ast::RaExpr, classify::QueryClass, cq::ConjunctiveQuery, plan::PlannedQuery,
    };
    pub use relmodel::{
        database::Database, relation::Relation, schema::Schema, semantics::Semantics, tuple::Tuple,
        value::Value,
    };
    pub use serve::{CertainService, ServeOptions, ServiceTelemetry, SlowQuery};
}
