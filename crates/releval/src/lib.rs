//! # releval — query evaluation engines over incomplete databases
//!
//! Four ways of evaluating a relational algebra query over a database with
//! nulls, corresponding to the positions the paper contrasts:
//!
//! * [`complete`] — the textbook set-semantics evaluator, defined only on
//!   complete databases. This is "existing query evaluation technology".
//! * [`naive`] — *naïve evaluation*: run the very same evaluator on a database
//!   with marked nulls, treating nulls as ordinary values (syntactic
//!   equality). By the paper's Section 6 results this computes certain answers
//!   for UCQs under OWA and for `RA_cwa` under CWA.
//! * [`three_valued`] — SQL's three-valued-logic evaluation (the "practice"
//!   baseline): comparisons with nulls are `unknown`, `WHERE` keeps only
//!   `true` rows, `NOT IN`-style difference drops rows whose membership is
//!   unknown. This is the evaluator that produces the wrong answers of the
//!   paper's introduction.
//! * [`worlds`] — the ground truth: enumerate possible worlds over an adequate
//!   finite domain, evaluate in each world, and intersect. Exponential in the
//!   number of nulls; used to validate the other evaluators and to exhibit the
//!   complexity gap.
//!
//! Four additions support the dispatching engine built on top of this crate:
//!
//! * [`exec`] — the physical-plan executor: one hash-join operator core
//!   (hash equi-join, hash set operators, hash-lookup division) that runs
//!   plain tuples, the approximation pair, and condition-carrying c-table
//!   rows over the same [`relalgebra::physical::PhysicalPlan`]. It is the
//!   **morsel-driven columnar core** ([`exec::columnar`]): relations
//!   transpose once per execution into [`relmodel::batch::ColumnBatch`]es,
//!   operators process fixed-size morsels with ground rows in tight hash
//!   loops and symbolic rows in a per-row fallback. The logical evaluators
//!   ([`engine`], [`approx`], `ctables::algebra`) stay the reference the
//!   differential suites hold it to. Every strategy below executes through
//!   the batched core; the worlds strategy lowers once and runs the plan
//!   per world;
//! * [`approx`] — certain⁺/possible? *pair evaluation* with marked-null
//!   unification: a polynomial, CWA-sound approximation of certain answers
//!   for **full** relational algebra, where naïve evaluation and 3VL are both
//!   unsound;
//! * [`symbolic`] — the symbolic c-table strategy: lift the database to a
//!   conditional database, evaluate with the Imieliński–Lipski algebra, and
//!   extract **exact** CWA certain answers with a certainty solver
//!   (`ctables::condition::solver`) — polynomial per output tuple where
//!   world enumeration is exponential in the number of nulls, punting
//!   explicitly where it cannot answer;
//! * [`split`] — subtree-split execution: evaluate the analyzer's *ground*
//!   (world-invariant) plan regions once on the plain executor and inline
//!   the results as complete literals, so only the genuinely uncertain
//!   remainder needs symbolic or world-enumeration treatment.
//!
//! [`fold`] is the enumeration-fold driver (shards, budget, early exit,
//! merge) that the world fold and the `repairs` crate's repair fold share.
//! [`fo`] provides model checking of first-order formulas (the logical-theory
//! view of Section 4) over complete and naïve databases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod complete;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fo;
pub mod fold;
pub mod naive;
pub mod split;
pub mod symbolic;
pub mod three_valued;
pub mod worlds;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::complete::eval_complete;
    pub use crate::error::EvalError;
    pub use crate::exec::columnar::execute;
    pub use crate::exec::OpStats;
    pub use crate::fo::{eval_sentence, satisfies};
    pub use crate::naive::{certain_answer_naive, eval_naive};
    pub use crate::split::{inline_ground_subtrees, SplitOutcome};
    pub use crate::symbolic::{symbolic_certain_answer, SymbolicOptions};
    pub use crate::three_valued::eval_3vl;
    pub use crate::worlds::{certain_answer_worlds, possible_answers, WorldOptions};
}

pub use error::EvalError;
