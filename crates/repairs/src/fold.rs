//! The streaming consistent-answer fold: `⋂ certain(Q, R)` over every
//! subset-minimal repair `R`, computed the way `releval::worlds` computes
//! `⋂ Q(D')` over possible worlds.
//!
//! The outer fold runs on the enumeration-fold driver [`releval::fold`],
//! which owns the sharding, the budget on elements **visited**, early exit
//! on an empty intersection, the error slot and the merge. This module
//! supplies the choice space, and takes one of two paths:
//!
//! * the **split executor**: the [component fold](releval::fold) over the
//!   conflict-free core's complete rows. The graph derives them from the
//!   database once (`ConflictGraph::core_split`) — transposed into column
//!   batches in one pass that skips conflict vertices, doomed tuples and
//!   null-bearing tuples, next to the null-bearing core tuples and the
//!   joint components — and every fold over the same graph, and every
//!   worker of a fold, shares them; a service that caches one graph per
//!   snapshot derives them once per snapshot. A linear plan folds one
//!   **joint component** at a time — a local repair and a valuation of its
//!   nulls per element — on a complete or a null-bearing database alike
//!   (below), under [`Combine::Union`]. Any other plan over a complete
//!   database folds the **one component** holding every conflict vertex,
//!   whose local repairs ([`MaskIter`]) are the whole repairs, under
//!   [`Combine::Intersect`]; its workers share the mask prefixes
//!   [`fold::parts`] cuts. Each worker writes an element's rows into
//!   reused scratch batches and evaluates the shared plan through the
//!   caching split executor
//!   ([`releval::exec::columnar::split::ShardExec`]); stable subresults and
//!   their hash tables are built on its first element and reused by every
//!   later one.
//! * the **row path**: any other plan over a null-bearing database builds
//!   each repair as a `Database` and delegates its certain answer to the
//!   existing machinery: the physical executor when the repair is
//!   complete, the symbolic c-table strategy when it is not, and the
//!   streaming world oracle when symbolic punts.
//!   [`stream_consistent_answer_rows`] forces this path everywhere as the
//!   differential reference.
//!
//! # Linear plans: one joint component at a time
//!
//! Under CWA the consistent answer is `⋂_R ⋂_v Q(v(R))`: every repair `R`,
//! every valuation `v` of its nulls. The factorized fold computes it
//! without building a repair or a world.
//!
//! *One domain.* Every repair is valued over the one shared
//! [`valuation_domain`] of the whole database `D`. Let `C_R` be the
//! constants of a repair `R` and of `Q`, and `N_R` the nulls of `R`. A
//! domain holding `C_R` and at least `|N_R| + 1` constants outside it is
//! adequate for `R`: by genericity, every valuation into an infinite
//! domain is, up to a bijection fixing `C_R`, a valuation into it, so it
//! refutes every row over `C_R` that the infinite domain refutes; and a row
//! holding a constant outside `C_R` is refuted by a valuation avoiding that
//! constant, for which the spare constant leaves room. `valuation_domain(D)`
//! holds `C_D ⊇ C_R` and `|N_D| + 1 ≥ |N_R| + 1` fresh constants, so it is
//! adequate for every repair, and each repair's intersection `⋂_v Q(v(R))`
//! is unchanged. Valuing the nulls of `D` that `R` lacks changes nothing
//! either, since `v(R)` reads `v` on `N_R` only.
//!
//! *Joint components.* The fold is the
//! [component fold](releval::fold) over the conflict vertices and edges,
//! with the null-bearing core tuples as the rows every element holds. Its
//! components are the **joint components**: a union-find joins two
//! vertices sharing a conflict edge, two nulls sharing a tuple, and a
//! vertex with each of its nulls. A joint component `J` has vertices `V_J`
//! (a union of whole conflict components, so closed under adjacency),
//! nulls `N_J`, and null-bearing core tuples `C_J`; an element is a local
//! repair `M_J` of `V_J` with a valuation `v_J` of the nulls
//! `N(M_J ∪ C_J)` its tuples and the component's core tuples carry, and `G`
//! is the complete core. Every pair `(R, v)` is one choice `(M_J, v_J)` per
//! component (nulls that only doomed tuples carry are in no repair, and a
//! null of `N_J` that `M_J ∪ C_J` lacks changes none of its rows), and
//! `v(R) = G ∪ ⋃_J v_J(M_J ∪ C_J)`. This is why a vertex carrying `⊥` must
//! join `⊥`'s component: when vertices of two conflict components share a
//! null, the value one repair choice sees depends on the valuation the
//! other sees, and only their merged component chooses both together. A
//! complete database is the case with no nulls: its joint components are
//! the conflict components, each with one (empty) valuation. For a plan
//! linear in the relations holding a vertex or a null-bearing core tuple,
//! the component fold's identity gives
//!
//! ```text
//! ⋂_R ⋂_v Q(v(R))  =  Q(G) ∪ ⋃_J ⋂_{(M_J, v_J)} vol_J(M_J, v_J)
//! ```
//!
//! **When the fold factorizes.** It visits at most
//! `Σ_J Σ_{M_J ∈ LR(J)} |dom|^{|N(M_J ∪ C_J)|}` elements, `LR(J)` being the
//! local repairs of `V_J` (the maximal independent sets of the subgraph it
//! spans). The fold takes this path iff the plan is linear (which rules out
//! Δ), some relation is volatile, the domain is not empty, and that count —
//! [`factorized_repair_count`], computed before the fold — is within
//! [`RepairOptions::max_repairs`], so the factorized fold never hits the
//! budget. Otherwise a complete database folds whole repairs as the one
//! component of every conflict vertex and a null-bearing one takes the row
//! path.
//!
//! **What the telemetry means there.** [`RepairExecution::components`] is
//! `Some(k)` over `k` joint components, and
//! [`RepairExecution::repairs_visited`] counts the elements `(M_J, v_J)`
//! folded. A component's run stops once its intersection is empty (it can
//! add nothing to the union), so the count depends on the answers but not
//! on the workers; the fold never reports early exit. A pinned
//! [`RepairOptions::threads`] deals the components round-robin to the
//! workers; otherwise one worker runs them all ([`fold::workers`]),
//! because every worker rebuilds the core's stable subresults.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use relalgebra::classify::has_incomplete_values;
use relalgebra::physical::linear_volatility;
use relalgebra::plan::PlannedQuery;
use releval::exec::{self, OpStats};
use releval::fold::{
    self, Combine, Component, ComponentFold, FoldError, Shard, ShardProfile, Side,
};
use releval::symbolic::{symbolic_certain_answer, SymbolicOptions, SymbolicOutcome};
use releval::worlds::{stream_certain_answer, valuation_domain, WorldOptions};
use releval::EvalError;
use relmodel::value::Constant;
use relmodel::{Database, Relation, Semantics, Tuple};

use crate::conflict::{ConflictGraph, Core};
use crate::enumerate::{MaskIter, RepairIter};

/// Options controlling repair enumeration and the per-repair evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOptions {
    /// Budget on the number of repairs **visited** by the streaming fold
    /// (early exit can beat it, exactly like the world budget). When the
    /// fold factorizes, it counts elements — a local repair with a
    /// valuation of its component's nulls — and the fold factorizes only
    /// when all of them fit.
    pub max_repairs: u128,
    /// Worker threads for the fold; `None` chooses by [`fold::workers`]:
    /// one worker for a factorized fold or when
    /// [`ConflictGraph::estimated_repairs`] is below
    /// [`fold::PARALLEL_MIN_ELEMENTS`], the machine's parallelism otherwise.
    /// A pinned count is honoured exactly: the workers share the `2^k` mask
    /// prefixes round-robin on whole repairs, or the joint components when
    /// the fold factorizes.
    pub threads: Option<usize>,
    /// Per-repair world-oracle budget, used on the row path when a repair
    /// carries nulls and the symbolic strategy punts. The fold forces its
    /// workers' inner enumerations single-threaded; parallelism belongs to
    /// the outer fold. Its `extra_fresh` also sizes the factorized fold's
    /// shared [`valuation_domain`].
    pub world_options: WorldOptions,
    /// Per-repair symbolic solver budget.
    pub symbolic_options: SymbolicOptions,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions {
            max_repairs: 4096,
            threads: None,
            world_options: WorldOptions::default(),
            symbolic_options: SymbolicOptions::default(),
        }
    }
}

impl RepairOptions {
    /// Options with a specific repair-visit budget.
    pub fn with_max_repairs(mut self, max_repairs: u128) -> Self {
        self.max_repairs = max_repairs;
        self
    }

    /// Options pinning the fold to a specific worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// Errors from the consistent-answer fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// More than [`RepairOptions::max_repairs`] repairs were visited without
    /// the fold converging.
    BudgetExceeded {
        /// Repairs visited when the budget fired.
        repairs: u128,
        /// The configured maximum.
        budget: u128,
    },
    /// A per-repair certain-answer evaluation failed (world budget on an
    /// incomplete repair, empty valuation domain, …).
    Eval(EvalError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::BudgetExceeded { repairs, budget } => write!(
                f,
                "repair enumeration visited {repairs} repairs, exceeding the budget of {budget}"
            ),
            RepairError::Eval(e) => write!(f, "per-repair evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<EvalError> for RepairError {
    fn from(e: EvalError) -> Self {
        RepairError::Eval(e)
    }
}

/// Telemetry from one streaming consistent-answer execution — the CQA
/// counterpart of `releval::worlds::WorldExecution`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairExecution {
    /// The consistent answer — `⋂ certain(Q, R)` over the visited repairs.
    pub answers: Relation,
    /// Elements actually evaluated across all workers. On a whole-repair
    /// fold these are repairs. When the fold factorized
    /// ([`RepairExecution::components`] is `Some`), they are the pairs of a
    /// **local** repair and a valuation of the nulls it and its joint
    /// component's core tuples carry, at most
    /// `Σ_J Σ_{M_J ∈ LR(J)} |dom|^{|N(M_J ∪ C_J)|}`, not the whole repairs
    /// and worlds they stand for.
    pub repairs_visited: u128,
    /// Of the visited elements, how many went through the split executor —
    /// whole repairs as survival masks, or a factorized fold's elements —
    /// instead of a
    /// materialized `Database`. Equal to
    /// [`RepairExecution::repairs_visited`] except on the row path (a
    /// null-bearing database whose plan does not factorize, and the
    /// [`stream_consistent_answer_rows`] reference), which reports zero.
    pub repairs_batched: u128,
    /// Did enumeration stop early because the intersection emptied? Early
    /// exit can only fire when the consistent answer is ∅, and never fires
    /// when the fold factorized.
    pub early_exit: bool,
    /// `Some(k)` when the fold factorized over `k` joint components (a
    /// linear plan within the budget; see the [module docs](self)); `None`
    /// when it enumerated whole repairs.
    pub components: Option<usize>,
    /// Worker threads used by the fold.
    pub threads: usize,
    /// Repairs whose certain answer needed the symbolic c-table strategy:
    /// row-path repairs that carried nulls. Zero when the fold factorized,
    /// because its elements value the nulls themselves.
    pub symbolic_repairs: u128,
    /// Repairs whose certain answer fell through to the world oracle.
    pub world_repairs: u128,
    /// Physical-operator telemetry aggregated across every per-repair
    /// execution and worker shard.
    pub op_stats: OpStats,
    /// Wall-clock and work volume per worker shard, in spawn order (the
    /// same [`ShardProfile`] the worlds fold reports; `units` counts this
    /// shard's batched repairs).
    pub shards: Vec<ShardProfile>,
}

/// Per-shard counts of repairs whose certain answer left the physical
/// executor.
#[derive(Default)]
struct Fallbacks {
    symbolic: u128,
    world: u128,
}

/// The certain answer of one repair under CWA: the physical executor when
/// the repair is complete, the symbolic strategy when it is not, the world
/// oracle when symbolic punts or is unsound for the query.
fn repair_certain_answer(
    plan: &PlannedQuery,
    repair: &Database,
    opts: &RepairOptions,
    null_values_literal: bool,
    op_stats: &mut OpStats,
    fallbacks: &mut Fallbacks,
) -> Result<Relation, EvalError> {
    if repair.is_complete() {
        return Ok(exec::columnar::execute_into(
            plan.physical(),
            repair,
            op_stats,
        ));
    }
    if !null_values_literal {
        match symbolic_certain_answer(plan, repair, &opts.symbolic_options) {
            SymbolicOutcome::Answered(exec) => {
                fallbacks.symbolic += 1;
                op_stats.merge(&exec.op_stats);
                return Ok(exec.answers);
            }
            SymbolicOutcome::Punted(_) => {}
        }
    }
    let mut world_opts = opts.world_options;
    world_opts.threads = Some(1);
    let exec = stream_certain_answer(plan, repair, Semantics::Cwa, &world_opts)?;
    fallbacks.world += 1;
    op_stats.merge(&exec.op_stats);
    Ok(exec.answers)
}

/// The split executor's choice space: the joint components of a linear
/// plan (see the [module docs](self)), or the one component holding every
/// conflict vertex of a complete database, whose elements are the repairs.
struct JointSpace<'g> {
    /// The components: the joint components the graph's core holds, or
    /// the product's one.
    components: Cow<'g, [Component]>,
    /// The null-bearing core tuples the components index.
    rows: Vec<(&'g str, &'g Tuple)>,
    /// The shared valuation domain (empty when no component has a null).
    domain: Vec<Constant>,
    /// The relations holding a conflict vertex or a null-bearing core
    /// tuple.
    volatile: &'g BTreeSet<String>,
    /// `Σ_J Σ_{M_J} |dom|^{|N(M_J ∪ C_J)|}`, counted exactly up to the
    /// budget; past it, some count above the budget. The product space
    /// holds the a-priori repair estimate instead.
    elements: u128,
}

impl<'g> JointSpace<'g> {
    /// The factorized fold's choice space for `plan` over the joint
    /// components of `core` (`graph`'s core of `db`), or `None` when the
    /// plan is not linear in the volatile relations, none is volatile, or a
    /// null meets an empty domain.
    fn new(
        plan: &PlannedQuery,
        db: &Database,
        graph: &ConflictGraph,
        core: &'g Core,
        opts: &RepairOptions,
    ) -> Option<JointSpace<'g>> {
        let volatile = &core.volatile;
        let linear = linear_volatility(plan.physical().root(), &|name| volatile.contains(name));
        if volatile.is_empty() || linear.is_none() {
            return None;
        }
        let components = &core.components;
        let domain = if components.iter().all(|k| k.nulls.is_empty()) {
            Vec::new()
        } else {
            let domain = valuation_domain(plan.expr(), db, &opts.world_options);
            if domain.is_empty() {
                return None;
            }
            domain
        };
        let rows = core.null_rows.iter();
        let rows: Vec<_> = rows.map(|(relation, t)| (relation.as_str(), t)).collect();
        let masks = &mut MaskIter::with_prefix(graph, 0, 0);
        let cap = opts.max_repairs;
        let elements = fold::element_count(components, &rows, domain.len(), masks, cap);
        Some(JointSpace {
            components: Cow::Borrowed(components),
            rows,
            domain,
            volatile,
            elements,
        })
    }

    /// The product space of a complete database (`core` is `graph`'s core
    /// of it): one component holding every conflict vertex, whose local
    /// repairs are the repairs.
    fn product(graph: &ConflictGraph, core: &'g Core) -> JointSpace<'g> {
        let product = Component {
            vertices: (0..graph.conflict_tuples()).collect(),
            ..Component::default()
        };
        JointSpace {
            components: Cow::Owned(vec![product]),
            rows: Vec::new(),
            domain: Vec::new(),
            // Without nulls, the volatile relations are the vertices'.
            volatile: &core.volatile,
            elements: graph.estimated_repairs(),
        }
    }
}

/// The factorized fold's element count for `plan` over `db` and its
/// conflict graph `graph`: `Σ_J Σ_{M_J ∈ LR(J)} |dom|^{|N(M_J ∪ C_J)|}`
/// over the joint components (see the [module docs](self)), or `None` when
/// the plan does not factorize — it is not linear in the volatile
/// relations, none is volatile, or a null meets an empty valuation domain.
/// The count is exact up to
/// [`RepairOptions::max_repairs`]; counting enumerates local repairs and
/// stops once the sum passes the budget, returning some count above it.
/// [`stream_consistent_answer`] factorizes exactly when this is `Some(n)`
/// with `n ≤ max_repairs`, so such a fold never hits the budget.
pub fn factorized_repair_count(
    plan: &PlannedQuery,
    db: &Database,
    graph: &ConflictGraph,
    opts: &RepairOptions,
) -> Option<u128> {
    let core = graph.core_split(db);
    JointSpace::new(plan, db, graph, core, opts).map(|space| space.elements)
}

/// Everything a worker needs, shared read-only across the fleet.
#[derive(Clone, Copy)]
struct ShardJob<'a> {
    plan: &'a PlannedQuery,
    db: &'a Database,
    graph: &'a ConflictGraph,
    opts: &'a RepairOptions,
    null_values_literal: bool,
    workers: usize,
}

/// The row-materializing reference shard runner: the workers share the
/// mask prefixes [`fold::parts`] cuts, as the product fold's do.
fn run_shard_rows(job: ShardJob<'_>, worker: usize, shard: &mut Shard<'_>) -> Fallbacks {
    let mut fallbacks = Fallbacks::default();
    let prefixes = fold::parts(job.graph.conflict_tuples(), 1, job.workers);
    let repairs = prefixes
        .into_iter()
        .skip(worker)
        .step_by(job.workers)
        .flat_map(|part| RepairIter::with_prefix(job.db, job.graph, part.prefix, part.prefix_len));
    shard.fold_rows(repairs, |repair, op_stats| {
        repair_certain_answer(
            job.plan,
            &repair,
            job.opts,
            job.null_values_literal,
            op_stats,
            &mut fallbacks,
        )
    });
    fallbacks
}

/// The streaming, parallel, early-exiting consistent answer for a
/// pre-typechecked plan: the certain answer that survives **every**
/// subset-minimal repair, with telemetry.
///
/// The caller supplies the conflict graph, which must have been built from
/// `db` (debug builds check each relation's length against it); it is
/// typically built once per database and reused across queries, and so is
/// the core it derives on the first fold. Errors with
/// [`RepairError::BudgetExceeded`] when more than
/// [`RepairOptions::max_repairs`] repairs were visited without the fold
/// converging, and with [`RepairError::Eval`] when a per-repair evaluation
/// fails; early exit beats both, because ∅ is proven the moment any shard's
/// intersection empties. A linear plan whose factorized count fits the
/// budget is folded one joint component at a time, on complete and
/// null-bearing databases alike (see the [module docs](self)).
pub fn stream_consistent_answer(
    plan: &PlannedQuery,
    db: &Database,
    graph: &ConflictGraph,
    opts: &RepairOptions,
) -> Result<RepairExecution, RepairError> {
    stream_consistent_answer_inner(plan, db, graph, opts, true)
}

/// [`stream_consistent_answer`] with the row-materializing shard runner
/// forced everywhere: every repair — never a local one — is built as a
/// `Database` and its certain answer computed from scratch. Kept public as
/// the differential-testing reference for the split-executor fold; not
/// intended for production use.
pub fn stream_consistent_answer_rows(
    plan: &PlannedQuery,
    db: &Database,
    graph: &ConflictGraph,
    opts: &RepairOptions,
) -> Result<RepairExecution, RepairError> {
    stream_consistent_answer_inner(plan, db, graph, opts, false)
}

fn stream_consistent_answer_inner(
    plan: &PlannedQuery,
    db: &Database,
    graph: &ConflictGraph,
    opts: &RepairOptions,
    batch: bool,
) -> Result<RepairExecution, RepairError> {
    // The product fold covers complete databases only: their repairs are
    // complete too, so the per-repair certain answer *is* plan execution.
    // A factorized fold values the nulls itself; anything else over a
    // null-bearing database keeps the row path. The split executor reads
    // the core the graph derived from `db` on its first fold.
    let core = batch.then(|| graph.core_split(db));
    let factorized = core
        .and_then(|core| JointSpace::new(plan, db, graph, core, opts))
        .filter(|space| space.elements <= opts.max_repairs);
    let components = factorized.as_ref().map(|s| s.components.len());
    let space = match factorized {
        None => core
            .filter(|core| core.complete)
            .map(|core| JointSpace::product(graph, core)),
        space => space,
    };
    // Whole repairs, on either path, go by the a-priori repair estimate.
    let estimate = components.is_none().then(|| graph.estimated_repairs());
    let workers = fold::workers(opts.threads, estimate);
    let job = ShardJob {
        plan,
        db,
        graph,
        opts,
        null_values_literal: has_incomplete_values(plan.expr()),
        workers,
    };
    // Whole repairs partition among the shards: their answers intersect.
    // Joint components do, and each shard holds the stable answer: their
    // answers unite.
    let combine = match components {
        Some(_) => Combine::Union,
        None => Combine::Intersect,
    };
    let folded = fold::run(workers, opts.max_repairs, combine, |worker, shard| {
        let (Some(space), Some(core)) = (&space, core) else {
            return run_shard_rows(job, worker, shard);
        };
        // The complete core rows are the stable scans, shared by every
        // worker; a relation is static iff no element adds rows to it.
        let exec = || {
            let scans = core.batches.iter().map(|(name, batch)| {
                let is_static = !space.volatile.contains(name.as_str());
                (name.clone(), Arc::clone(batch), is_static)
            });
            fold::shard_exec(plan.physical(), scans)
        };
        let fold = ComponentFold::new(&space.components, &space.rows, &space.domain, workers);
        let root = Side::Certain(plan.physical().root());
        let masks = MaskIter::with_prefix(graph, 0, 0);
        fold.run_shard(worker, shard, root, masks, exec);
        // The split executor never leaves the physical executor.
        Fallbacks::default()
    })
    .map_err(|e| match e {
        FoldError::Budget { visited } => RepairError::BudgetExceeded {
            repairs: visited,
            budget: opts.max_repairs,
        },
        FoldError::Eval(e) => RepairError::Eval(e),
    })?;
    Ok(RepairExecution {
        // Every database has at least one repair, so a completed fold has
        // folded at least one answer (and at least one component, when it
        // factorized).
        answers: folded
            .answers
            .expect("repair enumeration yields at least one repair"),
        repairs_visited: folded.visited,
        repairs_batched: folded.batched,
        early_exit: folded.early_exit,
        components,
        threads: workers,
        symbolic_repairs: folded.tallies.iter().map(|t| t.symbolic).sum(),
        world_repairs: folded.tallies.iter().map(|t| t.world).sum(),
        op_stats: folded.op_stats,
        shards: folded.shards,
    })
}

/// Materializes every subset-minimal repair into a vector, respecting an
/// a-priori budget. Retained for tests and examples; the consistent-answer
/// path streams instead.
pub fn enumerate_repairs(
    db: &Database,
    graph: &ConflictGraph,
    max_repairs: u128,
) -> Result<Vec<Database>, RepairError> {
    let mut out = Vec::new();
    for repair in RepairIter::new(db, graph) {
        if out.len() as u128 >= max_repairs {
            return Err(RepairError::BudgetExceeded {
                repairs: out.len() as u128 + 1,
                budget: max_repairs,
            });
        }
        out.push(repair);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::ast::RaExpr;
    use relmodel::{DatabaseBuilder, Tuple, Value};

    fn planned(expr: &RaExpr, db: &Database) -> PlannedQuery {
        PlannedQuery::new(expr.clone(), db.schema()).unwrap()
    }

    fn fold(q: &RaExpr, db: &Database, opts: &RepairOptions) -> RepairExecution {
        let graph = ConflictGraph::build(db);
        stream_consistent_answer(&planned(q, db), db, &graph, opts).unwrap()
    }

    #[test]
    fn consistent_answer_survives_every_repair() {
        // R keyed on k: (1,10)/(1,20) conflict, (2,30) is core. The key
        // query: π_v(R) — 30 survives every repair; 10 and 20 do not.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .build();
        let q = RaExpr::relation("R").project(vec![1]);
        let exec = fold(&q, &db, &RepairOptions::default());
        assert_eq!(exec.answers.len(), 1);
        assert!(exec.answers.contains(&Tuple::ints(&[30])));
        assert_eq!(exec.repairs_visited, 2);
        assert!(!exec.early_exit);
    }

    #[test]
    fn early_exit_fires_on_empty_consistent_answers() {
        // Every repair keeps exactly one tuple per key, so no v value
        // survives every repair: the fold may stop well before visiting all
        // 2^8 repairs. The key self-join pairs each tuple with itself; it
        // reads R on both join sides, so it is not linear and the fold
        // enumerates whole repairs.
        let mut b = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"]);
        for k in 0..8i64 {
            b = b.ints("R", &[k, 10 * k + 1]).ints("R", &[k, 10 * k + 2]);
        }
        let db = b.build();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("R"))
            .select(relalgebra::predicate::Predicate::eq(
                relalgebra::predicate::Operand::col(0),
                relalgebra::predicate::Operand::col(2),
            ))
            .project(vec![1]);
        // Single shard: within a shard the prefix-pinned groups keep their
        // values in the local intersection, so only the unsharded fold is
        // guaranteed to early-exit here.
        let exec = fold(&q, &db, &RepairOptions::default().with_threads(1));
        assert_eq!(exec.components, None, "R ⋈ R is not linear");
        assert!(exec.answers.is_empty());
        assert!(exec.early_exit);
        assert!(
            exec.repairs_visited < 256,
            "2^8 repairs exist; visited {}",
            exec.repairs_visited
        );
        // The sharded fold agrees on the answer either way.
        let sharded = fold(&q, &db, &RepairOptions::default().with_threads(4));
        assert!(sharded.answers.is_empty());
    }

    #[test]
    fn budget_bounds_repairs_visited() {
        let mut b = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[99, 0]);
        for k in 0..8i64 {
            b = b.ints("R", &[k, 1]).ints("R", &[k, 2]);
        }
        let db = b.build();
        // π_k(R) keeps every k in every repair: the intersection never
        // empties, so the fold must hit the budget.
        let q = RaExpr::relation("R").project(vec![0]);
        let graph = ConflictGraph::build(&db);
        let err = stream_consistent_answer(
            &planned(&q, &db),
            &db,
            &graph,
            &RepairOptions::default().with_max_repairs(10),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            RepairError::BudgetExceeded { budget: 10, .. }
        ));
    }

    /// `π_col(σ_{k = k'}(R × R))`: the key self-join pairs each tuple with
    /// itself. It reads R on both join sides, so it is not linear.
    fn self_join(col: usize) -> RaExpr {
        RaExpr::relation("R")
            .product(RaExpr::relation("R"))
            .select(relalgebra::predicate::Predicate::eq(
                relalgebra::predicate::Operand::col(0),
                relalgebra::predicate::Operand::col(2),
            ))
            .project(vec![col])
    }

    /// The conflicting pair pins v to 10-or-⊥0; the core tuple (2,⊥1) is
    /// incomplete, so every repair is an incomplete database.
    fn incomplete_dirty_db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("R", vec![Value::int(2), Value::null(1)])
            .build()
    }

    #[test]
    fn incomplete_repairs_go_through_the_certain_answer_machinery() {
        // The keys are certain in every world of every repair; no value
        // is. The self-join is not linear, so the fold builds each repair
        // and answers it symbolically.
        let db = incomplete_dirty_db();
        let exec = fold(&self_join(0), &db, &RepairOptions::default());
        assert_eq!(exec.components, None);
        assert_eq!(exec.answers.len(), 2, "both keys survive: {}", exec.answers);
        assert!(
            exec.symbolic_repairs > 0,
            "incomplete repairs answered symbolically"
        );

        let exec = fold(&self_join(1), &db, &RepairOptions::default());
        assert!(
            exec.answers.is_empty(),
            "⊥1 makes no value certain: {}",
            exec.answers
        );
    }

    #[test]
    fn incomplete_linear_plans_take_the_joint_fold() {
        // The linear twins of the test above: `π_k(R)` and `π_v(R)` fold
        // two joint components — the clash with ⊥0, and ⊥1's core tuple —
        // and value the nulls themselves, with no symbolic repair.
        let db = incomplete_dirty_db();
        for (col, certain) in [(0, 2), (1, 0)] {
            let q = RaExpr::relation("R").project(vec![col]);
            let exec = fold(&q, &db, &RepairOptions::default());
            assert_eq!(exec.components, Some(2));
            assert_eq!(exec.answers.len(), certain, "π_{col}: {}", exec.answers);
            assert_eq!(exec.repairs_batched, exec.repairs_visited);
            assert_eq!(exec.symbolic_repairs, 0);
            assert_eq!(
                exec.answers,
                fold_rows(&q, &db, &RepairOptions::default()).answers
            );
        }
    }

    #[test]
    fn sharded_threads_agree_with_single_thread() {
        let mut b = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[99, 77]);
        for k in 0..6i64 {
            b = b.ints("R", &[k, 1]).ints("R", &[k, 2]);
        }
        let db = b.build();
        // The key self-join is not linear: the product fold deals 2^k mask
        // prefixes round-robin to exactly the pinned workers, 3 included.
        let q = self_join(1);
        let single = fold(&q, &db, &RepairOptions::default().with_threads(1));
        assert_eq!(single.components, None);
        for threads in [2, 3, 4, 8] {
            let multi = fold(&q, &db, &RepairOptions::default().with_threads(threads));
            assert_eq!(multi.answers, single.answers, "threads = {threads}");
            assert_eq!(multi.threads, threads);
            assert_eq!(multi.shards.len(), threads);
        }
        assert!(single.answers.contains(&Tuple::ints(&[77])));
    }

    fn fold_rows(q: &RaExpr, db: &Database, opts: &RepairOptions) -> RepairExecution {
        let graph = ConflictGraph::build(db);
        stream_consistent_answer_rows(&planned(q, db), db, &graph, opts).unwrap()
    }

    #[test]
    fn batched_fold_matches_row_fold() {
        // Complete but inconsistent: the default path batches every repair.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .ints("R", &[3, 30])
            .build();
        let queries = [
            RaExpr::relation("R").project(vec![1]),
            RaExpr::relation("R").project(vec![0]).difference(
                RaExpr::relation("R")
                    .select(relalgebra::predicate::Predicate::eq(
                        relalgebra::predicate::Operand::col(1),
                        relalgebra::predicate::Operand::int(10),
                    ))
                    .project(vec![0]),
            ),
            RaExpr::relation("R")
                .project(vec![1])
                .intersection(RaExpr::values(Relation::from_tuples(
                    1,
                    vec![Tuple::ints(&[30]), Tuple::ints(&[10])],
                ))),
        ];
        for (i, q) in queries.iter().enumerate() {
            for threads in [1usize, 4] {
                let opts = RepairOptions::default().with_threads(threads);
                let batched = fold(q, &db, &opts);
                let rows = fold_rows(q, &db, &opts);
                assert_eq!(
                    batched.answers, rows.answers,
                    "query {i}, {threads} threads"
                );
                assert_eq!(batched.repairs_visited, rows.repairs_visited, "query {i}");
                assert_eq!(batched.early_exit, rows.early_exit, "query {i}");
                assert_eq!(
                    batched.repairs_batched, batched.repairs_visited,
                    "complete input: every visited repair goes through the mask path"
                );
                assert_eq!(rows.repairs_batched, 0, "rows reference never batches");
            }
        }
    }

    /// A key clash between a complete tuple and one with a null.
    fn clash_with_a_null() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .build()
    }

    #[test]
    fn incomplete_inputs_fall_back_to_the_row_path() {
        // A non-linear plan over a null-bearing database builds every
        // repair.
        let exec = fold(
            &self_join(0),
            &clash_with_a_null(),
            &RepairOptions::default(),
        );
        assert_eq!(
            exec.repairs_batched, 0,
            "nulls force the materializing path"
        );
        assert_eq!(exec.answers.len(), 1);
    }

    #[test]
    fn incomplete_linear_inputs_fold_the_vertex_with_its_null() {
        // The linear twin: the clash and ⊥0 are one joint component, whose
        // elements are the local repair {(1,10)}, which holds no null, and
        // {(1,⊥0)} under every valuation of ⊥0.
        let db = clash_with_a_null();
        let q = RaExpr::relation("R").project(vec![0]);
        let exec = fold(&q, &db, &RepairOptions::default());
        assert_eq!(exec.components, Some(1));
        assert_eq!(exec.repairs_batched, exec.repairs_visited);
        assert_eq!(
            exec.answers,
            Relation::from_tuples(1, vec![Tuple::ints(&[1])])
        );
        let graph = ConflictGraph::build(&db);
        let count =
            factorized_repair_count(&planned(&q, &db), &db, &graph, &RepairOptions::default());
        // {(1,10)} once, and {(1,⊥0)} under the 4 valuations of ⊥0 over
        // the constants 1 and 10 plus two fresh ones: a choice values only
        // the nulls its rows carry.
        assert_eq!(count, Some(1 + 4));
        assert_eq!(exec.repairs_visited, 5, "π_k never empties the run");
        // One element below the count, the fold takes the row path.
        let tight = RepairOptions::default().with_max_repairs(4);
        let rows = fold(&q, &db, &tight);
        assert_eq!((rows.components, rows.repairs_batched), (None, 0));
        assert_eq!(rows.answers, exec.answers);
    }

    #[test]
    fn batched_fold_reuses_hash_tables_across_repairs() {
        // S is conflict-free (fully static); the R ⋈ S hash join builds S's
        // key table on the first repair of the shard and reuses it after.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .relation("S", &["v", "w"])
            .ints("S", &[10, 100])
            .ints("S", &[20, 200])
            .ints("S", &[30, 300])
            .build();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(relalgebra::predicate::Predicate::eq(
                relalgebra::predicate::Operand::col(1),
                relalgebra::predicate::Operand::col(2),
            ))
            .project(vec![3]);
        let exec = fold(&q, &db, &RepairOptions::default().with_threads(1));
        assert!(!exec.early_exit, "300 survives both repairs");
        assert_eq!(exec.repairs_visited, 2);
        assert_eq!(exec.repairs_batched, 2);
        assert!(exec.answers.contains(&Tuple::ints(&[300])));
        assert!(
            exec.op_stats.tables_reused > 0,
            "build-side tables are reused across repairs: {:?}",
            exec.op_stats
        );
    }

    #[test]
    fn linear_plans_fold_one_component_at_a_time() {
        // Eight independent key clashes: 2^8 repairs, but 8 components of
        // 2 local repairs each. π_v(R) is linear, so the fold visits 16
        // local repairs and never exits early, even though the answer is
        // the core value alone.
        let mut b = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[99, 77]);
        for k in 0..8i64 {
            b = b.ints("R", &[k, 10 * k + 1]).ints("R", &[k, 10 * k + 2]);
        }
        let db = b.build();
        let q = RaExpr::relation("R").project(vec![1]);
        for threads in [1usize, 2, 4] {
            let exec = fold(&q, &db, &RepairOptions::default().with_threads(threads));
            assert_eq!(exec.components, Some(8));
            assert_eq!(exec.repairs_visited, 16, "Σ local repairs, not 2^8");
            assert_eq!(exec.repairs_batched, 16);
            assert!(!exec.early_exit);
            assert_eq!(
                exec.answers,
                Relation::from_tuples(1, vec![Tuple::ints(&[77])])
            );
            let rows = fold_rows(&q, &db, &RepairOptions::default().with_threads(threads));
            assert_eq!(rows.components, None);
            assert_eq!(rows.repairs_visited, 256);
            assert_eq!(exec.answers, rows.answers);
        }
        // The budget counts local repairs.
        let graph = ConflictGraph::build(&db);
        let plan = planned(&q, &db);
        let opts = RepairOptions::default().with_threads(1);
        assert!(stream_consistent_answer(&plan, &db, &graph, &opts.with_max_repairs(16)).is_ok());
        assert_eq!(
            stream_consistent_answer(&plan, &db, &graph, &opts.with_max_repairs(15)).unwrap_err(),
            RepairError::BudgetExceeded {
                repairs: 15,
                budget: 15
            }
        );
    }

    #[test]
    fn factorized_fold_keeps_answers_that_need_one_vertex_per_component() {
        // Key 1 clashes three ways; every repair keeps one of its tuples,
        // each joining S to the same w. Key 2 clashes two ways, with only
        // one side joining. 300 survives every repair via *some* vertex of
        // the first component; 400 does not.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 11])
            .ints("R", &[1, 12])
            .ints("R", &[2, 20])
            .ints("R", &[2, 21])
            .relation("S", &["v", "w"])
            .ints("S", &[10, 300])
            .ints("S", &[11, 300])
            .ints("S", &[12, 300])
            .ints("S", &[20, 400])
            .build();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(relalgebra::predicate::Predicate::eq(
                relalgebra::predicate::Operand::col(1),
                relalgebra::predicate::Operand::col(2),
            ))
            .project(vec![3]);
        let exec = fold(&q, &db, &RepairOptions::default().with_threads(1));
        assert_eq!(exec.components, Some(2));
        assert_eq!(exec.repairs_visited, 3 + 2);
        assert_eq!(
            exec.answers,
            Relation::from_tuples(1, vec![Tuple::ints(&[300])])
        );
        assert_eq!(
            exec.answers,
            fold_rows(&q, &db, &RepairOptions::default()).answers
        );
    }

    #[test]
    fn materializing_enumeration_respects_its_budget() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .build();
        let graph = ConflictGraph::build(&db);
        assert_eq!(enumerate_repairs(&db, &graph, 10).unwrap().len(), 2);
        assert!(matches!(
            enumerate_repairs(&db, &graph, 1),
            Err(RepairError::BudgetExceeded { budget: 1, .. })
        ));
    }
}
