//! Possible-world (ground-truth) certain answers, computed by **streaming**.
//!
//! The classical definition (equation (1) of the paper) is
//! `certain(Q, D) = ⋂ { Q(D') | D' ∈ [[D]] }`. This module computes it by
//! folding that intersection world by world through the enumeration-fold
//! driver [`crate::fold`], which owns the sharding, the budget on worlds
//! visited, early exit on an empty intersection, and the merge. Worlds are
//! never materialized into a `Vec<Database>`. What this module supplies is
//! the choice space: the worlds are the elements of the
//! [component fold](crate::fold) over **one** component holding every
//! null-bearing row, each valuation extended by each OWA extension subset,
//! under [`Combine::Intersect`], whose workers share contiguous ranges of
//! its valuations — or, when the plan allows, one null component's
//! valuations at a time (below).
//!
//! Enumeration cost is still exponential in the number of nulls — that is
//! precisely the complexity gap the paper discusses, and the reason this code
//! serves as *ground truth* for validating the efficient evaluators rather
//! than as a production algorithm. The [`WorldOptions::max_worlds`] budget
//! bounds the number of worlds **visited**: with early exit, queries whose
//! a-priori world count dwarfs the budget can still finish (and finish
//! correctly) if the intersection collapses early.
//!
//! The fold **lowers the query once** and executes the shared
//! [`PhysicalPlan`] in every world, and it is **batched**: a world is never
//! materialized as a `Database` at all. Each relation's complete rows
//! (identical in every world) are transposed once into the workers' stable
//! scans; per world only the null-bearing rows, valued, and the chosen
//! extension tuples are written into reused scratch batches (with the Δ
//! rows of the constants they introduce), and the shared plan runs through
//! [`crate::exec::columnar::split::ShardExec`]. Stable subresults and the
//! hash tables over them (join build sides, membership tables) are computed
//! for the first world of a shard and reused by every later one, so the
//! marginal cost of a world is proportional to its handful of volatile rows,
//! and only the volatile answer parts are intersected. The row fold is
//! retained as [`stream_certain_answer_rows`], the differential reference
//! and benchmark baseline; it always enumerates whole worlds.
//!
//! # Null components: one component at a time
//!
//! A world fold is the [component fold](crate::fold) with no choice
//! vertices: its components are the **null components** (two nulls are in
//! one when they occur in the same tuple, taken transitively), a component's
//! elements are the valuations of its nulls over the one shared
//! [`valuation_domain`], and a world is the ground rows `G` plus each
//! component's resolved rows. Two plan shapes
//! ([`relalgebra::physical::fold_shape`]) then fold each component's
//! valuations instead of their product:
//!
//! ```text
//! (i)  linear Q:            ⋂_v Q(v)       = Q(G) ∪ ⋃_K ⋂_{v_K} vol_K(v_K)
//! (ii) root A − B, A and B linear:
//!                           ⋂_v (A(v) − B(v)) = ⋂_v A(v) − ⋃_v B(v),
//!                           ⋃_v B(v)          = B(G) ∪ ⋃_K ⋃_{v_K} vol_K(v_K)
//! ```
//!
//! (i) is the component fold's identity. *Proof of (ii).* A row is in
//! `A(v) − B(v)` for every `v` iff it is in `A(v)` for every `v` and in
//! `B(v)` for no `v`: ∀ distributes over ∧, for any set of worlds.
//! `⋂_v A(v)` is (i) for `A` (or `A(G)` when `A` reads no volatile
//! relation), and a row is in some `B(v)` iff it is in `B(G)` or in
//! `vol_K(v_K)` for some component `K` and valuation `v_K`, since any `v_K`
//! extends to a whole valuation.
//!
//! **When the fold factorizes.** The factorized fold visits at most
//! `Σ_K |dom|^|N_K|` elements for each side that reads a volatile relation —
//! the plan itself in (i), `A` and `B` in (ii) — and one element for a side
//! that does not (its answer is the same in every world, and is still
//! evaluated, so every fold visits at least one element). In (ii) it first
//! evaluates one whole world — the first element of the product fold's one
//! component, `v₀` — and answers
//! ∅ at once when `A(v₀) − B(v₀)` is empty, so it keeps the product fold's
//! first-world exit; that world is one more element. It runs iff the count
//! is below the product fold's `|dom|^|N|` and within
//! [`WorldOptions::max_worlds`] — so it never visits more elements than the
//! product space holds, and never hits the budget. Everything else keeps
//! the product fold, unchanged: plans that read Δ (the constants a
//! valuation introduces enter the active domain), other plan shapes, OWA
//! with [`WorldOptions::max_owa_extra`] above zero (extension tuples are
//! not per-component choices), a database with one component (`Σ = ∏`),
//! and a factorized space over the budget.
//!
//! **What the telemetry means there.** [`WorldExecution::components`] is
//! `Some(k)` over `k` null components. [`WorldExecution::worlds_visited`]
//! counts *component valuations* (the elements folded, plus the first
//! whole world in (ii)), not the whole worlds they stand for. A component's
//! run on the certain side stops once its intersection is empty; in (ii)
//! the fold ends after the first whole world when its difference is ∅, the
//! possible side is skipped when `⋂ A` is empty, and otherwise subtracts
//! `B`'s rows from it and stops when nothing is left.
//! [`WorldExecution::early_exit`] is `true` only when such a stop skipped
//! elements and the answer is ∅, as on the product fold.
//! [`WorldExecution::threads`] follows [`fold::workers`]: one unless
//! [`WorldOptions::threads`] pins it, because every worker rebuilds the
//! stable subresults; a pinned count deals the components round-robin to
//! the workers.

use std::collections::BTreeSet;
use std::sync::Arc;

use relalgebra::ast::RaExpr;
use relalgebra::physical::{fold_shape, FoldShape, PhysicalPlan};
use relalgebra::plan::PlannedQuery;
use relmodel::batch::ColumnBatch;
use relmodel::semantics::{adequate_domain, all_complete_tuples, WorldIter};
use relmodel::value::{Constant, NullId};
use relmodel::{Database, Relation, Semantics, Tuple};

use crate::error::EvalError;
use crate::exec::{self, OpStats};
use crate::fold::{
    self, Combine, Component, ComponentFold, FoldError, Folded, NoChoice, Shard, ShardProfile, Side,
};

/// Options controlling possible-world enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldOptions {
    /// Number of fresh constants to add to the valuation domain; `None` means
    /// "one per null plus one", which is adequate for generic queries.
    pub extra_fresh: Option<usize>,
    /// Under OWA, the maximum number of extra tuples added to each world.
    /// Zero is adequate for monotone queries (adding tuples only grows their
    /// answers); larger values let tests probe non-monotone queries, and
    /// keep the fold on the product of every null's valuations.
    pub max_owa_extra: usize,
    /// Budget on the number of worlds *visited* by the streaming fold (and,
    /// for [`enumerate_worlds`] and [`possible_answers`], on the a-priori
    /// valuation count). A factorized fold counts component valuations, and
    /// runs only when they all fit the budget.
    pub max_worlds: u128,
    /// Worker threads for the streaming fold; `None` chooses by
    /// [`fold::workers`]: one worker for a factorized fold or a product
    /// space of fewer than [`fold::PARALLEL_MIN_ELEMENTS`] valuations, the
    /// machine's parallelism otherwise. A pinned count is honoured exactly:
    /// the workers share contiguous valuation ranges of the product fold's
    /// one component, or the null components round-robin when the fold
    /// factorizes.
    pub threads: Option<usize>,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            extra_fresh: None,
            max_owa_extra: 0,
            max_worlds: 5_000_000,
            threads: None,
        }
    }
}

impl WorldOptions {
    /// Options with a specific number of fresh constants.
    pub fn with_fresh(fresh: usize) -> Self {
        WorldOptions {
            extra_fresh: Some(fresh),
            ..WorldOptions::default()
        }
    }

    /// Options that extend OWA worlds with up to `extra` additional tuples.
    pub fn with_owa_extra(extra: usize) -> Self {
        WorldOptions {
            max_owa_extra: extra,
            ..WorldOptions::default()
        }
    }

    /// Options pinning the streaming fold to a specific worker-thread count.
    pub fn with_threads(threads: usize) -> Self {
        WorldOptions {
            threads: Some(threads.max(1)),
            ..WorldOptions::default()
        }
    }
}

/// Builds the valuation domain used for world enumeration of `expr` over `db`.
pub fn valuation_domain(
    expr: &RaExpr,
    db: &Database,
    opts: &WorldOptions,
) -> Vec<relmodel::value::Constant> {
    let fresh = opts.extra_fresh.unwrap_or_else(|| db.null_ids().len() + 1);
    adequate_domain(db, &expr.constants(), fresh)
}

/// `|domain|^|nulls|`: the valuation count shared by the planner's estimate
/// and the enumerator's budget check — delegating to relmodel's single
/// source of truth so the shard partitioning and the enumerator can never
/// disagree about the space size.
fn valuation_count(domain_len: usize, nulls: usize) -> u128 {
    relmodel::valuation::valuation_space_size(nulls, domain_len)
}

/// The number of valuations world enumeration would have to visit for `expr`
/// over `db` — `|domain|^|nulls|` — without enumerating anything. This is the
/// planner-side cost estimate that lets callers decide *whether* to pay for
/// ground truth before committing to it; the streaming fold may visit far
/// fewer worlds than this upper bound when it exits early.
pub fn estimated_world_count(expr: &RaExpr, db: &Database, opts: &WorldOptions) -> u128 {
    let domain = valuation_domain(expr, db, opts);
    valuation_count(domain.len(), db.null_ids().len())
}

/// The shared enumeration prologue: builds the valuation domain, guards
/// against the zero-world trap (an empty valuation domain with nulls present
/// denotes **no** possible worlds, and every "certain answer" over zero
/// worlds would be vacuously wrong), and resolves the OWA extension bound
/// for the requested semantics.
fn enumeration_setup(
    expr: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<(Vec<relmodel::value::Constant>, usize), EvalError> {
    let domain = valuation_domain(expr, db, opts);
    let nulls = db.null_ids().len();
    if nulls > 0 && domain.is_empty() {
        return Err(EvalError::EmptyDomain { nulls });
    }
    let max_extra = match semantics {
        Semantics::Cwa => 0,
        Semantics::Owa => opts.max_owa_extra,
    };
    Ok((domain, max_extra))
}

/// The a-priori budget check used by the materializing helpers, which must
/// refuse *before* enumerating: the streaming fold instead bounds worlds
/// visited.
fn check_apriori_budget(world_count: u128, opts: &WorldOptions) -> Result<(), EvalError> {
    if world_count > opts.max_worlds {
        return Err(EvalError::WorldBudgetExceeded {
            worlds: world_count,
            budget: opts.max_worlds,
        });
    }
    Ok(())
}

/// Telemetry from one streaming certain-answer execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldExecution {
    /// The certain answer — `⋂ Q(D')` over the visited worlds.
    pub answers: Relation,
    /// Worlds actually evaluated across all workers (before any structural
    /// dedup; duplicates are harmless to an idempotent ∩ and deduplication
    /// would cost O(distinct worlds) memory). When the fold factorized
    /// ([`WorldExecution::components`] is `Some`), these are **component
    /// valuations**, not the whole worlds they stand for.
    pub worlds_visited: u128,
    /// Of the visited worlds, how many went through the batched split
    /// executor (valued rows in reused scratch batches) instead of
    /// materializing a row `Database`. The default fold batches everything;
    /// the [`stream_certain_answer_rows`] reference reports zero.
    pub worlds_batched: u128,
    /// Did enumeration stop early because the intersection emptied? Early
    /// exit can only fire when the certain answer is ∅ (on the factorized
    /// fold: when a run stop skipped elements and the answer is ∅).
    pub early_exit: bool,
    /// `Some(k)` when the fold factorized over the database's `k` null
    /// components (see the [module docs](self)); `None` when it enumerated
    /// whole worlds.
    pub components: Option<usize>,
    /// Worker threads used by the fold.
    pub threads: usize,
    /// Upper bound on worlds concurrently materialized: one per worker, plus
    /// one OWA extension per worker when worlds may grow.
    pub peak_worlds_in_flight: usize,
    /// Physical-operator telemetry aggregated across every per-world
    /// execution and worker shard.
    pub op_stats: OpStats,
    /// Wall-clock and work volume per worker shard, in spawn order — what
    /// the engine's query trace renders as per-shard spans.
    pub shards: Vec<ShardProfile>,
}

/// Each relation's complete rows, as the stable scans every worker (and
/// every fold of a difference's sides) shares: static unless the relation
/// can receive rows per world (null-bearing rows, or OWA extension tuples
/// when `max_extra > 0`).
fn ground_scans(db: &Database, max_extra: usize) -> Vec<(String, Arc<ColumnBatch>, bool)> {
    db.schema()
        .iter()
        .map(|rs| {
            let rel = db.relation(&rs.name).expect("schema lists the relation");
            let complete = rel.is_complete();
            let batch = if complete {
                ColumnBatch::from_relation(rel)
            } else {
                ColumnBatch::from_rows(rel.arity(), rel.iter().filter(|t| t.is_complete()))
            };
            (rs.name.clone(), Arc::new(batch), complete && max_extra == 0)
        })
        .collect()
}

/// Everything a worker needs, shared read-only across the fleet. The
/// physical plan is lowered **once** before the fleet starts; every worker
/// executes the same plan in each of its worlds.
#[derive(Clone, Copy)]
struct ShardJob<'a> {
    plan: &'a PhysicalPlan,
    db: &'a Database,
    domain: &'a [Constant],
    semantics: Semantics,
    max_extra: usize,
    /// The stable scans (empty on the row fold, which does not read them).
    scans: &'a [(String, Arc<ColumnBatch>, bool)],
    /// The null-bearing rows the components index (empty on the row fold).
    rows: &'a [(&'a str, &'a Tuple)],
    workers: usize,
}

/// The row-instantiating reference fold: materializes each world as a
/// `Database` and executes the plan from scratch in it. The workers share
/// the valuation ranges [`fold::parts`] cuts, as the product fold's do.
fn run_shard_rows(job: ShardJob<'_>, worker: usize, shard: &mut Shard<'_>) {
    let valuations = valuation_count(job.domain.len(), job.db.null_ids().len());
    // A world fold has no choice vertices.
    let ranges = fold::parts(0, valuations, job.workers);
    let worlds = ranges
        .into_iter()
        .skip(worker)
        .step_by(job.workers)
        .flat_map(|part| {
            let (start, end) = part.valuations;
            WorldIter::new(job.db, job.domain, job.semantics, job.max_extra)
                .without_dedup()
                .valuation_range(start, end)
        });
    shard.fold_rows(worlds, |world, stats| {
        Ok(exec::columnar::execute_into(job.plan, &world, stats))
    });
}

/// The product fold: the worlds are the elements of `product`, the one
/// component holding every null-bearing row, each extended by every OWA
/// extension subset — the same `(valuation, extension subset)` order as
/// [`run_shard_rows`]. Its parts are dealt across the workers under
/// [`Combine::Intersect`]; `first_only` folds the first world alone, on
/// one worker.
fn fold_product(
    job: ShardJob<'_>,
    product: &Component,
    first_only: bool,
    budget: u128,
) -> Result<Folded<()>, FoldError> {
    // WorldIter's extension candidates: every complete tuple over the
    // valuation domain, in the same order.
    let extensions = if job.max_extra > 0 {
        all_complete_tuples(job.db, job.domain)
    } else {
        Vec::new()
    };
    let workers = if first_only { 1 } else { job.workers };
    let components = std::slice::from_ref(product);
    let product = ComponentFold {
        extensions: (&extensions, job.max_extra),
        first_only,
        ..ComponentFold::new(components, job.rows, job.domain, workers)
    };
    fold::run(workers, budget, Combine::Intersect, |worker, shard| {
        let exec = || fold::shard_exec(job.plan, job.scans.iter().cloned());
        let root = Side::Certain(job.plan.root());
        product.run_shard(worker, shard, root, NoChoice::default(), exec)
    })
}

/// The factorized fold, when the decision rule (see the
/// [module docs](self)) takes it: the plan's shape, the null components,
/// and the number of elements the fold may visit.
struct Factorized<'p> {
    shape: FoldShape<'p>,
    components: Vec<Component>,
    elements: u128,
}

/// Decides whether the split-executor fold factorizes over the null
/// components of the null-bearing `rows`, given the product fold's
/// `product` worlds. The plan's shape is checked first, so a product-shaped
/// plan groups nothing.
fn factorize<'p>(
    plan: &'p PhysicalPlan,
    rows: &[(&str, &Tuple)],
    domain_len: usize,
    max_extra: usize,
    product: u128,
    opts: &WorldOptions,
) -> Option<Factorized<'p>> {
    if max_extra > 0 {
        return None;
    }
    let volatile: BTreeSet<&str> = rows.iter().map(|&(name, _)| name).collect();
    let shape = fold_shape(plan.root(), &|name| volatile.contains(name));
    if matches!(shape, FoldShape::Product) {
        return None;
    }
    let components = fold::group(&[], |_| &[], rows);
    let per_side = fold::element_count(
        &components,
        rows,
        domain_len,
        &mut NoChoice::default(),
        u128::MAX,
    );
    // A side that reads no volatile relation is one element.
    let side = |volatile: bool| if volatile { per_side } else { 1 };
    let elements = match shape {
        FoldShape::Product => unreachable!("checked above"),
        FoldShape::Linear { volatile } => side(volatile),
        // The first whole world, then both sides.
        FoldShape::Difference { left_volatile, .. } => 1u128
            .saturating_add(side(left_volatile))
            .saturating_add(per_side),
    };
    (elements < product && elements <= opts.max_worlds).then_some(Factorized {
        shape,
        components,
        elements,
    })
}

/// The factorized fold: identity (i) for a linear plan, (ii) for a root
/// difference. A side that reads no volatile relation folds one element
/// holding no component's rows: its answer is the same in every world.
fn fold_factorized(
    job: ShardJob<'_>,
    factorized: &Factorized<'_>,
    product: &Component,
    budget: u128,
) -> Result<Folded<()>, FoldError> {
    let ground = [Component::default()];
    // One run per component on `side`, or the one ground element.
    let fold_side = |volatile: bool, side: Side<'_>, combine, budget| {
        let components = if volatile {
            &factorized.components[..]
        } else {
            &ground
        };
        let components = ComponentFold::new(components, job.rows, job.domain, job.workers);
        fold::run(job.workers, budget, combine, |worker, shard| {
            let exec = || fold::shard_exec(job.plan, job.scans.iter().cloned());
            components.run_shard(worker, shard, side, NoChoice::default(), exec)
        })
    };
    let (left, left_volatile, right) = match factorized.shape {
        FoldShape::Linear { volatile } => {
            let root = Side::Certain(job.plan.root());
            return fold_side(volatile, root, Combine::Union, budget);
        }
        FoldShape::Difference {
            left,
            left_volatile,
            right,
        } => (left, left_volatile, right),
        FoldShape::Product => unreachable!("the product fold does not factorize"),
    };
    // One whole world first — the product fold's first, `v₀` — keeps its
    // exit: the answer is ∅ when `A(v₀) − B(v₀)` is.
    let world = fold_product(job, product, true, budget)?;
    if world.early_exit {
        return Ok(world);
    }
    // ⋂ A: one run per component, or A(G) when A reads no volatile
    // relation.
    let rest = budget.saturating_sub(world.visited);
    let certain = fold_side(left_volatile, Side::Certain(left), Combine::Union, rest)?;
    let first = world.then(certain);
    let minuend = first.answers.clone().expect("the certain side folds");
    // ⋂ A − ⋃ B, skipped when ⋂ A is already empty.
    if minuend.is_empty() {
        return Ok(first);
    }
    // All three folds together visit at most the factorized count, which
    // the decision rule keeps within the budget.
    let rest = budget.saturating_sub(first.visited);
    let second = fold_side(
        true,
        Side::Possible(right, &minuend),
        Combine::Intersect,
        rest,
    )?;
    Ok(first.then(second))
}

/// The streaming, parallel, early-exiting certain answer for a
/// pre-typechecked plan: equation (1) computed as a fold, with telemetry.
/// A linear plan, or a root difference of linear sides, folds one null
/// component at a time when that visits fewer elements (see the
/// [module docs](self)).
///
/// Errors with [`EvalError::EmptyDomain`] when there are zero possible
/// worlds, and with [`EvalError::WorldBudgetExceeded`] when more than
/// [`WorldOptions::max_worlds`] worlds were visited without the fold
/// converging (early exit beats the budget: a query whose intersection
/// empties within budget succeeds no matter how large the world space is).
pub fn stream_certain_answer(
    plan: &PlannedQuery,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<WorldExecution, EvalError> {
    stream_certain_answer_inner(plan.expr(), plan.physical(), db, semantics, opts, true)
}

/// [`stream_certain_answer`] on the row-instantiating reference fold: each
/// world is materialized as a `Database` and the plan executed from scratch
/// in it, over the whole valuation product — never one component at a
/// time. Same answers, same budget/early-exit discipline — kept as the
/// differential-fuzz baseline and the benchmark's "before" lane.
pub fn stream_certain_answer_rows(
    plan: &PlannedQuery,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<WorldExecution, EvalError> {
    stream_certain_answer_inner(plan.expr(), plan.physical(), db, semantics, opts, false)
}

/// The fold itself, over an already-typechecked expression and its lowered
/// physical plan (what [`PlannedQuery`] carries; [`certain_answer_worlds`]
/// lowers once itself, without paying for a plan's clone-and-classify). The
/// expression is only consulted for its constants when building the
/// valuation domain; every world executes `physical`. `batch` picks the
/// split-executor component fold (product or factorized) over the row
/// reference.
fn stream_certain_answer_inner(
    expr: &RaExpr,
    physical: &PhysicalPlan,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
    batch: bool,
) -> Result<WorldExecution, EvalError> {
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    let nulls: Vec<NullId> = db.null_ids().into_iter().collect();
    let valuations = valuation_count(domain.len(), nulls.len());
    let (scans, rows) = if batch {
        let rows: Vec<(&str, &Tuple)> = db
            .iter()
            .flat_map(|(name, rel)| rel.iter().map(move |t| (name, t)))
            .filter(|(_, t)| !t.is_complete())
            .collect();
        (ground_scans(db, max_extra), rows)
    } else {
        (Vec::new(), Vec::new())
    };
    let factorized = batch
        .then(|| factorize(physical, &rows, domain.len(), max_extra, valuations, opts))
        .flatten();
    // Every world is an element of the one component holding every null.
    let product = Component {
        vertices: Vec::new(),
        nulls,
        rows: (0..rows.len()).collect(),
    };
    let job = ShardJob {
        plan: physical,
        db,
        domain: &domain,
        semantics,
        max_extra,
        scans: &scans,
        rows: &rows,
        workers: fold::workers(opts.threads, factorized.is_none().then_some(valuations)),
    };
    let folded = match &factorized {
        Some(factorized) => fold_factorized(job, factorized, &product, opts.max_worlds),
        None if batch => fold_product(job, &product, false, opts.max_worlds),
        None => fold::run(
            job.workers,
            opts.max_worlds,
            Combine::Intersect,
            |worker, shard| run_shard_rows(job, worker, shard),
        ),
    };
    let folded = folded.map_err(|e| match e {
        FoldError::Budget { visited } => EvalError::WorldBudgetExceeded {
            worlds: visited,
            budget: opts.max_worlds,
        },
        FoldError::Eval(e) => e,
    })?;
    // Zero worlds visited is unreachable: the empty-domain case errored
    // above and a null-free database has exactly one world. Guard anyway.
    let answers = folded.answers.ok_or(EvalError::EmptyDomain {
        nulls: db.null_ids().len(),
    })?;
    // On the factorized fold, early exit means a run stop skipped elements
    // and the answer is ∅ — the product fold's invariant.
    let early_exit = match &factorized {
        Some(f) => folded.visited < f.elements && answers.is_empty(),
        None => folded.early_exit,
    };
    Ok(WorldExecution {
        answers,
        worlds_visited: folded.visited,
        worlds_batched: folded.batched,
        early_exit,
        components: factorized.as_ref().map(|f| f.components.len()),
        threads: job.workers,
        peak_worlds_in_flight: job.workers * (1 + usize::from(max_extra > 0)),
        op_stats: folded.op_stats,
        shards: folded.shards,
    })
}

/// Enumerates the possible worlds of `db` relevant to `expr` under the given
/// semantics, **materialized** into a vector, respecting the (a-priori)
/// world budget. Retained for tests, examples, and as the baseline the
/// streaming engine is benchmarked against; the certain-answer path does not
/// use it.
pub fn enumerate_worlds(
    expr: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<Vec<Database>, EvalError> {
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    check_apriori_budget(valuation_count(domain.len(), db.null_ids().len()), opts)?;
    Ok(WorldIter::new(db, &domain, semantics, max_extra).collect())
}

/// The multiset `Q([[D]])` restricted to the enumerated worlds: the answer of
/// the query in every possible (structurally distinct) world. Worlds are
/// streamed; the query is lowered once and its physical plan executed per
/// world; only the answers are collected.
pub fn possible_answers(
    expr: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<Vec<Relation>, EvalError> {
    let physical = PhysicalPlan::lower(expr, db.schema())?;
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    check_apriori_budget(valuation_count(domain.len(), db.null_ids().len()), opts)?;
    Ok(WorldIter::new(db, &domain, semantics, max_extra)
        .map(|w| exec::columnar::execute(&physical, &w))
        .collect())
}

/// The classical intersection-based certain answer, computed from possible
/// worlds (equation (1) of the paper) by the streaming fold. Ground truth,
/// exponential in the number of nulls (but early-exiting).
pub fn certain_answer_worlds(
    expr: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<Relation, EvalError> {
    let physical = PhysicalPlan::lower(expr, db.schema())?;
    Ok(stream_certain_answer_inner(expr, &physical, db, semantics, opts, true)?.answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complete::eval_complete;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::builder::{difference_example, orders_and_payments_example};
    use relmodel::{DatabaseBuilder, Tuple, Value};

    fn planned(expr: &RaExpr, db: &Database) -> PlannedQuery {
        PlannedQuery::new(expr.clone(), db.schema()).unwrap()
    }

    /// The Boolean query "`q` is nonempty" is certain iff its 0-ary
    /// projection's certain answer holds the empty tuple.
    fn certainly_nonempty(q: &RaExpr, db: &Database) -> bool {
        let exists = q.clone().project(vec![]);
        certain_answer_worlds(&exists, db, Semantics::Cwa, &WorldOptions::default())
            .unwrap()
            .contains(&Tuple::new(vec![]))
    }

    #[test]
    fn unpaid_orders_certain_answer_is_nonempty() {
        // Ground truth for E1: in every world, at least one of oid1/oid2 is unpaid,
        // but no single order is unpaid in all worlds — so the certain answer to
        // "orders not in Pay" is empty, yet the Boolean query "is there an unpaid
        // order" is certainly true.
        let db = orders_and_payments_example();
        let unpaid = RaExpr::relation("Order")
            .project(vec![0])
            .difference(RaExpr::relation("Pay").project(vec![1]));
        let certain =
            certain_answer_worlds(&unpaid, &db, Semantics::Cwa, &WorldOptions::default()).unwrap();
        assert!(certain.is_empty());
        assert!(certainly_nonempty(&unpaid, &db));
        // ... and the possible answers include both orders.
        let possible = possible_answers(&unpaid, &db, Semantics::Cwa, &WorldOptions::default())
            .unwrap()
            .iter()
            .fold(Relation::new(1), |acc, answer| acc.union(answer));
        assert_eq!(possible.len(), 2);
    }

    #[test]
    fn difference_example_certain_answer() {
        // R = {1,2}, S = {⊥}: certainly R − S contains at least one element, but
        // no specific element is certain... except that ⊥ can only equal one of
        // them, so the certain answer is empty; the Boolean version is true.
        let db = difference_example();
        let q = RaExpr::relation("R").difference(RaExpr::relation("S"));
        let certain =
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap();
        assert!(certain.is_empty());
        assert!(certainly_nonempty(&q, &db));
    }

    #[test]
    fn tautology_certain_answer_returns_pid1() {
        let db = orders_and_payments_example();
        let q = RaExpr::relation("Pay")
            .select(
                Predicate::eq(Operand::col(1), Operand::str("oid1"))
                    .or(Predicate::neq(Operand::col(1), Operand::str("oid1"))),
            )
            .project(vec![0]);
        let certain =
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap();
        assert_eq!(certain.len(), 1);
        assert!(certain.contains(&Tuple::strs(&["pid1"])));
    }

    #[test]
    fn naive_failure_example_ground_truth() {
        // π_A(R − S) with R = {(1,⊥0)}, S = {(1,⊥1)}: certain answer is ∅.
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["a", "b"])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("S", vec![Value::int(1), Value::null(1)])
            .build();
        let q = RaExpr::relation("R")
            .difference(RaExpr::relation("S"))
            .project(vec![0]);
        let certain =
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap();
        assert!(certain.is_empty());
    }

    #[test]
    fn positive_query_certain_answers_match_naive() {
        let db = orders_and_payments_example();
        let q = RaExpr::relation("Order")
            .project(vec![0])
            .union(RaExpr::relation("Pay").project(vec![1]));
        for semantics in [Semantics::Cwa, Semantics::Owa] {
            let ground =
                certain_answer_worlds(&q, &db, semantics, &WorldOptions::default()).unwrap();
            let naive = crate::naive::certain_answer_naive(&q, &db).unwrap();
            assert_eq!(
                ground, naive,
                "naïve evaluation must match ground truth under {semantics}"
            );
        }
    }

    #[test]
    fn owa_with_extra_tuples_breaks_nonmonotone_queries() {
        // Under OWA, a difference query has an empty certain answer as soon as
        // worlds may contain extra tuples.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .ints("R", &[1])
            .build();
        let q = RaExpr::relation("R").difference(RaExpr::relation("S"));
        let cwa = certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::default()).unwrap();
        assert_eq!(cwa.len(), 1);
        let owa = certain_answer_worlds(&q, &db, Semantics::Owa, &WorldOptions::with_owa_extra(1))
            .unwrap();
        assert!(owa.is_empty());
    }

    #[test]
    fn world_budget_bounds_worlds_visited() {
        // 20 nulls over a 21-constant domain: the space dwarfs the budget and
        // the identity query keeps a stable tuple in the intersection for far
        // longer than 100 worlds, so no early exit can rescue it — the
        // streaming fold must stop at the budget.
        let mut builder = DatabaseBuilder::new().relation("R", &["a", "b"]);
        for i in 0..10 {
            builder = builder.tuple("R", vec![Value::null(i), Value::null(i + 10)]);
        }
        let db = builder.build();
        for threads in [None, Some(1), Some(3)] {
            let opts = WorldOptions {
                max_worlds: 100,
                threads,
                ..WorldOptions::default()
            };
            let err = certain_answer_worlds(&RaExpr::relation("R"), &db, Semantics::Cwa, &opts);
            assert_eq!(
                err,
                Err(EvalError::WorldBudgetExceeded {
                    worlds: 100,
                    budget: 100
                }),
                "the refused world is uncounted ({threads:?} threads)"
            );
        }
    }

    #[test]
    fn early_exit_beats_the_budget() {
        // Same exponential database, but Q = R − R is ∅ in the very first
        // world: the streaming fold early-exits and succeeds where the
        // materializing path refused to even start.
        let mut builder = DatabaseBuilder::new().relation("R", &["a", "b"]);
        for i in 0..10 {
            builder = builder.tuple("R", vec![Value::null(i), Value::null(i + 10)]);
        }
        let db = builder.build();
        let q = RaExpr::relation("R").difference(RaExpr::relation("R"));
        let opts = WorldOptions {
            max_worlds: 100,
            ..WorldOptions::default()
        };
        let exec = stream_certain_answer(&planned(&q, &db), &db, Semantics::Cwa, &opts).unwrap();
        assert!(exec.answers.is_empty());
        assert!(exec.early_exit);
        assert!(exec.worlds_visited < 100);
        assert!(exec.peak_worlds_in_flight >= exec.threads);
    }

    /// Two single-null tuples of `R(a)`: two null components.
    fn two_component_db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("R", vec![Value::null(1)])
            .build()
    }

    #[test]
    fn early_exit_never_fires_on_nonempty_certain_answers() {
        // A literal tuple unioned in keeps the intersection nonempty forever:
        // the fold must visit the whole (small) space and report no early
        // exit. `R ∩ R` reads R on both sides, so the plan is not linear and
        // the fold enumerates whole worlds.
        let db = two_component_db();
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[77])]));
        let q = RaExpr::relation("R")
            .intersection(RaExpr::relation("R"))
            .union(lit);
        let exec = stream_certain_answer(
            &planned(&q, &db),
            &db,
            Semantics::Cwa,
            &WorldOptions::default(),
        )
        .unwrap();
        assert_eq!(exec.components, None, "R ∩ R is not linear");
        assert!(!exec.early_exit);
        assert!(exec.answers.contains(&Tuple::ints(&[77])));
        // Domain = query constant 77 + (nulls+1 = 3) fresh constants.
        assert_eq!(exec.worlds_visited, 16, "4-constant domain, 2 nulls");
    }

    #[test]
    fn linear_plans_fold_one_null_component_at_a_time() {
        // `R ∪ {77}` is linear in R: each of the two components' runs
        // stops once its two first valuations disagree, so the fold visits
        // 2 + 2 component valuations of the 4 + 4 it may, instead of the
        // 16 whole worlds. Nothing was skipped on the way to ∅, because the
        // answer is not ∅: no early exit.
        let db = two_component_db();
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[77])]));
        let q = RaExpr::relation("R").union(lit);
        let plan = planned(&q, &db);
        for threads in [1, 2, 3] {
            let opts = WorldOptions::with_threads(threads);
            let exec = stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).unwrap();
            assert_eq!(exec.components, Some(2));
            assert_eq!(exec.worlds_visited, 4, "{threads} threads");
            assert_eq!(exec.worlds_batched, 4);
            assert_eq!(exec.threads, threads);
            assert!(!exec.early_exit);
            let rows = stream_certain_answer_rows(&plan, &db, Semantics::Cwa, &opts).unwrap();
            assert_eq!(rows.components, None);
            assert_eq!(rows.worlds_visited, 16);
            assert_eq!(exec.answers, rows.answers);
        }
        // `R − R` is a root difference of linear sides. With two nulls over
        // 3 fresh constants its 1 + 2 · (3 + 3) = 13 elements (the first
        // whole world, then both sides) are not below the 3² = 9 whole
        // worlds, so it keeps the product fold; a third null tips the rule.
        // Then the first whole world already answers ∅, as on the product
        // fold: one visit, and an early exit.
        let q = RaExpr::relation("R").difference(RaExpr::relation("R"));
        let exec = stream_certain_answer(
            &planned(&q, &db),
            &db,
            Semantics::Cwa,
            &WorldOptions::default(),
        )
        .unwrap();
        assert_eq!(exec.components, None, "13 elements are not below 9 worlds");
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("R", vec![Value::null(1)])
            .tuple("R", vec![Value::null(2)])
            .build();
        let cwa = |q: &RaExpr| {
            stream_certain_answer(
                &planned(q, &db),
                &db,
                Semantics::Cwa,
                &WorldOptions::default(),
            )
            .unwrap()
        };
        let exec = cwa(&q);
        assert_eq!(exec.components, Some(3), "1 + 2 · 3 · 4 = 25 < 4³ = 64");
        assert_eq!(exec.worlds_visited, 1, "the first world answers ∅");
        assert!(exec.answers.is_empty());
        assert!(exec.early_exit);
        // `R − σ_{a≠7}(R)` is {7} in the first world, which values every
        // null to 7. Then ⋂ R is ∅ after each component's second valuation,
        // and the possible side is skipped.
        let q = RaExpr::relation("R").difference(
            RaExpr::relation("R").select(Predicate::neq(Operand::col(0), Operand::int(7))),
        );
        let exec = cwa(&q);
        assert_eq!(exec.components, Some(3));
        assert_eq!(exec.worlds_visited, 1 + 6, "two valuations per component");
        assert!(exec.answers.is_empty());
        assert!(exec.early_exit);
    }

    #[test]
    fn streaming_matches_materializing_fold() {
        let db = orders_and_payments_example();
        let q = RaExpr::relation("Order")
            .project(vec![0])
            .difference(RaExpr::relation("Pay").project(vec![1]));
        for semantics in [Semantics::Cwa, Semantics::Owa] {
            let opts = WorldOptions::default();
            let streamed = certain_answer_worlds(&q, &db, semantics, &opts).unwrap();
            // Materializing baseline reconstructed from the enumeration API.
            let worlds = enumerate_worlds(&q, &db, semantics, &opts).unwrap();
            let baseline = worlds
                .iter()
                .map(|w| eval_complete(&q, w).unwrap())
                .reduce(|a, b| a.intersection(&b))
                .unwrap();
            assert_eq!(
                streamed, baseline,
                "streaming == materializing ({semantics})"
            );
        }
    }

    #[test]
    fn sharded_threads_agree_with_single_thread() {
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .tuple("R", vec![Value::null(0), Value::null(1)])
            .tuple("R", vec![Value::null(2), Value::int(5)])
            .tuple("R", vec![Value::int(5), Value::null(3)])
            .build();
        let q = RaExpr::relation("R").project(vec![0]);
        let plan = planned(&q, &db);
        let single =
            stream_certain_answer(&plan, &db, Semantics::Cwa, &WorldOptions::with_threads(1))
                .unwrap();
        for threads in [2, 4, 7] {
            let multi = stream_certain_answer(
                &plan,
                &db,
                Semantics::Cwa,
                &WorldOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(multi.answers, single.answers, "threads = {threads}");
            assert_eq!(
                multi.threads, threads,
                "an explicit thread pin must be honoured even on small workloads"
            );
        }
    }

    #[test]
    fn batched_fold_matches_row_fold() {
        // The default (batched) fold and the row reference must agree on
        // answers, visit counts, and early-exit behaviour — across CWA, OWA,
        // and OWA with extensions, on a query mixing every volatile shape.
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b"])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("R", vec![Value::int(2), Value::int(5)])
            .tuple("S", vec![Value::int(5)])
            .tuple("S", vec![Value::null(1)])
            .build();
        let queries = [
            RaExpr::relation("R")
                .project(vec![1])
                .difference(RaExpr::relation("S")),
            RaExpr::relation("R")
                .product(RaExpr::relation("S"))
                .select(Predicate::eq(Operand::col(1), Operand::col(2)))
                .project(vec![0])
                .union(RaExpr::values(Relation::from_tuples(
                    1,
                    vec![Tuple::ints(&[9])],
                ))),
            RaExpr::relation("R").intersection(RaExpr::relation("R")),
        ];
        let cases = [
            (Semantics::Cwa, WorldOptions::default()),
            (Semantics::Owa, WorldOptions::default()),
            (Semantics::Owa, WorldOptions::with_owa_extra(1)),
        ];
        let mut factorized = 0;
        for q in &queries {
            let plan = planned(q, &db);
            for (semantics, opts) in &cases {
                let batched = stream_certain_answer(&plan, &db, *semantics, opts).unwrap();
                let rows = stream_certain_answer_rows(&plan, &db, *semantics, opts).unwrap();
                assert_eq!(batched.answers, rows.answers, "{q:?} under {semantics}");
                if batched.components.is_some() {
                    // `π₁(R) − S` without extensions: R's and S's nulls are
                    // two components over a 6-constant domain, so the fold
                    // may visit the first whole world and 2 · (6 + 6) = 24
                    // component valuations.
                    factorized += 1;
                    assert_eq!(batched.components, Some(2));
                    assert!(batched.worlds_visited <= 25, "{q:?} under {semantics}");
                } else {
                    assert_eq!(batched.worlds_visited, rows.worlds_visited);
                    assert_eq!(batched.early_exit, rows.early_exit);
                }
                assert_eq!(
                    batched.worlds_batched, batched.worlds_visited,
                    "every world of the default fold goes through the split executor"
                );
                assert_eq!(rows.worlds_batched, 0);
            }
        }
        assert_eq!(factorized, 2, "π₁(R) − S factorizes under CWA and OWA");
    }

    #[test]
    fn batched_fold_reuses_hash_tables_across_worlds() {
        // A join over a mostly-ground database: the build-side tables over
        // the ground runs must be constructed once per shard and probed by
        // every later world.
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("R", &[3, 30])
            .tuple("R", vec![Value::int(4), Value::null(0)])
            .ints("S", &[10, 100])
            .ints("S", &[20, 200])
            .tuple("S", vec![Value::null(1), Value::int(300)])
            .build();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)))
            .project(vec![0, 3])
            .union(RaExpr::values(Relation::from_tuples(
                2,
                vec![Tuple::ints(&[0, 0])],
            )));
        let exec = stream_certain_answer(
            &planned(&q, &db),
            &db,
            Semantics::Cwa,
            &WorldOptions::with_threads(1),
        )
        .unwrap();
        assert!(!exec.early_exit, "the literal union defeats early exit");
        assert!(exec.worlds_visited > 1);
        assert_eq!(exec.worlds_batched, exec.worlds_visited);
        assert!(
            exec.op_stats.tables_reused > 0,
            "worlds after the first must hit cached tables: {:?}",
            exec.op_stats
        );
    }

    #[test]
    fn empty_domain_with_nulls_is_an_error_not_an_empty_answer() {
        // Regression: a database that is all nulls, a query with no
        // constants, and zero fresh constants admits *no* valuation — there
        // are zero worlds, and an intersection over zero worlds is not ∅.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .tuple("R", vec![Value::null(0)])
            .build();
        let q = RaExpr::relation("R");
        let opts = WorldOptions::with_fresh(0);
        for result in [
            certain_answer_worlds(&q, &db, Semantics::Cwa, &opts).map(|_| ()),
            stream_certain_answer(&planned(&q, &db), &db, Semantics::Cwa, &opts).map(|_| ()),
            stream_certain_answer_rows(&planned(&q, &db), &db, Semantics::Cwa, &opts).map(|_| ()),
            possible_answers(&q, &db, Semantics::Cwa, &opts).map(|_| ()),
            enumerate_worlds(&q, &db, Semantics::Cwa, &opts).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(EvalError::EmptyDomain { nulls: 1 })),
                "zero-world inputs must error, got {result:?}"
            );
        }
        // With at least one fresh constant the same input is answerable.
        assert!(
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::with_fresh(1)).is_ok()
        );
    }

    #[test]
    fn stringly_world_dedup_regression() {
        // ⊥0 may be valued to Int(1) or Str("1") (both in the domain via S).
        // The two worlds display identically; the old `to_string()` dedup
        // merged them, making {(1)} look certain for R ∩ {(1)}. The certain
        // answer is ∅: in the Str("1") world, R does not contain Int(1).
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("S", vec![Value::int(1)])
            .tuple("S", vec![Value::str("1")])
            .build();
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[1])]));
        let q = RaExpr::relation("R").intersection(lit);
        let certain =
            certain_answer_worlds(&q, &db, Semantics::Cwa, &WorldOptions::with_fresh(0)).unwrap();
        assert!(
            certain.is_empty(),
            "Str(\"1\") and Int(1) are distinct worlds; got {certain}"
        );
    }

    #[test]
    fn domain_includes_query_constants() {
        let db = difference_example();
        let q = RaExpr::relation("R").select(Predicate::eq(Operand::col(0), Operand::int(42)));
        let domain = valuation_domain(&q, &db, &WorldOptions::default());
        assert!(domain.contains(&relmodel::value::Constant::Int(42)));
    }
}
