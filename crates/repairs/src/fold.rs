//! The streaming consistent-answer fold: `⋂ certain(Q, R)` over every
//! subset-minimal repair `R`, computed the way `releval::worlds` computes
//! `⋂ Q(D')` over possible worlds.
//!
//! The two world-spaces compose rather than multiply in memory: each repair
//! of an *incomplete* inconsistent database is itself an incomplete
//! database, so the per-repair certain answer is delegated to the existing
//! machinery — the physical executor directly when the repair is complete,
//! the symbolic c-table strategy when it is not, and the streaming world
//! oracle when symbolic punts. The outer fold runs on the enumeration-fold
//! driver [`releval::fold`], which owns the sharding, the budget on repairs
//! **visited**, early exit on an empty intersection, the error slot and the
//! merge. This module supplies the choice space: repairs from the
//! enumeration-prefix partition of [`crate::enumerate::MaskIter`], or the
//! conflict components.
//!
//! # Complete databases: survival masks
//!
//! A repair of a **complete** database is never materialized as a
//! `Database`: it is the conflict-free core plus a tuple-survival mask over
//! the conflict vertices, read straight off [`MaskIter::included`]. The
//! core's column batches are built once per fold, in one pass that skips
//! conflict vertices and doomed tuples. Each worker feeds the mask's rows
//! into reused scratch batches and evaluates the shared plan through the
//! caching split executor
//! ([`releval::exec::columnar::split::ShardExec`]); stable subresults and
//! their hash tables are built on the first repair of a shard and reused by
//! every later one. Incomplete databases keep the row path — their repairs
//! need the full certain-answer machinery anyway — and
//! [`stream_consistent_answer_rows`] forces it everywhere as the
//! differential reference.
//!
//! # Linear plans: one component at a time
//!
//! A repair is the core plus one maximal independent set — one **local
//! repair** — per connected component `K` of the conflict graph, chosen
//! independently. When every derivation of the plan uses at most one
//! conflict vertex, the plan is *linear*: `Q(core ∪ M₁ ∪ … ∪ Mₖ) =
//! Q(core) ∪ ⋃_K vol(M_K)`, where `vol(M_K)` is what the split executor
//! derives from `M_K` alone. Intersecting over the product of choices then
//! factorizes:
//!
//! ```text
//! ⋂_R Q(R)  =  Q(core) ∪ ⋃_K ⋂_{M ∈ MIS(K)} vol(M)
//! ```
//!
//! (a row outside the right-hand side misses some `vol(M_K)` in every
//! component, and the repair choosing all those `M_K` lacks it). So a
//! linear plan on a complete database costs `Σ_K |MIS(K)|` split-executor
//! elements instead of `∏_K |MIS(K)|`. Linearity is decided on the
//! physical plan by the table of [`relalgebra::physical::linear_volatility`],
//! with the relations holding conflict vertices as the volatile ones.
//!
//! Anything non-linear keeps the product fold. On the factorized path the
//! budget [`RepairOptions::max_repairs`] counts **local** repairs visited
//! ([`RepairExecution::repairs_visited`]), the fold never exits early (so
//! the count is deterministic), and a pinned [`RepairOptions::threads`]
//! partitions the components across workers.

use std::collections::BTreeSet;
use std::fmt;

use relalgebra::classify::has_incomplete_values;
use relalgebra::physical::{linear_volatility, reads_delta};
use relalgebra::plan::PlannedQuery;
use releval::exec::columnar::split::{ShardExec, ShardSetup};
use releval::exec::{self, OpStats};
use releval::fold::{self, Combine, FoldError, Scratch, Shard, ShardProfile};
use releval::symbolic::{symbolic_certain_answer, SymbolicOptions, SymbolicOutcome};
use releval::worlds::{stream_certain_answer, WorldOptions};
use releval::EvalError;
use relmodel::batch::{morsel_rows, ColumnBatch};
use relmodel::value::Constant;
use relmodel::{Database, Relation, Semantics, Value};

use crate::conflict::ConflictGraph;
use crate::enumerate::{MaskIter, RepairIter};

/// Options controlling repair enumeration and the per-repair evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOptions {
    /// Budget on the number of repairs **visited** by the streaming fold
    /// (early exit can beat it, exactly like the world budget). When the
    /// fold factorizes, it counts local repairs.
    pub max_repairs: u128,
    /// Worker threads for the fold; `None` chooses automatically (the shard
    /// count is rounded down to a power of two — shards are enumeration-
    /// prefix partitions, or round-robin component partitions when the fold
    /// factorizes). Small conflict graphs stay single-threaded.
    pub threads: Option<usize>,
    /// Per-repair world-oracle budget, used when a repair carries nulls and
    /// the symbolic strategy punts. The fold forces its workers' inner
    /// enumerations single-threaded; parallelism belongs to the outer fold.
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
    /// Repairs actually evaluated across all workers. When the fold
    /// factorized ([`RepairExecution::components`] is `Some`), these are
    /// **local** repairs: `Σ_K |MIS(K)|` over the conflict components, not
    /// the `∏_K |MIS(K)|` whole repairs they stand for.
    pub repairs_visited: u128,
    /// Of the visited repairs, how many were evaluated as survival masks
    /// through the batched split executor instead of materialized
    /// `Database`s. The whole fold batches when the input database is
    /// complete; incomplete inputs (and the
    /// [`stream_consistent_answer_rows`] reference) report zero.
    pub repairs_batched: u128,
    /// Did enumeration stop early because the intersection emptied? Early
    /// exit can only fire when the consistent answer is ∅, and never fires
    /// when the fold factorized.
    pub early_exit: bool,
    /// `Some(k)` when the fold factorized over the `k` connected components
    /// of the conflict graph (a linear plan on a complete database; see the
    /// [module docs](self)); `None` when it enumerated whole repairs.
    pub components: Option<usize>,
    /// Worker threads used by the fold.
    pub threads: usize,
    /// Repairs whose certain answer needed the symbolic c-table strategy
    /// (the repair carried nulls).
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

/// Minimum conflict-vertex count before the auto thread choice shards the
/// enumeration; below it, spawn overhead dominates.
const PARALLEL_MIN_VERTICES: usize = 10;

/// Resolves the worker count to `(prefix_len, 2^prefix_len)`: the largest
/// power of two not exceeding the requested thread count (shards are
/// bit-prefix partitions of the decision space), capped by the vertex count.
fn resolve_shards(opts: &RepairOptions, vertices: usize) -> (usize, usize) {
    let requested = match opts.threads {
        Some(pinned) => pinned.max(1),
        None if vertices < PARALLEL_MIN_VERTICES => 1,
        None => fold::auto_workers(),
    };
    let mut prefix_len = 0usize;
    while prefix_len < 6 && (1usize << (prefix_len + 1)) <= requested {
        prefix_len += 1;
    }
    let prefix_len = prefix_len.min(vertices);
    (prefix_len, 1usize << prefix_len)
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

/// The conflict-free core of a complete database, built once per fold and
/// read by every worker of both batched runners.
struct Core {
    /// Each relation's core rows, in schema order.
    scans: Vec<(String, ColumnBatch)>,
    /// The core's constants — only when the plan reads Δ, whose stable
    /// part they are.
    constants: Option<BTreeSet<Constant>>,
}

impl Core {
    fn build(plan: &PlannedQuery, db: &Database, graph: &ConflictGraph) -> Core {
        let scans = graph.core_batches(db);
        let constants = reads_delta(plan.physical().root()).then(|| {
            let mut out = BTreeSet::new();
            for (_, batch) in &scans {
                for col in 0..batch.arity() {
                    out.extend(
                        batch
                            .column(col)
                            .values()
                            .iter()
                            .filter_map(Value::as_const)
                            .cloned(),
                    );
                }
            }
            out
        });
        Core { scans, constants }
    }
}

/// The relations holding conflict vertices.
fn volatile_relations(graph: &ConflictGraph) -> BTreeSet<&str> {
    graph.vertices().iter().map(|(r, _)| r.as_str()).collect()
}

/// Everything a worker needs, shared read-only across the fleet.
#[derive(Clone, Copy)]
struct ShardJob<'a> {
    plan: &'a PlannedQuery,
    db: &'a Database,
    graph: &'a ConflictGraph,
    opts: &'a RepairOptions,
    null_values_literal: bool,
    prefix_len: usize,
    workers: usize,
}

/// Which shard runner the fold uses.
#[derive(Clone, Copy)]
enum Runner<'a> {
    /// The row-materializing reference (incomplete inputs, and
    /// [`stream_consistent_answer_rows`] everywhere).
    Rows,
    /// Survival masks over the product of every component's choices.
    Batched(&'a Core),
    /// One component at a time: the plan is linear.
    Factorized(&'a Core, &'a [Vec<usize>]),
}

/// The batched shard runner: the same repairs in the same order as
/// [`run_shard_rows`], each consumed as core + survival mask. Scratch
/// batches are refilled per repair; stable subresults and hash tables are
/// cached across the whole shard.
fn run_shard_batched(job: ShardJob<'_>, core: &Core, prefix: u64, shard: &mut Shard<'_>) {
    let mut masks = MaskIter::with_prefix(job.graph, prefix, job.prefix_len);
    let vertices = job.graph.vertices();
    let (mut exec, mut scratch) = element_exec(job, core);
    while masks.next_mask() {
        if !shard.admit() {
            break;
        }
        refill(&mut scratch, job.graph, masks.included());
        if let Some(core_consts) = &core.constants {
            let included = masks.included().flat_map(|v| vertices[v].1.values());
            scratch.refill_delta(core_consts, included.filter_map(Value::as_const));
        }
        if !shard.fold_split(&exec.eval_element(&scratch.input())) {
            break;
        }
    }
    shard.op_stats.merge(&exec.stats);
}

/// The factorized shard runner: for each component assigned to this worker
/// (round-robin over `job.workers`), one split-executor element per local
/// repair, whose volatile scans hold only that local repair's vertices.
/// Each component is one run of the shard's meet: its volatile answers are
/// intersected, and the runs unite. One executor serves every component, so
/// the core's subresults and hash tables are built once per worker.
fn run_shard_factorized(
    job: ShardJob<'_>,
    core: &Core,
    components: &[Vec<usize>],
    worker: usize,
    shard: &mut Shard<'_>,
) {
    let mine = components.iter().skip(worker).step_by(job.workers);
    if mine.len() == 0 {
        return;
    }
    let (mut exec, mut scratch) = element_exec(job, core);
    let mut masks = MaskIter::with_prefix(job.graph, 0, 0);
    'components: for component in mine {
        masks.restart(component);
        while masks.next_mask() {
            if !shard.admit() {
                break 'components;
            }
            refill(&mut scratch, job.graph, masks.included());
            shard.fold_split(&exec.eval_element(&scratch.input()));
        }
        shard.close_run();
    }
    shard.op_stats.merge(&exec.stats);
}

/// A worker's split executor over the core, and its scratch: one batch per
/// conflict-bearing relation.
fn element_exec<'a>(job: ShardJob<'a>, core: &Core) -> (ShardExec<'a>, Scratch) {
    let volatile = volatile_relations(job.graph);
    let scratch = Scratch::new(volatile.iter().map(|name| {
        let schema = job.db.schema().relation(name);
        let arity = schema
            .expect("conflict vertices come from the schema")
            .arity();
        (name.to_string(), arity)
    }));
    // The core rows are the stable scans; a relation is static iff no
    // conflict vertex lives in it.
    let setup = ShardSetup::new(
        core.scans.iter().map(|(name, batch)| {
            let is_static = !volatile.contains(name.as_str());
            (name.clone(), batch.clone(), is_static)
        }),
        core.constants
            .as_ref()
            .map(|constants| (constants, job.graph.vertices().is_empty())),
    );
    (
        ShardExec::new(job.plan.physical(), morsel_rows(), setup),
        scratch,
    )
}

/// Refills the scratch scans with the vertices a (local) repair keeps.
fn refill(scratch: &mut Scratch, graph: &ConflictGraph, included: impl Iterator<Item = usize>) {
    scratch.clear();
    for v in included {
        let (relation, tuple) = &graph.vertices()[v];
        scratch.scan(relation).push_tuple(tuple);
    }
}

/// The row-materializing reference shard runner.
fn run_shard_rows(job: ShardJob<'_>, prefix: u64, shard: &mut Shard<'_>) -> Fallbacks {
    let mut fallbacks = Fallbacks::default();
    let repairs = RepairIter::with_prefix(job.db, job.graph, prefix, job.prefix_len);
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
/// The caller supplies the conflict graph (typically built once per
/// database and reused across queries). Errors with
/// [`RepairError::BudgetExceeded`] when more than
/// [`RepairOptions::max_repairs`] repairs were visited without the fold
/// converging, and with [`RepairError::Eval`] when a per-repair evaluation
/// fails; early exit beats both, because ∅ is proven the moment any shard's
/// intersection empties. A linear plan over a complete database is folded
/// one conflict component at a time (see the [module docs](self)).
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
/// `Database` and evaluated from scratch. Kept public as the
/// differential-testing reference for the batched and factorized paths;
/// not intended for production use.
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
    // The mask paths cover complete databases only: their repairs are
    // complete too, so the per-repair certain answer *is* plan execution —
    // no symbolic/world-oracle dispatch to thread through. Incomplete
    // inputs keep the row path.
    let core = (batch && db.is_complete()).then(|| Core::build(plan, db, graph));
    let dirty = volatile_relations(graph);
    let components = match &core {
        Some(_)
            if !dirty.is_empty()
                && linear_volatility(plan.physical().root(), &|name| dirty.contains(name))
                    .is_some() =>
        {
            Some(graph.components())
        }
        _ => None,
    };
    let runner = match (&core, &components) {
        (Some(core), Some(components)) => Runner::Factorized(core, components),
        (Some(core), None) => Runner::Batched(core),
        (None, _) => Runner::Rows,
    };
    let (prefix_len, workers) = match runner {
        // Every worker rebuilds the core's stable subresults, which dominate
        // a linear fold's cost: components are split across workers only
        // when the caller pins a thread count.
        Runner::Factorized(..) if opts.threads.is_none() => (0, 1),
        _ => resolve_shards(opts, graph.conflict_tuples()),
    };
    let job = ShardJob {
        plan,
        db,
        graph,
        opts,
        null_values_literal: has_incomplete_values(plan.expr()),
        prefix_len,
        workers,
    };
    // Whole-repair shards partition the repairs: their answers intersect.
    // Factorized shards partition the components, and each already holds
    // the stable answer: their answers unite.
    let combine = match runner {
        Runner::Factorized(..) => Combine::Union,
        _ => Combine::Intersect,
    };
    let folded = fold::run(workers, opts.max_repairs, combine, |worker, shard| {
        match runner {
            Runner::Rows => return run_shard_rows(job, worker as u64, shard),
            Runner::Batched(core) => run_shard_batched(job, core, worker as u64, shard),
            Runner::Factorized(core, components) => {
                run_shard_factorized(job, core, components, worker, shard)
            }
        }
        // The mask paths run complete repairs only.
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
        components: components.as_ref().map(Vec::len),
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

    #[test]
    fn incomplete_repairs_go_through_the_certain_answer_machinery() {
        // The conflicting pair pins v to 10-or-⊥0; the core tuple (2,⊥1) is
        // incomplete, so every repair is an incomplete database. π_k is
        // certain in every world of every repair; π_v is not.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("R", vec![Value::int(2), Value::null(1)])
            .build();
        let keys = RaExpr::relation("R").project(vec![0]);
        let exec = fold(&keys, &db, &RepairOptions::default());
        assert_eq!(exec.answers.len(), 2, "both keys survive: {}", exec.answers);
        assert!(
            exec.symbolic_repairs > 0,
            "incomplete repairs answered symbolically"
        );

        let vals = RaExpr::relation("R").project(vec![1]);
        let exec = fold(&vals, &db, &RepairOptions::default());
        assert!(
            exec.answers.is_empty(),
            "⊥1 makes no value certain: {}",
            exec.answers
        );
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
        let q = RaExpr::relation("R").project(vec![1]);
        let single = fold(&q, &db, &RepairOptions::default().with_threads(1));
        for threads in [2, 4, 8] {
            let multi = fold(&q, &db, &RepairOptions::default().with_threads(threads));
            assert_eq!(multi.answers, single.answers, "threads = {threads}");
            assert_eq!(multi.threads, threads);
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

    #[test]
    fn incomplete_inputs_fall_back_to_the_row_path() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .build();
        let q = RaExpr::relation("R").project(vec![0]);
        let exec = fold(&q, &db, &RepairOptions::default());
        assert_eq!(
            exec.repairs_batched, 0,
            "nulls force the materializing path"
        );
        assert_eq!(exec.answers.len(), 1);
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
