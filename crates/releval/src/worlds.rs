//! Possible-world (ground-truth) certain answers, computed by **streaming**.
//!
//! The classical definition (equation (1) of the paper) is
//! `certain(Q, D) = ⋂ { Q(D') | D' ∈ [[D]] }`. This module computes it by
//! folding that intersection world by world through the enumeration-fold
//! driver [`crate::fold`], which owns the sharding, the budget on worlds
//! visited, early exit on an empty intersection, and the merge. Worlds are
//! never materialized into a `Vec<Database>`: each worker holds one world
//! (plus one OWA extension) at a time. What this module supplies is the
//! choice space: the valuation space, cut into contiguous ranges across
//! workers, with every valuation extended by each OWA extension subset —
//! or, when the plan allows, one null component's valuations at a time.
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
//! materialized as a `Database` at all. The ground rows of every relation
//! (identical in every world) and its symbolic remainder are partitioned
//! once into an [`OverlayBatch`]; per world only the symbolic rows are
//! resolved into a reused scratch batch, and the shared plan runs through
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
//! Two nulls are in one **null component** when they occur in the same
//! tuple, taken transitively. A valuation `v` of every null is one
//! valuation `v_K` per component `K`, chosen independently over the one
//! shared [`valuation_domain`], and the world `v(D)` is the ground rows `G`
//! plus each component's resolved rows `v_K(D_K)`. Call a relation
//! *volatile* when it holds a row with a null. When every derivation of a
//! plan uses at most one volatile row — the plan is *linear*, as decided by
//! the table of [`relalgebra::physical::linear_volatility`] — its answer in
//! a world is `Q(G) ∪ ⋃_K vol_K(v_K)`, where `vol_K(v_K)` is what the split
//! executor derives when its volatile scans hold only `v_K(D_K)`. Two plan
//! shapes ([`relalgebra::physical::fold_shape`]) then fold each component's
//! valuations instead of their product:
//!
//! ```text
//! (i)  linear Q:            ⋂_v Q(v)       = Q(G) ∪ ⋃_K ⋂_{v_K} vol_K(v_K)
//! (ii) root A − B, A and B linear:
//!                           ⋂_v (A(v) − B(v)) = ⋂_v A(v) − ⋃_v B(v),
//!                           ⋃_v B(v)          = B(G) ∪ ⋃_K ⋃_{v_K} vol_K(v_K)
//! ```
//!
//! *Proof of (i).* `⊇`: a row of `Q(G)` is in every world's answer, and a
//! row in `vol_K(v_K)` for every `v_K` is in the answer of every world,
//! whatever it assigns to `K`. `⊆`: a row outside the right-hand side
//! misses `Q(G)` and, in each component `K`, misses `vol_K(w_K)` for some
//! valuation `w_K`; the world valuing every component by its `w_K` answers
//! without the row. (∀ over a product of independent choices swaps with ∃,
//! as for repairs in `repairs::fold`.)
//!
//! *Proof of (ii).* A row is in `A(v) − B(v)` for every `v` iff it is in
//! `A(v)` for every `v` and in `B(v)` for no `v`: ∀ distributes over ∧, for
//! any set of worlds. `⋂_v A(v)` is (i) for `A` (or `A(G)` when `A` reads
//! no volatile relation), and a row is in some `B(v)` iff it is in `B(G)`
//! or in `vol_K(v_K)` for some component `K` and valuation `v_K`, since any
//! `v_K` extends to a whole valuation.
//!
//! **When the fold factorizes.** The factorized fold visits at most
//! `Σ_K |dom|^|N_K|` elements for each side that reads a volatile relation —
//! the plan itself in (i), `A` and `B` in (ii) — and one element for a side
//! that does not (its answer is the same in every world, and is still
//! evaluated, so every fold visits at least one element). It runs iff that
//! count is below the product fold's `|dom|^|N|` and within
//! [`WorldOptions::max_worlds`] — so it never visits more elements than the
//! product space holds, and never hits the budget. Everything else keeps the product fold, unchanged: plans that
//! read Δ (the constants a valuation introduces enter the active domain),
//! other plan shapes, OWA with [`WorldOptions::max_owa_extra`] above zero
//! (extension tuples are not per-component choices), a database with one
//! component (`Σ = ∏`), and a factorized space over the budget.
//!
//! **What the telemetry means there.** [`WorldExecution::components`] is
//! `Some(k)` over `k` null components. [`WorldExecution::worlds_visited`]
//! counts *component valuations* (the elements folded), not the whole
//! worlds they stand for. A component's run on the certain side stops once
//! its intersection is empty; in (ii) the possible side is skipped when
//! `⋂ A` is empty, and otherwise subtracts `B`'s rows from it and stops when
//! nothing is left. [`WorldExecution::early_exit`] is `true` only when such
//! a stop skipped elements and the answer is ∅, as on the product fold.
//! [`WorldExecution::threads`] is one unless [`WorldOptions::threads`] pins
//! it, because every worker rebuilds the stable subresults; a pinned count
//! deals the components round-robin to the workers.

use std::collections::BTreeSet;

use relalgebra::ast::RaExpr;
use relalgebra::physical::{fold_shape, reads_delta, FoldShape, PhysNode, PhysicalPlan};
use relalgebra::plan::PlannedQuery;
use relmodel::batch::{morsel_rows, ColumnBatch, OverlayBatch};
use relmodel::semantics::{adequate_domain, all_complete_tuples, BoundedSubsetIter, WorldIter};
use relmodel::valuation::{Valuation, ValuationEnumerator};
use relmodel::value::{Constant, NullId, Value};
use relmodel::{Database, Relation, Semantics, Tuple};

use crate::error::EvalError;
use crate::exec::columnar::split::{ShardExec, ShardSetup};
use crate::exec::{self, OpStats};
use crate::fold::{self, Combine, FoldError, Folded, Scratch, Shard, ShardProfile};

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
    /// Worker threads for the streaming fold; `None` chooses automatically
    /// from the machine's parallelism (small workloads stay single-threaded,
    /// and a factorized fold stays on one worker). A pinned count is always
    /// honoured: it cuts the valuation space into ranges, or deals the null
    /// components round-robin when the fold factorizes.
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
    /// executor (overlay resolution into reused scratch batches) instead of
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

/// How many valuations a workload must have before the *auto* thread choice
/// spawns workers; below this, spawn overhead dominates. An explicit
/// [`WorldOptions::threads`] pin is always honoured.
const PARALLEL_MIN_VALUATIONS: u128 = 128;

fn resolve_threads(opts: &WorldOptions, valuations: u128) -> usize {
    if let Some(pinned) = opts.threads {
        return pinned.max(1);
    }
    if valuations < PARALLEL_MIN_VALUATIONS {
        return 1;
    }
    let max_useful = (valuations / (PARALLEL_MIN_VALUATIONS / 2)).min(64) as usize;
    fold::auto_workers().clamp(1, max_useful.max(1))
}

/// Cuts the valuation space into at most `threads` contiguous, non-empty
/// ranges, one per shard.
fn shard_ranges(valuations: u128, threads: usize) -> Vec<(u128, u128)> {
    let chunk = valuations.div_ceil(threads as u128);
    // Saturating arithmetic: when the valuation space itself saturates
    // u128, `(i + 1) * chunk` would overflow for the last shard.
    (0..threads as u128)
        .map(|i| {
            let start = i.saturating_mul(chunk).min(valuations);
            (start, start.saturating_add(chunk).min(valuations))
        })
        .filter(|(s, e)| s < e)
        .collect()
}

/// Each relation's ground rows and symbolic rows, partitioned once per
/// fold and read by every worker.
fn ground_overlays(db: &Database) -> Vec<(String, OverlayBatch)> {
    db.schema()
        .iter()
        .map(|rs| {
            let rel = db.relation(&rs.name).expect("schema lists the relation");
            (
                rs.name.clone(),
                OverlayBatch::new(&ColumnBatch::from_relation(rel)),
            )
        })
        .collect()
}

/// A worker's split executor over the ground rows, and its scratch: one
/// batch for every relation that can receive rows per world (symbolic rows,
/// or OWA extension tuples when `max_extra > 0`). `delta` is the Δ setup of
/// a plan that reads Δ.
fn world_exec<'p>(
    plan: &'p PhysicalPlan,
    overlays: &[(String, OverlayBatch)],
    max_extra: usize,
    delta: Option<(&BTreeSet<Constant>, bool)>,
) -> (ShardExec<'p>, Scratch) {
    let per_world = |overlay: &OverlayBatch| !overlay.is_all_ground() || max_extra > 0;
    let setup = ShardSetup::new(
        overlays
            .iter()
            .map(|(name, overlay)| (name.clone(), overlay.stable().clone(), !per_world(overlay))),
        delta,
    );
    let scratch = Scratch::new(
        overlays
            .iter()
            .filter(|(_, overlay)| per_world(overlay))
            .map(|(name, overlay)| (name.clone(), overlay.stable().arity())),
    );
    (ShardExec::new(plan, morsel_rows(), setup), scratch)
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
    /// The ground overlays (empty on the row fold, which does not read
    /// them).
    overlays: &'a [(String, OverlayBatch)],
    /// The factorized fold's worker count, over which it deals the
    /// components round-robin.
    workers: usize,
}

/// A shard runner of the product fold: folds the worlds of one valuation
/// range.
type ShardRunner = fn(ShardJob<'_>, (u128, u128), &mut Shard<'_>);

/// The row-instantiating reference fold: materializes each world as a
/// `Database` and executes the plan from scratch in it. Retained as the
/// differential baseline for the batched shard runner below.
fn run_shard_rows(job: ShardJob<'_>, range: (u128, u128), shard: &mut Shard<'_>) {
    let worlds = WorldIter::new(job.db, job.domain, job.semantics, job.max_extra)
        .without_dedup()
        .valuation_range(range.0, range.1);
    shard.fold_rows(worlds, |world, stats| {
        Ok(exec::columnar::execute_into(job.plan, &world, stats))
    });
}

/// The batched shard runner: enumerates the same worlds as
/// [`run_shard_rows`] — identical `(valuation, extension-subset)` order —
/// but never materializes a `Database`. Per world it refills one set of
/// per-worker scratch batches (the overlay images of the symbolic rows, the
/// chosen OWA extension tuples, and the Δ diagonal of any world-introduced
/// constants) and evaluates the shared plan through the caching split
/// executor.
fn run_shard_batched(job: ShardJob<'_>, range: (u128, u128), shard: &mut Shard<'_>) {
    let ShardJob {
        plan,
        db,
        domain,
        max_extra,
        overlays,
        ..
    } = job;

    // ---- shard-invariant setup: stable leaves, OWA candidates ----
    let nulls: Vec<NullId> = db.null_ids().into_iter().collect();
    // Δ work — its stable diagonal and each world's refill — only for a
    // plan that reads Δ.
    let base_consts: Option<BTreeSet<Constant>> = reads_delta(plan.root()).then(|| db.constants());
    let (mut exec, mut scratch) = world_exec(
        plan,
        overlays,
        max_extra,
        base_consts
            .as_ref()
            .map(|base| (base, nulls.is_empty() && max_extra == 0)),
    );
    // Mirrors WorldIter's extension candidates: every complete tuple over
    // the valuation domain, enumerated in the same order.
    let candidates: Vec<(String, Tuple)> = if max_extra > 0 {
        all_complete_tuples(db, domain)
    } else {
        Vec::new()
    };

    let valuations =
        ValuationEnumerator::with_range(nulls.iter().copied(), domain.to_vec(), range.0, range.1);
    'outer: for v in valuations {
        // Every extension subset of this valuation is one world; the empty
        // subset (the unextended world) comes first, exactly as WorldIter
        // yields them.
        for subset in BoundedSubsetIter::new(candidates.len(), max_extra) {
            if !shard.admit() {
                break 'outer;
            }
            scratch.clear();
            for (name, overlay) in overlays {
                if !overlay.is_all_ground() {
                    overlay.resolve_into(&v, scratch.scan(name));
                }
            }
            for &ci in &subset {
                let (name, tuple) = &candidates[ci];
                scratch.scan(name).push_tuple(tuple);
            }
            if let Some(base) = &base_consts {
                let extension = subset.iter().flat_map(|&ci| candidates[ci].1.values());
                scratch.refill_delta(
                    base,
                    extension
                        .filter_map(Value::as_const)
                        .chain(v.iter().map(|(_, c)| c)),
                );
            }
            if !shard.fold_split(&exec.eval_element(&scratch.input())) {
                break 'outer;
            }
        }
    }
    shard.op_stats.merge(&exec.stats);
}

/// A null component: nulls that occur in one tuple, taken transitively,
/// with the rows that carry them.
#[derive(Default)]
struct NullComponent {
    nulls: Vec<NullId>,
    /// Each relation's rows over this component's nulls, as overlays with
    /// no ground rows.
    rows: Vec<(String, OverlayBatch)>,
}

/// The database's null components, ordered by their least null.
fn null_components(db: &Database) -> Vec<NullComponent> {
    let nulls: Vec<NullId> = db.null_ids().into_iter().collect();
    let index = |n: NullId| nulls.binary_search(&n).expect("a null of the database");
    // Union-find over the nulls: one union per pair of nulls in a tuple.
    let mut parent: Vec<usize> = (0..nulls.len()).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let symbolic = || {
        db.iter().flat_map(|(name, rel)| {
            rel.iter()
                .map(move |t| (name, t))
                .filter(|(_, t)| !t.is_complete())
        })
    };
    for (_, tuple) in symbolic() {
        let mut ids = tuple.values().iter().filter_map(Value::as_null);
        let first = root(&mut parent, index(ids.next().expect("a tuple with a null")));
        for n in ids {
            let r = root(&mut parent, index(n));
            parent[r] = first;
        }
    }
    // Number the components by their least null.
    let mut components: Vec<NullComponent> = Vec::new();
    let mut numbered: Vec<Option<usize>> = vec![None; nulls.len()];
    let mut component_of = Vec::with_capacity(nulls.len());
    for (i, &n) in nulls.iter().enumerate() {
        let r = root(&mut parent, i);
        let k = *numbered[r].get_or_insert_with(|| {
            components.push(NullComponent::default());
            components.len() - 1
        });
        components[k].nulls.push(n);
        component_of.push(k);
    }
    // Each relation's rows arrive together, so a component's batch for a
    // relation is always its last one.
    let mut rows: Vec<Vec<(&str, ColumnBatch)>> =
        (0..components.len()).map(|_| Vec::new()).collect();
    for (name, tuple) in symbolic() {
        let first = tuple.values().iter().find_map(Value::as_null);
        let batches = &mut rows[component_of[index(first.expect("a null"))]];
        if batches.last().is_none_or(|(last, _)| *last != name) {
            batches.push((name, ColumnBatch::new(tuple.arity())));
        }
        let (_, batch) = batches.last_mut().expect("just pushed");
        batch.push_tuple(tuple);
    }
    for (component, batches) in components.iter_mut().zip(rows) {
        component.rows = batches
            .into_iter()
            .map(|(name, batch)| (name.to_string(), OverlayBatch::new(&batch)))
            .collect();
    }
    components
}

/// The factorized fold, when the decision rule (see the
/// [module docs](self)) takes it: the plan's shape, the null components,
/// and the number of elements the fold may visit.
struct Factorized<'p> {
    shape: FoldShape<'p>,
    components: Vec<NullComponent>,
    elements: u128,
}

/// Decides whether the batched fold factorizes over the null components.
fn factorize<'p>(
    plan: &'p PhysicalPlan,
    db: &Database,
    domain_len: usize,
    max_extra: usize,
    opts: &WorldOptions,
) -> Option<Factorized<'p>> {
    if max_extra > 0 {
        return None;
    }
    let volatile: BTreeSet<&str> = db
        .iter()
        .filter(|(_, rel)| !rel.is_complete())
        .map(|(name, _)| name)
        .collect();
    let shape = fold_shape(plan.root(), &|name| volatile.contains(name));
    let components = null_components(db);
    let per_side = components
        .iter()
        .map(|k| valuation_count(domain_len, k.nulls.len()))
        .fold(0, u128::saturating_add);
    // A side that reads no volatile relation is one element.
    let side = |volatile: bool| if volatile { per_side } else { 1 };
    let elements = match shape {
        FoldShape::Product => return None,
        FoldShape::Linear { volatile } => side(volatile),
        FoldShape::Difference { left_volatile, .. } => side(left_volatile).saturating_add(per_side),
    };
    let product = valuation_count(domain_len, db.null_ids().len());
    (elements < product && elements <= opts.max_worlds).then_some(Factorized {
        shape,
        components,
        elements,
    })
}

/// Which side of the factorized fold a run of elements feeds.
#[derive(Clone, Copy)]
enum Side<'a> {
    /// Intersect the subtree's volatile answers within each component's
    /// run, and unite the runs.
    Certain(&'a PhysNode),
    /// Subtract every row of the subtree from the certain answer of the
    /// difference's left side.
    Possible(&'a PhysNode, &'a Relation),
}

/// The factorized shard runner: for each component dealt to this worker
/// (round-robin over the workers), one split-executor element per
/// valuation of that component's nulls, whose volatile scans hold only the
/// component's resolved rows. One executor serves every component, so the
/// stable subresults and hash tables are built once per worker.
fn run_components(
    job: ShardJob<'_>,
    components: &[NullComponent],
    side: Side<'_>,
    worker: usize,
    shard: &mut Shard<'_>,
) {
    let mine = components.iter().skip(worker).step_by(job.workers);
    if mine.len() == 0 {
        return;
    }
    let (mut exec, mut scratch) = world_exec(job.plan, job.overlays, 0, None);
    'components: for component in mine {
        let valuations =
            ValuationEnumerator::new(component.nulls.iter().copied(), job.domain.to_vec());
        for v in valuations {
            if !shard.admit() {
                break 'components;
            }
            refill(&mut scratch, component, &v);
            let more = match side {
                Side::Certain(node) => shard.fold_split(&exec.eval_subtree(node, &scratch.input())),
                Side::Possible(node, minuend) => {
                    let split = exec.eval_subtree(node, &scratch.input());
                    shard.subtract_split(minuend, &split)
                }
            };
            if !more {
                break;
            }
        }
        shard.close_run();
    }
    shard.op_stats.merge(&exec.stats);
}

/// Refills the scratch scans with one component's rows under `v`.
fn refill(scratch: &mut Scratch, component: &NullComponent, v: &Valuation) {
    scratch.clear();
    for (name, overlay) in &component.rows {
        overlay.resolve_into(v, scratch.scan(name));
    }
}

/// The certain side of the factorized fold: `S ∪ ⋃_K ⋂_{v_K} vol_K(v_K)`
/// for the subtree `node`, one run per component.
fn fold_certain(
    job: ShardJob<'_>,
    components: &[NullComponent],
    node: &PhysNode,
    budget: u128,
) -> Result<Folded<()>, FoldError> {
    fold::run(job.workers, budget, Combine::Union, |worker, shard| {
        run_components(job, components, Side::Certain(node), worker, shard)
    })
}

/// The factorized fold: identity (i) for a linear plan, (ii) for a root
/// difference.
fn fold_factorized(
    job: ShardJob<'_>,
    factorized: &Factorized<'_>,
    budget: u128,
) -> Result<Folded<()>, FoldError> {
    // A side that reads no volatile relation is one element holding no
    // component's rows: its answer is the same in every world.
    let ground = [NullComponent::default()];
    let runs = |volatile: bool| {
        if volatile {
            &factorized.components[..]
        } else {
            &ground[..]
        }
    };
    let (left, left_volatile, right) = match factorized.shape {
        FoldShape::Linear { volatile } => {
            return fold_certain(job, runs(volatile), job.plan.root(), budget)
        }
        FoldShape::Difference {
            left,
            left_volatile,
            right,
        } => (left, left_volatile, right),
        FoldShape::Product => unreachable!("the product fold does not factorize"),
    };
    // ⋂ A: one run per component, or A(G) when A reads no volatile
    // relation.
    let first = fold_certain(job, runs(left_volatile), left, budget)?;
    let minuend = first.answers.clone().expect("the certain side folds");
    // ⋂ A − ⋃ B, skipped when ⋂ A is already empty.
    if minuend.is_empty() {
        return Ok(first);
    }
    // Both sides together visit at most the factorized count, which the
    // decision rule keeps within the budget.
    let second = fold::run(
        job.workers,
        budget.saturating_sub(first.visited),
        Combine::Intersect,
        |worker, shard| {
            let side = Side::Possible(right, &minuend);
            run_components(job, runs(true), side, worker, shard)
        },
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
/// split-executor folds (product or factorized) over the row reference.
fn stream_certain_answer_inner(
    expr: &RaExpr,
    physical: &PhysicalPlan,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
    batch: bool,
) -> Result<WorldExecution, EvalError> {
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    let overlays = if batch {
        ground_overlays(db)
    } else {
        Vec::new()
    };
    let factorized = batch
        .then(|| factorize(physical, db, domain.len(), max_extra, opts))
        .flatten();
    // Every worker rebuilds the stable subresults, which dominate a
    // factorized fold's cost: components are dealt to workers only when the
    // caller pins a thread count.
    let job = ShardJob {
        plan: physical,
        db,
        domain: &domain,
        semantics,
        max_extra,
        overlays: &overlays,
        workers: opts.threads.map_or(1, |t| t.max(1)),
    };
    let (folded, workers, elements) = match &factorized {
        Some(factorized) => (
            fold_factorized(job, factorized, opts.max_worlds),
            job.workers,
            factorized.elements,
        ),
        None => {
            let valuations = valuation_count(domain.len(), db.null_ids().len());
            let ranges = shard_ranges(valuations, resolve_threads(opts, valuations));
            let run_shard: ShardRunner = if batch {
                run_shard_batched
            } else {
                run_shard_rows
            };
            let folded = fold::run(
                ranges.len(),
                opts.max_worlds,
                Combine::Intersect,
                |worker, shard| run_shard(job, ranges[worker], shard),
            );
            (folded, ranges.len(), 0)
        }
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
    let early_exit = match factorized {
        Some(_) => folded.visited < elements && answers.is_empty(),
        None => folded.early_exit,
    };
    Ok(WorldExecution {
        answers,
        worlds_visited: folded.visited,
        worlds_batched: folded.batched,
        early_exit,
        components: factorized.as_ref().map(|f| f.components.len()),
        threads: workers,
        peak_worlds_in_flight: workers * (1 + usize::from(max_extra > 0)),
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
        // 3 fresh constants its 2 · (3 + 3) = 12 elements are not below the
        // 3² = 9 whole worlds, so it keeps the product fold; a third null
        // tips the rule. Then ⋂ R is ∅ after each component's second
        // valuation, the possible side is skipped, and the fold reports an
        // early exit on ∅.
        let q = RaExpr::relation("R").difference(RaExpr::relation("R"));
        let exec = stream_certain_answer(
            &planned(&q, &db),
            &db,
            Semantics::Cwa,
            &WorldOptions::default(),
        )
        .unwrap();
        assert_eq!(exec.components, None, "12 elements are not below 9 worlds");
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("R", vec![Value::null(1)])
            .tuple("R", vec![Value::null(2)])
            .build();
        let exec = stream_certain_answer(
            &planned(&q, &db),
            &db,
            Semantics::Cwa,
            &WorldOptions::default(),
        )
        .unwrap();
        assert_eq!(exec.components, Some(3), "2 · 3 · 4 = 24 < 4³ = 64");
        assert_eq!(exec.worlds_visited, 6, "two valuations per component");
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
    fn null_components_group_nulls_sharing_a_tuple() {
        // ⊥0 and ⊥1 share a tuple of R, and ⊥1 recurs in S: one component
        // with a row in each relation. ⊥2 and ⊥3 stand alone.
        let db = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["a"])
            .tuple("R", vec![Value::null(0), Value::null(1)])
            .tuple("R", vec![Value::null(2), Value::int(1)])
            .tuple("R", vec![Value::int(2), Value::int(3)])
            .tuple("S", vec![Value::null(1)])
            .tuple("S", vec![Value::null(3)])
            .build();
        let components = null_components(&db);
        let shape: Vec<String> = components
            .iter()
            .map(|k| {
                let nulls: Vec<String> = k.nulls.iter().map(|n| n.0.to_string()).collect();
                let rows: Vec<String> = k
                    .rows
                    .iter()
                    .map(|(name, overlay)| format!("{name}{}", overlay.symbolic().len()))
                    .collect();
                format!("{} in {}", nulls.join(","), rows.join(" "))
            })
            .collect();
        assert_eq!(shape, ["0,1 in R1 S1", "2 in R1", "3 in S1"]);
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
                    // two components over a 6-constant domain, so the
                    // fold may visit 2 · (6 + 6) = 24 component valuations.
                    factorized += 1;
                    assert_eq!(batched.components, Some(2));
                    assert!(batched.worlds_visited <= 24, "{q:?} under {semantics}");
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
