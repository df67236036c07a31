//! Possible-world (ground-truth) certain answers, computed by **streaming**.
//!
//! The classical definition (equation (1) of the paper) is
//! `certain(Q, D) = ⋂ { Q(D') | D' ∈ [[D]] }`. This module computes it by
//! folding that intersection world-by-world over a [`relmodel::WorldIter`] —
//! worlds are never materialized into a `Vec<Database>`. The fold has three
//! properties the materializing implementation lacked:
//!
//! * **O(threads) worlds in memory.** Each worker holds one world (plus one
//!   OWA extension) at a time; the old path held `|domain|^|nulls|` complete
//!   databases before evaluating anything.
//! * **Early exit.** The running intersection only shrinks, so the moment it
//!   hits ∅ the certain answer *is* ∅ and enumeration stops — on many hard
//!   queries that happens after a handful of worlds out of millions.
//! * **Parallelism.** The valuation space is sharded into contiguous ranges
//!   across `std::thread` workers; each worker folds its shard locally and
//!   the shard intersections are merged at the join. A worker whose local
//!   intersection empties signals the others to stop (its local fold is a
//!   superset of the global one, so ∅ locally proves ∅ globally).
//!
//! Enumeration cost is still exponential in the number of nulls — that is
//! precisely the complexity gap the paper discusses, and the reason this code
//! serves as *ground truth* for validating the efficient evaluators rather
//! than as a production algorithm. The [`WorldOptions::max_worlds`] budget
//! bounds the number of worlds **visited**: with early exit, queries whose
//! a-priori world count dwarfs the budget can still finish (and finish
//! correctly) if the intersection collapses early.
//!
//! Since the physical-plan refactor the fold **lowers the query once** and
//! executes the shared [`PhysicalPlan`] in every world through
//! [`crate::exec`]: no per-world re-typechecking, no per-world logical tree
//! walk, hash joins instead of `σ(A×B)` loops, and the active-domain
//! diagonal `Δ` computed once per world execution instead of once per `Δ`
//! node evaluation.
//!
//! Since the morsel-native refactor the fold is **batched**: a world is
//! never materialized as a `Database` at all. Each worker partitions every
//! relation once into an [`OverlayBatch`] — the ground rows (identical in
//! every world) and the symbolic remainder — and per world only resolves
//! the symbolic rows into a reused scratch batch, executing the shared plan
//! through [`crate::exec::columnar::split::ShardExec`]. Stable subresults
//! and the hash tables over them (join build sides, membership tables) are
//! computed for the first world of a shard and reused by every later one,
//! so the marginal cost of a world is proportional to its handful of
//! volatile rows. The intersection itself distributes the same way: with
//! every world's answer of the form `S ∪ Vᵢ` for a shard-constant `S`,
//! `⋂ᵢ (S ∪ Vᵢ) = S ∪ ⋂ᵢ Vᵢ` — the fold intersects only the volatile
//! parts and unions `S` in once, at the end of the shard. The row fold is
//! retained as [`stream_certain_answer_rows`], the differential reference
//! and benchmark baseline.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use relalgebra::ast::RaExpr;
use relalgebra::physical::PhysicalPlan;
use relalgebra::plan::PlannedQuery;
use relmodel::batch::{morsel_rows, ColumnBatch, OverlayBatch};
use relmodel::semantics::{adequate_domain, all_complete_tuples, BoundedSubsetIter, WorldIter};
use relmodel::valuation::ValuationEnumerator;
use relmodel::value::{Constant, NullId, Value};
use relmodel::{Database, Relation, Semantics, Tuple};

use crate::error::EvalError;
use crate::exec::columnar::split::{ElementInput, ShardExec, ShardSetup};
use crate::exec::{self, OpStats};

/// Options controlling possible-world enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldOptions {
    /// Number of fresh constants to add to the valuation domain; `None` means
    /// "one per null plus one", which is adequate for generic queries.
    pub extra_fresh: Option<usize>,
    /// Under OWA, the maximum number of extra tuples added to each world.
    /// Zero is adequate for monotone queries (adding tuples only grows their
    /// answers); larger values let tests probe non-monotone queries.
    pub max_owa_extra: usize,
    /// Budget on the number of worlds *visited* by the streaming fold (and,
    /// for the materializing helpers, on the a-priori valuation count).
    pub max_worlds: u128,
    /// Worker threads for the streaming fold; `None` chooses automatically
    /// from the machine's parallelism (small workloads stay single-threaded).
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
/// visited (see [`Budgeted`]).
fn check_apriori_budget(world_count: u128, opts: &WorldOptions) -> Result<(), EvalError> {
    if world_count > opts.max_worlds {
        return Err(EvalError::WorldBudgetExceeded {
            worlds: world_count,
            budget: opts.max_worlds,
        });
    }
    Ok(())
}

/// Iterator adapter enforcing the visited-worlds budget on a world stream:
/// yields `Ok(world)` until the budget is exceeded, then a single
/// `Err(WorldBudgetExceeded)`. Single source of truth for the single-threaded
/// streaming consumers (the sharded fold counts across workers atomically).
struct Budgeted<I> {
    inner: I,
    visited: u128,
    budget: u128,
    exhausted: bool,
}

fn budgeted<I: Iterator<Item = Database>>(inner: I, budget: u128) -> Budgeted<I> {
    Budgeted {
        inner,
        visited: 0,
        budget,
        exhausted: false,
    }
}

impl<I: Iterator<Item = Database>> Iterator for Budgeted<I> {
    type Item = Result<Database, EvalError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.exhausted {
            return None;
        }
        let world = self.inner.next()?;
        self.visited += 1;
        if self.visited > self.budget {
            self.exhausted = true;
            return Some(Err(EvalError::WorldBudgetExceeded {
                worlds: self.visited,
                budget: self.budget,
            }));
        }
        Some(Ok(world))
    }
}

/// Telemetry from one streaming certain-answer execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldExecution {
    /// The certain answer — `⋂ Q(D')` over the visited worlds.
    pub answers: Relation,
    /// Worlds actually evaluated across all workers (before any structural
    /// dedup; duplicates are harmless to an idempotent ∩ and deduplication
    /// would cost O(distinct worlds) memory).
    pub worlds_visited: u128,
    /// Of the visited worlds, how many went through the batched split
    /// executor (overlay resolution into reused scratch batches) instead of
    /// materializing a row `Database`. The default fold batches everything;
    /// the [`stream_certain_answer_rows`] reference reports zero.
    pub worlds_batched: u128,
    /// Did enumeration stop early because the intersection emptied? Early
    /// exit can only fire when the certain answer is ∅.
    pub early_exit: bool,
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

/// Wall-clock and work volume of one worker shard of an enumeration fold.
/// Shared by the worlds fold here and the repairs fold in the `repairs`
/// crate (the same shard-and-merge shape).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Wall-clock the shard ran for, in nanoseconds.
    pub nanos: u64,
    /// Worlds (or repairs) the shard folded through the batched split
    /// executor; zero under the row-instantiating reference fold.
    pub units: u128,
}

/// Per-worker fold state collected at the join.
struct ShardResult {
    acc: Option<Relation>,
    early_exit: bool,
    op_stats: OpStats,
    worlds_batched: u128,
}

/// Shared cross-worker signals. There is no error channel: physical
/// execution of a typechecked plan over complete worlds is infallible, so
/// the only ways a fold ends are completion, early exit, and the budget.
struct SharedState {
    stop: AtomicBool,
    budget_hit: AtomicBool,
    visited: AtomicU64,
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
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let max_useful = (valuations / (PARALLEL_MIN_VALUATIONS / 2)).min(64) as usize;
    auto.clamp(1, max_useful.max(1))
}

/// Everything a worker needs, shared read-only across the fleet. The
/// physical plan is lowered **once** before the fleet starts; every worker
/// executes the same plan in each of its worlds.
#[derive(Clone, Copy)]
struct ShardJob<'a> {
    plan: &'a PhysicalPlan,
    db: &'a Database,
    domain: &'a [relmodel::value::Constant],
    semantics: Semantics,
    max_extra: usize,
    budget: u128,
}

/// The row-instantiating reference fold: materializes each world as a
/// `Database` and executes the plan from scratch in it. Retained as the
/// differential baseline for the batched shard runner below.
fn run_shard_rows(job: ShardJob<'_>, range: (u128, u128), shared: &SharedState) -> ShardResult {
    let ShardJob {
        plan,
        db,
        domain,
        semantics,
        max_extra,
        budget,
    } = job;
    let worlds = WorldIter::new(db, domain, semantics, max_extra)
        .without_dedup()
        .valuation_range(range.0, range.1);
    let mut acc: Option<Relation> = None;
    let mut early_exit = false;
    let mut op_stats = OpStats::default();
    for world in worlds {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        let visited = shared.visited.fetch_add(1, Ordering::Relaxed) + 1;
        if u128::from(visited) > budget {
            // This world is discarded unevaluated — uncount it so the
            // reported figure is exactly the worlds folded.
            shared.visited.fetch_sub(1, Ordering::Relaxed);
            shared.budget_hit.store(true, Ordering::Relaxed);
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
        let answer = exec::columnar::execute_into(plan, &world, &mut op_stats);
        let folded = match acc.take() {
            None => answer,
            Some(a) => a.intersection(&answer),
        };
        let empty = folded.is_empty();
        acc = Some(folded);
        if empty {
            // The global intersection is a subset of this local one: ∅ here
            // proves the certain answer is ∅ everywhere. Stop the fleet.
            early_exit = true;
            shared.stop.store(true, Ordering::Relaxed);
            break;
        }
    }
    ShardResult {
        acc,
        early_exit,
        op_stats,
        worlds_batched: 0,
    }
}

/// The batched shard runner: enumerates the same worlds as
/// [`run_shard_rows`] — identical `(valuation, extension-subset)` order,
/// budget, and stop discipline — but never materializes a `Database`.
/// Per world it refills one set of per-worker scratch batches (the overlay
/// images of the symbolic rows, the chosen OWA extension tuples, and the Δ
/// diagonal of any world-introduced constants) and evaluates the shared
/// plan through the caching split executor. The fold then exploits
/// `⋂ᵢ (S ∪ Vᵢ) = S ∪ ⋂ᵢ Vᵢ`: only the volatile answer parts are
/// intersected per world, and the shard-constant stable part `S` is
/// converted and unioned in once.
fn run_shard_batched(job: ShardJob<'_>, range: (u128, u128), shared: &SharedState) -> ShardResult {
    let ShardJob {
        plan,
        db,
        domain,
        semantics: _,
        max_extra,
        budget,
    } = job;

    // ---- shard-invariant setup: overlays, stable leaves, OWA candidates ----
    let nulls: Vec<NullId> = db.null_ids().into_iter().collect();
    let base_consts: BTreeSet<Constant> = db.constants();
    let mut setup = ShardSetup::default();
    let mut overlays: Vec<(String, OverlayBatch)> = Vec::new();
    for rs in db.schema().iter() {
        let rel = db.relation(&rs.name).expect("schema lists the relation");
        let overlay = OverlayBatch::new(&ColumnBatch::from_relation(rel));
        setup
            .static_scans
            .insert(rs.name.clone(), overlay.is_all_ground() && max_extra == 0);
        setup
            .stable_scans
            .insert(rs.name.clone(), Rc::new(overlay.stable().clone()));
        overlays.push((rs.name.clone(), overlay));
    }
    let base_diag: Vec<Tuple> = base_consts
        .iter()
        .map(|c| Tuple::new(vec![Value::Const(c.clone()), Value::Const(c.clone())]))
        .collect();
    setup.stable_delta = Rc::new(ColumnBatch::from_rows(2, base_diag.iter()));
    setup.static_delta = nulls.is_empty() && max_extra == 0;
    // Mirrors WorldIter's extension candidates: every complete tuple over
    // the valuation domain, enumerated in the same order.
    let candidates: Vec<(String, Tuple)> = if max_extra > 0 {
        all_complete_tuples(db, domain)
    } else {
        Vec::new()
    };

    // One scratch batch per relation that can ever receive volatile rows,
    // cleared and refilled per world — no per-world allocation.
    let mut volatile_scans: HashMap<String, Rc<ColumnBatch>> = HashMap::new();
    for (name, overlay) in &overlays {
        if !overlay.is_all_ground() || max_extra > 0 {
            volatile_scans.insert(
                name.clone(),
                Rc::new(ColumnBatch::new(overlay.stable().arity())),
            );
        }
    }
    let mut volatile_delta = Rc::new(ColumnBatch::new(2));
    let mut extra_consts: BTreeSet<Constant> = BTreeSet::new();

    let mut exec = ShardExec::new(plan, morsel_rows(), setup);
    let mut stable_rel: Option<Relation> = None;
    let mut acc_v: Option<Relation> = None;
    let mut early_exit = false;
    let mut worlds_batched: u128 = 0;

    let valuations =
        ValuationEnumerator::with_range(nulls.iter().copied(), domain.to_vec(), range.0, range.1);
    'outer: for v in valuations {
        // Every extension subset of this valuation is one world; the empty
        // subset (the unextended world) comes first, exactly as WorldIter
        // yields them.
        for subset in BoundedSubsetIter::new(candidates.len(), max_extra) {
            if shared.stop.load(Ordering::Relaxed) {
                break 'outer;
            }
            let visited = shared.visited.fetch_add(1, Ordering::Relaxed) + 1;
            if u128::from(visited) > budget {
                // This world is discarded unevaluated — uncount it so the
                // reported figure is exactly the worlds folded.
                shared.visited.fetch_sub(1, Ordering::Relaxed);
                shared.budget_hit.store(true, Ordering::Relaxed);
                shared.stop.store(true, Ordering::Relaxed);
                break 'outer;
            }

            // Refill the scratches with this world's volatile rows.
            for batch in volatile_scans.values_mut() {
                Rc::make_mut(batch).clear();
            }
            extra_consts.clear();
            for (name, overlay) in &overlays {
                if overlay.is_all_ground() {
                    continue;
                }
                let out = volatile_scans
                    .get_mut(name.as_str())
                    .expect("scratch exists for every overlay relation");
                overlay.resolve_into(&v, Rc::make_mut(out));
            }
            for &ci in &subset {
                let (name, tuple) = &candidates[ci];
                let out = volatile_scans
                    .get_mut(name.as_str())
                    .expect("scratch exists under OWA extension");
                Rc::make_mut(out).push_tuple(tuple);
                for val in tuple.values() {
                    if let Some(c) = val.as_const() {
                        if !base_consts.contains(c) {
                            extra_consts.insert(c.clone());
                        }
                    }
                }
            }
            // Δ gains a diagonal row for every world-introduced constant.
            for (_, c) in v.iter() {
                if !base_consts.contains(c) {
                    extra_consts.insert(c.clone());
                }
            }
            if !extra_consts.is_empty() {
                let delta = Rc::make_mut(&mut volatile_delta);
                delta.clear();
                for c in &extra_consts {
                    delta.push_row([Value::Const(c.clone()), Value::Const(c.clone())]);
                }
            } else if !volatile_delta.is_empty() {
                Rc::make_mut(&mut volatile_delta).clear();
            }

            worlds_batched += 1;
            let split = exec.eval_element(&ElementInput {
                volatile_scans: &volatile_scans,
                volatile_delta: &volatile_delta,
            });
            let s_rel = stable_rel.get_or_insert_with(|| split.stable.to_relation());
            let answer_v = split.volatile.to_relation();
            let folded = match acc_v.take() {
                None => answer_v,
                Some(a) => a.intersection(&answer_v),
            };
            // `⋂ (S ∪ Vᵢ)` is empty iff `S` and `⋂ Vᵢ` both are — the
            // early exit fires on exactly the same world as the row fold.
            let empty = s_rel.is_empty() && folded.is_empty();
            acc_v = Some(folded);
            if empty {
                early_exit = true;
                shared.stop.store(true, Ordering::Relaxed);
                break 'outer;
            }
        }
    }
    let acc = match (stable_rel, acc_v) {
        (Some(s), Some(v)) => Some(s.union(&v)),
        _ => None,
    };
    ShardResult {
        acc,
        early_exit,
        op_stats: exec.stats,
        worlds_batched,
    }
}

/// The streaming, parallel, early-exiting certain answer for a
/// pre-typechecked plan: equation (1) computed as a fold, with telemetry.
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
    stream_certain_answer_inner(
        plan.expr(),
        plan.physical(),
        db,
        semantics,
        opts,
        FoldMode::Batched,
    )
}

/// [`stream_certain_answer`] on the row-instantiating reference fold: each
/// world is materialized as a `Database` and the plan executed from scratch
/// in it. Same answers, same visit/budget/early-exit discipline — kept as
/// the differential-fuzz baseline and the benchmark's "before" lane.
pub fn stream_certain_answer_rows(
    plan: &PlannedQuery,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<WorldExecution, EvalError> {
    stream_certain_answer_inner(
        plan.expr(),
        plan.physical(),
        db,
        semantics,
        opts,
        FoldMode::Rows,
    )
}

/// Which shard runner a streaming fold uses.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FoldMode {
    /// The split executor over overlay/mask scratches (the default).
    Batched,
    /// The row-instantiating reference.
    Rows,
}

/// The fold itself, over an already-typechecked expression and its lowered
/// physical plan (what [`PlannedQuery`] carries; [`certain_answer_worlds`]
/// lowers once itself, without paying for a plan's clone-and-classify). The
/// expression is only consulted for its constants when building the
/// valuation domain; every world executes `physical`.
fn stream_certain_answer_inner(
    expr: &RaExpr,
    physical: &PhysicalPlan,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
    mode: FoldMode,
) -> Result<WorldExecution, EvalError> {
    let run_shard = match mode {
        FoldMode::Batched => run_shard_batched,
        FoldMode::Rows => run_shard_rows,
    };
    let arity = physical.arity();
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    let valuations = valuation_count(domain.len(), db.null_ids().len());
    let threads = resolve_threads(opts, valuations);
    let shared = SharedState {
        stop: AtomicBool::new(false),
        budget_hit: AtomicBool::new(false),
        visited: AtomicU64::new(0),
    };
    let job = ShardJob {
        plan: physical,
        db,
        domain: &domain,
        semantics,
        max_extra,
        budget: opts.max_worlds,
    };

    // `workers` is the number of shards actually run — range chunking can
    // produce fewer non-empty shards than the resolved thread count, and the
    // telemetry must report what really happened.
    // Shards are timed at the spawn boundary: wall-clock per worker, without
    // touching the fold's inner loop.
    let timed_shard = |range: (u128, u128), shared: &SharedState| {
        let started = std::time::Instant::now();
        let result = run_shard(job, range, shared);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (result, nanos)
    };
    let (shard_results, workers): (Vec<(ShardResult, u64)>, usize) = if threads == 1 {
        (vec![timed_shard((0, valuations), &shared)], 1)
    } else {
        let chunk = valuations.div_ceil(threads as u128);
        // Saturating arithmetic: when the valuation space itself saturates
        // u128, `(i + 1) * chunk` would overflow for the last shard.
        let ranges: Vec<(u128, u128)> = (0..threads as u128)
            .map(|i| {
                let start = i.saturating_mul(chunk).min(valuations);
                (start, start.saturating_add(chunk).min(valuations))
            })
            .filter(|(s, e)| s < e)
            .collect();
        let workers = ranges.len().max(1);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|&range| {
                    let shared = &shared;
                    let timed_shard = &timed_shard;
                    scope.spawn(move || timed_shard(range, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("world worker panicked"))
                .collect()
        });
        (results, workers)
    };

    let early_exit = shard_results.iter().any(|(r, _)| r.early_exit);
    let visited = u128::from(shared.visited.load(Ordering::Relaxed));
    if !early_exit && shared.budget_hit.load(Ordering::Relaxed) {
        return Err(EvalError::WorldBudgetExceeded {
            worlds: visited,
            budget: opts.max_worlds,
        });
    }
    let mut op_stats = OpStats::default();
    let mut worlds_batched: u128 = 0;
    let mut shards = Vec::with_capacity(shard_results.len());
    for (shard, nanos) in &shard_results {
        op_stats.merge(&shard.op_stats);
        worlds_batched += shard.worlds_batched;
        shards.push(ShardProfile {
            nanos: *nanos,
            units: shard.worlds_batched,
        });
    }
    let answers = if early_exit {
        Relation::new(arity)
    } else {
        let mut acc: Option<Relation> = None;
        for (shard, _) in shard_results {
            if let Some(local) = shard.acc {
                acc = Some(match acc.take() {
                    None => local,
                    Some(a) => a.intersection(&local),
                });
            }
        }
        // Zero worlds visited is unreachable: the empty-domain case errored
        // above and a null-free database has exactly one world. Guard anyway.
        acc.ok_or(EvalError::EmptyDomain {
            nulls: db.null_ids().len(),
        })?
    };
    Ok(WorldExecution {
        answers,
        worlds_visited: visited,
        worlds_batched,
        early_exit,
        threads: workers,
        peak_worlds_in_flight: workers * (1 + usize::from(max_extra > 0)),
        op_stats,
        shards,
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
    Ok(
        stream_certain_answer_inner(expr, &physical, db, semantics, opts, FoldMode::Batched)?
            .answers,
    )
}

/// [`certain_answer_worlds`] for a pre-typechecked plan, plus the number of
/// worlds **visited** by the streaming fold — the honest figure for
/// telemetry, as opposed to the [`estimated_world_count`] upper bound (early
/// exit can make it much smaller).
pub fn certain_answer_worlds_counted(
    plan: &PlannedQuery,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<(Relation, u128), EvalError> {
    let exec = stream_certain_answer(plan, db, semantics, opts)?;
    Ok((exec.answers, exec.worlds_visited))
}

/// The certain answer to a Boolean query: true iff the query is nonempty in
/// every possible world. Streams worlds with early exit on the first world
/// where the query fails; errors on zero-world inputs instead of vacuously
/// answering.
pub fn certain_boolean_worlds(
    expr: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<bool, EvalError> {
    let physical = PhysicalPlan::lower(expr, db.schema())?;
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    let worlds = WorldIter::new(db, &domain, semantics, max_extra).without_dedup();
    for world in budgeted(worlds, opts.max_worlds) {
        if exec::columnar::execute(&physical, &world?).is_empty() {
            return Ok(false); // fails in this world — certainly-true refuted
        }
    }
    Ok(true)
}

/// The *possible* (maybe) answers to a query: tuples that appear in the answer
/// in at least one world, folded as a streaming union. Used by examples to
/// contrast certain and possible information.
pub fn possible_answer_union(
    expr: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<Relation, EvalError> {
    let physical = PhysicalPlan::lower(expr, db.schema())?;
    let (domain, max_extra) = enumeration_setup(expr, db, semantics, opts)?;
    let mut acc = Relation::new(physical.arity());
    let worlds = WorldIter::new(db, &domain, semantics, max_extra).without_dedup();
    for world in budgeted(worlds, opts.max_worlds) {
        acc = acc.union(&exec::columnar::execute(&physical, &world?));
    }
    Ok(acc)
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
        let exists_unpaid = unpaid.clone().project(vec![]);
        assert!(certain_boolean_worlds(
            &exists_unpaid,
            &db,
            Semantics::Cwa,
            &WorldOptions::default()
        )
        .unwrap());
        // ... and the possible answers include both orders.
        let possible =
            possible_answer_union(&unpaid, &db, Semantics::Cwa, &WorldOptions::default()).unwrap();
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
        let nonempty = q.project(vec![]);
        assert!(
            certain_boolean_worlds(&nonempty, &db, Semantics::Cwa, &WorldOptions::default())
                .unwrap()
        );
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
        let opts = WorldOptions {
            max_worlds: 100,
            ..WorldOptions::default()
        };
        let err = certain_answer_worlds(&RaExpr::relation("R"), &db, Semantics::Cwa, &opts);
        match err {
            Err(EvalError::WorldBudgetExceeded { worlds, budget }) => {
                assert_eq!(budget, 100);
                assert!(worlds >= 100, "budget fires only after visiting it");
            }
            other => panic!("expected budget error, got {other:?}"),
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

    #[test]
    fn early_exit_never_fires_on_nonempty_certain_answers() {
        // A literal tuple unioned in keeps the intersection nonempty forever:
        // the fold must visit the whole (small) space and report no early exit.
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .tuple("R", vec![Value::null(0)])
            .tuple("R", vec![Value::null(1)])
            .build();
        let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[77])]));
        let q = RaExpr::relation("R").union(lit);
        let exec = stream_certain_answer(
            &planned(&q, &db),
            &db,
            Semantics::Cwa,
            &WorldOptions::default(),
        )
        .unwrap();
        assert!(!exec.early_exit);
        assert!(exec.answers.contains(&Tuple::ints(&[77])));
        // Domain = query constant 77 + (nulls+1 = 3) fresh constants.
        assert_eq!(exec.worlds_visited, 16, "4-constant domain, 2 nulls");
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
        for q in &queries {
            let plan = planned(q, &db);
            for (semantics, opts) in &cases {
                let batched = stream_certain_answer(&plan, &db, *semantics, opts).unwrap();
                let rows = stream_certain_answer_rows(&plan, &db, *semantics, opts).unwrap();
                assert_eq!(batched.answers, rows.answers, "{q:?} under {semantics}");
                assert_eq!(batched.worlds_visited, rows.worlds_visited);
                assert_eq!(batched.early_exit, rows.early_exit);
                assert_eq!(
                    batched.worlds_batched, batched.worlds_visited,
                    "every world of the default fold goes through the split executor"
                );
                assert_eq!(rows.worlds_batched, 0);
            }
        }
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
            certain_boolean_worlds(&q.clone().project(vec![]), &db, Semantics::Cwa, &opts)
                .map(|_| ()),
            possible_answer_union(&q, &db, Semantics::Cwa, &opts).map(|_| ()),
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
