//! The enumeration-fold driver shared by the possible-world fold
//! ([`crate::worlds`]) and the consistent-answer fold (`repairs::fold`).
//!
//! Both folds compute an equation of one shape. Certain answers are
//! `⋂ Q(D')` over the possible worlds `D'`; consistent answers are
//! `⋂ certain(Q, R)` over the repairs `R`. Call a world or a repair an
//! *element*. Each fold supplies only its choice space, as a per-worker
//! closure: how it enumerates and partitions elements, and how it evaluates
//! one. This module owns the rest of the contract:
//!
//! * **Shards.** [`run`] calls the closure once per worker, on scoped
//!   threads when there is more than one, and times each call at the spawn
//!   boundary into a [`ShardProfile`].
//! * **Budget.** A shard calls [`Shard::admit`] before it evaluates an
//!   element, counting it against one fleet-wide budget on elements
//!   **visited**. The element that would exceed the budget is refused and
//!   uncounted, so the visited count is exactly the elements folded, and
//!   the fleet is told to stop.
//! * **Early exit.** The running intersection only shrinks, and a shard's
//!   intersection is a superset of the global one, so a shard whose meet is
//!   ∅ proves the answer ∅ and stops the fleet. Early exit can therefore fire
//!   only on an empty answer, and only in a fold whose shards combine by ∩.
//! * **The meet.** A split-executor element answers `S ∪ Vᵢ`, with `S` the
//!   same for every element of a shard, and `⋂ᵢ (S ∪ Vᵢ) = S ∪ ⋂ᵢ Vᵢ`: a
//!   shard intersects only the volatile parts ([`Shard::fold_split`]) and
//!   unions `S` in once, when it finishes. `S ∪ ⋂ᵢ Vᵢ` is empty iff `S` and
//!   `⋂ᵢ Vᵢ` both are, so early exit fires on the same element as the
//!   row-materializing reference, which intersects whole answers
//!   ([`Shard::fold_rows`]).
//! * **Runs.** A factorized fold intersects one *run* of elements per
//!   independent component and unites the runs ([`Shard::close_run`]). A
//!   run whose intersection is empty adds nothing, so `fold_split` tells
//!   the shard to stop that run (a run stop), never the fleet.
//! * **The possible side.** `⋂ (A − B) = ⋂ A − ⋃ B` over any set of
//!   elements. Given the certain `⋂ A`, [`Shard::subtract_split`] removes
//!   each element's rows of `B` from it; the shards meet by ∩, and a shard
//!   whose remainder empties proves the answer ∅ and stops the fleet.
//! * **Errors and the merge.** An element's evaluation may fail; the first
//!   error is kept and the fleet stops. At the join early exit beats an
//!   error, because ∅ is proven whatever else failed, and an error beats the
//!   budget, because it says why the fold could not finish. Otherwise the
//!   shards' answers combine by ∩ when the shards partition the elements
//!   ([`Combine::Intersect`]), or by ∪ when they partition independent
//!   components and each holds the stable answer ([`Combine::Union`]).
//! * **Moved merges.** Every union a fold makes — `S` with the runs, a
//!   closed run with the runs before it, a shard's answer with the others'
//!   at the join — consumes both operands and moves the smaller set into
//!   the larger ([`Relation::into_union`]). The large stable answer `S`
//!   therefore takes in a few volatile rows without being copied.
//!
//! # The component fold
//!
//! An element is a tuple of choices, and the choices often split into
//! independent **components**. A fold offers two kinds of them: *choice
//! vertices*, each a row, joined by edges (a repair fold's conflict
//! vertices and edges, of which each component chooses a local repair; a
//! world fold has none), and the null-bearing rows every element holds,
//! whose nulls each element values over one shared domain. [`group`] joins,
//! in one union-find, a vertex with each of its neighbors and each of its
//! nulls, and the nulls of one row. A component `K` is one class: its
//! vertices `V_K`, its nulls `N_K`, and the rows `C_K` over those nulls. An
//! element of `K` is a local choice `M_K` of `V_K` ([`Choices`]) with a
//! valuation `v_K` of the nulls `N(M_K ∪ C_K) ⊆ N_K` its rows carry,
//! holding the rows `v_K(M_K ∪ C_K)`; valuing a null of `N_K` those rows
//! lack would repeat the same rows. No edge crosses two components and no
//! row or vertex mixes their nulls, so nothing ties their choices: the
//! elements are exactly the product of the components' elements, and each
//! is `G ∪ ⋃_K v_K(M_K ∪ C_K)`, `G` being the complete rows every element
//! holds.
//!
//! *The identity.* Call a relation volatile when it holds a vertex or a
//! null-bearing row. When every derivation of the plan uses at most one
//! volatile row (the plan is *linear*, as the table of
//! [`relalgebra::physical::linear_volatility`] decides), an element's
//! answer is `Q(G) ∪ ⋃_K vol_K(M_K, v_K)`, where `vol_K` is what the split
//! executor derives when its volatile scans hold only `v_K(M_K ∪ C_K)`.
//! Intersecting over the product of choices then factorizes:
//!
//! ```text
//! ⋂_e Q(e)  =  Q(G) ∪ ⋃_K ⋂_{(M_K, v_K)} vol_K(M_K, v_K)
//! ```
//!
//! *Proof.* `⊇`: a row of `Q(G)` is in every element's answer, and a row
//! in `vol_K(M_K, v_K)` for every choice of `K` is in the answer of every
//! element, whatever it chooses for `K`. `⊆`: a row outside the right-hand
//! side misses `Q(G)` and, in each component `K`, misses `vol_K` for some
//! choice `(M_K, v_K)`; the element making each of those choices answers
//! without the row. ∀ over a product of independent choices swaps with ∃.
//!
//! *The fold.* It visits at most `Σ_K Σ_{M_K} |dom|^{|N(M_K ∪ C_K)|}`
//! elements ([`element_count`]) instead of their product.
//! [`ComponentFold::run_shard`] deals the components round-robin to the
//! workers and, per component, per local choice and per valuation, refills
//! the scratch with the element's rows and folds what the plan (or one
//! side of a root difference, [`Side`]) derives into the component's run.
//! The runs unite ([`Combine::Union`]), and a run stops once its
//! intersection is empty, since it can add nothing to the union.
//!
//! *The product.* Any plan folds the product of the choices as the
//! component fold over **one** component holding every vertex and every
//! null, under [`Combine::Intersect`]: its elements are the whole worlds or
//! repairs. Only such a fold may cut a component into [`parts`] — by the
//! first decisions of its local choice when it has vertices, else by
//! contiguous valuation ranges — and deal the parts round-robin, so that
//! every worker shares it; a Union run must stay on one worker. Two more
//! things enter an element there: a world fold under OWA extends every
//! valuation by each subset of extension tuples, innermost, and a plan
//! reading Δ gets Δ refilled
//! from the constants of the element's rows outside the stable scans
//! ([`shard_exec`]). Each fold keeps only its choice space and its rule for
//! when to factorize; [`workers`] is the one rule for how many workers a
//! fold runs on.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use relalgebra::physical::{reads_delta, PhysNode, PhysicalPlan};
use relmodel::batch::{morsel_rows, ColumnBatch};
use relmodel::semantics::BoundedSubsetIter;
use relmodel::valuation::{valuation_space_size, ValuationEnumerator};
use relmodel::value::{Constant, NullId, Value};
use relmodel::{Relation, Tuple};

use crate::error::EvalError;
use crate::exec::columnar::split::{ElementInput, ShardExec, ShardSetup, Split};
use crate::exec::OpStats;

/// Wall-clock and work volume of one worker shard of an enumeration fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Wall-clock the shard ran for, in nanoseconds.
    pub nanos: u64,
    /// Worlds (or repairs) the shard folded through the batched split
    /// executor; zero under the row-instantiating reference fold.
    pub units: u128,
}

/// How the shards' answers combine at the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// The shards partition the elements: their answers intersect, and a
    /// shard whose meet empties ends the fold early.
    Intersect,
    /// The shards partition independent components, each answer already
    /// holding the stable part: their answers unite, and the fold never
    /// exits early.
    Union,
}

/// Why a fold produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// More elements than the budget allows were offered; `visited` is the
    /// number folded.
    Budget {
        /// Elements folded when the budget fired (equal to the budget).
        visited: u128,
    },
    /// An element's evaluation failed.
    Eval(EvalError),
}

/// A completed fold, merged across shards.
#[derive(Debug)]
pub struct Folded<T> {
    /// The answer: ∅ after an early exit, `None` when no shard folded an
    /// element.
    pub answers: Option<Relation>,
    /// Elements folded across every shard.
    pub visited: u128,
    /// Of those, the elements folded through the split executor.
    pub batched: u128,
    /// Did a shard's meet empty before its elements ran out?
    pub early_exit: bool,
    /// Operator telemetry summed over the shards.
    pub op_stats: OpStats,
    /// One profile per shard, in spawn order.
    pub shards: Vec<ShardProfile>,
    /// What each shard's closure returned, in spawn order.
    pub tallies: Vec<T>,
}

impl Folded<()> {
    /// This fold followed by `next` on the same workers, as the two sides
    /// of a difference are: visits, telemetry and each worker's profile add
    /// up, and the answer and early exit are `next`'s.
    pub fn then(mut self, next: Folded<()>) -> Folded<()> {
        self.op_stats.merge(&next.op_stats);
        let mut shards = next.shards;
        for (i, profile) in self.shards.into_iter().enumerate() {
            match shards.get_mut(i) {
                Some(later) => {
                    later.nanos = later.nanos.saturating_add(profile.nanos);
                    later.units += profile.units;
                }
                None => shards.push(profile),
            }
        }
        Folded {
            answers: next.answers,
            visited: self.visited + next.visited,
            batched: self.batched + next.batched,
            early_exit: next.early_exit,
            op_stats: self.op_stats,
            shards,
            tallies: next.tallies,
        }
    }
}

/// Below this a-priori element count a fold's automatic worker count is
/// one: spawning workers would cost more than the fold.
pub const PARALLEL_MIN_ELEMENTS: u128 = 128;

/// A fold's worker count. A `pinned` count is honoured exactly. Otherwise
/// a product fold, whose a-priori element estimate is `Some`, runs on one
/// worker below [`PARALLEL_MIN_ELEMENTS`] and on the machine's parallelism
/// (capped at 8) from there; a factorized fold (`None`) runs on one worker,
/// because every worker rebuilds the stable subresults that dominate it.
pub fn workers(pinned: Option<usize>, estimate: Option<u128>) -> usize {
    match (pinned, estimate) {
        (Some(pinned), _) => pinned.max(1),
        (None, Some(estimate)) if estimate >= PARALLEL_MIN_ELEMENTS => {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        }
        (None, _) => 1,
    }
}

/// Signals shared by every worker of one fold.
struct Control {
    budget: u128,
    combine: Combine,
    stop: AtomicBool,
    budget_hit: AtomicBool,
    visited: AtomicU64,
    error: Mutex<Option<EvalError>>,
}

/// `S ∪ ⋃ᵣ ⋂_{i ∈ r} Vᵢ`: a stable part `S` unioned in once, over the
/// intersections of the volatile parts of each *run* `r` of elements. A
/// product fold is one run; a factorized fold closes a run per component.
#[derive(Default)]
struct Meet {
    stable: Option<Relation>,
    run: Option<Relation>,
    closed: Option<Relation>,
}

impl Meet {
    /// Intersects one volatile part into the open run; `true` when the
    /// run's intersection `⋂ Vᵢ` is now empty.
    fn meet(&mut self, volatile: Relation) -> bool {
        let run = match self.run.take() {
            None => volatile,
            Some(a) => a.intersection(&volatile),
        };
        let empty = run.is_empty();
        self.run = Some(run);
        empty
    }

    /// Is the stable part `S` empty (or not yet seen)?
    fn stable_is_empty(&self) -> bool {
        self.stable.as_ref().is_none_or(Relation::is_empty)
    }

    fn finish(self) -> Option<Relation> {
        unite(self.stable, unite(self.closed, self.run))
    }
}

/// The union of two optional answers, moving the smaller into the larger
/// ([`Relation::into_union`]): a shard's stable answer takes in its few
/// volatile rows without being copied.
fn unite(a: Option<Relation>, b: Option<Relation>) -> Option<Relation> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.into_union(b)),
        (a, b) => a.or(b),
    }
}

/// One worker's side of a fold: the fleet's signals and this shard's
/// running answer.
pub struct Shard<'c> {
    control: &'c Control,
    meet: Meet,
    early_exit: bool,
    batched: u128,
    /// Operator telemetry of this shard's executions.
    pub op_stats: OpStats,
}

impl Shard<'_> {
    /// Counts one more element visited. `false` when the fleet has stopped,
    /// or when the element would exceed the budget: it is then uncounted,
    /// and the fleet stops.
    pub fn admit(&self) -> bool {
        let c = self.control;
        if c.stop.load(Ordering::Relaxed) {
            return false;
        }
        let visited = c.visited.fetch_add(1, Ordering::Relaxed) + 1;
        if u128::from(visited) > c.budget {
            c.visited.fetch_sub(1, Ordering::Relaxed);
            c.budget_hit.store(true, Ordering::Relaxed);
            c.stop.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Folds one admitted split-executor element into the shard's open
    /// run. `false` when later elements of the run cannot change the
    /// answer: in a [`Combine::Intersect`] fold, the meet `S ∪ ⋂ Vᵢ`
    /// emptied and the fleet stopped (early exit); in a [`Combine::Union`]
    /// fold, the run's `⋂ Vᵢ` emptied, so the run adds nothing to the union
    /// (a run stop; the fleet goes on).
    pub fn fold_split(&mut self, split: &Split) -> bool {
        self.batched += 1;
        self.meet
            .stable
            .get_or_insert_with(|| split.stable.to_relation());
        let run_empty = self.meet.meet(split.volatile.to_relation());
        match self.control.combine {
            Combine::Intersect => !self.exits(run_empty && self.meet.stable_is_empty()),
            Combine::Union => !run_empty,
        }
    }

    /// Folds one admitted split-executor element into the possible side
    /// of a difference `⋂ A − ⋃ B`: the shard's answer starts at `minuend`
    /// (the certain `⋂ A`) and loses every row the element derives, so it
    /// is `minuend − ⋃ᵢ (S ∪ Vᵢ)` over the shard's elements. The shards of a
    /// [`Combine::Intersect`] fold then meet to `minuend − ⋃ B` over every
    /// element. `false` when the answer emptied and the fleet stopped
    /// (early exit).
    pub fn subtract_split(&mut self, minuend: &Relation, split: &Split) -> bool {
        self.batched += 1;
        // `S` is the same in every element of the shard: subtract it once.
        let mut rest = match self.meet.stable.take() {
            None => minuend.difference(&split.stable.to_relation()),
            Some(rest) => rest,
        };
        for row in 0..split.volatile.len() {
            rest.remove(&split.volatile.tuple_at(row));
        }
        let empty = rest.is_empty();
        self.meet.stable = Some(rest);
        !self.exits(empty)
    }

    /// Ends a run of [`Shard::fold_split`] elements in a
    /// [`Combine::Union`] fold: the run's volatile intersection joins the
    /// shard's answer, and the next element starts a new run.
    pub fn close_run(&mut self) {
        self.meet.closed = unite(self.meet.closed.take(), self.meet.run.take());
    }

    /// The row-materializing reference loop: admits, evaluates and
    /// intersects the whole answer of each element in turn, until the
    /// elements run out, the fleet stops, an evaluation fails, or the meet
    /// empties.
    pub fn fold_rows<E>(
        &mut self,
        elements: impl IntoIterator<Item = E>,
        mut eval: impl FnMut(E, &mut OpStats) -> Result<Relation, EvalError>,
    ) {
        for element in elements {
            if !self.admit() {
                break;
            }
            match eval(element, &mut self.op_stats) {
                Ok(answer) => {
                    let empty = self.meet.meet(answer);
                    if self.exits(empty) {
                        break;
                    }
                }
                Err(e) => {
                    let mut slot = self.control.error.lock().expect("error slot poisoned");
                    slot.get_or_insert(e);
                    self.control.stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    /// Early exit on an empty meet, when the fold intersects shards.
    fn exits(&mut self, empty: bool) -> bool {
        if empty && self.control.combine == Combine::Intersect {
            self.early_exit = true;
            self.control.stop.store(true, Ordering::Relaxed);
        }
        self.early_exit
    }
}

/// Runs a fold over `workers` shards: `shard(worker, ..)` enumerates
/// worker `worker`'s elements through the [`Shard`] it is given, and what
/// it returns is collected into [`Folded::tallies`]. With one worker the
/// closure runs on the calling thread. See the [module docs](self) for the
/// budget, early-exit and merge rules.
pub fn run<T: Send>(
    workers: usize,
    budget: u128,
    combine: Combine,
    shard: impl Fn(usize, &mut Shard<'_>) -> T + Sync,
) -> Result<Folded<T>, FoldError> {
    let control = Control {
        budget,
        combine,
        stop: AtomicBool::new(false),
        budget_hit: AtomicBool::new(false),
        visited: AtomicU64::new(0),
        error: Mutex::new(None),
    };
    let timed = |worker: usize| {
        let mut state = Shard {
            control: &control,
            meet: Meet::default(),
            early_exit: false,
            batched: 0,
            op_stats: OpStats::default(),
        };
        let started = std::time::Instant::now();
        let tally = shard(worker, &mut state);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (state, tally, nanos)
    };
    let results: Vec<(Shard<'_>, T, u64)> = if workers == 1 {
        vec![timed(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let timed = &timed;
                    scope.spawn(move || timed(worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fold worker panicked"))
                .collect()
        })
    };

    let early_exit = results.iter().any(|(s, _, _)| s.early_exit);
    let visited = u128::from(control.visited.load(Ordering::Relaxed));
    if !early_exit {
        if let Some(e) = control.error.lock().expect("error slot poisoned").take() {
            return Err(FoldError::Eval(e));
        }
        if control.budget_hit.load(Ordering::Relaxed) {
            return Err(FoldError::Budget { visited });
        }
    }
    let mut folded = Folded {
        answers: None,
        visited,
        batched: 0,
        early_exit,
        op_stats: OpStats::default(),
        shards: Vec::with_capacity(results.len()),
        tallies: Vec::with_capacity(results.len()),
    };
    for (shard, tally, nanos) in results {
        folded.op_stats.merge(&shard.op_stats);
        folded.batched += shard.batched;
        folded.shards.push(ShardProfile {
            nanos,
            units: shard.batched,
        });
        folded.tallies.push(tally);
        // After an early exit the answer is the exiting shards' empty meet.
        if early_exit && !shard.early_exit {
            continue;
        }
        let Some(local) = shard.meet.finish() else {
            continue;
        };
        folded.answers = match folded.answers.take() {
            Some(a) if combine == Combine::Intersect => Some(a.intersection(&local)),
            a => unite(a, Some(local)),
        };
    }
    Ok(folded)
}

/// One worker's per-element leaf batches, refilled for every element
/// without allocating: a scan batch for each relation that can receive
/// element rows, and the Δ rows of the constants the element introduces.
pub struct Scratch {
    scans: HashMap<String, Arc<ColumnBatch>>,
    /// The stable scans' constants, when the plan reads Δ.
    base: Option<BTreeSet<Constant>>,
    delta: Arc<ColumnBatch>,
    extra: BTreeSet<Constant>,
}

impl Scratch {
    /// Empties every scan batch, for the next element.
    fn clear(&mut self) {
        for batch in self.scans.values_mut() {
            Arc::make_mut(batch).clear();
        }
    }

    /// The scan batch of relation `name`.
    fn scan(&mut self, name: &str) -> &mut ColumnBatch {
        Arc::make_mut(
            self.scans
                .get_mut(name)
                .expect("scratch exists for every relation an element fills"),
        )
    }

    /// Rewrites the Δ rows for the element now in the scan batches: one per
    /// constant of its rows outside the stable scans. Nothing to do unless
    /// the plan reads Δ.
    fn refill_delta(&mut self) {
        let Some(base) = &self.base else {
            return;
        };
        self.extra.clear();
        for batch in self.scans.values() {
            let outside = constants(batch).filter(|c| !base.contains(c));
            self.extra.extend(outside.cloned());
        }
        if self.extra.is_empty() && self.delta.is_empty() {
            return;
        }
        let delta = Arc::make_mut(&mut self.delta);
        delta.clear();
        for c in &self.extra {
            delta.push_row([Value::Const(c.clone()), Value::Const(c.clone())]);
        }
    }

    /// The element's leaf input to
    /// [`ShardExec::eval_subtree`](crate::exec::columnar::split::ShardExec::eval_subtree).
    fn input(&self) -> ElementInput<'_> {
        ElementInput {
            volatile_scans: &self.scans,
            volatile_delta: &self.delta,
        }
    }
}

/// The constants of a batch, column by column.
fn constants(batch: &ColumnBatch) -> impl Iterator<Item = &Constant> {
    (0..batch.arity()).flat_map(|col| {
        batch
            .column(col)
            .values()
            .iter()
            .filter_map(Value::as_const)
    })
}

/// A worker's split executor over `plan`, and its scratch. `scans` lists
/// each relation's element-invariant rows, shared with every other worker
/// of the fold (and with later folds over the same input), and whether the
/// relation is static; every relation that is not gets a scratch batch of
/// its arity.
/// When the plan reads Δ, the stable scans' constants are Δ's stable rows
/// and each element adds the other constants of its rows; Δ is static iff
/// every relation is.
pub fn shard_exec<'p>(
    plan: &'p PhysicalPlan,
    scans: impl IntoIterator<Item = (String, Arc<ColumnBatch>, bool)>,
) -> (ShardExec<'p>, Scratch) {
    let scans: Vec<_> = scans.into_iter().collect();
    let base = reads_delta(plan.root()).then(|| {
        let batches = scans.iter().flat_map(|(_, batch, _)| constants(batch));
        batches.cloned().collect::<BTreeSet<_>>()
    });
    let all_static = scans.iter().all(|&(_, _, is_static)| is_static);
    let volatile = scans
        .iter()
        .filter(|(_, _, is_static)| !is_static)
        .map(|(name, batch, _)| (name.clone(), Arc::new(ColumnBatch::new(batch.arity()))))
        .collect();
    let setup = ShardSetup::new(scans, base.as_ref().map(|base| (base, all_static)));
    let scratch = Scratch {
        scans: volatile,
        base,
        delta: Arc::new(ColumnBatch::new(2)),
        extra: BTreeSet::new(),
    };
    (ShardExec::new(morsel_rows(), setup), scratch)
}

/// One component of a factorized fold (see the [module docs](self)): the
/// vertices and nulls its elements choose together, and the rows over
/// those nulls that each of its elements holds. A component holds indexes
/// only, so a grouping can be kept next to the vertices and rows it
/// indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Component {
    /// Vertex indexes, ascending and closed under adjacency.
    pub vertices: Vec<usize>,
    /// The component's nulls, ascending.
    pub nulls: Vec<NullId>,
    /// The null-bearing rows every element of the component holds, as
    /// ascending indexes into the rows it was grouped over ([`group`]).
    pub rows: Vec<usize>,
}

/// The components of a fold's choices: one union-find over the vertices
/// (elements `0..V`, vertex `v` being the row `vertices[v]`) and the nulls
/// of the vertices and of `rows` (elements `V..`) joins a vertex with each
/// of its `neighbors` and each of its nulls, and the nulls of one row.
/// Components are numbered by their least element; every row of `rows`
/// must carry a null, and joins the component of its nulls.
pub fn group<'v>(
    vertices: &'v [(String, Tuple)],
    neighbors: impl Fn(usize) -> &'v [usize],
    rows: &[(&str, &Tuple)],
) -> Vec<Component> {
    let mut nulls: Vec<NullId> = vertices
        .iter()
        .map(|(_, t)| t)
        .chain(rows.iter().map(|(_, t)| *t))
        .flat_map(nulls_of)
        .collect();
    nulls.sort_unstable();
    nulls.dedup();
    let null_element = |n: NullId| vertices.len() + nulls.binary_search(&n).expect("a listed null");
    let mut parent: Vec<usize> = (0..vertices.len() + nulls.len()).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut union = |a: usize, b: usize| {
        let (ra, rb) = (root(&mut parent, a), root(&mut parent, b));
        parent[ra.max(rb)] = ra.min(rb);
    };
    for (v, (_, tuple)) in vertices.iter().enumerate() {
        for &u in neighbors(v) {
            union(v, u);
        }
        for n in nulls_of(tuple) {
            union(v, null_element(n));
        }
    }
    for (_, tuple) in rows {
        let mut ids = nulls_of(tuple);
        let first = null_element(ids.next().expect("a null-bearing row"));
        for n in ids {
            union(first, null_element(n));
        }
    }
    let mut components: Vec<Component> = Vec::new();
    let mut number = vec![usize::MAX; parent.len()];
    for element in 0..parent.len() {
        let r = root(&mut parent, element);
        if number[r] == usize::MAX {
            number[r] = components.len();
            components.push(Component::default());
        }
        let component = &mut components[number[r]];
        match element.checked_sub(vertices.len()) {
            None => component.vertices.push(element),
            Some(i) => component.nulls.push(nulls[i]),
        }
    }
    for (i, (_, tuple)) in rows.iter().enumerate() {
        let first = nulls_of(tuple).next().expect("a null-bearing row");
        let r = root(&mut parent, null_element(first));
        components[number[r]].rows.push(i);
    }
    components
}

/// The nulls of a tuple, in column order.
fn nulls_of(t: &Tuple) -> impl Iterator<Item = NullId> + '_ {
    t.values().iter().filter_map(Value::as_null)
}

/// The local choices of one component's vertices: its local repairs in a
/// repair fold, one empty choice in a world fold.
pub trait Choices {
    /// Starts over on the choices of one component's `vertices` whose first
    /// `prefix_len` decisions match the bits of `prefix` (bit `d` decides
    /// the `d`-th vertex); a zero `prefix_len` admits every choice.
    fn start(&mut self, vertices: &[usize], prefix: u64, prefix_len: usize);
    /// Moves to the next choice; `false` once they have run out.
    fn advance(&mut self) -> bool;
    /// The rows the current choice holds.
    fn rows(&self) -> impl Iterator<Item = (&str, &Tuple)>;
}

/// The one empty choice of a fold without vertices.
#[derive(Debug, Default)]
pub(crate) struct NoChoice {
    taken: bool,
}

impl Choices for NoChoice {
    fn start(&mut self, _: &[usize], _: u64, _: usize) {
        self.taken = false;
    }

    fn advance(&mut self) -> bool {
        !std::mem::replace(&mut self.taken, true)
    }

    fn rows(&self) -> impl Iterator<Item = (&str, &Tuple)> {
        std::iter::empty()
    }
}

/// `Σ_K Σ_{M_K} |dom|^{|N(M_K ∪ C_K)|}` over `components`, for a domain of
/// `domain_len` constants: per local choice, the valuations of the nulls
/// its rows and the component's rows carry. Exact up to `cap`, and past it
/// some count above `cap` (counting stops once the sum passes it).
pub fn element_count(
    components: &[Component],
    rows: &[(&str, &Tuple)],
    domain_len: usize,
    choices: &mut impl Choices,
    cap: u128,
) -> u128 {
    let mut elements = 0u128;
    let mut nulls = Vec::new();
    for component in components {
        choices.start(&component.vertices, 0, 0);
        while elements <= cap && choices.advance() {
            element_nulls(component, rows, choices.rows(), &mut nulls);
            let valuations = valuation_space_size(nulls.len(), domain_len);
            elements = elements.saturating_add(valuations);
        }
    }
    elements
}

/// Collects into `out`, ascending and once each, the nulls of a local
/// choice's rows and of `component`'s rows (indexes into `rows`): the nulls
/// an element of that choice values. A null of the component that neither
/// carries leaves the element's rows unchanged, so it is not valued.
fn element_nulls<'r>(
    component: &Component,
    rows: &[(&'r str, &'r Tuple)],
    choice: impl Iterator<Item = (&'r str, &'r Tuple)>,
    out: &mut Vec<NullId>,
) {
    out.clear();
    let own = component.rows.iter().map(|&i| rows[i]);
    out.extend(choice.chain(own).flat_map(|(_, t)| nulls_of(t)));
    out.sort_unstable();
    out.dedup();
}

/// One part of a component's elements (see [`parts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Part {
    /// The part's local choices are those whose first `prefix_len`
    /// decisions match the bits of `prefix` ([`Choices::start`]).
    pub prefix: u64,
    /// The number of decisions the prefix forces.
    pub prefix_len: usize,
    /// The part's valuations: the index range `[start, end)`.
    pub valuations: (u128, u128),
}

/// Cuts the elements of a component with `vertices` choice vertices and
/// `valuations` valuations into disjoint parts that cover them, about
/// `count` of them: by the first decisions of the local choice when the
/// component has vertices (`2^⌈log₂ count⌉` prefixes, or `2^vertices` when
/// that is fewer; an infeasible prefix is an empty part), else by
/// contiguous, non-empty valuation ranges (at most `count`). Part order is
/// enumeration order.
pub fn parts(vertices: usize, valuations: u128, count: usize) -> Vec<Part> {
    let whole = Part {
        prefix: 0,
        prefix_len: 0,
        valuations: (0, valuations),
    };
    if vertices > 0 {
        let bits = count.max(1).next_power_of_two().trailing_zeros() as usize;
        let prefix_len = bits.min(vertices).min(63);
        return (0..1u64 << prefix_len)
            .map(|prefix| Part {
                prefix,
                prefix_len,
                ..whole
            })
            .collect();
    }
    let cuts = valuations.min(count as u128).max(1);
    let (size, longer) = (valuations / cuts, valuations % cuts);
    let start = |i: u128| i * size + i.min(longer);
    (0..cuts)
        .map(|i| Part {
            valuations: (start(i), start(i + 1)),
            ..whole
        })
        .collect()
}

/// Which side of a component fold a run of elements feeds.
#[derive(Debug, Clone, Copy)]
pub enum Side<'a> {
    /// Intersect the subtree's volatile answers within each run
    /// ([`Shard::fold_split`]): one run per component in a
    /// [`Combine::Union`] fold, one run per shard over the one component
    /// of a [`Combine::Intersect`] fold.
    Certain(&'a PhysNode),
    /// Subtract every row of the subtree from the certain answer of a
    /// difference's left side ([`Shard::subtract_split`]).
    Possible(&'a PhysNode, &'a Relation),
}

/// A component fold's choice space, read by every worker.
#[derive(Debug, Clone, Copy)]
pub struct ComponentFold<'a, 'd> {
    /// The components, in fold order.
    pub components: &'a [Component],
    /// The null-bearing rows the components index.
    pub rows: &'a [(&'d str, &'d Tuple)],
    /// The one valuation domain every component's nulls range over.
    pub domain: &'a [Constant],
    /// Under OWA, the complete tuples an element may add, and at most how
    /// many of them; every subset extends every local choice and valuation.
    /// Elsewhere none: the only subset is the empty one.
    pub(crate) extensions: (&'a [(String, Tuple)], usize),
    /// The workers the components, or their parts, are dealt to.
    pub workers: usize,
    /// Fold only the first element: a product fold's first whole world.
    pub(crate) first_only: bool,
}

impl<'a, 'd> ComponentFold<'a, 'd> {
    /// A fold of `components`, grouped over `rows`, valued over `domain`
    /// on `workers` workers, without extensions.
    pub fn new(
        components: &'a [Component],
        rows: &'a [(&'d str, &'d Tuple)],
        domain: &'a [Constant],
        workers: usize,
    ) -> Self {
        ComponentFold {
            components,
            rows,
            domain,
            extensions: (&[], 0),
            workers,
            first_only: false,
        }
    }

    /// Folds worker `worker`'s share into `shard`. A [`Combine::Union`]
    /// fold deals whole components round-robin, and each is one run. A
    /// [`Combine::Intersect`] fold cuts each component into [`parts`],
    /// enough for every worker to get one, and deals the parts round-robin;
    /// a Union run must stay on one worker, so only it may cut. Per part,
    /// per local choice of `choices`, per valuation of the component's
    /// nulls and per extension subset, innermost, one split-executor
    /// element holds the choice's rows, the component's rows valued, and
    /// the subset's tuples, with Δ refilled from their constants. `exec`
    /// builds the worker's executor and scratch, only if it has a part; one
    /// executor serves all of them, so the stable subresults and hash
    /// tables are built once per worker.
    pub fn run_shard<'p>(
        &self,
        worker: usize,
        shard: &mut Shard<'_>,
        side: Side<'p>,
        mut choices: impl Choices,
        exec: impl FnOnce() -> (ShardExec<'p>, Scratch),
    ) {
        let combine = shard.control.combine;
        let per_component = match combine {
            Combine::Intersect => self.workers.div_ceil(self.components.len().max(1)),
            Combine::Union => 1,
        };
        let mut mine = self
            .components
            .iter()
            .flat_map(|k| {
                let valuations = valuation_space_size(k.nulls.len(), self.domain.len());
                let cut = parts(k.vertices.len(), valuations, per_component);
                cut.into_iter().map(move |part| (k, part))
            })
            .skip(worker)
            .step_by(self.workers)
            .peekable();
        if mine.peek().is_none() {
            return;
        }
        let (mut exec, mut scratch) = exec();
        let (Side::Certain(node) | Side::Possible(node, _)) = side;
        let (extensions, max_extra) = self.extensions;
        let mut valuations = ValuationEnumerator::new([], self.domain.to_vec());
        let mut nulls = Vec::new();
        'parts: for (component, part) in mine {
            choices.start(&component.vertices, part.prefix, part.prefix_len);
            'run: while choices.advance() {
                // A part of a component without vertices is a range of its
                // one choice's valuations; a prefix part takes them all.
                element_nulls(component, self.rows, choices.rows(), &mut nulls);
                let (start, end) = part.valuations;
                valuations.reset(nulls.iter().copied(), start, end);
                for v in &mut valuations {
                    for subset in BoundedSubsetIter::new(extensions.len(), max_extra) {
                        if !shard.admit() {
                            break 'parts;
                        }
                        scratch.clear();
                        let own = component.rows.iter().map(|&i| self.rows[i]);
                        for (relation, tuple) in choices.rows().chain(own) {
                            let row = tuple.values().iter().map(|x| v.apply_value(x));
                            scratch.scan(relation).push_row(row);
                        }
                        for &i in &subset {
                            let (relation, tuple) = &extensions[i];
                            scratch.scan(relation).push_tuple(tuple);
                        }
                        scratch.refill_delta();
                        let split = exec.eval_subtree(node, &scratch.input());
                        let more = match side {
                            Side::Certain(_) => shard.fold_split(&split),
                            Side::Possible(_, minuend) => shard.subtract_split(minuend, &split),
                        };
                        if self.first_only {
                            break 'parts;
                        }
                        if !more {
                            break 'run;
                        }
                    }
                }
            }
            if combine == Combine::Union {
                shard.close_run();
            }
        }
        shard.op_stats.merge(&exec.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::ast::RaExpr;
    use relmodel::Schema;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn rel(values: &[i64]) -> Relation {
        Relation::from_tuples(1, values.iter().map(|&v| Tuple::ints(&[v])))
    }

    fn failure() -> EvalError {
        EvalError::EmptyDomain { nulls: 7 }
    }

    #[test]
    fn visited_is_the_admitted_count_when_the_budget_fires() {
        for workers in [1, 3] {
            let evaluated = AtomicUsize::new(0);
            let outcome = run(workers, 10, Combine::Intersect, |_, shard| {
                shard.fold_rows(0.., |_, _| {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    Ok(rel(&[1]))
                })
            });
            assert_eq!(outcome.unwrap_err(), FoldError::Budget { visited: 10 });
            assert_eq!(evaluated.load(Ordering::Relaxed), 10, "{workers} workers");
        }
    }

    /// Worker 0 exhausts the budget while every other worker waits inside
    /// an admitted evaluation; then each of those returns its `late`
    /// outcome.
    fn race(budget: u128, late: &[Result<Relation, EvalError>]) -> Result<Folded<()>, FoldError> {
        let barrier = Barrier::new(late.len() + 1);
        run(
            late.len() + 1,
            budget,
            Combine::Intersect,
            |worker, shard| {
                if worker == 0 {
                    barrier.wait();
                    shard.fold_rows(0.., |_, _| Ok(rel(&[1])));
                    barrier.wait();
                } else {
                    shard.fold_rows([()], |_, _| {
                        barrier.wait();
                        barrier.wait();
                        late[worker - 1].clone()
                    });
                }
            },
        )
    }

    #[test]
    fn early_exit_beats_an_error_and_the_budget() {
        let folded = race(3, &[Err(failure()), Ok(rel(&[]))]).unwrap();
        assert!(folded.early_exit);
        assert_eq!((folded.answers, folded.visited), (Some(rel(&[])), 3));
    }

    #[test]
    fn an_error_beats_the_budget() {
        let outcome = race(2, &[Err(failure())]);
        assert_eq!(outcome.unwrap_err(), FoldError::Eval(failure()));
    }

    fn split(stable: &[i64], volatile: &[i64]) -> Split {
        Split {
            stable: Arc::new(ColumnBatch::from_relation(&rel(stable))),
            volatile: Arc::new(ColumnBatch::from_relation(&rel(volatile))),
        }
    }

    #[test]
    fn union_runs_stop_when_empty_and_the_possible_side_subtracts() {
        // Runs {1, 2} ∩ {2} and {3} ∩ {4}: the second empties and says so,
        // without stopping the fleet.
        let certain = run(1, 100, Combine::Union, |_, shard| {
            assert!(shard.admit() && shard.fold_split(&split(&[9], &[1, 2])));
            assert!(shard.admit() && shard.fold_split(&split(&[9], &[2])));
            shard.close_run();
            assert!(shard.admit() && shard.fold_split(&split(&[9], &[3])));
            assert!(shard.admit() && !shard.fold_split(&split(&[9], &[4])));
            shard.close_run();
            assert!(shard.admit(), "a run stop is not a fleet stop");
        })
        .unwrap();
        assert_eq!(certain.answers, Some(rel(&[2, 9])));
        assert!(!certain.early_exit);
        // {1, 2, 3} loses each element's rows, and stops the fleet once
        // nothing is left.
        let minuend = rel(&[1, 2, 3]);
        let possible = run(1, 100, Combine::Intersect, |_, shard| {
            assert!(shard.admit() && shard.subtract_split(&minuend, &split(&[1], &[2])));
            assert!(shard.admit() && !shard.subtract_split(&minuend, &split(&[1], &[3])));
            assert!(!shard.admit());
        })
        .unwrap();
        assert_eq!(
            (possible.answers.clone(), possible.visited),
            (Some(rel(&[])), 2)
        );
        assert!(possible.early_exit);
        // The last admitted element of the first fold was never folded.
        let both = certain.then(possible);
        assert_eq!(
            (both.answers, both.visited, both.batched),
            (Some(rel(&[])), 7, 6)
        );
        assert_eq!(both.shards.len(), 1, "one worker's profiles add up");
    }

    #[test]
    fn shard_answers_intersect_or_unite() {
        let answers = [rel(&[1, 2]), rel(&[2, 3])];
        let fold = |combine| {
            run(2, 100, combine, |worker, shard| {
                shard.fold_rows([worker], |w, _| Ok(answers[w].clone()));
                worker
            })
            .unwrap()
        };
        let met = fold(Combine::Intersect);
        assert_eq!(met.answers, Some(rel(&[2])));
        assert_eq!((met.visited, met.tallies), (2, vec![0, 1]));
        assert_eq!(fold(Combine::Union).answers, Some(rel(&[1, 2, 3])));
    }

    /// The shape of a grouping over `rows`: each component's vertices,
    /// nulls and the relations of its rows.
    fn shapes(components: &[Component], rows: &[(&str, &Tuple)]) -> Vec<String> {
        components
            .iter()
            .map(|k| {
                let nulls: Vec<u64> = k.nulls.iter().map(|n| n.0).collect();
                let rows: String = k.rows.iter().map(|&i| rows[i].0).collect();
                format!("{:?} {nulls:?} {rows}", k.vertices)
            })
            .collect()
    }

    /// One grouping: the vertex rows, their conflict edges, the rows every
    /// element holds, and the components expected.
    struct Grouping {
        case: &'static str,
        vertices: Vec<(String, Tuple)>,
        edges: Vec<(usize, usize)>,
        rows: Vec<(&'static str, Tuple)>,
        expected: &'static [&'static str],
    }

    #[test]
    fn components_join_vertices_neighbors_and_nulls() {
        let (i, n) = (Value::int, Value::null);
        let fact = |values: Vec<Value>| ("R".to_string(), Tuple::new(values));
        let cases = [
            // ⊥0 and ⊥1 share a tuple of R, and ⊥1 recurs in S.
            Grouping {
                case: "only nulls (the world case)",
                vertices: vec![],
                edges: vec![],
                rows: vec![
                    ("R", Tuple::new(vec![n(0), n(1)])),
                    ("R", Tuple::new(vec![n(2), i(1)])),
                    ("S", Tuple::new(vec![n(1)])),
                    ("S", Tuple::new(vec![n(3)])),
                ],
                expected: &["[] [0, 1] RS", "[] [2] R", "[] [3] S"],
            },
            // R(1, 10) clashes with R(1, ⊥0); ⊥1 is a core row's.
            Grouping {
                case: "a vertex joined to its null",
                vertices: vec![fact(vec![i(1), i(10)]), fact(vec![i(1), n(0)])],
                edges: vec![(0, 1)],
                rows: vec![("R", Tuple::new(vec![i(2), n(1)]))],
                expected: &["[0, 1] [0] ", "[] [1] R"],
            },
            // Keys 1 and 2 clash apart, but ⊥0 is in one vertex of each;
            // key 3's clash stays alone.
            Grouping {
                case: "two conflict components joined by one shared null",
                vertices: vec![
                    fact(vec![i(1), n(0)]),
                    fact(vec![i(1), i(10)]),
                    fact(vec![i(2), n(0)]),
                    fact(vec![i(2), i(20)]),
                    fact(vec![i(3), i(30)]),
                    fact(vec![i(3), i(31)]),
                ],
                edges: vec![(0, 1), (2, 3), (4, 5)],
                rows: vec![],
                expected: &["[0, 1, 2, 3] [0] ", "[4, 5] [] "],
            },
        ];
        for grouping in &cases {
            let mut adjacency = vec![Vec::new(); grouping.vertices.len()];
            for &(a, b) in &grouping.edges {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
            let rows: Vec<(&str, &Tuple)> = grouping.rows.iter().map(|(r, t)| (*r, t)).collect();
            let components = group(&grouping.vertices, |v| &adjacency[v], &rows);
            let shape = shapes(&components, &rows);
            assert_eq!(shape, grouping.expected, "{}", grouping.case);
        }
    }

    #[test]
    fn workers_without_a_component_add_nothing_to_the_union() {
        // Two null components, `R(⊥0)` and `R(⊥1)`, over the ground row
        // R(5): each run is {1} ∩ {2} = ∅ after two valuations, so `R`'s
        // certain answer is {5} whatever the worker count.
        let schema = Schema::builder().relation("R", &["a"]).build();
        let plan = PhysicalPlan::lower(&RaExpr::relation("R"), &schema).unwrap();
        let tuples = [
            Tuple::new(vec![Value::null(0)]),
            Tuple::new(vec![Value::null(1)]),
        ];
        let rows: Vec<(&str, &Tuple)> = tuples.iter().map(|t| ("R", t)).collect();
        let components = group(&[], |_| &[], &rows);
        let domain = [Constant::Int(1), Constant::Int(2)];
        assert_eq!(
            element_count(&components, &rows, 2, &mut NoChoice::default(), u128::MAX),
            4
        );
        for workers in [1, 2, 3, 4] {
            let fold = ComponentFold::new(&components, &rows, &domain, workers);
            let folded = run(workers, 100, Combine::Union, |worker, shard| {
                let side = Side::Certain(plan.root());
                fold.run_shard(worker, shard, side, NoChoice::default(), || {
                    let ground = Arc::new(ColumnBatch::from_relation(&rel(&[5])));
                    shard_exec(&plan, [("R".to_string(), ground, false)])
                })
            })
            .unwrap();
            assert_eq!(folded.answers, Some(rel(&[5])), "{workers} workers");
            assert_eq!(
                (folded.visited, folded.batched),
                (4, 4),
                "{workers} workers"
            );
            let units: Vec<u128> = folded.shards.iter().map(|p| p.units).collect();
            let idle = units.iter().skip(components.len()).all(|&u| u == 0);
            assert!(idle, "{workers} workers: {units:?}");
        }
    }

    #[test]
    fn one_component_is_cut_across_intersecting_workers() {
        // `R ∪ {9}` over the ground row R(5) and one component holding
        // R(⊥0) and R(⊥1), valued over three constants: nine elements, and
        // the stable {5, 9} keeps every meet nonempty, so nothing exits
        // early. The parts the workers share are disjoint and cover the
        // nine, whatever the worker count.
        let schema = Schema::builder().relation("R", &["a"]).build();
        let lit = RaExpr::values(rel(&[9]));
        let plan = PhysicalPlan::lower(&RaExpr::relation("R").union(lit), &schema).unwrap();
        let tuples = [
            Tuple::new(vec![Value::null(0)]),
            Tuple::new(vec![Value::null(1)]),
        ];
        let rows: Vec<(&str, &Tuple)> = tuples.iter().map(|t| ("R", t)).collect();
        let product = [Component {
            vertices: Vec::new(),
            nulls: vec![NullId(0), NullId(1)],
            rows: vec![0, 1],
        }];
        let domain = [Constant::Int(1), Constant::Int(2), Constant::Int(3)];
        let elements = element_count(&product, &rows, 3, &mut NoChoice::default(), u128::MAX);
        assert_eq!(elements, 9);
        let fold_with = |fold: ComponentFold<'_, '_>| {
            run(fold.workers, 100, Combine::Intersect, |worker, shard| {
                let side = Side::Certain(plan.root());
                fold.run_shard(worker, shard, side, NoChoice::default(), || {
                    let ground = Arc::new(ColumnBatch::from_relation(&rel(&[5])));
                    shard_exec(&plan, [("R".to_string(), ground, false)])
                })
            })
            .unwrap()
        };
        for workers in [1, 2, 3, 4] {
            let folded = fold_with(ComponentFold::new(&product, &rows, &domain, workers));
            assert_eq!(folded.answers, Some(rel(&[5, 9])), "{workers} workers");
            assert_eq!(folded.visited, elements, "{workers} workers");
            assert!(!folded.early_exit);
            let units: Vec<u128> = folded.shards.iter().map(|p| p.units).collect();
            assert_eq!(units.len(), workers);
            assert_eq!(units.iter().sum::<u128>(), elements, "{workers}: {units:?}");
            assert!(units.iter().all(|&u| u > 0), "every worker gets a part");
        }
        let first = fold_with(ComponentFold {
            first_only: true,
            ..ComponentFold::new(&product, &rows, &domain, 1)
        });
        assert_eq!(first.visited, 1, "the first element alone");
        // The first valuation values both nulls to 1.
        assert_eq!(first.answers, Some(rel(&[1, 5, 9])));
    }

    #[test]
    fn parts_cut_by_prefix_or_valuation_range() {
        let ranges =
            |parts: &[Part]| -> Vec<(u128, u128)> { parts.iter().map(|p| p.valuations).collect() };
        assert_eq!(ranges(&parts(0, 9, 1)), [(0, 9)]);
        assert_eq!(ranges(&parts(0, 9, 4)), [(0, 3), (3, 5), (5, 7), (7, 9)]);
        assert_eq!(ranges(&parts(0, 2, 4)), [(0, 1), (1, 2)], "never empty");
        assert_eq!(ranges(&parts(0, 0, 3)), [(0, 0)], "no valuation at all");
        let prefixes = |parts: &[Part]| -> Vec<(u64, usize)> {
            parts.iter().map(|p| (p.prefix, p.prefix_len)).collect()
        };
        assert_eq!(prefixes(&parts(5, 4, 1)), [(0, 0)]);
        assert_eq!(
            prefixes(&parts(5, 4, 3)),
            [(0, 2), (1, 2), (2, 2), (3, 2)],
            "3 workers share 4 prefixes"
        );
        assert_eq!(prefixes(&parts(1, 4, 8)), [(0, 1), (1, 1)], "one vertex");
        assert!(parts(5, 4, 3).iter().all(|p| p.valuations == (0, 4)));
    }
}
