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

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use relmodel::batch::ColumnBatch;
use relmodel::value::{Constant, Value};
use relmodel::Relation;

use crate::error::EvalError;
use crate::exec::columnar::split::{ElementInput, Split};
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

/// The automatic worker count before a fold's own partitioning rule: the
/// machine's parallelism, capped at 8.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
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
        let volatile = match (self.closed, self.run) {
            (Some(c), Some(r)) => Some(c.union(&r)),
            (c, r) => c.or(r),
        };
        match (self.stable, volatile) {
            (Some(s), Some(v)) => Some(s.union(&v)),
            (s, v) => v.or(s),
        }
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
        if let Some(run) = self.meet.run.take() {
            self.meet.closed = Some(match self.meet.closed.take() {
                None => run,
                Some(c) => c.union(&run),
            });
        }
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
        folded.answers = Some(match folded.answers.take() {
            None => local,
            Some(a) if combine == Combine::Union => a.union(&local),
            Some(a) => a.intersection(&local),
        });
    }
    Ok(folded)
}

/// One worker's per-element leaf batches, refilled for every element
/// without allocating: a scan batch for each relation that can receive
/// element rows, and the Δ rows of the constants the element introduces.
pub struct Scratch {
    scans: HashMap<String, Rc<ColumnBatch>>,
    delta: Rc<ColumnBatch>,
    extra: BTreeSet<Constant>,
}

impl Scratch {
    /// Scratch for the named relations, each with its arity.
    pub fn new(relations: impl IntoIterator<Item = (String, usize)>) -> Scratch {
        Scratch {
            scans: relations
                .into_iter()
                .map(|(name, arity)| (name, Rc::new(ColumnBatch::new(arity))))
                .collect(),
            delta: Rc::new(ColumnBatch::new(2)),
            extra: BTreeSet::new(),
        }
    }

    /// Empties every scan batch, for the next element.
    pub fn clear(&mut self) {
        for batch in self.scans.values_mut() {
            Rc::make_mut(batch).clear();
        }
    }

    /// The scan batch of relation `name`.
    pub fn scan(&mut self, name: &str) -> &mut ColumnBatch {
        Rc::make_mut(
            self.scans
                .get_mut(name)
                .expect("scratch exists for every relation an element fills"),
        )
    }

    /// Rewrites the Δ rows for an element holding `constants`, of which
    /// those outside `base` are new.
    pub fn refill_delta<'a>(
        &mut self,
        base: &BTreeSet<Constant>,
        constants: impl IntoIterator<Item = &'a Constant>,
    ) {
        self.extra.clear();
        for c in constants {
            if !base.contains(c) {
                self.extra.insert(c.clone());
            }
        }
        if self.extra.is_empty() && self.delta.is_empty() {
            return;
        }
        let delta = Rc::make_mut(&mut self.delta);
        delta.clear();
        for c in &self.extra {
            delta.push_row([Value::Const(c.clone()), Value::Const(c.clone())]);
        }
    }

    /// The element's leaf input to
    /// [`ShardExec::eval_element`](crate::exec::columnar::split::ShardExec::eval_element).
    pub fn input(&self) -> ElementInput<'_> {
        ElementInput {
            volatile_scans: &self.scans,
            volatile_delta: &self.delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::Tuple;
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
            stable: Rc::new(ColumnBatch::from_relation(&rel(stable))),
            volatile: Rc::new(ColumnBatch::from_relation(&rel(volatile))),
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
}
