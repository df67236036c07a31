//! The certain⁺/possible? approximation pair on the batched columnar core.
//!
//! Same semantics as the logical pair evaluator in [`crate::approx`] —
//! every operator produces an under-approximating `certain` batch and an
//! over-approximating `possible` batch — but run over the rewritten
//! [`PhysicalPlan`], with the valuation-aware operators on the
//! batch-granular ground/symbolic run split:
//!
//! * the **certain** side of every operator is syntactic, so it rides the
//!   shared columnar kernels directly (hash join, membership, division);
//! * the **possible** side partitions the build input with
//!   [`ColumnBatch::ground_split`] — ground runs go through the tight
//!   `RowTable` probe, and only the symbolic remainder pays the per-row
//!   full-predicate / [`unifiable_pairs`] fallback. [`OpStats::ground_rows`]
//!   and [`OpStats::symbolic_rows`] record how probe traffic routed.
//!
//! This is where the split earns its keep: on a mostly-ground database the
//! possible side degenerates to the plain hash path, with the symbolic
//! fallback paid only for the few null-bearing rows.

use std::sync::Arc;

use relalgebra::physical::{PhysNode, PhysOp, PhysicalPlan};
use relmodel::batch::{morsel_ranges, morsel_rows, ColumnBatch, RelationBatches, RunSplit};
use relmodel::value::Truth;
use relmodel::Database;

use super::super::{join_predicate, OpStats};
use super::{
    build_key_table, build_key_table_for, divide_syntactic, gathered, hash_key, key_columns,
    membership_keep, pair_row, product, project_dedup, select_rows, syntactic_join, union_batches,
    RowTable,
};
use crate::approx::{unifiable_pairs, ApproxAnswer};

/// Pair-evaluates a physical plan on the batched core: the physical
/// counterpart of [`crate::approx::eval_approx_unchecked`].
pub fn execute_approx(plan: &PhysicalPlan, db: &Database) -> ApproxAnswer {
    execute_approx_counted_with_morsel(plan, db, morsel_rows()).0
}

/// [`execute_approx`] plus the operator telemetry, at an explicit morsel
/// size. Transposes every scanned relation afresh.
pub fn execute_approx_counted_with_morsel(
    plan: &PhysicalPlan,
    db: &Database,
    morsel: usize,
) -> (ApproxAnswer, OpStats) {
    execute_approx_counted_over(plan, db, &RelationBatches::of(db), morsel)
}

/// [`execute_approx_counted_with_morsel`] reading every scan from
/// `batches`, the slots of `db` (see
/// [`super::execute_counted_over`]): both sides of a scan share the slot's
/// one batch. The engine runs its snapshot context's slots through here.
pub fn execute_approx_counted_over(
    plan: &PhysicalPlan,
    db: &Database,
    batches: &RelationBatches,
    morsel: usize,
) -> (ApproxAnswer, OpStats) {
    run(plan, (db, batches), (db, batches), morsel)
}

/// Pair-evaluates over an **interval** of databases — certain side reads
/// leaves from `lower`, possible side from `upper` — with the same
/// soundness invariant as the logical version (see
/// [`crate::approx::eval_approx_between_unchecked`]); consistent query
/// answering's conflict-free-core approximation calls this directly.
pub fn execute_approx_between(
    plan: &PhysicalPlan,
    lower: &Database,
    upper: &Database,
) -> (ApproxAnswer, OpStats) {
    execute_approx_between_with_morsel(plan, lower, upper, morsel_rows())
}

/// [`execute_approx_between`] with an explicit morsel size, for the
/// differential tests and benches. Transposes every scanned relation
/// afresh, once per database.
pub fn execute_approx_between_with_morsel(
    plan: &PhysicalPlan,
    lower: &Database,
    upper: &Database,
    morsel: usize,
) -> (ApproxAnswer, OpStats) {
    let upper_batches = RelationBatches::of(upper);
    let own_lower;
    let lower_batches = if std::ptr::eq(lower, upper) {
        &upper_batches
    } else {
        own_lower = RelationBatches::of(lower);
        &own_lower
    };
    run(
        plan,
        (lower, lower_batches),
        (upper, &upper_batches),
        morsel,
    )
}

/// The one pair executor behind every entry point: `lower` and `upper` are
/// each a database with the slots its scans read.
fn run(
    plan: &PhysicalPlan,
    lower: (&Database, &RelationBatches),
    upper: (&Database, &RelationBatches),
    morsel: usize,
) -> (ApproxAnswer, OpStats) {
    let mut exec = ColApproxExec {
        lower,
        upper,
        delta_lower: None,
        delta_upper: None,
        morsel: morsel.max(1),
        stats: OpStats::default(),
    };
    let pair = exec.eval(plan.root());
    (
        ApproxAnswer {
            certain: pair.certain.to_relation(),
            possible: pair.possible.to_relation(),
        },
        exec.stats,
    )
}

/// One operator's output: an under-approximating and an over-approximating
/// batch, both duplicate-free.
#[derive(Clone)]
struct PairBatch {
    certain: Arc<ColumnBatch>,
    possible: Arc<ColumnBatch>,
}

struct ColApproxExec<'a> {
    /// The database the certain side scans, with its slots; with
    /// `lower == upper` both sides of a scan share one batch.
    lower: (&'a Database, &'a RelationBatches),
    /// The database the possible side scans, with its slots.
    upper: (&'a Database, &'a RelationBatches),
    delta_lower: Option<Arc<ColumnBatch>>,
    delta_upper: Option<Arc<ColumnBatch>>,
    morsel: usize,
    stats: OpStats,
}

impl<'a> ColApproxExec<'a> {
    /// Do both sides read one database (the plain pair evaluation)?
    fn same_bounds(&self) -> bool {
        std::ptr::eq(self.lower.0, self.upper.0)
    }

    fn eval(&mut self, node: &'a PhysNode) -> PairBatch {
        self.stats.operators += 1;
        match node.op() {
            PhysOp::Scan(name) => {
                let expect = "physical plans are lowered from typechecked queries";
                let scan = |(db, batches): (&Database, &RelationBatches)| {
                    batches.get(db, name).expect(expect)
                };
                let possible = scan(self.upper);
                let certain = if self.same_bounds() {
                    Arc::clone(&possible)
                } else {
                    scan(self.lower)
                };
                PairBatch { certain, possible }
            }
            // Literal nulls are rigid: only complete literal tuples are
            // certain (see the logical evaluator for the counterexample).
            PhysOp::Values(rel) => {
                let possible = ColumnBatch::from_relation(rel);
                let ground: Vec<u32> = (0..possible.len())
                    .filter(|&r| possible.row_is_ground(r))
                    .map(|r| r as u32)
                    .collect();
                PairBatch {
                    certain: Arc::new(possible.gather(&ground)),
                    possible: Arc::new(possible),
                }
            }
            PhysOp::Delta => {
                if self.delta_lower.is_none() {
                    let rows = super::super::delta_diagonal(self.lower.0);
                    self.delta_lower = Some(Arc::new(ColumnBatch::from_rows(2, rows.iter())));
                }
                let certain = Arc::clone(self.delta_lower.as_ref().expect("just initialised"));
                let possible = if self.same_bounds() {
                    Arc::clone(&certain)
                } else {
                    if self.delta_upper.is_none() {
                        let rows = super::super::delta_diagonal(self.upper.0);
                        self.delta_upper = Some(Arc::new(ColumnBatch::from_rows(2, rows.iter())));
                    }
                    Arc::clone(self.delta_upper.as_ref().expect("just initialised"))
                };
                PairBatch { certain, possible }
            }
            PhysOp::Filter { input, predicate } => {
                let input = self.eval(input);
                let keep_certain =
                    select_rows(&input.certain, self.morsel, &mut self.stats, |row| {
                        predicate
                            .eval_3vl_marked_on(&|i| input.certain.value(i, row))
                            .is_true()
                    });
                let keep_possible =
                    select_rows(&input.possible, self.morsel, &mut self.stats, |row| {
                        predicate.eval_3vl_marked_on(&|i| input.possible.value(i, row))
                            != Truth::False
                    });
                PairBatch {
                    certain: gathered(&input.certain, keep_certain),
                    possible: gathered(&input.possible, keep_possible),
                }
            }
            PhysOp::Project { input, columns } => {
                let input = self.eval(input);
                PairBatch {
                    certain: Arc::new(project_dedup(
                        &input.certain,
                        columns,
                        self.morsel,
                        &mut self.stats,
                    )),
                    possible: Arc::new(project_dedup(
                        &input.possible,
                        columns,
                        self.morsel,
                        &mut self.stats,
                    )),
                }
            }
            PhysOp::NestedProduct { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                PairBatch {
                    certain: Arc::new(product(
                        &l.certain,
                        &r.certain,
                        self.morsel,
                        &mut self.stats,
                    )),
                    possible: Arc::new(product(
                        &l.possible,
                        &r.possible,
                        self.morsel,
                        &mut self.stats,
                    )),
                }
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let left_arity = left.arity();
                let l = self.eval(left);
                let r = self.eval(right);
                // Certain side: marked-3VL calls an equality `True` exactly
                // when the values are syntactically identical, so the shared
                // syntactic kernel applies; the residual is re-checked under
                // marked-3VL truth.
                let (lc, rc) = (&l.certain, &r.certain);
                let certain = syntactic_join(
                    lc,
                    rc,
                    keys,
                    |li, ri| {
                        residual.as_ref().is_none_or(|p| {
                            p.eval_3vl_marked_on(&pair_row(lc, li, rc, ri)).is_true()
                        })
                    },
                    self.morsel,
                    &mut self.stats,
                );
                let possible =
                    self.possible_join(&l.possible, &r.possible, keys, left_arity, residual);
                PairBatch {
                    certain: Arc::new(certain),
                    possible: Arc::new(possible),
                }
            }
            PhysOp::Union { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                PairBatch {
                    certain: Arc::new(union_batches(
                        &l.certain,
                        &r.certain,
                        self.morsel,
                        &mut self.stats,
                    )),
                    possible: Arc::new(union_batches(
                        &l.possible,
                        &r.possible,
                        self.morsel,
                        &mut self.stats,
                    )),
                }
            }
            PhysOp::Intersect { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                let keep =
                    membership_keep(&l.certain, &r.certain, true, self.morsel, &mut self.stats);
                // Possibly in both: some valuation unifies the row with a
                // row possibly on the right.
                let keep_possible = self.unifiable_keep(&l.possible, &r.possible, true);
                PairBatch {
                    certain: gathered(&l.certain, keep),
                    possible: gathered(&l.possible, keep_possible),
                }
            }
            PhysOp::Difference { left, right } => {
                let l = self.eval(left);
                let r = self.eval(right);
                // Certainly in A and not even possibly equal to anything
                // possibly in B.
                let keep_certain = self.unifiable_keep(&l.certain, &r.possible, false);
                // Possibly in A and not certainly in B.
                let keep_possible =
                    membership_keep(&l.possible, &r.certain, false, self.morsel, &mut self.stats);
                PairBatch {
                    certain: gathered(&l.certain, keep_certain),
                    possible: gathered(&l.possible, keep_possible),
                }
            }
            PhysOp::Divide { left, right } => {
                let dividend = self.eval(left);
                let divisor = self.eval(right);
                let prefix_arity = node.arity();
                let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
                // Certain: every possibly-present divisor row must pair with
                // the prefix in the certain dividend — syntactic membership,
                // so the shared division kernel applies.
                let certain = divide_syntactic(
                    &dividend.certain,
                    &divisor.possible,
                    prefix_arity,
                    self.morsel,
                    &mut self.stats,
                );
                PairBatch {
                    certain: Arc::new(certain),
                    possible: Arc::new(project_dedup(
                        &dividend.possible,
                        &prefix_cols,
                        self.morsel,
                        &mut self.stats,
                    )),
                }
            }
        }
    }

    /// The possible side of a hash join: keep every pair some valuation
    /// could join. The build side splits into a ground run (hashed) and a
    /// symbolic remainder (full-predicate fallback); a ground probe key
    /// checks only the residual against bucket matches — their key atoms
    /// are syntactically equal, hence marked-`True` — while symbolic keys
    /// on either side re-check the full join predicate (`≠ False`).
    fn possible_join(
        &mut self,
        lp: &ColumnBatch,
        rp: &ColumnBatch,
        keys: &[(usize, usize)],
        left_arity: usize,
        residual: &Option<relalgebra::predicate::Predicate>,
    ) -> ColumnBatch {
        let (left_cols, right_cols) = key_columns(keys);
        let full = join_predicate(keys, left_arity, residual);
        let split = rp.ground_split(&right_cols);
        let (table, symbolic): (RowTable, &[u32]) = match &split {
            RunSplit::AllGround => (build_key_table(rp, &right_cols), &[]),
            RunSplit::Mixed { ground, symbolic } => {
                (build_key_table_for(rp, &right_cols, ground), symbolic)
            }
        };
        let full_ok = |lrow: usize, rrow: usize| {
            full.eval_3vl_marked_on(&pair_row(lp, lrow, rp, rrow)) != Truth::False
        };
        let residual_ok = |lrow: usize, rrow: usize| {
            residual
                .as_ref()
                .is_none_or(|p| p.eval_3vl_marked_on(&pair_row(lp, lrow, rp, rrow)) != Truth::False)
        };
        let mut out = ColumnBatch::with_capacity(lp.arity() + rp.arity(), lp.len());
        for range in morsel_ranges(lp.len(), self.morsel) {
            self.stats.batches += 1;
            for lrow in range {
                if lp.key_is_ground(lrow, &left_cols) {
                    self.stats.ground_rows += 1;
                    let h = hash_key(lp, &left_cols, lrow);
                    for rrow in table.probe(h) {
                        let rrow = rrow as usize;
                        if rp.keys_equal(rrow, &right_cols, lp, lrow, &left_cols)
                            && residual_ok(lrow, rrow)
                        {
                            out.push_concat(lp, lrow, rp, rrow);
                        }
                    }
                    self.stats.fallback_pairs += symbolic.len();
                    for &rrow in symbolic {
                        if full_ok(lrow, rrow as usize) {
                            out.push_concat(lp, lrow, rp, rrow as usize);
                        }
                    }
                } else {
                    self.stats.symbolic_rows += 1;
                    self.stats.fallback_pairs += rp.len();
                    for rrow in 0..rp.len() {
                        if full_ok(lrow, rrow) {
                            out.push_concat(lp, lrow, rp, rrow);
                        }
                    }
                }
            }
        }
        out
    }

    /// The rows of `probe` for which (`keep_match`) / for which **no**
    /// (`!keep_match`) row of `pool` is unifiable with them. Ground probe
    /// rows resolve against the pool's ground run by hash — for two ground
    /// rows, unifiable ⟺ syntactically equal — and pay `unifiable_pairs`
    /// only against the symbolic remainder; symbolic probe rows check the
    /// whole pool.
    fn unifiable_keep(
        &mut self,
        probe: &ColumnBatch,
        pool: &ColumnBatch,
        keep_match: bool,
    ) -> Vec<u32> {
        let all_cols: Vec<usize> = (0..probe.arity()).collect();
        let split = pool.ground_split(&all_cols);
        let (table, symbolic): (RowTable, &[u32]) = match &split {
            RunSplit::AllGround => (build_key_table(pool, &all_cols), &[]),
            RunSplit::Mixed { ground, symbolic } => {
                (build_key_table_for(pool, &all_cols, ground), symbolic)
            }
        };
        let unif = |prow: usize, crow: usize| {
            unifiable_pairs((0..probe.arity()).map(|c| (probe.value(c, prow), pool.value(c, crow))))
        };
        let mut keep = Vec::new();
        for range in morsel_ranges(probe.len(), self.morsel) {
            self.stats.batches += 1;
            for row in range {
                let matched = if probe.row_is_ground(row) {
                    self.stats.ground_rows += 1;
                    let h = hash_key(probe, &all_cols, row);
                    table
                        .probe(h)
                        .any(|p| pool.rows_equal(p as usize, probe, row))
                        || symbolic.iter().any(|&p| unif(row, p as usize))
                } else {
                    self.stats.symbolic_rows += 1;
                    (0..pool.len()).any(|p| unif(row, p))
                };
                if matched == keep_match {
                    keep.push(row as u32);
                }
            }
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{eval_approx_between_unchecked, eval_approx_unchecked};
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::{DatabaseBuilder, Relation, Tuple, Value};

    fn db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .relation("U", &["b"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(2), Value::null(0)])
            .tuple("R", vec![Value::null(1), Value::int(10)])
            .ints("S", &[10, 100])
            .tuple("S", vec![Value::null(0), Value::int(200)])
            .ints("U", &[10])
            .tuple("U", vec![Value::null(2)])
            .build()
    }

    fn cases() -> Vec<RaExpr> {
        let r = RaExpr::relation("R");
        let join = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        vec![
            r.clone(),
            r.clone().project(vec![0]),
            r.clone()
                .select(Predicate::neq(Operand::col(0), Operand::int(1))),
            join.clone(),
            join.clone().project(vec![0, 3]),
            r.clone().project(vec![1]).union(RaExpr::relation("U")),
            r.clone().project(vec![1]).difference(RaExpr::relation("U")),
            r.clone()
                .project(vec![1])
                .intersection(RaExpr::relation("U")),
            r.clone().divide(RaExpr::relation("U")),
            RaExpr::Delta.union(RaExpr::Delta),
            RaExpr::values(Relation::from_tuples(
                2,
                vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
            ))
            .union(r.clone()),
            r.clone()
                .difference(RaExpr::relation("S"))
                .select(Predicate::eq(Operand::col(0), Operand::int(2))),
        ]
    }

    /// The batched pair executor must agree with the logical pair evaluator
    /// on both sides, for every operator, at every morsel size.
    #[test]
    fn columnar_pair_matches_logical_pair_across_morsel_sizes() {
        let d = db();
        for q in cases() {
            let plan = PlannedQuery::new(q.clone(), d.schema()).unwrap();
            let reference = eval_approx_unchecked(&q, &d);
            for morsel in [1, 2, 3, 1024] {
                let (batched, _) =
                    execute_approx_between_with_morsel(plan.physical(), &d, &d, morsel);
                assert_eq!(
                    batched.certain, reference.certain,
                    "certain diverged for {q} (morsel {morsel})"
                );
                assert_eq!(
                    batched.possible, reference.possible,
                    "possible diverged for {q} (morsel {morsel})"
                );
            }
        }
    }

    /// Interval evaluation must match the logical interval evaluator too —
    /// this is the entry point consistent query answering relies on.
    #[test]
    fn interval_evaluation_matches_logical_reference() {
        let d = db();
        let lower = d.complete_part();
        for q in cases() {
            let plan = PlannedQuery::new(q.clone(), d.schema()).unwrap();
            let reference = eval_approx_between_unchecked(&q, &lower, &d);
            let (batched, _) = execute_approx_between(plan.physical(), &lower, &d);
            assert_eq!(batched.certain, reference.certain, "certain for {q}");
            assert_eq!(batched.possible, reference.possible, "possible for {q}");
        }
    }

    #[test]
    fn joins_with_null_keys_keep_the_possible_side_complete() {
        // R(2,⊥0) can join S(10,100) and S(⊥0,200) in some valuation; the
        // possible side must keep those pairs even though the hash key ⊥0
        // matches nothing syntactically except itself.
        let d = db();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let (answer, stats) =
            execute_approx_counted_with_morsel(plan.physical(), &d, morsel_rows());
        assert!(stats.hash_joins >= 1, "certain side must hash");
        assert!(stats.ground_rows > 0, "R(1,10) probes the ground run");
        assert!(stats.symbolic_rows > 0, "R(2,⊥0) takes the fallback");
        assert!(stats.fallback_pairs > 0);
        assert!(stats.batches > 0);
        assert!(answer.possible.len() > answer.certain.len());
    }

    #[test]
    fn fixes_the_naive_difference_failure_like_the_logical_evaluator() {
        let d = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["a", "b"])
            .tuple("R", vec![Value::int(1), Value::null(0)])
            .tuple("S", vec![Value::int(1), Value::null(1)])
            .build();
        let q = RaExpr::relation("R")
            .difference(RaExpr::relation("S"))
            .project(vec![0]);
        let plan = PlannedQuery::new(q.clone(), d.schema()).unwrap();
        let out = execute_approx(plan.physical(), &d);
        assert!(out.certain.is_empty());
        assert!(out.possible.contains(&Tuple::ints(&[1])));
        assert_eq!(out, eval_approx_unchecked(&q, &d));
    }
}
