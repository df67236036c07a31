//! The Imieliński–Lipski c-table algebra on the batched operator core.
//!
//! C-table rows carry [`Condition`]s — inherently symbolic state — so the
//! rows themselves stay row-shaped ([`ConditionalTuple`]); what this
//! executor batches is the *probe traffic*. Each keyed operator indexes its
//! build side in a `GroundIndex`: the shared raw-`u64` `RowTable` kernel
//! over the ground-keyed rows plus an explicit symbolic remainder, probed
//! in morsel-sized chunks. Ground/ground key meetings resolve in the hash
//! table without materialising a candidate list or a key vector — unequal
//! ground keys never materialise the unsatisfiable row the logical algebra
//! ([`ctables::algebra`]) carries to its final `simplify()`; only
//! null-involving pairs emit equality atoms (`⊥ᵢ = c`, `⊥ᵢ = ⊥ⱼ`), exactly
//! as the logical algebra does. [`OpStats`] telemetry records batches and
//! the ground/symbolic routing.

use std::collections::BTreeSet;

use ctables::algebra::predicate_condition;
use ctables::condition::Condition;
use ctables::ctable::{ConditionalDatabase, ConditionalTable, ConditionalTuple};
use relalgebra::physical::{PhysNode, PhysOp, PhysicalPlan};
use relmodel::batch::{morsel_ranges, morsel_rows};
use relmodel::value::Value;
use relmodel::Tuple;

use super::super::OpStats;
use super::{hash_tuple_key, RowTable};

/// Evaluates a physical plan over a conditional database on the batched
/// core, returning a conditional table with `[[A]]_cwa = Q([[D]]_cwa)` —
/// the physical counterpart of [`ctables::algebra::eval_ctable_unchecked`],
/// including the propagation of the database's global condition and the
/// final simplification pass.
pub fn execute_ctable(plan: &PhysicalPlan, cdb: &ConditionalDatabase) -> ConditionalTable {
    execute_ctable_counted(plan, cdb).0
}

/// [`execute_ctable`] plus the operator telemetry.
pub fn execute_ctable_counted(
    plan: &PhysicalPlan,
    cdb: &ConditionalDatabase,
) -> (ConditionalTable, OpStats) {
    execute_ctable_counted_with_morsel(plan, cdb, morsel_rows())
}

/// [`execute_ctable_counted`] with an explicit morsel size, for the
/// differential tests.
pub fn execute_ctable_counted_with_morsel(
    plan: &PhysicalPlan,
    cdb: &ConditionalDatabase,
    morsel: usize,
) -> (ConditionalTable, OpStats) {
    let mut exec = CTableExec {
        cdb,
        delta: None,
        morsel: morsel.max(1),
        stats: OpStats::default(),
    };
    let rows = exec.eval(plan.root());
    let table = ConditionalTable::from_rows(plan.arity(), rows);
    (table.and_condition(&cdb.global).simplify(), exec.stats)
}

/// Conditional rows indexed by key: ground keys chain in a [`RowTable`]
/// under the shared hash kernel, symbolic rows are listed for the per-row
/// fallback. Built once per operator input and probed for every chunk of
/// the opposing side.
struct GroundIndex {
    cols: Vec<usize>,
    table: RowTable,
    symbolic: Vec<u32>,
}

impl GroundIndex {
    fn build(rows: &[ConditionalTuple], cols: &[usize]) -> Self {
        let mut table = RowTable::with_capacity(rows.len());
        let mut symbolic = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            if r.tuple.key_is_complete(cols) {
                table.insert(hash_tuple_key(&r.tuple, cols), i as u32);
            } else {
                symbolic.push(i as u32);
            }
        }
        GroundIndex {
            cols: cols.to_vec(),
            table,
            symbolic,
        }
    }

    /// Row ids whose key might equal `probe[probe_cols]` under some
    /// valuation: hash-verified ground matches plus the symbolic remainder
    /// for a ground probe key; every row for a symbolic one.
    fn candidates(
        &self,
        rows: &[ConditionalTuple],
        probe: &Tuple,
        probe_cols: &[usize],
    ) -> Vec<u32> {
        if probe.key_is_complete(probe_cols) {
            let h = hash_tuple_key(probe, probe_cols);
            let mut out: Vec<u32> = self
                .table
                .probe(h)
                .filter(|&i| {
                    self.cols
                        .iter()
                        .zip(probe_cols)
                        .all(|(&bc, &pc)| rows[i as usize].tuple[bc] == probe[pc])
                })
                .collect();
            out.extend_from_slice(&self.symbolic);
            out
        } else {
            (0..rows.len() as u32).collect()
        }
    }

    fn symbolic_len(&self) -> usize {
        self.symbolic.len()
    }
}

struct CTableExec<'a> {
    cdb: &'a ConditionalDatabase,
    delta: Option<Vec<ConditionalTuple>>,
    morsel: usize,
    stats: OpStats,
}

impl CTableExec<'_> {
    fn eval(&mut self, node: &PhysNode) -> Vec<ConditionalTuple> {
        self.stats.operators += 1;
        match node.op() {
            PhysOp::Scan(name) => self
                .cdb
                .table(name)
                .expect("physical plans are lowered from typechecked queries")
                .rows()
                .to_vec(),
            PhysOp::Values(rel) => ConditionalTable::from_relation(rel).rows().to_vec(),
            PhysOp::Delta => self.delta().to_vec(),
            PhysOp::Filter { input, predicate } => {
                let input = self.eval(input);
                let mut out = Vec::with_capacity(input.len());
                for row in input {
                    let cond = predicate_condition(predicate, &row.tuple);
                    let combined = row.condition.and(cond);
                    if combined != Condition::False {
                        out.push(ConditionalTuple::new(row.tuple, combined));
                    }
                }
                out
            }
            PhysOp::Project { input, columns } => self
                .eval(input)
                .into_iter()
                .map(|row| ConditionalTuple::new(row.tuple.project(columns), row.condition))
                .collect(),
            PhysOp::NestedProduct { left, right } => {
                let left = self.eval(left);
                let right = self.eval(right);
                let mut out = Vec::with_capacity(left.len().saturating_mul(right.len()));
                for l in &left {
                    for r in &right {
                        out.push(ConditionalTuple::new(
                            l.tuple.concat(&r.tuple),
                            l.condition.clone().and(r.condition.clone()),
                        ));
                    }
                }
                out
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let left_rows = self.eval(left);
                let right_rows = self.eval(right);
                let left_cols: Vec<usize> = keys.iter().map(|(lc, _)| *lc).collect();
                let right_cols: Vec<usize> = keys.iter().map(|(_, rc)| *rc).collect();
                let index = GroundIndex::build(&right_rows, &right_cols);
                self.stats.hash_joins += 1;
                self.stats.build_rows += right_rows.len();
                self.stats.probe_rows += left_rows.len();
                let mut out = Vec::new();
                for range in morsel_ranges(left_rows.len(), self.morsel) {
                    self.stats.batches += 1;
                    for l in &left_rows[range] {
                        let candidates = index.candidates(&right_rows, &l.tuple, &left_cols);
                        if l.tuple.key_is_complete(&left_cols) {
                            self.stats.ground_rows += 1;
                            self.stats.fallback_pairs += index.symbolic_len();
                        } else {
                            self.stats.symbolic_rows += 1;
                            self.stats.fallback_pairs += candidates.len();
                        }
                        for ri in candidates {
                            let r = &right_rows[ri as usize];
                            let mut cond = l.condition.clone().and(r.condition.clone());
                            // Key equalities: ground-equal pairs contribute
                            // `true`, null-involving pairs contribute the
                            // atom; ground-unequal pairs (possible only via
                            // the symbolic remainder or a symbolic probe)
                            // collapse the condition to `False`.
                            for (lc, rc) in keys {
                                let (a, b) = (&l.tuple[*lc], &r.tuple[*rc]);
                                if a.is_const() && b.is_const() {
                                    if a != b {
                                        cond = Condition::False;
                                        break;
                                    }
                                } else {
                                    cond = cond.and(Condition::eq(a.clone(), b.clone()));
                                }
                            }
                            if cond == Condition::False {
                                continue;
                            }
                            let row = l.tuple.concat(&r.tuple);
                            if let Some(p) = residual {
                                cond = cond.and(predicate_condition(p, &row));
                                if cond == Condition::False {
                                    continue;
                                }
                            }
                            out.push(ConditionalTuple::new(row, cond));
                        }
                    }
                }
                self.stats.join_rows_out += out.len();
                out
            }
            PhysOp::Union { left, right } => {
                let mut out = self.eval(left);
                out.extend(self.eval(right));
                out
            }
            PhysOp::Difference { left, right } => {
                let left_rows = self.eval(left);
                let right_rows = self.eval(right);
                let cols: Vec<usize> = (0..node.arity()).collect();
                let index = GroundIndex::build(&right_rows, &cols);
                let mut out = Vec::with_capacity(left_rows.len());
                for range in morsel_ranges(left_rows.len(), self.morsel) {
                    self.stats.batches += 1;
                    for l in &left_rows[range] {
                        if l.tuple.key_is_complete(&cols) {
                            self.stats.ground_rows += 1;
                        } else {
                            self.stats.symbolic_rows += 1;
                        }
                        // l is in the answer iff it is present and no right
                        // row is present *and equal to it*; ground-refutable
                        // equalities never enter the condition.
                        let mut cond = l.condition.clone();
                        for ri in index.candidates(&right_rows, &l.tuple, &cols) {
                            let r = &right_rows[ri as usize];
                            let clash = r
                                .condition
                                .clone()
                                .and(Condition::tuples_equal(&l.tuple, &r.tuple));
                            cond = cond.and(clash.negate());
                        }
                        out.push(ConditionalTuple::new(l.tuple.clone(), cond));
                    }
                }
                out
            }
            PhysOp::Intersect { left, right } => {
                let left_rows = self.eval(left);
                let right_rows = self.eval(right);
                let cols: Vec<usize> = (0..node.arity()).collect();
                let index = GroundIndex::build(&right_rows, &cols);
                let mut out = Vec::new();
                for range in morsel_ranges(left_rows.len(), self.morsel) {
                    self.stats.batches += 1;
                    for l in &left_rows[range] {
                        if l.tuple.key_is_complete(&cols) {
                            self.stats.ground_rows += 1;
                        } else {
                            self.stats.symbolic_rows += 1;
                        }
                        let mut membership = Condition::False;
                        for ri in index.candidates(&right_rows, &l.tuple, &cols) {
                            let r = &right_rows[ri as usize];
                            membership = membership.or(r
                                .condition
                                .clone()
                                .and(Condition::tuples_equal(&l.tuple, &r.tuple)));
                        }
                        let cond = l.condition.clone().and(membership);
                        if cond != Condition::False {
                            out.push(ConditionalTuple::new(l.tuple.clone(), cond));
                        }
                    }
                }
                out
            }
            PhysOp::Divide { left, right } => {
                let dividend = self.eval(left);
                let divisor = self.eval(right);
                let prefix_arity = node.arity();
                let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
                let mut out = Vec::new();
                let mut seen_prefixes = BTreeSet::new();
                for row in &dividend {
                    let prefix = row.tuple.project(&prefix_cols);
                    if !seen_prefixes.insert(prefix.clone()) {
                        continue;
                    }
                    // Present iff some dividend row with this prefix is
                    // present, and every present divisor row pairs with it
                    // in the dividend — as in the logical algebra.
                    let mut presence = Condition::False;
                    for u in &dividend {
                        presence = presence.or(u.condition.clone().and(Condition::tuples_equal(
                            &u.tuple.project(&prefix_cols),
                            &prefix,
                        )));
                    }
                    let mut universal = Condition::True;
                    for s in &divisor {
                        let combined = prefix.concat(&s.tuple);
                        let mut exists = Condition::False;
                        for u in &dividend {
                            exists = exists.or(u
                                .condition
                                .clone()
                                .and(Condition::tuples_equal(&u.tuple, &combined)));
                        }
                        universal = universal.and(s.condition.clone().negate().or(exists));
                    }
                    out.push(ConditionalTuple::new(prefix, presence.and(universal)));
                }
                out
            }
        }
    }

    /// The Δ table, computed once per execution: one `(v, v)` row per value
    /// occurring in the database, gated by the condition of a row containing
    /// it — as in the logical algebra.
    fn delta(&mut self) -> &[ConditionalTuple] {
        if self.delta.is_none() {
            let mut out = Vec::new();
            let mut seen: BTreeSet<(Value, Condition)> = BTreeSet::new();
            for (_, table) in self.cdb.iter() {
                for row in table.rows() {
                    for v in row.tuple.values() {
                        let key = (v.clone(), row.condition.clone());
                        if seen.insert(key) {
                            out.push(ConditionalTuple::new(
                                Tuple::new(vec![v.clone(), v.clone()]),
                                row.condition.clone(),
                            ));
                        }
                    }
                }
            }
            self.delta = Some(out);
        }
        self.delta.as_deref().expect("just initialised")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctables::algebra::eval_ctable_unchecked;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::valuation::ValuationEnumerator;
    use relmodel::value::Constant;
    use relmodel::{Database, DatabaseBuilder};

    fn db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .relation("U", &["b"])
            .ints("R", &[1, 10])
            .tuple("R", vec![Value::int(2), Value::null(0)])
            .ints("S", &[10, 100])
            .tuple("S", vec![Value::null(0), Value::int(200)])
            .tuple("U", vec![Value::null(1)])
            .ints("U", &[10])
            .build()
    }

    /// Semantic equality against the logical algebra: identical
    /// instantiations under every valuation over an adequate domain.
    /// (Structural equality is too strong — the executor prunes rows and
    /// terms whose conditions the logical algebra only discharges in its
    /// final `simplify()`, and condition trees are order-sensitive.)
    fn assert_matches_logical_reference(expr: &RaExpr, morsel: usize) {
        let d = db();
        let cdb = ConditionalDatabase::from_database(&d);
        let plan = PlannedQuery::new(expr.clone(), d.schema()).unwrap();
        let (batched, _) = execute_ctable_counted_with_morsel(plan.physical(), &cdb, morsel);
        let reference = eval_ctable_unchecked(expr, &cdb);
        let mut nulls = cdb.null_ids();
        nulls.extend(batched.null_ids());
        nulls.extend(reference.null_ids());
        let domain = cdb.adequate_domain(&batched.constants(), 2);
        let mut checked = 0usize;
        for v in ValuationEnumerator::new(nulls, domain) {
            assert_eq!(
                batched.instantiate(&v),
                reference.instantiate(&v),
                "instantiations diverge for {expr} (morsel {morsel}) at {v:?}"
            );
            checked += 1;
        }
        assert!(checked > 0, "no valuations enumerated for {expr}");
    }

    #[test]
    fn every_operator_matches_the_logical_algebra_across_morsel_sizes() {
        let r = RaExpr::relation("R");
        let join = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let cases = vec![
            r.clone(),
            r.clone().project(vec![1]),
            r.clone()
                .select(Predicate::neq(Operand::col(1), Operand::int(10))),
            join.clone(),
            join.clone().project(vec![0, 3]),
            r.clone().project(vec![1]).union(RaExpr::relation("U")),
            r.clone().project(vec![1]).difference(RaExpr::relation("U")),
            r.clone()
                .project(vec![1])
                .intersection(RaExpr::relation("U")),
            r.clone().divide(RaExpr::relation("U")),
            RaExpr::Delta.project(vec![0]),
            join.project(vec![0]).difference(r.clone().project(vec![0])),
        ];
        for q in cases {
            for morsel in [1, 3, 1024] {
                assert_matches_logical_reference(&q, morsel);
            }
        }
    }

    #[test]
    fn hash_join_emits_conditions_for_null_keys() {
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let d = db();
        let cdb = ConditionalDatabase::from_database(&d);
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let (out, stats) = execute_ctable_counted(plan.physical(), &cdb);
        assert!(stats.hash_joins >= 1);
        assert_eq!(stats.ground_rows, 1, "R(1,10) probes the ground run");
        assert_eq!(stats.symbolic_rows, 1, "R(2,⊥0) takes the fallback");
        assert!(stats.fallback_pairs > 0);
        // R(2,⊥0) joins S(10,100) under the condition ⊥0 = 10.
        assert!(out.rows().iter().any(|r| {
            r.tuple.values()[0] == Value::int(2)
                && r.condition == Condition::eq(Value::null(0), Value::int(10))
        }));
    }

    #[test]
    fn global_condition_is_propagated_like_the_logical_entry_point() {
        let schema = relmodel::Schema::builder().relation("R", &["a"]).build();
        let rel = relmodel::Relation::from_tuples(1, vec![Tuple::ints(&[1])]);
        let mut cdb = ConditionalDatabase::new(schema.clone());
        cdb.set_table("R", ConditionalTable::from_relation(&rel));
        let cdb = cdb.with_global(Condition::eq(Value::null(0), Value::int(0)));
        let plan = PlannedQuery::new(RaExpr::relation("R"), &schema).unwrap();
        let answer = execute_ctable(plan.physical(), &cdb);
        let at = |c: i64| {
            relmodel::Valuation::from_pairs(vec![(relmodel::value::NullId(0), Constant::Int(c))])
        };
        assert!(answer.instantiate(&at(7)).is_empty(), "⊥0 = 7 violates it");
        assert_eq!(answer.instantiate(&at(0)).len(), 1);
        let logical = eval_ctable_unchecked(&RaExpr::relation("R"), &cdb);
        for c in [0, 7] {
            assert_eq!(answer.instantiate(&at(c)), logical.instantiate(&at(c)));
        }
    }
}
