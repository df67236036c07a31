//! Shard-scoped **split execution**: the batched core of the enumeration
//! folds (worlds and repairs), where one physical plan is evaluated for
//! thousands of *elements* (possible worlds / subset repairs) that differ
//! from each other in only a handful of rows.
//!
//! A world is the complete rows of each relation (invariant across every
//! valuation) plus a small valuation-dependent remainder — the valued
//! null-bearing rows and any OWA extension tuples. A repair is the conflict-free core (invariant) plus the
//! included conflict vertices — a tuple-survival mask over the vertex batch.
//! [`ShardExec`] exploits that shape: every node of the plan evaluates to a
//! [`Split`] — a **stable** batch equal across all elements of the shard and
//! a per-element **volatile** remainder — under the set contract
//!
//! > `stable ∪ volatile  ==  plain-executor result`, as sets.
//!
//! Duplicates between (or within) the two parts are permitted: every
//! columnar kernel is duplicate-tolerant and the root conversion to
//! [`Relation`](relmodel::Relation) merges. Stable results, and the hash
//! tables over them (join build sides, membership tables), are computed for
//! the **first** element and reused by every later element of the shard —
//! [`crate::exec::OpStats::tables_built`] / `tables_reused` count exactly
//! this — so the marginal cost of an element is proportional to its volatile
//! rows, not to the database.
//!
//! Every plain evaluation here goes through the columnar executor's one
//! operator table (its `apply`, see [`super`]); this module holds only the shard's
//! leaves, its caches and the incremental rules. Per-operator decomposition
//! (`L = Ls ∪ Lv`, `R = Rs ∪ Rv`):
//!
//! * fully static subtrees (ground-only scans, literals) evaluate **once**
//!   through the table, volatile permanently empty;
//! * monotone operators (σ, π, ×, ⋈, ∪, ∩) distribute over the union of
//!   parts, so `stable′ = op(Ls, Rs)` is the table's result, cached per
//!   node, and only the volatile terms run per element: σ and π of `Lv`
//!   through the table, and the cross terms of ×, ⋈, ∪ and ∩ against the
//!   cached tables over the stable parts;
//! * `−` caches `Ls ∖ Rs` only when the right subtree is **static**
//!   (provably element-invariant), and probes `Lv` against the cached
//!   table over `Rs`; otherwise the node evaluates plainly per element,
//!   through the table, over the concatenated parts;
//! * `÷` is monotone in neither argument's parts in a cacheable way, so a
//!   non-static division always evaluates plainly (its subtrees still
//!   benefit from caching).

use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;
use std::sync::Arc;

use relalgebra::physical::{PhysNode, PhysOp};
use relmodel::batch::ColumnBatch;
use relmodel::value::{Constant, Value};

use super::{
    append_product, apply, build_key_table, gathered, in_table, key_columns, member_rows, operands,
    probe_join, residual_ok, syntactic_join, RowTable,
};
use crate::exec::OpStats;

/// One node's result for one element: the shard-invariant rows plus this
/// element's remainder. `stable ∪ volatile` equals the plain executor's
/// result **as a set**; overlaps between the parts are allowed and collapse
/// at the root conversion.
#[derive(Debug, Clone)]
pub struct Split {
    /// Rows identical across every element of the shard (computed once and
    /// cached; cheap `Arc` handle).
    pub stable: Arc<ColumnBatch>,
    /// This element's rows beyond the stable part.
    pub volatile: Arc<ColumnBatch>,
}

impl Split {
    /// Is the element's full result empty?
    pub fn is_empty(&self) -> bool {
        self.stable.is_empty() && self.volatile.is_empty()
    }
}

/// The shard-invariant leaf data a [`ShardExec`] is constructed over.
#[derive(Debug)]
pub struct ShardSetup {
    /// Relation name → its element-invariant rows: the complete rows for
    /// worlds, the conflict-free core's complete rows for repairs.
    stable_scans: HashMap<String, Arc<ColumnBatch>>,
    /// Relation name → is the relation **identical** in every element of
    /// the shard (no symbolic rows, no OWA extension candidates, no
    /// conflict vertices)?
    static_scans: HashMap<String, bool>,
    /// The element-invariant part of the Δ diagonal (one `(c, c)` row per
    /// base constant — base constants survive into every element).
    stable_delta: Arc<ColumnBatch>,
    /// Is Δ invariant across elements (no element ever contributes a
    /// constant beyond the base ones)?
    static_delta: bool,
}

impl ShardSetup {
    /// The leaf data of one shard. `scans` lists each relation's
    /// element-invariant rows, which the shards of a fold share, and
    /// whether the relation is static. `delta`
    /// holds the constants every element shares, and whether Δ is static,
    /// for a plan that reads Δ ([`relalgebra::physical::reads_delta`]);
    /// a plan that does not passes `None`, and neither the shard nor its
    /// elements build any Δ rows.
    pub fn new(
        scans: impl IntoIterator<Item = (String, Arc<ColumnBatch>, bool)>,
        delta: Option<(&BTreeSet<Constant>, bool)>,
    ) -> ShardSetup {
        let mut stable_scans = HashMap::new();
        let mut static_scans = HashMap::new();
        for (name, batch, is_static) in scans {
            static_scans.insert(name.clone(), is_static);
            stable_scans.insert(name, batch);
        }
        let mut stable_delta = ColumnBatch::new(2);
        for c in delta.iter().flat_map(|(constants, _)| constants.iter()) {
            stable_delta.push_row([Value::Const(c.clone()), Value::Const(c.clone())]);
        }
        ShardSetup {
            stable_scans,
            static_scans,
            stable_delta: Arc::new(stable_delta),
            static_delta: delta.is_none_or(|(_, is_static)| is_static),
        }
    }
}

/// Per-element leaf data: each relation's volatile remainder and Δ's extra
/// diagonal rows. Maps are borrowed so the enumeration loop can refill one
/// set of scratch batches per element.
#[derive(Debug)]
pub struct ElementInput<'e> {
    /// Relation name → this element's extra rows (valuation images of the
    /// symbolic rows, OWA extension tuples, included conflict vertices).
    /// A missing name means no extra rows.
    pub volatile_scans: &'e HashMap<String, Arc<ColumnBatch>>,
    /// This element's extra Δ diagonal rows (constants introduced by the
    /// valuation / extensions / included vertices, minus the base ones).
    pub volatile_delta: &'e Arc<ColumnBatch>,
}

#[derive(Default)]
struct NodeCache {
    /// The node's stable result (first-element computation).
    stable: Option<Arc<ColumnBatch>>,
    /// Full-row membership table over the node's stable result.
    full_table: Option<Arc<RowTable>>,
    /// Key-column tables over the node's stable result (join build sides).
    key_tables: Vec<(Vec<usize>, Arc<RowTable>)>,
}

/// The split executor for one enumeration shard: construct once per worker,
/// call [`ShardExec::eval_subtree`] once per world/repair. All caches are
/// keyed by plan-node address: every node it evaluates outlives the
/// executor (`'p`), so addresses are stable identities.
pub struct ShardExec<'p> {
    setup: ShardSetup,
    morsel: usize,
    caches: HashMap<usize, NodeCache>,
    statics: HashMap<usize, bool>,
    empties: HashMap<usize, Arc<ColumnBatch>>,
    nodes: PhantomData<&'p PhysNode>,
    /// Operator telemetry accumulated across every element of the shard.
    pub stats: OpStats,
}

impl<'p> ShardExec<'p> {
    /// A fresh executor over one shard's invariant leaf data.
    pub fn new(morsel: usize, setup: ShardSetup) -> Self {
        ShardExec {
            setup,
            morsel: morsel.max(1),
            caches: HashMap::new(),
            statics: HashMap::new(),
            empties: HashMap::new(),
            nodes: PhantomData,
            stats: OpStats::default(),
        }
    }

    /// Evaluates one subtree of a plan for one element, the root included.
    /// The returned split's `stable` part is the same batch for every
    /// element of the shard. A fold that needs the two sides of a root
    /// difference on their own evaluates each through one executor. Every
    /// node passed must belong to the one plan the executor serves, since
    /// caches are keyed by node address.
    pub fn eval_subtree(&mut self, node: &'p PhysNode, elem: &ElementInput<'_>) -> Split {
        self.eval(node, elem)
    }

    fn key(node: &PhysNode) -> usize {
        node as *const PhysNode as usize
    }

    fn empty(&mut self, arity: usize) -> Arc<ColumnBatch> {
        Arc::clone(
            self.empties
                .entry(arity)
                .or_insert_with(|| Arc::new(ColumnBatch::new(arity))),
        )
    }

    fn cached_stable(&self, key: usize) -> Option<Arc<ColumnBatch>> {
        self.caches.get(&key).and_then(|c| c.stable.clone())
    }

    fn store_stable(&mut self, key: usize, batch: Arc<ColumnBatch>) -> Arc<ColumnBatch> {
        self.caches.entry(key).or_default().stable = Some(Arc::clone(&batch));
        batch
    }

    /// The cached full-row membership table over a node's stable result.
    fn full_table(&mut self, node_key: usize, batch: &ColumnBatch) -> Arc<RowTable> {
        if let Some(t) = self
            .caches
            .get(&node_key)
            .and_then(|c| c.full_table.clone())
        {
            self.stats.tables_reused += 1;
            return t;
        }
        let all: Vec<usize> = (0..batch.arity()).collect();
        self.stats.tables_built += 1;
        self.stats.build_rows += batch.len();
        let t = Arc::new(build_key_table(batch, &all));
        self.caches.entry(node_key).or_default().full_table = Some(Arc::clone(&t));
        t
    }

    /// The cached key-column table over a node's stable result.
    fn key_table(&mut self, node_key: usize, batch: &ColumnBatch, cols: &[usize]) -> Arc<RowTable> {
        if let Some(cache) = self.caches.get(&node_key) {
            if let Some((_, t)) = cache.key_tables.iter().find(|(k, _)| k == cols) {
                self.stats.tables_reused += 1;
                return Arc::clone(t);
            }
        }
        self.stats.tables_built += 1;
        self.stats.build_rows += batch.len();
        let t = Arc::new(build_key_table(batch, cols));
        self.caches
            .entry(node_key)
            .or_default()
            .key_tables
            .push((cols.to_vec(), Arc::clone(&t)));
        t
    }

    /// Is the node's whole subtree element-invariant?
    fn is_static(&mut self, node: &'p PhysNode) -> bool {
        let key = Self::key(node);
        if let Some(&s) = self.statics.get(&key) {
            return s;
        }
        let s = match node.op() {
            PhysOp::Scan(name) => self
                .setup
                .static_scans
                .get(name.as_str())
                .copied()
                .unwrap_or(false),
            PhysOp::Values(_) => true,
            PhysOp::Delta => self.setup.static_delta,
            op => {
                let (left, right) = operands(op);
                self.is_static(left) && right.is_none_or(|right| self.is_static(right))
            }
        };
        self.statics.insert(key, s);
        s
    }

    /// A static subtree's one result, from the stable leaves: evaluated
    /// once per shard through [`apply`], then cached.
    fn eval_static(&mut self, node: &'p PhysNode) -> Arc<ColumnBatch> {
        let key = Self::key(node);
        if let Some(b) = self.cached_stable(key) {
            return b;
        }
        self.stats.operators += 1;
        let out = match node.op() {
            PhysOp::Scan(name) => Arc::clone(
                self.setup
                    .stable_scans
                    .get(name.as_str())
                    .expect("shard setup covers every scanned relation"),
            ),
            PhysOp::Values(rel) => Arc::new(ColumnBatch::from_relation(rel)),
            PhysOp::Delta => Arc::clone(&self.setup.stable_delta),
            op => {
                let (left, right) = operands(op);
                let l = self.eval_static(left);
                let r = right.map(|right| self.eval_static(right));
                apply(node, l, r.as_deref(), self.morsel, &mut self.stats)
            }
        };
        self.store_stable(key, out)
    }

    fn eval(&mut self, node: &'p PhysNode, elem: &ElementInput<'_>) -> Split {
        if self.is_static(node) {
            let stable = self.eval_static(node);
            let volatile = self.empty(node.arity());
            return Split { stable, volatile };
        }
        self.stats.operators += 1;
        let arity = node.arity();
        let (left, right) = match node.op() {
            PhysOp::Scan(name) => {
                let stable = self.setup.stable_scans.get(name.as_str()).cloned();
                let volatile = elem.volatile_scans.get(name.as_str()).cloned();
                return Split {
                    stable: stable.unwrap_or_else(|| self.empty(arity)),
                    volatile: volatile.unwrap_or_else(|| self.empty(arity)),
                };
            }
            PhysOp::Values(_) => unreachable!("Values subtrees are static"),
            PhysOp::Delta => {
                return Split {
                    stable: Arc::clone(&self.setup.stable_delta),
                    volatile: Arc::clone(elem.volatile_delta),
                }
            }
            op => operands(op),
        };
        let l = self.eval(left, elem);
        let r = right.map(|right| self.eval(right, elem));
        let per_element = match node.op() {
            PhysOp::Divide { .. } => true,
            PhysOp::Difference { right, .. } => !self.is_static(right),
            _ => false,
        };
        if per_element {
            // ÷, and − by a subtrahend that varies per element, have no
            // cacheable parts: the node evaluates plainly (its children
            // still serve their cached parts).
            let r = r.map(|r| concat(&r.stable, &r.volatile));
            let l = concat(&l.stable, &l.volatile);
            let volatile = apply(node, l, r.as_deref(), self.morsel, &mut self.stats);
            return Split {
                stable: self.empty(arity),
                volatile,
            };
        }
        let key = Self::key(node);
        let stable = match self.cached_stable(key) {
            Some(s) => s,
            None => {
                let rs = r.as_ref().map(|r| r.stable.as_ref());
                let s = apply(
                    node,
                    Arc::clone(&l.stable),
                    rs,
                    self.morsel,
                    &mut self.stats,
                );
                self.store_stable(key, s)
            }
        };
        let volatile = self.volatile(node, &l, r.as_ref());
        Split { stable, volatile }
    }

    /// The incremental rules: this element's rows of a node whose stable
    /// part is the operator over its inputs' stable parts (`Ls`, `Rs`),
    /// from the volatile parts (`Lv`, `Rv`) and the cached tables over the
    /// stable ones.
    fn volatile(&mut self, node: &'p PhysNode, l: &Split, r: Option<&Split>) -> Arc<ColumnBatch> {
        let arity = node.arity();
        if l.volatile.is_empty() && r.is_none_or(|r| r.volatile.is_empty()) {
            return self.empty(arity);
        }
        let Some(r) = r else {
            // σ and π distribute over the parts.
            let lv = Arc::clone(&l.volatile);
            return apply(node, lv, None, self.morsel, &mut self.stats);
        };
        let morsel = self.morsel;
        match node.op() {
            PhysOp::NestedProduct { .. } => {
                let mut out = ColumnBatch::new(arity);
                let terms = [
                    (&l.stable, &r.volatile),
                    (&l.volatile, &r.stable),
                    (&l.volatile, &r.volatile),
                ];
                for (a, b) in terms {
                    if !a.is_empty() && !b.is_empty() {
                        append_product(&mut out, a, b, morsel, &mut self.stats);
                    }
                }
                Arc::new(out)
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let (left_cols, right_cols) = key_columns(keys);
                let cols = (&left_cols[..], &right_cols[..]);
                let (ls, lv, rs, rv) = (&l.stable, &l.volatile, &r.stable, &r.volatile);
                let mut out = ColumnBatch::new(arity);
                // Ls ⋈ Rv and Lv ⋈ Rs probe the cached key table over the
                // stable side.
                if !rv.is_empty() && !ls.is_empty() {
                    let table = self.key_table(Self::key(left), ls, &left_cols);
                    let keep = residual_ok(residual, ls, rv);
                    probe_join(
                        &mut out,
                        ls,
                        rv,
                        cols,
                        true,
                        &table,
                        keep,
                        morsel,
                        &mut self.stats,
                    );
                }
                if !lv.is_empty() && !rs.is_empty() {
                    let table = self.key_table(Self::key(right), rs, &right_cols);
                    let keep = residual_ok(residual, lv, rs);
                    probe_join(
                        &mut out,
                        lv,
                        rs,
                        cols,
                        false,
                        &table,
                        keep,
                        morsel,
                        &mut self.stats,
                    );
                }
                self.stats.join_rows_out += out.len();
                // Lv ⋈ Rv: both tiny; the ordinary kernel suffices (and
                // counts its own output rows).
                if !lv.is_empty() && !rv.is_empty() {
                    let keep = residual_ok(residual, lv, rv);
                    out.append(&syntactic_join(lv, rv, keys, keep, morsel, &mut self.stats));
                }
                Arc::new(out)
            }
            PhysOp::Union { .. } => concat(&l.volatile, &r.volatile),
            PhysOp::Difference { right, .. } => {
                // Rs is the complete right result in every element:
                // L ∖ R = (Ls ∖ Rs) ∪ (Lv ∖ Rs).
                if r.stable.is_empty() {
                    return Arc::clone(&l.volatile);
                }
                let table = self.full_table(Self::key(right), &r.stable);
                let lv = &l.volatile;
                let keep = member_rows(lv, false, &mut self.stats, |row| {
                    in_table(&r.stable, &table, lv, row)
                });
                gathered(lv, keep)
            }
            PhysOp::Intersect { left, right } => {
                let (ls, lv, rs, rv) = (&l.stable, &l.volatile, &r.stable, &r.volatile);
                let mut out = ColumnBatch::new(arity);
                // Lv rows present anywhere in R = Rs ∪ Rv.
                if !lv.is_empty() {
                    let rs_table = (!rs.is_empty()).then(|| self.full_table(Self::key(right), rs));
                    let keep = member_rows(lv, true, &mut self.stats, |row| {
                        rs_table.as_ref().is_some_and(|t| in_table(rs, t, lv, row))
                            || (0..rv.len()).any(|vr| rv.rows_equal(vr, lv, row))
                    });
                    lv.gather_into(&keep, &mut out);
                }
                // Rv rows present in Ls (Rv ∩ Lv is already covered).
                if !rv.is_empty() && !ls.is_empty() {
                    let ls_table = self.full_table(Self::key(left), ls);
                    let keep = member_rows(rv, true, &mut self.stats, |row| {
                        in_table(ls, &ls_table, rv, row)
                    });
                    rv.gather_into(&keep, &mut out);
                }
                Arc::new(out)
            }
            _ => unreachable!("÷, − by a varying subtrahend, σ, π and leaves are handled above"),
        }
    }
}

/// `a` then `b` as one batch: either part itself when the other is empty,
/// otherwise a fresh concatenation.
fn concat(a: &Arc<ColumnBatch>, b: &Arc<ColumnBatch>) -> Arc<ColumnBatch> {
    if b.is_empty() {
        Arc::clone(a)
    } else if a.is_empty() {
        Arc::clone(b)
    } else {
        let mut out = a.as_ref().clone();
        out.append(b);
        Arc::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::columnar::execute_counted_with_morsel;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::{Database, DatabaseBuilder, Relation, Tuple};

    /// One table of operators: every operator, static and volatile inputs
    /// on either side, the per-element plain paths (÷, − by a varying
    /// subtrahend) and the leaves (`Values`, Δ).
    fn cases() -> Vec<RaExpr> {
        let (r, s, u) = (
            RaExpr::relation("R"),
            RaExpr::relation("S"),
            RaExpr::relation("U"),
        );
        let join = |l: RaExpr, r: RaExpr| {
            l.product(r)
                .select(Predicate::eq(Operand::col(1), Operand::col(2)))
        };
        vec![
            // × σ π ∪ Values, − by a static right side.
            join(r.clone(), s.clone())
                .project(vec![0, 3])
                .union(RaExpr::values(Relation::from_tuples(
                    2,
                    vec![Tuple::ints(&[7, 7])],
                )))
                .difference(s.clone()),
            r.clone().product(u.clone()),
            r.clone()
                .select(Predicate::neq(Operand::col(0), Operand::int(2)))
                .project(vec![1]),
            // ⋈ with a residual and the volatile side left, then right;
            // ⋈ with both sides volatile.
            r.clone().product(s.clone()).select(
                Predicate::eq(Operand::col(1), Operand::col(2))
                    .and(Predicate::neq(Operand::col(0), Operand::col(3))),
            ),
            s.clone().product(r.clone()).select(
                Predicate::eq(Operand::col(1), Operand::col(2))
                    .and(Predicate::neq(Operand::col(0), Operand::col(3))),
            ),
            join(r.clone(), r.clone()),
            // ∩ with the volatile side left, right, and on both sides.
            r.clone().project(vec![1]).intersection(u.clone()),
            u.clone().intersection(r.clone().project(vec![1])),
            r.clone().intersection(
                r.clone()
                    .select(Predicate::neq(Operand::col(0), Operand::int(2))),
            ),
            // − by a static, then by a volatile right side.
            r.clone().difference(s.clone()),
            s.clone().difference(r.clone()),
            // ÷ volatile, and a static ÷ under a volatile ∪.
            r.clone().divide(u.clone()),
            s.clone()
                .divide(u.clone())
                .union(r.clone().project(vec![0])),
            // Δ: the base constants plus the element's own.
            RaExpr::Delta.union(r.clone()),
            join(RaExpr::Delta, s.clone()),
        ]
    }

    fn base() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .relation("U", &["b"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("S", &[10, 100])
            .ints("S", &[20, 200])
            .ints("U", &[10])
            .ints("U", &[20])
            .ints("U", &[30])
            .build()
    }

    /// A shard over `db` whose relations are static as `is_static` says;
    /// Δ is static iff every relation is.
    fn setup(db: &Database, is_static: impl Fn(&str) -> bool) -> ShardSetup {
        let all_static = db.iter().all(|(name, _)| is_static(name));
        let constants = db.constants();
        ShardSetup::new(
            db.iter().map(|(name, rel)| {
                let batch = Arc::new(ColumnBatch::from_relation(rel));
                (name.to_owned(), batch, is_static(name))
            }),
            Some((&constants, all_static)),
        )
    }

    /// One element's leaf data: `rows` added to R, no Δ rows.
    fn r_rows(rows: &[[i64; 2]]) -> HashMap<String, Arc<ColumnBatch>> {
        let tuples: Vec<Tuple> = rows.iter().map(|row| Tuple::ints(row)).collect();
        let batch = Arc::new(ColumnBatch::from_rows(2, tuples.iter()));
        HashMap::from([("R".to_owned(), batch)])
    }

    /// A join counts each output row once: after the first element (which
    /// also builds the stable part), an element's `join_rows_out` is its
    /// volatile row count, whichever cross terms (Ls ⋈ Rv, Lv ⋈ Rs,
    /// Lv ⋈ Rv) the rows came from.
    #[test]
    fn join_rows_out_counts_each_volatile_row_once() {
        let base = base();
        let r = RaExpr::relation("R");
        let q = r
            .clone()
            .product(r)
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let plan = PlannedQuery::new(q, base.schema()).unwrap();
        assert!(matches!(
            plan.physical().root().op(),
            PhysOp::HashJoin { .. }
        ));
        let mut exec = ShardExec::new(2, setup(&base, |name| name != "R"));
        let delta = Arc::new(ColumnBatch::new(2));
        // (5,1) joins (1,10) of the stable R and (1,5) of its own
        // element, and (1,5) joins (5,1); (20,2) joins (2,20) both ways.
        let elements: [&[[i64; 2]]; 3] = [&[[3, 30]], &[[5, 1], [1, 5]], &[[20, 2], [2, 2]]];
        for (i, rows) in elements.into_iter().enumerate() {
            let before = exec.stats.join_rows_out;
            let scans = r_rows(rows);
            let split = exec.eval_subtree(
                plan.physical().root(),
                &ElementInput {
                    volatile_scans: &scans,
                    volatile_delta: &delta,
                },
            );
            let stable = if i == 0 { split.stable.len() } else { 0 };
            assert_eq!(
                exec.stats.join_rows_out - before,
                stable + split.volatile.len(),
                "element {rows:?}"
            );
            assert!(i == 0 || split.volatile.len() >= 3, "element {rows:?}");
        }
    }

    /// Elements built by hand over a static S and U and a volatile R: for
    /// every operator of the table, the split executor's `stable ∪
    /// volatile` must equal plain execution over the materialized element,
    /// element by element.
    #[test]
    fn split_matches_plain_execution_per_element() {
        let base = base();
        // Each element adds rows to R: fresh constants, a b in U but not
        // in R (∩ and ÷ change), rows failing and passing each join's
        // residual, a row of S (− changes) and one joining into S.
        let elements: [&[[i64; 2]]; 3] = [
            &[[3, 30]],
            &[[1, 20], [1, 30], [4, 10], [100, 10]],
            &[[10, 100], [2, 10], [2, 30], [10, 10]],
        ];
        for q in cases() {
            let plan = PlannedQuery::new(q.clone(), base.schema()).unwrap();
            let mut exec = ShardExec::new(2, setup(&base, |name| name != "R"));
            for rows in elements {
                let volatile_scans = r_rows(rows);
                let mut world = base.clone();
                for row in rows {
                    world.insert("R", Tuple::ints(row)).unwrap();
                }
                let mut volatile_delta = ColumnBatch::new(2);
                for c in world.constants().difference(&base.constants()) {
                    volatile_delta.push_row([Value::Const(c.clone()), Value::Const(c.clone())]);
                }
                let split = exec.eval_subtree(
                    plan.physical().root(),
                    &ElementInput {
                        volatile_scans: &volatile_scans,
                        volatile_delta: &Arc::new(volatile_delta),
                    },
                );
                let reference = crate::exec::columnar::execute(plan.physical(), &world);
                let mut got = split.stable.to_relation();
                for t in split.volatile.to_relation().iter() {
                    got.insert(t.clone());
                }
                assert_eq!(got, reference, "{q} for element {rows:?}");
            }
            assert!(
                exec.stats.tables_reused > 0 || !plan.physical().has_hash_join(),
                "later elements must hit the cached tables: {q} {:?}",
                exec.stats
            );
        }

        // Every scan static: the split executor runs the shared operator
        // table once, counting exactly what the plain executor counts.
        for q in cases() {
            let plan = PlannedQuery::new(q.clone(), base.schema()).unwrap();
            for morsel in [1, 2, 1024] {
                let mut exec = ShardExec::new(morsel, setup(&base, |_| true));
                let split = exec.eval_subtree(
                    plan.physical().root(),
                    &ElementInput {
                        volatile_scans: &HashMap::new(),
                        volatile_delta: &Arc::new(ColumnBatch::new(2)),
                    },
                );
                let (reference, stats) =
                    execute_counted_with_morsel(plan.physical(), &base, morsel);
                assert!(split.volatile.is_empty());
                assert_eq!(split.stable.to_relation(), reference, "{q}");
                assert_eq!(exec.stats, stats, "{q} at morsel {morsel}");
            }
        }
    }
}
