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
//! Per-operator decomposition (`L = Ls ∪ Lv`, `R = Rs ∪ Rv`):
//!
//! * monotone operators (σ, π, ×, ⋈, ∪, ∩) distribute over the union of
//!   parts, so `stable′ = op(Ls, Rs)` is cached and only the volatile
//!   cross-terms run per element;
//! * `−` caches `Ls ∖ Rs` only when the right subtree is **static**
//!   (provably element-invariant); otherwise the node falls back to plain
//!   per-element evaluation of the concatenated parts;
//! * `÷` is monotone in neither argument's parts in a cacheable way, so a
//!   non-static division always evaluates plainly (its subtrees still
//!   benefit from caching);
//! * fully static subtrees (ground-only scans, literals) evaluate **once**,
//!   volatile permanently empty.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use relalgebra::physical::{PhysNode, PhysOp, PhysicalPlan};
use relalgebra::predicate::Predicate;
use relmodel::batch::{morsel_ranges, ColumnBatch};
use relmodel::value::{Constant, Value};

use super::{
    build_key_table, divide_syntactic, hash_key, membership_keep, product, project_dedup,
    select_rows, syntactic_join, union_batches, RowTable,
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
/// call [`ShardExec::eval_element`] (or [`ShardExec::eval_subtree`]) once
/// per world/repair. All caches are
/// keyed by plan-node address — the plan outlives the executor and its boxed
/// tree never moves, so addresses are stable identities.
pub struct ShardExec<'p> {
    plan: &'p PhysicalPlan,
    setup: ShardSetup,
    morsel: usize,
    caches: HashMap<usize, NodeCache>,
    statics: HashMap<usize, bool>,
    empties: HashMap<usize, Arc<ColumnBatch>>,
    /// Operator telemetry accumulated across every element of the shard.
    pub stats: OpStats,
}

impl<'p> ShardExec<'p> {
    /// A fresh executor over one plan and one shard's invariant leaf data.
    pub fn new(plan: &'p PhysicalPlan, morsel: usize, setup: ShardSetup) -> Self {
        ShardExec {
            plan,
            setup,
            morsel: morsel.max(1),
            caches: HashMap::new(),
            statics: HashMap::new(),
            empties: HashMap::new(),
            stats: OpStats::default(),
        }
    }

    /// Evaluates the plan for one element. The returned split's `stable`
    /// part is the same batch for every element of the shard.
    pub fn eval_element(&mut self, elem: &ElementInput<'_>) -> Split {
        let root: &'p PhysNode = self.plan.root();
        self.eval(root, elem)
    }

    /// Evaluates one subtree of the executor's plan for one element, with
    /// the same caches as [`ShardExec::eval_element`]: a fold that needs
    /// the two sides of a root difference on their own evaluates each
    /// through one executor. `node` must be a node of the plan the
    /// executor was built over, since caches are keyed by node address.
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
            PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => self.is_static(input),
            PhysOp::NestedProduct { left, right }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right }
            | PhysOp::Intersect { left, right }
            | PhysOp::Divide { left, right } => self.is_static(left) && self.is_static(right),
        };
        self.statics.insert(key, s);
        s
    }

    /// Plain evaluation of a static subtree from the stable leaves — runs
    /// once per shard, cached.
    fn eval_static(&mut self, node: &'p PhysNode) -> Arc<ColumnBatch> {
        let key = Self::key(node);
        if let Some(b) = self.cached_stable(key) {
            return b;
        }
        self.stats.operators += 1;
        let out: Arc<ColumnBatch> = match node.op() {
            PhysOp::Scan(name) => Arc::clone(
                self.setup
                    .stable_scans
                    .get(name.as_str())
                    .expect("shard setup covers every scanned relation"),
            ),
            PhysOp::Values(rel) => Arc::new(ColumnBatch::from_relation(rel)),
            PhysOp::Delta => Arc::clone(&self.setup.stable_delta),
            PhysOp::Filter { input, predicate } => {
                let b = self.eval_static(input);
                let keep = select_rows(&b, self.morsel, &mut self.stats, |row| {
                    predicate.eval_naive_on(&|i| b.value(i, row))
                });
                if keep.len() == b.len() {
                    b
                } else {
                    Arc::new(b.gather(&keep))
                }
            }
            PhysOp::Project { input, columns } => {
                let b = self.eval_static(input);
                Arc::new(project_dedup(&b, columns, self.morsel, &mut self.stats))
            }
            PhysOp::NestedProduct { left, right } => {
                let l = self.eval_static(left);
                let r = self.eval_static(right);
                Arc::new(product(&l, &r, self.morsel, &mut self.stats))
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let la = left.arity();
                let l = self.eval_static(left);
                let r = self.eval_static(right);
                let out = syntactic_join(
                    &l,
                    &r,
                    keys,
                    |li, ri| residual_ok(residual, la, &l, li, &r, ri),
                    self.morsel,
                    &mut self.stats,
                );
                Arc::new(out)
            }
            PhysOp::Union { left, right } => {
                let l = self.eval_static(left);
                let r = self.eval_static(right);
                Arc::new(union_batches(&l, &r, self.morsel, &mut self.stats))
            }
            PhysOp::Difference { left, right } => {
                let l = self.eval_static(left);
                let r = self.eval_static(right);
                let keep = membership_keep(&l, &r, false, self.morsel, &mut self.stats);
                Arc::new(l.gather(&keep))
            }
            PhysOp::Intersect { left, right } => {
                let l = self.eval_static(left);
                let r = self.eval_static(right);
                let keep = membership_keep(&l, &r, true, self.morsel, &mut self.stats);
                Arc::new(l.gather(&keep))
            }
            PhysOp::Divide { left, right } => {
                let l = self.eval_static(left);
                let r = self.eval_static(right);
                Arc::new(divide_syntactic(
                    &l,
                    &r,
                    node.arity(),
                    self.morsel,
                    &mut self.stats,
                ))
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
        let key = Self::key(node);
        let arity = node.arity();
        match node.op() {
            PhysOp::Scan(name) => {
                let stable = match self.setup.stable_scans.get(name.as_str()) {
                    Some(b) => Arc::clone(b),
                    None => self.empty(arity),
                };
                let volatile = match elem.volatile_scans.get(name.as_str()) {
                    Some(b) => Arc::clone(b),
                    None => self.empty(arity),
                };
                Split { stable, volatile }
            }
            PhysOp::Values(_) => unreachable!("Values subtrees are static"),
            PhysOp::Delta => Split {
                stable: Arc::clone(&self.setup.stable_delta),
                volatile: Arc::clone(elem.volatile_delta),
            },
            PhysOp::Filter { input, predicate } => {
                let c = self.eval(input, elem);
                let stable = match self.cached_stable(key) {
                    Some(s) => s,
                    None => {
                        let b = &c.stable;
                        let keep = select_rows(b, self.morsel, &mut self.stats, |row| {
                            predicate.eval_naive_on(&|i| b.value(i, row))
                        });
                        let s = if keep.len() == b.len() {
                            Arc::clone(b)
                        } else {
                            Arc::new(b.gather(&keep))
                        };
                        self.store_stable(key, s)
                    }
                };
                let volatile = if c.volatile.is_empty() {
                    self.empty(arity)
                } else {
                    let b = &c.volatile;
                    let keep = select_rows(b, self.morsel, &mut self.stats, |row| {
                        predicate.eval_naive_on(&|i| b.value(i, row))
                    });
                    Arc::new(b.gather(&keep))
                };
                Split { stable, volatile }
            }
            PhysOp::Project { input, columns } => {
                let c = self.eval(input, elem);
                let stable = match self.cached_stable(key) {
                    Some(s) => s,
                    None => {
                        let s = Arc::new(project_dedup(
                            &c.stable,
                            columns,
                            self.morsel,
                            &mut self.stats,
                        ));
                        self.store_stable(key, s)
                    }
                };
                let volatile = if c.volatile.is_empty() {
                    self.empty(arity)
                } else {
                    Arc::new(project_dedup(
                        &c.volatile,
                        columns,
                        self.morsel,
                        &mut self.stats,
                    ))
                };
                Split { stable, volatile }
            }
            PhysOp::NestedProduct { left, right } => {
                let l = self.eval(left, elem);
                let r = self.eval(right, elem);
                let stable = match self.cached_stable(key) {
                    Some(s) => s,
                    None => {
                        let s =
                            Arc::new(product(&l.stable, &r.stable, self.morsel, &mut self.stats));
                        self.store_stable(key, s)
                    }
                };
                let volatile = if l.volatile.is_empty() && r.volatile.is_empty() {
                    self.empty(arity)
                } else {
                    let mut out = ColumnBatch::new(arity);
                    append_product(
                        &mut out,
                        &l.stable,
                        &r.volatile,
                        self.morsel,
                        &mut self.stats,
                    );
                    append_product(
                        &mut out,
                        &l.volatile,
                        &r.stable,
                        self.morsel,
                        &mut self.stats,
                    );
                    append_product(
                        &mut out,
                        &l.volatile,
                        &r.volatile,
                        self.morsel,
                        &mut self.stats,
                    );
                    Arc::new(out)
                };
                Split { stable, volatile }
            }
            PhysOp::HashJoin {
                left,
                right,
                keys,
                residual,
            } => {
                let la = left.arity();
                let l = self.eval(left, elem);
                let r = self.eval(right, elem);
                let stable = match self.cached_stable(key) {
                    Some(s) => s,
                    None => {
                        let (ls, rs) = (&l.stable, &r.stable);
                        let out = syntactic_join(
                            ls,
                            rs,
                            keys,
                            |li, ri| residual_ok(residual, la, ls, li, rs, ri),
                            self.morsel,
                            &mut self.stats,
                        );
                        self.store_stable(key, Arc::new(out))
                    }
                };
                let volatile = if l.volatile.is_empty() && r.volatile.is_empty() {
                    self.empty(arity)
                } else {
                    let left_cols: Vec<usize> = keys.iter().map(|(lc, _)| *lc).collect();
                    let right_cols: Vec<usize> = keys.iter().map(|(_, rc)| *rc).collect();
                    let mut out = ColumnBatch::new(arity);
                    // Ls ⋈ Rv: probe the volatile right rows against the
                    // cached key table over the stable left rows.
                    if !r.volatile.is_empty() && !l.stable.is_empty() {
                        let table = self.key_table(Self::key(left), &l.stable, &left_cols);
                        probe_join(
                            &mut out,
                            &l.stable,
                            &table,
                            &left_cols,
                            true,
                            &r.volatile,
                            &right_cols,
                            residual,
                            la,
                            self.morsel,
                            &mut self.stats,
                        );
                    }
                    // Lv ⋈ Rs, via the cached key table over the stable right.
                    if !l.volatile.is_empty() && !r.stable.is_empty() {
                        let table = self.key_table(Self::key(right), &r.stable, &right_cols);
                        probe_join(
                            &mut out,
                            &r.stable,
                            &table,
                            &right_cols,
                            false,
                            &l.volatile,
                            &left_cols,
                            residual,
                            la,
                            self.morsel,
                            &mut self.stats,
                        );
                    }
                    // Lv ⋈ Rv: both tiny; the ordinary kernel suffices.
                    if !l.volatile.is_empty() && !r.volatile.is_empty() {
                        let (lv, rv) = (&l.volatile, &r.volatile);
                        let small = syntactic_join(
                            lv,
                            rv,
                            keys,
                            |li, ri| residual_ok(residual, la, lv, li, rv, ri),
                            self.morsel,
                            &mut self.stats,
                        );
                        out.append(&small);
                    }
                    self.stats.join_rows_out += out.len();
                    Arc::new(out)
                };
                Split { stable, volatile }
            }
            PhysOp::Union { left, right } => {
                let l = self.eval(left, elem);
                let r = self.eval(right, elem);
                let stable = match self.cached_stable(key) {
                    Some(s) => s,
                    None => {
                        let s = Arc::new(union_batches(
                            &l.stable,
                            &r.stable,
                            self.morsel,
                            &mut self.stats,
                        ));
                        self.store_stable(key, s)
                    }
                };
                let volatile = match (l.volatile.is_empty(), r.volatile.is_empty()) {
                    (true, true) => self.empty(arity),
                    (false, true) => Arc::clone(&l.volatile),
                    (true, false) => Arc::clone(&r.volatile),
                    (false, false) => {
                        let mut out = l.volatile.as_ref().clone();
                        out.append(&r.volatile);
                        Arc::new(out)
                    }
                };
                Split { stable, volatile }
            }
            PhysOp::Difference { left, right } => {
                let right_static = self.is_static(right);
                let l = self.eval(left, elem);
                let r = self.eval(right, elem);
                if right_static {
                    // Rs is the complete right result in every element:
                    // L ∖ R = (Ls ∖ Rs) ∪ (Lv ∖ Rs).
                    let stable = match self.cached_stable(key) {
                        Some(s) => s,
                        None => {
                            let keep = membership_keep(
                                &l.stable,
                                &r.stable,
                                false,
                                self.morsel,
                                &mut self.stats,
                            );
                            let s = Arc::new(l.stable.gather(&keep));
                            self.store_stable(key, s)
                        }
                    };
                    let volatile = if l.volatile.is_empty() {
                        self.empty(arity)
                    } else if r.stable.is_empty() {
                        Arc::clone(&l.volatile)
                    } else {
                        let table = self.full_table(Self::key(right), &r.stable);
                        let lv = &l.volatile;
                        let all: Vec<usize> = (0..lv.arity()).collect();
                        self.stats.ground_rows += lv.len();
                        let mut keep = Vec::new();
                        for row in 0..lv.len() {
                            let h = hash_key(lv, &all, row);
                            let member = table
                                .probe(h)
                                .any(|rr| r.stable.rows_equal(rr as usize, lv, row));
                            if !member {
                                keep.push(row as u32);
                            }
                        }
                        Arc::new(lv.gather(&keep))
                    };
                    Split { stable, volatile }
                } else {
                    // The subtrahend varies per element: evaluate this node
                    // plainly (children still serve their cached parts).
                    let lf = concat_split(&l);
                    let rf = concat_split(&r);
                    let keep = membership_keep(&lf, &rf, false, self.morsel, &mut self.stats);
                    Split {
                        stable: self.empty(arity),
                        volatile: Arc::new(lf.gather(&keep)),
                    }
                }
            }
            PhysOp::Intersect { left, right } => {
                let l = self.eval(left, elem);
                let r = self.eval(right, elem);
                let stable = match self.cached_stable(key) {
                    Some(s) => s,
                    None => {
                        let keep = membership_keep(
                            &l.stable,
                            &r.stable,
                            true,
                            self.morsel,
                            &mut self.stats,
                        );
                        let s = Arc::new(l.stable.gather(&keep));
                        self.store_stable(key, s)
                    }
                };
                let volatile = if l.volatile.is_empty() && r.volatile.is_empty() {
                    self.empty(arity)
                } else {
                    let mut out = ColumnBatch::new(arity);
                    // Lv rows present anywhere in R = Rs ∪ Rv.
                    if !l.volatile.is_empty() {
                        let rs_table = (!r.stable.is_empty())
                            .then(|| self.full_table(Self::key(right), &r.stable));
                        let lv = &l.volatile;
                        let all: Vec<usize> = (0..lv.arity()).collect();
                        self.stats.ground_rows += lv.len();
                        let mut keep = Vec::new();
                        for row in 0..lv.len() {
                            let h = hash_key(lv, &all, row);
                            let in_rs = rs_table.as_ref().is_some_and(|t| {
                                t.probe(h)
                                    .any(|rr| r.stable.rows_equal(rr as usize, lv, row))
                            });
                            let member = in_rs
                                || (0..r.volatile.len())
                                    .any(|vr| r.volatile.rows_equal(vr, lv, row));
                            if member {
                                keep.push(row as u32);
                            }
                        }
                        lv.gather_into(&keep, &mut out);
                    }
                    // Rv rows present in Ls (Rv ∩ Lv is already covered).
                    if !r.volatile.is_empty() && !l.stable.is_empty() {
                        let ls_table = self.full_table(Self::key(left), &l.stable);
                        let rv = &r.volatile;
                        let all: Vec<usize> = (0..rv.arity()).collect();
                        self.stats.ground_rows += rv.len();
                        let mut keep = Vec::new();
                        for row in 0..rv.len() {
                            let h = hash_key(rv, &all, row);
                            let member = ls_table
                                .probe(h)
                                .any(|lr| l.stable.rows_equal(lr as usize, rv, row));
                            if member {
                                keep.push(row as u32);
                            }
                        }
                        rv.gather_into(&keep, &mut out);
                    }
                    Arc::new(out)
                };
                Split { stable, volatile }
            }
            PhysOp::Divide { left, right } => {
                let l = self.eval(left, elem);
                let r = self.eval(right, elem);
                let lf = concat_split(&l);
                let rf = concat_split(&r);
                let out = divide_syntactic(&lf, &rf, arity, self.morsel, &mut self.stats);
                Split {
                    stable: self.empty(arity),
                    volatile: Arc::new(out),
                }
            }
        }
    }
}

/// An element's full result: stable when the volatile part is empty,
/// otherwise a fresh concatenation.
fn concat_split(s: &Split) -> Arc<ColumnBatch> {
    if s.volatile.is_empty() {
        Arc::clone(&s.stable)
    } else if s.stable.is_empty() {
        Arc::clone(&s.volatile)
    } else {
        let mut out = s.stable.as_ref().clone();
        out.append(&s.volatile);
        Arc::new(out)
    }
}

fn residual_ok(
    residual: &Option<Predicate>,
    la: usize,
    l: &ColumnBatch,
    li: usize,
    r: &ColumnBatch,
    ri: usize,
) -> bool {
    residual.as_ref().is_none_or(|p| {
        p.eval_naive_on(&|i| {
            if i < la {
                l.value(i, li)
            } else {
                r.value(i - la, ri)
            }
        })
    })
}

/// Appends the full cross product `l × r` onto `out`.
fn append_product(
    out: &mut ColumnBatch,
    l: &ColumnBatch,
    r: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
) {
    if l.is_empty() || r.is_empty() {
        return;
    }
    for range in morsel_ranges(l.len(), morsel) {
        stats.batches += 1;
        for li in range {
            for ri in 0..r.len() {
                out.push_concat(l, li, r, ri);
            }
        }
    }
}

/// Probes `probe`'s rows against a prebuilt key table over `build`, emitting
/// concatenated left-then-right rows that pass the residual. `build_is_left`
/// says which side of the output the build batch occupies.
#[allow(clippy::too_many_arguments)]
fn probe_join(
    out: &mut ColumnBatch,
    build: &ColumnBatch,
    table: &RowTable,
    build_cols: &[usize],
    build_is_left: bool,
    probe: &ColumnBatch,
    probe_cols: &[usize],
    residual: &Option<Predicate>,
    la: usize,
    morsel: usize,
    stats: &mut OpStats,
) {
    stats.hash_joins += 1;
    stats.probe_rows += probe.len();
    stats.ground_rows += probe.len();
    for range in morsel_ranges(probe.len(), morsel) {
        stats.batches += 1;
        for prow in range {
            let h = hash_key(probe, probe_cols, prow);
            for brow in table.probe(h) {
                let brow = brow as usize;
                if !build.keys_equal(brow, build_cols, probe, prow, probe_cols) {
                    continue;
                }
                let (lb, li, rb, ri) = if build_is_left {
                    (build, brow, probe, prow)
                } else {
                    (probe, prow, build, brow)
                };
                if residual_ok(residual, la, lb, li, rb, ri) {
                    out.push_concat(lb, li, rb, ri);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::{Database, DatabaseBuilder, Relation, Tuple};

    /// Two "elements" built by hand over R(a,b) ⋈ S(b,c) shapes: the split
    /// executor's `stable ∪ volatile` must equal plain execution over the
    /// equivalent fully-materialized database, element by element.
    #[test]
    fn split_matches_plain_execution_per_element() {
        let base = DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("S", &[10, 100])
            .ints("S", &[20, 200])
            .build();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)))
            .project(vec![0, 3])
            .union(RaExpr::values(Relation::from_tuples(
                2,
                vec![Tuple::ints(&[7, 7])],
            )))
            .difference(RaExpr::relation("S"));
        let plan = PlannedQuery::new(q, base.schema()).unwrap();

        // R varies per element; S is static.
        let setup = ShardSetup::new(
            base.iter().map(|(name, rel)| {
                (
                    name.to_owned(),
                    Arc::new(ColumnBatch::from_relation(rel)),
                    name == "S",
                )
            }),
            None,
        );
        let mut exec = ShardExec::new(plan.physical(), 1024, setup);

        // Element i adds the row (i, 10·i) to R.
        for i in 3..6i64 {
            let mut volatile_scans: HashMap<String, Arc<ColumnBatch>> = HashMap::new();
            volatile_scans.insert(
                "R".into(),
                Arc::new(ColumnBatch::from_rows(
                    2,
                    [Tuple::ints(&[i, 10 * i])].iter(),
                )),
            );
            let volatile_delta = Arc::new(ColumnBatch::new(2));
            let split = exec.eval_element(&ElementInput {
                volatile_scans: &volatile_scans,
                volatile_delta: &volatile_delta,
            });

            let mut world: Database = base.clone();
            world.insert("R", Tuple::ints(&[i, 10 * i])).unwrap();
            let reference = crate::exec::columnar::execute(plan.physical(), &world);
            let mut got = split.stable.to_relation();
            for t in split.volatile.to_relation().iter() {
                got.insert(t.clone());
            }
            assert_eq!(got, reference, "element {i}");
        }
        assert!(
            exec.stats.tables_reused > 0,
            "later elements must hit the cached tables: {:?}",
            exec.stats
        );
    }
}
