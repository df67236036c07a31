//! The morsel-driven columnar executor: batch the ground, isolate the
//! symbolic.
//!
//! This module is the physical executor of every strategy. It computes what
//! the logical tree-walking evaluators define ([`crate::engine`] for plain
//! tuples, [`crate::approx`] for the pair, `ctables::algebra` for c-tables)
//! over the lowered [`PhysicalPlan`], and differs from them only
//! physically:
//!
//! * **One operator table.** The plain semantics of every operator —
//!   σ, π, ×, ⋈ with its residual, ∪, −, ∩, ÷ under syntactic equality —
//!   is one `match` (`apply`) over already evaluated child batches. The
//!   plain executor's recursion calls it, and so does the [`split`]
//!   executor for its static results, its cached stable parts and its
//!   per-element plain paths; each executor keeps only its own leaves
//!   (scan source, Δ rows, `Values`). Joins are one probe loop over a
//!   fresh or a cached table, and membership (−, ∩, ∪'s dedup) one loop
//!   likewise.
//! * **Columnar batches.** Operators consume and produce
//!   [`ColumnBatch`]es — column vectors of [`Value`] with a
//!   validity/null-id sidecar per column — instead of `Cow<Tuple>` rows. No
//!   per-row `Tuple` (and no per-key `Vec<Value>`) is allocated on the hot
//!   path; predicates and join residuals evaluate in place through
//!   `Predicate::eval_naive_on`.
//! * **Morsels.** Inner loops run over fixed-size row ranges
//!   ([`morsel_rows`] rows at a time, overridable via the `MORSEL_ROWS`
//!   environment variable) so a chunk's columns stay cache-resident;
//!   [`OpStats::batches`] counts the chunks.
//! * **Ground/symbolic runs.** Hash what is ground, loop what is symbolic,
//!   at batch granularity: [`ColumnBatch::ground_split`] reads the
//!   sidecars — built **once per input relation per execution**, during the
//!   leaf transpose, and reused by every operator — and partitions a batch
//!   into a ground run for the tight hash/compare loops and a symbolic
//!   remainder for the per-row fallback. Under this executor's syntactic
//!   equality every row is ground; the valuation-aware executors in
//!   [`approx`] and [`ctable`] are where the split earns its keep.
//! * **Raw `u64` hashing.** The `RowTable` kernel chains row ids under
//!   precomputed 64-bit hashes (`hash_key`) — build and probe never
//!   allocate, and a probe touches only `heads`/`next`/`hashes` until a
//!   hash matches, when the caller verifies column-wise equality.
//!
//! Scans read their batches from a [`RelationBatches`]: each relation is
//! transposed once, by the first scan that needs it, and every later scan
//! shares that batch. An engine over a published snapshot passes the
//! snapshot context's slots ([`execute_counted_over`]), so a relation is
//! transposed once per snapshot version rather than once per query; the
//! context-free entry points ([`execute_counted_with_morsel`] and friends)
//! run the same executor over a fresh per-call set. The Δ diagonal is
//! computed once per execution. Conversion back to the set-semantics
//! [`Relation`] happens once, at the root.

pub mod approx;
pub mod ctable;
pub mod split;

use std::sync::Arc;

use relalgebra::physical::{PhysNode, PhysOp, PhysicalPlan};
use relalgebra::predicate::Predicate;
use relmodel::batch::{morsel_ranges, morsel_rows, ColumnBatch, RelationBatches};
use relmodel::value::{Constant, Value};
use relmodel::{Database, Relation};

use super::{NodeProfile, OpStats};

/// Executes a physical plan over a database under **syntactic** value
/// equality, on the batched core — the physical counterpart of
/// [`crate::engine::eval_unchecked`], and the executor the naive/complete
/// strategies and the worlds fold run.
pub fn execute(plan: &PhysicalPlan, db: &Database) -> Relation {
    execute_counted_with_morsel(plan, db, morsel_rows()).0
}

/// [`execute`] plus the operator telemetry, at an explicit morsel size —
/// the differential tests sweep this to pin chunk-boundary behaviour, and
/// benches use it to isolate the knob. Transposes every scanned relation
/// afresh.
pub fn execute_counted_with_morsel(
    plan: &PhysicalPlan,
    db: &Database,
    morsel: usize,
) -> (Relation, OpStats) {
    execute_counted_over(plan, db, &RelationBatches::of(db), morsel)
}

/// [`execute_counted_with_morsel`] reading every scan from `batches`, the
/// slots of `db`: a relation some earlier execution over the same slots
/// already transposed is not transposed again. The engine runs its
/// snapshot context's slots through here.
pub fn execute_counted_over(
    plan: &PhysicalPlan,
    db: &Database,
    batches: &RelationBatches,
    morsel: usize,
) -> (Relation, OpStats) {
    let mut exec = ColumnarExec::new(db, batches, morsel, false);
    let out = exec.eval(plan.root());
    (out.to_relation(), exec.stats)
}

/// [`execute_counted_over`] plus a per-node [`NodeProfile`] for every
/// operator in the plan — the measurement pass behind `EXPLAIN ANALYZE`.
///
/// Profiles are **inclusive** (a node's time/batches cover its whole
/// subtree, Postgres-style) and keyed by [`PhysNode::id`]; they are emitted
/// in completion (post) order, so the root is last. Wall-clock lives here
/// and *not* in [`OpStats`], which stays deterministic and `Eq`-comparable
/// across executors.
pub fn execute_profiled_over(
    plan: &PhysicalPlan,
    db: &Database,
    batches: &RelationBatches,
    morsel: usize,
) -> (Relation, OpStats, Vec<NodeProfile>) {
    let mut exec = ColumnarExec::new(db, batches, morsel, true);
    let out = exec.eval(plan.root());
    let profiles = exec.profile.take().expect("profiling was requested");
    (out.to_relation(), exec.stats, profiles)
}

/// [`execute`] with a caller-provided stats accumulator — the worlds
/// strategy threads one accumulator through its whole per-world loop.
pub fn execute_into(plan: &PhysicalPlan, db: &Database, stats: &mut OpStats) -> Relation {
    let (answers, run) = execute_counted_with_morsel(plan, db, morsel_rows());
    stats.merge(&run);
    answers
}

struct ColumnarExec<'a> {
    db: &'a Database,
    /// Where scans get their batches: each relation is transposed once per
    /// slot set, however many scans (or executions) reference it.
    batches: &'a RelationBatches,
    delta: Option<Arc<ColumnBatch>>,
    morsel: usize,
    stats: OpStats,
    /// When `Some`, every `eval` appends an inclusive [`NodeProfile`] for
    /// the node it just finished. `None` costs one branch per operator —
    /// nothing on the per-row path.
    profile: Option<Vec<NodeProfile>>,
}

impl<'a> ColumnarExec<'a> {
    fn new(db: &'a Database, batches: &'a RelationBatches, morsel: usize, profile: bool) -> Self {
        ColumnarExec {
            db,
            batches,
            delta: None,
            morsel: morsel.max(1),
            stats: OpStats::default(),
            profile: profile.then(Vec::new),
        }
    }

    /// Evaluates a node to a duplicate-free batch, recording an inclusive
    /// per-node profile when profiling is on.
    fn eval(&mut self, node: &'a PhysNode) -> Arc<ColumnBatch> {
        if self.profile.is_none() {
            return self.eval_op(node);
        }
        let batches_before = self.stats.batches;
        let built_before = self.stats.tables_built;
        let reused_before = self.stats.tables_reused;
        let started = std::time::Instant::now();
        let out = self.eval_op(node);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stats = &self.stats;
        let sample = NodeProfile {
            id: node.id(),
            rows: out.len(),
            batches: stats.batches - batches_before,
            tables_built: stats.tables_built - built_before,
            tables_reused: stats.tables_reused - reused_before,
            nanos,
        };
        self.profile.as_mut().expect("checked above").push(sample);
        out
    }

    /// One node: the executor's own leaves, or [`apply`] over the node's
    /// evaluated children.
    fn eval_op(&mut self, node: &'a PhysNode) -> Arc<ColumnBatch> {
        self.stats.operators += 1;
        match node.op() {
            PhysOp::Scan(name) => self
                .batches
                .get(self.db, name)
                .expect("physical plans are lowered from typechecked queries"),
            PhysOp::Values(rel) => Arc::new(ColumnBatch::from_relation(rel)),
            PhysOp::Delta => {
                if self.delta.is_none() {
                    let rows = super::delta_diagonal(self.db);
                    self.delta = Some(Arc::new(ColumnBatch::from_rows(2, rows.iter())));
                }
                Arc::clone(self.delta.as_ref().expect("just initialised"))
            }
            op => {
                let (left, right) = operands(op);
                let l = self.eval(left);
                let r = right.map(|right| self.eval(right));
                apply(node, l, r.as_deref(), self.morsel, &mut self.stats)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The operator table: the plain semantics of every operator, once.
// ---------------------------------------------------------------------------

/// An operator node's children: the input of σ and π, or the left and
/// right sides of a binary operator. Leaves have none.
pub(crate) fn operands(op: &PhysOp) -> (&PhysNode, Option<&PhysNode>) {
    match op {
        PhysOp::Filter { input, .. } | PhysOp::Project { input, .. } => (input, None),
        PhysOp::NestedProduct { left, right }
        | PhysOp::HashJoin { left, right, .. }
        | PhysOp::Union { left, right }
        | PhysOp::Difference { left, right }
        | PhysOp::Intersect { left, right }
        | PhysOp::Divide { left, right } => (left, Some(right)),
        PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta => {
            unreachable!("leaves have no operands")
        }
    }
}

/// The plain semantics of every operator: `node`'s operator under
/// syntactic equality, applied to its children's evaluated results — `l`,
/// and `r` for a binary operator (see [`operands`]). Leaves read each
/// executor's own sources and never reach here. The plain executor, the
/// split executor's static results and cached stable parts, and its
/// per-element plain paths all evaluate operators through this one table,
/// so every operator counts the same [`OpStats`] on every path.
pub(crate) fn apply(
    node: &PhysNode,
    l: Arc<ColumnBatch>,
    r: Option<&ColumnBatch>,
    morsel: usize,
    stats: &mut OpStats,
) -> Arc<ColumnBatch> {
    let r = || r.expect("a binary operator has two inputs");
    let out = match node.op() {
        PhysOp::Filter { predicate, .. } => {
            let keep = select_rows(&l, morsel, stats, |row| {
                predicate.eval_naive_on(&|i| l.value(i, row))
            });
            return gathered(&l, keep);
        }
        PhysOp::Project { columns, .. } => project_dedup(&l, columns, morsel, stats),
        PhysOp::NestedProduct { .. } => product(&l, r(), morsel, stats),
        PhysOp::HashJoin { keys, residual, .. } => {
            let r = r();
            syntactic_join(&l, r, keys, residual_ok(residual, &l, r), morsel, stats)
        }
        PhysOp::Union { .. } => union_batches(&l, r(), morsel, stats),
        PhysOp::Difference { .. } => {
            return gathered(&l, membership_keep(&l, r(), false, morsel, stats))
        }
        PhysOp::Intersect { .. } => {
            return gathered(&l, membership_keep(&l, r(), true, morsel, stats))
        }
        PhysOp::Divide { .. } => divide_syntactic(&l, r(), node.arity(), morsel, stats),
        PhysOp::Scan(_) | PhysOp::Values(_) | PhysOp::Delta => {
            unreachable!("leaves are each executor's own")
        }
    };
    Arc::new(out)
}

/// The kept rows of `batch` as a batch: `batch` itself when every row
/// survived.
pub(crate) fn gathered(batch: &Arc<ColumnBatch>, keep: Vec<u32>) -> Arc<ColumnBatch> {
    if keep.len() == batch.len() {
        Arc::clone(batch)
    } else {
        Arc::new(batch.gather(&keep))
    }
}

/// The column accessor of the virtual concatenation of row `li` of `l` and
/// row `ri` of `r`: how a join predicate reads a candidate pair without
/// materializing it.
#[inline]
pub(crate) fn pair_row<'b>(
    l: &'b ColumnBatch,
    li: usize,
    r: &'b ColumnBatch,
    ri: usize,
) -> impl Fn(usize) -> &'b Value {
    let la = l.arity();
    move |i| {
        if i < la {
            l.value(i, li)
        } else {
            r.value(i - la, ri)
        }
    }
}

/// The plain residual check of a join of `l` and `r`, as a `keep` test on a
/// pair of row ids: no residual, or the residual holds under syntactic
/// equality.
pub(crate) fn residual_ok<'b>(
    residual: &'b Option<Predicate>,
    l: &'b ColumnBatch,
    r: &'b ColumnBatch,
) -> impl Fn(usize, usize) -> bool + 'b {
    move |li, ri| {
        residual
            .as_ref()
            .is_none_or(|p| p.eval_naive_on(&pair_row(l, li, r, ri)))
    }
}

// ---------------------------------------------------------------------------
// Hash kernel: raw 64-bit hashes over values, no per-key allocation.
// ---------------------------------------------------------------------------

pub(crate) const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    // FNV-1a style fold over 64-bit lanes; `finish` supplies the avalanche.
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

#[inline]
pub(crate) fn finish(mut h: u64) -> u64 {
    // 64-bit finalizer (murmur3-style): the RowTable masks low bits, so the
    // folded hash must avalanche before bucketing.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Folds one value into a running hash. Tags separate the `Int`/`Str`/`Null`
/// payload spaces so `Int(1)`, `Str("\x01")`, and `⊥1` never collide by
/// construction.
#[inline]
pub(crate) fn hash_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Const(Constant::Int(i)) => mix(mix(h, 0x11), *i as u64),
        Value::Const(Constant::Str(s)) => {
            let mut h = mix(mix(h, 0x22), s.len() as u64);
            for chunk in s.as_bytes().chunks(8) {
                let mut lane = [0u8; 8];
                lane[..chunk.len()].copy_from_slice(chunk);
                h = mix(h, u64::from_le_bytes(lane));
            }
            h
        }
        Value::Null(n) => mix(mix(h, 0x33), n.0),
    }
}

/// The hash of a batch row's values at `cols`, folded left to right.
#[inline]
pub(crate) fn hash_key(batch: &ColumnBatch, cols: &[usize], row: usize) -> u64 {
    finish(
        cols.iter()
            .fold(HASH_SEED, |h, &c| hash_value(h, batch.value(c, row))),
    )
}

/// [`hash_key`] over every column of the row: the full-row membership hash.
#[inline]
pub(crate) fn hash_row(batch: &ColumnBatch, row: usize) -> u64 {
    finish((0..batch.arity()).fold(HASH_SEED, |h, c| hash_value(h, batch.value(c, row))))
}

/// The same key hash over a materialized [`Tuple`](relmodel::Tuple) — used
/// by the c-table executor, whose rows carry conditions and therefore stay
/// row-shaped.
#[inline]
pub(crate) fn hash_tuple_key(tuple: &relmodel::Tuple, cols: &[usize]) -> u64 {
    finish(
        cols.iter()
            .fold(HASH_SEED, |h, &c| hash_value(h, &tuple[c])),
    )
}

/// A chained hash table from precomputed `u64` hashes to row ids — the
/// executor's one join/dedup/membership kernel. Capacity is fixed at
/// construction (the caller knows the maximum insert count), and `probe`
/// yields every inserted row whose full hash matches; the caller verifies
/// actual equality column-wise, so collisions cost comparisons, never
/// correctness.
pub(crate) struct RowTable {
    mask: u64,
    heads: Vec<u32>,
    hashes: Vec<u64>,
    next: Vec<u32>,
    rows: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

impl RowTable {
    /// A table sized for up to `rows` insertions (load factor ≤ 0.5).
    pub fn with_capacity(rows: usize) -> Self {
        let buckets = rows.saturating_mul(2).next_power_of_two().max(8);
        RowTable {
            mask: (buckets - 1) as u64,
            heads: vec![EMPTY; buckets],
            hashes: Vec::with_capacity(rows),
            next: Vec::with_capacity(rows),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Chains `row` under `hash`.
    pub fn insert(&mut self, hash: u64, row: u32) {
        let slot = (hash & self.mask) as usize;
        let idx = self.rows.len() as u32;
        self.rows.push(row);
        self.hashes.push(hash);
        self.next.push(self.heads[slot]);
        self.heads[slot] = idx;
    }

    /// Every inserted row whose hash equals `hash`, most recent first.
    pub fn probe(&self, hash: u64) -> Probe<'_> {
        Probe {
            table: self,
            hash,
            cursor: self.heads[(hash & self.mask) as usize],
        }
    }
}

/// Iterator over a [`RowTable`] probe chain.
pub(crate) struct Probe<'a> {
    table: &'a RowTable,
    hash: u64,
    cursor: u32,
}

impl Iterator for Probe<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        while self.cursor != EMPTY {
            let i = self.cursor as usize;
            self.cursor = self.table.next[i];
            if self.table.hashes[i] == self.hash {
                return Some(self.table.rows[i]);
            }
        }
        None
    }
}

/// Builds a [`RowTable`] over every row of `batch`, keyed on `cols`.
pub(crate) fn build_key_table(batch: &ColumnBatch, cols: &[usize]) -> RowTable {
    let mut table = RowTable::with_capacity(batch.len());
    for row in 0..batch.len() {
        table.insert(hash_key(batch, cols, row), row as u32);
    }
    table
}

/// Builds a [`RowTable`] over a subset of rows (a ground run), keyed on
/// `cols`.
pub(crate) fn build_key_table_for(batch: &ColumnBatch, cols: &[usize], rows: &[u32]) -> RowTable {
    let mut table = RowTable::with_capacity(rows.len());
    for &row in rows {
        table.insert(hash_key(batch, cols, row as usize), row);
    }
    table
}

// ---------------------------------------------------------------------------
// Shared columnar operator kernels (plain executor + the certain sides of
// the pair executor).
// ---------------------------------------------------------------------------

/// Morsel-chunked selection: the kept row ids, in order.
pub(crate) fn select_rows(
    batch: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
    keep: impl Fn(usize) -> bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    for range in morsel_ranges(batch.len(), morsel) {
        stats.batches += 1;
        for row in range {
            if keep(row) {
                out.push(row as u32);
            }
        }
    }
    out
}

/// Morsel-chunked duplicate-eliminating projection: gathers `cols` of each
/// row, keeping the first occurrence of every projected row (hash dedup in
/// the same pass — no intermediate batch).
pub(crate) fn project_dedup(
    input: &ColumnBatch,
    cols: &[usize],
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let out_cols: Vec<usize> = (0..cols.len()).collect();
    let mut out = ColumnBatch::with_capacity(cols.len(), input.len());
    stats.tables_built += 1;
    let mut table = RowTable::with_capacity(input.len());
    for range in morsel_ranges(input.len(), morsel) {
        stats.batches += 1;
        for row in range {
            let h = hash_key(input, cols, row);
            let dup = table
                .probe(h)
                .any(|o| out.keys_equal(o as usize, &out_cols, input, row, cols));
            if !dup {
                table.insert(h, out.len() as u32);
                out.push_gather(input, row, cols);
            }
        }
    }
    out
}

/// Morsel-chunked nested-loop product.
pub(crate) fn product(
    l: &ColumnBatch,
    r: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let mut out =
        ColumnBatch::with_capacity(l.arity() + r.arity(), l.len().saturating_mul(r.len()));
    append_product(&mut out, l, r, morsel, stats);
    out
}

/// Appends `l × r` onto `out`, in morsel chunks of `l`.
pub(crate) fn append_product(
    out: &mut ColumnBatch,
    l: &ColumnBatch,
    r: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
) {
    for range in morsel_ranges(l.len(), morsel) {
        stats.batches += 1;
        for li in range {
            for ri in 0..r.len() {
                out.push_concat(l, li, r, ri);
            }
        }
    }
}

/// A join's key columns: the left side's, then the right side's.
pub(crate) fn key_columns(keys: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    keys.iter().copied().unzip()
}

/// The columnar syntactic hash equi-join: builds a [`RowTable`] on the
/// smaller side's key columns, then runs [`probe_join`], keeping the
/// concatenated rows that pass `keep` (called with the *left* and *right*
/// row ids; the output is always left-then-right). Serves the plain
/// operators (with [`residual_ok`]) and — with a marked-3VL residual check
/// — the certain side of the pair executor.
pub(crate) fn syntactic_join(
    l: &ColumnBatch,
    r: &ColumnBatch,
    keys: &[(usize, usize)],
    keep: impl Fn(usize, usize) -> bool,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let (left_cols, right_cols) = key_columns(keys);
    let build_left = l.len() <= r.len();
    let (build, build_cols, probe_len) = if build_left {
        (l, &left_cols, r.len())
    } else {
        (r, &right_cols, l.len())
    };
    stats.build_rows += build.len();
    stats.tables_built += 1;
    let table = build_key_table(build, build_cols);
    let mut out = ColumnBatch::with_capacity(l.arity() + r.arity(), probe_len);
    let cols = (&left_cols[..], &right_cols[..]);
    probe_join(
        &mut out, l, r, cols, build_left, &table, keep, morsel, stats,
    );
    stats.join_rows_out += out.len();
    out
}

/// The one hash-join probe loop. `table` indexes the build side — `l` when
/// `build_left`, else `r` — on its key columns (`cols` holds the left
/// side's, then the right side's); the other side's rows probe it in morsel
/// chunks, and every key-equal pair `(li, ri)` that passes `keep` is
/// appended onto `out`, left then right. [`syntactic_join`] runs it over a
/// fresh table, the split executor over the cached table of a stable side.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_join(
    out: &mut ColumnBatch,
    l: &ColumnBatch,
    r: &ColumnBatch,
    cols: (&[usize], &[usize]),
    build_left: bool,
    table: &RowTable,
    keep: impl Fn(usize, usize) -> bool,
    morsel: usize,
    stats: &mut OpStats,
) {
    let (build, build_cols, probe, probe_cols) = if build_left {
        (l, cols.0, r, cols.1)
    } else {
        (r, cols.1, l, cols.0)
    };
    stats.hash_joins += 1;
    stats.probe_rows += probe.len();
    // Syntactic equality: every probed row takes the ground path.
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
                let (li, ri) = if build_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                if keep(li, ri) {
                    out.push_concat(l, li, r, ri);
                }
            }
        }
    }
}

/// Columnar set union: all of `l`, plus the rows of `r` with no syntactic
/// duplicate in `l` (both inputs duplicate-free by the operator invariant).
pub(crate) fn union_batches(
    l: &ColumnBatch,
    r: &ColumnBatch,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    if r.is_empty() {
        return l.clone();
    }
    if l.is_empty() {
        return r.clone();
    }
    let fresh = membership_keep(r, l, false, morsel, stats);
    let mut out = l.clone();
    r.gather_into(&fresh, &mut out);
    out
}

/// Full-row syntactic membership of `l`'s rows in `r`: builds a full-row
/// table over `r`, then runs [`member_rows`] — the kept row ids, members
/// for intersection (`keep_member`), non-members for difference.
pub(crate) fn membership_keep(
    l: &ColumnBatch,
    r: &ColumnBatch,
    keep_member: bool,
    morsel: usize,
    stats: &mut OpStats,
) -> Vec<u32> {
    let all_cols: Vec<usize> = (0..r.arity()).collect();
    stats.tables_built += 1;
    let table = build_key_table(r, &all_cols);
    // The loop keeps no per-chunk state, so the morsels of `l` are only
    // counted; the split executor's probes of its own tables count none.
    stats.batches += morsel_ranges(l.len(), morsel).count();
    member_rows(l, keep_member, stats, |row| in_table(r, &table, l, row))
}

/// The one membership loop: the ids of `probe`'s rows whose membership
/// (`member`) equals `keep_member`, in order. Under syntactic equality
/// every probed row is ground.
pub(crate) fn member_rows(
    probe: &ColumnBatch,
    keep_member: bool,
    stats: &mut OpStats,
    member: impl Fn(usize) -> bool,
) -> Vec<u32> {
    stats.ground_rows += probe.len();
    (0..probe.len())
        .filter(|&row| member(row) == keep_member)
        .map(|row| row as u32)
        .collect()
}

/// Is row `row` of `probe` a row of `pool`? `table` is a full-row table
/// over `pool`.
#[inline]
pub(crate) fn in_table(
    pool: &ColumnBatch,
    table: &RowTable,
    probe: &ColumnBatch,
    row: usize,
) -> bool {
    table
        .probe(hash_row(probe, row))
        .any(|p| pool.rows_equal(p as usize, probe, row))
}

/// Hash-lookup relational division on batches: distinct dividend prefixes,
/// each checked against every divisor row via a full-row membership table —
/// the incremental hash of `prefix ++ suffix` never materializes the
/// combined row.
pub(crate) fn divide_syntactic(
    dividend: &ColumnBatch,
    divisor: &ColumnBatch,
    prefix_arity: usize,
    morsel: usize,
    stats: &mut OpStats,
) -> ColumnBatch {
    let prefix_cols: Vec<usize> = (0..prefix_arity).collect();
    let all_cols: Vec<usize> = (0..dividend.arity()).collect();
    stats.ground_rows += dividend.len();
    // Distinct prefixes, in first-occurrence order.
    let mut reps: Vec<u32> = Vec::new();
    stats.tables_built += 1;
    let mut prefixes = RowTable::with_capacity(dividend.len());
    for range in morsel_ranges(dividend.len(), morsel) {
        stats.batches += 1;
        for row in range {
            let h = hash_key(dividend, &prefix_cols, row);
            let dup = prefixes.probe(h).any(|p| {
                dividend.keys_equal(p as usize, &prefix_cols, dividend, row, &prefix_cols)
            });
            if !dup {
                prefixes.insert(h, row as u32);
                reps.push(row as u32);
            }
        }
    }
    stats.tables_built += 1;
    let full = build_key_table(dividend, &all_cols);
    let mut out = ColumnBatch::with_capacity(prefix_arity, reps.len());
    for &rep in &reps {
        let rep = rep as usize;
        let qualifies = (0..divisor.len()).all(|srow| {
            let mut h = HASH_SEED;
            for &c in &prefix_cols {
                h = hash_value(h, dividend.value(c, rep));
            }
            for c in 0..divisor.arity() {
                h = hash_value(h, divisor.value(c, srow));
            }
            full.probe(finish(h)).any(|d| {
                let d = d as usize;
                dividend.keys_equal(d, &prefix_cols, dividend, rep, &prefix_cols)
                    && (0..divisor.arity())
                        .all(|c| dividend.value(prefix_arity + c, d) == divisor.value(c, srow))
            })
        });
        if qualifies {
            out.push_gather(dividend, rep, &prefix_cols);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relalgebra::predicate::{Operand, Predicate};
    use relmodel::{DatabaseBuilder, Tuple};

    fn db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a", "b"])
            .relation("S", &["b", "c"])
            .relation("U", &["b"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("R", &[1, 20])
            .tuple("R", vec![Value::int(3), Value::null(0)])
            .ints("S", &[10, 100])
            .ints("S", &[20, 200])
            .tuple("S", vec![Value::null(0), Value::int(300)])
            .ints("U", &[10])
            .ints("U", &[20])
            .build()
    }

    fn cases() -> Vec<RaExpr> {
        let r = RaExpr::relation("R");
        let join = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        vec![
            r.clone(),
            r.clone().project(vec![1]),
            r.clone()
                .select(Predicate::eq(Operand::col(0), Operand::int(1))),
            r.clone().product(RaExpr::relation("U")),
            join.clone(),
            join.clone().project(vec![0, 3]),
            RaExpr::relation("R").product(RaExpr::relation("S")).select(
                Predicate::eq(Operand::col(1), Operand::col(2))
                    .and(Predicate::neq(Operand::col(0), Operand::col(3))),
            ),
            r.clone().project(vec![0]).union(RaExpr::relation("U")),
            r.clone().project(vec![1]).difference(RaExpr::relation("U")),
            r.clone()
                .project(vec![1])
                .intersection(RaExpr::relation("U")),
            r.clone().divide(RaExpr::relation("U")),
            RaExpr::Delta,
            RaExpr::Delta.union(RaExpr::Delta),
            RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[7])]))
                .union(r.clone().project(vec![0])),
        ]
    }

    /// The batched executor must agree with the logical interpreter on
    /// every operator, at every morsel size (chunk boundaries included).
    #[test]
    fn columnar_matches_logical_reference_across_morsel_sizes() {
        let d = db();
        for q in cases() {
            let plan = PlannedQuery::new(q.clone(), d.schema()).unwrap();
            let reference = crate::engine::eval_unchecked(&q, &d).into_owned();
            for morsel in [1, 2, 3, 1024] {
                let (batched, _) = execute_counted_with_morsel(plan.physical(), &d, morsel);
                assert_eq!(
                    batched, reference,
                    "columnar != logical for {q} (morsel {morsel})"
                );
            }
        }
    }

    #[test]
    fn division_handles_the_textbook_cases() {
        let q = RaExpr::relation("R").divide(RaExpr::relation("U"));
        let mut d = db();
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let out = execute(plan.physical(), &d);
        assert_eq!(out, Relation::from_tuples(1, vec![Tuple::ints(&[1])]));
        // Empty divisor: every prefix qualifies.
        d.set_relation("U", Relation::new(1)).unwrap();
        let out = execute(plan.physical(), &d);
        assert_eq!(out.len(), 3, "∀ over ∅ holds for all prefixes");
    }

    #[test]
    fn scan_cache_transposes_each_relation_once() {
        // R is scanned twice per execution: both scans, and a second
        // execution over the same slots, share the slot's one transpose.
        let d = db();
        let q = RaExpr::relation("R").union(RaExpr::relation("R"));
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let batches = RelationBatches::of(&d);
        let mut exec = ColumnarExec::new(&d, &batches, 1024, false);
        exec.eval(plan.physical().root());
        drop(exec);
        let first = Arc::clone(batches.built("R").expect("R transposed"));
        assert_eq!(
            Arc::strong_count(&first),
            2,
            "both scans dropped their clones; the slot and this test hold it"
        );
        assert!(batches.built("S").is_none(), "unscanned relations stay raw");
        execute_counted_over(plan.physical(), &d, &batches, 1024);
        assert!(Arc::ptr_eq(&first, batches.built("R").unwrap()));
    }

    #[test]
    fn telemetry_counts_batches_and_runs() {
        let d = db();
        let q = RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(Predicate::eq(Operand::col(1), Operand::col(2)));
        let plan = PlannedQuery::new(q, d.schema()).unwrap();
        let (_, stats) = execute_counted_with_morsel(plan.physical(), &d, 2);
        assert!(stats.batches >= 2, "4 probe rows at morsel 2 → ≥2 chunks");
        assert_eq!(stats.hash_joins, 1);
        assert_eq!(
            stats.ground_rows, stats.probe_rows,
            "plain execution routes every probed row through the ground run"
        );
        assert_eq!(stats.symbolic_rows, 0);
    }

    #[test]
    fn row_table_probe_filters_by_hash_and_caller_verifies() {
        let batch = ColumnBatch::from_rows(
            1,
            [
                Tuple::ints(&[1]),
                Tuple::ints(&[2]),
                Tuple::ints(&[1]),
                Tuple::new(vec![Value::null(0)]),
            ]
            .iter(),
        );
        let table = build_key_table(&batch, &[0]);
        let h = hash_key(&batch, &[0], 0);
        let hits: Vec<u32> = table.probe(h).collect();
        assert!(hits.contains(&0) && hits.contains(&2));
        assert!(!hits.contains(&3), "⊥0 hashes in a different tag space");
    }

    #[test]
    fn hash_tags_separate_value_kinds() {
        let one = hash_value(HASH_SEED, &Value::int(1));
        let null_one = hash_value(HASH_SEED, &Value::null(1));
        let str_one = hash_value(HASH_SEED, &Value::str("\u{1}"));
        assert_ne!(one, null_one);
        assert_ne!(one, str_one);
        assert_ne!(null_one, str_one);
        // Strings hash by content, length included.
        assert_eq!(
            hash_value(HASH_SEED, &Value::str("ab")),
            hash_value(HASH_SEED, &Value::str("ab"))
        );
        assert_ne!(
            hash_value(HASH_SEED, &Value::str("ab")),
            hash_value(HASH_SEED, &Value::str("abc"))
        );
    }
}
