//! Columnar batches: the morsel-driven representation of relations.
//!
//! A [`ColumnBatch`] stores a block of rows column-by-column — one
//! `Vec<Value>` per attribute — with a **validity sidecar** per column: the
//! sorted list of row indices whose value is a marked null. The sidecar is
//! what makes the paper's "route the ground fraction to the fast path" idea
//! cheap at batch granularity: [`ColumnBatch::ground_split`] partitions a
//! batch into its ground and symbolic *runs* in `O(k + nulls)` when any key
//! column carries nulls, and in `O(k)` (no allocation, no scan) when none
//! does — the overwhelmingly common case on mostly-ground data.
//!
//! Batches are the unit of work of the vectorized executor in `releval`:
//! operators consume input batches in *morsels* (fixed-size row ranges, see
//! [`morsel_rows`] and [`morsel_ranges`]) so inner loops stay in cache, and
//! read values in place via [`ColumnBatch::value`] / [`Column::values`] —
//! no per-row `Tuple` is materialized on the hot path. Conversion to and
//! from the set-semantics [`Relation`] happens once per execution at the
//! leaves and the root.
//!
//! Row-id arithmetic is `u32`: a batch holds at most `u32::MAX` rows, far
//! beyond any workload this workspace generates, and half-width ids keep
//! the executor's hash-table chains and selection vectors dense.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::database::Database;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// Environment knob naming the morsel size (rows per execution chunk).
pub const MORSEL_ROWS_ENV: &str = "MORSEL_ROWS";

/// Default rows per morsel: large enough to amortize per-chunk bookkeeping,
/// small enough that a morsel's columns stay cache-resident.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// The environment-seeded morsel size: `MORSEL_ROWS` from the environment,
/// else [`DEFAULT_MORSEL_ROWS`]. Always at least 1.
///
/// The environment is consulted on **every call** — deliberately not cached
/// in a process-global `OnceLock`. A global read-once value made a later
/// `std::env::set_var` silently a no-op and let parallel tests sweeping
/// morsel sizes race on first-read order. Long-lived services read this once
/// at *service* construction and thread the size through explicit exec
/// options (`execute_counted_with_morsel` and friends); the env lookup here
/// is only the default seed for one-shot callers, and its cost is noise
/// against any query execution.
pub fn morsel_rows() -> usize {
    std::env::var(MORSEL_ROWS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_MORSEL_ROWS)
}

/// Iterator over the morsel row ranges of a batch of `len` rows: contiguous
/// chunks of at most `rows_per_morsel` rows. `len == 0` yields no ranges.
pub fn morsel_ranges(len: usize, rows_per_morsel: usize) -> impl Iterator<Item = Range<usize>> {
    let step = rows_per_morsel.max(1);
    (0..len)
        .step_by(step)
        .map(move |start| start..(start + step).min(len))
}

/// One column of a batch: its values plus the validity sidecar — the sorted
/// row indices holding marked nulls. A column with an empty sidecar is
/// *ground*: every hash/compare loop over it is exact under every null
/// semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Column {
    values: Vec<Value>,
    null_rows: Vec<u32>,
}

impl Column {
    fn with_capacity(rows: usize) -> Self {
        Column {
            values: Vec::with_capacity(rows),
            null_rows: Vec::new(),
        }
    }

    /// The column's values, in row order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The validity sidecar: sorted row indices whose value is a null.
    pub fn null_rows(&self) -> &[u32] {
        &self.null_rows
    }

    /// Does the column contain no nulls?
    pub fn is_ground(&self) -> bool {
        self.null_rows.is_empty()
    }

    fn push(&mut self, v: Value) {
        if v.is_null() {
            self.null_rows.push(self.values.len() as u32);
        }
        self.values.push(v);
    }

    fn clear(&mut self) {
        self.values.clear();
        self.null_rows.clear();
    }

    fn append(&mut self, other: &Column) {
        let offset = self.values.len() as u32;
        self.null_rows
            .extend(other.null_rows.iter().map(|&r| r + offset));
        self.values.extend(other.values.iter().cloned());
    }
}

/// The ground/symbolic partition of a batch's rows with respect to a set of
/// key columns: ground rows can be hashed exactly, symbolic rows (a null in
/// some key column) need the valuation-aware per-row fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunSplit {
    /// Every key column's sidecar is empty: the whole batch is one ground
    /// run. No row list is materialized — callers iterate `0..len` directly.
    AllGround,
    /// Some key column carries nulls: explicit ground and symbolic runs
    /// (disjoint, in row order, together covering the batch).
    Mixed {
        /// Rows whose key columns are all constants.
        ground: Vec<u32>,
        /// Rows with at least one null in a key column — the per-row
        /// fallback's share of the batch.
        symbolic: Vec<u32>,
    },
}

impl RunSplit {
    /// Rows in the symbolic run.
    pub fn symbolic_len(&self) -> usize {
        match self {
            RunSplit::AllGround => 0,
            RunSplit::Mixed { symbolic, .. } => symbolic.len(),
        }
    }

    /// Rows in the ground run, given the batch length.
    pub fn ground_len(&self, batch_len: usize) -> usize {
        batch_len - self.symbolic_len()
    }

    /// Is the whole batch one ground run?
    pub fn is_all_ground(&self) -> bool {
        matches!(self, RunSplit::AllGround)
    }
}

/// A block of rows stored column-by-column. See the [module docs](self).
///
/// Invariants: every column holds exactly `len` values, and each column's
/// sidecar lists exactly its null rows, sorted ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnBatch {
    len: usize,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// An empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        Self::with_capacity(arity, 0)
    }

    /// An empty batch of the given arity, with row capacity reserved in
    /// every column.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        ColumnBatch {
            len: 0,
            columns: (0..arity).map(|_| Column::with_capacity(rows)).collect(),
        }
    }

    /// Transposes a relation into a batch (the leaf conversion; see
    /// [`RelationBatches`] for how often it runs). Row order follows the
    /// relation's deterministic iteration order. Every column reserves
    /// exactly `rel.len()` rows up front.
    pub fn from_relation(rel: &Relation) -> Self {
        let mut batch = ColumnBatch::with_capacity(rel.arity(), rel.len());
        for t in rel.iter() {
            batch.push_tuple(t);
        }
        batch
    }

    /// Transposes borrowed tuples into a batch.
    pub fn from_rows<'a>(arity: usize, rows: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut batch = ColumnBatch::new(arity);
        for t in rows {
            batch.push_tuple(t);
        }
        batch
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the batch empty (no rows)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column at an index.
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// The value at (column, row), in place — no clone.
    #[inline]
    pub fn value(&self, col: usize, row: usize) -> &Value {
        &self.columns[col].values[row]
    }

    /// Appends a row by cloning a tuple's values.
    pub fn push_tuple(&mut self, t: &Tuple) {
        debug_assert_eq!(t.arity(), self.arity());
        for (c, v) in self.columns.iter_mut().zip(t.values()) {
            c.push(v.clone());
        }
        self.bump();
    }

    /// Appends a row from owned values. The iterator must yield exactly
    /// `arity` values.
    pub fn push_row(&mut self, values: impl IntoIterator<Item = Value>) {
        let mut it = values.into_iter();
        for c in &mut self.columns {
            c.push(it.next().expect("push_row: fewer values than columns"));
        }
        debug_assert!(it.next().is_none(), "push_row: more values than columns");
        self.bump();
    }

    /// Appends the projection of `src`'s row onto `cols` (one output column
    /// per entry of `cols`, in order).
    pub fn push_gather(&mut self, src: &ColumnBatch, row: usize, cols: &[usize]) {
        debug_assert_eq!(cols.len(), self.arity());
        for (c, &sc) in self.columns.iter_mut().zip(cols) {
            c.push(src.columns[sc].values[row].clone());
        }
        self.bump();
    }

    /// Appends the concatenation of a row of `left` and a row of `right`
    /// (the join/product output row).
    pub fn push_concat(
        &mut self,
        left: &ColumnBatch,
        lrow: usize,
        right: &ColumnBatch,
        rrow: usize,
    ) {
        debug_assert_eq!(self.arity(), left.arity() + right.arity());
        let (for_left, for_right) = self.columns.split_at_mut(left.arity());
        for (c, src) in for_left.iter_mut().zip(&left.columns) {
            c.push(src.values[lrow].clone());
        }
        for (c, src) in for_right.iter_mut().zip(&right.columns) {
            c.push(src.values[rrow].clone());
        }
        self.bump();
    }

    fn bump(&mut self) {
        debug_assert!(self.len < u32::MAX as usize, "batch row ids are u32");
        self.len += 1;
    }

    /// Are all of the row's values at `cols` constants?
    pub fn key_is_ground(&self, row: usize, cols: &[usize]) -> bool {
        cols.iter().all(|&c| self.columns[c].values[row].is_const())
    }

    /// Are all of the row's values constants?
    pub fn row_is_ground(&self, row: usize) -> bool {
        self.columns.iter().all(|c| c.values[row].is_const())
    }

    /// Syntactic equality of this batch's row and another batch's row on
    /// paired key columns (`cols[i]` here against `other_cols[i]` there).
    pub fn keys_equal(
        &self,
        row: usize,
        cols: &[usize],
        other: &ColumnBatch,
        other_row: usize,
        other_cols: &[usize],
    ) -> bool {
        debug_assert_eq!(cols.len(), other_cols.len());
        cols.iter()
            .zip(other_cols)
            .all(|(&a, &b)| self.columns[a].values[row] == other.columns[b].values[other_row])
    }

    /// Syntactic equality of two full rows (same arity assumed).
    pub fn rows_equal(&self, row: usize, other: &ColumnBatch, other_row: usize) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| a.values[row] == b.values[other_row])
    }

    /// Partitions the batch's rows into ground and symbolic runs with
    /// respect to `cols`. When every key column's sidecar is empty this is
    /// `O(cols)` — no scan, no allocation ([`RunSplit::AllGround`]);
    /// otherwise the sidecars drive an `O(len)` partition.
    pub fn ground_split(&self, cols: &[usize]) -> RunSplit {
        if cols.iter().all(|&c| self.columns[c].is_ground()) {
            return RunSplit::AllGround;
        }
        let mut is_symbolic = vec![false; self.len];
        for &c in cols {
            for &r in &self.columns[c].null_rows {
                is_symbolic[r as usize] = true;
            }
        }
        let mut ground = Vec::new();
        let mut symbolic = Vec::new();
        for (r, &s) in is_symbolic.iter().enumerate() {
            if s {
                symbolic.push(r as u32);
            } else {
                ground.push(r as u32);
            }
        }
        RunSplit::Mixed { ground, symbolic }
    }

    /// A new batch holding the given rows of this one, in the given order
    /// (the selection-vector materialization step).
    pub fn gather(&self, rows: &[u32]) -> ColumnBatch {
        let mut out = ColumnBatch::with_capacity(self.arity(), rows.len());
        self.gather_into(rows, &mut out);
        out
    }

    /// Appends the given rows of this batch onto `out`, in the given order —
    /// the **selection-mask** application step, into a caller-owned scratch
    /// batch so per-element loops (one mask per repair) reuse one allocation.
    pub fn gather_into(&self, rows: &[u32], out: &mut ColumnBatch) {
        debug_assert_eq!(self.arity(), out.arity());
        for (c, src) in out.columns.iter_mut().zip(&self.columns) {
            for &r in rows {
                c.push(src.values[r as usize].clone());
            }
        }
        out.len += rows.len();
    }

    /// Appends every row of `other` (same arity) onto this batch.
    pub fn append(&mut self, other: &ColumnBatch) {
        debug_assert_eq!(self.arity(), other.arity());
        for (c, src) in self.columns.iter_mut().zip(&other.columns) {
            c.append(src);
        }
        self.len += other.len;
    }

    /// Drops every row, keeping column capacity — the scratch-batch reset
    /// between elements of a per-world/per-repair loop.
    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        self.len = 0;
    }

    /// Materializes one row as a tuple (used off the hot path: symbolic
    /// fallbacks and root conversion).
    pub fn tuple_at(&self, row: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.values[row].clone()).collect())
    }

    /// Converts the batch back to a set-semantics relation (the root
    /// conversion; duplicates, if any, merge here).
    pub fn to_relation(&self) -> Relation {
        Relation::from_tuples(self.arity(), (0..self.len).map(|r| self.tuple_at(r)))
    }
}

/// One lazily transposed [`ColumnBatch`] per relation of one database: the
/// leaf batches every scan of the columnar executors reads.
///
/// A slot is filled by the first scan that asks for it and shared by every
/// later scan, on any thread. Its owner decides how long transposes live: a
/// per-call set lives for one execution, while a set owned by a published
/// snapshot's context lives as long as the snapshot. Slots are themselves
/// shared: [`RelationBatches::carry`] gives a successor database the very
/// slot of every relation it still shares with its predecessor, so a batch
/// built on either version serves both.
#[derive(Debug, Default)]
pub struct RelationBatches {
    slots: BTreeMap<String, Arc<OnceLock<Arc<ColumnBatch>>>>,
}

impl RelationBatches {
    /// Empty slots for every relation of `db`.
    pub fn of(db: &Database) -> Self {
        RelationBatches {
            slots: db
                .iter()
                .map(|(name, _)| (name.to_owned(), Arc::default()))
                .collect(),
        }
    }

    /// The slots of `db`, a successor of `prev_db` whose slots are `self`:
    /// every relation the two databases share
    /// ([`Database::shares_relation`]) keeps its slot, built or not, and
    /// every other relation starts empty.
    pub fn carry(&self, prev_db: &Database, db: &Database) -> Self {
        RelationBatches {
            slots: db
                .iter()
                .map(|(name, _)| {
                    let slot = match self.slots.get(name) {
                        Some(slot) if db.shares_relation(prev_db, name) => Arc::clone(slot),
                        _ => Arc::default(),
                    };
                    (name.to_owned(), slot)
                })
                .collect(),
        }
    }

    /// The batch of relation `name` of `db`, which must be the database
    /// these slots were made for: transposed by the first call, shared by
    /// every later one. `None` when `db` has no such relation.
    pub fn get(&self, db: &Database, name: &str) -> Option<Arc<ColumnBatch>> {
        let rel = db.relation(name)?;
        let slot = self.slots.get(name)?;
        Some(Arc::clone(
            slot.get_or_init(|| Arc::new(ColumnBatch::from_relation(rel))),
        ))
    }

    /// The batch of relation `name` if some scan has built it already.
    pub fn built(&self, name: &str) -> Option<&Arc<ColumnBatch>> {
        self.slots.get(name).and_then(|slot| slot.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> ColumnBatch {
        ColumnBatch::from_rows(
            2,
            [
                Tuple::ints(&[1, 10]),
                Tuple::new(vec![Value::int(2), Value::null(0)]),
                Tuple::ints(&[3, 30]),
            ]
            .iter(),
        )
    }

    #[test]
    fn transpose_round_trips_through_relation() {
        let rel = Relation::from_tuples(
            2,
            vec![
                Tuple::ints(&[1, 10]),
                Tuple::new(vec![Value::int(2), Value::null(0)]),
            ],
        );
        let b = ColumnBatch::from_relation(&rel);
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.to_relation(), rel);
    }

    #[test]
    fn sidecar_tracks_null_rows_per_column() {
        let b = batch();
        assert!(b.column(0).is_ground());
        assert_eq!(b.column(1).null_rows(), &[1]);
        assert!(b.key_is_ground(0, &[0, 1]));
        assert!(!b.key_is_ground(1, &[1]));
        assert!(b.row_is_ground(2));
        assert!(!b.row_is_ground(1));
    }

    #[test]
    fn ground_split_fast_path_and_partition() {
        let b = batch();
        assert_eq!(b.ground_split(&[0]), RunSplit::AllGround);
        assert!(b.ground_split(&[0]).is_all_ground());
        match b.ground_split(&[0, 1]) {
            RunSplit::Mixed { ground, symbolic } => {
                assert_eq!(ground, vec![0, 2]);
                assert_eq!(symbolic, vec![1]);
            }
            RunSplit::AllGround => panic!("column 1 carries a null"),
        }
        let split = b.ground_split(&[1]);
        assert_eq!(split.symbolic_len(), 1);
        assert_eq!(split.ground_len(b.len()), 2);
    }

    #[test]
    fn push_gather_and_concat_maintain_the_sidecar() {
        let b = batch();
        let mut proj = ColumnBatch::new(1);
        proj.push_gather(&b, 1, &[1]);
        assert_eq!(proj.value(0, 0), &Value::null(0));
        assert_eq!(proj.column(0).null_rows(), &[0]);

        let mut joined = ColumnBatch::new(4);
        joined.push_concat(&b, 1, &b, 0);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined.tuple_at(0).values()[1], Value::null(0));
        assert_eq!(joined.column(1).null_rows(), &[0]);
        assert!(joined.column(3).is_ground());
    }

    #[test]
    fn gather_selects_rows_in_order() {
        let b = batch();
        let g = b.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.tuple_at(0), Tuple::ints(&[3, 30]));
        assert_eq!(g.tuple_at(1), Tuple::ints(&[1, 10]));
        assert!(g.column(1).is_ground());
        let symbolic = b.gather(&[1]);
        assert_eq!(symbolic.column(1).null_rows(), &[0]);
    }

    #[test]
    fn row_and_key_equality_are_syntactic() {
        let b = batch();
        let other = batch();
        assert!(b.rows_equal(1, &other, 1), "⊥0 equals itself syntactically");
        assert!(!b.rows_equal(0, &other, 2));
        assert!(!b.keys_equal(0, &[1], &other, 2, &[0]), "10 ≠ 3");
    }

    #[test]
    fn keys_equal_pairs_columns_positionally() {
        let b = batch();
        // b row0 = (1, 10); compare col0 of row0 against col0 of row0.
        assert!(b.keys_equal(0, &[0], &b, 0, &[0]));
        assert!(!b.keys_equal(0, &[0], &b, 0, &[1]));
    }

    #[test]
    fn morsel_ranges_cover_exactly() {
        let ranges: Vec<_> = morsel_ranges(10, 4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(morsel_ranges(0, 4).count(), 0);
        assert_eq!(morsel_ranges(3, 0).count(), 3, "zero clamps to 1");
        assert!(morsel_rows() >= 1);
    }

    #[test]
    fn morsel_rows_tracks_the_environment() {
        // Regression: the size was cached in a process-global `OnceLock`, so
        // a `set_var` after the first read silently no-opped. The env must
        // act as a live default seed. (Values stay ≥ 1 throughout so the
        // concurrent `morsel_ranges_cover_exactly` test is unaffected.)
        std::env::set_var(MORSEL_ROWS_ENV, "7");
        assert_eq!(morsel_rows(), 7);
        std::env::set_var(MORSEL_ROWS_ENV, "9");
        assert_eq!(morsel_rows(), 9, "a later set_var must take effect");
        std::env::set_var(MORSEL_ROWS_ENV, "0");
        assert_eq!(morsel_rows(), DEFAULT_MORSEL_ROWS, "zero is rejected");
        std::env::remove_var(MORSEL_ROWS_ENV);
        assert_eq!(morsel_rows(), DEFAULT_MORSEL_ROWS);
    }

    #[test]
    fn gather_into_append_and_clear_reuse_scratch() {
        let b = batch();
        let mut scratch = ColumnBatch::new(2);
        b.gather_into(&[2], &mut scratch);
        b.gather_into(&[1], &mut scratch);
        assert_eq!(scratch.len(), 2);
        assert_eq!(scratch.tuple_at(0), Tuple::ints(&[3, 30]));
        assert_eq!(scratch.column(1).null_rows(), &[1], "sidecar offsets hold");
        let mut out = b.clone();
        out.append(&scratch);
        assert_eq!(out.len(), 5);
        assert_eq!(out.column(1).null_rows(), &[1, 4]);
        scratch.clear();
        assert!(scratch.is_empty());
        assert!(scratch.column(1).is_ground(), "clear drops the sidecar too");
    }

    #[test]
    fn empty_and_zero_arity_batches() {
        let empty = ColumnBatch::new(3);
        assert!(empty.is_empty());
        assert_eq!(empty.to_relation(), Relation::new(3));
        // 0-ary batches still count rows (Boolean query answers).
        let mut b = ColumnBatch::new(0);
        b.push_row(std::iter::empty());
        b.push_tuple(&Tuple::empty());
        assert_eq!(b.len(), 2);
        let rel = b.to_relation();
        assert_eq!(rel.len(), 1, "set semantics merge the empty tuples");
    }

    #[test]
    fn relation_batches_transpose_once_and_carry_shared_slots() {
        let schema = crate::Schema::builder()
            .relation("R", &["a"])
            .relation("S", &["a"])
            .build();
        let mut db = Database::new(schema);
        db.insert("R", Tuple::ints(&[1])).unwrap();
        db.insert("S", Tuple::new(vec![Value::null(0)])).unwrap();

        let batches = RelationBatches::of(&db);
        assert!(batches.built("R").is_none(), "slots start empty");
        let r = batches.get(&db, "R").unwrap();
        assert_eq!(*r, ColumnBatch::from_relation(db.relation("R").unwrap()));
        assert!(Arc::ptr_eq(&r, &batches.get(&db, "R").unwrap()));
        assert!(batches.get(&db, "Missing").is_none());

        let mut next = db.clone();
        next.insert("S", Tuple::ints(&[2])).unwrap();
        let carried = batches.carry(&db, &next);
        assert!(Arc::ptr_eq(&r, carried.built("R").unwrap()), "R is shared");
        assert!(carried.built("S").is_none(), "S was written");
        // Slots themselves are shared: a batch built on the old version
        // after the carry serves the new one too.
        let s_old = batches.get(&db, "S").unwrap();
        assert_eq!(s_old.len(), 1);
        assert_eq!(carried.get(&next, "S").unwrap().len(), 2);
        let fresh = RelationBatches::of(&next);
        let late = fresh.carry(&next, &next);
        let built = fresh.get(&next, "R").unwrap();
        assert!(Arc::ptr_eq(&built, late.built("R").unwrap()));
    }

    #[test]
    fn from_relation_reserves_exact_capacity() {
        let rel = Relation::from_tuples(2, (0..100).map(|i| Tuple::ints(&[i, i])));
        let batch = ColumnBatch::from_relation(&rel);
        for c in &batch.columns {
            assert_eq!(c.values.capacity(), 100);
        }
    }
}
