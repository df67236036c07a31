//! Relations: finite sets of tuples of a fixed arity.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{Constant, NullId, Value};

/// How many tuples a chunk of a built relation holds; an insert splits a
/// chunk that grows past twice this.
const CHUNK: usize = 64;

/// A relation instance: a set of tuples, all of the same arity.
///
/// Set semantics is used throughout (the paper works with sets); tuples are
/// kept in ascending order, which gives deterministic iteration.
///
/// The relation is persistent. Its tuples lie in sorted chunks of at most
/// `2 × 64` tuples, each chunk behind an [`Arc`], in an ordered chunk list
/// that sits behind an [`Arc`] too. Costs, for `n` tuples:
///
/// * `clone` is O(1) and shares the chunk list;
/// * [`Relation::contains`] and a no-op insert or remove binary-search the
///   chunks' last tuples, then one chunk: O(log n);
/// * an [`insert`](Relation::insert) or [`remove`](Relation::remove) that
///   changes a shared relation copies the chunk list's `n / 64` pointers and
///   the one chunk it touches, never the other tuples; on an unshared
///   relation it edits that chunk in place. Dropping the older of two
///   versions frees that one chunk and the list;
/// * [`Relation::iter`] walks the chunks in order: O(n).
///
/// A cached answer handed out to many readers, or a database snapshot and
/// its successor, therefore share their chunks, and a one-tuple write
/// copies one chunk, not the relation. [`Relation::shares_tuples`]
/// observes that sharing. Equality and order are those of the tuple
/// sequence (arity first), whatever the chunk boundaries.
#[derive(Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Relation {
    arity: usize,
    len: usize,
    /// Non-empty chunks, each strictly ascending and wholly below the next.
    chunks: Arc<Vec<Arc<Vec<Tuple>>>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            len: 0,
            chunks: Arc::default(),
        }
    }

    /// A relation of tuples that are already ascending and distinct, cut
    /// into chunks of [`CHUNK`] tuples (one chunk if they fit in one).
    fn of_sorted(arity: usize, mut tuples: Vec<Tuple>) -> Self {
        let len = tuples.len();
        let chunks = if len == 0 {
            Vec::new()
        } else if len <= 2 * CHUNK {
            tuples.shrink_to_fit();
            vec![Arc::new(tuples)]
        } else {
            let mut rest = tuples.into_iter();
            let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
            while rest.len() > 0 {
                chunks.push(Arc::new(rest.by_ref().take(CHUNK).collect()));
            }
            chunks
        };
        Relation {
            arity,
            len,
            chunks: Arc::new(chunks),
        }
    }

    /// Creates a relation from tuples; panics (in debug and test builds) if
    /// the tuples do not all have the stated arity — a programming error in
    /// literals.
    ///
    /// This is the bulk-construction hot path of the physical operators
    /// (every projection, product and join output lands here), so the
    /// per-tuple arity check is a `debug_assert!`: exhaustive in debug and
    /// test builds, reduced in release builds to a single check of the
    /// **first input tuple**. A mixed-arity iterator whose first element
    /// happens to match can therefore slip through in release — callers are
    /// the evaluators, whose output arities the type checker already
    /// proved, and the debug/test suites run the exhaustive check.
    ///
    /// The tuples are sorted, deduplicated and cut into chunks.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut tuples: Vec<Tuple> = tuples.into_iter().collect();
        if let Some(t) = tuples.first() {
            assert_eq!(
                t.arity(),
                arity,
                "tuple {t} has arity {}, relation expects {arity}",
                t.arity()
            );
        }
        for t in &tuples {
            debug_assert_eq!(
                t.arity(),
                arity,
                "tuple {t} has arity {}, relation expects {arity}",
                t.arity()
            );
        }
        tuples.sort_unstable();
        tuples.dedup();
        Relation::of_sorted(arity, tuples)
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk that holds `tuple` if any does, else the one it belongs
    /// in: the first chunk whose last tuple is not below it, or the last
    /// chunk. `0` when there are no chunks.
    fn chunk_of(&self, tuple: &Tuple) -> usize {
        let i = self
            .chunks
            .partition_point(|c| c.last().is_some_and(|last| last < tuple));
        i.min(self.chunks.len().saturating_sub(1))
    }

    /// Inserts a tuple. Returns `true` if it was not already present.
    /// Panics on arity mismatch (checked insertion happens at database level).
    /// When the tuple is new and the relation shared, copies the chunk list
    /// and the chunk the tuple goes into.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "arity mismatch inserting {tuple}"
        );
        let i = self.chunk_of(&tuple);
        let at = match self.chunks.get(i).map(|c| c.binary_search(&tuple)) {
            Some(Ok(_)) => return false,
            Some(Err(at)) => at,
            None => {
                Arc::make_mut(&mut self.chunks).push(Arc::new(vec![tuple]));
                self.len = 1;
                return true;
            }
        };
        let chunks = Arc::make_mut(&mut self.chunks);
        let chunk = Arc::make_mut(&mut chunks[i]);
        chunk.insert(at, tuple);
        if chunk.len() > 2 * CHUNK {
            let upper = chunk.split_off(chunk.len() / 2);
            chunks.insert(i + 1, Arc::new(upper));
        }
        self.len += 1;
        true
    }

    /// Removes a tuple; returns whether it was present. When it was and the
    /// relation is shared, copies the chunk list and the chunk that held it
    /// (a chunk it empties is dropped instead).
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let i = self.chunk_of(tuple);
        let Some(Ok(at)) = self.chunks.get(i).map(|c| c.binary_search(tuple)) else {
            return false;
        };
        let chunks = Arc::make_mut(&mut self.chunks);
        if chunks[i].len() == 1 {
            chunks.remove(i);
        } else {
            Arc::make_mut(&mut chunks[i]).remove(at);
        }
        self.len -= 1;
        true
    }

    /// Does this relation share its chunk list with `other` (one is a clone
    /// of the other that neither side wrote to since)? Shared relations are
    /// equal; unshared ones may or may not be.
    pub fn shares_tuples(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.chunks, &other.chunks)
    }

    /// Does the relation contain this tuple?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.chunks
            .get(self.chunk_of(tuple))
            .is_some_and(|c| c.binary_search(tuple).is_ok())
    }

    /// Iterates over the tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// The tuples in order, moved out of every chunk this relation alone
    /// holds and cloned from the others.
    fn into_tuples(self) -> impl Iterator<Item = Tuple> {
        Arc::unwrap_or_clone(self.chunks)
            .into_iter()
            .flat_map(Arc::unwrap_or_clone)
    }

    /// Does the relation contain no nulls?
    pub fn is_complete(&self) -> bool {
        self.iter().all(Tuple::is_complete)
    }

    /// Set of nulls occurring in the relation.
    pub fn null_ids(&self) -> BTreeSet<NullId> {
        self.iter().flat_map(|t| t.null_ids()).collect()
    }

    /// Set of constants occurring in the relation.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.iter().flat_map(|t| t.constants()).collect()
    }

    /// The *complete part*: the sub-relation of tuples without nulls.
    ///
    /// This is the `D_cmpl` operation of the paper — taking the complete part
    /// of a naïvely evaluated answer yields the classical certain answers for
    /// queries where naïve evaluation works.
    pub fn complete_part(&self) -> Relation {
        let tuples = self.iter().filter(|t| t.is_complete());
        Relation::of_sorted(self.arity, tuples.cloned().collect())
    }

    /// Applies a valuation to every tuple. Note that distinct tuples may be
    /// merged (set semantics).
    pub fn apply(&self, v: &Valuation) -> Relation {
        Relation::from_tuples(self.arity, self.iter().map(|t| t.apply(v)))
    }

    /// Applies an arbitrary value-level mapping to nulls (e.g. a homomorphism).
    pub fn map_nulls(&self, f: &mut impl FnMut(NullId) -> Value) -> Relation {
        Relation::from_tuples(self.arity, self.iter().map(|t| t.map_nulls(f)))
    }

    /// The tuples of a sorted merge of `self` and `other` that `keep`
    /// accepts, given whether each is in `self` and whether in `other`.
    fn merge(&self, other: &Relation, keep: impl Fn(bool, bool) -> bool) -> Relation {
        let (mut left, mut right) = (self.iter(), other.iter());
        let (mut l, mut r) = (left.next(), right.next());
        let mut out = Vec::new();
        loop {
            let (t, in_left, in_right) = match (l, r) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => (x, true, false),
                    Ordering::Equal => (x, true, true),
                    Ordering::Greater => (y, false, true),
                },
                (Some(x), None) => (x, true, false),
                (None, Some(y)) => (y, false, true),
                (None, None) => break,
            };
            if keep(in_left, in_right) {
                out.push(t.clone());
            }
            if in_left {
                l = left.next();
            }
            if in_right {
                r = right.next();
            }
        }
        Relation::of_sorted(self.arity, out)
    }

    /// Set union with another relation of the same arity, as a sorted
    /// merge.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "union of relations with different arities"
        );
        self.merge(other, |_, _| true)
    }

    /// Set union that consumes both operands: the smaller relation's tuples
    /// are inserted into the larger one, moved out of chunks the smaller
    /// alone holds. Equal to [`Relation::union`], but the larger operand's
    /// chunks that take in no tuple stay shared, and only those that do are
    /// copied (when shared) — the shape of a fold's merges, where a large
    /// stable answer takes in a few volatile rows.
    pub fn into_union(self, other: Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "union of relations with different arities"
        );
        let (mut large, small) = if self.len() >= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.is_empty() || large.shares_tuples(&small) {
            return large;
        }
        for t in small.into_tuples() {
            large.insert(t);
        }
        large
    }

    /// Set difference with another relation of the same arity, as a sorted
    /// merge.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "difference of relations with different arities"
        );
        self.merge(other, |in_self, in_other| in_self && !in_other)
    }

    /// Set intersection with another relation of the same arity, as a
    /// sorted merge.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "intersection of relations with different arities"
        );
        self.merge(other, |in_self, in_other| in_self && in_other)
    }

    /// Is this relation a subset of the other? A sorted merge: each tuple
    /// of `self` is looked for in what follows the previous one in `other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        let mut rest = other.iter();
        self.arity == other.arity
            && self.len <= other.len
            && self.iter().all(|t| rest.any(|u| u == t))
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.len == other.len
            && (self.shares_tuples(other) || self.iter().eq(other.iter()))
    }
}

impl Eq for Relation {}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Relation) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    /// Arity first, then the tuple sequences lexicographically.
    fn cmp(&self, other: &Relation) -> Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| self.iter().cmp(other.iter()))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Tuples<'a>(&'a Relation);
        impl fmt::Debug for Tuples<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Relation")
            .field("arity", &self.arity)
            .field("tuples", &Tuples(self))
            .finish()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Builds a relation from tuples, inferring the arity from the first
    /// tuple; an empty iterator yields an empty 0-ary relation.
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let tuples: Vec<Tuple> = iter.into_iter().collect();
        let arity = tuples.first().map_or(0, Tuple::arity);
        Relation::from_tuples(arity, tuples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Constant;

    fn r_paper() -> Relation {
        // R = {(1,⊥), (⊥,2)} — the tableau example of §4 of the paper.
        Relation::from_tuples(
            2,
            vec![
                Tuple::new(vec![Value::int(1), Value::null(0)]),
                Tuple::new(vec![Value::null(0), Value::int(2)]),
            ],
        )
    }

    #[test]
    fn basics() {
        let r = r_paper();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(!r.is_complete());
        assert_eq!(r.null_ids().len(), 1);
        assert_eq!(r.constants().len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_on_insert() {
        let mut r = Relation::new(2);
        r.insert(Tuple::ints(&[1]));
    }

    #[test]
    fn insert_remove_contains() {
        let mut r = Relation::new(1);
        assert!(r.insert(Tuple::ints(&[1])));
        assert!(
            !r.insert(Tuple::ints(&[1])),
            "set semantics: duplicate insert is a no-op"
        );
        assert!(r.contains(&Tuple::ints(&[1])));
        assert!(r.remove(&Tuple::ints(&[1])));
        assert!(!r.remove(&Tuple::ints(&[1])));
        assert!(r.is_empty());
    }

    #[test]
    fn complete_part_keeps_null_free_tuples() {
        let r = Relation::from_tuples(
            2,
            vec![
                Tuple::ints(&[1, 2]),
                Tuple::new(vec![Value::int(2), Value::null(0)]),
            ],
        );
        let c = r.complete_part();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&Tuple::ints(&[1, 2])));
    }

    #[test]
    fn apply_valuation_can_merge_tuples() {
        // {(⊥0), (⊥1)} under ⊥0,⊥1 ↦ 5 collapses to {(5)}
        let r = Relation::from_tuples(
            1,
            vec![
                Tuple::new(vec![Value::null(0)]),
                Tuple::new(vec![Value::null(1)]),
            ],
        );
        let v = Valuation::from_pairs(vec![
            (NullId(0), Constant::Int(5)),
            (NullId(1), Constant::Int(5)),
        ]);
        let applied = r.apply(&v);
        assert_eq!(applied.len(), 1);
        assert!(applied.is_complete());
    }

    #[test]
    fn set_operations() {
        let a = Relation::from_tuples(1, vec![Tuple::ints(&[1]), Tuple::ints(&[2])]);
        let b = Relation::from_tuples(1, vec![Tuple::ints(&[2]), Tuple::ints(&[3])]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b).len(), 1);
        assert_eq!(a.intersection(&b).len(), 1);
        assert!(a.intersection(&b).contains(&Tuple::ints(&[2])));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = vec![Tuple::ints(&[1, 2])].into_iter().collect();
        assert_eq!(r.arity(), 2);
        let empty: Relation = Vec::<Tuple>::new().into_iter().collect();
        assert_eq!(empty.arity(), 0);
    }

    /// The chunk invariants: non-empty chunks of at most `2 * CHUNK`
    /// tuples, ascending within and across chunks, summing to `len`.
    fn assert_chunked(r: &Relation) {
        assert!(r
            .chunks
            .iter()
            .all(|c| !c.is_empty() && c.len() <= 2 * CHUNK));
        assert!(r.iter().zip(r.iter().skip(1)).all(|(a, b)| a < b));
        assert_eq!(r.chunks.iter().map(|c| c.len()).sum::<usize>(), r.len());
    }

    #[test]
    fn inserts_split_chunks_and_removes_drop_emptied_ones() {
        let mut r = Relation::new(1);
        for i in 0..1_000 {
            r.insert(Tuple::ints(&[(i * 7) % 1_000]));
            assert_chunked(&r);
        }
        assert!(r.chunks.len() > 1_000 / (2 * CHUNK));
        let built = Relation::from_tuples(1, (0..1_000).map(|i| Tuple::ints(&[i])));
        assert_chunked(&built);
        assert_eq!(r, built, "equal across different chunk boundaries");
        for i in 0..1_000 {
            assert!(r.remove(&Tuple::ints(&[(i * 3) % 1_000])));
            assert_chunked(&r);
        }
        assert!(r.is_empty() && r.chunks.is_empty());
    }

    #[test]
    fn a_write_to_a_clone_copies_at_most_two_chunks() {
        let tuples = || (0..4_096).map(|i| Tuple::ints(&[i / 64, i % 64]));
        let original = Relation::from_tuples(2, tuples());
        let mut edited = original.clone();
        assert!(edited.insert(Tuple::ints(&[10, 1_000])));
        assert!(edited.remove(&Tuple::ints(&[50, 3])));
        let shared = original
            .chunks
            .iter()
            .filter(|c| edited.chunks.iter().any(|e| Arc::ptr_eq(c, e)))
            .count();
        assert!(
            shared + 2 >= original.chunks.len(),
            "{shared} of {} chunks shared",
            original.chunks.len()
        );
        assert_eq!(original, Relation::from_tuples(2, tuples()));
        assert!(original.contains(&Tuple::ints(&[50, 3])));
        assert!(!original.contains(&Tuple::ints(&[10, 1_000])));
        assert_eq!((original.len(), edited.len()), (4_096, 4_096));
        assert_chunked(&edited);
    }

    #[test]
    fn display() {
        let r = Relation::from_tuples(1, vec![Tuple::ints(&[1]), Tuple::ints(&[2])]);
        assert_eq!(r.to_string(), "{(1), (2)}");
    }
}
