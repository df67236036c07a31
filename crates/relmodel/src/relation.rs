//! Relations: finite sets of tuples of a fixed arity.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{Constant, NullId, Value};

/// A relation instance: a set of tuples, all of the same arity.
///
/// Set semantics is used throughout (the paper works with sets); tuples are
/// stored in a `BTreeSet` to get deterministic iteration order.
///
/// The tuple set sits behind an [`Arc`] and is copied on write: `clone` is
/// O(1) and shares the set, and [`Relation::insert`]/[`Relation::remove`]
/// copy it only when it is shared and the call changes it. A cached answer
/// handed out to many readers, or a database snapshot and its successor,
/// therefore share their tuples until one of them writes.
/// [`Relation::shares_tuples`] observes that sharing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Relation {
    arity: usize,
    tuples: Arc<BTreeSet<Tuple>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation::of_set(arity, BTreeSet::new())
    }

    fn of_set(arity: usize, tuples: BTreeSet<Tuple>) -> Self {
        Relation {
            arity,
            tuples: Arc::new(tuples),
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
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        // Collecting through `FromIterator` lets the standard library take its
        // sort-and-bulk-build path for `BTreeSet`, which is markedly faster
        // than tuple-at-a-time insertion for large intermediate results.
        let mut first_checked = false;
        let tuples: BTreeSet<Tuple> = tuples
            .into_iter()
            .inspect(|t| {
                debug_assert_eq!(
                    t.arity(),
                    arity,
                    "tuple {t} has arity {}, relation expects {arity}",
                    t.arity()
                );
                if !first_checked {
                    first_checked = true;
                    assert_eq!(
                        t.arity(),
                        arity,
                        "tuple {t} has arity {}, relation expects {arity}",
                        t.arity()
                    );
                }
            })
            .collect();
        Relation::of_set(arity, tuples)
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple. Returns `true` if it was not already present.
    /// Panics on arity mismatch (checked insertion happens at database level).
    /// Copies the tuple set first when it is shared and the tuple is new.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        assert_eq!(
            tuple.arity(),
            self.arity,
            "arity mismatch inserting {tuple}"
        );
        if Arc::get_mut(&mut self.tuples).is_none() && self.tuples.contains(&tuple) {
            return false;
        }
        Arc::make_mut(&mut self.tuples).insert(tuple)
    }

    /// Removes a tuple; returns whether it was present. Copies the tuple set
    /// first when it is shared and holds the tuple.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if Arc::get_mut(&mut self.tuples).is_none() && !self.tuples.contains(tuple) {
            return false;
        }
        Arc::make_mut(&mut self.tuples).remove(tuple)
    }

    /// Does this relation share its tuple set with `other` (one is a clone
    /// of the other that neither side wrote to since)? Shared relations are
    /// equal; unshared ones may or may not be.
    pub fn shares_tuples(&self, other: &Relation) -> bool {
        Arc::ptr_eq(&self.tuples, &other.tuples)
    }

    /// Does the relation contain this tuple?
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterates over the tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// The underlying tuple set.
    pub fn tuples(&self) -> &BTreeSet<Tuple> {
        &self.tuples
    }

    /// Does the relation contain no nulls?
    pub fn is_complete(&self) -> bool {
        self.tuples.iter().all(Tuple::is_complete)
    }

    /// Set of nulls occurring in the relation.
    pub fn null_ids(&self) -> BTreeSet<NullId> {
        self.tuples.iter().flat_map(|t| t.null_ids()).collect()
    }

    /// Set of constants occurring in the relation.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.tuples.iter().flat_map(|t| t.constants()).collect()
    }

    /// The *complete part*: the sub-relation of tuples without nulls.
    ///
    /// This is the `D_cmpl` operation of the paper — taking the complete part
    /// of a naïvely evaluated answer yields the classical certain answers for
    /// queries where naïve evaluation works.
    pub fn complete_part(&self) -> Relation {
        let tuples = self.tuples.iter().filter(|t| t.is_complete());
        Relation::of_set(self.arity, tuples.cloned().collect())
    }

    /// Applies a valuation to every tuple. Note that distinct tuples may be
    /// merged (set semantics).
    pub fn apply(&self, v: &Valuation) -> Relation {
        Relation::of_set(self.arity, self.tuples.iter().map(|t| t.apply(v)).collect())
    }

    /// Applies an arbitrary value-level mapping to nulls (e.g. a homomorphism).
    pub fn map_nulls(&self, f: &mut impl FnMut(NullId) -> Value) -> Relation {
        let tuples = self.tuples.iter().map(|t| t.map_nulls(f));
        Relation::of_set(self.arity, tuples.collect())
    }

    /// Set union with another relation of the same arity.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "union of relations with different arities"
        );
        Relation::of_set(
            self.arity,
            self.tuples.union(&other.tuples).cloned().collect(),
        )
    }

    /// Set union that consumes both operands: the smaller set's tuples move
    /// into the larger set, which is copied only when it is shared. Equal
    /// to [`Relation::union`], without copying the larger operand when this
    /// is its only handle — the shape of a fold's merges, where a large
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
        let into = Arc::make_mut(&mut large.tuples);
        match Arc::try_unwrap(small.tuples) {
            Ok(owned) => into.extend(owned),
            Err(shared) => into.extend(shared.iter().cloned()),
        }
        large
    }

    /// Set difference with another relation of the same arity.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "difference of relations with different arities"
        );
        Relation::of_set(
            self.arity,
            self.tuples.difference(&other.tuples).cloned().collect(),
        )
    }

    /// Set intersection with another relation of the same arity.
    pub fn intersection(&self, other: &Relation) -> Relation {
        assert_eq!(
            self.arity, other.arity,
            "intersection of relations with different arities"
        );
        Relation::of_set(
            self.arity,
            self.tuples.intersection(&other.tuples).cloned().collect(),
        )
    }

    /// Is this relation a subset of the other?
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.tuples.is_subset(&other.tuples)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
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

    #[test]
    fn display() {
        let r = Relation::from_tuples(1, vec![Tuple::ints(&[1]), Tuple::ints(&[2])]);
        assert_eq!(r.to_string(), "{(1), (2)}");
    }
}
