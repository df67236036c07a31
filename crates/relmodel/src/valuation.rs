//! Valuations of nulls: mappings `Null → Const`, and their enumeration over a
//! finite constant domain.
//!
//! A valuation `v` interprets each marked null by a constant. Applying `v` to
//! a database `D` yields `v(D)`, a complete database. The closed-world
//! semantics of `D` is the set of all such `v(D)`; the open-world semantics
//! additionally allows adding tuples (see [`crate::semantics`]).
//!
//! Certain answers require quantifying over *all* valuations, an infinite set.
//! For generic queries (all of relational algebra / FO) it suffices to range
//! over a finite domain containing the constants of the database and query
//! plus enough fresh constants to allow the nulls to be pairwise distinct and
//! distinct from everything else; [`ValuationEnumerator`] enumerates exactly
//! those valuations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::value::{Constant, NullId, Value};

/// A (partial) mapping from nulls to constants.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Valuation {
    map: BTreeMap<NullId, Constant>,
}

impl Valuation {
    /// Creates the empty valuation.
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Creates a valuation from pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NullId, Constant)>) -> Self {
        Valuation {
            map: pairs.into_iter().collect(),
        }
    }

    /// Assigns a constant to a null (overwriting any previous assignment).
    pub fn assign(&mut self, null: NullId, constant: Constant) {
        self.map.insert(null, constant);
    }

    /// Looks up the constant assigned to a null.
    pub fn get(&self, null: NullId) -> Option<&Constant> {
        self.map.get(&null)
    }

    /// Is the valuation defined on this null?
    pub fn covers(&self, null: NullId) -> bool {
        self.map.contains_key(&null)
    }

    /// Does the valuation cover every null in the given set?
    pub fn covers_all<'a>(&self, nulls: impl IntoIterator<Item = &'a NullId>) -> bool {
        nulls.into_iter().all(|n| self.covers(*n))
    }

    /// Number of nulls assigned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the valuation empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over the assignments in null order.
    pub fn iter(&self) -> impl Iterator<Item = (&NullId, &Constant)> {
        self.map.iter()
    }

    /// Applies the valuation to a single value. Constants are unchanged; nulls
    /// are replaced if covered and left in place otherwise.
    pub fn apply_value(&self, value: &Value) -> Value {
        match value {
            Value::Const(_) => value.clone(),
            Value::Null(n) => match self.map.get(n) {
                Some(c) => Value::Const(c.clone()),
                None => value.clone(),
            },
        }
    }

    /// Is this valuation injective on its domain (distinct nulls mapped to
    /// distinct constants)?
    pub fn is_injective(&self) -> bool {
        let mut seen = BTreeSet::new();
        self.map.values().all(|c| seen.insert(c.clone()))
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, c)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}↦{c}")?;
        }
        write!(f, "}}")
    }
}

/// Exhaustively enumerates all valuations of a fixed set of nulls into a fixed
/// finite set of constants.
///
/// The number of valuations is `|domain|^|nulls|`, so callers should keep the
/// null count small (this enumerator is the *ground truth* against which the
/// efficient algorithms are validated; its exponential cost is exactly the
/// complexity gap the paper discusses).
#[derive(Debug, Clone)]
pub struct ValuationEnumerator {
    nulls: Vec<NullId>,
    domain: Vec<Constant>,
    /// Mixed-radix counter over the domain, one digit per null; `None` once
    /// exhausted.
    counter: Option<Vec<usize>>,
    /// Valuations still to be produced (supports range sharding).
    remaining: u128,
}

impl ValuationEnumerator {
    /// Creates an enumerator over the given nulls and constant domain.
    ///
    /// If `nulls` is empty, exactly one (empty) valuation is produced. If the
    /// domain is empty but there are nulls, no valuation is produced.
    pub fn new(nulls: impl IntoIterator<Item = NullId>, domain: Vec<Constant>) -> Self {
        let nulls: Vec<NullId> = {
            let set: BTreeSet<NullId> = nulls.into_iter().collect();
            set.into_iter().collect()
        };
        let remaining = valuation_space_size(nulls.len(), domain.len());
        let counter = if remaining == 0 {
            None
        } else {
            Some(vec![0; nulls.len()])
        };
        ValuationEnumerator {
            nulls,
            domain,
            counter,
            remaining,
        }
    }

    /// Creates an enumerator over the sub-range `[start, end)` of the full
    /// valuation sequence, in the same order [`ValuationEnumerator::new`]
    /// uses. Contiguous ranges therefore partition the space exactly, which
    /// is how the enumeration folds cut one component's valuations across
    /// worker threads.
    pub fn with_range(
        nulls: impl IntoIterator<Item = NullId>,
        domain: Vec<Constant>,
        start: u128,
        end: u128,
    ) -> Self {
        let mut e = ValuationEnumerator::new(nulls, domain);
        e.rewind(start, end);
        e
    }

    /// Total number of valuations in the full space `|domain|^|nulls|`
    /// (regardless of any range restriction).
    pub fn count_total(&self) -> u128 {
        valuation_space_size(self.nulls.len(), self.domain.len())
    }

    /// Number of valuations this enumerator has yet to produce.
    pub fn count_remaining(&self) -> u128 {
        self.remaining
    }

    /// Starts over on the sub-range `[start, end)` of the valuations of
    /// `nulls`, as [`ValuationEnumerator::with_range`] would, reusing the
    /// domain.
    pub fn reset(&mut self, nulls: impl IntoIterator<Item = NullId>, start: u128, end: u128) {
        self.nulls.clear();
        self.nulls.extend(nulls);
        self.nulls.sort_unstable();
        self.nulls.dedup();
        self.rewind(start, end);
    }

    /// Starts over on the sub-range `[start, end)` of the full space, as
    /// [`ValuationEnumerator::with_range`] would, reusing the domain.
    fn rewind(&mut self, start: u128, end: u128) {
        let end = end.min(self.count_total());
        if start >= end {
            self.counter = None;
            self.remaining = 0;
            return;
        }
        // Decode `start` into mixed-radix digits (least significant first,
        // matching the advance order of `next`).
        let radix = self.domain.len() as u128;
        let mut rest = start;
        let counter = self.counter.get_or_insert_with(Vec::new);
        counter.clear();
        counter.extend(self.nulls.iter().map(|_| {
            let digit = (rest % radix) as usize;
            rest /= radix;
            digit
        }));
        self.remaining = end - start;
    }
}

/// `|domain|^|nulls|` (saturating), with the conventions every consumer of
/// the valuation space must agree on: zero nulls admit exactly one (empty)
/// valuation, and a nonzero null count over an empty domain admits none.
/// This is the single source of truth shared by [`ValuationEnumerator`],
/// world iteration, and the planner-side world-count estimates.
pub fn valuation_space_size(nulls: usize, domain: usize) -> u128 {
    if nulls == 0 {
        return 1;
    }
    if domain == 0 {
        return 0;
    }
    (domain as u128).saturating_pow(nulls as u32)
}

impl Iterator for ValuationEnumerator {
    type Item = Valuation;

    fn next(&mut self) -> Option<Valuation> {
        if self.remaining == 0 {
            self.counter = None;
            return None;
        }
        let counter = self.counter.as_mut()?;
        let valuation = Valuation::from_pairs(
            self.nulls
                .iter()
                .zip(counter.iter())
                .map(|(n, &d)| (*n, self.domain[d].clone())),
        );
        self.remaining -= 1;
        // advance the mixed-radix counter
        let mut i = 0;
        loop {
            if i == counter.len() {
                self.counter = None;
                break;
            }
            counter[i] += 1;
            if counter[i] < self.domain.len() {
                break;
            }
            counter[i] = 0;
            i += 1;
        }
        Some(valuation)
    }
}

/// Builds a "fresh constant" domain: the provided base constants plus `extra`
/// fresh string constants guaranteed not to collide with the base (they are of
/// the form `"_fresh_k"`; callers using that prefix themselves are out of
/// scope).
pub fn domain_with_fresh(base: &BTreeSet<Constant>, extra: usize) -> Vec<Constant> {
    let mut domain: Vec<Constant> = base.iter().cloned().collect();
    let mut k = 0;
    while domain.len() < base.len() + extra {
        let candidate = Constant::Str(format!("_fresh_{k}"));
        if !base.contains(&candidate) {
            domain.push(candidate);
        }
        k += 1;
    }
    domain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consts(ints: &[i64]) -> Vec<Constant> {
        ints.iter().map(|i| Constant::Int(*i)).collect()
    }

    #[test]
    fn empty_nulls_yields_single_empty_valuation() {
        let vs: Vec<_> = ValuationEnumerator::new(vec![], consts(&[1, 2])).collect();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].is_empty());
    }

    #[test]
    fn empty_domain_with_nulls_yields_nothing() {
        let e = ValuationEnumerator::new(vec![NullId(0)], vec![]);
        assert_eq!(e.count_total(), 0);
        assert_eq!(e.count(), 0);
    }

    #[test]
    fn enumerates_all_combinations() {
        let e = ValuationEnumerator::new(vec![NullId(0), NullId(1)], consts(&[1, 2, 3]));
        assert_eq!(e.count_total(), 9);
        let all: Vec<Valuation> = e.collect();
        assert_eq!(all.len(), 9);
        // all distinct
        let set: BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 9);
        // each covers both nulls
        for v in &all {
            assert!(v.covers(NullId(0)) && v.covers(NullId(1)));
        }
    }

    #[test]
    fn ranges_partition_the_valuation_space() {
        let nulls = vec![NullId(0), NullId(1)];
        let full: Vec<Valuation> =
            ValuationEnumerator::new(nulls.clone(), consts(&[1, 2, 3])).collect();
        assert_eq!(full.len(), 9);
        let mut sharded: Vec<Valuation> = Vec::new();
        for (start, end) in [(0u128, 3u128), (3, 6), (6, 200)] {
            let shard =
                ValuationEnumerator::with_range(nulls.clone(), consts(&[1, 2, 3]), start, end);
            sharded.extend(shard);
        }
        assert_eq!(sharded, full, "contiguous ranges cover each valuation once");
        // Degenerate ranges.
        let empty = ValuationEnumerator::with_range(nulls.clone(), consts(&[1, 2]), 3, 3);
        assert_eq!(empty.count_remaining(), 0);
        assert_eq!(empty.count(), 0);
        let no_nulls = ValuationEnumerator::with_range(vec![], consts(&[1]), 0, 5);
        assert_eq!(no_nulls.count(), 1, "empty-null space has one valuation");
    }

    #[test]
    fn rewind_replays_the_whole_space() {
        let mut e = ValuationEnumerator::new(vec![NullId(0), NullId(1)], consts(&[1, 2, 3]));
        let first: Vec<Valuation> = e.by_ref().take(4).collect();
        e.rewind(0, u128::MAX);
        let full: Vec<Valuation> = e.by_ref().collect();
        assert_eq!((full.len(), &full[..4]), (9, &first[..]));
        e.rewind(0, u128::MAX);
        assert_eq!(e.by_ref().count(), 9, "an exhausted enumerator rewinds too");
        e.rewind(2, 5);
        assert_eq!(e.collect::<Vec<_>>(), full[2..5], "and onto a range");
    }

    #[test]
    fn duplicate_nulls_are_deduplicated() {
        let e = ValuationEnumerator::new(vec![NullId(3), NullId(3)], consts(&[1, 2]));
        assert_eq!(e.count_total(), 2);
    }

    #[test]
    fn apply_value_behaviour() {
        let v = Valuation::from_pairs(vec![(NullId(0), Constant::Int(9))]);
        assert_eq!(v.apply_value(&Value::null(0)), Value::int(9));
        assert_eq!(v.apply_value(&Value::null(1)), Value::null(1));
        assert_eq!(v.apply_value(&Value::int(4)), Value::int(4));
        assert!(v.covers(NullId(0)));
        assert!(!v.covers(NullId(1)));
        assert!(v.covers_all(&[NullId(0)]));
        assert!(!v.covers_all(&[NullId(0), NullId(1)]));
    }

    #[test]
    fn injectivity() {
        let inj = Valuation::from_pairs(vec![
            (NullId(0), Constant::Int(1)),
            (NullId(1), Constant::Int(2)),
        ]);
        assert!(inj.is_injective());
        let non = Valuation::from_pairs(vec![
            (NullId(0), Constant::Int(1)),
            (NullId(1), Constant::Int(1)),
        ]);
        assert!(!non.is_injective());
    }

    #[test]
    fn fresh_domain_has_requested_size_and_no_collisions() {
        let base: BTreeSet<Constant> = vec![Constant::Int(1), Constant::Str("_fresh_0".into())]
            .into_iter()
            .collect();
        let d = domain_with_fresh(&base, 3);
        assert_eq!(d.len(), 5);
        let set: BTreeSet<_> = d.iter().cloned().collect();
        assert_eq!(
            set.len(),
            5,
            "fresh constants must not collide with the base"
        );
    }

    #[test]
    fn display() {
        let v = Valuation::from_pairs(vec![(NullId(1), Constant::Int(5))]);
        assert_eq!(v.to_string(), "{⊥1↦5}");
    }
}
