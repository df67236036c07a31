//! Databases: schema plus one relation instance per relation symbol.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::ModelError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{Constant, NullId, Value};

/// An (incomplete) relational database: an instance of a [`Schema`] whose
/// relations may contain marked nulls.
///
/// Terminology following the paper:
/// * a **naïve database** is any such instance (nulls may repeat);
/// * a **Codd database** is one where every null occurs at most once
///   ([`Database::is_codd`]) — this models SQL's unmarked `NULL`;
/// * a **complete database** has no nulls at all ([`Database::is_complete`]).
///
/// Relations are persistent ([`Relation`]), so the database is too: `clone`
/// copies one pointer per relation, and a clone that inserts one tuple into
/// `R` (through [`Database::insert`] or [`Database::relation_mut`]) copies
/// `R`'s chunk list and the one chunk the tuple lands in, sharing the rest
/// of `R` and every other relation with the original;
/// [`Database::set_relation`] replaces one. [`Database::shares_relation`]
/// observes that sharing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Database {
    schema: Schema,
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates an empty database over the given schema (every relation empty).
    pub fn new(schema: Schema) -> Self {
        let relations = schema
            .iter()
            .map(|rs| (rs.name.clone(), Relation::new(rs.arity())))
            .collect();
        Database { schema, relations }
    }

    /// The schema of the database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Does the named relation of `self` share its storage with the same
    /// relation of `other` (one is a clone of the other that neither side
    /// wrote to since)? Shared relations are equal; unshared ones may or may
    /// not be. `false` when either side lacks the relation.
    pub fn shares_relation(&self, other: &Database, name: &str) -> bool {
        match (self.relations.get(name), other.relations.get(name)) {
            (Some(a), Some(b)) => a.shares_tuples(b),
            _ => false,
        }
    }

    /// Looks up a relation by name, or returns an error.
    pub fn require(&self, name: &str) -> Result<&Relation, ModelError> {
        self.relation(name)
            .ok_or_else(|| ModelError::UnknownRelation(name.to_owned()))
    }

    /// Mutable access to a relation by name. A write through it copies the
    /// relation first when it is shared with a clone of this database.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Iterates over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Inserts a tuple into the named relation, checking arity. Copies the
    /// relation first when it is shared with a clone of this database and
    /// the tuple is new to it; re-inserting a present tuple copies nothing.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool, ModelError> {
        let rs = self.schema.require(relation)?;
        if tuple.arity() != rs.arity() {
            return Err(ModelError::ArityMismatch {
                relation: relation.to_owned(),
                expected: rs.arity(),
                actual: tuple.arity(),
            });
        }
        let rel = self
            .relations
            .get_mut(relation)
            .expect("schema relation always has an instance");
        Ok(rel.insert(tuple))
    }

    /// Inserts many tuples into the named relation.
    pub fn insert_all(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), ModelError> {
        for t in tuples {
            self.insert(relation, t)?;
        }
        Ok(())
    }

    /// Replaces the instance of a relation wholesale (arity checked).
    pub fn set_relation(&mut self, name: &str, relation: Relation) -> Result<(), ModelError> {
        let rs = self.schema.require(name)?;
        if relation.arity() != rs.arity() && !relation.is_empty() {
            return Err(ModelError::ArityMismatch {
                relation: name.to_owned(),
                expected: rs.arity(),
                actual: relation.arity(),
            });
        }
        let fixed = if relation.is_empty() && relation.arity() != rs.arity() {
            Relation::new(rs.arity())
        } else {
            relation
        };
        self.relations.insert(name.to_owned(), fixed);
        Ok(())
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// All violations of the schema's integrity constraints, as witness
    /// tuples (see [`crate::constraint`] for the syntactic semantics over
    /// marked nulls).
    pub fn violations(&self) -> Vec<crate::constraint::Violation> {
        self.schema
            .constraints()
            .iter()
            .flat_map(|c| crate::constraint::violations_of(c, self))
            .collect()
    }

    /// Does the database satisfy every constraint of its schema?
    /// Early-exits on the first violation.
    pub fn is_consistent(&self) -> bool {
        self.schema
            .constraints()
            .iter()
            .all(|c| !crate::constraint::violates(c, self))
    }

    /// Is every relation free of nulls?
    pub fn is_complete(&self) -> bool {
        self.relations.values().all(|r| r.is_complete())
    }

    /// Does every null occur at most once across the whole database?
    /// (Codd databases model SQL's unmarked nulls.)
    pub fn is_codd(&self) -> bool {
        let mut seen: BTreeSet<NullId> = BTreeSet::new();
        for rel in self.relations.values() {
            for t in rel.iter() {
                for v in t.values() {
                    if let Value::Null(n) = v {
                        if !seen.insert(*n) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// All nulls occurring in the database: `Null(D)`.
    pub fn null_ids(&self) -> BTreeSet<NullId> {
        self.relations.values().flat_map(|r| r.null_ids()).collect()
    }

    /// All constants occurring in the database: `Const(D)`.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.relations
            .values()
            .flat_map(|r| r.constants())
            .collect()
    }

    /// The active domain `adom(D) = Const(D) ∪ Null(D)` as values.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut out: BTreeSet<Value> = self.constants().into_iter().map(Value::Const).collect();
        out.extend(self.null_ids().into_iter().map(Value::Null));
        out
    }

    /// The complete part `D_cmpl`: all tuples without nulls.
    pub fn complete_part(&self) -> Database {
        Database {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), r.complete_part()))
                .collect(),
        }
    }

    /// Applies a valuation to every relation, producing `v(D)`.
    ///
    /// Returns an error if the valuation does not cover every null of the
    /// database (a valuation must be total on `Null(D)`).
    pub fn apply(&self, v: &Valuation) -> Result<Database, ModelError> {
        for n in self.null_ids() {
            if !v.covers(n) {
                return Err(ModelError::IncompleteValuation { null: n.0 });
            }
        }
        Ok(self.apply_partial(v))
    }

    /// Applies a (possibly partial) valuation, leaving uncovered nulls intact.
    pub fn apply_partial(&self, v: &Valuation) -> Database {
        Database {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), r.apply(v)))
                .collect(),
        }
    }

    /// Applies an arbitrary mapping to nulls in every relation (used for
    /// homomorphisms and null renaming).
    pub fn map_nulls(&self, f: &mut impl FnMut(NullId) -> Value) -> Database {
        Database {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), r.map_nulls(f)))
                .collect(),
        }
    }

    /// Renames every null by adding `offset` to its identifier; used to make
    /// the nulls of two databases disjoint.
    pub fn shift_nulls(&self, offset: u64) -> Database {
        let mut f = |n: NullId| Value::Null(NullId(n.0 + offset));
        self.map_nulls(&mut f)
    }

    /// The largest null identifier occurring in the database, if any.
    pub fn max_null_id(&self) -> Option<u64> {
        self.null_ids().iter().map(|n| n.0).max()
    }

    /// Tuple-wise union of two databases over mergeable schemas.
    pub fn union(&self, other: &Database) -> Result<Database, ModelError> {
        let schema = self.schema.merge(other.schema())?;
        let mut out = Database::new(schema);
        for (name, rel) in self.iter().chain(other.iter()) {
            for t in rel.iter() {
                out.insert(name, t.clone())?;
            }
        }
        Ok(out)
    }

    /// Is `self` a sub-instance of `other` (same schema, every tuple of every
    /// relation also present in `other`)?
    pub fn is_subinstance_of(&self, other: &Database) -> bool {
        self.schema == other.schema
            && self
                .iter()
                .all(|(name, rel)| other.relation(name).is_some_and(|o| rel.is_subset(o)))
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in self.iter() {
            writeln!(f, "{name} = {rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn orders_db() -> Database {
        // The running example of the paper's introduction.
        let schema = Schema::builder()
            .relation("Order", &["o_id", "product"])
            .relation("Pay", &["p_id", "order", "amount"])
            .build();
        let mut db = Database::new(schema);
        db.insert("Order", Tuple::strs(&["oid1", "pr1"])).unwrap();
        db.insert("Order", Tuple::strs(&["oid2", "pr2"])).unwrap();
        db.insert(
            "Pay",
            Tuple::new(vec![Value::str("pid1"), Value::null(0), Value::int(100)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn construction_and_queries() {
        let db = orders_db();
        assert_eq!(db.total_tuples(), 3);
        assert!(!db.is_complete());
        assert!(db.is_codd());
        assert_eq!(db.null_ids().len(), 1);
        assert!(db.constants().contains(&Constant::Str("oid1".into())));
        assert_eq!(db.active_domain().len(), db.constants().len() + 1);
        assert!(db.relation("Order").is_some());
        assert!(db.relation("Nope").is_none());
        assert!(db.require("Nope").is_err());
    }

    #[test]
    fn arity_and_unknown_relation_errors() {
        let mut db = orders_db();
        assert!(matches!(
            db.insert("Order", Tuple::strs(&["x"])),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert("Missing", Tuple::strs(&["x"])),
            Err(ModelError::UnknownRelation(_))
        ));
    }

    #[test]
    fn codd_vs_naive() {
        let schema = Schema::builder().relation("R", &["a", "b"]).build();
        let mut naive = Database::new(schema.clone());
        naive
            .insert("R", Tuple::new(vec![Value::null(0), Value::int(1)]))
            .unwrap();
        naive
            .insert("R", Tuple::new(vec![Value::int(2), Value::null(0)]))
            .unwrap();
        assert!(
            !naive.is_codd(),
            "repeated null ⊥0 makes this a naïve, non-Codd database"
        );

        let mut codd = Database::new(schema);
        codd.insert("R", Tuple::new(vec![Value::null(0), Value::int(1)]))
            .unwrap();
        codd.insert("R", Tuple::new(vec![Value::int(2), Value::null(1)]))
            .unwrap();
        assert!(codd.is_codd());
    }

    #[test]
    fn apply_requires_total_valuation() {
        let db = orders_db();
        assert!(db.apply(&Valuation::new()).is_err());
        let v = Valuation::from_pairs(vec![(NullId(0), Constant::Str("oid1".into()))]);
        let complete = db.apply(&v).unwrap();
        assert!(complete.is_complete());
        assert_eq!(complete.total_tuples(), 3);
    }

    #[test]
    fn complete_part_drops_null_tuples() {
        let db = orders_db();
        let c = db.complete_part();
        assert_eq!(c.relation("Order").unwrap().len(), 2);
        assert_eq!(c.relation("Pay").unwrap().len(), 0);
        assert!(c.is_complete());
    }

    #[test]
    fn shift_nulls_makes_disjoint_copies() {
        let db = orders_db();
        let shifted = db.shift_nulls(100);
        assert_eq!(shifted.null_ids().iter().next().unwrap().0, 100);
        assert_eq!(db.max_null_id(), Some(0));
        assert_eq!(shifted.max_null_id(), Some(100));
    }

    #[test]
    fn union_and_subinstance() {
        let db = orders_db();
        let mut bigger = db.clone();
        bigger
            .insert("Order", Tuple::strs(&["oid3", "pr3"]))
            .unwrap();
        assert!(db.is_subinstance_of(&bigger));
        assert!(!bigger.is_subinstance_of(&db));
        let u = db.union(&bigger).unwrap();
        assert_eq!(u.total_tuples(), 4);
    }

    #[test]
    fn set_relation_checks_arity() {
        let mut db = orders_db();
        let bad = Relation::from_tuples(1, vec![Tuple::strs(&["x"])]);
        assert!(db.set_relation("Order", bad).is_err());
        let good = Relation::from_tuples(2, vec![Tuple::strs(&["o", "p"])]);
        db.set_relation("Order", good).unwrap();
        assert_eq!(db.relation("Order").unwrap().len(), 1);
        // Empty relation with wrong arity is normalised to schema arity.
        db.set_relation("Order", Relation::new(0)).unwrap();
        assert_eq!(db.relation("Order").unwrap().arity(), 2);
    }

    #[test]
    fn clones_share_relations_until_written() {
        let db = orders_db();
        let mut next = db.clone();
        assert!(next.shares_relation(&db, "Order") && next.shares_relation(&db, "Pay"));

        // Re-inserting a present tuple is a no-op and copies nothing.
        assert!(!next.insert("Order", Tuple::strs(&["oid1", "pr1"])).unwrap());
        assert!(next.shares_relation(&db, "Order"));

        // A new tuple copies exactly the relation it lands in.
        assert!(next.insert("Order", Tuple::strs(&["oid3", "pr3"])).unwrap());
        assert!(!next.shares_relation(&db, "Order"));
        assert!(next.shares_relation(&db, "Pay"));
        assert_eq!(db.relation("Order").unwrap().len(), 2, "original intact");
        assert_eq!(next.relation("Order").unwrap().len(), 3);

        // `relation_mut` and `set_relation` copy on write too.
        let mut third = next.clone();
        third.relation_mut("Pay").unwrap().insert(Tuple::new(vec![
            Value::str("pid2"),
            Value::str("oid3"),
            Value::int(5),
        ]));
        assert!(!third.shares_relation(&next, "Pay"));
        assert_eq!(next.relation("Pay").unwrap().len(), 1);
        third.set_relation("Order", Relation::new(2)).unwrap();
        assert!(!third.shares_relation(&next, "Order"));
        assert_eq!(next.relation("Order").unwrap().len(), 3);
        assert!(!third.shares_relation(&next, "Missing"));
    }
}
