//! The conflict hypergraph of an inconsistent database.
//!
//! Every constraint form in [`relmodel::constraint`] is a *denial*
//! constraint, so each minimal violation is witnessed by one tuple (unary
//! denial constraints) or two (keys, functional dependencies). That makes
//! the repair structure a hypergraph with edges of size 1 and 2:
//!
//! * tuples in a **unary** edge are *doomed* — they appear in no repair;
//! * tuples in a **binary** edge are *conflict vertices* — a repair keeps a
//!   maximal independent set of them;
//! * everything else is the **conflict-free core** — present in *every*
//!   repair, which is exactly what makes the core a sound evaluation base.
//!
//! Conflicts between a doomed tuple and anything else are irrelevant (the
//! doomed side is always deleted), so they are not recorded — keeping them
//! would make otherwise-clean tuples look conflicted and shrink the core
//! for no reason.
//!
//! A graph built from a database ([`ConflictGraph::build`]) also derives,
//! on first use, that database's core in the shape the consistent-answer
//! fold reads it (column batches of the complete core rows, the
//! null-bearing core tuples, and the joint components), and keeps it, so
//! every fold over the same snapshot shares one copy
//! ([`ConflictGraph::core_builds`] counts the derivations).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use releval::fold::{self, Component};
use relmodel::batch::ColumnBatch;
use relmodel::constraint::{violations_of, Violation};
use relmodel::{Database, Tuple};

/// A tuple identified by the relation it lives in.
pub type Fact = (String, Tuple);

/// The conflict hypergraph of a database against its schema's constraints.
///
/// Two graphs are equal when their conflicts are: the derived core they
/// cache is not compared.
#[derive(Debug, Clone, Default)]
pub struct ConflictGraph {
    /// Tuples violating a unary denial constraint: in no repair.
    doomed: BTreeSet<Fact>,
    /// Conflict vertices — tuples in at least one binary edge — in a fixed
    /// enumeration order.
    vertices: Vec<Fact>,
    /// Adjacency lists over vertex indexes (binary conflict edges).
    adjacency: Vec<Vec<usize>>,
    /// Number of distinct binary edges.
    edges: usize,
    /// Violations found (witness list, for reporting).
    violations: usize,
    /// The conflict-free core of the database the graph was built from,
    /// derived on first use.
    core: CoreCache,
}

impl PartialEq for ConflictGraph {
    fn eq(&self, other: &Self) -> bool {
        self.doomed == other.doomed
            && self.vertices == other.vertices
            && self.adjacency == other.adjacency
            && self.edges == other.edges
            && self.violations == other.violations
    }
}

impl Eq for ConflictGraph {}

/// The conflict-free core as the split executor reads it.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    /// The complete core rows, one column batch per relation of the
    /// schema, in schema order; workers share them.
    pub(crate) batches: Vec<(String, Arc<ColumnBatch>)>,
    /// The null-bearing core tuples: every tuple with a null that is
    /// neither a conflict vertex nor doomed.
    pub(crate) null_rows: Vec<Fact>,
    /// The joint components ([`fold::group`]) of the conflict vertices and
    /// edges with the null-bearing core tuples, whose rows index
    /// [`Core::null_rows`].
    pub(crate) components: Vec<Component>,
    /// The relations holding a conflict vertex or a null-bearing core
    /// tuple.
    pub(crate) volatile: BTreeSet<String>,
    /// Does the database hold no null at all, outside the core included?
    pub(crate) complete: bool,
}

/// A graph's derived core, and a fingerprint of the database it must come
/// from.
#[derive(Debug, Default)]
struct CoreCache {
    /// Each relation's length in the database the graph was built from, in
    /// name order; `None` for a graph built from a violation list.
    source: Option<Vec<usize>>,
    core: OnceLock<Core>,
    /// How many times `core` was derived (0 or 1).
    builds: AtomicUsize,
}

impl Clone for CoreCache {
    fn clone(&self) -> Self {
        CoreCache {
            source: self.source.clone(),
            core: self.core.clone(),
            builds: AtomicUsize::new(self.builds.load(Ordering::Relaxed)),
        }
    }
}

/// Each relation's length, in name order: a cheap fingerprint of a
/// database.
fn lengths(db: &Database) -> Vec<usize> {
    db.iter().map(|(_, rel)| rel.len()).collect()
}

impl ConflictGraph {
    /// Builds the conflict hypergraph of `db` against the constraints its
    /// schema declares.
    pub fn build(db: &Database) -> ConflictGraph {
        let all: Vec<Violation> = db
            .schema()
            .constraints()
            .iter()
            .flat_map(|c| violations_of(c, db))
            .collect();
        let mut graph = Self::from_violations(&all);
        graph.core.source = Some(lengths(db));
        graph
    }

    /// Builds the hypergraph from an explicit violation list.
    pub fn from_violations(violations: &[Violation]) -> ConflictGraph {
        let mut doomed: BTreeSet<Fact> = BTreeSet::new();
        for v in violations {
            if !v.constraint.is_binary() {
                doomed.insert((v.relation.clone(), v.tuples[0].clone()));
            }
        }
        let mut index: BTreeMap<Fact, usize> = BTreeMap::new();
        let mut vertices: Vec<Fact> = Vec::new();
        let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
        for v in violations {
            if !v.constraint.is_binary() {
                continue;
            }
            let a = (v.relation.clone(), v.tuples[0].clone());
            let b = (v.relation.clone(), v.tuples[1].clone());
            // A pair conflict with a doomed tuple needs no repairing: the
            // doomed side is deleted in every repair anyway.
            if doomed.contains(&a) || doomed.contains(&b) {
                continue;
            }
            let mut id_of = |fact: Fact| -> usize {
                *index.entry(fact.clone()).or_insert_with(|| {
                    vertices.push(fact);
                    vertices.len() - 1
                })
            };
            let ia = id_of(a);
            let ib = id_of(b);
            if ia != ib {
                edge_set.insert((ia.min(ib), ia.max(ib)));
            }
        }
        let mut adjacency = vec![Vec::new(); vertices.len()];
        for &(a, b) in &edge_set {
            adjacency[a].push(b);
            adjacency[b].push(a);
        }
        ConflictGraph {
            doomed,
            vertices,
            adjacency,
            edges: edge_set.len(),
            violations: violations.len(),
            core: CoreCache::default(),
        }
    }

    /// No violations at all: the database is consistent and its single
    /// repair is the database itself.
    pub fn is_conflict_free(&self) -> bool {
        self.doomed.is_empty() && self.vertices.is_empty()
    }

    /// Number of conflict vertices (tuples in at least one binary edge).
    pub fn conflict_tuples(&self) -> usize {
        self.vertices.len()
    }

    /// Number of doomed tuples (unary denial violations).
    pub fn doomed_tuples(&self) -> usize {
        self.doomed.len()
    }

    /// Number of distinct binary conflict edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Number of witnessed violations the graph was built from.
    pub fn violation_count(&self) -> usize {
        self.violations
    }

    /// The conflict vertices, in enumeration order.
    pub fn vertices(&self) -> &[Fact] {
        &self.vertices
    }

    /// Neighbors of vertex `v` (binary conflict partners).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// The connected components of the conflict graph: each an ascending
    /// list of vertex indexes, closed under adjacency, ordered by smallest
    /// vertex. A repair picks one maximal independent set — one **local
    /// repair** — per component, independently of the others.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.vertices.len()];
        let mut out = Vec::new();
        for start in 0..self.vertices.len() {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            let mut component = vec![start];
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &u in &self.adjacency[v] {
                    if !seen[u] {
                        seen[u] = true;
                        component.push(u);
                        stack.push(u);
                    }
                }
            }
            component.sort_unstable();
            out.push(component);
        }
        out
    }

    /// An a-priori upper bound on the number of subset-minimal repairs: the
    /// Moon–Moser bound on maximal independent sets of a graph with
    /// [`ConflictGraph::conflict_tuples`] vertices, saturating at
    /// `u128::MAX`. The planner compares this against its repair budget
    /// before committing to enumeration — exactly how the world oracle's
    /// `|domain|^|nulls|` estimate is used.
    pub fn estimated_repairs(&self) -> u128 {
        moon_moser(self.vertices.len())
    }

    /// The conflict-free core: `db` minus doomed tuples minus conflict
    /// vertices. The core is a sub-instance of **every** repair.
    pub fn core(&self, db: &Database) -> Database {
        let vertex_set: BTreeSet<&Fact> = self.vertices.iter().collect();
        self.retain(db, |fact| !vertex_set.contains(fact))
    }

    /// Each relation's facts outside the core: its conflict vertices and
    /// doomed tuples.
    fn excluded(&self) -> HashMap<&str, HashSet<&Tuple>> {
        let mut excluded: HashMap<&str, HashSet<&Tuple>> = HashMap::new();
        for (relation, tuple) in self.vertices.iter().chain(&self.doomed) {
            excluded.entry(relation.as_str()).or_default().insert(tuple);
        }
        excluded
    }

    /// The conflict-free core of `db` as the split executor reads it —
    /// [`ConflictGraph::core`] without building a `Database`. `db` must be
    /// the database the graph was built from (debug builds check each
    /// relation's length against it). The first call derives the core,
    /// every later one shares it.
    ///
    /// One pass over each relation sorts its core tuples into the complete
    /// rows, transposed into one column batch per relation of the schema,
    /// and the null-bearing tuples; conflict vertices and doomed tuples are
    /// skipped, and a complete relation with neither is transposed whole.
    /// The joint components are grouped here too: like the core, they do
    /// not depend on the query.
    pub(crate) fn core_split(&self, db: &Database) -> &Core {
        debug_assert!(
            self.core
                .source
                .as_ref()
                .is_none_or(|source| *source == lengths(db)),
            "a conflict graph is used with the database it was built from"
        );
        self.core.core.get_or_init(|| {
            self.core.builds.fetch_add(1, Ordering::Relaxed);
            self.derive_core(db)
        })
    }

    /// How many times the graph derived the core of its database, which
    /// the consistent-answer fold reads: 0 before the first fold (or
    /// factorized count) over it, 1 ever after.
    pub fn core_builds(&self) -> usize {
        self.core.builds.load(Ordering::Relaxed)
    }

    fn derive_core(&self, db: &Database) -> Core {
        let excluded = self.excluded();
        let mut null_rows = Vec::new();
        let batches = db
            .schema()
            .iter()
            .map(|rs| {
                let rel = db.relation(&rs.name).expect("schema lists the relation");
                let skip = excluded.get(rs.name.as_str());
                let batch = if skip.is_none() && rel.is_complete() {
                    ColumnBatch::from_relation(rel)
                } else {
                    let mut batch = ColumnBatch::new(rel.arity());
                    for t in rel.iter().filter(|t| skip.is_none_or(|s| !s.contains(t))) {
                        if t.is_complete() {
                            batch.push_tuple(t);
                        } else {
                            null_rows.push((rs.name.clone(), t.clone()));
                        }
                    }
                    batch
                };
                (rs.name.clone(), Arc::new(batch))
            })
            .collect();
        let rows: Vec<(&str, &Tuple)> = null_rows.iter().map(|(r, t)| (r.as_str(), t)).collect();
        let components = fold::group(&self.vertices, |v| &self.adjacency[v], &rows);
        let volatile = self.vertices.iter().chain(&null_rows);
        let volatile = volatile.map(|(relation, _)| relation.clone()).collect();
        Core {
            batches,
            null_rows,
            components,
            volatile,
            complete: db.is_complete(),
        }
    }

    /// The repair upper bound: `db` minus doomed tuples. Every repair is a
    /// sub-instance of it.
    pub fn upper(&self, db: &Database) -> Database {
        self.retain(db, |_| true)
    }

    /// `db` minus doomed tuples, further filtered by `keep` (which only ever
    /// sees non-doomed facts).
    fn retain(&self, db: &Database, keep: impl Fn(&Fact) -> bool) -> Database {
        let mut out = Database::new(db.schema().clone());
        for (name, rel) in db.iter() {
            for t in rel.iter() {
                let fact = (name.to_owned(), t.clone());
                if !self.doomed.contains(&fact) && keep(&fact) {
                    out.insert(name, fact.1).expect("same schema");
                }
            }
        }
        out
    }
}

/// The Moon–Moser bound: the maximum number of maximal independent sets in
/// a graph with `n` vertices, saturating at `u128::MAX`.
fn moon_moser(n: usize) -> u128 {
    let pow3 = |k: usize| -> u128 {
        if k >= 81 {
            return u128::MAX;
        }
        3u128.saturating_pow(k as u32)
    };
    match n {
        0 => 1,
        1 => 1,
        2 => 2,
        _ => match n % 3 {
            0 => pow3(n / 3),
            1 => pow3((n - 4) / 3).saturating_mul(4),
            _ => pow3((n - 2) / 3).saturating_mul(2),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relmodel::constraint::CompareOp;
    use relmodel::value::Constant;
    use relmodel::{DatabaseBuilder, Value};

    fn keyed_db() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .build()
    }

    #[test]
    fn key_conflict_splits_core_and_vertices() {
        let db = keyed_db();
        let g = ConflictGraph::build(&db);
        assert!(!g.is_conflict_free());
        assert_eq!(g.conflict_tuples(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.doomed_tuples(), 0);
        let core = g.core(&db);
        assert_eq!(core.total_tuples(), 1, "only (2,30) is conflict-free");
        assert!(core.relation("R").unwrap().contains(&Tuple::ints(&[2, 30])));
        assert_eq!(g.upper(&db).total_tuples(), 3);
        assert_eq!(g.estimated_repairs(), 2);
    }

    #[test]
    fn doomed_tuples_leave_the_upper_bound() {
        let db = DatabaseBuilder::new()
            .relation("S", &["a"])
            .deny("S", "a", CompareOp::Eq, Constant::Int(13))
            .ints("S", &[1])
            .ints("S", &[13])
            .build();
        let g = ConflictGraph::build(&db);
        assert_eq!(g.doomed_tuples(), 1);
        assert_eq!(g.conflict_tuples(), 0);
        assert_eq!(g.upper(&db).total_tuples(), 1);
        assert_eq!(g.core(&db).total_tuples(), 1);
        assert_eq!(
            g.estimated_repairs(),
            1,
            "deleting the doomed tuple is forced"
        );
    }

    #[test]
    fn conflicts_with_doomed_tuples_are_not_edges() {
        // (1,10) conflicts only with the doomed (1,13): it must stay in the
        // core, because every repair deletes (1,13) anyway.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .deny("R", "v", CompareOp::Eq, Constant::Int(13))
            .ints("R", &[1, 10])
            .ints("R", &[1, 13])
            .build();
        let g = ConflictGraph::build(&db);
        assert_eq!(g.doomed_tuples(), 1);
        assert_eq!(g.conflict_tuples(), 0);
        let core = g.core(&db);
        assert!(core.relation("R").unwrap().contains(&Tuple::ints(&[1, 10])));
    }

    #[test]
    fn null_keys_conflict_syntactically() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .tuple("R", vec![Value::null(0), Value::int(1)])
            .tuple("R", vec![Value::null(0), Value::int(2)])
            .tuple("R", vec![Value::null(1), Value::int(3)])
            .build();
        let g = ConflictGraph::build(&db);
        assert_eq!(
            g.conflict_tuples(),
            2,
            "⊥0-keyed tuples conflict; ⊥1 does not"
        );
        assert_eq!(g.core(&db).total_tuples(), 1);
    }

    #[test]
    fn core_batches_match_the_core_database() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .deny("R", "v", CompareOp::Eq, Constant::Int(13))
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 13])
            .ints("R", &[3, 30])
            .relation("S", &["a"])
            .ints("S", &[7])
            .build();
        let g = ConflictGraph::build(&db);
        let core = g.core(&db);
        let split = g.core_split(&db);
        assert_eq!(split.batches.len(), 2);
        assert!(split.null_rows.is_empty());
        for (name, batch) in &split.batches {
            assert_eq!(&batch.to_relation(), core.relation(name).unwrap(), "{name}");
        }
        assert_eq!(g.core_builds(), 1);
        assert!(std::ptr::eq(split, g.core_split(&db)), "derived once");
        assert_eq!(g.core_builds(), 1);
    }

    #[test]
    fn components_split_independent_clashes() {
        // Three tuples on key 1 form a triangle; key 2 is a single edge;
        // key 3 is clean.
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .ints("R", &[1, 11])
            .ints("R", &[2, 21])
            .ints("R", &[1, 12])
            .ints("R", &[3, 30])
            .build();
        let g = ConflictGraph::build(&db);
        let components = g.components();
        let mut sizes: Vec<usize> = components.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
        let mut all: Vec<usize> = components.concat();
        all.sort_unstable();
        assert_eq!(all, (0..g.conflict_tuples()).collect::<Vec<_>>());
        for component in &components {
            assert!(component.windows(2).all(|w| w[0] < w[1]), "ascending");
            for &v in component {
                for u in g.neighbors(v) {
                    assert!(component.contains(u), "closed under adjacency");
                }
            }
        }
    }

    #[test]
    fn moon_moser_bound() {
        assert_eq!(moon_moser(0), 1);
        assert_eq!(moon_moser(1), 1);
        assert_eq!(moon_moser(2), 2);
        assert_eq!(moon_moser(3), 3);
        assert_eq!(moon_moser(4), 4);
        assert_eq!(moon_moser(5), 6);
        assert_eq!(moon_moser(6), 9);
        assert!(
            moon_moser(400) == u128::MAX,
            "saturates instead of overflowing"
        );
    }

    #[test]
    fn consistent_database_is_conflict_free() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[2, 20])
            .build();
        let g = ConflictGraph::build(&db);
        assert!(g.is_conflict_free());
        assert_eq!(g.estimated_repairs(), 1);
        assert_eq!(g.core(&db), db);
    }
}
