//! Per-database dispatch context: the facts the engine precomputes about a
//! database, factored out of [`crate::Engine`] so they can **outlive** any
//! one engine.
//!
//! A borrow-scoped `Engine::new(&db)` used to own the null count, null
//! census, and (lazily) the conflict graph itself — so a service answering N
//! requests over one unchanged database through N short-lived engines
//! re-scanned the database N times and rebuilt the conflict graph N times.
//! [`DbContext`] is those facts as a shareable object: a snapshot owns one
//! `Arc<DbContext>` next to its `Arc<Database>`, every request-scoped engine
//! is built with [`crate::Engine::with_context`], and the conflict graph is
//! built **exactly once per snapshot** no matter how many queries run — a
//! claim [`DbContext::conflict_graph_builds`] lets tests prove by counter
//! rather than by timing. The graph in turn derives, on its first
//! consistent-answer fold, the conflict-free core that fold reads, so the
//! core too is built once per snapshot ([`ConflictGraph::core_builds`]
//! counts it).
//!
//! The context also owns the snapshot's derived representations: one
//! lazily transposed column batch per relation ([`DbContext::batches`]).
//! Every columnar scan the engine makes of its own database reads these
//! slots, so a relation is transposed once per snapshot, not once per
//! query.
//!
//! Contexts are cheap to derive along a history of snapshots.
//! [`DbContext::derive`] measures a successor database relation by
//! relation: a relation the successor still shares with its predecessor
//! ([`Database::shares_relation`]) keeps its census entry, its null ids, and
//! its batch slot, and only the relations a write touched are measured
//! again.
//!
//! The context is only meaningful for the database it was measured from;
//! [`crate::Engine::with_context`] documents (and debug-asserts) that
//! pairing. All fields are immutable after construction except the lazily
//! initialized conflict graph and batch slots, which sit behind
//! [`OnceLock`]s so concurrent readers race safely: one wins the build,
//! everyone shares it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use relalgebra::analysis::{NullCensus, RelationCensus};
use relmodel::batch::RelationBatches;
use relmodel::Database;
use repairs::ConflictGraph;

/// Precomputed dispatch facts about one database: null count, null census,
/// per-relation batch slots, and the lazily built, cached conflict graph —
/// shareable across engines so a snapshot-owning service measures each
/// database exactly once.
#[derive(Debug, Default)]
pub struct DbContext {
    /// Distinct nulls, counted once: budget checks and report stats need it
    /// per query, and re-scanning the database per call would dominate
    /// dispatch cost on large instances.
    nulls: usize,
    /// The per-relation null census, measured once: the static analyzer's
    /// ground truth for null-free reach, consulted on every dispatch.
    census: NullCensus,
    /// Each relation's distinct null ids, ascending: what a successor
    /// context needs to recount `nulls` without rescanning the relations it
    /// shares with this one.
    null_ids: BTreeMap<String, Arc<[u64]>>,
    /// One lazily transposed batch per relation, read by every columnar
    /// scan of this database.
    batches: RelationBatches,
    /// The conflict hypergraph against the schema's integrity constraints,
    /// built lazily on the first consistent-answer dispatch and shared for
    /// the context's lifetime. The violation scan — quadratic in the worst
    /// key group — is only consulted under consistent-answer semantics, so
    /// plain CWA/OWA traffic over constraint-bearing schemas never pays for
    /// it. `Some(None)` once resolved for a constraint-free schema.
    conflicts: OnceLock<Option<ConflictGraph>>,
    /// How many times the conflict graph was actually built (0 or 1 per
    /// context; the counter exists so tests can assert the "exactly once
    /// per snapshot" contract).
    conflict_builds: AtomicUsize,
}

impl DbContext {
    /// Measures `db` in one pass over its tuples: the census and, from it,
    /// the null count. Neither the conflict graph nor any batch is built
    /// here — each waits for its first use.
    pub fn of(db: &Database) -> Self {
        DbContext::measure(db, |_| None, RelationBatches::of(db))
    }

    /// The context of `db`, a successor of `prev_db` whose context is
    /// `self`. Every relation `db` shares with `prev_db` keeps its census
    /// entry, null ids, and batch slot; every other relation is measured
    /// afresh. The conflict graph is not carried over: it waits for its
    /// first use like any new context's.
    pub fn derive(&self, prev_db: &Database, db: &Database) -> Self {
        let carried = |name: &str| {
            if !db.shares_relation(prev_db, name) {
                return None;
            }
            let census = self.census.relation(name)?;
            let ids = self.null_ids.get(name)?;
            Some((census.clone(), Arc::clone(ids)))
        };
        DbContext::measure(db, carried, self.batches.carry(prev_db, db))
    }

    /// Builds the context of `db`, taking each relation's census entry and
    /// null ids from `carried` where it has them and measuring the rest.
    fn measure(
        db: &Database,
        carried: impl Fn(&str) -> Option<(RelationCensus, Arc<[u64]>)>,
        batches: RelationBatches,
    ) -> Self {
        let mut builder = NullCensus::builder();
        let mut null_ids = BTreeMap::new();
        for (name, rel) in db.iter() {
            let (census, ids) = carried(name).unwrap_or_else(|| {
                let (census, ids) = RelationCensus::measure(rel);
                (census, ids.into())
            });
            builder = builder.measured(name, census, ids.iter().copied());
            null_ids.insert(name.to_owned(), ids);
        }
        let census = builder.build();
        DbContext {
            nulls: census.distinct_nulls(),
            census,
            null_ids,
            batches,
            conflicts: OnceLock::new(),
            conflict_builds: AtomicUsize::new(0),
        }
    }

    /// Distinct marked nulls in the measured database.
    pub fn nulls(&self) -> usize {
        self.nulls
    }

    /// The per-relation null census of the measured database.
    pub fn census(&self) -> &NullCensus {
        &self.census
    }

    /// The per-relation batch slots every columnar scan of the measured
    /// database reads.
    pub fn batches(&self) -> &RelationBatches {
        &self.batches
    }

    /// The cached conflict hypergraph of `db` (which must be the database
    /// this context was measured from); `None` when the schema declares no
    /// constraints. The first call builds, every later call shares.
    pub fn conflict_graph(&self, db: &Database) -> Option<&ConflictGraph> {
        self.conflicts
            .get_or_init(|| {
                db.schema().has_constraints().then(|| {
                    self.conflict_builds.fetch_add(1, Ordering::Relaxed);
                    ConflictGraph::build(db)
                })
            })
            .as_ref()
    }

    /// How many times [`DbContext::conflict_graph`] actually ran
    /// `ConflictGraph::build` — at most 1 for any context, however many
    /// queries (or threads) asked. Under `OnceLock` contention several
    /// threads may *compute* candidate values but exactly one is published;
    /// the counter is incremented inside the initializer, so a transient
    /// value above 1 is possible only while racers are still inside
    /// `get_or_init`; after any winning call returns it is stable.
    pub fn conflict_graph_builds(&self) -> usize {
        self.conflict_builds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{random_database, random_database_with_null_rate, RandomDbConfig};
    use relmodel::{DatabaseBuilder, Tuple, Value};

    /// Datagen databases: small ones whose two-null pool repeats nulls
    /// across relations, and the large join workload at 1% and 20% nulls.
    fn datagen_databases() -> Vec<Database> {
        let small = (0..16).map(|seed| {
            random_database(&RandomDbConfig {
                seed,
                ..RandomDbConfig::default()
            })
        });
        let large = [0, 1, 20].map(|rate| random_database_with_null_rate(400, rate, 3));
        small.chain(large).collect()
    }

    #[test]
    fn null_count_comes_from_the_census_scan() {
        let mut shared_across_relations = 0;
        for db in datagen_databases() {
            let ctx = DbContext::of(&db);
            assert_eq!(ctx.nulls(), db.null_ids().len());
            assert_eq!(ctx.nulls(), ctx.census().distinct_nulls());
            let per_relation: usize = db.iter().map(|(_, r)| r.null_ids().len()).sum();
            if per_relation > ctx.nulls() {
                shared_across_relations += 1;
            }
        }
        assert!(
            shared_across_relations > 0,
            "some database repeats a null across relations"
        );
    }

    #[test]
    fn derived_context_equals_a_fresh_measurement() {
        for db in datagen_databases() {
            let ctx = DbContext::of(&db);
            for (name, _) in db.iter() {
                ctx.batches().get(&db, name).expect("relation of db");
            }
            let mut next = db.clone();
            next.insert("R", Tuple::new(vec![Value::null(77), Value::int(-1)]))
                .unwrap();
            let derived = ctx.derive(&db, &next);
            let fresh = DbContext::of(&next);
            assert_eq!(derived.census(), fresh.census());
            assert_eq!(derived.nulls(), fresh.nulls());
            assert_eq!(derived.nulls(), next.null_ids().len());
            assert!(derived.batches().built("R").is_none(), "R was written");
            for (name, _) in next.iter().filter(|(name, _)| *name != "R") {
                let carried = derived.batches().built(name).expect("shared slot");
                assert!(Arc::ptr_eq(carried, ctx.batches().built(name).unwrap()));
            }
        }
    }

    #[test]
    fn conflict_graph_builds_once_and_counts() {
        let db = DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .build();
        let ctx = DbContext::of(&db);
        assert_eq!(ctx.conflict_graph_builds(), 0, "lazy until first use");
        let first = ctx.conflict_graph(&db).expect("schema has a key");
        assert_eq!(first.violation_count(), 1);
        for _ in 0..10 {
            assert!(ctx.conflict_graph(&db).is_some());
        }
        assert_eq!(ctx.conflict_graph_builds(), 1, "ten asks, one build");
    }

    #[test]
    fn constraint_free_schema_resolves_to_none() {
        let db = DatabaseBuilder::new()
            .relation("R", &["a"])
            .ints("R", &[1])
            .build();
        let ctx = DbContext::of(&db);
        assert!(ctx.conflict_graph(&db).is_none());
        assert_eq!(ctx.conflict_graph_builds(), 0, "nothing to build");
        assert_eq!(ctx.nulls(), 0);
    }
}
