//! Versioned, immutable database snapshots.
//!
//! A [`Snapshot`] is one published state of the service's database: an
//! `Arc<Database>` (immutable once published — writers copy and replace,
//! they never mutate in place), the monotone version number the service
//! assigned it, and the shared [`DbContext`] carrying everything the engine
//! precomputes about the database — null count, null census, one lazily
//! transposed column batch per relation, and the lazily built conflict
//! graph. Because the context lives *on the snapshot* rather than in any
//! request-scoped engine, N queries against one snapshot measure the
//! database once, transpose each relation at most once, and build the
//! conflict graph exactly once ([`Snapshot::conflict_graph_builds`] proves
//! the last by counter).
//!
//! Snapshots form a history in which each version is cheap to derive from
//! the one before ([`Snapshot::next`]). The database shares every relation
//! a write did not touch with its predecessor (a [`Database`] clone copies
//! pointers, and a one-tuple write copies one chunk of the relation it
//! touches), and the context carries over the census entry and batch slot
//! of each shared relation, so a one-tuple insert into `R` copies one chunk
//! of `R`, and measures and later transposes `R` alone.
//!
//! Readers hold snapshots by `Arc`: an in-flight query keeps its snapshot
//! (database, context, and batches) alive however many versions the
//! service publishes meanwhile — the copy-on-write face of "readers never
//! block writers".

use std::sync::Arc;

use engine::{DbContext, Engine, EngineOptions, Semantics};
use relmodel::Database;

/// A request-scoped engine over a snapshot: owns `Arc`s into the snapshot,
/// so it is `'static` and can outlive the service lock that produced it.
pub type SnapshotEngine = Engine<Arc<Database>>;

/// One immutable, versioned state of the served database: the database, its
/// version, and the precomputed dispatch context every query against this
/// version shares.
#[derive(Debug)]
pub struct Snapshot {
    version: u64,
    /// Bumped only when a published database changes the *schema* — the
    /// plan cache's validity epoch (plans are typechecked against a schema,
    /// not a database instance, so data-only bumps keep every cached plan).
    schema_epoch: u64,
    db: Arc<Database>,
    ctx: Arc<DbContext>,
}

impl Snapshot {
    /// The first snapshot of a history: publishes `db` as version
    /// `version`, measuring its dispatch context (one linear scan) once,
    /// here, for every query that will ever run against it.
    pub(crate) fn new(version: u64, schema_epoch: u64, db: Database) -> Self {
        let ctx = Arc::new(DbContext::of(&db));
        Snapshot {
            version,
            schema_epoch,
            db: Arc::new(db),
            ctx,
        }
    }

    /// The successor of `self`: publishes `db` as version `version`,
    /// deriving its context from this snapshot's. Relations `db` still
    /// shares with this snapshot's database keep their census entries and
    /// batch slots; only the relations the write touched are measured.
    pub(crate) fn next(&self, version: u64, schema_epoch: u64, db: Database) -> Self {
        let ctx = Arc::new(self.ctx.derive(&self.db, &db));
        Snapshot {
            version,
            schema_epoch,
            db: Arc::new(db),
            ctx,
        }
    }

    /// The monotone version the service assigned this snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The schema-validity epoch (see the field docs; used by the plan
    /// cache).
    pub(crate) fn schema_epoch(&self) -> u64 {
        self.schema_epoch
    }

    /// The immutable database of this snapshot.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared dispatch context (null count, census, batch slots, lazy
    /// conflict graph) every engine over this snapshot reuses.
    pub fn context(&self) -> &Arc<DbContext> {
        &self.ctx
    }

    /// How many times this snapshot's conflict graph was actually built —
    /// 0 until the first consistent-answer query, 1 ever after, no matter
    /// how many queries or threads asked.
    pub fn conflict_graph_builds(&self) -> usize {
        self.ctx.conflict_graph_builds()
    }

    /// A request-scoped engine over this snapshot: construction does no
    /// database work (the context is already measured).
    pub fn engine(&self, semantics: Semantics, options: EngineOptions) -> SnapshotEngine {
        Engine::with_context(Arc::clone(&self.db), Arc::clone(&self.ctx))
            .semantics(semantics)
            .options(options)
    }
}
