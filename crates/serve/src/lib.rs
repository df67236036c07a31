//! Serving layer: a concurrent, snapshot-versioned certain-answer service.
//!
//! [`engine::Engine`] answers one query over one database; `serve` turns it
//! into a long-lived, thread-shared **service**. A [`CertainService`] owns a
//! sequence of immutable, versioned database [`Snapshot`]s and answers
//! textual queries against whichever snapshot is current when the request
//! arrives, with three layers of reuse stacked on top of the engine:
//!
//! * **Snapshot versioning (copy-on-write).** Writers build the next
//!   database *outside* any lock readers take, then publish it as version
//!   `v+1` with a pointer swap. Readers never block writers and vice versa;
//!   an in-flight query keeps its snapshot alive by `Arc` however many
//!   versions are published meanwhile, so every report is internally
//!   consistent with the `snapshot_version` it carries.
//! * **Structural sharing between versions.** A database holds persistent
//!   relations, so the next version starts as a pointer copy of the current
//!   one, and a one-tuple write copies one chunk of the relation it touches
//!   (and that relation's list of chunk pointers), not the relation. The next
//!   snapshot's context is derived from the current one's
//!   ([`engine::DbContext::derive`]): every relation the two versions share
//!   keeps its census entry and its column batch, and only touched
//!   relations are measured (and, on first scan, transposed) again.
//! * **Per-snapshot dispatch context.** The null census, one lazily
//!   transposed column batch per relation, and the (lazy) conflict graph
//!   live on the snapshot, not the request: N queries on one snapshot
//!   measure the database once, transpose each relation at most once, and
//!   build the conflict graph exactly once, however many threads ask
//!   ([`Snapshot::conflict_graph_builds`]).
//! * **Plan + result caches.** Plans are cached by whitespace-normalized
//!   query text and survive data-only version bumps (they depend only on the
//!   schema, tracked by epoch); certain-answer reports are cached by
//!   (query, version, semantics, options-fingerprint), so a version bump
//!   invalidates every stale answer *by construction* — a stale key can no
//!   longer match — and callers with different budgets can never share an
//!   answer (the degradation-correctness guarantee; see
//!   [`EngineOptions::fingerprint`]).
//! * **Observability.** Every answered query lands in a lock-free latency
//!   histogram grid keyed by (strategy, cache outcome) — rendered by
//!   [`CertainService::metrics_text`] (Prometheus-style) and
//!   [`CertainService::metrics_json`] (one BENCH-compatible line) — and
//!   arming [`ServeOptions::slow_query_threshold`] captures the last N slow
//!   queries with their full engine span trees
//!   ([`CertainService::slow_queries`]).
//!
//! A panic inside a caller's [`CertainService::update`] closure publishes
//! nothing and poisons nothing for later callers: every lock the service
//! takes recovers from poisoning, since nothing behind one is left
//! half-written and every cache can be rebuilt.
//!
//! Reports come back as the engine's own [`CertainReport`], with the
//! service-only stats fields filled in: `stats.snapshot_version` says which
//! snapshot answered, `stats.plan_cache_hit` whether planning was skipped,
//! and `stats.cache_hit` whether the whole answer came from the result
//! cache.
//!
//! ```
//! use relmodel::builder::DatabaseBuilder;
//! use serve::CertainService;
//!
//! let service = CertainService::new(
//!     DatabaseBuilder::new().relation("R", &["a"]).ints("R", &[1]).build(),
//! );
//! let cold = service.submit("R").unwrap();
//! assert!(!cold.stats.cache_hit);
//! let hot = service.submit("R").unwrap();
//! assert!(hot.stats.cache_hit && hot.stats.plan_cache_hit);
//! assert_eq!(hot.answers, cold.answers);
//!
//! service.update(|db| {
//!     db.insert("R", relmodel::Tuple::new(vec![relmodel::Value::int(2)])).unwrap();
//! });
//! let fresh = service.submit("R").unwrap();
//! assert!(!fresh.stats.cache_hit, "the version bump invalidated the cache");
//! assert_eq!(fresh.stats.snapshot_version, Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod snapshot;
mod stats;

pub use cache::{normalize, PlanCache, ResultCache, ResultKey, ShardedResultCache, RESULT_SHARDS};
pub use snapshot::{Snapshot, SnapshotEngine};
pub use stats::ServiceTelemetry;

use std::sync::{Arc, LockResult, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use engine::{CertainReport, EngineError, EngineOptions, Semantics, StrategyKind};
use obs::{MetricsRegistry, SlowQueryRing};
use relalgebra::plan::PlannedQuery;
use relmodel::Database;

use cache::{PlanCache as Plans, ShardedResultCache as Results};
use stats::ServiceStats;

/// Takes a lock whether or not a panicking holder poisoned it. No lock of
/// the service guards a half-written value: the writer mutex guards no data
/// (a panicking [`CertainService::update`] closure never reaches publish),
/// the snapshot pointer and publish clock are replaced whole, and the
/// caches only lose entries that the next miss recomputes.
pub(crate) fn recover<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Construction-time configuration for a [`CertainService`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The semantics [`CertainService::submit`] answers under
    /// (`submit_with` overrides per request).
    pub semantics: Semantics,
    /// The engine options `submit` runs with. A `morsel_rows` of `None` is
    /// seeded from the `MORSEL_ROWS` environment variable **once, at service
    /// construction** — the morsel size is a per-service decision, not a
    /// per-process global re-read on every call.
    pub engine_options: EngineOptions,
    /// Result-cache capacity in reports (FIFO-evicted beyond it).
    pub max_result_entries: usize,
    /// Arm the slow-query ring: queries whose end-to-end service latency
    /// reaches the threshold are captured (with their full [`obs::Span`]
    /// trace — the service forces [`EngineOptions::trace`] on when this is
    /// set) and readable via [`CertainService::slow_queries`]. `None` (the
    /// default) records nothing and forces nothing.
    pub slow_query_threshold: Option<Duration>,
    /// How many slow queries the ring retains (oldest evicted beyond it).
    pub slow_query_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            semantics: Semantics::Cwa,
            engine_options: EngineOptions::default(),
            max_result_entries: 4096,
            slow_query_threshold: None,
            slow_query_capacity: 32,
        }
    }
}

/// One query captured by the service's slow-query ring: everything needed
/// to understand it after the fact, including the engine's full span tree.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query as submitted (original text, not the normalized cache key).
    pub query: String,
    /// The strategy that answered it.
    pub strategy: StrategyKind,
    /// End-to-end service latency: cache lookups, planning, and execution.
    pub latency: Duration,
    /// The snapshot version that answered.
    pub version: u64,
    /// Whether the answer came from the result cache (the trace then
    /// describes the original computation, not this lookup).
    pub cache_hit: bool,
    /// The engine's span tree for the query (present whenever the ring is
    /// armed, because the service forces tracing on).
    pub trace: Option<obs::Span>,
}

/// A long-lived, thread-shared certain-answer service over snapshot-versioned
/// databases. See the [module docs](self) for the design; construction is
/// [`CertainService::new`]/[`CertainService::with_options`], the read path is
/// [`CertainService::submit`] and friends, the write path is
/// [`CertainService::update`]/[`CertainService::replace`].
///
/// All methods take `&self`: share the service across threads as-is or in an
/// `Arc`.
#[derive(Debug)]
pub struct CertainService {
    /// The published snapshot. The write lock is held only for the pointer
    /// swap — never while copying, mutating, or measuring a database.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes writers, so concurrent updates compose (each copies the
    /// latest database) instead of lost-updating each other. Held across the
    /// whole copy-mutate-measure-publish cycle; readers never take it.
    writer: Mutex<()>,
    plans: RwLock<Plans>,
    /// Hash-sharded: unrelated queries take different locks, so a client
    /// fleet of cache hits doesn't serialize on one mutex.
    results: Results,
    stats: ServiceStats,
    semantics: Semantics,
    engine_options: EngineOptions,
    /// Latency histograms over the frozen {strategy} × {hit, miss} grid plus
    /// cache/snapshot gauges; recording is lock-free (see [`obs::registry`]).
    metrics: MetricsRegistry,
    /// The last N queries at or over `slow_threshold`, span trees included.
    slow: SlowQueryRing<SlowQuery>,
    slow_threshold: Option<Duration>,
    /// When the current snapshot was published (construction counts), for
    /// the snapshot-age gauge.
    published_at: Mutex<Instant>,
}

/// The frozen metrics shape: one latency histogram per (strategy, cache
/// outcome) pair the engine can ever report, plus the service gauges.
fn build_metrics() -> MetricsRegistry {
    let mut builder = MetricsRegistry::builder();
    for kind in StrategyKind::ALL {
        for cache in ["hit", "miss"] {
            builder = builder.histogram(
                "serve_query_latency_ns",
                &[("strategy", kind.name()), ("cache", cache)],
            );
        }
    }
    builder
        .gauge("serve_result_hit_rate")
        .gauge("serve_plan_hit_rate")
        .gauge("serve_snapshot_version")
        .gauge("serve_snapshot_age_seconds")
        .build()
}

impl CertainService {
    /// A service over `db` with [`ServeOptions::default`]: CWA semantics,
    /// default engine budgets, env-seeded morsel size.
    pub fn new(db: Database) -> Self {
        CertainService::with_options(db, ServeOptions::default())
    }

    /// A service over `db` with explicit options. The initial snapshot is
    /// version 0.
    pub fn with_options(db: Database, options: ServeOptions) -> Self {
        let mut engine_options = options.engine_options;
        if engine_options.morsel_rows.is_none() {
            // Read the environment seed exactly once, here: every query this
            // service ever runs uses this morsel size, no matter what the
            // process environment does later.
            engine_options = engine_options.with_morsel_rows(relmodel::batch::morsel_rows());
        }
        CertainService {
            current: RwLock::new(Arc::new(Snapshot::new(0, 0, db))),
            writer: Mutex::new(()),
            plans: RwLock::new(Plans::default()),
            results: Results::new(options.max_result_entries),
            stats: ServiceStats::default(),
            semantics: options.semantics,
            engine_options,
            metrics: build_metrics(),
            slow: SlowQueryRing::new(options.slow_query_capacity),
            slow_threshold: options.slow_query_threshold,
            published_at: Mutex::new(Instant::now()),
        }
    }

    /// The current snapshot. The returned `Arc` pins it: queries answered
    /// through it stay on this version even while writers publish newer ones.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let current = recover(self.current.read());
        Arc::clone(&current)
    }

    /// The current snapshot version (0 at construction, +1 per publish).
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// The engine options `submit`/`submit_batch` run with (morsel size
    /// already pinned).
    pub fn engine_options(&self) -> &EngineOptions {
        &self.engine_options
    }

    /// Answers `query` on the current snapshot under the service's default
    /// semantics and options.
    pub fn submit(&self, query: &str) -> Result<CertainReport, EngineError> {
        self.submit_with(query, self.semantics, self.engine_options)
    }

    /// Answers `query` on the current snapshot under caller-chosen semantics
    /// and options. Distinct options never share cached answers — asking
    /// with a bigger budget recomputes rather than inheriting a degraded
    /// report.
    pub fn submit_with(
        &self,
        query: &str,
        semantics: Semantics,
        options: EngineOptions,
    ) -> Result<CertainReport, EngineError> {
        self.answer_on(&self.snapshot(), query, semantics, options)
    }

    /// Answers a batch of queries against **one** snapshot (all reports
    /// carry the same `snapshot_version`, even if a writer publishes
    /// mid-batch), under the service's default semantics and options.
    ///
    /// Batch members share everything the service shares — repeated queries
    /// share one plan lowering via the plan cache, and under
    /// [`Semantics::ConsistentAnswers`] the whole batch shares the
    /// snapshot's one conflict-graph build.
    pub fn submit_batch(&self, queries: &[&str]) -> Vec<Result<CertainReport, EngineError>> {
        self.submit_batch_with(queries, self.semantics, self.engine_options)
    }

    /// [`CertainService::submit_batch`] with caller-chosen semantics and
    /// options.
    pub fn submit_batch_with(
        &self,
        queries: &[&str],
        semantics: Semantics,
        options: EngineOptions,
    ) -> Vec<Result<CertainReport, EngineError>> {
        ServiceStats::bump(&self.stats.batches);
        let snap = self.snapshot();
        queries
            .iter()
            .map(|q| self.answer_on(&snap, q, semantics, options))
            .collect()
    }

    /// The cache-through read path: result cache, then plan cache, then the
    /// engine, all against the one snapshot the caller pinned — wrapped in
    /// the service's latency metrics and slow-query capture.
    fn answer_on(
        &self,
        snap: &Snapshot,
        query: &str,
        semantics: Semantics,
        mut options: EngineOptions,
    ) -> Result<CertainReport, EngineError> {
        if self.slow_threshold.is_some() {
            // Force tracing *before* the cache key is computed: an armed
            // service has one fingerprint per caller-option set, so traced
            // and untraced runs of the same query never share a cache line
            // and every cached report carries a span tree.
            options = options.with_trace(true);
        }
        let started = Instant::now();
        let result = self.answer_uninstrumented(snap, query, semantics, options);
        if let Ok(report) = &result {
            self.observe(query, report, started.elapsed());
        }
        result
    }

    /// Records a finished query into the latency grid and, at or over the
    /// threshold, the slow-query ring.
    fn observe(&self, query: &str, report: &CertainReport, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let cache = if report.stats.cache_hit {
            "hit"
        } else {
            "miss"
        };
        self.metrics.record(
            "serve_query_latency_ns",
            &[("strategy", report.strategy.name()), ("cache", cache)],
            nanos,
        );
        let Some(threshold) = self.slow_threshold else {
            return;
        };
        if latency >= threshold {
            self.slow.push(SlowQuery {
                query: query.to_owned(),
                strategy: report.strategy,
                latency,
                version: report.stats.snapshot_version.unwrap_or_default(),
                cache_hit: report.stats.cache_hit,
                trace: report.stats.trace.clone(),
            });
        }
    }

    fn answer_uninstrumented(
        &self,
        snap: &Snapshot,
        query: &str,
        semantics: Semantics,
        options: EngineOptions,
    ) -> Result<CertainReport, EngineError> {
        ServiceStats::bump(&self.stats.queries);
        let normalized = normalize(query);
        let key = ResultKey {
            query: normalized,
            version: snap.version(),
            semantics,
            options_fp: options.fingerprint(),
        };

        if let Some(cached) = self.results.get(&key) {
            ServiceStats::bump(&self.stats.result_hits);
            // Plan lookup was skipped along with everything else.
            ServiceStats::bump(&self.stats.plan_hits);
            let mut report = (*cached).clone();
            report.stats.cache_hit = true;
            report.stats.plan_cache_hit = true;
            return Ok(report);
        }
        ServiceStats::bump(&self.stats.result_misses);

        let (plan, plan_cache_hit) = self.plan_on(snap, query, &key.query)?;
        // Errors (here and in planning above) are returned, never cached: a
        // transient budget error must not shadow a later successful answer.
        let mut report = snap.engine(semantics, options).plan_prepared(&plan)?;
        report.stats.snapshot_version = Some(snap.version());
        report.stats.plan_cache_hit = plan_cache_hit;
        self.results.insert(key, Arc::new(report.clone()));
        Ok(report)
    }

    /// Parse + typecheck + lower `query` against the snapshot's schema, or
    /// reuse the cached plan when the snapshot's schema epoch has one.
    fn plan_on(
        &self,
        snap: &Snapshot,
        query: &str,
        normalized: &str,
    ) -> Result<(Arc<PlannedQuery>, bool), EngineError> {
        let epoch = snap.schema_epoch();
        if let Some(plan) = recover(self.plans.read()).get(epoch, normalized) {
            ServiceStats::bump(&self.stats.plan_hits);
            return Ok((plan, true));
        }
        ServiceStats::bump(&self.stats.plan_misses);
        // Plan the ORIGINAL text (normalization is a cache key, not a
        // rewrite), against the pinned snapshot's schema.
        let plan = Arc::new(qparser::parse_and_plan(query, snap.database().schema())?);
        let plan = recover(self.plans.write()).insert(epoch, normalized.to_owned(), plan);
        Ok((plan, false))
    }

    /// Publishes the next snapshot: applies `mutate` to a copy of the
    /// current database and swaps the result in as version `current + 1`.
    /// Returns the new version.
    ///
    /// The copy is structural: it shares every relation with the current
    /// database, and a one-tuple write in `mutate` copies one chunk of the
    /// relation it touches, not the relation ([`relmodel::Relation`]).
    /// Dropping the previous snapshot, when this call held its last handle,
    /// likewise frees one chunk.
    /// The mutation and the measurement of the touched relations happen
    /// outside the snapshot lock — readers keep answering on the old version
    /// throughout and switch atomically at the pointer swap. A
    /// schema-changing mutation additionally starts a new plan-cache epoch.
    ///
    /// If `mutate` panics, the panic propagates to the caller and nothing is
    /// published: the current version stays, and later reads and writes
    /// proceed normally.
    pub fn update(&self, mutate: impl FnOnce(&mut Database)) -> u64 {
        let _writing = recover(self.writer.lock());
        let prev = self.snapshot();
        let mut db = Database::clone(prev.database());
        mutate(&mut db);
        self.publish(&prev, db)
    }

    /// Publishes `db` wholesale as the next snapshot (schema may differ
    /// arbitrarily from the current one). Returns the new version.
    pub fn replace(&self, db: Database) -> u64 {
        let _writing = recover(self.writer.lock());
        let prev = self.snapshot();
        self.publish(&prev, db)
    }

    /// The shared tail of [`CertainService::update`]/[`CertainService::replace`]:
    /// caller holds the writer lock and `prev` is the latest snapshot.
    fn publish(&self, prev: &Snapshot, db: Database) -> u64 {
        let schema_changed = db.schema() != prev.database().schema();
        let epoch = prev.schema_epoch() + u64::from(schema_changed);
        let version = prev.version() + 1;
        // The expensive part — measuring the touched relations — runs before
        // any reader is blocked.
        let next = Arc::new(prev.next(version, epoch, db));
        *recover(self.current.write()) = next;
        if schema_changed {
            recover(self.plans.write()).reset(epoch);
        }
        // Invalidation proper is by key (stale versions can't match); this
        // only reclaims their memory.
        self.results.retain_version(version);
        ServiceStats::bump(&self.stats.updates);
        *recover(self.published_at.lock()) = Instant::now();
        self.metrics
            .set_gauge("serve_snapshot_version", version as f64);
        version
    }

    /// A point-in-time copy of the service counters.
    pub fn telemetry(&self) -> ServiceTelemetry {
        self.stats.snapshot()
    }

    /// The service's metrics registry (latency histograms per
    /// {strategy, cache outcome}, plus gauges). Gauges are refreshed by the
    /// render methods; read through this for programmatic access to the
    /// histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The Prometheus-style metrics page: latency quantiles per recorded
    /// (strategy, cache) pair, cache hit-rate gauges, snapshot version and
    /// age. Gauges are refreshed at call time.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.metrics.render_text()
    }

    /// The same metrics as one BENCH-compatible JSON line.
    pub fn metrics_json(&self) -> String {
        self.refresh_gauges();
        self.metrics.render_json()
    }

    fn refresh_gauges(&self) {
        let t = self.telemetry();
        self.metrics
            .set_gauge("serve_result_hit_rate", t.result_hit_rate());
        self.metrics
            .set_gauge("serve_plan_hit_rate", t.plan_hit_rate());
        self.metrics
            .set_gauge("serve_snapshot_version", self.version() as f64);
        let age = recover(self.published_at.lock()).elapsed();
        self.metrics
            .set_gauge("serve_snapshot_age_seconds", age.as_secs_f64());
    }

    /// The captured slow queries, oldest first — empty unless
    /// [`ServeOptions::slow_query_threshold`] armed the ring. Each entry
    /// carries the full span tree of its query.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use engine::{FallbackReason, Guarantee, StrategyKind};
    use relmodel::builder::DatabaseBuilder;
    use relmodel::{Tuple, Value};

    fn ints(values: &[i64]) -> relmodel::Relation {
        let mut rel = relmodel::Relation::new(1);
        for v in values {
            rel.insert(Tuple::new(vec![Value::int(*v)]));
        }
        rel
    }

    fn one_relation() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["a"])
            .ints("R", &[1])
            .ints("R", &[2])
            .build()
    }

    /// Two tuples sharing key 1 → two repairs; enumeration is exact, the
    /// starved budget degrades to the conflict-free core.
    fn dirty() -> Database {
        DatabaseBuilder::new()
            .relation("R", &["k", "v"])
            .key("R", &["k"])
            .ints("R", &[1, 10])
            .ints("R", &[1, 20])
            .ints("R", &[2, 30])
            .build()
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CertainService>();
        assert_send_sync::<Arc<Snapshot>>();
    }

    #[test]
    fn repeated_query_hits_both_caches() {
        let service = CertainService::new(one_relation());
        let cold = service.submit("R").unwrap();
        assert!(!cold.stats.cache_hit);
        assert!(!cold.stats.plan_cache_hit);
        assert_eq!(cold.stats.snapshot_version, Some(0));
        assert_eq!(cold.answers, ints(&[1, 2]));

        let hot = service.submit("R").unwrap();
        assert!(hot.stats.cache_hit, "identical resubmit hits the cache");
        assert!(hot.stats.plan_cache_hit);
        assert_eq!(hot.answers, cold.answers);
        assert_eq!(hot.guarantee, cold.guarantee);

        // Whitespace variants share both caches.
        let spaced = service.submit("  R \n").unwrap();
        assert!(spaced.stats.cache_hit);

        let t = service.telemetry();
        assert_eq!(t.queries, 3);
        assert_eq!(t.result_hits, 2);
        assert_eq!(t.result_misses, 1);
        assert_eq!(t.plan_misses, 1);
    }

    #[test]
    fn version_bump_invalidates_results_but_not_plans() {
        let service = CertainService::new(one_relation());
        assert_eq!(service.version(), 0);
        service.submit("R").unwrap();

        let v = service.update(|db| {
            db.insert("R", Tuple::new(vec![Value::int(3)])).unwrap();
        });
        assert_eq!(v, 1);
        assert_eq!(service.version(), 1);

        let fresh = service.submit("R").unwrap();
        assert!(
            !fresh.stats.cache_hit,
            "a result computed on version 0 must not answer version 1"
        );
        assert!(
            fresh.stats.plan_cache_hit,
            "a data-only bump keeps the schema, hence the plan"
        );
        assert_eq!(fresh.stats.snapshot_version, Some(1));
        assert_eq!(fresh.answers, ints(&[1, 2, 3]));
    }

    #[test]
    fn starved_budget_report_is_never_served_to_a_bigger_budget() {
        let service = CertainService::with_options(
            dirty(),
            ServeOptions {
                semantics: Semantics::ConsistentAnswers,
                ..ServeOptions::default()
            },
        );
        let starved = service
            .submit_with(
                "R",
                Semantics::ConsistentAnswers,
                EngineOptions::default().with_max_repairs(1),
            )
            .unwrap();
        assert_eq!(starved.strategy, StrategyKind::ConflictFreeCore);
        assert_eq!(starved.guarantee, Guarantee::Sound);
        assert!(matches!(
            starved.stats.fallback,
            Some(FallbackReason::RepairBudget { .. })
        ));

        // Same query, same snapshot, default (bigger) budget: the degraded
        // report must not come back.
        let full = service.submit("R").unwrap();
        assert!(
            !full.stats.cache_hit,
            "distinct options fingerprints must not share a cache line"
        );
        assert_eq!(full.strategy, StrategyKind::RepairEnumeration);
        assert_eq!(full.guarantee, Guarantee::Exact);
        // Tuple (2,30) is in every repair; neither key-1 tuple is.
        assert_eq!(full.answers.len(), 1);

        // And each budget is hot for itself afterwards.
        let starved_again = service
            .submit_with(
                "R",
                Semantics::ConsistentAnswers,
                EngineOptions::default().with_max_repairs(1),
            )
            .unwrap();
        assert!(starved_again.stats.cache_hit);
        assert_eq!(starved_again.guarantee, Guarantee::Sound);
        let full_again = service.submit("R").unwrap();
        assert!(full_again.stats.cache_hit);
        assert_eq!(full_again.guarantee, Guarantee::Exact);
    }

    #[test]
    fn one_snapshot_builds_the_conflict_graph_exactly_once() {
        let service = CertainService::with_options(
            dirty(),
            ServeOptions {
                semantics: Semantics::ConsistentAnswers,
                ..ServeOptions::default()
            },
        );
        let snap = service.snapshot();
        assert_eq!(snap.conflict_graph_builds(), 0, "lazy until first use");

        // Cold + hot submits and a batch of distinct queries: one build.
        service.submit("R").unwrap();
        service.submit("R").unwrap();
        for result in service.submit_batch(&["R", "R union R", "R intersect R"]) {
            result.unwrap();
        }
        assert_eq!(snap.conflict_graph_builds(), 1);

        // The *next* snapshot measures its own graph — exactly once too.
        service.update(|db| {
            db.insert("R", Tuple::new(vec![Value::int(9), Value::int(9)]))
                .unwrap();
        });
        let snap2 = service.snapshot();
        service.submit("R").unwrap();
        service.submit("R union R").unwrap();
        assert_eq!(snap2.conflict_graph_builds(), 1);
        assert_eq!(snap.conflict_graph_builds(), 1, "old snapshot untouched");
    }

    #[test]
    fn one_snapshot_derives_its_repair_core_once() {
        let service = CertainService::with_options(
            dirty(),
            ServeOptions {
                semantics: Semantics::ConsistentAnswers,
                ..ServeOptions::default()
            },
        );
        let core_builds = |snap: &Snapshot| {
            let graph = snap.context().conflict_graph(snap.database());
            graph.expect("the schema has a key").core_builds()
        };
        let snap = service.snapshot();
        // Distinct texts miss the result cache: every one folds repairs,
        // linear or not, over the core the graph derived once.
        let texts = ["R", "project[#1](R)", "project[#0](R)", "R intersect R"];
        for text in texts {
            let report = service.submit(text).unwrap();
            assert!(!report.stats.cache_hit, "{text}");
            assert_eq!(report.strategy, StrategyKind::RepairEnumeration, "{text}");
        }
        assert_eq!(core_builds(&snap), 1, "{} requests, one core", texts.len());
        assert_eq!(service.submit("R").unwrap().answers.len(), 1);

        // (2, 31) clashes with the core tuple (2, 30): the successor derives
        // its own core, and no R tuple survives every repair any more.
        service.update(|db| {
            db.insert("R", Tuple::new(vec![Value::int(2), Value::int(31)]))
                .unwrap();
        });
        let next = service.snapshot();
        assert_eq!(core_builds(&next), 0, "lazy until first use");
        let after = service.submit("R").unwrap();
        assert_eq!(after.strategy, StrategyKind::RepairEnumeration);
        assert!(after.answers.is_empty(), "{}", after.answers);
        let keys = service.submit("project[#0](R)").unwrap();
        assert_eq!(keys.answers, ints(&[1, 2]), "every key survives");
        assert_eq!(core_builds(&next), 1);
        assert_eq!(core_builds(&snap), 1, "old snapshot untouched");
    }

    #[test]
    fn schema_change_starts_a_new_plan_epoch() {
        let service = CertainService::new(one_relation());
        service.submit("R").unwrap();
        let before = service.telemetry();
        assert_eq!(before.plan_misses, 1);

        let v = service.replace(
            DatabaseBuilder::new()
                .relation("R", &["a"])
                .relation("S", &["a"])
                .ints("R", &[7])
                .ints("S", &[7])
                .build(),
        );
        assert_eq!(v, 1);

        // "S" only typechecks against the new schema; "R" must re-plan (its
        // cached plan belonged to the old epoch).
        let s = service.submit("S").unwrap();
        assert!(!s.stats.plan_cache_hit);
        assert_eq!(s.answers, ints(&[7]));
        let r = service.submit("R").unwrap();
        assert!(!r.stats.plan_cache_hit, "old-epoch plans were dropped");
        assert_eq!(r.answers, ints(&[7]));
        assert_eq!(service.telemetry().plan_misses, 3);
    }

    #[test]
    fn batch_pins_one_snapshot_and_reports_it() {
        let service = CertainService::new(one_relation());
        service.update(|_| {});
        let reports = service.submit_batch(&["R", "R union R"]);
        for report in reports {
            let report = report.unwrap();
            assert_eq!(report.stats.snapshot_version, Some(1));
        }
        let t = service.telemetry();
        assert_eq!(t.batches, 1);
        assert_eq!(t.queries, 2);
    }

    #[test]
    fn errors_are_returned_and_not_cached() {
        let service = CertainService::new(one_relation());
        assert!(service.submit("NoSuchRelation").is_err());
        assert!(service.submit("NoSuchRelation").is_err());
        let t = service.telemetry();
        assert_eq!(t.result_hits, 0, "errors never populate the cache");
        assert_eq!(t.result_misses, 2);
    }

    #[test]
    fn metrics_grid_records_latencies_and_gauges() {
        let service = CertainService::new(one_relation());
        service.submit("R").unwrap();
        service.submit("R").unwrap();
        let grid = |cache| {
            service.metrics().histogram_count(
                "serve_query_latency_ns",
                &[("strategy", "naive-exact"), ("cache", cache)],
            )
        };
        assert_eq!(grid("miss"), 1, "cold submit recorded as a miss");
        assert_eq!(grid("hit"), 1, "hot submit recorded as a hit");

        let text = service.metrics_text();
        assert!(
            text.contains(
                "serve_query_latency_ns{strategy=\"naive-exact\",cache=\"hit\",quantile=\"0.5\"}"
            ),
            "got: {text}"
        );
        assert!(text.contains("serve_result_hit_rate 0.5"), "got: {text}");
        assert!(text.contains("serve_snapshot_version 0"), "got: {text}");

        let json = service.metrics_json();
        assert!(!json.contains('\n'), "one line for BENCH artifacts");
        assert!(json.contains("\"serve_snapshot_version\":0"), "got: {json}");
        service.update(|_| {});
        let json = service.metrics_json();
        assert!(json.contains("\"serve_snapshot_version\":1"), "got: {json}");
    }

    #[test]
    fn armed_slow_query_ring_captures_full_traces() {
        let service = CertainService::with_options(
            one_relation(),
            ServeOptions {
                slow_query_threshold: Some(std::time::Duration::ZERO),
                slow_query_capacity: 4,
                ..ServeOptions::default()
            },
        );
        service.submit("R").unwrap();
        service.submit("R").unwrap();
        let slow = service.slow_queries();
        assert_eq!(slow.len(), 2, "zero threshold captures everything");

        let cold = &slow[0];
        assert_eq!(cold.query, "R");
        assert!(!cold.cache_hit);
        assert_eq!(cold.strategy, StrategyKind::NaiveExact);
        assert_eq!(cold.version, 0);
        let trace = cold.trace.as_ref().expect("armed ring forces tracing");
        assert_eq!(trace.name, "query");
        assert!(trace.find("plan").is_some());
        assert!(trace.find("execute").is_some());
        assert!(trace.find("naive-exact").is_some());

        let hot = &slow[1];
        assert!(hot.cache_hit);
        assert!(
            hot.trace.is_some(),
            "a cached report keeps the trace of the original computation"
        );

        // An unarmed service forces nothing and captures nothing.
        let plain = CertainService::new(one_relation());
        let report = plain.submit("R").unwrap();
        assert!(report.stats.trace.is_none());
        assert!(plain.slow_queries().is_empty());
    }

    #[test]
    fn in_flight_snapshot_outlives_publishes() {
        let service = CertainService::new(one_relation());
        let pinned = service.snapshot();
        service.update(|db| {
            db.insert("R", Tuple::new(vec![Value::int(3)])).unwrap();
        });
        service.update(|db| {
            db.insert("R", Tuple::new(vec![Value::int(4)])).unwrap();
        });
        // The pinned snapshot still answers with its own version's data.
        let old = service
            .answer_on(&pinned, "R", Semantics::Cwa, *service.engine_options())
            .unwrap();
        assert_eq!(old.stats.snapshot_version, Some(0));
        assert_eq!(old.answers, ints(&[1, 2]));
        let new = service.submit("R").unwrap();
        assert_eq!(new.stats.snapshot_version, Some(2));
        assert_eq!(new.answers, ints(&[1, 2, 3, 4]));
    }

    #[test]
    fn a_panicking_update_publishes_nothing_and_poisons_nothing() {
        let service = CertainService::new(one_relation());
        service.submit("R").unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.update(|db| {
                db.insert("R", Tuple::new(vec![Value::int(99)])).unwrap();
                panic!("caller bug inside the update closure");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(service.version(), 0, "nothing was published");
        let read = service.submit("R").unwrap();
        assert_eq!(read.answers, ints(&[1, 2]), "the half-made write is gone");
        assert!(read.stats.cache_hit, "the result cache survived");

        let v = service.update(|db| {
            db.insert("R", Tuple::new(vec![Value::int(3)])).unwrap();
        });
        assert_eq!(v, 1);
        assert_eq!(service.replace(one_relation()), 2);
        assert_eq!(service.submit("R").unwrap().answers, ints(&[1, 2]));
        assert!(service.metrics_text().contains("serve_snapshot_version 2"));
    }
}
