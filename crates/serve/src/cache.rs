//! The service's two caches: plans by normalized query text, certain-answer
//! results by (query, snapshot version, semantics, options fingerprint).
//!
//! **Plan cache.** Planning (parse → typecheck → classify → lower) depends
//! only on the query text and the schema, so plans survive data-only
//! snapshot bumps; the cache carries the schema *epoch* it was built under
//! and is consulted only by snapshots of the same epoch (a schema-changing
//! publish starts a new epoch and drops every plan).
//!
//! **Result cache.** Keyed by the full (normalized query, snapshot version,
//! semantics, [`EngineOptions::fingerprint`]) tuple, so invalidation is *by
//! version bump*: an entry computed against version `v` can simply never
//! match a request on version `v+1` — no scanning, no epochs, no dirty
//! bits. The options fingerprint is the degradation-correctness axis: a
//! report computed under a starved budget (guarantee `Sound`, fallback
//! recorded) must never be served to a caller whose larger budget would
//! have earned `Exact`, and with the fingerprint in the key it cannot be.
//! Memory is bounded two ways: stale-version entries are pruned when a new
//! version is published (writers pay, readers never do), and within a
//! version a FIFO capacity evicts the oldest entries.
//!
//! Under many concurrent clients a single result-cache mutex becomes the
//! service's hottest lock — every submit takes it at least once even on a
//! pure hit. [`ShardedResultCache`] splits the key space across
//! [`RESULT_SHARDS`] independently locked FIFO caches by key hash, so
//! unrelated queries contend only `1/RESULT_SHARDS` of the time while each
//! shard keeps the same keying, eviction, and version-pruning story.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex};

use engine::{CertainReport, Semantics};
use relalgebra::plan::PlannedQuery;

/// Whitespace-normalizes a query so textual variants of one query share a
/// plan-cache line: runs of whitespace collapse to one space and the ends
/// are trimmed — except inside single-quoted string literals, which are
/// preserved verbatim (`'a  b'` and `'a b'` are different constants).
pub fn normalize(query: &str) -> String {
    let mut out = String::with_capacity(query.len());
    let mut in_quote = false;
    let mut pending_space = false;
    for c in query.chars() {
        if in_quote {
            out.push(c);
            in_quote = c != '\'';
            continue;
        }
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        out.push(c);
        in_quote = c == '\'';
    }
    out
}

/// The plan cache: normalized query text → shared plan, valid for one
/// schema epoch.
#[derive(Debug, Default)]
pub struct PlanCache {
    epoch: u64,
    plans: HashMap<String, Arc<PlannedQuery>>,
}

impl PlanCache {
    /// The cached plan for a normalized query, if this cache's epoch
    /// matches the asking snapshot's.
    pub fn get(&self, epoch: u64, normalized: &str) -> Option<Arc<PlannedQuery>> {
        (self.epoch == epoch)
            .then(|| self.plans.get(normalized).cloned())
            .flatten()
    }

    /// Inserts (or returns the concurrently inserted) plan for a normalized
    /// query. A plan typechecked under another epoch is not stored: the
    /// caller still gets its plan back, it just is not shared.
    pub fn insert(
        &mut self,
        epoch: u64,
        normalized: String,
        plan: Arc<PlannedQuery>,
    ) -> Arc<PlannedQuery> {
        if self.epoch != epoch {
            return plan;
        }
        Arc::clone(self.plans.entry(normalized).or_insert(plan))
    }

    /// Starts a new schema epoch, dropping every cached plan.
    pub fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.plans.clear();
    }

    /// Cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// The full identity of a cacheable answer. Two requests share a cached
/// report only when every coordinate matches — same (normalized) query,
/// same snapshot, same semantics, same options budget.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// The whitespace-normalized query text (the plan-cache key; using the
    /// text itself rather than a hash keeps the key collision-free).
    pub query: String,
    /// The snapshot version the answer was computed against.
    pub version: u64,
    /// The semantics the question was asked under.
    pub semantics: Semantics,
    /// [`engine::EngineOptions::fingerprint`] of the request's options.
    pub options_fp: u64,
}

/// The certain-answer result cache. See the module docs above for the
/// keying and invalidation story.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<ResultKey, Arc<CertainReport>>,
    /// Insertion order for FIFO eviction within a version.
    order: VecDeque<ResultKey>,
    capacity: usize,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` reports.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The cached report for a key, if present.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<CertainReport>> {
        self.entries.get(key).cloned()
    }

    /// Caches a report, evicting the oldest entries beyond capacity.
    pub fn insert(&mut self, key: ResultKey, report: Arc<CertainReport>) {
        if self.entries.insert(key.clone(), report).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
    }

    /// Drops every entry not computed against `version` — the
    /// publish-time pruning that keeps stale versions from accumulating.
    /// (Correctness never needs this: a stale key can no longer match.)
    pub fn retain_version(&mut self, version: u64) {
        self.entries.retain(|k, _| k.version == version);
        self.order.retain(|k| k.version == version);
    }

    /// Cached reports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Lock shards in a [`ShardedResultCache`]. A small power of two: enough to
/// spread a client fleet, few enough that per-shard FIFO capacity stays
/// meaningful.
pub const RESULT_SHARDS: usize = 8;

/// A concurrency-sharded [`ResultCache`]: [`RESULT_SHARDS`] independently
/// locked FIFO caches, with keys routed by hash. Capacity is divided evenly
/// across shards (so the total bound is preserved up to rounding); eviction
/// and publish-time version pruning are per shard.
///
/// All methods take `&self` — the locks live inside.
#[derive(Debug)]
pub struct ShardedResultCache {
    shards: Vec<Mutex<ResultCache>>,
}

impl ShardedResultCache {
    /// An empty sharded cache holding at most ~`capacity` reports in total
    /// (each shard gets `⌈capacity / RESULT_SHARDS⌉`, minimum 1).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(RESULT_SHARDS).max(1);
        ShardedResultCache {
            shards: (0..RESULT_SHARDS)
                .map(|_| Mutex::new(ResultCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &ResultKey) -> &Mutex<ResultCache> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// The cached report for a key, if its shard has it.
    pub fn get(&self, key: &ResultKey) -> Option<Arc<CertainReport>> {
        crate::recover(self.shard(key).lock()).get(key)
    }

    /// Caches a report in the key's shard, evicting FIFO beyond the shard
    /// capacity.
    pub fn insert(&self, key: ResultKey, report: Arc<CertainReport>) {
        crate::recover(self.shard(&key).lock()).insert(key, report);
    }

    /// Drops every entry (in every shard) not computed against `version`.
    pub fn retain_version(&self, version: u64) {
        for shard in &self.shards {
            crate::recover(shard.lock()).retain_version(version);
        }
    }

    /// Cached reports across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| crate::recover(s.lock()).len())
            .sum()
    }

    /// Is every shard empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_whitespace_outside_quotes() {
        assert_eq!(normalize("  R   union\n\tS "), "R union S");
        assert_eq!(normalize("R union S"), "R union S");
        // String literals keep their spacing: different constants must not
        // conflate.
        assert_eq!(
            normalize("select[#0 = 'a  b'](  R )"),
            "select[#0 = 'a  b']( R )"
        );
        assert_ne!(
            normalize("select[#0 = 'a  b'](R)"),
            normalize("select[#0 = 'a b'](R)")
        );
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn result_cache_fifo_evicts_and_prunes_versions() {
        let mut cache = ResultCache::new(2);
        let key = |q: &str, v: u64| ResultKey {
            query: q.into(),
            version: v,
            semantics: Semantics::Cwa,
            options_fp: 0,
        };
        let report = |q: &str, v: u64| {
            // Only identity matters here; a default-ish report suffices.
            Arc::new(CertainReport {
                answers: relmodel::Relation::new(0),
                object_answer: None,
                strategy: engine::StrategyKind::NaiveExact,
                guarantee: engine::Guarantee::Exact,
                class: relalgebra::classify::QueryClass::Positive,
                semantics: Semantics::Cwa,
                stats: engine::EngineStats {
                    snapshot_version: Some(v),
                    plan_text: q.into(),
                    ..Default::default()
                },
            })
        };
        cache.insert(key("a", 1), report("a", 1));
        cache.insert(key("b", 1), report("b", 1));
        cache.insert(key("c", 1), report("c", 1));
        assert_eq!(cache.len(), 2, "capacity 2: FIFO evicted the oldest");
        assert!(cache.get(&key("a", 1)).is_none(), "a was first in");
        assert!(cache.get(&key("c", 1)).is_some());
        cache.insert(key("c", 2), report("c", 2));
        cache.retain_version(2);
        assert_eq!(cache.len(), 1, "publish pruned version-1 entries");
        assert!(cache.get(&key("c", 2)).is_some());
        // Re-inserting an existing key must not duplicate its order slot.
        cache.insert(key("c", 2), report("c", 2));
        cache.insert(key("d", 2), report("d", 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharded_cache_keeps_the_keying_and_pruning_story() {
        let cache = ShardedResultCache::new(64);
        let key = |q: &str, v: u64| ResultKey {
            query: q.into(),
            version: v,
            semantics: Semantics::Cwa,
            options_fp: 0,
        };
        let report = || {
            Arc::new(CertainReport {
                answers: relmodel::Relation::new(0),
                object_answer: None,
                strategy: engine::StrategyKind::NaiveExact,
                guarantee: engine::Guarantee::Exact,
                class: relalgebra::classify::QueryClass::Positive,
                semantics: Semantics::Cwa,
                stats: engine::EngineStats::default(),
            })
        };
        // Keys land across shards but every one is findable again.
        for i in 0..32 {
            cache.insert(key(&format!("q{i}"), 1), report());
        }
        assert_eq!(cache.len(), 32);
        for i in 0..32 {
            assert!(cache.get(&key(&format!("q{i}"), 1)).is_some(), "q{i}");
        }
        assert!(cache.get(&key("q0", 2)).is_none(), "version is in the key");
        // Publish-time pruning reaches every shard.
        cache.insert(key("fresh", 2), report());
        cache.retain_version(2);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("fresh", 2)).is_some());
        // A tiny total capacity still leaves one slot per shard.
        let tiny = ShardedResultCache::new(1);
        tiny.insert(key("a", 1), report());
        assert!(tiny.get(&key("a", 1)).is_some());
    }

    #[test]
    fn plan_cache_is_epoch_scoped() {
        let schema = relmodel::Schema::builder().relation("R", &["a"]).build();
        let plan = Arc::new(
            qparser::parse_and_plan("R", &schema).expect("R typechecks against the test schema"),
        );
        let mut cache = PlanCache::default();
        assert!(cache.get(0, "R").is_none());
        cache.insert(0, "R".into(), Arc::clone(&plan));
        assert!(cache.get(0, "R").is_some());
        assert!(cache.get(1, "R").is_none(), "wrong epoch never matches");
        // Inserting under a mismatched epoch stores nothing.
        cache.insert(1, "S".into(), Arc::clone(&plan));
        assert_eq!(cache.len(), 1);
        cache.reset(1);
        assert!(cache.is_empty());
        assert!(cache.get(1, "R").is_none());
    }
}
