//! The physical-plan executor: one hash-join operator core under every
//! evaluator.
//!
//! [`relalgebra::physical`] lowers a query to a [`PhysicalPlan`] once;
//! [`columnar`] executes that plan on a morsel-driven batched core under the
//! three row models the strategies need:
//!
//! * **plain tuples** ([`columnar::execute`]) — syntactic value equality;
//!   this is what naïve evaluation *is*, and (on complete inputs) textbook
//!   evaluation. Its semantics is one operator table, which both the
//!   plain executor and the enumeration folds' [`columnar::split`]
//!   executor evaluate through: the split executor adds only the
//!   incremental rules for the rows that vary per world or repair.
//! * **the certain⁺/possible? pair** ([`columnar::approx`]) — the sound
//!   approximation's under/over pair, with marked-null three-valued filters
//!   and unification-aware set operators.
//! * **condition-carrying c-table rows** ([`columnar::ctable`]) — the
//!   Imieliński–Lipski algebra re-expressed on the operator core; rows carry
//!   [`ctables::condition::Condition`]s instead of being filtered outright.
//!
//! All three share the same kernel shape: **hash what is ground, loop what
//! is symbolic**. Under syntactic equality every row is "ground" (a marked
//! null is just a value), so plain execution is pure build/probe hashing.
//! Under valuation-aware semantics a key containing a null can match rows a
//! hash lookup would miss, so each operator splits its input into a ground
//! run for the hash path and a (typically small) symbolic remainder that the
//! model-specific operators handle pair by pair.
//!
//! The logical evaluators — [`crate::engine`], [`crate::approx`], and
//! [`ctables::algebra`] — define what each executor computes; the
//! differential suites hold the columnar core to them.
//!
//! This module keeps what every executor shares: [`OpStats`] counts what
//! actually happened (operators run, hash joins, build/probe rows, symbolic
//! fallback pairs); the engine surfaces it in
//! [`CertainReport`](../../engine) alongside the plan's `EXPLAIN` text, and
//! [`NodeProfile`] is the per-operator record behind `EXPLAIN ANALYZE`.

pub mod columnar;

use relalgebra::physical::PhysicalPlan;
use relalgebra::predicate::Predicate;
use relmodel::{Database, Tuple};
/// Execution telemetry: what the physical operators actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Physical operator nodes evaluated (across all worlds, for the worlds
    /// strategy).
    pub operators: usize,
    /// Hash joins executed.
    pub hash_joins: usize,
    /// Rows hashed into join build tables.
    pub build_rows: usize,
    /// Rows probed against join build tables.
    pub probe_rows: usize,
    /// Rows emitted by joins (before any parent operator).
    pub join_rows_out: usize,
    /// Row pairs handled by the symbolic (null-key / condition-row) fallback
    /// outside the hash path. Zero for plain execution, where every key is
    /// syntactically ground.
    pub fallback_pairs: usize,
    /// Morsel chunks processed by the columnar executors' operator loops.
    pub batches: usize,
    /// Probe-side rows routed through the vectorized ground run of a
    /// run-splitting columnar operator (join, ∪/−/∩ membership, ÷). Under
    /// syntactic equality every row is ground, so for the plain columnar
    /// executor this counts all probed rows.
    pub ground_rows: usize,
    /// Probe-side rows routed to the per-row symbolic fallback of a
    /// run-splitting columnar operator. `ground_rows + symbolic_rows` is the
    /// total probed-row traffic of the batched core.
    pub symbolic_rows: usize,
    /// Hash tables (join build sides, membership / dedup tables) actually
    /// constructed. The batched enumeration folds build tables over the
    /// world-invariant runs once per shard, so across an enumeration this
    /// stays near the per-shard table count.
    pub tables_built: usize,
    /// Cache hits on those tables: evaluations served by a table built for
    /// an earlier world/repair of the same shard instead of rebuilding.
    /// `tables_reused / (tables_built + tables_reused)` is the reuse rate
    /// the bench gate tracks.
    pub tables_reused: usize,
}

/// Number of counters in [`OpStats`] (the length of
/// [`OpStats::to_array`]).
pub const OP_STATS_FIELDS: usize = 11;

impl OpStats {
    /// The counters as a fixed array, in declaration order. Built by
    /// exhaustive destructuring — adding a counter without updating this
    /// (and thereby [`OpStats::merge`]) is a compile error, so aggregation
    /// across worlds shards can never silently drop a field.
    pub fn to_array(&self) -> [usize; OP_STATS_FIELDS] {
        let OpStats {
            operators,
            hash_joins,
            build_rows,
            probe_rows,
            join_rows_out,
            fallback_pairs,
            batches,
            ground_rows,
            symbolic_rows,
            tables_built,
            tables_reused,
        } = *self;
        [
            operators,
            hash_joins,
            build_rows,
            probe_rows,
            join_rows_out,
            fallback_pairs,
            batches,
            ground_rows,
            symbolic_rows,
            tables_built,
            tables_reused,
        ]
    }

    /// Inverse of [`OpStats::to_array`].
    pub fn from_array(a: [usize; OP_STATS_FIELDS]) -> OpStats {
        let [operators, hash_joins, build_rows, probe_rows, join_rows_out, fallback_pairs, batches, ground_rows, symbolic_rows, tables_built, tables_reused] =
            a;
        OpStats {
            operators,
            hash_joins,
            build_rows,
            probe_rows,
            join_rows_out,
            fallback_pairs,
            batches,
            ground_rows,
            symbolic_rows,
            tables_built,
            tables_reused,
        }
    }

    /// Accumulates another execution's counters into this one (used by the
    /// worlds strategy to aggregate across per-world executions and worker
    /// shards). Sums every counter, by construction: the conversion through
    /// [`OpStats::to_array`] destructures exhaustively.
    pub fn merge(&mut self, other: &OpStats) {
        let mut sum = self.to_array();
        for (s, o) in sum.iter_mut().zip(other.to_array()) {
            *s += o;
        }
        *self = OpStats::from_array(sum);
    }

    /// One-line telemetry rendering, used in EXPLAIN footers and the
    /// examples.
    pub fn summary(&self) -> String {
        format!(
            "operators {} · hash joins {} · build rows {} · probe rows {} · join rows out {} · fallback pairs {}\nbatches {} · ground rows {} · symbolic rows {} · tables built {} · tables reused {}",
            self.operators,
            self.hash_joins,
            self.build_rows,
            self.probe_rows,
            self.join_rows_out,
            self.fallback_pairs,
            self.batches,
            self.ground_rows,
            self.symbolic_rows,
            self.tables_built,
            self.tables_reused,
        )
    }
}

/// The plan's EXPLAIN text with the execution telemetry attached as a
/// footer — what `examples/explain_tour.rs` prints after running a plan.
pub fn explain_executed(plan: &PhysicalPlan, stats: &OpStats) -> String {
    plan.explain_with_footer(&stats.summary())
}

/// What one physical operator did during a profiled execution — the
/// per-node record behind `EXPLAIN ANALYZE`.
///
/// All counters are **inclusive** of the node's subtree (Postgres-style):
/// a parent's `nanos` covers its children's, so sibling subtrees can be
/// compared directly and the root's time is the whole execution. Wall-clock
/// lives here and deliberately **not** in [`OpStats`], which the
/// differential tests compare with `Eq` across executors and must stay
/// deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    /// The plan-unique preorder id of the node
    /// ([`relalgebra::physical::PhysNode::id`]).
    pub id: u32,
    /// Rows the node emitted (post-dedup, pre-parent).
    pub rows: usize,
    /// Morsel chunks processed in the subtree rooted here.
    pub batches: usize,
    /// Hash tables constructed in the subtree rooted here.
    pub tables_built: usize,
    /// Hash-table cache hits in the subtree rooted here.
    pub tables_reused: usize,
    /// Inclusive wall-clock for the subtree, in nanoseconds.
    pub nanos: u64,
}

/// The `Δ` diagonal of `db`'s active domain — one `(v, v)` tuple per value.
/// Shared by the plain and pair executors, which both compute it once per
/// execution and serve every `Delta` node from that one copy.
pub(crate) fn delta_diagonal(db: &Database) -> Vec<Tuple> {
    db.active_domain()
        .into_iter()
        .map(|v| Tuple::new(vec![v.clone(), v]))
        .collect()
}

/// The full join predicate of a hash join — its equi-key atoms (in
/// concatenated-row coordinates) conjoined with the residual. The
/// valuation-aware executors re-check candidate pairs against this, so the
/// hash path can never change semantics, only skip non-matches.
pub(crate) fn join_predicate(
    keys: &[(usize, usize)],
    left_arity: usize,
    residual: &Option<Predicate>,
) -> Predicate {
    use relalgebra::predicate::Operand;
    let atoms = keys
        .iter()
        .map(|(l, r)| Predicate::eq(Operand::col(*l), Operand::col(left_arity + *r)));
    let keyed = Predicate::conjoin(atoms);
    match residual {
        None => keyed,
        Some(p) => keyed.and(p.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::ast::RaExpr;
    use relalgebra::plan::PlannedQuery;
    use relmodel::Schema;

    /// Merging shard telemetry must sum **every** field — the worlds
    /// evaluator folds per-shard `OpStats` together, and a field skipped by
    /// `merge` would silently drift. `to_array`/`from_array` destructure
    /// exhaustively, so this test plus the `OP_STATS_FIELDS` bound breaks
    /// at compile time when a counter is added without updating the merge.
    #[test]
    fn op_stats_merge_sums_every_field() {
        // Distinct primes in every slot so a dropped or swapped field is
        // detected no matter which one it is.
        let a = OpStats::from_array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]);
        assert_eq!(a.to_array(), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]);
        let mut merged = OpStats::default();
        merged.merge(&a);
        merged.merge(&a);
        let doubled: Vec<usize> = a.to_array().iter().map(|x| x * 2).collect();
        assert_eq!(
            merged.to_array().to_vec(),
            doubled,
            "merge must double every field"
        );
        // And the batch/run counters land in the summary telemetry.
        let text = merged.summary();
        assert!(text.contains("batches 34"), "summary: {text}");
        assert!(text.contains("ground rows 38"), "summary: {text}");
        assert!(text.contains("symbolic rows 46"), "summary: {text}");
        assert!(text.contains("tables built 58"), "summary: {text}");
        assert!(text.contains("tables reused 62"), "summary: {text}");
        // The array conversions are inverses — a reordered destructuring
        // would survive the doubling check above but not this roundtrip.
        assert_eq!(OpStats::from_array(a.to_array()), a);
        // The same summary (table counters included) reaches the
        // `explain_executed` footer verbatim, `-- `-prefixed per line.
        let schema = Schema::builder().relation("R", &["a", "b"]).build();
        let plan = PlannedQuery::new(RaExpr::relation("R"), &schema).unwrap();
        let footer = explain_executed(plan.physical(), &merged);
        for line in merged.summary().lines() {
            assert!(
                footer.contains(&format!("-- {line}")),
                "footer must carry every summary line: {footer}"
            );
        }
    }
}
