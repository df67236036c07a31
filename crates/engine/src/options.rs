//! Budgets and modes governing the planner's strategy choice.

use std::hash::{Hash, Hasher};

use releval::symbolic::SymbolicOptions;
use releval::worlds::WorldOptions;
use repairs::RepairOptions;

/// Options controlling how far the engine may go for a query outside the
/// theorem-backed fragment.
///
/// With the default options the engine answers exactly where the paper
/// proves naïve evaluation correct, answers **symbolically** (c-tables +
/// certainty solver — exact, polynomial per output tuple) for the remaining
/// classes under CWA, and otherwise returns an explicitly-labelled
/// approximation. When the symbolic solver punts, the engine falls back to
/// possible-world enumeration *within* the `max_nulls` / `max_worlds`
/// budget, then to the sound approximation — with
/// [`crate::EngineStats::fallback`] and
/// [`crate::EngineStats::degraded`] saying so. Opting into
/// [`EngineOptions::exhaustive`] additionally allows enumeration as the
/// ground truth where neither theorem nor symbolic strategy applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Allow possible-world enumeration for queries no exact polynomial
    /// strategy covers. Off by default: enumeration is exponential in the
    /// number of nulls, which is exactly the cost the paper's fix avoids.
    pub exhaustive: bool,
    /// Allow the symbolic c-table strategy for queries whose class has no
    /// naïve guarantee under CWA. On by default: it is exact and polynomial
    /// per output tuple. Disable to reproduce the pre-symbolic planner (the
    /// benches do, to measure the gap).
    pub symbolic: bool,
    /// Solver budget for the symbolic strategy; the engine falls back when
    /// it fires.
    pub symbolic_options: SymbolicOptions,
    /// Ground-truth budget: refuse enumeration when the database has more
    /// distinct nulls than this.
    pub max_nulls: usize,
    /// Domain construction and world budget for enumeration, shared with
    /// [`releval::worlds`]. Its `max_worlds` field is the second budget axis.
    pub world_options: WorldOptions,
    /// Budgets for consistent query answering under
    /// [`crate::Semantics::ConsistentAnswers`]: repair enumeration is
    /// attempted while the conflict graph's repair estimate — or, past it,
    /// the factorized fold's own element count for a plan that factorizes —
    /// fits `repair_options.max_repairs`, and degrades to the
    /// conflict-free-core approximation beyond it.
    pub repair_options: RepairOptions,
    /// Rows per morsel for the columnar executors. `None` (the default)
    /// reads the `MORSEL_ROWS` environment variable per call as the seed;
    /// long-lived services set this explicitly once at construction so
    /// batching is a per-service decision, not a process-global one.
    pub morsel_rows: Option<usize>,
    /// Record a per-query span tree ([`obs::Span`]) into
    /// [`crate::EngineStats::trace`]. Off by default: the disabled path is
    /// a handful of `bool` branches at phase boundaries — no timers, no
    /// allocation (the bench lane asserts < 5 % dispatch overhead).
    pub trace: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            exhaustive: false,
            symbolic: true,
            symbolic_options: SymbolicOptions::default(),
            max_nulls: 8,
            world_options: WorldOptions::default(),
            repair_options: RepairOptions::default(),
            morsel_rows: None,
            trace: false,
        }
    }
}

impl EngineOptions {
    /// Options allowing ground-truth enumeration (within the default budget).
    pub fn exhaustive() -> Self {
        EngineOptions {
            exhaustive: true,
            ..EngineOptions::default()
        }
    }

    /// Disables the symbolic c-table strategy, restoring the pre-symbolic
    /// dispatch (approximation by default, enumeration in exhaustive mode).
    pub fn without_symbolic(mut self) -> Self {
        self.symbolic = false;
        self
    }

    /// Sets the symbolic solver's decision budget.
    pub fn with_max_decisions(mut self, max_decisions: usize) -> Self {
        self.symbolic_options.max_decisions = max_decisions;
        self
    }

    /// Sets the maximum number of nulls for which enumeration is attempted.
    pub fn with_max_nulls(mut self, max_nulls: usize) -> Self {
        self.max_nulls = max_nulls;
        self
    }

    /// Sets the world-count budget for enumeration.
    pub fn with_max_worlds(mut self, max_worlds: u128) -> Self {
        self.world_options.max_worlds = max_worlds;
        self
    }

    /// Replaces the whole world-enumeration configuration.
    pub fn with_world_options(mut self, opts: WorldOptions) -> Self {
        self.world_options = opts;
        self
    }

    /// Sets the repair-visit budget for consistent query answering.
    pub fn with_max_repairs(mut self, max_repairs: u128) -> Self {
        self.repair_options.max_repairs = max_repairs;
        self
    }

    /// Replaces the whole repair-enumeration configuration.
    pub fn with_repair_options(mut self, opts: RepairOptions) -> Self {
        self.repair_options = opts;
        self
    }

    /// Pins the columnar executors' morsel size explicitly (services call
    /// this once with their env-seeded size at construction).
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        self.morsel_rows = Some(morsel_rows.max(1));
        self
    }

    /// Turns per-query trace recording on or off (see
    /// [`EngineOptions::trace`]).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// A stable fingerprint of **every** option field, for result-cache
    /// keys: two option sets share a cached answer only when the
    /// fingerprints match, so a report computed under a starved budget (and
    /// honestly degraded to `Sound`) can never be served to a caller whose
    /// larger budget would have earned `Exact`. Equal options always yield
    /// equal fingerprints; distinct options collide only with ordinary
    /// 64-bit hash probability.
    pub fn fingerprint(&self) -> u64 {
        fn world(h: &mut impl Hasher, w: &WorldOptions) {
            w.extra_fresh.hash(h);
            w.max_owa_extra.hash(h);
            w.max_worlds.hash(h);
            w.threads.hash(h);
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.exhaustive.hash(&mut h);
        self.symbolic.hash(&mut h);
        self.symbolic_options.max_decisions.hash(&mut h);
        self.max_nulls.hash(&mut h);
        world(&mut h, &self.world_options);
        self.repair_options.max_repairs.hash(&mut h);
        self.repair_options.threads.hash(&mut h);
        world(&mut h, &self.repair_options.world_options);
        self.repair_options
            .symbolic_options
            .max_decisions
            .hash(&mut h);
        self.morsel_rows.hash(&mut h);
        self.trace.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_conservative() {
        let opts = EngineOptions::default();
        assert!(!opts.exhaustive);
        assert!(
            opts.symbolic,
            "the exact polynomial strategy is on by default"
        );
        assert!(opts.max_nulls >= 1);
        assert_eq!(opts.world_options, WorldOptions::default());
        assert!(!opts.trace, "tracing is opt-in");
    }

    #[test]
    fn builders_compose() {
        let opts = EngineOptions::exhaustive()
            .with_max_nulls(3)
            .with_max_worlds(100)
            .with_max_decisions(7)
            .with_max_repairs(12)
            .with_morsel_rows(64)
            .with_trace(true)
            .without_symbolic();
        assert!(opts.exhaustive);
        assert!(!opts.symbolic);
        assert!(opts.trace);
        assert_eq!(opts.max_nulls, 3);
        assert_eq!(opts.world_options.max_worlds, 100);
        assert_eq!(opts.symbolic_options.max_decisions, 7);
        assert_eq!(opts.repair_options.max_repairs, 12);
        assert_eq!(opts.morsel_rows, Some(64));
        assert_eq!(
            EngineOptions::default().with_morsel_rows(0).morsel_rows,
            Some(1),
            "zero clamps to 1"
        );
    }

    #[test]
    fn fingerprint_separates_every_budget_axis() {
        let base = EngineOptions::default();
        assert_eq!(base.fingerprint(), EngineOptions::default().fingerprint());
        let variants = [
            EngineOptions::exhaustive(),
            base.without_symbolic(),
            base.with_max_nulls(3),
            base.with_max_worlds(100),
            base.with_max_decisions(7),
            base.with_max_repairs(12),
            base.with_morsel_rows(64),
            base.with_trace(true),
        ];
        for v in &variants {
            assert_ne!(
                base.fingerprint(),
                v.fingerprint(),
                "changed options must change the fingerprint: {v:?}"
            );
        }
        // The budget-upgrade hazard specifically: a starved world budget and
        // the default budget must never share a result-cache line.
        assert_ne!(base.with_max_worlds(1).fingerprint(), base.fingerprint(),);
    }
}
