//! The traced breakdown: after a request is answered (and timed) through
//! the service, the benchmark calls each layer's public function on the
//! same snapshot and times it. The per-layer times come from these calls,
//! never from the front-door timer, which the trace leaves untouched.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use engine::{CertainReport, DbContext, FallbackReason, StrategyKind};
use relalgebra::analysis::analyze;
use releval::exec::columnar::approx::execute_approx_counted_with_morsel;
use releval::exec::columnar::execute_counted_with_morsel;
use releval::symbolic::{symbolic_certain_answer, PuntReason};
use releval::worlds::stream_certain_answer;
use relmodel::Database;
use repairs::{stream_consistent_answer, ConflictGraph};
use serve::Snapshot;

use crate::workload::Op;

/// Per-call times by layer metric name, plus the per-class coverage sums.
#[derive(Default)]
pub struct Layers {
    /// Per-call times, in the metric's own unit.
    pub times: BTreeMap<String, Vec<f64>>,
    /// Per request class: (layers' summed self time, front-door time), ns.
    pub coverage: BTreeMap<&'static str, (f64, f64)>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_nanos() as f64)
}

impl Layers {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.times.entry(name.into()).or_default().push(value);
    }

    fn cover(&mut self, class: &'static str, layers_ns: f64, front_door_ns: f64) {
        let entry = self.coverage.entry(class).or_default();
        entry.0 += layers_ns;
        entry.1 += front_door_ns;
    }

    /// The set-up layer: the conflict graph of a constraint-bearing
    /// database.
    pub fn setup(&mut self, db: &Database) {
        if db.schema().has_constraints() {
            let (_, ns) = timed(|| ConflictGraph::build(db));
            self.push("repairs.conflict_graph_ms", ns / 1e6);
        }
    }

    /// A write: cloning the database and measuring its census, the two
    /// linear passes a publish makes.
    pub fn write(&mut self, snapshot: &Snapshot, front_door_ns: f64) {
        let db = snapshot.database();
        let (copy, clone_ns) = timed(|| (**db).clone());
        let (_, census_ns) = timed(|| DbContext::of(&copy));
        self.push("relmodel.db_clone_ms", clone_ns / 1e6);
        self.push("engine.census_ms", census_ns / 1e6);
        self.cover("write", clone_ns + census_ns, front_door_ns);
    }

    /// A computed read: parse and plan, analyze, dispatch, then the
    /// strategy the front door reported, through the whole engine and
    /// through the strategy's own executor.
    pub fn read(
        &mut self,
        snapshot: &Snapshot,
        op: &Op,
        report: &CertainReport,
        front_door_ns: f64,
    ) {
        let Op::Read {
            class,
            text,
            semantics,
            options,
            ..
        } = op
        else {
            unreachable!("only reads are replayed as reads");
        };
        let (class, semantics, options) = (*class, *semantics, *options);
        let db: &Database = snapshot.database();
        let (plan, parse_ns) = timed(|| qparser::parse_and_plan(text, db.schema()));
        let plan = plan.expect("the front door planned the same text");
        let (_, analyze_ns) = timed(|| analyze(plan.expr(), snapshot.context().census()));
        let engine = snapshot.engine(semantics, options);
        let (_, dispatch_ns) = timed(|| engine.select_strategy(plan.expr(), plan.class()));
        let (_, strategy_ns) = timed(|| engine.plan_prepared(&plan));
        self.push("qparser.parse_plan_us", parse_ns / 1e3);
        self.push("relalgebra.analyze_us", analyze_ns / 1e3);
        self.push("engine.dispatch_us", dispatch_ns / 1e3);
        self.push(
            format!("engine.strategy_ms.{}", report.strategy.name()),
            strategy_ns / 1e6,
        );

        let morsel = options
            .morsel_rows
            .unwrap_or_else(relmodel::batch::morsel_rows);
        // A solver-budget punt ran the symbolic strategy to its budget before
        // the strategy that answered; that attempt is executor time too.
        let punted = report
            .stats
            .fallback
            .as_ref()
            .and_then(FallbackReason::symbolic_punt)
            .is_some_and(|r| matches!(r, PuntReason::SolverBudget { .. }));
        let mut executor_ns = 0.0;
        if punted {
            let (_, ns) = timed(|| symbolic_certain_answer(&plan, db, &options.symbolic_options));
            self.push("releval.symbolic_punt_ms", ns / 1e6);
            executor_ns += ns;
        }
        executor_ns += match report.strategy {
            StrategyKind::NaiveExact => {
                let (_, ns) = timed(|| execute_counted_with_morsel(plan.physical(), db, morsel));
                self.push("releval.columnar_ms", ns / 1e6);
                ns
            }
            StrategyKind::SoundApproximation => {
                let (_, ns) =
                    timed(|| execute_approx_counted_with_morsel(plan.physical(), db, morsel));
                self.push("releval.approx_ms", ns / 1e6);
                ns
            }
            StrategyKind::SymbolicCTable => {
                let (_, ns) =
                    timed(|| symbolic_certain_answer(&plan, db, &options.symbolic_options));
                self.push("releval.symbolic_ms", ns / 1e6);
                ns
            }
            StrategyKind::WorldsGroundTruth => {
                let (_, ns) = timed(|| {
                    stream_certain_answer(&plan, db, semantics.base(), &options.world_options)
                });
                self.push("releval.worlds_fold_ms", ns / 1e6);
                ns
            }
            StrategyKind::RepairEnumeration => {
                let graph = snapshot
                    .context()
                    .conflict_graph(db)
                    .expect("repair enumeration runs on a constrained schema");
                let (_, ns) =
                    timed(|| stream_consistent_answer(&plan, db, graph, &options.repair_options));
                let part = if db.is_complete() {
                    "complete"
                } else {
                    "nulls"
                };
                self.push(format!("repairs.fold_ms.{part}"), ns / 1e6);
                ns
            }
            // Never dispatched on these workloads; the strategy time above
            // still covers it.
            StrategyKind::ThreeValuedBaseline | StrategyKind::ConflictFreeCore => 0.0,
        };
        // `select_strategy` runs the analysis itself, so its self time is
        // what remains after `analyze`; the sum of self times is then
        // parse + dispatch + executor.
        self.cover(class, parse_ns + dispatch_ns + executor_ns, front_door_ns);
    }
}
