//! Symbolic c-tables vs possible-world enumeration (`cargo bench`).
//!
//! The worlds bench (`worlds.rs`) measures the streaming oracle against its
//! materializing ancestor; this bench measures the thing that makes the
//! oracle a *validator* rather than the production path: on the same
//! multi-null workload, full-RA queries answered by the symbolic strategy
//! (c-table algebra + certainty solver — polynomial per output tuple)
//! against the streaming world fold (exponential in the number of nulls).
//!
//! Two figures per workload:
//!
//! * wall-clock medians for both strategies, and
//! * **units evaluated** — solver calls vs worlds visited — the
//!   machine-independent face of the exponential-to-polynomial gap. The
//!   units of the world side are the whole worlds of the product
//!   enumeration, read from the row reference `stream_certain_answer_rows`:
//!   the default fold may instead visit each null component's valuations
//!   (a linear plan, or a root difference of linear sides), which no longer
//!   measures the world space. On the workloads the product enumeration
//!   cannot shortcut the bench asserts the symbolic side needs at least 10×
//!   fewer units (it is typically hundreds to thousands of times fewer),
//!   after asserting every side returns *identical* certain answers. The
//!   factorized fold's units are printed as an ungated `symbolic_factorized`
//!   row.
//!
//! Every measurement is emitted as a machine-readable `BENCH {…}` json line;
//! `BENCH_SMOKE=1` shrinks the workload so CI can keep the harness honest in
//! seconds.

use std::time::Duration;

use bench::harness::{fmt_duration, measure};
use datagen::{random_database, RandomDbConfig};
use relalgebra::ast::RaExpr;
use relalgebra::classify::{classify, QueryClass};
use relalgebra::plan::PlannedQuery;
use relalgebra::predicate::{Operand, Predicate};
use releval::symbolic::{
    symbolic_certain_answer, SymbolicExecution, SymbolicOptions, SymbolicOutcome,
};
use releval::worlds::{stream_certain_answer, stream_certain_answer_rows, WorldOptions};
use relmodel::Semantics;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn symbolic(plan: &PlannedQuery, db: &relmodel::Database) -> SymbolicExecution {
    match symbolic_certain_answer(plan, db, &SymbolicOptions::default()) {
        SymbolicOutcome::Answered(exec) => exec,
        SymbolicOutcome::Punted(reason) => panic!("symbolic punted on a bench workload: {reason}"),
    }
}

fn main() {
    let smoke = smoke();
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    // The same workload shape as benches/worlds.rs: the null count is the
    // exponent of the world space and leaves the symbolic side untouched.
    let db = random_database(&RandomDbConfig {
        tuples_per_relation: 8,
        domain_size: 4,
        distinct_nulls: if smoke { 4 } else { 6 },
        null_rate_percent: 30,
        seed: 42,
    });
    let world_opts = WorldOptions {
        extra_fresh: Some(1),
        threads: Some(1),
        ..WorldOptions::default()
    };

    // Full-RA workloads (every one classified FullRa — the class the
    // dispatcher hands to the symbolic strategy):
    // * difference      — certain answer may be nonempty; no early exit, so
    //                     the product enumeration pays for the entire space
    //                     (the default fold takes it one null component at
    //                     a time: a root difference of linear sides);
    // * tautology       — σ(c ∨ ¬c) over S: nonempty certain answer, full
    //                     enumeration again (linear, so factorized too);
    // * empty-difference— Q − Q: the product enumeration's best case (early
    //                     exit on the first world), included so the
    //                     comparison also shows the oracle at its fastest;
    //                     the factorized fold must first fold ⋂ Q over every
    //                     component, so it visits more elements here.
    let workloads: Vec<(&str, RaExpr)> = vec![
        (
            "difference",
            RaExpr::relation("R")
                .project(vec![0])
                .difference(RaExpr::relation("S")),
        ),
        (
            "tautology",
            RaExpr::relation("S")
                .select(
                    Predicate::eq(Operand::col(0), Operand::int(0))
                        .or(Predicate::neq(Operand::col(0), Operand::int(0))),
                )
                .project(vec![0]),
        ),
        (
            "empty-difference",
            RaExpr::relation("R")
                .project(vec![0])
                .difference(RaExpr::relation("R").project(vec![0])),
        ),
    ];

    println!("## symbolic_vs_worlds ({} nulls)", db.null_ids().len());
    println!(
        "{:<18}  {:>14} {:>12}  {:>14} {:>12}  {:>9}",
        "workload", "worlds", "median", "solver calls", "median", "units×"
    );

    for (name, q) in workloads {
        assert_eq!(classify(&q), QueryClass::FullRa, "workload {name}");
        let plan = PlannedQuery::new(q.clone(), db.schema()).expect("typechecks");

        // Correctness gate before any timing: identical certain answers.
        let sym = symbolic(&plan, &db);
        let worlds =
            stream_certain_answer(&plan, &db, Semantics::Cwa, &world_opts).expect("streams");
        let product =
            stream_certain_answer_rows(&plan, &db, Semantics::Cwa, &world_opts).expect("streams");
        assert_eq!(
            sym.answers, worlds.answers,
            "symbolic and worlds disagree on {name}"
        );
        assert_eq!(
            worlds.answers, product.answers,
            "the default and product world folds disagree on {name}"
        );

        let m_worlds = measure(format!("worlds/{name}"), budget, || {
            stream_certain_answer(&plan, &db, Semantics::Cwa, &world_opts).expect("streams")
        });
        let m_sym = measure(format!("symbolic/{name}"), budget, || symbolic(&plan, &db));

        let units_ratio = product.worlds_visited as f64 / sym.solver_calls.max(1) as f64;
        let time_ratio = m_worlds.median.as_nanos() as f64 / m_sym.median.as_nanos().max(1) as f64;
        println!(
            "{:<18}  {:>14} {:>12}  {:>14} {:>12}  {:>8.1}x",
            name,
            product.worlds_visited,
            fmt_duration(m_worlds.median),
            sym.solver_calls,
            fmt_duration(m_sym.median),
            units_ratio
        );
        println!(
            "BENCH {{\"bench\":\"symbolic\",\"workload\":\"{name}\",\
             \"worlds_visited\":{},\"world_early_exit\":{},\"solver_calls\":{},\
             \"simplification_wins\":{},\"condition_atoms\":{},\"answer_rows\":{},\
             \"worlds_median_ns\":{},\"symbolic_median_ns\":{},\
             \"units_ratio\":{units_ratio:.3},\"time_ratio\":{time_ratio:.3}}}",
            product.worlds_visited,
            product.early_exit,
            sym.solver_calls,
            sym.simplification_wins,
            sym.condition_atoms,
            sym.rows,
            m_worlds.median.as_nanos(),
            m_sym.median.as_nanos(),
        );
        // Ungated: what the default fold visits when it folds one null
        // component at a time.
        println!(
            "BENCH {{\"bench\":\"symbolic_factorized\",\"workload\":\"{name}\",\
             \"components\":{},\"component_valuations_visited\":{},\"world_early_exit\":{}}}",
            worlds.components.unwrap_or(0),
            worlds.worlds_visited,
            worlds.early_exit,
        );
        if !product.early_exit {
            // The acceptance bar: on workloads the product enumeration
            // cannot shortcut, symbolic must need at least 10× fewer units.
            assert!(
                units_ratio >= 10.0,
                "symbolic must beat worlds by ≥10x units on {name}: \
                 {} worlds vs {} solver calls",
                product.worlds_visited,
                sym.solver_calls
            );
        }
    }
}
