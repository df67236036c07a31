//! Differential fuzz harness for the physical-plan layer: the physical
//! executor replayed against the logical tree-walking interpreters on
//! random workloads, plus plan-snapshot tests locking the join-fusion
//! rewrites and the engine's plan telemetry.
//!
//! Every strategy executes a rewritten [`PhysicalPlan`] — hash joins where
//! the interpreters loop over `σ(A×B)`, hash set operators, pushed
//! selections. The rewrites are only sound if they preserve semantics under
//! **all three** row models, so this harness checks each of them through
//! the executor's default entry points (the ones the engine calls), case by
//! case, across seeded random databases × random queries of every
//! [`QueryClass`], under both CWA and OWA where semantics matter:
//!
//! 1. plain tuples: `exec::columnar::execute` ==
//!    `releval::engine::eval_unchecked`;
//! 2. the certain⁺/possible? pair: `exec::columnar::approx::execute_approx`
//!    == `releval::approx::eval_approx_unchecked` (both sides);
//! 3. condition-carrying c-table rows:
//!    `exec::columnar::ctable::execute_ctable` ≡
//!    `ctables::algebra::eval_ctable_unchecked`, compared semantically (same
//!    instantiation in every world over an adequate domain);
//! 4. the streaming world oracle (physical per-world execution) against a
//!    materializing fold over the *logical* interpreter, CWA and OWA.
//!
//! `columnar_differential.rs` repeats 1–3 across morsel sizes and adds the
//! interval entry point and a null-rate sweep.
//!
//! The `FUZZ_CASES` environment variable scales the sweep, as in
//! `symbolic_differential.rs`; `FUZZ_CASES=1000` is the acceptance-grade
//! run.

use datagen::random::random_schema;
use datagen::{
    random_database, random_division_query, random_full_ra_query, random_positive_query,
    QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use incomplete_data::{ctables, relalgebra, releval, relmodel};

use ctables::ctable::ConditionalDatabase;
use relalgebra::physical::PhysicalPlan;
use relalgebra::predicate::{Operand, Predicate};
use releval::complete::eval_complete;
use releval::exec;
use releval::worlds::{enumerate_worlds, stream_certain_answer, WorldOptions};
use relmodel::valuation::ValuationEnumerator;

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const ALL_CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];

fn fuzz_db(seed: u64) -> Database {
    random_database(&RandomDbConfig {
        tuples_per_relation: 2 + (seed % 4) as usize,
        domain_size: 3 + (seed % 3) as usize,
        distinct_nulls: (seed % 4) as usize,
        null_rate_percent: (seed * 17 % 60) as u32,
        seed: seed.wrapping_mul(0x9e37_79b9),
    })
}

fn fuzz_query(class: QueryClass, seed: u64) -> RaExpr {
    let schema = random_schema();
    let config = QueryGenConfig {
        seed,
        ..Default::default()
    };
    match class {
        QueryClass::Positive => random_positive_query(&schema, &config),
        QueryClass::RaCwa => random_division_query(&schema, &config),
        QueryClass::FullRa => random_full_ra_query(&schema, &config),
    }
}

/// Physical plain execution == the logical tree-walking interpreter, on
/// every generated (database, query) pair. Both use syntactic equality, so
/// the comparison is exact relation equality.
#[test]
fn plain_physical_matches_logical_interpreter() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(5).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let physical = exec::columnar::execute(plan.physical(), &db);
            let logical = releval::engine::eval_unchecked(&q, &db).into_owned();
            assert_eq!(
                physical, logical,
                "MISMATCH physical vs logical for {q} ({class}, seed {seed}) over\n{db}"
            );
        }
    }
}

/// Physical pair execution == the logical pair evaluator, both sides.
#[test]
fn approx_physical_matches_logical_pair_evaluator() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xa11ce));
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(7).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let physical = exec::columnar::approx::execute_approx(plan.physical(), &db);
            let logical = releval::approx::eval_approx_unchecked(&q, &db);
            assert_eq!(
                physical.certain, logical.certain,
                "certain side diverged for {q} ({class}, seed {seed}) over\n{db}"
            );
            assert_eq!(
                physical.possible, logical.possible,
                "possible side diverged for {q} ({class}, seed {seed}) over\n{db}"
            );
        }
    }
}

/// Physical c-table execution ≡ the logical Imieliński–Lipski algebra,
/// compared semantically: identical instantiations in every world over an
/// adequate domain. (Structural comparison is too strong — the physical
/// executor prunes rows whose conditions the logical algebra only
/// discharges in its final simplification.)
#[test]
fn ctable_physical_matches_logical_algebra() {
    // The valuation sweep is |domain|^|nulls| per case; cap the per-case
    // database size so the acceptance-grade FUZZ_CASES=1000 run stays fast.
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xc7ab1e));
        if db.null_ids().len() > 3 {
            continue;
        }
        let cdb = ConditionalDatabase::from_database(&db);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(11).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let physical = exec::columnar::ctable::execute_ctable(plan.physical(), &cdb);
            let logical = ctables::algebra::eval_ctable_unchecked(&q, &cdb);
            let mut nulls = cdb.null_ids();
            nulls.extend(physical.null_ids());
            nulls.extend(logical.null_ids());
            let domain = cdb.adequate_domain(&q.constants(), 1);
            for v in ValuationEnumerator::new(nulls, domain) {
                assert_eq!(
                    physical.instantiate(&v),
                    logical.instantiate(&v),
                    "c-table instantiations diverge for {q} ({class}, seed {seed}) over\n{db}"
                );
            }
        }
    }
}

/// The streaming world oracle (lower once, execute the physical plan per
/// world) against a materializing fold over the **logical** interpreter —
/// CWA and OWA, every class. This is the plan-once-execute-per-world path
/// the worlds strategy ships.
#[test]
fn worlds_physical_fold_matches_logical_fold_under_both_semantics() {
    let cases = fuzz_cases().min(128);
    for seed in 0..cases {
        let db = fuzz_db(seed.wrapping_add(0x0f0));
        if db.null_ids().len() > 3 {
            continue; // keep the materializing baseline affordable
        }
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(13).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            for semantics in [Semantics::Cwa, Semantics::Owa] {
                let opts = WorldOptions::default();
                let streamed = stream_certain_answer(&plan, &db, semantics, &opts).unwrap();
                let worlds = enumerate_worlds(&q, &db, semantics, &opts).unwrap();
                let baseline = worlds
                    .iter()
                    .map(|w| eval_complete(&q, w).unwrap())
                    .reduce(|a, b| a.intersection(&b))
                    .unwrap();
                if streamed.early_exit {
                    // Early exit only ever fires on an empty certain answer.
                    assert!(
                        baseline.is_empty(),
                        "early exit on non-empty answer for {q} ({class}, {semantics}, seed {seed})"
                    );
                } else {
                    assert_eq!(
                        streamed.answers, baseline,
                        "MISMATCH streamed-physical vs logical fold for {q} \
                         ({class}, {semantics}, seed {seed}) over\n{db}"
                    );
                }
            }
        }
    }
}

/// The per-plan operator telemetry reaches the engine report, and the plan
/// text is the explain rendering of what actually ran.
#[test]
fn engine_reports_plan_text_and_operator_stats() {
    let db = relmodel::builder::orders_and_payments_example();
    let report = Engine::new(&db).plan_text("project[#0](Order)").unwrap();
    assert_eq!(report.stats.plan_text, "π[#0]\n  scan Order\n");
    let ops = report.stats.physical_ops.expect("naive runs physically");
    assert!(ops.operators >= 2);
    // The 3VL baseline keeps its own deliberately naïve interpreter.
    let baseline = Engine::new(&db)
        .baseline_3vl(&parse("project[#0](Order)").unwrap())
        .unwrap();
    assert!(baseline.stats.physical_ops.is_none());
    assert!(!baseline.stats.plan_text.is_empty());
}

/// Plan snapshots: the join-fusion rewrites, locked via explain output.
#[test]
fn plan_snapshots_lock_join_fusion() {
    let schema = Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["b", "c"])
        .build();
    // The standard derived equi-join form fuses into a hash join.
    let join = RaExpr::relation("R").equi_join(RaExpr::relation("S"), &[(1, 0)], 2);
    let plan = PhysicalPlan::lower(&join, &schema).unwrap();
    assert_eq!(
        plan.explain(),
        "hash-join [l#1 = r#0]\n  scan R\n  scan S\n"
    );

    // Local conjuncts split to the operands; cross inequalities stay
    // residual; the projection stays on top.
    let q = RaExpr::relation("R")
        .product(RaExpr::relation("S"))
        .select(
            Predicate::eq(Operand::col(1), Operand::col(2))
                .and(Predicate::eq(Operand::col(0), Operand::int(1)))
                .and(Predicate::neq(Operand::col(3), Operand::col(0))),
        )
        .project(vec![0, 3]);
    let plan = PhysicalPlan::lower(&q, &schema).unwrap();
    assert_eq!(
        plan.explain(),
        "π[#0,#3]\n  hash-join [l#1 = r#0] residual σ[#3 <> #0]\n    σ[#0 = 1]\n      scan R\n    scan S\n"
    );

    // A product with no cross equality stays a (filtered) nested product.
    let q = RaExpr::relation("R")
        .product(RaExpr::relation("S"))
        .select(Predicate::neq(Operand::col(0), Operand::col(2)));
    let plan = PhysicalPlan::lower(&q, &schema).unwrap();
    assert!(!plan.has_hash_join());
    assert_eq!(plan.explain(), "σ[#0 <> #2]\n  ×\n    scan R\n    scan S\n");
}
