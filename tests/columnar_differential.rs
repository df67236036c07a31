//! Differential fuzz harness for the morsel-driven columnar core: the
//! batched executors replayed against the row-at-a-time logical evaluators
//! that define them, on random workloads.
//!
//! The columnar core is the only physical executor, so this harness holds
//! it to the row-at-a-time tree walks (the "row executors" of the test
//! names), case by case, across seeded random databases × random queries of
//! every [`QueryClass`]:
//!
//! 1. plain tuples: `exec::columnar::execute` ==
//!    `releval::engine::eval_unchecked`, exact relation equality, swept
//!    across morsel sizes (1 row per morsel maximises chunk boundaries; the
//!    default covers the vectorized path);
//! 2. the certain⁺/possible? pair: `exec::columnar::approx` ==
//!    `releval::approx::eval_approx_unchecked`, both sides, including the
//!    **interval** entry point (`execute_approx_between` against
//!    `eval_approx_between_unchecked`) consistent query answering depends
//!    on;
//! 3. condition-carrying c-table rows: `exec::columnar::ctable` ≡
//!    `ctables::algebra::eval_ctable_unchecked`, compared semantically
//!    (identical instantiations in every world over an adequate domain) —
//!    the executor prunes rows the logical algebra only discharges in its
//!    final simplification, so condition trees differ structurally;
//! 4. the null-rate-swept mostly-ground workload
//!    (`random_database_with_null_rate`): the ground-run fast path at
//!    0%/1%/10%/50% nulls against the plain and pair references.
//!
//! The `FUZZ_CASES` environment variable scales the sweep, as in
//! `physical_differential.rs`; `FUZZ_CASES=1000` is the acceptance-grade
//! run (split 1–4, it stays within the CI release-fuzz budget).

use datagen::random::random_schema;
use datagen::{
    random_database, random_database_with_null_rate, random_division_query, random_full_ra_query,
    random_positive_query, QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use incomplete_data::{ctables, relalgebra, releval, relmodel};

use ctables::ctable::ConditionalDatabase;
use relalgebra::ast::RaExpr;
use relalgebra::predicate::{Operand, Predicate};
use releval::approx::{eval_approx_between_unchecked, eval_approx_unchecked};
use releval::exec;
use relmodel::valuation::ValuationEnumerator;

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const ALL_CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];

/// Morsel sizes the sweeps run at: single-row morsels maximise chunk
/// boundaries, 3 exercises ragged tails, 1024 is the default vectorized
/// configuration.
const MORSELS: [usize; 3] = [1, 3, 1024];

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

/// Batched plain execution == the logical interpreter, across morsel sizes.
#[test]
fn columnar_plain_matches_row_executor() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(5).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = releval::engine::eval_unchecked(&q, &db).into_owned();
            for morsel in MORSELS {
                let (batched, stats) =
                    exec::columnar::execute_counted_with_morsel(plan.physical(), &db, morsel);
                assert_eq!(
                    batched, reference,
                    "MISMATCH columnar vs logical for {q} ({class}, seed {seed}, morsel {morsel}) \
                     over\n{db}"
                );
                assert_eq!(
                    stats.symbolic_rows, 0,
                    "plain execution is all-syntactic; no symbolic routing for {q}"
                );
            }
        }
    }
}

/// Batched pair execution == the logical pair evaluator, both sides, across
/// morsel sizes.
#[test]
fn columnar_approx_matches_row_pair_executor() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xa11ce));
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(7).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = eval_approx_unchecked(&q, &db);
            for morsel in MORSELS {
                let (batched, _) = exec::columnar::approx::execute_approx_between_with_morsel(
                    plan.physical(),
                    &db,
                    &db,
                    morsel,
                );
                assert_eq!(
                    batched.certain, reference.certain,
                    "certain side diverged for {q} ({class}, seed {seed}, morsel {morsel}) \
                     over\n{db}"
                );
                assert_eq!(
                    batched.possible, reference.possible,
                    "possible side diverged for {q} ({class}, seed {seed}, morsel {morsel}) \
                     over\n{db}"
                );
            }
        }
    }
}

/// The interval entry point (`lower ⊆ upper`): certain reads from the
/// complete part, possible from the full database — the exact contract the
/// repairs crate's conflict-free-core approximation executes.
#[test]
fn columnar_approx_between_matches_row_interval_executor() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xbe7));
        let lower = db.complete_part();
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(9).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = eval_approx_between_unchecked(&q, &lower, &db);
            let (batched, _) =
                exec::columnar::approx::execute_approx_between(plan.physical(), &lower, &db);
            assert_eq!(
                batched.certain, reference.certain,
                "interval certain diverged for {q} ({class}, seed {seed}) over\n{db}"
            );
            assert_eq!(
                batched.possible, reference.possible,
                "interval possible diverged for {q} ({class}, seed {seed}) over\n{db}"
            );
        }
    }
}

/// Batched c-table execution ≡ the logical Imieliński–Lipski algebra,
/// compared semantically (identical instantiations in every world over an
/// adequate domain), across morsel sizes.
#[test]
fn columnar_ctable_matches_row_executor_semantically() {
    // The valuation sweep is |domain|^|nulls| per case; cap the per-case
    // null count so the acceptance-grade FUZZ_CASES=1000 run stays fast.
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed.wrapping_add(0xc7ab1e));
        if db.null_ids().len() > 3 {
            continue;
        }
        let cdb = ConditionalDatabase::from_database(&db);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(11).wrapping_add(class as u64));
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let reference = ctables::algebra::eval_ctable_unchecked(&q, &cdb);
            for morsel in MORSELS {
                let (batched, _) = exec::columnar::ctable::execute_ctable_counted_with_morsel(
                    plan.physical(),
                    &cdb,
                    morsel,
                );
                let mut nulls = cdb.null_ids();
                nulls.extend(batched.null_ids());
                nulls.extend(reference.null_ids());
                let domain = cdb.adequate_domain(&q.constants(), 1);
                for v in ValuationEnumerator::new(nulls, domain) {
                    assert_eq!(
                        batched.instantiate(&v),
                        reference.instantiate(&v),
                        "c-table instantiations diverge for {q} ({class}, seed {seed}, \
                         morsel {morsel}) over\n{db}"
                    );
                }
            }
        }
    }
}

/// The null-rate-swept mostly-ground workload: the ground-run fast path,
/// checked against the plain and pair logical references at every rate.
/// Rows are ~200 per relation, so this also covers multi-morsel execution
/// at small morsel sizes.
#[test]
fn null_rate_sweep_agrees_with_row_executors() {
    let join = RaExpr::relation("R")
        .product(RaExpr::relation("S"))
        .select(Predicate::eq(Operand::col(1), Operand::col(2)));
    let queries = [
        join.clone().project(vec![0, 3]),
        join.select(Predicate::neq(Operand::col(0), Operand::col(3))),
        RaExpr::relation("R")
            .project(vec![1])
            .difference(RaExpr::relation("S").project(vec![0])),
    ];
    let cases = fuzz_cases().min(64);
    for seed in 0..cases {
        for rate in [0, 1, 10, 50] {
            let db = random_database_with_null_rate(200, rate, seed);
            for q in &queries {
                let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
                let reference = releval::engine::eval_unchecked(q, &db).into_owned();
                let (batched, _) =
                    exec::columnar::execute_counted_with_morsel(plan.physical(), &db, 64);
                assert_eq!(
                    batched, reference,
                    "plain mismatch at {rate}% nulls for {q} (seed {seed})"
                );
                let pair_ref = eval_approx_unchecked(q, &db);
                let (pair, stats) = exec::columnar::approx::execute_approx_between_with_morsel(
                    plan.physical(),
                    &db,
                    &db,
                    64,
                );
                assert_eq!(
                    pair.certain, pair_ref.certain,
                    "pair certain mismatch at {rate}% nulls for {q} (seed {seed})"
                );
                assert_eq!(
                    pair.possible, pair_ref.possible,
                    "pair possible mismatch at {rate}% nulls for {q} (seed {seed})"
                );
                if rate == 0 {
                    assert_eq!(
                        stats.symbolic_rows, 0,
                        "a complete database must route everything through the ground runs"
                    );
                }
            }
        }
    }
}
