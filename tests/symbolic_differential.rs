//! Differential fuzz harness: the symbolic c-table strategy replayed
//! against the possible-world oracle on random workloads.
//!
//! PR 1 and PR 2 both shipped evaluators that looked plausible and were
//! quietly unsound until property tests caught them (naïve∩3VL on full RA;
//! the stringly world dedup). The symbolic strategy gets the same
//! treatment from day one: seeded loops over `datagen::random_database` ×
//! random queries of **every** [`QueryClass`], asserting
//!
//! 1. `symbolic_certain_answer` == `stream_certain_answer` under CWA, case by case
//!    (zero mismatches tolerated), and
//! 2. engine reports never violate their stated guarantee, whatever
//!    strategy the planner picked.
//!
//! The `FUZZ_CASES` environment variable scales the sweep: it defaults to a
//! CI-sized smoke run; `FUZZ_CASES=1000 cargo test --release --test
//! symbolic_differential` is the acceptance-grade local run.

use datagen::random::random_schema;
use datagen::{
    random_database, random_division_query, random_full_ra_query, random_positive_query,
    QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use releval::symbolic::{symbolic_certain_answer, PuntReason, SymbolicOptions, SymbolicOutcome};
use releval::worlds::{stream_certain_answer, WorldOptions};

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const ALL_CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];

/// A random database whose shape (size, null budget, null rate) itself
/// varies with the seed, so the sweep covers complete databases, null-heavy
/// ones, and everything between — while keeping the world oracle affordable.
fn fuzz_db(seed: u64) -> Database {
    random_database(&RandomDbConfig {
        tuples_per_relation: 2 + (seed % 3) as usize,
        domain_size: 3 + (seed % 2) as usize,
        distinct_nulls: (seed % 4) as usize,
        null_rate_percent: (seed * 13 % 55) as u32,
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

/// The harness core: symbolic == streaming world oracle under CWA, for
/// every class, across `FUZZ_CASES` seeds. Any mismatch is a soundness bug
/// in one of the two (and the oracle is the spec).
#[test]
fn symbolic_matches_world_oracle_on_cwa() {
    let cases = fuzz_cases();
    let mut answered = 0u64;
    let mut punted = 0u64;
    for seed in 0..cases {
        let db = fuzz_db(seed);
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(7).wrapping_add(class as u64));
            assert_eq!(relalgebra::classify::classify(&q), class, "generator drift");
            let plan = relalgebra::plan::PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let symbolic = match symbolic_certain_answer(&plan, &db, &SymbolicOptions::default()) {
                SymbolicOutcome::Answered(exec) => exec.answers,
                // A solver-budget punt is legal (deep difference towers can
                // need many decisions) — the engine-level test checks the
                // fallback path for those. Anything else is a bug.
                SymbolicOutcome::Punted(PuntReason::SolverBudget { .. }) => {
                    punted += 1;
                    continue;
                }
                SymbolicOutcome::Punted(reason) => {
                    panic!("unexpected symbolic punt: {reason} ({q}, seed {seed})")
                }
            };
            let oracle =
                stream_certain_answer(&plan, &db, Semantics::Cwa, &WorldOptions::default())
                    .unwrap();
            assert_eq!(
                symbolic, oracle.answers,
                "MISMATCH symbolic vs worlds for {q} ({class}, seed {seed}) over\n{db}"
            );
            answered += 1;
        }
    }
    assert_eq!(answered + punted, cases * ALL_CLASSES.len() as u64);
    assert!(
        answered * 10 >= (answered + punted) * 8,
        "symbolic must answer at least 80% of generated workloads \
         (answered {answered}, punted {punted})"
    );
}

/// Oracle answers for guarantee checking. Under OWA the oracle lets worlds
/// grow by one tuple so over-claims become visible (finite minimal-world
/// enumeration would be as blind as the code under test).
fn truth(db: &Database, semantics: Semantics, q: &RaExpr) -> Relation {
    let world_options = match semantics {
        Semantics::Cwa => WorldOptions::default(),
        Semantics::Owa => WorldOptions::with_owa_extra(1),
    };
    Engine::new(db)
        .semantics(semantics)
        .options(EngineOptions::exhaustive().with_world_options(world_options))
        .ground_truth(q)
        .unwrap()
        .answers
}

/// Whatever the planner picked — naïve, symbolic, approximation — the
/// report's guarantee must hold against the oracle, under both semantics.
#[test]
fn engine_guarantees_never_violated_across_the_fuzz_sweep() {
    let cases = fuzz_cases();
    for seed in 0..cases {
        let db = fuzz_db(seed.wrapping_add(0xbeef));
        for class in ALL_CLASSES {
            let q = fuzz_query(class, seed.wrapping_mul(11).wrapping_add(class as u64));
            for semantics in [Semantics::Cwa, Semantics::Owa] {
                let report = Engine::new(&db).semantics(semantics).plan(&q).unwrap();
                let t = truth(&db, semantics, &q);
                let context = format!("{q} ({class}, {semantics}, seed {seed})");
                match report.guarantee {
                    Guarantee::Exact => assert_eq!(report.answers, t, "Exact violated: {context}"),
                    Guarantee::Sound => {
                        assert!(report.answers.is_subset(&t), "Sound violated: {context}")
                    }
                    Guarantee::Complete => {
                        assert!(t.is_subset(&report.answers), "Complete violated: {context}")
                    }
                    Guarantee::NoGuarantee => {}
                }
                // Bookkeeping invariants of the new dispatch: symbolic runs
                // report solver work and no worlds; world runs report no
                // solver work.
                match report.strategy {
                    StrategyKind::SymbolicCTable => {
                        assert!(report.stats.solver_calls.is_some(), "{context}");
                        assert!(report.stats.worlds_enumerated.is_none(), "{context}");
                        assert!(report.stats.fallback.is_none(), "{context}");
                    }
                    StrategyKind::WorldsGroundTruth => {
                        assert!(report.stats.solver_calls.is_none(), "{context}");
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The engine front door and the raw strategy agree on CWA — the dispatch
/// layer must not perturb answers on the way through, and when the raw
/// strategy punts, the engine's report must carry the fallback trail (and a
/// still-exact answer, since the fallback is the world oracle). The static
/// analyzer may legitimately dispatch *past* symbolic — a complete database
/// proves the query ground, and an inlinable ground core may leave a
/// naïve-exact remainder — so the strategy assertion accepts the analyzer's
/// upgrade but demands identical answers in every case.
#[test]
fn engine_symbolic_reports_match_raw_strategy() {
    let cases = fuzz_cases().min(64);
    for seed in 0..cases {
        let db = fuzz_db(seed.wrapping_add(0x5ca1e));
        let q = fuzz_query(QueryClass::FullRa, seed.wrapping_mul(3).wrapping_add(2));
        let report = Engine::new(&db).plan(&q).unwrap();
        let plan = relalgebra::plan::PlannedQuery::new(q.clone(), db.schema()).unwrap();
        match symbolic_certain_answer(&plan, &db, &SymbolicOptions::default()) {
            SymbolicOutcome::Answered(exec) => {
                let raw = exec.answers;
                if report.strategy != StrategyKind::SymbolicCTable {
                    // Only the analyzer is allowed to pre-empt symbolic, and
                    // only with a naïve-exact dispatch it can prove.
                    assert_eq!(
                        report.strategy,
                        StrategyKind::NaiveExact,
                        "{q} (seed {seed})"
                    );
                    assert!(report.stats.analyzer.unwrap().upgraded, "{q} (seed {seed})");
                }
                assert_eq!(report.guarantee, Guarantee::Exact, "{q} (seed {seed})");
                assert_eq!(report.answers, raw, "{q} (seed {seed})");
            }
            SymbolicOutcome::Punted(reason) => {
                // Subtree inlining can shrink the plan enough that the
                // engine's symbolic run no longer punts where the raw one
                // does; otherwise the world-oracle fallback must be on the
                // report. Either way the answer stays exact.
                if report
                    .stats
                    .analyzer
                    .is_some_and(|a| a.inlined_subtrees > 0)
                {
                    assert!(
                        report.stats.fallback.is_none()
                            || report.stats.fallback == Some(FallbackReason::Symbolic(reason)),
                        "{q} (seed {seed})"
                    );
                } else {
                    assert_eq!(
                        report.strategy,
                        StrategyKind::WorldsGroundTruth,
                        "{q} (seed {seed})"
                    );
                    assert_eq!(
                        report.stats.fallback,
                        Some(FallbackReason::Symbolic(reason)),
                        "{q} (seed {seed})"
                    );
                }
                assert_eq!(report.guarantee, Guarantee::Exact, "{q} (seed {seed})");
                assert_eq!(
                    report.answers,
                    truth(&db, Semantics::Cwa, &q),
                    "fallback answer must still be exact for {q} (seed {seed})"
                );
            }
        }
    }
}
