//! Engine-level property tests: on deterministic sweeps of random databases
//! and queries covering every [`QueryClass`], the engine's answers must match
//! possible-world ground truth wherever it claims exactness, and **no report
//! may ever violate its stated guarantee**.

use datagen::random::random_schema;
use datagen::{
    random_database, random_division_query, random_positive_query, QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use releval::worlds::WorldOptions;

fn small_db(seed: u64) -> Database {
    random_database(&RandomDbConfig {
        tuples_per_relation: 3,
        domain_size: 4,
        distinct_nulls: 2,
        null_rate_percent: 30,
        seed,
    })
}

/// One random query per class, derived from the seed. Full RA queries are
/// built as differences of two independent positive queries.
fn query_for(class: QueryClass, seed: u64) -> RaExpr {
    let schema = random_schema();
    match class {
        QueryClass::Positive => random_positive_query(
            &schema,
            &QueryGenConfig {
                seed,
                ..Default::default()
            },
        ),
        QueryClass::RaCwa => random_division_query(
            &schema,
            &QueryGenConfig {
                seed,
                ..Default::default()
            },
        ),
        QueryClass::FullRa => {
            let a = random_positive_query(
                &schema,
                &QueryGenConfig {
                    seed,
                    ..Default::default()
                },
            );
            let b = random_positive_query(
                &schema,
                &QueryGenConfig {
                    seed: seed.wrapping_add(1000),
                    ..Default::default()
                },
            );
            a.difference(b)
        }
    }
}

const ALL_CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];

/// Seeds per sweep: `FUZZ_CASES` (default 20; CI's dispatch fuzz lane runs
/// 1000 in release).
fn cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// The ground truth for checking a report, through the engine's own
/// ground-truth door. Under CWA the default enumeration *is* the certain
/// answer; under OWA it only visits minimal worlds, which would make the
/// oracle as blind as the code under test for non-monotone queries — so the
/// OWA oracle lets worlds grow by an extra tuple, strictly shrinking the
/// certain answer and making over-claims visible.
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

/// Asserts that a report's stated guarantee is not violated relative to the
/// classical certain answer.
fn assert_guarantee_holds(report: &CertainReport, truth: &Relation, context: &str) {
    match report.guarantee {
        Guarantee::Exact => {
            assert_eq!(&report.answers, truth, "Exact violated: {context}");
        }
        Guarantee::Sound => {
            assert!(report.answers.is_subset(truth), "Sound violated: {context}");
        }
        Guarantee::Complete => {
            assert!(
                truth.is_subset(&report.answers),
                "Complete violated: {context}"
            );
        }
        Guarantee::NoGuarantee => {}
    }
}

/// In exhaustive mode (budget respected on these tiny instances) the engine's
/// answer equals possible-world ground truth for *every* query class
/// under CWA, and its OWA reports — `exact` only for the monotone fragment,
/// `complete` beyond it — hold against an oracle whose worlds may grow.
#[test]
fn exhaustive_engine_matches_ground_truth_for_every_class() {
    for class in ALL_CLASSES {
        for seed in 0..cases() {
            let db = small_db(seed * 37 + 1);
            let q = query_for(class, seed * 11 + 3);
            assert_eq!(relalgebra::classify::classify(&q), class);
            for semantics in [Semantics::Owa, Semantics::Cwa] {
                let engine = Engine::new(&db)
                    .semantics(semantics)
                    .options(EngineOptions::exhaustive());
                let report = engine.plan(&q).unwrap();
                assert!(!report.stats.degraded, "tiny instances must fit the budget");
                let expected = if semantics == Semantics::Cwa || class == QueryClass::Positive {
                    Guarantee::Exact
                } else {
                    // Finite OWA enumeration cannot be exact for
                    // non-monotone classes; the engine must say so.
                    Guarantee::Complete
                };
                assert_eq!(
                    report.guarantee, expected,
                    "guarantee for {q} ({class}, {semantics}, seed {seed})"
                );
                assert_guarantee_holds(
                    &report,
                    &truth(&db, semantics, &q),
                    &format!("{q} ({class}, {semantics}, seed {seed})"),
                );
            }
        }
    }
}

/// With default options the engine claims `Exact` precisely when a theorem
/// backs it — naïve evaluation on its fragment, or the symbolic c-table
/// strategy under CWA (strong representation + a complete certainty
/// solver) — and every weaker claim it makes instead is honoured.
#[test]
fn default_engine_guarantees_are_never_violated() {
    for class in ALL_CLASSES {
        for seed in 0..cases() {
            let db = small_db(seed * 23 + 5);
            let q = query_for(class, seed * 13 + 7);
            for semantics in [Semantics::Owa, Semantics::Cwa] {
                let report = Engine::new(&db).semantics(semantics).plan(&q).unwrap();
                // NB: this equivalence presumes what the generators deliver:
                // no null-bearing `Values` literals (symbolic eligible) and
                // databases small enough that a punt-fallback stays within
                // the world budget. Outside those bounds the engine degrades
                // to a weaker (still honoured) guarantee.
                let theorem_backed =
                    class.naive_evaluation_sound(semantics) || semantics == Semantics::Cwa;
                assert_eq!(
                    report.guarantee == Guarantee::Exact,
                    theorem_backed,
                    "Exact must coincide with a theorem for {q} under {semantics}"
                );
                let t = truth(&db, semantics, &q);
                assert_guarantee_holds(
                    &report,
                    &t,
                    &format!("{q} ({class}, {semantics}, seed {seed})"),
                );
            }
        }
    }
}

/// Forced strategies also honour their reported guarantees — including the
/// deliberately weak ones (naïve on full RA, the 3VL baseline).
#[test]
fn forced_strategies_honour_their_guarantees() {
    let strategies = [
        StrategyKind::NaiveExact,
        StrategyKind::WorldsGroundTruth,
        StrategyKind::ThreeValuedBaseline,
        StrategyKind::SoundApproximation,
        StrategyKind::SymbolicCTable,
    ];
    for class in ALL_CLASSES {
        for seed in 0..cases() / 2 {
            let db = small_db(seed * 53 + 9);
            let q = query_for(class, seed * 29 + 11);
            for semantics in [Semantics::Owa, Semantics::Cwa] {
                let t = truth(&db, semantics, &q);
                let engine = Engine::new(&db)
                    .semantics(semantics)
                    .options(EngineOptions::exhaustive());
                for strategy in strategies {
                    let report = engine.plan_with(strategy, &q).unwrap();
                    assert_eq!(report.strategy, strategy);
                    assert_guarantee_holds(
                        &report,
                        &t,
                        &format!("forced {strategy} on {q} ({class}, {semantics}, seed {seed})"),
                    );
                }
            }
        }
    }
}

/// When the world budget is too small, exhaustive mode degrades to the
/// approximation *explicitly* — the degraded report still honours its
/// (weaker) guarantee instead of silently over-claiming. A query whose
/// difference never reaches a null is upgraded by the analyzer to naïve
/// evaluation instead, exact without any world.
#[test]
fn degraded_reports_stay_honest() {
    for seed in 0..cases() / 2 {
        let db = small_db(seed * 43 + 13);
        if db.null_ids().is_empty() {
            continue;
        }
        let q = query_for(QueryClass::FullRa, seed * 31 + 17);
        // Symbolic would answer these exactly without any worlds; disable it
        // to exercise the budget-degradation path it normally shadows.
        let starved = Engine::new(&db).options(
            EngineOptions::exhaustive()
                .with_max_worlds(1)
                .without_symbolic(),
        );
        let report = starved.plan(&q).unwrap();
        if report.stats.analyzer.is_some_and(|a| a.upgraded) {
            assert_eq!(
                (report.strategy, report.guarantee),
                (StrategyKind::NaiveExact, Guarantee::Exact),
                "an analyzer upgrade needs no world: {q} (seed {seed})"
            );
        } else {
            assert!(
                report.stats.degraded,
                "a 1-world budget must force degradation: {q} (seed {seed})"
            );
            assert_ne!(report.guarantee, Guarantee::Exact);
        }
        let t = truth(&db, Semantics::Cwa, &q);
        assert_guarantee_holds(&report, &t, &format!("degraded on {q} (seed {seed})"));
    }
}

/// The OWA over-approximation guarantee for `RA_cwa`: the naïve answer
/// contains the OWA certain answer even when worlds may grow.
#[test]
fn racwa_owa_reports_are_complete_even_with_growing_worlds() {
    for seed in 0..cases() / 2 {
        let db = small_db(seed * 61 + 19);
        let q = query_for(QueryClass::RaCwa, seed * 47 + 23);
        let report = Engine::new(&db).semantics(Semantics::Owa).plan(&q).unwrap();
        assert_eq!(report.guarantee, Guarantee::Complete);
        // Ground truth with worlds allowed to grow by one extra tuple.
        let grown = Engine::new(&db)
            .semantics(Semantics::Owa)
            .options(
                EngineOptions::exhaustive().with_world_options(WorldOptions::with_owa_extra(1)),
            )
            .ground_truth(&q)
            .unwrap()
            .answers;
        assert!(
            grown.is_subset(&report.answers),
            "Complete violated under growing worlds for {q} (seed {seed})"
        );
    }
}
