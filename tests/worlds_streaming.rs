//! Property tests for the streaming, parallel, early-exiting world engine:
//! on deterministic sweeps of random databases and queries, the streamed
//! certain answer must equal the materializing fold it replaced, early exit
//! must only ever fire on an empty certain answer, and the satellite bug
//! fixes (stringly world dedup, zero-world unsoundness, null-bearing query
//! literals) must hold end to end through the engine.

use datagen::random::random_schema;
use datagen::{
    random_database, random_division_query, random_positive_query, QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use relalgebra::ast::RaExpr;
use relalgebra::classify::QueryClass;
use relalgebra::plan::PlannedQuery;
use releval::complete::eval_complete;
use releval::worlds::{enumerate_worlds, stream_certain_answer, WorldOptions};
use releval::EvalError;
use relmodel::DatabaseBuilder;

fn small_db(seed: u64) -> Database {
    random_database(&RandomDbConfig {
        tuples_per_relation: 3,
        domain_size: 4,
        distinct_nulls: 2,
        null_rate_percent: 30,
        seed,
    })
}

fn query_for(class: QueryClass, seed: u64) -> RaExpr {
    let schema = random_schema();
    let cfg = |seed| QueryGenConfig {
        seed,
        ..Default::default()
    };
    match class {
        QueryClass::Positive => random_positive_query(&schema, &cfg(seed)),
        QueryClass::RaCwa => random_division_query(&schema, &cfg(seed)),
        QueryClass::FullRa => random_positive_query(&schema, &cfg(seed)).difference(
            random_positive_query(&schema, &cfg(seed.wrapping_add(1000))),
        ),
    }
}

const ALL_CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];

/// `FUZZ_CASES` scales the sweep as in the sibling harnesses (default 12).
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// The materializing baseline the streaming engine replaced: collect every
/// (structurally deduplicated) world, evaluate, intersect.
fn materializing_certain(
    q: &RaExpr,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Relation {
    enumerate_worlds(q, db, semantics, opts)
        .expect("tiny instances fit the budget")
        .iter()
        .map(|w| eval_complete(q, w).expect("worlds are complete"))
        .reduce(|a, b| a.intersection(&b))
        .expect("at least one world")
}

/// Streaming ≡ materializing, across every query class, both semantics
/// (including OWA worlds that may grow), and several thread counts — and
/// early exit never fires unless the certain answer is empty.
#[test]
fn streaming_equals_materializing_everywhere() {
    for class in ALL_CLASSES {
        for seed in 0..fuzz_cases() {
            let db = small_db(seed * 71 + 3);
            let q = query_for(class, seed * 17 + 5);
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            for (semantics, owa_extra) in [
                (Semantics::Cwa, 0),
                (Semantics::Owa, 0),
                (Semantics::Owa, 1),
            ] {
                let base = WorldOptions {
                    max_owa_extra: owa_extra,
                    ..WorldOptions::default()
                };
                let expected = materializing_certain(&q, &db, semantics, &base);
                for threads in [1usize, 3] {
                    let opts = WorldOptions {
                        threads: Some(threads),
                        ..base
                    };
                    let exec = stream_certain_answer(&plan, &db, semantics, &opts).unwrap();
                    assert_eq!(
                        exec.answers, expected,
                        "streaming != materializing for {q} \
                         ({class}, {semantics}, extra {owa_extra}, threads {threads}, seed {seed})"
                    );
                    assert!(
                        !exec.early_exit || exec.answers.is_empty(),
                        "early exit on a non-empty certain answer for {q} (seed {seed})"
                    );
                    assert!(exec.worlds_visited >= 1);
                    assert!(exec.peak_worlds_in_flight <= exec.threads * 2);
                }
            }
        }
    }
}

/// The world-dedup collision fixed in this PR, end to end: `Int(1)` and
/// `Str("1")` display identically, and the old stringly dedup merged their
/// worlds, reporting a non-empty "certain" answer for a query whose certain
/// answer is ∅.
#[test]
fn stringly_dedup_collision_is_fixed_through_the_engine() {
    let db = DatabaseBuilder::new()
        .relation("R", &["a"])
        .relation("S", &["a"])
        .tuple("R", vec![Value::null(0)])
        .tuple("S", vec![Value::int(1)])
        .tuple("S", vec![Value::str("1")])
        .build();
    let lit = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[1])]));
    let q = RaExpr::relation("R").intersection(lit);
    let report = Engine::new(&db)
        .options(EngineOptions::exhaustive())
        .ground_truth(&q)
        .unwrap();
    assert!(
        report.answers.is_empty(),
        "⊥0 ↦ Str(\"1\") is a world where R ∌ Int(1); got {}",
        report.answers
    );
}

/// Zero possible worlds must surface as an error, not as an empty "certain"
/// answer: with an all-null database, no query constants and zero fresh
/// constants there is nothing to value the nulls to.
#[test]
fn zero_worlds_error_instead_of_vacuous_certainty() {
    let db = DatabaseBuilder::new()
        .relation("R", &["a"])
        .tuple("R", vec![Value::null(0)])
        .build();
    let q = RaExpr::relation("R");
    let engine = Engine::new(&db)
        .options(EngineOptions::exhaustive().with_world_options(WorldOptions::with_fresh(0)));
    let err = engine.ground_truth(&q).unwrap_err();
    assert!(
        matches!(err, EngineError::Eval(EvalError::EmptyDomain { nulls: 1 })),
        "expected EmptyDomain, got {err:?}"
    );
}

/// Null-bearing query literals must not ride the naïve-evaluation theorem:
/// naïve evaluation equates a literal ⊥0 with a database ⊥0, an equality
/// that fails in every possible world. The classifier now routes such
/// queries to the conservative fragment, and the dispatched answer stays
/// sound where the old `Positive` classification over-reported.
#[test]
fn null_bearing_literals_are_dispatched_soundly() {
    let db = DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .tuple("R", vec![Value::int(1), Value::null(0)])
        .build();
    // π_{0,3}(σ_{#1 = #2}(R × {(⊥0, 7)})): joins the database null with the
    // literal null syntactically.
    let lit = RaExpr::values(Relation::from_tuples(
        2,
        vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
    ));
    let q = RaExpr::relation("R")
        .product(lit)
        .select(relalgebra::predicate::Predicate::eq(
            relalgebra::predicate::Operand::col(1),
            relalgebra::predicate::Operand::col(2),
        ))
        .project(vec![0, 3]);

    // Ground truth: the certain answer is empty.
    let truth = Engine::new(&db)
        .options(EngineOptions::exhaustive())
        .ground_truth(&q)
        .unwrap();
    assert!(truth.answers.is_empty());

    // Naïve evaluation over-reports the complete tuple (1, 7)…
    let naive = Engine::new(&db)
        .plan_with(StrategyKind::NaiveExact, &q)
        .unwrap();
    assert!(naive.answers.contains(&Tuple::ints(&[1, 7])));
    // …so the classifier must keep the query out of the exact fragment and
    // the default dispatch must answer soundly.
    assert_eq!(naive.guarantee, Guarantee::NoGuarantee);
    let report = Engine::new(&db).plan(&q).unwrap();
    assert_eq!(report.class, QueryClass::FullRa);
    assert_ne!(report.strategy, StrategyKind::NaiveExact);
    assert!(
        report.answers.is_subset(&truth.answers),
        "dispatched answer must stay sound: got {}",
        report.answers
    );
}
