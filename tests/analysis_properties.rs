//! Property tests for the static analyzer (`relalgebra::analysis`): the
//! abstract interpretation must *refine* the syntactic classification, never
//! contradict it. Violations here are soundness bugs — the analyzer is the
//! single source of truth `classify` and the engine dispatch are built on.
//!
//! The properties, swept over every generator class × a spread of censuses:
//!
//! 1. **Wrapper consistency** — against the pessimistic census, the
//!    analyzer's root class *is* `classify(q)`, and `has_null_literal` is
//!    `has_incomplete_values(q)`.
//! 2. **Refinement, never coarsening** — wherever the class theorem proves
//!    naïve evaluation sound, `certainty_preserving` agrees; the analyzer
//!    only ever *adds* certainty (via groundness / monotonicity), it never
//!    loses the theorem.
//! 3. **Split refinement** — `split_class ≤ class` in the `QueryClass`
//!    order: inlining ground subtrees can only move a query *down* the
//!    hierarchy.
//! 4. **Census monotonicity** — facts proved against the pessimistic census
//!    survive against any real census: pessimistic-ground ⇒ ground,
//!    pessimistic-certainty-preserving ⇒ certainty-preserving. (Monotone
//!    and constant are census-independent.)

use datagen::random::random_schema;
use datagen::{
    random_database, random_database_with_null_free, random_division_query, random_full_ra_query,
    random_mixed_query, random_positive_query, QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use relalgebra::analysis::{analyze, NullCensus};
use relalgebra::classify::{classify, has_incomplete_values};

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Every generator in the workshop, including the mixed one built for the
/// subtree-split upgrade.
fn queries_for_seed(seed: u64) -> Vec<RaExpr> {
    let schema = random_schema();
    let config = QueryGenConfig {
        seed,
        ..Default::default()
    };
    vec![
        random_positive_query(&schema, &config),
        random_division_query(&schema, &config),
        random_full_ra_query(&schema, &config),
        random_mixed_query(&schema, &config),
    ]
}

/// A spread of censuses per seed: pessimistic, a measured incomplete
/// database, a measured complete database, and the shaped null-free one.
fn censuses_for_seed(seed: u64) -> Vec<NullCensus> {
    let incomplete = random_database(&RandomDbConfig {
        distinct_nulls: 1 + (seed % 3) as usize,
        null_rate_percent: 10 + (seed * 7 % 60) as u32,
        seed,
        ..Default::default()
    });
    let complete = random_database(&RandomDbConfig {
        null_rate_percent: 0,
        seed,
        ..Default::default()
    });
    let shaped = random_database_with_null_free(
        &RandomDbConfig {
            null_rate_percent: 50,
            seed,
            ..Default::default()
        },
        &["S", "T"],
    );
    vec![
        NullCensus::pessimistic(),
        NullCensus::of_database(&incomplete),
        NullCensus::of_database(&complete),
        NullCensus::of_database(&shaped),
    ]
}

#[test]
fn analyzer_root_class_is_the_syntactic_classification() {
    for seed in 0..fuzz_cases() {
        for q in queries_for_seed(seed) {
            let facts = analyze(&q, &NullCensus::pessimistic()).root().clone();
            assert_eq!(facts.class, classify(&q), "seed {seed}: {q}");
            assert_eq!(
                facts.has_null_literal,
                has_incomplete_values(&q),
                "seed {seed}: {q}"
            );
        }
    }
}

#[test]
fn certainty_preservation_refines_the_class_theorem_never_coarsens_it() {
    use relmodel::Semantics;
    for seed in 0..fuzz_cases() {
        for q in queries_for_seed(seed) {
            let class = classify(&q);
            for census in censuses_for_seed(seed) {
                let facts = analyze(&q, &census).root().clone();
                for semantics in [Semantics::Cwa, Semantics::Owa] {
                    if class.naive_evaluation_sound(semantics) {
                        assert!(
                            facts.certainty_preserving(semantics),
                            "analyzer lost the class theorem for {q} \
                             ({class}, {semantics:?}, seed {seed})"
                        );
                    }
                }
                // Split refinement: inlining only moves down the hierarchy.
                assert!(
                    facts.split_class <= facts.class,
                    "split_class coarsened {q} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn facts_proved_pessimistically_survive_every_real_census() {
    use relmodel::Semantics;
    for seed in 0..fuzz_cases() {
        for q in queries_for_seed(seed) {
            let pessimistic = analyze(&q, &NullCensus::pessimistic()).root().clone();
            for census in censuses_for_seed(seed) {
                let facts = analyze(&q, &census).root().clone();
                // Monotonicity and constancy are census-independent facts of
                // the expression.
                assert_eq!(facts.monotone, pessimistic.monotone, "seed {seed}: {q}");
                assert_eq!(facts.constant, pessimistic.constant, "seed {seed}: {q}");
                if pessimistic.ground {
                    assert!(facts.ground, "groundness lost on {q} (seed {seed})");
                }
                for semantics in [Semantics::Cwa, Semantics::Owa] {
                    if pessimistic.certainty_preserving(semantics) {
                        assert!(
                            facts.certainty_preserving(semantics),
                            "census weakened {q} ({semantics:?}, seed {seed})"
                        );
                    }
                }
            }
        }
    }
}

/// Groundness is what it claims to be: a ground query (per the measured
/// census) evaluates naïvely to the exact CWA certain answer, full RA or
/// not. Checked against the world oracle on small instances.
#[test]
fn ground_facts_mean_world_invariance() {
    use releval::worlds::{stream_certain_answer, WorldOptions};
    for seed in 0..fuzz_cases().min(24) {
        let db = random_database(&RandomDbConfig {
            tuples_per_relation: 3,
            distinct_nulls: (seed % 3) as usize,
            null_rate_percent: (seed * 11 % 50) as u32,
            seed,
            ..Default::default()
        });
        let census = NullCensus::of_database(&db);
        for q in queries_for_seed(seed) {
            let facts = analyze(&q, &census).root().clone();
            if !facts.ground {
                continue;
            }
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            let naive = releval::exec::columnar::execute(plan.physical(), &db).complete_part();
            let oracle = stream_certain_answer(
                &plan,
                &db,
                relmodel::Semantics::Cwa,
                &WorldOptions::default(),
            )
            .unwrap();
            assert_eq!(
                naive, oracle.answers,
                "ground claim violated for {q} (seed {seed}) over\n{db}"
            );
        }
    }
}
