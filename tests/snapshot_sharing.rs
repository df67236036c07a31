//! Structural sharing between snapshot versions, checked along random
//! write histories.
//!
//! A service publishes each version by copying the current database (one
//! pointer per relation), copying only the relations a write touches, and
//! deriving the next dispatch context from the current one: shared
//! relations keep their census entry and their column-batch slot. These
//! tests run random sequences of `update` and `replace` (schema changes
//! included) and check after every publish that:
//!
//! * the derived context equals a fresh [`DbContext::of`] of the database;
//! * every built batch equals a fresh transpose of its relation;
//! * relations the write did not touch share their batch with the previous
//!   version, and touched ones start unbuilt;
//! * pinned old snapshots still answer with their own data;
//! * the service's answers equal a fresh one-shot [`Engine`] on the
//!   snapshot's database.
//!
//! `FUZZ_CASES` scales the number of histories (default 16).

use std::collections::BTreeSet;
use std::sync::Arc;

use incomplete_data::engine::DbContext;
use incomplete_data::prelude::*;
use incomplete_data::serve::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmodel::batch::ColumnBatch;
use relmodel::builder::DatabaseBuilder;

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// Queries over `R(a, b)` and `S(b, c)`, asked under each semantics: the
/// positive ones dispatch to naive evaluation, the differences to the sound
/// approximation.
const QUERIES: [&str; 5] = [
    "R",
    "project[#0](select[#1 = #2](product(R, S)))",
    "R union S",
    "R minus S",
    "project[#0](R) minus project[#1](S)",
];

const SEMANTICS: [relmodel::Semantics; 2] = [relmodel::Semantics::Cwa, relmodel::Semantics::Owa];

/// Small values, so inserts hit existing joins and sometimes repeat a
/// present tuple (a write that must copy nothing).
fn random_value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.15) {
        Value::null(rng.gen_range(0..4u64))
    } else {
        Value::int(rng.gen_range(0..12i64))
    }
}

fn initial_database(seed: u64) -> Database {
    datagen::random_database_with_null_rate(12, 10, seed)
}

/// The same relations plus a new one, `T(a)`: a schema change.
fn widened(db: &Database) -> Database {
    let mut builder = DatabaseBuilder::new();
    for (name, rel) in db.iter() {
        let columns: Vec<String> = (0..rel.arity()).map(|i| format!("c{i}")).collect();
        let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
        builder = builder.relation(name, &columns);
    }
    let mut out = builder.relation("T", &["a"]).ints("T", &[1]).build();
    for (name, rel) in db.iter() {
        out.insert_all(name, rel.iter().cloned()).unwrap();
    }
    out
}

/// One random write against `service`: the set of relations it touched, or
/// `None` when it replaced the database with unrelated relations.
fn random_write(service: &CertainService, rng: &mut StdRng, seed: u64) -> Option<BTreeSet<String>> {
    match rng.gen_range(0..10u32) {
        // Inserts: one to three tuples, each into R or S.
        0..=5 => {
            let mut touched = BTreeSet::new();
            let writes = rng.gen_range(1..=3usize);
            service.update(|db| {
                for _ in 0..writes {
                    let name = if rng.gen_bool(0.5) { "R" } else { "S" };
                    let tuple = Tuple::new(vec![random_value(rng), random_value(rng)]);
                    if db.insert(name, tuple).unwrap() {
                        touched.insert(name.to_owned());
                    }
                }
            });
            Some(touched)
        }
        // A write that changes nothing.
        6 => {
            service.update(|_| {});
            Some(BTreeSet::new())
        }
        // Republishing the current database as-is: everything shared.
        7 => {
            service.replace(Database::clone(service.snapshot().database()));
            Some(BTreeSet::new())
        }
        // A schema change: a new relation, and fresh copies of the old ones.
        8 => {
            service.replace(widened(service.snapshot().database()));
            None
        }
        // A different database altogether.
        _ => {
            service.replace(initial_database(seed + 1000 + rng.gen_range(0..100u64)));
            None
        }
    }
}

/// Asks every query under every semantics through `engine_for`.
fn answers(mut engine_for: impl FnMut(relmodel::Semantics) -> Vec<Relation>) -> Vec<Vec<Relation>> {
    SEMANTICS.iter().map(|s| engine_for(*s)).collect()
}

fn fresh_answers(db: &Database) -> Vec<Vec<Relation>> {
    answers(|semantics| {
        QUERIES
            .iter()
            .map(|q| {
                Engine::new(db)
                    .semantics(semantics)
                    .plan_text(q)
                    .unwrap()
                    .answers
            })
            .collect()
    })
}

fn snapshot_answers(snapshot: &Snapshot) -> Vec<Vec<Relation>> {
    answers(|semantics| {
        QUERIES
            .iter()
            .map(|q| {
                snapshot
                    .engine(semantics.into(), EngineOptions::default())
                    .plan_text(q)
                    .unwrap()
                    .answers
            })
            .collect()
    })
}

/// The context of `snapshot` is exactly what a fresh measurement gives, and
/// every batch it built is exactly a fresh transpose.
fn assert_context_is_fresh(snapshot: &Snapshot) {
    let db = snapshot.database();
    let ctx = snapshot.context();
    let fresh = DbContext::of(db);
    assert_eq!(
        ctx.census(),
        fresh.census(),
        "census of v{}",
        snapshot.version()
    );
    assert_eq!(ctx.nulls(), fresh.nulls());
    assert_eq!(ctx.nulls(), db.null_ids().len());
    for (name, rel) in db.iter() {
        if let Some(batch) = ctx.batches().built(name) {
            assert_eq!(**batch, ColumnBatch::from_relation(rel), "batch of {name}");
        }
    }
}

#[test]
fn random_histories_share_untouched_relations_and_stay_exact() {
    for seed in 0..fuzz_cases() {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = CertainService::new(initial_database(seed));
        let mut pinned: Vec<(Arc<Snapshot>, Vec<Vec<Relation>>)> = Vec::new();
        let mut strategies: Vec<StrategyKind> = Vec::new();
        for _ in 0..12 {
            let prev = service.snapshot();
            // Answer everything first, so every relation's batch is built
            // before the write.
            let through_service = answers(|semantics| {
                QUERIES
                    .iter()
                    .map(|q| {
                        let report = service
                            .submit_with(q, semantics.into(), *service.engine_options())
                            .unwrap();
                        strategies.push(report.strategy);
                        report.answers
                    })
                    .collect()
            });
            let expected = fresh_answers(prev.database());
            assert_eq!(through_service, expected, "seed {seed} v{}", prev.version());
            pinned.push((Arc::clone(&prev), expected));

            let touched = random_write(&service, &mut rng, seed);
            let next = service.snapshot();
            assert_eq!(next.version(), prev.version() + 1);
            assert_context_is_fresh(&next);

            let (db, prev_db) = (next.database(), prev.database());
            for (name, _) in db.iter() {
                let shared = db.shares_relation(prev_db, name);
                let built = next.context().batches().built(name);
                match &touched {
                    Some(touched) if !touched.contains(name) => {
                        assert!(shared, "seed {seed}: untouched {name} was copied");
                        match (prev.context().batches().built(name), built) {
                            (Some(before), Some(after)) => assert!(
                                Arc::ptr_eq(before, after),
                                "seed {seed}: untouched {name} lost its batch"
                            ),
                            (None, None) => {}
                            _ => panic!("seed {seed}: {name}'s slot was not carried"),
                        }
                    }
                    _ => {
                        assert!(!shared, "seed {seed}: rewritten {name} still shared");
                        assert!(built.is_none(), "seed {seed}: {name} kept a stale batch");
                    }
                }
            }
        }
        for scan_path in [StrategyKind::NaiveExact, StrategyKind::SoundApproximation] {
            assert!(
                strategies.contains(&scan_path),
                "seed {seed}: no {scan_path:?}"
            );
        }
        // Every pinned version answers with its own data, although later
        // versions share (and may have built) its slots.
        for (snapshot, expected) in &pinned {
            assert_context_is_fresh(snapshot);
            assert_eq!(
                &snapshot_answers(snapshot),
                expected,
                "seed {seed}: pinned v{}",
                snapshot.version()
            );
        }
    }
}

#[test]
fn untouched_relations_are_neither_copied_nor_transposed_again() {
    let service = CertainService::new(initial_database(7));
    service.submit("R union S").unwrap();
    let v0 = service.snapshot();
    let r0 = Arc::clone(v0.context().batches().built("R").expect("R scanned"));
    let s0 = Arc::clone(v0.context().batches().built("S").expect("S scanned"));

    service.update(|db| {
        db.insert("R", Tuple::ints(&[100, 100])).unwrap();
    });
    let v1 = service.snapshot();
    assert!(v1.database().shares_relation(v0.database(), "S"));
    assert!(!v1.database().shares_relation(v0.database(), "R"));
    assert!(v1.context().batches().built("R").is_none());
    let report = service.submit("R union S").unwrap();
    assert_eq!(report.strategy, StrategyKind::NaiveExact);
    assert!(report.answers.contains(&Tuple::ints(&[100, 100])));

    // S is the very batch v0 built; R is v1's own, and v0's is untouched.
    let r1 = v1.context().batches().built("R").expect("R scanned on v1");
    assert!(Arc::ptr_eq(&s0, v1.context().batches().built("S").unwrap()));
    assert!(!Arc::ptr_eq(&r0, r1));
    assert_eq!(r1.len(), r0.len() + 1);
    assert!(Arc::ptr_eq(&r0, v0.context().batches().built("R").unwrap()));
}
