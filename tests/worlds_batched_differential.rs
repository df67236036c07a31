//! Differential fuzz harness for the batched enumeration folds: the
//! overlay/mask shard runners replayed against their row-instantiating
//! references on random workloads.
//!
//! The morsel-native refactor kept both reference folds public precisely so
//! this harness can hold the batched paths to them, case by case, across
//! seeded random databases × random queries of every [`QueryClass`] ×
//! morsel sizes:
//!
//! 1. possible worlds: `releval::worlds::stream_certain_answer` (valuation
//!    overlays through the split executor) ==
//!    `stream_certain_answer_rows` (one materialized `Database` per world),
//!    under CWA and OWA-with-extension — answers, worlds visited, and
//!    early-exit behaviour all equal, world by world;
//! 2. repairs: `repairs::fold::stream_consistent_answer` (core + survival
//!    masks) == `stream_consistent_answer_rows`, on complete *and*
//!    null-bearing inconsistent databases (the latter checks the fallback
//!    dispatch agrees too).
//!
//! Morsel sizes are swept through the `MORSEL_ROWS` environment seed (the
//! fold entry points read it per shard); a shared lock serializes the two
//! env-mutating tests. `FUZZ_CASES` scales the sweep as in the sibling
//! harnesses; `FUZZ_CASES=1000` is the acceptance-grade run.

use std::sync::Mutex;

use datagen::random::random_schema;
use datagen::{
    random_database, random_division_query, random_full_ra_query, random_inconsistent_database,
    random_positive_query, InconsistentDbConfig, QueryGenConfig, RandomDbConfig,
};
use incomplete_data::prelude::*;
use incomplete_data::repairs::{
    stream_consistent_answer, stream_consistent_answer_rows, ConflictGraph, RepairOptions,
};
use incomplete_data::{relalgebra, releval, relmodel};

use relalgebra::ast::RaExpr;
use releval::worlds::{stream_certain_answer, stream_certain_answer_rows, WorldOptions};
use relmodel::batch::MORSEL_ROWS_ENV;

/// Serializes the env-mutating tests: `MORSEL_ROWS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

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

/// Small instances: the row reference materializes every world, so the
/// OWA-extension case needs few nulls and a small domain to keep the
/// per-case world space in the hundreds.
fn fuzz_db(seed: u64) -> Database {
    random_database(&RandomDbConfig {
        tuples_per_relation: 2 + (seed % 3) as usize,
        domain_size: 3,
        distinct_nulls: (seed % 2) as usize + 1,
        null_rate_percent: 20 + (seed * 13 % 40) as u32,
        seed: seed.wrapping_mul(0x9e37_79b9),
    })
}

/// Fixed queries reading Δ over [`random_schema`]. No generator emits Δ,
/// yet the batched world fold refills Δ per world (the constants a
/// valuation or extension introduces) where the row fold materializes it.
const DELTA_QUERIES: [&str; 4] = [
    "project[#0](delta) minus S",
    "R minus delta",
    "select[#0 = #2](product(R, delta))",
    "product(S, R) divide delta",
];

/// Harness part 1: the overlay-batched world fold equals the
/// row-instantiating one — same answers, same worlds visited, same early
/// exit — across semantics, query classes, Δ-reading queries, and morsel
/// sizes.
#[test]
fn batched_world_fold_matches_row_fold() {
    let _env = ENV_LOCK.lock().expect("env lock poisoned");
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let random = ALL_CLASSES
            .map(|class| fuzz_query(class, seed.wrapping_mul(5).wrapping_add(class as u64)));
        let delta = DELTA_QUERIES.map(|text| parse(text).unwrap());
        for q in random.into_iter().chain(delta) {
            let class = relalgebra::classify::classify(&q);
            let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
            for (semantics, owa_extra) in [(Semantics::Cwa, 0usize), (Semantics::Owa, 1)] {
                // Cap the world space so a rare large case pre-errors (in
                // both folds identically) instead of stalling the sweep.
                let opts = WorldOptions {
                    max_owa_extra: owa_extra,
                    threads: Some(1),
                    max_worlds: 4096,
                    ..WorldOptions::default()
                };
                for morsel in MORSELS {
                    std::env::set_var(MORSEL_ROWS_ENV, morsel.to_string());
                    let batched = stream_certain_answer(&plan, &db, semantics, &opts);
                    let rows = stream_certain_answer_rows(&plan, &db, semantics, &opts);
                    let context = format!(
                        "{q} ({class}, {semantics}, extra {owa_extra}, seed {seed}, \
                         morsel {morsel}) over\n{db}"
                    );
                    match (batched, rows) {
                        (Ok(batched), Ok(rows)) => {
                            assert_eq!(batched.answers, rows.answers, "MISMATCH {context}");
                            assert_eq!(
                                batched.worlds_visited, rows.worlds_visited,
                                "visit counts diverge for {context}"
                            );
                            assert_eq!(
                                batched.early_exit, rows.early_exit,
                                "early exit diverges for {context}"
                            );
                            assert_eq!(
                                batched.worlds_batched, batched.worlds_visited,
                                "every visited world must batch for {context}"
                            );
                            assert_eq!(
                                rows.worlds_batched, 0,
                                "the rows reference must not batch for {context}"
                            );
                        }
                        (Err(b), Err(r)) => {
                            assert_eq!(
                                format!("{b}"),
                                format!("{r}"),
                                "error behaviour diverges for {context}"
                            );
                        }
                        (b, r) => panic!(
                            "one fold errored, the other answered for {context}: \
                             batched {b:?}, rows {r:?}"
                        ),
                    }
                }
            }
        }
    }
    std::env::remove_var(MORSEL_ROWS_ENV);
}

/// A random inconsistent database, optionally null-free: complete inputs
/// exercise the mask path, null-bearing ones the fallback agreement.
fn fuzz_dirty_db(seed: u64, with_nulls: bool) -> Database {
    random_inconsistent_database(&InconsistentDbConfig {
        tuples_per_relation: 2 + (seed % 3) as usize,
        domain_size: 3 + (seed % 3) as usize,
        violation_rate_percent: (seed * 17 % 70) as u32,
        null_rate_percent: if with_nulls {
            (seed * 7 % 35) as u32
        } else {
            0
        },
        distinct_nulls: if with_nulls { (seed % 3) as usize } else { 0 },
        seed: seed.wrapping_mul(0x9e37_79b9),
    })
}

/// `Σ_K |MIS(K)|` over the connected components `K` of the conflict graph,
/// by brute force: every vertex subset of a component that is independent
/// and maximal. Components are found here by a flood fill over the graph's
/// public adjacency, independently of `ConflictGraph::components`.
fn local_repair_count(graph: &ConflictGraph) -> u128 {
    let n = graph.conflict_tuples();
    let mut component_of = vec![usize::MAX; n];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if component_of[start] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut stack = vec![start];
        component_of[start] = id;
        while let Some(v) = stack.pop() {
            members.push(v);
            for &u in graph.neighbors(v) {
                if component_of[u] == usize::MAX {
                    component_of[u] = id;
                    stack.push(u);
                }
            }
        }
        components.push(members);
    }
    let mut total = 0u128;
    for members in &components {
        assert!(members.len() <= 20, "component too large to brute-force");
        let inside = |mask: u32, v: usize| {
            members
                .iter()
                .position(|&m| m == v)
                .is_some_and(|i| mask & (1 << i) != 0)
        };
        for mask in 0u32..(1 << members.len()) {
            let independent = members.iter().enumerate().all(|(i, &v)| {
                mask & (1 << i) == 0 || graph.neighbors(v).iter().all(|&u| !inside(mask, u))
            });
            let maximal = members.iter().enumerate().all(|(i, &v)| {
                mask & (1 << i) != 0 || graph.neighbors(v).iter().any(|&u| inside(mask, u))
            });
            if independent && maximal {
                total += 1;
            }
        }
    }
    total
}

/// Harness part 2: the mask-batched repair fold equals the row-instantiating
/// one — same answers across query classes, morsel sizes, and both complete
/// and null-bearing inputs. Whole-repair folds also visit the same repairs
/// and exit early alike; a factorized fold (a linear plan on a complete
/// input) visits `Σ_K |MIS(K)|` local repairs and never exits early.
#[test]
fn batched_repair_fold_matches_row_fold() {
    let _env = ENV_LOCK.lock().expect("env lock poisoned");
    let (mut factorized, mut whole) = (0u64, 0u64);
    for seed in 0..fuzz_cases() {
        for with_nulls in [false, true] {
            let db = fuzz_dirty_db(seed.wrapping_add(0xc0de), with_nulls);
            let graph = ConflictGraph::build(&db);
            for class in ALL_CLASSES {
                let q = fuzz_query(class, seed.wrapping_mul(7).wrapping_add(class as u64));
                let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
                let opts = RepairOptions::default().with_threads(1);
                for morsel in MORSELS {
                    std::env::set_var(MORSEL_ROWS_ENV, morsel.to_string());
                    let batched = stream_consistent_answer(&plan, &db, &graph, &opts);
                    let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts);
                    let context = format!(
                        "{q} ({class}, seed {seed}, nulls {with_nulls}, morsel {morsel}) \
                         over\n{db}"
                    );
                    match (batched, rows) {
                        (Ok(batched), Ok(rows)) => {
                            assert_eq!(batched.answers, rows.answers, "MISMATCH {context}");
                            if batched.components.is_some() {
                                factorized += 1;
                                // A factorized fold visits each component's
                                // local repairs once and never stops early.
                                assert_eq!(
                                    batched.repairs_visited,
                                    local_repair_count(&graph),
                                    "factorized visits are not Σ_K |MIS(K)| for {context}"
                                );
                                assert!(
                                    !batched.early_exit,
                                    "a factorized fold exited early for {context}"
                                );
                            } else {
                                whole += 1;
                                assert_eq!(
                                    batched.repairs_visited, rows.repairs_visited,
                                    "visit counts diverge for {context}"
                                );
                                assert_eq!(
                                    batched.early_exit, rows.early_exit,
                                    "early exit diverges for {context}"
                                );
                            }
                            let expected_batched = if db.is_complete() {
                                batched.repairs_visited
                            } else {
                                0
                            };
                            assert_eq!(
                                batched.repairs_batched, expected_batched,
                                "mask-path accounting wrong for {context}"
                            );
                            assert_eq!(
                                rows.repairs_batched, 0,
                                "the rows reference must not batch for {context}"
                            );
                        }
                        (Err(b), Err(r)) => {
                            assert_eq!(
                                format!("{b}"),
                                format!("{r}"),
                                "error behaviour diverges for {context}"
                            );
                        }
                        (b, r) => panic!(
                            "one fold errored, the other answered for {context}: \
                             batched {b:?}, rows {r:?}"
                        ),
                    }
                }
            }
        }
    }
    std::env::remove_var(MORSEL_ROWS_ENV);
    eprintln!("repair folds: {factorized} factorized, {whole} whole-repair");
    assert!(
        factorized > 0 && whole > 0,
        "the sweep must exercise both fold shapes: {factorized} factorized, {whole} whole"
    );
}
