//! Differential fuzz harness for the batched enumeration folds: the
//! split-executor component folds replayed against their row-instantiating
//! references on random workloads.
//!
//! The morsel-native refactor kept both reference folds public precisely so
//! this harness can hold the batched paths to them, case by case, across
//! seeded random databases × random queries of every [`QueryClass`] ×
//! morsel sizes:
//!
//! 1. possible worlds: `releval::worlds::stream_certain_answer` (valued
//!    rows through the split executor) ==
//!    `stream_certain_answer_rows` (one materialized `Database` per world),
//!    under CWA and OWA-with-extension — answers equal; whole-world folds
//!    also visit the same worlds and exit early alike, while a factorized
//!    fold (a linear plan, or a root difference of linear sides) folds the
//!    null components a flood fill finds and stays within their space;
//!    a 3-worker run of the batched fold answers as the 1-thread row fold
//!    wherever the a-priori space fits the budget;
//! 2. repairs: `repairs::fold::stream_consistent_answer` (core + survival
//!    masks, or joint components for a linear plan) ==
//!    `stream_consistent_answer_rows`, on complete *and* null-bearing
//!    inconsistent databases, and again at 3 workers where the repair
//!    estimate fits the budget.
//!
//! Morsel sizes are swept through the `MORSEL_ROWS` environment seed (the
//! fold entry points read it per shard); a shared lock serializes the two
//! env-mutating tests. `FUZZ_CASES` scales the sweep as in the sibling
//! harnesses; `FUZZ_CASES=1000` is the acceptance-grade run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
use releval::worlds::{
    estimated_world_count, stream_certain_answer, stream_certain_answer_rows, valuation_domain,
    WorldOptions,
};
use relmodel::batch::MORSEL_ROWS_ENV;
use relmodel::semantics::all_complete_tuples;
use relmodel::value::NullId;

/// Serializes the env-mutating tests: `MORSEL_ROWS` is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Takes the env lock even after the other test panicked while holding
/// it: each test sets every variable it reads, so one failure must not
/// mask the other test's result.
fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// The null components' sizes, by a flood fill over "shares a tuple",
/// independently of the fold's own union-find.
fn null_component_sizes(db: &Database) -> Vec<u32> {
    let mut neighbours: BTreeMap<NullId, BTreeSet<NullId>> = BTreeMap::new();
    for (_, rel) in db.iter() {
        for t in rel.iter() {
            let ids = t.null_ids();
            for &n in &ids {
                neighbours.entry(n).or_default().extend(ids.iter().copied());
            }
        }
    }
    let mut seen = BTreeSet::new();
    let mut sizes = Vec::new();
    for &start in neighbours.keys() {
        if !seen.insert(start) {
            continue;
        }
        let (mut stack, mut size) = (vec![start], 0);
        while let Some(n) = stack.pop() {
            size += 1;
            for &m in &neighbours[&n] {
                if seen.insert(m) {
                    stack.push(m);
                }
            }
        }
        sizes.push(size);
    }
    sizes
}

/// Compares a sharded fold's outcome with the 1-thread row fold's. Only
/// folds whose a-priori space fits the budget are compared: there the
/// budget cannot fire, so neither can an early-exit/budget race, and the
/// outcomes agree exactly.
fn assert_sharded_agrees<T: std::fmt::Debug, E: std::fmt::Debug + std::fmt::Display>(
    sharded: &Result<T, E>,
    rows: &Result<T, E>,
    answers: impl Fn(&T) -> &Relation,
    context: &str,
) {
    match (sharded, rows) {
        (Ok(sharded), Ok(rows)) => assert_eq!(
            answers(sharded),
            answers(rows),
            "3-worker MISMATCH {context}"
        ),
        (Err(s), Err(r)) => assert_eq!(format!("{s}"), format!("{r}"), "{context}"),
        (s, r) => panic!("3 workers and the row fold disagree for {context}: {s:?} vs {r:?}"),
    }
}

/// The worlds the product fold may visit: every valuation, each extended
/// by every subset of at most `owa_extra` extension tuples (`owa_extra` is
/// 0 or 1 here).
fn world_space(q: &RaExpr, db: &Database, opts: &WorldOptions, owa_extra: usize) -> u128 {
    let domain = valuation_domain(q, db, opts);
    let subsets = 1 + (owa_extra * all_complete_tuples(db, &domain).len()) as u128;
    estimated_world_count(q, db, opts).saturating_mul(subsets)
}

/// Harness part 1: the split-executor world fold equals the
/// row-instantiating one — same answers — across semantics, query classes,
/// Δ-reading queries, and morsel sizes. Whole-world folds also visit the
/// same worlds and exit early alike; a factorized fold folds the
/// flood-filled null components and visits at most one whole world and two
/// sides' worth of their valuations, `1 + 2 · Σ_K |dom|^|N_K|`. Where the
/// product space fits the budget, the fold at 3 workers answers alike.
#[test]
fn batched_world_fold_matches_row_fold() {
    let _env = env_lock();
    let (mut factorized, mut whole, mut sharded3) = (0u64, 0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let components = null_component_sizes(&db);
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
                let fits = world_space(&q, &db, &opts, owa_extra) <= opts.max_worlds;
                for morsel in MORSELS {
                    std::env::set_var(MORSEL_ROWS_ENV, morsel.to_string());
                    let batched = stream_certain_answer(&plan, &db, semantics, &opts);
                    let rows = stream_certain_answer_rows(&plan, &db, semantics, &opts);
                    let context = format!(
                        "{q} ({class}, {semantics}, extra {owa_extra}, seed {seed}, \
                         morsel {morsel}) over\n{db}"
                    );
                    if fits {
                        let three = WorldOptions {
                            threads: Some(3),
                            ..opts
                        };
                        let sharded = stream_certain_answer(&plan, &db, semantics, &three);
                        assert_sharded_agrees(&sharded, &rows, |e| &e.answers, &context);
                        sharded3 += 1;
                    }
                    match (batched, rows) {
                        (Ok(batched), Ok(rows)) => {
                            assert_eq!(batched.answers, rows.answers, "MISMATCH {context}");
                            if batched.components.is_some() {
                                factorized += 1;
                                assert_eq!(
                                    batched.components,
                                    Some(components.len()),
                                    "factorized over the wrong components for {context}"
                                );
                                let dom = valuation_domain(&q, &db, &opts).len() as u128;
                                // A root difference's first whole world,
                                // then both sides.
                                let space: u128 =
                                    1 + 2 * components.iter().map(|&n| dom.pow(n)).sum::<u128>();
                                assert!(
                                    batched.worlds_visited <= space,
                                    "visited {} of a {space}-element factorized space \
                                     for {context}",
                                    batched.worlds_visited
                                );
                            } else {
                                whole += 1;
                                assert_eq!(
                                    batched.worlds_visited, rows.worlds_visited,
                                    "visit counts diverge for {context}"
                                );
                                assert_eq!(
                                    batched.early_exit, rows.early_exit,
                                    "early exit diverges for {context}"
                                );
                            }
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
    eprintln!("world folds: {factorized} factorized, {whole} whole-world, {sharded3} at 3 workers");
    assert!(
        factorized > 0 && whole > 0 && sharded3 > 0,
        "the sweep must exercise both fold shapes and 3 workers: {factorized} factorized, \
         {whole} whole, {sharded3} at 3 workers"
    );
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

/// The joint components of a dirty database, by brute force: a flood fill
/// joining two conflict vertices that share an edge, a vertex with each of
/// its nulls, and the nulls of each core tuple, independently of the
/// fold's own union-find. Each component is reported as its count of
/// local repairs (vertex subsets that are independent and maximal) and of
/// nulls.
fn joint_components(db: &Database, graph: &ConflictGraph) -> Vec<(u128, u32)> {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Node {
        Vertex(usize),
        Null(NullId),
    }
    let mut edges: BTreeMap<Node, BTreeSet<Node>> = BTreeMap::new();
    let mut link = |a: Node, b: Node| {
        edges.entry(a).or_default().insert(b);
        edges.entry(b).or_default().insert(a);
    };
    for (v, (_, tuple)) in graph.vertices().iter().enumerate() {
        link(Node::Vertex(v), Node::Vertex(v));
        for &u in graph.neighbors(v) {
            link(Node::Vertex(v), Node::Vertex(u));
        }
        for n in tuple.null_ids() {
            link(Node::Vertex(v), Node::Null(n));
        }
    }
    for (_, rel) in graph.core(db).iter() {
        for tuple in rel.iter() {
            let ids: Vec<NullId> = tuple.null_ids().into_iter().collect();
            for &n in &ids {
                link(Node::Null(ids[0]), Node::Null(n));
            }
        }
    }
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for &start in edges.keys() {
        if !seen.insert(start) {
            continue;
        }
        let (mut members, mut nulls, mut stack) = (Vec::new(), 0u32, vec![start]);
        while let Some(node) = stack.pop() {
            match node {
                Node::Vertex(v) => members.push(v),
                Node::Null(_) => nulls += 1,
            }
            for &next in &edges[&node] {
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        out.push((local_repairs(graph, &members), nulls));
    }
    out
}

/// The maximal independent sets of the subgraph `members` spans, by brute
/// force over its vertex subsets.
fn local_repairs(graph: &ConflictGraph, members: &[usize]) -> u128 {
    assert!(members.len() <= 20, "component too large to brute-force");
    let inside = |mask: u32, v: usize| {
        members
            .iter()
            .position(|&m| m == v)
            .is_some_and(|i| mask & (1 << i) != 0)
    };
    (0u32..(1 << members.len()))
        .filter(|&mask| {
            members.iter().enumerate().all(|(i, &v)| {
                let neighbors = graph.neighbors(v);
                if mask & (1 << i) != 0 {
                    neighbors.iter().all(|&u| !inside(mask, u))
                } else {
                    neighbors.iter().any(|&u| inside(mask, u))
                }
            })
        })
        .count() as u128
}

/// Harness part 2: the mask-batched repair fold equals the row-instantiating
/// one — same answers across query classes, morsel sizes, and both complete
/// and null-bearing inputs. Whole-repair folds also visit the same repairs
/// and exit early alike; a factorized fold (a linear plan) folds the
/// flood-filled joint components, visits at least one and at most
/// `Σ_J |LR(J)| · |dom|^|N_J|` elements of each, batches all of them, and
/// never reports early exit. Where the Moon–Moser repair estimate fits the
/// budget, the fold at 3 workers answers alike.
#[test]
fn batched_repair_fold_matches_row_fold() {
    let _env = env_lock();
    let (mut factorized, mut whole, mut sharded3) = (0u64, 0u64, 0u64);
    for seed in 0..fuzz_cases() {
        for with_nulls in [false, true] {
            let db = fuzz_dirty_db(seed.wrapping_add(0xc0de), with_nulls);
            let graph = ConflictGraph::build(&db);
            for class in ALL_CLASSES {
                let q = fuzz_query(class, seed.wrapping_mul(7).wrapping_add(class as u64));
                let plan = PlannedQuery::new(q.clone(), db.schema()).unwrap();
                let opts = RepairOptions::default().with_threads(1);
                let fits = graph.estimated_repairs() <= opts.max_repairs;
                for morsel in MORSELS {
                    std::env::set_var(MORSEL_ROWS_ENV, morsel.to_string());
                    let batched = stream_consistent_answer(&plan, &db, &graph, &opts);
                    let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts);
                    let context = format!(
                        "{q} ({class}, seed {seed}, nulls {with_nulls}, morsel {morsel}) \
                         over\n{db}"
                    );
                    if fits {
                        let three = opts.with_threads(3);
                        let sharded = stream_consistent_answer(&plan, &db, &graph, &three);
                        assert_sharded_agrees(&sharded, &rows, |e| &e.answers, &context);
                        sharded3 += 1;
                    }
                    match (batched, rows) {
                        (Ok(batched), Ok(rows)) => {
                            assert_eq!(batched.answers, rows.answers, "MISMATCH {context}");
                            if batched.components.is_some() {
                                factorized += 1;
                                // Each component's run stops once its
                                // intersection empties.
                                let joint = joint_components(&db, &graph);
                                assert_eq!(
                                    batched.components,
                                    Some(joint.len()),
                                    "factorized over the wrong components for {context}"
                                );
                                let dom = valuation_domain(&q, &db, &opts.world_options).len();
                                let space: u128 = joint
                                    .iter()
                                    .map(|&(local, nulls)| local * (dom as u128).pow(nulls))
                                    .sum();
                                assert!(
                                    (joint.len() as u128..=space)
                                        .contains(&batched.repairs_visited),
                                    "factorized visits {} outside {}..={space} for {context}",
                                    batched.repairs_visited,
                                    joint.len()
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
                            let split = db.is_complete() || batched.components.is_some();
                            let expected_batched = if split { batched.repairs_visited } else { 0 };
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
    eprintln!(
        "repair folds: {factorized} factorized, {whole} whole-repair, {sharded3} at 3 workers"
    );
    assert!(
        factorized > 0 && whole > 0 && sharded3 > 0,
        "the sweep must exercise both fold shapes and 3 workers: {factorized} factorized, \
         {whole} whole, {sharded3} at 3 workers"
    );
}
