//! Differential fuzz harness for the factorized consistent-answer fold.
//!
//! On a complete database, a plan that is *linear* in the conflict vertices
//! (every derivation uses at most one of them) is folded one conflict
//! component at a time: `Σ_K |MIS(K)|` local repairs instead of the
//! `∏_K |MIS(K)|` whole repairs. This harness generates complete dirty
//! databases with many components — single clashes, three- and four-way
//! clashes on one key, and doomed tuples — and replays two families of
//! queries against `stream_consistent_answer_rows`, which materializes
//! every whole repair:
//!
//! 1. linear plans (σ/π, a join with a clean relation, ∪ of two dirty
//!    branches, − with a clean right side) must factorize — over exactly
//!    the graph's components, visiting `Σ_K |MIS(K)|` local repairs, never
//!    exiting early — and answer exactly as the reference;
//! 2. non-linear plans (a self-join, `R − R`, `R ÷ S`, a Δ-bearing plan, a
//!    join of two dirty relations, a union with one such branch) must not
//!    factorize, and still answer exactly as the reference.
//!
//! Both families run single-threaded and with the components partitioned
//! across pinned workers. `FUZZ_CASES` scales the sweep as in the sibling
//! harnesses; `FUZZ_CASES=1000` is the acceptance-grade run.

use incomplete_data::prelude::*;
use incomplete_data::relmodel::constraint::CompareOp;
use incomplete_data::relmodel::value::Constant;
use incomplete_data::repairs::{
    stream_consistent_answer, stream_consistent_answer_rows, ConflictGraph, RepairOptions,
};

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// The payload a denial constraint forbids in `R`: tuples carrying it are
/// doomed.
const FORBIDDEN: i64 = 13;

/// A splitmix64 stream: the harness's only randomness.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `R(k, v)` keyed on `k` with `v = 13` denied, `T(k, v)` keyed on `k`,
/// and a clean `S(v, w)`.
fn schema() -> Schema {
    Schema::builder()
        .relation("R", &["k", "v"])
        .relation("T", &["k", "v"])
        .relation("S", &["v", "w"])
        .key("R", &["k"])
        .key("T", &["k"])
        .deny("R", "v", CompareOp::Eq, Constant::Int(FORBIDDEN))
        .build()
}

/// A complete dirty database. Each key of `R` holds one to four tuples,
/// so clashes form components of two to four vertices; some payloads are
/// forbidden (doomed tuples, which never join a component). `T` clashes
/// on fewer keys. The whole-repair product stays small enough for the
/// row reference to enumerate.
fn fuzz_db(seed: u64) -> Database {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut db = Database::new(schema());
    let domain = 3 + rng.below(3) as i64;
    // Key 0 clashes in both R and T, so both always hold conflict vertices
    // and each query's linearity is fixed.
    for rel in ["R", "T"] {
        db.insert(rel, Tuple::ints(&[0, 0])).unwrap();
        db.insert(rel, Tuple::ints(&[0, 1])).unwrap();
    }
    let mut repairs = 4u64;
    for k in 1..(3 + rng.below(5) as i64) {
        let width = match rng.below(10) {
            0..=3 => 1,
            4..=6 => 2,
            7..=8 => 3,
            _ => 4,
        };
        let width = if repairs * width > 600 { 1 } else { width };
        repairs *= width;
        for _ in 0..width {
            let v = if rng.below(8) == 0 {
                FORBIDDEN
            } else {
                rng.below(domain as u64) as i64
            };
            db.insert("R", Tuple::ints(&[k, v])).unwrap();
        }
    }
    for k in 1..(2 + rng.below(3) as i64) {
        let width = if rng.below(3) == 0 && repairs <= 300 {
            2
        } else {
            1
        };
        repairs *= width;
        for _ in 0..width {
            let v = rng.below(domain as u64) as i64;
            db.insert("T", Tuple::ints(&[k, v])).unwrap();
        }
    }
    for _ in 0..(2 + rng.below(4)) {
        let v = rng.below(domain as u64) as i64;
        let w = 100 + rng.below(3) as i64;
        db.insert("S", Tuple::ints(&[v, w])).unwrap();
    }
    db
}

/// Linear plans: every derivation reads at most one conflict vertex.
fn linear_queries(c: i64) -> Vec<String> {
    vec![
        format!("project[#1](select[#0 != {c}](R))"),
        "project[#3](select[#1 = #2](product(R, S)))".to_owned(),
        format!(
            "project[#0](select[(#1 = #2) and (#3 != {})](product(S, T)))",
            100 + c
        ),
        "(project[#1](R) union project[#1](T))".to_owned(),
        "(R union T)".to_owned(),
        "(project[#1](R) minus project[#0](S))".to_owned(),
        format!(
            "((project[#1](R) union project[#1](T)) minus project[#0](select[#1 = {}](S)))",
            100 + c
        ),
        "(project[#1](R) intersect project[#0](S))".to_owned(),
    ]
}

/// Non-linear plans: some derivation may read two vertices, or an operator
/// the factorization cannot split reads one.
fn non_linear_queries(c: i64) -> Vec<String> {
    vec![
        "project[#1](select[#0 = #2](product(R, R)))".to_owned(),
        "project[#0, #2](product(R, R))".to_owned(),
        format!("(project[#1](R) minus project[#1](select[#0 = {c}](R)))"),
        "(R divide project[#0](S))".to_owned(),
        "(project[#0](delta) minus project[#0](S))".to_owned(),
        "project[#0, #2](select[#1 = #3](product(R, T)))".to_owned(),
        "(project[#0](S) minus project[#1](R))".to_owned(),
        "(project[#1](R) union project[#3](product(R, T)))".to_owned(),
    ]
}

#[test]
fn factorized_fold_matches_whole_repair_fold() {
    let (mut wide_components, mut doomed, mut factorized) = (0u64, 0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let graph = ConflictGraph::build(&db);
        let components = graph.components();
        wide_components += components.iter().filter(|k| k.len() >= 3).count() as u64;
        doomed += graph.doomed_tuples() as u64;
        let c = (seed % 4) as i64;
        let cases = linear_queries(c)
            .into_iter()
            .map(|q| (q, true))
            .chain(non_linear_queries(c).into_iter().map(|q| (q, false)));
        for (text, linear) in cases {
            let plan = parse_and_plan(&text, db.schema()).unwrap();
            for threads in [1usize, 2] {
                let opts = RepairOptions::default().with_threads(threads);
                let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts).unwrap();
                let exec = stream_consistent_answer(&plan, &db, &graph, &opts).unwrap();
                let context = format!("{text} (seed {seed}, {threads} threads) over\n{db}");
                assert_eq!(exec.answers, rows.answers, "MISMATCH {context}");
                if linear {
                    factorized += 1;
                    assert_eq!(
                        exec.components,
                        Some(components.len()),
                        "a linear plan must factorize: {context}"
                    );
                    assert!(!exec.early_exit, "{context}");
                    if !rows.early_exit {
                        assert!(exec.repairs_visited <= rows.repairs_visited, "{context}");
                    }
                    assert_eq!(exec.repairs_batched, exec.repairs_visited, "{context}");
                } else {
                    assert_eq!(
                        exec.components, None,
                        "a non-linear plan must not factorize: {context}"
                    );
                    if threads == 1 {
                        // Sharded early exit races; a single shard does not.
                        assert_eq!(exec.repairs_visited, rows.repairs_visited, "{context}");
                        assert_eq!(exec.early_exit, rows.early_exit, "{context}");
                    }
                }
            }
        }
    }
    assert!(factorized > 0, "no linear case had conflicts");
    assert!(
        wide_components > 0,
        "no component of three or more vertices"
    );
    assert!(doomed > 0, "no doomed tuple");
}

/// The local repair count is `Σ_K |MIS(K)|`, while the whole-repair count
/// the reference visits is `∏_K |MIS(K)|` (when nothing exits early).
#[test]
fn factorized_visits_sum_the_components_repairs() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let graph = ConflictGraph::build(&db);
        // Every repair keeps key 0, so the answer never empties and the
        // reference visits every repair.
        let plan = parse_and_plan("project[#0]((R union T))", db.schema()).unwrap();
        let opts = RepairOptions::default().with_threads(1);
        let exec = stream_consistent_answer(&plan, &db, &graph, &opts).unwrap();
        let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts).unwrap();
        assert!(!rows.early_exit);
        let per_component: Vec<u128> = graph
            .components()
            .iter()
            .map(|component| local_repairs(&graph, component))
            .collect();
        assert_eq!(exec.repairs_visited, per_component.iter().sum::<u128>());
        assert_eq!(rows.repairs_visited, per_component.iter().product::<u128>());
    }
}

/// Maximal independent sets of one component, by brute force over its
/// vertex subsets.
fn local_repairs(graph: &ConflictGraph, component: &[usize]) -> u128 {
    let bit = |mask: u32, v: usize| {
        let i = component.iter().position(|&m| m == v).unwrap();
        mask & (1 << i) != 0
    };
    (0u32..(1 << component.len()))
        .filter(|&mask| {
            component.iter().all(|&v| {
                let neighbors = graph.neighbors(v);
                if bit(mask, v) {
                    neighbors.iter().all(|&u| !bit(mask, u))
                } else {
                    neighbors.iter().any(|&u| bit(mask, u))
                }
            })
        })
        .count() as u128
}
