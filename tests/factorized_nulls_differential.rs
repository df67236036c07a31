//! Differential fuzz harness for the joint repair × valuation fold.
//!
//! On a dirty database that also holds nulls, a plan that is *linear* in
//! the volatile relations (those holding a conflict vertex or a
//! null-bearing core tuple) is folded one **joint component** at a time:
//! conflict vertices and nulls joined by conflict edges, by sharing a
//! tuple, and by a vertex carrying a null. Each element is a local repair
//! with a valuation of its component's nulls over the one shared valuation
//! domain. This harness generates such databases — nulls in core tuples,
//! nulls in conflict vertices, one null shared by vertices of two conflict
//! components, a null found only in a doomed tuple, and two nulls in one
//! tuple — and replays two families of queries against
//! `stream_consistent_answer_rows`, which builds every repair and answers
//! it through the certain-answer machinery:
//!
//! 1. linear plans must take the joint fold — over exactly the components
//!    a brute-force flood fill finds, with `factorized_repair_count` equal
//!    to the brute-force `Σ_J Σ_{M ∈ LR(J)} |dom|^|N(M ∪ C_J)|` (a local
//!    repair `M` values the nulls its tuples and the component's core
//!    tuples `C_J` carry), every element batched and no symbolic repair —
//!    and answer exactly as the reference;
//! 2. non-linear plans, Δ readers, and linear plans under a budget one
//!    below their count must keep the row path, and still answer (or fail)
//!    exactly as the reference.
//!
//! Every case within its budget runs at one and two pinned threads; the
//! over-budget cases run on one, because across shards early exit races
//! the budget and the outcome would depend on timing. `FUZZ_CASES` scales
//! the sweep as in the sibling harnesses; `FUZZ_CASES=1000` is the
//! acceptance-grade run.

use std::collections::{BTreeMap, BTreeSet};

use incomplete_data::prelude::*;
use incomplete_data::releval::worlds::valuation_domain;
use incomplete_data::relmodel::constraint::CompareOp;
use incomplete_data::relmodel::value::{Constant, NullId};
use incomplete_data::repairs::{
    factorized_repair_count, stream_consistent_answer, stream_consistent_answer_rows,
    ConflictGraph, RepairExecution, RepairOptions,
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

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }
}

/// `R(k, v)` keyed on `k` with `v = 13` denied, `T(k, v)` keyed on `k`, an
/// unconstrained `S(v, w)` that may hold nulls, and a clean, complete
/// `U(v, w)`.
fn schema() -> Schema {
    Schema::builder()
        .relation("R", &["k", "v"])
        .relation("T", &["k", "v"])
        .relation("S", &["v", "w"])
        .relation("U", &["v", "w"])
        .key("R", &["k"])
        .key("T", &["k"])
        .deny("R", "v", CompareOp::Eq, Constant::Int(FORBIDDEN))
        .build()
}

/// Which null layouts a database holds.
#[derive(Default)]
struct Layout {
    vertex_null: bool,
    shared_null: bool,
    core_null: bool,
    doomed_null: bool,
    two_nulls: bool,
}

/// A dirty database with nulls. Key 0 clashes in both `R` and `T`, so both
/// always hold conflict vertices. Each null layout is present or not by a
/// coin flip (the core null whenever no other is): a null in a vertex (`R(1, ⊥0)` against `R(1, c)`), the same
/// null in a vertex of a second clash (`R(2, ⊥0)` against `R(2, c)`), a
/// null in a core tuple (`R(3, ⊥1)`), a null only in a doomed tuple
/// (`R(⊥2, 13)`), and two nulls in one tuple (`S(⊥3, ⊥4)`, chained to
/// `T(5, ⊥3)`). A few complete keys of `R` clash one to three ways.
fn fuzz_db(seed: u64) -> (Database, Layout) {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut db = Database::new(schema());
    let mut layout = Layout::default();
    let domain = 3 + rng.below(3) as i64;
    let mut put = |rel: &str, values: Vec<Value>| {
        db.insert(rel, Tuple::new(values)).unwrap();
    };
    for rel in ["R", "T"] {
        put(rel, vec![Value::int(0), Value::int(0)]);
        put(rel, vec![Value::int(0), Value::int(1)]);
    }
    let c = |rng: &mut Rng| Value::int(rng.below(domain as u64) as i64);
    if rng.coin() {
        layout.vertex_null = true;
        put("R", vec![Value::int(1), Value::null(0)]);
        put("R", vec![Value::int(1), c(&mut rng)]);
        if rng.coin() {
            layout.shared_null = true;
            put("R", vec![Value::int(2), Value::null(0)]);
            put("R", vec![Value::int(2), c(&mut rng)]);
        }
    }
    if rng.coin() {
        layout.doomed_null = true;
        put("R", vec![Value::null(2), Value::int(FORBIDDEN)]);
    }
    if rng.coin() {
        layout.two_nulls = true;
        put("S", vec![Value::null(3), Value::null(4)]);
        put("T", vec![Value::int(5), Value::null(3)]);
    }
    // Every database holds a null.
    if rng.coin() || !(layout.vertex_null || layout.doomed_null || layout.two_nulls) {
        layout.core_null = true;
        put("R", vec![Value::int(3), Value::null(1)]);
    }
    for k in 6..(7 + rng.below(3) as i64) {
        for _ in 0..=rng.below(3) {
            let v = if rng.below(6) == 0 {
                Value::int(FORBIDDEN)
            } else {
                c(&mut rng)
            };
            put("R", vec![Value::int(k), v]);
        }
    }
    for _ in 0..(1 + rng.below(3)) {
        let (v, w) = (c(&mut rng), Value::int(100 + rng.below(3) as i64));
        put("S", vec![v.clone(), w.clone()]);
        put("U", vec![v, w]);
    }
    (db, layout)
}

/// Linear plans: every derivation reads at most one volatile row.
fn linear_queries(c: i64) -> Vec<String> {
    vec![
        format!("project[#1](select[#0 != {c}](R))"),
        format!("project[#0](select[#1 != {c}](R))"),
        "project[#3](select[#1 = #2](product(R, U)))".to_owned(),
        "(project[#1](R) union project[#1](T))".to_owned(),
        "(project[#1](R) minus project[#0](U))".to_owned(),
        "(project[#1](R) intersect project[#0](U))".to_owned(),
        "project[#0](S)".to_owned(),
        "(project[#0](S) union project[#1](R))".to_owned(),
        format!("project[#0](select[#1 = {c}](T))"),
    ]
}

/// Non-linear plans: some derivation may read two volatile rows, or an
/// operator the factorization cannot split reads one, or the plan reads Δ.
fn non_linear_queries(c: i64) -> Vec<String> {
    vec![
        "project[#1](select[#0 = #2](product(R, R)))".to_owned(),
        format!("(project[#1](R) minus project[#1](select[#0 = {c}](R)))"),
        "(project[#0](delta) minus project[#0](U))".to_owned(),
        "project[#0, #3](select[#1 = #2](product(R, T)))".to_owned(),
        "(project[#0](U) minus project[#1](R))".to_owned(),
    ]
}

/// What a brute force says of the joint components.
struct Joint {
    /// Each component's local repairs, as the number of nulls each one
    /// values: those of its tuples and of the component's core tuples.
    components: Vec<Vec<u32>>,
    /// Connected components of the conflict edges alone.
    edge_components: usize,
    /// Joint components holding a conflict vertex.
    with_vertices: usize,
}

/// The joint components, by a flood fill joining two conflict vertices that
/// share an edge, a vertex with each of its nulls, and the nulls of each
/// core tuple — independently of the fold's own union-find.
fn joint_components(db: &Database, graph: &ConflictGraph) -> Joint {
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
    let mut core_nulls = BTreeSet::new();
    for (_, rel) in graph.core(db).iter() {
        for tuple in rel.iter() {
            let ids: Vec<NullId> = tuple.null_ids().into_iter().collect();
            for &n in &ids {
                link(Node::Null(ids[0]), Node::Null(n));
            }
            core_nulls.extend(ids);
        }
    }
    let flood = |edges: &BTreeMap<Node, BTreeSet<Node>>, follow: &dyn Fn(Node) -> bool| {
        let mut seen = BTreeSet::new();
        let mut out: Vec<Vec<Node>> = Vec::new();
        for &start in edges.keys().filter(|&&n| follow(n)) {
            if !seen.insert(start) {
                continue;
            }
            let (mut members, mut stack) = (Vec::new(), vec![start]);
            while let Some(node) = stack.pop() {
                members.push(node);
                for &next in edges[&node].iter().filter(|&&n| follow(n)) {
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
            out.push(members);
        }
        out
    };
    let joint = flood(&edges, &|_| true);
    let edge_components = flood(&edges, &|n| matches!(n, Node::Vertex(_))).len();
    let components: Vec<Vec<u32>> = joint
        .iter()
        .map(|members| {
            let vertices: Vec<usize> = members
                .iter()
                .filter_map(|n| match n {
                    Node::Vertex(v) => Some(*v),
                    Node::Null(_) => None,
                })
                .collect();
            // A core tuple's nulls all sit in its component.
            let own_core_nulls = members.iter().filter_map(|n| match n {
                Node::Null(n) if core_nulls.contains(n) => Some(*n),
                _ => None,
            });
            let own_core_nulls: BTreeSet<NullId> = own_core_nulls.collect();
            local_repairs(graph, &vertices)
                .into_iter()
                .map(|mask| {
                    let mut nulls = own_core_nulls.clone();
                    for (i, &v) in vertices.iter().enumerate() {
                        if mask & (1 << i) != 0 {
                            nulls.extend(graph.vertices()[v].1.null_ids());
                        }
                    }
                    nulls.len() as u32
                })
                .collect()
        })
        .collect();
    let with_vertices = joint
        .iter()
        .filter(|members| members.iter().any(|n| matches!(n, Node::Vertex(_))))
        .count();
    Joint {
        components,
        edge_components,
        with_vertices,
    }
}

/// The maximal independent sets of the subgraph `members` spans, by brute
/// force over its vertex subsets: bit `i` of a set keeps `members[i]`.
fn local_repairs(graph: &ConflictGraph, members: &[usize]) -> Vec<u32> {
    assert!(members.len() <= 16, "component too large to brute-force");
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
        .collect()
}

fn answers(exec: &Result<RepairExecution, impl std::fmt::Display>) -> Result<Relation, String> {
    exec.as_ref()
        .map(|e| e.answers.clone())
        .map_err(|e| e.to_string())
}

#[test]
fn linear_plans_take_the_joint_fold_and_match_the_row_fold() {
    let (mut layouts, mut merged, mut factorized) = ([0u64; 5], 0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let (db, layout) = fuzz_db(seed);
        for (seen, present) in layouts.iter_mut().zip([
            layout.vertex_null,
            layout.shared_null,
            layout.core_null,
            layout.doomed_null,
            layout.two_nulls,
        ]) {
            *seen += u64::from(present);
        }
        let graph = ConflictGraph::build(&db);
        let joint = joint_components(&db, &graph);
        merged += u64::from(joint.with_vertices < joint.edge_components);
        let c = (seed % 4) as i64;
        for text in linear_queries(c) {
            let plan = parse_and_plan(&text, db.schema()).unwrap();
            let dom = valuation_domain(plan.expr(), &db, &Default::default()).len() as u128;
            let space: u128 = joint
                .components
                .iter()
                .flatten()
                .map(|&nulls| dom.pow(nulls))
                .sum();
            let count = factorized_repair_count(&plan, &db, &graph, &RepairOptions::default());
            assert_eq!(count, Some(space), "{text} (seed {seed}) over\n{db}");
            for threads in [1usize, 2] {
                let opts = RepairOptions::default().with_threads(threads);
                let exec = stream_consistent_answer(&plan, &db, &graph, &opts).unwrap();
                let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts).unwrap();
                let context = format!("{text} (seed {seed}, {threads} threads) over\n{db}");
                assert_eq!(exec.answers, rows.answers, "MISMATCH {context}");
                assert_eq!(
                    exec.components,
                    Some(joint.components.len()),
                    "a linear plan must fold the flood-filled components: {context}"
                );
                assert!(
                    (joint.components.len() as u128..=space).contains(&exec.repairs_visited),
                    "visited {} of a {space}-element space: {context}",
                    exec.repairs_visited
                );
                assert_eq!(exec.repairs_batched, exec.repairs_visited, "{context}");
                assert_eq!(exec.symbolic_repairs + exec.world_repairs, 0, "{context}");
                assert!(!exec.early_exit, "{context}");
                assert_eq!(exec.threads, threads, "{context}");
                factorized += 1;
            }
        }
    }
    let names = ["vertex", "shared", "core", "doomed", "two-null"];
    for (name, seen) in names.iter().zip(layouts) {
        assert!(seen > 0, "no database with a {name} null");
    }
    assert!(merged > 0, "no null ever merged two conflict components");
    assert!(factorized > 0);
}

#[test]
fn other_plans_and_over_count_inputs_keep_the_row_path() {
    let (mut over_count, mut non_linear) = (0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let (db, _) = fuzz_db(seed);
        let graph = ConflictGraph::build(&db);
        let c = (seed % 4) as i64;
        let mut cases: Vec<(String, RepairOptions)> = non_linear_queries(c)
            .into_iter()
            .map(|text| (text, RepairOptions::default()))
            .collect();
        // A linear plan one element over its budget.
        let text = linear_queries(c).swap_remove(seed as usize % 9);
        let plan = parse_and_plan(&text, db.schema()).unwrap();
        let count = factorized_repair_count(&plan, &db, &graph, &RepairOptions::default())
            .expect("a linear plan has a count");
        cases.push((text, RepairOptions::default().with_max_repairs(count - 1)));
        for (text, base) in cases {
            let plan = parse_and_plan(&text, db.schema()).unwrap();
            let over = base.max_repairs < RepairOptions::default().max_repairs;
            // Across shards, one fold may prove ∅ before another shard's
            // visits reach the budget, so the outcome of an over-budget
            // case would depend on timing: it runs on one thread.
            let threads: &[usize] = if over { &[1] } else { &[1, 2] };
            for &threads in threads {
                let opts = RepairOptions {
                    threads: Some(threads),
                    ..base
                };
                let exec = stream_consistent_answer(&plan, &db, &graph, &opts);
                let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts);
                let context = format!("{text} (seed {seed}, {threads} threads) over\n{db}");
                assert_eq!(answers(&exec), answers(&rows), "MISMATCH {context}");
                if let Ok(exec) = exec {
                    assert_eq!(exec.components, None, "must keep the row path: {context}");
                    assert_eq!(exec.repairs_batched, 0, "{context}");
                }
                if over {
                    over_count += 1;
                } else {
                    non_linear += 1;
                }
            }
        }
    }
    assert!(over_count > 0 && non_linear > 0);
}
