//! Differential fuzz harness for the factorized world fold.
//!
//! A plan that is *linear* in the relations holding marked nulls (every
//! derivation uses at most one row with a null), or a root difference of
//! two linear sides, is folded one null component at a time:
//! `Σ_K |dom|^|N_K|` component valuations per volatile side instead of the
//! `|dom|^|N|` whole worlds. This harness generates null-bearing databases
//! with several components — single-null tuples, two nulls sharing a
//! tuple, and a null repeated across two relations — and replays two
//! families of queries against `stream_certain_answer_rows`, which
//! materializes every whole world:
//!
//! 1. linear plans (σ/π, a join with a ground relation, ∪ of two
//!    null-bearing branches, − and ∩ with a ground side) and root
//!    differences (ground − linear, linear − linear, `π(R) − π(σ(R))`)
//!    must factorize — over exactly the components a flood fill finds,
//!    visiting at most the factorized space — and answer exactly as the
//!    reference;
//! 2. `R ⋈ R`, `R ∩ R`, `(A − B) − C` with a volatile `B`, Δ readers,
//!    OWA with one extension tuple, single-component databases and an
//!    over-budget factorized space must not factorize, and still answer
//!    exactly as the reference;
//! 3. a root difference `A − B` ends after its first whole world `v₀` when
//!    `A(v₀) − B(v₀) = ∅`; otherwise the possible side of `B` runs iff the
//!    certain `⋂ A` is nonempty.
//!
//! Every case runs at one and two pinned threads. `FUZZ_CASES` scales the
//! sweep as in the sibling harnesses; `FUZZ_CASES=1000` is the
//! acceptance-grade run.

use std::collections::{BTreeMap, BTreeSet};

use incomplete_data::prelude::*;
use incomplete_data::releval::exec::columnar::execute;
use incomplete_data::releval::worlds::{
    stream_certain_answer, stream_certain_answer_rows, valuation_domain, WorldExecution,
    WorldOptions,
};
use incomplete_data::releval::EvalError;
use incomplete_data::relmodel::valuation::Valuation;
use incomplete_data::relmodel::value::NullId;

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

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

/// Constants of the generated databases: `0 .. DOMAIN`.
const DOMAIN: u64 = 3;

/// `R(a, b)` and `S(a, b)` hold nulls; `T(a, b)` is ground.
fn schema() -> Schema {
    Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["a", "b"])
        .relation("T", &["a", "b"])
        .build()
}

/// A null-bearing database with several null components. Four layouts,
/// by seed: `R(⊥0, ⊥1)` (two nulls sharing a tuple) or `R(⊥0, c)` and
/// `R(c, ⊥1)`; a single-null `S(c, ⊥2)`; and, in two layouts, `⊥3` in both
/// `R` and `S`. Ground rows over three constants fill every relation.
fn fuzz_db(seed: u64) -> Database {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut db = Database::new(schema());
    let mut c = || Value::int(rng.below(DOMAIN) as i64);
    let layout = seed % 4;
    let mut rows = Vec::new();
    if layout % 2 == 1 {
        rows.push(("R", [Value::null(0), Value::null(1)]));
    } else {
        rows.push(("R", [Value::null(0), c()]));
        rows.push(("R", [c(), Value::null(1)]));
    }
    rows.push(("S", [c(), Value::null(2)]));
    if layout >= 2 {
        rows.push(("R", [Value::null(3), c()]));
        rows.push(("S", [Value::null(3), c()]));
    }
    for rel in ["R", "S", "T", "T"] {
        rows.push((rel, [c(), c()]));
        rows.push((rel, [c(), c()]));
    }
    for (rel, values) in rows {
        db.insert(rel, Tuple::new(values.to_vec())).unwrap();
    }
    db
}

/// A database whose nulls form one component: `R(⊥0, ⊥1)` and `S(⊥1, c)`.
fn single_component_db(seed: u64) -> Database {
    let mut db = fuzz_db(seed);
    for null in [0, 2, 3] {
        for rel in ["R", "S"] {
            let doomed: Vec<Tuple> = db
                .relation(rel)
                .unwrap()
                .iter()
                .filter(|t| t.null_ids().contains(&NullId(null)))
                .cloned()
                .collect();
            for t in doomed {
                db.relation_mut(rel).unwrap().remove(&t);
            }
        }
    }
    db.insert("R", Tuple::new(vec![Value::null(0), Value::null(1)]))
        .unwrap();
    db.insert("S", Tuple::new(vec![Value::null(1), Value::int(0)]))
        .unwrap();
    db
}

/// Queries that must factorize, each with its number of volatile sides
/// (the plan itself, or each side of a root difference that reads a null)
/// and of single elements: one per ground side, and the first whole world
/// a root difference evaluates before its sides.
fn factorizing_queries(c: i64) -> Vec<(String, u128, u128)> {
    vec![
        (format!("project[#1](select[#0 != {c}](R))"), 1, 0),
        (
            "project[#0, #3](select[#1 = #2](product(R, T)))".into(),
            1,
            0,
        ),
        ("(project[#0](R) union project[#1](S))".into(), 1, 0),
        ("(R minus T)".into(), 1, 0),
        ("(project[#1](R) intersect project[#0](T))".into(), 1, 0),
        ("(project[#0](T) minus project[#1](R))".into(), 1, 2),
        ("(project[#0](R) minus project[#0](S))".into(), 2, 1),
        (
            format!("(project[#0](R) minus project[#0](select[#1 = {c}](R)))"),
            2,
            1,
        ),
    ]
}

/// Queries that must keep the product fold on any database.
fn product_queries(c: i64) -> Vec<String> {
    vec![
        "project[#0, #3](select[#1 = #2](product(R, R)))".into(),
        "(R intersect R)".into(),
        "((project[#0](T) minus project[#0](R)) minus project[#1](S))".into(),
        "(project[#0](delta) minus project[#1](R))".into(),
        format!("(project[#0](T) minus project[#0](select[#0 = {c}](delta)))"),
    ]
}

/// The null components by a flood fill over "shares a tuple", sized by
/// their null counts, independently of the fold's own union-find.
fn flood_fill_components(db: &Database) -> Vec<usize> {
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

fn options(threads: usize) -> WorldOptions {
    WorldOptions {
        // One fresh constant keeps the row reference's world space small.
        extra_fresh: Some(1),
        threads: Some(threads),
        ..WorldOptions::default()
    }
}

/// The answers of the row reference, or its error.
fn reference(
    plan: &PlannedQuery,
    db: &Database,
    semantics: Semantics,
    opts: &WorldOptions,
) -> Result<Relation, String> {
    let mut opts = *opts;
    opts.threads = Some(1);
    stream_certain_answer_rows(plan, db, semantics, &opts)
        .map(|e| e.answers)
        .map_err(|e| e.to_string())
}

fn answers(exec: &Result<WorldExecution, EvalError>) -> Result<Relation, String> {
    exec.as_ref()
        .map(|e| e.answers.clone())
        .map_err(|e| e.to_string())
}

#[test]
fn factorized_world_fold_matches_the_product_row_fold() {
    let (mut factorized, mut runs_stopped) = (0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let components = flood_fill_components(&db);
        assert!(components.len() >= 2, "layout {seed} has one component");
        let c = (seed % DOMAIN) as i64;
        for (text, sides, singles) in factorizing_queries(c) {
            let plan = parse_and_plan(&text, db.schema()).unwrap();
            let expected = reference(&plan, &db, Semantics::Cwa, &options(1));
            let dom = valuation_domain(plan.expr(), &db, &options(1)).len() as u32;
            let space: u128 = components
                .iter()
                .map(|&n| (dom as u128).pow(n as u32))
                .sum::<u128>()
                * sides
                + singles;
            for threads in [1usize, 2] {
                let exec = stream_certain_answer(&plan, &db, Semantics::Cwa, &options(threads));
                let context = format!("{text} (seed {seed}, {threads} threads) over\n{db}");
                assert_eq!(answers(&exec), expected, "MISMATCH {context}");
                let exec = exec.unwrap();
                assert_eq!(
                    exec.components,
                    Some(components.len()),
                    "must factorize over the flood-filled components: {context}"
                );
                assert!(
                    exec.worlds_visited <= space,
                    "visited {} of a {space}-element factorized space: {context}",
                    exec.worlds_visited
                );
                assert_eq!(exec.worlds_batched, exec.worlds_visited, "{context}");
                assert_eq!(exec.threads, threads, "{context}");
                assert!(
                    !exec.early_exit || exec.answers.is_empty(),
                    "early exit on a nonempty answer: {context}"
                );
                factorized += 1;
                runs_stopped += u64::from(exec.worlds_visited < space);
            }
        }
    }
    assert!(factorized > 0);
    assert!(runs_stopped > 0, "no run ever stopped early");
}

/// In a root difference `A − B`, the fold first evaluates one whole world
/// `v₀` (every null valued to the domain's first constant) and ends there
/// when `A(v₀) − B(v₀) = ∅`. Otherwise the possible side of `B` runs iff
/// the certain `⋂ A` is nonempty: the fold visits exactly `v₀` and `A`'s
/// own elements when `⋂ A = ∅`, and more otherwise.
#[test]
fn the_possible_side_runs_iff_the_certain_side_is_nonempty() {
    let (mut first_world, mut skipped, mut ran) = (0u64, 0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let c = (seed % DOMAIN) as i64;
        let subtrahend = "project[#0](S)";
        for minuend in [
            format!("project[#0](select[#1 = {c}](R))"),
            "project[#0](R)".to_owned(),
        ] {
            let text = format!("({minuend} minus {subtrahend})");
            let plan = parse_and_plan(&text, db.schema()).unwrap();
            let left = parse_and_plan(&minuend, db.schema()).unwrap();
            let domain = |plan: &PlannedQuery| valuation_domain(plan.expr(), &db, &options(1));
            if domain(&plan) != domain(&left) {
                continue;
            }
            let first = domain(&plan)[0].clone();
            let v0 = Valuation::from_pairs(db.null_ids().into_iter().map(|n| (n, first.clone())));
            let world = db.apply(&v0).unwrap();
            let v0_empty = execute(plan.physical(), &world).is_empty();
            for threads in [1usize, 2] {
                let opts = options(threads);
                let exec = stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).unwrap();
                let certain = stream_certain_answer(&left, &db, Semantics::Cwa, &opts).unwrap();
                let context = format!("{text} (seed {seed}, {threads} threads) over\n{db}");
                assert!(exec.components.is_some() && certain.components.is_some());
                if v0_empty {
                    first_world += 1;
                    assert_eq!(exec.worlds_visited, 1, "{context}");
                    assert!(exec.answers.is_empty() && exec.early_exit, "{context}");
                } else if certain.answers.is_empty() {
                    skipped += 1;
                    assert_eq!(exec.worlds_visited, 1 + certain.worlds_visited, "{context}");
                    assert!(exec.answers.is_empty() && exec.early_exit, "{context}");
                } else {
                    ran += 1;
                    assert!(
                        exec.worlds_visited > 1 + certain.worlds_visited,
                        "{context}"
                    );
                }
            }
        }
    }
    assert!(
        first_world > 0 && skipped > 0 && ran > 0,
        "first world {first_world}, skipped {skipped}, ran {ran}"
    );
}

#[test]
fn product_shapes_keep_the_product_fold_and_match() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let single = single_component_db(seed);
        assert_eq!(flood_fill_components(&single).len(), 1);
        let c = (seed % DOMAIN) as i64;
        let mut cases: Vec<(String, &Database, Semantics, WorldOptions)> = Vec::new();
        for text in product_queries(c) {
            cases.push((text, &db, Semantics::Cwa, options(1)));
        }
        for (i, (text, _, _)) in factorizing_queries(c).into_iter().enumerate() {
            // One component: Σ_K equals the product.
            cases.push((text.clone(), &single, Semantics::Cwa, options(1)));
            // Extension tuples are not per-component choices. The row
            // reference pays for every extension of every world, so only
            // a linear plan and a linear − linear difference run this
            // case, on every eighth seed (a three-null layout).
            if seed % 8 == 0 && (i == 0 || i == 6) {
                let owa = WorldOptions {
                    max_owa_extra: 1,
                    ..options(1)
                };
                cases.push((text, &db, Semantics::Owa, owa));
            }
        }
        for (text, db, semantics, opts) in cases {
            let plan = parse_and_plan(&text, db.schema()).unwrap();
            let expected = reference(&plan, db, semantics, &opts);
            for threads in [1usize, 2] {
                let opts = WorldOptions {
                    threads: Some(threads),
                    ..opts
                };
                let exec = stream_certain_answer(&plan, db, semantics, &opts);
                let context =
                    format!("{text} ({semantics}, seed {seed}, {threads} threads) over\n{db}");
                assert_eq!(answers(&exec), expected, "MISMATCH {context}");
                assert_eq!(
                    exec.unwrap().components,
                    None,
                    "must keep the product fold: {context}"
                );
            }
        }
    }
}

#[test]
fn an_over_budget_factorized_space_keeps_the_product_fold() {
    for seed in 0..fuzz_cases() {
        let db = fuzz_db(seed);
        let components = flood_fill_components(&db);
        let text = "(project[#0](R) minus project[#0](S))";
        let plan = parse_and_plan(text, db.schema()).unwrap();
        let dom = valuation_domain(plan.expr(), &db, &options(1)).len() as u32;
        // The first whole world, then both sides.
        let space: u128 = 1 + 2 * components
            .iter()
            .map(|&n| (dom as u128).pow(n as u32))
            .sum::<u128>();
        // One element short of the factorized space: the product fold
        // runs, and may exit early or refuse at the budget, exactly as the
        // row reference does on one thread.
        let opts = WorldOptions {
            max_worlds: space - 1,
            ..options(1)
        };
        let exec = stream_certain_answer(&plan, &db, Semantics::Cwa, &opts);
        let rows = stream_certain_answer_rows(&plan, &db, Semantics::Cwa, &opts);
        let context = format!("{text} (seed {seed}, budget {}) over\n{db}", space - 1);
        assert_eq!(answers(&exec), answers(&rows), "MISMATCH {context}");
        if let (Ok(exec), Ok(rows)) = (&exec, &rows) {
            assert_eq!(exec.components, None, "{context}");
            assert_eq!(exec.worlds_visited, rows.worlds_visited, "{context}");
        }
        // At the space itself, the fold factorizes.
        let opts = WorldOptions {
            max_worlds: space,
            ..options(1)
        };
        let exec = stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).unwrap();
        assert_eq!(exec.components, Some(components.len()), "{context}");
    }
}
