//! The three workloads: generated inputs only, no timing.
//!
//! A workload is a list of databases (one service is set up over each), a
//! priming list the set-up runs, and one epoch's schedule of operations.
//! The runner repeats the schedule on freshly set-up services, so every
//! epoch sees exactly the same inputs.

use std::collections::HashSet;

use datagen::{
    random_division_query, random_full_ra_query, random_mixed_query, random_positive_query,
    QueryGenConfig,
};
use engine::{EngineOptions, Semantics};
use relalgebra::ast::RaExpr;
use relmodel::{Database, Schema, Tuple, Value};

use crate::render::render;

/// The workloads, by the names the command line takes.
pub const NAMES: [&str; 3] = ["adhoc_certain", "serve_rw", "enumerate_exact"];

/// How a read's answer is checked, outside the timed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Against a direct `Engine` on the same database version.
    Engine,
    /// Against the row-materializing repair fold.
    RepairRows,
    /// Against the row-instantiating world fold.
    WorldRows,
}

/// One request of the closed-loop client. (Reads dwarf writes, but a
/// schedule is built once and read in order, so boxing would buy nothing.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Op {
    /// `submit_with` on service `target`.
    Read {
        target: usize,
        class: &'static str,
        text: String,
        semantics: Semantics,
        options: EngineOptions,
        check: Check,
    },
    /// `update` on service `target`, inserting one tuple.
    Write {
        target: usize,
        relation: &'static str,
        tuple: Tuple,
    },
}

impl Op {
    /// The request class the metrics group this operation under.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Read { class, .. } => class,
            Op::Write { .. } => "write",
        }
    }
}

/// Generated inputs of one workload.
pub struct Workload {
    /// One database per service.
    pub databases: Vec<Database>,
    /// Reads run during set-up, to fill the caches and build the lazy
    /// conflict graph.
    pub primes: Vec<Op>,
    /// One epoch's operations, in order.
    pub ops: Vec<Op>,
}

/// Builds workload `name` from `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "adhoc_certain" => Some(adhoc_certain(seed)),
        "serve_rw" => Some(serve_rw(seed)),
        "enumerate_exact" => Some(enumerate_exact(seed)),
        _ => None,
    }
}

/// SplitMix64: a small, seedable generator for the benchmark's own choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn read(target: usize, class: &'static str, text: String, semantics: Semantics) -> Op {
    Op::Read {
        target,
        class,
        text,
        semantics,
        options: EngineOptions::default(),
        check: Check::Engine,
    }
}

// ---------------------------------------------------------------------------
// adhoc_certain
// ---------------------------------------------------------------------------

/// Tuples per relation of `R(a, b)`, `S(a)`, `T(a, b)`.
const ADHOC_TUPLES: usize = 100;
/// Constants values and query constants are drawn from.
const ADHOC_DOMAIN: u64 = 20;
/// Every `ADHOC_NULL_EVERY`-th tuple of `R` holds a marked null.
const ADHOC_NULL_EVERY: usize = 10;
/// Distinct marked nulls in `R`: more than the engine's default `max_nulls`
/// (8), so a symbolic punt degrades to the approximation, never to world
/// enumeration.
const ADHOC_NULLS: u64 = 10;
/// Seed of the fixed database.
const ADHOC_DATABASE_SEED: u64 = 0x5eed;
/// Requests per epoch; every one is a distinct query text.
const ADHOC_OPS: usize = 10000;
/// Class of request `i` is `ADHOC_MIX[i % 10]`.
const ADHOC_MIX: [&str; 10] = [
    "positive", "positive", "positive", "positive", "division", "division", "full_ra", "full_ra",
    "mixed", "mixed",
];

/// The consistent, null-bearing database: `R(a, b)`, `S(a)`, `T(a, b)` over
/// the generators' vocabulary, where every `ADHOC_NULL_EVERY`-th tuple of
/// `R` carries a null (in `b`, or in `a` on alternate ones) cycling through
/// `ADHOC_NULLS` nulls, and `S` and `T` are null-free, so mixed queries
/// have a ground core the analyzer can split off.
fn adhoc_database(rng: &mut Rng) -> Database {
    let mut db = Database::new(datagen::random::random_schema());
    let constant = |rng: &mut Rng| Value::int(rng.below(ADHOC_DOMAIN) as i64);
    for i in 0..ADHOC_TUPLES {
        let (mut a, mut b) = (constant(rng), constant(rng));
        if i % ADHOC_NULL_EVERY == 0 {
            let null = Value::null((i / ADHOC_NULL_EVERY) as u64 % ADHOC_NULLS);
            if (i / ADHOC_NULL_EVERY).is_multiple_of(2) {
                b = null;
            } else {
                a = null;
            }
        }
        db.insert("R", Tuple::new(vec![a, b]))
            .expect("R tuples match the schema");
        db.insert("S", Tuple::new(vec![constant(rng)]))
            .expect("S tuples match the schema");
        db.insert("T", Tuple::new(vec![constant(rng), constant(rng)]))
            .expect("T tuples match the schema");
    }
    db
}

/// Distinct texts of the four generator classes, one block of ten in five
/// under OWA and the rest under CWA.
fn adhoc_certain(seed: u64) -> Workload {
    // One fixed database: which requests punt to the approximation, and how
    // long the solver works before it does, swings with the data, and that
    // swing would drown a change in the code. The seed varies the queries.
    let db = adhoc_database(&mut Rng::new(ADHOC_DATABASE_SEED));
    let mut rng = Rng::new(seed);
    let schema = db.schema().clone();
    // The set-up primes the caches with point lookups on every column and
    // constant; generated selections always start with `true and`, so no
    // primed text is ever scheduled.
    let mut primes = Vec::new();
    for relation in schema.iter() {
        for c in 0..relation.arity() {
            for v in 0..ADHOC_DOMAIN {
                let text = format!("project[#{c}](select[#{c} = {v}]({}))", relation.name);
                primes.push(read(0, "prime", text, Semantics::Cwa));
            }
        }
    }
    let mut seen: HashSet<String> = primes
        .iter()
        .map(|op| match op {
            Op::Read { text, .. } => text.clone(),
            Op::Write { .. } => unreachable!("primes are reads"),
        })
        .collect();
    let ops = (0..ADHOC_OPS)
        .map(|i| {
            let class = ADHOC_MIX[i % ADHOC_MIX.len()];
            let semantics = if (i / ADHOC_MIX.len()) % 5 == 4 {
                Semantics::Owa
            } else {
                Semantics::Cwa
            };
            let text = loop {
                let q = adhoc_query(class, &schema, &mut rng);
                let text = render(&q).expect("generated queries have query-language syntax");
                if seen.insert(text.clone()) {
                    break text;
                }
            };
            Op::Read {
                target: 0,
                class,
                text,
                semantics,
                options: EngineOptions::default(),
                check: Check::Engine,
            }
        })
        .collect();
    Workload {
        databases: vec![db],
        primes,
        ops,
    }
}

fn adhoc_query(class: &str, schema: &Schema, rng: &mut Rng) -> RaExpr {
    // Full-RA blocks stay single-atom and single-disjunct: a difference of
    // cross products or wide unions over the null-bearing `R` costs the
    // symbolic solver and the approximation up to hundreds of
    // milliseconds each, so a handful of requests would be the whole run.
    let (max_atoms, max_union) = if class == "full_ra" { (1, 1) } else { (2, 2) };
    let config = |rng: &mut Rng| QueryGenConfig {
        max_atoms,
        max_union,
        constant_pool: ADHOC_DOMAIN as i64,
        seed: rng.next_u64(),
    };
    match class {
        "positive" => random_positive_query(schema, &config(rng)),
        // The division generator alone has a few dozen distinct outputs;
        // a positive disjunct keeps the class (RA_cwa) and the texts
        // distinct.
        "division" => random_division_query(schema, &config(rng))
            .union(random_positive_query(schema, &config(rng))),
        "full_ra" => random_full_ra_query(schema, &config(rng)),
        "mixed" => random_mixed_query(schema, &config(rng)),
        _ => unreachable!("unknown adhoc class {class}"),
    }
}

// ---------------------------------------------------------------------------
// serve_rw
// ---------------------------------------------------------------------------

/// Rows of `R(a, b)` and of `S(b, c)`.
const SERVE_ROWS: usize = 4000;
/// Share of positions holding a null, in percent.
const SERVE_NULL_RATE: u32 = 1;
/// Parameterised join queries in the pool (the result cache holds 4096).
const SERVE_POOL: usize = 256;
/// Zipf exponent of the read distribution over the pool: YCSB's Zipfian
/// constant.
const SERVE_ZIPF: f64 = 0.99;
/// Reads between two one-tuple updates: YCSB workload B's 95% reads and 5%
/// updates.
const SERVE_READS_PER_WRITE: usize = 19;
/// Update cycles per epoch: enough that one epoch's hits and writes alone
/// carry the hit p99 and the write p95.
const SERVE_CYCLES: usize = 300;

/// Skewed repeated reads of a fixed pool of join queries over a large,
/// mostly ground database, with a one-tuple insert every
/// `SERVE_READS_PER_WRITE` reads.
fn serve_rw(seed: u64) -> Workload {
    let db = datagen::random_database_with_null_rate(SERVE_ROWS, SERVE_NULL_RATE, seed);
    let mut rng = Rng::new(seed);
    let rows = SERVE_ROWS as u64;
    let pool: Vec<String> = (0..SERVE_POOL)
        .map(|i| {
            let k = rng.below(rows);
            match i % 4 {
                0 => format!("project[#0](select[(#1 = #2) and (#0 = {k})](product(R, S)))"),
                1 => format!(
                    "project[#3](select[(#1 = #2) and (#3 = {})](product(R, S)))",
                    2 * k
                ),
                2 => format!("project[#0, #3](select[(#1 = #2) and (#2 = {k})](product(R, S)))"),
                _ => format!(
                    "(project[#0](select[(#1 = #2) and (#0 = {k})](product(R, S))) \
                     union project[#1](select[#0 = {k}](S)))"
                ),
            }
        })
        .collect();
    // Rank r of a seeded permutation of the pool is read with probability
    // proportional to 1 / (r + 1)^SERVE_ZIPF.
    let mut order: Vec<usize> = (0..SERVE_POOL).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let weights: Vec<f64> = (0..SERVE_POOL)
        .map(|r| 1.0 / ((r + 1) as f64).powf(SERVE_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(SERVE_POOL);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut ops = Vec::new();
    for cycle in 0..SERVE_CYCLES {
        for _ in 0..SERVE_READS_PER_WRITE {
            let u = rng.unit();
            let rank = cdf.partition_point(|&c| c < u).min(SERVE_POOL - 1);
            let text = pool[order[rank]].clone();
            ops.push(read(0, "join", text, Semantics::Cwa));
        }
        // A fresh key joining an existing S row: some cached answers change.
        let a = (rows + cycle as u64) as i64;
        let b = rng.below(rows) as i64;
        ops.push(Op::Write {
            target: 0,
            relation: "R",
            tuple: Tuple::ints(&[a, b]),
        });
    }
    let primes = pool
        .iter()
        .map(|text| read(0, "join", text.clone(), Semantics::Cwa))
        .collect();
    Workload {
        databases: vec![db],
        primes,
        ops,
    }
}

// ---------------------------------------------------------------------------
// enumerate_exact
// ---------------------------------------------------------------------------

/// Rows of the complete dirty `R`.
const CQA_COMPLETE_ROWS: usize = 1000;
/// Key clashes in the complete dirty `R`: 2^10 = 1024 repairs (Moon–Moser
/// estimate for 20 conflict tuples: 1458, inside the 4096 budget).
const CQA_COMPLETE_CLASHES: usize = 10;
/// Rows of the null-bearing dirty `R`.
const CQA_NULLS_ROWS: usize = 40;
/// Key clashes in the null-bearing dirty `R`: 16 repairs.
const CQA_NULLS_CLASHES: usize = 3;
/// Distinct nulls in the null-bearing dirty `R`.
const CQA_NULLS_NULLS: u64 = 4;
/// Rows per relation of the world-enumeration database.
const WORLDS_ROWS: usize = 60;
/// Constants of the world-enumeration database.
const WORLDS_DOMAIN: u64 = 6;
/// Distinct nulls of the world-enumeration database (at most 8).
const WORLDS_NULLS: u64 = 3;
/// Seed of the fixed databases.
const ENUM_DATABASE_SEED: u64 = 0xe0e0;
/// Requests per epoch of each part, in schedule order.
const ENUM_COMPLETE_OPS: usize = 4;
const ENUM_NULLS_OPS: usize = 3;
const ENUM_WORLDS_OPS: usize = 6;

/// `R(a, b)` keyed on `a` and an unconstrained `T(a, b)`.
fn keyed_schema() -> Schema {
    Schema::builder()
        .relation("R", &["a", "b"])
        .relation("T", &["a", "b"])
        .key("R", &["a"])
        .build()
}

/// A dirty database: `rows` tuples `R(i, f(i))`, `clashes` of whose keys
/// get a second, conflicting payload, and a clean `T` to join with. With
/// `nulls > 0`, every tenth payload is a marked null, cycling through that
/// many; the seed picks the constants, never the shape.
fn dirty_database(rows: usize, clashes: usize, nulls: u64, rng: &mut Rng) -> Database {
    let mut db = Database::new(keyed_schema());
    let domain = (rows / 4).max(4) as u64;
    for i in 0..rows as i64 {
        let payload = if nulls > 0 && i % 10 == 5 {
            Value::null((i as u64 / 10) % nulls)
        } else {
            Value::int(rng.below(domain) as i64)
        };
        let r = Tuple::new(vec![Value::int(i), payload]);
        db.insert("R", r).expect("R tuples match the schema");
        let t = Tuple::ints(&[rng.below(domain) as i64, i]);
        db.insert("T", t).expect("T tuples match the schema");
    }
    // Clash keys are spread over the key range; each clash payload is a
    // constant outside the domain, so it differs from the original.
    for c in 0..clashes {
        let key = (c * rows / clashes) as i64;
        let clash = Tuple::ints(&[key, domain as i64 + c as i64]);
        db.insert("R", clash).expect("R tuples match the schema");
    }
    db
}

/// A null-bearing, constraint-free database for world enumeration:
/// `R(a, b)` and `T(a, b)` over a small domain, `nulls` distinct nulls.
fn worlds_database(rows: usize, nulls: u64, rng: &mut Rng) -> Database {
    let schema = Schema::builder()
        .relation("R", &["a", "b"])
        .relation("T", &["a", "b"])
        .build();
    let mut db = Database::new(schema);
    let domain = WORLDS_DOMAIN;
    let mut placed = 0;
    for i in 0..rows {
        for rel in ["R", "T"] {
            let a = Value::int(rng.below(domain) as i64);
            // The first `nulls` tuples of R carry one null each, so the
            // database holds exactly `nulls` distinct nulls.
            let b = if rel == "R" && placed < nulls {
                placed += 1;
                Value::null(placed - 1)
            } else {
                Value::int(((i as u64 + rng.below(domain)) % domain) as i64)
            };
            db.insert(rel, Tuple::new(vec![a, b]))
                .expect("tuples match the schema");
        }
    }
    db
}

/// A consistent-answer query whose answer is empty in every repair.
const EMPTY_CQA: &str = "project[#0](select[#0 = -1](R))";
/// A full-RA query whose answer is empty in every world.
const EMPTY_WORLDS: &str = "(project[#0](select[#0 = -1](R)) minus project[#0](T))";

/// Consistent-answer query templates over a dirty `R`/`T`; `k` varies the
/// text. None empties early, so every query folds every repair.
fn cqa_query(template: usize, k: u64) -> String {
    match template % 3 {
        0 => format!("project[#0](select[#1 != {k}](R))"),
        1 => format!("project[#0](select[(#1 = #2) and (#3 != {k})](product(R, T)))"),
        _ => format!("(project[#0](R) minus project[#0](select[#0 = {k}](T)))"),
    }
}

/// Query templates for world enumeration; `k` varies the text. With `k`
/// outside the database's constants the differences subtract a small set
/// and the join's filter keeps every row, so the certain answer stays
/// non-empty and the fold visits every world: with early exit, parallel
/// workers may visit a varying number of worlds before stopping, and the
/// counts would not repeat. The join's build side, the ground `T`, is the
/// same in every world, so the split executor can reuse its hash table.
fn worlds_query(template: usize, k: u64) -> String {
    match template % 3 {
        0 => format!("(project[#0](R) minus project[#0](select[#1 = {k}](R)))"),
        1 => format!("(project[#1](T) minus project[#1](select[#0 = {k}](R)))"),
        _ => format!("project[#0](select[(#1 = #2) and (#3 != {k})](product(R, T)))"),
    }
}

/// Exact answers that need enumeration, in three fixed parts: consistent
/// answers over a complete dirty database (the survival-mask fold), over a
/// null-bearing dirty database (the row fold), and ground-truth world
/// enumeration over a database with at most 8 nulls.
fn enumerate_exact(seed: u64) -> Workload {
    // Fixed databases, as for adhoc_certain: the seed varies the queries.
    let mut data = Rng::new(ENUM_DATABASE_SEED);
    let complete = dirty_database(CQA_COMPLETE_ROWS, CQA_COMPLETE_CLASHES, 0, &mut data);
    let nulls = dirty_database(
        CQA_NULLS_ROWS,
        CQA_NULLS_CLASHES,
        CQA_NULLS_NULLS,
        &mut data,
    );
    let worlds = worlds_database(WORLDS_ROWS, WORLDS_NULLS, &mut data);
    let mut rng = Rng::new(seed);
    let consistent = |target, class, text| Op::Read {
        target,
        class,
        text,
        semantics: Semantics::ConsistentAnswers,
        options: EngineOptions::default(),
        check: Check::RepairRows,
    };
    let world = |text| Op::Read {
        target: 2,
        class: "worlds",
        text,
        semantics: Semantics::Cwa,
        options: EngineOptions::exhaustive().without_symbolic(),
        check: Check::WorldRows,
    };
    // Priming builds each conflict graph and warms each path with a query
    // whose answer is empty, so its fold stops after one repair or world;
    // no scheduled text repeats it.
    let primes = vec![
        consistent(0, "repairs_complete", EMPTY_CQA.to_owned()),
        consistent(1, "repairs_nulls", EMPTY_CQA.to_owned()),
        world(EMPTY_WORLDS.to_owned()),
    ];
    // Texts are distinct per service, so every scheduled read is a miss.
    let mut seen: [HashSet<String>; 3] = Default::default();
    let mut fresh = |target: usize, query: &dyn Fn(u64) -> String| loop {
        let text = query(rng.below(1000));
        if seen[target].insert(text.clone()) {
            return text;
        }
    };
    let mut ops = Vec::new();
    let parts = ENUM_COMPLETE_OPS.max(ENUM_NULLS_OPS).max(ENUM_WORLDS_OPS);
    for i in 0..parts {
        if i < ENUM_COMPLETE_OPS {
            let text = fresh(0, &|k| cqa_query(i, k));
            ops.push(consistent(0, "repairs_complete", text));
        }
        if i < ENUM_NULLS_OPS {
            // The join template only. Per repair, a difference over nulls
            // is itself a certain-answer problem whose cost swings with the
            // data, which would make this part's tail the seed's accident;
            // the selection template costs a tenth of the join and would
            // put the run's median on the boundary between two classes.
            let text = fresh(1, &|k| cqa_query(1, k));
            ops.push(consistent(1, "repairs_nulls", text));
        }
        if i < ENUM_WORLDS_OPS {
            // Constants above every value in the database: no subtracted
            // set can cover the answer, so no world fold exits early.
            ops.push(world(fresh(2, &|k| worlds_query(i, WORLDS_DOMAIN + k))));
        }
    }
    Workload {
        databases: vec![complete, nulls, worlds],
        primes,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(w: &Workload) -> Vec<String> {
        w.primes
            .iter()
            .chain(&w.ops)
            .map(|op| match op {
                Op::Read { text, .. } => text.clone(),
                Op::Write { tuple, .. } => format!("{tuple:?}"),
            })
            .collect()
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        for name in NAMES {
            let a = build(name, 7).expect("known workload");
            let b = build(name, 7).expect("known workload");
            assert_eq!(a.databases, b.databases, "{name}");
            assert_eq!(texts(&a), texts(&b), "{name}");
            let c = build(name, 8).expect("known workload");
            assert_ne!(texts(&a), texts(&c), "{name}");
        }
        assert!(build("nope", 7).is_none());
    }

    #[test]
    fn adhoc_texts_are_distinct_and_stay_out_of_world_enumeration() {
        let w = adhoc_certain(3);
        let all = texts(&w);
        let distinct: HashSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
        assert!(w.databases[0].null_ids().len() > EngineOptions::default().max_nulls);
    }

    #[test]
    fn enumeration_inputs_fit_their_budgets() {
        let w = enumerate_exact(3);
        let budget = EngineOptions::default().repair_options.max_repairs;
        for db in &w.databases[..2] {
            let graph = repairs::ConflictGraph::build(db);
            assert!(!graph.is_conflict_free());
            assert!(graph.estimated_repairs() <= budget);
        }
        assert!(w.databases[0].is_complete());
        assert!(!w.databases[1].is_complete());
        assert!(w.databases[2].null_ids().len() <= EngineOptions::default().max_nulls);
    }
}
