//! Streaming vs materializing possible-world ground truth (`cargo bench`).
//!
//! The certain-answer oracle used to materialize every possible world into a
//! `Vec<Database>` before evaluating anything: memory = worlds × database
//! size, wall-clock = the full `|domain|^|nulls|` enumeration every time.
//! The streaming engine folds the intersection world-by-world, shards the
//! valuation space across threads, and exits early the moment the running
//! intersection empties. This bench quantifies all three effects on a
//! multi-null workload:
//!
//! * `materializing` — the old path, reconstructed from the (retained)
//!   enumeration API: collect all worlds, then evaluate and intersect;
//! * `streaming/T` — the streaming fold at T worker threads, on a query
//!   whose certain answer stays non-empty (no early exit: the comparison is
//!   enumeration against enumeration);
//! * `early-exit` — a query with an empty certain answer, where streaming
//!   stops after a handful of worlds and materializing cannot stop at all;
//! * `factorized_vs_product` — a linear query over several null components
//!   folded one component at a time, against `Q ∩ Q` (the same answer, but
//!   not linear) folded over the whole valuation product, gated at ≥10x.
//!
//! Each measurement is also emitted as a machine-readable `BENCH {…}` json
//! line so CI can scrape results. `BENCH_SMOKE=1` shrinks the workload and
//! the per-bench time budget so the whole binary finishes in seconds — that
//! mode exists purely to keep the harness from bit-rotting.

use std::time::Duration;

use bench::harness::{fmt_duration, measure, Measurement};
use datagen::{random_database, RandomDbConfig};
use relalgebra::ast::RaExpr;
use relalgebra::plan::PlannedQuery;
use releval::complete::eval_complete;
use releval::worlds::{
    enumerate_worlds, stream_certain_answer, stream_certain_answer_rows, WorldOptions,
};
use relmodel::{Database, Relation, Schema, Semantics, Tuple, Value};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn opts_with_threads(threads: usize) -> WorldOptions {
    WorldOptions {
        // One fresh constant keeps the valuation domain (and so the world
        // count) at a size both paths can enumerate exhaustively.
        extra_fresh: Some(1),
        threads: Some(threads),
        ..WorldOptions::default()
    }
}

fn emit(experiment: &str, mode: &str, threads: usize, worlds: u128, m: &Measurement) {
    println!(
        "BENCH {{\"bench\":\"worlds\",\"experiment\":\"{experiment}\",\"mode\":\"{mode}\",\
         \"threads\":{threads},\"worlds\":{worlds},\"median_ns\":{},\"min_ns\":{},\"iters\":{}}}",
        m.median.as_nanos(),
        m.min.as_nanos(),
        m.iters
    );
}

/// The old materializing oracle, reconstructed: collect every world, then
/// evaluate the query in each and intersect.
fn materializing_certain(q: &RaExpr, db: &Database, opts: &WorldOptions) -> Relation {
    let worlds = enumerate_worlds(q, db, Semantics::Cwa, opts).expect("within budget");
    worlds
        .iter()
        .map(|w| eval_complete(q, w).expect("worlds are complete"))
        .reduce(|a, b| a.intersection(&b))
        .expect("at least one world")
}

fn main() {
    let smoke = smoke();
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    let db = random_database(&RandomDbConfig {
        tuples_per_relation: 8,
        domain_size: 4,
        distinct_nulls: if smoke { 4 } else { 6 },
        null_rate_percent: 30,
        seed: 42,
    });

    // A query whose certain answer is pinned non-empty by a literal tuple
    // over an existing constant: the intersection never empties, so early
    // exit never fires and both paths enumerate the same world space. It
    // reads R twice (`R ∩ R`), so it is not linear and the streaming fold
    // enumerates whole worlds rather than one null component at a time.
    let pinned = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[0])])).union(
        RaExpr::relation("R")
            .intersection(RaExpr::relation("R"))
            .project(vec![0]),
    );
    let plan = PlannedQuery::new(pinned.clone(), db.schema()).expect("query typechecks");
    let opts = opts_with_threads(1);
    let worlds = enumerate_worlds(&pinned, &db, Semantics::Cwa, &opts)
        .expect("within budget")
        .len() as u128;
    let exec = stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).expect("streams");
    assert!(!exec.early_exit, "the pinned query must not early-exit");
    assert_eq!(exec.components, None, "the pinned query enumerates worlds");
    assert_eq!(
        exec.answers,
        materializing_certain(&pinned, &db, &opts),
        "streaming and materializing must agree before being compared"
    );
    let full_space = exec.worlds_visited;

    println!("## worlds_streaming_vs_materializing");
    println!(
        "workload: {} nulls, {full_space} valuations, {worlds} distinct worlds",
        db.null_ids().len()
    );
    println!(
        "{:<16}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );

    let mat = measure("materializing", budget, || {
        materializing_certain(&pinned, &db, &opts)
    });
    emit(
        "streaming_vs_materializing",
        "materializing",
        1,
        full_space,
        &mat,
    );
    println!(
        "{:<16}  {:>12}  {:>12}  {:>9}",
        "materializing",
        fmt_duration(mat.median),
        fmt_duration(mat.min),
        mat.iters
    );

    let mut best_stream = None;
    for threads in [1usize, 2, 4, 8] {
        let opts = opts_with_threads(threads);
        let m = measure(format!("streaming/{threads}"), budget, || {
            stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).expect("streams")
        });
        emit("thread_scaling", "streaming", threads, full_space, &m);
        println!(
            "{:<16}  {:>12}  {:>12}  {:>9}",
            format!("streaming/{threads}"),
            fmt_duration(m.median),
            fmt_duration(m.min),
            m.iters
        );
        let ns = m.median.as_nanos();
        if best_stream.is_none_or(|(_, b)| ns < b) {
            best_stream = Some((threads, ns));
        }
    }
    let (best_threads, best_ns) = best_stream.expect("at least one streaming config");
    let speedup = mat.median.as_nanos() as f64 / best_ns.max(1) as f64;
    println!(
        "\nstreaming/{best_threads} vs materializing: {speedup:.2}x \
         (target: streaming+parallel beats materializing on this multi-null workload)"
    );
    println!(
        "BENCH {{\"bench\":\"worlds\",\"experiment\":\"summary\",\"best_threads\":{best_threads},\
         \"speedup_vs_materializing\":{speedup:.3}}}"
    );

    // Early exit: a certainly-empty difference stops streaming after a
    // handful of worlds; materializing has no way to stop.
    let empty_q = RaExpr::relation("R")
        .project(vec![0])
        .difference(RaExpr::relation("R").project(vec![0]));
    let empty_plan = PlannedQuery::new(empty_q.clone(), db.schema()).expect("typechecks");
    let opts = opts_with_threads(1);
    let exec = stream_certain_answer(&empty_plan, &db, Semantics::Cwa, &opts).expect("streams");
    assert!(exec.early_exit && exec.answers.is_empty());
    let mat_empty = measure("early/materializing", budget, || {
        materializing_certain(&empty_q, &db, &opts)
    });
    let stream_empty = measure("early/streaming", budget, || {
        stream_certain_answer(&empty_plan, &db, Semantics::Cwa, &opts).expect("streams")
    });
    emit("early_exit", "materializing", 1, full_space, &mat_empty);
    emit(
        "early_exit",
        "streaming",
        1,
        exec.worlds_visited,
        &stream_empty,
    );
    println!(
        "\n## early_exit (certain answer = ∅)\nmaterializing visits {full_space} worlds in {}, \
         streaming visits {} in {}",
        fmt_duration(mat_empty.median),
        exec.worlds_visited,
        fmt_duration(stream_empty.median)
    );

    batched_vs_rows(smoke, budget);
    factorized_vs_product(smoke, budget);
}

/// A linear query over single-null tuples, against the same answer read
/// twice: `Q = {0} ∪ π₀(R)` folds `nulls · |dom|` component valuations,
/// while `Q ∩ Q` is not linear and folds all `|dom|^nulls` worlds. The
/// literal pins both answers non-empty, so neither fold stops early.
/// Gated at ≥10x wall-clock, in `BENCH_SMOKE` too.
fn factorized_vs_product(smoke: bool, budget: Duration) {
    let nulls = if smoke { 5 } else { 6 };
    let schema = Schema::builder().relation("R", &["a", "b"]).build();
    let mut db = Database::new(schema);
    for i in 0..4 {
        db.insert("R", Tuple::ints(&[i, i])).expect("fits schema");
    }
    for n in 0..nulls {
        let row = Tuple::new(vec![Value::null(n), Value::int(n as i64 % 4)]);
        db.insert("R", row).expect("fits schema");
    }
    let q = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[0])]))
        .union(RaExpr::relation("R").project(vec![0]));
    let linear = PlannedQuery::new(q.clone(), db.schema()).expect("typechecks");
    let doubled = PlannedQuery::new(q.clone().intersection(q), db.schema()).expect("typechecks");
    let opts = opts_with_threads(1);

    let factorized = stream_certain_answer(&linear, &db, Semantics::Cwa, &opts).expect("streams");
    let product = stream_certain_answer(&doubled, &db, Semantics::Cwa, &opts).expect("streams");
    assert_eq!(factorized.components, Some(nulls as usize));
    assert_eq!(product.components, None, "Q ∩ Q is not linear");
    assert_eq!(
        factorized.answers, product.answers,
        "the two folds must agree"
    );
    assert!(!factorized.early_exit && !product.early_exit);

    println!(
        "\n## factorized_vs_product ({nulls} null components, {} component valuations \
         vs {} worlds)",
        factorized.worlds_visited, product.worlds_visited
    );
    let m_factorized = measure("factorized/1", budget, || {
        stream_certain_answer(&linear, &db, Semantics::Cwa, &opts).expect("streams")
    });
    let m_product = measure("product/1", budget, || {
        stream_certain_answer(&doubled, &db, Semantics::Cwa, &opts).expect("streams")
    });
    emit(
        "factorized_vs_product",
        "factorized",
        1,
        factorized.worlds_visited,
        &m_factorized,
    );
    emit(
        "factorized_vs_product",
        "product",
        1,
        product.worlds_visited,
        &m_product,
    );
    let speedup = m_product.median.as_nanos() as f64 / m_factorized.median.as_nanos().max(1) as f64;
    println!(
        "factorized {} vs product {}: {speedup:.1}x",
        fmt_duration(m_factorized.median),
        fmt_duration(m_product.median)
    );
    println!(
        "BENCH {{\"bench\":\"worlds\",\"experiment\":\"factorized_vs_product_summary\",\
         \"components\":{nulls},\"component_valuations\":{},\"worlds\":{},\
         \"speedup_factorized_vs_product\":{speedup:.3}}}",
        factorized.worlds_visited, product.worlds_visited
    );
    assert!(
        speedup >= 10.0,
        "acceptance: folding each null component's valuations must beat the \
         valuation product ≥10x on the no-early-exit workload (got {speedup:.1}x)"
    );
}

/// `R(a,b) ⋈ S(b,c)` with `n` ground rows per side and a single marked null
/// in `R`: the world space is `|domain|` valuations of that one null, and
/// every world shares the all-ground join. The row fold re-clones and
/// re-joins everything per world; the batched fold joins the ground run
/// once per shard and re-probes only the valued row.
fn join_with_one_null(n: usize) -> Database {
    let schema = Schema::builder()
        .relation("R", &["a", "b"])
        .relation("S", &["b", "c"])
        .build();
    let mut db = Database::new(schema);
    for i in 0..n as i64 {
        db.insert("R", Tuple::ints(&[i, i])).expect("fits schema");
        db.insert("S", Tuple::ints(&[i, 2 * i]))
            .expect("fits schema");
    }
    db.insert("R", Tuple::new(vec![Value::null(0), Value::int(0)]))
        .expect("fits schema");
    db
}

/// The acceptance sweep: the batched split-executor fold against the
/// row-instantiating reference on a no-early-exit workload, gated at ≥10x.
/// Also emits the shard-level hash-table reuse rate, which is what buys the
/// speedup: build-side tables over all-ground runs are built once per shard.
fn batched_vs_rows(smoke: bool, budget: Duration) {
    let n = if smoke { 80 } else { 400 };
    let db = join_with_one_null(n);
    // Pinned non-empty by a literal over an existing constant, so neither
    // path can early-exit: the comparison is full enumeration against full
    // enumeration over the identical world space.
    let q = RaExpr::values(Relation::from_tuples(1, vec![Tuple::ints(&[0])])).union(
        RaExpr::relation("R")
            .product(RaExpr::relation("S"))
            .select(relalgebra::predicate::Predicate::eq(
                relalgebra::predicate::Operand::col(1),
                relalgebra::predicate::Operand::col(2),
            ))
            .project(vec![0]),
    );
    let plan = PlannedQuery::new(q, db.schema()).expect("query typechecks");
    let opts = opts_with_threads(1);

    let batched = stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).expect("streams");
    let rows = stream_certain_answer_rows(&plan, &db, Semantics::Cwa, &opts).expect("streams");
    assert!(!batched.early_exit, "the pinned query must not early-exit");
    assert_eq!(batched.answers, rows.answers, "the two folds must agree");
    assert_eq!(batched.worlds_visited, rows.worlds_visited);
    assert_eq!(batched.worlds_batched, batched.worlds_visited);
    let worlds = batched.worlds_visited;
    let built = batched.op_stats.tables_built;
    let reused = batched.op_stats.tables_reused;
    let reuse_rate = reused as f64 / (built + reused).max(1) as f64;

    println!("\n## worlds_batched_vs_rows (n={n} rows per side, {worlds} worlds, no early exit)");
    println!(
        "{:<16}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let row_m = measure("rows/1", budget, || {
        stream_certain_answer_rows(&plan, &db, Semantics::Cwa, &opts).expect("streams")
    });
    emit("batched_vs_rows", "rows", 1, worlds, &row_m);
    println!(
        "{:<16}  {:>12}  {:>12}  {:>9}",
        "rows/1",
        fmt_duration(row_m.median),
        fmt_duration(row_m.min),
        row_m.iters
    );
    let mut batched_1 = None;
    for threads in [1usize, 4] {
        let opts = opts_with_threads(threads);
        let m = measure(format!("batched/{threads}"), budget, || {
            stream_certain_answer(&plan, &db, Semantics::Cwa, &opts).expect("streams")
        });
        emit("batched_vs_rows", "batched", threads, worlds, &m);
        println!(
            "{:<16}  {:>12}  {:>12}  {:>9}",
            format!("batched/{threads}"),
            fmt_duration(m.median),
            fmt_duration(m.min),
            m.iters
        );
        if threads == 1 {
            batched_1 = Some(m.median.as_nanos());
        }
    }
    let batched_ns = batched_1.expect("threads=1 was measured");
    let speedup = row_m.median.as_nanos() as f64 / batched_ns.max(1) as f64;
    println!(
        "\nbatched/1 vs rows/1: {speedup:.1}x; hash-table reuse rate {:.3} \
         ({reused} reused / {built} built)",
        reuse_rate
    );
    println!(
        "BENCH {{\"bench\":\"worlds\",\"experiment\":\"batched_vs_rows_summary\",\"n\":{n},\
         \"worlds\":{worlds},\"speedup_batched_vs_rows\":{speedup:.3},\
         \"tables_built\":{built},\"tables_reused\":{reused},\"reuse_rate\":{reuse_rate:.4}}}"
    );
    assert!(reused > 0, "the shard must reuse build-side tables");
    assert!(
        speedup >= 10.0,
        "acceptance: the batched fold must beat the row-instantiating \
         fold ≥10x on the no-early-exit workload (got {speedup:.1}x)"
    );
}
