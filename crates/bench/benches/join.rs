//! Nested-loop vs hash equi-join (`cargo bench -p bench --bench join`).
//!
//! The seed evaluated `σ_{b=b'}(R × S)` by materializing the full Cartesian
//! product and filtering — `O(|R|·|S|)` pairs however selective the join.
//! The physical plan fuses the selection into a hash equi-join: build a hash
//! table on one side's key, probe with the other, `O(|R| + |S| + matches)`.
//! This bench quantifies the gap on a selective join at increasing scale
//! (the acceptance bar is ≥10× at 1k×1k), checks that the pair executor's
//! ground/symbolic run split keeps it within 20× of plain execution at 1%
//! nulls (asserted in smoke runs too), and also measures the bulk
//! `Relation::from_tuples` constructor whose per-tuple arity `assert!` was
//! downgraded to a `debug_assert!` — the constructor every operator's output
//! lands in.
//!
//! Each measurement is emitted as a machine-readable `BENCH {…}` json line;
//! `BENCH_SMOKE=1` shrinks the workload so CI can keep the harness alive.

use std::time::Duration;

use bench::harness::{fmt_duration, measure, Measurement};
use datagen::random_database_with_null_rate;
use relalgebra::ast::RaExpr;
use relalgebra::plan::PlannedQuery;
use relalgebra::predicate::{Operand, Predicate};
use releval::exec;
use relmodel::{Database, Schema, Tuple};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn emit(experiment: &str, mode: &str, n: usize, m: &Measurement) {
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"{experiment}\",\"mode\":\"{mode}\",\
         \"n\":{n},\"median_ns\":{},\"min_ns\":{},\"iters\":{}}}",
        m.median.as_nanos(),
        m.min.as_nanos(),
        m.iters
    );
}

/// `R(a,b)` and `S(b,c)` with `n` rows each and a selective equi-join on
/// `b`: every `R` row matches exactly one `S` row, so the join yields `n`
/// rows out of `n²` candidate pairs.
fn join_db(n: usize) -> Database {
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
    db
}

fn join_query() -> RaExpr {
    RaExpr::relation("R")
        .product(RaExpr::relation("S"))
        .select(Predicate::eq(Operand::col(1), Operand::col(2)))
}

fn main() {
    let smoke = smoke();
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    let sizes: &[usize] = if smoke { &[60, 120] } else { &[100, 300, 1000] };
    let q = join_query();

    println!("## join_nested_loop_vs_hash (selective equi-join, n rows per side)");
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let mut last_speedup = 0.0f64;
    for &n in sizes {
        let db = join_db(n);
        let plan = PlannedQuery::new(q.clone(), db.schema()).expect("query typechecks");
        assert!(plan.physical().has_hash_join(), "fusion must fire");
        // Correctness before speed: both paths must agree.
        let hash_out = exec::columnar::execute(plan.physical(), &db);
        let loop_out = releval::engine::eval_unchecked(&q, &db).into_owned();
        assert_eq!(hash_out, loop_out, "hash join != nested loop at n={n}");
        assert_eq!(hash_out.len(), n, "selective join yields n rows");

        let nested = measure(format!("nested-loop/{n}"), budget, || {
            releval::engine::eval_unchecked(&q, &db).into_owned()
        });
        emit("scaling", "nested-loop", n, &nested);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            nested.label,
            fmt_duration(nested.median),
            fmt_duration(nested.min),
            nested.iters
        );
        let hash = measure(format!("hash-join/{n}"), budget, || {
            exec::columnar::execute(plan.physical(), &db)
        });
        emit("scaling", "hash", n, &hash);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            hash.label,
            fmt_duration(hash.median),
            fmt_duration(hash.min),
            hash.iters
        );
        last_speedup = nested.median.as_nanos() as f64 / hash.median.as_nanos().max(1) as f64;
        println!("hash vs nested-loop at {n}: {last_speedup:.1}x");
    }
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"summary\",\"n\":{},\
         \"speedup_hash_vs_nested\":{last_speedup:.3}}}",
        sizes.last().expect("at least one size")
    );
    if !smoke {
        assert!(
            last_speedup >= 10.0,
            "acceptance: hash join must beat the nested loop ≥10x at 1k×1k \
             (got {last_speedup:.1}x)"
        );
    }

    // The ground/symbolic run split of the pair (certain⁺/possible?)
    // executor, swept across null rates on the mostly-ground join workload.
    // Under syntactic equality the plain executor sends every row down the
    // vectorized ground run; the pair executor does the same for ground
    // rows and pays the per-row valuation-aware fallback only for the
    // symbolic remainder. So at a low null rate the pair executor must stay
    // within a small constant factor of plain execution of the same query —
    // a pair executor that routed ground rows through the fallback would be
    // orders of magnitude slower (it is at 50% nulls, where most rows are
    // symbolic).
    println!(
        "\n## pair_vs_plain (columnar ground/symbolic split, null-rate sweep, n rows per side)"
    );
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    // Smoke runs keep the full 1k-row size at the gated 1% rate: at a few
    // hundred rows even a pair executor that sends every row down the
    // per-row fallback stays within 20x of plain execution.
    let n = 1000;
    let rates: &[u32] = if smoke { &[1] } else { &[0, 1, 10, 50] };
    // The swept query projects the join down to the matched `a`s, so both
    // executors dedup the projection in their hash kernels and convert to a
    // relation once, at the root.
    let q_sweep = join_query().project(vec![0]);
    let mut pair_over_plain_at_1pct = f64::INFINITY;
    for &rate in rates {
        // Correctness before speed, against the logical evaluators (a
        // nested loop, so on a smaller instance of the same workload).
        let small = random_database_with_null_rate(200, rate, 42);
        let plan = PlannedQuery::new(q_sweep.clone(), small.schema()).expect("query typechecks");
        assert_eq!(
            exec::columnar::execute(plan.physical(), &small),
            releval::engine::eval_unchecked(&q_sweep, &small).into_owned(),
            "columnar != logical (plain) at {rate}% nulls"
        );
        assert_eq!(
            exec::columnar::approx::execute_approx(plan.physical(), &small),
            releval::approx::eval_approx_unchecked(&q_sweep, &small),
            "columnar != logical (pair) at {rate}% nulls"
        );

        let db = random_database_with_null_rate(n, rate, 42);
        let plan = PlannedQuery::new(q_sweep.clone(), db.schema()).expect("query typechecks");
        let plain = measure(format!("columnar-plain/{rate}%"), budget, || {
            exec::columnar::execute(plan.physical(), &db)
        });
        emit(&format!("null_rate_plain_{rate}pct"), "columnar", n, &plain);
        let pair = measure(format!("columnar-pair/{rate}%"), budget, || {
            exec::columnar::approx::execute_approx(plan.physical(), &db)
        });
        emit(&format!("null_rate_pair_{rate}pct"), "columnar", n, &pair);
        for m in [&plain, &pair] {
            println!(
                "{:<22}  {:>12}  {:>12}  {:>9}",
                m.label,
                fmt_duration(m.median),
                fmt_duration(m.min),
                m.iters
            );
        }
        let ratio = pair.median.as_nanos() as f64 / plain.median.as_nanos().max(1) as f64;
        if rate == 1 {
            pair_over_plain_at_1pct = ratio;
        }
        println!("pair / plain at {rate}% nulls: {ratio:.1}x");
    }
    println!(
        "BENCH {{\"bench\":\"join\",\"experiment\":\"pair_vs_plain_summary\",\"n\":{n},\
         \"pair_over_plain_1pct\":{pair_over_plain_at_1pct:.3}}}"
    );
    assert!(
        pair_over_plain_at_1pct <= 20.0,
        "acceptance: at 1% nulls the columnar pair executor must stay within 20x of \
         plain execution of the same query (got {pair_over_plain_at_1pct:.1}x)"
    );

    // Bulk relation construction: the operator-output hot path whose
    // per-tuple arity assert became debug-only.
    println!("\n## relation_from_tuples (bulk build, release-mode single arity check)");
    let build_sizes: &[usize] = if smoke { &[1_000] } else { &[10_000, 100_000] };
    for &n in build_sizes {
        let tuples: Vec<Tuple> = (0..n as i64).map(|i| Tuple::ints(&[i, i * 7])).collect();
        let m = measure(format!("from_tuples/{n}"), budget, || {
            relmodel::Relation::from_tuples(2, tuples.clone())
        });
        emit("relation_build", "from_tuples", n, &m);
        println!(
            "{:<22}  {:>12}  {:>12}  {:>9}",
            m.label,
            fmt_duration(m.median),
            fmt_duration(m.min),
            m.iters
        );
    }
}
