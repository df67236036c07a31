//! Repair enumeration vs the conflict-free-core approximation
//! (`cargo bench`).
//!
//! The CQA twin of `benches/symbolic.rs`: on the same inconsistent
//! workload, the exact consistent answer by streaming repair enumeration
//! (exponential in the number of conflict tuples) against the polynomial
//! core approximation (one certain⁺ pass over the repair interval). The
//! sweep crosses violation rate × relation size, because the violation
//! rate is to repairs what the null count is to worlds: the exponent.
//!
//! Per workload: wall-clock medians for both strategies and **units
//! evaluated** (repairs visited vs 1 pass). After asserting the core answer
//! is a subset of the exact one, the bench asserts the core beats full
//! enumeration by ≥10× wall-clock on the high-violation workload — the
//! acceptance bar for keeping the approximation honest.
//!
//! The gated query is a key self-join, `π_b(σ_{a = a'}(R × R))`: it reads
//! `R` on both join sides, so it is not linear in the conflict vertices and
//! the exact fold enumerates the whole repair product. A linear query such
//! as `π_b(R)` is folded one conflict component at a time instead (see
//! `repairs::fold`); its exact-versus-core times are printed as a
//! `repairs_linear` row, with no gate.
//!
//! `nulls_factorized_vs_rows` times consistent answers over a dirty
//! database that also holds nulls: a join with a clean relation, folded one
//! joint (conflict-or-null) component at a time, against the row reference
//! that builds every repair and answers it symbolically. It is gated at ≥5×
//! wall-clock, in `BENCH_SMOKE` too.
//!
//! Every measurement is emitted as a machine-readable `BENCH {…}` json
//! line; `BENCH_SMOKE=1` shrinks the workload so CI can keep the harness
//! honest in seconds.

use std::time::Duration;

use bench::harness::{fmt_duration, measure};
use datagen::{random_inconsistent_database, InconsistentDbConfig};
use relalgebra::ast::RaExpr;
use relalgebra::plan::PlannedQuery;
use relalgebra::predicate::{Operand, Predicate};
use relmodel::{Database, DatabaseBuilder, Value};
use repairs::{
    core_consistent_answer, stream_consistent_answer, stream_consistent_answer_rows, ConflictGraph,
    RepairOptions,
};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn main() {
    let smoke = smoke();
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    // (relation size, violation rate %): the rate axis stops where full
    // enumeration stops being benchmarkable at all — which is the point
    // the core approximation exists to make.
    let workloads: &[(usize, u32)] = if smoke {
        &[(16, 15), (16, 35)]
    } else {
        &[(24, 10), (24, 25), (24, 40), (48, 10), (48, 25)]
    };

    // The consistent values of R, through a key self-join: every repair
    // keeps a maximal conflict-free subset of R, and only values in all of
    // them survive. Not linear, so the exact fold enumerates every repair.
    let q = RaExpr::relation("R")
        .product(RaExpr::relation("R"))
        .select(Predicate::eq(Operand::col(0), Operand::col(2)))
        .project(vec![1]);
    // The same values without the self-join: linear, so the exact fold
    // visits each conflict component's local repairs once.
    let linear = RaExpr::relation("R").project(vec![1]);

    println!("## repairs_vs_core (violation rate × relation size)");
    println!(
        "{:<14}  {:>9} {:>8}  {:>14} {:>12}  {:>12}  {:>9}",
        "workload", "conflict", "repairs", "enum median", "core median", "units×", "time×"
    );

    // (repairs visited, time ratio) of the most conflicted workload — the
    // one the acceptance assertion reads.
    let mut high_violation: Option<(u128, f64)> = None;
    {
        for &(size, rate) in workloads {
            let db = random_inconsistent_database(&InconsistentDbConfig {
                tuples_per_relation: size,
                domain_size: size,
                violation_rate_percent: rate,
                null_rate_percent: 0,
                distinct_nulls: 0,
                seed: 42,
            });
            let graph = ConflictGraph::build(&db);
            let plan = PlannedQuery::new(q.clone(), db.schema()).expect("typechecks");
            // Single-threaded and un-budgeted within reason: the bench
            // measures the algorithmic gap, not the scheduler.
            let opts = RepairOptions::default()
                .with_threads(1)
                .with_max_repairs(1 << 22);

            // Correctness gate before any timing: the core is sound.
            let exact = stream_consistent_answer(&plan, &db, &graph, &opts).expect("fits budget");
            let core = core_consistent_answer(&plan, &db, &graph);
            assert!(
                core.answers.is_subset(&exact.answers),
                "core must be sound on size {size} rate {rate}"
            );

            let name = format!("{size}x{rate}%");
            let m_enum = measure(format!("enum/{name}"), budget, || {
                stream_consistent_answer(&plan, &db, &graph, &opts).expect("fits budget")
            });
            let m_core = measure(format!("core/{name}"), budget, || {
                core_consistent_answer(&plan, &db, &graph)
            });

            let units_ratio = exact.repairs_visited as f64;
            let time_ratio =
                m_enum.median.as_nanos() as f64 / m_core.median.as_nanos().max(1) as f64;
            println!(
                "{:<14}  {:>9} {:>8}  {:>14} {:>12}  {:>11.0}x  {:>8.1}x",
                name,
                graph.conflict_tuples(),
                exact.repairs_visited,
                fmt_duration(m_enum.median),
                fmt_duration(m_core.median),
                units_ratio,
                time_ratio
            );
            println!(
                "BENCH {{\"bench\":\"repairs\",\"size\":{size},\"violation_rate\":{rate},\
                 \"conflict_tuples\":{},\"edges\":{},\"repairs_visited\":{},\
                 \"repair_early_exit\":{},\"core_tuples\":{},\
                 \"enum_median_ns\":{},\"core_median_ns\":{},\
                 \"units_ratio\":{units_ratio:.3},\"time_ratio\":{time_ratio:.3}}}",
                graph.conflict_tuples(),
                graph.edge_count(),
                exact.repairs_visited,
                exact.early_exit,
                core.core_tuples,
                m_enum.median.as_nanos(),
                m_core.median.as_nanos(),
            );
            assert_eq!(exact.components, None, "the gated query enumerates repairs");

            let linear_plan = PlannedQuery::new(linear.clone(), db.schema()).expect("typechecks");
            let factorized =
                stream_consistent_answer(&linear_plan, &db, &graph, &opts).expect("fits budget");
            let m_factorized = measure(format!("factorized/{name}"), budget, || {
                stream_consistent_answer(&linear_plan, &db, &graph, &opts).expect("fits budget")
            });
            let m_linear_core = measure(format!("core-linear/{name}"), budget, || {
                core_consistent_answer(&linear_plan, &db, &graph)
            });
            println!(
                "BENCH {{\"bench\":\"repairs_linear\",\"size\":{size},\"violation_rate\":{rate},\
                 \"components\":{},\"local_repairs_visited\":{},\
                 \"factorized_median_ns\":{},\"core_median_ns\":{},\"time_ratio\":{:.3}}}",
                factorized.components.unwrap_or(0),
                factorized.repairs_visited,
                m_factorized.median.as_nanos(),
                m_linear_core.median.as_nanos(),
                m_factorized.median.as_nanos() as f64
                    / m_linear_core.median.as_nanos().max(1) as f64,
            );

            if high_violation.is_none_or(|(r, _)| exact.repairs_visited > r) {
                high_violation = Some((exact.repairs_visited, time_ratio));
            }
        }
    }

    // The acceptance bar: on the high-violation workload (the one with the
    // largest repair space) the polynomial core must beat exponential
    // enumeration by at least an order of magnitude.
    let (repairs, ratio) = high_violation.expect("high-violation workload measured");
    assert!(
        ratio >= 10.0,
        "core approximation must beat repair enumeration by ≥10x wall-clock \
         on the high-violation workload ({repairs} repairs), got {ratio:.1}x"
    );

    nulls_factorized_vs_rows(budget);
}

/// `R(a, b)` keyed on `a` with `rows` tuples `R(i, ·)`, every tenth payload
/// a null cycling through `nulls` of them, and `clashes` keys given a
/// second, conflicting payload; a clean `T(a, b)` to join with.
fn dirty_nullable(rows: i64, clashes: i64, nulls: i64) -> Database {
    let mut b = DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .relation("T", &["a", "b"])
        .key("R", &["a"]);
    for i in 0..rows {
        let payload = if i % 10 == 5 {
            Value::null(((i / 10) % nulls) as u64)
        } else {
            Value::int(i * 7 % 10)
        };
        b = b
            .tuple("R", vec![Value::int(i), payload])
            .ints("T", &[i * 3 % 10, i]);
    }
    for c in 0..clashes {
        b = b.ints("R", &[c * rows / clashes, 10 + c]);
    }
    b.build()
}

/// Consistent answers over a null-bearing dirty database: the joint fold
/// against the row reference, on a linear join.
fn nulls_factorized_vs_rows(budget: Duration) {
    let db = dirty_nullable(40, 3, 4);
    let graph = ConflictGraph::build(&db);
    // π_a(σ_{b = a' ∧ b' ≠ 1000}(R × T)): linear, since T is clean.
    let q = RaExpr::relation("R")
        .product(RaExpr::relation("T"))
        .select(
            Predicate::eq(Operand::col(1), Operand::col(2))
                .and(Predicate::neq(Operand::col(3), Operand::int(1000))),
        )
        .project(vec![0]);
    let plan = PlannedQuery::new(q, db.schema()).expect("typechecks");
    let opts = RepairOptions::default().with_threads(1);
    let joint = stream_consistent_answer(&plan, &db, &graph, &opts).expect("fits budget");
    let rows = stream_consistent_answer_rows(&plan, &db, &graph, &opts).expect("fits budget");
    assert_eq!(
        joint.answers, rows.answers,
        "the joint fold answers exactly"
    );
    assert!(joint.components.is_some() && rows.components.is_none());
    assert_eq!(joint.repairs_batched, joint.repairs_visited);

    let m_joint = measure("joint/nulls", budget, || {
        stream_consistent_answer(&plan, &db, &graph, &opts).expect("fits budget")
    });
    let m_rows = measure("rows/nulls", budget, || {
        stream_consistent_answer_rows(&plan, &db, &graph, &opts).expect("fits budget")
    });
    let ratio = m_rows.median.as_nanos() as f64 / m_joint.median.as_nanos().max(1) as f64;
    println!("\n## nulls_factorized_vs_rows");
    println!(
        "joint fold: {} elements over {} components in {}; rows: {} repairs ({} symbolic) in {}; {ratio:.1}x",
        joint.repairs_visited,
        joint.components.unwrap_or(0),
        fmt_duration(m_joint.median),
        rows.repairs_visited,
        rows.symbolic_repairs,
        fmt_duration(m_rows.median),
    );
    println!(
        "BENCH {{\"bench\":\"nulls_factorized_vs_rows\",\"components\":{},\
         \"elements_visited\":{},\"repairs_visited\":{},\"symbolic_repairs\":{},\
         \"joint_median_ns\":{},\"rows_median_ns\":{},\"time_ratio\":{ratio:.3}}}",
        joint.components.unwrap_or(0),
        joint.repairs_visited,
        rows.repairs_visited,
        rows.symbolic_repairs,
        m_joint.median.as_nanos(),
        m_rows.median.as_nanos(),
    );
    assert!(
        ratio >= 5.0,
        "the joint fold must beat the row fold by ≥5x wall-clock, got {ratio:.1}x"
    );
}
