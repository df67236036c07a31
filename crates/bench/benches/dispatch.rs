//! Engine dispatch overhead (run with `cargo bench`).
//!
//! The front-door redesign routes every evaluation through
//! `Engine::plan` — classify, select a strategy, execute, build a
//! guarantee-carrying report. This bench measures what that dispatch costs
//! relative to calling the engine-internal primitive directly — since the
//! physical-plan refactor that primitive is plan-then-execute
//! (`PlannedQuery::new` + `exec::columnar::execute`), the exact work
//! `Engine::plan` wraps. Target: **< 5 % median overhead** at realistic sizes (the
//! absolute cost is a classify traversal plus report assembly, independent
//! of data size).
//!
//! A third row keeps the seed's logical interpreter (`eval_naive`, which
//! loops over `σ(A×B)`) as a reference: the gap between it and the plan
//! rows is the hash-join fusion win `benches/join.rs` measures in depth.

use std::time::Duration;

use bench::harness::{fmt_duration, measure, Measurement};
use datagen::{orders_database, OrdersConfig};
use engine::Engine;
use qparser::parse;
use relalgebra::plan::PlannedQuery;
use releval::exec;
use releval::naive::eval_naive;

fn overhead_percent(direct: &Measurement, engine: &Measurement) -> f64 {
    let d = direct.median_ns().max(1) as f64;
    (engine.median_ns() as f64 - d) / d * 100.0
}

fn main() {
    // A positive join query: the class the engine dispatches to NaiveExact,
    // i.e. the exact path the paper recommends for production traffic.
    let q = parse("project[#1](select[#0 = #4](product(Order, Pay)))").expect("query parses");
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let budget = if smoke {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(500)
    };
    let sizes: &[usize] = if smoke { &[50, 200] } else { &[50, 200, 800] };

    println!("## engine_dispatch_overhead");
    println!(
        "{:<10}  {:>12}  {:>12}  {:>12}  {:>9}",
        "orders", "interpreter", "direct", "engine", "overhead"
    );
    for &orders in sizes {
        let db = orders_database(&OrdersConfig {
            orders,
            payments: orders,
            null_rate: 0.1,
            ..OrdersConfig::default()
        });
        // The seed's evaluation path: the logical tree-walking interpreter,
        // kept as the reference semantics (and as the "before" of the hash
        // join fusion).
        let interpreter = measure(format!("interpreter/{orders}"), budget, || {
            eval_naive(&q, &db)
                .expect("evaluation succeeds")
                .complete_part()
        });
        // Direct path: the engine-internal primitive — typecheck/lower once
        // per call, execute the physical plan, keep the complete part. This
        // is exactly the work `Engine::plan` wraps, minus dispatch/report.
        let direct = measure(format!("direct/{orders}"), budget, || {
            let plan = PlannedQuery::new(q.clone(), db.schema()).expect("query typechecks");
            exec::columnar::execute(plan.physical(), &db).complete_part()
        });
        let engine = Engine::new(&db);
        let dispatched = measure(format!("engine/{orders}"), budget, || {
            engine.plan(&q).expect("evaluation succeeds")
        });
        println!(
            "{:<10}  {:>12}  {:>12}  {:>12}  {:>8.2}%",
            orders,
            fmt_duration(interpreter.median),
            fmt_duration(direct.median),
            fmt_duration(dispatched.median),
            overhead_percent(&direct, &dispatched)
        );
        println!(
            "BENCH {{\"bench\":\"dispatch\",\"orders\":{orders},\"interpreter_ns\":{},\
             \"direct_ns\":{},\"engine_ns\":{},\"overhead_pct\":{:.2}}}",
            interpreter.median.as_nanos(),
            direct.median.as_nanos(),
            dispatched.median.as_nanos(),
            overhead_percent(&direct, &dispatched)
        );
    }
    println!("\ntarget: < 5% median overhead at the 200- and 800-order sizes");

    // The static analyzer runs inside every dispatch: measure one
    // abstract-interpretation pass (census already taken — the engine
    // censuses once per database, not per query) against both bare plan
    // construction and the full dispatched evaluation it rides on. The
    // pass is a single tree walk over the *query* — constant in data size
    // — so its share of the per-query cost vanishes as instances grow.
    println!("\n## analysis_overhead");
    println!(
        "{:<10}  {:>12}  {:>12}  {:>12}  {:>9}",
        "orders", "plan", "analyze", "engine", "analysis%"
    );
    for &orders in sizes {
        let db = orders_database(&OrdersConfig {
            orders,
            payments: orders,
            null_rate: 0.1,
            ..OrdersConfig::default()
        });
        let census = relalgebra::analysis::NullCensus::of_database(&db);
        let planning = measure(format!("plan/{orders}"), budget, || {
            PlannedQuery::new(q.clone(), db.schema()).expect("query typechecks")
        });
        let analyzing = measure(format!("analyze/{orders}"), budget, || {
            relalgebra::analysis::analyze(&q, &census)
        });
        let engine = Engine::new(&db);
        let dispatched = measure(format!("engine/{orders}"), budget, || {
            engine.plan(&q).expect("evaluation succeeds")
        });
        let pct = analyzing.median_ns() as f64 / dispatched.median_ns().max(1) as f64 * 100.0;
        println!(
            "{:<10}  {:>12}  {:>12}  {:>12}  {:>8.2}%",
            orders,
            fmt_duration(planning.median),
            fmt_duration(analyzing.median),
            fmt_duration(dispatched.median),
            pct
        );
        println!(
            "BENCH {{\"bench\":\"analysis\",\"orders\":{orders},\"plan_ns\":{},\
             \"analyze_ns\":{},\"engine_ns\":{},\"analysis_pct\":{:.2}}}",
            planning.median.as_nanos(),
            analyzing.median.as_nanos(),
            dispatched.median.as_nanos(),
            pct
        );
    }
    println!(
        "\ntarget: analysis < 5% of the dispatched evaluation (one query-sized tree walk, \
         data-size independent; the engine rows above already include it)"
    );

    // Observability cost: the same dispatched evaluation with per-query span
    // tracing off (the default — the engine rows above) versus on. The
    // disabled path is a few bool branches, and even the enabled path only
    // adds a handful of timer reads and one small span tree per query, so
    // the gap must stay under the 5 % gate; the largest size is asserted
    // (the absolute tracing cost is constant, so its share only shrinks
    // from there).
    println!("\n## tracing_overhead");
    println!(
        "{:<10}  {:>12}  {:>12}  {:>9}",
        "orders", "trace-off", "trace-on", "overhead"
    );
    let largest = *sizes.last().expect("sizes is non-empty");
    for &orders in sizes {
        let db = orders_database(&OrdersConfig {
            orders,
            payments: orders,
            null_rate: 0.1,
            ..OrdersConfig::default()
        });
        let engine_off = Engine::new(&db);
        let off = measure(format!("trace-off/{orders}"), budget, || {
            engine_off.plan(&q).expect("evaluation succeeds")
        });
        let engine_on = Engine::new(&db).options(engine::EngineOptions::default().with_trace(true));
        let on = measure(format!("trace-on/{orders}"), budget, || {
            let report = engine_on.plan(&q).expect("evaluation succeeds");
            assert!(report.stats.trace.is_some(), "tracing was on");
            report
        });
        let pct = overhead_percent(&off, &on);
        println!(
            "{:<10}  {:>12}  {:>12}  {:>8.2}%",
            orders,
            fmt_duration(off.median),
            fmt_duration(on.median),
            pct
        );
        println!(
            "BENCH {{\"bench\":\"tracing\",\"orders\":{orders},\"trace_off_ns\":{},\
             \"trace_on_ns\":{},\"overhead_pct\":{:.2}}}",
            off.median.as_nanos(),
            on.median.as_nanos(),
            pct
        );
        if orders == largest {
            assert!(
                pct < 5.0,
                "tracing overhead {pct:.2}% at {orders} orders breaches the 5% gate"
            );
        }
    }
    println!("\ntarget: tracing < 5% overhead at the largest size (asserted)");

    // Serve-layer metrics as a BENCH artifact: run a short mixed workload
    // through a CertainService and emit its latency grid + gauges as one
    // JSON line, so CI archives real quantiles alongside the bench numbers.
    let db = orders_database(&OrdersConfig {
        orders: largest,
        payments: largest,
        null_rate: 0.1,
        ..OrdersConfig::default()
    });
    let service = serve::CertainService::with_options(
        db,
        serve::ServeOptions {
            slow_query_threshold: Some(Duration::from_millis(250)),
            ..serve::ServeOptions::default()
        },
    );
    let text = "project[#1](select[#0 = #4](product(Order, Pay)))";
    for _ in 0..20 {
        service.submit(text).expect("workload query succeeds");
        service.submit("Order").expect("workload query succeeds");
    }
    println!("\n## serve_metrics");
    print!("{}", service.metrics_text());
    println!(
        "BENCH {{\"bench\":\"serve_metrics\",\"metrics\":{}}}",
        service.metrics_json()
    );
}
