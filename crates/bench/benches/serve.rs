//! Serving-layer throughput (`cargo bench -p bench --bench serve`).
//!
//! Three dispatch paths for the same query, same database, same answer:
//!
//! * `uncached` — a fresh [`Engine::new`] + `plan_text` per request: the
//!   one-shot front door, paying census measurement, parse, typecheck,
//!   lowering, and execution every time;
//! * `service-cold` — a fresh [`CertainService`] per request: the same work
//!   plus snapshot construction, bounding what a cache miss costs;
//! * `service-hot` — one long-lived service, repeated submits: the plan and
//!   result caches absorb everything after the first request.
//!
//! The acceptance bar is `service-hot` ≥10× faster than `uncached`. A client
//! sweep then drives the hot path from 1/2/4/8 threads sharing one service
//! to show the read path scales (the result cache is hash-sharded across
//! [`serve::RESULT_SHARDS`] locks, so hits on distinct queries rarely
//! contend; each critical section is a hash lookup + clone).
//!
//! Last, `serve_write` times a one-tuple [`CertainService::update`] over an
//! `n`-row and a `4n`-row `R` while the previous snapshot is still held, as
//! an in-flight reader would hold it. The write copies one chunk of `R`,
//! not `R`, so outside smoke mode the `4n` median must stay within 2× the
//! `n` median, net of the null census the update still takes of `R`
//! (linear, timed beside it).
//!
//! Each measurement is emitted as a machine-readable `BENCH {…}` json line;
//! `BENCH_SMOKE=1` shrinks the workload so CI can keep the harness alive.

use std::mem;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bench::harness::{fmt_duration, measure, Measurement};
use engine::Engine;
use relalgebra::analysis::RelationCensus;
use relmodel::{Database, Schema, Tuple};
use serve::CertainService;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn emit(experiment: &str, mode: &str, n: usize, m: &Measurement) {
    println!(
        "BENCH {{\"bench\":\"serve\",\"experiment\":\"{experiment}\",\"mode\":\"{mode}\",\
         \"n\":{n},\"median_ns\":{},\"min_ns\":{},\"iters\":{}}}",
        m.median.as_nanos(),
        m.min.as_nanos(),
        m.iters
    );
}

fn print_row(m: &Measurement) {
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        m.label,
        fmt_duration(m.median),
        fmt_duration(m.min),
        m.iters
    );
}

/// `R(a,b) ⋈ S(b,c)` with `n` rows per side; the bench query picks one key
/// out of the join, so answers are tiny but dispatch must still plan and
/// execute a real join.
fn serve_db(n: usize) -> Database {
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

const QUERY: &str = "project[#0](select[#1 = #2 and #0 = 7](product(R, S)))";

fn main() {
    let smoke = smoke();
    let budget = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    let n = if smoke { 120 } else { 1000 };
    let db = serve_db(n);

    // Correctness before speed: all three paths answer identically.
    let service = CertainService::new(db.clone());
    let expected = Engine::new(&db).plan_text(QUERY).expect("query typechecks");
    let served = service.submit(QUERY).expect("query typechecks");
    assert_eq!(served.answers, expected.answers);
    assert_eq!(served.guarantee, expected.guarantee);
    assert_eq!(served.answers.len(), 1, "the key picks one row");

    println!("## serve_dispatch (hot cache vs cold vs uncached engine, n rows per side)");
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let uncached = measure(format!("uncached/{n}"), budget, || {
        Engine::new(&db).plan_text(QUERY).expect("typechecks")
    });
    emit("dispatch", "uncached", n, &uncached);
    print_row(&uncached);

    let cold = measure(format!("service-cold/{n}"), budget, || {
        CertainService::new(db.clone())
            .submit(QUERY)
            .expect("typechecks")
    });
    emit("dispatch", "service-cold", n, &cold);
    print_row(&cold);

    // One submit already warmed both caches above; every measured iteration
    // is a result-cache hit.
    let hot = measure(format!("service-hot/{n}"), budget, || {
        service.submit(QUERY).expect("typechecks")
    });
    emit("dispatch", "service-hot", n, &hot);
    print_row(&hot);
    assert!(
        service.telemetry().result_hits > 0,
        "the hot loop must actually hit the cache"
    );

    let speedup = uncached.median.as_nanos() as f64 / hot.median.as_nanos().max(1) as f64;
    println!("hot cache vs uncached dispatch at n={n}: {speedup:.1}x");
    println!(
        "BENCH {{\"bench\":\"serve\",\"experiment\":\"summary\",\"n\":{n},\
         \"speedup_hot_vs_uncached\":{speedup:.3}}}"
    );
    if !smoke {
        assert!(
            speedup >= 10.0,
            "acceptance: the hot result cache must beat uncached dispatch ≥10x \
             (got {speedup:.1}x)"
        );
    }

    // Client sweep: T threads share one service, each submitting a round of
    // hot queries; the label's time is one whole round across all clients.
    println!("\n## serve_clients (T threads sharing one hot service)");
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let per_client = if smoke { 50 } else { 200 };
    let shared = Arc::new(CertainService::new(db.clone()));
    shared.submit(QUERY).expect("warm the caches");
    for threads in [1usize, 2, 4, 8] {
        let m = measure(format!("clients/{threads}"), budget, || {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let service = Arc::clone(&shared);
                    thread::spawn(move || {
                        for _ in 0..per_client {
                            let report = service.submit(QUERY).expect("typechecks");
                            assert_eq!(report.answers.len(), 1);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread panicked");
            }
        });
        emit(
            "clients",
            &format!("{threads}-threads"),
            per_client * threads,
            &m,
        );
        print_row(&m);
    }

    serve_write(n, budget, smoke);
}

/// One-tuple writes at two sizes of `R`. Each timed update alternately
/// inserts and removes one row, so `R` keeps its size, while the snapshot
/// before it stays held; the version before that is released in the same
/// iteration, so the time is copy plus free.
///
/// The update still re-measures the touched relation's null census
/// ([`RelationCensus::measure`], run by [`engine::DbContext::derive`]),
/// which is linear in `R`; it is timed on its own at each size, and the
/// sublinear gate applies to the update net of it.
fn serve_write(n: usize, budget: Duration, smoke: bool) {
    println!("\n## serve_write (one-tuple update, previous snapshot held)");
    println!(
        "{:<22}  {:>12}  {:>12}  {:>9}",
        "bench", "median", "min", "iters"
    );
    let row = Tuple::ints(&[-1, -1]);
    let mut net = Vec::new();
    for rows in [n, 4 * n] {
        let service = CertainService::new(serve_db(rows));
        let mut held = service.snapshot();
        let mut insert = true;
        let update = measure(format!("write/{rows}"), budget, || {
            let released = mem::replace(&mut held, service.snapshot());
            service.update(|db| {
                let r = db.relation_mut("R").expect("R is in the schema");
                let changed = if insert {
                    r.insert(row.clone())
                } else {
                    r.remove(&row)
                };
                assert!(changed, "each write changes R");
            });
            insert = !insert;
            released
        });
        emit("write", "update", rows, &update);
        print_row(&update);
        let snapshot = service.snapshot();
        let r = snapshot
            .database()
            .relation("R")
            .expect("R is in the schema");
        let census = measure(format!("write-census/{rows}"), budget, || {
            RelationCensus::measure(r)
        });
        emit("write", "census", rows, &census);
        print_row(&census);
        let nanos = |m: &Measurement| m.median.as_nanos() as f64;
        net.push((nanos(&update) - nanos(&census)).max(1.0));
    }
    let growth = net[1] / net[0];
    println!("write median net of the census at 4n vs n (n={n}): {growth:.2}x");
    println!(
        "BENCH {{\"bench\":\"serve\",\"experiment\":\"write_summary\",\"n\":{n},\
         \"net_write_growth_4n_vs_n\":{growth:.3}}}"
    );
    if !smoke {
        assert!(
            growth <= 2.0,
            "acceptance: a one-tuple write net of the census must be sublinear \
             in the relation (4n median {growth:.2}x the n median)"
        );
    }
}
