//! End-to-end benchmark of the certain-answer service.
//!
//! ```text
//! perfbench --workload <adhoc_certain|serve_rw|enumerate_exact>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives `serve::CertainService` from this
//! process; the engine's folds pick their own worker count while it waits.
//! Every answer is checked against a second public path outside the timed
//! region. `--trace 0` prints the end-to-end metrics; `--trace 1` replays
//! each computed request's layers in every other epoch and prints the
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod alloc;
mod layers;
mod probe;
mod reference;
mod render;
mod runner;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use runner::{Kind, Outcome};
use stats::{fastest_share, median, percentile};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The end-to-end metrics, in the order printed.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("miss_p50_ms", "ms"),
    ("miss_p95_ms", "ms"),
    ("exact_share", "ratio"),
    ("ok_share", "ratio"),
    ("heap_peak_mb", "MiB"),
];

/// The percentiles a run must have samples for: the end-to-end miss
/// latencies, and the hit and write latencies of the traced run.
const UNTRACED_TAILS: [(Kind, f64); 1] = [(Kind::Miss, 0.95)];
const TRACED_TAILS: [(Kind, f64); 2] = [(Kind::Hit, 0.99), (Kind::Write, 0.95)];

/// Strategies the workloads dispatch to, for `engine.strategy_ms.<name>`.
const STRATEGIES: [&str; 5] = [
    "naive-exact",
    "symbolic-ctable",
    "sound-approximation",
    "worlds-ground-truth",
    "repair-enumeration",
];

/// Request classes, for `trace.coverage.<class>`.
const CLASSES: [&str; 9] = [
    "positive",
    "division",
    "full_ra",
    "mixed",
    "join",
    "write",
    "repairs_complete",
    "repairs_nulls",
    "worlds",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let started = Instant::now();
    let expected = reference::expected(&workload);
    let reference_s = started.elapsed().as_secs_f64();
    let tails: &[(Kind, f64)] = if args.trace {
        &TRACED_TAILS
    } else {
        &UNTRACED_TAILS
    };
    let outcome = runner::run(&workload, &expected, args.seconds, args.trace, tails);
    print_diagnostics(
        &outcome,
        &workload,
        reference_s,
        started.elapsed().as_secs_f64(),
    );

    let metrics = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: no result after {} epochs: {e}", outcome.epochs);
            return ExitCode::FAILURE;
        }
    };
    print_table(&args, &outcome, &metrics);

    let correct = outcome.failed == 0 && outcome.prime_failures == 0 && repeats(&outcome);
    let mut body = String::new();
    for (i, (name, value, unit, _)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}

/// Did every epoch classify every request alike and reproduce the same
/// counts? A nondeterministic count or a hit/miss flip fails the run.
fn repeats(o: &Outcome) -> bool {
    o.kinds_repeat && o.counts.windows(2).all(|w| w[0] == w[1])
}

/// A finite number as JSON (non-finite values cannot occur in a valid
/// run; they print as 0 rather than as invalid JSON).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// (name, value, unit, samples behind it).
type Metric = (String, f64, &'static str, usize);

fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latency samples and throughput of one set of epochs.
struct Timings {
    miss_ms: Vec<f64>,
    hit_us: Vec<f64>,
    write_ms: Vec<f64>,
    /// Requests per second of request time, over every sample.
    throughput_qps: f64,
    samples: usize,
}

fn timings(epochs: &[Vec<f64>], kinds: &[Kind]) -> Timings {
    let rounds = fastest_share(epochs);
    let of = |kind: Kind, scale: f64| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|round| round.iter().zip(kinds))
            .filter(|(_, k)| **k == kind)
            .map(|(ns, _)| ns / scale)
            .collect()
    };
    let samples = rounds.iter().map(Vec::len).sum();
    let seconds: f64 = rounds.iter().flatten().sum::<f64>() / 1e9;
    Timings {
        miss_ms: of(Kind::Miss, 1e6),
        hit_us: of(Kind::Hit, 1e3),
        write_ms: of(Kind::Write, 1e6),
        throughput_qps: share(samples as f64, seconds),
        samples,
    }
}

/// The `p`-percentile of `samples`, or an error naming `name` when fewer
/// than ten samples lie beyond it: a short run never prints a placeholder.
fn tail(name: &str, samples: &[f64], p: f64) -> Result<f64, String> {
    percentile(samples, p).ok_or_else(|| {
        format!(
            "{name}: {} samples leave fewer than ten beyond the {p} quantile",
            samples.len()
        )
    })
}

fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let t = timings(&o.untraced, &o.kinds);
    let answered: u64 = o.counts.iter().map(|c| c.misses + c.hits).sum();
    let exact: u64 = o.counts.iter().map(|c| c.exact).sum();
    let value = |name: &str| -> Result<(f64, usize), String> {
        Ok(match name {
            "setup_s" => (median(&o.setup_s), o.setup_s.len()),
            "throughput_qps" => (t.throughput_qps, t.samples),
            "miss_p50_ms" => (tail(name, &t.miss_ms, 0.50)?, t.miss_ms.len()),
            "miss_p95_ms" => (tail(name, &t.miss_ms, 0.95)?, t.miss_ms.len()),
            "exact_share" => (share(exact as f64, answered as f64), answered as usize),
            "ok_share" => (
                share((o.attempted - o.failed) as f64, o.attempted as f64),
                o.attempted as usize,
            ),
            "heap_peak_mb" => (median(&o.heap_peak_mb), o.heap_peak_mb.len()),
            _ => unreachable!("every end-to-end metric is computed"),
        })
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (v, n) = value(name)?;
            Ok((name.to_owned(), v, unit, n))
        })
        .collect()
}

/// Per-call layer times the traced epochs record, reported as medians.
const LAYER_TIMES: [(&str, &str); 13] = [
    ("qparser.parse_plan_us", "us"),
    ("relalgebra.analyze_us", "us"),
    ("engine.dispatch_us", "us"),
    ("releval.columnar_ms", "ms"),
    ("releval.approx_ms", "ms"),
    ("releval.symbolic_ms", "ms"),
    ("releval.symbolic_punt_ms", "ms"),
    ("releval.worlds_fold_ms", "ms"),
    ("repairs.conflict_graph_ms", "ms"),
    ("repairs.fold_ms.complete", "ms"),
    ("repairs.fold_ms.nulls", "ms"),
    ("relmodel.db_clone_ms", "ms"),
    ("engine.census_ms", "ms"),
];

fn per_layer(o: &Outcome) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    let mut median_of = |name: String, unit| {
        let times = o.layers.times.get(&name).map_or(&[][..], Vec::as_slice);
        out.push((name, median(times), unit, times.len()));
    };
    for (name, unit) in LAYER_TIMES {
        median_of(name.to_owned(), unit);
    }
    for s in STRATEGIES {
        median_of(format!("engine.strategy_ms.{s}"), "ms");
    }

    // Counts are per epoch and repeat exactly, so the first epoch's stand
    // for all of them.
    let first = o.counts.first().cloned().unwrap_or_default();
    let misses: u64 = o.counts.iter().map(|c| c.misses).sum();
    let fallbacks: u64 = o.counts.iter().map(|c| c.fallbacks).sum();
    let requests = o.kinds.len() * o.untraced.len();
    let t = timings(&o.untraced, &o.kinds);
    let traced = timings(&o.traced, &o.kinds);
    // Hits and writes only some workloads have: a kind the schedule lacks
    // reads 0 with 0 samples.
    let pct = |name: &str, samples: &[f64], p| {
        if samples.is_empty() {
            Ok(0.0)
        } else {
            tail(name, samples, p)
        }
    };
    let built_or_reused = first.tables_built + first.tables_reused;
    out.extend([
        (
            "engine.fallback_share".into(),
            share(fallbacks as f64, misses as f64),
            "ratio",
            misses as usize,
        ),
        (
            "ctables.solver_calls".into(),
            first.solver_calls as f64,
            "count",
            1,
        ),
        (
            "releval.worlds_visited".into(),
            first.worlds_visited as f64,
            "count",
            1,
        ),
        (
            "releval.table_reuse_rate".into(),
            share(first.tables_reused as f64, built_or_reused as f64),
            "ratio",
            1,
        ),
        (
            "repairs.visited".into(),
            first.repairs_visited as f64,
            "count",
            1,
        ),
        (
            "repairs.batched_share".into(),
            share(first.repairs_batched as f64, first.repairs_visited as f64),
            "ratio",
            1,
        ),
        (
            "serve.result_hit_rate".into(),
            o.result_hit_rate,
            "ratio",
            requests,
        ),
        (
            "serve.plan_hit_rate".into(),
            o.plan_hit_rate,
            "ratio",
            requests,
        ),
        (
            "serve.hit_p50_us".into(),
            pct("serve.hit_p50_us", &t.hit_us, 0.50)?,
            "us",
            t.hit_us.len(),
        ),
        (
            "serve.hit_p99_us".into(),
            pct("serve.hit_p99_us", &t.hit_us, 0.99)?,
            "us",
            t.hit_us.len(),
        ),
        (
            "serve.write_p50_ms".into(),
            pct("serve.write_p50_ms", &t.write_ms, 0.50)?,
            "ms",
            t.write_ms.len(),
        ),
        (
            "serve.write_p95_ms".into(),
            pct("serve.write_p95_ms", &t.write_ms, 0.95)?,
            "ms",
            t.write_ms.len(),
        ),
        (
            "alloc_mb_per_op".into(),
            share(o.alloc_bytes as f64 / (1 << 20) as f64, requests as f64),
            "MiB",
            requests,
        ),
    ]);
    for class in CLASSES {
        let (layers, front_door) = o.layers.coverage.get(class).copied().unwrap_or_default();
        out.push((
            format!("trace.coverage.{class}"),
            share(layers, front_door),
            "ratio",
            1,
        ));
    }
    out.push((
        "trace.overhead_share".into(),
        1.0 - share(traced.throughput_qps, t.throughput_qps),
        "ratio",
        traced.samples,
    ));
    Ok(out)
}

fn print_table(args: &Args, o: &Outcome, metrics: &[Metric]) {
    println!(
        "# perfbench {} seed={} seconds={} trace={} epochs={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.epochs,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "# {:<34} {:>14} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, samples) in metrics {
        println!("# {name:<34} {value:>14.6} {unit:<6} {samples:>8}");
    }
    if !args.trace {
        // Latencies of operation types only some workloads have; the
        // per-layer run reports them too.
        let t = timings(&o.untraced, &o.kinds);
        for (name, samples, p, unit) in [
            ("hit_p50_us", &t.hit_us, 0.50, "us"),
            ("hit_p99_us", &t.hit_us, 0.99, "us"),
            ("write_p50_ms", &t.write_ms, 0.50, "ms"),
            ("write_p95_ms", &t.write_ms, 0.95, "ms"),
        ] {
            if let Some(v) = percentile(samples, p) {
                println!("# {name:<34} {v:>14.6} {unit:<6} {:>8}", samples.len());
            }
        }
    }
}

/// One JSON line of facts that are not metrics: the host drift probe, the
/// per-class time shares, the dispatch mix and the repeatable counts.
fn print_diagnostics(o: &Outcome, workload: &workload::Workload, reference_s: f64, wall_s: f64) {
    let probe = &o.probe_ms;
    let fold = |f: fn(f64, f64) -> f64, init| probe.iter().copied().fold(init, f);
    // Per request class, the kept (fastest) repetitions' latencies.
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for round in fastest_share(&o.untraced) {
        for (ns, op) in round.iter().zip(&workload.ops) {
            by_class.entry(op.class()).or_default().push(ns / 1e6);
        }
    }
    let total_ms: f64 = by_class.values().flatten().sum();
    let mut classes = String::new();
    for (i, (class, ms)) in by_class.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let max = ms.iter().copied().fold(0.0, f64::max);
        write!(
            classes,
            "{sep}\"{class}\": {{\"time_share\": {:.4}, \"p50_ms\": {:.4}, \"max_ms\": {max:.4}, \"n\": {}}}",
            share(ms.iter().sum(), total_ms),
            median(ms),
            ms.len()
        )
        .expect("writing to a String cannot fail");
    }
    let mut strategies = String::new();
    for (i, (name, n)) in o.strategies.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(strategies, "{sep}\"{name}\": {n}").expect("writing to a String cannot fail");
    }
    let repeat = repeats(o);
    // Each distinct epoch's counts once: one entry when they repeat.
    let mut distinct: Vec<&runner::Counts> = Vec::new();
    for c in &o.counts {
        if !distinct.contains(&c) {
            distinct.push(c);
        }
    }
    let counts = distinct
        .iter()
        .map(|c| format!("{c:?}"))
        .collect::<Vec<_>>()
        .join(" | ");
    let measured: f64 = o.untraced.iter().chain(&o.traced).flatten().sum::<f64>() / 1e9;
    println!(
        "{{\"diagnostics\": {{\"host.ref_ms\": {{\"median\": {:.4}, \"min\": {:.4}, \"max\": {:.4}, \
         \"samples\": {}}}, \"epochs\": {}, \"reference_s\": {reference_s:.3}, \"wall_s\": {wall_s:.3}, \
         \"measured_s\": {measured:.3}, \"classes\": {{{classes}}}, \"miss_strategies\": {{{strategies}}}, \
         \"counts_repeat\": {repeat}, \"epoch_counts\": \"{counts}\", \"prime_failures\": {}}}}}",
        median(probe),
        fold(f64::min, f64::INFINITY),
        fold(f64::max, 0.0),
        probe.len(),
        o.epochs,
        o.prime_failures,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run of `epochs` identical untraced epochs of `per_epoch` misses of
    /// one millisecond each.
    fn misses(epochs: usize, per_epoch: usize) -> Outcome {
        Outcome {
            epochs,
            kinds: vec![Kind::Miss; per_epoch],
            kinds_repeat: true,
            untraced: vec![vec![1e6; per_epoch]; epochs],
            setup_s: vec![0.5; epochs],
            counts: vec![Default::default(); epochs],
            ..Outcome::default()
        }
    }

    /// The names this program prints are the names BENCHMARK.json declares.
    #[test]
    fn metric_names_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let outcome = misses(1, 300);
        let end_to_end = end_to_end(&outcome).expect("one epoch of 300 misses has a p95");
        let per_layer = per_layer(&outcome).expect("a run without hits or writes");
        for (name, _, unit, _) in end_to_end.iter().chain(&per_layer) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("\"name\": ").count();
        let printed = END_TO_END.len() + per_layer.len() + workload::NAMES.len();
        assert_eq!(declared, printed, "BENCHMARK.json declares other names");
    }

    /// Too few epochs for a miss percentile: the run has no result instead
    /// of a 0 that would read as a gain.
    #[test]
    fn a_short_run_fails_instead_of_printing_zero() {
        let needed = stats::epochs_for(17, 0.95);
        let err = end_to_end(&misses(needed - 1, 17)).expect_err("short of samples");
        assert!(err.contains("miss_p95_ms"), "{err}");
        let metrics = end_to_end(&misses(needed, 17)).expect("enough samples");
        let p95 = metrics
            .iter()
            .find(|m| m.0 == "miss_p95_ms")
            .expect("printed");
        assert_eq!(p95.1, 1.0);
    }

    /// A count that differs between epochs, or a request that is a hit in
    /// one epoch and a miss in another, makes the run incorrect.
    #[test]
    fn differing_epochs_are_not_correct() {
        let mut outcome = misses(3, 17);
        assert!(repeats(&outcome));
        outcome.counts[2].worlds_visited += 1;
        assert!(!repeats(&outcome));
        let mut outcome = misses(3, 17);
        outcome.kinds_repeat = false;
        assert!(!repeats(&outcome));
    }
}
