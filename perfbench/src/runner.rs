//! The closed-loop client: one thread, one request at a time, each timed
//! through the service's front door and checked outside the timer.
//!
//! A run is a sequence of epochs. Each epoch sets up fresh services over
//! the workload's databases (timed: that is `setup_s`), then plays the
//! workload's schedule once. Epochs repeat until the timed requests add up
//! to the requested seconds and every reported percentile has its samples,
//! so set-up is sampled several times across the run, every request is
//! measured once per epoch on identical state, and every epoch's counts
//! must come out identical.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use engine::{Guarantee, StrategyKind};
use serve::CertainService;

use crate::alloc;
use crate::layers::Layers;
use crate::probe::Probe;
use crate::reference::Expected;
use crate::stats::epochs_for;
use crate::workload::{Op, Workload};

/// Epochs a run makes at least (set-up is a median over them).
const MIN_EPOCHS: usize = 3;
/// Wall-clock after which a run stops at the next epoch boundary, whatever
/// it has measured, so it always ends well inside three minutes. A run cut
/// here before its percentiles have their samples reports no result.
const WALL_LIMIT: Duration = Duration::from_secs(120);
/// Requests between two host probes.
const PROBE_EVERY: usize = 200;

/// Counts one epoch must reproduce exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub misses: u64,
    pub hits: u64,
    pub writes: u64,
    pub exact: u64,
    pub fallbacks: u64,
    pub plan_cache_hits: u64,
    pub result_cache_hits: u64,
    pub solver_calls: u64,
    pub worlds_visited: u128,
    pub tables_built: u64,
    pub tables_reused: u64,
    pub repairs_visited: u128,
    pub repairs_batched: u128,
}

/// What kind of request an answer was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit,
    Miss,
    Write,
    Error,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Outcome {
    pub epochs: usize,
    /// Set-up seconds of each untraced epoch.
    pub setup_s: Vec<f64>,
    /// Per untraced epoch, each request's front-door nanoseconds, in
    /// schedule order.
    pub untraced: Vec<Vec<f64>>,
    /// The same for traced epochs.
    pub traced: Vec<Vec<f64>>,
    /// Each request's kind, by schedule position, and whether every epoch
    /// agreed on it.
    pub kinds: Vec<Kind>,
    pub kinds_repeat: bool,
    pub attempted: u64,
    pub failed: u64,
    pub prime_failures: u64,
    /// Peak live heap of each untraced epoch's requests, above the live heap
    /// before its services were built, MiB.
    pub heap_peak_mb: Vec<f64>,
    /// Bytes allocated inside untraced requests.
    pub alloc_bytes: u64,
    pub counts: Vec<Counts>,
    pub result_hit_rate: f64,
    pub plan_hit_rate: f64,
    /// Strategies of computed reads, untraced epochs.
    pub strategies: BTreeMap<&'static str, u64>,
    pub layers: Layers,
    pub probe_ms: Vec<f64>,
}

/// One answered request, as the epoch loop sees it.
struct Answer {
    kind: Kind,
    ok: bool,
    nanos: f64,
    alloc: u64,
    strategy: Option<&'static str>,
}

/// Runs epochs until `seconds` of timed requests, and until the untraced
/// epochs give each `(kind, p)` of `tails` a `p`-percentile with ten
/// samples beyond it (or until the wall limit); with `traced`, every other
/// epoch replays each request's layers.
pub fn run(
    workload: &Workload,
    expected: &[Option<Arc<Expected>>],
    seconds: f64,
    traced: bool,
    tails: &[(Kind, f64)],
) -> Outcome {
    let (expected_primes, expected_ops) = expected.split_at(workload.primes.len());
    let mut out = Outcome {
        kinds_repeat: true,
        ..Outcome::default()
    };
    let mut probe = Probe::new();
    let mut measured = 0.0;
    let started = Instant::now();
    loop {
        let traced_epoch = traced && out.epochs % 2 == 1;
        probe.sample();
        measured += epoch(
            workload,
            expected_primes,
            expected_ops,
            traced_epoch,
            &mut probe,
            &mut out,
        );
        out.epochs += 1;
        let needed = tails
            .iter()
            .map(|&(kind, p)| epochs_for(out.kinds.iter().filter(|k| **k == kind).count(), p))
            .fold(MIN_EPOCHS, usize::max);
        let enough =
            out.untraced.len() >= needed && out.traced.len() >= MIN_EPOCHS * usize::from(traced);
        if (measured >= seconds && enough) || started.elapsed() >= WALL_LIMIT {
            break;
        }
    }
    probe.sample();
    out.probe_ms = probe.samples_ms().to_vec();
    out
}

/// Sets up fresh services, plays the schedule once, and returns the
/// seconds spent inside timed requests.
fn epoch(
    workload: &Workload,
    expected_primes: &[Option<Arc<Expected>>],
    expected_ops: &[Option<Arc<Expected>>],
    traced: bool,
    probe: &mut Probe,
    out: &mut Outcome,
) -> f64 {
    // The benchmark's own per-epoch buffers exist before the heap baseline,
    // so the peak counts the services and their requests only.
    let mut nanos = Vec::with_capacity(workload.ops.len());
    let mut kinds = Vec::with_capacity(workload.ops.len());
    let baseline = alloc::live();
    let databases = workload.databases.clone();
    let mut versions = vec![0u64; databases.len()];
    let started = Instant::now();
    let services: Vec<CertainService> = databases.into_iter().map(CertainService::new).collect();
    for (op, want) in workload.primes.iter().zip(expected_primes) {
        if !request(
            &services,
            &mut versions,
            op,
            want,
            &mut Counts::default(),
            None,
        )
        .ok
        {
            out.prime_failures += 1;
        }
    }
    let setup = started.elapsed().as_secs_f64();
    if traced {
        for service in &services {
            out.layers.setup(service.snapshot().database());
        }
    } else {
        out.setup_s.push(setup);
    }

    let before: Vec<_> = services.iter().map(CertainService::telemetry).collect();
    let mut counts = Counts::default();
    let mut alloc_bytes = 0;
    alloc::reset_peak();
    for (i, (op, want)) in workload.ops.iter().zip(expected_ops).enumerate() {
        if i % PROBE_EVERY == PROBE_EVERY - 1 {
            probe.sample();
        }
        let layers = traced.then_some(&mut out.layers);
        let answer = request(&services, &mut versions, op, want, &mut counts, layers);
        out.attempted += 1;
        out.failed += u64::from(!answer.ok);
        nanos.push(answer.nanos);
        kinds.push(answer.kind);
        alloc_bytes += answer.alloc;
        if let (false, Some(strategy)) = (traced, answer.strategy) {
            *out.strategies.entry(strategy).or_default() += 1;
        }
    }
    let peak = alloc::peak();

    let after: Vec<_> = services.iter().map(CertainService::telemetry).collect();
    let (mut queries, mut plan_lookups) = (0, 0);
    for (b, a) in before.iter().zip(&after) {
        let d = a.diff(b);
        queries += d.queries;
        plan_lookups += d.plan_hits + d.plan_misses;
        counts.result_cache_hits += d.result_hits;
        counts.plan_cache_hits += d.plan_hits;
    }
    drop(services);

    if out.kinds.is_empty() {
        out.kinds = kinds;
    } else if out.kinds != kinds {
        out.kinds_repeat = false;
    }
    let measured = nanos.iter().sum::<f64>() / 1e9;
    if traced {
        out.traced.push(nanos);
    } else {
        out.untraced.push(nanos);
        out.heap_peak_mb
            .push(peak.saturating_sub(baseline) as f64 / (1 << 20) as f64);
        out.alloc_bytes += alloc_bytes;
        out.result_hit_rate = ratio(counts.result_cache_hits, queries);
        out.plan_hit_rate = ratio(counts.plan_cache_hits, plan_lookups);
    }
    out.counts.push(counts);
    measured
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one operation through the front door, times it, checks it.
fn request(
    services: &[CertainService],
    versions: &mut [u64],
    op: &Op,
    want: &Option<Arc<Expected>>,
    counts: &mut Counts,
    layers: Option<&mut Layers>,
) -> Answer {
    match op {
        Op::Read {
            target,
            text,
            semantics,
            options,
            ..
        } => {
            let service = &services[*target];
            let alloc_before = alloc::total();
            let started = Instant::now();
            let result = service.submit_with(text, *semantics, *options);
            let nanos = started.elapsed().as_nanos() as f64;
            let alloc = (alloc::total() - alloc_before) as u64;
            let Ok(report) = result else {
                return Answer {
                    kind: Kind::Error,
                    ok: false,
                    nanos,
                    alloc,
                    strategy: None,
                };
            };
            let ok = want.as_ref().is_some_and(|e| e.matches(&report))
                && report.stats.snapshot_version == Some(versions[*target]);
            if report.stats.cache_hit {
                counts.hits += 1;
            } else {
                counts.misses += 1;
                counts.fallbacks +=
                    u64::from(report.stats.fallback.is_some() || report.stats.degraded);
                counts.solver_calls += report.stats.solver_calls.unwrap_or(0) as u64;
                counts.worlds_visited += report.stats.worlds_enumerated.unwrap_or(0);
                counts.repairs_visited += report.stats.repairs_enumerated.unwrap_or(0);
                counts.repairs_batched += report.stats.repairs_batched.unwrap_or(0);
                // The enumeration folds' split executor builds and reuses
                // hash tables across the worlds or repairs of a shard.
                if matches!(
                    report.strategy,
                    StrategyKind::WorldsGroundTruth | StrategyKind::RepairEnumeration
                ) {
                    if let Some(ops) = &report.stats.physical_ops {
                        counts.tables_built += ops.tables_built as u64;
                        counts.tables_reused += ops.tables_reused as u64;
                    }
                }
            }
            counts.exact += u64::from(report.guarantee == Guarantee::Exact);
            if let Some(layers) = layers {
                if !report.stats.cache_hit {
                    let snapshot = service.snapshot();
                    layers.read(&snapshot, op, &report, nanos);
                }
            }
            let kind = if report.stats.cache_hit {
                Kind::Hit
            } else {
                Kind::Miss
            };
            Answer {
                kind,
                ok,
                nanos,
                alloc,
                strategy: (kind == Kind::Miss).then(|| report.strategy.name()),
            }
        }
        Op::Write {
            target,
            relation,
            tuple,
        } => {
            let service = &services[*target];
            let alloc_before = alloc::total();
            let started = Instant::now();
            let version = service.update(|db| {
                db.insert(relation, tuple.clone())
                    .expect("written tuples match the schema");
            });
            let visible = service.version() == version;
            let nanos = started.elapsed().as_nanos() as f64;
            let alloc = (alloc::total() - alloc_before) as u64;
            versions[*target] += 1;
            counts.writes += 1;
            if let Some(layers) = layers {
                layers.write(&service.snapshot(), nanos);
            }
            Answer {
                kind: Kind::Write,
                ok: visible && version == versions[*target],
                nanos,
                alloc,
                strategy: None,
            }
        }
    }
}
