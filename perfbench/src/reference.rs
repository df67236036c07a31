//! Expected answers, computed before any timing through a second public
//! path: a direct `Engine` on the same database version, or the row folds
//! that define the enumeration strategies.

use std::collections::HashMap;
use std::sync::Arc;

use engine::{CertainReport, Engine, Guarantee, StrategyKind};
use relmodel::{Database, Relation};
use repairs::{stream_consistent_answer_rows, ConflictGraph};

use crate::workload::{Check, Op, Workload};

/// What a read must return.
#[derive(Debug)]
pub struct Expected {
    pub answers: Relation,
    pub guarantee: Guarantee,
    /// The strategy a direct engine chose; `None` for the fold references,
    /// which do not dispatch.
    pub strategy: Option<StrategyKind>,
}

impl Expected {
    /// Does `report` carry this answer?
    pub fn matches(&self, report: &CertainReport) -> bool {
        report.answers == self.answers
            && report.guarantee == self.guarantee
            && self.strategy.is_none_or(|s| s == report.strategy)
    }
}

/// The expected outcome of each of `primes` then `ops` (one epoch): for a
/// read its answer, `None` where the reference itself failed; for a write
/// `None`. Writes are replayed on private copies, so each read is checked
/// against the version it runs on.
pub fn expected(workload: &Workload) -> Vec<Option<Arc<Expected>>> {
    let mut dbs: Vec<Database> = workload.databases.clone();
    let mut versions = vec![0u64; dbs.len()];
    let mut graphs: HashMap<(usize, u64), ConflictGraph> = HashMap::new();
    type Key = (usize, u64, String, engine::Semantics, u64);
    let mut memo: HashMap<Key, Option<Arc<Expected>>> = HashMap::new();
    let mut out = Vec::new();
    for op in workload.primes.iter().chain(&workload.ops) {
        match op {
            Op::Write {
                target,
                relation,
                tuple,
            } => {
                dbs[*target]
                    .insert(relation, tuple.clone())
                    .expect("written tuples match the schema");
                versions[*target] += 1;
                out.push(None);
            }
            Op::Read {
                target,
                text,
                semantics,
                options,
                check,
                ..
            } => {
                let key = (
                    *target,
                    versions[*target],
                    text.clone(),
                    *semantics,
                    options.fingerprint(),
                );
                let db = &dbs[*target];
                let entry = memo.entry(key).or_insert_with(|| {
                    let expected = match check {
                        Check::Engine => Engine::new(db)
                            .semantics(*semantics)
                            .options(*options)
                            .plan_text(text)
                            .ok()
                            .map(|r| Expected {
                                answers: r.answers,
                                guarantee: r.guarantee,
                                strategy: Some(r.strategy),
                            }),
                        Check::RepairRows => {
                            let graph = graphs
                                .entry((*target, versions[*target]))
                                .or_insert_with(|| ConflictGraph::build(db));
                            qparser::parse_and_plan(text, db.schema())
                                .ok()
                                .and_then(|plan| {
                                    stream_consistent_answer_rows(
                                        &plan,
                                        db,
                                        graph,
                                        &options.repair_options,
                                    )
                                    .ok()
                                })
                                .map(|e| exact(e.answers))
                        }
                        Check::WorldRows => qparser::parse_and_plan(text, db.schema())
                            .ok()
                            .and_then(|plan| {
                                releval::worlds::stream_certain_answer_rows(
                                    &plan,
                                    db,
                                    semantics.base(),
                                    &options.world_options,
                                )
                                .ok()
                            })
                            .map(|e| exact(e.answers)),
                    };
                    expected.map(Arc::new)
                });
                out.push(entry.clone());
            }
        }
    }
    out
}

fn exact(answers: Relation) -> Expected {
    Expected {
        answers,
        guarantee: Guarantee::Exact,
        strategy: None,
    }
}
