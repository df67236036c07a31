//! The dispatch table: one pure function from what is known about a query
//! and its database to the ordered chain of strategies that may answer it.
//!
//! Every strategy choice the engine makes is a row of [`dispatch`] (or the
//! one-step chain of [`forced`]). The function reads values only — the
//! query's class, the semantics, the analyzer's root facts, the null count,
//! the conflict-graph facts and the planner options — never a database or a
//! clock, so the whole table is enumerable in a unit test. The caller
//! gathers the conflict-graph facts with [`Conflicts::of`], which takes the
//! factorized repair count only when the table will read it.
//!
//! A chain ([`Dispatch::chain`]) holds one to three [`Step`]s. Each
//! carries its strategy, the guarantee it reports if it answers, the
//! [`FallbackReason`] the plan already knows for it, and whether answering
//! there is a degradation. The engine's walker runs the chain in order:
//!
//! * a step **answers**, and the walk ends;
//! * a step **punts** (the symbolic solver) or **aborts** (the repair fold):
//!   the next step takes over and reports the runtime cause;
//! * any other failure ends the walk with a typed error, as does a punt or
//!   an abort on the last step — which is how a forced strategy errs
//!   instead of degrading.
//!
//! Only the world step has a guard, `nulls ≤ max_nulls ∧ estimate ≤
//! max_worlds`, and the walker checks it lazily, when the chain reaches the
//! step: a failing guard skips to the next step. So a chain headed by the
//! symbolic strategy never pays for the world-count estimate unless it
//! punts.

use relalgebra::analysis::NodeFacts;
use relalgebra::classify::QueryClass;
use relalgebra::plan::PlannedQuery;
use releval::symbolic::PuntReason;
use relmodel::Database;
use repairs::{factorized_repair_count, ConflictGraph, RepairOptions};

use crate::{AnalyzerStats, EngineOptions, FallbackReason, Guarantee, Semantics, StrategyKind};

/// The conflict graph of a database that violates its constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Conflicts {
    pub violations: usize,
    pub conflict_tuples: usize,
    /// The Moon–Moser repair-count estimate.
    pub estimated_repairs: u128,
    /// The factorized fold's own element count
    /// (`repairs::fold::factorized_repair_count`), read only when the
    /// estimate exceeds the repair budget: `None` when the plan does not
    /// factorize, or when the estimate fits and the count was never taken.
    pub factorized_repairs: Option<u128>,
}

impl Conflicts {
    /// The facts of a conflict graph over `db`. The factorized count is
    /// taken only past the budget, where the table reads it, so a request
    /// within the budget never pays for it; `plan` yields the planned query
    /// then.
    pub fn of(
        graph: &ConflictGraph,
        db: &Database,
        options: &RepairOptions,
        plan: &dyn Fn() -> Option<PlannedQuery>,
    ) -> Conflicts {
        let estimated_repairs = graph.estimated_repairs();
        let factorized_repairs = (estimated_repairs > options.max_repairs)
            .then(plan)
            .flatten()
            .and_then(|plan| factorized_repair_count(&plan, db, graph, options));
        Conflicts {
            violations: graph.violation_count(),
            conflict_tuples: graph.conflict_tuples(),
            estimated_repairs,
            factorized_repairs,
        }
    }
}

/// Everything one dispatch decision reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Input<'a> {
    pub class: QueryClass,
    pub semantics: Semantics,
    /// The analyzer's root facts.
    pub facts: &'a NodeFacts,
    /// The query has a ground proper subtree to inline.
    pub inlinable: bool,
    /// Distinct nulls in the database.
    pub nulls: usize,
    /// Read under consistent answering only: `None` when the database
    /// satisfies its constraints (or declares none).
    pub conflicts: Option<Conflicts>,
    pub options: &'a EngineOptions,
}

/// The world budget guarding a world step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WorldGuard {
    nulls: usize,
    max_nulls: usize,
    max_worlds: u128,
}

impl WorldGuard {
    /// Does the budget admit an enumeration of `estimate` worlds?
    pub fn admits(self, estimate: u128) -> bool {
        self.nulls <= self.max_nulls && estimate <= self.max_worlds
    }
}

/// One step of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    pub strategy: StrategyKind,
    /// The guarantee the report carries if this step answers.
    pub guarantee: Guarantee,
    /// The fallback reason the report carries if this step answers, as far
    /// as the plan knows it. A step reached through a runtime punt or abort
    /// reports that cause instead.
    pub fallback: Option<FallbackReason>,
    /// Answering here is a degradation: only a failed world guard, the
    /// repair budget, or an aborted repair fold leads to this step.
    pub degraded: bool,
    /// The world budget, checked when the walk reaches this step.
    pub guard: Option<WorldGuard>,
}

impl Step {
    fn new(strategy: StrategyKind, class: QueryClass, semantics: Semantics) -> Step {
        Step {
            strategy,
            guarantee: strategy.guarantee(class, semantics),
            fallback: None,
            degraded: false,
            guard: None,
        }
    }

    fn degraded(self) -> Step {
        Step {
            degraded: true,
            ..self
        }
    }

    fn because(self, reason: FallbackReason) -> Step {
        Step {
            fallback: Some(reason),
            ..self
        }
    }
}

/// A dispatch decision: the chain, plus what the report records about how
/// it was reached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Dispatch {
    /// One to three steps, in the order the walk tries them.
    pub chain: Vec<Step>,
    /// Inline the ground proper subtrees before running the chain.
    pub split: bool,
    pub analyzer: Option<AnalyzerStats>,
    pub violations: Option<usize>,
    pub conflict_tuples: Option<usize>,
    pub estimated_repairs: Option<u128>,
}

/// A caller-forced strategy: a one-step chain whose guarantee is computed
/// honestly for the query's class, with nothing to fall back to.
pub(crate) fn forced(strategy: StrategyKind, class: QueryClass, semantics: Semantics) -> Dispatch {
    Dispatch {
        chain: vec![Step::new(strategy, class, semantics)],
        ..Dispatch::default()
    }
}

/// The planner's dispatch rule.
///
/// Under consistent answering, a database with violations enumerates its
/// repairs while the repair estimate fits the budget (falling back to the
/// conflict-free core if the fold aborts), and goes straight to the core
/// beyond it. The estimate is the Moon–Moser bound; past the budget, a
/// plan the repair fold factorizes is estimated by the fold's own element
/// count instead, which keeps a linear query exact far past the product.
/// A clean database's only repair is itself, so it takes the
/// certain-answer rows under CWA.
///
/// The certain-answer rows, refined by the static analyzer:
///
/// * **certainty preservation** — naïve evaluation, `Exact`, wherever the
///   class theorem or the analyzer's facts prove it exact;
/// * **OWA-as-CWA** — a monotone query has `certain_owa = certain_cwa`, so
///   under OWA it takes the CWA rows at full strength;
/// * **subtree splitting** — under (effective) CWA the ground proper
///   subtrees are inlined, and a remainder in the naïve-exact fragment
///   upgrades to naïve evaluation, `Exact`;
/// * otherwise symbolic c-tables under effective CWA, then the world oracle
///   within budget, then the sound approximation. A null-bearing `Values`
///   literal rules symbolic out at planning time with the same chain behind
///   it. Without symbolic, exhaustive mode tries the world oracle first, and
///   the default is the approximation alone.
pub(crate) fn dispatch(input: &Input<'_>) -> Dispatch {
    if input.semantics != Semantics::ConsistentAnswers {
        return certain(input);
    }
    let Some(conflicts) = input.conflicts else {
        return Dispatch {
            violations: Some(0),
            ..certain(input)
        };
    };
    let step = |strategy| Step::new(strategy, input.class, input.semantics);
    let core = step(StrategyKind::ConflictFreeCore).degraded();
    let budget = input.options.repair_options.max_repairs;
    let estimated = conflicts.estimated_repairs;
    let fits = estimated <= budget || conflicts.factorized_repairs.is_some_and(|n| n <= budget);
    let chain = if fits {
        vec![step(StrategyKind::RepairEnumeration), core]
    } else {
        vec![core.because(FallbackReason::RepairBudget { estimated, budget })]
    };
    Dispatch {
        chain,
        violations: Some(conflicts.violations),
        conflict_tuples: Some(conflicts.conflict_tuples),
        estimated_repairs: Some(estimated),
        ..Dispatch::default()
    }
}

/// The certain-answer rows of [`dispatch`].
fn certain(input: &Input<'_>) -> Dispatch {
    let (class, facts, options) = (input.class, input.facts, input.options);
    let base = input.semantics.base();
    let class_sound = class.naive_evaluation_sound(base);
    let mut analyzer = AnalyzerStats {
        ground: facts.ground,
        monotone: facts.monotone,
        ..AnalyzerStats::default()
    };
    let naive = |analyzer, split| Dispatch {
        chain: vec![Step {
            guarantee: Guarantee::Exact,
            ..Step::new(StrategyKind::NaiveExact, class, base.into())
        }],
        split,
        analyzer: Some(analyzer),
        ..Dispatch::default()
    };
    if class_sound || facts.certainty_preserving(base) {
        analyzer.upgraded = !class_sound;
        return naive(analyzer, false);
    }
    analyzer.owa_as_cwa = base == relmodel::Semantics::Owa && facts.monotone;
    let semantics = if analyzer.owa_as_cwa {
        Semantics::Cwa
    } else {
        base.into()
    };
    // Subtree splitting is sound whenever the split-off region has the same
    // value in every (effective-CWA) world.
    let split = semantics == Semantics::Cwa && input.inlinable;
    if split
        && facts
            .split_class
            .naive_evaluation_sound(relmodel::Semantics::Cwa)
    {
        analyzer.upgraded = true;
        return naive(analyzer, true);
    }
    let step = |strategy| Step::new(strategy, class, semantics);
    let worlds = Step {
        guard: Some(WorldGuard {
            nulls: input.nulls,
            max_nulls: options.max_nulls,
            max_worlds: options.world_options.max_worlds,
        }),
        ..step(StrategyKind::WorldsGroundTruth)
    };
    let approximation = step(StrategyKind::SoundApproximation);
    // Under OWA the symbolic answer only over-approximates for
    // non-monotone classes, so symbolic runs under effective CWA only.
    let chain = if options.symbolic && semantics == Semantics::Cwa {
        if facts.has_null_literal {
            // The c-table algebra would conflate literal and database
            // nulls: rule symbolic out, with the punt chain behind it.
            let ruled_out = FallbackReason::Symbolic(PuntReason::NullValuesLiteral);
            vec![
                worlds.because(ruled_out),
                approximation.degraded().because(ruled_out),
            ]
        } else {
            let symbolic = step(StrategyKind::SymbolicCTable);
            vec![symbolic, worlds, approximation.degraded()]
        }
    } else if options.exhaustive {
        vec![worlds, approximation.degraded()]
    } else {
        vec![approximation]
    };
    Dispatch {
        chain,
        split,
        analyzer: Some(analyzer),
        ..Dispatch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalgebra::analysis::ColumnNulls;

    const CLASSES: [QueryClass; 3] = [QueryClass::Positive, QueryClass::RaCwa, QueryClass::FullRa];
    const SEMANTICS: [Semantics; 3] =
        [Semantics::Cwa, Semantics::Owa, Semantics::ConsistentAnswers];

    /// Runs `check` on every input the table distinguishes, with its
    /// decision: class × split class × each analyzer fact × semantics ×
    /// (clean, conflicting) × symbolic × exhaustive × a repair budget below
    /// or at the estimate.
    fn for_each_input(mut check: impl FnMut(&Input<'_>, &Dispatch)) {
        let conflicting = |factorized_repairs| {
            Some(Conflicts {
                violations: 1,
                conflict_tuples: 2,
                estimated_repairs: 2,
                factorized_repairs,
            })
        };
        for (class, split_class, bits) in CLASSES
            .into_iter()
            .flat_map(|c| CLASSES.map(|s| (c, s)))
            .flat_map(|(c, s)| (0..16u32).map(move |bits| (c, s, bits)))
        {
            let bit = |i: u32| bits & (1 << i) != 0;
            let facts = NodeFacts {
                class,
                split_class,
                ground: bit(0),
                monotone: bit(1),
                constant: false,
                has_null_literal: bit(2),
                positive_conditions: true,
                dup_sensitive: false,
                nullable: ColumnNulls::Unknown,
                size: 1,
            };
            for semantics in SEMANTICS {
                for conflicts in [None, conflicting(None), conflicting(Some(1))] {
                    for options_bits in 0..8u32 {
                        let option = |i: u32| options_bits & (1 << i) != 0;
                        let options = EngineOptions {
                            symbolic: option(0),
                            exhaustive: option(1),
                            ..EngineOptions::default().with_max_repairs(if option(2) {
                                2
                            } else {
                                1
                            })
                        };
                        let input = Input {
                            class,
                            semantics,
                            facts: &facts,
                            inlinable: bit(3),
                            nulls: 1,
                            conflicts,
                            options: &options,
                        };
                        check(&input, &dispatch(&input));
                    }
                }
            }
        }
    }

    /// Is `step`'s `Exact` backed by a theorem for this input and dispatch?
    fn exact_is_backed(input: &Input<'_>, dispatch: &Dispatch, step: &Step) -> bool {
        let base = input.semantics.base();
        let effective_cwa = base == relmodel::Semantics::Cwa || input.facts.monotone;
        match step.strategy {
            // Naïve evaluation on its class, by certainty preservation, or
            // on the naïve-exact remainder of a subtree split.
            StrategyKind::NaiveExact => {
                input.class.naive_evaluation_sound(base)
                    || input.facts.certainty_preserving(base)
                    || (dispatch.split
                        && input
                            .facts
                            .split_class
                            .naive_evaluation_sound(relmodel::Semantics::Cwa))
            }
            // Strong representation plus a complete solver, and the worlds
            // themselves, under (effective) CWA.
            StrategyKind::SymbolicCTable | StrategyKind::WorldsGroundTruth => effective_cwa,
            StrategyKind::RepairEnumeration => input.semantics == Semantics::ConsistentAnswers,
            _ => false,
        }
    }

    #[test]
    fn exact_is_reported_only_where_a_theorem_backs_it() {
        let mut exact = 0;
        for_each_input(|input, dispatch| {
            for step in &dispatch.chain {
                if step.guarantee == Guarantee::Exact {
                    exact += 1;
                    assert!(
                        exact_is_backed(input, dispatch, step),
                        "{step:?} claims Exact for {input:?}"
                    );
                }
            }
        });
        assert!(exact > 0);
    }

    #[test]
    fn every_chain_ends_in_a_step_that_cannot_fail() {
        for_each_input(|input, dispatch| {
            let steps = &dispatch.chain;
            assert!((1..=3).contains(&steps.len()), "{input:?}");
            let last = steps.last().expect("a chain is never empty");
            assert!(
                last.guard.is_none()
                    && matches!(
                        last.strategy,
                        StrategyKind::NaiveExact
                            | StrategyKind::SoundApproximation
                            | StrategyKind::ConflictFreeCore
                    ),
                "{last:?} can fail, ending the chain for {input:?}"
            );
            for step in steps {
                assert_eq!(
                    step.guard.is_some(),
                    step.strategy == StrategyKind::WorldsGroundTruth,
                    "only the world step is guarded: {input:?}"
                );
            }
        });
    }

    #[test]
    fn later_steps_never_claim_more_than_earlier_ones() {
        for_each_input(|input, dispatch| {
            let steps = &dispatch.chain;
            for (i, earlier) in steps.iter().enumerate() {
                for later in &steps[i + 1..] {
                    let (e, l) = (earlier.guarantee, later.guarantee);
                    assert!(
                        e.answers_are_certain() || !l.answers_are_certain(),
                        "{later:?} claims certainty {earlier:?} did not: {input:?}"
                    );
                    assert!(
                        e.answers_are_complete() || !l.answers_are_complete(),
                        "{later:?} claims completeness {earlier:?} did not: {input:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn degradation_and_reasons_follow_how_a_step_is_reached() {
        let ruled_out = Some(FallbackReason::Symbolic(PuntReason::NullValuesLiteral));
        for_each_input(|input, dispatch| {
            let steps = &dispatch.chain;
            for (i, step) in steps.iter().enumerate() {
                let after = i.checked_sub(1).map(|j| steps[j].strategy);
                let budget = matches!(step.fallback, Some(FallbackReason::RepairBudget { .. }));
                // Only a failed guard, an aborted fold or the repair budget
                // leads to a degraded step.
                assert_eq!(
                    step.degraded,
                    budget
                        || matches!(
                            after,
                            Some(StrategyKind::WorldsGroundTruth | StrategyKind::RepairEnumeration)
                        ),
                    "{step:?} at {i} for {input:?}"
                );
                // Before running, only the symbolic rule-out and the repair
                // budget are known reasons.
                assert!(
                    step.fallback.is_none() || step.fallback == ruled_out || budget,
                    "{step:?} for {input:?}"
                );
            }
            let repairs =
                input.semantics == Semantics::ConsistentAnswers && input.conflicts.is_some();
            assert_eq!(dispatch.analyzer.is_none(), repairs, "{input:?}");
            let violations = match (input.semantics, input.conflicts) {
                (Semantics::ConsistentAnswers, Some(c)) => Some(c.violations),
                (Semantics::ConsistentAnswers, None) => Some(0),
                _ => None,
            };
            assert_eq!(dispatch.violations, violations, "{input:?}");
        });
    }

    #[test]
    fn factorized_counts_are_read_past_the_estimate_only() {
        let facts = NodeFacts {
            class: QueryClass::Positive,
            split_class: QueryClass::Positive,
            ground: false,
            monotone: true,
            constant: false,
            has_null_literal: false,
            positive_conditions: true,
            dup_sensitive: false,
            nullable: ColumnNulls::Unknown,
            size: 1,
        };
        let options = EngineOptions::default().with_max_repairs(4);
        let head = |estimated_repairs, factorized_repairs| {
            let input = Input {
                class: QueryClass::Positive,
                semantics: Semantics::ConsistentAnswers,
                facts: &facts,
                inlinable: false,
                nulls: 0,
                conflicts: Some(Conflicts {
                    violations: 1,
                    conflict_tuples: 2,
                    estimated_repairs,
                    factorized_repairs,
                }),
                options: &options,
            };
            let step = dispatch(&input).chain[0];
            (step.strategy, step.fallback.is_some())
        };
        let repairs = (StrategyKind::RepairEnumeration, false);
        let core = (StrategyKind::ConflictFreeCore, true);
        // Within the budget, the estimate decides alone.
        assert_eq!(head(4, None), repairs);
        assert_eq!(head(4, Some(100)), repairs);
        // Past it, the factorized count decides, when there is one.
        assert_eq!(head(9, None), core);
        assert_eq!(head(9, Some(4)), repairs);
        assert_eq!(head(9, Some(5)), core);
    }

    #[test]
    fn forced_chains_are_one_honest_step() {
        for class in CLASSES {
            for semantics in SEMANTICS {
                for strategy in StrategyKind::ALL {
                    let dispatch = forced(strategy, class, semantics);
                    assert_eq!(dispatch.chain, [Step::new(strategy, class, semantics)]);
                    assert_eq!(dispatch.analyzer, None);
                }
            }
        }
    }
}
