//! Deep or huge query text is refused with a typed error instead of
//! overflowing a thread's stack.
//!
//! Every stage after the parser (typechecking, lowering, analysis, each
//! evaluator) walks the query recursively, and a stack overflow cannot be
//! caught, so `qparser::parse` bounds the depth of what it builds by
//! [`qparser::MAX_DEPTH`]. These tests drive that bound through every text
//! entry point, on a small 2 MiB thread, in both shapes of deep text:
//! prefix nesting (which recurses in the parser) and left-deep operator
//! chains (which parse iteratively but build deep trees). Expressions built
//! through the library API meet the same bound, [`RaExpr::depth`] against
//! [`MAX_DEPTH`], at every engine door and in [`PlannedQuery::new`].

use incomplete_data::prelude::*;
use incomplete_data::qparser::{self, ParseError, PlanTextError, MAX_DEPTH};
use relalgebra::predicate::{Operand, Predicate};
use relalgebra::typecheck::TypeError;
use relmodel::{DatabaseBuilder, Value};

/// A stack small enough that an unbounded recursion over a few thousand
/// levels would overflow it, in debug builds in particular.
const SMALL_STACK: usize = 2 << 20;

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .expect("thread spawns")
        .join()
        .expect("no panic and no overflow on a 2 MiB stack");
}

fn db() -> Database {
    DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .relation("S", &["a", "b"])
        .ints("R", &[1, 2])
        .ints("R", &[2, 3])
        .tuple("R", vec![Value::int(3), Value::null(0)])
        .ints("S", &[2, 3])
        .tuple("S", vec![Value::null(1), Value::int(1)])
        .build()
}

fn is_too_deep(err: &EngineError) -> bool {
    matches!(
        err,
        EngineError::Text(PlanTextError::Parse(ParseError::TooDeep {
            limit: MAX_DEPTH
        }))
    )
}

/// Text ten times deeper than the limit — nested and chained, in the
/// expression and in a predicate — plus the pathological sizes that used
/// to abort the process (100k nested parentheses, a 10,000-term chain).
#[test]
fn text_far_past_the_limit_is_refused_by_every_entry_point() {
    on_small_stack(|| {
        let n = 10 * MAX_DEPTH;
        let texts = [
            format!("{}R{}", "select[#0 = 1](".repeat(n), ")".repeat(n)),
            format!("{}R{}", "(".repeat(100_000), ")".repeat(100_000)),
            vec!["R"; n].join(" minus "),
            vec!["R"; 10_000].join(" minus "),
            format!("select[{}](R)", vec!["#0 = 1"; n].join(" or ")),
            format!("select[{}#0 = 1](R)", "not ".repeat(n)),
        ];
        let db = db();
        let engine = Engine::new(&db);
        let service = CertainService::new(db.clone());
        for text in &texts {
            let head = &text[..40.min(text.len())];
            assert_eq!(
                qparser::parse(text),
                Err(ParseError::TooDeep { limit: MAX_DEPTH }),
                "parse of {head}…"
            );
            let err = engine.plan_text(text).unwrap_err();
            assert!(is_too_deep(&err), "Engine::plan_text of {head}…: {err}");
            let err = service.submit(text).unwrap_err();
            assert!(
                is_too_deep(&err),
                "CertainService::submit of {head}…: {err}"
            );
        }
    });
}

/// A query mixing every operator, exactly at the depth limit, is answered
/// end to end on a 2 MiB stack; one more level is refused.
#[test]
fn a_mixed_query_at_the_limit_is_answered_on_a_small_stack() {
    on_small_stack(|| {
        // Depth 3: π over a product.
        let mut text = "project[#0, #3](product(R, S))".to_owned();
        let mut depth = 3;
        let wrap = |text: &str, level: usize| match level % 5 {
            0 => format!("select[#0 = 1 or #1 != 2]({text})"),
            1 => format!("project[#1, #0]({text})"),
            2 => format!("{text} union S"),
            3 => format!("{text} minus S"),
            _ => format!("{text} intersect R"),
        };
        while depth < MAX_DEPTH {
            text = wrap(&text, depth);
            depth += 1;
        }
        let db = db();
        let report = Engine::new(&db)
            .plan_text(&text)
            .expect("a query at the limit is answered");
        assert_eq!(report.class, QueryClass::FullRa);
        let deeper = wrap(&text, depth);
        assert_eq!(
            qparser::parse(&deeper),
            Err(ParseError::TooDeep { limit: MAX_DEPTH })
        );
    });
}

/// Expressions ten thousand levels deep, built through the API: a
/// difference chain and a selection under a chain of negations. Each door
/// refuses them before any recursive walk, on a 2 MiB stack. The trees are
/// built and dropped on a large stack: dropping one recurses.
#[test]
fn deep_expressions_are_refused_at_every_engine_door() {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let levels = 10_000;
            let mut chain = RaExpr::relation("R");
            let mut negations = Predicate::eq(Operand::col(0), Operand::col(1));
            for _ in 0..levels {
                chain = chain.difference(RaExpr::relation("S"));
                negations = Predicate::Not(Box::new(negations));
            }
            let selection = RaExpr::relation("R").select(negations);
            assert_eq!(chain.depth(), levels + 1);
            assert_eq!(selection.depth(), levels + 2);
            let db = db();
            let too_deep = TypeError::TooDeep { limit: MAX_DEPTH };
            for deep in [&chain, &selection] {
                std::thread::scope(|scope| {
                    std::thread::Builder::new()
                        .stack_size(SMALL_STACK)
                        .spawn_scoped(scope, || {
                            let engine = Engine::new(&db);
                            let refused = |err: EngineError| {
                                assert_eq!(err, EngineError::Type(too_deep.clone()));
                            };
                            refused(engine.plan(deep).unwrap_err());
                            refused(engine.ground_truth(deep).unwrap_err());
                            refused(
                                engine
                                    .plan_with(StrategyKind::NaiveExact, deep)
                                    .unwrap_err(),
                            );
                            refused(engine.analyze(deep).unwrap_err());
                            refused(engine.explain_analyze(deep).unwrap_err());
                            // The preview has no error to return: it
                            // promises nothing instead of analyzing.
                            assert_eq!(
                                engine.select_strategy(deep, QueryClass::FullRa),
                                (StrategyKind::ThreeValuedBaseline, Guarantee::NoGuarantee)
                            );
                        })
                        .expect("thread spawns")
                        .join()
                        .expect("no panic and no overflow on a 2 MiB stack");
                });
                assert_eq!(
                    PlannedQuery::new(deep.clone(), db.schema()),
                    Err(too_deep.clone())
                );
            }
        })
        .expect("thread spawns")
        .join()
        .expect("the deep trees build and drop on a large stack");
}
