//! Dispatch-matrix coverage: one table-driven test asserting, for **every**
//! `QueryClass` × semantics × planner mode, which strategy the engine picks
//! and which guarantee it reports. This locks the classify-and-dispatch
//! contract — the one PR 2 had to patch twice — so any future change to the
//! planner is a *visible* diff in this table, never a silent regression.

use incomplete_data::prelude::*;
use incomplete_data::repairs::{factorized_repair_count, ConflictGraph, RepairOptions};
use relalgebra::classify::classify;

/// Representative queries per class over the orders/payments schema.
fn query_for(class: QueryClass) -> RaExpr {
    let (text, expected) = match class {
        QueryClass::Positive => ("project[#0](Order)", QueryClass::Positive),
        // Division by a base-relation projection is the emblematic RA_cwa
        // operator.
        QueryClass::RaCwa => (
            "product(project[#0](Order), project[#1](Pay)) divide project[#1](Pay)",
            QueryClass::RaCwa,
        ),
        QueryClass::FullRa => (
            "project[#0](Order) minus project[#1](Pay)",
            QueryClass::FullRa,
        ),
    };
    let q = incomplete_data::qparser::parse(text).unwrap();
    assert_eq!(classify(&q), expected, "fixture drift for {text}");
    q
}

/// One planner mode of the matrix.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Default,
    Exhaustive,
    DefaultNoSymbolic,
    ExhaustiveNoSymbolic,
}

fn options(mode: Mode) -> EngineOptions {
    match mode {
        Mode::Default => EngineOptions::default(),
        Mode::Exhaustive => EngineOptions::exhaustive(),
        Mode::DefaultNoSymbolic => EngineOptions::default().without_symbolic(),
        Mode::ExhaustiveNoSymbolic => EngineOptions::exhaustive().without_symbolic(),
    }
}

#[test]
fn the_dispatch_matrix() {
    use Guarantee::*;
    use Mode::*;
    use QueryClass::*;
    use Semantics::*;
    use StrategyKind::*;

    // (class, semantics, mode) → (strategy, guarantee). Every row of the
    // engine's documented dispatch table, plus the symbolic/exhaustive
    // interactions the docs describe in prose.
    let matrix: &[(QueryClass, Semantics, Mode, StrategyKind, Guarantee)] = &[
        // Positive: the naïve theorem covers both semantics, all modes.
        (Positive, Cwa, Default, NaiveExact, Exact),
        (Positive, Owa, Default, NaiveExact, Exact),
        (Positive, Cwa, Exhaustive, NaiveExact, Exact),
        (Positive, Owa, Exhaustive, NaiveExact, Exact),
        (Positive, Cwa, DefaultNoSymbolic, NaiveExact, Exact),
        // RA_cwa: naïve under CWA; approximation (complete) under OWA,
        // upgrading to enumeration in exhaustive mode.
        (RaCwa, Cwa, Default, NaiveExact, Exact),
        (RaCwa, Owa, Default, SoundApproximation, Complete),
        (RaCwa, Cwa, Exhaustive, NaiveExact, Exact),
        (RaCwa, Owa, Exhaustive, WorldsGroundTruth, Complete),
        (RaCwa, Owa, DefaultNoSymbolic, SoundApproximation, Complete),
        // Full RA: the symbolic strategy owns CWA (in every mode where it is
        // enabled); OWA keeps the pre-symbolic rules.
        (FullRa, Cwa, Default, SymbolicCTable, Exact),
        (FullRa, Cwa, Exhaustive, SymbolicCTable, Exact),
        (FullRa, Cwa, DefaultNoSymbolic, SoundApproximation, Sound),
        (FullRa, Cwa, ExhaustiveNoSymbolic, WorldsGroundTruth, Exact),
        (FullRa, Owa, Default, SoundApproximation, NoGuarantee),
        (FullRa, Owa, Exhaustive, WorldsGroundTruth, Complete),
        (
            FullRa,
            Owa,
            DefaultNoSymbolic,
            SoundApproximation,
            NoGuarantee,
        ),
    ];

    let db = relmodel::builder::orders_and_payments_example();
    for &(class, semantics, mode, strategy, guarantee) in matrix {
        let q = query_for(class);
        let engine = Engine::new(&db).semantics(semantics).options(options(mode));
        let context = format!("{class:?} × {semantics} × {mode:?}");
        // The preview and the executed report must agree with the table —
        // and with each other.
        assert_eq!(
            engine.select_strategy(&q, class),
            (strategy, guarantee),
            "select_strategy for {context}"
        );
        let report = engine.plan(&q).unwrap();
        assert_eq!(report.strategy, strategy, "executed strategy for {context}");
        assert_eq!(report.guarantee, guarantee, "guarantee for {context}");
        assert_eq!(report.class, class, "classified class for {context}");
        assert!(!report.stats.degraded, "no degradation expected: {context}");
    }
}

/// The consistent-answers rows of the matrix: clean database → delegate to
/// the certain pipeline; dirty within the repair budget → repair
/// enumeration, exact; dirty beyond it → conflict-free core, sound, with
/// the reason recorded. One row per query class per planner state.
#[test]
fn the_consistent_answers_rows() {
    use engine::Semantics as ES;

    // R(k, v) with key k and S(v), queries covering all three classes.
    let queries: &[(QueryClass, &str)] = &[
        (QueryClass::Positive, "project[#1](R)"),
        (QueryClass::RaCwa, "R divide S"),
        (QueryClass::FullRa, "project[#1](R) minus S"),
    ];
    let clean = relmodel::DatabaseBuilder::new()
        .relation("R", &["k", "v"])
        .relation("S", &["v"])
        .key("R", &["k"])
        .ints("R", &[1, 10])
        .ints("R", &[2, 30])
        .ints("S", &[10])
        .build();
    let dirty = relmodel::DatabaseBuilder::new()
        .relation("R", &["k", "v"])
        .relation("S", &["v"])
        .key("R", &["k"])
        .ints("R", &[1, 10])
        .ints("R", &[1, 20])
        .ints("R", &[2, 30])
        .ints("S", &[10])
        .build();

    for &(class, text) in queries {
        let q = incomplete_data::qparser::parse(text).unwrap();
        assert_eq!(classify(&q), class, "fixture drift for {text}");

        // Clean: delegate to the certain pipeline, `Exact`. The clean
        // database is also *complete*, so the analyzer proves every query
        // ground and the delegate is naïve evaluation across all classes —
        // even full RA needs no symbolic machinery when no null exists.
        let report = Engine::new(&clean)
            .semantics(ES::ConsistentAnswers)
            .plan(&q)
            .unwrap();
        assert_eq!(
            report.strategy,
            StrategyKind::NaiveExact,
            "clean × {class:?}"
        );
        assert_eq!(report.guarantee, Guarantee::Exact, "clean × {class:?}");
        assert_eq!(report.stats.violations, Some(0), "clean × {class:?}");

        // Dirty, within budget: repair enumeration, exact for every class.
        let report = Engine::new(&dirty)
            .semantics(ES::ConsistentAnswers)
            .plan(&q)
            .unwrap();
        assert_eq!(
            report.strategy,
            StrategyKind::RepairEnumeration,
            "dirty × {class:?}"
        );
        assert_eq!(report.guarantee, Guarantee::Exact, "dirty × {class:?}");
        assert!(!report.stats.degraded, "dirty × {class:?}");

        // Dirty, starved budget: the sound core with the reason recorded.
        let report = Engine::new(&dirty)
            .semantics(ES::ConsistentAnswers)
            .options(EngineOptions::default().with_max_repairs(1))
            .plan(&q)
            .unwrap();
        assert_eq!(
            report.strategy,
            StrategyKind::ConflictFreeCore,
            "starved × {class:?}"
        );
        assert_eq!(report.guarantee, Guarantee::Sound, "starved × {class:?}");
        assert!(report.stats.degraded, "starved × {class:?}");
        assert!(
            matches!(
                report.stats.fallback,
                Some(FallbackReason::RepairBudget {
                    estimated: 2,
                    budget: 1
                })
            ),
            "starved × {class:?}: {:?}",
            report.stats.fallback
        );
    }
}

/// The analyzer rows of the matrix: per query shape × **null census**,
/// which strategy and guarantee the census-aware dispatch yields. These are
/// the upgrades (and non-upgrades) the static analyzer adds on top of the
/// class-based table above — the same query moves between rows as the
/// database's nulls move.
#[test]
fn the_analyzer_rows() {
    use Guarantee::*;
    use StrategyKind::*;

    // R(a, b), S(a): one null-free instance, one with a null in R.
    let complete = relmodel::DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .relation("S", &["a"])
        .ints("R", &[1, 10])
        .ints("R", &[2, 20])
        .ints("S", &[1])
        .build();
    let nullbearing = relmodel::DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .relation("S", &["a"])
        .ints("R", &[1, 10])
        .tuple("R", vec![relmodel::Value::int(2), relmodel::Value::null(0)])
        .ints("S", &[1])
        .build();

    // A non-monotone full-RA query and a monotone one (σ≠ is full RA but
    // instance-monotone).
    let difference = "project[#0](R) minus S";
    let monotone = "project[#0](select[#1 != 3](R))";
    // A mixed query: ground difference core over S under a union reading
    // the nullable R.
    let mixed = "(S minus project[#0](R)) union project[#0](R)";
    let mixed_ground_core = "(S minus S) union project[#0](R)";

    // (query, db, semantics, no_symbolic, strategy, guarantee, upgraded)
    let rows: &[(
        &str,
        &relmodel::Database,
        Semantics,
        bool,
        StrategyKind,
        Guarantee,
        bool,
    )] = &[
        // Groundness upgrade: a complete database makes full RA naïve-exact
        // under CWA — and under OWA it does NOT (supersets can shrink a
        // difference), so the class rules keep ruling there.
        (
            difference,
            &complete,
            Semantics::Cwa,
            false,
            NaiveExact,
            Exact,
            true,
        ),
        (
            difference,
            &complete,
            Semantics::Owa,
            false,
            SoundApproximation,
            NoGuarantee,
            false,
        ),
        // With a null in reach, CWA full RA goes symbolic as before.
        (
            difference,
            &nullbearing,
            Semantics::Cwa,
            false,
            SymbolicCTable,
            Exact,
            false,
        ),
        // Monotonicity upgrade: monotone + ground is exact even under OWA …
        (
            monotone,
            &complete,
            Semantics::Owa,
            false,
            NaiveExact,
            Exact,
            true,
        ),
        // … and a monotone query over nulls lets OWA borrow the CWA
        // machinery (symbolic, exact) — the owa-as-cwa rule.
        (
            monotone,
            &nullbearing,
            Semantics::Owa,
            false,
            SymbolicCTable,
            Exact,
            false,
        ),
        (
            monotone,
            &nullbearing,
            Semantics::Cwa,
            false,
            SymbolicCTable,
            Exact,
            false,
        ),
        // Subtree split: the ground difference core is inlined and the
        // positive remainder runs naïvely — exact with no symbolic engine
        // at all.
        (
            mixed_ground_core,
            &nullbearing,
            Semantics::Cwa,
            true,
            NaiveExact,
            Exact,
            true,
        ),
        // The same shape with the nullable R inside the core cannot split:
        // the class verdict (sound approximation) stands.
        (
            mixed,
            &nullbearing,
            Semantics::Cwa,
            true,
            SoundApproximation,
            Sound,
            false,
        ),
    ];

    for &(text, db, semantics, no_symbolic, strategy, guarantee, upgraded) in rows {
        let q = incomplete_data::qparser::parse(text).unwrap();
        let options = if no_symbolic {
            EngineOptions::default().without_symbolic()
        } else {
            EngineOptions::default()
        };
        let engine = Engine::new(db).semantics(semantics).options(options);
        let context = format!("{text} × {semantics} × no_symbolic={no_symbolic}");
        let class = classify(&q);
        assert_eq!(
            engine.select_strategy(&q, class),
            (strategy, guarantee),
            "select_strategy for {context}"
        );
        let report = engine.plan(&q).unwrap();
        assert_eq!(report.strategy, strategy, "strategy for {context}");
        assert_eq!(report.guarantee, guarantee, "guarantee for {context}");
        let analyzer = report
            .stats
            .analyzer
            .expect("analyzer stats are always reported");
        assert_eq!(analyzer.upgraded, upgraded, "upgrade flag for {context}");
    }
}

#[test]
fn forced_strategies_report_honest_guarantees_per_class() {
    // plan_with computes the guarantee for the *actual* class, never the
    // forced strategy's best case.
    let db = relmodel::builder::orders_and_payments_example();
    let engine = Engine::new(&db);
    let full_ra = query_for(QueryClass::FullRa);
    let cases = [
        (StrategyKind::NaiveExact, Guarantee::NoGuarantee),
        (StrategyKind::ThreeValuedBaseline, Guarantee::NoGuarantee),
        (StrategyKind::SoundApproximation, Guarantee::Sound),
        (StrategyKind::SymbolicCTable, Guarantee::Exact),
        (StrategyKind::WorldsGroundTruth, Guarantee::Exact),
    ];
    for (strategy, guarantee) in cases {
        let report = engine.plan_with(strategy, &full_ra).unwrap();
        assert_eq!(report.strategy, strategy);
        assert_eq!(report.guarantee, guarantee, "forced {strategy}");
    }
}

/// What one fallback-chain row expects on the report: the step that
/// answered, its guarantee, and every dispatch field the chain fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainOutcome {
    strategy: StrategyKind,
    guarantee: Guarantee,
    fallback: Option<FallbackReason>,
    degraded: bool,
    estimated_worlds: Option<u128>,
    estimated_repairs: Option<u128>,
}

impl ChainOutcome {
    fn of(report: &CertainReport) -> Self {
        ChainOutcome {
            strategy: report.strategy,
            guarantee: report.guarantee,
            fallback: report.stats.fallback,
            degraded: report.stats.degraded,
            estimated_worlds: report.stats.estimated_worlds,
            estimated_repairs: report.stats.estimated_repairs,
        }
    }
}

fn solver_budget_punt() -> Option<FallbackReason> {
    Some(FallbackReason::Symbolic(
        releval::symbolic::PuntReason::SolverBudget { budget: 0 },
    ))
}

/// R(k, v) with key k, one conflicting pair on k = 1 and two null-bearing
/// tuples: two repairs, each carrying both nulls.
fn dirty_nullable_db() -> Database {
    relmodel::DatabaseBuilder::new()
        .relation("R", &["k", "v"])
        .key("R", &["k"])
        .ints("R", &[1, 10])
        .ints("R", &[1, 20])
        .tuple("R", vec![Value::int(2), Value::null(0)])
        .tuple("R", vec![Value::int(3), Value::null(1)])
        .build()
}

/// `(R ∩ R) ∪ {(⊥0, 7)}`: the null-bearing literal rules symbolic out (per
/// repair too), and keeps every intersection nonempty so no early exit
/// rescues a starved world budget. `R ∩ R` is not linear, so a repair fold
/// builds each repair and asks the world oracle for its certain answer.
fn union_with_null_literal() -> RaExpr {
    RaExpr::relation("R")
        .intersection(RaExpr::relation("R"))
        .union(RaExpr::values(Relation::from_tuples(
            2,
            vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
        )))
}

/// A complete R(k, v) with key k and 13 clashing pairs: 26 conflict
/// vertices, so a Moon–Moser estimate of 3⁸ · 2 = 13,122 repairs (the exact
/// count is 2¹³ = 8,192), past the default budget of 4,096; with `nulls`,
/// each pair's first tuple carries a null of its own. A plan linear in R
/// folds 2 local repairs per pair (times the valuations of a pair's null).
fn wide_clashes(nulls: bool) -> Database {
    let mut b = relmodel::DatabaseBuilder::new()
        .relation("R", &["k", "v"])
        .key("R", &["k"])
        .ints("R", &[99, 0]);
    for k in 0..13i64 {
        let first = if nulls {
            Value::null(k as u64)
        } else {
            Value::int(2 * k + 1)
        };
        b = b
            .tuple("R", vec![Value::int(k), first])
            .ints("R", &[k, 2 * k + 2]);
    }
    b.build()
}

/// The factorized estimate: past the Moon–Moser budget, a plan the repair
/// fold factorizes is estimated by the fold's own element count, which
/// keeps it `Exact`; a non-linear plan still falls back to the core.
#[test]
fn the_factorized_estimate_rows() {
    let budget = RepairOptions::default().max_repairs;
    let linear = incomplete_data::qparser::parse("project[#0](R)").unwrap();
    let self_join =
        incomplete_data::qparser::parse("project[#0](select[#0 = #2](product(R, R)))").unwrap();
    for nulls in [false, true] {
        let db = wide_clashes(nulls);
        let graph = ConflictGraph::build(&db);
        assert!(graph.estimated_repairs() > budget);
        let engine = Engine::new(&db).consistent_answers();
        let report = engine.plan(&linear).unwrap();
        assert_eq!(
            (report.strategy, report.guarantee, report.stats.degraded),
            (StrategyKind::RepairEnumeration, Guarantee::Exact, false),
            "nulls {nulls}"
        );
        assert_eq!(report.stats.fallback, None);
        assert_eq!(report.stats.estimated_repairs, Some(13_122));
        assert_eq!(report.answers.len(), 14, "every key survives");
        let plan = PlannedQuery::new(linear.clone(), db.schema()).unwrap();
        let count = factorized_repair_count(&plan, &db, &graph, &RepairOptions::default());
        assert!(count.is_some_and(|n| n <= budget), "{count:?}");
        if !nulls {
            assert_eq!(count, Some(26), "Σ, not ∏");
        }
        assert_eq!(
            engine.select_strategy(&linear, classify(&linear)),
            (StrategyKind::RepairEnumeration, Guarantee::Exact),
            "the preview reads the same count"
        );

        let report = engine.plan(&self_join).unwrap();
        assert_eq!(
            (report.strategy, report.guarantee, report.stats.degraded),
            (StrategyKind::ConflictFreeCore, Guarantee::Sound, true),
            "nulls {nulls}"
        );
        assert_eq!(
            report.stats.fallback,
            Some(FallbackReason::RepairBudget {
                estimated: 13_122,
                budget
            })
        );
    }
}

/// The fallback chains, pinned row by row: every way the planner's first
/// choice can hand over to a later step — a runtime solver punt, a
/// planning-time symbolic rule-out, a world budget, a repair budget, an
/// aborted repair fold — and what the report says about it afterwards.
#[test]
fn the_fallback_chain_rows() {
    use Guarantee::*;
    use StrategyKind::*;

    let tower = incomplete_data::qparser::parse("(R minus S) minus (S minus R)").unwrap();
    let difference = relmodel::builder::difference_example();
    let punting = EngineOptions::default().with_max_decisions(0);

    // A null-bearing `Values` literal joined against the database null.
    let literal_db = relmodel::DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .tuple("R", vec![Value::int(1), Value::null(0)])
        .build();
    let literal_query = RaExpr::relation("R")
        .product(RaExpr::values(Relation::from_tuples(
            2,
            vec![Tuple::new(vec![Value::null(0), Value::int(7)])],
        )))
        .select(relalgebra::predicate::Predicate::eq(
            relalgebra::predicate::Operand::col(1),
            relalgebra::predicate::Operand::col(2),
        ))
        .project(vec![0, 3]);
    let null_literal = Some(FallbackReason::Symbolic(
        releval::symbolic::PuntReason::NullValuesLiteral,
    ));

    let dirty = relmodel::DatabaseBuilder::new()
        .relation("R", &["k", "v"])
        .key("R", &["k"])
        .ints("R", &[1, 10])
        .ints("R", &[1, 20])
        .ints("R", &[2, 30])
        .build();
    let keys = incomplete_data::qparser::parse("project[#1](R)").unwrap();
    let mut starved_repairs = incomplete_data::repairs::RepairOptions::default();
    starved_repairs.world_options.max_worlds = 1;

    // (name, db, semantics, options, query, planning-time head, outcome)
    type Row<'a> = (
        &'a str,
        &'a Database,
        engine::Semantics,
        EngineOptions,
        &'a RaExpr,
        StrategyKind,
        ChainOutcome,
    );
    let rows: Vec<Row<'_>> = vec![
        // Symbolic punts at run time; the world oracle answers exactly,
        // with the punt on the report.
        (
            "runtime punt → worlds",
            &difference,
            engine::Semantics::Cwa,
            punting,
            &tower,
            SymbolicCTable,
            ChainOutcome {
                strategy: WorldsGroundTruth,
                guarantee: Exact,
                fallback: solver_budget_punt(),
                degraded: false,
                estimated_worlds: Some(4),
                estimated_repairs: None,
            },
        ),
        // The same punt beyond the world budget ends at the approximation,
        // degraded, the punt still named.
        (
            "runtime punt → world budget → approximation",
            &difference,
            engine::Semantics::Cwa,
            punting.with_max_worlds(1),
            &tower,
            SymbolicCTable,
            ChainOutcome {
                strategy: SoundApproximation,
                guarantee: Sound,
                fallback: solver_budget_punt(),
                degraded: true,
                estimated_worlds: Some(4),
                estimated_repairs: None,
            },
        ),
        // The planning-time rule-out takes the same chain.
        (
            "null literal rule-out → worlds",
            &literal_db,
            engine::Semantics::Cwa,
            EngineOptions::default(),
            &literal_query,
            WorldsGroundTruth,
            ChainOutcome {
                strategy: WorldsGroundTruth,
                guarantee: Exact,
                fallback: null_literal,
                degraded: false,
                estimated_worlds: Some(4),
                estimated_repairs: None,
            },
        ),
        (
            "null literal rule-out → world budget → approximation",
            &literal_db,
            engine::Semantics::Cwa,
            EngineOptions::default().with_max_worlds(1),
            &literal_query,
            SoundApproximation,
            ChainOutcome {
                strategy: SoundApproximation,
                guarantee: Sound,
                fallback: null_literal,
                degraded: true,
                estimated_worlds: Some(4),
                estimated_repairs: None,
            },
        ),
        // The repair budget refuses enumeration at planning time.
        (
            "repair budget → core",
            &dirty,
            engine::Semantics::ConsistentAnswers,
            EngineOptions::default().with_max_repairs(1),
            &keys,
            ConflictFreeCore,
            ChainOutcome {
                strategy: ConflictFreeCore,
                guarantee: Sound,
                fallback: Some(FallbackReason::RepairBudget {
                    estimated: 2,
                    budget: 1,
                }),
                degraded: true,
                estimated_worlds: None,
                estimated_repairs: Some(2),
            },
        ),
    ];

    for (name, db, semantics, options, q, head, expected) in rows {
        let engine = Engine::new(db).semantics(semantics).options(options);
        let report = engine.plan(q).unwrap();
        assert_eq!(ChainOutcome::of(&report), expected, "{name}");
        assert_eq!(
            engine.select_strategy(q, classify(q)).0,
            head,
            "the preview stops where planning does: {name}"
        );
    }

    // An enumeration that aborts at run time (each repair's world oracle
    // starves) degrades to the core with the cause on the report.
    let report = Engine::new(&dirty_nullable_db())
        .consistent_answers()
        .options(EngineOptions::default().with_repair_options(starved_repairs))
        .plan(&union_with_null_literal())
        .unwrap();
    let outcome = ChainOutcome::of(&report);
    assert!(
        matches!(
            outcome.fallback,
            Some(FallbackReason::RepairEnumerationAborted(
                RepairAbort::PerRepairWorldBudget { budget: 1, .. }
            ))
        ),
        "repair abort → core: {outcome:?}"
    );
    assert_eq!(
        outcome,
        ChainOutcome {
            strategy: ConflictFreeCore,
            guarantee: Sound,
            fallback: outcome.fallback,
            degraded: true,
            estimated_worlds: None,
            estimated_repairs: Some(2),
        },
        "repair abort → core"
    );
}

/// The one chain where a punt happens on a *reduced* plan: under OWA a
/// monotone query dispatches by the CWA rules (OWA-as-CWA), a ground
/// subtree is inlined, and the reduced plan's solver punts at run time. The
/// world step that answers keeps the effective CWA guarantee.
#[test]
fn a_split_plan_under_owa_as_cwa_that_punts_at_run_time() {
    use Guarantee::*;
    use StrategyKind::*;

    // R = {(⊥0, ⊥1)}, S = {1}. Refuting `⊥0 ≠ 1 ∧ ⊥1 ≠ 2` takes a case
    // split, which a zero-decision budget refuses; `π∅(S)` is a ground
    // subtree.
    let db = relmodel::DatabaseBuilder::new()
        .relation("R", &["a", "b"])
        .relation("S", &["a"])
        .tuple("R", vec![Value::null(0), Value::null(1)])
        .ints("S", &[1])
        .build();
    let parse = |text| incomplete_data::qparser::parse(text).unwrap();
    let q = parse("select[#0 != 1 and #1 != 2](R)")
        .project(vec![])
        .product(parse("S").project(vec![]));
    let engine = Engine::new(&db)
        .semantics(Semantics::Owa)
        .options(EngineOptions::default().with_max_decisions(0));
    assert_eq!(
        engine.select_strategy(&q, classify(&q)),
        (SymbolicCTable, Exact),
        "monotone under OWA: the CWA rules apply"
    );
    let report = engine.plan(&q).unwrap();
    let analyzer = report.stats.analyzer.expect("the analyzer dispatched");
    assert!(
        analyzer.owa_as_cwa && analyzer.inlined_subtrees > 0,
        "{analyzer:?}"
    );
    assert_eq!(
        ChainOutcome::of(&report),
        ChainOutcome {
            strategy: WorldsGroundTruth,
            guarantee: Exact,
            fallback: solver_budget_punt(),
            degraded: false,
            estimated_worlds: Some(25),
            estimated_repairs: None,
        }
    );
    assert!(report.answers.is_empty(), "some world sets ⊥0 = 1");

    let starved = Engine::new(&db)
        .semantics(Semantics::Owa)
        .options(
            EngineOptions::default()
                .with_max_decisions(0)
                .with_max_worlds(1),
        )
        .plan(&q)
        .unwrap();
    assert_eq!(
        ChainOutcome::of(&starved),
        ChainOutcome {
            strategy: SoundApproximation,
            guarantee: Sound,
            fallback: solver_budget_punt(),
            degraded: true,
            estimated_worlds: Some(25),
            estimated_repairs: None,
        }
    );
}

/// Every forced door errs with a typed error where the planner's own chain
/// would have degraded: the caller asked for one strategy and nothing else.
#[test]
fn forced_doors_err_instead_of_degrading() {
    let difference = relmodel::builder::difference_example();
    let tower = incomplete_data::qparser::parse("(R minus S) minus (S minus R)").unwrap();
    let punting = Engine::new(&difference).options(EngineOptions::default().with_max_decisions(0));
    assert!(matches!(
        punting.plan_with(StrategyKind::SymbolicCTable, &tower),
        Err(EngineError::Eval(releval::EvalError::SymbolicPunt(
            releval::symbolic::PuntReason::SolverBudget { budget: 0 }
        )))
    ));

    let literal_db = dirty_nullable_db();
    let literal_query = union_with_null_literal();
    assert!(matches!(
        Engine::new(&literal_db).plan_with(StrategyKind::SymbolicCTable, &literal_query),
        Err(EngineError::Eval(releval::EvalError::SymbolicPunt(
            releval::symbolic::PuntReason::NullValuesLiteral
        )))
    ));

    // `R ∪ S` keeps (1) in every world, so no early exit rescues a starved
    // world budget.
    let mut b = relmodel::DatabaseBuilder::new()
        .relation("R", &["a"])
        .relation("S", &["a"]);
    for i in 0..6u64 {
        b = b.tuple("S", vec![Value::null(i)]);
    }
    let wide = b.ints("R", &[1]).build();
    let union = incomplete_data::qparser::parse("R union S").unwrap();
    let starved = Engine::new(&wide).options(EngineOptions::exhaustive().with_max_worlds(10));
    for err in [
        starved.ground_truth(&union).unwrap_err(),
        starved
            .plan_with(StrategyKind::WorldsGroundTruth, &union)
            .unwrap_err(),
    ] {
        assert!(
            matches!(
                err,
                EngineError::Eval(releval::EvalError::WorldBudgetExceeded { budget: 10, .. })
            ),
            "{err:?}"
        );
    }

    let keys = incomplete_data::qparser::parse("project[#1](R)").unwrap();
    let over_budget = Engine::new(&literal_db)
        .consistent_answers()
        .options(EngineOptions::default().with_max_repairs(1));
    assert!(matches!(
        over_budget.plan_with(StrategyKind::RepairEnumeration, &keys),
        Err(EngineError::Repair(
            incomplete_data::repairs::RepairError::BudgetExceeded { budget: 1, .. }
        ))
    ));

    let mut starved_repairs = incomplete_data::repairs::RepairOptions::default();
    starved_repairs.world_options.max_worlds = 1;
    let aborting = Engine::new(&literal_db)
        .consistent_answers()
        .options(EngineOptions::default().with_repair_options(starved_repairs));
    assert!(matches!(
        aborting.plan_with(StrategyKind::RepairEnumeration, &literal_query),
        Err(EngineError::Repair(
            incomplete_data::repairs::RepairError::Eval(releval::EvalError::WorldBudgetExceeded {
                budget: 1,
                ..
            })
        ))
    ));
}
