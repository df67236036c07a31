//! Property tests for the condition solver: on random conditions over a
//! mixed null/constant vocabulary, `simplify` and the DPLL-style search
//! over equalities and disequalities must agree with brute-force valuation
//! enumeration over the adequate finite domain (the same expansion
//! machinery `ctables::verify` uses for the strong-representation checks).
//! Pinned families whose DNF would be exponential check that the search
//! decides them within the default decision budget.
//!
//! The constant pool deliberately contains `Int(1)` **and** `Str("1")` —
//! the distinct-constant regression class from PR 2, where anything stringly
//! (display-keyed dedup, a solver that compares renderings) silently
//! conflates two different values.

use ctables::condition::solver::{
    satisfiable_by_enumeration, valid_by_enumeration, CertaintySolver, SolverOptions,
};
use ctables::condition::Condition;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmodel::valuation::{domain_with_fresh, ValuationEnumerator};
use relmodel::value::Value;

/// The value vocabulary random conditions draw from: a few nulls, a few
/// integers, and the `Int(1)` / `Str("1")` near-collision pair.
fn random_value(rng: &mut StdRng, nulls: u64) -> Value {
    match rng.gen_range(0..6u32) {
        0 | 1 => Value::null(rng.gen_range(0..nulls)),
        2 => Value::int(rng.gen_range(0..3i64)),
        3 => Value::int(1),
        4 => Value::str("1"),
        _ => Value::str("a"),
    }
}

fn random_condition(rng: &mut StdRng, depth: u32) -> Condition {
    random_condition_over(rng, depth, 3)
}

/// A random condition of at most `depth` connectives over nulls
/// `⊥0 … ⊥(nulls - 1)`.
fn random_condition_over(rng: &mut StdRng, depth: u32, nulls: u64) -> Condition {
    if depth == 0 || rng.gen_bool(0.4) {
        let (a, b) = (random_value(rng, nulls), random_value(rng, nulls));
        return if rng.gen_bool(0.5) {
            Condition::eq(a, b)
        } else {
            Condition::neq(a, b)
        };
    }
    match rng.gen_range(0..3u32) {
        0 => {
            let n = rng.gen_range(2..=3usize);
            (0..n).fold(Condition::True, |acc, _| {
                acc.and(random_condition_over(rng, depth - 1, nulls))
            })
        }
        1 => {
            let n = rng.gen_range(2..=3usize);
            (0..n).fold(Condition::False, |acc, _| {
                acc.or(random_condition_over(rng, depth - 1, nulls))
            })
        }
        _ => random_condition_over(rng, depth - 1, nulls).negate(),
    }
}

fn cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

#[test]
fn solver_agrees_with_enumeration_on_validity_and_satisfiability() {
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_condition(&mut rng, 3);
        let mut solver = CertaintySolver::new(SolverOptions::default());
        let valid = solver
            .is_valid(&c)
            .unwrap_or_else(|p| panic!("solver punted on a small condition: {p} ({c})"));
        assert_eq!(
            valid,
            valid_by_enumeration(&c),
            "validity mismatch for {c} (seed {seed})"
        );
        let sat = solver.is_satisfiable(&c).unwrap();
        assert_eq!(
            sat,
            satisfiable_by_enumeration(&c),
            "satisfiability mismatch for {c} (seed {seed})"
        );
        // Internal consistency: valid ⇒ satisfiable, and c valid ⇔ ¬c unsat.
        assert!(!valid || sat, "valid but unsatisfiable? {c}");
        assert_eq!(
            solver.is_satisfiable(&c.clone().negate()).unwrap(),
            !valid,
            "negation duality broken for {c}"
        );
    }
}

#[test]
fn deep_conditions_over_five_nulls_agree_with_enumeration() {
    // Depth 5 nests connectives and negations five deep, all of which the
    // solver must push into negation normal form; five nulls let chains of
    // merges meet constants far from where they started.
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed_d33b));
        let nulls = rng.gen_range(1..=5u64);
        let c = random_condition_over(&mut rng, 5, nulls);
        let mut solver = CertaintySolver::new(SolverOptions::default());
        let valid = solver
            .is_valid(&c)
            .unwrap_or_else(|p| panic!("solver punted on a random condition: {p} ({c})"));
        assert_eq!(
            valid,
            valid_by_enumeration(&c),
            "validity mismatch for {c} (seed {seed})"
        );
        assert_eq!(
            solver.is_satisfiable(&c).unwrap(),
            satisfiable_by_enumeration(&c),
            "satisfiability mismatch for {c} (seed {seed})"
        );
    }
}

/// A conjunction of 4–10 disjunctions of 2–3 (dis)equalities over
/// `⊥0 … ⊥3` and three constants: the shape of a negated membership
/// condition, where propagation alone rarely decides and the search must
/// branch and backtrack.
fn random_clauses(rng: &mut StdRng) -> Condition {
    let term = |rng: &mut StdRng| match rng.gen_range(0..5u32) {
        0..=2 => Value::null(rng.gen_range(0..4u64)),
        3 => Value::int(rng.gen_range(0..2i64)),
        _ => Value::str("1"),
    };
    (0..rng.gen_range(4..=10usize)).fold(Condition::True, |acc, _| {
        let clause = (0..rng.gen_range(2..=3usize)).fold(Condition::False, |acc, _| {
            let (a, b) = (term(rng), term(rng));
            acc.or(if rng.gen_bool(0.5) {
                Condition::eq(a, b)
            } else {
                Condition::neq(a, b)
            })
        });
        acc.and(clause)
    })
}

#[test]
fn clausal_conditions_agree_with_enumeration() {
    let mut decisions = 0;
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xc1a5e));
        let c = random_clauses(&mut rng);
        let expected = satisfiable_by_enumeration(&c);
        let mut solver = CertaintySolver::new(SolverOptions::default());
        assert_eq!(
            solver.is_satisfiable(&c).unwrap(),
            expected,
            "satisfiability mismatch for {c} (seed {seed})"
        );
        assert_eq!(
            solver.is_valid(&c.clone().negate()).unwrap(),
            !expected,
            "validity mismatch for ¬({c}) (seed {seed})"
        );
        decisions += solver.stats().decisions;
    }
    assert!(decisions > 0, "the sweep never reached the search");
}

/// ⋀_{i<n} (⊥i = 0 ∨ ⊥i = 1): its DNF has 2ⁿ clauses.
fn binary_choices(n: u64) -> Condition {
    (0..n).fold(Condition::True, |acc, i| {
        acc.and(
            Condition::eq(Value::null(i), Value::int(0))
                .or(Condition::eq(Value::null(i), Value::int(1))),
        )
    })
}

#[test]
fn exponential_dnf_families_are_decided_within_the_default_budget() {
    // 16 binary choices: 65,536 DNF clauses, one decision per choice. Every
    // question below must be decided (`unwrap`) within the default budget.
    let sat = binary_choices(16);
    let mut solver = CertaintySolver::new(SolverOptions::default());
    assert!(solver.is_satisfiable(&sat).unwrap());
    assert!(!solver.is_valid(&sat).unwrap());
    // Ruling out both values of ⊥0 makes it unsatisfiable.
    let unsat = sat
        .clone()
        .and(Condition::neq(Value::null(0), Value::int(0)))
        .and(Condition::neq(Value::null(0), Value::int(1)));
    assert!(!solver.is_satisfiable(&unsat).unwrap());
    assert!(solver.is_valid(&unsat.negate()).unwrap());
    // An odd cycle of disequalities over two values is unsatisfiable only
    // through search: no single choice conflicts.
    let cycle = binary_choices(16)
        .and(Condition::neq(Value::null(0), Value::null(1)))
        .and(Condition::neq(Value::null(1), Value::null(2)))
        .and(Condition::neq(Value::null(2), Value::null(0)));
    assert!(!solver.is_satisfiable(&cycle).unwrap());
    assert!(!satisfiable_by_enumeration(
        &binary_choices(3)
            .and(Condition::neq(Value::null(0), Value::null(1)))
            .and(Condition::neq(Value::null(1), Value::null(2)))
            .and(Condition::neq(Value::null(2), Value::null(0)))
    ));
}

#[test]
fn simplify_preserves_semantics_under_every_valuation() {
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xdead));
        let c = random_condition(&mut rng, 3);
        let simplified = c.simplify();
        let nulls = c.null_ids();
        let domain = domain_with_fresh(&c.constants(), nulls.len() + 1);
        for v in ValuationEnumerator::new(nulls, domain) {
            assert_eq!(
                c.eval(&v),
                simplified.eval(&v),
                "simplify changed semantics of {c} → {simplified} at {v}"
            );
        }
    }
}

#[test]
fn entailment_agrees_with_enumeration() {
    for seed in 0..cases().min(150) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let premise = random_condition(&mut rng, 2);
        let conclusion = random_condition(&mut rng, 2);
        let mut solver = CertaintySolver::new(SolverOptions::default());
        let entailed = solver.entails(&premise, &conclusion).unwrap();
        // premise ⊨ conclusion ⇔ (¬premise ∨ conclusion) is valid.
        let implication = premise.clone().negate().or(conclusion.clone());
        assert_eq!(
            entailed,
            valid_by_enumeration(&implication),
            "entailment mismatch: {premise} ⊨ {conclusion} (seed {seed})"
        );
    }
}

#[test]
fn int_one_and_str_one_never_conflate() {
    // The regression class, stated directly: a null forced to both Int(1)
    // and Str("1") is unsatisfiable; forced to one, it is not the other.
    let mut solver = CertaintySolver::new(SolverOptions::default());
    let both = Condition::eq(Value::null(0), Value::int(1))
        .and(Condition::eq(Value::null(0), Value::str("1")));
    assert!(!solver.is_satisfiable(&both).unwrap());
    assert!(!satisfiable_by_enumeration(&both));
    let implies_not_str = solver
        .entails(
            &Condition::eq(Value::null(0), Value::int(1)),
            &Condition::neq(Value::null(0), Value::str("1")),
        )
        .unwrap();
    assert!(implies_not_str);
    // And the display strings really do collide — the trap is real.
    assert_eq!(Value::int(1).to_string(), Value::str("1").to_string());
}
