//! Copy-on-write relations, checked against a plain `BTreeSet<Tuple>` model
//! along random edit histories.
//!
//! A `Relation` shares its tuple set between clones and copies it on the
//! first write that changes it. These tests run random sequences of
//! `insert`, `remove` and `clone` over a pool of relations, each paired
//! with its own model set, and check after every step that:
//!
//! * every relation of the pool still equals its model — ordered `iter`,
//!   `tuples()`, `contains` and `len` — so a write to one clone never shows
//!   in another;
//! * a write that changes nothing (re-inserting a present tuple, removing
//!   an absent one) keeps the sharing, and one that changes the set ends it;
//! * the consuming `into_union` equals `union` whether either operand is
//!   shared with a live clone or not, and leaves the clones untouched.
//!
//! `FUZZ_CASES` scales the number of histories (default 32).

use std::collections::BTreeSet;

use incomplete_data::relmodel::{Relation, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// A tuple over a small value range, so that inserts repeat and removes
/// hit.
fn tuple(rng: &mut StdRng) -> Tuple {
    Tuple::ints(&[rng.gen_range(0..6i64), rng.gen_range(0..4i64)])
}

fn assert_matches(rel: &Relation, model: &BTreeSet<Tuple>, context: &str) {
    assert_eq!(rel.len(), model.len(), "{context}");
    assert!(rel.iter().eq(model.iter()), "{context}: {rel}");
    assert_eq!(rel.tuples(), model, "{context}");
    for t in model {
        assert!(rel.contains(t), "{context}: {t} missing");
    }
}

#[test]
fn random_histories_match_the_model_and_clones_stay_independent() {
    let (mut copies, mut kept) = (0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<(Relation, BTreeSet<Tuple>)> = vec![(Relation::new(2), BTreeSet::new())];
        for step in 0..60 {
            let i = rng.gen_range(0..pool.len());
            let context = format!("seed {seed}, step {step}");
            let shared = (0..pool.len()).any(|j| j != i && pool[j].0.shares_tuples(&pool[i].0));
            let before = pool[i].0.clone();
            let changed = match rng.gen_range(0..3u8) {
                0 => {
                    let t = tuple(&mut rng);
                    let (rel, model) = &mut pool[i];
                    let added = rel.insert(t.clone());
                    assert_eq!(added, model.insert(t), "{context}: insert");
                    added
                }
                1 => {
                    let t = tuple(&mut rng);
                    let (rel, model) = &mut pool[i];
                    let removed = rel.remove(&t);
                    assert_eq!(removed, model.remove(&t), "{context}: remove");
                    removed
                }
                _ => {
                    let copy = pool[i].clone();
                    assert!(copy.0.shares_tuples(&pool[i].0), "{context}: clone shares");
                    pool.push(copy);
                    false
                }
            };
            // `before` is one more handle, so the set was shared at the
            // write: a change copies it, a no-op keeps sharing.
            assert_eq!(before.shares_tuples(&pool[i].0), !changed, "{context}");
            if shared {
                if changed {
                    copies += 1;
                } else {
                    kept += 1;
                }
            }
            for (j, (rel, model)) in pool.iter().enumerate() {
                assert_matches(rel, model, &format!("{context}, relation {j}"));
            }
        }
    }
    assert!(
        copies > 0 && kept > 0,
        "{copies} copies, {kept} no-op writes"
    );
}

#[test]
fn moving_union_equals_union_with_shared_operands() {
    for seed in 0..fuzz_cases() {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let random = |rng: &mut StdRng| {
            let n = rng.gen_range(0..12usize);
            Relation::from_tuples(2, (0..n).map(|_| tuple(rng)).collect::<Vec<_>>())
        };
        let (a, b) = (random(&mut rng), random(&mut rng));
        let expected = a.union(&b);
        // Neither, either, or both operands keep a live clone; the last
        // case also unites a set with itself.
        for case in 0..5u8 {
            let context = format!("seed {seed}, case {case}");
            let (left, right) = match case {
                4 => (a.clone(), a.clone()),
                _ => (a.clone(), b.clone()),
            };
            let expected = if case == 4 {
                a.clone()
            } else {
                expected.clone()
            };
            let (left_model, right_model) = (left.tuples().clone(), right.tuples().clone());
            // Fresh copies own their sets outright; a kept clone shares.
            let own = |rel: &Relation| Relation::from_tuples(2, rel.iter().cloned());
            let keep_left = (case & 1 != 0 || case == 4).then(|| left.clone());
            let keep_right = (case & 2 != 0 || case == 4).then(|| right.clone());
            let left = if keep_left.is_some() {
                left
            } else {
                own(&left)
            };
            let right = if keep_right.is_some() {
                right
            } else {
                own(&right)
            };
            assert_eq!(left.into_union(right), expected, "{context}");
            if let Some(kept) = keep_left {
                assert_matches(&kept, &left_model, &format!("{context}, left clone"));
            }
            if let Some(kept) = keep_right {
                assert_matches(&kept, &right_model, &format!("{context}, right clone"));
            }
        }
    }
}
