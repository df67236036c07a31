//! Persistent relations, checked against a plain `BTreeSet<Tuple>` model
//! along random edit histories.
//!
//! A `Relation` keeps its tuples in sorted, shared chunks: clones share the
//! chunk list, and a write that changes a shared relation copies the list
//! and the one chunk it touches. These tests run random sequences of
//! `insert`, `remove` and `clone` over a pool of relations, each paired
//! with its own model set. Each relation grows past one chunk's capacity,
//! then drains to empty, so chunks split and empty along the way. They
//! check that:
//!
//! * after every step, the written relation equals its model in ordered
//!   `iter`, `len` and `contains`, and a write that changes nothing
//!   (re-inserting a present tuple, removing an absent one) keeps the
//!   sharing, while one that changes the set ends it;
//! * every 100 steps, every relation of the pool still equals its model —
//!   also in `Display` and in `contains` of each tuple — so a write to one
//!   clone never shows in another; it equals a relation rebuilt from its
//!   tuples (other chunk boundaries); and `==` and `cmp` between any two
//!   relations of the pool, whose histories differ, agree with their
//!   models.
//!
//! Further tests check `from_tuples`, `union`, `difference`,
//! `intersection`, `is_subset` and the consuming `into_union` (either,
//! neither or both operands shared with a live clone) against the model at
//! sizes that cross chunk boundaries.
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

/// A tuple over a range of 640 values: wide enough for a relation to
/// outgrow one chunk quickly, narrow enough that inserts repeat.
fn tuple(rng: &mut StdRng) -> Tuple {
    Tuple::ints(&[rng.gen_range(0..80i64), rng.gen_range(0..8i64)])
}

fn model_display(model: &BTreeSet<Tuple>) -> String {
    let tuples: Vec<String> = model.iter().map(Tuple::to_string).collect();
    format!("{{{}}}", tuples.join(", "))
}

fn assert_matches(rel: &Relation, model: &BTreeSet<Tuple>, context: &str) {
    assert_eq!(rel.len(), model.len(), "{context}");
    assert!(rel.iter().eq(model.iter()), "{context}: {rel}");
    assert_eq!(rel.to_string(), model_display(model), "{context}");
    for t in model {
        assert!(rel.contains(t), "{context}: {t} missing");
    }
}

#[test]
fn random_histories_match_the_model_and_clones_stay_independent() {
    let (mut copies, mut kept, mut drained) = (0u64, 0u64, 0u64);
    for seed in 0..fuzz_cases() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool: Vec<(Relation, BTreeSet<Tuple>)> = vec![(Relation::new(2), BTreeSet::new())];
        // Each relation grows past `DRAIN_FROM` tuples, then drains to
        // empty (mostly by removing tuples it holds), and grows again.
        let mut growing = vec![true];
        for step in 0..STEPS {
            let i = rng.gen_range(0..pool.len());
            let context = format!("seed {seed}, step {step}, relation {i}");
            let shared = (0..pool.len()).any(|j| j != i && pool[j].0.shares_tuples(&pool[i].0));
            let before = pool[i].0.clone();
            let roll = rng.gen_range(0..40u8);
            let insert = if growing[i] { roll < 36 } else { roll < 2 };
            let (changed, t) = if roll == 0 && pool.len() < 3 {
                let copy = pool[i].clone();
                assert!(copy.0.shares_tuples(&pool[i].0), "{context}: clone shares");
                pool.push(copy);
                growing.push(growing[i]);
                (false, None)
            } else if insert {
                let t = tuple(&mut rng);
                let (rel, model) = &mut pool[i];
                let added = rel.insert(t.clone());
                assert_eq!(added, model.insert(t.clone()), "{context}: insert");
                (added, Some(t))
            } else {
                let (rel, model) = &mut pool[i];
                let t = match rng.gen_range(0..8u8) {
                    0 => None,
                    _ => model.iter().nth(rng.gen_range(0..model.len().max(1))),
                };
                let t = t.cloned().unwrap_or_else(|| tuple(&mut rng));
                let removed = rel.remove(&t);
                assert_eq!(removed, model.remove(&t), "{context}: remove");
                (removed, Some(t))
            };
            // `before` is one more handle, so the relation was shared at
            // the write: a change copies, a no-op keeps sharing.
            assert_eq!(before.shares_tuples(&pool[i].0), !changed, "{context}");
            if shared {
                if changed {
                    copies += 1;
                } else {
                    kept += 1;
                }
            }
            let (rel, model) = &pool[i];
            assert_eq!(rel.len(), model.len(), "{context}");
            assert!(rel.iter().eq(model.iter()), "{context}: {rel}");
            if let Some(t) = t {
                assert_eq!(rel.contains(&t), model.contains(&t), "{context}: {t}");
            }
            if model.len() >= DRAIN_FROM {
                growing[i] = false;
            } else if model.is_empty() && !growing[i] {
                growing[i] = true;
                drained += 1;
            }
            if step % 100 == 99 {
                assert_pool(&pool, &context);
            }
        }
    }
    assert!(
        copies > 0 && kept > 0 && drained > 0,
        "{copies} copies, {kept} no-op writes, {drained} split relations drained"
    );
}

const STEPS: usize = 1_500;

/// Past any one chunk's capacity, so a relation this large has split.
const DRAIN_FROM: usize = 150;

/// Every relation of the pool matches its model, equals a relation rebuilt
/// from its tuples (other chunk boundaries), and compares with every other
/// relation of the pool as their models do.
fn assert_pool(pool: &[(Relation, BTreeSet<Tuple>)], context: &str) {
    for (j, (rel, model)) in pool.iter().enumerate() {
        let context = format!("{context}; relation {j}");
        assert_matches(rel, model, &context);
        let rebuilt = Relation::from_tuples(2, model.iter().cloned());
        assert_eq!(rel, &rebuilt, "{context}: rebuilt");
        for (k, (other, other_model)) in pool.iter().enumerate() {
            let context = format!("{context} vs {k}");
            assert_eq!(rel == other, model == other_model, "{context}: ==");
            assert_eq!(rel.cmp(other), model.cmp(other_model), "{context}: cmp");
        }
    }
}

/// A random relation of up to 400 tuples and its model: empty, inside one
/// chunk, or across several.
fn random(rng: &mut StdRng) -> (Relation, BTreeSet<Tuple>) {
    let n = match rng.gen_range(0..4u8) {
        0 => rng.gen_range(0..12usize),
        _ => rng.gen_range(0..400usize),
    };
    let tuples: Vec<Tuple> = (0..n).map(|_| tuple(rng)).collect();
    let model: BTreeSet<Tuple> = tuples.iter().cloned().collect();
    let rel = Relation::from_tuples(2, tuples);
    assert_matches(&rel, &model, "from_tuples");
    (rel, model)
}

#[test]
fn set_operations_match_the_model_across_chunk_boundaries() {
    let mut crossed = 0u64;
    for seed in 0..fuzz_cases() {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let (a, a_model) = random(&mut rng);
        let (mut b, mut b_model) = random(&mut rng);
        // Half the time `b` is an edited clone of `a`, so the operands
        // share most chunks and differ in a few.
        if rng.gen_bool(0.5) {
            (b, b_model) = (a.clone(), a_model.clone());
            for _ in 0..rng.gen_range(0..20usize) {
                let t = tuple(&mut rng);
                if rng.gen_bool(0.5) {
                    assert_eq!(b.insert(t.clone()), b_model.insert(t));
                } else {
                    assert_eq!(b.remove(&t), b_model.remove(&t));
                }
            }
        }
        crossed += u64::from(a.len() >= DRAIN_FROM && b.len() >= DRAIN_FROM);
        let context = format!("seed {seed}");
        let expect = |model: BTreeSet<Tuple>, got: Relation, op: &str| {
            assert_matches(&got, &model, &format!("{context}: {op}"));
        };
        expect(a_model.union(&b_model).cloned().collect(), a.union(&b), "∪");
        expect(
            a_model.difference(&b_model).cloned().collect(),
            a.difference(&b),
            "−",
        );
        expect(
            b_model.difference(&a_model).cloned().collect(),
            b.difference(&a),
            "− reversed",
        );
        expect(
            a_model.intersection(&b_model).cloned().collect(),
            a.intersection(&b),
            "∩",
        );
        assert_eq!(a.is_subset(&b), a_model.is_subset(&b_model), "{context} ⊆");
        assert_eq!(b.is_subset(&a), b_model.is_subset(&a_model), "{context} ⊇");
        assert!(a.intersection(&b).is_subset(&a), "{context}: a ∩ b ⊆ a");
        assert_matches(&a, &a_model, &format!("{context}: a untouched"));
        assert_matches(&b, &b_model, &format!("{context}: b untouched"));
    }
    assert!(crossed > 0, "no case had both operands past one chunk");
}

#[test]
fn moving_union_equals_union_with_shared_operands() {
    for seed in 0..fuzz_cases() {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let ((a, a_model), (b, b_model)) = (random(&mut rng), random(&mut rng));
        let expected = a.union(&b);
        // Neither, either, or both operands keep a live clone; the last
        // case also unites a relation with itself.
        for case in 0..5u8 {
            let context = format!("seed {seed}, case {case}");
            let (left, right, left_model, right_model) = match case {
                4 => (a.clone(), a.clone(), &a_model, &a_model),
                _ => (a.clone(), b.clone(), &a_model, &b_model),
            };
            let expected = if case == 4 {
                a.clone()
            } else {
                expected.clone()
            };
            // Fresh copies own their chunks outright; a kept clone shares.
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
            let united = left.into_union(right);
            assert_eq!(united, expected, "{context}");
            let model: BTreeSet<Tuple> = left_model.union(right_model).cloned().collect();
            assert_matches(&united, &model, &context);
            if let Some(kept) = keep_left {
                assert_matches(&kept, left_model, &format!("{context}, left clone"));
            }
            if let Some(kept) = keep_right {
                assert_matches(&kept, right_model, &format!("{context}, right clone"));
            }
        }
    }
}
