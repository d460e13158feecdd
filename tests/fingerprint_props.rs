//! Property-based tests of the semantic query fingerprint
//! ([`qfe::core::fingerprint`]):
//!
//! * **invariance** — fingerprints ignore spelling: predicate order,
//!   conjunct order within a compound predicate, join order, and join
//!   side orientation never change the fingerprint;
//! * **discrimination** — semantically different queries (different
//!   value, operator, column, or table set) fingerprint differently;
//! * **subset consistency** — `CanonicalQuery::subset_fingerprint(mask)`
//!   always equals the fingerprint of the materialized
//!   `subset_query(query, tables, mask)`, for every mask — the invariant
//!   the optimizer's estimate cache is keyed on.
//!
//! The first properties run on conjunctive chain queries; the `mixed_*`
//! ones on star queries with nested, empty and duplicate `And`/`Or`
//! expressions over Int, Float and Str literals, repeated attributes,
//! predicates on non-accessed tables and duplicate joins — every path of
//! the in-place encoder. CI's release job runs this file with
//! `PROPTEST_CASES=4096`.

use proptest::prelude::*;
use qfe::core::fingerprint::{CanonicalQuery, QueryFingerprint};
use qfe::core::{
    CmpOp, ColumnId, ColumnRef, CompoundPredicate, JoinPredicate, PredicateExpr, Query,
    SimplePredicate, TableId, Value,
};
use qfe::exec::optimizer::subset_query;

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Lt),
        Just(CmpOp::Gt),
        Just(CmpOp::Le),
        Just(CmpOp::Ge),
        Just(CmpOp::Ne),
    ]
}

fn arb_pred() -> impl Strategy<Value = SimplePredicate> {
    (arb_op(), -100i64..100).prop_map(|(op, v)| SimplePredicate::new(op, v))
}

/// A compound predicate on a random (table, column) with 1–4 conjuncts.
fn arb_compound(n_tables: usize) -> impl Strategy<Value = CompoundPredicate> {
    (
        0..n_tables,
        0usize..3,
        prop::collection::vec(arb_pred(), 1..4),
    )
        .prop_map(|(t, c, preds)| {
            CompoundPredicate::conjunction(ColumnRef::new(TableId(t), ColumnId(c)), preds)
        })
}

/// A connected chain query over `n` tables with random predicates.
fn arb_chain_query() -> impl Strategy<Value = Query> {
    (1usize..5)
        .prop_flat_map(|n| (Just(n), prop::collection::vec(arb_compound(n), 0..6)))
        .prop_map(|(n, predicates)| Query {
            tables: (0..n).map(TableId).collect(),
            joins: (1..n)
                .map(|i| JoinPredicate {
                    left: ColumnRef::new(TableId(i - 1), ColumnId(0)),
                    right: ColumnRef::new(TableId(i), ColumnId(0)),
                })
                .collect(),
            predicates,
        })
}

/// A leaf over a small literal pool of each type, so duplicates occur.
fn arb_mixed_leaf() -> impl Strategy<Value = PredicateExpr> {
    let value = prop_oneof![
        (-3i64..3).prop_map(Value::Int),
        prop_oneof![Just(-1.5f64), Just(0.0), Just(2.0)].prop_map(Value::Float),
        prop_oneof![Just(""), Just("tv"), Just("drama")].prop_map(|s| Value::Str(s.into())),
    ];
    (arb_op(), value).prop_map(|(op, value)| PredicateExpr::Leaf(SimplePredicate { op, value }))
}

/// Nested `And`/`Or` with empty, singleton and duplicate children.
fn arb_mixed_expr() -> impl Strategy<Value = PredicateExpr> {
    arb_mixed_leaf().prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(PredicateExpr::And),
            prop::collection::vec(inner, 0..4).prop_map(PredicateExpr::Or),
        ]
    })
}

/// A star query around table 0 over `n` tables (joined on column 0, one
/// join repeated and flipped), with mixed predicates on columns 1–2 of
/// tables `0..n + 1` — table `n` is never accessed.
fn arb_mixed_query() -> impl Strategy<Value = Query> {
    (1usize..6)
        .prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((0..n + 1, 1usize..3, arb_mixed_expr()), 0..7),
            )
        })
        .prop_map(|(n, preds)| {
            let hub = ColumnRef::new(TableId(0), ColumnId(0));
            let mut joins: Vec<JoinPredicate> = (1..n)
                .map(|i| JoinPredicate {
                    left: hub,
                    right: ColumnRef::new(TableId(i), ColumnId(0)),
                })
                .collect();
            if let Some(&j) = joins.first() {
                joins.push(JoinPredicate {
                    left: j.right,
                    right: j.left,
                });
            }
            Query {
                tables: (0..n).rev().map(TableId).collect(),
                joins,
                predicates: preds
                    .into_iter()
                    .map(|(t, c, expr)| CompoundPredicate {
                        column: ColumnRef::new(TableId(t), ColumnId(c)),
                        expr,
                    })
                    .collect(),
            }
        })
}

/// `expr` with the children of every `And`/`Or` node permuted.
fn shuffled(expr: &PredicateExpr, seed: u64) -> PredicateExpr {
    let shuffle = |children: &[PredicateExpr]| {
        permuted(children, seed)
            .iter()
            .enumerate()
            .map(|(i, c)| shuffled(c, seed.wrapping_add(i as u64)))
            .collect()
    };
    match expr {
        PredicateExpr::Leaf(_) => expr.clone(),
        PredicateExpr::And(children) => PredicateExpr::And(shuffle(children)),
        PredicateExpr::Or(children) => PredicateExpr::Or(shuffle(children)),
    }
}

/// A permutation of `0..n` derived from a seed (Fisher–Yates with a tiny
/// LCG — proptest shrinks the seed, not the permutation).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

fn permuted<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    permutation(items.len(), seed)
        .into_iter()
        .map(|i| items[i].clone())
        .collect()
}

proptest! {
    /// Reordering the predicate list never changes the fingerprint.
    #[test]
    fn predicate_order_is_irrelevant(q in arb_chain_query(), seed in 0u64..u64::MAX) {
        let reordered = Query {
            tables: q.tables.clone(),
            joins: q.joins.clone(),
            predicates: permuted(&q.predicates, seed),
        };
        prop_assert_eq!(QueryFingerprint::of(&q), QueryFingerprint::of(&reordered));
    }

    /// Reordering conjuncts inside each compound predicate never changes
    /// the fingerprint.
    #[test]
    fn conjunct_order_is_irrelevant(q in arb_chain_query(), seed in 0u64..u64::MAX) {
        let reordered = Query {
            tables: q.tables.clone(),
            joins: q.joins.clone(),
            predicates: q
                .predicates
                .iter()
                .map(|cp| {
                    let shuffled = match &cp.expr {
                        PredicateExpr::And(children) => {
                            PredicateExpr::And(permuted(children, seed))
                        }
                        other => other.clone(),
                    };
                    CompoundPredicate { column: cp.column, expr: shuffled }
                })
                .collect(),
        };
        prop_assert_eq!(QueryFingerprint::of(&q), QueryFingerprint::of(&reordered));
    }

    /// Reordering the join list and flipping join sides never changes the
    /// fingerprint.
    #[test]
    fn join_spelling_is_irrelevant(q in arb_chain_query(), seed in 0u64..u64::MAX, flips in 0u32..u32::MAX) {
        let joins: Vec<JoinPredicate> = permuted(&q.joins, seed)
            .into_iter()
            .enumerate()
            .map(|(i, j)| {
                if flips >> (i % 32) & 1 == 1 {
                    JoinPredicate { left: j.right, right: j.left }
                } else {
                    j
                }
            })
            .collect();
        let reordered = Query { tables: q.tables.clone(), joins, predicates: q.predicates.clone() };
        prop_assert_eq!(QueryFingerprint::of(&q), QueryFingerprint::of(&reordered));
    }

    /// Duplicating an existing predicate never changes the fingerprint
    /// (`p AND p ≡ p` after canonical dedup).
    #[test]
    fn duplicate_predicates_collapse(q in arb_chain_query(), pick in 0usize..64) {
        prop_assume!(!q.predicates.is_empty());
        let mut dup = q.clone();
        let repeated = dup.predicates[pick % dup.predicates.len()].clone();
        dup.predicates.push(repeated);
        prop_assert_eq!(QueryFingerprint::of(&q), QueryFingerprint::of(&dup));
    }

    /// Changing one literal value changes the fingerprint.
    #[test]
    fn value_changes_are_visible(op in arb_op(), v in -100i64..100, delta in 1i64..50) {
        let col = ColumnRef::new(TableId(0), ColumnId(0));
        let q = |value: i64| Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(col, vec![SimplePredicate::new(op, value)])],
        );
        prop_assert_ne!(QueryFingerprint::of(&q(v)), QueryFingerprint::of(&q(v + delta)));
    }

    /// Changing the operator changes the fingerprint.
    #[test]
    fn operator_changes_are_visible(a in arb_op(), b in arb_op(), v in -100i64..100) {
        prop_assume!(a != b);
        let col = ColumnRef::new(TableId(0), ColumnId(0));
        let q = |op: CmpOp| Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(col, vec![SimplePredicate::new(op, v)])],
        );
        prop_assert_ne!(QueryFingerprint::of(&q(a)), QueryFingerprint::of(&q(b)));
    }

    /// Moving a predicate to a different column changes the fingerprint.
    #[test]
    fn column_changes_are_visible(op in arb_op(), v in -100i64..100, c in 1usize..4) {
        let q = |col: usize| Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), ColumnId(col)),
                vec![SimplePredicate::new(op, v)],
            )],
        );
        prop_assert_ne!(QueryFingerprint::of(&q(0)), QueryFingerprint::of(&q(c)));
    }

    /// `And` and `Or` of the same leaves are distinct (And([])/Or([]) are
    /// true/false; mixed nestings must not collapse into each other).
    #[test]
    fn and_or_are_distinct(p1 in arb_pred(), p2 in arb_pred()) {
        prop_assume!(p1 != p2);
        let col = ColumnRef::new(TableId(0), ColumnId(0));
        let q = |expr: PredicateExpr| Query::single_table(
            TableId(0),
            vec![CompoundPredicate { column: col, expr }],
        );
        let and = q(PredicateExpr::And(vec![
            PredicateExpr::Leaf(p1.clone()),
            PredicateExpr::Leaf(p2.clone()),
        ]));
        let or = q(PredicateExpr::Or(vec![
            PredicateExpr::Leaf(p1),
            PredicateExpr::Leaf(p2),
        ]));
        prop_assert_ne!(QueryFingerprint::of(&and), QueryFingerprint::of(&or));
    }

    /// For every table subset, the precomputed subset fingerprint equals
    /// the fingerprint of the materialized sub-query — the soundness
    /// condition for using `subset_fingerprint` as the estimate-cache key
    /// without ever building the sub-query on a hit.
    #[test]
    fn subset_fingerprints_match_materialized_subqueries(q in arb_chain_query()) {
        let mut canon = CanonicalQuery::new(&q);
        let tables = canon.tables().to_vec();
        let full = canon.full_mask();
        for mask in 1..=full {
            let sub = subset_query(&q, &tables, mask);
            prop_assert_eq!(
                canon.subset_fingerprint(mask),
                QueryFingerprint::of(&sub),
                "mask {:#b}", mask
            );
        }
    }
}

proptest! {
    /// Reordering the predicate list and the children of every
    /// `And`/`Or` node never changes the fingerprint of a mixed query.
    #[test]
    fn mixed_spelling_is_irrelevant(q in arb_mixed_query(), seed in 0u64..u64::MAX) {
        let reordered = Query {
            tables: q.tables.clone(),
            joins: permuted(&q.joins, seed),
            predicates: permuted(&q.predicates, seed)
                .iter()
                .map(|cp| CompoundPredicate { column: cp.column, expr: shuffled(&cp.expr, seed) })
                .collect(),
        };
        prop_assert_eq!(QueryFingerprint::of(&q), QueryFingerprint::of(&reordered));
    }

    /// Subset consistency on mixed queries: the memoized prefix states
    /// compose to the fingerprint of every materialized sub-query, in
    /// ascending and in descending mask order.
    #[test]
    fn mixed_subset_fingerprints_match_materialized_subqueries(q in arb_mixed_query()) {
        let mut up = CanonicalQuery::new(&q);
        let mut down = up.clone();
        let tables = up.tables().to_vec();
        let full = up.full_mask();
        for mask in 1..=full {
            let expected = QueryFingerprint::of(&subset_query(&q, &tables, mask));
            prop_assert_eq!(up.subset_fingerprint(mask), expected, "mask {:#b}", mask);
            let back = full + 1 - mask;
            prop_assert_eq!(
                down.subset_fingerprint(back),
                QueryFingerprint::of(&subset_query(&q, &tables, back)),
                "mask {:#b}", back
            );
        }
        if full != 0 {
            prop_assert_eq!(up.subset_fingerprint(full), QueryFingerprint::of(&Query {
                predicates: q
                    .predicates
                    .iter()
                    .filter(|cp| tables.contains(&cp.column.table))
                    .cloned()
                    .collect(),
                ..q.clone()
            }));
        }
    }
}
