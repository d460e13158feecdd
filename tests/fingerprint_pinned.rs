//! Pinned fingerprint values: the exact 128-bit `QueryFingerprint` of a
//! fixed set of queries, written down as hex.
//!
//! The property tests in `fingerprint_props.rs` check relations between
//! fingerprints (invariance, discrimination, subset consistency), which
//! any self-consistent encoding passes. These tests pin the values
//! themselves, so a change to the canonical encoder that alters a single
//! byte of the stream (and with it every cache key a deployment has
//! persisted or routed on) fails here. Each case exercises one rule of
//! the canonicalization: nested, duplicate, singleton and empty `And`/`Or`
//! nodes, repeated-attribute grouping, every literal type, predicates on
//! non-accessed tables, join orientation and duplicate joins, and every
//! table subset of one five-table query.

use qfe::core::fingerprint::{CanonicalQuery, QueryFingerprint};
use qfe::core::{
    CmpOp, ColumnId, ColumnRef, CompoundPredicate, JoinPredicate, PredicateExpr, Query, TableId,
};
use qfe::exec::optimizer::subset_query;

fn col(t: usize, c: usize) -> ColumnRef {
    ColumnRef::new(TableId(t), ColumnId(c))
}

fn leaf(op: CmpOp, v: i64) -> PredicateExpr {
    PredicateExpr::leaf(op, v)
}

fn cp(c: ColumnRef, expr: PredicateExpr) -> CompoundPredicate {
    CompoundPredicate { column: c, expr }
}

fn join(l: ColumnRef, r: ColumnRef) -> JoinPredicate {
    JoinPredicate { left: l, right: r }
}

fn one_table(exprs: Vec<CompoundPredicate>) -> Query {
    Query::single_table(TableId(0), exprs)
}

/// Named single-query cases, one per canonicalization rule.
fn cases() -> Vec<(&'static str, Query)> {
    use CmpOp::*;
    use PredicateExpr::{And, Or};
    vec![
        ("no_predicates", one_table(vec![])),
        ("int_leaf", one_table(vec![cp(col(0, 0), leaf(Lt, 5))])),
        (
            "float_leaf",
            one_table(vec![cp(col(0, 0), PredicateExpr::leaf(Lt, 5.0))]),
        ),
        (
            "str_leaf",
            one_table(vec![cp(col(0, 1), PredicateExpr::leaf(Eq, "drama"))]),
        ),
        (
            "mixed_literals",
            one_table(vec![
                cp(col(0, 2), PredicateExpr::leaf(Ne, "")),
                cp(col(0, 0), PredicateExpr::leaf(Ge, -2.5)),
                cp(col(0, 1), leaf(Le, i64::MIN)),
            ]),
        ),
        (
            "nested_and_or",
            one_table(vec![cp(
                col(0, 0),
                And(vec![
                    leaf(Ge, 1),
                    Or(vec![
                        leaf(Eq, 7),
                        And(vec![leaf(Gt, 20), leaf(Lt, 30)]),
                        Or(vec![leaf(Eq, 3), leaf(Eq, 4)]),
                    ]),
                    And(vec![leaf(Le, 90), And(vec![leaf(Ne, 50)])]),
                ]),
            )]),
        ),
        (
            "duplicate_children",
            one_table(vec![cp(
                col(0, 0),
                Or(vec![
                    leaf(Eq, 3),
                    leaf(Eq, 1),
                    leaf(Eq, 3),
                    Or(vec![leaf(Eq, 1)]),
                ]),
            )]),
        ),
        (
            "singleton_wrappers",
            one_table(vec![cp(
                col(0, 0),
                And(vec![Or(vec![And(vec![leaf(Lt, 7)])])]),
            )]),
        ),
        (
            "empty_and_or",
            one_table(vec![
                cp(col(0, 0), And(vec![])),
                cp(col(0, 1), Or(vec![])),
                cp(col(0, 2), And(vec![Or(vec![]), leaf(Gt, 1)])),
                cp(col(0, 3), Or(vec![And(vec![]), leaf(Gt, 1)])),
            ]),
        ),
        (
            "repeated_attribute",
            one_table(vec![
                cp(col(0, 1), leaf(Ge, 10)),
                cp(col(0, 0), leaf(Eq, 2)),
                cp(col(0, 1), Or(vec![leaf(Le, 80), leaf(Eq, 99)])),
                cp(col(0, 1), And(vec![leaf(Ne, 40), leaf(Ge, 10)])),
            ]),
        ),
        (
            "orphan_predicates",
            Query {
                tables: vec![TableId(1), TableId(0)],
                joins: vec![join(col(0, 0), col(1, 0))],
                predicates: vec![
                    cp(col(5, 1), leaf(Lt, 3)),
                    cp(col(1, 2), leaf(Gt, 4)),
                    cp(col(3, 0), Or(vec![leaf(Eq, 1), leaf(Eq, 2)])),
                    cp(col(5, 1), leaf(Gt, 0)),
                ],
            },
        ),
        (
            "reversed_and_duplicate_joins",
            Query {
                tables: vec![TableId(2), TableId(0), TableId(1), TableId(0)],
                joins: vec![
                    join(col(2, 0), col(1, 1)),
                    join(col(1, 0), col(0, 0)),
                    join(col(0, 0), col(1, 0)),
                    join(col(1, 1), col(2, 0)),
                ],
                predicates: vec![cp(col(2, 3), leaf(Ge, 1990))],
            },
        ),
    ]
}

const PINNED: &[(&str, &str)] = &[
    ("no_predicates", "7146310b201a9b361d950f6f0657bbb0"),
    ("int_leaf", "22cac1f3252a7192570e7fd758187a4a"),
    ("float_leaf", "a88ca290a22a2a8c6021e784d48db692"),
    ("str_leaf", "afc3e77db20659f087a837c2dee94831"),
    ("mixed_literals", "4476782aa112ad39530d70fe43b4e5c8"),
    ("nested_and_or", "c0c75ff6ca697ccb71cc6c06213d8176"),
    ("duplicate_children", "226f98bf6f2da343286e04bb0b5e19ac"),
    ("singleton_wrappers", "9bd86519f52a7187d48bd8d5d1109288"),
    ("empty_and_or", "c021e345371deba78727cefb8af53720"),
    ("repeated_attribute", "21a841a616622de74d93dad8fbfce4dc"),
    ("orphan_predicates", "d1e81164d89cfae980d33ba64bd96976"),
    (
        "reversed_and_duplicate_joins",
        "4353a7eab03a71d4b0d78ea1557699f8",
    ),
];

/// A five-table JOB-light-shaped star (table 0 in the middle) with
/// predicates on four of its tables, one of them disjunctive.
fn five_table_query() -> Query {
    use CmpOp::*;
    Query {
        tables: vec![TableId(3), TableId(0), TableId(4), TableId(1), TableId(2)],
        joins: vec![
            join(col(1, 1), col(0, 0)),
            join(col(0, 0), col(2, 1)),
            join(col(3, 1), col(0, 0)),
            join(col(0, 0), col(4, 1)),
        ],
        predicates: vec![
            cp(
                col(0, 2),
                PredicateExpr::And(vec![leaf(Ge, 1990), leaf(Le, 2005)]),
            ),
            cp(col(2, 2), leaf(Eq, 4)),
            cp(
                col(4, 3),
                PredicateExpr::Or(vec![leaf(Lt, 10), leaf(Gt, 100)]),
            ),
            cp(col(1, 2), PredicateExpr::leaf(Eq, "tv")),
        ],
    }
}

/// `subset_fingerprint(mask)` for masks `1..=31` of [`five_table_query`].
const PINNED_SUBSETS: &[&str] = &[
    "aa541339a1bfddd11e9d241d280e16de",
    "12b8a622b793ef409a2a1647717f6c97",
    "3826c4baf97931edb21c4d2f2b450a55",
    "328d36815dbcd3c14ba3f16ec7a5426e",
    "46b516b56b263b056e0baa53e119feb9",
    "5f927edb5f491935b292c334c8e8506f",
    "1ac4098b900ac45f228e65d3f71bd512",
    "61c665cf2f857e7ca7fc0b582bbd21a3",
    "831cbdaf85ca2f5a95892136afb66cef",
    "9d431d4aa29e7d3e5f4800fbf68a8d92",
    "da1709f2f5a4979068742ff2659ca5b6",
    "a0d7588827ac1b2c20d66a918961e56d",
    "f97cd38113549f1bfc4fbdb0d25065fc",
    "4e181a4fb8fc9d441625696a2abbfeba",
    "ef7aa3d0713d28755a1898cb244ad171",
    "f9cdac4f7c2a803f781a65cba6fdfc32",
    "1d0ee2097642711e4db023a54ffe6ab7",
    "0a3944b0610eb6a6aaaa08c231ebe627",
    "4a4b5fd454539e0c1faad83e3803ac98",
    "4867c57c58f20ec86ebbf103e080e54c",
    "d3d97aa6ee29f4dbe0a57dfd9d178afe",
    "ef86a97b82401369d890cf8dd099be4f",
    "52ccb6081797dd06278c2b05df599f3d",
    "5817cf6fb34d6eb93dab3e13f4c9325b",
    "f4d172ee73e4e530f97800ea16436c0a",
    "aeca12be93f13192c67f2beab60127f8",
    "78f02887d18d812533fe3d5744dcff3b",
    "18f7d9bfcc274388366f75384f073bb5",
    "6151365129b90edb41158ca264e84d6f",
    "c902ebc564d4f0aec10b24bb73153730",
    "31a3c470eb31ec84188beb643f77e2aa",
];

#[test]
fn pinned_query_fingerprints() {
    let got: Vec<(&str, String)> = cases()
        .iter()
        .map(|(name, q)| (*name, QueryFingerprint::of(q).to_string()))
        .collect();
    let expected: Vec<(&str, String)> = PINNED.iter().map(|&(n, h)| (n, h.to_string())).collect();
    assert_eq!(got, expected);
}

#[test]
fn pinned_subset_fingerprints_of_a_five_table_query() {
    let q = five_table_query();
    let mut canon = CanonicalQuery::new(&q);
    assert_eq!(canon.full_mask(), 0b11111);
    let got: Vec<String> = (1..=canon.full_mask())
        .map(|mask| canon.subset_fingerprint(mask).to_string())
        .collect();
    assert_eq!(got, PINNED_SUBSETS);
    // Each pinned value is also the fingerprint of the materialized
    // sub-query, so the table pins `QueryFingerprint::of` on 31 more
    // queries.
    for (mask, hex) in (1..=canon.full_mask()).zip(PINNED_SUBSETS) {
        let sub = subset_query(&q, canon.tables(), mask);
        assert_eq!(
            QueryFingerprint::of(&sub).to_string(),
            *hex,
            "mask {mask:#b}"
        );
    }
    assert_eq!(
        canon.subset_fingerprint(canon.full_mask()),
        QueryFingerprint::of(&q)
    );
}
