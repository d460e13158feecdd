//! Optimality of the join-order dynamic program, checked against brute
//! force on random connected join graphs.
//!
//! Every sub-plan cardinality is scripted per table subset, so the cost
//! of any plan is a pure function of its shape. The optimizer's cost must
//! then equal, bit for bit, the minimum over an exhaustive recursive
//! enumeration of every bushy plan without cross products; and replaying
//! the cost model over the plan it returns must give the cost it reports.

use std::collections::HashMap;

use proptest::prelude::*;
use qfe_core::estimator::CardinalityEstimator;
use qfe_core::query::{ColumnRef, JoinPredicate};
use qfe_core::{ColumnId, Query, TableId};
use qfe_exec::{JoinPlan, Optimizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Estimator answering every sub-plan from a table keyed by its sorted
/// table list.
struct Scripted(HashMap<Vec<TableId>, f64>);

impl Scripted {
    fn card(&self, tables: &[TableId]) -> f64 {
        let mut key = tables.to_vec();
        key.sort_unstable();
        self.0[&key]
    }
}

impl CardinalityEstimator for Scripted {
    fn name(&self) -> String {
        "scripted".into()
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.card(query.sub_schema().tables())
    }
}

/// A random connected join graph over 2–6 tables with distinct,
/// non-contiguous ids: a random spanning tree plus extra edges (some
/// parallel to existing ones), random join sides and join order, and a
/// shuffled table list. Every subset gets a scripted cardinality —
/// fractional spread over six decades, or small integers so that ties
/// between splits occur.
fn case(seed: u64) -> (Query, Scripted) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=6usize);
    let mut ids: Vec<usize> = (0..16).collect();
    ids.shuffle(&mut rng);
    let mut tables: Vec<TableId> = ids[..n].iter().map(|&i| TableId(i)).collect();

    let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
    for _ in 0..rng.gen_range(0..=n) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            edges.push((a, b));
        }
    }
    edges.shuffle(&mut rng);
    let joins = edges
        .iter()
        .map(|&(a, b)| {
            let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            JoinPredicate {
                left: ColumnRef::new(tables[a], ColumnId(rng.gen_range(0..3))),
                right: ColumnRef::new(tables[b], ColumnId(rng.gen_range(0..3))),
            }
        })
        .collect();

    let integer = rng.gen_bool(0.3);
    let mut sorted = tables.clone();
    sorted.sort_unstable();
    let mut cards = HashMap::new();
    for mask in 1u32..1 << n {
        let key: Vec<TableId> = (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| sorted[i])
            .collect();
        let card = if integer {
            rng.gen_range(1..=4) as f64
        } else {
            10f64.powf(rng.gen_range(0.0..6.0))
        };
        cards.insert(key, card);
    }

    tables.shuffle(&mut rng);
    let query = Query {
        tables,
        joins,
        predicates: vec![],
    };
    (query, Scripted(cards))
}

fn bits(tables: &[TableId], set: &[TableId]) -> u32 {
    set.iter()
        .map(|t| 1 << tables.iter().position(|x| x == t).unwrap())
        .fold(0, |a, b| a | b)
}

fn tables_of(tables: &[TableId], mask: u32) -> Vec<TableId> {
    (0..tables.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| tables[i])
        .collect()
}

/// Whether some join has one side in `a` and the other in `b`.
fn joined(edges: &[(u32, u32)], a: u32, b: u32) -> bool {
    edges
        .iter()
        .any(|&(l, r)| (l & a != 0 && r & b != 0) || (l & b != 0 && r & a != 0))
}

fn connected(edges: &[(u32, u32)], mask: u32) -> bool {
    let mut reached = mask & mask.wrapping_neg();
    loop {
        let grown = edges
            .iter()
            .filter(|&&(l, r)| (l | r) & !mask == 0 && (l | r) & reached != 0)
            .fold(reached, |acc, &(l, r)| acc | l | r);
        if grown == reached {
            return reached == mask;
        }
        reached = grown;
    }
}

/// Costs of every bushy plan for `mask` without cross products. The side
/// holding the lowest table is the left (build) input, as the optimizer
/// orders it; the cost model is symmetric in its inputs, so this loses
/// no plan, and it keeps the optimizer's order of float additions.
fn all_costs(tables: &[TableId], edges: &[(u32, u32)], est: &Scripted, mask: u32) -> Vec<f64> {
    let card = |m: u32| est.card(&tables_of(tables, m));
    if mask.count_ones() == 1 {
        return vec![card(mask)];
    }
    let low = mask & mask.wrapping_neg();
    let mut costs = Vec::new();
    for left in 1..mask {
        let right = mask ^ left;
        if left & !mask != 0
            || left & low == 0
            || right == 0
            || !connected(edges, left)
            || !connected(edges, right)
            || !joined(edges, left, right)
        {
            continue;
        }
        for lc in all_costs(tables, edges, est, left) {
            for rc in all_costs(tables, edges, est, right) {
                costs.push(lc + rc + card(left) + card(right) + card(mask));
            }
        }
    }
    costs
}

/// `(cost, cardinality)` of `plan` under the cost model, recomputed from
/// the plan alone; also checks that every join connects its two sides.
fn replay(plan: &JoinPlan, est: &Scripted) -> (f64, f64) {
    match plan {
        JoinPlan::Scan(t) => {
            let card = est.card(&[*t]);
            (card, card)
        }
        JoinPlan::Join { left, right, join } => {
            let (lt, rt) = (left.tables(), right.tables());
            let (l, r) = (join.left.table, join.right.table);
            assert!(
                (lt.contains(&l) && rt.contains(&r)) || (lt.contains(&r) && rt.contains(&l)),
                "join {join:?} does not connect {} and {}",
                left.render(),
                right.render()
            );
            let (lc, lcard) = replay(left, est);
            let (rc, rcard) = replay(right, est);
            let card = est.card(&plan.tables());
            (lc + rc + lcard + rcard + card, card)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimizer_cost_equals_brute_force_minimum(seed in 0u64..u64::MAX) {
        let (query, est) = case(seed);
        let plan = Optimizer::new(&est).optimize(&query).unwrap();

        let mut tables = query.tables.clone();
        tables.sort_unstable();
        let edges: Vec<(u32, u32)> = query
            .joins
            .iter()
            .map(|j| (bits(&tables, &[j.left.table]), bits(&tables, &[j.right.table])))
            .collect();
        let full = (1u32 << tables.len()) - 1;
        let brute = all_costs(&tables, &edges, &est, full)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(plan.cost.to_bits(), brute.to_bits(), "seed {}", seed);

        let mut planned = plan.plan.tables();
        planned.sort_unstable();
        prop_assert_eq!(&planned, &tables);
        let (cost, card) = replay(&plan.plan, &est);
        prop_assert_eq!(cost.to_bits(), plan.cost.to_bits(), "seed {}", seed);
        prop_assert_eq!(card.to_bits(), plan.estimated_cardinality.to_bits());
    }
}
