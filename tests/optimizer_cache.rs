//! Plan-equivalence and invalidation tests for the optimizer's sub-plan
//! estimate cache.
//!
//! The cache is an optimization, never a semantic change: with the same
//! estimator, cache-on and cache-off optimization must choose
//! bit-identical plans at bit-identical costs. And when the estimator
//! hot-swaps underneath a generation-tied cache (the serving layer's
//! `ModelSlot`), the cache must drop every pre-swap estimate — post-swap
//! plans must equal what a cache-free optimizer computes against the new
//! model.

use std::sync::Arc;

use qfe::core::estimator::CardinalityEstimator;
use qfe::core::fingerprint::QueryFingerprint;
use qfe::core::{
    CmpOp, ColumnId, ColumnRef, CompoundPredicate, JoinPredicate, Query, SimplePredicate, TableId,
};
use qfe::data::imdb::{generate_imdb, ImdbConfig};
use qfe::exec::{EstimateCache, Optimizer};
use qfe::serve::{ModelSlot, SharedEstimator};
use qfe::workload::{generate_join_workload, JoinWorkloadConfig};

/// Deterministic, content-sensitive estimator: the estimate is a pure
/// function of the query's semantic fingerprint, so semantically distinct
/// sub-plans get distinct cardinalities (exercising real plan choices)
/// while equal sub-plans always agree (the determinism the equivalence
/// assertions rely on).
struct Synthetic {
    scale: f64,
}

impl CardinalityEstimator for Synthetic {
    fn name(&self) -> String {
        format!("synthetic x{}", self.scale)
    }

    fn estimate(&self, query: &Query) -> f64 {
        let fp = QueryFingerprint::of(query).0;
        self.scale * (1.0 + (fp % 9973) as f64)
    }
}

fn pred(t: usize, c: usize, op: CmpOp, v: i64) -> CompoundPredicate {
    CompoundPredicate::conjunction(
        ColumnRef::new(TableId(t), ColumnId(c)),
        vec![SimplePredicate::new(op, v)],
    )
}

fn chain(n: usize, predicates: Vec<CompoundPredicate>) -> Query {
    Query {
        tables: (0..n).map(TableId).collect(),
        joins: (1..n)
            .map(|i| JoinPredicate {
                left: ColumnRef::new(TableId(i - 1), ColumnId(0)),
                right: ColumnRef::new(TableId(i), ColumnId(0)),
            })
            .collect(),
        predicates,
    }
}

/// A workload with overlapping sub-plans: repeated queries, shared
/// prefixes, and predicate reorderings of one another.
fn workload() -> Vec<Query> {
    vec![
        chain(1, vec![pred(0, 1, CmpOp::Ge, 5)]),
        chain(2, vec![pred(0, 1, CmpOp::Ge, 5)]),
        chain(3, vec![pred(0, 1, CmpOp::Ge, 5), pred(2, 1, CmpOp::Eq, 3)]),
        // Same query, predicates reordered — fingerprints collide.
        chain(3, vec![pred(2, 1, CmpOp::Eq, 3), pred(0, 1, CmpOp::Ge, 5)]),
        chain(4, vec![pred(0, 1, CmpOp::Ge, 5), pred(2, 1, CmpOp::Eq, 3)]),
        chain(4, vec![pred(1, 2, CmpOp::Lt, 40)]),
        chain(4, vec![]),
        chain(2, vec![pred(0, 1, CmpOp::Ge, 5)]),
    ]
}

#[test]
fn cached_and_uncached_optimization_choose_bit_identical_plans() {
    let est = Synthetic { scale: 3.0 };
    let uncached = Optimizer::new(&est);
    let cache = Arc::new(EstimateCache::new());
    let cached = Optimizer::new(&est).with_cache(cache.clone());

    let mut cross_hits = 0;
    for (i, q) in workload().iter().enumerate() {
        let off = uncached.optimize(q).unwrap();
        let on = cached.optimize(q).unwrap();
        assert_eq!(off.plan, on.plan, "query {i}: plans diverge");
        assert_eq!(
            off.cost.to_bits(),
            on.cost.to_bits(),
            "query {i}: costs diverge"
        );
        assert_eq!(
            off.estimated_cardinality.to_bits(),
            on.estimated_cardinality.to_bits(),
            "query {i}: cardinalities diverge"
        );
        // Per-call conservation holds for every single call.
        for s in [&off.stats, &on.stats] {
            assert_eq!(s.probes, s.call_hits + s.cross_hits + s.misses);
        }
        assert_eq!(off.stats.cross_hits, 0, "no cache installed");
        cross_hits += on.stats.cross_hits;
    }
    assert!(
        cross_hits > 0,
        "overlapping workload must hit the cross-call cache"
    );
    // Cache-level conservation across the whole workload.
    let s = cache.stats();
    assert_eq!(s.probes(), s.hits + s.misses);
    assert_eq!(s.hits, cross_hits);
}

#[test]
fn repeat_workload_is_answered_without_the_estimator() {
    let est = Synthetic { scale: 3.0 };
    let cache = Arc::new(EstimateCache::new());
    let opt = Optimizer::new(&est).with_cache(cache);
    let queries = workload();
    for q in &queries {
        opt.optimize(q).unwrap();
    }
    // Every sub-plan of the second pass is already cached.
    for q in &queries {
        let plan = opt.optimize(q).unwrap();
        assert_eq!(plan.stats.misses, 0, "second pass must be all hits");
        assert_eq!(plan.stats.hit_rate(), 1.0);
    }
}

#[test]
fn model_swap_mid_run_invalidates_and_matches_uncached_replan() {
    let model_a: SharedEstimator = Arc::new(Synthetic { scale: 2.0 });
    let model_b: SharedEstimator = Arc::new(Synthetic { scale: 1000.0 });
    let slot = Arc::new(ModelSlot::new(model_a));
    let cache = Arc::new(EstimateCache::with_generation_source(slot.clone()));

    let queries = workload();
    let probe = vec![queries[0].clone()];

    let slot_ref: &ModelSlot = &slot;
    let cached = Optimizer::new(&slot_ref).with_cache(cache.clone());
    // Warm the cache under model A.
    let before: Vec<_> = queries
        .iter()
        .map(|q| cached.optimize(q).unwrap())
        .collect();

    // Hot-swap to model B mid-run.
    slot.try_publish(model_b, &probe).expect("valid candidate");

    // Every post-swap plan must equal an uncached replan against the slot
    // (now serving B): no estimate computed under A may survive.
    let uncached = Optimizer::new(&slot_ref);
    for (i, q) in queries.iter().enumerate() {
        let on = cached.optimize(q).unwrap();
        let off = uncached.optimize(q).unwrap();
        assert_eq!(off.plan, on.plan, "query {i}: stale plan after swap");
        assert_eq!(
            off.estimated_cardinality.to_bits(),
            on.estimated_cardinality.to_bits(),
            "query {i}: stale estimate after swap"
        );
        // The models differ enough that estimates must actually change.
        assert_ne!(
            before[i].estimated_cardinality.to_bits(),
            on.estimated_cardinality.to_bits(),
            "query {i}: swap did not change the estimate"
        );
    }
    let stats = cache.stats();
    assert!(
        stats.invalidations > 0,
        "generation bump must drop pre-swap entries"
    );
}

#[test]
fn swap_between_optimize_calls_never_serves_stale_hits() {
    let model_a: SharedEstimator = Arc::new(Synthetic { scale: 2.0 });
    let slot = Arc::new(ModelSlot::new(model_a));
    let cache = Arc::new(EstimateCache::with_generation_source(slot.clone()));
    let slot_ref: &ModelSlot = &slot;
    let opt = Optimizer::new(&slot_ref).with_cache(cache.clone());

    let q = chain(3, vec![pred(0, 1, CmpOp::Ge, 5)]);
    opt.optimize(&q).unwrap();
    let warm = opt.optimize(&q).unwrap();
    assert_eq!(warm.stats.misses, 0);

    let model_b: SharedEstimator = Arc::new(Synthetic { scale: 77.0 });
    slot.try_publish(model_b, std::slice::from_ref(&q))
        .expect("valid candidate");

    // First call after the swap sees a cold cache: every probe misses.
    let cold = opt.optimize(&q).unwrap();
    assert_eq!(cold.stats.cross_hits, 0, "stale hit served after swap");
    assert_eq!(cold.stats.misses, cold.stats.probes - cold.stats.call_hits);
}

/// Twenty generated JOB-light queries over a small synthetic IMDB: the
/// star joins onto `title` the paper's end-to-end experiment plans.
fn joblight_queries() -> Vec<Query> {
    let db = generate_imdb(&ImdbConfig {
        titles: 500,
        seed: 17,
    });
    generate_join_workload(db.catalog(), &JoinWorkloadConfig::new(20, 31))
}

#[test]
fn optimizer_plans_are_pinned() {
    // The plan, cost and cardinality the optimizer chooses are part of its
    // contract with the paper's end-to-end experiment: a faster dynamic
    // program must keep the split order, the strict tie-break and the
    // order of the float additions, so all three must never drift. The
    // estimator's fractional values make the cost bits depend on that
    // addition order.
    const PINNED: [(&str, u64, u64); 20] = [
        ("(t0 ⋈ t5)", 0x40ada96db6db6db7, 0x407e949249249249),
        ("(t0 ⋈ t4)", 0x40abbc924924924a, 0x404db6db6db6db6d),
        ("(t0 ⋈ t4)", 0x409ea64924924924, 0x40809edb6db6db6d),
        ("(t0 ⋈ t3)", 0x40b3b3ffffffffff, 0x406476db6db6db6d),
        ("(t0 ⋈ t1)", 0x40b35c2492492492, 0x408de36db6db6db6),
        ("((t0 ⋈ t5) ⋈ t1)", 0x40b4296db6db6db6, 0x408ed00000000000),
        ("(t0 ⋈ t5)", 0x40b0dddb6db6db6e, 0x4092340000000000),
        (
            "((((t0 ⋈ t5) ⋈ t4) ⋈ t2) ⋈ t1)",
            0x40bd2bfffffffffe,
            0x4084592492492492,
        ),
        (
            "(((t0 ⋈ t3) ⋈ t1) ⋈ t2)",
            0x40c0318000000000,
            0x4090fadb6db6db6d,
        ),
        ("(t0 ⋈ t3)", 0x40ab9b6db6db6db6, 0x4091ca4924924924),
        ("(t0 ⋈ t3)", 0x40b2966db6db6db6, 0x4080f80000000000),
        ("((t0 ⋈ t2) ⋈ t3)", 0x40b9e8b6db6db6da, 0x4091f89249249249),
        ("(t0 ⋈ t3)", 0x40a9e36db6db6db6, 0x408e292492492492),
        (
            "(((t0 ⋈ t1) ⋈ t5) ⋈ t4)",
            0x40b6136db6db6db7,
            0x4059249249249249,
        ),
        ("(t0 ⋈ t2)", 0x40adc12492492491, 0x407cc49249249249),
        ("((t0 ⋈ t1) ⋈ t2)", 0x40b9e9b6db6db6db, 0x408bd49249249249),
        (
            "(((t0 ⋈ t4) ⋈ t1) ⋈ t3)",
            0x40b94a2492492491,
            0x4090a64924924924,
        ),
        (
            "((((t0 ⋈ t5) ⋈ t1) ⋈ t3) ⋈ t2)",
            0x40bb03b6db6db6db,
            0x408ef00000000000,
        ),
        ("(t0 ⋈ t5)", 0x40a8829249249249, 0x4090c52492492492),
        ("(t0 ⋈ t5)", 0x4098e09249249249, 0x408dec9249249249),
    ];
    let est = Synthetic { scale: 1.0 / 7.0 };
    let opt = Optimizer::new(&est);
    let queries = joblight_queries();
    assert_eq!(queries.len(), PINNED.len());
    for (i, (q, &(render, cost, card))) in queries.iter().zip(&PINNED).enumerate() {
        let p = opt.optimize(q).unwrap();
        assert_eq!(p.plan.render(), render, "query {i}: plan drifted");
        assert_eq!(
            p.cost.to_bits(),
            cost,
            "query {i}: cost drifted to {}",
            p.cost
        );
        assert_eq!(
            p.estimated_cardinality.to_bits(),
            card,
            "query {i}: cardinality drifted to {}",
            p.estimated_cardinality
        );
    }
}
