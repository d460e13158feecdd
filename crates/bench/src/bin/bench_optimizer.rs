//! Optimizer throughput record for the sub-plan estimate cache: the full
//! JOB-light-like suite is optimized repeatedly with a trained local-model
//! estimator, once without any cross-call cache and once with a shared
//! [`qfe_exec::EstimateCache`]. Writes the machine-readable record to
//! `BENCH_optimizer.json` (override with `QFE_BENCH_JSON`), prints the
//! same numbers as text, and exits non-zero if the cached arm is slower
//! than the uncached arm, if the cache's counter conservation law breaks
//! (`probes != hits + misses`), or if any cached plan differs from its
//! uncached equivalent — the CI regression gate for this path.
//!
//! A bounded leg then replays the suite through a cache holding only 30%
//! of its distinct sub-plans, so CLOCK eviction runs. It records the
//! bounded hit rate and eviction count, and fails if the leg never
//! evicts or if any plan under eviction differs from its uncached plan.
//! Scale via `QFE_SCALE=smoke|small|full`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_bench::envs::ImdbEnv;
use qfe_bench::trainers::{train_local_models, ModelKind, QftKind};
use qfe_exec::{EstimateCache, OptimizedPlan, Optimizer};

/// Bounded leg: cache capacity as a share of the suite's distinct
/// sub-plans.
const BOUNDED_SHARE: f64 = 0.3;
/// Bounded leg: passes over the suite.
const BOUNDED_PASSES: usize = 3;

/// Run `f` (which optimizes `per_iter` queries) repeatedly for at least
/// `budget`, after one warmup call; returns microseconds per query.
fn measure(per_iter: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut iters = 0u64;
    while started.elapsed() < budget {
        f();
        iters += 1;
    }
    let total = started.elapsed().as_secs_f64() * 1e6;
    total / (iters as f64 * per_iter as f64)
}

fn main() {
    let scale = qfe_bench::Scale::from_env();
    eprintln!("building JOB-light environment at scale '{}'…", scale.label);
    let env = ImdbEnv::build(&scale);
    eprintln!("training GB × conjunctive local models…");
    let est = train_local_models(
        env.db.catalog(),
        &env.train,
        QftKind::Conjunctive,
        ModelKind::Gb,
        &scale,
        scale.buckets,
    );
    let queries = &env.suite.queries;
    let budget = Duration::from_millis(300);

    // Plan equivalence first: the cache must never change a plan choice.
    let uncached = Optimizer::new(&est);
    let cache = Arc::new(EstimateCache::new());
    let cached = Optimizer::new(&est).with_cache(cache.clone());
    let same = |a: &OptimizedPlan, b: &OptimizedPlan| {
        a.plan == b.plan && a.cost.to_bits() == b.cost.to_bits()
    };
    let mut divergent = 0usize;
    let mut reference = Vec::with_capacity(queries.len());
    for q in queries {
        let off = uncached.optimize(q).expect("optimizable query");
        let on = cached.optimize(q).expect("optimizable query");
        if !same(&off, &on) {
            divergent += 1;
        }
        reference.push(off);
    }

    // Bounded leg: the same suite through a cache too small to hold it,
    // so the CLOCK hand evicts. Eviction may only cost hits, never
    // change a plan.
    let distinct = cache.len();
    let bounded_capacity = ((distinct as f64 * BOUNDED_SHARE) as usize).max(1);
    let bounded_cache = Arc::new(EstimateCache::with_capacity(bounded_capacity));
    let bounded = Optimizer::new(&est).with_cache(bounded_cache.clone());
    let mut bounded_divergent = 0usize;
    for _ in 0..BOUNDED_PASSES {
        for (q, off) in queries.iter().zip(&reference) {
            if !same(off, &bounded.optimize(q).expect("optimizable query")) {
                bounded_divergent += 1;
            }
        }
    }
    let bounded_stats = bounded_cache.stats();

    // Uncached arm: every sub-plan estimate reaches the estimator.
    let uncached_us = measure(queries.len(), budget, || {
        for q in queries {
            std::hint::black_box(uncached.optimize(q).expect("optimizable query"));
        }
    });

    // Cached arm: one shared cross-call cache over the whole suite; after
    // the warmup pass, every sub-plan estimate is a cache hit (the
    // Hyrise-style steady state of a workload with recurring sub-plans).
    let cached_us = measure(queries.len(), budget, || {
        for q in queries {
            std::hint::black_box(cached.optimize(q).expect("optimizable query"));
        }
    });

    let speedup = uncached_us / cached_us;
    let stats = cache.stats();
    let conserved = stats.probes() == stats.hits + stats.misses;

    println!(
        "optimizer over the JOB-light-like suite ({} queries, {}):",
        queries.len(),
        scale.label
    );
    println!("  uncached {uncached_us:>9.2} µs/query");
    println!("  cached   {cached_us:>9.2} µs/query   speedup {speedup:>5.2}×");
    println!(
        "  cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, {} invalidations",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.evictions,
        stats.invalidations
    );
    println!(
        "  bounded cache ({bounded_capacity} of {distinct} distinct sub-plans, {BOUNDED_PASSES} passes): \
         {:.1}% hit rate, {} evictions",
        bounded_stats.hit_rate() * 100.0,
        bounded_stats.evictions
    );

    let json = format!(
        "{{\"workload\":\"joblight\",\"scale\":\"{}\",\"queries\":{},\"uncached_us_per_query\":{:.3},\"cached_us_per_query\":{:.3},\"speedup\":{:.2},\"hit_rate\":{:.4},\"hits\":{},\"misses\":{},\"evictions\":{},\"invalidations\":{},\"bounded_capacity\":{},\"bounded_hit_rate\":{:.4},\"bounded_evictions\":{}}}\n",
        scale.label,
        queries.len(),
        uncached_us,
        cached_us,
        speedup,
        stats.hit_rate(),
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.invalidations,
        bounded_capacity,
        bounded_stats.hit_rate(),
        bounded_stats.evictions
    );
    let path = std::env::var("QFE_BENCH_JSON").unwrap_or_else(|_| "BENCH_optimizer.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {path}");

    let mut failed = false;
    if divergent > 0 {
        eprintln!("REGRESSION: {divergent} cached plans diverge from uncached plans");
        failed = true;
    }
    if bounded_stats.evictions == 0 {
        eprintln!("REGRESSION: the bounded leg never evicted (capacity {bounded_capacity})");
        failed = true;
    }
    if bounded_divergent > 0 {
        eprintln!(
            "REGRESSION: {bounded_divergent} plans under eviction diverge from uncached plans"
        );
        failed = true;
    }
    if !conserved {
        eprintln!(
            "REGRESSION: cache counters violate conservation ({} probes != {} hits + {} misses)",
            stats.probes(),
            stats.hits,
            stats.misses
        );
        failed = true;
    }
    if speedup < 1.0 {
        eprintln!("REGRESSION: cached optimization is slower than uncached ({speedup:.2}×)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
