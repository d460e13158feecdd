//! `plan-joblight`: the join-order `Optimizer`, in process on one thread,
//! over local GB × Universal Conjunction Encoding models of a synthetic
//! IMDB. Queries are a seeded stream drawn from a pool of generated 2–5
//! table join queries, disjoint from training. One cross-call
//! `EstimateCache` is shared by the stream, with a capacity smaller than
//! the pool's distinct sub-plans, so misses and evictions happen.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use qfe_bench::trainers::{make_featurizer, QftKind};
use qfe_core::estimator::{CardinalityEstimator, Estimate};
use qfe_core::{EstimateError, Query, SubSchema};
use qfe_data::imdb::{generate_imdb, ImdbConfig};
use qfe_data::Database;
use qfe_estimators::labels::{label_queries, LabeledQueries};
use qfe_estimators::LocalModelEstimator;
use qfe_exec::{EstimateCache, OptimizeStats, OptimizedPlan, Optimizer};
use qfe_ml::gbdt::Gbdt;
use qfe_workload::{generate_join_workload, JoinWorkloadConfig};

use crate::common::{
    disjoint_from, median, micros, peak_rss_mb, qerror_summary, retrain_time_s, sub_seed, Args,
    Phase, RateWindows, Report, Rng, WindowStats,
};
use crate::models::{gb_config, Twin, BUCKETS};
use crate::trace::{span_cost_ns, SpanBuf, Tracer};

const TITLES: usize = 1_500;
const IMDB_SEED: u64 = 0x1_4DB;
const TRAIN_QUERIES: usize = 1_200;
/// The training workload and the held-out pool are fixed (the model
/// under test and its test set); the seed draws the query stream.
const TRAIN_SEED: u64 = 7;
const POOL_SEED: u64 = 8;
const POOL_QUERIES: usize = 3_000;
/// Throughput is the median completion rate over windows of this.
const RATE_WINDOW: std::time::Duration = std::time::Duration::from_millis(500);
const TREES: usize = 60;
/// Cache capacity as a share of the pool's distinct sub-plans.
const CACHE_SHARE: f64 = 0.3;
/// Stream queries whose cached plans are compared with uncached ones.
const SAMPLE: usize = 40;
/// In the traced run, every this-many-th plan records its spans (all
/// plans are timed; spans are sampled to bound memory).
const SPAN_EVERY: u64 = 64;

struct World {
    db: Database,
    train: LabeledQueries,
    local: LocalModelEstimator,
    pool: LabeledQueries,
    cache_capacity: usize,
}

fn train_local(db: &Database, train: &LabeledQueries) -> LocalModelEstimator {
    LocalModelEstimator::train(
        db.catalog(),
        train,
        20,
        &|space| make_featurizer(QftKind::Conjunctive, space, BUCKETS, true),
        &|| Box::new(Gbdt::new(gb_config(TREES))),
    )
    .expect("join training queries featurize")
    .with_system_r_fallback(db.catalog())
}

fn setup() -> World {
    let db = generate_imdb(&ImdbConfig {
        titles: TITLES,
        seed: IMDB_SEED,
    });
    let train_q = generate_join_workload(
        db.catalog(),
        &JoinWorkloadConfig::new(TRAIN_QUERIES, TRAIN_SEED),
    );
    let pool_q = generate_join_workload(
        db.catalog(),
        &JoinWorkloadConfig::new(POOL_QUERIES, POOL_SEED),
    );
    let pool_q: Vec<Query> = disjoint_from(&train_q, pool_q);
    let train = label_queries(&db, train_q);
    let pool = label_queries(&db, pool_q);
    let local = train_local(&db, &train);
    // Size the cache from the pool's distinct sub-plans.
    let sizing = Arc::new(EstimateCache::new());
    let opt = Optimizer::new(&local).with_cache(Arc::clone(&sizing));
    for q in &pool.queries {
        let _ = opt.optimize(q);
    }
    let cache_capacity = ((sizing.len() as f64 * CACHE_SHARE) as usize).max(1);
    World {
        db,
        train,
        local,
        pool,
        cache_capacity,
    }
}

/// Estimator wrapper that times and counts every call the optimizer
/// makes, and records each as a span under the current plan's span.
struct Timed<'a> {
    inner: &'a LocalModelEstimator,
    calls: Cell<u64>,
    ns: Cell<u64>,
    spans: RefCell<SpanBuf>,
    parent: Cell<Option<u64>>,
    rid: Cell<u64>,
}

impl CardinalityEstimator for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.inner.estimate(query)
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        let id = self.parent.get().and_then(|parent| {
            self.spans
                .borrow_mut()
                .enter("estimator.try_estimate", Some(parent), self.rid.get())
        });
        let t = Instant::now();
        let r = self.inner.try_estimate(query);
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        self.spans.borrow_mut().exit(id);
        r
    }
}

fn same(a: &OptimizedPlan, b: &OptimizedPlan) -> bool {
    a.plan == b.plan && a.cost.to_bits() == b.cost.to_bits()
}

pub fn run(args: &Args, report: &mut Report) {
    let tracer = Tracer::new(args.trace);
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..3 {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
    let w = world.expect("set-up ran");
    let setup_s = median(&setups);

    // Retraining every local model on the training set.
    let retrain_s = retrain_time_s(5, || drop(train_local(&w.db, &w.train)));

    let cache = Arc::new(EstimateCache::with_capacity(w.cache_capacity));
    let timed = Timed {
        inner: &w.local,
        calls: Cell::new(0),
        ns: Cell::new(0),
        spans: RefCell::new(tracer.buf(1)),
        parent: Cell::new(None),
        rid: Cell::new(0),
    };
    let plain = Optimizer::new(&w.local).with_cache(Arc::clone(&cache));
    let traced = Optimizer::new(&timed).with_cache(Arc::clone(&cache));

    let n = w.pool.len();
    let mut rng = Rng::new(sub_seed(args.seed, 2));
    let mut lat = WindowStats::default();
    let mut done = RateWindows::new(Instant::now(), RATE_WINDOW);
    let mut first: Vec<Option<OptimizedPlan>> = vec![None; n];
    let mut totals = OptimizeStats::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut plan_self_ns = Vec::new();
    let mut plan_est_ns = Vec::new();
    let end = Instant::now() + args.duration();
    let wall = Instant::now();
    while Instant::now() < end {
        let qi = rng.below(n);
        let q = &w.pool.queries[qi];
        let rid = attempted;
        attempted += 1;
        let (result, us) = if args.trace {
            let root = if rid.is_multiple_of(SPAN_EVERY) {
                timed
                    .spans
                    .borrow_mut()
                    .enter("optimizer.optimize", None, rid)
            } else {
                None
            };
            timed.parent.set(root);
            timed.rid.set(rid);
            let est_before = timed.ns.get();
            let t = Instant::now();
            let r = traced.optimize(q);
            let total = t.elapsed().as_nanos() as f64;
            timed.spans.borrow_mut().exit(root);
            let est = (timed.ns.get() - est_before) as f64;
            plan_est_ns.push(est);
            plan_self_ns.push(total - est);
            (r, total / 1e3)
        } else {
            let t = Instant::now();
            let r = plain.optimize(q);
            (r, micros(t.elapsed()))
        };
        match result {
            Ok(plan) => {
                lat.push(us);
                done.count(Instant::now());
                let s = plan.stats;
                totals.probes += s.probes;
                totals.call_hits += s.call_hits;
                totals.cross_hits += s.cross_hits;
                totals.misses += s.misses;
                if first[qi].is_none() {
                    first[qi] = Some(plan);
                }
            }
            Err(e) => {
                lat.push(f64::INFINITY);
                failed += 1;
                eprintln!("plan {rid} failed: {e}");
            }
        }
    }
    let secs = wall.elapsed().as_secs_f64();
    report.phase(Phase::new("plan-stream", attempted, failed));

    // ---- checks ------------------------------------------------------
    let uncached = Optimizer::new(&w.local);
    let mut compared = 0;
    let mut diverged = 0;
    for (qi, cached) in first.iter().enumerate() {
        if compared == SAMPLE {
            break;
        }
        if let Some(cached) = cached {
            compared += 1;
            let reference = uncached
                .optimize(&w.pool.queries[qi])
                .expect("uncached plan");
            if !same(cached, &reference) {
                diverged += 1;
            }
        }
    }
    report.check(
        "cached_plans_equal_uncached",
        compared > 0 && diverged == 0,
        format!("{diverged} of {compared} sampled plans differ in plan or cost"),
    );
    let cs = cache.stats();
    let lhs = totals.probes;
    report.check(
        "probes_eq_hits_plus_misses",
        lhs == totals.call_hits + totals.cross_hits + totals.misses
            && cs.hits == totals.cross_hits
            && cs.misses == totals.misses,
        format!(
            "optimizer probes {lhs} = call hits {} + cross hits {} + misses {}; cache hits {} misses {}",
            totals.call_hits, totals.cross_hits, totals.misses, cs.hits, cs.misses
        ),
    );
    report.check(
        "cache_evicted",
        cs.evictions > 0,
        format!(
            "{} evictions at capacity {}",
            cs.evictions, w.cache_capacity
        ),
    );

    // ---- metrics -----------------------------------------------------
    report.note(format!("plans: {}", lat.describe()));
    let (q50, q95, nq) = qerror_summary(first.iter().enumerate().map(|(qi, p)| {
        let est = match p {
            Some(p) => p.estimated_cardinality,
            None => uncached
                .optimize(&w.pool.queries[qi])
                .map_or(f64::INFINITY, |p| p.estimated_cardinality),
        };
        (w.pool.cardinalities[qi], est)
    }));
    report.note(format!(
        "{attempted} plans over a pool of {n} queries, cache capacity {}, q-error over {nq} queries",
        w.cache_capacity
    ));
    if !args.trace {
        report.metric("setup_s", setup_s, "s");
        report.metric("throughput_qps", done.rate(), "1/s");
        report.metric("latency_p50_us", lat.p50(), "us");
        report.metric(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.metric("qerror_p50", q50, "ratio");
        report.metric("qerror_p95", q95, "ratio");
        report.metric("retrain_s", retrain_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return;
    }
    let plans = attempted.max(1) as f64;
    let est_us = median(&plan_est_ns) / 1e3;
    let self_us = median(&plan_self_ns) / 1e3;
    report.metric(
        "optimizer.estimator_calls_per_plan",
        timed.calls.get() as f64 / plans,
        "count",
    );
    report.metric("optimizer.estimator_us_per_plan", est_us, "us");
    report.metric("optimizer.self_us_per_plan", self_us, "us");
    report.metric("cache.hit_rate", cs.hit_rate(), "ratio");
    report.metric("cache.probes", cs.probes() as f64, "count");
    report.metric("cache.evictions", cs.evictions as f64, "count");
    report.metric("unattributed_us", lat.p50() - est_us - self_us, "us");
    report.metric("e2e.latency_p95_us", lat.p95(), "us");
    report.metric("e2e.latency_p99_us", lat.p99(), "us");
    let spans = timed.spans.into_inner();
    let span_count = spans.len() as f64;
    tracer.absorb(spans);
    report.metric("trace.spans", span_count, "count");
    report.metric(
        "trace.overhead_frac",
        span_count * span_cost_ns() / (secs * 1e9),
        "ratio",
    );

    // The estimator path of the local model that serves the most pool
    // queries, on those queries, through a twin of that model.
    let mut by_schema: HashMap<SubSchema, Vec<Query>> = HashMap::new();
    for q in &w.pool.queries {
        by_schema.entry(q.sub_schema()).or_default().push(q.clone());
    }
    let busiest = by_schema
        .iter()
        .filter(|(schema, _)| w.local.model_for(schema).is_some())
        .max_by(|a, b| {
            a.1.len()
                .cmp(&b.1.len())
                .then_with(|| b.0.tables().cmp(a.0.tables()))
        });
    if let Some((schema, queries)) = busiest {
        let model = w
            .local
            .model_for(schema)
            .expect("filtered on a trained model");
        let group = w.train.clone().filter(|q, _| q.sub_schema() == *schema);
        let twin = Twin::train(model, &group, TREES);
        twin.check(model, queries, report);
        twin.path_metrics(model, queries, report);
    }

    // Featurization of join queries through their local model's QFT.
    let feat_ns: Vec<f64> = w
        .pool
        .queries
        .iter()
        .filter_map(|q| {
            let model = w.local.model_for(&q.sub_schema())?;
            let t = Instant::now();
            std::hint::black_box(model.featurizer().featurize(q).ok());
            Some(t.elapsed().as_nanos() as f64)
        })
        .collect();
    report.metric("featurize.join_ns_per_query", median(&feat_ns), "ns");
    let try_ns: Vec<f64> = w
        .pool
        .queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(w.local.try_estimate(q).ok());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    report.metric("learned.try_estimate_us", median(&try_ns) / 1e3, "us");
    crate::fingerprint_metrics(&w.pool.queries, report);
    crate::codec_metrics(&w.pool.queries, report);
    crate::write_spans(&tracer, &args.workload, args.seed);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}
