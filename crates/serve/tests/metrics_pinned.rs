//! Pins the metrics a scripted serving session produces, and checks that
//! every typed `stats()` counter equals the snapshot counter named for
//! it.
//!
//! One deterministic script drives the whole observable surface:
//!
//! - a [`NetServer`] over a two-shard [`ShardRegistry`], each shard a
//!   [`MicroBatcher`](qfe_serve::MicroBatcher) over an
//!   [`EstimatorService`], talked to by one sequential loopback client
//!   under generous budgets;
//! - shard `a` serves a panicking stage, a NaN stage, a [`ModelSlot`]
//!   and a constant stage; an [`AdaptController`] walks the slot through
//!   one accepted swap and a passed probation, and an
//!   [`AsyncCheckpointer`] over [`MemFs`] persists the swap;
//! - an [`EstimateCache`] keyed on the slot's generation sees hits,
//!   misses, an eviction and an invalidation;
//! - a [`FallbackChain`] over seeded chaos sees hits, typed errors and
//!   floor answers.
//!
//! The script is sequential and every timing-dependent path is either
//! avoided (no queueing, no breaker cooldown expiry) or forced (a 1 µs
//! budget always expires while the batcher waits its 1 ms fill window),
//! so every value below is exact.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qfe_core::estimator::Estimate;
use qfe_core::fingerprint::QueryFingerprint;
use qfe_core::{CardinalityEstimator, Query, TableId};
use qfe_estimators::{BreakerConfig, ChaosEstimator, EstimatorFault, FallbackChain};
use qfe_exec::cache::{EstimateCache, Probe};
use qfe_obs::{MetricsRecorder, MetricsSnapshot, PageHinkleyConfig};
use qfe_serve::adapt::AdaptClock;
use qfe_serve::{
    read_frame, write_frame, AdaptConfig, AdaptController, AsyncCheckpointer, EstimatorService,
    Frame, ModelPersister, ModelSlot, NetConfig, NetServer, ServiceConfig, ServiceStats, Shard,
    ShardConfig, ShardKey, ShardRegistry, ShardStats, SharedEstimator, StepReport,
};
use qfe_store::{CheckpointStore, MemFs, StoreConfig, StoreFs};

const PANIC_MSG: &str = "metrics_pinned: injected stage panic";

/// A constant estimator whose snapshot is its value's bits, so a
/// published candidate is actually checkpointed.
struct Constant(f64);
impl CardinalityEstimator for Constant {
    fn name(&self) -> String {
        format!("const{}", self.0)
    }
    fn estimate(&self, _q: &Query) -> f64 {
        self.0
    }
    fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        Some(self.0.to_le_bytes().to_vec())
    }
}

struct Panicky;
impl CardinalityEstimator for Panicky {
    fn name(&self) -> String {
        "panicky".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        panic!("{}", PANIC_MSG)
    }
}

struct NotANumber;
impl CardinalityEstimator for NotANumber {
    fn name(&self) -> String {
        "nan".into()
    }
    fn estimate(&self, _q: &Query) -> f64 {
        f64::NAN
    }
}

/// Everything the script leaves behind for the assertions.
struct Session {
    server: NetServer,
    /// Held open so the handler (and `net.active`) outlives the script.
    _conn: TcpStream,
    service_a: Arc<EstimatorService>,
    controller: Arc<AdaptController>,
    slot: Arc<ModelSlot>,
    ckpt: Arc<AsyncCheckpointer>,
    cache: EstimateCache,
    cache_recorder: Arc<MetricsRecorder>,
    chain: FallbackChain<'static>,
    chain_recorder: Arc<MetricsRecorder>,
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        max_batch_size: 8,
        max_batch_wait: Duration::from_millis(1),
        default_budget: Duration::from_secs(5),
        // Two failures open a breaker, and it stays open for the whole
        // run: no cooldown ever expires mid-script.
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(3600),
            max_cooldown: Duration::from_secs(3600),
        },
        ..ServiceConfig::default()
    }
}

fn adapt_config() -> AdaptConfig {
    AdaptConfig {
        reservoir_capacity: 256,
        detector: PageHinkleyConfig {
            delta: 0.05,
            lambda: 1.0,
            min_samples: 10,
        },
        confirm_window: 5,
        cooldown: Duration::ZERO,
        train_budget: Duration::from_millis(100),
        min_train_samples: 8,
        holdout_fraction: 0.25,
        min_holdout: 2,
        shadow_z: 1.0,
        min_improvement: 0.95,
        probation_samples: 8,
        rollback_ratio: 1.5,
    }
}

/// Virtual time that advances 1 ms per read: budgets always terminate.
fn auto_clock() -> AdaptClock {
    let ticks = AtomicU64::new(0);
    Arc::new(move || Duration::from_millis(ticks.fetch_add(1, Ordering::Relaxed)))
}

fn table_query(table: usize) -> Query {
    Query::single_table(TableId(table), vec![])
}

fn request(id: u64, tenant: u128, budget_micros: u64, query: Query) -> Frame {
    Frame::EstimateRequest {
        request_id: id,
        tenant,
        budget_micros,
        query,
    }
}

fn roundtrip(conn: &mut TcpStream, frame: &Frame) -> Frame {
    write_frame(conn, frame).expect("write");
    read_frame(conn).expect("read").expect("server replied")
}

fn expect_ok(reply: Frame, value: f64) {
    match reply {
        Frame::EstimateOk { value: v, .. } => assert_eq!(v, value),
        other => panic!("expected an estimate of {value}, got {other:?}"),
    }
}

fn expect_err(reply: Frame) {
    assert!(
        matches!(reply, Frame::EstimateErr { .. }),
        "expected an error frame, got {reply:?}"
    );
}

fn run_script() -> Session {
    qfe_serve::install_quiet_panic_hook(vec![PANIC_MSG.into()]);
    let key_a = ShardKey::for_tenant("a");
    let key_b = ShardKey::for_tenant("b");

    let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
    let stages_a: Vec<SharedEstimator> = vec![
        Arc::new(Panicky),
        Arc::new(NotANumber),
        Arc::clone(&slot) as SharedEstimator,
        Arc::new(Constant(5.0)),
    ];
    let cfg = |service| ShardConfig { quota: 8, service };
    let shard_a = Shard::new("a", key_a, stages_a, cfg(service_config()));
    let shard_b = Shard::new(
        "b",
        key_b,
        vec![Arc::new(Constant(42.0)) as SharedEstimator],
        cfg(service_config()),
    );
    let service_a = Arc::clone(shard_a.service());
    let registry = Arc::new(ShardRegistry::new());
    registry.register(shard_a).expect("fresh key");
    registry.register(shard_b).expect("fresh key");

    let mut store = CheckpointStore::open(
        Arc::new(MemFs::new()) as Arc<dyn StoreFs>,
        StoreConfig::new("/store"),
    )
    .expect("mem store opens");
    store.set_sleeper(Arc::new(|_| {}));
    let ckpt = Arc::new(AsyncCheckpointer::new(Arc::new(store), 8));
    service_a.attach_persistence(&ckpt);
    slot.set_persister(Arc::clone(&ckpt) as Arc<dyn ModelPersister>);

    let trainer = |_data: &[(Query, f64)],
                   _should_continue: &mut dyn FnMut() -> bool|
     -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
        Ok(Arc::new(Constant(100.0)) as SharedEstimator)
    };
    let controller = Arc::new(AdaptController::with_clock(
        Arc::clone(&slot),
        Arc::new(trainer),
        adapt_config(),
        auto_clock(),
    ));
    service_a.attach_adaptation(&controller);

    let cache_recorder = Arc::new(MetricsRecorder::new());
    let cache = EstimateCache::with_generation_source_and_capacity(
        Arc::clone(&slot) as Arc<dyn qfe_core::estimator::GenerationSource>,
        2,
    )
    .with_recorder(Arc::clone(&cache_recorder) as Arc<dyn qfe_obs::Recorder>);

    let server = NetServer::bind_loopback_with_retry(
        registry,
        NetConfig {
            acceptors: 1,
            tick: Duration::from_millis(5),
            default_budget: Duration::from_secs(5),
            ..NetConfig::default()
        },
        3,
    )
    .expect("loopback bind");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    let tenant_a = key_a.0;
    let tenant_b = key_b.0;

    assert_eq!(
        roundtrip(&mut conn, &Frame::Ping { token: 1 }),
        Frame::Pong { token: 1 }
    );
    // Shard a: the first two requests fail the panicking and NaN stages
    // and open both breakers; every later one skips them. The slot
    // answers all six.
    for id in 0..6 {
        expect_ok(
            roundtrip(&mut conn, &request(id, tenant_a, 0, table_query(0))),
            1.0,
        );
    }
    for id in 10..13 {
        expect_ok(
            roundtrip(&mut conn, &request(id, tenant_b, 0, table_query(0))),
            42.0,
        );
    }
    // Anonymous tenant: rendezvous routing by sub-schema.
    let mut rendezvous = BTreeMap::new();
    for table in 1..5 {
        match roundtrip(&mut conn, &request(20, 0, 0, table_query(table))) {
            Frame::EstimateOk { value, .. } => *rendezvous.entry(value as u64).or_insert(0) += 1,
            other => panic!("rendezvous request failed: {other:?}"),
        }
    }
    assert_eq!(rendezvous.values().sum::<u64>(), 4);
    // A query over no table is refused before routing.
    let no_table = Query {
        tables: vec![],
        joins: vec![],
        predicates: vec![],
    };
    expect_err(roundtrip(&mut conn, &request(30, tenant_a, 0, no_table)));
    // A 1 µs budget always dies in the batcher's 1 ms fill window.
    expect_err(roundtrip(
        &mut conn,
        &request(31, tenant_b, 1, table_query(0)),
    ));
    // A server-to-client frame is a protocol error; the connection stays
    // open, and the ping after it proves the handler counted it.
    write_frame(&mut conn, &Frame::Pong { token: 2 }).expect("write");
    assert_eq!(
        roundtrip(&mut conn, &Frame::Ping { token: 3 }),
        Frame::Pong { token: 3 }
    );

    // Cache, before the swap: two misses and fills, a hit that sets
    // fp1's reference bit, then a third fill evicts fp2.
    let est = Estimate::primary(7.0, "cache");
    for fp in [1u128, 2, 1, 3] {
        match cache.probe(QueryFingerprint(fp)) {
            Probe::Hit(_) => {}
            Probe::Miss(token) => cache.fill(QueryFingerprint(fp), est.clone(), token),
        }
    }

    // Ground truth: a healthy baseline, then a sustained shift to 100
    // that the live model (answering 1) misses. Suspect, confirm, swap.
    let q = table_query(0);
    let feed = |truth: f64, estimate: f64, n: usize| {
        for _ in 0..n {
            service_a
                .observe_labeled(&q, truth, estimate)
                .expect("sane truth");
        }
    };
    assert!(service_a.observe_labeled(&q, f64::NAN, 1.0).is_err());
    feed(1.0, 1.0, 10);
    feed(100.0, 1.0, 15);
    assert_eq!(controller.step(), StepReport::Suspected);
    feed(100.0, 1.0, 15);
    assert_eq!(
        controller.step(),
        StepReport::SwapAccepted { generation: 1 }
    );
    for id in 40..42 {
        expect_ok(
            roundtrip(&mut conn, &request(id, tenant_a, 0, table_query(0))),
            100.0,
        );
    }
    feed(100.0, 100.0, 8);
    assert_eq!(controller.step(), StepReport::ProbationPassed);
    ckpt.shutdown();

    // Cache, after the swap: the generation moved, so both entries are
    // invalidated and the probe misses.
    assert!(matches!(cache.probe(QueryFingerprint(1)), Probe::Miss(_)));

    // Chain: seeded chaos on stage 0, a NaN stage 1, and the floor.
    let chain_recorder = Arc::new(MetricsRecorder::new());
    let chain = FallbackChain::new(vec![
        Box::new(ChaosEstimator::new(
            Constant(3.0),
            vec![EstimatorFault::Error, EstimatorFault::Nan],
            0.5,
            7,
        )),
        Box::new(NotANumber),
    ])
    .with_recorder(
        Arc::clone(&chain_recorder) as Arc<dyn qfe_obs::Recorder>,
        "chain",
    );
    for table in 0..10 {
        let _ = chain.try_estimate(&table_query(table));
    }
    let batch: Vec<Query> = (0..6).map(table_query).collect();
    let _ = chain.estimate_batch(&batch);

    Session {
        server,
        _conn: conn,
        service_a,
        controller,
        slot,
        ckpt,
        cache,
        cache_recorder,
        chain,
        chain_recorder,
    }
}

fn nonzero(map: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    map.iter()
        .filter(|(_, v)| **v > 0)
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

fn histogram_counts(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    snap.histograms
        .iter()
        .map(|(k, h)| (k.clone(), h.count))
        .collect()
}

fn owned(pinned: &[(&str, u64)]) -> Vec<(String, u64)> {
    pinned.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}

/// Compare, printing the actual values in pinnable form on mismatch.
fn assert_pinned(what: &str, actual: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    if actual != owned(pinned) {
        let listing: String = actual
            .iter()
            .map(|(k, v)| format!("    (\"{k}\", {v}),\n"))
            .collect();
        panic!("{what} drifted from the pinned values; actual:\n{listing}");
    }
}

const NET_COUNTERS: &[(&str, u64)] = &[
    ("net.accepted", 1),
    ("net.frames_in", 20),
    ("net.frames_out", 19),
    ("net.proto_errors", 1),
    ("net.requests_err", 2),
    ("net.requests_ok", 15),
    ("registry.registered_total", 2),
    ("registry.routes.exact", 12),
    ("registry.routes.rendezvous", 4),
    ("shard.a.adapt.drift.confirmed", 1),
    ("shard.a.adapt.drift.suspected", 1),
    ("shard.a.adapt.feedback.accepted", 48),
    ("shard.a.adapt.probation.passed", 1),
    ("shard.a.adapt.retrain.triggered", 1),
    ("shard.a.adapt.shadow.accepted", 1),
    ("shard.a.obs.truth.rejected", 1),
    ("shard.a.persist.enqueued", 1),
    ("shard.a.persist.written", 1),
    ("shard.a.routing.admitted", 10),
    ("shard.a.routing.routed", 10),
    ("shard.a.serve.answered", 10),
    ("shard.a.serve.batch.drains", 10),
    ("shard.a.serve.batch.submitted", 10),
    ("shard.a.serve.batched_requests", 10),
    ("shard.a.serve.queue.admitted", 10),
    ("shard.a.serve.stage0.breaker.opened", 1),
    ("shard.a.serve.stage0.breaker.rejected", 8),
    ("shard.a.serve.stage0.errors.circuit-open", 8),
    ("shard.a.serve.stage0.errors.internal", 2),
    ("shard.a.serve.stage0.panics", 2),
    ("shard.a.serve.stage0.skipped_open", 8),
    ("shard.a.serve.stage1.breaker.opened", 1),
    ("shard.a.serve.stage1.breaker.rejected", 8),
    ("shard.a.serve.stage1.errors.circuit-open", 8),
    ("shard.a.serve.stage1.errors.non-finite", 2),
    ("shard.a.serve.stage1.skipped_open", 8),
    ("shard.a.serve.stage2.hits", 10),
    ("shard.a.slot.swap.accepted", 1),
    ("shard.b.routing.admitted", 6),
    ("shard.b.routing.routed", 6),
    ("shard.b.serve.answered", 5),
    ("shard.b.serve.batch.drains", 5),
    ("shard.b.serve.batch.expired", 1),
    ("shard.b.serve.batch.submitted", 6),
    ("shard.b.serve.batched_requests", 5),
    ("shard.b.serve.queue.admitted", 5),
    ("shard.b.serve.stage0.hits", 5),
];

const NET_GAUGES: &[(&str, u64)] = &[
    ("net.active", 1),
    ("registry.shards", 2),
    ("shard.a.adapt.reservoir.len", 48),
    ("shard.a.routing.quota", 8),
    ("shard.a.slot.generation", 1),
    ("shard.b.routing.quota", 8),
];

const NET_HISTOGRAM_COUNTS: &[(&str, u64)] = &[
    ("shard.a.persist.save", 1),
    ("shard.a.serve.batch.size", 10),
    ("shard.a.serve.request.latency", 10),
    ("shard.a.serve.stage0.latency", 2),
    ("shard.a.serve.stage1.latency", 2),
    ("shard.a.serve.stage2.latency", 10),
    ("shard.b.serve.batch.size", 5),
    ("shard.b.serve.request.latency", 5),
    ("shard.b.serve.stage0.latency", 5),
];

const CACHE_COUNTERS: &[(&str, u64)] = &[
    ("cache.evict", 1),
    ("cache.hit", 1),
    ("cache.invalidate", 2),
    ("cache.miss", 4),
];

const CHAIN_COUNTERS: &[(&str, u64)] = &[
    ("chain.floor.hits", 7),
    ("chain.stage0.attempts", 16),
    ("chain.stage0.errors.internal", 4),
    ("chain.stage0.errors.non-finite", 3),
    ("chain.stage0.hits", 9),
    ("chain.stage1.attempts", 7),
    ("chain.stage1.errors.non-finite", 7),
];

const CHAIN_HISTOGRAM_COUNTS: &[(&str, u64)] =
    &[("chain.stage0.latency", 16), ("chain.stage1.latency", 7)];

#[test]
fn scripted_session_metrics_are_pinned() {
    let s = run_script();
    let net = s.server.metrics();
    assert_pinned("net counters", nonzero(&net.counters), NET_COUNTERS);
    assert_pinned("net gauges", nonzero(&net.gauges), NET_GAUGES);
    assert_pinned(
        "net histograms",
        histogram_counts(&net),
        NET_HISTOGRAM_COUNTS,
    );
    let cache = s.cache_recorder.snapshot();
    assert_pinned("cache counters", nonzero(&cache.counters), CACHE_COUNTERS);
    let chain = s.chain_recorder.snapshot();
    assert_pinned("chain counters", nonzero(&chain.counters), CHAIN_COUNTERS);
    assert_pinned(
        "chain histograms",
        histogram_counts(&chain),
        CHAIN_HISTOGRAM_COUNTS,
    );
}

/// `(snapshot name, stats value)` pairs for one shard's quota gate and
/// service, every name under `prefix`.
fn shard_pairs(prefix: &str, shard: &ShardStats, svc: &ServiceStats) -> Vec<(String, u64)> {
    let mut pairs = vec![
        ("routing.routed".to_owned(), shard.routed),
        ("routing.admitted".to_owned(), shard.admitted),
        ("routing.quota_shed".to_owned(), shard.quota_shed),
        ("serve.answered".to_owned(), svc.answered),
        ("serve.floor.answers".to_owned(), svc.floor_answers),
        ("serve.deadline_exceeded".to_owned(), svc.deadline_exceeded),
        ("serve.queue.admitted".to_owned(), svc.admission.admitted),
        ("serve.queue.rejected".to_owned(), svc.admission.rejected),
        ("serve.queue.shed".to_owned(), svc.admission.shed),
        (
            "serve.queue.timeouts".to_owned(),
            svc.admission.queue_timeouts,
        ),
        ("serve.batch.drains".to_owned(), svc.batch_drains),
        ("serve.batched_requests".to_owned(), svc.batched_requests),
    ];
    for (i, stage) in svc.stages.iter().enumerate() {
        let p = format!("serve.stage{i}.");
        pairs.push((format!("{p}hits"), stage.hits));
        pairs.push((format!("{p}timeouts"), stage.timeouts));
        pairs.push((format!("{p}panics"), stage.panics));
        pairs.push((format!("{p}skipped_open"), stage.skipped_open));
        for (label, n) in &stage.errors {
            pairs.push((format!("{p}errors.{label}"), *n));
        }
        let b = &stage.breaker;
        pairs.push((format!("{p}breaker.opened"), b.opened));
        pairs.push((format!("{p}breaker.probes"), b.probes));
        pairs.push((format!("{p}breaker.reclosed"), b.reclosed));
        pairs.push((format!("{p}breaker.rejected"), b.rejected));
    }
    pairs
        .into_iter()
        .map(|(k, v)| (format!("{prefix}{k}"), v))
        .collect()
}

/// Every mismatch between a stats field and the snapshot counter named
/// for it.
fn disagreements(snap: &MetricsSnapshot, pairs: &[(String, u64)]) -> Vec<String> {
    pairs
        .iter()
        .filter(|(name, v)| snap.counter(name) != *v)
        .map(|(name, v)| format!("{name}: stats {v}, snapshot {}", snap.counter(name)))
        .collect()
}

#[test]
fn every_stats_field_agrees_with_its_snapshot_counter() {
    let s = run_script();
    let net = s.server.metrics();
    let n = s.server.stats();
    let mut pairs: Vec<(String, u64)> = [
        ("accepted", n.accepted),
        ("refused", n.refused),
        ("frames_in", n.frames_in),
        ("frames_out", n.frames_out),
        ("proto_errors", n.proto_errors),
        ("io_errors", n.io_errors),
        ("idle_closed", n.idle_closed),
        ("requests_ok", n.requests_ok),
        ("requests_err", n.requests_err),
        ("accept_errors", n.accept_errors),
    ]
    .into_iter()
    .map(|(k, v)| (format!("net.{k}"), v))
    .collect();
    assert_eq!(net.gauge("net.active"), n.active as u64);
    for shard in s.server.registry().shards() {
        let prefix = format!("shard.{}.", shard.name());
        let stats = shard.stats();
        let svc = shard.service().stats();
        pairs.extend(shard_pairs(&prefix, &stats, &svc));
        // `dispatched` has no metric name; it is checked by conservation.
        let b = shard.batcher().stats();
        pairs.extend([
            (format!("{prefix}serve.batch.submitted"), b.submitted),
            (format!("{prefix}serve.batch.shed"), b.shed),
            (format!("{prefix}serve.batch.expired"), b.expired),
        ]);
        assert_eq!(b.submitted, b.shed + b.expired + b.dispatched);
        assert_eq!(
            net.gauge(&format!("{prefix}routing.in_flight")),
            stats.in_flight as u64
        );
        assert_eq!(
            net.gauge(&format!("{prefix}routing.quota")),
            stats.quota as u64
        );
        assert_eq!(
            net.gauge(&format!("{prefix}serve.queue.depth")),
            svc.admission.queued as u64
        );
    }

    let a = s.controller.stats();
    let adapt = [
        ("feedback.accepted", a.feedback_accepted),
        ("reservoir.shed", a.reservoir_shed),
        ("drift.suspected", a.drift_suspected),
        ("drift.confirmed", a.drift_confirmed),
        ("drift.false_alarm", a.drift_false_alarm),
        ("retrain.triggered", a.retrain_triggered),
        ("retrain.aborted", a.retrain_aborted),
        ("retrain.panicked", a.retrain_panicked),
        ("shadow.accepted", a.shadow_accepted),
        ("shadow.rejected", a.shadow_rejected),
        ("shadow.inconclusive", a.shadow_inconclusive),
        ("probation.passed", a.probation_passed),
        ("probation.rolled_back", a.probation_rolled_back),
        ("probation.abandoned", a.probation_abandoned),
    ];
    pairs.extend(
        adapt
            .into_iter()
            .map(|(k, v)| (format!("shard.a.adapt.{k}"), v)),
    );
    assert_eq!(
        net.gauge("shard.a.adapt.reservoir.len"),
        a.reservoir_len as u64
    );
    let (published, rejected) = s.slot.swap_counts();
    let (enqueued, dropped, skipped) = s.ckpt.stats();
    pairs.extend(
        [
            ("slot.swap.accepted", published),
            ("slot.swap.rejected", rejected),
            ("slot.swap.rolled_back", s.slot.rollback_count()),
            ("persist.enqueued", enqueued),
            ("persist.dropped", dropped),
            ("persist.skipped", skipped),
        ]
        .into_iter()
        .map(|(k, v)| (format!("shard.a.{k}"), v)),
    );
    assert_eq!(net.gauge("shard.a.slot.generation"), s.slot.generation());
    // The in-process service view is the same data without the fleet
    // prefix.
    assert_eq!(
        s.service_a.metrics().counter("serve.answered"),
        s.service_a.stats().answered
    );
    assert_eq!(disagreements(&net, &pairs), Vec::<String>::new());

    let c = s.cache.stats();
    let cache_pairs: Vec<(String, u64)> = [
        ("cache.hit", c.hits),
        ("cache.miss", c.misses),
        ("cache.evict", c.evictions),
        ("cache.invalidate", c.invalidations),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    assert_eq!(
        disagreements(&s.cache_recorder.snapshot(), &cache_pairs),
        Vec::<String>::new()
    );

    let chain = s.chain_recorder.snapshot();
    let cs = s.chain.stage_stats();
    let mut chain_pairs: Vec<(String, u64)> = cs
        .stage_hits
        .iter()
        .enumerate()
        .map(|(i, h)| (format!("chain.stage{i}.hits"), *h))
        .collect();
    chain_pairs.push(("chain.floor.hits".to_owned(), cs.floor_hits));
    assert_eq!(disagreements(&chain, &chain_pairs), Vec::<String>::new());
    // Error buckets are per stage in the snapshot and chain-wide in the
    // stats.
    for (label, n) in &cs.error_counts {
        let per_stage: u64 = (0..s.chain.stage_count())
            .map(|i| chain.counter(&format!("chain.stage{i}.errors.{label}")))
            .sum();
        assert_eq!(per_stage, *n, "chain errors.{label}");
    }
}
