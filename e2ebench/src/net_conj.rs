//! `net-conj`: held-out forest conjunctive queries over loopback TCP to a
//! `NetServer` with four tenant shards. Each shard serves the paper's
//! GB × Universal Conjunction Encoding model (compiled, binned path) as
//! stage 0 and a PostgreSQL-style estimator as stage 1, with default
//! `ServiceConfig` and `NetConfig`.
//!
//! Phases: a closed loop (one request in flight per connection) gives
//! `throughput_qps`; an open loop at a fixed rate gives the latencies,
//! each request timed from when it was due.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_bench::trainers::QftKind;
use qfe_core::estimator::CardinalityEstimator;
use qfe_core::featurize::BinnedFeatureMatrix;
use qfe_core::{Deadline, Query};
use qfe_estimators::labels::{label_queries, LabeledQueries};
use qfe_estimators::{LearnedEstimator, PostgresEstimator};
use qfe_ml::train::Regressor;
use qfe_serve::{
    read_frame, write_frame, Frame, MicroBatcher, NetConfig, NetServer, Shard, ShardConfig,
    ShardKey, ShardRegistry, SharedEstimator, BATCH_SIZE_METRIC,
};
use qfe_workload::{generate_conjunctive_with_data, ConjunctiveConfig};

use crate::common::{
    disjoint_from, median, micros, peak_rss_mb, qerror_summary, quantile, retrain_time_s, sorted,
    sub_seed, Args, Phase, RateWindows, Report, Rng, ThreadSampler, WindowStats,
};
use crate::models::{self, Twin, FOREST};
use crate::trace::{span_cost_ns, Tracer};

const TENANTS: usize = 4;
const TRAIN_QUERIES: usize = 1_500;
const TEST_QUERIES: usize = 1_200;
/// The training and held-out sets are fixed (the model under test and
/// its test set), so q-error is a property of the model and the serving
/// path only; the seed draws the request order and tenants.
const TRAIN_SEED: u64 = 101;
const TEST_SEED: u64 = 202;
const TREES: usize = 60;
/// Open-loop arrival rate over all connections, requests per second.
const OPEN_RATE: f64 = 500.0;
/// Share of the run spent in the closed-loop phase.
const CLOSED_SHARE: f64 = 0.4;
/// The open-loop phase is invalid if the generator fell behind its
/// schedule: send lag above these at the median or at p99. (Scheduler
/// noise alone delays an idle sleeper by a few ms at p99 on small
/// shared machines.)
const MAX_LAG_P50_US: f64 = 1_000.0;
const MAX_LAG_P99_US: f64 = 25_000.0;
const PROBE_QUERIES: usize = 300;
/// Throughput is the median completion rate over windows of this.
const RATE_WINDOW: Duration = Duration::from_millis(500);

struct World {
    db: qfe_data::Database,
    learned: Arc<LearnedEstimator>,
    train: LabeledQueries,
    test: LabeledQueries,
    /// Stage-0 answer bits for every held-out query, computed in process.
    expected: Vec<Option<u64>>,
    registry: Arc<ShardRegistry>,
    server: NetServer,
    tenants: Vec<u128>,
}

fn setup() -> World {
    let db = models::forest();
    let train_q = generate_conjunctive_with_data(
        &db,
        &ConjunctiveConfig::new(FOREST, 2 * TRAIN_QUERIES, TRAIN_SEED),
    );
    let test_q = generate_conjunctive_with_data(
        &db,
        &ConjunctiveConfig::new(FOREST, 2 * TEST_QUERIES, TEST_SEED),
    );
    let test_q = disjoint_from(&train_q, test_q);
    let train = label_queries(&db, train_q);
    let test = label_queries(&db, test_q);
    let learned = Arc::new(models::train_learned(
        &db,
        QftKind::Conjunctive,
        &train,
        TREES,
    ));
    let expected = learned
        .estimate_batch(&test.queries)
        .into_iter()
        .map(|r| r.ok().map(|e| e.value.to_bits()))
        .collect();
    let postgres = Arc::new(PostgresEstimator::analyze_default(&db));
    let registry = Arc::new(ShardRegistry::new());
    let mut tenants = Vec::with_capacity(TENANTS);
    for t in 0..TENANTS {
        let name = format!("tenant{t}");
        let key = ShardKey::for_tenant(&name);
        registry
            .register(Shard::new(
                &name,
                key,
                vec![
                    Arc::clone(&learned) as SharedEstimator,
                    Arc::clone(&postgres) as SharedEstimator,
                ],
                ShardConfig::default(),
            ))
            .expect("distinct tenant keys register");
        tenants.push(key.0);
    }
    let server =
        NetServer::bind_loopback_with_retry(Arc::clone(&registry), NetConfig::default(), 5)
            .expect("bind loopback front door");
    World {
        db,
        learned,
        train,
        test,
        expected,
        registry,
        server,
        tenants,
    }
}

/// One answered (or failed) request.
struct Answer {
    rid: u64,
    qi: usize,
    /// `(value, fallback_depth)` of an `EstimateOk`.
    ok: Option<(f64, u32)>,
}

#[derive(Default)]
struct ConnResult {
    answers: Vec<Answer>,
    /// `(send or due time, latency in us)`; `+inf` for a failed request.
    timed: Vec<(Instant, f64)>,
    /// Completion times of answered requests.
    done: Vec<Instant>,
    lag_us: Vec<f64>,
    anomalies: u64,
    /// Connections the server refused (each counts as one failed request).
    refused: u64,
    failed: u64,
}

impl ConnResult {
    fn refused(at: Instant) -> Self {
        ConnResult {
            refused: 1,
            failed: 1,
            timed: vec![(at, f64::INFINITY)],
            ..ConnResult::default()
        }
    }

    fn attempted(&self) -> u64 {
        self.answers.len() as u64 + self.anomalies + self.refused
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn request(rid: u64, tenant: u128, query: &Query) -> Frame {
    Frame::EstimateRequest {
        request_id: rid,
        tenant,
        budget_micros: 0,
        query: query.clone(),
    }
}

/// What every client connection shares: the server, the tracer, and the
/// seeded request stream (query order and tenant rotation).
#[derive(Clone, Copy)]
struct Clients<'a> {
    tracer: &'a Tracer,
    addr: SocketAddr,
    tenants: &'a [u128],
    queries: &'a [Query],
    order: &'a [usize],
}

impl Clients<'_> {
    /// The `k`-th request of connection `conn`: its query index and frame.
    fn request(&self, conn: usize, k: usize, rid: u64) -> (usize, Frame) {
        let qi = self.order[(conn * 7919 + k) % self.order.len()];
        let tenant = self.tenants[(conn + k) % self.tenants.len()];
        (qi, request(rid, tenant, &self.queries[qi]))
    }
}

/// Classify one response; `None` on a protocol anomaly.
fn classify(rid: u64, frame: Option<Frame>) -> Option<Option<(f64, u32)>> {
    match frame {
        Some(Frame::EstimateOk {
            request_id,
            value,
            fallback_depth,
            ..
        }) if request_id == rid => Some(Some((value, fallback_depth))),
        Some(Frame::EstimateErr { request_id, .. }) if request_id == rid => Some(None),
        _ => None,
    }
}

/// Closed loop: one request in flight on this connection until `end`.
fn closed_loop(c: Clients<'_>, conn: usize, end: Instant) -> ConnResult {
    let Ok((mut writer, mut reader)) = connect(c.addr) else {
        return ConnResult::refused(Instant::now());
    };
    let mut out = ConnResult::default();
    let mut spans = c.tracer.buf(conn as u64);
    let mut k = 0usize;
    while Instant::now() < end {
        let rid = ((conn as u64) << 40) | k as u64;
        let (qi, frame) = c.request(conn, k, rid);
        let t0 = Instant::now();
        let sent = write_frame(&mut writer, &frame).and_then(|()| writer.flush());
        let got = sent.ok().and_then(|()| read_frame(&mut reader).ok());
        match got.map(|f| classify(rid, f)) {
            Some(Some(ok)) => {
                if ok.is_some() {
                    out.timed.push((t0, micros(t0.elapsed())));
                    let now = Instant::now();
                    out.done.push(now);
                    spans.record("client.request", rid, t0, now);
                } else {
                    out.failed += 1;
                    out.timed.push((t0, f64::INFINITY));
                }
                out.answers.push(Answer { rid, qi, ok });
            }
            _ => {
                out.anomalies += 1;
                out.failed += 1;
                out.timed.push((t0, f64::INFINITY));
                break;
            }
        }
        k += 1;
    }
    c.tracer.absorb(spans);
    out
}

/// Open loop on one connection: a writer sends on a fixed schedule
/// regardless of replies; a reader times each reply from its due time.
fn open_loop(
    c: Clients<'_>,
    conn: usize,
    conns: usize,
    start: Instant,
    end: Instant,
) -> ConnResult {
    let Ok((mut writer, mut reader)) = connect(c.addr) else {
        return ConnResult::refused(start);
    };
    let mut out = ConnResult::default();
    let interval = Duration::from_secs_f64(conns as f64 / OPEN_RATE);
    let offset = interval.mul_f64(conn as f64 / conns as f64);
    let (tx, rx) = mpsc::channel::<(u64, usize, Instant)>();
    std::thread::scope(|s| {
        let reader_thread = s.spawn(move || {
            let mut res = ConnResult::default();
            let mut spans = c.tracer.buf(100 + conn as u64);
            for (rid, qi, due) in rx {
                let got = read_frame(&mut reader).ok().map(|f| classify(rid, f));
                match got {
                    Some(Some(ok)) => {
                        if ok.is_some() {
                            res.timed.push((due, micros(due.elapsed())));
                            spans.record("client.request", rid, due, Instant::now());
                        } else {
                            res.failed += 1;
                            res.timed.push((due, f64::INFINITY));
                        }
                        res.answers.push(Answer { rid, qi, ok });
                    }
                    _ => {
                        res.anomalies += 1;
                        res.failed += 1;
                        res.timed.push((due, f64::INFINITY));
                    }
                }
            }
            c.tracer.absorb(spans);
            res
        });
        let mut k = 0usize;
        loop {
            let due = start + offset + interval.mul_f64(k as f64);
            if due >= end {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let rid = (1 << 63) | ((conn as u64) << 40) | k as u64;
            let (qi, frame) = c.request(conn, k, rid);
            out.lag_us
                .push(micros(Instant::now().saturating_duration_since(due)));
            if write_frame(&mut writer, &frame)
                .and_then(|()| writer.flush())
                .is_err()
            {
                out.anomalies += 1;
                out.failed += 1;
                out.timed.push((due, f64::INFINITY));
                break;
            }
            if tx.send((rid, qi, due)).is_err() {
                break;
            }
            k += 1;
        }
        drop(tx);
        let res = reader_thread.join().expect("open-loop reader panicked");
        out.answers.extend(res.answers);
        out.timed.extend(res.timed);
        out.anomalies += res.anomalies;
        out.failed += res.failed;
    });
    out
}

/// Send each of `queries` (held-out indices) once, in order, on one
/// connection.
fn coverage_pass(c: Clients<'_>, queries: &[usize]) -> ConnResult {
    if queries.is_empty() {
        return ConnResult::default();
    }
    let Ok((mut writer, mut reader)) = connect(c.addr) else {
        return ConnResult::refused(Instant::now());
    };
    let mut out = ConnResult::default();
    for &qi in queries {
        let rid = (3 << 61) | qi as u64;
        let frame = request(rid, c.tenants[qi % c.tenants.len()], &c.queries[qi]);
        let sent = write_frame(&mut writer, &frame).and_then(|()| writer.flush());
        let got = sent.ok().and_then(|()| read_frame(&mut reader).ok());
        match got.map(|f| classify(rid, f)) {
            Some(Some(ok)) => {
                out.failed += u64::from(ok.is_none());
                out.answers.push(Answer { rid, qi, ok });
            }
            _ => {
                out.anomalies += 1;
                out.failed += 1;
                break;
            }
        }
    }
    out
}

fn merge(results: Vec<ConnResult>) -> ConnResult {
    let mut all = ConnResult::default();
    for r in results {
        all.answers.extend(r.answers);
        all.timed.extend(r.timed);
        all.done.extend(r.done);
        all.lag_us.extend(r.lag_us);
        all.anomalies += r.anomalies;
        all.refused += r.refused;
        all.failed += r.failed;
    }
    all
}

pub fn run(args: &Args, report: &mut Report) {
    let tracer = Tracer::new(args.trace);
    // Set-up three times, report the median, keep the last world.
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..3 {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup());
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = world.expect("set-up ran");
    let setup_s = median(&setups);

    // Retrain-and-swap cost of this workload's model on its own training
    // set (the work an adaptation swap does on the conjunctive path).
    let retrain_s = retrain_time_s(3, || retrain_and_swap(&w));

    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let addr = w.server.local_addr();
    let mut order: Vec<usize> = (0..w.test.len()).collect();
    Rng::new(sub_seed(args.seed, 3)).shuffle(&mut order);
    let clients = Clients {
        tracer: &tracer,
        addr,
        tenants: &w.tenants,
        queries: &w.test.queries,
        order: &order,
    };
    let sampler = ThreadSampler::start();

    let total = args.duration();
    let closed_end = Instant::now() + total.mul_f64(CLOSED_SHARE);
    let closed_start = Instant::now();
    let closed = merge(std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| s.spawn(move || closed_loop(clients, c, closed_end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    }));
    let closed_secs = closed_start.elapsed().as_secs_f64();

    let open_start = Instant::now() + Duration::from_millis(20);
    let open_end = open_start + total.mul_f64(1.0 - CLOSED_SHARE);
    let open = merge(std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| s.spawn(move || open_loop(clients, c, conns, open_start, open_end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    }));
    let threads_peak = sampler.finish();
    // Held-out queries the timed phases never reached are sent once,
    // untimed, so q-error always covers the whole held-out set.
    let mut reached = vec![false; w.test.len()];
    for a in closed.answers.iter().chain(&open.answers) {
        reached[a.qi] = true;
    }
    let missing: Vec<usize> = (0..w.test.len()).filter(|&i| !reached[i]).collect();
    let coverage = coverage_pass(clients, &missing);

    // ---- accounting --------------------------------------------------
    report.phase(Phase::new("closed-loop", closed.attempted(), closed.failed));
    report.phase(Phase::new("open-loop", open.attempted(), open.failed));
    report.phase(Phase::new(
        "coverage",
        coverage.attempted(),
        coverage.failed,
    ));
    let attempted = closed.attempted() + open.attempted() + coverage.attempted();
    let failed = closed.failed + open.failed + coverage.failed;
    let refused = closed.refused + open.refused + coverage.refused;

    // ---- checks ------------------------------------------------------
    let mut mismatched = 0u64;
    let mut stage0 = 0u64;
    let mut answered: Vec<Option<f64>> = vec![None; w.test.len()];
    for a in closed
        .answers
        .iter()
        .chain(&open.answers)
        .chain(&coverage.answers)
    {
        if let Some((value, depth)) = a.ok {
            answered[a.qi] = Some(value);
            if depth == 0 {
                stage0 += 1;
                if w.expected[a.qi] != Some(value.to_bits()) {
                    mismatched += 1;
                    if mismatched <= 3 {
                        eprintln!(
                            "request {} (query {}): served {value}, in-process {:?}",
                            a.rid,
                            a.qi,
                            w.expected[a.qi].map(f64::from_bits)
                        );
                    }
                }
            }
        }
    }
    report.check(
        "stage0_answers_bit_identical",
        mismatched == 0 && stage0 > 0,
        format!(
            "{stage0} stage-0 answers, {mismatched} differ from the in-process LearnedEstimator"
        ),
    );
    report.check(
        "no_protocol_anomalies",
        closed.anomalies + open.anomalies + coverage.anomalies == 0,
        format!(
            "{} anomalies",
            closed.anomalies + open.anomalies + coverage.anomalies
        ),
    );
    let lag_sorted = sorted(open.lag_us.clone());
    let lag_p50 = quantile(&lag_sorted, 0.50);
    let lag_p99 = quantile(&lag_sorted, 0.99);
    report.check(
        "loadgen_kept_schedule",
        lag_p50 <= MAX_LAG_P50_US && lag_p99 <= MAX_LAG_P99_US,
        format!("open-loop send lag p50 {lag_p50:.0} us, p99 {lag_p99:.0} us (limits {MAX_LAG_P50_US:.0}, {MAX_LAG_P99_US:.0})"),
    );
    conservation_checks(&w, attempted - refused, report);

    // ---- end-to-end metrics -------------------------------------------
    let in_order = |mut v: Vec<(Instant, f64)>| {
        v.sort_by_key(|&(t, _)| t);
        WindowStats::from_ordered(&v.iter().map(|&(_, us)| us).collect::<Vec<_>>())
    };
    let open_stats = in_order(open.timed.clone());
    let closed_stats = in_order(closed.timed.clone());
    report.note(format!(
        "open loop (from due time): {}",
        open_stats.describe()
    ));
    report.note(format!("closed loop: {}", closed_stats.describe()));
    let (q50, q95, nq) = qerror_summary(
        answered
            .iter()
            .zip(&w.test.cardinalities)
            .filter_map(|(a, &truth)| a.map(|v| (truth, v))),
    );
    report.note(format!(
        "open loop at {OPEN_RATE} req/s over {conns} connections; closed loop {} requests in {closed_secs:.2} s; {} held-out queries sent by the coverage pass; q-error over {nq} distinct held-out queries",
        closed.attempted(),
        missing.len()
    ));
    if !args.trace {
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "throughput_qps",
            RateWindows::of(&closed.done, closed_start, RATE_WINDOW),
            "1/s",
        );
        report.metric("latency_p50_us", open_stats.p50(), "us");
        report.metric(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.metric("qerror_p50", q50, "ratio");
        report.metric("qerror_p95", q95, "ratio");
        report.metric("retrain_s", retrain_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        layer_metrics(&mut w, &tracer, report, open_stats.p50());
        report.metric("e2e.latency_p95_us", open_stats.p95(), "us");
        report.metric("e2e.latency_p99_us", open_stats.p99(), "us");
        report.metric("proc.threads_peak", threads_peak as f64, "count");
        report.metric("loadgen.lag_p99_us", lag_p99, "us");
        let spans = tracer.len() as f64;
        report.metric("trace.spans", spans, "count");
        let busy_ns =
            (closed_secs + total.as_secs_f64() * (1.0 - CLOSED_SHARE)) * 1e9 * conns as f64;
        report.metric(
            "trace.overhead_frac",
            spans * span_cost_ns() / busy_ns,
            "ratio",
        );
        crate::write_spans(&tracer, &args.workload, args.seed);
    }
    w.server.shutdown();
}

/// Conservation laws reachable through public stats, at quiescence.
/// `sent` is the number of request frames written to the server.
fn conservation_checks(w: &World, sent: u64, report: &mut Report) {
    let net = w.server.stats();
    report.check(
        "net_requests_conserved",
        net.requests_ok + net.requests_err == sent && net.frames_in == sent,
        format!(
            "sent {sent}, frames_in {}, ok {} + err {}",
            net.frames_in, net.requests_ok, net.requests_err
        ),
    );
    let mut routed = 0;
    let mut all = true;
    let mut batch_detail = String::new();
    let mut batch_ok = true;
    for shard in w.registry.shards() {
        let s = shard.stats();
        all &= s.conserved();
        routed += s.routed;
        let m = shard.metrics();
        let submitted = m.counter("serve.batch.submitted");
        let shed = m.counter("serve.batch.shed");
        let expired = m.counter("serve.batch.expired");
        // Rows reaching the service: batched_requests, plus rows of any
        // batch the service's admission gate refused as a unit.
        let dispatched = m.counter("serve.batched_requests");
        let refused = m.counter("serve.queue.rejected") + m.counter("serve.queue.shed");
        let ok = if refused == 0 {
            submitted == shed + expired + dispatched
        } else {
            submitted >= shed + expired + dispatched
        };
        batch_ok &= ok && s.admitted == submitted;
        batch_detail.push_str(&format!(
            "{}: submitted {submitted} = shed {shed} + expired {expired} + dispatched {dispatched}; ",
            shard.name()
        ));
    }
    report.check(
        "routed_eq_admitted_plus_quota_shed",
        all && routed == sent,
        format!("routed {routed} of {sent} sent"),
    );
    report.check("batch_submitted_conserved", batch_ok, batch_detail);
}

fn retrain_and_swap(w: &World) {
    let fresh = models::train_learned(&w.db, QftKind::Conjunctive, &w.train, TREES);
    let slot = qfe_serve::ModelSlot::new(Arc::clone(&w.learned) as SharedEstimator);
    let probe: Vec<Query> = w.test.queries.iter().take(32).cloned().collect();
    slot.try_publish(Arc::new(fresh) as SharedEstimator, &probe)
        .expect("retrained model passes the probe gate");
}

/// The traced run's per-layer measurements (see README.md).
fn layer_metrics(w: &mut World, tracer: &Tracer, report: &mut Report, e2e_p50_us: f64) {
    let sample: Vec<Query> = w.test.queries.iter().take(PROBE_QUERIES).cloned().collect();
    let twin = Twin::train(&w.learned, &w.train, TREES);
    twin.check(&w.learned, &sample, report);

    let shard = w.registry.shards().into_iter().next().expect("four shards");
    let key = ShardKey(w.tenants[0]);
    let svc = Arc::clone(shard.service());
    let scratch_batcher = MicroBatcher::new(Arc::clone(&svc));
    let (mut writer, mut reader) = connect(w.server.local_addr()).expect("probe connection");
    let mut buf = tracer.buf(1_000);
    let budget = Duration::from_millis(100);
    for (i, q) in sample.iter().enumerate() {
        let rid = (1 << 62) | i as u64;
        let req = request(rid, w.tenants[0], q);
        let root = buf.enter("net.round_trip", None, rid);
        write_frame(&mut writer, &req).expect("probe write");
        writer.flush().expect("probe flush");
        let resp = read_frame(&mut reader)
            .expect("probe read")
            .expect("probe reply");
        buf.exit(root);
        // Wire codec, both directions, on in-memory buffers.
        for frame in [&req, &resp] {
            let mut bytes = Vec::new();
            buf.span("proto.encode", root, rid, |_, _| {
                write_frame(&mut bytes, frame).expect("encode")
            });
            buf.span("proto.decode", root, rid, |_, _| {
                std::hint::black_box(read_frame(&mut bytes.as_slice()).expect("decode"))
            });
        }
        let sh = buf.enter("shard.estimate_within", root, rid);
        std::hint::black_box(
            shard
                .estimate_within(q, Deadline::within(budget))
                .expect("shard answers"),
        );
        buf.exit(sh);
        buf.span("shard.route", sh, rid, |_, _| {
            std::hint::black_box(w.registry.route(key).expect("routes"))
        });
        let sub = buf.enter("batch.submit_within", sh, rid);
        std::hint::black_box(
            scratch_batcher
                .submit_within(q, Deadline::within(budget))
                .expect("batcher answers"),
        );
        buf.exit(sub);
        let one = std::slice::from_ref(q);
        let sv = buf.enter("service.estimate_batch_within", sub, rid);
        std::hint::black_box(svc.estimate_batch_within(one, Deadline::within(budget)));
        buf.exit(sv);
        let le = buf.enter("learned.estimate_batch", sv, rid);
        std::hint::black_box(w.learned.estimate_batch(one));
        buf.exit(le);
        let bins = buf.span("featurize.binned", le, rid, |_, _| {
            BinnedFeatureMatrix::build(w.learned.featurizer(), twin.binner(), one)
        });
        buf.span("gbdt.walk", le, rid, |_, _| {
            std::hint::black_box(twin.gbdt.predict_batch_binned(1, bins.as_slice()))
        });
    }
    tracer.absorb(buf);
    drop(scratch_batcher);
    let st = tracer.self_times();
    let self_ns = |name: &str| st.get(name).map_or(0.0, |v| v.0);
    report.metric("proto.encode_ns", self_ns("proto.encode"), "ns");
    report.metric("proto.decode_ns", self_ns("proto.decode"), "ns");
    report.metric("net.self_us", self_ns("net.round_trip") / 1e3, "us");
    report.metric("shard.route_ns", self_ns("shard.route"), "ns");
    report.metric(
        "shard.self_us",
        self_ns("shard.estimate_within") / 1e3,
        "us",
    );
    report.metric(
        "batch.coalesce_wait_us_p50",
        self_ns("batch.submit_within") / 1e3,
        "us",
    );
    report.metric(
        "service.self_us",
        self_ns("service.estimate_batch_within") / 1e3,
        "us",
    );
    let chain: f64 = [
        "net.round_trip",
        "shard.estimate_within",
        "shard.route",
        "batch.submit_within",
        "service.estimate_batch_within",
        "learned.estimate_batch",
        "featurize.binned",
        "gbdt.walk",
    ]
    .iter()
    .map(|n| self_ns(n))
    .sum::<f64>()
        + 2.0 * (self_ns("proto.encode") + self_ns("proto.decode"));
    report.metric("unattributed_us", e2e_p50_us - chain / 1e3, "us");

    // Counters from the layers' public stats.
    let net = w.server.stats();
    report.metric("net.requests_err", net.requests_err as f64, "count");
    report.metric("net.proto_errors", net.proto_errors as f64, "count");
    report.metric("net.io_errors", net.io_errors as f64, "count");
    report.metric("net.refused", net.refused as f64, "count");
    let mut quota_shed = 0u64;
    let (mut batch_rows, mut batch_drains, mut expired, mut shed) = (0u64, 0u64, 0u64, 0u64);
    let (mut answered, mut fallback, mut floor, mut deadline) = (0u64, 0u64, 0u64, 0u64);
    let mut admission_p99 = 0f64;
    for s in w.registry.shards() {
        quota_shed += s.stats().quota_shed;
        let m = s.metrics();
        if let Some(h) = m.histogram(BATCH_SIZE_METRIC) {
            batch_rows += h.sum_nanos;
            batch_drains += h.count;
        }
        if let Some(h) = m.histogram("serve.queue.wait") {
            admission_p99 = admission_p99.max(h.p99_nanos() as f64 / 1e3);
        }
        expired += m.counter("serve.batch.expired");
        shed += m.counter("serve.batch.shed");
        let st = s.service().stats();
        answered += st.answered;
        fallback += st.stages.iter().skip(1).map(|x| x.hits).sum::<u64>();
        floor += st.floor_answers;
        deadline += st.deadline_exceeded;
    }
    report.metric("shard.quota_shed", quota_shed as f64, "count");
    report.metric(
        "batch.size_mean",
        batch_rows as f64 / batch_drains.max(1) as f64,
        "rows",
    );
    report.metric("batch.expired", expired as f64, "count");
    report.metric("batch.shed", shed as f64, "count");
    report.metric("service.admission_wait_us_p99", admission_p99, "us");
    report.metric(
        "service.fallback_frac",
        fallback as f64 / answered.max(1) as f64,
        "ratio",
    );
    report.metric("service.floor_answers", floor as f64, "count");
    report.metric("service.deadline_exceeded", deadline as f64, "count");

    twin.path_metrics(&w.learned, &sample, report);
    let try_ns: Vec<f64> = sample
        .iter()
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(w.learned.try_estimate(q).ok());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    report.metric("learned.try_estimate_us", median(&try_ns) / 1e3, "us");
    crate::fingerprint_metrics(&sample, report);
}
