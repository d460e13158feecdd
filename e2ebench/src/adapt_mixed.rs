//! `adapt-mixed`: mixed AND/OR forest queries through `MicroBatcher` →
//! `EstimatorService` → `ModelSlot`, served by GB × Limited Disjunction
//! Encoding trained on the low-attribute side of the §5.5.1 drift split.
//! One client thread feeds every answer back through `observe_labeled`
//! to an attached `AdaptController` and steps it at fixed feedback
//! counts; the other client threads only send requests. Swapped models
//! are checkpointed asynchronously into a scratch store. Mid-run the
//! stream switches to the drifted (high-attribute) side, which drives
//! detection, retraining, shadow scoring and the swap.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe_bench::trainers::QftKind;
use qfe_core::featurize::FeatureMatrix;
use qfe_core::{Deadline, Query};
use qfe_estimators::labels::{label_queries, LabeledQueries};
use qfe_estimators::LearnedEstimator;
use qfe_ml::gbdt::Gbdt;
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;
use qfe_obs::PageHinkleyConfig;
use qfe_serve::{
    AdaptConfig, AdaptController, AsyncCheckpointer, CandidateTrainer, EstimatorService,
    MicroBatcher, ModelPersister, ModelSlot, ServiceConfig, SharedEstimator, StepReport,
    BATCH_SIZE_METRIC,
};
use qfe_store::{CheckpointMeta, CheckpointStore, RealFs, StoreConfig, StoreFs};
use qfe_workload::drift::drift_split;
use qfe_workload::{generate_mixed_with_data, MixedConfig};

use crate::common::{
    median, micros, peak_rss_mb, qerror_summary, sub_seed, time_median_ns, Args, Phase,
    RateWindows, Report, Rng, ThreadSampler, WindowStats,
};
use crate::models::{self, gb_config, FOREST};
use crate::trace::{span_cost_ns, Tracer};

const WORKLOAD_QUERIES: usize = 4_000;
/// The query sets and the feedback stream are fixed, so the candidates,
/// the swaps and the final model are the same on every run; the seed
/// draws the load threads' request streams.
const WORKLOAD_SEED: u64 = 11;
const TREES: usize = 40;
/// Feedbacks on the healthy (low-attribute) side before the switch.
const HEALTHY_FEEDBACKS: u64 = 400;
/// The controller steps once per this many feedbacks.
const STEP_EVERY: u64 = 20;
/// Feedbacks in all. After these the feedback thread keeps sending
/// requests without feedback, so the model served at the end (and so
/// the q-error) does not depend on how fast the machine is.
const FEEDBACKS: u64 = 1_600;
const EVAL_QUERIES: usize = 800;
/// Throughput is the median completion rate over windows of this.
const RATE_WINDOW: Duration = Duration::from_millis(500);
const BUDGET: Duration = Duration::from_secs(2);

struct World {
    db: Arc<qfe_data::Database>,
    healthy: LabeledQueries,
    drifted: LabeledQueries,
    eval: LabeledQueries,
    svc: Arc<EstimatorService>,
    slot: Arc<ModelSlot>,
    ctl: Arc<AdaptController>,
    batcher: MicroBatcher,
    ckpt: Arc<AsyncCheckpointer>,
    ckpt_dir: std::path::PathBuf,
    trained: Arc<TrainerLog>,
}

/// What the candidate trainer saw and how long it took.
#[derive(Default)]
struct TrainerLog {
    train_ns: AtomicU64,
    data: Mutex<Vec<(Query, f64)>>,
    candidate: Mutex<Option<SharedEstimator>>,
}

fn select(l: &LabeledQueries, idx: &[usize]) -> LabeledQueries {
    LabeledQueries {
        queries: idx.iter().map(|&i| l.queries[i].clone()).collect(),
        cardinalities: idx.iter().map(|&i| l.cardinalities[i]).collect(),
    }
}

fn fresh(db: &qfe_data::Database) -> LearnedEstimator {
    LearnedEstimator::new(
        models::featurizer(db, QftKind::Complex),
        Box::new(Gbdt::new(gb_config(TREES))),
    )
}

fn setup(ckpt_dir: &std::path::Path) -> World {
    let db = Arc::new(models::forest());
    // Deduplicated, so the training, stream and held-out sets below never
    // share a query.
    let base = label_queries(
        &db,
        crate::common::disjoint_from(
            &[],
            generate_mixed_with_data(
                &db,
                &MixedConfig::new(FOREST, WORKLOAD_QUERIES, WORKLOAD_SEED),
            ),
        ),
    );
    // Low-attribute side: first half trains the live model, the second
    // half is the healthy stream. High-attribute side: the held-out
    // evaluation set, then the drifted stream.
    let (low, high) = drift_split(&base.queries, 2);
    let train = select(&base, &low[..low.len() / 2]);
    let mut healthy_idx = low[low.len() / 2..].to_vec();
    let eval_n = EVAL_QUERIES.min(high.len() / 2);
    let eval = select(&base, &high[..eval_n]);
    let mut drifted_idx = high[eval_n..].to_vec();
    let mut rng = Rng::new(WORKLOAD_SEED);
    rng.shuffle(&mut healthy_idx);
    rng.shuffle(&mut drifted_idx);
    let healthy = select(&base, &healthy_idx);
    let drifted = select(&base, &drifted_idx);

    let mut live = fresh(&db);
    live.fit(&train).expect("mixed training queries featurize");
    let slot = Arc::new(ModelSlot::new(Arc::new(live) as SharedEstimator));
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let store = Arc::new(
        CheckpointStore::open(
            Arc::new(RealFs) as Arc<dyn StoreFs>,
            StoreConfig::new(ckpt_dir),
        )
        .expect("checkpoint store opens"),
    );
    let ckpt = Arc::new(AsyncCheckpointer::new(store, 8));
    slot.set_persister(Arc::clone(&ckpt) as Arc<dyn ModelPersister>);
    let svc = Arc::new(EstimatorService::new(
        vec![Arc::clone(&slot) as SharedEstimator],
        ServiceConfig {
            default_budget: BUDGET,
            ..ServiceConfig::default()
        },
    ));
    svc.attach_persistence(&ckpt);
    let trained = Arc::new(TrainerLog::default());
    let log = Arc::clone(&trained);
    let trainer_db = Arc::clone(&db);
    let trainer: Arc<dyn CandidateTrainer> = Arc::new(
        move |data: &[(Query, f64)],
              sc: &mut dyn FnMut() -> bool|
              -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
            let t = Instant::now();
            let pairs = LabeledQueries {
                queries: data.iter().map(|(q, _)| q.clone()).collect(),
                cardinalities: data.iter().map(|(_, c)| *c).collect(),
            };
            let mut model = fresh(&trainer_db);
            model.fit_within(&pairs, sc).map_err(|e| e.to_string())?;
            let model = Arc::new(model) as SharedEstimator;
            log.train_ns
                .store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            *log.data.lock().expect("trainer log") = data.to_vec();
            *log.candidate.lock().expect("trainer log") = Some(Arc::clone(&model));
            Ok(model)
        },
    );
    let ctl = Arc::new(AdaptController::new(
        Arc::clone(&slot),
        trainer,
        AdaptConfig {
            reservoir_capacity: 256,
            detector: PageHinkleyConfig {
                delta: 0.05,
                lambda: 3.0,
                min_samples: 30,
            },
            confirm_window: 25,
            cooldown: Duration::ZERO,
            // Never cut a retrain short: the candidate must not depend
            // on how busy the machine was.
            train_budget: Duration::from_secs(60),
            min_train_samples: 48,
            holdout_fraction: 0.25,
            min_holdout: 12,
            shadow_z: 1.0,
            min_improvement: 0.98,
            probation_samples: 64,
            rollback_ratio: 4.0,
        },
    ));
    svc.attach_adaptation(&ctl);
    let batcher = MicroBatcher::new(Arc::clone(&svc));
    World {
        db,
        healthy,
        drifted,
        eval,
        svc,
        slot,
        ctl,
        batcher,
        ckpt,
        ckpt_dir: ckpt_dir.to_path_buf(),
        trained,
    }
}

#[derive(Default)]
struct FeedbackLog {
    /// `(send time, latency in us)`; `+inf` for a failed request.
    timed: Vec<(Instant, f64)>,
    done: Vec<Instant>,
    attempted: u64,
    failed: u64,
    observe_ns: Vec<f64>,
    idle_step_us: Vec<f64>,
    detect_lag: Option<u64>,
    /// Durations of the steps that retrained (confirmation → candidate
    /// → shadow verdict, the accepted swap included).
    retrain_step_s: Vec<f64>,
    swap_step_s: Option<f64>,
    reports: Vec<(u64, String)>,
}

fn feedback_loop(w: &World, drifted: &AtomicBool, end: Instant) -> FeedbackLog {
    let mut log = FeedbackLog::default();
    let mut i = 0u64;
    while Instant::now() < end {
        let (set, k) = if i < HEALTHY_FEEDBACKS {
            (&w.healthy, i as usize)
        } else {
            drifted.store(true, Ordering::Relaxed);
            (&w.drifted, (i - HEALTHY_FEEDBACKS) as usize)
        };
        let q = &set.queries[k % set.len()];
        let truth = set.cardinalities[k % set.len()];
        log.attempted += 1;
        let t = Instant::now();
        match w.batcher.submit_within(q, Deadline::within(BUDGET)) {
            Ok(_) if i >= FEEDBACKS => {
                log.timed.push((t, micros(t.elapsed())));
                log.done.push(Instant::now());
            }
            Ok(est) => {
                log.timed.push((t, micros(t.elapsed())));
                log.done.push(Instant::now());
                let t = Instant::now();
                let observed = w.svc.observe_labeled(q, truth, est.value);
                log.observe_ns.push(t.elapsed().as_nanos() as f64);
                if observed.is_err() {
                    log.failed += 1;
                }
            }
            Err(_) => {
                log.failed += 1;
                log.timed.push((t, f64::INFINITY));
            }
        }
        i += 1;
        if i.is_multiple_of(STEP_EVERY) && i <= FEEDBACKS {
            let t = Instant::now();
            let report = w.ctl.step();
            let dt = t.elapsed();
            if matches!(
                report,
                StepReport::SwapAccepted { .. }
                    | StepReport::ShadowRejected
                    | StepReport::ShadowInconclusive
            ) {
                log.retrain_step_s.push(dt.as_secs_f64());
            }
            match report {
                StepReport::Idle => log.idle_step_us.push(micros(dt)),
                StepReport::Suspected if i > HEALTHY_FEEDBACKS && log.detect_lag.is_none() => {
                    log.detect_lag = Some(i - HEALTHY_FEEDBACKS);
                }
                StepReport::SwapAccepted { .. } if log.swap_step_s.is_none() => {
                    log.swap_step_s = Some(dt.as_secs_f64());
                }
                _ => {}
            }
            if !matches!(report, StepReport::Idle) {
                log.reports.push((i, format!("{report:?}")));
            }
        }
    }
    log
}

/// A load thread's requests: `(send time, latency)`, completion times,
/// attempted, failed.
type LoadLog = (Vec<(Instant, f64)>, Vec<Instant>, u64, u64);

fn load_loop(w: &World, thread: u64, seed: u64, drifted: &AtomicBool, end: Instant) -> LoadLog {
    let mut rng = Rng::new(sub_seed(seed, 100 + thread));
    let mut timed = Vec::new();
    let mut done = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while Instant::now() < end {
        let set = if drifted.load(Ordering::Relaxed) {
            &w.drifted
        } else {
            &w.healthy
        };
        let q = &set.queries[rng.below(set.len())];
        attempted += 1;
        let t = Instant::now();
        match w.batcher.submit_within(q, Deadline::within(BUDGET)) {
            Ok(_) => {
                timed.push((t, micros(t.elapsed())));
                done.push(Instant::now());
            }
            Err(_) => {
                failed += 1;
                timed.push((t, f64::INFINITY));
            }
        }
    }
    (timed, done, attempted, failed)
}

pub fn run(args: &Args, report: &mut Report) {
    let tracer = Tracer::new(args.trace);
    let ckpt_dir = crate::out_dir().join(format!("ckpt-{}", std::process::id()));
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..3 {
        if let Some(w) = world.take() {
            let w: World = w;
            w.ckpt.shutdown();
        }
        let t = Instant::now();
        world = Some(setup(&ckpt_dir));
        setups.push(t.elapsed().as_secs_f64());
    }
    let w = world.expect("set-up ran");
    let setup_s = median(&setups);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let drifted = AtomicBool::new(false);
    let sampler = ThreadSampler::start();
    let start = Instant::now();
    let end = start + args.duration();
    let (fb, loads) = std::thread::scope(|s| {
        let loads: Vec<_> = (1..threads as u64)
            .map(|t| {
                let (w, drifted) = (&w, &drifted);
                s.spawn(move || load_loop(w, t, args.seed, drifted, end))
            })
            .collect();
        let fb = feedback_loop(&w, &drifted, end);
        let loads: Vec<_> = loads
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (fb, loads)
    });
    let secs = start.elapsed().as_secs_f64();
    let threads_peak = sampler.finish();

    report.phase(Phase::new("feedback-stream", fb.attempted, fb.failed));
    let mut timed = fb.timed.clone();
    let mut done = fb.done.clone();
    let (mut load_attempted, mut load_failed) = (0, 0);
    for (t, d, a, f) in loads {
        timed.extend(t);
        done.extend(d);
        load_attempted += a;
        load_failed += f;
    }
    report.phase(Phase::new("load-stream", load_attempted, load_failed));
    timed.sort_by_key(|&(t, _)| t);
    let in_order: Vec<f64> = timed.iter().map(|&(_, us)| us).collect();

    // q-error on the held-out drifted set, after the swap.
    let answers = w
        .svc
        .estimate_batch_within(&w.eval.queries, Deadline::within(Duration::from_secs(30)));
    let eval_failed = answers.iter().filter(|a| a.is_err()).count() as u64;
    report.phase(Phase::new(
        "held-out-eval",
        answers.len() as u64,
        eval_failed,
    ));
    let (q50, q95, nq) = qerror_summary(
        answers
            .iter()
            .zip(&w.eval.cardinalities)
            .filter_map(|(a, &t)| a.as_ref().ok().map(|e| (t, e.value))),
    );

    // ---- checks ------------------------------------------------------
    let st = w.ctl.stats();
    report.check(
        "swap_accepted",
        st.shadow_accepted >= 1 && w.slot.generation() >= 1,
        format!(
            "{} accepted, slot generation {}; steps: {:?}",
            st.shadow_accepted,
            w.slot.generation(),
            fb.reports
        ),
    );
    report.check(
        "feedback_schedule_completed",
        fb.attempted >= FEEDBACKS,
        format!(
            "{} of {FEEDBACKS} feedbacks sent within the run",
            fb.attempted.min(FEEDBACKS)
        ),
    );
    report.check(
        "triggered_eq_outcomes",
        st.retrain_triggered
            == st.shadow_accepted
                + st.shadow_rejected
                + st.shadow_inconclusive
                + st.retrain_aborted,
        format!(
            "triggered {} = accepted {} + rejected {} + inconclusive {} + aborted {}",
            st.retrain_triggered,
            st.shadow_accepted,
            st.shadow_rejected,
            st.shadow_inconclusive,
            st.retrain_aborted
        ),
    );
    let bs = w.batcher.stats();
    report.check(
        "batch_submitted_conserved",
        bs.queued == 0 && bs.submitted == bs.shed + bs.expired + bs.dispatched,
        format!(
            "submitted {} = shed {} + expired {} + dispatched {}",
            bs.submitted, bs.shed, bs.expired, bs.dispatched
        ),
    );
    w.ckpt.shutdown();
    let (enqueued, dropped, _) = w.ckpt.stats();
    let saved = w.svc.metrics().counter("persist.written");
    report.check(
        "swaps_checkpointed",
        enqueued >= st.shadow_accepted && saved >= st.shadow_accepted && dropped == 0,
        format!("{enqueued} checkpoints enqueued, {dropped} dropped, store saves {saved}"),
    );

    let stats = WindowStats::from_ordered(&in_order);
    report.note(format!("all client requests: {}", stats.describe()));
    report.note(format!(
        "{threads} client threads, drift at feedback {HEALTHY_FEEDBACKS}, detection after {:?} drifted feedbacks, q-error over {nq} held-out drifted queries",
        fb.detect_lag
    ));
    if !args.trace {
        report.metric("setup_s", setup_s, "s");
        report.metric(
            "throughput_qps",
            RateWindows::of(&done, start, RATE_WINDOW),
            "1/s",
        );
        report.metric("latency_p50_us", stats.p50(), "us");
        let attempted = fb.attempted + load_attempted + answers.len() as u64;
        let failed = fb.failed + load_failed + eval_failed;
        report.metric(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.metric("qerror_p50", q50, "ratio");
        report.metric("qerror_p95", q95, "ratio");
        report.metric("retrain_s", median(&fb.retrain_step_s), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        layer_metrics(&w, &tracer, report, &fb, stats.p50());
        report.metric("e2e.latency_p95_us", stats.p95(), "us");
        report.metric("e2e.latency_p99_us", stats.p99(), "us");
        report.metric("proc.threads_peak", threads_peak as f64, "count");
        let spans = tracer.len() as f64;
        report.metric("trace.spans", spans, "count");
        report.metric(
            "trace.overhead_frac",
            spans * span_cost_ns() / (secs * 1e9 * threads as f64),
            "ratio",
        );
        crate::write_spans(&tracer, &args.workload, args.seed);
    }
    let _ = std::fs::remove_dir_all(&w.ckpt_dir);
}

fn layer_metrics(
    w: &World,
    tracer: &Tracer,
    report: &mut Report,
    fb: &FeedbackLog,
    e2e_p50_us: f64,
) {
    let st = w.ctl.stats();
    report.metric(
        "adapt.detect_lag_feedbacks",
        fb.detect_lag.unwrap_or(0) as f64,
        "count",
    );
    report.metric("adapt.triggered", st.retrain_triggered as f64, "count");
    report.metric("adapt.accepted", st.shadow_accepted as f64, "count");
    report.metric("adapt.rejected", st.shadow_rejected as f64, "count");
    report.metric("adapt.aborted", st.retrain_aborted as f64, "count");
    let train_s = w.trained.train_ns.load(Ordering::Relaxed) as f64 / 1e9;
    report.metric("adapt.retrain_s", train_s, "s");
    report.metric(
        "adapt.shadow_s",
        fb.swap_step_s.map_or(0.0, |s| s - train_s),
        "s",
    );
    report.metric("adapt.step_us", median(&fb.idle_step_us), "us");
    report.metric("obs.observe_ns", median(&fb.observe_ns), "ns");

    // Swap, checkpoint and refit costs on the run's own candidate.
    let candidate = w.trained.candidate.lock().expect("trainer log").clone();
    let probe: Vec<Query> = w.eval.queries.iter().take(32).cloned().collect();
    if let Some(candidate) = &candidate {
        let scratch = ModelSlot::new(w.slot.load());
        let swap_ns = time_median_ns(9, || {
            scratch
                .try_publish(Arc::clone(candidate), &probe)
                .expect("candidate passes the probe gate");
        });
        report.metric("slot.swap_us", swap_ns / 1e3, "us");
        if let Some(bytes) = candidate.snapshot_bytes() {
            let dir = w.ckpt_dir.join("scratch");
            let store =
                CheckpointStore::open(Arc::new(RealFs) as Arc<dyn StoreFs>, StoreConfig::new(&dir))
                    .expect("scratch store opens");
            let meta = CheckpointMeta {
                kind: candidate.name(),
                ..CheckpointMeta::default()
            };
            let save_ns = time_median_ns(5, || {
                store.save(&meta, bytes.clone()).expect("checkpoint saves");
            });
            report.metric("store.checkpoint_ms", save_ns / 1e6, "ms");
            report.metric("store.checkpoint_bytes", bytes.len() as f64, "bytes");
        }
    }
    let data = w.trained.data.lock().expect("trainer log").clone();
    if !data.is_empty() {
        let pairs = LabeledQueries {
            queries: data.iter().map(|(q, _)| q.clone()).collect(),
            cardinalities: data.iter().map(|(_, c)| *c).collect(),
        };
        let x = fresh(&w.db)
            .featurize_matrix(&pairs.queries)
            .expect("featurizes");
        let scaler = LogScaler::fit(&pairs.cardinalities).expect("valid labels");
        let y = scaler.transform_batch(&pairs.cardinalities);
        let t = Instant::now();
        Gbdt::new(gb_config(TREES)).try_fit(&x, &y).expect("refit");
        report.metric("gbdt.fit_s", t.elapsed().as_secs_f64(), "s");
    }

    // Request path, one held-out query at a time: each layer's public
    // function on the same input, its span parented to the layer above.
    let live = w.slot.load();
    let featurizer = models::featurizer(&w.db, QftKind::Complex);
    let mut buf = tracer.buf(1_000);
    for (i, q) in w.eval.queries.iter().take(300).enumerate() {
        let rid = i as u64;
        let one = std::slice::from_ref(q);
        let b = buf.enter("batch.submit_within", None, rid);
        std::hint::black_box(w.batcher.submit_within(q, Deadline::within(BUDGET)).ok());
        buf.exit(b);
        let s = buf.enter("service.estimate_batch_within", b, rid);
        std::hint::black_box(w.svc.estimate_batch_within(one, Deadline::within(BUDGET)));
        buf.exit(s);
        let l = buf.enter("learned.estimate_batch", s, rid);
        std::hint::black_box(live.estimate_batch(one));
        buf.exit(l);
        buf.span("featurize.complex", l, rid, |_, _| {
            std::hint::black_box(FeatureMatrix::build(featurizer.as_ref(), one))
        });
    }
    tracer.absorb(buf);
    let sts = tracer.self_times();
    let self_ns = |name: &str| sts.get(name).map_or(0.0, |v| v.0);
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
    let chain = [
        "batch.submit_within",
        "service.estimate_batch_within",
        "learned.estimate_batch",
        "featurize.complex",
    ]
    .iter()
    .map(|n| self_ns(n))
    .sum::<f64>();
    report.metric("unattributed_us", e2e_p50_us - chain / 1e3, "us");

    let m = w.svc.metrics();
    if let Some(h) = m.histogram(BATCH_SIZE_METRIC) {
        report.metric(
            "batch.size_mean",
            h.sum_nanos as f64 / h.count.max(1) as f64,
            "rows",
        );
    }
    if let Some(h) = m.histogram("serve.queue.wait") {
        report.metric(
            "service.admission_wait_us_p99",
            h.p99_nanos() as f64 / 1e3,
            "us",
        );
    }
    let bs = w.batcher.stats();
    report.metric("batch.expired", bs.expired as f64, "count");
    report.metric("batch.shed", bs.shed as f64, "count");
    let ss = w.svc.stats();
    report.metric("service.floor_answers", ss.floor_answers as f64, "count");
    report.metric(
        "service.deadline_exceeded",
        ss.deadline_exceeded as f64,
        "count",
    );
    report.metric(
        "service.fallback_frac",
        ss.stages.iter().skip(1).map(|s| s.hits).sum::<u64>() as f64 / ss.answered.max(1) as f64,
        "ratio",
    );

    let sample = &w.eval.queries;
    let rows = sample.len().max(1) as f64;
    let batch_ns = time_median_ns(9, || {
        std::hint::black_box(live.estimate_batch(sample));
    });
    let feat_ns = time_median_ns(9, || {
        std::hint::black_box(FeatureMatrix::build(featurizer.as_ref(), sample));
    });
    report.metric("learned.batch_us_per_row", batch_ns / rows / 1e3, "us");
    report.metric("featurize.complex_ns_per_row", feat_ns / rows, "ns");
    let try_ns: Vec<f64> = sample
        .iter()
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(live.try_estimate(q).ok());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    report.metric("learned.try_estimate_us", median(&try_ns) / 1e3, "us");
    crate::fingerprint_metrics(sample, report);
    crate::codec_metrics(sample, report);
}
