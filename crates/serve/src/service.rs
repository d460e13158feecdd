//! The deadline-aware estimation front end.
//!
//! [`EstimatorService`] wraps an ordered stack of estimator stages
//! (typically: hot-swappable learned model → histogram baseline →
//! sampling) behind one thread-safe request surface with four layers of
//! protection, outermost first:
//!
//! 1. **Admission** ([`crate::admission`]): at most `max_concurrency`
//!    requests run at once; a bounded queue absorbs bursts and sheds load
//!    beyond it with a typed [`ServeError::Overloaded`].
//! 2. **Deadline** ([`qfe_core::Deadline`]): every request carries a time
//!    budget through the stage loop. Each stage gets a *fair share* of the
//!    remaining budget (`remaining / stages_left`), so a stalled learned
//!    stage is abandoned mid-chain and the leftover budget flows to the
//!    cheap fallbacks instead of dying with the stall.
//! 3. **Panic isolation**: every stage call runs under `catch_unwind`
//!    (on a watchdog thread when a real budget applies); a panicking model
//!    becomes a per-stage failure that falls through — it never crosses
//!    the service boundary and never poisons another request.
//! 4. **Circuit breaking** ([`qfe_estimators::breaker`]): consecutive
//!    failures open a per-stage breaker, so a corrupt or drifted model is
//!    *skipped* (fast typed `CircuitOpen`) instead of burning every
//!    request's budget, and probed back in after an exponential cooldown.
//!
//! The response contract mirrors the chain's, hardened for concurrency:
//! every request gets a finite [`Estimate`] `>= 1` (a real stage or the
//! constant floor) or a typed [`ServeError`] — never a panic, never NaN,
//! under any interleaving of failures.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, RwLock};
use std::time::{Duration, Instant};

use qfe_core::error::EstimateErrorKind;
use qfe_core::estimator::Estimate;
use qfe_core::{Deadline, Query};
use qfe_estimators::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use qfe_obs::{Counter, MetricsRecorder, MetricsSnapshot, QErrorWindow, Recorder};

use crate::adapt::FeedbackSink;
use crate::admission::{AdmissionQueue, AdmissionStats};
use crate::error::{FeedbackError, ServeError, ShedPolicy};
use crate::slot::SharedEstimator;

/// Truths above this are treated as corrupted upstream counters (no real
/// table has 10^18 rows) and rejected as [`FeedbackError::AbsurdTruth`].
const ABSURD_TRUTH: f64 = 1e18;

/// Tuning for an [`EstimatorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Requests executing concurrently; more wait in the queue.
    pub max_concurrency: usize,
    /// Waiting requests beyond which the service sheds load.
    pub queue_capacity: usize,
    /// Who eats the `Overloaded` error when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Budget used by [`EstimatorService::estimate`] when the caller does
    /// not bring a deadline of their own.
    pub default_budget: Duration,
    /// Breaker tuning applied to every stage.
    pub breaker: BreakerConfig,
    /// The constant answered when every stage fails within budget
    /// (clamped finite and `>= 1`).
    pub floor: f64,
    /// Sliding-window size of the online q-error tracker fed by
    /// [`EstimatorService::observe_truth`]. The window *size* is clamped
    /// to `>= 1`; observed pairs are never clamped on entry — an invalid
    /// truth or estimate is rejected with a typed [`FeedbackError`]
    /// instead. Accepted truths in `(0, 1)` (sub-row cardinalities) are
    /// treated as 1 only inside the q-error computation itself.
    pub qerror_window: usize,
    /// Worker threads a [`crate::batch::MicroBatcher`] runs over this
    /// service (clamped to `>= 1` when a batcher is started).
    pub workers: usize,
    /// Most requests a micro-batch worker coalesces into one batched
    /// dispatch (clamped to `>= 1`).
    pub max_batch_size: usize,
    /// How long a draining worker waits for more requests before
    /// dispatching a partial batch.
    pub max_batch_wait: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_concurrency: 8,
            queue_capacity: 16,
            shed_policy: ShedPolicy::RejectNew,
            default_budget: Duration::from_millis(100),
            breaker: BreakerConfig::default(),
            floor: 1.0,
            qerror_window: 1024,
            workers: 2,
            max_batch_size: 32,
            max_batch_wait: Duration::from_millis(1),
        }
    }
}

/// End-to-end request latency histogram name (admission wait included).
pub const REQUEST_LATENCY_METRIC: &str = "serve.request.latency";

/// Batch-size histogram name. Sizes are recorded on the histogram's
/// nanosecond scale (a 32-row batch records as 32 ns), so `count` is the
/// number of drains, `sum` the total rows, and the percentiles read
/// directly as batch sizes.
pub const BATCH_SIZE_METRIC: &str = "serve.batch.size";

/// Budgets at or above this are treated as "no real deadline": the stage
/// runs inline (still panic-isolated) instead of on a watchdog thread.
const INLINE_BUDGET: Duration = Duration::from_secs(60 * 60);

/// How one stage call over a batch of rows ended.
enum Outcome {
    /// The stage returned; rows classify individually.
    Rows(Vec<Result<Estimate, qfe_core::EstimateError>>),
    /// The call was abandoned on its budget share (it may still be
    /// running on its watchdog thread).
    Timeout,
    /// The stage panicked; the panic was contained.
    Panicked,
    /// The watchdog thread could not be spawned (resource exhaustion).
    SpawnFailed,
}

struct StageSlot {
    est: SharedEstimator,
    /// Captured at construction; hot-swapped inner models keep the
    /// stage's label for provenance (the *slot* answered).
    name: String,
    breaker: CircuitBreaker,
    hits: Counter,
    timeouts: Counter,
    panics: Counter,
    skipped_open: Counter,
    errors: [Counter; EstimateErrorKind::COUNT],
    /// Precomputed `serve.stage<i>.latency` histogram name.
    latency_metric: String,
}

impl StageSlot {
    /// Stage `i` over `est`, its counters and breaker registered with
    /// `recorder` under `serve.stage<i>.`.
    fn new(
        i: usize,
        est: SharedEstimator,
        breaker: &BreakerConfig,
        recorder: &Arc<MetricsRecorder>,
    ) -> Self {
        let p = format!("serve.stage{i}");
        let counter = |name: &str| recorder.new_counter(&format!("{p}.{name}"));
        StageSlot {
            name: est.name(),
            breaker: CircuitBreaker::new(breaker.clone()).with_recorder(
                Arc::clone(recorder) as Arc<dyn Recorder>,
                &format!("{p}.breaker"),
            ),
            est,
            hits: counter("hits"),
            timeouts: counter("timeouts"),
            panics: counter("panics"),
            skipped_open: counter("skipped_open"),
            // `ALL` is in `as_index` order.
            errors: std::array::from_fn(|k| {
                counter(&format!("errors.{}", EstimateErrorKind::ALL[k].label()))
            }),
            latency_metric: format!("{p}.latency"),
        }
    }

    fn record_error_n(&self, kind: EstimateErrorKind, n: u64) {
        self.errors[kind.as_index()].add(n);
    }
}

/// Per-stage serving counters, one coherent snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageServiceStats {
    /// Stage label (`name()` at construction).
    pub name: String,
    /// Requests this stage answered.
    pub hits: u64,
    /// Stage calls abandoned on their budget share.
    pub timeouts: u64,
    /// Stage calls that panicked (contained).
    pub panics: u64,
    /// Requests that skipped the stage because its breaker was open.
    pub skipped_open: u64,
    /// All stage failures bucketed by [`EstimateErrorKind`] label.
    pub errors: Vec<(&'static str, u64)>,
    /// Breaker state and transition counters.
    pub breaker: BreakerStats,
}

/// Service-wide counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered with an estimate (stage or floor).
    pub answered: u64,
    /// Of those, answered by the constant floor.
    pub floor_answers: u64,
    /// Requests that returned [`ServeError::DeadlineExceeded`] after
    /// admission.
    pub deadline_exceeded: u64,
    /// Admission-layer counters (running, queued, shed, rejected, …).
    pub admission: AdmissionStats,
    /// Batched dispatches through
    /// [`estimate_batch`](EstimatorService::estimate_batch) (each batch
    /// counts once).
    pub batch_drains: u64,
    /// Requests served through the batched path (each row counts once;
    /// these requests also count in `answered`/`deadline_exceeded`).
    pub batched_requests: u64,
    /// Per-stage counters in stage order.
    pub stages: Vec<StageServiceStats>,
}

/// A thread-safe, deadline-aware front end over a stack of estimators
/// (see the module docs).
pub struct EstimatorService {
    stages: Vec<StageSlot>,
    admission: AdmissionQueue,
    floor: f64,
    default_budget: Duration,
    answered: Counter,
    floor_answers: Counter,
    deadline_exceeded: Counter,
    batch_drains: Counter,
    batched_requests: Counter,
    /// Every counter of the service, its stages, breakers, admission
    /// queue and attached components is registered here.
    recorder: Arc<MetricsRecorder>,
    qerror: QErrorWindow,
    truth_rejected: Counter,
    /// Optional downstream consumer of sanitized (query, truth) pairs —
    /// the adaptation controller. Behind a lock because it is attached
    /// once at wiring time and read rarely (per ground-truth arrival,
    /// not per estimate).
    feedback: RwLock<Option<Arc<dyn FeedbackSink>>>,
    /// Retained so a [`crate::batch::MicroBatcher`] can read its tuning.
    cfg: ServiceConfig,
}

impl EstimatorService {
    /// Build a service over `stages`, tried in order per request.
    pub fn new(stages: Vec<SharedEstimator>, cfg: ServiceConfig) -> Self {
        let floor = if cfg.floor.is_finite() {
            cfg.floor.max(1.0)
        } else {
            1.0
        };
        let recorder = Arc::new(MetricsRecorder::new());
        EstimatorService {
            stages: stages
                .into_iter()
                .enumerate()
                .map(|(i, est)| StageSlot::new(i, est, &cfg.breaker, &recorder))
                .collect(),
            admission: AdmissionQueue::new(
                cfg.max_concurrency,
                cfg.queue_capacity,
                cfg.shed_policy,
            )
            .with_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>, "serve.queue"),
            floor,
            default_budget: cfg.default_budget,
            answered: recorder.new_counter("serve.answered"),
            floor_answers: recorder.new_counter("serve.floor.answers"),
            deadline_exceeded: recorder.new_counter("serve.deadline_exceeded"),
            batch_drains: recorder.new_counter("serve.batch.drains"),
            batched_requests: recorder.new_counter("serve.batched_requests"),
            truth_rejected: recorder.new_counter("obs.truth.rejected"),
            recorder,
            qerror: QErrorWindow::new(cfg.qerror_window),
            feedback: RwLock::new(None),
            cfg,
        }
    }

    /// The configuration this service was built with.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The service's live recorder, for crate-internal components (the
    /// micro-batcher, persistence) that register their own counters into
    /// the same snapshot.
    pub(crate) fn recorder(&self) -> &Arc<MetricsRecorder> {
        &self.recorder
    }

    /// Serve one request under the configured default budget.
    pub fn estimate(&self, query: &Query) -> Result<Estimate, ServeError> {
        self.estimate_within(query, Deadline::within(self.default_budget))
    }

    /// Serve one request under the caller's deadline.
    ///
    /// Returns a finite estimate `>= 1` (with stage provenance, the floor
    /// included as the deepest stage), or a typed [`ServeError`] when the
    /// request was shed or its budget ran out. Never panics, never NaN.
    ///
    /// A single request is served as a batch of one: it walks the same
    /// stage loop as [`estimate_batch_within`](Self::estimate_batch_within),
    /// without the batch-only counters.
    pub fn estimate_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<Estimate, ServeError> {
        // End-to-end latency covers everything the caller waited for —
        // admission queueing included — for every outcome, errors too.
        let started = Instant::now();
        let result = self.admission.acquire(&deadline).and_then(|_permit| {
            let (mut answers, tried) = self.walk(std::slice::from_ref(query), deadline);
            self.settle(answers.pop().flatten(), deadline.expired(), deadline, tried)
        });
        self.recorder
            .record(REQUEST_LATENCY_METRIC, started.elapsed());
        result
    }

    /// Serve a caller-held batch under the configured default budget.
    /// See [`estimate_batch_within`](Self::estimate_batch_within).
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, ServeError>> {
        self.estimate_batch_within(queries, Deadline::within(self.default_budget))
    }

    /// Serve a caller-held batch of queries under one shared deadline.
    ///
    /// The batch is admitted as **one** unit of concurrency and walks the
    /// stage stack once: each stage receives a single
    /// [`estimate_batch`](qfe_core::CardinalityEstimator::estimate_batch)
    /// call covering every row still unanswered at its depth, under
    /// fair-share budgeting, breaker gating, and panic isolation.
    /// Per-row failures fall through to the next stage individually; rows
    /// still unanswered when the stack is exhausted get the floor, and
    /// rows unanswered at deadline expiry get a per-row
    /// [`ServeError::DeadlineExceeded`]. An admission rejection reports
    /// the same [`ServeError`] on every row.
    ///
    /// End-to-end and per-stage latency are recorded amortized (elapsed ÷
    /// rows, once per row), so histogram counts stay comparable with
    /// single requests; [`BATCH_SIZE_METRIC`] records each drain's size.
    pub fn estimate_batch_within(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Vec<Result<Estimate, ServeError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let results = match self.admission.acquire(&deadline) {
            Ok(_permit) => {
                self.batch_drains.incr();
                self.batched_requests.add(queries.len() as u64);
                self.recorder.record(
                    BATCH_SIZE_METRIC,
                    Duration::from_nanos(queries.len() as u64),
                );
                let (answers, tried) = self.walk(queries, deadline);
                let expired = deadline.expired();
                answers
                    .into_iter()
                    .map(|answer| self.settle(answer, expired, deadline, tried))
                    .collect()
            }
            Err(e) => queries.iter().map(|_| Err(e.clone())).collect(),
        };
        let amortized = started.elapsed() / queries.len() as u32;
        for _ in queries {
            self.recorder.record(REQUEST_LATENCY_METRIC, amortized);
        }
        results
    }

    /// The stage loop, run with an admission permit held: each stage gets
    /// one call covering the rows still unanswered at its depth. Returns
    /// each row's stage answer (`None` when no stage answered it) and the
    /// number of stages invoked.
    fn walk(&self, queries: &[Query], deadline: Deadline) -> (Vec<Option<Estimate>>, usize) {
        let mut answers: Vec<Option<Estimate>> = vec![None; queries.len()];
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut tried = 0usize;
        for (depth, stage) in self.stages.iter().enumerate() {
            if pending.is_empty() || deadline.expired() {
                break;
            }
            let n = pending.len() as u64;
            if !stage.breaker.admit() {
                // Counters are per row: a skipped stage skips every
                // pending row.
                stage.skipped_open.add(n);
                stage.record_error_n(EstimateErrorKind::CircuitOpen, n);
                continue;
            }
            tried += 1;
            // Fair-share budgeting: this stage may use its fraction of
            // what is left; later stages inherit whatever it leaves
            // behind (all of it, if the stage fails fast).
            let stages_left = (self.stages.len() - depth) as u32;
            let share = deadline.remaining() / stages_left;
            // `pending` is an ascending subset of the rows, so equal
            // length means every row is still pending.
            let rows = if pending.len() == queries.len() {
                Cow::Borrowed(queries)
            } else {
                Cow::Owned(pending.iter().map(|&i| queries[i].clone()).collect())
            };
            let stage_started = Instant::now();
            let outcome = Self::run_stage(stage, rows, share);
            let amortized = stage_started.elapsed() / pending.len() as u32;
            for _ in &pending {
                self.recorder.record(&stage.latency_metric, amortized);
            }
            match outcome {
                Outcome::Rows(rows) => {
                    let mut rows = rows.into_iter();
                    let mut still = Vec::with_capacity(pending.len());
                    for &i in &pending {
                        match Self::classify(rows.next()) {
                            Ok(value) => {
                                stage.hits.incr();
                                self.answered.incr();
                                answers[i] = Some(Estimate {
                                    value,
                                    estimator: stage.name.clone(),
                                    fallback_depth: depth,
                                });
                            }
                            Err(kind) => {
                                stage.record_error_n(kind, 1);
                                still.push(i);
                            }
                        }
                    }
                    // Breaker at call granularity: the call counts as a
                    // success if any row got a valid answer, as one
                    // failure if none did — a drifted model failing whole
                    // batches trips it on the same schedule as failing
                    // single requests.
                    if still.len() < pending.len() {
                        stage.breaker.record_success();
                    } else {
                        stage.breaker.record_failure();
                    }
                    pending = still;
                }
                Outcome::Timeout => {
                    stage.breaker.record_failure();
                    stage.timeouts.add(n);
                    stage.record_error_n(EstimateErrorKind::DeadlineExceeded, n);
                }
                Outcome::Panicked => {
                    stage.breaker.record_failure();
                    stage.panics.add(n);
                    stage.record_error_n(EstimateErrorKind::Internal, n);
                }
                Outcome::SpawnFailed => {
                    stage.breaker.record_failure();
                    stage.record_error_n(EstimateErrorKind::Internal, n);
                }
            }
        }
        (answers, tried)
    }

    /// One row's final result after [`walk`](Self::walk): its stage
    /// answer, else a deadline error if the budget had run out when the
    /// walk ended, else the floor. Every unanswered row is one deadline
    /// error or one floor answer.
    fn settle(
        &self,
        answer: Option<Estimate>,
        expired: bool,
        deadline: Deadline,
        tried: usize,
    ) -> Result<Estimate, ServeError> {
        match answer {
            Some(est) => Ok(est),
            None if expired => {
                self.deadline_exceeded.incr();
                Err(ServeError::DeadlineExceeded {
                    budget: deadline.budget(),
                    elapsed: deadline.elapsed(),
                    stages_tried: tried,
                    admitted: true,
                })
            }
            // Every stage failed or was skipped, within budget: the floor
            // upholds the "always an estimate" half of the contract.
            None => {
                self.answered.incr();
                self.floor_answers.incr();
                Ok(Estimate {
                    value: self.floor,
                    estimator: "floor".into(),
                    fallback_depth: self.stages.len(),
                })
            }
        }
    }

    /// One stage call over `rows`, panic-isolated and bounded by `share`.
    /// The whole call shares one watchdog thread and one timeout: a stage
    /// that stalls is abandoned wholesale and every row of the call falls
    /// through to the next stage.
    fn run_stage(stage: &StageSlot, rows: Cow<'_, [Query]>, share: Duration) -> Outcome {
        if share >= INLINE_BUDGET {
            // No meaningful deadline: skip the watchdog thread, keep the
            // panic isolation.
            let caught = catch_unwind(AssertUnwindSafe(|| stage.est.estimate_batch(&rows)));
            return match caught {
                Ok(rows) => Outcome::Rows(rows),
                Err(_) => Outcome::Panicked,
            };
        }
        if share.is_zero() {
            return Outcome::Timeout;
        }
        // Watchdog pattern: the call runs on its own thread; we wait at
        // most `share`. On timeout the thread is abandoned — it finishes
        // (or panics) in the background and its result is discarded. The
        // breaker is what keeps a chronically slow stage from accumulating
        // abandoned threads: after `failure_threshold` timeouts the stage
        // stops being invoked at all.
        let est = SharedEstimator::clone(&stage.est);
        let rows = rows.into_owned();
        let (tx, rx) = mpsc::sync_channel(1);
        let spawned = std::thread::Builder::new()
            .name("qfe-serve-stage".into())
            .spawn(move || {
                let caught = catch_unwind(AssertUnwindSafe(|| est.estimate_batch(&rows)));
                let _ = tx.send(caught);
            });
        if spawned.is_err() {
            // Cannot even spawn (resource exhaustion): count it against
            // the stage and fall through to cheaper fallbacks.
            return Outcome::SpawnFailed;
        }
        match rx.recv_timeout(share) {
            Ok(Ok(rows)) => Outcome::Rows(rows),
            Ok(Err(_)) => Outcome::Panicked,
            Err(_) => Outcome::Timeout,
        }
    }

    /// One row of a stage's answer as a valid value or a failure kind.
    fn classify(
        row: Option<Result<Estimate, qfe_core::EstimateError>>,
    ) -> Result<f64, EstimateErrorKind> {
        match row {
            // Defense in depth, same as the chain: an Ok is only trusted
            // after re-validation.
            Some(Ok(est)) if est.value.is_finite() && est.value >= 1.0 => Ok(est.value),
            Some(Ok(_)) => Err(EstimateErrorKind::NonFinite),
            Some(Err(e)) => Err(e.kind()),
            // The stage returned fewer rows than it was given: each
            // missing row is one failure and stays pending for the next
            // stage.
            None => Err(EstimateErrorKind::Internal),
        }
    }

    /// Number of configured stages (the floor is implicit).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Feed the online q-error tracker with a ground-truth cardinality
    /// and the estimate the service produced for it.
    ///
    /// Pairs are *validated before* they reach the window: a NaN, zero,
    /// negative, or absurdly large truth (or a non-finite estimate) is
    /// rejected with a typed [`FeedbackError`] and counted under
    /// `obs.truth.rejected` — never recorded. The underlying q-error
    /// clamps both sides to ≥ 1, so without this gate a zero truth
    /// against a large estimate would masquerade as a catastrophic (but
    /// fictional) accuracy collapse and could trip drift detection or
    /// poison retraining. The tracker summarizes the most recent
    /// `qerror_window` accepted observations in
    /// [`metrics`](Self::metrics).
    pub fn observe_truth(&self, truth: f64, estimate: f64) -> Result<(), FeedbackError> {
        if let Err(e) = Self::validate_truth(truth, estimate) {
            self.truth_rejected.incr();
            return Err(e);
        }
        self.qerror.observe(truth, estimate);
        Ok(())
    }

    /// [`observe_truth`](Self::observe_truth) plus feedback routing: on
    /// acceptance the sanitized `(query, truth, estimate)` triple is also
    /// forwarded to the attached [`FeedbackSink`] (the adaptation
    /// controller), which is how retraining data and drift evidence
    /// accumulate. Rejected pairs are counted and never forwarded — the
    /// sink only ever sees sanitized labels.
    pub fn observe_labeled(
        &self,
        query: &Query,
        truth: f64,
        estimate: f64,
    ) -> Result<(), FeedbackError> {
        self.observe_truth(truth, estimate)?;
        let sink = {
            let guard = self.feedback.read().unwrap_or_else(|e| e.into_inner());
            guard.as_ref().map(Arc::clone)
        };
        if let Some(sink) = sink {
            sink.feedback(query, truth, estimate);
        }
        Ok(())
    }

    /// Wire an adaptation controller into this service in one call: the
    /// controller becomes the feedback sink for
    /// [`observe_labeled`](Self::observe_labeled), and its `adapt.*`
    /// counters and gauges (plus the underlying slot's `slot.*` ones) are
    /// registered with this service's recorder, so
    /// [`metrics`](Self::metrics) shows the whole control loop. They
    /// report totals since the controller and slot were constructed.
    pub fn attach_adaptation(&self, controller: &Arc<crate::adapt::AdaptController>) {
        controller.set_recorder(Arc::clone(&self.recorder) as Arc<dyn Recorder>, "adapt");
        self.attach_feedback(Arc::clone(controller) as Arc<dyn FeedbackSink>);
    }

    /// Attach the consumer of sanitized ground-truth labels (one sink;
    /// a second attach replaces the first).
    pub fn attach_feedback(&self, sink: Arc<dyn FeedbackSink>) {
        match self.feedback.write() {
            Ok(mut g) => *g = Some(sink),
            Err(poisoned) => *poisoned.into_inner() = Some(sink),
        }
    }

    fn validate_truth(truth: f64, estimate: f64) -> Result<(), FeedbackError> {
        if !truth.is_finite() {
            return Err(FeedbackError::NonFiniteTruth);
        }
        if truth <= 0.0 {
            return Err(FeedbackError::NonPositiveTruth);
        }
        if truth > ABSURD_TRUTH {
            return Err(FeedbackError::AbsurdTruth);
        }
        if !estimate.is_finite() {
            return Err(FeedbackError::NonFiniteEstimate);
        }
        Ok(())
    }

    /// One [`MetricsSnapshot`] over the whole pipeline: every registered
    /// counter and gauge (service, stages, breakers, admission queue,
    /// batcher, and attached adaptation and persistence), the
    /// request/stage latency and queue-wait histograms, and the
    /// sliding-window q-error summary when ground truth has been
    /// observed.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.recorder.snapshot();
        snap.qerror = self.qerror.summary();
        snap
    }

    /// One coherent snapshot of every service counter.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            answered: self.answered.get(),
            floor_answers: self.floor_answers.get(),
            deadline_exceeded: self.deadline_exceeded.get(),
            admission: self.admission.stats(),
            batch_drains: self.batch_drains.get(),
            batched_requests: self.batched_requests.get(),
            stages: self
                .stages
                .iter()
                .map(|s| StageServiceStats {
                    name: s.name.clone(),
                    hits: s.hits.get(),
                    timeouts: s.timeouts.get(),
                    panics: s.panics.get(),
                    skipped_open: s.skipped_open.get(),
                    errors: EstimateErrorKind::ALL
                        .iter()
                        .map(|k| (k.label(), s.errors[k.as_index()].get()))
                        .collect(),
                    breaker: s.breaker.stats(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::estimator::CardinalityEstimator;
    use qfe_core::TableId;
    use qfe_estimators::chain::{ChaosEstimator, EstimatorFault};
    use std::sync::Arc;

    struct Constant(f64);
    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "constant".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    struct Slow {
        delay: Duration,
        value: f64,
    }
    impl CardinalityEstimator for Slow {
        fn name(&self) -> String {
            "slow".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            std::thread::sleep(self.delay);
            self.value
        }
    }

    struct Panicky;
    impl CardinalityEstimator for Panicky {
        fn name(&self) -> String {
            "panicky".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            panic!("stage bug")
        }
    }

    fn q() -> Query {
        Query::single_table(TableId(0), vec![])
    }

    fn lenient_breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 1_000_000,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn healthy_primary_answers_with_provenance() {
        let svc = EstimatorService::new(
            vec![Arc::new(Constant(123.0)), Arc::new(Constant(5.0))],
            ServiceConfig::default(),
        );
        let e = svc.estimate(&q()).unwrap();
        assert_eq!((e.value, e.fallback_depth), (123.0, 0));
        assert_eq!(e.estimator, "constant");
        let stats = svc.stats();
        assert_eq!(stats.answered, 1);
        assert_eq!(stats.stages[0].hits, 1);
        assert_eq!(stats.stages[1].hits, 0);
    }

    #[test]
    fn slow_stage_is_abandoned_and_fallback_answers_in_budget() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(Slow {
                    delay: Duration::from_secs(5),
                    value: 99.0,
                }),
                Arc::new(Constant(7.0)),
            ],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        let e = svc
            .estimate_within(&q(), Deadline::within(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(e.value, 7.0);
        assert_eq!(e.fallback_depth, 1);
        assert!(
            t0.elapsed() < Duration::from_millis(200),
            "the 5s stall must not be waited out: {:?}",
            t0.elapsed()
        );
        let stats = svc.stats();
        assert_eq!(stats.stages[0].timeouts, 1);
        assert_eq!(stats.stages[1].hits, 1);
    }

    #[test]
    fn panicking_stage_is_contained() {
        let svc = EstimatorService::new(
            vec![Arc::new(Panicky), Arc::new(Constant(3.0))],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        for _ in 0..5 {
            let e = svc.estimate(&q()).unwrap();
            assert_eq!(e.value, 3.0);
        }
        assert_eq!(svc.stats().stages[0].panics, 5);
    }

    #[test]
    fn breaker_stops_invoking_a_dead_stage_then_recovers_by_probe() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(ChaosEstimator::new(
                    Constant(50.0),
                    vec![EstimatorFault::Error],
                    1.0,
                    1,
                )),
                Arc::new(Constant(9.0)),
            ],
            ServiceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(40),
                    max_cooldown: Duration::from_millis(40),
                },
                ..ServiceConfig::default()
            },
        );
        for _ in 0..10 {
            assert_eq!(svc.estimate(&q()).unwrap().value, 9.0);
        }
        let stats = svc.stats();
        // 3 failures trip the breaker; the remaining 7 requests skip.
        assert_eq!(stats.stages[0].breaker.opened, 1);
        assert_eq!(stats.stages[0].skipped_open, 7);
        // After the cooldown a probe is admitted (and fails again here,
        // re-opening the breaker).
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(svc.estimate(&q()).unwrap().value, 9.0);
        let stats = svc.stats();
        assert_eq!(stats.stages[0].breaker.probes, 1);
        assert_eq!(stats.stages[0].breaker.opened, 2);
    }

    #[test]
    fn zero_budget_is_a_typed_deadline_error() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        let err = svc
            .estimate_within(&q(), Deadline::within(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::DeadlineExceeded {
                stages_tried: 0,
                admitted: true,
                ..
            }
        ));
        assert_eq!(svc.stats().deadline_exceeded, 1);
    }

    #[test]
    fn all_stages_failing_within_budget_lands_on_the_floor() {
        let svc = EstimatorService::new(
            vec![Arc::new(Constant(f64::NAN))],
            ServiceConfig {
                floor: 4.0,
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let e = svc.estimate(&q()).unwrap();
        assert_eq!((e.value, e.fallback_depth), (4.0, 1));
        assert_eq!(e.estimator, "floor");
        let stats = svc.stats();
        assert_eq!(stats.floor_answers, 1);
        assert_eq!(
            stats.stages[0].errors[EstimateErrorKind::NonFinite.as_index()].1,
            1
        );
    }

    #[test]
    fn metrics_snapshot_covers_latency_stages_breakers_and_qerror() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(ChaosEstimator::new(
                    Constant(50.0),
                    vec![EstimatorFault::Error],
                    1.0,
                    1,
                )),
                Arc::new(Constant(9.0)),
            ],
            ServiceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_secs(60),
                    max_cooldown: Duration::from_secs(60),
                },
                ..ServiceConfig::default()
            },
        );
        for _ in 0..10 {
            let e = svc.estimate(&q()).unwrap();
            svc.observe_truth(10.0, e.value).unwrap();
        }
        let m = svc.metrics();
        // End-to-end and per-stage latency histograms are populated.
        let e2e = m.histogram(REQUEST_LATENCY_METRIC).expect("e2e histogram");
        assert_eq!(e2e.count, 10);
        assert!(e2e.sum_nanos > 0, "non-zero end-to-end latency");
        assert_eq!(
            m.histogram("serve.stage1.latency").expect("stage").count,
            10
        );
        // Per-stage counters merged from the service atomics.
        assert_eq!(m.counter("serve.stage0.errors.internal"), 3);
        assert_eq!(m.counter("serve.stage0.skipped_open"), 7);
        assert_eq!(m.counter("serve.stage1.hits"), 10);
        assert_eq!(m.counter("serve.answered"), 10);
        assert_eq!(m.counter("serve.queue.admitted"), 10);
        // Breaker transitions recorded live (no double counting).
        assert_eq!(m.counter("serve.stage0.breaker.opened"), 1);
        // The q-error summary reflects the observed truths: all answers
        // were 9.0 against truth 10.0.
        let qe = m.qerror.as_ref().expect("qerror summary");
        assert!(
            (qe.median - 10.0 / 9.0).abs() < 1e-9,
            "median {}",
            qe.median
        );
        // JSON rendering includes the new names.
        let json = m.to_json();
        assert!(json.contains("\"serve.request.latency\""), "{json}");
        assert!(json.contains("\"qerror\":{"), "{json}");
    }

    #[test]
    fn observe_truth_rejects_garbage_with_typed_errors_and_counts_it() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        assert_eq!(
            svc.observe_truth(f64::NAN, 2.0),
            Err(FeedbackError::NonFiniteTruth)
        );
        assert_eq!(
            svc.observe_truth(f64::INFINITY, 2.0),
            Err(FeedbackError::NonFiniteTruth)
        );
        assert_eq!(
            svc.observe_truth(0.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        assert_eq!(
            svc.observe_truth(-5.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        assert_eq!(
            svc.observe_truth(1e19, 2.0),
            Err(FeedbackError::AbsurdTruth)
        );
        assert_eq!(
            svc.observe_truth(10.0, f64::INFINITY),
            Err(FeedbackError::NonFiniteEstimate)
        );
        assert_eq!(
            svc.observe_truth(10.0, f64::NAN),
            Err(FeedbackError::NonFiniteEstimate)
        );
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 7);
        assert!(m.qerror.is_none(), "nothing garbage reached the window");
        // Boundary values are legitimate and accepted.
        svc.observe_truth(1e18, 2.0).unwrap();
        svc.observe_truth(f64::MIN_POSITIVE, 2.0).unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 7);
        assert_eq!(m.qerror.as_ref().map(|s| s.count), Some(2));
    }

    #[test]
    fn fractional_truth_is_accepted_not_clamped_away() {
        // Truths in (0, 1) — e.g. average cardinalities below one row —
        // are positive and finite: the guard accepts them (no typed
        // rejection, no entry clamping). Only the q-error computation
        // itself treats both sides as >= 1, so 0.5 vs an estimate of 2.0
        // scores q = 2.0, not 4.0.
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        svc.observe_truth(0.5, 2.0).unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 0);
        let qe = m.qerror.as_ref().expect("pair reached the window");
        assert_eq!(qe.count, 1);
        assert!((qe.median - 2.0).abs() < 1e-12, "median {}", qe.median);

        // The open-interval boundaries behave per the guard's contract:
        // exactly 0 is rejected, anything strictly inside (0, 1) lands.
        assert_eq!(
            svc.observe_truth(0.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        svc.observe_truth(0.999_999, 2.0).unwrap();
        svc.observe_truth(1.0 - f64::EPSILON, 2.0).unwrap();
        let m = svc.metrics();
        assert_eq!(m.counter("obs.truth.rejected"), 1);
        assert_eq!(m.qerror.as_ref().map(|s| s.count), Some(3));
    }

    #[test]
    fn observe_labeled_forwards_only_sanitized_pairs_to_the_sink() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Capture(Mutex<Vec<(f64, f64)>>);
        impl FeedbackSink for Capture {
            fn feedback(&self, _query: &Query, truth: f64, estimate: f64) {
                self.0
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((truth, estimate));
            }
        }
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        let sink = Arc::new(Capture::default());
        svc.attach_feedback(Arc::clone(&sink) as Arc<dyn FeedbackSink>);

        svc.observe_labeled(&q(), 10.0, 2.0).unwrap();
        assert_eq!(
            svc.observe_labeled(&q(), 0.0, 2.0),
            Err(FeedbackError::NonPositiveTruth)
        );
        assert_eq!(
            svc.observe_labeled(&q(), f64::NAN, 2.0),
            Err(FeedbackError::NonFiniteTruth)
        );
        svc.observe_labeled(&q(), 20.0, 4.0).unwrap();

        let seen = sink.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(seen, vec![(10.0, 2.0), (20.0, 4.0)]);
        assert_eq!(svc.metrics().counter("obs.truth.rejected"), 2);
    }

    #[test]
    fn unbounded_budget_runs_inline() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(11.0))], ServiceConfig::default());
        let e = svc.estimate_within(&q(), Deadline::unbounded()).unwrap();
        assert_eq!(e.value, 11.0);
    }

    /// Fails rows whose index in the batch call sequence is odd — used
    /// to prove per-row failure routing. Stateless across rows: whether
    /// a row fails depends only on its own query (predicate count).
    struct FailsNonEmpty(f64);
    impl CardinalityEstimator for FailsNonEmpty {
        fn name(&self) -> String {
            "picky".into()
        }
        fn estimate(&self, query: &Query) -> f64 {
            if query.predicates.is_empty() {
                self.0
            } else {
                f64::NAN
            }
        }
    }

    fn q_with_pred() -> Query {
        use qfe_core::predicate::{CmpOp, CompoundPredicate, SimplePredicate};
        use qfe_core::query::ColumnRef;
        Query::single_table(
            TableId(0),
            vec![CompoundPredicate::conjunction(
                ColumnRef::new(TableId(0), qfe_core::ColumnId(0)),
                vec![SimplePredicate::new(CmpOp::Eq, 1)],
            )],
        )
    }

    #[test]
    fn batch_matches_singleton_row_for_row() {
        let mk = || {
            EstimatorService::new(
                vec![
                    Arc::new(FailsNonEmpty(123.0)) as SharedEstimator,
                    Arc::new(Constant(5.0)),
                ],
                ServiceConfig {
                    breaker: lenient_breaker(),
                    ..ServiceConfig::default()
                },
            )
        };
        let singleton = mk();
        let batched = mk();
        let queries = vec![q(), q_with_pred(), q(), q_with_pred()];
        let solo: Vec<_> = queries
            .iter()
            .map(|qq| singleton.estimate(qq).unwrap())
            .collect();
        let batch: Vec<_> = batched
            .estimate_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(solo, batch, "batched answers must match singleton");
        // Mixed routing: empty queries answered at depth 0, the rest fell
        // through to the constant at depth 1.
        assert_eq!(batch[0].fallback_depth, 0);
        assert_eq!(batch[1].fallback_depth, 1);
        // Stage counters agree between the two execution shapes.
        let s1 = singleton.stats();
        let s2 = batched.stats();
        assert_eq!(s1.answered, s2.answered);
        assert_eq!(s1.stages[0].hits, s2.stages[0].hits);
        assert_eq!(s1.stages[1].hits, s2.stages[1].hits);
        // Batched-vs-singleton provenance counters.
        assert_eq!(s1.batched_requests, 0);
        assert_eq!((s2.batch_drains, s2.batched_requests), (1, 4));
        let m = batched.metrics();
        assert_eq!(m.counter("serve.batch.drains"), 1);
        assert_eq!(m.counter("serve.batched_requests"), 4);
        let sizes = m.histogram(BATCH_SIZE_METRIC).expect("batch size hist");
        assert_eq!((sizes.count, sizes.sum_nanos), (1, 4));
        // Amortized per-item latency: one end-to-end entry per row.
        assert_eq!(m.histogram(REQUEST_LATENCY_METRIC).expect("e2e").count, 4);
    }

    #[test]
    fn batch_deadline_expiry_is_reported_per_row() {
        let svc = EstimatorService::new(
            vec![Arc::new(Slow {
                delay: Duration::from_secs(5),
                value: 9.0,
            })],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let queries = vec![q(), q(), q()];
        let out = svc.estimate_batch_within(&queries, Deadline::within(Duration::from_millis(50)));
        assert_eq!(out.len(), 3);
        for r in &out {
            assert!(
                matches!(
                    r,
                    Err(ServeError::DeadlineExceeded {
                        admitted: true,
                        stages_tried: 1,
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.deadline_exceeded, 3);
        assert_eq!(stats.stages[0].timeouts, 3);
        assert_eq!(stats.batched_requests, 3);
    }

    #[test]
    fn batch_floor_and_panic_isolation() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(Panicky) as SharedEstimator,
                Arc::new(Constant(f64::NAN)),
            ],
            ServiceConfig {
                floor: 2.0,
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let queries = vec![q(), q()];
        for r in svc.estimate_batch(&queries) {
            let e = r.unwrap();
            assert_eq!((e.value, e.fallback_depth), (2.0, 2));
            assert_eq!(e.estimator, "floor");
        }
        let stats = svc.stats();
        assert_eq!(stats.floor_answers, 2);
        assert_eq!(stats.stages[0].panics, 2);
        assert_eq!(
            stats.stages[1].errors[EstimateErrorKind::NonFinite.as_index()].1,
            2
        );
    }

    /// Breaks the batch contract: answers no rows at all.
    struct ShortBatch;
    impl CardinalityEstimator for ShortBatch {
        fn name(&self) -> String {
            "short".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            3.0
        }
        fn estimate_batch(
            &self,
            _queries: &[Query],
        ) -> Vec<Result<Estimate, qfe_core::EstimateError>> {
            Vec::new()
        }
    }

    #[test]
    fn short_stage_answer_falls_through_per_row() {
        let svc = EstimatorService::new(
            vec![
                Arc::new(ShortBatch) as SharedEstimator,
                Arc::new(Constant(5.0)),
            ],
            ServiceConfig {
                breaker: lenient_breaker(),
                ..ServiceConfig::default()
            },
        );
        let mut answers: Vec<Estimate> = svc
            .estimate_batch(&[q(), q()])
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        answers.push(svc.estimate(&q()).unwrap());
        for e in &answers {
            assert_eq!((e.value, e.fallback_depth), (5.0, 1), "{e:?}");
        }
        let stats = svc.stats();
        assert_eq!(
            stats.stages[0].errors[EstimateErrorKind::Internal.as_index()].1,
            3
        );
        assert_eq!((stats.stages[1].hits, stats.floor_answers), (3, 0));
    }

    #[test]
    fn empty_batch_is_free() {
        let svc = EstimatorService::new(vec![Arc::new(Constant(2.0))], ServiceConfig::default());
        assert!(svc.estimate_batch(&[]).is_empty());
        let stats = svc.stats();
        assert_eq!((stats.batch_drains, stats.batched_requests), (0, 0));
        assert_eq!(stats.admission.admitted, 0);
    }
}
