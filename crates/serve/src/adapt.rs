//! Closed-loop adaptation: drift detection → budgeted retrain → shadow
//! validation → probationary swap → automatic rollback.
//!
//! The serving stack keeps *answering* under faults (breakers, deadlines,
//! panic isolation); this module keeps it *accurate* under workload
//! drift, which the CardEst benchmark study identifies as the dominant
//! failure mode of learned estimators in production. The
//! [`AdaptController`] closes the loop end to end:
//!
//! ```text
//!            ┌────────────────────────── false alarm ──────────────┐
//!            ▼                                                     │
//!        ┌────────┐  PH trigger   ┌───────────────┐  re-trigger ┌──┴──────────┐
//!        │ Stable │ ────────────▶ │ DriftSuspected│ ───────────▶│ Retraining  │
//!        └────────┘               └───────────────┘             └──────┬──────┘
//!            ▲                                                        │ candidate
//!            │ reject / inconclusive / abort          ┌───────────────▼──┐
//!            ├───────────────────────────────────────┤    Shadowing      │
//!            │                                        └───────────────┬──┘
//!            │ probation passed                                       │ accept (swap)
//!            │                   ┌────────────┐  regression ▶ rollback│
//!            └───────────────────┤ Probation  │◀──────────────────────┘
//!                                └────────────┘
//! ```
//!
//! Every decision is deterministic given the feedback sequence and the
//! injected clock, every transition is counted (`adapt.*` metrics), and
//! nothing in the loop can take serving down: training runs under
//! `catch_unwind` on a wall-clock budget, candidates are validated by
//! the [`ModelSlot`] probe gate before publication, and a swap that
//! regresses q-error during probation is rolled back to the pinned
//! previous generation automatically.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qfe_core::metrics::q_error;
use qfe_core::Query;
use qfe_obs::{Counter, Gauge, PageHinkley, PageHinkleyConfig, Recorder};

use crate::slot::{ModelSlot, SharedEstimator};

/// Monotonic time source; injectable for deterministic tests (same shape
/// as the circuit breaker's clock).
pub type AdaptClock = Arc<dyn Fn() -> Duration + Send + Sync>;

/// Consumer of sanitized ground-truth labels. The service forwards every
/// *accepted* `(query, truth, estimate)` triple here — pairs rejected by
/// the [`crate::error::FeedbackError`] guard never arrive.
pub trait FeedbackSink: Send + Sync {
    /// One sanitized observation: the query, its true cardinality, and
    /// the estimate the service answered with.
    fn feedback(&self, query: &Query, truth: f64, estimate: f64);
}

/// What a retraining attempt must produce: a fresh estimator trained on
/// the supplied `(query, truth)` pairs, polling `should_continue`
/// between units of work and bailing out promptly once it returns
/// `false`. Implemented for closures.
pub trait CandidateTrainer: Send + Sync {
    /// Train a candidate within the budget expressed by `should_continue`.
    fn train(
        &self,
        data: &[(Query, f64)],
        should_continue: &mut dyn FnMut() -> bool,
    ) -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>>;
}

impl<F> CandidateTrainer for F
where
    F: Fn(
            &[(Query, f64)],
            &mut dyn FnMut() -> bool,
        ) -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>>
        + Send
        + Sync,
{
    fn train(
        &self,
        data: &[(Query, f64)],
        should_continue: &mut dyn FnMut() -> bool,
    ) -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
        self(data, should_continue)
    }
}

/// Tuning for an [`AdaptController`]. The defaults favor caution: swaps
/// require statistically meaningful improvement, and every retrain
/// attempt — successful or not — starts a cooldown so a noisy detector
/// cannot thrash the trainer.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Most `(query, truth)` pairs retained for retraining; beyond this
    /// the oldest are shed (counted, never an error).
    pub reservoir_capacity: usize,
    /// Page-Hinkley tuning for the drift detector (fed `ln(q_error)`).
    pub detector: PageHinkleyConfig,
    /// Hysteresis: after a first trigger the controller waits this many
    /// further samples and confirms drift only if the Page-Hinkley
    /// statistic *kept growing* — the signature of a sustained mean
    /// shift. A transient spike stalls the statistic and ages out as a
    /// false alarm.
    pub confirm_window: u64,
    /// Quiet period after every retrain attempt before another may start.
    pub cooldown: Duration,
    /// Wall-clock budget for one training attempt; the trainer's
    /// `should_continue` turns `false` once it is spent.
    pub train_budget: Duration,
    /// Fewest reservoir pairs worth training on (attempts below this
    /// abort).
    pub min_train_samples: usize,
    /// Fraction of the reservoir held out for shadow scoring (clamped to
    /// [0.1, 0.5]; the holdout is never trained on).
    pub holdout_fraction: f64,
    /// Fewest holdout pairs worth shadow-scoring on (attempts below this
    /// abort).
    pub min_holdout: usize,
    /// Sign-test z threshold for the shadow verdict: the candidate must
    /// win `wins - losses > z·√n` paired comparisons to be accepted.
    pub shadow_z: f64,
    /// The candidate's median holdout q-error must also be at most this
    /// fraction of the live model's (e.g. `0.95` = at least 5 % better).
    pub min_improvement: f64,
    /// Post-swap observations collected before the probation verdict.
    pub probation_samples: usize,
    /// Probation fails (→ rollback) when the post-swap median q-error
    /// exceeds the candidate's shadow median times this ratio.
    pub rollback_ratio: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            reservoir_capacity: 4096,
            detector: PageHinkleyConfig::default(),
            confirm_window: 200,
            cooldown: Duration::from_secs(60),
            train_budget: Duration::from_secs(2),
            min_train_samples: 64,
            holdout_fraction: 0.25,
            min_holdout: 16,
            shadow_z: 1.96,
            min_improvement: 0.95,
            probation_samples: 64,
            rollback_ratio: 1.5,
        }
    }
}

/// Where the controller currently is in the adaptation state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptPhase {
    /// No drift evidence; feedback accumulates, detector watches.
    Stable,
    /// One detector trigger seen; awaiting confirmation or false alarm.
    DriftSuspected,
    /// A training attempt is running (visible only while `step` runs on
    /// another thread).
    Retraining,
    /// A candidate is being scored against the live model (ditto).
    Shadowing,
    /// A swap happened; the previous generation is pinned and post-swap
    /// q-error is on trial.
    Probation,
}

impl AdaptPhase {
    fn gauge(self) -> u64 {
        match self {
            AdaptPhase::Stable => 0,
            AdaptPhase::DriftSuspected => 1,
            AdaptPhase::Retraining => 2,
            AdaptPhase::Shadowing => 3,
            AdaptPhase::Probation => 4,
        }
    }

    /// Stable label for logs and stats.
    pub fn label(self) -> &'static str {
        match self {
            AdaptPhase::Stable => "stable",
            AdaptPhase::DriftSuspected => "drift-suspected",
            AdaptPhase::Retraining => "retraining",
            AdaptPhase::Shadowing => "shadowing",
            AdaptPhase::Probation => "probation",
        }
    }
}

/// What one [`AdaptController::step`] call did — the deterministic
/// observable tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub enum StepReport {
    /// Nothing to do (no trigger, probation still collecting, …).
    Idle,
    /// First detector trigger: drift is now suspected.
    Suspected,
    /// The suspicion aged out without re-triggering.
    FalseAlarm,
    /// Drift confirmed but the cooldown from a previous attempt is still
    /// running; the controller stays suspicious and waits.
    CoolingDown,
    /// A retrain attempt started but did not produce a scorable
    /// candidate (too little data, trainer error/interrupt, or panic).
    RetrainAborted {
        /// Whether the abort was a contained trainer panic.
        panicked: bool,
    },
    /// Shadow scoring rejected the candidate; the live model keeps
    /// serving.
    ShadowRejected,
    /// Shadow scoring could not tell the models apart; no swap.
    ShadowInconclusive,
    /// The candidate won and was published; probation begins.
    SwapAccepted {
        /// Slot generation now serving the candidate.
        generation: u64,
    },
    /// Probation completed without regression; the swap is final.
    ProbationPassed,
    /// Post-swap q-error regressed; the pinned previous generation was
    /// re-published.
    RolledBack {
        /// Slot generation now serving the restored model.
        generation: u64,
    },
    /// Probation was abandoned because the slot generation changed under
    /// the controller (an external swap raced the rollback window).
    ProbationAbandoned,
}

/// One coherent snapshot of every adaptation counter, plus the current
/// phase. The conservation invariant
/// `retrain_triggered == shadow_accepted + shadow_rejected +
/// shadow_inconclusive + retrain_aborted`
/// holds at every quiescent point.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptStats {
    /// Current state-machine phase.
    pub phase: AdaptPhase,
    /// Sanitized pairs accepted into the reservoir.
    pub feedback_accepted: u64,
    /// Oldest pairs shed because the reservoir was full.
    pub reservoir_shed: u64,
    /// Pairs currently retained.
    pub reservoir_len: usize,
    /// First-trigger events (Stable → DriftSuspected).
    pub drift_suspected: u64,
    /// Re-triggers that confirmed drift.
    pub drift_confirmed: u64,
    /// Suspicions that aged out without confirmation.
    pub drift_false_alarm: u64,
    /// Retrain attempts started.
    pub retrain_triggered: u64,
    /// Attempts that produced no scorable candidate.
    pub retrain_aborted: u64,
    /// Of the aborted, attempts that ended in a contained panic.
    pub retrain_panicked: u64,
    /// Candidates accepted and published.
    pub shadow_accepted: u64,
    /// Candidates rejected by shadow scoring (or the probe gate).
    pub shadow_rejected: u64,
    /// Shadow comparisons that could not separate the models.
    pub shadow_inconclusive: u64,
    /// Probations that ended in a kept swap.
    pub probation_passed: u64,
    /// Probations that ended in a rollback.
    pub probation_rolled_back: u64,
    /// Probations abandoned because the generation changed externally.
    pub probation_abandoned: u64,
}

#[derive(Default)]
struct Counters {
    feedback_accepted: Counter,
    reservoir_shed: Counter,
    drift_suspected: Counter,
    drift_confirmed: Counter,
    drift_false_alarm: Counter,
    retrain_triggered: Counter,
    retrain_aborted: Counter,
    retrain_panicked: Counter,
    shadow_accepted: Counter,
    shadow_rejected: Counter,
    shadow_inconclusive: Counter,
    probation_passed: Counter,
    probation_rolled_back: Counter,
    probation_abandoned: Counter,
    /// Gauge: the current [`AdaptPhase`] as its numeric code.
    state: Gauge,
    /// Gauge: pairs currently retained in the reservoir.
    reservoir_len: Gauge,
}

/// Extra state carried by [`AdaptPhase::Probation`].
struct ProbationData {
    /// The model that was serving before the swap, re-publishable.
    pinned: SharedEstimator,
    /// Slot generation the swap produced; a mismatch later means an
    /// external swap raced us and rollback must be abandoned.
    generation: u64,
    /// The candidate's shadow median q-error — the promise probation
    /// holds it to.
    baseline_median: f64,
    /// Holdout queries, reused as the rollback probe workload.
    probe: Vec<Query>,
}

enum Phase {
    Stable,
    /// Detector stats snapshotted at the moment of the first trigger;
    /// confirmation compares against them after the confirm window.
    DriftSuspected {
        statistic: f64,
        samples: u64,
    },
    Retraining,
    Shadowing,
    Probation(ProbationData),
}

impl Phase {
    fn kind(&self) -> AdaptPhase {
        match self {
            Phase::Stable => AdaptPhase::Stable,
            Phase::DriftSuspected { .. } => AdaptPhase::DriftSuspected,
            Phase::Retraining => AdaptPhase::Retraining,
            Phase::Shadowing => AdaptPhase::Shadowing,
            Phase::Probation(_) => AdaptPhase::Probation,
        }
    }
}

/// The verdict of one shadow comparison.
enum ShadowVerdict {
    Accept,
    Reject,
    Inconclusive,
}

/// The closed-loop adaptation controller (see the module docs).
///
/// Drive it synchronously with [`step`](AdaptController::step) — the
/// deterministic mode tests use — or hand it to
/// [`spawn_adaptation`] for a background cadence. Feedback arrives via
/// the [`FeedbackSink`] impl, normally wired through
/// [`crate::EstimatorService::attach_adaptation`].
pub struct AdaptController {
    cfg: AdaptConfig,
    slot: Arc<ModelSlot>,
    trainer: Arc<dyn CandidateTrainer>,
    clock: AdaptClock,
    reservoir: Mutex<VecDeque<(Query, f64)>>,
    detector: Mutex<PageHinkley>,
    phase: Mutex<Phase>,
    /// Post-swap q-errors collected while on probation.
    probation_q: Mutex<Vec<f64>>,
    cooldown_until: Mutex<Duration>,
    /// Serializes `step` so a background thread and a manual driver can
    /// coexist without interleaving two retrain attempts.
    step_gate: Mutex<()>,
    counters: Counters,
}

impl AdaptController {
    /// A controller on the real (monotonic) clock, swapping through
    /// `slot`, retraining with `trainer`.
    pub fn new(slot: Arc<ModelSlot>, trainer: Arc<dyn CandidateTrainer>, cfg: AdaptConfig) -> Self {
        let epoch = Instant::now();
        Self::with_clock(slot, trainer, cfg, Arc::new(move || epoch.elapsed()))
    }

    /// Same, on an injected clock returning elapsed time since an
    /// arbitrary fixed epoch — the deterministic-test constructor,
    /// mirroring the circuit breaker's.
    pub fn with_clock(
        slot: Arc<ModelSlot>,
        trainer: Arc<dyn CandidateTrainer>,
        mut cfg: AdaptConfig,
        clock: AdaptClock,
    ) -> Self {
        cfg.reservoir_capacity = cfg.reservoir_capacity.max(1);
        cfg.holdout_fraction = cfg.holdout_fraction.clamp(0.1, 0.5);
        cfg.min_holdout = cfg.min_holdout.max(1);
        cfg.min_train_samples = cfg.min_train_samples.max(2);
        cfg.probation_samples = cfg.probation_samples.max(1);
        cfg.rollback_ratio = cfg.rollback_ratio.max(1.0);
        let detector = PageHinkley::new(cfg.detector.clone());
        AdaptController {
            reservoir: Mutex::new(VecDeque::with_capacity(cfg.reservoir_capacity.min(1024))),
            detector: Mutex::new(detector),
            phase: Mutex::new(Phase::Stable),
            probation_q: Mutex::new(Vec::new()),
            cooldown_until: Mutex::new(Duration::ZERO),
            step_gate: Mutex::new(()),
            counters: Counters::default(),
            cfg,
            slot,
            trainer,
            clock,
        }
    }

    /// Register the adaptation counters and gauges with `recorder` under
    /// `prefix` (`adapt` in production), and the underlying slot's swap
    /// counters under `slot`. These are the values
    /// [`stats`](Self::stats) reads. Called by
    /// [`crate::EstimatorService::attach_adaptation`] with the service's
    /// own recorder so everything lands in one [`qfe_obs::MetricsSnapshot`].
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>, prefix: &str) {
        self.slot.set_recorder(Arc::clone(&recorder), "slot");
        let c = &self.counters;
        for (name, counter) in [
            ("feedback.accepted", &c.feedback_accepted),
            ("reservoir.shed", &c.reservoir_shed),
            ("drift.suspected", &c.drift_suspected),
            ("drift.confirmed", &c.drift_confirmed),
            ("drift.false_alarm", &c.drift_false_alarm),
            ("retrain.triggered", &c.retrain_triggered),
            ("retrain.aborted", &c.retrain_aborted),
            ("retrain.panicked", &c.retrain_panicked),
            ("shadow.accepted", &c.shadow_accepted),
            ("shadow.rejected", &c.shadow_rejected),
            ("shadow.inconclusive", &c.shadow_inconclusive),
            ("probation.passed", &c.probation_passed),
            ("probation.rolled_back", &c.probation_rolled_back),
            ("probation.abandoned", &c.probation_abandoned),
        ] {
            recorder.register_counter(&format!("{prefix}.{name}"), counter);
        }
        recorder.register_gauge(&format!("{prefix}.state"), &c.state);
        recorder.register_gauge(&format!("{prefix}.reservoir.len"), &c.reservoir_len);
    }

    fn set_phase(&self, next: Phase) {
        let kind = next.kind();
        *self.phase.lock().unwrap_or_else(|e| e.into_inner()) = next;
        self.counters.state.set(kind.gauge());
    }

    /// Current state-machine phase.
    pub fn phase(&self) -> AdaptPhase {
        self.phase.lock().unwrap_or_else(|e| e.into_inner()).kind()
    }

    /// `(query, truth)` pairs currently retained for retraining.
    pub fn reservoir_len(&self) -> usize {
        self.reservoir
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// One coherent counter snapshot.
    pub fn stats(&self) -> AdaptStats {
        let c = &self.counters;
        AdaptStats {
            phase: self.phase(),
            feedback_accepted: c.feedback_accepted.get(),
            reservoir_shed: c.reservoir_shed.get(),
            reservoir_len: self.reservoir_len(),
            drift_suspected: c.drift_suspected.get(),
            drift_confirmed: c.drift_confirmed.get(),
            drift_false_alarm: c.drift_false_alarm.get(),
            retrain_triggered: c.retrain_triggered.get(),
            retrain_aborted: c.retrain_aborted.get(),
            retrain_panicked: c.retrain_panicked.get(),
            shadow_accepted: c.shadow_accepted.get(),
            shadow_rejected: c.shadow_rejected.get(),
            shadow_inconclusive: c.shadow_inconclusive.get(),
            probation_passed: c.probation_passed.get(),
            probation_rolled_back: c.probation_rolled_back.get(),
            probation_abandoned: c.probation_abandoned.get(),
        }
    }

    /// Advance the state machine one decision. Synchronous and cheap
    /// unless a retrain actually runs (bounded then by `train_budget`).
    /// Safe to call from any thread at any cadence; calls serialize.
    pub fn step(&self) -> StepReport {
        let _gate = self.step_gate.lock().unwrap_or_else(|e| e.into_inner());
        let now = (self.clock)();
        let phase = self.phase.lock().unwrap_or_else(|e| e.into_inner()).kind();
        match phase {
            AdaptPhase::Probation => self.step_probation(),
            AdaptPhase::Stable => self.step_stable(),
            AdaptPhase::DriftSuspected => self.step_suspected(now),
            // Transient phases are only observable from *other* threads
            // while a step runs; the gate means we can never re-enter
            // them here. Treat defensively as idle.
            AdaptPhase::Retraining | AdaptPhase::Shadowing => StepReport::Idle,
        }
    }

    fn step_stable(&self) -> StepReport {
        let stats = {
            let detector = self.detector.lock().unwrap_or_else(|e| e.into_inner());
            detector.stats()
        };
        if !stats.triggered {
            return StepReport::Idle;
        }
        // Hysteresis: snapshot the statistic and wait. A sustained mean
        // shift keeps the statistic growing past the snapshot; a
        // transient spike stalls it (negative deviations pull the
        // cumulative back down) and is dismissed as a false alarm.
        self.counters.drift_suspected.incr();
        self.set_phase(Phase::DriftSuspected {
            statistic: stats.statistic,
            samples: stats.samples,
        });
        StepReport::Suspected
    }

    fn step_suspected(&self, now: Duration) -> StepReport {
        let (statistic_at_suspect, samples_at_suspect) = {
            let phase = self.phase.lock().unwrap_or_else(|e| e.into_inner());
            match *phase {
                Phase::DriftSuspected { statistic, samples } => (statistic, samples),
                _ => return StepReport::Idle,
            }
        };
        let stats = {
            let detector = self.detector.lock().unwrap_or_else(|e| e.into_inner());
            detector.stats()
        };
        if stats.samples < samples_at_suspect + self.cfg.confirm_window.max(1) {
            return StepReport::Idle;
        }
        if stats.statistic <= statistic_at_suspect {
            // The upward pressure stopped: transient, not drift.
            self.detector
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .reset();
            self.counters.drift_false_alarm.incr();
            self.set_phase(Phase::Stable);
            return StepReport::FalseAlarm;
        }
        let cooldown_until = *self
            .cooldown_until
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if now < cooldown_until {
            // Confirmed, but a previous attempt's quiet period is still
            // running. Stay suspicious; the next step past the cooldown
            // retrains.
            return StepReport::CoolingDown;
        }
        self.counters.drift_confirmed.incr();
        self.retrain(now)
    }

    /// The Retraining → Shadowing → {swap, reject, inconclusive} arc.
    /// Every exit sets the cooldown and resets the detector: whatever
    /// happened, the world changed (or a decision was made on it) and
    /// fresh evidence is required before the next attempt.
    fn retrain(&self, now: Duration) -> StepReport {
        self.set_phase(Phase::Retraining);
        let finish = |report: StepReport, next: Phase| {
            *self
                .cooldown_until
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = now + self.cfg.cooldown;
            self.detector
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .reset();
            self.set_phase(next);
            report
        };
        let abort = |panicked: bool| {
            self.counters.retrain_aborted.incr();
            if panicked {
                self.counters.retrain_panicked.incr();
            }
        };

        let data: Vec<(Query, f64)> = {
            let reservoir = self.reservoir.lock().unwrap_or_else(|e| e.into_inner());
            reservoir.iter().cloned().collect()
        };
        self.counters.retrain_triggered.incr();

        // Deterministic interleaved split: every k-th pair is holdout,
        // the rest train. Interleaving keeps both halves covering the
        // same (possibly drifting) time range.
        let k = (1.0 / self.cfg.holdout_fraction).round().max(2.0) as usize;
        let mut train = Vec::with_capacity(data.len());
        let mut holdout = Vec::new();
        for (i, pair) in data.into_iter().enumerate() {
            if i % k == 0 {
                holdout.push(pair);
            } else {
                train.push(pair);
            }
        }
        if train.len() < self.cfg.min_train_samples || holdout.len() < self.cfg.min_holdout {
            abort(false);
            return finish(
                StepReport::RetrainAborted { panicked: false },
                Phase::Stable,
            );
        }

        // Budgeted, panic-isolated training. The budget closure reads
        // the injected clock, so a stalling trainer (chaos `SlowTrain`)
        // is aborted deterministically in tests and on wall time in
        // production.
        let clock = Arc::clone(&self.clock);
        let deadline = now + self.cfg.train_budget;
        let trainer = Arc::clone(&self.trainer);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut should_continue = || (clock)() < deadline;
            trainer.train(&train, &mut should_continue)
        }));
        let candidate = match outcome {
            Ok(Ok(candidate)) => candidate,
            Ok(Err(_)) => {
                abort(false);
                return finish(
                    StepReport::RetrainAborted { panicked: false },
                    Phase::Stable,
                );
            }
            Err(_) => {
                abort(true);
                return finish(StepReport::RetrainAborted { panicked: true }, Phase::Stable);
            }
        };

        self.set_phase(Phase::Shadowing);
        let live = self.slot.load();
        let (verdict, candidate_median) = self.shadow_score(&live, &candidate, &holdout);
        match verdict {
            ShadowVerdict::Reject => {
                self.counters.shadow_rejected.incr();
                finish(StepReport::ShadowRejected, Phase::Stable)
            }
            ShadowVerdict::Inconclusive => {
                self.counters.shadow_inconclusive.incr();
                finish(StepReport::ShadowInconclusive, Phase::Stable)
            }
            ShadowVerdict::Accept => {
                let probe: Vec<Query> = holdout.iter().map(|(q, _)| q.clone()).collect();
                match self
                    .slot
                    .try_publish(SharedEstimator::clone(&candidate), &probe)
                {
                    Ok(generation) => {
                        self.counters.shadow_accepted.incr();
                        self.probation_q
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .clear();
                        finish(
                            StepReport::SwapAccepted { generation },
                            Phase::Probation(ProbationData {
                                pinned: live,
                                generation,
                                baseline_median: candidate_median,
                                probe,
                            }),
                        )
                    }
                    Err(_) => {
                        // Shadow liked it but the probe gate did not
                        // (e.g. a non-finite answer on a holdout query):
                        // counts as a rejection, live keeps serving.
                        self.counters.shadow_rejected.incr();
                        finish(StepReport::ShadowRejected, Phase::Stable)
                    }
                }
            }
        }
    }

    /// Paired comparison of candidate vs live on the holdout. A panic or
    /// non-finite answer from the candidate on any pair scores as an
    /// immediate loss with infinite q-error (the live model gets the
    /// same treatment, so a broken live model can still be beaten).
    fn shadow_score(
        &self,
        live: &SharedEstimator,
        candidate: &SharedEstimator,
        holdout: &[(Query, f64)],
    ) -> (ShadowVerdict, f64) {
        let score = |est: &SharedEstimator, query: &Query, truth: f64| -> f64 {
            match catch_unwind(AssertUnwindSafe(|| est.estimate(query))) {
                Ok(v) if v.is_finite() => q_error(truth, v),
                _ => f64::INFINITY,
            }
        };
        let mut live_qs = Vec::with_capacity(holdout.len());
        let mut cand_qs = Vec::with_capacity(holdout.len());
        let (mut wins, mut losses) = (0u64, 0u64);
        for (query, truth) in holdout {
            let lq = score(live, query, *truth);
            let cq = score(candidate, query, *truth);
            if cq < lq {
                wins += 1;
            } else if cq > lq {
                losses += 1;
            }
            live_qs.push(lq);
            cand_qs.push(cq);
        }
        let live_median = median(&mut live_qs);
        let cand_median = median(&mut cand_qs);
        let n = (wins + losses) as f64;
        if n == 0.0 {
            return (ShadowVerdict::Inconclusive, cand_median);
        }
        let margin = wins as f64 - losses as f64;
        let threshold = self.cfg.shadow_z * n.sqrt();
        let verdict = if margin > threshold && cand_median <= live_median * self.cfg.min_improvement
        {
            ShadowVerdict::Accept
        } else if margin.abs() <= threshold {
            ShadowVerdict::Inconclusive
        } else {
            ShadowVerdict::Reject
        };
        (verdict, cand_median)
    }

    fn step_probation(&self) -> StepReport {
        let mut qs = {
            let buffer = self.probation_q.lock().unwrap_or_else(|e| e.into_inner());
            if buffer.len() < self.cfg.probation_samples {
                return StepReport::Idle;
            }
            buffer.clone()
        };
        let observed_median = median(&mut qs);
        let data = {
            let mut phase = self.phase.lock().unwrap_or_else(|e| e.into_inner());
            match std::mem::replace(&mut *phase, Phase::Stable) {
                Phase::Probation(data) => data,
                // Raced by a concurrent transition; restore and bail.
                other => {
                    *phase = other;
                    return StepReport::Idle;
                }
            }
        };
        self.counters.state.set(AdaptPhase::Stable.gauge());
        self.detector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .reset();
        if observed_median <= data.baseline_median * self.cfg.rollback_ratio {
            self.counters.probation_passed.incr();
            return StepReport::ProbationPassed;
        }
        // Regressed. Roll back — unless someone else already swapped,
        // in which case rolling back would clobber *their* model.
        if self.slot.generation() != data.generation {
            self.counters.probation_abandoned.incr();
            return StepReport::ProbationAbandoned;
        }
        match self.slot.try_rollback(data.pinned, &data.probe) {
            Ok(generation) => {
                self.counters.probation_rolled_back.incr();
                StepReport::RolledBack { generation }
            }
            Err(_) => {
                // The pinned model no longer passes its own probe; the
                // (regressed but functional) candidate is still the
                // safer thing to serve.
                self.counters.probation_abandoned.incr();
                StepReport::ProbationAbandoned
            }
        }
    }
}

impl FeedbackSink for AdaptController {
    /// Accumulate one sanitized observation: into the reservoir (shed
    /// oldest beyond capacity), into the drift detector (as
    /// `ln(q_error)`, so the Page-Hinkley mean shift is multiplicative
    /// in q-error), and — while on probation — into the post-swap
    /// evidence buffer.
    fn feedback(&self, query: &Query, truth: f64, estimate: f64) {
        let q = q_error(truth, estimate);
        {
            let mut reservoir = self.reservoir.lock().unwrap_or_else(|e| e.into_inner());
            if reservoir.len() == self.cfg.reservoir_capacity {
                reservoir.pop_front();
                self.counters.reservoir_shed.incr();
            }
            reservoir.push_back((query.clone(), truth));
            self.counters.reservoir_len.set(reservoir.len() as u64);
            drop(reservoir);
            self.counters.feedback_accepted.incr();
        }
        self.detector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(q.ln());
        let on_probation = matches!(
            self.phase.lock().unwrap_or_else(|e| e.into_inner()).kind(),
            AdaptPhase::Probation
        );
        if on_probation {
            self.probation_q
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(q);
        }
    }
}

/// Median of `samples` (which is reordered); 0 when empty. Infinite
/// entries are legal and sort last, exactly as intended for "the model
/// broke on this query" sentinels.
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Handle for a background adaptation thread; stops (and joins) on
/// [`stop`](AdaptHandle::stop) or drop.
pub struct AdaptHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl AdaptHandle {
    /// Signal the loop to exit and wait for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for AdaptHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run `controller.step()` every `interval` on a background thread until
/// the returned handle is stopped or dropped. The deterministic tests
/// bypass this and call `step` directly; production wiring uses it so
/// adaptation needs no external driver.
pub fn spawn_adaptation(controller: Arc<AdaptController>, interval: Duration) -> AdaptHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("qfe-adapt".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                controller.step();
                std::thread::sleep(interval);
            }
        })
        .ok();
    AdaptHandle { stop, thread }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::estimator::CardinalityEstimator;
    use qfe_core::TableId;
    use std::sync::atomic::AtomicU64;

    struct Constant(f64);
    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "constant".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    fn q() -> Query {
        Query::single_table(TableId(0), vec![])
    }

    /// An auto-advancing manual clock: every read advances virtual time
    /// by `step_ms`, so budget loops polling the clock always terminate
    /// deterministically without any real sleeping.
    fn auto_clock(step_ms: u64) -> AdaptClock {
        let ticks = AtomicU64::new(0);
        Arc::new(move || {
            let t = ticks.fetch_add(1, Ordering::Relaxed);
            Duration::from_millis(t * step_ms)
        })
    }

    fn small_cfg() -> AdaptConfig {
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

    fn trainer_returning(value: f64) -> Arc<dyn CandidateTrainer> {
        Arc::new(
            move |_data: &[(Query, f64)],
                  _sc: &mut dyn FnMut() -> bool|
                  -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
                Ok(Arc::new(Constant(value)) as SharedEstimator)
            },
        )
    }

    /// Healthy feedback: truth equals the live estimate, q-error 1.
    fn feed_healthy(ctl: &AdaptController, n: usize) {
        let query = q();
        for _ in 0..n {
            let est = ctl.slot.load().estimate(&query);
            ctl.feedback(&query, est.max(1.0), est);
        }
    }

    /// Drifted feedback: the world moved to `truth` while the live model
    /// keeps answering whatever it answers.
    fn feed_truth(ctl: &AdaptController, truth: f64, n: usize) {
        let query = q();
        for _ in 0..n {
            let est = ctl.slot.load().estimate(&query);
            ctl.feedback(&query, truth, est);
        }
    }

    /// Walk the controller from Stable into a confirmed-drift retrain:
    /// healthy baseline, sustained shift to `truth`, suspicion, then the
    /// confirming step. Returns the retrain outcome.
    fn provoke(ctl: &AdaptController, truth: f64) -> StepReport {
        feed_healthy(ctl, 10);
        feed_truth(ctl, truth, 15);
        assert_eq!(ctl.step(), StepReport::Suspected);
        feed_truth(ctl, truth, 15);
        ctl.step()
    }

    #[test]
    fn reservoir_sheds_oldest_beyond_capacity() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let cfg = AdaptConfig {
            reservoir_capacity: 4,
            ..small_cfg()
        };
        let ctl = AdaptController::with_clock(slot, trainer_returning(1.0), cfg, auto_clock(1));
        for truth in 1..=10 {
            ctl.feedback(&q(), truth as f64, 1.0);
        }
        let stats = ctl.stats();
        assert_eq!(stats.reservoir_len, 4);
        assert_eq!(stats.feedback_accepted, 10);
        assert_eq!(stats.reservoir_shed, 6);
        let kept: Vec<f64> = ctl
            .reservoir
            .lock()
            .unwrap()
            .iter()
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(kept, vec![7.0, 8.0, 9.0, 10.0], "oldest shed first");
    }

    #[test]
    fn transient_spike_ages_out_as_a_false_alarm() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(1.0),
            small_cfg(),
            auto_clock(1),
        );
        // A short spike of bad truths trips the latch…
        feed_healthy(&ctl, 10);
        feed_truth(&ctl, 100.0, 3);
        assert_eq!(ctl.step(), StepReport::Suspected);
        assert_eq!(ctl.phase(), AdaptPhase::DriftSuspected);
        // …but the signal recovers, so the statistic stops growing and
        // the suspicion ages out past the confirm window.
        feed_healthy(&ctl, 10);
        assert_eq!(ctl.step(), StepReport::FalseAlarm);
        assert_eq!(ctl.phase(), AdaptPhase::Stable);
        let stats = ctl.stats();
        assert_eq!((stats.drift_suspected, stats.drift_false_alarm), (1, 1));
        assert_eq!(stats.retrain_triggered, 0, "no retrain on a false alarm");
        assert_eq!(slot.generation(), 0, "no swap either");
    }

    #[test]
    fn confirmed_drift_retrains_and_swaps_a_better_candidate() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        // Candidate answers 100 — exactly the truth the drifted stream
        // reports, so shadow scoring must prefer it decisively.
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(100.0),
            small_cfg(),
            auto_clock(1),
        );
        let report = provoke(&ctl, 100.0);
        assert_eq!(report, StepReport::SwapAccepted { generation: 1 });
        assert_eq!(ctl.phase(), AdaptPhase::Probation);
        assert_eq!(slot.load().estimate(&q()), 100.0, "candidate serves");
        let stats = ctl.stats();
        assert_eq!(stats.drift_confirmed, 1);
        assert_eq!(stats.retrain_triggered, 1);
        assert_eq!(stats.shadow_accepted, 1);
    }

    #[test]
    fn worse_candidate_is_rejected_and_live_keeps_serving() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(10.0)) as SharedEstimator));
        // Candidate is *further* from truth 100 than the live model.
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(2.0),
            small_cfg(),
            auto_clock(1),
        );
        assert_eq!(provoke(&ctl, 100.0), StepReport::ShadowRejected);
        assert_eq!(ctl.phase(), AdaptPhase::Stable);
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.load().estimate(&q()), 10.0, "live model untouched");
        assert_eq!(ctl.stats().shadow_rejected, 1);
    }

    #[test]
    fn panicking_trainer_is_contained_and_counted() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let trainer: Arc<dyn CandidateTrainer> = Arc::new(
            |_data: &[(Query, f64)],
             _sc: &mut dyn FnMut() -> bool|
             -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
                panic!("trainer bug")
            },
        );
        crate::install_quiet_panic_hook(vec!["trainer bug".into()]);
        let ctl =
            AdaptController::with_clock(Arc::clone(&slot), trainer, small_cfg(), auto_clock(1));
        assert_eq!(
            provoke(&ctl, 100.0),
            StepReport::RetrainAborted { panicked: true }
        );
        assert_eq!(ctl.phase(), AdaptPhase::Stable, "loop survives the panic");
        assert_eq!(slot.generation(), 0, "no swap from a panicked attempt");
        let stats = ctl.stats();
        assert_eq!((stats.retrain_aborted, stats.retrain_panicked), (1, 1));
    }

    #[test]
    fn stalling_trainer_is_cut_off_by_the_clock_budget() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let polls = Arc::new(AtomicU64::new(0));
        let polls_seen = Arc::clone(&polls);
        // A trainer that never finishes on its own: it spins polling the
        // budget, exactly like the chaos SlowTrain fault.
        let trainer: Arc<dyn CandidateTrainer> = Arc::new(
            move |_data: &[(Query, f64)],
                  sc: &mut dyn FnMut() -> bool|
                  -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
                while sc() {
                    polls_seen.fetch_add(1, Ordering::Relaxed);
                }
                Err("interrupted by budget".into())
            },
        );
        // Auto-advancing clock: each read moves 10ms of virtual time, so
        // the 100ms budget expires after ~10 polls — deterministically,
        // with zero real sleeping.
        let ctl =
            AdaptController::with_clock(Arc::clone(&slot), trainer, small_cfg(), auto_clock(10));
        assert_eq!(
            provoke(&ctl, 100.0),
            StepReport::RetrainAborted { panicked: false }
        );
        assert!(polls.load(Ordering::Relaxed) > 0, "trainer actually ran");
        assert_eq!(slot.generation(), 0);
        assert_eq!(ctl.stats().retrain_aborted, 1);
    }

    #[test]
    fn post_swap_regression_rolls_back_to_the_pinned_generation() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(100.0),
            small_cfg(),
            auto_clock(1),
        );
        assert_eq!(
            provoke(&ctl, 100.0),
            StepReport::SwapAccepted { generation: 1 }
        );
        // Probation: the new model turns out to be terrible against the
        // *actual* post-swap truths (truth moved to 10000).
        feed_truth(&ctl, 10_000.0, 8);
        assert_eq!(ctl.step(), StepReport::RolledBack { generation: 2 });
        assert_eq!(slot.load().estimate(&q()), 1.0, "old model restored");
        assert_eq!(slot.rollback_count(), 1);
        let stats = ctl.stats();
        assert_eq!(stats.probation_rolled_back, 1);
        assert_eq!(stats.phase, AdaptPhase::Stable);
    }

    #[test]
    fn healthy_probation_passes_and_keeps_the_swap() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(100.0),
            small_cfg(),
            auto_clock(1),
        );
        assert_eq!(
            provoke(&ctl, 100.0),
            StepReport::SwapAccepted { generation: 1 }
        );
        // Post-swap truths agree with the new model: probation passes.
        feed_truth(&ctl, 100.0, 8);
        assert_eq!(ctl.step(), StepReport::ProbationPassed);
        assert_eq!(slot.load().estimate(&q()), 100.0, "swap is final");
        assert_eq!(slot.rollback_count(), 0);
        assert_eq!(ctl.stats().probation_passed, 1);
    }

    #[test]
    fn external_swap_racing_the_rollback_abandons_probation() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(100.0),
            small_cfg(),
            auto_clock(1),
        );
        assert_eq!(
            provoke(&ctl, 100.0),
            StepReport::SwapAccepted { generation: 1 }
        );
        // Someone else publishes while we're on probation…
        let probe = vec![q()];
        slot.try_publish(Arc::new(Constant(55.0)) as SharedEstimator, &probe)
            .unwrap();
        // …and the candidate regresses. Rolling back now would clobber
        // the external publication, so the controller must stand down.
        let query = q();
        for _ in 0..8 {
            ctl.feedback(&query, 10_000.0, 55.0);
        }
        assert_eq!(ctl.step(), StepReport::ProbationAbandoned);
        assert_eq!(slot.load().estimate(&query), 55.0, "external model kept");
        assert_eq!(slot.rollback_count(), 0);
        assert_eq!(ctl.stats().probation_abandoned, 1);
    }

    #[test]
    fn counters_conserve_across_mixed_outcomes() {
        // One accepted swap, one rejection, one panic-abort: triggers
        // must equal accepted + rejected + inconclusive + aborted.
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let attempt = Arc::new(AtomicU64::new(0));
        let attempt_seen = Arc::clone(&attempt);
        let trainer: Arc<dyn CandidateTrainer> = Arc::new(
            move |_data: &[(Query, f64)],
                  _sc: &mut dyn FnMut() -> bool|
                  -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
                match attempt_seen.fetch_add(1, Ordering::Relaxed) {
                    0 => Ok(Arc::new(Constant(100.0)) as SharedEstimator),
                    1 => Ok(Arc::new(Constant(2.0)) as SharedEstimator),
                    _ => panic!("trainer bug"),
                }
            },
        );
        crate::install_quiet_panic_hook(vec!["trainer bug".into()]);
        let ctl =
            AdaptController::with_clock(Arc::clone(&slot), trainer, small_cfg(), auto_clock(1));

        // Attempt 1: good candidate, swap, pass probation.
        assert!(matches!(
            provoke(&ctl, 100.0),
            StepReport::SwapAccepted { .. }
        ));
        feed_truth(&ctl, 100.0, 8);
        assert_eq!(ctl.step(), StepReport::ProbationPassed);

        // Attempt 2: the stream drifts again (truth 5000), candidate
        // (2.0) is worse than live (100.0) → rejected.
        assert_eq!(provoke(&ctl, 5_000.0), StepReport::ShadowRejected);

        // Attempt 3: trainer panics.
        assert_eq!(
            provoke(&ctl, 500_000.0),
            StepReport::RetrainAborted { panicked: true }
        );

        let s = ctl.stats();
        assert_eq!(s.retrain_triggered, 3);
        assert_eq!(
            s.retrain_triggered,
            s.shadow_accepted + s.shadow_rejected + s.shadow_inconclusive + s.retrain_aborted,
            "conservation: {s:?}"
        );
    }

    #[test]
    fn too_little_data_aborts_without_calling_the_trainer() {
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let called = Arc::new(AtomicU64::new(0));
        let called_seen = Arc::clone(&called);
        let trainer: Arc<dyn CandidateTrainer> = Arc::new(
            move |_data: &[(Query, f64)],
                  _sc: &mut dyn FnMut() -> bool|
                  -> Result<SharedEstimator, Box<dyn std::error::Error + Send + Sync>> {
                called_seen.fetch_add(1, Ordering::Relaxed);
                Ok(Arc::new(Constant(1.0)) as SharedEstimator)
            },
        );
        let cfg = AdaptConfig {
            min_train_samples: 1_000,
            ..small_cfg()
        };
        let ctl = AdaptController::with_clock(slot, trainer, cfg, auto_clock(1));
        assert_eq!(
            provoke(&ctl, 100.0),
            StepReport::RetrainAborted { panicked: false }
        );
        assert_eq!(called.load(Ordering::Relaxed), 0);
        let s = ctl.stats();
        assert_eq!((s.retrain_triggered, s.retrain_aborted), (1, 1));
    }

    #[test]
    fn adapt_metrics_flow_through_the_recorder() {
        use qfe_obs::MetricsRecorder;
        let slot = Arc::new(ModelSlot::new(Arc::new(Constant(1.0)) as SharedEstimator));
        let ctl = AdaptController::with_clock(
            Arc::clone(&slot),
            trainer_returning(100.0),
            small_cfg(),
            auto_clock(1),
        );
        let rec = Arc::new(MetricsRecorder::new());
        ctl.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, "adapt");
        assert!(matches!(
            provoke(&ctl, 100.0),
            StepReport::SwapAccepted { .. }
        ));
        assert_eq!(rec.counter("adapt.drift.suspected"), 1);
        assert_eq!(rec.counter("adapt.drift.confirmed"), 1);
        assert_eq!(rec.counter("adapt.retrain.triggered"), 1);
        assert_eq!(rec.counter("adapt.shadow.accepted"), 1);
        assert_eq!(rec.counter("adapt.feedback.accepted"), 40);
        assert_eq!(rec.gauge("adapt.state"), AdaptPhase::Probation.gauge());
        assert!(rec.gauge("adapt.reservoir.len") > 0);
        // The slot's own events were wired through the same call.
        assert_eq!(rec.counter("slot.swap.accepted"), 1);
        assert_eq!(rec.gauge("slot.generation"), 1);
    }
}
