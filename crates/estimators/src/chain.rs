//! Fault-tolerant estimator composition: the fallback chain and the
//! deterministic fault-injection wrapper used to test it.
//!
//! A production optimizer cannot tolerate an estimator that panics or
//! emits NaN — a single bad estimate poisons the plan search. The
//! [`FallbackChain`] makes the degradation path explicit: stages are
//! tried in order (typically learned model → histogram baseline →
//! sampling → constant floor), the first stage that produces a valid
//! estimate wins, and every estimate carries provenance
//! ([`Estimate::fallback_depth`] + the producing stage's name). The chain
//! itself upholds the hard guarantee: **always `Ok`, always finite,
//! always `>= 1`, never a panic** — even when a stage violates its own
//! contract, because the chain re-validates every stage output instead of
//! trusting it.
//!
//! Per-stage hit counters and per-[`EstimateErrorKind`] failure counters
//! make degradation observable: a deployment where the learned stage
//! silently answers 2 % of queries with the histogram baseline is a
//! drifted model, and the counters are how you notice.
//!
//! [`ChaosEstimator`] is the adversary: a wrapper that deterministically
//! (seeded, replayable) makes its inner estimator fail in each of the
//! ways a real estimator can — typed errors, NaN outputs, and
//! contract-violating garbage values. The `fault_injection` integration
//! test drives a chain of chaos-wrapped stages over generated workloads
//! to check the guarantee holds under any failure combination.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qfe_core::error::{EstimateError, EstimateErrorKind};
use qfe_core::estimator::{CardinalityEstimator, Estimate};
use qfe_core::Query;
use qfe_obs::{Counter, Recorder};

/// One consistent snapshot of a [`FallbackChain`]'s counters.
///
/// Tests and dashboards should read counters through this instead of
/// stitching together individual relaxed atomic loads: a single snapshot
/// keeps related numbers (stage hits, floor hits, fallback count, error
/// buckets) from being sampled at different points of a concurrent run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStats {
    /// Estimates produced per real stage, in chain order.
    pub stage_hits: Vec<u64>,
    /// Estimates answered by the implicit constant floor.
    pub floor_hits: u64,
    /// Estimates that required at least one fallback (any answer not
    /// produced by stage 0, floor included).
    pub fallback_count: u64,
    /// Stage failures bucketed by [`EstimateErrorKind`] label, in
    /// [`EstimateErrorKind::ALL`] order.
    pub error_counts: Vec<(&'static str, u64)>,
}

impl ChainStats {
    /// The count recorded for one error-kind label (0 if absent).
    pub fn errors_of(&self, label: &str) -> u64 {
        self.error_counts
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Total failures across all error kinds.
    pub fn total_errors(&self) -> u64 {
        self.error_counts.iter().map(|(_, n)| n).sum()
    }

    /// Total answers produced (stages + floor).
    pub fn total_hits(&self) -> u64 {
        self.stage_hits.iter().sum::<u64>() + self.floor_hits
    }
}

/// Recorder plus the precomputed names of the recorder-only metrics
/// (per-stage attempt counters and latency histograms), so the per-call
/// recording path never formats or allocates.
struct ChainMetrics {
    recorder: Arc<dyn Recorder>,
    /// `(attempts, latency)` metric names, one pair per stage.
    stages: Vec<(String, String)>,
}

/// Composes estimators into an ordered fallback sequence with an implicit
/// constant floor (see the module docs).
pub struct FallbackChain<'a> {
    stages: Vec<Box<dyn CardinalityEstimator + 'a>>,
    floor: f64,
    /// Hits per stage, plus one trailing slot for the floor.
    stage_hits: Vec<Counter>,
    /// Failures per stage, bucketed by [`EstimateErrorKind::as_index`].
    stage_errors: Vec<[Counter; EstimateErrorKind::COUNT]>,
    metrics: Option<ChainMetrics>,
}

impl<'a> FallbackChain<'a> {
    /// Build a chain over `stages`, tried in order. The implicit final
    /// stage is a constant floor of `1.0` (the most conservative legal
    /// estimate), so the chain as a whole is total.
    pub fn new(stages: Vec<Box<dyn CardinalityEstimator + 'a>>) -> Self {
        let n = stages.len();
        FallbackChain {
            stages,
            floor: 1.0,
            stage_hits: (0..=n).map(|_| Counter::new()).collect(),
            stage_errors: (0..n).map(|_| Default::default()).collect(),
            metrics: None,
        }
    }

    /// Register the per-stage hit and error counters with `recorder` as
    /// `<prefix>.stage<i>.{hits,errors.<kind>}` plus `<prefix>.floor.hits`
    /// — the counters [`ChainStats`] reads — and additionally publish a
    /// per-stage attempt counter and latency histogram under
    /// `<prefix>.stage<i>.{attempts,latency}`. All names are built here;
    /// the per-call recording path never allocates.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>, prefix: &str) -> Self {
        for (i, (hits, errors)) in self.stage_hits.iter().zip(&self.stage_errors).enumerate() {
            recorder.register_counter(&format!("{prefix}.stage{i}.hits"), hits);
            for kind in EstimateErrorKind::ALL {
                recorder.register_counter(
                    &format!("{prefix}.stage{i}.errors.{}", kind.label()),
                    &errors[kind.as_index()],
                );
            }
        }
        if let Some(floor) = self.stage_hits.last() {
            recorder.register_counter(&format!("{prefix}.floor.hits"), floor);
        }
        let stages = (0..self.stages.len())
            .map(|i| {
                (
                    format!("{prefix}.stage{i}.attempts"),
                    format!("{prefix}.stage{i}.latency"),
                )
            })
            .collect();
        self.metrics = Some(ChainMetrics { recorder, stages });
        self
    }

    /// Replace the constant floor (clamped to `>= 1` to keep the chain's
    /// output contract intact).
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = if floor.is_finite() {
            floor.max(1.0)
        } else {
            1.0
        };
        self
    }

    /// Number of estimator stages (excluding the implicit floor).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// One snapshot of every chain counter — stage hits, floor hits,
    /// fallback count, and per-kind error buckets. Under concurrency it
    /// yields one coherent view instead of counters sampled at different
    /// times.
    pub fn stage_stats(&self) -> ChainStats {
        let all: Vec<u64> = self.stage_hits.iter().map(Counter::get).collect();
        let (stage_hits, floor) = all.split_at(self.stages.len());
        ChainStats {
            stage_hits: stage_hits.to_vec(),
            floor_hits: floor[0],
            fallback_count: all[1..].iter().sum(),
            error_counts: EstimateErrorKind::ALL
                .iter()
                .map(|k| {
                    let per_stage = self.stage_errors.iter().map(|e| e[k.as_index()].get());
                    (k.label(), per_stage.sum())
                })
                .collect(),
        }
    }

    /// The stage walk behind both entry points (see
    /// [`estimate_batch`](CardinalityEstimator::estimate_batch)). Returns
    /// each row's stage answer, `None` when no stage answered it.
    fn walk(&self, queries: &[Query]) -> Vec<Option<Estimate>> {
        let mut answers: Vec<Option<Estimate>> = vec![None; queries.len()];
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        for (depth, stage) in self.stages.iter().enumerate() {
            if pending.is_empty() {
                break;
            }
            let names = self
                .metrics
                .as_ref()
                .map(|m| (&m.recorder, &m.stages[depth]));
            if let Some((recorder, (attempts, _))) = names {
                recorder.add(attempts, pending.len() as u64);
            }
            // `pending` is an ascending subset of the rows, so equal
            // length means every row is still pending.
            let rows = if pending.len() == queries.len() {
                Cow::Borrowed(queries)
            } else {
                Cow::Owned(pending.iter().map(|&i| queries[i].clone()).collect())
            };
            let started = Instant::now();
            let mut outcomes = stage.estimate_batch(&rows).into_iter();
            if let Some((recorder, (_, latency))) = names {
                let amortized = started.elapsed() / pending.len() as u32;
                for _ in &pending {
                    recorder.record(latency, amortized);
                }
            }
            let mut still_pending = Vec::with_capacity(pending.len());
            for &i in &pending {
                let kind = match outcomes.next() {
                    // Defense in depth: an `Ok` is only trusted after
                    // re-validation — a buggy (or chaos-injected) stage
                    // may hand back NaN wrapped in `Ok`.
                    Some(Ok(est)) if est.value.is_finite() && est.value >= 1.0 => {
                        self.stage_hits[depth].incr();
                        // Provenance names the *stage* as this chain sees
                        // it (e.g. `chaos(postgres)`), not whatever label
                        // the stage put on its own answer — the chain's
                        // observability story is about its own stages.
                        answers[i] = Some(Estimate {
                            value: est.value,
                            estimator: stage.name(),
                            fallback_depth: depth,
                        });
                        continue;
                    }
                    Some(Ok(_)) => EstimateErrorKind::NonFinite,
                    Some(Err(e)) => e.kind(),
                    // The stage returned fewer outcomes than it was
                    // given: each missing row is one failure and stays
                    // pending for the next stage.
                    None => EstimateErrorKind::Internal,
                };
                self.stage_errors[depth][kind.as_index()].incr();
                still_pending.push(i);
            }
            pending = still_pending;
        }
        answers
    }

    /// One query, walked as a batch of one.
    fn estimate_one(&self, query: &Query) -> Estimate {
        let mut answers = self.walk(std::slice::from_ref(query));
        self.settle(answers.pop().flatten())
    }

    /// A row's final estimate: its stage answer, else the floor.
    fn settle(&self, answer: Option<Estimate>) -> Estimate {
        answer.unwrap_or_else(|| {
            let depth = self.stages.len();
            self.stage_hits[depth].incr();
            Estimate {
                value: self.floor,
                estimator: "floor".into(),
                fallback_depth: depth,
            }
        })
    }
}

impl CardinalityEstimator for FallbackChain<'_> {
    fn name(&self) -> String {
        let mut parts: Vec<String> = self.stages.iter().map(|s| s.name()).collect();
        parts.push("floor".into());
        format!("fallback({})", parts.join(" → "))
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_one(query).value
    }

    /// Never returns `Err`: the constant floor answers when every real
    /// stage has failed. The `Result` signature is kept so the chain
    /// composes as a stage of an outer chain.
    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        Ok(self.estimate_one(query))
    }

    /// Batched chain traversal: each stage sees **one**
    /// [`estimate_batch`](CardinalityEstimator::estimate_batch) call
    /// covering every query still unanswered at its depth, so a
    /// batch-aware first stage (the learned estimator) amortizes its
    /// featurize-and-forward across the whole batch while only the
    /// per-row failures are routed down the fallback stages. A row
    /// answered at depth `d` bumps the same stage-hit and error buckets
    /// as under [`try_estimate`](CardinalityEstimator::try_estimate).
    /// Per-stage latency is recorded amortized (call elapsed ÷ rows
    /// attempted, once per row), so histogram counts match attempts
    /// while the sum reflects wall time.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        self.walk(queries)
            .into_iter()
            .map(|answer| Ok(self.settle(answer)))
            .collect()
    }

    fn memory_bytes(&self) -> usize {
        self.stages.iter().map(|s| s.memory_bytes()).sum()
    }
}

/// The failure modes [`ChaosEstimator`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorFault {
    /// `try_estimate` returns a typed [`EstimateError::Internal`].
    Error,
    /// The estimator "succeeds" with a NaN value — a contract violation
    /// that downstream consumers must catch.
    Nan,
    /// The estimator "succeeds" with finite garbage below the legal
    /// minimum (negative cardinality).
    Garbage,
    /// The call sleeps for the wrapper's configured latency
    /// ([`ChaosEstimator::with_latency`]) and then answers correctly — an
    /// inference-latency spike, the fault deadlines and breakers exist
    /// for. Which calls stall is seeded and replayable like every other
    /// fault; the stall duration itself is fixed, not random, so timeout
    /// assertions stay deterministic.
    Latency,
    /// The call panics — the fault `catch_unwind` isolation exists for.
    /// The panic payload is [`ChaosEstimator::PANIC_MSG`], so test panic
    /// hooks can tell injected panics from real assertion failures.
    Panic,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic fault-injection wrapper around any estimator.
///
/// Each call fails independently with probability `rate`; whether call
/// `n` fails — and with which of the configured faults — is a pure
/// function of `(seed, n)`, so any failing test case replays exactly.
pub struct ChaosEstimator<E> {
    inner: E,
    faults: Vec<EstimatorFault>,
    rate: f64,
    seed: u64,
    latency: Duration,
    calls: AtomicU64,
}

impl<E: CardinalityEstimator> ChaosEstimator<E> {
    /// Panic payload of [`EstimatorFault::Panic`].
    pub const PANIC_MSG: &'static str = "chaos: injected estimator panic";

    /// Wrap `inner`, injecting one of `faults` (chosen deterministically
    /// per call) with probability `rate` per call. An empty `faults` list
    /// disables injection.
    pub fn new(inner: E, faults: Vec<EstimatorFault>, rate: f64, seed: u64) -> Self {
        ChaosEstimator {
            inner,
            faults,
            rate: rate.clamp(0.0, 1.0),
            seed,
            latency: Duration::from_millis(25),
            calls: AtomicU64::new(0),
        }
    }

    /// Set the stall duration injected by [`EstimatorFault::Latency`]
    /// (default 25 ms).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The fault for the next call, if one fires.
    fn next_fault(&self) -> Option<EstimatorFault> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.faults.is_empty() {
            return None;
        }
        let h = splitmix64(self.seed ^ call.wrapping_mul(0x85EB_CA6B));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit < self.rate {
            Some(self.faults[(splitmix64(h) % self.faults.len() as u64) as usize])
        } else {
            None
        }
    }
}

impl<E: CardinalityEstimator> CardinalityEstimator for ChaosEstimator<E> {
    fn name(&self) -> String {
        format!("chaos({})", self.inner.name())
    }

    fn estimate(&self, query: &Query) -> f64 {
        match self.next_fault() {
            None => self.inner.estimate(query),
            Some(EstimatorFault::Error) | Some(EstimatorFault::Nan) => f64::NAN,
            Some(EstimatorFault::Garbage) => -1e9,
            Some(EstimatorFault::Latency) => {
                std::thread::sleep(self.latency);
                self.inner.estimate(query)
            }
            Some(EstimatorFault::Panic) => panic!("{}", Self::PANIC_MSG),
        }
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        match self.next_fault() {
            None => self.inner.try_estimate(query),
            Some(EstimatorFault::Error) => Err(EstimateError::Internal {
                estimator: self.name(),
                message: "injected fault".into(),
            }),
            // Nan and Garbage deliberately violate the Ok contract — this
            // is what a buggy estimator looks like from the outside, and
            // exactly what the chain's re-validation must absorb.
            Some(EstimatorFault::Nan) => Ok(Estimate::primary(f64::NAN, self.name())),
            Some(EstimatorFault::Garbage) => Ok(Estimate::primary(-1e9, self.name())),
            // A stall, then a *correct* answer: slow is its own failure
            // mode, distinct from wrong.
            Some(EstimatorFault::Latency) => {
                std::thread::sleep(self.latency);
                self.inner.try_estimate(query)
            }
            Some(EstimatorFault::Panic) => panic!("{}", Self::PANIC_MSG),
        }
    }

    /// Identical to the trait default, pinned here on purpose: faults
    /// are drawn **per row in row order**, so a batch of `n` fails
    /// exactly the calls that `n` singleton calls would have failed.
    /// Replayability of seeded test cases depends on this — do not
    /// "optimize" it into one draw per batch.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        queries.iter().map(|q| self.try_estimate(q)).collect()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::TableId;

    struct Constant(f64);

    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "constant".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.0
        }
    }

    fn q() -> Query {
        Query::single_table(TableId(0), vec![])
    }

    #[test]
    fn first_valid_stage_wins() {
        let chain = FallbackChain::new(vec![Box::new(Constant(100.0)), Box::new(Constant(5.0))]);
        let e = chain.try_estimate(&q()).unwrap();
        assert_eq!(e.value, 100.0);
        assert_eq!(e.fallback_depth, 0);
        assert!(!e.fell_back());
        let stats = chain.stage_stats();
        assert_eq!(stats.stage_hits, vec![1, 0]);
        assert_eq!(stats.floor_hits, 0);
        assert_eq!(stats.fallback_count, 0);
        assert_eq!(stats.total_hits(), 1);
    }

    #[test]
    fn invalid_primary_falls_through_with_provenance() {
        let chain = FallbackChain::new(vec![
            Box::new(Constant(f64::NAN)),
            Box::new(Constant(0.0)), // < 1: also invalid
            Box::new(Constant(7.0)),
        ]);
        let e = chain.try_estimate(&q()).unwrap();
        assert_eq!(e.value, 7.0);
        assert_eq!(e.estimator, "constant");
        assert_eq!(e.fallback_depth, 2);
        assert!(e.fell_back());
        let stats = chain.stage_stats();
        assert_eq!(stats.stage_hits, vec![0, 0, 1]);
        assert_eq!(stats.floor_hits, 0);
        assert_eq!(stats.fallback_count, 1);
        assert_eq!(stats.errors_of("non-finite"), 2);
        assert_eq!(stats.total_errors(), 2);
    }

    #[test]
    fn floor_answers_when_everything_fails() {
        let chain = FallbackChain::new(vec![Box::new(Constant(f64::NAN))]).with_floor(3.0);
        let e = chain.try_estimate(&q()).unwrap();
        assert_eq!(e.value, 3.0);
        assert_eq!(e.estimator, "floor");
        assert_eq!(e.fallback_depth, 1);
        assert_eq!(chain.estimate(&q()), 3.0);
        let stats = chain.stage_stats();
        assert_eq!(stats.stage_hits, vec![0]);
        assert_eq!(stats.floor_hits, 2);
        assert_eq!(stats.fallback_count, 2);
        // An empty chain is just the floor.
        let empty = FallbackChain::new(vec![]);
        assert_eq!(empty.try_estimate(&q()).unwrap().value, 1.0);
        assert_eq!(empty.stage_stats().floor_hits, 1);
    }

    #[test]
    fn floor_is_clamped_to_legal_range() {
        let chain = FallbackChain::new(vec![]).with_floor(0.25);
        assert_eq!(chain.try_estimate(&q()).unwrap().value, 1.0);
        let chain = FallbackChain::new(vec![]).with_floor(f64::NAN);
        assert_eq!(chain.try_estimate(&q()).unwrap().value, 1.0);
    }

    #[test]
    fn name_spells_out_the_chain() {
        let chain = FallbackChain::new(vec![Box::new(Constant(2.0))]);
        assert_eq!(chain.name(), "fallback(constant → floor)");
    }

    #[test]
    fn recorder_sees_per_stage_attempts_hits_errors_and_latency() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let chain = FallbackChain::new(vec![Box::new(Constant(f64::NAN)), Box::new(Constant(9.0))])
            .with_recorder(recorder.clone(), "chain");
        for _ in 0..4 {
            assert_eq!(chain.try_estimate(&q()).unwrap().value, 9.0);
        }
        assert_eq!(recorder.counter("chain.stage0.attempts"), 4);
        assert_eq!(recorder.counter("chain.stage0.hits"), 0);
        assert_eq!(recorder.counter("chain.stage0.errors.non-finite"), 4);
        assert_eq!(recorder.counter("chain.stage1.attempts"), 4);
        assert_eq!(recorder.counter("chain.stage1.hits"), 4);
        assert_eq!(recorder.counter("chain.floor.hits"), 0);
        let snap = recorder.snapshot();
        let h = snap
            .histogram("chain.stage1.latency")
            .expect("latency histogram");
        assert_eq!(h.count, 4);
    }

    #[test]
    fn recorder_counts_the_floor() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let chain = FallbackChain::new(vec![Box::new(Constant(f64::NAN))])
            .with_recorder(recorder.clone(), "c");
        let _ = chain.try_estimate(&q()).unwrap();
        assert_eq!(recorder.counter("c.floor.hits"), 1);
    }

    #[test]
    fn chaos_zero_rate_is_transparent() {
        let chaos = ChaosEstimator::new(Constant(42.0), vec![EstimatorFault::Nan], 0.0, 1);
        for _ in 0..50 {
            assert_eq!(chaos.try_estimate(&q()).unwrap().value, 42.0);
        }
    }

    #[test]
    fn chaos_full_rate_always_faults() {
        let chaos = ChaosEstimator::new(Constant(42.0), vec![EstimatorFault::Error], 1.0, 1);
        for _ in 0..20 {
            let err = chaos.try_estimate(&q()).unwrap_err();
            assert_eq!(err.kind(), EstimateErrorKind::Internal);
        }
    }

    #[test]
    fn chaos_is_deterministic_in_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let chaos = ChaosEstimator::new(
                Constant(42.0),
                vec![EstimatorFault::Error, EstimatorFault::Nan],
                0.5,
                seed,
            );
            (0..64).map(|_| chaos.try_estimate(&q()).is_err()).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn chain_over_chaos_upholds_the_guarantee() {
        let chain = FallbackChain::new(vec![
            Box::new(ChaosEstimator::new(
                Constant(50.0),
                vec![
                    EstimatorFault::Error,
                    EstimatorFault::Nan,
                    EstimatorFault::Garbage,
                ],
                0.9,
                13,
            )),
            Box::new(Constant(5.0)),
        ]);
        for _ in 0..200 {
            let e = chain.try_estimate(&q()).unwrap();
            assert!(e.value.is_finite() && e.value >= 1.0, "{e:?}");
        }
        let stats = chain.stage_stats();
        assert!(
            stats.stage_hits[0] > 0,
            "chaos stage sometimes answers: {stats:?}"
        );
        assert!(
            stats.stage_hits[1] > 0,
            "fallback sometimes fires: {stats:?}"
        );
        assert_eq!(stats.floor_hits, 0, "floor never needed: {stats:?}");
        assert_eq!(stats.total_hits(), 200);
    }

    #[test]
    fn latency_fault_stalls_then_answers_correctly() {
        let chaos = ChaosEstimator::new(Constant(42.0), vec![EstimatorFault::Latency], 1.0, 1)
            .with_latency(Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        let e = chaos.try_estimate(&q()).unwrap();
        assert_eq!(e.value, 42.0, "latency fault must not corrupt the value");
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "the injected stall must be observable"
        );
        // Seeded like every other fault: a rate-0.5 wrapper stalls the
        // same calls on every run.
        let stalls = |seed: u64| -> Vec<bool> {
            let c = ChaosEstimator::new(Constant(1.0), vec![EstimatorFault::Latency], 0.5, seed)
                .with_latency(Duration::ZERO);
            (0..32).map(|_| c.next_fault().is_some()).collect()
        };
        assert_eq!(stalls(3), stalls(3));
        assert_ne!(stalls(3), stalls(4));
    }

    /// Counts how many `estimate_batch` calls reach it, to prove the
    /// chain batches a stage instead of looping `try_estimate`.
    struct CountingStage {
        value: f64,
        batch_calls: Arc<AtomicU64>,
    }

    impl CardinalityEstimator for CountingStage {
        fn name(&self) -> String {
            "counting".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.value
        }

        fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            queries.iter().map(|q| self.try_estimate(q)).collect()
        }
    }

    #[test]
    fn batched_chain_matches_singleton_results_and_counters() {
        let faults = vec![
            EstimatorFault::Error,
            EstimatorFault::Nan,
            EstimatorFault::Garbage,
        ];
        let make = || {
            FallbackChain::new(vec![
                Box::new(ChaosEstimator::new(Constant(50.0), faults.clone(), 0.5, 21))
                    as Box<dyn CardinalityEstimator>,
                Box::new(ChaosEstimator::new(Constant(5.0), faults.clone(), 0.4, 9)),
            ])
        };
        let singleton = make();
        let batched = make();
        let queries: Vec<Query> = (0..64).map(|_| q()).collect();
        let solo: Vec<Estimate> = queries
            .iter()
            .map(|qq| singleton.try_estimate(qq).unwrap())
            .collect();
        let batch: Vec<Estimate> = batched
            .estimate_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        // Same answers, same provenance, same depth — and the same
        // counter state afterwards: per-row fault draws keep the two
        // execution shapes replay-identical.
        assert_eq!(solo, batch);
        assert_eq!(singleton.stage_stats(), batched.stage_stats());
        assert!(
            batched.stage_stats().floor_hits > 0,
            "fault rates chosen so some rows reach the floor: {:?}",
            batched.stage_stats()
        );
    }

    #[test]
    fn chain_batches_each_stage_once() {
        let batch_calls = Arc::new(AtomicU64::new(0));
        let chain = FallbackChain::new(vec![
            Box::new(Constant(f64::NAN)) as Box<dyn CardinalityEstimator>,
            Box::new(CountingStage {
                value: 9.0,
                batch_calls: batch_calls.clone(),
            }),
        ]);
        let queries: Vec<Query> = (0..16).map(|_| q()).collect();
        let out = chain.estimate_batch(&queries);
        assert_eq!(out.len(), 16);
        for r in &out {
            assert_eq!(r.as_ref().unwrap().value, 9.0);
            assert_eq!(r.as_ref().unwrap().fallback_depth, 1);
        }
        // Stage 1 saw the 16 stage-0 failures as ONE batched call.
        assert_eq!(batch_calls.load(Ordering::Relaxed), 1);
        let stats = chain.stage_stats();
        assert_eq!(stats.stage_hits, vec![0, 16]);
        assert_eq!(stats.errors_of("non-finite"), 16);
    }

    #[test]
    fn batched_chain_records_stage_metrics_like_singleton() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let chain = FallbackChain::new(vec![Box::new(Constant(f64::NAN)), Box::new(Constant(9.0))])
            .with_recorder(recorder.clone(), "chain");
        let queries: Vec<Query> = (0..4).map(|_| q()).collect();
        for r in chain.estimate_batch(&queries) {
            assert_eq!(r.unwrap().value, 9.0);
        }
        assert_eq!(recorder.counter("chain.stage0.attempts"), 4);
        assert_eq!(recorder.counter("chain.stage0.errors.non-finite"), 4);
        assert_eq!(recorder.counter("chain.stage1.attempts"), 4);
        assert_eq!(recorder.counter("chain.stage1.hits"), 4);
        assert_eq!(recorder.counter("chain.floor.hits"), 0);
        // Amortized per-row recording keeps histogram counts aligned
        // with attempts, exactly as in the singleton path.
        let snap = recorder.snapshot();
        let h = snap
            .histogram("chain.stage1.latency")
            .expect("latency histogram");
        assert_eq!(h.count, 4);
    }

    /// Breaks the batch contract: answers no rows at all.
    struct ShortBatch;

    impl CardinalityEstimator for ShortBatch {
        fn name(&self) -> String {
            "short".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            3.0
        }

        fn estimate_batch(&self, _queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
            Vec::new()
        }
    }

    #[test]
    fn short_stage_answer_falls_through_per_row() {
        let chain = FallbackChain::new(vec![
            Box::new(ShortBatch) as Box<dyn CardinalityEstimator>,
            Box::new(Constant(5.0)),
        ]);
        let mut answers: Vec<Estimate> = chain
            .estimate_batch(&[q(), q()])
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        answers.push(chain.try_estimate(&q()).unwrap());
        for e in &answers {
            assert_eq!((e.value, e.fallback_depth), (5.0, 1), "{e:?}");
        }
        let stats = chain.stage_stats();
        assert_eq!(stats.errors_of("internal"), 3);
        assert_eq!(
            (stats.stage_hits.clone(), stats.floor_hits),
            (vec![0, 3], 0)
        );
    }

    #[test]
    fn empty_batch_through_the_chain_is_empty() {
        let chain = FallbackChain::new(vec![Box::new(Constant(2.0))]);
        assert!(chain.estimate_batch(&[]).is_empty());
        assert_eq!(chain.stage_stats().total_hits(), 0);
    }

    #[test]
    fn panic_fault_panics_with_the_documented_payload() {
        let chaos = ChaosEstimator::new(Constant(1.0), vec![EstimatorFault::Panic], 1.0, 1);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.try_estimate(&q())))
                .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, ChaosEstimator::<Constant>::PANIC_MSG);
    }
}
