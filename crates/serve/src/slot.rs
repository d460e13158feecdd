//! Validated hot model replacement.
//!
//! Retraining happens out-of-band (drift detection, scheduled refresh);
//! the serving path must pick up the new model without a restart — and
//! must *never* pick up a bad one. [`ModelSlot`] is the publication
//! point: a candidate estimator is admitted only after it passes
//! validation on a probe workload (every estimate finite and `>= 1`,
//! no panic), and the switch itself is an atomic `Arc` swap — a request
//! that loaded the old model keeps it alive until the request finishes,
//! so there is no instant at which a half-published model serves.
//!
//! For serialized GBDT models there is a second gate *before* the probe:
//! [`decode_validated`] round-trips the bytes through the checksummed
//! (FNV-1a) format from `qfe-ml`, so a truncated or bit-flipped artifact
//! from a crashed trainer is rejected as [`SwapError::Corrupt`] without
//! ever being constructed.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

use qfe_core::error::EstimateError;
use qfe_core::estimator::{CardinalityEstimator, Estimate};
use qfe_core::Query;
use qfe_ml::gbdt::Gbdt;
use qfe_ml::matrix::Matrix;
use qfe_ml::serialize::{gbdt_from_bytes, DecodeError};
use qfe_ml::train::Regressor;
use qfe_obs::{Counter, Gauge, Recorder};

/// Why a candidate model was refused publication.
#[derive(Debug, PartialEq)]
pub enum SwapError {
    /// The serialized artifact failed the checksum / structural decode.
    Corrupt(DecodeError),
    /// The candidate mis-answered the probe workload: a typed error, a
    /// non-finite / out-of-protocol value, or a panic on the named query.
    ProbeFailed {
        /// Index into the probe workload of the first failing query.
        query_index: usize,
        /// What the candidate did wrong on that query.
        error: EstimateError,
    },
    /// An empty probe set validates nothing; publication without
    /// validation is exactly the bug this type exists to prevent.
    EmptyProbe,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Corrupt(e) => write!(f, "candidate model rejected: {e}"),
            SwapError::ProbeFailed { query_index, error } => {
                write!(f, "candidate failed probe query {query_index}: {error}")
            }
            SwapError::EmptyProbe => write!(f, "refusing to publish without a probe workload"),
        }
    }
}

impl std::error::Error for SwapError {}

/// Decode a serialized GBDT and validate it on a probe feature matrix —
/// the full acceptance gate for a model artifact produced elsewhere.
/// Checksum first (any corruption is [`SwapError::Corrupt`]), then finite
/// predictions on the probe ([`SwapError::ProbeFailed`]).
///
/// Decoding rebuilds the compiled inference form (flattened node arrays
/// and quantization table — see `qfe_ml::compiled`) from the enum trees,
/// so a model restored on warm restart serves at compiled speed from its
/// first query; the snapshot format itself carries no compiled state.
pub fn decode_validated(bytes: &[u8], probe: &Matrix) -> Result<Gbdt, SwapError> {
    let model = gbdt_from_bytes(bytes).map_err(SwapError::Corrupt)?;
    debug_assert!(
        model.is_compiled(),
        "decoded GBDT must carry its compiled inference form"
    );
    model
        .validate_probe(probe)
        .map_err(|e| SwapError::ProbeFailed {
            query_index: match e {
                qfe_ml::train::TrainError::NonFinitePrediction { index } => index,
                _ => 0,
            },
            error: EstimateError::Internal {
                estimator: "gbdt-candidate".into(),
                message: e.to_string(),
            },
        })?;
    Ok(model)
}

/// The estimator handle the serving layer passes around: shared,
/// thread-safe, and type-erased.
pub type SharedEstimator = Arc<dyn CardinalityEstimator + Send + Sync>;

/// Durability hook invoked after every successful publication (initial
/// attach excluded): the just-published model and its slot generation.
///
/// Implementations must be non-blocking and infallible from the slot's
/// point of view — the in-memory swap has already happened and stands
/// whatever the persister does. [`crate::persist::AsyncCheckpointer`]
/// implements this by snapshotting the model and handing the bytes to a
/// background writer; the call itself is additionally panic-isolated, so
/// a buggy persister can never take publication down.
pub trait ModelPersister: Send + Sync {
    /// Persist (or schedule persistence of) `model`, published as slot
    /// generation `slot_generation`.
    fn persist(&self, model: &SharedEstimator, slot_generation: u64);
}

/// An atomically swappable estimator slot (see the module docs).
///
/// The slot itself implements [`CardinalityEstimator`], so it drops into
/// a fallback chain or an [`crate::EstimatorService`] stage list like any
/// other estimator; every call estimates against the model that was
/// current when the call started.
pub struct ModelSlot {
    current: RwLock<SharedEstimator>,
    generation: Gauge,
    published: Counter,
    rejected: Counter,
    rolled_back: Counter,
    persister: RwLock<Option<Arc<dyn ModelPersister>>>,
}

impl ModelSlot {
    /// A slot serving `initial`.
    pub fn new(initial: SharedEstimator) -> Self {
        ModelSlot {
            current: RwLock::new(initial),
            generation: Gauge::new(),
            published: Counter::new(),
            rejected: Counter::new(),
            rolled_back: Counter::new(),
            persister: RwLock::new(None),
        }
    }

    /// Attach the durability hook called after each successful
    /// publication (one persister; a second attach replaces the first).
    /// Persistence is strictly after-the-fact: publication has already
    /// committed in memory when the hook runs, and a failing or
    /// panicking persister changes nothing about what serves.
    pub fn set_persister(&self, persister: Arc<dyn ModelPersister>) {
        match self.persister.write() {
            Ok(mut g) => *g = Some(persister),
            Err(poisoned) => *poisoned.into_inner() = Some(persister),
        }
    }

    /// Register the slot's lifecycle counters with `recorder` under
    /// `prefix`: `{prefix}.swap.accepted`, `{prefix}.swap.rejected`,
    /// `{prefix}.swap.rolled_back` (counters) and `{prefix}.generation`
    /// (gauge). These are the values [`swap_counts`](Self::swap_counts),
    /// [`rollback_count`](Self::rollback_count) and
    /// [`generation`](Self::generation) read.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>, prefix: &str) {
        for (name, counter) in [
            ("swap.accepted", &self.published),
            ("swap.rejected", &self.rejected),
            ("swap.rolled_back", &self.rolled_back),
        ] {
            recorder.register_counter(&format!("{prefix}.{name}"), counter);
        }
        recorder.register_gauge(&format!("{prefix}.generation"), &self.generation);
    }

    fn read(&self) -> SharedEstimator {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// The currently published model. The returned `Arc` pins it: a
    /// request keeps estimating against the model it loaded even if a
    /// swap lands mid-request.
    pub fn load(&self) -> SharedEstimator {
        self.read()
    }

    /// Monotone publication counter; bumps on every successful swap.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// `(published, rejected)` swap attempts so far. Publications made by
    /// [`try_rollback`](ModelSlot::try_rollback) count in `published`.
    pub fn swap_counts(&self) -> (u64, u64) {
        (self.published.get(), self.rejected.get())
    }

    /// Publications that were rollbacks to a previously pinned model.
    pub fn rollback_count(&self) -> u64 {
        self.rolled_back.get()
    }

    /// Validate `candidate` on `probe` and, if it passes, publish it
    /// atomically. On failure the slot keeps serving the current model.
    ///
    /// Validation requires every probe query to produce a finite estimate
    /// `>= 1`, without error and without panicking. Returns the new
    /// generation on success.
    pub fn try_publish(
        &self,
        candidate: SharedEstimator,
        probe: &[Query],
    ) -> Result<u64, SwapError> {
        match Self::validate(&candidate, probe) {
            Ok(()) => {
                let published = SharedEstimator::clone(&candidate);
                match self.current.write() {
                    Ok(mut g) => *g = candidate,
                    Err(poisoned) => *poisoned.into_inner() = candidate,
                }
                self.published.incr();
                let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
                let persister = {
                    let guard = match self.persister.read() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.as_ref().map(Arc::clone)
                };
                if let Some(p) = persister {
                    // The swap is already committed; a persister panic is
                    // contained and cannot undo or block it.
                    let _ = catch_unwind(AssertUnwindSafe(|| p.persist(&published, generation)));
                }
                Ok(generation)
            }
            Err(e) => {
                self.rejected.incr();
                Err(e)
            }
        }
    }

    /// Re-publish a previously pinned model — the rollback half of the
    /// probation protocol. The pinned model goes through the *same* probe
    /// gate as any candidate (a model that was healthy a generation ago
    /// is not automatically healthy now), and the publication bumps the
    /// generation forward: rollback is a new generation serving an old
    /// model, never a rewind of the counter. Counted separately in
    /// [`rollback_count`](ModelSlot::rollback_count) and the
    /// `{prefix}.swap.rolled_back` metric.
    pub fn try_rollback(&self, pinned: SharedEstimator, probe: &[Query]) -> Result<u64, SwapError> {
        let generation = self.try_publish(pinned, probe)?;
        self.rolled_back.incr();
        Ok(generation)
    }

    fn validate(candidate: &SharedEstimator, probe: &[Query]) -> Result<(), SwapError> {
        if probe.is_empty() {
            return Err(SwapError::EmptyProbe);
        }
        for (query_index, q) in probe.iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| candidate.try_estimate(q)));
            match outcome {
                Ok(Ok(est)) if est.value.is_finite() && est.value >= 1.0 => {}
                Ok(Ok(est)) => {
                    return Err(SwapError::ProbeFailed {
                        query_index,
                        error: EstimateError::NonFinite {
                            estimator: candidate.name(),
                            value: est.value,
                        },
                    })
                }
                Ok(Err(error)) => return Err(SwapError::ProbeFailed { query_index, error }),
                Err(_) => {
                    return Err(SwapError::ProbeFailed {
                        query_index,
                        error: EstimateError::Internal {
                            estimator: candidate.name(),
                            message: "candidate panicked during probe validation".into(),
                        },
                    })
                }
            }
        }
        Ok(())
    }
}

/// The slot is the canonical generation producer for cross-call estimate
/// caches: every accepted hot swap bumps the generation, so a cache
/// keyed on it (`qfe-exec`'s `EstimateCache`) drops all estimates the
/// previous model produced — the invalidation half of the adaptation
/// loop's atomic-swap contract.
impl qfe_core::estimator::GenerationSource for ModelSlot {
    fn generation(&self) -> u64 {
        ModelSlot::generation(self)
    }
}

impl CardinalityEstimator for ModelSlot {
    fn name(&self) -> String {
        format!("slot({})", self.read().name())
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.read().estimate(query)
    }

    fn try_estimate(&self, query: &Query) -> Result<Estimate, EstimateError> {
        self.read().try_estimate(query)
    }

    /// A single `read()` pins one published generation for the whole
    /// batch: a hot swap landing mid-batch cannot split the batch across
    /// two models.
    fn estimate_batch(&self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        self.read().estimate_batch(queries)
    }

    fn memory_bytes(&self) -> usize {
        self.read().memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::TableId;
    use qfe_ml::gbdt::GbdtConfig;
    use qfe_ml::serialize::gbdt_to_bytes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Constant(f64);
    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "constant".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    struct Panicky;
    impl CardinalityEstimator for Panicky {
        fn name(&self) -> String {
            "panicky".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            panic!("bad model")
        }
    }

    fn probe() -> Vec<Query> {
        (0..4)
            .map(|_| Query::single_table(TableId(0), vec![]))
            .collect()
    }

    #[test]
    fn publishes_a_valid_candidate_and_bumps_generation() {
        let slot = ModelSlot::new(Arc::new(Constant(10.0)));
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.estimate(&probe()[0]), 10.0);
        let g = slot
            .try_publish(Arc::new(Constant(20.0)), &probe())
            .unwrap();
        assert_eq!(g, 1);
        assert_eq!(slot.estimate(&probe()[0]), 20.0);
        assert_eq!(slot.swap_counts(), (1, 0));
    }

    #[test]
    fn rejects_nan_sub_one_panicking_and_unvalidated_candidates() {
        let slot = ModelSlot::new(Arc::new(Constant(10.0)));
        let nan = slot.try_publish(Arc::new(Constant(f64::NAN)), &probe());
        assert!(matches!(nan, Err(SwapError::ProbeFailed { .. })), "{nan:?}");
        let low = slot.try_publish(Arc::new(Constant(0.5)), &probe());
        assert!(matches!(low, Err(SwapError::ProbeFailed { .. })), "{low:?}");
        let panicky = slot.try_publish(Arc::new(Panicky), &probe());
        assert!(
            matches!(panicky, Err(SwapError::ProbeFailed { query_index: 0, .. })),
            "{panicky:?}"
        );
        let empty = slot.try_publish(Arc::new(Constant(5.0)), &[]);
        assert_eq!(empty, Err(SwapError::EmptyProbe));
        // Every rejection left the old model serving.
        assert_eq!(slot.estimate(&probe()[0]), 10.0);
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.swap_counts(), (0, 4));
    }

    #[test]
    fn loaded_model_is_pinned_across_a_swap() {
        let slot = ModelSlot::new(Arc::new(Constant(10.0)));
        let pinned = slot.load();
        slot.try_publish(Arc::new(Constant(20.0)), &probe())
            .unwrap();
        assert_eq!(pinned.estimate(&probe()[0]), 10.0, "old Arc still alive");
        assert_eq!(slot.estimate(&probe()[0]), 20.0, "slot serves the new one");
    }

    #[test]
    fn rollback_republishes_the_pinned_model_as_a_new_generation() {
        let slot = ModelSlot::new(Arc::new(Constant(10.0)));
        let pinned = slot.load();
        slot.try_publish(Arc::new(Constant(20.0)), &probe())
            .unwrap();
        let g = slot.try_rollback(pinned, &probe()).unwrap();
        assert_eq!(g, 2, "rollback moves the generation forward, never back");
        assert_eq!(slot.estimate(&probe()[0]), 10.0, "old model serves again");
        assert_eq!(slot.rollback_count(), 1);
        assert_eq!(slot.swap_counts(), (2, 0), "rollback is also a publication");
        // A rollback to a now-broken model is refused like any candidate.
        let bad = slot.try_rollback(Arc::new(Panicky), &probe());
        assert!(matches!(bad, Err(SwapError::ProbeFailed { .. })), "{bad:?}");
        assert_eq!(slot.rollback_count(), 1);
        assert_eq!(slot.estimate(&probe()[0]), 10.0);
    }

    #[test]
    fn recorder_sees_swap_lifecycle_events() {
        use qfe_obs::MetricsRecorder;
        let slot = ModelSlot::new(Arc::new(Constant(10.0)));
        let rec = Arc::new(MetricsRecorder::new());
        slot.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, "slot");
        assert_eq!(rec.gauge("slot.generation"), 0, "gauge primed on attach");

        let pinned = slot.load();
        slot.try_publish(Arc::new(Constant(20.0)), &probe())
            .unwrap();
        let _ = slot.try_publish(Arc::new(Constant(f64::NAN)), &probe());
        slot.try_rollback(pinned, &probe()).unwrap();

        assert_eq!(rec.counter("slot.swap.accepted"), 2);
        assert_eq!(rec.counter("slot.swap.rejected"), 1);
        assert_eq!(rec.counter("slot.swap.rolled_back"), 1);
        assert_eq!(rec.gauge("slot.generation"), 2);
    }

    #[test]
    fn decode_validated_accepts_round_trip_and_rejects_bit_flips() {
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f32>> = (0..64).map(|_| vec![rng.gen::<f32>()]).collect();
        let y: Vec<f32> = rows.iter().map(|r| r[0] * 2.0 + 1.0).collect();
        let x = Matrix::from_rows(&rows);
        let mut gb = Gbdt::new(GbdtConfig {
            n_trees: 5,
            ..GbdtConfig::default()
        });
        gb.try_fit(&x, &y).unwrap();
        let bytes = gbdt_to_bytes(&gb);

        let ok = decode_validated(&bytes, &x).unwrap();
        assert_eq!(ok.predict_batch(&x), gb.predict_batch(&x));
        // The decode path must hand back a model that is already in its
        // compiled form — warm restarts serve at compiled speed.
        assert!(ok.is_compiled());

        // Flip one payload bit: the checksum gate must reject it.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            decode_validated(&corrupt, &x),
            Err(SwapError::Corrupt(DecodeError::ChecksumMismatch))
        ));
        // Truncation is also a typed rejection.
        assert!(matches!(
            decode_validated(&bytes[..bytes.len() - 3], &x),
            Err(SwapError::Corrupt(_))
        ));
    }
}
