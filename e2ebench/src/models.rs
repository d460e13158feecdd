//! Data and model set-up shared by the workloads: the synthetic forest
//! table, GB × QFT training, and the model "twin" the traced run uses to
//! time the GBDT walk on its own.

use qfe_bench::trainers::{make_featurizer, QftKind};
use qfe_core::estimator::CardinalityEstimator;
use qfe_core::featurize::{AttributeSpace, BinnedFeatureMatrix, FeatureBinner, Featurizer};
use qfe_core::{Query, TableId};
use qfe_data::forest::{generate_forest, ForestConfig};
use qfe_data::Database;
use qfe_estimators::labels::LabeledQueries;
use qfe_estimators::LearnedEstimator;
use qfe_ml::gbdt::{Gbdt, GbdtConfig};
use qfe_ml::scaling::LogScaler;
use qfe_ml::train::Regressor;

use crate::common::{time_median_ns, Report};

pub const FOREST: TableId = TableId(0);

/// Rows of the forest table. The table is the benchmark's fixed
/// database; the run seed varies the query workloads over it.
pub const FOREST_ROWS: usize = 5_000;
const FOREST_SEED: u64 = 0xF0_4E57;

/// Per-attribute buckets of the bucketized QFTs.
pub const BUCKETS: usize = 32;

pub fn forest() -> Database {
    generate_forest(&ForestConfig {
        rows: FOREST_ROWS,
        quantitative_only: true,
        seed: FOREST_SEED,
    })
}

/// The GB configuration of every model in the benchmark.
pub fn gb_config(trees: usize) -> GbdtConfig {
    GbdtConfig {
        n_trees: trees,
        min_samples_leaf: 3,
        max_leaves: 64,
        seed: 0,
        ..GbdtConfig::default()
    }
}

pub fn featurizer(db: &Database, qft: QftKind) -> Box<dyn Featurizer + Send + Sync> {
    make_featurizer(
        qft,
        AttributeSpace::for_table(db.catalog(), FOREST),
        BUCKETS,
        true,
    )
}

/// Train a GB × `qft` estimator on the forest table.
pub fn train_learned(
    db: &Database,
    qft: QftKind,
    data: &LabeledQueries,
    trees: usize,
) -> LearnedEstimator {
    let mut est = LearnedEstimator::new(featurizer(db, qft), Box::new(Gbdt::new(gb_config(trees))));
    est.fit(data).expect("benchmark training queries featurize");
    est
}

/// The same model trained again outside the estimator, so the traced
/// run can call the compiled GBDT (`predict_batch_binned`) and its
/// binner directly. Training is deterministic, so the twin is the
/// served model; `check_twin` proves it on the run's queries.
pub struct Twin {
    pub gbdt: Gbdt,
    pub scaler: LogScaler,
}

impl Twin {
    /// Train the twin of `est`, which was trained on `data` with `trees`.
    pub fn train(est: &LearnedEstimator, data: &LabeledQueries, trees: usize) -> Twin {
        let x = est
            .featurize_matrix(&data.queries)
            .expect("training queries featurize");
        let scaler = LogScaler::fit(&data.cardinalities).expect("valid labels");
        let y = scaler.transform_batch(&data.cardinalities);
        let mut gbdt = Gbdt::new(gb_config(trees));
        gbdt.fit(&x, &y);
        Twin { gbdt, scaler }
    }

    pub fn binner(&self) -> &FeatureBinner {
        self.gbdt
            .feature_binner()
            .expect("a trained GB model compiles")
    }

    /// The twin must be the served model: same bits on `sample`.
    pub fn check(&self, est: &LearnedEstimator, sample: &[Query], report: &mut Report) {
        let served = est.estimate_batch(sample);
        let bins = BinnedFeatureMatrix::build(est.featurizer(), self.binner(), sample);
        let preds = self
            .gbdt
            .predict_batch_binned(bins.rows(), bins.as_slice())
            .expect("compiled binned predict");
        let same = served.iter().zip(&preds).all(|(s, &y)| {
            s.as_ref().map(|e| e.value.to_bits()) == Ok(self.scaler.inverse(y).to_bits())
        });
        report.check(
            "twin_is_served_model",
            same && self.gbdt.is_compiled(),
            "the compiled twin reproduces the served answers bit for bit",
        );
    }

    /// The estimator path on `sample` as one batch: `estimate_batch`,
    /// binned featurization, the compiled GBDT walk, and what is left.
    pub fn path_metrics(&self, est: &LearnedEstimator, sample: &[Query], report: &mut Report) {
        let rows = sample.len().max(1) as f64;
        let bins = BinnedFeatureMatrix::build(est.featurizer(), self.binner(), sample);
        let batch_ns = time_median_ns(15, || {
            std::hint::black_box(est.estimate_batch(sample));
        });
        let feat_ns = time_median_ns(15, || {
            std::hint::black_box(BinnedFeatureMatrix::build(
                est.featurizer(),
                self.binner(),
                sample,
            ));
        });
        let walk_ns = time_median_ns(15, || {
            std::hint::black_box(self.gbdt.predict_batch_binned(bins.rows(), bins.as_slice()));
        });
        report.metric("learned.batch_us_per_row", batch_ns / rows / 1e3, "us");
        report.metric(
            "learned.self_us_per_row",
            (batch_ns - feat_ns - walk_ns) / rows / 1e3,
            "us",
        );
        report.metric("featurize.conj_ns_per_row", feat_ns / rows, "ns");
        report.metric("gbdt.walk_ns_per_row", walk_ns / rows, "ns");
    }
}
