//! # qfe-core
//!
//! Core library for the EDBT 2023 paper *"Enhanced Featurization of Queries
//! with Mixed Combinations of Predicates for ML-based Cardinality
//! Estimation"* (Müller, Woltmann, Lehner).
//!
//! This crate contains the paper's primary contribution: the **query
//! featurization layer** that turns a SQL-like count query into a numeric
//! feature vector consumable by a machine-learning model, together with the
//! query representation it operates on.
//!
//! The four query featurization techniques (QFTs) of the paper live in
//! [`featurize`]:
//!
//! * [`featurize::SingularPredicateEncoding`] — the established baseline
//!   (`simple` in the paper's plots): one predicate slot per attribute.
//! * [`featurize::RangePredicateEncoding`] — `range`: one normalized closed
//!   range per attribute (Section 3.1).
//! * [`featurize::UniversalConjunctionEncoding`] — `conjunctive`: bucketized
//!   per-attribute domain vectors with entries in {0, ½, 1} plus optional
//!   per-attribute selectivity estimates (Section 3.2, Algorithm 1).
//! * [`featurize::LimitedDisjunctionEncoding`] — `complex`: the first QFT
//!   supporting *mixed* queries, i.e. per-attribute AND/OR combinations
//!   (Section 3.3, Algorithm 2).
//!
//! Queries are modeled after Definition 3.3 of the paper: a **mixed query**
//! is a conjunction of *compound predicates*, where each compound predicate
//! is an arbitrary AND/OR combination of simple predicates over a single
//! attribute. Conjunctive queries are the special case where every compound
//! predicate is a plain conjunction.
//!
//! The crate is deliberately independent of any storage engine or ML model:
//! featurizers only need per-attribute domain metadata (a
//! [`schema::Catalog`]), so the same QFT can be plugged into local neural
//! networks, gradient boosting, or MSCN-style set models (see the `qfe-ml`
//! and `qfe-estimators` crates).

pub mod deadline;
pub mod error;
pub mod estimator;
pub mod featurize;
pub mod fingerprint;
pub mod interval;
pub mod metrics;
pub mod parallel;
pub mod parse;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod value;

pub use deadline::Deadline;
pub use error::{EstimateError, EstimateErrorKind, QfeError};
pub use estimator::{CardinalityEstimator, Estimate, GenerationSource};
pub use fingerprint::{fnv1a_128, CanonicalQuery, QueryFingerprint};
pub use metrics::{q_error, ErrorSummary, SummaryError};
pub use parallel::ThreadPool;
pub use parse::{parse_single_table_query, parse_where};
pub use predicate::{CmpOp, CompoundPredicate, PredicateExpr, SimplePredicate};
pub use query::{ColumnRef, JoinPredicate, Query, SubSchema};
pub use schema::{AttributeDomain, Catalog, ColumnId, ColumnMeta, TableId, TableMeta};
pub use value::Value;
