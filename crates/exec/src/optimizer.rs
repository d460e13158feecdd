//! Cost-based join-order optimization, parameterized by a cardinality
//! estimator.
//!
//! This is the substrate for the paper's end-to-end experiment (Table 4):
//! the same query is optimized three times — with PostgreSQL-style
//! estimates, with the learned estimator, and with true cardinalities —
//! and the chosen plans are executed to compare runtimes.
//!
//! The optimizer is a textbook dynamic program over connected table
//! subsets (bushy plans allowed) with a hash-join cost model
//! `cost(L ⋈ R) = cost(L) + cost(R) + |L| + |R| + |L ⋈ R|`,
//! where all cardinalities come from the injected
//! [`CardinalityEstimator`]. Its tables are dense vectors indexed by
//! subset bit mask (`2^n` entries for `n` tables): one cardinality and
//! one back-pointer (left side, join) per subset. No plan is built until
//! the end, when the single winning [`JoinPlan`] is assembled from the
//! back-pointers.
//!
//! # Estimation is fallible
//!
//! Every sub-plan cardinality goes through
//! [`CardinalityEstimator::try_estimate`]; a failing estimator aborts the
//! optimization with a typed [`OptimizeError::Estimate`] naming the
//! sub-plan, instead of silently planning on garbage. (An earlier version
//! called `estimate().max(1.0)`, which swallowed every failure into the
//! least informative legal estimate — the plan choice then depended on
//! *which* sub-plans happened to fail.)
//!
//! # Sub-plan estimate caching
//!
//! Estimates are reused in two scopes, following Hyrise's
//! `CardinalityEstimationCache` design:
//!
//! * **per-call** — always on, always sound: the dense per-mask
//!   cardinality table. The dynamic program visits every connected
//!   subset once, so within one `optimize()` call each sub-plan is
//!   estimated exactly once and every later split reads the table.
//! * **cross-call** — opt-in via [`Optimizer::with_cache`]: an
//!   [`EstimateCache`] shared across `optimize()` calls (and threads),
//!   keyed by the sub-plan's canonical
//!   [`QueryFingerprint`](qfe_core::fingerprint::QueryFingerprint),
//!   answers sub-plans seen in earlier queries. Its generation protocol
//!   invalidates everything when the underlying model hot-swaps.
//!
//! With a cache installed, the query is canonicalized once per call and
//! each probe's fingerprint extends a memoized per-mask prefix hash by
//! one table chunk plus its joins
//! ([`CanonicalQuery::subset_fingerprint`]); without one, nothing is
//! canonicalized. On a cache hit the sub-query is never materialized and
//! never featurized; [`OptimizeStats`] reports how often that happened.
//! A miss writes its sub-query into one buffer reused across the call.

use std::collections::HashMap;
use std::sync::Arc;

use qfe_core::error::EstimateError;
use qfe_core::estimator::CardinalityEstimator;
use qfe_core::fingerprint::CanonicalQuery;
use qfe_core::query::JoinPredicate;
use qfe_core::{QfeError, Query, TableId};
use qfe_obs::{NoopRecorder, Recorder};

use crate::cache::{EstimateCache, Probe};

/// Counter bumped once per sub-plan whose estimation failed (the failure
/// also surfaces as [`OptimizeError::Estimate`]; the counter exists so
/// fleet dashboards see optimizer-scope estimate failures without parsing
/// errors).
const ESTIMATE_FAIL: &str = "optimizer.estimate.fail";

/// Gauge set at the end of every `optimize()` call: percentage of sub-plan
/// estimate probes answered by either cache scope, rounded to an integer.
const CACHE_HIT_RATE_PCT: &str = "optimizer.cache.hit_rate_pct";

/// A physical plan: scans joined by binary hash joins.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinPlan {
    /// Scan one table with all its pushed-down predicates.
    Scan(TableId),
    /// Hash join of two sub-plans along `join`.
    Join {
        /// Build side.
        left: Box<JoinPlan>,
        /// Probe side.
        right: Box<JoinPlan>,
        /// The equi-join connecting the sides.
        join: JoinPredicate,
    },
}

impl JoinPlan {
    /// Tables of the plan in left-to-right order.
    pub fn tables(&self) -> Vec<TableId> {
        match self {
            JoinPlan::Scan(t) => vec![*t],
            JoinPlan::Join { left, right, .. } => {
                let mut v = left.tables();
                v.extend(right.tables());
                v
            }
        }
    }

    /// Human-readable plan rendering, e.g. `((t0 ⋈ t1) ⋈ t2)`.
    pub fn render(&self) -> String {
        match self {
            JoinPlan::Scan(t) => format!("t{}", t.0),
            JoinPlan::Join { left, right, .. } => {
                format!("({} ⋈ {})", left.render(), right.render())
            }
        }
    }
}

/// Why [`Optimizer::optimize`] gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The query itself is malformed or unsupported (no tables, too many
    /// tables, disconnected join graph).
    Query(QfeError),
    /// The estimator failed on a sub-plan. The failure is typed and named
    /// after the sub-plan's tables so callers can react per failure class
    /// instead of planning on a silently substituted estimate.
    Estimate {
        /// Tables of the sub-plan whose estimation failed.
        tables: Vec<TableId>,
        /// The estimator's own failure classification.
        error: EstimateError,
    },
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Query(e) => write!(f, "{e}"),
            OptimizeError::Estimate { tables, error } => {
                write!(f, "estimating sub-plan over tables [")?;
                for (i, t) in tables.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "t{}", t.0)?;
                }
                write!(f, "]: {error}")
            }
        }
    }
}

impl std::error::Error for OptimizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptimizeError::Query(e) => Some(e),
            OptimizeError::Estimate { error, .. } => Some(error),
        }
    }
}

impl From<QfeError> for OptimizeError {
    fn from(e: QfeError) -> Self {
        OptimizeError::Query(e)
    }
}

/// Per-call estimation accounting of one [`Optimizer::optimize`] run.
///
/// Conservation law (asserted in tests and by `bench_optimizer`): every
/// sub-plan estimate request is exactly one of a per-call hit, a
/// cross-call hit, or a miss — `probes == call_hits + cross_hits +
/// misses`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Sub-plan estimate requests issued by the dynamic program: one per
    /// connected table subset.
    pub probes: u64,
    /// Probes answered from within this `optimize()` call. Always `0`:
    /// the dense per-mask table is filled once per connected subset and
    /// every later use reads it without a probe. Kept so the
    /// conservation law keeps its shape for readers of these stats.
    pub call_hits: u64,
    /// Probes answered by the shared cross-call [`EstimateCache`].
    pub cross_hits: u64,
    /// Probes that reached the estimator.
    pub misses: u64,
    /// Freshly computed estimates that were produced by a fallback stage
    /// rather than the primary estimator.
    pub fallbacks: u64,
    /// Deepest fallback chain observed among freshly computed estimates.
    pub max_fallback_depth: usize,
}

impl OptimizeStats {
    /// Probes answered without consulting the estimator.
    pub fn hits(&self) -> u64 {
        self.call_hits + self.cross_hits
    }

    /// Fraction of probes answered from either cache scope, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits() as f64 / self.probes as f64
        }
    }
}

/// The optimization result: the best plan and its estimated cost.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// Chosen plan.
    pub plan: JoinPlan,
    /// Estimated total cost under the injected estimator.
    pub cost: f64,
    /// Estimated cardinality of the full join.
    pub estimated_cardinality: f64,
    /// Estimation accounting for this call.
    pub stats: OptimizeStats,
}

/// Dynamic-programming join-order optimizer.
pub struct Optimizer<'a, E: CardinalityEstimator> {
    estimator: &'a E,
    cache: Option<Arc<EstimateCache>>,
    recorder: Arc<dyn Recorder>,
}

/// Everything about one query the sub-plan loop needs, precomputed once
/// per `optimize()` call: per-join / per-predicate membership bits so
/// neither the split loop nor sub-query materialization ever looks a
/// table up, and — only when a cross-call cache is installed — the
/// canonical form whose memoized prefix states make each sub-plan
/// fingerprint one table chunk plus its joins.
struct SubsetCtx<'q> {
    query: &'q Query,
    canon: Option<CanonicalQuery>,
    tables: Vec<TableId>,
    /// `(left bit, right bit)` of each join, parallel to `query.joins`: a
    /// join belongs to `mask` iff both bits are in it, and connects two
    /// disjoint sides iff one bit is on each.
    join_bits: Vec<(u32, u32)>,
    /// Bit of each predicate's table (parallel to `query.predicates`);
    /// `0` for predicates on tables outside the accessed set, which no
    /// sub-query includes (mirroring [`subset_query`]).
    pred_bits: Vec<u32>,
    /// The sub-query of the current miss, rewritten in place by
    /// [`Self::subset_query`] so misses reuse its three vectors.
    sub: Query,
}

impl<'q> SubsetCtx<'q> {
    /// `tables` must be sorted (as [`Query::sub_schema`] returns them);
    /// `fingerprints` canonicalizes the query for cache probes.
    ///
    /// # Errors
    /// [`QfeError::InvalidQuery`] when a join names a table outside
    /// `tables`.
    fn new(query: &'q Query, tables: Vec<TableId>, fingerprints: bool) -> Result<Self, QfeError> {
        let bit = |t: TableId| tables.binary_search(&t).map_or(0u32, |i| 1 << i);
        let join_bits = query
            .joins
            .iter()
            .map(|j| match (bit(j.left.table), bit(j.right.table)) {
                (0, _) | (_, 0) => Err(QfeError::InvalidQuery(
                    "join references table the query does not access".into(),
                )),
                bits => Ok(bits),
            })
            .collect::<Result<_, _>>()?;
        let pred_bits = query
            .predicates
            .iter()
            .map(|cp| bit(cp.column.table))
            .collect();
        Ok(SubsetCtx {
            query,
            canon: fingerprints.then(|| CanonicalQuery::new(query)),
            tables,
            join_bits,
            pred_bits,
            sub: Query {
                tables: Vec::new(),
                joins: Vec::new(),
                predicates: Vec::new(),
            },
        })
    }

    /// Index of the first join with one side in `left` and the other in
    /// `right`.
    fn connecting_join(&self, left: u32, right: u32) -> Option<usize> {
        self.join_bits.iter().position(|&(l, r)| {
            (l & left != 0 && r & right != 0) || (l & right != 0 && r & left != 0)
        })
    }

    /// Materialize the sub-query for `mask` into [`Self::sub`] (only
    /// reached on cache misses — hits never clone a predicate). Its
    /// tables come out sorted, the order local models are keyed by.
    fn subset_query(&mut self, mask: u32) -> &Query {
        let sub = &mut self.sub;
        sub.tables.clear();
        sub.tables.extend(
            self.tables
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t),
        );
        sub.joins.clear();
        sub.joins.extend(
            self.query
                .joins
                .iter()
                .zip(&self.join_bits)
                .filter(|(_, &(l, r))| mask & l != 0 && mask & r != 0)
                .map(|(j, _)| *j),
        );
        sub.predicates.clear();
        sub.predicates.extend(
            self.query
                .predicates
                .iter()
                .zip(&self.pred_bits)
                .filter(|(_, &b)| b != 0 && mask & b != 0)
                .map(|(cp, _)| cp.clone()),
        );
        sub
    }

    /// Build the plan for `mask` by following the back-pointers in `best`.
    fn plan(&self, best: &[Option<Best>], mask: u32) -> JoinPlan {
        match best[mask as usize] {
            Some(Best { left: 0, .. }) => {
                JoinPlan::Scan(self.tables[mask.trailing_zeros() as usize])
            }
            Some(Best { left, join, .. }) => JoinPlan::Join {
                left: Box::new(self.plan(best, left)),
                right: Box::new(self.plan(best, mask ^ left)),
                join: self.query.joins[join],
            },
            None => unreachable!("back-pointers only name planned subsets"),
        }
    }
}

/// The cheapest plan found for one table subset, as a back-pointer: the
/// join of the cheapest plans for `left` and `mask ^ left` along
/// `query.joins[join]`, or a scan when `left` is `0`.
#[derive(Clone, Copy)]
struct Best {
    cost: f64,
    left: u32,
    join: usize,
}

impl<'a, E: CardinalityEstimator> Optimizer<'a, E> {
    /// Create an optimizer using `estimator` for all cardinalities.
    pub fn new(estimator: &'a E) -> Self {
        Optimizer {
            estimator,
            cache: None,
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Share `cache` across `optimize()` calls: sub-plans fingerprint-equal
    /// to ones estimated earlier (by any optimizer holding the same cache)
    /// are answered without consulting the estimator. Only sound while the
    /// estimator does not change underneath the cache — tie the cache to a
    /// generation source ([`EstimateCache::with_generation_source`]) when
    /// it can.
    pub fn with_cache(mut self, cache: Arc<EstimateCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Route optimizer metrics (estimate-failure counter, per-call cache
    /// hit-rate gauge) to `recorder`.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Find the cheapest bushy hash-join plan for `query`.
    ///
    /// Supports up to 20 tables (subset DP); the paper's JOB-light queries
    /// have at most 5.
    ///
    /// # Errors
    /// [`OptimizeError::Query`] for malformed queries (no tables, more
    /// than 20 tables, a join naming a table the query does not access,
    /// disconnected join graph);
    /// [`OptimizeError::Estimate`] when the estimator fails on any
    /// sub-plan — estimation failures abort planning instead of being
    /// silently replaced.
    pub fn optimize(&self, query: &Query) -> Result<OptimizedPlan, OptimizeError> {
        let tables = query.sub_schema().into_tables();
        let n = tables.len();
        if n == 0 {
            return Err(QfeError::InvalidQuery("query accesses no table".into()).into());
        }
        if n > 20 {
            return Err(
                QfeError::UnsupportedQuery("optimizer supports at most 20 tables".into()).into(),
            );
        }
        let mut ctx = SubsetCtx::new(query, tables, self.cache.is_some())?;
        let mut stats = OptimizeStats::default();
        let result = self.optimize_inner(&mut ctx, &mut stats);
        self.recorder.set_gauge(
            CACHE_HIT_RATE_PCT,
            (stats.hit_rate() * 100.0).round() as u64,
        );
        result.map(|(plan, cost, estimated_cardinality)| OptimizedPlan {
            plan,
            cost,
            estimated_cardinality,
            stats,
        })
    }

    /// The dynamic program proper, over dense tables indexed by table
    /// subset mask: each connected subset is estimated exactly once, and
    /// its cheapest plan is kept as a [`Best`] back-pointer; the one
    /// winning [`JoinPlan`] is built at the end.
    fn optimize_inner(
        &self,
        ctx: &mut SubsetCtx<'_>,
        stats: &mut OptimizeStats,
    ) -> Result<(JoinPlan, f64, f64), OptimizeError> {
        let n = ctx.tables.len();
        // Adjacency as table-index bit masks.
        let mut adjacency = vec![0u32; n];
        for &(l, r) in &ctx.join_bits {
            adjacency[l.trailing_zeros() as usize] |= r;
            adjacency[r.trailing_zeros() as usize] |= l;
        }

        // DP over connected subsets.
        let full = (1u32 << n) - 1;
        let mut cards = vec![0.0f64; 1 << n];
        let mut best: Vec<Option<Best>> = vec![None; 1 << n];
        for i in 0..n {
            let mask = 1u32 << i;
            let card = self.subset_estimate(ctx, stats, mask)?;
            cards[mask as usize] = card;
            best[mask as usize] = Some(Best {
                cost: card,
                left: 0,
                join: 0,
            });
        }
        for mask in 1..=full {
            if mask.count_ones() < 2 || !subset_connected(mask, &adjacency) {
                continue;
            }
            let card = self.subset_estimate(ctx, stats, mask)?;
            cards[mask as usize] = card;
            let mut best_here: Option<Best> = None;
            // Enumerate proper sub-splits in descending order of `left`,
            // keeping only those whose left side holds the lowest bit (to
            // halve the enumeration): `left = low | sub` for every proper
            // submask `sub` of the other bits.
            let low = mask & mask.wrapping_neg();
            let rest = mask ^ low;
            let mut sub = rest;
            loop {
                sub = sub.wrapping_sub(1) & rest;
                let left = low | sub;
                let right = mask ^ left;
                if let (Some(lb), Some(rb)) = (best[left as usize], best[right as usize]) {
                    if let Some(join) = ctx.connecting_join(left, right) {
                        let cost =
                            lb.cost + rb.cost + cards[left as usize] + cards[right as usize] + card;
                        if best_here.is_none_or(|b| cost < b.cost) {
                            best_here = Some(Best { cost, left, join });
                        }
                    }
                }
                if sub == 0 {
                    break;
                }
            }
            best[mask as usize] = best_here;
        }

        let cost = best[full as usize].map(|b| b.cost).ok_or_else(|| {
            QfeError::InvalidQuery("join graph does not connect all accessed tables".into())
        })?;
        Ok((ctx.plan(&best, full), cost, cards[full as usize]))
    }

    /// Estimated cardinality of the query restricted to the tables in
    /// `mask`: from the shared cross-call cache when one is installed and
    /// holds it, from the estimator otherwise.
    fn subset_estimate(
        &self,
        ctx: &mut SubsetCtx<'_>,
        stats: &mut OptimizeStats,
        mask: u32,
    ) -> Result<f64, OptimizeError> {
        stats.probes += 1;
        let miss = match (&self.cache, &mut ctx.canon) {
            (Some(cache), Some(canon)) => {
                let fp = canon.subset_fingerprint(mask);
                match cache.probe(fp) {
                    Probe::Hit(est) => {
                        stats.cross_hits += 1;
                        return Ok(est.value);
                    }
                    Probe::Miss(token) => Some((cache, fp, token)),
                }
            }
            _ => None,
        };
        let sub = ctx.subset_query(mask);
        let est = match self.estimator.try_estimate(sub) {
            Ok(est) => est,
            Err(error) => {
                self.recorder.incr(ESTIMATE_FAIL);
                return Err(OptimizeError::Estimate {
                    tables: sub.tables.clone(),
                    error,
                });
            }
        };
        stats.misses += 1;
        if est.fell_back() {
            stats.fallbacks += 1;
            stats.max_fallback_depth = stats.max_fallback_depth.max(est.fallback_depth);
        }
        let value = est.value;
        if let Some((cache, fp, token)) = miss {
            cache.fill(fp, est, token);
        }
        Ok(value)
    }
}

/// The query restricted to the tables selected by `mask`: their joins and
/// predicates only. Membership is decided by bit tests against an index
/// built once — no per-join or per-predicate scan of the table list.
pub fn subset_query(query: &Query, tables: &[TableId], mask: u32) -> Query {
    let index_of: HashMap<TableId, usize> =
        tables.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let in_mask = |t: TableId| index_of.get(&t).is_some_and(|&i| mask >> i & 1 == 1);
    Query {
        joins: query
            .joins
            .iter()
            .filter(|j| in_mask(j.left.table) && in_mask(j.right.table))
            .cloned()
            .collect(),
        predicates: query
            .predicates
            .iter()
            .filter(|cp| in_mask(cp.column.table))
            .cloned()
            .collect(),
        tables: tables
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &t)| t)
            .collect(),
    }
}

fn subset_connected(mask: u32, adjacency: &[u32]) -> bool {
    let start = mask.trailing_zeros() as usize;
    let mut reached = 1u32 << start;
    let mut frontier = reached;
    while frontier != 0 {
        let mut next = 0u32;
        let mut f = frontier;
        while f != 0 {
            let i = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= adjacency[i] & mask & !reached;
        }
        reached |= next;
        frontier = next;
    }
    reached == mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::query::ColumnRef;
    use qfe_core::ColumnId;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Estimator with hardcoded per-sub-schema cardinalities, to force
    /// specific plan choices.
    struct Scripted(HashMap<Vec<TableId>, f64>);

    impl CardinalityEstimator for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn estimate(&self, query: &Query) -> f64 {
            let key = query.sub_schema().tables().to_vec();
            *self.0.get(&key).unwrap_or(&1.0)
        }
    }

    /// Estimator that counts how often the optimizer actually reaches it.
    struct Counting {
        calls: AtomicU64,
    }

    impl Counting {
        fn new() -> Self {
            Counting {
                calls: AtomicU64::new(0),
            }
        }
    }

    impl CardinalityEstimator for Counting {
        fn name(&self) -> String {
            "counting".into()
        }

        fn estimate(&self, _query: &Query) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            10.0
        }
    }

    /// Estimator that fails on sub-schemata listed in its set.
    struct Failing(Vec<Vec<TableId>>);

    impl CardinalityEstimator for Failing {
        fn name(&self) -> String {
            "failing".into()
        }

        fn estimate(&self, query: &Query) -> f64 {
            if self.0.contains(&query.sub_schema().tables().to_vec()) {
                f64::NAN
            } else {
                10.0
            }
        }
    }

    fn chain_query(n: usize) -> Query {
        // t0 — t1 — t2 — … joined on column 0.
        Query {
            tables: (0..n).map(TableId).collect(),
            joins: (1..n)
                .map(|i| JoinPredicate {
                    left: ColumnRef::new(TableId(i - 1), ColumnId(0)),
                    right: ColumnRef::new(TableId(i), ColumnId(0)),
                })
                .collect(),
            predicates: vec![],
        }
    }

    fn t(ids: &[usize]) -> Vec<TableId> {
        ids.iter().map(|&i| TableId(i)).collect()
    }

    #[test]
    fn single_table_plan() {
        let est = Scripted(HashMap::from([(t(&[0]), 50.0)]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(1)).unwrap();
        assert_eq!(plan.plan, JoinPlan::Scan(TableId(0)));
        assert_eq!(plan.estimated_cardinality, 50.0);
        assert_eq!(plan.stats.probes, 1);
        assert_eq!(plan.stats.misses, 1);
    }

    #[test]
    fn two_table_plan() {
        let est = Scripted(HashMap::from([
            (t(&[0]), 10.0),
            (t(&[1]), 20.0),
            (t(&[0, 1]), 5.0),
        ]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(2)).unwrap();
        assert_eq!(plan.plan.tables().len(), 2);
        assert_eq!(plan.estimated_cardinality, 5.0);
        // cost = 10 + 20 (scans) + 10 + 20 (inputs) + 5 (output).
        assert_eq!(plan.cost, 65.0);
    }

    #[test]
    fn optimizer_prefers_selective_first_join() {
        // Chain t0-t1-t2. Joining t1⋈t2 first is much cheaper.
        let est = Scripted(HashMap::from([
            (t(&[0]), 1000.0),
            (t(&[1]), 1000.0),
            (t(&[2]), 1000.0),
            (t(&[0, 1]), 100_000.0),
            (t(&[1, 2]), 10.0),
            (t(&[0, 1, 2]), 50.0),
        ]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(3)).unwrap();
        // The first join executed must be t1 ⋈ t2.
        fn first_join_tables(p: &JoinPlan) -> Vec<TableId> {
            match p {
                JoinPlan::Scan(_) => vec![],
                JoinPlan::Join { left, right, .. } => {
                    let l = first_join_tables(left);
                    if !l.is_empty() {
                        return l;
                    }
                    let r = first_join_tables(right);
                    if !r.is_empty() {
                        return r;
                    }
                    let mut tables = left.tables();
                    tables.extend(right.tables());
                    tables
                }
            }
        }
        let mut first = first_join_tables(&plan.plan);
        first.sort();
        assert_eq!(first, t(&[1, 2]), "plan: {}", plan.plan.render());
    }

    #[test]
    fn misleading_estimates_produce_a_different_plan() {
        // Same query, but the estimator believes t0⋈t1 is tiny: the chosen
        // plan changes — the mechanism behind the paper's Table 4.
        let est = Scripted(HashMap::from([
            (t(&[0]), 1000.0),
            (t(&[1]), 1000.0),
            (t(&[2]), 1000.0),
            (t(&[0, 1]), 1.0),
            (t(&[1, 2]), 500_000.0),
            (t(&[0, 1, 2]), 50.0),
        ]));
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(3)).unwrap();
        assert!(
            plan.plan.render().contains("(t0 ⋈ t1)"),
            "{}",
            plan.plan.render()
        );
    }

    #[test]
    fn cross_product_is_rejected() {
        let est = Scripted(HashMap::new());
        let opt = Optimizer::new(&est);
        let mut q = chain_query(3);
        q.joins.remove(0); // disconnect t0
        let err = opt.optimize(&q).unwrap_err();
        assert!(matches!(err, OptimizeError::Query(_)), "{err}");
    }

    #[test]
    fn join_on_an_unaccessed_table_is_a_query_error() {
        // The stray join comes before the connecting one, so the split
        // loop meets it first.
        let mut q = chain_query(2);
        q.joins.insert(
            0,
            JoinPredicate {
                left: ColumnRef::new(TableId(1), ColumnId(0)),
                right: ColumnRef::new(TableId(9), ColumnId(0)),
            },
        );
        let est = Counting::new();
        let err = Optimizer::new(&est).optimize(&q).unwrap_err();
        assert_eq!(
            err,
            OptimizeError::Query(QfeError::InvalidQuery(
                "join references table the query does not access".into()
            ))
        );
        assert_eq!(est.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn five_table_chain_optimizes() {
        let mut cards = HashMap::new();
        // Any subset estimate defaults to 1.0 via Scripted's fallback.
        cards.insert(t(&[0, 1, 2, 3, 4]), 42.0);
        let est = Scripted(cards);
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(5)).unwrap();
        assert_eq!(plan.plan.tables().len(), 5);
        assert_eq!(plan.estimated_cardinality, 42.0);
    }

    #[test]
    fn estimate_failure_propagates_with_subplan_context() {
        // The estimator fails on the {t1, t2} sub-plan: the optimizer must
        // surface the typed error, not plan around a substituted value.
        let est = Failing(vec![t(&[1, 2])]);
        let opt = Optimizer::new(&est);
        let err = opt.optimize(&chain_query(3)).unwrap_err();
        match err {
            OptimizeError::Estimate { tables, error } => {
                assert_eq!(tables, t(&[1, 2]));
                assert!(
                    matches!(error, EstimateError::NonFinite { .. }),
                    "{error:?}"
                );
            }
            other => panic!("expected Estimate error, got {other:?}"),
        }
    }

    #[test]
    fn estimate_failures_are_counted() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let est = Failing(vec![t(&[0])]);
        let opt = Optimizer::new(&est).with_recorder(recorder.clone());
        assert!(opt.optimize(&chain_query(2)).is_err());
        assert_eq!(recorder.counter(ESTIMATE_FAIL), 1);
    }

    #[test]
    fn stats_conserve_probes() {
        let est = Counting::new();
        let opt = Optimizer::new(&est);
        let plan = opt.optimize(&chain_query(4)).unwrap();
        let s = plan.stats;
        assert_eq!(s.probes, s.call_hits + s.cross_hits + s.misses);
        // No cross-call cache installed.
        assert_eq!(s.cross_hits, 0);
        // Every miss is exactly one estimator call.
        assert_eq!(est.calls.load(Ordering::Relaxed), s.misses);
        // Each connected subset (the 10 runs of a 4-chain) is probed
        // exactly once, so without a cross-call cache every probe misses.
        assert_eq!(s.probes, 10);
        assert_eq!(s.call_hits, 0);
    }

    #[test]
    fn cross_call_cache_answers_repeat_queries() {
        let est = Counting::new();
        let cache = Arc::new(EstimateCache::new());
        let opt = Optimizer::new(&est).with_cache(cache.clone());
        let q = chain_query(3);
        let first = opt.optimize(&q).unwrap();
        let calls_after_first = est.calls.load(Ordering::Relaxed);
        assert!(calls_after_first > 0);
        let second = opt.optimize(&q).unwrap();
        // The second call is answered entirely from the cross-call cache.
        assert_eq!(est.calls.load(Ordering::Relaxed), calls_after_first);
        assert_eq!(second.stats.misses, 0);
        assert_eq!(second.stats.cross_hits, second.stats.probes);
        // And it chose the identical plan at the identical cost.
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.cost, second.cost);
        assert_eq!(first.estimated_cardinality, second.estimated_cardinality);
    }

    #[test]
    fn reordered_predicates_hit_the_cross_call_cache() {
        // Two predicates on the same column in either order: every
        // sub-plan fingerprints identically under both orderings, so the
        // second query is answered from the entries the first one filled.
        use qfe_core::{CmpOp, CompoundPredicate, SimplePredicate};
        let col = ColumnRef::new(TableId(0), ColumnId(1));
        let mut q = chain_query(2);
        q.predicates = vec![
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Ge, 1)]),
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Le, 9)]),
        ];
        let est = Counting::new();
        let cache = Arc::new(EstimateCache::new());
        let opt = Optimizer::new(&est).with_cache(cache.clone());
        opt.optimize(&q).unwrap();

        let mut q2 = chain_query(2);
        q2.predicates = vec![
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Le, 9)]),
            CompoundPredicate::conjunction(col, vec![SimplePredicate::new(CmpOp::Ge, 1)]),
        ];
        let calls_before = est.calls.load(Ordering::Relaxed);
        let plan = opt.optimize(&q2).unwrap();
        // Reordered predicates hit the cache filled by the first query.
        assert_eq!(est.calls.load(Ordering::Relaxed), calls_before);
        assert_eq!(plan.stats.misses, 0);
    }

    #[test]
    fn hit_rate_gauge_is_set_per_call() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let est = Counting::new();
        let cache = Arc::new(EstimateCache::new());
        let opt = Optimizer::new(&est)
            .with_cache(cache)
            .with_recorder(recorder.clone());
        let q = chain_query(3);
        opt.optimize(&q).unwrap();
        assert_eq!(recorder.gauge(CACHE_HIT_RATE_PCT), 0);
        opt.optimize(&q).unwrap();
        assert_eq!(recorder.gauge(CACHE_HIT_RATE_PCT), 100);
    }

    #[test]
    fn subset_query_restricts_everything() {
        let mut q = chain_query(3);
        q.predicates.push(qfe_core::CompoundPredicate::conjunction(
            ColumnRef::new(TableId(2), ColumnId(0)),
            vec![qfe_core::SimplePredicate::new(qfe_core::CmpOp::Eq, 1)],
        ));
        let sub = subset_query(&q, &t(&[0, 1, 2]), 0b011);
        assert_eq!(sub.tables, t(&[0, 1]));
        assert_eq!(sub.joins.len(), 1);
        assert!(sub.predicates.is_empty());
    }

    #[test]
    fn subset_query_ignores_unknown_tables() {
        // Predicates and joins on tables absent from the table list are
        // excluded no matter the mask (same contract as the scan-based
        // implementation this replaced).
        let mut q = chain_query(2);
        q.predicates.push(qfe_core::CompoundPredicate::conjunction(
            ColumnRef::new(TableId(9), ColumnId(0)),
            vec![qfe_core::SimplePredicate::new(qfe_core::CmpOp::Eq, 1)],
        ));
        let sub = subset_query(&q, &t(&[0, 1]), 0b11);
        assert_eq!(sub.tables, t(&[0, 1]));
        assert!(sub.predicates.is_empty());
    }
}
