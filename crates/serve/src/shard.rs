//! Sharded multi-tenant serving: a fleet of [`EstimatorService`]s
//! behind one registry.
//!
//! One `EstimatorService` serves one model stack well, but "millions of
//! users" means many schemas and many tenants, each wanting its own
//! fallback chain, breakers, model slot, and admission bounds. This
//! module provides:
//!
//! - [`ShardKey`] — a 128-bit routing key derived from a tenant name or
//!   a query's sub-schema (hashed with `qfe-core`'s [`fnv1a_128`]), so
//!   equal tenants/schemas always route identically;
//! - [`Shard`] — one tenant's service plus its [`MicroBatcher`] and a
//!   per-shard admission *quota* (in-flight cap) in front of the
//!   service's own queue, so a hot tenant sheds at its own gate instead
//!   of starving the fleet. Quota decisions are conserved:
//!   `routed == admitted + quota_shed`, always;
//! - [`ShardRegistry`] — registration, eviction, and consistent
//!   routing. Exact key matches win; otherwise rendezvous
//!   (highest-random-weight) hashing picks an owner, so evicting one
//!   shard only remaps the keys that shard owned;
//! - fleet observability — [`ShardRegistry::metrics`] folds every
//!   shard's snapshot into one [`MetricsSnapshot`] under
//!   `shard.<name>.` prefixes, next to fleet-level `registry.*`
//!   counters.
//!
//! Shard lifecycle reuses the durability layer: a shard can be built
//! cold from stages, or warm-restarted from its *own* namespace in a
//! checkpoint store directory (one subdirectory per shard, so tenants
//! never read each other's checkpoints).

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

use qfe_core::{fnv1a_128, Deadline, Estimate, Query, SubSchema};
use qfe_obs::{Counter, Gauge, MetricsRecorder, MetricsSnapshot, Recorder};
use qfe_store::{Checkpoint, CheckpointStore, StoreConfig, StoreFs};

use crate::batch::MicroBatcher;
use crate::error::ServeError;
use crate::persist::WarmRestartReport;
use crate::service::{EstimatorService, ServiceConfig};
use crate::slot::{ModelSlot, SharedEstimator};

/// A 128-bit routing key identifying a tenant (or a schema a tenant
/// serves). Keys are derived, never assigned, so every node in a fleet
/// computes the same key from the same tenant independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardKey(pub u128);

impl ShardKey {
    /// Key for a named tenant.
    pub fn for_tenant(name: &str) -> Self {
        ShardKey(fnv1a_128(name.bytes()))
    }

    /// Key for a sub-schema: queries over the same table set share a
    /// key regardless of predicates, join order, or table order
    /// (`SubSchema` is sorted + deduplicated on construction).
    pub fn for_sub_schema(schema: &SubSchema) -> Self {
        ShardKey(fnv1a_128(
            schema
                .tables()
                .iter()
                .flat_map(|t| (t.0 as u64).to_le_bytes()),
        ))
    }

    /// Key for the sub-schema of `query` — the default routing key when
    /// a client doesn't carry an explicit tenant.
    pub fn of_query(query: &Query) -> Self {
        Self::for_sub_schema(&query.sub_schema())
    }
}

impl fmt::Display for ShardKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Failures a shard caller can observe, over and above the service's
/// own [`ServeError`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The shard's in-flight quota is exhausted: this tenant is using
    /// its full share and the request is shed *at the shard gate*,
    /// before it could occupy fleet capacity.
    QuotaExhausted {
        /// Shard that shed the request.
        shard: String,
        /// The configured in-flight cap.
        quota: usize,
    },
    /// The shard's underlying service failed the request.
    Serve(ServeError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::QuotaExhausted { shard, quota } => {
                write!(f, "shard '{shard}' quota exhausted ({quota} in flight)")
            }
            ShardError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<ServeError> for ShardError {
    fn from(e: ServeError) -> Self {
        ShardError::Serve(e)
    }
}

/// Per-shard tuning: the service config plus the fairness quota.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Most requests this shard may have in flight (admitted but not
    /// yet answered) before new arrivals are quota-shed. This is the
    /// fairness mechanism: it bounds one tenant's footprint regardless
    /// of how hot its traffic runs. Clamped to `>= 1`.
    pub quota: usize,
    /// Configuration for the shard's [`EstimatorService`].
    pub service: ServiceConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            quota: 64,
            service: ServiceConfig::default(),
        }
    }
}

/// Monotonic quota-gate counters for one shard. Conservation invariant:
/// `routed == admitted + quota_shed` — every routed request is counted
/// exactly once, either into the shard or away from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests the registry handed to this shard.
    pub routed: u64,
    /// Requests that passed the quota gate into the service.
    pub admitted: u64,
    /// Requests shed at the quota gate.
    pub quota_shed: u64,
    /// Requests currently inside the service (gauge, not monotonic).
    pub in_flight: usize,
    /// The configured in-flight cap.
    pub quota: usize,
}

impl ShardStats {
    /// Whether the quota-gate counters conserve.
    pub fn conserved(&self) -> bool {
        self.routed == self.admitted + self.quota_shed
    }
}

/// One tenant's serving stack: an [`EstimatorService`] with its own
/// fallback chain, breakers, and model slot, fronted by a
/// [`MicroBatcher`] and a fairness quota.
pub struct Shard {
    name: String,
    key: ShardKey,
    service: Arc<EstimatorService>,
    batcher: MicroBatcher,
    quota: usize,
    in_flight: Gauge,
    routed: Counter,
    admitted: Counter,
    quota_shed: Counter,
    /// The quota gate's counters and gauges, registered once.
    recorder: MetricsRecorder,
}

/// Decrements `in_flight` even when the service call panics or errors.
struct QuotaGuard<'a>(&'a Gauge);

impl Drop for QuotaGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Shard {
    /// Build a shard cold from estimator stages (first stage primary,
    /// rest fallbacks — same contract as [`EstimatorService::new`]).
    pub fn new(
        name: impl Into<String>,
        key: ShardKey,
        stages: Vec<SharedEstimator>,
        cfg: ShardConfig,
    ) -> Arc<Self> {
        Self::from_service(
            name,
            key,
            Arc::new(EstimatorService::new(stages, cfg.service)),
            cfg.quota,
        )
    }

    /// Wrap an existing service as a shard (for callers that built the
    /// service themselves, e.g. via `warm_restart`).
    pub fn from_service(
        name: impl Into<String>,
        key: ShardKey,
        service: Arc<EstimatorService>,
        quota: usize,
    ) -> Arc<Self> {
        let batcher = MicroBatcher::new(Arc::clone(&service));
        let quota = quota.max(1);
        let recorder = MetricsRecorder::new();
        recorder.set_gauge("routing.quota", quota as u64);
        Arc::new(Shard {
            name: name.into(),
            key,
            service,
            batcher,
            quota,
            in_flight: recorder.new_gauge("routing.in_flight"),
            routed: recorder.new_counter("routing.routed"),
            admitted: recorder.new_counter("routing.admitted"),
            quota_shed: recorder.new_counter("routing.quota_shed"),
            recorder,
        })
    }

    /// Build a shard whose model slot is warm-restarted from this
    /// shard's own namespace under `root`: checkpoints live in
    /// `<root>/<name>`, so one store directory hosts a whole fleet
    /// without tenants reading each other's models.
    ///
    /// # Errors
    /// Only an unreadable store namespace errors; bad checkpoints
    /// degrade to `cold` (typed in the report), same as
    /// [`EstimatorService::warm_restart`].
    #[allow(clippy::too_many_arguments)]
    pub fn warm_restart(
        name: &str,
        key: ShardKey,
        fs: Arc<dyn StoreFs>,
        root: &std::path::Path,
        decode: &dyn Fn(&Checkpoint) -> Option<SharedEstimator>,
        cold: SharedEstimator,
        probe: &[Query],
        fallbacks: Vec<SharedEstimator>,
        cfg: ShardConfig,
    ) -> io::Result<(Arc<Self>, Arc<ModelSlot>, WarmRestartReport)> {
        let store = Arc::new(CheckpointStore::open(
            fs,
            StoreConfig::new(root.join(name)),
        )?);
        let (service, slot, report) =
            EstimatorService::warm_restart(&store, decode, cold, probe, fallbacks, cfg.service)?;
        let shard = Self::from_service(name, key, Arc::new(service), cfg.quota);
        Ok((shard, slot, report))
    }

    /// The shard's display name (also its checkpoint namespace).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The routing key this shard owns exactly.
    pub fn key(&self) -> ShardKey {
        self.key
    }

    /// The underlying service (for feedback, adaptation, hot swap).
    pub fn service(&self) -> &Arc<EstimatorService> {
        &self.service
    }

    /// Estimate within `deadline`, passing the quota gate first and the
    /// shard's micro-batcher second. Counts exactly one of
    /// `admitted`/`quota_shed` per call.
    ///
    /// # Errors
    /// [`ShardError::QuotaExhausted`] at the gate, or the service's own
    /// [`ServeError`] wrapped in [`ShardError::Serve`].
    pub fn estimate_within(
        &self,
        query: &Query,
        deadline: Deadline,
    ) -> Result<Estimate, ShardError> {
        self.routed.fetch_add(1, Ordering::AcqRel);
        // Optimistic increment-then-check keeps the gate race-free: two
        // racing arrivals at quota-1 can't both slip under the cap.
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.quota as u64 {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.quota_shed.fetch_add(1, Ordering::AcqRel);
            return Err(ShardError::QuotaExhausted {
                shard: self.name.clone(),
                quota: self.quota,
            });
        }
        let _guard = QuotaGuard(&self.in_flight);
        self.admitted.fetch_add(1, Ordering::AcqRel);
        Ok(self.batcher.submit_within(query, deadline)?)
    }

    /// The micro-batcher in front of the service.
    pub fn batcher(&self) -> &MicroBatcher {
        &self.batcher
    }

    /// Quota-gate counters (see [`ShardStats::conserved`]).
    pub fn stats(&self) -> ShardStats {
        // The gate bumps `routed` first and exactly one of
        // `admitted`/`quota_shed` after, so a mid-gate request can make
        // a snapshot read routed > admitted + quota_shed transiently;
        // conservation is asserted only at quiescence (tests, bench
        // teardown), where the invariant is exact.
        let routed = self.routed.load(Ordering::Acquire);
        ShardStats {
            routed,
            admitted: self.admitted.load(Ordering::Acquire),
            quota_shed: self.quota_shed.load(Ordering::Acquire),
            in_flight: self.in_flight.load(Ordering::Acquire) as usize,
            quota: self.quota,
        }
    }

    /// The shard's full snapshot: its service metrics plus the quota
    /// gate as `routing.*` counters and gauges.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.service.metrics();
        snap.merge_prefixed("", &self.recorder.snapshot());
        snap
    }
}

impl fmt::Debug for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shard")
            .field("name", &self.name)
            .field("key", &self.key)
            .field("quota", &self.quota)
            .finish_non_exhaustive()
    }
}

/// Why a request could not be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The registry is empty — nothing can serve anything.
    NoShards,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoShards => write!(f, "no shards registered"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Why a shard could not be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// A shard with this key already exists; evict it first. Silent
    /// replacement would strand in-flight requests' counters.
    DuplicateKey {
        /// Name of the shard already holding the key.
        existing: String,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::DuplicateKey { existing } => {
                write!(f, "key already registered to shard '{existing}'")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// The fleet: maps routing keys to shards, with consistent routing and
/// merged observability.
///
/// ## Routing invariants
///
/// 1. A key equal to a registered shard's own key routes to that shard,
///    always (exact match).
/// 2. Any other key routes by rendezvous hashing: every (key, shard)
///    pair gets a deterministic score and the highest score wins. Equal
///    keys therefore route identically for as long as membership is
///    unchanged, and evicting a shard only remaps the keys *that shard*
///    owned — everyone else's routing is untouched.
pub struct ShardRegistry {
    shards: RwLock<HashMap<u128, Arc<Shard>>>,
    registered_total: Counter,
    evicted_total: Counter,
    exact_routes: Counter,
    rendezvous_routes: Counter,
    unroutable: Counter,
    /// The fleet-level `registry.*` counters, registered once.
    recorder: MetricsRecorder,
}

impl Default for ShardRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        let recorder = MetricsRecorder::new();
        ShardRegistry {
            shards: RwLock::default(),
            registered_total: recorder.new_counter("registry.registered_total"),
            evicted_total: recorder.new_counter("registry.evicted_total"),
            exact_routes: recorder.new_counter("registry.routes.exact"),
            rendezvous_routes: recorder.new_counter("registry.routes.rendezvous"),
            unroutable: recorder.new_counter("registry.routes.unroutable"),
            recorder,
        }
    }

    /// Poisoned-lock fallback: a panic while holding the registry lock
    /// can only come from a panicking allocator; recovering the data is
    /// still sound because every write is a single insert/remove.
    fn read_shards(&self) -> std::sync::RwLockReadGuard<'_, HashMap<u128, Arc<Shard>>> {
        self.shards.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a shard under its own key.
    ///
    /// # Errors
    /// [`RegisterError::DuplicateKey`] if the key is taken.
    pub fn register(&self, shard: Arc<Shard>) -> Result<(), RegisterError> {
        let mut shards = self.shards.write().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = shards.get(&shard.key().0) {
            return Err(RegisterError::DuplicateKey {
                existing: existing.name().to_owned(),
            });
        }
        shards.insert(shard.key().0, shard);
        self.registered_total.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Remove and return the shard owning `key`. In-flight requests on
    /// the returned `Arc` drain normally; new routes no longer see it.
    pub fn evict(&self, key: ShardKey) -> Option<Arc<Shard>> {
        let removed = self
            .shards
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key.0);
        if removed.is_some() {
            self.evicted_total.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// The shard owning exactly `key`, if any (no rendezvous fallback).
    pub fn get(&self, key: ShardKey) -> Option<Arc<Shard>> {
        self.read_shards().get(&key.0).cloned()
    }

    /// Registered shard count.
    pub fn len(&self) -> usize {
        self.read_shards().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consistent routing (see the type-level invariants).
    ///
    /// # Errors
    /// [`RouteError::NoShards`] when the registry is empty.
    pub fn route(&self, key: ShardKey) -> Result<Arc<Shard>, RouteError> {
        let shards = self.read_shards();
        if let Some(s) = shards.get(&key.0) {
            self.exact_routes.fetch_add(1, Ordering::AcqRel);
            return Ok(Arc::clone(s));
        }
        // Rendezvous: score every shard against the key; highest wins.
        // Ties break toward the smaller shard key so the winner is a
        // pure function of (key, membership).
        let winner = shards
            .values()
            .map(|s| (rendezvous_score(key, s.key()), s))
            .max_by(|(sa, a), (sb, b)| sa.cmp(sb).then(b.key().cmp(&a.key())));
        match winner {
            Some((_, s)) => {
                self.rendezvous_routes.fetch_add(1, Ordering::AcqRel);
                Ok(Arc::clone(s))
            }
            None => {
                self.unroutable.fetch_add(1, Ordering::AcqRel);
                Err(RouteError::NoShards)
            }
        }
    }

    /// Route and estimate in one step — the path the TCP front door
    /// takes per request.
    ///
    /// # Errors
    /// Routing, quota, and service failures, each typed.
    pub fn estimate_within(
        &self,
        key: ShardKey,
        query: &Query,
        deadline: Deadline,
    ) -> Result<Estimate, FleetError> {
        let shard = self.route(key).map_err(FleetError::Route)?;
        shard
            .estimate_within(query, deadline)
            .map_err(FleetError::Shard)
    }

    /// Every registered shard, for iteration (stats, teardown checks).
    pub fn shards(&self) -> Vec<Arc<Shard>> {
        self.read_shards().values().cloned().collect()
    }

    /// One fleet-wide snapshot: `registry.*` counters plus every
    /// shard's metrics under `shard.<name>.`.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.recorder.snapshot();
        snap.gauges
            .insert("registry.shards".into(), self.len() as u64);
        for shard in self.shards() {
            snap.merge_prefixed(&format!("shard.{}.", shard.name()), &shard.metrics());
        }
        snap
    }

    /// Whether every shard's quota-gate counters conserve — meaningful
    /// at quiescence (no requests mid-gate).
    pub fn conserved(&self) -> bool {
        self.shards().iter().all(|s| s.stats().conserved())
    }
}

impl fmt::Debug for ShardRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardRegistry")
            .field("shards", &self.len())
            .finish_non_exhaustive()
    }
}

/// Deterministic rendezvous score for (request key, shard key).
fn rendezvous_score(key: ShardKey, shard: ShardKey) -> u128 {
    fnv1a_128(key.0.to_le_bytes().into_iter().chain(shard.0.to_le_bytes()))
}

/// The full error surface of a routed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// No shard could be selected.
    Route(RouteError),
    /// The selected shard failed the request.
    Shard(ShardError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Route(e) => write!(f, "{e}"),
            FleetError::Shard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::CardinalityEstimator;

    struct Constant(f64);
    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            format!("const({})", self.0)
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    fn shard(name: &str, value: f64, quota: usize) -> Arc<Shard> {
        let cfg = ShardConfig {
            quota,
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        };
        Shard::new(
            name,
            ShardKey::for_tenant(name),
            vec![Arc::new(Constant(value)) as SharedEstimator],
            cfg,
        )
    }

    fn query() -> Query {
        Query {
            tables: vec![qfe_core::TableId(0)],
            joins: vec![],
            predicates: vec![],
        }
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        assert_eq!(ShardKey::for_tenant("a"), ShardKey::for_tenant("a"));
        assert_ne!(ShardKey::for_tenant("a"), ShardKey::for_tenant("b"));
        let s1 = SubSchema::new(vec![qfe_core::TableId(2), qfe_core::TableId(1)]);
        let s2 = SubSchema::new(vec![qfe_core::TableId(1), qfe_core::TableId(2)]);
        // Sorted construction ⇒ table order can't split a tenant.
        assert_eq!(ShardKey::for_sub_schema(&s1), ShardKey::for_sub_schema(&s2));
    }

    #[test]
    fn routing_keys_are_pinned() {
        // Every node derives keys independently, so their values are part
        // of the fleet's wire contract and must never drift.
        assert_eq!(
            ShardKey::for_tenant("tenant-a").to_string(),
            "a87edb4dc1659b91ddb6971f33d1fdcb"
        );
        let schema = SubSchema::new(vec![qfe_core::TableId(5), qfe_core::TableId(2)]);
        assert_eq!(
            ShardKey::for_sub_schema(&schema).to_string(),
            "12acca787126d834562895ccefb6726a"
        );
        let score = rendezvous_score(
            ShardKey::for_tenant("tenant-a"),
            ShardKey::for_tenant("tenant-b"),
        );
        assert_eq!(format!("{score:032x}"), "cf9914ab50544173774974f1fe4fadd7");
    }

    #[test]
    fn exact_keys_route_to_their_shard() {
        let reg = ShardRegistry::new();
        let a = shard("a", 10.0, 4);
        let b = shard("b", 20.0, 4);
        reg.register(Arc::clone(&a)).unwrap();
        reg.register(Arc::clone(&b)).unwrap();
        assert_eq!(reg.route(a.key()).unwrap().name(), "a");
        assert_eq!(reg.route(b.key()).unwrap().name(), "b");
    }

    #[test]
    fn rendezvous_is_stable_and_eviction_is_minimal() {
        let reg = ShardRegistry::new();
        for name in ["a", "b", "c", "d"] {
            reg.register(shard(name, 5.0, 4)).unwrap();
        }
        let keys: Vec<ShardKey> = (0..200u64)
            .map(|i| ShardKey::for_tenant(&format!("tenant-{i}")))
            .collect();
        let owners: Vec<String> = keys
            .iter()
            .map(|k| reg.route(*k).unwrap().name().to_owned())
            .collect();
        // Stability: same key, same owner.
        for (k, o) in keys.iter().zip(&owners) {
            assert_eq!(reg.route(*k).unwrap().name(), *o);
        }
        // All shards get some keys (sanity of the hash spread).
        for name in ["a", "b", "c", "d"] {
            assert!(owners.iter().any(|o| o == name), "{name} owns no keys");
        }
        // Minimal disruption: evicting 'c' only remaps c's keys.
        reg.evict(ShardKey::for_tenant("c")).unwrap();
        for (k, old) in keys.iter().zip(&owners) {
            let new = reg.route(*k).unwrap().name().to_owned();
            if old != "c" {
                assert_eq!(&new, old, "non-c key moved on c's eviction");
            } else {
                assert_ne!(new, "c");
            }
        }
    }

    #[test]
    fn duplicate_registration_is_typed() {
        let reg = ShardRegistry::new();
        reg.register(shard("a", 1.0, 4)).unwrap();
        match reg.register(shard("a", 2.0, 4)) {
            Err(RegisterError::DuplicateKey { existing }) => assert_eq!(existing, "a"),
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
    }

    #[test]
    fn empty_registry_is_unroutable() {
        let reg = ShardRegistry::new();
        match reg.route(ShardKey::for_tenant("x")) {
            Err(RouteError::NoShards) => {}
            Ok(s) => panic!("empty registry routed to {}", s.name()),
        }
        assert_eq!(reg.metrics().counter("registry.routes.unroutable"), 1);
    }

    #[test]
    fn quota_gate_conserves_and_sheds() {
        // quota 1 and a service wide enough that the gate, not the
        // service queue, is the binding constraint.
        let s = shard("hot", 3.0, 1);
        let q = query();
        assert!(s.estimate_within(&q, Deadline::unbounded()).is_ok());
        // Sequential calls release the gate each time: no sheds.
        assert!(s.estimate_within(&q, Deadline::unbounded()).is_ok());
        let stats = s.stats();
        assert_eq!(stats.routed, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.quota_shed, 0);
        assert!(stats.conserved());
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn fleet_metrics_prefix_per_shard() {
        let reg = ShardRegistry::new();
        let a = shard("alpha", 2.0, 4);
        reg.register(Arc::clone(&a)).unwrap();
        a.estimate_within(&query(), Deadline::unbounded()).unwrap();
        let snap = reg.metrics();
        assert_eq!(snap.counter("shard.alpha.routing.routed"), 1);
        assert_eq!(snap.counter("shard.alpha.routing.admitted"), 1);
        assert_eq!(snap.gauge("registry.shards"), 1);
        // The shard's own serve.* counters are visible under the prefix.
        assert!(snap.counter_sum_with_prefix("shard.alpha.serve.") > 0);
        assert!(reg.conserved());
    }
}
