//! Cross-call sub-plan estimate cache (the Hyrise
//! `CardinalityEstimationCache` pattern).
//!
//! The join-order optimizer probes its estimator once per connected table
//! subset, and consecutive queries in a workload overlap heavily in those
//! sub-plans. [`EstimateCache`] persists estimates *across* `optimize()`
//! calls, keyed on the semantic [`QueryFingerprint`] of the sub-plan, so a
//! sub-plan estimated for one query is free for every later query that
//! contains it — regardless of predicate order or join spelling
//! (fingerprint canonicalization makes semantically equal sub-queries
//! collide).
//!
//! Caching across calls is only sound while the estimator itself does not
//! change. The cache therefore carries a [`GenerationSource`]: the serving
//! layer's `ModelSlot` bumps its generation on every accepted hot swap,
//! and the cache compares that generation on each probe, dropping every
//! entry the moment it moves — an adaptation swap atomically invalidates
//! all stale estimates. A cache built without a source
//! ([`EstimateCache::new`]) pins generation 0 and never invalidates,
//! which is correct exactly when the estimator is immutable.
//!
//! The probe/fill protocol is generation-checked end to end:
//! [`EstimateCache::probe`] returns a [`Probe::Miss`] carrying the
//! generation observed at probe time, and [`EstimateCache::fill`] refuses
//! the insert if the generation has moved since — an estimate computed
//! against the old model can never be published under the new one, even
//! when a swap lands between probe and fill.
//!
//! Capacity is bounded by CLOCK (second-chance) eviction. Every entry
//! carries a reference bit that a hit sets. A fill at capacity advances a
//! hand around the entries, clearing set bits, and replaces the first
//! entry whose bit was already clear. Sub-plans that recur across queries
//! therefore stay cached, while entries filled once and never hit again
//! are the first to go. A fill of a fingerprint that is already cached
//! (two optimizers missed it concurrently) overwrites that entry in
//! place, so no fingerprint is ever held twice.
//!
//! Counter contract (the conservation laws asserted by `bench_optimizer`
//! and the property test below): every probe is exactly one hit or one
//! miss, so `hits + misses == probes`. Evictions count entries replaced
//! by the CLOCK hand or dropped by [`EstimateCache::clear`];
//! invalidations count entries dropped by generation changes. Every
//! distinct insert leaves the cache by exactly one of those two routes or
//! is still held, so `inserts == len + evictions + invalidations`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use qfe_core::estimator::{Estimate, GenerationSource};
use qfe_core::fingerprint::QueryFingerprint;
use qfe_obs::{Counter, Recorder};

/// Default entry bound. A JOB-light-sized workload needs a few hundred
/// distinct sub-plans; this leaves generous headroom while keeping the
/// worst case at a few MB.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// Result of [`EstimateCache::probe`].
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// The fingerprint was cached; here is the estimate.
    Hit(Estimate),
    /// Not cached. The token is the generation observed at probe time;
    /// pass it to [`EstimateCache::fill`] so a concurrent model swap
    /// cannot publish the (now stale) estimate.
    Miss(FillToken),
}

/// Proof of a probe-time generation observation (see [`Probe::Miss`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillToken {
    generation: u64,
}

/// Cumulative counters of an [`EstimateCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that found nothing (and were issued a fill token).
    pub misses: u64,
    /// Entries replaced by the CLOCK hand when a fill found the cache
    /// full, plus entries dropped by [`EstimateCache::clear`].
    pub evictions: u64,
    /// Entries dropped because the model generation moved.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total probes (every probe is exactly one hit or one miss).
    pub fn probes(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` before the first probe.
    pub fn hit_rate(&self) -> f64 {
        if self.probes() == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes() as f64
        }
    }
}

/// One cached estimate and its CLOCK reference bit.
struct Slot {
    fp: u128,
    estimate: Estimate,
    /// Set by a hit, cleared by the passing hand.
    referenced: bool,
}

struct CacheState {
    /// The CLOCK ring: filled in order up to capacity, then replaced in
    /// place.
    slots: Vec<Slot>,
    /// Fingerprint → index into `slots`.
    index: HashMap<u128, usize>,
    /// Next slot the CLOCK hand examines.
    hand: usize,
    /// Generation the cached entries were produced under.
    generation: u64,
}

impl CacheState {
    /// Drop every entry; returns how many there were.
    fn drain(&mut self) -> u64 {
        let dropped = self.slots.len() as u64;
        self.slots.clear();
        self.index.clear();
        self.hand = 0;
        dropped
    }

    /// Index of the slot the CLOCK hand replaces: the first one, from the
    /// hand onwards, whose reference bit is clear. Bits passed on the way
    /// are cleared, so a full lap finds one.
    fn victim(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            let slot = &mut self.slots[i];
            if !std::mem::take(&mut slot.referenced) {
                return i;
            }
        }
    }
}

/// Fingerprint-keyed cross-call estimate cache with generation-based
/// invalidation (module docs have the full contract).
pub struct EstimateCache {
    state: Mutex<CacheState>,
    capacity: usize,
    source: Option<Arc<dyn GenerationSource>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl std::fmt::Debug for EstimateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimateCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EstimateCache {
    /// A cache for an estimator that never changes (generation pinned at
    /// 0, no invalidation), bounded by [`DEFAULT_CACHE_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// [`new`](Self::new) with an explicit entry bound.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A cache whose validity is tied to `source` (typically the serving
    /// layer's `ModelSlot`): whenever `source.generation()` moves, all
    /// entries are dropped on the next probe and counted as
    /// invalidations.
    pub fn with_generation_source(source: Arc<dyn GenerationSource>) -> Self {
        Self::build(DEFAULT_CACHE_CAPACITY, Some(source))
    }

    /// [`with_generation_source`](Self::with_generation_source) with an
    /// explicit entry bound.
    pub fn with_generation_source_and_capacity(
        source: Arc<dyn GenerationSource>,
        capacity: usize,
    ) -> Self {
        Self::build(capacity, Some(source))
    }

    fn build(capacity: usize, source: Option<Arc<dyn GenerationSource>>) -> Self {
        let generation = source.as_ref().map_or(0, |s| s.generation());
        EstimateCache {
            state: Mutex::new(CacheState {
                slots: Vec::new(),
                index: HashMap::new(),
                hand: 0,
                generation,
            }),
            capacity: capacity.max(1),
            source,
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            invalidations: Counter::new(),
        }
    }

    /// Register the counters [`stats`](Self::stats) reads with `recorder`
    /// as `cache.{hit,miss,evict,invalidate}` (builder form).
    pub fn with_recorder(self, recorder: Arc<dyn Recorder>) -> Self {
        recorder.register_counter("cache.hit", &self.hits);
        recorder.register_counter("cache.miss", &self.misses);
        recorder.register_counter("cache.evict", &self.evictions);
        recorder.register_counter("cache.invalidate", &self.invalidations);
        self
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // An estimate cache holds no invariants a panicking writer could
        // tear (entries are immutable once inserted); adopt the inner
        // state rather than cascading the poison.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drop all entries if the source generation moved since they were
    /// filled. Returns the current generation.
    fn sync_generation(&self, state: &mut CacheState) -> u64 {
        if let Some(source) = &self.source {
            let now = source.generation();
            if now != state.generation {
                let dropped = state.drain();
                state.generation = now;
                if dropped > 0 {
                    self.invalidations.add(dropped);
                }
            }
        }
        state.generation
    }

    /// Look up `fp`, invalidating first if the model generation moved.
    /// Every call is exactly one hit or one miss; a hit sets the entry's
    /// reference bit.
    pub fn probe(&self, fp: QueryFingerprint) -> Probe {
        let mut state = self.lock();
        let generation = self.sync_generation(&mut state);
        match state.index.get(&fp.0).copied() {
            Some(i) => {
                let slot = &mut state.slots[i];
                slot.referenced = true;
                let est = slot.estimate.clone();
                drop(state);
                self.hits.incr();
                Probe::Hit(est)
            }
            None => {
                drop(state);
                self.misses.incr();
                Probe::Miss(FillToken { generation })
            }
        }
    }

    /// Publish the estimate computed for a [`Probe::Miss`]. Rejected
    /// (silently — the cache stays correct, the work is merely lost) if
    /// the generation moved since the probe, so stale estimates never
    /// enter a fresh cache. A fingerprint that is already cached has its
    /// entry overwritten in place. Otherwise, at capacity, the CLOCK hand
    /// picks one entry to replace (module docs), counted as one eviction.
    /// New entries start with their reference bit clear.
    pub fn fill(&self, fp: QueryFingerprint, estimate: Estimate, token: FillToken) {
        let mut state = self.lock();
        let generation = self.sync_generation(&mut state);
        if token.generation != generation {
            return;
        }
        if let Some(&i) = state.index.get(&fp.0) {
            state.slots[i].estimate = estimate;
            return;
        }
        let slot = Slot {
            fp: fp.0,
            estimate,
            referenced: false,
        };
        if state.slots.len() < self.capacity {
            let i = state.slots.len();
            state.slots.push(slot);
            state.index.insert(fp.0, i);
            return;
        }
        let i = state.victim();
        let old = std::mem::replace(&mut state.slots[i], slot);
        state.index.remove(&old.fp);
        state.index.insert(fp.0, i);
        drop(state);
        self.evictions.incr();
    }

    /// Drop every entry unconditionally (counted as evictions).
    pub fn clear(&self) {
        let dropped = self.lock().drain();
        if dropped > 0 {
            self.evictions.add(dropped);
        }
    }
}

impl Default for EstimateCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as Gen, Ordering};

    struct Bumpable(Gen);

    impl GenerationSource for Bumpable {
        fn generation(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    fn fp(x: u128) -> QueryFingerprint {
        QueryFingerprint(x)
    }

    fn est(v: f64) -> Estimate {
        Estimate::primary(v, "test")
    }

    #[test]
    fn probe_fill_roundtrip_and_conservation() {
        let cache = EstimateCache::new();
        let Probe::Miss(token) = cache.probe(fp(1)) else {
            panic!("empty cache must miss");
        };
        cache.fill(fp(1), est(42.0), token);
        assert_eq!(cache.probe(fp(1)), Probe::Hit(est(42.0)));
        assert!(matches!(cache.probe(fp(2)), Probe::Miss(_)));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.probes(), 3);
        assert_eq!(stats.evictions + stats.invalidations, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_change_invalidates_everything() {
        let source = Arc::new(Bumpable(Gen::new(0)));
        let cache = EstimateCache::with_generation_source(source.clone());
        for i in 0..4 {
            let Probe::Miss(token) = cache.probe(fp(i)) else {
                panic!("miss expected");
            };
            cache.fill(fp(i), est(i as f64 + 1.0), token);
        }
        assert_eq!(cache.len(), 4);
        source.0.store(1, Ordering::Relaxed);
        // First probe after the swap sees an empty cache.
        assert!(matches!(cache.probe(fp(0)), Probe::Miss(_)));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().invalidations, 4);
    }

    #[test]
    fn stale_token_fill_is_rejected() {
        let source = Arc::new(Bumpable(Gen::new(0)));
        let cache = EstimateCache::with_generation_source(source.clone());
        let Probe::Miss(token) = cache.probe(fp(9)) else {
            panic!("miss expected");
        };
        // A swap lands between probe and fill: the estimate was computed
        // against the old model and must not be published.
        source.0.store(1, Ordering::Relaxed);
        cache.fill(fp(9), est(5.0), token);
        assert!(matches!(cache.probe(fp(9)), Probe::Miss(_)));
        assert_eq!(cache.len(), 0);
    }

    fn fill_after_miss(cache: &EstimateCache, x: u128) {
        let Probe::Miss(token) = cache.probe(fp(x)) else {
            panic!("miss expected for {x}");
        };
        cache.fill(fp(x), est(x as f64), token);
    }

    #[test]
    fn clock_gives_hit_entries_a_second_chance() {
        let cache = EstimateCache::with_capacity(2);
        let (a, b, c) = (1, 2, 3);
        fill_after_miss(&cache, a);
        fill_after_miss(&cache, b);
        assert_eq!(cache.probe(fp(a)), Probe::Hit(est(1.0)));
        // Full: the hand passes `a` (clearing its bit) and replaces `b`.
        fill_after_miss(&cache, c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.probe(fp(a)), Probe::Hit(est(1.0)));
        assert_eq!(cache.probe(fp(c)), Probe::Hit(est(3.0)));
        assert!(matches!(cache.probe(fp(b)), Probe::Miss(_)));
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn duplicate_fill_overwrites_in_place() {
        let cache = EstimateCache::with_capacity(2);
        let Probe::Miss(first) = cache.probe(fp(7)) else {
            panic!("miss expected");
        };
        let Probe::Miss(second) = cache.probe(fp(7)) else {
            panic!("miss expected");
        };
        cache.fill(fp(7), est(1.0), first);
        cache.fill(fp(7), est(2.0), second);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.probe(fp(7)), Probe::Hit(est(2.0)));
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Probe, and fill on a miss.
        ProbeFill(u128),
        /// Probe only.
        Probe(u128),
        /// Probe twice, then fill with both tokens (a raced miss).
        DuplicateFill(u128),
        Clear,
        BumpGeneration,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            (0u64..12).prop_map(|x| Op::ProbeFill(x.into())),
            (0u64..12).prop_map(|x| Op::Probe(x.into())),
            (0u64..12).prop_map(|x| Op::DuplicateFill(x.into())),
            Just(Op::Clear),
            Just(Op::BumpGeneration),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Random operation sequences keep the capacity bound, never hold
        /// a fingerprint twice, and conserve every counter.
        #[test]
        fn clock_cache_keeps_its_invariants(
            capacity in 1usize..6,
            ops in proptest::collection::vec(op(), 0..80),
        ) {
            let source = Arc::new(Bumpable(Gen::new(0)));
            let cache = EstimateCache::with_generation_source_and_capacity(source.clone(), capacity);
            let (mut probes, mut inserts) = (0u64, 0u64);
            let mut probe = |x: u128| {
                probes += 1;
                cache.probe(fp(x))
            };
            for op in ops {
                match op {
                    Op::ProbeFill(x) => {
                        if let Probe::Miss(token) = probe(x) {
                            cache.fill(fp(x), est(x as f64), token);
                            inserts += 1;
                        }
                    }
                    Op::Probe(x) => {
                        probe(x);
                    }
                    Op::DuplicateFill(x) => {
                        if let (Probe::Miss(t1), Probe::Miss(t2)) = (probe(x), probe(x)) {
                            cache.fill(fp(x), est(x as f64), t1);
                            cache.fill(fp(x), est(x as f64 + 0.5), t2);
                            inserts += 1;
                        }
                    }
                    Op::Clear => cache.clear(),
                    Op::BumpGeneration => {
                        source.0.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let state = cache.lock();
                proptest::prop_assert!(state.slots.len() <= capacity);
                proptest::prop_assert_eq!(state.index.len(), state.slots.len());
                for (i, slot) in state.slots.iter().enumerate() {
                    proptest::prop_assert_eq!(state.index.get(&slot.fp), Some(&i));
                }
            }
            // Flush a pending generation bump into the counters.
            probe(u128::MAX);
            let s = cache.stats();
            proptest::prop_assert_eq!(s.hits + s.misses, probes);
            proptest::prop_assert_eq!(
                inserts,
                cache.len() as u64 + s.evictions + s.invalidations
            );
        }
    }

    #[test]
    fn counters_reach_the_recorder() {
        let recorder = Arc::new(qfe_obs::MetricsRecorder::new());
        let source = Arc::new(Bumpable(Gen::new(0)));
        let cache = EstimateCache::with_generation_source_and_capacity(source.clone(), 1)
            .with_recorder(recorder.clone());
        let Probe::Miss(t) = cache.probe(fp(1)) else {
            panic!()
        };
        cache.fill(fp(1), est(2.0), t);
        cache.probe(fp(1));
        let Probe::Miss(t) = cache.probe(fp(2)) else {
            panic!()
        };
        cache.fill(fp(2), est(3.0), t); // replaces fp(1)
        source.0.store(5, Ordering::Relaxed);
        cache.probe(fp(2)); // invalidates 1 entry, then misses
        assert_eq!(recorder.counter("cache.hit"), 1);
        assert_eq!(recorder.counter("cache.miss"), 3);
        assert_eq!(recorder.counter("cache.evict"), 1);
        assert_eq!(recorder.counter("cache.invalidate"), 1);
        // Conservation: probes == hits + misses.
        let s = cache.stats();
        assert_eq!(s.probes(), s.hits + s.misses);
        assert_eq!(s.probes(), 4);
    }
}
