//! The [`Recorder`] trait instrumented code talks to, the [`Counter`] and
//! [`Gauge`] handles components count through, and the two recorders:
//! [`NoopRecorder`] (observability off, near-zero cost) and
//! [`MetricsRecorder`] (the real name-keyed metric registry).
//!
//! A component owns its counters and gauges as handles created at
//! construction, counts only through them, and reads them back for its
//! typed `stats()` view. Attaching a recorder registers the handles under
//! their metric names; [`MetricsRecorder::snapshot`] then reads the very
//! atomics `stats()` reads, so each counter exists once. Registered
//! names appear in snapshots from the moment of registration (at 0
//! before their first event) and report totals since the component was
//! constructed.
//!
//! Ad-hoc names go through [`Recorder::add`] / [`Recorder::set_gauge`] /
//! [`Recorder::record`], resolved through a `RwLock<BTreeMap>`: after the
//! first observation of a name this is an uncontended read-lock plus
//! relaxed atomic ops. The write lock is taken only when a name is seen
//! (or registered) for the first time.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use crate::hist::LatencyHistogram;
use crate::snapshot::MetricsSnapshot;

/// A monotonic counter: a cloneable handle over one shared `AtomicU64`.
/// Clones count into the same atomic. The convenience methods use
/// `Relaxed` ordering; callers that need stronger ordering use the
/// atomic directly through `Deref`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at 0.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Deref for Counter {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// A last-write-wins gauge: a cloneable handle over one shared
/// `AtomicU64`, with the same ordering conventions as [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh gauge at 0.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Deref for Gauge {
    type Target = AtomicU64;

    fn deref(&self) -> &AtomicU64 {
        &self.0
    }
}

/// Sink for instrumentation events.
///
/// Implementations must be cheap and infallible: instrumented code calls
/// these on hot paths and never inspects a result.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the counter named `name`.
    fn add(&self, name: &str, delta: u64);

    /// Record one latency observation under `name`.
    fn record(&self, name: &str, elapsed: Duration);

    /// Set the gauge named `name` to `value` (last write wins).
    fn set_gauge(&self, name: &str, value: u64);

    /// Increment the counter named `name` by one.
    fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Report `counter` under `name` from now on. The recorder reads the
    /// handle itself; it never copies it. The default drops it.
    fn register_counter(&self, _name: &str, _counter: &Counter) {}

    /// Report `gauge` under `name` from now on (see
    /// [`register_counter`](Recorder::register_counter)).
    fn register_gauge(&self, _name: &str, _gauge: &Gauge) {}
}

/// A recorder that drops everything. The default when observability is
/// off: every method is an empty body, so instrumentation costs one
/// virtual call and nothing else.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn add(&self, _name: &str, _delta: u64) {}

    fn record(&self, _name: &str, _elapsed: Duration) {}

    fn set_gauge(&self, _name: &str, _value: u64) {}
}

/// Name-keyed registries. `BTreeMap` keeps keys sorted, which is what
/// makes snapshot renderings stable without a sort pass. A counter name
/// may carry several handles (two components registered under one
/// name); its value is their sum. A gauge name carries one handle, the
/// last registered.
#[derive(Debug, Default)]
struct Registries {
    counters: RwLock<BTreeMap<String, Vec<Counter>>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Arc<LatencyHistogram>>>,
}

/// Read-lock a registry. Lock poisoning is survived by adopting the
/// inner map, matching the recovery idiom used across the workspace
/// (observability must never take the serving path down).
fn read<T>(registry: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    registry.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-lock a registry (poisoning survived as in [`read`]).
fn write<T>(registry: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    registry.write().unwrap_or_else(|e| e.into_inner())
}

/// Apply `f` to the entry for `name`, creating it with `init` on first
/// use. Fast path is a read-lock; the write lock is only taken for unseen
/// names.
fn with_entry<T, R>(
    registry: &RwLock<BTreeMap<String, T>>,
    name: &str,
    init: impl FnOnce() -> T,
    f: impl FnOnce(&T) -> R,
) -> R {
    if let Some(entry) = read(registry).get(name) {
        return f(entry);
    }
    f(write(registry).entry(name.to_owned()).or_insert_with(init))
}

fn sum(handles: &[Counter]) -> u64 {
    handles.iter().map(Counter::get).sum()
}

/// The real metric sink: counter and gauge handles and
/// [`LatencyHistogram`]s, each addressable by name, snapshottable as a
/// whole via [`MetricsRecorder::snapshot`].
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    registries: Registries,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// A fresh counter handle, registered under `name`.
    pub fn new_counter(&self, name: &str) -> Counter {
        let counter = Counter::new();
        self.register_counter(name, &counter);
        counter
    }

    /// A fresh gauge handle, registered under `name`.
    pub fn new_gauge(&self, name: &str) -> Gauge {
        let gauge = Gauge::new();
        self.register_gauge(name, &gauge);
        gauge
    }

    /// Current value of the counter `name` (0 if never incremented or
    /// registered).
    pub fn counter(&self, name: &str) -> u64 {
        read(&self.registries.counters)
            .get(name)
            .map_or(0, |h| sum(h))
    }

    /// Current value of the gauge `name` (0 if never set or registered).
    pub fn gauge(&self, name: &str) -> u64 {
        read(&self.registries.gauges)
            .get(name)
            .map_or(0, Gauge::get)
    }

    /// The histogram registered under `name`, if any observation was ever
    /// recorded there.
    pub fn histogram(&self, name: &str) -> Option<Arc<LatencyHistogram>> {
        read(&self.registries.histograms).get(name).map(Arc::clone)
    }

    /// Copy every metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let r = &self.registries;
        MetricsSnapshot {
            counters: read(&r.counters)
                .iter()
                .map(|(k, v)| (k.clone(), sum(v)))
                .collect(),
            gauges: read(&r.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read(&r.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            qerror: None,
        }
    }
}

impl Recorder for MetricsRecorder {
    fn add(&self, name: &str, delta: u64) {
        let init = || vec![Counter::new()];
        with_entry(&self.registries.counters, name, init, |handles| {
            if let Some(c) = handles.first() {
                c.add(delta);
            }
        });
    }

    fn record(&self, name: &str, elapsed: Duration) {
        let init = || Arc::new(LatencyHistogram::new());
        with_entry(&self.registries.histograms, name, init, |h| {
            h.record(elapsed)
        });
    }

    fn set_gauge(&self, name: &str, value: u64) {
        with_entry(&self.registries.gauges, name, Gauge::new, |g| g.set(value));
    }

    /// Adds `counter` to the handles summed under `name`. Registering the
    /// same handle twice under one name is a no-op.
    fn register_counter(&self, name: &str, counter: &Counter) {
        let mut map = write(&self.registries.counters);
        let handles = map.entry(name.to_owned()).or_default();
        if !handles.iter().any(|h| Arc::ptr_eq(&h.0, &counter.0)) {
            handles.push(counter.clone());
        }
    }

    /// Replaces whatever gauge `name` held with `gauge`.
    fn register_gauge(&self, name: &str, gauge: &Gauge) {
        write(&self.registries.gauges).insert(name.to_owned(), gauge.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRecorder::new();
        r.incr("a");
        r.add("a", 4);
        r.incr("b");
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 1);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn gauges_take_last_write() {
        let r = MetricsRecorder::new();
        r.set_gauge("depth", 7);
        r.set_gauge("depth", 3);
        assert_eq!(r.gauge("depth"), 3);
        assert_eq!(r.gauge("never"), 0);
    }

    #[test]
    fn histograms_register_on_first_observation() {
        let r = MetricsRecorder::new();
        assert!(r.histogram("lat").is_none());
        r.record("lat", Duration::from_micros(5));
        r.record("lat", Duration::from_micros(7));
        let h = r.histogram("lat").expect("registered");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_copies_everything() {
        let r = MetricsRecorder::new();
        r.add("hits", 10);
        r.set_gauge("depth", 2);
        r.record("lat", Duration::from_millis(1));
        let s = r.snapshot();
        assert_eq!(s.counters.get("hits"), Some(&10));
        assert_eq!(s.gauges.get("depth"), Some(&2));
        assert_eq!(s.histograms.get("lat").map(|h| h.count), Some(1));
        // The snapshot is detached: later writes don't affect it.
        r.add("hits", 1);
        assert_eq!(s.counters.get("hits"), Some(&10));
    }

    #[test]
    fn registered_handles_are_read_in_place_and_summed_per_name() {
        let r = MetricsRecorder::new();
        let a = Counter::new();
        let b = Counter::new();
        let g = Gauge::new();
        r.register_counter("c", &a);
        r.register_counter("c", &a); // same handle twice: counted once
        r.register_gauge("g", &g);
        let s = r.snapshot();
        assert_eq!(s.counters.get("c"), Some(&0), "visible at 0");
        assert_eq!(s.gauges.get("g"), Some(&0));
        a.add(3);
        r.register_counter("c", &b);
        b.incr();
        g.set(9);
        assert_eq!(r.counter("c"), 4);
        assert_eq!(r.gauge("g"), 9);
        // Ad-hoc adds to a registered name land in the sum too.
        r.add("c", 10);
        assert_eq!(r.snapshot().counters.get("c"), Some(&14));
        assert_eq!(a.get() + b.get(), 14);
    }

    #[test]
    fn noop_recorder_accepts_everything() {
        let r = NoopRecorder;
        r.incr("x");
        r.add("x", 100);
        r.record("x", Duration::from_secs(1));
        r.set_gauge("x", 1);
        r.register_counter("x", &Counter::new());
        r.register_gauge("x", &Gauge::new());
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        let r = Arc::new(MetricsRecorder::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.incr("shared");
                        r.record("lat", Duration::from_nanos(50));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.counter("shared"), 8000);
        assert_eq!(r.histogram("lat").expect("registered").count(), 8000);
    }
}
