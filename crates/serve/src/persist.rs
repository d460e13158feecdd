//! Durability wiring between the serving layer and the checkpoint store.
//!
//! Two directions:
//!
//! - **Going down** ([`AsyncCheckpointer`]): every model the
//!   [`ModelSlot`] publishes — the initial model, adapt-accepted
//!   candidates, rollbacks — is snapshotted and handed to a background
//!   writer thread that runs the store's atomic save protocol. The
//!   serving and swap paths never wait on disk: the hook snapshots
//!   in-memory bytes and enqueues; a full queue drops the checkpoint
//!   (counted, `persist.dropped`) rather than blocking, and a failed
//!   save (counted by the store as `persist.write_failed`) changes
//!   nothing about what serves — the in-memory swap stands.
//!
//! - **Coming back up** ([`EstimatorService::warm_restart`]): recovery
//!   scans the store, decodes the newest valid checkpoint through a
//!   caller-supplied rebuild function, probe-validates it through the
//!   slot's normal publication gate, and serves it — falling back to the
//!   supplied cold-start estimator at every failure point, each with a
//!   typed [`RestoreOutcome`] and a counter.
//!
//! Every `persist.*` counter — the checkpointer's, the store's, and
//! recovery's — lands in the service's [`qfe_obs::MetricsSnapshot`], so
//! one artifact shows the whole durability loop.

use std::io;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{SystemTime, UNIX_EPOCH};

use qfe_core::Query;
use qfe_obs::{Counter, Recorder};
use qfe_store::{Checkpoint, CheckpointMeta, CheckpointStore, RecoveryReport};

use crate::service::{EstimatorService, ServiceConfig};
use crate::slot::{ModelPersister, ModelSlot, SharedEstimator};

/// One queued persistence request.
struct Job {
    meta: CheckpointMeta,
    model: Vec<u8>,
}

/// Background checkpoint writer (see the module docs).
///
/// Keeps one worker thread and a bounded queue. At quiescence (after
/// [`shutdown`](AsyncCheckpointer::shutdown)) the counters conserve:
/// `persist.enqueued == persist.written + persist.write_failed`, with
/// overflow accounted separately under `persist.dropped` and
/// snapshot-less models under `persist.skipped`.
pub struct AsyncCheckpointer {
    store: Arc<CheckpointStore>,
    tx: Mutex<Option<mpsc::SyncSender<Job>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    enqueued: Counter,
    dropped: Counter,
    skipped: Counter,
}

impl AsyncCheckpointer {
    /// Spawn the writer over `store` with room for `queue_depth`
    /// in-flight checkpoints (clamped to `>= 1`).
    pub fn new(store: Arc<CheckpointStore>, queue_depth: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth.max(1));
        let worker_store = Arc::clone(&store);
        let worker = std::thread::Builder::new()
            .name("qfe-persist".into())
            .spawn(move || {
                // Save outcomes are counted by the store itself
                // (persist.written / persist.write_failed); nothing to do
                // with the result here — serving already moved on.
                for job in rx {
                    let _ = worker_store.save(&job.meta, job.model);
                }
            })
            .ok();
        AsyncCheckpointer {
            store,
            tx: Mutex::new(Some(tx)),
            worker: Mutex::new(worker),
            enqueued: Counter::new(),
            dropped: Counter::new(),
            skipped: Counter::new(),
        }
    }

    /// Register the checkpointer's own counters (`persist.enqueued`,
    /// `persist.dropped`, `persist.skipped` — what [`stats`](Self::stats)
    /// reads) with `recorder`, and route the underlying store's
    /// `persist.*` counters into it.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        recorder.register_counter("persist.enqueued", &self.enqueued);
        recorder.register_counter("persist.dropped", &self.dropped);
        recorder.register_counter("persist.skipped", &self.skipped);
        self.store.set_recorder(recorder);
    }

    /// The store this checkpointer writes into.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// `(enqueued, dropped, skipped)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.enqueued.get(), self.dropped.get(), self.skipped.get())
    }

    /// Queue `model` bytes for persistence. Never blocks: a full queue
    /// drops the request and counts it.
    pub fn enqueue(&self, meta: CheckpointMeta, model: Vec<u8>) {
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            // Already shut down: equivalent to a full queue.
            self.dropped.incr();
            return;
        };
        match tx.try_send(Job { meta, model }) {
            Ok(()) => self.enqueued.incr(),
            Err(_) => self.dropped.incr(),
        }
    }

    /// Drain the queue and stop the worker. After this returns, every
    /// enqueued checkpoint has been saved or counted as failed, and the
    /// conservation identity in the type docs holds. Further `enqueue`
    /// calls count as dropped.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
        drop(tx); // closes the channel; the worker drains and exits
        let worker = self.worker.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(handle) = worker {
            let _ = handle.join();
        }
    }
}

impl Drop for AsyncCheckpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ModelPersister for AsyncCheckpointer {
    /// Snapshot the published model and queue it. A model with no
    /// durable form ([`snapshot_bytes`] returning `None` — statistics-
    /// only estimators, untrained models) is skipped and counted, never
    /// an error.
    ///
    /// [`snapshot_bytes`]: qfe_core::CardinalityEstimator::snapshot_bytes
    fn persist(&self, model: &SharedEstimator, slot_generation: u64) {
        match model.snapshot_bytes() {
            None => self.skipped.incr(),
            Some(bytes) => {
                let meta = CheckpointMeta {
                    kind: model.name(),
                    qft: String::new(),
                    trained_at_unix_s: SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_secs())
                        .unwrap_or(0),
                    sample_count: 0,
                    note: format!("slot generation {slot_generation}"),
                };
                self.enqueue(meta, bytes);
            }
        }
    }
}

/// How [`EstimatorService::warm_restart`] arrived at the model it serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// The newest valid checkpoint was decoded, passed the probe gate,
    /// and serves (store generation inside).
    Restored(u64),
    /// The store held no valid checkpoint; the cold estimator serves.
    NoCheckpoint,
    /// A valid checkpoint existed but the rebuild function refused it
    /// (e.g. featurizer mismatch after a config change); cold start.
    DecodeRejected,
    /// The rebuilt model failed probe validation; cold start.
    ProbeRejected,
}

/// Everything a warm restart did, for logs and assertions.
#[derive(Debug)]
pub struct WarmRestartReport {
    /// What the recovery scan found, bucket by bucket.
    pub recovery: RecoveryReport,
    /// Which path ended up serving.
    pub outcome: RestoreOutcome,
}

impl EstimatorService {
    /// Register `ckpt`'s `persist.*` counters with this service's
    /// recorder and route the store's into it too, so saves, drops, GC,
    /// and retries show up in [`metrics`](EstimatorService::metrics)
    /// next to the serving counters.
    pub fn attach_persistence(&self, ckpt: &AsyncCheckpointer) {
        ckpt.set_recorder(Arc::clone(self.recorder()) as Arc<dyn Recorder>);
    }

    /// Build a service whose first stage is a [`ModelSlot`] warm-started
    /// from `store`: the newest valid checkpoint is rebuilt via `decode`
    /// and published through the slot's normal probe gate; any failure
    /// along the way degrades to `cold` (typed in the report, counted
    /// under `persist.*`). `fallbacks` become the remaining stages.
    ///
    /// The store's recorder is pointed at the service's, so subsequent
    /// `persist.*` activity (saves, GC, retries) shows up in
    /// [`metrics`](EstimatorService::metrics) alongside the recovery
    /// counters this constructor merges in.
    ///
    /// # Errors
    /// Only an unreadable store directory errors out — individual bad
    /// checkpoints never do (they quarantine and fall through).
    pub fn warm_restart(
        store: &Arc<CheckpointStore>,
        decode: &dyn Fn(&Checkpoint) -> Option<SharedEstimator>,
        cold: SharedEstimator,
        probe: &[Query],
        fallbacks: Vec<SharedEstimator>,
        cfg: ServiceConfig,
    ) -> io::Result<(Self, Arc<ModelSlot>, WarmRestartReport)> {
        let slot = Arc::new(ModelSlot::new(cold));
        let recovery = store.recover()?;
        let outcome = match &recovery.latest {
            None => RestoreOutcome::NoCheckpoint,
            Some(ck) => match decode(ck) {
                None => RestoreOutcome::DecodeRejected,
                Some(est) => match slot.try_publish(est, probe) {
                    Ok(_) => RestoreOutcome::Restored(ck.generation),
                    Err(_) => RestoreOutcome::ProbeRejected,
                },
            },
        };

        let mut stages: Vec<SharedEstimator> = Vec::with_capacity(1 + fallbacks.len());
        stages.push(Arc::clone(&slot) as SharedEstimator);
        stages.extend(fallbacks);
        let service = EstimatorService::new(stages, cfg);

        // Late recorder wiring: recovery above counted into the store's
        // previous (noop) recorder, so merge the report's buckets here —
        // no double counting — then point the store at the service for
        // everything that happens from now on.
        let rec = Arc::clone(service.recorder()) as Arc<dyn Recorder>;
        rec.add("persist.quarantined", recovery.quarantined as u64);
        rec.add("persist.skipped_version", recovery.skipped_version as u64);
        rec.add("persist.tmp_debris", recovery.tmp_debris as u64);
        rec.add("persist.unreadable", recovery.unreadable as u64);
        match outcome {
            RestoreOutcome::Restored(generation) => {
                rec.incr("persist.restored");
                rec.set_gauge("persist.restored_generation", generation);
            }
            RestoreOutcome::NoCheckpoint => {}
            RestoreOutcome::DecodeRejected | RestoreOutcome::ProbeRejected => {
                rec.incr("persist.restore_rejected");
            }
        }
        slot.set_recorder(Arc::clone(&rec), "slot");
        store.set_recorder(rec);

        Ok((service, slot, WarmRestartReport { recovery, outcome }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qfe_core::estimator::CardinalityEstimator;
    use qfe_core::TableId;
    use qfe_store::{ChaosFs, Fault, FaultPlan, MemFs, StoreConfig, StoreFs};

    /// A constant estimator whose snapshot is its value's bits — enough
    /// to prove the persistence loop without training a real model.
    struct Snappable(f64);
    impl CardinalityEstimator for Snappable {
        fn name(&self) -> String {
            "snappable".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
        fn snapshot_bytes(&self) -> Option<Vec<u8>> {
            Some(self.0.to_le_bytes().to_vec())
        }
    }

    /// A constant estimator with no durable form.
    struct Ephemeral(f64);
    impl CardinalityEstimator for Ephemeral {
        fn name(&self) -> String {
            "ephemeral".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    fn decode_snappable(ck: &Checkpoint) -> Option<SharedEstimator> {
        let bytes: [u8; 8] = ck.model.as_slice().try_into().ok()?;
        Some(Arc::new(Snappable(f64::from_le_bytes(bytes))))
    }

    fn probe() -> Vec<Query> {
        (0..3)
            .map(|_| Query::single_table(TableId(0), vec![]))
            .collect()
    }

    fn mem_store(mem: &Arc<MemFs>) -> Arc<CheckpointStore> {
        let mut store = CheckpointStore::open(
            Arc::clone(mem) as Arc<dyn StoreFs>,
            StoreConfig::new("/store"),
        )
        .unwrap();
        store.set_sleeper(Arc::new(|_| {}));
        Arc::new(store)
    }

    fn q() -> Query {
        Query::single_table(TableId(0), vec![])
    }

    #[test]
    fn accepted_swap_is_checkpointed_asynchronously() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        let ckpt = Arc::new(AsyncCheckpointer::new(Arc::clone(&store), 8));
        let slot = ModelSlot::new(Arc::new(Ephemeral(1.0)));
        slot.set_persister(Arc::clone(&ckpt) as Arc<dyn ModelPersister>);

        slot.try_publish(Arc::new(Snappable(42.0)), &probe())
            .unwrap();
        ckpt.shutdown(); // quiesce

        assert_eq!(ckpt.stats(), (1, 0, 0));
        let report = store.recover().unwrap();
        let ck = report.latest.expect("swap persisted");
        assert_eq!(ck.model, 42.0f64.to_le_bytes().to_vec());
        assert_eq!(ck.kind, "snappable");
        assert_eq!(ck.note, "slot generation 1");
    }

    #[test]
    fn snapshotless_model_is_skipped_and_counted() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        let ckpt = Arc::new(AsyncCheckpointer::new(Arc::clone(&store), 8));
        let slot = ModelSlot::new(Arc::new(Ephemeral(1.0)));
        slot.set_persister(Arc::clone(&ckpt) as Arc<dyn ModelPersister>);

        slot.try_publish(Arc::new(Ephemeral(5.0)), &probe())
            .unwrap();
        ckpt.shutdown();

        assert_eq!(ckpt.stats(), (0, 0, 1), "no snapshot → skipped, not error");
        assert!(store.recover().unwrap().latest.is_none());
        assert_eq!(slot.estimate(&q()), 5.0, "swap stands regardless");
    }

    #[test]
    fn failed_persist_never_undoes_the_swap() {
        let mem = Arc::new(MemFs::new());
        let chaos = Arc::new(ChaosFs::new(
            Arc::clone(&mem) as Arc<dyn StoreFs>,
            FaultPlan::new(),
        ));
        let mut inner = CheckpointStore::open(
            Arc::clone(&chaos) as Arc<dyn StoreFs>,
            StoreConfig::new("/store"),
        )
        .unwrap();
        inner.set_sleeper(Arc::new(|_| {}));
        let store = Arc::new(inner);
        let rec = Arc::new(qfe_obs::MetricsRecorder::new());
        store.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        // Every fs op from now on dies.
        chaos.plant(chaos.ops_seen(), Fault::CrashPoint);

        let ckpt = Arc::new(AsyncCheckpointer::new(Arc::clone(&store), 8));
        let slot = ModelSlot::new(Arc::new(Ephemeral(1.0)));
        slot.set_persister(Arc::clone(&ckpt) as Arc<dyn ModelPersister>);

        slot.try_publish(Arc::new(Snappable(9.0)), &probe())
            .unwrap();
        ckpt.shutdown();

        assert_eq!(slot.estimate(&q()), 9.0, "in-memory swap stands");
        assert_eq!(slot.generation(), 1);
        assert_eq!(rec.counter("persist.write_failed"), 1);
        assert_eq!(rec.counter("persist.written"), 0);
    }

    /// A [`StoreFs`] whose writes block until the test opens a gate —
    /// makes "the worker is mid-save" a deterministic state.
    struct GatedFs {
        inner: Arc<MemFs>,
        gate: Mutex<bool>,
        cv: std::sync::Condvar,
    }
    impl GatedFs {
        fn new(inner: Arc<MemFs>) -> Self {
            GatedFs {
                inner,
                gate: Mutex::new(false),
                cv: std::sync::Condvar::new(),
            }
        }
        fn open_gate(&self) {
            *self.gate.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.cv.notify_all();
        }
        fn wait_open(&self) {
            let mut open = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            while !*open {
                open = self.cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
    impl StoreFs for GatedFs {
        fn read(&self, p: &std::path::Path) -> std::io::Result<Vec<u8>> {
            self.inner.read(p)
        }
        fn write_all(&self, p: &std::path::Path, b: &[u8]) -> std::io::Result<()> {
            self.wait_open();
            self.inner.write_all(p, b)
        }
        fn sync_file(&self, p: &std::path::Path) -> std::io::Result<()> {
            self.inner.sync_file(p)
        }
        fn rename(&self, f: &std::path::Path, t: &std::path::Path) -> std::io::Result<()> {
            self.inner.rename(f, t)
        }
        fn sync_dir(&self, p: &std::path::Path) -> std::io::Result<()> {
            self.inner.sync_dir(p)
        }
        fn list(&self, p: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            self.inner.list(p)
        }
        fn create_dir_all(&self, p: &std::path::Path) -> std::io::Result<()> {
            self.inner.create_dir_all(p)
        }
        fn remove(&self, p: &std::path::Path) -> std::io::Result<()> {
            self.inner.remove(p)
        }
        fn exists(&self, p: &std::path::Path) -> bool {
            self.inner.exists(p)
        }
    }

    #[test]
    fn full_queue_drops_instead_of_blocking() {
        let mem = Arc::new(MemFs::new());
        // Open store over the raw MemFs first so open()'s own fs calls
        // don't hit the gate, then rebuild it over the gated view.
        mem.create_dir_all(std::path::Path::new("/store")).unwrap();
        let gated = Arc::new(GatedFs::new(Arc::clone(&mem)));
        let mut inner = CheckpointStore::open(
            Arc::clone(&gated) as Arc<dyn StoreFs>,
            StoreConfig::new("/store"),
        )
        .unwrap();
        inner.set_sleeper(Arc::new(|_| {}));
        let store = Arc::new(inner);

        let ckpt = AsyncCheckpointer::new(Arc::clone(&store), 1);
        // Job 1 → worker picks it up and blocks in write_all.
        // Job 2 → sits in the depth-1 queue.
        // Job 3 → queue full: dropped, and enqueue returns immediately.
        ckpt.enqueue(CheckpointMeta::default(), vec![1]);
        // Wait until the worker has dequeued job 1 (queue has room again).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            ckpt.enqueue(CheckpointMeta::default(), vec![2]);
            let (enq, _, _) = ckpt.stats();
            if enq == 2 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "worker never started");
            std::thread::yield_now();
        }
        let before = std::time::Instant::now();
        ckpt.enqueue(CheckpointMeta::default(), vec![3]);
        assert!(
            before.elapsed() < std::time::Duration::from_secs(1),
            "enqueue must not block on a full queue"
        );
        let (enqueued, dropped, skipped) = ckpt.stats();
        assert_eq!((enqueued, skipped), (2, 0));
        assert!(dropped >= 1, "overflow counted, not silently lost");

        gated.open_gate();
        ckpt.shutdown();
        // Conservation at quiescence: both enqueued jobs were written.
        let report = store.recover().unwrap();
        assert_eq!(report.valid, 2);
        assert_eq!(report.quarantined, 0);
        assert!(report.latest.is_some());
    }

    #[test]
    fn enqueue_after_shutdown_counts_as_dropped() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        let ckpt = AsyncCheckpointer::new(store, 4);
        ckpt.shutdown();
        ckpt.enqueue(CheckpointMeta::default(), vec![1]);
        assert_eq!(ckpt.stats(), (0, 1, 0));
    }

    #[test]
    fn warm_restart_serves_recovered_model() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store
            .save(
                &CheckpointMeta {
                    note: "adapted".into(),
                    ..CheckpointMeta::default()
                },
                77.0f64.to_le_bytes().to_vec(),
            )
            .unwrap();
        mem.crash(); // simulate process death after the durable save

        let store2 = mem_store(&mem);
        let (service, slot, report) = EstimatorService::warm_restart(
            &store2,
            &decode_snappable,
            Arc::new(Ephemeral(1.0)),
            &probe(),
            vec![],
            ServiceConfig::default(),
        )
        .unwrap();
        assert!(matches!(report.outcome, RestoreOutcome::Restored(_)));
        assert_eq!(service.estimate(&q()).unwrap().value, 77.0);
        assert_eq!(slot.generation(), 1, "restore is a normal publication");
        let m = service.metrics();
        assert_eq!(m.counter("persist.restored"), 1);
        assert_eq!(m.gauge("persist.restored_generation"), 0);
        assert_eq!(m.gauge("slot.generation"), 1);
    }

    #[test]
    fn warm_restart_with_empty_store_is_a_cold_start() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        let (service, _slot, report) = EstimatorService::warm_restart(
            &store,
            &decode_snappable,
            Arc::new(Ephemeral(3.0)),
            &probe(),
            vec![],
            ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcome, RestoreOutcome::NoCheckpoint);
        assert_eq!(service.estimate(&q()).unwrap().value, 3.0);
        assert_eq!(service.metrics().counter("persist.restored"), 0);
    }

    #[test]
    fn warm_restart_decode_rejection_degrades_to_cold() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store
            .save(&CheckpointMeta::default(), vec![1, 2, 3]) // not 8 bytes
            .unwrap();
        let (service, _slot, report) = EstimatorService::warm_restart(
            &store,
            &decode_snappable,
            Arc::new(Ephemeral(3.0)),
            &probe(),
            vec![],
            ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcome, RestoreOutcome::DecodeRejected);
        assert_eq!(service.estimate(&q()).unwrap().value, 3.0);
        assert_eq!(service.metrics().counter("persist.restore_rejected"), 1);
    }

    #[test]
    fn warm_restart_probe_rejection_degrades_to_cold() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store
            .save(
                &CheckpointMeta::default(),
                f64::NAN.to_le_bytes().to_vec(), // rebuilds, then fails probe
            )
            .unwrap();
        let (service, slot, report) = EstimatorService::warm_restart(
            &store,
            &decode_snappable,
            Arc::new(Ephemeral(3.0)),
            &probe(),
            vec![],
            ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outcome, RestoreOutcome::ProbeRejected);
        assert_eq!(slot.generation(), 0, "rejected candidate never published");
        assert_eq!(service.estimate(&q()).unwrap().value, 3.0);
        assert_eq!(service.metrics().counter("persist.restore_rejected"), 1);
    }

    #[test]
    fn quarantined_recovery_counters_reach_service_metrics() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store
            .save(&CheckpointMeta::default(), 5.0f64.to_le_bytes().to_vec())
            .unwrap();
        // Plant a corrupt sibling.
        mem.write_all(
            &std::path::PathBuf::from("/store/ckpt-00000000000000aa.qfc"),
            b"garbage",
        )
        .unwrap();
        let (service, _slot, report) = EstimatorService::warm_restart(
            &store,
            &decode_snappable,
            Arc::new(Ephemeral(1.0)),
            &probe(),
            vec![],
            ServiceConfig::default(),
        )
        .unwrap();
        assert!(matches!(report.outcome, RestoreOutcome::Restored(_)));
        assert!(report.recovery.conserved());
        let m = service.metrics();
        assert_eq!(m.counter("persist.quarantined"), 1);
        // Post-restart store activity lands in the same snapshot.
        store
            .save(&CheckpointMeta::default(), 6.0f64.to_le_bytes().to_vec())
            .unwrap();
        assert_eq!(service.metrics().counter("persist.written"), 1);
    }
}
