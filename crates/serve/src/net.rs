//! The std-only TCP front door: length-prefixed frames over
//! `TcpListener`, routed through a [`ShardRegistry`].
//!
//! Architecture: `NetServer::bind` creates one listener and
//! thread-per-core acceptor loops over clones of it (`try_clone`), so
//! accepts proceed in parallel without a dispatcher thread. Each
//! accepted connection gets a handler thread (bounded by
//! `max_connections`; beyond the cap the connection is closed and
//! counted, never queued). Handlers decode [`Frame`]s, route
//! `EstimateRequest`s by tenant key through the registry — which runs
//! them through the owning shard's quota gate and [`MicroBatcher`] —
//! and write the response frame back.
//!
//! Failure philosophy, same as the rest of the crate: *nothing a client
//! sends can panic or hang the server.* Malformed bytes become typed
//! [`ProtoError`]s (counted, answered with an error frame when framing
//! allows, then the connection closes — after a corrupt length prefix
//! there is no frame boundary to resync to). Slow clients hit the
//! per-connection idle deadline. Service failures map to typed
//! [`ErrCode`]s and the connection stays usable.
//!
//! [`MicroBatcher`]: crate::batch::MicroBatcher

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qfe_core::Deadline;
use qfe_obs::{Counter, Gauge, MetricsRecorder, MetricsSnapshot};

use crate::proto::{write_frame, ErrCode, Frame, ProtoError, ReadError, MAX_FRAME_LEN};
use crate::shard::{FleetError, RouteError, ShardError, ShardKey, ShardRegistry};

/// Tuning for the TCP front door.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Acceptor threads; `0` means one per core
    /// (`available_parallelism`).
    pub acceptors: usize,
    /// Concurrent connections beyond which new accepts are closed
    /// immediately (and counted as refused).
    pub max_connections: usize,
    /// Socket timeout granularity: how often a blocked read wakes to
    /// check the shutdown flag. Small values make shutdown snappy.
    pub tick: Duration,
    /// Per-connection idle deadline: a connection making no read
    /// progress for this long is closed. Also bounds how long a
    /// half-sent frame may stall.
    pub idle_timeout: Duration,
    /// Budget applied when a request carries `budget_micros == 0`.
    pub default_budget: Duration,
    /// Clamp on client-supplied budgets, so a client cannot pin a
    /// worker for minutes.
    pub max_budget: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            acceptors: 0,
            max_connections: 256,
            tick: Duration::from_millis(50),
            idle_timeout: Duration::from_secs(30),
            default_budget: Duration::from_millis(100),
            max_budget: Duration::from_secs(10),
        }
    }
}

/// Monotonic front-door counters (`active` is a gauge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted into a handler.
    pub accepted: u64,
    /// Connections closed at accept because the cap was reached.
    pub refused: u64,
    /// Handler threads currently live.
    pub active: usize,
    /// Frames successfully decoded.
    pub frames_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Typed protocol errors (malformed bytes from a client).
    pub proto_errors: u64,
    /// Transport errors (resets, mid-frame EOF) — excludes clean closes.
    pub io_errors: u64,
    /// Connections closed by the idle deadline.
    pub idle_closed: u64,
    /// Requests answered with an estimate.
    pub requests_ok: u64,
    /// Requests answered with a typed error frame.
    pub requests_err: u64,
    /// Accept-loop errors survived (EMFILE and friends).
    pub accept_errors: u64,
}

struct Inner {
    registry: Arc<ShardRegistry>,
    cfg: NetConfig,
    shutdown: AtomicBool,
    active: Gauge,
    accepted: Counter,
    refused: Counter,
    frames_in: Counter,
    frames_out: Counter,
    proto_errors: Counter,
    io_errors: Counter,
    idle_closed: Counter,
    requests_ok: Counter,
    requests_err: Counter,
    accept_errors: Counter,
    /// The front-door `net.*` counters and gauge, registered once.
    recorder: MetricsRecorder,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running TCP server. Dropping it shuts it down and joins every
/// thread it spawned.
pub struct NetServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptors: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` and start accepting. `addr` may carry port 0 for an
    /// OS-assigned port; read it back with [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    /// Bind/clone failures from the OS.
    pub fn bind(
        registry: Arc<ShardRegistry>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let acceptors = if cfg.acceptors == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            cfg.acceptors
        };
        let recorder = MetricsRecorder::new();
        let inner = Arc::new(Inner {
            registry,
            cfg,
            shutdown: AtomicBool::new(false),
            active: recorder.new_gauge("net.active"),
            accepted: recorder.new_counter("net.accepted"),
            refused: recorder.new_counter("net.refused"),
            frames_in: recorder.new_counter("net.frames_in"),
            frames_out: recorder.new_counter("net.frames_out"),
            proto_errors: recorder.new_counter("net.proto_errors"),
            io_errors: recorder.new_counter("net.io_errors"),
            idle_closed: recorder.new_counter("net.idle_closed"),
            requests_ok: recorder.new_counter("net.requests_ok"),
            requests_err: recorder.new_counter("net.requests_err"),
            accept_errors: recorder.new_counter("net.accept_errors"),
            recorder,
            handlers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(acceptors);
        for i in 0..acceptors {
            let listener = listener.try_clone()?;
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("qfe-accept-{i}"))
                    .spawn(move || accept_loop(listener, inner))?,
            );
        }
        Ok(NetServer {
            inner,
            addr,
            acceptors: handles,
        })
    }

    /// Bind loopback on an OS-assigned port, retrying transient bind
    /// failures (exhausted ephemeral ports on busy CI machines) with a
    /// short backoff. This is the flake-proof entry point benches use.
    ///
    /// # Errors
    /// The last bind error after `attempts` tries.
    pub fn bind_loopback_with_retry(
        registry: Arc<ShardRegistry>,
        cfg: NetConfig,
        attempts: usize,
    ) -> io::Result<Self> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            match Self::bind(Arc::clone(&registry), ("127.0.0.1", 0), cfg.clone()) {
                Ok(server) => return Ok(server),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(50 * (attempt as u64 + 1)));
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("bind_loopback_with_retry: zero attempts")))
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server routes through.
    pub fn registry(&self) -> &Arc<ShardRegistry> {
        &self.inner.registry
    }

    /// Front-door counters.
    pub fn stats(&self) -> NetStats {
        let i = &self.inner;
        NetStats {
            accepted: i.accepted.load(Ordering::Acquire),
            refused: i.refused.load(Ordering::Acquire),
            active: i.active.load(Ordering::Acquire) as usize,
            frames_in: i.frames_in.load(Ordering::Acquire),
            frames_out: i.frames_out.load(Ordering::Acquire),
            proto_errors: i.proto_errors.load(Ordering::Acquire),
            io_errors: i.io_errors.load(Ordering::Acquire),
            idle_closed: i.idle_closed.load(Ordering::Acquire),
            requests_ok: i.requests_ok.load(Ordering::Acquire),
            requests_err: i.requests_err.load(Ordering::Acquire),
            accept_errors: i.accept_errors.load(Ordering::Acquire),
        }
    }

    /// One snapshot of the whole stack: fleet metrics (per-shard
    /// `shard.*`, `registry.*`) plus front-door `net.*` counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.inner.registry.metrics();
        snap.merge_prefixed("", &self.inner.recorder.snapshot());
        snap
    }

    /// Stop accepting, close out handlers, and join every thread. Safe
    /// to call twice; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Accept loops block in `accept`; poke each one awake with a
        // throwaway connection. Failures are fine — the loop also exits
        // on its next accept error or incoming connection.
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        }
        for h in self.acceptors.drain(..) {
            let _ = h.join();
        }
        let handlers = {
            let mut guard = self
                .inner
                .handlers
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        // Handlers see the flag at their next tick (bounded by
        // cfg.tick), so these joins are prompt.
        for h in handlers {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return; // the wake-up poke itself lands here
                }
                // Optimistic claim, same shape as the shard quota gate:
                // increment first so two racing accepts can't both
                // slip under the cap.
                let prev = inner.active.fetch_add(1, Ordering::AcqRel);
                if prev >= inner.cfg.max_connections as u64 {
                    inner.active.fetch_sub(1, Ordering::AcqRel);
                    inner.refused.fetch_add(1, Ordering::AcqRel);
                    drop(stream);
                    continue;
                }
                let conn_inner = Arc::clone(&inner);
                // Counted by the handler itself, so a connection whose
                // handler never spawns is refused and not also accepted,
                // and every accepted one is counted before its first
                // frame is answered.
                let spawned =
                    std::thread::Builder::new()
                        .name("qfe-conn".into())
                        .spawn(move || {
                            conn_inner.accepted.fetch_add(1, Ordering::AcqRel);
                            handle_connection(stream, &conn_inner);
                            conn_inner.active.fetch_sub(1, Ordering::AcqRel);
                        });
                match spawned {
                    Ok(handle) => {
                        let mut guard = inner.handlers.lock().unwrap_or_else(|e| e.into_inner());
                        // Reap finished handlers so a long-lived server
                        // doesn't accumulate join handles forever.
                        guard.retain(|h| !h.is_finished());
                        guard.push(handle);
                    }
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion):
                        // treat like a refused connection.
                        inner.active.fetch_sub(1, Ordering::AcqRel);
                        inner.refused.fetch_add(1, Ordering::AcqRel);
                    }
                }
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure (EMFILE, ECONNABORTED):
                // count it, back off briefly, keep accepting. The
                // acceptor never dies while the server is up.
                inner.accept_errors.fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// What one read attempt produced, beyond a decoded frame.
enum NetRead {
    Frame(Frame),
    /// Peer closed cleanly at a frame boundary.
    Closed,
    /// No read progress for `idle_timeout`.
    Idle,
    /// Server is shutting down.
    Shutdown,
}

/// What [`fill`] did with its buffer.
enum FillOutcome {
    /// Buffer completely filled.
    Full,
    /// Peer closed cleanly before the first byte (frame boundary only).
    Closed,
    /// No read progress for `idle_timeout`.
    Idle,
    /// Server is shutting down.
    Shutdown,
}

/// Fill `buf` from `stream`, tolerating tick-granularity timeouts while
/// progress is being made. `clean_close_ok` is true only at a frame
/// boundary (zero bytes filled).
fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    inner: &Inner,
    clean_close_ok: bool,
) -> Result<FillOutcome, ReadError> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        if inner.shutdown.load(Ordering::Acquire) {
            return Ok(FillOutcome::Shutdown);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && clean_close_ok {
                    Ok(FillOutcome::Closed)
                } else {
                    Err(ReadError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )))
                };
            }
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_progress.elapsed() >= inner.cfg.idle_timeout {
                    return Ok(FillOutcome::Idle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    Ok(FillOutcome::Full)
}

/// Read one frame with shutdown/idle awareness (see [`fill`]).
fn read_net_frame(stream: &mut TcpStream, inner: &Inner) -> Result<NetRead, ReadError> {
    let mut header = [0u8; 4];
    match fill(stream, &mut header, inner, true)? {
        FillOutcome::Full => {}
        FillOutcome::Closed => return Ok(NetRead::Closed),
        FillOutcome::Idle => return Ok(NetRead::Idle),
        FillOutcome::Shutdown => return Ok(NetRead::Shutdown),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ReadError::Proto(ProtoError::Oversized {
            declared: len,
            max: MAX_FRAME_LEN,
        }));
    }
    let mut payload = vec![0u8; len];
    match fill(stream, &mut payload, inner, false)? {
        FillOutcome::Full => {}
        FillOutcome::Closed => return Ok(NetRead::Closed),
        FillOutcome::Idle => return Ok(NetRead::Idle),
        FillOutcome::Shutdown => return Ok(NetRead::Shutdown),
    }
    Ok(NetRead::Frame(Frame::decode(&payload)?))
}

fn send(stream: &mut TcpStream, inner: &Inner, frame: &Frame) -> bool {
    match write_frame(stream, frame) {
        Ok(()) => {
            inner.frames_out.fetch_add(1, Ordering::AcqRel);
            true
        }
        Err(_) => {
            inner.io_errors.fetch_add(1, Ordering::AcqRel);
            false
        }
    }
}

fn handle_connection(mut stream: TcpStream, inner: &Inner) {
    // Socket hygiene: tick-granularity timeouts so shutdown is prompt,
    // no Nagle delay on small response frames.
    let _ = stream.set_read_timeout(Some(inner.cfg.tick));
    let _ = stream.set_write_timeout(Some(inner.cfg.idle_timeout));
    let _ = stream.set_nodelay(true);

    loop {
        let frame = match read_net_frame(&mut stream, inner) {
            Ok(NetRead::Frame(f)) => f,
            Ok(NetRead::Closed) | Ok(NetRead::Shutdown) => return,
            Ok(NetRead::Idle) => {
                inner.idle_closed.fetch_add(1, Ordering::AcqRel);
                return;
            }
            Err(ReadError::Proto(e)) => {
                // Malformed bytes: typed, counted, answered when the
                // stream is still writable — then close, because a
                // corrupt length prefix destroys frame alignment.
                inner.proto_errors.fetch_add(1, Ordering::AcqRel);
                let _ = send(
                    &mut stream,
                    inner,
                    &Frame::EstimateErr {
                        request_id: 0,
                        code: ErrCode::BadRequest,
                        detail: format!("protocol error: {e}"),
                    },
                );
                return;
            }
            Err(ReadError::Io(_)) => {
                inner.io_errors.fetch_add(1, Ordering::AcqRel);
                return;
            }
        };
        inner.frames_in.fetch_add(1, Ordering::AcqRel);

        match frame {
            Frame::Ping { token } => {
                if !send(&mut stream, inner, &Frame::Pong { token }) {
                    return;
                }
            }
            Frame::EstimateRequest {
                request_id,
                tenant,
                budget_micros,
                query,
            } => {
                let budget = if budget_micros == 0 {
                    inner.cfg.default_budget
                } else {
                    Duration::from_micros(budget_micros).min(inner.cfg.max_budget)
                };
                // Tenant 0 is the anonymous tenant: route by the
                // query's own sub-schema fingerprint.
                let key = if tenant == 0 {
                    ShardKey::of_query(&query)
                } else {
                    ShardKey(tenant)
                };
                let reply = if query.tables.is_empty() {
                    Frame::EstimateErr {
                        request_id,
                        code: ErrCode::BadRequest,
                        detail: "query accesses no table".into(),
                    }
                } else {
                    match inner
                        .registry
                        .estimate_within(key, &query, Deadline::within(budget))
                    {
                        Ok(est) => Frame::EstimateOk {
                            request_id,
                            value: est.value,
                            fallback_depth: est.fallback_depth.min(u32::MAX as usize) as u32,
                            estimator: est.estimator,
                        },
                        Err(e) => Frame::EstimateErr {
                            request_id,
                            code: err_code(&e),
                            detail: e.to_string(),
                        },
                    }
                };
                match &reply {
                    Frame::EstimateOk { .. } => {
                        inner.requests_ok.fetch_add(1, Ordering::AcqRel);
                    }
                    _ => {
                        inner.requests_err.fetch_add(1, Ordering::AcqRel);
                    }
                }
                if !send(&mut stream, inner, &reply) {
                    return;
                }
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation by a confused client: typed error,
            // connection stays open (framing is still aligned).
            Frame::EstimateOk { request_id, .. } | Frame::EstimateErr { request_id, .. } => {
                inner.proto_errors.fetch_add(1, Ordering::AcqRel);
                if !send(
                    &mut stream,
                    inner,
                    &Frame::EstimateErr {
                        request_id,
                        code: ErrCode::BadRequest,
                        detail: "unexpected server-to-client frame".into(),
                    },
                ) {
                    return;
                }
            }
            Frame::Pong { .. } => {
                inner.proto_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
    }
}

fn err_code(e: &FleetError) -> ErrCode {
    match e {
        FleetError::Route(RouteError::NoShards) => ErrCode::UnknownTenant,
        FleetError::Shard(ShardError::QuotaExhausted { .. }) => ErrCode::QuotaExhausted,
        FleetError::Shard(ShardError::Serve(crate::error::ServeError::Overloaded { .. })) => {
            ErrCode::Overloaded
        }
        FleetError::Shard(ShardError::Serve(crate::error::ServeError::DeadlineExceeded {
            ..
        })) => ErrCode::DeadlineExceeded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::shard::{Shard, ShardConfig};
    use crate::slot::SharedEstimator;
    use qfe_core::{CardinalityEstimator, Query, TableId};
    use std::io::Write;

    struct Constant(f64);
    impl CardinalityEstimator for Constant {
        fn name(&self) -> String {
            "const".into()
        }
        fn estimate(&self, _q: &Query) -> f64 {
            self.0
        }
    }

    fn server_with_tenants(names: &[&str]) -> NetServer {
        let registry = Arc::new(ShardRegistry::new());
        for (i, name) in names.iter().enumerate() {
            let cfg = ShardConfig {
                quota: 16,
                service: ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
            };
            registry
                .register(Shard::new(
                    *name,
                    ShardKey::for_tenant(name),
                    vec![Arc::new(Constant((i + 1) as f64 * 10.0)) as SharedEstimator],
                    cfg,
                ))
                .unwrap();
        }
        NetServer::bind_loopback_with_retry(
            registry,
            NetConfig {
                acceptors: 1,
                tick: Duration::from_millis(5),
                ..NetConfig::default()
            },
            3,
        )
        .unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, frame: &Frame) -> Frame {
        write_frame(stream, frame).unwrap();
        crate::proto::read_frame(stream).unwrap().unwrap()
    }

    fn request(tenant: u128, id: u64) -> Frame {
        Frame::EstimateRequest {
            request_id: id,
            tenant,
            budget_micros: 0,
            query: Query {
                tables: vec![TableId(0)],
                joins: vec![],
                predicates: vec![],
            },
        }
    }

    #[test]
    fn ping_pong_and_estimates_over_real_tcp() {
        let server = server_with_tenants(&["a", "b"]);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            roundtrip(&mut conn, &Frame::Ping { token: 9 }),
            Frame::Pong { token: 9 }
        );
        match roundtrip(&mut conn, &request(ShardKey::for_tenant("a").0, 1)) {
            Frame::EstimateOk {
                request_id, value, ..
            } => {
                assert_eq!(request_id, 1);
                assert_eq!(value, 10.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match roundtrip(&mut conn, &request(ShardKey::for_tenant("b").0, 2)) {
            Frame::EstimateOk { value, .. } => assert_eq!(value, 20.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_tenant_routes_by_rendezvous_not_error() {
        let server = server_with_tenants(&["a"]);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // A tenant nobody registered still lands on *some* shard.
        match roundtrip(&mut conn, &request(ShardKey::for_tenant("stranger").0, 3)) {
            Frame::EstimateOk { value, .. } => assert_eq!(value, 10.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_registry_is_a_typed_error_frame() {
        let registry = Arc::new(ShardRegistry::new());
        let server = NetServer::bind_loopback_with_retry(
            registry,
            NetConfig {
                acceptors: 1,
                tick: Duration::from_millis(5),
                ..NetConfig::default()
            },
            3,
        )
        .unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        match roundtrip(&mut conn, &request(7, 4)) {
            Frame::EstimateErr { code, .. } => assert_eq!(code, ErrCode::UnknownTenant),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_bytes_get_a_typed_error_then_close() {
        let mut server = server_with_tenants(&["a"]);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // A frame whose payload is one unknown tag byte.
        conn.write_all(&1u32.to_le_bytes()).unwrap();
        conn.write_all(&[0xEE]).unwrap();
        match crate::proto::read_frame(&mut conn).unwrap() {
            Some(Frame::EstimateErr { code, .. }) => assert_eq!(code, ErrCode::BadRequest),
            other => panic!("unexpected {other:?}"),
        }
        // Server closed its side after the framing error.
        assert_eq!(crate::proto::read_frame(&mut conn).unwrap(), None);
        // Give the handler a moment to record, then check counters.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.stats().proto_errors, 1);
        server.shutdown();
    }

    #[test]
    fn oversized_header_never_allocates_or_kills_the_server() {
        let server = server_with_tenants(&["a"]);
        let mut bad = TcpStream::connect(server.local_addr()).unwrap();
        bad.write_all(&u32::MAX.to_le_bytes()).unwrap();
        match crate::proto::read_frame(&mut bad).unwrap() {
            Some(Frame::EstimateErr { code, .. }) => assert_eq!(code, ErrCode::BadRequest),
            other => panic!("unexpected {other:?}"),
        }
        // The server survives and serves the next connection.
        let mut good = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            roundtrip(&mut good, &Frame::Ping { token: 1 }),
            Frame::Pong { token: 1 }
        );
    }

    #[test]
    fn shutdown_joins_everything() {
        let mut server = server_with_tenants(&["a"]);
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        roundtrip(&mut conn, &Frame::Ping { token: 1 });
        server.shutdown();
        // Idempotent.
        server.shutdown();
        // The port is released: a fresh bind to the same addr works.
        drop(conn);
        let _rebind = TcpListener::bind(addr);
    }

    #[test]
    fn metrics_merge_net_registry_and_shard_counters() {
        let server = server_with_tenants(&["a"]);
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        roundtrip(&mut conn, &request(ShardKey::for_tenant("a").0, 1));
        let snap = server.metrics();
        assert!(snap.counter("net.requests_ok") >= 1);
        assert_eq!(snap.counter("shard.a.routing.routed"), 1);
        assert_eq!(snap.counter("registry.routes.exact"), 1);
    }
}
