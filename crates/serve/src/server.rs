//! The `gcond` serving daemon: a thread-per-connection TCP server over
//! [`crate::wire`], feeding every query through one shared
//! [`BatchQueue`](crate::BatchQueue).
//!
//! # Design
//!
//! * **Thread-per-connection on `std::net`** — no async runtime, no
//!   crates.io. Connections are cheap relative to queries here: the
//!   expected workload is few long-lived clients each multiplexing many
//!   queries, and the [`BatchQueue`] behind the socket is the flat
//!   combiner that turns those concurrent per-connection threads into
//!   serving-efficient GEMM shapes.
//! * **Bounded-inflight gate** — at most
//!   [`ServerConfig::max_inflight`] requests may be inside the
//!   [`BatchQueue`] at once. The gate **rejects** rather than queues: an
//!   over-limit request is answered immediately with
//!   [`ErrorCode::Overloaded`] so the client can back off, instead of
//!   silently growing an unbounded queue in front of the batcher (the
//!   combiner's request queue is the *only* queue, and the gate caps it).
//! * **Failed batches are typed errors** — each query of a batch whose
//!   forward panicked gets [`ErrorCode::Internal`] on a connection that
//!   stays open, and the `degraded` flag latches.
//! * **Timeouts everywhere** — every connection socket gets
//!   [`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`], so
//!   an idle or stuck peer frees its thread instead of leaking it.
//! * **Fail-closed framing** — all parsing happens in [`crate::wire`];
//!   any malformed, oversized, or out-of-session frame is answered with a
//!   typed `Error` frame (when the socket still works) and the connection
//!   is closed. A hostile client can never panic the server.
//!
//! The accept loop runs non-blocking with a small poll sleep so
//! [`ServerHandle::stop`] can interrupt it; worker threads are joined by
//! scope exit, so [`Server::run`] returns only after every connection
//! thread finished.

use crate::batch::{BatchConfig, BatchQueue};
use crate::model::ServingModel;
use crate::wire::{
    read_frame, write_frame, ErrorCode, Request, Response, ServerInfo, WireError, WireStats,
    DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning knobs of a [`Server`], all overridable via `GCON_SERVER_*`
/// environment variables (see [`ServerConfig::from_env`]).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum requests allowed inside the [`BatchQueue`] concurrently;
    /// excess requests are rejected with [`ErrorCode::Overloaded`].
    /// Must be ≥ 1.
    pub max_inflight: usize,
    /// Per-connection socket read timeout (idle clients are disconnected).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted frame-body length, bytes (also bounds response
    /// chunks). Must be ≥ 64 so a handshake always fits.
    pub max_frame: usize,
    /// Batch bound of the underlying [`BatchQueue`].
    pub batch: BatchConfig,
}

impl Default for ServerConfig {
    /// 64 in-flight requests, 30 s read / 10 s write timeouts,
    /// [`DEFAULT_MAX_FRAME`], default [`BatchConfig`].
    fn default() -> Self {
        Self {
            max_inflight: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame: DEFAULT_MAX_FRAME,
            batch: BatchConfig::default(),
        }
    }
}

impl ServerConfig {
    /// [`Default`] overridden by `GCON_SERVER_MAX_INFLIGHT` (requests),
    /// `GCON_SERVER_READ_TIMEOUT_MS` / `GCON_SERVER_WRITE_TIMEOUT_MS`
    /// (milliseconds, ≥ 1 — a zero timeout would mean "never time out" on
    /// `std::net` and is rejected) and `GCON_SERVER_MAX_FRAME` (bytes,
    /// ≥ 64). Unparsable values fall back to the default with a warning
    /// (via [`gcon_runtime::envknob`]).
    pub fn from_env() -> Self {
        use gcon_runtime::envknob::env_knob;
        let d = Self::default();
        Self {
            max_inflight: env_knob(
                "gcon-serve",
                "GCON_SERVER_MAX_INFLIGHT",
                d.max_inflight,
                "an integer ≥ 1",
                "64",
                |v| v.parse::<usize>().ok().filter(|&n| n >= 1),
            ),
            read_timeout: env_knob(
                "gcon-serve",
                "GCON_SERVER_READ_TIMEOUT_MS",
                d.read_timeout,
                "milliseconds ≥ 1",
                "30s",
                |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
            ),
            write_timeout: env_knob(
                "gcon-serve",
                "GCON_SERVER_WRITE_TIMEOUT_MS",
                d.write_timeout,
                "milliseconds ≥ 1",
                "10s",
                |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
            ),
            max_frame: env_knob(
                "gcon-serve",
                "GCON_SERVER_MAX_FRAME",
                d.max_frame,
                "bytes ≥ 64",
                "8 MiB",
                |v| v.parse::<usize>().ok().filter(|&b| b >= 64),
            ),
            batch: d.batch,
        }
    }
}

/// Counting gate bounding how many requests may occupy the
/// [`BatchQueue`] at once. Reject-on-full (no wait queue): backpressure
/// is surfaced to the client as [`ErrorCode::Overloaded`].
#[derive(Debug)]
struct InflightGate {
    permits: Mutex<usize>,
}

impl InflightGate {
    fn new(permits: usize) -> Self {
        Self { permits: Mutex::new(permits) }
    }

    /// Takes a permit if one is free.
    fn try_acquire(&self) -> bool {
        let mut p = self.permits.lock().unwrap();
        if *p > 0 {
            *p -= 1;
            true
        } else {
            false
        }
    }

    fn release(&self) {
        *self.permits.lock().unwrap() += 1;
    }
}

/// RAII permit so early returns and panics release the gate.
struct Permit<'g>(&'g InflightGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Clonable remote control for a running [`Server`]: lets another thread
/// (signal handler, test harness) stop the accept loop.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Wraps a shutdown flag (shared with [`crate::fleet::ShardWorker`],
    /// which reuses this handle type for its own accept loop).
    pub(crate) fn new(shutdown: Arc<AtomicBool>) -> Self {
        Self { shutdown }
    }

    /// Asks the server to stop accepting and return from [`Server::run`]
    /// once in-flight connections drain (their sockets still honour the
    /// read timeout, so drain is bounded).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound `gcond` server: the listener plus the shared serving state.
/// Construct with [`Server::bind`], then block on [`Server::run`].
pub struct Server<'m> {
    queue: BatchQueue<'m>,
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    gate: InflightGate,
    shutdown: Arc<AtomicBool>,
    degraded: Arc<AtomicBool>,
    connections: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    token_seq: AtomicU64,
}

impl<'m> Server<'m> {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`Server::local_addr`]) over a frozen store. The store stays
    /// borrowed for the server's lifetime — queries run through one shared
    /// [`BatchQueue`] so concurrent connections micro-batch together.
    pub fn bind(
        model: &'m ServingModel,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Self> {
        assert!(config.max_inflight >= 1, "ServerConfig::max_inflight must be ≥ 1");
        assert!(config.max_frame >= 64, "ServerConfig::max_frame must be ≥ 64 bytes");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            queue: BatchQueue::new(model, config.batch),
            listener,
            local_addr,
            config,
            gate: InflightGate::new(config.max_inflight),
            shutdown: Arc::new(AtomicBool::new(false)),
            degraded: Arc::new(AtomicBool::new(false)),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            token_seq: AtomicU64::new(0x6763_6F6E_6400_0001), // "gcond" seed
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shutdown: self.shutdown.clone() }
    }

    /// The degraded-health flag surfaced in `Stats`/`Health` frames. The
    /// server latches it when a query batch panics; an embedder serving a
    /// [`crate::DynamicServingModel`] bridges
    /// [`is_degraded`](crate::DynamicServingModel::is_degraded) into this
    /// flag so remote operators see panic recovery.
    pub fn degraded_flag(&self) -> Arc<AtomicBool> {
        self.degraded.clone()
    }

    /// Counter snapshot (the same numbers a `Stats` frame carries).
    pub fn stats(&self) -> WireStats {
        let batch = self.queue.stats();
        WireStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: batch.batches,
            largest_batch: batch.largest_batch as u64,
            rejected_overload: self.rejected.load(Ordering::Relaxed),
            quarantined: 0,
            failovers: 0,
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    fn server_info(&self) -> ServerInfo {
        let model = self.queue.model();
        ServerInfo {
            proto: PROTO_VERSION,
            mode: model.mode(),
            dtype: model.store_dtype(),
            nodes: model.num_nodes() as u64,
            feature_dim: model.feature_dim() as u32,
            classes: model.num_classes() as u32,
        }
    }

    /// Accepts and serves connections until [`ServerHandle::stop`] is
    /// called, then joins every connection thread and returns. Run this on
    /// a dedicated thread (it blocks).
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        scope.spawn(move || self.serve_connection(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
    }

    /// One connection's whole lifecycle; all errors end in a close, never
    /// a propagated panic.
    fn serve_connection(&self, stream: TcpStream) {
        // A connection we cannot even configure is not worth serving.
        if stream.set_read_timeout(Some(self.config.read_timeout)).is_err()
            || stream.set_write_timeout(Some(self.config.write_timeout)).is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        let mut reader = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut writer = std::io::BufWriter::new(stream);
        let _ = self.session_loop(&mut reader, &mut writer);
        let _ = writer.flush();
    }

    /// Reads frames until goodbye/disconnect/error. `Err` means "stop
    /// serving this connection" — the error itself was already reported to
    /// the peer where possible.
    fn session_loop(
        &self,
        reader: &mut TcpStream,
        writer: &mut std::io::BufWriter<TcpStream>,
    ) -> Result<(), WireError> {
        let mut token: Option<u64> = None;
        loop {
            let body = match read_frame(reader, self.config.max_frame) {
                Ok(Some(body)) => body,
                Ok(None) => return Ok(()), // clean disconnect
                Err(WireError::FrameTooLarge { .. }) => {
                    // The body was never read, so the stream is desynced:
                    // report and close.
                    self.reply_error(writer, ErrorCode::TooLarge, "frame exceeds server bound")?;
                    return Ok(());
                }
                Err(e) => return Err(e),
            };
            let request = match Request::decode(&body) {
                Ok(r) => r,
                Err(_) => {
                    self.reply_error(writer, ErrorCode::BadFrame, "undecodable request frame")?;
                    return Ok(());
                }
            };
            match (request, &mut token) {
                (Request::Health, _) => {
                    let degraded = self.degraded.load(Ordering::Relaxed);
                    self.reply(writer, &Response::HealthReply { ok: !degraded })?;
                }
                (Request::Bye, _) => return Ok(()),
                (Request::Hello { proto }, tok @ None) => {
                    if proto != PROTO_VERSION {
                        self.reply_error(
                            writer,
                            ErrorCode::BadHandshake,
                            "unsupported protocol version",
                        )?;
                        return Ok(());
                    }
                    // Session token: a cheap per-connection nonce (counter
                    // diffused by the splitmix64 multiplier), not a
                    // credential — it catches desynced/replayed frames.
                    let t = self
                        .token_seq
                        .fetch_add(1, Ordering::Relaxed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    *tok = Some(t);
                    self.reply(writer, &Response::HelloAck { token: t, info: self.server_info() })?;
                }
                (Request::Hello { .. }, Some(_)) => {
                    self.reply_error(writer, ErrorCode::BadHandshake, "duplicate hello")?;
                    return Ok(());
                }
                (req, Some(t)) => self.serve_authenticated(writer, req, *t)?,
                (_, None) => {
                    self.reply_error(writer, ErrorCode::BadHandshake, "hello required first")?;
                    return Ok(());
                }
            }
            writer.flush()?;
        }
    }

    /// Post-handshake requests. Token mismatches close the connection.
    fn serve_authenticated(
        &self,
        writer: &mut std::io::BufWriter<TcpStream>,
        request: Request,
        session_token: u64,
    ) -> Result<(), WireError> {
        let presented = match &request {
            Request::Query { token, .. }
            | Request::Bulk { token, .. }
            | Request::Stats { token }
            | Request::ShardAssign { token, .. }
            | Request::ShardQuery { token, .. }
            | Request::ShardFingerprint { token, .. } => *token,
            // Health/Bye/Hello never reach here (handled by the caller).
            _ => unreachable!("serve_authenticated: unauthenticated opcode"),
        };
        if presented != session_token {
            self.reply_error(writer, ErrorCode::BadToken, "wrong session token")?;
            return Err(WireError::Malformed("token mismatch"));
        }
        match request {
            Request::Query { node, .. } => {
                let n = self.queue.model().num_nodes() as u64;
                if node >= n {
                    return self.reply_error(
                        writer,
                        ErrorCode::NodeOutOfRange,
                        "node id too large",
                    );
                }
                let Some(_permit) = self.acquire_permit() else {
                    return self.reply_overloaded(writer);
                };
                let mut values = Vec::new();
                if self.queue.try_query_into(node as usize, &mut values).is_err() {
                    self.degraded.store(true, Ordering::Relaxed);
                    return self.reply_error(writer, ErrorCode::Internal, "query batch failed");
                }
                self.requests.fetch_add(1, Ordering::Relaxed);
                self.reply(writer, &Response::Logits { values })
            }
            Request::Bulk { nodes, .. } => {
                let n = self.queue.model().num_nodes() as u64;
                if nodes.iter().any(|&node| node >= n) {
                    return self.reply_error(
                        writer,
                        ErrorCode::NodeOutOfRange,
                        "node id too large",
                    );
                }
                let Some(_permit) = self.acquire_permit() else {
                    return self.reply_overloaded(writer);
                };
                self.stream_bulk(writer, &nodes)
            }
            Request::Stats { .. } => self.reply(writer, &Response::StatsReply(self.stats())),
            // Fleet frames belong to shard workers (`crate::ShardWorker`);
            // a plain single-store daemon answers them with a typed error
            // instead of dropping the connection.
            Request::ShardAssign { .. }
            | Request::ShardQuery { .. }
            | Request::ShardFingerprint { .. } => self.reply_error(
                writer,
                ErrorCode::NotAssigned,
                "shard frames are served by gcond --shard workers",
            ),
            _ => unreachable!("serve_authenticated: unauthenticated opcode"),
        }
    }

    /// Answers a bulk query as a bounded-size `BulkChunk` stream +
    /// `BulkDone`. A bulk request is already a batch, so each chunk runs
    /// as **one** gathered head forward on a connection-local
    /// [`crate::ServingSession`] instead of being serialized through the
    /// micro-batcher one node at a time — bitwise the same answers (the
    /// store's logits are batch-composition-invariant), minus the
    /// per-request combiner hop. The inflight permit held by the caller
    /// still bounds concurrent bulk work.
    fn stream_bulk(
        &self,
        writer: &mut std::io::BufWriter<TcpStream>,
        nodes: &[u64],
    ) -> Result<(), WireError> {
        let cols = self.queue.model().num_classes();
        // Rows per chunk so a chunk frame stays under max_frame (32 bytes
        // of header slack); ≥ 1 so progress is always made.
        let rows_per_chunk = ((self.config.max_frame - 32) / (cols * 8).max(1)).max(1);
        let mut session = self.queue.model().session();
        let mut batch = Vec::with_capacity(rows_per_chunk.min(nodes.len()));
        for (i, chunk) in nodes.chunks(rows_per_chunk).enumerate() {
            batch.clear();
            batch.extend(chunk.iter().map(|&n| n as usize));
            let logits = session.logits_batch(&batch);
            self.requests.fetch_add(chunk.len() as u64, Ordering::Relaxed);
            self.reply(
                writer,
                &Response::BulkChunk {
                    start: (i * rows_per_chunk) as u64,
                    cols: cols as u32,
                    values: logits.as_slice().to_vec(),
                },
            )?;
        }
        self.reply(writer, &Response::BulkDone { total_rows: nodes.len() as u64 })
    }

    fn acquire_permit(&self) -> Option<Permit<'_>> {
        if self.gate.try_acquire() {
            Some(Permit(&self.gate))
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    fn reply(
        &self,
        writer: &mut std::io::BufWriter<TcpStream>,
        response: &Response,
    ) -> Result<(), WireError> {
        write_frame(writer, &response.encode())
    }

    fn reply_overloaded(
        &self,
        writer: &mut std::io::BufWriter<TcpStream>,
    ) -> Result<(), WireError> {
        self.reply_error(writer, ErrorCode::Overloaded, "inflight limit reached; retry")
    }

    fn reply_error(
        &self,
        writer: &mut std::io::BufWriter<TcpStream>,
        code: ErrorCode,
        message: &str,
    ) -> Result<(), WireError> {
        self.reply(writer, &Response::Error { code, message: message.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::GconClient;

    #[test]
    fn gate_counts_and_releases() {
        let gate = InflightGate::new(2);
        assert!(gate.try_acquire());
        assert!(gate.try_acquire());
        assert!(!gate.try_acquire(), "both permits taken");
        {
            let _p = Permit(&gate); // adopts one of the taken permits
        }
        // Permit dropped → one free again.
        assert!(gate.try_acquire());
        gate.release();
        gate.release();
    }

    #[test]
    fn config_env_parsers_accept_and_reject() {
        // Pure parser behaviour via the shared resolver — no env mutation
        // (the workspace's tests run in parallel threads).
        use gcon_runtime::envknob::resolve;
        let d = ServerConfig::default();
        let r = resolve(
            "t",
            "GCON_SERVER_READ_TIMEOUT_MS",
            Some("0"),
            d.read_timeout,
            "ms",
            "30s",
            |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
        );
        assert_eq!(r.value, d.read_timeout, "0 ms would disable the timeout; rejected");
        assert!(r.warning.is_some());
        let r =
            resolve("t", "GCON_SERVER_MAX_INFLIGHT", Some("3"), d.max_inflight, "n", "64", |v| {
                v.parse::<usize>().ok().filter(|&n| n >= 1)
            });
        assert_eq!((r.value, r.warning), (3, None));
    }

    /// A query batch that panics is answered with `Internal` on the same
    /// connection, which keeps serving bitwise, and latches `degraded`.
    #[test]
    fn failed_query_batch_answers_internal_and_latches_degraded() {
        let store = crate::testutil::tiny_store();
        let server = Server::bind(store, ServerConfig::default(), "127.0.0.1:0").expect("bind");
        std::thread::scope(|scope| {
            scope.spawn(|| server.run().expect("server run"));
            let mut client = GconClient::connect(server.local_addr()).expect("connect");
            assert!(client.health().expect("health"));

            server.queue.panic_next_batch();
            match client.logits(3) {
                Err(WireError::Server { code: ErrorCode::Internal, .. }) => {}
                other => panic!("expected an Internal error, got {other:?}"),
            }
            assert_eq!(client.logits(3).expect("same connection"), store.logits(3));
            assert!(!client.health().expect("health"), "degraded must latch");
            let stats = client.stats().expect("stats");
            assert!(stats.degraded);
            assert_eq!((stats.batches, stats.requests), (2, 1), "one failed, one answered");
            client.bye().expect("bye");
            server.handle().stop();
        });
    }
}
