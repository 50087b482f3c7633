//! The `gcond` serving daemon: a thread-per-connection TCP server over
//! [`crate::wire`], feeding every query through one shared
//! [`BatchQueue`](crate::BatchQueue).
//!
//! # Design
//!
//! * **One session core for both daemon roles** — a crate-private
//!   `Listener` owns the bind, the accept loop, socket setup and the
//!   session loop (frame bound, decode, `Hello`/`HelloAck`, the token
//!   check, `Health`, `Stats`, `Bye`); its `Conn` write half owns the
//!   replies and the one chunked logits stream. A daemon role implements
//!   the four-method `Role` trait: what `HelloAck` announces, whether it
//!   is healthy, its `Stats` counters, and how it answers every other
//!   authenticated request. [`Server`] (`gcond`) and
//!   [`ShardWorker`](crate::ShardWorker) (`gcond --shard`) are the two
//!   roles, so a session fix lands in both at once.
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
//! [`ServerHandle::stop`] can interrupt it; connection threads are joined
//! by scope exit, so [`Server::run`] returns only after every connection
//! thread finished.

use crate::batch::{BatchConfig, BatchQueue};
use crate::model::ServingModel;
use crate::wire::{
    read_frame, write_frame, ErrorCode, Request, Response, ServerInfo, WireError, WireStats,
    DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use std::io::{BufWriter, Write};
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

/// Clonable remote control for a running [`Server`] or
/// [`ShardWorker`](crate::ShardWorker): lets another thread (signal
/// handler, test harness) stop the accept loop.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the daemon to stop accepting and return from [`Server::run`]
    /// once in-flight connections drain (their sockets still honour the
    /// read timeout, so drain is bounded).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// What a daemon role answers; [`Listener`] runs the rest of every
/// session (handshake, token check, `Health`, `Stats`, `Bye`).
pub(crate) trait Role: Sync {
    /// The store handshake `HelloAck` announces.
    fn info(&self) -> ServerInfo;
    /// What a `Health` probe answers.
    fn healthy(&self) -> bool;
    /// The counters a `Stats` frame carries.
    fn stats(&self) -> WireStats;
    /// Answers one authenticated request other than `Stats`. A refusal is
    /// a typed `Error` frame; an `Err` closes the connection.
    fn serve(&self, conn: &mut Conn, request: Request) -> Result<(), WireError>;
}

/// The session core of both daemon roles: the bound socket, the accept
/// loop, per-connection socket setup and the session loop.
pub(crate) struct Listener {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    connections: AtomicU64,
    token_seq: AtomicU64,
}

impl Listener {
    /// Binds `addr` (port 0 for an ephemeral port).
    pub(crate) fn bind(config: ServerConfig, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        assert!(config.max_frame >= 64, "ServerConfig::max_frame must be ≥ 64 bytes");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            connections: AtomicU64::new(0),
            token_seq: AtomicU64::new(0x6763_6F6E_6400_0001), // "gcond" seed
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub(crate) fn handle(&self) -> ServerHandle {
        ServerHandle { shutdown: self.shutdown.clone() }
    }

    /// Connections accepted since bind.
    pub(crate) fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Accepts and serves connections for `role` until
    /// [`ServerHandle::stop`], then joins every connection thread and
    /// returns.
    pub(crate) fn run(&self, role: &dyn Role) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        scope.spawn(move || self.serve_connection(role, stream));
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
    fn serve_connection(&self, role: &dyn Role, stream: TcpStream) {
        // A connection we cannot even configure is not worth serving.
        if stream.set_read_timeout(Some(self.config.read_timeout)).is_err()
            || stream.set_write_timeout(Some(self.config.write_timeout)).is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        let Ok(mut reader) = stream.try_clone() else { return };
        let mut conn = Conn { writer: BufWriter::new(stream), max_frame: self.config.max_frame };
        let _ = self.session_loop(role, &mut reader, &mut conn);
        let _ = conn.writer.flush();
    }

    /// Reads frames until goodbye/disconnect/error. A refusal that ends the
    /// session is reported to the peer (while the socket still works)
    /// before the connection closes.
    fn session_loop(
        &self,
        role: &dyn Role,
        reader: &mut TcpStream,
        conn: &mut Conn,
    ) -> Result<(), WireError> {
        let mut session: Option<u64> = None;
        loop {
            let body = match read_frame(reader, self.config.max_frame) {
                Ok(Some(body)) => body,
                Ok(None) => return Ok(()), // clean disconnect
                // The body was never read, so the stream is desynced:
                // report and close.
                Err(WireError::FrameTooLarge { .. }) => {
                    return conn.error(ErrorCode::TooLarge, "frame exceeds server bound");
                }
                Err(e) => return Err(e),
            };
            let Ok(request) = Request::decode(&body) else {
                return conn.error(ErrorCode::BadFrame, "undecodable request frame");
            };
            match request {
                Request::Health => conn.reply(&Response::HealthReply { ok: role.healthy() })?,
                Request::Bye => return Ok(()),
                Request::Hello { .. } if session.is_some() => {
                    return conn.error(ErrorCode::BadHandshake, "duplicate hello");
                }
                Request::Hello { proto } if proto != PROTO_VERSION => {
                    return conn.error(ErrorCode::BadHandshake, "unsupported protocol version");
                }
                Request::Hello { .. } => {
                    // Session token: a cheap per-connection nonce (counter
                    // diffused by the splitmix64 multiplier), not a
                    // credential — it catches desynced/replayed frames.
                    let token = self
                        .token_seq
                        .fetch_add(1, Ordering::Relaxed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    session = Some(token);
                    conn.reply(&Response::HelloAck { token, info: role.info() })?;
                }
                _ if session.is_none() => {
                    return conn.error(ErrorCode::BadHandshake, "hello required first");
                }
                _ if request.token() != session => {
                    return conn.error(ErrorCode::BadToken, "wrong session token");
                }
                Request::Stats { .. } => conn.reply(&Response::StatsReply(role.stats()))?,
                request => role.serve(conn, request)?,
            }
            conn.writer.flush()?;
        }
    }
}

/// The write half of one connection. Replies are buffered until the
/// session loop flushes after each request.
pub(crate) struct Conn {
    writer: BufWriter<TcpStream>,
    max_frame: usize,
}

impl Conn {
    /// Writes one response frame.
    pub(crate) fn reply(&mut self, response: &Response) -> Result<(), WireError> {
        write_frame(&mut self.writer, &response.encode())
    }

    /// Writes a typed `Error` frame.
    pub(crate) fn error(&mut self, code: ErrorCode, message: &str) -> Result<(), WireError> {
        self.reply(&Response::Error { code, message: message.to_string() })
    }

    /// Answers the store rows `rows` of `model` as a stream of bounded
    /// chunk frames built by `chunk_frame(start, cols, values)` (`BulkChunk`
    /// or `ShardLogits`), terminated by `BulkDone`. A bulk request is
    /// already a batch, so each chunk runs as **one** gathered head forward
    /// on a connection-local [`crate::ServingSession`] — bitwise the same
    /// answers as single queries (the store's logits are
    /// batch-composition-invariant).
    pub(crate) fn stream_logits(
        &mut self,
        model: &ServingModel,
        rows: &[usize],
        chunk_frame: fn(u64, u32, Vec<f64>) -> Response,
    ) -> Result<(), WireError> {
        let cols = model.num_classes();
        // Rows per chunk so a chunk frame stays under max_frame (32 bytes
        // of header slack); ≥ 1 so progress is always made.
        let rows_per_chunk = ((self.max_frame - 32) / (cols * 8).max(1)).max(1);
        let mut session = model.session();
        for (i, chunk) in rows.chunks(rows_per_chunk).enumerate() {
            let values = session.logits_batch(chunk).as_slice().to_vec();
            self.reply(&chunk_frame((i * rows_per_chunk) as u64, cols as u32, values))?;
        }
        self.reply(&Response::BulkDone { total_rows: rows.len() as u64 })
    }
}

/// The `HelloAck` store handshake of `model`.
pub(crate) fn store_info(model: &ServingModel) -> ServerInfo {
    ServerInfo {
        proto: PROTO_VERSION,
        mode: model.mode(),
        dtype: model.store_dtype(),
        nodes: model.num_nodes() as u64,
        feature_dim: model.feature_dim() as u32,
        classes: model.num_classes() as u32,
    }
}

/// A bound `gcond` server: the session core plus the shared serving state.
/// Construct with [`Server::bind`], then block on [`Server::run`].
pub struct Server<'m> {
    listener: Listener,
    queue: BatchQueue<'m>,
    gate: InflightGate,
    degraded: AtomicBool,
    requests: AtomicU64,
    rejected: AtomicU64,
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
        Ok(Self {
            listener: Listener::bind(config, addr)?,
            queue: BatchQueue::new(model, config.batch),
            gate: InflightGate::new(config.max_inflight),
            degraded: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A clonable handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        self.listener.handle()
    }

    /// Counter snapshot (the same numbers a `Stats` frame carries).
    pub fn stats(&self) -> WireStats {
        Role::stats(self)
    }

    /// Accepts and serves connections until [`ServerHandle::stop`] is
    /// called, then joins every connection thread and returns. Run this on
    /// a dedicated thread (it blocks).
    pub fn run(&self) -> std::io::Result<()> {
        self.listener.run(self)
    }

    fn acquire_permit(&self) -> Option<Permit<'_>> {
        if self.gate.try_acquire() {
            Some(Permit(&self.gate))
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

impl Role for Server<'_> {
    fn info(&self) -> ServerInfo {
        store_info(self.queue.model())
    }

    fn healthy(&self) -> bool {
        !self.degraded.load(Ordering::Relaxed)
    }

    fn stats(&self) -> WireStats {
        let batch = self.queue.stats();
        WireStats {
            connections: self.listener.connections(),
            requests: self.requests.load(Ordering::Relaxed),
            batches: batch.batches,
            largest_batch: batch.largest_batch as u64,
            rejected_overload: self.rejected.load(Ordering::Relaxed),
            quarantined: 0,
            failovers: 0,
            degraded: !self.healthy(),
        }
    }

    fn serve(&self, conn: &mut Conn, request: Request) -> Result<(), WireError> {
        let model = self.queue.model();
        let n = model.num_nodes() as u64;
        match request {
            Request::Query { node, .. } => {
                if node >= n {
                    return conn.error(ErrorCode::NodeOutOfRange, "node id too large");
                }
                let Some(_permit) = self.acquire_permit() else {
                    return conn.error(ErrorCode::Overloaded, "inflight limit reached; retry");
                };
                let mut values = Vec::new();
                if self.queue.try_query_into(node as usize, &mut values).is_err() {
                    self.degraded.store(true, Ordering::Relaxed);
                    return conn.error(ErrorCode::Internal, "query batch failed");
                }
                self.requests.fetch_add(1, Ordering::Relaxed);
                conn.reply(&Response::Logits { values })
            }
            Request::Bulk { nodes, .. } => {
                let rows: Option<Vec<usize>> =
                    nodes.iter().map(|&node| (node < n).then_some(node as usize)).collect();
                let Some(rows) = rows else {
                    return conn.error(ErrorCode::NodeOutOfRange, "node id too large");
                };
                // The permit bounds concurrent bulk work, which skips the
                // micro-batcher (see `Conn::stream_logits`).
                let Some(_permit) = self.acquire_permit() else {
                    return conn.error(ErrorCode::Overloaded, "inflight limit reached; retry");
                };
                conn.stream_logits(model, &rows, |start, cols, values| Response::BulkChunk {
                    start,
                    cols,
                    values,
                })?;
                self.requests.fetch_add(rows.len() as u64, Ordering::Relaxed);
                Ok(())
            }
            // Fleet frames belong to shard workers (`crate::ShardWorker`);
            // a plain single-store daemon answers them with a typed error
            // instead of dropping the connection.
            _ => conn
                .error(ErrorCode::NotAssigned, "shard frames are served by gcond --shard workers"),
        }
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
